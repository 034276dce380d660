//! Workload inputs and the answers the reference predicts for them.
//!
//! Every workload is a list of tenants (population spec, fold horizon,
//! optional admission ceiling) and a generated stream of request lines.
//! Each line is generated together with its [`Expect`]ation, computed by
//! the reference in [`crate::oracle`], so checking an answer is a string
//! parse and a comparison.

use crate::oracle::{self, Adversary, Loss, PopView, Population};
use crate::sys::{round6, Rng64};
use std::ops::Range;
use std::rc::Rc;

/// What the program must answer to one request line.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exactly this text.
    Exact(String),
    /// An admitted `OBSERVE`: `OK rev=R t=T`.
    Admit { rev: u64, t: usize },
    /// A refused `OBSERVE`: the scope, the projected value (within
    /// tolerance) and the ceiling (bit for bit).
    Refuse {
        scope: String,
        projected: f64,
        ceiling: f64,
    },
    /// A `QUERY` answered from revision `rev` of the tenant whose
    /// reference answers are `view`.
    Query {
        rev: u64,
        kind: QueryKind,
        view: Rc<PopView>,
        /// Reference w-event value for `QueryKind::WEvent`.
        wevent: Option<f64>,
        /// Users acceptable as `most_exposed`.
        exposed_ok: Rc<Vec<bool>>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    MaxTpl,
    MostExposed,
    TplSeries,
    WEvent(usize),
}

impl QueryKind {
    pub fn wire(self) -> String {
        match self {
            QueryKind::MaxTpl => "max_tpl".into(),
            QueryKind::MostExposed => "most_exposed".into(),
            QueryKind::TplSeries => "tpl_series".into(),
            QueryKind::WEvent(w) => format!("wevent {w}"),
        }
    }
}

/// One request line with its expected answer.
#[derive(Debug, Clone)]
pub struct Step {
    pub tenant: usize,
    pub line: String,
    pub expect: Expect,
    /// Whether this is the first query after a release (pays the series
    /// rebuild).
    pub cold: bool,
    /// For an admitted release under an α ceiling: whether the Theorem 5
    /// bound alone already decided it (see [`Tenant::bound_decides`]).
    pub bound: Option<bool>,
}

impl Step {
    pub fn is_observe(&self) -> bool {
        self.line.starts_with("OBSERVE")
    }
}

/// A release: its wire payload and each user's ε.
#[derive(Debug, Clone)]
pub struct Release {
    pub text: String,
    pub per_user: Vec<f64>,
}

impl Release {
    pub fn uniform(eps: f64, users: usize) -> Release {
        Release {
            text: format!("{eps}"),
            per_user: vec![eps; users],
        }
    }

    pub fn ranges(blocks: &[Range<usize>], eps: &[f64], users: usize) -> Release {
        let mut per_user = vec![0.0; users];
        let mut parts = Vec::with_capacity(blocks.len());
        for (b, &e) in blocks.iter().zip(eps) {
            for slot in &mut per_user[b.clone()] {
                *slot = e;
            }
            parts.push(format!("[{},{},{}]", b.start, b.end, e));
        }
        Release {
            text: format!("[{}]", parts.join(",")),
            per_user,
        }
    }
}

/// One group of a population spec.
#[derive(Debug, Clone)]
pub struct Group {
    pub users: Range<usize>,
    pub pb: Option<Vec<Vec<f64>>>,
    pub pf: Option<Vec<Vec<f64>>>,
}

/// An admission ceiling.
#[derive(Debug, Clone)]
pub struct Ceiling {
    pub alpha: f64,
    pub windows: Vec<(usize, f64)>,
}

/// One tenant: its spec, its reference state and its expected revision.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: String,
    pub groups: Vec<Group>,
    pub users: usize,
    /// Personalized releases assign one ε per block.
    pub blocks: Vec<Range<usize>>,
    pub horizon: usize,
    pub ceiling: Option<Ceiling>,
    /// Window length used by `QUERY wevent`.
    pub wq: usize,
    pub oracle: Population,
    /// Revision of the last acknowledged mutation.
    pub rev: u64,
    /// Number of shards the program should report.
    pub shards: usize,
    /// The largest TPL any committed state's live window has held. TPL at
    /// a fixed time only grows as releases arrive (FPL gains a term and
    /// `L^F` is monotone), so this bounds the exact all-time maximum from
    /// below without the O(T) full-history pass.
    pub tpl_floor: f64,
}

fn matrix_json(rows: &[Vec<f64>]) -> String {
    let rs: Vec<String> = rows
        .iter()
        .map(|r| {
            let cs: Vec<String> = r.iter().map(|v| format!("{v}")).collect();
            format!("[{}]", cs.join(","))
        })
        .collect();
    format!("[{}]", rs.join(","))
}

/// A random 2-state chain `[[a, 1−a], [1−b, b]]`.
pub fn chain2(rng: &mut Rng64) -> Vec<Vec<f64>> {
    let a = rng.f(0.55, 0.95);
    let b = rng.f(0.55, 0.95);
    vec![vec![a, 1.0 - a], vec![1.0 - b, b]]
}

/// The paper's Section VI generator (`smoothed_strongest`) on an n-state
/// domain with smoothing `s`.
pub fn chain_n(n: usize, s: f64, seed: u64) -> Vec<Vec<f64>> {
    use rand::SeedableRng;
    let mut r = rand::rngs::StdRng::seed_from_u64(seed);
    let m = tcdp_markov::smoothing::smoothed_strongest(n, s, &mut r)
        .expect("smoothed_strongest on n >= 1, s >= 0");
    m.rows().map(|row| row.to_vec()).collect()
}

impl Tenant {
    pub fn new(
        name: String,
        groups: Vec<Group>,
        blocks: Vec<Range<usize>>,
        horizon: usize,
    ) -> Self {
        let users = groups.last().map_or(0, |g| g.users.end);
        let mut advs = Vec::with_capacity(users);
        for g in &groups {
            let adv = Adversary {
                backward: g.pb.as_ref().map(|m| Rc::new(Loss::new(m))),
                forward: g.pf.as_ref().map(|m| Rc::new(Loss::new(m))),
            };
            for _ in g.users.clone() {
                advs.push(adv.clone());
            }
        }
        let shards = blocks.len().max(groups.len());
        Tenant {
            name,
            users,
            oracle: Population::new(advs),
            groups,
            blocks,
            horizon,
            ceiling: None,
            wq: 4,
            rev: 0,
            shards,
            tpl_floor: f64::NEG_INFINITY,
        }
    }

    pub fn spec(&self) -> String {
        let gs: Vec<String> = self
            .groups
            .iter()
            .map(|g| {
                let mut s = format!("{{\"count\":{}", g.users.len());
                if let Some(m) = &g.pb {
                    s.push_str(&format!(",\"pb\":{}", matrix_json(m)));
                }
                if let Some(m) = &g.pf {
                    s.push_str(&format!(",\"pf\":{}", matrix_json(m)));
                }
                s.push('}');
                s
            })
            .collect();
        format!("[{}]", gs.join(","))
    }

    /// The registration steps: `CREATE`, `CEILING`, `HORIZON`.
    pub fn register(&mut self, idx: usize) -> Vec<Step> {
        let mut steps = vec![Step {
            tenant: idx,
            line: format!("CREATE {} {}", self.name, self.spec()),
            expect: Expect::Exact(format!(
                "OK created users={} groups={} rev=0",
                self.users,
                self.groups.len()
            )),
            cold: false,
            bound: None,
        }];
        if let Some(c) = &self.ceiling {
            let mut line = format!("CEILING {} {}", self.name, c.alpha);
            for (w, l) in &c.windows {
                line.push_str(&format!(" {w}:{l}"));
            }
            steps.push(Step {
                tenant: idx,
                line,
                expect: Expect::Exact("OK ceiling-set".into()),
                cold: false,
                bound: None,
            });
            self.rev += c.windows.len() as u64;
            self.oracle.tracked = c.windows.iter().map(|&(w, _)| w).collect();
        }
        self.rev += 1;
        self.oracle.horizon = Some(self.horizon);
        steps.push(Step {
            tenant: idx,
            line: format!("HORIZON {} {}", self.name, self.horizon),
            expect: Expect::Exact(format!("OK rev={}", self.rev)),
            cold: false,
            bound: None,
        });
        steps
    }

    /// Observe `rel`, predicting admission or refusal with the reference.
    /// Returns `None` when a decision would sit within the reference's
    /// tolerance of a ceiling (the caller then generates another release).
    pub fn observe(&mut self, idx: usize, rel: &Release) -> Option<Step> {
        self.oracle.push(&rel.per_user);
        let t = self.oracle.len();
        let mut refusal = None;
        if let Some(c) = self.ceiling.clone() {
            let view = self.oracle.view(false);
            let mut checks = vec![("event".to_string(), view.max_tpl, c.alpha)];
            for &(w, limit) in &c.windows {
                if t < w {
                    continue;
                }
                let g = self.oracle.w_event(&view, w).unwrap_or(f64::INFINITY);
                checks.push((format!("window:{w}"), g, limit));
            }
            for (scope, projected, limit) in checks {
                if (projected - limit).abs() <= 1e-6 * limit.abs().max(1.0) {
                    self.oracle.pop();
                    return None;
                }
                if refusal.is_none() && projected > limit {
                    refusal = Some((scope, projected, limit));
                }
            }
        }
        let line = format!("OBSERVE {} {}", self.name, rel.text);
        let bound = if refusal.is_none() {
            self.bound_decides()
        } else {
            None
        };
        let expect = match refusal {
            Some((scope, projected, ceiling)) => {
                self.oracle.pop();
                Expect::Refuse {
                    scope,
                    projected,
                    ceiling,
                }
            }
            None => {
                self.rev += 1;
                Expect::Admit { rev: self.rev, t }
            }
        };
        Some(Step {
            tenant: idx,
            line,
            expect,
            cold: false,
            bound,
        })
    }

    /// Would a bound-first admission already decide the current state?
    /// The bound is `max (BPL − ε)` over every user and time (from the
    /// reference's BPL) plus the FPL supremum at the user's largest ε,
    /// computed by `tcdp_core::supremum`; it decides when it is at most α.
    /// `None` without an α ceiling.
    pub fn bound_decides(&self) -> Option<bool> {
        let alpha = self.ceiling.as_ref()?.alpha;
        let mut worst = f64::NEG_INFINITY;
        for g in &self.groups {
            let pf = match &g.pf {
                Some(rows) => Some(tcdp_markov::TransitionMatrix::from_rows(rows.clone()).ok()?),
                None => None,
            };
            for u in g.users.clone() {
                let user = &self.oracle.users[u];
                let ble = user
                    .bpl
                    .iter()
                    .zip(&user.eps)
                    .map(|(b, e)| b - e)
                    .fold(f64::NEG_INFINITY, f64::max);
                let eps_sup = user.eps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let sup = match &pf {
                    Some(m) => match tcdp_core::supremum::supremum_of_matrix(m, eps_sup).ok()? {
                        tcdp_core::supremum::Supremum::Finite(v) => v,
                        tcdp_core::supremum::Supremum::Divergent => f64::INFINITY,
                    },
                    None => eps_sup,
                };
                worst = worst.max(ble + sup);
            }
        }
        Some(worst <= alpha)
    }

    /// A query step at the current revision, given the current view.
    pub fn query(
        &self,
        idx: usize,
        kind: QueryKind,
        view: &Rc<PopView>,
        exposed: &Rc<Vec<bool>>,
        cold: bool,
    ) -> Step {
        let wevent = match kind {
            QueryKind::WEvent(w) => self.oracle.w_event(view, w),
            _ => None,
        };
        Step {
            tenant: idx,
            line: format!("QUERY {} {}", self.name, kind.wire()),
            expect: Expect::Query {
                rev: self.rev,
                kind,
                view: Rc::clone(view),
                wevent,
                exposed_ok: Rc::clone(exposed),
            },
            cold,
            bound: None,
        }
    }

    /// The reference view and acceptable most-exposed users, now. The
    /// view's `exact_max` is the running floor on the all-time maximum.
    pub fn snapshot(&mut self) -> (Rc<PopView>, Rc<Vec<bool>>) {
        let mut view = self.oracle.view(false);
        self.tpl_floor = self.tpl_floor.max(view.exact_max);
        view.exact_max = self.tpl_floor;
        let ok = (0..self.users)
            .map(|u| self.oracle.exposed_ok(&view, u))
            .collect();
        (Rc::new(view), Rc::new(ok))
    }

    /// A random release: uniform or one ε per block.
    pub fn random_release(&self, rng: &mut Rng64, lo: f64, hi: f64, p_personal: f64) -> Release {
        if self.blocks.len() > 1 && rng.chance(p_personal) {
            let eps: Vec<f64> = self.blocks.iter().map(|_| rng.f(lo, hi)).collect();
            Release::ranges(&self.blocks, &eps, self.users)
        } else {
            Release::uniform(rng.f(lo, hi), self.users)
        }
    }

    /// The release that splits every block into its own shard: distinct
    /// ε per block.
    pub fn splitting_release(&self, rng: &mut Rng64, lo: f64) -> Release {
        let base = rng.f(lo, lo + 0.05);
        let eps: Vec<f64> = (0..self.blocks.len())
            .map(|k| round6(base + 0.003 * k as f64))
            .collect();
        Release::ranges(&self.blocks, &eps, self.users)
    }
}

/// Per-tenant answers remembered across requests, for the properties
/// that relate two answers of one revision.
#[derive(Debug, Default, Clone)]
pub struct Seen {
    max_tpl: Option<(u64, f64)>,
    series_max: Option<(u64, f64)>,
}

fn field<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    resp.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

fn field_f64(resp: &str, key: &str) -> Option<f64> {
    field(resp, key).and_then(|v| v.parse().ok())
}

/// Check one answer against its expectation; `Err` describes the
/// disagreement.
pub fn check(step: &Step, resp: &str, seen: &mut Seen) -> Result<(), String> {
    let bad = |why: &str| Err(format!("{} -> {resp}: {why}", short(&step.line)));
    match &step.expect {
        Expect::Exact(want) => {
            if resp == want {
                Ok(())
            } else {
                bad(&format!("expected {want}"))
            }
        }
        Expect::Admit { rev, t } => {
            let want = format!("OK rev={rev} t={t}");
            if resp == want {
                Ok(())
            } else {
                bad(&format!("expected {want}"))
            }
        }
        Expect::Refuse {
            scope,
            projected,
            ceiling,
        } => {
            if !resp.starts_with("ERR ceiling-exceeded ") {
                return bad("expected a ceiling refusal");
            }
            if field(resp, "scope") != Some(scope.as_str()) {
                return bad(&format!("expected scope={scope}"));
            }
            let p = field_f64(resp, "projected").unwrap_or(f64::NAN);
            if !oracle::close(p, *projected) {
                return bad(&format!("expected projected={projected}"));
            }
            let c = field_f64(resp, "ceiling").unwrap_or(f64::NAN);
            if c.to_bits() != ceiling.to_bits() {
                return bad(&format!("expected ceiling={ceiling}"));
            }
            Ok(())
        }
        Expect::Query {
            rev,
            kind,
            view,
            wevent,
            exposed_ok,
        } => {
            if !resp.starts_with("OK ") {
                return bad("expected OK");
            }
            if field(resp, "rev").and_then(|v| v.parse::<u64>().ok()) != Some(*rev) {
                return bad(&format!("expected rev={rev}"));
            }
            match kind {
                QueryKind::MaxTpl | QueryKind::MostExposed => {
                    let v = field_f64(resp, "max_tpl").unwrap_or(f64::NAN);
                    if !oracle::close(v, view.max_tpl) {
                        return bad(&format!("expected max_tpl={}", view.max_tpl));
                    }
                    if v < view.exact_max - oracle::TOL * view.exact_max.abs().max(1.0) {
                        return bad("max_tpl below the exact all-time maximum");
                    }
                    if *kind == QueryKind::MostExposed {
                        let u = field(resp, "user").and_then(|v| v.parse::<usize>().ok());
                        if !u.is_some_and(|u| exposed_ok.get(u).copied().unwrap_or(false)) {
                            return bad("most_exposed names a user below the maximum");
                        }
                    }
                    seen.max_tpl = Some((*rev, v));
                }
                QueryKind::TplSeries => {
                    let Some(body) = field(resp, "series") else {
                        return bad("no series");
                    };
                    let vals: Vec<f64> = body
                        .split(',')
                        .map(|x| x.parse().unwrap_or(f64::NAN))
                        .collect();
                    if vals.len() != view.series.len()
                        || vals
                            .iter()
                            .zip(&view.series)
                            .any(|(a, b)| !oracle::close(*a, *b))
                    {
                        return bad("series differs from the reference");
                    }
                    let m = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    seen.series_max = Some((*rev, m));
                }
                QueryKind::WEvent(w) => {
                    if field(resp, "w").and_then(|v| v.parse::<usize>().ok()) != Some(*w) {
                        return bad("wrong w");
                    }
                    let g = field_f64(resp, "guarantee").unwrap_or(f64::NAN);
                    if !wevent.is_some_and(|want| oracle::close(g, want)) {
                        return bad(&format!("expected guarantee={wevent:?}"));
                    }
                }
            }
            // max_tpl joins the live series maximum with the folded
            // bound: never below the series, and equal to it bit for bit
            // when the live window holds the maximum. Both answers must
            // be of this step's revision, since `view` is.
            if let (Some((r1, m)), Some((r2, s))) = (seen.max_tpl, seen.series_max) {
                if r1 == *rev && r2 == *rev {
                    let live = view
                        .series
                        .iter()
                        .copied()
                        .fold(f64::NEG_INFINITY, f64::max);
                    let live_holds =
                        live > view.fold_bound + oracle::TOL * view.max_tpl.abs().max(1.0);
                    if m < s || (live_holds && m.to_bits() != s.to_bits()) {
                        return bad(&format!(
                            "max_tpl {m} vs series maximum {s} (reference: max_tpl {}, \
                             live maximum {live}, folded bound {})",
                            view.max_tpl, view.fold_bound
                        ));
                    }
                }
            }
            Ok(())
        }
    }
}

pub fn short(line: &str) -> String {
    if line.len() > 80 {
        format!("{}...", &line[..80])
    } else {
        line.to_string()
    }
}

/// Contiguous cut of `0..n` into `k` non-empty ranges at random points,
/// refining the `must` boundaries.
pub fn cut(rng: &mut Rng64, n: usize, k: usize, must: &[usize]) -> Vec<Range<usize>> {
    let mut points: Vec<usize> = must.iter().copied().filter(|&p| p > 0 && p < n).collect();
    points.sort_unstable();
    points.dedup();
    let mut tries = 0;
    while points.len() + 1 < k && tries < 1000 {
        tries += 1;
        let p = rng.range(1, n.max(2) - 1);
        if p < n && !points.contains(&p) {
            points.push(p);
            points.sort_unstable();
        }
    }
    let mut out = Vec::with_capacity(points.len() + 1);
    let mut start = 0;
    for p in points {
        out.push(start..p);
        start = p;
    }
    out.push(start..n);
    out
}
