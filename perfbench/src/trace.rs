//! The traced run: per-layer timings of the same generated inputs.
//!
//! The program is not instrumented; the spans here wrap calls into each
//! layer's public functions, made the way the daemon and the CLI make
//! them. A run has four phases over one generated request stream:
//!
//! 1. **socket** — the shipped daemon over the Unix socket, as in the
//!    untraced run (round-trip times, answers checked by the reference);
//! 2. **handle** — the same lines through an in-process
//!    [`tcdp_serve::Server::handle`], once untimed per call and once with
//!    a span per call (the difference is the recorder's overhead);
//! 3. **layers** — the same lines decomposed into the calls the server
//!    makes (parse, candidate clone, observe, audit, publish, save, load,
//!    query), each in its own span under a per-request root;
//! 4. **probes** — layer calls off the request path (a standalone
//!    per-group accountant's BPL step and FPL rebuild, Algorithm 1
//!    evaluations, checkpoint resume and store recovery), under a
//!    separate root so they stay out of the reconciliation.

use crate::e2e::{self, Ctx, Spec};
use crate::plan::{check, Seen, Step};
use crate::report::{median, Outcome};
use crate::sys::{self, Daemon};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tcdp_core::checkpoint::{self, SavedState};
use tcdp_core::personalized::PopulationAccountant;
use tcdp_core::shared::{split, PopulationReader, PopulationWriter};
use tcdp_core::{TemporalLossFunction, TplAccountant};
use tcdp_serve::protocol::{parse_population_spec, parse_request, Query, Release, Request};
use tcdp_serve::{PersistState, SaveOutcome, Server, TenantStore};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// In-memory span recorder; spans are written out at the end of the run.
pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
    /// Per-layer figures cover requests from this id on (the timed
    /// stream); earlier spans are set-up.
    pub from_req: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            from_req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now();
        self.spans[id].end_ns = now;
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let r = f();
        self.end(id);
        r
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .collect()
    }

    /// Per-call durations (µs) of the stream's spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (s.req >= self.from_req || name == "alg1.eval_cold"))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn to_json(&self, limit: usize) -> Vec<String> {
        self.spans
            .iter()
            .take(limit)
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.req
                )
            })
            .collect()
    }
}

/// Spans written to the report file (the rest are summarized only).
const SPAN_FILE_LIMIT: usize = 20_000;
/// The layer phase saves each tenant to its probe store after this many
/// releases, as the ingest daemon does.
const SAVE_EVERY: usize = e2e::INGEST_SAVE_EVERY;

/// The replica of one tenant the layer phase drives.
struct Replica {
    writer: PopulationWriter,
    reader: PopulationReader,
    alpha: Option<f64>,
    windows: Vec<(usize, f64)>,
    /// Group of every user, to count loss evaluations once per group
    /// (shards of one group share their loss functions).
    user_group: Vec<usize>,
    groups: usize,
    persist: PersistState,
    /// Per group: a standalone accountant fed the group's first user's
    /// budgets, and a loss function for Algorithm 1 probes.
    standalone: Vec<(TplAccountant, usize, Option<TemporalLossFunction>)>,
    wq: usize,
    releases: usize,
}

fn eval_count(pop: &PopulationAccountant, user_group: &[usize], groups: usize) -> u64 {
    let mut seen = vec![false; groups];
    let mut total = 0;
    for (members, acc) in pop.shards() {
        let g = user_group[members[0]];
        if !seen[g] {
            seen[g] = true;
            total += acc.loss_eval_count();
        }
    }
    total
}

#[derive(Default)]
struct Tally {
    evals_observe: Vec<f64>,
    evals_query: Vec<f64>,
    rejected_event: u64,
    rejected_window: u64,
    admitted_guarded: u64,
    bound_decidable: u64,
    saves: [u64; 3],
    save_bytes: Vec<f64>,
    delta_bytes: u64,
    delta_releases: u64,
    /// Per request: the sum of its layer spans (µs).
    layer_sum_observe: Vec<f64>,
    layer_sum_query: Vec<f64>,
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}

fn tenant_bytes(dir: &Path, name: &str) -> u64 {
    let ck = dir.join(format!("{name}.ckpt"));
    file_len(&ck) + file_len(&checkpoint::delta_log_path(&ck))
}

/// The replicas after the layer phase, and each step's answer.
type LayerOut = (BTreeMap<String, Replica>, Vec<Option<String>>);

/// Replay `steps` through the layer functions, one span per call. Returns
/// the replicas and, per step, the answer the replica's values format to
/// (`None` for set-up verbs and refusals).
fn layer_phase(
    rec: &mut Recorder,
    steps: &[Step],
    from: usize,
    wq_of: &BTreeMap<String, usize>,
    store: &TenantStore,
    tally: &mut Tally,
) -> Result<LayerOut, String> {
    let mut reps: BTreeMap<String, Replica> = BTreeMap::new();
    let mut answers = Vec::with_capacity(steps.len());
    for (k, step) in steps.iter().enumerate() {
        let req = k as u64;
        let timed = k >= from;
        let root = rec.begin("request", None, req);
        let parsed = rec.time("protocol.parse", Some(root), req, || {
            parse_request(&step.line)
        });
        let parsed = parsed.map_err(|e| format!("parse {}: {e}", step.line))?;
        let mut answer = None;
        match parsed {
            Request::Create { tenant, spec } => {
                let groups = parse_population_spec(&spec)?;
                let mut advs = Vec::new();
                let mut user_group = Vec::new();
                let mut standalone = Vec::new();
                for (gi, g) in groups.iter().enumerate() {
                    for _ in g.users.clone() {
                        advs.push(g.adversary.clone());
                        user_group.push(gi);
                    }
                    let loss = g.adversary.forward().map(|m| {
                        let l = TemporalLossFunction::new(m.clone());
                        // The first evaluation builds the pair index.
                        rec.time("alg1.eval_cold", None, req, || l.eval(0.1).ok());
                        l
                    });
                    standalone.push((TplAccountant::new(&g.adversary), g.users.start, loss));
                }
                let pop = PopulationAccountant::new(&advs).map_err(|e| e.to_string())?;
                let (writer, reader) = split(pop);
                reps.insert(
                    tenant.clone(),
                    Replica {
                        writer,
                        reader,
                        alpha: None,
                        windows: Vec::new(),
                        user_group,
                        groups: groups.len(),
                        persist: PersistState::default(),
                        standalone,
                        wq: wq_of.get(&tenant).copied().unwrap_or(4),
                        releases: 0,
                    },
                );
            }
            Request::Ceiling {
                tenant,
                alpha,
                windows,
            } => {
                let r = reps.get_mut(&tenant).ok_or("unknown tenant")?;
                for &(w, _) in &windows {
                    r.writer.track_w_event(w).map_err(|e| e.to_string())?;
                }
                r.alpha = alpha;
                r.windows = windows;
            }
            Request::Horizon { tenant, horizon } => {
                let r = reps.get_mut(&tenant).ok_or("unknown tenant")?;
                r.writer.set_horizon(horizon).map_err(|e| e.to_string())?;
                for (acc, _, _) in &mut r.standalone {
                    acc.set_horizon(horizon).map_err(|e| e.to_string())?;
                }
            }
            Request::Observe { tenant, release } => {
                let r = reps.get_mut(&tenant).ok_or("unknown tenant")?;
                let before = eval_count(r.writer.state(), &r.user_group, r.groups);
                let mut next =
                    rec.time("tenant.clone", Some(root), req, || r.writer.state().clone());
                rec.time("personalized.observe", Some(root), req, || match &release {
                    Release::Uniform(eps) => next.observe_release(*eps),
                    Release::Ranges(ranges) => next.observe_release_personalized(ranges),
                })
                .map_err(|e| e.to_string())?;
                let mut refused = None;
                if r.alpha.is_some() || !r.windows.is_empty() {
                    let audit = rec.begin("tenant.audit", Some(root), req);
                    if let Some(alpha) = r.alpha {
                        let v = rec.time("personalized.max_tpl_cold", Some(audit), req, || {
                            next.max_tpl()
                        });
                        if v.map_err(|e| e.to_string())? > alpha {
                            refused = Some(true);
                        }
                    }
                    if refused.is_none() {
                        for &(w, limit) in &r.windows {
                            if next.num_releases() < w {
                                continue;
                            }
                            let g = rec.time("composition.wevent", Some(audit), req, || {
                                next.w_event_guarantee(w)
                            });
                            if g.map_err(|e| e.to_string())? > limit {
                                refused = Some(false);
                                break;
                            }
                        }
                    }
                    rec.end(audit);
                }
                match refused {
                    Some(event) => {
                        if timed {
                            if event {
                                tally.rejected_event += 1;
                            } else {
                                tally.rejected_window += 1;
                            }
                        }
                    }
                    None => {
                        if timed && r.alpha.is_some() {
                            tally.admitted_guarded += 1;
                            if step.bound == Some(true) {
                                tally.bound_decidable += 1;
                            }
                        }
                        rec.time("shared.publish", Some(root), req, || {
                            r.writer.try_replace(|_| Ok::<_, ()>(next))
                        })
                        .map_err(|_| "publish failed")?;
                        r.releases += 1;
                        r.persist.since += 1;
                        if r.persist.since >= SAVE_EVERY {
                            let snap = r.reader.snapshot();
                            let size0 = tenant_bytes(store.dir(), &tenant);
                            let outcome = rec.time("persist.save", Some(root), req, || {
                                store.save(&tenant, snap.state(), &mut r.persist)
                            });
                            let outcome = outcome.map_err(|e| e.to_string())?;
                            let size1 = tenant_bytes(store.dir(), &tenant);
                            if timed {
                                match outcome {
                                    SaveOutcome::Snapshot => tally.saves[0] += 1,
                                    SaveOutcome::DeltaAppended => {
                                        tally.saves[1] += 1;
                                        tally.delta_bytes += size1.saturating_sub(size0);
                                        tally.delta_releases += SAVE_EVERY as u64;
                                    }
                                    SaveOutcome::Compacted => tally.saves[2] += 1,
                                    SaveOutcome::Unchanged => {}
                                }
                                tally.save_bytes.push(size1 as f64 - size0 as f64);
                            }
                        }
                        let snap = r.reader.snapshot();
                        answer = Some(format!(
                            "OK rev={} t={}",
                            snap.revision(),
                            snap.num_releases()
                        ));
                    }
                }
                rec.end(root);
                if timed {
                    let after = eval_count(r.writer.state(), &r.user_group, r.groups);
                    tally
                        .evals_observe
                        .push(after.saturating_sub(before) as f64);
                    tally.layer_sum_observe.push(children_us(rec, root));
                }
                if refused.is_none() {
                    probe_after_release(rec, r, &release, req)?;
                }
                answers.push(answer);
                continue;
            }
            Request::Query { tenant, query } => {
                let r = reps.get(&tenant).ok_or("unknown tenant")?;
                let snap = rec.time("shared.load", Some(root), req, || r.reader.snapshot());
                let before = eval_count(snap.state(), &r.user_group, r.groups);
                let cold = step.cold;
                let line = match query {
                    Query::MaxTpl => {
                        let name = if cold {
                            "personalized.max_tpl_cold"
                        } else {
                            "personalized.max_tpl_warm"
                        };
                        let v = rec.time(name, Some(root), req, || snap.max_tpl());
                        format!("max_tpl={}", v.map_err(|e| e.to_string())?)
                    }
                    Query::MostExposed => {
                        let u = rec.time("personalized.most_exposed", Some(root), req, || {
                            snap.most_exposed_user()
                        });
                        let v = rec.time("personalized.max_tpl_warm", Some(root), req, || {
                            snap.max_tpl()
                        });
                        format!(
                            "user={} max_tpl={}",
                            u.map_err(|e| e.to_string())?,
                            v.map_err(|e| e.to_string())?
                        )
                    }
                    Query::TplSeries => {
                        let s = rec.time("personalized.tpl_series", Some(root), req, || {
                            snap.tpl_series()
                        });
                        let s = s.map_err(|e| e.to_string())?;
                        let parts: Vec<String> = s.iter().map(|v| format!("{v}")).collect();
                        format!("series={}", parts.join(","))
                    }
                    Query::WEvent(w) => {
                        let g = rec.time("composition.wevent", Some(root), req, || {
                            snap.w_event_guarantee(w)
                        });
                        format!("w={w} guarantee={}", g.map_err(|e| e.to_string())?)
                    }
                };
                answer = Some(format!("OK rev={} {line}", snap.revision()));
                rec.end(root);
                if timed {
                    if cold {
                        let after = eval_count(snap.state(), &r.user_group, r.groups);
                        tally.evals_query.push(after.saturating_sub(before) as f64);
                    }
                    tally.layer_sum_query.push(children_us(rec, root));
                }
                answers.push(answer);
                continue;
            }
            _ => {}
        }
        rec.end(root);
        answers.push(answer);
    }
    Ok((reps, answers))
}

/// Total duration (µs) of a span's direct children.
fn children_us(rec: &Recorder, root: usize) -> f64 {
    let ns: u64 = rec.spans[root + 1..]
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    ns as f64 / 1e3
}

/// Off-path probes after an admitted release: a standalone per-group
/// accountant's BPL step and FPL rebuild, a warm Algorithm 1 evaluation,
/// and (every few releases, for tenants without a ceiling) the audit the
/// ceiling check would run.
fn probe_after_release(
    rec: &mut Recorder,
    r: &mut Replica,
    release: &Release,
    req: u64,
) -> Result<(), String> {
    let probe = rec.begin("probe", None, req);
    for (acc, first, loss) in &mut r.standalone {
        let eps = match release {
            Release::Uniform(e) => *e,
            Release::Ranges(rs) => rs
                .iter()
                .find(|(range, _)| range.contains(first))
                .map(|(_, e)| *e)
                .ok_or("release does not cover a group")?,
        };
        rec.time("accountant.bpl_step", Some(probe), req, || {
            acc.observe_release(eps)
        })
        .map_err(|e| e.to_string())?;
        rec.time("accountant.fpl_rebuild", Some(probe), req, || acc.max_tpl())
            .map_err(|e| e.to_string())?;
        if let Some(l) = loss {
            let alpha = acc.bpl_series().last().copied().unwrap_or(0.1);
            rec.time("alg1.eval_warm", Some(probe), req, || l.eval(alpha))
                .map_err(|e| e.to_string())?;
        }
    }
    if r.alpha.is_none() && r.releases.is_multiple_of(8) {
        let cand = r.reader.snapshot().state().clone();
        let audit = rec.begin("tenant.audit", Some(probe), req);
        rec.time("personalized.max_tpl_cold", Some(audit), req, || {
            cand.max_tpl()
        })
        .map_err(|e| e.to_string())?;
        let w = r.wq;
        if cand.num_releases() >= w {
            rec.time("composition.wevent", Some(audit), req, || {
                cand.w_event_guarantee(w)
            })
            .map_err(|e| e.to_string())?;
        }
        rec.end(audit);
    }
    rec.end(probe);
    Ok(())
}

fn persist_flags(dir: &Path) -> Vec<String> {
    vec![
        "--data-dir".to_string(),
        dir.display().to_string(),
        "--snapshot-every-releases".into(),
        SAVE_EVERY.to_string(),
        "--compact-after".into(),
        e2e::INGEST_COMPACT.to_string(),
    ]
}

/// The traced run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut spec, fixed, cli_checkpoint) = if ctx.workload == "cli-audit" {
        let (spec, stream, cp) = cli_as_daemon(ctx, &mut out)?;
        (spec, Some(stream), Some(cp))
    } else {
        (e2e::prepare(&ctx.workload, ctx.seed), None, None)
    };
    let persisted = spec.persisted;

    // 1. socket: set-up, then a quarter of the run's seconds of rounds
    // (cli-audit: the trail's second part, then its continuation for a
    // sixteenth, since the later phases replay its ~70 µs requests at
    // about fifteen times their socket cost), then one query per kind on
    // every tenant so every workload exercises the read path.
    let sock = ctx.work.join("t.sock");
    let flags = if persisted {
        persist_flags(&ctx.work.join("tdata"))
    } else {
        Vec::new()
    };
    let daemon = Daemon::spawn(&sock, &flags)?;
    let mut client = daemon.connect()?;
    let mut seen = vec![Seen::default(); spec.tenants.len()];
    for s in &spec.setup {
        let (resp, _) = client.call(&s.line)?;
        let v = check(s, &resp, &mut seen[s.tenant]);
        out.op("setup", v.is_ok(), || v.unwrap_err());
    }
    let mut steps: Vec<Step> = spec.setup.clone();
    let first_stream = steps.len();
    let (mut sock_observe, mut sock_query) = (Vec::new(), Vec::new());
    let mut wire: Vec<String> = Vec::new();
    let mut send = |round: &[Step], out: &mut Outcome| -> Result<(), String> {
        for s in round {
            let (resp, rtt) = client.call(&s.line)?;
            let us = rtt.as_secs_f64() * 1e6;
            if s.is_observe() {
                sock_observe.push(us);
            } else {
                sock_query.push(us);
            }
            let v = check(s, &resp, &mut seen[s.tenant]);
            out.op("socket", v.is_ok(), || v.unwrap_err());
            wire.push(resp);
        }
        Ok(())
    };
    let fixed_stream = fixed.is_some();
    if let Some(stream) = fixed {
        send(&stream, &mut out)?;
        steps.extend(stream);
    }
    let t0 = Instant::now();
    let socket_s = ctx.seconds / if fixed_stream { 16.0 } else { 4.0 };
    while t0.elapsed().as_secs_f64() < socket_s {
        let round = e2e::next_round(&ctx.workload, &mut spec);
        send(&round, &mut out)?;
        steps.extend(round);
    }
    let finals = e2e::query_set(&mut spec);
    send(&finals, &mut out)?;
    steps.extend(finals);
    drop(client);
    daemon.kill();

    // 2. handle: the stream through two in-process servers, in
    // alternating chunks so drift hits both alike: one timed per chunk
    // only (untraced), one with a span per call (traced).
    let lines: Vec<&str> = steps.iter().map(|s| s.line.as_str()).collect();
    let server_u = make_server(persisted, &ctx.work.join("handle-u"))?;
    let server_t = make_server(persisted, &ctx.work.join("handle-t"))?;
    for l in &lines[..first_stream] {
        server_u.handle(l);
        server_t.handle(l);
    }
    let mut hrec = Recorder::new();
    let mut handled = Vec::with_capacity(lines.len() - first_stream);
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let stream: Vec<(usize, &str)> = lines
        .iter()
        .copied()
        .enumerate()
        .skip(first_stream)
        .collect();
    for chunk in stream.chunks(32) {
        let tu = Instant::now();
        for (_, l) in chunk {
            std::hint::black_box(server_u.handle(l));
        }
        untraced += tu.elapsed();
        let tt = Instant::now();
        for &(k, l) in chunk {
            let name = if l.starts_with("OBSERVE") {
                "server.handle_observe"
            } else {
                "server.handle_query"
            };
            let resp = hrec.time(name, None, k as u64, || server_t.handle(l));
            handled.push(resp);
        }
        traced += tt.elapsed();
    }
    // The in-process answers are the daemon's, byte for byte, and their
    // floats print in shortest round-trip form.
    for (resp, w) in handled.iter().zip(&wire) {
        out.op("wire", w == resp && floats_round_trip(resp), || {
            format!("in-process {resp} vs socket {w}")
        });
    }

    // 3 + 4. layers and probes.
    let wq_of: BTreeMap<String, usize> = spec
        .tenants
        .iter()
        .map(|t| (t.name.clone(), t.wq))
        .collect();
    let pdir = ctx.work.join("probe-store");
    let store = TenantStore::open(&pdir, Some(e2e::INGEST_COMPACT)).map_err(|e| e.to_string())?;
    let mut rec = Recorder::new();
    rec.from_req = first_stream as u64;
    let mut tally = Tally::default();
    let (reps, answers) = layer_phase(&mut rec, &steps, first_stream, &wq_of, &store, &mut tally)?;
    // The layer calls produce the server's answers: the snapshot's
    // values, printed, are the wire's bits.
    for (a, resp) in answers[first_stream..].iter().zip(&handled) {
        if let Some(a) = a {
            out.op("wire", a == resp, || {
                format!("layers {a} vs in-process {resp}")
            });
        }
    }
    let recover_t = Instant::now();
    let recovered = store.recover().map_err(|e| e.to_string())?;
    let recover_us = recover_t.elapsed().as_secs_f64() * 1e6;
    for rt in &recovered {
        let ok = reps
            .get(&rt.name)
            .is_some_and(|r| rt.accountant.num_releases() <= r.reader.snapshot().num_releases());
        out.op("probe", ok, || {
            format!("{} recovered past its live state", rt.name)
        });
    }
    // Checkpoint resume: the CLI's own checkpoint for cli-audit, the
    // probe store's files otherwise.
    let resume_paths: Vec<PathBuf> = match &cli_checkpoint {
        Some(cp) => vec![cp.clone(); 9],
        None => reps
            .keys()
            .map(|n| pdir.join(format!("{n}.ckpt")))
            .collect(),
    };
    let mut resume_us = Vec::new();
    for p in resume_paths.iter().filter(|p| p.exists()) {
        let t = Instant::now();
        let ok = matches!(checkpoint::resume_file(p), Ok(SavedState::Population(_)));
        resume_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.op("probe", ok, || {
            format!("resume_file {} failed", p.display())
        });
    }
    // Every tenant holds exactly the shards its generated partition
    // implies (personalized splits happen where the plan put them).
    let mut shards = Vec::with_capacity(spec.tenants.len());
    for t in &spec.tenants {
        let got = reps
            .get(&t.name)
            .map_or(0, |r| r.reader.snapshot().num_groups());
        out.op("probe", got == t.shards, || {
            format!("{} has {got} shards, its partition {}", t.name, t.shards)
        });
        shards.push(got as f64);
    }

    // Per-layer metrics.
    let p50 = |name: &str| median(&rec.durations_us(name));
    let handle_obs = median(&hrec.durations_us("server.handle_observe"));
    let handle_q = median(&hrec.durations_us("server.handle_query"));
    let sock_obs = median(&sock_observe);
    let sock_q = median(&sock_query);
    out.metric("protocol.parse_us", p50("protocol.parse"), "us");
    out.metric("server.handle_observe_us", handle_obs, "us");
    out.metric("server.handle_query_us", handle_q, "us");
    out.metric("server.wire_us", sock_obs - handle_obs, "us");
    out.metric("tenant.clone_us", p50("tenant.clone"), "us");
    out.metric("tenant.audit_us", p50("tenant.audit"), "us");
    let share = if tally.admitted_guarded == 0 {
        1.0
    } else {
        tally.bound_decidable as f64 / tally.admitted_guarded as f64
    };
    out.metric("tenant.bound_decidable_share", share, "ratio");
    out.metric(
        "tenant.rejected_event",
        tally.rejected_event as f64,
        "count",
    );
    out.metric(
        "tenant.rejected_window",
        tally.rejected_window as f64,
        "count",
    );
    out.metric("shared.publish_us", p50("shared.publish"), "us");
    out.metric("shared.load_us", p50("shared.load"), "us");
    out.metric("personalized.observe_us", p50("personalized.observe"), "us");
    out.metric(
        "personalized.max_tpl_cold_us",
        p50("personalized.max_tpl_cold"),
        "us",
    );
    out.metric(
        "personalized.max_tpl_warm_us",
        p50("personalized.max_tpl_warm"),
        "us",
    );
    out.metric(
        "personalized.most_exposed_us",
        p50("personalized.most_exposed"),
        "us",
    );
    out.metric(
        "personalized.tpl_series_us",
        p50("personalized.tpl_series"),
        "us",
    );
    out.metric("personalized.shards", median(&shards), "count");
    out.metric("accountant.bpl_step_us", p50("accountant.bpl_step"), "us");
    out.metric(
        "accountant.fpl_rebuild_us",
        p50("accountant.fpl_rebuild"),
        "us",
    );
    out.metric("composition.wevent_us", p50("composition.wevent"), "us");
    out.metric(
        "alg1.evals_per_observe",
        mean(&tally.evals_observe),
        "count",
    );
    out.metric("alg1.evals_per_query", mean(&tally.evals_query), "count");
    out.metric("alg1.eval_warm_us", p50("alg1.eval_warm"), "us");
    out.metric("alg1.eval_cold_us", p50("alg1.eval_cold"), "us");
    out.metric("persist.save_us", p50("persist.save"), "us");
    out.metric("persist.bytes_per_save", median(&tally.save_bytes), "B");
    out.metric("persist.saves_snapshot", tally.saves[0] as f64, "count");
    out.metric("persist.saves_delta", tally.saves[1] as f64, "count");
    out.metric("persist.saves_compacted", tally.saves[2] as f64, "count");
    let per_tenant = recover_us / recovered.len().max(1) as f64;
    out.metric("persist.recover_us_per_tenant", per_tenant, "us");
    out.metric("checkpoint.resume_us", median(&resume_us), "us");
    let dbr = tally.delta_bytes as f64 / tally.delta_releases.max(1) as f64;
    out.metric("checkpoint.delta_bytes_per_release", dbr, "B");

    // Reconciliation and overhead.
    let n_stream = (lines.len() - first_stream).max(1) as f64;
    let sum_obs = median(&tally.layer_sum_observe);
    let sum_q = median(&tally.layer_sum_query);
    for (verb, sum, handle, sock) in [
        ("OBSERVE", sum_obs, handle_obs, sock_obs),
        ("QUERY", sum_q, handle_q, sock_q),
    ] {
        out.notes.push(format!(
            "reconcile {verb}: layer self-time sum p50 {sum:.1} us = {:.0}% of in-process \
             handle p50 {handle:.1} us = {:.0}% of socket round trip p50 {sock:.1} us",
            100.0 * sum / handle,
            100.0 * handle / sock
        ));
    }
    let overhead = traced.as_secs_f64() / untraced.as_secs_f64() - 1.0;
    out.notes.push(format!(
        "tracing overhead: {:+.2}% ({:.1} us/request traced vs {:.1} us/request untraced, \
         in-process handle over {} requests)",
        overhead * 100.0,
        traced.as_secs_f64() / n_stream * 1e6,
        untraced.as_secs_f64() / n_stream * 1e6,
        n_stream as u64
    ));
    out.extra("trace.overhead_pct", overhead * 100.0, "%");
    out.extra(
        "reconcile.observe_layers_over_handle",
        sum_obs / handle_obs,
        "ratio",
    );
    out.extra(
        "reconcile.observe_handle_over_socket",
        handle_obs / sock_obs,
        "ratio",
    );
    out.extra(
        "reconcile.query_layers_over_handle",
        sum_q / handle_q,
        "ratio",
    );
    out.extra(
        "reconcile.query_handle_over_socket",
        handle_q / sock_q,
        "ratio",
    );
    let self_ns = rec.self_ns();
    let mut by_layer: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, ns) in rec.spans.iter().zip(&self_ns) {
        if s.req >= rec.from_req {
            let e = by_layer.entry(s.name).or_default();
            e.0 += ns;
            e.1 += 1;
        }
    }
    for (name, (ns, n)) in &by_layer {
        out.notes.push(format!(
            "self time {name:<28} {:>12.1} us over {n} spans",
            *ns as f64 / 1e3
        ));
    }
    let mut spans = hrec.to_json(SPAN_FILE_LIMIT / 2);
    spans.extend(rec.to_json(SPAN_FILE_LIMIT / 2));
    out.spans_json = spans;
    Ok(out)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn make_server(persisted: bool, dir: &Path) -> Result<Server, String> {
    if persisted {
        let store = TenantStore::open(dir, Some(e2e::INGEST_COMPACT)).map_err(|e| e.to_string())?;
        Server::with_store(store, Some(SAVE_EVERY)).map_err(|e| e.to_string())
    } else {
        Ok(Server::new())
    }
}

/// Every float field of an answer prints its shortest round-trip form.
fn floats_round_trip(resp: &str) -> bool {
    resp.split([' ', ',', '='])
        .filter(|t| t.contains('.'))
        .all(|t| t.parse::<f64>().is_ok_and(|v| format!("{v}") == t))
}

/// `cli-audit` in the traced run: the audit trail replayed as daemon
/// lines (its first part as set-up, its second as the stream), so the
/// server and layer phases see the CLI's releases, plus one real
/// checkpointed `tcdp-cli audit` whose checkpoint the resume probe reads.
fn cli_as_daemon(ctx: &Ctx, out: &mut Outcome) -> Result<(Spec, Vec<Step>, PathBuf), String> {
    let cli = e2e::prepare_cli(ctx.seed);
    let cp = e2e::cli_checkpoint(ctx, &cli, out)?;
    let mut t = cli.tenant;
    let mut setup = t.register(0);
    for r in &cli.a {
        setup.extend(t.observe(0, r));
    }
    let mut stream = Vec::new();
    for r in &cli.b {
        stream.extend(t.observe(0, r));
    }
    let spec = Spec {
        tenants: vec![t],
        setup,
        rng: sys::Rng64::new(ctx.seed),
        persisted: false,
        round: 0,
    };
    Ok((spec, stream, cp))
}
