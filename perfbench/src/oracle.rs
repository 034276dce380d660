//! The benchmark's independent reference: the paper's leakage quantities
//! computed from their definitions, sharing no code with `tcdp-core`.
//!
//! * [`Loss`] evaluates L(α) (Eq. 23/24) over **every** ordered row pair of
//!   a transition matrix, choosing each pair's subset among the prefixes of
//!   its columns sorted by the ratio `q_j / d_j`. There is no pruning index,
//!   no lane kernel and no warm start; the only precomputation is each
//!   pair's sorted prefix sums, which do not depend on α.
//! * [`User`] runs the BPL (Eq. 13), FPL (Eq. 15) and TPL (Eq. 10)
//!   recurrences and the Theorem 2 window sums on one user's budget
//!   history, under a fold horizon with the program's documented
//!   folded-history bounds (max folded `BPL − ε` plus the Theorem 5
//!   supremum, found here by fixed-point iteration).
//!
//! Every comparison goes through [`close`]: the reference and the program
//! add the same terms in different orders, so they agree to rounding, not
//! to the bit.

use std::collections::HashMap;

/// Relative (and absolute, near zero) tolerance between the reference and
/// the program.
pub const TOL: f64 = 1e-9;

/// Whether `program` matches `reference` within [`TOL`].
pub fn close(program: f64, reference: f64) -> bool {
    if program == reference {
        return true;
    }
    if !program.is_finite() || !reference.is_finite() {
        return false;
    }
    (program - reference).abs() <= TOL * reference.abs().max(1.0)
}

/// L(α) of one transition matrix, Eq. 23/24 evaluated directly.
#[derive(Debug)]
pub struct Loss {
    /// Per ordered row pair `(q, d)`, `q ≠ d`: the prefix sums
    /// `(q(S), d(S))` over the columns sorted by `q_j / d_j` descending.
    prefixes: Vec<Vec<(f64, f64)>>,
    /// Memoized fixed points of `x = L(x) + ε`, keyed on `ε`'s bits.
    sup: std::cell::RefCell<HashMap<u64, f64>>,
}

impl Loss {
    /// Build from row-major rows (each row sums to 1).
    pub fn new(rows: &[Vec<f64>]) -> Loss {
        let n = rows.len();
        let mut prefixes = Vec::with_capacity(n * n.saturating_sub(1));
        for (a, q) in rows.iter().enumerate() {
            for (b, d) in rows.iter().enumerate() {
                if a == b {
                    continue;
                }
                let mut cols: Vec<usize> = (0..n).collect();
                // Ratio order q_j/d_j descending, compared by
                // cross-multiplication so d_j = 0 sorts first.
                cols.sort_by(|&i, &j| {
                    (q[j] * d[i])
                        .partial_cmp(&(q[i] * d[j]))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut sums = Vec::with_capacity(n);
                let (mut qs, mut ds) = (0.0, 0.0);
                for &j in &cols {
                    qs += q[j];
                    ds += d[j];
                    sums.push((qs, ds));
                }
                prefixes.push(sums);
            }
        }
        Loss {
            prefixes,
            sup: std::cell::RefCell::new(HashMap::new()),
        }
    }

    /// L(α) = max over ordered pairs and prefixes S of
    /// `log((q(S)(e^α − 1) + 1) / (d(S)(e^α − 1) + 1))`; the empty
    /// subset gives 0.
    pub fn eval(&self, alpha: f64) -> f64 {
        let m = alpha.exp_m1();
        let mut best = 1.0f64;
        for sums in &self.prefixes {
            for &(qs, ds) in sums {
                let r = (qs * m + 1.0) / (ds * m + 1.0);
                if r > best {
                    best = r;
                }
            }
        }
        best.ln()
    }

    /// The Theorem 5 supremum of `x ← L(x) + ε` from `x = ε`, by plain
    /// iteration; `+∞` when it does not settle (the divergent cases).
    pub fn supremum(&self, eps: f64) -> f64 {
        if let Some(&v) = self.sup.borrow().get(&eps.to_bits()) {
            return v;
        }
        let mut x = eps;
        let mut out = f64::INFINITY;
        for _ in 0..200_000 {
            let next = self.eval(x) + eps;
            if (next - x).abs() <= 1e-15 * next.abs().max(1.0) {
                out = next;
                break;
            }
            if next > 1e6 {
                break;
            }
            x = next;
        }
        self.sup.borrow_mut().insert(eps.to_bits(), out);
        out
    }
}

/// One user's correlations: backward and forward loss functions, either
/// possibly absent.
#[derive(Debug, Clone)]
pub struct Adversary {
    pub backward: Option<std::rc::Rc<Loss>>,
    pub forward: Option<std::rc::Rc<Loss>>,
}

/// One user's budget history and leakage recurrences under a fold
/// horizon.
#[derive(Debug, Clone)]
pub struct User {
    pub adv: Adversary,
    /// Every ε this user spent, in order.
    pub eps: Vec<f64>,
    /// BPL at every time (BPL values are final once computed).
    pub bpl: Vec<f64>,
}

/// What the program should answer for one user at the current length.
#[derive(Debug, Clone)]
pub struct UserView {
    /// First live index (0 when nothing is folded).
    pub live_start: usize,
    /// TPL over the live window.
    pub tpl: Vec<f64>,
    /// FPL over the live window.
    pub fpl: Vec<f64>,
    /// The program-semantics max TPL: live maximum joined with the
    /// folded bound.
    pub max_tpl: f64,
    /// The exact all-time maximum TPL (folded era included).
    pub exact_max: f64,
    /// The folded-history FPL bound (supremum at the largest ε).
    pub fold_fpl: f64,
    /// The folded-history TPL bound (`−∞` when nothing is folded).
    pub fold_bound: f64,
}

impl User {
    pub fn new(adv: Adversary) -> User {
        User {
            adv,
            eps: Vec::new(),
            bpl: Vec::new(),
        }
    }

    /// Eq. 13: `BPL(t) = L^B(BPL(t−1)) + ε_t`.
    pub fn push(&mut self, eps: f64) {
        let b = match (self.bpl.last(), &self.adv.backward) {
            (Some(&prev), Some(l)) => l.eval(prev) + eps,
            _ => eps,
        };
        self.eps.push(eps);
        self.bpl.push(b);
    }

    /// Drop the last release (an admission candidate that was refused).
    pub fn pop(&mut self) {
        self.eps.pop();
        self.bpl.pop();
    }

    /// Eq. 15 over `[from, T)`: `FPL(T−1) = ε_{T−1}`,
    /// `FPL(t) = L^F(FPL(t+1)) + ε_t`.
    fn fpl_from(&self, from: usize) -> Vec<f64> {
        let t_len = self.eps.len();
        let mut fpl = vec![0.0; t_len - from];
        if t_len == from {
            return fpl;
        }
        fpl[t_len - from - 1] = self.eps[t_len - 1];
        for t in (from..t_len - 1).rev() {
            fpl[t - from] = match &self.adv.forward {
                Some(l) => l.eval(fpl[t + 1 - from]) + self.eps[t],
                None => self.eps[t],
            };
        }
        fpl
    }

    fn fold_fpl(&self) -> f64 {
        let eps_sup = self.eps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        match &self.adv.forward {
            Some(l) => l.supremum(eps_sup),
            None => eps_sup,
        }
    }

    /// The answers at the current length with `horizon` live releases
    /// (`None` = nothing folds). `exact` also runs the full-history FPL
    /// pass for [`UserView::exact_max`] (O(T) evaluations).
    pub fn view(&self, horizon: Option<usize>, exact: bool) -> UserView {
        let t_len = self.eps.len();
        let live_start = horizon.map_or(0, |h| t_len.saturating_sub(h));
        let fpl = self.fpl_from(live_start);
        let tpl: Vec<f64> = (live_start..t_len)
            .map(|t| self.bpl[t] + fpl[t - live_start] - self.eps[t])
            .collect();
        let live_max = tpl.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let fold_fpl = self.fold_fpl();
        let fold_bound = if live_start == 0 {
            f64::NEG_INFINITY
        } else {
            let ble = (0..live_start)
                .map(|t| self.bpl[t] - self.eps[t])
                .fold(f64::NEG_INFINITY, f64::max);
            ble + fold_fpl
        };
        let max_tpl = live_max.max(fold_bound);
        let exact_max = if exact && live_start > 0 {
            let full = self.fpl_from(0);
            (0..t_len)
                .map(|t| self.bpl[t] + full[t] - self.eps[t])
                .fold(f64::NEG_INFINITY, f64::max)
        } else {
            live_max
        };
        UserView {
            live_start,
            tpl,
            fpl,
            max_tpl,
            exact_max,
            fold_fpl,
            fold_bound,
        }
    }

    /// Theorem 2 for the window `[t, t+w)`, with FPL at its end taken
    /// from `fpl_end`.
    fn window(&self, t: usize, w: usize, fpl_end: f64) -> f64 {
        match w {
            1 => self.bpl[t] + fpl_end - self.eps[t],
            2 => self.bpl[t] + fpl_end,
            _ => self.bpl[t] + fpl_end + self.eps[t + 1..t + w - 1].iter().sum::<f64>(),
        }
    }

    /// The w-event guarantee: the exact sweep over live windows, joined
    /// (when `tracked`) with the folded windows' BPL part plus the folded
    /// FPL bound. `None` when no window fits.
    pub fn w_event(&self, view: &UserView, w: usize, tracked: bool) -> Option<f64> {
        let t_len = self.eps.len();
        if w == 0 || w > t_len {
            return None;
        }
        let ls = view.live_start;
        let mut worst = f64::NEG_INFINITY;
        if tracked && ls > 0 {
            let base = (0..ls)
                .map(|t| self.window(t, w, 0.0))
                .fold(f64::NEG_INFINITY, f64::max);
            worst = base + view.fold_fpl;
        }
        for t in ls..=(t_len - w) {
            worst = worst.max(self.window(t, w, view.fpl[t + w - 1 - ls]));
        }
        Some(worst)
    }
}

/// A whole tenant: its users, its fold horizon and its tracked windows.
#[derive(Debug, Clone)]
pub struct Population {
    pub users: Vec<User>,
    pub horizon: Option<usize>,
    pub tracked: Vec<usize>,
}

/// Population answers at the current length.
#[derive(Debug, Clone)]
pub struct PopView {
    pub views: Vec<UserView>,
    /// Population TPL series over the live window (max over users).
    pub series: Vec<f64>,
    /// Program-semantics `max_tpl`.
    pub max_tpl: f64,
    /// Exact all-time maximum with `view(true)`; the live-window maximum
    /// otherwise.
    pub exact_max: f64,
    /// The largest folded-history TPL bound over users.
    pub fold_bound: f64,
}

impl Population {
    pub fn new(advs: Vec<Adversary>) -> Population {
        Population {
            users: advs.into_iter().map(User::new).collect(),
            horizon: None,
            tracked: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.users.first().map_or(0, |u| u.eps.len())
    }

    /// Apply one release: `per_user[i]` is user i's ε.
    pub fn push(&mut self, per_user: &[f64]) {
        for (u, &e) in self.users.iter_mut().zip(per_user) {
            u.push(e);
        }
    }

    pub fn pop(&mut self) {
        for u in &mut self.users {
            u.pop();
        }
    }

    /// Users sharing an adversary and an identical budget history get one
    /// computation: `classes[i]` is the representative of user `i`.
    fn classes(&self) -> Vec<usize> {
        let mut reps: Vec<usize> = Vec::new();
        let mut out = Vec::with_capacity(self.users.len());
        for (i, u) in self.users.iter().enumerate() {
            let rep = reps.iter().copied().find(|&r| {
                let v = &self.users[r];
                same_adv(&v.adv, &u.adv) && v.eps == u.eps
            });
            match rep {
                Some(r) => out.push(r),
                None => {
                    reps.push(i);
                    out.push(i);
                }
            }
        }
        out
    }

    pub fn view(&self, exact: bool) -> PopView {
        let classes = self.classes();
        let mut computed: HashMap<usize, UserView> = HashMap::new();
        for &r in &classes {
            computed
                .entry(r)
                .or_insert_with(|| self.users[r].view(self.horizon, exact));
        }
        let views: Vec<UserView> = classes.iter().map(|r| computed[r].clone()).collect();
        let width = views.first().map_or(0, |v| v.tpl.len());
        let series = (0..width)
            .map(|k| {
                views
                    .iter()
                    .map(|v| v.tpl[k])
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let max_tpl = views
            .iter()
            .map(|v| v.max_tpl)
            .fold(f64::NEG_INFINITY, f64::max);
        let exact_max = views
            .iter()
            .map(|v| v.exact_max)
            .fold(f64::NEG_INFINITY, f64::max);
        let fold_bound = views
            .iter()
            .map(|v| v.fold_bound)
            .fold(f64::NEG_INFINITY, f64::max);
        PopView {
            views,
            series,
            max_tpl,
            exact_max,
            fold_bound,
        }
    }

    /// Population w-event guarantee: the maximum over users.
    pub fn w_event(&self, view: &PopView, w: usize) -> Option<f64> {
        let tracked = self.tracked.contains(&w);
        let mut worst: Option<f64> = None;
        let classes = self.classes();
        for (i, u) in self.users.iter().enumerate() {
            if classes[i] != i {
                continue;
            }
            let g = u.w_event(&view.views[i], w, tracked)?;
            worst = Some(worst.map_or(g, |x: f64| x.max(g)));
        }
        worst
    }

    /// Whether `user` is an acceptable `most_exposed` answer: its
    /// program-semantics max is within tolerance of the population's.
    pub fn exposed_ok(&self, view: &PopView, user: usize) -> bool {
        view.views
            .get(user)
            .is_some_and(|v| v.max_tpl >= view.max_tpl - TOL * view.max_tpl.abs().max(1.0))
    }
}

fn same_adv(a: &Adversary, b: &Adversary) -> bool {
    let same = |x: &Option<std::rc::Rc<Loss>>, y: &Option<std::rc::Rc<Loss>>| match (x, y) {
        (None, None) => true,
        (Some(x), Some(y)) => std::rc::Rc::ptr_eq(x, y),
        _ => false,
    };
    same(&a.backward, &b.backward) && same(&a.forward, &b.forward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    /// The 2-state closed form: for rows (a, 1−a) and (1−b, b) the
    /// maximizing subset is a single column, so
    /// L(α) = max over the two ordered pairs of log((p e^α + 1 − p)/(r e^α + 1 − r))
    /// with (p, r) the column entries where the ratio exceeds one.
    fn two_state(a: f64, b: f64, alpha: f64) -> f64 {
        let e = alpha.exp();
        let f = |p: f64, r: f64| ((p * e + 1.0 - p) / (r * e + 1.0 - r)).ln();
        f(a, 1.0 - b).max(f(b, 1.0 - a)).max(0.0)
    }

    #[test]
    fn matches_the_two_state_closed_form() {
        for &(a, b) in &[(0.8, 0.9), (0.55, 0.7), (0.95, 0.6), (0.5, 0.5)] {
            let l = Loss::new(&[vec![a, 1.0 - a], vec![1.0 - b, b]]);
            for &alpha in &[0.0, 0.05, 0.3, 1.0, 4.0] {
                let want = two_state(a, b, alpha);
                assert!(close(l.eval(alpha), want), "{a} {b} {alpha}");
            }
        }
    }

    #[test]
    fn matches_the_paper_values() {
        // BPL t = 2 of 0.1-DP under [[0.8,0.2],[0,1]] is 0.1808.
        let l = Rc::new(Loss::new(&[vec![0.8, 0.2], vec![0.0, 1.0]]));
        let mut u = User::new(Adversary {
            backward: Some(l.clone()),
            forward: Some(l),
        });
        for _ in 0..10 {
            u.push(0.1);
        }
        assert!((u.bpl[1] - 0.1808).abs() < 5e-5);
        let v = u.view(None, true);
        assert!((v.max_tpl - 0.6368).abs() < 5e-5, "{}", v.max_tpl);
        // Theorem 5 supremum of [[0.8,0.2],[0.1,0.9]] at ε = 0.23.
        let s = Loss::new(&[vec![0.8, 0.2], vec![0.1, 0.9]]).supremum(0.23);
        assert!((s - 0.792337).abs() < 5e-6, "{s}");
    }

    #[test]
    fn matches_the_linear_fractional_program() {
        // The paper's program (18)-(20), solved by the LP stack for every
        // ordered pair, against the prefix evaluation.
        let rows = vec![
            vec![0.6, 0.3, 0.1],
            vec![0.2, 0.5, 0.3],
            vec![0.1, 0.1, 0.8],
        ];
        let l = Loss::new(&rows);
        for &alpha in &[0.1, 0.5, 1.5] {
            let prog = tcdp_lp::problem::PaperProgram::new(3, alpha).unwrap();
            let mut best = 1.0f64;
            for q in &rows {
                for d in &rows {
                    let sol = prog
                        .fractional(q, d)
                        .unwrap()
                        .solve_charnes_cooper()
                        .unwrap();
                    if let tcdp_lp::lfp::LfpOutcome::Optimal(s) = sol {
                        best = best.max(s.value);
                    }
                }
            }
            assert!((l.eval(alpha) - best.ln()).abs() < 1e-7, "{alpha}");
        }
    }

    #[test]
    fn folded_bound_dominates_the_exact_maximum() {
        let l = Rc::new(Loss::new(&[vec![0.9, 0.1], vec![0.2, 0.8]]));
        let mut u = User::new(Adversary {
            backward: Some(l.clone()),
            forward: Some(l),
        });
        for t in 0..40 {
            u.push(0.05 + 0.01 * (t % 7) as f64);
        }
        let v = u.view(Some(8), true);
        assert_eq!(v.live_start, 32);
        assert!(v.max_tpl >= v.exact_max);
        let w = u.w_event(&v, 4, true).unwrap();
        assert!(w >= u.w_event(&v, 4, false).unwrap());
    }
}
