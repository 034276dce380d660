//! Run results: metrics, per-phase operation counts, the failure log, and
//! the two output forms (the human report on stdout, the last-line JSON
//! object, and the machine-readable report file).

use std::fmt::Write as _;

/// Median of a sample (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One named phase of a run (set-up, timed stream, recovery, ...) and
/// its operation counts.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in the order they are printed: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Figures printed for reference but not part of the result object.
    pub extra: Vec<(String, f64, String)>,
    pub phases: Vec<Phase>,
    /// The first few disagreements, for the report.
    pub problems: Vec<String>,
    /// Free-form report lines (reconciliation, overhead, ...).
    pub notes: Vec<String>,
    /// Spans of a traced run, already serialized as JSON objects.
    pub spans_json: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.into()));
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extra.push((name.into(), value, unit.into()));
    }

    fn phase_mut(&mut self, phase: &str) -> &mut Phase {
        if let Some(i) = self.phases.iter().position(|p| p.name == phase) {
            return &mut self.phases[i];
        }
        self.phases.push(Phase {
            name: phase.into(),
            ..Phase::default()
        });
        self.phases.last_mut().expect("just pushed")
    }

    /// Count one operation of `phase`; a failed check is a failed
    /// operation and its message is kept (the first 20 are).
    pub fn op(&mut self, phase: &str, ok: bool, what: impl FnOnce() -> String) -> bool {
        let p = self.phase_mut(phase);
        p.attempted += 1;
        if !ok {
            p.failed += 1;
            if self.problems.len() < 20 {
                let msg = what();
                self.problems.push(format!("{phase}: {msg}"));
            }
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }
}

/// The run header: enough context that figures from different machines,
/// lanes or revisions are never compared blind.
pub struct Header {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub lane: String,
    pub rev: String,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn metric_map(ms: &[(String, f64, String)]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                esc(n),
                num(*v),
                esc(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line of stdout.
pub fn result_json(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed() == 0,
        o.attempted().max(1),
        o.failed(),
        metric_map(&o.metrics)
    )
}

/// The machine-readable report file of one run.
pub fn report_json(h: &Header, o: &Outcome) -> String {
    let phases: Vec<String> = o
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"name\": \"{}\", \"attempted\": {}, \"failed\": {}}}",
                esc(&p.name),
                p.attempted,
                p.failed
            )
        })
        .collect();
    let strs = |v: &[String]| -> String {
        let b: Vec<String> = v.iter().map(|s| format!("\"{}\"", esc(s))).collect();
        format!("[{}]", b.join(", "))
    };
    format!(
        "{{\"header\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"lane\": \"{}\", \"rev\": \"{}\"}},\n\"phases\": [{}],\n\
         \"metrics\": {},\n\"extra\": {},\n\"problems\": {},\n\"notes\": {},\n\"spans\": [{}]}}\n",
        esc(&h.workload),
        h.seed,
        h.seconds,
        h.trace,
        h.nproc,
        esc(&h.lane),
        esc(&h.rev),
        phases.join(", "),
        metric_map(&o.metrics),
        metric_map(&o.extra),
        strs(&o.problems),
        strs(&o.notes),
        o.spans_json.join(",\n")
    )
}

/// The human-readable report (everything before the result line).
pub fn print_report(h: &Header, o: &Outcome) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} lane={} rev={}",
        h.workload,
        h.seed,
        h.seconds,
        u8::from(h.trace),
        h.nproc,
        h.lane,
        h.rev
    );
    for p in &o.phases {
        println!(
            "  phase {:<12} attempted={:<7} failed={}",
            p.name, p.attempted, p.failed
        );
    }
    for (n, v, u) in &o.metrics {
        println!("  metric {n:<34} {v:>14.4} {u}");
    }
    for (n, v, u) in &o.extra {
        println!("  extra  {n:<34} {v:>14.4} {u}");
    }
    for n in &o.notes {
        println!("  {n}");
    }
    for p in &o.problems {
        println!("  FAILED {p}");
    }
}
