//! The end-to-end workloads: the shipped `tcdp-serve` over a Unix socket
//! with one closed-loop connection, and `tcdp-cli audit` as a batch job.

use crate::plan::{self, check, Ceiling, Expect, Group, QueryKind, Release, Seen, Step, Tenant};
use crate::report::{median, quantile, Outcome};
use crate::sys::{self, Client, Daemon, Rng64};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Set-ups sampled per run; `setup_s` is the median of their CPU times.
/// A `query-mix` or `cli-audit` set-up costs tens of milliseconds and
/// its CPU time jitters by a quarter from one sample to the next, so
/// those take many samples; the others cost half a second and repeat.
pub fn set_ups(workload: &str) -> usize {
    match workload {
        "query-mix" | "cli-audit" => 25,
        _ => 5,
    }
}

// ingest
pub const INGEST_TENANTS: usize = 48;
pub const INGEST_H: usize = 16;
/// `--snapshot-every-releases`; every round gives each tenant exactly
/// this many releases, so a round ends on a durable save.
pub const INGEST_SAVE_EVERY: usize = 4;
pub const INGEST_COMPACT: usize = 8;
pub const INGEST_PREFILL: usize = 20;

// admission
pub const ADM_TENANTS: usize = 8;
pub const ADM_NEAR: [usize; 2] = [1, 6];
/// A short-horizon tenant whose window ceilings sit under its own
/// calibrated window maxima.
pub const ADM_WINDOW_TIGHT: usize = 4;

// query-mix
pub const QM_TENANTS: usize = 3;
pub const QM_N: usize = 24;
pub const QM_H: usize = 24;
pub const QM_QUERIES: usize = 4;

// cli-audit
pub const CLI_A: usize = 300;
pub const CLI_B: usize = 150;
pub const CLI_H: usize = 32;
pub const CLI_EVERY: usize = 16;
pub const CLI_COMPACT: usize = 8;

/// Run-wide settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for sockets, data directories and trails.
    pub work: PathBuf,
}

/// A daemon workload's generated inputs.
pub struct Spec {
    pub tenants: Vec<Tenant>,
    pub setup: Vec<Step>,
    pub rng: Rng64,
    pub persisted: bool,
    pub round: usize,
}

fn groups2(rng: &mut Rng64, cuts: &[std::ops::Range<usize>]) -> Vec<Group> {
    cuts.iter()
        .map(|r| Group {
            users: r.clone(),
            pb: Some(plan::chain2(rng)),
            pf: Some(plan::chain2(rng)),
        })
        .collect()
}

/// Generate a daemon workload's tenants and set-up steps from the seed.
pub fn prepare(workload: &str, seed: u64) -> Spec {
    let mut rng = Rng64::new(seed);
    let mut tenants = Vec::new();
    let mut setup = Vec::new();
    match workload {
        "ingest" => {
            // The make-up is the same on every seed: three fifths of the
            // tenants have 4 shards (the fan-out threshold, so the median
            // request sits inside one cost mode), the rest spread over
            // 1..=16 shards. The seed draws the cuts, the chains and the
            // budgets.
            for i in 0..INGEST_TENANTS {
                let shards = if i % 5 < 3 { 4 } else { 1 + (i * 7) % 16 };
                let users = (shards + i / 16).min(16);
                let g = shards.min(1 + i % 4);
                let cuts = plan::cut(&mut rng, users, g, &[]);
                let bounds: Vec<usize> = cuts.iter().map(|r| r.start).collect();
                let blocks = plan::cut(&mut rng, users, shards, &bounds);
                let groups = groups2(&mut rng, &cuts);
                tenants.push(Tenant::new(format!("in{i:02}"), groups, blocks, INGEST_H));
            }
            for (i, t) in tenants.iter_mut().enumerate() {
                setup.extend(t.register(i));
                let first = t.splitting_release(&mut rng, 0.05);
                setup.extend(t.observe(i, &first));
                for _ in 1..INGEST_PREFILL {
                    let rel = t.random_release(&mut rng, 0.05, 0.3, 0.5);
                    setup.extend(t.observe(i, &rel));
                }
            }
        }
        "admission" => {
            for i in 0..ADM_TENANTS {
                let cuts = vec![0..2, 2..4];
                let groups = groups2(&mut rng, &cuts);
                // Two horizons, three quarters of the tenants on the longer
                // one, so the median request sits inside one cost mode.
                let h = if i % 4 == 0 { 16 } else { 48 };
                let mut t = Tenant::new(format!("ad{i:02}"), groups, cuts, h);
                let windows = if h == 16 { vec![4, 12] } else { vec![8, 32] };
                t.wq = windows[0];
                // Calibrate the ceiling on a throwaway stream: the
                // largest projected guarantees over 3h ordinary releases.
                let mut cal = t.clone();
                cal.oracle.horizon = Some(h);
                cal.oracle.tracked = windows.clone();
                let (mut m, mut gs) = (0.0f64, vec![0.0f64; windows.len()]);
                for _ in 0..3 * h {
                    let rel = cal.random_release(&mut rng, 0.05, 0.25, 0.3);
                    cal.oracle.push(&rel.per_user);
                    let v = cal.oracle.view(false);
                    m = m.max(v.max_tpl);
                    for (k, &w) in windows.iter().enumerate() {
                        if let Some(g) = cal.oracle.w_event(&v, w) {
                            gs[k] = gs[k].max(g);
                        }
                    }
                }
                // Near tenants sit a quarter under their α ceiling and get
                // budget spikes, refused with scope=event. The window-tight
                // tenant's window ceilings sit a tenth under its calibrated
                // maxima, so releases that lift a window past them are
                // refused with scope=window:w while α holds; it soon
                // refuses nearly everything. It is on the short horizon, so
                // its requests stay in the cheaper cost mode either way.
                let (alpha_factor, window_factor) = match i {
                    _ if ADM_NEAR.contains(&i) => (1.25, 1.25),
                    ADM_WINDOW_TIGHT => (3.0, 0.9),
                    _ => (3.0, 3.0),
                };
                t.ceiling = Some(Ceiling {
                    alpha: sys::round6(m * alpha_factor),
                    windows: windows
                        .iter()
                        .zip(&gs)
                        .map(|(&w, &g)| (w, sys::round6(g * window_factor)))
                        .collect(),
                });
                tenants.push(t);
            }
            for (i, t) in tenants.iter_mut().enumerate() {
                setup.extend(t.register(i));
                let n = t.horizon + 4;
                let mut done = 0;
                while done < n {
                    let rel = t.random_release(&mut rng, 0.05, 0.25, 0.3);
                    if let Some(s) = t.observe(i, &rel) {
                        setup.push(s);
                        done += 1;
                    }
                }
            }
        }
        "query-mix" => {
            // Smoothing strengths are fixed per slot; the seed draws the
            // permutations of the strongest matrices and the budgets.
            const SMOOTHING: [f64; 4] = [0.05, 0.1, 0.2, 0.3];
            for i in 0..QM_TENANTS {
                let mut slot = 0;
                let mut chain = |rng: &mut Rng64| {
                    slot += 1;
                    let s = SMOOTHING[(i + slot) % SMOOTHING.len()];
                    Some(plan::chain_n(QM_N, s, rng.next_u64()))
                };
                let groups = vec![
                    Group {
                        users: 0..2,
                        pb: chain(&mut rng),
                        pf: chain(&mut rng),
                    },
                    Group {
                        users: 2..3,
                        pb: chain(&mut rng),
                        pf: chain(&mut rng),
                    },
                ];
                let mut t = Tenant::new(format!("qm{i:02}"), groups, vec![0..2, 2..3], QM_H);
                t.wq = 6;
                tenants.push(t);
            }
            for (i, t) in tenants.iter_mut().enumerate() {
                setup.extend(t.register(i));
                for _ in 0..QM_H + 1 {
                    let rel = t.random_release(&mut rng, 0.05, 0.2, 0.0);
                    setup.extend(t.observe(i, &rel));
                }
            }
        }
        other => panic!("prepare: not a daemon workload: {other}"),
    }
    Spec {
        tenants,
        setup,
        rng,
        persisted: workload == "ingest",
        round: 0,
    }
}

/// The next whole round of timed requests.
pub fn next_round(workload: &str, spec: &mut Spec) -> Vec<Step> {
    let round = spec.round;
    spec.round += 1;
    let rng = &mut spec.rng;
    let mut steps = Vec::new();
    match workload {
        "ingest" => {
            let mut order: Vec<usize> = (0..spec.tenants.len()).collect();
            shuffle(rng, &mut order);
            for _ in 0..INGEST_SAVE_EVERY {
                for &i in &order {
                    let t = &mut spec.tenants[i];
                    let rel = t.random_release(rng, 0.05, 0.3, 0.5);
                    steps.extend(t.observe(i, &rel));
                }
            }
        }
        "admission" => {
            let mut order: Vec<usize> = (0..spec.tenants.len()).collect();
            shuffle(rng, &mut order);
            for _ in 0..2 {
                for &i in &order {
                    let t = &mut spec.tenants[i];
                    loop {
                        let spike = ADM_NEAR.contains(&i) && rng.chance(0.25);
                        let rel = if spike {
                            Release::uniform(rng.f(1.0, 2.0), t.users)
                        } else {
                            t.random_release(rng, 0.05, 0.25, 0.3)
                        };
                        if let Some(s) = t.observe(i, &rel) {
                            steps.push(s);
                            break;
                        }
                    }
                }
            }
        }
        "query-mix" => {
            let i = round % spec.tenants.len();
            let first = round / spec.tenants.len();
            let t = &mut spec.tenants[i];
            let rel = t.random_release(rng, 0.05, 0.2, 0.0);
            steps.extend(t.observe(i, &rel));
            let (view, exposed) = t.snapshot();
            let kinds = [
                QueryKind::MaxTpl,
                QueryKind::MostExposed,
                QueryKind::WEvent(t.wq),
                QueryKind::TplSeries,
            ];
            for k in 0..QM_QUERIES {
                let kind = kinds[(first + k) % kinds.len()];
                steps.push(t.query(i, kind, &view, &exposed, k == 0));
            }
        }
        "cli-audit" => {
            // Only the traced run has rounds here: they continue the
            // CLI's trail, replayed as daemon lines, past its end.
            let t = &mut spec.tenants[0];
            for _ in 0..CLI_EVERY {
                let rel = t.random_release(rng, 0.05, 0.3, 0.4);
                steps.extend(t.observe(0, &rel));
            }
        }
        other => panic!("next_round: unknown workload: {other}"),
    }
    steps
}

fn shuffle(rng: &mut Rng64, v: &mut [usize]) {
    for i in (1..v.len()).rev() {
        let j = rng.range(0, i);
        v.swap(i, j);
    }
}

/// Latency samples of the timed phase, by request class.
#[derive(Default)]
pub struct Samples {
    pub observe: Vec<f64>,
    pub query_cold: Vec<f64>,
    pub query_warm: Vec<f64>,
    pub refused: u64,
    /// Refusals with a `window:w` scope (the rest are `event`).
    pub refused_window: u64,
}

impl Samples {
    pub fn record(&mut self, step: &Step, rtt: Duration) {
        let us = rtt.as_secs_f64() * 1e6;
        if step.is_observe() {
            self.observe.push(us);
            if let Expect::Refuse { scope, .. } = &step.expect {
                self.refused += 1;
                self.refused_window += u64::from(scope.starts_with("window:"));
            }
        } else if step.cold {
            self.query_cold.push(us);
        } else {
            self.query_warm.push(us);
        }
    }
}

fn daemon_flags(spec: &Spec, data: &Path) -> Vec<String> {
    if !spec.persisted {
        return Vec::new();
    }
    vec![
        "--data-dir".into(),
        data.display().to_string(),
        "--snapshot-every-releases".into(),
        INGEST_SAVE_EVERY.to_string(),
        "--compact-after".into(),
        INGEST_COMPACT.to_string(),
    ]
}

/// Send steps over the connection, checking every answer.
fn send(
    client: &mut Client,
    steps: &[Step],
    phase: &str,
    out: &mut Outcome,
    seen: &mut [Seen],
    mut on_rtt: impl FnMut(&Step, Duration),
) -> Result<(), String> {
    for step in steps {
        let (resp, rtt) = client.call(&step.line)?;
        on_rtt(step, rtt);
        let verdict = check(step, &resp, &mut seen[step.tenant]);
        out.op(phase, verdict.is_ok(), || verdict.unwrap_err());
    }
    Ok(())
}

/// One complete set-up on a fresh daemon, timed from spawn until the
/// last set-up answer.
fn set_up(
    ctx: &Ctx,
    k: usize,
    out: &mut Outcome,
) -> Result<(Daemon, Client, Spec, PathBuf, f64), String> {
    let spec = prepare(&ctx.workload, ctx.seed);
    let data = ctx.work.join(format!("data{k}"));
    let sock = ctx.work.join(format!("s{k}.sock"));
    let flags = daemon_flags(&spec, &data);
    let mut seen = vec![Seen::default(); spec.tenants.len()];
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&sock, &flags)?;
    let mut client = daemon.connect()?;
    send(&mut client, &spec.setup, "setup", out, &mut seen, |_, _| {})?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((daemon, client, spec, data, secs))
}

/// A sampled set-up on a throwaway daemon: checked, then killed the
/// moment its last set-up answer arrives and reaped. Returns the daemon's
/// CPU time over its whole life, which is the set-up, and the wall time.
fn sampled_set_up(ctx: &Ctx, k: usize, out: &mut Outcome) -> Result<(f64, f64), String> {
    let (daemon, client, _, data, wall) = set_up(ctx, k, out)?;
    let cpu = daemon.kill_cpu_s()?;
    drop(client);
    let _ = std::fs::remove_dir_all(&data);
    Ok((cpu, wall))
}

/// One daemon workload, end to end. The measured daemon is set up
/// first, unsampled; the sampled set-ups run on throwaway daemons at
/// evenly spaced points of the timed phase (the measured daemon idles
/// meanwhile), so `setup_s` samples the whole run, as the latency
/// medians do. `setup_s` is daemon CPU, not wall time: the wall time of
/// hundreds of requests follows the hypervisor's steal share (see the
/// README) and is printed as `setup_wall_s`.
pub fn run_daemon(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (daemon, mut client, mut spec, data, _) = set_up(ctx, 0, &mut out)?;
    let (mut setups, mut setup_walls) = (Vec::new(), Vec::new());
    let n_setups = set_ups(&ctx.workload);
    let pid = daemon.pid();
    let mut seen = vec![Seen::default(); spec.tenants.len()];
    let mut samples = Samples::default();
    let mut requests = 0u64;
    let cpu0 = sys::proc_cpu_s(pid);
    let steal0 = sys::steal_ticks();
    let mut timed = Duration::ZERO;
    let mut busy = Duration::ZERO;
    loop {
        let done = timed.as_secs_f64() / ctx.seconds;
        if setups.len() < n_setups && done * n_setups as f64 >= setups.len() as f64 {
            let (cpu, wall) = sampled_set_up(ctx, setups.len() + 1, &mut out)?;
            setups.push(cpu);
            setup_walls.push(wall);
            continue;
        }
        if done >= 1.0 {
            break;
        }
        let t0 = Instant::now();
        let steps = next_round(&ctx.workload, &mut spec);
        requests += steps.len() as u64;
        send(
            &mut client,
            &steps,
            "stream",
            &mut out,
            &mut seen,
            |s, rtt| {
                busy += rtt;
                samples.record(s, rtt);
            },
        )?;
        timed += t0.elapsed();
    }
    let cpu = sys::proc_cpu_s(pid) - cpu0;
    let steal = sys::steal_pct(steal0, sys::steal_ticks());
    let hwm_kb = sys::proc_status_kb(pid, "VmHWM");

    let op = match ctx.workload.as_str() {
        "query-mix" => &samples.query_cold,
        _ => &samples.observe,
    };
    out.metric("setup_s", median(&setups), "s");
    out.metric("op_p50_us", median(op), "us");
    out.metric("cpu_us_per_op", cpu / requests as f64 * 1e6, "us");
    out.metric("peak_rss_mb", hwm_kb / 1024.0, "MiB");
    out.extra("observe_p50_us", median(&samples.observe), "us");
    out.extra("observe_p25_us", quantile(&samples.observe, 0.25), "us");
    out.extra("observe_p75_us", quantile(&samples.observe, 0.75), "us");
    out.extra("observe_p99_us", quantile(&samples.observe, 0.99), "us");
    out.extra("steal_pct", steal, "%");
    if !samples.query_cold.is_empty() {
        out.extra("query_cold_p50_us", median(&samples.query_cold), "us");
        out.extra("query_warm_p50_us", median(&samples.query_warm), "us");
    }
    out.extra(
        "acked_req_per_s",
        requests as f64 / busy.as_secs_f64(),
        "1/s",
    );
    out.extra("requests", requests as f64, "count");
    out.extra("refused", samples.refused as f64, "count");
    out.extra("refused_window", samples.refused_window as f64, "count");
    out.extra("setup_wall_s", median(&setup_walls), "s");
    out.extra("setup_p25_s", quantile(&setups, 0.25), "s");
    out.extra("setup_p75_s", quantile(&setups, 0.75), "s");

    if spec.persisted {
        crash_and_recover(ctx, daemon, client, &mut spec, &data, &mut out)?;
    } else {
        final_queries(&mut client, &spec, &mut out)?;
        daemon.kill();
    }
    Ok(out)
}

/// One query of each kind on every tenant at its current revision, the
/// first of them cold.
pub fn query_set(spec: &mut Spec) -> Vec<Step> {
    let mut steps = Vec::new();
    for (i, t) in spec.tenants.iter_mut().enumerate() {
        let (view, exposed) = t.snapshot();
        let kinds = [
            QueryKind::MaxTpl,
            QueryKind::MostExposed,
            QueryKind::TplSeries,
            QueryKind::WEvent(t.wq),
        ];
        for (k, kind) in kinds.into_iter().enumerate() {
            steps.push(t.query(i, kind, &view, &exposed, k == 0));
        }
    }
    steps
}

/// Every tenant once more, with the exact all-time maximum checked too.
fn final_queries(client: &mut Client, spec: &Spec, out: &mut Outcome) -> Result<(), String> {
    for (i, t) in spec.tenants.iter().enumerate() {
        let view = std::rc::Rc::new(t.oracle.view(true));
        let exposed = std::rc::Rc::new(
            (0..t.users)
                .map(|u| t.oracle.exposed_ok(&view, u))
                .collect::<Vec<_>>(),
        );
        let step = t.query(i, QueryKind::MaxTpl, &view, &exposed, false);
        let (resp, _) = client.call(&step.line)?;
        let verdict = check(&step, &resp, &mut Seen::default());
        out.op("final", verdict.is_ok(), || verdict.unwrap_err());
    }
    Ok(())
}

fn strip_rev(resp: &str) -> String {
    resp.split_whitespace()
        .filter(|t| !t.starts_with("rev="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `ingest`'s ending: query every tenant, `kill -9`, recover from the
/// data directory, and demand the same answers.
fn crash_and_recover(
    ctx: &Ctx,
    daemon: Daemon,
    mut client: Client,
    spec: &mut Spec,
    data: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    final_queries(&mut client, spec, out)?;
    let steps = query_set(spec);
    let mut before = Vec::with_capacity(steps.len());
    let mut seen = vec![Seen::default(); spec.tenants.len()];
    for step in &steps {
        let (resp, _) = client.call(&step.line)?;
        let verdict = check(step, &resp, &mut seen[step.tenant]);
        out.op("final", verdict.is_ok(), || verdict.unwrap_err());
        before.push(strip_rev(&resp));
    }
    let releases: usize = spec.tenants.iter().map(|t| t.oracle.len()).sum();
    let disk = sys::dir_bytes(data);
    drop(client);
    daemon.kill();

    let sock = ctx.work.join("s.sock");
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&sock, &daemon_flags(spec, data))?;
    let mut client = daemon.connect()?;
    for t in &spec.tenants {
        let (resp, _) = client.call(&format!("QUERY {} max_tpl", t.name))?;
        out.op("recovery", resp.starts_with("OK "), || {
            format!("{} did not answer after recovery: {resp}", t.name)
        });
    }
    let recover_s = t0.elapsed().as_secs_f64();
    for (step, want) in steps.iter().zip(&before) {
        let (resp, _) = client.call(&step.line)?;
        let got = strip_rev(&resp);
        out.op("recovery", &got == want, || {
            format!(
                "{}: recovered {got}, before the crash {want}",
                plan::short(&step.line)
            )
        });
    }
    daemon.kill();
    out.extra("recover_s", recover_s, "s");
    out.extra("disk_bytes_per_release", disk as f64 / releases as f64, "B");
    Ok(())
}

// ---------------------------------------------------------------- cli-audit

/// `cli-audit`'s generated inputs.
pub struct CliSpec {
    pub tenant: Tenant,
    pub a: Vec<Release>,
    pub b: Vec<Release>,
}

pub fn prepare_cli(seed: u64) -> CliSpec {
    let mut rng = Rng64::new(seed);
    let cuts = vec![0..3, 3..6];
    let groups = groups2(&mut rng, &cuts);
    // Blocks refine group 1, so personalized lines split its shard (a
    // SPLIT record in the delta log); three shards stay below the
    // population fan-out threshold.
    let mut t = Tenant::new("audit".into(), groups, vec![0..3, 3..5, 5..6], CLI_H);
    t.oracle.horizon = Some(CLI_H);
    let gen = |n: usize, rng: &mut Rng64| -> Vec<Release> {
        (0..n)
            .map(|_| t.random_release(rng, 0.05, 0.3, 0.4))
            .collect()
    };
    let a = gen(CLI_A, &mut rng);
    let b = gen(CLI_B, &mut rng);
    CliSpec { tenant: t, a, b }
}

fn write_trail(path: &Path, rels: &[&Release]) -> Result<(), String> {
    let mut text = String::new();
    for r in rels {
        text.push_str(&r.text);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cli_common(spec: &str, extra: &[&str]) -> Vec<String> {
    let mut v: Vec<String> = vec!["audit".into()];
    if !spec.is_empty() {
        v.push("--population".into());
        v.push(spec.into());
    }
    v.extend(
        ["--w", "4,8", "--horizon", &CLI_H.to_string()]
            .iter()
            .map(|s| s.to_string()),
    );
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

fn checkpoint_flags(cp: &Path) -> Vec<String> {
    vec![
        "--checkpoint".into(),
        cp.display().to_string(),
        "--checkpoint-format".into(),
        "bin".into(),
        "--checkpoint-every".into(),
        CLI_EVERY.to_string(),
        "--compact-after".into(),
        CLI_COMPACT.to_string(),
    ]
}

fn cli(args: &[String]) -> Result<sys::ChildRun, String> {
    sys::run_child(Command::new(sys::bin("tcdp-cli")).args(args))
}

fn parse4(s: &str) -> f64 {
    s.trim_end_matches(',').parse().unwrap_or(f64::NAN)
}

fn near4(printed: f64, reference: f64) -> bool {
    (printed - reference).abs() <= 5.0e-5 + 1e-9 * reference.abs().max(1.0)
}

/// Check a `tcdp-cli audit --population` report against the reference
/// at the audited length.
pub fn check_audit_output(text: &str, t: &Tenant, grouped: bool) -> Result<(), String> {
    let view = t.oracle.view(true);
    let lines: Vec<&str> = text.lines().collect();
    let tpl = lines
        .iter()
        .find_map(|l| l.strip_prefix("TPL "))
        .ok_or("no TPL line")?;
    let vals: Vec<f64> = tpl.split_whitespace().map(parse4).collect();
    if vals.len() != view.series.len() || vals.iter().zip(&view.series).any(|(p, r)| !near4(*p, *r))
    {
        return Err("TPL series differs from the reference".into());
    }
    let worst = lines
        .iter()
        .find_map(|l| l.strip_prefix("worst: "))
        .ok_or("no worst line")?;
    let mut it = worst.split_whitespace();
    let w = parse4(it.next().unwrap_or(""));
    if !near4(w, view.max_tpl) || w < view.exact_max - 5.0e-5 - 1e-9 {
        return Err(format!("worst {w} vs reference {}", view.max_tpl));
    }
    let user = worst
        .split("(user ")
        .nth(1)
        .and_then(|r| r.split_whitespace().next())
        .and_then(|u| u.parse::<usize>().ok())
        .ok_or("no most exposed user")?;
    if !t.oracle.exposed_ok(&view, user) {
        return Err(format!("most exposed user {user} is below the maximum"));
    }
    if !grouped {
        return Ok(());
    }
    for (gi, g) in t.groups.iter().enumerate() {
        let prefix = format!("group {gi} (users {}..{}): ", g.users.start, g.users.end);
        let line = lines
            .iter()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .ok_or_else(|| format!("no line for group {gi}"))?;
        let users = g.users.clone();
        let worst = users
            .clone()
            .map(|u| view.views[u].max_tpl)
            .fold(f64::NEG_INFINITY, f64::max);
        let level = users
            .clone()
            .map(|u| t.oracle.users[u].eps.iter().sum::<f64>())
            .fold(f64::NEG_INFINITY, f64::max);
        let mut want = vec![("worst TPL ", worst), ("user-level ", level)];
        for w in [4usize, 8] {
            let g = users
                .clone()
                .filter_map(|u| t.oracle.users[u].w_event(&view.views[u], w, false))
                .fold(f64::NEG_INFINITY, f64::max);
            want.push((if w == 4 { "4-event " } else { "8-event " }, g));
        }
        for (key, r) in want {
            let p = line
                .split(key)
                .nth(1)
                .and_then(|s| s.split([',', ' ']).next())
                .map(parse4)
                .unwrap_or(f64::NAN);
            if !near4(p, r) {
                return Err(format!("group {gi} {key}{p} vs reference {r}"));
            }
        }
    }
    Ok(())
}

fn summary(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| {
            l.starts_with("TPL ") || l.starts_with("worst: ") || l.starts_with("population: ")
        })
        .map(str::to_string)
        .collect()
}

/// `cli-audit`, end to end.
pub fn run_cli(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut spec = prepare_cli(ctx.seed);
    let pop = spec.tenant.spec();
    let a_path = ctx.work.join("a.txt");
    let b_path = ctx.work.join("b.txt");
    let ab_path = ctx.work.join("ab.txt");
    write_trail(&a_path, &spec.a.iter().collect::<Vec<_>>())?;
    write_trail(&b_path, &spec.b.iter().collect::<Vec<_>>())?;
    write_trail(&ab_path, &spec.a.iter().chain(&spec.b).collect::<Vec<_>>())?;
    let mut at_a = spec.tenant.clone();
    for r in &spec.a {
        at_a.oracle.push(&r.per_user);
    }
    for r in spec.a.iter().chain(&spec.b) {
        spec.tenant.oracle.push(&r.per_user);
    }

    // Set-up: the uninterrupted audit of the whole trail, which is also
    // the reference the checkpointed runs must reproduce. As with the
    // daemon workloads, the set-ups are spread over the timed phase.
    let ab_arg = format!("@{}", ab_path.display());
    let full = cli_common(&pop, &["--budgets", &ab_arg]);
    let mut maxrss_kb = 0.0f64;
    let reference_run = |out: &mut Outcome| -> Result<(sys::ChildRun, Vec<String>), String> {
        let run = cli(&full)?;
        let verdict = check_audit_output(&run.stdout, &spec.tenant, true);
        out.op("setup", verdict.is_ok(), || verdict.unwrap_err());
        let lines = summary(&run.stdout);
        Ok((run, lines))
    };
    // `setup_s` is the set-up's CPU time, as on the daemon workloads.
    let (first_setup, reference) = reference_run(&mut out)?;
    let (mut setups, mut setup_walls) = (
        vec![first_setup.cpu_s],
        vec![first_setup.wall.as_secs_f64()],
    );
    let n_setups = set_ups(&ctx.workload);

    let cp = ctx.work.join("cp.bin");
    let a_arg = format!("@{}", a_path.display());
    let b_arg = format!("@{}", b_path.display());
    let mut first = cli_common(&pop, &["--budgets", &a_arg]);
    first.extend(checkpoint_flags(&cp));
    let mut resume = cli_common(
        "",
        &["--resume", &cp.display().to_string(), "--budgets", &b_arg],
    );
    resume.extend(checkpoint_flags(&cp));

    let (mut audits, mut resumes, mut cycles, mut disk) = (vec![], vec![], vec![], vec![]);
    let mut cycle_cpu = Vec::new();
    let steal0 = sys::steal_ticks();
    let mut cpu = 0.0;
    let mut releases = 0usize;
    let mut timed = Duration::ZERO;
    loop {
        let done = timed.as_secs_f64() / ctx.seconds;
        if setups.len() < n_setups && done * n_setups as f64 >= setups.len() as f64 {
            let (run, again) = reference_run(&mut out)?;
            out.op("setup", again == reference, || {
                "reference audit changed".into()
            });
            setups.push(run.cpu_s);
            setup_walls.push(run.wall.as_secs_f64());
            continue;
        }
        if done >= 1.0 {
            break;
        }
        let t0 = Instant::now();
        let _ = std::fs::remove_file(&cp);
        let _ = std::fs::remove_file(tcdp_core::checkpoint::delta_log_path(&cp));
        let run_a = cli(&first)?;
        let verdict = check_audit_output(&run_a.stdout, &at_a, true);
        out.op("stream", verdict.is_ok(), || {
            format!("audit: {}", verdict.unwrap_err())
        });
        disk.push(sys::dir_bytes(&ctx.work) as f64 - dir_inputs(&ctx.work) as f64);
        let run_r = cli(&resume)?;
        let got = summary(&run_r.stdout);
        let same = got == reference && got.len() == 3;
        out.op("stream", same, || {
            format!("resume summary {got:?} vs uninterrupted {reference:?}")
        });
        let verdict = check_audit_output(&run_r.stdout, &spec.tenant, false);
        out.op("stream", verdict.is_ok(), || {
            format!("resume: {}", verdict.unwrap_err())
        });
        let (wall_a, wall_r) = (run_a.wall.as_secs_f64(), run_r.wall.as_secs_f64());
        audits.push(wall_a);
        resumes.push(wall_r);
        cycles.push((wall_a + wall_r) * 1e6);
        cycle_cpu.push((run_a.cpu_s + run_r.cpu_s) * 1e6);
        cpu += run_a.cpu_s + run_r.cpu_s;
        maxrss_kb = maxrss_kb.max(run_a.maxrss_kb).max(run_r.maxrss_kb);
        releases += CLI_A + CLI_B;
        timed += t0.elapsed();
    }
    out.metric("setup_s", median(&setups), "s");
    // The cycle's CPU time, not its wall time: a CLI run lasts long
    // enough that its wall time follows the hypervisor's steal share
    // (see the README); the wall time is reported as `cycle_wall_p50_us`.
    out.metric("op_p50_us", median(&cycle_cpu), "us");
    out.metric("cpu_us_per_op", cpu / releases as f64 * 1e6, "us");
    out.metric("peak_rss_mb", maxrss_kb / 1024.0, "MiB");
    out.extra("audit_s", median(&audits), "s");
    out.extra("resume_s", median(&resumes), "s");
    out.extra("cycle_wall_p50_us", median(&cycles), "us");
    out.extra("cycles", cycles.len() as f64, "count");
    out.extra("steal_pct", sys::steal_pct(steal0, sys::steal_ticks()), "%");
    out.extra("disk_bytes_per_release", median(&disk) / CLI_A as f64, "B");
    out.extra("setup_wall_s", median(&setup_walls), "s");
    out.extra("setup_p25_s", quantile(&setups, 0.25), "s");
    out.extra("setup_p75_s", quantile(&setups, 0.75), "s");
    Ok(out)
}

/// Bytes of the trail files in the work directory (not checkpoint data).
fn dir_inputs(work: &Path) -> u64 {
    ["a.txt", "b.txt", "ab.txt"]
        .iter()
        .filter_map(|f| std::fs::metadata(work.join(f)).ok())
        .map(|m| m.len())
        .sum()
}

/// Write trail A and run one checkpointed audit of it, checking its
/// report; returns the checkpoint path (the traced run's resume probe).
pub fn cli_checkpoint(ctx: &Ctx, spec: &CliSpec, out: &mut Outcome) -> Result<PathBuf, String> {
    let a_path = ctx.work.join("a.txt");
    write_trail(&a_path, &spec.a.iter().collect::<Vec<_>>())?;
    let cp = ctx.work.join("cp.bin");
    let a_arg = format!("@{}", a_path.display());
    let mut args = cli_common(&spec.tenant.spec(), &["--budgets", &a_arg]);
    args.extend(checkpoint_flags(&cp));
    let text = cli(&args)?.stdout;
    let mut at_a = spec.tenant.clone();
    for r in &spec.a {
        at_a.oracle.push(&r.per_user);
    }
    let verdict = check_audit_output(&text, &at_a, true);
    out.op("setup", verdict.is_ok(), || verdict.unwrap_err());
    Ok(cp)
}
