//! `perfbench` — the end-to-end and per-layer benchmark of `tcdp-serve`
//! and `tcdp-cli`. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload ingest|admission|query-mix|cli-audit
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). The same
//! report, with spans in traced runs, is written to
//! `.perfbench/reports/<workload>-seed<N>-trace<0|1>.json`.

mod e2e;
mod oracle;
mod plan;
mod report;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["ingest", "admission", "query-mix", "cli-audit"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let base = PathBuf::from(".perfbench");
    let work = base.join(format!("run-{}", std::process::id()));
    let reports = base.join("reports");
    if let Err(e) = std::fs::create_dir_all(&work).and_then(|_| std::fs::create_dir_all(&reports)) {
        eprintln!("perfbench: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = e2e::Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
    };
    let result = if args.trace {
        trace::run(&ctx)
    } else if args.workload == "cli-audit" {
        e2e::run_cli(&ctx)
    } else {
        e2e::run_daemon(&ctx)
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let header = report::Header {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        lane: std::env::var("PERFBENCH_LANE").unwrap_or_else(|_| {
            if cfg!(feature = "parallel") {
                "parallel".into()
            } else {
                "serial".into()
            }
        }),
        rev: std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into()),
    };
    let file = reports.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, report::report_json(&header, &outcome)) {
        eprintln!("perfbench: {}: {e}", file.display());
    }
    report::print_report(&header, &outcome);
    println!("  report file {}", file.display());
    println!("{}", report::result_json(&outcome));
    ExitCode::SUCCESS
}
