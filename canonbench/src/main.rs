//! The Canon benchmark: one command per named workload.
//!
//! ```text
//! canonbench --workload <sweep-64x64|deep-k|serve-8x8> --seed N --seconds S --trace 0|1
//! ```
//!
//! Every input derives from `--seed`. The run measures for `--seconds`,
//! checks the program's outputs, writes a human-readable report to stderr,
//! and prints one JSON object as the last line of stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod cell;
mod deepk;
mod layers;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Operations checked (cells, kernel runs, or requests).
    pub attempted: u64,
    /// Operations that failed a check, errored, or were refused.
    pub failed: u64,
    /// Run-level checks that are not per operation (e.g. cycles repeating
    /// across repetitions); any `false` makes the run incorrect.
    pub checks_ok: bool,
    pub metrics: Vec<Metric>,
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: canonbench --workload <sweep-64x64|deep-k|serve-8x8> --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(secs), Some(trace)) => Args {
            workload,
            seed,
            seconds: Duration::from_secs_f64(secs),
            trace,
        },
        _ => usage(),
    }
}

/// A per-purpose seed derived from the run seed: every generated input of
/// a run comes from `derive(seed, purpose)`.
pub fn derive(seed: u64, purpose: &str) -> u64 {
    canon_sweep::store::fnv1a64(format!("canonbench:{seed}:{purpose}").as_bytes())
}

/// Scratch space for stores and sockets: under the build directory of the
/// checkout, private to this process, removed on exit.
pub fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    base.join("canonbench")
        .join(format!("run-{}", std::process::id()))
}

/// Where a traced run writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    work_dir()
        .parent()
        .expect("work dir has a parent")
        .join(format!("trace-{workload}-{seed}.jsonl"))
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_result(outcome: &Outcome) {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks_ok && outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = parse_args();
    let dir = work_dir();
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    });
    let mut outcome = match args.workload.as_str() {
        "sweep-64x64" => sweep::run(&args, &dir),
        "deep-k" => deepk::run(&args),
        "serve-8x8" => serve::run(&args, &dir),
        other => {
            eprintln!("unknown workload {other:?}");
            usage();
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    for (name, value, _) in &mut outcome.metrics {
        // An empty float sum is -0.0, and JSON has no NaN.
        assert!(value.is_finite(), "metric {name} is not finite");
        if *value == 0.0 {
            *value = 0.0;
        }
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<24} {value:>16.6} {unit}");
    }
    eprintln!(
        "checks: attempted={} failed={} run-level={}",
        outcome.attempted,
        outcome.failed,
        if outcome.checks_ok { "ok" } else { "FAILED" }
    );
    print_result(&outcome);
}
