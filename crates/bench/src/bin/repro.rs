//! `repro` — regenerate the paper's tables and figures, run multi-backend
//! scenario sweeps, and maintain the sweep result store.
//!
//! ```sh
//! cargo run -p canon-bench --release --bin repro -- all --jobs 8
//! cargo run -p canon-bench --release --bin repro -- fig12 fig13
//! cargo run -p canon-bench --release --bin repro -- --smoke fig17
//! cargo run -p canon-bench --release --bin repro -- sweep --jobs 4 --out results.jsonl
//! cargo run -p canon-bench --release --bin repro -- sweep --geom 8x8,16x16
//! cargo run -p canon-bench --release --bin repro -- sweep --resume --out results.jsonl
//! cargo run -p canon-bench --release --bin repro -- sweep --faults panic@4,deadlock@9,timeout@14
//! cargo run -p canon-bench --release --bin repro -- store gc --out results.jsonl
//! cargo run -p canon-bench --release --bin repro -- trace --out trace.json
//! cargo run -p canon-bench --release --bin repro -- profile
//! ```
//!
//! The `sweep` target (also the first step of `all`) expands the standard
//! architecture × workload × band × geometry grid — tensor kernels *and*
//! PolyBench loop nests, with baselines provisioned iso-MAC at every
//! `--geom` point — fans it out over `--jobs` worker threads through the
//! `canon-sweep` engine, and writes/updates the JSONL result store at
//! `--out`. Cells already present in the store under their content key are
//! reported as cache hits and not re-simulated — which is also the
//! `--resume` path: an interrupted or killed sweep left everything it
//! completed in the fsync'd journal, so re-running converges on the same
//! store. Cells that panic, deadlock, or exceed the per-cell budgets are
//! quarantined as structured failure records (exit code 3), SIGINT drains
//! in-flight cells and exits 130, and `--faults` injects deterministic
//! failures to exercise all of it. `store gc` compacts the store, dropping
//! records stranded by `CODE_SALT`/schema bumps.
//!
//! The `serve` target runs the same per-cell stack as a resident daemon
//! (`canon-serve`): a Unix-socket line-JSON protocol over warm fabric
//! pools and the result store promoted to a serving tier. `submit` is the
//! matching client (single cells or the whole standard grid), `ctl` sends
//! control commands, and SIGTERM/SIGINT drain the daemon gracefully (exit
//! 143/130). Store-touching targets (`sweep`, `store gc`, `serve`) take an
//! exclusive flock on `<store>.lock`, so a concurrent sweep against a
//! daemon-owned store fails fast instead of corrupting the journal.
//!
//! ```sh
//! cargo run -p canon-bench --release --bin repro -- serve --socket canon.sock --out results.jsonl
//! cargo run -p canon-bench --release --bin repro -- submit --socket canon.sock --smoke
//! cargo run -p canon-bench --release --bin repro -- submit --socket canon.sock \
//!     --workload SpMM --band S2 --arch Canon
//! cargo run -p canon-bench --release --bin repro -- ctl status --socket canon.sock
//! ```

use canon_bench::{ablations, bench, figures, Scale};
use canon_core::fault::{FaultAction, FaultPlan};
use canon_core::trace::{render_profile, write_chrome_trace, VecSink};
use canon_core::CanonConfig;
use canon_serve::{Client, Request, ServeOptions, SubmitRequest};
use canon_sweep::engine::{run_sweep, SweepOptions};
use canon_sweep::report::{edp_table, quarantine_report_with, speedup_table};
use canon_sweep::scenario::{standard_workloads, GridBuilder, ScenarioGrid};
use canon_sweep::store::{ResultStore, StoreLock};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A counting wrapper around the system allocator, powering `repro bench`'s
/// steady-state allocation profile (allocations per simulated cycle). The
/// counters only tick while `COUNTING` is set (the bench target), so every
/// other `repro` run pays a single relaxed load per allocation and no
/// shared read-modify-write traffic.
struct CountingAlloc;

static COUNTING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counters are purely
// observational.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The cooperative-shutdown flag SIGINT flips. Sweep workers poll it
/// between cells (`SweepOptions::shutdown`): in-flight cells drain, the
/// journal is flushed, and `repro` exits 130 with a partial report.
static SIGINT_FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

// Raw POSIX `signal(2)` binding: the workspace carries no libc crate, and
// the handler only needs to flip an atomic.
#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_sigint(_signum: i32) {
    // SAFETY/async-signal-safety: `OnceLock::get` and the atomic store are
    // lock- and allocation-free; the flag is initialized before the
    // handler is installed.
    if let Some(flag) = SIGINT_FLAG.get() {
        flag.store(true, Ordering::Relaxed);
    }
    // Restore the default disposition so a second ^C kills the process
    // immediately instead of re-requesting the graceful drain.
    unsafe {
        signal(2, 0); // SIGINT, SIG_DFL
    }
}

/// Installs the graceful-SIGINT handler and returns the shutdown flag to
/// thread into [`SweepOptions`]. On non-unix hosts the flag exists but ^C
/// keeps its default (immediate-kill) behaviour.
fn install_sigint_flag() -> Arc<AtomicBool> {
    let flag = SIGINT_FLAG
        .get_or_init(|| Arc::new(AtomicBool::new(false)))
        .clone();
    #[cfg(unix)]
    // SAFETY: `on_sigint` is async-signal-safe (atomics only) and lives
    // for the whole process.
    unsafe {
        signal(2, on_sigint as *const () as usize); // SIGINT
    }
    flag
}

/// The daemon's signal slot: SIGINT/SIGTERM handlers store the raw signal
/// number here and the serve accept loop turns it into a graceful drain
/// (exit 130/143).
static SERVE_SIGNAL: OnceLock<Arc<AtomicI32>> = OnceLock::new();

#[cfg(unix)]
extern "C" fn on_serve_signal(signum: i32) {
    // SAFETY/async-signal-safety: `OnceLock::get` and the atomic store are
    // lock- and allocation-free.
    if let Some(slot) = SERVE_SIGNAL.get() {
        slot.store(signum, Ordering::Relaxed);
    }
    // A second signal kills immediately instead of re-requesting the drain.
    unsafe {
        signal(signum, 0); // SIG_DFL
    }
}

/// Installs graceful SIGINT+SIGTERM handlers for `repro serve` and returns
/// the slot to hand to [`ServeOptions::signal`].
fn install_serve_signals() -> Arc<AtomicI32> {
    let slot = SERVE_SIGNAL
        .get_or_init(|| Arc::new(AtomicI32::new(0)))
        .clone();
    #[cfg(unix)]
    // SAFETY: `on_serve_signal` is async-signal-safe and lives for the
    // whole process.
    unsafe {
        signal(2, on_serve_signal as *const () as usize); // SIGINT
        signal(15, on_serve_signal as *const () as usize); // SIGTERM
    }
    slot
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--smoke|--large] [--jobs N] [--out FILE] [--geom RxC[,RxC...]] <targets...>\n\
         targets: table1 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17\n\
                  ablation-async ablation-buffer-sizing ablation-lut sweep all\n\
                  store gc   compact the store; reports kept/stale-salt/\n\
                        unreadable record counts and recovered torn-tail bytes\n\
                  serve   resident sweep daemon on --socket over the --out\n\
                        store: warm fabric pools, request coalescing, bounded\n\
                        queue with busy/retry-after backpressure; SIGTERM/\n\
                        SIGINT drain gracefully (exit 143/130)\n\
                  submit   client: submit the standard grid (default; --smoke\n\
                        and --faults as in sweep) or one cell (--workload,\n\
                        --band, --arch, --seed, --fault DESC); prints one\n\
                        reply line per cell plus a summary\n\
                  ctl status|drain|shutdown   control a running daemon\n\
                  bench [--check] [--baseline FILE]   (writes BENCH_sim.json)\n\
                  trace [--out FILE]   capture the golden SpMM scenario as a\n\
                        Perfetto-loadable Chrome trace (default: trace.json)\n\
                  profile   textual stall/occupancy profile of the same run\n\
         options:\n\
           --smoke      reduced problem sizes (CI-scale)\n\
           --large      large-fabric tier: doubled problem sizes; sweep\n\
                        defaults to the 64x64,128x64 geometries\n\
           --progress   (sweep) live progress line on stderr (cells done,\n\
                        cells/sec, operand-cache + store hit rates)\n\
           --jobs N     sweep worker threads (default: all cores)\n\
           --out FILE   sweep result store (default: sweep_results.jsonl);\n\
                        for bench, the report file (default: BENCH_sim.json)\n\
           --geom LIST  sweep fabric geometries, e.g. 8x8,16x16 (default: 8x8,\n\
                        or 64x64,128x64 under --large); baselines are\n\
                        provisioned iso-MAC at each point\n\
           --per-pe     (sweep) disable the column-lockstep engine and\n\
                        step every PE of every cell; the result store must\n\
                        be byte-identical either way (CI diffs the two)\n\
           --resume     (sweep) continue an interrupted sweep from the store\n\
                        journal: recovered records are reported instead of\n\
                        warned about; finished cells are cache hits\n\
           --faults SPEC  (sweep) deterministic fault injection, a comma list\n\
                        of KIND@CELL[:PARAM] with CELL a scenario index:\n\
                        panic@4:100 (panic at cycle 100), deadlock@9\n\
                        (withhold credits), timeout@14:NANOS (slow cell,\n\
                        default 500ms/cycle), transient@3:2 (fail 2 attempts)\n\
           --cell-timeout-ms N  (sweep) wall-clock budget per cell; overruns\n\
                        quarantine as timeout records with partial stats\n\
                        (defaults to 100 when --faults injects a timeout)\n\
           --cell-cycles N  (sweep) simulated-cycle ceiling per cell\n\
                        (deterministic timeout, independent of host speed)\n\
           --retries N  (sweep, serve) retry budget for transient failures\n\
                        (default 2); deterministic failures never retry\n\
           --socket PATH  (serve, submit, ctl) daemon Unix socket\n\
                        (default: canon-serve.sock)\n\
           --queue N    (serve) bounded queue capacity; submits beyond it\n\
                        get a busy reply with retry_after_ms (default 64)\n\
           --connections N  (submit) parallel client connections (default 4)\n\
           --check      (bench) exit 1 if either engine's steady-state step\n\
                        loop exceeds the allocation gate (allocs/cycle), or\n\
                        if the kernels' median-throughput geomean falls\n\
                        below the throughput gate against the baseline\n\
           --baseline FILE  (bench --check) the report to gate against\n\
                        (default: BENCH_sim.json, read before it is\n\
                        overwritten); it must name every measured kernel\n\
         exit codes: 0 ok; 1 fatal error; 2 usage; 3 sweep/submit completed\n\
                     with quarantined cell failures; 130 interrupted (SIGINT\n\
                     drain); 143 serve drained by SIGTERM"
    );
    std::process::exit(2)
}

/// Parses a `--faults` spec list (`KIND@CELL[:PARAM]`, comma-separated)
/// into a [`FaultPlan`] keyed by scenario index in grid order.
fn parse_faults(raw: &str) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for spec in raw.split(',').filter(|s| !s.is_empty()) {
        let Some((kind, rest)) = spec.split_once('@') else {
            eprintln!("--faults entries look like KIND@CELL[:PARAM], got {spec:?}");
            usage();
        };
        let (cell_str, param) = match rest.split_once(':') {
            Some((c, p)) => (c, Some(p)),
            None => (rest, None),
        };
        let Ok(cell) = cell_str.parse::<usize>() else {
            eprintln!("--faults cell index must be an integer, got {cell_str:?} in {spec:?}");
            usage();
        };
        let param_u64 = |default: u64| -> u64 {
            match param {
                Some(p) => p.parse().unwrap_or_else(|_| {
                    eprintln!("--faults parameter must be an integer, got {p:?} in {spec:?}");
                    usage();
                }),
                None => default,
            }
        };
        let action = match kind {
            "panic" => FaultAction::PanicAt {
                cycle: param_u64(0),
            },
            "deadlock" => FaultAction::WithholdCredits,
            // Half a second of injected wall time per simulated cycle: one
            // sleep overshoots any sane wall budget on its own, so the
            // timeout fires at the first post-sleep check and the record's
            // partial cycle count is deterministic (host jitter can only
            // add to an overshoot that already decides the outcome).
            "timeout" => FaultAction::SlowCycle {
                nanos: param_u64(500_000_000),
            },
            "transient" => FaultAction::Transient {
                failures: param_u64(1).min(u32::MAX as u64) as u32,
            },
            other => {
                eprintln!("--faults kind must be panic|deadlock|timeout|transient, got {other:?}");
                usage();
            }
        };
        plan.set(cell, action);
    }
    plan
}

fn parse_geometries(raw: &str) -> Vec<(usize, usize)> {
    raw.split(',')
        .map(|g| {
            let parse =
                |s: Option<&str>| s.and_then(|v| v.parse::<usize>().ok()).filter(|&v| v > 0);
            let mut parts = g.split('x');
            match (parse(parts.next()), parse(parts.next()), parts.next()) {
                (Some(r), Some(c), None) => (r, c),
                _ => {
                    eprintln!("--geom needs RxC entries, got {g:?}");
                    usage();
                }
            }
        })
        .collect()
}

/// Removes a boolean `flag` from `args`, returning whether it was there.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let pos = args.iter().position(|a| a == flag);
    if let Some(pos) = pos {
        args.remove(pos);
    }
    pos.is_some()
}

fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        usage();
    }
    args.remove(pos);
    Some(args.remove(pos))
}

fn open_store(out: &str) -> ResultStore {
    ResultStore::open(out).unwrap_or_else(|e| {
        eprintln!("cannot open result store {out}: {e}");
        std::process::exit(1);
    })
}

/// Fault-tolerance knobs `main` threads into every `sweep` target run.
struct SweepRunOpts {
    resume: bool,
    fault_plan: FaultPlan,
    cell_wall_budget: Option<Duration>,
    cell_cycle_budget: Option<u64>,
    max_retries: u32,
    /// Column lockstep on (the default engine configuration).
    /// `--per-pe` forces per-PE stepping so CI can byte-diff the two
    /// paths' result stores.
    lockstep: bool,
    shutdown: Arc<AtomicBool>,
}

/// The standard grid at the CLI's scale and geometry settings — shared by
/// the batch `sweep` target and the `submit` client's grid mode, so both
/// surfaces expand identical scenarios (and therefore identical store keys).
fn standard_grid(scale: Scale, geometries: &[(usize, usize)]) -> ScenarioGrid {
    let mut builder = GridBuilder::new()
        .scales(&[match scale {
            Scale::Full | Scale::Large => 1,
            Scale::Smoke => 4,
        }])
        .geometries(geometries);
    for w in standard_workloads() {
        builder = builder.workload(&w.name, w.template);
    }
    builder.build()
}

/// Takes the store's exclusive advisory lock, failing fast (exit 1) when a
/// daemon or concurrent sweep owns it.
fn lock_store(out: &str) -> StoreLock {
    StoreLock::acquire(Path::new(out)).unwrap_or_else(|e| {
        eprintln!("cannot lock result store {out}: {e}");
        std::process::exit(1);
    })
}

fn run_standard_sweep(
    scale: Scale,
    jobs: usize,
    out: &str,
    geometries: &[(usize, usize)],
    progress: bool,
    run: &SweepRunOpts,
    exit_code: &mut i32,
) -> String {
    let grid = standard_grid(scale, geometries);
    let _lock = lock_store(out);
    let mut store = open_store(out);
    let recovery = store.recovery();
    if recovery.has_damage() {
        let residue = format!(
            "{} unreadable line(s), {} torn-tail byte(s)",
            recovery.unreadable_lines, recovery.torn_tail_bytes
        );
        if run.resume {
            eprintln!(
                "resume: {} record(s) recovered from {out}; dropping {residue}",
                recovery.loaded
            );
        } else {
            eprintln!(
                "warning: result store {out} carries crash residue ({residue}); \
                 the sweep heals the tail on completion, or run `repro store gc`"
            );
        }
    } else if run.resume {
        eprintln!("resume: {} record(s) loaded from {out}", recovery.loaded);
    }
    let outcome = run_sweep(
        &grid,
        &mut store,
        &SweepOptions {
            jobs,
            progress,
            base_cfg: CanonConfig {
                lockstep: run.lockstep,
                ..CanonConfig::default()
            },
            cell_wall_budget: run.cell_wall_budget,
            cell_cycle_budget: run.cell_cycle_budget,
            max_retries: run.max_retries,
            fault_plan: run.fault_plan.clone(),
            shutdown: Some(run.shutdown.clone()),
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        std::process::exit(1);
    });
    let s = outcome.stats;
    let mut text = format!(
        "== Sweep: {} cells ({} workload cells x {} architectures) ==\n\
         jobs={jobs}  executed={}  cache-hits={}  unsupported={}  errors={}  failed={}  retries={}\n\
         throughput: {:.0} simulated cycles/sec ({:.1} ms execution)\n\
         store: {out}\n\n",
        s.total,
        grid.cell_count(),
        canon_energy::Arch::all().len(),
        s.executed,
        s.cache_hits,
        s.unsupported,
        s.errors,
        s.failed,
        s.retries,
        s.cycles_per_sec(),
        s.wall_secs * 1e3,
    );
    text.push_str(&speedup_table(&outcome.records));
    text.push('\n');
    text.push_str(&edp_table(&outcome.records));
    if let Some(report) = quarantine_report_with(&outcome.records, Some(&s)) {
        text.push('\n');
        text.push_str(&report);
    }
    if s.interrupted {
        eprintln!(
            "sweep interrupted: {} of {} cell(s) resolved and journaled to {out}; \
             re-run with --resume to continue",
            outcome.records.len(),
            s.total
        );
        *exit_code = 130;
    } else if s.failed > 0 && *exit_code == 0 {
        // Healthy cells are all stored; the quarantined ones make the run
        // non-clean without making it fatal.
        *exit_code = 3;
    }
    text
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match (
        args.iter().position(|a| a == "--smoke"),
        args.iter().position(|a| a == "--large"),
    ) {
        (Some(_), Some(_)) => {
            eprintln!("--smoke and --large are mutually exclusive");
            usage();
        }
        (Some(pos), None) => {
            args.remove(pos);
            Scale::Smoke
        }
        (None, Some(pos)) => {
            args.remove(pos);
            Scale::Large
        }
        (None, None) => Scale::Full,
    };
    let progress = take_switch(&mut args, "--progress");
    let jobs = match take_value_flag(&mut args, "--jobs") {
        Some(v) => match v.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--jobs needs a positive integer, got {v}");
                usage();
            }
        },
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let out_flag = take_value_flag(&mut args, "--out");
    let baseline_flag = take_value_flag(&mut args, "--baseline");
    let out = out_flag
        .clone()
        .unwrap_or_else(|| "sweep_results.jsonl".into());
    let geometries = take_value_flag(&mut args, "--geom").map_or_else(
        || match scale {
            // The large tier sweeps its first-class fabric geometries by
            // default; explicit --geom still overrides.
            Scale::Large => canon_sweep::scenario::large_geometries().to_vec(),
            Scale::Full | Scale::Smoke => vec![(8, 8)],
        },
        |raw| parse_geometries(&raw),
    );
    let resume = take_switch(&mut args, "--resume");
    let lockstep = !take_switch(&mut args, "--per-pe");
    let check = take_switch(&mut args, "--check");
    let fault_plan = take_value_flag(&mut args, "--faults")
        .map_or_else(FaultPlan::new, |raw| parse_faults(&raw));
    let parse_u64_flag = |args: &mut Vec<String>, flag: &str| -> Option<u64> {
        take_value_flag(args, flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} needs a non-negative integer, got {v}");
                usage();
            })
        })
    };
    let mut cell_wall_budget =
        parse_u64_flag(&mut args, "--cell-timeout-ms").map(Duration::from_millis);
    let cell_cycle_budget = parse_u64_flag(&mut args, "--cell-cycles");
    let max_retries =
        parse_u64_flag(&mut args, "--retries").map_or(2, |n| n.min(u32::MAX as u64) as u32);
    let socket =
        take_value_flag(&mut args, "--socket").unwrap_or_else(|| "canon-serve.sock".into());
    let queue_capacity = parse_u64_flag(&mut args, "--queue").map_or(64, |n| n.max(1) as usize);
    let connections = parse_u64_flag(&mut args, "--connections").map_or(4, |n| n.max(1) as usize);
    let workload_flag = take_value_flag(&mut args, "--workload");
    let band_flag = take_value_flag(&mut args, "--band");
    let arch_flag = take_value_flag(&mut args, "--arch");
    let seed_flag = parse_u64_flag(&mut args, "--seed");
    let fault_flag = take_value_flag(&mut args, "--fault");
    if cell_wall_budget.is_none()
        && fault_plan
            .iter()
            .any(|(_, a)| matches!(a, FaultAction::SlowCycle { .. }))
    {
        // A slow cell only quarantines as a timeout under a wall budget;
        // default one so `--faults timeout@N` works standalone. 100 ms is
        // well under a single injected 500 ms sleep, keeping the recorded
        // partial cycle count deterministic (see `parse_faults`).
        eprintln!("note: --faults injects a timeout without --cell-timeout-ms; defaulting to 100");
        cell_wall_budget = Some(Duration::from_millis(100));
    }
    // Every flag is consumed above and every target checked below before
    // anything runs: a stray flag or an unknown target must not exit 2
    // only after an earlier target already wrote its output.
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("unknown flag: {flag}");
        usage();
    }
    if args.is_empty() {
        usage();
    }
    // `bench` measures simulator throughput and writes the JSON report.
    if args[0] == "bench" {
        if args.len() != 1 {
            usage();
        }
        let path = out_flag.unwrap_or_else(|| "BENCH_sim.json".into());
        // Read the gate's baseline up front: a bad path fails before the
        // measurement, and the default baseline is read before the report
        // overwrites it.
        let baseline = check.then(|| {
            let p = baseline_flag.unwrap_or_else(|| "BENCH_sim.json".into());
            std::fs::read_to_string(&p).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {p}: {e}");
                std::process::exit(1);
            })
        });
        COUNTING.store(true, Ordering::Relaxed);
        let report = bench::run_bench(scale, Some(alloc_snapshot));
        print!("{}", bench::render_text(&report));
        std::fs::write(&path, bench::render_json(&report)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("bench report written to {path}");
        if let Some(baseline) = baseline {
            match bench::check_alloc_gate(&report) {
                Ok(()) => println!(
                    "allocation gate passed on both engines (<= {} allocs/cycle)",
                    bench::MAX_ALLOCS_PER_CYCLE
                ),
                Err(msg) => {
                    eprintln!("allocation gate FAILED: {msg}");
                    std::process::exit(1);
                }
            }
            match bench::check_throughput_gate(&report, &baseline) {
                Ok(g) => println!(
                    "throughput gate passed (kernels geomean {g:.3}x >= {}x of baseline)",
                    bench::MIN_KERNELS_GEOMEAN
                ),
                Err(msg) => {
                    eprintln!("throughput gate FAILED: {msg}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    // `trace` / `profile` capture the pinned golden SpMM scenario through
    // the cycle-trace layer and export it.
    if args[0] == "trace" || args[0] == "profile" {
        if args.len() != 1 {
            usage();
        }
        let mut fabric = bench::golden_trace_fabric();
        let sink = VecSink::default();
        fabric.set_trace_sink(Box::new(sink.clone()));
        let report = fabric.run().unwrap_or_else(|e| {
            eprintln!("golden trace scenario failed: {e}");
            std::process::exit(1);
        });
        fabric.take_trace_sink();
        let events = sink.take_events();
        if args[0] == "trace" {
            let path = out_flag.unwrap_or_else(|| "trace.json".into());
            let mut file =
                std::io::BufWriter::new(std::fs::File::create(&path).unwrap_or_else(|e| {
                    eprintln!("cannot create {path}: {e}");
                    std::process::exit(1);
                }));
            write_chrome_trace(&events, &mut file)
                .and_then(|()| std::io::Write::flush(&mut file))
                .unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                });
            println!(
                "wrote {} trace events ({} cycles, {} stall cycles, {} engine) to {path}",
                events.len(),
                report.cycles,
                report.stats.stall_cycles,
                format!("{:?}", report.engine).to_lowercase()
            );
            println!("open in Perfetto (ui.perfetto.dev) or chrome://tracing");
        } else {
            print!("{}", render_profile(&events));
        }
        return;
    }
    // `serve` hands the process to the resident daemon; the process exit
    // code is the daemon's drain code (0 protocol, 130 SIGINT, 143 SIGTERM).
    if args[0] == "serve" {
        if args.len() != 1 {
            usage();
        }
        let opts = ServeOptions {
            socket: socket.clone().into(),
            store: out.clone().into(),
            workers: jobs,
            queue_capacity,
            base_cfg: CanonConfig {
                lockstep,
                wall_budget_ns: cell_wall_budget.map(|d| d.as_nanos() as u64),
                max_cycles: cell_cycle_budget,
                ..CanonConfig::default()
            },
            max_retries,
            retry_backoff: Duration::from_millis(10),
            signal: Some(install_serve_signals()),
        };
        eprintln!(
            "serve: listening on {socket} over store {out} ({jobs} worker(s), queue {queue_capacity})"
        );
        match canon_serve::run_daemon(&opts) {
            Ok(code) => {
                eprintln!("serve: drained, exiting {code}");
                std::process::exit(code);
            }
            Err(e) => {
                eprintln!("serve failed: {e}");
                std::process::exit(1);
            }
        }
    }
    // `submit` is the daemon's client: the standard grid by default, or a
    // single cell when --workload is given.
    if args[0] == "submit" {
        if args.len() != 1 {
            usage();
        }
        let submits: Vec<SubmitRequest> = match &workload_flag {
            Some(workload) => {
                let mut req = SubmitRequest::new("cell-0", workload.as_str());
                req.scale = match scale {
                    Scale::Full | Scale::Large => 1,
                    Scale::Smoke => 4,
                };
                req.geometry = geometries[0];
                req.band = band_flag.as_deref().map(|label| {
                    canon_serve::protocol::band_from_label(label).unwrap_or_else(|| {
                        eprintln!("--band must be S1|S2|S3, got {label:?}");
                        usage();
                    })
                });
                if let Some(label) = &arch_flag {
                    req.arch = canon_serve::protocol::arch_from_label(label).unwrap_or_else(|| {
                        eprintln!("unknown --arch {label:?}");
                        usage();
                    });
                }
                req.seed = seed_flag;
                req.max_cycles = cell_cycle_budget;
                req.wall_budget_ns = cell_wall_budget.map(|d| d.as_nanos() as u64);
                req.fault = fault_flag.as_deref().map(|desc| {
                    FaultAction::from_descriptor(desc).unwrap_or_else(|| {
                        eprintln!(
                            "--fault must be a descriptor (panic@N, withhold-credits, \
                             slow:Nns, transient:N), got {desc:?}"
                        );
                        usage();
                    })
                });
                vec![req]
            }
            // Grid mode mirrors the batch sweep exactly — same expansion,
            // same per-index --faults semantics, same budgets — so a served
            // grid and a swept grid land on identical store keys.
            None => standard_grid(scale, &geometries)
                .scenarios
                .iter()
                .enumerate()
                .map(|(i, s)| SubmitRequest {
                    id: format!("cell-{i}"),
                    workload: s.workload.clone(),
                    band: s.band,
                    scale: s.scale,
                    geometry: s.geometry,
                    arch: s.arch,
                    seed: Some(s.seed),
                    max_cycles: cell_cycle_budget,
                    wall_budget_ns: cell_wall_budget.map(|d| d.as_nanos() as u64),
                    fault: fault_plan.action_for(i),
                })
                .collect(),
        };
        let outcome = canon_serve::submit_batch(Path::new(&socket), &submits, connections, 20)
            .unwrap_or_else(|e| {
                eprintln!("cannot reach daemon on {socket}: {e}");
                std::process::exit(1);
            });
        for reply in outcome.replies.iter().flatten() {
            println!("{}", reply.to_line());
        }
        eprintln!(
            "submit: {} cell(s): {} ok ({} cached, {} coalesced), {} unsupported, \
             {} quarantined, {} error(s), {} refused",
            submits.len(),
            outcome.ok,
            outcome.cached,
            outcome.coalesced,
            outcome.unsupported,
            outcome.failed,
            outcome.errors,
            outcome.refused,
        );
        let code = if outcome.errors > 0 || outcome.refused > 0 {
            1
        } else if outcome.failed > 0 {
            3
        } else {
            0
        };
        std::process::exit(code);
    }
    // `ctl` sends one control command to a running daemon.
    if args[0] == "ctl" {
        let request = match args.get(1).map(String::as_str) {
            Some("status") if args.len() == 2 => Request::Status,
            Some("drain") if args.len() == 2 => Request::Drain,
            Some("shutdown") if args.len() == 2 => Request::Shutdown,
            _ => usage(),
        };
        let mut client = Client::connect(&socket).unwrap_or_else(|e| {
            eprintln!("cannot reach daemon on {socket}: {e}");
            std::process::exit(1);
        });
        match client.request(&request) {
            Ok(reply) => println!("{}", reply.to_line()),
            Err(e) => {
                eprintln!("ctl failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    // `store <subcommand>` maintains the result store instead of producing
    // figure output.
    if args[0] == "store" {
        match args.get(1).map(String::as_str) {
            Some("gc") if args.len() == 2 => {
                let _lock = lock_store(&out);
                let mut store = open_store(&out);
                let stats = store.compact().unwrap_or_else(|e| {
                    eprintln!("store gc failed: {e}");
                    std::process::exit(1);
                });
                println!(
                    "store gc: kept {} records, dropped {} stale-salt, {} unreadable, \
                     recovered {} torn-tail byte(s) ({out})",
                    stats.kept,
                    stats.dropped_stale,
                    stats.dropped_unreadable,
                    stats.recovered_torn_bytes
                );
                return;
            }
            _ => usage(),
        }
    }
    const ALL: [&str; 13] = [
        "sweep",
        "table1",
        "fig9",
        "fig10",
        "fig11",
        "fig12+13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "ablation-async",
        "ablation-buffer-sizing",
        "ablation-lut",
    ];
    if let Some(other) = args
        .iter()
        .find(|t| !(ALL.contains(&t.as_str()) || matches!(t.as_str(), "all" | "fig12" | "fig13")))
    {
        eprintln!("unknown target: {other}");
        usage();
    }
    let targets: Vec<String> = if args.iter().any(|a| a == "all") {
        ALL.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    let run_opts = SweepRunOpts {
        resume,
        fault_plan,
        cell_wall_budget,
        cell_cycle_budget,
        max_retries,
        lockstep,
        shutdown: install_sigint_flag(),
    };
    let mut exit_code = 0;
    for t in targets {
        let text = match t.as_str() {
            "sweep" => run_standard_sweep(
                scale,
                jobs,
                &out,
                &geometries,
                progress,
                &run_opts,
                &mut exit_code,
            ),
            "table1" => figures::table1(),
            "fig9" => figures::fig09(),
            "fig10" => figures::fig10(),
            "fig11" => figures::fig11(scale),
            "fig12" => figures::fig12(scale),
            "fig13" => figures::fig13(scale),
            "fig12+13" => figures::fig1213(scale),
            "fig14" => figures::fig14(scale),
            "fig15" => figures::fig15(scale),
            "fig16" => figures::fig16(),
            "fig17" => figures::fig17(scale),
            "ablation-async" => ablations::ablation_async(scale),
            "ablation-buffer-sizing" => ablations::ablation_buffer_sizing(scale),
            "ablation-lut" => ablations::ablation_lut(scale),
            other => unreachable!("target {other} was validated above"),
        };
        println!("{text}");
        if exit_code == 130 {
            // SIGINT: the sweep drained and flushed; skip remaining targets
            // so the shell gets the interrupt status promptly.
            break;
        }
    }
    if exit_code != 0 {
        std::process::exit(exit_code);
    }
}
