//! `sweep-64x64`: a cold `run_sweep` of the 70-scenario standard grid at
//! 64×64, `jobs = 2`, journaling to a file-backed result store.
//!
//! Set-up is the grid build plus the store open; the timed phase is the
//! `run_sweep` call. Each repetition sweeps the same grid into a fresh
//! store. The traced run drives the same cells itself on two threads with
//! warm fabric pools, one span per layer call, and checks every record
//! against the untraced run's and every Canon kernel output against the
//! reference.

use crate::cell::{expected_unsupported, run_cell, CoreTally, TraceCtx};
use crate::layers::{self, LayerInput};
use crate::stats::{geomean, median};
use crate::trace::{write_jsonl, Phase, Tracer};
use crate::{derive, peak_rss_mb, trace_path, Args, Metric, Outcome};
use canon_core::CanonConfig;
use canon_sweep::backend::OperandCache;
use canon_sweep::scenario::{standard_workloads, GridBuilder};
use canon_sweep::store::{cell_key, cfg_fingerprint, RecordStatus};
use canon_sweep::{run_sweep, ResultStore, ScenarioGrid, StoredRecord, SweepOptions};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

const GEOMETRY: (usize, usize) = (64, 64);
const JOBS: usize = 2;
/// Set-ups measured before the timed phase (each repetition adds one).
const SETUP_SAMPLES: usize = 201;
const MIN_REPS: usize = 3;
/// Cells of the standard grid the tensor-only architectures refuse.
const EXPECTED_UNSUPPORTED: usize = 9;

fn build_grid(seed: u64) -> ScenarioGrid {
    let mut b = GridBuilder::new()
        .seed(derive(seed, "sweep-grid"))
        .geometries(&[GEOMETRY])
        .scales(&[1]);
    for w in standard_workloads() {
        b = b.workload(&w.name, w.template);
    }
    b.build()
}

/// Grid build plus store open in a fresh directory; returns the set-up
/// time in seconds (the directory itself is the benchmark's, not timed).
fn setup(seed: u64, dir: &Path) -> (ScenarioGrid, ResultStore, f64) {
    std::fs::create_dir_all(dir).expect("create store dir");
    let path = dir.join("results.jsonl");
    let t = Instant::now();
    let grid = build_grid(seed);
    let store = ResultStore::open(path).expect("open store");
    (grid, store, t.elapsed().as_secs_f64())
}

/// Per-record checks: the 9 `X` cells are unsupported, every other cell is
/// ok with its op's useful MACs. Returns the failing record count.
fn check_records(grid: &ScenarioGrid, records: &[StoredRecord]) -> u64 {
    if records.len() != grid.scenarios.len() {
        return grid.scenarios.len() as u64;
    }
    records
        .iter()
        .zip(&grid.scenarios)
        .filter(|(r, s)| {
            let ok = if expected_unsupported(&s.op, s.arch) {
                r.status == RecordStatus::Unsupported
            } else {
                r.status == RecordStatus::Ok && r.useful_macs == s.op.useful_macs()
            };
            !ok
        })
        .count() as u64
}

/// Geomean of Canon cycles over the grid's Canon tensor cells.
fn canon_cycles_geomean(grid: &ScenarioGrid, records: &[StoredRecord]) -> f64 {
    let cycles: Vec<f64> = records
        .iter()
        .zip(&grid.scenarios)
        .filter(|(r, s)| {
            s.arch == canon_energy::Arch::Canon
                && matches!(s.op, canon_workloads::Workload::Tensor(_))
                && r.status == RecordStatus::Ok
        })
        .map(|(r, _)| r.cycles as f64)
        .collect();
    geomean(&cycles).unwrap_or(0.0)
}

/// Untraced repetitions until `budget` has passed (at least `min_reps`).
struct Untraced {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    grid: ScenarioGrid,
    first: Vec<StoredRecord>,
    attempted: u64,
    failed: u64,
    checks_ok: bool,
}

fn untraced(seed: u64, dir: &Path, budget: Duration, min_reps: usize) -> Untraced {
    // Stores that are opened but never written create no file, so these
    // set-ups can share one directory.
    let d = dir.join("setup");
    let mut setup_s: Vec<f64> = (0..SETUP_SAMPLES).map(|_| setup(seed, &d).2).collect();
    let opts = SweepOptions {
        jobs: JOBS,
        ..Default::default()
    };
    let start = Instant::now();
    let mut wall_s = Vec::new();
    let mut first: Option<(ScenarioGrid, Vec<StoredRecord>)> = None;
    let (mut attempted, mut failed, mut checks_ok) = (0, 0, true);
    while wall_s.len() < min_reps || start.elapsed() < budget {
        let d = dir.join(format!("rep-{}", wall_s.len()));
        let (grid, mut store, secs) = setup(seed, &d);
        setup_s.push(secs);
        let t = Instant::now();
        let out = run_sweep(&grid, &mut store, &opts).expect("sweep journal I/O");
        wall_s.push(t.elapsed().as_secs_f64());
        drop(store);
        let _ = std::fs::remove_dir_all(&d);

        let s = out.stats;
        checks_ok &= s.errors == 0
            && s.failed == 0
            && s.unsupported == EXPECTED_UNSUPPORTED
            && !s.interrupted;
        let cells = grid.scenarios.len() as u64;
        attempted += cells;
        let mut bad = check_records(&grid, &out.records);
        match &first {
            // Simulated results must repeat exactly across repetitions.
            Some((_, recs)) => {
                bad += out.records.iter().zip(recs).filter(|(a, b)| a != b).count() as u64
            }
            None => first = Some((grid, out.records)),
        }
        failed += bad.min(cells);
    }
    let (grid, first) = first.expect("at least one repetition");
    Untraced {
        setup_s,
        wall_s,
        grid,
        first,
        attempted,
        failed,
        checks_ok,
    }
}

pub fn run(args: &Args, dir: &Path) -> Outcome {
    if !args.trace {
        let u = untraced(args.seed, dir, args.seconds, MIN_REPS);
        let wall = median(&u.wall_s).unwrap();
        let metrics: Vec<Metric> = vec![
            ("setup_s", median(&u.setup_s).unwrap(), "s"),
            ("wall_s", wall, "s"),
            ("ops_per_s", u.grid.scenarios.len() as f64 / wall, "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            (
                "canon_cycles_geomean",
                canon_cycles_geomean(&u.grid, &u.first),
                "cycles",
            ),
        ];
        eprintln!(
            "sweep-64x64: {} repetitions, wall_s {:?}",
            u.wall_s.len(),
            u.wall_s
        );
        return Outcome {
            attempted: u.attempted,
            failed: u.failed,
            checks_ok: u.checks_ok,
            metrics,
        };
    }
    traced(args, dir)
}

/// One traced repetition's results.
struct Pass {
    wall_s: f64,
    records: Vec<StoredRecord>,
    outputs_bad: u64,
    pool_hits: u64,
    pool_misses: u64,
}

fn traced_pass(
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
    tally: &Mutex<CoreTally>,
    cache: &OperandCache,
) -> Pass {
    let main_thread = JOBS;
    let open = tracer.open("setup", None, 0, main_thread, Phase::Setup);
    let (grid, mut store, _) = setup(seed, dir);
    tracer.close(open);

    let cfg = CanonConfig::default();
    let t = Instant::now();
    let n = grid.scenarios.len();
    // The engine's contiguous deal with stealing from the back.
    let order: Vec<usize> = (0..n).collect();
    let queues: Vec<Mutex<VecDeque<usize>>> = order
        .chunks(n.div_ceil(JOBS))
        .map(|c| Mutex::new(c.iter().copied().collect()))
        .collect();
    let pool_counts = Mutex::new((0u64, 0u64));
    let mut slots: Vec<Option<StoredRecord>> = vec![None; n];
    let mut outputs_bad = 0;
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for w in 0..queues.len() {
            let (queues, grid, cfg, tx, pool_counts) =
                (&queues, &grid, &cfg, tx.clone(), &pool_counts);
            scope.spawn(move || {
                let _pool = canon_core::pool::install(2);
                let ctx = TraceCtx {
                    tracer,
                    tally,
                    thread: w,
                    phase: Phase::Run,
                };
                loop {
                    let own = queues[w].lock().unwrap().pop_front();
                    let task = own.or_else(|| {
                        (1..queues.len())
                            .find_map(|d| queues[(w + d) % queues.len()].lock().unwrap().pop_back())
                    });
                    let Some(idx) = task else { break };
                    let s = &grid.scenarios[idx];
                    let key = cell_key(s, &cfg_fingerprint(cfg));
                    let out = run_cell(&ctx, "sweep.cell", s, key, cfg, cache, idx as u64);
                    tx.send((idx, out)).expect("journal thread alive");
                }
                if let Some(p) = canon_core::pool::stats() {
                    let mut c = pool_counts.lock().unwrap();
                    c.0 += p.hits;
                    c.1 += p.misses;
                }
            });
        }
        drop(tx);
        for (idx, out) in rx {
            let rec = out.record;
            let open = tracer.open("store.encode", None, idx as u64, main_thread, Phase::Run);
            std::hint::black_box(rec.to_line());
            tracer.close(open);
            let open = tracer.open("store.append", None, idx as u64, main_thread, Phase::Run);
            store.append(&rec).expect("journal append");
            tracer.close(open);
            if out.output_ok == Some(false) {
                outputs_bad += 1;
            }
            slots[idx] = Some(rec);
        }
    });
    let records: Vec<StoredRecord> = slots
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect();
    let open = tracer.open("store.rewrite", None, 0, main_thread, Phase::Run);
    store.write_ordered(&records).expect("store rewrite");
    tracer.close(open);
    let wall_s = t.elapsed().as_secs_f64();
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    let (pool_hits, pool_misses) = pool_counts.into_inner().unwrap();
    Pass {
        wall_s,
        records,
        outputs_bad,
        pool_hits,
        pool_misses,
    }
}

fn traced(args: &Args, dir: &Path) -> Outcome {
    let half = args.seconds / 2;
    let u = untraced(args.seed, dir, half, 2);
    let untraced_wall = median(&u.wall_s).unwrap();

    let tracer = Tracer::new();
    let tally = Mutex::new(CoreTally::default());
    let (mut attempted, mut failed) = (u.attempted, u.failed);
    let mut walls = Vec::new();
    let (mut probes, mut hits, mut pool_hits, mut pool_misses) = (0, 0, 0, 0);
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < half {
        let cache = OperandCache::with_capacity(16.max(2 * JOBS));
        let d: PathBuf = dir.join(format!("traced-{}", walls.len()));
        let p = traced_pass(args.seed, &d, &tracer, &tally, &cache);
        walls.push(p.wall_s);
        probes += cache.hit_count() + cache.miss_count();
        hits += cache.hit_count();
        pool_hits += p.pool_hits;
        pool_misses += p.pool_misses;
        attempted += p.records.len() as u64;
        // The decomposed calls must rebuild the engine's records exactly.
        let mismatched = p
            .records
            .iter()
            .zip(&u.first)
            .filter(|(a, b)| a != b)
            .count() as u64;
        failed += (check_records(&u.grid, &p.records) + mismatched + p.outputs_bad)
            .min(p.records.len() as u64);
    }
    let spans = tracer.into_spans();
    let selfs = crate::trace::self_times(&spans);
    let accounted = [
        "sweep.cell",
        "operands",
        "kernels",
        "core.run",
        "models",
        "store.encode",
        "store.append",
        "store.rewrite",
    ]
    .iter()
    .map(|&name| {
        (
            name,
            crate::trace::layer_self_s(&spans, &selfs, name, Phase::Run),
        )
    })
    .collect();
    let tally = tally.into_inner().unwrap();
    let metrics = layers::report(&LayerInput {
        spans: &spans,
        tally: &tally,
        passes: walls.len(),
        threads: JOBS,
        untraced_wall_s: untraced_wall,
        traced_wall_s: median(&walls).unwrap(),
        op_span: "sweep.cell",
        operand_probes: probes,
        operand_hits: hits,
        pool_hits,
        pool_misses,
        serve: Default::default(),
        accounted,
    });
    let longest = spans
        .iter()
        .filter(|s| s.name == "sweep.cell")
        .max_by_key(|s| s.duration())
        .map(|s| &u.grid.scenarios[s.op as usize]);
    if let Some(s) = longest {
        eprintln!(
            "  sweep.cell_s_max cell: {} on {}",
            s.cell_label(),
            s.arch.label()
        );
    }
    if let Err(e) = write_jsonl(&spans, &trace_path(&args.workload, args.seed)) {
        eprintln!("cannot write spans: {e}");
    }
    Outcome {
        attempted,
        failed,
        checks_ok: u.checks_ok,
        metrics,
    }
}
