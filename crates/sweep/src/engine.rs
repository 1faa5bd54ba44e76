//! The parallel sweep driver.
//!
//! [`run_sweep`] fans a [`ScenarioGrid`] out over a pool of `std` scoped
//! threads that take cells from one shared cursor, longest first: Canon
//! tensor cells by descending `useful_macs`, then every other cell in grid
//! order. The most expensive simulation starts at once instead of landing
//! last on one worker, and the cheap cells (baseline models, unsupported
//! architectures, loop nests) fill the other workers' tails.
//!
//! Results are written back by *scenario index*, so the record order — and
//! therefore the JSONL file the store rewrites — is byte-identical whatever
//! the thread count or completion order. Cells whose content key is already
//! in the [`ResultStore`] are never executed; the cache-hit count is
//! reported in [`SweepStats`].
//!
//! Workers share one [`OperandCache`], so the five backends of a cell (and
//! the cell's other geometry points) materialize their identical operand
//! streams once per `(op, seed)` instead of once per backend — operand
//! values are deterministic in the seed, so caching cannot change any
//! record or the byte-identical-store guarantee.
//!
//! # Fault tolerance
//!
//! Each cell executes inside `catch_unwind`, so a panicking backend becomes
//! a structured [`CellFailure::Panic`] record instead of tearing down the
//! pool; watchdog deadlocks and budget timeouts ([`SweepOptions`] threads
//! per-cell wall-clock/cycle budgets into the fabric) are likewise
//! quarantined as [`CellFailure::Deadlock`]/[`CellFailure::Timeout`], and
//! transient failures are retried with exponential backoff up to
//! [`SweepOptions::max_retries`] times. Every freshly computed record is
//! journaled to the store with an fsync'd append the moment a worker
//! completes it, so a crash or SIGKILL loses at most the in-flight cells
//! and a re-run resumes from the journal; on clean completion the file is
//! atomically rewritten in canonical grid order, which is why interrupted
//! and uninterrupted runs converge to byte-identical stores. A cooperative
//! [`SweepOptions::shutdown`] flag (the `repro` binary wires SIGINT to it)
//! stops workers from taking new cells while in-flight cells drain and are
//! journaled.

use crate::backend::{backend_for, BackendError, OperandCache};
use crate::scenario::{Scenario, ScenarioGrid};
use crate::store::{
    cell_key, cfg_fingerprint, CellFailure, RecordStatus, ResultStore, StoredRecord, CODE_SALT,
};
use canon_core::fault::{FaultAction, FaultPlan};
use canon_core::{CanonConfig, SimError};
use canon_energy::Arch;
use canon_workloads::Workload;
use std::cmp::Reverse;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Sweep execution options.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker-thread count (clamped to at least 1).
    pub jobs: usize,
    /// Base Canon configuration; per-scenario geometry overrides rows/cols.
    pub base_cfg: CanonConfig,
    /// Emit a live progress line on stderr while the sweep executes
    /// (cells done/total, cells/sec, operand-cache and result-store hit
    /// rates). Off by default: library consumers and tests stay silent.
    pub progress: bool,
    /// Wall-clock budget per cell: a Canon simulation still running after
    /// this long aborts with a [`CellFailure::Timeout`] record carrying its
    /// partial stats. `None` (default) leaves cells unbounded. Cells swept
    /// under a budget carry it in their cache key — a raised budget can
    /// change an outcome, so budgeted and unbudgeted runs never share
    /// records.
    pub cell_wall_budget: Option<Duration>,
    /// Simulated-cycle ceiling per cell, independent of host speed (and
    /// therefore deterministic); also recorded as [`CellFailure::Timeout`].
    pub cell_cycle_budget: Option<u64>,
    /// Retry budget for failures classified transient
    /// ([`CellFailure::is_transient`]). Deterministic failures — panic,
    /// deadlock, timeout, mapping error — are never retried.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub retry_backoff: Duration,
    /// Deterministic fault injection, keyed by scenario index (see
    /// [`canon_core::fault`]). Faulted cells get their own cache keys, so
    /// an injection run never pollutes the store healthy sweeps read.
    pub fault_plan: FaultPlan,
    /// Cooperative shutdown: when the flag turns true, workers stop taking
    /// new cells, in-flight cells finish and are journaled, and the sweep
    /// returns early with [`SweepStats::interrupted`] set (skipping the
    /// canonical rewrite so the journal keeps everything already paid for).
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            base_cfg: CanonConfig::default(),
            progress: false,
            cell_wall_budget: None,
            cell_cycle_budget: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
            fault_plan: FaultPlan::new(),
            shutdown: None,
        }
    }
}

impl SweepOptions {
    /// True when any option alters cell configurations relative to
    /// `base_cfg` alone (budgets apply to every cell, faults per cell).
    pub fn budgets_set(&self) -> bool {
        self.cell_wall_budget.is_some() || self.cell_cycle_budget.is_some()
    }

    /// The effective Canon configuration of cell `idx`: base config plus
    /// the per-cell budgets and any injected fault.
    pub fn cell_cfg(&self, idx: usize) -> CanonConfig {
        let mut cfg = self.base_cfg.clone();
        if let Some(d) = self.cell_wall_budget {
            cfg.wall_budget_ns = Some(d.as_nanos() as u64);
        }
        if let Some(c) = self.cell_cycle_budget {
            cfg.max_cycles = Some(c);
        }
        cfg.fault = self.fault_plan.action_for(idx);
        cfg
    }
}

/// Counters of one sweep invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepStats {
    /// Grid cells in total.
    pub total: usize,
    /// Cells actually executed on a backend this run.
    pub executed: usize,
    /// Cells satisfied from the result store.
    pub cache_hits: usize,
    /// Cells whose architecture cannot run the workload.
    pub unsupported: usize,
    /// Cells rejected by a simulator (mapping violation, protocol error).
    pub errors: usize,
    /// Cells quarantined by the fault-tolerance layer (panic, deadlock,
    /// timeout, exhausted transient retries) — counted over the final
    /// records, so cached failures from earlier runs count too.
    pub failed: usize,
    /// Retry attempts consumed by transient failures this run.
    pub retries: u64,
    /// True when a shutdown request stopped the sweep before every cell
    /// resolved; [`SweepOutcome::records`] then holds only completed cells.
    pub interrupted: bool,
    /// Simulated cycles summed over the cells *executed* this run (cache
    /// hits contribute nothing — no simulation happened for them).
    pub sim_cycles: u64,
    /// Host wall-clock seconds spent in the parallel execution phase.
    pub wall_secs: f64,
}

/// Equality covers the architectural outcome and deliberately ignores
/// `wall_secs`, which varies run to run on the host (the same convention as
/// `RunReport`), plus `retries` and `interrupted`, which describe how this
/// particular run got there (a warm run retries nothing yet must compare
/// equal to the cold run that populated it).
impl PartialEq for SweepStats {
    fn eq(&self, other: &SweepStats) -> bool {
        self.total == other.total
            && self.executed == other.executed
            && self.cache_hits == other.cache_hits
            && self.unsupported == other.unsupported
            && self.errors == other.errors
            && self.failed == other.failed
            && self.sim_cycles == other.sim_cycles
    }
}

impl SweepStats {
    /// Aggregate simulator throughput of this run: simulated cycles per host
    /// wall-clock second across all workers. Zero for fully-cached runs.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.sim_cycles as f64 / self.wall_secs
    }
}

/// A completed sweep: records in scenario order plus counters.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One record per grid cell, in grid order. An interrupted sweep
    /// ([`SweepStats::interrupted`]) holds only the cells that resolved
    /// before the drain.
    pub records: Vec<StoredRecord>,
    /// Execution counters.
    pub stats: SweepStats,
}

/// One execution attempt of a cell, fully isolated: a backend panic is
/// caught and every simulator error is folded into a record status.
fn attempt_cell(
    scenario: &Scenario,
    cfg: &CanonConfig,
    attempt: u32,
    cache: &OperandCache,
) -> (
    RecordStatus,
    u64,
    f64,
    u64,
    f64,
    Option<canon_core::StallBreakdown>,
) {
    if let Some(FaultAction::Transient { failures }) = cfg.fault {
        if attempt < failures {
            let detail = format!(
                "injected transient fault (attempt {} of {} failing)",
                attempt + 1,
                failures
            );
            return (
                RecordStatus::Failed(CellFailure::Transient { detail }),
                0,
                0.0,
                0,
                0.0,
                None,
            );
        }
    }
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let backend = backend_for(scenario.arch, scenario.geometry, cfg);
        if !backend.supports(&scenario.op) {
            return Ok(None);
        }
        backend
            .run_cached(&scenario.op, scenario.seed, cache)
            .map(Some)
    }));
    match run {
        Ok(Ok(Some(r))) => (
            RecordStatus::Ok,
            r.cycles,
            r.energy_pj,
            r.useful_macs,
            r.utilization,
            r.stalls,
        ),
        Ok(Ok(None)) | Ok(Err(BackendError::Unsupported)) => {
            (RecordStatus::Unsupported, 0, 0.0, 0, 0.0, None)
        }
        Ok(Err(BackendError::Sim(SimError::Deadlock { cycle, waiting_on }))) => (
            RecordStatus::Failed(CellFailure::Deadlock { detail: waiting_on }),
            cycle,
            0.0,
            0,
            0.0,
            None,
        ),
        Ok(Err(BackendError::Sim(SimError::Timeout { cycle, budget }))) => (
            RecordStatus::Failed(CellFailure::Timeout { detail: budget }),
            cycle,
            0.0,
            0,
            0.0,
            None,
        ),
        Ok(Err(BackendError::Sim(e))) => (RecordStatus::Error(e.to_string()), 0, 0.0, 0, 0.0, None),
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            (
                RecordStatus::Failed(CellFailure::Panic { message }),
                0,
                0.0,
                0,
                0.0,
                None,
            )
        }
    }
}

/// Executes one cell to a final record, retrying transient failures with
/// exponential backoff. Returns the record and the retries consumed.
///
/// This is the sweep engine's whole per-cell fault-isolation stack —
/// `catch_unwind` around the backend, deadlock/timeout mapping into
/// structured [`CellFailure`] records, transient retry — packaged for
/// reuse: `run_sweep` calls it per grid cell, and the serving daemon
/// (`canon-serve`) calls it per request so protocol replies carry exactly
/// the taxonomy batch sweeps journal. Only [`SweepOptions::max_retries`]
/// and [`SweepOptions::retry_backoff`] are consulted from `opts`; `cfg`
/// must already be the cell's effective configuration (see
/// [`SweepOptions::cell_cfg`]) for `key` to be honest.
pub fn execute_cell(
    scenario: &Scenario,
    key: String,
    cfg: &CanonConfig,
    opts: &SweepOptions,
    cache: &OperandCache,
) -> (StoredRecord, u64) {
    let mut attempt: u32 = 0;
    let (status, cycles, energy_pj, useful_macs, utilization, stalls) = loop {
        let outcome = attempt_cell(scenario, cfg, attempt, cache);
        let transient = matches!(&outcome.0, RecordStatus::Failed(f) if f.is_transient());
        if transient && attempt < opts.max_retries {
            std::thread::sleep(opts.retry_backoff.saturating_mul(1 << attempt.min(16)));
            attempt += 1;
            continue;
        }
        break outcome;
    };
    let rec = StoredRecord {
        key,
        salt: CODE_SALT.to_string(),
        workload: scenario.workload.clone(),
        arch: scenario.arch.label().to_string(),
        band: scenario.band.map(|b| b.to_string()),
        rows: scenario.geometry.0,
        cols: scenario.geometry.1,
        scale: scenario.scale,
        seed: scenario.seed,
        op: scenario.op_descriptor(),
        status,
        cycles,
        energy_pj,
        useful_macs,
        utilization,
        stalls,
    };
    (rec, attempt as u64)
}

/// The dispatch order of the scenario indices `cells`: Canon tensor cells
/// by descending `useful_macs` (the estimate of their simulation cost),
/// then every other cell. The sort is stable, so ties and the tail keep
/// grid order.
fn longest_first(grid: &ScenarioGrid, mut cells: Vec<usize>) -> Vec<usize> {
    cells.sort_by_key(|&i| {
        let s = &grid.scenarios[i];
        match (&s.arch, &s.op) {
            (Arch::Canon, Workload::Tensor(op)) => (false, Reverse(op.useful_macs())),
            _ => (true, Reverse(0)),
        }
    });
    cells
}

/// Runs the grid, consulting, journaling into, and finally rewriting
/// `store`.
///
/// Execution is skipped for every cell already present in the store under
/// its content key. Freshly computed records are fsync-appended to the
/// store's backing file as they complete (crash-safe journal); on clean
/// completion the file is atomically rewritten to hold the complete sweep
/// in grid order, so interrupted-then-resumed and uninterrupted runs
/// converge to byte-identical stores.
///
/// # Errors
///
/// Propagates store I/O errors. Per-cell simulator failures — including
/// panics, watchdog deadlocks, and budget timeouts — never abort the
/// sweep; they are quarantined as structured failure records and counted
/// in [`SweepStats::failed`] / [`SweepStats::errors`].
pub fn run_sweep(
    grid: &ScenarioGrid,
    store: &mut ResultStore,
    opts: &SweepOptions,
) -> io::Result<SweepOutcome> {
    let base_fingerprint = cfg_fingerprint(&opts.base_cfg);
    let keys: Vec<String> = grid
        .scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if opts.budgets_set() || opts.fault_plan.action_for(i).is_some() {
                cell_key(s, &cfg_fingerprint(&opts.cell_cfg(i)))
            } else {
                cell_key(s, &base_fingerprint)
            }
        })
        .collect();

    let mut slots: Vec<Option<StoredRecord>> = grid
        .scenarios
        .iter()
        .zip(&keys)
        .map(|(_, key)| store.lookup(key).cloned())
        .collect();
    let misses: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect();
    let cache_hits = slots.len() - misses.len();

    let jobs = opts.jobs.clamp(1, misses.len().max(1));
    let order = longest_first(grid, misses);
    let cursor = AtomicUsize::new(0);
    let executed = AtomicUsize::new(0);
    let retries_total = std::sync::atomic::AtomicU64::new(0);
    // Stop-taking-new-cells flag: set by the caller's shutdown handle
    // (SIGINT) or internally when journaling hits an I/O error.
    let stop = AtomicBool::new(false);
    let stop_requested = || {
        stop.load(Ordering::Relaxed)
            || opts
                .shutdown
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
    };
    // One operand cache for the whole sweep: the architectures of a cell
    // (and the same cell at other geometries) share materialized inputs.
    // The Canon cells run first, so the baselines re-use their operands
    // only if the FIFO holds every (op, seed) of the grid: one geometry of
    // the standard grid has 14, and the capacity grows with the worker
    // count for the keys in flight.
    let cache = OperandCache::with_capacity(16.max(2 * jobs));

    let wall_start = std::time::Instant::now();
    let finished = AtomicBool::new(false);
    // Workers stream completed cells to this thread, which journals each
    // one (fsync'd append) before parking it in its slot — the store is
    // never touched from more than one thread, and a kill at any instant
    // loses only cells whose append had not yet returned.
    let (tx, rx) = mpsc::channel::<(usize, StoredRecord)>();
    let mut journal_error: Option<io::Error> = None;
    let mut sim_cycles: u64 = 0;
    std::thread::scope(|scope| {
        if opts.progress && !order.is_empty() {
            // Progress monitor: one line on stderr, rewritten in place, with
            // the throughput numbers a long sweep is usually watched for.
            let executed = &executed;
            let finished = &finished;
            let cache = &cache;
            let total = order.len();
            scope.spawn(move || loop {
                let done = executed.load(Ordering::Relaxed);
                let secs = wall_start.elapsed().as_secs_f64();
                let (h, m) = (cache.hit_count(), cache.miss_count());
                let operand_rate = if h + m > 0 {
                    100.0 * h as f64 / (h + m) as f64
                } else {
                    0.0
                };
                let store_rate = if cache_hits + total > 0 {
                    100.0 * cache_hits as f64 / (cache_hits + total) as f64
                } else {
                    0.0
                };
                eprint!(
                    "\rsweep: {done}/{total} cells  {:.1} cells/sec  \
                         operand-cache {operand_rate:.0}%  store {store_rate:.0}%   ",
                    done as f64 / secs.max(1e-9),
                );
                if finished.load(Ordering::Relaxed) {
                    eprintln!();
                    break;
                }
                std::thread::sleep(Duration::from_millis(200));
            });
        }
        for _ in 0..jobs {
            let (order, cursor) = (&order, &cursor);
            let keys = &keys;
            let executed = &executed;
            let retries_total = &retries_total;
            let cache = &cache;
            let stop_requested = &stop_requested;
            let tx = tx.clone();
            scope.spawn(move || {
                // Warm fabric reuse across this worker's cells: kernel
                // mappers acquire fabrics from the thread's pool, so
                // consecutive cells (and tiles within one cell) reset
                // slabs in place instead of reallocating them. Capacity 2
                // covers the two north-edge kinds at one geometry.
                let _pool = canon_core::pool::install(2);
                loop {
                    if stop_requested() {
                        break;
                    }
                    let Some(&idx) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let scenario = &grid.scenarios[idx];
                    let cfg = opts.cell_cfg(idx);
                    let (rec, retries) =
                        execute_cell(scenario, keys[idx].clone(), &cfg, opts, cache);
                    retries_total.fetch_add(retries, Ordering::Relaxed);
                    executed.fetch_add(1, Ordering::Relaxed);
                    if tx.send((idx, rec)).is_err() {
                        break; // journal thread gone (I/O error drain)
                    }
                }
            });
        }
        drop(tx); // workers hold the remaining senders
        for (idx, rec) in rx {
            if journal_error.is_none() {
                if let Err(e) = store.append(&rec) {
                    // Stop issuing new cells; keep draining so workers exit.
                    journal_error = Some(e);
                    stop.store(true, Ordering::Relaxed);
                }
            }
            sim_cycles += rec.cycles;
            slots[idx] = Some(rec);
        }
        finished.store(true, Ordering::Relaxed);
    });
    if let Some(e) = journal_error {
        return Err(e);
    }
    let wall_secs = wall_start.elapsed().as_secs_f64();
    let interrupted = slots.iter().any(|s| s.is_none());

    let records: Vec<StoredRecord> = slots.into_iter().flatten().collect();
    if !interrupted {
        // The file holds this grid in scenario order, then every other
        // cached cell (other grids/scales/configurations) in key order —
        // rewriting for one grid must not evict the rest of the cache. An
        // interrupted sweep skips this: the fsync'd journal already holds
        // everything computed, and the next `--resume` run converges to
        // this same canonical layout.
        let current: std::collections::HashSet<&str> =
            records.iter().map(|r| r.key.as_str()).collect();
        let mut extras: Vec<StoredRecord> = store
            .records()
            .filter(|r| !current.contains(r.key.as_str()))
            .cloned()
            .collect();
        extras.sort_by(|a, b| a.key.cmp(&b.key));
        let mut file_records = records.clone();
        file_records.extend(extras);
        store.write_ordered(&file_records)?;
    }

    let stats = SweepStats {
        total: grid.scenarios.len(),
        executed: executed.load(Ordering::Relaxed),
        cache_hits,
        unsupported: records
            .iter()
            .filter(|r| r.status == RecordStatus::Unsupported)
            .count(),
        errors: records
            .iter()
            .filter(|r| matches!(r.status, RecordStatus::Error(_)))
            .count(),
        failed: records
            .iter()
            .filter(|r| matches!(r.status, RecordStatus::Failed(_)))
            .count(),
        retries: retries_total.load(Ordering::Relaxed),
        interrupted,
        sim_cycles,
        wall_secs,
    };
    Ok(SweepOutcome { records, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{GridBuilder, OpTemplate};

    fn tiny_grid() -> ScenarioGrid {
        GridBuilder::new()
            .workload(
                "GEMM",
                OpTemplate::Gemm {
                    m: 32,
                    k: 32,
                    n: 32,
                },
            )
            .workload(
                "SpMM",
                OpTemplate::Spmm {
                    m: 32,
                    k: 32,
                    n: 32,
                },
            )
            .bands(&[canon_sparse::gen::SparsityBand::S3])
            .build()
    }

    #[test]
    fn sweep_completes_and_orders_records() {
        let grid = tiny_grid();
        let mut store = ResultStore::in_memory();
        let out = run_sweep(
            &grid,
            &mut store,
            &SweepOptions {
                jobs: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.records.len(), grid.scenarios.len());
        assert_eq!(out.stats.executed, grid.scenarios.len());
        assert_eq!(out.stats.cache_hits, 0);
        assert_eq!(out.stats.failed, 0);
        assert!(!out.stats.interrupted);
        for (rec, scenario) in out.records.iter().zip(&grid.scenarios) {
            assert_eq!(rec.workload, scenario.workload);
            assert_eq!(rec.arch, scenario.arch.label());
            assert_eq!(
                rec.status,
                RecordStatus::Ok,
                "{}/{}",
                rec.workload,
                rec.arch
            );
        }
    }

    #[test]
    fn warm_store_skips_every_execution() {
        let grid = tiny_grid();
        let mut store = ResultStore::in_memory();
        let first = run_sweep(
            &grid,
            &mut store,
            &SweepOptions {
                jobs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let second = run_sweep(
            &grid,
            &mut store,
            &SweepOptions {
                jobs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(second.stats.executed, 0);
        assert_eq!(second.stats.cache_hits, grid.scenarios.len());
        assert_eq!(second.records, first.records);
    }

    #[test]
    fn dispatch_is_longest_canon_cell_first() {
        let grid = tiny_grid();
        let order = longest_first(&grid, (0..grid.scenarios.len()).collect());
        let canon: Vec<usize> = order
            .iter()
            .copied()
            .take_while(|&i| grid.scenarios[i].arch == canon_energy::Arch::Canon)
            .collect();
        // GEMM (32·32·32 MACs) before the sparse SpMM cell.
        assert_eq!(canon.len(), 2);
        let macs = |i: usize| grid.scenarios[i].op.useful_macs();
        assert!(macs(canon[0]) > macs(canon[1]));
        // The other architectures follow in grid order.
        let rest = &order[canon.len()..];
        assert!(rest.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(rest.len(), grid.scenarios.len() - 2);
    }

    #[test]
    fn jobs_do_not_change_results() {
        let grid = tiny_grid();
        let run = |jobs| {
            let mut store = ResultStore::in_memory();
            run_sweep(
                &grid,
                &mut store,
                &SweepOptions {
                    jobs,
                    ..Default::default()
                },
            )
            .unwrap()
            .records
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn rewriting_for_one_grid_preserves_other_grids_cache() {
        let grid_a = tiny_grid();
        let grid_b = GridBuilder::new()
            .workload(
                "Win",
                OpTemplate::Window {
                    seq: 64,
                    window_div: 8,
                    head_dim: 32,
                },
            )
            .build();
        let path = std::env::temp_dir().join(format!(
            "canon-sweep-crossgrid-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let opts = SweepOptions {
            jobs: 2,
            ..Default::default()
        };
        let mut store = ResultStore::open(&path).unwrap();
        run_sweep(&grid_a, &mut store, &opts).unwrap();
        drop(store);
        // Sweeping a different grid rewrites the file but must keep A's cells.
        let mut store = ResultStore::open(&path).unwrap();
        run_sweep(&grid_b, &mut store, &opts).unwrap();
        drop(store);
        let mut store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), grid_a.scenarios.len() + grid_b.scenarios.len());
        let again = run_sweep(&grid_a, &mut store, &opts).unwrap();
        assert_eq!(again.stats.executed, 0, "grid A must still be fully cached");
        assert_eq!(again.stats.cache_hits, grid_a.scenarios.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sim_errors_are_recorded_not_fatal() {
        // The builder rounds dimensions to mapping-friendly sizes, so force
        // an invalid shape (K = 20 is not a multiple of the 8-row fabric)
        // onto the expanded scenario directly.
        let mut grid = GridBuilder::new()
            .archs(&[canon_energy::Arch::Canon])
            .workload(
                "odd",
                OpTemplate::Gemm {
                    m: 32,
                    k: 32,
                    n: 32,
                },
            )
            .build();
        for s in &mut grid.scenarios {
            s.op = canon_workloads::Workload::Tensor(canon_workloads::TensorOp::Spmm {
                m: 8,
                k: 20,
                n: 8,
                sparsity: 0.5,
            });
        }
        let mut store = ResultStore::in_memory();
        let out = run_sweep(
            &grid,
            &mut store,
            &SweepOptions {
                jobs: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(out.stats.errors, 1);
        assert!(matches!(out.records[0].status, RecordStatus::Error(_)));
    }

    /// A single-workload Canon-only grid: every cell runs the cycle
    /// simulator, so injected fabric faults always land.
    fn canon_grid() -> ScenarioGrid {
        GridBuilder::new()
            .archs(&[canon_energy::Arch::Canon])
            .workload(
                "GEMM",
                OpTemplate::Gemm {
                    m: 32,
                    k: 32,
                    n: 32,
                },
            )
            .workload(
                "SpMM",
                OpTemplate::Spmm {
                    m: 32,
                    k: 32,
                    n: 32,
                },
            )
            .bands(&[canon_sparse::gen::SparsityBand::S3])
            .build()
    }

    #[test]
    fn injected_panic_is_quarantined_not_fatal() {
        let grid = canon_grid();
        let opts = SweepOptions {
            jobs: 2,
            fault_plan: FaultPlan::new().with_fault(0, FaultAction::PanicAt { cycle: 4 }),
            ..Default::default()
        };
        let mut store = ResultStore::in_memory();
        let out = run_sweep(&grid, &mut store, &opts).unwrap();
        assert_eq!(out.stats.failed, 1);
        match &out.records[0].status {
            RecordStatus::Failed(CellFailure::Panic { message }) => {
                assert!(message.contains("injected fault"), "got: {message}");
            }
            other => panic!("expected a panic record, got {other:?}"),
        }
        // Healthy siblings are unaffected.
        assert!(out.records[1..]
            .iter()
            .all(|r| r.status == RecordStatus::Ok));
    }

    #[test]
    fn injected_deadlock_is_cached_on_warm_run() {
        let grid = canon_grid();
        let opts = SweepOptions {
            jobs: 1,
            fault_plan: FaultPlan::new().with_fault(1, FaultAction::WithholdCredits),
            ..Default::default()
        };
        let mut store = ResultStore::in_memory();
        let cold = run_sweep(&grid, &mut store, &opts).unwrap();
        assert_eq!(cold.stats.failed, 1);
        match &cold.records[1].status {
            RecordStatus::Failed(CellFailure::Deadlock { .. }) => {}
            other => panic!("expected a deadlock record, got {other:?}"),
        }
        assert!(cold.records[1].cycles > 0, "abort cycle is partial stats");
        // The failure is a cached outcome: the warm run re-simulates nothing.
        let warm = run_sweep(&grid, &mut store, &opts).unwrap();
        assert_eq!(warm.stats.executed, 0);
        assert_eq!(warm.stats.failed, 1);
        assert_eq!(warm.records, cold.records);
    }

    #[test]
    fn cycle_budget_times_out_runaway_cells() {
        let grid = canon_grid();
        let opts = SweepOptions {
            jobs: 1,
            cell_cycle_budget: Some(16),
            ..Default::default()
        };
        let mut store = ResultStore::in_memory();
        let out = run_sweep(&grid, &mut store, &opts).unwrap();
        assert_eq!(out.stats.failed, grid.scenarios.len());
        for rec in &out.records {
            match &rec.status {
                RecordStatus::Failed(CellFailure::Timeout { detail }) => {
                    assert!(detail.contains("cycle ceiling"));
                }
                other => panic!("expected timeout records, got {other:?}"),
            }
        }
    }

    #[test]
    fn transient_faults_retry_then_succeed_or_exhaust() {
        let grid = canon_grid();
        // Cell 0: fails once, succeeds on retry. Cell 1: outlasts the budget.
        let opts = SweepOptions {
            jobs: 1,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            fault_plan: FaultPlan::new()
                .with_fault(0, FaultAction::Transient { failures: 1 })
                .with_fault(1, FaultAction::Transient { failures: 9 }),
            ..Default::default()
        };
        let mut store = ResultStore::in_memory();
        let out = run_sweep(&grid, &mut store, &opts).unwrap();
        assert_eq!(out.records[0].status, RecordStatus::Ok);
        match &out.records[1].status {
            RecordStatus::Failed(CellFailure::Transient { detail }) => {
                assert!(detail.contains("injected transient fault"));
            }
            other => panic!("expected exhausted-transient record, got {other:?}"),
        }
        // 1 retry healed cell 0; 2 (the budget) were burned on cell 1.
        assert_eq!(out.stats.retries, 3);
        assert_eq!(out.stats.failed, 1);
    }

    #[test]
    fn faulted_cells_use_distinct_cache_keys() {
        let grid = canon_grid();
        let mut store = ResultStore::in_memory();
        let healthy = run_sweep(&grid, &mut store, &SweepOptions::default()).unwrap();
        // Injecting a fault into a warm store must not serve the healthy
        // record for the faulted cell, and must not evict it either.
        let opts = SweepOptions {
            fault_plan: FaultPlan::new().with_fault(0, FaultAction::PanicAt { cycle: 0 }),
            ..Default::default()
        };
        let faulted = run_sweep(&grid, &mut store, &opts).unwrap();
        assert_eq!(faulted.stats.executed, 1, "only the faulted cell misses");
        assert!(matches!(
            faulted.records[0].status,
            RecordStatus::Failed(CellFailure::Panic { .. })
        ));
        let healthy_again = run_sweep(&grid, &mut store, &SweepOptions::default()).unwrap();
        assert_eq!(healthy_again.stats.executed, 0);
        assert_eq!(healthy_again.records, healthy.records);
    }

    #[test]
    fn preset_shutdown_interrupts_before_any_cell() {
        let grid = canon_grid();
        let flag = Arc::new(AtomicBool::new(true));
        let opts = SweepOptions {
            jobs: 2,
            shutdown: Some(Arc::clone(&flag)),
            ..Default::default()
        };
        let mut store = ResultStore::in_memory();
        let out = run_sweep(&grid, &mut store, &opts).unwrap();
        assert!(out.stats.interrupted);
        assert_eq!(out.stats.executed, 0);
        assert!(out.records.is_empty());
        // Clearing the flag resumes to a complete sweep.
        flag.store(false, Ordering::Relaxed);
        let full = run_sweep(&grid, &mut store, &opts).unwrap();
        assert!(!full.stats.interrupted);
        assert_eq!(full.records.len(), grid.scenarios.len());
    }
}
