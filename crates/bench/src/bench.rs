//! `repro bench` — the simulator performance baseline (`BENCH_sim.json`).
//!
//! Three families of measurements, all on the code paths the figures and
//! sweeps actually execute:
//!
//! * **kernels** — every Fig 12 tensor workload on the Canon cycle
//!   simulator, repeated until the wall-clock sample is stable, reporting
//!   simulated **cycles per host second** (the simulator-throughput metric;
//!   wall time is taken from [`RunReport::wall_ns`], i.e. the fabric step
//!   loop only, excluding operand materialization);
//! * **steady state** — one fabric-level SpMM run per engine (column
//!   lockstep and per-PE stepping) bracketed by the harness's global
//!   allocation counter, reporting allocations per simulated cycle (the
//!   zero-allocation-step-loop evidence);
//! * **figures / sweep** — end-to-end wall time of the multi-backend figure
//!   harness and of a cold standard sweep (cells include baselines and
//!   operand materialization, so this measures the whole pipeline).
//!
//! When a baseline report (an earlier `BENCH_sim.json`) is supplied, each
//! section carries `baseline_*` fields and a `speedup` ratio, and the
//! baseline report is embedded verbatim under `"baseline"` — the file is
//! then a self-contained before/after record.

use crate::workloads12::tensor_ops;
use crate::{figures, Scale};
use canon_core::kernels::run_kernel;
use canon_core::kernels::spmm::{build_row_streams, preload_b_tile, SpmmFsm};
use canon_core::stats::RunReport;
use canon_core::{CanonConfig, Fabric};
use canon_sparse::{gen, Dense};
use canon_sweep::backend::{kernel_input, CanonBackend};
use canon_sweep::engine::{run_sweep, SweepOptions};
use canon_sweep::scenario::{large_geometries, standard_workloads, GridBuilder};
use canon_sweep::store::ResultStore;
use canon_workloads::TensorOp;
use std::fmt::Write as _;
use std::time::Instant;

/// Snapshot of the harness's global allocation counter: `(allocations,
/// bytes)` since process start. Installed by the `repro` binary; `None`
/// disables the steady-state section.
pub type AllocSnapshot = fn() -> (u64, u64);

/// Allocation-regression gate for `repro bench --check`: the steady-state
/// step loop of each engine must stay below this many heap allocations per
/// simulated cycle (the zero-allocation hot path measures well under 0.2 —
/// amortized collector growth only, see the committed `BENCH_sim.json`; the 0.25
/// ceiling leaves headroom for noise, not for an allocating hot path,
/// which lands at tens of allocations per cycle).
pub const MAX_ALLOCS_PER_CYCLE: f64 = 0.25;

/// Throughput-regression gate for `repro bench --check`: the per-kernel
/// simulator-throughput geomean must not regress more than this factor
/// against the committed `BENCH_sim.json` baseline. 0.90 = fail CI on a
/// kernels-geomean regression above 10% (noise on a quiet runner is a few
/// percent, a structural slowdown is tens).
pub const MIN_KERNELS_GEOMEAN: f64 = 0.90;

/// A fixed simulator-independent CPU workload (FNV-1a over a 64 KB buffer)
/// measured alongside the kernels: its throughput is stored in the report
/// so [`check_throughput_gate`] can divide out host-speed differences
/// (another machine, CPU steal, frequency drift) between a report and its
/// baseline. A *uniform* host slowdown moves kernels and calibration alike
/// and cancels; a simulator regression moves only the kernels and is
/// caught. Best-of-5 over ~20 ms samples, like the kernel sampler.
pub fn calibrate_host() -> f64 {
    let buf: Vec<u8> = (0..65_536u32).map(|i| i as u8).collect();
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut hashes = 0u64;
        let mut acc = 0u64;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < 0.02 {
            acc ^= canon_sweep::store::fnv1a64(&buf);
            hashes += 1;
        }
        std::hint::black_box(acc);
        let rate = hashes as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    best
}

/// Evaluates the throughput-regression gate: computes the kernels geomean
/// of `report` against `baseline` (a previous `BENCH_sim.json`),
/// host-normalizes it by the calibration ratio when the baseline carries
/// one (see [`calibrate_host`]), and fails below [`MIN_KERNELS_GEOMEAN`].
///
/// # Errors
///
/// Returns a human-readable violation message (also when the baseline has
/// no overlapping kernel names to compare against).
pub fn check_throughput_gate(report: &BenchReport, baseline: &str) -> Result<(), String> {
    let ratios: Vec<f64> = report
        .kernels
        .iter()
        .filter_map(|k| {
            extract_number(baseline, &k.name, "cycles_per_sec").map(|base| k.cycles_per_sec / base)
        })
        .collect();
    let Some(raw) = geomean(&ratios) else {
        return Err("throughput gate: baseline shares no kernel names with this report".into());
    };
    // Host normalization: divide out how much faster/slower this host ran
    // the simulator-independent calibration workload than the baseline's.
    // The gate accepts the *better* of the raw and normalized readings: a
    // slower runner passes via the normalized one, a faster runner whose
    // speedup is not perfectly proportional passes via the raw one, and a
    // genuine regression on a comparable host fails both. (A regression
    // masked by a much faster runner is the irreducible blind spot of any
    // absolute cross-machine comparison; successive runs on one runner
    // class remain strictly comparable.)
    let host_ratio = extract_field(baseline, "calib_ops_per_sec", "calib_ops_per_sec")
        .filter(|&base| base > 0.0 && report.calib_ops_per_sec > 0.0)
        .map(|base| report.calib_ops_per_sec / base);
    let g = match host_ratio {
        Some(h) => (raw / h).max(raw),
        None => raw,
    };
    if g < MIN_KERNELS_GEOMEAN {
        return Err(match host_ratio {
            Some(h) => format!(
                "kernels geomean regressed to {g:.3}x of the baseline (raw {raw:.3}x, \
                 host speed {h:.3}x, {} kernels), below the {MIN_KERNELS_GEOMEAN} gate",
                ratios.len()
            ),
            None => format!(
                "kernels geomean regressed to {g:.3}x of the baseline ({} kernels \
                 compared), below the {MIN_KERNELS_GEOMEAN} gate",
                ratios.len()
            ),
        });
    }
    Ok(())
}

/// Evaluates the large-tier throughput gate: geomean of each large entry's
/// `replay_cps` (the default engine configuration) against the baseline's
/// entry of the same `name@RxC` key, host-normalized like
/// [`check_throughput_gate`].
///
/// Returns `Ok(None)` when there is nothing to gate — the report skipped
/// the large tier (`--reps 0`), or the baseline predates the large section
/// / shares no entry keys with it. A pre-large baseline therefore skips the
/// gate with a warning instead of breaking the schema; the caller prints
/// the distinction.
///
/// # Errors
///
/// Returns a human-readable violation message when the host-normalized
/// geomean falls below [`MIN_KERNELS_GEOMEAN`].
pub fn check_large_gate(report: &BenchReport, baseline: &str) -> Result<Option<f64>, String> {
    if report.large.is_empty() {
        return Ok(None);
    }
    let ratios: Vec<f64> = report
        .large
        .iter()
        .filter_map(|k| {
            let key = format!("{}@{}x{}", k.name, k.rows, k.cols);
            extract_number(baseline, &key, "replay_cps").map(|base| k.replay_cps / base)
        })
        .collect();
    let Some(raw) = geomean(&ratios) else {
        return Ok(None);
    };
    // Same better-of-raw-and-normalized host compensation as the scalar
    // kernels gate.
    let host_ratio = extract_field(baseline, "calib_ops_per_sec", "calib_ops_per_sec")
        .filter(|&base| base > 0.0 && report.calib_ops_per_sec > 0.0)
        .map(|base| report.calib_ops_per_sec / base);
    let g = match host_ratio {
        Some(h) => (raw / h).max(raw),
        None => raw,
    };
    if g < MIN_KERNELS_GEOMEAN {
        return Err(format!(
            "large-tier geomean regressed to {g:.3}x of the baseline (raw {raw:.3}x, \
             {} entries compared), below the {MIN_KERNELS_GEOMEAN} gate",
            ratios.len()
        ));
    }
    Ok(Some(g))
}

/// Evaluates the allocation-regression gate over a finished report.
///
/// # Errors
///
/// Returns a human-readable violation (or missing-profile) message; `repro
/// bench --check` turns it into a non-zero exit so CI fails when the
/// zero-allocation property of the step loop rots.
pub fn check_alloc_gate(report: &BenchReport) -> Result<(), String> {
    if report.steady_state.is_empty() {
        return Err(
            "allocation gate needs a steady-state profile (counting allocator hook)".into(),
        );
    }
    for ss in &report.steady_state {
        let ratio = ss.allocs_per_cycle();
        if ratio > MAX_ALLOCS_PER_CYCLE {
            return Err(format!(
                "{} steady-state step loop allocates {ratio:.4} times per simulated cycle \
                 ({} allocs / {} cycles), above the {MAX_ALLOCS_PER_CYCLE} gate",
                ss.engine(),
                ss.allocs,
                ss.cycles
            ));
        }
    }
    Ok(())
}

/// Minimum accumulated sim wall time per kernel sample (seconds).
const MIN_SAMPLE_SECS: f64 = 0.08;
/// Independent samples per kernel; the best (highest-throughput) sample is
/// reported, filtering transient host interference.
const SAMPLES: usize = 3;
/// Repetition cap per sample.
const MAX_REPS: usize = 200;

/// One kernel's simulator-throughput sample.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Fig 12 column label.
    pub name: String,
    /// Simulated cycles of one run.
    pub sim_cycles: u64,
    /// Repetitions measured.
    pub reps: usize,
    /// Total fabric wall time across reps (ms).
    pub wall_ms: f64,
    /// Simulated cycles per host second.
    pub cycles_per_sec: f64,
}

/// Allocation + scheduler profile of one fabric run.
#[derive(Debug, Clone)]
pub struct SteadyState {
    /// [`CanonConfig::lockstep`] of the measured run: on, the run takes
    /// column lockstep; off, per-PE stepping.
    pub lockstep: bool,
    /// Cycles of the measured run.
    pub cycles: u64,
    /// Heap allocations during [`Fabric::run`].
    pub allocs: u64,
    /// Bytes allocated during the run.
    pub bytes: u64,
    /// PE count of the measured fabric (denominator of the active ratio).
    pub pes: usize,
    /// PE-cycles the active-set sweep actually visited.
    pub active_pe_cycles: u64,
    /// Of those, PE-cycles the column-lockstep engine executed.
    pub batched_pe_cycles: u64,
    /// Orchestrator FSM activations (one per live row per cycle).
    pub orch_steps: u64,
}

impl SteadyState {
    /// The engine configuration, as reports name it.
    pub fn engine(&self) -> &'static str {
        if self.lockstep {
            "lockstep"
        } else {
            "per-PE"
        }
    }

    /// Heap allocations per simulated cycle (the gated figure).
    pub fn allocs_per_cycle(&self) -> f64 {
        self.allocs as f64 / self.cycles.max(1) as f64
    }

    /// Share of the swept PE work the column-lockstep engine carried
    /// (`batched_pe_cycles / active_pe_cycles`).
    pub fn batch_hit_rate(&self) -> f64 {
        self.batched_pe_cycles as f64 / self.active_pe_cycles.max(1) as f64
    }
}

/// One large-tier kernel's interleaved per-PE / default-engine measurement
/// at one fabric geometry.
#[derive(Debug, Clone)]
pub struct LargeKernelBench {
    /// Kernel label (without the geometry suffix; JSON keys entries as
    /// `name@RxC`).
    pub name: String,
    /// Fabric rows of this measurement.
    pub rows: usize,
    /// Fabric columns of this measurement.
    pub cols: usize,
    /// Simulated cycles of one run (identical across both engine
    /// configurations — asserted every repetition).
    pub sim_cycles: u64,
    /// Interleaved A/B pairs measured.
    pub reps: usize,
    /// Simulated cycles per host second with per-PE stepping
    /// (`lockstep: false`).
    pub scalar_cps: f64,
    /// Simulated cycles per host second with the default engine
    /// configuration (column lockstep where the run is eligible; this is
    /// the number the throughput gate compares). The key predates
    /// lockstep and is kept so committed baselines stay comparable.
    pub replay_cps: f64,
}

impl LargeKernelBench {
    /// Default-engine over per-PE throughput from the interleaved runs.
    pub fn replay_speedup(&self) -> f64 {
        self.replay_cps / self.scalar_cps.max(f64::MIN_POSITIVE)
    }
}

/// Wall time of one figure harness entry point.
#[derive(Debug, Clone)]
pub struct FigureBench {
    /// Figure target name.
    pub name: &'static str,
    /// End-to-end wall time (ms).
    pub wall_ms: f64,
}

/// Cold standard-sweep throughput.
#[derive(Debug, Clone)]
pub struct SweepBench {
    /// Grid cells.
    pub cells: usize,
    /// Cells executed (non-cached, supported).
    pub executed: usize,
    /// Simulated cycles across executed cells.
    pub sim_cycles: u64,
    /// Execution-phase wall time (ms).
    pub wall_ms: f64,
    /// Simulated cycles per host second across all workers.
    pub cycles_per_sec: f64,
}

/// The complete `repro bench` measurement.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Problem-size preset the measurements ran at.
    pub scale: Scale,
    /// Worker threads used for the sweep sample.
    pub jobs: usize,
    /// Host-calibration throughput ([`calibrate_host`]) measured in the
    /// same window as the kernels; the throughput gate divides host-speed
    /// differences out with it.
    pub calib_ops_per_sec: f64,
    /// Per-kernel simulator throughput.
    pub kernels: Vec<KernelBench>,
    /// Large-tier measurements (64×64 / 128×64 fabrics, deep-K operands)
    /// with an interleaved per-PE / default-engine A/B. Empty when the
    /// large tier was skipped (`--reps 0`).
    pub large: Vec<LargeKernelBench>,
    /// Step-loop allocation profiles, default engine (lockstep) first, then
    /// per-PE stepping; empty without an allocator hook.
    pub steady_state: Vec<SteadyState>,
    /// Figure harness wall times.
    pub figures: Vec<FigureBench>,
    /// Cold-sweep throughput.
    pub sweep: SweepBench,
}

/// One sample: repeat the kernel until `min_secs` of fabric wall time
/// accumulates, returning `(sim cycles of one run, reps, total wall ns)`.
fn sample_one(
    backend: &CanonBackend,
    op: &canon_workloads::TensorOp,
    seed: u64,
    min_secs: f64,
) -> (u64, usize, u64) {
    let first: RunReport = backend.run_report(op, seed).expect("kernel maps");
    let mut total_wall_ns = first.wall_ns;
    let mut reps = 1;
    while reps < MAX_REPS && (total_wall_ns as f64) * 1e-9 < min_secs {
        let r = backend.run_report(op, seed).expect("kernel maps");
        total_wall_ns += r.wall_ns;
        reps += 1;
    }
    (first.cycles, reps, total_wall_ns)
}

fn bench_one(
    backend: &CanonBackend,
    name: String,
    op: &canon_workloads::TensorOp,
    seed: u64,
    min_secs: f64,
) -> KernelBench {
    // Best of `SAMPLES` independent samples: transient host interference
    // can only slow a sample down, so the fastest is the least-perturbed.
    let mut best: Option<KernelBench> = None;
    for _ in 0..SAMPLES {
        let (sim_cycles, reps, wall_ns) = sample_one(backend, op, seed, min_secs);
        let sample = KernelBench {
            name: name.clone(),
            sim_cycles,
            reps,
            wall_ms: wall_ns as f64 * 1e-6,
            cycles_per_sec: sim_cycles as f64 * reps as f64 / (wall_ns.max(1) as f64 * 1e-9),
        };
        if best
            .as_ref()
            .is_none_or(|b| sample.cycles_per_sec > b.cycles_per_sec)
        {
            best = Some(sample);
        }
    }
    best.expect("SAMPLES > 0")
}

fn bench_kernels(scale: Scale) -> Vec<KernelBench> {
    let backend = CanonBackend::default();
    tensor_ops(scale)
        .into_iter()
        .map(|(name, op, seed)| bench_one(&backend, name, &op, seed, MIN_SAMPLE_SECS))
        .collect()
}

/// The large tier's kernel list: deep-K shapes with long per-output MAC
/// bursts (`K / g` dmem words per column visit at row-group height `g`,
/// `g = rows` for the scratchpad SpMM cells), while one per-PE run
/// stays under about a second of host time at 64×64. Every `K` is a
/// multiple of 128 and every `N` a multiple of `cols·LANES`, so the shapes
/// map at both large geometries.
fn large_tensor_ops() -> Vec<(&'static str, TensorOp, u64)> {
    vec![
        (
            "GEMM",
            TensorOp::Gemm {
                m: 8,
                k: 16_384,
                n: 256,
            },
            201,
        ),
        (
            "SpMM-S1",
            TensorOp::Spmm {
                m: 32,
                k: 4096,
                n: 256,
                sparsity: 0.15,
            },
            202,
        ),
        (
            "SpMM-S3",
            TensorOp::Spmm {
                m: 32,
                k: 4096,
                n: 256,
                sparsity: 0.80,
            },
            203,
        ),
        (
            "SpMM-2:4",
            TensorOp::SpmmNm {
                m: 32,
                k: 2048,
                n: 256,
                n_of: 2,
                m_of: 4,
            },
            204,
        ),
        // The deep showcase: K deep enough that the per-output MAC burst
        // fills an 8192-word dmem band at 64 rows (the bench raises
        // `dmem_words` to fit — see `bench_large`), so one uniform MAC
        // stream runs ~8192 cycles. This is also the one kernel whose
        // per-PE runs take a few seconds of host time; every other shape
        // stays under about a second at 64×64.
        (
            "GEMM-deep",
            TensorOp::Gemm {
                m: 2,
                k: 524_288,
                n: 256,
            },
            205,
        ),
    ]
}

/// Measures the large tier: every deep-K kernel at every large geometry,
/// `reps` interleaved per-PE / default-engine pairs per cell. Interleaving
/// exposes both engine configurations to the same host drift, so the
/// per-kernel speedup is an honest A/B rather than two separated timing
/// windows. Operands are materialized once per kernel and reused across
/// reps (the scalar-tier sampler's `run_report` re-generates them every
/// call, which at these sizes would dominate the measurement).
fn bench_large(reps: usize) -> Vec<LargeKernelBench> {
    let mut out = Vec::new();
    if reps == 0 {
        return out;
    }
    for (rows, cols) in large_geometries() {
        for (name, op, seed) in large_tensor_ops() {
            // Deep-K shapes need a dmem band of `K / rows` words per PE;
            // size the data memory per kernel (never below the default) so
            // the band depth is a property of the kernel, not a global cap
            // inflating every allocation.
            let band = match &op {
                TensorOp::Gemm { k, .. }
                | TensorOp::Spmm { k, .. }
                | TensorOp::SpmmNm { k, .. } => k / rows,
                // SDDMM shapes are not part of the large tier; their band
                // needs are covered by the default data-memory size.
                _ => 0,
            };
            let default = CanonConfig::default().with_geometry(rows, cols);
            let cfg_default = CanonConfig {
                dmem_words: default.dmem_words.max(band),
                ..default
            };
            let cfg_per_pe = CanonConfig {
                lockstep: false,
                ..cfg_default.clone()
            };
            let input = kernel_input(&op, seed);
            let mut wall_per_pe = 0u64;
            let mut wall_default = 0u64;
            let mut sim_cycles = 0u64;
            for _ in 0..reps {
                let per_pe = run_kernel(&cfg_per_pe, &input)
                    .expect("large kernel maps")
                    .report;
                let fast = run_kernel(&cfg_default, &input)
                    .expect("large kernel maps")
                    .report;
                assert_eq!(
                    per_pe.cycles, fast.cycles,
                    "the default engine must be architecturally invisible ({name} {rows}x{cols})"
                );
                wall_per_pe += per_pe.wall_ns;
                wall_default += fast.wall_ns;
                sim_cycles = fast.cycles;
            }
            let total_cycles = sim_cycles as f64 * reps as f64;
            out.push(LargeKernelBench {
                name: name.to_string(),
                rows,
                cols,
                sim_cycles,
                reps,
                scalar_cps: total_cycles / (wall_per_pe.max(1) as f64 * 1e-9),
                replay_cps: total_cycles / (wall_default.max(1) as f64 * 1e-9),
            });
        }
    }
    out
}

/// The fixed fabric-level SpMM used for allocation profiling **and** pinned
/// by `tests/cycle_invariance.rs` (`fabric_spmm_collector_sequence_golden`):
/// skewed 24×32 stream at seed 7, depth-16 window, one column tile on the
/// default 8×8 fabric. Both consumers build it through this one
/// constructor, so the allocation claim and the golden collector sequence
/// always describe the same scenario.
pub fn golden_spmm_fabric() -> Fabric {
    golden_spmm_on(&CanonConfig::default(), 16)
}

/// The golden SpMM band on `cfg` with a psum window of `depth` entries.
fn golden_spmm_on(cfg: &CanonConfig, depth: usize) -> Fabric {
    let mut rng = gen::seeded_rng(7);
    let a = gen::skewed_sparse(24, 32, 0.55, 1.5, &mut rng);
    let b = Dense::random(32, 32, &mut rng);
    let streams = build_row_streams(&a, cfg.rows, cfg.rows).expect("stream split");
    let mut fabric = Fabric::new(cfg, false);
    preload_b_tile(&mut fabric, &b, 32 / cfg.rows, cfg.rows, 0).expect("tile fits");
    for (r, stream) in streams.into_iter().enumerate() {
        fabric.set_meta_stream(r, stream);
        fabric.set_program(r, SpmmFsm::new(depth, 24));
    }
    fabric
}

/// The pinned observability scenario behind `repro trace` / `repro profile`:
/// the golden SpMM band (same stream, seed, and tile as
/// [`golden_spmm_fabric`]) but on a depth-1 psum window with shallow link
/// FIFOs, so the captured trace exercises credit back-pressure and the
/// exported stall spans are non-trivial.
pub fn golden_trace_fabric() -> Fabric {
    let cfg = CanonConfig {
        link_fifo_depth: 4,
        ..CanonConfig::default()
    };
    golden_spmm_on(&cfg, 1)
}

/// The allocation profile of the golden SpMM run on each engine: the
/// default configuration takes column lockstep, `lockstep: false` steps
/// every PE through [`Fabric::step`].
fn bench_steady_state(alloc: AllocSnapshot) -> Vec<SteadyState> {
    [true, false]
        .map(|lockstep| {
            let cfg = CanonConfig {
                lockstep,
                ..CanonConfig::default()
            };
            // One throwaway run warms allocator pools and code paths.
            let mut warm = golden_spmm_on(&cfg, 16);
            warm.run().expect("spmm runs");
            let mut fabric = golden_spmm_on(&cfg, 16);
            let (a0, b0) = alloc();
            let report = fabric.run().expect("spmm runs");
            let (a1, b1) = alloc();
            SteadyState {
                lockstep,
                cycles: report.cycles,
                allocs: a1 - a0,
                bytes: b1 - b0,
                pes: report.pes,
                active_pe_cycles: report.stats.active_pe_cycles,
                batched_pe_cycles: report.stats.batched_pe_cycles,
                orch_steps: report.stats.orch_steps,
            }
        })
        .into()
}

fn bench_figures(scale: Scale) -> Vec<FigureBench> {
    let mut out = Vec::new();
    let mut run = |name: &'static str, f: &dyn Fn() -> String| {
        // Best of two passes (see the kernel sampler's rationale).
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t = Instant::now();
            let text = f();
            assert!(!text.is_empty());
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        out.push(FigureBench {
            name,
            wall_ms: best,
        });
    };
    run("fig11", &|| figures::fig11(scale));
    run("fig12+13", &|| figures::fig1213(scale));
    run("fig14", &|| figures::fig14(scale));
    out
}

fn bench_sweep(scale: Scale, jobs: usize) -> SweepBench {
    let mut builder = GridBuilder::new()
        .scales(&[match scale {
            Scale::Full | Scale::Large => 1,
            Scale::Smoke => 4,
        }])
        .geometries(&[(8, 8)]);
    for w in standard_workloads() {
        builder = builder.workload(&w.name, w.template);
    }
    let grid = builder.build();
    // Cold in-memory store each sample; best-of-3 for noise immunity.
    let mut best: Option<SweepBench> = None;
    for _ in 0..3 {
        let mut store = ResultStore::in_memory();
        let outcome = run_sweep(
            &grid,
            &mut store,
            &SweepOptions {
                jobs,
                ..Default::default()
            },
        )
        .expect("in-memory sweep cannot fail on I/O");
        let s = outcome.stats;
        let sample = SweepBench {
            cells: s.total,
            executed: s.executed,
            sim_cycles: s.sim_cycles,
            wall_ms: s.wall_secs * 1e3,
            cycles_per_sec: s.cycles_per_sec(),
        };
        if best
            .as_ref()
            .is_none_or(|b| sample.cycles_per_sec > b.cycles_per_sec)
        {
            best = Some(sample);
        }
    }
    best.expect("at least one sweep sample")
}

/// Runs the full measurement suite. `large_reps` is the number of
/// interleaved per-PE/default-engine pairs per large-tier cell (0 skips the
/// large tier entirely).
pub fn run_bench(
    scale: Scale,
    jobs: usize,
    alloc: Option<AllocSnapshot>,
    large_reps: usize,
) -> BenchReport {
    BenchReport {
        scale,
        jobs,
        calib_ops_per_sec: calibrate_host(),
        kernels: bench_kernels(scale),
        large: bench_large(large_reps),
        steady_state: alloc.map(bench_steady_state).unwrap_or_default(),
        figures: bench_figures(scale),
        sweep: bench_sweep(scale, jobs),
    }
}

/// Extracts `"field":<number>` from the first line matching `line_pat` —
/// the line-oriented parse the baseline embedding relies on
/// ([`render_json`] writes one object per line).
fn extract_field(report: &str, line_pat: &str, field: &str) -> Option<f64> {
    let field_pat = format!("\"{field}\":");
    report.lines().find(|l| l.contains(line_pat)).and_then(|l| {
        let rest = l[l.find(&field_pat)? + field_pat.len()..].trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    })
}

/// `extract_field` keyed by a `"name"` entry (kernels, figures).
fn extract_number(report: &str, name: &str, field: &str) -> Option<f64> {
    extract_field(report, &format!("\"name\":\"{name}\""), field)
}

/// `extract_field` keyed by a top-level section, e.g.
/// `extract_section_number(r, "sweep", "cycles_per_sec")`.
fn extract_section_number(report: &str, section: &str, field: &str) -> Option<f64> {
    extract_field(report, &format!("\"{section}\":"), field)
}

/// Drops a previous report's own embedded `"baseline"` subtree before
/// re-embedding it: the committed `BENCH_sim.json` then always carries
/// exactly one before/after pair (the new measurement plus its immediate
/// predecessor) instead of recursively nesting every report in the chain.
/// The `"baseline"` key is the last section `render_json` emits, so
/// truncating there and re-closing the object preserves every measurement
/// line the extraction helpers read.
fn strip_nested_baseline(baseline: &str) -> String {
    match baseline.find("\n  \"baseline\":") {
        Some(pos) => {
            let mut out = baseline[..pos].trim_end().trim_end_matches(',').to_string();
            out.push_str("\n}\n");
            out
        }
        None => baseline.to_string(),
    }
}

fn geomean(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() {
        return None;
    }
    Some((ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}

/// Renders the report as JSON (one object per line inside arrays, so the
/// file stays greppable and the baseline extraction stays line-oriented).
/// `baseline` is a previous report's JSON; when given, speedups are
/// computed against it and it is embedded under `"baseline"`.
pub fn render_json(report: &BenchReport, baseline: Option<&str>) -> String {
    let mut s = String::new();
    let scale = match report.scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
        Scale::Large => "large",
    };
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": 1,");
    let _ = writeln!(s, "  \"scale\": \"{scale}\",");
    let _ = writeln!(s, "  \"jobs\": {},", report.jobs);
    let _ = writeln!(
        s,
        "  \"calib_ops_per_sec\": {:.0},",
        report.calib_ops_per_sec
    );
    let _ = writeln!(s, "  \"kernels\": [");
    let mut kernel_speedups = Vec::new();
    for (i, k) in report.kernels.iter().enumerate() {
        let speedup = baseline
            .and_then(|b| extract_number(b, &k.name, "cycles_per_sec"))
            .map(|base| k.cycles_per_sec / base);
        if let Some(r) = speedup {
            kernel_speedups.push(r);
        }
        let comma = if i + 1 < report.kernels.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            s,
            "    {{\"name\":\"{}\",\"sim_cycles\":{},\"reps\":{},\"wall_ms\":{:.3},\"cycles_per_sec\":{:.0}",
            k.name, k.sim_cycles, k.reps, k.wall_ms, k.cycles_per_sec
        );
        match speedup {
            Some(r) => {
                let _ = writeln!(s, ",\"speedup_vs_baseline\":{r:.3}}}{comma}");
            }
            None => {
                let _ = writeln!(s, "}}{comma}");
            }
        }
    }
    let _ = writeln!(s, "  ],");
    let mut large_speedups = Vec::new();
    let _ = writeln!(s, "  \"large\": [");
    for (i, k) in report.large.iter().enumerate() {
        let key = format!("{}@{}x{}", k.name, k.rows, k.cols);
        // Default-config tracking: this report's replay_cps against the
        // baseline's.
        let speedup = baseline
            .and_then(|b| extract_number(b, &key, "replay_cps"))
            .map(|base| k.replay_cps / base);
        if let Some(r) = speedup {
            large_speedups.push(r);
        }
        let comma = if i + 1 < report.large.len() { "," } else { "" };
        let _ = write!(
            s,
            "    {{\"name\":\"{key}\",\"rows\":{},\"cols\":{},\"sim_cycles\":{},\"reps\":{},\"scalar_cps\":{:.0},\"replay_cps\":{:.0},\"replay_speedup\":{:.3}",
            k.rows,
            k.cols,
            k.sim_cycles,
            k.reps,
            k.scalar_cps,
            k.replay_cps,
            k.replay_speedup()
        );
        match speedup {
            Some(r) => {
                let _ = writeln!(s, ",\"speedup_vs_baseline\":{r:.3}}}{comma}");
            }
            None => {
                let _ = writeln!(s, "}}{comma}");
            }
        }
    }
    let _ = writeln!(s, "  ],");
    // The tier's headline numbers: per-geometry geomeans of the
    // interleaved default-engine over per-PE speedups (self-contained —
    // need no baseline).
    if !report.large.is_empty() {
        let mut geoms: Vec<(usize, usize)> = Vec::new();
        for k in &report.large {
            if !geoms.contains(&(k.rows, k.cols)) {
                geoms.push((k.rows, k.cols));
            }
        }
        let per_geom: Vec<String> = geoms
            .iter()
            .map(|&(r, c)| {
                let sp: Vec<f64> = report
                    .large
                    .iter()
                    .filter(|k| (k.rows, k.cols) == (r, c))
                    .map(LargeKernelBench::replay_speedup)
                    .collect();
                format!("\"geomean_{r}x{c}\":{:.3}", geomean(&sp).unwrap_or(1.0))
            })
            .collect();
        let _ = writeln!(s, "  \"large_replay\": {{{}}},", per_geom.join(","));
    }
    for ss in &report.steady_state {
        // The default engine keeps the key older baselines carry.
        let (key, name) = if ss.lockstep {
            ("steady_state", "spmm-fabric")
        } else {
            ("steady_state_per_pe", "spmm-fabric-per-pe")
        };
        let _ = writeln!(
            s,
            "  \"{key}\": {{\"name\":\"{name}\",\"cycles\":{},\"allocs\":{},\"bytes\":{},\"allocs_per_cycle\":{:.4},\"active_pe_ratio\":{:.4},\"batched_pe_cycles\":{},\"batch_hit_rate\":{:.4},\"orch_steps\":{}}},",
            ss.cycles,
            ss.allocs,
            ss.bytes,
            ss.allocs_per_cycle(),
            ss.active_pe_cycles as f64 / (ss.cycles.max(1) * ss.pes.max(1) as u64) as f64,
            ss.batched_pe_cycles,
            ss.batch_hit_rate(),
            ss.orch_steps
        );
    }
    let _ = writeln!(s, "  \"figures\": [");
    for (i, f) in report.figures.iter().enumerate() {
        let comma = if i + 1 < report.figures.len() {
            ","
        } else {
            ""
        };
        let speedup = baseline
            .and_then(|b| extract_number(b, f.name, "wall_ms"))
            .map(|base| base / f.wall_ms);
        let _ = write!(
            s,
            "    {{\"name\":\"{}\",\"wall_ms\":{:.3}",
            f.name, f.wall_ms
        );
        match speedup {
            Some(r) => {
                let _ = writeln!(s, ",\"speedup_vs_baseline\":{r:.3}}}{comma}");
            }
            None => {
                let _ = writeln!(s, "}}{comma}");
            }
        }
    }
    let _ = writeln!(s, "  ],");
    let sweep_speedup = baseline
        .and_then(|b| extract_section_number(b, "sweep", "cycles_per_sec"))
        .map(|base| report.sweep.cycles_per_sec / base);
    let _ = write!(
        s,
        "  \"sweep\": {{\"cells\":{},\"executed\":{},\"sim_cycles\":{},\"wall_ms\":{:.3},\"cycles_per_sec\":{:.0}",
        report.sweep.cells,
        report.sweep.executed,
        report.sweep.sim_cycles,
        report.sweep.wall_ms,
        report.sweep.cycles_per_sec
    );
    match sweep_speedup {
        Some(r) => {
            let _ = writeln!(s, ",\"speedup_vs_baseline\":{r:.3}}},");
        }
        None => {
            let _ = writeln!(s, "}},");
        }
    }
    match baseline {
        Some(b) => {
            // Emit whatever summary ratios are computable (a baseline with
            // mismatched kernel names still embeds verbatim below).
            let mut parts = Vec::new();
            if let Some(g) = geomean(&kernel_speedups) {
                parts.push(format!("\"kernels_geomean\":{g:.3}"));
            }
            if let Some(g) = geomean(&large_speedups) {
                parts.push(format!("\"large_geomean\":{g:.3}"));
            }
            if let Some(r) = sweep_speedup {
                parts.push(format!("\"sweep\":{r:.3}"));
            }
            if !parts.is_empty() {
                let _ = writeln!(s, "  \"speedup\": {{{}}},", parts.join(","));
            }
            let _ = writeln!(s, "  \"baseline\":");
            for line in strip_nested_baseline(b).trim_end().lines() {
                let _ = writeln!(s, "  {line}");
            }
        }
        None => {
            let _ = writeln!(s, "  \"baseline\": null");
        }
    }
    let _ = writeln!(s, "}}");
    s
}

/// Human-readable summary printed alongside the JSON file.
pub fn render_text(report: &BenchReport) -> String {
    let mut s = String::new();
    let tier = match report.scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
        Scale::Large => "large",
    };
    let _ = writeln!(s, "== repro bench: simulator throughput ({tier} tier) ==");
    let _ = writeln!(
        s,
        "{:<14} {:>11} {:>6} {:>10} {:>16}",
        "kernel", "sim cycles", "reps", "wall ms", "cycles/sec"
    );
    for k in &report.kernels {
        let _ = writeln!(
            s,
            "{:<14} {:>11} {:>6} {:>10.2} {:>16.0}",
            k.name, k.sim_cycles, k.reps, k.wall_ms, k.cycles_per_sec
        );
    }
    if !report.large.is_empty() {
        let _ = writeln!(
            s,
            "== large tier: interleaved per-PE/default-engine A/B ({} pairs per cell) ==",
            report.large[0].reps
        );
        let _ = writeln!(
            s,
            "{:<10} {:>8} {:>11} {:>13} {:>13} {:>8}",
            "kernel", "geometry", "sim cycles", "per-PE c/s", "default c/s", "speedup"
        );
        for k in &report.large {
            let _ = writeln!(
                s,
                "{:<10} {:>8} {:>11} {:>13.0} {:>13.0} {:>7.2}x",
                k.name,
                format!("{}x{}", k.rows, k.cols),
                k.sim_cycles,
                k.scalar_cps,
                k.replay_cps,
                k.replay_speedup()
            );
        }
        let mut geoms: Vec<(usize, usize)> = Vec::new();
        for k in &report.large {
            if !geoms.contains(&(k.rows, k.cols)) {
                geoms.push((k.rows, k.cols));
            }
        }
        for (r, c) in geoms {
            let speedups: Vec<f64> = report
                .large
                .iter()
                .filter(|k| (k.rows, k.cols) == (r, c))
                .map(LargeKernelBench::replay_speedup)
                .collect();
            let _ = writeln!(
                s,
                "large {r}x{c}: default/per-PE geomean {:.3}x over {} kernels",
                geomean(&speedups).unwrap_or(1.0),
                speedups.len()
            );
        }
    }
    for ss in &report.steady_state {
        let _ = writeln!(
            s,
            "steady-state step loop ({}): {} allocs / {} cycles = {:.4} allocs/cycle ({} bytes)",
            ss.engine(),
            ss.allocs,
            ss.cycles,
            ss.allocs_per_cycle(),
            ss.bytes
        );
        // Scheduler activity: the share of PE-cycles the active set sweeps.
        let _ = writeln!(
            s,
            "scheduler: active PE sweeps {:.1}% of PE-cycles; {} orch steps",
            ss.active_pe_cycles as f64 / (ss.cycles.max(1) * ss.pes.max(1) as u64) as f64 * 100.0,
            ss.orch_steps
        );
        let _ = writeln!(
            s,
            "column lockstep: {} of {} swept PE-cycles ({:.1}%)",
            ss.batched_pe_cycles,
            ss.active_pe_cycles,
            ss.batch_hit_rate() * 100.0
        );
    }
    for f in &report.figures {
        let _ = writeln!(s, "figure {:<10} {:>10.1} ms", f.name, f.wall_ms);
    }
    let _ = writeln!(
        s,
        "sweep: {} cells ({} executed), {:.1} ms, {:.0} cycles/sec",
        report.sweep.cells,
        report.sweep.executed,
        report.sweep.wall_ms,
        report.sweep.cycles_per_sec
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        BenchReport {
            scale: Scale::Smoke,
            jobs: 2,
            calib_ops_per_sec: 1_000_000.0,
            kernels: vec![KernelBench {
                name: "GEMM".into(),
                sim_cycles: 1000,
                reps: 3,
                wall_ms: 1.5,
                cycles_per_sec: 2_000_000.0,
            }],
            large: vec![LargeKernelBench {
                name: "GEMM".into(),
                rows: 64,
                cols: 64,
                sim_cycles: 2373,
                reps: 3,
                scalar_cps: 4_000.0,
                replay_cps: 30_000.0,
            }],
            steady_state: vec![
                SteadyState {
                    lockstep: true,
                    cycles: 164,
                    allocs: 12,
                    bytes: 4096,
                    pes: 64,
                    active_pe_cycles: 4100,
                    batched_pe_cycles: 1025,
                    orch_steps: 1000,
                },
                SteadyState {
                    lockstep: false,
                    cycles: 164,
                    allocs: 16,
                    bytes: 4096,
                    pes: 64,
                    active_pe_cycles: 4100,
                    batched_pe_cycles: 0,
                    orch_steps: 1000,
                },
            ],
            figures: vec![FigureBench {
                name: "fig12+13",
                wall_ms: 42.0,
            }],
            sweep: SweepBench {
                cells: 70,
                executed: 61,
                sim_cycles: 123456,
                wall_ms: 10.0,
                cycles_per_sec: 12_345_600.0,
            },
        }
    }

    #[test]
    fn json_roundtrips_through_the_line_extractors() {
        let json = render_json(&tiny_report(), None);
        assert_eq!(
            extract_number(&json, "GEMM", "cycles_per_sec"),
            Some(2_000_000.0)
        );
        assert_eq!(extract_number(&json, "fig12+13", "wall_ms"), Some(42.0));
        assert_eq!(
            extract_section_number(&json, "sweep", "cycles_per_sec"),
            Some(12_345_600.0)
        );
        assert!(json.contains("\"steady_state\": {\"name\":\"spmm-fabric\""));
        assert!(json.contains("\"allocs_per_cycle\":0.0732"));
        assert!(json.contains("\"steady_state_per_pe\": {\"name\":\"spmm-fabric-per-pe\""));
        assert!(json.contains("\"allocs_per_cycle\":0.0976"));
        assert!(json.contains("\"baseline\": null"));
    }

    #[test]
    fn baseline_embedding_computes_speedups() {
        let base = render_json(&tiny_report(), None);
        let mut faster = tiny_report();
        faster.kernels[0].cycles_per_sec *= 2.0;
        faster.sweep.cycles_per_sec *= 4.0;
        let json = render_json(&faster, Some(&base));
        assert!(json.contains("\"speedup_vs_baseline\":2.000"));
        assert!(json.contains("\"kernels_geomean\":2.000"));
        assert!(json.contains("\"sweep\":4.000"));
        // The baseline is embedded (indented, its own nested baseline
        // stripped), still one object per line, so a future bench can
        // extract from this file too.
        assert!(json.contains("\"baseline\":"));
        assert!(extract_number(&json, "GEMM", "speedup_vs_baseline").is_some());
    }

    #[test]
    fn mismatched_baseline_is_still_embedded() {
        // A baseline whose kernel names don't line up (renamed column, old
        // suite) computes no kernel geomean, but the before/after record
        // must still carry the baseline verbatim.
        let mut renamed = tiny_report();
        renamed.kernels[0].name = "GEMM-old".into();
        let base = render_json(&renamed, None);
        let json = render_json(&tiny_report(), Some(&base));
        assert!(!json.contains("kernels_geomean"));
        assert!(json.contains("\"sweep\":1.000"), "{json}");
        // The top-level baseline is the embedded object, not `null`.
        assert!(json.contains("\n  \"baseline\":\n"), "{json}");
        assert!(extract_number(&json, "GEMM-old", "cycles_per_sec").is_some());
    }

    #[test]
    fn embedding_strips_the_nested_baseline() {
        // Chain three reports: C embeds B embeds A. C must carry B's
        // measurement lines (its immediate predecessor) but not A's —
        // the committed artifact stays two reports deep forever.
        let a = render_json(&tiny_report(), None);
        let mut b_report = tiny_report();
        b_report.kernels[0].cycles_per_sec = 3_000_000.0;
        let b = render_json(&b_report, Some(&a));
        assert_eq!(b.matches("\"kernels\": [").count(), 2, "A embedded in B");
        let c = render_json(&tiny_report(), Some(&b));
        // B's line is embedded in C; A's nested copy is gone.
        assert!(c.contains("\"cycles_per_sec\":3000000"), "{c}");
        assert!(!c.contains("\"baseline\": null"), "{c}");
        assert_eq!(c.matches("\"kernels\": [").count(), 2);
        // Speedup still compares against the immediate predecessor (B).
        assert!(c.contains("\"speedup_vs_baseline\":0.667"), "{c}");
    }

    #[test]
    fn alloc_gate_accepts_lean_profiles_and_rejects_regressions() {
        let mut r = tiny_report();
        // 12 and 16 allocs / 164 cycles ≈ 0.073 and 0.098 — both pass.
        assert!(check_alloc_gate(&r).is_ok());
        // Either engine above the gate fails it, and the message names it.
        for (i, engine) in [(0, "lockstep"), (1, "per-PE")] {
            let mut r = tiny_report();
            r.steady_state[i].cycles = 100;
            r.steady_state[i].allocs = 26;
            let err = check_alloc_gate(&r).unwrap_err();
            assert!(err.contains("0.2600") && err.starts_with(engine), "{err}");
        }
        r.steady_state.clear();
        assert!(check_alloc_gate(&r).is_err());
    }

    #[test]
    fn throughput_gate_passes_at_parity_and_fails_on_regression() {
        let base = render_json(&tiny_report(), None);
        // Parity: geomean 1.0 ≥ 0.90.
        assert!(check_throughput_gate(&tiny_report(), &base).is_ok());
        // 2x faster: fine.
        let mut faster = tiny_report();
        faster.kernels[0].cycles_per_sec *= 2.0;
        assert!(check_throughput_gate(&faster, &base).is_ok());
        // 20% slower at identical host speed: gated.
        let mut slower = tiny_report();
        slower.kernels[0].cycles_per_sec *= 0.8;
        let err = check_throughput_gate(&slower, &base).unwrap_err();
        assert!(err.contains("0.800"), "{err}");
        // No overlapping kernel names: explicit error, not a silent pass.
        let mut renamed = tiny_report();
        renamed.kernels[0].name = "OTHER".into();
        assert!(check_throughput_gate(&renamed, &base).is_err());
    }

    #[test]
    fn throughput_gate_normalizes_host_speed() {
        let base = render_json(&tiny_report(), None);
        // A uniformly 2x-slower host: kernels AND calibration halve — the
        // normalized geomean is 1.0 and the gate passes.
        let mut slow_host = tiny_report();
        slow_host.kernels[0].cycles_per_sec *= 0.5;
        slow_host.calib_ops_per_sec *= 0.5;
        assert!(check_throughput_gate(&slow_host, &base).is_ok());
        // A faster host with flat kernel throughput: the raw reading (1.0)
        // carries the gate — absolute throughput did not regress, so CI
        // must not fail on a runner upgrade.
        let mut faster_host = tiny_report();
        faster_host.calib_ops_per_sec *= 2.0;
        assert!(check_throughput_gate(&faster_host, &base).is_ok());
        // A regression that fails BOTH readings is gated, and the message
        // carries the host ratio for diagnosis.
        let mut regressed = tiny_report();
        regressed.kernels[0].cycles_per_sec *= 0.5;
        regressed.calib_ops_per_sec *= 1.1;
        let err = check_throughput_gate(&regressed, &base).unwrap_err();
        assert!(err.contains("host speed"), "{err}");
        // A baseline without calibration falls back to the raw comparison.
        let legacy = base.replace("\"calib_ops_per_sec\"", "\"calib_removed\"");
        assert!(check_throughput_gate(&tiny_report(), &legacy).is_ok());
        let mut slower = tiny_report();
        slower.kernels[0].cycles_per_sec *= 0.8;
        assert!(check_throughput_gate(&slower, &legacy).is_err());
    }

    #[test]
    fn large_section_roundtrips_and_reports_batch_ab() {
        let json = render_json(&tiny_report(), None);
        // Entries are keyed `name@RxC`, so the large GEMM line never
        // collides with the scalar-tier "GEMM" kernel line. Each carries
        // both sides of the A/B and the default-over-per-PE speedup.
        assert_eq!(
            extract_number(&json, "GEMM@64x64", "scalar_cps"),
            Some(4_000.0)
        );
        assert_eq!(
            extract_number(&json, "GEMM@64x64", "replay_cps"),
            Some(30_000.0)
        );
        assert_eq!(
            extract_number(&json, "GEMM@64x64", "replay_speedup"),
            Some(7.5)
        );
        assert_eq!(
            extract_number(&json, "GEMM", "cycles_per_sec"),
            Some(2_000_000.0),
            "scalar kernel extraction unaffected by the large section"
        );
        // The self-contained per-geometry A/B geomean plus the steady-state
        // lockstep share land in the JSON without a baseline.
        assert!(
            json.contains("\"large_replay\": {\"geomean_64x64\":7.500}"),
            "{json}"
        );
        assert!(json.contains("\"batch_hit_rate\":0.2500"), "{json}");
        let text = render_text(&tiny_report());
        assert!(
            text.contains("large 64x64: default/per-PE geomean 7.500x over 1 kernels"),
            "{text}"
        );
        assert!(text.contains("column lockstep: 1025 of 4100"), "{text}");
    }

    #[test]
    fn large_gate_tracks_the_default_engine_configuration() {
        let base = render_json(&tiny_report(), None);
        // The gate compares replay_cps (the default engines) to replay_cps:
        // a report whose per-PE throughput regressed but whose default
        // throughput held is NOT gated …
        let mut per_pe_slower = tiny_report();
        per_pe_slower.large[0].scalar_cps *= 0.5;
        assert!(check_large_gate(&per_pe_slower, &base).is_ok());
        // … while a default-engine regression is, even with scalar_cps
        // flat.
        let mut default_slower = tiny_report();
        default_slower.large[0].replay_cps *= 0.8;
        assert!(check_large_gate(&default_slower, &base).is_err());
    }

    #[test]
    fn large_gate_passes_fails_and_tolerates_old_baselines() {
        let base = render_json(&tiny_report(), None);
        // Parity passes and reports the geomean.
        assert_eq!(check_large_gate(&tiny_report(), &base), Ok(Some(1.0)),);
        // A 20% large-tier regression at identical host speed is gated.
        let mut slower = tiny_report();
        slower.large[0].replay_cps *= 0.8;
        let err = check_large_gate(&slower, &base).unwrap_err();
        assert!(err.contains("large-tier"), "{err}");
        // A baseline that predates the large section (tier absent) skips
        // the gate instead of erroring — no schema break.
        let mut legacy_report = tiny_report();
        legacy_report.large.clear();
        let legacy = render_json(&legacy_report, None);
        assert!(!legacy.contains("GEMM@64x64"));
        assert_eq!(check_large_gate(&tiny_report(), &legacy), Ok(None));
        // A report that skipped the tier (--reps 0) has nothing to gate.
        assert_eq!(check_large_gate(&legacy_report, &base), Ok(None));
    }

    #[test]
    fn kernel_sampler_measures_something() {
        // A single small kernel with no minimum sample time keeps this fast
        // in debug builds; the full sweep over tensor_ops runs in `repro
        // bench`.
        let backend = CanonBackend::default();
        let op = canon_workloads::TensorOp::Gemm {
            m: 32,
            k: 32,
            n: 32,
        };
        let k = bench_one(&backend, "GEMM".into(), &op, 1, 0.0);
        assert_eq!(k.reps, 1);
        assert!(k.sim_cycles > 0);
        assert!(k.cycles_per_sec > 0.0);
        assert!(k.wall_ms > 0.0);
    }
}
