//! `repro bench` — the simulator performance baseline (`BENCH_sim.json`).
//!
//! Two measurements, each behind one `--check` gate:
//!
//! * **kernels** — one list ([`bench_kernels`]): the Fig 12 tensor
//!   workloads on the default 8×8 fabric plus the deep-K shapes on each
//!   large fabric geometry, all on the default engine. One sampler
//!   ([`sample_kernels`]) materializes each kernel's operands once and runs
//!   the list [`REPS`] times, interleaved, reporting per kernel the median
//!   simulated **cycles per host second** with its min and max (wall time
//!   is [`RunReport::wall_ns`](canon_core::stats::RunReport::wall_ns), the
//!   fabric step loop only). [`check_throughput_gate`] compares the
//!   geomean of the medians against a baseline report.
//! * **steady state** — one fabric-level SpMM run per engine (column
//!   lockstep and per-PE stepping) bracketed by the harness's global
//!   allocation counter, reporting allocations per simulated cycle
//!   ([`check_alloc_gate`]).

use crate::workloads12::tensor_ops;
use crate::Scale;
use canon_core::kernels::run_kernel;
use canon_core::kernels::spmm::{build_row_streams, preload_b_tile, SpmmFsm};
use canon_core::{CanonConfig, Fabric};
use canon_sparse::{gen, Dense};
use canon_sweep::backend::kernel_input;
use canon_sweep::scenario::large_geometries;
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

/// Throughput-regression gate for `repro bench --check`: the geomean over
/// every kernel of median throughput against the baseline's, host-normalized
/// as in [`check_throughput_gate`], must not fall below this.
///
/// Derived from 12 consecutive `repro --smoke bench --check --baseline
/// BENCH_sim.json` runs of one build against the committed baseline on a
/// 2-vCPU VM: the gated geomean read min 0.931, median 1.018, max 1.125.
/// The margin sits 0.08 below that minimum. A copy whose step loop spins
/// an extra 40% of each step's time read 0.683 and 0.730 and failed.
pub const MIN_KERNELS_GEOMEAN: f64 = 0.85;

/// Repetitions of the kernel list; each kernel reports the median over
/// them.
pub const REPS: usize = 5;

/// Minimum accumulated fabric wall time of one sample: a kernel is run back
/// to back until this much step-loop time has accumulated (one run of a
/// deep-K kernel already exceeds it).
const MIN_SAMPLE_SECS: f64 = 0.02;

/// A fixed simulator-independent CPU workload (FNV-1a over a 64 KB buffer)
/// measured alongside the kernels: its throughput is stored in the report
/// so [`check_throughput_gate`] can divide out host-speed differences
/// (another machine, CPU steal, frequency drift) between a report and its
/// baseline. A *uniform* host slowdown moves kernels and calibration alike
/// and cancels; a simulator regression moves only the kernels and is
/// caught. Best-of-5 over ~20 ms samples.
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

/// Evaluates the throughput-regression gate: the geomean over this
/// report's kernels of `median / baseline median`, host-normalized by the
/// calibration ratio when the baseline carries one (see
/// [`calibrate_host`]). Returns the gated geomean.
///
/// # Errors
///
/// Returns a human-readable violation message when the geomean falls below
/// [`MIN_KERNELS_GEOMEAN`], or when any kernel of the report is missing
/// from the baseline (a renamed or added kernel must come with a
/// regenerated baseline, never shrink the gate to a subset).
pub fn check_throughput_gate(report: &BenchReport, baseline: &str) -> Result<f64, String> {
    let mut ratios = Vec::new();
    let mut missing = Vec::new();
    for k in &report.kernels {
        match extract_number(baseline, &k.name, "cycles_per_sec") {
            Some(base) if base > 0.0 => ratios.push(k.cycles_per_sec / base),
            _ => missing.push(k.name.as_str()),
        }
    }
    if !missing.is_empty() {
        return Err(format!(
            "baseline lacks {} of this report's {} kernels ({}); regenerate it",
            missing.len(),
            report.kernels.len(),
            missing.join(", ")
        ));
    }
    let raw = geomean(&ratios).ok_or("the report measured no kernels")?;
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
        let host = host_ratio.map_or(String::new(), |h| format!(", host speed {h:.3}x"));
        return Err(format!(
            "kernels geomean regressed to {g:.3}x of the baseline (raw {raw:.3}x{host}, \
             {} kernels), below the {MIN_KERNELS_GEOMEAN} gate",
            ratios.len()
        ));
    }
    Ok(g)
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

/// One kernel's simulator-throughput samples.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Kernel label: the Fig 12 column on the default fabric, `name@RxC`
    /// on a large geometry.
    pub name: String,
    /// Simulated cycles of one run.
    pub sim_cycles: u64,
    /// Median simulated cycles per host second over the repetitions (the
    /// gated figure).
    pub cycles_per_sec: f64,
    /// Slowest repetition.
    pub min_cps: f64,
    /// Fastest repetition.
    pub max_cps: f64,
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
    /// PE-cycles with work in flight (`Stats::active_pe_cycles`).
    pub active_pe_cycles: u64,
    /// Of those, PE-cycles the column-lockstep engine executed.
    pub lockstep_pe_cycles: u64,
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

    /// Share of the live PE-cycles the column-lockstep engine carried
    /// (`lockstep_pe_cycles / active_pe_cycles`).
    pub fn lockstep_share(&self) -> f64 {
        self.lockstep_pe_cycles as f64 / self.active_pe_cycles.max(1) as f64
    }
}

/// The complete `repro bench` measurement.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Problem-size preset of the default-fabric kernels.
    pub scale: Scale,
    /// Median host-calibration throughput ([`calibrate_host`]), measured
    /// once per repetition of the kernel list; the throughput gate divides
    /// host-speed differences out with it.
    pub calib_ops_per_sec: f64,
    /// Per-kernel simulator throughput, in [`bench_kernels`] order.
    pub kernels: Vec<KernelBench>,
    /// Step-loop allocation profiles, default engine (lockstep) first, then
    /// per-PE stepping; empty without an allocator hook.
    pub steady_state: Vec<SteadyState>,
}

/// The deep-K shapes measured on each large geometry: long per-output MAC
/// bursts (`K / g` dmem words per column visit at row-group height `g`,
/// `g = rows` for the scratchpad SpMM cells). Every `K` is a multiple of
/// 128 and every `N` a multiple of `cols·LANES`, so the shapes map at both
/// large geometries.
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
        // K deep enough that the per-output MAC burst fills an 8192-word
        // dmem band at 64 rows (`dmem_words` is raised to fit), so one
        // uniform MAC stream runs ~8192 cycles.
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

/// The one kernel list `repro bench` measures and gates, as `(name, cfg,
/// op, seed)`: the Fig 12 tensor workloads at `scale` on the default 8×8
/// fabric, then the deep-K shapes on every large geometry, named
/// `name@RxC`, with the data memory raised to the `K / rows`-word band the
/// shape needs (never below the default).
pub fn bench_kernels(scale: Scale) -> Vec<(String, CanonConfig, TensorOp, u64)> {
    let mut list: Vec<_> = tensor_ops(scale)
        .into_iter()
        .map(|(name, op, seed)| (name, CanonConfig::default(), op, seed))
        .collect();
    for (rows, cols) in large_geometries() {
        for (name, op, seed) in large_tensor_ops() {
            let band = match op {
                TensorOp::Gemm { k, .. }
                | TensorOp::Spmm { k, .. }
                | TensorOp::SpmmNm { k, .. } => k / rows,
                _ => 0,
            };
            let default = CanonConfig::default().with_geometry(rows, cols);
            let cfg = CanonConfig {
                dmem_words: default.dmem_words.max(band),
                ..default
            };
            list.push((format!("{name}@{rows}x{cols}"), cfg, op, seed));
        }
    }
    list
}

/// The one sampler: materializes each kernel's operands once (kernels that
/// share an op and seed share them), then runs the list `reps` times —
/// outer loop over repetitions, inner loop over the list, so host drift
/// reaches every kernel alike. One sample of a kernel runs it back to back
/// until `min_secs` of step-loop time accumulates; each kernel reports the
/// median sample with the min and max. Every repetition also measures
/// [`calibrate_host`], and the median calibration is returned alongside,
/// so a brief host hiccup moves neither reading.
///
/// # Panics
///
/// If a kernel fails to map or simulate, or `reps` is 0.
pub fn sample_kernels(
    kernels: &[(String, CanonConfig, TensorOp, u64)],
    reps: usize,
    min_secs: f64,
) -> (Vec<KernelBench>, f64) {
    assert!(reps > 0, "the sampler needs at least one repetition");
    let mut inputs = Vec::new();
    let mut input_of = Vec::with_capacity(kernels.len());
    for (i, (_, _, op, seed)) in kernels.iter().enumerate() {
        let shared = kernels[..i]
            .iter()
            .position(|(_, _, o, s)| o == op && s == seed);
        input_of.push(match shared {
            Some(j) => input_of[j],
            None => {
                inputs.push(kernel_input(op, *seed));
                inputs.len() - 1
            }
        });
    }
    let mut samples = vec![Vec::with_capacity(reps); kernels.len()];
    let mut sim_cycles = vec![0u64; kernels.len()];
    let mut calib = Vec::with_capacity(reps);
    for _ in 0..reps {
        calib.push(calibrate_host());
        for (i, (name, cfg, ..)) in kernels.iter().enumerate() {
            let (mut runs, mut wall_ns) = (0u64, 0u64);
            while runs == 0 || (wall_ns as f64) * 1e-9 < min_secs {
                let report = run_kernel(cfg, &inputs[input_of[i]])
                    .unwrap_or_else(|e| panic!("bench kernel {name} failed: {e}"))
                    .report;
                sim_cycles[i] = report.cycles;
                wall_ns += report.wall_ns;
                runs += 1;
            }
            samples[i].push((sim_cycles[i] * runs) as f64 / (wall_ns.max(1) as f64 * 1e-9));
        }
    }
    let benches = kernels
        .iter()
        .zip(samples)
        .zip(sim_cycles)
        .map(|(((name, ..), mut s), sim_cycles)| {
            s.sort_by(f64::total_cmp);
            KernelBench {
                name: name.clone(),
                sim_cycles,
                cycles_per_sec: median(&s),
                min_cps: s[0],
                max_cps: s[s.len() - 1],
            }
        })
        .collect();
    calib.sort_by(f64::total_cmp);
    (benches, median(&calib))
}

/// Median of a sorted, non-empty slice.
fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
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
    let streams = build_row_streams(&a, cfg.rows, cfg.rows);
    let mut fabric = Fabric::new(cfg, false);
    preload_b_tile(&mut fabric, &b, 32 / cfg.rows, cfg.rows, 0);
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
/// exported stall spans are non-trivial. It runs on column lockstep.
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
                lockstep_pe_cycles: report.stats.batched_pe_cycles,
                orch_steps: report.stats.orch_steps,
            }
        })
        .into()
}

/// Runs the measurement suite: the kernel list with the host calibration,
/// then the allocation profiles when an allocator hook is installed.
pub fn run_bench(scale: Scale, alloc: Option<AllocSnapshot>) -> BenchReport {
    let (kernels, calib_ops_per_sec) = sample_kernels(&bench_kernels(scale), REPS, MIN_SAMPLE_SECS);
    BenchReport {
        scale,
        calib_ops_per_sec,
        kernels,
        steady_state: alloc.map(bench_steady_state).unwrap_or_default(),
    }
}

/// Extracts `"field":<number>` from the first line matching `line_pat` —
/// the line-oriented parse the gate relies on ([`render_json`] writes one
/// object per line).
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

/// `extract_field` keyed by a kernel's `"name"` entry.
fn extract_number(report: &str, name: &str, field: &str) -> Option<f64> {
    extract_field(report, &format!("\"name\":\"{name}\""), field)
}

fn geomean(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() {
        return None;
    }
    Some((ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp())
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
        Scale::Large => "large",
    }
}

/// Renders the report as JSON, one object per line inside the kernel
/// array, so the file stays greppable and the gate's extraction stays
/// line-oriented.
pub fn render_json(report: &BenchReport) -> String {
    let kernels: Vec<String> = report
        .kernels
        .iter()
        .map(|k| {
            format!(
                "    {{\"name\":\"{}\",\"sim_cycles\":{},\"cycles_per_sec\":{:.0},\"min_cps\":{:.0},\"max_cps\":{:.0}}}",
                k.name, k.sim_cycles, k.cycles_per_sec, k.min_cps, k.max_cps
            )
        })
        .collect();
    let mut fields = vec![
        "  \"schema\": 2".to_string(),
        format!("  \"scale\": \"{}\"", scale_label(report.scale)),
        format!("  \"reps\": {REPS}"),
        format!("  \"calib_ops_per_sec\": {:.0}", report.calib_ops_per_sec),
        format!("  \"kernels\": [\n{}\n  ]", kernels.join(",\n")),
    ];
    for ss in &report.steady_state {
        let (key, name) = if ss.lockstep {
            ("steady_state", "spmm-fabric")
        } else {
            ("steady_state_per_pe", "spmm-fabric-per-pe")
        };
        fields.push(format!(
            "  \"{key}\": {{\"name\":\"{name}\",\"cycles\":{},\"allocs\":{},\"bytes\":{},\"allocs_per_cycle\":{:.4},\"active_pe_ratio\":{:.4},\"lockstep_pe_cycles\":{},\"lockstep_share\":{:.4},\"orch_steps\":{}}}",
            ss.cycles,
            ss.allocs,
            ss.bytes,
            ss.allocs_per_cycle(),
            ss.active_pe_cycles as f64 / (ss.cycles.max(1) * ss.pes.max(1) as u64) as f64,
            ss.lockstep_pe_cycles,
            ss.lockstep_share(),
            ss.orch_steps
        ));
    }
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// Human-readable summary printed alongside the JSON file.
pub fn render_text(report: &BenchReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== repro bench: simulator throughput ({} tier, median of {REPS} interleaved reps) ==",
        scale_label(report.scale)
    );
    let _ = writeln!(
        s,
        "{:<16} {:>11} {:>13} {:>13} {:>13}",
        "kernel", "sim cycles", "median c/s", "min c/s", "max c/s"
    );
    for k in &report.kernels {
        let _ = writeln!(
            s,
            "{:<16} {:>11} {:>13.0} {:>13.0} {:>13.0}",
            k.name, k.sim_cycles, k.cycles_per_sec, k.min_cps, k.max_cps
        );
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
        let _ = writeln!(
            s,
            "activity: {:.1}% of PE-cycles live; {} orch steps; \
             column lockstep {} of {} live PE-cycles ({:.1}%)",
            ss.active_pe_cycles as f64 / (ss.cycles.max(1) * ss.pes.max(1) as u64) as f64 * 100.0,
            ss.orch_steps,
            ss.lockstep_pe_cycles,
            ss.active_pe_cycles,
            ss.lockstep_share() * 100.0
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(name: &str, cycles_per_sec: f64) -> KernelBench {
        KernelBench {
            name: name.into(),
            sim_cycles: 1000,
            cycles_per_sec,
            min_cps: cycles_per_sec * 0.9,
            max_cps: cycles_per_sec * 1.1,
        }
    }

    fn tiny_report() -> BenchReport {
        BenchReport {
            scale: Scale::Smoke,
            calib_ops_per_sec: 1_000_000.0,
            kernels: vec![kernel("GEMM", 2_000_000.0), kernel("GEMM@64x64", 30_000.0)],
            steady_state: vec![
                SteadyState {
                    lockstep: true,
                    cycles: 164,
                    allocs: 12,
                    bytes: 4096,
                    pes: 64,
                    active_pe_cycles: 4100,
                    lockstep_pe_cycles: 1025,
                    orch_steps: 1000,
                },
                SteadyState {
                    lockstep: false,
                    cycles: 164,
                    allocs: 16,
                    bytes: 4096,
                    pes: 64,
                    active_pe_cycles: 4100,
                    lockstep_pe_cycles: 0,
                    orch_steps: 1000,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrips_through_the_line_extractors() {
        let json = render_json(&tiny_report());
        assert_eq!(
            extract_number(&json, "GEMM", "cycles_per_sec"),
            Some(2_000_000.0)
        );
        assert_eq!(extract_number(&json, "GEMM", "sim_cycles"), Some(1000.0));
        assert_eq!(extract_number(&json, "GEMM", "max_cps"), Some(2_200_000.0));
        assert!(json.contains("\"steady_state\": {\"name\":\"spmm-fabric\""));
        assert!(json.contains("\"allocs_per_cycle\":0.0732"));
        assert!(json.contains("\"steady_state_per_pe\": {\"name\":\"spmm-fabric-per-pe\""));
        assert!(json.contains("\"allocs_per_cycle\":0.0976"));
        assert!(json.ends_with("}\n}\n"), "{json}");
    }

    #[test]
    fn large_section_roundtrips_and_reports_batch_ab() {
        let json = render_json(&tiny_report());
        // Large-geometry entries are keyed `name@RxC`, so they never
        // collide with the default-fabric kernel of the same name.
        assert_eq!(
            extract_number(&json, "GEMM@64x64", "cycles_per_sec"),
            Some(30_000.0)
        );
        assert_eq!(
            extract_number(&json, "GEMM@64x64", "min_cps"),
            Some(27_000.0)
        );
        assert_eq!(
            extract_number(&json, "GEMM", "cycles_per_sec"),
            Some(2_000_000.0),
            "default-fabric kernel extraction unaffected by the large entry"
        );
        // The batched (column lockstep) share of the steady-state loop is
        // reported in both the JSON and the text report.
        assert!(json.contains("\"lockstep_share\":0.2500"), "{json}");
        let text = render_text(&tiny_report());
        assert!(text.contains("column lockstep 1025 of 4100"), "{text}");
        assert!(text.contains("(25.0%)"), "{text}");
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
        let base = render_json(&tiny_report());
        // Parity passes and reports the geomean.
        assert_eq!(check_throughput_gate(&tiny_report(), &base), Ok(1.0));
        // 2x faster: fine.
        let mut faster = tiny_report();
        faster.kernels[0].cycles_per_sec *= 2.0;
        assert!(check_throughput_gate(&faster, &base).is_ok());
        // Every kernel just below the margin at identical host speed: gated.
        // (The 1% step stays clear of the JSON's whole-number rounding.)
        let mut slower = tiny_report();
        for k in &mut slower.kernels {
            k.cycles_per_sec *= MIN_KERNELS_GEOMEAN - 0.01;
        }
        let err = check_throughput_gate(&slower, &base).unwrap_err();
        assert!(err.contains("2 kernels"), "{err}");
        // Just above it: passes.
        let mut marginal = tiny_report();
        for k in &mut marginal.kernels {
            k.cycles_per_sec *= MIN_KERNELS_GEOMEAN + 0.01;
        }
        assert!(check_throughput_gate(&marginal, &base).is_ok());
    }

    #[test]
    fn throughput_gate_fails_on_a_kernel_missing_from_the_baseline() {
        // A baseline without one of the report's kernels (here the large
        // geometry entry) fails instead of gating the remaining subset.
        let mut partial = tiny_report();
        partial.kernels.truncate(1);
        let base = render_json(&partial);
        let err = check_throughput_gate(&tiny_report(), &base).unwrap_err();
        assert!(err.contains("GEMM@64x64"), "{err}");
        // A renamed kernel is missing too, even though the rest matches.
        let mut renamed = tiny_report();
        renamed.kernels[0].name = "GEMM-old".into();
        let err = check_throughput_gate(&renamed, &render_json(&tiny_report())).unwrap_err();
        assert!(err.contains("GEMM-old"), "{err}");
    }

    #[test]
    fn throughput_gate_normalizes_host_speed() {
        let base = render_json(&tiny_report());
        // A uniformly 2x-slower host: kernels AND calibration halve — the
        // normalized geomean is 1.0 and the gate passes.
        let mut slow_host = tiny_report();
        for k in &mut slow_host.kernels {
            k.cycles_per_sec *= 0.5;
        }
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
        for k in &mut regressed.kernels {
            k.cycles_per_sec *= 0.5;
        }
        regressed.calib_ops_per_sec *= 1.1;
        let err = check_throughput_gate(&regressed, &base).unwrap_err();
        assert!(err.contains("host speed"), "{err}");
        // A baseline without calibration falls back to the raw comparison.
        let legacy = base.replace("\"calib_ops_per_sec\"", "\"calib_removed\"");
        assert!(check_throughput_gate(&tiny_report(), &legacy).is_ok());
        let mut slower = tiny_report();
        for k in &mut slower.kernels {
            k.cycles_per_sec *= 0.5;
        }
        assert!(check_throughput_gate(&slower, &legacy).is_err());
    }

    #[test]
    fn committed_baseline_names_every_bench_kernel() {
        // CI gates `--smoke bench` against the committed file, so it must
        // carry an entry for every kernel of the list; a renamed or added
        // kernel without a regenerated baseline fails here, not in CI.
        let committed = include_str!("../../../BENCH_sim.json");
        assert!(!committed.contains("\"baseline\""));
        for (name, ..) in bench_kernels(Scale::Smoke) {
            assert!(
                extract_number(committed, &name, "cycles_per_sec").is_some(),
                "BENCH_sim.json has no entry for {name}"
            );
        }
    }

    #[test]
    fn kernel_sampler_measures_something() {
        // One small kernel with no minimum sample time keeps this fast in
        // debug builds; `repro bench` runs the whole list.
        let op = TensorOp::Gemm {
            m: 32,
            k: 32,
            n: 32,
        };
        let list = [
            ("GEMM".to_string(), CanonConfig::default(), op, 1),
            ("GEMM-again".to_string(), CanonConfig::default(), op, 1),
        ];
        let (out, calib) = sample_kernels(&list, 3, 0.0);
        assert!(calib > 0.0);
        assert_eq!(out.len(), 2);
        for k in &out {
            assert!(k.sim_cycles > 0);
            assert!(k.min_cps > 0.0);
            assert!(k.min_cps <= k.cycles_per_sec && k.cycles_per_sec <= k.max_cps);
        }
        // Shared operands: both entries simulate the same run.
        assert_eq!(out[0].sim_cycles, out[1].sim_cycles);
    }
}
