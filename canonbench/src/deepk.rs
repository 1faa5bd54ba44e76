//! `deep-k`: the five deep-K shapes of the large tier through
//! `canon_core::kernels::run_kernel` on one thread at 64×64, default engine
//! configuration, `dmem_words = max(default, K / rows)`.
//!
//! Set-up is operand materialization (`kernel_input`); the timed phase is
//! the sum of the five `run_kernel` calls. Every result is checked against
//! `canon_sparse::reference` outside the timed phase, and cycles must repeat
//! across repetitions.

use crate::cell::{reference_output, CoreTally, TraceCtx};
use crate::layers::{self, LayerInput};
use crate::stats::{geomean, median, ratio};
use crate::trace::{layer_self_s, self_times, write_jsonl, Phase, Tracer};
use crate::{derive, peak_rss_mb, trace_path, Args, Metric, Outcome};
use canon_core::kernels::{run_kernel, KernelInput};
use canon_core::CanonConfig;
use canon_sparse::Dense;
use canon_sweep::backend::{kernel_input, OperandCache};
use canon_workloads::TensorOp;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const GEOMETRY: (usize, usize) = (64, 64);
const SETUP_SAMPLES: usize = 3;
const MIN_REPS: usize = 3;

struct Kernel {
    name: &'static str,
    op: TensorOp,
    seed: u64,
    cfg: CanonConfig,
}

fn kernels(seed: u64) -> Vec<Kernel> {
    let shapes = [
        (
            "GEMM",
            TensorOp::Gemm {
                m: 8,
                k: 16_384,
                n: 256,
            },
        ),
        (
            "GEMM-k131072",
            TensorOp::Gemm {
                m: 2,
                k: 131_072,
                n: 256,
            },
        ),
        (
            "GEMM-deep",
            TensorOp::Gemm {
                m: 2,
                k: 524_288,
                n: 256,
            },
        ),
        (
            "SpMM-S1",
            TensorOp::Spmm {
                m: 32,
                k: 4096,
                n: 256,
                sparsity: 0.15,
            },
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
        ),
    ];
    let base = CanonConfig::default().with_geometry(GEOMETRY.0, GEOMETRY.1);
    shapes
        .into_iter()
        .map(|(name, op)| {
            let k = match op {
                TensorOp::Gemm { k, .. }
                | TensorOp::Spmm { k, .. }
                | TensorOp::SpmmNm { k, .. } => k,
                _ => unreachable!("deep-K shapes are GEMM/SpMM"),
            };
            Kernel {
                name,
                op,
                seed: derive(seed, &format!("deep-k:{name}")),
                cfg: CanonConfig {
                    dmem_words: base.dmem_words.max(k / GEOMETRY.0),
                    ..base.clone()
                },
            }
        })
        .collect()
}

struct Untraced {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    cycles: Vec<u64>,
    references: Vec<Dense>,
    per_kernel_s: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    checks_ok: bool,
}

fn untraced(ks: &[Kernel], budget: Duration, min_reps: usize) -> Untraced {
    let mut setup_s = Vec::new();
    let mut inputs: Vec<KernelInput> = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        inputs.clear(); // free the previous set first: the operands are large
        let t = Instant::now();
        inputs = ks.iter().map(|k| kernel_input(&k.op, k.seed)).collect();
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let references: Vec<Dense> = inputs.iter().map(reference_output).collect();

    let start = Instant::now();
    let mut wall_s = Vec::new();
    let mut cycles: Vec<u64> = Vec::new();
    let mut per_kernel_s = vec![Vec::new(); ks.len()];
    let (mut attempted, mut failed, mut checks_ok) = (0, 0, true);
    while wall_s.len() < min_reps || start.elapsed() < budget {
        let mut rep = 0.0;
        let mut rep_cycles = Vec::new();
        for (i, k) in ks.iter().enumerate() {
            let t = Instant::now();
            let out = run_kernel(&k.cfg, &inputs[i]);
            let dt = t.elapsed().as_secs_f64();
            rep += dt;
            per_kernel_s[i].push(dt);
            attempted += 1;
            match out {
                Ok(out) if out.result == references[i] => rep_cycles.push(out.report.cycles),
                Ok(_) => {
                    eprintln!("deep-k: {} output differs from the reference", k.name);
                    failed += 1;
                    rep_cycles.push(0);
                }
                Err(e) => {
                    eprintln!("deep-k: {} failed: {e}", k.name);
                    failed += 1;
                    rep_cycles.push(0);
                }
            }
        }
        if cycles.is_empty() {
            cycles = rep_cycles;
        } else {
            checks_ok &= cycles == rep_cycles;
        }
        wall_s.push(rep);
    }
    Untraced {
        setup_s,
        wall_s,
        cycles,
        references,
        per_kernel_s,
        attempted,
        failed,
        checks_ok,
    }
}

pub fn run(args: &Args) -> Outcome {
    let ks = kernels(args.seed);
    if args.trace {
        return traced(args, &ks);
    }
    let u = untraced(&ks, args.seconds, MIN_REPS);
    for (k, times) in ks.iter().zip(&u.per_kernel_s) {
        eprintln!(
            "  {:<14} run_kernel median {:.6} s",
            k.name,
            median(times).unwrap()
        );
    }
    eprintln!(
        "deep-k: {} repetitions, wall_s {:?}",
        u.wall_s.len(),
        u.wall_s
    );
    let cycles: Vec<f64> = u.cycles.iter().map(|&c| c as f64).collect();
    let wall = median(&u.wall_s).unwrap();
    let metrics: Vec<Metric> = vec![
        ("setup_s", median(&u.setup_s).unwrap(), "s"),
        ("wall_s", wall, "s"),
        ("ops_per_s", ks.len() as f64 / wall, "1/s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        (
            "canon_cycles_geomean",
            geomean(&cycles).unwrap_or(0.0),
            "cycles",
        ),
    ];
    Outcome {
        attempted: u.attempted,
        failed: u.failed,
        checks_ok: u.checks_ok,
        metrics,
    }
}

fn traced(args: &Args, ks: &[Kernel]) -> Outcome {
    let half = args.seconds / 2;
    let u = untraced(ks, half, 2);
    let untraced_wall = median(&u.wall_s).unwrap();

    let tracer = Tracer::new();
    let tally = Mutex::new(CoreTally::default());
    let (mut attempted, mut failed, mut checks_ok) = (u.attempted, u.failed, u.checks_ok);
    let mut walls = Vec::new();
    let (mut probes, mut hits) = (0, 0);
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < half {
        let cache = OperandCache::with_capacity(ks.len());
        let setup = TraceCtx {
            tracer: &tracer,
            tally: &tally,
            thread: 0,
            phase: Phase::Setup,
        };
        for (i, k) in ks.iter().enumerate() {
            setup.operands(&cache, &k.op, k.seed, None, i as u64);
        }
        let ctx = TraceCtx {
            phase: Phase::Run,
            ..setup
        };
        let t = Instant::now();
        let mut outputs = Vec::new();
        for (i, k) in ks.iter().enumerate() {
            let input = ctx.operands(&cache, &k.op, k.seed, None, i as u64);
            outputs.push(ctx.kernel(&k.cfg, &input, None, i as u64));
        }
        walls.push(t.elapsed().as_secs_f64());
        for (i, out) in outputs.into_iter().enumerate() {
            attempted += 1;
            match out {
                Ok(o) => {
                    failed += u64::from(o.result != u.references[i]);
                    checks_ok &= o.report.cycles == u.cycles[i];
                }
                Err(_) => failed += 1,
            }
        }
        probes += cache.hit_count() + cache.miss_count();
        hits += cache.hit_count();
    }

    let spans = tracer.into_spans();
    let selfs = self_times(&spans);
    eprintln!(
        "== kernels.map_share per kernel (run_kernel host time outside Fabric::run, per repetition) =="
    );
    for (i, k) in ks.iter().enumerate() {
        let of = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name && s.op == i as u64)
                .map(|s| selfs[&s.id] as f64 * 1e-9)
                .sum::<f64>()
                / walls.len() as f64
        };
        let (map, run) = (of("kernels"), of("core.run"));
        eprintln!(
            "  {:<14} map {:.6} s  run {:.6} s  map_share {:.4}",
            k.name,
            map,
            run,
            ratio(map, map + run)
        );
    }
    let accounted = ["operands", "kernels", "core.run"]
        .iter()
        .map(|&name| (name, layer_self_s(&spans, &selfs, name, Phase::Run)))
        .collect();
    let tally = tally.into_inner().unwrap();
    let metrics = layers::report(&LayerInput {
        spans: &spans,
        tally: &tally,
        passes: walls.len(),
        threads: 1,
        untraced_wall_s: untraced_wall,
        traced_wall_s: median(&walls).unwrap(),
        op_span: "kernels",
        operand_probes: probes,
        operand_hits: hits,
        pool_hits: 0,
        pool_misses: 0,
        serve: Default::default(),
        accounted,
    });
    if let Err(e) = write_jsonl(&spans, &trace_path(&args.workload, args.seed)) {
        eprintln!("cannot write spans: {e}");
    }
    Outcome {
        attempted,
        failed,
        checks_ok,
        metrics,
    }
}
