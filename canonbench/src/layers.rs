//! Per-layer metrics of a traced run, computed from its spans and counters.
//!
//! Every workload prints the same metric set. A layer a workload never
//! calls reports zero for its shares and counts; its times are reported in
//! the stderr breakdown only, next to the residue and tracing overhead.

use crate::cell::CoreTally;
use crate::stats::{geomean, median, ratio, residue};
use crate::trace::{layer_self_s, self_times, Phase, Span};
use crate::Metric;

/// Daemon-side counters of the traced requests (zero off `serve-8x8`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    pub completed: f64,
    pub cache_hits: f64,
    pub coalesced: f64,
    pub rejected: f64,
    pub retries: f64,
    /// Round-trip time not explained by the in-process replay of the same
    /// cells, summed over the traced requests, in seconds.
    pub overhead_s: f64,
    /// Median of that difference over cold requests, in ms.
    pub overhead_ms_p50: f64,
    /// Summed round-trip time of the traced requests, in seconds.
    pub round_trip_s: f64,
}

/// Everything a workload hands over to compute its per-layer metrics.
pub struct LayerInput<'a> {
    pub spans: &'a [Span],
    pub tally: &'a CoreTally,
    /// Traced repetitions (each with its own set-up where the workload
    /// repeats set-up); per-layer times are per repetition.
    pub passes: usize,
    /// Threads that carry the timed work (sweep jobs, daemon connections,
    /// or 1): the capacity the layers are accounted against.
    pub threads: usize,
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    /// Span name of one operation (cell, kernel run, or request).
    pub op_span: &'static str,
    pub operand_probes: u64,
    pub operand_hits: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub serve: ServeCounters,
    /// Host-time layers of the timed phase in seconds (summed over the
    /// traced repetitions), which the residue is taken against.
    pub accounted: Vec<(&'static str, f64)>,
}

/// Summed self time of `name` over both phases, per pass.
fn per_pass(
    input: &LayerInput<'_>,
    selfs: &std::collections::HashMap<usize, u64>,
    name: &str,
) -> f64 {
    let total = layer_self_s(input.spans, selfs, name, Phase::Setup)
        + layer_self_s(input.spans, selfs, name, Phase::Run);
    total / input.passes.max(1) as f64
}

/// Computes the per-layer metrics and prints the breakdown to stderr.
pub fn report(input: &LayerInput<'_>) -> Vec<Metric> {
    let selfs = self_times(input.spans);
    let passes = input.passes.max(1) as f64;
    let capacity = input.threads as f64 * input.untraced_wall_s;
    let t = input.tally;

    let operands_s = per_pass(input, &selfs, "operands");
    let map_s = per_pass(input, &selfs, "kernels");
    let run_s = per_pass(input, &selfs, "core.run");
    let models_s = per_pass(input, &selfs, "models");
    let encode_s = per_pass(input, &selfs, "store.encode");
    let append_s = per_pass(input, &selfs, "store.append");
    let rewrite_s = per_pass(input, &selfs, "store.rewrite");
    let appends: Vec<f64> = input
        .spans
        .iter()
        .filter(|s| s.name == "store.append")
        .map(|s| s.duration() as f64 * 1e-6)
        .collect();
    let ops: Vec<f64> = input
        .spans
        .iter()
        .filter(|s| s.name == input.op_span && s.phase == Phase::Run)
        .map(|s| s.duration() as f64 * 1e-9)
        .collect();
    let op_max = ops.iter().copied().fold(0.0, f64::max);
    let ops_s = ops.iter().sum::<f64>() / passes;
    let utilization = geomean(
        &t.utilization
            .iter()
            .copied()
            .filter(|u| *u > 0.0)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let s = &input.serve;

    let metrics: Vec<Metric> = vec![
        ("operands.self_s", operands_s, "s"),
        (
            "operands.count",
            input.operand_probes as f64 / passes,
            "count",
        ),
        (
            "operands.hit_rate",
            ratio(input.operand_hits as f64, input.operand_probes as f64),
            "ratio",
        ),
        ("kernels.map_s", map_s, "s"),
        ("kernels.map_share", ratio(map_s, map_s + run_s), "ratio"),
        ("core.run_s", run_s, "s"),
        (
            "core.cycles_per_s",
            ratio(t.cycles as f64, t.wall_ns as f64 * 1e-9),
            "1/s",
        ),
        (
            "core.ns_per_pe_cycle",
            ratio(t.wall_ns as f64, t.active_pe_cycles as f64),
            "ns",
        ),
        (
            "core.replay_share",
            ratio(t.replayed_cycles as f64, t.cycles as f64),
            "ratio",
        ),
        (
            "core.batch_share",
            ratio(t.batched_pe_cycles as f64, t.pe_cycles as f64),
            "ratio",
        ),
        (
            "core.active_pe_ratio",
            ratio(t.active_pe_cycles as f64, t.pe_cycles as f64),
            "ratio",
        ),
        ("core.utilization", utilization, "ratio"),
        (
            "pool.hit_rate",
            ratio(
                input.pool_hits as f64,
                (input.pool_hits + input.pool_misses) as f64,
            ),
            "ratio",
        ),
        ("models.share", ratio(models_s, capacity), "ratio"),
        (
            "store.share",
            ratio(encode_s + append_s + rewrite_s, capacity),
            "ratio",
        ),
        ("store.appends", appends.len() as f64 / passes, "count"),
        (
            "serve.overhead_share",
            ratio(s.overhead_s, s.round_trip_s),
            "ratio",
        ),
        (
            "serve.cache_hit_rate",
            ratio(s.cache_hits, s.completed),
            "ratio",
        ),
        ("serve.coalesced", s.coalesced / passes, "count"),
        ("serve.rejected", s.rejected / passes, "count"),
        ("serve.retries", s.retries / passes, "count"),
        ("exec.op_s_max", op_max, "s"),
        ("exec.parallel_eff", ratio(ops_s, capacity), "ratio"),
    ];

    // The breakdown: absolute layer times per repetition, the accounting
    // against the untraced wall, and the tracing overhead.
    eprintln!(
        "== per-layer breakdown ({} traced repetition(s)) ==",
        input.passes
    );
    eprintln!("  models.self_s            {models_s:>16.6} s");
    eprintln!("  store.encode_s           {encode_s:>16.6} s");
    eprintln!("  store.append_s           {append_s:>16.6} s");
    eprintln!(
        "  store.append_ms_p50      {:>16.6} ms ({} appends)",
        median(&appends).unwrap_or(0.0),
        appends.len()
    );
    eprintln!("  store.rewrite_s          {rewrite_s:>16.6} s");
    eprintln!("  serve.overhead_ms_p50    {:>16.6} ms", s.overhead_ms_p50);
    eprintln!(
        "  pool                     {} hits / {} misses",
        input.pool_hits, input.pool_misses
    );
    let accounted: Vec<f64> = input.accounted.iter().map(|(_, v)| v / passes).collect();
    eprintln!(
        "== accounting against the untraced wall ({} thread(s) x {:.6} s) ==",
        input.threads, input.untraced_wall_s
    );
    for ((name, _), v) in input.accounted.iter().zip(&accounted) {
        eprintln!(
            "  {name:<24} {v:>12.6} s  {:>6.2}%",
            100.0 * ratio(*v, capacity)
        );
    }
    let res = residue(input.threads, input.untraced_wall_s, &accounted);
    eprintln!(
        "  {:<24} {res:>12.6} s  {:>6.2}%",
        "unaccounted residue",
        100.0 * ratio(res, capacity)
    );
    eprintln!(
        "tracing overhead: traced wall {:.6} s - untraced wall {:.6} s = {:.6} s ({:+.2}%)",
        input.traced_wall_s,
        input.untraced_wall_s,
        input.traced_wall_s - input.untraced_wall_s,
        100.0
            * ratio(
                input.traced_wall_s - input.untraced_wall_s,
                input.untraced_wall_s
            )
    );
    metrics
}
