//! Trace exactness: a captured event stream must reconstruct the run's
//! `Stats` byte-for-byte, and the per-cause stall breakdown must sum to
//! `stall_cycles` — on every in-tree kernel family, through the real kernel
//! mappers where possible.
//!
//! This is the observability layer's contract (`canon::arch::trace` module
//! docs): tracing is a *projection* of the run, not a second bookkeeping
//! system, so any drift between the recorded events and the engine's own
//! counters is a bug in one of them. The differential here catches both
//! directions — a missing event under-counts the replay, a spurious one
//! over-counts it.

use canon::arch::kernels::spmm::{build_row_streams, preload_b_tile, SpmmFsm, SpmmMapping};
use canon::arch::kernels::{compile, execute, KernelInput};
use canon::arch::orchestrator::assembler;
use canon::arch::stats::{RunReport, StallCause};
use canon::arch::trace::{render_profile, replay_stats, write_chrome_trace, TraceEvent, VecSink};
use canon::arch::{CanonConfig, Fabric};
use canon::sparse::{gen, Dense};

/// Runs `fabric` with a sink attached, returning the run report and the
/// captured events (footer included).
fn traced_run(mut fabric: Fabric) -> (RunReport, Vec<TraceEvent>) {
    let sink = VecSink::default();
    fabric.set_trace_sink(Box::new(sink.clone()));
    let report = fabric.run().expect("fabric drains");
    fabric.take_trace_sink().expect("sink was attached");
    (report, sink.take_events())
}

/// The exactness contract for one captured run.
fn assert_replay_exact(report: &RunReport, events: &[TraceEvent]) {
    let replayed = replay_stats(events);
    // RunReport equality covers cycles, geometry, and every Stats counter
    // (wall_ns is deliberately excluded from RunReport equality).
    assert_eq!(&replayed, report, "trace replay diverged from the engine");
    // The breakdown partitions the stall count: every stall cycle has
    // exactly one cause.
    assert_eq!(
        report.stats.stall_breakdown.total(),
        report.stats.stall_cycles,
        "stall breakdown must sum to stall_cycles"
    );
    assert_eq!(replayed.stats.stall_breakdown, report.stats.stall_breakdown);
}

/// An SpMM fabric with a shallow psum window (forces credit and msg-slot
/// stalls) over a skewed sparse band.
fn spmm_fabric(depth: usize, seed: u64, lut: bool) -> Fabric {
    let cfg = CanonConfig {
        rows: 4,
        cols: 4,
        dmem_words: 64,
        spad_entries: 16,
        // Shallow link FIFOs keep southbound credits scarce, so the
        // shallow-window flush bursts actually hit credit back-pressure.
        link_fifo_depth: 4,
        ..CanonConfig::default()
    };
    let (m, k) = (24, 16);
    let mut rng = gen::seeded_rng(seed);
    let a = gen::skewed_sparse(m, k, 0.75, 2.0, &mut rng);
    let b = Dense::random(k, 16, &mut rng);
    let streams = build_row_streams(&a, cfg.rows, cfg.rows);
    let mut fabric = Fabric::new(&cfg, false);
    preload_b_tile(&mut fabric, &b, k / cfg.rows, cfg.rows, 0);
    for (r, stream) in streams.into_iter().enumerate() {
        fabric.set_meta_stream(r, stream);
        if lut {
            fabric.set_program(
                r,
                assembler::spmm_fsm_spec(depth, m)
                    .into_program()
                    .expect("spmm spec assembles"),
            );
        } else {
            fabric.set_program(r, SpmmFsm::new(depth, m));
        }
    }
    fabric
}

#[test]
fn spmm_trace_replays_stats_exactly() {
    let (report, events) = traced_run(spmm_fabric(1, 11, false));
    assert!(report.stats.stall_cycles > 0, "window=1 must stall");
    assert_replay_exact(&report, &events);
    // The shallow window stalls on credits; attribution must see them.
    assert!(
        report.stats.stall_breakdown.get(StallCause::Credit) > 0,
        "expected credit-attributed stalls, got {:?}",
        report.stats.stall_breakdown
    );
}

#[test]
fn lut_program_trace_replays_stats_exactly() {
    // The assembled LUT interpreter is cycle-identical to the native FSM —
    // its trace must therefore replay exactly too, through the generic
    // microcode path rather than the native match arms.
    let (report, events) = traced_run(spmm_fabric(1, 11, true));
    assert_replay_exact(&report, &events);
    // And it must equal the native FSM's stream event for event.
    let (native_report, native_events) = traced_run(spmm_fabric(1, 11, false));
    assert_eq!(report, native_report);
    let arch: Vec<_> = events.iter().filter(|e| e.is_architectural()).collect();
    let native: Vec<_> = native_events
        .iter()
        .filter(|e| e.is_architectural())
        .collect();
    assert_eq!(arch, native, "LUT vs native trace streams diverged");
}

#[test]
fn gemm_trace_replays_stats_exactly() {
    // Through the real register-accumulation mapper at its compiled fold.
    let cfg = CanonConfig {
        rows: 4,
        cols: 4,
        dmem_words: 64,
        spad_entries: 16,
        ..CanonConfig::default()
    };
    let mut rng = gen::seeded_rng(23);
    let a = gen::random_sparse(10, 16, 0.8, &mut rng);
    let b = Dense::random(16, 16, &mut rng);
    let mapping = SpmmMapping::REGISTER;
    let input = KernelInput::Spmm { a, b, mapping };
    let map = compile(&cfg, &input).expect("GEMM-shaped input maps");
    let sink = VecSink::default();
    let out = execute(&cfg, &map, &input, Some(Box::new(sink.clone()))).expect("runs");
    assert_replay_exact(&out.report, &sink.take_events());
}

#[test]
fn sddmm_kernel_trace_replays_stats_exactly() {
    // Through the real SDDMM mapper: north-edge feeders, OperandWait
    // stalls on A-token availability, and east-edge collection.
    use canon::arch::kernels::sddmm::{ColPartition, SddmmMapping};
    let mut rng = gen::seeded_rng(7);
    let a = Dense::random(12, 32, &mut rng);
    let b = Dense::random(8, 32, &mut rng);
    let mask = gen::random_mask(12, 8, 0.5, &mut rng);
    let want = canon::sparse::reference::sddmm(&mask, &a, &b);
    let input = KernelInput::Sddmm {
        mask,
        q: a,
        kv: b,
        mapping: SddmmMapping {
            spad_depth: 8,
            partition: ColPartition::Block,
        },
    };
    let sink = VecSink::default();
    let cfg = CanonConfig {
        rows: 2,
        cols: 4,
        dmem_words: 64,
        spad_entries: 16,
        ..CanonConfig::default()
    };
    let map = compile(&cfg, &input).expect("sddmm maps");
    let out = execute(&cfg, &map, &input, Some(Box::new(sink.clone()))).expect("sddmm runs");
    assert_eq!(out.result, want);
    let events = sink.take_events();
    assert_replay_exact(&out.report, &events);
    assert!(
        out.report
            .stats
            .stall_breakdown
            .get(StallCause::OperandWait)
            > 0,
        "LoadA waits must be attributed to operand_wait, got {:?}",
        out.report.stats.stall_breakdown
    );
}

#[test]
fn mid_run_attach_still_balances_counter_totals() {
    // Attaching after some cycles loses the early per-step events but the
    // header snapshots the counter bases, so base + deltas still equals the
    // engine's NoC/off-chip totals.
    let mut fabric = spmm_fabric(4, 3, false);
    for _ in 0..20 {
        fabric.step().expect("step");
    }
    let sink = VecSink::default();
    fabric.set_trace_sink(Box::new(sink.clone()));
    let report = fabric.run().expect("drains");
    fabric.take_trace_sink();
    let replayed = replay_stats(&sink.take_events());
    assert_eq!(replayed.stats.noc_hops, report.stats.noc_hops);
    assert_eq!(
        replayed.stats.offchip_read_bytes,
        report.stats.offchip_read_bytes
    );
    assert_eq!(
        replayed.stats.offchip_write_bytes,
        report.stats.offchip_write_bytes
    );
    assert_eq!(replayed.cycles, report.cycles);
}

#[test]
fn exporters_cover_a_real_run() {
    let (report, events) = traced_run(spmm_fabric(1, 11, false));
    // Chrome trace: structurally valid JSON (object form, comma-separated
    // items) mentioning the run's tracks and stall causes.
    let mut json = Vec::new();
    write_chrome_trace(&events, &mut json).expect("in-memory write");
    let json = String::from_utf8(json).expect("utf8");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    assert!(json.contains("orchestrator rows"));
    assert!(json.contains("PE columns"));
    assert!(json.contains("\"name\":\"credit\""));
    assert!(json.matches("\"ph\":\"X\"").count() > 10);
    // Textual profile: mentions the geometry, the dominant stall cause and
    // the exact stall count.
    let profile = render_profile(&events);
    assert!(profile.contains("4x4 fabric"));
    assert!(profile.contains("credit"));
    assert!(profile.contains(&format!("stall cycles: {}", report.stats.stall_cycles)));
}
