//! Trace exactness: a captured event stream must reconstruct the run's
//! `Stats` byte-for-byte, and the per-cause stall breakdown must sum to
//! `stall_cycles` — on every in-tree kernel family, through the real kernel
//! mappers where possible, and on both engines.
//!
//! This is the observability layer's contract (`canon::arch::trace` module
//! docs): tracing is a *projection* of the run, not a second bookkeeping
//! system, so any drift between the recorded events and the engine's own
//! counters is a bug in one of them. The differential here catches both
//! directions — a missing event under-counts the replay, a spurious one
//! over-counts it. The trace records only what column lockstep and per-PE
//! stepping share (orchestrator decisions, feeder and off-chip traffic,
//! collector exits), so the two engines must also emit the same
//! architectural stream.

use canon::arch::kernels::spmm::{build_row_streams, preload_b_tile, SpmmFsm, SpmmMapping};
use canon::arch::kernels::{compile, execute, KernelInput, KernelOutput};
use canon::arch::orchestrator::assembler;
use canon::arch::stats::{Engine, RunReport, StallCause};
use canon::arch::trace::{render_profile, replay_stats, write_chrome_trace, TraceEvent, VecSink};
use canon::arch::{CanonConfig, Fabric};
use canon::sparse::gen::{self, SparsityBand};
use canon::sparse::Dense;
use canon::sweep::backend::kernel_input;
use canon::sweep::scenario::standard_workloads;
use canon::workloads::Workload;

/// The engine a run with `lockstep` on or off takes, for every case here.
fn engine(lockstep: bool) -> Engine {
    if lockstep {
        Engine::Lockstep
    } else {
        Engine::Scalar
    }
}

/// Runs `fabric` with a sink attached, returning the run report and the
/// captured events (footer included).
fn traced_run(mut fabric: Fabric) -> (RunReport, Vec<TraceEvent>) {
    let sink = VecSink::default();
    fabric.set_trace_sink(Box::new(sink.clone()));
    let report = fabric.run().expect("fabric drains");
    fabric.take_trace_sink().expect("sink was attached");
    (report, sink.take_events())
}

/// The architectural events of a stream (footer diagnostics dropped).
fn architectural(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .copied()
        .filter(TraceEvent::is_architectural)
        .collect()
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
fn spmm_fabric(depth: usize, seed: u64, lut: bool, lockstep: bool) -> Fabric {
    let cfg = CanonConfig {
        lockstep,
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
    for lockstep in [true, false] {
        let (report, events) = traced_run(spmm_fabric(1, 11, false, lockstep));
        assert_eq!(report.engine, engine(lockstep));
        assert!(report.stats.stall_cycles > 0, "window=1 must stall");
        assert_replay_exact(&report, &events);
        // The shallow window stalls on credits; attribution must see them.
        assert!(
            report.stats.stall_breakdown.get(StallCause::Credit) > 0,
            "expected credit-attributed stalls, got {:?}",
            report.stats.stall_breakdown
        );
    }
}

#[test]
fn lut_program_trace_replays_stats_exactly() {
    // The assembled LUT interpreter is cycle-identical to the native FSM —
    // its trace must therefore replay exactly too, through the generic
    // microcode path rather than the native match arms.
    for lockstep in [true, false] {
        let (report, events) = traced_run(spmm_fabric(1, 11, true, lockstep));
        assert_eq!(report.engine, engine(lockstep));
        assert_replay_exact(&report, &events);
        // And it must equal the native FSM's stream event for event.
        let (native_report, native_events) = traced_run(spmm_fabric(1, 11, false, lockstep));
        assert_eq!(report, native_report);
        assert_eq!(
            architectural(&events),
            architectural(&native_events),
            "LUT vs native trace streams diverged"
        );
    }
}

#[test]
fn gemm_trace_replays_stats_exactly() {
    // Through the real register-accumulation mapper at its compiled fold,
    // on one fabric tile and on four (the stream then holds four runs,
    // which replay into their summed report).
    for (n, lockstep) in [(16, true), (16, false), (64, true), (64, false)] {
        let mut rng = gen::seeded_rng(23);
        let a = gen::random_sparse(10, 16, 0.8, &mut rng);
        let b = Dense::random(16, n, &mut rng);
        let mapping = SpmmMapping::REGISTER;
        let input = KernelInput::Spmm { a, b, mapping };
        let cfg = CanonConfig {
            lockstep,
            rows: 4,
            cols: 4,
            dmem_words: 64,
            spad_entries: 16,
            ..CanonConfig::default()
        };
        let (out, events) = traced_kernel(&cfg, &input);
        assert_eq!(out.report.engine, engine(lockstep));
        assert_replay_exact(&out.report, &events);
    }
}

/// Compiles and executes `input` with a sink attached.
fn traced_kernel(cfg: &CanonConfig, input: &KernelInput) -> (KernelOutput, Vec<TraceEvent>) {
    let map = compile(cfg, input).expect("maps");
    let sink = VecSink::default();
    let out = execute(cfg, &map, input, Some(Box::new(sink.clone()))).expect("runs");
    (out, sink.take_events())
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
    for lockstep in [true, false] {
        let cfg = CanonConfig {
            lockstep,
            rows: 2,
            cols: 4,
            dmem_words: 64,
            spad_entries: 16,
            ..CanonConfig::default()
        };
        let (out, events) = traced_kernel(&cfg, &input);
        assert_eq!(out.result, want);
        assert_eq!(out.report.engine, engine(lockstep));
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
}

#[test]
fn attach_after_the_first_cycle_panics() {
    // The stream must describe the whole run: the per-PE activity it
    // derives from issues cannot be reconstructed for cycles already gone.
    let mut fabric = spmm_fabric(4, 3, false, true);
    fabric.step().expect("step");
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fabric.set_trace_sink(Box::new(VecSink::default()));
    }))
    .expect_err("a late attach must panic");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        msg.contains("trace sink attached after the first cycle"),
        "unexpected panic message: {msg:?}"
    );
}

#[test]
fn exporters_cover_a_real_run() {
    let mut exports = Vec::new();
    for lockstep in [true, false] {
        let (report, events) = traced_run(spmm_fabric(1, 11, false, lockstep));
        // Chrome trace: structurally valid JSON (object form,
        // comma-separated items) mentioning the run's tracks and stall
        // causes, with a commit on every column of every issue.
        let mut json = Vec::new();
        write_chrome_trace(&events, &mut json).expect("in-memory write");
        let json = String::from_utf8(json).expect("utf8");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("orchestrator rows"));
        assert!(json.contains("PE columns"));
        assert!(json.contains("\"name\":\"credit\""));
        assert!(json.matches("\"ph\":\"X\"").count() > 10);
        assert_eq!(
            json.matches("\"cat\":\"commit\"").count(),
            4 * json.matches("\"cat\":\"issue\"").count()
        );
        assert!(json.contains("\"name\":\"noc_hops\""));
        // Textual profile: mentions the geometry, the dominant stall cause
        // and the exact stall count.
        let profile = render_profile(&events);
        assert!(profile.contains("4x4 fabric"));
        assert!(profile.contains("credit"));
        assert!(profile.contains(&format!("stall cycles: {}", report.stats.stall_cycles)));
        exports.push((json, profile));
    }
    assert_eq!(exports[0], exports[1], "exports differ between engines");
}

/// The sweep's Canon tensor cell `name` at smoke scale.
fn tensor_input(name: &str, band: Option<SparsityBand>) -> KernelInput {
    let template = standard_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no standard workload {name}"))
        .template;
    match template.instantiate(band, 4) {
        Workload::Tensor(op) => kernel_input(&op, 5),
        other => panic!("{name} is not a tensor workload: {other:?}"),
    }
}

/// Engine differential of trace streams: every Canon tensor cell of the
/// sweep, traced through `compile` + `execute` on column lockstep and on
/// per-PE stepping, emits the same architectural stream, and each stream
/// replays its own run exactly.
#[test]
fn both_engines_emit_the_same_trace() {
    let cells = [
        ("GEMM", None),
        ("SpMM", Some(SparsityBand::S1)),
        ("SpMM", Some(SparsityBand::S2)),
        ("SpMM", Some(SparsityBand::S3)),
        ("SpMM-2:4", None),
        ("SpMM-2:8", None),
        ("SDDMM", Some(SparsityBand::S1)),
        ("SDDMM", Some(SparsityBand::S2)),
        ("SDDMM", Some(SparsityBand::S3)),
        ("SDDMM-Win1", None),
        ("SDDMM-Win2", None),
    ];
    for (rows, cols) in [(8, 8), (16, 8)] {
        for (name, band) in cells {
            let input = tensor_input(name, band);
            let runs = [true, false].map(|lockstep| {
                let cfg = CanonConfig {
                    lockstep,
                    ..CanonConfig::default().with_geometry(rows, cols)
                };
                let (out, events) = traced_kernel(&cfg, &input);
                assert_eq!(
                    out.report.engine,
                    engine(lockstep),
                    "{name} {band:?} at {rows}x{cols}"
                );
                assert_replay_exact(&out.report, &events);
                events
            });
            assert!(
                architectural(&runs[0]) == architectural(&runs[1]),
                "{name} {band:?} at {rows}x{cols}: trace streams diverged"
            );
        }
    }
}
