//! Replay engine differential: steady-state macro-cycle replay must be
//! **perf-only**.
//!
//! The fabric keeps cycle-stepping available ([`Fabric::set_replay`] /
//! [`CanonConfig::replay`]): these properties run the same random program
//! with the replay engine enabled and force-disabled and diff everything
//! the engine could influence — the full [`RunReport`] (cycle counts, every
//! architectural counter, the stall breakdown, and the
//! `batched_pe_cycles` diagnostic, which replay reproduces exactly by
//! design) and the south/east collector sequences with their exit cycles.
//! The only legitimate differences are the `Stats::replayed_cycles` /
//! `Stats::replay_stretches` diagnostics themselves (they *measure* whether
//! the engine ran), so they are normalized to zero on both sides.
//!
//! Directed tests pin the rest of the contract: the detector actually
//! fires and defers a majority of a deep dense kernel (a replay engine that
//! never engages would pass every differential), mid-stretch divergence
//! (an accumulator re-target) falls back to cycle-stepping without a trace,
//! harness sentinels (`PanicAt`, `max_cycles`) fire at the exact cycle even
//! inside a captured stretch, and an attached trace sink disengages the
//! engine entirely.

use canon::arch::fault::FaultAction;
use canon::arch::isa::{Addr, Direction, Instruction, Opcode, Vector};
use canon::arch::kernels::gemm::RegAccFsm;
use canon::arch::kernels::spmm::{build_row_streams, preload_b_tile, SpmmFsm};
use canon::arch::orchestrator::{OrchAction, OrchIo, OrchProgram, RowProgram};
use canon::arch::stats::RunReport;
use canon::arch::trace::VecSink;
use canon::arch::{CanonConfig, Fabric, SimError};
use canon::sparse::{gen, Dense};
use proptest::prelude::*;

/// The `tests/batch_column.rs` fabric builder: an SpMM-shaped problem sized
/// for the geometry, rows `0..regacc_rows` on the register-accumulation
/// FSM, the rest on the window FSM. Deep dense bands are what produce the
/// uniform stretches replay captures. The FSMs run as open
/// [`RowProgram::Custom`] programs: natively installed, these vertical-only
/// rows would take the column-lockstep engine instead of replay (see the
/// engine table in `canon_core::fabric`).
fn spmm_fabric(
    rows: usize,
    cols: usize,
    m: usize,
    band_words: usize,
    sparsity: f64,
    depth: usize,
    seed: u64,
    regacc_rows: usize,
    replay: bool,
) -> Fabric {
    let cfg = CanonConfig {
        rows,
        cols,
        dmem_words: band_words.max(64),
        spad_entries: 16,
        replay,
        ..CanonConfig::default()
    };
    let k = rows * band_words;
    let mut rng = gen::seeded_rng(seed);
    let a = gen::skewed_sparse(m, k, sparsity, 2.0, &mut rng);
    let b = Dense::random(k, cols * 4, &mut rng);
    let streams = build_row_streams(&a, rows).expect("K is a multiple of rows");
    let mut fabric = Fabric::new(&cfg, false);
    preload_b_tile(&mut fabric, &b, k / rows, 0).expect("tile fits");
    for (r, stream) in streams.into_iter().enumerate() {
        fabric.set_meta_stream(r, stream);
        if r < regacc_rows {
            fabric.set_program(r, RowProgram::custom(RegAccFsm::new(m)));
        } else {
            fabric.set_program(r, RowProgram::custom(SpmmFsm::new(depth, m)));
        }
    }
    fabric
}

/// The report with the diagnostics that *name* the executing engine zeroed
/// out — everything else, `batched_pe_cycles` included, must match exactly.
fn normalized(mut report: RunReport) -> RunReport {
    report.stats.replayed_cycles = 0;
    report.stats.replay_stretches = 0;
    report
}

fn assert_replay_invisible(replayed: (&Fabric, RunReport), stepped: (&Fabric, RunReport)) {
    let (rf, rr) = replayed;
    let (sf, sr) = stepped;
    assert_eq!(
        sr.stats.replayed_cycles, 0,
        "disabled engine still replayed"
    );
    assert_eq!(
        normalized(rr),
        normalized(sr),
        "replay on/off reports diverged"
    );
    assert_eq!(
        rf.south_collected(),
        sf.south_collected(),
        "south collector sequence diverged"
    );
    assert_eq!(
        rf.east_collected(),
        sf.east_collected(),
        "east collector sequence diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random kernels, bands, sparsities, and FSM mixes from 8×8 through
    /// 64×64: replay enabled vs force-disabled must produce identical
    /// reports (including `batched_pe_cycles` — the engine accounts the
    /// batch sweep it defers) and collector sequences. Sparse bands break
    /// stretches constantly, dense bands produce long ones, and mixed grids
    /// never go fully uniform — all three regimes must be invisible.
    #[test]
    fn replay_is_architecturally_invisible(
        seed in 0u64..10_000,
        rows_sel in 0usize..4,
        cols_sel in 0usize..4,
        m in 1usize..20,
        band_sel in 0usize..3,
        sparsity in 0.0f64..0.95,
        depth in 1usize..5,
        regacc_sel in 0u8..4,
    ) {
        let dims = [8usize, 16, 32, 64];
        let (rows, cols) = (dims[rows_sel], dims[cols_sel]);
        let regacc_rows = [0, rows, rows / 2, rows / 4][regacc_sel as usize];
        let mut band = [4usize, 16, 64][band_sel];
        if rows * cols * m * band > 2_000_000 {
            band = 4;
        }
        let mut replayed =
            spmm_fabric(rows, cols, m, band, sparsity, depth, seed, regacc_rows, true);
        let mut stepped =
            spmm_fabric(rows, cols, m, band, sparsity, depth, seed, regacc_rows, false);
        let rr = replayed.run().expect("replayed run drains");
        let sr = stepped.run().expect("stepped run drains");
        assert_replay_invisible((&replayed, rr), (&stepped, sr));
    }
}

/// A deep dense register-accumulation kernel must actually replay — and
/// replay most of its cycles: long uniform MAC bursts dominate the run, so
/// a majority of cycles must be fast-forwarded, not merely a stray stretch.
#[test]
fn dense_regacc_replays_a_majority_of_cycles() {
    let mut fabric = spmm_fabric(8, 8, 16, 256, 0.0, 4, 7, 8, true);
    let report = fabric.run().expect("dense run drains");
    assert!(
        report.stats.replay_stretches > 0,
        "replay never engaged on a dense uniform workload"
    );
    assert!(
        report.stats.replayed_cycles * 2 >= report.cycles,
        "deep dense bands replayed under half the run: {} of {}",
        report.stats.replayed_cycles,
        report.cycles,
    );
}

/// A scripted orchestrator that plays back a fixed instruction sequence
/// (one instruction per cycle, then done).
struct Script {
    instrs: std::collections::VecDeque<Instruction>,
}

impl OrchProgram for Script {
    fn step(&mut self, _io: &OrchIo) -> OrchAction {
        match self.instrs.pop_front() {
            Some(i) => OrchAction::issue(i, 0),
            None => OrchAction::nop(0),
        }
    }
    fn done(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Every row issues `n0` MACs into spad slot 0, then `n1` into slot 1 —
/// same shape throughout, so the uniformity detector sees one long clean
/// run, but the accumulator re-target breaks the captured template
/// mid-stretch. The engine must flush at exactly that cycle, cycle-step
/// through the break, and re-enter on the second block.
fn retarget_fabric(n0: usize, n1: usize, replay: bool) -> Fabric {
    let cfg = CanonConfig {
        rows: 4,
        cols: 8,
        dmem_words: 64,
        spad_entries: 4,
        replay,
        ..CanonConfig::default()
    };
    let mut fabric = Fabric::new(&cfg, false);
    for r in 0..4 {
        for c in 0..8 {
            let mut pe = fabric.pe_mut(r, c);
            for w in 0..64 {
                pe.dmem
                    .preload(w, &[Vector::splat((r + c + w) as i32 % 7 + 1)]);
            }
        }
    }
    for r in 0..4 {
        let mut instrs: Vec<Instruction> = Vec::new();
        for i in 0..n0 {
            instrs.push(
                Instruction::new(
                    Opcode::MacS,
                    Addr::Imm,
                    Addr::DataMem((i % 64) as u16),
                    Addr::Spad(0),
                )
                .with_imm(Vector::splat((i % 5) as i32 + 1)),
            );
        }
        for i in 0..n1 {
            instrs.push(
                Instruction::new(
                    Opcode::MacS,
                    Addr::Imm,
                    Addr::DataMem((i % 64) as u16),
                    Addr::Spad(1),
                )
                .with_imm(Vector::splat((i % 3) as i32 + 1)),
            );
        }
        if r == 3 {
            // Bottom row flushes both accumulators into the south sink so
            // the differential observes the final chains architecturally.
            for slot in 0..2u16 {
                instrs.push(
                    Instruction::new(
                        Opcode::MovFlush,
                        Addr::Spad(slot),
                        Addr::Null,
                        Addr::Port(Direction::South),
                    )
                    .with_tag(slot as u32),
                );
            }
        }
        fabric.set_program(
            r,
            RowProgram::custom(Script {
                instrs: instrs.into(),
            }),
        );
    }
    fabric
}

/// Mid-stretch divergence: an accumulator re-target (same MAC shape, new
/// spad slot) must fall back to cycle-stepping without a trace — identical
/// results and counters, with the run splitting into two stretches.
#[test]
fn retarget_mid_stretch_falls_back_and_reenters() {
    let mut replayed = retarget_fabric(80, 80, true);
    let mut stepped = retarget_fabric(80, 80, false);
    let rr = replayed.run().expect("replayed run drains");
    let sr = stepped.run().expect("stepped run drains");
    assert!(
        rr.stats.replay_stretches >= 2,
        "expected the re-target to split the run into two stretches, got {}",
        rr.stats.replay_stretches
    );
    assert_replay_invisible((&replayed, rr), (&stepped, sr));
    // The flushed accumulator chains exit architecturally — both engines
    // must agree on the values and the exit cycles.
    assert!(!replayed.south_collected().is_empty());
}

/// A stretch shorter than the entry threshold (3·cols cycles) must never
/// capture — and still match the stepped engine exactly.
#[test]
fn short_bursts_never_enter_but_stay_invisible() {
    let mut replayed = retarget_fabric(10, 10, true);
    let mut stepped = retarget_fabric(10, 10, false);
    let rr = replayed.run().expect("replayed run drains");
    let sr = stepped.run().expect("stepped run drains");
    assert_eq!(
        rr.stats.replay_stretches, 0,
        "short bursts must not capture"
    );
    assert_replay_invisible((&replayed, rr), (&stepped, sr));
}

/// `FaultAction::PanicAt` must fire at the exact injected cycle even when
/// that cycle falls inside a captured stretch — the run loop checks the
/// sentinel every cycle, deferred or not.
#[test]
fn panic_at_fires_mid_stretch_at_exact_cycle() {
    // Cycle 400 sits deep inside the first captured stretch of the dense
    // 8×8 deep-band kernel (entry needs only 3·cols = 24 clean cycles).
    let at = 400u64;
    for replay in [true, false] {
        let cfg = CanonConfig {
            rows: 8,
            cols: 8,
            dmem_words: 256,
            spad_entries: 16,
            replay,
            fault: Some(FaultAction::PanicAt { cycle: at }),
            ..CanonConfig::default()
        };
        let mut faulted = build_with(cfg);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| faulted.run()))
            .expect_err("injected panic must fire");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(
            msg.contains("injected fault") && msg.contains("cycle 400"),
            "unexpected panic payload with replay={replay}: {msg}"
        );
    }
}

/// Rebuilds the dense 8×8 deep-band fabric under an arbitrary config
/// (fault/budget sentinel tests need config fields `spmm_fabric` does not
/// expose), with `Custom`-wrapped rows for the same reason as
/// `spmm_fabric`.
fn build_with(cfg: CanonConfig) -> Fabric {
    let k = cfg.rows * cfg.dmem_words;
    let mut rng = gen::seeded_rng(7);
    let a = gen::skewed_sparse(16, k, 0.0, 2.0, &mut rng);
    let b = Dense::random(k, cfg.cols * 4, &mut rng);
    let streams = build_row_streams(&a, cfg.rows).expect("K is a multiple of rows");
    let mut fabric = Fabric::new(&cfg, false);
    preload_b_tile(&mut fabric, &b, k / cfg.rows, 0).expect("tile fits");
    for (r, stream) in streams.into_iter().enumerate() {
        fabric.set_meta_stream(r, stream);
        fabric.set_program(r, RowProgram::custom(RegAccFsm::new(16)));
    }
    fabric
}

/// The `max_cycles` ceiling must abort at the exact cycle with identical
/// partial stats, replayed or stepped — a deferred stretch cannot overshoot
/// the budget.
#[test]
fn cycle_ceiling_aborts_mid_stretch_at_exact_cycle() {
    let mut reports = Vec::new();
    for replay in [true, false] {
        let cfg = CanonConfig {
            rows: 8,
            cols: 8,
            dmem_words: 256,
            spad_entries: 16,
            replay,
            max_cycles: Some(300),
            ..CanonConfig::default()
        };
        let mut fabric = build_with(cfg);
        match fabric.run() {
            Err(SimError::Timeout { cycle, budget }) => {
                assert_eq!(cycle, 300, "ceiling drifted with replay={replay}");
                assert!(budget.contains("cycle ceiling"));
            }
            other => panic!("expected a timeout, got {other:?}"),
        }
        reports.push(normalized(fabric.report()));
    }
    assert_eq!(
        reports[0], reports[1],
        "partial stats diverged at the abort"
    );
}

/// An attached trace sink disengages the engine: traces need the per-cycle
/// event order, so a traced run must never defer — and the stream must
/// equal the replay-off traced stream byte for byte (that equality is what
/// lets traced debugging represent replayed production runs).
#[test]
fn trace_sink_disengages_replay() {
    let mut traced_on = spmm_fabric(8, 8, 16, 64, 0.0, 4, 7, 8, true);
    let mut traced_off = spmm_fabric(8, 8, 16, 64, 0.0, 4, 7, 8, false);
    let (sink_a, sink_b) = (VecSink::default(), VecSink::default());
    traced_on.set_trace_sink(Box::new(sink_a.clone()));
    traced_off.set_trace_sink(Box::new(sink_b.clone()));
    let ra = traced_on.run().expect("traced run drains");
    let rb = traced_off.run().expect("traced run drains");
    traced_on.take_trace_sink();
    traced_off.take_trace_sink();
    assert_eq!(
        ra.stats.replayed_cycles, 0,
        "replay engaged under an attached trace sink"
    );
    assert_eq!(normalized(ra), normalized(rb));
    assert_eq!(sink_a.take_events(), sink_b.take_events());
}
