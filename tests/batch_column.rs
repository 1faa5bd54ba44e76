//! Batch fast-path differential: the column-vectorized sweep must be
//! **perf-only**.
//!
//! The fabric keeps the scalar per-PE sweep available
//! ([`Fabric::set_batching`]): these properties run the same random program
//! with the batch detector enabled and force-disabled and diff everything
//! the sweep can influence — the full [`RunReport`] (cycle counts, every
//! architectural counter, the stall breakdown), the south/east collector
//! sequences with their exit cycles, and the architectural trace event
//! streams. The only legitimate difference is the
//! `Stats::batched_pe_cycles` diagnostic itself (it *measures* which path
//! ran), so it is normalized to zero on both sides before comparing.
//!
//! A dense register-accumulation workload additionally pins that the
//! detector actually fires (a detector that never triggers would pass every
//! differential), and one large-tier golden pins the 64×64 geometry's cycle
//! count and result fingerprint with batching on.

use canon::arch::kernels::gemm::RegAccFsm;
use canon::arch::kernels::spmm::{build_row_streams, preload_b_tile, SpmmFsm};
use canon::arch::kernels::{run_kernel, KernelInput};
use canon::arch::orchestrator::RowProgram;
use canon::arch::stats::RunReport;
use canon::arch::trace::VecSink;
use canon::arch::{CanonConfig, Fabric};
use canon::sparse::{gen, Dense};
use canon::sweep::store::fnv1a64;
use proptest::prelude::*;

/// Builds an SpMM-shaped fabric over a random problem sized for the
/// geometry (the same construction `tests/event_wake.rs` uses). Rows
/// `0..regacc_rows` run the register-accumulation FSM, the rest the window
/// FSM — a mixed grid issues *different* MAC shapes per row group, which is
/// exactly the skewed-issue pattern the partial-prefix batch detector has
/// to handle (the all-or-nothing detector saw such columns as non-uniform).
/// `band_words` is the K-band depth per fabric row in dmem words — it sets
/// the MAC burst length per output row, and with it how often columns go
/// uniform. The FSMs run as open [`RowProgram::Custom`] programs: natively
/// installed, these vertical-only rows would take the column-lockstep
/// engine on untraced runs instead of the batch sweep (see the engine table
/// in `canon_core::fabric`).
fn spmm_fabric(
    rows: usize,
    cols: usize,
    m: usize,
    band_words: usize,
    sparsity: f64,
    depth: usize,
    seed: u64,
    regacc_rows: usize,
) -> Fabric {
    let cfg = CanonConfig {
        rows,
        cols,
        dmem_words: band_words.max(64),
        spad_entries: 16,
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

/// The report with the scheduler diagnostic that *names* the executing path
/// zeroed out — everything else must match exactly.
fn normalized(mut report: RunReport) -> RunReport {
    report.stats.batched_pe_cycles = 0;
    report
}

fn assert_batch_invisible(batched: (&Fabric, RunReport), scalar: (&Fabric, RunReport)) {
    let (bf, br) = batched;
    let (sf, sr) = scalar;
    assert_eq!(sr.stats.batched_pe_cycles, 0, "disabled path still batched");
    assert_eq!(
        normalized(br),
        normalized(sr),
        "batch on/off reports diverged"
    );
    assert_eq!(
        bf.south_collected(),
        sf.south_collected(),
        "south collector sequence diverged"
    );
    assert_eq!(
        bf.east_collected(),
        sf.east_collected(),
        "east collector sequence diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random kernels and bands from 8×8 through 64×64 — including mixed
    /// grids whose leading rows run a different FSM (and so issue a
    /// different MAC shape) than the rest, the skewed-issue pattern the
    /// partial-prefix detector batches: the batch detector enabled vs
    /// force-disabled must produce identical reports, stall breakdowns,
    /// collector sequences, and architectural trace streams.
    #[test]
    fn batch_sweep_is_architecturally_invisible(
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
        // All-window, all-regacc, and two skewed splits.
        let regacc_rows = [0, rows, rows / 2, rows / 4][regacc_sel as usize];
        // Deep bands are what make columns go uniform, but cap the total MAC
        // volume so traced runs stay fast at the big geometries.
        let mut band = [4usize, 16, 64][band_sel];
        if rows * cols * m * band > 2_000_000 {
            band = 4;
        }
        let mut batched = spmm_fabric(rows, cols, m, band, sparsity, depth, seed, regacc_rows);
        let mut scalar = spmm_fabric(rows, cols, m, band, sparsity, depth, seed, regacc_rows);
        scalar.set_batching(false);
        let (sink_b, sink_s) = (VecSink::default(), VecSink::default());
        batched.set_trace_sink(Box::new(sink_b.clone()));
        scalar.set_trace_sink(Box::new(sink_s.clone()));
        let br = batched.run().expect("batched run drains");
        let sr = scalar.run().expect("scalar run drains");
        batched.take_trace_sink();
        scalar.take_trace_sink();
        assert_batch_invisible((&batched, br), (&scalar, sr));
        // Byte-identical architectural event streams: the batch pass must
        // emit every commit event the scalar sweep would, in the same
        // order. (The RunEnd footer carries the diagnostic and is excluded
        // with the other scheduler records.)
        let events_b = sink_b.take_events();
        let events_s = sink_s.take_events();
        let arch_b: Vec<_> = events_b.iter().filter(|e| e.is_architectural()).collect();
        let arch_s: Vec<_> = events_s.iter().filter(|e| e.is_architectural()).collect();
        prop_assert_eq!(arch_b, arch_s, "architectural trace streams diverged");
    }
}

/// A dense register-accumulation run must actually take the fast path — a
/// detector that never fires would pass every differential above. Dense
/// bands keep every row issuing the same MAC shape in lockstep, which is
/// exactly the per-column uniformity the detector looks for.
#[test]
fn dense_regacc_exercises_the_batch_path() {
    let mut fabric = spmm_fabric(8, 8, 16, 64, 0.0, 4, 7, 8);
    let report = fabric.run().expect("dense run drains");
    assert!(
        report.stats.batched_pe_cycles > 0,
        "batch detector never fired on a dense uniform workload"
    );
    // Deep dense bands should batch a majority of the swept work, not just
    // a stray column — guard the fast path's reach, not only its existence.
    assert!(report.stats.batched_pe_cycles * 2 >= report.stats.active_pe_cycles);
}

/// A mixed grid — half the rows issuing `MacS → Reg`, half `MacS → Spad` —
/// never goes fully uniform, so the all-or-nothing detector would batch
/// nothing; the partial-prefix detector must still vectorize the uniform
/// leading rows. (The proptest above pins that doing so changes nothing
/// architectural.)
#[test]
fn mixed_grid_batches_the_uniform_prefix() {
    let mut fabric = spmm_fabric(16, 8, 16, 64, 0.0, 4, 7, 8);
    let report = fabric.run().expect("mixed run drains");
    assert!(
        report.stats.batched_pe_cycles > 0,
        "prefix detector never fired on a half-uniform grid"
    );
    // The run must also never have been fully uniform — otherwise this test
    // degenerates into the dense one above.
    assert_eq!(
        report.stats.replayed_cycles, 0,
        "mixed grid went fully uniform"
    );
}

/// FNV-1a over the little-endian result matrix — byte-identical outputs.
fn result_fp(result: &Dense) -> u64 {
    let mut bytes = Vec::with_capacity(result.as_slice().len() * 4);
    for &v in result.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Large-tier golden: one 64×64 GEMM with a deep, large-tier K band
/// (K = 16384, 256 dmem words per fabric row), batching on (the default).
/// Pins the cycle count, MAC count, and result fingerprint at the `large`
/// geometry, and that the batch path carries a meaningful share of the
/// swept PE work there.
#[test]
fn gemm_64x64_large_tier_golden() {
    let cfg = CanonConfig::default().with_geometry(64, 64);
    let mut rng = gen::seeded_rng(21);
    let a = Dense::random(8, 16384, &mut rng);
    let b = Dense::random(16384, 256, &mut rng);
    let input = KernelInput::Gemm { a, b };
    let out = run_kernel(&cfg, &input).expect("large GEMM maps");
    assert_eq!(out.report.cycles, 2373, "cycle count drifted");
    assert_eq!(out.report.stats.mac_instrs, 8_388_608);
    assert!(
        out.report.stats.batched_pe_cycles * 2 >= out.report.stats.active_pe_cycles,
        "large-tier GEMM lost the batch fast path"
    );
    assert_eq!(
        result_fp(&out.result),
        0x4f3d_9722_e307_3245,
        "result drifted"
    );
}
