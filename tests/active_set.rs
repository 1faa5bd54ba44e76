//! Property tests for PE liveness: a PE is live when it has an instruction
//! in its pipeline, a pending injection, or a token on an input link. A
//! fabric run to quiescence has **no** live PE, and a token pushed onto one
//! link makes exactly that link's consumer live — no more, no less.
//!
//! `Fabric::step` counts the live PEs inline, at the end of each PE's turn,
//! and `Fabric::quiescent` trusts that count, so every golden cycle count
//! depends on it agreeing with the rule. `Fabric::active_pes` scans the
//! rule directly; these properties pin the two together across random
//! geometries, sparsities, and skews.

use canon::arch::isa::Vector;
use canon::arch::kernels::spmm::{build_row_streams, preload_b_tile, SpmmFsm};
use canon::arch::noc::TaggedVector;
use canon::arch::{CanonConfig, Fabric};
use canon::sparse::{gen, Dense};
use proptest::prelude::*;

/// Builds an SpMM fabric over a random problem sized for the geometry, on
/// column lockstep or the per-PE reference.
fn spmm_fabric(
    rows: usize,
    cols: usize,
    m: usize,
    sparsity: f64,
    seed: u64,
    lockstep: bool,
) -> Fabric {
    let cfg = CanonConfig {
        rows,
        cols,
        dmem_words: 64,
        spad_entries: 16,
        lockstep,
        ..CanonConfig::default()
    };
    let k = rows * 4;
    let mut rng = gen::seeded_rng(seed);
    let a = gen::skewed_sparse(m, k, sparsity, 2.0, &mut rng);
    let b = Dense::random(k, cols * 4, &mut rng);
    let streams = build_row_streams(&a, rows, rows);
    let mut fabric = Fabric::new(&cfg, false);
    preload_b_tile(&mut fabric, &b, k / rows, rows, 0);
    for (r, stream) in streams.into_iter().enumerate() {
        fabric.set_meta_stream(r, stream);
        fabric.set_program(r, SpmmFsm::new(16, m));
    }
    fabric
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn quiescent_fabric_reports_empty_active_set(
        seed in 0u64..10_000,
        rows in 2usize..9,
        cols in 2usize..9,
        m in 1usize..24,
        sparsity in 0.0f64..0.95,
    ) {
        for lockstep in [true, false] {
            let mut fabric = spmm_fabric(rows, cols, m, sparsity, seed, lockstep);
            let report = fabric.run().expect("spmm drains");
            prop_assert!(fabric.quiescent());
            prop_assert_eq!(fabric.active_pe_count(), 0);
            prop_assert!(fabric.active_pes().is_empty());
            // No more PE-cycles had work than the fabric has PE-cycles.
            prop_assert!(report.stats.active_pe_cycles <= report.cycles * (rows * cols) as u64);
        }
    }

    #[test]
    fn noc_push_wakes_exactly_the_consumer(
        rows in 2usize..7,
        cols in 2usize..7,
        col in 0usize..6,
        lanes in 1i32..100,
    ) {
        let col = col % cols;
        let cfg = CanonConfig {
            rows,
            cols,
            dmem_words: 8,
            spad_entries: 4,
            ..CanonConfig::default()
        };
        // A feeder-edged fabric with no programs: quiescent from the start.
        let mut fabric = Fabric::new(&cfg, true);
        prop_assert!(fabric.quiescent());
        prop_assert_eq!(fabric.active_pe_count(), 0);
        // One token queued on column `col`'s north edge: the next step's
        // edge-feed phase pushes it onto the link consumed by PE (0, col).
        fabric.set_feeder(col, vec![TaggedVector { value: Vector::splat(lanes), tag: 1 }]);
        fabric.step().expect("feed cycle");
        // Exactly the link's consumer woke up — and stays awake (the token
        // is never consumed: no orchestrator issues a pop), so repeated
        // steps neither drop it nor wake dependents transitively.
        prop_assert_eq!(fabric.active_pes(), vec![(0usize, col)]);
        fabric.step().expect("idle cycle");
        prop_assert_eq!(fabric.active_pes(), vec![(0usize, col)]);
        prop_assert!(!fabric.quiescent());
        // The inline count saw the same single PE on both cycles.
        prop_assert_eq!(fabric.report().stats.active_pe_cycles, 2);
    }
}
