//! Property-based tests: for arbitrary shapes, sparsities, and skews, every
//! Canon kernel mapping computes exactly the reference result, and core
//! invariants (utilization bounds, conservation of partial sums) hold.

use canon::arch::kernels::sddmm::{run_sddmm, SddmmMapping};
use canon::arch::kernels::spmm::{run_spmm, SpmmMapping};
use canon::arch::CanonConfig;
use canon::sparse::{gen, reference, Dense};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn spmm_always_matches_reference(
        seed in 0u64..10_000,
        m in 1usize..40,
        k_blocks in 1usize..6,     // K = 8 * k_blocks
        n in 1usize..48,
        sparsity in 0.0f64..0.98,
        skew in 0.0f64..4.0,
        depth in 1usize..17,
    ) {
        let k = 8 * k_blocks;
        let mut rng = gen::seeded_rng(seed);
        let a = gen::skewed_sparse(m, k, sparsity, skew, &mut rng);
        let b = Dense::random(k, n, &mut rng);
        let mapping = SpmmMapping { spad_depth: depth, ..SpmmMapping::default() };
        let out = run_spmm(&CanonConfig::default(), &mapping, &a, &b).unwrap();
        prop_assert_eq!(out.result, reference::spmm(&a, &b));
        // Utilization is a fraction of peak.
        let util = out.report.compute_utilization();
        prop_assert!((0.0..=1.0).contains(&util));
        // Every non-zero became exactly cols MAC instructions per tile.
        let tiles = n.div_ceil(32) as u64;
        prop_assert_eq!(out.report.stats.mac_instrs, a.nnz() as u64 * 8 * tiles);
    }

    #[test]
    fn spmm_register_mode_matches_reference(
        seed in 0u64..10_000,
        m in 1usize..32,
        k_blocks in 1usize..5,
        n in 1usize..40,
        sparsity in 0.0f64..0.9,
    ) {
        let k = 8 * k_blocks;
        let mut rng = gen::seeded_rng(seed);
        let a = gen::random_sparse(m, k, sparsity, &mut rng);
        let b = Dense::random(k, n, &mut rng);
        let out = run_spmm(&CanonConfig::default(), &SpmmMapping::REGISTER, &a, &b).unwrap();
        prop_assert_eq!(out.result, reference::spmm(&a, &b));
        prop_assert_eq!(out.report.stats.spad_reads, 0);
    }

    #[test]
    fn sddmm_always_matches_reference(
        seed in 0u64..10_000,
        m in 1usize..24,
        k_blocks in 1usize..4,     // K = 32 * k_blocks
        n_blocks in 1usize..4,     // N = 8 * n_blocks
        sparsity in 0.0f64..0.98,
    ) {
        let k = 32 * k_blocks;
        let n = 8 * n_blocks;
        let mut rng = gen::seeded_rng(seed);
        let a = Dense::random(m, k, &mut rng);
        let b = Dense::random(n, k, &mut rng);
        let mask = gen::random_mask(m, n, sparsity, &mut rng);
        let out = run_sddmm(&CanonConfig::default(), &SddmmMapping::default(), &mask, &a, &b)
            .unwrap();
        prop_assert_eq!(out.result, reference::sddmm(&mask, &a, &b));
        // Useful MACs = W per masked position, executed by all 8 PE columns.
        let w = (k / 32) as u64;
        prop_assert_eq!(out.report.stats.mac_instrs, mask.nnz() as u64 * w * 8);
    }

    #[test]
    fn deeper_scratchpad_never_loses_to_depth_one(
        seed in 0u64..5_000,
        sparsity in 0.5f64..0.9,
        skew in 1.0f64..4.0,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let a = gen::skewed_sparse(64, 64, sparsity, skew, &mut rng);
        let b = Dense::random(64, 32, &mut rng);
        let cfg = CanonConfig::default();
        let d1 = run_spmm(&cfg, &SpmmMapping { spad_depth: 1, ..Default::default() }, &a, &b)
            .unwrap();
        let d16 = run_spmm(&cfg, &SpmmMapping { spad_depth: 16, ..Default::default() }, &a, &b)
            .unwrap();
        prop_assert_eq!(&d1.result, &d16.result);
        // Allow small noise, but depth 16 must not be significantly slower.
        prop_assert!(
            (d16.report.cycles as f64) <= (d1.report.cycles as f64) * 1.05,
            "depth16 {} vs depth1 {}", d16.report.cycles, d1.report.cycles
        );
    }
}
