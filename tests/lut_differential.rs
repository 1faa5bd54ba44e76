//! Differential tests: the LUT-bitstream orchestrator (Fig 5 datapath,
//! assembled from the symbolic SpMM microcode) must be cycle-identical to
//! the native Rust FSM on the full fabric.

use canon::arch::kernels::spmm::{run_spmm, OrchKind, SpmmMapping};
use canon::arch::kernels::{compile, execute, KernelInput};
use canon::arch::CanonConfig;
use canon::sparse::{gen, reference, Dense};

fn mapping(kind: OrchKind, depth: usize) -> SpmmMapping {
    SpmmMapping {
        spad_depth: depth,
        use_scratchpad: true,
        orchestrator: kind,
    }
}

fn compare(seed: u64, m: usize, k: usize, n: usize, sparsity: f64, skew: f64, depth: usize) {
    let mut rng = gen::seeded_rng(seed);
    let a = gen::skewed_sparse(m, k, sparsity, skew, &mut rng);
    let b = Dense::random(k, n, &mut rng);
    let cfg = CanonConfig::default();
    let native = run_spmm(&cfg, &mapping(OrchKind::Native, depth), &a, &b).unwrap();
    let lut = run_spmm(&cfg, &mapping(OrchKind::Lut, depth), &a, &b).unwrap();
    let reference = reference::spmm(&a, &b);
    assert_eq!(native.result, reference, "native result wrong");
    assert_eq!(lut.result, reference, "LUT result wrong");
    assert_eq!(
        native.report.cycles, lut.report.cycles,
        "LUT path must be cycle-identical (seed {seed})"
    );
    assert_eq!(
        native.report.stats.mac_instrs, lut.report.stats.mac_instrs,
        "instruction streams diverged"
    );
    assert_eq!(
        native.report.stats.orch_messages, lut.report.stats.orch_messages,
        "message traffic diverged"
    );
    assert_eq!(
        native.report.stats.spad_reads, lut.report.stats.spad_reads,
        "scratchpad activity diverged"
    );
}

#[test]
fn lut_matches_native_moderate_sparsity() {
    compare(1, 32, 64, 32, 0.5, 0.0, 16);
}

#[test]
fn lut_matches_native_high_sparsity_skewed() {
    compare(2, 48, 64, 32, 0.85, 3.0, 16);
}

#[test]
fn lut_matches_native_shallow_window_bypass_heavy() {
    // Depth 1 forces frequent bypasses — the trickiest microcode paths.
    compare(3, 40, 32, 32, 0.7, 4.0, 1);
}

#[test]
fn lut_matches_native_dense_input() {
    compare(4, 24, 32, 32, 0.0, 0.0, 8);
}

#[test]
fn lut_matches_native_nearly_empty() {
    compare(5, 16, 32, 32, 0.98, 0.0, 16);
}

#[test]
fn lut_matches_native_across_seeds() {
    for seed in 10..18 {
        compare(seed, 24, 32, 32, 0.6, 2.0, 4);
    }
}

/// Diffs the native register-accumulation FSM against its LUT twin at row
/// group `group` (the cost model's pick when `None`) on `cfg`.
fn compare_regacc(
    cfg: &CanonConfig,
    seed: u64,
    (m, k, n): (usize, usize, usize),
    sparsity: f64,
    group: Option<usize>,
) {
    let mut rng = gen::seeded_rng(seed);
    let a = gen::random_sparse(m, k, sparsity, &mut rng);
    let b = Dense::random(k, n, &mut rng);
    let run = |orchestrator| {
        let input = KernelInput::Spmm {
            a: a.clone(),
            b: b.clone(),
            mapping: SpmmMapping {
                orchestrator,
                ..SpmmMapping::REGISTER
            },
        };
        let compiled = compile(cfg, &input).unwrap();
        let map = compiled
            .with_fold(cfg, group.unwrap_or(compiled.fold))
            .unwrap();
        execute(cfg, &map, &input, None).unwrap()
    };
    let native = run(OrchKind::Native);
    let lut = run(OrchKind::Lut);
    assert_eq!(native.result, reference::spmm(&a, &b));
    assert_eq!(lut.result, native.result);
    assert_eq!(
        native.report.cycles, lut.report.cycles,
        "register-mode LUT path must be cycle-identical (seed {seed}, group {group:?})"
    );
    assert_eq!(native.report.stats.noc_hops, lut.report.stats.noc_hops);
    assert_eq!(
        native.report.stats.orch_messages,
        lut.report.stats.orch_messages
    );
}

#[test]
fn regacc_lut_matches_native_structured() {
    // The GEMM / N:M register-accumulation microcode through the bitstream.
    let cfg = CanonConfig::default();
    compare_regacc(&cfg, 30, (24, 32, 32), 0.0, None); // dense
    compare_regacc(&cfg, 31, (32, 64, 32), 0.5, None);
    compare_regacc(&cfg, 32, (40, 32, 40), 0.8, None);
}

#[test]
fn regacc_lut_matches_native_folded() {
    // Row groups below `rows`: each row flushes every G-th output row, so
    // the flush must carry the RowEnd token's row, not a running count.
    let cfg = CanonConfig::default();
    for (seed, group) in [(33, 1), (34, 2), (35, 4)] {
        compare_regacc(&cfg, seed, (24, 32, 32), 0.0, Some(group));
        compare_regacc(&cfg, seed + 10, (21, 64, 40), 0.6, Some(group));
    }
    let wide = CanonConfig::default().with_geometry(16, 16);
    compare_regacc(&wide, 36, (48, 64, 64), 0.0, Some(4));
    compare_regacc(&wide, 37, (64, 128, 64), 0.5, None);
}
