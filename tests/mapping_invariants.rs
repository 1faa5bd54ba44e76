//! Mapping invariants of the register-accumulation (GEMM / N:M) mapping and
//! its row-group fold (see `canon_core::kernels::gemm`).
//!
//! * Scaling: a fixed GEMM / N:M op never takes more cycles on a larger
//!   square fabric (8×8 → 16×16 → 32×32 → 64×64). The unfolded mapping
//!   broke this — its bottom row relays `m·rows` psums, so dense GEMM took
//!   twice the cycles at 64×64 that it took at 16×16.
//! * Dense ≤ scratchpad: on a dense input, `run_gemm` is no slower than the
//!   scratchpad SpMM mapping of the same full stream (§6.2: on regular
//!   inputs Canon emulates the systolic dataflow).
//! * Cost model: `pick_fold`'s height simulates within 2% of the best legal
//!   height, found by brute force, on the sweep grid's and the large tier's
//!   GEMM / N:M shapes; and every legal height computes exactly
//!   `canon_sparse::reference`, on random shapes and geometries.
//!
//! Every simulated output here is checked against the reference. The two
//! brute-force tests simulate every legal height of full-size shapes up to
//! 128×64, so they only run in optimized builds (`cargo test --release`;
//! CI's release + debug-assertions job passes `--include-ignored`).

use canon::arch::kernels::gemm::{dense_as_full_csr, fold_candidates, pick_fold, run_gemm};
use canon::arch::kernels::spmm::{run_spmm, run_spmm_folded, OrchKind, SpmmMapping};
use canon::arch::kernels::KernelInput;
use canon::arch::CanonConfig;
use canon::sparse::{gen, reference, CsrMatrix, Dense};
use canon::sweep::backend::kernel_input;
use canon::sweep::scenario::standard_workloads;
use canon::workloads::{TensorOp, Workload};
use proptest::prelude::*;

/// The square geometries of the scaling ladder.
const LADDER: [(usize, usize); 4] = [(8, 8), (16, 16), (32, 32), (64, 64)];

/// The register-accumulation mapping (what GEMM and N:M run).
const REGACC: SpmmMapping = SpmmMapping {
    spad_depth: 1,
    use_scratchpad: false,
    orchestrator: OrchKind::Native,
};

/// A sweep-grid tensor workload at full scale, as `(A, B)`.
fn grid_operands(name: &str, seed: u64) -> (CsrMatrix, Dense) {
    let spec = standard_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no standard workload {name}"));
    match spec.template.instantiate(None, 1) {
        Workload::Tensor(op) => operands(&op, seed),
        other => panic!("{name} is not a tensor workload: {other:?}"),
    }
}

/// Materializes a GEMM / N:M op's operands the way the sweep does, with the
/// dense `A` as its full stream.
fn operands(op: &TensorOp, seed: u64) -> (CsrMatrix, Dense) {
    match kernel_input(op, seed) {
        KernelInput::Gemm { a, b } => (dense_as_full_csr(&a), b),
        KernelInput::SpmmNm { a, b, .. } => (a, b),
        other => panic!("not a register-accumulation op: {other:?}"),
    }
}

fn geometry(rows: usize, cols: usize) -> CanonConfig {
    CanonConfig::default().with_geometry(rows, cols)
}

/// Cycles of the register-accumulation mapping at height `group` (the cost
/// model's pick when `None`), after checking the output.
fn regacc_cycles(cfg: &CanonConfig, a: &CsrMatrix, b: &Dense, group: Option<usize>) -> u64 {
    let out = match group {
        Some(g) => run_spmm_folded(cfg, &REGACC, a, b, g),
        None => run_spmm(cfg, &REGACC, a, b),
    }
    .unwrap_or_else(|e| panic!("{}x{} group {group:?}: {e}", cfg.rows, cfg.cols));
    assert_eq!(
        out.result,
        reference::spmm(a, b),
        "{}x{} group {group:?}: output differs from the reference",
        cfg.rows,
        cfg.cols
    );
    out.report.cycles
}

#[test]
fn regacc_cycles_do_not_rise_along_the_square_ladder() {
    for (name, seed) in [("GEMM", 101), ("SpMM-2:4", 102), ("SpMM-2:8", 103)] {
        let (a, b) = grid_operands(name, seed);
        let cycles: Vec<u64> = LADDER
            .iter()
            .map(|&(r, c)| regacc_cycles(&geometry(r, c), &a, &b, None))
            .collect();
        assert!(
            cycles.windows(2).all(|w| w[1] <= w[0]),
            "{name}: cycles rise along {LADDER:?}: {cycles:?}"
        );
    }
}

#[test]
fn dense_gemm_is_no_slower_than_the_scratchpad_mapping() {
    let (a, b) = grid_operands("GEMM", 104);
    let dense = a.to_dense();
    for (r, c) in LADDER.into_iter().chain([(16, 8), (64, 32)]) {
        let cfg = geometry(r, c);
        let gemm = run_gemm(&cfg, &dense, &b).expect("GEMM maps");
        let spad = run_spmm(&cfg, &SpmmMapping::default(), &a, &b).expect("SpMM maps");
        let want = reference::gemm(&dense, &b);
        assert_eq!(gemm.result, want, "{r}x{c}: GEMM output");
        assert_eq!(spad.result, want, "{r}x{c}: SpMM output");
        assert!(
            gemm.report.cycles <= spad.report.cycles,
            "{r}x{c}: GEMM {} cycles > scratchpad SpMM {}",
            gemm.report.cycles,
            spad.report.cycles
        );
    }
}

/// Asserts the cost model's pick simulates within 2% of the best legal
/// height on `cfg`, brute-forcing every legal height.
fn assert_pick_near_best(label: &str, cfg: &CanonConfig, a: &CsrMatrix, b: &Dense) {
    let candidates = fold_candidates(cfg, a.rows(), a.cols());
    let pick = pick_fold(cfg, a.rows(), a.cols(), a.nnz());
    assert!(
        candidates.contains(&pick),
        "{label}: pick {pick} not in {candidates:?}"
    );
    let per_height: Vec<(usize, u64)> = candidates
        .iter()
        .map(|&g| (g, regacc_cycles(cfg, a, b, Some(g))))
        .collect();
    let best = per_height
        .iter()
        .map(|&(_, c)| c)
        .min()
        .expect("a legal height");
    let picked = per_height.iter().find(|&&(g, _)| g == pick).unwrap().1;
    assert!(
        picked as f64 <= best as f64 * 1.02,
        "{label}: pick g={pick} takes {picked} cycles, best {best}: {per_height:?}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "brute-forces every fold height at up to 128x64; run with --release"
)]
fn cost_model_pick_is_near_the_best_fold_on_the_sweep_grid() {
    for (name, seed) in [("GEMM", 105), ("SpMM-2:4", 106), ("SpMM-2:8", 107)] {
        let (a, b) = grid_operands(name, seed);
        for (r, c) in LADDER.into_iter().chain([(16, 8)]) {
            assert_pick_near_best(&format!("{name}@{r}x{c}"), &geometry(r, c), &a, &b);
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "brute-forces every fold height at up to 128x64; run with --release"
)]
fn cost_model_pick_is_near_the_best_fold_on_the_large_tier() {
    // `repro bench`'s large-tier GEMM / N:M shapes, with its per-kernel
    // data memory `max(default, K / rows)`.
    let shapes = [
        TensorOp::Gemm {
            m: 8,
            k: 16_384,
            n: 256,
        },
        TensorOp::SpmmNm {
            m: 32,
            k: 2048,
            n: 256,
            n_of: 2,
            m_of: 4,
        },
        TensorOp::Gemm {
            m: 2,
            k: 524_288,
            n: 256,
        },
    ];
    for (rows, cols) in [(64, 64), (128, 64)] {
        for (i, op) in shapes.iter().enumerate() {
            let (TensorOp::Gemm { m, k, .. } | TensorOp::SpmmNm { m, k, .. }) = *op else {
                unreachable!("register-accumulation shapes only")
            };
            let default = geometry(rows, cols);
            let cfg = CanonConfig {
                dmem_words: default.dmem_words.max(k / rows),
                ..default
            };
            if fold_candidates(&cfg, m, k) == [rows] {
                // One legal height (the deep-K band fills the data memory):
                // nothing to choose, and simulating it would only repeat the
                // unfolded mapping's own tests.
                assert_eq!(pick_fold(&cfg, m, k, m * k), rows);
                continue;
            }
            let (a, b) = operands(op, 201 + i as u64);
            assert_pick_near_best(&format!("{op:?}@{rows}x{cols}"), &cfg, &a, &b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every legal fold height computes exactly the reference product, for
    /// dense and N:M operands on random shapes and geometries.
    #[test]
    fn every_fold_height_matches_the_reference(
        rows_log in 1usize..5,
        cols_log in 0usize..3,
        m in 1usize..40,
        k_mult in 1usize..5,
        n in 1usize..40,
        dense in 0u8..2,
        seed in 0u64..1_000,
    ) {
        let rows = 1 << rows_log;
        let cfg = geometry(rows, 1 << cols_log);
        // K a multiple of 8 (the N:M group) and of rows.
        let k = 8 * rows * k_mult;
        let mut rng = gen::seeded_rng(seed);
        let a = if dense == 1 {
            dense_as_full_csr(&Dense::random(m, k, &mut rng))
        } else {
            gen::nm_sparse(m, k, 2, 8, &mut rng)
        };
        let b = Dense::random(k, n, &mut rng);
        let want = reference::spmm(&a, &b);
        let candidates = fold_candidates(&cfg, m, k);
        prop_assert!(!candidates.is_empty());
        for g in candidates {
            let out = run_spmm_folded(&cfg, &REGACC, &a, &b, g).expect("legal height maps");
            prop_assert_eq!(&out.result, &want, "group {}", g);
        }
    }
}
