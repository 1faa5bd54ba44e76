//! Mapping invariants of the register-accumulation (GEMM / N:M) mapping and
//! its row-group fold (see `canon_core::kernels::gemm`), and the compiled
//! mappings of the sweep grid.
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
//!   `canon_sparse::reference`, on random shapes and geometries, reached by
//!   moving the compiled `Mapping` with `with_fold`.
//! * Compile table: `kernels::compile`'s columns, fold, words, tiles and
//!   padded `K` for every Canon tensor cell of the standard grid.
//!
//! Every simulated output here is checked against the reference. The two
//! brute-force tests simulate every legal height of full-size shapes up to
//! 128×64, so they only run in optimized builds (`cargo test --release`;
//! CI's release + debug-assertions job passes `--include-ignored`).

use canon::arch::kernels::gemm::{dense_as_full_csr, fold_candidates, pick_fold, run_gemm};
use canon::arch::kernels::spmm::{run_spmm, SpmmMapping};
use canon::arch::kernels::{compile, execute, KernelInput};
use canon::arch::CanonConfig;
use canon::energy::Arch;
use canon::sparse::{gen, reference, Dense};
use canon::sweep::backend::kernel_input;
use canon::sweep::scenario::{standard_workloads, ScenarioGrid};
use canon::workloads::{TensorOp, Workload};
use proptest::prelude::*;

/// The square geometries of the scaling ladder.
const LADDER: [(usize, usize); 4] = [(8, 8), (16, 16), (32, 32), (64, 64)];

/// A sweep-grid tensor workload at full scale.
fn grid_input(name: &str, seed: u64) -> KernelInput {
    let spec = standard_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no standard workload {name}"));
    match spec.template.instantiate(None, 1) {
        Workload::Tensor(op) => kernel_input(&op, seed),
        other => panic!("{name} is not a tensor workload: {other:?}"),
    }
}

/// The reference product of a GEMM / N:M input.
fn reference_of(input: &KernelInput) -> Dense {
    match input {
        KernelInput::Gemm { a, b } => reference::gemm(a, b),
        KernelInput::SpmmNm { a, b, .. } => reference::spmm(a, b),
        other => panic!("not a register-accumulation input: {other:?}"),
    }
}

/// `A`'s shape `(m, k)` of a GEMM / N:M input.
fn a_shape(input: &KernelInput) -> (usize, usize) {
    match input {
        KernelInput::Gemm { a, .. } => (a.rows(), a.cols()),
        KernelInput::SpmmNm { a, .. } => (a.rows(), a.cols()),
        other => panic!("not a register-accumulation input: {other:?}"),
    }
}

fn geometry(rows: usize, cols: usize) -> CanonConfig {
    CanonConfig::default().with_geometry(rows, cols)
}

/// Cycles of the compiled mapping moved to height `group` (the cost
/// model's pick when `None`), after checking the output.
fn regacc_cycles(cfg: &CanonConfig, input: &KernelInput, group: Option<usize>) -> u64 {
    let geom = (cfg.rows, cfg.cols);
    let compiled = compile(cfg, input).expect("compiles");
    let map = compiled
        .with_fold(cfg, group.unwrap_or(compiled.fold))
        .unwrap_or_else(|e| panic!("{geom:?} group {group:?}: {e}"));
    let out =
        execute(cfg, &map, input, None).unwrap_or_else(|e| panic!("{geom:?} group {group:?}: {e}"));
    assert_eq!(
        out.result,
        reference_of(input),
        "{geom:?} group {group:?}: output differs from the reference"
    );
    out.report.cycles
}

/// The compiled mapping of every Canon tensor cell of the full-scale
/// standard grid along the square ladder: columns used, fold height,
/// stationary words per PE, output tiles and padded `K`. A mapper change
/// shows up as a diff to this table.
const MAPPING_TABLE: &str = "
GEMM@8x8          cols=8  fold=1  words=256 tiles=4 k=256
GEMM@16x16        cols=16 fold=1  words=256 tiles=2 k=256
GEMM@32x32        cols=32 fold=1  words=256 tiles=1 k=256
GEMM@64x64        cols=64 fold=1  words=256 tiles=1 k=256
SpMM-S1@8x8       cols=8  fold=8  words=32  tiles=4 k=256
SpMM-S1@16x16     cols=16 fold=16 words=16  tiles=2 k=256
SpMM-S1@32x32     cols=32 fold=32 words=8   tiles=1 k=256
SpMM-S1@64x64     cols=64 fold=64 words=4   tiles=1 k=256
SpMM-S2@8x8       cols=8  fold=8  words=32  tiles=4 k=256
SpMM-S2@16x16     cols=16 fold=16 words=16  tiles=2 k=256
SpMM-S2@32x32     cols=32 fold=32 words=8   tiles=1 k=256
SpMM-S2@64x64     cols=64 fold=64 words=4   tiles=1 k=256
SpMM-S3@8x8       cols=8  fold=8  words=32  tiles=4 k=256
SpMM-S3@16x16     cols=16 fold=16 words=16  tiles=2 k=256
SpMM-S3@32x32     cols=32 fold=32 words=8   tiles=1 k=256
SpMM-S3@64x64     cols=64 fold=64 words=4   tiles=1 k=256
SpMM-2:4@8x8      cols=8  fold=1  words=256 tiles=4 k=256
SpMM-2:4@16x16    cols=16 fold=1  words=256 tiles=2 k=256
SpMM-2:4@32x32    cols=32 fold=1  words=256 tiles=1 k=256
SpMM-2:4@64x64    cols=64 fold=1  words=256 tiles=1 k=256
SpMM-2:8@8x8      cols=8  fold=1  words=256 tiles=4 k=256
SpMM-2:8@16x16    cols=16 fold=1  words=256 tiles=2 k=256
SpMM-2:8@32x32    cols=32 fold=1  words=256 tiles=1 k=256
SpMM-2:8@64x64    cols=64 fold=1  words=256 tiles=1 k=256
SDDMM-S1@8x8      cols=8  fold=8  words=32  tiles=1 k=64
SDDMM-S1@16x16    cols=16 fold=16 words=8   tiles=1 k=64
SDDMM-S1@32x32    cols=32 fold=32 words=4   tiles=1 k=128
SDDMM-S1@64x64    cols=64 fold=64 words=2   tiles=1 k=256
SDDMM-S2@8x8      cols=8  fold=8  words=32  tiles=1 k=64
SDDMM-S2@16x16    cols=16 fold=16 words=8   tiles=1 k=64
SDDMM-S2@32x32    cols=32 fold=32 words=4   tiles=1 k=128
SDDMM-S2@64x64    cols=64 fold=64 words=2   tiles=1 k=256
SDDMM-S3@8x8      cols=8  fold=8  words=32  tiles=1 k=64
SDDMM-S3@16x16    cols=16 fold=16 words=8   tiles=1 k=64
SDDMM-S3@32x32    cols=32 fold=32 words=4   tiles=1 k=128
SDDMM-S3@64x64    cols=64 fold=64 words=2   tiles=1 k=256
SDDMM-Win1@8x8    cols=8  fold=8  words=64  tiles=1 k=64
SDDMM-Win1@16x16  cols=16 fold=16 words=16  tiles=1 k=64
SDDMM-Win1@32x32  cols=32 fold=32 words=8   tiles=1 k=128
SDDMM-Win1@64x64  cols=64 fold=64 words=4   tiles=1 k=256
SDDMM-Win2@8x8    cols=8  fold=8  words=256 tiles=1 k=128
SDDMM-Win2@16x16  cols=16 fold=16 words=64  tiles=1 k=128
SDDMM-Win2@32x32  cols=32 fold=32 words=16  tiles=1 k=128
SDDMM-Win2@64x64  cols=64 fold=64 words=8   tiles=1 k=256
";

#[test]
fn compile_table_of_the_standard_grid_along_the_ladder() {
    let mut table = String::from("\n");
    for cell in ScenarioGrid::standard(1).scenarios {
        let Workload::Tensor(op) = cell.op else {
            continue;
        };
        if cell.arch != Arch::Canon {
            continue;
        }
        let input = kernel_input(&op, cell.seed);
        for (r, c) in LADDER {
            let map = compile(&geometry(r, c), &input).expect("grid cell compiles");
            let label = format!("{}@{r}x{c}", cell.cell_label().split('@').next().unwrap());
            table.push_str(&format!(
                "{label:<17} cols={:<2} fold={:<2} words={:<3} tiles={} k={}\n",
                map.cols, map.fold, map.words, map.tiles, map.k
            ));
        }
    }
    assert_eq!(table, MAPPING_TABLE, "compiled mappings drifted");
}

#[test]
fn regacc_cycles_do_not_rise_along_the_square_ladder() {
    for (name, seed) in [("GEMM", 101), ("SpMM-2:4", 102), ("SpMM-2:8", 103)] {
        let input = grid_input(name, seed);
        let cycles: Vec<u64> = LADDER
            .iter()
            .map(|&(r, c)| regacc_cycles(&geometry(r, c), &input, None))
            .collect();
        assert!(
            cycles.windows(2).all(|w| w[1] <= w[0]),
            "{name}: cycles rise along {LADDER:?}: {cycles:?}"
        );
    }
}

#[test]
fn dense_gemm_is_no_slower_than_the_scratchpad_mapping() {
    let KernelInput::Gemm { a: dense, b } = grid_input("GEMM", 104) else {
        unreachable!("GEMM is dense")
    };
    let a = dense_as_full_csr(&dense);
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

/// Asserts the compiled fold (the cost model's pick) simulates within 2% of
/// the best legal height on `cfg`, brute-forcing every legal height.
fn assert_pick_near_best(label: &str, cfg: &CanonConfig, input: &KernelInput) {
    let (m, k) = a_shape(input);
    let candidates = fold_candidates(cfg, m, k);
    let pick = compile(cfg, input).expect("compiles").fold;
    assert!(
        candidates.contains(&pick),
        "{label}: pick {pick} not in {candidates:?}"
    );
    let per_height: Vec<(usize, u64)> = candidates
        .iter()
        .map(|&g| (g, regacc_cycles(cfg, input, Some(g))))
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
        let input = grid_input(name, seed);
        for (r, c) in LADDER.into_iter().chain([(16, 8)]) {
            assert_pick_near_best(&format!("{name}@{r}x{c}"), &geometry(r, c), &input);
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
            let input = kernel_input(op, 201 + i as u64);
            assert_pick_near_best(&format!("{op:?}@{rows}x{cols}"), &cfg, &input);
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
        let input = if dense == 1 {
            let a = Dense::random(m, k, &mut rng);
            KernelInput::Gemm { a, b: Dense::random(k, n, &mut rng) }
        } else {
            let a = gen::nm_sparse(m, k, 2, 8, &mut rng);
            KernelInput::SpmmNm { a, b: Dense::random(k, n, &mut rng), n_of: 2, m_of: 8 }
        };
        let want = reference_of(&input);
        let compiled = compile(&cfg, &input).expect("compiles");
        let candidates = fold_candidates(&cfg, m, k);
        prop_assert!(!candidates.is_empty());
        for g in candidates {
            let map = compiled.with_fold(&cfg, g).expect("legal height maps");
            let out = execute(&cfg, &map, &input, None).expect("legal height runs");
            prop_assert_eq!(&out.result, &want, "group {}", g);
        }
    }
}
