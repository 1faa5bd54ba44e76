//! Golden cycle-count invariance: the zero-allocation hot-path refactor
//! (lazy `ErrCtx` error context, ring-buffer links, in-place sink draining,
//! enum-dispatched row programs, rotating PE pipeline slots, shared operand
//! cache) must be **perf-only** — architectural behaviour is pinned here.
//!
//! The constants below were captured on the pre-refactor simulator (PR 2
//! head, commit `eeb8133`) for one GEMM, one SpMM and one SDDMM smoke
//! shape, plus one fabric-level run whose full south-collector sequence
//! (tag, lane, exit cycle, payload) is fingerprinted. Any divergence in
//! cycle counts, activity counters, results, or collector sequences fails
//! this suite. A deliberate model change re-pins the constants it moves
//! (the GEMM golden's cycles and traffic moved with the row-group fold of
//! the register-accumulation mapping; its result fingerprint did not).
//!
//! The N:M, zero-padded SDDMM and window goldens were captured at commit
//! `c0dfa9a`, before the mappers became one compile step and one executor.
//! The SDDMM and window ones run on 16×16, where `cols·LANES = 64` exceeds
//! `head_dim = 32`, so `K` is zero-padded; the off-chip byte counts pin
//! that the padded `K` is priced (`N·K_padded` preload bytes).

use canon::arch::kernels::{run_kernel, KernelOutput};
use canon::arch::CanonConfig;
use canon::sparse::Dense;
use canon::sweep::backend::kernel_input;
use canon::sweep::store::fnv1a64;
use canon::workloads::TensorOp;
use canon_bench::bench::golden_spmm_fabric;

/// FNV-1a over the little-endian result matrix — byte-identical outputs.
fn result_fp(result: &Dense) -> u64 {
    let mut bytes = Vec::with_capacity(result.as_slice().len() * 4);
    for &v in result.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

struct Golden {
    op: TensorOp,
    seed: u64,
    /// Fabric `(rows, cols)`.
    geometry: (usize, usize),
    cycles: u64,
    instrs: u64,
    macs: u64,
    noc_hops: u64,
    stalls: u64,
    result_fp: u64,
    /// Off-chip `(read, write)` bytes.
    offchip: (u64, u64),
}

fn run(golden: &Golden) -> KernelOutput {
    let input = kernel_input(&golden.op, golden.seed);
    let (rows, cols) = golden.geometry;
    let cfg = CanonConfig::default().with_geometry(rows, cols);
    run_kernel(&cfg, &input).expect("golden shape maps")
}

/// A 16×8 multi-row staggered-issue run, pinning the batched row-issue path
/// (per-PE sweep + injection queue) at a non-default, taller geometry —
/// the 8×8 goldens alone would let a row-indexing bug that only shows past
/// row 7 slip through. Captured on the pre-refactor simulator (PR 3 head,
/// commit `e682a8f`): skewed 48×64 SpMM at seed 41, so rows drain at
/// different times and the live PE count shrinks mid-run.
#[test]
fn spmm_16x8_multi_row_golden() {
    let cfg = CanonConfig::default().with_geometry(16, 8);
    let mut rng = canon::sparse::gen::seeded_rng(41);
    let a = canon::sparse::gen::skewed_sparse(48, 64, 0.6, 2.0, &mut rng);
    let b = Dense::random(64, 32, &mut rng);
    let input = canon::arch::kernels::KernelInput::Spmm {
        a,
        b,
        mapping: Default::default(),
    };
    let out = run_kernel(&cfg, &input).expect("16x8 shape maps");
    assert_eq!(out.report.cycles, 328, "cycle count drifted");
    assert_eq!(out.report.stats.instrs_executed, 31032);
    assert_eq!(out.report.stats.mac_instrs, 11112);
    assert_eq!(out.report.stats.noc_hops, 15416);
    assert_eq!(out.report.stats.stall_cycles, 0);
    assert_eq!(out.report.stats.orch_steps, 3879);
    assert_eq!(result_fp(&out.result), 0x2f6094fb58ae9df8, "result drifted");
}

#[test]
fn gemm_golden_cycles_and_result() {
    check(&Golden {
        op: TensorOp::Gemm {
            m: 32,
            k: 32,
            n: 32,
        },
        seed: 11,
        geometry: (8, 8),
        // Register accumulation at row-group fold g = 1 on this shape.
        cycles: 169,
        instrs: 8736,
        macs: 8192,
        noc_hops: 1152,
        stalls: 0,
        result_fp: 0x17ce2c8a6b0d0c57,
        offchip: (2080, 1024),
    });
}

#[test]
fn spmm_golden_cycles_and_result() {
    check(&Golden {
        op: TensorOp::Spmm {
            m: 32,
            k: 64,
            n: 32,
            sparsity: 0.6,
        },
        seed: 12,
        geometry: (8, 8),
        cycles: 282,
        instrs: 13424,
        macs: 7624,
        noc_hops: 4112,
        stalls: 0,
        result_fp: 0x6ee5d7aed34af86a,
        offchip: (3986, 1024),
    });
}

#[test]
fn sddmm_golden_cycles_and_result() {
    check(&Golden {
        op: TensorOp::SddmmUnstructured {
            seq: 32,
            head_dim: 32,
            sparsity: 0.5,
        },
        seed: 13,
        geometry: (8, 8),
        cycles: 242,
        instrs: 12592,
        macs: 4296,
        noc_hops: 6344,
        stalls: 176,
        result_fp: 0x6e76c7959a3fef83,
        offchip: (3154, 537),
    });
}

#[test]
fn nm_golden_cycles_and_result() {
    // Two column tiles (N = 40 on a 32-wide tile) under the row-group fold.
    check(&Golden {
        op: TensorOp::SpmmNm {
            m: 48,
            k: 64,
            n: 40,
            n_of: 2,
            m_of: 8,
        },
        seed: 14,
        geometry: (8, 8),
        cycles: 278,
        instrs: 13632,
        macs: 12288,
        noc_hops: 3456,
        stalls: 0,
        result_fp: 0xd7e9ebdd857cca69,
        offchip: (4144, 1920),
    });
}

#[test]
fn padded_sddmm_golden_cycles_and_result() {
    check(&Golden {
        op: TensorOp::SddmmUnstructured {
            seq: 32,
            head_dim: 32,
            sparsity: 0.5,
        },
        seed: 15,
        geometry: (16, 16),
        cycles: 232,
        instrs: 38224,
        macs: 8432,
        noc_hops: 16624,
        stalls: 625,
        result_fp: 0x0591b72d9474e3d4,
        offchip: (5182, 527),
    });
}

#[test]
fn padded_window_golden_cycles_and_result() {
    check(&Golden {
        op: TensorOp::SddmmWindow {
            seq: 64,
            window: 8,
            head_dim: 32,
        },
        seed: 16,
        geometry: (16, 16),
        cycles: 247,
        instrs: 43328,
        macs: 8896,
        noc_hops: 25280,
        stalls: 426,
        result_fp: 0x091ac82b0dc9fa4e,
        offchip: (9368, 556),
    });
}

fn check(golden: &Golden) {
    let out = run(golden);
    assert_eq!(out.report.cycles, golden.cycles, "cycle count drifted");
    assert_eq!(out.report.stats.instrs_executed, golden.instrs);
    assert_eq!(out.report.stats.mac_instrs, golden.macs);
    assert_eq!(out.report.stats.noc_hops, golden.noc_hops);
    assert_eq!(out.report.stats.stall_cycles, golden.stalls);
    assert_eq!(result_fp(&out.result), golden.result_fp, "result drifted");
    let stats = &out.report.stats;
    assert_eq!(
        (stats.offchip_read_bytes, stats.offchip_write_bytes),
        golden.offchip,
        "off-chip traffic drifted"
    );
}

/// Fabric-level run pinning the *full collected-entry sequence*: every
/// south-exiting value's tag, lane, exit cycle, and payload, in collection
/// order, hashed as one stream. The fabric is the same scenario `repro
/// bench` profiles for allocations (one shared constructor), so the
/// zero-allocation claim and this golden always describe the same run.
#[test]
fn fabric_spmm_collector_sequence_golden() {
    let mut fabric = golden_spmm_fabric();
    let report = fabric.run().unwrap();
    assert_eq!(report.cycles, 164, "cycle count drifted");
    assert_eq!(fabric.south_collected().len(), 584);
    let mut bytes = Vec::new();
    for e in fabric.south_collected() {
        bytes.extend_from_slice(&e.tag.to_le_bytes());
        bytes.extend_from_slice(&(e.lane as u64).to_le_bytes());
        bytes.extend_from_slice(&e.cycle.to_le_bytes());
        for lane in e.value.0 {
            bytes.extend_from_slice(&lane.to_le_bytes());
        }
    }
    assert_eq!(
        fnv1a64(&bytes),
        0x0eafeec65aa2f469,
        "collected-entry sequence drifted"
    );
}
