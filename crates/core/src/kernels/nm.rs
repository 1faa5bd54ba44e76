//! N:M structured-sparse SpMM (§4.1.3).
//!
//! With exactly N non-zeros in every aligned group of M elements, the
//! non-zero coordinates are fed to the orchestrators just like unstructured
//! SpMM, but the per-row workload is balanced by construction: "there is no
//! need of workload balancing with scratchpad. Instead, the psum is flushed
//! to the next row of PEs for every N elements processed." Canon supports
//! *any* N:M ratio with the same mapping — unlike the 2:4 systolic baseline,
//! which is hard-wired to one ratio.
//!
//! The register-accumulation mapping is the one dense GEMM uses, row-group
//! fold included: [`pick_fold`](super::gemm::pick_fold) chooses the group
//! height from the structured stream's `nnz` (fewer MACs per row leave
//! fewer slots for the psum relays to ride on).

use crate::config::CanonConfig;
use crate::kernels::spmm::{self, SpmmMapping};
use crate::kernels::{KernelOutput, Mapping, Operands};
use crate::SimError;
use canon_sparse::{CsrMatrix, Dense};

/// Verifies that `a` actually satisfies the N:M pattern (at most `n` non-zeros
/// in every aligned group of `m_group` columns).
///
/// # Errors
///
/// Returns [`SimError::Mapping`] describing the first violating group.
pub fn check_nm_structure(a: &CsrMatrix, n: usize, m_group: usize) -> Result<(), SimError> {
    if m_group == 0 || !a.cols().is_multiple_of(m_group) {
        return Err(SimError::Mapping {
            reason: format!(
                "K = {} must be a positive multiple of the group size {m_group}",
                a.cols()
            ),
        });
    }
    for r in 0..a.rows() {
        let mut counts = vec![0usize; a.cols() / m_group];
        for (c, _) in a.row_iter(r) {
            counts[c / m_group] += 1;
        }
        if let Some((g, &cnt)) = counts.iter().enumerate().find(|&(_, &cnt)| cnt > n) {
            return Err(SimError::Mapping {
                reason: format!(
                    "row {r}, group {g}: {cnt} non-zeros violate {n}:{m_group} structure"
                ),
            });
        }
    }
    Ok(())
}

/// Compiles N:M structured SpMM: SpMM's register accumulation (no
/// scratchpad window) under the cost model's row-group fold, exploiting the
/// compile-time-known balance.
///
/// # Errors
///
/// Returns [`SimError::Mapping`] if `a` violates the claimed structure or the
/// SpMM shape constraints fail.
pub fn compile(
    cfg: &CanonConfig,
    a: &CsrMatrix,
    b: &Dense,
    n: usize,
    m_group: usize,
) -> Result<Mapping, SimError> {
    check_nm_structure(a, n, m_group)?;
    spmm::compile(
        cfg,
        &SpmmMapping::REGISTER,
        (a.rows(), a.cols(), a.nnz()),
        b,
    )
}

/// Runs N:M structured SpMM on Canon: [`compile`], then
/// [`execute`](super::execute)'s executor.
///
/// # Errors
///
/// As [`compile`]; propagates simulation errors.
pub fn run_spmm_nm(
    cfg: &CanonConfig,
    a: &CsrMatrix,
    b: &Dense,
    n: usize,
    m_group: usize,
) -> Result<KernelOutput, SimError> {
    let map = compile(cfg, a, b, n, m_group)?;
    super::run_tiles(cfg, &map, Operands::Stream { a, b }, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_sparse::{gen, reference};

    #[test]
    fn nm_2_4_matches_reference() {
        let mut rng = gen::seeded_rng(41);
        let a = gen::nm_sparse(32, 64, 2, 4, &mut rng);
        let b = Dense::random(64, 32, &mut rng);
        let out = run_spmm_nm(&CanonConfig::default(), &a, &b, 2, 4).unwrap();
        assert_eq!(out.result, reference::spmm(&a, &b));
        assert_eq!(out.report.stats.spad_reads, 0);
    }

    #[test]
    fn nm_2_8_matches_reference() {
        let mut rng = gen::seeded_rng(42);
        let a = gen::nm_sparse(32, 64, 2, 8, &mut rng);
        let b = Dense::random(64, 32, &mut rng);
        let out = run_spmm_nm(&CanonConfig::default(), &a, &b, 2, 8).unwrap();
        assert_eq!(out.result, reference::spmm(&a, &b));
    }

    #[test]
    fn nm_speedup_over_dense_grows_with_sparsity() {
        let mut rng = gen::seeded_rng(43);
        let b = Dense::random(64, 32, &mut rng);
        let a24 = gen::nm_sparse(64, 64, 2, 4, &mut rng);
        let a28 = gen::nm_sparse(64, 64, 2, 8, &mut rng);
        let c24 = run_spmm_nm(&CanonConfig::default(), &a24, &b, 2, 4)
            .unwrap()
            .report
            .cycles;
        let c28 = run_spmm_nm(&CanonConfig::default(), &a28, &b, 2, 8)
            .unwrap()
            .report
            .cycles;
        assert!(
            c28 < c24,
            "2:8 ({c28} cycles) should be faster than 2:4 ({c24} cycles)"
        );
    }

    #[test]
    fn structure_check_rejects_unstructured() {
        let mut rng = gen::seeded_rng(44);
        let a = gen::random_sparse(16, 32, 0.2, &mut rng); // dense-ish: groups overflow
        assert!(check_nm_structure(&a, 2, 4).is_err());
        let ok = gen::nm_sparse(16, 32, 2, 4, &mut rng);
        assert!(check_nm_structure(&ok, 2, 4).is_ok());
        // 2:4 matrices trivially satisfy 2:4 but also looser 4:4.
        assert!(check_nm_structure(&ok, 4, 4).is_ok());
        assert!(check_nm_structure(&ok, 2, 0).is_err());
    }
}
