//! Sliding-window SDDMM (structured sparse attention, §4.1.3).
//!
//! Window attention (Longformer, Mistral) makes the SDDMM output mask a
//! diagonal band known at compile time. Canon maps it with the ordinary
//! SDDMM dataflow — the orchestrator simply skips non-window positions for
//! free, and the balanced band eliminates buffering stalls.
//!
//! Architectures without window support must convert the computation into
//! dense operations via the *sliding chunk* decomposition (Longformer's
//! implementation): the sequence is cut into overlapping chunks of twice the
//! window width and each chunk computes a dense `chunk × chunk` score block.
//! [`sliding_chunk_shapes`] produces those dense GEMM shapes so the baseline
//! simulators can be charged the same work the paper charges them.

use crate::config::CanonConfig;
use crate::kernels::sddmm::{compile, ColPartition, SddmmMapping};
use crate::kernels::{run_kernel, KernelInput, KernelOutput, Mapping};
use crate::SimError;
use canon_sparse::{gen, Dense, Mask};

/// A window-attention workload: the QKᵀ score computation of one head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowAttention {
    /// Sequence length (number of query/key rows).
    pub seq: usize,
    /// Total attention window width (positions `|i-j| <= window/2` are kept).
    pub window: usize,
    /// Head dimension (the contraction length `K`).
    pub head_dim: usize,
}

impl WindowAttention {
    /// The Longformer/BERT configuration scaled to a given sequence length
    /// (paper: window 512, sequence 4K).
    pub fn longformer(seq: usize) -> WindowAttention {
        WindowAttention {
            seq,
            window: seq / 8,
            head_dim: 64,
        }
    }

    /// The Mistral-7B configuration shape (paper: window 4K, context 16K —
    /// i.e. window = seq/4).
    pub fn mistral(seq: usize) -> WindowAttention {
        WindowAttention {
            seq,
            window: seq / 4,
            head_dim: 128,
        }
    }

    /// Output sparsity of the banded mask.
    pub fn mask_sparsity(&self) -> f64 {
        gen::window_mask(self.seq, self.window).sparsity()
    }

    /// Compiles the window SDDMM from its shape alone. The compiler knows
    /// the mask is a diagonal band and selects the interleaved column
    /// partitioning ([`ColPartition::Cyclic`]), spreading each band across
    /// all rows; the `A` buffer keeps the default depth.
    ///
    /// # Errors
    ///
    /// Returns the SDDMM mapping errors of this shape.
    pub fn compile(&self, cfg: &CanonConfig) -> Result<Mapping, SimError> {
        let mapping = SddmmMapping {
            partition: ColPartition::Cyclic,
            ..SddmmMapping::default()
        };
        let (seq, dim) = (self.seq, self.head_dim);
        compile(cfg, &mapping, (seq, dim), (seq, dim), (seq, seq))
    }

    /// The operands generated from `seed`: random `Q` and `K`
    /// (`seq × head_dim`, in that order) and the banded mask.
    pub fn operands(&self, seed: u64) -> (Dense, Dense, Mask) {
        let mut rng = gen::seeded_rng(seed);
        let q = Dense::random(self.seq, self.head_dim, &mut rng);
        let k = Dense::random(self.seq, self.head_dim, &mut rng);
        (q, k, gen::window_mask(self.seq, self.window))
    }
}

/// Runs window SDDMM on Canon for the given attention shape, generating
/// random Q/K operands from `seed`: [`run_kernel`] on
/// [`KernelInput::Window`].
///
/// # Errors
///
/// Propagates SDDMM mapping and simulation errors.
pub fn run_window_attention(
    cfg: &CanonConfig,
    wa: &WindowAttention,
    seed: u64,
) -> Result<KernelOutput, SimError> {
    run_kernel(cfg, &KernelInput::Window { wa: *wa, seed })
}

/// Dense GEMM shapes `(m, n, k)` of the sliding-chunk decomposition used by
/// the window-oblivious baselines: chunks of `window` rows each compute a
/// dense block against `2·window` keys (clamped at the sequence ends).
pub fn sliding_chunk_shapes(
    seq: usize,
    window: usize,
    head_dim: usize,
) -> Vec<(usize, usize, usize)> {
    if window == 0 || seq == 0 {
        return Vec::new();
    }
    let chunk = window.max(1);
    let mut shapes = Vec::new();
    let mut start = 0;
    while start < seq {
        let rows = chunk.min(seq - start);
        let key_lo = start.saturating_sub(window / 2);
        let key_hi = (start + rows + window / 2).min(seq);
        shapes.push((rows, key_hi - key_lo, head_dim));
        start += chunk;
    }
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_sparse::reference;

    #[test]
    fn window_attention_matches_reference() {
        let cfg = CanonConfig::default();
        let wa = WindowAttention {
            seq: 16,
            window: 4,
            head_dim: 32,
        };
        let out = run_window_attention(&cfg, &wa, 7).unwrap();
        // Recompute the reference with the same seed.
        let mut rng = gen::seeded_rng(7);
        let q = Dense::random(16, 32, &mut rng);
        let k = Dense::random(16, 32, &mut rng);
        let mask = gen::window_mask(16, 4);
        assert_eq!(out.result, reference::sddmm(&mask, &q, &k));
    }

    #[test]
    fn chunk_shapes_cover_sequence() {
        let shapes = sliding_chunk_shapes(64, 8, 16);
        let total_rows: usize = shapes.iter().map(|s| s.0).sum();
        assert_eq!(total_rows, 64);
        // Interior chunks see 2x window keys.
        assert!(shapes[1].1 >= 8);
    }

    #[test]
    fn chunk_macs_exceed_band_macs() {
        // The dense decomposition wastes work relative to the exact band.
        let seq = 128;
        let window = 16;
        let k = 32;
        let band_macs = gen::window_mask(seq, window).nnz() as u64 * k as u64;
        let chunk: u64 = sliding_chunk_shapes(seq, window, k)
            .iter()
            .map(|&(m, n, k)| (m * n * k) as u64)
            .sum();
        assert!(
            chunk > band_macs,
            "chunked {chunk} should exceed banded {band_macs}"
        );
    }

    #[test]
    fn chunk_shapes_degenerate() {
        assert!(sliding_chunk_shapes(0, 8, 16).is_empty());
        assert!(sliding_chunk_shapes(8, 0, 16).is_empty());
    }

    #[test]
    fn preset_configs() {
        let lf = WindowAttention::longformer(4096);
        assert_eq!(lf.window, 512);
        let mi = WindowAttention::mistral(16384);
        assert_eq!(mi.window, 4096);
        assert!(mi.mask_sparsity() > 0.5);
        assert!(lf.mask_sparsity() > mi.mask_sparsity() * 0.9);
    }
}
