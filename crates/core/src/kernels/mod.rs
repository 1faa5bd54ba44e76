//! Kernel mappings (§4, Appendices A–D).
//!
//! Each submodule maps one kernel family onto the Canon fabric: it lays out
//! the stationary operand across PE data memories, builds the per-row
//! meta-data streams the compiler would generate, installs the orchestrator
//! FSM ("microcode"), runs the fabric, and reassembles the output from the
//! edge collectors.
//!
//! | Kernel | Paper section | Module |
//! |---|---|---|
//! | SpMM (unstructured, Gustavson dataflow, Listing 1 FSM) | §4.1.1, App A/C | [`spmm`] |
//! | Dense GEMM (systolic-style emulation, register accumulation) | §6.2 | [`gemm`] |
//! | N:M structured SpMM (2:4, 2:8, any N:M) | §4.1.3 | [`nm`] |
//! | SDDMM (unstructured mask) | §4.1.2, App B | [`sddmm`] |
//! | Sliding-window SDDMM (Longformer/Mistral attention) | §4.1.3 | [`window`] |
//! | Static spatial (place-and-route) execution | App D | [`spatial`] |
//!
//! [`run_kernel`] is the uniform entry point over all of the above: callers
//! that dispatch workloads generically (the `canon-sweep` backends, the
//! harness figures) build a [`KernelInput`] and get a [`KernelOutput`] back,
//! without naming the per-kernel `run_*` functions.

pub mod gemm;
pub mod nm;
pub mod sddmm;
pub mod spatial;
pub mod spmm;
pub mod window;

use crate::config::CanonConfig;
use crate::fabric::Fabric;
use crate::isa::{Vector, LANES};
use crate::stats::RunReport;
use crate::SimError;
use canon_sparse::{CsrMatrix, Dense, Mask, Value};

/// Places a stationary operand in data-memory words `0..words` of every PE,
/// filling the address-major slab in its own order: for each word `a` and
/// PE row `r`, `segment(a, r)` yields the row's `cols · LANES` lanes for
/// that word, PE column by PE column (lanes past the end of a shorter
/// segment are zero). Writes are uncounted, like the EDDO memory movers
/// they model (see [`crate::pe::MemMut::preload`]).
///
/// # Panics
///
/// Panics when `words` exceeds the data-memory capacity; mappers report
/// that as [`SimError::Mapping`] before calling.
pub(crate) fn preload_stationary<'b>(
    fabric: &mut Fabric,
    words: usize,
    mut segment: impl FnMut(usize, usize) -> &'b [Value],
) {
    let cols = fabric.config().cols;
    for a in 0..words {
        for (r, pes) in fabric.dmem_row_mut(a).chunks_exact_mut(cols).enumerate() {
            let src = segment(a, r);
            let whole = src[..src.len().min(cols * LANES)].chunks_exact(LANES);
            let (filled, ragged) = (whole.len(), whole.remainder());
            for (pe, lanes) in pes.iter_mut().zip(whole) {
                *pe = Vector(lanes.try_into().expect("LANES-wide chunk"));
            }
            if let Some((pe, rest)) = pes[filled..].split_first_mut() {
                let mut word = [0; LANES];
                word[..ragged.len()].copy_from_slice(ragged);
                *pe = Vector(word);
                rest.fill(Vector::ZERO);
            }
        }
    }
}

/// Materialized operands for one kernel invocation — the argument of the
/// uniform [`run_kernel`] dispatcher.
#[derive(Debug, Clone)]
pub enum KernelInput {
    /// Dense GEMM `C = A × B`.
    Gemm {
        /// Dense `M×K` operand.
        a: Dense,
        /// Dense `K×N` operand.
        b: Dense,
    },
    /// Unstructured SpMM `C = A × B` with mapping parameters.
    Spmm {
        /// Sparse `M×K` operand.
        a: CsrMatrix,
        /// Dense `K×N` operand.
        b: Dense,
        /// Scratchpad-window mapping.
        mapping: spmm::SpmmMapping,
    },
    /// N:M structured SpMM (register-accumulation mapping).
    SpmmNm {
        /// Sparse `M×K` operand satisfying `n_of:m_of` structure.
        a: CsrMatrix,
        /// Dense `K×N` operand.
        b: Dense,
        /// Non-zeros per group.
        n_of: usize,
        /// Group size.
        m_of: usize,
    },
    /// Unstructured SDDMM `C = mask · (Q × KVᵀ)`.
    Sddmm {
        /// Output mask (`M×N`).
        mask: Mask,
        /// Dense `M×K` query rows.
        q: Dense,
        /// Dense `N×K` key rows.
        kv: Dense,
        /// Buffer/partition mapping.
        mapping: sddmm::SddmmMapping,
    },
    /// Sliding-window SDDMM with operands generated from `seed`.
    Window {
        /// Attention shape.
        wa: window::WindowAttention,
        /// Operand-generation seed.
        seed: u64,
    },
}

/// The uniform result of [`run_kernel`]: the computed output plus the cycle
/// report, regardless of which kernel family ran.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelOutput {
    /// The computed dense result (masked positions zero for SDDMM).
    pub result: Dense,
    /// Cycle counts and activity counters.
    pub report: RunReport,
}

/// Runs any Canon kernel through one entry point.
///
/// # Errors
///
/// Returns [`SimError::Mapping`] when `cfg` fails
/// [`CanonConfig::validate`], and propagates the underlying kernel's
/// mapping and simulation errors.
pub fn run_kernel(cfg: &CanonConfig, input: &KernelInput) -> Result<KernelOutput, SimError> {
    cfg.validate()
        .map_err(|reason| SimError::Mapping { reason })?;
    match input {
        KernelInput::Gemm { a, b } => gemm::run_gemm(cfg, a, b),
        KernelInput::Spmm { a, b, mapping } => spmm::run_spmm(cfg, mapping, a, b),
        KernelInput::SpmmNm { a, b, n_of, m_of } => nm::run_spmm_nm(cfg, a, b, *n_of, *m_of),
        KernelInput::Sddmm {
            mask,
            q,
            kv,
            mapping,
        } => sddmm::run_sddmm(cfg, mapping, mask, q, kv),
        KernelInput::Window { wa, seed } => {
            window::run_window_attention(cfg, &sddmm::SddmmMapping::default(), wa, *seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_sparse::{gen, reference};

    #[test]
    fn run_kernel_matches_direct_entry_points() {
        let cfg = CanonConfig::default();
        let mut rng = gen::seeded_rng(77);
        let a = gen::random_sparse(32, 32, 0.5, &mut rng);
        let b = Dense::random(32, 32, &mut rng);
        let via_uniform = run_kernel(
            &cfg,
            &KernelInput::Spmm {
                a: a.clone(),
                b: b.clone(),
                mapping: spmm::SpmmMapping::default(),
            },
        )
        .unwrap();
        let direct = spmm::run_spmm(&cfg, &spmm::SpmmMapping::default(), &a, &b).unwrap();
        assert_eq!(via_uniform.result, direct.result);
        assert_eq!(via_uniform.report, direct.report);
        assert_eq!(via_uniform.result, reference::spmm(&a, &b));
    }

    #[test]
    fn run_kernel_covers_every_family() {
        let cfg = CanonConfig::default();
        let mut rng = gen::seeded_rng(78);
        let da = Dense::random(16, 32, &mut rng);
        let db = Dense::random(32, 16, &mut rng);
        let gemm = run_kernel(
            &cfg,
            &KernelInput::Gemm {
                a: da.clone(),
                b: db.clone(),
            },
        )
        .unwrap();
        assert_eq!(gemm.result, reference::gemm(&da, &db));

        let nm = gen::nm_sparse(16, 32, 2, 4, &mut rng);
        let out = run_kernel(
            &cfg,
            &KernelInput::SpmmNm {
                a: nm.clone(),
                b: db.clone(),
                n_of: 2,
                m_of: 4,
            },
        )
        .unwrap();
        assert_eq!(out.result, reference::spmm(&nm, &db));

        let q = Dense::random(16, 32, &mut rng);
        let kv = Dense::random(16, 32, &mut rng);
        let mask = gen::random_mask(16, 16, 0.5, &mut rng);
        let sddmm = run_kernel(
            &cfg,
            &KernelInput::Sddmm {
                mask: mask.clone(),
                q: q.clone(),
                kv: kv.clone(),
                mapping: sddmm::SddmmMapping::default(),
            },
        )
        .unwrap();
        assert_eq!(sddmm.result, reference::sddmm(&mask, &q, &kv));

        let win = run_kernel(
            &cfg,
            &KernelInput::Window {
                wa: window::WindowAttention {
                    seq: 32,
                    window: 8,
                    head_dim: 32,
                },
                seed: 5,
            },
        )
        .unwrap();
        assert!(win.report.cycles > 0);
    }

    fn assert_rejected(cfg: CanonConfig) {
        let mut rng = gen::seeded_rng(79);
        let input = KernelInput::Gemm {
            a: Dense::random(4, 0, &mut rng),
            b: Dense::random(0, 4, &mut rng),
        };
        match run_kernel(&cfg, &input) {
            Err(SimError::Mapping { reason }) => {
                assert_eq!(Err(reason), cfg.validate(), "{cfg:?}")
            }
            other => panic!("expected a mapping error for {cfg:?}, got {other:?}"),
        }
    }

    #[test]
    fn run_kernel_rejects_zero_rows() {
        assert_rejected(CanonConfig::default().with_geometry(0, 8));
    }

    #[test]
    fn run_kernel_rejects_zero_cols() {
        assert_rejected(CanonConfig::default().with_geometry(8, 0));
    }

    #[test]
    fn run_kernel_rejects_empty_dmem() {
        assert_rejected(CanonConfig {
            dmem_words: 0,
            ..CanonConfig::default()
        });
    }

    #[test]
    fn run_kernel_rejects_empty_spad() {
        assert_rejected(CanonConfig {
            spad_entries: 0,
            ..CanonConfig::default()
        });
    }

    #[test]
    fn run_kernel_rejects_zero_pipe_depth() {
        assert_rejected(CanonConfig {
            pipe_depth: 0,
            ..CanonConfig::default()
        });
    }

    #[test]
    fn run_kernel_rejects_shallow_link_fifos() {
        assert_rejected(CanonConfig {
            link_fifo_depth: 1,
            ..CanonConfig::default()
        });
    }

    /// The per-PE layout `spmm::preload_b_tile` wrote through
    /// `MemMut::preload` before the slab-order writer, under the row-group
    /// fold of height `group`: PE `(r, c)` word `i` is
    /// `B[(r mod group)·H + i][base + cL ..][..L]`, zero past either edge of
    /// `B`.
    fn per_pe_b_tile(fabric: &mut Fabric, b: &Dense, h: usize, group: usize, tile_base: usize) {
        let cfg = fabric.config().clone();
        for r in 0..cfg.rows {
            for c in 0..cfg.cols {
                let words: Vec<Vector> = (0..h)
                    .map(|i| {
                        let mut lanes = [0; LANES];
                        for (l, lane) in lanes.iter_mut().enumerate() {
                            *lane = b
                                .get((r % group) * h + i, tile_base + c * LANES + l)
                                .unwrap_or(0);
                        }
                        Vector(lanes)
                    })
                    .collect();
                fabric.pe_mut(r, c).dmem.preload(0, &words);
            }
        }
    }

    /// The per-PE layout SDDMM's stationary-`B` loop wrote through
    /// `MemMut::preload`: PE `(y, x)` word `h·W + w` is
    /// `B[n(y, h)][(w·X + x)·L ..][..L]`.
    fn per_pe_key_tiles(
        fabric: &mut Fabric,
        b: &Dense,
        h: usize,
        w: usize,
        partition: sddmm::ColPartition,
    ) {
        let cfg = fabric.config().clone();
        let n_global = |yy: usize, hh: usize| match partition {
            sddmm::ColPartition::Block => yy * h + hh,
            sddmm::ColPartition::Cyclic => hh * cfg.rows + yy,
        };
        for yy in 0..cfg.rows {
            for xx in 0..cfg.cols {
                let mut words = Vec::with_capacity(h * w);
                for hh in 0..h {
                    for ww in 0..w {
                        let mut lanes = [0; LANES];
                        for (v, lane) in lanes.iter_mut().enumerate() {
                            *lane = b[(n_global(yy, hh), (ww * cfg.cols + xx) * LANES + v)];
                        }
                        words.push(Vector(lanes));
                    }
                }
                fabric.pe_mut(yy, xx).dmem.preload(0, &words);
            }
        }
    }

    /// Asserts the two fabrics hold identical data memories on every word of
    /// every PE, and that the bulk preload counted no access.
    fn assert_same_dmem(bulk: &Fabric, per_pe: &Fabric) {
        let cfg = bulk.config();
        for r in 0..cfg.rows {
            for c in 0..cfg.cols {
                let (got, want) = (bulk.pe(r, c).dmem, per_pe.pe(r, c).dmem);
                for a in 0..cfg.dmem_words {
                    assert_eq!(got.word(a), want.word(a), "PE ({r}, {c}) word {a}");
                }
                assert_eq!((got.read_count(), got.write_count()), (0, 0));
            }
        }
        let stats = bulk.report().stats;
        assert_eq!((stats.dmem_reads, stats.dmem_writes), (0, 0));
    }

    /// A fabric whose data memories hold junk, so a preload that skips a
    /// padding word cannot pass by reading the constructor's zeros.
    fn dirty_fabric(cfg: &CanonConfig, north_edge_feeder: bool) -> Fabric {
        let mut fabric = Fabric::new(cfg, north_edge_feeder);
        for a in 0..cfg.dmem_words {
            fabric.dmem_row_mut(a).fill(Vector::splat(-7));
        }
        fabric
    }

    /// Geometries and data-memory sizes of the differential preload checks.
    fn preload_cfgs() -> Vec<CanonConfig> {
        [(8, 8, 64), (16, 8, 64), (64, 64, 24)]
            .into_iter()
            .map(|(rows, cols, dmem_words)| CanonConfig {
                dmem_words,
                ..CanonConfig::default().with_geometry(rows, cols)
            })
            .collect()
    }

    #[test]
    fn bulk_b_tile_preload_matches_per_pe_preload() {
        let mut rng = gen::seeded_rng(80);
        for cfg in preload_cfgs() {
            let tile_n = cfg.cols * LANES;
            let h = cfg.dmem_words / 2 + 1;
            let k = cfg.rows * h;
            // Two whole tiles plus a ragged third (N not a multiple of the
            // tile width), and a B with fewer rows than rows·h; unfolded and
            // folded (B replicated per row group) layouts.
            for (n, b_rows) in [(2 * tile_n + 3, k), (tile_n - 1, k - 5)] {
                let b = Dense::random(b_rows, n, &mut rng);
                for group in [cfg.rows, cfg.rows / 2, 1] {
                    for tile_base in (0..n).step_by(tile_n) {
                        let mut bulk = dirty_fabric(&cfg, false);
                        let mut per_pe = dirty_fabric(&cfg, false);
                        spmm::preload_b_tile(&mut bulk, &b, h, group, tile_base).unwrap();
                        per_pe_b_tile(&mut per_pe, &b, h, group, tile_base);
                        assert_same_dmem(&bulk, &per_pe);
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_key_tile_preload_matches_per_pe_preload() {
        let mut rng = gen::seeded_rng(81);
        for cfg in preload_cfgs() {
            let (w, h) = (2, cfg.dmem_words / 4);
            let b = Dense::random(cfg.rows * h, w * cfg.cols * LANES, &mut rng);
            for partition in [sddmm::ColPartition::Block, sddmm::ColPartition::Cyclic] {
                let mut bulk = dirty_fabric(&cfg, true);
                let mut per_pe = dirty_fabric(&cfg, true);
                sddmm::preload_key_tiles(&mut bulk, &b, h, w, partition);
                per_pe_key_tiles(&mut per_pe, &b, h, w, partition);
                assert_same_dmem(&bulk, &per_pe);
            }
        }
    }

    #[test]
    fn b_tile_deeper_than_dmem_is_a_mapping_error() {
        let cfg = CanonConfig::default();
        let mut fabric = Fabric::new(&cfg, false);
        let b = Dense::zeros(cfg.rows * (cfg.dmem_words + 1), 8);
        assert!(matches!(
            spmm::preload_b_tile(&mut fabric, &b, cfg.dmem_words + 1, cfg.rows, 0),
            Err(SimError::Mapping { .. })
        ));
    }
}
