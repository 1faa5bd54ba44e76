//! Kernel mappings (§4, Appendices A–D).
//!
//! Canon's compiler fixes each kernel's data layout and orchestrator
//! program before the run (§4, App A–C). [`compile`] makes every mapping
//! decision and check (through each family's `compile`) and returns a plain
//! [`Mapping`]. [`execute`] builds and runs the fabric tiles it describes:
//! pool acquire, stationary preload, meta streams and programs, feeders,
//! off-chip bytes, an optional trace sink, the run, collector reassembly
//! and the report merge. [`run_kernel`] and every per-kernel `run_*` entry
//! point are compile, then execute.
//!
//! | Kernel | Paper section | Module | Dataflow |
//! |---|---|---|---|
//! | SpMM (unstructured, Gustavson dataflow, Listing 1 FSM) | §4.1.1, App A/C | [`spmm`] | [`Dataflow::Scratchpad`] |
//! | Dense GEMM (systolic-style emulation, register accumulation) | §6.2 | [`gemm`] | [`Dataflow::RegAcc`] |
//! | N:M structured SpMM (2:4, 2:8, any N:M) | §4.1.3 | [`nm`] | [`Dataflow::RegAcc`] |
//! | SDDMM (unstructured mask) | §4.1.2, App B | [`sddmm`] | [`Dataflow::Sddmm`] |
//! | Sliding-window SDDMM (Longformer/Mistral attention) | §4.1.3 | [`window`] | [`Dataflow::Sddmm`] |
//! | Static spatial (place-and-route) execution | App D | [`spatial`] | — |
//!
//! A mapping is a value tests may edit between the steps:
//! [`Mapping::with_fold`] moves register accumulation to any legal fold
//! height, and the [`OrchKind`] inside a dataflow picks the native FSM or
//! the LUT microcode. The open mapper items are edits to the compile steps
//! that the executor then follows: the column trim sets [`Mapping::cols`]
//! below the fabric's width (leaving the other columns idle), and the
//! scratchpad fold gives [`Dataflow::Scratchpad`] a fold below `rows`.

pub mod gemm;
pub mod nm;
pub mod sddmm;
pub mod spatial;
pub mod spmm;
pub mod window;

use crate::config::CanonConfig;
use crate::fabric::Fabric;
use crate::isa::{Vector, LANES};
use crate::orchestrator::{assembler, RowProgram};
use crate::stats::RunReport;
use crate::trace::TraceSink;
use crate::SimError;
use canon_sparse::{CsrMatrix, Dense, Mask, Value};
use sddmm::ColPartition;
use spmm::OrchKind;

/// Places a stationary operand in data-memory words `0..words` of every PE,
/// filling the address-major slab in its own order: for each word `a` and
/// PE row `r`, `segment(a, r)` yields the row's `cols · LANES` lanes for
/// that word, PE column by PE column (lanes past the end of a shorter
/// segment are zero). Writes are uncounted, like the EDDO memory movers
/// they model (see [`crate::pe::MemMut::preload`]).
///
/// # Panics
///
/// Panics when `words` exceeds the data-memory capacity; [`compile`]
/// reports that as [`SimError::Mapping`] first.
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

/// How the rows compute: the orchestrator program and operand roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataflow {
    /// Streamed `A`, stationary `B`, psums in a scratchpad window.
    Scratchpad(OrchKind),
    /// Streamed `A`, stationary `B`, psums in a register flushed per row end.
    RegAcc(OrchKind),
    /// Stationary keys, queries fed from the north edge, dot products
    /// chained east.
    Sddmm(ColPartition),
}

/// Every mapping decision of one kernel run (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// PE rows used.
    pub rows: usize,
    /// PE columns used; a tile or an `A` token is `cols · LANES` wide.
    pub cols: usize,
    /// Row-group fold height (see the [`gemm`] docs); `rows` is unfolded.
    pub fold: usize,
    /// Stationary words per PE: `K/fold` rows of `B`, or SDDMM's `H·W`.
    pub words: usize,
    /// Output-column tiles, one fabric run each (1 for SDDMM).
    pub tiles: usize,
    /// `K`, zero-padded to a multiple of `cols · LANES` for SDDMM.
    pub k: usize,
    /// Scratchpad entries used, clamped; 0 under register accumulation.
    pub spad_depth: usize,
    /// The orchestrator program and operand roles.
    pub dataflow: Dataflow,
}

impl Mapping {
    /// This mapping at fold height `g`.
    ///
    /// # Errors
    ///
    /// Only register accumulation folds, at a height
    /// [`spmm::segment_words`] accepts.
    pub fn with_fold(self, cfg: &CanonConfig, g: usize) -> Result<Mapping, SimError> {
        match self.dataflow {
            Dataflow::RegAcc(_) => Ok(Mapping {
                fold: g,
                words: spmm::segment_words(cfg, self.k, g)?,
                ..self
            }),
            _ if g == self.fold => Ok(self),
            other => Err(SimError::Mapping {
                reason: format!(
                    "{other:?} maps unfolded (row group {g} != rows = {})",
                    self.rows
                ),
            }),
        }
    }

    /// PE row `r`'s orchestrator program for an `m × n` output.
    fn program(&self, r: usize, m: usize, n: usize) -> Result<RowProgram, SimError> {
        let depth = self.spad_depth;
        Ok(match self.dataflow {
            Dataflow::Scratchpad(OrchKind::Native) => spmm::SpmmFsm::new(depth, m).into(),
            Dataflow::Scratchpad(OrchKind::Lut) => {
                assembler::spmm_fsm_spec(depth, m).into_program()?.into()
            }
            Dataflow::RegAcc(OrchKind::Native) => gemm::RegAccFsm::new(m).into(),
            Dataflow::RegAcc(OrchKind::Lut) => assembler::regacc_fsm_spec(m).into_program()?.into(),
            Dataflow::Sddmm(partition) => {
                let (h, w) = (n / self.rows, self.k / (self.cols * LANES));
                let (base, stride) = partition.keys(r, h, self.rows);
                let south = r + 1 < self.rows;
                sddmm::SddmmFsm::new(w, m, n, base, stride, depth, south).into()
            }
        })
    }
}

/// Makes every mapping decision and check for `input` on `cfg`.
///
/// # Errors
///
/// Returns [`SimError::Mapping`] when `cfg` fails [`CanonConfig::validate`]
/// or the operands violate the kernel's mapping constraints.
pub fn compile(cfg: &CanonConfig, input: &KernelInput) -> Result<Mapping, SimError> {
    cfg.validate()
        .map_err(|reason| SimError::Mapping { reason })?;
    match input {
        KernelInput::Gemm { a, b } => gemm::compile(cfg, a, b),
        KernelInput::Spmm { a, b, mapping } => {
            spmm::compile(cfg, mapping, (a.rows(), a.cols(), a.nnz()), b)
        }
        KernelInput::SpmmNm { a, b, n_of, m_of } => nm::compile(cfg, a, b, *n_of, *m_of),
        KernelInput::Sddmm {
            mask,
            q,
            kv,
            mapping,
        } => {
            let shapes = ((q.rows(), q.cols()), (kv.rows(), kv.cols()));
            sddmm::compile(cfg, mapping, shapes.0, shapes.1, (mask.rows(), mask.cols()))
        }
        KernelInput::Window { wa, .. } => wa.compile(cfg),
    }
}

/// Runs `input` on the fabric tiles `map` describes, attaching `trace` to
/// each tile's run in turn.
///
/// # Errors
///
/// Propagates LUT assembly and simulation errors.
pub fn execute(
    cfg: &CanonConfig,
    map: &Mapping,
    input: &KernelInput,
    trace: Option<Box<dyn TraceSink>>,
) -> Result<KernelOutput, SimError> {
    match input {
        KernelInput::Gemm { a, b } => {
            let a = &gemm::dense_as_full_csr(a);
            run_tiles(cfg, map, Operands::Stream { a, b }, trace)
        }
        KernelInput::Spmm { a, b, .. } | KernelInput::SpmmNm { a, b, .. } => {
            run_tiles(cfg, map, Operands::Stream { a, b }, trace)
        }
        KernelInput::Sddmm { mask, q, kv, .. } => {
            run_tiles(cfg, map, Operands::Sddmm { mask, q, kv }, trace)
        }
        KernelInput::Window { wa, seed } => {
            let (q, kv, mask) = &wa.operands(*seed);
            run_tiles(cfg, map, Operands::Sddmm { mask, q, kv }, trace)
        }
    }
}

/// Runs any Canon kernel: [`compile`], then [`execute`] untraced.
///
/// # Errors
///
/// As [`compile`] and [`execute`].
pub fn run_kernel(cfg: &CanonConfig, input: &KernelInput) -> Result<KernelOutput, SimError> {
    execute(cfg, &compile(cfg, input)?, input, None)
}

/// Borrowed operands: `A` streamed against a stationary `B` (GEMM as its
/// full stream), or SDDMM's mask, queries and keys.
#[derive(Clone, Copy)]
pub(crate) enum Operands<'a> {
    Stream {
        a: &'a CsrMatrix,
        b: &'a Dense,
    },
    Sddmm {
        mask: &'a Mask,
        q: &'a Dense,
        kv: &'a Dense,
    },
}

/// The executor behind [`execute`] and the per-kernel entry points. Panics
/// when `map`'s dataflow does not fit the operands.
pub(crate) fn run_tiles(
    cfg: &CanonConfig,
    map: &Mapping,
    ops: Operands<'_>,
    mut trace: Option<Box<dyn TraceSink>>,
) -> Result<KernelOutput, SimError> {
    let (m, n, mut streams) = match (ops, map.dataflow) {
        (Operands::Sddmm { mask, q, kv }, Dataflow::Sddmm(partition)) => {
            let streams = sddmm::build_mask_streams(mask, map.rows, partition);
            (q.rows(), kv.rows(), streams)
        }
        (Operands::Stream { a, b }, Dataflow::Scratchpad(_) | Dataflow::RegAcc(_)) => {
            let streams = spmm::build_row_streams(a, map.rows, map.fold);
            (a.rows(), b.cols(), streams)
        }
        (_, dataflow) => panic!("{dataflow:?} mapping run on the other family's operands"),
    };
    let tile_n = map.cols * LANES;
    let mut result = Dense::zeros(m, n);
    let mut total: Option<RunReport> = None;
    for t in 0..map.tiles {
        let tile_base = t * tile_n;
        let mut fabric = crate::pool::acquire(cfg, matches!(ops, Operands::Sddmm { .. }));
        // Off-chip bytes: each B tile once (a fold's copies are one
        // broadcast read); the streamed A once, replayed across tiles from
        // the edge buffers (1 B per value, per coordinate when sparse, per
        // row end); C once. SDDMM reads its keys at the padded K (the
        // fabric counts the query feed) and the mask coordinates.
        match (ops, map.dataflow) {
            (Operands::Stream { a, b }, _) => {
                spmm::preload_b_tile(&mut fabric, b, map.words, map.fold, tile_base);
                let tile_cols = tile_n.min(n - tile_base);
                fabric.add_offchip_read_bytes((map.k * tile_cols) as u64);
                if t == 0 {
                    let coord_bytes = if a.nnz() < m * map.k { a.nnz() } else { 0 };
                    fabric.add_offchip_read_bytes((a.nnz() + coord_bytes + m) as u64);
                }
                fabric.add_offchip_write_bytes((m * tile_cols) as u64);
            }
            (Operands::Sddmm { mask, q, kv }, Dataflow::Sddmm(partition)) => {
                let (h, w) = (n / map.rows, map.k / tile_n);
                sddmm::preload_key_tiles(&mut fabric, kv, h, w, partition);
                sddmm::feed_queries(&mut fabric, q, w);
                fabric.add_offchip_read_bytes((n * map.k + 2 * mask.nnz() + m) as u64);
                fabric.add_offchip_write_bytes(mask.nnz() as u64);
            }
            _ => unreachable!("operands checked above"),
        }
        let last = t + 1 == map.tiles;
        for (r, stream) in streams.iter_mut().enumerate() {
            let stream = if last {
                std::mem::take(stream)
            } else {
                stream.clone()
            };
            fabric.set_meta_stream(r, stream);
            fabric.set_program(r, map.program(r, m, n)?);
        }
        if let Some(sink) = trace.take() {
            fabric.set_trace_sink(sink);
        }
        let report = fabric.run()?;
        trace = fabric.take_trace_sink();
        for e in fabric.south_collected() {
            for l in 0..LANES {
                let col = tile_base + e.lane * LANES + l;
                if col < n {
                    result[(e.tag as usize, col)] += e.value.0[l];
                }
            }
        }
        // SDDMM's final V-to-scalar reduction happens at the edge mover.
        for e in fabric.east_collected() {
            result[(e.tag as usize / n, e.tag as usize % n)] += e.value.reduce_sum();
        }
        total = Some(match total {
            None => report,
            Some(mut acc) => {
                acc.cycles += report.cycles;
                acc.wall_ns += report.wall_ns;
                acc.engine = acc.engine.combine(report.engine);
                acc.stats.merge(&report.stats);
                acc
            }
        });
    }
    let report = total.unwrap_or(RunReport {
        cycles: 0,
        pes: cfg.pe_count(),
        stats: Default::default(),
        wall_ns: 0,
        engine: Default::default(),
    });
    Ok(KernelOutput { result, report })
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
                        spmm::preload_b_tile(&mut bulk, &b, h, group, tile_base);
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
        let k = cfg.rows * (cfg.dmem_words + 1);
        let input = KernelInput::Spmm {
            a: CsrMatrix::from_dense(&Dense::zeros(4, k)),
            b: Dense::zeros(k, 8),
            mapping: spmm::SpmmMapping::default(),
        };
        match compile(&cfg, &input) {
            Err(SimError::Mapping { reason }) => assert_eq!(
                reason,
                "K-segment of 1025 rows exceeds data memory (1024 words)"
            ),
            other => panic!("expected a mapping error, got {other:?}"),
        }
    }

    #[test]
    fn with_fold_rederives_words_and_refuses_unfoldable_dataflows() {
        let cfg = CanonConfig::default();
        let mut rng = gen::seeded_rng(82);
        let (a, b) = (
            Dense::random(16, 64, &mut rng),
            Dense::random(64, 8, &mut rng),
        );
        let gemm = compile(&cfg, &KernelInput::Gemm { a, b }).unwrap();
        let unfolded = gemm.with_fold(&cfg, cfg.rows).unwrap();
        assert_eq!((unfolded.fold, unfolded.words), (8, 8));
        assert_eq!(gemm.with_fold(&cfg, 2).unwrap().words, 32);
        assert!(gemm.with_fold(&cfg, 3).is_err());

        let spmm = Mapping {
            dataflow: Dataflow::Scratchpad(OrchKind::Native),
            ..unfolded
        };
        assert_eq!(spmm.with_fold(&cfg, cfg.rows).unwrap(), spmm);
        assert!(spmm.with_fold(&cfg, 4).is_err());
        let wa = window::WindowAttention {
            seq: 32,
            window: 8,
            head_dim: 32,
        };
        assert!(wa.compile(&cfg).unwrap().with_fold(&cfg, 4).is_err());
    }
}
