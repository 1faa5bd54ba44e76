//! SDDMM on Canon (§4.1.2, Fig 19, Listing 4).
//!
//! `C = M · (A × Bᵀ)`: `A` is `M×K` dense and streamed from the **top** edge;
//! `B` (`N×K`, one key vector per output column) is stationary; the binary
//! mask `M` (`M×N`) selects which outputs are computed.
//!
//! ## Mapping
//!
//! With an `Y×X` array and `V`-wide lanes, `K = W·X·V` and `N = Y·H`:
//!
//! * PE `(y, x)` stores, at data-memory word `h·W + w`, the vector
//!   `B[y·H + h][(w·X + x)·V .. +V]` — its `V`-slice of key `n = yH + h` for
//!   chunk `w`;
//! * the north-edge mover streams, into column `x`, the token sequence
//!   `t = m·W + w ↦ A[m][(w·X + x)·V .. +V]`;
//! * every PE row forwards each `A` token south (pass-through riding the
//!   `LoadA` instruction) while buffering it in the scratchpad for local
//!   reuse across that row's masked positions — the §4.1.2 buffering that
//!   absorbs mask-induced load imbalance;
//! * for each masked output `(m, h)` the row issues `W` vector MACs
//!   accumulating into `Reg(0)`, then a *chain* instruction that adds the
//!   west neighbour's partial vector and sends the sum east; the east edge
//!   collector performs the final `V`-to-scalar reduction (the paper places
//!   this tiny reduction in the last PE column, "just before the result is
//!   forwarded to the memory controllers" — doing it in the mover is
//!   behaviourally identical and noted in DESIGN.md).

use crate::config::CanonConfig;
use crate::fabric::Fabric;
use crate::isa::{Addr, Direction, Instruction, Opcode, Vector, LANES};
use crate::noc::TaggedVector;
use crate::orchestrator::{MetaToken, OrchAction, OrchIo, OrchProgram};
use crate::stats::{RunReport, StallCause};
use crate::SimError;
use canon_sparse::{Dense, Mask};

/// FSM states for SDDMM.
pub mod state {
    /// Loading (and forwarding) an `A` token from the north.
    pub const LOAD_A: u8 = 0;
    /// Vector MAC for the current masked output.
    pub const MAC: u8 = 1;
    /// Chain step: add west partial, send east.
    pub const CHAIN: u8 = 2;
    /// Idle / consuming row-end meta.
    pub const NOP: u8 = 3;
    /// Finished.
    pub const DONE: u8 = 4;
}

/// How output columns are partitioned across PE rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColPartition {
    /// Row `y` owns the contiguous block `[yH, (y+1)H)` — the natural layout
    /// for unstructured masks.
    #[default]
    Block,
    /// Row `y` owns columns `n ≡ y (mod rows)` — the interleaved layout the
    /// compiler selects for diagonal-window masks (§4.1.3), which would
    /// otherwise concentrate each output row's whole band on one PE row.
    Cyclic,
}

/// Mapping parameters for SDDMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SddmmMapping {
    /// Scratchpad entries used as the `A`-reuse buffer (clamped to the
    /// configured scratchpad, must be ≥ `W = K / (cols·LANES)`).
    pub spad_depth: usize,
    /// Output-column partitioning across PE rows.
    pub partition: ColPartition,
}

impl Default for SddmmMapping {
    fn default() -> Self {
        SddmmMapping {
            spad_depth: 16,
            partition: ColPartition::Block,
        }
    }
}

/// The SDDMM orchestrator FSM.
#[derive(Debug)]
pub struct SddmmFsm {
    w: u32,
    n_total: u32,
    n_base: u32,
    n_stride: u32,
    depth: u32,
    total_tokens: u32,
    t_loaded: u32,
    evict_target: u32,
    m_work: u32,
    /// Current masked output in progress: `(local h, next w step)`.
    work: Option<(u32, u32)>,
    done: bool,
    forward_south: bool,
}

impl SddmmFsm {
    /// Creates the FSM for one PE row.
    ///
    /// * `w` — `A` tokens per output row (`K / (cols·LANES)`).
    /// * `m_total` — number of streamed `A` rows.
    /// * `n_total` — global output width `N` (for collector tags).
    /// * `n_base` / `n_stride` — this row's global column for local index `h`
    ///   is `n_base + h·n_stride` (block: `(yH, 1)`; cyclic: `(y, rows)`).
    /// * `depth` — scratchpad buffer entries (≥ `w`).
    /// * `forward_south` — false for the bottom row (its forwards would fall
    ///   into the edge sink; the compiler omits the pass-through there).
    ///
    /// # Panics
    ///
    /// Panics if `depth < w` or `w == 0`.
    pub fn new(
        w: usize,
        m_total: usize,
        n_total: usize,
        n_base: usize,
        n_stride: usize,
        depth: usize,
        forward_south: bool,
    ) -> SddmmFsm {
        assert!(w > 0, "W must be positive");
        assert!(depth >= w, "A-buffer depth {depth} must be >= W = {w}");
        SddmmFsm {
            w: w as u32,
            n_total: n_total as u32,
            n_base: n_base as u32,
            n_stride: n_stride.max(1) as u32,
            depth: depth as u32,
            total_tokens: (m_total * w) as u32,
            t_loaded: 0,
            evict_target: 0,
            m_work: 0,
            work: None,
            done: m_total == 0,
            forward_south,
        }
    }

    fn t_evicted(&self) -> u32 {
        self.evict_target.min(self.t_loaded)
    }

    fn a_slot(&self, t: u32) -> u16 {
        (t % self.depth) as u16
    }

    /// Attempts to issue a `LoadA` for the next token. Returns the blocking
    /// cause when it cannot (no token at the north port or buffer full →
    /// operand wait; no south credit for the forward → credit).
    fn try_load_a(&mut self, io: &OrchIo) -> Result<OrchAction, StallCause> {
        if self.t_loaded >= self.total_tokens
            || io.north_tokens == 0
            || self.t_loaded - self.t_evicted() >= self.depth
        {
            return Err(StallCause::OperandWait);
        }
        if self.forward_south && io.south_credits == 0 {
            return Err(StallCause::Credit);
        }
        let t = self.t_loaded;
        self.t_loaded += 1;
        let mut instr = Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::North),
            Addr::Null,
            Addr::Spad(self.a_slot(t)),
        );
        if self.forward_south {
            instr = instr.with_route(Direction::North, Direction::South);
        }
        Ok(OrchAction::issue(instr, state::LOAD_A))
    }

    /// Issues the next step of the in-progress masked output, or a blocking
    /// `LoadA`, or records a stall.
    fn progress_work(&mut self, io: &OrchIo, h: u32, w_step: u32) -> OrchAction {
        if w_step == self.w {
            // Chain: add west partial to our accumulated Reg(0), send east.
            let tag = self.m_work * self.n_total + self.n_base + h * self.n_stride;
            self.work = None;
            return OrchAction::issue(
                Instruction::new(
                    Opcode::AddFlush,
                    Addr::Reg(0),
                    Addr::Port(Direction::West),
                    Addr::Port(Direction::East),
                )
                .with_tag(tag),
                state::CHAIN,
            );
        }
        let t_need = self.m_work * self.w + w_step;
        if t_need < self.t_loaded {
            self.work = Some((h, w_step + 1));
            return OrchAction::issue(
                Instruction::new(
                    Opcode::MacV,
                    Addr::Spad(self.a_slot(t_need)),
                    Addr::DataMem((h * self.w + w_step) as u16),
                    Addr::Reg(0),
                ),
                state::MAC,
            );
        }
        // The needed A token is not buffered yet: load it (loads are in
        // token order, so repeated loads reach it).
        self.work = Some((h, w_step));
        match self.try_load_a(io) {
            Ok(a) => a,
            Err(cause) => OrchAction::stall(state::LOAD_A, cause),
        }
    }
}

impl OrchProgram for SddmmFsm {
    #[inline]
    fn step(&mut self, io: &OrchIo) -> OrchAction {
        if self.done {
            return OrchAction::nop(state::DONE);
        }
        if let Some((h, w_step)) = self.work {
            return self.progress_work(io, h, w_step);
        }
        match io.input {
            Some(MetaToken::MaskPos { row, col }) => {
                debug_assert_eq!(row, self.m_work, "mask stream out of order");
                self.work = Some((col, 0));
                self.progress_work(io, col, 0).take_input()
            }
            Some(MetaToken::MRowEnd { row }) => {
                debug_assert_eq!(row, self.m_work);
                self.evict_target = (self.m_work + 1) * self.w;
                self.m_work += 1;
                // Ride an A-load along the row-end consumption if possible.
                let action = match self.try_load_a(io) {
                    Ok(a) => a,
                    Err(_) => OrchAction::nop(state::NOP),
                };
                action.take_input()
            }
            Some(MetaToken::End) => {
                // Keep forwarding remaining A tokens for downstream rows.
                if self.t_loaded < self.total_tokens {
                    self.evict_target = self.total_tokens;
                    match self.try_load_a(io) {
                        Ok(a) => a,
                        Err(cause) => OrchAction::stall(state::LOAD_A, cause),
                    }
                } else {
                    self.done = true;
                    OrchAction::nop(state::DONE).take_input()
                }
            }
            Some(other) => {
                debug_assert!(false, "unexpected token {other:?} in SDDMM stream");
                OrchAction::nop(state::NOP)
            }
            None => OrchAction::nop(state::NOP),
        }
    }

    fn done(&self) -> bool {
        self.done
    }
}

/// Output of an SDDMM run.
#[derive(Debug, Clone, PartialEq)]
pub struct SddmmOutput {
    /// The computed `M×N` result (unmasked positions are zero).
    pub result: Dense,
    /// Cycle counts and activity counters.
    pub report: RunReport,
}

/// Places the stationary `B` tiles: PE `(y, x)` receives, at word `h·W + w`,
/// `B[n][(w·X + x)·V .. +V]` for the key `n` row `y` owns at local index `h`
/// (`yH + h` for [`ColPartition::Block`], `hY + y` for
/// [`ColPartition::Cyclic`]). Word `h·W + w` of PE row `y` is one contiguous
/// run of key row `n`, so the tiles are copied in slab order (see
/// [`super::preload_stationary`]).
///
/// # Panics
///
/// Panics when `b` has fewer than `h · rows` rows or fewer than
/// `w · cols · LANES` columns, or when `h · w` exceeds the data memory.
pub(crate) fn preload_key_tiles(
    fabric: &mut Fabric,
    b: &Dense,
    h: usize,
    w: usize,
    partition: ColPartition,
) {
    let (rows, tile) = (fabric.config().rows, fabric.config().cols * LANES);
    super::preload_stationary(fabric, h * w, |a, yy| {
        let (hh, ww) = (a / w, a % w);
        let n = match partition {
            ColPartition::Block => yy * h + hh,
            ColPartition::Cyclic => hh * rows + yy,
        };
        &b.row(n)[ww * tile..][..tile]
    });
}

/// Runs SDDMM (`C = mask · (A × Bᵀ)`) on the Canon fabric.
///
/// `a` is `M×K` (query rows), `b` is `N×K` (key rows), `mask` is `M×N`.
///
/// # Errors
///
/// Returns [`SimError::Mapping`] when shapes violate the constraints
/// (`K % (cols·LANES) == 0`, `N % rows == 0`, tile fits in data memory,
/// buffer ≥ `W`), and propagates simulation protocol errors.
pub fn run_sddmm(
    cfg: &CanonConfig,
    mapping: &SddmmMapping,
    mask: &Mask,
    a: &Dense,
    b: &Dense,
) -> Result<SddmmOutput, SimError> {
    run_sddmm_traced(cfg, mapping, mask, a, b, None)
}

/// [`run_sddmm`] with an optional trace sink attached to the mapped fabric
/// for the duration of the run (the mapper owns its fabric, so the sink
/// must be threaded through; see [`crate::trace`]).
///
/// # Errors
///
/// Same as [`run_sddmm`].
pub fn run_sddmm_traced(
    cfg: &CanonConfig,
    mapping: &SddmmMapping,
    mask: &Mask,
    a: &Dense,
    b: &Dense,
    trace: Option<Box<dyn crate::trace::TraceSink>>,
) -> Result<SddmmOutput, SimError> {
    let m = a.rows();
    let k = a.cols();
    let n = b.rows();
    if b.cols() != k {
        return Err(SimError::Mapping {
            reason: format!("A is {m}x{k} but B is {n}x{}", b.cols()),
        });
    }
    if mask.rows() != m || mask.cols() != n {
        return Err(SimError::Mapping {
            reason: format!("mask is {}x{}, expected {m}x{n}", mask.rows(), mask.cols()),
        });
    }
    let x = cfg.cols;
    let y = cfg.rows;
    // Auto-pad the contraction dimension: when K is not a multiple of
    // cols·lanes (e.g. head_dim = 32 on a 16×16 grid, where cols·lanes =
    // 64), zero-pad both operands up to the next multiple. The padded
    // columns contribute exactly zero to every Q·Kᵀ dot product, so results
    // are bit-identical to the unpadded computation; only the streamed
    // token count (and hence cycles/traffic) reflects the padded width.
    let k_padded = k.div_ceil(x * LANES) * (x * LANES);
    if k_padded != k {
        let pad = |m: &Dense| {
            let mut out = Dense::zeros(m.rows(), k_padded);
            for rr in 0..m.rows() {
                for cc in 0..k {
                    out[(rr, cc)] = m[(rr, cc)];
                }
            }
            out
        };
        return run_sddmm_traced(cfg, mapping, mask, &pad(a), &pad(b), trace);
    }
    if !n.is_multiple_of(y) {
        return Err(SimError::Mapping {
            reason: format!("N = {n} must be a multiple of rows = {y}"),
        });
    }
    let w = k / (x * LANES);
    let h = n / y;
    if h * w > cfg.dmem_words {
        return Err(SimError::Mapping {
            reason: format!(
                "B tile of {h}×{w} words exceeds data memory ({} words)",
                cfg.dmem_words
            ),
        });
    }
    let depth = mapping.spad_depth.min(cfg.spad_entries);
    if depth < w {
        return Err(SimError::Mapping {
            reason: format!("A buffer depth {depth} must be >= W = {w}"),
        });
    }

    let mut fabric = crate::pool::acquire(cfg, true);
    preload_key_tiles(&mut fabric, b, h, w, mapping.partition);
    // A stream from the top edge.
    for xx in 0..x {
        let mut tokens = Vec::with_capacity(m * w);
        for mm in 0..m {
            for ww in 0..w {
                let mut lanes = [0; LANES];
                for (v, lane) in lanes.iter_mut().enumerate() {
                    *lane = a[(mm, (ww * x + xx) * LANES + v)];
                }
                tokens.push(TaggedVector {
                    value: Vector(lanes),
                    tag: (mm * w + ww) as u32,
                });
            }
        }
        fabric.set_feeder(xx, tokens);
    }
    // Meta streams and FSMs. The FSM tags collector outputs with
    // `m·N + n_base + h·n_stride`, so the two partitionings share one FSM.
    for yy in 0..y {
        let mut stream = Vec::new();
        for mm in 0..m {
            for col in mask.row_iter(mm) {
                let local = match mapping.partition {
                    ColPartition::Block => {
                        if col >= yy * h && col < (yy + 1) * h {
                            Some(col - yy * h)
                        } else {
                            None
                        }
                    }
                    ColPartition::Cyclic => {
                        if col % y == yy {
                            Some(col / y)
                        } else {
                            None
                        }
                    }
                };
                if let Some(local) = local {
                    stream.push(MetaToken::MaskPos {
                        row: mm as u32,
                        col: local as u32,
                    });
                }
            }
            stream.push(MetaToken::MRowEnd { row: mm as u32 });
        }
        stream.push(MetaToken::End);
        fabric.set_meta_stream(yy, stream);
        let (n_base, n_stride) = match mapping.partition {
            ColPartition::Block => (yy * h, 1),
            ColPartition::Cyclic => (yy, y),
        };
        fabric.set_program(
            yy,
            SddmmFsm::new(w, m, n, n_base, n_stride, depth, yy + 1 < y),
        );
    }
    // Off-chip traffic: B preload (A feed is counted by the fabric), the mask
    // coordinates, and the sparse output.
    fabric.add_offchip_read_bytes((n * k) as u64 + (2 * mask.nnz() + m) as u64);
    fabric.add_offchip_write_bytes(mask.nnz() as u64);

    if let Some(sink) = trace {
        fabric.set_trace_sink(sink);
    }
    let report = fabric.run()?;
    fabric.take_trace_sink();
    let mut result = Dense::zeros(m, n);
    for e in fabric.east_collected() {
        let mm = e.tag as usize / n;
        let nn = e.tag as usize % n;
        // Final V-to-scalar reduction at the edge mover.
        result[(mm, nn)] += e.value.reduce_sum();
    }
    Ok(SddmmOutput { result, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_sparse::{gen, reference};

    fn cfg() -> CanonConfig {
        CanonConfig::default()
    }

    #[test]
    fn sddmm_matches_reference_unstructured() {
        let mut rng = gen::seeded_rng(51);
        let a = Dense::random(16, 64, &mut rng); // M=16, K=64 → W=2
        let b = Dense::random(16, 64, &mut rng); // N=16 → H=2
        let mask = gen::random_mask(16, 16, 0.6, &mut rng);
        let out = run_sddmm(&cfg(), &SddmmMapping::default(), &mask, &a, &b).unwrap();
        assert_eq!(out.result, reference::sddmm(&mask, &a, &b));
        assert!(out.report.cycles > 0);
    }

    #[test]
    fn sddmm_full_mask_is_dense_qkt() {
        let mut rng = gen::seeded_rng(52);
        let a = Dense::random(8, 32, &mut rng);
        let b = Dense::random(8, 32, &mut rng);
        let mask = Mask::full(8, 8);
        let out = run_sddmm(&cfg(), &SddmmMapping::default(), &mask, &a, &b).unwrap();
        assert_eq!(out.result, reference::gemm(&a, &b.transpose()));
    }

    #[test]
    fn sddmm_empty_mask_streams_but_computes_nothing() {
        let mut rng = gen::seeded_rng(53);
        let a = Dense::random(8, 32, &mut rng);
        let b = Dense::random(8, 32, &mut rng);
        let mask = Mask::empty(8, 8);
        let out = run_sddmm(&cfg(), &SddmmMapping::default(), &mask, &a, &b).unwrap();
        assert_eq!(out.result, Dense::zeros(8, 8));
        assert_eq!(out.report.stats.mac_instrs, 0);
        // A still flows through the array.
        assert!(out.report.stats.noc_hops > 0);
    }

    #[test]
    fn sddmm_skewed_mask_exercises_buffering() {
        let mut rng = gen::seeded_rng(54);
        let a = Dense::random(24, 64, &mut rng);
        let b = Dense::random(24, 64, &mut rng);
        // Rows 0..8 dense, rest sparse: strong inter-PE-row imbalance.
        let mut mask = gen::random_mask(24, 24, 0.9, &mut rng);
        for r in 0..24 {
            for c in 0..8 {
                mask.set(r, c, true);
            }
        }
        let out = run_sddmm(&cfg(), &SddmmMapping::default(), &mask, &a, &b).unwrap();
        assert_eq!(out.result, reference::sddmm(&mask, &a, &b));
    }

    #[test]
    fn sddmm_window_mask() {
        let mut rng = gen::seeded_rng(55);
        let a = Dense::random(16, 32, &mut rng);
        let b = Dense::random(16, 32, &mut rng);
        let mask = gen::window_mask(16, 4);
        let out = run_sddmm(&cfg(), &SddmmMapping::default(), &mask, &a, &b).unwrap();
        assert_eq!(out.result, reference::sddmm(&mask, &a, &b));
    }

    #[test]
    fn sddmm_auto_pads_ragged_k() {
        // K = 48 is not a multiple of cols·lanes = 32: zero-padded to 64,
        // bit-identical result.
        let mut rng = gen::seeded_rng(56);
        let a = Dense::random(4, 48, &mut rng);
        let b = Dense::random(8, 48, &mut rng);
        let mask = Mask::full(4, 8);
        let out = run_sddmm(&cfg(), &SddmmMapping::default(), &mask, &a, &b).unwrap();
        assert_eq!(out.result, reference::sddmm(&mask, &a, &b));
    }

    #[test]
    fn sddmm_16x16_grid_auto_pads_head_dim_32() {
        // Regression for the former ROADMAP caveat: a 16×16 grid used to
        // record head_dim = 32 cells as mapping errors (K = 32 < cols·lanes
        // = 64). K is now zero-padded up to the next multiple; padded
        // columns contribute zero to every dot product, so the result is
        // bit-identical to the reference.
        let mut rng = gen::seeded_rng(58);
        let cfg = CanonConfig::default().with_geometry(16, 16);
        let a = Dense::random(32, 32, &mut rng);
        let b = Dense::random(32, 32, &mut rng);
        let mask = gen::random_mask(32, 32, 0.5, &mut rng);
        let out = run_sddmm(&cfg, &SddmmMapping::default(), &mask, &a, &b).unwrap();
        assert_eq!(out.result, reference::sddmm(&mask, &a, &b));
        assert!(out.report.cycles > 0);
    }

    #[test]
    fn sddmm_mapping_errors() {
        let mut rng = gen::seeded_rng(56);
        let a = Dense::random(4, 32, &mut rng);
        let b = Dense::random(9, 32, &mut rng); // N=9 not multiple of 8
        let mask = Mask::full(4, 9);
        assert!(matches!(
            run_sddmm(&cfg(), &SddmmMapping::default(), &mask, &a, &b),
            Err(SimError::Mapping { .. })
        ));
    }

    #[test]
    fn fsm_requires_buffer_at_least_w() {
        let mut rng = gen::seeded_rng(57);
        let a = Dense::random(4, 256, &mut rng); // W = 8
        let b = Dense::random(8, 256, &mut rng);
        let mask = Mask::full(4, 8);
        let bad = SddmmMapping {
            spad_depth: 4,
            ..SddmmMapping::default()
        };
        assert!(matches!(
            run_sddmm(&cfg(), &bad, &mask, &a, &b),
            Err(SimError::Mapping { .. })
        ));
    }
}
