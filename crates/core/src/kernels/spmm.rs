//! SpMM on Canon: the Gustavson-dataflow mapping of §4.1.1 with the
//! Listing 1 orchestrator FSM (asynchronous reduction + explicit scratchpad
//! buffer management).
//!
//! ## Mapping (Fig 7a / Fig 18)
//!
//! * `A` (`M×K`, sparse) is streamed row-major: PE row `r` receives the
//!   non-zeros whose column falls in its K-segment `[rH, (r+1)H)`, plus a
//!   row-end token per output row.
//! * `B` (`K×N`, dense) is stationary: PE `(r, c)` holds
//!   `B[rH .. (r+1)H][cL .. (c+1)L]` in data memory (`L` = SIMD lanes), so a
//!   non-zero `a[m][k]` makes every PE of row `r` read the *same* local
//!   address `k - rH` — the uniform, fully deterministic access pattern the
//!   paper relies on for staggered issue.
//! * Partial sums accumulate per output row in the scratchpad (a circular
//!   FIFO window of `depth` row-ids) and are flushed south on row ends; the
//!   southern row either accumulates them (in-window: Fig 8 path 1.1) or
//!   bypasses them further south (out-of-window: path 1.2). Fragments exiting
//!   the bottom edge are summed by the collector (Listing 3's second loop).
//!
//! The register-accumulation mode (`use_scratchpad: false`, the GEMM / N:M
//! mapping) reuses these streams and this preload under a row-group fold:
//! see [`build_row_streams`] and the [`gemm`](super::gemm) module docs.

use crate::config::CanonConfig;
use crate::fabric::Fabric;
use crate::isa::{Addr, Direction, Instruction, Opcode, Vector, LANES};
use crate::orchestrator::{msg_id, MetaToken, OrchAction, OrchIo, OrchMessage, OrchProgram};
use crate::stats::{RunReport, StallCause};
use crate::SimError;
use canon_sparse::{CsrMatrix, Dense};

/// FSM main states (the 3-bit State Register contents; Listing 1's
/// `{MAC, ACC, FLUSH, NOP}` plus the drain/done phases).
pub mod state {
    /// Performing a scalar-vector MAC for a streamed non-zero.
    pub const MAC: u8 = 0;
    /// Accumulating an in-window psum received from the north.
    pub const ACC: u8 = 1;
    /// Flushing the oldest psum south.
    pub const FLUSH: u8 = 2;
    /// Idle / consuming a row-end without flushing.
    pub const NOP: u8 = 3;
    /// Draining remaining psums after the input stream ended.
    pub const DRAIN: u8 = 4;
    /// Finished.
    pub const DONE: u8 = 5;
}

/// Which orchestrator implementation executes the SpMM microcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrchKind {
    /// The native Rust FSM ([`SpmmFsm`]).
    #[default]
    Native,
    /// The assembled LUT bitstream interpreted by the Fig 5 datapath
    /// ([`crate::orchestrator::lut::LutProgram`]); cycle-identical to the
    /// native FSM (differentially tested).
    Lut,
}

/// Mapping parameters for SpMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmmMapping {
    /// Scratchpad psum-window depth in entries (§6.5 evaluates 1–64; the
    /// paper's default, used for all §6.2 results, is 16). Clamped to the
    /// configured scratchpad size at run time.
    pub spad_depth: usize,
    /// When false, partial sums accumulate in a SIMD register and are flushed
    /// on every row end without a managed window (the structured-sparsity /
    /// systolic-emulation mode of §4.1.3 — "there is no need of workload
    /// balancing with scratchpad").
    pub use_scratchpad: bool,
    /// Orchestrator implementation (native FSM or LUT bitstream).
    pub orchestrator: OrchKind,
}

impl Default for SpmmMapping {
    fn default() -> Self {
        SpmmMapping {
            spad_depth: 16,
            use_scratchpad: true,
            orchestrator: OrchKind::Native,
        }
    }
}

/// The Listing 1 orchestrator FSM (native-Rust implementation).
///
/// State registers (Fig 5): the State Register holds one of [`state`]'s
/// values; State Meta Register 0 holds `rid_start` (oldest buffered row id),
/// State Meta Register 1 holds the window occupancy.
#[derive(Debug)]
pub struct SpmmFsm {
    depth: u32,
    m_total: u32,
    rid_start: u32,
    occ: u32,
    done: bool,
    ended: bool,
}

impl SpmmFsm {
    /// Creates the FSM for a stream of `m_total` output rows with a psum
    /// window of `depth` scratchpad entries.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(depth: usize, m_total: usize) -> SpmmFsm {
        assert!(depth > 0, "psum window needs at least one entry");
        SpmmFsm {
            depth: depth as u32,
            m_total: m_total as u32,
            rid_start: 0,
            occ: if m_total == 0 { 0 } else { 1 },
            done: m_total == 0,
            ended: false,
        }
    }

    fn slot(&self, rid: u32) -> u16 {
        (rid % self.depth) as u16
    }

    fn managed(&self, rid: u32) -> bool {
        rid >= self.rid_start && rid < self.rid_start + self.occ
    }

    /// The decision driven purely by the input stream (no message present).
    #[inline]
    fn input_decision(&mut self, io: &OrchIo) -> OrchAction {
        match io.input {
            Some(MetaToken::Nnz { row, col, value }) => {
                debug_assert!(self.managed(row), "nnz for unmanaged row {row}");
                let instr = Instruction::new(
                    Opcode::MacS,
                    Addr::Imm,
                    Addr::DataMem(col as u16),
                    Addr::Spad(self.slot(row)),
                )
                .with_imm(Vector::splat(value))
                .with_tag(row);
                OrchAction::issue(instr, state::MAC).take_input()
            }
            Some(MetaToken::RowEnd { row }) => {
                let allocate_next = row + 1 < self.m_total;
                if self.occ == self.depth {
                    // Window full: flush the oldest psum to make room
                    // (App C case 2).
                    if io.south_credits == 0 {
                        return OrchAction::stall(state::FLUSH, StallCause::Credit);
                    }
                    if !io.msg_slot_free {
                        return OrchAction::stall(state::FLUSH, StallCause::MsgSlot);
                    }
                    let oldest = self.rid_start;
                    let instr = Instruction::new(
                        Opcode::MovFlush,
                        Addr::Spad(self.slot(oldest)),
                        Addr::Null,
                        Addr::Port(Direction::South),
                    )
                    .with_tag(oldest);
                    self.rid_start += 1;
                    if !allocate_next {
                        self.occ -= 1;
                    }
                    OrchAction::issue(instr, state::FLUSH)
                        .take_input()
                        .send(OrchMessage {
                            id: msg_id::PSUM,
                            rid: oldest,
                        })
                } else {
                    if allocate_next {
                        self.occ += 1;
                    }
                    OrchAction::nop(state::NOP).take_input()
                }
            }
            Some(MetaToken::End) => {
                self.ended = true;
                if self.occ > 0 {
                    if io.south_credits == 0 {
                        return OrchAction::stall(state::DRAIN, StallCause::Credit);
                    }
                    if !io.msg_slot_free {
                        return OrchAction::stall(state::DRAIN, StallCause::MsgSlot);
                    }
                    let oldest = self.rid_start;
                    let instr = Instruction::new(
                        Opcode::MovFlush,
                        Addr::Spad(self.slot(oldest)),
                        Addr::Null,
                        Addr::Port(Direction::South),
                    )
                    .with_tag(oldest);
                    self.rid_start += 1;
                    self.occ -= 1;
                    OrchAction::issue(instr, state::DRAIN).send(OrchMessage {
                        id: msg_id::PSUM,
                        rid: oldest,
                    })
                } else {
                    self.done = true;
                    OrchAction::nop(state::DONE).take_input()
                }
            }
            Some(other) => {
                debug_assert!(false, "unexpected token {other:?} in SpMM stream");
                OrchAction::nop(state::NOP)
            }
            None => OrchAction::nop(state::NOP),
        }
    }
}

impl OrchProgram for SpmmFsm {
    #[inline]
    fn step(&mut self, io: &OrchIo) -> OrchAction {
        // Message handling stays live even after the local stream finished:
        // upstream rows may still drain psums through this row (the DONE
        // state keeps its bypass transitions).
        if let Some(msg) = io.msg {
            debug_assert_eq!(msg.id, msg_id::PSUM);
            if self.managed(msg.rid) {
                // Fig 8 path 1.1: accumulate the upstream psum into our
                // window entry.
                let instr = Instruction::new(
                    Opcode::Acc,
                    Addr::Port(Direction::North),
                    Addr::Null,
                    Addr::Spad(self.slot(msg.rid)),
                )
                .with_tag(msg.rid);
                return OrchAction::issue(instr, state::ACC).take_msg();
            }
            // Fig 8 path 1.2: bypass — forward data north→south and relay
            // the message, riding along the input-driven instruction when
            // that instruction does not itself use the south port.
            // A blocked bypass labels the stall with the state the action
            // would have carried (the ride-along MAC for an nnz token, a
            // plain relay otherwise) — the same labeling the assembled LUT
            // derives from the blocked micro-op's `state_out`, so native and
            // LUT trace streams stay byte-identical under back-pressure.
            let blocked = match io.input {
                Some(MetaToken::Nnz { .. }) => state::MAC,
                _ => state::NOP,
            };
            if io.south_credits == 0 {
                return OrchAction::stall(blocked, StallCause::Credit);
            }
            if !io.msg_slot_free {
                return OrchAction::stall(blocked, StallCause::MsgSlot);
            }
            // Reserve one credit and the message slot for the bypass itself;
            // the base action may not take them too.
            let sub_io = OrchIo {
                south_credits: io.south_credits - 1,
                msg_slot_free: false,
                ..*io
            };
            let base = self.input_decision_peek(&sub_io);
            let mut action = match base {
                Some(b) => b,
                None => OrchAction::nop(state::NOP),
            };
            action.instr = action.instr.with_route(Direction::North, Direction::South);
            action = action.take_msg().send(msg);
            action.clear_stall();
            return action;
        }
        if self.done {
            return OrchAction::nop(state::DONE);
        }
        self.input_decision(io)
    }

    fn done(&self) -> bool {
        self.done
    }
}

impl SpmmFsm {
    /// Computes the input-driven action for a bypass cycle, but only if it
    /// does not conflict with the bypass's south push / message. Returns
    /// `None` (pure-bypass NOP) otherwise, leaving input state untouched.
    fn input_decision_peek(&mut self, io: &OrchIo) -> Option<OrchAction> {
        if self.done {
            return None;
        }
        match io.input {
            Some(MetaToken::Nnz { .. }) => Some(self.input_decision(io)),
            // Row ends may flush (south push + message) — do not combine.
            _ => None,
        }
    }
}

/// Output of an SpMM run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmmOutput {
    /// The computed `M×N` result.
    pub result: Dense,
    /// Cycle counts and activity counters, summed over column tiles.
    pub report: RunReport,
}

/// Builds the per-row meta streams for a sparse operand under the row-group
/// fold of height `group` (see the [`gemm`](super::gemm) module docs).
///
/// The `rows` PE rows split into `G = rows / group` groups of `group`
/// consecutive rows; group `i` owns the output rows `m ≡ i (mod G)`. Inside
/// a group, `K` splits `group` ways into segments of `H = K / group`: row `r`
/// receives the non-zeros of its owned output rows with columns in
/// `[(r mod group)·H, (r mod group + 1)·H)` (column indices localised), one
/// `RowEnd` per owned output row, and a final `End`. `group == rows` is the
/// unfolded layout — every row owns every output row and holds one `K/rows`
/// segment — which the scratchpad SpMM mapping always uses.
///
/// # Errors
///
/// Returns [`SimError::Mapping`] unless `group` divides both `rows` and `K`.
pub fn build_row_streams(
    a: &CsrMatrix,
    rows: usize,
    group: usize,
) -> Result<Vec<Vec<MetaToken>>, SimError> {
    let k = a.cols();
    if group == 0 || !rows.is_multiple_of(group) {
        return Err(SimError::Mapping {
            reason: format!("row group {group} must divide the row count {rows}"),
        });
    }
    if !k.is_multiple_of(group) {
        return Err(SimError::Mapping {
            reason: format!("K = {k} must be a multiple of the row group {group} (of {rows} rows)"),
        });
    }
    let h = k / group;
    let groups = rows / group;
    let mut streams: Vec<Vec<MetaToken>> = vec![Vec::new(); rows];
    for m in 0..a.rows() {
        let owners = &mut streams[(m % groups) * group..][..group];
        for (c, v) in a.row_iter(m) {
            let seg = c / h;
            owners[seg].push(MetaToken::Nnz {
                row: m as u32,
                col: (c - seg * h) as u32,
                value: v,
            });
        }
        for s in owners.iter_mut() {
            s.push(MetaToken::RowEnd { row: m as u32 });
        }
    }
    for s in streams.iter_mut() {
        s.push(MetaToken::End);
    }
    Ok(streams)
}

/// Preloads the `B` tile for column tile `tile` into every PE's data memory
/// under the row-group fold of height `group` (see [`build_row_streams`]).
/// PE `(r, c)` receives `B[(r mod group)·h + i][base + cL .. base + (c+1)L]`
/// at word `i` (lanes past `N`, and rows past `K`, read as zero), so each
/// row group holds its own copy of the tile. Word `i` of PE row `r` is one
/// contiguous run of one `B` row, so the tile is copied in slab order, one
/// `n`-wide data-memory row per word.
///
/// # Errors
///
/// Returns [`SimError::Mapping`] when `h` exceeds the data memory.
pub fn preload_b_tile(
    fabric: &mut Fabric,
    b: &Dense,
    h: usize,
    group: usize,
    tile_base: usize,
) -> Result<(), SimError> {
    let dmem_words = fabric.config().dmem_words;
    if h > dmem_words {
        return Err(SimError::Mapping {
            reason: format!("K-segment of {h} rows exceeds data memory ({dmem_words} words)"),
        });
    }
    super::preload_stationary(fabric, h, |i, r| match (r % group) * h + i {
        brow if brow < b.rows() => b.row(brow).get(tile_base..).unwrap_or(&[]),
        _ => &[],
    });
    Ok(())
}

/// Runs SpMM (`C = A × B`) on the Canon fabric, tiling over output columns.
///
/// The scratchpad mapping uses the unfolded layout (row group = `cfg.rows`);
/// the register-accumulation mapping folds output rows across row groups
/// whose height [`pick_fold`](super::gemm::pick_fold) chooses per shape.
///
/// # Errors
///
/// Returns [`SimError::Mapping`] when shapes violate the mapping constraints
/// (`K` must be a multiple of the row-group height, and the K-segment must
/// fit in data memory), and propagates simulation protocol errors.
pub fn run_spmm(
    cfg: &CanonConfig,
    mapping: &SpmmMapping,
    a: &CsrMatrix,
    b: &Dense,
) -> Result<SpmmOutput, SimError> {
    let group = if mapping.use_scratchpad {
        cfg.rows
    } else {
        super::gemm::pick_fold(cfg, a.rows(), a.cols(), a.nnz())
    };
    run_spmm_folded(cfg, mapping, a, b, group)
}

/// [`run_spmm`] at an explicit row-group height `group` (see
/// [`build_row_streams`]) instead of the cost model's pick — the hook the
/// mapping-invariant tests use to brute-force every legal fold.
///
/// # Errors
///
/// As [`run_spmm`]; additionally rejects a folded layout
/// (`group != cfg.rows`) under the scratchpad window, whose FSM tracks
/// consecutive output-row ids.
pub fn run_spmm_folded(
    cfg: &CanonConfig,
    mapping: &SpmmMapping,
    a: &CsrMatrix,
    b: &Dense,
    group: usize,
) -> Result<SpmmOutput, SimError> {
    if a.cols() != b.rows() {
        return Err(SimError::Mapping {
            reason: format!(
                "A is {}x{} but B is {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ),
        });
    }
    if mapping.use_scratchpad && group != cfg.rows {
        return Err(SimError::Mapping {
            reason: format!(
                "the scratchpad window needs the unfolded layout (row group {group} != rows = {})",
                cfg.rows
            ),
        });
    }
    let m = a.rows();
    let n = b.cols();
    let k = a.cols();
    let streams = build_row_streams(a, cfg.rows, group)?;
    let h = k / group;
    let tile_n = cfg.cols * LANES;
    let tiles = n.div_ceil(tile_n);
    let depth = mapping.spad_depth.min(cfg.spad_entries).max(1);

    let mut result = Dense::zeros(m, n);
    let mut total: Option<RunReport> = None;
    for t in 0..tiles {
        let tile_base = t * tile_n;
        let mut fabric = crate::pool::acquire(cfg, false);
        preload_b_tile(&mut fabric, b, h, group, tile_base)?;
        for r in 0..cfg.rows {
            fabric.set_meta_stream(r, streams[r].clone());
            if mapping.use_scratchpad {
                match mapping.orchestrator {
                    OrchKind::Native => {
                        fabric.set_program(r, SpmmFsm::new(depth, m));
                    }
                    OrchKind::Lut => {
                        let program = crate::orchestrator::assembler::spmm_fsm_spec(depth, m)
                            .into_program()?;
                        fabric.set_program(r, program);
                    }
                }
            } else {
                match mapping.orchestrator {
                    OrchKind::Native => {
                        fabric.set_program(r, super::gemm::RegAccFsm::new(m));
                    }
                    OrchKind::Lut => {
                        let program =
                            crate::orchestrator::assembler::regacc_fsm_spec(m).into_program()?;
                        fabric.set_program(r, program);
                    }
                }
            }
        }
        // Off-chip traffic: each B tile is loaded once (k·tile_cols bytes,
        // totalling k·n across tiles) — a folded layout's per-group copies
        // are one broadcast read, and preload writes stay uncounted; the
        // streamed A is fetched from DRAM once and replayed across column
        // tiles from the edge stream buffers (Table 1's 288 KB includes
        // them), costing 1 B per value, 1 B per coordinate when the stream
        // is sparse, and 1 B per row-end token; C is written out once.
        let tile_cols = tile_n.min(n - tile_base);
        fabric.add_offchip_read_bytes((k * tile_cols) as u64);
        if t == 0 {
            let coord_bytes = if a.nnz() < m * k { a.nnz() } else { 0 };
            fabric.add_offchip_read_bytes((a.nnz() + coord_bytes + m) as u64);
        }
        fabric.add_offchip_write_bytes((m * tile_cols) as u64);

        let report = fabric.run()?;
        for e in fabric.south_collected() {
            let row = e.tag as usize;
            for l in 0..LANES {
                let col = tile_base + e.lane * LANES + l;
                if col < n {
                    result[(row, col)] += e.value.0[l];
                }
            }
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
    Ok(SpmmOutput { result, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_sparse::{gen, reference};

    fn cfg() -> CanonConfig {
        CanonConfig::default()
    }

    #[test]
    fn spmm_matches_reference_moderate_sparsity() {
        let mut rng = gen::seeded_rng(21);
        let a = gen::random_sparse(24, 32, 0.5, &mut rng);
        let b = Dense::random(32, 32, &mut rng);
        let out = run_spmm(&cfg(), &SpmmMapping::default(), &a, &b).unwrap();
        assert_eq!(out.result, reference::spmm(&a, &b));
        assert!(out.report.cycles > 0);
        assert!(out.report.stats.mac_instrs > 0);
    }

    #[test]
    fn spmm_matches_reference_high_sparsity_skewed() {
        let mut rng = gen::seeded_rng(22);
        let a = gen::skewed_sparse(40, 64, 0.85, 3.0, &mut rng);
        let b = Dense::random(64, 32, &mut rng);
        let out = run_spmm(&cfg(), &SpmmMapping::default(), &a, &b).unwrap();
        assert_eq!(out.result, reference::spmm(&a, &b));
    }

    #[test]
    fn spmm_dense_input_high_utilization() {
        // K = 256 → 32 MACs per output row per PE row; the per-row overhead
        // (row-end + psum accumulation) then costs ~2/34 of the cycles.
        let mut rng = gen::seeded_rng(23);
        let a = gen::random_sparse(32, 256, 0.0, &mut rng); // fully dense
        let b = Dense::random(256, 32, &mut rng);
        let out = run_spmm(&cfg(), &SpmmMapping::default(), &a, &b).unwrap();
        assert_eq!(out.result, reference::spmm(&a, &b));
        let util = out.report.compute_utilization();
        assert!(util > 0.8, "dense utilization {util} too low");
    }

    #[test]
    fn spmm_small_window_forces_bypass() {
        // Depth 1 forces bypasses under skew; result must still be exact.
        let mut rng = gen::seeded_rng(24);
        let a = gen::skewed_sparse(32, 32, 0.7, 4.0, &mut rng);
        let b = Dense::random(32, 32, &mut rng);
        let mapping = SpmmMapping {
            spad_depth: 1,
            ..SpmmMapping::default()
        };
        let out = run_spmm(&cfg(), &mapping, &a, &b).unwrap();
        assert_eq!(out.result, reference::spmm(&a, &b));
    }

    #[test]
    fn spmm_empty_matrix() {
        let a = CsrMatrix::from_dense(&Dense::zeros(8, 32));
        let b = Dense::from_rows(&(0..32).map(|i| vec![i; 32]).collect::<Vec<_>>());
        let out = run_spmm(&cfg(), &SpmmMapping::default(), &a, &b).unwrap();
        assert_eq!(out.result, Dense::zeros(8, 32));
    }

    #[test]
    fn spmm_multi_tile_output() {
        // N = 96 → three 32-wide tiles on the default 8×8 fabric.
        let mut rng = gen::seeded_rng(25);
        let a = gen::random_sparse(16, 32, 0.6, &mut rng);
        let b = Dense::random(32, 96, &mut rng);
        let out = run_spmm(&cfg(), &SpmmMapping::default(), &a, &b).unwrap();
        assert_eq!(out.result, reference::spmm(&a, &b));
    }

    #[test]
    fn spmm_ragged_n_padding() {
        // N = 40: one full tile plus a partial tile.
        let mut rng = gen::seeded_rng(26);
        let a = gen::random_sparse(12, 32, 0.4, &mut rng);
        let b = Dense::random(32, 40, &mut rng);
        let out = run_spmm(&cfg(), &SpmmMapping::default(), &a, &b).unwrap();
        assert_eq!(out.result, reference::spmm(&a, &b));
    }

    #[test]
    fn mapping_errors() {
        let mut rng = gen::seeded_rng(27);
        let a = gen::random_sparse(4, 30, 0.5, &mut rng); // K=30 not /8
        let b = Dense::random(30, 8, &mut rng);
        assert!(matches!(
            run_spmm(&cfg(), &SpmmMapping::default(), &a, &b),
            Err(SimError::Mapping { .. })
        ));
        let a = gen::random_sparse(4, 32, 0.5, &mut rng);
        let b = Dense::random(16, 8, &mut rng); // K mismatch
        assert!(run_spmm(&cfg(), &SpmmMapping::default(), &a, &b).is_err());
    }

    #[test]
    fn deeper_buffer_tolerates_skew_better() {
        let mut rng = gen::seeded_rng(28);
        let a = gen::skewed_sparse(96, 64, 0.8, 4.0, &mut rng);
        let b = Dense::random(64, 32, &mut rng);
        let shallow = run_spmm(
            &cfg(),
            &SpmmMapping {
                spad_depth: 1,
                ..SpmmMapping::default()
            },
            &a,
            &b,
        )
        .unwrap();
        let deep = run_spmm(
            &cfg(),
            &SpmmMapping {
                spad_depth: 16,
                ..SpmmMapping::default()
            },
            &a,
            &b,
        )
        .unwrap();
        assert_eq!(shallow.result, deep.result);
        assert!(
            deep.report.cycles <= shallow.report.cycles,
            "depth 16 ({}) should not be slower than depth 1 ({})",
            deep.report.cycles,
            shallow.report.cycles
        );
    }

    #[test]
    fn fsm_state_machine_unit() {
        // Drive the FSM directly: a single row, single nnz.
        let mut fsm = SpmmFsm::new(4, 1);
        let io = OrchIo {
            cycle: 0,
            input: Some(MetaToken::Nnz {
                row: 0,
                col: 3,
                value: 5,
            }),
            msg: None,
            south_credits: 2,
            msg_slot_free: true,
            north_tokens: 0,
        };
        let a = fsm.step(&io);
        assert_eq!(a.state_id, state::MAC);
        assert!(a.consumes_input());
        assert_eq!(a.instr.op, Opcode::MacS);
        assert_eq!(a.instr.op2, Addr::DataMem(3));
        // Row end: occupancy 1 < depth, no flush, no new row (m_total = 1).
        let io2 = OrchIo {
            input: Some(MetaToken::RowEnd { row: 0 }),
            ..io
        };
        let a2 = fsm.step(&io2);
        assert_eq!(a2.state_id, state::NOP);
        // End: drain the single psum.
        let io3 = OrchIo {
            input: Some(MetaToken::End),
            ..io
        };
        let a3 = fsm.step(&io3);
        assert_eq!(a3.state_id, state::DRAIN);
        assert_eq!(a3.instr.op, Opcode::MovFlush);
        assert!(a3.msg_out().is_some());
        let a4 = fsm.step(&io3);
        assert_eq!(a4.state_id, state::DONE);
        assert!(fsm.done());
    }

    #[test]
    fn fsm_stalls_without_credit() {
        let mut fsm = SpmmFsm::new(1, 2);
        // Fill row 0 then hit its row end with zero credits: flush must stall.
        let io = OrchIo {
            cycle: 0,
            input: Some(MetaToken::RowEnd { row: 0 }),
            msg: None,
            south_credits: 0,
            msg_slot_free: true,
            north_tokens: 0,
        };
        let a = fsm.step(&io);
        assert!(a.stalled());
        assert!(!a.consumes_input());
    }

    #[test]
    fn fsm_acc_on_managed_message() {
        let mut fsm = SpmmFsm::new(4, 4);
        let io = OrchIo {
            cycle: 0,
            input: None,
            msg: Some(OrchMessage {
                id: msg_id::PSUM,
                rid: 0,
            }),
            south_credits: 2,
            msg_slot_free: true,
            north_tokens: 1,
        };
        let a = fsm.step(&io);
        assert_eq!(a.state_id, state::ACC);
        assert!(a.consumes_msg());
        assert_eq!(a.instr.op, Opcode::Acc);
        assert_eq!(a.instr.op1, Addr::Port(Direction::North));
    }

    #[test]
    fn fsm_bypass_on_unmanaged_message() {
        let mut fsm = SpmmFsm::new(2, 10);
        // Advance the window past rid 0: two row ends with full window.
        // depth=2: after RowEnd(0) occ=2; after RowEnd(1) occ==depth → flush.
        let mk_io = |input, msg| OrchIo {
            cycle: 0,
            input,
            msg,
            south_credits: 2,
            msg_slot_free: true,
            north_tokens: 1,
        };
        fsm.step(&mk_io(Some(MetaToken::RowEnd { row: 0 }), None));
        let f = fsm.step(&mk_io(Some(MetaToken::RowEnd { row: 1 }), None));
        assert_eq!(f.state_id, state::FLUSH);
        // rid 0 now below the window → bypass.
        let a = fsm.step(&mk_io(
            None,
            Some(OrchMessage {
                id: msg_id::PSUM,
                rid: 0,
            }),
        ));
        assert!(a.consumes_msg());
        assert_eq!(a.msg_out().unwrap().rid, 0);
        let route = a.instr.route.unwrap();
        assert_eq!(route.from, Direction::North);
        assert_eq!(route.to, Direction::South);
    }
}
