//! Dense GEMM on Canon: the systolic-dataflow emulation of §6.2.
//!
//! For fully regular inputs Canon "emulates the systolic dataflow of
//! conventional systolic arrays": the streamed operand arrives in row-major
//! order with no gaps, partial sums accumulate in a SIMD register (the
//! scratchpad stays idle — Fig 11 shows no scratchpad power under GEMM), and
//! every row flushes its contribution south on each row boundary. Flushed
//! fragments ride the NoC south through downstream rows (pass-through routes
//! along the MAC stream) and are merged at the bottom edge.
//!
//! The same FSM serves N:M structured sparsity (§4.1.3): with exactly N
//! non-zeros per M elements the workload is balanced by construction, "there
//! is no need of workload balancing with scratchpad", and the psum is flushed
//! to the next row after every group — which is precisely the register-mode
//! flush-on-row-end behaviour with the structured stream.
//!
//! ## Row-group fold
//!
//! [`RegAccFsm`] bypasses every upstream psum south, so the bottom PE row
//! relays one psum per (flushing row, owned output row) pair above it. With
//! `K` split across all `rows` that is about `m·rows` relays against only
//! `m·K/rows` MACs to carry them, and large fabrics turn relay-bound. The
//! mapping therefore folds `M` across row groups: the rows split into
//! `G = rows/g` groups of `g` consecutive rows, group `i` owns the output
//! rows `m ≡ i (mod G)`, and inside a group `K` splits `g` ways (the streams
//! of [`build_row_streams`], the replicated `B` of [`preload_b_tile`]). The
//! bottom row then relays `m·g − ⌈m/G⌉` psums, riding them on its
//! `≈ nnz/rows` MACs, and flushes `⌈m/G⌉` times itself, so
//!
//! ```text
//! cycles ≈ max(nnz/rows, m·g − ⌈m/G⌉) + ⌈m/G⌉
//! ```
//!
//! [`pick_fold`] minimises this over the legal heights [`fold_candidates`]
//! (powers of two dividing `rows`, plus `rows`, that [`segment_words`]
//! accepts, with `G ≤ m`), taking the larger `g` on a tie because it
//! replicates `B` less. `g = rows` is the unfolded layout the scratchpad
//! SpMM mapping uses; it stays one candidate, not a second code path.
//!
//! [`build_row_streams`]: crate::kernels::spmm::build_row_streams
//! [`preload_b_tile`]: crate::kernels::spmm::preload_b_tile
//! [`segment_words`]: crate::kernels::spmm::segment_words

use crate::config::CanonConfig;
use crate::isa::{Addr, Instruction, Opcode, Vector};
use crate::kernels::spmm::{self, bypass, flush_south, segment_words, state, SpmmMapping};
use crate::kernels::{KernelOutput, Mapping, Operands};
use crate::orchestrator::{MetaToken, OrchAction, OrchIo, OrchProgram};
use crate::SimError;
use canon_sparse::{CsrMatrix, Dense};

/// Register-accumulation FSM: MACs accumulate into `Reg(0)`, each row end
/// flushes the register south, incoming psums always bypass (no managed
/// window).
#[derive(Debug)]
pub struct RegAccFsm {
    done: bool,
}

impl RegAccFsm {
    /// Creates the FSM for `m_total` output rows.
    pub fn new(m_total: usize) -> RegAccFsm {
        RegAccFsm { done: m_total == 0 }
    }

    #[inline]
    fn input_decision(&mut self, io: &OrchIo) -> OrchAction {
        match io.input {
            Some(MetaToken::Nnz { row, col, value }) => OrchAction::issue(
                Instruction::new(
                    Opcode::MacS,
                    Addr::Imm,
                    Addr::DataMem(col as u16),
                    Addr::Reg(0),
                )
                .with_imm(Vector::splat(value))
                .with_tag(row),
                state::MAC,
            )
            .take_input(),
            Some(MetaToken::RowEnd { row }) => {
                let action = flush_south(io, Addr::Reg(0), row, state::FLUSH);
                match action.stalled() {
                    true => action,
                    false => action.take_input(),
                }
            }
            Some(MetaToken::End) => {
                self.done = true;
                OrchAction::nop(state::DONE).take_input()
            }
            Some(other) => {
                debug_assert!(false, "unexpected token {other:?} in GEMM stream");
                OrchAction::nop(state::NOP)
            }
            None => OrchAction::nop(state::NOP),
        }
    }
}

impl OrchProgram for RegAccFsm {
    #[inline]
    fn step(&mut self, io: &OrchIo) -> OrchAction {
        // Bypass handling stays live after the local stream finished (the
        // DONE state keeps reacting to upstream psums).
        if let Some(msg) = io.msg {
            // No managed window: every upstream psum bypasses south.
            return bypass(io, msg, !self.done, |sub_io| self.input_decision(sub_io));
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

/// The row-group heights the register-accumulation mapping may fold an
/// `m × k` operand into on `cfg` (ascending): powers of two dividing
/// `cfg.rows`, plus `cfg.rows` itself, whose layout is legal (`k` splits
/// evenly and each K-segment fits in data memory, see [`segment_words`])
/// and whose every group owns at least one output row. Empty when no height
/// is legal.
pub fn fold_candidates(cfg: &CanonConfig, m: usize, k: usize) -> Vec<usize> {
    let rows = cfg.rows;
    let mut heights: Vec<usize> = std::iter::successors(Some(1usize), |g| Some(g * 2))
        .take_while(|&g| g < rows)
        .filter(|&g| rows.is_multiple_of(g))
        .collect();
    heights.push(rows);
    heights.retain(|&g| segment_words(cfg, k, g).is_ok() && rows / g <= m);
    heights
}

/// The row-group height the register-accumulation mapping runs an `m × k`
/// operand with `nnz` streamed elements at: the [`fold_candidates`] entry of
/// least predicted cycles `max(nnz/rows, m·g − ⌈m/G⌉) + ⌈m/G⌉` (see the
/// module docs), the larger height on a tie. Falls back to `cfg.rows` (the
/// unfolded layout, whose mapping errors then describe the violated
/// constraint) when no height is legal.
pub fn pick_fold(cfg: &CanonConfig, m: usize, k: usize, nnz: usize) -> usize {
    let rows = cfg.rows;
    let cost = |g: usize| {
        let owned = m.div_ceil(rows / g);
        nnz.div_ceil(rows).max(m * g - owned) + owned
    };
    let candidates = fold_candidates(cfg, m, k).into_iter().rev();
    candidates.min_by_key(|&g| cost(g)).unwrap_or(rows)
}

/// Converts a dense matrix into a "dense CSR" that keeps explicit zeros, so
/// that the data-agnostic GEMM stream contains every element (no sparsity
/// exploitation — GEMM is the regular-workload reference point).
pub fn dense_as_full_csr(a: &Dense) -> CsrMatrix {
    let m = a.rows();
    let k = a.cols();
    let row_ptr = (0..=m).map(|r| r * k).collect();
    let col_idx = (0..m).flat_map(|_| 0..k).collect();
    let values = a.as_slice().to_vec();
    CsrMatrix::new(m, k, row_ptr, col_idx, values).expect("dense CSR structure is valid")
}

/// Compiles dense GEMM (`C = A × B`): the full `m·k` stream under register
/// accumulation at [`pick_fold`]'s height.
///
/// # Errors
///
/// As [`spmm::compile`].
pub fn compile(cfg: &CanonConfig, a: &Dense, b: &Dense) -> Result<Mapping, SimError> {
    let (m, k) = (a.rows(), a.cols());
    spmm::compile(cfg, &SpmmMapping::REGISTER, (m, k, m * k), b)
}

/// Runs dense GEMM on the Canon fabric: [`compile`], then
/// [`execute`](super::execute)'s executor over [`dense_as_full_csr`].
///
/// # Errors
///
/// As [`compile`]; propagates simulation errors.
pub fn run_gemm(cfg: &CanonConfig, a: &Dense, b: &Dense) -> Result<KernelOutput, SimError> {
    let map = compile(cfg, a, b)?;
    let a = &dense_as_full_csr(a);
    super::run_tiles(cfg, &map, Operands::Stream { a, b }, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{msg_id, OrchMessage};
    use canon_sparse::{gen, reference};

    #[test]
    fn gemm_matches_reference() {
        let mut rng = gen::seeded_rng(31);
        let a = Dense::random(24, 32, &mut rng);
        let b = Dense::random(32, 32, &mut rng);
        let out = run_gemm(&CanonConfig::default(), &a, &b).unwrap();
        assert_eq!(out.result, reference::gemm(&a, &b));
    }

    #[test]
    fn gemm_streams_every_element() {
        let mut rng = gen::seeded_rng(32);
        let a = Dense::random(16, 32, &mut rng);
        let b = Dense::random(32, 32, &mut rng);
        let out = run_gemm(&CanonConfig::default(), &a, &b).unwrap();
        // Data-agnostic: exactly M*K MAC tokens per row tile, across 8 rows.
        assert_eq!(out.report.stats.mac_instrs, (16 * 32 / 8 * 8 * 8) as u64);
    }

    #[test]
    fn gemm_does_not_touch_scratchpad() {
        let mut rng = gen::seeded_rng(33);
        let a = Dense::random(16, 32, &mut rng);
        let b = Dense::random(32, 32, &mut rng);
        let out = run_gemm(&CanonConfig::default(), &a, &b).unwrap();
        assert_eq!(out.report.stats.spad_reads, 0, "GEMM must not read spad");
        assert_eq!(out.report.stats.spad_writes, 0, "GEMM must not write spad");
    }

    #[test]
    fn gemm_high_utilization() {
        let mut rng = gen::seeded_rng(34);
        let a = Dense::random(64, 64, &mut rng);
        let b = Dense::random(64, 32, &mut rng);
        let out = run_gemm(&CanonConfig::default(), &a, &b).unwrap();
        let util = out.report.compute_utilization();
        assert!(util > 0.75, "dense GEMM utilization {util} too low");
    }

    #[test]
    fn fold_pick_follows_the_cost_model() {
        let cfg = |rows, dmem_words| CanonConfig {
            dmem_words,
            ..CanonConfig::default().with_geometry(rows, rows)
        };
        // Relay-bound: the smallest legal group wins.
        assert_eq!(
            fold_candidates(&cfg(64, 1024), 256, 256),
            [1, 2, 4, 8, 16, 32, 64]
        );
        assert_eq!(pick_fold(&cfg(64, 1024), 256, 256, 256 * 256), 1);
        // MAC-bound with a full data memory: only the unfolded layout fits.
        assert_eq!(fold_candidates(&cfg(64, 8192), 2, 524_288), [64]);
        // Two output rows allow at most two groups; K/g must fit in 64 words.
        assert_eq!(fold_candidates(&cfg(8, 64), 2, 256), [4, 8]);
        // One output row leaves nothing to fold.
        assert_eq!(pick_fold(&cfg(8, 1024), 1, 64, 64), 8);
        // No legal height: the unfolded layout, whose errors explain why.
        assert_eq!(fold_candidates(&cfg(8, 1024), 4, 9), Vec::<usize>::new());
        assert_eq!(pick_fold(&cfg(8, 1024), 4, 9, 36), 8);
    }

    #[test]
    fn dense_as_full_csr_keeps_zeros() {
        let a = Dense::from_rows(&[vec![0, 1], vec![2, 0]]);
        let full = dense_as_full_csr(&a);
        assert_eq!(full.nnz(), 4);
        assert_eq!(full.to_dense(), a);
    }

    #[test]
    fn regacc_fsm_flush_on_rowend() {
        let mut fsm = RegAccFsm::new(2);
        let io = OrchIo {
            cycle: 0,
            input: Some(MetaToken::RowEnd { row: 0 }),
            msg: None,
            south_credits: 2,
            msg_slot_free: true,
            north_tokens: 0,
        };
        let a = fsm.step(&io);
        assert_eq!(a.instr.op, Opcode::MovFlush);
        assert_eq!(a.instr.op1, Addr::Reg(0));
        assert_eq!(a.msg_out().unwrap().rid, 0);
    }

    #[test]
    fn regacc_fsm_always_bypasses_messages() {
        let mut fsm = RegAccFsm::new(4);
        let io = OrchIo {
            cycle: 0,
            input: Some(MetaToken::Nnz {
                row: 0,
                col: 1,
                value: 2,
            }),
            msg: Some(OrchMessage {
                id: msg_id::PSUM,
                rid: 0,
            }),
            south_credits: 2,
            msg_slot_free: true,
            north_tokens: 1,
        };
        let a = fsm.step(&io);
        assert!(a.consumes_msg() && a.consumes_input());
        assert_eq!(a.instr.op, Opcode::MacS);
        assert!(a.instr.route.is_some());
        assert_eq!(a.msg_out().unwrap().rid, 0);
    }
}
