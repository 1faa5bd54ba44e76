//! The programmable orchestrator (§3.2, Fig 5).
//!
//! One orchestrator drives each PE row. Every cycle it examines (a) the head
//! of its input meta-data stream (sparse coordinates, row-end tokens), (b)
//! the message register fed by its northern neighbour orchestrator, and (c)
//! flow-control state (south-channel credits, message-slot availability), and
//! produces one instruction for its row plus optional state updates and an
//! optional message to the southern neighbour.
//!
//! Two implementations of the data-to-instruction translation are provided:
//!
//! * **native FSMs** — Rust state machines in [`crate::kernels`] implementing
//!   the paper's per-kernel microcode (e.g. Listing 1 for SpMM) directly;
//! * **the LUT bitstream path** ([`lut`], [`assembler`]) — a faithful model of
//!   the hardware's programmable-logic lookup table (2¹⁰ entries × 48 bits,
//!   6 KB SRAM) driven by a fixed datapath of condition ALUs and
//!   address-generation units. Kernel FSMs can be *assembled* into a
//!   bitstream and executed by [`lut::LutProgram`]; differential tests check
//!   the two paths are cycle-identical.

pub mod assembler;
pub mod lut;

use crate::isa::Instruction;
use crate::stats::StallCause;
use canon_sparse::Value;

/// A token of the input meta-data stream (`INPUT_META_IN` in Fig 5).
///
/// The semantics of tokens "are not fixed by the hardware but defined by the
/// compiler" (§3.2); these variants cover the kernels mapped in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaToken {
    /// A non-zero of the streamed sparse operand: `A[row][col]` where `col`
    /// is local to this row's K-segment. Carries the value, which the
    /// orchestrator places in the instruction immediate (west-edge stream).
    Nnz {
        /// Output-row id (RID).
        row: u32,
        /// Column index local to this PE row's segment (CID).
        col: u32,
        /// The non-zero value.
        value: Value,
    },
    /// End of output row `row` in the streamed operand.
    RowEnd {
        /// Output-row id that just ended.
        row: u32,
    },
    /// A masked output position for SDDMM: compute output `(row, col)` where
    /// `col` is local to this PE row's N-segment.
    MaskPos {
        /// Output-row id (`m`).
        row: u32,
        /// Local output column (`h`).
        col: u32,
    },
    /// End of SDDMM output row `row`.
    MRowEnd {
        /// Output-row id that just ended.
        row: u32,
    },
    /// End of the whole stream.
    End,
}

/// Latency, in cycles, of the channels between vertically adjacent
/// orchestrators: a message or a south-channel credit return sent at cycle
/// `n` is visible at `n + MSG_LATENCY`.
pub const MSG_LATENCY: u64 = 2;

/// Capacity, in messages, of each orchestrator-to-orchestrator message
/// channel.
pub const MSG_CAPACITY: usize = 4;

/// Message identifiers on the inter-orchestrator channel.
pub mod msg_id {
    /// A partial sum for output row `rid` was flushed south (Listing 1's
    /// `PSUM[RID]`).
    pub const PSUM: u8 = 1;
}

/// A message between vertically adjacent orchestrators
/// (`ORCH_MSG_OUT`/`ORCH_MSG_IN` + `MSG_ID` in Fig 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrchMessage {
    /// Message type (see [`msg_id`]).
    pub id: u8,
    /// Message payload: the row id it refers to.
    pub rid: u32,
}

/// Everything an orchestrator can observe in one cycle.
#[derive(Debug, Clone, Copy)]
pub struct OrchIo {
    /// Current cycle (for diagnostics).
    pub cycle: u64,
    /// Head of the input meta-data stream, if any.
    pub input: Option<MetaToken>,
    /// Delivered message from the northern orchestrator, if any.
    pub msg: Option<OrchMessage>,
    /// Remaining credits on this row's southbound data channel. An
    /// instruction that pushes South (result or route) consumes one credit;
    /// the fabric returns it when the southern row pops.
    pub south_credits: usize,
    /// Whether a message can be sent south this cycle.
    pub msg_slot_free: bool,
    /// Number of tokens currently waiting in this row's column-0 North FIFO
    /// (uniform across columns by the staggered-timing invariant). Non-zero
    /// means an instruction reading `Port(North)` can be issued.
    pub north_tokens: usize,
}

/// The orchestrator's decision for one cycle.
///
/// The struct is the per-row hand-off between every FSM step and the
/// fabric, returned by value once per live row per cycle, so it is kept
/// `Copy` and slim: the two consume bits, the message bit, and the stall
/// cause are packed into one flags byte instead of discrete fields
/// (construction goes through [`OrchAction::issue`]/[`OrchAction::nop`]/
/// [`OrchAction::stall`] and the `take_*`/`send` builders; the accessors
/// below read the bits back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrchAction {
    /// Instruction issued to the first PE of the row (possibly NOP).
    pub instr: Instruction,
    /// Outgoing-message payload; meaningful only when `F_MSG_OUT` is set
    /// (read through [`OrchAction::msg_out`] — packing the presence bit
    /// into `flags` keeps the struct a niche-free 52 bytes instead of
    /// carrying an `Option` discriminant plus padding).
    msg: OrchMessage,
    /// FSM main-state identifier after this cycle (3-bit State Register in
    /// Fig 5); the fabric counts changes as data-driven state transitions.
    pub state_id: u8,
    /// Packed consume/message bits + stall cause (see the bit constants).
    flags: u8,
}

// The hand-off is returned by value once per live row per cycle; keep it
// from quietly growing back the padding PR 6's flag packing removed.
const _: () = assert!(std::mem::size_of::<OrchAction>() <= 52);

/// `flags` bit: the head input token was consumed.
const F_CONSUME_INPUT: u8 = 1 << 0;
/// `flags` bit: the delivered message was consumed.
const F_CONSUME_MSG: u8 = 1 << 1;
/// `flags` bit: `msg` carries an outgoing message.
const F_MSG_OUT: u8 = 1 << 2;
/// `flags` bits 4..: stall cause + 1 (`0` = not stalled).
const F_STALL_SHIFT: u8 = 4;

impl OrchAction {
    /// An action issuing `instr` in the given state, consuming nothing.
    pub fn issue(instr: Instruction, state_id: u8) -> OrchAction {
        OrchAction {
            instr,
            msg: OrchMessage { id: 0, rid: 0 },
            state_id,
            flags: 0,
        }
    }

    /// A plain NOP action in the given state.
    pub fn nop(state_id: u8) -> OrchAction {
        OrchAction::issue(Instruction::NOP, state_id)
    }

    /// A NOP action that records back-pressure, attributed to `cause`
    /// ([`Stats::stall_cycles`](crate::stats::Stats::stall_cycles) and the
    /// per-cause [`StallBreakdown`](crate::stats::StallBreakdown) both
    /// count it). The fabric steps the row again next cycle, so a program
    /// that keeps stalling records one stall cycle per cycle until its
    /// inputs (a credit return, a freed message slot, a north token)
    /// change.
    pub fn stall(state_id: u8, cause: StallCause) -> OrchAction {
        let mut a = OrchAction::nop(state_id);
        a.flags = (cause as u8 + 1) << F_STALL_SHIFT;
        a
    }

    /// Marks the head input token as consumed (builder).
    #[must_use]
    pub fn take_input(mut self) -> OrchAction {
        self.flags |= F_CONSUME_INPUT;
        self
    }

    /// Marks the delivered message as consumed (builder).
    #[must_use]
    pub fn take_msg(mut self) -> OrchAction {
        self.flags |= F_CONSUME_MSG;
        self
    }

    /// Attaches an outgoing message (builder).
    #[must_use]
    pub fn send(mut self, m: OrchMessage) -> OrchAction {
        self.msg = m;
        self.flags |= F_MSG_OUT;
        self
    }

    /// The message to send south this cycle, if any.
    #[inline]
    pub fn msg_out(&self) -> Option<OrchMessage> {
        (self.flags & F_MSG_OUT != 0).then_some(self.msg)
    }

    /// Whether the head input token was consumed.
    #[inline]
    pub fn consumes_input(&self) -> bool {
        self.flags & F_CONSUME_INPUT != 0
    }

    /// Whether the delivered message was consumed.
    #[inline]
    pub fn consumes_msg(&self) -> bool {
        self.flags & F_CONSUME_MSG != 0
    }

    /// Why the orchestrator was back-pressured this cycle, if it was;
    /// `Some` is counted as a stall cycle under that cause.
    #[inline]
    pub fn stall_cause(&self) -> Option<StallCause> {
        let bits = self.flags >> F_STALL_SHIFT;
        if bits == 0 {
            None
        } else {
            StallCause::from_index(bits - 1)
        }
    }

    /// True when the action records back-pressure.
    #[inline]
    pub fn stalled(&self) -> bool {
        self.flags >> F_STALL_SHIFT != 0
    }

    /// Clears the stall attribution (bypass paths that turn a stall into
    /// forward progress after inspecting more inputs).
    pub fn clear_stall(&mut self) {
        self.flags &= (1 << F_STALL_SHIFT) - 1;
    }
}

/// The data-to-instruction translation function executed by an orchestrator.
///
/// Implementations are per-kernel "microcode": native Rust FSMs in
/// [`crate::kernels`], or assembled LUT bitstreams via [`lut::LutProgram`].
///
/// Decisions should be functions of the *observable inputs* ([`OrchIo`])
/// and the program's own state — `io.cycle` is diagnostic.
pub trait OrchProgram {
    /// Computes this cycle's action from the observable inputs. Called once
    /// per cycle until [`OrchProgram::done`] returns true, and again on any
    /// later cycle with a deliverable message.
    fn step(&mut self, io: &OrchIo) -> OrchAction;

    /// True once the orchestrator has finished its stream and drained all
    /// buffered state (the fabric stops invoking it and lets the row's
    /// pipeline drain).
    fn done(&self) -> bool;
}

/// A trivial program that issues nothing and is immediately done (rows not
/// participating in a kernel).
#[derive(Debug, Default, Clone)]
pub struct IdleProgram;

impl OrchProgram for IdleProgram {
    fn step(&mut self, _io: &OrchIo) -> OrchAction {
        OrchAction::nop(0)
    }
    fn done(&self) -> bool {
        true
    }
}

/// The orchestrator program installed on a fabric row, dispatched as an
/// enum.
///
/// The fabric calls [`OrchProgram::step`] once per row per cycle — with a
/// `Box<dyn OrchProgram>` that was a vtable indirection on the per-cycle
/// orchestrator phase. All of the paper's kernel FSMs are known statically,
/// so rows dispatch through this enum instead; [`RowProgram::Custom`] keeps
/// the open trait for scripted programs in tests and downstream
/// experiments.
///
/// Kernel mappers pass their FSM straight to
/// [`crate::Fabric::set_program`], which accepts `impl Into<RowProgram>`.
pub enum RowProgram {
    /// A row not participating in the kernel.
    Idle(IdleProgram),
    /// The SpMM scratchpad-window FSM (Listing 1).
    Spmm(crate::kernels::spmm::SpmmFsm),
    /// The register-accumulation FSM (dense GEMM / N:M structured).
    RegAcc(crate::kernels::gemm::RegAccFsm),
    /// The SDDMM FSM (Listing 4).
    Sddmm(crate::kernels::sddmm::SddmmFsm),
    /// An assembled LUT bitstream interpreted by the Fig 5 datapath.
    Lut(lut::LutProgram),
    /// An arbitrary boxed program (scripted tests, experiments).
    Custom(Box<dyn OrchProgram>),
}

impl RowProgram {
    /// Wraps an arbitrary program in the boxed escape hatch.
    pub fn custom(program: impl OrchProgram + 'static) -> RowProgram {
        RowProgram::Custom(Box::new(program))
    }

    /// True when the fabric may run this row in column lockstep (see
    /// [`crate::fabric`]): every instruction the program can issue moves
    /// data only vertically (no West/East port, no phantom south drive), or
    /// its only West/East instruction is SDDMM's chain, which pops West and
    /// pushes East in one instruction. The SpMM-window, register-
    /// accumulation and SDDMM FSMs qualify; a LUT program qualifies when
    /// its instruction table is vertical-only
    /// ([`lut::LutProgram::is_vertical_only`]); open
    /// [`RowProgram::Custom`] programs do not.
    pub fn lockstep_safe(&self) -> bool {
        match self {
            RowProgram::Idle(_)
            | RowProgram::Spmm(_)
            | RowProgram::RegAcc(_)
            | RowProgram::Sddmm(_) => true,
            RowProgram::Lut(p) => p.is_vertical_only(),
            RowProgram::Custom(_) => false,
        }
    }
}

impl OrchProgram for RowProgram {
    #[inline]
    fn step(&mut self, io: &OrchIo) -> OrchAction {
        match self {
            RowProgram::Idle(p) => p.step(io),
            RowProgram::Spmm(p) => p.step(io),
            RowProgram::RegAcc(p) => p.step(io),
            RowProgram::Sddmm(p) => p.step(io),
            RowProgram::Lut(p) => p.step(io),
            RowProgram::Custom(p) => p.step(io),
        }
    }

    fn done(&self) -> bool {
        match self {
            RowProgram::Idle(p) => p.done(),
            RowProgram::Spmm(p) => p.done(),
            RowProgram::RegAcc(p) => p.done(),
            RowProgram::Sddmm(p) => p.done(),
            RowProgram::Lut(p) => p.done(),
            RowProgram::Custom(p) => p.done(),
        }
    }
}

impl From<IdleProgram> for RowProgram {
    fn from(p: IdleProgram) -> RowProgram {
        RowProgram::Idle(p)
    }
}

impl From<crate::kernels::spmm::SpmmFsm> for RowProgram {
    fn from(p: crate::kernels::spmm::SpmmFsm) -> RowProgram {
        RowProgram::Spmm(p)
    }
}

impl From<crate::kernels::gemm::RegAccFsm> for RowProgram {
    fn from(p: crate::kernels::gemm::RegAccFsm) -> RowProgram {
        RowProgram::RegAcc(p)
    }
}

impl From<crate::kernels::sddmm::SddmmFsm> for RowProgram {
    fn from(p: crate::kernels::sddmm::SddmmFsm) -> RowProgram {
        RowProgram::Sddmm(p)
    }
}

impl From<lut::LutProgram> for RowProgram {
    fn from(p: lut::LutProgram) -> RowProgram {
        RowProgram::Lut(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_action_defaults() {
        let a = OrchAction::nop(3);
        assert_eq!(a.state_id, 3);
        assert!(!a.stalled() && !a.consumes_input() && !a.consumes_msg());
        assert!(a.msg_out().is_none());
        let s = OrchAction::stall(1, StallCause::Credit);
        assert!(s.stalled() && s.instr.is_plain_nop());
        assert_eq!(s.stall_cause(), Some(StallCause::Credit));
    }

    #[test]
    fn action_flag_packing_roundtrips() {
        for cause in StallCause::ALL {
            let s = OrchAction::stall(2, cause);
            assert_eq!(s.stall_cause(), Some(cause));
            let mut cleared = s;
            cleared.clear_stall();
            assert_eq!(cleared.stall_cause(), None);
        }
        let a = OrchAction::issue(Instruction::NOP, 1)
            .take_input()
            .take_msg()
            .send(OrchMessage {
                id: msg_id::PSUM,
                rid: 9,
            });
        assert!(a.consumes_input() && a.consumes_msg());
        assert_eq!(a.msg_out().unwrap().rid, 9);
        assert!(!a.stalled());
        // The hand-off stays slim: Copy, with the four former bool-ish
        // fields packed into one byte.
        fn assert_copy<T: Copy>() {}
        assert_copy::<OrchAction>();
        // Instruction (40) + Option<OrchMessage> (12) + state + flags,
        // padded to 4-byte alignment = 56.
        assert!(std::mem::size_of::<OrchAction>() <= std::mem::size_of::<Instruction>() + 16);
    }

    #[test]
    fn idle_program_is_done() {
        let p = IdleProgram;
        assert!(p.done());
    }

    #[test]
    fn meta_token_variants_compare() {
        let a = MetaToken::Nnz {
            row: 1,
            col: 2,
            value: 3,
        };
        assert_ne!(a, MetaToken::RowEnd { row: 1 });
        assert_eq!(MetaToken::End, MetaToken::End);
    }
}
