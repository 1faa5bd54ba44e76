//! The LUT-based programmable orchestrator datapath (Fig 5).
//!
//! The hardware implements the data-to-instruction translation as SRAM
//! programmable logic: a lookup table with 2¹⁰ entries of 48 bits (6 KB)
//! whose inputs are the FSM state, message id, and condition flags, and whose
//! outputs configure address generation, message generation, and state-meta
//! updates. This module models that datapath bit-for-bit:
//!
//! * a set of statically-configured **condition units**, each computing
//!   `A − B − K` over selected registers and exposing carry/zero flags
//!   (Fig 5's condition-computation block; the figure shows `2 × C,Z` flag
//!   bits — we generalise to six units whose twelve flag bits *compete* for
//!   the same ten LUT input bits via the static input wiring, preserving the
//!   2¹⁰×48 b LUT geometry);
//! * a static **input wiring** choosing which ten signals (state bits, input
//!   token kind, message presence, flags) index the LUT;
//! * a 48-bit **micro-operation** per LUT entry ([`MicroOp`]) selecting the
//!   opcode, the three address-generation sources, the route, the outgoing
//!   message, the collector tag, the two state-meta updates, and the
//!   consume/done bits.
//!
//! [`LutProgram`] interprets a [`Bitstream`] against this datapath and
//! implements [`OrchProgram`], so an assembled kernel FSM runs through
//! exactly the same fabric code path as the native Rust FSMs — differential
//! tests check the two are cycle-identical.

use crate::isa::{Addr, Direction, Instruction, Opcode, Vector};
use crate::orchestrator::{msg_id, MetaToken, OrchAction, OrchIo, OrchMessage, OrchProgram};
use crate::stats::StallCause;
use crate::SimError;

/// Number of LUT input bits (2¹⁰ entries).
pub const LUT_INPUT_BITS: usize = 10;
/// Number of LUT entries.
pub const LUT_ENTRIES: usize = 1 << LUT_INPUT_BITS;
/// Width of each LUT entry in bits.
pub const LUT_ENTRY_BITS: usize = 48;
/// Number of condition units.
pub const COND_UNITS: usize = 6;

/// A register/field readable by the condition units (Fig 5's register file:
/// state-meta registers, input-meta register, message registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegSel {
    /// Constant zero.
    Zero,
    /// State Meta Register 0 (e.g. `rid_start`).
    Meta0,
    /// State Meta Register 1 (e.g. window occupancy).
    Meta1,
    /// The row field of the input meta token.
    InputRow,
    /// The column field of the input meta token.
    InputCol,
    /// The rid field of the delivered orchestrator message.
    MsgRid,
}

/// One statically-configured condition unit: computes `a − b − c − k` and
/// exposes `C` (result negative) and `Z` (result zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CondUnit {
    /// Minuend.
    pub a: RegSel,
    /// First subtrahend.
    pub b: RegSel,
    /// Second subtrahend.
    pub c: RegSel,
    /// Constant offset.
    pub k: i64,
}

impl CondUnit {
    /// A unit that always reads zero (unused slots).
    pub const UNUSED: CondUnit = CondUnit {
        a: RegSel::Zero,
        b: RegSel::Zero,
        c: RegSel::Zero,
        k: 0,
    };

    /// Convenience constructor for `a − k`.
    pub fn minus_const(a: RegSel, k: i64) -> CondUnit {
        CondUnit {
            a,
            b: RegSel::Zero,
            c: RegSel::Zero,
            k,
        }
    }

    /// Convenience constructor for `a − b`.
    pub fn diff(a: RegSel, b: RegSel) -> CondUnit {
        CondUnit {
            a,
            b,
            c: RegSel::Zero,
            k: 0,
        }
    }
}

/// One of the ten LUT input bits (static wiring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Constant zero (unused input bit).
    Zero,
    /// Bit `i` of the 3-bit State Register.
    StateBit(u8),
    /// Bit `i` of the 2-bit input-token kind (see [`token_kind`]).
    InputKindBit(u8),
    /// Message present this cycle.
    MsgPresent,
    /// Carry flag of condition unit `i`.
    FlagC(u8),
    /// Zero flag of condition unit `i`.
    FlagZ(u8),
}

/// Input token kind encoding on the meta register (2 bits).
pub mod token_kind {
    /// Stream empty.
    pub const NONE: u8 = 0;
    /// Non-zero / masked-position token.
    pub const NNZ: u8 = 1;
    /// Row-end token.
    pub const ROW_END: u8 = 2;
    /// End-of-stream token.
    pub const END: u8 = 3;
}

/// Address-generation source selectors for `op1`/`op2`/`res` (4 bits each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AddrSel {
    /// No operand.
    Null = 0,
    /// The instruction immediate (west-edge stream value).
    Imm = 1,
    /// North router port.
    PortNorth = 2,
    /// South router port.
    PortSouth = 3,
    /// West router port.
    PortWest = 4,
    /// East router port.
    PortEast = 5,
    /// SIMD register 0.
    Reg0 = 6,
    /// Scratchpad entry `input_row mod depth`.
    SpadSlotInputRow = 7,
    /// Scratchpad entry `msg_rid mod depth`.
    SpadSlotMsgRid = 8,
    /// Scratchpad entry `meta0 mod depth`.
    SpadSlotMeta0 = 9,
    /// Data-memory word `input_col`.
    DmemInputCol = 10,
}

impl AddrSel {
    fn decode(bits: u8) -> Result<AddrSel, SimError> {
        Ok(match bits {
            0 => AddrSel::Null,
            1 => AddrSel::Imm,
            2 => AddrSel::PortNorth,
            3 => AddrSel::PortSouth,
            4 => AddrSel::PortWest,
            5 => AddrSel::PortEast,
            6 => AddrSel::Reg0,
            7 => AddrSel::SpadSlotInputRow,
            8 => AddrSel::SpadSlotMsgRid,
            9 => AddrSel::SpadSlotMeta0,
            10 => AddrSel::DmemInputCol,
            other => {
                return Err(SimError::BadMicrocode {
                    reason: format!("invalid address selector {other}"),
                })
            }
        })
    }
}

/// Opcode selector (4 bits) — index into the fixed opcode table.
const OPCODE_TABLE: [Opcode; 12] = [
    Opcode::Nop,
    Opcode::Mov,
    Opcode::MovFlush,
    Opcode::Add,
    Opcode::AddFlush,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::MacV,
    Opcode::MacS,
    Opcode::Acc,
    Opcode::RedSum,
    Opcode::Max,
];

fn opcode_index(op: Opcode) -> u8 {
    OPCODE_TABLE
        .iter()
        .position(|&o| o == op)
        .expect("opcode present in table") as u8
}

/// Route selector (2 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteSel {
    /// No pass-through.
    None = 0,
    /// North → South bypass.
    NorthToSouth = 1,
}

/// Outgoing-message selector (2 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgSel {
    /// No message.
    None = 0,
    /// `PSUM(meta0)` — flush notification.
    PsumMeta0 = 1,
    /// `PSUM(msg_rid)` — bypass relay.
    PsumMsgRid = 2,
}

/// Collector-tag selector (2 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Tag 0.
    Zero = 0,
    /// Tag = input token row.
    InputRow = 1,
    /// Tag = message rid.
    MsgRid = 2,
    /// Tag = meta register 0.
    Meta0 = 3,
}

/// State-meta update selector (2 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaUpdate {
    /// Keep.
    Hold = 0,
    /// Increment.
    Inc = 1,
    /// Decrement.
    Dec = 2,
    /// Reset to zero.
    Reset = 3,
}

impl MetaUpdate {
    fn decode(bits: u8) -> MetaUpdate {
        match bits & 0b11 {
            0 => MetaUpdate::Hold,
            1 => MetaUpdate::Inc,
            2 => MetaUpdate::Dec,
            _ => MetaUpdate::Reset,
        }
    }
    fn apply(self, v: u32) -> u32 {
        match self {
            MetaUpdate::Hold => v,
            MetaUpdate::Inc => v.wrapping_add(1),
            MetaUpdate::Dec => v.wrapping_sub(1),
            MetaUpdate::Reset => 0,
        }
    }
}

/// A decoded 48-bit LUT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Next FSM state (3 bits).
    pub state_out: u8,
    /// Vector-lane opcode.
    pub op: Opcode,
    /// Operand-1 source.
    pub op1: AddrSel,
    /// Operand-2 source.
    pub op2: AddrSel,
    /// Result destination.
    pub res: AddrSel,
    /// Pass-through configuration.
    pub route: RouteSel,
    /// Outgoing message.
    pub msg: MsgSel,
    /// Collector tag source.
    pub tag: TagSel,
    /// Update of State Meta Register 0.
    pub meta0: MetaUpdate,
    /// Update of State Meta Register 1.
    pub meta1: MetaUpdate,
    /// Consume the input meta token.
    pub consume_input: bool,
    /// Consume the delivered message.
    pub consume_msg: bool,
    /// Attach the input token's value as the instruction immediate.
    pub use_imm: bool,
    /// This entry completes the program.
    pub done: bool,
}

impl MicroOp {
    /// True when the micro-op moves data only vertically (see
    /// [`LutProgram::is_vertical_only`]).
    fn is_vertical_only(&self) -> bool {
        let sideways = |a: AddrSel| matches!(a, AddrSel::PortWest | AddrSel::PortEast);
        let phantom_drive = self.op == Opcode::Nop
            && matches!(
                self.res,
                AddrSel::PortNorth | AddrSel::PortSouth | AddrSel::PortWest | AddrSel::PortEast
            );
        ![self.op1, self.op2, self.res].into_iter().any(sideways) && !phantom_drive
    }

    /// The all-NOP micro-op (unprogrammed LUT entries).
    pub const NOP: MicroOp = MicroOp {
        state_out: 0,
        op: Opcode::Nop,
        op1: AddrSel::Null,
        op2: AddrSel::Null,
        res: AddrSel::Null,
        route: RouteSel::None,
        msg: MsgSel::None,
        tag: TagSel::Zero,
        meta0: MetaUpdate::Hold,
        meta1: MetaUpdate::Hold,
        consume_input: false,
        consume_msg: false,
        use_imm: false,
        done: false,
    };

    /// Packs the micro-op into the low 48 bits of a `u64`.
    pub fn encode(&self) -> u64 {
        let mut w = 0u64;
        let mut off = 0;
        let mut put = |val: u64, bits: usize| {
            debug_assert!(val < (1 << bits));
            w |= val << off;
            off += bits;
        };
        put(self.state_out as u64 & 0b111, 3);
        put(opcode_index(self.op) as u64, 4);
        put(self.op1 as u64, 4);
        put(self.op2 as u64, 4);
        put(self.res as u64, 4);
        put(self.route as u64, 2);
        put(self.msg as u64, 2);
        put(self.tag as u64, 2);
        put(self.meta0 as u64, 2);
        put(self.meta1 as u64, 2);
        put(self.consume_input as u64, 1);
        put(self.consume_msg as u64, 1);
        put(self.use_imm as u64, 1);
        put(self.done as u64, 1);
        debug_assert!(off <= LUT_ENTRY_BITS);
        w
    }

    /// Unpacks a micro-op from the low 48 bits of a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadMicrocode`] on invalid field encodings.
    pub fn decode(w: u64) -> Result<MicroOp, SimError> {
        let mut off = 0;
        let mut get = |bits: usize| -> u64 {
            let v = (w >> off) & ((1 << bits) - 1);
            off += bits;
            v
        };
        let state_out = get(3) as u8;
        let op_idx = get(4) as usize;
        let op = *OPCODE_TABLE
            .get(op_idx)
            .ok_or_else(|| SimError::BadMicrocode {
                reason: format!("invalid opcode index {op_idx}"),
            })?;
        let op1 = AddrSel::decode(get(4) as u8)?;
        let op2 = AddrSel::decode(get(4) as u8)?;
        let res = AddrSel::decode(get(4) as u8)?;
        let route = match get(2) {
            0 => RouteSel::None,
            1 => RouteSel::NorthToSouth,
            other => {
                return Err(SimError::BadMicrocode {
                    reason: format!("invalid route selector {other}"),
                })
            }
        };
        let msg = match get(2) {
            0 => MsgSel::None,
            1 => MsgSel::PsumMeta0,
            2 => MsgSel::PsumMsgRid,
            other => {
                return Err(SimError::BadMicrocode {
                    reason: format!("invalid message selector {other}"),
                })
            }
        };
        let tag = match get(2) {
            0 => TagSel::Zero,
            1 => TagSel::InputRow,
            2 => TagSel::MsgRid,
            _ => TagSel::Meta0,
        };
        let meta0 = MetaUpdate::decode(get(2) as u8);
        let meta1 = MetaUpdate::decode(get(2) as u8);
        Ok(MicroOp {
            state_out,
            op,
            op1,
            op2,
            res,
            route,
            msg,
            tag,
            meta0,
            meta1,
            consume_input: get(1) != 0,
            consume_msg: get(1) != 0,
            use_imm: get(1) != 0,
            done: get(1) != 0,
        })
    }
}

/// The 6 KB LUT SRAM contents.
#[derive(Debug, Clone)]
pub struct Bitstream {
    entries: Vec<u64>,
}

impl Bitstream {
    /// An all-NOP bitstream.
    pub fn empty() -> Bitstream {
        Bitstream {
            entries: vec![MicroOp::NOP.encode(); LUT_ENTRIES],
        }
    }

    /// Writes entry `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= LUT_ENTRIES`.
    pub fn set(&mut self, index: usize, op: &MicroOp) {
        self.entries[index] = op.encode();
    }

    /// Reads the raw 48-bit word at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= LUT_ENTRIES`.
    pub fn word(&self, index: usize) -> u64 {
        self.entries[index]
    }

    /// Size of the modelled SRAM in bytes.
    pub fn sram_bytes(&self) -> usize {
        LUT_ENTRIES * LUT_ENTRY_BITS / 8
    }
}

/// The static (compile-time) configuration of the orchestrator datapath:
/// condition units, input wiring, and kernel constants.
#[derive(Debug, Clone)]
pub struct LutConfig {
    /// The four condition units.
    pub cond_units: [CondUnit; COND_UNITS],
    /// The ten LUT input bits.
    pub wiring: [Signal; LUT_INPUT_BITS],
    /// Scratchpad window depth used by the `SpadSlot*` address generators.
    pub depth: u32,
    /// Initial value of State Meta Register 1.
    pub meta1_init: u32,
    /// Immediately-done flag (degenerate streams).
    pub start_done: bool,
}

/// Runtime inputs visible to the datapath in one cycle.
#[derive(Debug, Clone, Copy)]
struct DatapathInputs {
    kind: u8,
    input_row: u32,
    input_col: u32,
    input_value: i32,
    msg_present: bool,
    msg_rid: u32,
}

impl DatapathInputs {
    fn from_io(io: &OrchIo) -> DatapathInputs {
        let (kind, row, col, value) = match io.input {
            Some(MetaToken::Nnz { row, col, value }) => (token_kind::NNZ, row, col, value),
            Some(MetaToken::MaskPos { row, col }) => (token_kind::NNZ, row, col, 0),
            Some(MetaToken::RowEnd { row }) | Some(MetaToken::MRowEnd { row }) => {
                (token_kind::ROW_END, row, 0, 0)
            }
            Some(MetaToken::End) => (token_kind::END, 0, 0, 0),
            None => (token_kind::NONE, 0, 0, 0),
        };
        DatapathInputs {
            kind,
            input_row: row,
            input_col: col,
            input_value: value,
            msg_present: io.msg.is_some(),
            msg_rid: io.msg.map_or(0, |m| m.rid),
        }
    }
}

/// A bitstream-driven orchestrator program.
#[derive(Debug, Clone)]
pub struct LutProgram {
    config: LutConfig,
    bitstream: Bitstream,
    state: u8,
    meta0: u32,
    meta1: u32,
    done: bool,
    /// See [`LutProgram::is_vertical_only`] (decided once from the table).
    vertical_only: bool,
}

impl LutProgram {
    /// Creates the program from a static configuration and a bitstream.
    pub fn new(config: LutConfig, bitstream: Bitstream) -> LutProgram {
        let done = config.start_done;
        let meta1 = config.meta1_init;
        let vertical_only = (0..LUT_ENTRIES)
            .all(|i| MicroOp::decode(bitstream.word(i)).map_or(true, |mo| mo.is_vertical_only()));
        LutProgram {
            config,
            bitstream,
            state: 0,
            meta0: 0,
            meta1,
            done,
            vertical_only,
        }
    }

    /// True when no entry of the instruction table names a West or East
    /// port, and no `Nop` entry names a port result: such a `Nop` claims
    /// the south drive without pushing, marking the PE below live on an
    /// empty link, which the scalar sweep retires on a schedule lockstep
    /// does not reproduce. Routes are North→South by construction.
    /// Undecodable entries issue nothing.
    pub fn is_vertical_only(&self) -> bool {
        self.vertical_only
    }

    fn reg_value(&self, sel: RegSel, inp: &DatapathInputs) -> i64 {
        match sel {
            RegSel::Zero => 0,
            RegSel::Meta0 => self.meta0 as i64,
            RegSel::Meta1 => self.meta1 as i64,
            RegSel::InputRow => inp.input_row as i64,
            RegSel::InputCol => inp.input_col as i64,
            RegSel::MsgRid => inp.msg_rid as i64,
        }
    }

    fn flags(&self, inp: &DatapathInputs) -> [(bool, bool); COND_UNITS] {
        let mut out = [(false, false); COND_UNITS];
        for (i, u) in self.config.cond_units.iter().enumerate() {
            let x = self.reg_value(u.a, inp)
                - self.reg_value(u.b, inp)
                - self.reg_value(u.c, inp)
                - u.k;
            out[i] = (x < 0, x == 0);
        }
        out
    }

    fn lut_index(&self, inp: &DatapathInputs) -> usize {
        let flags = self.flags(inp);
        let mut idx = 0usize;
        for (bit, sig) in self.config.wiring.iter().enumerate() {
            let v = match *sig {
                Signal::Zero => false,
                Signal::StateBit(i) => (self.state >> i) & 1 == 1,
                Signal::InputKindBit(i) => (inp.kind >> i) & 1 == 1,
                Signal::MsgPresent => inp.msg_present,
                Signal::FlagC(i) => flags[i as usize].0,
                Signal::FlagZ(i) => flags[i as usize].1,
            };
            if v {
                idx |= 1 << bit;
            }
        }
        idx
    }

    fn addr(&self, sel: AddrSel, inp: &DatapathInputs) -> Addr {
        let slot = |rid: u32| -> u16 { (rid % self.config.depth) as u16 };
        match sel {
            AddrSel::Null => Addr::Null,
            AddrSel::Imm => Addr::Imm,
            AddrSel::PortNorth => Addr::Port(Direction::North),
            AddrSel::PortSouth => Addr::Port(Direction::South),
            AddrSel::PortWest => Addr::Port(Direction::West),
            AddrSel::PortEast => Addr::Port(Direction::East),
            AddrSel::Reg0 => Addr::Reg(0),
            AddrSel::SpadSlotInputRow => Addr::Spad(slot(inp.input_row)),
            AddrSel::SpadSlotMsgRid => Addr::Spad(slot(inp.msg_rid)),
            AddrSel::SpadSlotMeta0 => Addr::Spad(slot(self.meta0)),
            AddrSel::DmemInputCol => Addr::DataMem(inp.input_col as u16),
        }
    }

    /// Interprets one cycle. Separated from the trait for error plumbing:
    /// malformed bitstreams surface as NOP + `debug_assert` rather than
    /// panicking the fabric (hardware would execute garbage; we stop).
    fn interpret(&mut self, io: &OrchIo) -> Result<OrchAction, SimError> {
        let inp = DatapathInputs::from_io(io);
        let idx = self.lut_index(&inp);
        let mo = MicroOp::decode(self.bitstream.word(idx))?;

        // Resource check (the hardware hold): south pushes need a credit,
        // messages need a slot.
        let pushes_south = mo.res == AddrSel::PortSouth || mo.route == RouteSel::NorthToSouth;
        let sends_msg = mo.msg != MsgSel::None;
        if pushes_south && io.south_credits == 0 {
            return Ok(OrchAction::stall(mo.state_out, StallCause::Credit));
        }
        if sends_msg && !io.msg_slot_free {
            return Ok(OrchAction::stall(mo.state_out, StallCause::MsgSlot));
        }

        let mut instr = Instruction::new(
            mo.op,
            self.addr(mo.op1, &inp),
            self.addr(mo.op2, &inp),
            self.addr(mo.res, &inp),
        );
        if mo.use_imm {
            instr = instr.with_imm(Vector::splat(inp.input_value));
        }
        if mo.route == RouteSel::NorthToSouth {
            instr = instr.with_route(Direction::North, Direction::South);
        }
        instr = instr.with_tag(match mo.tag {
            TagSel::Zero => 0,
            TagSel::InputRow => inp.input_row,
            TagSel::MsgRid => inp.msg_rid,
            TagSel::Meta0 => self.meta0,
        });
        let msg_out = match mo.msg {
            MsgSel::None => None,
            MsgSel::PsumMeta0 => Some(OrchMessage {
                id: msg_id::PSUM,
                rid: self.meta0,
            }),
            MsgSel::PsumMsgRid => Some(OrchMessage {
                id: msg_id::PSUM,
                rid: inp.msg_rid,
            }),
        };
        // Note: msg generation reads meta0 *before* the update, matching the
        // native FSM (flush announces the rid it flushed).
        self.meta0 = mo.meta0.apply(self.meta0);
        self.meta1 = mo.meta1.apply(self.meta1);
        self.state = mo.state_out;
        if mo.done {
            self.done = true;
        }
        let mut action = OrchAction::issue(instr, mo.state_out);
        if mo.consume_input {
            action = action.take_input();
        }
        if mo.consume_msg {
            action = action.take_msg();
        }
        if let Some(m) = msg_out {
            action = action.send(m);
        }
        Ok(action)
    }

    /// Current FSM state register (tests).
    pub fn state(&self) -> u8 {
        self.state
    }

    /// Current state-meta registers (tests).
    pub fn meta(&self) -> (u32, u32) {
        (self.meta0, self.meta1)
    }
}

impl OrchProgram for LutProgram {
    fn step(&mut self, io: &OrchIo) -> OrchAction {
        if self.done && io.msg.is_none() {
            return OrchAction::nop(self.state);
        }
        // The DONE state keeps its bypass rules: messages arriving after the
        // local stream finished are still relayed.
        match self.interpret(io) {
            Ok(a) => a,
            Err(e) => {
                debug_assert!(false, "bad microcode at runtime: {e}");
                OrchAction::nop(self.state)
            }
        }
    }

    fn done(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microop_encode_decode_roundtrip() {
        let mo = MicroOp {
            state_out: 5,
            op: Opcode::MacS,
            op1: AddrSel::Imm,
            op2: AddrSel::DmemInputCol,
            res: AddrSel::SpadSlotInputRow,
            route: RouteSel::NorthToSouth,
            msg: MsgSel::PsumMsgRid,
            tag: TagSel::InputRow,
            meta0: MetaUpdate::Inc,
            meta1: MetaUpdate::Dec,
            consume_input: true,
            consume_msg: true,
            use_imm: true,
            done: false,
        };
        let back = MicroOp::decode(mo.encode()).unwrap();
        assert_eq!(back, mo);
        assert_eq!(
            MicroOp::decode(MicroOp::NOP.encode()).unwrap(),
            MicroOp::NOP
        );
    }

    #[test]
    fn encode_fits_48_bits() {
        let mo = MicroOp {
            state_out: 7,
            op: Opcode::Max,
            op1: AddrSel::DmemInputCol,
            op2: AddrSel::DmemInputCol,
            res: AddrSel::DmemInputCol,
            route: RouteSel::NorthToSouth,
            msg: MsgSel::PsumMsgRid,
            tag: TagSel::Meta0,
            meta0: MetaUpdate::Reset,
            meta1: MetaUpdate::Reset,
            consume_input: true,
            consume_msg: true,
            use_imm: true,
            done: true,
        };
        assert!(mo.encode() < (1u64 << LUT_ENTRY_BITS));
    }

    #[test]
    fn bitstream_geometry_matches_paper() {
        let b = Bitstream::empty();
        // 2^10 entries × 48 bits = 6 KB SRAM (§3.2).
        assert_eq!(b.sram_bytes(), 6 * 1024);
    }

    #[test]
    fn decode_rejects_bad_fields() {
        // Opcode index 15 is out of table.
        let w = 15u64 << 3;
        assert!(MicroOp::decode(w).is_err());
    }

    #[test]
    fn condition_flags() {
        let mut cond_units = [CondUnit::UNUSED; COND_UNITS];
        cond_units[0] = CondUnit::minus_const(RegSel::Meta1, 4);
        let cfg = LutConfig {
            cond_units,
            wiring: [Signal::Zero; LUT_INPUT_BITS],
            depth: 4,
            meta1_init: 4,
            start_done: false,
        };
        let p = LutProgram::new(cfg, Bitstream::empty());
        let inp = DatapathInputs {
            kind: token_kind::NONE,
            input_row: 0,
            input_col: 0,
            input_value: 0,
            msg_present: false,
            msg_rid: 0,
        };
        // meta1 (4) - 0 - 4 = 0 → Z set, C clear.
        let flags = p.flags(&inp);
        assert_eq!(flags[0], (false, true));
    }

    #[test]
    fn lut_index_uses_wiring() {
        let mut wiring = [Signal::Zero; LUT_INPUT_BITS];
        wiring[0] = Signal::MsgPresent;
        wiring[3] = Signal::InputKindBit(0);
        let cfg = LutConfig {
            cond_units: [CondUnit::UNUSED; COND_UNITS],
            wiring,
            depth: 1,
            meta1_init: 0,
            start_done: false,
        };
        let p = LutProgram::new(cfg, Bitstream::empty());
        let inp = DatapathInputs {
            kind: token_kind::NNZ, // bit 0 set
            input_row: 0,
            input_col: 0,
            input_value: 0,
            msg_present: true,
            msg_rid: 0,
        };
        assert_eq!(p.lut_index(&inp), 0b1001);
    }

    #[test]
    fn lut_program_stalls_without_credit() {
        // Program a single entry that pushes south; with zero credits the
        // interpreter must hold.
        let mut bs = Bitstream::empty();
        let mo = MicroOp {
            res: AddrSel::PortSouth,
            op: Opcode::MovFlush,
            op1: AddrSel::SpadSlotMeta0,
            ..MicroOp::NOP
        };
        bs.set(0, &mo);
        let cfg = LutConfig {
            cond_units: [CondUnit::UNUSED; COND_UNITS],
            wiring: [Signal::Zero; LUT_INPUT_BITS],
            depth: 4,
            meta1_init: 1,
            start_done: false,
        };
        let mut p = LutProgram::new(cfg, bs);
        let io = OrchIo {
            cycle: 0,
            input: None,
            msg: None,
            south_credits: 0,
            msg_slot_free: true,
            north_tokens: 0,
        };
        let a = p.step(&io);
        assert!(a.stalled());
        let io2 = OrchIo {
            south_credits: 1,
            ..io
        };
        let a2 = p.step(&io2);
        assert!(!a2.stalled());
        assert_eq!(a2.instr.op, Opcode::MovFlush);
    }
}
