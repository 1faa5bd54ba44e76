//! Assembler: symbolic FSM rule specifications → orchestrator bitstreams.
//!
//! The compiler's last stage (§4, Fig 6: "the compute/control schedule is
//! emitted as FSM microcode, which is finally compiled into the FSM
//! bitstreams"). An [`FsmSpec`] lists symbolic [`Rule`]s — each a pattern
//! over the datapath's observable signals plus the [`MicroOp`] to emit — and
//! [`FsmSpec::assemble`] expands them into the 2¹⁰-entry LUT, rejecting
//! overlapping rules with contradictory outputs and references to signals
//! that the static wiring does not expose.
//!
//! [`spmm_fsm_spec`] builds the complete Listing 1 SpMM microcode; the
//! resulting [`LutProgram`] is differentially tested against the native
//! [`crate::kernels::spmm::SpmmFsm`].

use crate::isa::Opcode;
use crate::orchestrator::lut::token_kind;
use crate::orchestrator::lut::{
    AddrSel, Bitstream, CondUnit, LutConfig, LutProgram, MetaUpdate, MicroOp, MsgSel, RegSel,
    RouteSel, Signal, TagSel, COND_UNITS, LUT_ENTRIES, LUT_INPUT_BITS,
};
use crate::SimError;

/// A pattern over the orchestrator's observable signals. `None` fields are
/// don't-cares.
#[derive(Debug, Clone, Default)]
pub struct RulePattern {
    /// FSM state register value.
    pub state: Option<u8>,
    /// Input token kind ([`token_kind`]).
    pub kind: Option<u8>,
    /// Message present.
    pub msg_present: Option<bool>,
    /// Required carry flags per condition unit.
    pub flag_c: [Option<bool>; COND_UNITS],
    /// Required zero flags per condition unit.
    pub flag_z: [Option<bool>; COND_UNITS],
}

/// One symbolic microcode rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Human-readable name (used in assembly diagnostics).
    pub name: &'static str,
    /// When this rule applies.
    pub pattern: RulePattern,
    /// What to emit.
    pub out: MicroOp,
}

/// A complete symbolic FSM: static datapath configuration plus rules.
#[derive(Debug, Clone)]
pub struct FsmSpec {
    /// Static configuration (condition units, wiring, constants).
    pub config: LutConfig,
    /// The microcode rules.
    pub rules: Vec<Rule>,
}

/// The semantic value of one LUT index under a given wiring: which signal
/// assignment it corresponds to, or unreachable.
#[derive(Debug, Clone, Copy)]
struct IndexView {
    state: u8,
    kind: u8,
    msg_present: bool,
    flag_c: [Option<bool>; COND_UNITS],
    flag_z: [Option<bool>; COND_UNITS],
    reachable: bool,
}

impl FsmSpec {
    fn view_of(&self, idx: usize) -> IndexView {
        let mut v = IndexView {
            state: 0,
            kind: 0,
            msg_present: false,
            flag_c: [None; COND_UNITS],
            flag_z: [None; COND_UNITS],
            reachable: true,
        };
        for (bit, sig) in self.config.wiring.iter().enumerate() {
            let set = (idx >> bit) & 1 == 1;
            match *sig {
                Signal::Zero => {
                    if set {
                        v.reachable = false;
                    }
                }
                Signal::StateBit(i) => {
                    if set {
                        v.state |= 1 << i;
                    }
                }
                Signal::InputKindBit(i) => {
                    if set {
                        v.kind |= 1 << i;
                    }
                }
                Signal::MsgPresent => v.msg_present = set,
                Signal::FlagC(i) => v.flag_c[i as usize] = Some(set),
                Signal::FlagZ(i) => v.flag_z[i as usize] = Some(set),
            }
        }
        v
    }

    fn rule_matches(&self, rule: &Rule, v: &IndexView) -> Result<bool, SimError> {
        if let Some(s) = rule.pattern.state {
            if v.state != s {
                return Ok(false);
            }
        }
        if let Some(k) = rule.pattern.kind {
            if v.kind != k {
                return Ok(false);
            }
        }
        if let Some(m) = rule.pattern.msg_present {
            if v.msg_present != m {
                return Ok(false);
            }
        }
        for i in 0..COND_UNITS {
            if let Some(want) = rule.pattern.flag_c[i] {
                match v.flag_c[i] {
                    Some(have) => {
                        if have != want {
                            return Ok(false);
                        }
                    }
                    None => {
                        return Err(SimError::BadMicrocode {
                            reason: format!(
                                "rule '{}' constrains C flag of unit {i}, which is not wired",
                                rule.name
                            ),
                        })
                    }
                }
            }
            if let Some(want) = rule.pattern.flag_z[i] {
                match v.flag_z[i] {
                    Some(have) => {
                        if have != want {
                            return Ok(false);
                        }
                    }
                    None => {
                        return Err(SimError::BadMicrocode {
                            reason: format!(
                                "rule '{}' constrains Z flag of unit {i}, which is not wired",
                                rule.name
                            ),
                        })
                    }
                }
            }
        }
        Ok(true)
    }

    /// Expands the rules into a LUT bitstream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadMicrocode`] when two rules with different
    /// outputs match the same LUT entry, or a rule references an unwired
    /// flag.
    pub fn assemble(&self) -> Result<Bitstream, SimError> {
        let mut bs = Bitstream::empty();
        for idx in 0..LUT_ENTRIES {
            let v = self.view_of(idx);
            if !v.reachable {
                continue;
            }
            let mut chosen: Option<(&Rule, MicroOp)> = None;
            for rule in &self.rules {
                if self.rule_matches(rule, &v)? {
                    match &chosen {
                        None => chosen = Some((rule, rule.out)),
                        Some((prev, prev_out)) => {
                            if *prev_out != rule.out {
                                return Err(SimError::BadMicrocode {
                                    reason: format!(
                                        "rules '{}' and '{}' both match LUT entry {idx:#05x} \
                                         with different outputs",
                                        prev.name, rule.name
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            if let Some((_, out)) = chosen {
                bs.set(idx, &out);
            }
        }
        Ok(bs)
    }

    /// Assembles and wraps into a runnable [`LutProgram`].
    ///
    /// # Errors
    ///
    /// Propagates assembly errors.
    pub fn into_program(self) -> Result<LutProgram, SimError> {
        let bs = self.assemble()?;
        Ok(LutProgram::new(self.config, bs))
    }
}

/// FSM state values shared with the native SpMM FSM.
use crate::kernels::spmm::state;

/// Condition-unit assignment of the SpMM microcode.
mod spmm_units {
    /// `occ − depth`: Z → window full.
    pub const FULL: usize = 0;
    /// `occ`: Z → window empty.
    pub const EMPTY: usize = 1;
    /// `msg_rid − rid_start`: C → message below window.
    pub const BELOW: usize = 2;
    /// `msg_rid − rid_start − occ`: C → message below upper bound.
    pub const UPPER: usize = 3;
    /// `input_row − (m_total−1)`: Z → last output row.
    pub const LAST: usize = 4;
}

/// Builds the complete SpMM FSM spec (Listing 1) for a psum window of
/// `depth` entries over a stream of `m_total` output rows.
///
/// State-meta register assignment: `meta0 = rid_start`, `meta1 = occupancy`.
pub fn spmm_fsm_spec(depth: usize, m_total: usize) -> FsmSpec {
    let mut cond_units = [CondUnit::UNUSED; COND_UNITS];
    cond_units[spmm_units::FULL] = CondUnit::minus_const(RegSel::Meta1, depth as i64);
    cond_units[spmm_units::EMPTY] = CondUnit::minus_const(RegSel::Meta1, 0);
    cond_units[spmm_units::BELOW] = CondUnit::diff(RegSel::MsgRid, RegSel::Meta0);
    cond_units[spmm_units::UPPER] = CondUnit {
        a: RegSel::MsgRid,
        b: RegSel::Meta0,
        c: RegSel::Meta1,
        k: 0,
    };
    cond_units[spmm_units::LAST] = CondUnit::minus_const(RegSel::InputRow, m_total as i64 - 1);
    let mut wiring = [Signal::Zero; LUT_INPUT_BITS];
    wiring[0] = Signal::InputKindBit(0);
    wiring[1] = Signal::InputKindBit(1);
    wiring[2] = Signal::MsgPresent;
    wiring[3] = Signal::FlagZ(spmm_units::FULL as u8);
    wiring[4] = Signal::FlagZ(spmm_units::EMPTY as u8);
    wiring[5] = Signal::FlagC(spmm_units::BELOW as u8);
    wiring[6] = Signal::FlagC(spmm_units::UPPER as u8);
    wiring[7] = Signal::FlagZ(spmm_units::LAST as u8);
    let config = LutConfig {
        cond_units,
        wiring,
        depth: depth as u32,
        meta1_init: u32::from(m_total > 0),
        start_done: m_total == 0,
    };

    let flags = |c: &[(usize, bool)], z: &[(usize, bool)]| {
        let mut fc = [None; COND_UNITS];
        let mut fz = [None; COND_UNITS];
        for &(i, v) in c {
            fc[i] = Some(v);
        }
        for &(i, v) in z {
            fz[i] = Some(v);
        }
        (fc, fz)
    };

    let mac = MicroOp {
        state_out: state::MAC,
        op: Opcode::MacS,
        op1: AddrSel::Imm,
        op2: AddrSel::DmemInputCol,
        res: AddrSel::SpadSlotInputRow,
        tag: TagSel::InputRow,
        consume_input: true,
        use_imm: true,
        ..MicroOp::NOP
    };
    let flush = MicroOp {
        state_out: state::FLUSH,
        op: Opcode::MovFlush,
        op1: AddrSel::SpadSlotMeta0,
        res: AddrSel::PortSouth,
        tag: TagSel::Meta0,
        msg: MsgSel::PsumMeta0,
        meta0: MetaUpdate::Inc,
        consume_input: true,
        ..MicroOp::NOP
    };
    let acc = MicroOp {
        state_out: state::ACC,
        op: Opcode::Acc,
        op1: AddrSel::PortNorth,
        res: AddrSel::SpadSlotMsgRid,
        tag: TagSel::MsgRid,
        consume_msg: true,
        ..MicroOp::NOP
    };
    let bypass_mac = MicroOp {
        route: RouteSel::NorthToSouth,
        msg: MsgSel::PsumMsgRid,
        consume_msg: true,
        ..mac
    };
    let bypass_nop = MicroOp {
        state_out: state::NOP,
        route: RouteSel::NorthToSouth,
        msg: MsgSel::PsumMsgRid,
        consume_msg: true,
        ..MicroOp::NOP
    };

    let mut rules = Vec::new();
    // --- No message: input-driven decisions -------------------------------
    rules.push(Rule {
        name: "mac",
        pattern: RulePattern {
            kind: Some(token_kind::NNZ),
            msg_present: Some(false),
            ..RulePattern::default()
        },
        out: mac,
    });
    {
        let (fc, fz) = flags(&[], &[(spmm_units::FULL, true), (spmm_units::LAST, false)]);
        rules.push(Rule {
            name: "rowend-full",
            pattern: RulePattern {
                kind: Some(token_kind::ROW_END),
                msg_present: Some(false),
                flag_c: fc,
                flag_z: fz,
                ..RulePattern::default()
            },
            out: flush,
        });
    }
    {
        let (fc, fz) = flags(&[], &[(spmm_units::FULL, true), (spmm_units::LAST, true)]);
        rules.push(Rule {
            name: "rowend-full-last",
            pattern: RulePattern {
                kind: Some(token_kind::ROW_END),
                msg_present: Some(false),
                flag_c: fc,
                flag_z: fz,
                ..RulePattern::default()
            },
            out: MicroOp {
                meta1: MetaUpdate::Dec,
                ..flush
            },
        });
    }
    {
        let (fc, fz) = flags(&[], &[(spmm_units::FULL, false), (spmm_units::LAST, false)]);
        rules.push(Rule {
            name: "rowend-grow",
            pattern: RulePattern {
                kind: Some(token_kind::ROW_END),
                msg_present: Some(false),
                flag_c: fc,
                flag_z: fz,
                ..RulePattern::default()
            },
            out: MicroOp {
                state_out: state::NOP,
                meta1: MetaUpdate::Inc,
                consume_input: true,
                ..MicroOp::NOP
            },
        });
    }
    {
        let (fc, fz) = flags(&[], &[(spmm_units::FULL, false), (spmm_units::LAST, true)]);
        rules.push(Rule {
            name: "rowend-last",
            pattern: RulePattern {
                kind: Some(token_kind::ROW_END),
                msg_present: Some(false),
                flag_c: fc,
                flag_z: fz,
                ..RulePattern::default()
            },
            out: MicroOp {
                state_out: state::NOP,
                consume_input: true,
                ..MicroOp::NOP
            },
        });
    }
    {
        let (fc, fz) = flags(&[], &[(spmm_units::EMPTY, false)]);
        rules.push(Rule {
            name: "drain",
            pattern: RulePattern {
                kind: Some(token_kind::END),
                msg_present: Some(false),
                flag_c: fc,
                flag_z: fz,
                ..RulePattern::default()
            },
            out: MicroOp {
                state_out: state::DRAIN,
                consume_input: false,
                meta1: MetaUpdate::Dec,
                ..flush
            },
        });
    }
    {
        let (fc, fz) = flags(&[], &[(spmm_units::EMPTY, true)]);
        rules.push(Rule {
            name: "finish",
            pattern: RulePattern {
                kind: Some(token_kind::END),
                msg_present: Some(false),
                flag_c: fc,
                flag_z: fz,
                ..RulePattern::default()
            },
            out: MicroOp {
                state_out: state::DONE,
                consume_input: true,
                done: true,
                ..MicroOp::NOP
            },
        });
    }
    // --- Message present ---------------------------------------------------
    {
        // Managed: rid_start <= rid < rid_start + occ.
        let (fc, fz) = flags(
            &[(spmm_units::BELOW, false), (spmm_units::UPPER, true)],
            &[],
        );
        rules.push(Rule {
            name: "acc",
            pattern: RulePattern {
                msg_present: Some(true),
                flag_c: fc,
                flag_z: fz,
                ..RulePattern::default()
            },
            out: acc,
        });
    }
    // Unmanaged = below OR not-below-upper; expressed as two rule groups.
    for (name, fc_set) in [
        ("bypass-below", (spmm_units::BELOW, true)),
        ("bypass-above", (spmm_units::UPPER, false)),
    ] {
        for kind in [
            token_kind::NNZ,
            token_kind::ROW_END,
            token_kind::END,
            token_kind::NONE,
        ] {
            let (fc, fz) = flags(&[fc_set], &[]);
            rules.push(Rule {
                name: if kind == token_kind::NNZ {
                    "bypass-mac"
                } else {
                    name
                },
                pattern: RulePattern {
                    kind: Some(kind),
                    msg_present: Some(true),
                    flag_c: fc,
                    flag_z: fz,
                    ..RulePattern::default()
                },
                out: if kind == token_kind::NNZ {
                    bypass_mac
                } else {
                    bypass_nop
                },
            });
        }
    }
    FsmSpec { config, rules }
}

/// Builds the register-accumulation FSM spec (the GEMM / N:M structured
/// microcode): MACs accumulate into `Reg0`, every row end flushes the
/// register south, and all upstream psums bypass (no managed window).
///
/// This is the LUT counterpart of [`crate::kernels::gemm::RegAccFsm`]; the
/// two are differentially tested for cycle-identical behaviour.
pub fn regacc_fsm_spec(m_total: usize) -> FsmSpec {
    let mut wiring = [Signal::Zero; LUT_INPUT_BITS];
    wiring[0] = Signal::InputKindBit(0);
    wiring[1] = Signal::InputKindBit(1);
    wiring[2] = Signal::MsgPresent;
    let config = LutConfig {
        cond_units: [CondUnit::UNUSED; COND_UNITS],
        wiring,
        depth: 1,
        meta1_init: 0,
        start_done: m_total == 0,
    };
    let mac = MicroOp {
        state_out: state::MAC,
        op: Opcode::MacS,
        op1: AddrSel::Imm,
        op2: AddrSel::DmemInputCol,
        res: AddrSel::Reg0,
        tag: TagSel::InputRow,
        consume_input: true,
        use_imm: true,
        ..MicroOp::NOP
    };
    // The flush tags the collector entry and the PSUM message with the row
    // the RowEnd token closes: under the row-group fold a row owns every
    // G-th output row, so the ids are not a 0, 1, 2, … sequence a counter
    // could track.
    let flush = MicroOp {
        state_out: state::FLUSH,
        op: Opcode::MovFlush,
        op1: AddrSel::Reg0,
        res: AddrSel::PortSouth,
        tag: TagSel::InputRow,
        msg: MsgSel::PsumInputRow,
        consume_input: true,
        ..MicroOp::NOP
    };
    let bypass_mac = MicroOp {
        route: RouteSel::NorthToSouth,
        msg: MsgSel::PsumMsgRid,
        consume_msg: true,
        ..mac
    };
    let bypass_nop = MicroOp {
        state_out: state::NOP,
        route: RouteSel::NorthToSouth,
        msg: MsgSel::PsumMsgRid,
        consume_msg: true,
        ..MicroOp::NOP
    };
    let mut rules = vec![
        Rule {
            name: "mac",
            pattern: RulePattern {
                kind: Some(token_kind::NNZ),
                msg_present: Some(false),
                ..RulePattern::default()
            },
            out: mac,
        },
        Rule {
            name: "flush",
            pattern: RulePattern {
                kind: Some(token_kind::ROW_END),
                msg_present: Some(false),
                ..RulePattern::default()
            },
            out: flush,
        },
        Rule {
            name: "finish",
            pattern: RulePattern {
                kind: Some(token_kind::END),
                msg_present: Some(false),
                ..RulePattern::default()
            },
            out: MicroOp {
                state_out: state::DONE,
                consume_input: true,
                done: true,
                ..MicroOp::NOP
            },
        },
    ];
    for kind in [
        token_kind::NNZ,
        token_kind::ROW_END,
        token_kind::END,
        token_kind::NONE,
    ] {
        rules.push(Rule {
            name: "bypass",
            pattern: RulePattern {
                kind: Some(kind),
                msg_present: Some(true),
                ..RulePattern::default()
            },
            out: if kind == token_kind::NNZ {
                bypass_mac
            } else {
                bypass_nop
            },
        });
    }
    FsmSpec { config, rules }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::{msg_id, MetaToken};
    use crate::orchestrator::{OrchIo, OrchMessage, OrchProgram};

    #[test]
    fn spmm_spec_assembles() {
        let spec = spmm_fsm_spec(4, 16);
        let bs = spec.assemble().unwrap();
        assert_eq!(bs.sram_bytes(), 6 * 1024);
    }

    #[test]
    fn conflicting_rules_rejected() {
        let mut spec = spmm_fsm_spec(4, 16);
        // Duplicate the MAC rule with a different output.
        let mut dup = spec.rules[0].clone();
        dup.name = "evil";
        dup.out.state_out = 7;
        spec.rules.push(dup);
        assert!(matches!(
            spec.assemble(),
            Err(SimError::BadMicrocode { .. })
        ));
    }

    #[test]
    fn unwired_flag_rejected() {
        let mut spec = spmm_fsm_spec(4, 16);
        // Constrain an unwired unit (unit 5's C flag is not in the wiring).
        spec.rules[0].pattern.flag_c[5] = Some(true);
        assert!(matches!(
            spec.assemble(),
            Err(SimError::BadMicrocode { .. })
        ));
    }

    #[test]
    fn identical_overlapping_rules_allowed() {
        let mut spec = spmm_fsm_spec(4, 16);
        let dup = spec.rules[0].clone();
        spec.rules.push(dup);
        assert!(spec.assemble().is_ok());
    }

    #[test]
    fn assembled_stalls_hold_without_mutating_state() {
        // A back-pressured LUT step is a pure wait that holds: re-stepping
        // with the same inputs yields the same stall and leaves the
        // datapath state untouched (the hardware hold happens before any
        // register update).
        let mut p = spmm_fsm_spec(1, 4).into_program().unwrap();
        // Row end with a full window but zero credits: the flush must hold.
        let fill = OrchIo {
            cycle: 0,
            input: Some(MetaToken::RowEnd { row: 0 }),
            msg: None,
            south_credits: 2,
            msg_slot_free: true,
            north_tokens: 0,
        };
        p.step(&fill); // window (depth 1) now full
        let starved = OrchIo {
            input: Some(MetaToken::RowEnd { row: 1 }),
            south_credits: 0,
            ..fill
        };
        let state_before = (p.state(), p.meta());
        let a1 = p.step(&starved);
        let a2 = p.step(&starved);
        for a in [&a1, &a2] {
            assert!(a.stalled(), "a held flush must record a stall");
            assert!(a.instr.is_plain_nop());
            assert!(!a.consumes_input() && !a.consumes_msg() && a.msg_out().is_none());
        }
        assert_eq!(
            a1.state_id, a2.state_id,
            "a repeated stall must hold its state"
        );
        assert_eq!(
            (p.state(), p.meta()),
            state_before,
            "a held step must not mutate datapath registers"
        );
        // Credit restored: the flush proceeds (the wait was genuine).
        let freed = OrchIo {
            south_credits: 1,
            ..starved
        };
        let a3 = p.step(&freed);
        assert!(!a3.stalled());
        assert_eq!(a3.instr.op, crate::isa::Opcode::MovFlush);
    }

    #[test]
    fn lut_program_mac_step_matches_native_shape() {
        let program = spmm_fsm_spec(4, 8).into_program();
        let mut p = program.unwrap();
        let io = OrchIo {
            cycle: 0,
            input: Some(MetaToken::Nnz {
                row: 0,
                col: 5,
                value: -3,
            }),
            msg: None,
            south_credits: 2,
            msg_slot_free: true,
            north_tokens: 0,
        };
        let a = p.step(&io);
        assert_eq!(a.instr.op, crate::isa::Opcode::MacS);
        assert_eq!(a.instr.op2, crate::isa::Addr::DataMem(5));
        assert!(a.consumes_input());
        assert_eq!(a.instr.imm.unwrap().lane0(), -3);
    }

    #[test]
    fn lut_program_acc_and_bypass() {
        let mut p = spmm_fsm_spec(2, 8).into_program().unwrap();
        // Managed message (rid 0, window [0,1)).
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
        let a = p.step(&io);
        assert_eq!(a.instr.op, crate::isa::Opcode::Acc);
        // Unmanaged message (rid 7) → bypass.
        let io2 = OrchIo {
            msg: Some(OrchMessage {
                id: msg_id::PSUM,
                rid: 7,
            }),
            ..io
        };
        let a2 = p.step(&io2);
        assert!(a2.instr.route.is_some());
        assert_eq!(a2.msg_out().unwrap().rid, 7);
    }
}
