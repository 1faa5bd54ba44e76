//! Canon ISA: instruction format and unified address space (§3.1).
//!
//! The paper's instruction format is
//!
//! ```text
//! <inst> ::= <op> <op1_addr> <op2_addr> <res_addr>
//! ```
//!
//! with the scratchpad, data memory, router ports and SIMD registers sharing
//! a unified address space: which structure an access touches is inferred
//! from the address ([`Addr`]). Two additional fields model aspects the paper
//! describes but does not put into the four-field format:
//!
//! * [`Instruction::imm`] — the operand streamed from the west edge alongside
//!   the instruction (the `From WEST` input in Fig 4; e.g. the non-zero value
//!   of `A` in SpMM). It travels with the staggered instruction, which is
//!   timing-equivalent to a west-to-east data stream.
//! * [`Instruction::route`] — the router pass-through configuration
//!   (`ROUTER_CONF` in Fig 4), e.g. `NORTH_TO_SOUTH` for the psum bypass of
//!   the SpMM FSM (Listing 1). A pass-through moves a NoC entry without
//!   involving the vector lane and may ride along any instruction.
//! * [`Instruction::tag`] — the row-id tag the orchestrator attaches for the
//!   edge memory movers (EDDO I/O control, §4): fabric-edge collectors use it
//!   to attribute flushed partial sums to output rows.

use canon_sparse::Value;

/// Number of lanes in the PE vector unit (Table 1: 4-SIMD).
pub const LANES: usize = 4;

/// PE pipeline depth (LOAD/EXECUTE/COMMIT); also the per-hop latency of the
/// staggered instruction network ("a fixed pipeline latency of 3 cycles",
/// §2.1).
pub const PIPE_DEPTH: usize = 3;

/// A 4-wide SIMD value: the unit of every datapath transfer in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Vector(pub [Value; LANES]);

impl Vector {
    /// The all-zero vector.
    pub const ZERO: Vector = Vector([0; LANES]);

    /// Builds a vector broadcasting one scalar to all lanes.
    pub fn splat(v: Value) -> Vector {
        Vector([v; LANES])
    }

    /// Builds a vector from a slice, zero-padding to [`LANES`].
    ///
    /// # Panics
    ///
    /// Panics if `s.len() > LANES`.
    pub fn from_slice(s: &[Value]) -> Vector {
        assert!(s.len() <= LANES, "slice longer than {LANES} lanes");
        let mut v = [0; LANES];
        v[..s.len()].copy_from_slice(s);
        Vector(v)
    }

    /// Elementwise sum.
    pub fn add(self, rhs: Vector) -> Vector {
        let mut out = [0; LANES];
        for i in 0..LANES {
            out[i] = self.0[i].wrapping_add(rhs.0[i]);
        }
        Vector(out)
    }

    /// Elementwise product.
    pub fn mul(self, rhs: Vector) -> Vector {
        let mut out = [0; LANES];
        for i in 0..LANES {
            out[i] = self.0[i].wrapping_mul(rhs.0[i]);
        }
        Vector(out)
    }

    /// `self + a * b` elementwise (the 4-wide MAC).
    pub fn mac(self, a: Vector, b: Vector) -> Vector {
        self.add(a.mul(b))
    }

    /// Horizontal sum of all lanes (used by the final SDDMM reduction).
    pub fn reduce_sum(self) -> Value {
        self.0.iter().copied().fold(0, Value::wrapping_add)
    }

    /// Scalar in lane 0 (scalar operands occupy lane 0 by convention).
    pub fn lane0(self) -> Value {
        self.0[0]
    }

    /// True if every lane is zero.
    pub fn is_zero(self) -> bool {
        self.0.iter().all(|&v| v == 0)
    }
}

impl From<[Value; LANES]> for Vector {
    fn from(v: [Value; LANES]) -> Self {
        Vector(v)
    }
}

/// Mesh directions for the circuit-switched NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards row 0.
    North,
    /// Towards the last row.
    South,
    /// Towards column 0.
    West,
    /// Towards the last column.
    East,
}

impl Direction {
    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
            Direction::East => Direction::West,
        }
    }

    /// All four directions.
    pub fn all() -> [Direction; 4] {
        [
            Direction::North,
            Direction::South,
            Direction::West,
            Direction::East,
        ]
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Direction::North => "North",
            Direction::South => "South",
            Direction::West => "West",
            Direction::East => "East",
        };
        write!(f, "{s}")
    }
}

/// Unified address space (§3.1): "the scratchpad, data memory, router, and
/// SIMD registers share a unified address space. The specific memory accessed
/// or NoC switching action is inferred from the address."
///
/// `PartialEq` is hand-written (semantically identical to the derive, so
/// the derived `Hash` stays consistent with it) with a forced-inline hint:
/// address comparison sits on the store-to-load forwarding scan and the
/// commit write-back dispatch, where an out-of-line call per comparison is
/// measurable.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Debug, Clone, Copy, Eq, Hash, Default)]
pub enum Addr {
    /// No operand / discard result. Reads as the zero vector.
    #[default]
    Null,
    /// Data-memory word (one [`Vector`] per word).
    DataMem(u16),
    /// Scratchpad entry (one [`Vector`] per entry).
    Spad(u16),
    /// SIMD register.
    Reg(u8),
    /// Router port in the given direction. Reading pops the incoming FIFO
    /// (array edges read as zero); writing pushes to the outgoing link.
    Port(Direction),
    /// The instruction's immediate ([`Instruction::imm`]) — the west-edge
    /// streamed operand. Write-invalid.
    Imm,
}

impl PartialEq for Addr {
    #[inline(always)]
    fn eq(&self, other: &Addr) -> bool {
        match (self, other) {
            (Addr::Null, Addr::Null) | (Addr::Imm, Addr::Imm) => true,
            (Addr::DataMem(a), Addr::DataMem(b)) => a == b,
            (Addr::Spad(a), Addr::Spad(b)) => a == b,
            (Addr::Reg(a), Addr::Reg(b)) => a == b,
            (Addr::Port(a), Addr::Port(b)) => a == b,
            _ => false,
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Null => write!(f, "null"),
            Addr::DataMem(a) => write!(f, "dmem[{a:#x}]"),
            Addr::Spad(a) => write!(f, "spad[{a:#x}]"),
            Addr::Reg(r) => write!(f, "r{r}"),
            Addr::Port(d) => write!(f, "port.{d}"),
            Addr::Imm => write!(f, "imm"),
        }
    }
}

/// Operation codes of the PE vector lane.
///
/// Semantics (all element-wise over [`LANES`] lanes; `res` denotes the value
/// committed to `res_addr`):
///
/// | Op | Result |
/// |---|---|
/// | `Nop` | nothing |
/// | `Mov` | `res = op1` |
/// | `MovFlush` | `res = op1`, and `op1` (scratchpad/register) is cleared to zero — the psum-flush primitive of Listing 1 / App C case 2 |
/// | `Add` | `res = op1 + op2` |
/// | `AddFlush` | `res = op1 + op2`, and `op1` is cleared — the east-going psum chain step of SDDMM |
/// | `Sub` | `res = op1 - op2` |
/// | `Mul` | `res = op1 * op2` |
/// | `MacV` | `res = res + op1 * op2` (read-modify-write vector MAC) |
/// | `MacS` | `res = res + broadcast(op1.lane0) * op2` (scalar×vector MAC: SpMM) |
/// | `Acc` | `res = res + op1` (psum accumulation) |
/// | `RedSum` | `res.lane0 = Σ lanes(op1)`, other lanes zero |
/// | `Max` / `Min` | elementwise max/min (general kernels) |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Opcode {
    /// No operation.
    #[default]
    Nop,
    /// Copy.
    Mov,
    /// Copy and clear source.
    MovFlush,
    /// Elementwise add.
    Add,
    /// Elementwise add and clear `op1`.
    AddFlush,
    /// Elementwise subtract.
    Sub,
    /// Elementwise multiply.
    Mul,
    /// Vector multiply-accumulate into `res`.
    MacV,
    /// Scalar-broadcast multiply-accumulate into `res`.
    MacS,
    /// Accumulate `op1` into `res`.
    Acc,
    /// Horizontal sum of `op1` into lane 0 of `res`.
    RedSum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl Opcode {
    /// True for opcodes that perform useful arithmetic on the vector lane
    /// (used for the compute-utilization metric).
    pub fn is_compute(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::AddFlush
                | Opcode::Sub
                | Opcode::Mul
                | Opcode::MacV
                | Opcode::MacS
                | Opcode::Acc
                | Opcode::RedSum
                | Opcode::Max
                | Opcode::Min
        )
    }

    /// True for the multiply-accumulate opcodes (the "useful MACs" the
    /// paper's utilization figures count).
    pub fn is_mac(self) -> bool {
        matches!(self, Opcode::MacV | Opcode::MacS | Opcode::Mul)
    }
}

/// A router pass-through: moves one NoC entry from the incoming FIFO of
/// `from` to the outgoing link towards `to`, preserving the entry's tag,
/// without involving the vector lane. May ride along any instruction
/// (`ROUTER_CONF`), subject to the one-transfer-per-direction-per-cycle rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Route {
    /// Input side (FIFO that is popped).
    pub from: Direction,
    /// Output side (link that is pushed).
    pub to: Direction,
}

/// One Canon instruction, as generated by an orchestrator (§3.1, §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Instruction {
    /// Vector-lane operation.
    pub op: Opcode,
    /// First operand address.
    pub op1: Addr,
    /// Second operand address.
    pub op2: Addr,
    /// Result address.
    pub res: Addr,
    /// West-edge streamed operand, if any.
    pub imm: Option<Vector>,
    /// Router pass-through riding along this instruction, if any.
    pub route: Option<Route>,
    /// Output-row tag attached to any NoC push made by `res` (used by the
    /// edge collectors; pass-through routes keep the original entry's tag).
    pub tag: u32,
}

impl Instruction {
    /// The canonical no-op.
    pub const NOP: Instruction = Instruction {
        op: Opcode::Nop,
        op1: Addr::Null,
        op2: Addr::Null,
        res: Addr::Null,
        imm: None,
        route: None,
        tag: 0,
    };

    /// Convenience constructor for a plain 4-field instruction.
    pub fn new(op: Opcode, op1: Addr, op2: Addr, res: Addr) -> Instruction {
        Instruction {
            op,
            op1,
            op2,
            res,
            ..Instruction::NOP
        }
    }

    /// Sets the immediate (builder style).
    pub fn with_imm(mut self, imm: Vector) -> Instruction {
        self.imm = Some(imm);
        self
    }

    /// Sets the route pass-through (builder style).
    pub fn with_route(mut self, from: Direction, to: Direction) -> Instruction {
        self.route = Some(Route { from, to });
        self
    }

    /// Sets the collector tag (builder style).
    pub fn with_tag(mut self, tag: u32) -> Instruction {
        self.tag = tag;
        self
    }

    /// True when committing this instruction drives the outgoing link
    /// towards `d`: a `Port(d)` result address or a pass-through route with
    /// output side `d`. This is the orchestrators' credit-accounting view
    /// and the fabric's wake-propagation view (a `Nop` result never
    /// actually pushes, but conservatively claims the direction — exactly
    /// what the credit protocol has always assumed).
    pub fn pushes_toward(&self, d: Direction) -> bool {
        self.res == Addr::Port(d) || self.route.is_some_and(|r| r.to == d)
    }

    /// True when loading this instruction pops the incoming link from `d`
    /// (an operand port read or a pass-through route with input side `d`).
    pub fn pops_from(&self, d: Direction) -> bool {
        matches!(self.op1, Addr::Port(x) if x == d)
            || matches!(self.op2, Addr::Port(x) if x == d)
            || self.route.is_some_and(|r| r.from == d)
    }

    /// True for the canonical bubble: a `Nop` with null operands, null
    /// result, and no route — what orchestrators emit for stalls and row
    /// ends. Bubbles read nothing, write nothing, push nothing, and cannot
    /// forward a value, so the pipeline and the injection network can move
    /// them as a one-byte state tag instead of a full instruction record.
    pub fn is_plain_nop(&self) -> bool {
        self.op == Opcode::Nop
            && self.op1 == Addr::Null
            && self.op2 == Addr::Null
            && self.res == Addr::Null
            && self.route.is_none()
    }

    /// Validates the §3.1 compile-time restriction: an instruction must not
    /// read from and write to the same NoC direction (including its route).
    ///
    /// Returns the offending direction on violation.
    #[inline]
    pub fn noc_conflict(&self) -> Option<Direction> {
        // Port-free fast path: most compute instructions (dmem/spad/register
        // operands) touch no router direction at all.
        if self.route.is_none()
            && !matches!(self.op1, Addr::Port(_))
            && !matches!(self.op2, Addr::Port(_))
            && !matches!(self.res, Addr::Port(_))
        {
            return None;
        }
        // At most 3 reads (op1, op2, route input) and 2 writes (res, route
        // output) exist, so fixed on-stack arrays suffice — this check runs
        // at every LOAD and must not allocate.
        let mut op_reads = [None::<Direction>; 3];
        let mut n_reads = 0;
        let mut writes = [None::<Direction>; 2];
        let mut n_writes = 0;
        for a in [self.op1, self.op2] {
            if let Addr::Port(d) = a {
                op_reads[n_reads] = Some(d);
                n_reads += 1;
            }
        }
        if let Addr::Port(d) = self.res {
            writes[n_writes] = Some(d);
            n_writes += 1;
        }
        if let Some(r) = self.route {
            writes[n_writes] = Some(r.to);
            n_writes += 1;
            // A route input shared with an operand port is a single pop
            // feeding both (legal); an *additional* distinct pop is a read.
            if !op_reads[..n_reads].contains(&Some(r.from)) {
                op_reads[n_reads] = Some(r.from);
                n_reads += 1;
            }
        }
        let (op_reads, writes) = (&op_reads[..n_reads], &writes[..n_writes]);
        for &r in op_reads {
            if writes.contains(&r) {
                return r;
            }
        }
        // Forbid double-driving one direction (two operand pops or two
        // pushes).
        for (i, &a) in op_reads.iter().enumerate() {
            if op_reads[i + 1..].contains(&a) {
                return a;
            }
        }
        for (i, &a) in writes.iter().enumerate() {
            if writes[i + 1..].contains(&a) {
                return a;
            }
        }
        None
    }
}

/// A 4-byte reference to an instruction interned in an [`InstrRing`].
///
/// The staggered instruction network re-delivers the *same* issued
/// instruction to every column of a row (§2.1), so the record is stored
/// once at issue and everything downstream — the injection queue, the
/// pipeline-stage slots, eastward forwarding at COMMIT — moves this handle
/// instead of the ~44-byte [`Instruction`].
///
/// The handle is the ring's monotone intern counter; the slot index is the
/// counter masked by the ring size. Under `debug_assertions` every slot
/// remembers the counter that last wrote it, and resolving a handle whose
/// slot has since been reused panics (a stale handle means the ring was
/// undersized or an instruction outlived its architectural window). Release
/// builds carry no tag storage and no check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstrHandle(u32);

/// The column-lockstep engine's execution plan of an interned instruction,
/// decoded once by [`InstrRing::intern`].
///
/// The fast-path variants carry everything a lockstep row LOAD needs
/// inline (local addresses, the broadcast immediate), so it runs one fused
/// loop per row without resolving operand kinds; the paper's kernel FSMs
/// issue them for the overwhelming majority of compute cycles (the MAC
/// streams of SpMM, GEMM/N:M, and SDDMM). Everything else — port reads,
/// flushes, routes, rare opcodes — takes [`Plan::Generic`], the
/// fully-general path. Per-PE stepping ignores the plan and executes every
/// instruction through the generic path, so the differential tests compare
/// lockstep against a reference that shares none of this decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// `MacS Imm, DataMem(a) → Spad(b)` with no route (SpMM's MAC).
    MacSToSpad {
        /// Data-memory word of the stationary operand.
        a: u16,
        /// Scratchpad accumulator slot.
        b: u16,
        /// Broadcast scalar (lane 0 by convention, pre-splatted).
        imm: Vector,
    },
    /// `MacS Imm, DataMem(a) → Reg(r)` with no route (GEMM / N:M MAC).
    MacSToReg {
        /// Data-memory word of the stationary operand.
        a: u16,
        /// Accumulator register.
        r: u8,
        /// Broadcast scalar, pre-splatted.
        imm: Vector,
    },
    /// `MacV Spad(a), DataMem(b) → Reg(r)` with no route (SDDMM's MAC).
    MacVToReg {
        /// Scratchpad slot of the buffered streamed operand.
        a: u16,
        /// Data-memory word of the stationary operand.
        b: u16,
        /// Accumulator register.
        r: u8,
    },
    /// Any other shape: execute from the full instruction record.
    Generic,
}

impl Plan {
    /// Decodes one instruction into its execution plan.
    pub fn classify(i: &Instruction) -> Plan {
        if i.route.is_some() {
            return Plan::Generic;
        }
        match (i.op, i.op1, i.op2, i.res) {
            (Opcode::MacS, Addr::Imm, Addr::DataMem(a), Addr::Spad(b)) => Plan::MacSToSpad {
                a,
                b,
                imm: i.imm.unwrap_or(Vector::ZERO),
            },
            (Opcode::MacS, Addr::Imm, Addr::DataMem(a), Addr::Reg(r))
                if (r as usize) < NUM_REGS =>
            {
                Plan::MacSToReg {
                    a,
                    r,
                    imm: i.imm.unwrap_or(Vector::ZERO),
                }
            }
            (Opcode::MacV, Addr::Spad(a), Addr::DataMem(b), Addr::Reg(r))
                if (r as usize) < NUM_REGS =>
            {
                Plan::MacVToReg { a, b, r }
            }
            _ => Plan::Generic,
        }
    }
}

use crate::pe::NUM_REGS;

/// A power-of-two ring of issued instruction records (see [`InstrHandle`]).
///
/// Capacity must exceed the maximum number of simultaneously live issues.
/// `Fabric::new` sizes the ring `rows × (3·cols + 1)`: each row interns at
/// most one record per cycle, and a record's last reader is the COMMIT of
/// the last column, `3·cols − 1` cycles after issue, so at most
/// `rows × 3·cols` records are live at once; the spare cycle of issue per
/// row keeps the ring wrapping strictly slower than records retire.
#[derive(Debug)]
pub struct InstrRing {
    buf: Box<[Instruction]>,
    plans: Box<[Plan]>,
    mask: u32,
    next: u32,
    #[cfg(debug_assertions)]
    tags: Box<[u32]>,
}

impl InstrRing {
    /// A ring able to keep at least `min_live` records live at once.
    ///
    /// # Panics
    ///
    /// Panics if `min_live` rounds above `u32::MAX / 2` slots.
    pub fn with_capacity(min_live: usize) -> InstrRing {
        let size = min_live.next_power_of_two().max(1);
        assert!(
            size <= (u32::MAX / 2) as usize,
            "instruction ring too large"
        );
        InstrRing {
            buf: vec![Instruction::NOP; size].into_boxed_slice(),
            plans: vec![Plan::Generic; size].into_boxed_slice(),
            mask: (size - 1) as u32,
            next: 0,
            // Tags start poisoned (`u32::MAX` can never equal a handle until
            // 2³² interns) so resolving a never-interned slot panics too.
            #[cfg(debug_assertions)]
            tags: vec![u32::MAX; size].into_boxed_slice(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Returns the ring to its post-construction state, keeping the slot
    /// allocation. Under `debug_assertions` the generation tags are
    /// re-poisoned, so any [`InstrHandle`] issued before the reset panics on
    /// resolve instead of silently aliasing a new run's records (the fabric
    /// reuse audit depends on this).
    pub fn reset(&mut self) {
        self.buf.fill(Instruction::NOP);
        self.plans.fill(Plan::Generic);
        self.next = 0;
        #[cfg(debug_assertions)]
        self.tags.fill(u32::MAX);
    }

    /// Interns one issued instruction, returning its handle. The slot being
    /// reused must no longer be referenced (guaranteed by sizing the ring to
    /// the issue-to-retire window; checked by [`InstrRing::get`] in debug).
    #[inline]
    pub fn intern(&mut self, instr: Instruction) -> InstrHandle {
        let h = self.next;
        let slot = (h & self.mask) as usize;
        // Decode once per issue: the lockstep engine's row LOAD dispatches
        // on the plan instead of re-inspecting the record.
        self.plans[slot] = Plan::classify(&instr);
        self.buf[slot] = instr;
        #[cfg(debug_assertions)]
        {
            self.tags[slot] = h;
        }
        self.next = self.next.wrapping_add(1);
        InstrHandle(h)
    }

    /// The generation-tag staleness check (compiled out in release — both
    /// resolvers share this one definition).
    #[cfg(debug_assertions)]
    #[inline(always)]
    fn check_tag(&self, h: InstrHandle) {
        assert_eq!(
            self.tags[(h.0 & self.mask) as usize],
            h.0,
            "stale InstrHandle: ring slot {} was reused after this handle was issued",
            h.0 & self.mask
        );
    }

    /// Resolves a handle to its interned record.
    ///
    /// # Panics
    ///
    /// Panics under `debug_assertions` when the handle's slot has been
    /// reused by a later [`InstrRing::intern`] (a stale handle). Release
    /// builds perform no check — the access is a masked index.
    #[inline(always)]
    pub fn get(&self, h: InstrHandle) -> &Instruction {
        #[cfg(debug_assertions)]
        self.check_tag(h);
        &self.buf[(h.0 & self.mask) as usize]
    }

    /// Resolves a handle to its issue-time execution plan (same staleness
    /// rules as [`InstrRing::get`]).
    #[inline(always)]
    pub fn plan(&self, h: InstrHandle) -> Plan {
        #[cfg(debug_assertions)]
        self.check_tag(h);
        self.plans[(h.0 & self.mask) as usize]
    }
}

impl std::fmt::Display for Instruction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} {} {} {}", self.op, self.op1, self.op2, self.res)?;
        if let Some(r) = self.route {
            write!(f, " route({}→{})", r.from, r.to)?;
        }
        if self.imm.is_some() {
            write!(f, " imm")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_arithmetic() {
        let a = Vector([1, 2, 3, 4]);
        let b = Vector([10, 20, 30, 40]);
        assert_eq!(a.add(b), Vector([11, 22, 33, 44]));
        assert_eq!(a.mul(b), Vector([10, 40, 90, 160]));
        assert_eq!(Vector::ZERO.mac(a, b), a.mul(b));
        assert_eq!(a.reduce_sum(), 10);
        assert_eq!(Vector::splat(5).0, [5; LANES]);
        assert!(Vector::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn vector_from_slice_pads() {
        let v = Vector::from_slice(&[7, 8]);
        assert_eq!(v, Vector([7, 8, 0, 0]));
    }

    #[test]
    #[should_panic(expected = "longer than")]
    fn vector_from_slice_rejects_long() {
        let _ = Vector::from_slice(&[0; 5]);
    }

    #[test]
    fn direction_opposites() {
        for d in Direction::all() {
            assert_eq!(d.opposite().opposite(), d);
        }
        assert_eq!(Direction::North.opposite(), Direction::South);
    }

    #[test]
    fn opcode_classes() {
        assert!(Opcode::MacS.is_mac());
        assert!(Opcode::MacS.is_compute());
        assert!(!Opcode::Mov.is_compute());
        assert!(!Opcode::Nop.is_compute());
        assert!(Opcode::Acc.is_compute());
        assert!(!Opcode::Acc.is_mac());
    }

    #[test]
    fn noc_conflict_same_direction_read_write() {
        // Read and write South in one instruction: illegal (§3.1).
        let i = Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::South),
            Addr::Null,
            Addr::Port(Direction::South),
        );
        assert_eq!(i.noc_conflict(), Some(Direction::South));
    }

    #[test]
    fn noc_conflict_route_vs_res() {
        // res pushes South while route also pushes South: double drive.
        let i = Instruction::new(
            Opcode::Mov,
            Addr::Spad(0),
            Addr::Null,
            Addr::Port(Direction::South),
        )
        .with_route(Direction::North, Direction::South);
        assert_eq!(i.noc_conflict(), Some(Direction::South));
    }

    #[test]
    fn noc_bypass_is_legal() {
        // North→South pass-through riding a MAC that reads dmem: legal.
        let i = Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(3), Addr::Spad(1))
            .with_route(Direction::North, Direction::South);
        assert_eq!(i.noc_conflict(), None);
    }

    #[test]
    fn instruction_display_mentions_route() {
        let i = Instruction::new(
            Opcode::Add,
            Addr::Reg(0),
            Addr::Port(Direction::West),
            Addr::Port(Direction::East),
        );
        assert!(i.to_string().contains("Add"));
        let i = i.with_route(Direction::North, Direction::South);
        assert!(i.to_string().contains("route"));
    }

    #[test]
    fn port_traffic_predicates() {
        let i = Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::North),
            Addr::Null,
            Addr::Port(Direction::South),
        );
        assert!(i.pops_from(Direction::North));
        assert!(!i.pops_from(Direction::West));
        assert!(i.pushes_toward(Direction::South));
        assert!(!i.pushes_toward(Direction::East));
        let routed = Instruction::NOP.with_route(Direction::West, Direction::East);
        assert!(routed.pops_from(Direction::West));
        assert!(routed.pushes_toward(Direction::East));
        assert!(!Instruction::NOP.pops_from(Direction::North));
    }

    #[test]
    fn nop_constant() {
        assert_eq!(Instruction::NOP.op, Opcode::Nop);
        assert_eq!(Instruction::NOP.noc_conflict(), None);
        assert_eq!(Instruction::default().op, Opcode::Nop);
    }

    #[test]
    fn instr_ring_roundtrips_within_capacity() {
        let mut ring = InstrRing::with_capacity(3);
        assert_eq!(ring.capacity(), 4);
        let a = Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Reg(0))
            .with_imm(Vector::splat(1));
        let b = Instruction::new(Opcode::Add, Addr::Reg(0), Addr::Reg(1), Addr::Reg(2));
        let ha = ring.intern(a);
        let hb = ring.intern(b);
        assert_eq!(*ring.get(ha), a);
        assert_eq!(*ring.get(hb), b);
        // Handles may be read many times while live (every column's LOAD and
        // COMMIT of a row resolves the same issue).
        assert_eq!(*ring.get(ha), a);
    }

    #[test]
    fn instr_ring_slots_are_reused_in_issue_order() {
        let mut ring = InstrRing::with_capacity(2);
        let mk = |t: u32| Instruction::NOP.with_tag(t);
        let h0 = ring.intern(mk(0));
        let _h1 = ring.intern(mk(1));
        assert_eq!(ring.get(h0).tag, 0);
        let h2 = ring.intern(mk(2)); // reuses h0's slot
        assert_eq!(ring.get(h2).tag, 2);
    }

    /// The generation-tag check: resolving a handle whose slot was reused
    /// must panic in debug builds (and is compiled out in release — the CI
    /// debug-assertions job runs this test with `-C debug-assertions=on`).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale InstrHandle")]
    fn instr_ring_stale_handle_panics_in_debug() {
        let mut ring = InstrRing::with_capacity(2);
        let h0 = ring.intern(Instruction::NOP.with_tag(7));
        ring.intern(Instruction::NOP.with_tag(8));
        ring.intern(Instruction::NOP.with_tag(9)); // wraps onto h0's slot
        let _ = ring.get(h0);
    }

    /// A never-interned slot is also a stale read in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale InstrHandle")]
    fn instr_ring_default_handle_is_poisoned_in_debug() {
        let ring = InstrRing::with_capacity(4);
        let _ = ring.get(InstrHandle::default());
    }
}
