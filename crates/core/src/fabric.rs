//! The Canon fabric: PE array + orchestrators + NoC + edge movers, advanced
//! one cycle at a time.
//!
//! ## Cycle structure
//!
//! Each [`Fabric::step`] performs, in order:
//!
//! 1. **edge feed** — the north-edge stream movers push at most one token per
//!    column into the north edge FIFOs (SDDMM's `A` stream);
//! 2. **orchestrator phase** — every live row, in ascending order,
//!    delivers its due south-channel credits (visible after
//!    [`MSG_LATENCY`] cycles), then its FSM observes its meta stream head,
//!    delivered message, credits, and north-FIFO occupancy, and issues one
//!    instruction into column 0 (possibly NOP);
//!    drained rows return at once (see *Orchestrator scheduling* below);
//! 3. **PE sweep** — COMMIT (NoC pushes happen this phase, retiring
//!    instructions are forwarded eastward as 4-byte [`InstrHandle`]s into
//!    the shared issue ring) and LOAD (which also computes the EXECUTE
//!    stage's lane result eagerly — see [`crate::pe`]) run for every PE,
//!    in PE-id order; column 0 receives this cycle's orchestrator
//!    instruction, column `c > 0` receives the instruction that retired
//!    from column `c-1` **last** cycle, reproducing the 3-cycle stagger of
//!    §2.1 (issue at cycle *n* reaches column *c* at cycle *n + 3c*);
//! 4. pipeline advance (an O(1) rotation of the shared stage index) and
//!    edge-sink draining into the collectors.
//!
//! ## Engines
//!
//! [`Fabric::run`] picks one engine per run; all of them are
//! architecturally identical (same cycles, stats, stall breakdowns and
//! collector streams — only the scheduler diagnostics that name the engine
//! differ):
//!
//! | engine | runs when | work per cycle |
//! |---|---|---|
//! | column lockstep (the `lockstep` submodule) | the run starts on a fresh fabric (cycle 0) with [`CanonConfig::lockstep`] on, north-edge feeder streams of equal length (or none), and only lockstep-safe row programs ([`RowProgram::lockstep_safe`]): GEMM, SpMM, N:M, SDDMM and Window | feeder phase, orchestrator phase, then each row's COMMIT + LOAD executed once across all `cols` columns; the `3c` column shift, the edge FIFOs of the lagging columns and the West→East chain (a row scan) are derived, not simulated |
//! | scalar engine | every other run: [`RowProgram::Custom`] rows, LUT tables with West/East ports, unequal feeder streams, stepped-then-run fabrics, and every run with [`CanonConfig::lockstep`] off (the per-PE stepping reference of the differential tests and `repro --per-pe`) | edge feed, orchestrator phase, then the PE sweep of step 3: every PE's COMMIT and LOAD through the generic per-PE path (no issue-time decoding, so it shares no fast path with lockstep) |
//!
//! [`RunReport::engine`] names the engine that ran.
//!
//! Both engines share one orchestrator phase (`Fabric::orchestrate`), and
//! a trace sink records only what they share ([`crate::trace`]), so a
//! traced run takes the engine an untraced one would.
//!
//! ## Liveness
//!
//! A PE is *live* when it has an instruction in its pipeline, a pending
//! injection, or a token on an input link. Every cycle adds the PEs live
//! after the feeder and orchestrator phases to
//! [`Stats::active_pe_cycles`](crate::Stats::active_pe_cycles). The sweep
//! of step 3 visits every PE and counts them inline: every link's producer
//! has a smaller PE id than its consumer, so a PE's liveness for the next
//! cycle is final when its turn ends, and the next cycle's feeder pushes
//! and orchestrator issues add the PEs they wake. [`Fabric::quiescent`]
//! reads that count, so testing for the end of a run scans no PE.
//!
//! ## Orchestrator scheduling
//!
//! The orchestrator phase polls: every cycle it steps rows `0..rows` in
//! ascending order, as the hardware's per-row FSMs each issue one control
//! instruction per cycle. A row that stalls is stepped again next cycle and
//! records one `orch_steps`, one stall cycle under its cause, and one
//! elided bubble each time. A drained row (no program, or a finished one
//! with no deliverable message) returns before its FSM is consulted.
//! Ascending order matters for the message channel: a row observes a
//! zero-latency message from the row above in the same cycle, and a slot
//! the row below freed in the previous one.
//!
//! ## Instruction handle ring
//!
//! Issued instructions are interned once into a per-fabric [`InstrRing`]
//! (a power-of-two ring of issue records sized to the issue-to-retire
//! window, with generation tags checked under `debug_assertions`). The
//! injection queue, the pipeline-stage slots, and eastward COMMIT
//! forwarding all move 4-byte [`InstrHandle`]s; the ~44-byte record is
//! written once per issue and resolved in place at LOAD/COMMIT. Bubbles
//! are never interned: the issue path elides them, so no PE pipeline ever
//! holds one (the fabric credits their instruction latches at report time
//! and holds the run open until they would have drained).
//!
//! The fused per-PE ordering (COMMIT then LOAD of one PE before the next
//! PE) is cycle-identical to the former phase-barrier sweeps because only
//! south/east-bound dataflow is instantiated: every link's producer has a
//! smaller PE id than its consumer, so a same-cycle push is always
//! processed before the pop that observes it, and EXECUTE/LOAD touch only
//! PE-local state (`tests/cycle_invariance.rs` pins this equivalence).
//!
//! ## Hot-path discipline
//!
//! The step loops of both engines run once per simulated cycle — lockstep
//! for the sweep's Canon tensor cells, [`Fabric::step`] for everything
//! else — so their steady state is allocation-free (`repro bench --check`
//! gates the golden SpMM run on each engine):
//!
//! * NoC error context is carried as copyable [`ErrCtx`](crate::noc::ErrCtx)
//!   descriptors and rendered only when a protocol error fires;
//! * edge sinks drain **in place** — step 4 pops each south/east sink link
//!   directly into the collector vectors (no per-edge temporary `Vec`), and
//!   the links themselves are fixed-capacity ring buffers;
//! * row programs are enum-dispatched ([`RowProgram`]) rather than
//!   `Box<dyn OrchProgram>`, removing the vtable call from the per-cycle
//!   orchestrator phase;
//! * PE state is struct-of-arrays ([`PeArray`]): the stage slot a phase
//!   touches is dense across PEs, and the pipeline advance is one index
//!   bump for the whole fabric.
//!
//! The only remaining steady-state allocations are the amortized growth of
//! the collector vectors themselves.
//!
//! ## Flow control
//!
//! The paper's "dynamically managed circuit-switching" avoids in-array
//! backpressure: orchestrators, knowing the array's deterministic timing,
//! make all congestion decisions at the periphery. The simulator realises
//! this as an orchestrator-level credit protocol on each row's southbound
//! channel plus a bounded message channel between vertically adjacent
//! orchestrators; the per-column FIFOs are then provably bounded, and the
//! simulator verifies (rather than provides) that bound — an overflow or
//! underflow aborts the run as a protocol error.

use crate::config::CanonConfig;
use crate::isa::{Direction, InstrHandle, InstrRing, Instruction, Vector, LANES};
use crate::noc::{LinkGrid, TaggedVector};
use crate::orchestrator::{
    MetaToken, OrchIo, OrchMessage, OrchProgram, RowProgram, MSG_CAPACITY, MSG_LATENCY,
};
use crate::pe::{PeArray, PeMut, PeRef};
use crate::stats::{Engine, RunReport, StallBreakdown};
use crate::trace::{TraceRecorder, TraceSink};
use crate::SimError;
use std::collections::VecDeque;

mod lockstep;

/// A value delivered to a south/east edge collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectedEntry {
    /// Producer-attached tag (output row id or linear output index).
    pub tag: u32,
    /// The array lane it exited from (column index for the south edge, row
    /// index for the east edge).
    pub lane: usize,
    /// Payload.
    pub value: Vector,
    /// Cycle at which it exited the array.
    pub cycle: u64,
}

/// Sentinel in [`RowTable::last_state`] for a row that has never stepped
/// (state ids are 3-bit in hardware, so the top byte value is free).
const NO_STATE: u8 = u8::MAX;

/// Per-row orchestrator state, struct-of-arrays: each per-row field is a
/// flat array indexed by row id, mirroring [`PeArray`]'s layout one level
/// up (activity counters are fabric-wide totals, as in [`PeArray`]). The
/// row dispatch touches a handful of hot fields per row — the cursor into
/// the meta stream, the credit count, the queue fronts — and those are
/// dense across rows instead of strided by a whole row record.
struct RowTable {
    programs: Vec<Option<RowProgram>>,
    /// Input meta-data streams, consumed through `meta_pos` (a cursor into
    /// an immutable `Vec` is cheaper per step than deque pops).
    meta: Vec<Vec<MetaToken>>,
    meta_pos: Vec<usize>,
    south_credits: Vec<usize>,
    inbox: Vec<VecDeque<(u64, OrchMessage)>>,
    credit_returns: Vec<VecDeque<u64>>,
    /// Last observed FSM state id per row, [`NO_STATE`] before the first
    /// step (sentinel-packed: one byte per row instead of `Option<u8>`'s
    /// two).
    last_state: Vec<u8>,
    /// Orchestrator activity, summed over rows: the report reads only the
    /// fabric-wide totals.
    orch_steps: u64,
    transitions: u64,
    messages_sent: u64,
    /// Per-cause stall attribution; its [`StallBreakdown::total`] is
    /// [`Stats::stall_cycles`](crate::Stats::stall_cycles).
    stall_causes: StallBreakdown,
    meta_consumed: u64,
}

impl RowTable {
    fn new(rows: usize, credits_for: impl Fn(usize) -> usize) -> RowTable {
        RowTable {
            programs: (0..rows).map(|_| None).collect(),
            meta: vec![Vec::new(); rows],
            meta_pos: vec![0; rows],
            south_credits: (0..rows).map(credits_for).collect(),
            // Reserved up front: the bounded message/credit protocol keeps
            // occupancy small, so the queues never reallocate mid-run (part
            // of the steady-state allocs/cycle budget `repro bench --check`
            // gates).
            inbox: vec![VecDeque::with_capacity(8); rows],
            credit_returns: vec![VecDeque::with_capacity(16); rows],
            last_state: vec![NO_STATE; rows],
            orch_steps: 0,
            transitions: 0,
            messages_sent: 0,
            stall_causes: StallBreakdown::default(),
            meta_consumed: 0,
        }
    }

    fn len(&self) -> usize {
        self.programs.len()
    }

    /// Returns the table to its post-construction state in place
    /// ([`RowTable::new`] with the same row count), keeping the per-row
    /// queue allocations (fabric reuse).
    fn reset(&mut self, credits_for: impl Fn(usize) -> usize) {
        for (r, p) in self.programs.iter_mut().enumerate() {
            *p = None;
            self.meta[r].clear();
            self.meta_pos[r] = 0;
            self.south_credits[r] = credits_for(r);
            self.inbox[r].clear();
            self.credit_returns[r].clear();
        }
        self.last_state.fill(NO_STATE);
        self.orch_steps = 0;
        self.transitions = 0;
        self.messages_sent = 0;
        self.stall_causes = StallBreakdown::default();
        self.meta_consumed = 0;
    }

    fn done(&self, r: usize) -> bool {
        self.programs[r].as_ref().is_none_or(|p| p.done())
    }

    /// Tokens not yet consumed from row `r`'s meta stream.
    fn meta_left(&self, r: usize) -> usize {
        self.meta[r].len() - self.meta_pos[r]
    }
}

/// Row `r`'s south-link credits at the start of a run. The bottom row
/// flushes into the edge sink, which never runs out. An injected deadlock
/// (`FaultAction::WithholdCredits`) starves every other row, so its first
/// flush stalls on credit forever and the *real* watchdog path fires;
/// zeroing the bottom row's credits would instead trip the "push without
/// credit" FSM-bug assertion, a different failure than the one injected.
fn initial_south_credits(cfg: &CanonConfig, r: usize) -> usize {
    if r + 1 == cfg.rows {
        usize::MAX / 2
    } else if matches!(cfg.fault, Some(crate::fault::FaultAction::WithholdCredits)) {
        0
    } else {
        cfg.link_fifo_depth - 2
    }
}

/// One entry of the staggered instruction network's injection queue.
///
/// Only real instructions occupy slots: bubbles ([`Instruction::is_plain_nop`])
/// are **elided** at issue — architecturally a bubble reads nothing, writes
/// nothing, pushes nothing, and cannot forward a value, so instead of
/// marching a tag through `3·cols` pipeline stages the fabric counts the
/// `cols` instruction latches it would have clocked and extends the bubble
/// drain horizon (see [`Fabric::bubble_horizon`]), keeping cycle counts and
/// instruction counts byte-identical to a simulator that moves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Inject {
    /// Nothing to load.
    #[default]
    None,
    /// A real instruction; the handle array holds its ring reference.
    Instr,
}

/// Per-PE injection slots of the instruction network, struct-of-arrays: the
/// one-byte kind tags are scanned/updated on every hop, the 4-byte
/// [`InstrHandle`] is touched only for real instructions (the record itself
/// lives in the fabric's [`InstrRing`]). Bubbles — the majority of the
/// traffic in sparse bands (row ends, stalls) — never reach the queue (see
/// [`Inject`]).
#[derive(Debug)]
struct InjectQueue {
    kind: Vec<Inject>,
    handle: Vec<InstrHandle>,
}

impl InjectQueue {
    fn new(n: usize) -> InjectQueue {
        InjectQueue {
            kind: vec![Inject::None; n],
            handle: vec![InstrHandle::default(); n],
        }
    }

    /// Stores one issued (real, non-bubble) instruction, interning it.
    /// Bubbles never reach the queue — the issue path elides them.
    #[inline]
    fn put(&mut self, idx: usize, instr: Instruction, ring: &mut InstrRing) {
        debug_assert!(!instr.is_plain_nop(), "bubbles are elided at issue");
        self.kind[idx] = Inject::Instr;
        self.handle[idx] = ring.intern(instr);
    }

    fn is_clear(&self) -> bool {
        self.kind.iter().all(|&k| k == Inject::None)
    }

    /// Empties every slot, keeping allocations (fabric reuse).
    fn clear(&mut self) {
        self.kind.fill(Inject::None);
        self.handle.fill(InstrHandle::default());
    }
}

/// The simulated Canon fabric.
pub struct Fabric {
    cfg: CanonConfig,
    /// Whether the north edge was built as a token-stream feeder (SDDMM) or
    /// a zero source (SpMM family). Recorded so the warm pool can key reuse
    /// on it — the flag is otherwise only encoded in the grid's link kinds.
    north_feeder: bool,
    pes: PeArray,
    grid: LinkGrid,
    rows: RowTable,
    /// Issued-instruction ring; everything downstream of issue moves 4-byte
    /// handles into this slab.
    ring: InstrRing,
    /// First cycle at which every elided bubble would have drained out of
    /// the pipeline: a bubble issued at cycle `n` retires from the last
    /// column at `n + 3·cols − 1`, so the fabric it marched through is
    /// quiescent from `n + 3·cols`. Elision must not let the fabric drain
    /// earlier than the marching simulator, so [`Fabric::quiescent`] gates
    /// on this horizon.
    bubble_horizon: u64,
    /// Bubbles elided at issue; each one is `cols` instruction latches
    /// credited to [`Stats::instrs_executed`](crate::Stats::instrs_executed)
    /// at report time.
    elided_bubbles: u64,
    /// Live PEs (see the module docs) as of the last sweep, plus those the
    /// current cycle's feeder and orchestrator phases woke. Column lockstep
    /// counts only column 0, one PE per row.
    live: usize,
    /// Instruction to inject into each PE this cycle (column > 0 slots are
    /// written by the previous cycle's commits).
    inject_now: InjectQueue,
    /// Instructions retiring this cycle, to inject next cycle one column east.
    inject_next: InjectQueue,
    feeders: Vec<VecDeque<TaggedVector>>,
    /// Number of feeders still holding tokens (skips the edge-feed phase and
    /// keeps the quiescence check O(1) in the column count).
    feeders_pending: usize,
    south_collected: Vec<CollectedEntry>,
    east_collected: Vec<CollectedEntry>,
    cycle: u64,
    /// Sum over cycles of the live PE count.
    active_pe_cycles: u64,
    /// PE-cycles the lockstep engine executed column-vectorized (scheduler
    /// diagnostic, reported as
    /// [`Stats::batched_pe_cycles`](crate::Stats::batched_pe_cycles)).
    batched_pe_cycles: u64,
    /// Column-lockstep engine state (see [`lockstep`]).
    lockstep: lockstep::Lockstep,
    /// The engine(s) [`Fabric::run`] has used so far (`None` before the
    /// first run).
    engine: Option<Engine>,
    extra_offchip_read: u64,
    extra_offchip_write: u64,
    /// Host wall time accumulated inside [`Fabric::run`] (ns).
    wall_ns: u64,
    /// Attached trace recorder ([`crate::trace`]); `None` costs one untaken
    /// branch per hook (the `repro bench --check` gates pin that this stays
    /// free).
    trace: Option<Box<TraceRecorder>>,
}

impl Fabric {
    /// Builds a fabric for the given configuration. `north_edge_feeder`
    /// selects whether the north edge is a token stream (SDDMM) or reads as
    /// zero (SpMM-family kernels).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &CanonConfig, north_edge_feeder: bool) -> Fabric {
        cfg.validate().expect("invalid CanonConfig");
        let n = cfg.pe_count();
        Fabric {
            pes: PeArray::new(n, cfg.dmem_words, cfg.spad_entries),
            grid: LinkGrid::new(cfg.rows, cfg.cols, cfg.link_fifo_depth, north_edge_feeder),
            rows: RowTable::new(cfg.rows, |r| initial_south_credits(cfg, r)),
            // One issue per row per cycle, last read 3·cols − 1 cycles after
            // issue ⇒ at most rows·3·cols records are live at once; one
            // spare cycle of issue keeps wraps strictly slower than
            // retirement.
            ring: InstrRing::with_capacity(cfg.rows * (3 * cfg.cols + 1)),
            bubble_horizon: 0,
            elided_bubbles: 0,
            live: 0,
            inject_now: InjectQueue::new(n),
            inject_next: InjectQueue::new(n),
            feeders: vec![VecDeque::new(); cfg.cols],
            feeders_pending: 0,
            // Collectors start at a page's worth of entries: their doubling
            // growth was the bulk of the residual steady-state allocations.
            south_collected: Vec::with_capacity(128),
            east_collected: Vec::with_capacity(128),
            cycle: 0,
            active_pe_cycles: 0,
            batched_pe_cycles: 0,
            lockstep: lockstep::Lockstep::new(cfg.rows, cfg.cols, cfg.link_fifo_depth),
            engine: None,
            extra_offchip_read: 0,
            extra_offchip_write: 0,
            wall_ns: 0,
            trace: None,
            cfg: cfg.clone(),
            north_feeder: north_edge_feeder,
        }
    }

    /// Whether the north edge feeds tokens (see [`Fabric::new`]).
    pub fn north_edge_feeder(&self) -> bool {
        self.north_feeder
    }

    /// True when this fabric's allocations fit `cfg`: reuse via
    /// [`Fabric::reset`] requires every allocation-shaping parameter
    /// (geometry, memory capacities, link FIFO depth) and the north-edge
    /// kind to match. Runtime-only parameters (budgets, fault injection,
    /// the fast-engine switch, watchdog factors) may differ — the reset
    /// re-derives them from the new configuration.
    pub fn reusable_for(&self, cfg: &CanonConfig, north_edge_feeder: bool) -> bool {
        self.north_feeder == north_edge_feeder
            && self.cfg.rows == cfg.rows
            && self.cfg.cols == cfg.cols
            && self.cfg.dmem_words == cfg.dmem_words
            && self.cfg.spad_entries == cfg.spad_entries
            && self.cfg.link_fifo_depth == cfg.link_fifo_depth
    }

    /// Resets the fabric in place to the state `Fabric::new(cfg,
    /// self.north_edge_feeder())` would produce, reusing every allocation
    /// (the PE slabs, link rings and instruction ring are zeroed, not
    /// rebuilt). This is the warm-pool reuse path: a
    /// request-serving worker resets a drained (or failed — deadlocked and
    /// timed-out fabrics carry mid-flight state, which this clears too)
    /// fabric instead of paying construction for every request.
    ///
    /// Under `debug_assertions` the reset is followed by a full
    /// [`Fabric::assert_pristine`] audit.
    ///
    /// # Panics
    ///
    /// Panics when `cfg` is invalid or not [`Fabric::reusable_for`] this
    /// fabric (allocation shapes must match; build a new fabric instead).
    pub fn reset(&mut self, cfg: &CanonConfig) {
        cfg.validate().expect("invalid CanonConfig");
        assert!(
            self.reusable_for(cfg, self.north_feeder),
            "Fabric::reset with an incompatible configuration \
             ({}x{} dmem={} spad={} fifo={} vs {}x{} dmem={} spad={} fifo={})",
            self.cfg.rows,
            self.cfg.cols,
            self.cfg.dmem_words,
            self.cfg.spad_entries,
            self.cfg.link_fifo_depth,
            cfg.rows,
            cfg.cols,
            cfg.dmem_words,
            cfg.spad_entries,
            cfg.link_fifo_depth,
        );
        self.rows.reset(|r| initial_south_credits(cfg, r));
        self.pes.reset();
        self.grid.clear_links();
        self.ring.reset();
        self.bubble_horizon = 0;
        self.elided_bubbles = 0;
        self.live = 0;
        self.inject_now.clear();
        self.inject_next.clear();
        for f in &mut self.feeders {
            f.clear();
        }
        self.feeders_pending = 0;
        self.south_collected.clear();
        self.east_collected.clear();
        self.cycle = 0;
        self.active_pe_cycles = 0;
        self.batched_pe_cycles = 0;
        self.lockstep.reset();
        self.engine = None;
        self.extra_offchip_read = 0;
        self.extra_offchip_write = 0;
        self.wall_ns = 0;
        self.trace = None;
        self.cfg = cfg.clone();
        #[cfg(debug_assertions)]
        self.assert_pristine();
    }

    /// Audits that the fabric carries no residual state from a previous
    /// run: cycle zero, quiescent, no live PE, NoC empty, memories
    /// zeroed, and every reported statistic zero. [`Fabric::reset`] runs
    /// this automatically under `debug_assertions`; it is public so tests
    /// (and the pool's own paranoia) can invoke it directly.
    ///
    /// # Panics
    ///
    /// Panics on any residual state, naming the component.
    pub fn assert_pristine(&self) {
        assert_eq!(self.cycle, 0, "pristine fabric: cycle not zero");
        assert!(self.quiescent(), "pristine fabric: not quiescent");
        assert_eq!(self.active_pe_count(), 0, "pristine fabric: live PEs");
        assert!(
            self.inject_now.is_clear() && self.inject_next.is_clear(),
            "pristine fabric: pending instruction injections"
        );
        assert_eq!(
            self.grid.total_queued(),
            0,
            "pristine fabric: NoC links hold entries"
        );
        assert_eq!(
            self.feeders_pending, 0,
            "pristine fabric: feeder tokens pending"
        );
        assert!(
            self.south_collected.is_empty() && self.east_collected.is_empty(),
            "pristine fabric: collectors hold entries"
        );
        assert!(
            (0..self.rows.len()).all(|r| self.rows.programs[r].is_none()),
            "pristine fabric: orchestrator programs installed"
        );
        assert!(self.trace.is_none(), "pristine fabric: trace sink attached");
        assert!(
            self.lockstep.is_pristine(),
            "pristine fabric: lockstep links or activity history hold state"
        );
        for r in 0..self.cfg.rows {
            for c in 0..self.cfg.cols {
                let pe = self.pes.pe(r * self.cfg.cols + c);
                for w in 0..pe.dmem.len() {
                    assert_eq!(
                        pe.dmem.word(w),
                        Vector::ZERO,
                        "pristine fabric: dmem residue at PE ({r},{c}) word {w}"
                    );
                }
                for w in 0..pe.spad.len() {
                    assert_eq!(
                        pe.spad.word(w),
                        Vector::ZERO,
                        "pristine fabric: spad residue at PE ({r},{c}) word {w}"
                    );
                }
            }
        }
        let rep = self.report();
        assert_eq!(rep.cycles, 0, "pristine fabric: reported cycles");
        let s = &rep.stats;
        assert!(
            s.instrs_executed == 0
                && s.mac_instrs == 0
                && s.dmem_reads == 0
                && s.dmem_writes == 0
                && s.spad_reads == 0
                && s.spad_writes == 0
                && s.noc_hops == 0
                && s.orch_steps == 0
                && s.stall_cycles == 0
                && s.meta_tokens == 0
                && s.offchip_read_bytes == 0
                && s.offchip_write_bytes == 0,
            "pristine fabric: nonzero statistics in report: {s:?}"
        );
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &CanonConfig {
        &self.cfg
    }

    /// Mutable access to a PE's memories (kernel mappers preload data
    /// memories).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn pe_mut(&mut self, r: usize, c: usize) -> PeMut<'_> {
        assert!(
            r < self.cfg.rows && c < self.cfg.cols,
            "PE index out of bounds"
        );
        self.pes.pe_mut(r * self.cfg.cols + c)
    }

    /// Data-memory word `a` of every PE, in PE-id order (`r · cols + c`) —
    /// the slab-order view kernel mappers fill stationary operands through
    /// (see [`PeArray::dmem_row_mut`](crate::pe::PeArray::dmem_row_mut)).
    /// Writes are not counted as memory accesses.
    ///
    /// # Panics
    ///
    /// Panics when `a` is not below `dmem_words`.
    pub(crate) fn dmem_row_mut(&mut self, a: usize) -> &mut [Vector] {
        self.pes.dmem_row_mut(a)
    }

    /// Shared access to a PE.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn pe(&self, r: usize, c: usize) -> PeRef<'_> {
        assert!(
            r < self.cfg.rows && c < self.cfg.cols,
            "PE index out of bounds"
        );
        self.pes.pe(r * self.cfg.cols + c)
    }

    /// Installs an orchestrator program on row `r`. Kernel FSMs convert
    /// directly (`fabric.set_program(r, SpmmFsm::new(...))`); arbitrary
    /// programs go through [`RowProgram::custom`].
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn set_program(&mut self, r: usize, program: impl Into<RowProgram>) {
        self.rows.programs[r] = Some(program.into());
    }

    /// Sets row `r`'s input meta-data stream.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn set_meta_stream(&mut self, r: usize, stream: Vec<MetaToken>) {
        self.rows.meta[r] = stream;
        self.rows.meta_pos[r] = 0;
    }

    /// Attaches a trace sink: both engines record the orchestrator phase's
    /// decisions and each cycle's off-chip and feeder traffic into it as
    /// cycle-stamped [`crate::trace::TraceEvent`]s, and
    /// [`crate::trace::replay_stats`] replays the stream into the exact
    /// [`RunReport`]. The engine choice is unaffected.
    ///
    /// Keep a handle to the sink's storage (e.g. a
    /// [`crate::trace::VecSink`] clone) — [`Fabric::take_trace_sink`] gives
    /// the sink back after the run.
    ///
    /// # Panics
    ///
    /// Panics after the first cycle: the stream must describe the whole
    /// run.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        assert_eq!(self.cycle, 0, "trace sink attached after the first cycle");
        self.trace = Some(Box::new(TraceRecorder::new(
            sink,
            self.cfg.rows,
            self.cfg.cols,
            self.extra_offchip_read,
            self.extra_offchip_write,
        )));
    }

    /// Detaches the trace recorder, closing the stream: any off-chip tail
    /// and all pending wait spans are flushed, the collector exits are
    /// recorded, and the [`crate::trace::TraceEvent::RunEnd`] footer
    /// closes it. Returns the sink, or `None` when no trace was attached.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut tr = self.trace.take()?;
        tr.end_of_cycle(
            self.cycle,
            0,
            self.extra_offchip_read,
            self.extra_offchip_write,
        );
        tr.on_collected(Direction::South, &self.south_collected);
        tr.on_collected(Direction::East, &self.east_collected);
        Some(tr.finish(self.cycle, self.active_pe_cycles, self.batched_pe_cycles))
    }

    /// Queues north-edge stream tokens for column `c` (one token enters the
    /// array per column per cycle at most).
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of bounds.
    pub fn set_feeder(&mut self, c: usize, tokens: Vec<TaggedVector>) {
        if !self.feeders[c].is_empty() {
            self.feeders_pending -= 1;
        }
        self.feeders[c] = tokens.into();
        if !self.feeders[c].is_empty() {
            self.feeders_pending += 1;
        }
    }

    /// Accounts additional off-chip read traffic (operand streams / preload)
    /// known to the kernel mapper.
    pub fn add_offchip_read_bytes(&mut self, bytes: u64) {
        self.extra_offchip_read += bytes;
    }

    /// Accounts additional off-chip write traffic.
    pub fn add_offchip_write_bytes(&mut self, bytes: u64) {
        self.extra_offchip_write += bytes;
    }

    /// Values that exited the south edge so far.
    pub fn south_collected(&self) -> &[CollectedEntry] {
        &self.south_collected
    }

    /// Values that exited the east edge so far.
    pub fn east_collected(&self) -> &[CollectedEntry] {
        &self.east_collected
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether PE `(r, c)` is live (see the module docs): an instruction
    /// in its pipeline, an injection pending in `pending`, or a token on an
    /// input link (in the per-PE link model). Between cycles the pending
    /// injections are `inject_now`; at the end of a PE's turn in the sweep,
    /// `inject_next`.
    fn pe_live(&self, pending: &InjectQueue, r: usize, c: usize) -> bool {
        let idx = r * self.cfg.cols + c;
        !self.pes.pipeline_empty(idx)
            || pending.kind[idx] == Inject::Instr
            || !self.grid.pe_inputs_empty(r, c)
    }

    fn live_pes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let cols = self.cfg.cols;
        (0..self.cfg.rows)
            .flat_map(move |r| (0..cols).map(move |c| (r, c)))
            .filter(|&(r, c)| self.pe_live(&self.inject_now, r, c))
    }

    /// Number of live PEs (a scan of every PE).
    pub fn active_pe_count(&self) -> usize {
        self.live_pes().count()
    }

    /// Coordinates `(row, col)` of the live PEs, in row-major order
    /// (diagnostics / tests; allocates).
    pub fn active_pes(&self) -> Vec<(usize, usize)> {
        self.live_pes().collect()
    }

    /// Dispatches orchestrator row `r` at cycle `now`: delivers due
    /// credits, steps the FSM, and applies its action.
    fn step_row(&mut self, r: usize, now: u64) -> Result<(), SimError> {
        let nrows = self.cfg.rows;
        let cols = self.cfg.cols;
        // Deliver due credit returns (observable only from this row's own
        // step).
        while self.rows.credit_returns[r]
            .front()
            .is_some_and(|&deliver| deliver <= now)
        {
            self.rows.credit_returns[r].pop_front();
            self.rows.south_credits[r] += 1;
        }
        let has_deliverable_msg = self.rows.inbox[r]
            .front()
            .is_some_and(|&(deliver, _)| deliver <= now);
        if self.rows.programs[r].is_none() || (self.rows.done(r) && !has_deliverable_msg) {
            // Drained (until a queued message becomes deliverable).
            return Ok(());
        }
        let io = OrchIo {
            cycle: now,
            input: self.rows.meta[r].get(self.rows.meta_pos[r]).copied(),
            msg: self.rows.inbox[r]
                .front()
                .filter(|&&(deliver, _)| deliver <= now)
                .map(|&(_, m)| m),
            south_credits: self.rows.south_credits[r],
            msg_slot_free: r + 1 >= nrows || self.rows.inbox[r + 1].len() < MSG_CAPACITY,
            north_tokens: if self.lockstep.engaged {
                self.lockstep.links.len(r)
            } else {
                self.grid.vertical_ref(r, 0).len()
            },
        };
        let action = self.rows.programs[r]
            .as_mut()
            .expect("checked present above")
            .step(&io);
        self.rows.orch_steps += 1;
        debug_assert!(
            action.state_id != NO_STATE,
            "state id {NO_STATE} is reserved as the never-stepped sentinel"
        );
        if self.rows.last_state[r] != action.state_id {
            if self.rows.last_state[r] != NO_STATE {
                self.rows.transitions += 1;
            }
            self.rows.last_state[r] = action.state_id;
        }
        if let Some(cause) = action.stall_cause() {
            self.rows.stall_causes.add(cause, 1);
        }
        if action.consumes_input() {
            self.rows.meta_pos[r] += 1;
            self.rows.meta_consumed += 1;
        }
        if action.consumes_msg() {
            self.rows.inbox[r].pop_front();
        }
        let instr = action.instr;
        if instr.pushes_toward(Direction::South) && r + 1 < nrows {
            if self.rows.south_credits[r] == 0 {
                return Err(SimError::Deadlock {
                    cycle: now,
                    waiting_on: format!("row {r} issued a south push without credit (FSM bug)"),
                });
            }
            self.rows.south_credits[r] -= 1;
        }
        if instr.pops_from(Direction::North) && r > 0 {
            let deliver = now + MSG_LATENCY;
            self.rows.credit_returns[r - 1].push_back(deliver);
        }
        if let Some(m) = action.msg_out() {
            self.rows.messages_sent += 1;
            if r + 1 < nrows {
                if self.rows.inbox[r + 1].len() >= MSG_CAPACITY {
                    return Err(SimError::Deadlock {
                        cycle: now,
                        waiting_on: format!("row {r} overflowed the message channel"),
                    });
                }
                let deliver = now + MSG_LATENCY;
                self.rows.inbox[r + 1].push_back((deliver, m));
            }
        }
        debug_assert!(
            self.inject_now.kind[r * cols] == Inject::None,
            "column-0 injection slot not consumed"
        );
        // Issue. Real instructions are interned once and thereafter march
        // east as 4-byte handles. Bubbles are elided: architecturally inert,
        // they are settled as `cols` instruction latches and a drain-horizon
        // extension instead of marching through the pipeline (see
        // [`Inject`]).
        if instr.is_plain_nop() {
            self.elided_bubbles += 1;
            self.bubble_horizon = self.bubble_horizon.max(now + 3 * cols as u64);
        } else {
            // An issue wakes an idle column-0 PE. Its West input is the
            // zero-source edge, so the North link is its only input.
            if self.pes.pipeline_empty(r * cols) && io.north_tokens == 0 {
                self.live += 1;
            }
            self.inject_now.put(r * cols, instr, &mut self.ring);
        }
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.on_orch_step(now, r, &action);
        }
        Ok(())
    }

    /// Orchestrator phase of cycle `now` (shared by the scalar and
    /// lockstep engines): steps every row in ascending order, which the
    /// message-channel checks rely on. Credits are delivered at dispatch:
    /// rows observe them only in their own step. A finished orchestrator is
    /// still stepped while deliverable messages are pending: its FSM keeps
    /// the bypass transitions of the DONE state so upstream rows can drain
    /// through it.
    fn orchestrate(&mut self, now: u64) -> Result<(), SimError> {
        for r in 0..self.cfg.rows {
            self.step_row(r, now)?;
        }
        Ok(())
    }

    /// Advances the fabric by one cycle.
    ///
    /// # Errors
    ///
    /// Returns protocol errors (router conflicts, FIFO over/underflow,
    /// address violations) detected during the cycle.
    pub fn step(&mut self) -> Result<(), SimError> {
        let now = self.cycle;
        let cols = self.cfg.cols;
        let nrows = self.cfg.rows;

        // 1. North-edge feeders: at most one token per column per cycle. A
        // token landing on column c's edge FIFO wakes PE (0, c) if idle.
        let mut fed = 0;
        if self.feeders_pending > 0 {
            for c in 0..cols {
                if let Some(&tok) = self.feeders[c].front() {
                    if self.grid.vertical_ref(0, c).len() < self.cfg.link_fifo_depth {
                        if !self.pe_live(&self.inject_now, 0, c) {
                            self.live += 1;
                        }
                        self.grid.vertical(0, c).push(tok, now, "north feeder")?;
                        self.feeders[c].pop_front();
                        if self.feeders[c].is_empty() {
                            self.feeders_pending -= 1;
                        }
                        self.extra_offchip_read += LANES as u64;
                        fed += 1;
                    }
                }
            }
        }

        // 2. Orchestrator phase.
        self.orchestrate(now)?;

        // 3. PE sweep: COMMIT (NoC pushes, eastward forwarding), EXECUTE and
        // LOAD for every PE, in PE-id order. Processing each PE's three
        // phases back to back is cycle-identical to phase barriers because
        // dataflow is strictly south/east-bound: a link's producer always
        // has a smaller id than its consumer, so same-cycle pushes are
        // committed before the consuming LOAD runs (see module docs). For
        // the same reason a PE's next-cycle liveness is final when its turn
        // ends, so the sweep counts it there.
        self.active_pe_cycles += self.live as u64;
        let mut live_next = 0;
        let mut idx = 0;
        for r in 0..nrows {
            for c in 0..cols {
                // A retiring instruction's 4-byte handle goes straight into
                // the eastern neighbour's injection slot.
                if let Some(h) = self
                    .pes
                    .commit(idx, &self.ring, &mut self.grid, r, c, now)?
                {
                    if c + 1 < cols {
                        self.inject_next.kind[idx + 1] = Inject::Instr;
                        self.inject_next.handle[idx + 1] = h;
                    }
                }
                if self.inject_now.kind[idx] == Inject::Instr {
                    self.inject_now.kind[idx] = Inject::None;
                    let h = self.inject_now.handle[idx];
                    self.pes
                        .load(idx, h, &self.ring, &mut self.grid, r, c, now)?;
                }
                if self.pe_live(&self.inject_next, r, c) {
                    live_next += 1;
                }
                idx += 1;
            }
        }
        self.live = live_next;

        // 4. Advance pipelines (O(1) stage-index rotation); next cycle's
        // column > 0 injections become current. The sweep consumed every
        // pending injection, so the swapped-out array needs no clearing.
        self.pes.advance();
        std::mem::swap(&mut self.inject_now, &mut self.inject_next);
        debug_assert!(
            self.inject_next.is_clear(),
            "injection leaked past the PE sweep"
        );

        // 5. Drain edge sinks straight into the collectors: the sink links
        // are popped in place, with no per-edge temporary collection, and
        // entries always exit in the cycle they were pushed.
        for c in 0..cols {
            let link = self.grid.vertical(nrows, c);
            while let Some(e) = link.try_pop() {
                self.south_collected.push(CollectedEntry {
                    tag: e.tag,
                    lane: c,
                    value: e.value,
                    cycle: now,
                });
            }
        }
        for r in 0..nrows {
            let link = self.grid.horizontal(r, cols);
            while let Some(e) = link.try_pop() {
                self.east_collected.push(CollectedEntry {
                    tag: e.tag,
                    lane: r,
                    value: e.value,
                    cycle: now,
                });
            }
        }

        // 6. Trace epilogue: this cycle's off-chip and feeder traffic.
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.end_of_cycle(now, fed, self.extra_offchip_read, self.extra_offchip_write);
        }

        self.cycle += 1;
        Ok(())
    }

    /// True when all orchestrators are done, all pipelines and links are
    /// empty, and no messages or feeder tokens are pending.
    ///
    /// O(rows): the PE and NoC half reads the live count the last cycle
    /// left (an occupied pipeline, pending injection, or non-empty input
    /// link makes its PE live).
    pub fn quiescent(&self) -> bool {
        self.live == 0
            && self.lockstep.lagging_now == 0
            && self.cycle >= self.bubble_horizon
            && self.feeders_pending == 0
            && (0..self.rows.len()).all(|r| self.rows.done(r) && self.rows.inbox[r].is_empty())
    }

    /// Runs until quiescent, returning the run report. The engine is
    /// chosen once, at entry (see the module's engine table).
    ///
    /// # Errors
    ///
    /// Propagates protocol errors and reports a [`SimError::Deadlock`] if the
    /// watchdog budget is exhausted before the fabric drains.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        let work: u64 = (0..self.rows.len())
            .map(|r| self.rows.meta_left(r) as u64)
            .sum::<u64>()
            + self.feeders.iter().map(|f| f.len() as u64).sum::<u64>();
        let budget = self
            .cfg
            .watchdog_factor
            .saturating_mul(work + (self.cfg.rows + self.cfg.cols) as u64)
            .saturating_add(self.cfg.watchdog_slack);
        let start = self.cycle;
        let wall_start = std::time::Instant::now();
        // Harness budgets and fault sentinels, pre-extracted so the common
        // (unset) case costs two always-false compares per iteration and no
        // Option matching inside the loop.
        let panic_at = match self.cfg.fault {
            Some(crate::fault::FaultAction::PanicAt { cycle }) => start.saturating_add(cycle),
            _ => u64::MAX,
        };
        let slow_ns = match self.cfg.fault {
            Some(crate::fault::FaultAction::SlowCycle { nanos }) => nanos,
            _ => 0,
        };
        let cycle_ceiling = match self.cfg.max_cycles {
            Some(m) => start.saturating_add(m),
            None => u64::MAX,
        };
        let wall_budget_ns = self.cfg.wall_budget_ns.unwrap_or(u64::MAX);
        // Wall-clock checks are amortised over 1024 cycles so `Instant::now`
        // stays off the hot path — except under an injected slow-cycle
        // fault, where each iteration already sleeps and a coarse check
        // would overshoot the budget by seconds.
        let wall_check_mask: u64 = if slow_ns != 0 { 0 } else { 0x3FF };
        let lockstep = self.lockstep_eligible();
        let engine = if lockstep {
            self.lockstep_engage();
            Engine::Lockstep
        } else {
            Engine::Scalar
        };
        self.engine = Some(self.engine.map_or(engine, |e| e.combine(engine)));
        let result = loop {
            if self.quiescent() {
                break Ok(());
            }
            if self.cycle >= panic_at {
                panic!(
                    "injected fault: forced panic at cycle {} (FaultAction::PanicAt)",
                    self.cycle
                );
            }
            if slow_ns != 0 {
                std::thread::sleep(std::time::Duration::from_nanos(slow_ns));
            }
            if self.cycle >= cycle_ceiling {
                break Err(SimError::Timeout {
                    cycle: self.cycle,
                    budget: format!(
                        "cycle ceiling {} cycles",
                        self.cfg.max_cycles.unwrap_or_default()
                    ),
                });
            }
            if (self.cycle - start) & wall_check_mask == 0
                && wall_start.elapsed().as_nanos() as u64 > wall_budget_ns
            {
                break Err(SimError::Timeout {
                    cycle: self.cycle,
                    budget: format!(
                        "wall-clock budget {} ns",
                        self.cfg.wall_budget_ns.unwrap_or_default()
                    ),
                });
            }
            if self.cycle - start > budget {
                let waiting: Vec<String> = (0..self.rows.len())
                    .filter(|&r| !self.rows.done(r))
                    .map(|r| format!("row {r} ({} meta left)", self.rows.meta_left(r)))
                    .collect();
                break Err(SimError::Deadlock {
                    cycle: self.cycle,
                    waiting_on: if waiting.is_empty() {
                        "pipeline/NoC drain".into()
                    } else {
                        waiting.join(", ")
                    },
                });
            }
            let stepped = if lockstep {
                self.lockstep_step()
            } else {
                self.step()
            };
            if let Err(e) = stepped {
                break Err(e);
            }
        };
        if lockstep {
            self.lockstep_finish();
        }
        // Accumulated on the error path too, so a report taken after a
        // watchdog/protocol abort still attributes the wall time spent.
        self.wall_ns += wall_start.elapsed().as_nanos() as u64;
        result?;
        Ok(self.report())
    }

    /// Builds the report for the cycles simulated so far.
    pub fn report(&self) -> RunReport {
        let mut stats = self.pes.activity().to_stats();
        stats.noc_hops = self.grid.total_pushes() + self.lockstep.noc_hops(self.cfg.cols);
        stats.orch_steps = self.rows.orch_steps;
        stats.orch_transitions = self.rows.transitions;
        stats.orch_messages = self.rows.messages_sent;
        stats.stall_cycles = self.rows.stall_causes.total();
        stats.stall_breakdown = self.rows.stall_causes;
        stats.meta_tokens = self.rows.meta_consumed;
        // Elided bubbles: each would have latched into every column of its
        // row (`cols` pipeline NOPs counted by the marching simulator).
        stats.instrs_executed += self.elided_bubbles * self.cfg.cols as u64;
        stats.offchip_read_bytes = self.extra_offchip_read;
        stats.offchip_write_bytes = self.extra_offchip_write;
        stats.active_pe_cycles = self.active_pe_cycles;
        stats.batched_pe_cycles = self.batched_pe_cycles;
        RunReport {
            cycles: self.cycle,
            pes: self.cfg.pe_count(),
            stats,
            wall_ns: self.wall_ns,
            engine: self.engine.unwrap_or(Engine::Scalar),
        }
    }
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("rows", &self.cfg.rows)
            .field("cols", &self.cfg.cols)
            .field("cycle", &self.cycle)
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Addr, Opcode};
    use crate::orchestrator::OrchAction;
    use crate::stats::StallCause;

    /// A scripted orchestrator that plays back a fixed instruction sequence.
    struct Script {
        instrs: VecDeque<Instruction>,
    }

    impl OrchProgram for Script {
        fn step(&mut self, _io: &OrchIo) -> OrchAction {
            match self.instrs.pop_front() {
                Some(i) => OrchAction::issue(i, 0),
                None => OrchAction::nop(0),
            }
        }
        fn done(&self) -> bool {
            self.instrs.is_empty()
        }
    }

    fn small_cfg() -> CanonConfig {
        CanonConfig {
            rows: 2,
            cols: 3,
            dmem_words: 16,
            spad_entries: 4,
            ..CanonConfig::default()
        }
    }

    #[test]
    fn staggered_issue_reaches_column_c_at_3c() {
        // One instruction that pushes its dmem word south; dmem preloaded
        // with distinct values per column. The south-edge collector records
        // the exit cycle per column: issue at cycle 0 → commit at column c at
        // cycle 3c + 2.
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, false);
        for c in 0..3 {
            f.pe_mut(1, c).dmem.preload(0, &[Vector::splat(c as i32)]);
        }
        let flush = Instruction::new(
            Opcode::Mov,
            Addr::DataMem(0),
            Addr::Null,
            Addr::Port(Direction::South),
        )
        .with_tag(7);
        f.set_program(
            1,
            RowProgram::custom(Script {
                instrs: vec![flush].into(),
            }),
        );
        f.run().unwrap();
        let got = f.south_collected();
        assert_eq!(got.len(), 3);
        for e in got {
            assert_eq!(e.tag, 7);
            assert_eq!(e.value, Vector::splat(e.lane as i32));
            // LOAD at 3c, COMMIT at 3c + 2.
            assert_eq!(e.cycle, 3 * e.lane as u64 + 2);
        }
    }

    #[test]
    fn pipelined_throughput_one_instruction_per_cycle() {
        // N flushes issued back-to-back: last exit cycle = (N-1) + 3(C-1) + 2.
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, false);
        let n = 5;
        let instrs: Vec<Instruction> = (0..n)
            .map(|i| {
                Instruction::new(
                    Opcode::Mov,
                    Addr::Imm,
                    Addr::Null,
                    Addr::Port(Direction::South),
                )
                .with_imm(Vector::splat(i as i32))
                .with_tag(i as u32)
            })
            .collect();
        f.set_program(
            1,
            RowProgram::custom(Script {
                instrs: instrs.into(),
            }),
        );
        f.run().unwrap();
        let got = f.south_collected();
        assert_eq!(got.len(), n * 3);
        let last = got.iter().map(|e| e.cycle).max().unwrap();
        assert_eq!(last, (n as u64 - 1) + 3 * 2 + 2);
    }

    #[test]
    fn quiescent_initially_and_after_run() {
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, false);
        assert!(f.quiescent());
        assert_eq!(f.active_pe_count(), 0);
        f.set_program(
            0,
            RowProgram::custom(Script {
                instrs: VecDeque::new(),
            }),
        );
        let r = f.run().unwrap();
        assert_eq!(r.cycles, 0);
        assert_eq!(f.active_pe_count(), 0);
    }

    #[test]
    fn watchdog_fires_on_stuck_program() {
        struct Stuck;
        impl OrchProgram for Stuck {
            fn step(&mut self, _io: &OrchIo) -> OrchAction {
                OrchAction::stall(0, StallCause::Credit)
            }
            fn done(&self) -> bool {
                false
            }
        }
        let mut cfg = small_cfg();
        cfg.watchdog_factor = 1;
        cfg.watchdog_slack = 50;
        let mut f = Fabric::new(&cfg, false);
        f.set_program(0, RowProgram::custom(Stuck));
        assert!(matches!(f.run(), Err(SimError::Deadlock { .. })));
    }

    #[test]
    fn report_counts_instructions_and_stalls() {
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, false);
        let instrs: Vec<Instruction> = vec![Instruction::NOP; 4];
        f.set_program(
            0,
            RowProgram::custom(Script {
                instrs: instrs.into(),
            }),
        );
        let r = f.run().unwrap();
        // 4 NOPs each latch into 3 PEs — counted despite never marching
        // (bubble elision credits them at report time).
        assert_eq!(r.stats.instrs_executed, 12);
        assert_eq!(r.stats.compute_instrs, 0);
        assert_eq!(r.stats.orch_steps, 4);
        // Bubbles are elided at issue, so the sweep never visits a PE: the
        // marching simulator would have spent 18 PE-cycles on them. The
        // cycle count still covers the full drain (last bubble issued at
        // cycle 3 + 3 columns × 3 stages).
        assert_eq!(r.stats.active_pe_cycles, 0);
        assert_eq!(r.cycles, 3 + 9);
    }

    #[test]
    fn reset_clears_planned_accumulator_writes() {
        // A MacS into the scratchpad (a fast MAC plan, stepped per PE
        // here): the reset must find and zero the accumulator it wrote.
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, false);
        for c in 0..3 {
            f.pe_mut(0, c).dmem.preload(0, &[Vector::splat(2)]);
        }
        let mac = Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(0), Addr::Spad(3))
            .with_imm(Vector::splat(3));
        f.set_program(
            0,
            RowProgram::custom(Script {
                instrs: vec![mac].into(),
            }),
        );
        f.run().unwrap();
        assert_eq!(f.pe(0, 2).spad.word(3), Vector::splat(6));
        f.reset(&cfg);
        f.assert_pristine();
    }

    #[test]
    fn feeder_rate_is_one_token_per_cycle_per_column() {
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, true);
        // The popping instruction traverses all three columns, so every
        // column needs a feeder stream.
        for c in 0..3 {
            let tokens: Vec<TaggedVector> = (0..3)
                .map(|i| TaggedVector {
                    value: Vector::splat(i),
                    tag: i as u32,
                })
                .collect();
            f.set_feeder(c, tokens);
        }
        // A scripted program that pops north three times on row 0.
        let pop = Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::North),
            Addr::Null,
            Addr::Spad(0),
        );
        f.set_program(
            0,
            RowProgram::custom(Script {
                instrs: vec![pop, pop, pop].into(),
            }),
        );
        let r = f.run().unwrap();
        assert!(r.cycles >= 3);
        // 3 tokens × 3 columns × LANES bytes accounted as off-chip reads.
        assert_eq!(r.stats.offchip_read_bytes, 9 * LANES as u64);
    }

    #[test]
    fn active_set_follows_the_wavefront() {
        // A single issued instruction sweeps eastward; the live PEs are
        // exactly those holding it (or its pending injection), and none is
        // left once the fabric drains.
        let cfg = small_cfg();
        let mut f = Fabric::new(&cfg, false);
        let i = Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Reg(0))
            .with_imm(Vector::splat(1));
        f.set_program(
            0,
            RowProgram::custom(Script {
                instrs: vec![i].into(),
            }),
        );
        f.step().unwrap();
        // Cycle 0: the instruction loaded into PE (0,0).
        assert_eq!(f.active_pes(), vec![(0, 0)]);
        while !f.quiescent() {
            f.step().unwrap();
            // Row 1 never participates.
            assert!(f.active_pes().iter().all(|&(r, _)| r == 0));
        }
        assert_eq!(f.active_pe_count(), 0);
        // 1 instruction × 3 pipeline cycles × 3 columns of residence.
        assert_eq!(f.report().stats.active_pe_cycles, 9);
    }
}
