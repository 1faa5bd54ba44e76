//! Activity counters and run reports.
//!
//! The simulator counts every architecturally-visible event (MACs, memory
//! port accesses, NoC transfers, orchestrator steps and state transitions).
//! `canon-energy` converts these counts into power/energy; the harness uses
//! them for the utilization figures (Figs 15, 17) and the power breakdown
//! (Fig 11).

use crate::isa::LANES;

/// Why an orchestrator was back-pressured on a cycle it wanted to act.
///
/// Every stall cycle ([`Stats::stall_cycles`]) carries exactly one cause,
/// recorded by the FSM that returned the stall
/// ([`crate::orchestrator::OrchAction::stall`]) and accumulated per cause in
/// [`StallBreakdown`]. The five causes cover the protocol resources an
/// orchestrator can wait on; `NocConflict` and `MetaWait` are reserved for
/// the spatial runner's router model and meta-prefetch experiments — no
/// in-tree FSM currently produces them (router conflicts abort the run as a
/// protocol error instead of stalling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum StallCause {
    /// No credit left on the row's southbound data channel.
    Credit = 0,
    /// The inter-orchestrator message slot towards the southern row is full.
    MsgSlot = 1,
    /// A router direction the instruction needs is already claimed.
    NocConflict = 2,
    /// The input meta stream has no deliverable head token.
    MetaWait = 3,
    /// A data operand (north token, evicted window entry) is not available.
    OperandWait = 4,
}

impl StallCause {
    /// All causes, in [`StallBreakdown`] field order.
    pub const ALL: [StallCause; 5] = [
        StallCause::Credit,
        StallCause::MsgSlot,
        StallCause::NocConflict,
        StallCause::MetaWait,
        StallCause::OperandWait,
    ];

    /// Stable lower-case name (store records, exporters).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Credit => "credit",
            StallCause::MsgSlot => "msg_slot",
            StallCause::NocConflict => "noc_conflict",
            StallCause::MetaWait => "meta_wait",
            StallCause::OperandWait => "operand_wait",
        }
    }

    /// Inverse of `self as u8` (trace decoding).
    pub fn from_index(i: u8) -> Option<StallCause> {
        StallCause::ALL.get(i as usize).copied()
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-cause split of [`Stats::stall_cycles`].
///
/// Invariant (asserted by the trace replay tests): the field sum equals
/// `stall_cycles` exactly — every stall cycle is attributed to exactly one
/// cause, including the cycles settled arithmetically for parked rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Stalls waiting on a southbound-channel credit.
    pub credit: u64,
    /// Stalls waiting on a free inter-orchestrator message slot.
    pub msg_slot: u64,
    /// Stalls waiting on a router direction (reserved, see [`StallCause`]).
    pub noc_conflict: u64,
    /// Stalls waiting on a meta-stream token (reserved, see [`StallCause`]).
    pub meta_wait: u64,
    /// Stalls waiting on a data operand.
    pub operand_wait: u64,
}

impl StallBreakdown {
    /// Adds `n` stall cycles of the given cause.
    #[inline]
    pub fn add(&mut self, cause: StallCause, n: u64) {
        *self.slot_mut(cause) += n;
    }

    /// Cycles attributed to `cause`.
    pub fn get(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::Credit => self.credit,
            StallCause::MsgSlot => self.msg_slot,
            StallCause::NocConflict => self.noc_conflict,
            StallCause::MetaWait => self.meta_wait,
            StallCause::OperandWait => self.operand_wait,
        }
    }

    fn slot_mut(&mut self, cause: StallCause) -> &mut u64 {
        match cause {
            StallCause::Credit => &mut self.credit,
            StallCause::MsgSlot => &mut self.msg_slot,
            StallCause::NocConflict => &mut self.noc_conflict,
            StallCause::MetaWait => &mut self.meta_wait,
            StallCause::OperandWait => &mut self.operand_wait,
        }
    }

    /// Sum over all causes (equals [`Stats::stall_cycles`] by invariant).
    pub fn total(&self) -> u64 {
        self.credit + self.msg_slot + self.noc_conflict + self.meta_wait + self.operand_wait
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for cause in StallCause::ALL {
            self.add(cause, other.get(cause));
        }
    }
}

/// Aggregated activity counters for one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Instructions entering PE pipelines (including NOPs), summed over PEs.
    pub instrs_executed: u64,
    /// Vector-lane compute instructions executed (op.is_compute()).
    pub compute_instrs: u64,
    /// Vector MAC instructions executed (op.is_mac()); each is `LANES` MACs.
    pub mac_instrs: u64,
    /// Data-memory word reads.
    pub dmem_reads: u64,
    /// Data-memory word writes.
    pub dmem_writes: u64,
    /// Scratchpad word reads.
    pub spad_reads: u64,
    /// Scratchpad word writes.
    pub spad_writes: u64,
    /// NoC link traversals (pushes onto inter-PE links and edge links).
    pub noc_hops: u64,
    /// Orchestrator active steps (cycles an orchestrator was not finished).
    pub orch_steps: u64,
    /// Data-driven FSM state transitions (Fig 11's transition counts).
    pub orch_transitions: u64,
    /// Orchestrator-to-orchestrator messages sent.
    pub orch_messages: u64,
    /// Cycles in which an orchestrator wanted to act but was back-pressured
    /// (no credit / message slot) — the load-imbalance stall metric.
    pub stall_cycles: u64,
    /// Per-cause split of `stall_cycles` (field sum equals it exactly).
    pub stall_breakdown: StallBreakdown,
    /// Meta tokens consumed from the input streams.
    pub meta_tokens: u64,
    /// Bytes streamed in from off-chip (operand streams + preload).
    pub offchip_read_bytes: u64,
    /// Bytes streamed out to off-chip (collected results).
    pub offchip_write_bytes: u64,
    /// PE-cycles spent in the step loop's active set (sum over cycles of the
    /// active-set size) — a scheduler diagnostic: `active_pe_cycles /
    /// (cycles × pes)` is the fraction of PE sweeps the active-set scheduler
    /// actually performs; the remainder is work the pre-scheduler simulator
    /// swept through for nothing.
    pub active_pe_cycles: u64,
    /// Orchestrator polls the event-driven engine skipped: row-cycles on
    /// which a live row was parked on a pure wait and the polling engine
    /// would have rebuilt its `OrchIo` and re-stepped its FSM for the same
    /// decision. A scheduler diagnostic — the architectural counters
    /// (`orch_steps`, `stall_cycles`, issued bubbles) already include these
    /// cycles as if polled.
    pub orch_polls_skipped: u64,
    /// Distinct row wake events raised into the orchestrator wake set (link
    /// events, delivery timers, freed message slots). A scheduler
    /// diagnostic: `wake_events / orch_steps` is how event-driven the run
    /// was (0 under pure polling).
    pub wake_events: u64,
    /// PE-cycles executed column-vectorized (batch pass or lockstep): the
    /// batch fast path's whole-column LOAD+COMMIT passes over the SoA slabs
    /// when every pipeline slot of a column prefix holds the same MAC plan
    /// shape, and every PE-cycle of a column-lockstep run (each row issue
    /// executed once across all columns; see `crate::fabric`). A scheduler
    /// diagnostic: `batched_pe_cycles / active_pe_cycles` is the fraction
    /// of swept PE work that was vectorized (1 for a lockstep run). The
    /// architectural counters are identical either way.
    pub batched_pe_cycles: u64,
    /// Cycles fast-forwarded by the steady-state replay engine: the PE-array
    /// sweep of these cycles was deferred and settled arithmetically at the
    /// next stretch flush (see `crate::replay`). A scheduler diagnostic —
    /// every architectural counter is identical with replay on or off;
    /// `replayed_cycles / cycles` is the fraction of the run the engine
    /// fast-forwarded.
    pub replayed_cycles: u64,
    /// Uniform-issue stretches the replay engine captured and flushed (each
    /// contributed ≥ 1 to `replayed_cycles`). A scheduler diagnostic:
    /// `replayed_cycles / replay_stretches` is the mean stretch length.
    pub replay_stretches: u64,
}

impl Stats {
    /// Creates zeroed counters.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &Stats) {
        self.instrs_executed += other.instrs_executed;
        self.compute_instrs += other.compute_instrs;
        self.mac_instrs += other.mac_instrs;
        self.dmem_reads += other.dmem_reads;
        self.dmem_writes += other.dmem_writes;
        self.spad_reads += other.spad_reads;
        self.spad_writes += other.spad_writes;
        self.noc_hops += other.noc_hops;
        self.orch_steps += other.orch_steps;
        self.orch_transitions += other.orch_transitions;
        self.orch_messages += other.orch_messages;
        self.stall_cycles += other.stall_cycles;
        self.stall_breakdown.merge(&other.stall_breakdown);
        self.meta_tokens += other.meta_tokens;
        self.offchip_read_bytes += other.offchip_read_bytes;
        self.offchip_write_bytes += other.offchip_write_bytes;
        self.active_pe_cycles += other.active_pe_cycles;
        self.orch_polls_skipped += other.orch_polls_skipped;
        self.wake_events += other.wake_events;
        self.batched_pe_cycles += other.batched_pe_cycles;
        self.replayed_cycles += other.replayed_cycles;
        self.replay_stretches += other.replay_stretches;
    }

    /// Total scalar MAC operations performed (vector MACs × lanes).
    pub fn scalar_macs(&self) -> u64 {
        self.mac_instrs * LANES as u64
    }
}

/// The result of running a kernel on the fabric: cycle count, geometry, and
/// activity counters.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total cycles simulated until the fabric drained.
    pub cycles: u64,
    /// Number of PEs in the fabric.
    pub pes: usize,
    /// Activity counters.
    pub stats: Stats,
    /// Host wall-clock time spent inside the simulator's cycle loop
    /// ([`crate::Fabric::run`], summed over tiles; the spatial runner's
    /// execution loop, which interleaves edge feed/drain with its cycles),
    /// in nanoseconds. A simulator-throughput metric only — it is
    /// host-dependent and therefore excluded from equality (two runs of the
    /// same workload compare equal even though their wall times differ).
    pub wall_ns: u64,
}

/// Equality covers the architectural outcome (cycles, geometry, counters)
/// and deliberately ignores `wall_ns`, which varies run to run on the host.
impl PartialEq for RunReport {
    fn eq(&self, other: &RunReport) -> bool {
        self.cycles == other.cycles && self.pes == other.pes && self.stats == other.stats
    }
}

impl RunReport {
    /// Simulator throughput: simulated cycles per host wall-clock second.
    /// Zero when no wall time was recorded.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.cycles as f64 / (self.wall_ns as f64 * 1e-9)
    }

    /// Compute utilization: fraction of PE-cycles spent on vector MAC
    /// instructions — the metric of Figs 15 and 17 ("compute utilization").
    pub fn compute_utilization(&self) -> f64 {
        if self.cycles == 0 || self.pes == 0 {
            return 0.0;
        }
        self.stats.mac_instrs as f64 / (self.cycles as f64 * self.pes as f64)
    }

    /// Scalar MAC throughput per cycle.
    pub fn macs_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.stats.scalar_macs() as f64 / self.cycles as f64
    }

    /// Execution time in seconds at the given clock (the paper targets 1 GHz).
    pub fn seconds_at(&self, hz: f64) -> f64 {
        self.cycles as f64 / hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = Stats::new();
        a.mac_instrs = 3;
        a.noc_hops = 5;
        let mut b = Stats::new();
        b.mac_instrs = 7;
        b.stall_cycles = 2;
        a.merge(&b);
        assert_eq!(a.mac_instrs, 10);
        assert_eq!(a.noc_hops, 5);
        assert_eq!(a.stall_cycles, 2);
        assert_eq!(a.scalar_macs(), 40);
    }

    #[test]
    fn stall_breakdown_sums_and_merges() {
        let mut b = StallBreakdown::default();
        b.add(StallCause::Credit, 3);
        b.add(StallCause::MsgSlot, 2);
        b.add(StallCause::OperandWait, 1);
        assert_eq!(b.total(), 6);
        assert_eq!(b.get(StallCause::Credit), 3);
        assert_eq!(b.get(StallCause::NocConflict), 0);
        let mut a = Stats::new();
        a.stall_cycles = 4;
        a.stall_breakdown.add(StallCause::Credit, 4);
        let mut other = Stats::new();
        other.stall_cycles = 6;
        other.stall_breakdown = b;
        a.merge(&other);
        assert_eq!(a.stall_cycles, 10);
        assert_eq!(a.stall_breakdown.total(), a.stall_cycles);
        assert_eq!(a.stall_breakdown.credit, 7);
        for c in StallCause::ALL {
            assert_eq!(StallCause::from_index(c as u8), Some(c));
            assert!(!c.name().is_empty());
        }
        assert_eq!(StallCause::from_index(9), None);
    }

    #[test]
    fn utilization_bounds() {
        let mut stats = Stats::new();
        stats.mac_instrs = 640;
        let r = RunReport {
            cycles: 10,
            pes: 64,
            stats,
            wall_ns: 0,
        };
        assert!((r.compute_utilization() - 1.0).abs() < 1e-12);
        assert_eq!(r.macs_per_cycle(), 256.0);
        assert!((r.seconds_at(1e9) - 1e-8).abs() < 1e-20);
    }

    #[test]
    fn utilization_zero_cycles() {
        let r = RunReport {
            cycles: 0,
            pes: 64,
            stats: Stats::new(),
            wall_ns: 0,
        };
        assert_eq!(r.compute_utilization(), 0.0);
        assert_eq!(r.macs_per_cycle(), 0.0);
        assert_eq!(r.cycles_per_sec(), 0.0);
    }

    #[test]
    fn wall_time_is_excluded_from_equality_but_drives_throughput() {
        let mk = |wall_ns| RunReport {
            cycles: 1000,
            pes: 64,
            stats: Stats::new(),
            wall_ns,
        };
        assert_eq!(mk(10), mk(999));
        assert!((mk(1_000_000).cycles_per_sec() - 1e6).abs() < 1e-3);
    }
}
