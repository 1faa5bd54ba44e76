//! Cycle-accurate tracing and stall attribution for the Canon fabric.
//!
//! ## What is recorded
//!
//! Every control decision of a Canon fabric is made at the edge of a row:
//! each orchestrator FSM issues one instruction per cycle into column 0,
//! and time-lapsed SIMD replays it down the row, one column every 3 cycles
//! (§2.1). A [`TraceSink`] attached via `Fabric::set_trace_sink` therefore
//! receives only what both engines share:
//!
//! * the orchestrator phase's decisions — instruction issues, bubble steps
//!   with side effects, and coalesced wait spans with their
//!   [`StallCause`];
//! * one end-of-cycle [`TraceEvent::OffchipBurst`] per cycle that moved
//!   off-chip bytes or north-edge feeder tokens;
//! * the edge-collector exits, emitted when the stream closes.
//!
//! Everything per-PE is derived: column `c` commits an issue of cycle `t`
//! at `t + 3c + 2`, and makes the NoC pushes and memory accesses
//! [`issue_cost`] lists. The stream is the same on column
//! lockstep and on per-PE stepping, so a traced run takes the engine an
//! untraced one would. When no sink is attached each engine pays one
//! untaken branch per row step and per cycle.
//!
//! ## Exactness
//!
//! [`replay_stats`] reconstructs the run's full [`Stats`] — including the
//! per-cause stall breakdown summing to `stall_cycles` — byte-for-byte from
//! the events alone. The sink must be attached before the first cycle.
//!
//! ## Consumers
//!
//! * [`write_chrome_trace`] emits Chrome trace-event JSON loadable in
//!   [Perfetto](https://ui.perfetto.dev) — one track per orchestrator row
//!   (issues, steps, stall spans colored by cause) and one per PE column
//!   (derived commits), plus NoC/off-chip counter tracks.
//! * [`render_profile`] prints a textual profile: top stall causes, per-row
//!   occupancy, and active-PE timeline buckets.
//!
//! Capture is two lines (`repro trace` / `repro profile` wrap exactly
//! this):
//!
//! ```ignore
//! let sink = VecSink::default();
//! fabric.set_trace_sink(Box::new(sink.clone()));
//! fabric.run()?;
//! fabric.take_trace_sink(); // flush pending spans, collector exits, RunEnd
//! let events = sink.take_events();
//! ```

use crate::fabric::CollectedEntry;
use crate::isa::{Addr, Direction, Instruction, Opcode};
use crate::orchestrator::OrchAction;
use crate::stats::{RunReport, StallCause, Stats};
use std::sync::{Arc, Mutex};

/// One cycle-stamped trace event.
///
/// The architectural subset (see [`TraceEvent::is_architectural`]) is
/// engine-independent; the scheduler diagnostics in the
/// [`TraceEvent::RunEnd`] footer describe the work actually performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Stream header: geometry plus the off-chip bytes the kernel mapper
    /// accounted before the first cycle.
    RunBegin {
        /// Orchestrator row count.
        rows: usize,
        /// PE column count.
        cols: usize,
        /// Off-chip read bytes accounted before the first cycle.
        offchip_read_base: u64,
        /// Off-chip write bytes accounted before the first cycle.
        offchip_write_base: u64,
    },
    /// An orchestrator step that issued a real (non-bubble) instruction
    /// into column 0.
    Issue {
        /// Issue cycle.
        cycle: u64,
        /// Issuing row.
        row: usize,
        /// FSM state after the step.
        state: u8,
        /// The issued instruction (decoded op kind and operands).
        instr: Instruction,
        /// The step consumed a meta-stream token.
        consumed_input: bool,
        /// The step consumed an inter-orchestrator message.
        consumed_msg: bool,
        /// The step sent an inter-orchestrator message.
        sent_msg: bool,
        /// Stall recorded alongside the step (rare; a blocked sub-decision
        /// that still made protocol progress).
        stall: Option<StallCause>,
    },
    /// An orchestrator step that issued only a bubble but had side effects
    /// (consumed a token or message, or sent a message) — not a pure wait.
    Step {
        /// Step cycle.
        cycle: u64,
        /// Row.
        row: usize,
        /// FSM state after the step.
        state: u8,
        /// The step consumed a meta-stream token.
        consumed_input: bool,
        /// The step consumed an inter-orchestrator message.
        consumed_msg: bool,
        /// The step sent an inter-orchestrator message.
        sent_msg: bool,
        /// Stall recorded alongside the step.
        stall: Option<StallCause>,
    },
    /// A coalesced span of pure-wait orchestrator steps: `len` consecutive
    /// cycles (starting at `from`) in which the row issued only bubbles with
    /// no side effects. `cause` is the attributed stall cause, or `None` for
    /// a non-stall idle wait (e.g. an empty input stream).
    Wait {
        /// Row.
        row: usize,
        /// First cycle of the span.
        from: u64,
        /// Number of cycles in the span.
        len: u64,
        /// FSM state held across the span.
        state: u8,
        /// Attributed stall cause (`None` = idle, not back-pressured).
        cause: Option<StallCause>,
    },
    /// Off-chip traffic and north-edge feeder pushes of one cycle (deltas,
    /// not totals).
    OffchipBurst {
        /// Cycle.
        cycle: u64,
        /// Bytes read from off-chip this cycle.
        read_bytes: u64,
        /// Bytes written off-chip this cycle.
        write_bytes: u64,
        /// Tokens the north-edge feeders pushed into the array this cycle
        /// (one NoC hop and `LANES` read bytes each).
        feeder_tokens: u64,
    },
    /// A value exited the array into an edge collector.
    CollectorEmit {
        /// Cycle.
        cycle: u64,
        /// Exit edge ([`Direction::South`] or [`Direction::East`]).
        edge: Direction,
        /// Exit lane (column for south, row for east).
        lane: usize,
        /// Producer-attached tag.
        tag: u32,
    },
    /// Stream footer: totals that close the books on the run.
    RunEnd {
        /// Cycles simulated (final cycle count).
        cycles: u64,
        /// Scheduler diagnostic (engine-dependent).
        active_pe_cycles: u64,
        /// Scheduler diagnostic (engine-dependent): the fabric's
        /// [`Stats::batched_pe_cycles`](crate::Stats) (lockstep PE-cycles).
        batched_pe_cycles: u64,
    },
}

impl TraceEvent {
    /// True for events that depend only on the simulated architecture
    /// (everything except the [`TraceEvent::RunEnd`] footer's scheduler
    /// diagnostics), so two programs with the same behaviour, e.g. a native
    /// FSM and its assembled LUT twin, or one program on both engines, emit
    /// the same architectural stream.
    pub fn is_architectural(&self) -> bool {
        !matches!(self, TraceEvent::RunEnd { .. })
    }
}

/// Receiver of trace events. `Send` so traced fabrics stay usable from
/// worker threads.
pub trait TraceSink: Send {
    /// Records one event. Called in emission order; per-row orchestrator
    /// events arrive in cycle order.
    fn record(&mut self, ev: &TraceEvent);
}

/// A [`TraceSink`] collecting events into a shared buffer: keep a clone,
/// attach a clone, and read the events back after the run (the fabric owns
/// its sink, so the buffer is shared rather than returned).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl VecSink {
    /// Takes the collected events, leaving the buffer empty.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock().expect("trace buffer poisoned"))
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace buffer poisoned").len()
    }

    /// True when no events were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.events.lock().expect("trace buffer poisoned").push(*ev);
    }
}

/// An in-flight pure-wait span being coalesced for one row.
#[derive(Debug, Clone, Copy)]
struct PendingWait {
    from: u64,
    len: u64,
    state: u8,
    cause: Option<StallCause>,
}

/// The fabric-side event producer: owns the sink, coalesces per-row wait
/// spans, and diffs the off-chip counters per cycle. Constructed by
/// `Fabric::set_trace_sink`; both engines call the same hooks.
pub(crate) struct TraceRecorder {
    sink: Box<dyn TraceSink>,
    pending: Vec<Option<PendingWait>>,
    last_offchip_read: u64,
    last_offchip_write: u64,
}

impl TraceRecorder {
    /// Creates a recorder and emits the [`TraceEvent::RunBegin`] header.
    pub(crate) fn new(
        mut sink: Box<dyn TraceSink>,
        rows: usize,
        cols: usize,
        offchip_read: u64,
        offchip_write: u64,
    ) -> TraceRecorder {
        sink.record(&TraceEvent::RunBegin {
            rows,
            cols,
            offchip_read_base: offchip_read,
            offchip_write_base: offchip_write,
        });
        TraceRecorder {
            sink,
            pending: vec![None; rows],
            last_offchip_read: offchip_read,
            last_offchip_write: offchip_write,
        }
    }

    fn flush_wait(&mut self, row: usize) {
        if let Some(w) = self.pending[row].take() {
            self.sink.record(&TraceEvent::Wait {
                row,
                from: w.from,
                len: w.len,
                state: w.state,
                cause: w.cause,
            });
        }
    }

    /// Records one orchestrator step. Pure waits — bubble, no consumes, no
    /// message — coalesce into a pending [`TraceEvent::Wait`] span that is
    /// flushed lazily at the row's next non-wait event.
    pub(crate) fn on_orch_step(&mut self, cycle: u64, row: usize, action: &OrchAction) {
        let issued = !action.instr.is_plain_nop();
        let consumed_input = action.consumes_input();
        let consumed_msg = action.consumes_msg();
        let sent_msg = action.msg_out().is_some();
        let stall = action.stall_cause();
        if !issued && !consumed_input && !consumed_msg && !sent_msg {
            // Pure wait: coalesce. Flush on any discontinuity (state or
            // cause changed, or a gap — e.g. cycles of a row that drained
            // and was re-activated by a late message).
            match &mut self.pending[row] {
                Some(w)
                    if w.state == action.state_id
                        && w.cause == stall
                        && cycle == w.from + w.len =>
                {
                    w.len += 1;
                }
                _ => {
                    self.flush_wait(row);
                    self.pending[row] = Some(PendingWait {
                        from: cycle,
                        len: 1,
                        state: action.state_id,
                        cause: stall,
                    });
                }
            }
            return;
        }
        self.flush_wait(row);
        let ev = if issued {
            TraceEvent::Issue {
                cycle,
                row,
                state: action.state_id,
                instr: action.instr,
                consumed_input,
                consumed_msg,
                sent_msg,
                stall,
            }
        } else {
            TraceEvent::Step {
                cycle,
                row,
                state: action.state_id,
                consumed_input,
                consumed_msg,
                sent_msg,
                stall,
            }
        };
        self.sink.record(&ev);
    }

    /// End of cycle `cycle`: records one [`TraceEvent::OffchipBurst`] when
    /// the off-chip byte counters moved since the last call.
    /// `feeder_tokens` is the number of tokens the north-edge feeders
    /// pushed this cycle.
    pub(crate) fn end_of_cycle(
        &mut self,
        cycle: u64,
        feeder_tokens: u64,
        offchip_read: u64,
        offchip_write: u64,
    ) {
        if offchip_read != self.last_offchip_read || offchip_write != self.last_offchip_write {
            self.sink.record(&TraceEvent::OffchipBurst {
                cycle,
                read_bytes: offchip_read - self.last_offchip_read,
                write_bytes: offchip_write - self.last_offchip_write,
                feeder_tokens,
            });
            self.last_offchip_read = offchip_read;
            self.last_offchip_write = offchip_write;
        }
    }

    /// Records the exits of one edge collector.
    pub(crate) fn on_collected(&mut self, edge: Direction, entries: &[CollectedEntry]) {
        for e in entries {
            self.sink.record(&TraceEvent::CollectorEmit {
                cycle: e.cycle,
                edge,
                lane: e.lane,
                tag: e.tag,
            });
        }
    }

    /// Closes the stream: flushes every pending wait span, records the
    /// [`TraceEvent::RunEnd`] footer and releases the sink.
    pub(crate) fn finish(
        mut self,
        cycles: u64,
        active_pe_cycles: u64,
        batched_pe_cycles: u64,
    ) -> Box<dyn TraceSink> {
        for row in 0..self.pending.len() {
            self.flush_wait(row);
        }
        self.sink.record(&TraceEvent::RunEnd {
            cycles,
            active_pe_cycles,
            batched_pe_cycles,
        });
        self.sink
    }
}

/// The cycles at which the columns `0..cols` commit an instruction issued
/// at `cycle`, before `end`: the 3-cycle stagger of §2.1 brings it to
/// column `c` at `cycle + 3c`, and it commits two stages later.
fn commit_cycles(cycle: u64, cols: usize, end: u64) -> impl Iterator<Item = u64> {
    (0..cols as u64)
        .map(move |c| cycle + 3 * c + 2)
        .take_while(move |&t| t < end)
}

/// What one execution of an instruction on one PE does beyond its
/// opcode — a pure function of the instruction, mirroring the PE's
/// LOAD/COMMIT accounting exactly (operand reads are counted before
/// store-to-load forwarding, so the counts do not depend on pipeline
/// state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IssueCost {
    /// Data-memory reads.
    pub dmem_reads: u64,
    /// Data-memory writes.
    pub dmem_writes: u64,
    /// Scratchpad reads.
    pub spad_reads: u64,
    /// Scratchpad writes.
    pub spad_writes: u64,
    /// NoC link pushes at COMMIT: a port result and a pass-through route.
    pub noc_pushes: u64,
}

/// The cost of one execution of `instr` on a PE. Every column of a row
/// executes each issue once, so a run costs `cols` times this per issue.
pub fn issue_cost(instr: &Instruction) -> IssueCost {
    let mut p = IssueCost::default();
    if instr.is_plain_nop() {
        return p;
    }
    let read = |a: Addr, p: &mut IssueCost| match a {
        Addr::DataMem(_) => p.dmem_reads += 1,
        Addr::Spad(_) => p.spad_reads += 1,
        _ => {}
    };
    read(instr.op1, &mut p);
    read(instr.op2, &mut p);
    // Read-modify-write opcodes read the old result value at LOAD.
    if matches!(instr.op, Opcode::MacV | Opcode::MacS | Opcode::Acc)
        && !matches!(instr.res, Addr::Port(_) | Addr::Null | Addr::Imm)
    {
        read(instr.res, &mut p);
    }
    // COMMIT write-back.
    if instr.op != Opcode::Nop {
        match instr.res {
            Addr::DataMem(_) => p.dmem_writes += 1,
            Addr::Spad(_) => p.spad_writes += 1,
            Addr::Port(_) => p.noc_pushes += 1,
            _ => {}
        }
    }
    // Flush-clear of the op1 source (register clears are not mem traffic).
    if matches!(instr.op, Opcode::MovFlush | Opcode::AddFlush) {
        if let Addr::Spad(_) = instr.op1 {
            p.spad_writes += 1;
        }
    }
    p.noc_pushes += u64::from(instr.route.is_some());
    p
}

/// Reconstructs the run's [`RunReport`] from a captured event stream.
///
/// The result equals `fabric.report()` byte-for-byte (`wall_ns` and
/// `engine` excepted — neither is an architectural quantity, and neither
/// participates in `RunReport` equality). A stream of several runs, such
/// as the tiles of one `kernels::execute`, replays into their summed
/// report.
pub fn replay_stats(events: &[TraceEvent]) -> RunReport {
    let mut stats = Stats::new();
    let mut rows = 0usize;
    let mut cols = 0u64;
    let mut cycles = 0u64;
    let mut last_state: Vec<Option<u8>> = Vec::new();
    // One orchestrator step, or a wait span of `steps` steps.
    let step = |stats: &mut Stats,
                last: &mut [Option<u8>],
                (row, state, steps): (usize, u8, u64),
                stall: Option<StallCause>| {
        stats.orch_steps += steps;
        if last[row] != Some(state) {
            if last[row].is_some() {
                stats.orch_transitions += 1;
            }
            last[row] = Some(state);
        }
        if let Some(cause) = stall {
            stats.stall_cycles += steps;
            stats.stall_breakdown.add(cause, steps);
        }
    };
    for ev in events {
        match *ev {
            TraceEvent::RunBegin {
                rows: r,
                cols: c,
                offchip_read_base,
                offchip_write_base,
            } => {
                rows = r;
                cols = c as u64;
                last_state = vec![None; r];
                stats.offchip_read_bytes += offchip_read_base;
                stats.offchip_write_bytes += offchip_write_base;
            }
            TraceEvent::Issue {
                row,
                state,
                instr,
                consumed_input,
                sent_msg,
                stall,
                ..
            } => {
                step(&mut stats, &mut last_state, (row, state, 1), stall);
                stats.meta_tokens += consumed_input as u64;
                stats.orch_messages += sent_msg as u64;
                stats.compute_instrs += cols * instr.op.is_compute() as u64;
                stats.mac_instrs += cols * instr.op.is_mac() as u64;
                let cost = issue_cost(&instr);
                stats.dmem_reads += cost.dmem_reads * cols;
                stats.dmem_writes += cost.dmem_writes * cols;
                stats.spad_reads += cost.spad_reads * cols;
                stats.spad_writes += cost.spad_writes * cols;
                stats.noc_hops += cost.noc_pushes * cols;
            }
            TraceEvent::Step {
                row,
                state,
                consumed_input,
                sent_msg,
                stall,
                ..
            } => {
                step(&mut stats, &mut last_state, (row, state, 1), stall);
                stats.meta_tokens += consumed_input as u64;
                stats.orch_messages += sent_msg as u64;
            }
            TraceEvent::Wait {
                row,
                len,
                state,
                cause,
                ..
            } => step(&mut stats, &mut last_state, (row, state, len), cause),
            TraceEvent::OffchipBurst {
                read_bytes,
                write_bytes,
                feeder_tokens,
                ..
            } => {
                stats.offchip_read_bytes += read_bytes;
                stats.offchip_write_bytes += write_bytes;
                stats.noc_hops += feeder_tokens;
            }
            TraceEvent::CollectorEmit { .. } => {}
            TraceEvent::RunEnd {
                cycles: c,
                active_pe_cycles,
                batched_pe_cycles,
            } => {
                cycles += c;
                stats.active_pe_cycles += active_pe_cycles;
                stats.batched_pe_cycles += batched_pe_cycles;
            }
        }
    }
    // Every orchestrator step clocks one instruction latch into each column
    // of its row — a real issue marches through `cols` PEs, an elided bubble
    // is credited `cols` latches.
    stats.instrs_executed = stats.orch_steps * cols;
    RunReport {
        cycles,
        pes: rows * cols as usize,
        stats,
        wall_ns: 0,
        engine: crate::stats::Engine::Scalar,
    }
}

/// The geometry of the stream's [`TraceEvent::RunBegin`] header and the
/// cycle count of its [`TraceEvent::RunEnd`] footer.
fn geometry(events: &[TraceEvent]) -> (usize, usize, u64) {
    let (mut rows, mut cols, mut cycles) = (0, 0, 0);
    for ev in events {
        match *ev {
            TraceEvent::RunBegin {
                rows: r, cols: c, ..
            } => (rows, cols) = (r, c),
            TraceEvent::RunEnd { cycles: c, .. } => cycles = c,
            _ => {}
        }
    }
    (rows, cols, cycles)
}

/// Catapult color name for one stall cause (Perfetto honors the classic
/// `cname` palette for complete events).
fn cause_cname(cause: Option<StallCause>) -> &'static str {
    match cause {
        None => "grey",
        Some(StallCause::Credit) => "terrible",
        Some(StallCause::MsgSlot) => "bad",
        Some(StallCause::NocConflict) => "black",
        Some(StallCause::MetaWait) => "white",
        Some(StallCause::OperandWait) => "yellow",
    }
}

/// Writes the event stream as Chrome trace-event JSON (the
/// `{"traceEvents":[...]}` object form), loadable in Perfetto or
/// `chrome://tracing`. Track layout: pid 1 = orchestrator rows (one thread
/// per row: issues, steps, wait spans colored by stall cause), pid 2 = PE
/// columns (one thread per column: the commits derived from the issues),
/// pid 3 = collectors, plus `noc_hops` / `offchip` counter tracks. Cycle
/// stamps map 1:1 to trace microseconds; derived events stop at the
/// footer's cycle count.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace<W: std::io::Write>(
    events: &[TraceEvent],
    w: &mut W,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(w);
    let w = &mut out;
    write!(w, "{{\"traceEvents\":[")?;
    let mut first = true;
    macro_rules! item {
        ($($arg:tt)*) => {{
            if !std::mem::replace(&mut first, false) { write!(w, ",")?; }
            write!(w, "\n")?;
            write!(w, $($arg)*)?;
        }};
    }
    let (rows, cols, cycles) = geometry(events);
    item!("{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"orchestrator rows\"}}}}");
    item!(
        "{{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{{\"name\":\"PE columns\"}}}}"
    );
    item!(
        "{{\"ph\":\"M\",\"pid\":3,\"name\":\"process_name\",\"args\":{{\"name\":\"collectors\"}}}}"
    );
    for r in 0..rows {
        item!("{{\"ph\":\"M\",\"pid\":1,\"tid\":{r},\"name\":\"thread_name\",\"args\":{{\"name\":\"row {r}\"}}}}");
    }
    for c in 0..cols {
        item!("{{\"ph\":\"M\",\"pid\":2,\"tid\":{c},\"name\":\"thread_name\",\"args\":{{\"name\":\"col {c}\"}}}}");
    }
    item!("{{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"thread_name\",\"args\":{{\"name\":\"south\"}}}}");
    item!("{{\"ph\":\"M\",\"pid\":3,\"tid\":1,\"name\":\"thread_name\",\"args\":{{\"name\":\"east\"}}}}");
    // NoC pushes per cycle: each issue's pushes at every column's commit,
    // plus the feeder tokens; one counter sample per busy cycle.
    let mut hops = vec![0u64; cycles as usize + 1];
    for ev in events {
        match *ev {
            TraceEvent::RunBegin { .. } | TraceEvent::RunEnd { .. } => {}
            TraceEvent::Issue {
                cycle,
                row,
                state,
                instr,
                ..
            } => {
                item!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{row},\"ts\":{cycle},\"dur\":1,\"name\":\"{:?}\",\"cat\":\"issue\",\"cname\":\"good\",\"args\":{{\"tag\":{},\"state\":{state}}}}}",
                    instr.op,
                    instr.tag
                );
                let pushes = issue_cost(&instr).noc_pushes;
                for (c, t) in commit_cycles(cycle, cols, cycles).enumerate() {
                    item!(
                        "{{\"ph\":\"X\",\"pid\":2,\"tid\":{c},\"ts\":{t},\"dur\":1,\"name\":\"{:?}\",\"cat\":\"commit\",\"args\":{{\"row\":{row},\"issued\":{cycle}}}}}",
                        instr.op
                    );
                    hops[t as usize] += pushes;
                }
            }
            TraceEvent::Step {
                cycle,
                row,
                state,
                consumed_input,
                consumed_msg,
                sent_msg,
                ..
            } => {
                item!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{row},\"ts\":{cycle},\"dur\":1,\"name\":\"step\",\"cat\":\"step\",\"args\":{{\"state\":{state},\"consumed_input\":{consumed_input},\"consumed_msg\":{consumed_msg},\"sent_msg\":{sent_msg}}}}}"
                );
            }
            TraceEvent::Wait {
                row,
                from,
                len,
                state,
                cause,
            } => {
                let name = cause.map_or("idle", StallCause::name);
                let cname = cause_cname(cause);
                item!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{row},\"ts\":{from},\"dur\":{len},\"name\":\"{name}\",\"cat\":\"wait\",\"cname\":\"{cname}\",\"args\":{{\"state\":{state}}}}}"
                );
            }
            TraceEvent::OffchipBurst {
                cycle,
                read_bytes,
                write_bytes,
                feeder_tokens,
            } => {
                item!(
                    "{{\"ph\":\"C\",\"pid\":1,\"name\":\"offchip_bytes\",\"ts\":{cycle},\"args\":{{\"read\":{read_bytes},\"write\":{write_bytes}}}}}"
                );
                hops[cycle.min(cycles) as usize] += feeder_tokens;
            }
            TraceEvent::CollectorEmit {
                cycle,
                edge,
                lane,
                tag,
            } => {
                let tid = if edge == Direction::South { 0 } else { 1 };
                item!(
                    "{{\"ph\":\"i\",\"pid\":3,\"tid\":{tid},\"ts\":{cycle},\"name\":\"emit\",\"s\":\"t\",\"args\":{{\"lane\":{lane},\"tag\":{tag}}}}}"
                );
            }
        }
    }
    for (cycle, &n) in hops.iter().enumerate().filter(|(_, &n)| n > 0) {
        item!("{{\"ph\":\"C\",\"pid\":1,\"name\":\"noc_hops\",\"ts\":{cycle},\"args\":{{\"hops\":{n}}}}}");
    }
    write!(w, "\n]}}")?;
    use std::io::Write as _;
    out.flush()
}

/// Renders the textual profile: header, top stall causes, per-row occupancy
/// histogram, and active-PE timeline buckets (commits derived from the
/// issues, up to the footer's cycle count).
pub fn render_profile(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let report = replay_stats(events);
    let (rows, cols, _) = geometry(events);
    let cycles = report.cycles.max(1);
    let s = &report.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {rows}x{cols} fabric, {} cycles, {} instr latches, {} NoC hops",
        report.cycles, s.instrs_executed, s.noc_hops
    );
    let _ = writeln!(
        out,
        "         {} orch steps, {} meta tokens, {} messages, {} collector emits",
        s.orch_steps,
        s.meta_tokens,
        s.orch_messages,
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::CollectorEmit { .. }))
            .count()
    );

    // Top stall causes, descending.
    let row_cycles = (rows as u64) * cycles;
    let _ = writeln!(
        out,
        "\nstall cycles: {} total ({:.1}% of {} row-cycles)",
        s.stall_cycles,
        100.0 * s.stall_cycles as f64 / row_cycles.max(1) as f64,
        row_cycles
    );
    let mut causes: Vec<(StallCause, u64)> = StallCause::ALL
        .iter()
        .map(|&c| (c, s.stall_breakdown.get(c)))
        .collect();
    causes.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (cause, n) in causes {
        if n == 0 {
            continue;
        }
        let frac = n as f64 / s.stall_cycles.max(1) as f64;
        let bar = "#".repeat((frac * 30.0).round() as usize);
        let _ = writeln!(
            out,
            "  {:<13} {n:>8}  {:>5.1}%  {bar}",
            cause.name(),
            100.0 * frac
        );
    }

    // Per-row occupancy: how each row's architectural steps divide.
    #[derive(Default, Clone, Copy)]
    struct RowOcc {
        issues: u64,
        steps: u64,
        waits: u64,
        stalled: u64,
    }
    let mut occ = vec![RowOcc::default(); rows];
    for ev in events {
        match *ev {
            TraceEvent::Issue { row, .. } => occ[row].issues += 1,
            TraceEvent::Step { row, .. } => occ[row].steps += 1,
            TraceEvent::Wait {
                row, len, cause, ..
            } => {
                occ[row].waits += len;
                if cause.is_some() {
                    occ[row].stalled += len;
                }
            }
            _ => {}
        }
    }
    let _ = writeln!(out, "\nrow occupancy (% of {} cycles):", cycles);
    let _ = writeln!(out, "  row   issue   step   stall    idle     off");
    for (r, o) in occ.iter().enumerate() {
        let pct = |n: u64| 100.0 * n as f64 / cycles as f64;
        let live = o.issues + o.steps + o.waits;
        let _ = writeln!(
            out,
            "  {r:>3}  {:>5.1}%  {:>5.1}%  {:>5.1}%  {:>5.1}%  {:>5.1}%",
            pct(o.issues),
            pct(o.steps),
            pct(o.stalled),
            pct(o.waits - o.stalled),
            pct(cycles.saturating_sub(live)),
        );
    }

    // Active-PE timeline: commit density per bucket.
    let buckets = 20u64.min(cycles).max(1);
    let width = cycles.div_ceil(buckets);
    let mut commits = vec![0u64; buckets as usize];
    for ev in events {
        if let TraceEvent::Issue { cycle, .. } = *ev {
            for t in commit_cycles(cycle, cols, report.cycles) {
                commits[(t / width).min(buckets - 1) as usize] += 1;
            }
        }
    }
    let pes = (rows * cols).max(1) as u64;
    let _ = writeln!(
        out,
        "\nactive-PE timeline ({} buckets x {} cycles, commits / PE-cycle):",
        buckets, width
    );
    for (b, &n) in commits.iter().enumerate() {
        let lo = b as u64 * width;
        let hi = ((b as u64 + 1) * width).min(cycles);
        if hi <= lo {
            // `div_ceil` can leave an empty tail bucket past the last cycle.
            continue;
        }
        let denom = (hi - lo) * pes;
        let util = n as f64 / denom.max(1) as f64;
        let bar = "#".repeat((util * 40.0).round() as usize);
        let _ = writeln!(out, "  [{lo:>6}..{hi:>6})  {:>5.1}%  {bar}", 100.0 * util);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink_pair() -> (VecSink, Box<dyn TraceSink>) {
        let s = VecSink::default();
        let b: Box<dyn TraceSink> = Box::new(s.clone());
        (s, b)
    }

    #[test]
    fn wait_spans_coalesce_and_flush_on_discontinuity() {
        let (buf, sink) = sink_pair();
        let mut rec = TraceRecorder::new(sink, 2, 2, 0, 0);
        let wait = OrchAction::stall(3, StallCause::Credit);
        rec.on_orch_step(10, 0, &wait);
        rec.on_orch_step(11, 0, &wait);
        // A gap (cycle 12 missing) starts a new span.
        rec.on_orch_step(13, 0, &wait);
        rec.on_orch_step(14, 0, &wait);
        // A different cause flushes the span.
        rec.on_orch_step(15, 0, &OrchAction::stall(3, StallCause::MsgSlot));
        rec.finish(20, 0, 0);
        let evs = buf.take_events();
        let waits: Vec<_> = evs
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Wait {
                    from, len, cause, ..
                } => Some((from, len, cause)),
                _ => None,
            })
            .collect();
        assert_eq!(
            waits,
            vec![
                (10, 2, Some(StallCause::Credit)),
                (13, 2, Some(StallCause::Credit)),
                (15, 1, Some(StallCause::MsgSlot)),
            ]
        );
    }

    #[test]
    fn issue_cost_matches_known_shapes() {
        // SpMM MAC: MacS Imm, DataMem -> Spad = dmem_r + spad_r + spad_w.
        let mac = Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(3), Addr::Spad(1));
        assert_eq!(
            issue_cost(&mac),
            IssueCost {
                dmem_reads: 1,
                spad_reads: 1,
                spad_writes: 1,
                ..IssueCost::default()
            }
        );
        // GEMM MAC into a register: one dmem read only.
        let reg = Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(0), Addr::Reg(0));
        assert_eq!(
            issue_cost(&reg),
            IssueCost {
                dmem_reads: 1,
                ..IssueCost::default()
            }
        );
        // Flush from spad to the south port: read + flush-clear write, and
        // one push.
        let flush = Instruction::new(
            Opcode::MovFlush,
            Addr::Spad(0),
            Addr::Null,
            Addr::Port(Direction::South),
        );
        assert_eq!(
            issue_cost(&flush),
            IssueCost {
                spad_reads: 1,
                spad_writes: 1,
                noc_pushes: 1,
                ..IssueCost::default()
            }
        );
        // A routed NOP moves data but touches no memory.
        let nop = Instruction::new(Opcode::Nop, Addr::Null, Addr::Null, Addr::Null)
            .with_route(Direction::North, Direction::South);
        assert_eq!(
            issue_cost(&nop),
            IssueCost {
                noc_pushes: 1,
                ..IssueCost::default()
            }
        );
    }

    #[test]
    fn derived_commits_follow_the_stagger_and_stop_at_the_footer() {
        assert_eq!(
            commit_cycles(5, 4, 100).collect::<Vec<_>>(),
            [7, 10, 13, 16]
        );
        assert_eq!(commit_cycles(5, 4, 13).collect::<Vec<_>>(), [7, 10]);
        assert_eq!(commit_cycles(5, 4, 7).count(), 0);
    }

    #[test]
    fn chrome_export_is_valid_json_shape() {
        let (buf, sink) = sink_pair();
        let mut rec = TraceRecorder::new(sink, 1, 2, 0, 0);
        let issue = OrchAction::issue(
            Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(0), Addr::Spad(0)),
            0,
        )
        .take_input();
        rec.on_orch_step(0, 0, &issue);
        rec.end_of_cycle(0, 1, 8, 0);
        rec.on_orch_step(1, 0, &OrchAction::stall(0, StallCause::Credit));
        rec.on_collected(
            Direction::South,
            &[CollectedEntry {
                tag: 3,
                lane: 1,
                value: crate::isa::Vector::ZERO,
                cycle: 4,
            }],
        );
        // Column 1 would commit at cycle 5, past the footer.
        rec.finish(5, 0, 0);
        let mut out = Vec::new();
        write_chrome_trace(&buf.take_events(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"name\":\"MacS\""));
        assert!(text.contains("\"name\":\"credit\""));
        assert_eq!(text.matches("\"cat\":\"commit\"").count(), 1);
        assert!(text.contains("\"name\":\"noc_hops\",\"ts\":0,\"args\":{\"hops\":1}"));
        assert!(text.contains("\"name\":\"emit\""));
        assert!(!text.contains(",,"), "no empty array items");
    }

    #[test]
    fn replay_of_synthetic_stream_counts_everything_once() {
        // A MAC that also routes one entry south: one push per column.
        let instr = Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(0), Addr::Spad(0))
            .with_route(Direction::North, Direction::South);
        let events = vec![
            TraceEvent::RunBegin {
                rows: 1,
                cols: 2,
                offchip_read_base: 4,
                offchip_write_base: 0,
            },
            TraceEvent::Issue {
                cycle: 0,
                row: 0,
                state: 0,
                instr,
                consumed_input: true,
                consumed_msg: false,
                sent_msg: true,
                stall: None,
            },
            TraceEvent::Wait {
                row: 0,
                from: 1,
                len: 3,
                state: 1,
                cause: Some(StallCause::Credit),
            },
            TraceEvent::OffchipBurst {
                cycle: 2,
                read_bytes: 8,
                write_bytes: 4,
                feeder_tokens: 1,
            },
            TraceEvent::RunEnd {
                cycles: 4,
                active_pe_cycles: 6,
                batched_pe_cycles: 3,
            },
        ];
        let report = replay_stats(&events);
        let s = &report.stats;
        assert_eq!(report.cycles, 4);
        assert_eq!(report.pes, 2);
        assert_eq!(s.orch_steps, 4);
        assert_eq!(s.instrs_executed, 8); // 4 steps x 2 cols
        assert_eq!(s.mac_instrs, 2);
        assert_eq!(s.dmem_reads, 2);
        assert_eq!(s.spad_reads, 2);
        assert_eq!(s.spad_writes, 2);
        assert_eq!(s.meta_tokens, 1);
        assert_eq!(s.orch_messages, 1);
        assert_eq!(s.stall_cycles, 3);
        assert_eq!(s.stall_breakdown.credit, 3);
        assert_eq!(s.stall_breakdown.total(), s.stall_cycles);
        assert_eq!(s.orch_transitions, 1); // state 0 -> 1
        assert_eq!(s.noc_hops, 3); // 1 push x 2 cols + 1 feeder token
        assert_eq!(s.offchip_read_bytes, 12);
        assert_eq!(s.offchip_write_bytes, 4);
        assert_eq!(s.active_pe_cycles, 6);
        assert_eq!(s.batched_pe_cycles, 3);
    }
}
