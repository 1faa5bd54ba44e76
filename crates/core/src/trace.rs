//! Cycle-accurate tracing and stall attribution for the Canon fabric.
//!
//! ## Architecture
//!
//! A [`TraceSink`] attached via `Fabric::set_trace_sink` receives a stream
//! of cycle-stamped [`TraceEvent`]s recorded by a [`TraceRecorder`] that the
//! fabric drives from every engine layer: orchestrator FSM decisions
//! (instruction issues, bubble steps, coalesced wait spans with their
//! [`StallCause`]), PE commits, NoC link hops, off-chip bursts, collector
//! emits.
//! When no sink is attached the fabric's hot loops pay one untaken branch —
//! the `repro bench --check` alloc/throughput gates pin that the trace-off
//! engine is unchanged.
//!
//! ## Exactness
//!
//! The event stream is **architecturally complete**: [`replay_stats`]
//! reconstructs the run's full [`Stats`] — including the per-cause stall
//! breakdown summing to `stall_cycles` — byte-for-byte from the events
//! alone, provided the sink was attached before the first cycle.
//!
//! ## Consumers
//!
//! * [`write_chrome_trace`] emits Chrome trace-event JSON loadable in
//!   [Perfetto](https://ui.perfetto.dev) — one track per orchestrator row
//!   (issues, steps, stall spans colored by cause) and one per PE column
//!   (commits), plus NoC/off-chip counter tracks.
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
//! fabric.take_trace_sink(); // flush pending spans + RunEnd footer
//! let events = sink.take_events();
//! ```

use crate::isa::{Direction, InstrHandle, Instruction, Opcode};
use crate::noc::LinkGrid;
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
    /// Stream header: geometry plus counter bases at attach time (all zero
    /// when the sink is attached before the first cycle).
    RunBegin {
        /// Orchestrator row count.
        rows: usize,
        /// PE column count.
        cols: usize,
        /// NoC pushes already counted when the sink attached.
        noc_base: u64,
        /// Off-chip read bytes already accounted when the sink attached.
        offchip_read_base: u64,
        /// Off-chip write bytes already accounted when the sink attached.
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
        /// Ring handle (correlates with [`TraceEvent::Commit`]).
        handle: InstrHandle,
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
    /// A real instruction retiring from a PE.
    Commit {
        /// Commit cycle.
        cycle: u64,
        /// PE row.
        row: usize,
        /// PE column.
        col: usize,
        /// Ring handle (correlates with [`TraceEvent::Issue`]).
        handle: InstrHandle,
        /// Decoded op kind.
        op: Opcode,
    },
    /// `count` pushes traversed one NoC link this cycle.
    NocHop {
        /// Cycle.
        cycle: u64,
        /// True for a southbound (vertical) link, false for eastbound.
        vertical: bool,
        /// Link row (see [`LinkGrid`] indexing).
        row: usize,
        /// Link column.
        col: usize,
        /// Pushes on this link this cycle.
        count: u64,
    },
    /// Off-chip traffic accounted this cycle (deltas, not totals).
    OffchipBurst {
        /// Cycle.
        cycle: u64,
        /// Bytes read from off-chip this cycle.
        read_bytes: u64,
        /// Bytes written off-chip this cycle.
        write_bytes: u64,
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
        /// Cycles simulated while the sink was attached (final cycle count).
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
    /// FSM and its assembled LUT twin, emit the same architectural stream.
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
/// spans, and diffs NoC/off-chip counters per cycle. Constructed by
/// `Fabric::set_trace_sink`; every method is a hook called from one engine
/// layer.
pub struct TraceRecorder {
    sink: Box<dyn TraceSink>,
    pending: Vec<Option<PendingWait>>,
    last_pushes: Vec<u64>,
    last_offchip_read: u64,
    last_offchip_write: u64,
}

impl TraceRecorder {
    /// Creates a recorder and emits the [`TraceEvent::RunBegin`] header,
    /// snapshotting the counter bases so mid-run attachment stays
    /// well-defined.
    pub fn new(
        sink: Box<dyn TraceSink>,
        rows: usize,
        cols: usize,
        grid: &LinkGrid,
        offchip_read: u64,
        offchip_write: u64,
    ) -> TraceRecorder {
        let mut last_pushes = Vec::with_capacity(grid.link_count());
        grid.for_each_push_count(|_, _, _, pushes| last_pushes.push(pushes));
        let mut rec = TraceRecorder {
            sink,
            pending: (0..rows).map(|_| None).collect(),
            last_pushes,
            last_offchip_read: offchip_read,
            last_offchip_write: offchip_write,
        };
        rec.sink.record(&TraceEvent::RunBegin {
            rows,
            cols,
            noc_base: grid.total_pushes(),
            offchip_read_base: offchip_read,
            offchip_write_base: offchip_write,
        });
        rec
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

    /// Records one orchestrator step. `handle` is `Some` exactly when the
    /// action issued a real (non-bubble) instruction. Pure waits — bubble,
    /// no consumes, no message — coalesce into a pending [`TraceEvent::Wait`]
    /// span that is flushed lazily at the row's next non-wait event.
    pub fn on_orch_step(
        &mut self,
        cycle: u64,
        row: usize,
        action: &OrchAction,
        handle: Option<InstrHandle>,
    ) {
        let consumed_input = action.consumes_input();
        let consumed_msg = action.consumes_msg();
        let sent_msg = action.msg_out().is_some();
        let stall = action.stall_cause();
        if handle.is_none() && !consumed_input && !consumed_msg && !sent_msg {
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
        let ev = match handle {
            Some(h) => TraceEvent::Issue {
                cycle,
                row,
                state: action.state_id,
                handle: h,
                instr: action.instr,
                consumed_input,
                consumed_msg,
                sent_msg,
                stall,
            },
            None => TraceEvent::Step {
                cycle,
                row,
                state: action.state_id,
                consumed_input,
                consumed_msg,
                sent_msg,
                stall,
            },
        };
        self.sink.record(&ev);
    }

    /// Records a real instruction retiring from PE `(row, col)`.
    pub fn on_commit(
        &mut self,
        cycle: u64,
        row: usize,
        col: usize,
        handle: InstrHandle,
        op: Opcode,
    ) {
        self.sink.record(&TraceEvent::Commit {
            cycle,
            row,
            col,
            handle,
            op,
        });
    }

    /// Records a collector emit.
    pub fn on_collect(&mut self, cycle: u64, edge: Direction, lane: usize, tag: u32) {
        self.sink.record(&TraceEvent::CollectorEmit {
            cycle,
            edge,
            lane,
            tag,
        });
    }

    /// End-of-cycle scan: diffs every link's push counter against the last
    /// scan (emitting per-link [`TraceEvent::NocHop`]s in the fixed
    /// [`LinkGrid::for_each_push_count`] order) and the off-chip byte
    /// counters (emitting one [`TraceEvent::OffchipBurst`]).
    pub fn end_of_cycle(
        &mut self,
        cycle: u64,
        grid: &LinkGrid,
        offchip_read: u64,
        offchip_write: u64,
    ) {
        let last = &mut self.last_pushes;
        let sink = &mut self.sink;
        let mut i = 0usize;
        grid.for_each_push_count(|vertical, row, col, pushes| {
            let delta = pushes - last[i];
            if delta > 0 {
                last[i] = pushes;
                sink.record(&TraceEvent::NocHop {
                    cycle,
                    vertical,
                    row,
                    col,
                    count: delta,
                });
            }
            i += 1;
        });
        self.scan_offchip(cycle, offchip_read, offchip_write);
    }

    fn scan_offchip(&mut self, cycle: u64, offchip_read: u64, offchip_write: u64) {
        if offchip_read != self.last_offchip_read || offchip_write != self.last_offchip_write {
            self.sink.record(&TraceEvent::OffchipBurst {
                cycle,
                read_bytes: offchip_read - self.last_offchip_read,
                write_bytes: offchip_write - self.last_offchip_write,
            });
            self.last_offchip_read = offchip_read;
            self.last_offchip_write = offchip_write;
        }
    }

    /// Closes the stream: emits any off-chip tail, flushes every pending
    /// wait span, and records the [`TraceEvent::RunEnd`] footer.
    pub fn finish(
        &mut self,
        cycles: u64,
        offchip_read: u64,
        offchip_write: u64,
        active_pe_cycles: u64,
        batched_pe_cycles: u64,
    ) {
        self.scan_offchip(cycles, offchip_read, offchip_write);
        for row in 0..self.pending.len() {
            self.flush_wait(row);
        }
        self.sink.record(&TraceEvent::RunEnd {
            cycles,
            active_pe_cycles,
            batched_pe_cycles,
        });
    }

    /// Releases the sink (detach).
    pub fn into_sink(self) -> Box<dyn TraceSink> {
        self.sink
    }
}

/// Per-execution memory activity of one instruction — a pure function of
/// the instruction, mirroring the PE's LOAD/COMMIT accounting exactly
/// (operand reads are counted before store-to-load forwarding, so the
/// counts do not depend on pipeline state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemProfile {
    /// Data-memory reads.
    pub dmem_reads: u64,
    /// Data-memory writes.
    pub dmem_writes: u64,
    /// Scratchpad reads.
    pub spad_reads: u64,
    /// Scratchpad writes.
    pub spad_writes: u64,
}

/// The memory activity one execution of `instr` performs on a PE. Replay
/// multiplies by the column count (every column of a row executes each
/// issue once).
pub fn issue_cost(instr: &Instruction) -> MemProfile {
    use crate::isa::Addr;
    let mut p = MemProfile::default();
    if instr.is_plain_nop() {
        return p;
    }
    let read = |a: Addr, p: &mut MemProfile| match a {
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
            _ => {}
        }
    }
    // Flush-clear of the op1 source (register clears are not mem traffic).
    if matches!(instr.op, Opcode::MovFlush | Opcode::AddFlush) {
        if let Addr::Spad(_) = instr.op1 {
            p.spad_writes += 1;
        }
    }
    p
}

/// Reconstructs the run's [`RunReport`] from a captured event stream.
///
/// With the sink attached before the first cycle, the result equals
/// `fabric.report()` byte-for-byte (`wall_ns` excepted — host time is not
/// an architectural quantity and does not participate in `RunReport`
/// equality).
pub fn replay_stats(events: &[TraceEvent]) -> RunReport {
    let mut stats = Stats::new();
    let mut rows = 0usize;
    let mut cols = 0u64;
    let mut cycles = 0u64;
    let mut orch_steps = 0u64;
    let mut last_state: Vec<Option<u8>> = Vec::new();
    let step_state = |last: &mut Vec<Option<u8>>, row: usize, state: u8, transitions: &mut u64| {
        if last[row] != Some(state) {
            if last[row].is_some() {
                *transitions += 1;
            }
            last[row] = Some(state);
        }
    };
    for ev in events {
        match *ev {
            TraceEvent::RunBegin {
                rows: r,
                cols: c,
                noc_base,
                offchip_read_base,
                offchip_write_base,
            } => {
                rows = r;
                cols = c as u64;
                last_state = vec![None; r];
                stats.noc_hops = noc_base;
                stats.offchip_read_bytes = offchip_read_base;
                stats.offchip_write_bytes = offchip_write_base;
            }
            TraceEvent::Issue {
                row,
                state,
                instr,
                consumed_input,
                consumed_msg: _,
                sent_msg,
                stall,
                ..
            } => {
                orch_steps += 1;
                step_state(&mut last_state, row, state, &mut stats.orch_transitions);
                stats.meta_tokens += consumed_input as u64;
                stats.orch_messages += sent_msg as u64;
                if let Some(cause) = stall {
                    stats.stall_cycles += 1;
                    stats.stall_breakdown.add(cause, 1);
                }
                if instr.op.is_compute() {
                    stats.compute_instrs += cols;
                }
                if instr.op.is_mac() {
                    stats.mac_instrs += cols;
                }
                let cost = issue_cost(&instr);
                stats.dmem_reads += cost.dmem_reads * cols;
                stats.dmem_writes += cost.dmem_writes * cols;
                stats.spad_reads += cost.spad_reads * cols;
                stats.spad_writes += cost.spad_writes * cols;
            }
            TraceEvent::Step {
                row,
                state,
                consumed_input,
                sent_msg,
                stall,
                ..
            } => {
                orch_steps += 1;
                step_state(&mut last_state, row, state, &mut stats.orch_transitions);
                stats.meta_tokens += consumed_input as u64;
                stats.orch_messages += sent_msg as u64;
                if let Some(cause) = stall {
                    stats.stall_cycles += 1;
                    stats.stall_breakdown.add(cause, 1);
                }
            }
            TraceEvent::Wait {
                row,
                len,
                state,
                cause,
                ..
            } => {
                orch_steps += len;
                step_state(&mut last_state, row, state, &mut stats.orch_transitions);
                if let Some(cause) = cause {
                    stats.stall_cycles += len;
                    stats.stall_breakdown.add(cause, len);
                }
            }
            TraceEvent::NocHop { count, .. } => stats.noc_hops += count,
            TraceEvent::OffchipBurst {
                read_bytes,
                write_bytes,
                ..
            } => {
                stats.offchip_read_bytes += read_bytes;
                stats.offchip_write_bytes += write_bytes;
            }
            TraceEvent::Commit { .. } | TraceEvent::CollectorEmit { .. } => {}
            TraceEvent::RunEnd {
                cycles: c,
                active_pe_cycles,
                batched_pe_cycles,
            } => {
                cycles = c;
                stats.active_pe_cycles = active_pe_cycles;
                stats.batched_pe_cycles = batched_pe_cycles;
            }
        }
    }
    // Every orchestrator step clocks one instruction latch into each column
    // of its row — a real issue marches through `cols` PEs, an elided bubble
    // is credited `cols` latches.
    stats.orch_steps = orch_steps;
    stats.instrs_executed = orch_steps * cols;
    RunReport {
        cycles,
        pes: rows * cols as usize,
        stats,
        wall_ns: 0,
        engine: crate::stats::Engine::Scalar,
    }
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
/// per row: issues, steps, wait spans colored by stall cause), pid 2 = PE columns (one thread per column: commits), pid 3 =
/// collectors, plus `noc_hops` / `offchip` counter tracks. Cycle stamps map
/// 1:1 to trace microseconds.
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
    // Metadata tracks from the header event.
    for ev in events {
        if let TraceEvent::RunBegin { rows, cols, .. } = *ev {
            item!("{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"orchestrator rows\"}}}}");
            item!("{{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{{\"name\":\"PE columns\"}}}}");
            item!("{{\"ph\":\"M\",\"pid\":3,\"name\":\"process_name\",\"args\":{{\"name\":\"collectors\"}}}}");
            for r in 0..rows {
                item!("{{\"ph\":\"M\",\"pid\":1,\"tid\":{r},\"name\":\"thread_name\",\"args\":{{\"name\":\"row {r}\"}}}}");
            }
            for c in 0..cols {
                item!("{{\"ph\":\"M\",\"pid\":2,\"tid\":{c},\"name\":\"thread_name\",\"args\":{{\"name\":\"col {c}\"}}}}");
            }
            item!("{{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"thread_name\",\"args\":{{\"name\":\"south\"}}}}");
            item!("{{\"ph\":\"M\",\"pid\":3,\"tid\":1,\"name\":\"thread_name\",\"args\":{{\"name\":\"east\"}}}}");
            break;
        }
    }
    // Per-cycle NoC hop totals fold into one counter track.
    let mut noc_counter: Option<(u64, u64)> = None;
    for ev in events {
        if let Some((cycle, total)) = noc_counter {
            let same = matches!(*ev, TraceEvent::NocHop { cycle: c, .. } if c == cycle);
            if !same {
                item!("{{\"ph\":\"C\",\"pid\":1,\"name\":\"noc_hops\",\"ts\":{cycle},\"args\":{{\"hops\":{total}}}}}");
                noc_counter = None;
            }
        }
        match *ev {
            TraceEvent::RunBegin { .. } => {}
            TraceEvent::Issue {
                cycle,
                row,
                state,
                handle,
                instr,
                ..
            } => {
                item!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{row},\"ts\":{cycle},\"dur\":1,\"name\":\"{:?}\",\"cat\":\"issue\",\"cname\":\"good\",\"args\":{{\"handle\":{},\"tag\":{},\"state\":{state}}}}}",
                    instr.op,
                    handle.id(),
                    instr.tag
                );
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
            TraceEvent::Commit {
                cycle,
                row,
                col,
                handle,
                op,
            } => {
                item!(
                    "{{\"ph\":\"X\",\"pid\":2,\"tid\":{col},\"ts\":{cycle},\"dur\":1,\"name\":\"{op:?}\",\"cat\":\"commit\",\"args\":{{\"row\":{row},\"handle\":{}}}}}",
                    handle.id()
                );
            }
            TraceEvent::NocHop { cycle, count, .. } => {
                noc_counter = Some(match noc_counter {
                    Some((c, t)) if c == cycle => (c, t + count),
                    _ => (cycle, count),
                });
            }
            TraceEvent::OffchipBurst {
                cycle,
                read_bytes,
                write_bytes,
            } => {
                item!(
                    "{{\"ph\":\"C\",\"pid\":1,\"name\":\"offchip_bytes\",\"ts\":{cycle},\"args\":{{\"read\":{read_bytes},\"write\":{write_bytes}}}}}"
                );
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
            TraceEvent::RunEnd { .. } => {}
        }
    }
    if let Some((cycle, total)) = noc_counter {
        item!("{{\"ph\":\"C\",\"pid\":1,\"name\":\"noc_hops\",\"ts\":{cycle},\"args\":{{\"hops\":{total}}}}}");
    }
    write!(w, "\n]}}")?;
    use std::io::Write as _;
    out.flush()
}

/// Renders the textual profile: header, top stall causes, per-row occupancy
/// histogram, and active-PE timeline buckets.
pub fn render_profile(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let report = replay_stats(events);
    let (mut rows, mut cols) = (0usize, 0usize);
    for ev in events {
        if let TraceEvent::RunBegin {
            rows: r, cols: c, ..
        } = *ev
        {
            rows = r;
            cols = c;
        }
    }
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
        if let TraceEvent::Commit { cycle, .. } = *ev {
            let b = (cycle / width).min(buckets - 1) as usize;
            commits[b] += 1;
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
    use crate::isa::Addr;

    fn sink_pair() -> (VecSink, Box<dyn TraceSink>) {
        let s = VecSink::default();
        let b: Box<dyn TraceSink> = Box::new(s.clone());
        (s, b)
    }

    #[test]
    fn wait_spans_coalesce_and_flush_on_discontinuity() {
        let grid = LinkGrid::new(2, 2, 4, false);
        let (buf, sink) = sink_pair();
        let mut rec = TraceRecorder::new(sink, 2, 2, &grid, 0, 0);
        let wait = OrchAction::stall(3, StallCause::Credit);
        rec.on_orch_step(10, 0, &wait, None);
        rec.on_orch_step(11, 0, &wait, None);
        // A gap (cycle 12 missing) starts a new span.
        rec.on_orch_step(13, 0, &wait, None);
        rec.on_orch_step(14, 0, &wait, None);
        // A different cause flushes the span.
        rec.on_orch_step(15, 0, &OrchAction::stall(3, StallCause::MsgSlot), None);
        rec.finish(20, 0, 0, 0, 0);
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
            MemProfile {
                dmem_reads: 1,
                spad_reads: 1,
                spad_writes: 1,
                dmem_writes: 0
            }
        );
        // GEMM MAC into a register: one dmem read only.
        let reg = Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(0), Addr::Reg(0));
        assert_eq!(
            issue_cost(&reg),
            MemProfile {
                dmem_reads: 1,
                ..MemProfile::default()
            }
        );
        // Flush from spad to the south port: read + flush-clear write.
        let flush = Instruction::new(
            Opcode::MovFlush,
            Addr::Spad(0),
            Addr::Null,
            Addr::Port(Direction::South),
        );
        assert_eq!(
            issue_cost(&flush),
            MemProfile {
                spad_reads: 1,
                spad_writes: 1,
                ..MemProfile::default()
            }
        );
        // A routed NOP moves data but touches no memory.
        let nop = Instruction::new(Opcode::Nop, Addr::Null, Addr::Null, Addr::Null)
            .with_route(Direction::North, Direction::South);
        assert_eq!(issue_cost(&nop), MemProfile::default());
    }

    #[test]
    fn chrome_export_is_valid_json_shape() {
        let grid = LinkGrid::new(1, 1, 4, false);
        let (buf, sink) = sink_pair();
        let mut rec = TraceRecorder::new(sink, 1, 1, &grid, 0, 0);
        let issue = OrchAction::issue(
            Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(0), Addr::Spad(0)),
            0,
        )
        .take_input();
        rec.on_orch_step(0, 0, &issue, Some(InstrHandle::default()));
        rec.on_orch_step(1, 0, &OrchAction::stall(0, StallCause::Credit), None);
        rec.finish(2, 8, 0, 0, 0);
        let mut out = Vec::new();
        write_chrome_trace(&buf.take_events(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"name\":\"MacS\""));
        assert!(text.contains("\"name\":\"credit\""));
        assert!(!text.contains(",,"), "no empty array items");
    }

    #[test]
    fn replay_of_synthetic_stream_counts_everything_once() {
        let instr = Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(0), Addr::Spad(0));
        let events = vec![
            TraceEvent::RunBegin {
                rows: 1,
                cols: 2,
                noc_base: 0,
                offchip_read_base: 4,
                offchip_write_base: 0,
            },
            TraceEvent::Issue {
                cycle: 0,
                row: 0,
                state: 0,
                handle: InstrHandle::default(),
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
            TraceEvent::NocHop {
                cycle: 1,
                vertical: true,
                row: 1,
                col: 0,
                count: 2,
            },
            TraceEvent::OffchipBurst {
                cycle: 2,
                read_bytes: 8,
                write_bytes: 4,
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
        assert_eq!(s.noc_hops, 2);
        assert_eq!(s.offchip_read_bytes, 12);
        assert_eq!(s.offchip_write_bytes, 4);
        assert_eq!(s.active_pe_cycles, 6);
        assert_eq!(s.batched_pe_cycles, 3);
    }
}
