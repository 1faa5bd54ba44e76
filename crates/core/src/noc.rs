//! The dynamically-managed circuit-switched NoC (§2.1–§2.2).
//!
//! Canon's inter-PE links are circuit-switched and carry no runtime flow
//! control *inside* the array: thanks to the deterministic staggered timing,
//! the orchestrators manage congestion externally via credits and embed the
//! switching decisions in the instruction stream. The simulator models each
//! link as a small tagged FIFO; the orchestrator-level credit protocol (see
//! [`crate::fabric`]) guarantees the FIFOs never overflow, and the simulator
//! *checks* that guarantee instead of silently providing elastic buffering.
//!
//! ## Hot-path discipline
//!
//! [`Link::push`] and [`Link::pop`] sit on the simulator's innermost loop
//! (every NoC transfer of every cycle), so they are allocation-free on
//! success: error context arrives as a copyable [`ErrCtx`] descriptor that
//! is rendered to a string only when a protocol error actually fires, and
//! the FIFO itself is a fixed-capacity ring buffer (`Ring`) — bounded
//! links never reallocate (the credit protocol proves their occupancy
//! bound), while sink/elastic links grow to their high-water mark once and
//! then stay allocation-free.

use crate::fabric::CollectedEntry;
use crate::isa::{Direction, Vector, LANES};
use crate::SimError;
use std::collections::VecDeque;

/// A NoC payload: one [`Vector`] plus the output-row tag attached by the
/// producing instruction (used by the edge collectors, preserved by
/// pass-through routes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedVector {
    /// Payload.
    pub value: Vector,
    /// Producer-attached tag (output row id / linear output index).
    pub tag: u32,
}

impl TaggedVector {
    /// The zero payload with tag 0 (what array-edge reads return).
    pub const ZERO: TaggedVector = TaggedVector {
        value: Vector([0; LANES]),
        tag: 0,
    };
}

/// Lazily-rendered context of a NoC protocol error.
///
/// The success path of [`Link::push`]/[`Link::pop`] only copies this enum;
/// the describing string is built (via [`std::fmt::Display`]) exclusively on
/// the error path — eager `format!` arguments here used to dominate the
/// simulator's steady-state allocation traffic.
#[derive(Debug, Clone, Copy)]
pub enum ErrCtx {
    /// A static label (edge feeders, collectors, tests).
    Label(&'static str),
    /// A pop of PE `(r, c)`'s port facing `dir`.
    Pop {
        /// Port direction.
        dir: Direction,
        /// PE coordinates `(row, col)`.
        pe: (usize, usize),
    },
    /// A push out of PE `(r, c)` towards `dir`.
    Push {
        /// Port direction.
        dir: Direction,
        /// PE coordinates `(row, col)`.
        pe: (usize, usize),
    },
}

impl From<&'static str> for ErrCtx {
    fn from(label: &'static str) -> ErrCtx {
        ErrCtx::Label(label)
    }
}

impl std::fmt::Display for ErrCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrCtx::Label(s) => f.write_str(s),
            ErrCtx::Pop { dir, pe } => write!(f, "{dir} pop at PE ({}, {})", pe.0, pe.1),
            ErrCtx::Push { dir, pe } => write!(f, "{dir} push at PE ({}, {})", pe.0, pe.1),
        }
    }
}

/// A fixed-capacity ring buffer of [`TaggedVector`]s. Bounded links size it
/// once at construction; unbounded flavours (sinks, elastic links) grow it
/// by doubling, reaching their peak occupancy and then never allocating
/// again.
///
/// The backing storage is always a power of two so that the wrap-around is
/// a mask instead of a hardware division — push/pop run once per NoC
/// transfer of every simulated cycle.
#[derive(Debug, Clone)]
struct Ring {
    buf: Box<[TaggedVector]>,
    head: usize,
    len: usize,
}

impl Ring {
    fn with_capacity(cap: usize) -> Ring {
        let size = cap.next_power_of_two().max(1);
        Ring {
            buf: vec![TaggedVector::ZERO; size].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buf.len() - 1
    }

    fn is_full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// Doubles the backing storage, re-linearizing the queue.
    fn grow(&mut self) {
        let new_cap = (self.buf.len() * 2).max(8);
        let mut new_buf = vec![TaggedVector::ZERO; new_cap].into_boxed_slice();
        let mask = self.mask();
        for (i, slot) in new_buf.iter_mut().take(self.len).enumerate() {
            *slot = self.buf[(self.head + i) & mask];
        }
        self.buf = new_buf;
        self.head = 0;
    }

    #[inline]
    fn push_back(&mut self, entry: TaggedVector) {
        debug_assert!(!self.is_full(), "ring push past capacity");
        let idx = (self.head + self.len) & self.mask();
        self.buf[idx] = entry;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) -> Option<TaggedVector> {
        if self.len == 0 {
            return None;
        }
        let entry = self.buf[self.head];
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        Some(entry)
    }
}

/// One directed inter-PE link: a bounded FIFO of [`TaggedVector`]s.
///
/// Three flavours exist:
/// * internal links (bounded; overflow and underflow are protocol errors),
/// * zero-source edges (reads at the array boundary return zero — e.g. the
///   west input of column 0 in the SDDMM psum chain),
/// * sinks (south/east array edges; drained by the fabric's collectors every
///   cycle).
#[derive(Debug, Clone)]
pub struct Link {
    ring: Ring,
    capacity: usize,
    zero_source: bool,
    relaxed: bool,
    pushes: u64,
}

impl Link {
    /// Creates an internal bounded link. Its ring buffer is allocated once
    /// here; the credit protocol guarantees occupancy never exceeds
    /// `capacity`, so the link never allocates again.
    pub fn bounded(capacity: usize) -> Link {
        Link {
            ring: Ring::with_capacity(capacity),
            capacity,
            zero_source: false,
            relaxed: false,
            pushes: 0,
        }
    }

    /// Creates a zero-source edge link: pops always yield zero.
    pub fn zero_source() -> Link {
        Link {
            ring: Ring::with_capacity(0),
            capacity: 0,
            zero_source: true,
            relaxed: false,
            pushes: 0,
        }
    }

    /// Creates a sink link (drained externally; effectively unbounded, grown
    /// to its high-water mark so collector latency never back-pressures).
    pub fn sink() -> Link {
        Link {
            ring: Ring::with_capacity(0),
            capacity: usize::MAX,
            zero_source: false,
            relaxed: false,
            pushes: 0,
        }
    }

    /// Creates an elastic link for the static spatial execution mode
    /// (Appendix D): pops of an empty queue return zero instead of erroring
    /// (the compiler schedules warm-up cycles), and capacity is unbounded.
    pub fn elastic() -> Link {
        Link {
            ring: Ring::with_capacity(0),
            capacity: usize::MAX,
            zero_source: false,
            relaxed: true,
            pushes: 0,
        }
    }

    /// Pushes an entry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RouterConflict`]-style protocol errors when the
    /// credit discipline failed: pushing to a zero-source or over capacity.
    #[inline]
    pub fn push(
        &mut self,
        entry: TaggedVector,
        cycle: u64,
        ctx: impl Into<ErrCtx>,
    ) -> Result<(), SimError> {
        if self.zero_source {
            return Err(Self::push_zero_source(cycle, ctx.into()));
        }
        if self.ring.len >= self.capacity {
            return Err(Self::push_overflow(cycle, ctx.into()));
        }
        if self.ring.is_full() {
            // Only unbounded flavours reach here (bounded rings are sized to
            // `capacity`, which the check above enforces).
            self.ring.grow();
        }
        self.ring.push_back(entry);
        self.pushes += 1;
        Ok(())
    }

    #[cold]
    fn push_zero_source(cycle: u64, ctx: ErrCtx) -> SimError {
        SimError::AddressOutOfRange {
            context: format!("push to zero-source edge link at cycle {cycle} ({ctx})"),
        }
    }

    #[cold]
    fn push_overflow(cycle: u64, ctx: ErrCtx) -> SimError {
        SimError::Deadlock {
            cycle,
            waiting_on: format!("link overflow ({ctx}): credit protocol violated"),
        }
    }

    /// Pops the oldest entry.
    ///
    /// # Errors
    ///
    /// Popping an empty internal link is a protocol error (the FSM issued a
    /// consuming instruction before the producer delivered).
    #[inline]
    pub fn pop(&mut self, cycle: u64, ctx: impl Into<ErrCtx>) -> Result<TaggedVector, SimError> {
        if self.zero_source {
            return Ok(TaggedVector::ZERO);
        }
        match self.ring.pop_front() {
            Some(e) => Ok(e),
            None if self.relaxed => Ok(TaggedVector::ZERO),
            None => Err(Self::pop_underflow(cycle, ctx.into())),
        }
    }

    #[cold]
    fn pop_underflow(cycle: u64, ctx: ErrCtx) -> SimError {
        SimError::Deadlock {
            cycle,
            waiting_on: format!("pop of empty link ({ctx}): producer/consumer desynchronised"),
        }
    }

    /// Pops the oldest entry without protocol checks (`None` when empty or a
    /// zero source) — the edge collectors' drain primitive.
    #[inline]
    pub fn try_pop(&mut self) -> Option<TaggedVector> {
        if self.zero_source {
            return None;
        }
        self.ring.pop_front()
    }

    /// Current occupancy (always 0 for zero sources).
    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len
    }

    /// True when no entries are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// Total pushes observed (a NoC-hop counter).
    pub fn push_count(&self) -> u64 {
        self.pushes
    }

    /// Drains queued entries in FIFO order (used by the fabric's edge
    /// collectors and the spatial runner). Equivalent to looping
    /// [`Link::try_pop`] — no intermediate collection is built, and
    /// entries the caller does not consume (iterator dropped early) simply
    /// remain queued.
    pub fn drain_all(&mut self) -> impl Iterator<Item = TaggedVector> + '_ {
        std::iter::from_fn(move || self.try_pop())
    }

    /// Returns the link to its post-construction state for fabric reuse:
    /// queued entries dropped and the push counter zeroed, on every link
    /// flavour. Bounded links keep their credit-protocol-sized buffer;
    /// unbounded links keep their grown one — both architecturally
    /// invisible.
    pub fn clear(&mut self) {
        self.ring.head = 0;
        self.ring.len = 0;
        self.pushes = 0;
    }
}

/// The row-granular links of the column-lockstep engine (see
/// `crate::fabric`'s engine table): one FIFO per fabric row whose entries
/// are `cols` wide, because every column of a row sees the same push/pop
/// sequence as column 0, shifted by `3c` cycles, and so holds the same
/// occupancy at the same column-0 time. Row link `r` for `r` in `1..rows`
/// feeds row `r`'s North ports and carries the bounded-link protocol
/// checks. Row link 0 is the north edge: zeros on a zero-source fabric; on
/// a feeder fabric its `k`-th pop reads token `k` of every column's
/// stream, and its length is column 0's edge-FIFO occupancy, pushed by the
/// engine's feeder phase ([`RowLinks::push_north`]). Pushes out of the
/// bottom row land in the south-edge `sink`, stamped with each column's own
/// exit cycle (`cycle + 3c`); the West→East chain's exits from the last
/// column land in `east_sink`, stamped `cycle + 3·(cols − 1)`.
#[derive(Debug)]
pub(crate) struct RowLinks {
    rows: usize,
    cols: usize,
    capacity: usize,
    /// Ring storage: link `r` owns slots `r·capacity .. (r+1)·capacity`,
    /// each `cols` entries wide. Allocated by the first lockstep run
    /// ([`RowLinks::allocate`]), so fabrics that never take the engine do
    /// not pay for it.
    buf: Vec<TaggedVector>,
    head: Vec<usize>,
    len: Vec<usize>,
    /// Row-level pushes, edge sinks included (one per `cols` link pushes).
    pushes: u64,
    /// Whether row link 0 is a feeder FIFO (else a zero source).
    north_fed: bool,
    /// The north-edge streams token-major: token `k` of column `c` at
    /// `k·cols + c`.
    north: Vec<TaggedVector>,
    /// Row-0 pops so far (the index of the next north-edge token).
    north_popped: usize,
    /// South-edge exits in push order, each stamped with its own
    /// column's exit cycle (the fabric lends its south collector's storage
    /// for the run).
    pub(crate) sink: Vec<CollectedEntry>,
    /// East-edge exits in (cycle, row) order (the fabric lends its east
    /// collector's storage for the run).
    pub(crate) east_sink: Vec<CollectedEntry>,
    /// Scratch row for one south-edge push (reused).
    sink_row: Vec<TaggedVector>,
    /// Column-0 cycle of each row's last West pop (checks that every
    /// horizontal link holds at most one entry).
    last_west: Vec<Option<u64>>,
}

impl RowLinks {
    /// Empty links for a `rows`×`cols` array of `capacity`-deep FIFOs.
    pub(crate) fn new(rows: usize, cols: usize, capacity: usize) -> RowLinks {
        RowLinks {
            rows,
            cols,
            capacity,
            buf: Vec::new(),
            head: vec![0; rows],
            len: vec![0; rows],
            pushes: 0,
            north_fed: false,
            north: Vec::new(),
            north_popped: 0,
            sink: Vec::new(),
            east_sink: Vec::new(),
            sink_row: Vec::new(),
            last_west: vec![None; rows],
        }
    }

    /// Entries queued on row link `r` (the `north_tokens` observable).
    #[inline]
    pub(crate) fn len(&self, r: usize) -> usize {
        self.len[r]
    }

    /// Allocates the ring storage (a no-op once allocated).
    pub(crate) fn allocate(&mut self) {
        self.buf
            .resize(self.rows * self.capacity * self.cols, TaggedVector::ZERO);
    }

    /// Makes row link 0 a feeder FIFO over `streams` (one per column, all
    /// of equal length), empty until [`RowLinks::push_north`] fills it.
    pub(crate) fn feed_north(&mut self, streams: &[VecDeque<TaggedVector>]) {
        debug_assert_eq!(streams.len(), self.cols);
        self.north_fed = true;
        let tokens = streams.first().map_or(0, VecDeque::len);
        self.north.clear();
        self.north.reserve(tokens * self.cols);
        for k in 0..tokens {
            self.north.extend(streams.iter().map(|s| s[k]));
        }
    }

    /// One token lands on column 0's north-edge FIFO.
    pub(crate) fn push_north(&mut self) {
        debug_assert!(self.north_fed && self.len[0] < self.capacity);
        self.len[0] += 1;
    }

    /// Row-0 pops so far.
    pub(crate) fn north_popped(&self) -> usize {
        self.north_popped
    }

    /// Row-level pushes so far; every one stands for `cols` link pushes.
    pub(crate) fn pushes(&self) -> u64 {
        self.pushes
    }

    /// True when no row link holds entries and no push was counted.
    pub(crate) fn is_clear(&self) -> bool {
        self.pushes == 0
            && self.len.iter().all(|&l| l == 0)
            && self.sink.is_empty()
            && self.east_sink.is_empty()
            && !self.north_fed
            && self.north_popped == 0
            && self.last_west.iter().all(Option::is_none)
    }

    /// Drops every queued entry and the push count (fabric reuse).
    pub(crate) fn clear(&mut self) {
        self.head.fill(0);
        self.len.fill(0);
        self.pushes = 0;
        self.north_fed = false;
        self.north.clear();
        self.north_popped = 0;
        self.sink.clear();
        self.east_sink.clear();
        self.last_west.fill(None);
    }

    /// Pops the head entry of row link `r` into `dst` (`cols` wide): zeros
    /// on a zero-source north edge, a protocol error when a FIFO is empty.
    #[inline]
    pub(crate) fn pop(
        &mut self,
        r: usize,
        cycle: u64,
        ctx: ErrCtx,
        dst: &mut [TaggedVector],
    ) -> Result<(), SimError> {
        if r == 0 && !self.north_fed {
            dst.fill(TaggedVector::ZERO);
            return Ok(());
        }
        if self.len[r] == 0 {
            return Err(Link::pop_underflow(cycle, ctx));
        }
        if r == 0 {
            let at = self.north_popped * self.cols;
            dst.copy_from_slice(&self.north[at..at + self.cols]);
            self.north_popped += 1;
        } else {
            let at = (r * self.capacity + self.head[r]) * self.cols;
            dst.copy_from_slice(&self.buf[at..at + self.cols]);
            self.head[r] = (self.head[r] + 1) % self.capacity;
        }
        self.len[r] -= 1;
        Ok(())
    }

    /// Row `r`'s West pop of the chain issued at column-0 cycle `cycle`:
    /// each column pairs it with its west neighbour's East push of the same
    /// issue, which commits one cycle earlier in real time. Chain issues of
    /// one row are at least two cycles apart, so that push is the only
    /// entry on the horizontal link.
    #[inline]
    pub(crate) fn note_west_pop(&mut self, r: usize, cycle: u64) {
        debug_assert!(
            self.last_west[r].is_none_or(|t| t + 2 <= cycle),
            "row {r}: West pops at cycles {:?} and {cycle} would queue two entries",
            self.last_west[r]
        );
        self.last_west[r] = Some(cycle);
    }

    /// Pushes one `cols`-wide entry into row link `r` — the south sink when
    /// `r == rows`. `fill` writes the entry, column `c` at index `c`;
    /// `cycle` is the column-0 cycle of the push.
    #[inline]
    pub(crate) fn push(
        &mut self,
        r: usize,
        cycle: u64,
        ctx: ErrCtx,
        fill: impl FnOnce(&mut [TaggedVector]),
    ) -> Result<(), SimError> {
        if r == self.rows {
            let mut exits = std::mem::take(&mut self.sink_row);
            exits.resize(self.cols, TaggedVector::ZERO);
            fill(&mut exits);
            self.sink
                .extend(exits.iter().enumerate().map(|(c, e)| CollectedEntry {
                    tag: e.tag,
                    lane: c,
                    value: e.value,
                    cycle: cycle + 3 * c as u64,
                }));
            self.sink_row = exits;
        } else {
            if self.len[r] >= self.capacity {
                return Err(Link::push_overflow(cycle, ctx));
            }
            let slot = (self.head[r] + self.len[r]) % self.capacity;
            let at = (r * self.capacity + slot) * self.cols;
            fill(&mut self.buf[at..at + self.cols]);
            self.len[r] += 1;
        }
        self.pushes += 1;
        Ok(())
    }

    /// Row `r`'s chain push East at column-0 cycle `cycle`: the `cols − 1`
    /// internal pushes were consumed by the LOAD-time scan, so only the
    /// last column's `exit` reaches the east sink, at its own commit cycle.
    #[inline]
    pub(crate) fn push_east(&mut self, r: usize, cycle: u64, exit: TaggedVector) {
        self.east_sink.push(CollectedEntry {
            tag: exit.tag,
            lane: r,
            value: exit.value,
            cycle: cycle + 3 * (self.cols as u64 - 1),
        });
        self.pushes += 1;
    }
}

/// The full link fabric for a `rows`×`cols` array.
///
/// Indexing convention:
/// * `vertical(r, c)` for `r in 0..=rows` is the southbound link whose
///   consumer is PE `(r, c)`'s North port; `r == 0` is the north array edge
///   (feeder or zero source) and `r == rows` is the south edge sink.
/// * `horizontal(r, c)` for `c in 0..=cols` is the eastbound link whose
///   consumer is PE `(r, c)`'s West port; `c == 0` is the west edge (zero
///   source — west-edge operands travel as instruction immediates) and
///   `c == cols` is the east edge sink.
///
/// Only south/east-bound links are instantiated because every mapping in the
/// paper moves data south (psum reduction, A streaming) or east (SDDMM psum
/// chain); north/west movement would be a straightforward extension.
#[derive(Debug)]
pub struct LinkGrid {
    rows: usize,
    cols: usize,
    vertical: Vec<Link>,
    horizontal: Vec<Link>,
}

impl LinkGrid {
    /// Builds a grid for spatial mode (Appendix D): every internal link is
    /// elastic (pop-empty yields zero during warm-up), the north edge feeds,
    /// and the south/east edges sink.
    pub fn new_elastic(rows: usize, cols: usize) -> LinkGrid {
        let mut g = LinkGrid::new(rows, cols, 2, true);
        for r in 0..=rows {
            for c in 0..cols {
                let link = g.vertical(r, c);
                *link = if r == rows {
                    Link::sink()
                } else {
                    Link::elastic()
                };
            }
        }
        for r in 0..rows {
            for c in 0..=cols {
                let link = g.horizontal(r, c);
                *link = if c == cols {
                    Link::sink()
                } else if c == 0 {
                    Link::zero_source()
                } else {
                    Link::elastic()
                };
            }
        }
        g
    }

    /// Builds the grid. `north_edge_feeder` selects whether the north edge
    /// links are real FIFOs (fed by the fabric's stream movers, as in SDDMM)
    /// or zero sources (as in SpMM, where nothing enters from the north).
    pub fn new(rows: usize, cols: usize, capacity: usize, north_edge_feeder: bool) -> LinkGrid {
        let mut vertical = Vec::with_capacity((rows + 1) * cols);
        for r in 0..=rows {
            for _c in 0..cols {
                vertical.push(if r == 0 {
                    if north_edge_feeder {
                        Link::bounded(capacity)
                    } else {
                        Link::zero_source()
                    }
                } else if r == rows {
                    Link::sink()
                } else {
                    Link::bounded(capacity)
                });
            }
        }
        let mut horizontal = Vec::with_capacity(rows * (cols + 1));
        for _r in 0..rows {
            for c in 0..=cols {
                horizontal.push(if c == 0 {
                    Link::zero_source()
                } else if c == cols {
                    Link::sink()
                } else {
                    Link::bounded(capacity)
                });
            }
        }
        LinkGrid {
            rows,
            cols,
            vertical,
            horizontal,
        }
    }

    /// Southbound link consumed by PE `(r, c)`'s North port.
    pub fn vertical(&mut self, r: usize, c: usize) -> &mut Link {
        debug_assert!(r <= self.rows && c < self.cols);
        &mut self.vertical[r * self.cols + c]
    }

    /// Immutable access to a vertical link.
    pub fn vertical_ref(&self, r: usize, c: usize) -> &Link {
        &self.vertical[r * self.cols + c]
    }

    /// Eastbound link consumed by PE `(r, c)`'s West port.
    pub fn horizontal(&mut self, r: usize, c: usize) -> &mut Link {
        debug_assert!(r < self.rows && c <= self.cols);
        &mut self.horizontal[r * (self.cols + 1) + c]
    }

    /// Immutable access to a horizontal link.
    pub fn horizontal_ref(&self, r: usize, c: usize) -> &Link {
        &self.horizontal[r * (self.cols + 1) + c]
    }

    /// Total pushes across all links (NoC hop count).
    pub fn total_pushes(&self) -> u64 {
        self.vertical.iter().map(Link::push_count).sum::<u64>()
            + self.horizontal.iter().map(Link::push_count).sum::<u64>()
    }

    /// True when both input links of PE `(r, c)` — the southbound link into
    /// its North port and the eastbound link into its West port — are empty:
    /// the NoC half of the fabric's liveness rule.
    pub fn pe_inputs_empty(&self, r: usize, c: usize) -> bool {
        self.vertical_ref(r, c).is_empty() && self.horizontal_ref(r, c).is_empty()
    }

    /// [`Link::clear`] applied to every link: drops any queued entries and
    /// zeroes all push counters, returning the grid to its
    /// post-construction state (fabric reuse across warm-pool requests).
    pub fn clear_links(&mut self) {
        for l in &mut self.vertical {
            l.clear();
        }
        for l in &mut self.horizontal {
            l.clear();
        }
    }

    /// Total entries currently queued across all links (the reuse audit's
    /// "NoC is empty" check).
    pub fn total_queued(&self) -> usize {
        self.vertical
            .iter()
            .chain(self.horizontal.iter())
            .map(Link::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Vector;

    fn tv(tag: u32, v: i32) -> TaggedVector {
        TaggedVector {
            value: Vector::splat(v),
            tag,
        }
    }

    #[test]
    fn fifo_order_and_counts() {
        let mut l = Link::bounded(2);
        l.push(tv(1, 10), 0, "t").unwrap();
        l.push(tv(2, 20), 0, "t").unwrap();
        assert_eq!(l.len(), 2);
        assert_eq!(l.pop(1, "t").unwrap().tag, 1);
        assert_eq!(l.pop(1, "t").unwrap().tag, 2);
        assert_eq!(l.push_count(), 2);
    }

    #[test]
    fn ring_wraps_and_preserves_order() {
        // Fill/drain repeatedly so head wraps around the fixed buffer.
        let mut l = Link::bounded(3);
        for round in 0..10u32 {
            l.push(tv(round, 1), 0, "t").unwrap();
            l.push(tv(round + 100, 2), 0, "t").unwrap();
            assert_eq!(l.pop(0, "t").unwrap().tag, round);
            assert_eq!(l.pop(0, "t").unwrap().tag, round + 100);
        }
        assert!(l.is_empty());
    }

    #[test]
    fn overflow_and_underflow_are_errors() {
        let mut l = Link::bounded(1);
        l.push(tv(0, 0), 0, "t").unwrap();
        assert!(l.push(tv(0, 0), 0, "t").is_err());
        let mut l2 = Link::bounded(1);
        assert!(l2.pop(5, "t").is_err());
    }

    #[test]
    fn err_ctx_renders_lazily_with_pe_coordinates() {
        let mut l = Link::bounded(1);
        let err = l
            .pop(
                7,
                ErrCtx::Pop {
                    dir: Direction::North,
                    pe: (2, 3),
                },
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("North pop at PE (2, 3)"), "{msg}");
        l.push(tv(0, 0), 0, "t").unwrap();
        let err = l
            .push(
                tv(0, 0),
                8,
                ErrCtx::Push {
                    dir: Direction::South,
                    pe: (4, 5),
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("South push at PE (4, 5)"));
    }

    #[test]
    fn zero_source_semantics() {
        let mut l = Link::zero_source();
        assert_eq!(l.pop(0, "t").unwrap(), TaggedVector::ZERO);
        assert_eq!(l.pop(9, "t").unwrap(), TaggedVector::ZERO);
        assert!(l.push(tv(0, 1), 0, "t").is_err());
        assert!(l.is_empty());
        assert_eq!(l.try_pop(), None);
    }

    #[test]
    fn sink_accepts_many_and_drains_in_place() {
        let mut l = Link::sink();
        for i in 0..100 {
            l.push(tv(i, i as i32), 0, "t").unwrap();
        }
        // Drain in place (no intermediate collection): entries arrive in
        // FIFO order directly off the ring.
        let mut seen = 0u32;
        while let Some(e) = l.try_pop() {
            assert_eq!(e.tag, seen);
            seen += 1;
        }
        assert_eq!(seen, 100);
        assert!(l.is_empty());
        // A drained sink keeps its grown storage: refills do not error.
        l.push(tv(7, 7), 1, "t").unwrap();
        assert_eq!(l.drain_all().count(), 1);
    }

    #[test]
    fn grid_edges_have_expected_kinds() {
        let mut g = LinkGrid::new(2, 3, 4, false);
        // North edge without feeder: zero source.
        assert_eq!(g.vertical(0, 1).pop(0, "t").unwrap(), TaggedVector::ZERO);
        // South edge: sink.
        for _ in 0..10 {
            g.vertical(2, 0).push(tv(0, 1), 0, "t").unwrap();
        }
        // West edge: zero source.
        assert_eq!(g.horizontal(1, 0).pop(0, "t").unwrap(), TaggedVector::ZERO);
        // East edge: sink.
        g.horizontal(1, 3).push(tv(7, 7), 0, "t").unwrap();
        assert_eq!(g.total_pushes(), 11);
    }

    #[test]
    fn grid_with_feeder_north_edge_is_bounded() {
        let mut g = LinkGrid::new(2, 2, 4, true);
        g.vertical(0, 0).push(tv(1, 1), 0, "feed").unwrap();
        assert_eq!(g.vertical_ref(0, 0).len(), 1);
        assert_eq!(g.vertical(0, 0).pop(0, "t").unwrap().tag, 1);
        assert_eq!(g.vertical_ref(0, 0).len(), 0);
    }

    #[test]
    fn pe_inputs_empty_tracks_both_input_links() {
        let mut g = LinkGrid::new(2, 2, 4, false);
        assert!(g.pe_inputs_empty(1, 1));
        g.vertical(1, 1).push(tv(0, 1), 0, "t").unwrap();
        assert!(!g.pe_inputs_empty(1, 1));
        g.vertical(1, 1).pop(0, "t").unwrap();
        g.horizontal(1, 1).push(tv(0, 2), 0, "t").unwrap();
        assert!(!g.pe_inputs_empty(1, 1));
        g.horizontal(1, 1).pop(0, "t").unwrap();
        assert!(g.pe_inputs_empty(1, 1));
    }
}
