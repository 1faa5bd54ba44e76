//! The Canon processing elements: 3-stage LOAD / EXECUTE / COMMIT pipelines
//! around 4-wide SIMD lanes (Fig 4), stored struct-of-arrays.
//!
//! PEs contain no control logic: they execute whatever instruction streams in
//! from the west (orchestrator or upstream PE), at a fixed pipeline latency,
//! and forward the instruction east when it retires — producing the
//! time-lapsed SIMD stagger of §2.1.
//!
//! The pipeline implements store-to-load forwarding between in-flight
//! instructions: a LOAD that reads an address written by an instruction in
//! the EXECUTE or COMMIT stage observes the in-flight value. This models the
//! accumulator forwarding a real MAC pipeline needs for back-to-back
//! accumulation into the same scratchpad entry (consecutive non-zeros of one
//! output row in SpMM).
//!
//! ## Struct-of-arrays layout
//!
//! All PEs of a fabric live in one [`PeArray`]: data memories, scratchpads,
//! register banks, and the three pipeline-stage slots are parallel `Vec`s
//! indexed by PE id. Activity is not per PE: every PE of a row executes the
//! same instruction stream, and every reader of activity (the run report,
//! Fig 11's energy model, the sweep records) wants array-wide totals, so the
//! array keeps one `Activity` total. The per-phase sweeps of
//! [`crate::fabric::Fabric::step`] then walk dense, homogeneous arrays — the
//! stage slot a COMMIT pass touches is contiguous across PEs instead of
//! strided by the whole PE record. Because every PE advances in lockstep,
//! the stage rotation index is a single array-wide field and
//! [`PeArray::advance`] is O(1) regardless of fabric size.
//!
//! The EXECUTE stage exists architecturally (an instruction occupies it for
//! one cycle, and forwarding reads it), but its lane result is a pure
//! function of the operand values captured at LOAD and nothing can observe
//! it earlier — so the simulator computes it eagerly during LOAD and runs no
//! per-PE EXECUTE sweep at all.

use crate::isa::{Addr, Direction, InstrHandle, InstrRing, Instruction, Opcode, Plan, Vector};
use crate::noc::{ErrCtx, LinkGrid, RowLinks, TaggedVector};
use crate::stats::Stats;
use crate::SimError;

/// Number of SIMD registers per PE.
pub const NUM_REGS: usize = 4;

/// Occupancy of one pipeline-stage slot (no bubble state: the fabric elides
/// bubbles at issue; the spatial runner's held NOPs load as instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Slot {
    /// No instruction in this stage.
    #[default]
    Empty,
    /// An instruction; the per-field stage arrays hold its state.
    Full,
}

/// PE activity summed over a whole [`PeArray`]. Per-PE stepping adds to it
/// one PE at a time, column lockstep `cols` at a time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Activity {
    /// Instructions that entered a pipeline (including NOPs).
    pub instrs: u64,
    /// Compute instructions executed.
    pub compute_instrs: u64,
    /// MAC instructions executed.
    pub mac_instrs: u64,
    /// Data-memory word reads (data memory and scratchpad are counted
    /// apart: their per-access energies differ, Fig 11).
    pub dmem_reads: u64,
    /// Data-memory word writes.
    pub dmem_writes: u64,
    /// Scratchpad entry reads.
    pub spad_reads: u64,
    /// Scratchpad entry writes.
    pub spad_writes: u64,
}

impl Activity {
    /// Run stats holding these totals and nothing else.
    pub(crate) fn to_stats(self) -> Stats {
        Stats {
            instrs_executed: self.instrs,
            compute_instrs: self.compute_instrs,
            mac_instrs: self.mac_instrs,
            dmem_reads: self.dmem_reads,
            dmem_writes: self.dmem_writes,
            spad_reads: self.spad_reads,
            spad_writes: self.spad_writes,
            ..Stats::new()
        }
    }
}

/// Shared view of one PE memory (a strided view of the [`PeArray`] slab:
/// word `a` of PE `idx` lives at `slab[a · stride + idx]`, see the
/// address-major layout notes on [`PeArray`]).
#[derive(Debug)]
pub struct MemRef<'a> {
    slab: &'a [Vector],
    stride: usize,
    offset: usize,
    len: usize,
}

impl MemRef<'_> {
    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads word `addr` without counting the access (tests / debugging).
    ///
    /// # Panics
    ///
    /// Panics when `addr` is out of range.
    pub fn word(&self, addr: usize) -> Vector {
        assert!(addr < self.len, "word {addr} of {}", self.len);
        self.slab[addr * self.stride + self.offset]
    }
}

/// Mutable view of one PE memory (a strided view of the [`PeArray`] slab —
/// see [`MemRef`]); its counted accesses add to the array's activity total.
#[derive(Debug)]
pub struct MemMut<'a> {
    slab: &'a mut [Vector],
    stride: usize,
    offset: usize,
    len: usize,
    reads: &'a mut u64,
    writes: &'a mut u64,
    /// The slab's dirty-row mark (see [`PeArray::reset`]).
    dirty: &'a mut usize,
    what: &'static str,
}

impl MemMut<'_> {
    /// Capacity in words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads a word, counting the access.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AddressOutOfRange`] for addresses past the end.
    pub fn read(&mut self, addr: usize) -> Result<Vector, SimError> {
        if addr < self.len {
            *self.reads += 1;
            Ok(self.slab[addr * self.stride + self.offset])
        } else {
            Err(mem_oob(self.what, "read", addr, self.len))
        }
    }

    /// Writes a word, counting the access.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::AddressOutOfRange`] for addresses past the end.
    pub fn write(&mut self, addr: usize, v: Vector) -> Result<(), SimError> {
        if addr < self.len {
            self.slab[addr * self.stride + self.offset] = v;
            *self.writes += 1;
            *self.dirty = (*self.dirty).max(addr + 1);
            Ok(())
        } else {
            Err(mem_oob(self.what, "write", addr, self.len))
        }
    }

    /// Preloads contents without counting accesses (models the asynchronous
    /// EDDO memory movers filling the array before kernel execution; the
    /// off-chip traffic is accounted separately by the kernel mappers).
    ///
    /// # Panics
    ///
    /// Panics if `base + data.len()` exceeds the capacity.
    pub fn preload(&mut self, base: usize, data: &[Vector]) {
        assert!(
            base + data.len() <= self.len,
            "preload of {} words at {base} exceeds capacity {}",
            data.len(),
            self.len
        );
        for (i, &w) in data.iter().enumerate() {
            self.slab[(base + i) * self.stride + self.offset] = w;
        }
        *self.dirty = (*self.dirty).max(base + data.len());
    }
}

#[cold]
fn mem_oob(what: &str, op: &str, addr: usize, len: usize) -> SimError {
    SimError::AddressOutOfRange {
        context: format!("{what} {op} {addr} of {len}"),
    }
}

/// A slab of `len` zero vectors, allocated zeroed: the OS maps its pages
/// on first touch, so a fabric keeps resident only the slab rows its runs
/// write (with [`PeArray::reset`]'s dirty-row marks, also across reuse).
/// `vec![Vector::ZERO; len]` would write every word up front.
fn zeroed_slab(len: usize) -> Vec<Vector> {
    if len == 0 {
        return Vec::new();
    }
    let layout = std::alloc::Layout::array::<Vector>(len).expect("slab size overflows");
    // SAFETY: `layout` has nonzero size. A `Vector` holds only `i32`s, so
    // all-zero bytes are a valid `Vector` (`Vector::ZERO`), and the
    // allocation comes from the global allocator with exactly the layout a
    // `Vec<Vector>` of capacity `len` frees with.
    unsafe {
        let ptr = std::alloc::alloc_zeroed(layout).cast::<Vector>();
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Vec::from_raw_parts(ptr, len, len)
    }
}

/// A port access against a direction with no instantiated link.
#[cold]
fn unwired_port(r: usize, c: usize, access: &str, d: Direction) -> SimError {
    SimError::AddressOutOfRange {
        context: format!(
            "PE ({r},{c}) {access} {d}: only south/east-bound dataflow is instantiated"
        ),
    }
}

/// Bounds-checked, counted read of word `a` of PE `idx` in an
/// address-major slab (`words` words per PE, `n` PEs: word `a` of PE `idx`
/// at `slab[a * n + idx]`) — the one definition of "checked counted slab
/// access" behind every hot-path memory accessor.
#[allow(clippy::too_many_arguments)]
#[inline]
fn slab_read(
    slab: &[Vector],
    words: usize,
    n: usize,
    idx: usize,
    a: usize,
    count: &mut u64,
    what: &'static str,
) -> Result<Vector, SimError> {
    if a < words {
        *count += 1;
        Ok(slab[a * n + idx])
    } else {
        Err(mem_oob(what, "read", a, words))
    }
}

/// Bounds-checked, counted write — see [`slab_read`].
#[allow(clippy::too_many_arguments)]
#[inline]
fn slab_write(
    slab: &mut [Vector],
    words: usize,
    n: usize,
    idx: usize,
    a: usize,
    v: Vector,
    count: &mut u64,
    what: &'static str,
) -> Result<(), SimError> {
    if a < words {
        *count += 1;
        slab[a * n + idx] = v;
        Ok(())
    } else {
        Err(mem_oob(what, "write", a, words))
    }
}

/// Row-wide pop of port `d` for the column-lockstep engine: the twin of
/// [`PeArray::pop_port`] at column 0, over the row links.
fn lockstep_pop(
    links: &mut RowLinks,
    d: Direction,
    row: usize,
    cycle: u64,
    dst: &mut [TaggedVector],
) -> Result<(), SimError> {
    match d {
        Direction::North => links.pop(
            row,
            cycle,
            ErrCtx::Pop {
                dir: d,
                pe: (row, 0),
            },
            dst,
        ),
        Direction::South | Direction::East => Err(unwired_port(row, 0, "reads", d)),
        Direction::West => unreachable!("lockstep rows read West only as the chain's op2"),
    }
}

/// Row-wide push towards port `d` for the column-lockstep engine: the twin
/// of [`PeArray::push_port`] at column 0, over the row links.
fn lockstep_push(
    links: &mut RowLinks,
    d: Direction,
    row: usize,
    cycle: u64,
    fill: impl FnOnce(&mut [TaggedVector]),
) -> Result<(), SimError> {
    match d {
        Direction::South => links.push(
            row + 1,
            cycle,
            ErrCtx::Push {
                dir: d,
                pe: (row, 0),
            },
            fill,
        ),
        Direction::North | Direction::West => Err(unwired_port(row, 0, "writes", d)),
        Direction::East => unreachable!("lockstep rows write East only as the chain result"),
    }
}

/// Where a lockstep row reads a storage operand from (see
/// [`PeArray::lockstep_src`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowSrc {
    /// The register file or memory slab.
    Storage,
    /// The EXECUTE slot's in-flight results.
    Exec,
    /// The EXECUTE slot's pending flush-clear.
    Zero,
}

/// Per-row operand buffers of the column-lockstep engine, `cols` wide.
#[derive(Debug, Default)]
struct RowScratch {
    op1: Vec<Vector>,
    op2: Vec<Vector>,
    res_in: Vec<Vector>,
    popped: Vec<TaggedVector>,
}

impl RowScratch {
    fn resize(&mut self, cols: usize) {
        self.op1.resize(cols, Vector::ZERO);
        self.op2.resize(cols, Vector::ZERO);
        self.res_in.resize(cols, Vector::ZERO);
        self.popped.resize(cols, TaggedVector::ZERO);
    }
}

/// Shared view of one PE inside a [`PeArray`].
#[derive(Debug)]
pub struct PeRef<'a> {
    /// Static-data memory (holds the stationary operand tile).
    pub dmem: MemRef<'a>,
    /// Dual-port scratchpad (psum / stream-reuse buffer).
    pub spad: MemRef<'a>,
    regs: &'a [Vector; NUM_REGS],
}

impl PeRef<'_> {
    /// Register file access (tests / debugging).
    pub fn reg(&self, i: usize) -> Vector {
        self.regs[i]
    }
}

/// Mutable view of one PE inside a [`PeArray`] (kernel mappers preload data
/// memories and scratchpads through this).
#[derive(Debug)]
pub struct PeMut<'a> {
    /// Static-data memory (holds the stationary operand tile).
    pub dmem: MemMut<'a>,
    /// Dual-port scratchpad (psum / stream-reuse buffer).
    pub spad: MemMut<'a>,
}

/// All processing elements of one fabric, struct-of-arrays.
///
/// The three pipeline slots per PE live in parallel per-field arrays
/// addressed through one shared rotation index: [`PeArray::advance`] renames
/// the stages for *every* PE by bumping that index once instead of moving
/// per-PE in-flight records — the per-cycle stage shift used to be a per-PE
/// operation on the simulator's hottest path.
#[derive(Debug)]
pub struct PeArray {
    /// Data-memory words of *all* PEs, one flat slab in **address-major**
    /// layout: word `a` of PE `i` lives at `dmem[a * n + i]`. The paper's
    /// uniform-addressing invariant (every PE of a row reads the *same*
    /// local address for one issue, staggered over consecutive cycles)
    /// makes the per-cycle working set a handful of `n`-wide rows of this
    /// slab — contiguous here, but strided 16 KB apart in a PE-major
    /// layout, where a default-config fabric touches one TLB page per PE.
    /// The same layout makes one PE's consecutive words `n` vectors apart,
    /// so filling a slab through per-PE [`MemMut::preload`] views scatters
    /// every write across a new cache line and page; bulk preloads of the
    /// stationary operand go through [`PeArray::dmem_row_mut`] instead and
    /// fill the slab in its own order, one `n`-wide row per word.
    dmem: Vec<Vector>,
    dmem_words: usize,
    /// Scratchpad entries of all PEs (the accumulator banks), same layout.
    spad: Vec<Vector>,
    spad_entries: usize,
    /// Dirty-row marks: every write path raises them, so words
    /// `dmem_dirty..` of every PE's data memory (and `spad_dirty..` of its
    /// scratchpad) are still zero. [`PeArray::reset`] zeroes only the
    /// rows below them, so a reused fabric re-zeroes — and keeps resident —
    /// only the slab pages a run touched.
    dmem_dirty: usize,
    spad_dirty: usize,
    /// Number of PEs (the slab stride).
    n: usize,
    regs: Vec<[Vector; NUM_REGS]>,
    /// Pipeline-stage slots, struct-of-arrays at field granularity:
    /// `xxx[s][i]` is field `xxx` of stage slot `s` of PE `i`. Slot roles
    /// rotate via `load_idx` (LOAD at `load_idx`, EXECUTE at `load_idx + 1`,
    /// COMMIT at `load_idx + 2`, mod 3). Splitting by field means each phase
    /// moves only the bytes it actually produces or consumes: LOAD writes a
    /// 4-byte [`InstrHandle`] into the issued-instruction ring plus the
    /// (eagerly computed) lane result, COMMIT resolves the handle back
    /// through the shared [`InstrRing`] (+ routed payload when a route is
    /// present).
    state: [Vec<Slot>; 3],
    handles: [Vec<InstrHandle>; 3],
    results: [Vec<Vector>; 3],
    /// Store-to-load forwarding cache: the result address of each `Full`
    /// slot's instruction, and the source a flush opcode will clear
    /// ([`Addr::Null`] otherwise). Written once at LOAD so the per-operand
    /// forwarding scan compares two 4-byte addresses per slot instead of
    /// resolving the instruction ring.
    res_addr: [Vec<Addr>; 3],
    flush_addr: [Vec<Addr>; 3],
    /// Pass-through payload popped at LOAD, pushed at COMMIT. Only valid
    /// (and only touched) when the slot's instruction carries a route.
    routed: [Vec<TaggedVector>; 3],
    load_idx: usize,
    activity: Activity,
    /// Column-lockstep operand buffers (sized on first use, kept across
    /// resets).
    lockstep_scratch: RowScratch,
}

impl PeArray {
    /// Creates `n` PEs with the given memory capacities (in vector words).
    pub fn new(n: usize, dmem_words: usize, spad_entries: usize) -> PeArray {
        PeArray {
            dmem: zeroed_slab(n * dmem_words),
            dmem_words,
            spad: zeroed_slab(n * spad_entries),
            spad_entries,
            dmem_dirty: 0,
            spad_dirty: 0,
            n,
            regs: vec![[Vector::ZERO; NUM_REGS]; n],
            state: std::array::from_fn(|_| vec![Slot::Empty; n]),
            handles: std::array::from_fn(|_| vec![InstrHandle::default(); n]),
            results: std::array::from_fn(|_| vec![Vector::ZERO; n]),
            res_addr: std::array::from_fn(|_| vec![Addr::Null; n]),
            flush_addr: std::array::from_fn(|_| vec![Addr::Null; n]),
            routed: std::array::from_fn(|_| vec![TaggedVector::ZERO; n]),
            load_idx: 0,
            activity: Activity::default(),
            lockstep_scratch: RowScratch::default(),
        }
    }

    /// Returns the array to its post-construction state in place, reusing
    /// every allocation: memories (the rows below the dirty marks) and
    /// registers zeroed, pipeline slots emptied, activity cleared.
    /// After this call the array is indistinguishable from
    /// `PeArray::new(n, dmem_words, spad_entries)` (fabric reuse across
    /// warm-pool requests depends on that).
    pub fn reset(&mut self) {
        self.dmem[..self.dmem_dirty * self.n].fill(Vector::ZERO);
        self.spad[..self.spad_dirty * self.n].fill(Vector::ZERO);
        self.dmem_dirty = 0;
        self.spad_dirty = 0;
        for regs in &mut self.regs {
            *regs = [Vector::ZERO; NUM_REGS];
        }
        for s in 0..3 {
            self.state[s].fill(Slot::Empty);
            self.handles[s].fill(InstrHandle::default());
            self.results[s].fill(Vector::ZERO);
            self.res_addr[s].fill(Addr::Null);
            self.flush_addr[s].fill(Addr::Null);
            self.routed[s].fill(TaggedVector::ZERO);
        }
        self.load_idx = 0;
        self.activity = Activity::default();
    }

    /// Activity of every PE so far, summed.
    pub(crate) fn activity(&self) -> Activity {
        self.activity
    }

    fn exec_idx(&self) -> usize {
        (self.load_idx + 1) % 3
    }

    fn commit_idx(&self) -> usize {
        (self.load_idx + 2) % 3
    }

    /// Shared view of PE `idx`.
    pub fn pe(&self, idx: usize) -> PeRef<'_> {
        PeRef {
            dmem: MemRef {
                slab: &self.dmem,
                stride: self.n,
                offset: idx,
                len: self.dmem_words,
            },
            spad: MemRef {
                slab: &self.spad,
                stride: self.n,
                offset: idx,
                len: self.spad_entries,
            },
            regs: &self.regs[idx],
        }
    }

    /// Mutable view of PE `idx` (memory preloads).
    pub fn pe_mut(&mut self, idx: usize) -> PeMut<'_> {
        PeMut {
            dmem: MemMut {
                slab: &mut self.dmem,
                stride: self.n,
                offset: idx,
                len: self.dmem_words,
                reads: &mut self.activity.dmem_reads,
                writes: &mut self.activity.dmem_writes,
                dirty: &mut self.dmem_dirty,
                what: "dmem",
            },
            spad: MemMut {
                slab: &mut self.spad,
                stride: self.n,
                offset: idx,
                len: self.spad_entries,
                reads: &mut self.activity.spad_reads,
                writes: &mut self.activity.spad_writes,
                dirty: &mut self.spad_dirty,
                what: "spad",
            },
        }
    }

    /// Word `a` of every PE's data memory, in PE-id order: the `n`-wide
    /// slab row the bulk stationary-operand preload fills in one pass.
    /// Like [`MemMut::preload`], writes through it are not counted.
    ///
    /// # Panics
    ///
    /// Panics when `a` is not below the data-memory capacity.
    pub(crate) fn dmem_row_mut(&mut self, a: usize) -> &mut [Vector] {
        assert!(a < self.dmem_words, "dmem word {a} of {}", self.dmem_words);
        self.dmem_dirty = self.dmem_dirty.max(a + 1);
        &mut self.dmem[a * self.n..(a + 1) * self.n]
    }

    /// Reads PE `idx`'s data-memory word `a`, counting the access.
    #[inline]
    fn dmem_read(&mut self, idx: usize, a: usize) -> Result<Vector, SimError> {
        slab_read(
            &self.dmem,
            self.dmem_words,
            self.n,
            idx,
            a,
            &mut self.activity.dmem_reads,
            "dmem",
        )
    }

    /// Writes PE `idx`'s data-memory word `a`, counting the access.
    #[inline]
    fn dmem_write(&mut self, idx: usize, a: usize, v: Vector) -> Result<(), SimError> {
        slab_write(
            &mut self.dmem,
            self.dmem_words,
            self.n,
            idx,
            a,
            v,
            &mut self.activity.dmem_writes,
            "dmem",
        )?;
        self.dmem_dirty = self.dmem_dirty.max(a + 1);
        Ok(())
    }

    /// Reads PE `idx`'s scratchpad entry `a`, counting the access.
    #[inline]
    fn spad_read(&mut self, idx: usize, a: usize) -> Result<Vector, SimError> {
        slab_read(
            &self.spad,
            self.spad_entries,
            self.n,
            idx,
            a,
            &mut self.activity.spad_reads,
            "spad",
        )
    }

    /// Writes PE `idx`'s scratchpad entry `a`, counting the access.
    #[inline]
    fn spad_write(&mut self, idx: usize, a: usize, v: Vector) -> Result<(), SimError> {
        slab_write(
            &mut self.spad,
            self.spad_entries,
            self.n,
            idx,
            a,
            v,
            &mut self.activity.spad_writes,
            "spad",
        )?;
        self.spad_dirty = self.spad_dirty.max(a + 1);
        Ok(())
    }

    /// Register file access (tests / debugging).
    pub fn reg(&self, idx: usize, i: usize) -> Vector {
        self.regs[idx][i]
    }

    /// True when PE `idx` has no instruction in flight.
    pub fn pipeline_empty(&self, idx: usize) -> bool {
        self.state[0][idx] == Slot::Empty
            && self.state[1][idx] == Slot::Empty
            && self.state[2][idx] == Slot::Empty
    }

    /// Checks whether an in-flight younger instruction (EXECUTE or COMMIT
    /// stage) of PE `idx` will write `addr`, returning the forwarded value if
    /// so. EXECUTE-stage values take priority (younger instruction).
    #[inline(always)]
    fn forwarded(&self, idx: usize, addr: Addr) -> Option<Vector> {
        if addr == Addr::Null {
            return None;
        }
        // Younger first: the EXECUTE-stage instruction is the most recent
        // writer still in flight. The scan touches only the cached 4-byte
        // address fields — never the instruction ring.
        for s in [self.exec_idx(), self.commit_idx()] {
            if self.state[s][idx] != Slot::Full {
                continue;
            }
            if self.res_addr[s][idx] == addr {
                return Some(self.results[s][idx]);
            }
            // Flush opcodes clear their op1 source at COMMIT.
            if self.flush_addr[s][idx] == addr {
                return Some(Vector::ZERO);
            }
        }
        None
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn read_operand(
        &mut self,
        idx: usize,
        addr: Addr,
        instr: &Instruction,
        grid: &mut LinkGrid,
        r: usize,
        c: usize,
        cycle: u64,
        shared_route_pop: &mut Option<TaggedVector>,
        fw_possible: bool,
    ) -> Result<Vector, SimError> {
        match addr {
            Addr::Null => Ok(Vector::ZERO),
            Addr::Imm => Ok(instr.imm.unwrap_or(Vector::ZERO)),
            Addr::Reg(i) => {
                let base = self.regs[idx].get(i as usize).copied().ok_or_else(|| {
                    SimError::AddressOutOfRange {
                        context: format!("register r{i} (of {NUM_REGS})"),
                    }
                })?;
                if !fw_possible {
                    return Ok(base);
                }
                Ok(self.forwarded(idx, addr).unwrap_or(base))
            }
            Addr::DataMem(a) => {
                let v = self.dmem_read(idx, a as usize)?;
                if !fw_possible {
                    return Ok(v);
                }
                Ok(self.forwarded(idx, addr).unwrap_or(v))
            }
            Addr::Spad(a) => {
                let v = self.spad_read(idx, a as usize)?;
                if !fw_possible {
                    return Ok(v);
                }
                Ok(self.forwarded(idx, addr).unwrap_or(v))
            }
            Addr::Port(d) => {
                // If a route pass-through pops the same direction, the single
                // popped entry feeds both the operand and the pass-through.
                let entry = Self::pop_port(d, grid, r, c, cycle)?;
                if let Some(route) = instr.route {
                    if route.from == d {
                        *shared_route_pop = Some(entry);
                    }
                }
                Ok(entry.value)
            }
        }
    }

    #[inline]
    fn pop_port(
        d: Direction,
        grid: &mut LinkGrid,
        r: usize,
        c: usize,
        cycle: u64,
    ) -> Result<TaggedVector, SimError> {
        // Error context is a copyable `ErrCtx` rendered only when the pop
        // actually fails: this path runs on every successful NoC read and
        // must not allocate.
        let ctx = ErrCtx::Pop { dir: d, pe: (r, c) };
        match d {
            Direction::North => grid.vertical(r, c).pop(cycle, ctx),
            Direction::West => grid.horizontal(r, c).pop(cycle, ctx),
            Direction::South | Direction::East => Err(unwired_port(r, c, "reads", d)),
        }
    }

    fn push_port(
        d: Direction,
        entry: TaggedVector,
        grid: &mut LinkGrid,
        r: usize,
        c: usize,
        cycle: u64,
    ) -> Result<(), SimError> {
        let ctx = ErrCtx::Push { dir: d, pe: (r, c) };
        match d {
            Direction::South => grid.vertical(r + 1, c).push(entry, cycle, ctx),
            Direction::East => grid.horizontal(r, c + 1).push(entry, cycle, ctx),
            Direction::North | Direction::West => Err(unwired_port(r, c, "writes", d)),
        }
    }

    /// LOAD stage of PE `idx`: accepts the instruction interned at `h` and
    /// resolves its operands, popping NoC ports as needed. The pipeline slot
    /// stores only the 4-byte handle; the record stays in `ring`.
    ///
    /// # Errors
    ///
    /// Propagates address and NoC protocol errors, and reports
    /// [`SimError::RouterConflict`] for instructions violating the §3.1
    /// one-transfer-per-direction rule.
    #[inline]
    pub fn load(
        &mut self,
        idx: usize,
        h: InstrHandle,
        ring: &InstrRing,
        grid: &mut LinkGrid,
        r: usize,
        c: usize,
        cycle: u64,
    ) -> Result<(), SimError> {
        let instr = ring.get(h);
        if let Some(d) = instr.noc_conflict() {
            return Err(SimError::RouterConflict {
                cycle,
                pe: (r, c),
                direction: d.to_string(),
            });
        }
        self.activity.instrs += 1;
        if instr.op.is_compute() {
            self.activity.compute_instrs += 1;
        }
        if instr.op.is_mac() {
            self.activity.mac_instrs += 1;
        }
        // A value can only be forwarded from a `Full` EXECUTE/COMMIT slot,
        // so when both are empty (common in sparse bands) every operand read
        // skips the per-address forwarding scan.
        let fw_possible = self.state[self.exec_idx()][idx] == Slot::Full
            || self.state[self.commit_idx()][idx] == Slot::Full;
        let mut shared_pop = None;
        let op1 = self.read_operand(
            idx,
            instr.op1,
            instr,
            grid,
            r,
            c,
            cycle,
            &mut shared_pop,
            fw_possible,
        )?;
        let op2 = self.read_operand(
            idx,
            instr.op2,
            instr,
            grid,
            r,
            c,
            cycle,
            &mut shared_pop,
            fw_possible,
        )?;
        // Read-modify-write opcodes read the old result value here.
        let res_in = match instr.op {
            Opcode::MacV | Opcode::MacS | Opcode::Acc => match instr.res {
                Addr::Port(_) | Addr::Null | Addr::Imm => Vector::ZERO,
                a => {
                    let mut none = None;
                    self.read_operand(idx, a, instr, grid, r, c, cycle, &mut none, fw_possible)?
                }
            },
            _ => Vector::ZERO,
        };
        // Route pass-through pop (if not shared with an operand pop). The
        // routed slot is written only when a route is present; COMMIT reads
        // it under the same condition.
        if let Some(route) = instr.route {
            self.routed[self.load_idx][idx] = match shared_pop {
                Some(e) => e,
                None => Self::pop_port(route.from, grid, r, c, cycle)?,
            };
        }
        debug_assert!(
            self.state[self.load_idx][idx] == Slot::Empty,
            "LOAD slot occupied at shift time"
        );
        self.state[self.load_idx][idx] = Slot::Full;
        // The EXECUTE stage's lane result is a pure function of the operand
        // values captured right here, and nothing can observe it before the
        // next cycle — so it is computed eagerly instead of in a separate
        // per-PE EXECUTE sweep. The instruction still *occupies* the EXECUTE
        // slot for a full cycle (stage rotation is unchanged); only the
        // simulator's work moves.
        self.results[self.load_idx][idx] = Self::lane_result(instr.op, op1, op2, res_in);
        self.handles[self.load_idx][idx] = h;
        self.res_addr[self.load_idx][idx] = instr.res;
        self.flush_addr[self.load_idx][idx] =
            if matches!(instr.op, Opcode::MovFlush | Opcode::AddFlush) {
                instr.op1
            } else {
                Addr::Null
            };
        Ok(())
    }

    /// The vector-lane function of one opcode.
    #[inline]
    fn lane_result(op: Opcode, op1: Vector, op2: Vector, res_in: Vector) -> Vector {
        match op {
            Opcode::Nop => Vector::ZERO,
            Opcode::Mov | Opcode::MovFlush => op1,
            Opcode::Add | Opcode::AddFlush => op1.add(op2),
            Opcode::Sub => {
                let mut out = [0; crate::isa::LANES];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = op1.0[i].wrapping_sub(op2.0[i]);
                }
                Vector(out)
            }
            Opcode::Mul => op1.mul(op2),
            Opcode::MacV => res_in.mac(op1, op2),
            Opcode::MacS => res_in.mac(Vector::splat(op1.lane0()), op2),
            Opcode::Acc => res_in.add(op1),
            Opcode::RedSum => {
                let mut out = Vector::ZERO;
                out.0[0] = op1.reduce_sum();
                out
            }
            Opcode::Max => {
                let mut out = [0; crate::isa::LANES];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = op1.0[i].max(op2.0[i]);
                }
                Vector(out)
            }
            Opcode::Min => {
                let mut out = [0; crate::isa::LANES];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = op1.0[i].min(op2.0[i]);
                }
                Vector(out)
            }
        }
    }

    /// COMMIT stage of PE `idx`: writes the result (memory / register / NoC
    /// push), performs the flush-clear of `MovFlush`/`AddFlush`, and pushes
    /// the pass-through payload. Returns the retiring instruction's 4-byte
    /// [`InstrHandle`] (the caller forwards it east; the record itself
    /// never moves, it stays interned in `ring`), or `None` when the
    /// COMMIT stage is empty.
    ///
    /// # Errors
    ///
    /// Propagates address and NoC protocol errors.
    #[inline]
    pub fn commit(
        &mut self,
        idx: usize,
        ring: &InstrRing,
        grid: &mut LinkGrid,
        r: usize,
        c: usize,
        cycle: u64,
    ) -> Result<Option<InstrHandle>, SimError> {
        let commit_idx = self.commit_idx();
        if self.state[commit_idx][idx] == Slot::Empty {
            return Ok(None);
        }
        self.state[commit_idx][idx] = Slot::Empty;
        let h = self.handles[commit_idx][idx];
        let result = self.results[commit_idx][idx];
        let instr = ring.get(h);
        // Result write-back.
        if instr.op != Opcode::Nop {
            match instr.res {
                Addr::Null => {}
                Addr::Imm => {
                    return Err(SimError::AddressOutOfRange {
                        context: "write to immediate".into(),
                    })
                }
                Addr::Reg(i) => {
                    let slot = self.regs[idx].get_mut(i as usize).ok_or_else(|| {
                        SimError::AddressOutOfRange {
                            context: format!("register r{i}"),
                        }
                    })?;
                    *slot = result;
                }
                Addr::DataMem(a) => self.dmem_write(idx, a as usize, result)?,
                Addr::Spad(a) => self.spad_write(idx, a as usize, result)?,
                Addr::Port(d) => {
                    Self::push_port(
                        d,
                        TaggedVector {
                            value: result,
                            tag: instr.tag,
                        },
                        grid,
                        r,
                        c,
                        cycle,
                    )?;
                }
            }
        }
        // Flush-clear of the op1 source.
        if matches!(instr.op, Opcode::MovFlush | Opcode::AddFlush) {
            match instr.op1 {
                Addr::Spad(a) => self.spad_write(idx, a as usize, Vector::ZERO)?,
                Addr::Reg(i) => {
                    let slot = self.regs[idx].get_mut(i as usize).ok_or_else(|| {
                        SimError::AddressOutOfRange {
                            context: format!("register r{i}"),
                        }
                    })?;
                    *slot = Vector::ZERO;
                }
                a => {
                    return Err(SimError::AddressOutOfRange {
                        context: format!("flush-clear of non-storage operand {a}"),
                    })
                }
            }
        }
        // Pass-through push (the routed slot is valid exactly when a route
        // is present — LOAD populated it under the same condition).
        if let Some(route) = instr.route {
            let entry = self.routed[commit_idx][idx];
            Self::push_port(route.to, entry, grid, r, c, cycle)?;
        }
        Ok(Some(h))
    }

    /// Advances every pipeline by one stage (end of cycle): the stages are
    /// renamed by rotating the shared slot index — no in-flight state is
    /// moved, and the cost is independent of the PE count.
    pub fn advance(&mut self) {
        debug_assert!(
            self.state[self.commit_idx()]
                .iter()
                .all(|&s| s == Slot::Empty),
            "commit slot not consumed"
        );
        // The old COMMIT slot (now empty) becomes the new LOAD slot; the
        // old LOAD and EXECUTE slots become EXECUTE and COMMIT in place.
        self.load_idx = self.commit_idx();
    }

    // ---- Column-lockstep support (see `crate::fabric`'s engine table) ----
    //
    // Under lockstep every column of a row executes column 0's instruction
    // sequence, so one call runs a whole row: the instruction is decoded
    // and checked once, its pipeline metadata (state, handle, forwarding
    // addresses) lives in the row's column-0 slot, and only the per-column
    // values (`results`, `routed`, memories, registers) are touched for
    // all `cols` PEs — contiguous slices of the address-major slabs.
    // Activity counts are credited `cols` at a time to the array total.
    // Only this engine dispatches on the ring's [`Plan`]: per-PE stepping
    // executes every instruction through the generic path, so it stays an
    // independent reference for the differential tests.

    /// Where row `base`'s operand `addr` comes from. Only the EXECUTE slot
    /// can forward: the COMMIT slot was emptied before LOAD, exactly as in
    /// the fused per-PE order.
    fn lockstep_src(&self, base: usize, addr: Addr) -> RowSrc {
        let es = self.exec_idx();
        if addr == Addr::Null || self.state[es][base] != Slot::Full {
            RowSrc::Storage
        } else if self.res_addr[es][base] == addr {
            RowSrc::Exec
        } else if self.flush_addr[es][base] == addr {
            RowSrc::Zero
        } else {
            RowSrc::Storage
        }
    }

    /// Fills `dst` with row `base`'s values of the bounds-checked storage
    /// operand `addr` (register, dmem or spad word), forwarding applied.
    fn lockstep_fill(&self, base: usize, addr: Addr, dst: &mut [Vector]) {
        let span = base..base + dst.len();
        match (self.lockstep_src(base, addr), addr) {
            (RowSrc::Exec, _) => dst.copy_from_slice(&self.results[self.exec_idx()][span]),
            (RowSrc::Zero, _) => dst.fill(Vector::ZERO),
            (RowSrc::Storage, Addr::DataMem(a)) => {
                dst.copy_from_slice(&self.dmem[a as usize * self.n..][span]);
            }
            (RowSrc::Storage, Addr::Spad(a)) => {
                dst.copy_from_slice(&self.spad[a as usize * self.n..][span]);
            }
            (RowSrc::Storage, Addr::Reg(i)) => {
                for (v, regs) in dst.iter_mut().zip(&self.regs[span]) {
                    *v = regs[i as usize];
                }
            }
            (RowSrc::Storage, a) => unreachable!("{a} is not a storage operand"),
        }
    }

    /// [`PeArray::lockstep_fill`] without the copy where the values already
    /// lie contiguous (a slab row or the EXECUTE slot); `buf` is filled
    /// otherwise.
    fn lockstep_row<'a>(&'a self, base: usize, addr: Addr, buf: &'a mut [Vector]) -> &'a [Vector] {
        let span = base..base + buf.len();
        match (self.lockstep_src(base, addr), addr) {
            (RowSrc::Exec, _) => &self.results[self.exec_idx()][span],
            (RowSrc::Storage, Addr::DataMem(a)) => &self.dmem[a as usize * self.n..][span],
            (RowSrc::Storage, Addr::Spad(a)) => &self.spad[a as usize * self.n..][span],
            _ => {
                self.lockstep_fill(base, addr, buf);
                buf
            }
        }
    }

    /// Row-wide operand read (the lockstep twin of `read_operand` on the
    /// generic path): bounds checks, access counts and port pops in the
    /// scalar order, and — when `want` — every column's value of `addr` in
    /// `dst`. A port read pops the row link into `popped`; `shared` reports
    /// that the pop also feeds the route.
    #[allow(clippy::too_many_arguments)]
    fn lockstep_operand(
        &mut self,
        base: usize,
        addr: Addr,
        instr: &Instruction,
        links: &mut RowLinks,
        row: usize,
        cycle: u64,
        want: bool,
        popped: &mut [TaggedVector],
        shared: &mut bool,
        dst: &mut [Vector],
    ) -> Result<(), SimError> {
        match addr {
            Addr::Null | Addr::Imm => {
                if want {
                    dst.fill(match addr {
                        Addr::Imm => instr.imm.unwrap_or(Vector::ZERO),
                        _ => Vector::ZERO,
                    });
                }
                return Ok(());
            }
            Addr::Reg(_) | Addr::DataMem(_) | Addr::Spad(_) => {
                self.lockstep_storage_read(addr, dst.len() as u64)?;
            }
            Addr::Port(d) => {
                lockstep_pop(links, d, row, cycle, popped)?;
                if instr.route.is_some_and(|route| route.from == d) {
                    *shared = true;
                }
                if want {
                    for (v, e) in dst.iter_mut().zip(popped.iter()) {
                        *v = e.value;
                    }
                }
                return Ok(());
            }
        }
        if want {
            self.lockstep_fill(base, addr, dst);
        }
        Ok(())
    }

    /// Bounds check and read count of the storage operand `addr` (register,
    /// dmem or spad word) for a row of `cols` PEs: column 0's scalar read
    /// raises the same error.
    fn lockstep_storage_read(&mut self, addr: Addr, cols: u64) -> Result<(), SimError> {
        match addr {
            Addr::Reg(i) => {
                if i as usize >= NUM_REGS {
                    return Err(SimError::AddressOutOfRange {
                        context: format!("register r{i} (of {NUM_REGS})"),
                    });
                }
            }
            Addr::DataMem(a) => {
                if a as usize >= self.dmem_words {
                    return Err(mem_oob("dmem", "read", a as usize, self.dmem_words));
                }
                self.activity.dmem_reads += cols;
            }
            Addr::Spad(a) => {
                if a as usize >= self.spad_entries {
                    return Err(mem_oob("spad", "read", a as usize, self.spad_entries));
                }
                self.activity.spad_reads += cols;
            }
            a => unreachable!("{a} is not a storage operand"),
        }
        Ok(())
    }

    /// Column-lockstep LOAD (+ eager EXECUTE) of the instruction interned
    /// at `h` on all `cols` PEs of `row`: the row-granular
    /// [`PeArray::load`], with the §3.1 route check made once and North
    /// pops taken from the row link.
    ///
    /// # Errors
    ///
    /// The errors column 0's scalar LOAD raises, with the same messages.
    pub(crate) fn lockstep_load_row(
        &mut self,
        row: usize,
        cols: usize,
        h: InstrHandle,
        ring: &InstrRing,
        links: &mut RowLinks,
        cycle: u64,
    ) -> Result<(), SimError> {
        let base = row * cols;
        let ls = self.load_idx;
        debug_assert_eq!(self.state[ls][base], Slot::Empty, "LOAD slot occupied");
        let instr = ring.get(h);
        debug_assert!(!instr.is_plain_nop(), "bubbles are elided at issue");
        let mut scratch = std::mem::take(&mut self.lockstep_scratch);
        scratch.resize(cols);
        // The LOAD slot's results are written while the EXECUTE slot's are
        // read: move them out for the duration.
        let mut results = std::mem::take(&mut self.results[ls]);
        let out = &mut results[base..base + cols];
        let loaded = match ring.plan(h) {
            Plan::Generic => {
                self.lockstep_load_generic(row, instr, links, cycle, &mut scratch, out)
            }
            plan => self.lockstep_load_mac(base, plan, &mut scratch, out),
        };
        self.results[ls] = results;
        self.lockstep_scratch = scratch;
        loaded?;
        self.state[ls][base] = Slot::Full;
        self.handles[ls][base] = h;
        self.res_addr[ls][base] = instr.res;
        self.flush_addr[ls][base] = if matches!(instr.op, Opcode::MovFlush | Opcode::AddFlush) {
            instr.op1
        } else {
            Addr::Null
        };
        Ok(())
    }

    /// Lockstep LOAD of a fast MAC plan: the bounds checks and read counts
    /// in the generic path's operand order (the plans' registers are in
    /// range by construction), then one fused loop per row.
    fn lockstep_load_mac(
        &mut self,
        base: usize,
        plan: Plan,
        scratch: &mut RowScratch,
        out: &mut [Vector],
    ) -> Result<(), SimError> {
        let cols = out.len() as u64;
        let RowScratch {
            op1, op2, res_in, ..
        } = scratch;
        match plan {
            Plan::MacSToSpad { a, b, imm } => {
                self.lockstep_storage_read(Addr::DataMem(a), cols)?;
                self.lockstep_storage_read(Addr::Spad(b), cols)?;
                let s = Vector::splat(imm.lane0());
                let op2 = self.lockstep_row(base, Addr::DataMem(a), op2);
                let acc = self.lockstep_row(base, Addr::Spad(b), res_in);
                for ((o, &acc), &y) in out.iter_mut().zip(acc).zip(op2) {
                    *o = acc.mac(s, y);
                }
            }
            Plan::MacSToReg { a, r, imm } => {
                self.lockstep_storage_read(Addr::DataMem(a), cols)?;
                let s = Vector::splat(imm.lane0());
                let op2 = self.lockstep_row(base, Addr::DataMem(a), op2);
                let acc = self.lockstep_row(base, Addr::Reg(r), res_in);
                for ((o, &acc), &y) in out.iter_mut().zip(acc).zip(op2) {
                    *o = acc.mac(s, y);
                }
            }
            Plan::MacVToReg { a, b, r } => {
                self.lockstep_storage_read(Addr::Spad(a), cols)?;
                self.lockstep_storage_read(Addr::DataMem(b), cols)?;
                let op1 = self.lockstep_row(base, Addr::Spad(a), op1);
                let op2 = self.lockstep_row(base, Addr::DataMem(b), op2);
                let acc = self.lockstep_row(base, Addr::Reg(r), res_in);
                for (((o, &acc), &x), &y) in out.iter_mut().zip(acc).zip(op1).zip(op2) {
                    *o = acc.mac(x, y);
                }
            }
            Plan::Generic => unreachable!("generic plans take the operand path"),
        }
        self.activity.instrs += cols;
        self.activity.compute_instrs += cols;
        self.activity.mac_instrs += cols;
        Ok(())
    }

    /// Lockstep LOAD of a generic plan: the route check, the counts, the
    /// operand reads in the scalar order, the route pop, and the lane
    /// results. A NOP's lane result is zero whatever it reads, so its
    /// operands are resolved for their side effects only.
    fn lockstep_load_generic(
        &mut self,
        row: usize,
        instr: &Instruction,
        links: &mut RowLinks,
        cycle: u64,
        scratch: &mut RowScratch,
        out: &mut [Vector],
    ) -> Result<(), SimError> {
        let cols = out.len();
        let base = row * cols;
        if let Some(d) = instr.noc_conflict() {
            return Err(SimError::RouterConflict {
                cycle,
                pe: (row, 0),
                direction: d.to_string(),
            });
        }
        let n = cols as u64;
        self.activity.instrs += n;
        if instr.op.is_compute() {
            self.activity.compute_instrs += n;
        }
        if instr.op.is_mac() {
            self.activity.mac_instrs += n;
        }
        let RowScratch {
            op1,
            op2,
            res_in,
            popped,
        } = scratch;
        let want = instr.op != Opcode::Nop;
        let mut shared = false;
        // SDDMM's chain reads West as op2: those values come from the scan
        // below, and no link is popped.
        let chain = instr.op2 == Addr::Port(Direction::West);
        self.lockstep_operand(
            base,
            instr.op1,
            instr,
            links,
            row,
            cycle,
            want,
            popped,
            &mut shared,
            op1,
        )?;
        if !chain {
            self.lockstep_operand(
                base,
                instr.op2,
                instr,
                links,
                row,
                cycle,
                want,
                popped,
                &mut shared,
                op2,
            )?;
        }
        // Read-modify-write opcodes read the old result value here.
        if matches!(instr.op, Opcode::MacV | Opcode::MacS | Opcode::Acc) {
            match instr.res {
                a @ (Addr::Reg(_) | Addr::DataMem(_) | Addr::Spad(_)) => {
                    let mut unshared = false;
                    self.lockstep_operand(
                        base,
                        a,
                        instr,
                        links,
                        row,
                        cycle,
                        true,
                        popped,
                        &mut unshared,
                        res_in,
                    )?;
                }
                _ => res_in.fill(Vector::ZERO),
            }
        }
        if let Some(route) = instr.route {
            let routed = &mut self.routed[self.load_idx][base..base + cols];
            if shared {
                routed.copy_from_slice(popped);
            } else {
                lockstep_pop(links, route.from, row, cycle, routed)?;
            }
        }
        if chain {
            // The West→East chain as a row scan. Column `c`'s West pop pairs
            // with column `c − 1`'s East push of this same issue, which
            // commits one cycle before the pop in real time: `out[c]` is
            // this instruction's lane result with `out[c − 1]` as its West
            // operand, and column 0 reads the zero-source west edge.
            debug_assert!(
                instr.res == Addr::Port(Direction::East) && instr.route.is_none(),
                "a lockstep West read must be the chain (pop West, push East)"
            );
            links.note_west_pop(row, cycle);
            let mut prev = Vector::ZERO;
            for c in 0..cols {
                prev = Self::lane_result(instr.op, op1[c], prev, res_in[c]);
                out[c] = prev;
            }
            return Ok(());
        }
        match instr.op {
            // Write-back skips NOPs, but a reader of the result address
            // forwards the zero lane result.
            Opcode::Nop => {
                if instr.res != Addr::Null {
                    out.fill(Vector::ZERO);
                }
            }
            Opcode::Mov | Opcode::MovFlush => out.copy_from_slice(op1),
            Opcode::MacS => {
                for (((o, &acc), &x), &y) in out
                    .iter_mut()
                    .zip(res_in.iter())
                    .zip(op1.iter())
                    .zip(op2.iter())
                {
                    *o = acc.mac(Vector::splat(x.lane0()), y);
                }
            }
            op => {
                for (c, o) in out.iter_mut().enumerate() {
                    *o = Self::lane_result(op, op1[c], op2[c], res_in[c]);
                }
            }
        }
        Ok(())
    }

    /// Column-lockstep COMMIT of the instruction in `row`'s COMMIT slot on
    /// all `cols` PEs: write-back, flush-clear, and route push, with South
    /// pushes landing in the row link below (or the south sink). The
    /// row-granular [`PeArray::commit`]; eastward forwarding is
    /// implicit (every column runs the same issue).
    ///
    /// # Errors
    ///
    /// The errors column 0's scalar COMMIT raises, with the same messages.
    pub(crate) fn lockstep_commit_row(
        &mut self,
        row: usize,
        cols: usize,
        ring: &InstrRing,
        links: &mut RowLinks,
        cycle: u64,
    ) -> Result<(), SimError> {
        let base = row * cols;
        let cs = self.commit_idx();
        if self.state[cs][base] == Slot::Empty {
            return Ok(());
        }
        self.state[cs][base] = Slot::Empty;
        let instr = ring.get(self.handles[cs][base]);
        let n = self.n;
        let span = base..base + cols;
        if instr.op != Opcode::Nop {
            match instr.res {
                Addr::Null => {}
                Addr::Imm => {
                    return Err(SimError::AddressOutOfRange {
                        context: "write to immediate".into(),
                    })
                }
                Addr::Reg(i) => {
                    if i as usize >= NUM_REGS {
                        return Err(SimError::AddressOutOfRange {
                            context: format!("register r{i}"),
                        });
                    }
                    for (regs, &v) in self.regs[span.clone()]
                        .iter_mut()
                        .zip(&self.results[cs][span.clone()])
                    {
                        regs[i as usize] = v;
                    }
                }
                Addr::DataMem(a) => {
                    let a = a as usize;
                    if a >= self.dmem_words {
                        return Err(mem_oob("dmem", "write", a, self.dmem_words));
                    }
                    self.activity.dmem_writes += cols as u64;
                    self.dmem_dirty = self.dmem_dirty.max(a + 1);
                    self.dmem[a * n..][span.clone()]
                        .copy_from_slice(&self.results[cs][span.clone()]);
                }
                Addr::Spad(a) => {
                    let a = a as usize;
                    if a >= self.spad_entries {
                        return Err(mem_oob("spad", "write", a, self.spad_entries));
                    }
                    self.activity.spad_writes += cols as u64;
                    self.spad_dirty = self.spad_dirty.max(a + 1);
                    self.spad[a * n..][span.clone()]
                        .copy_from_slice(&self.results[cs][span.clone()]);
                }
                // The chain's East push: only the last column's value
                // leaves the array (the scan consumed the others at LOAD).
                Addr::Port(Direction::East) => links.push_east(
                    row,
                    cycle,
                    TaggedVector {
                        value: self.results[cs][base + cols - 1],
                        tag: instr.tag,
                    },
                ),
                Addr::Port(d) => {
                    let results = &self.results[cs][span.clone()];
                    lockstep_push(links, d, row, cycle, |dst| {
                        for (e, &value) in dst.iter_mut().zip(results) {
                            *e = TaggedVector {
                                value,
                                tag: instr.tag,
                            };
                        }
                    })?;
                }
            }
        }
        if matches!(instr.op, Opcode::MovFlush | Opcode::AddFlush) {
            match instr.op1 {
                Addr::Spad(a) => {
                    let a = a as usize;
                    if a >= self.spad_entries {
                        return Err(mem_oob("spad", "write", a, self.spad_entries));
                    }
                    self.activity.spad_writes += cols as u64;
                    self.spad[a * n..][span.clone()].fill(Vector::ZERO);
                }
                Addr::Reg(i) => {
                    if i as usize >= NUM_REGS {
                        return Err(SimError::AddressOutOfRange {
                            context: format!("register r{i}"),
                        });
                    }
                    for regs in &mut self.regs[span.clone()] {
                        regs[i as usize] = Vector::ZERO;
                    }
                }
                a => {
                    return Err(SimError::AddressOutOfRange {
                        context: format!("flush-clear of non-storage operand {a}"),
                    })
                }
            }
        }
        if let Some(route) = instr.route {
            let routed = &self.routed[cs][span];
            lockstep_push(links, route.to, row, cycle, |dst| {
                dst.copy_from_slice(routed)
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::LANES;

    fn grid1x1() -> LinkGrid {
        LinkGrid::new(1, 1, 4, false)
    }

    fn one_pe() -> PeArray {
        PeArray::new(1, 4, 4)
    }

    fn ring() -> InstrRing {
        InstrRing::with_capacity(16)
    }

    /// Runs a single instruction through a 1×1 array's PE.
    fn run_one(pes: &mut PeArray, grid: &mut LinkGrid, i: Instruction) {
        let mut ring = ring();
        let h = ring.intern(i);
        pes.load(0, h, &ring, grid, 0, 0, 0).unwrap();
        pes.advance();
        pes.advance();
        pes.commit(0, &ring, grid, 0, 0, 2).unwrap();
    }

    #[test]
    fn mov_imm_to_reg() {
        let mut pes = one_pe();
        let mut g = grid1x1();
        let i = Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Reg(1))
            .with_imm(Vector::splat(9));
        run_one(&mut pes, &mut g, i);
        assert_eq!(pes.reg(0, 1), Vector::splat(9));
        assert_eq!(
            pes.activity(),
            Activity {
                instrs: 1,
                ..Activity::default()
            }
        );
    }

    #[test]
    fn macs_accumulates_into_spad() {
        let mut pes = one_pe();
        let mut g = grid1x1();
        pes.pe_mut(0).dmem.preload(0, &[Vector([1, 2, 3, 4])]);
        let mac = Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(0), Addr::Spad(2))
            .with_imm(Vector::splat(3));
        run_one(&mut pes, &mut g, mac);
        run_one(&mut pes, &mut g, mac);
        assert_eq!(
            pes.activity(),
            Activity {
                instrs: 2,
                compute_instrs: 2,
                mac_instrs: 2,
                dmem_reads: 2,
                spad_reads: 2,
                spad_writes: 2,
                ..Activity::default()
            }
        );
        assert_eq!(pes.pe_mut(0).spad.read(2).unwrap(), Vector([6, 12, 18, 24]));
    }

    #[test]
    fn back_to_back_mac_forwarding() {
        // Two MACs to the same spad slot in consecutive cycles must see each
        // other's in-flight values (RAW across the pipeline).
        let mut pes = one_pe();
        let mut g = grid1x1();
        pes.pe_mut(0).dmem.preload(0, &[Vector::splat(1)]);
        let mac = Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(0), Addr::Spad(0))
            .with_imm(Vector::splat(1));
        let mut ring = ring();
        let h = ring.intern(mac);
        // Pipelined: issue 3 MACs back-to-back.
        pes.load(0, h, &ring, &mut g, 0, 0, 0).unwrap();
        pes.advance();
        pes.load(0, h, &ring, &mut g, 0, 0, 1).unwrap();
        pes.advance();
        pes.commit(0, &ring, &mut g, 0, 0, 2).unwrap();
        pes.load(0, h, &ring, &mut g, 0, 0, 2).unwrap();
        pes.advance();
        pes.commit(0, &ring, &mut g, 0, 0, 3).unwrap();
        pes.advance();
        pes.commit(0, &ring, &mut g, 0, 0, 4).unwrap();
        assert_eq!(pes.pe_mut(0).spad.read(0).unwrap(), Vector::splat(3));
    }

    #[test]
    fn movflush_clears_source() {
        let mut pes = one_pe();
        let mut g = LinkGrid::new(1, 1, 4, false);
        pes.pe_mut(0).spad.write(1, Vector::splat(7)).unwrap();
        let i = Instruction::new(
            Opcode::MovFlush,
            Addr::Spad(1),
            Addr::Null,
            Addr::Port(Direction::South),
        )
        .with_tag(42);
        run_one(&mut pes, &mut g, i);
        assert_eq!(pes.pe_mut(0).spad.read(1).unwrap(), Vector::ZERO);
        let out = g.vertical(1, 0).pop(3, "sink").unwrap();
        assert_eq!(out.tag, 42);
        assert_eq!(out.value, Vector::splat(7));
    }

    #[test]
    fn route_pass_through_preserves_tag() {
        let mut pes = one_pe();
        // 2-row grid so PE (0,0) has a real south link; feed its north edge.
        let mut g = LinkGrid::new(2, 1, 4, true);
        g.vertical(0, 0)
            .push(
                TaggedVector {
                    value: Vector::splat(5),
                    tag: 11,
                },
                0,
                "feed",
            )
            .unwrap();
        let i = Instruction::NOP;
        let i = Instruction {
            op: Opcode::Nop,
            ..i
        }
        .with_route(Direction::North, Direction::South);
        run_one(&mut pes, &mut g, i);
        let out = g.vertical(1, 0).pop(3, "t").unwrap();
        assert_eq!(out.tag, 11);
        assert_eq!(out.value, Vector::splat(5));
    }

    #[test]
    fn shared_pop_feeds_operand_and_route() {
        // Mov op1=North res=Spad with route North→South: one pop serves both.
        let mut pes = one_pe();
        let mut g = LinkGrid::new(2, 1, 4, true);
        g.vertical(0, 0)
            .push(
                TaggedVector {
                    value: Vector([1, 2, 3, 4]),
                    tag: 3,
                },
                0,
                "feed",
            )
            .unwrap();
        let i = Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::North),
            Addr::Null,
            Addr::Spad(0),
        )
        .with_route(Direction::North, Direction::South);
        run_one(&mut pes, &mut g, i);
        assert_eq!(pes.pe_mut(0).spad.read(0).unwrap(), Vector([1, 2, 3, 4]));
        let fwd = g.vertical(1, 0).pop(3, "t").unwrap();
        assert_eq!(fwd.tag, 3);
        assert_eq!(fwd.value, Vector([1, 2, 3, 4]));
    }

    #[test]
    fn pop_empty_link_is_protocol_error() {
        let mut pes = one_pe();
        let mut g = LinkGrid::new(2, 1, 4, true);
        let i = Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::North),
            Addr::Null,
            Addr::Reg(0),
        );
        let mut ring = ring();
        let h = ring.intern(i);
        assert!(matches!(
            pes.load(0, h, &ring, &mut g, 0, 0, 0),
            Err(SimError::Deadlock { .. })
        ));
    }

    #[test]
    fn router_conflict_detected_at_load() {
        let mut pes = one_pe();
        let mut g = grid1x1();
        let i = Instruction::new(
            Opcode::Mov,
            Addr::Port(Direction::North),
            Addr::Port(Direction::North),
            Addr::Reg(0),
        );
        let mut ring = ring();
        let h = ring.intern(i);
        assert!(matches!(
            pes.load(0, h, &ring, &mut g, 0, 0, 0),
            Err(SimError::RouterConflict { .. })
        ));
    }

    #[test]
    fn redsum_and_addflush() {
        let mut pes = one_pe();
        let mut g = grid1x1();
        // reg0 = [1,2,3,4]
        run_one(
            &mut pes,
            &mut g,
            Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Reg(0))
                .with_imm(Vector([1, 2, 3, 4])),
        );
        // reg1 = redsum(reg0) = 10 in lane 0
        run_one(
            &mut pes,
            &mut g,
            Instruction::new(Opcode::RedSum, Addr::Reg(0), Addr::Null, Addr::Reg(1)),
        );
        assert_eq!(pes.reg(0, 1), Vector([10, 0, 0, 0]));
        // AddFlush: reg2 = reg0 + reg1; reg0 cleared.
        run_one(
            &mut pes,
            &mut g,
            Instruction::new(Opcode::AddFlush, Addr::Reg(0), Addr::Reg(1), Addr::Reg(2)),
        );
        assert_eq!(pes.reg(0, 2), Vector([11, 2, 3, 4]));
        assert_eq!(pes.reg(0, 0), Vector::ZERO);
    }

    #[test]
    fn nop_produces_no_activity() {
        let mut pes = one_pe();
        let mut g = grid1x1();
        run_one(&mut pes, &mut g, Instruction::NOP);
        assert_eq!(
            pes.activity(),
            Activity {
                instrs: 1,
                ..Activity::default()
            }
        );
        assert!(pes.pipeline_empty(0));
    }

    #[test]
    fn nop_with_port_result_does_not_push() {
        // `Nop` skips write-back entirely, so a south result address on a
        // NOP must not touch the link (matches the slow path's behaviour).
        let mut pes = one_pe();
        let mut g = LinkGrid::new(1, 1, 4, false);
        let i = Instruction::new(
            Opcode::Nop,
            Addr::Null,
            Addr::Null,
            Addr::Port(Direction::South),
        );
        run_one(&mut pes, &mut g, i);
        assert!(g.vertical(1, 0).is_empty());
        assert_eq!(
            pes.activity(),
            Activity {
                instrs: 1,
                ..Activity::default()
            }
        );
    }

    #[test]
    fn reset_zeroes_every_row_a_write_path_dirtied() {
        let mut pes = PeArray::new(4, 8, 8);
        let v = Vector::splat(3);
        pes.pe_mut(1).dmem.preload(5, &[v]);
        pes.pe_mut(2).dmem.write(2, v).unwrap();
        pes.pe_mut(3).spad.write(6, v).unwrap();
        pes.dmem_row_mut(1).fill(v);
        assert_eq!((pes.dmem_dirty, pes.spad_dirty), (6, 7));
        pes.reset();
        assert_eq!((pes.dmem_dirty, pes.spad_dirty), (0, 0));
        assert!(pes.dmem.iter().chain(&pes.spad).all(|&w| w == Vector::ZERO));
    }

    #[test]
    fn soa_array_isolates_pes() {
        // Two PEs in one array: state updates stay per-index.
        let mut pes = PeArray::new(2, 4, 4);
        let mut g = LinkGrid::new(1, 2, 4, false);
        let i0 = Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Reg(0))
            .with_imm(Vector::splat(1));
        let i1 = Instruction::new(Opcode::Mov, Addr::Imm, Addr::Null, Addr::Reg(0))
            .with_imm(Vector::splat(2));
        let mut ring = ring();
        let h0 = ring.intern(i0);
        let h1 = ring.intern(i1);
        pes.load(0, h0, &ring, &mut g, 0, 0, 0).unwrap();
        pes.load(1, h1, &ring, &mut g, 0, 1, 0).unwrap();
        pes.advance();
        pes.advance();
        pes.commit(0, &ring, &mut g, 0, 0, 2).unwrap();
        pes.commit(1, &ring, &mut g, 0, 1, 2).unwrap();
        assert_eq!(pes.reg(0, 0), Vector::splat(1));
        assert_eq!(pes.reg(1, 0), Vector::splat(2));
        assert_eq!(
            pes.activity(),
            Activity {
                instrs: 2,
                ..Activity::default()
            }
        );
        assert_eq!(LANES, 4);
    }
}
