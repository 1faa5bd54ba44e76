//! The column-lockstep engine (see the engine table in [`crate::fabric`]).
//!
//! Time-lapsed SIMD sends each issued instruction along its row one column
//! every 3 cycles, so column `c` executes exactly column 0's instruction
//! sequence `3c` cycles later. The engine therefore steps time in column
//! 0's frame: at column-0 cycle `T` the orchestrators step exactly as in
//! the scalar engine, then each live row COMMITs its issue from `T − 2` and
//! LOADs its issue from `T` on all `cols` PEs at once
//! ([`PeArray::lockstep_commit_row`](crate::pe::PeArray) and
//! `lockstep_load_row`), over the row links of
//! [`RowLinks`](crate::noc::RowLinks). That is exact when no column can
//! observe another out of the shifted order, which holds for three kinds of
//! dataflow.
//!
//! **Vertical links.** Column `c`'s southbound links see column 0's
//! push/pop order shifted by `3c`, so one `cols`-wide FIFO per row stands
//! for all of them.
//!
//! **North-edge feeders.** The feeder phase pushes at most one token per
//! column per cycle while the column's edge FIFO holds fewer than
//! `link_fifo_depth` tokens, before the orchestrator phase. Row link 0's
//! length follows column 0's FIFO exactly (it is row 0's `north_tokens`),
//! and row 0's `k`-th North pop reads token `k` of every column's stream.
//! Those tokens are there when every stream has the same length (the
//! engine's gate; otherwise the scalar engine runs):
//!
//! * *No underflow.* Let `P_c(t)` be the tokens pushed into column `c` by
//!   cycle `t`. Column `c` pops exactly as column 0 does, `3c` cycles later.
//!   By induction on `t`, `P_c(t + 3c) ≥ P_0(t)`: while `P_c(t + 3c) >
//!   P_0(t)` a single push by column 0 cannot overtake it, and when the two
//!   counts are equal the two occupancies are equal too (equal pushes, equal
//!   pops), so column 0 pushing at `t + 1` means column `c`'s identical push
//!   condition holds at `t + 1 + 3c` (the streams have equal length). So a
//!   column-`c` pop never finds its FIFO empty where column 0's pop did not.
//! * *Activity.* Column `c`'s FIFO does not follow column 0's (every column
//!   starts filling at cycle 0), and a token on it keeps PE `(0, c)` active
//!   before the popping instruction arrives. The feeder phase therefore
//!   tracks every column's occupancy — its pushes, and column 0's cumulative
//!   pops `3c` cycles back — and counts PE `(0, c)` when its FIFO holds a
//!   token while its shifted pipeline is idle. That costs O(cols) per cycle
//!   while any feeder token is pending or queued, and nothing afterwards.
//!
//! **The West→East chain.** SDDMM's chain instruction adds the west
//! neighbour's partial and pushes the sum East. In column 0's frame, column
//! `c`'s West pop at issue cycle `T` pairs with column `c − 1`'s East push
//! of the same issue, which commits at frame `T + 2` — after the LOAD that
//! consumes it. In real time, though, the push lands at `T + 3c − 1`, one
//! cycle before the pop at `T + 3c`, and chain issues of one row are at
//! least `W + 1 ≥ 2` cycles apart, so it is the only entry on the link. The
//! LOAD therefore resolves the whole row as a left-to-right scan, `out[c] =
//! Reg0[c] + out[c − 1]` with column 0 reading the zero west edge, and the
//! COMMIT sends only the last column's value to the east sink, stamped with
//! its real exit cycle `frame + 3·(cols − 1)`. Exactness needs the chain to
//! be the row's only West/East instruction, which is what
//! [`RowProgram::lockstep_safe`] admits.
//!
//! The column shift is derived, not simulated:
//!
//! * south-edge exits of column `c` are stamped `T + 3c` and merged into
//!   (cycle, column) order when the run ends; east-edge exits are already in
//!   (cycle, row) order; both keep only exits before an abort cycle;
//! * the active set holds column 0 only; a ring of its per-cycle size gives
//!   the scalar engine's active PEs at cycle `X` as `Σ_c live(X − 3c)` plus
//!   the feeder term above, so [`Stats::active_pe_cycles`](crate::Stats)
//!   and the end of the run (column 0 drained, then the lagging columns) are
//!   the scalar engine's exactly;
//! * errors fire at column 0 first, at the same cycle with the same message.

use super::{Fabric, Inject};
use crate::noc::RowLinks;
use crate::orchestrator::RowProgram;
use crate::SimError;

/// Lockstep state of one fabric.
#[derive(Debug)]
pub(super) struct Lockstep {
    /// Whether the current [`Fabric::run`] executes in lockstep.
    pub(super) engaged: bool,
    /// The row-granular links.
    pub(super) links: RowLinks,
    /// Column 0's per-cycle activity as the lagging columns replay it —
    /// active rows, with row 0 counted by its pipeline alone (the lagging
    /// columns' edge FIFOs are counted by the feeder phase) — indexed by
    /// `cycle & (len − 1)` (at least `3·cols` deep).
    live: Vec<u64>,
    /// Row 0's pipeline activity per cycle, indexed like `live`.
    pipe0: Vec<bool>,
    /// `Σ_{c=1}^{cols−1} live(X − 3c)` for the last cycle `X` of each
    /// residue mod 3 (the sum obeys `S(X) = S(X − 3) + live(X − 3) −
    /// live(X − 3·cols)`).
    lagging: [u64; 3],
    /// That sum for the current cycle: the active PEs of columns `1..cols`,
    /// which lag column 0, apart from the feeder term. The run cannot end
    /// while it is nonzero.
    pub(super) lagging_now: u64,
    /// North-edge feeder state.
    feed: Feed,
}

/// The north-edge feeders of a lockstep run (see the module docs).
#[derive(Debug)]
struct Feed {
    /// Tokens per column stream (all streams have this length).
    tokens: usize,
    /// Tokens pushed into each column's edge FIFO so far.
    pushed: Vec<usize>,
    /// Row 0's cumulative North pops at the end of each cycle, indexed
    /// like [`Lockstep::live`].
    pops: Vec<usize>,
    /// Whether a column still has tokens to push, or a lagging column
    /// tokens queued: the feeder phase runs only then.
    live: bool,
    /// Link pushes of the feeders (NoC hops).
    pushes: u64,
}

impl Lockstep {
    pub(super) fn new(rows: usize, cols: usize, link_depth: usize) -> Lockstep {
        let ring = (3 * cols).next_power_of_two();
        Lockstep {
            engaged: false,
            links: RowLinks::new(rows, cols, link_depth),
            live: vec![0; ring],
            pipe0: vec![false; ring],
            lagging: [0; 3],
            lagging_now: 0,
            feed: Feed {
                tokens: 0,
                pushed: vec![0; cols],
                pops: vec![0; ring],
                live: false,
                pushes: 0,
            },
        }
    }

    /// Back to the post-construction state (fabric reuse).
    pub(super) fn reset(&mut self) {
        self.engaged = false;
        self.links.clear();
        self.live.fill(0);
        self.pipe0.fill(false);
        self.lagging = [0; 3];
        self.lagging_now = 0;
        self.feed.tokens = 0;
        self.feed.pushed.fill(0);
        self.feed.pops.fill(0);
        self.feed.live = false;
        self.feed.pushes = 0;
    }

    /// True when no lockstep run is engaged and no state is left over.
    pub(super) fn is_pristine(&self) -> bool {
        !self.engaged
            && self.links.is_clear()
            && self.lagging_now == 0
            && self.lagging == [0; 3]
            && self.live.iter().all(|&l| l == 0)
            && self.pipe0.iter().all(|&p| !p)
            && self.feed.tokens == 0
            && self.feed.pushed.iter().all(|&p| p == 0)
            && self.feed.pops.iter().all(|&p| p == 0)
            && !self.feed.live
            && self.feed.pushes == 0
    }

    /// Link pushes of the run so far (the report's NoC hops).
    pub(super) fn noc_hops(&self, cols: usize) -> u64 {
        self.links.pushes() * cols as u64 + self.feed.pushes
    }

    fn slot(&self, t: u64) -> usize {
        (t & (self.live.len() as u64 - 1)) as usize
    }

    fn live_at(&self, t: u64) -> u64 {
        self.live[self.slot(t)]
    }

    /// Records cycle `now`'s column-0 activity and derives the lagging
    /// columns' active PEs for cycle `now + 1`.
    fn advance(&mut self, now: u64, live: u64, pipe0: bool, cols: usize) {
        let i = self.slot(now);
        self.live[i] = live;
        self.pipe0[i] = pipe0;
        self.feed.pops[i] = self.links.north_popped();
        let x = now + 1;
        let lag = 3 * cols as u64;
        let entering = if x >= 3 { self.live_at(x - 3) } else { 0 };
        let leaving = if x >= lag { self.live_at(x - lag) } else { 0 };
        let s = &mut self.lagging[(x % 3) as usize];
        *s = *s + entering - leaving;
        self.lagging_now = *s;
    }
}

impl Fabric {
    /// Whether this [`Fabric::run`] may take the lockstep engine: a fresh,
    /// untraced fabric (cycle 0) with the fast engine on
    /// ([`crate::CanonConfig::lockstep`]), north-edge feeder streams of equal
    /// length (or no feeder at all), and only lockstep-safe row programs
    /// ([`RowProgram::lockstep_safe`]).
    pub(super) fn lockstep_eligible(&self) -> bool {
        let feeders_ok = if self.north_feeder {
            self.feeders
                .iter()
                .all(|f| f.len() == self.feeders[0].len())
        } else {
            self.feeders_pending == 0
        };
        self.cycle == 0
            && self.cfg.lockstep
            && self.trace.is_none()
            && feeders_ok
            && self
                .rows
                .programs
                .iter()
                .all(|p| p.as_ref().is_none_or(RowProgram::lockstep_safe))
    }

    /// Starts a lockstep run (the fabric is fresh, so links, the activity
    /// ring and the collectors are clear). The edge sinks take over the
    /// collectors' storage for the run, and a feeder fabric's streams back
    /// row link 0.
    pub(super) fn lockstep_engage(&mut self) {
        debug_assert!(self.lockstep.is_pristine(), "lockstep state left over");
        debug_assert!(
            self.south_collected.is_empty() && self.east_collected.is_empty(),
            "collector not empty"
        );
        let ls = &mut self.lockstep;
        ls.links.allocate();
        std::mem::swap(&mut ls.links.sink, &mut self.south_collected);
        std::mem::swap(&mut ls.links.east_sink, &mut self.east_collected);
        if self.north_feeder {
            ls.links.feed_north(&self.feeders);
            ls.feed.tokens = self.feeders[0].len();
            ls.feed.live = ls.feed.tokens > 0;
        }
        ls.engaged = true;
    }

    /// Ends a lockstep run at the current cycle: the collectors get back
    /// the edge exits the scalar engine would have collected by now (every
    /// exit of a drained run; on an abort, those before the abort cycle),
    /// in its (cycle, lane) order, and the feeders give up the tokens they
    /// pushed.
    pub(super) fn lockstep_finish(&mut self) {
        let end = self.cycle;
        let ls = &mut self.lockstep;
        std::mem::swap(&mut ls.links.sink, &mut self.south_collected);
        std::mem::swap(&mut ls.links.east_sink, &mut self.east_collected);
        self.south_collected.retain(|e| e.cycle < end);
        self.south_collected
            .sort_unstable_by_key(|e| (e.cycle, e.lane));
        // Every east exit is stamped `frame + 3·(cols − 1)` and rows push in
        // ascending order within a frame: already in (cycle, row) order.
        debug_assert!(self
            .east_collected
            .windows(2)
            .all(|w| (w[0].cycle, w[0].lane) < (w[1].cycle, w[1].lane)));
        self.east_collected.retain(|e| e.cycle < end);
        for (f, &n) in self.feeders.iter_mut().zip(&ls.feed.pushed) {
            f.drain(..n);
        }
        ls.engaged = false;
    }

    /// The feeder phase of column-0 cycle `now` (the lockstep twin of
    /// [`Fabric::step`]'s phase 1, for every column): pushes at most one
    /// token per column, and returns how many lagging row-0 PEs only their
    /// edge FIFO keeps active.
    fn lockstep_feed(&mut self, now: u64) -> u64 {
        let depth = self.cfg.link_fifo_depth;
        let ls = &mut self.lockstep;
        let mut queued_only = 0;
        let mut live = false;
        for c in 0..self.cfg.cols {
            let lag = 3 * c as u64;
            // Column c has popped, by the end of cycle now − 1, what column
            // 0 had popped by the end of cycle now − 1 − 3c.
            let popped = if now > lag {
                ls.feed.pops[ls.slot(now - 1 - lag)]
            } else {
                0
            };
            let pushed = &mut ls.feed.pushed[c];
            debug_assert!(*pushed >= popped, "column {c}'s edge FIFO underflowed");
            let mut queued = *pushed - popped;
            if *pushed < ls.feed.tokens && queued < depth {
                *pushed += 1;
                queued += 1;
                ls.feed.pushes += 1;
                self.extra_offchip_read += self.feeder_bytes_per_token;
                if *pushed == ls.feed.tokens {
                    self.feeders_pending -= 1;
                }
                if c == 0 {
                    ls.links.push_north();
                    self.active.insert(0);
                }
            }
            live |= *pushed < ls.feed.tokens;
            if c == 0 {
                debug_assert_eq!(queued, ls.links.len(0), "row link 0 left column 0");
            } else if queued > 0 {
                live = true;
                if now < lag || !ls.pipe0[ls.slot(now - lag)] {
                    queued_only += 1;
                }
            }
        }
        ls.feed.live = live;
        queued_only
    }

    /// Advances one column-0 cycle: the feeder phase, the orchestrator
    /// phase (shared with [`Fabric::step`]), then COMMIT + LOAD of every
    /// live row across all columns, in ascending row order — the same
    /// push-before-pop order per link as the scalar sweep.
    pub(super) fn lockstep_step(&mut self) -> Result<(), SimError> {
        let now = self.cycle;
        let cols = self.cfg.cols;
        let nrows = self.cfg.rows;
        let queued_only = if self.lockstep.feed.live {
            self.lockstep_feed(now)
        } else {
            0
        };
        self.orchestrate(now)?;
        let live = self.active.count() as u64;
        let pe_cycles = live + self.lockstep.lagging_now + queued_only;
        self.active_pe_cycles += pe_cycles;
        self.batched_pe_cycles += pe_cycles;
        // Row 0's activity without its edge FIFO, which is what the lagging
        // columns replay `3c` cycles later.
        let pipe0 = !self.pes.pipeline_empty(0) || self.inject_now.kind[0] == Inject::Instr;
        let replayed = live - u64::from(self.active.contains(0)) + u64::from(pipe0);
        for r in 0..nrows {
            let idx = r * cols;
            if !self.active.contains(idx) {
                continue;
            }
            let eff =
                self.pes
                    .lockstep_commit_row(r, cols, &self.ring, &mut self.lockstep.links, now)?;
            if eff.drives_south && r + 1 < nrows {
                self.active.insert(idx + cols);
            }
            if self.inject_now.kind[idx] == Inject::Instr {
                self.inject_now.kind[idx] = Inject::None;
                self.pes.lockstep_load_row(
                    r,
                    cols,
                    self.inject_now.handle[idx],
                    &self.ring,
                    &mut self.lockstep.links,
                    now,
                )?;
            } else if self.pes.pipeline_empty(idx) && self.lockstep.links.len(r) == 0 {
                self.active.remove(idx);
            }
        }
        self.pes.advance();
        self.lockstep.advance(now, replayed, pipe0, cols);
        self.cycle += 1;
        Ok(())
    }
}
