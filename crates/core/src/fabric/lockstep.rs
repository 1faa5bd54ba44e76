//! The column-lockstep engine (see the engine table in [`crate::fabric`]).
//!
//! Time-lapsed SIMD sends each issued instruction along its row one column
//! every 3 cycles, so column `c` executes exactly column 0's instruction
//! sequence `3c` cycles later. When the dataflow is vertical-only — no
//! north-edge feeders, no West/East ports — nothing a column does can be
//! observed by another column, and column `c`'s southbound links see
//! column 0's push/pop order shifted by `3c`. The engine therefore steps
//! time in column 0's frame: at column-0 cycle `T` the orchestrators step
//! exactly as in the scalar engine, then each live row COMMITs its issue
//! from `T − 2` and LOADs its issue from `T` on all `cols` PEs at once
//! ([`PeArray::lockstep_commit_row`](crate::pe::PeArray) and
//! `lockstep_load_row`), over the row links of
//! [`RowLinks`](crate::noc::RowLinks).
//!
//! The column shift is derived, not simulated:
//!
//! * south-edge exits of column `c` are stamped `T + 3c` and merged into
//!   (cycle, column) order when the run ends;
//! * the active set holds column 0 only; a ring of its per-cycle size gives
//!   the scalar engine's active PEs at cycle `X` as
//!   `Σ_c live(X − 3c)`, so [`Stats::active_pe_cycles`](crate::Stats) and
//!   the end of the run (column 0 drained, then the lagging columns) are the
//!   scalar engine's exactly;
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
    /// The row-granular southbound links.
    pub(super) links: RowLinks,
    /// Column 0's active-row count per cycle, indexed by
    /// `cycle & (len − 1)` (at least `3·cols` deep).
    live: Vec<u64>,
    /// `Σ_{c=1}^{cols−1} live(X − 3c)` for the last cycle `X` of each
    /// residue mod 3 (the sum obeys `S(X) = S(X − 3) + live(X − 3) −
    /// live(X − 3·cols)`).
    lagging: [u64; 3],
    /// That sum for the current cycle: the active PEs of columns `1..cols`,
    /// which lag column 0. The run cannot end while it is nonzero.
    pub(super) lagging_now: u64,
}

impl Lockstep {
    pub(super) fn new(rows: usize, cols: usize, link_depth: usize) -> Lockstep {
        Lockstep {
            engaged: false,
            links: RowLinks::new(rows, cols, link_depth),
            live: vec![0; (3 * cols).next_power_of_two()],
            lagging: [0; 3],
            lagging_now: 0,
        }
    }

    /// Back to the post-construction state (fabric reuse).
    pub(super) fn reset(&mut self) {
        self.engaged = false;
        self.links.clear();
        self.live.fill(0);
        self.lagging = [0; 3];
        self.lagging_now = 0;
    }

    /// True when no lockstep run is engaged and no state is left over.
    pub(super) fn is_pristine(&self) -> bool {
        !self.engaged
            && self.links.is_clear()
            && self.lagging_now == 0
            && self.lagging == [0; 3]
            && self.live.iter().all(|&l| l == 0)
    }

    fn live_at(&self, t: u64) -> u64 {
        self.live[(t & (self.live.len() as u64 - 1)) as usize]
    }

    /// Records cycle `now`'s column-0 active rows and derives the lagging
    /// columns' active PEs for cycle `now + 1`.
    fn advance(&mut self, now: u64, live: u64, cols: usize) {
        let mask = self.live.len() as u64 - 1;
        self.live[(now & mask) as usize] = live;
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
    /// ([`crate::CanonConfig::replay`]), no north-edge feeders, and only
    /// vertical-only row programs ([`RowProgram::is_vertical_only`]).
    pub(super) fn lockstep_eligible(&self) -> bool {
        self.cycle == 0
            && self.cfg.replay
            && self.trace.is_none()
            && !self.north_feeder
            && self.feeders_pending == 0
            && self
                .rows
                .programs
                .iter()
                .all(|p| p.as_ref().is_none_or(RowProgram::is_vertical_only))
    }

    /// Starts a lockstep run (the fabric is fresh, so links, the activity
    /// ring and the collectors are clear). The south sink takes over the
    /// collector's storage for the run.
    pub(super) fn lockstep_engage(&mut self) {
        debug_assert!(self.lockstep.is_pristine(), "lockstep state left over");
        debug_assert!(self.south_collected.is_empty(), "collector not empty");
        self.lockstep.links.allocate();
        std::mem::swap(&mut self.lockstep.links.sink, &mut self.south_collected);
        self.lockstep.engaged = true;
    }

    /// Ends a lockstep run at the current cycle: the collector gets back
    /// the south-edge exits the scalar engine would have collected by now
    /// (every exit of a drained run; on an abort, those before the abort
    /// cycle), in its (cycle, column) order.
    pub(super) fn lockstep_finish(&mut self) {
        let end = self.cycle;
        std::mem::swap(&mut self.lockstep.links.sink, &mut self.south_collected);
        self.south_collected.retain(|e| e.cycle < end);
        self.south_collected
            .sort_unstable_by_key(|e| (e.cycle, e.lane));
        self.lockstep.engaged = false;
    }

    /// Advances one column-0 cycle: the orchestrator phase (shared with
    /// [`Fabric::step`]), then COMMIT + LOAD of every live row across all
    /// columns, in ascending row order — the same push-before-pop order per
    /// link as the scalar sweep.
    pub(super) fn lockstep_step(&mut self) -> Result<(), SimError> {
        let now = self.cycle;
        let cols = self.cfg.cols;
        let nrows = self.cfg.rows;
        self.orchestrate(now)?;
        let live = self.active.count() as u64;
        let pe_cycles = live + self.lockstep.lagging_now;
        self.active_pe_cycles += pe_cycles;
        self.batched_pe_cycles += pe_cycles;
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
        self.lockstep.advance(now, live, cols);
        self.cycle += 1;
        Ok(())
    }
}
