//! Architecture configuration (Table 1).

use crate::fault::FaultAction;
use crate::isa::LANES;

/// Configuration of a Canon fabric instance.
///
/// The default reproduces Table 1 of the paper: an 8×8 array of 4-SIMD INT8
/// PEs, 4 KB data memory per PE (288 KB overall including edge buffers), a
/// dual-port scratchpad, one orchestrator per PE row, and LPDDR5X-class
/// off-chip bandwidth.
///
/// # Examples
///
/// ```
/// use canon_core::CanonConfig;
/// let cfg = CanonConfig::default();
/// assert_eq!((cfg.rows, cfg.cols), (8, 8));
/// assert_eq!(cfg.mac_units(), 256);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CanonConfig {
    /// Number of PE rows (one orchestrator each).
    pub rows: usize,
    /// Number of PE columns.
    pub cols: usize,
    /// Data-memory words per PE (one 4-wide vector per word). 1024 words of
    /// 4×INT8 = 4 KB (Table 1).
    pub dmem_words: usize,
    /// Scratchpad entries per PE (one vector each). §6.5 evaluates depths
    /// 1–64 and uses 16 by default.
    pub spad_entries: usize,
    /// PE pipeline depth; also the per-hop latency of the staggered
    /// instruction network ("a fixed pipeline latency of 3 cycles", §2.1).
    pub pipe_depth: usize,
    /// Capacity, in entries, of each inter-PE NoC FIFO (credit window of the
    /// dynamically-managed circuit switching). The default is sized so the
    /// credit round-trip (2-cycle message latency each way) sustains one
    /// transfer per cycle per link, the circuit-switched NoC's line rate.
    pub link_fifo_depth: usize,
    /// Orchestrator-to-orchestrator message latency in cycles.
    pub orch_msg_latency: u64,
    /// Capacity of each orchestrator-to-orchestrator message channel.
    pub orch_msg_capacity: usize,
    /// Off-chip bandwidth in bytes per cycle (17 GB/s at 1 GHz = 17 B/cycle
    /// for the single-die LPDDR5X ×16 configuration).
    pub offchip_bytes_per_cycle: f64,
    /// Watchdog: the simulation aborts with a deadlock error after
    /// `watchdog_factor × (expected work) + watchdog_slack` cycles.
    pub watchdog_factor: u64,
    /// Additive slack for the watchdog.
    pub watchdog_slack: u64,
    /// Simulator-host knob (not an architectural parameter): enables the
    /// column-vectorized batch fast path over the SoA slabs. Architecturally
    /// invisible either way — cycle counts, stats, and collector streams are
    /// identical (pinned by `tests/batch_column.rs`); disable only for
    /// differential testing or A/B throughput measurement.
    pub batching: bool,
    /// Simulator-host knob (not an architectural parameter): fast engines,
    /// replay and lockstep. On, a [`Fabric::run`](crate::Fabric::run) that
    /// starts on a fresh vertical-only fabric takes the column-lockstep
    /// engine (each row issue simulated once across all columns; see the
    /// engine table in `canon_core::fabric`), and every other run may
    /// take the steady-state replay engine, which detects stretches of
    /// cycles in which every row issues the same uniform MAC shape and
    /// fast-forwards them — the PE-array sweep is deferred and settled
    /// arithmetically when the stretch ends (see `canon_core::replay`).
    /// Off, every run steps each PE every cycle: the reference the
    /// differential tests (`tests/replay_differential.rs`,
    /// `tests/lockstep_differential.rs`) compare against. Architecturally
    /// invisible either way — cycle counts, stats (including the stall
    /// breakdown), and collector streams are identical; only the
    /// `Stats::replayed_cycles`/`Stats::replay_stretches`/
    /// `Stats::batched_pe_cycles` diagnostics differ. Both engines stay
    /// off while a trace sink is attached or the polling shadow engine is
    /// forced. Disable only for differential testing or A/B throughput
    /// measurement.
    pub replay: bool,
    /// Harness knob: hard ceiling on simulated cycles per `Fabric::run`
    /// call. `None` (the default) leaves only the deadlock watchdog;
    /// `Some(n)` aborts a still-live run after `n` cycles with
    /// [`crate::SimError::Timeout`], returning partial stats. Sweep cells
    /// include this in their cache fingerprint when set, since a raised
    /// ceiling can change a cell's outcome.
    pub max_cycles: Option<u64>,
    /// Harness knob: wall-clock budget per `Fabric::run` call in
    /// nanoseconds. Checked periodically inside the cycle loop (so the
    /// hot path stays branch-predictable); exceeding it aborts with
    /// [`crate::SimError::Timeout`] and partial stats. `None` disables
    /// the check.
    pub wall_budget_ns: Option<u64>,
    /// Harness knob: deterministic fault injected into this run (see
    /// [`crate::fault`]). `None` (the default) costs nothing on the hot
    /// path — the per-cycle sentinels are pre-extracted at `run` entry.
    pub fault: Option<FaultAction>,
}

impl Default for CanonConfig {
    fn default() -> Self {
        CanonConfig {
            rows: 8,
            cols: 8,
            dmem_words: 1024,
            spad_entries: 16,
            pipe_depth: 3,
            link_fifo_depth: 8,
            orch_msg_latency: 2,
            orch_msg_capacity: 4,
            offchip_bytes_per_cycle: 17.0,
            watchdog_factor: 64,
            watchdog_slack: 10_000,
            batching: true,
            replay: true,
            max_cycles: None,
            wall_budget_ns: None,
            fault: None,
        }
    }
}

impl CanonConfig {
    /// A configuration scaled by an integer factor in both dimensions
    /// (used by the Fig 15 scalability experiment).
    pub fn scaled(&self, factor: usize) -> CanonConfig {
        self.with_geometry(self.rows * factor, self.cols * factor)
    }

    /// The same configuration at a different fabric geometry — the single
    /// entry point geometry sweeps use to derive per-cell configurations
    /// (memories, latencies, and watchdog settings carry over).
    pub fn with_geometry(&self, rows: usize, cols: usize) -> CanonConfig {
        CanonConfig {
            rows,
            cols,
            ..self.clone()
        }
    }

    /// The fabric geometry `(rows, cols)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of PEs.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Total INT8 MAC units (each PE has a [`LANES`]-wide lane).
    pub fn mac_units(&self) -> usize {
        self.pe_count() * LANES
    }

    /// Total data-memory capacity in bytes (INT8 elements, [`LANES`] per
    /// word).
    pub fn dmem_bytes_total(&self) -> usize {
        self.pe_count() * self.dmem_words * LANES
    }

    /// Scratchpad bytes per PE (INT8 elements).
    pub fn spad_bytes_per_pe(&self) -> usize {
        self.spad_entries * LANES
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.rows == 0 || self.cols == 0 {
            return Err("array must have at least one row and column".into());
        }
        if self.dmem_words == 0 {
            return Err("data memory must be non-empty".into());
        }
        if self.spad_entries == 0 {
            return Err("scratchpad must have at least one entry".into());
        }
        if self.pipe_depth == 0 {
            return Err("pipeline depth must be at least 1".into());
        }
        if self.link_fifo_depth < 2 {
            return Err("link FIFOs need capacity >= 2 for staggered transfers".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CanonConfig::default();
        assert_eq!(c.pe_count(), 64);
        assert_eq!(c.mac_units(), 256);
        // 4 KB per PE => 256 KB across the array (Table 1's 288 KB includes
        // edge stream buffers which are modelled separately).
        assert_eq!(c.dmem_bytes_total(), 256 * 1024);
        assert_eq!(c.spad_bytes_per_pe(), 64);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaled_multiplies_dimensions() {
        let c = CanonConfig::default().scaled(2);
        assert_eq!(c.geometry(), (16, 16));
        assert_eq!(c.mac_units(), 1024);
    }

    #[test]
    fn with_geometry_preserves_other_fields() {
        let base = CanonConfig {
            spad_entries: 32,
            ..CanonConfig::default()
        };
        let c = base.with_geometry(16, 8);
        assert_eq!(c.geometry(), (16, 8));
        assert_eq!(c.spad_entries, 32);
        assert_eq!(c.mac_units(), 16 * 8 * LANES);
    }

    #[test]
    fn validate_rejects_degenerate() {
        let c = CanonConfig {
            rows: 0,
            ..CanonConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CanonConfig {
            spad_entries: 0,
            ..CanonConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CanonConfig {
            link_fifo_depth: 1,
            ..CanonConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
