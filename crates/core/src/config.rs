//! Architecture configuration (Table 1).

use crate::fault::FaultAction;
use crate::isa::LANES;

/// Configuration of a Canon fabric instance.
///
/// The default reproduces Table 1 of the paper: an 8×8 array of 4-SIMD INT8
/// PEs, 4 KB data memory per PE (288 KB overall including edge buffers), a
/// dual-port scratchpad, and one orchestrator per PE row. Parameters no run
/// varies are constants: [`crate::isa::PIPE_DEPTH`], the orchestrator
/// channel's [`crate::orchestrator::MSG_LATENCY`] and `MSG_CAPACITY`, the
/// off-chip [`crate::offchip::LPDDR5X_X16_GBPS`], and the deadlock
/// watchdog's [`crate::fabric::WATCHDOG_FACTOR`] and `WATCHDOG_SLACK`.
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
    /// Capacity, in entries, of each inter-PE NoC FIFO (credit window of the
    /// dynamically-managed circuit switching). The default is sized so the
    /// credit round-trip ([`crate::orchestrator::MSG_LATENCY`] cycles each
    /// way) sustains one transfer per cycle per link, the circuit-switched
    /// NoC's line rate.
    pub link_fifo_depth: usize,
    /// Simulator-host knob (not an architectural parameter): the
    /// column-lockstep engine. On, a [`Fabric::run`](crate::Fabric::run)
    /// that starts on a fresh fabric (traced or not) whose rows are all
    /// lockstep-safe (GEMM, SpMM, N:M, SDDMM and Window) and whose feeder
    /// streams have equal length simulates each row issue once across all
    /// columns (see the engine table in `canon_core::fabric`). Off, every
    /// run steps each PE every cycle: the per-PE reference that
    /// `tests/lockstep_differential.rs` and `repro --per-pe` compare
    /// against. Architecturally invisible either way — cycle counts, stats
    /// (including the stall breakdown), and collector streams are
    /// identical; only the `Stats::batched_pe_cycles` diagnostic and
    /// [`RunReport::engine`](crate::RunReport) differ.
    pub lockstep: bool,
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
            link_fifo_depth: 8,
            lockstep: true,
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
    /// (memories, FIFO depths and harness knobs carry over).
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
