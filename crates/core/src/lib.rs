//! Cycle-accurate simulator of the **Canon** architecture.
//!
//! Canon (ASPLOS 2026) is a 2D-mesh spatial architecture that combines:
//!
//! * **data-driven orchestration** — each row of processing elements (PEs) is
//!   driven by a lightweight programmable FSM (*orchestrator*) that translates
//!   input meta-data (e.g. sparse coordinates) and neighbour messages into PE
//!   instructions at runtime ([`orchestrator`]);
//! * **time-lapsed SIMD execution** — instructions issued by an orchestrator
//!   propagate across its PE row over multiple cycles on a dedicated
//!   instruction network, creating a staggered pipeline in which every PE of a
//!   row eventually executes the same instruction sequence on its own data
//!   ([`noc`], [`fabric`]).
//!
//! The simulator is organised exactly like the hardware:
//!
//! | Hardware (paper) | Module |
//! |---|---|
//! | ISA: `<op> <op1_addr> <op2_addr> <res_addr>`, unified address space (§3.1) | [`isa`] |
//! | 3-stage PE pipeline LOAD/EXECUTE/COMMIT, 4-wide SIMD lane (Fig 4) | [`pe`] |
//! | Per-PE data memory + dual-port scratchpad (§2.2) | [`pe`] (slab views) |
//! | Circuit-switched data NoC, staggered instruction NoC (§2.1) | [`noc`] |
//! | Programmable orchestrator, LUT bitstream (Fig 5, §3.2) | [`orchestrator`] |
//! | PE array + cycle loop (every PE stepped each cycle; column lockstep) | [`fabric`] |
//! | Kernel mappings (§4, Appendices A–D) | [`kernels`] |
//! | Off-chip bandwidth / tiling model (§6.4) | [`offchip`] |
//! | Per-component activity counters | [`stats`] |
//! | Cycle trace, stall attribution, Perfetto export | [`trace`] |
//! | Uniform workload dispatch (scenario sweeps) | [`kernels::run_kernel`] + workspace crate `canon-sweep` |
//!
//! # Example
//!
//! ```
//! use canon_core::{CanonConfig, kernels::spmm::{SpmmMapping, run_spmm}};
//! use canon_sparse::{Dense, gen};
//!
//! # fn main() -> Result<(), canon_core::SimError> {
//! let mut rng = gen::seeded_rng(1);
//! let a = gen::random_sparse(32, 32, 0.6, &mut rng);
//! let b = Dense::random(32, 32, &mut rng);
//! let out = run_spmm(&CanonConfig::default(), &SpmmMapping::default(), &a, &b)?;
//! assert_eq!(out.result, canon_sparse::reference::spmm(&a, &b));
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod fabric;
pub mod fault;
pub mod isa;
pub mod kernels;
pub mod noc;
pub mod offchip;
pub mod orchestrator;
pub mod pe;
pub mod pool;
pub mod stats;
pub mod trace;

pub use config::CanonConfig;
pub use fabric::Fabric;
pub use fault::{FaultAction, FaultPlan};
pub use isa::{Addr, Instruction, Opcode, Vector, LANES};
pub use stats::{Engine, RunReport, StallBreakdown, StallCause, Stats};

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A kernel mapping constraint was violated (shapes vs array geometry).
    Mapping {
        /// Description of the violated constraint.
        reason: String,
    },
    /// A router direction was driven twice in one cycle (§3.1 forbids this;
    /// the compiler is supposed to rule it out, the simulator enforces it).
    RouterConflict {
        /// Cycle at which the conflict occurred.
        cycle: u64,
        /// PE coordinates `(row, col)`.
        pe: (usize, usize),
        /// Offending direction name.
        direction: String,
    },
    /// An address fell outside the addressed structure.
    AddressOutOfRange {
        /// Description of the access.
        context: String,
    },
    /// The fabric failed to drain within the watchdog budget — indicates a
    /// protocol deadlock (e.g. vertical FIFO cycle).
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// What the fabric was waiting for.
        waiting_on: String,
    },
    /// Orchestrator microcode was malformed (bad bitstream or assembler input).
    BadMicrocode {
        /// Explanation.
        reason: String,
    },
    /// The run exceeded a harness budget ([`CanonConfig::max_cycles`] or
    /// [`CanonConfig::wall_budget_ns`]) while still making progress — a
    /// runaway cell, distinct from a [`SimError::Deadlock`] (where the
    /// watchdog fires because nothing can make progress). The report taken
    /// after this error carries the partial stats up to the abort cycle.
    Timeout {
        /// Cycle at which the budget check aborted the run.
        cycle: u64,
        /// Which budget was exhausted (human-readable).
        budget: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Mapping { reason } => write!(f, "mapping error: {reason}"),
            SimError::RouterConflict {
                cycle,
                pe,
                direction,
            } => write!(
                f,
                "router conflict at cycle {cycle} on PE ({}, {}): direction {direction} driven twice",
                pe.0, pe.1
            ),
            SimError::AddressOutOfRange { context } => {
                write!(f, "address out of range: {context}")
            }
            SimError::Deadlock { cycle, waiting_on } => {
                write!(f, "deadlock at cycle {cycle}: waiting on {waiting_on}")
            }
            SimError::BadMicrocode { reason } => write!(f, "bad microcode: {reason}"),
            SimError::Timeout { cycle, budget } => {
                write!(f, "timeout at cycle {cycle}: exceeded {budget}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_error_display() {
        let e = SimError::RouterConflict {
            cycle: 10,
            pe: (1, 2),
            direction: "South".into(),
        };
        assert!(e.to_string().contains("cycle 10"));
        let e = SimError::Deadlock {
            cycle: 99,
            waiting_on: "vertical fifo".into(),
        };
        assert!(e.to_string().contains("deadlock"));
        let e = SimError::Timeout {
            cycle: 512,
            budget: "cycle ceiling 512".into(),
        };
        assert!(e.to_string().contains("timeout at cycle 512"));
    }

    #[test]
    fn sim_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
