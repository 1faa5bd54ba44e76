//! Deterministic fault injection for the sweep harness.
//!
//! A [`FaultPlan`] maps sweep-cell indices to [`FaultAction`]s so every
//! failure path in the sweep engine — panic isolation, the deadlock
//! watchdog, wall-clock/cycle budgets, and transient-retry — can be
//! exercised on demand by tests and CI instead of by bad luck.
//!
//! The plan lives in `canon-core` because three of the four actions are
//! honored *inside* the fabric (the sweep engine threads the per-cell
//! action into [`crate::CanonConfig::fault`]):
//!
//! * [`FaultAction::PanicAt`] — `Fabric::run` panics when the cycle
//!   counter reaches the given cycle, exercising `catch_unwind` isolation.
//! * [`FaultAction::WithholdCredits`] — the fabric starts with zero
//!   south-link credits on every non-bottom row, so the first flush stalls
//!   forever and the *real* deadlock watchdog fires.
//! * [`FaultAction::SlowCycle`] — every simulated cycle sleeps for the
//!   given wall time, turning the cell into a runaway that only a
//!   wall-clock budget ([`crate::CanonConfig::wall_budget_ns`]) can stop.
//! * [`FaultAction::Transient`] — handled entirely by the sweep engine
//!   (the fabric never sees it): the first `failures` attempts of the cell
//!   fail with a retryable error, exercising bounded retry with backoff.
//!
//! Injection is deterministic: the same plan over the same grid produces
//! byte-identical failure records at any worker count.

/// A single injected fault, applied to one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic inside the cycle loop once `cycle` simulated cycles have run.
    PanicAt {
        /// Cycle (relative to the start of the run) at which to panic.
        cycle: u64,
    },
    /// Start every non-bottom row with zero south-link credits: flushes
    /// stall on credit forever and the deadlock watchdog fires.
    WithholdCredits,
    /// Sleep this many wall-clock nanoseconds per simulated cycle.
    SlowCycle {
        /// Delay per cycle in nanoseconds.
        nanos: u64,
    },
    /// Fail the first `failures` attempts of the cell with a transient
    /// (retryable) error before succeeding. Interpreted by the sweep
    /// engine; never reaches the fabric.
    Transient {
        /// Number of leading attempts that fail.
        failures: u32,
    },
}

impl FaultAction {
    /// Compact descriptor used in config fingerprints, so a faulted cell
    /// never shares a store key with its healthy counterpart.
    pub fn descriptor(&self) -> String {
        match self {
            FaultAction::PanicAt { cycle } => format!("panic@{cycle}"),
            FaultAction::WithholdCredits => "withhold-credits".to_string(),
            FaultAction::SlowCycle { nanos } => format!("slow:{nanos}ns"),
            FaultAction::Transient { failures } => format!("transient:{failures}"),
        }
    }

    /// Parses a [`FaultAction::descriptor`] back into the action — the
    /// serve protocol's per-request fault field travels in descriptor form
    /// so wire, fingerprint, and log spellings agree. Returns `None` for
    /// anything that is not an exact descriptor.
    pub fn from_descriptor(s: &str) -> Option<FaultAction> {
        if s == "withhold-credits" {
            return Some(FaultAction::WithholdCredits);
        }
        if let Some(cycle) = s.strip_prefix("panic@") {
            return cycle
                .parse()
                .ok()
                .map(|cycle| FaultAction::PanicAt { cycle });
        }
        if let Some(nanos) = s.strip_prefix("slow:").and_then(|r| r.strip_suffix("ns")) {
            return nanos
                .parse()
                .ok()
                .map(|nanos| FaultAction::SlowCycle { nanos });
        }
        if let Some(failures) = s.strip_prefix("transient:") {
            return failures
                .parse()
                .ok()
                .map(|failures| FaultAction::Transient { failures });
        }
        None
    }
}

/// A deterministic schedule of injected faults, keyed by sweep-cell index.
///
/// # Examples
///
/// ```
/// use canon_core::fault::{FaultAction, FaultPlan};
/// let plan = FaultPlan::new()
///     .with_fault(4, FaultAction::PanicAt { cycle: 0 })
///     .with_fault(9, FaultAction::WithholdCredits);
/// assert_eq!(plan.action_for(4), Some(FaultAction::PanicAt { cycle: 0 }));
/// assert_eq!(plan.action_for(5), None);
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<(usize, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan (no faults injected).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds (or replaces) the fault for cell `cell`.
    #[must_use]
    pub fn with_fault(mut self, cell: usize, action: FaultAction) -> FaultPlan {
        self.set(cell, action);
        self
    }

    /// Adds (or replaces) the fault for cell `cell`.
    pub fn set(&mut self, cell: usize, action: FaultAction) {
        if let Some(slot) = self.faults.iter_mut().find(|(c, _)| *c == cell) {
            slot.1 = action;
        } else {
            self.faults.push((cell, action));
        }
    }

    /// The fault injected at cell `cell`, if any.
    pub fn action_for(&self, cell: usize) -> Option<FaultAction> {
        self.faults
            .iter()
            .find(|(c, _)| *c == cell)
            .map(|(_, a)| *a)
    }

    /// Number of faulted cells.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterates over `(cell, action)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, FaultAction)> + '_ {
        self.faults.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lookup_and_replace() {
        let mut plan = FaultPlan::new().with_fault(3, FaultAction::WithholdCredits);
        assert_eq!(plan.action_for(3), Some(FaultAction::WithholdCredits));
        plan.set(3, FaultAction::PanicAt { cycle: 7 });
        assert_eq!(plan.action_for(3), Some(FaultAction::PanicAt { cycle: 7 }));
        assert_eq!(plan.len(), 1);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn descriptors_are_distinct() {
        let actions = [
            FaultAction::PanicAt { cycle: 2 },
            FaultAction::WithholdCredits,
            FaultAction::SlowCycle { nanos: 100 },
            FaultAction::Transient { failures: 1 },
        ];
        let descs: std::collections::BTreeSet<String> =
            actions.iter().map(|a| a.descriptor()).collect();
        assert_eq!(descs.len(), actions.len());
    }

    mod fabric_injection {
        use crate::fault::FaultAction;
        use crate::kernels::spmm::{run_spmm, SpmmMapping};
        use crate::{CanonConfig, SimError};
        use canon_sparse::{gen, Dense};

        fn run_with(cfg: &CanonConfig) -> Result<crate::kernels::KernelOutput, SimError> {
            let mut rng = gen::seeded_rng(7);
            let a = gen::random_sparse(16, 16, 0.5, &mut rng);
            let b = Dense::random(16, 16, &mut rng);
            run_spmm(cfg, &SpmmMapping::default(), &a, &b)
        }

        #[test]
        fn panic_at_cycle_fires_with_injection_message() {
            let cfg = CanonConfig {
                fault: Some(FaultAction::PanicAt { cycle: 3 }),
                ..CanonConfig::default()
            };
            let payload = std::panic::catch_unwind(|| run_with(&cfg))
                .expect_err("injected panic must unwind");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .expect("panic payload is a formatted string");
            assert!(msg.contains("injected fault"), "unexpected payload: {msg}");
        }

        #[test]
        fn withheld_credits_trip_the_deadlock_watchdog() {
            let cfg = CanonConfig {
                fault: Some(FaultAction::WithholdCredits),
                ..CanonConfig::default()
            };
            match run_with(&cfg) {
                Err(SimError::Deadlock { cycle, .. }) => assert!(cycle > 0),
                other => panic!("expected a watchdog deadlock, got {other:?}"),
            }
        }

        #[test]
        fn cycle_ceiling_times_out_a_live_run() {
            let cfg = CanonConfig {
                max_cycles: Some(8),
                ..CanonConfig::default()
            };
            match run_with(&cfg) {
                Err(SimError::Timeout { cycle, budget }) => {
                    assert!(cycle >= 8, "abort cycle {cycle} before the ceiling");
                    assert!(budget.contains("cycle ceiling"));
                }
                other => panic!("expected a cycle-ceiling timeout, got {other:?}"),
            }
        }

        #[test]
        fn slow_cycle_fault_exhausts_the_wall_budget() {
            let cfg = CanonConfig {
                fault: Some(FaultAction::SlowCycle { nanos: 1_000_000 }),
                wall_budget_ns: Some(5_000_000),
                ..CanonConfig::default()
            };
            match run_with(&cfg) {
                Err(SimError::Timeout { budget, .. }) => {
                    assert!(budget.contains("wall-clock"));
                }
                other => panic!("expected a wall-clock timeout, got {other:?}"),
            }
        }

        #[test]
        fn unset_budgets_change_nothing() {
            let base = run_with(&CanonConfig::default()).unwrap();
            let budgeted = run_with(&CanonConfig {
                max_cycles: Some(u64::MAX / 4),
                wall_budget_ns: Some(u64::MAX / 4),
                ..CanonConfig::default()
            })
            .unwrap();
            assert_eq!(base.result, budgeted.result);
            assert_eq!(base.report.cycles, budgeted.report.cycles);
        }
    }
}
