//! `canon-sweep` — a parallel scenario-sweep engine over every simulator in
//! the workspace.
//!
//! The per-figure harness (`canon-bench`) runs one (architecture, workload)
//! pair at a time on a single thread. This crate turns the workspace into a
//! throughput-oriented evaluation service:
//!
//! * [`scenario`] — a declarative scenario grid (architecture ×
//!   [`Workload`] × sparsity band × fabric geometry × scale) with a builder
//!   API and cartesian expansion. The workload axis spans both of the
//!   paper's execution classes — tensor kernels
//!   ([`TensorOp`]) and PolyBench loop nests
//!   ([`canon_workloads::LoopKernel`]) — and the geometry axis applies to
//!   every architecture: baselines are provisioned **iso-MAC** with the
//!   Canon fabric of each cell, so a geometry sweep compares equal peak
//!   compute at every point;
//! * [`backend`] — the [`Backend`] trait: one uniform
//!   `supports`/`run` interface over any [`Workload`], implemented for
//!   Canon and the four baseline simulators, replacing per-figure dispatch
//!   (loop nests on the tensor-only baselines surface as `Unsupported`, the
//!   figures' `X` cells);
//! * [`engine`] — a thread-pool driver over `std` scoped threads that
//!   dispatches the costliest cells first; output ordering is deterministic regardless of completion
//!   order, so equal grids produce byte-identical result files at any
//!   thread count. Cells execute under `catch_unwind` with per-cell
//!   wall-clock/cycle budgets and bounded transient retry, so panics,
//!   deadlocks, and runaways become structured
//!   [`CellFailure`] records instead of lost sweeps —
//!   with a deterministic [`FaultPlan`](canon_core::FaultPlan) hook to
//!   exercise every failure path on demand;
//! * [`store`] — a JSONL result store (hand-rolled serializer, no external
//!   deps) keyed by a content hash of (scenario, configuration,
//!   code-version salt), giving re-runs cache hits instead of simulations.
//!   The file doubles as a crash-safe journal (fsync'd appends, torn-tail
//!   recovery on open, atomic tmp+rename rewrites), so an interrupted
//!   sweep resumes from what it already paid for; [`ResultStore::compact`]
//!   garbage-collects records stranded by salt/schema bumps;
//! * [`report`] — cross-backend speedup and EDP comparison tables built on
//!   [`report::format_matrix`], plus the [`report::quarantine_report`]
//!   failure summary.
//!
//! # Example
//!
//! ```
//! use canon_sweep::engine::{run_sweep, SweepOptions};
//! use canon_sweep::report::speedup_table;
//! use canon_sweep::scenario::ScenarioGrid;
//! use canon_sweep::store::ResultStore;
//!
//! # fn main() -> std::io::Result<()> {
//! let grid = ScenarioGrid::standard(8); // 1/8-scale smoke grid
//! let mut store = ResultStore::in_memory();
//! let out = run_sweep(&grid, &mut store, &SweepOptions { jobs: 2, ..Default::default() })?;
//! assert_eq!(out.stats.total, grid.scenarios.len());
//! println!("{}", speedup_table(&out.records));
//! # Ok(())
//! # }
//! ```
//!
//! [`TensorOp`]: canon_workloads::TensorOp
//! [`Workload`]: canon_workloads::Workload

pub mod backend;
pub mod engine;
pub mod report;
pub mod scenario;
pub mod store;

pub use backend::{all_backends, backend_for, Backend, BackendError, CanonBackend, RunRecord};
pub use engine::{execute_cell, run_sweep, SweepOptions, SweepOutcome, SweepStats};
pub use report::{
    edp_table, format_matrix, quarantine_report, quarantine_report_with, speedup_table,
};
pub use scenario::{GridBuilder, OpTemplate, Scenario, ScenarioGrid, WorkloadSpec};
pub use store::{CellFailure, CompactStats, RecoveryStats, ResultStore, StoreLock, StoredRecord};
