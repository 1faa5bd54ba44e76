//! One sweep cell executed through the layers' public calls, each wrapped
//! in a span: `OperandCache::input`, then `run_kernel` (Canon tensor cells)
//! or `Backend::run_cached` (baseline models and PolyBench loop nests).
//! The record it builds is field-for-field the one
//! `canon_sweep::engine::execute_cell` builds, which the traced runs check.
//!
//! Also home to the reference outputs every Canon kernel result is checked
//! against.

use crate::trace::{Phase, Tracer};
use canon_core::kernels::{run_kernel, KernelInput, KernelOutput};
use canon_core::stats::RunReport;
use canon_core::CanonConfig;
use canon_energy::{canon_energy, Arch};
use canon_sparse::{gen, reference, Dense};
use canon_sweep::backend::{backend_for, BackendError, OperandCache, RunRecord};
use canon_sweep::store::{RecordStatus, CODE_SALT};
use canon_sweep::{Scenario, StoredRecord};
use canon_workloads::Workload;
use std::sync::Mutex;

/// The golden output of a Canon kernel input, from `canon_sparse::reference`.
pub fn reference_output(input: &KernelInput) -> Dense {
    match input {
        KernelInput::Gemm { a, b } => reference::gemm(a, b),
        KernelInput::Spmm { a, b, .. } | KernelInput::SpmmNm { a, b, .. } => reference::spmm(a, b),
        KernelInput::Sddmm { mask, q, kv, .. } => reference::sddmm(mask, q, kv),
        KernelInput::Window { wa, seed } => {
            // The window kernel draws Q and K from its seed, in this order.
            let mut rng = gen::seeded_rng(*seed);
            let q = Dense::random(wa.seq, wa.head_dim, &mut rng);
            let k = Dense::random(wa.seq, wa.head_dim, &mut rng);
            reference::sddmm(&gen::window_mask(wa.seq, wa.window), &q, &k)
        }
    }
}

/// Whether the standard grid expects `arch` to refuse `op` (the figures'
/// `X` cells: loop nests on the tensor-only architectures).
pub fn expected_unsupported(op: &Workload, arch: Arch) -> bool {
    matches!(op, Workload::Loop(_)) && !matches!(arch, Arch::Canon | Arch::Cgra)
}

/// Simulator counters summed over every `Fabric::run` a traced run saw.
#[derive(Debug, Clone, Default)]
pub struct CoreTally {
    pub wall_ns: u64,
    pub cycles: u64,
    pub pe_cycles: u64,
    pub active_pe_cycles: u64,
    pub batched_pe_cycles: u64,
    pub replayed_cycles: u64,
    pub utilization: Vec<f64>,
}

impl CoreTally {
    pub fn add(&mut self, r: &RunReport) {
        self.wall_ns += r.wall_ns;
        self.cycles += r.cycles;
        self.pe_cycles += r.cycles * r.pes as u64;
        self.active_pe_cycles += r.stats.active_pe_cycles;
        self.batched_pe_cycles += r.stats.batched_pe_cycles;
        self.replayed_cycles += r.stats.replayed_cycles;
        self.utilization.push(r.compute_utilization());
    }
}

/// Where a traced call records its spans and counters.
pub struct TraceCtx<'a> {
    pub tracer: &'a Tracer,
    pub tally: &'a Mutex<CoreTally>,
    pub thread: usize,
    pub phase: Phase,
}

impl TraceCtx<'_> {
    /// `OperandCache::input` under an `operands` span.
    pub fn operands(
        &self,
        cache: &OperandCache,
        op: &canon_workloads::TensorOp,
        seed: u64,
        parent: Option<usize>,
        op_id: u64,
    ) -> std::sync::Arc<KernelInput> {
        let open = self
            .tracer
            .open("operands", parent, op_id, self.thread, self.phase);
        let input = cache.input(op, seed);
        self.tracer.close(open);
        input
    }

    /// `run_kernel` under a `kernels` span whose `core.run` child is the
    /// report's `wall_ns`.
    pub fn kernel(
        &self,
        cfg: &CanonConfig,
        input: &KernelInput,
        parent: Option<usize>,
        op_id: u64,
    ) -> Result<KernelOutput, canon_core::SimError> {
        let open = self
            .tracer
            .open("kernels", parent, op_id, self.thread, self.phase);
        let out = run_kernel(cfg, input);
        let span = self.tracer.close(open);
        if let Ok(o) = &out {
            self.tracer
                .child_of_duration(&span, "core.run", o.report.wall_ns);
            self.tally.lock().unwrap().add(&o.report);
        }
        out
    }
}

/// A traced cell's outcome: its record and, for Canon tensor cells,
/// whether the kernel output matched the reference.
pub struct CellOutcome {
    pub record: StoredRecord,
    pub output_ok: Option<bool>,
}

/// Executes `scenario` under `cfg` through the decomposed layer calls,
/// inside a parent span named `span_name`.
pub fn run_cell(
    ctx: &TraceCtx<'_>,
    span_name: &'static str,
    scenario: &Scenario,
    key: String,
    cfg: &CanonConfig,
    cache: &OperandCache,
    op_id: u64,
) -> CellOutcome {
    let cell = ctx
        .tracer
        .open(span_name, None, op_id, ctx.thread, ctx.phase);
    let parent = Some(cell.id());
    let backend = backend_for(scenario.arch, scenario.geometry, cfg);
    let mut kernel_out: Option<(std::sync::Arc<KernelInput>, Dense)> = None;
    let result = if !backend.supports(&scenario.op) {
        Err(BackendError::Unsupported)
    } else {
        match (&scenario.op, scenario.arch) {
            (Workload::Tensor(op), Arch::Canon) => {
                let input = ctx.operands(cache, op, scenario.seed, parent, op_id);
                let cell_cfg = cfg.with_geometry(scenario.geometry.0, scenario.geometry.1);
                ctx.kernel(&cell_cfg, &input, parent, op_id)
                    .map(|out| {
                        let r = out.report;
                        kernel_out = Some((input, out.result));
                        // As `CanonBackend::run_cached` summarizes a report.
                        RunRecord {
                            cycles: r.cycles,
                            energy_pj: canon_energy(&r).total_pj(),
                            useful_macs: op.useful_macs(),
                            utilization: r.compute_utilization(),
                            stalls: Some(r.stats.stall_breakdown),
                        }
                    })
                    .map_err(BackendError::Sim)
            }
            (op, _) => {
                if let Workload::Tensor(t) = op {
                    ctx.operands(cache, t, scenario.seed, parent, op_id);
                }
                let open = ctx
                    .tracer
                    .open("models", parent, op_id, ctx.thread, ctx.phase);
                let r = backend.run_cached(op, scenario.seed, cache);
                ctx.tracer.close(open);
                r
            }
        }
    };
    let (status, r) = match result {
        Ok(r) => (RecordStatus::Ok, Some(r)),
        Err(BackendError::Unsupported) => (RecordStatus::Unsupported, None),
        Err(BackendError::Sim(e)) => (RecordStatus::Error(e.to_string()), None),
    };
    let record = StoredRecord {
        key,
        salt: CODE_SALT.to_string(),
        workload: scenario.workload.clone(),
        arch: scenario.arch.label().to_string(),
        band: scenario.band.map(|b| b.to_string()),
        rows: scenario.geometry.0,
        cols: scenario.geometry.1,
        scale: scenario.scale,
        seed: scenario.seed,
        op: scenario.op_descriptor(),
        status,
        cycles: r.map_or(0, |r| r.cycles),
        energy_pj: r.map_or(0.0, |r| r.energy_pj),
        useful_macs: r.map_or(0, |r| r.useful_macs),
        utilization: r.map_or(0.0, |r| r.utilization),
        stalls: r.and_then(|r| r.stalls),
    };
    ctx.tracer.close(cell);
    // Checked outside the spans: the reference is not part of the work.
    let output_ok = kernel_out.map(|(input, result)| result == reference_output(&input));
    CellOutcome { record, output_ok }
}
