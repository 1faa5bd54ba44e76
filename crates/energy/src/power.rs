//! Activity-based energy model (Figs 11, 13, 14).
//!
//! Every energy figure is computed from *measured* activity counts: the
//! Canon cycle simulator's [`canon_core::stats::Stats`] and the baseline
//! models' [`canon_baselines::Activity`], multiplied by the per-event
//! energies of [`crate::tech`].

use crate::tech::energy_pj as e;
use crate::Arch;
use canon_baselines::BaselineRun;
use canon_core::stats::RunReport;
use canon_core::LANES;

/// A component-wise energy breakdown in pJ.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyBreakdown {
    /// `(component name, energy pJ)` pairs.
    pub components: Vec<(&'static str, f64)>,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.components.iter().map(|(_, v)| v).sum()
    }

    /// Energy of one named component (0 when absent).
    pub fn component(&self, name: &str) -> f64 {
        self.components
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Average power in mW for a run of `cycles` at `hz`.
    pub fn avg_power_mw(&self, cycles: u64, hz: f64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let time_s = cycles as f64 / hz;
        self.total_pj() * 1e-12 / time_s * 1e3
    }
}

/// Energy of a Canon fabric run, split per Fig 11's categories
/// (data memory, scratchpad read/write, compute, control & routing).
///
/// The `dram` component prices the off-chip bytes the kernel mappers
/// record. A stationary operand is one read per column tile even when the
/// mapping replicates it on chip — the GEMM / N:M row-group fold copies the
/// `B` tile into every row group, and that counts as one broadcast read of
/// `k·tile_cols` bytes, as the unfolded layout does. Preload writes into
/// the data memories are uncounted, like the EDDO memory movers they model.
pub fn canon_energy(report: &RunReport) -> EnergyBreakdown {
    let s = &report.stats;
    let dmem = s.dmem_reads as f64 * e::DMEM_READ + s.dmem_writes as f64 * e::DMEM_WRITE;
    let spad_read = s.spad_reads as f64 * e::SPAD_READ;
    let spad_write = s.spad_writes as f64 * e::SPAD_WRITE;
    let compute = s.compute_instrs as f64 * LANES as f64 * e::MAC_SCALAR;
    let control_routing = s.noc_hops as f64 * e::NOC_HOP
        + s.orch_steps as f64 * e::ORCH_STEP
        + s.orch_transitions as f64 * e::ORCH_TRANSITION
        + s.orch_messages as f64 * e::ORCH_MESSAGE
        + s.instrs_executed as f64 * e::INSTR_LATCH;
    let dram = (s.offchip_read_bytes + s.offchip_write_bytes) as f64 * e::DRAM_BYTE;
    EnergyBreakdown {
        components: vec![
            ("data memory", dmem),
            ("spad-read", spad_read),
            ("spad-write", spad_write),
            ("compute", compute),
            ("control & routing", control_routing),
            ("dram", dram),
        ],
    }
}

/// Energy of a Canon loop-IR (PolyBench) run from the analytic mapping
/// model's activity (lane instructions ≈ one dmem read + one lane op each).
pub fn canon_loop_energy(cycles: u64, lane_instrs: u64, useful_ops: u64) -> EnergyBreakdown {
    let compute = useful_ops as f64 * e::MAC_SCALAR;
    let dmem = lane_instrs as f64 * e::DMEM_READ;
    let control = lane_instrs as f64 * e::INSTR_LATCH + cycles as f64 * 8.0 * e::ORCH_STEP;
    EnergyBreakdown {
        components: vec![
            ("data memory", dmem),
            ("compute", compute),
            ("control & routing", control),
        ],
    }
}

/// Energy of a baseline run under that architecture's coefficient set.
pub fn baseline_energy(arch: Arch, run: &BaselineRun) -> EnergyBreakdown {
    let a = &run.activity;
    let compute = a.macs as f64 * e::MAC_SCALAR;
    let dram = (a.offchip_read_bytes + a.offchip_write_bytes) as f64 * e::DRAM_BYTE;
    let components = match arch {
        Arch::Systolic | Arch::Systolic24 => vec![
            (
                "data memory",
                (a.sram_reads + a.sram_writes) as f64 * e::SHARED_SRAM_ACCESS,
            ),
            ("compute", compute),
            (
                "control & routing",
                a.noc_hops as f64 * e::SYSTOLIC_HOP + a.control_events as f64 * e::SEQ_CONTROL,
            ),
            ("sparsity decode", a.special_events as f64 * e::DECODER),
            ("dram", dram),
        ],
        Arch::Zed => vec![
            (
                "data memory",
                (a.sram_reads + a.sram_writes) as f64 * e::SHARED_SRAM_ACCESS,
            ),
            ("compute", compute),
            (
                "control & routing",
                a.control_events as f64 * e::SEQ_CONTROL,
            ),
            (
                "crossbar & decode",
                a.special_events as f64 * (e::CROSSBAR + e::DECODER) / 2.0,
            ),
            ("dram", dram),
        ],
        Arch::Cgra => vec![
            (
                "data memory",
                (a.sram_reads + a.sram_writes) as f64 * e::SHARED_SRAM_ACCESS,
            ),
            ("compute", compute),
            (
                "control & routing",
                a.noc_hops as f64 * e::CGRA_HOP
                    + a.instr_fetches as f64 * e::CGRA_INSTR_FETCH
                    + a.control_events as f64 * e::SEQ_CONTROL,
            ),
            ("dram", dram),
        ],
        Arch::Canon => vec![("compute", compute), ("dram", dram)],
    };
    EnergyBreakdown { components }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canon_baselines::{Accelerator, Cgra, SystolicArray, ZedAccelerator};
    use canon_core::stats::Stats;

    fn canon_report(spad: u64, macs: u64) -> RunReport {
        let mut stats = Stats::new();
        stats.mac_instrs = macs;
        stats.compute_instrs = macs;
        stats.spad_reads = spad;
        stats.spad_writes = spad;
        stats.dmem_reads = macs;
        stats.orch_steps = 100;
        stats.instrs_executed = macs * 8;
        RunReport {
            cycles: 1000,
            pes: 64,
            stats,
            wall_ns: 0,
        }
    }

    #[test]
    fn spad_component_tracks_usage() {
        let regular = canon_energy(&canon_report(0, 1000));
        let irregular = canon_energy(&canon_report(2000, 1000));
        assert_eq!(regular.component("spad-read"), 0.0);
        assert!(irregular.component("spad-read") > 0.0);
        assert!(irregular.total_pj() > regular.total_pj());
    }

    #[test]
    fn avg_power_sane() {
        let b = canon_energy(&canon_report(100, 1000));
        let mw = b.avg_power_mw(1000, 1e9);
        assert!(mw > 0.0 && mw < 10_000.0, "power {mw} mW");
        assert_eq!(b.avg_power_mw(0, 1e9), 0.0);
    }

    #[test]
    fn cgra_control_heavier_than_systolic() {
        // Same dense GEMM; the CGRA pays instruction fetches every cycle.
        let sys = SystolicArray::default().gemm(128, 128, 128).unwrap();
        let cg = Cgra::default().gemm(128, 128, 128).unwrap();
        let es = baseline_energy(Arch::Systolic, &sys);
        let ec = baseline_energy(Arch::Cgra, &cg);
        assert!(
            ec.component("control & routing") > 3.0 * es.component("control & routing"),
            "cgra {} vs systolic {}",
            ec.component("control & routing"),
            es.component("control & routing")
        );
    }

    #[test]
    fn zed_pays_crossbar_energy() {
        let mut rng = canon_sparse::gen::seeded_rng(1);
        let a = canon_sparse::gen::random_sparse(128, 128, 0.5, &mut rng);
        let r = ZedAccelerator::default().spmm(&a, 128).unwrap();
        let ez = baseline_energy(Arch::Zed, &r);
        assert!(ez.component("crossbar & decode") > 0.0);
    }

    #[test]
    fn loop_energy_components() {
        let b = canon_loop_energy(1000, 5000, 4000);
        assert!(b.component("compute") > 0.0);
        assert!(b.component("data memory") > 0.0);
        assert!(b.total_pj() > 0.0);
    }
}
