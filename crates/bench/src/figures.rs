//! Per-figure regeneration entry points.
//!
//! Multi-architecture figures dispatch every workload through the uniform
//! [`Backend`](canon_sweep::backend::Backend) trait — there is no
//! per-figure, per-kernel dispatch here. Single-architecture parameter
//! studies (Figs 15/17) drive the SpMM kernel directly, since the swept
//! parameter (array scale, scratchpad depth) *is* the experiment.

use crate::workloads12::{all_columns, Column};
use crate::{format_matrix, Scale};
use canon_core::kernels::spmm::{run_spmm, SpmmMapping};
use canon_core::offchip;
use canon_core::CanonConfig;
use canon_energy::{arch_area, canon_energy, edp, Arch};
use canon_sparse::gen::{self, SparsityBand};
use canon_sparse::stats::spmm_ops_per_byte;
use canon_sparse::Dense;
use canon_sweep::backend::{all_backends, CanonBackend, OperandCache};
use canon_workloads::{fig11_workloads, fig14_workloads, TensorOp};
use std::fmt::Write as _;

/// Table 1: the evaluated configuration.
pub fn table1() -> String {
    let cfg = CanonConfig::default();
    let mut out = String::new();
    let _ = writeln!(out, "== Table 1: Canon configuration ==");
    let _ = writeln!(
        out,
        "Array          : {}x{} 4-SIMD INT8 array ({} MACs)",
        cfg.rows,
        cfg.cols,
        cfg.mac_units()
    );
    let _ = writeln!(
        out,
        "SRAM           : {} KB per PE; {} KB overall (+ edge stream buffers)",
        cfg.dmem_words * 4 / 1024,
        cfg.dmem_bytes_total() / 1024
    );
    let _ = writeln!(
        out,
        "Scratchpad     : dual-port, {} bytes per PE ({} vector entries)",
        cfg.spad_bytes_per_pe(),
        cfg.spad_entries
    );
    let _ = writeln!(out, "Orchestrators  : {} (one per PE row)", cfg.rows);
    let _ = writeln!(
        out,
        "Main memory    : {:.0} GB/s LPDDR5X ({} B/cycle at 1 GHz)",
        offchip::LPDDR5X_X16_GBPS,
        offchip::LPDDR5X_X16_GBPS
    );
    out
}

/// Fig 9: feature ablation — area of Canon relative to each baseline.
pub fn fig09() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 9: area ablation through the baselines ==");
    let canon = arch_area(Arch::Canon).total();
    for arch in [Arch::Systolic, Arch::Zed, Arch::Cgra] {
        let other = arch_area(arch).total();
        let delta = (canon / other - 1.0) * 100.0;
        let _ = writeln!(
            out,
            "Canon vs {:<12} : {:+5.1}% area   (paper: {})",
            arch.label(),
            delta,
            match arch {
                Arch::Systolic => "+30%",
                Arch::Zed => "+9..12%",
                _ => "-7%",
            }
        );
    }
    out
}

/// Fig 10: area breakdown of Canon vs the systolic array.
pub fn fig10() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 10: area breakdown (Canon = 100%) ==");
    let canon = arch_area(Arch::Canon);
    let canon_total = canon.total();
    for (name, a) in &canon.components {
        let _ = writeln!(out, "Canon    {name:<18} {:5.1}%", a / canon_total * 100.0);
    }
    let sys = arch_area(Arch::Systolic);
    let _ = writeln!(
        out,
        "Systolic total              {:5.1}% of Canon (generality overhead {:.1}%)",
        sys.total() / canon_total * 100.0,
        (1.0 - sys.total() / canon_total) * 100.0
    );
    out
}

/// Fig 11: runtime per-PE power breakdown + FSM state-transition counts.
pub fn fig11(scale: Scale) -> String {
    let backend = CanonBackend::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig 11: Canon per-PE power breakdown (mW @ 1 GHz) and FSM transitions =="
    );
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>10} {:>10} {:>9} {:>12} {:>12}",
        "workload", "dmem", "spad-rd", "spad-wr", "compute", "ctrl+route", "transitions"
    );
    let mut run_one = |label: String, report: &canon_core::stats::RunReport| {
        let e = canon_energy(report);
        let per_pe = |pj: f64| {
            if report.cycles == 0 {
                0.0
            } else {
                pj * 1e-12 / (report.cycles as f64 / 1e9) * 1e3 / report.pes as f64
            }
        };
        let _ = writeln!(
            out,
            "{:<22} {:>8.3} {:>10.3} {:>10.3} {:>9.3} {:>12.3} {:>12}",
            label,
            per_pe(e.component("data memory")),
            per_pe(e.component("spad-read")),
            per_pe(e.component("spad-write")),
            per_pe(e.component("compute")),
            per_pe(e.component("control & routing")),
            report.stats.orch_transitions
        );
    };
    // GEMM reference point (systolic-style dataflow, no scratchpad power),
    // then the banded CNN/attention workloads — all through the uniform
    // backend entry point.
    let gemm = TensorOp::Gemm {
        m: scale.dim(128),
        k: scale.dim(256),
        n: scale.dim(64),
    };
    let r = backend.run_report(&gemm, 111).expect("gemm maps");
    run_one("GEMM".into(), &r);
    let ws = fig11_workloads(match scale {
        Scale::Full | Scale::Large => 8,
        Scale::Smoke => 32,
    });
    for (name, band, op) in ws {
        // Distinct operand stream per band (representative() is fractional,
        // so scale before truncating).
        let seed = 112 + (band.representative() * 100.0) as u64;
        let report = backend
            .run_report(&op, seed)
            .unwrap_or_else(|e| panic!("{name}-{band}: {e}"));
        run_one(format!("{name}-{band}"), &report);
    }
    let _ = writeln!(
        out,
        "\n(Shape check: scratchpad power ≈ 0 for GEMM, grows S1→S3; transitions grow with sparsity.)"
    );
    out
}

fn fig1213_rows(
    columns: &[Column],
    select: impl Fn(&Column) -> Vec<Option<f64>>,
) -> Vec<(&'static str, Vec<Option<f64>>)> {
    Arch::all()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            (
                a.label(),
                columns.iter().map(|c| select(c)[i]).collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Fig 12: normalized performance across the 12-kernel grid.
pub fn fig12(scale: Scale) -> String {
    let columns = all_columns(scale);
    let names: Vec<String> = columns.iter().map(|c| c.name.clone()).collect();
    format_matrix(
        "Fig 12: performance normalized to Canon",
        &names,
        &fig1213_rows(&columns, Column::norm_perf),
    )
}

/// Fig 13: normalized perf/W across the same grid.
pub fn fig13(scale: Scale) -> String {
    let columns = all_columns(scale);
    let names: Vec<String> = columns.iter().map(|c| c.name.clone()).collect();
    format_matrix(
        "Fig 13: perf/W normalized to Canon",
        &names,
        &fig1213_rows(&columns, Column::norm_perf_watt),
    )
}

/// Fig 12 + Fig 13 from a single simulation pass.
pub fn fig1213(scale: Scale) -> String {
    let columns = all_columns(scale);
    let names: Vec<String> = columns.iter().map(|c| c.name.clone()).collect();
    let mut out = format_matrix(
        "Fig 12: performance normalized to Canon",
        &names,
        &fig1213_rows(&columns, Column::norm_perf),
    );
    out.push('\n');
    out.push_str(&format_matrix(
        "Fig 13: perf/W normalized to Canon",
        &names,
        &fig1213_rows(&columns, Column::norm_perf_watt),
    ));
    out
}

/// Fig 14: EDP of real ML model components, normalized to Canon.
pub fn fig14(scale: Scale) -> String {
    let backends = all_backends(&CanonConfig::default());
    let model_scale = match scale {
        Scale::Full | Scale::Large => 16,
        Scale::Smoke => 64,
    };
    let mut columns = Vec::new();
    let mut rows: Vec<(&'static str, Vec<Option<f64>>)> = Arch::all()
        .iter()
        .map(|a| (a.label(), Vec::new()))
        .collect();
    let cache = OperandCache::new();
    for w in fig14_workloads(model_scale) {
        columns.push(format!("{}({})", w.name, w.sparsity_note));
        // Accumulate (cycles, energy) per architecture over the component's
        // ops; any unsupported op marks the whole component unsupported.
        let mut totals: Vec<Option<(u64, f64)>> = vec![Some((0, 0.0)); backends.len()];
        for (oi, op) in w.ops.iter().enumerate() {
            let seed = 140 + w.useful_macs() % 97 + oi as u64;
            let workload = canon_workloads::Workload::Tensor(*op);
            for (i, backend) in backends.iter().enumerate() {
                let run = backend
                    .run_cached(&workload, seed, &cache)
                    .ok()
                    .map(|r| (r.cycles, r.energy_pj));
                totals[i] = match (totals[i], run) {
                    (Some((c0, e0)), Some((c, e))) => Some((c0 + c, e0 + e)),
                    _ => None,
                };
            }
        }
        let canon_idx = backends
            .iter()
            .position(|b| b.arch() == Arch::Canon)
            .expect("Canon backend present");
        let canon_edp = totals[canon_idx]
            .map(|(c, e)| edp(e, c, 1e9))
            .expect("canon runs everything");
        for (i, row) in rows.iter_mut().enumerate() {
            row.1
                .push(totals[i].map(|(c, e)| edp(e, c, 1e9) / canon_edp));
        }
    }
    format_matrix(
        "Fig 14: EDP normalized to Canon (lower is better; log scale in the paper)",
        &columns,
        &rows,
    )
}

/// Fig 15: compute utilization vs array/problem scale, with arithmetic
/// intensity per point.
pub fn fig15(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig 15: utilization vs array/problem scale (arith. intensity per point) =="
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>9} {:>13} {:>12}",
        "scale", "sparsity", "PEs", "AI(ops/elem)", "utilization"
    );
    let factors: &[usize] = match scale {
        Scale::Full | Scale::Large => &[1, 2, 4, 8],
        Scale::Smoke => &[1, 2],
    };
    for &f in factors {
        let cfg = CanonConfig::default().scaled(f);
        for sparsity in [0.3, 0.6, 0.9] {
            let m = 32 * f;
            let k = 256 * f;
            let n = 4 * cfg.cols; // one column tile
            let mut rng = gen::seeded_rng(150 + f as u64);
            let a = gen::skewed_sparse(m, k, sparsity, 1.5, &mut rng);
            let b = Dense::random(k, n, &mut rng);
            let r = run_spmm(&cfg, &SpmmMapping::default(), &a, &b).expect("spmm");
            let ai = spmm_ops_per_byte(m, k, n, a.nnz(), 1);
            let _ = writeln!(
                out,
                "{:>5}x {:>10.2} {:>9} {:>13.1} {:>12.3}",
                f,
                sparsity,
                cfg.pe_count(),
                ai,
                r.report.compute_utilization()
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(Shape check: utilization tracks arithmetic intensity, not array size.)"
    );
    out
}

/// Fig 16: required off-chip bandwidth vs arithmetic intensity per SRAM size.
pub fn fig16() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig 16: bandwidth (GB/s) to hit the compute roofline vs arithmetic intensity =="
    );
    let (m, k, n) = (2048usize, 1024usize, 1024usize);
    let srams = [72usize, 144, 288, 576, 1152];
    let _ = write!(out, "{:>14}", "AI(ops/B)");
    for kb in srams {
        let _ = write!(out, "{:>11}", format!("{kb}KB"));
    }
    let _ = writeln!(out, "{:>11}{:>11}", "x16 limit", "x32 limit");
    for density_pct in [100usize, 75, 50, 30, 20, 10, 5] {
        let nnz = m * k * density_pct / 100;
        let mut ai_shown = None;
        let mut row = String::new();
        for kb in srams {
            let p = offchip::spmm_bandwidth_requirement(m, k, n, nnz, kb * 1024, 256);
            ai_shown.get_or_insert(p.ops_per_byte);
            let _ = write!(row, "{:>11.2}", p.required_gbps);
        }
        let _ = writeln!(
            out,
            "{:>14.1}{row}{:>11.1}{:>11.1}",
            ai_shown.unwrap_or(0.0),
            offchip::LPDDR5X_X16_GBPS,
            offchip::LPDDR5X_X32_GBPS
        );
    }
    let _ = writeln!(
        out,
        "\n(Shape check: bandwidth grows as sparsity rises (AI falls) and flattens once B fits on chip.)"
    );
    out
}

/// Fig 17: utilization vs scratchpad depth across sparsity deciles.
pub fn fig17(scale: Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Fig 17: compute utilization vs scratchpad depth ==");
    let depths: &[usize] = match scale {
        Scale::Full | Scale::Large => &[1, 4, 8, 16, 32, 64],
        Scale::Smoke => &[1, 16],
    };
    let sparsities: Vec<f64> = match scale {
        Scale::Full | Scale::Large => (0..9).map(|i| i as f64 / 10.0 + 0.05).collect(),
        Scale::Smoke => vec![0.45, 0.85],
    };
    let _ = write!(out, "{:>12}", "sparsity");
    for d in depths {
        let _ = write!(out, "{:>9}", format!("d={d}"));
    }
    let _ = writeln!(out);
    // K = 128 (16 B-rows per PE row) with strongly skewed rows: the regime
    // where psum traffic and straggler imbalance make buffering matter.
    let m = scale.dim(256);
    let k = scale.dim(128);
    let n = 32;
    for &s in &sparsities {
        let _ = write!(out, "{s:>12.2}");
        for &d in depths {
            let cfg = CanonConfig {
                spad_entries: d.max(1),
                ..CanonConfig::default()
            };
            let mut rng = gen::seeded_rng(170 + (s * 100.0) as u64);
            let a = gen::skewed_sparse(m, k, s, 4.0, &mut rng);
            let b = Dense::random(k, n, &mut rng);
            let mapping = SpmmMapping {
                spad_depth: d,
                ..SpmmMapping::default()
            };
            let r = run_spmm(&cfg, &mapping, &a, &b).expect("spmm");
            let _ = write!(out, "{:>9.3}", r.report.compute_utilization());
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "\n(Shape check: deeper buffers help at sparsity ≥ 0.6; depth ~16 is the knee.)"
    );
    out
}

/// Convenience: all sparsity bands in one label.
pub fn band_label(b: SparsityBand) -> &'static str {
    match b {
        SparsityBand::S1 => "S1",
        SparsityBand::S2 => "S2",
        SparsityBand::S3 => "S3",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_key_parameters() {
        let t = table1();
        assert!(t.contains("8x8"));
        assert!(t.contains("256 MACs"));
        assert!(t.contains("LPDDR5X"));
    }

    #[test]
    fn fig09_and_fig10_render() {
        let f9 = fig09();
        assert!(f9.contains("vs Systolic"));
        let f10 = fig10();
        assert!(f10.contains("scratchpad"));
        assert!(f10.contains("Systolic total"));
    }

    #[test]
    fn fig16_is_monotone_in_sram() {
        let f = fig16();
        assert!(f.contains("72KB"));
        assert!(f.contains("1152KB"));
    }

    #[test]
    fn smoke_fig11_runs() {
        let f = fig11(Scale::Smoke);
        assert!(f.contains("GEMM"));
        assert!(f.contains("S3"));
    }

    #[test]
    fn smoke_fig17_runs() {
        let f = fig17(Scale::Smoke);
        assert!(f.contains("d=16"));
    }
}
