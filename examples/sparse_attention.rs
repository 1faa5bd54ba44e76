//! Sparse attention on Canon: unstructured SDDMM vs sliding-window SDDMM,
//! compared against the dense-fallback baselines.
//!
//! This is the workload the paper's introduction motivates: attention score
//! computation (`QKᵀ` under an output mask) where the mask is either learned
//! (unstructured) or a Longformer/Mistral-style sliding window.
//!
//! ```sh
//! cargo run --release --example sparse_attention
//! ```

use canon::arch::kernels::sddmm::{run_sddmm, SddmmMapping};
use canon::arch::kernels::window::{run_window_attention, WindowAttention};
use canon::arch::CanonConfig;
use canon::baselines::{Accelerator, SystolicArray, ZedAccelerator};
use canon::sparse::{gen, reference, Dense};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = CanonConfig::default();
    let seq = 128;
    let head_dim = 64;

    // --- Unstructured sparse attention (SDDMM-U) -------------------------
    let mut rng = gen::seeded_rng(7);
    let q = Dense::random(seq, head_dim, &mut rng);
    let k = Dense::random(seq, head_dim, &mut rng);
    let mask = gen::random_mask(seq, seq, 0.8, &mut rng);
    let out = run_sddmm(&cfg, &SddmmMapping::default(), &mask, &q, &k)?;
    assert_eq!(out.result, reference::sddmm(&mask, &q, &k));
    println!("SDDMM-U (seq={seq}, head_dim={head_dim}, 80% sparse mask)");
    println!(
        "  Canon   : {:>8} cycles, utilization {:.1}%",
        out.report.cycles,
        out.report.compute_utilization() * 100.0
    );
    let sys = SystolicArray::default().sddmm(&mask, head_dim).unwrap();
    println!(
        "  Systolic: {:>8} cycles (dense fallback), utilization {:.1}%",
        sys.cycles,
        sys.utilization() * 100.0
    );
    let zed = ZedAccelerator::default().sddmm(&mask, head_dim).unwrap();
    println!(
        "  ZeD     : {:>8} cycles, utilization {:.1}%",
        zed.cycles,
        zed.utilization() * 100.0
    );

    // --- Sliding-window attention (SDDMM-Win) -----------------------------
    let wa = WindowAttention {
        seq: 128,
        window: 16,
        head_dim: 64,
    };
    let win = run_window_attention(&cfg, &wa, 11)?;
    println!(
        "\nSDDMM-Win (seq={}, window={}, {:.0}% sparse band)",
        wa.seq,
        wa.window,
        wa.mask_sparsity() * 100.0
    );
    println!(
        "  Canon   : {:>8} cycles, utilization {:.1}%",
        win.report.cycles,
        win.report.compute_utilization() * 100.0
    );
    let sys_win = SystolicArray::default()
        .window_attention(wa.seq, wa.window, wa.head_dim)
        .unwrap();
    println!(
        "  Systolic: {:>8} cycles (sliding-chunk dense decomposition)",
        sys_win.cycles
    );
    println!(
        "\nCanon exploits the band directly; the dense baselines pay for the\n\
         full chunked score matrix — the SDDMM-Win gap of Fig 12."
    );
    Ok(())
}
