//! The Canon reproduction harness: one entry point per table/figure of the
//! paper's evaluation (§6), each regenerating the corresponding rows/series
//! from the workspace's simulators and models.
//!
//! Run via the `repro` binary:
//!
//! ```sh
//! cargo run -p canon-bench --release --bin repro -- all
//! cargo run -p canon-bench --release --bin repro -- fig12
//! ```
//!
//! Every function takes a [`Scale`] so CI and `repro bench` can exercise the
//! same code paths on reduced sizes, and returns the formatted report it
//! prints, so tests can assert on structure.

pub mod ablations;
pub mod bench;
pub mod figures;
pub mod workloads12;

pub use figures::*;

/// Problem-size preset for the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for CI and `repro bench`.
    Smoke,
    /// The sizes used for EXPERIMENTS.md (laptop-scale, minutes).
    Full,
    /// The large-fabric tier: 64×64 / 128×64 geometries with real-sized
    /// operands. Dimensions are doubled from full scale and rounded up to
    /// multiples of 128 so every shape satisfies the mapping divisibility
    /// constraints (`K % rows`, `N % cols·lanes`) of both large geometries.
    Large,
}

impl Scale {
    /// Scales a full-scale dimension for the preset, keeping
    /// mapping-friendly granularity: smoke quarters and rounds *up* to a
    /// multiple of 32 (the default fabric's `rows` and `cols·lanes`
    /// granularities), large doubles and rounds up to a multiple of 128
    /// (the 128-row fabric's granularity), so shapes always satisfy the
    /// kernels' divisibility constraints at their tier's geometries.
    pub fn dim(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 4).div_ceil(32).max(1) * 32,
            Scale::Large => (full * 2).div_ceil(128).max(1) * 128,
        }
    }
}

// The architecture × workload table renderer lives with the sweep reports;
// the figures keep using it under its original name.
pub use canon_sweep::report::format_matrix;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_dims() {
        assert_eq!(Scale::Full.dim(256), 256);
        assert_eq!(Scale::Smoke.dim(256), 64);
        assert_eq!(Scale::Smoke.dim(64), 32);
        assert_eq!(Scale::Large.dim(256), 512);
        assert_eq!(Scale::Large.dim(100), 256);
    }

    #[test]
    fn large_dims_satisfy_128_row_granularity() {
        for full in [1, 33, 64, 100, 128, 200, 256, 512, 1000] {
            let d = Scale::Large.dim(full);
            assert_eq!(d % 128, 0, "dim({full}) = {d} not a multiple of 128");
            assert!(d >= 128, "dim({full}) = {d} below the 128 minimum");
            assert!(d >= full, "large tier must not shrink a dimension");
        }
    }

    #[test]
    fn smoke_dims_are_mapping_friendly_multiples_of_32() {
        // Quarter-scale rounds *up* to a multiple of 32 rather than
        // truncating: dim(200) = 50 -> 64, not 50; dim(100) = 25 -> 32.
        assert_eq!(Scale::Smoke.dim(200), 64);
        assert_eq!(Scale::Smoke.dim(100), 32);
        assert_eq!(Scale::Smoke.dim(33), 32);
        assert_eq!(Scale::Smoke.dim(512), 128);
        for full in [1, 33, 100, 192, 200, 255, 256, 1000, 14336] {
            let d = Scale::Smoke.dim(full);
            assert_eq!(d % 32, 0, "dim({full}) = {d} not a multiple of 32");
            assert!(d >= 32, "dim({full}) = {d} below the 32 minimum");
        }
    }

    #[test]
    fn matrix_formatting_renders_x() {
        let s = format_matrix(
            "t",
            &["a".into(), "b".into()],
            &[("canon", vec![Some(1.0), None])],
        );
        assert!(s.contains("X"));
        assert!(s.contains("1.000"));
    }
}
