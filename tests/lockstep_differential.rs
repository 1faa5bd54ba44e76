//! Column-lockstep differential: the lockstep engine must be
//! **perf-only**.
//!
//! Lockstep runs a vertical-only fabric one column-0 cycle at a time and
//! executes each row issue on all columns at once (see the engine table in
//! `canon_core::fabric`). `CanonConfig::replay = false` keeps the per-PE
//! stepping reference, so these properties run the same random program
//! both ways and diff the full [`RunReport`] and the south collector
//! sequence with its exit cycles. The only legitimate differences are the
//! diagnostics that name the executing engine (`batched_pe_cycles`,
//! `replayed_cycles`), normalized to zero on both sides; `active_pe_cycles`
//! must match.
//!
//! Directed tests pin the harness sentinels (`PanicAt`, `max_cycles`, the
//! watchdog under `WithholdCredits`) to the same cycle and error, warm-pool
//! reuse after a lockstep run, the engine's reach (every tile of the
//! sweep's GEMM, SpMM and N:M cells engages, and SDDMM, Window, `Custom`
//! rows, traced and stepped-then-run fabrics do not), and one
//! large-tier 64×64 golden on both engines.

use canon::arch::fabric::CollectedEntry;
use canon::arch::fault::FaultAction;
use canon::arch::kernels::gemm::RegAccFsm;
use canon::arch::kernels::spmm::{build_row_streams, preload_b_tile, SpmmFsm};
use canon::arch::kernels::{run_kernel, KernelInput};
use canon::arch::orchestrator::assembler::{regacc_fsm_spec, spmm_fsm_spec};
use canon::arch::orchestrator::RowProgram;
use canon::arch::pool;
use canon::arch::stats::RunReport;
use canon::arch::trace::VecSink;
use canon::arch::{CanonConfig, Fabric, SimError};
use canon::sparse::gen::{self, SparsityBand};
use canon::sparse::Dense;
use canon::sweep::backend::kernel_input;
use canon::sweep::scenario::{standard_workloads, OpTemplate};
use canon::sweep::store::fnv1a64;
use canon::workloads::Workload;
use proptest::prelude::*;

/// How one fabric row is programmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    /// Native register-accumulation FSM.
    RegAcc,
    /// Native scratchpad-window FSM.
    Spmm,
    /// The assembled LUT twin of the row's FSM.
    Lut,
}

/// An SpMM-shaped problem sized for the geometry: rows `0..regacc_rows`
/// accumulate in a register, the rest in the scratchpad window; every
/// `lut_every`-th row (when non-zero) runs the assembled LUT bitstream of
/// its FSM instead of the native one.
#[derive(Debug, Clone, Copy)]
struct Problem {
    rows: usize,
    cols: usize,
    m: usize,
    band_words: usize,
    sparsity: f64,
    depth: usize,
    seed: u64,
    regacc_rows: usize,
    lut_every: usize,
}

impl Problem {
    fn cfg(&self) -> CanonConfig {
        CanonConfig {
            rows: self.rows,
            cols: self.cols,
            dmem_words: self.band_words.max(64),
            spad_entries: 16,
            ..CanonConfig::default()
        }
    }

    fn row_kind(&self, r: usize) -> Row {
        if self.lut_every > 0 && r.is_multiple_of(self.lut_every) {
            Row::Lut
        } else if r < self.regacc_rows {
            Row::RegAcc
        } else {
            Row::Spmm
        }
    }

    /// Loads the problem onto a fresh (or freshly reset) fabric;
    /// `custom` wraps every FSM in the open [`RowProgram::Custom`].
    fn load(&self, fabric: &mut Fabric, custom: bool) {
        let k = self.rows * self.band_words;
        let mut rng = gen::seeded_rng(self.seed);
        let a = gen::skewed_sparse(self.m, k, self.sparsity, 2.0, &mut rng);
        let b = Dense::random(k, self.cols * 4, &mut rng);
        let streams = build_row_streams(&a, self.rows, self.rows).expect("K is a multiple of rows");
        preload_b_tile(fabric, &b, k / self.rows, self.rows, 0).expect("tile fits");
        for (r, stream) in streams.into_iter().enumerate() {
            fabric.set_meta_stream(r, stream);
            let regacc = r < self.regacc_rows;
            let program: RowProgram = match (self.row_kind(r), regacc) {
                (Row::Lut, true) => regacc_fsm_spec(self.m)
                    .into_program()
                    .expect("assembles")
                    .into(),
                (Row::Lut, false) => spmm_fsm_spec(self.depth, self.m)
                    .into_program()
                    .expect("assembles")
                    .into(),
                (_, true) if custom => RowProgram::custom(RegAccFsm::new(self.m)),
                (_, true) => RegAccFsm::new(self.m).into(),
                (_, false) if custom => RowProgram::custom(SpmmFsm::new(self.depth, self.m)),
                (_, false) => SpmmFsm::new(self.depth, self.m).into(),
            };
            fabric.set_program(r, program);
        }
    }

    fn fabric(&self, cfg: &CanonConfig) -> Fabric {
        let mut fabric = Fabric::new(cfg, false);
        self.load(&mut fabric, false);
        fabric
    }

    /// The per-PE stepping reference (`replay: false`).
    fn reference(&self) -> Fabric {
        self.fabric(&CanonConfig {
            replay: false,
            ..self.cfg()
        })
    }
}

/// The report with the diagnostics that name the executing engine zeroed.
fn normalized(mut report: RunReport) -> RunReport {
    report.stats.batched_pe_cycles = 0;
    report.stats.replayed_cycles = 0;
    report
}

/// Whether the run took the lockstep engine: it vectorizes every active
/// PE-cycle and never replays.
fn took_lockstep(report: &RunReport) -> bool {
    report.stats.active_pe_cycles > 0
        && report.stats.batched_pe_cycles == report.stats.active_pe_cycles
        && report.stats.replayed_cycles == 0
}

fn assert_lockstep_invisible(lock: (&Fabric, RunReport), reference: (&Fabric, RunReport)) {
    let (lf, lr) = lock;
    let (rf, rr) = reference;
    assert!(
        took_lockstep(&lr),
        "lockstep did not engage: {:?}",
        lr.stats
    );
    assert_eq!(
        normalized(lr),
        normalized(rr),
        "lockstep/reference reports diverged"
    );
    assert_eq!(
        lf.south_collected(),
        rf.south_collected(),
        "south collector sequence diverged"
    );
    assert!(lf.east_collected().is_empty() && rf.east_collected().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random geometries from 8×8 through 64×64, SpMM/RegAcc row splits,
    /// LUT rows, bands, sparsities and window depths: lockstep and per-PE
    /// stepping must agree on every report field and every collected exit.
    #[test]
    fn lockstep_is_architecturally_invisible(
        seed in 0u64..10_000,
        rows_sel in 0usize..4,
        cols_sel in 0usize..4,
        m in 1usize..20,
        band_sel in 0usize..3,
        sparsity in 0.0f64..0.95,
        depth in 1usize..5,
        regacc_sel in 0u8..4,
        lut_sel in 0usize..3,
    ) {
        let dims = [8usize, 16, 32, 64];
        let (rows, cols) = (dims[rows_sel], dims[cols_sel]);
        let mut band_words = [4usize, 16, 64][band_sel];
        if rows * cols * m * band_words > 2_000_000 {
            band_words = 4;
        }
        let p = Problem {
            rows,
            cols,
            m,
            band_words,
            sparsity,
            depth,
            seed,
            regacc_rows: [0, rows, rows / 2, rows / 4][regacc_sel as usize],
            lut_every: [0, 3, 1][lut_sel],
        };
        let mut lock = p.fabric(&p.cfg());
        let mut reference = p.reference();
        let lr = lock.run().expect("lockstep run drains");
        let rr = reference.run().expect("reference run drains");
        assert_lockstep_invisible((&lock, lr), (&reference, rr));
    }
}

/// The dense, deep-band 8×8 problem the sentinel tests abort mid-run.
fn dense() -> Problem {
    Problem {
        rows: 8,
        cols: 8,
        m: 16,
        band_words: 64,
        sparsity: 0.0,
        depth: 4,
        seed: 7,
        regacc_rows: 4,
        lut_every: 0,
    }
}

/// One run's outcome: the result, the fabric's report, and its south
/// collector.
type Outcome = (Result<RunReport, SimError>, RunReport, Vec<CollectedEntry>);

/// Runs `p` under `tweak` with and without the fast engines.
fn run_both(p: &Problem, tweak: impl Fn(&mut CanonConfig)) -> [Outcome; 2] {
    [true, false].map(|fast| {
        let mut cfg = CanonConfig {
            replay: fast,
            ..p.cfg()
        };
        tweak(&mut cfg);
        let mut fabric = p.fabric(&cfg);
        let result = fabric.run();
        (result, fabric.report(), fabric.south_collected().to_vec())
    })
}

#[test]
fn panic_at_fires_at_the_same_cycle() {
    for replay in [true, false] {
        let cfg = CanonConfig {
            replay,
            fault: Some(FaultAction::PanicAt { cycle: 300 }),
            ..dense().cfg()
        };
        let mut fabric = dense().fabric(&cfg);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fabric.run()))
            .expect_err("injected panic must fire");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(
            msg.contains("injected fault") && msg.contains("cycle 300"),
            "unexpected panic payload with replay={replay}: {msg}"
        );
    }
}

#[test]
fn cycle_ceiling_fires_at_the_same_cycle_mid_run_and_in_the_drain() {
    let mut reference = dense().reference();
    let full = reference.run().expect("drains").cycles;
    let exits = reference.south_collected();
    // Mid-run; exactly on a south-edge exit, which the aborted run must not
    // have collected yet; and inside the last `3·(cols − 1)` cycles, where
    // column 0 has drained and lockstep only counts down the lagging
    // columns.
    for ceiling in [300, exits[exits.len() / 2].cycle, full - 5] {
        let [(lock, _, lock_exits), (reference, _, reference_exits)] = run_both(&dense(), |cfg| {
            cfg.max_cycles = Some(ceiling);
        });
        let lock = lock.expect_err("lockstep run must time out");
        let reference = reference.expect_err("reference run must time out");
        assert!(
            matches!(&lock, SimError::Timeout { cycle, .. } if *cycle == ceiling),
            "{lock}"
        );
        assert_eq!(lock.to_string(), reference.to_string());
        assert_eq!(
            lock_exits, reference_exits,
            "exits collected before the abort"
        );
    }
}

#[test]
fn withheld_credits_trip_the_watchdog_at_the_same_cycle() {
    let [(lock, lock_report, lock_exits), (reference, reference_report, reference_exits)] =
        run_both(&dense(), |cfg| {
            cfg.fault = Some(FaultAction::WithholdCredits);
            cfg.watchdog_factor = 2;
            cfg.watchdog_slack = 100;
        });
    let lock = lock.expect_err("lockstep run must deadlock");
    let reference = reference.expect_err("reference run must deadlock");
    assert!(matches!(lock, SimError::Deadlock { .. }), "{lock}");
    assert_eq!(lock.to_string(), reference.to_string());
    assert_eq!(lock_report.cycles, reference_report.cycles);
    assert_eq!(lock_exits, reference_exits);
}

/// A warm-pool fabric reused after lockstep runs — one drained, one aborted
/// mid-flight by the cycle ceiling with row links still occupied — must
/// audit pristine and reproduce a cold run exactly.
#[test]
fn pooled_fabric_reuse_after_lockstep_matches_a_cold_run() {
    let first = Problem {
        regacc_rows: 0,
        ..dense()
    };
    let second = Problem {
        seed: 11,
        sparsity: 0.4,
        ..dense()
    };
    let cfg = dense().cfg();
    let aborting = CanonConfig {
        max_cycles: Some(200),
        ..cfg.clone()
    };
    let _pool = pool::install(1);
    for first_cfg in [&cfg, &aborting] {
        {
            let mut warm = pool::acquire(first_cfg, false);
            first.load(&mut warm, false);
            let run = warm.run();
            if first_cfg.max_cycles.is_some() {
                assert!(matches!(run, Err(SimError::Timeout { .. })), "{run:?}");
            } else {
                assert!(took_lockstep(&run.expect("first run drains")));
            }
        }
        let mut warm = pool::acquire(&cfg, false);
        warm.assert_pristine();
        second.load(&mut warm, false);
        let warm_report = warm.run().expect("warm run drains");
        let mut cold = second.fabric(&cfg);
        let cold_report = cold.run().expect("cold run drains");
        assert!(took_lockstep(&warm_report));
        assert_eq!(
            RunReport {
                wall_ns: 0,
                ..warm_report
            },
            RunReport {
                wall_ns: 0,
                ..cold_report
            }
        );
        assert_eq!(warm.south_collected(), cold.south_collected());
    }
    // One construction; every later acquire reused that fabric.
    let stats = pool::stats().expect("pool installed");
    assert_eq!((stats.misses, stats.hits), (1, 3));
}

/// The sweep's Canon tensor templates at smoke scale.
fn template(name: &str) -> OpTemplate {
    standard_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no standard workload {name}"))
        .template
}

fn tensor_input(name: &str, band: Option<SparsityBand>) -> canon::arch::kernels::KernelInput {
    match template(name).instantiate(band, 4) {
        Workload::Tensor(op) => kernel_input(&op, 5),
        other => panic!("{name} is not a tensor workload: {other:?}"),
    }
}

/// Lockstep must carry every tile of the GEMM, SpMM (all bands) and N:M
/// cells at the small and large geometries: the summed report of a
/// multi-tile kernel vectorizes every active PE-cycle only if every tile
/// did.
#[test]
fn lockstep_reaches_every_gemm_spmm_and_nm_tile() {
    let cells = [
        ("GEMM", None),
        ("SpMM", Some(SparsityBand::S1)),
        ("SpMM", Some(SparsityBand::S2)),
        ("SpMM", Some(SparsityBand::S3)),
        ("SpMM-2:4", None),
        ("SpMM-2:8", None),
    ];
    for (rows, cols) in [(8, 8), (16, 8), (64, 64)] {
        let cfg = CanonConfig::default().with_geometry(rows, cols);
        for (name, band) in cells {
            let out = run_kernel(&cfg, &tensor_input(name, band)).expect("maps");
            assert!(
                took_lockstep(&out.report),
                "{name} {band:?} at {rows}x{cols} left lockstep: {:?}",
                out.report.stats
            );
        }
    }
}

/// Lockstep must stay off wherever it is not exact or not requested.
#[test]
fn lockstep_stays_off_outside_its_reach() {
    let cfg = CanonConfig::default();
    // SDDMM and Window: north-edge feeders and a West→East psum chain.
    for name in ["SDDMM", "SDDMM-Win1"] {
        let out = run_kernel(&cfg, &tensor_input(name, Some(SparsityBand::S2))).expect("maps");
        assert!(!took_lockstep(&out.report), "{name} took lockstep");
    }
    let p = dense();
    // `Custom` rows.
    let mut custom = Fabric::new(&p.cfg(), false);
    p.load(&mut custom, true);
    assert!(
        !took_lockstep(&custom.run().expect("drains")),
        "custom rows"
    );
    // Traced fabrics.
    let mut traced = p.fabric(&p.cfg());
    traced.set_trace_sink(Box::new(VecSink::default()));
    assert!(!took_lockstep(&traced.run().expect("drains")), "traced");
    // Stepped, then run.
    let mut stepped = p.fabric(&p.cfg());
    stepped.step().expect("steps");
    assert!(!took_lockstep(&stepped.run().expect("drains")), "stepped");
}

/// FNV-1a over the little-endian result matrix — byte-identical outputs.
fn result_fp(result: &Dense) -> u64 {
    let mut bytes = Vec::with_capacity(result.as_slice().len() * 4);
    for &v in result.as_slice() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Large-tier golden: one 64×64 GEMM with a deep, large-tier K band
/// (K = 16384, 256 dmem words per fabric row). Pins the cycle count, MAC
/// count, and result fingerprint at the `large` geometry on the default
/// configuration (lockstep) and on the per-PE reference (`replay: false`).
#[test]
fn gemm_64x64_large_tier_golden() {
    let mut rng = gen::seeded_rng(21);
    let a = Dense::random(8, 16384, &mut rng);
    let b = Dense::random(16384, 256, &mut rng);
    let input = KernelInput::Gemm { a, b };
    for replay in [true, false] {
        let cfg = CanonConfig {
            replay,
            ..CanonConfig::default().with_geometry(64, 64)
        };
        let out = run_kernel(&cfg, &input).expect("large GEMM maps");
        // Register accumulation at row-group fold g = 16 on this shape.
        assert_eq!(
            out.report.cycles, 2367,
            "cycle count drifted (replay={replay})"
        );
        assert_eq!(out.report.stats.mac_instrs, 8_388_608);
        assert_eq!(
            result_fp(&out.result),
            0x4f3d_9722_e307_3245,
            "result drifted (replay={replay})"
        );
    }
}
