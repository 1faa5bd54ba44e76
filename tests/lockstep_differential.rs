//! Column-lockstep differential: the lockstep engine must be
//! **perf-only**.
//!
//! Lockstep runs a fabric one column-0 cycle at a time and executes each
//! row issue on all columns at once (see the engine table in
//! `canon_core::fabric`). `CanonConfig::lockstep = false` keeps the per-PE
//! stepping reference, so these properties run the same random program
//! both ways and diff the full [`RunReport`] and both collector sequences
//! with their exit cycles. The only legitimate differences are the
//! diagnostics that name the executing engine (`engine`,
//! `batched_pe_cycles`, `replayed_cycles`), normalized on both sides;
//! `active_pe_cycles` must match.
//!
//! Two problem families cover the engine's dataflows: SpMM / GEMM / LUT
//! rows (vertical links only) and SDDMM rows (north-edge feeders and the
//! West→East psum chain). Directed tests pin the harness sentinels
//! (`PanicAt`, `max_cycles`, the watchdog under `WithholdCredits`) to the
//! same cycle and error for both, LUT rows whose table holds a `Nop` with a
//! port result, warm-pool reuse after a lockstep run, the
//! engine's reach (every tile of the sweep's GEMM, SpMM, N:M, SDDMM and
//! Window cells engages, and so does a traced fabric; `Custom` rows,
//! unequal feeder streams and stepped-then-run fabrics do not), and one
//! large-tier 64×64 golden on both engines. `tests/trace_replay.rs` diffs
//! the two engines' trace streams.

use canon::arch::fabric::CollectedEntry;
use canon::arch::fault::FaultAction;
use canon::arch::kernels::gemm::RegAccFsm;
use canon::arch::kernels::sddmm::{
    build_mask_streams, feed_queries, preload_key_tiles, ColPartition, SddmmFsm,
};
use canon::arch::kernels::spmm::{build_row_streams, preload_b_tile, SpmmFsm};
use canon::arch::kernels::{run_kernel, KernelInput};
use canon::arch::orchestrator::assembler::{regacc_fsm_spec, spmm_fsm_spec, FsmSpec};
use canon::arch::orchestrator::lut::AddrSel;
use canon::arch::orchestrator::RowProgram;
use canon::arch::pool;
use canon::arch::stats::{Engine, RunReport};
use canon::arch::trace::VecSink;
use canon::arch::{CanonConfig, Fabric, SimError, LANES};
use canon::sparse::gen::{self, SparsityBand};
use canon::sparse::{Dense, Mask};
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
    /// LUT SpMM rows issue a `Nop` that names the South port as its
    /// result, instead of a bubble, at their last row end.
    lut_nop_south: bool,
}

/// A problem both engines run: its configuration and how it loads onto a
/// fabric.
trait Case {
    fn cfg(&self) -> CanonConfig;

    /// Whether the north edge is a token-stream feeder.
    fn north_feeder(&self) -> bool;

    /// Loads the problem onto a fresh (or freshly reset) fabric.
    fn load(&self, fabric: &mut Fabric);

    fn fabric(&self, cfg: &CanonConfig) -> Fabric {
        let mut fabric = Fabric::new(cfg, self.north_feeder());
        self.load(&mut fabric);
        fabric
    }

    /// The per-PE stepping reference (`lockstep: false`).
    fn reference(&self) -> Fabric {
        self.fabric(&CanonConfig {
            lockstep: false,
            ..self.cfg()
        })
    }
}

impl Case for Problem {
    fn cfg(&self) -> CanonConfig {
        self.cfg()
    }

    fn north_feeder(&self) -> bool {
        false
    }

    fn load(&self, fabric: &mut Fabric) {
        self.load(fabric, false);
    }
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
        let streams = build_row_streams(&a, self.rows, self.rows);
        preload_b_tile(fabric, &b, k / self.rows, self.rows, 0);
        for (r, stream) in streams.into_iter().enumerate() {
            fabric.set_meta_stream(r, stream);
            let regacc = r < self.regacc_rows;
            let program: RowProgram = match (self.row_kind(r), regacc) {
                (Row::Lut, true) => self.lut(regacc_fsm_spec(self.m)),
                (Row::Lut, false) => self.lut(spmm_fsm_spec(self.depth, self.m)),
                (_, true) if custom => RowProgram::custom(RegAccFsm::new(self.m)),
                (_, true) => RegAccFsm::new(self.m).into(),
                (_, false) if custom => RowProgram::custom(SpmmFsm::new(self.depth, self.m)),
                (_, false) => SpmmFsm::new(self.depth, self.m).into(),
            };
            fabric.set_program(r, program);
        }
    }

    /// Assembles a LUT row, its `rowend-last` entry tweaked per
    /// [`Problem::lut_nop_south`].
    fn lut(&self, mut spec: FsmSpec) -> RowProgram {
        if self.lut_nop_south {
            for rule in spec.rules.iter_mut().filter(|r| r.name == "rowend-last") {
                rule.out.res = AddrSel::PortSouth;
            }
        }
        spec.into_program().expect("assembles").into()
    }
}

/// An SDDMM problem laid out by `run_sddmm`'s helpers (§4.1.2), with the knobs
/// the kernel fixes opened up: the A-buffer depth, the link FIFO depth
/// (shallow ones force credit stalls), and whether the bottom row forwards
/// `A` into the south edge sink.
#[derive(Debug, Clone, Copy)]
struct Sddmm {
    rows: usize,
    cols: usize,
    /// Streamed `A` rows.
    m: usize,
    /// `A` tokens per row (`K = w · cols · LANES`).
    w: usize,
    /// Keys per PE row (`N = h · rows`).
    h: usize,
    /// Zero fraction of a random mask; `None` for a diagonal window.
    sparsity: Option<f64>,
    cyclic: bool,
    depth: usize,
    link_depth: usize,
    bottom_forwards: bool,
    seed: u64,
}

impl Case for Sddmm {
    fn cfg(&self) -> CanonConfig {
        CanonConfig {
            rows: self.rows,
            cols: self.cols,
            link_fifo_depth: self.link_depth,
            ..CanonConfig::default()
        }
    }

    fn north_feeder(&self) -> bool {
        true
    }

    fn load(&self, fabric: &mut Fabric) {
        let (rows, m, w, h) = (self.rows, self.m, self.w, self.h);
        let (n, k) = (h * rows, w * self.cols * LANES);
        let mut rng = gen::seeded_rng(self.seed);
        let a = Dense::random(m, k, &mut rng);
        let b = Dense::random(n, k, &mut rng);
        let mask = match self.sparsity {
            Some(s) => gen::random_mask(m, n, s, &mut rng),
            None => Mask::window(m, n, 1 + self.seed as usize % 4),
        };
        let partition = if self.cyclic {
            ColPartition::Cyclic
        } else {
            ColPartition::Block
        };
        preload_key_tiles(fabric, &b, h, w, partition);
        feed_queries(fabric, &a, w);
        let streams = build_mask_streams(&mask, rows, partition);
        for (y, stream) in streams.into_iter().enumerate() {
            fabric.set_meta_stream(y, stream);
            let (n_base, n_stride) = partition.keys(y, h, rows);
            let forward_south = y + 1 < rows || self.bottom_forwards;
            fabric.set_program(
                y,
                SddmmFsm::new(w, m, n, n_base, n_stride, self.depth, forward_south),
            );
        }
    }
}

/// The report with the diagnostics that name the executing engine zeroed.
fn normalized(mut report: RunReport) -> RunReport {
    report.stats.batched_pe_cycles = 0;
    report.stats.replayed_cycles = 0;
    report
}

fn took_lockstep(report: &RunReport) -> bool {
    report.engine == Engine::Lockstep
}

fn assert_lockstep_invisible(lock: (&Fabric, RunReport), reference: (&Fabric, RunReport)) {
    let (lf, lr) = lock;
    let (rf, rr) = reference;
    assert!(took_lockstep(&lr), "lockstep did not engage: {lr:?}");
    assert_eq!(rr.engine, Engine::Scalar);
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
    assert_eq!(
        lf.east_collected(),
        rf.east_collected(),
        "east collector sequence diverged"
    );
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
            lut_nop_south: false,
        };
        let mut lock = p.fabric(&p.cfg());
        let mut reference = p.reference();
        let lr = lock.run().expect("lockstep run drains");
        let rr = reference.run().expect("reference run drains");
        assert_lockstep_invisible((&lock, lr), (&reference, rr));
    }

    /// Random SDDMM problems from 8×8 through 64×64: Block and Cyclic
    /// partitions, random and window masks, A-buffer depths, shallow link
    /// FIFOs (credit stalls) and a bottom row that forwards into the south
    /// sink or not. Lockstep's feeder-backed row link 0 and chain scan must
    /// reproduce every report field and both collectors.
    #[test]
    fn sddmm_lockstep_is_architecturally_invisible(
        seed in 0u64..10_000,
        rows_sel in 0usize..4,
        cols_sel in 0usize..4,
        m in 1usize..12,
        w in 1usize..4,
        h in 1usize..4,
        mask_sel in 0usize..4,
        cyclic in 0u8..2,
        extra_depth in 0usize..3,
        link_depth in 3usize..9,
        bottom_forwards in 0u8..2,
    ) {
        let dims = [8usize, 16, 32, 64];
        let (rows, cols) = (dims[rows_sel], dims[cols_sel]);
        // Keep the per-PE reference affordable in the dev profile.
        let (m, w, h) = if rows * cols > 1024 { (m.min(4), 1, 1) } else { (m, w, h) };
        let p = Sddmm {
            rows,
            cols,
            m,
            w,
            h,
            sparsity: [Some(0.0), Some(0.5), Some(0.9), None][mask_sel],
            cyclic: cyclic == 1,
            depth: w + extra_depth,
            link_depth,
            bottom_forwards: bottom_forwards == 1,
            seed,
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
        lut_nop_south: false,
    }
}

/// The 8×8 SDDMM problem the sentinel tests abort mid-run: a half-dense
/// mask, with the bottom row forwarding so both edge collectors fill.
fn sddmm() -> Sddmm {
    Sddmm {
        rows: 8,
        cols: 8,
        m: 24,
        w: 2,
        h: 2,
        sparsity: Some(0.5),
        cyclic: false,
        depth: 4,
        link_depth: 8,
        bottom_forwards: true,
        seed: 3,
    }
}

/// One run's outcome: the result, the fabric's report, and its south and
/// east collectors.
type Outcome = (
    Result<RunReport, SimError>,
    RunReport,
    Vec<CollectedEntry>,
    Vec<CollectedEntry>,
);

/// Runs `p` under `tweak` with and without the fast engines.
fn run_both(p: &dyn Case, tweak: impl Fn(&mut CanonConfig)) -> [Outcome; 2] {
    [true, false].map(|lockstep| {
        let mut cfg = CanonConfig {
            lockstep,
            ..p.cfg()
        };
        tweak(&mut cfg);
        let mut fabric = p.fabric(&cfg);
        let result = fabric.run();
        (
            result,
            fabric.report(),
            fabric.south_collected().to_vec(),
            fabric.east_collected().to_vec(),
        )
    })
}

#[test]
fn panic_at_fires_at_the_same_cycle() {
    let cases: [(&dyn Case, u64); 2] = [(&dense(), 300), (&sddmm(), 150)];
    for (p, at) in cases {
        let full = p.reference().run().expect("drains").cycles;
        assert!(at < full, "panic cycle {at} past the end ({full})");
        for lockstep in [true, false] {
            let cfg = CanonConfig {
                lockstep,
                fault: Some(FaultAction::PanicAt { cycle: at }),
                ..p.cfg()
            };
            let mut fabric = p.fabric(&cfg);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fabric.run()))
                .expect_err("injected panic must fire");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into());
            assert!(
                msg.contains("injected fault") && msg.contains(&format!("cycle {at}")),
                "unexpected panic payload with lockstep={lockstep}: {msg}"
            );
        }
    }
}

#[test]
fn cycle_ceiling_fires_at_the_same_cycle_mid_run_and_in_the_drain() {
    let cases: [&dyn Case; 2] = [&dense(), &sddmm()];
    for p in cases {
        let mut reference = p.reference();
        let full = reference.run().expect("drains").cycles;
        let south = reference.south_collected();
        let east = reference.east_collected();
        // Mid-run; exactly on a south- and an east-edge exit, which the
        // aborted run must not have collected yet; and inside the last
        // `3·(cols − 1)` cycles, where column 0 has drained and lockstep
        // only counts down the lagging columns.
        let mut ceilings = vec![full / 2, south[south.len() / 2].cycle, full - 5];
        if !east.is_empty() {
            ceilings.push(east[east.len() / 2].cycle);
            ceilings.push(east[east.len() - 1].cycle);
        }
        for ceiling in ceilings {
            let [(lock, _, lock_south, lock_east), (reference, _, ref_south, ref_east)] =
                run_both(p, |cfg| {
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
                lock_south, ref_south,
                "south exits collected before the abort"
            );
            assert_eq!(lock_east, ref_east, "east exits collected before the abort");
        }
    }
}

#[test]
fn withheld_credits_trip_the_watchdog_at_the_same_cycle() {
    let cases: [&dyn Case; 2] = [&dense(), &sddmm()];
    for p in cases {
        let [(lock, lock_report, lock_south, lock_east), (reference, ref_report, ref_south, ref_east)] =
            run_both(p, |cfg| cfg.fault = Some(FaultAction::WithholdCredits));
        let lock = lock.expect_err("lockstep run must deadlock");
        let reference = reference.expect_err("reference run must deadlock");
        assert!(matches!(lock, SimError::Deadlock { .. }), "{lock}");
        assert_eq!(lock.to_string(), reference.to_string());
        assert_eq!(lock_report.cycles, ref_report.cycles);
        assert_eq!(lock_south, ref_south);
        assert_eq!(lock_east, ref_east);
    }
}

/// A MAC operand past the end of the scratchpad fails identically on both
/// engines: lockstep bounds-checks its fast MAC plans in the row LOAD,
/// per-PE stepping reads the operand in column 0's LOAD, and both must
/// raise the same error at the same cycle. The SpMM rows' `MacS` accumulate
/// into window slots up to `depth − 1` and the SDDMM rows' `MacV` read
/// A-buffer slots up to `depth − 1`, so a scratchpad shallower than the
/// window or the buffer cuts them short.
#[test]
fn out_of_range_mac_operand_fails_at_the_same_cycle() {
    let cases: [(&dyn Case, usize, &str); 2] = [
        (&dense(), 2, "spad read 2 of 2"),
        (&sddmm(), 2, "spad read 2 of 2"),
    ];
    for (p, spad_entries, context) in cases {
        let [(lock, lock_report, lock_south, lock_east), (reference, ref_report, ref_south, ref_east)] =
            run_both(p, |cfg| cfg.spad_entries = spad_entries);
        let lock = lock.expect_err("lockstep run must fail");
        let reference = reference.expect_err("reference run must fail");
        assert!(took_lockstep(&lock_report), "lockstep did not engage");
        assert!(
            matches!(&lock, SimError::AddressOutOfRange { context: c } if c == context),
            "{lock}"
        );
        assert_eq!(lock.to_string(), reference.to_string());
        assert_eq!(lock_report.cycles, ref_report.cycles);
        assert_eq!(lock_south, ref_south);
        assert_eq!(lock_east, ref_east);
    }
}

/// A warm-pool fabric reused after runs on either engine — one drained, one
/// aborted mid-flight by the cycle ceiling with links, accumulators (and,
/// for SDDMM, feeder streams) still occupied — must audit pristine and
/// reproduce a cold run exactly.
#[test]
fn pooled_fabric_reuse_after_lockstep_matches_a_cold_run() {
    let spmm: [&dyn Case; 2] = [
        &Problem {
            regacc_rows: 0,
            ..dense()
        },
        &Problem {
            seed: 11,
            sparsity: 0.4,
            ..dense()
        },
    ];
    let sddmm: [&dyn Case; 2] = [
        &sddmm(),
        &Sddmm {
            seed: 12,
            cyclic: true,
            sparsity: None,
            ..sddmm()
        },
    ];
    for [first, second] in [spmm, sddmm] {
        let cfg = second.cfg();
        let full = first.reference().run().expect("drains").cycles;
        let first_cfgs = [None, Some(full / 2)].map(|max_cycles| {
            [true, false].map(|lockstep| CanonConfig {
                lockstep,
                max_cycles,
                ..cfg.clone()
            })
        });
        let _pool = pool::install(1);
        for first_cfg in first_cfgs.iter().flatten() {
            {
                let mut warm = pool::acquire(first_cfg, first.north_feeder());
                first.load(&mut warm);
                let run = warm.run();
                if first_cfg.max_cycles.is_some() {
                    assert!(matches!(run, Err(SimError::Timeout { .. })), "{run:?}");
                } else {
                    let run = run.expect("first run drains");
                    assert_eq!(took_lockstep(&run), first_cfg.lockstep);
                }
            }
            let mut warm = pool::acquire(&cfg, second.north_feeder());
            warm.assert_pristine();
            second.load(&mut warm);
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
            assert_eq!(warm.east_collected(), cold.east_collected());
        }
        // One construction; every later acquire reused that fabric.
        let stats = pool::stats().expect("pool installed");
        assert_eq!((stats.misses, stats.hits), (1, 7));
    }
}

/// A LUT table may hold a `Nop` that names a port result: the `Nop` writes
/// nothing back, so the PE below it keeps an empty link and is not live on
/// either engine. Here every SpMM row's last row end issues such a `Nop`
/// (a South result, which also takes a south credit) while the PE below is
/// idle; liveness derived from anything but PE state would count that PE.
#[test]
fn lut_nop_with_a_port_result_is_lockstep_invisible() {
    for (seed, rows, cols, sparsity, regacc_rows) in
        [(0, 8, 8, 0.9, 0), (3, 8, 8, 0.0, 4), (0, 16, 4, 0.9, 0)]
    {
        let p = Problem {
            rows,
            cols,
            m: 1,
            band_words: 4,
            sparsity,
            depth: 2,
            seed,
            regacc_rows,
            lut_every: 1,
            lut_nop_south: true,
        };
        let mut lock = p.fabric(&p.cfg());
        let mut reference = p.reference();
        let lr = lock.run().expect("lockstep run drains");
        let rr = reference.run().expect("reference run drains");
        assert_lockstep_invisible((&lock, lr), (&reference, rr));
    }
}

/// The sweep's Canon tensor templates at smoke scale.
fn template(name: &str) -> OpTemplate {
    standard_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no standard workload {name}"))
        .template
}

fn tensor_input(
    name: &str,
    band: Option<SparsityBand>,
    scale: usize,
) -> canon::arch::kernels::KernelInput {
    match template(name).instantiate(band, scale) {
        Workload::Tensor(op) => kernel_input(&op, 5),
        other => panic!("{name} is not a tensor workload: {other:?}"),
    }
}

/// Lockstep must carry every tile of the GEMM, SpMM (all bands), N:M, SDDMM
/// (all bands) and Window cells at the small and large geometries, with no
/// knob: a multi-tile kernel's summed report names the lockstep engine only
/// if every tile took it.
#[test]
fn lockstep_reaches_every_tensor_tile() {
    let cells = [
        ("GEMM", None),
        ("SpMM", Some(SparsityBand::S1)),
        ("SpMM", Some(SparsityBand::S2)),
        ("SpMM", Some(SparsityBand::S3)),
        ("SpMM-2:4", None),
        ("SpMM-2:8", None),
        ("SDDMM", Some(SparsityBand::S1)),
        ("SDDMM", Some(SparsityBand::S2)),
        ("SDDMM", Some(SparsityBand::S3)),
        ("SDDMM-Win1", None),
        ("SDDMM-Win2", None),
    ];
    for (rows, cols) in [(8, 8), (16, 8), (64, 64)] {
        let cfg = CanonConfig::default().with_geometry(rows, cols);
        for (name, band) in cells {
            // SDDMM's 128 keys at scale 4 cannot fill 64 PE rows.
            let scale = if (name, rows) == ("SDDMM", 64) { 2 } else { 4 };
            let out = run_kernel(&cfg, &tensor_input(name, band, scale)).expect("maps");
            assert!(
                took_lockstep(&out.report),
                "{name} {band:?} at {rows}x{cols} left lockstep: {:?}",
                out.report
            );
        }
    }
}

/// Lockstep must stay off wherever it is not exact or not requested, and a
/// trace sink must not turn it off.
#[test]
fn lockstep_stays_off_outside_its_reach() {
    let p = dense();
    // `Custom` rows.
    let mut custom = Fabric::new(&p.cfg(), false);
    p.load(&mut custom, true);
    assert!(
        !took_lockstep(&custom.run().expect("drains")),
        "custom rows"
    );
    // Feeder streams of unequal length (the no-underflow argument needs
    // equal ones): the last column's first pop underflows.
    let q = sddmm();
    let mut ragged = q.fabric(&q.cfg());
    ragged.set_feeder(q.cols - 1, Vec::new());
    assert!(ragged.run().is_err(), "ragged feeders");
    assert_eq!(ragged.report().engine, Engine::Scalar, "ragged feeders");
    // Traced fabrics keep lockstep: the trace records only what both
    // engines share.
    let mut traced = p.fabric(&p.cfg());
    traced.set_trace_sink(Box::new(VecSink::default()));
    assert!(took_lockstep(&traced.run().expect("drains")), "traced");
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
/// configuration (lockstep) and on the per-PE reference (`lockstep: false`).
#[test]
fn gemm_64x64_large_tier_golden() {
    let mut rng = gen::seeded_rng(21);
    let a = Dense::random(8, 16384, &mut rng);
    let b = Dense::random(16384, 256, &mut rng);
    let input = KernelInput::Gemm { a, b };
    for lockstep in [true, false] {
        let cfg = CanonConfig {
            lockstep,
            ..CanonConfig::default().with_geometry(64, 64)
        };
        let out = run_kernel(&cfg, &input).expect("large GEMM maps");
        // Register accumulation at row-group fold g = 16 on this shape.
        assert_eq!(
            out.report.cycles, 2367,
            "cycle count drifted (lockstep={lockstep})"
        );
        assert_eq!(out.report.stats.mac_instrs, 8_388_608);
        assert_eq!(
            result_fp(&out.result),
            0x4f3d_9722_e307_3245,
            "result drifted (lockstep={lockstep})"
        );
    }
}
