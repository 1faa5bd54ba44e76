//! Static spatial (place-and-route) execution mode — Appendix D.
//!
//! Canon is backwards compatible with the classical CGRA execution model:
//! during a *configuration phase* the orchestrators stream instructions into
//! the array without executing their side effects (`cols × 3` cycles for a
//! full array), after which every PE *holds* its instruction and re-executes
//! it each cycle, with the staggered issue stopped. A kernel's dataflow graph
//! can then be spatially mimicked on the fabric like on a conventional
//! reconfigurable architecture.
//!
//! The simulator models the steady state directly: each PE repeats its held
//! instruction for `steps` cycles over elastic links (pops of not-yet-filled
//! links read zero during the pipeline warm-up, which the compiler accounts
//! for when deciding which output cycles are valid), and the configuration
//! cost is added to the reported cycle count.

use crate::config::CanonConfig;
use crate::isa::{InstrHandle, InstrRing, Instruction, Vector, LANES, PIPE_DEPTH};
use crate::noc::{LinkGrid, TaggedVector};
use crate::pe::PeArray;
use crate::stats::RunReport;
use crate::SimError;
use std::collections::VecDeque;

/// A static spatial configuration: one held instruction per PE, plus
/// optional per-PE data-memory preloads.
#[derive(Debug, Clone)]
pub struct SpatialProgram {
    /// `rows × cols` held instructions (use [`Instruction::NOP`] for unused
    /// PEs).
    pub grid: Vec<Vec<Instruction>>,
    /// Data-memory preloads: `(row, col, base word, words)`.
    pub preload: Vec<(usize, usize, usize, Vec<Vector>)>,
}

/// Output of a spatial run.
#[derive(Debug, Clone)]
pub struct SpatialOutput {
    /// Entries that exited the south edge, in cycle order.
    pub south: Vec<TaggedVector>,
    /// Entries that exited the east edge, in cycle order.
    pub east: Vec<TaggedVector>,
    /// Cycle counts (including the configuration phase) and activity.
    pub report: RunReport,
}

/// Runs a spatial program for `steps` execution cycles.
///
/// `north_feed[c]` streams one token per cycle into column `c`'s north edge.
///
/// # Errors
///
/// Propagates address/router errors from the held instructions.
///
/// # Panics
///
/// Panics if the instruction grid does not match the configuration's
/// dimensions.
pub fn run_spatial(
    cfg: &CanonConfig,
    program: &SpatialProgram,
    north_feed: Vec<Vec<TaggedVector>>,
    steps: usize,
) -> Result<SpatialOutput, SimError> {
    assert_eq!(program.grid.len(), cfg.rows, "instruction grid rows");
    for row in &program.grid {
        assert_eq!(row.len(), cfg.cols, "instruction grid cols");
    }
    let mut pes = PeArray::new(cfg.pe_count(), cfg.dmem_words, cfg.spad_entries);
    for (r, c, base, words) in &program.preload {
        pes.pe_mut(r * cfg.cols + c).dmem.preload(*base, words);
    }
    // Validate every held instruction's §3.1 route rules once up front
    // (cycle 0, row-major — exactly where and when the per-cycle LOAD used
    // to detect it); the execution loop then re-loads without re-checking.
    if steps > 0 {
        for r in 0..cfg.rows {
            for c in 0..cfg.cols {
                if let Some(d) = program.grid[r][c].noc_conflict() {
                    return Err(SimError::RouterConflict {
                        cycle: 0,
                        pe: (r, c),
                        direction: d.to_string(),
                    });
                }
            }
        }
    }
    let mut grid = LinkGrid::new_elastic(cfg.rows, cfg.cols);
    // Held instructions are interned once; the execution loop replays the
    // 4-byte handles. The ring is sized to the PE count and never interns
    // again, so no slot is ever reused (generation tags stay valid for the
    // whole run).
    let mut ring = InstrRing::with_capacity(cfg.pe_count().max(1));
    let mut handles: Vec<InstrHandle> = Vec::with_capacity(cfg.pe_count());
    for row in &program.grid {
        for &i in row {
            handles.push(ring.intern(i));
        }
    }
    let mut feeders: Vec<VecDeque<TaggedVector>> =
        north_feed.into_iter().map(VecDeque::from).collect();
    feeders.resize(cfg.cols, VecDeque::new());

    let mut south = Vec::new();
    let mut east = Vec::new();
    let mut feed_bytes = 0u64;
    let wall_start = std::time::Instant::now();
    // Execution phase: every PE replays its held instruction each cycle.
    // Warm-up drains through the elastic links; `steps` covers warm-up plus
    // useful throughput (the caller accounts for the pipeline fill).
    for cycle in 0..steps as u64 {
        for c in 0..cfg.cols {
            if let Some(tok) = feeders[c].pop_front() {
                grid.vertical(0, c).push(tok, cycle, "spatial feeder")?;
                feed_bytes += LANES as u64;
            }
        }
        // Unlike the dynamic fabric's fused active sweep, the phases stay
        // barriered here: elastic links pop zero when empty, so the relative
        // order of pushes and pops across PEs is architecturally visible
        // during warm-up and must match the hardware's phase ordering.
        for r in 0..cfg.rows {
            for c in 0..cfg.cols {
                pes.commit_into(r * cfg.cols + c, &ring, &mut grid, r, c, cycle, None)?;
            }
        }
        for r in 0..cfg.rows {
            for c in 0..cfg.cols {
                let idx = r * cfg.cols + c;
                pes.load_forwarded(idx, handles[idx], &ring, &mut grid, r, c, cycle)?;
            }
        }
        pes.advance();
        for c in 0..cfg.cols {
            south.extend(grid.vertical(cfg.rows, c).drain_all());
        }
        for r in 0..cfg.rows {
            east.extend(grid.horizontal(r, cfg.cols).drain_all());
        }
    }

    let config_cycles = (cfg.cols * PIPE_DEPTH) as u64;
    let mut stats = pes.activity().to_stats();
    stats.noc_hops = grid.total_pushes();
    stats.offchip_read_bytes = feed_bytes;
    Ok(SpatialOutput {
        south,
        east,
        report: RunReport {
            cycles: steps as u64 + config_cycles,
            pes: cfg.pe_count(),
            stats,
            wall_ns: wall_start.elapsed().as_nanos() as u64,
            engine: crate::stats::Engine::Scalar,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Addr, Direction, Opcode};

    fn cfg(rows: usize, cols: usize) -> CanonConfig {
        CanonConfig {
            rows,
            cols,
            dmem_words: 8,
            spad_entries: 4,
            ..CanonConfig::default()
        }
    }

    /// A 1×3 pipeline: y = ((x * 2) + 3) * 4 computed spatially, one element
    /// per cycle in steady state.
    #[test]
    fn spatial_pipeline_steady_state() {
        let cfg = cfg(1, 3);
        // PE (0,0): Mul north-input by dmem[0]=2 → East.
        // PE (0,1): Add west by dmem[0]=3 → East.
        // PE (0,2): Mul west by dmem[0]=4 → East (edge sink).
        let grid = vec![vec![
            Instruction::new(
                Opcode::Mul,
                Addr::Port(Direction::North),
                Addr::DataMem(0),
                Addr::Port(Direction::East),
            ),
            Instruction::new(
                Opcode::Add,
                Addr::Port(Direction::West),
                Addr::DataMem(0),
                Addr::Port(Direction::East),
            ),
            Instruction::new(
                Opcode::Mul,
                Addr::Port(Direction::West),
                Addr::DataMem(0),
                Addr::Port(Direction::East),
            ),
        ]];
        let program = SpatialProgram {
            grid,
            preload: vec![
                (0, 0, 0, vec![Vector::splat(2)]),
                (0, 1, 0, vec![Vector::splat(3)]),
                (0, 2, 0, vec![Vector::splat(4)]),
            ],
        };
        let n = 10;
        let feed: Vec<TaggedVector> = (1..=n)
            .map(|i| TaggedVector {
                value: Vector::splat(i),
                tag: i as u32,
            })
            .collect();
        let out = run_spatial(&cfg, &program, vec![feed], n as usize + 12).unwrap();
        // Steady-state outputs: ((x*2)+3)*4 for each fed x. Warm-up zeros
        // compute ((0*2)+3)*4 = 12; filter them by checking against the
        // expected set.
        let expected: Vec<i32> = (1..=n).map(|x| ((x * 2) + 3) * 4).collect();
        let got: Vec<i32> = out
            .east
            .iter()
            .map(|e| e.value.lane0())
            .filter(|v| expected.contains(v))
            .collect();
        assert_eq!(got, expected);
        // Config phase charged: cols * 3.
        assert_eq!(out.report.cycles, (n as u64 + 12) + 9);
    }

    #[test]
    fn spatial_counts_compute() {
        let cfg = cfg(1, 1);
        let grid = vec![vec![Instruction::new(
            Opcode::Add,
            Addr::Port(Direction::North),
            Addr::DataMem(0),
            Addr::Port(Direction::South),
        )]];
        let program = SpatialProgram {
            grid,
            preload: vec![(0, 0, 0, vec![Vector::splat(1)])],
        };
        let out = run_spatial(&cfg, &program, vec![vec![]], 5).unwrap();
        assert_eq!(out.report.stats.compute_instrs, 5);
        assert_eq!(out.south.len(), 3); // 5 cycles minus 2-cycle fill
    }

    /// Pins a whole spatial report: a NOP-held PE counts one instruction
    /// per cycle and nothing else, and the other PEs count their memory
    /// reads and writes, NoC pushes and fed bytes.
    #[test]
    fn spatial_report_pins_every_count() {
        let cfg = cfg(2, 2);
        let (north, west, east) = (
            Addr::Port(Direction::North),
            Addr::Port(Direction::West),
            Addr::Port(Direction::East),
        );
        let grid = vec![
            vec![
                Instruction::new(Opcode::Add, north, Addr::DataMem(0), east),
                Instruction::new(Opcode::Add, west, Addr::Spad(0), Addr::Spad(0)),
            ],
            vec![
                Instruction::NOP,
                Instruction::new(Opcode::MacS, Addr::Imm, Addr::DataMem(1), Addr::DataMem(2))
                    .with_imm(Vector::splat(2)),
            ],
        ];
        let program = SpatialProgram {
            grid,
            preload: vec![(1, 1, 1, vec![Vector::splat(3)])],
        };
        let feed = (1..=3)
            .map(|i| TaggedVector {
                value: Vector::splat(i),
                tag: i as u32,
            })
            .collect();
        let out = run_spatial(&cfg, &program, vec![feed], 6).unwrap();
        assert_eq!(out.report.cycles, 6 + 2 * PIPE_DEPTH as u64);
        assert_eq!(
            out.report.stats,
            crate::stats::Stats {
                instrs_executed: 24,
                compute_instrs: 18,
                mac_instrs: 6,
                dmem_reads: 18,
                dmem_writes: 4,
                spad_reads: 6,
                spad_writes: 4,
                noc_hops: 7,
                offchip_read_bytes: 12,
                ..crate::stats::Stats::new()
            }
        );
    }

    #[test]
    #[should_panic(expected = "instruction grid rows")]
    fn spatial_grid_shape_checked() {
        let cfg = cfg(2, 1);
        let program = SpatialProgram {
            grid: vec![vec![Instruction::NOP]],
            preload: vec![],
        };
        let _ = run_spatial(&cfg, &program, vec![], 1);
    }
}
