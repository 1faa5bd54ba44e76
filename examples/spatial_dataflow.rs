//! Appendix D: using Canon as a classical spatial (place-and-route) fabric.
//!
//! Configures a 1×4 pipeline that computes `y = ((x·3) + 5) · 2 − 1`
//! spatially — each PE holds one instruction and data streams through at one
//! element per cycle, exactly like a statically-configured CGRA.
//!
//! ```sh
//! cargo run --release --example spatial_dataflow
//! ```

use canon::arch::isa::{Addr, Direction, Instruction, Opcode, Vector, PIPE_DEPTH};
use canon::arch::kernels::spatial::{run_spatial, SpatialProgram};
use canon::arch::noc::TaggedVector;
use canon::arch::CanonConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = CanonConfig {
        rows: 1,
        cols: 4,
        dmem_words: 8,
        spad_entries: 4,
        ..CanonConfig::default()
    };
    // PE 0: t0 = x * 3        (x streamed from the north edge)
    // PE 1: t1 = t0 + 5
    // PE 2: t2 = t1 * 2
    // PE 3: y  = t2 - 1       (exits the east edge)
    let stage = |op, operand_dir| {
        Instruction::new(
            op,
            Addr::Port(operand_dir),
            Addr::DataMem(0),
            Addr::Port(Direction::East),
        )
    };
    let program = SpatialProgram {
        grid: vec![vec![
            stage(Opcode::Mul, Direction::North),
            stage(Opcode::Add, Direction::West),
            stage(Opcode::Mul, Direction::West),
            stage(Opcode::Sub, Direction::West),
        ]],
        preload: vec![
            (0, 0, 0, vec![Vector::splat(3)]),
            (0, 1, 0, vec![Vector::splat(5)]),
            (0, 2, 0, vec![Vector::splat(2)]),
            (0, 3, 0, vec![Vector::splat(1)]),
        ],
    };

    let inputs = 12;
    let feed: Vec<TaggedVector> = (1..=inputs)
        .map(|i| TaggedVector {
            value: Vector::splat(i),
            tag: i as u32,
        })
        .collect();
    let out = run_spatial(&cfg, &program, vec![feed], inputs as usize + 16)?;

    let f = |x: i32| ((x * 3) + 5) * 2 - 1;
    let expected: Vec<i32> = (1..=inputs).map(f).collect();
    let got: Vec<i32> = out
        .east
        .iter()
        .map(|e| e.value.lane0())
        .filter(|v| expected.contains(v))
        .collect();
    assert_eq!(got, expected, "pipeline results after warm-up");

    println!("spatial pipeline y = ((x*3)+5)*2-1 over {inputs} inputs");
    println!(
        "  cycles (incl. {}-cycle configuration phase): {}",
        cfg.cols * PIPE_DEPTH,
        out.report.cycles
    );
    println!("  outputs: {got:?}");
    println!(
        "  steady-state throughput: 1 element/cycle across {} PEs",
        cfg.cols
    );
    Ok(())
}
