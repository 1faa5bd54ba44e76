//! `repro` argument validation: every flag and every target is checked
//! before any target runs, so a bad command line exits 2 without leaving
//! output behind.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("canon-cli-args-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `repro` with `args` plus `--out <dir>/x.jsonl` and returns the exit
/// code and whether the store file exists afterwards.
fn run_with_out(tag: &str, args: &[&str]) -> (Option<i32>, bool) {
    let dir = scratch(tag);
    let out = dir.join("x.jsonl");
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn repro");
    let exists = out.exists();
    let _ = std::fs::remove_dir_all(&dir);
    (status.code(), exists)
}

#[test]
fn unknown_flag_after_a_target_exits_2_before_the_sweep_runs() {
    assert_eq!(
        run_with_out("flag", &["--smoke", "sweep", "--no-replay"]),
        (Some(2), false)
    );
}

#[test]
fn unknown_target_after_a_valid_one_exits_2_before_the_sweep_runs() {
    assert_eq!(
        run_with_out("target", &["--smoke", "sweep", "fig99"]),
        (Some(2), false)
    );
}
