//! Deterministic mutation fuzzing of the line-JSON parsers a client or a
//! disk can reach: `Request::parse`, `Reply::parse`,
//! `store::parse_flat_object` and `StoredRecord::parse`.
//!
//! Valid lines from the three `to_line` serializers are mutated
//! (truncation, byte flips, inserted quotes, backslashes and `\u` escapes,
//! huge or negative numbers, duplicated keys) with the workspace's seeded
//! RNG and a fixed iteration count, so every run feeds the same inputs.
//! Nothing may panic, a rejected request must carry a message, and a
//! request the parser accepts must survive a `to_line` → `parse` round
//! trip unchanged.

use std::panic::{catch_unwind, AssertUnwindSafe};

use canon_core::{FaultAction, StallBreakdown, StallCause};
use canon_serve::protocol::{Reply, Request, ResultReply, StatusReply, SubmitRequest};
use canon_sparse::gen::SparsityBand;
use canon_sweep::store::{parse_flat_object, RecordStatus, CODE_SALT};
use canon_sweep::{CellFailure, StoredRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mutated lines per valid seed line.
const MUTANTS_PER_LINE: usize = 1000;

fn record(status: RecordStatus, band: Option<&str>, stalls: bool) -> StoredRecord {
    let mut b = StallBreakdown::default();
    for (i, cause) in StallCause::ALL.into_iter().enumerate() {
        b.add(cause, 10 * i as u64 + 1);
    }
    StoredRecord {
        key: "0123456789abcdef".into(),
        salt: CODE_SALT.into(),
        workload: "SpMM".into(),
        arch: "Canon".into(),
        band: band.map(str::to_string),
        rows: 8,
        cols: 8,
        scale: 4,
        seed: 12_345_678_901,
        op: "spmm(m=64,k=64,n=32)".into(),
        status,
        cycles: 4242,
        energy_pj: 1234.5678,
        useful_macs: 99_999,
        utilization: 0.625,
        stalls: stalls.then_some(b),
    }
}

/// Valid lines from every serializer, covering each variant.
fn seed_lines() -> Vec<String> {
    let mut submit = SubmitRequest::new("r\"1\\\n\u{1}", "SpMM");
    submit.band = Some(SparsityBand::S2);
    submit.scale = 4;
    submit.geometry = (16, 8);
    submit.arch = canon_energy::Arch::Zed;
    submit.seed = Some(u64::MAX);
    submit.max_cycles = Some(10_000);
    submit.wall_budget_ns = Some(5_000_000_000);
    submit.fault = Some(FaultAction::SlowCycle { nanos: 7 });
    let mut plain = SubmitRequest::new("", "GEMM");
    plain.fault = Some(FaultAction::PanicAt { cycle: 3 });
    let requests = [
        Request::Submit(submit),
        Request::Submit(plain),
        Request::Status,
        Request::Cancel { id: "x\ty".into() },
        Request::Drain,
        Request::Shutdown,
    ];
    let ok = record(RecordStatus::Ok, Some("S2"), true);
    let failed = record(
        RecordStatus::Failed(CellFailure::Deadlock {
            detail: "row 3 (\"2 meta left\")\n".into(),
        }),
        None,
        false,
    );
    let records = [
        ok.clone(),
        failed.clone(),
        record(RecordStatus::Error("bad \\ map".into()), None, false),
        record(RecordStatus::Unsupported, Some("S1"), false),
    ];
    let replies = [
        Reply::Result(ResultReply::from_record("q1", &ok, true, false, 2)),
        Reply::Result(ResultReply::from_record("q2", &failed, false, true, 0)),
        Reply::Busy {
            id: "b".into(),
            retry_after_ms: 250,
            queue_depth: 8,
        },
        Reply::Draining { id: "d".into() },
        Reply::Cancelled { id: "c".into() },
        Reply::CancelOk { cancelled: 3 },
        Reply::Status(Box::new(StatusReply {
            queue_depth: 2,
            workers: 4,
            draining: true,
            completed: 10,
            recovery_torn_bytes: 17,
            ..StatusReply::default()
        })),
        Reply::ShuttingDown,
        Reply::Error {
            id: String::new(),
            message: "unknown workload 'nope'".into(),
        },
    ];
    requests
        .iter()
        .map(Request::to_line)
        .chain(replies.iter().map(Reply::to_line))
        .chain(records.iter().map(StoredRecord::to_line))
        .collect()
}

/// Fragments spliced into lines: JSON structure, escapes (valid, truncated
/// and invalid), control and multi-byte characters.
const FRAGMENTS: &[&str] = &[
    "\"",
    "\\",
    "\\\"",
    "\\\\",
    "\\u",
    "\\u00",
    "\\u0041",
    "\\uD800",
    "\\uDFFF",
    "\\uZZZZ",
    "\\x",
    "{",
    "}",
    ":",
    ",",
    " ",
    "\n",
    "\u{0}",
    "\u{7f}",
    "é",
    "€",
    "𝄞",
    "null",
    "true",
    "fals",
    "\"\":",
    "\"cmd\":",
    "\"reply\":",
];

/// Replacement numbers: huge, negative, signed, fractional, exponent and
/// malformed spellings the number scanner still accepts as raw text.
const NUMBERS: &[&str] = &[
    "0",
    "-1",
    "-0",
    "+5",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "1e999",
    "-1e999",
    "1.5",
    "1e",
    ".",
    "--",
    "e",
    "9999999999999999999999999999",
];

/// Keys re-inserted as duplicates, with string and numeric values.
const DUP_KEYS: &[&str] = &[
    "cmd",
    "reply",
    "id",
    "workload",
    "band",
    "arch",
    "rows",
    "cols",
    "scale",
    "seed",
    "fault",
    "status",
    "schema",
    "cycles",
    "energy_pj",
    "stall_credit",
    "key",
];

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Char-index ranges of the digit runs in `chars` (numbers and digits
/// inside strings alike).
fn digit_runs(chars: &[char]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_digit() {
            let start = i;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// Applies one random mutation to `chars`.
fn mutate_once(rng: &mut StdRng, chars: &mut Vec<char>) {
    let len = chars.len();
    match rng.gen_range(0..6u32) {
        // Truncate (a torn journal tail or a cut-off request).
        0 => chars.truncate(rng.gen_range(0..=len)),
        // Flip one character to a structural or odd one.
        1 if len > 0 => {
            let frag: Vec<char> = pick(rng, FRAGMENTS).chars().collect();
            let at = rng.gen_range(0..len);
            chars[at] = frag.first().copied().unwrap_or('"');
        }
        // Insert a fragment.
        2 => {
            let at = rng.gen_range(0..=len);
            let frag = pick(rng, FRAGMENTS);
            chars.splice(at..at, frag.chars());
        }
        // Replace a digit run with a huge, negative or malformed number.
        3 => {
            let runs = digit_runs(chars);
            if !runs.is_empty() {
                let (a, b) = *pick(rng, &runs);
                chars.splice(a..b, pick(rng, NUMBERS).chars());
            }
        }
        // Duplicate a key right after the opening brace or before the
        // closing one, with a string or a numeric value.
        4 => {
            let key = pick(rng, DUP_KEYS);
            let value = if rng.gen_bool(0.5) {
                format!("\"{}\"", pick(rng, FRAGMENTS).replace('"', ""))
            } else {
                pick(rng, NUMBERS).to_string()
            };
            let field: Vec<char> = format!("\"{key}\":{value},").chars().collect();
            let at = if rng.gen_bool(0.5) {
                1.min(len)
            } else {
                len.saturating_sub(1)
            };
            chars.splice(at..at, field);
        }
        // Flip an arbitrary character to a random one (ASCII or not).
        _ if len > 0 => {
            let at = rng.gen_range(0..len);
            chars[at] = char::from_u32(rng.gen_range(0..0x3000u32)).unwrap_or('\u{fffd}');
        }
        _ => {}
    }
}

/// Feeds `line` to every parser; returns the accepted request, if any.
fn parse_all(line: &str) -> Option<Request> {
    let _ = parse_flat_object(line);
    let _ = StoredRecord::parse(line);
    let _ = Reply::parse(line);
    match Request::parse(line) {
        Ok(req) => Some(req),
        Err(msg) => {
            assert!(!msg.is_empty(), "empty rejection message for {line:?}");
            None
        }
    }
}

#[test]
fn mutated_lines_never_panic_and_accepted_requests_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_F022);
    let seeds = seed_lines();
    // Every seed line parses as itself before it is mutated.
    for line in &seeds {
        assert!(parse_flat_object(line).is_some(), "unparseable seed {line}");
    }
    let mut accepted = 0usize;
    let mut total = 0usize;
    for line in &seeds {
        for _ in 0..MUTANTS_PER_LINE {
            let mut chars: Vec<char> = line.chars().collect();
            for _ in 0..rng.gen_range(1..=4u32) {
                mutate_once(&mut rng, &mut chars);
            }
            let mutant: String = chars.into_iter().collect();
            total += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| parse_all(&mutant)));
            let Ok(parsed) = outcome else {
                panic!("a parser panicked on {mutant:?}");
            };
            if let Some(req) = parsed {
                accepted += 1;
                let wire = req.to_line();
                assert_eq!(
                    Request::parse(&wire),
                    Ok(req),
                    "accepted request changed in a round trip: {mutant:?} -> {wire:?}"
                );
            }
        }
    }
    // The mutations must leave some requests parseable, or the round-trip
    // half of the property checks nothing.
    assert!(accepted > 0, "no mutant of {total} parsed as a request");
}
