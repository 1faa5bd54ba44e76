//! In-process daemon integration tests: the full request lifecycle —
//! caching, coalescing, backpressure, cancellation, structured failure
//! replies, drain — plus torn-tail journal recovery and failed journal
//! appends under the daemon's append path.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use canon_core::FaultAction;
use canon_serve::daemon::{run_daemon, ServeOptions, EXIT_DRAINED, MAX_LINE_BYTES};
use canon_serve::protocol::{Reply, Request, SubmitRequest};
use canon_serve::Client;
use canon_sparse::gen::SparsityBand;

/// Fresh scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("canon-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns a daemon and blocks until its socket accepts connections.
fn start_daemon(opts: ServeOptions) -> (JoinHandle<std::io::Result<i32>>, PathBuf) {
    let socket = opts.socket.clone();
    let handle = std::thread::spawn(move || run_daemon(&opts));
    for _ in 0..500 {
        if Client::connect(&socket).is_ok() {
            return (handle, socket);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon did not start listening on {}", socket.display());
}

fn opts_for(dir: &Path) -> ServeOptions {
    ServeOptions {
        socket: dir.join("serve.sock"),
        store: dir.join("store.jsonl"),
        workers: 2,
        queue_capacity: 64,
        ..ServeOptions::default()
    }
}

/// A fast healthy cell: GEMM at 1/8 scale on the default 8×8 fabric.
fn gemm(id: &str) -> SubmitRequest {
    let mut req = SubmitRequest::new(id, "GEMM");
    req.scale = 8;
    req
}

/// A cell guaranteed to run ~`cycles` milliseconds then time out: each
/// simulated cycle sleeps 1 ms and the cycle ceiling stops the runaway.
fn slow_cell(id: &str, workload: &str, cycles: u64) -> SubmitRequest {
    let mut req = SubmitRequest::new(id, workload);
    req.scale = 8;
    req.fault = Some(FaultAction::SlowCycle { nanos: 1_000_000 });
    req.max_cycles = Some(cycles);
    req
}

/// Polls `status` until `pred` holds (the tests' substitute for sleeps,
/// which are unreliable under parallel-test CPU load).
fn wait_for(socket: &Path, pred: impl Fn(&canon_serve::StatusReply) -> bool) {
    let mut c = Client::connect(socket).unwrap();
    for _ in 0..500 {
        if let Ok(Reply::Status(s)) = c.request(&Request::Status) {
            if pred(&s) {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never reached the expected state");
}

fn shutdown_and_join(socket: &Path, handle: JoinHandle<std::io::Result<i32>>) {
    let mut c = Client::connect(socket).unwrap();
    assert!(matches!(
        c.request(&Request::Shutdown),
        Ok(Reply::ShuttingDown)
    ));
    assert_eq!(handle.join().unwrap().unwrap(), EXIT_DRAINED);
}

#[test]
fn serves_simulates_once_and_caches() {
    let dir = scratch("cache");
    let (handle, socket) = start_daemon(opts_for(&dir));
    let mut c = Client::connect(&socket).unwrap();

    let first = match c.request(&Request::Submit(gemm("a"))).unwrap() {
        Reply::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    };
    assert_eq!(first.status, "ok");
    assert!(!first.cached);
    assert!(first.cycles > 0);

    // Identical resubmit: the store index answers, nothing re-simulates.
    let second = match c.request(&Request::Submit(gemm("b"))).unwrap() {
        Reply::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    };
    assert!(second.cached);
    assert_eq!(second.key, first.key);
    assert_eq!(second.cycles, first.cycles);

    let status = match c.request(&Request::Status).unwrap() {
        Reply::Status(s) => s,
        other => panic!("expected status, got {other:?}"),
    };
    assert_eq!(status.completed, 2);
    assert_eq!(status.cache_hits, 1);
    assert_eq!(status.store_records, 1);
    assert!(status.pool_misses >= 1, "first cell must build a fabric");

    shutdown_and_join(&socket, handle);
    assert!(!socket.exists(), "socket file must be unlinked on exit");
}

#[test]
fn fresh_connections_are_accepted_as_they_arrive() {
    // A connection must not wait out an accept-loop sleep: 20 sequential
    // fresh connections with one `status` round trip each take a few
    // milliseconds in all. A loop that sleeps 10 ms after every empty
    // accept makes each one wait most of a tick, about 200 ms in all.
    let dir = scratch("accept");
    let (handle, socket) = start_daemon(opts_for(&dir));
    let start = Instant::now();
    for _ in 0..20 {
        let mut c = Client::connect(&socket).unwrap();
        assert!(matches!(c.request(&Request::Status), Ok(Reply::Status(_))));
    }
    let elapsed = start.elapsed();
    shutdown_and_join(&socket, handle);
    assert!(
        elapsed < Duration::from_millis(100),
        "20 fresh status round trips took {elapsed:?}"
    );
}

#[test]
fn failures_come_back_structured_and_daemon_survives() {
    let dir = scratch("faults");
    let (handle, socket) = start_daemon(opts_for(&dir));
    let mut c = Client::connect(&socket).unwrap();

    // Injected panic: the worker's catch_unwind turns it into a reply.
    let mut panicky = gemm("p");
    panicky.fault = Some(FaultAction::PanicAt { cycle: 3 });
    let r = match c.request(&Request::Submit(panicky)).unwrap() {
        Reply::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    };
    assert_eq!(r.status, "panic");
    assert!(r.reason.contains("injected fault"), "reason: {}", r.reason);

    // Runaway cell: the cycle ceiling stops it as a structured timeout.
    let r = match c
        .request(&Request::Submit(slow_cell("t", "GEMM", 60)))
        .unwrap()
    {
        Reply::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    };
    assert_eq!(r.status, "timeout");

    // Withheld credits: the fabric watchdog reports a deadlock.
    let mut wedged = gemm("d");
    wedged.fault = Some(FaultAction::WithholdCredits);
    let r = match c.request(&Request::Submit(wedged)).unwrap() {
        Reply::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    };
    assert_eq!(r.status, "deadlock");

    // The daemon took a panic, a timeout, and a deadlock — and still
    // serves healthy work.
    let r = match c.request(&Request::Submit(gemm("h"))).unwrap() {
        Reply::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    };
    assert_eq!(r.status, "ok");

    let status = match c.request(&Request::Status).unwrap() {
        Reply::Status(s) => s,
        other => panic!("expected status, got {other:?}"),
    };
    assert_eq!(status.failed_panic, 1);
    assert_eq!(status.failed_timeout, 1);
    assert_eq!(status.failed_deadlock, 1);

    shutdown_and_join(&socket, handle);
}

#[test]
fn duplicate_inflight_submits_coalesce_to_one_simulation() {
    let dir = scratch("coalesce");
    let (handle, socket) = start_daemon(ServeOptions {
        workers: 1,
        ..opts_for(&dir)
    });

    // ~150 ms in flight: long enough for the duplicate to join it. The
    // cell (392 cycles at this scale) runs past its 150-cycle budget.
    let cell = slow_cell("first", "SDDMM-Win2", 150);
    let mut dup = cell.clone();
    dup.id = "second".into();

    let racer = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let mut c = Client::connect(&socket).unwrap();
            match c.request(&Request::Submit(cell)).unwrap() {
                Reply::Result(r) => r,
                other => panic!("expected a result, got {other:?}"),
            }
        }
    });
    wait_for(&socket, |s| s.inflight == 1 || s.completed == 1);
    let mut c = Client::connect(&socket).unwrap();
    let second = match c.request(&Request::Submit(dup)).unwrap() {
        Reply::Result(r) => r,
        other => panic!("expected a result, got {other:?}"),
    };
    let first = racer.join().unwrap();

    assert_eq!(first.key, second.key);
    assert_eq!(first.status, "timeout");
    assert_eq!(second.status, "timeout");
    // The duplicate either joined the in-flight simulation or (if timing
    // slipped) hit the store index — it never simulated a second time.
    assert!(second.coalesced || second.cached);

    let status = match c.request(&Request::Status).unwrap() {
        Reply::Status(s) => s,
        other => panic!("expected status, got {other:?}"),
    };
    assert_eq!(status.coalesced + status.cache_hits, 1);
    assert_eq!(status.store_records, 1);

    shutdown_and_join(&socket, handle);
}

#[test]
fn full_queue_pushes_back_with_retry_after() {
    let dir = scratch("busy");
    let (handle, socket) = start_daemon(ServeOptions {
        workers: 1,
        queue_capacity: 1,
        ..opts_for(&dir)
    });

    // Occupy the single worker, then the single queue slot, with distinct
    // slow cells; a third distinct submit must bounce.
    let inflight = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let mut c = Client::connect(&socket).unwrap();
            c.request(&Request::Submit(slow_cell("w", "GEMM", 250)))
                .unwrap()
        }
    });
    wait_for(&socket, |s| s.inflight == 1);
    let queued = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let mut c = Client::connect(&socket).unwrap();
            c.request(&Request::Submit(slow_cell("q", "SDDMM-Win1", 60)))
                .unwrap()
        }
    });
    wait_for(&socket, |s| s.queue_depth == 1);

    let mut c = Client::connect(&socket).unwrap();
    match c
        .request(&Request::Submit(slow_cell("b", "PolyB-gemm", 60)))
        .unwrap()
    {
        Reply::Busy {
            id,
            retry_after_ms,
            queue_depth,
        } => {
            assert_eq!(id, "b");
            assert!(retry_after_ms > 0);
            assert_eq!(queue_depth, 1);
        }
        other => panic!("expected busy, got {other:?}"),
    }

    assert!(matches!(inflight.join().unwrap(), Reply::Result(_)));
    assert!(matches!(queued.join().unwrap(), Reply::Result(_)));

    let status = match c.request(&Request::Status).unwrap() {
        Reply::Status(s) => s,
        other => panic!("expected status, got {other:?}"),
    };
    assert_eq!(status.rejected, 1);

    shutdown_and_join(&socket, handle);
}

#[test]
fn cancel_removes_queued_submits_only() {
    let dir = scratch("cancel");
    let (handle, socket) = start_daemon(ServeOptions {
        workers: 1,
        ..opts_for(&dir)
    });

    let inflight = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let mut c = Client::connect(&socket).unwrap();
            c.request(&Request::Submit(slow_cell("keep", "GEMM", 250)))
                .unwrap()
        }
    });
    wait_for(&socket, |s| s.inflight == 1);
    let victim = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let mut c = Client::connect(&socket).unwrap();
            c.request(&Request::Submit(slow_cell("victim", "SpMM-2:8", 60)))
                .unwrap()
        }
    });
    wait_for(&socket, |s| s.queue_depth == 1);

    let mut c = Client::connect(&socket).unwrap();
    match c
        .request(&Request::Cancel {
            id: "victim".into(),
        })
        .unwrap()
    {
        Reply::CancelOk { cancelled } => assert_eq!(cancelled, 1),
        other => panic!("expected cancel_ok, got {other:?}"),
    }
    assert!(matches!(victim.join().unwrap(), Reply::Cancelled { id } if id == "victim"));
    // The in-flight cell is not cancellable; it finishes under its budget.
    assert!(matches!(inflight.join().unwrap(), Reply::Result(_)));

    shutdown_and_join(&socket, handle);
}

#[test]
fn drain_finishes_queued_work_before_exit() {
    let dir = scratch("drain");
    let (handle, socket) = start_daemon(ServeOptions {
        workers: 1,
        ..opts_for(&dir)
    });

    let a = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let mut c = Client::connect(&socket).unwrap();
            c.request(&Request::Submit(slow_cell("a", "GEMM", 120)))
                .unwrap()
        }
    });
    wait_for(&socket, |s| s.inflight == 1);
    let b = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let mut c = Client::connect(&socket).unwrap();
            c.request(&Request::Submit(slow_cell("b", "SDDMM-Win2", 60)))
                .unwrap()
        }
    });
    wait_for(&socket, |s| s.queue_depth == 1);

    let mut c = Client::connect(&socket).unwrap();
    assert!(matches!(
        c.request(&Request::Drain),
        Ok(Reply::ShuttingDown)
    ));

    // Drain (unlike shutdown) lets the queue finish: both submits resolve.
    assert!(matches!(a.join().unwrap(), Reply::Result(_)));
    assert!(matches!(b.join().unwrap(), Reply::Result(_)));
    assert_eq!(handle.join().unwrap().unwrap(), EXIT_DRAINED);

    // And a submit racing the drain would have seen `draining`, never a
    // silent drop: the daemon is gone now, so connect fails cleanly.
    assert!(Client::connect(&socket).is_err());
}

#[test]
fn torn_tail_append_recovers_and_converges_byte_identically() {
    let dir = scratch("torn");

    let submits = || {
        let mut s1 = SubmitRequest::new("s1", "SpMM");
        s1.band = Some(SparsityBand::S3);
        s1.scale = 8;
        (s1, gemm("s2"))
    };

    // Reference store: one uninterrupted daemon serves both cells.
    let clean = ServeOptions {
        socket: dir.join("clean.sock"),
        store: dir.join("clean.jsonl"),
        ..opts_for(&dir)
    };
    let (handle, socket) = start_daemon(clean.clone());
    let mut c = Client::connect(&socket).unwrap();
    let (s1, s2) = submits();
    assert!(
        matches!(c.request(&Request::Submit(s1)).unwrap(), Reply::Result(r) if r.status == "ok")
    );
    assert!(
        matches!(c.request(&Request::Submit(s2)).unwrap(), Reply::Result(r) if r.status == "ok")
    );
    shutdown_and_join(&socket, handle);

    // Crashed store: the same two acknowledged appends, then a torn tail —
    // half a record plus line noise — as a mid-append kill would leave.
    let crashed = dir.join("crashed.jsonl");
    std::fs::copy(&clean.store, &crashed).unwrap();
    let intact = std::fs::read(&crashed).unwrap();
    let mut damaged = intact.clone();
    damaged.extend_from_slice(b"{\"key\":\"feedfeedfeedfeed\",\"salt\":\"canon");
    std::fs::write(&crashed, &damaged).unwrap();

    // Restart over the damaged store: recovery is reported in `status`,
    // both cells hit the index (nothing re-simulates).
    let reopened = ServeOptions {
        socket: dir.join("crashed.sock"),
        store: crashed.clone(),
        ..opts_for(&dir)
    };
    let (handle, socket) = start_daemon(reopened);
    let mut c = Client::connect(&socket).unwrap();
    let status = match c.request(&Request::Status).unwrap() {
        Reply::Status(s) => s,
        other => panic!("expected status, got {other:?}"),
    };
    assert_eq!(status.recovery_loaded, 2);
    assert!(
        status.recovery_torn_bytes > 0 || status.recovery_unreadable > 0,
        "damage must be reported: {status:?}"
    );
    let (s1, s2) = submits();
    for req in [s1, s2] {
        match c.request(&Request::Submit(req)).unwrap() {
            Reply::Result(r) => {
                assert_eq!(r.status, "ok");
                assert!(r.cached, "acknowledged cells must survive the crash");
            }
            other => panic!("expected a result, got {other:?}"),
        }
    }
    shutdown_and_join(&socket, handle);

    // After the deterministic key-sorted rewrite, the crashed-and-recovered
    // store is byte-identical to the clean one.
    canon_sweep::ResultStore::open(&clean.store)
        .unwrap()
        .compact()
        .unwrap();
    canon_sweep::ResultStore::open(&crashed)
        .unwrap()
        .compact()
        .unwrap();
    assert_eq!(
        std::fs::read(&clean.store).unwrap(),
        std::fs::read(&crashed).unwrap(),
        "gc'd stores must converge byte-identically"
    );
}

/// A raw connection (no `Client` framing) and a line reader over it.
fn raw_connect(socket: &Path) -> (UnixStream, BufReader<UnixStream>) {
    let stream = UnixStream::connect(socket).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn read_reply(reader: &mut BufReader<UnixStream>) -> Reply {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    Reply::parse(line.trim()).unwrap()
}

#[test]
fn request_split_across_a_read_timeout_is_served_whole() {
    let dir = scratch("split");
    let (handle, socket) = start_daemon(opts_for(&dir));
    let (mut stream, mut reader) = raw_connect(&socket);

    let line = Request::Submit(gemm("split")).to_line();
    let (head, tail) = line.split_at(line.len() / 2);
    stream.write_all(head.as_bytes()).unwrap();
    // Several of the daemon's 100 ms read timeouts pass while it holds
    // only the prefix.
    std::thread::sleep(Duration::from_millis(350));
    stream.write_all(tail.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    match read_reply(&mut reader) {
        Reply::Result(r) => {
            assert_eq!(r.id, "split");
            assert_eq!(r.status, "ok");
        }
        other => panic!("expected a result, got {other:?}"),
    }

    shutdown_and_join(&socket, handle);
}

#[test]
fn overlong_request_line_gets_a_structured_error_and_the_connection_survives() {
    let dir = scratch("overlong");
    let (handle, socket) = start_daemon(opts_for(&dir));
    let (mut stream, mut reader) = raw_connect(&socket);

    // Twice the cap, in pieces, then the newline.
    let piece = vec![b'x'; MAX_LINE_BYTES / 4];
    for _ in 0..8 {
        stream.write_all(&piece).unwrap();
    }
    stream.write_all(b"\n").unwrap();
    match read_reply(&mut reader) {
        Reply::Error { message, .. } => {
            assert!(message.contains("exceeds"), "message: {message}")
        }
        other => panic!("expected an error, got {other:?}"),
    }

    // The over-long line was dropped whole: the next request is served.
    stream
        .write_all(format!("{}\n", Request::Status.to_line()).as_bytes())
        .unwrap();
    assert!(matches!(read_reply(&mut reader), Reply::Status(_)));

    shutdown_and_join(&socket, handle);
}

#[test]
fn second_store_user_fails_fast_while_daemon_holds_the_lock() {
    let dir = scratch("lock");
    let opts = opts_for(&dir);
    let (handle, socket) = start_daemon(opts.clone());

    // A concurrent batch sweep (or gc) against the daemon-owned store must
    // fail fast with an addressable message, not corrupt the journal.
    let err = canon_sweep::StoreLock::acquire(&opts.store).unwrap_err();
    assert!(
        err.to_string().contains("locked by another process"),
        "{err}"
    );

    shutdown_and_join(&socket, handle);
    // Lock released on daemon exit.
    drop(canon_sweep::StoreLock::acquire(&opts.store).unwrap());
}

/// A failed journal append must not acknowledge or index its record: the
/// store path is pointed at a full device after startup (the appender opens
/// lazily, on the first append), so every append fails. Each submit gets an
/// `error` reply, the daemon keeps serving, nothing is indexed (a resubmit
/// simulates again and fails again instead of hitting the cache), and a
/// restart over a real file converges to a store with the one record.
#[cfg(target_os = "linux")]
#[test]
fn journal_append_failure_replies_error_and_indexes_nothing() {
    let dir = scratch("full");
    let opts = opts_for(&dir);
    let (handle, socket) = start_daemon(opts.clone());
    std::os::unix::fs::symlink("/dev/full", &opts.store).unwrap();
    let mut c = Client::connect(&socket).unwrap();
    for id in ["a", "b"] {
        match c.request(&Request::Submit(gemm(id))).unwrap() {
            Reply::Error { id: got, message } => {
                assert_eq!(got, id);
                assert!(
                    message.contains("result journal append failed"),
                    "message: {message}"
                );
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }
    let status = match c.request(&Request::Status).unwrap() {
        Reply::Status(s) => s,
        other => panic!("expected status, got {other:?}"),
    };
    assert_eq!(status.store_records, 0, "nothing may be indexed");
    assert_eq!(status.completed, 0);
    assert_eq!(status.cache_hits, 0);
    shutdown_and_join(&socket, handle);

    // Restart over a real (missing) file: the cell simulates, lands, and
    // then serves from the index.
    std::fs::remove_file(&opts.store).unwrap();
    let (handle, socket) = start_daemon(opts.clone());
    let mut c = Client::connect(&socket).unwrap();
    for (id, cached) in [("c", false), ("d", true)] {
        match c.request(&Request::Submit(gemm(id))).unwrap() {
            Reply::Result(r) => {
                assert_eq!(r.status, "ok");
                assert_eq!(r.cached, cached, "submit {id}");
            }
            other => panic!("expected a result, got {other:?}"),
        }
    }
    shutdown_and_join(&socket, handle);
    let store = canon_sweep::ResultStore::open(&opts.store).unwrap();
    assert_eq!(store.len(), 1);
    assert!(!store.recovery().has_damage());
}
