//! The resident serving daemon.
//!
//! One `run_daemon` call owns a Unix-domain socket, the result store (and
//! its [`StoreLock`]), a bounded request queue, and a worker pool; it
//! returns only when drained, handing back the exit code the process
//! should terminate with.
//!
//! # Request lifecycle
//!
//! ```text
//! accept → parse → validate            (error reply on bad input)
//!   → store index hit?                 (result reply, cached=true)
//!   → identical cell in flight/queued? (join its waiter list; one
//!                                       simulation serves all)
//!   → queue full?                      (busy reply + retry_after_ms)
//!   → enqueue; a worker pops it, simulates under catch_unwind +
//!     budgets on a warm pooled fabric, fsync-appends the record,
//!     then replies to every waiter    (result reply)
//! ```
//!
//! Durability: the journal append happens **before** any waiter sees its
//! reply, so an acknowledged result survives SIGKILL. A killed daemon
//! restarted over the same store serves the acknowledged cells from the
//! index (after the store's standard torn-tail recovery) and re-simulates
//! only what was never acknowledged — converging, after `repro store gc`,
//! to the byte-identical store of an uninterrupted run.
//!
//! # Drain semantics
//!
//! | trigger | queued cells | in-flight cells | exit code |
//! |---|---|---|---|
//! | `drain` command | executed to completion | finish under budgets | 0 |
//! | `shutdown` command | cancelled (`cancelled` reply) | finish | 0 |
//! | SIGINT | cancelled, `interrupted` set | finish | 130 |
//! | SIGTERM | cancelled, `interrupted` set | finish | 143 |
//!
//! In-flight cells are never killed mid-simulation — their own
//! wall-clock/cycle budgets bound how long a drain can take.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::os::raw::{c_int, c_short};
use std::os::unix::io::AsRawFd as _;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use canon_core::pool::{self, PoolStats};
use canon_core::CanonConfig;
use canon_sweep::backend::OperandCache;
use canon_sweep::engine::{execute_cell, SweepOptions};
use canon_sweep::scenario::Scenario;
use canon_sweep::store::{cell_key, cfg_fingerprint, RecordStatus};
use canon_sweep::{CellFailure, ResultStore, StoreLock};

use crate::protocol::{Reply, Request, ResultReply, StatusReply, SubmitRequest};

/// Clean protocol-initiated drain/shutdown.
pub const EXIT_DRAINED: i32 = 0;
/// Drained because SIGINT arrived (128 + 2, the shell convention).
pub const EXIT_SIGINT: i32 = 130;
/// Drained because SIGTERM arrived (128 + 15).
pub const EXIT_SIGTERM: i32 = 143;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Result-store path (also the lock-file anchor).
    pub store: PathBuf,
    /// Worker threads (each owns a warm fabric pool).
    pub workers: usize,
    /// Bounded queue capacity; submits beyond it get `busy`.
    pub queue_capacity: usize,
    /// Base Canon configuration requests inherit.
    pub base_cfg: CanonConfig,
    /// Transient-retry budget per cell.
    pub max_retries: u32,
    /// Backoff base between transient retries.
    pub retry_backoff: Duration,
    /// Signal slot: a handler stores the raw signal number (SIGINT = 2,
    /// SIGTERM = 15) here and the accept loop turns it into a drain.
    /// `None` disables signal-driven drain (in-process tests).
    pub signal: Option<Arc<AtomicI32>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from("canon-serve.sock"),
            store: PathBuf::from("sweep.jsonl"),
            workers: 2,
            queue_capacity: 64,
            base_cfg: CanonConfig::default(),
            max_retries: 2,
            retry_backoff: Duration::from_millis(10),
            signal: None,
        }
    }
}

/// One queued cell: a scenario to simulate plus everyone waiting on it.
struct Job {
    key: String,
    scenario: Scenario,
    cfg: CanonConfig,
    /// `(request id, reply channel)` — the first entry is the submit that
    /// created the job; later entries coalesced onto it.
    waiters: Vec<(String, mpsc::Sender<Reply>)>,
}

/// Mutex-guarded queue state.
struct QState {
    queue: VecDeque<Job>,
    /// Waiters of cells currently simulating, by key.
    inflight: HashMap<String, Vec<(String, mpsc::Sender<Reply>)>>,
    /// Set at drain: workers exit once the queue is empty.
    stop: bool,
}

/// Monotonic counters, all relaxed — they feed `status`, not control flow.
#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    cache_hits: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    retries: AtomicU64,
    failed_panic: AtomicU64,
    failed_deadlock: AtomicU64,
    failed_timeout: AtomicU64,
    failed_transient: AtomicU64,
}

struct Shared {
    state: Mutex<QState>,
    work: Condvar,
    store: Mutex<ResultStore>,
    counters: Counters,
    draining: AtomicBool,
    interrupted: AtomicBool,
    /// Per-worker warm-pool snapshots, summed by `status`.
    pool_stats: Mutex<Vec<PoolStats>>,
    opts: SweepOptions,
    base_cfg: CanonConfig,
    queue_capacity: usize,
    workers: usize,
    start: Instant,
}

impl Shared {
    fn status(&self) -> StatusReply {
        let (queue_depth, inflight) = {
            let st = self.state.lock().unwrap();
            (st.queue.len(), st.inflight.len())
        };
        let (store_records, recovery) = {
            let store = self.store.lock().unwrap();
            (store.len(), store.recovery())
        };
        let pool = {
            let stats = self.pool_stats.lock().unwrap();
            stats.iter().fold(PoolStats::default(), |acc, s| PoolStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                discarded: acc.discarded + s.discarded,
                warm: acc.warm + s.warm,
            })
        };
        let c = &self.counters;
        StatusReply {
            queue_depth,
            queue_capacity: self.queue_capacity,
            inflight,
            workers: self.workers,
            draining: self.draining.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            interrupted: self.interrupted.load(Ordering::Relaxed),
            failed_panic: c.failed_panic.load(Ordering::Relaxed),
            failed_deadlock: c.failed_deadlock.load(Ordering::Relaxed),
            failed_timeout: c.failed_timeout.load(Ordering::Relaxed),
            failed_transient: c.failed_transient.load(Ordering::Relaxed),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_discarded: pool.discarded,
            store_records,
            uptime_ms: self.start.elapsed().as_millis() as u64,
            ..StatusReply::default()
        }
        .with_recovery(&recovery)
    }

    fn count_failure(&self, status: &RecordStatus) {
        if let RecordStatus::Failed(f) = status {
            match f {
                CellFailure::Panic { .. } => &self.counters.failed_panic,
                CellFailure::Deadlock { .. } => &self.counters.failed_deadlock,
                CellFailure::Timeout { .. } => &self.counters.failed_timeout,
                CellFailure::Transient { .. } => &self.counters.failed_transient,
            }
            .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Initiates a drain. `cancel_queued` empties the queue (shutdown and
    /// signal drains); a plain `drain` lets workers finish it.
    fn begin_drain(&self, cancel_queued: bool, interrupted: bool) {
        self.draining.store(true, Ordering::Relaxed);
        let mut st = self.state.lock().unwrap();
        if cancel_queued {
            let had_work = !st.queue.is_empty();
            for job in st.queue.drain(..) {
                for (id, tx) in job.waiters {
                    self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(Reply::Cancelled { id });
                }
            }
            if interrupted && had_work {
                self.interrupted.store(true, Ordering::Relaxed);
            }
        }
        st.stop = true;
        drop(st);
        self.work.notify_all();
    }
}

/// Handles one submit to the point of having a reply to write.
fn handle_submit(shared: &Shared, req: &SubmitRequest) -> Reply {
    let scenario = match req.scenario() {
        Ok(s) => s,
        Err(message) => {
            return Reply::Error {
                id: req.id.clone(),
                message,
            }
        }
    };
    if shared.draining.load(Ordering::Relaxed) {
        return Reply::Draining { id: req.id.clone() };
    }
    let cfg = req.cfg(&shared.base_cfg);
    let key = cell_key(&scenario, &cfg_fingerprint(&cfg));

    // Serving tier, step 1: the in-memory index answers without simulating.
    if let Some(rec) = shared.store.lock().unwrap().lookup(&key) {
        shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        return Reply::Result(ResultReply::from_record(&req.id, rec, true, false, 0));
    }

    // Step 2: coalesce onto an identical in-flight or queued cell, or
    // enqueue — all under one lock so no identical cell can slip between
    // the checks.
    let (tx, rx) = mpsc::channel();
    {
        let mut st = shared.state.lock().unwrap();
        if shared.draining.load(Ordering::Relaxed) {
            return Reply::Draining { id: req.id.clone() };
        }
        if let Some(waiters) = st.inflight.get_mut(&key) {
            waiters.push((req.id.clone(), tx));
        } else if let Some(job) = st.queue.iter_mut().find(|j| j.key == key) {
            job.waiters.push((req.id.clone(), tx));
        } else if st.queue.len() >= shared.queue_capacity {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            // Scale the suggested backoff with how much work each worker
            // already owns.
            let per_worker = st.queue.len() / shared.workers.max(1);
            return Reply::Busy {
                id: req.id.clone(),
                retry_after_ms: (50 * (per_worker as u64 + 1)).min(2_000),
                queue_depth: st.queue.len(),
            };
        } else {
            st.queue.push_back(Job {
                key,
                scenario,
                cfg,
                waiters: vec![(req.id.clone(), tx)],
            });
            shared.work.notify_one();
        }
    }
    // Blocking submit: the reply arrives when the cell resolves (or is
    // cancelled). A dropped sender can only mean worker panic — answer
    // with a structured error rather than a dropped connection.
    rx.recv().unwrap_or_else(|_| Reply::Error {
        id: req.id.clone(),
        message: "daemon worker dropped the request".into(),
    })
}

fn handle_request(shared: &Shared, line: &str) -> (Reply, bool) {
    let req = match Request::parse(line) {
        Ok(r) => r,
        Err(message) => {
            return (
                Reply::Error {
                    id: String::new(),
                    message,
                },
                false,
            )
        }
    };
    match req {
        Request::Submit(s) => (handle_submit(shared, &s), false),
        Request::Status => (Reply::Status(Box::new(shared.status())), false),
        Request::Cancel { id } => {
            let mut cancelled = 0u64;
            let mut st = shared.state.lock().unwrap();
            for job in st.queue.iter_mut() {
                let mut kept = Vec::with_capacity(job.waiters.len());
                for (wid, tx) in job.waiters.drain(..) {
                    if wid == id {
                        cancelled += 1;
                        let _ = tx.send(Reply::Cancelled { id: wid });
                    } else {
                        kept.push((wid, tx));
                    }
                }
                job.waiters = kept;
            }
            // A job whose every waiter cancelled has no one left to care.
            st.queue.retain(|j| !j.waiters.is_empty());
            drop(st);
            shared
                .counters
                .cancelled
                .fetch_add(cancelled, Ordering::Relaxed);
            (Reply::CancelOk { cancelled }, false)
        }
        Request::Drain => {
            shared.begin_drain(false, false);
            (Reply::ShuttingDown, true)
        }
        Request::Shutdown => {
            shared.begin_drain(true, false);
            (Reply::ShuttingDown, true)
        }
    }
}

/// Longest request line the daemon reads, in bytes (requests are a few
/// hundred bytes of flat JSON). A longer line is discarded up to its
/// newline and answered with one `error` reply, so a client cannot grow a
/// connection's buffer without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The reply to one complete request line, or `None` for a blank line.
fn line_reply(shared: &Shared, line: &[u8], overlong: bool) -> Option<(Reply, bool)> {
    let error = |message: String| {
        Some((
            Reply::Error {
                id: String::new(),
                message,
            },
            false,
        ))
    };
    if overlong {
        return error(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
    }
    match std::str::from_utf8(line).map(str::trim) {
        Ok("") => None,
        Ok(text) => Some(handle_request(shared, text)),
        Err(_) => error("request line is not valid UTF-8".into()),
    }
}

/// Serves one connection: a loop of line-in, reply-out. Returns when the
/// peer hangs up, a drain begins, or a drain/shutdown command was handled.
fn serve_connection(shared: &Shared, stream: UnixStream) {
    // The read timeout doubles as the drain poll: idle connections notice
    // `draining` within one tick instead of pinning the accept scope open.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    // The request line read so far. It survives read timeouts, so a line
    // that arrives in pieces across one is served whole.
    let mut line = Vec::new();
    // Set once the current line passes `MAX_LINE_BYTES`; its remaining
    // bytes are dropped up to the newline.
    let mut overlong = false;
    loop {
        let (used, eol) = match reader.fill_buf() {
            Ok([]) => (0, false),
            Ok(buf) => {
                let (chunk, eol) = match buf.iter().position(|&b| b == b'\n') {
                    Some(i) => (&buf[..i], true),
                    None => (buf, false),
                };
                overlong |= line.len() + chunk.len() > MAX_LINE_BYTES;
                if overlong {
                    line.clear();
                } else {
                    line.extend_from_slice(chunk);
                }
                (chunk.len() + usize::from(eol), eol)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        // A zero-byte read is EOF; a final request needs no newline.
        let eof = used == 0;
        reader.consume(used);
        if !eol && !eof {
            continue;
        }
        if let Some((reply, close)) = line_reply(shared, &line, overlong) {
            let mut out = reply.to_line();
            out.push('\n');
            if writer.write_all(out.as_bytes()).is_err() || close {
                return;
            }
        }
        if eof {
            return;
        }
        line.clear();
        overlong = false;
    }
}

/// One worker: pops jobs, simulates them on a warm pooled fabric, journals
/// the record, then answers every waiter.
fn worker(shared: &Shared, index: usize, cache: &OperandCache) {
    // Capacity 2 keeps one warm fabric per north-edge flavour resident.
    let _pool = pool::install(2);
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.inflight.insert(job.key.clone(), Vec::new());
                    break Some(job);
                }
                if st.stop {
                    break None;
                }
                let (guard, _) = shared
                    .work
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap();
                st = guard;
            }
        };
        let Some(job) = job else { return };

        let (rec, retries) = execute_cell(
            &job.scenario,
            job.key.clone(),
            &job.cfg,
            &shared.opts,
            cache,
        );
        shared
            .counters
            .retries
            .fetch_add(retries, Ordering::Relaxed);
        shared.count_failure(&rec.status);
        if let Some(stats) = pool::stats() {
            shared.pool_stats.lock().unwrap()[index] = stats;
        }

        // Durability before acknowledgement: the fsync'd journal append
        // happens before any waiter's reply is sent.
        let append_err = shared.store.lock().unwrap().append(&rec).err();

        let mut waiters = job.waiters;
        if let Some(joined) = shared.state.lock().unwrap().inflight.remove(&job.key) {
            waiters.extend(joined);
        }
        for (pos, (id, tx)) in waiters.into_iter().enumerate() {
            let reply = match &append_err {
                Some(e) => Reply::Error {
                    id: id.clone(),
                    message: format!("result journal append failed: {e}"),
                },
                None => {
                    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                    if pos > 0 {
                        shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    Reply::Result(ResultReply::from_record(&id, &rec, false, pos > 0, retries))
                }
            };
            let _ = tx.send(reply);
        }
    }
}

/// Binds the listener, reclaiming a stale socket file (one whose previous
/// owner died without unlinking) but refusing to displace a live daemon.
fn bind_socket(path: &PathBuf) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!(
                        "socket {} is served by a live daemon; stop it or use another --socket",
                        path.display()
                    ),
                ));
            }
            std::fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

// Raw POSIX `poll(2)` binding: the workspace carries no libc crate (no
// registry access). Same pattern as the store lock's `flock(2)` binding.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

const POLLIN: c_short = 1;

/// How long the accept loop waits for a connection before it re-checks the
/// signal slot and the drain flag.
const ACCEPT_TICK_MS: c_int = 10;

/// Blocks until `listener` has a connection to accept, or for at most
/// `timeout_ms`. Errors (`EINTR` included) return early; the caller's next
/// `accept` sorts them out.
fn wait_acceptable(listener: &UnixListener, timeout_ms: c_int) {
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: `fd` is one valid `pollfd` for the duration of the call, and
    // its descriptor is owned by `listener`, which outlives it.
    unsafe { poll(&mut fd, 1, timeout_ms) };
}

/// Runs the daemon to completion. Blocks until drained (by protocol
/// command or signal) and returns the exit code the process should
/// terminate with ([`EXIT_DRAINED`] / [`EXIT_SIGINT`] / [`EXIT_SIGTERM`]).
///
/// # Errors
///
/// Fails fast — before serving anything — when the store is locked by
/// another process, the store file is unreadable, or the socket cannot be
/// bound. I/O errors after startup are per-request (`error` replies), not
/// fatal.
pub fn run_daemon(opts: &ServeOptions) -> io::Result<i32> {
    // The lock outlives the listener: nothing else may touch the store
    // (concurrent `repro sweep`, `repro store gc`) while we serve from it.
    let _lock = StoreLock::acquire(&opts.store)?;
    let store = ResultStore::open(&opts.store)?;
    let recovery = store.recovery();
    if recovery.has_damage() {
        eprintln!(
            "serve: store recovery: {} records loaded, {} unreadable lines skipped, {} torn-tail bytes dropped",
            recovery.loaded, recovery.unreadable_lines, recovery.torn_tail_bytes
        );
    }
    let listener = bind_socket(&opts.socket)?;
    listener.set_nonblocking(true)?;

    let workers = opts.workers.max(1);
    let shared = Shared {
        state: Mutex::new(QState {
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            stop: false,
        }),
        work: Condvar::new(),
        store: Mutex::new(store),
        counters: Counters::default(),
        draining: AtomicBool::new(false),
        interrupted: AtomicBool::new(false),
        pool_stats: Mutex::new(vec![PoolStats::default(); workers]),
        opts: SweepOptions {
            max_retries: opts.max_retries,
            retry_backoff: opts.retry_backoff,
            ..SweepOptions::default()
        },
        base_cfg: opts.base_cfg.clone(),
        queue_capacity: opts.queue_capacity.max(1),
        workers,
        start: Instant::now(),
    };
    let cache = OperandCache::with_capacity(16.max(2 * workers));

    let mut exit_code = EXIT_DRAINED;
    std::thread::scope(|scope| {
        for index in 0..workers {
            let shared = &shared;
            let cache = &cache;
            scope.spawn(move || worker(shared, index, cache));
        }
        // Accept loop: waits on the listener (waking as soon as a client
        // connects) and checks the signal slot every tick until a drain
        // begins, then falls through to let the scope join workers.
        loop {
            if let Some(slot) = &opts.signal {
                let sig = slot.load(Ordering::Relaxed);
                if sig != 0 {
                    exit_code = if sig == 15 { EXIT_SIGTERM } else { EXIT_SIGINT };
                    shared.begin_drain(true, true);
                }
            }
            if shared.draining.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = &shared;
                    scope.spawn(move || serve_connection(shared, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_acceptable(&listener, ACCEPT_TICK_MS);
                }
                Err(_) => std::thread::sleep(Duration::from_millis(ACCEPT_TICK_MS as u64)),
            }
        }
        // Drain is underway: make sure workers see `stop` even if the
        // drain came from a signal while they slept.
        shared.work.notify_all();
    });

    let _ = std::fs::remove_file(&opts.socket);
    Ok(exit_code)
}
