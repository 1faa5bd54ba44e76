//! `serve-8x8`: an in-process `canon_serve::run_daemon` (2 workers, temp
//! socket and store) under a closed loop of 2 `Client` connections.
//!
//! Each repetition submits the 70-scenario grid at 8×8 for several derived
//! seeds, every cell twice, in a seeded shuffled order: cold requests
//! (simulate, then an fsync'd journal append) interleave with store-index
//! hits. Set-up is daemon start until the first `status` reply; the timed
//! phase of a repetition runs from its first submit to its last reply.

use crate::cell::{expected_unsupported, run_cell, CoreTally, TraceCtx};
use crate::layers::{self, LayerInput, ServeCounters};
use crate::stats::{geomean, median, percentile, tail};
use crate::trace::{layer_self_s, self_times, write_jsonl, Phase, Tracer};
use crate::{derive, peak_rss_mb, trace_path, Args, Metric, Outcome};
use canon_core::CanonConfig;
use canon_serve::{
    run_daemon, Client, Reply, Request, ResultReply, ServeOptions, StatusReply, SubmitRequest,
};
use canon_sweep::backend::OperandCache;
use canon_sweep::engine::execute_cell;
use canon_sweep::scenario::{standard_workloads, GridBuilder};
use canon_sweep::store::{cell_key, cfg_fingerprint};
use canon_sweep::{ResultStore, Scenario, SweepOptions};
use rand::seq::SliceRandom;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const GEOMETRY: (usize, usize) = (8, 8);
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Grid seeds per repetition: 5 × 70 cells × 2 submits = 700 requests.
const SEEDS_PER_REP: usize = 5;
const SETUP_SAMPLES: usize = 41;
const MIN_REPS: usize = 3;

/// One submit of a repetition.
struct Sub {
    req: SubmitRequest,
    scenario: Scenario,
    key: String,
}

fn rep_subs(seed: u64, rep: usize) -> Vec<Sub> {
    let fingerprint = cfg_fingerprint(&CanonConfig::default());
    let mut subs = Vec::new();
    for i in 0..SEEDS_PER_REP {
        let mut b = GridBuilder::new()
            .seed(derive(seed, &format!("serve-grid:{rep}:{i}")))
            .geometries(&[GEOMETRY]);
        for w in standard_workloads() {
            b = b.workload(&w.name, w.template);
        }
        for s in b.build().scenarios {
            let req = SubmitRequest {
                band: s.band,
                geometry: s.geometry,
                arch: s.arch,
                seed: Some(s.seed),
                ..SubmitRequest::new("", s.workload.clone())
            };
            let key = cell_key(&s, &fingerprint);
            for _ in 0..2 {
                subs.push(Sub {
                    req: req.clone(),
                    scenario: s.clone(),
                    key: key.clone(),
                });
            }
        }
    }
    subs.shuffle(&mut canon_sparse::gen::seeded_rng(derive(
        seed,
        &format!("serve-order:{rep}"),
    )));
    for (j, s) in subs.iter_mut().enumerate() {
        s.req.id = format!("r{rep}-{j}");
    }
    subs
}

struct Daemon {
    handle: JoinHandle<std::io::Result<i32>>,
    dir: PathBuf,
}

/// Starts a daemon over a fresh store in `dir`; returns it, a connected
/// client, and the time from start to the first `status` reply.
fn start(dir: &Path) -> (Daemon, Client, f64) {
    std::fs::create_dir_all(dir).expect("create daemon dir");
    let socket = dir.join("d.sock");
    let opts = ServeOptions {
        socket: socket.clone(),
        store: dir.join("store.jsonl"),
        workers: WORKERS,
        ..Default::default()
    };
    let t = Instant::now();
    let handle = std::thread::spawn(move || run_daemon(&opts));
    let mut client = loop {
        match Client::connect(&socket) {
            Ok(c) => break c,
            Err(e) if handle.is_finished() => panic!("daemon exited before serving: {e}"),
            Err(_) => std::thread::yield_now(),
        }
    };
    match client.request(&Request::Status) {
        Ok(Reply::Status(_)) => {}
        other => panic!("unexpected first status reply: {other:?}"),
    }
    let secs = t.elapsed().as_secs_f64();
    (
        Daemon {
            handle,
            dir: dir.to_path_buf(),
        },
        client,
        secs,
    )
}

fn status(client: &mut Client) -> StatusReply {
    match client.request(&Request::Status) {
        Ok(Reply::Status(s)) => *s,
        other => panic!("unexpected status reply: {other:?}"),
    }
}

fn stop(daemon: Daemon, mut client: Client) {
    let _ = client.request(&Request::Shutdown);
    drop(client);
    let code = daemon
        .handle
        .join()
        .expect("daemon thread")
        .expect("daemon I/O");
    assert_eq!(code, canon_serve::EXIT_DRAINED, "daemon exit code");
    let _ = std::fs::remove_dir_all(&daemon.dir);
}

/// One request as the client saw it.
struct Sample {
    sent: Duration,
    done: Duration,
    reply: Result<Reply, String>,
}

impl Sample {
    fn rtt_ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

/// The closed loop: each connection sends its next submit only after the
/// previous reply. Spans (when traced) cover each round trip.
fn drive(
    clients: &mut [Client],
    subs: &[Sub],
    epoch: Instant,
    tracer: Option<&Tracer>,
    op_base: u64,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Sample>>> = subs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for (c, client) in clients.iter_mut().enumerate() {
            let (next, slots) = (&next, &slots);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= subs.len() {
                    break;
                }
                let open = tracer
                    .map(|t| t.open("serve.request", None, op_base + i as u64, c, Phase::Run));
                let sent = epoch.elapsed();
                let reply = client
                    .request(&Request::Submit(subs[i].req.clone()))
                    .map_err(|e| e.to_string());
                let done = epoch.elapsed();
                if let (Some(t), Some(o)) = (tracer, open) {
                    t.close(o);
                }
                *slots[i].lock().unwrap() = Some(Sample { sent, done, reply });
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every submit answered"))
        .collect()
}

fn rep_wall_s(samples: &[Sample]) -> f64 {
    let first = samples.iter().map(|s| s.sent).min().unwrap();
    let last = samples.iter().map(|s| s.done).max().unwrap();
    (last - first).as_secs_f64()
}

/// Latency class of a reply.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    Cached,
    Coalesced,
}

/// Per-run state of the reply checks.
#[derive(Default)]
struct Checks {
    /// First result seen per key: every later reply must agree with it.
    first: HashMap<String, ResultReply>,
    attempted: u64,
    failed: u64,
    cold_ms: Vec<f64>,
    cached_ms: Vec<f64>,
}

impl Checks {
    /// Checks one repetition's replies; returns each request's class (or
    /// `None` when it failed a check).
    fn rep(&mut self, subs: &[Sub], samples: &[Sample]) -> Vec<Option<Class>> {
        subs.iter()
            .zip(samples)
            .map(|(sub, sample)| {
                self.attempted += 1;
                let class = self.check(sub, sample);
                match class {
                    Some(Class::Cold) => self.cold_ms.push(sample.rtt_ms()),
                    Some(Class::Cached) => self.cached_ms.push(sample.rtt_ms()),
                    Some(Class::Coalesced) => {}
                    None => self.failed += 1,
                }
                class
            })
            .collect()
    }

    fn check(&mut self, sub: &Sub, sample: &Sample) -> Option<Class> {
        let r = match &sample.reply {
            Ok(Reply::Result(r)) => r,
            other => {
                eprintln!("serve: {} got {other:?}", sub.req.id);
                return None;
            }
        };
        let s = &sub.scenario;
        let status_ok = if expected_unsupported(&s.op, s.arch) {
            r.status == "unsupported"
        } else {
            r.status == "ok" && r.useful_macs == s.op.useful_macs()
        };
        if r.key != sub.key || !status_ok {
            eprintln!("serve: {} bad result {r:?}", sub.req.id);
            return None;
        }
        let first = self.first.entry(r.key.clone()).or_insert_with(|| r.clone());
        let same = first.status == r.status
            && first.cycles == r.cycles
            && first.energy_pj == r.energy_pj
            && first.useful_macs == r.useful_macs
            && first.utilization == r.utilization;
        if !same {
            eprintln!(
                "serve: {} disagrees with the first reply of its key",
                sub.req.id
            );
            return None;
        }
        Some(if r.cached {
            Class::Cached
        } else if r.coalesced {
            Class::Coalesced
        } else {
            Class::Cold
        })
    }
}

/// `reply` as a client receives it: the protocol line carries floats at
/// its own precision, so in-process records compare after the same trip.
fn on_the_wire(reply: ResultReply) -> ResultReply {
    match Reply::parse(&Reply::Result(reply).to_line()) {
        Ok(Reply::Result(r)) => r,
        other => panic!("result reply does not round-trip: {other:?}"),
    }
}

fn reply_of(sample: &Sample) -> &ResultReply {
    match &sample.reply {
        Ok(Reply::Result(r)) => r,
        _ => unreachable!("only checked replies are replayed"),
    }
}

/// Daemon start-ups, the last of which stays up to serve the load.
fn startup(dir: &Path) -> (Daemon, Client, Vec<f64>) {
    let mut setup_s = Vec::new();
    for i in 0..SETUP_SAMPLES - 1 {
        let (d, c, secs) = start(&dir.join(format!("setup-{i}")));
        setup_s.push(secs);
        stop(d, c);
    }
    let (daemon, client, secs) = start(&dir.join("daemon"));
    setup_s.push(secs);
    (daemon, client, setup_s)
}

fn connect(n: usize, daemon: &Daemon) -> Vec<Client> {
    (0..n)
        .map(|_| Client::connect(daemon.dir.join("d.sock")).expect("connect"))
        .collect()
}

pub fn run(args: &Args, dir: &Path) -> Outcome {
    let (daemon, mut admin, setup_s) = startup(dir);
    let mut clients = connect(CONNECTIONS, &daemon);
    let epoch = Instant::now();
    let mut checks = Checks::default();
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let min_reps = if args.trace { 2 } else { MIN_REPS };

    // Untraced repetitions.
    let mut walls = Vec::new();
    let mut first_rep = None;
    let start_t = Instant::now();
    while walls.len() < min_reps || start_t.elapsed() < budget {
        let subs = rep_subs(args.seed, walls.len());
        let samples = drive(&mut clients, &subs, epoch, None, 0);
        walls.push(rep_wall_s(&samples));
        let classes = checks.rep(&subs, &samples);
        if first_rep.is_none() {
            first_rep = Some((subs, samples, classes));
        }
    }
    let untraced_wall = median(&walls).unwrap();

    // The first repetition's cold replies must equal the in-process
    // `execute_cell` record of the same key (checked outside the timing).
    let (subs0, samples0, classes0) = first_rep.expect("one repetition");
    let cache = OperandCache::new();
    let cfg = CanonConfig::default();
    let mut canon_cycles = Vec::new();
    for ((sub, sample), class) in subs0.iter().zip(&samples0).zip(&classes0) {
        if *class != Some(Class::Cold) {
            continue;
        }
        let r = reply_of(sample);
        let (rec, retries) = execute_cell(
            &sub.scenario,
            sub.key.clone(),
            &cfg,
            &SweepOptions::default(),
            &cache,
        );
        if *r
            != on_the_wire(ResultReply::from_record(
                &sub.req.id,
                &rec,
                false,
                false,
                retries,
            ))
        {
            eprintln!("serve: {} differs from its in-process record", sub.req.id);
            checks.failed += 1;
        }
        if sub.scenario.arch == canon_energy::Arch::Canon
            && matches!(sub.scenario.op, canon_workloads::Workload::Tensor(_))
        {
            canon_cycles.push(r.cycles as f64);
        }
    }

    let outcome = if args.trace {
        traced(
            args,
            &daemon,
            &mut admin,
            &mut clients,
            &mut checks,
            untraced_wall,
            walls.len(),
        )
    } else {
        report_latency(&checks);
        let st = status(&mut admin);
        eprintln!(
            "daemon: completed={} cache_hits={} coalesced={} rejected={} retries={} pool {}/{} hits/misses",
            st.completed, st.cache_hits, st.coalesced, st.rejected, st.retries, st.pool_hits, st.pool_misses
        );
        let metrics: Vec<Metric> = vec![
            // The daemon's accept loop sleeps 10 ms whenever no connection
            // is queued, so a start-up is served at once or after that poll
            // depending on a race with the first accept. The lower quartile
            // of the start-ups stays on the start-up work itself.
            ("setup_s", percentile(&setup_s, 25.0).unwrap(), "s"),
            ("wall_s", untraced_wall, "s"),
            ("ops_per_s", subs0.len() as f64 / untraced_wall, "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            (
                "canon_cycles_geomean",
                geomean(&canon_cycles).unwrap_or(0.0),
                "cycles",
            ),
        ];
        eprintln!("serve-8x8: {} repetitions, wall_s {walls:?}", walls.len());
        Outcome {
            attempted: checks.attempted,
            failed: checks.failed,
            checks_ok: true,
            metrics,
        }
    };
    drop(clients);
    stop(daemon, admin);
    outcome
}

fn report_latency(checks: &Checks) {
    for (name, v) in [("cold", &checks.cold_ms), ("cached", &checks.cached_ms)] {
        let p50 = median(v).unwrap_or(0.0);
        match tail(v) {
            Some(t) => eprintln!(
                "  {name}_p50_ms {p50:.4}  {name}_p{}_ms {:.4}  ({} samples)",
                t.level, t.value, t.samples
            ),
            None => eprintln!(
                "  {name}_p50_ms {p50:.4}  (tail needs more samples; {} samples)",
                v.len()
            ),
        }
    }
}

fn traced(
    args: &Args,
    daemon: &Daemon,
    admin: &mut Client,
    clients: &mut [Client],
    checks: &mut Checks,
    untraced_wall: f64,
    rep_base: usize,
) -> Outcome {
    let tracer = Tracer::new();
    let epoch = Instant::now();
    let before = status(admin);
    let mut walls = Vec::new();
    let mut traced_reqs: Vec<(Sub, Sample, Option<Class>, u64)> = Vec::new();
    let start_t = Instant::now();
    // A quarter of the run: the in-process replay of the cold cells below
    // takes about as long again.
    while walls.is_empty() || start_t.elapsed() < args.seconds / 4 {
        let subs = rep_subs(args.seed, rep_base + walls.len());
        let op_base = traced_reqs.len() as u64;
        let samples = drive(clients, &subs, epoch, Some(&tracer), op_base);
        walls.push(rep_wall_s(&samples));
        let classes = checks.rep(&subs, &samples);
        for (j, ((sub, sample), class)) in subs.into_iter().zip(samples).zip(classes).enumerate() {
            traced_reqs.push((sub, sample, class, op_base + j as u64));
        }
    }
    let after = status(admin);
    report_latency(checks);

    // Replay the cold requests in-process through the decomposed layer
    // calls, journaling to a store of our own as the daemon's workers do.
    let tally = Mutex::new(CoreTally::default());
    let store_dir = daemon.dir.with_file_name("replay");
    std::fs::create_dir_all(&store_dir).expect("create replay dir");
    let mut store = ResultStore::open(store_dir.join("store.jsonl")).expect("open replay store");
    let cache = OperandCache::new();
    let cfg = CanonConfig::default();
    let replay_thread = CONNECTIONS;
    let mut in_process_ns: HashMap<u64, u64> = HashMap::new();
    {
        let _pool = canon_core::pool::install(2);
        let ctx = TraceCtx {
            tracer: &tracer,
            tally: &tally,
            thread: replay_thread,
            phase: Phase::Run,
        };
        for (sub, sample, class, op) in &traced_reqs {
            if *class != Some(Class::Cold) {
                continue;
            }
            let out = run_cell(
                &ctx,
                "serve.replay",
                &sub.scenario,
                sub.key.clone(),
                &cfg,
                &cache,
                *op,
            );
            let open = tracer.open("store.encode", None, *op, replay_thread, Phase::Run);
            std::hint::black_box(out.record.to_line());
            let encode = tracer.close(open);
            let open = tracer.open("store.append", None, *op, replay_thread, Phase::Run);
            store.append(&out.record).expect("replay journal append");
            let append = tracer.close(open);
            let ok = *reply_of(sample)
                == on_the_wire(ResultReply::from_record(
                    &sub.req.id,
                    &out.record,
                    false,
                    false,
                    0,
                ))
                && out.output_ok != Some(false);
            if !ok {
                eprintln!(
                    "serve: {} differs from its traced in-process replay",
                    sub.req.id
                );
                checks.failed += 1;
            }
            in_process_ns.insert(*op, encode.duration() + append.duration());
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    let spans = tracer.into_spans();
    let selfs = self_times(&spans);
    for s in spans.iter().filter(|s| s.name == "serve.replay") {
        *in_process_ns.entry(s.op).or_default() += s.duration();
    }
    let mut round_trip_s = 0.0;
    let mut overhead_s = 0.0;
    let mut cold_overhead_ms = Vec::new();
    for (_, sample, class, op) in &traced_reqs {
        let rtt = (sample.done - sample.sent).as_secs_f64();
        round_trip_s += rtt;
        let local = in_process_ns.get(op).map_or(0.0, |ns| *ns as f64 * 1e-9);
        overhead_s += rtt - local;
        if *class == Some(Class::Cold) {
            cold_overhead_ms.push((rtt - local) * 1e3);
        }
    }
    let mut accounted: Vec<(&'static str, f64)> = [
        "serve.replay",
        "operands",
        "kernels",
        "core.run",
        "models",
        "store.encode",
        "store.append",
    ]
    .iter()
    .map(|&name| (name, layer_self_s(&spans, &selfs, name, Phase::Run)))
    .collect();
    accounted.push(("serve.overhead", overhead_s));
    let d = |a: u64, b: u64| (a - b) as f64;
    let serve = ServeCounters {
        completed: d(after.completed, before.completed),
        cache_hits: d(after.cache_hits, before.cache_hits),
        coalesced: d(after.coalesced, before.coalesced),
        rejected: d(after.rejected, before.rejected),
        retries: d(after.retries, before.retries),
        overhead_s,
        overhead_ms_p50: median(&cold_overhead_ms).unwrap_or(0.0),
        round_trip_s,
    };
    let tally = tally.into_inner().unwrap();
    let metrics = layers::report(&LayerInput {
        spans: &spans,
        tally: &tally,
        passes: walls.len(),
        threads: CONNECTIONS,
        untraced_wall_s: untraced_wall,
        traced_wall_s: median(&walls).unwrap(),
        op_span: "serve.request",
        operand_probes: cache.hit_count() + cache.miss_count(),
        operand_hits: cache.hit_count(),
        pool_hits: after.pool_hits - before.pool_hits,
        pool_misses: after.pool_misses - before.pool_misses,
        serve,
        accounted,
    });
    if let Err(e) = write_jsonl(&spans, &trace_path(&args.workload, args.seed)) {
        eprintln!("cannot write spans: {e}");
    }
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        checks_ok: true,
        metrics,
    }
}
