//! The two serve workloads, open loops of 16-row ticketed
//! `embed_begin` requests against a 2-shard deployment:
//!
//! * `serve-zipf` — in-process `ShardedEngine`, result cache on, ids
//!   zipf-distributed (s = 1), no writes: admission, the micro-batcher,
//!   `fusedmm_rows` and cache hits carry the load;
//! * `serve-remote-writes` — `RemoteShardedEngine` over two in-process
//!   `WorkerServer`s on unix sockets, no result cache, uniform ids, and
//!   a second thread issuing `delta_update` at a fixed rate: the RPC
//!   wire, epoch-log shipping and the store's copy-on-write.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fusedmm_cache::CacheConfig;
use fusedmm_core::{global_tuner, kernel_profiles, Partition, PartitionStrategy, Plan};
use fusedmm_graph::features::random_features;
use fusedmm_graph::rmat::{rmat, RmatConfig};
use fusedmm_ops::OpSet;
use fusedmm_perf::memtrack;
use fusedmm_perf::registry::{MetricValue, MetricsRegistry, MetricsSnapshot};
use fusedmm_rpc::{RpcConfig, RpcTransport, WorkerServer};
use fusedmm_serve::remote::{RemoteShardedEngine, ShardTransport, WorkerEngine};
use fusedmm_serve::{
    AdmissionPolicy, EngineConfig, FaultPlan, FeatureStore, ServeError, ShardedEngine, Ticket,
    Tracer,
};
use fusedmm_sparse::{Csr, Dense};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{bit_identical, repeated_setup, stream_gbs, Ctx, RUN_DIR};
use crate::loadgen::{open_loop, Phase, Sample, Target};
use crate::stats::{median, percentile};

const N: usize = 16_384;
const AVG_DEGREE: usize = 8;
const D: usize = 64;
const SHARDS: usize = 2;
/// Rows per request.
const REQ_ROWS: usize = 16;
/// Every n-th answered request is kept for the output check. Prime,
/// so the sampled requests fall at every offset from the writer's
/// period instead of phase-locking with it (at 200 req/s and 2 writes/s
/// a stride of 50 would issue every other sample together with a write).
const SAMPLE_EVERY: u64 = 37;
/// Result-cache budget of `serve-zipf`: about a quarter of the rows.
/// Measured on a 2-vCPU AVX-512 guest, it hits about 80% of lookups and
/// evicts 20–33 thousand rows per traced run: both the zipf head and
/// eviction churn carry load.
const CACHE_MB: usize = 1;
/// Rows patched by one `delta_update`.
const WRITE_ROWS: usize = 8;

/// What distinguishes the two serve workloads.
struct Profile {
    remote: bool,
    /// Nominal open-loop rate, requests per second.
    rate: f64,
    /// The latency limit on p99 that `serve.max_ok_rps` must meet.
    limit_ms: f64,
    /// `delta_update` calls per second (0 = no writes).
    write_rate: f64,
}

// Rates and limits follow measurements on a 2-vCPU AVX-512 guest (the
// README has the figures). Each nominal rate is at most a quarter of
// the lowest measured `serve.max_ok_rps` (remote 1600/s in every run;
// zipf 4000/s to past the ladder's top), so the nominal phase measures
// unqueued latency. Each limit lies above the p99 of the rungs below
// the knee (remote 5–15 ms, zipf mostly under 4 ms) and below the first
// rung past it (remote 29–155 ms, zipf 20 ms). Two writes a second
// keep writes (2–8 ms each) near 1% of the coordinator's time.
const ZIPF: Profile = Profile { remote: false, rate: 1000.0, limit_ms: 10.0, write_rate: 0.0 };
const REMOTE: Profile = Profile { remote: true, rate: 200.0, limit_ms: 20.0, write_rate: 2.0 };
/// Rungs of the fixed-rate ladder, as multiples of the nominal rate.
const LADDER: [f64; 10] = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0];
/// Untimed open-loop settling after set-up, seconds: the cache and
/// the batcher reach their steady state before anything is measured.
const SETTLE_S: f64 = 1.0;
/// Untraced/traced slice pairs of the traced run.
const SLICES: usize = 3;

fn ops() -> OpSet {
    OpSet::sigmoid_embedding(None)
}

/// An engine configuration that reads nothing from the environment:
/// tracing, admission caps and fault injection are pinned off.
fn config(cache: bool) -> EngineConfig {
    EngineConfig {
        cache: cache.then(|| CacheConfig::with_mb(CACHE_MB)),
        tracer: Some(Tracer::disabled()),
        admission: Some(AdmissionPolicy::unlimited()),
        fault: Some(Arc::new(FaultPlan::disabled())),
        ..EngineConfig::default()
    }
}

/// Zipf-distributed ids: rank `k` has weight `1/(k+1)^s`, ranks map to
/// ids through a seeded shuffle so the hot set is not just the
/// generator's low ids.
struct Zipf {
    cdf: Vec<f64>,
    ids: Vec<usize>,
}

impl Zipf {
    fn new(n: usize, s: f64, rng: &mut StdRng) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        cdf.iter_mut().for_each(|c| *c /= acc);
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.gen_range(0..i + 1));
        }
        Zipf { cdf, ids }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.ids[self.cdf.partition_point(|&c| c < u).min(self.ids.len() - 1)]
    }
}

/// One `delta_update` the writer issued, with the epoch it minted.
struct Write {
    epoch: u64,
    rows: Vec<usize>,
    x: Dense,
    y: Dense,
}

/// A remote deployment: two in-process workers behind unix sockets and
/// the coordinator front end.
struct Remote {
    engine: RemoteShardedEngine,
    servers: Vec<WorkerServer>,
    registry: MetricsRegistry,
    paths: Vec<PathBuf>,
    /// Every write issued against this deployment, in epoch order: the
    /// output check replays it to rebuild any epoch a response was
    /// served at.
    writes: Mutex<Vec<Write>>,
    /// Set while the writer is inside `delta_update`. A sampling hint
    /// that publishes no other data, so its accesses are `Relaxed`.
    writing: AtomicBool,
}

impl Drop for Remote {
    fn drop(&mut self) {
        self.engine.shutdown();
        for s in &mut self.servers {
            s.stop();
        }
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

enum Front {
    Local(Box<ShardedEngine>),
    Remote(Box<Remote>),
}

/// Cumulative counters of a deployment by name; phases report
/// differences.
type Counters = BTreeMap<&'static str, f64>;

/// Add `after - before` into `acc`, counter by counter.
fn accumulate(acc: &mut Counters, before: &Counters, after: &Counters) {
    for (k, v) in after {
        *acc.entry(k).or_default() += v - before.get(k).copied().unwrap_or(0.0);
    }
}

fn sum_counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| if let MetricValue::Counter(v) = s.value { v } else { 0 })
        .sum()
}

fn max_gauge(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| if let MetricValue::Gauge(v) = s.value { v } else { 0.0 })
        .fold(0.0, f64::max)
}

/// The round-trip histogram of the busiest worker: `(p50, p99)` in ms.
fn roundtrip_ms(snap: &MetricsSnapshot) -> (f64, f64) {
    snap.samples
        .iter()
        .filter(|s| s.name == "fusedmm_rpc_roundtrip_seconds")
        .filter_map(|s| if let MetricValue::Histogram(h) = s.value { Some(h) } else { None })
        .max_by_key(|h| h.count)
        .map_or((0.0, 0.0), |h| (h.p50.as_secs_f64() * 1e3, h.p99.as_secs_f64() * 1e3))
}

fn kernel_seconds() -> f64 {
    kernel_profiles().iter().map(|p| p.elapsed.as_secs_f64()).sum()
}

impl Front {
    fn begin(&self, ids: &[usize]) -> Result<Ticket<Dense>, ServeError> {
        match self {
            Front::Local(e) => e.embed_begin(ids),
            Front::Remote(r) => r.engine.embed_begin(ids),
        }
    }

    fn embed(&self, ids: &[usize]) -> Result<Dense, ServeError> {
        match self {
            Front::Local(e) => e.embed(ids),
            Front::Remote(r) => r.engine.embed(ids),
        }
    }

    fn epoch(&self) -> u64 {
        match self {
            Front::Local(e) => e.store().current_epoch(),
            Front::Remote(r) => r.engine.store().current_epoch(),
        }
    }

    fn writing(&self) -> bool {
        match self {
            Front::Local(_) => false,
            Front::Remote(r) => r.writing.load(Ordering::Relaxed),
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::new();
        c.insert("kernel_s", kernel_seconds());
        let outcomes = |c: &mut Counters, o: [u64; 5]| {
            for (k, v) in
                ["harvested", "shed", "degraded", "failed", "abandoned"].into_iter().zip(o)
            {
                c.insert(k, v as f64);
            }
        };
        match self {
            Front::Local(e) => {
                let m = e.metrics();
                outcomes(
                    &mut c,
                    [
                        m.requests_harvested,
                        m.requests_shed,
                        m.requests_degraded,
                        m.requests_failed,
                        m.requests_abandoned,
                    ],
                );
                let sum = |f: fn(&fusedmm_serve::EngineMetrics) -> u64| {
                    m.per_shard.iter().map(f).sum::<u64>() as f64
                };
                c.insert("batches", sum(|s| s.batches_dispatched));
                c.insert("rows_requested", sum(|s| s.rows_requested));
                c.insert("rows_computed", sum(|s| s.rows_computed));
                if let Some(cm) = m.cache {
                    c.insert("cache_hits", cm.hits as f64);
                    c.insert("cache_misses", cm.misses as f64);
                    c.insert("cache_coalesced", cm.coalesced_misses as f64);
                    c.insert("cache_evictions", cm.evictions as f64);
                    c.insert("cache_invalidated", cm.invalidated_rows as f64);
                }
            }
            Front::Remote(r) => {
                let m = r.engine.metrics();
                outcomes(
                    &mut c,
                    [
                        m.requests_harvested,
                        m.requests_shed,
                        m.requests_degraded,
                        m.requests_failed,
                        m.requests_abandoned,
                    ],
                );
                let snap = r.registry.snapshot();
                let sum = |name: &str| sum_counter(&snap, name) as f64;
                c.insert("batches", sum("fusedmm_batches_dispatched_total"));
                c.insert("rows_requested", sum("fusedmm_rows_requested_total"));
                c.insert("rows_computed", sum("fusedmm_rows_computed_total"));
                c.insert(
                    "rpc_bytes",
                    sum("fusedmm_rpc_bytes_sent_total") + sum("fusedmm_rpc_bytes_received_total"),
                );
                c.insert(
                    "rpc_frames",
                    sum("fusedmm_rpc_frames_sent_total") + sum("fusedmm_rpc_frames_received_total"),
                );
                c.insert("reconnects", sum("fusedmm_rpc_reconnects_total"));
            }
        }
        c
    }
}

struct Inputs {
    a: Csr,
    x: Dense,
    y: Dense,
}

fn setup_local(inp: &Inputs) -> Front {
    global_tuner().clear();
    let e = ShardedEngine::new(
        inp.a.clone(),
        inp.x.clone(),
        inp.y.clone(),
        ops(),
        SHARDS,
        config(true),
    );
    Front::Local(Box::new(e))
}

fn setup_remote(inp: &Inputs) -> Front {
    static DEPLOYMENT: AtomicUsize = AtomicUsize::new(0);
    global_tuner().clear();
    std::fs::create_dir_all(RUN_DIR).expect("create the run directory");
    let k = DEPLOYMENT.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let paths: Vec<PathBuf> =
        (0..SHARDS).map(|s| PathBuf::from(RUN_DIR).join(format!("w{pid}-{k}-{s}.sock"))).collect();
    let part = Partition::part1d(&inp.a, SHARDS, PartitionStrategy::NnzBalanced);
    let workers: Vec<Arc<WorkerEngine>> = (0..SHARDS)
        .map(|s| {
            Arc::new(WorkerEngine::new(
                &inp.a,
                part.rows(s),
                s,
                Dense::zeros(N, D),
                Dense::zeros(N, D),
                ops(),
                config(false),
            ))
        })
        .collect();
    let servers: Vec<WorkerServer> = workers
        .iter()
        .zip(&paths)
        .map(|(w, p)| WorkerServer::serve_unix(Arc::clone(w), p).expect("bind a worker socket"))
        .collect();
    let rpc =
        RpcConfig { fault: Some(Arc::new(FaultPlan::disabled())), ..RpcConfig::new(paths.clone()) };
    let transport = RpcTransport::connect(rpc).expect("connect to the workers");
    let registry = MetricsRegistry::new();
    transport.register_metrics(&registry);
    for w in &workers {
        w.register_metrics(&registry);
    }
    let engine = RemoteShardedEngine::new(
        inp.x.clone(),
        inp.y.clone(),
        transport as Arc<dyn ShardTransport>,
        config(false),
    );
    Front::Remote(Box::new(Remote {
        engine,
        servers,
        registry,
        paths,
        writes: Mutex::new(Vec::new()),
        writing: AtomicBool::new(false),
    }))
}

/// Send one warm-up request, resending it while the deployment is
/// still coming up; returns how often it was resent.
/// `RpcTransport::connect` returns once every worker's handshake has
/// arrived, but each connection manager marks its worker connected a
/// moment later, and a part sent in between fails with the typed
/// `PartFailed`. Set-up ends when the deployment answers.
fn warm_up(front: &Front, ids: &[usize]) -> u32 {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut resent = 0;
    loop {
        match front.embed(ids) {
            Ok(_) => return resent,
            Err(ServeError::PartFailed { .. }) if Instant::now() < deadline => {
                resent += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("warm-up request failed: {e}"),
        }
    }
}

/// A request generator: 16 ids, zipf or uniform.
fn id_source(zipf: Option<Zipf>, seed: u64) -> impl FnMut() -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    move || {
        (0..REQ_ROWS)
            .map(|_| match &zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.gen_range(0..N),
            })
            .collect()
    }
}

/// Write-side measurements from the writer thread.
#[derive(Default)]
struct Writes {
    latency_ms: Vec<f64>,
    lag_max: f64,
}

impl Writes {
    fn absorb(&mut self, other: Writes) {
        self.latency_ms.extend(other.latency_ms);
        self.lag_max = self.lag_max.max(other.lag_max);
    }
}

/// Issue `delta_update`s at `rate` per second until `stop`, logging
/// each into `r.writes`. With `lag` set, read the replicas' epoch lag
/// from the registry after every write (traced runs only: the snapshot
/// costs CPU that is not the program's).
fn writer(r: &Remote, rate: f64, seed: u64, stop: &AtomicBool, lag: bool) -> Writes {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Writes::default();
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut due = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now < due {
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
            continue;
        }
        due += period;
        let rows: Vec<usize> = (0..WRITE_ROWS).map(|_| rng.gen_range(0..N)).collect();
        let px = Dense::from_fn(WRITE_ROWS, D, |_, _| rng.gen_range(-0.5f32..0.5));
        let py = Dense::from_fn(WRITE_ROWS, D, |_, _| rng.gen_range(-0.5f32..0.5));
        let t0 = Instant::now();
        r.writing.store(true, Ordering::Relaxed);
        let epoch = r.engine.delta_update(&rows, &px, &py);
        r.writing.store(false, Ordering::Relaxed);
        w.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if lag {
            w.lag_max = w.lag_max.max(max_gauge(&r.registry.snapshot(), "fusedmm_rpc_epoch_lag"));
        }
        r.writes.lock().expect("write log").push(Write { epoch, rows, x: px, y: py });
    }
    w
}

/// One open-loop phase at `rate`, with the writer running alongside on
/// the remote workload.
fn phase(
    ctx: &mut Ctx,
    front: &Front,
    p: &Profile,
    rate: f64,
    seconds: f64,
    ids: &mut dyn FnMut() -> Vec<usize>,
) -> (Phase, Writes) {
    let drain = Duration::from_secs(5);
    let begin = |v: &[usize]| front.begin(v);
    let epoch = || front.epoch();
    let writing = || front.writing();
    let target = Target { begin: &begin, epoch: &epoch, writing: &writing };
    let lag = ctx.trace;
    match front {
        Front::Remote(r) if p.write_rate > 0.0 => {
            // Each phase's writer draws a fresh, seed-derived patch stream.
            static WRITER_PHASES: AtomicUsize = AtomicUsize::new(0);
            let stop = AtomicBool::new(false);
            let seed = ctx.seed_for(100 + WRITER_PHASES.fetch_add(1, Ordering::Relaxed) as u64);
            std::thread::scope(|s| {
                let h = s.spawn(|| writer(r, p.write_rate, seed, &stop, lag));
                let ph = open_loop(rate, seconds, drain, SAMPLE_EVERY, &mut ctx.rec, ids, &target);
                stop.store(true, Ordering::Release);
                (ph, h.join().expect("writer thread"))
            })
        }
        _ => (
            open_loop(rate, seconds, drain, SAMPLE_EVERY, &mut ctx.rec, ids, &target),
            Writes::default(),
        ),
    }
}

pub fn run_zipf(ctx: &mut Ctx) {
    run(ctx, &ZIPF);
}

pub fn run_remote(ctx: &mut Ctx) {
    run(ctx, &REMOTE);
}

fn run(ctx: &mut Ctx, p: &Profile) {
    let a = rmat(&RmatConfig::new(N, N * AVG_DEGREE / 2).with_seed(ctx.seed_for(1)));
    let x = random_features(N, D, 0.5, ctx.seed_for(2));
    let y = random_features(N, D, 0.5, ctx.seed_for(3));
    let inp = Inputs { a, x, y };
    ctx.record
        .raw("operand_bytes", fusedmm_sparse::fusedmm_bytes(N, N, inp.a.nnz(), D).to_string());
    println!(
        "{}: n={N} nnz={} d={D} shards={SHARDS} rows/request={REQ_ROWS} rate={}/s{}",
        if p.remote { "serve-remote-writes" } else { "serve-zipf" },
        inp.a.nnz(),
        p.rate,
        if p.remote {
            format!(" writes={}/s x {WRITE_ROWS} rows", p.write_rate)
        } else {
            String::new()
        },
    );

    let mut warm = id_source(None, ctx.seed_for(5));
    let mut early = 0;
    let (front, setups) = repeated_setup(|| {
        let front = if p.remote { setup_remote(&inp) } else { setup_local(&inp) };
        for _ in 0..32 {
            early += warm_up(&front, &warm());
        }
        front
    });
    ctx.report.set("setup_s", median(&setups));
    ctx.say("setup_s", median(&setups), "s");
    ctx.record.raw("setup_part_failures", early.to_string());
    if early > 0 {
        println!("  set-up: {early} warm-up requests failed before the workers were connected");
    }

    let zipf = (!p.remote).then(|| Zipf::new(N, 1.0, &mut StdRng::seed_from_u64(ctx.seed_for(6))));
    let mut ids = id_source(zipf, ctx.seed_for(8));
    let (settle, _) = phase(ctx, &front, p, p.rate, SETTLE_S, &mut ids);
    ctx.report.attempt(settle.issued);
    ctx.report.fail(settle.errors);

    let mut samples = Vec::new();
    if ctx.trace {
        traced(ctx, &front, p, &mut ids, &mut samples);
    } else {
        let (c0, g0) = (crate::sys::cpu_seconds(), crate::sys::thread_cpu_seconds());
        let (ph, writes) = phase(ctx, &front, p, p.rate, ctx.seconds, &mut ids);
        let cpu = crate::sys::cpu_seconds() - c0;
        let generator = crate::sys::thread_cpu_seconds() - g0;
        let per_op = |s: f64| s * 1e3 / ph.issued.max(1) as f64;
        ctx.report.set("op_cpu_ms", per_op(cpu));
        // The generator thread's CPU holds the benchmark's own share of
        // op_cpu_ms (making ids, scheduling, parking) together with the
        // program's embed_begin and harvest calls made from it.
        println!(
            "  cpu per request {:.4} ms; the generator thread {:.4} ms, its embed_begin calls {:.4} ms (wall)",
            per_op(cpu),
            per_op(generator),
            ph.begin_us.iter().sum::<f64>() / 1e3 / ph.issued.max(1) as f64
        );
        ctx.report.attempt(ph.issued);
        ctx.report.fail(ph.errors);
        let lat = &ph.latency_ms;
        ctx.say_latency("embed", lat, "ms");
        if !lat.is_empty() {
            ctx.say("embed_p99_ms", percentile(lat, 99.0), "ms");
        }
        if p.remote {
            ctx.say_latency("write", &writes.latency_ms, "ms");
            if !writes.latency_ms.is_empty() {
                ctx.say("write_p90_ms", percentile(&writes.latency_ms, 90.0), "ms");
            }
        }
        println!(
            "  requests: {} issued, {} failed, late p99 {:.3} ms, backlog max {}",
            ph.issued,
            ph.errors,
            percentile(&ph.late_ms, 99.0),
            ph.backlog_max
        );
        samples = ph.samples;
    }
    check(ctx, &front, &inp, p, &samples);
}

/// Gates. Zipf: sampled responses equal the same rows of a whole-graph
/// plan at the (only) epoch. Remote: each sampled response whose
/// `embed_begin` no write straddled equals, bit for bit, the same
/// request to an in-process `ShardedEngine` at the epoch it pinned; the
/// in-process engine reaches each epoch by replaying the deployment's
/// write log from the initial features.
fn check(ctx: &mut Ctx, front: &Front, inp: &Inputs, p: &Profile, samples: &[Sample]) {
    let ops = ops();
    if !p.remote {
        let full = Plan::prepare(&ops, D).execute(&inp.a, &inp.x, &inp.y, &ops);
        for s in samples {
            let ok =
                s.ids.iter().enumerate().all(|(i, &u)| bit_identical(s.rows.row(i), full.row(u)));
            ctx.report.check(ok, || {
                format!("response for {:?} differs from the whole-graph plan", s.ids)
            });
        }
        println!("  checked {} sampled responses against the whole-graph plan", samples.len());
        return;
    }
    let Front::Remote(r) = front else { unreachable!("remote profile on a local front") };
    let store = Arc::new(FeatureStore::new(inp.x.clone(), inp.y.clone()));
    let local =
        ShardedEngine::with_store(inp.a.clone(), Arc::clone(&store), ops, SHARDS, config(false));
    let mut pinned: Vec<&Sample> = samples.iter().filter(|s| s.epochs.0 == s.epochs.1).collect();
    pinned.sort_by_key(|s| s.epochs.0);
    let mut pending = pinned.iter().peekable();
    let writes = r.writes.lock().expect("write log");
    let mut log = writes.iter();
    loop {
        let epoch = store.current_epoch();
        while let Some(s) = pending.next_if(|s| s.epochs.0 == epoch) {
            let ok = local
                .embed(&s.ids)
                .is_ok_and(|want| bit_identical(s.rows.as_slice(), want.as_slice()));
            ctx.report.check(ok, || {
                format!(
                    "remote response for {:?} differs from an in-process engine at epoch {epoch}",
                    s.ids
                )
            });
        }
        let Some(w) = log.next() else { break };
        let minted = store.delta_update(&w.rows, &w.x, &w.y);
        ctx.report.check(minted == w.epoch, || {
            format!("replaying a write minted epoch {minted}, the coordinator minted {}", w.epoch)
        });
    }
    for s in pending {
        ctx.report.check(false, || {
            format!(
                "response for {:?} was served at epoch {}, which no write minted",
                s.ids, s.epochs.0
            )
        });
    }
    println!(
        "  checked {} of {} sampled responses against an in-process engine replaying {} writes \
         ({} began across a write and were not checked)",
        pinned.len(),
        samples.len(),
        writes.len(),
        samples.len() - pinned.len()
    );
}

fn traced(
    ctx: &mut Ctx,
    front: &Front,
    p: &Profile,
    ids: &mut dyn FnMut() -> Vec<usize>,
    samples: &mut Vec<Sample>,
) {
    // Untraced fixed-rate ladder first (it also warms the deployment):
    // the highest rung that meets the latency limit.
    let rung_s = ctx.seconds / 3.0 / LADDER.len() as f64;
    let mut max_ok = 0.0;
    for mult in LADDER {
        let (ph, _) = phase(ctx, front, p, p.rate * mult, rung_s, ids);
        ctx.report.attempt(ph.issued);
        ctx.report.fail(ph.errors);
        let ok = ph.met_limit(p.limit_ms);
        println!(
            "  ladder {:>7.0}/s: p99 {:.3} ms, backlog at end {}, failed {} -> {}",
            p.rate * mult,
            if ph.latency_ms.is_empty() { f64::NAN } else { percentile(&ph.latency_ms, 99.0) },
            ph.backlog_end,
            ph.errors,
            if ok { "ok" } else { "over the limit" }
        );
        if !ok {
            break;
        }
        max_ok = p.rate * mult;
    }
    ctx.report.set("serve.max_ok_rps", max_ok);
    println!("  max_ok_rps: {max_ok} (limit p99 <= {} ms)", p.limit_ms);

    // Then untraced and traced slices at the nominal rate, alternating
    // so drift hits both alike. Layer counters are diffed around the
    // traced slices.
    let slice_s = ctx.seconds * 2.0 / 3.0 / (2 * SLICES) as f64;
    let (mut plain, mut traced_ph) = (Phase::default(), Phase::default());
    let mut writes = Writes::default();
    let mut counted = Counters::new();
    let mut traced_wall = 0.0;
    for _ in 0..SLICES {
        let (ph, w) = phase(ctx, front, p, p.rate, slice_s, ids);
        plain.absorb(ph);
        writes.absorb(w);
        let before = front.counters();
        let t0 = Instant::now();
        ctx.rec.set_enabled(true);
        let (ph, w) = phase(ctx, front, p, p.rate, slice_s, ids);
        ctx.rec.set_enabled(false);
        traced_wall += t0.elapsed().as_secs_f64();
        accumulate(&mut counted, &before, &front.counters());
        traced_ph.absorb(ph);
        writes.absorb(w);
    }
    for ph in [&plain, &traced_ph] {
        ctx.report.attempt(ph.issued);
        ctx.report.fail(ph.errors);
    }
    ctx.report.set("serve.embed_p99_ms", percentile(&plain.latency_ms, 99.0));
    ctx.report.set("wall.op_p50_ms", median(&plain.latency_ms));
    ctx.report.set("wall.op_p90_ms", percentile(&plain.latency_ms, 90.0));
    if p.remote {
        ctx.report.set("serve.write_p50_ms", median(&writes.latency_ms));
        ctx.report.set("serve.write_p90_ms", percentile(&writes.latency_ms, 90.0));
    }
    samples.append(&mut plain.samples);
    samples.append(&mut traced_ph.samples);

    let r = &mut ctx.report;
    let c = |k: &str| counted.get(k).copied().unwrap_or(0.0);
    r.set("serve.begin_us_p50", median(&traced_ph.begin_us));
    r.set("serve.begin_us_p99", percentile(&traced_ph.begin_us, 99.0));
    r.set("serve.resolve_ms_p50", median(&traced_ph.resolve_ms));
    r.set("serve.resolve_ms_p99", percentile(&traced_ph.resolve_ms, 99.0));
    r.set("serve.rows_per_launch", c("rows_computed") / c("batches").max(1.0));
    r.set("serve.dedup_frac", 1.0 - c("rows_computed") / c("rows_requested").max(1.0));
    r.set("core.rows.busy_frac", c("kernel_s") / traced_wall);
    r.set("serve.harvested", c("harvested"));
    r.set("serve.shed", c("shed"));
    r.set("serve.degraded", c("degraded"));
    r.set("serve.failed", c("failed"));
    r.set("serve.abandoned", c("abandoned"));
    r.set("loadgen.late_p99_ms", percentile(&traced_ph.late_ms, 99.0));
    r.set("loadgen.backlog_max", traced_ph.backlog_max as f64);
    r.set("trace.overhead_frac", median(&traced_ph.latency_ms) / median(&plain.latency_ms) - 1.0);
    if !p.remote {
        let lookups = (c("cache_hits") + c("cache_misses")).max(1.0);
        r.set("cache.hit_ratio", c("cache_hits") / lookups);
        r.set("cache.coalesced_frac", c("cache_coalesced") / c("cache_misses").max(1.0));
        r.set("cache.evictions", c("cache_evictions"));
        r.set("cache.invalidated_rows", c("cache_invalidated"));
    }
    if let Front::Remote(remote) = front {
        let (p50, p99) = roundtrip_ms(&remote.registry.snapshot());
        let reqs = traced_ph.issued.max(1) as f64;
        r.set("rpc.roundtrip_p50_ms", p50);
        r.set("rpc.roundtrip_p99_ms", p99);
        r.set("rpc.bytes_per_req", c("rpc_bytes") / reqs);
        r.set("rpc.frames_per_req", c("rpc_frames") / reqs);
        r.set("rpc.reconnects", front.counters()["reconnects"]);
        r.set("rpc.epoch_lag_max", writes.lag_max);
        store_delta(ctx);
    }
    let gbs = stream_gbs(ctx);
    ctx.report.set("perf.stream_gbs", gbs);
}

/// The store layer alone: `FeatureStore::delta_update` of one write's
/// rows on a store of the workload's size, and the heap it allocates
/// beyond what was live before the call (the copy-on-write copies). The
/// heap peak is only gated in untraced runs, so resetting it here is
/// harmless.
fn store_delta(ctx: &mut Ctx) {
    let store = FeatureStore::new(Dense::zeros(N, D), Dense::zeros(N, D));
    let mut rng = StdRng::seed_from_u64(ctx.seed_for(9));
    let patch = Dense::from_fn(WRITE_ROWS, D, |_, _| rng.gen_range(-0.5f32..0.5));
    let (mut times, mut bytes) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let rows: Vec<usize> = (0..WRITE_ROWS).map(|_| rng.gen_range(0..N)).collect();
        let t0 = Instant::now();
        let (_, copied) = memtrack::measure_peak(|| store.delta_update(&rows, &patch, &patch));
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        bytes.push(copied as f64);
    }
    ctx.report.set("serve.store.delta_ms", median(&times));
    ctx.report.set("serve.store.bytes_copied_per_write", median(&bytes));
}
