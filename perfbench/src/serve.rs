//! `serve-hot` and `serve-feedback`: `tl_server::serve` in this process
//! with two workers, driven by two closed-loop client connections on two
//! threads. The loop is closed because the callers are query optimizers
//! that wait for each estimate.

use std::path::Path;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use tl_obs::json::Json;
use tl_obs::{names, Snapshot};
use tl_server::{serve, Client, Request, Response, ServerConfig, ServerHandle, TenantSpec};
use treelattice::{
    DurabilityPolicy, DurableLattice, DurableOptions, EngineConfig, EstimationEngine, Estimator,
    TreeLattice,
};

use crate::fixture::{self, Fixture, Query};
use crate::replay::{self, Read, Stream, Update, POLICY, REPLAY_UPDATES, SNAPSHOT_EVERY};
use crate::report::{Checks, Named};
use crate::stats::{self, LatencyLog};
use crate::trace::{self, Span, Tracer, ROOT};
use crate::{Ctx, Outcome};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// 90% single estimates, 10% four-query batches, two tenants 2:1.
    Hot,
    /// One connection reads, the other feeds back true counts with a
    /// strict write-ahead log.
    Feedback,
}

const K: usize = 4;
/// Logged operations replayed per layer in a traced run.
const REPLAY_READS: usize = 4000;

struct Params {
    elements: usize,
    per_size: usize,
    setup_reps: usize,
}

fn params(ctx: &Ctx) -> Params {
    if ctx.short {
        Params {
            elements: 4_000,
            per_size: 12,
            setup_reps: 1,
        }
    } else {
        Params {
            elements: 50_000,
            per_size: 40,
            setup_reps: 9,
        }
    }
}

/// Everything one set-up produces.
struct Served {
    fixture: Fixture,
    pool: Vec<Query>,
    /// Pool queries above the summary order, the ones whose feedback the
    /// summary does not already hold exactly; the update connection
    /// cycles through these.
    fed_back: Vec<usize>,
    handle: ServerHandle,
    clients: Vec<Client>,
    wal_dir: Option<std::path::PathBuf>,
}

fn set_up(
    ctx: &Ctx,
    mode: Mode,
    p: &Params,
    rep: usize,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Served {
    let fixture = fixture::build(ctx.seed, p.elements, K, &ctx.dir, tr, checks);
    let pool = tr.span("workload.pool", ROOT, 0, |_, _| {
        fixture::pool(&fixture.doc, &fixture.lattice, 2..=6, p.per_size, ctx.seed)
    });
    let fed_back = fixture::above_order(&fixture.lattice, &pool, K);
    let mut config = ServerConfig::new(&fixture.summary_path);
    config.workers = 2;
    let tenants = tenants(mode);
    config.tenants = vec![
        TenantSpec::new(tenants[0], 2, 256),
        TenantSpec::new(tenants[1], 1, 256),
    ];
    let wal_dir = (mode == Mode::Feedback).then(|| ctx.dir.join(format!("wal-{rep}")));
    if let Some(dir) = &wal_dir {
        config.wal_dir = Some(dir.clone());
        config.durability = POLICY;
        config.snapshot_every = SNAPSHOT_EVERY;
    }
    let handle = tr.span("server.start", ROOT, 0, |_, _| {
        serve(config).expect("start the server")
    });
    let clients = tenants
        .iter()
        .map(|t| Client::connect(handle.addr(), *t).expect("connect to the server"))
        .collect();
    Served {
        fixture,
        pool,
        fed_back,
        handle,
        clients,
        wal_dir,
    }
}

fn tenants(mode: Mode) -> [&'static str; 2] {
    match mode {
        Mode::Hot => ["gold", "silver"],
        Mode::Feedback => ["reader", "writer"],
    }
}

/// What one client thread saw in one phase.
struct ThreadLog {
    latency: LatencyLog,
    reads: Vec<Read>,
    acks: Vec<Update>,
    checks: Checks,
    spans: Vec<Span>,
}

/// Expected exact-path bits per (estimator, query): `TreeLattice::estimate`
/// on the reparsed query. `None` where the served answer may legitimately
/// change during the run (feedback on patterns above the summary order).
fn expected(
    lattice: &TreeLattice,
    pool: &[Query],
    mode: Mode,
    perturb: bool,
) -> Vec<Vec<Option<u64>>> {
    Estimator::ALL
        .iter()
        .map(|&est| {
            pool.iter()
                .enumerate()
                .map(|(i, q)| {
                    let twig = lattice.parse_query(&q.text).expect("pool queries parse");
                    if mode == Mode::Feedback && twig.len() > K {
                        return None;
                    }
                    let bits = lattice.estimate(&twig, est).to_bits();
                    Some(if perturb && i == 0 { bits ^ 1 } else { bits })
                })
                .collect()
        })
        .collect()
}

fn check_estimate(
    checks: &mut Checks,
    item: Option<&tl_server::WireEstimate>,
    expected: Option<u64>,
    what: impl Fn() -> String,
) {
    let ok = match item {
        Some(e) if !e.degradation.is_degraded() => expected.is_none_or(|b| e.value.to_bits() == b),
        _ => false,
    };
    checks.check(ok, || {
        format!("{}: {item:?}, expected bits {expected:?}", what())
    });
}

#[allow(clippy::too_many_arguments)]
fn reader(
    client: &mut Client,
    pool: &[Query],
    expected: &[Vec<Option<u64>>],
    batch_pct: u32,
    seed: u64,
    start: Instant,
    end: Instant,
    mut tr: Tracer,
    thread: u64,
) -> ThreadLog {
    let mut log = ThreadLog::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let tenant = client.tenant().to_string();
    let mut n = 0u64;
    while Instant::now() < end {
        let est_i = rng.gen_range(0..Estimator::ALL.len());
        let estimator = Estimator::ALL[est_i];
        let batch = rng.gen_range(0..100u32) < batch_pct;
        let qs: Vec<u16> = (0..if batch { 4 } else { 1 })
            .map(|_| rng.gen_range(0..pool.len()) as u16)
            .collect();
        let request = if batch {
            Request::EstimateBatch {
                tenant: tenant.clone(),
                estimator,
                queries: qs.iter().map(|&q| pool[q as usize].text.clone()).collect(),
            }
        } else {
            Request::Estimate {
                tenant: tenant.clone(),
                estimator,
                query: pool[qs[0] as usize].text.clone(),
            }
        };
        let id = thread << 40 | n;
        n += 1;
        let t0 = Instant::now();
        let resp = tr.span("client.request", ROOT, id, |_, _| client.request(&request));
        let done = Instant::now();
        let what = || format!("{tenant} {} {:?}", estimator.name(), qs);
        match &resp {
            Ok(Response::Estimate(e)) if !batch => check_estimate(
                &mut log.checks,
                Some(e),
                expected[est_i][qs[0] as usize],
                what,
            ),
            Ok(Response::Batch(items)) if batch && items.len() == qs.len() => {
                for (item, &q) in items.iter().zip(&qs) {
                    check_estimate(
                        &mut log.checks,
                        item.as_ref().ok(),
                        expected[est_i][q as usize],
                        what,
                    );
                }
            }
            other => log.checks.check(false, || format!("{}: {other:?}", what())),
        }
        log.latency.record(
            (done - start).as_nanos() as u64,
            (done - t0).as_nanos() as u64,
        );
        if log.reads.len() < REPLAY_READS {
            log.reads.push(Read {
                estimator,
                queries: qs,
                batch,
            });
        }
    }
    log.spans = tr.into_spans();
    log
}

#[allow(clippy::too_many_arguments)]
fn writer(
    client: &mut Client,
    pool: &[Query],
    fed_back: &[usize],
    cursor: &mut usize,
    next_idem: &mut u64,
    start: Instant,
    end: Instant,
    mut tr: Tracer,
    thread: u64,
) -> ThreadLog {
    let mut log = ThreadLog::new();
    let tenant = client.tenant().to_string();
    while Instant::now() < end {
        let q = fed_back[*cursor % fed_back.len()];
        *cursor += 1;
        let idem = *next_idem;
        *next_idem += 1;
        let request = Request::Update {
            tenant: tenant.clone(),
            query: pool[q].text.clone(),
            true_count: pool[q].truth,
            idem,
        };
        let t0 = Instant::now();
        let resp = tr.span("client.request", ROOT, thread << 40 | idem, |_, _| {
            client.request(&request)
        });
        let done = Instant::now();
        let acked = matches!(resp, Ok(Response::Updated { .. }));
        log.checks.check(acked, || {
            format!("update of pool query {q} not acked: {resp:?}")
        });
        if acked {
            log.acks.push(Update {
                query: q as u16,
                idem,
            });
        }
        log.latency.record(
            (done - start).as_nanos() as u64,
            (done - t0).as_nanos() as u64,
        );
    }
    log.spans = tr.into_spans();
    log
}

/// The two client threads' logs of one timed phase, plus its wall time.
struct Phase {
    threads: Vec<ThreadLog>,
    wall_ns: u64,
}

#[allow(clippy::too_many_arguments)]
fn phase(
    ctx: &Ctx,
    mode: Mode,
    s: &mut Served,
    expected: &[Vec<Option<u64>>],
    seconds: f64,
    traced: bool,
    cursor: &mut usize,
    next_idem: &mut u64,
    phase_no: u64,
) -> Phase {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let pool = &s.pool;
    let fed_back = &s.fed_back;
    let (c0, c1) = s.clients.split_at_mut(1);
    let threads = std::thread::scope(|scope| {
        let t0 = scope.spawn(|| {
            let batch_pct = if mode == Mode::Hot { 10 } else { 0 };
            let tr = Tracer::new(traced, ctx.epoch);
            let seed = ctx.seed.wrapping_mul(1_000).wrapping_add(phase_no * 2);
            reader(
                &mut c0[0],
                pool,
                expected,
                batch_pct,
                seed,
                start,
                end,
                tr,
                phase_no * 2,
            )
        });
        let t1 = scope.spawn(|| {
            let tr = Tracer::new(traced, ctx.epoch);
            match mode {
                Mode::Hot => {
                    let seed = ctx.seed.wrapping_mul(1_000).wrapping_add(phase_no * 2 + 1);
                    reader(
                        &mut c1[0],
                        pool,
                        expected,
                        10,
                        seed,
                        start,
                        end,
                        tr,
                        phase_no * 2 + 1,
                    )
                }
                Mode::Feedback => writer(
                    &mut c1[0],
                    pool,
                    fed_back,
                    cursor,
                    next_idem,
                    start,
                    end,
                    tr,
                    phase_no * 2 + 1,
                ),
            }
        });
        vec![
            t0.join().expect("client thread 0"),
            t1.join().expect("client thread 1"),
        ]
    });
    Phase {
        threads,
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

impl ThreadLog {
    fn new() -> Self {
        Self {
            latency: LatencyLog::new(),
            reads: Vec::new(),
            acks: Vec::new(),
            checks: Checks::default(),
            spans: Vec::new(),
        }
    }
}

fn summarize(threads: &[ThreadLog], wall_ns: u64) -> stats::Summary {
    let logs: Vec<&LatencyLog> = threads.iter().map(|t| &t.latency).collect();
    stats::summarize(&logs, wall_ns)
}

pub fn run(ctx: &Ctx, mode: Mode) -> Outcome {
    let p = params(ctx);
    let mut out = Outcome::default();
    let mut setup_tr = Tracer::new(ctx.trace, ctx.epoch);
    let mut setup_s = Vec::new();
    let mut served = None;
    for rep in 0..p.setup_reps {
        if let Some(old) = served.take() {
            tear_down(old, &mut out.checks);
        }
        let t0 = Instant::now();
        served = Some(set_up(ctx, mode, &p, rep, &mut setup_tr, &mut out.checks));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut s = served.expect("at least one set-up");
    let lattice = s.fixture.lattice.clone();
    out.named.set("setup.peak_rss_mb", stats::peak_rss_mb());
    let pool = s.pool.clone();
    let (xml_bytes, kept_ratio) = (s.fixture.xml_bytes, s.fixture.kept_ratio);
    let summary_bytes = s.fixture.summary_bytes;
    let expected = expected(&lattice, &pool, mode, ctx.perturb);

    // The untraced phase gives the end-to-end figures; a traced run
    // splits its time between an untraced and a traced phase so the
    // tracing overhead is measured against the same server.
    let (mut cursor, mut next_idem) = (0usize, 1u64);
    let plain_secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = phase(
        ctx,
        mode,
        &mut s,
        &expected,
        plain_secs,
        false,
        &mut cursor,
        &mut next_idem,
        0,
    );
    let traced = ctx.trace.then(|| {
        phase(
            ctx,
            mode,
            &mut s,
            &expected,
            ctx.seconds / 2.0,
            true,
            &mut cursor,
            &mut next_idem,
            1,
        )
    });

    // The workload's own operation: the estimate request on serve-hot,
    // the acknowledged update on serve-feedback.
    let readers = if mode == Mode::Hot { 2 } else { 1 };
    let own_op = |ph: &Phase| {
        let own = if mode == Mode::Hot {
            &ph.threads[..]
        } else {
            &ph.threads[1..]
        };
        summarize(own, ph.wall_ns)
    };
    let reads_of = |ph: &Phase| summarize(&ph.threads[..readers], ph.wall_ns);
    let e2e = own_op(&plain);
    let read_sum = reads_of(&plain);
    let traced_p50 = traced.as_ref().map(|t| own_op(t).p50_us);

    let mut all: Vec<ThreadLog> = plain.threads;
    all.extend(traced.into_iter().flat_map(|t| t.threads));
    let reads: Vec<Read> = all.iter().flat_map(|t| t.reads.iter().cloned()).collect();
    let acks: Vec<Update> = all.iter().flat_map(|t| t.acks.iter().copied()).collect();
    for t in all {
        out.checks.absorb(t.checks);
        out.spans.extend(t.spans);
    }

    if mode == Mode::Feedback {
        read_back(&mut s.clients[1], &pool, &acks, &mut out.checks);
    }
    let scrape = scrape(&mut s.clients[0], &mut out.checks);
    let wal_dir = s.wal_dir.clone();
    tear_down(s, &mut out.checks);
    if let Some(dir) = &wal_dir {
        check_recovery(ctx, dir, &lattice, &pool, &acks, &mut out);
    }

    out.windows = e2e.windows_json();
    out.e2e.set("setup_s", stats::median_f64(&setup_s));
    out.e2e.set("p50_us", e2e.p50_us);
    out.e2e.set("p99_us", e2e.p99_us);
    out.e2e.set("ops_per_s", e2e.ops_per_s);
    out.e2e.set("summary_bytes", summary_bytes as f64);
    let (qerr_mean, qerr_gmean) = qerr(&lattice, &pool);
    out.e2e.set("qerr_gmean", qerr_gmean);
    out.named.set("qerr_mean", qerr_mean);
    out.named.set("serve.p50_us", read_sum.p50_us);
    out.named.set("serve.p99_us", read_sum.p99_us);
    out.named.set("serve.rps", read_sum.ops_per_s);
    out.named.set("serve.samples", read_sum.samples as f64);
    if mode == Mode::Feedback {
        out.named.set("update.p50_us", e2e.p50_us);
        out.named.set("update.p99_us", e2e.p99_us);
        out.named.set("update.ops_s", e2e.ops_per_s);
        out.named.set("update.samples", e2e.samples as f64);
    }
    out.named.set("windows", e2e.windows as f64);
    if let Some(snap) = &scrape {
        scrape_metrics(snap, mode, &mut out.named);
    }

    if ctx.trace {
        let setup_spans = setup_tr.into_spans();
        fixture::setup_layers(&setup_spans, xml_bytes, kept_ratio, &mut out.layers);
        let replayed = layer_replay(ctx, mode, &lattice, &pool, &reads, &acks, &mut out);
        // The wire and twig layers on the path of the workload's own
        // operation: replayed reads on serve-hot, replayed updates on
        // serve-feedback.
        let root = if mode == Mode::Hot {
            "replay.read"
        } else {
            "replay.update"
        };
        let attributed: f64 = [
            "protocol.encode",
            "protocol.decode",
            "protocol.frame",
            "twig.parse",
            "twig.canon",
        ]
        .iter()
        .map(|name| replay::path_p50_us(&replayed, root, &[name]))
        .sum();
        let admit_p50 = out.named.get("server.admit_to_done_p50_us").unwrap_or(0.0);
        let client_p50 = traced_p50.unwrap_or(e2e.p50_us);
        out.layers
            .set("unattributed_us", client_p50 - attributed - admit_p50);
        if let Some(t) = traced_p50 {
            out.layers
                .set("trace.overhead_pct", (t / e2e.p50_us - 1.0) * 100.0);
        }
        let hits = out.named.get("engine.cache.hit_ratio");
        out.layers.set("engine.hit_ratio", hits.unwrap_or(0.0));
        let loop_spans = std::mem::take(&mut out.spans);
        out.spans = trace::merge(vec![loop_spans, setup_spans, replayed]);
    }
    out.params = vec![
        ("dataset".into(), Json::Str("imdb".into())),
        ("elements".into(), Json::UInt(p.elements as u64)),
        ("k".into(), Json::UInt(K as u64)),
        ("pool_queries".into(), Json::UInt(pool.len() as u64)),
        ("query_sizes".into(), Json::Str("2-6".into())),
        ("workers".into(), Json::UInt(2)),
        ("client_threads".into(), Json::UInt(2)),
        ("loop".into(), Json::Str("closed".into())),
        ("setup_reps".into(), Json::UInt(p.setup_reps as u64)),
        (
            "durability".into(),
            Json::Str(
                if mode == Mode::Feedback {
                    "strict"
                } else {
                    "none"
                }
                .into(),
            ),
        ),
    ];
    out
}

fn tear_down(s: Served, checks: &mut Checks) {
    drop(s.clients);
    let drained = s.handle.shutdown();
    checks.check(drained.is_ok(), || {
        format!("server drain failed: {drained:?}")
    });
}

/// Every acknowledged update reads back through `truth`.
fn read_back(client: &mut Client, pool: &[Query], acks: &[Update], checks: &mut Checks) {
    let mut seen = std::collections::BTreeSet::new();
    for a in acks {
        if !seen.insert(a.query) {
            continue;
        }
        let q = &pool[a.query as usize];
        let resp = client.request(&Request::Truth {
            tenant: client.tenant().to_string(),
            query: q.text.clone(),
        });
        let ok = matches!(resp, Ok(Response::Truth { stored: Some(c) }) if c == q.truth);
        checks.check(ok, || {
            format!(
                "truth of updated `{}` reads {resp:?}, not {}",
                q.text, q.truth
            )
        });
    }
}

fn scrape(client: &mut Client, checks: &mut Checks) -> Option<Snapshot> {
    let snap = client
        .scrape()
        .ok()
        .and_then(|j| Snapshot::from_json(&j).ok());
    checks.check(snap.is_some(), || "scrape failed".into());
    snap
}

/// After the drain, recovery of the served directory must equal, bit for
/// bit, a replica fed the acknowledged updates in acknowledgement order
/// (one update connection, so the order is total).
fn check_recovery(
    ctx: &Ctx,
    dir: &Path,
    lattice: &TreeLattice,
    pool: &[Query],
    acks: &[Update],
    out: &mut Outcome,
) {
    let opts = DurableOptions {
        online_budget: 1 << 20,
        policy: POLICY,
        snapshot_every: SNAPSHOT_EVERY,
        ..DurableOptions::default()
    };
    let t0 = Instant::now();
    let recovered = treelattice::recover(dir, Some(lattice), &opts, &tl_obs::NOOP);
    out.named
        .set("served.wal.recover_ms", t0.elapsed().as_secs_f64() * 1e3);
    out.checks.check(
        recovered.is_ok_and(|r| r.report.last_seq == acks.len() as u64),
        || {
            format!(
                "recovery of the served WAL does not end at the {} acked updates",
                acks.len()
            )
        },
    );
    let served = DurableLattice::open(dir, Some(lattice), &opts, &tl_obs::NOOP);
    let replica_opts = DurableOptions {
        policy: DurabilityPolicy::None,
        snapshot_every: 0,
        ..opts
    };
    let replica = DurableLattice::open(
        &ctx.dir.join("identity"),
        Some(lattice),
        &replica_opts,
        &tl_obs::NOOP,
    );
    let (Ok((served, _)), Ok((mut replica, _))) = (served, replica) else {
        out.checks
            .check(false, || "cannot open the recovered or replica WAL".into());
        return;
    };
    let mut labels = lattice.labels().clone();
    for (i, a) in acks.iter().enumerate() {
        let q = &pool[a.query as usize];
        let twig = tl_twig::parse_twig(&q.text, &mut labels).expect("pool queries parse");
        let count = if ctx.perturb && i == 0 {
            q.truth + 1
        } else {
            q.truth
        };
        if replica.apply(&twig, count, a.idem, &tl_obs::NOOP).is_err() {
            out.checks
                .check(false, || format!("replica apply {i} failed"));
        }
    }
    out.checks
        .check(served.state_bytes() == replica.state_bytes(), || {
            "recovered state differs from the replica fed the acked updates".into()
        });
}

/// Mean and geometric-mean q-error over the pool under every estimator.
pub fn qerr(lattice: &TreeLattice, pool: &[Query]) -> (f64, f64) {
    fixture::qerr_means(pool.iter().flat_map(|q| {
        let twig = lattice.parse_query(&q.text).expect("pool queries parse");
        Estimator::ALL.map(|est| (q.truth, lattice.estimate(&twig, est)))
    }))
}

/// Server internals from the final scrape, under their scrape names.
fn scrape_metrics(snap: &Snapshot, mode: Mode, named: &mut Named) {
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
    let hist = |n: &str| snap.histograms.get(n).cloned().unwrap_or_default();
    let latency = hist(names::SERVER_LATENCY_US);
    named.set(
        "server.admit_to_done_p50_us",
        stats::hist_quantile(&latency, 0.50),
    );
    named.set(
        "server.admit_to_done_p99_us",
        stats::hist_quantile(&latency, 0.99),
    );
    let accepted = counter(names::SERVER_ACCEPTED).max(1.0);
    named.set(
        "server.queued_ratio",
        counter(names::SERVER_QUEUED) / accepted,
    );
    named.set("server.shed_ratio", counter(names::SERVER_SHED) / accepted);
    let (hits, misses) = (
        counter(names::ENGINE_CACHE_HITS),
        counter(names::ENGINE_CACHE_MISSES),
    );
    named.set("engine.cache.hit_ratio", hits / (hits + misses).max(1.0));
    // Recorded as they come; the served path feeds neither today.
    named.set(
        "engine.decomposition.depth.count",
        hist(names::DECOMP_DEPTH).count as f64,
    );
    named.set(
        "twig.match.m_entries.count",
        counter(names::TWIG_MATCH_M_ENTRIES),
    );
    if mode == Mode::Feedback {
        let appends = counter(names::WAL_APPENDS).max(1.0);
        named.set(
            "served.wal.fsyncs_per_update",
            counter(names::WAL_FSYNCS) / appends,
        );
        named.set(
            "served.wal.bytes_per_update",
            counter(names::WAL_APPEND_BYTES) / appends,
        );
        named.set(
            "served.snapshot.bytes_per_update",
            counter(names::SNAPSHOT_BYTES) / appends,
        );
    }
}

/// Replays the logged stream through each layer's public function and
/// fills the per-layer metrics. Serve-hot sends no updates, so its
/// update replay feeds back the pool's true counts, the feedback a query
/// optimizer would send after running those queries.
fn layer_replay(
    ctx: &Ctx,
    mode: Mode,
    lattice: &TreeLattice,
    pool: &[Query],
    reads: &[Read],
    acks: &[Update],
    out: &mut Outcome,
) -> Vec<Span> {
    let engine = EstimationEngine::new(EngineConfig {
        threads: 1,
        ..EngineConfig::default()
    });
    // Warm the engine the way the server's is after the first pass.
    for q in pool {
        let twig = lattice.parse_query(&q.text).expect("pool queries parse");
        for est in Estimator::ALL {
            let _ = engine.estimate_resilient(lattice, &twig, est, &Default::default());
        }
    }
    let updates = match mode {
        Mode::Feedback => acks.iter().take(REPLAY_UPDATES).copied().collect(),
        Mode::Hot => replay::feedback_updates(lattice, pool, K),
    };
    let stream = Stream {
        lattice,
        pool,
        reads: &reads[..reads.len().min(REPLAY_READS)],
        engine: Some(&engine),
        updates: &updates,
    };
    let spans = replay::run(
        &stream,
        &ctx.dir.join("replica"),
        ctx.epoch,
        &mut out.checks,
        &mut out.layers,
    );
    let stats = engine.stats();
    out.layers
        .set("engine.dag_dedup_ratio", stats.dedup_ratio());
    out.layers
        .set("engine.interner_keys", stats.interner_keys as f64);
    spans
}
