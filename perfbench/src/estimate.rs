//! `estimate-cold`: in-process, one thread, no wire. Each pass builds a
//! fresh `EstimationEngine` and runs the pool through `estimate_resilient`
//! under an unlimited budget, rotating through the four estimators, so the
//! decomposition kernel does nearly all the work (the paper's Fig. 9 use).

use std::time::{Duration, Instant};

use tl_obs::json::Json;
use tl_twig::Twig;
use treelattice::{EngineConfig, EstimateOptions, EstimationEngine, Estimator, TreeLattice};

use crate::fixture::{self, Query};
use crate::replay::{self, Read, Stream};
use crate::report::Checks;
use crate::stats::{self, LatencyLog};
use crate::trace::{self, Span, Tracer, ROOT};
use crate::{Ctx, Outcome};

const K: usize = 4;
const REPLAY_READS: usize = 1000;

/// Threads running passes side by side, one engine each. The host has
/// two vCPUs whose speeds wander apart; two threads sample both.
const THREADS: usize = 2;

/// Engine counters summed over a phase's passes.
#[derive(Default)]
struct EngineTotals {
    hits: u64,
    misses: u64,
    dag_nodes: u64,
    dag_refs: u64,
    interner_keys: u64,
    passes: u64,
}

impl EngineTotals {
    fn add(&mut self, o: &EngineTotals) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.dag_nodes += o.dag_nodes;
        self.dag_refs += o.dag_refs;
        self.interner_keys += o.interner_keys;
        self.passes += o.passes;
    }
}

/// What one thread did in one phase.
struct Worker {
    latency: LatencyLog,
    spans: Vec<Span>,
    totals: EngineTotals,
    checks: Checks,
}

/// Runs passes `first_pass`, `first_pass + THREADS`, ... until `end`.
fn worker(
    lattice: &TreeLattice,
    twigs: &[Twig],
    expected: &[[u64; 4]],
    start: Instant,
    end: Instant,
    mut tr: Tracer,
    first_pass: usize,
) -> Worker {
    let opts = EstimateOptions::default();
    let mut w = Worker {
        latency: LatencyLog::new(),
        spans: Vec::new(),
        totals: EngineTotals::default(),
        checks: Checks::default(),
    };
    let mut pass = first_pass;
    while Instant::now() < end {
        let engine = EstimationEngine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        for (i, twig) in twigs.iter().enumerate() {
            let est_i = (i + pass) % Estimator::ALL.len();
            let est = Estimator::ALL[est_i];
            let id = (pass as u64) << 32 | i as u64;
            let t0 = Instant::now();
            let r = tr.span("engine.resilient", ROOT, id, |_, _| {
                engine.estimate_resilient(lattice, twig, est, &opts)
            });
            let done = Instant::now();
            let ok = matches!(&r, Ok(e) if !e.degradation.is_degraded() && e.value.to_bits() == expected[i][est_i]);
            w.checks.check(ok, || {
                format!(
                    "query {i} under {}: {r:?}, expected bits {}",
                    est.name(),
                    expected[i][est_i]
                )
            });
            w.latency.record(
                (done - start).as_nanos() as u64,
                (done - t0).as_nanos() as u64,
            );
        }
        let s = engine.stats();
        w.totals.add(&EngineTotals {
            hits: s.hits,
            misses: s.misses,
            dag_nodes: s.dag_nodes,
            dag_refs: s.dag_refs,
            interner_keys: s.interner_keys as u64,
            passes: 1,
        });
        pass += THREADS;
    }
    w.spans = tr.into_spans();
    w
}

struct PhaseOut {
    workers: Vec<Worker>,
    wall_ns: u64,
}

impl PhaseOut {
    fn summary(&self) -> stats::Summary {
        let logs: Vec<&LatencyLog> = self.workers.iter().map(|w| &w.latency).collect();
        stats::summarize(&logs, self.wall_ns)
    }
}

fn phase(
    ctx: &Ctx,
    lattice: &TreeLattice,
    twigs: &[Twig],
    expected: &[[u64; 4]],
    seconds: f64,
    traced: bool,
    first_pass: usize,
) -> PhaseOut {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let workers = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let tr = Tracer::new(traced, ctx.epoch);
                scope
                    .spawn(move || worker(lattice, twigs, expected, start, end, tr, first_pass + t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("estimation thread"))
            .collect()
    });
    PhaseOut {
        workers,
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (elements, per_size, setup_reps) = if ctx.short {
        (4_000, 8, 1)
    } else {
        (50_000, 1000, 9)
    };
    let mut out = Outcome::default();
    let mut setup_tr = Tracer::new(ctx.trace, ctx.epoch);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..setup_reps {
        let t0 = Instant::now();
        let f = fixture::build(
            ctx.seed,
            elements,
            K,
            &ctx.dir,
            &mut setup_tr,
            &mut out.checks,
        );
        let pool = setup_tr.span("workload.pool", ROOT, 0, |_, _| {
            fixture::pool(&f.doc, &f.lattice, 5..=9, per_size, ctx.seed)
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((f, pool));
    }
    let (f, pool) = built.expect("at least one set-up");
    out.named.set("setup.peak_rss_mb", stats::peak_rss_mb());
    let lattice = &f.lattice;
    let twigs: Vec<Twig> = pool
        .iter()
        .map(|q| lattice.parse_query(&q.text).expect("pool queries parse"))
        .collect();
    // Uncached reference answers, one per (query, estimator).
    let reference: Vec<[f64; 4]> = twigs
        .iter()
        .map(|t| {
            Estimator::ALL.map(|est| lattice.estimate_with(t, est, &EstimateOptions::default()))
        })
        .collect();
    let mut expected: Vec<[u64; 4]> = reference.iter().map(|r| r.map(f64::to_bits)).collect();
    if ctx.perturb {
        expected[0] = expected[0].map(|b| b ^ 1);
    }

    let plain_secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = phase(ctx, lattice, &twigs, &expected, plain_secs, false, 0);
    let e2e = plain.summary();
    out.windows = e2e.windows_json();
    out.e2e.set("setup_s", stats::median_f64(&setup_s));
    out.e2e.set("p50_us", e2e.p50_us);
    out.e2e.set("p99_us", e2e.p99_us);
    out.e2e.set("ops_per_s", e2e.ops_per_s);
    out.e2e.set("summary_bytes", f.summary_bytes as f64);
    let (qerr, qerr_gmean) = fixture::qerr_means(
        pool.iter()
            .zip(&reference)
            .flat_map(|(q, r)| r.map(|v| (q.truth, v))),
    );
    out.e2e.set("qerr_gmean", qerr_gmean);
    out.named.set("estimate.qps", e2e.ops_per_s);
    out.named.set("estimate.p50_us", e2e.p50_us);
    out.named.set("estimate.p99_us", e2e.p99_us);
    out.named.set("estimate.qerr_mean", qerr);
    out.named.set("estimate.samples", e2e.samples as f64);
    out.named.set("windows", e2e.windows as f64);

    // Passes of the traced phase continue the rotation where any plain
    // pass could have left it.
    let traced = ctx.trace.then(|| {
        phase(
            ctx,
            lattice,
            &twigs,
            &expected,
            ctx.seconds / 2.0,
            true,
            1 << 20,
        )
    });
    let mut totals = EngineTotals::default();
    let mut spans = Vec::new();
    for w in plain.workers {
        totals.add(&w.totals);
        out.checks.absorb(w.checks);
        spans.push(w.spans);
    }
    if let Some(traced) = traced {
        let traced_sum = traced.summary();
        let mut traced_spans = Vec::new();
        for w in traced.workers {
            totals.add(&w.totals);
            out.checks.absorb(w.checks);
            traced_spans.push(w.spans);
        }
        let traced_spans = trace::merge(traced_spans);
        out.layers.set(
            "trace.overhead_pct",
            (traced_sum.p50_us / e2e.p50_us - 1.0) * 100.0,
        );
        let by = trace::by_name(&traced_spans);
        let engine = by.get("engine.resilient").cloned().unwrap_or_default();
        out.layers.set("engine.resilient_p50_ns", engine.p50_ns);
        out.layers.set("engine.resilient_p99_ns", engine.p99_ns);
        out.layers
            .set("unattributed_us", traced_sum.p50_us - engine.p50_ns / 1e3);
        let lookups = (totals.hits + totals.misses).max(1);
        out.layers
            .set("engine.hit_ratio", totals.hits as f64 / lookups as f64);
        out.layers.set(
            "engine.dag_dedup_ratio",
            totals.dag_refs as f64 / totals.dag_nodes.max(1) as f64,
        );
        out.layers.set(
            "engine.interner_keys",
            totals.interner_keys as f64 / totals.passes.max(1) as f64,
        );

        let setup_spans = setup_tr.into_spans();
        fixture::setup_layers(&setup_spans, f.xml_bytes, f.kept_ratio, &mut out.layers);
        let replayed = replay_layers(ctx, lattice, &pool, traced_sum.samples as usize, &mut out);
        spans.extend([traced_spans, setup_spans, replayed]);
    }
    out.spans = trace::merge(spans);
    out.params = vec![
        ("dataset".into(), Json::Str("imdb".into())),
        ("elements".into(), Json::UInt(elements as u64)),
        ("k".into(), Json::UInt(K as u64)),
        ("pool_queries".into(), Json::UInt(pool.len() as u64)),
        ("query_sizes".into(), Json::Str("5-9".into())),
        ("threads".into(), Json::UInt(THREADS as u64)),
        ("engine_threads".into(), Json::UInt(1)),
        ("budget".into(), Json::Str("unlimited".into())),
        ("setup_reps".into(), Json::UInt(setup_reps as u64)),
    ];
    out
}

/// The pool's queries as the single-estimate requests a client would
/// send, through the wire and twig layers (the timed loop traced the
/// engine itself), and the pool's true counts as feedback updates.
fn replay_layers(
    ctx: &Ctx,
    lattice: &TreeLattice,
    pool: &[Query],
    queries: usize,
    out: &mut Outcome,
) -> Vec<Span> {
    let reads: Vec<Read> = (0..queries.clamp(1, REPLAY_READS))
        .map(|i| Read {
            estimator: Estimator::ALL[i % Estimator::ALL.len()],
            queries: vec![(i % pool.len()) as u16],
            batch: false,
        })
        .collect();
    let updates = replay::feedback_updates(lattice, pool, K);
    // No engine in the replay: the timed loop traced it.
    let stream = Stream {
        lattice,
        pool,
        reads: &reads,
        engine: None,
        updates: &updates,
    };
    replay::run(
        &stream,
        &ctx.dir.join("replica"),
        ctx.epoch,
        &mut out.checks,
        &mut out.layers,
    )
}
