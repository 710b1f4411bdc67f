//! Per-layer attribution by replay: after the timed run, the workload's
//! request stream goes once more through the same public functions the
//! server calls, each call inside its own span.
//!
//! Reads take the server's path: request encode → frame write → frame
//! read → `Request::decode` → `parse_twig` (with the cloned label table
//! the server parses against) → `key_of` → `estimate_resilient` →
//! `Response::encode` → frame → `Response::decode`. Updates take the same
//! wire hops around `DurableLattice::apply` on a replica in its own
//! directory under the served policy, and a second replica times
//! `TunedLattice::observe` alone.

use std::path::Path;
use std::time::Instant;

use tl_obs::{names, MetricsRecorder, NOOP};
use tl_server::protocol::{read_frame, write_frame};
use tl_server::{FairQueue, Request, Response, TenantConfig, WireEstimate};
use tl_twig::canonical::key_of;
use tl_twig::parse_twig;
use treelattice::{
    recover, DurabilityPolicy, DurableLattice, DurableOptions, EstimateOptions, EstimationEngine,
    Estimator, TreeLattice, TunedLattice,
};

use crate::fixture::Query;
use crate::report::{Checks, Named};
use crate::stats::{median_f64, percentile};
use crate::trace::{self, Span, Tracer, ROOT};

/// One logged read: the estimator and the pool queries it asked for
/// (one for a single estimate, more for a batch).
#[derive(Clone, Debug)]
pub struct Read {
    pub estimator: Estimator,
    pub queries: Vec<u16>,
    pub batch: bool,
}

/// One logged acknowledged update: the pool query and its idempotency key.
#[derive(Clone, Copy, Debug)]
pub struct Update {
    pub query: u16,
    pub idem: u64,
}

pub const TENANT: &str = "replay";
const ONLINE_BUDGET: usize = 1 << 20;
/// The served write policy, which the update replicas run under too.
pub const POLICY: DurabilityPolicy = DurabilityPolicy::Strict;
pub const SNAPSHOT_EVERY: u64 = 256;
/// Updates replayed per traced run.
pub const REPLAY_UPDATES: usize = 512;
/// Request ids of replayed updates start here, clear of replayed reads.
const FIRST_UPDATE_ID: u64 = 1 << 50;

/// A workload's stream as the replay takes it.
pub struct Stream<'a> {
    pub lattice: &'a TreeLattice,
    pub pool: &'a [Query],
    pub reads: &'a [Read],
    /// Runs the estimate inside the replayed reads; `None` where the
    /// workload's own timed loop already traced the engine.
    pub engine: Option<&'a EstimationEngine>,
    pub updates: &'a [Update],
}

/// Replays `stream`'s reads and updates, sets every per-layer metric the
/// replay measures, and returns its spans. Replica files go to `dir`.
pub fn run(
    stream: &Stream,
    dir: &Path,
    epoch: Instant,
    checks: &mut Checks,
    layers: &mut Named,
) -> Vec<Span> {
    let read_spans = reads(stream, epoch, checks, layers);
    let update_spans = updates(stream, dir, epoch, checks, layers);
    let spans = trace::merge(vec![read_spans, update_spans]);
    layer_metrics(&spans, layers);
    layers.set("queue.op_ns", queue_op_ns());
    spans
}

fn read_request(r: &Read, pool: &[Query]) -> Request {
    let text = |q: u16| pool[q as usize].text.clone();
    if r.batch {
        Request::EstimateBatch {
            tenant: TENANT.into(),
            estimator: r.estimator,
            queries: r.queries.iter().map(|&q| text(q)).collect(),
        }
    } else {
        Request::Estimate {
            tenant: TENANT.into(),
            estimator: r.estimator,
            query: text(r.queries[0]),
        }
    }
}

/// Frames `body`, reads the frame back, and returns the read body.
fn wire_hop(tr: &mut Tracer, parent: u32, id: u64, body: &[u8]) -> Option<Vec<u8>> {
    let mut wire = Vec::with_capacity(body.len() + 12);
    tr.span("protocol.frame", parent, id, |_, _| {
        write_frame(&mut wire, body).expect("framing into memory cannot fail")
    });
    tr.span("protocol.frame", parent, id, |_, _| {
        read_frame(&mut wire.as_slice()).ok()
    })
}

/// The feedback a query optimizer would send after running the pool:
/// [`REPLAY_UPDATES`] updates cycling through the pool queries above the
/// summary order `k`, idempotency keys from 1.
pub fn feedback_updates(lattice: &TreeLattice, pool: &[Query], k: usize) -> Vec<Update> {
    let above = crate::fixture::above_order(lattice, pool, k);
    (0..REPLAY_UPDATES)
        .map(|i| Update {
            query: above[i % above.len()] as u16,
            idem: i as u64 + 1,
        })
        .collect()
}

/// Replays the stream's reads through the server's read path, and sets
/// the mean request and response frame sizes.
fn reads(stream: &Stream, epoch: Instant, checks: &mut Checks, layers: &mut Named) -> Vec<Span> {
    let Stream {
        lattice,
        pool,
        reads,
        engine,
        ..
    } = *stream;
    let mut tr = Tracer::new(true, epoch);
    let opts = EstimateOptions::default();
    let (mut req_bytes, mut resp_bytes) = (0usize, 0usize);
    for (i, r) in reads.iter().enumerate() {
        let id = i as u64;
        let request = read_request(r, pool);
        tr.span("replay.read", ROOT, id, |tr, p| {
            let body = tr.span("protocol.encode", p, id, |_, _| request.encode());
            req_bytes += body.len() + 12;
            let decoded = wire_hop(tr, p, id, &body)
                .and_then(|b| tr.span("protocol.decode", p, id, |_, _| Request::decode(&b).ok()));
            checks.check(decoded.as_ref() == Some(&request), || {
                format!("replayed request {i} does not round-trip")
            });
            let queries: Vec<&str> = match &decoded {
                Some(Request::Estimate { query, .. }) => vec![query.as_str()],
                Some(Request::EstimateBatch { queries, .. }) => {
                    queries.iter().map(String::as_str).collect()
                }
                _ => Vec::new(),
            };
            let mut items = Vec::with_capacity(queries.len());
            for q in queries {
                let twig = tr.span("twig.parse", p, id, |_, _| {
                    let mut labels = lattice.labels().clone();
                    parse_twig(q, &mut labels)
                });
                let Ok(twig) = twig else {
                    checks.check(false, || format!("replayed query `{q}` does not parse"));
                    continue;
                };
                tr.span("twig.canon", p, id, |_, _| {
                    std::hint::black_box(key_of(&twig))
                });
                let value = match engine {
                    Some(engine) => tr.span("engine.resilient", p, id, |_, _| {
                        engine
                            .estimate_resilient(lattice, &twig, r.estimator, &opts)
                            .map(|e| e.value)
                    }),
                    None => Ok(lattice.estimate(&twig, r.estimator)),
                };
                checks.check(value.is_ok(), || format!("replayed `{q}` faulted"));
                items.push(Ok(WireEstimate::exact(value.unwrap_or(0.0))));
            }
            let response = if r.batch {
                Response::Batch(items)
            } else {
                match items.pop() {
                    Some(Ok(e)) => Response::Estimate(e),
                    _ => Response::Estimate(WireEstimate::exact(0.0)),
                }
            };
            let body = tr.span("protocol.encode", p, id, |_, _| response.encode());
            resp_bytes += body.len() + 12;
            let back = wire_hop(tr, p, id, &body)
                .and_then(|b| tr.span("protocol.decode", p, id, |_, _| Response::decode(&b).ok()));
            checks.check(back.as_ref() == Some(&response), || {
                format!("replayed response {i} does not round-trip")
            });
        });
    }
    let n = reads.len().max(1) as f64;
    layers.set("protocol.req_bytes", req_bytes as f64 / n);
    layers.set("protocol.resp_bytes", resp_bytes as f64 / n);
    tr.into_spans()
}

/// Replays the stream's updates through the wire hops around
/// `DurableLattice::apply` on a fresh replica in `dir`, then recovers the
/// replica's directory; a second replica times `TunedLattice::observe`
/// alone.
fn updates(
    stream: &Stream,
    dir: &Path,
    epoch: Instant,
    checks: &mut Checks,
    layers: &mut Named,
) -> Vec<Span> {
    let Stream {
        lattice,
        pool,
        updates,
        ..
    } = *stream;
    let first_id = FIRST_UPDATE_ID;
    let mut tr = Tracer::new(true, epoch);
    let rec = MetricsRecorder::new();
    let opts = DurableOptions {
        online_budget: ONLINE_BUDGET,
        policy: POLICY,
        snapshot_every: SNAPSHOT_EVERY,
        ..DurableOptions::default()
    };
    let mut labels = lattice.labels().clone();
    let twigs: Vec<_> = updates
        .iter()
        .map(|u| parse_twig(&pool[u.query as usize].text, &mut labels).expect("pool queries parse"))
        .collect();

    // Ids: one per replayed update, then the recovery, then the observes.
    let observe_id = first_id + updates.len() as u64 + 1;
    let mut tuned = TunedLattice::new(lattice.clone(), ONLINE_BUDGET);
    for (i, (u, twig)) in updates.iter().zip(&twigs).enumerate() {
        let truth = pool[u.query as usize].truth;
        tr.span("online.observe", ROOT, observe_id + i as u64, |_, _| {
            tuned.observe(twig, truth)
        });
    }

    let (mut durable, _) =
        DurableLattice::open(dir, Some(lattice), &opts, &rec).expect("open the replica WAL");
    for (i, u) in updates.iter().enumerate() {
        let id = first_id + i as u64;
        let q = &pool[u.query as usize];
        let request = Request::Update {
            tenant: TENANT.into(),
            query: q.text.clone(),
            true_count: q.truth,
            idem: u.idem,
        };
        tr.span("replay.update", ROOT, id, |tr, p| {
            let body = tr.span("protocol.encode", p, id, |_, _| request.encode());
            let decoded = wire_hop(tr, p, id, &body)
                .and_then(|b| tr.span("protocol.decode", p, id, |_, _| Request::decode(&b).ok()));
            let Some(Request::Update {
                query,
                true_count,
                idem,
                ..
            }) = decoded
            else {
                checks.check(false, || format!("replayed update {i} does not round-trip"));
                return;
            };
            let twig = tr.span("twig.parse", p, id, |_, _| {
                let mut labels = lattice.labels().clone();
                parse_twig(&query, &mut labels).expect("pool queries parse")
            });
            tr.span("twig.canon", p, id, |_, _| {
                std::hint::black_box(key_of(&twig))
            });
            let applied = tr.span("wal.apply", p, id, |_, _| {
                durable.apply(&twig, true_count, idem, &rec)
            });
            checks.check(applied.is_ok(), || format!("replica apply {i} failed"));
            let response = Response::Updated {
                generation: applied.map_or(0, |a| a.generation),
            };
            let body = tr.span("protocol.encode", p, id, |_, _| response.encode());
            let back = wire_hop(tr, p, id, &body)
                .and_then(|b| tr.span("protocol.decode", p, id, |_, _| Response::decode(&b).ok()));
            checks.check(back == Some(response), || {
                format!("replayed update response {i} does not round-trip")
            });
        });
    }
    let last_seq = durable.last_seq();
    drop(durable);
    let recovered = tr.span(
        "wal.recover",
        ROOT,
        first_id + updates.len() as u64,
        |_, _| recover(dir, Some(lattice), &opts, &NOOP),
    );
    checks.check(
        recovered.is_ok_and(|r| r.report.last_seq == last_seq),
        || "replica WAL does not recover to its last sequence".into(),
    );

    let counters = rec.snapshot().counters;
    let per_update =
        |name: &str| counters.get(name).copied().unwrap_or(0) as f64 / updates.len().max(1) as f64;
    layers.set("wal.fsyncs_per_update", per_update(names::WAL_FSYNCS));
    layers.set("wal.bytes_per_update", per_update(names::WAL_APPEND_BYTES));
    layers.set(
        "snapshot.bytes_per_update",
        per_update(names::SNAPSHOT_BYTES),
    );
    tr.into_spans()
}

/// `queue.op_ns`: one uncontended `FairQueue::enqueue` plus `dequeue`,
/// the median over rounds of the mean per pair.
fn queue_op_ns() -> f64 {
    let q: FairQueue<u64> = FairQueue::new(&[
        TenantConfig::new("a", 2, 4096),
        TenantConfig::new("b", 1, 4096),
    ]);
    let rounds: Vec<f64> = (0..25)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..2000u64 {
                q.enqueue((i % 2) as usize, i).expect("lane has room");
                std::hint::black_box(q.dequeue());
            }
            t0.elapsed().as_nanos() as f64 / 2000.0
        })
        .collect();
    median_f64(&rounds)
}

/// Per-layer figures from the replay spans: per-read sums of each wire
/// and twig layer's self time (median over replayed reads), and per-call
/// figures of the engine, observe, apply and recover spans.
fn layer_metrics(spans: &[Span], layers: &mut Named) {
    for (metric, name) in [
        ("protocol.encode_ns", "protocol.encode"),
        ("protocol.decode_ns", "protocol.decode"),
        ("protocol.frame_ns", "protocol.frame"),
        ("twig.parse_ns", "twig.parse"),
        ("twig.canon_ns", "twig.canon"),
    ] {
        layers.set(metric, path_p50_us(spans, "replay.read", &[name]) * 1e3);
    }
    let by = trace::by_name(spans);
    if let Some(s) = by.get("engine.resilient") {
        layers.set("engine.resilient_p50_ns", s.p50_ns);
        layers.set("engine.resilient_p99_ns", s.p99_ns);
    }
    if let Some(s) = by.get("online.observe") {
        layers.set("online.observe_us", s.mean_ns() / 1e3);
    }
    if let Some(s) = by.get("wal.apply") {
        layers.set("wal.apply_us", s.mean_ns() / 1e3);
    }
    if let Some(s) = by.get("wal.recover") {
        layers.set("wal.recover_ms", s.mean_ns() / 1e6);
    }
}

/// Median per-request sum of the self time of `names`, in microseconds,
/// over the requests whose root span is named `root`.
pub fn path_p50_us(spans: &[Span], root: &str, names: &[&str]) -> f64 {
    let roots: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.parent == ROOT && s.name == root)
        .map(|s| s.request)
        .collect();
    // Keep whole requests, renumbered, so parent ids stay valid.
    let mut remap = vec![ROOT; spans.len()];
    let mut selected = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if roots.contains(&s.request) {
            remap[i] = selected.len() as u32;
            let mut s = s.clone();
            if s.parent != ROOT {
                s.parent = remap[s.parent as usize];
            }
            selected.push(s);
        }
    }
    percentile(&trace::per_request_self(&selected, names), 0.5) / 1e3
}
