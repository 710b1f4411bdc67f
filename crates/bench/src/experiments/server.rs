//! Closed-loop server soak (`bench_server`).
//!
//! Boots a real `tl-server` (in-process, ephemeral loopback port) over a
//! deterministic XMark summary, then drives it with closed-loop client
//! threads across four tenants of mixed weights — one of them under a
//! zero-millisecond deadline budget so the degradation ladder fires under
//! load — until at least [`ServerBenchConfig::requests`] wire requests
//! have completed. Every exact (non-degraded) estimate is compared
//! bit-for-bit against the in-process engine on the same query; any
//! transport-level error that is not a typed [`tl_fault::Fault`] counts as
//! an *untyped error* and fails the gate. Client-observed latencies are
//! recorded per request and reported as p50/p95/p99 in
//! `BENCH_server.json` (the `tl-metrics/1` snapshot schema, so
//! `treelattice metrics report BENCH_server.json` renders it like any
//! other snapshot).
//!
//! The op mix is ~85% single estimates, ~10% four-query batches, ~5%
//! truth lookups. Updates are deliberately absent from the soak: the
//! bit-identity contract compares against a frozen store, and the
//! update path has its own end-to-end coverage in the server crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use tl_datagen::{Dataset, GenConfig};
use tl_server::{serve, BudgetSpec, Client, ClientError, ServerConfig, TenantSpec};
use tl_workload::positive_workload;
use treelattice::{BuildConfig, Estimator, TreeLattice};

use crate::Table;

/// Shape of the generated fixture and soak.
#[derive(Clone, Copy, Debug)]
pub struct ServerBenchConfig {
    /// Target elements in the generated XMark document.
    pub scale: usize,
    /// Seed for document generation, workload sampling, and the op mix.
    pub seed: u64,
    /// Summary order.
    pub k: usize,
    /// Minimum wire requests to complete before the drivers stop.
    pub requests: u64,
    /// Closed-loop connections per unlimited tenant (the budgeted tenant
    /// always gets exactly one).
    pub conns_per_tenant: usize,
    /// Server worker threads.
    pub workers: usize,
}

/// The fixed full-scale configuration `bench_server` and the server gate
/// run with: a one-million-request soak across four tenants. Changing it
/// invalidates `tests/gates/server.json`; regenerate with
/// `gates --only server --write-thresholds`.
pub fn bench_config() -> ServerBenchConfig {
    ServerBenchConfig {
        scale: 6_000,
        seed: 42,
        k: 4,
        requests: 1_000_000,
        conns_per_tenant: 2,
        workers: 4,
    }
}

/// What one driver thread observed.
#[derive(Default)]
struct DriverTally {
    requests: u64,
    queries: u64,
    degraded: u64,
    faults: u64,
    untyped_errors: u64,
    identity_checked: u64,
    identity_mismatches: u64,
    latency_us: Vec<u64>,
}

/// The full soak measurement.
#[derive(Clone, Debug)]
pub struct ServerBench {
    /// Configuration echo.
    pub cfg: ServerBenchConfig,
    /// Tenant names driven (the gate enforces a minimum count).
    pub tenants: Vec<String>,
    /// Wire requests completed across all drivers.
    pub requests: u64,
    /// Individual queries served (batch items counted one each).
    pub queries: u64,
    /// Soak wall time, seconds.
    pub wall_s: f64,
    /// Completed wire requests per second.
    pub throughput_rps: f64,
    /// Client-observed latency percentiles, microseconds.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// `server.requests.shed` from the post-soak scrape.
    pub shed: u64,
    /// Responses carrying a `Degradation` tag (budgeted-tenant traffic
    /// plus any overload sheds).
    pub degraded: u64,
    /// Typed fault responses (allowed — they are typed).
    pub faults: u64,
    /// Transport errors that were *not* a typed fault. The server's
    /// contract is that this is zero; the gate fails otherwise.
    pub untyped_errors: u64,
    /// Exact responses compared bit-for-bit against the in-process engine.
    pub identity_checked: u64,
    /// Comparisons that differed (the gate requires zero).
    pub identity_mismatches: u64,
    /// `shed / requests`.
    pub shed_rate: f64,
}

/// The four-tenant topology every soak runs: three unlimited tenants at
/// weights 4:2:1 plus one tenant pinned to an already-expired deadline so
/// a steady fraction of traffic exercises the degradation ladder.
fn tenant_specs() -> Vec<TenantSpec> {
    let mut strict = TenantSpec::new("strict", 1, 64);
    strict.budget = Some(BudgetSpec {
        time_limit_ms: Some(0),
        ..BudgetSpec::default()
    });
    vec![
        TenantSpec::new("gold", 4, 512),
        TenantSpec::new("silver", 2, 256),
        TenantSpec::new("bronze", 1, 64),
        strict,
    ]
}

/// Builds the deterministic query pool: positive workloads of sizes 2–4
/// rendered back to query-string form (skipping the rare twig whose
/// string form does not reparse), plus one never-matching label.
fn query_pool(
    lattice: &TreeLattice,
    doc: &tl_xml::Document,
    cfg: &ServerBenchConfig,
) -> Vec<String> {
    let mut queries = Vec::new();
    for size in [2usize, 3, 4] {
        let w = positive_workload(doc, size, 24, cfg.seed.wrapping_add(size as u64));
        for case in w.cases {
            let q = case.twig.to_query_string(lattice.labels());
            if lattice.parse_query(&q).is_ok() {
                queries.push(q);
            }
        }
    }
    queries.push("bench_no_such_label".to_string());
    assert!(queries.len() > 8, "server bench query pool is too small");
    queries
}

/// Expected exact-path bits for every (estimator, query) pair, computed
/// by reparsing the query string exactly as the server will.
fn expected_bits(lattice: &TreeLattice, queries: &[String]) -> Vec<Vec<u64>> {
    Estimator::ALL
        .iter()
        .map(|&est| {
            queries
                .iter()
                .map(|q| {
                    let twig = lattice.parse_query(q).expect("pool queries reparse");
                    lattice.estimate(&twig, est).to_bits()
                })
                .collect()
        })
        .collect()
}

fn driver_loop(
    addr: &str,
    tenant: &str,
    seed: u64,
    counter: &AtomicU64,
    target: u64,
    queries: &[String],
    expected: &[Vec<u64>],
) -> DriverTally {
    let mut tally = DriverTally::default();
    let mut client = match Client::connect(addr, tenant) {
        Ok(c) => c,
        Err(_) => {
            tally.untyped_errors += 1;
            return tally;
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        if counter.fetch_add(1, Ordering::Relaxed) >= target {
            break;
        }
        let est_idx = rng.gen_range(0..Estimator::ALL.len());
        let est = Estimator::ALL[est_idx];
        let qi = rng.gen_range(0..queries.len());
        let op = rng.gen_range(0..100u32);
        let t0 = Instant::now();
        if op < 85 {
            match client.estimate(est, &queries[qi]) {
                Ok(e) => {
                    tally.queries += 1;
                    if e.degradation.is_degraded() {
                        tally.degraded += 1;
                    } else {
                        tally.identity_checked += 1;
                        if e.value.to_bits() != expected[est_idx][qi] {
                            tally.identity_mismatches += 1;
                        }
                    }
                }
                Err(ClientError::Protocol(_)) => tally.faults += 1,
                Err(_) => tally.untyped_errors += 1,
            }
        } else if op < 95 {
            let batch: Vec<String> = (0..4)
                .map(|_| queries[rng.gen_range(0..queries.len())].clone())
                .collect();
            match client.estimate_batch(est, &batch) {
                Ok(items) => {
                    for item in items {
                        tally.queries += 1;
                        match item {
                            Ok(e) if e.degradation.is_degraded() => tally.degraded += 1,
                            Ok(_) => tally.identity_checked += 1,
                            Err(_) => tally.faults += 1,
                        }
                    }
                }
                Err(ClientError::Protocol(_)) => tally.faults += 1,
                Err(_) => tally.untyped_errors += 1,
            }
        } else {
            match client.truth(&queries[qi]) {
                Ok(_) => {}
                Err(ClientError::Protocol(_)) => tally.faults += 1,
                Err(_) => tally.untyped_errors += 1,
            }
        }
        tally.latency_us.push(t0.elapsed().as_micros() as u64);
        tally.requests += 1;
    }
    tally
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// Runs the soak without printing or writing.
pub fn build(cfg: &ServerBenchConfig) -> ServerBench {
    let doc = Dataset::Xmark.generate(GenConfig {
        seed: cfg.seed,
        target_elements: cfg.scale,
    });
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(cfg.k));
    let queries = Arc::new(query_pool(&lattice, &doc, cfg));
    let expected = Arc::new(expected_bits(&lattice, &queries));

    let dir = std::env::temp_dir().join(format!("tl-bench-server-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench temp dir");
    let path = dir.join("soak.tlat");
    std::fs::write(&path, lattice.to_bytes()).expect("write summary frame");

    let mut config = ServerConfig::new(&path);
    config.workers = cfg.workers;
    config.tenants = tenant_specs();
    let tenants: Vec<String> = config
        .tenants
        .iter()
        .map(|t| t.config.name.clone())
        .collect();
    let handle = serve(config).expect("serve soak fixture");
    let addr = handle.addr().to_string();

    // Closed-loop drivers: `conns_per_tenant` per unlimited tenant, one
    // for the budgeted tenant (its answers are always degraded, so it
    // only needs to keep the ladder warm, not dominate the mix).
    let counter = Arc::new(AtomicU64::new(0));
    let target = cfg.requests;
    let mut drivers = Vec::new();
    let mut thread_seed = cfg.seed;
    let t0 = Instant::now();
    for tenant in &tenants {
        let conns = if tenant == "strict" {
            1
        } else {
            cfg.conns_per_tenant.max(1)
        };
        for _ in 0..conns {
            thread_seed = thread_seed.wrapping_add(1);
            let addr = addr.clone();
            let tenant = tenant.clone();
            let counter = counter.clone();
            let queries = queries.clone();
            let expected = expected.clone();
            let seed = thread_seed;
            drivers.push(std::thread::spawn(move || {
                driver_loop(&addr, &tenant, seed, &counter, target, &queries, &expected)
            }));
        }
    }
    let tallies: Vec<DriverTally> = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();

    let shed = {
        let mut client = Client::connect(&addr, "gold").expect("scrape connection");
        let snap = tl_obs::Snapshot::from_json(&client.scrape().expect("scrape"))
            .expect("scrape is a tl-metrics/1 snapshot");
        snap.counters
            .get(tl_obs::names::SERVER_SHED)
            .copied()
            .unwrap_or(0)
    };
    handle.shutdown().expect("server drain");
    std::fs::remove_dir_all(&dir).ok();

    let mut latency_us: Vec<u64> = Vec::new();
    let mut requests = 0u64;
    let mut queries_served = 0u64;
    let mut degraded = 0u64;
    let mut faults = 0u64;
    let mut untyped_errors = 0u64;
    let mut identity_checked = 0u64;
    let mut identity_mismatches = 0u64;
    for t in tallies {
        requests += t.requests;
        queries_served += t.queries;
        degraded += t.degraded;
        faults += t.faults;
        untyped_errors += t.untyped_errors;
        identity_checked += t.identity_checked;
        identity_mismatches += t.identity_mismatches;
        latency_us.extend(t.latency_us);
    }
    latency_us.sort_unstable();

    ServerBench {
        cfg: *cfg,
        tenants,
        requests,
        queries: queries_served,
        wall_s,
        throughput_rps: requests as f64 / wall_s.max(1e-9),
        p50_us: percentile(&latency_us, 0.50),
        p95_us: percentile(&latency_us, 0.95),
        p99_us: percentile(&latency_us, 0.99),
        shed,
        degraded,
        faults,
        untyped_errors,
        identity_checked,
        identity_mismatches,
        shed_rate: shed as f64 / (requests as f64).max(1.0),
    }
}

/// Renders the result as a `tl-metrics/1` snapshot.
pub fn to_snapshot(b: &ServerBench) -> tl_obs::Snapshot {
    let mut snap = tl_obs::Snapshot::default();
    snap.meta.insert("bench".into(), "server".into());
    snap.meta.insert("dataset".into(), "xmark".into());
    snap.meta.insert("scale".into(), b.cfg.scale.to_string());
    snap.meta.insert("seed".into(), b.cfg.seed.to_string());
    snap.meta.insert("k".into(), b.cfg.k.to_string());
    snap.meta
        .insert("workers".into(), b.cfg.workers.to_string());
    snap.meta.insert("tenants".into(), b.tenants.join(","));
    snap.gauges.insert("bench.server.wall_s".into(), b.wall_s);
    snap.gauges
        .insert("bench.server.throughput_rps".into(), b.throughput_rps);
    snap.gauges.insert("bench.server.p50_us".into(), b.p50_us);
    snap.gauges.insert("bench.server.p95_us".into(), b.p95_us);
    snap.gauges.insert("bench.server.p99_us".into(), b.p99_us);
    snap.gauges
        .insert("bench.server.shed_rate".into(), b.shed_rate);
    snap.counters
        .insert("bench.server.requests".into(), b.requests);
    snap.counters
        .insert("bench.server.queries".into(), b.queries);
    snap.counters
        .insert("bench.server.tenant_count".into(), b.tenants.len() as u64);
    snap.counters.insert("bench.server.shed".into(), b.shed);
    snap.counters
        .insert("bench.server.degraded".into(), b.degraded);
    snap.counters.insert("bench.server.faults".into(), b.faults);
    snap.counters
        .insert("bench.server.untyped_errors".into(), b.untyped_errors);
    snap.counters
        .insert("bench.server.identity_checked".into(), b.identity_checked);
    snap.counters.insert(
        "bench.server.identity_mismatches".into(),
        b.identity_mismatches,
    );
    snap
}

/// [`to_snapshot`] serialized as JSON.
pub fn to_json(b: &ServerBench) -> String {
    to_snapshot(b).to_json()
}

/// Runs, prints, and writes `BENCH_server.json`.
pub fn run(cfg: &ServerBenchConfig) -> ServerBench {
    let b = build(cfg);
    let mut t = Table::new(
        "Server soak: closed-loop mixed-tenant load",
        &[
            "Requests",
            "Wall",
            "Throughput",
            "p50",
            "p95",
            "p99",
            "Shed",
        ],
    );
    t.row(vec![
        b.requests.to_string(),
        format!("{:.1}s", b.wall_s),
        format!("{:.0}/s", b.throughput_rps),
        format!("{:.0}us", b.p50_us),
        format!("{:.0}us", b.p95_us),
        format!("{:.0}us", b.p99_us),
        format!("{:.4}", b.shed_rate),
    ]);
    t.print();
    println!(
        "tenants: {} | {} queries served | degraded {} | typed faults {} | untyped errors {} | identity {}/{} exact responses matched",
        b.tenants.join(","),
        b.queries,
        b.degraded,
        b.faults,
        b.untyped_errors,
        b.identity_checked - b.identity_mismatches,
        b.identity_checked,
    );
    let path = crate::workspace_root().join("BENCH_server.json");
    match std::fs::write(&path, to_json(&b)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_is_clean_and_well_formed() {
        let cfg = ServerBenchConfig {
            scale: 1_200,
            seed: 7,
            k: 3,
            requests: 2_000,
            conns_per_tenant: 1,
            workers: 2,
        };
        let b = build(&cfg);
        assert!(b.requests >= cfg.requests);
        assert!(b.queries >= b.requests / 2, "batches add queries");
        assert_eq!(b.untyped_errors, 0, "every error must be typed");
        assert_eq!(b.identity_mismatches, 0, "exact responses match engine");
        assert!(b.identity_checked > 0);
        assert!(b.degraded > 0, "the strict tenant degrades under budget");
        assert!(b.tenants.len() >= 3);
        assert!(b.p50_us <= b.p95_us && b.p95_us <= b.p99_us);
        let snap = to_snapshot(&b);
        let parsed = tl_obs::Snapshot::from_json(&to_json(&b)).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(snap.counters["bench.server.untyped_errors"], 0);
        assert!(snap.gauges.contains_key("bench.server.p99_us"));
    }
}
