//! End-to-end tests: a real server on an ephemeral port, driven through
//! the blocking client.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use tl_fault::{Degradation, FaultKind};
use tl_server::protocol::{read_frame, write_frame};
use tl_server::{
    serve, BudgetSpec, Client, ClientError, Request, Response, ServerConfig, TenantSpec,
};
use tl_xml::{parse_document, ParseOptions};
use treelattice::{
    estimate_catalog, markov_estimate, BuildConfig, Catalog, EstimateOptions, Estimator,
    MmapCatalog, TreeLattice,
};

fn sample_lattice() -> TreeLattice {
    let mut s = String::from("<r>");
    for _ in 0..8 {
        s.push_str("<a><b><c/><d/></b><e/></a><f><a><b/></a></f>");
    }
    s.push_str("</r>");
    let doc = parse_document(s.as_bytes(), ParseOptions::default()).unwrap();
    TreeLattice::build(&doc, &BuildConfig::with_k(3))
}

fn write_summary(lattice: &TreeLattice, name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tl-server-e2e-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, lattice.to_bytes()).unwrap();
    path
}

const QUERIES: &[&str] = &[
    "a",
    "a/b",
    "a/b/c",
    "a[b[c][d]][e]",
    "f/a/b",
    "//a/b",
    "nosuch",
];

#[test]
fn estimates_are_bit_identical_to_in_process_engine() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "bitid.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    for &query in QUERIES {
        let twig = lattice.parse_query(query).unwrap();
        for est in Estimator::ALL {
            let local = lattice.estimate(&twig, est);
            let remote = client.estimate(est, query).unwrap();
            assert_eq!(remote.degradation, Degradation::None, "{est} {query}");
            assert_eq!(
                remote.value.to_bits(),
                local.to_bits(),
                "{est} {query}: server {} vs local {local}",
                remote.value
            );
        }
    }
    handle.shutdown().expect("clean drain");
}

#[test]
fn batch_matches_singles() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "batch.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    let queries: Vec<String> = QUERIES.iter().map(|q| q.to_string()).collect();
    let batch = client
        .estimate_batch(Estimator::RecursiveVoting, &queries)
        .unwrap();
    assert_eq!(batch.len(), queries.len());
    for (q, item) in queries.iter().zip(&batch) {
        let single = client.estimate(Estimator::RecursiveVoting, q).unwrap();
        let item = item.as_ref().unwrap();
        assert_eq!(item.value.to_bits(), single.value.to_bits(), "{q}");
    }
    handle.shutdown().expect("clean drain");
}

#[test]
fn truth_update_and_generation_bump() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "truth.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    // Level-1 patterns are always stored exactly.
    let stored = client.truth("a").unwrap();
    assert_eq!(stored, Some(16), "16 <a> elements in the sample doc");

    // Feed back a truth the summary does not hold; it becomes stored.
    assert_eq!(client.truth("a[b][e]").unwrap().is_some(), {
        use tl_twig::canonical::key_of;
        lattice
            .summary()
            .stored(&key_of(&lattice.parse_query("a[b][e]").unwrap()))
            .is_some()
    });
    let g1 = client.update("a[b][e]", 123).unwrap();
    assert_eq!(client.truth("a[b][e]").unwrap(), Some(123));
    let g2 = client.update("a[b][e]", 124).unwrap();
    assert!(g2 > g1, "each observation bumps the generation");
    assert_eq!(client.truth("a[b][e]").unwrap(), Some(124));
    handle.shutdown().expect("clean drain");
}

#[test]
fn bad_query_is_usage_not_fault() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "usage.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    let err = client.estimate(Estimator::Recursive, "a[[b").unwrap_err();
    match err {
        ClientError::Protocol(fault) => assert_eq!(fault.kind, FaultKind::Parse),
        other => panic!("expected protocol fault, got {other}"),
    }
    // The connection survives a usage error.
    assert!(client.estimate(Estimator::Recursive, "a").is_ok());
    handle.shutdown().expect("clean drain");
}

#[test]
fn drained_server_sheds_with_markov_provenance() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "shed.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    // "a/b/c" is warm before the drain (its repeat would be answered on the
    // connection thread); "a[b][e]" is cold. Both must shed.
    let warm = client
        .estimate(Estimator::RecursiveVoting, "a/b/c")
        .unwrap();
    assert_eq!(warm.degradation, Degradation::None);
    handle.begin_drain();
    for query in ["a/b/c", "a[b][e]"] {
        let est = client.estimate(Estimator::RecursiveVoting, query).unwrap();
        assert_eq!(est.degradation, Degradation::Markov, "{query}");
        let cause = est.cause.expect("shed carries its cause");
        assert_eq!(cause.kind, FaultKind::BudgetExhausted);
        assert!(cause.message.contains("draining"), "{}", cause.message);
        // The shed value is the closed-form Markov product, bit-for-bit.
        let twig = lattice.parse_query(query).unwrap();
        assert_eq!(
            est.value.to_bits(),
            markov_estimate(&lattice, &twig).to_bits(),
            "{query}"
        );
    }

    // Scrape bypasses admission control and still works while draining.
    let snap = tl_obs::Snapshot::from_json(&client.scrape().unwrap()).unwrap();
    assert!(snap.counters["server.requests.shed"] >= 1);
    handle.shutdown().expect("clean drain");
}

#[test]
fn scrape_exposes_server_metrics() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "scrape.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut client = Client::connect(handle.addr(), "ops").unwrap();

    for _ in 0..5 {
        client.estimate(Estimator::Recursive, "a/b").unwrap();
    }
    let snap = tl_obs::Snapshot::from_json(&client.scrape().unwrap()).unwrap();
    assert!(snap.counters["server.requests.accepted"] >= 5);
    assert!(snap.counters["server.connections"] >= 1);
    assert_eq!(snap.counters["server.responses.fault"], 0);
    assert!(snap.histograms["server.latency_us"].count >= 5);
    // Unconfigured tenant names ride the default lane.
    assert!(snap.histograms["server.tenant.default.latency_us"].count >= 5);
    handle.shutdown().expect("clean drain");
}

#[test]
fn mmap_backend_serves_and_refuses_update() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "mmap.tlat");
    let mut config = ServerConfig::new(&path);
    config.mmap = true;
    let handle = serve(config).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    let catalog = MmapCatalog::open(&path).unwrap();
    for &query in QUERIES {
        let mut labels = catalog.labels().clone();
        let twig = tl_twig::parse_twig(query, &mut labels).unwrap();
        let local = estimate_catalog(
            &catalog,
            &twig,
            Estimator::FixSized,
            &EstimateOptions::default(),
        );
        let remote = client.estimate(Estimator::FixSized, query).unwrap();
        assert_eq!(remote.value.to_bits(), local.to_bits(), "{query}");
    }
    assert_eq!(client.truth("a").unwrap(), Some(16));

    match client.update("a/b", 7).unwrap_err() {
        ClientError::Protocol(fault) => {
            assert!(fault.message.contains("mmap"), "{}", fault.message)
        }
        other => panic!("expected typed refusal, got {other}"),
    }
    handle.shutdown().expect("clean drain");
}

#[test]
fn mmap_scrape_reports_mmap_lookup_counter() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "mmap-lookups.tlat");
    let mut config = ServerConfig::new(&path);
    config.mmap = true;
    let handle = serve(config).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    for &query in QUERIES {
        client.estimate(Estimator::Recursive, query).unwrap();
    }
    let snap = tl_obs::Snapshot::from_json(&client.scrape().unwrap()).unwrap();
    assert!(
        snap.counters[tl_obs::names::CATALOG_MMAP_LOOKUPS] > 0,
        "served mmap estimates must surface their store probes"
    );
    handle.shutdown().expect("clean drain");
}

/// A `max_k` tenant degrades identically on both backends: the mmap
/// server runs the same ladder as the memory server.
#[test]
fn mmap_backend_runs_the_degradation_ladder() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "mmap-ladder.tlat");
    let mut answers = Vec::new();
    for mmap in [false, true] {
        let mut config = ServerConfig::new(&path);
        config.mmap = mmap;
        let mut tenant = TenantSpec::new("capped", 1, 64);
        tenant.budget = Some(BudgetSpec {
            max_k: Some(2),
            ..BudgetSpec::default()
        });
        config.tenants = vec![tenant];
        let handle = serve(config).unwrap();
        let mut client = Client::connect(handle.addr(), "capped").unwrap();
        let est = client
            .estimate(Estimator::Recursive, "a[b[c][d]][e]")
            .unwrap();
        assert_eq!(
            est.degradation,
            Degradation::ReducedK { k: 2 },
            "mmap={mmap}"
        );
        answers.push(est.value.to_bits());
        handle.shutdown().expect("clean drain");
    }
    assert_eq!(answers[0], answers[1], "memory and mmap values differ");
}

#[test]
fn per_tenant_deadline_budget_degrades_with_provenance() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "budget.tlat");
    let mut config = ServerConfig::new(&path);
    // A zero-millisecond deadline: expired by the time a worker picks the
    // job up, so rung 1 trips and the ladder answers degraded.
    let mut tenant = TenantSpec::new("strict", 1, 64);
    tenant.budget = Some(BudgetSpec {
        time_limit_ms: Some(0),
        ..BudgetSpec::default()
    });
    config.tenants = vec![tenant];
    let handle = serve(config).unwrap();
    let mut client = Client::connect(handle.addr(), "strict").unwrap();

    let est = client
        .estimate(Estimator::RecursiveVoting, "a[b[c][d]][e]")
        .unwrap();
    assert!(est.degradation.is_degraded(), "got {:?}", est.degradation);
    assert!(est.cause.is_some());
    assert!(est.value.is_finite() && est.value >= 0.0);

    // An unlimited tenant on the same server still gets the exact path.
    let mut relaxed = Client::connect(handle.addr(), "default").unwrap();
    let exact = relaxed
        .estimate(Estimator::RecursiveVoting, "a[b[c][d]][e]")
        .unwrap();
    assert_eq!(exact.degradation, Degradation::None);

    // Now the answer is warm, and a warm answer is served on the
    // connection thread — but the strict tenant's deadline is checked
    // before the cache, so its repeat still degrades, to the same rung and
    // value as the in-process ladder under an expired deadline.
    let repeat = client
        .estimate(Estimator::RecursiveVoting, "a[b[c][d]][e]")
        .unwrap();
    assert_eq!(repeat.degradation, Degradation::Markov);
    assert_eq!(repeat.cause.expect("cause").kind, FaultKind::Timeout);
    assert_eq!(repeat.value.to_bits(), est.value.to_bits());
    let snap = tl_obs::Snapshot::from_json(&client.scrape().unwrap()).unwrap();
    assert!(snap.counters[tl_obs::names::SERVER_INLINE] >= 1);
    handle.shutdown().expect("clean drain");
}

#[test]
fn binary_smoke_port_file_and_sigterm() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "smoke.tlat");
    let port_file = path.with_extension("port");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_tl-server"))
        .args([
            "serve",
            path.to_str().unwrap(),
            "--port",
            "0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait for the ephemeral port to be published.
    let mut addr = String::new();
    for _ in 0..100 {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if !s.is_empty() {
                addr = s;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(!addr.is_empty(), "server never wrote its port file");

    let mut client = Client::connect(addr.trim(), "default").unwrap();
    let est = client.estimate(Estimator::RecursiveVoting, "a/b").unwrap();
    assert!(est.value > 0.0);

    // SIGTERM → drain → exit 0.
    let pid = child.id().to_string();
    let status = std::process::Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap();
    assert!(status.success());
    let mut exit = None;
    for _ in 0..100 {
        if let Some(st) = child.try_wait().unwrap() {
            exit = Some(st);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let exit = exit.expect("server did not exit after SIGTERM");
    assert_eq!(exit.code(), Some(0), "clean shutdown exits 0");
}

/// Warm answers are served on the connection thread; they must carry the
/// same bits as the queued (cold) answer and the in-process estimate, for
/// every estimator — the fix-sized ones through their whole-query cache
/// entry — on both backends, singly and in an all-warm batch.
#[test]
fn inline_answers_match_queued_and_in_process_on_both_backends() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "inline.tlat");
    for mmap in [false, true] {
        let mut config = ServerConfig::new(&path);
        config.mmap = mmap;
        let handle = serve(config).unwrap();
        let mut client = Client::connect(handle.addr(), "default").unwrap();
        let inline = |client: &mut Client| {
            let snap = tl_obs::Snapshot::from_json(&client.scrape().unwrap()).unwrap();
            snap.counters[tl_obs::names::SERVER_INLINE]
        };
        for est in Estimator::ALL {
            for &query in QUERIES {
                let local = lattice.estimate(&lattice.parse_query(query).unwrap(), est);
                let first = client.estimate(est, query).unwrap();
                let before = inline(&mut client);
                let warm = client.estimate(est, query).unwrap();
                assert_eq!(
                    inline(&mut client),
                    before + 1,
                    "mmap={mmap} {est} {query}: the repeat is answered inline"
                );
                for (path, got) in [("queued", &first), ("inline", &warm)] {
                    assert_eq!(got.degradation, Degradation::None, "{path} {est} {query}");
                    assert_eq!(
                        got.value.to_bits(),
                        local.to_bits(),
                        "mmap={mmap} {path} {est} {query}"
                    );
                }
            }
            let queries: Vec<String> = QUERIES.iter().map(|q| q.to_string()).collect();
            let before = inline(&mut client);
            let batch = client.estimate_batch(est, &queries).unwrap();
            assert_eq!(inline(&mut client), before + 1, "all-warm batch is inline");
            for (q, item) in QUERIES.iter().zip(&batch) {
                let local = lattice.estimate(&lattice.parse_query(q).unwrap(), est);
                assert_eq!(item.as_ref().unwrap().value.to_bits(), local.to_bits());
            }
        }
        // One cold item sends the whole batch to the queue.
        let before = inline(&mut client);
        let mixed = vec!["a/b".to_string(), "r/f/a/b".to_string()];
        client.estimate_batch(Estimator::Recursive, &mixed).unwrap();
        assert_eq!(inline(&mut client), before, "a cold item queues the batch");
        handle.shutdown().expect("clean drain");
    }
}

/// Feedback for a query naming a label the summary lacks is refused: the
/// label's id names nothing, so storing a count under it would answer for
/// every other unknown label. Nothing reaches the write-ahead log, and
/// `truth` on an unknown label answers `None`.
#[test]
fn feedback_on_unknown_labels_is_refused_and_never_leaks() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "unknown-feedback.tlat");
    let wal_dir = path.with_extension("wal");
    std::fs::remove_dir_all(&wal_dir).ok();
    let mut config = ServerConfig::new(&path);
    config.wal_dir = Some(wal_dir.clone());
    let handle = serve(config).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    let refused = client
        .request(&Request::Update {
            tenant: "default".into(),
            query: "zzz".into(),
            true_count: 7,
            idem: 1,
        })
        .unwrap();
    assert_eq!(refused.status(), 2, "usage error, got {refused:?}");
    assert_eq!(client.truth("yyy").unwrap(), None);
    assert_eq!(client.truth("a/zzz").unwrap(), None);
    // Known-label feedback still works beside it.
    client.update("a[b][e]", 123).unwrap();
    assert_eq!(client.truth("a[b][e]").unwrap(), Some(123));

    let snap = tl_obs::Snapshot::from_json(&client.scrape().unwrap()).unwrap();
    assert_eq!(
        snap.counters[tl_obs::names::WAL_APPENDS],
        1,
        "only the known-label update reaches the log"
    );
    handle.shutdown().expect("clean drain");
    std::fs::remove_dir_all(&wal_dir).ok();
}

/// A client that pauses between a frame's length prefix and its body must
/// still get its answer: the server finishes reading a started frame
/// instead of treating the pause as idleness and resynchronizing on body
/// bytes.
#[test]
fn frame_split_by_a_pause_is_answered() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "split-frame.tlat");
    let handle = serve(ServerConfig::new(&path)).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let request = Request::Estimate {
        tenant: "default".into(),
        estimator: Estimator::Recursive,
        query: "a/b".into(),
    };
    let mut frame = Vec::new();
    write_frame(&mut frame, &request.encode()).unwrap();

    stream.write_all(&frame[..4]).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(&frame[4..]).unwrap();
    let body = read_frame(&mut stream).expect("answered within 2 s");
    let expect = lattice.estimate(&lattice.parse_query("a/b").unwrap(), Estimator::Recursive);
    match Response::decode(&body).unwrap() {
        Response::Estimate(e) => assert_eq!(e.value.to_bits(), expect.to_bits()),
        other => panic!("expected an estimate, got {other:?}"),
    }

    // The connection is still in sync: a whole frame right after is
    // answered too.
    stream.write_all(&frame).unwrap();
    let body = read_frame(&mut stream).expect("second answer");
    assert!(matches!(
        Response::decode(&body).unwrap(),
        Response::Estimate(_)
    ));
    handle.shutdown().expect("clean drain");
}

/// A frame abandoned mid-way past the idle deadline is answered with a
/// typed timeout fault and the connection closed, never left half-read.
#[test]
fn frame_stalled_past_the_idle_deadline_is_a_typed_fault() {
    let lattice = sample_lattice();
    let path = write_summary(&lattice, "stalled-frame.tlat");
    let mut config = ServerConfig::new(&path);
    config.idle_timeout_ms = 200;
    let handle = serve(config).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut frame = Vec::new();
    write_frame(&mut frame, &Request::Scrape { tenant: "x".into() }.encode()).unwrap();
    stream.write_all(&frame[..6]).unwrap();
    let body = read_frame(&mut stream).expect("the stall is answered");
    match Response::decode(&body).unwrap() {
        Response::Error { fault, .. } => assert_eq!(fault.kind, FaultKind::Timeout),
        other => panic!("expected a timeout fault, got {other:?}"),
    }
    handle.shutdown().expect("clean drain");
}
