//! Durability end-to-end: WAL-gated acks, drain snapshots, recovery
//! across real process restarts, and the client's deadline/retry
//! robustness.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use tl_server::{serve, Client, ClientConfig, ClientError, ServerConfig};
use tl_xml::{parse_document, ParseOptions};
use treelattice::{BuildConfig, Estimator, TreeLattice};

fn sample_lattice() -> TreeLattice {
    let mut s = String::from("<r>");
    for _ in 0..8 {
        s.push_str("<a><b><c/><d/></b><e/></a><f><a><b/></a></f>");
    }
    s.push_str("</r>");
    let doc = parse_document(s.as_bytes(), ParseOptions::default()).unwrap();
    TreeLattice::build(&doc, &BuildConfig::with_k(3))
}

/// A fresh scratch directory holding the summary plus the WAL dir.
fn scratch(name: &str) -> (std::path::PathBuf, std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "tl-durability-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let summary = dir.join("summary.tlat");
    std::fs::write(&summary, sample_lattice().to_bytes()).unwrap();
    let wal_dir = dir.join("wal");
    (dir, summary, wal_dir)
}

fn durable_config(summary: &std::path::Path, wal_dir: &std::path::Path) -> ServerConfig {
    let mut config = ServerConfig::new(summary);
    config.wal_dir = Some(wal_dir.to_path_buf());
    config.durability = treelattice::DurabilityPolicy::Strict;
    config
}

fn snapshot_files(wal_dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(wal_dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("snap-") && !n.ends_with(".tmp"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

#[test]
fn updates_survive_a_clean_drain_and_restart() {
    let (dir, summary, wal_dir) = scratch("drain");
    let handle = serve(durable_config(&summary, &wal_dir)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();
    client.update("a[b][e]", 123).unwrap();
    client.update("a/b/c", 77).unwrap();
    handle.shutdown().expect("durable drain");
    // The drain published a snapshot and truncated the WAL.
    assert!(
        !snapshot_files(&wal_dir).is_empty(),
        "drain writes a snapshot"
    );
    assert_eq!(std::fs::metadata(wal_dir.join("wal.log")).unwrap().len(), 0);

    // A second server over the same directory sees the observations.
    let handle = serve(durable_config(&summary, &wal_dir)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();
    assert_eq!(client.truth("a[b][e]").unwrap(), Some(123));
    assert_eq!(client.truth("a/b/c").unwrap(), Some(77));
    handle.shutdown().expect("durable drain");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retried_update_with_same_idem_key_does_not_double_apply() {
    let (dir, summary, wal_dir) = scratch("idem");
    let handle = serve(durable_config(&summary, &wal_dir)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();

    let g1 = client.update_with_idem("a[b][e]", 123, 42).unwrap();
    // A retry of the same logical update: acked against the current
    // state, not re-applied (the generation does not move).
    let g2 = client.update_with_idem("a[b][e]", 123, 42).unwrap();
    assert_eq!(g1, g2, "idempotent retry must not bump the generation");
    // A different key is a new observation.
    let g3 = client.update_with_idem("a[b][e]", 200, 43).unwrap();
    assert!(g3 > g2);
    assert_eq!(client.truth("a[b][e]").unwrap(), Some(200));
    handle.shutdown().expect("durable drain");

    // The dedup window survives recovery: replaying an old ack after a
    // restart still cannot double-apply.
    let handle = serve(durable_config(&summary, &wal_dir)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();
    let g4 = client.update_with_idem("a[b][e]", 123, 42).unwrap();
    assert_eq!(client.truth("a[b][e]").unwrap(), Some(200));
    let _ = g4;
    handle.shutdown().expect("durable drain");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scrape_exposes_wal_counters_and_seqs() {
    let (dir, summary, wal_dir) = scratch("scrape");
    let mut config = durable_config(&summary, &wal_dir);
    config.snapshot_every = 2;
    let handle = serve(config).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();
    for (i, q) in ["a", "a/b", "a/b/c"].iter().enumerate() {
        client.update(q, 50 + i as u64).unwrap();
    }
    let snap = tl_obs::Snapshot::from_json(&client.scrape().unwrap()).unwrap();
    assert_eq!(snap.counters["wal.appends"], 3);
    assert!(snap.counters["wal.fsyncs"] >= 3, "strict fsyncs every ack");
    assert!(
        snap.counters["snapshot.writes"] >= 1,
        "snapshot-every=2 fired"
    );
    assert_eq!(snap.counters["wal.append.failures"], 0);
    assert_eq!(snap.gauges[tl_obs::names::SERVER_WAL_LAST_SEQ], 3.0);
    handle.shutdown().expect("durable drain");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wal_dir_with_mmap_is_a_typed_refusal() {
    let (dir, summary, wal_dir) = scratch("mmap-refusal");
    let mut config = durable_config(&summary, &wal_dir);
    config.mmap = true;
    let err = match serve(config) {
        Err(fault) => fault,
        Ok(_) => panic!("mmap + wal-dir cannot serve"),
    };
    assert!(err.message.contains("mmap"), "{}", err.message);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn client_deadline_expires_against_a_silent_peer() {
    // A listener that accepts and never answers: the per-request
    // deadline — not a hardwired 60s socket timeout — bounds the call.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || {
        let mut held = Vec::new();
        listener.set_nonblocking(true).unwrap();
        let t0 = std::time::Instant::now();
        while t0.elapsed() < Duration::from_secs(5) {
            if let Ok((s, _)) = listener.accept() {
                held.push(s);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    let mut client = Client::connect_with(
        addr,
        "default",
        ClientConfig {
            request_timeout: Duration::from_millis(300),
            max_retries: 0,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let t0 = std::time::Instant::now();
    let err = client.estimate(Estimator::Recursive, "a").unwrap_err();
    assert!(matches!(err, ClientError::Deadline), "got {err}");
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "deadline must cut the wait well under the old 60s timeout"
    );
    silent.join().unwrap();
}

#[test]
fn client_reconnects_across_a_server_restart() {
    let (dir, summary, wal_dir) = scratch("reconnect");
    let first = serve(durable_config(&summary, &wal_dir)).unwrap();
    let addr = first.addr();
    let mut client = Client::connect_with(
        addr,
        "default",
        ClientConfig {
            request_timeout: Duration::from_secs(10),
            max_retries: 8,
            backoff_base: Duration::from_millis(10),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    client.update("a[b][e]", 5).unwrap();
    first.shutdown().expect("durable drain");
    // Let the first server's detached connection thread notice the
    // shutdown flag and close its socket; until then the old connection
    // can still answer one last typed "draining" refusal.
    std::thread::sleep(Duration::from_millis(300));

    // Same port, fresh process-equivalent: the client's retry loop rides
    // over the gap without the caller doing anything. (Rebinding the
    // just-freed port can transiently fail; retry until it sticks.)
    let second = {
        let mut handle = None;
        for _ in 0..100 {
            let mut config = durable_config(&summary, &wal_dir);
            config.port = addr.port();
            match serve(config) {
                Ok(h) => {
                    handle = Some(h);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
        handle.expect("port never became rebindable")
    };
    let stored = client.truth("a[b][e]").unwrap();
    assert_eq!(stored, Some(5), "reconnect + recovery preserved the ack");
    second.shutdown().expect("durable drain");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Binary-level drain tests (SIGTERM path, exit codes, fail-points).
// ---------------------------------------------------------------------

fn spawn_server(
    summary: &std::path::Path,
    wal_dir: &std::path::Path,
    envs: &[(&str, &str)],
) -> (Child, String) {
    let port_file = summary.with_extension("port");
    std::fs::remove_file(&port_file).ok();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tl-server"));
    cmd.args([
        "serve",
        summary.to_str().unwrap(),
        "--port",
        "0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--workers",
        "2",
        "--wal-dir",
        wal_dir.to_str().unwrap(),
        "--durability",
        "strict",
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let child = cmd.spawn().unwrap();
    let mut addr = String::new();
    for _ in 0..200 {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if !s.is_empty() {
                addr = s;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(!addr.is_empty(), "server never wrote its port file");
    (child, addr.trim().to_owned())
}

fn wait_exit(child: &mut Child) -> std::process::ExitStatus {
    for _ in 0..200 {
        if let Some(st) = child.try_wait().unwrap() {
            return st;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("server did not exit after SIGTERM");
}

#[test]
fn sigterm_drain_with_inflight_updates_snapshots_and_exits_0() {
    let (dir, summary, wal_dir) = scratch("sigterm");
    let (mut child, addr) = spawn_server(&summary, &wal_dir, &[]);

    // Storm updates from a background thread while the signal lands, so
    // the drain genuinely races in-flight acks.
    let storm_addr = addr.clone();
    let storm = std::thread::spawn(move || {
        let mut client = Client::connect(storm_addr, "default").expect("storm connect");
        let mut acked = 0u64;
        for i in 0..10_000u64 {
            match client.update("a[b][e]", 1000 + i) {
                Ok(_) => acked += 1,
                Err(_) => break,
            }
        }
        acked
    });
    std::thread::sleep(Duration::from_millis(150));
    let pid = child.id().to_string();
    assert!(Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap()
        .success());
    let exit = wait_exit(&mut child);
    let acked = storm.join().unwrap();
    assert!(acked > 0, "storm never got an ack");
    assert_eq!(exit.code(), Some(0), "drain with in-flight updates exits 0");
    assert!(
        !snapshot_files(&wal_dir).is_empty(),
        "drain published a final snapshot"
    );
    assert_eq!(
        std::fs::metadata(wal_dir.join("wal.log")).unwrap().len(),
        0,
        "drain truncated the WAL after the snapshot"
    );

    // Restart: the snapshot carries every acked update.
    let handle = serve(durable_config(&summary, &wal_dir)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();
    let stored = client
        .truth("a[b][e]")
        .unwrap()
        .expect("observed twig is stored");
    assert!(
        (1000..1000 + 10_000).contains(&stored),
        "recovered count {stored} must be one the storm acked"
    );
    handle.shutdown().expect("durable drain");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_snapshot_fault_exits_3_and_preserves_wal_and_snapshots() {
    let (dir, summary, wal_dir) = scratch("drain-fault");
    // First run: clean, leaves snapshot #1 behind.
    let (mut child, addr) = spawn_server(&summary, &wal_dir, &[]);
    let mut client = Client::connect(&*addr, "default").unwrap();
    client.update("a/b/c", 7).unwrap();
    drop(client);
    let pid = child.id().to_string();
    assert!(Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap()
        .success());
    assert_eq!(wait_exit(&mut child).code(), Some(0));
    let snaps_before = snapshot_files(&wal_dir);
    assert!(!snaps_before.is_empty());

    // Second run: the drain's snapshot hits a fail-point. The server must
    // exit with the fault code (3) and leave the previous snapshot and
    // the WAL intact — nothing acknowledged is lost.
    let (mut child, addr) = spawn_server(
        &summary,
        &wal_dir,
        &[("TL_CHAOS", "snapshot.before_rename=always")],
    );
    let mut client = Client::connect(&*addr, "default").unwrap();
    client.update("a/b/c", 8).unwrap();
    client.update("a[b][e]", 9).unwrap();
    drop(client);
    let pid = child.id().to_string();
    assert!(Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap()
        .success());
    let exit = wait_exit(&mut child);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .ok();
    assert_eq!(
        exit.code(),
        Some(3),
        "failed drain is a typed fault exit: {stderr}"
    );
    assert!(stderr.contains("drain"), "stderr names the drain: {stderr}");
    assert_eq!(
        snapshot_files(&wal_dir),
        snaps_before,
        "failed drain must not disturb existing snapshots"
    );
    assert!(
        std::fs::metadata(wal_dir.join("wal.log")).unwrap().len() > 0,
        "the WAL still covers the un-snapshotted acks"
    );

    // Recovery (no chaos) replays the tail: both acks are there.
    let handle = serve(durable_config(&summary, &wal_dir)).unwrap();
    let mut client = Client::connect(handle.addr(), "default").unwrap();
    assert_eq!(client.truth("a/b/c").unwrap(), Some(8));
    assert_eq!(client.truth("a[b][e]").unwrap(), Some(9));
    handle.shutdown().expect("durable drain");
    std::fs::remove_dir_all(&dir).ok();
}
