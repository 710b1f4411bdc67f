//! Kill-tested recovery: a real `tl-server` process is killed with
//! SIGKILL mid-update-storm, restarted over the same durability
//! directory, and its recovered state is checked bit-for-bit against a
//! never-crashed replica fed the same acknowledged prefix.
//!
//! The acked prefix is the contract: after recovery `server.wal.last_seq`
//! must cover every acknowledged update (an unacked in-flight record may
//! legally land as one extra), and the stored count for the stormed twig
//! must be exactly the count carried by record `last_seq` — the value a
//! synchronous replay of that prefix produces.

use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tl_server::{Client, ClientConfig};
use tl_xml::{parse_document, ParseOptions};
use treelattice::{BuildConfig, TreeLattice};

const STORM_QUERY: &str = "a[b][e]";

fn sample_lattice() -> TreeLattice {
    let mut s = String::from("<r>");
    for _ in 0..8 {
        s.push_str("<a><b><c/><d/></b><e/></a><f><a><b/></a></f>");
    }
    s.push_str("</r>");
    let doc = parse_document(s.as_bytes(), ParseOptions::default()).unwrap();
    TreeLattice::build(&doc, &BuildConfig::with_k(3))
}

/// The deterministic count carried by storm update `i` (1-based seq).
fn storm_count(seq: u64) -> u64 {
    10_000 + seq
}

fn spawn_server(summary: &std::path::Path, wal_dir: &std::path::Path) -> (Child, String) {
    let port_file = summary.with_extension("port");
    std::fs::remove_file(&port_file).ok();
    let child = Command::new(env!("CARGO_BIN_EXE_tl-server"))
        .args([
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
            "--snapshot-every",
            "16",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
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

fn scrape_gauge(client: &mut Client, name: &str) -> f64 {
    let snap = tl_obs::Snapshot::from_json(&client.scrape().expect("scrape")).unwrap();
    snap.gauges.get(name).copied().unwrap_or(f64::NAN)
}

#[test]
fn kill9_mid_storm_recovers_exactly_the_acknowledged_prefix() {
    let lattice = sample_lattice();
    for seed in [1u64, 7, 42] {
        let dir = std::env::temp_dir().join(format!("tl-crash-{}-{}", seed, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let summary = dir.join("summary.tlat");
        std::fs::write(&summary, lattice.to_bytes()).unwrap();
        let wal_dir = dir.join("wal");

        let (mut child, addr) = spawn_server(&summary, &wal_dir);

        // Storm from a background thread with a fail-fast client (no
        // transport retries: each ack maps 1:1 to a WAL sequence). The
        // shared counter lets the killer wait for a real ack first.
        let storm_addr = addr.clone();
        let progress = Arc::new(AtomicU64::new(0));
        let storm_progress = Arc::clone(&progress);
        let storm = std::thread::spawn(move || {
            let mut client = Client::connect_with(
                storm_addr,
                "default",
                ClientConfig {
                    max_retries: 0,
                    request_timeout: Duration::from_secs(10),
                    ..ClientConfig::default()
                },
            )
            .expect("storm connect");
            let mut acked = 0u64;
            for i in 1..=100_000u64 {
                match client.update(STORM_QUERY, storm_count(i)) {
                    Ok(_) => {
                        acked = i;
                        storm_progress.store(i, Ordering::Release);
                    }
                    Err(_) => break,
                }
            }
            acked
        });

        // Kill -9 at a seed-dependent point mid-storm: no drain, no
        // snapshot, no flush — whatever the WAL holds is the truth. Wait
        // for the first acknowledgement before starting the clock so a
        // slow strict-fsync start (or a loaded host) can't kill the
        // server with nothing stormed yet.
        for _ in 0..400 {
            if progress.load(Ordering::Acquire) > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(
            progress.load(Ordering::Acquire) > 0,
            "seed {seed}: storm never got an ack"
        );
        std::thread::sleep(Duration::from_millis(50 + seed * 37));
        let pid = child.id().to_string();
        assert!(Command::new("kill")
            .args(["-KILL", &pid])
            .status()
            .unwrap()
            .success());
        let _ = child.wait().unwrap();
        let acked = storm.join().unwrap();
        assert!(acked > 0, "seed {seed}: storm never got an ack");

        // Restart over the same directory and interrogate the recovered
        // state.
        let (mut child, addr) = spawn_server(&summary, &wal_dir);
        let mut client = Client::connect(&*addr, "default").unwrap();
        let last_seq = scrape_gauge(&mut client, tl_obs::names::SERVER_WAL_LAST_SEQ) as u64;
        // Every ack is durable; at most one in-flight (written but never
        // acked) record may additionally have survived the kill.
        assert!(
            last_seq == acked || last_seq == acked + 1,
            "seed {seed}: recovered last_seq {last_seq} vs acked {acked}"
        );
        // Bit-exactness of the prefix: a never-crashed replica that
        // applied records 1..=last_seq stores exactly storm_count(last_seq).
        assert_eq!(
            client.truth(STORM_QUERY).unwrap(),
            Some(storm_count(last_seq)),
            "seed {seed}: recovered count diverges from synchronous replay"
        );

        // The recovered server keeps serving and keeps its durability: a
        // post-recovery update acks and a clean drain snapshots it.
        client.update(STORM_QUERY, 777).unwrap();
        assert_eq!(client.truth(STORM_QUERY).unwrap(), Some(777));
        drop(client);
        let pid = child.id().to_string();
        assert!(Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .unwrap()
            .success());
        let mut exit = None;
        for _ in 0..200 {
            if let Some(st) = child.try_wait().unwrap() {
                exit = Some(st);
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(
            exit.expect("no exit after SIGTERM").code(),
            Some(0),
            "seed {seed}: post-recovery drain exits clean"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn mid_log_corruption_surfaces_as_typed_fault_exit() {
    // Flip a byte in the middle of a multi-record WAL: the restart must
    // refuse with the fault exit code (3), not serve a wrong summary.
    let lattice = sample_lattice();
    let dir = std::env::temp_dir().join(format!("tl-crash-corrupt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let summary = dir.join("summary.tlat");
    std::fs::write(&summary, lattice.to_bytes()).unwrap();
    let wal_dir = dir.join("wal");

    let (mut child, addr) = spawn_server(&summary, &wal_dir);
    let mut client = Client::connect(&*addr, "default").unwrap();
    for i in 1..=8u64 {
        client.update(STORM_QUERY, storm_count(i)).unwrap();
    }
    drop(client);
    let pid = child.id().to_string();
    assert!(Command::new("kill")
        .args(["-KILL", &pid])
        .status()
        .unwrap()
        .success());
    let _ = child.wait().unwrap();

    let wal_path = wal_dir.join("wal.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    assert!(bytes.len() > 40, "wal holds the storm records");
    // Flip a byte inside the FIRST record's body (offset 10 lands in its
    // seq field, past the 4-byte length prefix). The seven complete
    // records behind it rule out any torn-tail reading: this is mid-log
    // corruption and must be a typed fault.
    bytes[10] ^= 0xff;
    std::fs::write(&wal_path, &bytes).unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_tl-server"))
        .args([
            "serve",
            summary.to_str().unwrap(),
            "--port",
            "0",
            "--wal-dir",
            wal_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(
        output.status.code(),
        Some(3),
        "mid-log corruption is a typed fault, never a silent serve: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("corrupt") || stderr.contains("checksum") || stderr.contains("wal"),
        "stderr names the corruption: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
