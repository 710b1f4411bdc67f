//! One entry point for every CI gate.
//!
//! This module owns the skeleton every gate shares: [`run_gate`]
//! measures, writes-or-checks, prints, and returns the process exit code,
//! and the `gates` binary with its `--only` filter is the one front end.
//! CI and local runs therefore invoke gates through the identical code
//! path.

use std::path::PathBuf;

use crate::experiments::{corpus, decompose, recovery, server};
use crate::gates::{self, GateReport};
use crate::golden::{self, GoldenConfig};

/// Every gate the repo ships, in the order the umbrella runner executes
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// Oracle-verified q-error/MRE envelopes over the dataset × seed matrix.
    Golden,
    /// Estimator accuracy and engine cache hit rate on the fixed fixture.
    Accuracy,
    /// Matcher-build wall-clock smoke against a committed baseline.
    Perf,
    /// Id-keyed DAG engine speedup and dedup floors.
    Decompose,
    /// Sharded-mining bit-identity and parallel speedup.
    Corpus,
    /// Injected-crash matrix: recovery bit-identity at every fail point.
    Recovery,
    /// Million-request mixed-tenant soak of the estimate server.
    Server,
}

impl Gate {
    /// All gates, in canonical execution order (cheap smokes first, the
    /// long soaks last).
    pub const ALL: [Gate; 7] = [
        Gate::Accuracy,
        Gate::Perf,
        Gate::Decompose,
        Gate::Corpus,
        Gate::Recovery,
        Gate::Golden,
        Gate::Server,
    ];

    /// The name used by `--only` and in log lines.
    pub fn name(self) -> &'static str {
        match self {
            Gate::Golden => "golden",
            Gate::Accuracy => "accuracy",
            Gate::Perf => "perf",
            Gate::Decompose => "decompose",
            Gate::Corpus => "corpus",
            Gate::Recovery => "recovery",
            Gate::Server => "server",
        }
    }

    /// Parses a `--only` item.
    pub fn parse(s: &str) -> Option<Gate> {
        Gate::ALL.into_iter().find(|g| g.name() == s)
    }

    /// The committed thresholds/baseline file this gate checks against by
    /// default.
    pub fn default_thresholds(self) -> PathBuf {
        crate::workspace_root()
            .join("tests/gates")
            .join(match self {
                Gate::Golden => "golden_accuracy.json",
                Gate::Accuracy => "accuracy.json",
                Gate::Perf => "perf_baseline.json",
                Gate::Decompose => "decompose.json",
                Gate::Corpus => "corpus.json",
                Gate::Recovery => "recovery.json",
                Gate::Server => "server.json",
            })
    }

    /// Whether `--seed` selects a run variant for this gate (a CI matrix
    /// slot). The other gates run one fixed fixture; passing them a seed
    /// is a usage error, not a silent no-op.
    pub fn accepts_seed(self) -> bool {
        matches!(self, Gate::Golden | Gate::Recovery | Gate::Server)
    }
}

/// How to run a gate: check against `thresholds` (default: the committed
/// file) or regenerate it with `write`.
#[derive(Clone, Debug)]
pub struct GateRun {
    /// Thresholds/baseline file; `None` means the gate's committed default.
    pub thresholds: Option<PathBuf>,
    /// Regenerate the thresholds file instead of checking.
    pub write: bool,
    /// Matrix seed, for the gates that accept one.
    pub seed: Option<u64>,
    /// Headroom factor for the perf smoke.
    pub perf_factor: f64,
}

impl Default for GateRun {
    fn default() -> Self {
        GateRun {
            thresholds: None,
            write: false,
            seed: None,
            perf_factor: 3.0,
        }
    }
}

fn write_snapshot(path: &PathBuf, snap: &tl_obs::Snapshot) -> i32 {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(path, snap.to_json()) {
        eprintln!("error: could not write {}: {e}", path.display());
        return 1;
    }
    println!("wrote {}", path.display());
    0
}

fn finish(gate: Gate, report: &GateReport) -> i32 {
    for line in &report.lines {
        println!("{line}");
    }
    if !report.passed() {
        eprintln!(
            "{} gate FAILED ({} check(s))",
            gate.name(),
            report.failures.len()
        );
        return 1;
    }
    println!("{} gate passed", gate.name());
    0
}

/// Runs one gate end to end: measure, then write the thresholds file or
/// check against it, printing every comparison. Returns the process exit
/// code — 0 pass/wrote, 1 regression or I/O failure, 2 usage.
pub fn run_gate(gate: Gate, opts: &GateRun) -> i32 {
    if opts.seed.is_some() && !gate.accepts_seed() {
        eprintln!(
            "error: the {} gate runs a fixed fixture and takes no --seed",
            gate.name()
        );
        return 2;
    }
    if gate == Gate::Golden && opts.write && opts.seed.is_some() {
        eprintln!("error: --write-thresholds regenerates the full matrix; drop --seed");
        return 2;
    }
    let path = opts
        .thresholds
        .clone()
        .unwrap_or_else(|| gate.default_thresholds());

    match gate {
        Gate::Golden => {
            let full = GoldenConfig::default();
            let cfg = match opts.seed {
                Some(s) => full.with_seed(s),
                None => full,
            };
            println!(
                "golden gate: {} dataset(s) x seeds {:?}, scale {}, k {}, sizes {:?}, {} queries/size",
                tl_datagen::Dataset::ALL.len(),
                cfg.seeds,
                cfg.scale,
                cfg.k,
                cfg.sizes,
                cfg.queries
            );
            let measured = golden::measure_golden(&cfg);
            println!(
                "measured {} envelope cells over {} evaluations",
                measured.envelopes.len(),
                measured.evaluations
            );
            if opts.write {
                return write_snapshot(&path, &golden::golden_thresholds(&measured, &cfg));
            }
            let snapshot = match gates::load_snapshot(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            finish(gate, &golden::check_golden(&measured, &snapshot))
        }
        Gate::Accuracy => {
            let cfg = gates::accuracy_config();
            println!(
                "accuracy gate: xmark scale {} seed {} k {} ({} queries/size)",
                cfg.scale, cfg.seed, cfg.k, cfg.queries
            );
            let measured = gates::measure_accuracy(&cfg);
            if opts.write {
                return write_snapshot(&path, &gates::accuracy_thresholds(&measured, &cfg));
            }
            let snapshot = match gates::load_snapshot(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            finish(gate, &gates::check_accuracy(&measured, &snapshot))
        }
        Gate::Perf => {
            let cfg = gates::perf_config();
            println!(
                "perf gate: matcher build at scale {} seed {} k {} ({} queries)",
                cfg.scale, cfg.seed, cfg.k, cfg.queries
            );
            // One warm-up then the measured run, so first-touch costs
            // (page cache, lazy allocations) do not count against the gate.
            let _ = gates::measure_perf(&cfg);
            let measured_ms = gates::measure_perf(&cfg);
            if opts.write {
                let code = write_snapshot(&path, &gates::perf_baseline(measured_ms, &cfg));
                if code == 0 {
                    println!("baseline {measured_ms:.1}ms");
                }
                return code;
            }
            let snapshot = match gates::load_snapshot(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            finish(
                gate,
                &gates::check_perf(measured_ms, &snapshot, opts.perf_factor),
            )
        }
        Gate::Decompose => {
            let cfg = gates::decompose_config();
            println!(
                "decompose gate: xmark scale {} seed {} k {} ({} queries/size)",
                cfg.scale, cfg.seed, cfg.k, cfg.queries
            );
            let _ = decompose::build(&cfg);
            let measured = decompose::build(&cfg);
            if opts.write {
                return write_snapshot(&path, &gates::decompose_thresholds(&measured, &cfg));
            }
            let snapshot = match gates::load_snapshot(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            finish(gate, &gates::check_decompose(&measured, &snapshot))
        }
        Gate::Corpus => {
            let cfg = gates::corpus_gate_config();
            println!(
                "corpus gate: xmark {} docs x {} elements, seed {}, k {}",
                cfg.docs, cfg.elements_per_doc, cfg.seed, cfg.k
            );
            let _ = corpus::build(&cfg);
            let measured = corpus::build(&cfg);
            if opts.write {
                return write_snapshot(&path, &gates::corpus_thresholds(&measured));
            }
            let snapshot = match gates::load_snapshot(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            finish(gate, &gates::check_corpus(&measured, &snapshot))
        }
        Gate::Recovery => {
            let cfg = gates::recovery_gate_config(opts.seed.unwrap_or(42));
            if opts.write {
                // The recovery thresholds are contract values, not measured
                // fractions: writing them does not need a sweep.
                return write_snapshot(&path, &gates::recovery_thresholds(&cfg));
            }
            println!(
                "recovery gate: {} crash points ({} sites x {} rules), seed {}, {} updates/point",
                recovery::matrix_size(),
                recovery::CRASH_SITES.len(),
                recovery::CRASH_RULES.len(),
                cfg.seed,
                cfg.updates
            );
            // `recovery::run` also prints the crash matrix and writes
            // BENCH_recovery.json, which CI uploads as an artifact.
            let measured = recovery::run(&cfg);
            let snapshot = match gates::load_snapshot(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            finish(gate, &gates::check_recovery(&measured, &snapshot))
        }
        Gate::Server => {
            let cfg = gates::server_gate_config(opts.seed.unwrap_or(42));
            if opts.write {
                // The server thresholds are contract values, not measured
                // fractions: writing them does not need a soak.
                return write_snapshot(&path, &gates::server_thresholds(&cfg));
            }
            println!(
                "server gate: xmark scale {} seed {} k {}, {} workers, {} request soak",
                cfg.scale, cfg.seed, cfg.k, cfg.workers, cfg.requests
            );
            // `server::run` also prints the soak table and writes
            // BENCH_server.json, which CI uploads as an artifact.
            let measured = server::run(&cfg);
            let snapshot = match gates::load_snapshot(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            finish(gate, &gates::check_server(&measured, &snapshot))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_names_round_trip_and_paths_are_committed() {
        for gate in Gate::ALL {
            assert_eq!(Gate::parse(gate.name()), Some(gate));
            let path = gate.default_thresholds();
            assert!(
                path.exists(),
                "{} thresholds missing at {}",
                gate.name(),
                path.display()
            );
        }
        assert_eq!(Gate::parse("nope"), None);
    }

    #[test]
    fn seed_rules_are_enforced() {
        let seeded = GateRun {
            seed: Some(7),
            ..GateRun::default()
        };
        // Fixed-fixture gates reject a seed outright (usage, exit 2).
        assert_eq!(run_gate(Gate::Accuracy, &seeded), 2);
        assert_eq!(run_gate(Gate::Perf, &seeded), 2);
        assert_eq!(run_gate(Gate::Decompose, &seeded), 2);
        assert_eq!(run_gate(Gate::Corpus, &seeded), 2);
        // Golden rejects the write+seed combination.
        let write_seeded = GateRun {
            write: true,
            seed: Some(7),
            ..GateRun::default()
        };
        assert_eq!(run_gate(Gate::Golden, &write_seeded), 2);
    }

    #[test]
    fn recovery_threshold_write_round_trips_through_the_committed_file() {
        let cfg = gates::recovery_gate_config(42);
        let snap = gates::recovery_thresholds(&cfg);
        let committed = gates::load_snapshot(&Gate::Recovery.default_thresholds())
            .expect("committed recovery thresholds load");
        assert_eq!(
            committed, snap,
            "tests/gates/recovery.json is stale; regenerate with gates --only recovery --write-thresholds"
        );
    }

    #[test]
    fn server_threshold_write_round_trips_through_the_committed_file() {
        let cfg = gates::server_gate_config(42);
        let snap = gates::server_thresholds(&cfg);
        let committed = gates::load_snapshot(&Gate::Server.default_thresholds())
            .expect("committed server thresholds load");
        assert_eq!(
            committed, snap,
            "tests/gates/server.json is stale; regenerate with gates --only server --write-thresholds"
        );
    }
}
