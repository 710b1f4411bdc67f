//! # tl-bench — the experiment harness
//!
//! One runner per table and figure of the paper's evaluation (§5). Every
//! experiment is a library function returning structured rows, wrapped by a
//! thin binary (`src/bin/<experiment>.rs`) that prints an aligned table and
//! writes a CSV under `results/`. `cargo run --release -p tl-bench --bin
//! all_experiments` reproduces the full evaluation.
//!
//! | Runner | Paper artifact |
//! |--------|----------------|
//! | `table1_datasets` | Table 1 — dataset characteristics |
//! | `table2_patterns` | Table 2 — subtree patterns per level |
//! | `table3_construction` | Table 3 — construction time & memory |
//! | `fig7_accuracy` | Fig. 7(a–d) — error vs query size |
//! | `fig8_error_cdf` | Fig. 8(a–d) — error distribution |
//! | `fig9_response_time` | Fig. 9(a–d) — response time |
//! | `fig10a_pruning_savings` | Fig. 10(a) — 0-derivable pruning |
//! | `fig10b_pruning_accuracy` | Fig. 10(b) — pruned 5-lattice accuracy |
//! | `fig10c_delta_size` | Fig. 10(c) — size vs δ |
//! | `fig10d_delta_accuracy` | Fig. 10(d) — error vs δ |
//! | `fig11_example` | Fig. 11 — worked synopsis-vs-lattice example |
//! | `negative_workload` | §5.1 — zero-selectivity query accuracy |

pub mod config;
pub mod data;
pub mod experiments;
pub mod gate_runner;
pub mod gates;
pub mod golden;
pub mod report;
pub mod trie;

pub use config::ExpConfig;
pub use report::{write_csv, Table};

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/bench` → two levels up). In-tree artifacts (`BENCH_*.json`,
/// `tests/gates/*.json`) live there.
pub fn workspace_root() -> std::path::PathBuf {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        if let Some(ws) = std::path::Path::new(&manifest).ancestors().nth(2) {
            return ws.to_path_buf();
        }
    }
    std::path::PathBuf::from(".")
}
