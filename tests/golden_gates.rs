//! In-tree enforcement of the golden accuracy store: `cargo test` fails
//! when the current build regresses past the committed q-error/MRE
//! envelopes in `tests/gates/golden_accuracy.json`.
//!
//! The full seed matrix runs in CI via `gates --only golden` (release
//! build, one seed per matrix slot). This debug-mode test defaults to the
//! single seed 42 to keep `cargo test -q` fast; `TL_GOLDEN_SEED` selects
//! others.

use tl_bench::golden::{self, GoldenConfig};
use tl_bench::{gates, workspace_root};
use tl_oracle::seeds_from_env;

#[test]
fn committed_golden_envelopes_hold_on_this_build() {
    let path = workspace_root().join("tests/gates/golden_accuracy.json");
    let thresholds = gates::load_snapshot(&path).expect("committed golden thresholds load");

    let seeds = seeds_from_env("TL_GOLDEN_SEED", &[42]);
    let cfg = GoldenConfig {
        seeds,
        ..GoldenConfig::default()
    };
    let measured = golden::measure_golden(&cfg);
    // 4 datasets × |seeds| × 4 estimators.
    assert_eq!(measured.envelopes.len(), 16 * cfg.seeds.len());

    let report = golden::check_golden(&measured, &thresholds);
    assert!(
        report.passed(),
        "golden accuracy regression:\n{}",
        report.failures.join("\n")
    );
    assert_eq!(
        report.lines.len(),
        32 * cfg.seeds.len(),
        "every measured cell must have been compared"
    );
}

#[test]
fn committed_thresholds_cover_the_full_matrix() {
    // The store must carry both gauges for every (dataset, seed,
    // estimator) cell of the default config — a hand-edited file that
    // drops cells would otherwise silently shrink coverage (single-seed CI
    // slots only check their own subset).
    let path = workspace_root().join("tests/gates/golden_accuracy.json");
    let thresholds = gates::load_snapshot(&path).expect("committed golden thresholds load");
    let cfg = GoldenConfig::default();
    let mut missing = Vec::new();
    for ds in tl_datagen::Dataset::ALL {
        for &seed in &cfg.seeds {
            for est in treelattice::Estimator::ALL {
                for metric in ["max_qerror", "mre_pct"] {
                    let key = format!(
                        "{}.{}.s{seed}.{}.{metric}",
                        golden::GOLDEN_PREFIX,
                        ds.name(),
                        est.name()
                    );
                    if !thresholds.gauges.contains_key(&key) {
                        missing.push(key);
                    }
                }
            }
        }
    }
    assert!(missing.is_empty(), "store lacks gauges: {missing:?}");
    assert_eq!(
        thresholds.meta.get("gate").map(String::as_str),
        Some("golden-accuracy")
    );
}
