//! 3-way differential suite: the `tl-oracle` permanent-expansion counter
//! vs the dense CSR kernel (`MatchCounter`) vs the hash-map reference
//! kernel (`ReferenceMatchCounter`), over seeded random corpora.
//!
//! Three independently formulated exact counters agreeing on hundreds of
//! (document, twig) pairs is the repo's strongest evidence that "exact"
//! means exact. On any disagreement the case is shrunk to a minimal
//! reproducer and printed in full.
//!
//! The estimators get the same treatment one level up: the decomposition
//! DAG kernel behind every `treelattice` estimate must agree bit for bit
//! with `tl_oracle::reference`, a plain memoized recursion of the paper's
//! Figures 4 and 5, on hand-built summaries and on mined seeded corpora.
//!
//! `TL_ORACLE_SEED` (comma-separated seeds) narrows the run to one CI
//! matrix slot; the default covers the full {1, 7, 42} matrix and the
//! ≥ 500-pair acceptance floor.

use tl_miner::MinedLattice;
use tl_oracle::{
    describe_case, generate, match_is_valid, reference, seeds_from_env, shrink_case, CorpusConfig,
    Oracle,
};
use tl_twig::canonical::key_of;
use tl_twig::{MatchCounter, ReferenceMatchCounter, Twig};
use tl_xml::{Document, FxHashMap, LabelInterner};
use treelattice::{BuildConfig, EstimateOptions, Estimator, Summary, TreeLattice};

const DEFAULT_SEEDS: &[u64] = &[1, 7, 42];

/// Counts `twig` three ways; returns an error naming the dissenter(s).
fn three_way(doc: &Document, twig: &Twig) -> Result<u64, String> {
    let oracle = Oracle::new(doc).count(twig);
    let dense = MatchCounter::new(doc)
        .try_count(twig)
        .map_err(|e| format!("dense kernel rejected a corpus twig: {e:?}"))?;
    let reference = ReferenceMatchCounter::new(doc).count(twig);
    if oracle == dense && dense == reference {
        Ok(oracle)
    } else {
        Err(format!(
            "counters disagree: oracle {oracle}, dense {dense}, reference {reference}"
        ))
    }
}

#[test]
fn three_way_agreement_on_seeded_corpora() {
    let seeds = seeds_from_env("TL_ORACLE_SEED", DEFAULT_SEEDS);
    let mut pairs = 0usize;
    let mut nonzero = 0usize;
    for &seed in &seeds {
        let corpus = generate(&CorpusConfig {
            seed,
            ..CorpusConfig::default()
        });
        for case in &corpus.cases {
            let doc = &corpus.docs[case.doc];
            match three_way(doc, &case.twig) {
                Ok(count) => {
                    pairs += 1;
                    nonzero += usize::from(count > 0);
                }
                Err(msg) => {
                    let (sdoc, stwig) =
                        shrink_case(doc, &case.twig, |d, t| three_way(d, t).is_err());
                    let final_msg = three_way(&sdoc, &stwig).unwrap_err();
                    panic!(
                        "seed {seed}: {msg}\nshrunk to: {final_msg}\n{}",
                        describe_case(&sdoc, &stwig)
                    );
                }
            }
        }
    }
    // Per-seed floor, plus the acceptance-criteria floor when the full
    // default matrix runs in one process.
    assert!(
        pairs >= 170 * seeds.len(),
        "only {pairs} pairs over {} seed(s)",
        seeds.len()
    );
    if seeds == DEFAULT_SEEDS {
        assert!(pairs >= 500, "acceptance floor: {pairs} < 500 pairs");
    }
    // The corpus mixes positives and perturbed twigs; a degenerate all-zero
    // corpus would make agreement vacuous.
    assert!(
        nonzero * 3 >= pairs,
        "suspiciously few non-zero counts: {nonzero}/{pairs}"
    );
}

#[test]
fn enumeration_spot_check_agrees_with_all_counters() {
    // For small counts, explicitly enumerate every match and re-validate
    // each against Definition 1 — this checks the *assumptions* (label,
    // edge, injectivity) the counters encode, not just their totals.
    let seeds = seeds_from_env("TL_ORACLE_SEED", &[DEFAULT_SEEDS[0]]);
    let corpus = generate(&CorpusConfig {
        seed: seeds[0],
        docs: 2,
        twigs_per_doc: 30,
        ..CorpusConfig::default()
    });
    let mut enumerated = 0usize;
    for case in &corpus.cases {
        let doc = &corpus.docs[case.doc];
        let oracle = Oracle::new(doc);
        let Some(matches) = oracle.enumerate_matches(&case.twig, 500) else {
            continue; // more than 500 matches: counted, not enumerated
        };
        enumerated += 1;
        assert_eq!(
            matches.len() as u64,
            oracle.count(&case.twig),
            "enumeration disagrees with the permanent count\n{}",
            describe_case(doc, &case.twig)
        );
        for m in &matches {
            assert!(
                match_is_valid(doc, &case.twig, m),
                "enumerated mapping violates Definition 1\n{}",
                describe_case(doc, &case.twig)
            );
        }
        // Per-root partition: summing rooted counts over candidate roots
        // must reproduce the total.
        let by_root: u64 = doc
            .pre_order()
            .map(|d| oracle.count_rooted_at(&case.twig, d))
            .sum();
        assert_eq!(by_root, matches.len() as u64);
    }
    assert!(enumerated >= 20, "only {enumerated} cases were enumerable");
}

/// Builds a summary directly from (query, count) pairs; every level up to
/// `k` is complete, so a miss there is an exact zero.
fn summary_of(patterns: &[(&str, u64)], k: usize) -> (Summary, LabelInterner) {
    let mut it = LabelInterner::new();
    let mut levels = vec![FxHashMap::default(); k];
    for (q, c) in patterns {
        let t = tl_twig::parse_twig(q, &mut it).unwrap();
        assert!(t.len() <= k, "pattern {q} larger than k");
        levels[t.len() - 1].insert(key_of(&t), *c);
    }
    (Summary::from_mined(MinedLattice::from_levels(levels)), it)
}

fn q(it: &mut LabelInterner, s: &str) -> Twig {
    tl_twig::parse_twig(s, it).unwrap()
}

/// The DAG kernel must agree bit-for-bit with the reference recursion on
/// every estimator.
#[test]
fn dag_matches_reference_bitwise() {
    let (s, mut it) = summary_of(
        &[
            ("a", 2),
            ("b", 4),
            ("c", 8),
            ("d", 16),
            ("a/b", 6),
            ("b/c", 12),
            ("c/d", 24),
            ("a/c", 3),
            ("a/d", 5),
            ("b/d", 7),
        ],
        2,
    );
    let queries = [
        "a/b/c/d",
        "a[b][c]",
        "a[b][c][d]",
        "a[b[c]][d]",
        "a/b[c][d]",
    ];
    let opts = EstimateOptions::default();
    for qs in queries {
        let t = q(&mut it, qs);
        for e in Estimator::ALL {
            let want = reference::estimate(&s, &t, e, &opts);
            let got = treelattice::estimate(&s, &t, e, &opts);
            assert_eq!(want.to_bits(), got.to_bits(), "{e} on {qs}");
        }
    }
}

/// Back-to-back cold evaluations on one thread reuse the kernel's pooled
/// scratch; each must still equal the reference bit for bit.
#[test]
fn pooled_scratch_matches_reference_back_to_back() {
    let (s, mut it) = summary_of(
        &[
            ("a", 2),
            ("b", 4),
            ("c", 8),
            ("d", 16),
            ("a/b", 6),
            ("b/c", 12),
            ("c/d", 24),
        ],
        2,
    );
    let opts = EstimateOptions::default();
    for qs in ["a/b/c/d", "a/b/c", "b/c/d", "a/b/c/d"] {
        let t = q(&mut it, qs);
        let want = reference::estimate(&s, &t, Estimator::Recursive, &opts);
        let got = treelattice::estimate(&s, &t, Estimator::Recursive, &opts);
        assert_eq!(want.to_bits(), got.to_bits(), "{qs}");
    }
}

/// Mined summaries — unpruned and δ-pruned, so pruned-level misses
/// re-derive — under every estimator, a capped voting width, the fix-sized
/// cover at an explicit smaller `k`, and the interval's midpoint.
#[test]
fn kernel_matches_reference_on_seeded_corpora() {
    let seeds = seeds_from_env("TL_ORACLE_SEED", DEFAULT_SEEDS);
    let capped = EstimateOptions {
        voting_cap: 2,
        ..EstimateOptions::default()
    };
    let mut compared = 0usize;
    for &seed in &seeds {
        let corpus = generate(&CorpusConfig {
            seed,
            docs: 2,
            twigs_per_doc: 20,
            ..CorpusConfig::default()
        });
        for (d, doc) in corpus.docs.iter().enumerate() {
            let full = TreeLattice::build(doc, &BuildConfig::with_k(3));
            let mut pruned = full.clone();
            pruned.prune(0.1);
            for lattice in [&full, &pruned] {
                let s = lattice.summary();
                for case in corpus.cases.iter().filter(|c| c.doc == d) {
                    let t = &case.twig;
                    for opts in [EstimateOptions::default(), capped] {
                        for e in Estimator::ALL {
                            let want = reference::estimate(s, t, e, &opts);
                            let got = treelattice::estimate(s, t, e, &opts);
                            assert_eq!(
                                want.to_bits(),
                                got.to_bits(),
                                "seed {seed}: {e} diverged\n{}",
                                describe_case(doc, t)
                            );
                            compared += 1;
                        }
                    }
                    // The interval's midpoint is the full-width DAG's root:
                    // the voting estimate, bit for bit.
                    let want = reference::estimate(
                        s,
                        t,
                        Estimator::RecursiveVoting,
                        &EstimateOptions::default(),
                    );
                    let mid = treelattice::estimate_interval(s, t).estimate;
                    assert_eq!(
                        want.to_bits(),
                        mid.to_bits(),
                        "seed {seed}: interval midpoint diverged\n{}",
                        describe_case(doc, t)
                    );
                    if t.len() > 2 {
                        let want = reference::estimate_fixed_at(s, t, 2);
                        let got = treelattice::estimate_fixed_at(s, t, 2, &capped);
                        assert_eq!(
                            want.to_bits(),
                            got.to_bits(),
                            "seed {seed}: fix-sized at k=2 diverged\n{}",
                            describe_case(doc, t)
                        );
                    }
                }
            }
        }
    }
    assert!(compared >= 200, "only {compared} comparisons");
}
