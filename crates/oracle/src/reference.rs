//! An independent reference for the decomposition estimators.
//!
//! The production kernel evaluates the paper's decompositions on an
//! iterative, id-interned DAG with shared caches, pooled arenas and budget
//! checks. This module is the same mathematics written as plainly as the
//! paper states it, so the test suites have something independent to diff
//! the kernel against:
//!
//! * the recursion of Figure 4 — Lemma 1's `ŝ(T) = ŝ(T−v)·ŝ(T−u)/ŝ(T−u−v)`
//!   over the first removable pair, or averaged over the first
//!   `voting_cap` pairs under voting;
//! * the fix-sized cover of Figure 5 — Lemma 3's telescoping product over
//!   pre-order `k`-windows.
//!
//! Sub-twig estimates are memoized per query in a plain
//! `FxHashMap<TwigKey, f64>`; there is nothing else — no budget, no shared
//! cache, no scratch pooling, no depth counter.

use tl_twig::canonical::key_of;
use tl_twig::ops::{decompose_pair, fixed_cover_with, removable_pairs, CoverStrategy};
use tl_twig::{Twig, TwigKey};
use tl_xml::FxHashMap;
use treelattice::{EstimateOptions, Estimator, Lookup, Summary};

/// The reference value of `estimator` on `twig` over `summary` — what
/// [`treelattice::estimate`] must return bit for bit.
pub fn estimate(
    summary: &Summary,
    twig: &Twig,
    estimator: Estimator,
    opts: &EstimateOptions,
) -> f64 {
    let cap = match estimator {
        Estimator::RecursiveVoting => opts.voting_cap.max(1),
        _ => 1,
    };
    let mut r = Reference {
        summary,
        cap,
        memo: FxHashMap::default(),
    };
    let k = summary.max_size();
    // The fix-sized covers run on the canonical form, so isomorphic
    // queries get identical covers.
    let canonical = || key_of(twig).decode();
    match estimator {
        Estimator::Recursive | Estimator::RecursiveVoting => r.estimate(key_of(twig)),
        Estimator::FixSized => r.fixed(&canonical(), CoverStrategy::AncestorsFirst, k),
        Estimator::FixSizedVoting => {
            let t = canonical();
            let a = r.fixed(&t, CoverStrategy::AncestorsFirst, k);
            let b = r.fixed(&t, CoverStrategy::ChildrenFirst, k);
            (a + b) / 2.0
        }
    }
}

/// The reference fix-sized estimate over windows of an explicit `k` nodes
/// — what [`treelattice::estimate_fixed_at`] must return bit for bit.
pub fn estimate_fixed_at(summary: &Summary, twig: &Twig, k: usize) -> f64 {
    let mut r = Reference {
        summary,
        cap: 1,
        memo: FxHashMap::default(),
    };
    r.fixed(&key_of(twig).decode(), CoverStrategy::AncestorsFirst, k)
}

struct Reference<'s> {
    summary: &'s Summary,
    /// Removable pairs averaged per decomposition step.
    cap: usize,
    memo: FxHashMap<TwigKey, f64>,
}

impl Reference<'_> {
    /// Figure 4 on a canonical key: a stored count, an exact zero for an
    /// absent pattern of at most two nodes (levels 1–2 are never pruned),
    /// or the pair-averaged Lemma 1 decomposition.
    fn estimate(&mut self, key: TwigKey) -> f64 {
        if let Some(&v) = self.memo.get(&key) {
            return v;
        }
        let value = match self.summary.lookup(&key) {
            Lookup::Exact(c) => c as f64,
            Lookup::Derivable | Lookup::TooLarge if key.node_count() <= 2 => 0.0,
            Lookup::Derivable | Lookup::TooLarge => self.decompose(&key.decode()),
        };
        self.memo.insert(key, value);
        value
    }

    fn decompose(&mut self, twig: &Twig) -> f64 {
        let pairs = removable_pairs(twig);
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(u, v) in pairs.iter().take(self.cap) {
            n += 1;
            let d = decompose_pair(twig, u, v);
            let e1 = self.estimate(key_of(&d.t1));
            if e1 <= 0.0 {
                continue;
            }
            let e2 = self.estimate(key_of(&d.t2));
            if e2 <= 0.0 {
                continue;
            }
            let e12 = self.estimate(key_of(&d.t12));
            if e12 > 0.0 {
                sum += e1 * e2 / e12;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Figure 5: the telescoping product over the cover's windows and
    /// overlaps, zero at the first zero factor.
    fn fixed(&mut self, twig: &Twig, strategy: CoverStrategy, k: usize) -> f64 {
        if twig.len() <= k {
            return self.estimate(key_of(twig));
        }
        let mut numerator = 1.0f64;
        let mut denominator = 1.0f64;
        for step in fixed_cover_with(twig, k, strategy) {
            let s_sub = self.estimate(key_of(&step.subtree));
            if s_sub <= 0.0 {
                return 0.0;
            }
            numerator *= s_sub;
            if let Some(overlap) = &step.overlap {
                let s_ov = self.estimate(key_of(overlap));
                if s_ov <= 0.0 {
                    return 0.0;
                }
                denominator *= s_ov;
            }
        }
        numerator / denominator
    }
}
