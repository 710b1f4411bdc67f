//! Interval estimates: a decomposition-disagreement error bar.
//!
//! The paper's future-work list (§6) asks for "an error bound associated
//! with the estimation". This module provides the natural bound available
//! *within* the decomposition framework: at every decomposed node the
//! voting candidates (one per removable pair) generally disagree, and the
//! spread of their values — propagated up the decomposition DAG with
//! interval arithmetic — measures how far the conditional-independence
//! assumption is being stretched for this particular query.
//!
//! The returned interval is a *heuristic diagnostic*, not a probabilistic
//! guarantee: a width of zero means every decomposition order agrees (on
//! perfectly regular data the estimate is then typically exact), while a
//! wide interval flags queries whose estimate should not be trusted. The
//! interval is a min/max pass over the full-width DAG the voting estimator
//! evaluates (see `dag.rs`), so the midpoint *is* the voting
//! estimate.

use tl_twig::Twig;

use crate::catalog::PatternStore;
use crate::dag::expand_view;

/// A point estimate with a decomposition-disagreement interval around it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalEstimate {
    /// Smallest value any decomposition order produces.
    pub low: f64,
    /// The voting estimate (average over pairs at each decomposed node).
    pub estimate: f64,
    /// Largest value any decomposition order produces; `f64::INFINITY`
    /// when some order divides by a vanishing overlap estimate.
    pub high: f64,
}

impl IntervalEstimate {
    fn point(v: f64) -> Self {
        Self {
            low: v,
            estimate: v,
            high: v,
        }
    }

    /// Interval width relative to the estimate (0 = all orders agree).
    pub fn relative_width(&self) -> f64 {
        if self.estimate <= 0.0 {
            if self.high > self.low {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            (self.high - self.low) / self.estimate
        }
    }
}

/// Computes the interval estimate of `twig` against any pattern store.
pub fn estimate_interval<S: PatternStore + ?Sized>(store: &S, twig: &Twig) -> IntervalEstimate {
    let view = expand_view(store, twig, usize::MAX);
    let mut ivs = vec![IntervalEstimate::point(0.0); view.nodes.len()];
    // Size order: every operand's interval is final before it is read.
    for &ix in &view.order {
        let node = &view.nodes[ix as usize];
        let estimate = node.value;
        if node.pairs.is_empty() {
            ivs[ix as usize] = IntervalEstimate::point(estimate);
            continue;
        }
        let mut low = f64::INFINITY;
        let mut high: f64 = 0.0;
        for &[a, b, c] in &view.pairs[node.pairs.clone()] {
            let (i1, i2, i12) = (ivs[a as usize], ivs[b as usize], ivs[c as usize]);
            // Product of lows over the largest overlap, and product of
            // highs over the smallest overlap.
            let pair_low = if i12.high > 0.0 {
                i1.low * i2.low / i12.high
            } else {
                0.0
            };
            let pair_high = if i1.high == 0.0 || i2.high == 0.0 {
                0.0
            } else if i12.low > 0.0 {
                i1.high * i2.high / i12.low
            } else {
                f64::INFINITY
            };
            low = low.min(pair_low);
            high = high.max(pair_high);
        }
        if low > high {
            // All pairs degenerate (e.g. every branch zero).
            low = estimate;
            high = estimate;
        }
        ivs[ix as usize] = IntervalEstimate {
            low: low.min(estimate),
            estimate,
            high: high.max(estimate),
        };
    }
    ivs[0]
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, ParseOptions};

    use crate::estimator::{estimate, EstimateOptions, Estimator};
    use crate::{BuildConfig, TreeLattice};

    use super::*;

    fn lattice_of(xml: &str, k: usize) -> (tl_xml::Document, TreeLattice) {
        let doc = parse_document(xml.as_bytes(), ParseOptions::default()).unwrap();
        let lat = TreeLattice::build(&doc, &BuildConfig::with_k(k));
        (doc, lat)
    }

    #[test]
    fn stored_patterns_are_points() {
        let (_, lat) = lattice_of("<a><b/><c/></a>", 3);
        let q = lat.parse_query("a[b][c]").unwrap();
        let iv = estimate_interval(lat.summary(), &q);
        assert_eq!(iv, IntervalEstimate::point(1.0));
        assert_eq!(iv.relative_width(), 0.0);
    }

    #[test]
    fn midpoint_equals_voting_estimate() {
        let mut xml = String::from("<r>");
        for i in 0..12 {
            // Irregular records: disagreement between decomposition orders.
            xml.push_str(if i % 3 == 0 {
                "<a><b/><b/><c/><d/></a>"
            } else if i % 3 == 1 {
                "<a><b/><c/></a>"
            } else {
                "<a><d/><c/><c/></a>"
            });
        }
        xml.push_str("</r>");
        let (_, lat) = lattice_of(&xml, 2);
        for q in ["a[b][c][d]", "r/a[b][c]", "a[b][c]"] {
            let twig = lat.parse_query(q).unwrap();
            let iv = estimate_interval(lat.summary(), &twig);
            let vote = estimate(
                lat.summary(),
                &twig,
                Estimator::RecursiveVoting,
                &EstimateOptions::default(),
            );
            assert_eq!(
                iv.estimate.to_bits(),
                vote.to_bits(),
                "{q}: interval mid {} vs voting {vote}",
                iv.estimate
            );
            assert!(
                iv.low <= iv.estimate + 1e-12 && iv.estimate <= iv.high + 1e-12,
                "{q}"
            );
        }
    }

    #[test]
    fn regular_data_has_zero_width() {
        let mut xml = String::from("<r>");
        for _ in 0..10 {
            xml.push_str("<a><b><c/></b><d/></a>");
        }
        xml.push_str("</r>");
        let (_, lat) = lattice_of(&xml, 2);
        let q = lat.parse_query("a[b[c]][d]").unwrap();
        let iv = estimate_interval(lat.summary(), &q);
        assert!(
            iv.relative_width() < 1e-9,
            "regular data should have no disagreement: {iv:?}"
        );
        assert!((iv.estimate - 10.0).abs() < 1e-9);
    }

    #[test]
    fn correlated_data_produces_positive_width() {
        // Records where b/c co-occurrence is correlated but d is not:
        // different decomposition orders of a[b][c][d] route through
        // different stored size-3 patterns and disagree.
        let mut xml = String::from("<r>");
        for _ in 0..5 {
            xml.push_str("<a><b/><c/><d/></a>");
        }
        for _ in 0..5 {
            xml.push_str("<a><b/></a><a><c/></a><a><d/></a>");
        }
        for _ in 0..3 {
            xml.push_str("<a><b/><c/></a>");
        }
        xml.push_str("</r>");
        let (_, lat) = lattice_of(&xml, 3);
        let q = lat.parse_query("a[b][c][d]").unwrap();
        let iv = estimate_interval(lat.summary(), &q);
        assert!(
            iv.relative_width() > 0.05,
            "decomposition orders should disagree here: {iv:?}"
        );
        assert!(iv.low < iv.high);
        assert!(iv.low <= iv.estimate && iv.estimate <= iv.high);
        // The width is a *diagnostic*, not a guarantee: here every order
        // shares the independence bias and the truth (5) sits above the
        // whole interval — exactly the situation the caller is being
        // warned about by the positive width.
    }

    #[test]
    fn zero_queries_are_zero_points() {
        let (_, lat) = lattice_of("<a><b/></a>", 2);
        let q = lat.parse_query("a[b][z]").unwrap();
        let iv = estimate_interval(lat.summary(), &q);
        assert_eq!(iv.estimate, 0.0);
        assert_eq!(iv.low, 0.0);
        assert_eq!(iv.high, 0.0);
    }
}
