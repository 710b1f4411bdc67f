//! Human-readable decomposition traces.
//!
//! `EXPLAIN` for the estimator: shows how a twig query was reduced to
//! summary lookups — which sub-twigs were read exactly, where the
//! conditional-independence formula was applied, and what each step
//! contributed. Invaluable when an estimate looks off: the trace points at
//! the exact overlap whose correlation broke the assumption.
//!
//! The trace is a rendering of the width-1 decomposition DAG (see
//! `dag.rs`): every distinct sub-twig is expanded once, and later
//! references to it print `(see above)`, so the trace grows with the
//! number of distinct sub-twigs rather than with the recursion tree.

use std::fmt::Write as _;

use tl_twig::Twig;
use tl_xml::LabelInterner;

use crate::catalog::PatternStore;
use crate::dag::expand_view;
use crate::interval::estimate_interval;
use crate::summary::Lookup;

/// Renders the recursive-decomposition trace of `twig` against any pattern
/// store; `labels` is the table its keys are encoded against.
///
/// The trace follows the plain recursive estimator (first removable pair
/// at each step), with operands in canonical form; the header additionally
/// reports the voting estimate and the decomposition-disagreement interval.
pub fn explain<S: PatternStore + ?Sized>(store: &S, labels: &LabelInterner, twig: &Twig) -> String {
    let view = expand_view(store, twig, 1);
    let iv = estimate_interval(store, twig);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "query: {}\nrecursive = {:.3}   voting = {:.3}   spread = [{:.3}, {}]",
        twig.to_query_string(labels),
        view.nodes[0].value,
        iv.estimate,
        iv.low,
        if iv.high.is_finite() {
            format!("{:.3}", iv.high)
        } else {
            "inf".to_owned()
        },
    );
    let mut expanded = vec![false; view.nodes.len()];
    // Depth-first from the root, operands in `t1, t2, t12` order.
    let mut stack = vec![(0u32, 0usize)];
    while let Some((ix, depth)) = stack.pop() {
        let node = &view.nodes[ix as usize];
        let indent = "  ".repeat(depth);
        let query = node.key.decode().to_query_string(labels);
        match store.lookup_bytes(node.key.as_bytes()) {
            Lookup::Exact(c) => {
                let _ = writeln!(out, "{indent}{query} = {c}  (stored, exact)");
            }
            _ if node.key.node_count() <= 2 => {
                let _ = writeln!(out, "{indent}{query} = 0  (absent from complete level)");
            }
            _ if expanded[ix as usize] => {
                let _ = writeln!(out, "{indent}{query} ~= {:.3}  (see above)", node.value);
            }
            source => {
                expanded[ix as usize] = true;
                let why = match source {
                    Lookup::TooLarge => "larger than the summary order",
                    _ => "pruned as derivable",
                };
                let _ = writeln!(
                    out,
                    "{indent}{query} ~= {:.3}  ({why}; s(T1)*s(T2)/s(T12) with)",
                    node.value
                );
                let [t1, t2, t12] = view.pairs[node.pairs.start];
                stack.extend([(t12, depth + 1), (t2, depth + 1), (t1, depth + 1)]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use tl_xml::{parse_document, ParseOptions};

    use crate::{BuildConfig, TreeLattice};

    use super::*;

    fn lattice() -> TreeLattice {
        let mut xml = String::from("<r>");
        for _ in 0..6 {
            xml.push_str("<a><b><c/></b><d/></a>");
        }
        xml.push_str("</r>");
        let doc = parse_document(xml.as_bytes(), ParseOptions::default()).unwrap();
        TreeLattice::build(&doc, &BuildConfig::with_k(3))
    }

    #[test]
    fn stored_queries_explain_as_exact() {
        let lat = lattice();
        let q = lat.parse_query("a/b/c").unwrap();
        let text = explain(lat.summary(), lat.labels(), &q);
        assert!(text.contains("stored, exact"), "{text}");
        assert!(text.contains("a[b[c]] = 6"), "{text}");
    }

    #[test]
    fn large_queries_show_the_decomposition_tree() {
        let lat = lattice();
        let q = lat.parse_query("a[b[c]][d]").unwrap();
        let text = explain(lat.summary(), lat.labels(), &q);
        assert!(text.contains("larger than the summary order"), "{text}");
        // The three operands appear, indented.
        assert!(text.contains("\n  "), "{text}");
        assert!(text.contains("s(T1)*s(T2)/s(T12)"), "{text}");
        assert!(text.contains("recursive = 6.000"), "{text}");
    }

    #[test]
    fn zero_queries_explain_the_missing_edge() {
        let lat = lattice();
        // `zzz` never occurred: explain through the query API, which keeps
        // the scratch interner that can resolve it.
        let text = lat.explain_query("a[b][zzz]").unwrap();
        assert!(
            text.contains("absent from complete level") || text.contains("= 0  (stored, exact)"),
            "{text}"
        );
    }

    /// The trace grows with the distinct sub-twigs, not the recursion
    /// tree: a 16-node chain over a k=2 summary has 105 decomposed
    /// sub-chains, so 318 lines, where rendering every recursion path
    /// prints hundreds of thousands.
    #[test]
    fn long_chains_expand_each_subtwig_once() {
        let names: Vec<String> = (0..16).map(|i| format!("n{i}")).collect();
        let mut xml = String::new();
        for n in &names {
            xml.push_str(&format!("<{n}>"));
        }
        for n in names.iter().rev() {
            xml.push_str(&format!("</{n}>"));
        }
        let doc = parse_document(xml.as_bytes(), ParseOptions::default()).unwrap();
        let lat = TreeLattice::build(&doc, &BuildConfig::with_k(2));
        let q = lat.parse_query(&names.join("/")).unwrap();
        let text = explain(lat.summary(), lat.labels(), &q);
        let lines = text.lines().count();
        assert!(lines <= 400, "{lines} lines");
        assert!(text.contains("(see above)"), "{text}");
        assert!(text.contains("recursive = 1.000"), "{text}");
    }

    #[test]
    fn header_reports_interval() {
        let lat = lattice();
        let q = lat.parse_query("r/a[b[c]][d]").unwrap();
        let text = explain(lat.summary(), lat.labels(), &q);
        assert!(text.contains("spread = ["), "{text}");
        assert!(text.contains("voting = "), "{text}");
    }
}
