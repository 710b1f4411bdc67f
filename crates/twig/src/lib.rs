//! # tl-twig — twig queries: model, canonical forms, exact match counting
//!
//! A *twig query* (paper §2.1) is a node-labeled rooted tree; a *match* in a
//! data tree is a 1-1 node mapping that preserves labels and parent-child
//! edges (Definition 1). The *selectivity* `s(Q)` of a twig is its number of
//! matches. This crate provides:
//!
//! * [`Twig`] — a small arena representation of a twig query, with the
//!   structural operations the decomposition estimators need (leaf removal,
//!   subtree extraction, pre-order covering);
//! * [`canonical`] — a canonical byte encoding of unordered labeled trees,
//!   so that isomorphic twigs (equal up to sibling order) collapse to one
//!   summary key;
//! * [`parse_twig`] — a tiny XPath-like surface syntax (`a[b][c/d]`);
//! * [`count_matches`] — the exact selectivity of a twig in a document,
//!   including correct injective counting when sibling sub-patterns share a
//!   label (the general case behind the paper's "all children distinct"
//!   simplification).

pub mod canonical;
pub mod interner;
pub mod matcher;
pub mod ops;
pub mod parser;
pub mod reference;
pub mod twig;

pub use canonical::TwigKey;
pub use interner::{TwigId, TwigInterner};
pub use matcher::{count_matches, MatchCounter, MatchError, MAX_SIBLING_GROUP};
pub use parser::{
    parse_twig, parse_twig_borrowed, parse_twig_in, parse_twig_valued, TwigParseError,
};
pub use reference::ReferenceMatchCounter;
pub use twig::{Twig, TwigNodeId};
