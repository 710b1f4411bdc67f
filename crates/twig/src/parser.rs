//! Surface syntax for twig queries.
//!
//! The grammar is a small XPath-like fragment, sufficient for the paper's
//! branching path expressions (parent-child axes only):
//!
//! ```text
//! twig   := '/'? '/'? step
//! step   := name predicate* ('/' step)?
//! pred   := '[' step ']'
//! name   := [A-Za-z_@:][A-Za-z0-9_@:.-]*
//! ```
//!
//! Examples: `a/b/c` (a path), `//laptop[brand][price]` (Figure 1(b)),
//! `a[b[d]][c/e]` (nested branches). A leading `/` or `//` is accepted and
//! ignored — Definition 1 matches a twig anywhere in the document, which is
//! descendant-or-self semantics at the root.
//!
//! ## Value predicates
//!
//! When parsed with [`parse_twig_valued`], steps may carry equality
//! predicates: `laptop[brand="Dell"]` or `price[="999"]`. The literal is
//! mapped to the same synthetic value label the document parser produced
//! (see [`tl_xml::ValueMode`]), so a value predicate is just one more twig
//! edge and the estimators need no changes. The plain [`parse_twig`]
//! rejects value predicates with a clear error.

use tl_xml::{LabelInterner, ValueMode};

use crate::twig::{Twig, TwigNodeId};

/// Error from twig parsing, with a byte offset into the query string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TwigParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
}

impl std::fmt::Display for TwigParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for TwigParseError {}

impl From<TwigParseError> for tl_fault::Fault {
    fn from(err: TwigParseError) -> Self {
        tl_fault::Fault::parse(err.to_string())
    }
}

/// Parses a twig query, interning any new labels into `labels`.
///
/// # Examples
///
/// ```
/// use tl_xml::LabelInterner;
/// use tl_twig::parse_twig;
///
/// let mut it = LabelInterner::new();
/// let t = parse_twig("//laptop[brand][price]", &mut it).unwrap();
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.to_query_string(&it), "laptop[brand][price]");
/// ```
pub fn parse_twig(query: &str, labels: &mut LabelInterner) -> Result<Twig, TwigParseError> {
    Parser {
        input: query.as_bytes(),
        pos: 0,
        values: None,
    }
    .parse(&mut |name| Ok(labels.intern(name)))
}

/// Parses a twig query that may contain value predicates
/// (`laptop[brand="Dell"]`, `price[="999"]`), mapping literals with `mode`
/// — which must match the mode the document was parsed with.
pub fn parse_twig_valued(
    query: &str,
    labels: &mut LabelInterner,
    mode: ValueMode,
) -> Result<Twig, TwigParseError> {
    Parser {
        input: query.as_bytes(),
        pos: 0,
        values: Some(mode),
    }
    .parse(&mut |name| Ok(labels.intern(name)))
}

/// Parses a twig query against a borrowed label table, leaving it untouched.
/// Known labels keep their ids; each distinct unknown label gets the id that
/// interning it into a clone of `labels` would give — dense from
/// `labels.len()`, in first-occurrence order — so the twig is identical to
/// [`parse_twig`] on a clone, without paying for the clone. Such ids name no
/// label of the table: estimators answer them as selectivity 0.
///
/// ```
/// use tl_xml::LabelInterner;
/// use tl_twig::{parse_twig, parse_twig_borrowed};
///
/// let mut it = LabelInterner::new();
/// it.intern("a");
/// let borrowed = parse_twig_borrowed("a[x][y/x]", &it).unwrap();
/// let cloned = parse_twig("a[x][y/x]", &mut it.clone()).unwrap();
/// assert_eq!(borrowed, cloned);
/// assert_eq!(it.len(), 1);
/// ```
pub fn parse_twig_borrowed(query: &str, labels: &LabelInterner) -> Result<Twig, TwigParseError> {
    // Unknown names seen so far; empty (and unallocated) for the common
    // all-known query.
    let mut unknown: Vec<String> = Vec::new();
    Parser {
        input: query.as_bytes(),
        pos: 0,
        values: None,
    }
    .parse(&mut |name| {
        if let Some(id) = labels.get(name) {
            return Ok(id);
        }
        let ix = match unknown.iter().position(|u| u == name) {
            Some(ix) => ix,
            None => {
                unknown.push(name.to_owned());
                unknown.len() - 1
            }
        };
        u32::try_from(labels.len() + ix)
            .map(tl_xml::LabelId)
            .map_err(|_| "label table overflow".to_owned())
    })
}

/// Parses a twig query against a fixed interner. Labels that do not occur in
/// `labels` produce an error — useful when a caller wants to reject queries
/// that cannot possibly match a given document. (Estimators instead treat
/// unknown labels as selectivity 0; they intern first.)
pub fn parse_twig_in(query: &str, labels: &LabelInterner) -> Result<Twig, TwigParseError> {
    Parser {
        input: query.as_bytes(),
        pos: 0,
        values: None,
    }
    .parse(&mut |name| {
        labels
            .get(name)
            .ok_or_else(|| format!("unknown label `{name}`"))
    })
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// `Some(mode)` enables value-predicate syntax.
    values: Option<ValueMode>,
}

type LabelFn<'f> = dyn FnMut(&str) -> Result<tl_xml::LabelId, String> + 'f;

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> TwigParseError {
        TwigParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn parse(mut self, intern: &mut LabelFn<'_>) -> Result<Twig, TwigParseError> {
        self.skip_ws();
        // Optional leading '/' or '//'.
        while self.peek() == Some(b'/') {
            self.pos += 1;
        }
        self.skip_ws();
        let name = self.read_name()?;
        let label = intern(&name).map_err(|m| self.error(m))?;
        let mut twig = Twig::single(label);
        self.parse_rest(twig.root(), &mut twig, intern)?;
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.error("trailing input after twig"));
        }
        Ok(twig)
    }

    /// Parses predicates and a trailing `/step` chain under `node`.
    fn parse_rest(
        &mut self,
        node: TwigNodeId,
        twig: &mut Twig,
        intern: &mut LabelFn<'_>,
    ) -> Result<(), TwigParseError> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'=') => {
                    // Value predicate directly on this step: name="lit".
                    self.parse_value_predicate(node, twig, intern)?;
                }
                Some(b'[') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() == Some(b'=') {
                        // [="literal"] — value predicate on `node`.
                        self.parse_value_predicate(node, twig, intern)?;
                    } else {
                        let name = self.read_name()?;
                        let label = intern(&name).map_err(|m| self.error(m))?;
                        let child = twig.add_child(node, label);
                        self.parse_rest(child, twig, intern)?;
                    }
                    self.skip_ws();
                    if self.peek() != Some(b']') {
                        return Err(self.error("expected ']'"));
                    }
                    self.pos += 1;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'/') {
                        return Err(self.error(
                            "descendant axis `//` is only allowed at the start of the query",
                        ));
                    }
                    self.skip_ws();
                    let name = self.read_name()?;
                    let label = intern(&name).map_err(|m| self.error(m))?;
                    let child = twig.add_child(node, label);
                    return self.parse_rest(child, twig, intern);
                }
                _ => return Ok(()),
            }
        }
    }

    /// Parses `= "literal"` and attaches the value label as a child of
    /// `node`.
    fn parse_value_predicate(
        &mut self,
        node: TwigNodeId,
        twig: &mut Twig,
        intern: &mut LabelFn<'_>,
    ) -> Result<(), TwigParseError> {
        debug_assert_eq!(self.peek(), Some(b'='));
        let Some(mode) = self.values else {
            return Err(self.error(
                "value predicates require parse_twig_valued with the document's ValueMode",
            ));
        };
        self.pos += 1;
        self.skip_ws();
        let literal = self.read_string_literal()?;
        let Some(value_label) = mode.value_label(&literal) else {
            return Err(self
                .error("value predicate literal is empty or values are ignored by the ValueMode"));
        };
        let label = intern(&value_label).map_err(|m| self.error(m))?;
        twig.add_child(node, label);
        Ok(())
    }

    /// Reads a double-quoted string literal with `\"` and `\\` escapes.
    fn read_string_literal(&mut self) -> Result<String, TwigParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected a double-quoted literal"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string literal")),
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\')) => {
                            out.push(c);
                            self.pos += 1;
                        }
                        _ => return Err(self.error("invalid escape in string literal")),
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
        String::from_utf8(out).map_err(|_| self.error("literal is not valid UTF-8"))
    }

    fn read_name(&mut self) -> Result<String, TwigParseError> {
        let start = self.pos;
        let first = self.peek().ok_or_else(|| self.error("expected a name"))?;
        if !(first.is_ascii_alphabetic()
            || first == b'_'
            || first == b'@'
            || first == b':'
            || first >= 0x80)
        {
            return Err(self.error("expected a name"));
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric()
                || matches!(b, b'_' | b'@' | b':' | b'.' | b'-')
                || b >= 0x80
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .map(str::to_owned)
            .map_err(|_| self.error("name is not valid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(q: &str) -> (Twig, LabelInterner) {
        let mut it = LabelInterner::new();
        let t = parse_twig(q, &mut it).unwrap();
        (t, it)
    }

    use super::parse_twig_valued;

    #[test]
    fn single_node() {
        let (t, it) = parse("laptop");
        assert_eq!(t.len(), 1);
        assert_eq!(it.resolve(t.label(t.root())), "laptop");
    }

    #[test]
    fn plain_path() {
        let (t, _) = parse("a/b/c/d");
        assert!(t.is_path());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn figure1_query() {
        let (t, it) = parse("//laptop[brand][price]");
        assert_eq!(t.len(), 3);
        assert_eq!(t.children(t.root()).len(), 2);
        assert_eq!(t.to_query_string(&it), "laptop[brand][price]");
    }

    #[test]
    fn nested_predicates_and_paths() {
        let (t, it) = parse("a[b[d]][c/e]");
        assert_eq!(t.len(), 5);
        assert_eq!(t.to_query_string(&it), "a[b[d]][c[e]]");
    }

    #[test]
    fn predicate_then_path_continuation() {
        // a[b]/c : both b and c are children of a.
        let (t, _) = parse("a[b]/c");
        assert_eq!(t.children(t.root()).len(), 2);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let (t, _) = parse("  a [ b ] / c ");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn round_trip_through_query_string() {
        let (t, it) = parse("r[a[x][y]][b/z]");
        let s = t.to_query_string(&it);
        let mut it2 = it.clone();
        let t2 = parse_twig(&s, &mut it2).unwrap();
        assert_eq!(
            crate::canonical::key_of(&t),
            crate::canonical::key_of(&t2),
            "parse(to_query_string(t)) is isomorphic to t"
        );
    }

    #[test]
    fn errors_unclosed_bracket() {
        let mut it = LabelInterner::new();
        let err = parse_twig("a[b", &mut it).unwrap_err();
        assert!(err.message.contains("']'"), "{err}");
    }

    #[test]
    fn errors_trailing_garbage() {
        let mut it = LabelInterner::new();
        let err = parse_twig("a]b", &mut it).unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn errors_empty_input() {
        let mut it = LabelInterner::new();
        assert!(parse_twig("", &mut it).is_err());
        assert!(parse_twig("   ", &mut it).is_err());
    }

    #[test]
    fn errors_mid_query_descendant_axis() {
        let mut it = LabelInterner::new();
        let err = parse_twig("a//b", &mut it).unwrap_err();
        assert!(err.message.contains("descendant"), "{err}");
    }

    #[test]
    fn borrowed_parse_matches_parse_on_a_clone() {
        let mut it = LabelInterner::new();
        for l in ["a", "b", "c"] {
            it.intern(l);
        }
        for q in ["a/b", "a[zz][b/yy][c/zz]", "q", "q[q][r/q]", "//b[c][x]"] {
            let borrowed = parse_twig_borrowed(q, &it).unwrap();
            let cloned = parse_twig(q, &mut it.clone()).unwrap();
            assert_eq!(borrowed, cloned, "{q}");
        }
        assert_eq!(it.len(), 3, "the borrowed table is never extended");
        assert!(parse_twig_borrowed("a[[", &it).is_err());
    }

    #[test]
    fn fixed_interner_rejects_unknown_labels() {
        let mut it = LabelInterner::new();
        it.intern("a");
        assert!(parse_twig_in("a", &it).is_ok());
        let err = parse_twig_in("a/b", &it).unwrap_err();
        assert!(err.message.contains("unknown label"), "{err}");
    }

    #[test]
    fn value_predicate_as_child_edge() {
        use tl_xml::ValueMode;
        let mut it = LabelInterner::new();
        let t = parse_twig_valued("laptop[brand=\"Dell\"]", &mut it, ValueMode::AsLabels).unwrap();
        // laptop -> brand -> =Dell
        assert_eq!(t.len(), 3);
        let brand = t.children(t.root())[0];
        let value = t.children(brand)[0];
        assert_eq!(it.resolve(t.label(value)), "=Dell");
    }

    #[test]
    fn value_predicate_on_current_step() {
        use tl_xml::ValueMode;
        let mut it = LabelInterner::new();
        let t = parse_twig_valued("price[=\"999\"]", &mut it, ValueMode::AsLabels).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(it.resolve(t.label(t.children(t.root())[0])), "=999");
    }

    #[test]
    fn value_predicate_bucketed_matches_document_mode() {
        use tl_xml::ValueMode;
        let mode = ValueMode::Bucketed(32);
        let mut it = LabelInterner::new();
        let t = parse_twig_valued("b[=\"Dell\"]", &mut it, mode).unwrap();
        let expected = mode.value_label("Dell").unwrap();
        assert_eq!(it.resolve(t.label(t.children(t.root())[0])), expected);
    }

    #[test]
    fn escapes_in_literals() {
        use tl_xml::ValueMode;
        let mut it = LabelInterner::new();
        let t = parse_twig_valued("a[=\"say \\\"hi\\\"\"]", &mut it, ValueMode::AsLabels).unwrap();
        assert_eq!(it.resolve(t.label(t.children(t.root())[0])), "=say \"hi\"");
    }

    #[test]
    fn plain_parser_rejects_value_predicates() {
        let mut it = LabelInterner::new();
        let err = parse_twig("a[b=\"Dell\"]", &mut it).unwrap_err();
        assert!(err.message.contains("parse_twig_valued"), "{err}");
    }

    #[test]
    fn unterminated_literal_is_an_error() {
        use tl_xml::ValueMode;
        let mut it = LabelInterner::new();
        let err = parse_twig_valued("a[=\"oops]", &mut it, ValueMode::AsLabels).unwrap_err();
        assert!(err.message.contains("unterminated"), "{err}");
    }

    #[test]
    fn mixed_structure_and_value_predicates() {
        use tl_xml::ValueMode;
        let mut it = LabelInterner::new();
        let t = parse_twig_valued(
            "movie[title=\"Heat\"][cast/actor[role=\"lead\"]]",
            &mut it,
            ValueMode::AsLabels,
        )
        .unwrap();
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn attribute_style_names() {
        let (t, it) = parse("item[@id]");
        assert_eq!(t.len(), 2);
        assert_eq!(it.resolve(t.label(t.children(t.root())[0])), "@id");
    }
}
