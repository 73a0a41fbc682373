//! The path-expression language.
//!
//! Grammar (a pragmatic subset of XPath's abbreviated syntax, with `//`
//! generalized to the *connection* axis — descendants along tree **and**
//! link edges, possibly crossing documents — plus INEX-style content
//! predicates):
//!
//! ```text
//! path  := axis step (axis step)*
//! axis  := '/' | '//'
//! step  := (tag | '*') pred?
//! tag   := [A-Za-z_][A-Za-z0-9_.-]*
//! pred  := '[' ('contains' | 'about') '(' ('.' ',')? '"' phrase '"' ')' ']'
//! ```
//!
//! A leading `/` anchors the first step at document roots; a leading `//`
//! matches the first step anywhere. `contains` requires **all** phrase
//! terms in the element's direct text (conjunctive); `about` requires
//! **any** (disjunctive) and is the ranked-retrieval form. Phrases are
//! tokenized like indexed text ([`hopi_text::tokenize`]), and a phrase
//! with no tokens is a parse error.

/// Step axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// `/` — direct parent/child tree edge.
    Child,
    /// `//` — the connection axis: any path of tree edges and links,
    /// including the node itself being a direct child (one or more edges;
    /// `a//b` requires `a →+ b`... see [`crate::eval`] for exact
    /// semantics: one or more graph edges).
    Connection,
}

/// How a content predicate combines its terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentOp {
    /// `contains(., "…")` — every term must occur in the element's text.
    Contains,
    /// `about(., "…")` — any term may occur; the ranked-retrieval form.
    About,
}

/// A content predicate attached to a step: `[contains(., "…")]` or
/// `[about(., "…")]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentPredicate {
    /// Conjunctive (`contains`) or disjunctive (`about`) term matching.
    pub op: ContentOp,
    /// The phrase as written (for display).
    pub phrase: String,
    /// The phrase's tokens, never empty (tokenized like indexed text).
    pub terms: Vec<String>,
}

impl ContentPredicate {
    /// Builds a predicate, tokenizing `phrase`; `None` when the phrase
    /// has no tokens.
    pub fn new(op: ContentOp, phrase: impl Into<String>) -> Option<Self> {
        let phrase = phrase.into();
        let terms: Vec<String> = hopi_text::tokenize(&phrase).collect();
        if terms.is_empty() {
            return None;
        }
        Some(ContentPredicate { op, phrase, terms })
    }
}

/// One step: an axis plus a node test, optionally content-qualified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// The axis connecting this step to the previous one.
    pub axis: Axis,
    /// Tag test; `None` = `*` wildcard.
    pub tag: Option<String>,
    /// Content predicate; `None` = structure-only step.
    pub predicate: Option<ContentPredicate>,
}

/// A parsed path expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathExpr {
    /// Steps in order. The first step's axis anchors it: `Child` = at
    /// document roots, `Connection` = anywhere.
    pub steps: Vec<Step>,
}

/// Parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the problem.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a path expression.
pub fn parse_path(input: &str) -> Result<PathExpr, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut steps = Vec::new();
    if bytes.is_empty() {
        return Err(ParseError {
            position: 0,
            message: "empty expression".into(),
        });
    }
    while pos < bytes.len() {
        // Axis.
        if bytes[pos] != b'/' {
            return Err(ParseError {
                position: pos,
                message: format!(
                    "expected '/' or '//', found {:?}",
                    input[pos..].chars().next()
                ),
            });
        }
        let axis = if pos + 1 < bytes.len() && bytes[pos + 1] == b'/' {
            pos += 2;
            Axis::Connection
        } else {
            pos += 1;
            Axis::Child
        };
        // Node test.
        let start = pos;
        let tag = if pos < bytes.len() && bytes[pos] == b'*' {
            pos += 1;
            None
        } else {
            while pos < bytes.len()
                && (bytes[pos].is_ascii_alphanumeric() || matches!(bytes[pos], b'_' | b'.' | b'-'))
            {
                pos += 1;
            }
            if pos == start {
                return Err(ParseError {
                    position: pos,
                    message: "expected tag name or '*'".into(),
                });
            }
            if !(bytes[start].is_ascii_alphabetic() || bytes[start] == b'_') {
                return Err(ParseError {
                    position: start,
                    message: "tag must start with a letter or '_'".into(),
                });
            }
            Some(input[start..pos].to_string())
        };
        // Optional content predicate.
        let predicate = if pos < bytes.len() && bytes[pos] == b'[' {
            Some(parse_predicate(input, &mut pos)?)
        } else {
            None
        };
        steps.push(Step {
            axis,
            tag,
            predicate,
        });
    }
    if steps.is_empty() {
        return Err(ParseError {
            position: 0,
            message: "expression has no steps".into(),
        });
    }
    Ok(PathExpr { steps })
}

/// Parses `[contains(., "…")]` / `[about(., "…")]` starting at the `[`.
fn parse_predicate(input: &str, pos: &mut usize) -> Result<ContentPredicate, ParseError> {
    let err = |position: usize, message: &str| ParseError {
        position,
        message: message.into(),
    };
    let bytes = input.as_bytes();
    *pos += 1; // consume '['
    let rest = &input[*pos..];
    let op = if let Some(r) = rest.strip_prefix("contains(") {
        *pos += rest.len() - r.len();
        ContentOp::Contains
    } else if let Some(r) = rest.strip_prefix("about(") {
        *pos += rest.len() - r.len();
        ContentOp::About
    } else {
        return Err(err(*pos, "expected 'contains(' or 'about('"));
    };
    // Optional XPath-style context argument: `., ` (whitespace tolerated).
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if bytes.get(*pos) != Some(&b',') {
            return Err(err(*pos, "expected ',' after '.'"));
        }
        *pos += 1;
        while bytes.get(*pos) == Some(&b' ') {
            *pos += 1;
        }
    }
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected '\"' opening the phrase"));
    }
    *pos += 1;
    let phrase_start = *pos;
    let Some(close) = input[*pos..].find('"') else {
        return Err(err(*pos, "unterminated phrase"));
    };
    *pos += close;
    let phrase = &input[phrase_start..*pos];
    *pos += 1; // closing quote
    if !input[*pos..].starts_with(")]") {
        return Err(err(*pos, "expected ')]' closing the predicate"));
    }
    *pos += 2;
    ContentPredicate::new(op, phrase)
        .ok_or_else(|| err(phrase_start, "phrase contains no searchable terms"))
}

impl std::fmt::Display for ContentPredicate {
    /// Writes the canonical `[op(., "phrase")]` form.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self.op {
            ContentOp::Contains => "contains",
            ContentOp::About => "about",
        };
        write!(f, "[{name}(., \"{}\")]", self.phrase)
    }
}

impl std::fmt::Display for PathExpr {
    /// Writes the canonical syntax back out.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for step in &self.steps {
            match step.axis {
                Axis::Child => write!(f, "/")?,
                Axis::Connection => write!(f, "//")?,
            }
            match &step.tag {
                Some(t) => write!(f, "{t}")?,
                None => write!(f, "*")?,
            }
            if let Some(p) = &step.predicate {
                write!(f, "{p}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_paths() {
        let p = parse_path("/site/nav").unwrap();
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::Child);
        assert_eq!(p.steps[0].tag.as_deref(), Some("site"));
        assert_eq!(p.steps[1].tag.as_deref(), Some("nav"));
    }

    #[test]
    fn parses_connection_axis() {
        let p = parse_path("//article//author").unwrap();
        assert_eq!(p.steps.len(), 2);
        assert!(p.steps.iter().all(|s| s.axis == Axis::Connection));
    }

    #[test]
    fn parses_wildcards_and_mixed_axes() {
        let p = parse_path("/a//*/b").unwrap();
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.steps[1].tag, None);
        assert_eq!(p.steps[1].axis, Axis::Connection);
        assert_eq!(p.steps[2].axis, Axis::Child);
    }

    #[test]
    fn roundtrips_display() {
        for s in [
            "/a/b",
            "//x//y",
            "/a//*/b-2",
            "//*",
            "//sec[contains(., \"xml indexing\")]",
            "//article//p[about(., \"two hop cover\")]/b",
            "//*[about(., \"hopi\")]",
        ] {
            assert_eq!(parse_path(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_path("").is_err());
        assert!(parse_path("a/b").is_err());
        assert!(parse_path("book").is_err());
        assert!(parse_path("/").is_err());
        assert!(parse_path("//").is_err());
        assert!(parse_path("/a/ /b").is_err());
        assert!(parse_path("/9tag").is_err());
    }

    #[test]
    fn parses_content_predicates() {
        let p = parse_path("//sec[contains(\"XML, indexing\")]").unwrap();
        let pred = p.steps[0].predicate.as_ref().unwrap();
        assert_eq!(pred.op, ContentOp::Contains);
        assert_eq!(pred.terms, ["xml", "indexing"]);
        let p = parse_path("//sec[about(., \"Hop\")]//b").unwrap();
        let pred = p.steps[0].predicate.as_ref().unwrap();
        assert_eq!(pred.op, ContentOp::About);
        assert_eq!(pred.terms, ["hop"]);
        assert_eq!(p.steps[1].predicate, None);
    }

    #[test]
    fn rejects_malformed_predicates() {
        assert!(parse_path("//sec[").is_err());
        assert!(parse_path("//sec[foo(\"x\")]").is_err());
        assert!(parse_path("//sec[contains(\"x\"]").is_err());
        assert!(parse_path("//sec[contains(\"x)]").is_err());
        assert!(parse_path("//sec[contains(., \"\")]").is_err()); // no terms
        assert!(parse_path("//sec[contains(., \",,\")]").is_err());
        assert!(parse_path("//sec[contains(.\"x\")]").is_err());
    }

    #[test]
    fn tags_with_punctuation() {
        let p = parse_path("/ss1.x/_priv//fig-2").unwrap();
        assert_eq!(p.steps[0].tag.as_deref(), Some("ss1.x"));
        assert_eq!(p.steps[1].tag.as_deref(), Some("_priv"));
        assert_eq!(p.steps[2].tag.as_deref(), Some("fig-2"));
    }
}
