//! Paper-style rendering of SDL constructs.
//!
//! The grammar printed here is exactly what [`crate::parser`] accepts, so
//! `parse(render(x)) == x` — a property the test suites lean on.
//!
//! * query — `(date: [1550,1650], tonnage: , type: {jacht, fluit})`
//! * half-open float range — `[0.5,2.5[` (the paper's `[min, med[`)
//! * segmentation — one query per line, also written a predicate at a
//!   time by [`RenderCursor`]

use crate::predicate::{Constraint, Predicate};
use crate::query::Query;
use crate::segmentation::Segmentation;
use charles_store::Value;
use std::fmt;

/// Render a literal, quoting strings that would not survive re-parsing as
/// bare tokens (spaces, punctuation, or an all-digit spelling).
pub(crate) fn render_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => {
            let bare_safe = !s.is_empty()
                && s.chars()
                    .all(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.')
                && !s.chars().all(|c| c.is_ascii_digit())
                && !matches!(s.as_str(), "true" | "false");
            if bare_safe {
                s.clone()
            } else {
                format!("'{}'", s.replace('\'', "''"))
            }
        }
        other => other.render(),
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Any => Ok(()),
            Constraint::Range {
                lo,
                hi,
                hi_inclusive,
            } => {
                let close = if *hi_inclusive { "]" } else { "[" };
                write!(f, "[{},{}{close}", render_literal(lo), render_literal(hi))
            }
            Constraint::Set(vals) => {
                write!(f, "{{")?;
                for (i, v) in vals.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", render_literal(v))?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.constraint.is_any() {
            write!(f, "{}: ", self.attr)
        } else {
            write!(f, "{}: {}", self.attr, self.constraint)
        }
    }
}

/// How many chunks [`write_chunk`] renders `q` in: one per predicate,
/// and one for a query of none.
fn chunk_count(q: &Query) -> usize {
    q.predicates().len().max(1)
}

/// Chunk `i` of `q`'s render: predicate `i`, after the opening
/// parenthesis if it is the first and after `", "` if not, and before
/// the closing parenthesis if it is the last. A query of no predicates
/// is the one chunk `()`.
fn write_chunk(q: &Query, i: usize, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_str(if i == 0 { "(" } else { ", " })?;
    if let Some(p) = q.predicates().get(i) {
        write!(out, "{p}")?;
    }
    if i + 1 >= q.predicates().len() {
        out.write_char(')')?;
    }
    Ok(())
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (0..chunk_count(self)).try_for_each(|i| write_chunk(self, i, f))
    }
}

impl fmt::Display for Segmentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut cursor = RenderCursor::new(self);
        while cursor.write_next(f)? {}
        Ok(())
    }
}

/// A segmentation's render, written one predicate at a time: what
/// [`Segmentation`]'s `Display` writes, in the same chunks, for a reader
/// that needs only a prefix of it — two renders compared up to their
/// first difference, say.
#[derive(Debug, Clone)]
pub struct RenderCursor<'a> {
    queries: &'a [Query],
    query: usize,
    chunk: usize,
}

impl<'a> RenderCursor<'a> {
    /// A cursor at the start of `segmentation`'s render.
    pub fn new(segmentation: &'a Segmentation) -> RenderCursor<'a> {
        RenderCursor {
            queries: segmentation.queries(),
            query: 0,
            chunk: 0,
        }
    }

    /// Write the next chunk of the render to `out`: one predicate with
    /// the punctuation around it, after a newline when it opens a query
    /// that is not the first. `Ok(false)`, with nothing written, once
    /// the whole render has been.
    pub fn write_next(&mut self, out: &mut impl fmt::Write) -> Result<bool, fmt::Error> {
        let Some(q) = self.queries.get(self.query) else {
            return Ok(false);
        };
        if self.chunk == 0 && self.query > 0 {
            out.write_char('\n')?;
        }
        write_chunk(q, self.chunk, out)?;
        self.chunk += 1;
        if self.chunk == chunk_count(q) {
            self.query += 1;
            self.chunk = 0;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Constraint;

    #[test]
    fn literal_quoting() {
        assert_eq!(render_literal(&Value::str("jacht")), "jacht");
        assert_eq!(render_literal(&Value::str("de lange")), "'de lange'");
        assert_eq!(render_literal(&Value::str("1234")), "'1234'");
        assert_eq!(render_literal(&Value::str("o'neill")), "'o''neill'");
        assert_eq!(render_literal(&Value::str("true")), "'true'");
        assert_eq!(render_literal(&Value::Int(12)), "12");
    }

    #[test]
    fn constraint_rendering() {
        assert_eq!(
            Constraint::range(Value::Int(1550), Value::Int(1650))
                .unwrap()
                .to_string(),
            "[1550,1650]"
        );
        assert_eq!(
            Constraint::range_with(Value::Float(0.5), Value::Float(2.5), false)
                .unwrap()
                .to_string(),
            "[0.5,2.5["
        );
        assert_eq!(
            Constraint::set(vec![Value::str("jacht"), Value::str("fluit")])
                .unwrap()
                .to_string(),
            "{jacht, fluit}"
        );
    }

    #[test]
    fn int_half_open_renders_closed() {
        // [1000, 1151[ over ints normalises to the Figure 1 form.
        let c = Constraint::range_with(Value::Int(1000), Value::Int(1151), false).unwrap();
        assert_eq!(c.to_string(), "[1000,1150]");
    }

    #[test]
    fn query_rendering_matches_paper_example() {
        let q = Query::new(vec![
            Predicate::new(
                "date",
                Constraint::range(Value::Int(1550), Value::Int(1650)).unwrap(),
            ),
            Predicate::any("tonnage"),
            Predicate::new(
                "type",
                Constraint::set(vec![Value::str("jacht"), Value::str("fluit")]).unwrap(),
            ),
        ])
        .unwrap();
        assert_eq!(
            q.to_string(),
            "(date: [1550,1650], tonnage: , type: {jacht, fluit})"
        );
    }

    #[test]
    fn segmentation_renders_one_query_per_line() {
        let q1 = Query::wildcard(&["a"]);
        let q2 = Query::wildcard(&["b"]);
        let s = Segmentation::new(vec![q1, q2]);
        assert_eq!(s.to_string(), "(a: )\n(b: )");
    }
}
