//! Paper-style rendering of SDL constructs.
//!
//! The grammar printed here is exactly what [`crate::parser`] accepts, so
//! `parse(render(x)) == x` — a property the test suites lean on.
//!
//! * query — `(date: [1550,1650], tonnage: , type: {jacht, fluit})`
//! * half-open float range — `[0.5,2.5[` (the paper's `[min, med[`)
//! * segmentation — one query per line

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

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.predicates().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Segmentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, q) in self.queries().iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{q}")?;
        }
        Ok(())
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
