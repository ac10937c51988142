//! SQL emission: SDL queries as `WHERE` clauses.
//!
//! The paper positions Charles as "a front-end for SQL systems. This
//! simplifies experimentation and portability of the code" (§1). This
//! module is that portability seam: any segment the advisor proposes can
//! be exported as a standard SQL statement and run against MonetDB,
//! DuckDB, SQLite, … once the user leaves the advisor.

use crate::predicate::Constraint;
use crate::query::Query;
use crate::segmentation::Segmentation;
use charles_store::Value;

/// Render a value as a SQL literal (strings quoted with `''` escaping,
/// dates quoted in ISO form).
pub(crate) fn sql_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(_) => format!("DATE '{}'", v.render()),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        other => other.render(),
    }
}

/// Quote an identifier defensively (double quotes, doubled to escape).
pub(crate) fn sql_ident(name: &str) -> String {
    if name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
    {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

/// The `WHERE` condition of a query, or `"TRUE"` for an unconstrained one.
///
/// Expects an analyzed (or constructor-validated) query: no repeated
/// attributes, no empty ranges or mixed-type sets. Rendering a malformed
/// query would ship the inconsistency into an external SQL engine where
/// it fails far from its cause, so this is debug-asserted here.
pub(crate) fn where_clause(query: &Query) -> String {
    debug_assert!(
        crate::analyze::well_formed(query),
        "where_clause expects an analyzed query; run charles_sdl::analyze first: {query}"
    );
    let parts: Vec<String> = query
        .predicates()
        .iter()
        .filter(|p| p.is_constraining())
        .map(|p| {
            let col = sql_ident(&p.attr);
            match &p.constraint {
                Constraint::Any => unreachable!("filtered above"),
                Constraint::Range {
                    lo,
                    hi,
                    hi_inclusive: true,
                } => format!("{col} BETWEEN {} AND {}", sql_literal(lo), sql_literal(hi)),
                Constraint::Range {
                    lo,
                    hi,
                    hi_inclusive: false,
                } => format!(
                    "({col} >= {} AND {col} < {})",
                    sql_literal(lo),
                    sql_literal(hi)
                ),
                Constraint::Set(vals) => {
                    let list: Vec<String> = vals.iter().map(sql_literal).collect();
                    format!("{col} IN ({})", list.join(", "))
                }
            }
        })
        .collect();
    if parts.is_empty() {
        "TRUE".to_string()
    } else {
        parts.join(" AND ")
    }
}

/// A full `SELECT *` statement for one segment.
pub fn query_to_sql(query: &Query, table: &str) -> String {
    format!(
        "SELECT * FROM {} WHERE {};",
        sql_ident(table),
        where_clause(query)
    )
}

/// One `SELECT COUNT(*)` per segment — the statements Charles would issue
/// to a SQL back-end to compute covers.
pub fn segmentation_to_sql(seg: &Segmentation, table: &str) -> Vec<String> {
    seg.queries()
        .iter()
        .map(|q| {
            format!(
                "SELECT COUNT(*) FROM {} WHERE {};",
                sql_ident(table),
                where_clause(q)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Constraint, Predicate};

    fn sample_query() -> Query {
        Query::new(vec![
            Predicate::new(
                "tonnage",
                Constraint::range(Value::Int(1000), Value::Int(1150)).unwrap(),
            ),
            Predicate::any("built"),
            Predicate::new(
                "type",
                Constraint::set(vec![Value::str("jacht"), Value::str("o'neill")]).unwrap(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn where_clause_renders_all_forms() {
        assert_eq!(
            where_clause(&sample_query()),
            "tonnage BETWEEN 1000 AND 1150 AND type IN ('jacht', 'o''neill')"
        );
    }

    #[test]
    fn half_open_float_range_uses_comparisons() {
        let q = Query::new(vec![Predicate::new(
            "score",
            Constraint::range_with(Value::Float(0.5), Value::Float(2.5), false).unwrap(),
        )])
        .unwrap();
        assert_eq!(where_clause(&q), "(score >= 0.5 AND score < 2.5)");
    }

    #[test]
    fn wildcard_query_is_true() {
        assert_eq!(where_clause(&Query::wildcard(&["a", "b"])), "TRUE");
    }

    #[test]
    fn full_statement() {
        let q = Query::wildcard(&["a"]);
        assert_eq!(query_to_sql(&q, "voc"), "SELECT * FROM voc WHERE TRUE;");
    }

    #[test]
    fn identifiers_quoted_when_needed() {
        assert_eq!(sql_ident("tonnage"), "tonnage");
        assert_eq!(sql_ident("Type"), "\"Type\"");
        assert_eq!(sql_ident("départ"), "\"départ\"");
        assert_eq!(sql_ident("0col"), "\"0col\"");
    }

    #[test]
    fn date_literals_are_typed() {
        let v = Value::parse_typed("1744-03-07", charles_store::DataType::Date).unwrap();
        assert_eq!(sql_literal(&v), "DATE '1744-03-07'");
    }

    #[test]
    fn segmentation_emits_count_statements() {
        let s =
            crate::segmentation::Segmentation::new(vec![Query::wildcard(&["a"]), sample_query()]);
        let sqls = segmentation_to_sql(&s, "voc");
        assert_eq!(sqls.len(), 2);
        assert!(sqls[0].starts_with("SELECT COUNT(*)"));
        assert!(sqls[1].contains("BETWEEN"));
    }
}
