//! Static semantic analysis of SDL queries against a backend schema.
//!
//! Every interaction with Charles is an SDL context, and before this
//! pass existed a bad context — an unknown attribute, a string literal
//! on an integer column, a contradictory conjunction — flowed all the
//! way into `Backend::eval` and died (or silently selected nothing)
//! deep inside a drill. [`analyze`] is the admission seam that catches
//! those contexts **without reading a single row**:
//!
//! * **Typed diagnostics** with machine-readable codes
//!   ([`DiagnosticCode`]) and the offending attribute/literal: unknown
//!   attribute, literal/column type mismatch, `lo > hi` empty range,
//!   empty set, mixed-type set.
//! * **A satisfiability verdict** via per-attribute interval/set
//!   intersection (building on [`Constraint::intersect`]): a
//!   conjunction whose constraints on some attribute have an empty
//!   intersection is flagged [`Satisfiability::Unsatisfiable`] purely
//!   symbolically.
//! * **A normalized query** that merges repeated-attribute conjuncts
//!   (a range implied by a tighter range on the same attribute, or a
//!   subsumed `Any`) into one constraint per attribute and
//!   canonicalizes the result, so semantically-equal contexts collapse
//!   to one [`Query::cache_key`] and share one advice-cache entry.
//!   Unconstrained (`Any`) predicates on *distinct* attributes are
//!   deliberately kept: they define the exploration scope, so dropping
//!   them would change the advisor's answer, not just its key.
//!
//! [`analyze`] and [`admit`] are one pass. Its merge step — the
//! normalized query and the verdict on an attribute's repeated
//! conjuncts — always runs for [`analyze`]'s report; [`admit`], the
//! advisor's gate on every request, runs it only when an attribute
//! repeats, and otherwise hands the query back untouched without
//! building a normal form it would drop.
//!
//! The split between *invalid* and *unsatisfiable* matters to
//! consumers: error-class diagnostics mean the query is ill-typed for
//! this schema and should be rejected (the server answers 422
//! `invalid_context` with the diagnostics array); a valid query that is
//! provably empty is *pruned* — short-circuited to an empty result with
//! zero backend operations (422 `unsatisfiable_context`).

#![warn(missing_docs)]

use crate::predicate::{Constraint, Predicate};
use crate::query::Query;
use charles_store::{DataType, Schema, Value};
use std::fmt;
use std::sync::Arc;

/// Machine-readable diagnostic codes, stable across releases (clients
/// and tests branch on the snake_case wire names from
/// [`DiagnosticCode::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticCode {
    /// The query names an attribute the schema does not contain.
    UnknownAttribute,
    /// A literal's type family cannot match its column's type (e.g. a
    /// quoted string constraining an integer column).
    TypeMismatch,
    /// A range constraint with `lo > hi` (or an empty half-open range):
    /// no value can satisfy it.
    EmptyRange,
    /// A set constraint with no values: no value can satisfy it.
    EmptySet,
    /// A set constraint mixing incomparable value families (e.g.
    /// `{1, 'abc'}`).
    MixedTypeSet,
    /// Warning: an attribute carried several conjuncts that merged into
    /// one (the others were redundant or subsumed).
    RedundantConjunct,
    /// Warning: the conjuncts on an attribute have a provably empty
    /// intersection — the whole query selects nothing.
    UnsatisfiableConjunction,
}

impl DiagnosticCode {
    /// The stable snake_case wire name of the code.
    pub fn name(self) -> &'static str {
        match self {
            DiagnosticCode::UnknownAttribute => "unknown_attribute",
            DiagnosticCode::TypeMismatch => "type_mismatch",
            DiagnosticCode::EmptyRange => "empty_range",
            DiagnosticCode::EmptySet => "empty_set",
            DiagnosticCode::MixedTypeSet => "mixed_type_set",
            DiagnosticCode::RedundantConjunct => "redundant_conjunct",
            DiagnosticCode::UnsatisfiableConjunction => "unsatisfiable_conjunction",
        }
    }

    /// Whether this code is an error (the query is ill-typed for the
    /// schema and must be rejected) rather than a warning (the query is
    /// valid; the code annotates normalization or satisfiability).
    pub(crate) fn is_error(self) -> bool {
        !matches!(
            self,
            DiagnosticCode::RedundantConjunct | DiagnosticCode::UnsatisfiableConjunction
        )
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One analysis finding: a code, the attribute it concerns, and a
/// human-readable detail naming the offending literal or constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The machine-readable code.
    pub code: DiagnosticCode,
    /// The attribute the finding concerns.
    pub attr: String,
    /// Human-readable detail (offending literal, expected type, …).
    pub detail: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(code: DiagnosticCode, attr: impl Into<String>, detail: impl Into<String>) -> Self {
        Diagnostic {
            code,
            attr: attr.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {:?}: {}",
            self.code.name(),
            self.attr,
            self.detail
        )
    }
}

/// The satisfiability verdict of a conjunction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Satisfiability {
    /// The analysis could not prove the selection empty (it may still
    /// select zero rows of the actual data).
    Satisfiable,
    /// The selection is provably empty: no row of *any* dataset can
    /// satisfy every conjunct.
    Unsatisfiable,
}

/// The result of analyzing one query against one schema.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Findings, in attribute order (errors and warnings interleaved).
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the conjunction is provably empty.
    pub satisfiability: Satisfiability,
    /// The normalized query: one merged constraint per attribute, in
    /// canonical form. `Some` exactly when the query is valid and
    /// satisfiable.
    normalized: Option<Query>,
}

impl QueryReport {
    /// Whether the query is well-typed for the schema (no error-class
    /// diagnostics; warnings are fine).
    pub fn is_valid(&self) -> bool {
        !self.diagnostics.iter().any(|d| d.code.is_error())
    }

    /// Whether the analysis failed to prove the selection empty.
    pub fn is_satisfiable(&self) -> bool {
        self.satisfiability == Satisfiability::Satisfiable
    }

    /// Consume the report into its error-class diagnostics.
    pub fn into_errors(self) -> Vec<Diagnostic> {
        self.diagnostics
            .into_iter()
            .filter(|d| d.code.is_error())
            .collect()
    }

    /// The normalized query, when the query is valid and satisfiable.
    pub fn normalized(&self) -> Option<&Query> {
        self.normalized.as_ref()
    }
}

/// Analyze `query` against `schema`: lint every constraint, fold the
/// per-attribute intersections into a satisfiability verdict, and build
/// the normalized (merged, canonical) form. Pure and row-free — cost is
/// proportional to the query text, never to the data.
pub fn analyze(query: &Query, schema: &Schema) -> QueryReport {
    pass(query, schema, true)
}

/// Admission: `query` as the advisor should see it, or the report that
/// rejects it (invalid, or provably empty).
///
/// The same pass as [`analyze`], but its merge step runs only when an
/// attribute repeats — only then is the merged normal form what the
/// advisor sees, and only then can the conjuncts of one attribute
/// contradict each other. Otherwise the query comes back untouched and
/// no normal form is built.
pub fn admit(query: Query, schema: &Schema) -> Result<Query, QueryReport> {
    let merge = query.has_repeated_attributes();
    let report = pass(&query, schema, merge);
    if !report.is_valid() || !report.is_satisfiable() {
        return Err(report);
    }
    Ok(match report.normalized {
        Some(normalized) => normalized,
        None => query,
    })
}

/// The analysis pass. The merge step — each attribute's conjuncts
/// normalized and intersected into one constraint, and the normalized
/// query built of those — runs when `merge` is set; without it the
/// report has no normalized query, and its satisfiability verdict is
/// complete only for a query whose attributes do not repeat.
fn pass(query: &Query, schema: &Schema, merge: bool) -> QueryReport {
    let mut diagnostics = Vec::new();
    let mut provably_empty = false;
    let mut invalid = false;
    let mut merged: Vec<Predicate> = Vec::new();

    // Attributes in first-occurrence order, each analyzed once over all
    // of its conjuncts.
    let predicates = query.predicates();
    for (i, first) in predicates.iter().enumerate() {
        let attr = &*first.attr;
        if predicates[..i].iter().any(|p| &*p.attr == attr) {
            continue;
        }
        let conjuncts = || {
            predicates[i..]
                .iter()
                .filter(move |p| &*p.attr == attr)
                .map(|p| &p.constraint)
        };

        let Ok(ty) = schema.type_of(attr) else {
            diagnostics.push(Diagnostic::new(
                DiagnosticCode::UnknownAttribute,
                attr,
                format!("schema {schema} has no column {attr:?}"),
            ));
            invalid = true;
            continue;
        };

        let mut attr_ok = true;
        for c in conjuncts() {
            if let Checked::Invalid { provably_empty: e } =
                check_constraint(attr, ty, c, &mut diagnostics)
            {
                attr_ok = false;
                invalid = true;
                provably_empty |= e;
            }
        }
        if !attr_ok || !merge {
            continue;
        }

        // Fold the conjuncts' normal forms into one constraint.
        let mut normals = conjuncts().map(normal_form);
        let mut acc = normals.next().expect("every attribute has ≥ 1 conjunct");
        let mut count = 1usize;
        let mut empty = false;
        for c in normals {
            count += 1;
            match acc.intersect(&c) {
                Some(next) => acc = next,
                None => {
                    empty = true;
                    break;
                }
            }
        }
        if empty {
            diagnostics.push(Diagnostic::new(
                DiagnosticCode::UnsatisfiableConjunction,
                attr,
                format!("the {count} constraints on {attr:?} have an empty intersection"),
            ));
            provably_empty = true;
            continue;
        }
        if count > 1 {
            diagnostics.push(Diagnostic::new(
                DiagnosticCode::RedundantConjunct,
                attr,
                format!(
                    "{count} constraints on {attr:?} merge into {}",
                    Predicate::new(Arc::clone(&first.attr), acc.clone())
                ),
            ));
        }
        merged.push(Predicate::new(Arc::clone(&first.attr), acc));
    }

    let satisfiability = if provably_empty {
        Satisfiability::Unsatisfiable
    } else {
        Satisfiability::Satisfiable
    };
    let normalized = if merge && !invalid && !provably_empty {
        Some(Query::conjunction(merged).into_canonical())
    } else {
        None
    };
    QueryReport {
        diagnostics,
        satisfiability,
        normalized,
    }
}

/// Outcome of linting a single constraint.
enum Checked {
    /// Structurally valid.
    Ok,
    /// An error diagnostic was pushed; `provably_empty` is true when
    /// the constraint alone can match no value (empty range/set, or a
    /// uniformly type-mismatched literal list).
    Invalid { provably_empty: bool },
}

/// The normal form of a constraint [`check_constraint`] passed:
/// de-duplicated set, closed discrete range.
fn normal_form(c: &Constraint) -> Constraint {
    let normal = match c {
        Constraint::Any => Ok(Constraint::Any),
        Constraint::Range {
            lo,
            hi,
            hi_inclusive,
        } => Constraint::range_with(lo.clone(), hi.clone(), *hi_inclusive),
        Constraint::Set(vals) => Constraint::set(vals.clone()),
    };
    normal.expect("a checked constraint has a normal form")
}

fn type_of_value(v: &Value) -> DataType {
    v.data_type()
}

fn check_constraint(
    attr: &str,
    ty: DataType,
    c: &Constraint,
    diagnostics: &mut Vec<Diagnostic>,
) -> Checked {
    match c {
        Constraint::Any => Checked::Ok,
        Constraint::Range {
            lo,
            hi,
            hi_inclusive,
        } => {
            let mut mismatched = false;
            for bound in [lo, hi] {
                if !type_of_value(bound).comparable_with(ty) {
                    diagnostics.push(Diagnostic::new(
                        DiagnosticCode::TypeMismatch,
                        attr,
                        format!(
                            "range bound {bound} is {}, but column {attr:?} is {ty}",
                            type_of_value(bound).name()
                        ),
                    ));
                    mismatched = true;
                }
            }
            if mismatched {
                // A bound incomparable with the column never matches a
                // row of that column, so the constraint is empty too.
                return Checked::Invalid {
                    provably_empty: true,
                };
            }
            // Both bounds live in the column's family, so they are
            // mutually comparable; the validating constructor's check
            // (discrete half-open forms closed first) flags `lo > hi`.
            if Constraint::range_is_valid(lo, hi, *hi_inclusive) {
                return Checked::Ok;
            }
            diagnostics.push(Diagnostic::new(
                DiagnosticCode::EmptyRange,
                attr,
                format!(
                    "range [{lo}, {hi}{}] is empty",
                    if *hi_inclusive { "" } else { "[" }
                ),
            ));
            Checked::Invalid {
                provably_empty: true,
            }
        }
        Constraint::Set(vals) => {
            if vals.is_empty() {
                diagnostics.push(Diagnostic::new(
                    DiagnosticCode::EmptySet,
                    attr,
                    "set constraint has no values".to_string(),
                ));
                return Checked::Invalid {
                    provably_empty: true,
                };
            }
            let first = type_of_value(&vals[0]);
            if let Some(odd) = vals
                .iter()
                .find(|v| !type_of_value(v).comparable_with(first))
            {
                diagnostics.push(Diagnostic::new(
                    DiagnosticCode::MixedTypeSet,
                    attr,
                    format!(
                        "set mixes {} value {} with {} value {}",
                        first.name(),
                        vals[0],
                        type_of_value(odd).name(),
                        odd
                    ),
                ));
                // A mixed set may still contain values of the column's
                // family, so emptiness is not provable here.
                return Checked::Invalid {
                    provably_empty: false,
                };
            }
            if !first.comparable_with(ty) {
                diagnostics.push(Diagnostic::new(
                    DiagnosticCode::TypeMismatch,
                    attr,
                    format!(
                        "set value {} is {}, but column {attr:?} is {ty}",
                        vals[0],
                        first.name()
                    ),
                ));
                // Uniform family, all incomparable with the column: the
                // whole set can match nothing.
                return Checked::Invalid {
                    provably_empty: true,
                };
            }
            // Non-empty and family-uniform: `Constraint::set` accepts it.
            Checked::Ok
        }
    }
}

/// Schema-free structural well-formedness: no repeated attributes, every
/// range non-empty with comparable bounds, every set non-empty and
/// family-uniform. This is the invariant [`analyze`]'s normalized output
/// guarantees, and the precondition the SQL renderers
/// ([`crate::query_to_sql`], [`crate::segmentation_to_sql`]) debug-assert
/// before rendering SQL for an external engine.
pub fn well_formed(query: &Query) -> bool {
    if query.has_repeated_attributes() {
        return false;
    }
    query.predicates().iter().all(|p| match &p.constraint {
        Constraint::Any => true,
        Constraint::Range {
            lo,
            hi,
            hi_inclusive,
        } => match lo.try_cmp(hi) {
            Ok(std::cmp::Ordering::Less) => true,
            Ok(std::cmp::Ordering::Equal) => *hi_inclusive,
            _ => false,
        },
        Constraint::Set(vals) => {
            !vals.is_empty()
                && vals
                    .iter()
                    .all(|v| v.data_type().comparable_with(vals[0].data_type()))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_store::Schema;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("size", DataType::Int),
            ("kind", DataType::Str),
            ("score", DataType::Float),
        ])
        .unwrap()
    }

    fn codes(report: &QueryReport) -> Vec<DiagnosticCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_query_has_no_findings() {
        let q = crate::parse_query("(size: [0,10], kind: {a, b})", &schema()).unwrap();
        let r = analyze(&q, &schema());
        assert!(r.diagnostics.is_empty());
        assert!(r.is_valid());
        assert!(r.is_satisfiable());
        // The normalized form of a duplicate-free query is exactly its
        // canonical form, so cache keys are unchanged by analysis.
        assert_eq!(r.normalized(), Some(&q.canonicalized()));
    }

    #[test]
    fn unknown_attribute_diagnostic() {
        let q = Query::wildcard(&["nope", "size"]);
        let r = analyze(&q, &schema());
        assert_eq!(codes(&r), vec![DiagnosticCode::UnknownAttribute]);
        assert_eq!(r.diagnostics[0].attr, "nope");
        assert!(!r.is_valid());
        assert!(r.normalized().is_none());
    }

    #[test]
    fn type_mismatch_diagnostics() {
        // Quoted literal on an int column — the parser accepts it (a
        // quoted literal is always a string), analysis rejects it.
        let q = crate::parse_query("(size: {'abc'})", &schema()).unwrap();
        let r = analyze(&q, &schema());
        assert_eq!(codes(&r), vec![DiagnosticCode::TypeMismatch]);
        assert_eq!(r.satisfiability, Satisfiability::Unsatisfiable);
        // Range bounds too.
        let q = Query::conjunction(vec![Predicate::new(
            "size",
            Constraint::Range {
                lo: Value::str("a"),
                hi: Value::str("b"),
                hi_inclusive: true,
            },
        )]);
        let r = analyze(&q, &schema());
        assert!(codes(&r).contains(&DiagnosticCode::TypeMismatch));
        // Numerics are one family: a float range on an int column is fine.
        let q = Query::conjunction(vec![Predicate::new(
            "size",
            Constraint::range(Value::Float(0.5), Value::Float(9.5)).unwrap(),
        )]);
        assert!(analyze(&q, &schema()).is_valid());
    }

    #[test]
    fn empty_range_diagnostic() {
        let q = Query::conjunction(vec![Predicate::new(
            "size",
            Constraint::Range {
                lo: Value::Int(5),
                hi: Value::Int(3),
                hi_inclusive: true,
            },
        )]);
        let r = analyze(&q, &schema());
        assert_eq!(codes(&r), vec![DiagnosticCode::EmptyRange]);
        assert_eq!(r.satisfiability, Satisfiability::Unsatisfiable);
        assert!(!r.is_valid());
    }

    #[test]
    fn empty_set_diagnostic() {
        let q = Query::conjunction(vec![Predicate::new("kind", Constraint::Set(vec![]))]);
        let r = analyze(&q, &schema());
        assert_eq!(codes(&r), vec![DiagnosticCode::EmptySet]);
        assert_eq!(r.satisfiability, Satisfiability::Unsatisfiable);
    }

    #[test]
    fn mixed_type_set_diagnostic() {
        let q = Query::conjunction(vec![Predicate::new(
            "size",
            Constraint::Set(vec![Value::Int(1), Value::str("a")]),
        )]);
        let r = analyze(&q, &schema());
        assert_eq!(codes(&r), vec![DiagnosticCode::MixedTypeSet]);
        // Not provably empty: 1 could still match.
        assert_eq!(r.satisfiability, Satisfiability::Satisfiable);
        assert!(!r.is_valid());
    }

    #[test]
    fn unsatisfiable_conjunction_is_pruned_symbolically() {
        let q = crate::parse_query("(size: [0,10], size: [20,30])", &schema()).unwrap();
        let r = analyze(&q, &schema());
        assert_eq!(codes(&r), vec![DiagnosticCode::UnsatisfiableConjunction]);
        assert!(r.is_valid(), "warnings only");
        assert!(!r.is_satisfiable());
        assert!(r.normalized().is_none());
        // Disjoint sets prune too.
        let q = crate::parse_query("(kind: {a}, kind: {b})", &schema()).unwrap();
        assert!(!analyze(&q, &schema()).is_satisfiable());
    }

    #[test]
    fn redundant_conjuncts_merge_and_collapse_cache_keys() {
        let s = schema();
        let wide_then_tight = crate::parse_query("(size: [0,100], size: [50,200])", &s).unwrap();
        let tight = crate::parse_query("(size: [50,100])", &s).unwrap();
        let r = analyze(&wide_then_tight, &s);
        assert_eq!(codes(&r), vec![DiagnosticCode::RedundantConjunct]);
        assert!(r.is_valid() && r.is_satisfiable());
        assert_eq!(
            r.normalized().unwrap().cache_key(),
            tight.cache_key(),
            "merged conjunction must share the plain query's cache key"
        );
        // All permutations of the redundant conjuncts collapse to one key.
        let permuted = crate::parse_query("(size: [50,200], size: [0,100])", &s).unwrap();
        let rp = analyze(&permuted, &s);
        assert_eq!(
            rp.normalized().unwrap().cache_key(),
            r.normalized().unwrap().cache_key()
        );
        // A subsumed `Any` on the same attribute merges away as well.
        let with_any = crate::parse_query("(size: [50,100], size: )", &s).unwrap();
        let ra = analyze(&with_any, &s);
        assert_eq!(ra.normalized().unwrap().cache_key(), tight.cache_key());
    }

    #[test]
    fn scope_defining_any_predicates_are_kept() {
        // `(kind: , size: [0,10])` and `(size: [0,10])` are different
        // exploration scopes: normalization must not conflate them.
        let s = schema();
        let scoped = crate::parse_query("(kind: , size: [0,10])", &s).unwrap();
        let bare = crate::parse_query("(size: [0,10])", &s).unwrap();
        let rk = analyze(&scoped, &s).normalized.unwrap();
        let rb = analyze(&bare, &s).normalized.unwrap();
        assert_ne!(rk.cache_key(), rb.cache_key());
        assert!(rk.mentions("kind"));
    }

    #[test]
    fn normalization_normalizes_direct_constructed_constraints() {
        // Direct enum construction can bypass the validating
        // constructors; analysis re-normalizes (set dedup, discrete
        // half-open → closed).
        let q = Query::conjunction(vec![
            Predicate::new(
                "size",
                Constraint::Set(vec![Value::Int(2), Value::Int(1), Value::Int(2)]),
            ),
            Predicate::new(
                "score",
                Constraint::Range {
                    lo: Value::Float(0.0),
                    hi: Value::Float(1.0),
                    hi_inclusive: false,
                },
            ),
        ]);
        let r = analyze(&q, &schema());
        assert!(r.is_valid());
        let n = r.normalized.unwrap();
        assert_eq!(
            n.constraint("size"),
            Some(&Constraint::Set(vec![Value::Int(1), Value::Int(2)]))
        );
        assert!(well_formed(&n));
    }

    #[test]
    fn admission_merges_only_repeated_attributes() {
        let s = schema();
        // Unrepeated: handed back as written, even where the normal
        // form would differ (a direct-constructed duplicate).
        let q = Query::conjunction(vec![
            Predicate::new(
                "size",
                Constraint::Set(vec![Value::Int(2), Value::Int(1), Value::Int(2)]),
            ),
            Predicate::any("kind"),
        ]);
        assert_ne!(analyze(&q, &s).normalized(), Some(&q));
        assert_eq!(admit(q.clone(), &s), Ok(q));
        // Repeated: the merged, canonical normal form.
        let r = crate::parse_query("(size: [0,100], kind: , size: [50,200])", &s).unwrap();
        let merged = analyze(&r, &s).normalized.unwrap();
        assert_eq!(merged.to_string(), "(kind: , size: [50,100])");
        assert_eq!(admit(r, &s), Ok(merged));
        // Rejected: the report says why.
        let bad = admit(Query::wildcard(&["nope"]), &s).unwrap_err();
        assert_eq!(codes(&bad), vec![DiagnosticCode::UnknownAttribute]);
        let empty = crate::parse_query("(size: [0,10], size: [20,30])", &s).unwrap();
        let unsat = admit(empty, &s).unwrap_err();
        assert!(unsat.is_valid() && !unsat.is_satisfiable());
    }

    #[test]
    fn diagnostics_render_with_code_and_attr() {
        let d = Diagnostic::new(DiagnosticCode::EmptyRange, "size", "range [5, 3] is empty");
        assert_eq!(
            d.to_string(),
            "empty_range on \"size\": range [5, 3] is empty"
        );
        assert!(DiagnosticCode::EmptyRange.is_error());
        assert!(!DiagnosticCode::RedundantConjunct.is_error());
        assert!(!DiagnosticCode::UnsatisfiableConjunction.is_error());
    }

    #[test]
    fn well_formed_structural_checks() {
        let s = schema();
        assert!(well_formed(
            &crate::parse_query("(size: [0,10], kind: {a})", &s).unwrap()
        ));
        assert!(!well_formed(
            &crate::parse_query("(size: [0,10], size: [1,2])", &s).unwrap()
        ));
        assert!(!well_formed(&Query::conjunction(vec![Predicate::new(
            "size",
            Constraint::Range {
                lo: Value::Int(5),
                hi: Value::Int(3),
                hi_inclusive: true
            },
        )])));
        assert!(!well_formed(&Query::conjunction(vec![Predicate::new(
            "kind",
            Constraint::Set(vec![])
        )])));
        assert!(!well_formed(&Query::conjunction(vec![Predicate::new(
            "kind",
            Constraint::Set(vec![Value::Int(1), Value::str("a")])
        )])));
    }

    #[test]
    fn multiple_findings_accumulate() {
        let q = Query::conjunction(vec![
            Predicate::any("nope"),
            Predicate::new("kind", Constraint::Set(vec![])),
            Predicate::new(
                "size",
                Constraint::Range {
                    lo: Value::Int(9),
                    hi: Value::Int(1),
                    hi_inclusive: true,
                },
            ),
        ]);
        let r = analyze(&q, &schema());
        assert_eq!(
            codes(&r),
            vec![
                DiagnosticCode::UnknownAttribute,
                DiagnosticCode::EmptySet,
                DiagnosticCode::EmptyRange,
            ]
        );
        assert_eq!(r.into_errors().len(), 3);
    }
}
