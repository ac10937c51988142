//! SDL queries (paper Definition 2): conjunctions of predicates.

use crate::error::{SdlError, SdlResult};
use crate::predicate::{Constraint, Predicate};
use charles_store::Value;
use std::cmp::Ordering;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// An SDL query `Q = (C0, C1, …, CN)`.
///
/// Attribute order is preserved (it is how the user framed the context and
/// how the paper prints queries). Each attribute appears at most once;
/// refining an attribute's constraint goes through [`Query::refined`],
/// which intersects with any existing constraint — exactly what the CUT
/// primitive needs when it narrows a piece that is already constrained.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    predicates: Vec<Predicate>,
}

impl Query {
    /// Query over the given attributes with no constraints — the typical
    /// starting context ("the whole database, these columns").
    pub fn wildcard(attrs: &[&str]) -> Query {
        Query {
            predicates: attrs.iter().map(|a| Predicate::any(*a)).collect(),
        }
    }

    /// Build from explicit predicates. Rejects duplicate attributes.
    pub fn new(predicates: Vec<Predicate>) -> SdlResult<Query> {
        for (i, p) in predicates.iter().enumerate() {
            if predicates[..i].iter().any(|q| q.attr == p.attr) {
                return Err(SdlError::Malformed(format!(
                    "attribute {:?} appears twice in query",
                    p.attr
                )));
            }
        }
        Ok(Query { predicates })
    }

    /// Build a raw conjunction from predicates, **permitting repeated
    /// attributes** — `(a: [0,100], a: [50,200])` is a legal conjunction
    /// meaning `a ∈ [0,100] ∧ a ∈ [50,200]`. Every evaluation path
    /// (lowering, [`Query::matches_row`], canonicalization) already
    /// treats the predicate list as an AND, so repeats are sound; the
    /// static analyzer ([`crate::analyze()`]) merges them into one
    /// constraint per attribute (or proves the conjunction empty). Use
    /// [`Query::new`] when repeated attributes should be an error.
    pub fn conjunction(predicates: Vec<Predicate>) -> Query {
        Query { predicates }
    }

    /// Whether any attribute appears in more than one conjunct (only
    /// possible for queries built with [`Query::conjunction`], e.g. by
    /// the parser). Such queries are advised on in merged, normalized
    /// form — see [`crate::analyze()`].
    pub fn has_repeated_attributes(&self) -> bool {
        self.predicates
            .iter()
            .enumerate()
            .any(|(i, p)| self.predicates[..i].iter().any(|q| q.attr == p.attr))
    }

    /// The predicates in declaration order.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// All attributes mentioned by the query (constrained or not). This is
    /// the exploration scope: "we choose to restrict the exploration to
    /// the columns mentioned by the user" (§2).
    pub fn attributes(&self) -> Vec<&str> {
        self.predicates.iter().map(|p| &*p.attr).collect()
    }

    /// Only the attributes that carry an actual constraint.
    pub fn constrained_attributes(&self) -> Vec<&str> {
        self.predicates
            .iter()
            .filter(|p| p.is_constraining())
            .map(|p| &*p.attr)
            .collect()
    }

    /// Number of constraining predicates — the per-query complexity that
    /// the simplicity metric maximises over (§3 SIMPLICITY).
    pub fn constraint_count(&self) -> usize {
        self.predicates
            .iter()
            .filter(|p| p.is_constraining())
            .count()
    }

    /// The constraint on an attribute, if the attribute is mentioned.
    pub fn constraint(&self, attr: &str) -> Option<&Constraint> {
        self.predicates
            .iter()
            .find(|p| &*p.attr == attr)
            .map(|p| &p.constraint)
    }

    /// Whether the query mentions an attribute at all.
    pub fn mentions(&self, attr: &str) -> bool {
        self.predicates.iter().any(|p| &*p.attr == attr)
    }

    /// Refine the query with an additional constraint on `attr` — the
    /// `(Q, attk: […])` notation of Definition 5. If the attribute already
    /// carries a constraint the two are intersected; `None` is returned
    /// when the intersection is provably empty. Attributes not yet
    /// mentioned are appended (keeps PRODUCT general).
    pub fn refined(&self, attr: &str, constraint: Constraint) -> Option<Query> {
        self.clone().into_refined(attr, constraint)
    }

    /// [`Query::refined`] of an owned query, without cloning it. The
    /// query is consumed either way: on `None` it is gone.
    pub fn into_refined(mut self, attr: &str, constraint: Constraint) -> Option<Query> {
        match self.predicates.iter_mut().find(|p| &*p.attr == attr) {
            Some(p) => {
                let merged = p.constraint.intersect(&constraint)?;
                p.constraint = merged;
            }
            None => self.predicates.push(Predicate::new(attr, constraint)),
        }
        Some(self)
    }

    /// Conjunction of two whole queries — the cell `(Qi, Qj)` of the SDL
    /// product (Definition 8). `None` when provably empty.
    pub fn conjoin(&self, other: &Query) -> Option<Query> {
        let mut out = self.clone();
        for p in &other.predicates {
            out = out.into_refined(&p.attr, p.constraint.clone())?;
        }
        Some(out)
    }

    /// Canonical form of the query: conjuncts sorted by attribute name,
    /// set-constraint literals sorted by value order. Two queries that
    /// differ only in conjunct order, set-literal order or surface
    /// whitespace parse/canonicalize to the same `Query` — the identity
    /// the cross-session advice cache keys on (see [`Query::cache_key`]).
    ///
    /// Canonicalization never changes which rows a query selects: the
    /// conjunction is order-insensitive and set constraints are
    /// membership tests. It *does* fix a rendering (and hence an advisor
    /// attribute order), which is what makes cached advice reproducible.
    pub fn canonicalized(&self) -> Query {
        self.clone().into_canonical()
    }

    /// [`Query::canonicalized`] of an owned query, sorted in place.
    pub(crate) fn into_canonical(mut self) -> Query {
        for p in &mut self.predicates {
            if let Constraint::Set(vals) = &mut p.constraint {
                // Values within one set are comparable by construction;
                // Equal fallback keeps the sort total regardless.
                vals.sort_by(|a, b| a.try_cmp(b).unwrap_or(Ordering::Equal));
            }
        }
        self.predicates.sort_by(|a, b| a.attr.cmp(&b.attr));
        self
    }

    /// Cache key: the canonical form's structure, hashed once (see
    /// [`CacheKey`]). Equal keys imply equal selection semantics, and
    /// queries whose canonical forms differ in any attribute, constraint
    /// kind, literal (by type and exact value) or bound inclusivity get
    /// distinct keys.
    pub fn cache_key(&self) -> CacheKey {
        CacheKey::new(self.clone())
    }

    /// Whether a full tuple (attribute, value) assignment satisfies the
    /// query. Used by tests and the row-level fallback paths; bulk
    /// evaluation goes through [`crate::eval`].
    pub fn matches_row(&self, lookup: impl Fn(&str) -> Option<Value>) -> bool {
        self.predicates.iter().all(|p| {
            if !p.is_constraining() {
                return true;
            }
            match lookup(&p.attr) {
                Some(v) => p.constraint.matches(&v),
                None => false, // nulls never match a constraint
            }
        })
    }
}

/// The advice cache's key for a context: its canonical [`Query`], with
/// one hash of that structure computed when the key is made.
///
/// * The hash covers every attribute, each constraint's kind, each
///   literal by type and exact value (a `Float` by its bits) and a
///   range's `hi_inclusive`. [`Hash`] writes that one `u64`, so a map
///   keyed on `CacheKey` never walks the query again.
/// * The hash is SipHash under keys drawn once per process, as a
///   `HashMap`'s own are: contexts arrive from outside the program, and
///   must not be craftable to collide.
/// * Equality compares the structure, floats by their bits — the
///   equality `Value::try_cmp`'s total order has within one type, so
///   `-0.0` and `0.0` are different keys, as their renders are.
///
/// Two keys are equal exactly when the canonical queries render to the
/// same text, with one exception: an integral `Float` of magnitude
/// ≥ 10¹⁵ renders like the `Int` of the same value, yet a key tells the
/// two literal types apart.
#[derive(Clone)]
pub struct CacheKey {
    hash: u64,
    query: Query,
}

impl CacheKey {
    /// The key of `query`: canonicalized in place, hashed once, kept.
    pub fn new(query: Query) -> CacheKey {
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        let query = query.into_canonical();
        let mut h = KEYS.get_or_init(RandomState::new).build_hasher();
        h.write_usize(query.predicates.len());
        for p in &query.predicates {
            p.attr.hash(&mut h);
            match &p.constraint {
                Constraint::Any => h.write_u8(0),
                Constraint::Range {
                    lo,
                    hi,
                    hi_inclusive,
                } => {
                    h.write_u8(1);
                    hash_value(lo, &mut h);
                    hash_value(hi, &mut h);
                    hi_inclusive.hash(&mut h);
                }
                Constraint::Set(vals) => {
                    h.write_u8(2);
                    h.write_usize(vals.len());
                    for v in vals {
                        hash_value(v, &mut h);
                    }
                }
            }
        }
        CacheKey {
            hash: h.finish(),
            query,
        }
    }

    /// The canonical query the key was made of.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Consume the key into its canonical query.
    pub fn into_query(self) -> Query {
        self.query
    }
}

fn hash_value(v: &Value, h: &mut DefaultHasher) {
    match v {
        Value::Int(x) => {
            h.write_u8(0);
            h.write_i64(*x);
        }
        Value::Float(x) => {
            h.write_u8(1);
            h.write_u64(x.to_bits());
        }
        Value::Str(s) => {
            h.write_u8(2);
            s.hash(h);
        }
        Value::Date(x) => {
            h.write_u8(3);
            h.write_i64(*x);
        }
        Value::Bool(b) => {
            h.write_u8(4);
            b.hash(h);
        }
    }
}

/// Same type and value, a `Float` by its bits.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn same_constraint(a: &Constraint, b: &Constraint) -> bool {
    match (a, b) {
        (Constraint::Any, Constraint::Any) => true,
        (
            Constraint::Range {
                lo: lo1,
                hi: hi1,
                hi_inclusive: inc1,
            },
            Constraint::Range {
                lo: lo2,
                hi: hi2,
                hi_inclusive: inc2,
            },
        ) => inc1 == inc2 && same_value(lo1, lo2) && same_value(hi1, hi2),
        (Constraint::Set(a), Constraint::Set(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_value(x, y))
        }
        _ => false,
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &CacheKey) -> bool {
        let (a, b) = (&self.query.predicates, &other.query.predicates);
        self.hash == other.hash
            && a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(p, q)| p.attr == q.attr && same_constraint(&p.constraint, &q.constraint))
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The rendered canonical query: what a failing assertion shows.
impl fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CacheKey({})", self.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(vals: &[&str]) -> Constraint {
        Constraint::set(vals.iter().map(|v| Value::str(*v)).collect()).unwrap()
    }

    #[test]
    fn clones_and_refinements_share_the_attribute_names() {
        let names: Vec<String> = (0..48).map(|i| format!("c{i}")).collect();
        let q = Query::wildcard(&names.iter().map(String::as_str).collect::<Vec<_>>());
        let range = || Constraint::range(Value::Int(0), Value::Int(9)).unwrap();
        let copies = [
            q.clone(),
            q.refined("c17", range()).unwrap(),
            q.clone().into_refined("c40", range()).unwrap(),
        ];
        for copy in &copies {
            assert_eq!(copy.predicates().len(), 48);
            for (a, b) in q.predicates().iter().zip(copy.predicates()) {
                assert!(std::sync::Arc::ptr_eq(&a.attr, &b.attr), "{}", a.attr);
            }
        }
    }

    #[test]
    fn wildcard_mentions_but_does_not_constrain() {
        let q = Query::wildcard(&["a", "b"]);
        assert_eq!(q.attributes(), vec!["a", "b"]);
        assert!(q.constrained_attributes().is_empty());
        assert_eq!(q.constraint_count(), 0);
    }

    #[test]
    fn duplicate_attributes_rejected() {
        let err = Query::new(vec![Predicate::any("a"), Predicate::any("a")]).unwrap_err();
        assert!(matches!(err, SdlError::Malformed(_)));
    }

    #[test]
    fn conjunction_permits_and_detects_repeats() {
        let q = Query::conjunction(vec![Predicate::any("a"), Predicate::any("a")]);
        assert!(q.has_repeated_attributes());
        assert_eq!(q.predicates().len(), 2);
        // AND semantics: both conjuncts must hold.
        let q = Query::conjunction(vec![
            Predicate::new(
                "a",
                Constraint::range(Value::Int(0), Value::Int(10)).unwrap(),
            ),
            Predicate::new(
                "a",
                Constraint::range(Value::Int(5), Value::Int(20)).unwrap(),
            ),
        ]);
        assert!(q.matches_row(|_| Some(Value::Int(7))));
        assert!(!q.matches_row(|_| Some(Value::Int(3))));
        assert!(!q.matches_row(|_| Some(Value::Int(15))));
        // Duplicate-free queries report no repeats.
        assert!(!Query::wildcard(&["a", "b"]).has_repeated_attributes());
    }

    #[test]
    fn refined_replaces_any() {
        let q = Query::wildcard(&["type", "tonnage"]);
        let q2 = q.refined("type", set(&["jacht"])).unwrap();
        assert_eq!(q2.constrained_attributes(), vec!["type"]);
        assert_eq!(q2.constraint_count(), 1);
        // original untouched
        assert_eq!(q.constraint_count(), 0);
    }

    #[test]
    fn refined_intersects_existing() {
        let q = Query::wildcard(&["type"])
            .refined("type", set(&["jacht", "fluit"]))
            .unwrap();
        let q2 = q.refined("type", set(&["fluit", "pinas"])).unwrap();
        assert_eq!(
            q2.constraint("type"),
            Some(&Constraint::Set(vec![Value::str("fluit")]))
        );
        assert!(q.refined("type", set(&["galjoen"])).is_none());
        // The owned form is the same refinement.
        assert_eq!(
            q.clone().into_refined("type", set(&["fluit", "pinas"])),
            Some(q2)
        );
        assert!(q.into_refined("type", set(&["galjoen"])).is_none());
    }

    #[test]
    fn refined_appends_new_attribute() {
        let q = Query::wildcard(&["a"]);
        let q2 = q
            .refined(
                "b",
                Constraint::range(Value::Int(0), Value::Int(1)).unwrap(),
            )
            .unwrap();
        assert_eq!(q2.attributes(), vec!["a", "b"]);
    }

    #[test]
    fn conjoin_merges_attribute_wise() {
        let q1 = Query::wildcard(&["a", "b"])
            .refined(
                "a",
                Constraint::range(Value::Int(0), Value::Int(10)).unwrap(),
            )
            .unwrap();
        let q2 = Query::wildcard(&["a", "b"])
            .refined(
                "a",
                Constraint::range(Value::Int(5), Value::Int(20)).unwrap(),
            )
            .unwrap()
            .refined("b", set(&["x"]))
            .unwrap();
        let c = q1.conjoin(&q2).unwrap();
        assert!(c.constraint("a").unwrap().matches(&Value::Int(7)));
        assert!(!c.constraint("a").unwrap().matches(&Value::Int(3)));
        assert_eq!(c.constrained_attributes(), vec!["a", "b"]);
    }

    #[test]
    fn conjoin_detects_empty() {
        let q1 = Query::wildcard(&["a"])
            .refined(
                "a",
                Constraint::range(Value::Int(0), Value::Int(1)).unwrap(),
            )
            .unwrap();
        let q2 = Query::wildcard(&["a"])
            .refined(
                "a",
                Constraint::range(Value::Int(5), Value::Int(6)).unwrap(),
            )
            .unwrap();
        assert!(q1.conjoin(&q2).is_none());
    }

    #[test]
    fn canonicalized_sorts_conjuncts_and_set_literals() {
        let q1 = Query::new(vec![
            Predicate::new("type", set(&["jacht", "fluit"])),
            Predicate::any("tonnage"),
        ])
        .unwrap();
        let q2 = Query::new(vec![
            Predicate::any("tonnage"),
            Predicate::new("type", set(&["fluit", "jacht"])),
        ])
        .unwrap();
        // Different surface forms, same canonical form and key.
        assert_ne!(q1, q2);
        assert_eq!(q1.canonicalized(), q2.canonicalized());
        assert_eq!(q1.cache_key(), q2.cache_key());
        assert_eq!(
            q1.canonicalized().to_string(),
            "(tonnage: , type: {fluit, jacht})"
        );
        assert_eq!(q1.cache_key().query(), &q1.canonicalized());
        // Canonicalization is idempotent, and the owned form is the same.
        assert_eq!(q1.canonicalized().canonicalized(), q1.canonicalized());
        assert_eq!(q1.clone().into_canonical(), q1.canonicalized());
    }

    #[test]
    fn cache_key_separates_semantically_different_queries() {
        let q1 = Query::wildcard(&["type"])
            .refined("type", set(&["jacht"]))
            .unwrap();
        let q2 = Query::wildcard(&["type"])
            .refined("type", set(&["fluit"]))
            .unwrap();
        assert_ne!(q1.cache_key(), q2.cache_key());
        // Mentioning an extra (unconstrained) attribute changes the
        // exploration scope, so it must change the key too.
        let q3 = Query::wildcard(&["type", "tonnage"])
            .refined("type", set(&["jacht"]))
            .unwrap();
        assert_ne!(q1.cache_key(), q3.cache_key());
    }

    #[test]
    fn cache_key_is_injective_for_metacharacter_strings() {
        // The key is the canonical structure, and so is the render,
        // which quotes any string literal that could not re-parse as a
        // bare token — so values containing SDL metacharacters cannot
        // splice: the two-value set {a, b} and the one-value set
        // {"a, b"} get different keys and different texts (and likewise
        // for quote/brace-bearing values).
        let two = Query::wildcard(&["k"])
            .refined("k", set(&["a", "b"]))
            .unwrap();
        let one = Query::wildcard(&["k"])
            .refined("k", set(&["a, b"]))
            .unwrap();
        assert_ne!(two.cache_key(), one.cache_key());
        assert_ne!(two.to_string(), one.to_string());
        let q1 = Query::wildcard(&["k"])
            .refined("k", set(&["x'}", "y"]))
            .unwrap();
        let q2 = Query::wildcard(&["k"])
            .refined("k", set(&["x'}, y"]))
            .unwrap();
        assert_ne!(q1.cache_key(), q2.cache_key());
        assert_ne!(q1.to_string(), q2.to_string());
    }

    fn key_hash(k: &CacheKey) -> u64 {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        h.finish()
    }

    fn one(attr: &str, c: Constraint) -> Query {
        Query::new(vec![Predicate::new(attr, c)]).unwrap()
    }

    #[test]
    fn cache_key_tells_signed_zeros_and_literal_types_apart() {
        let range = |lo: f64, hi: f64| {
            one(
                "x",
                Constraint::range(Value::Float(lo), Value::Float(hi)).unwrap(),
            )
        };
        // ±0.0 are distinct in the total order every matcher uses, and
        // render apart: distinct keys.
        assert_ne!(range(-0.0, 1.0).cache_key(), range(0.0, 1.0).cache_key());
        assert_eq!(range(-0.0, 1.0).cache_key(), range(-0.0, 1.0).cache_key());
        assert_eq!(
            key_hash(&range(-0.0, 1.0).cache_key()),
            key_hash(&range(-0.0, 1.0).cache_key())
        );
        // `Int(3)` and `Float(3.0)` select the same rows but render
        // apart ("3" vs "3.0"): distinct keys, as before.
        let int = one("x", Constraint::set(vec![Value::Int(3)]).unwrap());
        let float = one("x", Constraint::set(vec![Value::Float(3.0)]).unwrap());
        assert_ne!(int.to_string(), float.to_string());
        assert_ne!(int.cache_key(), float.cache_key());
        // A half-open and a closed float range are different keys.
        let open = one(
            "x",
            Constraint::range_with(Value::Float(0.0), Value::Float(1.0), false).unwrap(),
        );
        assert_ne!(open.cache_key(), range(0.0, 1.0).cache_key());
    }

    #[test]
    fn integral_floats_from_1e15_render_like_ints_but_key_apart() {
        // The one place the structural key splits what the rendered key
        // shared: `Value::render` drops the ".0" of an integral float of
        // magnitude ≥ 10¹⁵, so it prints like the `Int` of its value.
        for x in [1e15, -1e15, 9_007_199_254_740_992.0] {
            let int = one("x", Constraint::set(vec![Value::Int(x as i64)]).unwrap());
            let float = one("x", Constraint::set(vec![Value::Float(x)]).unwrap());
            assert_eq!(int.to_string(), float.to_string(), "{x}");
            assert_ne!(int.cache_key(), float.cache_key(), "{x}");
        }
        // Just below the threshold the texts differ too.
        let int = one(
            "x",
            Constraint::set(vec![Value::Int(999_999_999_999_999)]).unwrap(),
        );
        let float = one(
            "x",
            Constraint::set(vec![Value::Float(999_999_999_999_999.0)]).unwrap(),
        );
        assert_ne!(int.to_string(), float.to_string());
    }

    #[test]
    fn matches_row_with_nulls() {
        let q = Query::wildcard(&["a", "b"])
            .refined(
                "a",
                Constraint::range(Value::Int(0), Value::Int(10)).unwrap(),
            )
            .unwrap();
        assert!(q.matches_row(|attr| match attr {
            "a" => Some(Value::Int(5)),
            _ => None,
        }));
        // Null on a constrained attribute → no match.
        assert!(!q.matches_row(|_| None));
        // Null on an unconstrained attribute is fine.
        let w = Query::wildcard(&["a", "b"]);
        assert!(w.matches_row(|_| None));
    }
}
