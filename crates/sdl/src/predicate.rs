//! SDL constraints and predicates (paper Definition 1).

use crate::error::{SdlError, SdlResult};
use charles_store::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// The three constraint forms of SDL.
///
/// `Range` carries an `hi_inclusive` flag because the CUT primitive
/// (Definition 5) produces half-open left pieces `[min, med[`; the paper's
/// surface syntax for closed ranges maps to `hi_inclusive == true`.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// No constraint (`Attr:`). Matches every (non-null) value.
    Any,
    /// Range constraint (`Attr: [a0, a1]` or the half-open `[a0, a1[`).
    Range {
        /// Inclusive lower bound.
        lo: Value,
        /// Upper bound.
        hi: Value,
        /// Whether `hi` itself is included.
        hi_inclusive: bool,
    },
    /// Set constraint (`Attr: {a0, …, aK}`). Values are kept de-duplicated
    /// and in insertion order (which CUT makes meaningful: frequency or
    /// alphabetical order).
    Set(Vec<Value>),
}

impl Constraint {
    /// Closed range constructor with validation (`lo ≤ hi`, comparable).
    pub fn range(lo: Value, hi: Value) -> SdlResult<Constraint> {
        Constraint::range_with(lo, hi, true)
    }

    /// Range constructor with explicit upper-bound inclusivity.
    ///
    /// Half-open ranges over discrete types (two `Int` or two `Date`
    /// bounds) are normalised to the closed form by decrementing the upper
    /// bound: `[1000, 1151[` becomes `[1000, 1150]`. This is how Figure 1
    /// of the paper displays integer cut pieces (`tonnage: 1000,1150` /
    /// `1151,1300`), and it makes the rendered syntax round-trip through
    /// the parser structurally.
    pub fn range_with(lo: Value, hi: Value, hi_inclusive: bool) -> SdlResult<Constraint> {
        let (hi, hi_inclusive) = match closed_upper(&lo, &hi, hi_inclusive) {
            Some(closed) => (closed, true),
            None => (hi, hi_inclusive),
        };
        check_bounds(&lo, &hi, hi_inclusive)?;
        Ok(Constraint::Range {
            lo,
            hi,
            hi_inclusive,
        })
    }

    /// Whether [`Constraint::range_with`] accepts these bounds, without
    /// building the range.
    pub(crate) fn range_is_valid(lo: &Value, hi: &Value, hi_inclusive: bool) -> bool {
        match closed_upper(lo, hi, hi_inclusive) {
            Some(closed) => check_bounds(lo, &closed, true),
            None => check_bounds(lo, hi, hi_inclusive),
        }
        .is_ok()
    }

    /// Set constructor: de-duplicates while preserving first occurrence
    /// order; rejects empty sets and mixed incomparable types. Two values
    /// are duplicates when [`Value::try_cmp`] finds them equal — the order
    /// set membership tests in — so `-0.0` and `0.0` both stay.
    pub fn set(values: Vec<Value>) -> SdlResult<Constraint> {
        if values.is_empty() {
            return Err(SdlError::Malformed("empty set constraint".into()));
        }
        let mut out: Vec<Value> = Vec::with_capacity(values.len());
        for v in values {
            if let Some(first) = out.first() {
                if !first.comparable_with(&v) {
                    return Err(SdlError::Malformed(format!(
                        "set mixes incomparable values {first} and {v}"
                    )));
                }
            }
            if !out.iter().any(|w| same_member(w, &v)) {
                out.push(v);
            }
        }
        Ok(Constraint::Set(out))
    }

    /// True when this is the unconstrained form.
    pub(crate) fn is_any(&self) -> bool {
        matches!(self, Constraint::Any)
    }

    /// Whether a single value satisfies the constraint. Incomparable
    /// values simply do not match (they cannot occur when the constraint
    /// was built against the column's type).
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            Constraint::Any => true,
            Constraint::Range {
                lo,
                hi,
                hi_inclusive,
            } => {
                let ge = matches!(v.try_cmp(lo), Ok(Ordering::Greater | Ordering::Equal));
                let le = match v.try_cmp(hi) {
                    Ok(Ordering::Less) => true,
                    Ok(Ordering::Equal) => *hi_inclusive,
                    _ => false,
                };
                ge && le
            }
            Constraint::Set(vals) => vals
                .iter()
                .any(|w| matches!(v.try_cmp(w), Ok(Ordering::Equal))),
        }
    }

    /// Conjunction of two constraints on the same attribute. Returns
    /// `None` when the intersection is provably empty (used by PRODUCT to
    /// prune impossible cells without touching the data).
    pub fn intersect(&self, other: &Constraint) -> Option<Constraint> {
        match (self, other) {
            (Constraint::Any, c) | (c, Constraint::Any) => Some(c.clone()),
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
            ) => {
                let lo = if matches!(lo1.try_cmp(lo2), Ok(Ordering::Less)) {
                    lo2.clone()
                } else {
                    lo1.clone()
                };
                let (hi, inc) = match hi1.try_cmp(hi2) {
                    Ok(Ordering::Less) => (hi1.clone(), *inc1),
                    Ok(Ordering::Greater) => (hi2.clone(), *inc2),
                    _ => (hi1.clone(), *inc1 && *inc2),
                };
                match lo.try_cmp(&hi) {
                    Ok(Ordering::Less) => Some(Constraint::Range {
                        lo,
                        hi,
                        hi_inclusive: inc,
                    }),
                    Ok(Ordering::Equal) if inc => Some(Constraint::Range {
                        lo,
                        hi,
                        hi_inclusive: true,
                    }),
                    _ => None,
                }
            }
            (Constraint::Set(a), Constraint::Set(b)) => {
                let kept: Vec<Value> = a
                    .iter()
                    .filter(|v| {
                        b.iter()
                            .any(|w| matches!(v.try_cmp(w), Ok(Ordering::Equal)))
                    })
                    .cloned()
                    .collect();
                if kept.is_empty() {
                    None
                } else {
                    Some(Constraint::Set(kept))
                }
            }
            (Constraint::Set(vals), range @ Constraint::Range { .. })
            | (range @ Constraint::Range { .. }, Constraint::Set(vals)) => {
                let kept: Vec<Value> = vals.iter().filter(|v| range.matches(v)).cloned().collect();
                if kept.is_empty() {
                    None
                } else {
                    Some(Constraint::Set(kept))
                }
            }
        }
    }
}

/// `a.try_cmp(b) == Ok(Equal)`: whether a set holding `a` already holds
/// `b`. Two strings, and two floats (equal in the total order exactly
/// when their bits are), compare here without the call.
fn same_member(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => matches!(a.try_cmp(b), Ok(Ordering::Equal)),
    }
}

/// The closed upper bound of a half-open range over a discrete type (two
/// `Int` or two `Date` bounds): one below `hi`. `None` when the range is
/// closed, continuous, or ends at `i64::MIN` — nothing lies below that,
/// and [`check_bounds`] finds `[lo, i64::MIN[` empty as it stands.
fn closed_upper(lo: &Value, hi: &Value, hi_inclusive: bool) -> Option<Value> {
    match (lo, hi, hi_inclusive) {
        (Value::Int(_), Value::Int(h), false) => h.checked_sub(1).map(Value::Int),
        (Value::Date(_), Value::Date(h), false) => h.checked_sub(1).map(Value::Date),
        _ => None,
    }
}

/// `lo ≤ hi` (`lo < hi` when half-open), with comparable bounds.
fn check_bounds(lo: &Value, hi: &Value, hi_inclusive: bool) -> SdlResult<()> {
    match lo.try_cmp(hi) {
        Ok(Ordering::Greater) => Err(SdlError::Malformed(format!(
            "range lower bound {lo} exceeds upper bound {hi}"
        ))),
        Ok(Ordering::Equal) if !hi_inclusive => Err(SdlError::Malformed(format!(
            "half-open range [{lo},{hi}[ is empty"
        ))),
        Ok(_) => Ok(()),
        Err(_) => Err(SdlError::Malformed(format!(
            "range bounds {lo} and {hi} are not comparable"
        ))),
    }
}

/// A named constraint: one conjunct of an SDL query.
///
/// The attribute name is shared: cloning a predicate, or refining a
/// query on another attribute, copies a pointer, not the name.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Attribute (column) name.
    pub attr: Arc<str>,
    /// The constraint applied to it.
    pub constraint: Constraint,
}

impl Predicate {
    /// Build a predicate.
    pub fn new(attr: impl Into<Arc<str>>, constraint: Constraint) -> Predicate {
        Predicate {
            attr: attr.into(),
            constraint,
        }
    }

    /// Unconstrained predicate (`attr:`).
    pub fn any(attr: impl Into<Arc<str>>) -> Predicate {
        Predicate::new(attr, Constraint::Any)
    }

    /// True when the predicate actually constrains its attribute.
    pub fn is_constraining(&self) -> bool {
        !self.constraint.is_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_validation() {
        assert!(Constraint::range(Value::Int(5), Value::Int(1)).is_err());
        assert!(Constraint::range(Value::Int(1), Value::str("a")).is_err());
        assert!(Constraint::range_with(Value::Int(3), Value::Int(3), false).is_err());
        assert!(Constraint::range_with(Value::Int(3), Value::Int(3), true).is_ok());
        // Nothing lies below `i64::MIN`: a half-open range ending there
        // is empty, not wrapped round to `[lo, i64::MAX]`.
        for lo in [i64::MIN, 0] {
            assert!(Constraint::range_with(Value::Int(lo), Value::Int(i64::MIN), false).is_err());
            assert!(!Constraint::range_is_valid(
                &Value::Date(lo),
                &Value::Date(i64::MIN),
                false
            ));
        }
        assert_eq!(
            Constraint::range_with(Value::Int(i64::MIN), Value::Int(i64::MIN + 1), false),
            Ok(Constraint::Range {
                lo: Value::Int(i64::MIN),
                hi: Value::Int(i64::MIN),
                hi_inclusive: true
            })
        );
    }

    /// The members of a set constraint.
    fn members(c: &Constraint) -> usize {
        match c {
            Constraint::Set(v) => v.len(),
            _ => 0,
        }
    }

    #[test]
    fn set_validation_dedups() {
        let c = Constraint::set(vec![Value::Int(1), Value::Int(2), Value::Int(1)]).unwrap();
        assert_eq!(members(&c), 2);
        assert!(Constraint::set(vec![]).is_err());
        assert!(Constraint::set(vec![Value::Int(1), Value::str("x")]).is_err());
    }

    #[test]
    fn set_keeps_both_signed_zeros() {
        // Set membership compares in the total order, where -0.0 < 0.0:
        // IEEE `==` would fold them and the set would stop matching the
        // dropped one's rows.
        let zeros = [Value::Float(0.0), Value::Float(-0.0)];
        for spelling in [zeros.to_vec(), zeros.iter().rev().cloned().collect()] {
            let c = Constraint::set(spelling).unwrap();
            assert_eq!(members(&c), 2, "{c}");
            assert!(c.matches(&Value::Float(-0.0)) && c.matches(&Value::Float(0.0)));
        }
        // Values equal in that order are still one member.
        let c = Constraint::set(vec![Value::Float(-0.0), Value::Float(-0.0)]).unwrap();
        assert_eq!(members(&c), 1);
        assert!(!c.matches(&Value::Float(0.0)));
    }

    #[test]
    fn matches_semantics() {
        let r = Constraint::range_with(Value::Int(10), Value::Int(20), false).unwrap();
        assert!(r.matches(&Value::Int(10)));
        assert!(r.matches(&Value::Int(19)));
        assert!(!r.matches(&Value::Int(20)));
        let rc = Constraint::range(Value::Int(10), Value::Int(20)).unwrap();
        assert!(rc.matches(&Value::Int(20)));
        let s = Constraint::set(vec![Value::str("a"), Value::str("b")]).unwrap();
        assert!(s.matches(&Value::str("a")));
        assert!(!s.matches(&Value::str("c")));
        assert!(Constraint::Any.matches(&Value::Int(1)));
    }

    #[test]
    fn cross_type_numeric_matching() {
        let r = Constraint::range(Value::Float(0.5), Value::Float(2.5)).unwrap();
        assert!(r.matches(&Value::Int(1)));
        assert!(!r.matches(&Value::Int(3)));
    }

    #[test]
    fn intersect_ranges() {
        let a = Constraint::range(Value::Int(0), Value::Int(10)).unwrap();
        let b = Constraint::range(Value::Int(5), Value::Int(15)).unwrap();
        let c = a.intersect(&b).unwrap();
        assert_eq!(
            c,
            Constraint::Range {
                lo: Value::Int(5),
                hi: Value::Int(10),
                hi_inclusive: true
            }
        );
        let disjoint = Constraint::range(Value::Int(20), Value::Int(30)).unwrap();
        assert_eq!(a.intersect(&disjoint), None);
    }

    #[test]
    fn intersect_touching_ranges_depends_on_inclusivity() {
        let a = Constraint::range_with(Value::Int(0), Value::Int(10), false).unwrap();
        let b = Constraint::range(Value::Int(10), Value::Int(20)).unwrap();
        // [0,10[ ∩ [10,20] = ∅
        assert_eq!(a.intersect(&b), None);
        let a_closed = Constraint::range(Value::Int(0), Value::Int(10)).unwrap();
        // [0,10] ∩ [10,20] = [10,10]
        let c = a_closed.intersect(&b).unwrap();
        assert!(c.matches(&Value::Int(10)));
        assert!(!c.matches(&Value::Int(9)));
    }

    #[test]
    fn intersect_sets_and_mixed() {
        let s1 = Constraint::set(vec![Value::str("a"), Value::str("b")]).unwrap();
        let s2 = Constraint::set(vec![Value::str("b"), Value::str("c")]).unwrap();
        assert_eq!(
            s1.intersect(&s2),
            Some(Constraint::Set(vec![Value::str("b")]))
        );
        let s3 = Constraint::set(vec![Value::str("x")]).unwrap();
        assert_eq!(s1.intersect(&s3), None);

        let nums = Constraint::set(vec![Value::Int(1), Value::Int(5), Value::Int(9)]).unwrap();
        let r = Constraint::range(Value::Int(2), Value::Int(6)).unwrap();
        assert_eq!(
            nums.intersect(&r),
            Some(Constraint::Set(vec![Value::Int(5)]))
        );
        assert_eq!(
            r.intersect(&nums),
            Some(Constraint::Set(vec![Value::Int(5)]))
        );
    }

    #[test]
    fn intersect_only_ever_narrows() {
        // R(c ∩ d) ⊆ R(c) ∩ R(d), and `None` only when that is empty:
        // the fact that lets a cut piece be its parent's selection
        // narrowed by its one refined conjunct. Exhaustive over closed
        // and half-open ranges with Int and Float bounds (an Int column
        // under Float bounds compares cross-type) and sets, against
        // every probe value on and between the bounds.
        let nums = [
            Value::Int(0),
            Value::Float(0.5),
            Value::Int(1),
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Int(3),
            Value::Int(4),
        ];
        let mut constraints = vec![Constraint::Any];
        for lo in &nums {
            for hi in &nums {
                for inc in [true, false] {
                    constraints.extend(Constraint::range_with(lo.clone(), hi.clone(), inc));
                }
            }
        }
        for members in [&nums[..1], &nums[1..4], &nums[2..7], &nums[5..]] {
            constraints.push(Constraint::set(members.to_vec()).unwrap());
        }
        let probes: Vec<Value> = (-1..=9).map(|i| Value::Float(i as f64 * 0.5)).collect();
        let mut proper = 0;
        for c in &constraints {
            for d in &constraints {
                let both = |v: &Value| c.matches(v) && d.matches(v);
                match c.intersect(d) {
                    Some(m) => {
                        for v in &probes {
                            assert!(!m.matches(v) || both(v), "{c:?} ∩ {d:?} = {m:?} ∌ {v}");
                        }
                        proper += usize::from(m != *c && m != *d);
                    }
                    None => assert!(!probes.iter().any(both), "{c:?} ∩ {d:?} is not empty"),
                }
            }
        }
        assert!(proper > 100, "the grid must exercise real intersections");
    }

    #[test]
    fn intersect_with_any_is_identity() {
        let r = Constraint::range(Value::Int(0), Value::Int(1)).unwrap();
        assert_eq!(Constraint::Any.intersect(&r), Some(r.clone()));
        assert_eq!(r.intersect(&Constraint::Any), Some(r.clone()));
        assert_eq!(
            Constraint::Any.intersect(&Constraint::Any),
            Some(Constraint::Any)
        );
    }

    #[test]
    fn predicate_constructors() {
        let p = Predicate::any("tonnage");
        assert!(!p.is_constraining());
        let q = Predicate::new("type", Constraint::set(vec![Value::str("jacht")]).unwrap());
        assert!(q.is_constraining());
    }
}
