//! Dynamically typed values: the currency between the advisor and the store.
//!
//! A [`Value`] is a single cell. Values of the same [`DataType`] form a
//! total order (floats reject NaN at construction time, so `total_cmp`
//! equals the intuitive order); cross-type comparison between `Int`,
//! `Float` and `Date` is numeric, which lets medians of integer columns be
//! reported as non-integral split points.

use crate::datatype::DataType;
use crate::error::{StoreError, StoreResult};
use std::cmp::Ordering;
use std::fmt;

/// Number of days per "month" and "year" in the simplified proleptic
/// calendar used for date literal parsing. Charles never does calendar
/// arithmetic — dates only need a total order and a median — so a
/// fixed-length calendar keeps parsing dependency-free while preserving
/// ordering for well-formed `YYYY-MM-DD` literals.
const DAYS_PER_YEAR: i64 = 372; // 12 * 31
const DAYS_PER_MONTH: i64 = 31;

/// A single dynamically typed data value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Finite 64-bit float (NaN is rejected by `Value::float`).
    Float(f64),
    /// UTF-8 string (nominal).
    Str(String),
    /// Days since epoch in the simplified calendar.
    Date(i64),
    /// Boolean.
    Bool(bool),
}

/// Wrap a raw f64 statistic back into a numeric column's value space.
/// Medians of integer/date columns are reported as floats when they fall
/// between two values (e.g. Figure 1's `tonnage: 1100,1150` boundaries
/// come from integral medians). Every backend funnels its statistics
/// through this one function so they agree bitwise on the folding.
pub fn numeric_value(ty: DataType, v: f64) -> Value {
    match ty {
        DataType::Int | DataType::Date if v.fract() == 0.0 => match ty {
            DataType::Int => Value::Int(v as i64),
            _ => Value::Date(v as i64),
        },
        _ => Value::Float(v),
    }
}

impl Value {
    /// Build a string value from anything string-like.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Build a float value, rejecting NaN (which would break ordering).
    pub(crate) fn float(v: f64) -> StoreResult<Value> {
        if v.is_nan() {
            Err(StoreError::Parse("NaN is not a valid Float value".into()))
        } else {
            Ok(Value::Float(v))
        }
    }

    /// Build a date value from a calendar triple (simplified calendar).
    pub fn date_ymd(year: i64, month: i64, day: i64) -> Value {
        Value::Date((year - 1970) * DAYS_PER_YEAR + (month - 1) * DAYS_PER_MONTH + (day - 1))
    }

    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Date(_) => DataType::Date,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Numeric view of the value, if it has one (`Int`, `Float`, `Date`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Date(v) => Some(*v as f64),
            Value::Str(_) | Value::Bool(_) => None,
        }
    }

    /// String view, if nominal.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether two values belong to the same comparison family:
    /// numerics compare with numerics, otherwise types must match exactly.
    pub fn comparable_with(&self, other: &Value) -> bool {
        let (a, b) = (self.data_type(), other.data_type());
        a == b || (a.is_numeric() && b.is_numeric())
    }

    /// Total-order comparison. Returns an error for incomparable families
    /// (e.g. `Str` vs `Int`) instead of panicking so that malformed SDL
    /// predicates surface as proper errors.
    pub fn try_cmp(&self, other: &Value) -> StoreResult<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Ok(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Ok(a.total_cmp(&b)),
                _ => Err(StoreError::TypeMismatch {
                    column: "<value comparison>".into(),
                    expected: self.data_type().name().into(),
                    found: other.data_type().name().into(),
                }),
            },
        }
    }

    /// Parse a textual literal into a value of the given type.
    pub fn parse_typed(text: &str, ty: DataType) -> StoreResult<Value> {
        let t = text.trim();
        match ty {
            DataType::Int => t
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|e| StoreError::Parse(format!("bad int literal {t:?}: {e}"))),
            DataType::Float => {
                let v = t
                    .parse::<f64>()
                    .map_err(|e| StoreError::Parse(format!("bad float literal {t:?}: {e}")))?;
                Value::float(v)
            }
            DataType::Str => Ok(Value::Str(t.to_string())),
            DataType::Bool => match t.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" | "yes" => Ok(Value::Bool(true)),
                "false" | "f" | "0" | "no" => Ok(Value::Bool(false)),
                _ => Err(StoreError::Parse(format!("bad bool literal {t:?}"))),
            },
            DataType::Date => parse_date(t),
        }
    }

    /// Render a value the way the paper renders literals: bare numbers,
    /// bare identifiers, ISO-ish dates.
    pub fn render(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Value::Str(s) => s.clone(),
            Value::Date(d) => render_date(*d),
            Value::Bool(b) => b.to_string(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Parse `YYYY-MM-DD` (or a bare year, common in the paper's examples,
/// e.g. `date: [1550, 1650]`) into a [`Value::Date`].
fn parse_date(t: &str) -> StoreResult<Value> {
    if let Ok(year) = t.parse::<i64>() {
        return Ok(Value::date_ymd(year, 1, 1));
    }
    let parts: Vec<&str> = t.split('-').collect();
    if parts.len() == 3 {
        let nums: StoreResult<Vec<i64>> = parts
            .iter()
            .map(|p| {
                p.parse::<i64>()
                    .map_err(|e| StoreError::Parse(format!("bad date {t:?}: {e}")))
            })
            .collect();
        let nums = nums?;
        let (y, m, d) = (nums[0], nums[1], nums[2]);
        if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
            return Err(StoreError::Parse(format!("date out of range: {t:?}")));
        }
        Ok(Value::date_ymd(y, m, d))
    } else {
        Err(StoreError::Parse(format!(
            "bad date literal {t:?} (expected YYYY-MM-DD or YYYY)"
        )))
    }
}

/// Render days-since-epoch back to `YYYY-MM-DD` in the simplified calendar.
fn render_date(days: i64) -> String {
    let year = 1970 + days.div_euclid(DAYS_PER_YEAR);
    let rem = days.rem_euclid(DAYS_PER_YEAR);
    let month = rem / DAYS_PER_MONTH + 1;
    let day = rem % DAYS_PER_MONTH + 1;
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_float_cross_comparison_is_numeric() {
        assert_eq!(
            Value::Int(2).try_cmp(&Value::Float(2.5)).unwrap(),
            Ordering::Less
        );
        assert_eq!(
            Value::Float(3.0).try_cmp(&Value::Int(3)).unwrap(),
            Ordering::Equal
        );
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert_eq!(
            Value::str("fluit").try_cmp(&Value::str("jacht")).unwrap(),
            Ordering::Less
        );
    }

    #[test]
    fn incomparable_families_error() {
        assert!(Value::Int(1).try_cmp(&Value::str("a")).is_err());
        assert!(!Value::Int(1).comparable_with(&Value::str("a")));
        assert!(Value::Int(1).comparable_with(&Value::Date(0)));
    }

    #[test]
    fn nan_rejected() {
        assert!(Value::float(f64::NAN).is_err());
        assert!(Value::float(1.5).is_ok());
    }

    #[test]
    fn date_parsing_orders_correctly() {
        let a = Value::parse_typed("1550", DataType::Date).unwrap();
        let b = Value::parse_typed("1650-06-15", DataType::Date).unwrap();
        assert_eq!(a.try_cmp(&b).unwrap(), Ordering::Less);
    }

    #[test]
    fn date_render_round_trip() {
        let v = Value::parse_typed("1744-03-07", DataType::Date).unwrap();
        assert_eq!(v.render(), "1744-03-07");
        let reparsed = Value::parse_typed(&v.render(), DataType::Date).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn bare_year_renders_as_january_first() {
        let v = Value::parse_typed("1700", DataType::Date).unwrap();
        assert_eq!(v.render(), "1700-01-01");
    }

    #[test]
    fn parse_typed_handles_each_type() {
        assert_eq!(
            Value::parse_typed("42", DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::parse_typed("2.5", DataType::Float).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            Value::parse_typed("Bantam", DataType::Str).unwrap(),
            Value::str("Bantam")
        );
        assert_eq!(
            Value::parse_typed("yes", DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert!(Value::parse_typed("4x2", DataType::Int).is_err());
        assert!(Value::parse_typed("maybe", DataType::Bool).is_err());
    }

    #[test]
    fn render_float_distinguishes_integral() {
        assert_eq!(Value::Float(1150.0).render(), "1150.0");
        assert_eq!(Value::Float(1150.5).render(), "1150.5");
    }

    #[test]
    fn data_type_matches_variant() {
        assert_eq!(Value::Int(0).data_type(), DataType::Int);
        assert_eq!(Value::str("x").data_type(), DataType::Str);
        assert_eq!(Value::Bool(false).data_type(), DataType::Bool);
        assert_eq!(Value::Date(0).data_type(), DataType::Date);
    }

    #[test]
    fn as_f64_only_for_numerics() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Date(10).as_f64(), Some(10.0));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Bool(true).as_f64(), None);
    }

    #[test]
    fn malformed_dates_rejected() {
        assert!(Value::parse_typed("1700-13-01", DataType::Date).is_err());
        assert!(Value::parse_typed("1700-02", DataType::Date).is_err());
        assert!(Value::parse_typed("17a0-02-01", DataType::Date).is_err());
    }
}
