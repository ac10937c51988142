//! Logical data types supported by the store.
//!
//! The paper's examples use integers ("tonnage"), reals, dates
//! ("departure_date", handled like numerics for median purposes), nominal
//! strings ("type_of_boat") and implicitly booleans. CUT's median rule
//! distinguishes exactly two families (paper §4.1): *ordered numerics*
//! (integers, reals, dates — arithmetic median) and *nominal* values
//! (frequency / alphabetical ordering).

use std::fmt;

/// The logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float. NaNs are rejected at ingestion.
    Float,
    /// Dictionary-encoded UTF-8 string (nominal attribute).
    Str,
    /// Date stored as days since 1970-01-01 (ordered like a numeric).
    Date,
    /// Boolean (treated as a two-value nominal type).
    Bool,
}

impl DataType {
    /// Whether values of this type have a meaningful arithmetic median.
    ///
    /// Per the paper: "For integers, reals, or dates, we use the arithmetic
    /// median. For nominal values, we have to make more arbitrary choices."
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float | DataType::Date)
    }

    /// Whether values of this type and `other` belong to the same
    /// comparison family: the numerics (`Int`, `Float`, `Date`) compare
    /// with each other, every other type only with itself. This is the
    /// type-level counterpart of [`crate::Value::comparable_with`] — a
    /// literal whose type fails this test against its column's type can
    /// never match a row, which is what the SDL static analyzer flags as
    /// a type mismatch before any evaluation runs.
    pub fn comparable_with(self, other: DataType) -> bool {
        self == other || (self.is_numeric() && other.is_numeric())
    }

    /// Short lowercase name used in schemas and CSV headers.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Date => "date",
            DataType::Bool => "bool",
        }
    }

    /// Parse a type name as produced by [`DataType::name`].
    pub(crate) fn parse(name: &str) -> Option<DataType> {
        match name.trim().to_ascii_lowercase().as_str() {
            "int" | "integer" | "i64" => Some(DataType::Int),
            "float" | "real" | "double" | "f64" => Some(DataType::Float),
            "str" | "string" | "text" | "varchar" => Some(DataType::Str),
            "date" => Some(DataType::Date),
            "bool" | "boolean" => Some(DataType::Bool),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_classification_matches_paper() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Float.is_numeric());
        assert!(DataType::Date.is_numeric());
        assert!(!DataType::Str.is_numeric());
        assert!(!DataType::Bool.is_numeric());
    }

    #[test]
    fn parse_round_trips_names() {
        for t in [
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Date,
            DataType::Bool,
        ] {
            assert_eq!(DataType::parse(t.name()), Some(t));
        }
    }

    #[test]
    fn parse_accepts_aliases_and_rejects_junk() {
        assert_eq!(DataType::parse("VARCHAR"), Some(DataType::Str));
        assert_eq!(DataType::parse("double"), Some(DataType::Float));
        assert_eq!(DataType::parse("blob"), None);
    }

    #[test]
    fn display_uses_short_name() {
        assert_eq!(DataType::Date.to_string(), "date");
    }

    #[test]
    fn comparability_is_family_wise() {
        assert!(DataType::Int.comparable_with(DataType::Float));
        assert!(DataType::Float.comparable_with(DataType::Date));
        assert!(DataType::Str.comparable_with(DataType::Str));
        assert!(!DataType::Str.comparable_with(DataType::Int));
        assert!(!DataType::Bool.comparable_with(DataType::Str));
        assert!(!DataType::Bool.comparable_with(DataType::Int));
    }
}
