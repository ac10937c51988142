//! Relation schemas: ordered, named, typed columns.

use crate::datatype::DataType;
use crate::error::{StoreError, StoreResult};
use std::fmt;

/// Metadata for one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Column name (unique within a schema).
    pub name: String,
    /// Logical type.
    pub ty: DataType,
}

/// An ordered set of column definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<ColumnMeta>,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Build a schema from `(name, type)` pairs, rejecting duplicates.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> StoreResult<Schema> {
        let mut s = Schema::new();
        for (name, ty) in pairs {
            s.add(name, *ty)?;
        }
        Ok(s)
    }

    /// Append a column definition.
    pub fn add(&mut self, name: &str, ty: DataType) -> StoreResult<()> {
        if self.index_of(name).is_some() {
            return Err(StoreError::DuplicateColumn(name.to_string()));
        }
        self.columns.push(ColumnMeta {
            name: name.to_string(),
            ty,
        });
        Ok(())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Position of a column by name.
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Metadata of a column by name.
    pub(crate) fn column(&self, name: &str) -> Option<&ColumnMeta> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Type of a column, as a result (for operations that require it).
    pub fn type_of(&self, name: &str) -> StoreResult<DataType> {
        self.column(name)
            .map(|c| c.ty)
            .ok_or_else(|| StoreError::UnknownColumn(name.to_string()))
    }

    /// All column metadata, in declaration order.
    pub fn columns(&self) -> &[ColumnMeta] {
        &self.columns
    }

    /// All column names, in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", c.name, c.ty)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_and_lookup() {
        let s = Schema::from_pairs(&[("tonnage", DataType::Int), ("kind", DataType::Str)]).unwrap();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.index_of("kind"), Some(1));
        assert_eq!(s.type_of("tonnage").unwrap(), DataType::Int);
        assert!(s.type_of("nope").is_err());
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::from_pairs(&[("a", DataType::Int), ("a", DataType::Str)]).unwrap_err();
        assert_eq!(err, StoreError::DuplicateColumn("a".into()));
    }

    #[test]
    fn display_format() {
        let s = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Date)]).unwrap();
        assert_eq!(s.to_string(), "(a: int, b: date)");
    }

    #[test]
    fn names_in_declaration_order() {
        let s = Schema::from_pairs(&[("z", DataType::Int), ("a", DataType::Int)]).unwrap();
        assert_eq!(s.names(), vec!["z", "a"]);
    }
}
