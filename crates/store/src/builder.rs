//! Row-at-a-time construction of columnar tables.

use crate::column::Column;
use crate::datatype::DataType;
use crate::error::{StoreError, StoreResult};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

/// Accumulates rows and produces an immutable [`Table`].
#[derive(Debug, Clone)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl TableBuilder {
    /// Start building a table with the given name and an empty schema.
    pub fn new(name: impl Into<String>) -> TableBuilder {
        TableBuilder {
            name: name.into(),
            schema: Schema::new(),
            columns: Vec::new(),
            rows: 0,
        }
    }

    /// Declare a column. Panics if rows were already pushed (schema is
    /// fixed before data) or on duplicate names — both programming errors.
    pub fn add_column(&mut self, name: &str, ty: DataType) -> &mut Self {
        assert_eq!(self.rows, 0, "cannot add columns after pushing rows");
        self.schema
            .add(name, ty)
            .unwrap_or_else(|e| panic!("add_column: {e}"));
        self.columns.push(Column::new(name, ty));
        self
    }

    /// Append a fully populated row.
    pub fn push_row(&mut self, values: Vec<Value>) -> StoreResult<()> {
        self.push_row_opt(values.into_iter().map(Some).collect())
    }

    /// Append a row that may contain nulls.
    pub fn push_row_opt(&mut self, values: Vec<Option<Value>>) -> StoreResult<()> {
        if values.len() != self.schema.arity() {
            return Err(StoreError::ArityMismatch {
                expected: self.schema.arity(),
                found: values.len(),
            });
        }
        // Validate all fields before mutating any column so a failed push
        // leaves the builder consistent.
        for (col, v) in self.columns.iter().zip(&values) {
            if let Some(v) = v {
                if v.data_type() != col.data_type() {
                    return Err(StoreError::TypeMismatch {
                        column: col.name().to_string(),
                        expected: col.data_type().name().into(),
                        found: v.data_type().name().into(),
                    });
                }
            }
        }
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v)?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Finish and seal the table.
    pub fn finish(self) -> Table {
        Table::from_parts(self.name, self.schema, self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_table() {
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("s", DataType::Str);
        b.push_row(vec![Value::Int(1), Value::str("x")]).unwrap();
        b.push_row_opt(vec![None, Some(Value::str("y"))]).unwrap();
        let t = b.finish();
        assert_eq!(t.len(), 2);
        assert_eq!(t.value(1, "a").unwrap(), None);
        assert_eq!(t.value(1, "s").unwrap(), Some(Value::str("y")));
    }

    #[test]
    fn arity_mismatch_rejected_without_corruption() {
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int);
        assert!(b.push_row(vec![]).is_err());
        assert!(b.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
        b.push_row(vec![Value::Int(1)]).unwrap();
        assert_eq!(b.finish().len(), 1);
    }

    #[test]
    fn type_mismatch_checked_before_mutation() {
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("b", DataType::Int);
        // Second field is bad; first column must not grow.
        assert!(b.push_row(vec![Value::Int(1), Value::str("bad")]).is_err());
        b.push_row(vec![Value::Int(1), Value::Int(2)]).unwrap();
        let t = b.finish();
        assert_eq!(t.len(), 1);
        assert_eq!(t.column("a").unwrap().len(), 1);
        assert_eq!(t.column("b").unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot add columns")]
    fn add_column_after_rows_panics() {
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int);
        b.push_row(vec![Value::Int(1)]).unwrap();
        b.add_column("late", DataType::Int);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_column_panics() {
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int)
            .add_column("a", DataType::Str);
    }

    #[test]
    fn empty_table_is_valid() {
        let mut b = TableBuilder::new("t");
        b.add_column("a", DataType::Int);
        let t = b.finish();
        assert!(t.is_empty());
        assert_eq!(t.all_rows().count_ones(), 0);
    }
}
