//! Minimal CSV import/export with a typed header.
//!
//! Format: the header row is `name:type` pairs (types from
//! [`DataType::name`]); empty fields are NULL. Quoting supports the common
//! double-quote convention. This is enough to round-trip the synthetic
//! datasets and to let users feed their own extracts to the examples.

use crate::builder::TableBuilder;
use crate::datatype::DataType;
use crate::error::{StoreError, StoreResult};
use crate::table::Table;
use crate::value::Value;
use std::path::Path;

/// Build the positional CSV error: 1-based `line` (within the original
/// document, blank lines counted), 1-based field `column` when the
/// failure is attributable to one field.
fn csv_err(line: usize, column: Option<usize>, message: impl Into<String>) -> StoreError {
    StoreError::Csv {
        line,
        column,
        message: message.into(),
    }
}

/// Parse a CSV document (with `name:type` header) into a [`Table`].
///
/// Parse failures report their position: the 1-based line number of the
/// original document (blank lines count, though they are skipped) and,
/// when one field is to blame, the 1-based column (field index) —
/// surfaced as [`StoreError::Csv`].
pub fn read_csv_str(name: &str, text: &str) -> StoreResult<Table> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (header_no, header) = lines
        .next()
        .ok_or_else(|| StoreError::Parse("empty CSV document".into()))?;
    let header_no = header_no + 1;
    let mut builder = TableBuilder::new(name);
    let mut types = Vec::new();
    for (idx, (field, _)) in split_csv_line(header)
        .map_err(|msg| csv_err(header_no, None, msg))?
        .into_iter()
        .enumerate()
    {
        let col = Some(idx + 1);
        let (name, ty) = field.rsplit_once(':').ok_or_else(|| {
            csv_err(
                header_no,
                col,
                format!("header field {field:?} lacks :type"),
            )
        })?;
        let ty = DataType::parse(ty)
            .ok_or_else(|| csv_err(header_no, col, format!("unknown type in header: {ty:?}")))?;
        builder.add_column(name.trim(), ty);
        types.push(ty);
    }
    for (lineno, line) in lines {
        let lineno = lineno + 1;
        let fields = split_csv_line(line).map_err(|msg| csv_err(lineno, None, msg))?;
        if fields.len() != types.len() {
            return Err(csv_err(
                lineno,
                None,
                format!("expected {} fields, found {}", types.len(), fields.len()),
            ));
        }
        let mut row: Vec<Option<Value>> = Vec::with_capacity(fields.len());
        for (idx, ((field, quoted), ty)) in fields.iter().zip(&types).enumerate() {
            // A bare empty field is NULL; a quoted empty field ("") is the
            // empty string (only meaningful for string columns).
            if field.is_empty() && !quoted {
                row.push(None);
            } else {
                let v = Value::parse_typed(field, *ty).map_err(|e| {
                    let msg = match e {
                        StoreError::Parse(m) => m,
                        other => other.to_string(),
                    };
                    csv_err(lineno, Some(idx + 1), msg)
                })?;
                row.push(Some(v));
            }
        }
        builder.push_row_opt(row)?;
    }
    Ok(builder.finish())
}

/// Read a CSV file (same `name:type` header format as [`read_csv_str`])
/// into a [`Table`]. I/O failures surface as [`StoreError::Io`] with the
/// path in the message.
pub fn read_csv_file(name: &str, path: impl AsRef<Path>) -> StoreResult<Table> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| StoreError::Io(format!("reading CSV {path:?}: {e}")))?;
    read_csv_str(name, &text)
}

/// Write a table to a CSV file (the [`write_csv_string`] format).
/// Overwrites any existing file.
pub fn write_csv_file(table: &Table, path: impl AsRef<Path>) -> StoreResult<()> {
    let path = path.as_ref();
    std::fs::write(path, write_csv_string(table)?)
        .map_err(|e| StoreError::Io(format!("writing CSV {path:?}: {e}")))
}

/// Serialise a table back to the same CSV format. A column of an opened
/// table that fails to load is that error.
pub fn write_csv_string(table: &Table) -> StoreResult<String> {
    let mut out = String::new();
    let header: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .map(|c| quote_field(&format!("{}:{}", c.name, c.ty)))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    let columns = table.load_columns()?;
    for i in 0..table.len() {
        let fields: Vec<String> = columns
            .iter()
            .map(|c| match c.get(i) {
                None => String::new(),
                Some(v) => quote_field(&v.render()),
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    Ok(out)
}

/// Split one CSV line honouring double quotes (with `""` escapes).
/// Returns each field together with whether it was quoted — needed to
/// distinguish the empty string (`""`) from NULL (bare empty field).
/// Errors are bare messages; the caller attaches the line number.
fn split_csv_line(line: &str) -> Result<Vec<(String, bool)>, String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut was_quoted = false;
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() && !was_quoted => {
                in_quotes = true;
                was_quoted = true;
            }
            '"' => return Err(format!("stray quote in line {line:?}")),
            ',' if !in_quotes => {
                fields.push((std::mem::take(&mut cur), was_quoted));
                was_quoted = false;
            }
            _ => cur.push(c),
        }
    }
    if in_quotes {
        return Err(format!("unterminated quote in {line:?}"));
    }
    fields.push((cur, was_quoted));
    Ok(fields)
}

fn quote_field(s: &str) -> String {
    if s.is_empty() || s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::predicate::StorePredicate;

    const DOC: &str = "\
tonnage:int,kind:str,built:date,score:float
1000,fluit,1700-01-01,0.5
1100,jacht,1710-06-15,
,\"de, lange\",1720-01-01,2.25
";

    #[test]
    fn read_basic_document() {
        let t = read_csv_str("boats", DOC).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.schema().arity(), 4);
        assert_eq!(t.value(0, "kind").unwrap(), Some(Value::str("fluit")));
        assert_eq!(t.value(1, "score").unwrap(), None);
        assert_eq!(t.value(2, "tonnage").unwrap(), None);
        assert_eq!(t.value(2, "kind").unwrap(), Some(Value::str("de, lange")));
    }

    #[test]
    fn round_trip() {
        let t = read_csv_str("boats", DOC).unwrap();
        let text = write_csv_string(&t).unwrap();
        let t2 = read_csv_str("boats2", &text).unwrap();
        assert_eq!(t.len(), t2.len());
        for i in 0..t.len() {
            for name in t.schema().names() {
                assert_eq!(
                    t.value(i, name).unwrap(),
                    t2.value(i, name).unwrap(),
                    "row {i}, column {name}"
                );
            }
        }
    }

    #[test]
    fn loaded_table_is_queryable() {
        let t = read_csv_str("boats", DOC).unwrap();
        let n = t
            .count(&StorePredicate::range(
                "tonnage",
                Value::Int(1050),
                Value::Int(1200),
                true,
            ))
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(read_csv_str("t", "").is_err());
        assert!(read_csv_str("t", "a,b\n1,2\n").is_err()); // header lacks types
        assert!(read_csv_str("t", "a:int\n1,2\n").is_err()); // arity
        assert!(read_csv_str("t", "a:int\nxyz\n").is_err()); // bad literal
        assert!(read_csv_str("t", "a:blob\n1\n").is_err()); // unknown type
        assert!(read_csv_str("t", "a:str\n\"unterminated\n").is_err());
    }

    #[test]
    fn quotes_with_escapes() {
        let doc = "s:str\n\"say \"\"hi\"\"\"\n";
        let t = read_csv_str("t", doc).unwrap();
        assert_eq!(t.value(0, "s").unwrap(), Some(Value::str("say \"hi\"")));
    }

    #[test]
    fn empty_string_is_distinct_from_null() {
        let doc = "s:str\n\"\"\n\n"; // quoted empty, then blank line (skipped)
        let t = read_csv_str("t", doc).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.value(0, "s").unwrap(), Some(Value::str("")));
        // And a bare empty field is NULL.
        let doc = "s:str,x:int\n,1\n";
        let t = read_csv_str("t", doc).unwrap();
        assert_eq!(t.value(0, "s").unwrap(), None);
        // Round trip preserves the distinction.
        let text = write_csv_string(&t).unwrap();
        let t2 = read_csv_str("t2", &text).unwrap();
        assert_eq!(t2.value(0, "s").unwrap(), None);
    }

    #[test]
    fn blank_lines_skipped() {
        let doc = "a:int\n\n1\n\n2\n";
        let t = read_csv_str("t", doc).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        // Bad literal in field 2 of (physical) line 3.
        let doc = "a:int,b:int\n1,2\n3,oops\n";
        match read_csv_str("t", doc).unwrap_err() {
            StoreError::Csv {
                line,
                column,
                message,
            } => {
                assert_eq!((line, column), (3, Some(2)));
                assert!(message.contains("oops"), "{message}");
            }
            other => panic!("expected positional CSV error, got {other}"),
        }
        // Blank lines count toward the reported line number.
        let doc = "a:int\n\n\nbad\n";
        match read_csv_str("t", doc).unwrap_err() {
            StoreError::Csv { line, column, .. } => {
                assert_eq!((line, column), (4, Some(1)));
            }
            other => panic!("expected positional CSV error, got {other}"),
        }
        // Arity mismatch names the line, not a column.
        let doc = "a:int,b:int\n1\n";
        match read_csv_str("t", doc).unwrap_err() {
            StoreError::Csv {
                line,
                column,
                message,
            } => {
                assert_eq!((line, column), (2, None));
                assert!(message.contains("expected 2 fields"), "{message}");
            }
            other => panic!("expected positional CSV error, got {other}"),
        }
        // Header problems point at line 1 and the offending field.
        match read_csv_str("t", "a:int,b\n1,2\n").unwrap_err() {
            StoreError::Csv { line, column, .. } => {
                assert_eq!((line, column), (1, Some(2)));
            }
            other => panic!("expected positional CSV error, got {other}"),
        }
        match read_csv_str("t", "a:blob\n1\n").unwrap_err() {
            StoreError::Csv { line, column, .. } => {
                assert_eq!((line, column), (1, Some(1)));
            }
            other => panic!("expected positional CSV error, got {other}"),
        }
        // Quote errors are line-level.
        match read_csv_str("t", "a:str\n\"unterminated\n").unwrap_err() {
            StoreError::Csv { line, column, .. } => {
                assert_eq!((line, column), (2, None));
            }
            other => panic!("expected positional CSV error, got {other}"),
        }
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let t = read_csv_str("boats", DOC).unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("charles-csv-test-{}.csv", std::process::id()));
        write_csv_file(&t, &path).unwrap();
        let t2 = read_csv_file("boats2", &path).unwrap();
        assert_eq!(t2.len(), t.len());
        for i in 0..t.len() {
            for name in t.schema().names() {
                assert_eq!(t.value(i, name).unwrap(), t2.value(i, name).unwrap());
            }
        }
        std::fs::remove_file(&path).unwrap();
        // Missing file → typed Io error naming the path.
        match read_csv_file("nope", &path).unwrap_err() {
            StoreError::Io(msg) => assert!(msg.contains("charles-csv-test"), "{msg}"),
            other => panic!("expected Io error, got {other}"),
        }
    }
}
