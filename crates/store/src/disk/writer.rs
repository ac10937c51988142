//! Writing `.charles` files: one writer, [`StreamWriter`], which
//! [`write_table`] drives a whole column at a time.
//!
//! The writer is single-pass: header, schema block, column segments,
//! then the footer index — no seeks, so everything streams through a
//! `BufWriter`. Offsets, segment CRCs and the whole-file CRC accumulate
//! as bytes go out, which is what lets it emit files far larger than
//! memory: it never holds a column's data, only the current column's
//! validity bitmap and (for strings) dictionary.
//!
//! Every file orders a column's segments data · validity · dictionary,
//! because validity is only complete after a column's last value. The
//! footer's absolute offsets are normative, segment order is not (see
//! `docs/FORMAT.md`).

use super::{
    io_err, type_code, ByteWriter, ColumnSegments, Crc32, SegmentRef, ENDIAN_MARKER,
    FORMAT_VERSION, MAGIC, TRAILER_MAGIC,
};
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::datatype::DataType;
use crate::error::{StoreError, StoreResult};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;

/// A writer that tracks the absolute offset and the running whole-file
/// CRC of everything written through it.
struct TrackedWriter<W: Write> {
    inner: W,
    offset: u64,
    crc: Crc32,
    /// Incremental state of the segment currently being streamed
    /// (between [`TrackedWriter::begin_segment`] and
    /// [`TrackedWriter::end_segment`]).
    seg_start: u64,
    seg_crc: Crc32,
}

impl<W: Write> TrackedWriter<W> {
    fn new(inner: W) -> TrackedWriter<W> {
        TrackedWriter {
            inner,
            offset: 0,
            crc: Crc32::new(),
            seg_start: 0,
            seg_crc: Crc32::new(),
        }
    }

    fn write(&mut self, bytes: &[u8]) -> StoreResult<()> {
        self.inner
            .write_all(bytes)
            .map_err(|e| io_err("writing .charles file", e))?;
        self.offset += bytes.len() as u64;
        self.crc.update(bytes);
        Ok(())
    }

    /// Start an incrementally-checksummed segment at the current offset.
    fn begin_segment(&mut self) {
        self.seg_start = self.offset;
        self.seg_crc = Crc32::new();
    }

    /// Write bytes belonging to the open segment.
    fn write_seg(&mut self, bytes: &[u8]) -> StoreResult<()> {
        self.seg_crc.update(bytes);
        self.write(bytes)
    }

    /// Close the open segment and return its footer reference.
    fn end_segment(&mut self) -> SegmentRef {
        SegmentRef {
            offset: self.seg_start,
            len: self.offset - self.seg_start,
            crc: self.seg_crc.finish(),
        }
    }

    /// Write one fully-materialised segment and return its reference.
    fn segment(&mut self, bytes: &[u8]) -> StoreResult<SegmentRef> {
        self.begin_segment();
        self.write_seg(bytes)?;
        Ok(self.end_segment())
    }
}

/// Encode a column's data segment (fixed-width, little-endian; see
/// `docs/FORMAT.md` §data-segment). Float bits are written verbatim, so
/// any NaN payload a raw-loaded column carries round-trips bitwise.
fn encode_data(data: &ColumnData) -> Vec<u8> {
    match data {
        ColumnData::Int(v) | ColumnData::Date(v) => {
            let mut out = Vec::with_capacity(v.len() * 8);
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }
        ColumnData::Float(v) => {
            let mut out = Vec::with_capacity(v.len() * 8);
            for x in v {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            out
        }
        ColumnData::Str(v) => {
            let mut out = Vec::with_capacity(v.len() * 4);
            for x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }
        ColumnData::Bool(v) => v.iter().map(|&b| b as u8).collect(),
    }
}

/// Encode a string dictionary (entry count, then length-prefixed UTF-8).
fn encode_dict(dict: &[String]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(dict.len() as u32);
    for s in dict {
        w.string(s);
    }
    w.into_bytes()
}

/// Encode the schema block: table name, row count, column names/types.
fn encode_schema(name: &str, rows: usize, schema: &Schema) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.string(name);
    w.u64(rows as u64);
    w.u32(schema.arity() as u32);
    for c in schema.columns() {
        w.string(&c.name);
        w.u8(type_code(c.ty));
    }
    w.into_bytes()
}

/// Encode the footer: per-column segment index plus the whole-file CRC.
fn encode_footer(columns: &[ColumnSegments], file_crc: u32) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let seg = |w: &mut ByteWriter, s: &SegmentRef| {
        w.u64(s.offset);
        w.u64(s.len);
        w.u32(s.crc);
    };
    for c in columns {
        seg(&mut w, &c.validity);
        seg(&mut w, &c.data);
        match &c.dict {
            None => w.u8(0),
            Some(d) => {
                w.u8(1);
                seg(&mut w, d);
            }
        }
    }
    w.u32(file_crc);
    w.into_bytes()
}

/// Write `table` to `path` in the `.charles` v1 format (see
/// `docs/FORMAT.md`): a [`StreamWriter`] fed one whole column at a time.
/// Overwrites any existing file. The written file round-trips bitwise:
/// [`Table::open`] on the result yields a table whose every operation —
/// and therefore the full advisor output — is identical to running
/// against `table` directly. A column of an opened `table` that fails to
/// load is that error, and no file is written.
///
/// ```no_run
/// use charles_store::{TableBuilder, DataType, Value, disk};
///
/// let mut b = TableBuilder::new("boats");
/// b.add_column("tonnage", DataType::Int);
/// b.push_row(vec![Value::Int(1000)]).unwrap();
/// let table = b.finish();
/// disk::write_table(&table, "boats.charles").unwrap();
/// let loaded = charles_store::Table::open("boats.charles").unwrap();
/// assert_eq!(loaded.len(), 1);
/// ```
pub fn write_table(table: &Table, path: impl AsRef<Path>) -> StoreResult<()> {
    let columns = table.load_columns()?;
    let mut w = StreamWriter::create(path, table.name(), table.schema().clone(), table.len())?;
    for col in columns {
        w.append_column(col)?;
    }
    w.finish()
}

/// State held for the column currently being streamed — the *entire*
/// per-column memory footprint of a [`StreamWriter`]: one validity
/// bitmap and, for string columns, the dictionary. Data bytes go
/// straight to disk.
struct ColumnState {
    rows_written: usize,
    validity: Bitmap,
    /// Dictionary entries in first-occurrence order (string columns),
    /// so streamed codes are identical to [`Column`]'s interning.
    dict: Vec<String>,
    /// `dict` lookup index — a hash map rather than `Column`'s linear
    /// scan, because a stream may intern against the dictionary 10⁸
    /// times.
    dict_index: HashMap<String, u32>,
}

impl ColumnState {
    fn new() -> ColumnState {
        ColumnState {
            rows_written: 0,
            validity: Bitmap::new(0),
            dict: Vec::new(),
            dict_index: HashMap::new(),
        }
    }
}

/// Writes a `.charles` file **one value at a time, one column at a
/// time**, in bounded memory — the producer for datasets too large to
/// assemble as an in-memory [`Table`] first (a 10⁸-row table is tens of
/// GB materialised; this writer holds one validity bitmap and one
/// string dictionary at a time).
///
/// The protocol is column-major, matching the file layout: declare the
/// schema and exact row count up front, then for each schema column in
/// order, [`StreamWriter::append`] every row's value and call
/// [`StreamWriter::end_column`]; finally [`StreamWriter::finish`] seals
/// the footer. The caller regenerates or re-reads the rows once per
/// column (an *arity-pass* producer — see `charles-datagen`'s
/// `generate_and_save`, whose deterministic generators make
/// re-iteration free).
///
/// Every protocol violation is a typed error, not a panic: appending a
/// value of the wrong type ([`StoreError::TypeMismatch`]), a NaN float
/// ([`StoreError::Parse`], matching `Column::push`), more values than
/// the declared row count ([`StoreError::LengthMismatch`]), ending a
/// column early ([`StoreError::LengthMismatch`]), appending past the
/// last column ([`StoreError::ArityMismatch`]), or finishing with
/// columns missing ([`StoreError::ArityMismatch`]).
///
/// A streamed file is byte for byte the file [`write_table`] writes for
/// the table of the same values, and [`Table::open`] reads it back
/// as that table — same schema, same values, same advisor output (pinned
/// by this module's tests and `tests/disk_persistence.rs`).
pub struct StreamWriter {
    w: TrackedWriter<BufWriter<std::fs::File>>,
    schema: Schema,
    rows: usize,
    /// Completed columns' segment references, schema order.
    columns: Vec<ColumnSegments>,
    state: ColumnState,
}

impl StreamWriter {
    /// Create `path` and write the header and schema block. `rows` is
    /// the exact row count every column must supply.
    pub fn create(
        path: impl AsRef<Path>,
        name: &str,
        schema: Schema,
        rows: usize,
    ) -> StoreResult<StreamWriter> {
        let file = std::fs::File::create(path.as_ref())
            .map_err(|e| io_err(&format!("creating {:?}", path.as_ref()), e))?;
        let mut w = TrackedWriter::new(BufWriter::new(file));
        w.write(&MAGIC)?;
        w.write(&FORMAT_VERSION.to_le_bytes())?;
        w.write(&ENDIAN_MARKER.to_le_bytes())?;
        let schema_bytes = encode_schema(name, rows, &schema);
        w.write(&(schema_bytes.len() as u32).to_le_bytes())?;
        w.write(&schema_bytes)?;
        w.begin_segment(); // first column's data segment
        Ok(StreamWriter {
            w,
            schema,
            rows,
            columns: Vec::new(),
            state: ColumnState::new(),
        })
    }

    /// The schema index of the column accepting values; errs once every
    /// column is sealed.
    fn current(&self) -> StoreResult<usize> {
        let idx = self.columns.len();
        if idx >= self.schema.arity() {
            return Err(StoreError::ArityMismatch {
                expected: self.schema.arity(),
                found: idx + 1,
            });
        }
        Ok(idx)
    }

    /// Append the next row's value for the current column (`None` for
    /// null). Data bytes are written (and checksummed) immediately.
    pub fn append(&mut self, value: Option<Value>) -> StoreResult<()> {
        let idx = self.current()?;
        if self.state.rows_written >= self.rows {
            return Err(StoreError::LengthMismatch {
                left: self.rows,
                right: self.state.rows_written + 1,
            });
        }
        let meta = &self.schema.columns()[idx];
        let valid = value.is_some();
        // Null placeholders match `Column::push_physical_default`, so a
        // streamed file is value-identical to an eagerly built one.
        match (meta.ty, value) {
            (DataType::Int, v) => {
                let x = match v {
                    Some(Value::Int(x)) => x,
                    None => 0,
                    Some(other) => return Err(self.type_err(idx, &other)),
                };
                self.w.write_seg(&x.to_le_bytes())?;
            }
            (DataType::Date, v) => {
                let x = match v {
                    Some(Value::Date(x)) => x,
                    None => 0,
                    Some(other) => return Err(self.type_err(idx, &other)),
                };
                self.w.write_seg(&x.to_le_bytes())?;
            }
            (DataType::Float, v) => {
                let x = match v {
                    Some(Value::Float(x)) => {
                        if x.is_nan() {
                            return Err(StoreError::Parse(format!(
                                "NaN rejected in column {:?}",
                                self.schema.columns()[idx].name
                            )));
                        }
                        x
                    }
                    None => 0.0,
                    Some(other) => return Err(self.type_err(idx, &other)),
                };
                self.w.write_seg(&x.to_bits().to_le_bytes())?;
            }
            (DataType::Bool, v) => {
                let x = match v {
                    Some(Value::Bool(x)) => x,
                    None => false,
                    Some(other) => return Err(self.type_err(idx, &other)),
                };
                self.w.write_seg(&[x as u8])?;
            }
            (DataType::Str, v) => {
                let code = match v {
                    Some(Value::Str(s)) => match self.state.dict_index.get(&s) {
                        Some(&c) => c,
                        None => {
                            let c = self.state.dict.len() as u32;
                            self.state.dict.push(s.clone());
                            self.state.dict_index.insert(s, c);
                            c
                        }
                    },
                    None => 0,
                    Some(other) => return Err(self.type_err(idx, &other)),
                };
                self.w.write_seg(&code.to_le_bytes())?;
            }
        }
        self.state.validity.push(valid);
        self.state.rows_written += 1;
        Ok(())
    }

    /// Seal the current column: close its data segment, write its
    /// validity words and (for strings) dictionary, and advance to the
    /// next schema column. Errs if the column is short of the declared
    /// row count.
    pub fn end_column(&mut self) -> StoreResult<()> {
        let idx = self.current()?;
        if self.state.rows_written != self.rows {
            return Err(StoreError::LengthMismatch {
                left: self.rows,
                right: self.state.rows_written,
            });
        }
        let state = std::mem::replace(&mut self.state, ColumnState::new());
        self.seal(idx, &state.validity, &state.dict)
    }

    /// Write `col` whole as the current column — its data in one bulk
    /// write — and seal it: [`write_table`]'s path. `col` is a column
    /// of the schema the writer was created with, with no value of it
    /// appended yet.
    fn append_column(&mut self, col: &Column) -> StoreResult<()> {
        let idx = self.current()?;
        debug_assert_eq!((col.len(), self.state.rows_written), (self.rows, 0));
        self.w.write_seg(&encode_data(col.data()))?;
        self.seal(idx, col.validity(), col.dict())
    }

    /// Close column `idx`'s data segment, write its validity words and
    /// (for strings) dictionary, and open the next column's data segment.
    fn seal(&mut self, idx: usize, validity: &Bitmap, dict: &[String]) -> StoreResult<()> {
        let data = self.w.end_segment();
        self.w.begin_segment();
        for word in validity.words() {
            self.w.write_seg(&word.to_le_bytes())?;
        }
        let validity = self.w.end_segment();
        let dict = if self.schema.columns()[idx].ty == DataType::Str {
            Some(self.w.segment(&encode_dict(dict))?)
        } else {
            None
        };
        self.columns.push(ColumnSegments {
            validity,
            data,
            dict,
        });
        self.w.begin_segment(); // next column's data segment (unused if done)
        Ok(())
    }

    /// Write the footer, its CRC and the trailer, and flush. Errs if any
    /// schema column was not streamed.
    pub fn finish(mut self) -> StoreResult<()> {
        if self.columns.len() != self.schema.arity() {
            return Err(StoreError::ArityMismatch {
                expected: self.schema.arity(),
                found: self.columns.len(),
            });
        }
        let footer_start = self.w.offset;
        let file_crc = self.w.crc.finish();
        let footer = encode_footer(&self.columns, file_crc);
        let footer_crc = Crc32::of(&footer);
        self.w.write(&footer)?;
        self.w.write(&footer_crc.to_le_bytes())?;
        self.w.write(&footer_start.to_le_bytes())?;
        self.w.write(&TRAILER_MAGIC)?;
        self.w
            .inner
            .flush()
            .map_err(|e| io_err("flushing .charles file", e))?;
        Ok(())
    }

    fn type_err(&self, idx: usize, found: &Value) -> StoreError {
        let meta = &self.schema.columns()[idx];
        StoreError::TypeMismatch {
            column: meta.name.clone(),
            expected: meta.ty.name().into(),
            found: found.data_type().name().into(),
        }
    }
}

#[cfg(test)]
mod stream_tests {
    use super::*;
    use crate::backend::Backend;
    use crate::builder::TableBuilder;
    use crate::predicate::StorePredicate;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "charles-stream-{tag}-{}-{n}.charles",
            std::process::id()
        ))
    }

    /// A table exercising every type, nulls, and dictionary reuse —
    /// with a deterministic per-cell generator so the "stream" can
    /// re-produce each column independently.
    fn cell(row: usize, col: usize) -> Option<Value> {
        let k = row as i64;
        match col {
            0 => (k % 7 != 3).then_some(Value::Int(k * 31 % 50 - 10)),
            1 => (k % 5 != 2).then_some(Value::Float((k as f64) * 0.25 - 3.0)),
            2 => (k % 11 != 5)
                .then(|| Value::str(["fluit", "", "jacht", "de, lange"][(k % 4) as usize])),
            3 => (k % 13 != 7).then_some(Value::Date(k * 372 % 1000)),
            _ => (k % 3 != 1).then_some(Value::Bool(k % 2 == 0)),
        }
    }

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add("i", DataType::Int).unwrap();
        s.add("f", DataType::Float).unwrap();
        s.add("s", DataType::Str).unwrap();
        s.add("d", DataType::Date).unwrap();
        s.add("b", DataType::Bool).unwrap();
        s
    }

    fn eager_table(rows: usize) -> Table {
        let mut b = TableBuilder::new("streamed");
        b.add_column("i", DataType::Int)
            .add_column("f", DataType::Float)
            .add_column("s", DataType::Str)
            .add_column("d", DataType::Date)
            .add_column("b", DataType::Bool);
        for r in 0..rows {
            b.push_row_opt((0..5).map(|c| cell(r, c)).collect())
                .unwrap();
        }
        b.finish()
    }

    fn stream_file(rows: usize, path: &Path) {
        let mut w = StreamWriter::create(path, "streamed", schema(), rows).unwrap();
        for c in 0..5 {
            for r in 0..rows {
                w.append(cell(r, c)).unwrap();
            }
            w.end_column().unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn streamed_file_is_value_identical_to_eager_table() {
        let rows = 113;
        let t = eager_table(rows);
        let path = tmp_path("diff");
        stream_file(rows, &path);
        let d = Table::open(&path).unwrap();
        d.verify().unwrap();
        assert_eq!(d.len(), rows);
        assert_eq!(d.schema(), t.schema());
        for c in t.schema().columns() {
            let dc = d.column(&c.name).unwrap();
            let tc = t.column(&c.name).unwrap();
            assert_eq!(dc.dict(), tc.dict(), "dict order of {}", c.name);
            for i in 0..rows {
                assert_eq!(dc.get(i), tc.get(i), "cell ({i}, {})", c.name);
            }
        }
        // And the operations the advisor issues agree bitwise.
        let pred = StorePredicate::and(vec![
            StorePredicate::range("i", Value::Int(-5), Value::Int(30), true),
            StorePredicate::set("s", vec![Value::str("fluit"), Value::str("")]),
        ]);
        assert_eq!(d.eval(&pred).unwrap(), t.eval(&pred).unwrap());
        let sel = t.eval(&pred).unwrap();
        assert_eq!(d.median("f", &sel).unwrap(), t.median("f", &sel).unwrap());
        let (df, dd) = d.frequencies("s", &d.all_rows()).unwrap();
        let (tf, td) = t.frequencies("s", &t.all_rows()).unwrap();
        assert_eq!((df.entries(), dd), (tf.entries(), td));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_streamed_file_is_the_file_write_table_writes() {
        // One writer: value by value or a whole column at a time, the
        // same segments land in the same order with the same CRCs.
        let rows = 113;
        let table_path = tmp_path("table");
        let stream_path = tmp_path("stream");
        write_table(&eager_table(rows), &table_path).unwrap();
        stream_file(rows, &stream_path);
        assert_eq!(
            std::fs::read(&table_path).unwrap(),
            std::fs::read(&stream_path).unwrap()
        );
        std::fs::remove_file(&table_path).unwrap();
        std::fs::remove_file(&stream_path).unwrap();
    }

    #[test]
    fn empty_stream_round_trips() {
        let path = tmp_path("empty");
        let mut w = StreamWriter::create(&path, "empty", schema(), 0).unwrap();
        for _ in 0..5 {
            w.end_column().unwrap();
        }
        w.finish().unwrap();
        let d = Table::open(&path).unwrap();
        assert_eq!(d.len(), 0);
        d.verify().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn protocol_violations_are_typed_errors() {
        let path = tmp_path("proto");
        let mut s = Schema::new();
        s.add("i", DataType::Int).unwrap();
        s.add("f", DataType::Float).unwrap();

        // Wrong type.
        let mut w = StreamWriter::create(&path, "t", s.clone(), 2).unwrap();
        assert!(matches!(
            w.append(Some(Value::str("oops"))),
            Err(StoreError::TypeMismatch { .. })
        ));
        // NaN, exactly like `Column::push`.
        w.append(Some(Value::Int(1))).unwrap();
        w.append(None).unwrap();
        w.end_column().unwrap();
        assert!(matches!(
            w.append(Some(Value::Float(f64::NAN))),
            Err(StoreError::Parse(_))
        ));
        // Too many rows.
        w.append(Some(Value::Float(1.0))).unwrap();
        w.append(Some(Value::Float(2.0))).unwrap();
        assert!(matches!(
            w.append(Some(Value::Float(3.0))),
            Err(StoreError::LengthMismatch { left: 2, right: 3 })
        ));
        w.end_column().unwrap();
        // Appending past the last column.
        assert!(matches!(
            w.append(Some(Value::Int(9))),
            Err(StoreError::ArityMismatch { .. })
        ));
        // Short column.
        let path2 = tmp_path("proto-short");
        let mut w2 = StreamWriter::create(&path2, "t", s.clone(), 2).unwrap();
        w2.append(Some(Value::Int(1))).unwrap();
        assert!(matches!(
            w2.end_column(),
            Err(StoreError::LengthMismatch { left: 2, right: 1 })
        ));
        // Finishing with a column missing.
        let path3 = tmp_path("proto-missing");
        let mut w3 = StreamWriter::create(&path3, "t", s, 1).unwrap();
        w3.append(Some(Value::Int(1))).unwrap();
        w3.end_column().unwrap();
        assert!(matches!(
            w3.finish(),
            Err(StoreError::ArityMismatch {
                expected: 2,
                found: 1
            })
        ));
        for p in [&path, &path2, &path3] {
            let _ = std::fs::remove_file(p);
        }
    }
}
