//! Lazy reading of `.charles` files: [`Table::open`].
//!
//! Opening a file reads only its fixed header, the schema block, and the
//! footer index — a few hundred bytes regardless of data size. Column
//! segments stay on disk until an operation first touches the column;
//! then the validity bitmap, data vector and (for strings) dictionary
//! are fetched with positioned reads, CRC-checked, decoded into a
//! regular in-memory [`Column`], and kept in the table's slot for every
//! later access. Untouched columns are never read, so advising on 3
//! attributes of a 50-column file pays for 3 columns of I/O.

use super::{
    io_err, type_from_code, ByteReader, ColumnSegments, Crc32, SegmentRef, ENDIAN_MARKER,
    FORMAT_VERSION, HEADER_LEN, MAGIC, TRAILER_LEN, TRAILER_MAGIC,
};
use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::datatype::DataType;
use crate::error::{StoreError, StoreResult};
use crate::schema::{ColumnMeta, Schema};
use crate::table::Table;
use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// A file handle that supports concurrent positioned reads.
///
/// On unix this is `pread(2)` via `FileExt::read_exact_at` — no shared
/// cursor, so concurrent first-touch loads of different columns never
/// contend. Elsewhere a mutex serialises a seek+read pair with the same
/// observable behaviour.
#[derive(Debug)]
struct SharedFile {
    #[cfg(unix)]
    file: File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
}

impl SharedFile {
    fn new(file: File) -> SharedFile {
        #[cfg(unix)]
        {
            SharedFile { file }
        }
        #[cfg(not(unix))]
        {
            SharedFile {
                file: std::sync::Mutex::new(file),
            }
        }
    }

    /// Fill `buf` from the absolute file offset `offset`.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = self.file.lock().unwrap_or_else(|p| p.into_inner());
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(buf)
        }
    }
}

/// Fixed-width byte size of one row of a column's data segment.
fn data_width(ty: DataType) -> u64 {
    match ty {
        DataType::Int | DataType::Float | DataType::Date => 8,
        DataType::Str => 4,
        DataType::Bool => 1,
    }
}

/// Where an opened [`Table`]'s columns live: the file, its segment
/// index, and what [`Table::verify`] checks the file against.
#[derive(Debug)]
pub(crate) struct ColumnFile {
    file: SharedFile,
    segments: Vec<ColumnSegments>,
    /// Whole-file CRC recorded in the footer.
    file_crc: u32,
    /// First byte of the footer = end of the checksummed region.
    footer_start: u64,
}

impl Table {
    /// Open a `.charles` file, validating its header, trailer, footer
    /// checksum and segment index — but reading **no column data** yet.
    ///
    /// Structural faults (wrong magic, unsupported version, foreign
    /// endianness, truncation, out-of-bounds segments, checksum
    /// mismatches) surface as [`StoreError::Corrupt`]; transport faults
    /// as [`StoreError::Io`]. Never panics on malformed input.
    pub fn open(path: impl AsRef<Path>) -> StoreResult<Table> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| io_err(&format!("opening {path:?}"), e))?;
        let file_len = file
            .metadata()
            .map_err(|e| io_err(&format!("stat {path:?}"), e))?
            .len();
        let file = SharedFile::new(file);
        // The smallest well-formed file: header + schema length prefix +
        // empty schema + empty footer (just the file CRC) + footer CRC +
        // trailer.
        if file_len < HEADER_LEN + 4 + 4 + 4 + TRAILER_LEN {
            return Err(StoreError::Corrupt(format!(
                "file is {file_len} bytes — too short to be a .charles file"
            )));
        }

        // Header.
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)
            .map_err(|e| io_err("reading header", e))?;
        if header[0..8] != MAGIC {
            return Err(StoreError::Corrupt(
                "bad magic: not a .charles file".to_string(),
            ));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StoreError::Corrupt(format!(
                "unsupported format version {version} (this build reads version {FORMAT_VERSION})"
            )));
        }
        let endian = u32::from_le_bytes(header[12..16].try_into().unwrap());
        if endian != ENDIAN_MARKER {
            return Err(StoreError::Corrupt(format!(
                "endianness marker mismatch (read 0x{endian:08X}, want 0x{ENDIAN_MARKER:08X})"
            )));
        }

        // Trailer → footer location.
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact_at(&mut trailer, file_len - TRAILER_LEN)
            .map_err(|e| io_err("reading trailer", e))?;
        if trailer[8..16] != TRAILER_MAGIC {
            return Err(StoreError::Corrupt(
                "trailing magic missing: file is truncated or overwritten".to_string(),
            ));
        }
        let footer_start = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let footer_end = file_len - TRAILER_LEN; // footer bytes + footer CRC
                                                 // Checked arithmetic throughout: every field here is untrusted
                                                 // bytes, and an overflow panic would break the no-panics
                                                 // contract (a crafted footer_start near u64::MAX must land in
                                                 // Corrupt like any other out-of-bounds value).
        if footer_start < HEADER_LEN + 4
            || footer_start
                .checked_add(4)
                .is_none_or(|end| end > footer_end)
        {
            return Err(StoreError::Corrupt(format!(
                "footer offset {footer_start} out of bounds (file is {file_len} bytes)"
            )));
        }

        // Footer region, integrity-checked by its own CRC.
        let mut footer = vec![0u8; (footer_end - footer_start) as usize];
        file.read_exact_at(&mut footer, footer_start)
            .map_err(|e| io_err("reading footer", e))?;
        let (footer_body, crc_bytes) = footer.split_at(footer.len() - 4);
        let footer_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if Crc32::of(footer_body) != footer_crc {
            return Err(StoreError::Corrupt("footer checksum mismatch".to_string()));
        }

        // Schema block.
        let mut len_buf = [0u8; 4];
        file.read_exact_at(&mut len_buf, HEADER_LEN)
            .map_err(|e| io_err("reading schema length", e))?;
        let schema_len = u32::from_le_bytes(len_buf) as u64;
        let data_start = HEADER_LEN + 4 + schema_len;
        if data_start > footer_start {
            return Err(StoreError::Corrupt(format!(
                "schema block of {schema_len} bytes overruns the footer"
            )));
        }
        let mut schema_bytes = vec![0u8; schema_len as usize];
        file.read_exact_at(&mut schema_bytes, HEADER_LEN + 4)
            .map_err(|e| io_err("reading schema block", e))?;
        let (name, rows, schema) = decode_schema(&schema_bytes)?;

        // Footer entries, validated against the schema and file bounds.
        let segments = decode_footer_entries(footer_body, &schema)?;
        // The file CRC is the footer body's last field (after the entries;
        // decode_footer_entries guarantees exactly 4 bytes remain).
        let file_crc = u32::from_le_bytes(footer_body[footer_body.len() - 4..].try_into().unwrap());
        // Expected segment lengths, in checked u64 arithmetic: a crafted
        // row count near u64::MAX must be rejected, not overflow.
        let want_validity = (rows as u64).div_ceil(64).checked_mul(8);
        for (i, c) in schema.columns().iter().enumerate() {
            let segs = &segments[i];
            let width = data_width(c.ty);
            check_segment(&segs.validity, data_start, footer_start, || {
                format!("column {:?} validity", c.name)
            })?;
            if want_validity != Some(segs.validity.len) {
                return Err(StoreError::Corrupt(format!(
                    "column {:?}: validity segment is {} bytes, wrong for {rows} rows",
                    c.name, segs.validity.len,
                )));
            }
            check_segment(&segs.data, data_start, footer_start, || {
                format!("column {:?} data", c.name)
            })?;
            if (rows as u64).checked_mul(width) != Some(segs.data.len) {
                return Err(StoreError::Corrupt(format!(
                    "column {:?}: data segment is {} bytes, wrong for {rows} rows of {:?}",
                    c.name, segs.data.len, c.ty
                )));
            }
            match (&segs.dict, c.ty == DataType::Str) {
                (Some(d), true) => check_segment(d, data_start, footer_start, || {
                    format!("column {:?} dictionary", c.name)
                })?,
                (None, false) => {}
                (Some(_), false) => {
                    return Err(StoreError::Corrupt(format!(
                        "column {:?}: dictionary segment on a non-string column",
                        c.name
                    )))
                }
                (None, true) => {
                    return Err(StoreError::Corrupt(format!(
                        "column {:?}: string column without a dictionary segment",
                        c.name
                    )))
                }
            }
        }

        let file = ColumnFile {
            file,
            segments,
            file_crc,
            footer_start,
        };
        Ok(Table::from_file(name, schema, rows, file))
    }

    /// How many columns are loaded: the arity for a built table, and for
    /// an opened one the columns touched so far — the observable half of
    /// the lazy-loading contract (tests assert that touching one column
    /// loads one column).
    pub fn columns_loaded(&self) -> usize {
        self.slots.iter().filter(|c| c.get().is_some()).count()
    }

    /// Verify an opened table's whole-file checksum (everything before
    /// the footer) against the value recorded in the footer. Streams the
    /// file in chunks; loads no columns. This is the offline integrity
    /// check — per-segment CRCs already guard every lazy load. A built
    /// table has no file to check: `Ok(())`.
    pub fn verify(&self) -> StoreResult<()> {
        match &self.file {
            Some(file) => file.verify(),
            None => Ok(()),
        }
    }
}

impl ColumnFile {
    fn verify(&self) -> StoreResult<()> {
        let mut crc = Crc32::new();
        let mut offset = 0u64;
        let mut buf = vec![0u8; 64 * 1024];
        while offset < self.footer_start {
            let n = ((self.footer_start - offset) as usize).min(buf.len());
            self.file
                .read_exact_at(&mut buf[..n], offset)
                .map_err(|e| io_err("verifying file checksum", e))?;
            crc.update(&buf[..n]);
            offset += n as u64;
        }
        if crc.finish() != self.file_crc {
            return Err(StoreError::Corrupt(format!(
                "whole-file checksum mismatch (computed 0x{:08X}, footer records 0x{:08X})",
                crc.finish(),
                self.file_crc
            )));
        }
        Ok(())
    }

    /// Fetch one segment's bytes with one positioned read into a fresh
    /// buffer and check its CRC.
    fn read_segment(&self, seg: &SegmentRef, what: impl Fn() -> String) -> StoreResult<Vec<u8>> {
        let mut bytes = vec![0u8; seg.len as usize];
        self.file
            .read_exact_at(&mut bytes, seg.offset)
            .map_err(|e| io_err(&format!("reading {}", what()), e))?;
        if Crc32::of(&bytes) != seg.crc {
            return Err(StoreError::Corrupt(format!(
                "{}: segment checksum mismatch",
                what()
            )));
        }
        Ok(bytes)
    }

    /// Decode column `idx`, described by `meta`, of a table of `rows`
    /// rows from its segments (the slow path behind a table's slot; runs
    /// at most once per column per opened table).
    pub(crate) fn load_column(
        &self,
        idx: usize,
        meta: &ColumnMeta,
        rows: usize,
    ) -> Result<Column, StoreError> {
        let segs = &self.segments[idx];

        let validity_bytes = self.read_segment(&segs.validity, || {
            format!("column {:?} validity", meta.name)
        })?;
        let words: Vec<u64> = validity_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let validity = Bitmap::from_words(words, rows).ok_or_else(|| {
            StoreError::Corrupt(format!(
                "column {:?}: validity bitmap has bits set beyond row {rows}",
                meta.name
            ))
        })?;

        let data_bytes =
            self.read_segment(&segs.data, || format!("column {:?} data", meta.name))?;
        let data = match meta.ty {
            DataType::Int => ColumnData::Int(decode_i64s(&data_bytes)),
            DataType::Date => ColumnData::Date(decode_i64s(&data_bytes)),
            DataType::Float => ColumnData::Float(
                data_bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                    .collect(),
            ),
            DataType::Str => ColumnData::Str(
                data_bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            DataType::Bool => {
                let mut vals = Vec::with_capacity(data_bytes.len());
                for (i, &b) in data_bytes.iter().enumerate() {
                    match b {
                        0 => vals.push(false),
                        1 => vals.push(true),
                        other => {
                            return Err(StoreError::Corrupt(format!(
                                "column {:?}: row {i} holds byte {other}, not a boolean",
                                meta.name
                            )))
                        }
                    }
                }
                ColumnData::Bool(vals)
            }
        };

        let dict = match &segs.dict {
            None => Arc::new(Vec::new()),
            Some(seg) => {
                let bytes =
                    self.read_segment(seg, || format!("column {:?} dictionary", meta.name))?;
                let mut r = ByteReader::new(&bytes, "dictionary segment");
                let count = r.u32()? as usize;
                let mut dict = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    dict.push(r.string()?);
                }
                if r.remaining() != 0 {
                    return Err(StoreError::Corrupt(format!(
                        "column {:?}: trailing bytes after dictionary",
                        meta.name
                    )));
                }
                Arc::new(dict)
            }
        };

        // Every valid row's code must index the dictionary (null rows
        // carry a placeholder code that is never dereferenced).
        if let ColumnData::Str(codes) = &data {
            for i in validity.iter_ones() {
                if codes[i] as usize >= dict.len() {
                    return Err(StoreError::Corrupt(format!(
                        "column {:?}: row {i} has dictionary code {} but the dictionary holds {} entries",
                        meta.name, codes[i], dict.len()
                    )));
                }
            }
        }

        Ok(Column::from_parts(meta.name.clone(), data, validity, dict))
    }
}

fn decode_i64s(bytes: &[u8]) -> Vec<i64> {
    bytes
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Parse the schema block: (table name, row count, schema).
fn decode_schema(bytes: &[u8]) -> StoreResult<(String, usize, Schema)> {
    let mut r = ByteReader::new(bytes, "schema block");
    let name = r.string()?;
    let rows = r.u64()?;
    let rows = usize::try_from(rows)
        .map_err(|_| StoreError::Corrupt(format!("row count {rows} exceeds this platform")))?;
    let arity = r.u32()? as usize;
    let mut schema = Schema::new();
    for _ in 0..arity {
        let col_name = r.string()?;
        let code = r.u8()?;
        let ty = type_from_code(code).ok_or_else(|| {
            StoreError::Corrupt(format!("column {col_name:?}: unknown type code {code}"))
        })?;
        schema
            .add(&col_name, ty)
            .map_err(|e| StoreError::Corrupt(format!("invalid schema in file: {e}")))?;
    }
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt(
            "trailing bytes after schema block".to_string(),
        ));
    }
    Ok((name, rows, schema))
}

/// Parse the footer body (everything before the footer CRC): one entry
/// per schema column, then the whole-file CRC (decoded by the caller).
fn decode_footer_entries(body: &[u8], schema: &Schema) -> StoreResult<Vec<ColumnSegments>> {
    let mut r = ByteReader::new(body, "footer");
    let seg = |r: &mut ByteReader| -> StoreResult<SegmentRef> {
        Ok(SegmentRef {
            offset: r.u64()?,
            len: r.u64()?,
            crc: r.u32()?,
        })
    };
    let mut out = Vec::with_capacity(schema.arity());
    for _ in 0..schema.arity() {
        let validity = seg(&mut r)?;
        let data = seg(&mut r)?;
        let dict = match r.u8()? {
            0 => None,
            1 => Some(seg(&mut r)?),
            other => {
                return Err(StoreError::Corrupt(format!(
                    "footer: invalid dictionary flag {other}"
                )))
            }
        };
        out.push(ColumnSegments {
            validity,
            data,
            dict,
        });
    }
    if r.remaining() != 4 {
        return Err(StoreError::Corrupt(format!(
            "footer size mismatch: {} bytes left after the column index, want 4 (file CRC)",
            r.remaining()
        )));
    }
    Ok(out)
}

/// Bounds-check one segment against the data region.
fn check_segment(
    seg: &SegmentRef,
    data_start: u64,
    footer_start: u64,
    what: impl Fn() -> String,
) -> StoreResult<()> {
    let end = seg.offset.checked_add(seg.len);
    if seg.offset < data_start || end.is_none() || end.unwrap() > footer_start {
        return Err(StoreError::Corrupt(format!(
            "{}: segment [{}, +{}) outside the data region [{data_start}, {footer_start})",
            what(),
            seg.offset,
            seg.len
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::builder::TableBuilder;
    use crate::csv::write_csv_string;
    use crate::disk::write_table;
    use crate::predicate::StorePredicate;
    use crate::rowstore::RowTable;
    use crate::value::Value;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

    static COUNTER: AtomicUsize = AtomicUsize::new(0);

    /// A unique temp path per call; callers remove it when done.
    fn tmp_path(tag: &str) -> PathBuf {
        let n = COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
        std::env::temp_dir().join(format!(
            "charles-disk-{tag}-{}-{n}.charles",
            std::process::id()
        ))
    }

    /// A fixture exercising every datatype, nulls in every column, the
    /// empty string, and dictionary reuse.
    fn fixture() -> Table {
        let mut b = TableBuilder::new("mixed");
        b.add_column("i", DataType::Int)
            .add_column("f", DataType::Float)
            .add_column("s", DataType::Str)
            .add_column("d", DataType::Date)
            .add_column("b", DataType::Bool);
        let strs = ["fluit", "", "jacht", "fluit", "de, lange"];
        for k in 0..97i64 {
            let row: Vec<Option<Value>> = vec![
                (k % 7 != 3).then_some(Value::Int(k * 31 % 50 - 10)),
                (k % 5 != 2).then_some(Value::Float((k as f64) * 0.25 - 3.0)),
                (k % 11 != 5).then(|| Value::str(strs[(k % 5) as usize])),
                (k % 13 != 7).then_some(Value::Date(k * 372 % 1000)),
                (k % 3 != 1).then_some(Value::Bool(k % 2 == 0)),
            ];
            b.push_row_opt(row).unwrap();
        }
        b.finish()
    }

    fn assert_tables_equal(a: &dyn Backend, b: &Table) {
        assert_eq!(a.row_count(), b.len());
        assert_eq!(a.schema(), b.schema());
        for c in b.schema().columns() {
            assert_eq!(
                a.not_null(&c.name).unwrap(),
                b.not_null(&c.name).unwrap(),
                "validity of {}",
                c.name
            );
        }
    }

    #[test]
    fn round_trip_preserves_every_cell() {
        let t = fixture();
        let path = tmp_path("roundtrip");
        write_table(&t, &path).unwrap();
        let d = Table::open(&path).unwrap();
        assert_eq!(d.name(), "mixed");
        assert_eq!(d.len(), t.len());
        assert_tables_equal(&d, &t);
        for c in t.schema().columns() {
            let dc = d.column(&c.name).unwrap();
            let tc = t.column(&c.name).unwrap();
            for i in 0..t.len() {
                assert_eq!(dc.get(i), tc.get(i), "cell ({i}, {})", c.name);
            }
        }
        // Whole-file checksum holds; a built table has none to check.
        d.verify().unwrap();
        t.verify().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn operations_match_table_bitwise() {
        let t = fixture();
        let path = tmp_path("ops");
        write_table(&t, &path).unwrap();
        let d = Table::open(&path).unwrap();
        let pred = StorePredicate::and(vec![
            StorePredicate::range("i", Value::Int(-5), Value::Int(30), true),
            StorePredicate::set("s", vec![Value::str("fluit"), Value::str("")]),
        ]);
        assert_eq!(d.eval(&pred).unwrap(), t.eval(&pred).unwrap());
        assert_eq!(d.count(&pred).unwrap(), t.count(&pred).unwrap());
        let sel = t.eval(&pred).unwrap();
        assert_eq!(d.median("f", &sel).unwrap(), t.median("f", &sel).unwrap());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(
                d.quantile("i", &sel, q).unwrap(),
                t.quantile("i", &sel, q).unwrap()
            );
        }
        assert_eq!(
            d.sampled_median("i", &sel, 17, 42).unwrap(),
            t.sampled_median("i", &sel, 17, 42).unwrap()
        );
        assert_eq!(d.min_max("d", &sel).unwrap(), t.min_max("d", &sel).unwrap());
        let (dm, dv) = d.mean_and_var("f", &sel).unwrap().unwrap();
        let (tm, tv) = t.mean_and_var("f", &sel).unwrap().unwrap();
        assert_eq!((dm.to_bits(), dv.to_bits()), (tm.to_bits(), tv.to_bits()));
        assert_eq!(
            d.next_above("i", &sel, &Value::Int(0)).unwrap(),
            t.next_above("i", &sel, &Value::Int(0)).unwrap()
        );
        let all = t.all_rows();
        let (df, dd) = d.frequencies("s", &all).unwrap();
        let (tf, td) = t.frequencies("s", &all).unwrap();
        assert_eq!((df.entries(), dd), (tf.entries(), td));
        let (bf, _) = d.frequencies("b", &all).unwrap();
        let (tbf, _) = t.frequencies("b", &all).unwrap();
        assert_eq!(bf.entries(), tbf.entries());
        for col in ["i", "f", "s", "d", "b"] {
            assert_eq!(
                d.distinct_count(col, &all).unwrap(),
                t.distinct_count(col, &all).unwrap(),
                "distinct {col}"
            );
        }
        // Error parity: unknown column, type mismatches.
        assert!(matches!(
            d.median("s", &all),
            Err(StoreError::TypeMismatch { .. })
        ));
        assert!(matches!(
            d.frequencies("i", &all),
            Err(StoreError::TypeMismatch { .. })
        ));
        assert!(matches!(
            d.column("nope"),
            Err(StoreError::UnknownColumn(_))
        ));
        // Counter discipline matches Table's.
        d.reset_stats();
        t.reset_stats();
        let _ = d.count(&pred).unwrap();
        let _ = t.count(&pred).unwrap();
        let _ = d.median("i", &all).unwrap();
        let _ = t.median("i", &all).unwrap();
        assert_eq!(d.stats(), t.stats());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn columns_load_lazily_on_first_touch() {
        let t = fixture();
        let path = tmp_path("lazy");
        write_table(&t, &path).unwrap();
        let d = Table::open(&path).unwrap();
        assert_eq!(d.columns_loaded(), 0, "open must not read column data");
        let pred = StorePredicate::range("i", Value::Int(0), Value::Int(10), true);
        let _ = d.eval(&pred).unwrap();
        assert_eq!(d.columns_loaded(), 1, "one predicate, one column");
        let _ = d.median("i", &d.all_rows()).unwrap();
        assert_eq!(d.columns_loaded(), 1, "re-touch is cached");
        let _ = d.not_null("s").unwrap();
        assert_eq!(d.columns_loaded(), 2);
        assert_eq!(
            t.columns_loaded(),
            t.schema().arity(),
            "a built table is resident"
        );
    }

    #[test]
    fn nan_float_bits_round_trip_and_stay_null_like() {
        // `TableBuilder` rejects NaN, but raw load paths can carry them;
        // the format must preserve the exact bits and the loaded column
        // must keep treating NaN as null in order statistics.
        let quiet_nan = f64::from_bits(0x7FF8_0000_0000_0001);
        let data = ColumnData::Float(vec![1.0, quiet_nan, 3.0, f64::NEG_INFINITY]);
        let col = Column::from_parts("x".into(), data, Bitmap::ones(4), Arc::new(Vec::new()));
        let mut schema = Schema::new();
        schema.add("x", DataType::Float).unwrap();
        let t = Table::from_parts("poisoned".into(), schema, vec![col]);
        let path = tmp_path("nan");
        write_table(&t, &path).unwrap();
        let d = Table::open(&path).unwrap();
        let loaded = d.column("x").unwrap();
        match loaded.data() {
            ColumnData::Float(v) => {
                assert_eq!(v[1].to_bits(), quiet_nan.to_bits(), "NaN payload bits");
                assert_eq!(v[3], f64::NEG_INFINITY);
            }
            other => panic!("wrong column data: {other:?}"),
        }
        // NaN skipped like null, exactly as the in-memory column does.
        assert_eq!(
            d.median("x", &d.all_rows()).unwrap(),
            t.median("x", &t.all_rows()).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_table_round_trips() {
        let mut b = TableBuilder::new("empty");
        b.add_column("a", DataType::Int)
            .add_column("s", DataType::Str);
        let t = b.finish();
        let path = tmp_path("empty");
        write_table(&t, &path).unwrap();
        let d = Table::open(&path).unwrap();
        assert_eq!(d.len(), 0);
        assert!(d.is_empty());
        assert_eq!(d.count(&StorePredicate::True).unwrap(), 0);
        assert_eq!(d.median("a", &Bitmap::new(0)).unwrap(), None);
        d.verify().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_headers_are_rejected_with_typed_errors() {
        let t = fixture();
        let path = tmp_path("header");
        write_table(&t, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        let reject = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            match Table::open(&path) {
                Err(StoreError::Corrupt(msg)) => msg,
                Err(other) => panic!("{what}: expected Corrupt, got {other}"),
                Ok(_) => panic!("{what}: corrupt file accepted"),
            }
        };

        // Wrong magic.
        let mut bad = pristine.clone();
        bad[0] = b'X';
        assert!(reject(&bad, "magic").contains("magic"));
        // Unsupported version.
        let mut bad = pristine.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(reject(&bad, "version").contains("version 99"));
        // Foreign endianness.
        let mut bad = pristine.clone();
        let mut marker = bad[12..16].to_vec();
        marker.reverse();
        bad[12..16].copy_from_slice(&marker);
        assert!(reject(&bad, "endian").contains("endianness"));
        // Missing trailer magic (classic truncation).
        let truncated = &pristine[..pristine.len() - 3];
        assert!(reject(truncated, "trailer").contains("truncated"));
        // Hard truncations at many points: always a typed error, never a
        // panic, never success.
        for keep in [0, 7, 16, 40, pristine.len() / 2, pristine.len() - 17] {
            std::fs::write(&path, &pristine[..keep]).unwrap();
            match Table::open(&path) {
                Err(StoreError::Corrupt(_)) | Err(StoreError::Io(_)) => {}
                Err(other) => panic!("truncation at {keep}: unexpected error {other}"),
                Ok(_) => panic!("truncation at {keep} accepted"),
            }
        }
        // Footer byte flip → footer checksum mismatch.
        let mut bad = pristine.clone();
        let flip_at = bad.len() - (TRAILER_LEN as usize) - 6;
        bad[flip_at] ^= 0xFF;
        assert!(reject(&bad, "footer").contains("footer checksum"));

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn inverted_or_oversized_footer_offsets_are_corrupt_not_panics() {
        // Regression for the corrupt-trailer bounds bug: the footer
        // length `footer_end - footer_start` used to be computed (and
        // fed to `vec![0u8; ...]`) straight from untrusted trailer
        // bytes, so a trailer claiming `footer_start > footer_end`
        // subtracted past zero — a panic in debug builds, an absurd
        // allocation attempt in release. Every such trailer must land
        // in `Corrupt` before any allocation.
        let t = fixture();
        let path = tmp_path("inverted-footer");
        write_table(&t, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let file_len = pristine.len() as u64;
        let footer_end = file_len - TRAILER_LEN;
        let trailer_at = pristine.len() - TRAILER_LEN as usize;

        let reject_offset = |footer_start: u64, what: &str| {
            let mut bad = pristine.clone();
            bad[trailer_at..trailer_at + 8].copy_from_slice(&footer_start.to_le_bytes());
            std::fs::write(&path, &bad).unwrap();
            match Table::open(&path) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains("out of bounds"), "{what}: {msg}")
                }
                Err(other) => panic!("{what}: expected Corrupt, got {other}"),
                Ok(_) => panic!("{what}: bogus footer offset accepted"),
            }
        };

        // footer_start one past footer_end: the subtraction would go
        // negative.
        reject_offset(footer_end + 1, "start just past end");
        // footer_start at the very end of the file.
        reject_offset(file_len, "start at file length");
        // footer_start leaving no room for the footer's own CRC.
        reject_offset(footer_end - 3, "no room for footer CRC");
        // footer_start inside the header (underruns the schema block).
        reject_offset(0, "start at zero");
        reject_offset(HEADER_LEN + 3, "start inside the length prefix");
        // Length-flavoured extremes: offsets so large the implied
        // footer length (or `footer_start + 4`) wraps u64.
        reject_offset(u64::MAX, "u64::MAX");
        reject_offset(u64::MAX - 4, "u64::MAX - 4");

        // Single byte flips in the trailer offset field — the cheapest
        // real-world corruption — must also never panic: whatever the
        // flipped offset implies, the outcome is a typed error (Corrupt
        // for bad bounds, or a checksum/decode error when the offset
        // stays in range but points at the wrong bytes).
        for bit in 0..64 {
            let mut bad = pristine.clone();
            bad[trailer_at + bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &bad).unwrap();
            match Table::open(&path) {
                Ok(_) => panic!("bit flip {bit} in footer offset accepted"),
                Err(StoreError::Corrupt(_)) | Err(StoreError::Io(_)) => {}
                Err(other) => panic!("bit flip {bit}: unexpected error {other}"),
            }
        }

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crafted_extreme_fields_cannot_overflow() {
        // Adversarial values near u64::MAX in untrusted fields must land
        // in Corrupt via checked arithmetic — never an overflow panic
        // (debug builds trap unchecked adds/muls).
        let t = fixture();
        let path = tmp_path("overflow");
        write_table(&t, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Trailer pointing the footer at u64::MAX - 3 (footer_start + 4
        // would overflow if unchecked).
        let mut bad = pristine.clone();
        let off = bad.len() - TRAILER_LEN as usize;
        bad[off..off + 8].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(Table::open(&path), Err(StoreError::Corrupt(_))));

        // Schema block claiming ~u64::MAX rows (rows * width would
        // overflow if unchecked). Rebuild the schema block with the
        // huge row count and re-point the length prefix, keeping the
        // real footer bytes valid by refreshing the footer CRC is not
        // needed — the row-count check runs after footer decode, so a
        // simpler route: patch the row count in place (it sits after
        // the table-name string inside the schema block) and accept
        // that the footer CRC still matches (the footer is untouched).
        let mut bad = pristine.clone();
        let name_len = u32::from_le_bytes(bad[20..24].try_into().unwrap()) as usize;
        let rows_at = 24 + name_len;
        bad[rows_at..rows_at + 8].copy_from_slice(&(u64::MAX - 1).to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        match Table::open(&path) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("wrong for"), "{msg}")
            }
            other => panic!("huge row count accepted or panicked upstream: {other:?}"),
        }

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_segments_fail_on_load_and_verify() {
        let t = fixture();
        let path = tmp_path("segment");
        write_table(&t, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte in the first column's data region, which
        // starts right after header + schema block: offset
        // HEADER+4+schema+20 lands in its 97 × 8 data bytes.
        let schema_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let poke = 20 + schema_len + 20;
        bytes[poke] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        // The header and footer are still fine. Touching the damaged
        // column reports a checksum mismatch…
        let d = Table::open(&path).unwrap();
        let damaged = d
            .eval(&StorePredicate::range(
                "i",
                Value::Int(0),
                Value::Int(10),
                true,
            ))
            .unwrap_err();
        assert!(
            matches!(&damaged, StoreError::Corrupt(m) if m.contains("checksum")),
            "{damaged}"
        );
        // …and the error is sticky (cached, not retried into a panic).
        assert!(d.column("i").is_err());
        // Whole-file verification catches it too, without loading.
        let d2 = Table::open(&path).unwrap();
        assert!(
            matches!(d2.verify(), Err(StoreError::Corrupt(m)) if m.contains("whole-file")),
            "verify must fail"
        );
        // Every path that walks the columns passes the first-touch fault
        // up as an error, not a panic…
        let copy = tmp_path("segment-copy");
        let written = write_table(&Table::open(&path).unwrap(), &copy);
        assert!(
            matches!(written, Err(StoreError::Corrupt(_))),
            "{written:?}"
        );
        let csv = write_csv_string(&Table::open(&path).unwrap());
        assert!(matches!(csv, Err(StoreError::Corrupt(_))), "{csv:?}");
        let rows = RowTable::from_table(&Table::open(&path).unwrap());
        assert!(matches!(rows, Err(StoreError::Corrupt(_))), "{rows:?}");
        // …and a column that was not damaged still answers.
        let all = t.all_rows();
        assert_eq!(d.median("f", &all).unwrap(), t.median("f", &all).unwrap());
        assert_eq!(d.value(3, "s").unwrap(), t.value(3, "s").unwrap());
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_file(&copy);
    }

    #[test]
    fn distinct_count_keeps_integers_beyond_f64_precision() {
        // 2⁵³ and 2⁵³ + 1 are one `f64`: counted through floats they
        // merge. ±0.0 stay one float value.
        let big = 1i64 << 53;
        let mut b = TableBuilder::new("wide");
        b.add_column("i", DataType::Int)
            .add_column("d", DataType::Date)
            .add_column("f", DataType::Float);
        for (v, f) in [(big, -0.0), (big + 1, 0.0), (big + 1, 1.0)] {
            b.push_row(vec![Value::Int(v), Value::Date(v), Value::Float(f)])
                .unwrap();
        }
        let t = b.finish();
        let path = tmp_path("distinct");
        write_table(&t, &path).unwrap();
        let opened = Table::open(&path).unwrap();
        let rows = RowTable::from_table(&t).unwrap();
        let all = t.all_rows();
        let backends: [(&str, &dyn Backend); 3] =
            [("table", &t), ("opened", &opened), ("rowstore", &rows)];
        for (name, backend) in backends {
            for col in ["i", "d", "f"] {
                assert_eq!(
                    backend.distinct_count(col, &all).unwrap(),
                    2,
                    "{name}: {col}"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn opening_a_non_charles_file_is_a_typed_error() {
        let path = tmp_path("notcharles");
        std::fs::write(&path, b"tonnage:int\n1000\n").unwrap();
        assert!(matches!(Table::open(&path), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).unwrap();
        // Missing file → Io, with the path in the message.
        assert!(matches!(Table::open(&path), Err(StoreError::Io(_))));
    }
}
