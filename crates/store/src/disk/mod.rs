//! Persistent on-disk columnar storage: the `.charles` file format.
//!
//! Every dataset in this repo used to die with the process — `read_csv_str`
//! only parses in-memory strings, so serving a long-lived advisory server
//! meant re-ingesting and re-building columns on every boot. This module
//! gives tables a durable form: a versioned binary **columnar** layout
//! (the natural shape for Charles' workload of counts and medians over
//! single columns) written once by [`StreamWriter`] (or [`write_table`],
//! which feeds it a whole table) and opened lazily by
//! [`crate::Table::open`]: the table fetches a column's segments on first
//! touch via positioned reads instead of materialising the whole file.
//!
//! The byte-level layout is specified in `docs/FORMAT.md`; the constants
//! below are the single source of truth the spec documents. In brief:
//!
//! ```text
//! [header: magic, version, endianness marker]
//! [schema block: table name, row count, column names + types]
//! [per column: typed fixed-width data · validity bitmap words · string dictionary]
//! [footer: per-segment (offset, length, CRC-32) index · whole-file CRC-32]
//! [trailer: footer offset · trailing magic]
//! ```
//!
//! Integrity is layered: the header is validated on open, the footer
//! carries its own CRC (checked on open), each segment carries a CRC
//! (checked when that segment is first loaded), and a whole-file CRC
//! covers everything before the footer ([`crate::Table::verify`] checks it
//! on demand — it is not checked on open, because reading the entire
//! file eagerly would defeat lazy column loading). All failures surface
//! as typed [`StoreError::Corrupt`] / [`StoreError::Io`] values, never
//! panics.

pub mod reader;
pub mod writer;

pub use writer::{write_table, StreamWriter};

use crate::error::{StoreError, StoreResult};

/// Leading magic: identifies a `.charles` file from its first 8 bytes.
pub(crate) const MAGIC: [u8; 8] = *b"CHARLES\0";
/// Trailing magic: the last 8 bytes of a complete file. A missing
/// trailer is the cheapest truncation detector.
pub(crate) const TRAILER_MAGIC: [u8; 8] = *b"CHARLEND";
/// Format version written by this build and the only one it reads.
pub(crate) const FORMAT_VERSION: u32 = 1;
/// Endianness marker: written as a little-endian `u32`. A reader that
/// decodes it as anything else is byte-swapping and must reject the file.
pub(crate) const ENDIAN_MARKER: u32 = 0x1A2B_3C4D;
/// Size of the fixed header (magic + version + endianness marker).
pub(crate) const HEADER_LEN: u64 = 16;
/// Size of the fixed trailer (footer offset + trailing magic).
pub const TRAILER_LEN: u64 = 16;

/// On-disk type codes, one per [`crate::DataType`].
pub(crate) fn type_code(ty: crate::DataType) -> u8 {
    match ty {
        crate::DataType::Int => 0,
        crate::DataType::Float => 1,
        crate::DataType::Str => 2,
        crate::DataType::Date => 3,
        crate::DataType::Bool => 4,
    }
}

/// Inverse of [`type_code`].
pub(crate) fn type_from_code(code: u8) -> Option<crate::DataType> {
    match code {
        0 => Some(crate::DataType::Int),
        1 => Some(crate::DataType::Float),
        2 => Some(crate::DataType::Str),
        3 => Some(crate::DataType::Date),
        4 => Some(crate::DataType::Bool),
        _ => None,
    }
}

/// Location and checksum of one segment within the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentRef {
    /// Absolute byte offset of the segment's first byte.
    pub offset: u64,
    /// Segment length in bytes.
    pub len: u64,
    /// CRC-32 (IEEE) of the segment bytes.
    pub crc: u32,
}

/// The three segments of one column (dictionary only for string columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ColumnSegments {
    pub validity: SegmentRef,
    pub data: SegmentRef,
    pub dict: Option<SegmentRef>,
}

/// CRC-32 (IEEE 802.3: reflected, polynomial `0xEDB88320`, init and
/// xor-out `0xFFFFFFFF`) — the ubiquitous checksum of zip/png/ethernet,
/// implemented here because the build has no dependencies to lean on.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh checksum.
    pub(crate) fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the checksum.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &b in bytes {
            s ^= b as u32;
            for _ in 0..8 {
                s = (s >> 1) ^ (0xEDB8_8320 & (0u32.wrapping_sub(s & 1)));
            }
        }
        self.state = s;
    }

    /// The checksum of everything fed so far.
    pub(crate) fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// One-shot convenience.
    pub fn of(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(bytes);
        c.finish()
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// Flatten an I/O error into the crate error type, with context. An
/// unexpected EOF means the file ends before its structure says it
/// should — that is corruption (truncation), not a transport fault.
pub(crate) fn io_err(context: &str, e: std::io::Error) -> StoreError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        StoreError::Corrupt(format!("{context}: file truncated ({e})"))
    } else {
        StoreError::Io(format!("{context}: {e}"))
    }
}

/// A little-endian byte cursor over an in-memory block (schema block and
/// footer are small, so they are read whole and decoded with this).
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> ByteReader<'a> {
        ByteReader { buf, pos: 0, what }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Corrupt(format!(
                "{} truncated: wanted {n} bytes at offset {}, only {} left",
                self.what,
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> StoreResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub(crate) fn string(&mut self) -> StoreResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("{}: non-UTF-8 string payload", self.what)))
    }
}

/// Little-endian append-only encoder (mirror of [`ByteReader`]).
#[derive(Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> ByteWriter {
        ByteWriter::default()
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical CRC-32 ("123456789") check value.
        assert_eq!(Crc32::of(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::of(b""), 0);
        // Incremental == one-shot.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    #[test]
    fn type_codes_round_trip() {
        use crate::DataType;
        for ty in [
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Date,
            DataType::Bool,
        ] {
            assert_eq!(type_from_code(type_code(ty)), Some(ty));
        }
        assert_eq!(type_from_code(5), None);
        assert_eq!(type_from_code(255), None);
    }

    #[test]
    fn byte_reader_writer_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.string("tonnage");
        w.string("");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.string().unwrap(), "tonnage");
        assert_eq!(r.string().unwrap(), "");
        assert_eq!(r.remaining(), 0);
        // Over-read is a typed error, not a panic.
        assert!(matches!(r.u8(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn byte_reader_rejects_bad_utf8_and_overlong_strings() {
        let mut w = ByteWriter::new();
        w.u32(3);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE, 0xFD]);
        let mut r = ByteReader::new(&bytes, "test");
        assert!(matches!(r.string(), Err(StoreError::Corrupt(_))));
        // Declared length exceeds the buffer.
        let mut w = ByteWriter::new();
        w.u32(1000);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert!(matches!(r.string(), Err(StoreError::Corrupt(_))));
    }
}
