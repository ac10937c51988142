//! Helpers shared by the integration suites.

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Offset of the data segment ref of `column` (schema order) in the
/// footer: each entry is a validity ref (u64, u64, u32), the data ref, a
/// dictionary flag byte and, when it is 1, the dictionary ref.
fn data_ref(bytes: &[u8], column: usize) -> usize {
    use charles::store::disk::TRAILER_LEN;
    let footer_end = bytes.len() - TRAILER_LEN as usize;
    let mut at = u64_at(bytes, footer_end) as usize;
    for _ in 0..column {
        let flag = bytes[at + 40];
        at += 41 + if flag == 1 { 20 } else { 0 };
    }
    at + 20
}

/// Overwrite the data cell of `row` in `column` (schema order) with
/// `cell` — the column's own width and encoding (docs/FORMAT.md, "Data
/// segment") — and re-seal the file as a raw writer would have left it:
/// that data segment's CRC, the whole-file CRC and the footer CRC
/// (docs/FORMAT.md, "Footer"). What the builders refuse — a NaN, a
/// placeholder code other than 0 under a null — gets into a `.charles`
/// file this way.
pub fn patch_cell(path: &std::path::Path, column: usize, row: usize, cell: &[u8]) {
    use charles::store::disk::{Crc32, TRAILER_LEN};
    let mut bytes = std::fs::read(path).unwrap();
    let footer_end = bytes.len() - TRAILER_LEN as usize;
    let footer = u64_at(&bytes, footer_end) as usize;
    let data_ref = data_ref(&bytes, column);
    let (start, len) = (
        u64_at(&bytes, data_ref) as usize,
        u64_at(&bytes, data_ref + 8) as usize,
    );
    let at = start + row * cell.len();
    assert!(
        at + cell.len() <= start + len,
        "row {row} outside the segment"
    );
    bytes[at..at + cell.len()].copy_from_slice(cell);
    // In this order: the file CRC covers the cell, the footer CRC both others.
    for (at, covered) in [
        (data_ref + 16, start..start + len),
        (footer_end - 8, 0..footer),
        (footer_end - 4, footer..footer_end - 4),
    ] {
        let crc = Crc32::of(&bytes[covered]);
        bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    }
    std::fs::write(path, bytes).unwrap();
}

/// Overwrite the one float cell of the file's *first* column that holds
/// `marker` with `poison` ([`patch_cell`]). `TableBuilder` and
/// `StreamWriter` both refuse NaN, so this is how a test outside the
/// store gets one into a `.charles` file.
pub fn poison_float_cell(path: &std::path::Path, marker: f64, poison: f64) {
    let bytes = std::fs::read(path).unwrap();
    let data_ref = data_ref(&bytes, 0);
    let (start, len) = (
        u64_at(&bytes, data_ref) as usize,
        u64_at(&bytes, data_ref + 8) as usize,
    );
    let row = (start..start + len)
        .step_by(8)
        .position(|at| u64_at(&bytes, at) == marker.to_bits())
        .expect("marker cell present");
    patch_cell(path, 0, row, &poison.to_bits().to_le_bytes());
}
