//! Helpers shared by the integration suites.

/// Overwrite the one float cell of the file's *first* column that holds
/// `marker` with `poison`, and re-seal the file as a raw writer would
/// have left it: that data segment's CRC, the whole-file CRC and the
/// footer CRC (docs/FORMAT.md, "Footer"). `TableBuilder` and
/// `StreamWriter` both refuse NaN, so this is how a test outside the
/// store gets one into a `.charles` file.
pub fn poison_float_cell(path: &std::path::Path, marker: f64, poison: f64) {
    use charles::store::disk::{Crc32, TRAILER_LEN};
    let mut bytes = std::fs::read(path).unwrap();
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let footer_end = bytes.len() - TRAILER_LEN as usize;
    let footer = u64_at(&bytes, footer_end) as usize;
    // First column: validity ref (u64, u64, u32), then the data ref.
    let data_ref = footer + 20;
    let (start, len) = (
        u64_at(&bytes, data_ref) as usize,
        u64_at(&bytes, data_ref + 8) as usize,
    );
    let cell = (start..start + len)
        .step_by(8)
        .find(|&at| u64_at(&bytes, at) == marker.to_bits())
        .expect("marker cell present");
    bytes[cell..cell + 8].copy_from_slice(&poison.to_bits().to_le_bytes());
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
