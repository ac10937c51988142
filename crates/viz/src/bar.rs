//! 100%-stacked bars: the compact segmentation preview of the ranked list.

use crate::format::{percent, slice_glyph};

/// Render weights as a single-line stacked bar of the given width, e.g.
/// `████▓▓▒▒` for three pieces of 50/25/25%. Every non-zero weight gets
/// at least one cell so small segments stay visible.
pub fn stacked_bar(weights: &[f64], width: usize) -> String {
    let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    if total <= 0.0 || width == 0 {
        return " ".repeat(width);
    }
    // First pass: one guaranteed cell per non-zero weight.
    let positive: Vec<(usize, f64)> = weights
        .iter()
        .enumerate()
        .filter(|(_, w)| w.is_finite() && **w > 0.0)
        .map(|(i, w)| (i, *w))
        .collect();
    let mut cells: Vec<usize> = positive.iter().map(|_| 1usize).collect();
    let mut used: usize = cells.iter().sum();
    if used > width {
        // More segments than cells: trail off with the last ones dropped.
        cells.truncate(width);
        used = width;
    }
    // Second pass: distribute the remaining cells by largest remainder.
    let spare = width - used;
    if spare > 0 {
        let mut shares: Vec<(usize, f64)> = positive
            .iter()
            .take(cells.len())
            .enumerate()
            .map(|(k, (_, w))| (k, w / total * spare as f64))
            .collect();
        let mut given = 0usize;
        for (k, share) in &shares {
            let whole = share.floor() as usize;
            cells[*k] += whole;
            given += whole;
        }
        shares.sort_by(|a, b| {
            (b.1 - b.1.floor())
                .partial_cmp(&(a.1 - a.1.floor()))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for (k, _) in shares.iter().take(spare - given) {
            cells[*k] += 1;
        }
    }
    let mut out = String::with_capacity(width * 3);
    for (k, (i, _)) in positive.iter().take(cells.len()).enumerate() {
        for _ in 0..cells[k] {
            out.push(slice_glyph(*i));
        }
    }
    out
}

/// A legend line per segment: glyph, percentage, label.
pub(crate) fn bar_legend(labels: &[String], weights: &[f64]) -> String {
    let total: f64 = weights.iter().sum();
    let mut out = String::new();
    for (i, (label, w)) in labels.iter().zip(weights).enumerate() {
        let frac = if total > 0.0 { w / total } else { 0.0 };
        out.push_str(&format!(
            "{} {:>6}  {}\n",
            slice_glyph(i),
            percent(frac),
            label
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_has_requested_width() {
        let b = stacked_bar(&[0.5, 0.25, 0.25], 16);
        assert_eq!(b.chars().count(), 16);
    }

    #[test]
    fn proportions_roughly_respected() {
        let b = stacked_bar(&[0.75, 0.25], 16);
        let big = b.chars().filter(|&c| c == slice_glyph(0)).count();
        assert!((11..=13).contains(&big), "{b}");
    }

    #[test]
    fn tiny_segments_still_visible() {
        let b = stacked_bar(&[0.98, 0.01, 0.01], 10);
        assert!(b.contains(slice_glyph(1)));
        assert!(b.contains(slice_glyph(2)));
    }

    #[test]
    fn zero_weights_skipped() {
        let b = stacked_bar(&[0.5, 0.0, 0.5], 10);
        assert!(!b.contains(slice_glyph(1)));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(stacked_bar(&[], 5), "     ");
        assert_eq!(stacked_bar(&[0.0], 5), "     ");
        assert_eq!(stacked_bar(&[1.0], 0), "");
    }

    #[test]
    fn legend_lines_up() {
        let legend = bar_legend(&["first".to_string(), "second".to_string()], &[3.0, 1.0]);
        assert!(legend.contains("75.0%"));
        assert!(legend.contains("25.0%"));
        assert!(legend.contains("first"));
        assert_eq!(legend.lines().count(), 2);
    }
}
