//! Small formatting helpers shared by the renderers.

/// Human-readable row counts: `950`, `1.2k`, `3.4M`.
pub fn human_count(n: usize) -> String {
    if n < 1_000 {
        n.to_string()
    } else if n < 1_000_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        format!("{:.1}M", n as f64 / 1e6)
    }
}

/// Percentage with one decimal: `37.5%`.
pub fn percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Truncate a label to `max` characters, appending `…` when shortened.
pub fn truncate_label(s: &str, max: usize) -> String {
    if max == 0 {
        return String::new();
    }
    let count = s.chars().count();
    if count <= max {
        s.to_string()
    } else {
        let kept: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{kept}…")
    }
}

/// The glyph used for slice `i` in pies, bars and legends. Cycles after 16.
pub(crate) fn slice_glyph(i: usize) -> char {
    const GLYPHS: [char; 16] = [
        '█', '▓', '▒', '░', '◆', '◇', '●', '○', '▲', '△', '■', '□', '★', '☆', '◼', '◻',
    ];
    GLYPHS[i % GLYPHS.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(human_count(950), "950");
        assert_eq!(human_count(1_234), "1.2k");
        assert_eq!(human_count(3_400_000), "3.4M");
    }

    #[test]
    fn percents() {
        assert_eq!(percent(0.375), "37.5%");
        assert_eq!(percent(1.0), "100.0%");
        assert_eq!(percent(0.0), "0.0%");
    }

    #[test]
    fn truncation() {
        assert_eq!(truncate_label("short", 10), "short");
        assert_eq!(truncate_label("a-very-long-label", 8), "a-very-…");
        assert_eq!(truncate_label("exact", 5), "exact");
        assert_eq!(truncate_label("x", 0), "");
        // Unicode-safe.
        assert_eq!(truncate_label("ぱぱぱぱ", 3), "ぱぱ…");
    }

    #[test]
    fn glyphs_cycle() {
        assert_eq!(slice_glyph(0), slice_glyph(16));
        assert_ne!(slice_glyph(0), slice_glyph(1));
    }
}
