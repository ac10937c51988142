//! Typed lint diagnostics, mirroring `charles_sdl::analyze`'s design:
//! stable snake_case codes, machine-readable output, human detail.

use std::fmt;

/// Every diagnostic code the engine can emit, in one place.
///
/// Codes are stable API: CI artefacts, suppression comments and
/// `docs/LINTS.md` all key on them. Add, never rename.
pub mod codes {
    /// Mutex guard binding live across a blocking I/O call in the same
    /// block scope.
    pub const LOCK_IO: &str = "lock_io";
    /// Public API surface differs from the committed snapshot in
    /// `docs/api/<crate>.txt`.
    pub const API_SNAPSHOT: &str = "api_snapshot";
    /// `lint:allow` comment without the mandatory reason text.
    pub const ALLOW_UNREASONED: &str = "allow_unreasoned";
    /// `lint:allow` comment naming a code this engine does not emit.
    pub const ALLOW_UNKNOWN: &str = "allow_unknown";
    /// `lint:allow` comment on a line that raised nothing under its code.
    pub const ALLOW_UNUSED: &str = "allow_unused";

    /// All codes, for validation of `lint:allow(<code>)` comments.
    pub const ALL: &[&str] = &[
        LOCK_IO,
        API_SNAPSHOT,
        ALLOW_UNREASONED,
        ALLOW_UNKNOWN,
        ALLOW_UNUSED,
    ];
}

/// One finding: where, what rule, and the human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable snake_case code from [`codes`].
    pub code: &'static str,
    /// Repo-relative file path (`/`-separated).
    pub file: String,
    /// 1-based line, or 0 for whole-file findings.
    pub line: u32,
    /// Human-readable explanation, including how to fix or suppress.
    pub detail: String,
}

impl Diagnostic {
    /// Construct a diagnostic.
    pub fn new(
        code: &'static str,
        file: impl Into<String>,
        line: u32,
        detail: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            file: file.into(),
            line,
            detail: detail.into(),
        }
    }

    /// This diagnostic as one JSON object (hand-rolled — the crate is
    /// dependency-free by design).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":{},\"file\":{},\"line\":{},\"detail\":{}}}",
            json_string(self.code),
            json_string(&self.file),
            self.line,
            json_string(&self.detail)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.code, self.detail)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.code, self.detail
            )
        }
    }
}

/// A full diagnostics list as a JSON array (one line; CI artefact).
pub fn to_json_array(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

/// Minimal JSON string encoder (escapes quotes, backslashes, control
/// characters) — same dialect the serve crate hand-rolls.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shapes() {
        let d = Diagnostic::new(codes::LOCK_IO, "a/b.rs", 7, "call \"x\"\nhere");
        assert_eq!(
            d.to_json(),
            "{\"code\":\"lock_io\",\"file\":\"a/b.rs\",\"line\":7,\"detail\":\"call \\\"x\\\"\\nhere\"}"
        );
        assert_eq!(to_json_array(&[]), "[]");
        assert!(to_json_array(&[d.clone(), d]).starts_with("[{"));
    }

    #[test]
    fn display_omits_line_zero() {
        let d = Diagnostic::new(codes::API_SNAPSHOT, "docs/api/x.txt", 0, "missing");
        assert_eq!(d.to_string(), "docs/api/x.txt: [api_snapshot] missing");
    }
}
