//! The stable error codes both listeners answer with, each with the
//! HTTP status it maps to.
//!
//! One list generates the enum, `ErrorCode::as_str` and
//! `ErrorCode::status`, so a code cannot exist without its status.
//! `ErrorCode::ALL` exists only under `#[cfg(test)]`: a variant that
//! nothing outside the tests constructs is a `dead_code` warning.
//!
//! The tests below hold this list, the public wire constants and the
//! opcodes the decoders accept to `docs/lint/registry.txt` in both
//! directions, and hold the README's code list and opcode table to
//! them.

macro_rules! error_codes {
    ($($variant:ident => $code:literal, $status:literal;)*) => {
        /// A stable snake_case error code (clients branch on it).
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum ErrorCode {
            $($variant,)*
        }

        impl ErrorCode {
            /// Every code, in declaration order.
            #[cfg(test)]
            pub(crate) const ALL: &[ErrorCode] = &[$(ErrorCode::$variant,)*];

            /// The code as it travels in a JSON body or an error frame.
            pub(crate) fn as_str(self) -> &'static str {
                match self {
                    $(ErrorCode::$variant => $code,)*
                }
            }

            /// The HTTP status this code answers with (an error frame
            /// carries the same status).
            pub(crate) fn status(self) -> u16 {
                match self {
                    $(ErrorCode::$variant => $status,)*
                }
            }
        }
    };
}

error_codes! {
    // Request and session-state errors from the API layer.
    AtRoot => "at_root", 422;
    BackendFailure => "backend_failure", 500;
    BadConfig => "bad_config", 400;
    BadContext => "bad_context", 400;
    BadDataset => "bad_dataset", 422;
    BadRequest => "bad_request", 400;
    CapacityExhausted => "capacity_exhausted", 503;
    DatasetDisabled => "dataset_disabled", 403;
    DatasetForbidden => "dataset_forbidden", 403;
    EmptyContext => "empty_context", 422;
    InvalidContext => "invalid_context", 422;
    MethodNotAllowed => "method_not_allowed", 405;
    NoCuttableAttribute => "no_cuttable_attribute", 422;
    NoSuchDataset => "no_such_dataset", 404;
    NoSuchRoute => "no_such_route", 404;
    NoSuchSegment => "no_such_segment", 422;
    NoSuchSession => "no_such_session", 404;
    SessionNotStarted => "session_not_started", 409;
    UnsatisfiableContext => "unsatisfiable_context", 422;
    // Transport errors, answered before a request reaches the router.
    BadFrame => "bad_frame", 400;
    BodyTooLarge => "body_too_large", 413;
    HeadTooLarge => "head_too_large", 431;
    UnsupportedHttpVersion => "unsupported_http_version", 505;
    UnsupportedMethod => "unsupported_method", 501;
    UnsupportedTransferEncoding => "unsupported_transfer_encoding", 501;
}

#[cfg(test)]
mod tests {
    use super::ErrorCode;
    use crate::wire::*;
    use std::collections::{BTreeMap, BTreeSet};

    const REGISTRY: &str = include_str!("../../../docs/lint/registry.txt");
    const README: &str = include_str!("../../../README.md");

    /// The `key = value` entries of one `[section]` of the registry.
    /// Blank lines and `#` comments are skipped.
    fn section(name: &str) -> BTreeMap<&'static str, &'static str> {
        let mut current = "";
        let mut out = BTreeMap::new();
        for line in REGISTRY.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                current = header;
            } else if current == name {
                let (key, value) = line
                    .split_once('=')
                    .expect("registry lines are `key = value`");
                out.insert(key.trim(), value.trim());
            }
        }
        out
    }

    /// A registered opcode section: name → byte.
    fn opcodes(name: &str) -> BTreeMap<&'static str, u8> {
        section(name)
            .into_iter()
            .map(|(op, v)| {
                let hex = v.strip_prefix("0x").expect("opcodes are 0x-hex");
                (op, u8::from_str_radix(hex, 16).expect("opcodes are bytes"))
            })
            .collect()
    }

    /// The bytes for which `decode` answers anything but `UnknownOpcode`.
    fn accepted<T>(decode: impl Fn(u8) -> Result<T, WireError>) -> BTreeSet<u8> {
        (0..=u8::MAX)
            .filter(|&op| !matches!(decode(op), Err(WireError::UnknownOpcode(o)) if o == op))
            .collect()
    }

    #[test]
    fn every_error_code_is_registered_with_its_status_and_nothing_else_is() {
        let mut registered: BTreeMap<&str, u16> = BTreeMap::new();
        for name in ["serve.error_codes", "serve.transport_error_codes"] {
            for (code, status) in section(name) {
                let status: u16 = status.parse().expect("statuses are numbers");
                let before = registered.insert(code, status);
                assert!(
                    before.is_none_or(|s| s == status),
                    "`{code}` is registered twice with different statuses"
                );
            }
        }
        let source: BTreeMap<&str, u16> = ErrorCode::ALL
            .iter()
            .map(|c| (c.as_str(), c.status()))
            .collect();
        assert_eq!(source.len(), ErrorCode::ALL.len(), "a code string repeats");
        assert_eq!(registered, source);
    }

    #[test]
    fn the_wire_constants_are_the_registered_ones() {
        let magic = String::from_utf8_lossy(&MAGIC).into_owned();
        let source: BTreeMap<&str, String> = [
            ("MAGIC", magic),
            ("VERSION", VERSION.to_string()),
            ("HEADER_LEN", HEADER_LEN.to_string()),
            ("MAX_REQUEST_PAYLOAD", MAX_REQUEST_PAYLOAD.to_string()),
            ("MAX_RESPONSE_PAYLOAD", MAX_RESPONSE_PAYLOAD.to_string()),
        ]
        .into_iter()
        .collect();
        let registered: BTreeMap<&str, String> = section("wire.constants")
            .into_iter()
            .map(|(k, v)| (k, v.to_string()))
            .collect();
        assert_eq!(registered, source);
    }

    #[test]
    fn the_decoders_accept_exactly_the_registered_opcodes() {
        let requests = opcodes("wire.request_opcodes");
        let responses = opcodes("wire.response_opcodes");
        let bytes = |ops: &BTreeMap<&str, u8>| ops.values().copied().collect::<BTreeSet<u8>>();
        assert_eq!(
            accepted(|op| WireRequest::decode(op, &[])),
            bytes(&requests)
        );
        assert_eq!(
            accepted(|op| WireResponse::decode(op, &[])),
            bytes(&responses)
        );
        assert_eq!(
            accepted(|op| summarize_response(op, &[])),
            bytes(&responses)
        );
        // Each registered name is the source constant of that value.
        let source: BTreeMap<&str, u8> = [
            ("OP_START", OP_START),
            ("OP_INSPECT", OP_INSPECT),
            ("OP_DRILL", OP_DRILL),
            ("OP_BACK", OP_BACK),
            ("OP_DELETE", OP_DELETE),
            ("OP_CACHE_STATS", OP_CACHE_STATS),
            ("OP_METRICS", OP_METRICS),
            ("OP_HEALTH", OP_HEALTH),
            ("RESP_STARTED", RESP_STARTED),
            ("RESP_ADVICE", RESP_ADVICE),
            ("RESP_INFO", RESP_INFO),
            ("RESP_DELETED", RESP_DELETED),
            ("RESP_CACHE_STATS", RESP_CACHE_STATS),
            ("RESP_METRICS", RESP_METRICS),
            ("RESP_HEALTH", RESP_HEALTH),
            ("RESP_ERROR", RESP_ERROR),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            requests
                .into_iter()
                .chain(responses)
                .collect::<BTreeMap<_, _>>(),
            source
        );
    }

    #[test]
    fn the_readme_lists_every_error_code_and_opcode() {
        for code in ErrorCode::ALL {
            let code = code.as_str();
            assert!(
                README.contains(&format!("`{code}`")),
                "the README's error-code list lacks `{code}`"
            );
        }
        for name in ["wire.request_opcodes", "wire.response_opcodes"] {
            for (op, value) in section(name) {
                assert!(
                    README.contains(&format!("`{op}` | `{value}`")),
                    "the README's opcode table lacks a `{op}` | `{value}` row"
                );
            }
        }
    }
}
