//! The binary wire protocol: a versioned, length-prefixed framing of
//! the same session API the HTTP listener serves, built for
//! cached-advice throughput.
//!
//! # Frame layout
//!
//! Every frame — request or response — starts with a 10-byte header:
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 4 | magic `b"CHRW"` |
//! | 4 | 1 | protocol version (currently [`VERSION`]) |
//! | 5 | 1 | opcode (request `0x01..=0x08`, response `0x81..=0x87` / `0xEE`) |
//! | 6 | 4 | payload length, little-endian `u32` |
//!
//! followed by `payload length` bytes of opcode-specific payload. All
//! integers are little-endian fixed-width; strings are a `u32` byte
//! length followed by UTF-8 bytes; floats travel as their verbatim
//! IEEE-754 bits (`f64::to_bits`), so advice payloads round-trip
//! bit-exactly — no text formatting or parsing anywhere on the path.
//!
//! # Versioning
//!
//! The version byte is checked before the opcode is interpreted: a
//! server answers a frame with an unknown version with one `0xEE` error
//! frame (still version-1-framed, which any client can skip by length)
//! and closes. Payload layouts never change within a version; new
//! opcodes may be added (old servers answer unknown opcodes with an
//! error frame, old clients never see new response opcodes unless they
//! asked for them).
//!
//! # Pipelining
//!
//! Responses are returned strictly in request order, so clients may
//! write many frames before reading any response and match them up
//! FIFO. A connection's one thread decodes, dispatches and appends each
//! answer to a pending buffer, which it writes out before it next reads
//! the socket (or once past 256 KiB): a burst of pipelined frames that
//! arrived together is answered in one `write`, and a client that stops
//! reading stops the server's reads, through the socket (ADR 0031).
//! HTTP connections run the same loop; only the framing differs.
//!
//! # Relationship to the HTTP listener
//!
//! Both listeners dispatch through the same crate-internal API layer,
//! so every decision (status, error code, advice bytes) is shared by
//! construction. [`WireResponse::to_http`] renders a decoded binary
//! response as the exact `(status, JSON body)` the HTTP listener would
//! have produced for the equivalent request — the cross-listener
//! equivalence oracle in `tests/serve_concurrency.rs` leans on this.

use crate::client::ClientConfig;
use crate::codes::ErrorCode;
use crate::json::{
    cache_stats_body, error_body, info_body, json_array, json_f64, json_string, json_string_array,
    metrics_body, session_body, stop_reason_name, HEALTH_BODY,
};
use crate::server::{
    api_back, api_cache_stats, api_create_session, api_delete_session, api_drill, api_metrics,
    api_session_info, ApiError, ApiOk, ServerState,
};
use crate::MetricsSnapshot;
use charles_core::hbcuts::StopReason;
use charles_core::Advice;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"CHRW";
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Fixed frame-header length (magic + version + opcode + payload len).
pub const HEADER_LEN: usize = 10;
/// Largest request payload a server accepts (an SDL context plus a
/// dataset directive fits in a fraction of this).
pub const MAX_REQUEST_PAYLOAD: u32 = 1 << 20;
/// Largest response payload a client accepts (a deep advice trace is
/// tens of kilobytes; this is headroom, not a target).
pub const MAX_RESPONSE_PAYLOAD: u32 = 64 << 20;

pub(crate) const OP_START: u8 = 0x01;
pub(crate) const OP_INSPECT: u8 = 0x02;
pub(crate) const OP_DRILL: u8 = 0x03;
pub(crate) const OP_BACK: u8 = 0x04;
pub(crate) const OP_DELETE: u8 = 0x05;
pub(crate) const OP_CACHE_STATS: u8 = 0x06;
pub(crate) const OP_METRICS: u8 = 0x07;
pub(crate) const OP_HEALTH: u8 = 0x08;

pub(crate) const RESP_STARTED: u8 = 0x81;
pub(crate) const RESP_ADVICE: u8 = 0x82;
pub(crate) const RESP_INFO: u8 = 0x83;
pub(crate) const RESP_DELETED: u8 = 0x84;
pub(crate) const RESP_CACHE_STATS: u8 = 0x85;
pub(crate) const RESP_METRICS: u8 = 0x86;
pub(crate) const RESP_HEALTH: u8 = 0x87;
pub(crate) const RESP_ERROR: u8 = 0xEE;

/// Everything that can go wrong speaking the protocol. Decoding
/// arbitrary bytes yields one of these — never a panic.
#[derive(Debug)]
pub enum WireError {
    /// Transport-level failure (includes `UnexpectedEof` when the peer
    /// closes mid-frame).
    Io(std::io::Error),
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u8),
    /// The opcode byte is not one this decoder knows.
    UnknownOpcode(u8),
    /// The declared payload length exceeds the decoder's bound.
    FrameTooLarge {
        /// Declared payload length.
        len: u32,
        /// The decoder's limit.
        max: u32,
    },
    /// The payload ended before the opcode's fields did.
    Truncated,
    /// The payload had bytes left over after the opcode's fields.
    TrailingBytes,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A field held a value outside its domain (named).
    BadValue(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            WireError::Truncated => write!(f, "frame payload truncated"),
            WireError::TrailingBytes => write!(f, "frame payload has trailing bytes"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadValue(what) => write!(f, "field out of domain: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// One request frame, borrowing its strings from the decode buffer (the
/// server's request path allocates nothing in steady state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRequest<'a> {
    /// Start a session from an SDL context (may begin with an `@path`
    /// dataset directive, exactly like the HTTP `POST /session` body).
    Start {
        /// The session body: optional directive line + SDL context.
        body: &'a str,
    },
    /// Breadcrumbs + current advice for a session.
    Inspect {
        /// Session id.
        id: &'a str,
    },
    /// Drill into segment `seg` of ranked segmentation `rank`.
    Drill {
        /// Session id.
        id: &'a str,
        /// Index into the ranked segmentations.
        rank: u32,
        /// Index of the segment within that segmentation.
        seg: u32,
    },
    /// Pop one breadcrumb.
    Back {
        /// Session id.
        id: &'a str,
    },
    /// Drop a session.
    Delete {
        /// Session id.
        id: &'a str,
    },
    /// Shared advice-cache counters.
    CacheStats,
    /// Serving-layer counters.
    Metrics,
    /// Liveness probe.
    Health,
}

impl<'a> WireRequest<'a> {
    /// This request's opcode byte.
    pub fn opcode(&self) -> u8 {
        match self {
            WireRequest::Start { .. } => OP_START,
            WireRequest::Inspect { .. } => OP_INSPECT,
            WireRequest::Drill { .. } => OP_DRILL,
            WireRequest::Back { .. } => OP_BACK,
            WireRequest::Delete { .. } => OP_DELETE,
            WireRequest::CacheStats => OP_CACHE_STATS,
            WireRequest::Metrics => OP_METRICS,
            WireRequest::Health => OP_HEALTH,
        }
    }

    /// Append this request as one complete frame to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = begin_frame(buf, self.opcode());
        match self {
            WireRequest::Start { body } => put_str(buf, body),
            WireRequest::Inspect { id } | WireRequest::Back { id } | WireRequest::Delete { id } => {
                put_str(buf, id);
            }
            WireRequest::Drill { id, rank, seg } => {
                put_str(buf, id);
                put_u32(buf, *rank);
                put_u32(buf, *seg);
            }
            WireRequest::CacheStats | WireRequest::Metrics | WireRequest::Health => {}
        }
        end_frame(buf, start);
    }

    /// Decode the payload of a frame whose header carried `opcode`.
    pub fn decode(opcode: u8, payload: &'a [u8]) -> Result<WireRequest<'a>, WireError> {
        let mut cur = Cur::new(payload);
        let req = match opcode {
            OP_START => WireRequest::Start {
                body: cur.str_field()?,
            },
            OP_INSPECT => WireRequest::Inspect {
                id: cur.str_field()?,
            },
            OP_DRILL => WireRequest::Drill {
                id: cur.str_field()?,
                rank: cur.u32()?,
                seg: cur.u32()?,
            },
            OP_BACK => WireRequest::Back {
                id: cur.str_field()?,
            },
            OP_DELETE => WireRequest::Delete {
                id: cur.str_field()?,
            },
            OP_CACHE_STATS => WireRequest::CacheStats,
            OP_METRICS => WireRequest::Metrics,
            OP_HEALTH => WireRequest::Health,
            other => return Err(WireError::UnknownOpcode(other)),
        };
        cur.finish()?;
        Ok(req)
    }
}

/// One ranked segmentation of a decoded advice payload.
#[derive(Debug, Clone)]
pub struct WireRanked {
    /// The segmentation's queries, rendered exactly as the JSON path
    /// renders them (what drill indices select).
    pub segmentation: Vec<String>,
    /// Entropy (nats) — bit-exact across the wire.
    pub entropy: f64,
    /// Max constraints per query.
    pub simplicity: u64,
    /// Distinct constrained columns.
    pub breadth: u64,
    /// Number of queries.
    pub depth: u64,
}

/// One composition step of a decoded trace.
#[derive(Debug, Clone)]
pub struct WireStep {
    /// Attributes of the first operand.
    pub left: Vec<String>,
    /// Attributes of the second operand.
    pub right: Vec<String>,
    /// INDEP of the chosen pair — bit-exact across the wire.
    pub indep: f64,
    /// Depth of the composition result.
    pub depth: u64,
    /// Whether the step was accepted.
    pub accepted: bool,
}

/// One skipped (uncomposable) pair of a decoded trace.
#[derive(Debug, Clone)]
pub struct WirePair {
    /// Attributes of the first operand.
    pub left: Vec<String>,
    /// Attributes of the second operand.
    pub right: Vec<String>,
    /// INDEP of the skipped pair — bit-exact across the wire.
    pub indep: f64,
}

/// A decoded HB-cuts execution trace.
#[derive(Debug, Clone, Default)]
pub struct WireTrace {
    /// Attributes successfully seeded.
    pub seeds: Vec<String>,
    /// Attributes that could not be cut.
    pub skipped: Vec<String>,
    /// Composition steps in order.
    pub steps: Vec<WireStep>,
    /// Best pairs skipped as uncomposable.
    pub skipped_pairs: Vec<WirePair>,
    /// Why the loop stopped.
    pub stop: Option<StopReason>,
}

/// A decoded advice payload — the deterministic fields of
/// [`charles_core::Advice`], exactly the set the JSON encoder serves.
#[derive(Debug, Clone)]
pub struct WireAdvice {
    /// The canonical context advised on, rendered.
    pub context: String,
    /// Rows in the context extent.
    pub context_size: u64,
    /// Ranked segmentations, best first.
    pub ranked: Vec<WireRanked>,
    /// Execution trace.
    pub trace: WireTrace,
}

impl From<&Advice> for WireAdvice {
    /// The lowering every served advice undergoes: queries rendered to
    /// text, counters widened to `u64`, floats kept as bits. Both
    /// formats encode from it — JSON through [`WireAdvice::to_json`],
    /// CHRW through the one payload writer — so they cannot disagree
    /// about a field.
    fn from(advice: &Advice) -> WireAdvice {
        let trace = &advice.trace;
        WireAdvice {
            context: advice.context.to_string(),
            context_size: advice.context_size as u64,
            ranked: advice
                .ranked
                .iter()
                .map(|r| WireRanked {
                    segmentation: r
                        .segmentation
                        .queries()
                        .iter()
                        .map(ToString::to_string)
                        .collect(),
                    entropy: r.score.entropy,
                    simplicity: r.score.simplicity as u64,
                    breadth: r.score.breadth as u64,
                    depth: r.score.depth as u64,
                })
                .collect(),
            trace: WireTrace {
                seeds: trace.seeds.clone(),
                skipped: trace.skipped.clone(),
                steps: trace
                    .steps
                    .iter()
                    .map(|s| WireStep {
                        left: s.left_attrs.clone(),
                        right: s.right_attrs.clone(),
                        indep: s.indep,
                        depth: s.depth as u64,
                        accepted: s.accepted,
                    })
                    .collect(),
                skipped_pairs: trace
                    .skipped_pairs
                    .iter()
                    .map(|p| WirePair {
                        left: p.left_attrs.clone(),
                        right: p.right_attrs.clone(),
                        indep: p.indep,
                    })
                    .collect(),
                stop: trace.stop,
            },
        }
    }
}

impl WireAdvice {
    /// Render this advice as the JSON object both listeners serve — the
    /// one JSON advice encoder ([`crate::json::encode_advice`] is this
    /// on the lowered `Advice`). Floats travel as bits, so a decoded
    /// payload renders the same shortest-round-trip text as its source.
    pub fn to_json(&self) -> String {
        let ranked = json_array(&self.ranked, |r| {
            format!(
                "{{\"segmentation\":{},\"score\":{{\"entropy\":{},\"simplicity\":{},\"breadth\":{},\"depth\":{}}}}}",
                json_string_array(&r.segmentation),
                json_f64(r.entropy),
                r.simplicity,
                r.breadth,
                r.depth
            )
        });
        let steps = json_array(&self.trace.steps, |s| {
            format!(
                "{{\"left\":{},\"right\":{},\"indep\":{},\"depth\":{},\"accepted\":{}}}",
                json_string_array(&s.left),
                json_string_array(&s.right),
                json_f64(s.indep),
                s.depth,
                s.accepted
            )
        });
        let skipped_pairs = json_array(&self.trace.skipped_pairs, |p| {
            format!(
                "{{\"left\":{},\"right\":{},\"indep\":{}}}",
                json_string_array(&p.left),
                json_string_array(&p.right),
                json_f64(p.indep)
            )
        });
        let stop = match self.trace.stop {
            Some(s) => json_string(stop_reason_name(s)),
            None => "null".to_string(),
        };
        format!(
            "{{\"context\":{},\"context_size\":{},\"ranked\":{},\"trace\":{{\"seeds\":{},\"skipped\":{},\"steps\":{},\"skipped_pairs\":{},\"stop\":{}}}}}",
            json_string(&self.context),
            self.context_size,
            ranked,
            json_string_array(&self.trace.seeds),
            json_string_array(&self.trace.skipped),
            steps,
            skipped_pairs,
            stop
        )
    }
}

/// Shared advice-cache counters off the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCacheStats {
    /// Lookups that found a settled entry.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
    /// Advisor executions performed.
    pub runs: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: u64,
    /// Entry bound; `None` = unbounded.
    pub capacity: Option<u64>,
}

/// A structured error response: the binary rendering of the JSON
/// `{"error":{...}}` body.
#[derive(Debug, Clone)]
pub struct WireFault {
    /// The status the HTTP listener would have answered with.
    pub status: u16,
    /// Stable snake_case error code.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// Static-analysis findings, when the error carries them (`Some`
    /// renders a `diagnostics` array in JSON, even when empty).
    pub diagnostics: Option<Vec<WireDiagnostic>>,
}

/// One static-analysis finding of a [`WireFault`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// Stable snake_case finding code.
    pub code: String,
    /// The attribute the finding is about.
    pub attr: String,
    /// Human-readable detail.
    pub detail: String,
}

/// One decoded response frame.
#[derive(Debug, Clone)]
pub enum WireResponse {
    /// A session was created (HTTP 201).
    Started {
        /// The new session's id.
        id: String,
        /// Root advice.
        advice: WireAdvice,
    },
    /// Advice after a drill or back (HTTP 200).
    Advice {
        /// Session id.
        id: String,
        /// Current advice.
        advice: WireAdvice,
    },
    /// Session inspection (HTTP 200).
    Info {
        /// Session id.
        id: String,
        /// Breadcrumb depth.
        depth: u64,
        /// Rendered breadcrumb contexts, root first.
        breadcrumbs: Vec<String>,
        /// Current advice.
        advice: WireAdvice,
    },
    /// A session was deleted (HTTP 204).
    Deleted,
    /// Cache counters.
    CacheStats(WireCacheStats),
    /// Serving-layer counters (the shared [`MetricsSnapshot`], which
    /// both listeners' traffic feeds).
    Metrics(MetricsSnapshot),
    /// Liveness.
    Health,
    /// Any failure (HTTP 4xx/5xx).
    Error(WireFault),
}

impl WireResponse {
    /// The HTTP status the equivalent JSON-path response would carry.
    pub fn status(&self) -> u16 {
        match self {
            WireResponse::Started { .. } => 201,
            WireResponse::Advice { .. }
            | WireResponse::Info { .. }
            | WireResponse::CacheStats(_)
            | WireResponse::Metrics(_)
            | WireResponse::Health => 200,
            WireResponse::Deleted => 204,
            WireResponse::Error(f) => f.status,
        }
    }

    /// Render this response as the exact `(status, JSON body)` the HTTP
    /// listener produces for the equivalent request — the two listeners
    /// are interchangeable up to framing, and this is the function that
    /// makes that testable byte-for-byte.
    pub fn to_http(&self) -> (u16, String) {
        match self {
            WireResponse::Started { id, advice } => (201, session_body(id, &advice.to_json())),
            WireResponse::Advice { id, advice } => (200, session_body(id, &advice.to_json())),
            WireResponse::Info {
                id,
                depth,
                breadcrumbs,
                advice,
            } => (200, info_body(id, *depth, breadcrumbs, &advice.to_json())),
            WireResponse::Deleted => (204, String::new()),
            WireResponse::CacheStats(c) => (200, cache_stats_body(c)),
            WireResponse::Metrics(m) => (200, metrics_body(m)),
            WireResponse::Health => (200, HEALTH_BODY.to_string()),
            WireResponse::Error(f) => {
                let diagnostics: Option<Vec<(&str, &str, &str)>> =
                    f.diagnostics.as_ref().map(|ds| {
                        ds.iter()
                            .map(|d| (d.code.as_str(), d.attr.as_str(), d.detail.as_str()))
                            .collect()
                    });
                (
                    f.status,
                    error_body(&f.code, &f.message, diagnostics.as_deref()),
                )
            }
        }
    }

    /// This response's opcode byte.
    pub fn opcode(&self) -> u8 {
        match self {
            WireResponse::Started { .. } => RESP_STARTED,
            WireResponse::Advice { .. } => RESP_ADVICE,
            WireResponse::Info { .. } => RESP_INFO,
            WireResponse::Deleted => RESP_DELETED,
            WireResponse::CacheStats(_) => RESP_CACHE_STATS,
            WireResponse::Metrics(_) => RESP_METRICS,
            WireResponse::Health => RESP_HEALTH,
            WireResponse::Error(_) => RESP_ERROR,
        }
    }

    /// Append this response as one complete frame to `buf`. The server
    /// frames its own types (`encode_api_result`), but every payload
    /// field goes through the same writers as here: an advice through
    /// `put_wire_advice`, cache counters through `put_cache_stats`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = begin_frame(buf, self.opcode());
        match self {
            WireResponse::Started { id, advice } | WireResponse::Advice { id, advice } => {
                put_str(buf, id);
                put_wire_advice(buf, advice);
            }
            WireResponse::Info {
                id,
                depth,
                breadcrumbs,
                advice,
            } => {
                put_str(buf, id);
                put_u64(buf, *depth);
                put_u32(buf, breadcrumbs.len() as u32);
                for b in breadcrumbs {
                    put_str(buf, b);
                }
                put_wire_advice(buf, advice);
            }
            WireResponse::Deleted | WireResponse::Health => {}
            WireResponse::CacheStats(c) => put_cache_stats(buf, c),
            WireResponse::Metrics(m) => put_metrics(buf, m),
            WireResponse::Error(f) => {
                put_u16(buf, f.status);
                put_str(buf, &f.code);
                put_str(buf, &f.message);
                match &f.diagnostics {
                    None => put_u8(buf, 0),
                    Some(diags) => {
                        put_u8(buf, 1);
                        put_u32(buf, diags.len() as u32);
                        for d in diags {
                            put_str(buf, &d.code);
                            put_str(buf, &d.attr);
                            put_str(buf, &d.detail);
                        }
                    }
                }
            }
        }
        end_frame(buf, start);
    }

    /// Decode the payload of a frame whose header carried `opcode`.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<WireResponse, WireError> {
        let mut cur = Cur::new(payload);
        let resp = match opcode {
            RESP_STARTED => WireResponse::Started {
                id: cur.string()?,
                advice: get_advice(&mut cur)?,
            },
            RESP_ADVICE => WireResponse::Advice {
                id: cur.string()?,
                advice: get_advice(&mut cur)?,
            },
            RESP_INFO => {
                let id = cur.string()?;
                let depth = cur.u64()?;
                let n = cur.count()?;
                let mut breadcrumbs = Vec::new();
                for _ in 0..n {
                    breadcrumbs.push(cur.string()?);
                }
                WireResponse::Info {
                    id,
                    depth,
                    breadcrumbs,
                    advice: get_advice(&mut cur)?,
                }
            }
            RESP_DELETED => WireResponse::Deleted,
            RESP_CACHE_STATS => {
                let (hits, misses, runs) = (cur.u64()?, cur.u64()?, cur.u64()?);
                let (evictions, entries) = (cur.u64()?, cur.u64()?);
                let capacity = match cur.u8()? {
                    0 => None,
                    1 => Some(cur.u64()?),
                    _ => return Err(WireError::BadValue("capacity tag")),
                };
                WireResponse::CacheStats(WireCacheStats {
                    hits,
                    misses,
                    runs,
                    evictions,
                    entries,
                    capacity,
                })
            }
            RESP_METRICS => WireResponse::Metrics(MetricsSnapshot {
                connections: cur.u64()?,
                requests: cur.u64()?,
                responses_2xx: cur.u64()?,
                responses_4xx: cur.u64()?,
                responses_5xx: cur.u64()?,
                analysis_rejects: cur.u64()?,
                analysis_prunes: cur.u64()?,
            }),
            RESP_HEALTH => WireResponse::Health,
            RESP_ERROR => {
                let status = cur.u16()?;
                let code = cur.string()?;
                let message = cur.string()?;
                let diagnostics = match cur.u8()? {
                    0 => None,
                    1 => {
                        let n = cur.count()?;
                        let mut diags = Vec::new();
                        for _ in 0..n {
                            diags.push(WireDiagnostic {
                                code: cur.string()?,
                                attr: cur.string()?,
                                detail: cur.string()?,
                            });
                        }
                        Some(diags)
                    }
                    _ => return Err(WireError::BadValue("diagnostics tag")),
                };
                WireResponse::Error(WireFault {
                    status,
                    code,
                    message,
                    diagnostics,
                })
            }
            other => return Err(WireError::UnknownOpcode(other)),
        };
        cur.finish()?;
        Ok(resp)
    }
}

/// The cheap decode of a response frame: status plus (for session
/// responses) the session id, skipping the advice payload wholesale.
/// This is what a pipelined caller needs to account for a response —
/// full decoding is for consumers that read the advice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSummary {
    /// The HTTP-equivalent status.
    pub status: u16,
    /// The session id, when the response carries one.
    pub session_id: Option<String>,
    /// `code: message` of an error frame.
    pub error: Option<String>,
}

/// Summarize a response payload without materializing it (see
/// [`WireSummary`]). Validates framing of the fields it reads; the
/// skipped advice bytes are not inspected.
pub fn summarize_response(opcode: u8, payload: &[u8]) -> Result<WireSummary, WireError> {
    let mut cur = Cur::new(payload);
    let summary = match opcode {
        RESP_STARTED => WireSummary {
            status: 201,
            session_id: Some(cur.string()?),
            error: None,
        },
        RESP_ADVICE | RESP_INFO => WireSummary {
            status: 200,
            session_id: Some(cur.string()?),
            error: None,
        },
        RESP_DELETED => WireSummary {
            status: 204,
            session_id: None,
            error: None,
        },
        RESP_CACHE_STATS | RESP_METRICS | RESP_HEALTH => WireSummary {
            status: 200,
            session_id: None,
            error: None,
        },
        RESP_ERROR => {
            let status = cur.u16()?;
            let code = cur.string()?;
            let message = cur.string()?;
            WireSummary {
                status,
                session_id: None,
                error: Some(format!("{code}: {message}")),
            }
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    Ok(summary)
}

// ---------------------------------------------------------------------
// Server side: encoding straight from the API types.
// ---------------------------------------------------------------------

/// The status [`encode_api_result`] will frame for `result` (shared
/// with the metrics accounting; identical to the HTTP rendering's).
pub(crate) fn api_status(result: &Result<ApiOk, ApiError>) -> u16 {
    match result {
        Ok(ApiOk::Created { .. }) => 201,
        Ok(ApiOk::Deleted) => 204,
        Ok(_) => 200,
        Err(e) => e.code.status(),
    }
}

/// Append one response frame for an API outcome to `buf`. Re-sending an
/// advice allocates nothing beyond `buf`'s own (reused) growth — its
/// payload is copied from the advice's slot ([`put_advice`]); the first
/// send of each advice renders that payload once.
pub(crate) fn encode_api_result(buf: &mut Vec<u8>, result: &Result<ApiOk, ApiError>) {
    match result {
        Ok(ApiOk::Created { id, advice }) => {
            let start = begin_frame(buf, RESP_STARTED);
            put_str(buf, id);
            put_advice(buf, advice);
            end_frame(buf, start);
        }
        Ok(ApiOk::Advice { id, advice }) => {
            let start = begin_frame(buf, RESP_ADVICE);
            put_str(buf, id);
            put_advice(buf, advice);
            end_frame(buf, start);
        }
        Ok(ApiOk::Info {
            id,
            depth,
            breadcrumbs,
            advice,
        }) => {
            let start = begin_frame(buf, RESP_INFO);
            put_str(buf, id);
            put_u64(buf, *depth as u64);
            put_u32(buf, breadcrumbs.len() as u32);
            for b in breadcrumbs {
                put_str(buf, b);
            }
            put_advice(buf, advice);
            end_frame(buf, start);
        }
        Ok(ApiOk::Deleted) => {
            let start = begin_frame(buf, RESP_DELETED);
            end_frame(buf, start);
        }
        Ok(ApiOk::CacheStats(c)) => {
            let start = begin_frame(buf, RESP_CACHE_STATS);
            put_cache_stats(buf, c);
            end_frame(buf, start);
        }
        Ok(ApiOk::Metrics(m)) => {
            let start = begin_frame(buf, RESP_METRICS);
            put_metrics(buf, m);
            end_frame(buf, start);
        }
        Ok(ApiOk::Health) => {
            let start = begin_frame(buf, RESP_HEALTH);
            end_frame(buf, start);
        }
        Err(e) => {
            let start = begin_frame(buf, RESP_ERROR);
            put_u16(buf, e.code.status());
            put_str(buf, e.code.as_str());
            put_str(buf, &e.message);
            match &e.diagnostics {
                None => put_u8(buf, 0),
                Some(diags) => {
                    put_u8(buf, 1);
                    put_u32(buf, diags.len() as u32);
                    for d in diags {
                        put_str(buf, d.code.name());
                        put_str(buf, &d.attr);
                        put_str(buf, &d.detail);
                    }
                }
            }
            end_frame(buf, start);
        }
    }
}

/// Append a transport-level error frame (malformed request framing:
/// there is no request to dispatch, so this is built here, not in the
/// API layer).
pub(crate) fn encode_frame_error(buf: &mut Vec<u8>, err: &WireError) {
    let start = begin_frame(buf, RESP_ERROR);
    put_u16(buf, ErrorCode::BadFrame.status());
    put_str(buf, ErrorCode::BadFrame.as_str());
    put_display(buf, err);
    put_u8(buf, 0);
    end_frame(buf, start);
}

/// Append an advice payload — everything a session reply carries after
/// its id (and, for `Info`, its breadcrumbs). The first send of an
/// `Advice` lowers it and writes the payload ([`put_wire_advice`]) into
/// the advice's own binary slot; this and every later send copy the
/// slot, so re-sending a cached advice formats nothing.
fn put_advice(buf: &mut Vec<u8>, advice: &Advice) {
    buf.extend_from_slice(advice.encoded.binary(|| {
        let mut payload = Vec::new();
        put_wire_advice(&mut payload, &WireAdvice::from(advice));
        payload
    }));
}

/// Write an advice payload: the one CHRW advice encoder, for the
/// server's first send of an `Advice` and for [`WireResponse::encode`].
fn put_wire_advice(buf: &mut Vec<u8>, advice: &WireAdvice) {
    put_str(buf, &advice.context);
    put_u64(buf, advice.context_size);
    put_u32(buf, advice.ranked.len() as u32);
    for r in &advice.ranked {
        put_u32(buf, r.segmentation.len() as u32);
        for q in &r.segmentation {
            put_str(buf, q);
        }
        put_f64(buf, r.entropy);
        put_u64(buf, r.simplicity);
        put_u64(buf, r.breadth);
        put_u64(buf, r.depth);
    }
    put_str_list(buf, &advice.trace.seeds);
    put_str_list(buf, &advice.trace.skipped);
    put_u32(buf, advice.trace.steps.len() as u32);
    for s in &advice.trace.steps {
        put_str_list(buf, &s.left);
        put_str_list(buf, &s.right);
        put_f64(buf, s.indep);
        put_u64(buf, s.depth);
        put_u8(buf, u8::from(s.accepted));
    }
    put_u32(buf, advice.trace.skipped_pairs.len() as u32);
    for p in &advice.trace.skipped_pairs {
        put_str_list(buf, &p.left);
        put_str_list(buf, &p.right);
        put_f64(buf, p.indep);
    }
    put_u8(buf, encode_stop(advice.trace.stop));
}

fn put_cache_stats(buf: &mut Vec<u8>, c: &WireCacheStats) {
    put_u64(buf, c.hits);
    put_u64(buf, c.misses);
    put_u64(buf, c.runs);
    put_u64(buf, c.evictions);
    put_u64(buf, c.entries);
    match c.capacity {
        None => put_u8(buf, 0),
        Some(cap) => {
            put_u8(buf, 1);
            put_u64(buf, cap);
        }
    }
}

fn put_metrics(buf: &mut Vec<u8>, m: &MetricsSnapshot) {
    put_u64(buf, m.connections);
    put_u64(buf, m.requests);
    put_u64(buf, m.responses_2xx);
    put_u64(buf, m.responses_4xx);
    put_u64(buf, m.responses_5xx);
    put_u64(buf, m.analysis_rejects);
    put_u64(buf, m.analysis_prunes);
}

fn encode_stop(stop: Option<StopReason>) -> u8 {
    match stop {
        None => 0,
        Some(StopReason::IndependenceThreshold) => 1,
        Some(StopReason::DepthLimit) => 2,
        Some(StopReason::ExhaustedCandidates) => 3,
        Some(StopReason::ComposeFailed) => 4,
    }
}

fn decode_stop(tag: u8) -> Result<Option<StopReason>, WireError> {
    Ok(match tag {
        0 => None,
        1 => Some(StopReason::IndependenceThreshold),
        2 => Some(StopReason::DepthLimit),
        3 => Some(StopReason::ExhaustedCandidates),
        4 => Some(StopReason::ComposeFailed),
        _ => return Err(WireError::BadValue("stop reason")),
    })
}

fn get_advice(cur: &mut Cur<'_>) -> Result<WireAdvice, WireError> {
    let context = cur.string()?;
    let context_size = cur.u64()?;
    let ranked_count = cur.count()?;
    let mut ranked = Vec::new();
    for _ in 0..ranked_count {
        let seg_count = cur.count()?;
        let mut segmentation = Vec::new();
        for _ in 0..seg_count {
            segmentation.push(cur.string()?);
        }
        ranked.push(WireRanked {
            segmentation,
            entropy: cur.f64()?,
            simplicity: cur.u64()?,
            breadth: cur.u64()?,
            depth: cur.u64()?,
        });
    }
    let seeds = get_str_list(cur)?;
    let skipped = get_str_list(cur)?;
    let step_count = cur.count()?;
    let mut steps = Vec::new();
    for _ in 0..step_count {
        steps.push(WireStep {
            left: get_str_list(cur)?,
            right: get_str_list(cur)?,
            indep: cur.f64()?,
            depth: cur.u64()?,
            accepted: match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::BadValue("accepted flag")),
            },
        });
    }
    let pair_count = cur.count()?;
    let mut skipped_pairs = Vec::new();
    for _ in 0..pair_count {
        skipped_pairs.push(WirePair {
            left: get_str_list(cur)?,
            right: get_str_list(cur)?,
            indep: cur.f64()?,
        });
    }
    let stop = decode_stop(cur.u8()?)?;
    Ok(WireAdvice {
        context,
        context_size,
        ranked,
        trace: WireTrace {
            seeds,
            skipped,
            steps,
            skipped_pairs,
            stop,
        },
    })
}

fn get_str_list(cur: &mut Cur<'_>) -> Result<Vec<String>, WireError> {
    let n = cur.count()?;
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(cur.string()?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Primitive writers / readers.
// ---------------------------------------------------------------------

/// Append a frame header with a zero length placeholder; returns the
/// header's offset for [`end_frame`] to patch.
fn begin_frame(buf: &mut Vec<u8>, opcode: u8) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(opcode);
    buf.extend_from_slice(&[0u8; 4]);
    start
}

/// Patch the payload length of the frame opened at `start`.
fn end_frame(buf: &mut [u8], start: usize) {
    let len = (buf.len() - start - HEADER_LEN) as u32;
    // `start` was returned by `begin_frame`, so the header span exists.
    buf[start + 6..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_str_list(buf: &mut Vec<u8>, items: &[String]) {
    put_u32(buf, items.len() as u32);
    for s in items {
        put_str(buf, s);
    }
}

/// Write a `Display` value as a length-prefixed string without an
/// intermediate allocation: reserve the length slot, format straight
/// into the buffer, patch the slot.
fn put_display(buf: &mut Vec<u8>, v: &dyn std::fmt::Display) {
    let patch = buf.len();
    buf.extend_from_slice(&[0u8; 4]);
    let start = buf.len();
    // Writes into a Vec are infallible.
    let _ = write!(buf, "{v}");
    let len = (buf.len() - start) as u32;
    // `patch` points at the 4-byte length slot reserved above.
    buf[patch..patch + 4].copy_from_slice(&len.to_le_bytes());
}

/// Bounds-checked cursor over one frame payload. Every read is
/// explicit-length; nothing indexes unchecked, so arbitrary byte soup
/// decodes to a [`WireError`], never a panic.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Cur<'a> {
        Cur { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// An element count: rejected up front when the payload cannot
    /// possibly hold that many elements (≥ 1 byte each), so a hostile
    /// count cannot drive a huge loop or allocation.
    fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn str_field(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
    }

    fn string(&mut self) -> Result<String, WireError> {
        Ok(self.str_field()?.to_string())
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// Read one frame header + payload from `r`, leaving the payload in
/// `scratch` (reused across calls — the steady-state read path
/// allocates nothing) and returning the opcode.
pub fn read_frame<R: Read>(
    r: &mut R,
    scratch: &mut Vec<u8>,
    max_payload: u32,
) -> Result<u8, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[..4] != MAGIC {
        return Err(WireError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    if header[4] != VERSION {
        return Err(WireError::UnsupportedVersion(header[4]));
    }
    let opcode = header[5];
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > max_payload {
        return Err(WireError::FrameTooLarge {
            len,
            max: max_payload,
        });
    }
    scratch.clear();
    scratch.resize(len as usize, 0);
    r.read_exact(scratch)?;
    Ok(opcode)
}

// ---------------------------------------------------------------------
// Server side: the connection loop in `server.rs` decodes with
// `read_frame` + `WireRequest::decode` and answers through these.
// ---------------------------------------------------------------------

/// Dispatch one decoded request through the shared API layer — the same
/// functions the HTTP router calls, so both listeners' behaviour is one
/// implementation.
pub(crate) fn dispatch(state: &ServerState, req: &WireRequest<'_>) -> Result<ApiOk, ApiError> {
    match req {
        WireRequest::Start { body } => api_create_session(state, body),
        WireRequest::Inspect { id } => api_session_info(state, id),
        WireRequest::Drill { id, rank, seg } => api_drill(state, id, *rank as usize, *seg as usize),
        WireRequest::Back { id } => api_back(state, id),
        WireRequest::Delete { id } => api_delete_session(state, id),
        WireRequest::CacheStats => Ok(api_cache_stats(state)),
        WireRequest::Metrics => Ok(api_metrics(state)),
        WireRequest::Health => Ok(ApiOk::Health),
    }
}

// ---------------------------------------------------------------------
// Client side.
// ---------------------------------------------------------------------

/// One binary-protocol connection: socket + reusable encode/decode
/// buffers. Supports pipelining directly — [`stage`](WireConn::stage)
/// any number of requests, [`flush`](WireConn::flush) them in one
/// write, then receive responses in request order.
pub struct WireConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    encode: Vec<u8>,
    scratch: Vec<u8>,
}

impl WireConn {
    /// Connect with the same deadline and `TCP_NODELAY` semantics as
    /// the HTTP [`crate::Client`] (identical socket setup, shared
    /// code path).
    pub fn connect(addr: &SocketAddr, config: &ClientConfig) -> std::io::Result<WireConn> {
        let stream = crate::client::connect(addr, config)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(WireConn {
            reader,
            writer: stream,
            encode: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Queue one request frame in the encode buffer without writing.
    pub fn stage(&mut self, req: &WireRequest<'_>) {
        req.encode(&mut self.encode);
    }

    /// Write all staged frames in one syscall and clear the buffer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.encode.is_empty() {
            return Ok(());
        }
        let res = self.writer.write_all(&self.encode);
        self.encode.clear();
        res
    }

    /// Stage + flush one request.
    pub fn send(&mut self, req: &WireRequest<'_>) -> std::io::Result<()> {
        self.stage(req);
        self.flush()
    }

    /// Read and fully decode the next response frame.
    pub fn recv(&mut self) -> Result<WireResponse, WireError> {
        let opcode = read_frame(&mut self.reader, &mut self.scratch, MAX_RESPONSE_PAYLOAD)?;
        WireResponse::decode(opcode, &self.scratch)
    }
}

/// One-shot helper: connect, issue one request, return the response.
pub fn wire_request(
    addr: impl std::net::ToSocketAddrs,
    req: &WireRequest<'_>,
) -> Result<WireResponse, WireError> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
    let mut conn = WireConn::connect(&addr, &ClientConfig::default())?;
    conn.send(req)?;
    conn.recv()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: WireRequest<'_>) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert_eq!(&buf[..4], &MAGIC);
        assert_eq!(buf[4], VERSION);
        let len = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]) as usize;
        assert_eq!(buf.len(), HEADER_LEN + len);
        let decoded = WireRequest::decode(buf[5], &buf[HEADER_LEN..]).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn request_frames_round_trip() {
        roundtrip_request(WireRequest::Start {
            body: "(kind: , size: )",
        });
        roundtrip_request(WireRequest::Start { body: "" });
        roundtrip_request(WireRequest::Inspect { id: "s1" });
        roundtrip_request(WireRequest::Drill {
            id: "s42",
            rank: 3,
            seg: u32::MAX,
        });
        roundtrip_request(WireRequest::Back { id: "s1" });
        roundtrip_request(WireRequest::Delete {
            id: "sω-ünïcode"
        });
        roundtrip_request(WireRequest::CacheStats);
        roundtrip_request(WireRequest::Metrics);
        roundtrip_request(WireRequest::Health);
    }

    #[test]
    fn response_frames_round_trip_via_owned_encoder() {
        let advice = WireAdvice {
            context: "(kind: , size: )".to_string(),
            context_size: 48,
            ranked: vec![WireRanked {
                segmentation: vec!["(kind: {even})".to_string(), "(kind: {odd})".to_string()],
                entropy: std::f64::consts::LN_2,
                simplicity: 1,
                breadth: 1,
                depth: 2,
            }],
            trace: WireTrace {
                seeds: vec!["kind".to_string()],
                skipped: vec!["size".to_string()],
                steps: vec![WireStep {
                    left: vec!["kind".to_string()],
                    right: vec!["size".to_string()],
                    indep: 0.25,
                    depth: 4,
                    accepted: false,
                }],
                skipped_pairs: vec![WirePair {
                    left: vec!["a".to_string()],
                    right: vec!["b".to_string()],
                    indep: f64::from_bits(0x7ff8_0000_0000_0001), // a NaN payload
                }],
                stop: Some(StopReason::IndependenceThreshold),
            },
        };
        let responses = vec![
            WireResponse::Started {
                id: "s1".to_string(),
                advice: advice.clone(),
            },
            WireResponse::Advice {
                id: "s1".to_string(),
                advice: advice.clone(),
            },
            WireResponse::Info {
                id: "s1".to_string(),
                depth: 2,
                breadcrumbs: vec!["(kind: )".to_string(), "(kind: {even})".to_string()],
                advice,
            },
            WireResponse::Deleted,
            WireResponse::CacheStats(WireCacheStats {
                hits: 1,
                misses: 2,
                runs: 3,
                evictions: 0,
                entries: 4,
                capacity: Some(1024),
            }),
            WireResponse::CacheStats(WireCacheStats {
                hits: 0,
                misses: 0,
                runs: 0,
                evictions: 0,
                entries: 0,
                capacity: None,
            }),
            WireResponse::Metrics(MetricsSnapshot {
                connections: 1,
                requests: 2,
                responses_2xx: 3,
                responses_4xx: 4,
                responses_5xx: 5,
                analysis_rejects: 6,
                analysis_prunes: 7,
            }),
            WireResponse::Health,
            WireResponse::Error(WireFault {
                status: 422,
                code: "invalid_context".to_string(),
                message: "nope".to_string(),
                diagnostics: Some(vec![WireDiagnostic {
                    code: "unknown_attribute".to_string(),
                    attr: "nope".to_string(),
                    detail: "no such column".to_string(),
                }]),
            }),
            WireResponse::Error(WireFault {
                status: 404,
                code: "no_such_session".to_string(),
                message: "no session \"s9\"".to_string(),
                diagnostics: None,
            }),
        ];
        for resp in responses {
            let mut one = Vec::new();
            resp.encode(&mut one);
            let decoded = WireResponse::decode(one[5], &one[HEADER_LEN..]).unwrap();
            // Bitwise identity, NaN included: compare re-encoded bytes.
            let mut two = Vec::new();
            decoded.encode(&mut two);
            assert_eq!(one, two);
            assert_eq!(decoded.status(), resp.status());
        }
    }

    /// A real advice with ≥ 2 ranked answers, never served.
    fn fresh_advice() -> Advice {
        use charles_store::{DataType, TableBuilder, Value};
        let mut b = TableBuilder::new("t");
        b.add_column("kind", DataType::Str)
            .add_column("size", DataType::Int);
        for i in 0..48i64 {
            let kind = if i % 2 == 0 { "even" } else { "odd" };
            b.push_row(vec![Value::str(kind), Value::Int(i)]).unwrap();
        }
        let table = b.finish();
        let advice = charles_core::Advisor::new(&table)
            .advise_str("(kind: , size: )")
            .unwrap();
        assert!(advice.ranked.len() >= 2);
        advice
    }

    fn frame_of(result: &Result<ApiOk, ApiError>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_api_result(&mut buf, result);
        buf
    }

    /// `frame` re-encoded by the owned-side encoder from its own decode.
    fn reencoded(frame: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        WireResponse::decode(frame[5], &frame[HEADER_LEN..])
            .unwrap()
            .encode(&mut buf);
        buf
    }

    #[test]
    fn a_resent_advice_is_the_first_send_bit_for_bit() {
        use std::sync::Arc;
        let advice = Arc::new(fresh_advice());
        let id = "s1".to_string();
        let replies = [
            Ok(ApiOk::Created {
                id: id.clone(),
                advice: Arc::clone(&advice),
            }),
            Ok(ApiOk::Advice {
                id: id.clone(),
                advice: Arc::clone(&advice),
            }),
            Ok(ApiOk::Info {
                id,
                depth: 1,
                breadcrumbs: vec!["(kind: , size: )".to_string()],
                advice: Arc::clone(&advice),
            }),
        ];
        // The first reply renders into the advice's slot; all later
        // ones, of any shape, copy it. Each frame is what the pure
        // owned-side encoder produces for the same response.
        for reply in &replies {
            let first = frame_of(reply);
            assert_eq!(frame_of(reply), first);
            assert_eq!(reencoded(&first), first);
        }
        // And the slot holds exactly the payload a never-served copy
        // renders.
        let mut pure = Vec::new();
        put_wire_advice(&mut pure, &WireAdvice::from(&advice.as_ref().clone()));
        assert_eq!(advice.encoded.binary(|| unreachable!("served above")), pure);
    }

    #[test]
    fn an_edited_clone_serves_its_own_bytes() {
        use std::sync::Arc;
        let original = Arc::new(fresh_advice());
        let reply = |advice: &Arc<Advice>| {
            Ok(ApiOk::Advice {
                id: "s1".to_string(),
                advice: Arc::clone(advice),
            })
        };
        let original_frame = frame_of(&reply(&original));
        let original_json = crate::json::served_advice(&original).to_string();

        let mut clone = original.as_ref().clone();
        clone.ranked.truncate(1);
        let clone = Arc::new(clone);
        let clone_frame = frame_of(&reply(&clone));
        assert_ne!(clone_frame, original_frame);
        assert_eq!(reencoded(&clone_frame), clone_frame);
        let WireResponse::Advice { advice, .. } =
            WireResponse::decode(clone_frame[5], &clone_frame[HEADER_LEN..]).unwrap()
        else {
            panic!("expected an Advice frame");
        };
        assert_eq!(advice.ranked.len(), 1);
        assert_eq!(
            crate::json::served_advice(&clone),
            crate::json::encode_advice(&clone)
        );
        assert_eq!(crate::json::served_advice(&clone), advice.to_json());

        // The original still serves what it first sent.
        assert_eq!(frame_of(&reply(&original)), original_frame);
        assert_eq!(crate::json::served_advice(&original), original_json);
        assert_eq!(original_json, crate::json::encode_advice(&original));
    }

    #[test]
    fn malformed_frames_yield_typed_errors() {
        // Bad magic.
        let mut bad = Vec::new();
        WireRequest::Health.encode(&mut bad);
        bad[0] = b'X';
        let err = read_frame(&mut bad.as_slice(), &mut Vec::new(), MAX_REQUEST_PAYLOAD);
        assert!(matches!(err, Err(WireError::BadMagic(_))), "{err:?}");
        // Bad version.
        let mut bad = Vec::new();
        WireRequest::Health.encode(&mut bad);
        bad[4] = 99;
        let err = read_frame(&mut bad.as_slice(), &mut Vec::new(), MAX_REQUEST_PAYLOAD);
        assert!(
            matches!(err, Err(WireError::UnsupportedVersion(99))),
            "{err:?}"
        );
        // Oversized declared payload.
        let mut bad = Vec::new();
        WireRequest::Health.encode(&mut bad);
        bad[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut bad.as_slice(), &mut Vec::new(), MAX_REQUEST_PAYLOAD);
        assert!(
            matches!(err, Err(WireError::FrameTooLarge { .. })),
            "{err:?}"
        );
        // Truncated transport.
        let mut ok = Vec::new();
        WireRequest::Start { body: "(kind: )" }.encode(&mut ok);
        let err = read_frame(
            &mut &ok[..ok.len() - 3],
            &mut Vec::new(),
            MAX_REQUEST_PAYLOAD,
        );
        assert!(matches!(err, Err(WireError::Io(_))), "{err:?}");
        // Unknown opcode.
        let err = WireRequest::decode(0x7f, &[]);
        assert!(
            matches!(err, Err(WireError::UnknownOpcode(0x7f))),
            "{err:?}"
        );
        // Truncated payload fields.
        let err = WireRequest::decode(OP_DRILL, &[2, 0, 0, 0, b's', b'1']);
        assert!(matches!(err, Err(WireError::Truncated)), "{err:?}");
        // Trailing bytes.
        let err = WireRequest::decode(OP_HEALTH, &[0]);
        assert!(matches!(err, Err(WireError::TrailingBytes)), "{err:?}");
        // Bad UTF-8.
        let err = WireRequest::decode(OP_INSPECT, &[2, 0, 0, 0, 0xff, 0xfe]);
        assert!(matches!(err, Err(WireError::BadUtf8)), "{err:?}");
    }

    #[test]
    fn summaries_match_full_decodes() {
        let mut buf = Vec::new();
        WireResponse::Started {
            id: "s7".to_string(),
            advice: WireAdvice {
                context: "(kind: )".to_string(),
                context_size: 10,
                ranked: vec![],
                trace: WireTrace::default(),
            },
        }
        .encode(&mut buf);
        let summary = summarize_response(buf[5], &buf[HEADER_LEN..]).unwrap();
        assert_eq!(summary.status, 201);
        assert_eq!(summary.session_id.as_deref(), Some("s7"));
        assert_eq!(summary.error, None);

        let mut buf = Vec::new();
        WireResponse::Error(WireFault {
            status: 409,
            code: "session_not_started".to_string(),
            message: "not started".to_string(),
            diagnostics: None,
        })
        .encode(&mut buf);
        let summary = summarize_response(buf[5], &buf[HEADER_LEN..]).unwrap();
        assert_eq!(summary.status, 409);
        assert_eq!(
            summary.error.as_deref(),
            Some("session_not_started: not started")
        );
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        // An Info frame claiming 4 billion breadcrumbs in a tiny
        // payload must fail fast, not loop or allocate.
        let mut payload = Vec::new();
        put_str(&mut payload, "s1");
        put_u64(&mut payload, 1);
        put_u32(&mut payload, u32::MAX); // breadcrumb count
        let err = WireResponse::decode(RESP_INFO, &payload);
        assert!(matches!(err, Err(WireError::Truncated)), "{err:?}");
    }
}
