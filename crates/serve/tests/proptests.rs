//! Protocol property tests: the JSON wire format round-trips through an
//! independent test-side decoder, and the HTTP request parser rejects
//! malformed input without ever panicking.
//!
//! Failing seeds are pinned in `proptest-regressions/proptests.txt`,
//! matching the store/sdl convention.

use charles_core::hbcuts::{ComposeStep, SkippedPair, StopReason, Trace};
use charles_core::{Advice, Ranked, Score};
use charles_sdl::{Constraint, Predicate, Query, Segmentation};
use charles_serve::http::{parse_request, HttpError, MAX_BODY_BYTES};
use charles_serve::json::{encode_advice, json_f64, json_string};
use charles_store::Value;
use proptest::prelude::*;
use std::io::Cursor;

// ---------------------------------------------------------------------
// A minimal test-side JSON decoder (independent of the encoder).
// Numbers are kept as their raw tokens so re-encoding is lexically
// faithful without relying on float precision.

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Re-encode with the same conventions as the production encoder:
    /// no whitespace, fixed field order (preserved from decode), raw
    /// number tokens, escaped strings.
    fn encode(&self) -> String {
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(tok) => tok.clone(),
            Json::Str(s) => json_string(s),
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(Json::encode).collect();
                format!("[{}]", inner.join(","))
            }
            Json::Obj(fields) => {
                let inner: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_string(k), v.encode()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn decode(text: &'a str) -> Result<Json, String> {
        let mut d = Decoder {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = d.value()?;
        d.skip_ws();
        if d.pos != d.bytes.len() {
            return Err(format!("trailing bytes at {}", d.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), String> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at {}, found {:?}",
                expected as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("short \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("surrogate in \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[start..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("empty char")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        // The token must be a valid finite float.
        let parsed: f64 = tok.parse().map_err(|_| format!("bad number {tok:?}"))?;
        if !parsed.is_finite() {
            return Err(format!("non-finite number {tok:?}"));
        }
        Ok(Json::Num(tok.to_string()))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Advice-shaped generators over the sdl constraint vocabulary.

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    let names = ["fluit", "jacht", "pinas", "de lange", "o'neill"];
    prop_oneof![
        Just(Constraint::Any),
        (-500i64..500, 0i64..400).prop_map(|(lo, w)| {
            Constraint::range(Value::Int(lo), Value::Int(lo + w)).expect("lo ≤ hi")
        }),
        (any::<f64>(), 0.0f64..100.0).prop_map(|(lo, w)| {
            let lo = (lo % 1e6) / 1e3;
            Constraint::range_with(Value::Float(lo), Value::Float(lo + w + 0.5), false)
                .expect("lo < hi")
        }),
        proptest::collection::btree_set(0usize..names.len(), 1..4).prop_map(move |idx| {
            Constraint::set(idx.into_iter().map(|i| Value::str(names[i])).collect())
                .expect("non-empty")
        }),
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    let attrs = ["alpha", "béta", "gamma delta", "d\"quote", "e\\slash"];
    proptest::collection::btree_set(0usize..attrs.len(), 1..4).prop_map(move |idx| {
        let preds: Vec<Predicate> = idx
            .into_iter()
            .map(|i| Predicate::new(attrs[i], Constraint::Any))
            .collect();
        Query::new(preds).expect("distinct attrs")
    })
}

fn arb_scored_query() -> impl Strategy<Value = (Query, Constraint)> {
    (arb_query(), arb_constraint())
}

fn arb_advice() -> impl Strategy<Value = Advice> {
    (
        arb_scored_query(),
        0usize..1_000_000,
        proptest::collection::vec((arb_scored_query(), any::<f64>(), 0usize..20), 0..5),
        proptest::collection::vec((any::<f64>(), 0usize..16, any::<bool>()), 0..4),
        0usize..5,
    )
        .prop_map(
            |((ctx, ctx_c), context_size, ranked_seed, steps_seed, stop_pick)| {
                let attrs: Vec<String> = ctx.attributes().iter().map(|a| a.to_string()).collect();
                let context = match ctx.refined(&attrs[0], ctx_c) {
                    Some(q) => q,
                    None => ctx.clone(),
                };
                let ranked: Vec<Ranked> = ranked_seed
                    .into_iter()
                    .map(|((q, c), entropy, breadth)| {
                        let seg_q = q.refined("omega", c).unwrap_or(q);
                        Ranked {
                            segmentation: Segmentation::new(vec![seg_q.clone(), seg_q]),
                            score: Score {
                                entropy,
                                simplicity: breadth % 7,
                                breadth,
                                depth: 2,
                            },
                        }
                    })
                    .collect();
                let steps: Vec<ComposeStep> = steps_seed
                    .into_iter()
                    .map(|(indep, depth, accepted)| ComposeStep {
                        left_attrs: attrs.clone(),
                        right_attrs: vec!["tail\nattr".to_string()],
                        indep,
                        depth,
                        accepted,
                    })
                    .collect();
                let stop = match stop_pick {
                    0 => None,
                    1 => Some(StopReason::IndependenceThreshold),
                    2 => Some(StopReason::DepthLimit),
                    3 => Some(StopReason::ExhaustedCandidates),
                    _ => Some(StopReason::ComposeFailed),
                };
                Advice {
                    context,
                    context_size,
                    ranked,
                    trace: Trace {
                        seeds: attrs.clone(),
                        skipped: vec!["control\u{1}char".to_string()],
                        steps,
                        skipped_pairs: vec![SkippedPair {
                            left_attrs: attrs,
                            right_attrs: vec!["quote\"attr".to_string()],
                            indep: 0.5,
                        }],
                        stop,
                    },
                    backend_ops: Default::default(),
                    cache: Default::default(),
                    encoded: Default::default(),
                }
            },
        )
}

// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn advice_json_round_trips_through_the_decoder(advice in arb_advice()) {
        let encoded = encode_advice(&advice);
        let decoded = Decoder::decode(&encoded)
            .unwrap_or_else(|e| panic!("decode failed: {e}\npayload: {encoded}"));
        // Lexical fidelity: re-encoding the decoded tree reproduces the
        // exact bytes (field order, number tokens, escapes).
        prop_assert_eq!(decoded.encode(), encoded.clone());
        // Structural fidelity: the key fields carry the source values.
        prop_assert_eq!(
            decoded.get("context"),
            Some(&Json::Str(advice.context.to_string()))
        );
        prop_assert_eq!(
            decoded.get("context_size"),
            Some(&Json::Num(advice.context_size.to_string()))
        );
        let Some(Json::Arr(ranked)) = decoded.get("ranked") else {
            return Err(TestCaseError::fail("ranked missing"));
        };
        prop_assert_eq!(ranked.len(), advice.ranked.len());
        for (got, want) in ranked.iter().zip(&advice.ranked) {
            let Some(Json::Arr(seg)) = got.get("segmentation") else {
                return Err(TestCaseError::fail("segmentation missing"));
            };
            prop_assert_eq!(seg.len(), want.segmentation.depth());
            // Entropy round-trips to the exact bits when finite.
            let Some(score) = got.get("score") else {
                return Err(TestCaseError::fail("score missing"));
            };
            match score.get("entropy") {
                Some(Json::Num(tok)) => {
                    let parsed: f64 = tok.parse().expect("validated by decoder");
                    prop_assert_eq!(parsed.to_bits(), want.score.entropy.to_bits());
                }
                Some(Json::Null) => prop_assert!(!want.score.entropy.is_finite()),
                other => return Err(TestCaseError::fail(format!("bad entropy {other:?}"))),
            }
        }
        let Some(trace) = decoded.get("trace") else {
            return Err(TestCaseError::fail("trace missing"));
        };
        let Some(Json::Arr(steps)) = trace.get("steps") else {
            return Err(TestCaseError::fail("steps missing"));
        };
        prop_assert_eq!(steps.len(), advice.trace.steps.len());
    }

    #[test]
    fn json_f64_round_trips_bitwise(v in any::<f64>()) {
        let s = json_f64(v);
        if v.is_finite() {
            prop_assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{}", s);
        } else {
            prop_assert_eq!(s, "null");
        }
    }

    #[test]
    fn json_string_round_trips(s in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Arbitrary (lossy-decoded) text, including controls and quotes.
        let text = String::from_utf8_lossy(&s).to_string();
        let encoded = json_string(&text);
        let mut d = Decoder { bytes: encoded.as_bytes(), pos: 0 };
        let decoded = d.string().unwrap_or_else(|e| panic!("{e}: {encoded}"));
        prop_assert_eq!(d.pos, encoded.len());
        prop_assert_eq!(decoded, text);
    }

    #[test]
    fn request_parser_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // Whatever arrives on the socket, the parser returns — it never
        // panics and never reads unboundedly.
        let _ = parse_request(&mut Cursor::new(bytes));
    }

    #[test]
    fn request_parser_never_panics_on_structured_garbage(
        method in "[A-Za-z]{0,8}",
        path in "[ -~]{0,24}",
        version in "[ -~]{0,12}",
        header in "[ -~]{0,32}",
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut req = format!("{method} {path} {version}\r\n{header}\r\n\r\n").into_bytes();
        req.extend(&body);
        let _ = parse_request(&mut Cursor::new(req));
    }

    #[test]
    fn request_parser_rejects_bad_method_path_and_length(
        method in "[a-z]{1,6}",
        length in "[A-Za-z]{1,6}",
        huge in (MAX_BODY_BYTES as u64 + 1)..u64::MAX / 2,
    ) {
        // Lower-case methods are not GET/POST/DELETE.
        let req = format!("{method} / HTTP/1.1\r\n\r\n");
        prop_assert!(matches!(
            parse_request(&mut Cursor::new(req.into_bytes())),
            Err(HttpError::UnsupportedMethod(_))
        ));
        // Paths must be absolute.
        let req = b"GET relative HTTP/1.1\r\n\r\n".to_vec();
        prop_assert!(matches!(
            parse_request(&mut Cursor::new(req)),
            Err(HttpError::BadRequestLine(_))
        ));
        // Non-numeric and oversized Content-Length values.
        let req = format!("POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
        prop_assert!(matches!(
            parse_request(&mut Cursor::new(req.into_bytes())),
            Err(HttpError::BadContentLength(_))
        ));
        let req = format!("POST / HTTP/1.1\r\nContent-Length: {huge}\r\n\r\n");
        prop_assert!(matches!(
            parse_request(&mut Cursor::new(req.into_bytes())),
            Err(HttpError::BodyTooLarge(_)) | Err(HttpError::BadContentLength(_))
        ));
    }
}
