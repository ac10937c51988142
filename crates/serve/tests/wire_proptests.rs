//! Binary wire-protocol property tests, mirroring the JSON suite in
//! `tests/proptests.rs`: arbitrary byte soup decodes to a typed error
//! (never a panic), encode→decode is identity including bitwise f64
//! advice payloads, truncated frames are detected, and a decoded advice
//! renders the JSON its source advice does, byte for byte.
//!
//! Failing seeds are pinned in `proptest-regressions/wire_proptests.txt`,
//! matching the store/sdl convention.

use charles_core::hbcuts::{ComposeStep, SkippedPair, StopReason, Trace};
use charles_core::{Advice, Ranked, Score};
use charles_sdl::{Constraint, Predicate, Query, Segmentation};
use charles_serve::json::encode_advice;
use charles_serve::wire::{
    read_frame, summarize_response, WireAdvice, WireCacheStats, WireDiagnostic, WireError,
    WireFault, WireRequest, WireResponse, WireTrace, HEADER_LEN, MAGIC, MAX_REQUEST_PAYLOAD,
    MAX_RESPONSE_PAYLOAD, VERSION,
};
use charles_serve::MetricsSnapshot;
use charles_store::Value;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators. The advice generator follows `tests/proptests.rs`, with
// one deliberate difference: floats include NaNs (with payloads),
// infinities and -0.0, because the binary codec ships verbatim bits and
// must round-trip all of them.

/// Any f64 bit pattern class: finite magnitudes, ±∞, NaN (quiet and
/// payload-carrying), negative zero.
fn arb_bits_f64() -> impl Strategy<Value = f64> {
    (any::<f64>(), 0u8..10).prop_map(|(v, pick)| match pick {
        0 => f64::NAN,
        1 => f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -0.0,
        _ => v,
    })
}

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    let names = ["fluit", "jacht", "pinas", "de lange", "o'neill"];
    prop_oneof![
        Just(Constraint::Any),
        (-500i64..500, 0i64..400).prop_map(|(lo, w)| {
            Constraint::range(Value::Int(lo), Value::Int(lo + w)).expect("lo ≤ hi")
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

fn arb_advice() -> impl Strategy<Value = Advice> {
    (
        (arb_query(), arb_constraint()),
        0usize..1_000_000,
        proptest::collection::vec(
            ((arb_query(), arb_constraint()), arb_bits_f64(), 0usize..20),
            0..5,
        ),
        proptest::collection::vec((arb_bits_f64(), 0usize..16, any::<bool>()), 0..4),
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

fn arb_fault() -> impl Strategy<Value = WireFault> {
    (
        100u16..600,
        "[a-z_]{1,20}",
        "[ -~]{0,40}",
        proptest::option::of(proptest::collection::vec(
            ("[a-z_]{1,16}", "[ -~]{0,16}", "[ -~]{0,24}")
                .prop_map(|(code, attr, detail)| WireDiagnostic { code, attr, detail }),
            0..3,
        )),
    )
        .prop_map(|(status, code, message, diagnostics)| WireFault {
            status,
            code,
            message,
            diagnostics,
        })
}

fn arb_response() -> impl Strategy<Value = WireResponse> {
    let advice = || arb_advice().prop_map(|a| WireAdvice::from(&a));
    prop_oneof![
        (any::<u32>(), advice()).prop_map(|(n, advice)| WireResponse::Started {
            id: format!("s{n}"),
            advice,
        }),
        (any::<u32>(), advice()).prop_map(|(n, advice)| WireResponse::Advice {
            id: format!("s{n}"),
            advice,
        }),
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec("[ -~]{0,24}", 0..4),
            advice()
        )
            .prop_map(|(n, depth, breadcrumbs, advice)| WireResponse::Info {
                id: format!("s{n}"),
                depth,
                breadcrumbs,
                advice,
            }),
        Just(WireResponse::Deleted),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(any::<u64>())
        )
            .prop_map(|(hits, misses, runs, evictions, entries, capacity)| {
                WireResponse::CacheStats(WireCacheStats {
                    hits,
                    misses,
                    runs,
                    evictions,
                    entries,
                    capacity,
                })
            }),
        proptest::collection::vec(any::<u64>(), 7).prop_map(|v| {
            WireResponse::Metrics(MetricsSnapshot {
                connections: v[0],
                requests: v[1],
                responses_2xx: v[2],
                responses_4xx: v[3],
                responses_5xx: v[4],
                analysis_rejects: v[5],
                analysis_prunes: v[6],
            })
        }),
        Just(WireResponse::Health),
        arb_fault().prop_map(WireResponse::Error),
    ]
}

/// Split one encoded frame into (opcode, payload), validating the
/// header invariants every encoder must uphold.
fn split_frame(buf: &[u8]) -> (u8, &[u8]) {
    assert_eq!(&buf[..4], &MAGIC);
    assert_eq!(buf[4], VERSION);
    let len = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]) as usize;
    assert_eq!(buf.len(), HEADER_LEN + len, "declared length mismatch");
    (buf[5], &buf[HEADER_LEN..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn request_decoder_never_panics_on_byte_soup(
        opcode in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Whatever the payload, decoding returns a value or a typed
        // error — it never panics and never over-allocates.
        let _ = WireRequest::decode(opcode, &payload);
    }

    #[test]
    fn response_decoder_never_panics_on_byte_soup(
        opcode in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = WireResponse::decode(opcode, &payload);
        let _ = summarize_response(opcode, &payload);
    }

    #[test]
    fn frame_reader_never_panics_on_byte_soup(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut scratch = Vec::new();
        let _ = read_frame(&mut bytes.as_slice(), &mut scratch, MAX_REQUEST_PAYLOAD);
    }

    #[test]
    fn request_frames_round_trip(
        body in "[ -~]{0,64}",
        id in "[a-z0-9]{1,12}",
        rank in any::<u32>(),
        seg in any::<u32>(),
        pick in 0usize..8,
    ) {
        let requests = [
            WireRequest::Start { body: &body },
            WireRequest::Inspect { id: &id },
            WireRequest::Drill { id: &id, rank, seg },
            WireRequest::Back { id: &id },
            WireRequest::Delete { id: &id },
            WireRequest::CacheStats,
            WireRequest::Metrics,
            WireRequest::Health,
        ];
        let req = requests[pick];
        let mut buf = Vec::new();
        req.encode(&mut buf);
        let (opcode, payload) = split_frame(&buf);
        // Through the frame reader too: header parse + payload fill.
        let mut scratch = Vec::new();
        let read_op = read_frame(&mut buf.as_slice(), &mut scratch, MAX_REQUEST_PAYLOAD)
            .expect("own frames must parse");
        prop_assert_eq!(read_op, opcode);
        prop_assert_eq!(&scratch[..], payload);
        let decoded = WireRequest::decode(opcode, payload).expect("own frames must decode");
        prop_assert_eq!(decoded, req);
    }

    #[test]
    fn response_frames_round_trip_bitwise(resp in arb_response()) {
        // Encode → decode → re-encode must reproduce the exact bytes:
        // f64 fields (including NaNs and infinities from the generator)
        // travel as verbatim bits, so byte equality is the identity
        // check that sidesteps NaN ≠ NaN.
        let mut one = Vec::new();
        resp.encode(&mut one);
        let (opcode, payload) = split_frame(&one);
        let decoded = WireResponse::decode(opcode, payload)
            .expect("own frames must decode");
        prop_assert_eq!(decoded.status(), resp.status());
        let mut two = Vec::new();
        decoded.encode(&mut two);
        prop_assert_eq!(one, two);
    }

    #[test]
    fn truncated_response_frames_are_detected(
        resp in arb_response(),
        cut_frac in 0usize..1000,
    ) {
        let mut buf = Vec::new();
        resp.encode(&mut buf);
        let keep = cut_frac * buf.len() / 1000; // strict prefix: keep < len
        let mut scratch = Vec::new();
        match read_frame(&mut &buf[..keep], &mut scratch, MAX_RESPONSE_PAYLOAD) {
            // Cut inside the header or payload: the transport read fails.
            Err(WireError::Io(e)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other}"))),
            Ok(_) => return Err(TestCaseError::fail("truncated frame parsed")),
        }
        // Cut inside the payload with a *corrected* header length: the
        // typed decoder reports the damage (usually Truncated; a cut
        // can also land so that a length prefix now reads as string
        // bytes, surfacing as UTF-8/domain/trailing errors — but never
        // a panic and never success).
        if keep > HEADER_LEN {
            let body = &buf[HEADER_LEN..keep];
            match WireResponse::decode(buf[5], body) {
                Ok(_) => return Err(TestCaseError::fail("truncated payload decoded")),
                Err(WireError::Truncated)
                | Err(WireError::TrailingBytes)
                | Err(WireError::BadValue(_))
                | Err(WireError::BadUtf8) => {}
                Err(other) => {
                    return Err(TestCaseError::fail(format!("unexpected: {other}")));
                }
            }
        }
    }

    #[test]
    fn a_decoded_advice_renders_the_json_its_source_does(advice in arb_advice()) {
        // The cross-listener contract: a decoded binary advice payload
        // renders to the exact bytes the JSON path serves. Floats made
        // the trip as bits, so even shortest-round-trip float text
        // agrees (non-finite renders as null on both sides) — nothing
        // was lost on the wire.
        let resp = WireResponse::Advice { id: "s1".to_string(), advice: WireAdvice::from(&advice) };
        let mut one = Vec::new();
        resp.encode(&mut one);
        let (opcode, payload) = split_frame(&one);
        let decoded = WireResponse::decode(opcode, payload).expect("own frames must decode");
        let WireResponse::Advice { advice: round, .. } = &decoded else {
            return Err(TestCaseError::fail("wrong opcode back"));
        };
        prop_assert_eq!(round.to_json(), encode_advice(&advice));
    }

    #[test]
    fn out_of_domain_stop_tags_are_rejected(tag in 5u8..=255) {
        // A stop-reason byte beyond the known variants is a typed
        // error, not a default and not a panic.
        let empty = WireAdvice {
            context: String::new(),
            context_size: 0,
            ranked: vec![],
            trace: WireTrace::default(),
        };
        let resp = WireResponse::Advice { id: "s".to_string(), advice: empty };
        let mut buf = Vec::new();
        resp.encode(&mut buf);
        let last = buf.len() - 1; // trailing payload byte is the stop tag
        buf[last] = tag;
        let (opcode, body) = split_frame(&buf);
        prop_assert!(matches!(
            WireResponse::decode(opcode, body),
            Err(WireError::BadValue(_))
        ));
    }
}

/// `StopReason` coverage marker: pins every variant through a full
/// encode→decode trip should the enum grow.
#[test]
fn stop_reason_variants_are_exhaustively_encodable() {
    for stop in [
        None,
        Some(StopReason::IndependenceThreshold),
        Some(StopReason::DepthLimit),
        Some(StopReason::ExhaustedCandidates),
        Some(StopReason::ComposeFailed),
    ] {
        let advice = WireAdvice {
            context: "(a: )".to_string(),
            context_size: 1,
            ranked: vec![],
            trace: WireTrace {
                stop,
                ..WireTrace::default()
            },
        };
        let resp = WireResponse::Advice {
            id: "s1".to_string(),
            advice,
        };
        let mut buf = Vec::new();
        resp.encode(&mut buf);
        let decoded = WireResponse::decode(buf[5], &buf[HEADER_LEN..]).expect("round trip");
        let WireResponse::Advice { advice, .. } = decoded else {
            panic!("wrong opcode back");
        };
        assert_eq!(advice.trace.stop, stop);
    }
}
