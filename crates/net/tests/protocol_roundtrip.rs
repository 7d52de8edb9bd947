//! Wire-protocol property tests: every [`Request`]/[`Response`] variant
//! round-trips bit-exactly through encode → frame → extract → decode, and
//! hostile inputs (truncated frames, oversized length prefixes, trailing
//! bytes) are rejected with typed errors instead of panics or partial
//! values.
//!
//! The vendored proptest has no `prop_oneof!`; variant choice is driven by
//! a selector integer mapped over a tuple of all the field strategies.

use lsbp_net::{
    extract_frame, oversized_claim, read_frame, salvage_request_id, write_frame, BeliefsPayload,
    ErrorCode, HealthInfo, LinBpParams, Request, RequestEnvelope, Response, ResponseEnvelope,
    RwrParams, ServedVia, ServerStats, WireEdge, WireError, WireNorm, WireSeed, WireWriter,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Bit-pattern driven f64s: covers negative zero, subnormals, infinities
/// and NaN payloads — the protocol must preserve all of them exactly.
fn arb_f64() -> impl proptest::Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(f64::from_bits)
}

fn arb_bool() -> impl proptest::Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

fn arb_edges(max: usize) -> impl proptest::Strategy<Value = Vec<WireEdge>> {
    proptest::collection::vec((0u64..1000, 0u64..1000, arb_f64()), 0..max).prop_map(|list| {
        list.into_iter()
            .map(|(src, dst, weight)| WireEdge { src, dst, weight })
            .collect()
    })
}

fn arb_seeds(max: usize) -> impl proptest::Strategy<Value = Vec<WireSeed>> {
    proptest::collection::vec(
        (0u64..1000, proptest::collection::vec(arb_f64(), 0..5)),
        0..max,
    )
    .prop_map(|list| {
        list.into_iter()
            .map(|(node, residual)| WireSeed { node, residual })
            .collect()
    })
}

fn arb_norm() -> impl proptest::Strategy<Value = WireNorm> {
    (0u8..2).prop_map(|t| {
        if t == 0 {
            WireNorm::MaxAbs
        } else {
            WireNorm::L2
        }
    })
}

fn arb_linbp_params() -> impl proptest::Strategy<Value = LinBpParams> {
    (
        (
            arb_bool(),
            1u32..5,
            proptest::collection::vec(arb_f64(), 0..17),
        ),
        (0u64..10_000, arb_f64(), arb_norm()),
        (arb_f64(), arb_f64()),
    )
        .prop_map(
            |((echo, k, h_residual), (max_iter, tol, norm), (damping, divergence_guard))| {
                LinBpParams {
                    echo,
                    k,
                    h_residual,
                    max_iter,
                    tol,
                    norm,
                    damping,
                    divergence_guard,
                }
            },
        )
}

fn arb_rwr_params() -> impl proptest::Strategy<Value = RwrParams> {
    (1u32..5, arb_f64(), 0u64..10_000, arb_f64(), arb_norm()).prop_map(
        |(k, restart, max_iter, tol, norm)| RwrParams {
            k,
            restart,
            max_iter,
            tol,
            norm,
        },
    )
}

/// All eight request variants, chosen by a selector integer.
fn arb_request() -> impl proptest::Strategy<Value = Request> {
    (
        0u8..8,
        (0u64..1_000_000, 0u64..10_000, arb_bool()),
        arb_edges(12),
        (arb_linbp_params(), arb_rwr_params()),
        arb_seeds(8),
    )
        .prop_map(
            |(tag, (graph_id, n_nodes, symmetric), edges, (linbp, rwr), seeds)| match tag {
                0 => Request::Ping,
                1 => Request::RegisterGraph {
                    graph_id,
                    n_nodes,
                    symmetric,
                    edges,
                },
                2 => Request::SolveLinBp {
                    graph_id,
                    params: linbp,
                    seeds,
                },
                3 => Request::SolveRwr {
                    graph_id,
                    params: rwr,
                    seeds,
                },
                4 => Request::EdgeDelta {
                    graph_id,
                    symmetric,
                    deltas: edges,
                },
                5 => Request::Stats,
                6 => Request::Shutdown,
                _ => Request::Health,
            },
        )
}

fn arb_served() -> impl proptest::Strategy<Value = ServedVia> {
    (0u8..5, 1u32..64, 1u64..1000).prop_map(|(tag, batch, version)| match tag {
        0 => ServedVia::Solo,
        1 => ServedVia::Coalesced { batch },
        2 => ServedVia::Cache,
        3 => ServedVia::CachePatched,
        _ => ServedVia::Stale { version },
    })
}

fn arb_error_code() -> impl proptest::Strategy<Value = ErrorCode> {
    (0u8..6).prop_map(|t| match t {
        0 => ErrorCode::UnknownGraph,
        1 => ErrorCode::GraphAlreadyRegistered,
        2 => ErrorCode::BadRequest,
        3 => ErrorCode::Overloaded,
        4 => ErrorCode::Internal,
        _ => ErrorCode::DeadlineExceeded,
    })
}

fn arb_retry_after() -> impl proptest::Strategy<Value = Option<u64>> {
    (0u8..2, 0u64..60_000).prop_map(|(some, ms)| if some == 1 { Some(ms) } else { None })
}

fn arb_stats() -> impl proptest::Strategy<Value = ServerStats> {
    (
        (
            (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
            (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
            (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        ),
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
    )
        .prop_map(
            |(
                ((a, b, c, d), (e, f, g, h), (i, j, k, l)),
                (m, n, o, p),
                (q, r, s, t),
                (u, v, w),
            )| {
                ServerStats {
                    graphs: a,
                    cached_entries: b,
                    queries_served: c,
                    cache_hits: d,
                    coalesced_batches: e,
                    coalesced_queries: f,
                    largest_batch: g,
                    spmm_passes: h,
                    spmm_passes_sequential_equiv: i,
                    patched_entries: j,
                    invalidated_entries: k,
                    rejected_overloaded: l,
                    rejected_deadline: m,
                    rejected_invalid: n,
                    panics_caught: o,
                    degraded_stale: p,
                    degraded_clamped: q,
                    pager_hits: r,
                    pager_misses: s,
                    pager_evictions: t,
                    pager_prefetches: u,
                    frontier_rows_active: v,
                    frontier_rows_skipped: w,
                }
            },
        )
}

fn arb_health() -> impl proptest::Strategy<Value = HealthInfo> {
    ((0u64..1 << 20, 0u64..1 << 40), arb_bool(), arb_stats()).prop_map(
        |((queue_depth, uptime_ms), spill_enabled, stats)| HealthInfo {
            protocol_version: PROTOCOL_VERSION,
            queue_depth,
            uptime_ms,
            spill_enabled,
            stats,
        },
    )
}

fn arb_message() -> impl proptest::Strategy<Value = String> {
    proptest::collection::vec(0x20u8..0x7f, 0..60)
        .prop_map(|bytes| String::from_utf8(bytes).unwrap())
}

fn arb_beliefs_payload() -> impl proptest::Strategy<Value = BeliefsPayload> {
    (
        (0u64..40, 1u32..5),
        (arb_bool(), arb_bool(), 0u64..500, arb_f64(), arb_served()),
    )
        .prop_flat_map(
            |((n, k), (converged, diverged, iterations, final_delta, served))| {
                let len = (n as usize) * (k as usize);
                proptest::collection::vec(arb_f64(), len..len + 1).prop_map(move |beliefs| {
                    BeliefsPayload {
                        n,
                        k,
                        beliefs,
                        converged,
                        diverged,
                        iterations,
                        final_delta,
                        served,
                    }
                })
            },
        )
}

/// All eight response variants, chosen by a selector integer.
fn arb_response() -> impl proptest::Strategy<Value = Response> {
    (
        0u8..8,
        (0u64..1_000_000, 1u64..100, 0u64..10_000, 0u64..1 << 32),
        arb_beliefs_payload(),
        (arb_error_code(), arb_message(), arb_retry_after()),
        (arb_stats(), arb_health()),
    )
        .prop_map(
            |(
                tag,
                (graph_id, version, n_nodes, nnz),
                payload,
                (code, message, retry_after_ms),
                (stats, health),
            )| match tag {
                0 => Response::Pong {
                    protocol_version: PROTOCOL_VERSION,
                },
                1 => Response::Registered {
                    graph_id,
                    version,
                    n_nodes,
                    nnz,
                },
                2 => Response::Beliefs(payload),
                3 => Response::DeltaApplied {
                    graph_id,
                    version,
                    patched: n_nodes,
                    invalidated: nnz,
                },
                4 => Response::Error {
                    code,
                    message,
                    retry_after_ms,
                },
                5 => Response::Stats(stats),
                6 => Response::ShuttingDown,
                _ => Response::Health(health),
            },
        )
}

fn arb_request_envelope() -> impl proptest::Strategy<Value = RequestEnvelope> {
    (arb_request(), 0u64..u64::MAX, arb_retry_after()).prop_map(
        |(request, request_id, deadline_ms)| RequestEnvelope {
            request_id,
            deadline_ms,
            request,
        },
    )
}

/// Bitwise equality for f64 vectors (`PartialEq` treats NaN ≠ NaN and
/// -0.0 == 0.0; the wire contract is stricter).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn seeds_bits_eq(a: &[WireSeed], b: &[WireSeed]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.node == y.node && bits_eq(&x.residual, &y.residual))
}

fn request_bits_eq(a: &Request, b: &Request) -> bool {
    match (a, b) {
        (
            Request::SolveLinBp {
                graph_id: g1,
                params: p1,
                seeds: s1,
            },
            Request::SolveLinBp {
                graph_id: g2,
                params: p2,
                seeds: s2,
            },
        ) => {
            g1 == g2
                && p1.echo == p2.echo
                && p1.k == p2.k
                && bits_eq(&p1.h_residual, &p2.h_residual)
                && p1.max_iter == p2.max_iter
                && p1.tol.to_bits() == p2.tol.to_bits()
                && p1.norm == p2.norm
                && p1.damping.to_bits() == p2.damping.to_bits()
                && p1.divergence_guard.to_bits() == p2.divergence_guard.to_bits()
                && seeds_bits_eq(s1, s2)
        }
        // All other variants: canonical-bytes comparison covers their f64
        // fields bit-exactly.
        _ => a.encode() == b.encode(),
    }
}

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every request variant survives encode → decode bit-exactly, and the
    /// encoding is canonical (re-encoding the decode yields identical bytes).
    #[test]
    fn request_roundtrip(req in arb_request()) {
        let bytes = req.encode();
        let back = Request::decode(&bytes).expect("decode own encoding");
        prop_assert!(request_bits_eq(&req, &back));
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Every response variant survives encode → decode with canonical bytes.
    #[test]
    fn response_roundtrip(resp in arb_response()) {
        let bytes = resp.encode();
        let back = Response::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Framing a request and feeding the stream byte-by-byte to the
    /// non-blocking extractor yields exactly the payload, exactly once.
    #[test]
    fn extract_frame_streaming(req in arb_request()) {
        let payload = req.encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();

        let mut buf = Vec::new();
        let mut extracted = None;
        for &b in &framed {
            buf.push(b);
            if let Some(p) = extract_frame(&mut buf).unwrap() {
                prop_assert!(extracted.is_none(), "frame extracted twice");
                extracted = Some(p);
            }
        }
        prop_assert_eq!(extracted.as_deref(), Some(&payload[..]));
        prop_assert!(buf.is_empty());
    }

    /// Any strict prefix of an encoded request fails to decode —
    /// truncation is always a typed error, never a panic or partial value.
    #[test]
    fn truncated_payload_never_panics(req in arb_request(), cut in 0usize..64) {
        let bytes = req.encode();
        if bytes.len() > 1 {
            let cut = 1 + cut % (bytes.len() - 1);
            let prefix = &bytes[..bytes.len() - cut];
            prop_assert!(Request::decode(prefix).is_err());
        }
    }

    /// A frame cut anywhere mid-stream surfaces `Truncated` from the
    /// blocking reader, never a partial payload.
    #[test]
    fn truncated_frame_rejected(resp in arb_response(), cut in 1usize..32) {
        let payload = resp.encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let keep = (framed.len() - 1 - cut % (framed.len() - 1)).max(1);
        let mut cursor = std::io::Cursor::new(framed[..keep].to_vec());
        match read_frame(&mut cursor) {
            Err(WireError::Truncated) => {}
            Ok(Some(p)) => prop_assert!(
                false,
                "truncated stream produced a {}-byte payload",
                p.len()
            ),
            Ok(None) => prop_assert!(false, "truncated stream read as clean EOF"),
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }

    /// Appending junk to a valid encoding is rejected as TrailingBytes.
    #[test]
    fn trailing_bytes_rejected(req in arb_request(), junk in 1usize..16) {
        let mut bytes = req.encode();
        bytes.extend(std::iter::repeat_n(0xAB, junk));
        prop_assert_eq!(Request::decode(&bytes), Err(WireError::TrailingBytes(junk)));
    }

    /// Arbitrary byte soup never panics the decoder.
    #[test]
    fn fuzz_decode_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = RequestEnvelope::decode(&bytes);
        let _ = ResponseEnvelope::decode(&bytes);
    }

    /// A v2 request envelope round-trips bit-exactly with canonical bytes,
    /// and the correlation id is salvageable from the raw payload even
    /// without a full decode.
    #[test]
    fn request_envelope_roundtrip(env in arb_request_envelope()) {
        let bytes = env.encode();
        let back = RequestEnvelope::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(back.request_id, env.request_id);
        prop_assert_eq!(back.deadline_ms, env.deadline_ms);
        prop_assert!(request_bits_eq(&env.request, &back.request));
        prop_assert_eq!(back.encode(), bytes.clone());
        prop_assert_eq!(salvage_request_id(&bytes), env.request_id);
    }

    /// A v2 response envelope round-trips with canonical bytes and echoes
    /// its id.
    #[test]
    fn response_envelope_roundtrip(resp in arb_response(), id in 0u64..u64::MAX) {
        let env = ResponseEnvelope::new(id, resp);
        let bytes = env.encode();
        let back = ResponseEnvelope::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(back.request_id, id);
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Any strict prefix of an encoded request envelope fails to decode.
    #[test]
    fn truncated_envelope_never_panics(env in arb_request_envelope(), cut in 0usize..64) {
        let bytes = env.encode();
        if bytes.len() > 1 {
            let cut = 1 + cut % (bytes.len() - 1);
            prop_assert!(RequestEnvelope::decode(&bytes[..bytes.len() - cut]).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic hostile-input cases
// ---------------------------------------------------------------------------

#[test]
fn oversized_length_prefix_rejected_by_both_readers() {
    let hostile = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
    let mut stream = hostile.to_vec();
    stream.extend_from_slice(&[0u8; 64]);

    let mut cursor = std::io::Cursor::new(stream.clone());
    assert!(matches!(
        read_frame(&mut cursor),
        Err(WireError::OversizedFrame(_))
    ));

    let mut buf = stream;
    assert!(matches!(
        extract_frame(&mut buf),
        Err(WireError::OversizedFrame(_))
    ));
}

#[test]
fn hostile_collection_length_cannot_allocate() {
    // RegisterGraph claiming u64::MAX edges with an empty body must fail
    // fast (Truncated), not attempt a ~400 EiB allocation.
    let mut bytes = vec![1u8];
    bytes.extend_from_slice(&7u64.to_le_bytes()); // graph_id
    bytes.extend_from_slice(&10u64.to_le_bytes()); // n_nodes
    bytes.push(0); // symmetric
    bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // hostile edge count
    assert_eq!(Request::decode(&bytes), Err(WireError::Truncated));
}

// ---------------------------------------------------------------------------
// Named counters: `Stats` and `Health` carry a self-describing list
// ---------------------------------------------------------------------------

/// Writes a counter list the way any protocol-v5 build would: a count,
/// then `(name, value)` pairs.
fn counter_list(w: &mut WireWriter, counters: &[(&str, u64)]) {
    w.u64(counters.len() as u64);
    for &(name, value) in counters {
        w.string(name);
        w.u64(value);
    }
}

/// A `Stats` response payload carrying `counters`.
fn stats_payload(counters: &[(&str, u64)]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(5);
    counter_list(&mut w, counters);
    w.into_bytes()
}

#[test]
fn unknown_counter_names_are_skipped() {
    // A newer server sends a counter this build has never heard of.
    let counters = [
        ("graphs", 3),
        ("counter_from_a_newer_build", 99),
        ("cache_hits", 7),
    ];
    let stats = ServerStats {
        graphs: 3,
        cache_hits: 7,
        ..ServerStats::default()
    };
    assert_eq!(
        Response::decode(&stats_payload(&counters)),
        Ok(Response::Stats(stats))
    );

    let mut w = WireWriter::new();
    w.u8(7);
    w.u16(PROTOCOL_VERSION);
    w.u64(2); // queue_depth
    w.u64(1234); // uptime_ms
    w.bool(true); // spill_enabled
    counter_list(&mut w, &counters);
    let health = HealthInfo {
        protocol_version: PROTOCOL_VERSION,
        queue_depth: 2,
        uptime_ms: 1234,
        spill_enabled: true,
        stats,
    };
    assert_eq!(
        Response::decode(&w.into_bytes()),
        Ok(Response::Health(health))
    );
}

#[test]
fn missing_counters_decode_as_zero() {
    // An older server that knew only two of the counters.
    let bytes = stats_payload(&[("queries_served", 5), ("pager_misses", 2)]);
    let stats = ServerStats {
        queries_served: 5,
        pager_misses: 2,
        ..ServerStats::default()
    };
    assert_eq!(Response::decode(&bytes), Ok(Response::Stats(stats)));
    assert_eq!(
        Response::decode(&stats_payload(&[])),
        Ok(Response::Stats(ServerStats::default()))
    );
}

#[test]
fn hostile_counter_list_is_truncated() {
    // A count prefix larger than the pairs that follow, up to u64::MAX.
    let whole = stats_payload(&[("cache_hits", 1), ("graphs", 2)]);
    for count in [3, u64::MAX] {
        let mut bytes = whole.clone();
        bytes[1..9].copy_from_slice(&count.to_le_bytes());
        assert_eq!(Response::decode(&bytes), Err(WireError::Truncated));
    }

    // A name cut mid-string: tag, count, the first pair, then 3 of the
    // 6 bytes of "graphs" after its length prefix.
    let first_pair = 8 + "cache_hits".len() + 8;
    let cut = 1 + 8 + first_pair + 8 + 3;
    assert_eq!(Response::decode(&whole[..cut]), Err(WireError::Truncated));

    // A name whose length prefix claims more bytes than the frame holds.
    let mut w = WireWriter::new();
    w.u8(5);
    w.u64(1); // one pair
    w.u64(u64::MAX); // hostile name length
    w.u64(0);
    assert_eq!(Response::decode(&w.into_bytes()), Err(WireError::Truncated));
}

#[test]
fn unknown_tags_are_typed_errors() {
    assert!(matches!(
        Request::decode(&[250]),
        Err(WireError::UnknownTag {
            kind: "Request",
            tag: 250
        })
    ));
    assert!(matches!(
        Response::decode(&[251]),
        Err(WireError::UnknownTag {
            kind: "Response",
            tag: 251
        })
    ));
}

#[test]
fn empty_payload_is_truncated() {
    assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
    assert_eq!(Response::decode(&[]), Err(WireError::Truncated));
    assert!(RequestEnvelope::decode(&[]).is_err());
    assert!(ResponseEnvelope::decode(&[]).is_err());
}

#[test]
fn oversized_claim_detects_hostile_header_before_body() {
    // A dribbling client: the check must stay quiet on a partial header
    // (the top length byte arrives last in LE), then fire the moment the
    // 4th byte lands — long before any body bytes.
    let hostile = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
    for keep in 0..4 {
        assert_eq!(oversized_claim(&hostile[..keep]), None);
    }
    assert_eq!(oversized_claim(&hostile), Some((MAX_FRAME_LEN + 1) as u64));

    // An acceptable length never trips the guard, with or without body.
    let fine = (64u32).to_le_bytes();
    assert_eq!(oversized_claim(&fine), None);
    let mut with_body = fine.to_vec();
    with_body.extend_from_slice(&[0u8; 32]);
    assert_eq!(oversized_claim(&with_body), None);
}

#[test]
fn salvage_request_id_handles_short_payloads() {
    assert_eq!(salvage_request_id(&[]), 0);
    assert_eq!(salvage_request_id(&[1, 2, 3]), 0);
    let env = RequestEnvelope::new(0xDEAD_BEEF_CAFE_F00D, Request::Ping);
    assert_eq!(salvage_request_id(&env.encode()), 0xDEAD_BEEF_CAFE_F00D);
}
