//! Property tests for the wire protocol: every request/response
//! round-trips bit-exactly through encode → frame → decode, and no
//! amount of truncation, oversizing, or outright garbage makes the
//! decoder panic — it returns typed [`ProtoError`]s.

use proptest::collection::vec;
use proptest::prelude::*;
use raven_data::{Column, DataType, Schema, Table};
use raven_server::proto::{read_frame, ProtoError, MAX_FRAME_LEN, PROTOCOL_VERSION};
use raven_server::{ErrorCode, Request, Response, Span, Trace, WireStats};
use std::io::Cursor;
use std::time::Duration;

/// Printable-ASCII strings plus the occasional multi-byte UTF-8, so the
/// length prefixes are exercised in bytes, not chars.
fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        vec(32..127u32, 0..48).prop_map(|v| {
            v.into_iter()
                .map(|c| char::from_u32(c).unwrap())
                .collect::<String>()
        }),
        Just("SELECT p.s FROM PREDICT(MODEL = 'm', DATA = t AS d)".to_string()),
        Just("日本語テキスト🚀".to_string()),
        Just(String::new()),
    ]
}

fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e12..1.0e12f64,
        Just(0.0),
        Just(f64::MAX),
        Just(f64::NEG_INFINITY),
    ]
}

/// Tenant names as the wire sees them — including the empty string
/// (aggregate `Stats`) and names the server would reject as invalid:
/// the *protocol* round-trips them all; validation is the server's job.
fn tenant() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("default".to_string()),
        Just("team-a".to_string()),
        Just(String::new()),
        text(),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (text(), tenant()).prop_map(|(sql, tenant)| Request::Prepare { sql, tenant }),
        (text(), tenant(), 0..10_000_000u64).prop_map(|(sql, tenant, micros)| Request::Query {
            sql,
            tenant,
            deadline: (micros % 2 == 0).then(|| Duration::from_micros(micros + 1)),
        }),
        (text(), tenant(), vec(finite_f64(), 0..32))
            .prop_map(|(model, tenant, row)| Request::Score { model, tenant, row }),
        (text(), tenant(), vec(param_value(), 0..8), 0..10_000_000u64).prop_map(
            |(template, tenant, params, micros)| Request::QueryParams {
                template,
                tenant,
                params,
                deadline: (micros % 2 == 0).then(|| Duration::from_micros(micros + 1)),
            }
        ),
        tenant().prop_map(|tenant| Request::Stats { tenant }),
        tenant().prop_map(|tenant| Request::Metrics { tenant }),
        (tenant(), 0..4096u32).prop_map(|(tenant, limit)| Request::Traces { tenant, limit }),
        Just(Request::Shutdown),
    ]
}

/// Traces as the server ships them: parents index earlier spans (never
/// the `u32::MAX` root sentinel, which the encoder owns), and a slow
/// trace may legitimately carry zero spans (captured unsampled).
fn trace() -> impl Strategy<Value = Trace> {
    (
        tenant(),
        text(),
        0..u64::MAX / 2,
        0..100_000_000u64,
        0..2u8,
        vec(
            (
                text(),
                0..2u8,
                0..512u32,
                0..10_000_000u64,
                0..10_000_000u64,
            ),
            0..12,
        ),
    )
        .prop_map(|(tenant, sql, seq, total_us, slow, spans)| Trace {
            seq,
            tenant,
            sql,
            total_us,
            slow: slow == 1,
            spans: spans
                .into_iter()
                .enumerate()
                .map(|(i, (name, rooted, parent, start_us, duration_us))| Span {
                    name,
                    parent: (rooted == 1 && i > 0).then(|| parent % i as u32),
                    start_us,
                    duration_us,
                })
                .collect(),
        })
}

fn param_value() -> impl Strategy<Value = raven_data::Value> {
    use raven_data::Value;
    prop_oneof![
        (-1_000_000..1_000_000i64).prop_map(Value::Int64),
        finite_f64().prop_map(Value::Float64),
        (0..2u8).prop_map(|b| Value::Bool(b == 1)),
        text().prop_map(Value::Utf8),
    ]
}

fn table() -> impl Strategy<Value = Table> {
    (
        vec(-1_000_000..1_000_000i64, 0..8),
        vec(finite_f64(), 0..8),
        vec(text(), 0..8),
        vec(0..2u8, 0..8),
    )
        .prop_map(|(ints, floats, strings, bools)| {
            let n = ints
                .len()
                .min(floats.len())
                .min(strings.len())
                .min(bools.len());
            Table::try_new(
                Schema::from_pairs(&[
                    ("i", DataType::Int64),
                    ("f", DataType::Float64),
                    ("s", DataType::Utf8),
                    ("b", DataType::Bool),
                ])
                .into_shared(),
                vec![
                    Column::Int64(ints[..n].to_vec()),
                    Column::Float64(floats[..n].to_vec()),
                    Column::Utf8(strings[..n].to_vec()),
                    Column::Bool(bools[..n].iter().map(|&b| b == 1).collect()),
                ],
            )
            .unwrap()
        })
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    const CODES: [ErrorCode; 12] = [
        ErrorCode::Sql,
        ErrorCode::Optimizer,
        ErrorCode::Execution,
        ErrorCode::Data,
        ErrorCode::Store,
        ErrorCode::Scoring,
        ErrorCode::BadRequest,
        ErrorCode::ShuttingDown,
        ErrorCode::Overloaded,
        ErrorCode::DeadlineExceeded,
        ErrorCode::Protocol,
        ErrorCode::Network,
    ];
    (0..CODES.len()).prop_map(|i| CODES[i])
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (0..2u8, 0..1_000_000u64).prop_map(|(hit, micros)| Response::Prepared {
            cache_hit: hit == 1,
            prepare_micros: micros,
        }),
        table().prop_map(|table| Response::RowsChunk {
            table: std::sync::Arc::new(table),
        }),
        (0..2u8, 0..1_000_000u64, 0..1_000_000u64).prop_map(|(hit, micros, rows)| {
            Response::RowsEnd {
                cache_hit: hit == 1,
                total_micros: micros,
                total_rows: rows,
            }
        }),
        finite_f64().prop_map(|value| Response::Score { value }),
        vec(0..u64::MAX, 20).prop_map(|v| {
            Response::Stats(WireStats {
                queries: v[0],
                errors: v[1],
                rows: v[2],
                plan_hits: v[3],
                plan_misses: v[4],
                preparations: v[5],
                invalidations: v[6],
                normalized: v[12],
                template_hits: v[13],
                result_hits: v[14],
                result_misses: v[15],
                result_invalidations: v[16],
                batch_requests: v[7],
                batches: v[8],
                admitted: v[9],
                rejected_overloaded: v[10],
                rejected_deadline: v[11],
                latency_p50_micros: v[17],
                latency_p95_micros: v[18],
                latency_p99_micros: v[19],
            })
        }),
        text().prop_map(|text| Response::Metrics { text }),
        vec(trace(), 0..4).prop_map(|traces| Response::Traces { traces }),
        Just(Response::ShutdownAck),
        (error_code(), text()).prop_map(|(code, message)| Response::Error { code, message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_roundtrip(req in request()) {
        let wire = req.encode();
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        prop_assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn responses_roundtrip(resp in response()) {
        let wire = resp.encode();
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        prop_assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    #[test]
    fn truncated_frames_error_instead_of_parsing(
        req in request(),
        cut_frac in 0.0..1.0f64,
    ) {
        let wire = req.encode();
        // Cut strictly inside the frame: every prefix must fail cleanly.
        let cut = ((wire.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(read_frame(&mut Cursor::new(&wire[..cut])).is_err());
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking(
        req in request(),
        cut_frac in 0.0..1.0f64,
    ) {
        // Truncate the decoded body (post-length-prefix) directly: the
        // payload cursor must bounds-check every field.
        let wire = req.encode();
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        let cut = ((body.len().saturating_sub(1)) as f64 * cut_frac) as usize;
        if cut < body.len() {
            prop_assert!(Request::decode(&body[..cut]).is_err());
        }
    }

    #[test]
    fn garbage_never_panics(bytes in vec(0..256u32, 0..512)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        // Whatever happens — Eof, BadLength, BadVersion, BadKind,
        // Malformed, or even an accidental parse — it must not panic.
        if let Ok(body) = read_frame(&mut Cursor::new(&bytes)) {
            let _ = Request::decode(&body);
            let _ = Response::decode(&body);
        }
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    #[test]
    fn oversized_length_prefixes_rejected(excess in 1..u32::MAX - MAX_FRAME_LEN) {
        let len = MAX_FRAME_LEN + excess;
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&[1u8, 0x04]); // plausible version + kind
        prop_assert!(read_frame(&mut Cursor::new(&wire)).is_err());
    }
}

/// Every version byte the server does not speak: all but v6.
fn stale_version() -> impl Strategy<Value = u8> {
    (0..255u8).prop_map(|v| if v >= PROTOCOL_VERSION { v + 1 } else { v })
}

// Request ids, pipelined frame streams, chunked results, and the
// version matrix.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The v6 header carries the request id and decode echoes it back,
    /// whatever the id (0, sequential, or u32::MAX are all just bits).
    #[test]
    fn v6_request_ids_roundtrip(req in request(), id in 0..u32::MAX) {
        let wire = req.encode_with_id(id);
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        let (decoded, version, got) = Request::decode_framed(&body).unwrap();
        prop_assert_eq!(version, PROTOCOL_VERSION);
        prop_assert_eq!(got, id);
        prop_assert_eq!(decoded, req);
    }

    /// Replies carry the id of the request they answer.
    #[test]
    fn v6_response_ids_roundtrip(resp in response(), id in 0..u32::MAX) {
        let wire = resp.encode_with_id(id);
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        let (decoded, version, got) = Response::decode_framed(&body).unwrap();
        prop_assert_eq!(version, PROTOCOL_VERSION);
        prop_assert_eq!(got, id);
        prop_assert_eq!(decoded, resp);
    }

    /// A pipelined byte stream — several requests back to back, ids in
    /// any order, possibly duplicated — frames cleanly: each frame
    /// decodes to exactly the request and id that was written, in write
    /// order, with no bleed between frames.
    #[test]
    fn pipelined_frame_streams_roundtrip(
        reqs in vec((request(), 0..u32::MAX), 1..8),
    ) {
        let mut wire = Vec::new();
        for (req, id) in &reqs {
            wire.extend_from_slice(&req.encode_with_id(*id));
        }
        let mut cursor = Cursor::new(&wire);
        for (req, id) in &reqs {
            let body = read_frame(&mut cursor).unwrap();
            let (decoded, _, got) = Request::decode_framed(&body).unwrap();
            prop_assert_eq!(&decoded, req);
            prop_assert_eq!(got, *id);
        }
        // Nothing left over: the frames consumed the stream exactly.
        prop_assert_eq!(cursor.position() as usize, wire.len());
    }

    /// Any chunking of a result table ships as decodable `RowsChunk`
    /// frames that reassemble into the original table, bit-exactly —
    /// the server-side encoder slices, the client-side concat restores.
    #[test]
    fn random_chunk_boundaries_reassemble_exactly(
        t in table(),
        chunk_rows in 1..5usize,
        id in 0..u32::MAX,
    ) {
        let n = t.num_rows();
        let mut parts = Vec::new();
        let mut offset = 0usize;
        loop {
            let len = chunk_rows.min(n - offset);
            let frame = Response::rows_chunk_frame(PROTOCOL_VERSION, id, &t, offset, len).unwrap();
            let body = read_frame(&mut Cursor::new(&frame)).unwrap();
            let (resp, version, got) = Response::decode_framed(&body).unwrap();
            prop_assert_eq!(version, PROTOCOL_VERSION);
            prop_assert_eq!(got, id);
            match resp {
                Response::RowsChunk { table } => parts.push((*table).clone()),
                other => panic!("not a chunk: {other:?}"),
            }
            offset += len;
            if offset >= n {
                break;
            }
        }
        prop_assert_eq!(parts.iter().map(Table::num_rows).sum::<usize>(), n);
        prop_assert_eq!(Table::concat(&parts).unwrap(), t);
    }

    /// The version matrix for requests: the same frame under any
    /// version byte but v6 is `BadVersion` carrying that byte — never a
    /// panic, never a misparse.
    #[test]
    fn request_compat_matrix(req in request(), version in stale_version(), id in 0..u32::MAX) {
        let wire = req.encode_for_version(version, id);
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        prop_assert_eq!(Request::decode_framed(&body), Err(ProtoError::BadVersion(version)));
    }

    /// The version matrix for responses, forged by rewriting the header's
    /// version byte of a well-formed v6 reply.
    #[test]
    fn response_compat_matrix(resp in response(), version in stale_version(), id in 0..u32::MAX) {
        let mut wire = resp.encode_with_id(id);
        wire[4] = version;
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        prop_assert_eq!(Response::decode_framed(&body), Err(ProtoError::BadVersion(version)));
    }

    /// Truncating a v6 frame's body anywhere — including inside the new
    /// request-id header bytes — is a typed error, never a panic.
    #[test]
    fn truncated_v6_payloads_error_instead_of_panicking(
        req in request(),
        id in 0..u32::MAX,
        cut_frac in 0.0..1.0f64,
    ) {
        let wire = req.encode_with_id(id);
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        let cut = ((body.len().saturating_sub(1)) as f64 * cut_frac) as usize;
        if cut < body.len() {
            prop_assert!(Request::decode_framed(&body[..cut]).is_err());
        }
    }
}
