//! The framed wire protocol spoken by [`crate::net`] and
//! [`crate::client`].
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! [len: u32 LE] [version: u8 = 6] [kind: u8] [request_id: u32 LE] [payload]
//! ```
//!
//! `len` counts everything after itself (the [`HEADER_LEN`] header bytes
//! plus the payload) and must lie in `HEADER_LEN..=`[`MAX_FRAME_LEN`]; a
//! peer announcing anything else is rejected before any allocation
//! happens. `version` must be [`PROTOCOL_VERSION`]: any other byte is a
//! typed [`ProtoError::BadVersion`], never a misparse.
//!
//! The `request_id` names which request a reply answers, so a client may
//! keep many requests in flight on one connection and the server may
//! answer them out of order. Ids are chosen by the client; the only rule
//! is that an id may not be reused while still in flight on its
//! connection (the server answers a duplicate with a typed `Protocol`
//! error).
//!
//! # Frame kinds and payload layout
//!
//! Request kinds live below `0x80`, response kinds at or above it, and
//! `0xEE` is the error frame. All integers are little-endian; `f64`s are
//! IEEE bit patterns; a *string* is `u32` length + UTF-8 bytes; a
//! *value* is a [`DataType`] tag byte (`0` Int64, `1` Float64, `2` Bool,
//! `3` Utf8) followed by its payload; a *deadline* is `u64` microseconds
//! with `0` meaning none; a *tenant* is a string naming the namespace
//! the request runs in.
//!
//! | kind | frame | payload layout |
//! |------|-------|----------------|
//! | `0x01` | [`Request::Prepare`] | sql: string · tenant |
//! | `0x02` | [`Request::Query`] | sql: string · tenant · deadline |
//! | `0x03` | [`Request::Score`] | model: string · tenant · row: `u32` count + `f64`s |
//! | `0x04` | [`Request::Stats`] | tenant (empty = aggregate across tenants) |
//! | `0x05` | [`Request::Shutdown`] | *(empty)* |
//! | `0x06` | [`Request::QueryParams`] | template: string · tenant · params: `u32` count + values · deadline |
//! | `0x07` | [`Request::Metrics`] | tenant (empty = aggregate across tenants) |
//! | `0x08` | [`Request::Traces`] | tenant (empty = aggregate) · limit: `u32` |
//! | `0x81` | [`Response::Prepared`] | cache_hit: `u8` · prepare_micros: `u64` |
//! | `0x83` | [`Response::Score`] | value: `f64` |
//! | `0x84` | [`Response::Stats`] | the [`WireStats`] counters, each `u64`, in declaration order |
//! | `0x85` | [`Response::ShutdownAck`] | *(empty)* |
//! | `0x86` | [`Response::Metrics`] | text: string (Prometheus-style exposition) |
//! | `0x87` | [`Response::Traces`] | `u32` count, then per trace (see below) |
//! | `0x88` | [`Response::RowsChunk`] | table (one bounded slice of the result) |
//! | `0x89` | [`Response::RowsEnd`] | cache_hit: `u8` · total_micros: `u64` · total_rows: `u64` |
//! | `0xEE` | [`Response::Error`] | code: `u16` [`ErrorCode`] · message: string |
//!
//! A query result always streams: one or more `RowsChunk` frames (the
//! first carries the schema even for an empty result) closed by one
//! `RowsEnd`, all carrying the query's request id.
//!
//! A *trace* in a `Traces` reply is: tenant: string · sql: string ·
//! seq: `u64` · total_us: `u64` · slow: `u8` · `u32` span count, then
//! per span: name: string · parent: `u32` (`u32::MAX` marks a root) ·
//! start_us: `u64` · duration_us: `u64`.
//!
//! Result tables ship column-major: `u32` row count, `u32` column count,
//! then per column its name, a [`DataType`] tag, and the values. Decoding
//! is total — truncated, oversized, or garbage frames return
//! [`ProtoError`]s, they never panic — and strict: trailing bytes after
//! a well-formed payload are an error, not ignored.
//!
//! # Example: a request round-trip, byte-exact
//!
//! ```
//! use raven_server::proto::{read_frame, Request, PROTOCOL_VERSION};
//! use raven_data::Value;
//! use std::io::Cursor;
//!
//! let request = Request::QueryParams {
//!     template: "SELECT a FROM t WHERE a > ?".into(),
//!     tenant: "default".into(),
//!     params: vec![Value::Int64(30)],
//!     deadline: None,
//! };
//! let wire = request.encode();
//! assert_eq!(wire[4], PROTOCOL_VERSION);
//! assert_eq!(wire[5], 0x06);
//! let body = read_frame(&mut Cursor::new(&wire)).unwrap();
//! assert_eq!(Request::decode(&body).unwrap(), request);
//! ```

use crate::error::ServerError;
use raven_data::{Column, DataType, Field, Schema, Table, Value};
use raven_obs::{Span, Trace};
use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// The wire protocol version carried in every frame, and the only one
/// spoken (v6 added request ids and streamed results; v1–v5 are retired).
pub const PROTOCOL_VERSION: u8 = 6;

/// Frame bytes between the length prefix and the payload — version,
/// kind, request id — and so the smallest legal `len`.
pub const HEADER_LEN: usize = 1 + 1 + 4;

/// Upper bound on `len` (header + payload), rejected before
/// allocation. Large enough for multi-million-row result tables, small
/// enough that a garbage length prefix cannot OOM the server.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Wire bytes of a [`Response::Score`] frame: length prefix, header, one
/// `f64`. The reactor checks a connection's write budget against it
/// before scoring inline.
pub const SCORE_FRAME_LEN: usize = 4 + HEADER_LEN + 8;

// Request frame kinds (< 0x80).
const KIND_PREPARE: u8 = 0x01;
const KIND_QUERY: u8 = 0x02;
const KIND_SCORE: u8 = 0x03;
const KIND_STATS: u8 = 0x04;
const KIND_SHUTDOWN: u8 = 0x05;
const KIND_QUERY_PARAMS: u8 = 0x06;
const KIND_METRICS: u8 = 0x07;
const KIND_TRACES: u8 = 0x08;

// Response frame kinds (>= 0x80).
const KIND_PREPARED: u8 = 0x81;
const KIND_SCORED: u8 = 0x83;
const KIND_STATS_REPLY: u8 = 0x84;
const KIND_SHUTDOWN_ACK: u8 = 0x85;
const KIND_METRICS_REPLY: u8 = 0x86;
const KIND_TRACES_REPLY: u8 = 0x87;
const KIND_ROWS_CHUNK: u8 = 0x88;
const KIND_ROWS_END: u8 = 0x89;
const KIND_ERROR: u8 = 0xEE;

/// `parent` sentinel in a wire-encoded span: this span is a root stage.
const SPAN_ROOT: u32 = u32::MAX;

/// Decode/transport failures. Everything a hostile or confused peer can
/// send lands in one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The stream ended inside a frame, or a payload field overran it.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`] or is shorter than
    /// [`HEADER_LEN`].
    BadLength(u32),
    /// The frame's version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Unknown frame kind for the decoder that was asked.
    BadKind(u8),
    /// Structurally invalid payload (bad UTF-8, bad type tag, trailing
    /// garbage, inconsistent column lengths, …).
    Malformed(String),
    /// Socket-level read/write failure.
    Io(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Eof => write!(f, "connection closed"),
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadLength(n) => write!(f, "bad frame length {n}"),
            ProtoError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (want {PROTOCOL_VERSION})"
                )
            }
            ProtoError::BadKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
            ProtoError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for ServerError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(m) => ServerError::Network(m),
            ProtoError::Eof => ServerError::Network("connection closed".into()),
            e => ServerError::Protocol(e.to_string()),
        }
    }
}

/// Typed error codes carried by error frames, mirroring [`ServerError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    Sql = 1,
    Optimizer = 2,
    Execution = 3,
    Data = 4,
    Store = 5,
    Scoring = 6,
    BadRequest = 7,
    ShuttingDown = 8,
    Overloaded = 9,
    DeadlineExceeded = 10,
    Protocol = 11,
    Network = 12,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Sql,
            2 => ErrorCode::Optimizer,
            3 => ErrorCode::Execution,
            4 => ErrorCode::Data,
            5 => ErrorCode::Store,
            6 => ErrorCode::Scoring,
            7 => ErrorCode::BadRequest,
            8 => ErrorCode::ShuttingDown,
            9 => ErrorCode::Overloaded,
            10 => ErrorCode::DeadlineExceeded,
            11 => ErrorCode::Protocol,
            12 => ErrorCode::Network,
            _ => return None,
        })
    }

    /// Reconstruct the typed [`ServerError`] this code was built from.
    pub fn into_error(self, message: String) -> ServerError {
        match self {
            ErrorCode::Sql => ServerError::Sql(message),
            ErrorCode::Optimizer => ServerError::Optimizer(message),
            ErrorCode::Execution => ServerError::Execution(message),
            ErrorCode::Data => ServerError::Data(message),
            ErrorCode::Store => ServerError::Store(message),
            ErrorCode::Scoring => ServerError::Scoring(message),
            ErrorCode::BadRequest => ServerError::BadRequest(message),
            ErrorCode::ShuttingDown => ServerError::ShuttingDown,
            ErrorCode::Overloaded => ServerError::Overloaded(message),
            ErrorCode::DeadlineExceeded => ServerError::DeadlineExceeded(message),
            ErrorCode::Protocol => ServerError::Protocol(message),
            ErrorCode::Network => ServerError::Network(message),
        }
    }
}

impl From<&ServerError> for ErrorCode {
    fn from(e: &ServerError) -> Self {
        match e {
            ServerError::Sql(_) => ErrorCode::Sql,
            ServerError::Optimizer(_) => ErrorCode::Optimizer,
            ServerError::Execution(_) => ErrorCode::Execution,
            ServerError::Data(_) => ErrorCode::Data,
            ServerError::Store(_) => ErrorCode::Store,
            ServerError::Scoring(_) => ErrorCode::Scoring,
            ServerError::BadRequest(_) => ErrorCode::BadRequest,
            ServerError::ShuttingDown => ErrorCode::ShuttingDown,
            ServerError::Overloaded(_) => ErrorCode::Overloaded,
            ServerError::DeadlineExceeded(_) => ErrorCode::DeadlineExceeded,
            ServerError::Protocol(_) => ErrorCode::Protocol,
            ServerError::Network(_) => ErrorCode::Network,
        }
    }
}

/// A client-to-server frame. Every request that touches serving state
/// names the tenant (namespace) it runs in.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Parse → bind → optimize `sql` into the tenant's plan cache
    /// without executing it (statement warm-up).
    Prepare { sql: String, tenant: String },
    /// Execute `sql` end to end; `deadline` bounds queueing + execution.
    Query {
        sql: String,
        tenant: String,
        deadline: Option<Duration>,
    },
    /// Execute a parameterized template: SQL containing `?` placeholders
    /// plus the positional argument values. The server prepares the
    /// template once (plan cache) and substitutes the values per request
    /// — distinct constants share one optimization.
    QueryParams {
        template: String,
        tenant: String,
        params: Vec<Value>,
        deadline: Option<Duration>,
    },
    /// Micro-batched point scoring of one raw feature row.
    Score {
        model: String,
        tenant: String,
        row: Vec<f64>,
    },
    /// Fetch observability counters: one tenant's when `tenant` names
    /// it, the cross-tenant aggregate when `tenant` is empty.
    Stats { tenant: String },
    /// Fetch the unified metric registry as Prometheus-style text
    /// exposition: one tenant's (labeled) when `tenant` names it, the
    /// exactly-merged cross-tenant aggregate when `tenant` is empty.
    Metrics { tenant: String },
    /// Fetch the `limit` most recent slow-query traces, newest first:
    /// one tenant's slow ring, or every tenant's interleaved in capture
    /// order when `tenant` is empty.
    Traces { tenant: String, limit: u32 },
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

/// A server-to-client frame.
#[derive(Debug, Clone)]
pub enum Response {
    /// Reply to [`Request::Prepare`].
    Prepared {
        cache_hit: bool,
        prepare_micros: u64,
    },
    /// One bounded slice of the result of a [`Request::Query`] or
    /// [`Request::QueryParams`]. Every chunk carries the schema, so a
    /// zero-row result still round-trips its shape; the client
    /// concatenates chunks until [`Response::RowsEnd`].
    RowsChunk { table: Arc<Table> },
    /// Terminates a streamed query result: the cache verdict, the
    /// server-side latency, and the total row count (which must equal
    /// the sum of the chunks — the client checks).
    RowsEnd {
        cache_hit: bool,
        total_micros: u64,
        total_rows: u64,
    },
    /// Reply to [`Request::Score`].
    Score { value: f64 },
    /// Reply to [`Request::Stats`].
    Stats(WireStats),
    /// Reply to [`Request::Metrics`]: Prometheus-style text exposition
    /// of the requested scope's metric registry.
    Metrics { text: String },
    /// Reply to [`Request::Traces`]: captured slow-query traces, newest
    /// first, spans in recording order (parents index into the vector).
    Traces { traces: Vec<Trace> },
    /// Reply to [`Request::Shutdown`].
    ShutdownAck,
    /// Any request can fail with a typed error instead of its reply.
    Error { code: ErrorCode, message: String },
}

impl PartialEq for Response {
    fn eq(&self, other: &Self) -> bool {
        use Response::*;
        match (self, other) {
            (
                Prepared {
                    cache_hit: a,
                    prepare_micros: b,
                },
                Prepared {
                    cache_hit: c,
                    prepare_micros: d,
                },
            ) => a == c && b == d,
            (RowsChunk { table: t1 }, RowsChunk { table: t2 }) => t1 == t2,
            (
                RowsEnd {
                    cache_hit: a,
                    total_micros: b,
                    total_rows: c,
                },
                RowsEnd {
                    cache_hit: d,
                    total_micros: e,
                    total_rows: f,
                },
            ) => a == d && b == e && c == f,
            (Score { value: a }, Score { value: b }) => a == b,
            (Stats(a), Stats(b)) => a == b,
            (Metrics { text: a }, Metrics { text: b }) => a == b,
            (Traces { traces: a }, Traces { traces: b }) => a == b,
            (ShutdownAck, ShutdownAck) => true,
            (
                Error {
                    code: a,
                    message: b,
                },
                Error {
                    code: c,
                    message: d,
                },
            ) => a == c && b == d,
            _ => false,
        }
    }
}

/// The observability counters a [`Request::Stats`] round-trip returns —
/// a flattened, wire-stable subset of [`crate::StatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    pub queries: u64,
    pub errors: u64,
    pub rows: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub preparations: u64,
    pub invalidations: u64,
    /// Queries rewritten to a parameterized template (constants
    /// extracted) before the plan-cache lookup.
    pub normalized: u64,
    /// Normalized queries whose template plan was already cached.
    pub template_hits: u64,
    /// Requests answered from the deterministic result cache — the
    /// repeats that skipped execution entirely.
    pub result_hits: u64,
    /// Cacheable requests that had to execute (first sight of their
    /// fingerprint, or its entry was evicted/invalidated).
    pub result_misses: u64,
    /// Memoized results dropped by model/table updates.
    pub result_invalidations: u64,
    pub batch_requests: u64,
    pub batches: u64,
    pub admitted: u64,
    pub rejected_overloaded: u64,
    pub rejected_deadline: u64,
    /// Recent-window latency percentiles in microseconds. Scoped like
    /// the rest of the frame: one tenant's window, or the merged window
    /// for an aggregate `Stats` request.
    pub latency_p50_micros: u64,
    pub latency_p95_micros: u64,
    pub latency_p99_micros: u64,
}

impl WireStats {
    /// Result-cache hit fraction in `[0, 1]` over cacheable requests
    /// (0 before any).
    pub fn result_hit_rate(&self) -> f64 {
        let total = self.result_hits + self.result_misses;
        if total == 0 {
            0.0
        } else {
            self.result_hits as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------
// Payload cursor helpers.

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(self.u64()? as i64)
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Malformed("invalid utf-8 in string".into()))
    }

    /// A `u32` element count validated against the bytes actually left
    /// (each element needs at least `min_elem_bytes`), so a garbage
    /// count cannot trigger a huge allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(ProtoError::Truncated);
        }
        Ok(n)
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, ProtoError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Every payload byte must be consumed: trailing garbage is an error.
    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::Malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_f64(out, x);
    }
}

// A scalar parameter value: [`DataType`] tag byte + payload.
fn put_value(out: &mut Vec<u8>, v: &Value) {
    out.push(dtype_tag(v.data_type()));
    match v {
        Value::Int64(x) => put_u64(out, *x as u64),
        Value::Float64(x) => put_f64(out, *x),
        Value::Bool(b) => out.push(*b as u8),
        Value::Utf8(s) => put_string(out, s),
    }
}

fn decode_value(r: &mut Reader<'_>) -> Result<Value, ProtoError> {
    match r.u8()? {
        0 => Ok(Value::Int64(r.i64()?)),
        1 => Ok(Value::Float64(r.f64()?)),
        2 => Ok(Value::Bool(decode_bool(r.u8()?)?)),
        3 => Ok(Value::Utf8(r.string()?)),
        tag => Err(ProtoError::Malformed(format!("bad value tag {tag}"))),
    }
}

// ---------------------------------------------------------------------
// Table encoding.

fn dtype_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Bool => 2,
        DataType::Utf8 => 3,
    }
}

fn encode_table(out: &mut Vec<u8>, table: &Table) {
    encode_table_range(out, table, 0, table.num_rows());
}

/// Encode rows `offset..offset + len` of `table`, column-major, straight
/// from the (possibly shared) table — chunked streaming never clones or
/// re-slices the result, it just walks ranges of the original columns.
fn encode_table_range(out: &mut Vec<u8>, table: &Table, offset: usize, len: usize) {
    let batch = table.batch();
    put_u32(out, len as u32);
    put_u32(out, batch.schema().len() as u32);
    for (field, col) in batch.schema().fields().iter().zip(batch.columns()) {
        put_string(out, &field.name);
        out.push(dtype_tag(field.dtype));
        match col.as_ref() {
            Column::Int64(v) => v[offset..offset + len]
                .iter()
                .for_each(|&x| put_u64(out, x as u64)),
            Column::Float64(v) => v[offset..offset + len]
                .iter()
                .for_each(|&x| put_f64(out, x)),
            Column::Bool(v) => v[offset..offset + len]
                .iter()
                .for_each(|&x| out.push(x as u8)),
            Column::Utf8(v) => v[offset..offset + len]
                .iter()
                .for_each(|s| put_string(out, s)),
        }
    }
}

fn decode_table(r: &mut Reader<'_>) -> Result<Table, ProtoError> {
    let rows = r.u32()? as usize;
    let cols = r.count(5)?; // name len + dtype tag at minimum per column
    let mut fields = Vec::with_capacity(cols);
    let mut columns = Vec::with_capacity(cols);
    for _ in 0..cols {
        let name = r.string()?;
        let tag = r.u8()?;
        let (dtype, column) = match tag {
            0 => {
                if rows.saturating_mul(8) > r.remaining() {
                    return Err(ProtoError::Truncated);
                }
                let v = (0..rows).map(|_| r.i64()).collect::<Result<Vec<_>, _>>()?;
                (DataType::Int64, Column::Int64(v))
            }
            1 => {
                if rows.saturating_mul(8) > r.remaining() {
                    return Err(ProtoError::Truncated);
                }
                let v = (0..rows).map(|_| r.f64()).collect::<Result<Vec<_>, _>>()?;
                (DataType::Float64, Column::Float64(v))
            }
            2 => {
                let v = r
                    .take(rows)?
                    .iter()
                    .map(|&b| match b {
                        0 => Ok(false),
                        1 => Ok(true),
                        b => Err(ProtoError::Malformed(format!("bad bool byte {b}"))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                (DataType::Bool, Column::Bool(v))
            }
            3 => {
                if rows.saturating_mul(4) > r.remaining() {
                    return Err(ProtoError::Truncated);
                }
                let v = (0..rows)
                    .map(|_| r.string())
                    .collect::<Result<Vec<_>, _>>()?;
                (DataType::Utf8, Column::Utf8(v))
            }
            tag => return Err(ProtoError::Malformed(format!("bad dtype tag {tag}"))),
        };
        fields.push(Field::new(name, dtype));
        columns.push(column);
    }
    Table::try_new(Schema::new(fields).into_shared(), columns)
        .map_err(|e| ProtoError::Malformed(e.to_string()))
}

// ---------------------------------------------------------------------
// Frame encode/decode.

/// Assemble a full frame: length prefix, the [`HEADER_LEN`] header
/// bytes, payload. A body beyond `u32` saturates the prefix rather than
/// silently wrapping — the receiver then rejects it as `BadLength`
/// instead of desyncing.
fn frame(version: u8, kind: u8, request_id: u32, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(HEADER_LEN + payload.len()).unwrap_or(u32::MAX);
    let mut out = Vec::with_capacity(4 + HEADER_LEN + payload.len());
    put_u32(&mut out, len);
    out.push(version);
    out.push(kind);
    put_u32(&mut out, request_id);
    out.extend_from_slice(payload);
    out
}

/// Split a frame body (everything after the length prefix) into `(kind,
/// request_id, payload)`, rejecting any version but [`PROTOCOL_VERSION`].
fn split_body(body: &[u8]) -> Result<(u8, u32, &[u8]), ProtoError> {
    if body.len() < HEADER_LEN {
        return Err(ProtoError::Truncated);
    }
    if body[0] != PROTOCOL_VERSION {
        return Err(ProtoError::BadVersion(body[0]));
    }
    let id = u32::from_le_bytes(body[2..HEADER_LEN].try_into().unwrap());
    Ok((body[1], id, &body[HEADER_LEN..]))
}

fn put_deadline(out: &mut Vec<u8>, deadline: Option<Duration>) {
    // 0 = no deadline; a zero deadline is sent as 1 µs.
    put_u64(out, deadline.map_or(0, |d| (d.as_micros() as u64).max(1)));
}

fn decode_deadline(r: &mut Reader<'_>) -> Result<Option<Duration>, ProtoError> {
    let micros = r.u64()?;
    Ok((micros > 0).then(|| Duration::from_micros(micros)))
}

impl Request {
    /// Encode to a complete wire frame (length prefix included) with
    /// request id `0`.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_id(0)
    }

    /// Encode carrying `request_id`, so the out-of-order reply stream
    /// can be matched back to this request.
    pub fn encode_with_id(&self, request_id: u32) -> Vec<u8> {
        self.encode_for_version(PROTOCOL_VERSION, request_id)
    }

    /// [`Request::encode_with_id`] with `version` written verbatim into
    /// the header. The layout is the same for every version byte; only
    /// tests pass anything but [`PROTOCOL_VERSION`], to forge a frame
    /// from a peer the server does not speak.
    pub fn encode_for_version(&self, version: u8, request_id: u32) -> Vec<u8> {
        let mut payload = Vec::new();
        let kind = match self {
            Request::Prepare { sql, tenant } => {
                put_string(&mut payload, sql);
                put_string(&mut payload, tenant);
                KIND_PREPARE
            }
            Request::Query {
                sql,
                tenant,
                deadline,
            } => {
                put_string(&mut payload, sql);
                put_string(&mut payload, tenant);
                put_deadline(&mut payload, *deadline);
                KIND_QUERY
            }
            Request::QueryParams {
                template,
                tenant,
                params,
                deadline,
            } => {
                put_string(&mut payload, template);
                put_string(&mut payload, tenant);
                put_u32(&mut payload, params.len() as u32);
                for p in params {
                    put_value(&mut payload, p);
                }
                put_deadline(&mut payload, *deadline);
                KIND_QUERY_PARAMS
            }
            Request::Score { model, tenant, row } => {
                put_string(&mut payload, model);
                put_string(&mut payload, tenant);
                put_f64_vec(&mut payload, row);
                KIND_SCORE
            }
            Request::Stats { tenant } => {
                put_string(&mut payload, tenant);
                KIND_STATS
            }
            Request::Metrics { tenant } => {
                put_string(&mut payload, tenant);
                KIND_METRICS
            }
            Request::Traces { tenant, limit } => {
                put_string(&mut payload, tenant);
                put_u32(&mut payload, *limit);
                KIND_TRACES
            }
            Request::Shutdown => KIND_SHUTDOWN,
        };
        frame(version, kind, request_id, &payload)
    }

    /// Decode a frame body (header + payload, no length prefix).
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        Request::decode_framed(body).map(|(req, _, _)| req)
    }

    /// Full header decode: the request, the frame's version (always
    /// [`PROTOCOL_VERSION`]: anything else is an error), and its
    /// request id.
    pub fn decode_framed(body: &[u8]) -> Result<(Request, u8, u32), ProtoError> {
        let (kind, request_id, payload) = split_body(body)?;
        let mut r = Reader::new(payload);
        let req = match kind {
            KIND_PREPARE => Request::Prepare {
                sql: r.string()?,
                tenant: r.string()?,
            },
            KIND_QUERY => Request::Query {
                sql: r.string()?,
                tenant: r.string()?,
                deadline: decode_deadline(&mut r)?,
            },
            KIND_QUERY_PARAMS => {
                let template = r.string()?;
                let tenant = r.string()?;
                let n = r.count(2)?; // tag + ≥ 1 payload byte per value
                let params = (0..n)
                    .map(|_| decode_value(&mut r))
                    .collect::<Result<Vec<_>, _>>()?;
                Request::QueryParams {
                    template,
                    tenant,
                    params,
                    deadline: decode_deadline(&mut r)?,
                }
            }
            KIND_SCORE => Request::Score {
                model: r.string()?,
                tenant: r.string()?,
                row: r.f64_vec()?,
            },
            KIND_STATS => Request::Stats {
                tenant: r.string()?,
            },
            KIND_METRICS => Request::Metrics {
                tenant: r.string()?,
            },
            KIND_TRACES => Request::Traces {
                tenant: r.string()?,
                limit: r.u32()?,
            },
            KIND_SHUTDOWN => Request::Shutdown,
            kind => return Err(ProtoError::BadKind(kind)),
        };
        r.finish()?;
        Ok((req, PROTOCOL_VERSION, request_id))
    }
}

impl Response {
    /// Encode to a complete wire frame (length prefix included) with
    /// request id `0`.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_id(0)
    }

    /// Encode carrying `request_id`, echoing the id of the request this
    /// frame answers.
    pub fn encode_with_id(&self, request_id: u32) -> Vec<u8> {
        let mut payload = Vec::new();
        let kind = match self {
            Response::Prepared {
                cache_hit,
                prepare_micros,
            } => {
                payload.push(*cache_hit as u8);
                put_u64(&mut payload, *prepare_micros);
                KIND_PREPARED
            }
            Response::RowsChunk { table } => {
                encode_table(&mut payload, table);
                KIND_ROWS_CHUNK
            }
            Response::RowsEnd {
                cache_hit,
                total_micros,
                total_rows,
            } => {
                payload.push(*cache_hit as u8);
                put_u64(&mut payload, *total_micros);
                put_u64(&mut payload, *total_rows);
                KIND_ROWS_END
            }
            Response::Score { value } => {
                put_f64(&mut payload, *value);
                KIND_SCORED
            }
            Response::Stats(s) => {
                for v in [
                    s.queries,
                    s.errors,
                    s.rows,
                    s.plan_hits,
                    s.plan_misses,
                    s.preparations,
                    s.invalidations,
                    s.normalized,
                    s.template_hits,
                    s.result_hits,
                    s.result_misses,
                    s.result_invalidations,
                    s.batch_requests,
                    s.batches,
                    s.admitted,
                    s.rejected_overloaded,
                    s.rejected_deadline,
                    s.latency_p50_micros,
                    s.latency_p95_micros,
                    s.latency_p99_micros,
                ] {
                    put_u64(&mut payload, v);
                }
                KIND_STATS_REPLY
            }
            Response::Metrics { text } => {
                put_string(&mut payload, text);
                KIND_METRICS_REPLY
            }
            Response::Traces { traces } => {
                put_u32(&mut payload, traces.len() as u32);
                for t in traces {
                    put_string(&mut payload, &t.tenant);
                    put_string(&mut payload, &t.sql);
                    put_u64(&mut payload, t.seq);
                    put_u64(&mut payload, t.total_us);
                    payload.push(t.slow as u8);
                    put_u32(&mut payload, t.spans.len() as u32);
                    for s in &t.spans {
                        put_string(&mut payload, &s.name);
                        put_u32(&mut payload, s.parent.unwrap_or(SPAN_ROOT));
                        put_u64(&mut payload, s.start_us);
                        put_u64(&mut payload, s.duration_us);
                    }
                }
                KIND_TRACES_REPLY
            }
            Response::ShutdownAck => KIND_SHUTDOWN_ACK,
            Response::Error { code, message } => {
                put_u16(&mut payload, *code as u16);
                put_string(&mut payload, message);
                KIND_ERROR
            }
        };
        frame(PROTOCOL_VERSION, kind, request_id, &payload)
    }

    /// Decode a frame body (header + payload, no length prefix).
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        Response::decode_framed(body).map(|(resp, _, _)| resp)
    }

    /// Full header decode: the response, the frame's version (always
    /// [`PROTOCOL_VERSION`]: anything else is an error), and the request
    /// id it answers.
    pub fn decode_framed(body: &[u8]) -> Result<(Response, u8, u32), ProtoError> {
        let (kind, request_id, payload) = split_body(body)?;
        let mut r = Reader::new(payload);
        let resp = match kind {
            KIND_PREPARED => Response::Prepared {
                cache_hit: decode_bool(r.u8()?)?,
                prepare_micros: r.u64()?,
            },
            KIND_ROWS_CHUNK => Response::RowsChunk {
                table: Arc::new(decode_table(&mut r)?),
            },
            KIND_ROWS_END => Response::RowsEnd {
                cache_hit: decode_bool(r.u8()?)?,
                total_micros: r.u64()?,
                total_rows: r.u64()?,
            },
            KIND_SCORED => Response::Score { value: r.f64()? },
            KIND_STATS_REPLY => Response::Stats(WireStats {
                queries: r.u64()?,
                errors: r.u64()?,
                rows: r.u64()?,
                plan_hits: r.u64()?,
                plan_misses: r.u64()?,
                preparations: r.u64()?,
                invalidations: r.u64()?,
                normalized: r.u64()?,
                template_hits: r.u64()?,
                result_hits: r.u64()?,
                result_misses: r.u64()?,
                result_invalidations: r.u64()?,
                batch_requests: r.u64()?,
                batches: r.u64()?,
                admitted: r.u64()?,
                rejected_overloaded: r.u64()?,
                rejected_deadline: r.u64()?,
                latency_p50_micros: r.u64()?,
                latency_p95_micros: r.u64()?,
                latency_p99_micros: r.u64()?,
            }),
            KIND_METRICS_REPLY => Response::Metrics { text: r.string()? },
            KIND_TRACES_REPLY => {
                // Minimum bytes per trace: two string lengths, seq,
                // total_us, the slow byte, and the span count.
                let n = r.count(29)?;
                let traces = (0..n)
                    .map(|_| decode_trace(&mut r))
                    .collect::<Result<Vec<_>, _>>()?;
                Response::Traces { traces }
            }
            KIND_SHUTDOWN_ACK => Response::ShutdownAck,
            KIND_ERROR => {
                let raw = r.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| ProtoError::Malformed(format!("bad error code {raw}")))?;
                Response::Error {
                    code,
                    message: r.string()?,
                }
            }
            kind => return Err(ProtoError::BadKind(kind)),
        };
        r.finish()?;
        Ok((resp, PROTOCOL_VERSION, request_id))
    }

    /// Build the error frame for a [`ServerError`]. The message is the
    /// variant's inner detail: the code already carries the kind, and
    /// [`ErrorCode::into_error`] reconstructs the exact original.
    pub fn from_error(e: &ServerError) -> Response {
        Response::Error {
            code: e.into(),
            message: e.detail(),
        }
    }

    /// Build one `RowsChunk` frame for rows `offset..offset + len` of a
    /// (possibly shared) result table, encoding the range straight from
    /// the original columns — no sub-table is materialized, so a cached
    /// `Arc<Table>` streams to any number of connections without a
    /// copy. `version` is written verbatim (the server passes
    /// [`PROTOCOL_VERSION`]). Errors on out-of-range or a chunk that
    /// overflows [`MAX_FRAME_LEN`] (shrink the chunk).
    pub fn rows_chunk_frame(
        version: u8,
        request_id: u32,
        table: &Table,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, ProtoError> {
        if offset.saturating_add(len) > table.num_rows() {
            return Err(ProtoError::Malformed(format!(
                "chunk {offset}..{} out of range for {} rows",
                offset + len,
                table.num_rows()
            )));
        }
        let mut payload = Vec::new();
        encode_table_range(&mut payload, table, offset, len);
        let body_len = HEADER_LEN + payload.len();
        if body_len > MAX_FRAME_LEN as usize {
            return Err(ProtoError::BadLength(
                u32::try_from(body_len).unwrap_or(u32::MAX),
            ));
        }
        Ok(frame(version, KIND_ROWS_CHUNK, request_id, &payload))
    }
}

fn decode_trace(r: &mut Reader<'_>) -> Result<Trace, ProtoError> {
    let tenant = r.string()?;
    let sql = r.string()?;
    let seq = r.u64()?;
    let total_us = r.u64()?;
    let slow = decode_bool(r.u8()?)?;
    // Minimum bytes per span: name length, parent, start_us, duration_us.
    let n = r.count(24)?;
    let spans = (0..n)
        .map(|_| {
            let name = r.string()?;
            let parent = r.u32()?;
            Ok(Span {
                name,
                parent: (parent != SPAN_ROOT).then_some(parent),
                start_us: r.u64()?,
                duration_us: r.u64()?,
            })
        })
        .collect::<Result<Vec<_>, ProtoError>>()?;
    Ok(Trace {
        seq,
        tenant,
        sql,
        total_us,
        slow,
        spans,
    })
}

fn decode_bool(b: u8) -> Result<bool, ProtoError> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(ProtoError::Malformed(format!("bad bool byte {b}"))),
    }
}

/// Read one frame body from `r`: the length prefix is validated against
/// [`MAX_FRAME_LEN`] *before* the body allocation. A clean close before
/// the first length byte is [`ProtoError::Eof`]; mid-frame closes are
/// [`ProtoError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    ProtoError::Eof
                } else {
                    ProtoError::Truncated
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if !(HEADER_LEN as u32..=MAX_FRAME_LEN).contains(&len) {
        return Err(ProtoError::BadLength(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(e.to_string())
        }
    })?;
    Ok(body)
}

/// Write a fully assembled frame (from [`Request::encode`] /
/// [`Response::encode`]) to `w`.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), ProtoError> {
    w.write_all(frame)
        .map_err(|e| ProtoError::Io(e.to_string()))?;
    w.flush().map_err(|e| ProtoError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_request(req: Request) {
        let wire = req.encode();
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let wire = resp.encode();
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    #[test]
    fn score_frame_len_is_the_encoded_length() {
        let frame = Response::Score { value: -1.5e300 }.encode_with_id(u32::MAX);
        assert_eq!(frame.len(), SCORE_FRAME_LEN);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Prepare {
            sql: "SELECT 1".into(),
            tenant: "default".into(),
        });
        roundtrip_request(Request::Query {
            sql: "SELECT * FROM t WHERE x > 1".into(),
            tenant: "team-a".into(),
            deadline: None,
        });
        roundtrip_request(Request::Query {
            sql: "q".into(),
            tenant: "default".into(),
            deadline: Some(Duration::from_millis(250)),
        });
        roundtrip_request(Request::Score {
            model: "risk".into(),
            tenant: "team-b".into(),
            row: vec![1.0, -2.5, f64::MAX],
        });
        roundtrip_request(Request::Stats {
            tenant: String::new(), // aggregate
        });
        roundtrip_request(Request::Stats {
            tenant: "team-a".into(),
        });
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn response_roundtrips() {
        let table = Table::try_new(
            Schema::from_pairs(&[
                ("id", DataType::Int64),
                ("score", DataType::Float64),
                ("dest", DataType::Utf8),
                ("flag", DataType::Bool),
            ])
            .into_shared(),
            vec![
                Column::Int64(vec![1, -7]),
                Column::Float64(vec![0.5, f64::NEG_INFINITY]),
                Column::Utf8(vec!["JFK".into(), "日本".into()]),
                Column::Bool(vec![true, false]),
            ],
        )
        .unwrap();
        roundtrip_response(Response::RowsChunk {
            table: Arc::new(table),
        });
        roundtrip_response(Response::RowsEnd {
            cache_hit: true,
            total_micros: 1234,
            total_rows: 2,
        });
        roundtrip_response(Response::Prepared {
            cache_hit: false,
            prepare_micros: 99,
        });
        roundtrip_response(Response::Score { value: 6.25 });
        roundtrip_response(Response::Stats(WireStats {
            queries: 1,
            errors: 2,
            rows: 3,
            plan_hits: 4,
            plan_misses: 5,
            preparations: 6,
            invalidations: 7,
            normalized: 13,
            template_hits: 14,
            result_hits: 15,
            result_misses: 16,
            result_invalidations: 17,
            batch_requests: 8,
            batches: 9,
            admitted: 10,
            rejected_overloaded: 11,
            rejected_deadline: 12,
            latency_p50_micros: 18,
            latency_p95_micros: 19,
            latency_p99_micros: 20,
        }));
        roundtrip_response(Response::ShutdownAck);
        roundtrip_response(Response::Error {
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        });
    }

    #[test]
    fn observability_frames_roundtrip() {
        roundtrip_request(Request::Metrics {
            tenant: String::new(), // aggregate
        });
        roundtrip_request(Request::Metrics {
            tenant: "team-a".into(),
        });
        roundtrip_request(Request::Traces {
            tenant: String::new(),
            limit: 16,
        });
        roundtrip_response(Response::Metrics {
            text: "raven_queries_total 5\nraven_rows_total{tenant=\"a\"} 50\n".into(),
        });
        roundtrip_response(Response::Traces {
            traces: vec![
                Trace {
                    seq: 9,
                    tenant: "team-a".into(),
                    sql: "SELECT 1".into(),
                    total_us: 1500,
                    slow: false,
                    spans: vec![
                        Span {
                            name: "plan-cache-lookup".into(),
                            parent: None,
                            start_us: 2,
                            duration_us: 40,
                        },
                        Span {
                            name: "parse-bind".into(),
                            parent: Some(0),
                            start_us: 3,
                            duration_us: 20,
                        },
                    ],
                },
                // A spanless slow capture (unsampled request over the
                // threshold) must survive the wire too.
                Trace {
                    seq: 3,
                    tenant: "default".into(),
                    sql: "SELECT slow FROM t".into(),
                    total_us: 900_000,
                    slow: true,
                    spans: Vec::new(),
                },
            ],
        });
        roundtrip_response(Response::Traces { traces: Vec::new() });
    }

    /// The streaming kinds belong to v6: a chunk or trailer whose header
    /// claims an older version is `BadVersion`, never a misparse.
    #[test]
    fn streaming_replies_are_v6_only() {
        let table = Table::try_new(
            Schema::from_pairs(&[("i", DataType::Int64)]).into_shared(),
            vec![Column::Int64(vec![1, 2])],
        )
        .unwrap();
        let mut end = Response::RowsEnd {
            cache_hit: true,
            total_micros: 42,
            total_rows: 2,
        }
        .encode();
        end[4] = 5;
        for wire in [Response::rows_chunk_frame(5, 0, &table, 0, 2).unwrap(), end] {
            let body = read_frame(&mut Cursor::new(&wire)).unwrap();
            assert_eq!(Response::decode(&body), Err(ProtoError::BadVersion(5)));
        }
    }

    /// The request id rides the header right after the kind byte, in
    /// both directions; the same layout under another version byte is
    /// rejected.
    #[test]
    fn request_ids_ride_the_v6_header_and_only_the_v6_header() {
        let req = Request::Stats {
            tenant: "team-a".into(),
        };
        let wire = req.encode_with_id(0xDEAD_BEEF);
        assert_eq!(wire[4], PROTOCOL_VERSION);
        assert_eq!(wire[5], 0x04);
        assert_eq!(&wire[6..10], &0xDEAD_BEEFu32.to_le_bytes());
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        let (decoded, version, id) = Request::decode_framed(&body).unwrap();
        assert_eq!((decoded, version, id), (req.clone(), 6, 0xDEAD_BEEF));

        let v5_wire = req.encode_for_version(5, 0xDEAD_BEEF);
        assert_eq!(v5_wire[..4], wire[..4], "one layout for every version byte");
        let body = read_frame(&mut Cursor::new(&v5_wire)).unwrap();
        assert_eq!(
            Request::decode_framed(&body),
            Err(ProtoError::BadVersion(5))
        );

        let resp = Response::Score { value: 1.5 };
        let body = read_frame(&mut Cursor::new(&resp.encode_with_id(7))).unwrap();
        let (decoded, version, id) = Response::decode_framed(&body).unwrap();
        assert_eq!((decoded, version, id), (resp, 6, 7));
    }

    /// Chunk frames encode a row range straight from the shared table;
    /// reassembling every chunk reproduces the monolithic table exactly.
    #[test]
    fn chunk_frames_cover_the_table_exactly() {
        let table = Arc::new(
            Table::try_new(
                Schema::from_pairs(&[("i", DataType::Int64), ("s", DataType::Utf8)]).into_shared(),
                vec![
                    Column::Int64((0..10).collect()),
                    Column::Utf8((0..10).map(|i| format!("row-{i}")).collect()),
                ],
            )
            .unwrap(),
        );
        let mut rows = 0usize;
        let mut chunks = Vec::new();
        for (offset, len) in [(0, 3), (3, 3), (6, 4)] {
            let wire =
                Response::rows_chunk_frame(PROTOCOL_VERSION, 9, &table, offset, len).unwrap();
            let body = read_frame(&mut Cursor::new(&wire)).unwrap();
            let (resp, _, id) = Response::decode_framed(&body).unwrap();
            assert_eq!(id, 9);
            let Response::RowsChunk { table: chunk } = resp else {
                panic!("not a chunk");
            };
            assert_eq!(chunk.num_rows(), len);
            rows += chunk.num_rows();
            chunks.push((*chunk).clone());
        }
        assert_eq!(rows, table.num_rows());
        let rebuilt = Table::concat(&chunks).unwrap();
        assert_eq!(&rebuilt, &*table);
        // Out-of-range chunks are a typed error, not a slice panic.
        assert!(Response::rows_chunk_frame(PROTOCOL_VERSION, 0, &table, 8, 4).is_err());
    }

    #[test]
    fn error_frames_reconstruct_the_exact_error() {
        let errors = [
            ServerError::Sql("s".into()),
            ServerError::Overloaded("o".into()),
            ServerError::DeadlineExceeded("d".into()),
            ServerError::ShuttingDown,
            ServerError::BadRequest("b".into()),
        ];
        for e in errors {
            let Response::Error { code, message } = Response::from_error(&e) else {
                panic!("not an error frame");
            };
            assert_eq!(code.into_error(message), e, "round-trip must be exact");
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut wire = Vec::new();
        put_u32(&mut wire, MAX_FRAME_LEN + 1);
        wire.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            read_frame(&mut Cursor::new(&wire)),
            Err(ProtoError::BadLength(MAX_FRAME_LEN + 1))
        );
    }

    /// `len` must at least cover the header: anything shorter is a bad
    /// length, not a truncated read.
    #[test]
    fn lengths_shorter_than_the_header_are_rejected() {
        for len in 0..HEADER_LEN as u32 {
            let mut wire = len.to_le_bytes().to_vec();
            wire.extend_from_slice(&[PROTOCOL_VERSION, 0x04, 0, 0, 0, 0]);
            assert_eq!(
                read_frame(&mut Cursor::new(&wire)),
                Err(ProtoError::BadLength(len))
            );
        }
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut wire = Request::Stats {
            tenant: String::new(),
        }
        .encode();
        wire[4] = 9; // clobber the version byte
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(Request::decode(&body), Err(ProtoError::BadVersion(9)));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut wire = Request::Stats {
            tenant: String::new(),
        }
        .encode();
        // Extend the payload by one byte and fix up the length prefix.
        wire.push(0xAB);
        let len = (wire.len() - 4) as u32;
        wire[..4].copy_from_slice(&len.to_le_bytes());
        let body = read_frame(&mut Cursor::new(&wire)).unwrap();
        assert!(matches!(
            Request::decode(&body),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn eof_and_truncation_are_distinct() {
        assert_eq!(
            read_frame(&mut Cursor::new(Vec::new())),
            Err(ProtoError::Eof)
        );
        let wire = Request::Prepare {
            sql: "SELECT 1".into(),
            tenant: "default".into(),
        }
        .encode();
        for cut in 1..wire.len() {
            let err = read_frame(&mut Cursor::new(&wire[..cut]));
            assert!(err.is_err(), "cut at {cut} must not parse");
        }
    }
}
