//! Blocking clients for the framed-TCP protocol — the counterpart of
//! [`crate::net`], used by the examples, benches, and the integration
//! test harness.
//!
//! Both clients run on one connection type: request frames are buffered
//! and written in one go when a reply is awaited, and a query's reply —
//! a stream of bounded [`Response::RowsChunk`] frames closed by a
//! [`Response::RowsEnd`] — is reassembled into one table whose row
//! count is checked against the trailer.
//!
//! [`RavenClient`] is the serial client: every request kind, one in
//! flight at a time. [`PipelinedClient`] keeps up to the server's
//! per-connection budget of queries in flight at once, matching
//! out-of-order replies to requests by the header's request id.
//!
//! Error frames come back as the same typed [`ServerError`] the server
//! produced — `Overloaded`, `DeadlineExceeded`, `Sql`, … — so callers
//! can branch on overload vs. failure without string matching.

use crate::error::{Result, ServerError};
use crate::proto::{self, Request, Response, WireStats};
use raven_data::Table;
use std::collections::HashMap;
use std::fmt::Debug;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The reply to a successful [`RavenClient::query`].
#[derive(Debug, Clone)]
pub struct ClientQueryReply {
    /// The materialized result rows, reassembled from the stream.
    pub table: Table,
    /// Whether the server served a cached plan.
    pub cache_hit: bool,
    /// Server-side end-to-end latency.
    pub server_time: Duration,
    /// `RowsChunk` frames the result arrived in (at least one).
    pub chunks: usize,
}

/// One request's complete answer: a reassembled query result, or any
/// other kind's single frame. Error frames become the `Err` around it.
#[derive(Debug)]
enum Reply {
    Rows(ClientQueryReply),
    Frame(Response),
}

impl Reply {
    fn rows(self) -> Result<ClientQueryReply> {
        match self {
            Reply::Rows(reply) => Ok(reply),
            other => Err(unexpected(&other)),
        }
    }
}

/// The send and receive halves both clients share.
struct Connection {
    /// Reply side: buffered, so one `read(2)` can drain many frames —
    /// a full in-flight window's replies usually cost a syscall or two.
    reader: BufReader<TcpStream>,
    /// Request side (same socket, second handle).
    writer: TcpStream,
    /// Encoded frames sent but not yet written to the socket. Flushed in
    /// one write when a reply is awaited (or on [`Connection::flush`]),
    /// so a burst of submits costs one syscall, not one per request.
    pending: Vec<u8>,
    next_id: u32,
    /// Ids sent and not yet fully answered.
    outstanding: usize,
    /// Chunks received so far for streams still missing their `RowsEnd`.
    partial: HashMap<u32, Vec<Table>>,
}

impl Connection {
    fn connect(addr: impl ToSocketAddrs) -> Result<Connection> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ServerError::Network(format!("connect: {e}")))?;
        let _ = stream.set_nodelay(true);
        let reader = stream
            .try_clone()
            .map_err(|e| ServerError::Network(format!("clone socket: {e}")))?;
        Ok(Connection {
            reader: BufReader::with_capacity(256 * 1024, reader),
            writer: stream,
            pending: Vec::new(),
            next_id: 0,
            outstanding: 0,
            partial: HashMap::new(),
        })
    }

    fn set_reply_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| ServerError::Network(e.to_string()))
    }

    /// Buffer `request` under the next id and return that id.
    fn send(&mut self, request: &Request) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.pending.extend_from_slice(&request.encode_with_id(id));
        self.outstanding += 1;
        id
    }

    fn flush(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.writer
            .write_all(&self.pending)
            .and_then(|_| self.writer.flush())
            .map_err(|e| ServerError::Network(format!("flush submits: {e}")))?;
        self.pending.clear();
        Ok(())
    }

    /// Block until the next request is fully answered, in server
    /// completion order. The outer `Err` is a transport or framing
    /// failure (the connection is no longer usable); the inner one is
    /// that request's typed error frame.
    fn recv(&mut self) -> Result<(u32, Result<Reply>)> {
        self.flush()?;
        loop {
            let body = proto::read_frame(&mut self.reader)?;
            let (response, _, id) = Response::decode_framed(&body)?;
            let reply = match response {
                Response::RowsChunk { table } => {
                    self.partial
                        .entry(id)
                        .or_default()
                        .push(unwrap_table(table));
                    continue;
                }
                Response::RowsEnd {
                    cache_hit,
                    total_micros,
                    total_rows,
                } => {
                    let parts = self.partial.remove(&id).unwrap_or_default();
                    assemble(parts, cache_hit, total_micros, total_rows).map(Reply::Rows)
                }
                Response::Error { code, message } => {
                    // A mid-stream error (deadline expiry, shutdown)
                    // aborts the stream: drop any chunks received.
                    self.partial.remove(&id);
                    Err(code.into_error(message))
                }
                other => Ok(Reply::Frame(other)),
            };
            self.outstanding = self.outstanding.saturating_sub(1);
            return Ok((id, reply));
        }
    }
}

/// A blocking connection to a [`crate::net::RavenServer`], bound to one
/// tenant namespace ([`crate::tenant::DEFAULT_TENANT`] unless rebound
/// with [`RavenClient::for_tenant`]). One request in flight at a time.
pub struct RavenClient {
    conn: Connection,
    tenant: String,
}

impl RavenClient {
    /// Connect to a serving endpoint (requests run in the default
    /// tenant).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RavenClient> {
        Ok(RavenClient {
            conn: Connection::connect(addr)?,
            tenant: crate::tenant::DEFAULT_TENANT.to_string(),
        })
    }

    /// Rebind this connection to `tenant`: every subsequent request
    /// (prepare, query, score, stats) runs in that namespace. The tenant
    /// is created server-side on first use:
    ///
    /// ```no_run
    /// use raven_server::RavenClient;
    ///
    /// let mut client = RavenClient::connect("127.0.0.1:4741")?.for_tenant("team-a");
    /// let reply = client.query("SELECT * FROM patients")?; // team-a's `patients`
    /// # let _ = reply;
    /// # Ok::<(), raven_server::ServerError>(())
    /// ```
    pub fn for_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// The tenant this connection's requests run in.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Bound how long any single reply may take (`None` = wait forever).
    pub fn set_reply_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.conn.set_reply_timeout(timeout)
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Reply> {
        self.conn.send(request);
        self.conn.recv()?.1
    }

    /// Warm the server's plan cache for `sql` (in this client's tenant)
    /// without executing it. Returns `(cache_hit, server-side prepare
    /// time)`.
    pub fn prepare(&mut self, sql: &str) -> Result<(bool, Duration)> {
        let request = Request::Prepare {
            sql: sql.into(),
            tenant: self.tenant.clone(),
        };
        match self.roundtrip(&request)? {
            Reply::Frame(Response::Prepared {
                cache_hit,
                prepare_micros,
            }) => Ok((cache_hit, Duration::from_micros(prepare_micros))),
            other => Err(unexpected(&other)),
        }
    }

    /// Execute `sql` and fetch the full result table.
    pub fn query(&mut self, sql: &str) -> Result<ClientQueryReply> {
        self.query_with_deadline(sql, None)
    }

    /// Execute `sql` with a server-enforced deadline covering admission
    /// queueing, execution, and result streaming. Expiry returns
    /// [`ServerError::DeadlineExceeded`]; a saturated server returns
    /// [`ServerError::Overloaded`].
    pub fn query_with_deadline(
        &mut self,
        sql: &str,
        deadline: Option<Duration>,
    ) -> Result<ClientQueryReply> {
        let request = Request::Query {
            sql: sql.into(),
            tenant: self.tenant.clone(),
            deadline,
        };
        self.roundtrip(&request)?.rows()
    }

    /// Execute a parameterized template (`?` placeholders) with
    /// positional argument values. The server prepares the template once
    /// and substitutes the values per request, so calling this in a loop
    /// with different constants pays parse → bind → optimize exactly
    /// once:
    ///
    /// ```no_run
    /// use raven_server::RavenClient;
    /// use raven_data::Value;
    ///
    /// let mut client = RavenClient::connect("127.0.0.1:4741")?;
    /// for age in [30, 40, 50] {
    ///     let reply = client.query_params(
    ///         "SELECT * FROM patients WHERE age > ?",
    ///         vec![Value::Int64(age)],
    ///         None,
    ///     )?;
    ///     println!("age > {age}: {} rows", reply.table.num_rows());
    /// }
    /// # Ok::<(), raven_server::ServerError>(())
    /// ```
    pub fn query_params(
        &mut self,
        template: &str,
        params: Vec<raven_data::Value>,
        deadline: Option<Duration>,
    ) -> Result<ClientQueryReply> {
        let request = Request::QueryParams {
            template: template.into(),
            tenant: self.tenant.clone(),
            params,
            deadline,
        };
        self.roundtrip(&request)?.rows()
    }

    /// Score one raw feature row through this tenant's micro-batcher.
    pub fn score(&mut self, model: &str, row: Vec<f64>) -> Result<f64> {
        let request = Request::Score {
            model: model.into(),
            tenant: self.tenant.clone(),
            row,
        };
        match self.roundtrip(&request)? {
            Reply::Frame(Response::Score { value }) => Ok(value),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch this tenant's observability counters — including the
    /// result-cache triple (`result_hits` / `result_misses` /
    /// `result_invalidations`; see [`WireStats::result_hit_rate`]) that
    /// says how much of the repeat traffic skipped execution entirely,
    /// and the tenant's recent latency percentiles.
    pub fn stats(&mut self) -> Result<WireStats> {
        let tenant = self.tenant.clone();
        self.stats_for(&tenant)
    }

    /// Fetch another tenant's counters without rebinding the connection
    /// (a server observing its tenants from one socket). A tenant that
    /// does not exist yet reports zeros — observing never creates.
    pub fn stats_for(&mut self, tenant: &str) -> Result<WireStats> {
        let request = Request::Stats {
            tenant: tenant.into(),
        };
        match self.roundtrip(&request)? {
            Reply::Frame(Response::Stats(stats)) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the cross-tenant aggregate counters (sums across every
    /// tenant; latency percentiles over the merged windows).
    pub fn stats_aggregate(&mut self) -> Result<WireStats> {
        self.stats_for("")
    }

    /// Fetch this tenant's unified metrics as Prometheus-style text
    /// exposition — every series prefixed `raven_` and labeled with the
    /// tenant.
    pub fn metrics(&mut self) -> Result<String> {
        let tenant = self.tenant.clone();
        self.metrics_for(&tenant)
    }

    /// Fetch another tenant's metrics without rebinding the connection.
    /// A tenant that does not exist yet reports an empty exposition —
    /// observing never creates.
    pub fn metrics_for(&mut self, tenant: &str) -> Result<String> {
        let request = Request::Metrics {
            tenant: tenant.into(),
        };
        match self.roundtrip(&request)? {
            Reply::Frame(Response::Metrics { text }) => Ok(text),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch the exactly-merged cross-tenant aggregate metrics (counters
    /// and histogram buckets summed; no tenant label).
    pub fn metrics_aggregate(&mut self) -> Result<String> {
        self.metrics_for("")
    }

    /// Fetch up to `limit` most recent slow-query traces for this
    /// tenant, newest first. Sampled slow requests carry a full span
    /// tree (per-stage latency breakdown, [`raven_obs::Trace::render`]);
    /// unsampled ones are captured spanless.
    pub fn slow_queries(&mut self, limit: u32) -> Result<Vec<raven_obs::Trace>> {
        let tenant = self.tenant.clone();
        self.slow_queries_for(&tenant, limit)
    }

    /// Fetch slow-query traces for another tenant — or, with `tenant`
    /// empty, every tenant's interleaved in capture order.
    pub fn slow_queries_for(&mut self, tenant: &str, limit: u32) -> Result<Vec<raven_obs::Trace>> {
        let request = Request::Traces {
            tenant: tenant.into(),
            limit,
        };
        match self.roundtrip(&request)? {
            Reply::Frame(Response::Traces { traces }) => Ok(traces),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the server to shut down; returns once it acknowledges.
    pub fn shutdown_server(&mut self) -> Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Reply::Frame(Response::ShutdownAck) => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

/// A pipelined connection: submit up to the server's per-connection
/// in-flight budget of queries without waiting, then receive replies as
/// they complete — in whatever order the server finishes them, matched
/// by request id.
///
/// ```no_run
/// use raven_server::PipelinedClient;
///
/// let mut client = PipelinedClient::connect("127.0.0.1:4741")?;
/// let a = client.submit("SELECT * FROM patients", None)?;
/// let b = client.submit("SELECT * FROM visits", None)?;
/// while client.in_flight() > 0 {
///     let (id, reply) = client.recv()?;
///     let rows = reply?.table.num_rows();
///     println!("{} done: {rows} rows", if id == a { "patients" } else { "visits" });
/// }
/// # let _ = b;
/// # Ok::<(), raven_server::ServerError>(())
/// ```
pub struct PipelinedClient {
    conn: Connection,
    tenant: String,
}

impl PipelinedClient {
    /// Connect a pipelined connection (default tenant).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<PipelinedClient> {
        Ok(PipelinedClient {
            conn: Connection::connect(addr)?,
            tenant: crate::tenant::DEFAULT_TENANT.to_string(),
        })
    }

    /// Rebind this connection to `tenant`.
    pub fn for_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Requests submitted whose replies have not yet been received.
    pub fn in_flight(&self) -> usize {
        self.conn.outstanding
    }

    /// Bound how long any single [`PipelinedClient::recv`] may block
    /// (`None` = wait forever).
    pub fn set_reply_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.conn.set_reply_timeout(timeout)
    }

    /// Submit `sql` without waiting for the reply; returns the request
    /// id its reply will carry.
    pub fn submit(&mut self, sql: &str, deadline: Option<Duration>) -> Result<u32> {
        let request = Request::Query {
            sql: sql.into(),
            tenant: self.tenant.clone(),
            deadline,
        };
        Ok(self.conn.send(&request))
    }

    /// Submit a parameterized template without waiting for the reply.
    pub fn submit_params(
        &mut self,
        template: &str,
        params: Vec<raven_data::Value>,
        deadline: Option<Duration>,
    ) -> Result<u32> {
        let request = Request::QueryParams {
            template: template.into(),
            tenant: self.tenant.clone(),
            params,
            deadline,
        };
        Ok(self.conn.send(&request))
    }

    /// Write every buffered submit to the socket. [`Self::recv`] calls
    /// this automatically; call it directly to push requests out while
    /// deliberately not reading replies yet.
    pub fn flush(&mut self) -> Result<()> {
        self.conn.flush()
    }

    /// Block until the next request finishes, in server completion
    /// order. The outer `Err` is a transport or framing failure (the
    /// connection is no longer usable); the inner per-request `Result`
    /// carries the same typed [`ServerError`]s the serial client
    /// returns.
    pub fn recv(&mut self) -> Result<(u32, Result<ClientQueryReply>)> {
        let (id, reply) = self.conn.recv()?;
        Ok((id, reply.and_then(Reply::rows)))
    }

    /// Receive every outstanding reply, returned sorted by request id.
    pub fn drain(&mut self) -> Result<Vec<(u32, Result<ClientQueryReply>)>> {
        let mut replies = Vec::with_capacity(self.in_flight());
        while self.in_flight() > 0 {
            replies.push(self.recv()?);
        }
        replies.sort_by_key(|(id, _)| *id);
        Ok(replies)
    }
}

/// Reassemble a chunk stream and validate it against the trailer.
fn assemble(
    parts: Vec<Table>,
    cache_hit: bool,
    total_micros: u64,
    total_rows: u64,
) -> Result<ClientQueryReply> {
    let chunks = parts.len();
    if chunks == 0 {
        return Err(ServerError::Protocol(
            "RowsEnd without any RowsChunk (a streamed result always has \
             at least the schema-bearing first chunk)"
                .into(),
        ));
    }
    let mut parts = parts;
    let table = if chunks == 1 {
        // Single-chunk results (the common case for point queries) skip
        // the concat copy entirely.
        parts.pop().unwrap()
    } else {
        Table::concat(&parts)
            .map_err(|e| ServerError::Protocol(format!("chunk reassembly failed: {e}")))?
    };
    if table.num_rows() as u64 != total_rows {
        return Err(ServerError::Protocol(format!(
            "chunked result carried {} rows but the trailer promised {total_rows}",
            table.num_rows()
        )));
    }
    Ok(ClientQueryReply {
        table,
        cache_hit,
        server_time: Duration::from_micros(total_micros),
        chunks,
    })
}

/// A freshly decoded response table has exactly one owner, so this is a
/// move, not a copy; the fallback clone only runs if that ever changes.
/// Streamed results never hit the fallback: each chunk decodes into its
/// own table and [`Table::concat`] builds a fresh single-owner result,
/// which is what makes shared (result-cache) tables safe to stream.
fn unwrap_table(table: std::sync::Arc<Table>) -> Table {
    std::sync::Arc::try_unwrap(table).unwrap_or_else(|shared| (*shared).clone())
}

fn unexpected(reply: &impl Debug) -> ServerError {
    ServerError::Protocol(format!("unexpected response frame: {reply:?}"))
}
