//! The framed-TCP network front end: a readiness-polling **reactor**
//! over a shared [`ServerState`].
//!
//! One reactor thread owns the listener and every connection socket
//! (non-blocking, registered with a level-triggered [`polling::Poller`])
//! and does all socket I/O: accepting, buffering partial frames, parsing
//! complete ones, and flushing reply queues. Requests are executed by a
//! small pool of **executor threads**; finished frames flow back to the
//! reactor over a completion channel plus a poller wake-up. Connection
//! count is therefore decoupled from thread count: a thousand idle or
//! slow-trickling (slowloris) connections cost a thousand fd
//! registrations, not a thousand threads.
//!
//! # Pipelining and backpressure
//!
//! A peer may keep up to [`NetConfig::max_inflight_per_conn`] requests
//! in flight per connection; replies come back in completion order
//! (out-of-order), matched by the request id in the frame header.
//!
//! Three rings bound the work in the system:
//!
//! 1. **connections** — [`NetConfig::max_connections`]; arrivals beyond
//!    it get a typed `Overloaded` frame and a drain-then-close;
//! 2. **per-connection in-flight budget** — the reactor stops *parsing*
//!    (and reading) a connection that has `max_inflight_per_conn`
//!    requests executing, so a pipelining peer cannot queue unbounded
//!    work; bytes it already sent simply wait in the kernel socket
//!    buffer;
//! 3. **execution** — the per-tenant quota and the global admission
//!    semaphore in [`crate::admission`], exactly as before: every
//!    pipelined request still passes both rings.
//!
//! Replies are backpressured too: each connection's write queue has a
//! byte watermark ([`NetConfig::max_conn_backlog_bytes`]). Query
//! results stream as bounded [`Response::RowsChunk`] frames, and the
//! executor pauses between chunks while the peer's queue is over the
//! watermark — honoring the request deadline and connection teardown
//! (via [`CancelToken`]) between chunks, so a reader that stalls
//! mid-result can neither OOM the server nor pin an executor forever.
//!
//! Shutdown is cooperative: [`RavenServer::signal_shutdown`] (or a
//! [`Request::Shutdown`] frame) raises a flag and wakes the poller; the
//! reactor stops accepting, flushes what the executors already
//! finished, and tears everything down within a bounded grace period.

use crate::proto::{self, ProtoError, Request, Response, WireStats};
use crate::state::{ServerQueryResult, ServerState};
use crate::stats::StatsSnapshot;
use crate::tenant::Statement;
use polling::{Event, Poller};
use raven_relational::CancelToken;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Network front-end knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Executor threads — the maximum requests *executing* concurrently.
    /// Connections are not bound by this: the reactor multiplexes any
    /// number of sockets over the pool.
    pub workers: usize,
    /// Open connections before new arrivals are turned away with an
    /// `Overloaded` frame (0 = unlimited).
    pub max_connections: usize,
    /// Reactor wake-up cadence for timer work (drain deadlines,
    /// shutdown polls) and idle-executor shutdown checks.
    pub poll_interval: Duration,
    /// Pipelined requests a connection may have executing at once; the
    /// reactor stops parsing beyond this. Minimum 1.
    pub max_inflight_per_conn: usize,
    /// Rows per streamed [`Response::RowsChunk`] frame. Minimum 1.
    pub chunk_rows: usize,
    /// Write-queue byte watermark per connection: result streaming
    /// pauses (deadline- and cancellation-aware) while a peer's unsent
    /// replies exceed this.
    pub max_conn_backlog_bytes: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            max_connections: 256,
            poll_interval: Duration::from_millis(50),
            max_inflight_per_conn: 16,
            chunk_rows: 1024,
            max_conn_backlog_bytes: 4 * 1024 * 1024,
        }
    }
}

/// How long a connection that is closing (rejected, protocol error, or
/// server shutdown) may take to flush + drain before it is torn down.
const DRAIN_DEADLINE: Duration = Duration::from_millis(250);

/// How long shutdown waits for in-flight requests to finish and their
/// replies to flush before tearing the remaining connections down.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Poller key of the listener; connections get keys starting above it.
const KEY_LISTENER: usize = 0;
const KEY_FIRST_CONN: usize = 1;

struct Shared {
    state: Arc<ServerState>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    poller: Arc<Poller>,
    chunk_rows: usize,
    max_conn_backlog_bytes: usize,
}

impl Shared {
    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.poller.notify();
    }
}

/// The slice of per-connection state the executors share with the
/// reactor: enough to observe teardown and write-queue pressure from
/// another thread, nothing more.
struct ConnShared {
    /// Cancelled by the reactor when the connection dies (or the server
    /// shuts down); streaming executors abort between chunks.
    cancel: CancelToken,
    /// Bytes sitting in (or en route to) this connection's write queue.
    queued_bytes: AtomicUsize,
    /// Signalled by the reactor after flushing lowered `queued_bytes`.
    capacity: Mutex<()>,
    capacity_cv: Condvar,
}

impl ConnShared {
    fn new() -> Arc<ConnShared> {
        Arc::new(ConnShared {
            cancel: CancelToken::new(),
            queued_bytes: AtomicUsize::new(0),
            capacity: Mutex::new(()),
            capacity_cv: Condvar::new(),
        })
    }

    fn notify_capacity(&self) {
        let _guard = self
            .capacity
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.capacity_cv.notify_all();
    }
}

/// One request dispatched to the executor pool.
struct Job {
    reply: ReplyTo,
    request: Request,
    /// When the reactor parsed the frame — deadlines count from here.
    started: Instant,
}

/// Where a job's frames go: kept apart from the request so an executor
/// can consume the request while still addressing its completions.
struct ReplyTo {
    conn_key: usize,
    request_id: u32,
    conn: Arc<ConnShared>,
}

/// One finished frame (or stream abort) flowing back to the reactor.
struct Completion {
    conn_key: usize,
    request_id: u32,
    /// The wire bytes to enqueue; `None` when a stream aborted after the
    /// connection died and there is nothing left worth writing.
    frame: Option<Vec<u8>>,
    /// Terminal for its request: frees the in-flight budget slot.
    end: bool,
}

enum ConnState {
    /// Serving normally.
    Open,
    /// No more requests will be read; flush the write queue, then
    /// half-close and drain whatever the peer already pipelined so the
    /// final frame is not lost to a RST.
    Closing,
    /// Write side is shut; discarding peer bytes until EOF or deadline.
    Draining { until: Instant },
}

struct Conn {
    stream: TcpStream,
    key: usize,
    shared: Arc<ConnShared>,
    state: ConnState,
    /// Marked on the shutdown path / close path so in-flight replies
    /// are still awaited before the flush-and-drain starts.
    closing_when_idle: bool,
    /// A turned-away arrival: never counted against the serving cap.
    rejected: bool,
    read_buf: Vec<u8>,
    write_queue: VecDeque<Vec<u8>>,
    /// Bytes of `write_queue.front()` already written.
    write_offset: usize,
    /// Request ids currently executing.
    inflight: HashSet<u32>,
    /// Parsing stopped because the in-flight budget is full.
    parse_blocked: bool,
    /// Interest currently registered with the poller.
    interest: (bool, bool),
}

impl Conn {
    fn enqueue(&mut self, frame: Vec<u8>) {
        // Coalesce small frames into the tail buffer so one write
        // syscall carries many replies; a pipelined window's worth of
        // point-query results then flushes in a single write. Appending
        // to the front buffer mid-write is fine: `write_offset` only
        // tracks consumption of bytes already there.
        const COALESCE_CAP: usize = 64 * 1024;
        if let Some(tail) = self.write_queue.back_mut() {
            if tail.len() + frame.len() <= COALESCE_CAP {
                tail.extend_from_slice(&frame);
                return;
            }
        }
        self.write_queue.push_back(frame);
    }

    fn queue_empty(&self) -> bool {
        self.write_queue.is_empty()
    }
}

/// A running TCP server over one shared [`ServerState`].
///
/// Dropping the handle signals shutdown and joins every thread; use
/// [`RavenServer::shutdown`] for an explicit, observable join.
pub struct RavenServer {
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl RavenServer {
    /// Bind a listener and start the reactor + executor pool.
    pub fn bind(state: Arc<ServerState>, config: NetConfig) -> io::Result<RavenServer> {
        let listener =
            TcpListener::bind(
                config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "empty bind addr")
                })?,
            )?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Arc::new(Poller::new()?);
        poller.add(listener.as_raw_fd(), KEY_LISTENER, true, false)?;
        let shared = Arc::new(Shared {
            state,
            shutdown: AtomicBool::new(false),
            addr,
            poller: poller.clone(),
            chunk_rows: config.chunk_rows.max(1),
            max_conn_backlog_bytes: config.max_conn_backlog_bytes.max(1),
        });
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let poll_interval = config.poll_interval.max(Duration::from_millis(1));
        let executors = (0..config.workers.max(1))
            .map(|i| {
                let job_rx = job_rx.clone();
                let done_tx = done_tx.clone();
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("raven-net-exec-{i}"))
                    .spawn(move || executor_loop(job_rx, done_tx, shared, poll_interval))
                    .expect("spawn net executor")
            })
            .collect();
        let reactor = {
            let shared = shared.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name("raven-net-reactor".into())
                .spawn(move || {
                    Reactor {
                        listener,
                        shared,
                        conns: HashMap::new(),
                        next_key: KEY_FIRST_CONN,
                        job_tx,
                        done_rx,
                        max_connections: config.max_connections,
                        max_inflight: config.max_inflight_per_conn.max(1),
                        poll_interval,
                        accepting: true,
                        shutdown_at: None,
                    }
                    .run()
                })
                .expect("spawn net reactor")
        };
        Ok(RavenServer {
            shared,
            reactor: Some(reactor),
            executors,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared serving state behind this listener.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.shared.state
    }

    /// Ask every thread to stop without blocking on the join.
    pub fn signal_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Signal shutdown and join the reactor and all executors.
    pub fn shutdown(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        self.shared.request_shutdown();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for RavenServer {
    fn drop(&mut self) {
        self.join_all();
    }
}

// ---------------------------------------------------------------------
// The reactor.

struct Reactor {
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: HashMap<usize, Conn>,
    next_key: usize,
    job_tx: mpsc::Sender<Job>,
    done_rx: mpsc::Receiver<Completion>,
    max_connections: usize,
    max_inflight: usize,
    poll_interval: Duration,
    accepting: bool,
    /// Set when the shutdown flag was first observed; bounds the drain.
    shutdown_at: Option<Instant>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let _ = self
                .shared
                .poller
                .wait(&mut events, Some(self.poll_interval));
            // Completions first: they free in-flight budget and fill
            // write queues, both of which the event handling below and
            // the interest sync want to see.
            self.drain_completions();
            let batch: Vec<Event> = std::mem::take(&mut events);
            for ev in batch {
                if ev.key == KEY_LISTENER {
                    if ev.readable {
                        self.accept_ready();
                    }
                    continue;
                }
                if ev.writable {
                    self.pump_write(ev.key);
                }
                if ev.readable {
                    self.pump_read(ev.key);
                }
            }
            self.expire_draining();
            if self.observe_shutdown() {
                break;
            }
            self.sync_all_interest();
        }
        // Tear down whatever is left, then let the executors drain: the
        // job channel disconnects when `job_tx` drops with `self`.
        let keys: Vec<usize> = self.conns.keys().copied().collect();
        for key in keys {
            self.teardown(key);
        }
    }

    /// Progress the shutdown drain; true once everything is done (or
    /// the grace expired).
    fn observe_shutdown(&mut self) -> bool {
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let started = *self.shutdown_at.get_or_insert_with(Instant::now);
        if self.accepting {
            self.accepting = false;
            let _ = self.shared.poller.delete(self.listener.as_raw_fd());
        }
        // Stop reading everywhere; finish in-flight work, flush, close.
        let keys: Vec<usize> = self.conns.keys().copied().collect();
        for key in keys {
            self.begin_close(key);
        }
        self.conns.is_empty() || started.elapsed() >= SHUTDOWN_GRACE
    }

    /// Stop reading requests from `key`: once its in-flight requests
    /// complete and its write queue flushes, half-close and drain.
    fn begin_close(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if !matches!(conn.state, ConnState::Open) {
            return;
        }
        conn.closing_when_idle = true;
        self.maybe_finish_close(key);
    }

    /// If a closing connection has no in-flight work left and nothing
    /// buffered to write, half-close it and start the drain clock.
    fn maybe_finish_close(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if !conn.closing_when_idle || matches!(conn.state, ConnState::Draining { .. }) {
            return;
        }
        if conn.inflight.is_empty() && conn.queue_empty() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            conn.state = ConnState::Draining {
                until: Instant::now() + DRAIN_DEADLINE,
            };
        } else {
            conn.state = ConnState::Closing;
        }
    }

    fn expire_draining(&mut self) {
        let now = Instant::now();
        let expired: Vec<usize> = self
            .conns
            .iter()
            .filter_map(|(&key, conn)| match conn.state {
                ConnState::Draining { until } if now >= until => Some(key),
                _ => None,
            })
            .collect();
        for key in expired {
            self.teardown(key);
        }
    }

    fn serving_count(&self) -> usize {
        self.conns.values().filter(|c| !c.rejected).count()
    }

    fn accept_ready(&mut self) {
        while self.accepting {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                continue; // tear-off arrivals during shutdown: just drop
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let over_cap =
                self.max_connections != 0 && self.serving_count() >= self.max_connections;
            let key = self.next_key;
            self.next_key += 1;
            let mut conn = Conn {
                stream,
                key,
                shared: ConnShared::new(),
                state: ConnState::Open,
                closing_when_idle: false,
                rejected: over_cap,
                read_buf: Vec::new(),
                write_queue: VecDeque::new(),
                write_offset: 0,
                inflight: HashSet::new(),
                parse_blocked: false,
                interest: (false, false),
            };
            if over_cap {
                // Connection-level backpressure: answer with a typed
                // frame instead of letting the socket queue silently.
                // No request was read, so there is no id to echo: id 0.
                let frame = Response::Error {
                    code: proto::ErrorCode::Overloaded,
                    message: format!("server at its connection limit ({})", self.max_connections),
                }
                .encode();
                conn.enqueue(frame);
                conn.closing_when_idle = true;
                conn.state = ConnState::Closing;
            }
            if self
                .shared
                .poller
                .add(conn.stream.as_raw_fd(), key, true, true)
                .is_err()
            {
                continue; // fd pressure: drop the socket
            }
            conn.interest = (true, true);
            self.conns.insert(key, conn);
        }
    }

    fn drain_completions(&mut self) {
        // Enqueue every finished frame first, then pump each touched
        // connection once: completions from a pipelined window coalesce
        // into large writes instead of one syscall per frame.
        let mut touched: Vec<usize> = Vec::new();
        while let Ok(done) = self.done_rx.try_recv() {
            let Some(conn) = self.conns.get_mut(&done.conn_key) else {
                // The connection died while the request executed; the
                // executor already saw the cancel token (or will) and
                // its bytes have nowhere to go.
                continue;
            };
            if done.end {
                conn.inflight.remove(&done.request_id);
                conn.parse_blocked = false;
            }
            match done.frame {
                Some(frame) => conn.enqueue(frame),
                None => {
                    // An aborted stream enqueued nothing; the counter
                    // may still hold bytes never handed over. Safe to
                    // zero: the connection is torn down or about to be.
                }
            }
            if !touched.contains(&done.conn_key) {
                touched.push(done.conn_key);
            }
        }
        for key in touched {
            // Budget freed: requests the peer already pipelined may be
            // parseable now, and a closing connection may have just
            // gone idle.
            self.pump_write(key);
            self.parse_frames(key);
            // Parsing may have fast-pathed replies straight onto the
            // write queue; flush them this cycle, not the next.
            self.pump_write(key);
            self.maybe_finish_close(key);
        }
    }

    fn pump_read(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        match conn.state {
            ConnState::Draining { .. } => {
                // Discard until EOF so the final reply frame survives
                // (closing with unread bytes risks an RST).
                let mut sink = [0u8; 4096];
                loop {
                    match conn.stream.read(&mut sink) {
                        Ok(0) => {
                            self.teardown(key);
                            return;
                        }
                        Ok(_) => continue,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            self.teardown(key);
                            return;
                        }
                    }
                }
            }
            ConnState::Closing => return, // reads wait for the flush
            ConnState::Open => {}
        }
        if conn.parse_blocked {
            return; // budget full: leave the bytes in the kernel buffer
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    self.teardown(key);
                    return;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&buf[..n]);
                    // Between frames a peer can only make us buffer one
                    // frame's worth + a read; parse before reading more.
                    if conn.read_buf.len() >= proto::MAX_FRAME_LEN as usize {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.teardown(key);
                    return;
                }
            }
        }
        self.parse_frames(key);
        // Fast-pathed replies (if any) are already queued; write them
        // back in the same reactor cycle that read the requests.
        self.pump_write(key);
    }

    /// Parse every complete frame in the read buffer, dispatching jobs,
    /// until the in-flight budget stops us or the bytes run out.
    fn parse_frames(&mut self, key: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(&key) else {
                return;
            };
            if !matches!(conn.state, ConnState::Open) {
                conn.read_buf.clear();
                return;
            }
            if conn.read_buf.len() < 4 {
                return;
            }
            let len = u32::from_le_bytes(conn.read_buf[..4].try_into().unwrap());
            if !(proto::HEADER_LEN as u32..=proto::MAX_FRAME_LEN).contains(&len) {
                self.protocol_error(key, &ProtoError::BadLength(len));
                return;
            }
            let total = 4 + len as usize;
            if conn.read_buf.len() < total {
                return; // partial frame: wait for more bytes
            }
            // Budget gate: a full window leaves the frame in the buffer.
            if conn.inflight.len() >= self.max_inflight {
                conn.parse_blocked = true;
                return;
            }
            let body: Vec<u8> = conn.read_buf[4..total].to_vec();
            conn.read_buf.drain(..total);
            match Request::decode_framed(&body) {
                Ok((request, _, request_id)) => {
                    if conn.inflight.contains(&request_id) {
                        // Duplicate id while in flight: typed error for
                        // that id; framing is intact, keep serving.
                        let frame = Response::Error {
                            code: proto::ErrorCode::Protocol,
                            message: format!(
                                "request id {request_id} is already in flight on this connection"
                            ),
                        }
                        .encode_with_id(request_id);
                        conn.shared
                            .queued_bytes
                            .fetch_add(frame.len(), Ordering::SeqCst);
                        conn.enqueue(frame);
                        continue;
                    }
                    if self.shared.shutdown.load(Ordering::SeqCst) {
                        let frame = Response::from_error(&crate::ServerError::ShuttingDown)
                            .encode_with_id(request_id);
                        conn.shared
                            .queued_bytes
                            .fetch_add(frame.len(), Ordering::SeqCst);
                        conn.enqueue(frame);
                        self.begin_close(key);
                        return;
                    }
                    // Inline fast path: a warm cached query or a
                    // measured-cheap point score is answered on the
                    // reactor thread itself — no executor handoff, no
                    // completion channel, no wakeup; the reply frames
                    // go straight onto the write queue. Anything cold,
                    // contended, expensive, or oversized declines and
                    // takes the pooled path below.
                    let room = self
                        .shared
                        .max_conn_backlog_bytes
                        .saturating_sub(conn.shared.queued_bytes.load(Ordering::SeqCst));
                    if let Some(frames) = fast_path_frames(&self.shared, &request, request_id, room)
                    {
                        for frame in frames {
                            conn.shared
                                .queued_bytes
                                .fetch_add(frame.len(), Ordering::SeqCst);
                            conn.enqueue(frame);
                        }
                        continue;
                    }
                    conn.inflight.insert(request_id);
                    let job = Job {
                        reply: ReplyTo {
                            conn_key: key,
                            request_id,
                            conn: conn.shared.clone(),
                        },
                        request,
                        started: Instant::now(),
                    };
                    if self.job_tx.send(job).is_err() {
                        return; // executors gone: shutdown under way
                    }
                }
                Err(e) => {
                    self.protocol_error(key, &e);
                    return;
                }
            }
        }
    }

    /// Answer protocol confusion once (id 0: the frame's own id cannot
    /// be trusted), then close — framing can no longer be trusted.
    fn protocol_error(&mut self, key: usize, e: &ProtoError) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let frame = Response::Error {
            code: proto::ErrorCode::Protocol,
            message: e.to_string(),
        }
        .encode();
        conn.shared
            .queued_bytes
            .fetch_add(frame.len(), Ordering::SeqCst);
        conn.enqueue(frame);
        conn.read_buf.clear();
        self.begin_close(key);
    }

    fn pump_write(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let mut flushed = 0usize;
        let mut dead = false;
        while let Some(front) = conn.write_queue.front() {
            match conn.stream.write(&front[conn.write_offset..]) {
                Ok(n) => {
                    conn.write_offset += n;
                    if conn.write_offset >= front.len() {
                        flushed += front.len();
                        conn.write_offset = 0;
                        conn.write_queue.pop_front();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if flushed > 0 {
            conn.shared.queued_bytes.fetch_sub(
                flushed.min(conn.shared.queued_bytes.load(Ordering::SeqCst)),
                Ordering::SeqCst,
            );
            conn.shared.notify_capacity();
        }
        if dead {
            self.teardown(key);
            return;
        }
        self.maybe_finish_close(key);
    }

    /// Recompute and apply poller interest for every connection: read
    /// while open and not budget-blocked (and while draining, to see
    /// EOF); write while bytes are queued.
    fn sync_all_interest(&mut self) {
        for conn in self.conns.values_mut() {
            let read = match conn.state {
                ConnState::Open => !conn.parse_blocked,
                ConnState::Closing => false,
                ConnState::Draining { .. } => true,
            };
            let write = !conn.queue_empty();
            if conn.interest != (read, write)
                && self
                    .shared
                    .poller
                    .modify(conn.stream.as_raw_fd(), conn.key, read, write)
                    .is_ok()
            {
                conn.interest = (read, write);
            }
        }
    }

    fn teardown(&mut self, key: usize) {
        if let Some(conn) = self.conns.remove(&key) {
            // Unblock any executor mid-stream on this connection.
            conn.shared.cancel.cancel();
            conn.shared.notify_capacity();
            let _ = self.shared.poller.delete(conn.stream.as_raw_fd());
        }
    }
}

// ---------------------------------------------------------------------
// The executor pool.

fn executor_loop(
    job_rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    done_tx: mpsc::Sender<Completion>,
    shared: Arc<Shared>,
    poll_interval: Duration,
) {
    loop {
        // Hold the lock only for the dequeue, never while serving.
        let next = {
            let rx = job_rx
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            rx.recv_timeout(poll_interval)
        };
        match next {
            Ok(job) => run_job(job, &done_tx, &shared),
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Hand a finished frame back to the reactor and wake it.
fn complete(
    done_tx: &mpsc::Sender<Completion>,
    shared: &Shared,
    to: &ReplyTo,
    frame: Option<Vec<u8>>,
    end: bool,
) {
    if let Some(f) = &frame {
        to.conn.queued_bytes.fetch_add(f.len(), Ordering::SeqCst);
    }
    let _ = done_tx.send(Completion {
        conn_key: to.conn_key,
        request_id: to.request_id,
        frame,
        end,
    });
    let _ = shared.poller.notify();
}

/// The reactor's inline fast path: answer a query **entirely from warm
/// caches**, or a point score **of a measured-cheap model**, on the
/// event-loop thread, returning the complete reply frames (bounded
/// `RowsChunk`s + `RowsEnd`, or one `Score`), or `None` to dispatch to
/// the executor pool. The probes ([`crate::Tenant::try_serve_cached`],
/// [`crate::Tenant::try_score_inline`]) never block, never execute a
/// plan, never wait on the micro-batcher and never create a tenant;
/// `room` is the connection's remaining backlog budget, so an inline
/// reply can never overshoot the watermark the streaming path's
/// backpressure gate enforces.
fn fast_path_frames(
    shared: &Shared,
    request: &Request,
    request_id: u32,
    room: usize,
) -> Option<Vec<Vec<u8>>> {
    let result = match request {
        Request::Query { .. } | Request::QueryParams { .. } => {
            let (tenant, stmt, deadline) = statement(request)?;
            shared
                .state
                .try_tenant(tenant)?
                .try_serve_cached(stmt, deadline, room)?
        }
        Request::Score { model, tenant, row } => {
            if room < proto::SCORE_FRAME_LEN {
                return None;
            }
            let outcome = shared
                .state
                .try_tenant(tenant)?
                .try_score_inline(model, row)?;
            return Some(vec![score_response(outcome).encode_with_id(request_id)]);
        }
        _ => return None,
    };
    let table = result.table;
    let total_rows = table.num_rows();
    let mut frames = Vec::new();
    let mut offset = 0usize;
    loop {
        let len = shared.chunk_rows.min(total_rows - offset);
        match Response::rows_chunk_frame(proto::PROTOCOL_VERSION, request_id, &table, offset, len) {
            Ok(frame) => frames.push(frame),
            // Rows too wide to ship at any chunking: the query was
            // served and counted; only the reply can't fit. Same typed
            // error the streaming path sends.
            Err(_) => return Some(vec![oversize_error().encode_with_id(request_id)]),
        }
        offset += len;
        if offset >= total_rows {
            break;
        }
    }
    frames.push(
        Response::RowsEnd {
            cache_hit: result.cache_hit,
            total_micros: result.total_time.as_micros() as u64,
            total_rows: total_rows as u64,
        }
        .encode_with_id(request_id),
    );
    Some(frames)
}

/// The tenant, statement and deadline a `Query` or `QueryParams` frame
/// carries; `None` for every other kind.
fn statement(request: &Request) -> Option<(&str, Statement<'_>, Option<Duration>)> {
    match request {
        Request::Query {
            sql,
            tenant,
            deadline,
        } => Some((tenant, Statement::Sql(sql), *deadline)),
        Request::QueryParams {
            template,
            tenant,
            params,
            deadline,
        } => Some((
            tenant,
            Statement::Template {
                text: template,
                params,
            },
            *deadline,
        )),
        _ => None,
    }
}

/// Serve one pooled request: queries stream their result
/// ([`stream_result`]); every other kind answers with one frame.
fn run_job(job: Job, done_tx: &mpsc::Sender<Completion>, shared: &Shared) {
    let Job {
        reply,
        request,
        started,
    } = job;
    let state = &shared.state;
    let response = match request {
        Request::Query { .. } | Request::QueryParams { .. } => {
            let (tenant, stmt, deadline) = statement(&request).expect("a query frame");
            let result = state.tenant(tenant).and_then(|t| t.serve(stmt, deadline));
            return stream_result(&reply, result, deadline, started, done_tx, shared);
        }
        Request::Prepare { sql, tenant } => {
            match state.tenant(&tenant).and_then(|t| t.prepare(&sql)) {
                Ok((prepared, cache_hit)) => Response::Prepared {
                    cache_hit,
                    prepare_micros: prepared.prepare_time.as_micros() as u64,
                },
                Err(e) => Response::from_error(&e),
            }
        }
        Request::Score { model, tenant, row } => score_response(
            state
                .tenant(&tenant)
                .and_then(|t| t.score(&model, row, None)),
        ),
        // An empty tenant asks for the cross-tenant aggregate; a named
        // tenant gets its own counters — zeros if it does not exist yet
        // (observing a tenant must not create one).
        Request::Stats { tenant } => {
            if tenant.is_empty() {
                Response::Stats(wire_stats(&state.stats()))
            } else {
                match state.tenant_stats(&tenant) {
                    Some(snap) => Response::Stats(wire_stats(&snap)),
                    None => Response::Stats(WireStats::default()),
                }
            }
        }
        // Same scoping rule as Stats: empty tenant = aggregate, and
        // observing a tenant must not create one.
        Request::Metrics { tenant } => Response::Metrics {
            text: state.metrics_text(&tenant).unwrap_or_default(),
        },
        Request::Traces { tenant, limit } => {
            let traces = state
                .slow_queries(&tenant, limit as usize)
                .unwrap_or_default();
            Response::Traces {
                traces: traces.iter().map(|t| (**t).clone()).collect(),
            }
        }
        Request::Shutdown => {
            let frame = Response::ShutdownAck.encode_with_id(reply.request_id);
            complete(done_tx, shared, &reply, Some(frame), true);
            shared.request_shutdown();
            return;
        }
    };
    let mut frame = response.encode_with_id(reply.request_id);
    if frame.len() - 4 > proto::MAX_FRAME_LEN as usize {
        // A reply too large for one frame becomes a typed error the
        // client can read, not a length it must reject.
        frame = oversize_error().encode_with_id(reply.request_id);
    }
    complete(done_tx, shared, &reply, Some(frame), true);
}

/// The reply to a `Score` request — one function for the pooled and the
/// inline path, so their frames cannot differ.
fn score_response(outcome: crate::Result<f64>) -> Response {
    match outcome {
        Ok(value) => Response::Score { value },
        Err(e) => Response::from_error(&e),
    }
}

fn oversize_error() -> Response {
    Response::Error {
        code: proto::ErrorCode::Execution,
        message: format!(
            "result exceeds the {} byte frame cap; narrow the query",
            proto::MAX_FRAME_LEN
        ),
    }
}

enum StreamGate {
    Proceed,
    ConnDead,
    DeadlineExpired,
    ShuttingDown,
}

/// Wait until the connection's write queue is under the watermark —
/// checking teardown, the request deadline, and server shutdown while
/// waiting, so a stalled reader can't pin this executor.
fn stream_gate(conn: &ConnShared, stream_cancel: &CancelToken, shared: &Shared) -> StreamGate {
    loop {
        if conn.cancel.is_cancelled() {
            return StreamGate::ConnDead;
        }
        if stream_cancel.is_cancelled() {
            return StreamGate::DeadlineExpired;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Shutdown mustn't wait on a slow reader; cut the stream
            // with a typed error so the drain stays bounded.
            return StreamGate::ShuttingDown;
        }
        if conn.queued_bytes.load(Ordering::SeqCst) <= shared.max_conn_backlog_bytes {
            return StreamGate::Proceed;
        }
        let guard = conn
            .capacity
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Timed wait: a missed notify (or a torn-down connection) must
        // not park this executor forever.
        let _ = conn
            .capacity_cv
            .wait_timeout(guard, Duration::from_millis(10));
    }
}

/// Stream a served query's result: one or more bounded `RowsChunk`
/// frames (the first carries the schema even for an empty result),
/// terminated by `RowsEnd` — or by a typed error frame if serving
/// failed, or the deadline expires or the server shuts down mid-stream.
fn stream_result(
    to: &ReplyTo,
    result: crate::Result<ServerQueryResult>,
    deadline: Option<Duration>,
    started: Instant,
    done_tx: &mpsc::Sender<Completion>,
    shared: &Shared,
) {
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            let frame = Response::from_error(&e).encode_with_id(to.request_id);
            complete(done_tx, shared, to, Some(frame), true);
            return;
        }
    };
    // The same effective deadline the admission ring used keeps
    // governing the stream: expiry between chunks is a typed error.
    let stream_cancel = deadline
        .or(shared.state.config().admission.default_deadline)
        .map(|d| CancelToken::with_deadline(started + d))
        .unwrap_or_default();
    let table = result.table;
    let total_rows = table.num_rows();
    let total_micros = result.total_time.as_micros() as u64;
    let cache_hit = result.cache_hit;
    let mut offset = 0usize;
    loop {
        let len = shared.chunk_rows.min(total_rows - offset);
        match stream_gate(&to.conn, &stream_cancel, shared) {
            StreamGate::Proceed => {}
            StreamGate::ConnDead => {
                // Nowhere to write; free the budget slot and stop.
                complete(done_tx, shared, to, None, true);
                return;
            }
            StreamGate::DeadlineExpired => {
                let frame = Response::from_error(&crate::ServerError::DeadlineExceeded(format!(
                    "deadline expired mid-stream after {offset} of {total_rows} rows"
                )))
                .encode_with_id(to.request_id);
                complete(done_tx, shared, to, Some(frame), true);
                return;
            }
            StreamGate::ShuttingDown => {
                let frame = Response::from_error(&crate::ServerError::ShuttingDown)
                    .encode_with_id(to.request_id);
                complete(done_tx, shared, to, Some(frame), true);
                return;
            }
        }
        match Response::rows_chunk_frame(
            proto::PROTOCOL_VERSION,
            to.request_id,
            &table,
            offset,
            len,
        ) {
            Ok(frame) => complete(done_tx, shared, to, Some(frame), false),
            Err(_) => {
                // A single chunk overflowing the frame cap means rows
                // too wide to ship at any chunking.
                let frame = oversize_error().encode_with_id(to.request_id);
                complete(done_tx, shared, to, Some(frame), true);
                return;
            }
        }
        offset += len;
        if offset >= total_rows {
            break;
        }
    }
    let frame = Response::RowsEnd {
        cache_hit,
        total_micros,
        total_rows: total_rows as u64,
    }
    .encode_with_id(to.request_id);
    complete(done_tx, shared, to, Some(frame), true);
}

/// Flatten a [`StatsSnapshot`] into the wire-stable counter set.
pub fn wire_stats(snap: &StatsSnapshot) -> WireStats {
    WireStats {
        queries: snap.queries,
        errors: snap.errors,
        rows: snap.rows,
        plan_hits: snap.plan_cache.hits,
        plan_misses: snap.plan_cache.misses,
        preparations: snap.plan_cache.preparations,
        invalidations: snap.plan_cache.invalidations,
        normalized: snap.normalized,
        template_hits: snap.template_hits,
        result_hits: snap.result_cache.hits,
        result_misses: snap.result_cache.misses,
        result_invalidations: snap.result_cache.invalidations,
        batch_requests: snap.batcher.requests,
        batches: snap.batcher.batches,
        admitted: snap.admission.admitted,
        rejected_overloaded: snap.admission.rejected_overloaded,
        rejected_deadline: snap.admission.rejected_deadline,
        latency_p50_micros: snap.latency.p50.as_micros() as u64,
        latency_p95_micros: snap.latency.p95.as_micros() as u64,
        latency_p99_micros: snap.latency.p99.as_micros() as u64,
    }
}
