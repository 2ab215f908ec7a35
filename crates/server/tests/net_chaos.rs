//! Chaos and fault injection against the readiness-polling reactor:
//! mid-stream disconnects, slowloris partial frames, duplicate request
//! ids, garbage framing, stale protocol versions, and deadlines expiring
//! between chunks. After
//! every abuse the server must still accept new connections and serve
//! them — asserted over the wire, via the `Stats` frame — with no
//! leaked reactor registrations, executor threads, or in-flight budget.

use raven_data::{Column, DataType, Schema, Table};
use raven_datagen::{hospital, train};
use raven_server::net::wire_stats;
use raven_server::proto::{self, read_frame, write_frame, Request, Response};
use raven_server::{
    NetConfig, PipelinedClient, RavenClient, RavenServer, ServerConfig, ServerError, ServerState,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const HOSPITAL_SQL: &str = "\
    WITH data AS (\
      SELECT * FROM patient_info AS pi \
      JOIN blood_tests AS bt ON pi.id = bt.id \
      JOIN prenatal_tests AS pt ON bt.id = pt.id)\
    SELECT d.id, p.length_of_stay \
    FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
    WITH (length_of_stay FLOAT) AS p \
    WHERE d.pregnant = 1 AND p.length_of_stay > 6";

fn hospital_state(rows: usize) -> Arc<ServerState> {
    let state = Arc::new(ServerState::new(ServerConfig::for_tests()));
    let data = hospital::generate(rows, 42);
    data.register(state.catalog()).unwrap();
    let model = train::hospital_tree(&data, 6).unwrap();
    state.store_model("duration_of_stay", model).unwrap();
    state
}

fn spawn(state: Arc<ServerState>, config: NetConfig) -> RavenServer {
    RavenServer::bind(state, config).expect("bind ephemeral listener")
}

fn small_net(workers: usize) -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        max_connections: 32,
        poll_interval: Duration::from_millis(10),
        ..NetConfig::default()
    }
}

/// A wide table whose full scan encodes to tens of megabytes — enough
/// to overwhelm both kernel socket buffers when a reader stalls.
fn bulky_state(rows: usize) -> Arc<ServerState> {
    let state = Arc::new(ServerState::new(ServerConfig::for_tests()));
    let payload: String = "x".repeat(1024);
    let table = Table::try_new(
        Schema::from_pairs(&[("id", DataType::Int64), ("blob", DataType::Utf8)]).into_shared(),
        vec![
            Column::Int64((0..rows as i64).collect()),
            Column::Utf8(vec![payload; rows]),
        ],
    )
    .unwrap();
    state.catalog().register("bulk", table).unwrap();
    state
}

/// Clients that vanish mid-stream — after submitting, after the first
/// bytes of a streamed reply, with requests still executing — must not
/// leak anything: the same small executor pool keeps serving fresh
/// connections afterwards, and the wire-visible counters reconcile.
#[test]
fn mid_stream_disconnects_free_reactor_slots_and_budget() {
    const ROUNDS: usize = 10;

    // Two executors: a single leaked stream would halve the pool; two
    // leaks would deadlock this test.
    let server = spawn(hospital_state(500), small_net(2));
    let addr = server.local_addr();

    // Round 0 establishes the expected result and warms the caches.
    let expected = RavenClient::connect(addr)
        .unwrap()
        .query(HOSPITAL_SQL)
        .unwrap()
        .table;

    for round in 0..ROUNDS {
        let mut doomed = PipelinedClient::connect(addr).unwrap();
        for _ in 0..4 {
            doomed.submit(HOSPITAL_SQL, None).unwrap();
        }
        doomed.flush().unwrap(); // the submits must reach the wire
        if round % 2 == 0 {
            // Half the rounds read a partial reply first, so the
            // disconnect lands mid-stream rather than pre-stream.
            let (_, reply) = doomed.recv().unwrap();
            assert_eq!(reply.unwrap().table, expected);
        }
        drop(doomed); // vanish with work still in flight

        // The server keeps serving new connections after every abuse.
        let mut healthy = RavenClient::connect(addr).unwrap();
        assert_eq!(
            healthy.query(HOSPITAL_SQL).unwrap().table,
            expected,
            "round {round}: server degraded after a mid-stream disconnect"
        );
    }

    let stats = RavenClient::connect(addr).unwrap().stats().unwrap();
    // Every query the healthy clients saw is counted; the abandoned
    // requests either completed (their frames went nowhere) or were
    // cancelled — none may be double-counted or lost as phantom errors.
    assert!(stats.queries >= (1 + ROUNDS) as u64);
    assert_eq!(stats.admitted, stats.queries);
    server.shutdown();
}

/// Slowloris: connections that trickle partial frames hold no executor
/// hostage. With a single executor thread, eight stalled half-frames
/// must not delay a well-behaved client — the reactor just buffers the
/// partial bytes. When the stragglers eventually finish their frames,
/// they get correct replies; one that disconnects mid-frame is simply
/// forgotten.
#[test]
fn slowloris_partial_frames_do_not_starve_the_pool() {
    const LORIS: usize = 8;

    let server = spawn(hospital_state(400), small_net(1));
    let addr = server.local_addr();
    let expected = RavenClient::connect(addr)
        .unwrap()
        .query(HOSPITAL_SQL)
        .unwrap()
        .table;

    // Each slowloris sends only half its query frame, then stalls.
    let frame = Request::Query {
        sql: HOSPITAL_SQL.into(),
        tenant: "default".into(),
        deadline: None,
    }
    .encode_with_id(9);
    let mut stragglers: Vec<TcpStream> = (0..LORIS)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&frame[..frame.len() / 2]).unwrap();
            s.flush().unwrap();
            s
        })
        .collect();

    // The lone executor is idle: a clean client gets served promptly
    // even though eight connections are mid-frame.
    let mut healthy = RavenClient::connect(addr).unwrap();
    healthy
        .set_reply_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for _ in 0..3 {
        assert_eq!(healthy.query(HOSPITAL_SQL).unwrap().table, expected);
    }

    // One straggler dies mid-frame; the rest complete and are served.
    let deserter = stragglers.pop().unwrap();
    drop(deserter);
    for s in &mut stragglers {
        s.write_all(&frame[frame.len() / 2..]).unwrap();
        s.flush().unwrap();
    }
    for s in &mut stragglers {
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut parts = Vec::new();
        loop {
            let body = read_frame(s).unwrap();
            let (response, _, id) = Response::decode_framed(&body).unwrap();
            assert_eq!(id, 9, "reply must echo the slowloris request id");
            match response {
                Response::RowsChunk { table } => parts.push((*table).clone()),
                Response::RowsEnd { total_rows, .. } => {
                    let table = Table::concat(&parts).unwrap();
                    assert_eq!(table.num_rows() as u64, total_rows);
                    assert_eq!(table, expected);
                    break;
                }
                other => panic!("unexpected reply to completed slowloris: {other:?}"),
            }
        }
    }
    server.shutdown();
}

/// Framing abuse gets a typed error, never a hang or a crash: garbage
/// length prefixes and truncated frames answer `Protocol` and close;
/// a duplicate in-flight request id answers `Protocol` for that id
/// while the original request still completes on the same connection.
#[test]
fn garbage_truncation_and_duplicate_ids_answer_typed_errors() {
    let server = spawn(hospital_state(300), small_net(2));
    let addr = server.local_addr();
    let expected = RavenClient::connect(addr)
        .unwrap()
        .query(HOSPITAL_SQL)
        .unwrap()
        .table;

    // Oversized length prefix → typed Protocol error, then EOF.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&(proto::MAX_FRAME_LEN + 1).to_le_bytes())
        .unwrap();
    s.write_all(&[6u8, 0x02]).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let body = read_frame(&mut s).unwrap();
    match Response::decode_framed(&body).unwrap().0 {
        Response::Error { code, .. } => assert_eq!(code, raven_server::ErrorCode::Protocol),
        other => panic!("oversized frame must answer a typed error: {other:?}"),
    }
    assert!(
        read_frame(&mut s).is_err(),
        "framing can no longer be trusted: the server must close"
    );

    // A frame whose header is cut short (length kept honest) → typed
    // Protocol error, then close.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut wire = Request::Shutdown.encode_with_id(1);
    wire.truncate(wire.len() - 1);
    let cut = wire.len() as u32 - 4;
    wire[..4].copy_from_slice(&cut.to_le_bytes());
    s.write_all(&wire).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let body = read_frame(&mut s).unwrap();
    match Response::decode_framed(&body).unwrap().0 {
        Response::Error { code, .. } => assert_eq!(code, raven_server::ErrorCode::Protocol),
        other => panic!("truncated frame must answer a typed error: {other:?}"),
    }

    // Duplicate in-flight id: both frames written in one segment, so
    // the reactor parses the second while the first is still executing.
    // The duplicate answers Protocol carrying the id; the original
    // still completes; the connection survives. The query must be
    // result-cache *cold* here: a warm one is answered inline by the
    // reactor's fast path and never occupies an in-flight slot, making
    // the second frame a legitimate (sequential) reuse of the id.
    let cold_sql = format!("{HOSPITAL_SQL}.5");
    let query = Request::Query {
        sql: cold_sql.clone(),
        tenant: "default".into(),
        deadline: None,
    };
    let mut doubled = query.encode_with_id(7);
    doubled.extend_from_slice(&query.encode_with_id(7));
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&doubled).unwrap();
    s.flush().unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut saw_dup_error = false;
    let mut parts = Vec::new();
    loop {
        let body = read_frame(&mut s).unwrap();
        let (response, _, id) = Response::decode_framed(&body).unwrap();
        assert_eq!(id, 7);
        match response {
            Response::Error { code, message } => {
                assert_eq!(code, raven_server::ErrorCode::Protocol);
                assert!(
                    message.contains("already in flight"),
                    "duplicate-id error must say so: {message}"
                );
                saw_dup_error = true;
            }
            Response::RowsChunk { table } => parts.push((*table).clone()),
            Response::RowsEnd { total_rows, .. } => {
                let table = Table::concat(&parts).unwrap();
                assert_eq!(table.num_rows() as u64, total_rows);
                let oracle = RavenClient::connect(addr)
                    .unwrap()
                    .query(&cold_sql)
                    .unwrap()
                    .table;
                assert_eq!(table, oracle, "the original request must complete");
                break;
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert!(saw_dup_error, "the duplicate id must answer Protocol");

    // After all that abuse: fresh connections still served, counters
    // still reachable over the wire.
    let mut healthy = RavenClient::connect(addr).unwrap();
    assert_eq!(healthy.query(HOSPITAL_SQL).unwrap().table, expected);
    let stats = healthy.stats().unwrap();
    assert!(stats.queries >= 3);
    server.shutdown();
}

/// A peer speaking any protocol version but v6, or announcing a frame
/// shorter than the header, gets exactly one typed `Protocol` error
/// (v6 header, id 0) naming what was wrong, then the connection closes.
/// Nothing it sent reaches admission, execution or the batcher.
#[test]
fn stale_versions_and_short_frames_get_one_typed_error_then_close() {
    let state = hospital_state(100);
    let server = spawn(state.clone(), small_net(2));
    let addr = server.local_addr();
    let before = wire_stats(&state.stats());

    let one_error_then_close = |wire: &[u8], names: &str| {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(wire).unwrap();
        let body = read_frame(&mut s).unwrap();
        assert_eq!(body[0], proto::PROTOCOL_VERSION);
        match Response::decode_framed(&body).unwrap() {
            (Response::Error { code, message }, _, 0) => {
                assert_eq!(code, raven_server::ErrorCode::Protocol);
                assert!(message.contains(names), "{message}");
            }
            other => panic!("expected one Protocol error for id 0: {other:?}"),
        }
        assert!(read_frame(&mut s).is_err(), "the server must close");
    };
    let requests = [
        Request::Query {
            sql: HOSPITAL_SQL.into(),
            tenant: "default".into(),
            deadline: None,
        },
        Request::Score {
            model: "duration_of_stay".into(),
            tenant: "default".into(),
            row: vec![1.0; 4],
        },
    ];
    for version in [3u8, 4, 5, 7] {
        for request in &requests {
            let wire = request.encode_for_version(version, 9);
            one_error_then_close(&wire, &format!("version {version}"));
        }
    }
    for len in 1..proto::HEADER_LEN as u32 {
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&[proto::PROTOCOL_VERSION, 0x04, 0, 0, 0, 0]);
        one_error_then_close(&wire, &format!("bad frame length {len}"));
    }

    assert_eq!(wire_stats(&state.stats()), before);
    server.shutdown();
}

/// A deadline that expires between chunks — because the peer stopped
/// reading and the write-queue watermark paused the stream — must abort
/// the stream with a typed `DeadlineExceeded`, free the executor and
/// the in-flight budget slot, and leave both the connection and the
/// server fully usable.
#[test]
fn deadline_expiry_between_chunks_frees_the_stream() {
    // ~34 MiB of result against a 64 KiB watermark: the stream must
    // pause at the gate long before the kernel can absorb it, and sit
    // there when the deadline fires.
    let server = spawn(
        bulky_state(32_000),
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_connections: 8,
            poll_interval: Duration::from_millis(10),
            chunk_rows: 512,
            max_conn_backlog_bytes: 64 * 1024,
            ..NetConfig::default()
        },
    );
    let addr = server.local_addr();

    let mut client = PipelinedClient::connect(addr).unwrap();
    client
        .set_reply_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let id = client
        .submit("SELECT * FROM bulk", Some(Duration::from_millis(500)))
        .unwrap();
    client.flush().unwrap(); // start the stream before stalling
                             // Stall without reading until the deadline has long expired.
    std::thread::sleep(Duration::from_millis(1500));

    // Now drain: some chunks, then the typed mid-stream error.
    let (got, reply) = client.recv().unwrap();
    assert_eq!(got, id);
    match reply {
        Err(ServerError::DeadlineExceeded(msg)) => {
            assert!(
                msg.contains("mid-stream"),
                "the error must say the stream was cut: {msg}"
            );
        }
        Err(other) => panic!("expected DeadlineExceeded, got: {other}"),
        Ok(reply) => panic!(
            "a stalled reader with a 500ms deadline cannot receive all \
             {} rows",
            reply.table.num_rows()
        ),
    }

    // The budget slot is free: the same connection serves again (a
    // small slice this time), and so do fresh connections.
    let id2 = client
        .submit("SELECT id FROM bulk WHERE id < 10", None)
        .unwrap();
    let (got2, reply2) = client.recv().unwrap();
    assert_eq!(got2, id2);
    assert_eq!(reply2.unwrap().table.num_rows(), 10);

    let mut fresh = RavenClient::connect(addr).unwrap();
    assert_eq!(
        fresh
            .query("SELECT id FROM bulk WHERE id < 5")
            .unwrap()
            .table
            .num_rows(),
        5
    );
    let stats = fresh.stats().unwrap();
    assert_eq!(stats.admitted, stats.queries);
    server.shutdown();
}

/// Wire-level shutdown under chaos: request shutdown while streams are
/// mid-flight and slowloris connections hold partial frames — the join
/// must complete (bounded grace), not hang.
#[test]
fn shutdown_with_inflight_streams_and_partial_frames_joins() {
    let server = spawn(hospital_state(400), small_net(2));
    let addr = server.local_addr();

    // A couple of stalled partial frames…
    let frame = Request::Query {
        sql: HOSPITAL_SQL.into(),
        tenant: "default".into(),
        deadline: None,
    }
    .encode_with_id(3);
    let _loris: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&frame[..10]).unwrap();
            s
        })
        .collect();
    // …and a pipelined batch in flight, never read.
    let mut busy = PipelinedClient::connect(addr).unwrap();
    for _ in 0..8 {
        busy.submit(HOSPITAL_SQL, None).unwrap();
    }
    busy.flush().unwrap();

    let mut killer = RavenClient::connect(addr).unwrap();
    killer.shutdown_server().unwrap();
    server.shutdown(); // must join within the grace period, not hang

    // No half-dead acceptor afterwards: a new connection either refuses
    // outright or fails its round-trip.
    let dead = match TcpStream::connect(addr) {
        Err(_) => true, // refused — the listener is gone
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write_frame(&mut s, &frame).is_err() || read_frame(&mut s).is_err()
        }
    };
    assert!(dead, "a shut-down server must not serve");
}
