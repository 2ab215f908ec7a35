//! Run-to-completion point scoring: the reactor answers a `Score` frame
//! on its own thread when the micro-batcher has measured the
//! model's current version as cheap ([`Tenant::try_score_inline`]),
//! and hands everything else to the executor pool exactly as before.
//!
//! Covered here: inline ≡ pooled ≡ direct scores, how the path is chosen
//! (and re-chosen after a model update), counter reconciliation and
//! byte-identical error frames under a concurrent mix, that a probe
//! never creates a tenant, what an inline score's trace looks like, and
//! that the reactor keeps serving other connections while an expensive
//! model's score is in the pool.
//!
//! "Cheap" is a measurement, so a test that needs the inline path warms
//! a model until the server takes it; models here are a handful of
//! multiply-adds, far below the budget even in a debug build.

use raven_ml::featurize::Transform;
use raven_ml::mlp::Layer;
use raven_ml::tree::TreeNode;
use raven_ml::{
    DecisionTree, Estimator, FeatureStep, LinearKind, LinearModel, Mlp, Pipeline, RandomForest,
};
use raven_server::proto::read_frame;
use raven_server::{
    BatchConfig, BatcherStats, NetConfig, RavenClient, RavenServer, Request, Response,
    ServerConfig, ServerError, ServerState, DEFAULT_TENANT,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn spawn(state: Arc<ServerState>) -> RavenServer {
    RavenServer::bind(
        state,
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_connections: 32,
            poll_interval: Duration::from_millis(20),
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral listener")
}

/// Deterministic values in `[-1, 1)`.
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

fn identity_steps(width: usize) -> Vec<FeatureStep> {
    (0..width)
        .map(|i| FeatureStep::new(format!("f{i}"), Transform::Identity))
        .collect()
}

/// A complete tree of `depth` levels of random splits over `width`
/// features (BFS order).
fn random_tree(next: &mut impl FnMut() -> f64, width: usize, depth: u32) -> DecisionTree {
    let splits = (1usize << depth) - 1;
    let nodes = (0..2 * splits + 1)
        .map(|i| {
            if i < splits {
                TreeNode::Split {
                    feature: (next().abs() * width as f64) as usize % width,
                    threshold: next(),
                    left: 2 * i + 1,
                    right: 2 * i + 2,
                }
            } else {
                TreeNode::Leaf { value: next() }
            }
        })
        .collect();
    DecisionTree::from_nodes(nodes, width).unwrap()
}

const KINDS: [&str; 4] = ["tree", "forest", "mlp", "linear"];

fn random_pipeline(kind: &str, width: usize, seed: u64) -> Pipeline {
    let mut next = stream(seed);
    let estimator = match kind {
        "tree" => Estimator::Tree(random_tree(&mut next, width, 4)),
        "forest" => Estimator::Forest(
            RandomForest::from_trees((0..4).map(|_| random_tree(&mut next, width, 3)).collect())
                .unwrap(),
        ),
        "mlp" => {
            let mut layer = |n_in: usize, n_out: usize| Layer {
                w: (0..n_in * n_out).map(|_| next()).collect(),
                b: (0..n_out).map(|_| next()).collect(),
                n_in,
                n_out,
            };
            Estimator::Mlp(
                Mlp::new(vec![layer(width, 4), layer(4, 1)], LinearKind::Logistic).unwrap(),
            )
        }
        _ => Estimator::Linear(
            LinearModel::new(
                (0..width).map(|_| next()).collect(),
                next(),
                LinearKind::Regression,
            )
            .unwrap(),
        ),
    };
    Pipeline::new(identity_steps(width), estimator).unwrap()
}

fn linear(w: &[f64], b: f64) -> Pipeline {
    Pipeline::new(
        identity_steps(w.len()),
        Estimator::Linear(LinearModel::new(w.to_vec(), b, LinearKind::Regression).unwrap()),
    )
    .unwrap()
}

/// A forest over one feature whose every tree is a 16-split chain that
/// any row above -1 walks to the end: 8192 × 16 node visits per row, far
/// over the inline budget on any build, yet small to store.
fn expensive_forest() -> Pipeline {
    const DEPTH: usize = 16;
    let mut nodes = Vec::new();
    for i in 0..DEPTH {
        nodes.push(TreeNode::Split {
            feature: 0,
            threshold: -1.0 - i as f64,
            left: 2 * i + 1,
            right: 2 * i + 2,
        });
        nodes.push(TreeNode::Leaf { value: i as f64 });
    }
    nodes.push(TreeNode::Leaf { value: 0.5 });
    let tree = DecisionTree::from_nodes(nodes, 1).unwrap();
    Pipeline::new(
        identity_steps(1),
        Estimator::Forest(RandomForest::from_trees(vec![tree; 8192]).unwrap()),
    )
    .unwrap()
}

fn batcher(state: &ServerState) -> BatcherStats {
    state.default_tenant().batcher_stats()
}

/// Score `row` over the wire until the server answers it inline (the
/// first score of a version measures it through the pool; a measurement
/// inflated by a busy test host is corrected by the next pooled one).
fn warm_until_inline(client: &mut RavenClient, state: &ServerState, model: &str, row: &[f64]) {
    let before = batcher(state).inline;
    for _ in 0..500 {
        client.score(model, row.to_vec()).unwrap();
        if batcher(state).inline > before {
            return;
        }
    }
    panic!("'{model}' never scored inline: {:?}", batcher(state));
}

fn reconciles(stats: &BatcherStats) -> bool {
    stats.requests
        == stats.batched_rows + stats.bad_arity + stats.shed + stats.expired + stats.failed
}

/// Write one request frame and read the reply frame's raw body.
fn raw_roundtrip(stream: &mut TcpStream, request: &Request, id: u32) -> Vec<u8> {
    stream.write_all(&request.encode_with_id(id)).unwrap();
    read_frame(stream).unwrap()
}

fn score_request(model: &str, row: &[f64]) -> Request {
    Request::Score {
        model: model.into(),
        tenant: DEFAULT_TENANT.into(),
        row: row.to_vec(),
    }
}

/// (a) Random pipelines of every estimator kind × rows: the reply over
/// the wire — inline once the model is measured, pooled before — the
/// in-process pooled score and `Pipeline::predict_raw` agree bitwise.
#[test]
fn inline_pooled_and_direct_scores_agree_bitwise() {
    let state = Arc::new(ServerState::new(ServerConfig::for_tests()));
    let server = spawn(state.clone());
    let mut client = RavenClient::connect(server.local_addr()).unwrap();
    for (k, kind) in KINDS.iter().enumerate() {
        for seed in 0..3u64 {
            let width = 1 + (seed as usize + k) % 4;
            let pipeline = random_pipeline(kind, width, 10 * seed + k as u64);
            state.store_model(kind, pipeline.clone()).unwrap();
            let mut next = stream(100 + seed);
            let rows: Vec<Vec<f64>> = (0..12)
                .map(|_| (0..width).map(|_| 3.0 * next()).collect())
                .collect();
            warm_until_inline(&mut client, &state, kind, &rows[0]);
            let inline_before = batcher(&state).inline;
            for row in &rows {
                let direct = pipeline.predict_raw(row, 1).unwrap()[0];
                let wire = client.score(kind, row.clone()).unwrap();
                let pooled = state.default_tenant().score(kind, row.clone(), None);
                let pooled = pooled.unwrap();
                assert_eq!(wire.to_bits(), direct.to_bits(), "{kind} seed {seed}");
                assert_eq!(pooled.to_bits(), direct.to_bits(), "{kind} seed {seed}");
            }
            assert!(
                batcher(&state).inline > inline_before,
                "{kind} seed {seed}: no wire score of a warm model went inline"
            );
        }
    }
    assert!(reconciles(&batcher(&state)));
    server.shutdown();
}

/// (b) Selection: the first score of a model version is pooled (nothing
/// measured yet), later ones inline; a `store_model` makes the next
/// score pooled again — and it already sees the new version; a model
/// measured over the budget is never scored inline.
#[test]
fn the_path_follows_the_measured_cost_of_the_current_version() {
    let state = Arc::new(ServerState::new(ServerConfig::for_tests()));
    state.store_model("m", linear(&[2.0], 0.5)).unwrap();
    let server = spawn(state.clone());
    let mut client = RavenClient::connect(server.local_addr()).unwrap();

    assert_eq!(client.score("m", vec![3.0]).unwrap(), 6.5);
    let first = batcher(&state);
    assert_eq!((first.requests, first.batches, first.inline), (1, 1, 0));
    warm_until_inline(&mut client, &state, "m", &[3.0]);

    // v2 triples instead of doubling.
    state.store_model("m", linear(&[3.0], 0.5)).unwrap();
    let before = batcher(&state);
    assert_eq!(client.score("m", vec![3.0]).unwrap(), 9.5);
    let after = batcher(&state);
    assert_eq!(after.inline, before.inline, "v2 was not measured yet");
    assert_eq!(after.batches, before.batches + 1);
    warm_until_inline(&mut client, &state, "m", &[3.0]);
    assert_eq!(client.score("m", vec![1.0]).unwrap(), 3.5);

    // The expensive forest is measured by its first score and stays in
    // the pool from then on.
    let forest = expensive_forest();
    let want = forest.predict_raw(&[0.25], 1).unwrap()[0];
    state.store_model("big", forest).unwrap();
    let before = batcher(&state);
    for _ in 0..6 {
        assert_eq!(client.score("big", vec![0.25]).unwrap(), want);
    }
    let after = batcher(&state);
    assert_eq!(after.inline, before.inline, "over-budget model went inline");
    assert_eq!(after.requests, before.requests + 6);
    assert!(reconciles(&after));
    server.shutdown();
}

/// (c) Eight connections mixing inline-eligible, expensive, unknown-
/// model and bad-arity `Score` frames: every request lands in exactly
/// one outcome bucket, and every error frame is byte-for-byte what the
/// pooled path produces for that request.
#[test]
fn mixed_concurrent_scores_reconcile_and_errors_are_byte_identical() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 25;
    let build = || {
        let state = Arc::new(ServerState::new(ServerConfig::for_tests()));
        state
            .store_model("cheap", linear(&[2.0, -1.0], 0.5))
            .unwrap();
        state.store_model("big", expensive_forest()).unwrap();
        state
    };
    let state = build();
    // A twin nobody else talks to says what the pooled path answers.
    let twin = build();
    let expect = |request: &Request, id: u32| {
        let Request::Score { model, row, .. } = request else {
            unreachable!()
        };
        match twin.default_tenant().score(model, row.clone(), None) {
            Ok(value) => Response::Score { value },
            Err(e) => Response::from_error(&e),
        }
        .encode_with_id(id)[4..]
            .to_vec()
    };
    let server = spawn(state.clone());
    let addr = server.local_addr();
    let mut warm = RavenClient::connect(addr).unwrap();
    warm_until_inline(&mut warm, &state, "cheap", &[1.0, 1.0]);
    let before = batcher(&state);

    let cases = [
        score_request("cheap", &[3.0, 1.0]),
        score_request("big", &[0.25]),
        score_request("ghost", &[1.0]),
        score_request("cheap", &[1.0]),
    ];
    let expected: Vec<Vec<u8>> = cases.iter().map(|c| expect(c, 0)).collect();
    assert!(matches!(
        Response::decode(&expected[2]).unwrap(),
        Response::Error { .. }
    ));
    let barrier = Arc::new(Barrier::new(THREADS));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (barrier, cases, expected) = (barrier.clone(), &cases, &expected);
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                barrier.wait();
                for round in 0..ROUNDS {
                    let case = (t + round) % cases.len();
                    let id = round as u32;
                    let mut want = expected[case].clone();
                    // Frame body: version, kind, then the echoed id.
                    want[2..6].copy_from_slice(&id.to_le_bytes());
                    let got = raw_roundtrip(&mut stream, &cases[case], id);
                    assert_eq!(got, want, "case {case} round {round}");
                }
            });
        }
    });
    let after = batcher(&state);
    let sent = (THREADS * ROUNDS) as u64;
    assert_eq!(after.requests - before.requests, sent);
    assert!(reconciles(&after), "{after:?}");
    // Each case got exactly a quarter of the traffic.
    assert_eq!(after.batched_rows - before.batched_rows, sent / 2);
    assert_eq!(after.failed - before.failed, sent / 4);
    assert_eq!(after.bad_arity - before.bad_arity, sent / 4);
    // Inline scores are invocations of one row each; the expensive
    // model's were all pooled.
    let inline = after.inline - before.inline;
    assert!(inline > 0 && inline <= sent / 4, "{after:?}");
    assert!(after.batches - before.batches >= inline);
    server.shutdown();
}

/// (d) A `Score` for a tenant that does not exist declines without
/// creating it, and a declined probe counts nothing.
#[test]
fn an_inline_probe_never_creates_a_tenant_or_counts() {
    let state = ServerState::new(ServerConfig::for_tests());
    state.store_model("m", linear(&[1.0], 0.0)).unwrap();
    // The reactor probes through `try_tenant`, which never creates one.
    assert!(state.try_tenant("ghost").is_none());
    assert!(!state.tenants().iter().any(|t| t == "ghost"));
    // Unmeasured model, unknown model, bad arity: all decline.
    let tenant = state.try_tenant(DEFAULT_TENANT).unwrap();
    assert!(tenant.try_score_inline("m", &[1.0]).is_none());
    assert!(tenant.try_score_inline("nope", &[1.0]).is_none());
    assert_eq!(batcher(&state).requests, 0);
    // Measured through the pooled path, it commits — until the arity is
    // wrong, which only the pooled path may answer (typed).
    for _ in 0..500 {
        tenant.score("m", vec![4.0], None).unwrap();
        if let Some(outcome) = tenant.try_score_inline("m", &[4.0]) {
            assert_eq!(outcome.unwrap(), 4.0);
            break;
        }
    }
    assert_eq!(batcher(&state).inline, 1, "{:?}", batcher(&state));
    assert!(tenant.try_score_inline("m", &[4.0, 4.0]).is_none());
    assert!(matches!(
        tenant.score("m", vec![4.0, 4.0], None),
        Err(ServerError::BadRequest(_))
    ));
    assert!(reconciles(&batcher(&state)));
}

/// (e) With every request sampled, an inline score leaves a trace under
/// `score:<model>` with a `batcher-score` span and no `batcher-queue`
/// span — one per inline score, none lost, none doubled.
#[test]
fn every_inline_score_is_traced_without_a_queue_span() {
    let mut config = ServerConfig::for_tests();
    config.trace_sample_rate = 1;
    // Room for the warm-up's traces too, however long it takes.
    config.trace_ring_capacity = 4096;
    let state = Arc::new(ServerState::new(config));
    state.store_model("m", linear(&[1.0], 0.0)).unwrap();
    let server = spawn(state.clone());
    let mut client = RavenClient::connect(server.local_addr()).unwrap();
    warm_until_inline(&mut client, &state, "m", &[1.0]);
    for i in 0..20 {
        assert_eq!(client.score("m", vec![i as f64]).unwrap(), i as f64);
    }
    let stats = batcher(&state);
    let traces = state.recent_traces(DEFAULT_TENANT, 10_000).unwrap();
    assert_eq!(traces.len() as u64, stats.requests);
    let mut queueless = 0;
    for trace in &traces {
        assert_eq!(trace.sql, "score:m");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        if names == ["batcher-score"] {
            queueless += 1;
        } else {
            assert_eq!(names, ["batcher-queue", "batcher-score"]);
        }
    }
    assert_eq!(queueless, stats.inline);
    assert!(stats.inline >= 1, "{stats:?}");
    server.shutdown();
}

/// The reactor runs nothing unbounded for a `Score`: while an
/// over-budget model's score sits in the pool (held there by a long
/// fixed flush window), a hot cached query on a second connection is
/// answered by the same reactor.
#[test]
fn the_reactor_serves_cached_queries_while_an_expensive_score_is_pooled() {
    const WINDOW: Duration = Duration::from_millis(600);
    let mut config = ServerConfig::for_tests();
    config.batch = BatchConfig::fixed(64, WINDOW);
    let state = Arc::new(ServerState::new(config));
    raven_datagen::hospital::generate(200, 42)
        .register(state.catalog())
        .unwrap();
    state.store_model("big", expensive_forest()).unwrap();
    let server = spawn(state.clone());
    let addr = server.local_addr();

    let sql = "SELECT id, age FROM patient_info WHERE id < 16";
    let mut querier = RavenClient::connect(addr).unwrap();
    querier.query(sql).unwrap();
    querier.query(sql).unwrap();
    let hits = state.default_tenant().result_cache_stats().hits;
    assert_eq!(hits, 1, "the repeat must be a result-cache hit");

    // Measure the forest (one full window), then put its next score in
    // flight without waiting for the reply.
    let mut scorer = TcpStream::connect(addr).unwrap();
    raw_roundtrip(&mut scorer, &score_request("big", &[0.25]), 0);
    let request = score_request("big", &[0.25]).encode_with_id(1);
    scorer.write_all(&request).unwrap();
    let sent = Instant::now();
    while batcher(&state).requests < 2 {
        assert!(sent.elapsed() < WINDOW, "the score never reached the pool");
        std::thread::yield_now();
    }
    querier.query(sql).unwrap();
    assert_eq!(state.default_tenant().result_cache_stats().hits, hits + 1);
    let stats = batcher(&state);
    assert_eq!(
        (stats.batched_rows, stats.inline),
        (1, 0),
        "the score must still be queued when the query returns ({:?} after it was sent)",
        sent.elapsed()
    );
    let (reply, _, id) = Response::decode_framed(&read_frame(&mut scorer).unwrap()).unwrap();
    assert!(matches!(reply, Response::Score { .. }) && id == 1);
    assert!(sent.elapsed() >= WINDOW / 2);
    server.shutdown();
}
