//! Serving-layer benchmark: queries/sec through a shared `ServerState`.
//!
//! Run with `cargo bench -p raven-bench --bench serving`. Eleven sections:
//!
//! * **kernel placement** — a forest-heavy morsel scored row-at-a-time
//!   vs. through the columnar kernel (scores bitwise identical), and the
//!   optimizer choosing the kernel on its own;
//! * **plan cache on vs. off** — the amortization the prepared-plan
//!   cache buys on a repeated inference query (parse → bind → optimize
//!   skipped on every hit);
//! * **result cache: cold vs. warm + hit-rate sweep** — memoized
//!   execution on deterministic repeats: cold (execute) vs. warm
//!   (fingerprint lookup) latency, and the hit rate as the workload's
//!   distinct-constant pool grows;
//! * **exact-text vs. template cache** — 1000 queries from 10 shapes ×
//!   20 distinct constants each: keying the cache on the normalized
//!   template (constants → `?`) vs. on raw SQL text, with the hit-rate
//!   delta printed;
//! * **concurrent clients** — the same workload from 1/4/8 threads over
//!   one shared server;
//! * **network path** — the same workload over the framed-TCP front end
//!   (loop-back), pricing framing + result serialization per query;
//! * **serial vs. pipelined** — one connection, warm cached workload:
//!   one request in flight vs. a 16-deep pipeline (per-connection
//!   throughput);
//! * **micro-batch sizes {1, 8, 64}** — point-scoring throughput as the
//!   coalescing window widens (`max_batch = 1` reproduces per-tuple
//!   scoring; the paper's §5 observation v is the same lever at the
//!   tensor-runtime layer);
//! * **fixed vs adaptive flush** — point scores under a 5 ms deadline
//!   against a mixed cheap/expensive model pair: fixed windows
//!   {0.5, 1, 4 ms} vs the EWMA-sized adaptive window, reporting ok/s,
//!   p99, shed/expired counts, and the exact outcome reconciliation
//!   (`requests == scored + shed + expired`, zero rows served past
//!   their deadline);
//! * **multi-tenant serving** — N tenants × one hot query each over one
//!   engine: per-tenant result-cache hit rates, cross-tenant
//!   invalidation isolation (a model swap in tenant 0 drops nothing
//!   elsewhere), and per-tenant quotas bounding a noisy neighbor's
//!   impact on a quiet tenant's tail latency;
//! * **tracing overhead** — the warm cached path with tracing disabled
//!   vs. the default 1-in-64 head sampling vs. sampling every request
//!   (the default must stay within 2% of disabled).
//!
//! Default dataset is 20k rows; set `RAVEN_BENCH_FULL=1` for 200k.

use raven_bench::{full_scale, ms, time_mean};
use raven_datagen::{hospital, train};
use raven_server::{
    BatchConfig, NetConfig, PipelinedClient, RavenClient, RavenServer, ServerConfig, ServerState,
    Statement, TenantQuotaConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SQL: &str = "\
    WITH data AS (\
      SELECT * FROM patient_info AS pi \
      JOIN blood_tests AS bt ON pi.id = bt.id \
      JOIN prenatal_tests AS pt ON bt.id = pt.id)\
    SELECT d.id, p.length_of_stay \
    FROM PREDICT(MODEL = 'duration_of_stay', DATA = data AS d) \
    WITH (length_of_stay FLOAT) AS p \
    WHERE d.pregnant = 1 AND p.length_of_stay > 6";

/// Plan cache as given, result cache off — the configuration for every
/// section that prices *execution* (a default-on result cache would turn
/// repeat queries into hash lookups and flatter the numbers).
fn hospital_server(rows: usize, plan_cache_capacity: usize) -> ServerState {
    hospital_server_with(
        rows,
        ServerConfig {
            plan_cache_capacity,
            result_cache_capacity: 0,
            ..Default::default()
        },
    )
}

fn hospital_server_with(rows: usize, config: ServerConfig) -> ServerState {
    let server = ServerState::new(config);
    let data = hospital::generate(rows, 42);
    data.register(server.catalog()).expect("register");
    let model = train::hospital_tree(&data, 6).expect("train");
    server
        .store_model("duration_of_stay", model)
        .expect("store");
    server
}

fn qps(queries: usize, elapsed: Duration) -> f64 {
    queries as f64 / elapsed.as_secs_f64()
}

fn bench_plan_cache(rows: usize) {
    println!("== plan cache on vs. off ({rows} rows, repeated inference query) ==");
    let runs = 30;
    for (label, capacity) in [("cache off", 0usize), ("cache on", 128)] {
        // Result caching off: this section prices plan preparation, so
        // every run must actually execute.
        let server = hospital_server_with(
            rows,
            ServerConfig {
                plan_cache_capacity: capacity,
                result_cache_capacity: 0,
                ..Default::default()
            },
        );
        let mean = time_mean(runs, || server.execute(SQL).expect("query"));
        let stats = server.default_tenant().plan_cache_stats();
        println!(
            "  {label:<9}  {:>8} ms/query  {:>8.1} q/s  ({} preparations for {} queries)",
            ms(mean),
            1.0 / mean.as_secs_f64(),
            stats.preparations,
            runs + 1,
        );
    }
}

/// Exact-text vs. template plan caching on production-shaped traffic:
/// 1000 queries drawn from 10 query *shapes*, each shape instantiated
/// with 20 distinct constants (so 200 distinct SQL texts). The
/// exact-text cache (normalization off) must prepare every text; the
/// template cache prepares each shape once. The printed delta is the
/// number in the ISSUE: hit rate + optimizations paid.
fn bench_template_cache(rows: usize) {
    println!("== exact-text vs. template plan cache (1000 queries, 10 shapes x 20 constants) ==");
    const QUERIES: usize = 1000;
    const SHAPES: usize = 10;
    const CONSTANTS: usize = 20;
    // Shapes differ structurally (LIMIT is part of the plan, not a
    // parameter); constants differ per request, as template traffic does.
    let sql_for = |q: usize| {
        let shape = q % SHAPES;
        let constant = 18 + 3 * ((q / SHAPES) % CONSTANTS); // 20 distinct ages
        format!(
            "SELECT d.id, p.stay FROM PREDICT(MODEL = 'duration_of_stay', \
             DATA = (SELECT * FROM patient_info AS pi \
             JOIN blood_tests AS bt ON pi.id = bt.id \
             JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d) \
             WITH (stay FLOAT) AS p \
             WHERE d.age > {constant} ORDER BY p.stay DESC LIMIT {}",
            shape + 1
        )
    };
    let mut hit_rates = Vec::new();
    for (label, normalize) in [("exact-text", false), ("template", true)] {
        let config = ServerConfig {
            normalize_parameters: normalize,
            result_cache_capacity: 0,
            ..Default::default()
        };
        let server = hospital_server_with(rows, config);
        let start = Instant::now();
        for q in 0..QUERIES {
            std::hint::black_box(server.execute(&sql_for(q)).expect("query"));
        }
        let elapsed = start.elapsed();
        let stats = server.default_tenant().plan_cache_stats();
        hit_rates.push(stats.hit_rate());
        let snap = server.stats();
        println!(
            "  {label:<10}  {:>8.1} q/s  hit rate {:>5.1}%  {:>3} preparations  \
             ({} normalized, {} template hits)",
            qps(QUERIES, elapsed),
            stats.hit_rate() * 100.0,
            stats.preparations,
            snap.normalized,
            snap.template_hits,
        );
    }
    println!(
        "  hit-rate delta: +{:.1} points for the template cache",
        (hit_rates[1] - hit_rates[0]) * 100.0
    );
}

/// The ISSUE's acceptance numbers: warm repeat-query latency vs. the
/// execute path, and the hit rate on a repeat-heavy workload (which must
/// clear 90%).
fn bench_result_cache(rows: usize) {
    println!("== result cache: cold vs. warm on a deterministic repeat query ==");
    let runs = 30;
    // Cold: result cache off — every run executes (plan cache on, so
    // the delta isolates execution, not optimization).
    let cold_server = hospital_server(rows, 128);
    cold_server.execute(SQL).expect("warm plan");
    let cold = time_mean(runs, || cold_server.execute(SQL).expect("query"));
    // Warm: result cache on — after the first execution every repeat is
    // a fingerprint lookup.
    let warm_server = hospital_server_with(
        rows,
        ServerConfig {
            result_cache_capacity: 256,
            ..Default::default()
        },
    );
    warm_server.execute(SQL).expect("populate");
    let warm = time_mean(runs, || warm_server.execute(SQL).expect("query"));
    let stats = warm_server.default_tenant().result_cache_stats();
    println!(
        "  execute path  {:>8} ms/query  {:>10.1} q/s",
        ms(cold),
        1.0 / cold.as_secs_f64(),
    );
    println!(
        "  warm hit      {:>8} ms/query  {:>10.1} q/s  ({:.0}x faster; {})",
        ms(warm),
        1.0 / warm.as_secs_f64(),
        cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
        stats,
    );

    println!("== result cache hit-rate sweep (400 queries, distinct constants per shape) ==");
    const QUERIES: usize = 400;
    for distinct in [1usize, 4, 16, 64] {
        let server = hospital_server_with(
            rows.min(20_000),
            ServerConfig {
                result_cache_capacity: 256,
                ..Default::default()
            },
        );
        let start = Instant::now();
        for q in 0..QUERIES {
            let age = 18 + (q % distinct);
            let sql = format!(
                "SELECT d.id, p.stay FROM PREDICT(MODEL = 'duration_of_stay',                  DATA = (SELECT * FROM patient_info AS pi                  JOIN blood_tests AS bt ON pi.id = bt.id                  JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d)                  WITH (stay FLOAT) AS p WHERE d.age > {age}"
            );
            std::hint::black_box(server.execute(&sql).expect("query"));
        }
        let elapsed = start.elapsed();
        let stats = server.default_tenant().result_cache_stats();
        println!(
            "  {distinct:>3} distinct  {:>9.1} q/s  hit rate {:>5.1}%               ({} executions for {QUERIES} queries)",
            qps(QUERIES, elapsed),
            stats.hit_rate() * 100.0,
            stats.executions,
        );
    }
}

fn bench_concurrency(rows: usize) {
    println!("== concurrent clients, shared ServerState (plan cache on) ==");
    let per_client = 20;
    for clients in [1usize, 4, 8] {
        let server = Arc::new(hospital_server(rows, 128));
        server.execute(SQL).expect("warm-up");
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let server = server.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_client {
                        std::hint::black_box(server.execute(SQL).expect("query"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client");
        }
        let elapsed = start.elapsed();
        let snap = server.stats();
        println!(
            "  {clients} client(s)  {:>8.1} q/s  p50 {} ms  p99 {} ms  (plan cache: {})",
            qps(clients * per_client, elapsed),
            ms(snap.latency.p50),
            ms(snap.latency.p99),
            snap.plan_cache,
        );
    }
}

fn bench_micro_batching(rows: usize) {
    println!("== micro-batched point scoring, batch sizes {{1, 8, 64}} ==");
    let data_rows = rows.min(5_000);
    let data = hospital::generate(data_rows, 42);
    // An MLP: per-invocation cost is real (matrix work), so coalescing
    // point lookups into batched invocations is the lever under test.
    let model = train::hospital_mlp(&data, vec![32, 16], 5).expect("train");
    // Raw rows in the pipeline's encoding (categoricals → indices).
    let joined = data.joined_batch();
    let columns: Vec<Vec<f64>> = model
        .steps()
        .iter()
        .map(|step| {
            let col = joined.column_by_name(&step.column).expect("column");
            step.transform.encode_raw(col).expect("encode")
        })
        .collect();
    // Open-loop-ish load: many more clients than cores, so batches can
    // actually fill without waiting out the flush window. The sweep
    // exposes the classic serving tradeoff: coalescing trades queueing
    // delay (bounded by the flush window) for fewer scorer invocations —
    // it pays off in proportion to per-invocation overhead, which for
    // the in-process classical scorer is small and for the paper's
    // external runtimes (~0.5 s startup) is enormous.
    let requests = 1024usize;
    let clients = 64usize;
    for max_batch in [1usize, 8, 64] {
        let config = ServerConfig {
            batch: BatchConfig::fixed(max_batch, Duration::from_micros(50)),
            ..Default::default()
        };
        let server = Arc::new(ServerState::new(config));
        server
            .store_model("duration_of_stay", model.clone())
            .expect("store");
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let tenant = server.default_tenant().clone();
                let columns = columns.clone();
                std::thread::spawn(move || {
                    for r in 0..requests / clients {
                        let i = (c * 131 + r * 17) % data_rows;
                        let row: Vec<f64> = columns.iter().map(|col| col[i]).collect();
                        let score = tenant.score("duration_of_stay", row, None);
                        std::hint::black_box(score.expect("score"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client");
        }
        let elapsed = start.elapsed();
        let stats = server.default_tenant().batcher_stats();
        println!(
            "  max_batch={max_batch:<3}  {:>9.0} scores/s  \
             ({} scorer calls for {} requests, mean batch {:.1})",
            qps(requests, elapsed),
            stats.batches,
            stats.requests,
            stats.mean_batch_size(),
        );
    }
}

fn bench_adaptive_flush(rows: usize) {
    println!(
        "== fixed vs adaptive flush under a 5 ms deadline \
         (mixed cheap tree + expensive MLP point scores) =="
    );
    let data_rows = rows.min(5_000);
    let data = hospital::generate(data_rows, 42);
    // Two models over one featurization: a cheap tree and an MLP whose
    // per-invocation cost is real — the mix the adaptive window must
    // price per batch instead of assuming one fixed cost.
    let cheap = train::hospital_tree(&data, 6).expect("train tree");
    let expensive = train::hospital_mlp(&data, vec![32, 16], 5).expect("train mlp");
    let joined = data.joined_batch();
    let columns: Vec<Vec<f64>> = cheap
        .steps()
        .iter()
        .map(|step| {
            let col = joined.column_by_name(&step.column).expect("column");
            step.transform.encode_raw(col).expect("encode")
        })
        .collect();
    let deadline = Duration::from_millis(5);
    let requests = 2048usize;
    let clients = 32usize;
    let policies: Vec<(String, BatchConfig)> = [500u64, 1_000, 4_000]
        .into_iter()
        .map(|us| {
            (
                format!("fixed {:>4} µs", us),
                BatchConfig::fixed(64, Duration::from_micros(us)),
            )
        })
        .chain(std::iter::once((
            "adaptive".to_string(),
            BatchConfig::adaptive(64, Duration::ZERO, Duration::from_millis(4)),
        )))
        .collect();
    for (label, batch) in policies {
        let config = ServerConfig {
            batch,
            ..Default::default()
        };
        let server = Arc::new(ServerState::new(config));
        server.store_model("cheap", cheap.clone()).expect("store");
        server
            .store_model("expensive", expensive.clone())
            .expect("store");
        // Warm both models so the cost EWMAs are seeded before any
        // deadline rides on their predictions.
        let tenant = server.default_tenant();
        for i in 0..16 {
            let row: Vec<f64> = columns.iter().map(|c| c[i]).collect();
            tenant.score("cheap", row.clone(), None).expect("warm");
            tenant.score("expensive", row, None).expect("warm");
        }
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let tenant = tenant.clone();
                let columns = columns.clone();
                std::thread::spawn(move || {
                    let mut ok_latencies = Vec::new();
                    let mut rejected = 0usize;
                    let mut late_ok = 0usize;
                    for r in 0..requests / clients {
                        let i = (c * 131 + r * 17) % data_rows;
                        let row: Vec<f64> = columns.iter().map(|col| col[i]).collect();
                        let model = if r % 2 == 0 { "cheap" } else { "expensive" };
                        let sent = Instant::now();
                        match tenant.score(model, row, Some(deadline)) {
                            Ok(score) => {
                                let waited = sent.elapsed();
                                std::hint::black_box(score);
                                if waited > deadline {
                                    late_ok += 1;
                                }
                                ok_latencies.push(waited);
                            }
                            Err(_) => rejected += 1,
                        }
                    }
                    (ok_latencies, rejected, late_ok)
                })
            })
            .collect();
        let mut latencies = Vec::new();
        let mut rejected = 0usize;
        let mut late_ok = 0usize;
        for h in handles {
            let (l, r, late) = h.join().expect("client");
            latencies.extend(l);
            rejected += r;
            late_ok += late;
        }
        let elapsed = start.elapsed();
        latencies.sort();
        let p99 = latencies
            .get(latencies.len().saturating_sub(1) * 99 / 100)
            .copied()
            .unwrap_or_default();
        // The worker sheds expired residents at its next flush; give the
        // outcome counters a moment to reconcile exactly.
        let settle = Instant::now() + Duration::from_secs(2);
        let stats = loop {
            let s = server.default_tenant().batcher_stats();
            if s.requests == s.batched_rows + s.bad_arity + s.shed + s.expired + s.failed
                || Instant::now() >= settle
            {
                break s;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let reconciled =
            stats.requests == stats.batched_rows + stats.bad_arity + stats.shed + stats.expired;
        println!(
            "  {label}  {:>9.0} ok/s  p99 {:>7} ms  mean batch {:>4.1}  \
             {} shed, {} expired, {} served-past-deadline  \
             [requests {} == scored {} + shed {} + expired {}: {}]",
            qps(latencies.len(), elapsed),
            ms(p99),
            stats.mean_batch_size(),
            stats.shed,
            stats.expired,
            late_ok,
            stats.requests,
            stats.batched_rows,
            stats.shed,
            stats.expired,
            if reconciled {
                "exact"
            } else {
                "NOT RECONCILED"
            },
        );
        assert_eq!(
            latencies.len() + rejected,
            requests,
            "every request must resolve as a score or a typed rejection"
        );
    }
}

fn bench_network_path(rows: usize) {
    println!("== network path: framed TCP vs. in-process, shared ServerState ==");
    // A loop-back round-trip adds framing + syscalls + result-table
    // serialization per query; this section prices that overhead against
    // the in-process `bench_concurrency` numbers above.
    let per_client = 20;
    for clients in [1usize, 4, 8] {
        let state = Arc::new(hospital_server(rows, 128));
        state.execute(SQL).expect("warm-up");
        let server = RavenServer::bind(
            state,
            NetConfig {
                workers: clients,
                ..Default::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = RavenClient::connect(addr).expect("connect");
                    for _ in 0..per_client {
                        std::hint::black_box(client.query(SQL).expect("query"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client");
        }
        let elapsed = start.elapsed();
        let snap = server.state().stats();
        println!(
            "  {clients} client(s)  {:>8.1} q/s  p50 {} ms  p99 {} ms  (plan cache: {})",
            qps(clients * per_client, elapsed),
            ms(snap.latency.p50),
            ms(snap.latency.p99),
            snap.plan_cache,
        );
        server.shutdown();
    }
}

/// Serial vs. pipelined: the same warm cached workload through one
/// connection, first with one request in flight (every query pays a
/// full client→server→client round trip before the next may start),
/// then keeping a 16-deep pipeline filled.
/// Per-connection throughput is the headline: pipelining amortizes the
/// round trip and the reactor wake-ups across the in-flight window.
fn bench_pipelining(rows: usize) {
    println!("== serial vs. pipelined: per-connection throughput, warm cached workload ==");
    const QUERIES: usize = 10_000;
    const INFLIGHT: usize = 16;
    // A bounded result (point-lookup shaped, as interactive inference
    // traffic is): with the result cache warm the server side is a hash
    // lookup and a small encode, so what this section prices is the
    // wire protocol itself — the round trip the serial client pays per
    // query and the pipelined client amortizes across its window.
    let hot_sql = "SELECT id, age FROM patient_info WHERE id < 16".to_string();

    // Result cache ON: this section prices the *wire protocol*, so the
    // server side should be as close to free as a real hot path gets.
    let state = Arc::new(hospital_server_with(rows, ServerConfig::default()));
    state.execute(&hot_sql).expect("warm-up");
    let server = RavenServer::bind(
        state,
        NetConfig {
            workers: 4,
            max_inflight_per_conn: INFLIGHT,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Serial: one request in flight.
    let mut serial = RavenClient::connect(addr).expect("connect");
    serial.query(&hot_sql).expect("warm the connection");
    let start = Instant::now();
    for _ in 0..QUERIES {
        std::hint::black_box(serial.query(&hot_sql).expect("serial query"));
    }
    let serial_elapsed = start.elapsed();
    let serial_qps = qps(QUERIES, serial_elapsed);

    // Pipelined: the full INFLIGHT budget kept occupied in
    // waves — fill the window, drain it, repeat. Submits batch into one
    // write per wave, replies drain through the buffered reader.
    let mut pipelined = PipelinedClient::connect(addr).expect("connect");
    // Warm the connection (socket buffers, allocator) like the serial
    // side did, so both measure steady state.
    pipelined.submit(&hot_sql, None).expect("submit");
    let (_, warm) = pipelined.recv().expect("recv");
    warm.expect("warm the connection");
    let start = Instant::now();
    let mut received = 0usize;
    while received < QUERIES {
        let wave = INFLIGHT.min(QUERIES - received);
        for _ in 0..wave {
            pipelined.submit(&hot_sql, None).expect("submit");
        }
        for _ in 0..wave {
            let (_, reply) = pipelined.recv().expect("recv");
            std::hint::black_box(reply.expect("pipelined query"));
            received += 1;
        }
    }
    let pipelined_elapsed = start.elapsed();
    let pipelined_qps = qps(QUERIES, pipelined_elapsed);

    println!(
        "  serial (1 in flight)       {serial_qps:>9.1} q/s  ({} queries in {:?})",
        QUERIES, serial_elapsed
    );
    println!(
        "  pipelined ({INFLIGHT} in flight)   {pipelined_qps:>9.1} q/s  ({} queries in {:?})",
        QUERIES, pipelined_elapsed
    );
    println!(
        "  per-connection speedup     {:>9.1}x",
        pipelined_qps / serial_qps
    );
    server.shutdown();
}

/// Multi-tenant serving: N tenants, each with its own (same-named!)
/// dataset and model, hammered concurrently over one engine.
///
/// Three measurements:
/// 1. hot throughput with per-tenant result caches (every tenant's
///    repeat traffic hits its own cache);
/// 2. cross-tenant invalidation isolation — a model swap in tenant 0
///    invalidates its own entries and nobody else's (counters printed);
/// 3. noisy neighbor: tenant 0 saturates a strict per-tenant quota
///    while a quiet tenant runs the same workload with and without the
///    noise — the quiet tenant's p99 must not move materially.
fn bench_multi_tenant(rows: usize) {
    const TENANTS: usize = 4;
    const QUERIES_PER_TENANT: usize = 60;
    let per_tenant_rows = (rows / 4).clamp(1_000, 20_000);
    println!(
        "== multi-tenant serving ({TENANTS} tenants x {per_tenant_rows} rows, same-named models) =="
    );
    let build = |quota: TenantQuotaConfig| {
        let server = Arc::new(ServerState::new(ServerConfig {
            tenant_quota: quota,
            ..Default::default()
        }));
        for t in 0..TENANTS {
            let tenant = format!("tenant-{t}");
            let data = hospital::generate(per_tenant_rows, 42 + t as u64);
            let shard = server.tenant(&tenant).expect("tenant");
            data.register(shard.catalog()).expect("register");
            shard
                .store_model(
                    "duration_of_stay",
                    train::hospital_tree(&data, 6).expect("train"),
                )
                .expect("store");
        }
        server
    };

    // 1. Hot throughput: every tenant hammers its own namespace.
    let server = build(TenantQuotaConfig::default());
    let start = Instant::now();
    let handles: Vec<_> = (0..TENANTS)
        .map(|t| {
            let tenant = server.tenant(&format!("tenant-{t}")).expect("tenant");
            std::thread::spawn(move || {
                for _ in 0..QUERIES_PER_TENANT {
                    let result = tenant.serve(Statement::Sql(SQL), None);
                    std::hint::black_box(result.expect("query"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("tenant thread");
    }
    let elapsed = start.elapsed();
    let aggregate = server.stats();
    println!(
        "  {TENANTS} tenants hot   {:>8.1} q/s aggregate  result hit rate {:>5.1}%  \
         ({} preparations: one per tenant)",
        qps(TENANTS * QUERIES_PER_TENANT, elapsed),
        aggregate.result_cache.hit_rate() * 100.0,
        aggregate.plan_cache.preparations,
    );

    // 2. Invalidation isolation: swap tenant-0's model, count casualties.
    let data = hospital::generate(per_tenant_rows, 42);
    server
        .tenant("tenant-0")
        .and_then(|t| {
            let retrained = train::hospital_tree(&data, 5).expect("retrain");
            t.store_model("duration_of_stay", retrained)
        })
        .expect("swap");
    let victims: u64 = (1..TENANTS)
        .map(|t| {
            server
                .tenant_stats(&format!("tenant-{t}"))
                .expect("stats")
                .result_cache
                .invalidations
        })
        .sum();
    let own = server
        .tenant_stats("tenant-0")
        .expect("stats")
        .result_cache
        .invalidations;
    println!(
        "  tenant-0 model swap: {own} own result entries invalidated, \
         {victims} in the other {} tenants",
        TENANTS - 1
    );

    // 3. Noisy neighbor under a strict quota: quiet tenant's p99 with
    // the noise vs. without it.
    let quiet_p99 = |noisy: bool| {
        let server = build(TenantQuotaConfig::strict(2));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let noise: Vec<_> = if noisy {
            (0..6)
                .map(|thread| {
                    let noisy = server.tenant("tenant-0").expect("tenant");
                    let stop = stop.clone();
                    std::thread::spawn(move || {
                        let mut i = 0usize;
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            // A fresh constant every request: one shared
                            // template plan, but a distinct result
                            // fingerprint, so every request *executes*
                            // and holds its quota slot — saturating
                            // traffic with rejections expected.
                            let sql = SQL.replace(
                                "> 6",
                                &format!("> 6.{:04}", (thread * 1_000 + i) % 10_000),
                            );
                            let _ = noisy.serve(Statement::Sql(&sql), None);
                            i += 1;
                        }
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        if noisy {
            // Let the noise actually saturate tenant-0's quota before
            // the quiet tenant's measurement window opens.
            std::thread::sleep(Duration::from_millis(50));
        }
        let quiet = server.tenant("tenant-1").expect("tenant");
        for _ in 0..QUERIES_PER_TENANT {
            let result = quiet.serve(Statement::Sql(SQL), None);
            std::hint::black_box(result.expect("quiet query"));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in noise {
            h.join().expect("noise thread");
        }
        let quiet = server.tenant_stats("tenant-1").expect("stats");
        let noisy_stats = server.tenant_stats("tenant-0").expect("stats");
        (quiet.latency.p99, noisy_stats.admission.rejected_overloaded)
    };
    let (p99_alone, _) = quiet_p99(false);
    let (p99_noisy, rejections) = quiet_p99(true);
    println!(
        "  quiet tenant p99: {} ms alone, {} ms beside a noisy neighbor \
         ({rejections} noisy rejections absorbed by its quota)",
        ms(p99_alone),
        ms(p99_noisy),
    );
}

/// Tracing overhead on the hot cached path: the same warm repeat query
/// (result-cache hit — the cheapest request the server serves, so the
/// most overhead-sensitive) with tracing disabled, at the default 1-in-64
/// head sampling, and sampling every request. The ISSUE's acceptance
/// number: the default must cost < 2% throughput vs. disabled. Disabled
/// is atomic-gated — `sample_every == 0` short-circuits before any
/// span-recorder allocation — so that column is the true baseline.
fn bench_tracing_overhead(rows: usize) {
    println!("== tracing overhead on the warm result-cache path ==");
    let runs = 3_000;
    let mut baseline = None;
    for (label, sample_rate) in [
        ("tracing off", 0u32),
        ("1-in-64 (default)", 64),
        ("sample all", 1),
    ] {
        let server = hospital_server_with(
            rows,
            ServerConfig {
                result_cache_capacity: 256,
                trace_sample_rate: sample_rate,
                // Keep the slow path out of the measurement: a warm hit
                // never crosses the default 100 ms threshold.
                ..Default::default()
            },
        );
        server.execute(SQL).expect("populate");
        let mean = time_mean(runs, || {
            std::hint::black_box(server.execute(SQL).expect("query"));
        });
        let rate = 1.0 / mean.as_secs_f64();
        let overhead = baseline
            .map(|base: f64| format!("{:>+6.2}% vs. off", (base / rate - 1.0) * 100.0))
            .unwrap_or_else(|| "baseline".to_string());
        baseline = baseline.or(Some(rate));
        println!("  {label:<18}  {:>9.1} q/s  {overhead}", rate);
    }
}

/// The kernel-placement sweep on a forest-heavy scoring workload: the
/// same morsel scored row-at-a-time (classical), through the flattened
/// columnar kernel, and — for the plan-level view — a session EXPLAIN
/// showing the cost-based optimizer routing the forest to the kernel on
/// its own. The scores must be **bitwise identical** between classical
/// and kernel (the optimizer swaps them per query).
fn bench_kernel_placement(rows: usize) {
    use raven_core::{RavenSession, SessionConfig};
    use raven_ml::FlatForest;

    println!("== kernel placement: classical vs columnar kernel, forest-heavy morsel ==");
    let data_rows = rows.min(20_000);
    let data = hospital::generate(data_rows, 42);
    let model = train::hospital_forest(&data, 48, 8).expect("train forest");
    let joined = data.joined_batch();
    let raw = model.encode_inputs(&joined).expect("encode");
    let n = joined.num_rows();

    let runs = 5;
    let classical = time_mean(runs, || {
        std::hint::black_box(model.predict_raw(&raw, n).expect("classical"))
    });
    let flat = FlatForest::from_pipeline(&model).expect("flatten");
    let kernel = time_mean(runs, || {
        std::hint::black_box(flat.score_raw(&raw, n).expect("kernel"))
    });

    // The differential contract, on real data at bench scale.
    let a = model.predict_raw(&raw, n).expect("classical");
    let b = flat.score_raw(&raw, n).expect("kernel");
    let identical = a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits());
    let speedup = classical.as_secs_f64() / kernel.as_secs_f64().max(1e-12);
    println!(
        "  classical row-at-a-time  {:>8} ms/morsel  ({n} rows x {} trees)",
        ms(classical),
        48,
    );
    println!(
        "  columnar kernel          {:>8} ms/morsel  {} ",
        ms(kernel),
        flat.describe(),
    );
    println!("  speedup {speedup:>18.1}x  scores bitwise identical: {identical}",);
    assert!(identical, "kernel and classical scores diverged");

    // Plan-level: the optimizer must pick the kernel for this forest on
    // its own, from costs — no placement hint in the query.
    let session = RavenSession::with_config(SessionConfig::default());
    data.register(session.catalog()).expect("register");
    session.store_model("rf", model).expect("store");
    let explain = session
        .explain(
            "SELECT p.s FROM PREDICT(MODEL = 'rf', DATA = \
             (SELECT * FROM patient_info AS pi \
              JOIN blood_tests AS bt ON pi.id = bt.id \
              JOIN prenatal_tests AS pt ON bt.id = pt.id) AS d) \
             WITH (s FLOAT) AS p",
        )
        .expect("explain");
    let placed = explain.optimized_plan.contains("KernelPredict");
    println!(
        "  cost-based placement picked the kernel automatically: {placed}  \
         ({})",
        explain.report_summary,
    );
    assert!(placed, "optimizer failed to place the forest on the kernel");
}

fn main() {
    let rows = if full_scale() { 200_000 } else { 20_000 };
    bench_kernel_placement(rows);
    bench_plan_cache(rows);
    bench_result_cache(rows);
    bench_template_cache(rows.min(20_000));
    bench_concurrency(rows);
    bench_network_path(rows);
    bench_pipelining(rows);
    bench_micro_batching(rows);
    bench_adaptive_flush(rows);
    bench_multi_tenant(rows);
    bench_tracing_overhead(rows.min(20_000));
}
