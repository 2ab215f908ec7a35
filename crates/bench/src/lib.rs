//! # raven-bench
//!
//! Benchmark harness reproducing **every table and figure** of the Raven
//! paper's evaluation (*"Extending Relational Query Processing with ML
//! Inference"*, CIDR 2020). The measured record — the committed benchmark
//! and its numbers on the reference box — lives in `perfbench/README.md`.
//!
//! Three targets:
//! * `benches/figures.rs` — a plain harness (one paper figure per section)
//!   that prints the same rows/series the paper reports:
//!   Fig. 2(a) model-projection pushdown, Fig. 2(b) model clustering,
//!   Fig. 2(c) model inlining, Fig. 2(d) NN translation (CPU + simulated
//!   GPU), Fig. 3 Raven vs ORT vs Raven Ext, plus the in-text numbers
//!   (§3.2 static-analysis latency, §4.1 pruning percentages, §5 batching).
//! * `benches/micro.rs` — Criterion micro-benchmarks of individual rules
//!   and substrates, including rule on/off ablations.
//! * `benches/serving.rs` — the serving layer: caches, concurrency, the
//!   wire path, pipelining, micro-batching, tenancy and tracing.
//!
//! Environment knobs:
//! * `RAVEN_BENCH_FULL=1` — run the paper's full dataset sizes (up to 10M
//!   rows); the default caps sweeps at 1M to keep `cargo bench` under a
//!   few minutes.

use std::time::{Duration, Instant};

/// Run `f` `runs` times after one warm-up; returns the mean duration.
pub fn time_mean<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    let _ = f(); // warm-up
    let start = Instant::now();
    for _ in 0..runs.max(1) {
        std::hint::black_box(f());
    }
    start.elapsed() / runs.max(1) as u32
}

/// Like [`time_mean`] but without the warm-up run (for cold-start
/// measurements such as standalone-runtime model loading).
pub fn time_mean_cold<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    for _ in 0..runs.max(1) {
        std::hint::black_box(f());
    }
    start.elapsed() / runs.max(1) as u32
}

/// `true` when the full paper-scale sweep was requested.
pub fn full_scale() -> bool {
    std::env::var("RAVEN_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Dataset sizes for a sweep: the paper's log scale, capped by mode.
pub fn sweep_sizes(max_default: usize) -> Vec<usize> {
    let all = [1_000usize, 10_000, 100_000, 1_000_000, 10_000_000];
    let cap = if full_scale() {
        10_000_000
    } else {
        max_default
    };
    all.into_iter().filter(|&n| n <= cap).collect()
}

/// Pretty milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_mean_measures() {
        let d = time_mean(3, || std::thread::sleep(Duration::from_millis(2)));
        assert!(d >= Duration::from_millis(2));
    }

    #[test]
    fn sweep_respects_cap() {
        assert_eq!(sweep_sizes(100_000), vec![1_000, 10_000, 100_000]);
    }

    #[test]
    fn ms_formats() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.00");
    }
}
