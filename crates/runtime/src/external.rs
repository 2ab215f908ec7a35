//! Out-of-process and containerized execution (paper §5).
//!
//! SQL Server's `sp_execute_external_script` instantiates an external
//! language runtime per query; the paper measures "a constant overhead of
//! about half a second to start the external language runtime and some
//! additional overheads, most probably due to data transfers".
//!
//! There is no Python runtime in this environment, so per the substitution
//! rule we reproduce the *mechanics* honestly: each call crosses a real
//! thread boundary with the batch serialized to bytes on the way in and
//! predictions serialized on the way out, plus a configurable startup
//! latency that defaults to the paper's observed constants (0.5 s external,
//! 2 s containerized — containers additionally pay a per-request HTTP
//! round-trip). Tests run with zero latency; benchmarks use the defaults.

use crate::codec;
use crate::error::RuntimeError;
use crate::Result;
use raven_data::RecordBatch;
use raven_ml::Pipeline;
use raven_relational::CancelToken;
use std::sync::mpsc;
use std::time::Duration;

/// Sleep `total`, polling `cancel` so a deadline-expired request stops
/// paying for a simulated runtime it no longer wants. Errors with
/// [`RuntimeError::Cancelled`] if the token fires mid-sleep.
fn sleep_cancellable(total: Duration, cancel: &CancelToken) -> Result<()> {
    const SLICE: Duration = Duration::from_millis(5);
    let mut remaining = total;
    while !remaining.is_zero() {
        if cancel.is_cancelled() {
            return Err(RuntimeError::Cancelled);
        }
        let step = remaining.min(SLICE);
        std::thread::sleep(step);
        remaining -= step;
    }
    if cancel.is_cancelled() {
        return Err(RuntimeError::Cancelled);
    }
    Ok(())
}

/// Config for the out-of-process runtime simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExternalConfig {
    /// Fixed cost to start the external language runtime (per query).
    pub startup_latency: Duration,
    /// Simulated transfer bandwidth across the process boundary
    /// (bytes/second); `f64::INFINITY` disables the charge.
    pub bandwidth_bytes_per_sec: f64,
}

impl Default for ExternalConfig {
    fn default() -> Self {
        ExternalConfig {
            startup_latency: Duration::from_millis(500),
            bandwidth_bytes_per_sec: 1.0e9,
        }
    }
}

impl ExternalConfig {
    /// Zero-cost config for unit tests.
    pub fn instant() -> Self {
        ExternalConfig {
            startup_latency: Duration::ZERO,
            bandwidth_bytes_per_sec: f64::INFINITY,
        }
    }
}

/// Out-of-process scoring: serialize → worker thread → deserialize.
/// `cancel` is polled across the simulated startup and transfer sleeps —
/// the runtime layer's hook for deadline-expired serving requests.
pub fn score_out_of_process(
    pipeline: &Pipeline,
    batch: &RecordBatch,
    config: &ExternalConfig,
    cancel: &CancelToken,
) -> Result<Vec<f64>> {
    // Startup: the external runtime boots before any work happens.
    sleep_cancellable(config.startup_latency, cancel)?;
    let payload = codec::batch_to_bytes(batch);
    charge_transfer(payload.len(), config, cancel)?;

    // The "external process": a worker thread that only sees bytes.
    let (tx, rx) = mpsc::channel();
    let pipeline = pipeline.clone();
    let handle = std::thread::spawn(move || {
        let result = (|| -> Result<bytes::Bytes> {
            let batch = codec::batch_from_bytes(payload)?;
            let scores = pipeline
                .predict(&batch)
                .map_err(|e| RuntimeError::External(e.to_string()))?;
            Ok(codec::scores_to_bytes(&scores))
        })();
        let _ = tx.send(result);
    });
    let response = rx
        .recv()
        .map_err(|_| RuntimeError::External("external worker disappeared".into()))??;
    handle
        .join()
        .map_err(|_| RuntimeError::External("external worker panicked".into()))?;
    charge_transfer(response.len(), config, cancel)?;
    codec::scores_from_bytes(response)
}

/// Config for the containerized runtime simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContainerConfig {
    /// Container cold-start cost.
    pub startup_latency: Duration,
    /// Per-request HTTP round-trip latency.
    pub request_latency: Duration,
    /// Rows per REST request.
    pub rows_per_request: usize,
    /// Network bandwidth, bytes/second.
    pub bandwidth_bytes_per_sec: f64,
}

impl Default for ContainerConfig {
    fn default() -> Self {
        ContainerConfig {
            startup_latency: Duration::from_secs(2),
            request_latency: Duration::from_millis(5),
            rows_per_request: 10_000,
            bandwidth_bytes_per_sec: 1.25e8, // ~1 Gbit/s
        }
    }
}

impl ContainerConfig {
    /// Zero-cost config for unit tests.
    pub fn instant() -> Self {
        ContainerConfig {
            startup_latency: Duration::ZERO,
            request_latency: Duration::ZERO,
            rows_per_request: 10_000,
            bandwidth_bytes_per_sec: f64::INFINITY,
        }
    }
}

/// Containerized scoring: chunked REST-style requests to a worker.
/// `cancel` is polled between chunks: an expired deadline stops the
/// remaining round-trips.
pub fn score_container(
    pipeline: &Pipeline,
    batch: &RecordBatch,
    config: &ContainerConfig,
    cancel: &CancelToken,
) -> Result<Vec<f64>> {
    sleep_cancellable(config.startup_latency, cancel)?;
    let rows = batch.num_rows();
    let chunk = config.rows_per_request.max(1);
    let mut out = Vec::with_capacity(rows);
    let mut start = 0;
    while start < rows || (rows == 0 && start == 0) {
        if cancel.is_cancelled() {
            return Err(RuntimeError::Cancelled);
        }
        let end = (start + chunk).min(rows);
        let part = batch
            .slice(start, end)
            .map_err(|e| RuntimeError::Exec(e.to_string()))?;
        sleep_cancellable(config.request_latency, cancel)?;
        let external = ExternalConfig {
            startup_latency: Duration::ZERO,
            bandwidth_bytes_per_sec: config.bandwidth_bytes_per_sec,
        };
        out.extend(score_out_of_process(pipeline, &part, &external, cancel)?);
        start = end;
        if rows == 0 {
            break;
        }
    }
    Ok(out)
}

fn charge_transfer(bytes: usize, config: &ExternalConfig, cancel: &CancelToken) -> Result<()> {
    if config.bandwidth_bytes_per_sec.is_finite() && config.bandwidth_bytes_per_sec > 0.0 {
        let secs = bytes as f64 / config.bandwidth_bytes_per_sec;
        if secs > 1e-6 {
            sleep_cancellable(Duration::from_secs_f64(secs), cancel)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_data::{Column, DataType, Schema};
    use raven_ml::featurize::Transform;
    use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel};

    fn pipeline() -> Pipeline {
        Pipeline::new(
            vec![FeatureStep::new("x", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![2.0], 1.0, LinearKind::Regression).unwrap()),
        )
        .unwrap()
    }

    fn batch(n: usize) -> RecordBatch {
        let schema = Schema::from_pairs(&[("x", DataType::Float64)]).into_shared();
        RecordBatch::try_new(
            schema,
            vec![Column::Float64((0..n).map(|i| i as f64).collect())],
        )
        .unwrap()
    }

    #[test]
    fn out_of_process_matches_in_process() {
        let p = pipeline();
        let b = batch(10);
        let reference = p.predict(&b).unwrap();
        let external =
            score_out_of_process(&p, &b, &ExternalConfig::instant(), &CancelToken::new()).unwrap();
        assert_eq!(reference, external);
    }

    #[test]
    fn container_matches_in_process_across_chunks() {
        let p = pipeline();
        let b = batch(25);
        let reference = p.predict(&b).unwrap();
        let config = ContainerConfig {
            rows_per_request: 7,
            ..ContainerConfig::instant()
        };
        let scored = score_container(&p, &b, &config, &CancelToken::new()).unwrap();
        assert_eq!(reference, scored);
    }

    #[test]
    fn startup_latency_is_charged() {
        let p = pipeline();
        let b = batch(1);
        let config = ExternalConfig {
            startup_latency: Duration::from_millis(30),
            bandwidth_bytes_per_sec: f64::INFINITY,
        };
        let start = std::time::Instant::now();
        score_out_of_process(&p, &b, &config, &CancelToken::new()).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn cancellation_interrupts_startup_latency() {
        let p = pipeline();
        let b = batch(4);
        let config = ExternalConfig {
            startup_latency: Duration::from_secs(10),
            bandwidth_bytes_per_sec: f64::INFINITY,
        };
        let cancel = CancelToken::new();
        cancel.cancel();
        let start = std::time::Instant::now();
        let err = score_out_of_process(&p, &b, &config, &cancel);
        assert_eq!(err, Err(RuntimeError::Cancelled));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "cancellation must not wait out the simulated startup"
        );
        let container = ContainerConfig {
            startup_latency: Duration::from_secs(10),
            ..ContainerConfig::instant()
        };
        assert_eq!(
            score_container(&p, &b, &container, &cancel),
            Err(RuntimeError::Cancelled)
        );
    }

    #[test]
    fn empty_batch_scores_empty() {
        let p = pipeline();
        let b = batch(0);
        assert!(
            score_out_of_process(&p, &b, &ExternalConfig::instant(), &CancelToken::new())
                .unwrap()
                .is_empty()
        );
        assert!(
            score_container(&p, &b, &ContainerConfig::instant(), &CancelToken::new())
                .unwrap()
                .is_empty()
        );
    }
}
