//! The Raven scorer: dispatches model operators to their engines.

use crate::external::{score_container, score_out_of_process, ContainerConfig, ExternalConfig};
use crate::Result;
use raven_data::RecordBatch;
use raven_ir::{Device, ExecutionMode, Plan};
use raven_relational::{CancelToken, ExecError, Scorer};
use raven_tensor::{
    Device as TensorDevice, Graph, InferenceSession, SessionCache, SessionOptions, Tensor,
};
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// Scorer configuration.
#[derive(Debug, Clone, Default)]
pub struct ScorerConfig {
    /// Out-of-process runtime costs (Raven Ext).
    pub external: ExternalConfig,
    /// Container runtime costs.
    pub container: ContainerConfig,
    /// Rows per tensor-runtime execution batch (0 = whole morsel at once).
    /// The paper gains ~an order of magnitude from batch inference
    /// (§5 observation v); set to 1 to reproduce per-tuple scoring.
    pub tensor_batch_size: usize,
}

impl ScorerConfig {
    /// Zero-latency externals (unit tests).
    pub fn instant() -> Self {
        ScorerConfig {
            external: ExternalConfig::instant(),
            container: ContainerConfig::instant(),
            tensor_batch_size: 0,
        }
    }
}

/// Implements [`raven_relational::Scorer`] for all of Raven's model
/// operators, owning the inference-session cache that reproduces SQL
/// Server's model/session caching (Fig. 3, observation ii).
pub struct RavenScorer {
    config: ScorerConfig,
    sessions: SessionCache,
    /// Content fingerprints of translated graphs, memoized by `Arc`
    /// address: optimizer rewrites (pruning, projection pushdown) produce
    /// *variants* of a stored model that must not collide in the session
    /// cache, and hashing a big graph on every call is not free.
    ///
    /// Each entry holds a `Weak` to the graph it keyed. While it lives,
    /// the graph's allocation cannot be freed, so no other graph can
    /// take that address and a hit is always the graph that was hashed;
    /// once every plan drops the graph the entry is stale (its strong
    /// count is 0) and is swept. So the memo never keys by a freed
    /// address, and it holds little more than the graphs plans still use.
    fingerprints: parking_lot::Mutex<HashMap<usize, (Weak<Graph>, u64)>>,
}

/// Memo size at which [`RavenScorer::graph_fingerprint`] first sweeps
/// stale entries (then again at every power of two).
const FINGERPRINT_SWEEP_MIN: usize = 64;

impl RavenScorer {
    pub fn new(config: ScorerConfig) -> Self {
        RavenScorer {
            config,
            sessions: SessionCache::new(),
            fingerprints: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// Stable content hash of a graph (memoized per live `Arc`).
    fn graph_fingerprint(&self, graph: &Arc<Graph>) -> u64 {
        use std::hash::{Hash, Hasher};
        let key = Arc::as_ptr(graph) as usize;
        if let Some(&(_, fp)) = self.fingerprints.lock().get(&key) {
            return fp;
        }
        let bytes = raven_tensor::serialize::to_bytes(graph);
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        bytes.hash(&mut hasher);
        let fp = hasher.finish();
        let mut memo = self.fingerprints.lock();
        memo.insert(key, (Arc::downgrade(graph), fp));
        if memo.len() >= FINGERPRINT_SWEEP_MIN && memo.len().is_power_of_two() {
            memo.retain(|_, (weak, _)| weak.strong_count() > 0);
        }
        fp
    }

    /// Session-cache counters `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.sessions.stats()
    }

    /// Drop cached sessions (e.g. after a transactional model update).
    pub fn invalidate(&self, model_name: &str) {
        // Sessions are keyed `name@device@fingerprint`; clear all variants.
        self.sessions.invalidate_prefix(&format!("{model_name}@"));
    }

    fn tensor_session(
        &self,
        model_name: &str,
        graph: &Arc<Graph>,
        device: Device,
    ) -> Result<Arc<InferenceSession>> {
        let key_device = match device {
            Device::CpuSingle => "cpu1",
            Device::CpuParallel => "cpuN",
            Device::Gpu => "gpu",
        };
        let fingerprint = self.graph_fingerprint(graph);
        let key = format!("{model_name}@{key_device}@{fingerprint:x}");
        let batch_size = self.config.tensor_batch_size;
        let session = self.sessions.get_or_create(&key, || {
            // Built on a session-cache miss only: `cpu_parallel` reads the
            // core count, which is not free on every call.
            let device = match device {
                Device::CpuSingle => TensorDevice::cpu_single(),
                Device::CpuParallel => TensorDevice::cpu_parallel(),
                Device::Gpu => TensorDevice::simulated_gpu(),
            };
            Ok((
                graph.as_ref().clone(),
                SessionOptions {
                    optimize: true,
                    device,
                    batch_size,
                },
            ))
        })?;
        Ok(session)
    }

    fn score_tensor(
        &self,
        model: &raven_ir::ModelRef,
        graph: &Arc<Graph>,
        device: Device,
        batch: &RecordBatch,
    ) -> Result<Vec<f64>> {
        let session = self.tensor_session(&model.name, graph, device)?;
        let raw = model.pipeline.encode_inputs(batch)?;
        let rows = batch.num_rows();
        let cols = model.pipeline.steps().len();
        if rows == 0 {
            return Ok(Vec::new());
        }
        let input = Tensor::matrix(rows, cols, raw.iter().map(|&v| v as f32).collect())?;
        let (outputs, _stats) = session.run_batched(raven_ml::translate::INPUT_NAME, &input)?;
        // A graph without outputs is a malformed artifact, not a reason to
        // kill the executor thread: degrade to a typed error.
        let out = outputs.first().ok_or_else(|| {
            crate::RuntimeError::Tensor(format!(
                "translated graph for model '{}' produced no outputs",
                model.name
            ))
        })?;
        Ok(out.data().iter().map(|&v| v as f64).collect())
    }

    /// Columnar-kernel scoring: encode raw inputs once for the morsel,
    /// then run the flattened ensemble's branchless batch traversal. The
    /// flat layout carries its arity, so a malformed morsel surfaces as a
    /// typed [`raven_ml::MlError::DimensionMismatch`] on the wire.
    fn score_kernel(
        &self,
        model: &raven_ir::ModelRef,
        flat: &raven_ml::FlatForest,
        batch: &RecordBatch,
    ) -> Result<Vec<f64>> {
        let raw = model.pipeline.encode_inputs(batch)?;
        Ok(flat.score_raw(&raw, batch.num_rows())?)
    }

    fn score_clustered(
        &self,
        model: &raven_ir::ModelRef,
        kmeans: &raven_ml::KMeans,
        route_columns: &[String],
        cluster_models: &[Arc<raven_ml::Pipeline>],
        batch: &RecordBatch,
    ) -> Result<Vec<f64>> {
        let rows = batch.num_rows();
        if rows == 0 {
            return Ok(Vec::new());
        }
        // Route rows on the raw encoding of the routing columns (matching
        // how the router was fitted offline).
        let routing = routing_matrix_for(&model.pipeline, batch, route_columns)?;
        let assignments = kmeans.assign_batch(&routing, rows)?;
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); cluster_models.len()];
        let mut fallback_rows: Vec<usize> = Vec::new();
        for (r, &c) in assignments.iter().enumerate() {
            if c < cluster_models.len() {
                groups[c].push(r);
            } else {
                fallback_rows.push(r);
            }
        }
        let mut out = vec![0.0f64; rows];
        for (c, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // A cluster covering every row (k=1, or skewed routing) scores
            // the batch directly — no gather needed.
            if group.len() == rows {
                return Ok(cluster_models[c].predict(batch)?);
            }
            let sub = batch.take(group)?;
            let preds = cluster_models[c].predict(&sub)?;
            for (&r, p) in group.iter().zip(preds) {
                out[r] = p;
            }
        }
        if !fallback_rows.is_empty() {
            let sub = batch.take(&fallback_rows)?;
            let preds = model.pipeline.predict(&sub)?;
            for (&r, p) in fallback_rows.iter().zip(preds) {
                out[r] = p;
            }
        }
        Ok(out)
    }
}

/// Raw routing matrix for clustered prediction: one encoded value per
/// (row, route column), using the pipeline's transforms (categorical →
/// index). Mirrors `raven_opt::rules::clustering::routing_matrix`, which
/// fits the router offline (the runtime layer cannot depend on the
/// optimizer crate).
fn routing_matrix_for(
    pipeline: &raven_ml::Pipeline,
    batch: &RecordBatch,
    route_columns: &[String],
) -> Result<Vec<f64>> {
    let rows = batch.num_rows();
    let mut cols = Vec::with_capacity(route_columns.len());
    for name in route_columns {
        let step = pipeline
            .steps()
            .iter()
            .find(|s| &s.column == name)
            .ok_or_else(|| {
                crate::RuntimeError::Internal(format!("route column {name} not in pipeline"))
            })?;
        let col = batch.column_by_name(name)?;
        cols.push(step.transform.encode_raw(col)?);
    }
    let dim = cols.len();
    let mut out = vec![0.0f64; rows * dim];
    for (j, col) in cols.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            out[i * dim + j] = v;
        }
    }
    Ok(out)
}

impl Scorer for RavenScorer {
    /// `cancel` is polled across the simulated external-runtime and
    /// container sleeps, so an abandoned request stops consuming the
    /// scorer instead of running to completion.
    fn score(
        &self,
        node: &Plan,
        batch: &RecordBatch,
        cancel: &CancelToken,
    ) -> raven_relational::Result<Vec<f64>> {
        let run = || -> Result<Vec<f64>> {
            match node {
                Plan::Predict { model, mode, .. } => match mode {
                    ExecutionMode::InProcess => Ok(model.pipeline.predict(batch)?),
                    ExecutionMode::OutOfProcess => {
                        score_out_of_process(&model.pipeline, batch, &self.config.external, cancel)
                    }
                    ExecutionMode::Container => {
                        score_container(&model.pipeline, batch, &self.config.container, cancel)
                    }
                },
                Plan::TensorPredict {
                    model,
                    graph,
                    device,
                    ..
                } => self.score_tensor(model, graph, *device, batch),
                Plan::KernelPredict { model, flat, .. } => self.score_kernel(model, flat, batch),
                Plan::ClusteredPredict {
                    model,
                    kmeans,
                    route_columns,
                    cluster_models,
                    ..
                } => self.score_clustered(model, kmeans, route_columns, cluster_models, batch),
                Plan::Udf { name, .. } => Err(crate::RuntimeError::Exec(format!(
                    "UDF {name} is not executable (the paper treats UDFs as opaque; \
                     train or register the model to replace it)"
                ))),
                other => Err(crate::RuntimeError::Internal(format!(
                    "scorer invoked on non-model operator {}",
                    other.label()
                ))),
            }
        };
        run().map_err(|e| match e {
            crate::RuntimeError::Cancelled => ExecError::Cancelled,
            e => ExecError::Scoring(e.to_string()),
        })
    }

    fn parallelizable(&self, node: &Plan) -> bool {
        // External runtimes are single processes: one startup, one stream.
        !matches!(
            node,
            Plan::Predict {
                mode: ExecutionMode::OutOfProcess | ExecutionMode::Container,
                ..
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_data::{Column, DataType, Schema};
    use raven_ir::ModelRef;
    use raven_ml::featurize::Transform;
    use raven_ml::translate::translate_pipeline;
    use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};

    fn pipeline() -> Pipeline {
        Pipeline::new(
            vec![FeatureStep::new("x", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![3.0], -1.0, LinearKind::Regression).unwrap()),
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

    fn model_ref() -> ModelRef {
        ModelRef {
            name: "m".into(),
            pipeline: Arc::new(pipeline()),
        }
    }

    fn dummy_input(n: usize) -> Box<Plan> {
        Box::new(Plan::Scan {
            table: "t".into(),
            schema: batch(n).schema().clone(),
        })
    }

    #[test]
    fn all_execution_modes_agree() {
        let scorer = RavenScorer::new(ScorerConfig::instant());
        let b = batch(8);
        let reference = pipeline().predict(&b).unwrap();
        for mode in [
            ExecutionMode::InProcess,
            ExecutionMode::OutOfProcess,
            ExecutionMode::Container,
        ] {
            let node = Plan::Predict {
                input: dummy_input(8),
                model: model_ref(),
                output: "s".into(),
                mode,
            };
            assert_eq!(
                scorer.score(&node, &b, &CancelToken::new()).unwrap(),
                reference,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn tensor_predict_matches_reference() {
        let scorer = RavenScorer::new(ScorerConfig::instant());
        let b = batch(16);
        let reference = pipeline().predict(&b).unwrap();
        let graph = Arc::new(translate_pipeline(&pipeline()).unwrap());
        for device in [Device::CpuSingle, Device::CpuParallel, Device::Gpu] {
            let node = Plan::TensorPredict {
                input: dummy_input(16),
                model: model_ref(),
                graph: graph.clone(),
                output: "s".into(),
                device,
            };
            let scored = scorer.score(&node, &b, &CancelToken::new()).unwrap();
            for (a, e) in scored.iter().zip(&reference) {
                assert!((a - e).abs() < 1e-4, "{device:?}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn session_cache_hits_across_calls() {
        let scorer = RavenScorer::new(ScorerConfig::instant());
        let graph = Arc::new(translate_pipeline(&pipeline()).unwrap());
        let node = Plan::TensorPredict {
            input: dummy_input(4),
            model: model_ref(),
            graph,
            output: "s".into(),
            device: Device::CpuSingle,
        };
        let b = batch(4);
        scorer.score(&node, &b, &CancelToken::new()).unwrap();
        scorer.score(&node, &b, &CancelToken::new()).unwrap();
        let (hits, misses) = scorer.cache_stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, 1);
        // Invalidation forces a rebuild.
        scorer.invalidate("m");
        scorer.score(&node, &b, &CancelToken::new()).unwrap();
        assert_eq!(scorer.cache_stats().1, 2);
    }

    #[test]
    fn fingerprint_memo_drops_graphs_plans_dropped() {
        let scorer = RavenScorer::new(ScorerConfig::instant());
        let kept = Arc::new(translate_pipeline(&pipeline()).unwrap());
        let fp = scorer.graph_fingerprint(&kept);
        for _ in 0..1_000 {
            let graph = Arc::new(translate_pipeline(&pipeline()).unwrap());
            // Same content, same fingerprint, whatever the address.
            assert_eq!(scorer.graph_fingerprint(&graph), fp);
        }
        let memo = scorer.fingerprints.lock();
        assert!(
            memo.len() <= 2 * FINGERPRINT_SWEEP_MIN,
            "{} entries",
            memo.len()
        );
        assert!(memo.contains_key(&(Arc::as_ptr(&kept) as usize)));
    }

    #[test]
    fn clustered_predict_routes_rows() {
        use raven_ml::kmeans::{KMeans, KMeansParams};
        let scorer = RavenScorer::new(ScorerConfig::instant());
        let b = batch(10);
        // Two clusters: x < 5 and x >= 5 (1-D k-means).
        let raw = pipeline().encode_inputs(&b).unwrap();
        let km = KMeans::fit(
            &raw,
            1,
            &KMeansParams {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let node = Plan::ClusteredPredict {
            input: dummy_input(10),
            model: model_ref(),
            kmeans: Arc::new(km),
            route_columns: vec!["x".into()],
            cluster_models: vec![Arc::new(pipeline()), Arc::new(pipeline())],
            output: "s".into(),
        };
        let reference = pipeline().predict(&b).unwrap();
        assert_eq!(
            scorer.score(&node, &b, &CancelToken::new()).unwrap(),
            reference
        );
    }

    #[test]
    fn udf_rejected() {
        let scorer = RavenScorer::new(ScorerConfig::instant());
        let node = Plan::Udf {
            input: dummy_input(1),
            name: "magic".into(),
            inputs: vec![],
            output: "o".into(),
        };
        assert!(scorer.score(&node, &batch(1), &CancelToken::new()).is_err());
    }

    #[test]
    fn external_not_parallelizable() {
        let scorer = RavenScorer::new(ScorerConfig::instant());
        let external = Plan::Predict {
            input: dummy_input(1),
            model: model_ref(),
            output: "s".into(),
            mode: ExecutionMode::OutOfProcess,
        };
        assert!(!scorer.parallelizable(&external));
        let inproc = Plan::Predict {
            input: dummy_input(1),
            model: model_ref(),
            output: "s".into(),
            mode: ExecutionMode::InProcess,
        };
        assert!(scorer.parallelizable(&inproc));
    }
}
