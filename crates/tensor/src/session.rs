//! Inference sessions, batched execution, and the session cache.

use crate::compiled::Compiled;
pub use crate::compiled::BLOCK_ROWS;
use crate::device::{Device, RunStats};
use crate::error::TensorError;
use crate::graph::Graph;
use crate::optimize::{self, OptimizeReport};
use crate::tensor::Tensor;
use crate::Result;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Options controlling session construction and execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionOptions {
    /// Run graph optimization passes at session creation.
    pub optimize: bool,
    /// Execution device.
    pub device: Device,
    /// Rows per execution batch for [`InferenceSession::run_batched`].
    /// `0` means "score the whole input in one call". The paper reports
    /// ~an order of magnitude win from batching over per-tuple scoring
    /// (§5, observation v) — reproduce it by setting this to 1.
    pub batch_size: usize,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            optimize: true,
            device: Device::default(),
            batch_size: 0,
        }
    }
}

/// An optimized, executable model: the analogue of an ONNX Runtime
/// inference session.
///
/// Construction validates and optimizes the graph, then lowers it once
/// into a fixed schedule (see the `compiled` module): an execution order
/// with slot-indexed values, packed finite weights for a branch-free
/// GEMM, and — for row-separable graphs — execution in [`BLOCK_ROWS`]-row
/// blocks. Every run returns what [`Graph::run`] returns on the optimized
/// graph, bit for bit, with the same FLOP count.
#[derive(Debug)]
pub struct InferenceSession {
    graph: Graph,
    compiled: Compiled,
    options: SessionOptions,
    report: OptimizeReport,
}

impl InferenceSession {
    /// Validate, optimize (unless disabled), lower and wrap a graph.
    pub fn new(mut graph: Graph, options: SessionOptions) -> Result<Self> {
        graph.validate()?;
        let report = if options.optimize {
            optimize::optimize(&mut graph)?
        } else {
            OptimizeReport::default()
        };
        let compiled = Compiled::new(&graph)?;
        Ok(InferenceSession {
            graph,
            compiled,
            options,
            report,
        })
    }

    /// The (optimized) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// What the optimizer did at creation.
    pub fn optimize_report(&self) -> &OptimizeReport {
        &self.report
    }

    /// Session options.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Execute once with named inputs.
    pub fn run(&self, inputs: &HashMap<String, Tensor>) -> Result<(Vec<Tensor>, RunStats)> {
        let transferred: u64 = inputs.values().map(tensor_bytes).sum();
        self.run_bound(|name| inputs.get(name), transferred)
    }

    /// Execute with the single matrix `input` bound to `name`, without
    /// copying it into a name-keyed map.
    fn run_one(&self, name: &str, input: &Tensor) -> Result<(Vec<Tensor>, RunStats)> {
        self.run_bound(|n| (n == name).then_some(input), tensor_bytes(input))
    }

    /// Bind every graph input through `lookup`, run the compiled graph
    /// and price the run on the session's device.
    fn run_bound<'a>(
        &self,
        lookup: impl Fn(&str) -> Option<&'a Tensor>,
        transferred: u64,
    ) -> Result<(Vec<Tensor>, RunStats)> {
        let bound = self
            .graph
            .inputs
            .iter()
            .map(|name| lookup(name).ok_or_else(|| TensorError::NameNotFound(name.clone())))
            .collect::<Result<Vec<_>>>()?;
        let start = Instant::now();
        let (outputs, flops) = self.compiled.run(&self.graph, &bound)?;
        let wall = start.elapsed();
        let transferred_bytes = transferred + outputs.iter().map(tensor_bytes).sum::<u64>();
        let stats = RunStats {
            wall,
            simulated: self.options.device.simulate(wall, flops, transferred_bytes),
            flops,
            transferred_bytes,
        };
        Ok((outputs, stats))
    }

    /// Score a single `[rows, features]` matrix bound to input
    /// `input_name`, splitting rows into batches per
    /// [`SessionOptions::batch_size`] and running batches in parallel
    /// across the device's thread budget.
    ///
    /// Outputs are concatenated back in row order. Every graph output must
    /// have one row (or element, for rank-1 outputs) per input row.
    pub fn run_batched(
        &self,
        input_name: &str,
        matrix: &Tensor,
    ) -> Result<(Vec<Tensor>, RunStats)> {
        if matrix.rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                expected: "rank-2 input".into(),
                actual: format!("rank {}", matrix.rank()),
            });
        }
        let rows = matrix.rows();
        let batch = if self.options.batch_size == 0 {
            rows.max(1)
        } else {
            self.options.batch_size
        };
        if rows <= batch {
            return self.run_one(input_name, matrix);
        }

        // Build row ranges.
        let mut ranges = Vec::with_capacity(rows.div_ceil(batch));
        let mut start = 0;
        while start < rows {
            let end = (start + batch).min(rows);
            ranges.push((start, end));
            start = end;
        }

        let threads = self.options.device.threads().min(ranges.len()).max(1);
        let cols = matrix.cols();
        let slice_rows = |lo: usize, hi: usize| -> Result<Tensor> {
            Tensor::matrix(hi - lo, cols, matrix.data()[lo * cols..hi * cols].to_vec())
        };

        let mut results: Vec<Option<(Vec<Tensor>, RunStats)>> = Vec::new();
        results.resize_with(ranges.len(), || None);

        if threads == 1 {
            for (i, &(lo, hi)) in ranges.iter().enumerate() {
                results[i] = Some(self.run_one(input_name, &slice_rows(lo, hi)?)?);
            }
        } else {
            // Morsel-parallel execution: chunks of batches per worker. This
            // reproduces SQL Server's automatic parallelization of
            // scan+PREDICT (Fig. 3, observation iii).
            let errors = parking_lot::Mutex::new(Vec::<TensorError>::new());
            let chunk = ranges.len().div_ceil(threads);
            crossbeam::thread::scope(|scope| {
                for (slot, range_chunk) in results.chunks_mut(chunk).zip(ranges.chunks(chunk)) {
                    let errors = &errors;
                    let slice_rows = &slice_rows;
                    scope.spawn(move |_| {
                        for (out, &(lo, hi)) in slot.iter_mut().zip(range_chunk) {
                            let attempt = slice_rows(lo, hi)
                                .and_then(|batch| self.run_one(input_name, &batch));
                            match attempt {
                                Ok(v) => *out = Some(v),
                                Err(e) => errors.lock().push(e),
                            }
                        }
                    });
                }
            })
            .map_err(|_| TensorError::Internal("worker panicked".into()))?;
            if let Some(e) = errors.into_inner().into_iter().next() {
                return Err(e);
            }
        }

        // Stitch outputs back together in row order.
        let parts: Vec<(Vec<Tensor>, RunStats)> = results
            .into_iter()
            .map(|r| r.ok_or_else(|| TensorError::Internal("missing batch result".into())))
            .collect::<Result<_>>()?;
        let n_outputs = parts[0].0.len();
        let mut stats = RunStats::default();
        let mut wall_max = std::time::Duration::ZERO;
        for (_, s) in &parts {
            stats.flops += s.flops;
            stats.transferred_bytes += s.transferred_bytes;
            stats.simulated += s.simulated;
            wall_max = wall_max.max(s.wall);
            stats.wall += s.wall;
        }
        if threads > 1 {
            // Parallel batches overlap: report aggregate CPU time scaled by
            // the actual overlap rather than the sum.
            stats.wall =
                std::time::Duration::from_secs_f64(stats.wall.as_secs_f64() / threads as f64)
                    .max(wall_max);
            stats.simulated = stats.wall;
        }
        let mut outputs = Vec::with_capacity(n_outputs);
        for o in 0..n_outputs {
            let pieces: Vec<Tensor> = parts
                .iter()
                .map(|(outs, _)| {
                    let t = &outs[o];
                    if t.rank() == 1 {
                        // Normalize vectors to [n,1] so vstack applies.
                        t.clone().reshape(vec![t.numel(), 1])
                    } else {
                        Ok(t.clone())
                    }
                })
                .collect::<Result<_>>()?;
            let stacked = Tensor::vstack(&pieces)?;
            // Restore rank-1 shape if the original output was a vector.
            let original_rank1 = parts[0].0[o].rank() == 1;
            outputs.push(if original_rank1 {
                let n = stacked.numel();
                stacked.reshape(vec![n])?
            } else {
                stacked
            });
        }
        Ok((outputs, stats))
    }
}

/// Bytes a tensor moves across the host/device boundary.
fn tensor_bytes(t: &Tensor) -> u64 {
    (t.numel() * std::mem::size_of::<f32>()) as u64
}

/// Cache of live inference sessions keyed by model identity.
///
/// SQL Server keeps models and inference sessions cached across queries;
/// the paper credits this for Raven beating standalone ONNX Runtime on
/// small datasets (Fig. 3, observation ii: 3 ms vs 20 ms at 100 tuples,
/// where ORT must reload the model from disk). `SessionCache::get_or_create`
/// is that mechanism: the first query pays graph deserialization +
/// optimization; later queries get the `Arc`'d session for free.
#[derive(Debug, Default)]
pub struct SessionCache {
    sessions: RwLock<HashMap<String, Arc<InferenceSession>>>,
    hits: RwLock<u64>,
    misses: RwLock<u64>,
}

impl SessionCache {
    pub fn new() -> Self {
        SessionCache::default()
    }

    /// Fetch the session for `key`, building it with `make` on a miss.
    pub fn get_or_create(
        &self,
        key: &str,
        make: impl FnOnce() -> Result<(Graph, SessionOptions)>,
    ) -> Result<Arc<InferenceSession>> {
        if let Some(hit) = self.sessions.read().get(key) {
            *self.hits.write() += 1;
            return Ok(hit.clone());
        }
        *self.misses.write() += 1;
        let (graph, options) = make()?;
        let session = Arc::new(InferenceSession::new(graph, options)?);
        self.sessions
            .write()
            .insert(key.to_string(), session.clone());
        Ok(session)
    }

    /// Drop a cached session (e.g. the model was updated transactionally).
    pub fn invalidate(&self, key: &str) {
        self.sessions.write().remove(key);
    }

    /// Drop every cached session whose key starts with `prefix` (used to
    /// invalidate all device/variant sessions of one model).
    pub fn invalidate_prefix(&self, prefix: &str) {
        self.sessions.write().retain(|k, _| !k.starts_with(prefix));
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.sessions.write().clear();
    }

    /// (hits, misses) counters.
    pub fn stats(&self) -> (u64, u64) {
        (*self.hits.read(), *self.misses.read())
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.sessions.read().len()
    }

    /// True if no sessions are cached.
    pub fn is_empty(&self) -> bool {
        self.sessions.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ops::Op;

    /// y = relu(x·W + b): one hidden value per row.
    fn mlp_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input("x");
        let w = b.initializer(
            "w",
            Tensor::matrix(3, 2, vec![1., 0., 0., 1., 1., 1.]).unwrap(),
        );
        let bias = b.initializer("b", Tensor::vector(vec![0.0, -1.0]));
        let mm = b.node(Op::MatMul, &[&x, &w]);
        let z = b.node(Op::Add, &[&mm, &bias]);
        let y = b.node(Op::Relu, &[&z]);
        b.output(y);
        b.build().unwrap()
    }

    fn x(rows: usize) -> Tensor {
        let data: Vec<f32> = (0..rows * 3).map(|i| (i % 7) as f32).collect();
        Tensor::matrix(rows, 3, data).unwrap()
    }

    #[test]
    fn session_optimizes_on_creation() {
        let s = InferenceSession::new(mlp_graph(), SessionOptions::default()).unwrap();
        assert_eq!(s.optimize_report().fused_gemms, 1);
        assert!(s
            .graph()
            .nodes
            .iter()
            .any(|n| matches!(n.op, Op::Gemm { .. })));
    }

    #[test]
    fn optimization_can_be_disabled() {
        let s = InferenceSession::new(
            mlp_graph(),
            SessionOptions {
                optimize: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(s.optimize_report().fused_gemms, 0);
    }

    #[test]
    fn run_produces_stats() {
        let s = InferenceSession::new(mlp_graph(), SessionOptions::default()).unwrap();
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), x(4));
        let (outs, stats) = s.run(&inputs).unwrap();
        assert_eq!(outs[0].shape(), &[4, 2]);
        assert!(stats.flops > 0);
        assert!(stats.transferred_bytes > 0);
    }

    #[test]
    fn batched_equals_single_shot() {
        let whole = InferenceSession::new(mlp_graph(), SessionOptions::default()).unwrap();
        let batched = InferenceSession::new(
            mlp_graph(),
            SessionOptions {
                batch_size: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let input = x(10);
        let (a, _) = whole.run_batched("x", &input).unwrap();
        let (b, _) = batched.run_batched("x", &input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_batched_equals_serial() {
        let serial = InferenceSession::new(
            mlp_graph(),
            SessionOptions {
                batch_size: 8,
                device: Device::Cpu { threads: 1 },
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = InferenceSession::new(
            mlp_graph(),
            SessionOptions {
                batch_size: 8,
                device: Device::Cpu { threads: 4 },
                ..Default::default()
            },
        )
        .unwrap();
        let input = x(100);
        let (a, _) = serial.run_batched("x", &input).unwrap();
        let (b, _) = parallel.run_batched("x", &input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gpu_results_identical_to_cpu() {
        let cpu = InferenceSession::new(mlp_graph(), SessionOptions::default()).unwrap();
        let gpu = InferenceSession::new(
            mlp_graph(),
            SessionOptions {
                device: Device::simulated_gpu(),
                ..Default::default()
            },
        )
        .unwrap();
        let input = x(16);
        let (a, _) = cpu.run_batched("x", &input).unwrap();
        let (b, stats) = gpu.run_batched("x", &input).unwrap();
        assert_eq!(a, b, "simulated GPU must be bit-identical");
        // Simulated time includes the launch-latency floor.
        assert!(stats.simulated >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn batched_rejects_vector_input() {
        let s = InferenceSession::new(mlp_graph(), SessionOptions::default()).unwrap();
        assert!(s
            .run_batched("x", &Tensor::vector(vec![1.0, 2.0, 3.0]))
            .is_err());
    }

    #[test]
    fn cache_hits_and_invalidation() {
        let cache = SessionCache::new();
        let make = || Ok((mlp_graph(), SessionOptions::default()));
        let a = cache.get_or_create("m1", make).unwrap();
        let b = cache
            .get_or_create("m1", || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);

        cache.invalidate("m1");
        assert!(cache.is_empty());
        let _ = cache
            .get_or_create("m1", || Ok((mlp_graph(), SessionOptions::default())))
            .unwrap();
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn cache_prefix_invalidation() {
        let cache = SessionCache::new();
        for key in ["m@cpu1@abc", "m@gpu@def", "other@cpu1@xyz"] {
            cache
                .get_or_create(key, || Ok((mlp_graph(), SessionOptions::default())))
                .unwrap();
        }
        assert_eq!(cache.len(), 3);
        cache.invalidate_prefix("m@");
        assert_eq!(cache.len(), 1);
        // The surviving entry is still a cache hit.
        cache
            .get_or_create("other@cpu1@xyz", || panic!("must not rebuild"))
            .unwrap();
    }

    #[test]
    fn cache_error_propagates_and_does_not_poison() {
        let cache = SessionCache::new();
        let err = cache.get_or_create("bad", || Err(TensorError::Internal("boom".into())));
        assert!(err.is_err());
        assert!(cache.is_empty());
        assert!(cache
            .get_or_create("bad", || Ok((mlp_graph(), SessionOptions::default())))
            .is_ok());
    }
}
