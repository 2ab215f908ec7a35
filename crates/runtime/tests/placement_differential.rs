//! Placement differential suite: the optimizer swaps a model operator
//! between classical row-at-a-time scoring, the columnar kernel, and the
//! tensor translation *per query*, so the strategies must agree on the
//! same batch. Classical ↔ kernel must be **bitwise identical** (both
//! are f64 walks of the same tree); the tensor path computes in f32 and
//! is held to a numeric tolerance on finite inputs instead.

use proptest::collection::vec;
use proptest::prelude::*;
use raven_data::{Column, DataType, RecordBatch, Schema};
use raven_ir::{Device, ExecutionMode, ModelRef, Plan};
use raven_ml::featurize::{StandardScaler, Transform};
use raven_ml::translate::translate_pipeline;
use raven_ml::tree::TreeNode;
use raven_ml::{DecisionTree, Estimator, FeatureStep, FlatForest, Pipeline, RandomForest};
use raven_relational::{CancelToken, Scorer};
use raven_runtime::{RavenScorer, ScorerConfig};
use std::sync::Arc;

fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn grow(state: &mut u64, nodes: &mut Vec<TreeNode>, n_features: usize, depth: usize) -> usize {
    let idx = nodes.len();
    if depth == 0 || next(state).is_multiple_of(4) {
        nodes.push(TreeNode::Leaf {
            value: unit(state) * 10.0 - 5.0,
        });
        return idx;
    }
    nodes.push(TreeNode::Leaf { value: 0.0 });
    let feature = (next(state) as usize) % n_features;
    let threshold = unit(state) * 4.0 - 2.0;
    let left = grow(state, nodes, n_features, depth - 1);
    let right = grow(state, nodes, n_features, depth - 1);
    nodes[idx] = TreeNode::Split {
        feature,
        threshold,
        left,
        right,
    };
    idx
}

/// A forest pipeline over two columns, one scaled — so the kernel's
/// fused featurization is exercised, not just the raw gather.
fn forest_pipeline(seed: u64, n_trees: usize) -> Pipeline {
    let mut state = seed;
    let trees: Vec<DecisionTree> = (0..n_trees)
        .map(|_| {
            let mut nodes = Vec::new();
            grow(&mut state, &mut nodes, 2, 4);
            DecisionTree::from_nodes(nodes, 2).unwrap()
        })
        .collect();
    Pipeline::new(
        vec![
            FeatureStep::new("a", Transform::Identity),
            FeatureStep::new(
                "b",
                Transform::Scale(StandardScaler {
                    mean: 1.0,
                    std: 2.0,
                }),
            ),
        ],
        Estimator::Forest(RandomForest::from_trees(trees).unwrap()),
    )
    .unwrap()
}

fn batch_of(a: Vec<f64>, b: Vec<f64>) -> RecordBatch {
    let schema =
        Schema::from_pairs(&[("a", DataType::Float64), ("b", DataType::Float64)]).into_shared();
    RecordBatch::try_new(schema, vec![Column::Float64(a), Column::Float64(b)]).unwrap()
}

fn model_ref(pipeline: Pipeline) -> ModelRef {
    ModelRef {
        name: "m".into(),
        pipeline: Arc::new(pipeline),
    }
}

fn input_stub(batch: &RecordBatch) -> Box<Plan> {
    Box::new(Plan::Scan {
        table: "t".into(),
        schema: batch.schema().clone(),
    })
}

fn feature_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -5.0..5.0,
        Just(0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

proptest! {
    /// Classical ↔ kernel: bitwise identical, adversarial inputs included.
    #[test]
    fn classical_and_kernel_agree_bitwise(
        seed in 0..u64::MAX,
        n_trees in 1..6usize,
        a in vec(feature_value(), 0..48),
    ) {
        let mut state = seed ^ 0xabcd;
        let b: Vec<f64> = a.iter().map(|_| unit(&mut state) * 6.0 - 3.0).collect();
        let batch = batch_of(a, b);
        let model = model_ref(forest_pipeline(seed, n_trees));
        let scorer = RavenScorer::new(ScorerConfig::instant());

        let classical = scorer.score(&Plan::Predict {
            input: input_stub(&batch),
            model: model.clone(),
            output: "s".into(),
            mode: ExecutionMode::InProcess,
        }, &batch, &CancelToken::new()).unwrap();

        let flat = FlatForest::from_pipeline(&model.pipeline).unwrap();
        let kernel = scorer.score(&Plan::KernelPredict {
            input: input_stub(&batch),
            model: model.clone(),
            flat: Arc::new(flat),
            output: "s".into(),
        }, &batch, &CancelToken::new()).unwrap();

        prop_assert_eq!(classical.len(), kernel.len());
        for (r, (c, k)) in classical.iter().zip(&kernel).enumerate() {
            assert_eq!(
                c.to_bits(),
                k.to_bits(),
                "row {r}: classical {c:?} vs kernel {k:?}"
            );
        }
    }

    /// All three placements on finite inputs; the f32 tensor path is
    /// held to a tolerance, the other two to bit equality (above).
    #[test]
    fn tensor_placement_within_tolerance(
        seed in 0..u64::MAX,
        n_trees in 1..5usize,
        a in vec(-3.0..3.0f64, 1..32),
    ) {
        let mut state = seed ^ 0x1234;
        let b: Vec<f64> = a.iter().map(|_| unit(&mut state) * 4.0 - 2.0).collect();
        let batch = batch_of(a, b);
        let model = model_ref(forest_pipeline(seed, n_trees));
        let scorer = RavenScorer::new(ScorerConfig::instant());

        let flat = FlatForest::from_pipeline(&model.pipeline).unwrap();
        let kernel = scorer.score(&Plan::KernelPredict {
            input: input_stub(&batch),
            model: model.clone(),
            flat: Arc::new(flat),
            output: "s".into(),
        }, &batch, &CancelToken::new()).unwrap();

        let graph = Arc::new(translate_pipeline(&model.pipeline).unwrap());
        let tensor = scorer.score(&Plan::TensorPredict {
            input: input_stub(&batch),
            model: model.clone(),
            graph,
            output: "s".into(),
            device: Device::CpuSingle,
        }, &batch, &CancelToken::new()).unwrap();

        prop_assert_eq!(kernel.len(), tensor.len());
        for (r, (k, t)) in kernel.iter().zip(&tensor).enumerate() {
            let tol = 1e-3 * k.abs().max(1.0);
            assert!(
                (k - t).abs() <= tol,
                "row {r}: kernel {k} vs tensor {t} (tol {tol})"
            );
        }
    }
}
