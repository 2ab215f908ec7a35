//! Compiled-session differential suite: an [`InferenceSession`] lowers
//! its graph once — fixed order, slot-indexed values, packed finite
//! weights for a branch-free GEMM, row-separable graphs in
//! [`BLOCK_ROWS`]-row blocks — and every run must equal the reference
//! interpreter, [`Graph::run`] on the session's own graph, bit for bit
//! (`f32::to_bits`), with the same FLOP count; a graph the reference
//! rejects must be rejected too.
//!
//! One allowance: a NaN matches any NaN. Which NaN an operation returns
//! when both operands are NaN — `NaN(+) + NaN(−)` after, say, `x · 1`
//! and `∞ · 0` meet in one sum — is left unspecified by Rust's float
//! semantics, and the compiler picks it per call site by operand order;
//! the interpreter itself may pick differently in two builds. Every
//! other value, −0.0 included, must match exactly, and NaN must appear
//! in exactly the same places.
//!
//! Graphs: NN translations of random linear, logistic, MLP, tree and
//! forest pipelines (scalers and one-hot steps included), and random
//! hand-built graphs over every operator, including shapes that cannot
//! run blocked or cannot run at all. Inputs carry many exact zeros,
//! −0.0, NaN and ±∞; some weight matrices carry NaN or ±∞, which keeps
//! the reference (zero-skipping) GEMM kernel. Row counts straddle the
//! block size: 0, 1, `BLOCK_ROWS − 1`, `BLOCK_ROWS`, `BLOCK_ROWS + 1` and
//! `3 · BLOCK_ROWS + 7`.

use proptest::prelude::*;
use raven_ml::featurize::{OneHotEncoder, StandardScaler, Transform};
use raven_ml::mlp::Layer;
use raven_ml::translate::{translate_pipeline, INPUT_NAME};
use raven_ml::tree::TreeNode;
use raven_ml::{
    DecisionTree, Estimator, FeatureStep, LinearKind, LinearModel, Mlp, Pipeline, RandomForest,
};
use raven_tensor::{
    Device, Graph, GraphBuilder, InferenceSession, Op, SessionOptions, Tensor, BLOCK_ROWS,
};
use std::collections::HashMap;

/// SplitMix64: the proptest shim supplies one seed per case, and the
/// graph and input generators draw from this stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A finite value in `[-4, 4)`, exactly zero one time in three.
    fn weight(&mut self) -> f64 {
        if self.chance(3) {
            0.0
        } else {
            self.unit() * 8.0 - 4.0
        }
    }

    /// An input value: mostly zeros and small finite values, sometimes
    /// −0.0, NaN or ±∞.
    fn value(&mut self) -> f32 {
        const SPECIAL: [f32; 4] = [-0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        match self.below(12) {
            0..=3 => 0.0,
            4 => SPECIAL[self.below(SPECIAL.len())],
            _ => (self.unit() * 8.0 - 4.0) as f32,
        }
    }
}

const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// The row counts every case runs at.
fn row_counts() -> [usize; 6] {
    [
        0,
        1,
        BLOCK_ROWS - 1,
        BLOCK_ROWS,
        BLOCK_ROWS + 1,
        3 * BLOCK_ROWS + 7,
    ]
}

fn random_input(g: &mut Gen, rows: usize, cols: usize) -> Tensor {
    Tensor::matrix(rows, cols, (0..rows * cols).map(|_| g.value()).collect()).unwrap()
}

/// Random weights; one matrix in `non_finite_one_in` gets a NaN or ±∞.
fn weights(g: &mut Gen, len: usize, non_finite_one_in: usize) -> Vec<f64> {
    let mut w: Vec<f64> = (0..len).map(|_| g.weight()).collect();
    if len > 0 && g.chance(non_finite_one_in) {
        let at = g.below(len);
        w[at] = NON_FINITE[g.below(NON_FINITE.len())];
    }
    w
}

fn random_tree(g: &mut Gen, n_features: usize, depth: usize) -> DecisionTree {
    fn grow(g: &mut Gen, nodes: &mut Vec<TreeNode>, n_features: usize, depth: usize) -> usize {
        let idx = nodes.len();
        nodes.push(TreeNode::Leaf {
            value: g.weight() * 5.0,
        });
        if depth == 0 || g.chance(4) {
            return idx;
        }
        let feature = g.below(n_features);
        let threshold = g.weight();
        let left = grow(g, nodes, n_features, depth - 1);
        let right = grow(g, nodes, n_features, depth - 1);
        nodes[idx] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        idx
    }
    let mut nodes = Vec::new();
    grow(g, &mut nodes, n_features, depth);
    DecisionTree::from_nodes(nodes, n_features).unwrap()
}

/// A random pipeline of 1–3 steps and one of the five estimator kinds.
fn random_pipeline(g: &mut Gen, kind: usize) -> Pipeline {
    let n_steps = 1 + g.below(3);
    let steps: Vec<FeatureStep> = (0..n_steps)
        .map(|i| {
            let transform = match g.below(4) {
                0 => Transform::Scale(StandardScaler {
                    mean: g.weight(),
                    std: 0.5 + g.unit(),
                }),
                1 => Transform::OneHot(
                    OneHotEncoder::new((0..1 + g.below(3)).map(|c| format!("c{c}")).collect())
                        .unwrap(),
                ),
                _ => Transform::Identity,
            };
            FeatureStep::new(format!("x{i}"), transform)
        })
        .collect();
    let n_features: usize = steps.iter().map(|s| s.transform.n_outputs()).sum();
    let estimator = match kind {
        0 | 1 => {
            let kind = if kind == 0 {
                LinearKind::Regression
            } else {
                LinearKind::Logistic
            };
            Estimator::Linear(
                LinearModel::new(weights(g, n_features, 6), g.weight(), kind).unwrap(),
            )
        }
        2 => {
            let mut widths = vec![n_features];
            widths.extend((0..1 + g.below(2)).map(|_| 1 + g.below(20)));
            widths.push(1);
            let layers = widths
                .windows(2)
                .map(|w| Layer {
                    w: weights(g, w[0] * w[1], 6),
                    b: weights(g, w[1], 12),
                    n_in: w[0],
                    n_out: w[1],
                })
                .collect();
            let kind = if g.chance(2) {
                LinearKind::Logistic
            } else {
                LinearKind::Regression
            };
            Estimator::Mlp(Mlp::new(layers, kind).unwrap())
        }
        3 => {
            let depth = 1 + g.below(4);
            Estimator::Tree(random_tree(g, n_features, depth))
        }
        _ => Estimator::Forest(
            RandomForest::from_trees(
                (0..1 + g.below(4))
                    .map(|_| {
                        let depth = 1 + g.below(3);
                        random_tree(g, n_features, depth)
                    })
                    .collect(),
            )
            .unwrap(),
        ),
    };
    Pipeline::new(steps, estimator).unwrap()
}

/// The shape of a hand-built graph's row-varying value.
#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Matrix(usize),
    Vector,
}

fn constant(g: &mut Gen, b: &mut GraphBuilder, shape: Vec<usize>) -> String {
    let len = shape.iter().product();
    let data = weights(g, len, 5).into_iter().map(|v| v as f32).collect();
    let name = format!("k{}", g.next());
    b.initializer(name, Tensor::new(shape, data).unwrap())
}

/// A random graph over input `x` of `cols` columns: mostly operators and
/// operand shapes that run blocked, sometimes ones that cannot (a
/// reshape, a row concat, an axis-0 reduction, a product of two
/// row-varying values), and sometimes shapes no run accepts.
fn random_graph(g: &mut Gen, cols: usize) -> Graph {
    let mut b = GraphBuilder::new();
    let mut values = vec![(b.input("x"), Shape::Matrix(cols))];
    for _ in 0..1 + g.below(7) {
        // Prefer recent values, so chains grow deep.
        let pick = values.len() - 1 - g.below(values.len().min(3));
        let (v, shape) = values[pick].clone();
        let n = match shape {
            Shape::Matrix(n) => n,
            Shape::Vector => 1,
        };
        let (op, inputs, out_shape) = match g.below(13) {
            0 => {
                let k = 1 + g.below(4);
                // One in ten index lists reads past the last column.
                let bound = if g.chance(10) { n + 2 } else { n.max(1) };
                let indices = (0..k).map(|_| g.below(bound)).collect();
                (Op::GatherCols { indices }, vec![v], Shape::Matrix(k))
            }
            1 => {
                let (w, ws) = values[g.below(values.len())].clone();
                let out = match (shape, ws) {
                    (Shape::Matrix(a), Shape::Matrix(c)) => Shape::Matrix(a + c),
                    _ => Shape::Matrix(n),
                };
                (Op::Concat { axis: 1 }, vec![v, w], out)
            }
            2..=4 => {
                const BINARY: [Op; 9] = [
                    Op::Add,
                    Op::Sub,
                    Op::Mul,
                    Op::Div,
                    Op::Less,
                    Op::LessOrEqual,
                    Op::Greater,
                    Op::GreaterOrEqual,
                    Op::Equal,
                ];
                let op = BINARY[g.below(BINARY.len())].clone();
                let other = match g.below(4) {
                    0 => constant(g, &mut b, vec![1]),
                    1 => constant(g, &mut b, vec![n]),
                    2 => values
                        .iter()
                        .filter(|(_, s)| *s == shape)
                        .map(|(name, _)| name.clone())
                        .nth(g.below(2))
                        .unwrap_or_else(|| v.clone()),
                    _ => constant(g, &mut b, vec![1, n]),
                };
                let inputs = if g.chance(2) {
                    vec![v, other]
                } else {
                    vec![other, v]
                };
                (op, inputs, shape)
            }
            5 | 6 => {
                const UNARY: [Op; 5] = [Op::Neg, Op::Relu, Op::Sigmoid, Op::Tanh, Op::Exp];
                (UNARY[g.below(UNARY.len())].clone(), vec![v], shape)
            }
            7 | 8 => {
                let out = 1 + g.below(10);
                let vector = g.chance(4);
                let w = if vector {
                    constant(g, &mut b, vec![n])
                } else {
                    constant(g, &mut b, vec![n, out])
                };
                let out_shape = if vector {
                    Shape::Vector
                } else {
                    Shape::Matrix(out)
                };
                if g.chance(2) {
                    (Op::MatMul, vec![v, w], out_shape)
                } else {
                    const SCALES: [f32; 4] = [1.0, 0.0, 0.5, -2.0];
                    let alpha = SCALES[g.below(SCALES.len())];
                    let beta = SCALES[g.below(SCALES.len())];
                    let width = if vector { 1 } else { out };
                    let c = match g.below(3) {
                        0 => constant(g, &mut b, vec![1]),
                        _ => constant(g, &mut b, vec![width]),
                    };
                    (Op::Gemm { alpha, beta }, vec![v, w, c], out_shape)
                }
            }
            9 => {
                let axis = usize::from(!g.chance(8));
                let op = if g.chance(2) {
                    Op::ReduceSum { axis }
                } else {
                    Op::ReduceMean { axis }
                };
                (op, vec![v], Shape::Vector)
            }
            10 => (Op::ArgMax, vec![v], Shape::Vector),
            11 => (Op::Softmax, vec![v], shape),
            _ => match g.below(3) {
                0 => (Op::Concat { axis: 0 }, vec![v.clone(), v], shape),
                1 => {
                    let (w, _) = values[g.below(values.len())].clone();
                    (Op::MatMul, vec![v, w], Shape::Matrix(n))
                }
                _ => (
                    Op::Reshape {
                        shape: vec![n.max(1)],
                    },
                    vec![v],
                    Shape::Vector,
                ),
            },
        };
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let out = b.node(op, &refs);
        values.push((out, out_shape));
    }
    let last = values.last().unwrap().0.clone();
    b.output(last);
    if g.chance(4) {
        b.output(values[g.below(values.len())].0.clone());
    }
    b.build().unwrap()
}

/// The first element where `a` and `b` differ (see the module docs on NaN).
fn same_bits(a: &[f32], b: &[f32]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()))
}

/// Run `session` on `x` (bound to `input`) every way a session can, and
/// compare each against the reference interpreter on the session's graph.
fn check(session: &InferenceSession, input: &str, x: &Tensor) {
    let graph = session.graph();
    let mut inputs = HashMap::new();
    inputs.insert(input.to_string(), x.clone());
    let reference = graph.run(&inputs);
    let runs = [
        ("run", session.run(&inputs)),
        ("run_batched", session.run_batched(input, x)),
    ];
    for (how, got) in runs {
        match (&reference, got) {
            (Ok((want, flops)), Ok((got, stats))) => {
                assert_eq!(want.len(), got.len(), "{how}: output count");
                for (o, (w, g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(w.shape(), g.shape(), "{how}: output {o} shape\n{graph}");
                    if let Some(at) = same_bits(w.data(), g.data()) {
                        panic!(
                            "{how}: output {o} differs at element {at}: reference {:?} vs \
                             session {:?}, {} rows\n{graph}",
                            w.data()
                                .get(at)
                                .map(|v| format!("{v:?} ({:#x})", v.to_bits())),
                            g.data()
                                .get(at)
                                .map(|v| format!("{v:?} ({:#x})", v.to_bits())),
                            x.rows()
                        );
                    }
                }
                assert_eq!(
                    *flops,
                    stats.flops,
                    "{how}: FLOPs, {} rows\n{graph}",
                    x.rows()
                );
            }
            (Err(_), Err(_)) => {}
            (want, got) => panic!(
                "{how}: reference {:?} vs session {:?}\n{graph}",
                want.as_ref().map(|_| "ok"),
                got.map(|_| "ok")
            ),
        }
    }
}

/// Build a session over `graph` (optimized or not) and check it at every
/// row count.
fn check_graph(g: &mut Gen, graph: Graph, cols: usize) {
    for optimize in [true, false] {
        let options = SessionOptions {
            optimize,
            ..Default::default()
        };
        let Ok(session) = InferenceSession::new(graph.clone(), options) else {
            // Optimization evaluates constant subgraphs, and rejects
            // constant shapes no run could accept either.
            continue;
        };
        for rows in row_counts() {
            check(&session, &graph.inputs[0], &random_input(g, rows, cols));
        }
    }
}

proptest! {
    #[test]
    fn translated_pipelines_match_the_interpreter(seed in 0..u64::MAX, kind in 0..5usize) {
        let mut g = Gen(seed);
        let pipeline = random_pipeline(&mut g, kind);
        let graph = translate_pipeline(&pipeline).unwrap();
        check_graph(&mut g, graph, pipeline.steps().len());
    }

    #[test]
    fn hand_built_graphs_match_the_interpreter(seed in 0..u64::MAX, cols in 1..6usize) {
        let mut g = Gen(seed);
        let graph = random_graph(&mut g, cols);
        check_graph(&mut g, graph, cols);
    }
}

/// Batching, threads and the simulated GPU split rows differently; the
/// outputs stay bit-identical and the FLOPs of a blocked run equal the
/// reference's, so the simulated GPU prices it the same.
#[test]
fn batch_sizes_and_devices_agree() {
    let mut g = Gen(7);
    let pipeline = random_pipeline(&mut g, 2);
    let graph = translate_pipeline(&pipeline).unwrap();
    let x = random_input(&mut g, 3 * BLOCK_ROWS + 7, pipeline.steps().len());
    let whole = InferenceSession::new(graph.clone(), SessionOptions::default()).unwrap();
    let (want, want_stats) = whole.run_batched(INPUT_NAME, &x).unwrap();
    let mut inputs = HashMap::new();
    inputs.insert(INPUT_NAME.to_string(), x.clone());
    let (_, reference_flops) = whole.graph().run(&inputs).unwrap();
    assert_eq!(want_stats.flops, reference_flops);
    for (batch_size, device) in [
        (100, Device::cpu_single()),
        (BLOCK_ROWS + 1, Device::Cpu { threads: 3 }),
        (0, Device::simulated_gpu()),
    ] {
        let session = InferenceSession::new(
            graph.clone(),
            SessionOptions {
                batch_size,
                device,
                ..Default::default()
            },
        )
        .unwrap();
        let (got, stats) = session.run_batched(INPUT_NAME, &x).unwrap();
        assert_eq!(same_bits(want[0].data(), got[0].data()), None);
        assert_eq!(stats.transferred_bytes, want_stats.transferred_bytes);
        if batch_size == 0 {
            assert_eq!(stats.flops, want_stats.flops);
        }
    }
}
