//! Cost-based model realization: choose, per model operator, between
//! classical row-at-a-time scoring, the columnar tree/forest kernel, and
//! the tensor-graph translation — from prices alone, then build only the
//! winner.
//!
//! `realize` runs once, after inlining, over the model operators that
//! survived it. Each in-process `Predict` has a default realization: the
//! tensor translation when NN translation is on, classical scoring when
//! it is off. When kernel placement is on and the estimator is a tree or
//! forest, the default is priced against the flattened columnar kernel
//! with the cost model, and the kernel replaces it if cheaper. Both
//! prices are analytic — the tensor price is the model's per-row cost
//! discounted by `tensor_discount` — so no graph is built to price one:
//! a forest that lands on the kernel is never translated into a GEMM
//! graph. When the serving layer has observed real per-row latencies
//! (`batcher_ewma_*` gauges surfaced as
//! [`ObservedCosts`](crate::ObservedCosts)), the observed cost replaces
//! the static estimate of *classical* scoring, closing the feedback loop
//! from execution telemetry back into planning.
//!
//! A `TensorPredict` already in the plan is priced as a tensor graph the
//! same way. The two rules' entry points — [`apply`] here and
//! [`crate::rules::translation::apply`] — are this pass with one of its
//! two choices switched off.

use crate::context::OptimizerContext;
use crate::cost::{classical_row_cost, estimate, kernel_row_cost, tensor_row_cost};
use crate::error::OptError;
use crate::rules::translation::translation_of;
use raven_ir::{ExecutionMode, ModelRef, Plan};
use raven_ml::{Estimator, FlatForest};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Rewrite tree/forest model operators to `KernelPredict` wherever the
/// cost model says the columnar kernel is cheaper than their current
/// realization (a `Predict` priced as classical scoring).
pub fn apply(plan: Plan, ctx: &OptimizerContext<'_>) -> crate::Result<Plan> {
    realize(plan, ctx, false, true).map(|(plan, _)| plan)
}

/// Which of the two choices [`realize`] applied, for the optimizer report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Realized {
    /// Some in-process `Predict` took the tensor translation as its
    /// default realization (built, or priced and beaten by the kernel).
    pub translated: bool,
    /// Some model operator landed on the columnar kernel.
    pub placed: bool,
}

/// Choose and build each model operator's realization: with `translate`
/// an in-process `Predict` defaults to its tensor translation, otherwise
/// to classical scoring; with `place` a tree or forest moves to the
/// columnar kernel wherever that is cheaper than its default. The
/// translation is built only for operators that keep it.
pub(crate) fn realize(
    plan: Plan,
    ctx: &OptimizerContext<'_>,
    translate: bool,
    place: bool,
) -> crate::Result<(Plan, Realized)> {
    let failure: RefCell<Option<OptError>> = RefCell::new(None);
    let translated = Cell::new(false);
    let placed = Cell::new(false);
    let out = plan.transform_up(&|node| {
        if failure.borrow().is_some() {
            return node;
        }
        // External modes score in their own runtime: never candidates.
        let (input, model, as_tensor) = match &node {
            Plan::Predict {
                input,
                model,
                mode: ExecutionMode::InProcess,
                ..
            } => {
                translated.set(translated.get() || translate);
                (input, model, translate)
            }
            Plan::TensorPredict { input, model, .. } => (input, model, true),
            _ => return node,
        };
        let kernel = place
            .then(|| kernel_beats(input, model, as_tensor, ctx))
            .flatten();
        match (node, kernel) {
            (
                Plan::Predict {
                    input,
                    model,
                    output,
                    ..
                }
                | Plan::TensorPredict {
                    input,
                    model,
                    output,
                    ..
                },
                Some(flat),
            ) => {
                placed.set(true);
                Plan::KernelPredict {
                    input,
                    model,
                    flat: Arc::new(flat),
                    output,
                }
            }
            (
                Plan::Predict {
                    input,
                    model,
                    output,
                    mode,
                },
                None,
            ) if translate => match translation_of(&model) {
                Ok(graph) => Plan::TensorPredict {
                    input,
                    model,
                    graph,
                    output,
                    device: ctx.device,
                },
                Err(e) => {
                    *failure.borrow_mut() = Some(e);
                    Plan::Predict {
                        input,
                        model,
                        output,
                        mode,
                    }
                }
            },
            (other, _) => other,
        }
    });
    match failure.into_inner() {
        Some(e) => Err(e),
        None => Ok((
            out,
            Realized {
                translated: translated.get(),
                placed: placed.get(),
            },
        )),
    }
}

/// The flattened kernel for a tree/forest operator, if the kernel is
/// cheaper than its default realization (tensor translation when
/// `as_tensor`, classical scoring otherwise); `None` for any other
/// estimator.
fn kernel_beats(
    input: &Plan,
    model: &ModelRef,
    as_tensor: bool,
    ctx: &OptimizerContext<'_>,
) -> Option<FlatForest> {
    let params = &ctx.cost_params;
    if !matches!(
        model.pipeline.estimator(),
        Estimator::Tree(_) | Estimator::Forest(_)
    ) {
        return None;
    }
    let per_row = if as_tensor {
        tensor_row_cost(&model.pipeline, params)
    } else {
        // Feedback: prefer the observed per-row cost of the classical
        // path over the static estimate when available.
        ctx.observed
            .classical_row_ns
            .unwrap_or_else(|| classical_row_cost(&model.pipeline, params))
    };
    // Flattening can fail only for estimators filtered out above; treat
    // any residual failure as "keep the default".
    let flat = FlatForest::from_pipeline(&model.pipeline).ok()?;
    let (_, rows) = estimate(input, ctx.catalog, params);
    let current = params.engine_switch + rows * per_row;
    let kernel_fixed = params.engine_switch + flat.n_nodes() as f64 * params.kernel_setup_per_node;
    let kernel = kernel_fixed + rows * kernel_row_cost(&flat, params);
    (kernel < current).then_some(flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ObservedCosts;
    use raven_data::{Catalog, Column, DataType, Schema, Table};
    use raven_ir::ModelRef;
    use raven_ml::featurize::Transform;
    use raven_ml::tree::TreeNode;
    use raven_ml::{DecisionTree, FeatureStep, Pipeline, RandomForest};

    fn catalog(rows: usize) -> Catalog {
        let cat = Catalog::new();
        cat.register(
            "t",
            Table::try_new(
                Schema::from_pairs(&[("x", DataType::Float64)]).into_shared(),
                vec![Column::Float64((0..rows).map(|i| i as f64).collect())],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn deep_tree(depth: usize) -> DecisionTree {
        // A right-leaning chain of `depth` splits over one feature:
        // split at 2d, leaf at 2d+1, next split (or final leaf) at 2d+2.
        let mut chain = Vec::new();
        for d in 0..depth {
            chain.push(TreeNode::Split {
                feature: 0,
                threshold: d as f64,
                left: 2 * d + 1,
                right: 2 * d + 2,
            });
            chain.push(TreeNode::Leaf { value: d as f64 });
        }
        chain.push(TreeNode::Leaf {
            value: depth as f64,
        });
        DecisionTree::from_nodes(chain, 1).unwrap()
    }

    fn forest_predict(cat: &Catalog, trees: usize, depth: usize) -> Plan {
        let forest =
            RandomForest::from_trees((0..trees).map(|_| deep_tree(depth)).collect()).unwrap();
        let pipeline = Pipeline::new(
            vec![FeatureStep::new("x", Transform::Identity)],
            Estimator::Forest(forest),
        )
        .unwrap();
        Plan::Predict {
            input: Box::new(Plan::Scan {
                table: "t".into(),
                schema: cat.table("t").unwrap().schema().clone(),
            }),
            model: ModelRef {
                name: "f".into(),
                pipeline: Arc::new(pipeline),
            },
            output: "score".into(),
            mode: ExecutionMode::InProcess,
        }
    }

    #[test]
    fn big_forest_on_big_table_gets_kernel() {
        let cat = catalog(10_000);
        let ctx = OptimizerContext::new(&cat);
        let out = apply(forest_predict(&cat, 20, 6), &ctx).unwrap();
        assert!(
            matches!(out, Plan::KernelPredict { .. }),
            "expected kernel placement:\n{out}"
        );
    }

    #[test]
    fn tiny_batch_stays_classical() {
        // One row: the kernel's per-node setup dwarfs any per-row win.
        let cat = catalog(1);
        let ctx = OptimizerContext::new(&cat);
        let plan = forest_predict(&cat, 20, 6);
        let out = apply(plan.clone(), &ctx).unwrap();
        assert_eq!(out, plan);
    }

    #[test]
    fn observed_costs_flip_the_decision() {
        // Static estimate says classical is fine on a tiny batch, but the
        // runtime has observed the classical path to be catastrophically
        // slow — the feedback flips placement to the kernel.
        let cat = catalog(1);
        let ctx = OptimizerContext::new(&cat).with_observed(ObservedCosts {
            classical_row_ns: Some(1e9),
        });
        let out = apply(forest_predict(&cat, 20, 6), &ctx).unwrap();
        assert!(
            matches!(out, Plan::KernelPredict { .. }),
            "observed feedback should force kernel:\n{out}"
        );
    }

    #[test]
    fn external_modes_untouched() {
        let cat = catalog(10_000);
        let ctx = OptimizerContext::new(&cat);
        let Plan::Predict {
            input,
            model,
            output,
            ..
        } = forest_predict(&cat, 20, 6)
        else {
            unreachable!()
        };
        let plan = Plan::Predict {
            input,
            model,
            output,
            mode: ExecutionMode::OutOfProcess,
        };
        assert_eq!(apply(plan.clone(), &ctx).unwrap(), plan);
    }

    #[test]
    fn linear_models_have_no_kernel() {
        use raven_ml::{LinearKind, LinearModel};
        let cat = catalog(10_000);
        let ctx = OptimizerContext::new(&cat);
        let pipeline = Pipeline::new(
            vec![FeatureStep::new("x", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![2.0], 0.5, LinearKind::Regression).unwrap()),
        )
        .unwrap();
        let plan = Plan::Predict {
            input: Box::new(Plan::Scan {
                table: "t".into(),
                schema: cat.table("t").unwrap().schema().clone(),
            }),
            model: ModelRef {
                name: "lin".into(),
                pipeline: Arc::new(pipeline),
            },
            output: "score".into(),
            mode: ExecutionMode::InProcess,
        };
        assert_eq!(apply(plan.clone(), &ctx).unwrap(), plan);
    }

    /// The estimators of the realization table: a tree and a forest too
    /// big to inline (601 and 48 × 17 nodes), an MLP and a logistic
    /// regression (neither inlinable).
    fn table_estimator(kind: &str) -> Estimator {
        use raven_ml::mlp::Layer;
        use raven_ml::{LinearKind, LinearModel, Mlp};
        match kind {
            "tree" => Estimator::Tree(deep_tree(300)),
            "forest" => Estimator::Forest(
                RandomForest::from_trees((0..48).map(|_| deep_tree(8)).collect()).unwrap(),
            ),
            "mlp" => Estimator::Mlp(
                Mlp::new(
                    vec![
                        Layer {
                            w: vec![0.5; 8],
                            b: vec![0.1; 8],
                            n_in: 1,
                            n_out: 8,
                        },
                        Layer {
                            w: vec![0.25; 8],
                            b: vec![0.0],
                            n_in: 8,
                            n_out: 1,
                        },
                    ],
                    LinearKind::Logistic,
                )
                .unwrap(),
            ),
            _ => Estimator::Linear(LinearModel::new(vec![2.0], 0.5, LinearKind::Logistic).unwrap()),
        }
    }

    /// The model operator the optimized plan realizes the model as
    /// (`"inlined"` if none is left).
    fn realization(plan: &Plan) -> &'static str {
        let mut found = "inlined";
        plan.visit(&mut |p| match p {
            Plan::Predict { .. } => found = "Predict",
            Plan::TensorPredict { .. } => found = "TensorPredict",
            Plan::KernelPredict { .. } => found = "KernelPredict",
            _ => {}
        });
        found
    }

    /// Every estimator kind × table size × observed cost × the two rule
    /// toggles, through the whole optimizer: the realization chosen must
    /// be the one the optimizer chose when translation ran before
    /// placement and placement priced the built `TensorPredict` (the
    /// table below was recorded from that order).
    #[test]
    fn realization_table_is_unchanged() {
        use crate::context::RuleSet;
        use crate::optimizer::optimize;
        #[rustfmt::skip]
        let table: &[(&str, usize, &str, bool, bool, &str)] = &[
        ("tree", 1, "none", false, false, "Predict"),
        ("tree", 1, "none", false, true, "Predict"),
        ("tree", 1, "none", true, false, "TensorPredict"),
        ("tree", 1, "none", true, true, "TensorPredict"),
        ("tree", 1, "cheap", false, false, "Predict"),
        ("tree", 1, "cheap", false, true, "Predict"),
        ("tree", 1, "cheap", true, false, "TensorPredict"),
        ("tree", 1, "cheap", true, true, "TensorPredict"),
        ("tree", 1, "dear", false, false, "Predict"),
        ("tree", 1, "dear", false, true, "KernelPredict"),
        ("tree", 1, "dear", true, false, "TensorPredict"),
        ("tree", 1, "dear", true, true, "TensorPredict"),
        ("forest", 1, "none", false, false, "Predict"),
        ("forest", 1, "none", false, true, "Predict"),
        ("forest", 1, "none", true, false, "TensorPredict"),
        ("forest", 1, "none", true, true, "TensorPredict"),
        ("forest", 1, "cheap", false, false, "Predict"),
        ("forest", 1, "cheap", false, true, "Predict"),
        ("forest", 1, "cheap", true, false, "TensorPredict"),
        ("forest", 1, "cheap", true, true, "TensorPredict"),
        ("forest", 1, "dear", false, false, "Predict"),
        ("forest", 1, "dear", false, true, "KernelPredict"),
        ("forest", 1, "dear", true, false, "TensorPredict"),
        ("forest", 1, "dear", true, true, "TensorPredict"),
        ("mlp", 1, "none", false, false, "Predict"),
        ("mlp", 1, "none", false, true, "Predict"),
        ("mlp", 1, "none", true, false, "TensorPredict"),
        ("mlp", 1, "none", true, true, "TensorPredict"),
        ("mlp", 1, "cheap", false, false, "Predict"),
        ("mlp", 1, "cheap", false, true, "Predict"),
        ("mlp", 1, "cheap", true, false, "TensorPredict"),
        ("mlp", 1, "cheap", true, true, "TensorPredict"),
        ("mlp", 1, "dear", false, false, "Predict"),
        ("mlp", 1, "dear", false, true, "Predict"),
        ("mlp", 1, "dear", true, false, "TensorPredict"),
        ("mlp", 1, "dear", true, true, "TensorPredict"),
        ("linear", 1, "none", false, false, "Predict"),
        ("linear", 1, "none", false, true, "Predict"),
        ("linear", 1, "none", true, false, "TensorPredict"),
        ("linear", 1, "none", true, true, "TensorPredict"),
        ("linear", 1, "cheap", false, false, "Predict"),
        ("linear", 1, "cheap", false, true, "Predict"),
        ("linear", 1, "cheap", true, false, "TensorPredict"),
        ("linear", 1, "cheap", true, true, "TensorPredict"),
        ("linear", 1, "dear", false, false, "Predict"),
        ("linear", 1, "dear", false, true, "Predict"),
        ("linear", 1, "dear", true, false, "TensorPredict"),
        ("linear", 1, "dear", true, true, "TensorPredict"),
        ("tree", 50000, "none", false, false, "Predict"),
        ("tree", 50000, "none", false, true, "KernelPredict"),
        ("tree", 50000, "none", true, false, "TensorPredict"),
        ("tree", 50000, "none", true, true, "KernelPredict"),
        ("tree", 50000, "cheap", false, false, "Predict"),
        ("tree", 50000, "cheap", false, true, "Predict"),
        ("tree", 50000, "cheap", true, false, "TensorPredict"),
        ("tree", 50000, "cheap", true, true, "KernelPredict"),
        ("tree", 50000, "dear", false, false, "Predict"),
        ("tree", 50000, "dear", false, true, "KernelPredict"),
        ("tree", 50000, "dear", true, false, "TensorPredict"),
        ("tree", 50000, "dear", true, true, "KernelPredict"),
        ("forest", 50000, "none", false, false, "Predict"),
        ("forest", 50000, "none", false, true, "KernelPredict"),
        ("forest", 50000, "none", true, false, "TensorPredict"),
        ("forest", 50000, "none", true, true, "KernelPredict"),
        ("forest", 50000, "cheap", false, false, "Predict"),
        ("forest", 50000, "cheap", false, true, "Predict"),
        ("forest", 50000, "cheap", true, false, "TensorPredict"),
        ("forest", 50000, "cheap", true, true, "KernelPredict"),
        ("forest", 50000, "dear", false, false, "Predict"),
        ("forest", 50000, "dear", false, true, "KernelPredict"),
        ("forest", 50000, "dear", true, false, "TensorPredict"),
        ("forest", 50000, "dear", true, true, "KernelPredict"),
        ("mlp", 50000, "none", false, false, "Predict"),
        ("mlp", 50000, "none", false, true, "Predict"),
        ("mlp", 50000, "none", true, false, "TensorPredict"),
        ("mlp", 50000, "none", true, true, "TensorPredict"),
        ("mlp", 50000, "cheap", false, false, "Predict"),
        ("mlp", 50000, "cheap", false, true, "Predict"),
        ("mlp", 50000, "cheap", true, false, "TensorPredict"),
        ("mlp", 50000, "cheap", true, true, "TensorPredict"),
        ("mlp", 50000, "dear", false, false, "Predict"),
        ("mlp", 50000, "dear", false, true, "Predict"),
        ("mlp", 50000, "dear", true, false, "TensorPredict"),
        ("mlp", 50000, "dear", true, true, "TensorPredict"),
        ("linear", 50000, "none", false, false, "Predict"),
        ("linear", 50000, "none", false, true, "Predict"),
        ("linear", 50000, "none", true, false, "TensorPredict"),
        ("linear", 50000, "none", true, true, "TensorPredict"),
        ("linear", 50000, "cheap", false, false, "Predict"),
        ("linear", 50000, "cheap", false, true, "Predict"),
        ("linear", 50000, "cheap", true, false, "TensorPredict"),
        ("linear", 50000, "cheap", true, true, "TensorPredict"),
        ("linear", 50000, "dear", false, false, "Predict"),
        ("linear", 50000, "dear", false, true, "Predict"),
        ("linear", 50000, "dear", true, false, "TensorPredict"),
        ("linear", 50000, "dear", true, true, "TensorPredict"),
        ];
        for &(kind, rows, observed, translate, place, want) in table {
            let cat = catalog(rows);
            let classical_row_ns = match observed {
                "cheap" => Some(1.0),
                "dear" => Some(1e9),
                _ => None,
            };
            let rules = RuleSet {
                stats_derived_predicates: false,
                nn_translation: translate,
                kernel_placement: place,
                ..RuleSet::all()
            };
            let ctx = OptimizerContext::new(&cat)
                .with_rules(rules)
                .with_observed(ObservedCosts { classical_row_ns });
            let pipeline = Pipeline::new(
                vec![FeatureStep::new("x", Transform::Identity)],
                table_estimator(kind),
            )
            .unwrap();
            let Plan::Predict {
                input,
                output,
                mode,
                ..
            } = forest_predict(&cat, 1, 1)
            else {
                unreachable!()
            };
            let plan = Plan::Predict {
                input,
                model: ModelRef {
                    name: kind.into(),
                    pipeline: Arc::new(pipeline),
                },
                output,
                mode,
            };
            let (out, _) = optimize(plan, &ctx).unwrap();
            assert_eq!(
                realization(&out),
                want,
                "{kind}, {rows} rows, observed {observed}, translation {translate}, \
                 placement {place}"
            );
        }
    }

    /// A forest the kernel wins is priced as a tensor graph but never
    /// translated: no GEMM graph is built. With placement off the same
    /// forest is translated, once.
    #[test]
    fn kernel_placed_forest_builds_no_graph() {
        use crate::rules::translation::GRAPHS_BUILT;
        let cat = catalog(10_000);
        let ctx = OptimizerContext::new(&cat);
        let built = || GRAPHS_BUILT.with(|n| n.get());
        let before = built();
        let (out, realized) = realize(forest_predict(&cat, 48, 8), &ctx, true, true).unwrap();
        assert!(matches!(out, Plan::KernelPredict { .. }), "{out}");
        assert_eq!(
            realized,
            Realized {
                translated: true,
                placed: true
            }
        );
        assert_eq!(built(), before, "a kernel-placed forest was translated");
        let (out, _) = realize(forest_predict(&cat, 48, 8), &ctx, true, false).unwrap();
        assert!(matches!(out, Plan::TensorPredict { .. }), "{out}");
        assert_eq!(built(), before + 1);
    }
}
