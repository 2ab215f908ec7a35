//! Cost-based kernel placement: choose, per model operator, between
//! classical row-at-a-time scoring, the columnar tree/forest kernel, and
//! the tensor-graph translation.
//!
//! Runs after inlining and NN translation, so by the time it fires the
//! plan carries exactly the model operators that survived those rules:
//! big ensembles the inliner refused (too many nodes) either stayed
//! classical `Predict` or became `TensorPredict`. For each such operator
//! whose estimator is a tree or forest, this rule prices the current
//! strategy against the flattened columnar kernel using the cost model —
//! and, when the serving layer has observed real per-row latencies
//! (`batcher_ewma_*` gauges surfaced as [`ObservedCosts`](crate::ObservedCosts)), the observed
//! classical cost replaces the static estimate, closing the feedback loop
//! from execution telemetry back into planning.

use crate::context::OptimizerContext;
use crate::cost::{estimate, kernel_row_cost, model_row_cost};
use raven_ir::{ExecutionMode, Plan};
use raven_ml::{Estimator, FlatForest};
use std::sync::Arc;

/// Rewrite tree/forest model operators to `KernelPredict` wherever the
/// cost model says the columnar kernel is the cheapest strategy.
pub fn apply(plan: Plan, ctx: &OptimizerContext<'_>) -> crate::Result<Plan> {
    let params = &ctx.cost_params;
    let out = plan.transform_up(&|node| {
        // Only in-process tree/forest operators are candidates; external
        // modes score in their own runtime and everything else (linear,
        // MLP) has no columnar tree kernel.
        let (input, model, output, current_per_row, current_fixed) = match &node {
            Plan::Predict {
                input,
                model,
                output,
                mode: ExecutionMode::InProcess,
            } => {
                let estimator = model.pipeline.estimator();
                if !matches!(estimator, Estimator::Tree(_) | Estimator::Forest(_)) {
                    return node;
                }
                // Feedback: prefer the observed per-row cost of the
                // classical path over the static estimate when available.
                let static_row =
                    model_row_cost(estimator, params) + model.pipeline.n_features() as f64 * 0.5;
                let per_row = ctx.observed.classical_row_ns.unwrap_or(static_row);
                (input, model, output, per_row, params.engine_switch)
            }
            Plan::TensorPredict {
                input,
                model,
                output,
                ..
            } => {
                let estimator = model.pipeline.estimator();
                if !matches!(estimator, Estimator::Tree(_) | Estimator::Forest(_)) {
                    return node;
                }
                let per_row = model_row_cost(estimator, params) * params.tensor_discount
                    + model.pipeline.n_features() as f64 * 0.25;
                (input, model, output, per_row, params.engine_switch)
            }
            _ => return node,
        };
        // Flattening can fail only for estimators we already filtered
        // out; treat any residual failure as "keep the current plan".
        let Ok(flat) = FlatForest::from_pipeline(&model.pipeline) else {
            return node;
        };
        let (_, rows) = estimate(input, ctx.catalog, params);
        let current = current_fixed + rows * current_per_row;
        let kernel_fixed =
            params.engine_switch + flat.n_nodes() as f64 * params.kernel_setup_per_node;
        let kernel = kernel_fixed + rows * kernel_row_cost(&flat, params);
        if kernel < current {
            Plan::KernelPredict {
                input: input.clone(),
                model: model.clone(),
                flat: Arc::new(flat),
                output: output.clone(),
            }
        } else {
            node
        }
    });
    Ok(out)
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
}
