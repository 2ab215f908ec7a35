//! The cost model for the cost-based driver.
//!
//! The paper sketches a Cascades-style optimizer where "each operator will
//! be associated with a cost" and the engine placement (relational vs ML
//! runtime) is part of the search space. This module provides that cost
//! function: cardinality estimates flow bottom-up from table statistics,
//! each operator charges per-row work, model operators charge
//! model-complexity-dependent work plus an engine-switch penalty, and the
//! external execution modes carry their fixed startup overheads.

use raven_ir::{ExecutionMode, Expr, Plan};
use raven_ml::{Estimator, FlatForest, Pipeline};

/// Tunable cost constants (abstract units ≈ ns-ish; only ratios matter).
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    pub scan_per_value: f64,
    pub filter_per_row: f64,
    pub project_per_expr_row: f64,
    pub join_per_row: f64,
    pub agg_per_row: f64,
    pub sort_per_row_log: f64,
    /// Per tree-node visited per row (classical tree walking).
    pub tree_node_visit: f64,
    /// Per non-zero weight per row (linear models).
    pub linear_nnz: f64,
    /// Per MLP parameter per row.
    pub mlp_param: f64,
    /// Tensor-runtime efficiency factor (GEMM batching beats per-row
    /// interpretation).
    pub tensor_discount: f64,
    /// Per tree-*level* advanced per row in the columnar kernel. Much
    /// cheaper than `tree_node_visit`: the flat layout is contiguous,
    /// branchless and enum-free.
    pub kernel_node_visit: f64,
    /// Per gathered feature value per row (the fused featurization scan).
    pub kernel_gather_per_value: f64,
    /// Fixed per-node charge reflecting flat-layout compilation and
    /// cache warming — keeps tiny point lookups on the classical path.
    pub kernel_setup_per_node: f64,
    /// Crossing between relational engine and ML runtime.
    pub engine_switch: f64,
    /// Fixed startup of `sp_execute_external_script` (paper: ~0.5 s).
    pub out_of_process_startup: f64,
    /// Fixed startup of containerized REST scoring.
    pub container_startup: f64,
    /// Default filter selectivity when nothing is known.
    pub default_selectivity: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            scan_per_value: 1.0,
            filter_per_row: 2.0,
            project_per_expr_row: 1.0,
            join_per_row: 8.0,
            agg_per_row: 6.0,
            sort_per_row_log: 2.0,
            tree_node_visit: 4.0,
            linear_nnz: 1.0,
            mlp_param: 1.0,
            tensor_discount: 0.25,
            kernel_node_visit: 0.5,
            kernel_gather_per_value: 0.25,
            kernel_setup_per_node: 2.0,
            engine_switch: 1_000.0,
            out_of_process_startup: 500_000_000.0,
            container_startup: 2_000_000_000.0,
            default_selectivity: 0.25,
        }
    }
}

/// Estimated (cost, output rows) for a plan.
pub fn estimate(plan: &Plan, catalog: &raven_data::Catalog, params: &CostParams) -> (f64, f64) {
    match plan {
        Plan::Scan { table, schema } => {
            let rows = catalog
                .stats(table)
                .map(|s| s.row_count as f64)
                .unwrap_or(1_000.0);
            (rows * schema.len() as f64 * params.scan_per_value, rows)
        }
        Plan::Filter { input, predicate } => {
            let (c, rows) = estimate(input, catalog, params);
            let sel = selectivity(predicate, params);
            (
                c + rows * params.filter_per_row * expr_weight(predicate),
                (rows * sel).max(1.0),
            )
        }
        Plan::Project { input, exprs } => {
            let (c, rows) = estimate(input, catalog, params);
            let weight: f64 = exprs.iter().map(|(e, _)| expr_weight(e)).sum();
            (c + rows * weight * params.project_per_expr_row, rows)
        }
        Plan::Join { left, right, .. } => {
            let (lc, lr) = estimate(left, catalog, params);
            let (rc, rr) = estimate(right, catalog, params);
            // FK join: output ≈ probe side.
            (lc + rc + (lr + rr) * params.join_per_row, lr.max(1.0))
        }
        Plan::Aggregate { input, .. } => {
            let (c, rows) = estimate(input, catalog, params);
            (c + rows * params.agg_per_row, (rows / 10.0).max(1.0))
        }
        Plan::Union { inputs } => {
            let mut cost = 0.0;
            let mut rows = 0.0;
            for p in inputs {
                let (c, r) = estimate(p, catalog, params);
                cost += c;
                rows += r;
            }
            (cost, rows)
        }
        Plan::Sort { input, .. } => {
            let (c, rows) = estimate(input, catalog, params);
            (
                c + rows * rows.max(2.0).log2() * params.sort_per_row_log,
                rows,
            )
        }
        Plan::Limit { input, fetch } => {
            let (c, rows) = estimate(input, catalog, params);
            (c, rows.min(*fetch as f64))
        }
        Plan::Predict {
            input, model, mode, ..
        } => {
            let (c, rows) = estimate(input, catalog, params);
            let per_row = classical_row_cost(&model.pipeline, params);
            let fixed = match mode {
                ExecutionMode::InProcess => params.engine_switch,
                ExecutionMode::OutOfProcess => params.out_of_process_startup,
                ExecutionMode::Container => params.container_startup,
            };
            // External modes also pay per-row transfer.
            let transfer = match mode {
                ExecutionMode::InProcess => 0.0,
                _ => rows * model.pipeline.steps().len() as f64 * 4.0,
            };
            (c + fixed + transfer + rows * per_row, rows)
        }
        Plan::TensorPredict { input, model, .. } => {
            let (c, rows) = estimate(input, catalog, params);
            let per_row = tensor_row_cost(&model.pipeline, params);
            (c + params.engine_switch + rows * per_row, rows)
        }
        Plan::KernelPredict { input, flat, .. } => {
            let (c, rows) = estimate(input, catalog, params);
            let fixed = params.engine_switch + flat.n_nodes() as f64 * params.kernel_setup_per_node;
            (c + fixed + rows * kernel_row_cost(flat, params), rows)
        }
        Plan::ClusteredPredict {
            input,
            cluster_models,
            ..
        } => {
            let (c, rows) = estimate(input, catalog, params);
            // Average specialized-model cost + routing.
            let avg: f64 = cluster_models
                .iter()
                .map(|m| model_row_cost(m.estimator(), params) + m.n_features() as f64 * 0.5)
                .sum::<f64>()
                / cluster_models.len().max(1) as f64;
            (
                c + params.engine_switch + rows * (avg + cluster_models.len() as f64 * 0.5),
                rows,
            )
        }
        Plan::Udf { input, .. } => {
            let (c, rows) = estimate(input, catalog, params);
            // Opaque code: assume expensive.
            (c + rows * 100.0, rows)
        }
    }
}

/// Per-row scoring cost of an estimator under classical execution.
pub fn model_row_cost(estimator: &Estimator, params: &CostParams) -> f64 {
    match estimator {
        Estimator::Tree(t) => t.depth().max(1) as f64 * params.tree_node_visit,
        Estimator::Forest(f) => f
            .trees()
            .iter()
            .map(|t| t.depth().max(1) as f64 * params.tree_node_visit)
            .sum(),
        Estimator::Linear(m) => m.nonzero_features().len().max(1) as f64 * params.linear_nnz,
        Estimator::Mlp(m) => {
            m.layers()
                .iter()
                .map(|l| (l.w.len() + l.b.len()) as f64)
                .sum::<f64>()
                * params.mlp_param
        }
    }
}

/// Per-row cost of classical (row-at-a-time) scoring of a pipeline,
/// featurization included.
pub fn classical_row_cost(pipeline: &Pipeline, params: &CostParams) -> f64 {
    model_row_cost(pipeline.estimator(), params) + pipeline.n_features() as f64 * 0.5
}

/// Per-row cost of a pipeline's tensor translation: batched GEMMs
/// discount the model work, and features move as `f32`. Analytic, so
/// pricing the translation needs no graph.
pub fn tensor_row_cost(pipeline: &Pipeline, params: &CostParams) -> f64 {
    model_row_cost(pipeline.estimator(), params) * params.tensor_discount
        + pipeline.n_features() as f64 * 0.25
}

/// Per-row scoring cost of a flattened ensemble under the columnar
/// kernel: one branchless step per tree level plus the fused gather of
/// only the features some split reads.
pub fn kernel_row_cost(flat: &FlatForest, params: &CostParams) -> f64 {
    flat.total_depth().max(1) as f64 * params.kernel_node_visit
        + flat.n_gathered() as f64 * params.kernel_gather_per_value
}

/// Runtime-observed per-row costs fed back into planning (the serving
/// layer reads the micro-batcher's `batcher_ewma_*` gauges and passes
/// them here). When present, the observed classical per-row cost replaces
/// the static estimate in the placement rule — a feedback loop from
/// execution telemetry to plan choice.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ObservedCosts {
    /// EWMA of observed classical scoring cost per row, in the cost
    /// model's abstract (≈ ns) units.
    pub classical_row_ns: Option<f64>,
}

/// Rough predicate selectivity: equality is selective, ranges moderate.
fn selectivity(predicate: &Expr, params: &CostParams) -> f64 {
    use raven_ir::analyze::conjuncts;
    let mut sel = 1.0;
    for c in conjuncts(predicate) {
        let s = match c {
            Expr::Binary { op, .. } if *op == raven_ir::BinOp::Eq => 0.1,
            Expr::Binary { op, .. } if op.is_comparison() => 0.4,
            _ => params.default_selectivity,
        };
        sel *= s;
    }
    sel.max(0.001)
}

/// Expression weight ≈ node count (CASE trees from inlining are heavy).
fn expr_weight(expr: &Expr) -> f64 {
    let mut n = 0usize;
    expr.visit(&mut |_| n += 1);
    n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_data::{Catalog, Column, DataType, Schema, Table};
    use raven_ir::{Expr, ModelRef};
    use raven_ml::featurize::Transform;
    use raven_ml::{FeatureStep, LinearKind, LinearModel, Pipeline};
    use std::sync::Arc;

    fn catalog(rows: usize) -> Catalog {
        let cat = Catalog::new();
        cat.register(
            "t",
            Table::try_new(
                Schema::from_pairs(&[("x", DataType::Float64)]).into_shared(),
                vec![Column::Float64(vec![1.0; rows])],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn scan(cat: &Catalog) -> Plan {
        Plan::Scan {
            table: "t".into(),
            schema: cat.table("t").unwrap().schema().clone(),
        }
    }

    fn predict(cat: &Catalog, mode: ExecutionMode) -> Plan {
        let pipeline = Pipeline::new(
            vec![FeatureStep::new("x", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![1.0], 0.0, LinearKind::Regression).unwrap()),
        )
        .unwrap();
        Plan::Predict {
            input: Box::new(scan(cat)),
            model: ModelRef {
                name: "m".into(),
                pipeline: Arc::new(pipeline),
            },
            output: "s".into(),
            mode,
        }
    }

    #[test]
    fn cardinality_flows_from_stats() {
        let cat = catalog(1000);
        let params = CostParams::default();
        let (_, rows) = estimate(&scan(&cat), &cat, &params);
        assert_eq!(rows, 1000.0);
        let filtered = Plan::Filter {
            input: Box::new(scan(&cat)),
            predicate: Expr::col("x").eq(Expr::lit(1i64)),
        };
        let (_, rows) = estimate(&filtered, &cat, &params);
        assert_eq!(rows, 100.0);
    }

    #[test]
    fn external_modes_cost_more() {
        let cat = catalog(1000);
        let params = CostParams::default();
        let (inproc, _) = estimate(&predict(&cat, ExecutionMode::InProcess), &cat, &params);
        let (ext, _) = estimate(&predict(&cat, ExecutionMode::OutOfProcess), &cat, &params);
        let (cont, _) = estimate(&predict(&cat, ExecutionMode::Container), &cat, &params);
        assert!(inproc < ext && ext < cont);
    }

    #[test]
    fn tensor_cheaper_than_classical_at_scale() {
        let cat = catalog(1_000_000);
        let params = CostParams::default();
        let classical = predict(&cat, ExecutionMode::InProcess);
        let (cc, _) = estimate(&classical, &cat, &params);
        let Plan::Predict {
            input,
            model,
            output,
            ..
        } = classical
        else {
            unreachable!()
        };
        let graph = raven_ml::translate::translate_pipeline(&model.pipeline).unwrap();
        let tensor = Plan::TensorPredict {
            input,
            model,
            graph: Arc::new(graph),
            output,
            device: raven_ir::Device::CpuParallel,
        };
        let (tc, _) = estimate(&tensor, &cat, &params);
        assert!(tc < cc);
    }

    #[test]
    fn pruned_tree_costs_less() {
        use raven_ml::tree::TreeNode;
        let deep = raven_ml::DecisionTree::from_nodes(
            vec![
                TreeNode::Split {
                    feature: 0,
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                },
                TreeNode::Leaf { value: 0.0 },
                TreeNode::Split {
                    feature: 0,
                    threshold: 0.7,
                    left: 3,
                    right: 4,
                },
                TreeNode::Leaf { value: 1.0 },
                TreeNode::Leaf { value: 2.0 },
            ],
            1,
        )
        .unwrap();
        let shallow =
            raven_ml::DecisionTree::from_nodes(vec![TreeNode::Leaf { value: 1.0 }], 1).unwrap();
        let params = CostParams::default();
        assert!(
            model_row_cost(&Estimator::Tree(deep), &params)
                > model_row_cost(&Estimator::Tree(shallow), &params)
        );
    }
}
