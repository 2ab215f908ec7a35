//! Optimizer drivers: heuristic (rule order, fixpoint) and cost-based
//! (alternative schedules priced by the cost model).

use crate::context::{OptimizerContext, RuleSet};
use crate::cost::{estimate, CostParams};
use crate::rules;
use crate::Result;
use raven_ir::Plan;

/// Which driver to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptimizerMode {
    /// Apply all enabled rules in the paper's order, to a fixpoint.
    #[default]
    Heuristic,
    /// Price a set of alternative schedules and keep the cheapest.
    CostBased,
}

/// What the optimizer did.
#[derive(Debug, Clone, Default)]
pub struct OptimizationReport {
    /// `(rule name, number of fixpoint rounds in which it changed the plan)`.
    pub rule_applications: Vec<(String, usize)>,
    /// Fixpoint iterations executed.
    pub iterations: usize,
    /// Cost-model estimate before optimization.
    pub cost_before: f64,
    /// Cost-model estimate after optimization.
    pub cost_after: f64,
    /// Alternatives priced (cost-based mode; 1 for heuristic).
    pub alternatives_considered: usize,
}

impl OptimizationReport {
    fn bump(&mut self, rule: &str) {
        if let Some(entry) = self
            .rule_applications
            .iter_mut()
            .find(|(name, _)| name == rule)
        {
            entry.1 += 1;
        } else {
            self.rule_applications.push((rule.to_string(), 1));
        }
    }

    /// Human-readable summary (EXPLAIN output).
    pub fn summary(&self) -> String {
        let rules: Vec<String> = self
            .rule_applications
            .iter()
            .map(|(n, c)| format!("{n}×{c}"))
            .collect();
        format!(
            "cost {:.0} → {:.0} ({} iterations, {} alternatives): [{}]",
            self.cost_before,
            self.cost_after,
            self.iterations,
            self.alternatives_considered,
            rules.join(", ")
        )
    }
}

/// The cross optimizer.
#[derive(Debug, Default)]
pub struct Optimizer {
    pub mode: OptimizerMode,
    pub cost_params: Option<CostParams>,
}

impl Optimizer {
    pub fn heuristic() -> Self {
        Optimizer {
            mode: OptimizerMode::Heuristic,
            cost_params: None,
        }
    }

    pub fn cost_based() -> Self {
        Optimizer {
            mode: OptimizerMode::CostBased,
            cost_params: None,
        }
    }

    /// Optimize a plan.
    pub fn run(
        &self,
        plan: Plan,
        ctx: &OptimizerContext<'_>,
    ) -> Result<(Plan, OptimizationReport)> {
        let params = self.cost_params.unwrap_or_default();
        let cost_before = estimate(&plan, ctx.catalog, &params).0;
        match self.mode {
            OptimizerMode::Heuristic => {
                let mut report = OptimizationReport {
                    cost_before,
                    alternatives_considered: 1,
                    ..Default::default()
                };
                let out = heuristic_fixpoint(plan, ctx, &mut report)?;
                report.cost_after = estimate(&out, ctx.catalog, &params).0;
                Ok((out, report))
            }
            OptimizerMode::CostBased => {
                // Alternative schedules: full, no-inlining (prefer tensor),
                // no-translation (prefer inline/classical), relational-only,
                // nothing.
                let alternatives: Vec<RuleSet> = vec![
                    ctx.rules,
                    RuleSet {
                        model_inlining: false,
                        ..ctx.rules
                    },
                    RuleSet {
                        nn_translation: false,
                        ..ctx.rules
                    },
                    RuleSet::relational_only(),
                    RuleSet::none(),
                ];
                let mut best: Option<(f64, Plan, OptimizationReport)> = None;
                let n = alternatives.len();
                for rules in alternatives {
                    let alt_ctx = OptimizerContext {
                        catalog: ctx.catalog,
                        rules,
                        inline_max_tree_nodes: ctx.inline_max_tree_nodes,
                        device: ctx.device,
                        assume_fk_joins: ctx.assume_fk_joins,
                        cost_params: ctx.cost_params,
                        observed: ctx.observed,
                    };
                    let mut report = OptimizationReport {
                        cost_before,
                        alternatives_considered: n,
                        ..Default::default()
                    };
                    let candidate = heuristic_fixpoint(plan.clone(), &alt_ctx, &mut report)?;
                    let cost = estimate(&candidate, ctx.catalog, &params).0;
                    report.cost_after = cost;
                    if best.as_ref().map(|(c, _, _)| cost < *c).unwrap_or(true) {
                        best = Some((cost, candidate, report));
                    }
                }
                let (_, plan, report) = best.expect("at least one alternative evaluated");
                Ok((plan, report))
            }
        }
    }
}

/// One-call convenience: heuristic optimization.
pub fn optimize(plan: Plan, ctx: &OptimizerContext<'_>) -> Result<(Plan, OptimizationReport)> {
    Optimizer::heuristic().run(plan, ctx)
}

/// The paper's rule order, iterated to a fixpoint:
/// standard folding/pushdown first (so predicates sit right above scans
/// and below models), then data→model pruning, then model→data projection
/// pushdown + join elimination, then the operator transformations
/// (inlining before realization — small trees prefer the relational
/// engine; what remains is priced and realized classically, on the
/// columnar kernel or on the tensor runtime).
fn heuristic_fixpoint(
    mut plan: Plan,
    ctx: &OptimizerContext<'_>,
    report: &mut OptimizationReport,
) -> Result<Plan> {
    const MAX_ITERS: usize = 5;
    for _ in 0..MAX_ITERS {
        report.iterations += 1;
        let before = plan.clone();

        if ctx.rules.expr_constant_folding {
            let next = rules::folding::apply(plan.clone(), ctx)?;
            if next != plan {
                report.bump("expr_constant_folding");
                plan = next;
            }
        }
        if ctx.rules.predicate_pushdown {
            let next = rules::pushdown::apply(plan.clone(), ctx)?;
            if next != plan {
                report.bump("predicate_pushdown");
                plan = next;
            }
        }
        if ctx.rules.predicate_model_pruning {
            let next = rules::pruning::apply(plan.clone(), ctx)?;
            if next != plan {
                report.bump("predicate_model_pruning");
                plan = next;
            }
        }
        if ctx.rules.model_projection_pushdown {
            let next = rules::projection::model_projection_pushdown(plan.clone(), ctx)?;
            if next != plan {
                report.bump("model_projection_pushdown");
                plan = next;
            }
        }
        if ctx.rules.projection_pushdown {
            let next = rules::projection::projection_pushdown(plan.clone(), ctx)?;
            if next != plan {
                report.bump("projection_pushdown");
                plan = next;
            }
        }
        if plan == before {
            break;
        }
    }
    // Operator transformations run once, after the logical fixpoint.
    if ctx.rules.model_inlining {
        let next = rules::inlining::apply(plan.clone(), ctx)?;
        if next != plan {
            report.bump("model_inlining");
            plan = next;
        }
    }
    // Realization last, in one pass: translation and kernel placement
    // price each surviving model operator's alternatives (classical vs
    // columnar kernel vs tensor) and build only the cheapest, so a model
    // placed on the kernel is never translated.
    if ctx.rules.nn_translation || ctx.rules.kernel_placement {
        let (next, realized) = rules::placement::realize(
            plan,
            ctx,
            ctx.rules.nn_translation,
            ctx.rules.kernel_placement,
        )?;
        if realized.translated {
            report.bump("nn_translation");
        }
        if realized.placed {
            report.bump("kernel_placement");
        }
        plan = next;
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_data::{Catalog, Column, DataType, Schema, Table};
    use raven_ir::{ExecutionMode, Expr, JoinKind, ModelRef};
    use raven_ml::featurize::Transform;
    use raven_ml::tree::TreeNode;
    use raven_ml::{DecisionTree, Estimator, FeatureStep, Pipeline};
    use std::sync::Arc;

    /// Hospital-like catalog for the running example.
    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let n = 100usize;
        cat.register(
            "patient_info",
            Table::try_new(
                Schema::from_pairs(&[
                    ("id", DataType::Int64),
                    ("pregnant", DataType::Float64),
                    ("age", DataType::Float64),
                ])
                .into_shared(),
                vec![
                    Column::Int64((0..n as i64).collect()),
                    Column::Float64((0..n).map(|i| (i % 2) as f64).collect()),
                    Column::Float64((0..n).map(|i| 20.0 + (i % 50) as f64).collect()),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat.register(
            "blood_tests",
            Table::try_new(
                Schema::from_pairs(&[("bid", DataType::Int64), ("bp", DataType::Float64)])
                    .into_shared(),
                vec![
                    Column::Int64((0..n as i64).collect()),
                    Column::Float64((0..n).map(|i| 100.0 + (i % 80) as f64).collect()),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat.register(
            "prenatal_tests",
            Table::try_new(
                Schema::from_pairs(&[("pid", DataType::Int64), ("marker", DataType::Float64)])
                    .into_shared(),
                vec![
                    Column::Int64((0..n as i64).collect()),
                    Column::Float64((0..n).map(|i| (i % 7) as f64).collect()),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    /// Fig.-1 style tree over [pregnant, bp, marker].
    fn fig1_pipeline() -> Pipeline {
        let tree = DecisionTree::from_nodes(
            vec![
                TreeNode::Split {
                    feature: 0,
                    threshold: 0.5,
                    left: 1,
                    right: 4,
                },
                // Not-pregnant branch uses prenatal marker.
                TreeNode::Split {
                    feature: 2,
                    threshold: 3.0,
                    left: 2,
                    right: 3,
                },
                TreeNode::Leaf { value: 1.0 },
                TreeNode::Leaf { value: 3.0 },
                // Pregnant branch uses bp only.
                TreeNode::Split {
                    feature: 1,
                    threshold: 140.0,
                    left: 5,
                    right: 6,
                },
                TreeNode::Leaf { value: 4.0 },
                TreeNode::Leaf { value: 7.0 },
            ],
            3,
        )
        .unwrap();
        Pipeline::new(
            vec![
                FeatureStep::new("pregnant", Transform::Identity),
                FeatureStep::new("bp", Transform::Identity),
                FeatureStep::new("marker", Transform::Identity),
            ],
            Estimator::Tree(tree),
        )
        .unwrap()
    }

    /// The running-example plan: filter(pregnant=1 AND score>6) over
    /// predict over a 3-way join.
    fn running_example(cat: &Catalog) -> Plan {
        let scan = |t: &str| Plan::Scan {
            table: t.into(),
            schema: cat.table(t).unwrap().schema().clone(),
        };
        let joined = Plan::Join {
            left: Box::new(Plan::Join {
                left: Box::new(scan("patient_info")),
                right: Box::new(scan("blood_tests")),
                left_key: "id".into(),
                right_key: "bid".into(),
                kind: JoinKind::Inner,
            }),
            right: Box::new(scan("prenatal_tests")),
            left_key: "id".into(),
            right_key: "pid".into(),
            kind: JoinKind::Inner,
        };
        let predicted = Plan::Predict {
            input: Box::new(joined),
            model: ModelRef {
                name: "duration_of_stay".into(),
                pipeline: Arc::new(fig1_pipeline()),
            },
            output: "length_of_stay".into(),
            mode: ExecutionMode::InProcess,
        };
        Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(predicted),
                predicate: Expr::col("pregnant")
                    .eq(Expr::lit(1i64))
                    .and(Expr::col("length_of_stay").gt(Expr::lit(6i64))),
            }),
            exprs: vec![
                (Expr::col("id"), "id".into()),
                (Expr::col("length_of_stay"), "length_of_stay".into()),
            ],
        }
    }

    #[test]
    fn running_example_end_to_end() {
        let cat = catalog();
        let mut ctx = OptimizerContext::new(&cat);
        ctx.rules.stats_derived_predicates = false;
        // Keep trees inlinable.
        let (out, report) = optimize(running_example(&cat), &ctx).unwrap();

        // The pregnant=1 predicate must have pruned the tree, which drops
        // the marker feature, which eliminates the prenatal_tests join.
        assert!(
            !out.scanned_tables().contains(&"prenatal_tests".to_string()),
            "prenatal join should be eliminated:\n{out}"
        );
        // The small pruned tree was inlined: no Predict nodes remain.
        let mut predicts = 0;
        out.visit(&mut |p| {
            if matches!(p, Plan::Predict { .. } | Plan::TensorPredict { .. }) {
                predicts += 1;
            }
        });
        assert_eq!(predicts, 0, "tree should be inlined:\n{out}");
        assert!(report.cost_after < report.cost_before);
        assert!(report
            .rule_applications
            .iter()
            .any(|(n, _)| n == "predicate_model_pruning"));
        assert!(report.summary().contains("model_inlining"));
    }

    #[test]
    fn optimized_plan_preserves_results() {
        use raven_relational::{CancelToken, ExecOptions, Executor, Scorer};
        // Execute original vs optimized and compare.
        struct PipelineScorer;
        impl Scorer for PipelineScorer {
            fn score(
                &self,
                node: &Plan,
                batch: &raven_data::RecordBatch,
                _cancel: &CancelToken,
            ) -> raven_relational::Result<Vec<f64>> {
                match node {
                    Plan::Predict { model, .. } => model
                        .pipeline
                        .predict(batch)
                        .map_err(|e| raven_relational::ExecError::Scoring(e.to_string())),
                    Plan::TensorPredict { model, .. } => model
                        .pipeline
                        .predict(batch)
                        .map_err(|e| raven_relational::ExecError::Scoring(e.to_string())),
                    other => Err(raven_relational::ExecError::NoScorer(other.label())),
                }
            }
        }
        let cat = catalog();
        let mut ctx = OptimizerContext::new(&cat);
        ctx.rules.stats_derived_predicates = false;
        let plan = running_example(&cat);
        let (optimized, _) = optimize(plan.clone(), &ctx).unwrap();

        let exec = |p: &Plan| {
            Executor::new(&cat, &PipelineScorer, ExecOptions::serial())
                .execute(p)
                .unwrap()
        };
        let a = exec(&plan);
        let b = exec(&optimized);
        assert_eq!(a.num_rows(), b.num_rows());
        assert_eq!(
            a.column_by_name("id").unwrap(),
            b.column_by_name("id").unwrap()
        );
        assert_eq!(
            a.column_by_name("length_of_stay").unwrap(),
            b.column_by_name("length_of_stay").unwrap()
        );
    }

    #[test]
    fn rules_disabled_means_no_change() {
        let cat = catalog();
        let ctx = OptimizerContext::new(&cat).with_rules(RuleSet::none());
        let plan = running_example(&cat);
        let (out, report) = optimize(plan.clone(), &ctx).unwrap();
        assert_eq!(out, plan);
        assert!(report.rule_applications.is_empty());
    }

    #[test]
    fn cost_based_never_worse_than_heuristic() {
        let cat = catalog();
        let mut ctx = OptimizerContext::new(&cat);
        ctx.rules.stats_derived_predicates = false;
        let plan = running_example(&cat);
        let (_, heuristic) = Optimizer::heuristic().run(plan.clone(), &ctx).unwrap();
        let (_, cost_based) = Optimizer::cost_based().run(plan, &ctx).unwrap();
        assert!(cost_based.cost_after <= heuristic.cost_after);
        assert_eq!(cost_based.alternatives_considered, 5);
    }

    #[test]
    fn translation_applies_when_inlining_disabled() {
        let cat = catalog();
        let mut ctx = OptimizerContext::new(&cat);
        ctx.rules.stats_derived_predicates = false;
        ctx.rules.model_inlining = false;
        // Placement may re-route the translated operator to the columnar
        // kernel; disable it so this test isolates translation.
        ctx.rules.kernel_placement = false;
        let (out, _) = optimize(running_example(&cat), &ctx).unwrap();
        let mut tensor = 0;
        out.visit(&mut |p| {
            if matches!(p, Plan::TensorPredict { .. }) {
                tensor += 1;
            }
        });
        assert_eq!(tensor, 1);
    }

    #[test]
    fn placement_picks_kernel_for_uninlinable_forest() {
        use raven_ml::RandomForest;
        let cat = catalog();
        let mut ctx = OptimizerContext::new(&cat);
        ctx.rules.stats_derived_predicates = false;
        // A forest of identical fig-1 trees is too big to inline…
        let trees: Vec<DecisionTree> = (0..200)
            .map(|_| {
                let Estimator::Tree(t) = fig1_pipeline().estimator().clone() else {
                    unreachable!()
                };
                t
            })
            .collect();
        let pipeline = Pipeline::new(
            vec![
                FeatureStep::new("pregnant", Transform::Identity),
                FeatureStep::new("bp", Transform::Identity),
                FeatureStep::new("marker", Transform::Identity),
            ],
            Estimator::Forest(RandomForest::from_trees(trees).unwrap()),
        )
        .unwrap();
        let plan = Plan::Predict {
            input: Box::new(Plan::Scan {
                table: "patient_info".into(),
                schema: cat.table("patient_info").unwrap().schema().clone(),
            }),
            model: ModelRef {
                name: "forest".into(),
                pipeline: Arc::new(pipeline),
            },
            output: "score".into(),
            mode: ExecutionMode::InProcess,
        };
        let (out, report) = optimize(plan, &ctx).unwrap();
        // …so placement must route it to the columnar kernel: cheaper
        // than both classical row-at-a-time and the tensor translation.
        let mut kernel = 0;
        out.visit(&mut |p| {
            if matches!(p, Plan::KernelPredict { .. }) {
                kernel += 1;
            }
        });
        assert_eq!(kernel, 1, "forest should score on the kernel:\n{out}");
        assert!(report.summary().contains("kernel_placement"));
    }
}
