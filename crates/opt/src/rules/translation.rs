//! NN translation as an optimizer rule (paper §4.2): remaining classical
//! `Predict` operators become `TensorPredict` operators executing the
//! pipeline's GEMM translation on the integrated tensor runtime.

use crate::context::OptimizerContext;
use crate::Result;
use raven_ir::{ModelRef, Plan};
use raven_ml::translate::translate_pipeline;
use raven_tensor::Graph;
use std::sync::Arc;

/// Translate every in-process `Predict` into a `TensorPredict`.
///
/// This is the realization pass (`placement::realize`) with kernel
/// placement off: the optimizer runs both choices in that one pass, so
/// that a model placed on the columnar kernel is never translated.
pub fn apply(plan: Plan, ctx: &OptimizerContext<'_>) -> Result<Plan> {
    crate::rules::placement::realize(plan, ctx, true, false).map(|(plan, _)| plan)
}

#[cfg(test)]
thread_local! {
    /// Graphs [`translation_of`] built on this thread, so a test can show
    /// that a realization decision built none.
    pub(crate) static GRAPHS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The pipeline's GEMM translation, for a `TensorPredict`.
pub(crate) fn translation_of(model: &ModelRef) -> Result<Arc<Graph>> {
    #[cfg(test)]
    GRAPHS_BUILT.with(|n| n.set(n.get() + 1));
    Ok(Arc::new(translate_pipeline(&model.pipeline)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use raven_data::{Catalog, Column, DataType, Schema, Table};
    use raven_ir::{Device, ExecutionMode};
    use raven_ml::featurize::Transform;
    use raven_ml::{Estimator, FeatureStep, LinearKind, LinearModel, Pipeline};

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.register(
            "t",
            Table::try_new(
                Schema::from_pairs(&[("x", DataType::Float64)]).into_shared(),
                vec![Column::from(vec![1.0])],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn predict(cat: &Catalog, mode: ExecutionMode) -> Plan {
        let pipeline = Pipeline::new(
            vec![FeatureStep::new("x", Transform::Identity)],
            Estimator::Linear(LinearModel::new(vec![2.0], 0.5, LinearKind::Logistic).unwrap()),
        )
        .unwrap();
        Plan::Predict {
            input: Box::new(Plan::Scan {
                table: "t".into(),
                schema: cat.table("t").unwrap().schema().clone(),
            }),
            model: ModelRef {
                name: "m".into(),
                pipeline: Arc::new(pipeline),
            },
            output: "score".into(),
            mode,
        }
    }

    #[test]
    fn inprocess_predict_becomes_tensor() {
        let cat = catalog();
        let ctx = OptimizerContext::new(&cat).with_device(Device::CpuSingle);
        let out = apply(predict(&cat, ExecutionMode::InProcess), &ctx).unwrap();
        let Plan::TensorPredict { graph, device, .. } = &out else {
            panic!("expected TensorPredict:\n{out}");
        };
        assert!(!graph.nodes.is_empty());
        assert_eq!(*device, Device::CpuSingle);
    }

    #[test]
    fn external_modes_untouched() {
        let cat = catalog();
        let ctx = OptimizerContext::new(&cat);
        for mode in [ExecutionMode::OutOfProcess, ExecutionMode::Container] {
            let plan = predict(&cat, mode);
            assert_eq!(apply(plan.clone(), &ctx).unwrap(), plan);
        }
    }
}
