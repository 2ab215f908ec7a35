//! The names `BENCHMARK.json` fixes: workloads, end-to-end metrics,
//! per-layer metrics, each with its unit. `raven-bench` can only emit a
//! metric that is listed here ([`MetricSet::set`] panics otherwise), and
//! `tests/schema.rs` checks this file against `BENCHMARK.json` in both
//! directions — so a later change cites one set of names.

use crate::json::Json;

pub const BATCH_INFER: &str = "batch_infer";
pub const SERVE_EXEC: &str = "serve_exec";
pub const SERVE_HOT: &str = "serve_hot";
pub const SERVE_CHURN: &str = "serve_churn";
pub const POINT_SCORE: &str = "point_score";

pub const WORKLOADS: [&str; 5] = [BATCH_INFER, SERVE_EXEC, SERVE_HOT, SERVE_CHURN, POINT_SCORE];

/// `(name, unit)` — measured with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("slo_ok_share", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The five `batch_infer` queries and the four `serve_exec` templates:
/// suffixes of `relational.exec_us.*` and `runtime.scorer_us.*`.
pub const BATCH_QUERIES: [&str; 5] = [
    "tree_pruned",
    "forest_kernel",
    "mlp",
    "flight_lr",
    "rel_only",
];
pub const EXEC_TEMPLATES: [&str; 4] = [
    "exec_tree_filter",
    "exec_forest_range",
    "exec_tree_topk",
    "exec_rel_agg",
];

/// Operator groups of `relational.op.*.self_us`, with the executor span
/// names each one sums.
pub const OP_GROUPS: [(&str, &[&str]); 7] = [
    ("scan", &["op:scan"]),
    ("filter", &["op:filter"]),
    ("join", &["op:join"]),
    ("project", &["op:project"]),
    ("aggregate", &["op:aggregate"]),
    ("sort", &["op:sort", "op:limit"]),
    (
        "predict",
        &[
            "op:predict",
            "op:tensor-predict",
            "op:kernel-predict",
            "op:clustered-predict",
        ],
    ),
];

/// Request stages of `server.stage.*.self_us`: the serving path's own
/// span names, plus `exec` (every `op:*` span) and `scorer`
/// (`scorer-invocation*`, `batcher-*`).
pub const STAGES: [&str; 10] = [
    "normalize",
    "plan-cache-lookup",
    "parse-bind",
    "optimize",
    "fingerprint",
    "result-cache-lookup",
    "tenant-quota-wait",
    "global-admission-wait",
    "exec",
    "scorer",
];

/// `(name, unit)` of every per-layer metric that is not one of the
/// generated families below.
const PER_LAYER_FIXED: [(&str, &str); 48] = [
    ("sql.plan_us", "us"),
    ("opt.optimize_us", "us"),
    ("opt.rules_fired_literal", "count"),
    ("opt.rules_fired_param", "count"),
    ("ir.fingerprint_ns", "ns"),
    ("ir.bind_params_ns", "ns"),
    ("runtime.session_cache_hit_share", "ratio"),
    ("ml.predict_ns_per_row.tree", "ns"),
    ("ml.predict_ns_per_row.forest", "ns"),
    ("ml.predict_ns_per_row.mlp", "ns"),
    ("ml.predict_ns_per_row.linear", "ns"),
    ("ml.kernel_ns_per_row", "ns"),
    ("ml.kernel_ns_per_node_visit", "ns"),
    ("ml.kernel_build_us", "us"),
    ("tensor.run_ns_per_row", "ns"),
    ("server.normalize.ns", "ns"),
    ("server.proto.req_encode_ns", "ns"),
    ("server.proto.req_decode_ns", "ns"),
    ("server.proto.rows_encode_ns_per_row", "ns"),
    ("server.proto.rows_decode_ns_per_row", "ns"),
    ("server.state.serve_hit_ns", "ns"),
    ("server.state.serve_miss_us", "us"),
    ("server.net.wire_overhead_us", "us"),
    ("server.cache.plan_hit_share", "ratio"),
    ("server.cache.preparations", "count"),
    ("server.result_cache.hit_share", "ratio"),
    ("server.result_cache.executions", "count"),
    ("server.result_cache.evictions", "count"),
    ("server.result_cache.invalidations", "count"),
    ("server.admission.rejected_share", "ratio"),
    ("server.admission.wait_us", "us"),
    ("server.batcher.mean_batch", "count"),
    ("server.batcher.scorer_calls", "count"),
    ("server.batcher.shed_share", "ratio"),
    ("server.batcher.expired_share", "ratio"),
    ("server.batcher.score_us_per_row", "us"),
    ("server.batcher.queue_wait_us", "us"),
    ("server.stage.unattributed_share", "ratio"),
    ("loadgen.latency_p99_us", "us"),
    ("loadgen.lateness_p95_us", "us"),
    ("loadgen.samples", "count"),
    ("loadgen.slo_miss_share", "ratio"),
    ("loadgen.writes", "count"),
    ("loadgen.traced_ops_per_s", "1/s"),
    ("loadgen.untraced_ops_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.requests_traced", "count"),
    ("trace.spans", "count"),
];

/// Every per-layer metric `(name, unit)`, in reporting order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for q in BATCH_QUERIES.iter().chain(&EXEC_TEMPLATES) {
        all.push((format!("relational.exec_us.{q}"), "us"));
        all.push((format!("runtime.scorer_us.{q}"), "us"));
    }
    for (group, _) in OP_GROUPS {
        all.push((format!("relational.op.{group}.self_us"), "us"));
    }
    for stage in STAGES {
        all.push((format!("server.stage.{stage}.self_us"), "us"));
    }
    all
}

/// One run's metrics: every listed name, zero until measured. A metric
/// a workload's layers never touch stays 0 (e.g. `server.batcher.*` on
/// `batch_infer`), which is itself the prediction "no work there".
#[derive(Debug, Clone)]
pub struct MetricSet {
    values: Vec<(String, &'static str, f64)>,
}

impl MetricSet {
    pub fn end_to_end() -> Self {
        MetricSet {
            values: END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u, 0.0))
                .collect(),
        }
    }

    pub fn per_layer() -> Self {
        MetricSet {
            values: per_layer().into_iter().map(|(n, u)| (n, u, 0.0)).collect(),
        }
    }

    /// Record `value` under a listed `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not listed in spec.rs"));
        slot.2 = value;
    }

    /// `{"name": {"value": v, "unit": u}, …}` — the contract's shape.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.values
                .iter()
                .map(|(n, u, v)| {
                    (
                        n.clone(),
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*u))]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_within_the_contract_limits() {
        let per_layer = per_layer();
        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && per_layer.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        names.extend(per_layer.iter().map(|(n, _)| n.as_str()));
        for name in &names {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside [A-Za-z0-9_.-]"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    #[should_panic(expected = "not listed")]
    fn an_unlisted_metric_cannot_be_emitted() {
        MetricSet::end_to_end().set("latency_p99_us", 1.0);
    }
}
