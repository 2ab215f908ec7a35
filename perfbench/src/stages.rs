//! From span trees to per-layer self times.
//!
//! The program already records spans (request stages in the server,
//! operators in the executor, scorer invocations in the runtime); the
//! benchmark only reads them. A span's **self time** is its duration
//! minus the part of that interval its child spans cover — children of a
//! morsel-parallel operator overlap, so covered time is the union of the
//! child intervals, not their sum.

use crate::spec::{OP_GROUPS, STAGES};
use raven_obs::Span;

/// `self_us` of every span of one tree, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (lo, hi) = (p.start_us, p.start_us + p.duration_us);
            let start = span.start_us.clamp(lo, hi);
            let end = (span.start_us + span.duration_us).clamp(lo, hi);
            children[parent as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_us - covered
        })
        .collect()
}

/// The `server.stage.*` bucket a span name belongs to.
pub fn stage_of(name: &str) -> Option<&'static str> {
    if let Some(stage) = STAGES.iter().find(|s| **s == name) {
        return Some(stage);
    }
    if name.starts_with("op:") {
        Some("exec")
    } else if name.starts_with("scorer-invocation") || name.starts_with("batcher-") {
        Some("scorer")
    } else {
        None
    }
}

/// The `relational.op.*` group an executor span name belongs to.
pub fn op_group_of(name: &str) -> Option<&'static str> {
    OP_GROUPS
        .iter()
        .find(|(_, names)| names.contains(&name))
        .map(|(group, _)| *group)
}

/// Total self time per bucket over many span trees, bucketed by
/// `classify`; spans it maps to `None` are dropped.
pub fn sum_self_times<'a>(
    trees: impl IntoIterator<Item = &'a [Span]>,
    classify: impl Fn(&str) -> Option<&'static str>,
) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for spans in trees {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            let Some(bucket) = classify(&span.name) else {
                continue;
            };
            match totals.iter_mut().find(|(b, _)| *b == bucket) {
                Some(total) => total.1 += own,
                None => totals.push((bucket, own)),
            }
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<u32>, start_us: u64, duration_us: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_us,
            duration_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span("result-cache-lookup", None, 0, 100),
            span("op:project", Some(0), 10, 80),
            // Two morsels of one operator overlapping in time…
            span("scorer-invocation:m", Some(1), 20, 30),
            span("scorer-invocation:m", Some(1), 40, 30),
            // …and a child that outlives its parent is clipped to it.
            span("op:scan", Some(1), 80, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30, 50]);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_time_its_roots_cover() {
        let spans = vec![
            span("normalize", None, 0, 5),
            span("plan-cache-lookup", None, 5, 40),
            span("parse-bind", Some(1), 6, 10),
            span("optimize", Some(1), 16, 25),
            span("result-cache-lookup", None, 45, 55),
            span("op:filter", Some(4), 50, 45),
            span("op:scan", Some(5), 50, 20),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 5 + 40 + 55);
    }

    #[test]
    fn span_names_map_to_stages_and_operator_groups() {
        assert_eq!(stage_of("optimize"), Some("optimize"));
        assert_eq!(stage_of("op:kernel-predict"), Some("exec"));
        assert_eq!(stage_of("scorer-invocation:stay_tree"), Some("scorer"));
        assert_eq!(stage_of("batcher-queue"), Some("scorer"));
        assert_eq!(stage_of("something-new"), None);
        assert_eq!(op_group_of("op:limit"), Some("sort"));
        assert_eq!(op_group_of("op:tensor-predict"), Some("predict"));
        assert_eq!(op_group_of("scorer-invocation"), None);
        let totals = sum_self_times(
            [&[span("op:scan", None, 0, 7), span("op:scan", None, 7, 3)][..]],
            op_group_of,
        );
        assert_eq!(totals, vec![("scan", 10)]);
    }
}
