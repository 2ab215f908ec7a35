//! `raven-bench all` result files and `raven-bench compare A B`: every
//! (workload, end-to-end metric) delta against the bound `BENCHMARK.json`
//! fixes for it.

use crate::json::Json;
use crate::samples::Samples;
use std::fmt::Write as _;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the tools read.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bounded>,
    pub per_layer: Vec<(String, String)>,
}

impl Benchmark {
    pub fn parse(text: &str) -> Result<Benchmark, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing list {key:?}"))
        };
        let text_of = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key:?}"))
        };
        let better = |item: &Json| -> Result<bool, String> {
            match text_of(item, "better")?.as_str() {
                "higher" => Ok(true),
                "lower" => Ok(false),
                other => Err(format!("BENCHMARK.json: better = {other:?}")),
            }
        };
        Ok(Benchmark {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| {
                    Ok(Bounded {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: better(m)?,
                        bound: m
                            .get("bound")
                            .and_then(Json::as_f64)
                            .ok_or("BENCHMARK.json: end_to_end entry without bound")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| {
                    better(m)?;
                    Ok((text_of(m, "name")?, text_of(m, "unit")?))
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

/// The values one metric took over the runs of a result file.
fn metric_values(results: &Json, workload: &str, metric: &str) -> Option<Samples> {
    let values = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    Some(Samples::new(
        values.iter().filter_map(Json::as_f64).collect(),
    ))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both sides' own spread is too.
    Within,
    /// Within the bound, but a side's run-to-run spread exceeds it: the
    /// runs cannot tell "unchanged" from "changed".
    Unresolved,
    /// Worse than the baseline by more than the bound.
    Breach,
}

/// How much worse `candidate` is than `baseline`, as a share of the
/// baseline (negative = better), in the metric's own direction.
pub fn worsening(baseline: f64, candidate: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        baseline - candidate
    } else {
        candidate - baseline
    };
    delta / baseline.abs()
}

pub fn verdict(baseline: &Samples, candidate: &Samples, metric: &Bounded) -> Option<Verdict> {
    let worse = worsening(
        baseline.median()?,
        candidate.median()?,
        metric.higher_is_better,
    );
    let noisy = |s: &Samples| s.spread().is_some_and(|spread| spread > metric.bound);
    Some(if worse > metric.bound {
        Verdict::Breach
    } else if noisy(baseline) || noisy(candidate) {
        Verdict::Unresolved
    } else {
        Verdict::Within
    })
}

/// The comparison table, and whether any metric breached its bound.
pub fn compare(benchmark: &Benchmark, baseline: &Json, candidate: &Json) -> (String, bool) {
    let mut table = String::new();
    let mut breached = false;
    let _ = writeln!(
        table,
        "{:<12} {:<15} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "bound", "spreadA", "spreadB"
    );
    for workload in &benchmark.workloads {
        for metric in &benchmark.end_to_end {
            let (Some(a), Some(b)) = (
                metric_values(baseline, workload, &metric.name),
                metric_values(candidate, workload, &metric.name),
            ) else {
                let _ = writeln!(
                    table,
                    "{workload:<12} {:<15} missing from a file",
                    metric.name
                );
                breached = true;
                continue;
            };
            let Some(verdict) = verdict(&a, &b, metric) else {
                let _ = writeln!(table, "{workload:<12} {:<15} no values", metric.name);
                breached = true;
                continue;
            };
            breached |= verdict == Verdict::Breach;
            let (ma, mb) = (a.median().expect("values"), b.median().expect("values"));
            let spread = |s: &Samples| {
                s.spread()
                    .map_or_else(|| "-".to_string(), |v| format!("{:.1}%", v * 100.0))
            };
            let _ = writeln!(
                table,
                "{workload:<12} {:<15} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>6.1}% {:>8} {:>8}  {}",
                metric.name,
                worsening(ma, mb, metric.higher_is_better) * 100.0,
                metric.bound * 100.0,
                spread(&a),
                spread(&b),
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Unresolved => "UNRESOLVED (spread exceeds bound)",
                    Verdict::Breach => "BREACH",
                }
            );
        }
    }
    (table, breached)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{
        "command": ["x"], "paths": ["perfbench"], "run_seconds": 10,
        "workloads": [{"name": "w", "why": "because"}],
        "end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1}
        ],
        "per_layer": [{"name": "sql.plan_us", "unit": "us", "better": "lower"}]
    }"#;

    fn results(ops: &[f64], latency: &[f64]) -> Json {
        let values = |v: &[f64]| {
            Json::obj([(
                "values",
                Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
            )])
        };
        Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([(
                    "end_to_end",
                    Json::obj([
                        ("ops_per_s", values(ops)),
                        ("latency_p50_us", values(latency)),
                    ]),
                )]),
            )]),
        )])
    }

    #[test]
    fn benchmark_json_parses() {
        let b = Benchmark::parse(BENCHMARK).unwrap();
        assert_eq!(b.workloads, vec!["w"]);
        assert_eq!(b.end_to_end.len(), 2);
        assert!(b.end_to_end[0].higher_is_better && !b.end_to_end[1].higher_is_better);
        assert_eq!(b.per_layer, vec![("sql.plan_us".into(), "us".into())]);
        assert!(Benchmark::parse("{}").is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 80.0, true) - 0.2).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, false) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_drop_beyond_the_bound_is_a_breach_and_noise_is_unresolved() {
        let b = Benchmark::parse(BENCHMARK).unwrap();
        let steady = results(&[100.0, 101.0, 99.0, 100.0], &[10.0, 10.1, 9.9, 10.0]);
        let (_, breached) = compare(&b, &steady, &steady);
        assert!(!breached);

        let slower = results(&[80.0, 81.0, 79.0, 80.0], &[10.0, 10.1, 9.9, 10.0]);
        let (table, breached) = compare(&b, &steady, &slower);
        assert!(breached && table.contains("BREACH"), "{table}");
        // Faster is never a breach.
        assert!(!compare(&b, &slower, &steady).1);

        let noisy = results(&[100.0, 130.0, 70.0, 101.0], &[10.0, 10.1, 9.9, 10.0]);
        let (table, breached) = compare(&b, &steady, &noisy);
        assert!(!breached && table.contains("UNRESOLVED"), "{table}");

        let (table, breached) = compare(
            &b,
            &steady,
            &Json::obj([("workloads", Json::obj::<String>([]))]),
        );
        assert!(breached && table.contains("missing"), "{table}");
    }
}
