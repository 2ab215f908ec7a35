//! `raven-bench`: run one workload, run them all, or compare two runs.
//!
//! ```text
//! raven-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! raven-bench all [--seed <n>] [--seconds <s>] [--runs <n>] [--quick] [--out <file>]
//! raven-bench compare <A.json> <B.json> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command invokes: it prints
//! one JSON object as the last line of standard output (diagnostics go
//! to standard error). `all` runs every workload, end-to-end and
//! per-layer, each in its own child process — so set-up time and peak
//! memory are per workload — and prints every metric by name with its
//! unit.

use raven_perfbench::compare::{compare, Benchmark};
use raven_perfbench::json::Json;
use raven_perfbench::run::{run, RunConfig};
use raven_perfbench::samples::Samples;
use raven_perfbench::spec;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Every flag some command takes; each but `--quick` takes a value.
const FLAGS: [&str; 8] = [
    "workload",
    "seed",
    "seconds",
    "trace",
    "quick",
    "runs",
    "out",
    "benchmark",
];

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(flag) if !FLAGS.contains(&flag) => {
                    return Err(format!("unknown flag --{flag}"));
                }
                Some("quick") => parsed.flags.push(("quick".into(), "1".into())),
                Some(flag) => {
                    let value = args.next().ok_or(format!("--{flag} needs a value"))?;
                    parsed.flags.push((flag.to_string(), value));
                }
                None => parsed.words.push(arg),
            }
        }
        Ok(parsed)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| v.parse().map_err(|_| format!("--{flag}: bad value {v:?}")))
            .transpose()
    }
}

/// `<target dir>/raven-bench`, next to the build that produced this
/// executable (`<target dir>/release/raven-bench`): inside the checkout
/// and inside what `.gitignore` names.
fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    exe.parent()
        .and_then(|profile| profile.parent())
        .expect("executable sits in <target>/<profile>/")
        .join("raven-bench")
}

fn run_config(args: &Args) -> Result<RunConfig, String> {
    Ok(RunConfig {
        workload: args.get("workload").ok_or("--workload is required")?.into(),
        seed: args.number("seed")?.ok_or("--seed is required")?,
        seconds: args.number("seconds")?.ok_or("--seconds is required")?,
        trace: match args.get("trace").ok_or("--trace is required")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        quick: args.get("quick").is_some(),
        trace_dir: output_dir(),
    })
}

fn one_run(args: &Args) -> Result<(), String> {
    let output = run(&run_config(args)?)?;
    println!("{}", output.to_json().render());
    Ok(())
}

/// Run this executable again for one workload and parse its result line.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Json, String> {
    let mut command = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        command.arg("--quick");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            trace as u8, output.status
        ));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    Json::parse(stdout.lines().last().ok_or("child printed nothing")?)
}

/// One metric's values over the runs of `all`.
struct Series {
    name: String,
    unit: String,
    values: Vec<f64>,
}

/// Append one result line's metrics, one value per series.
fn append_metrics(into: &mut Vec<Series>, result: &Json) -> Result<(), String> {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line without metrics")?;
    for (name, metric) in metrics {
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .ok_or("metric without value")?;
        match into.iter_mut().find(|s| &s.name == name) {
            Some(series) => series.values.push(value),
            None => into.push(Series {
                name: name.clone(),
                unit: metric
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .into(),
                values: vec![value],
            }),
        }
    }
    Ok(())
}

fn print_metrics(metrics: &[Series]) {
    for Series { name, unit, values } in metrics {
        let values = Samples::new(values.clone());
        let median = values.median().unwrap_or(f64::NAN);
        match values.quartiles() {
            Some((q1, _, q3)) => println!(
                "  {name:<44} {median:>16.4} {unit:<6} q1 {q1:.4}  q3 {q3:.4}  n {}",
                values.count()
            ),
            None => println!("  {name:<44} {median:>16.4} {unit}"),
        }
    }
}

/// `{metric: {"unit": u, "values": [..]}}` — what `compare` reads.
fn series_json(metrics: Vec<Series>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|s| {
                let values = s.values.into_iter().map(Json::Num).collect();
                (
                    s.name,
                    Json::obj([("unit", Json::Str(s.unit)), ("values", Json::Arr(values))]),
                )
            })
            .collect(),
    )
}

fn all(args: &Args) -> Result<(), String> {
    let quick = args.get("quick").is_some();
    let seed: u64 = args.number("seed")?.unwrap_or(1);
    let seconds: f64 = args
        .number("seconds")?
        .unwrap_or(if quick { 1.0 } else { 20.0 });
    let runs: usize = args.number("runs")?.unwrap_or(1).max(1);
    let mut workloads = Vec::new();
    for workload in spec::WORKLOADS {
        let (mut end_to_end, mut per_layer) = (Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (Vec::new(), Vec::new());
        for _ in 0..runs {
            for (trace, into) in [(false, &mut end_to_end), (true, &mut per_layer)] {
                let result = child_run(workload, seed, seconds, trace, quick)?;
                append_metrics(into, &result)?;
                attempted.push(result.get("attempted").cloned().unwrap_or(Json::Null));
                failed.push(result.get("failed").cloned().unwrap_or(Json::Null));
            }
        }
        let total = |counts: &[Json]| counts.iter().filter_map(Json::as_f64).sum::<f64>();
        println!(
            "== {workload}: attempted {}, succeeded {}, failed {} ({} runs x [end-to-end, per-layer])",
            total(&attempted),
            total(&attempted) - total(&failed),
            total(&failed),
            runs
        );
        print_metrics(&end_to_end);
        print_metrics(&per_layer);
        workloads.push((
            workload.to_string(),
            Json::obj([
                ("attempted", Json::Arr(attempted)),
                ("failed", Json::Arr(failed)),
                ("end_to_end", series_json(end_to_end)),
                ("per_layer", series_json(per_layer)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("runs", Json::Num(runs as f64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let out = match args.get("out") {
        Some(path) => PathBuf::from(path),
        None => {
            std::fs::create_dir_all(output_dir()).map_err(|e| e.to_string())?;
            output_dir().join("results.json")
        }
    };
    std::fs::write(&out, doc.render()).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(())
}

/// `Ok(true)` when a metric breached its bound.
fn compare_files(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("usage: raven-bench compare <A.json> <B.json> [--benchmark <file>]".into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"));
    let benchmark = Benchmark::parse(&read(args.get("benchmark").unwrap_or("BENCHMARK.json"))?)?;
    let (table, breached) = compare(
        &benchmark,
        &Json::parse(&read(a)?)?,
        &Json::parse(&read(b)?)?,
    );
    print!("{table}");
    Ok(breached)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            None => one_run(&args).map(|()| false),
            Some("all") => all(&args).map(|()| false),
            Some("compare") => compare_files(&args),
            Some(other) => Err(format!(
                "unknown command {other:?} (expected all or compare)"
            )),
        }
    });
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("raven-bench: {message}");
            ExitCode::from(2)
        }
    }
}
