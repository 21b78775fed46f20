//! End-to-end and per-layer benchmark of the Past-Future serving
//! simulator. See `README.md` for the metric catalogue.
//!
//! ```text
//! benchmark [--workload <name>|all] [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
//! benchmark --compare <parent.json> <change.json>
//! ```
//!
//! Each workload prints `workload metric value unit` lines, writes every
//! raw sample to `<out>/benchmark.json` and ends with one JSON line:
//! end-to-end metrics, or per-layer metrics with `--trace 1`. The exit
//! code is 1 when an output check failed. `all` runs every workload in
//! its own process, one after another, so each peak-memory reading
//! belongs to one workload.

mod catalog;
mod compare;
mod json;
mod replay;
mod report;
mod run;
mod timing;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: benchmark [--workload <name>|all] [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--out <dir>]\n       benchmark --compare <parent.json> <change.json>";

/// Default wall-clock budget of one workload's timed rounds, matching
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    compare: Option<(String, String)>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: true,
        out: PathBuf::from("results"),
        compare: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--compare" => {
                let parent = value()?;
                let change = value()?;
                parsed.compare = Some((parent, change));
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload != "all" && workloads::by_name(&parsed.workload).is_none() {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {}; expected all or one of {}",
            parsed.workload,
            names.join(", ")
        ));
    }
    Ok(parsed)
}

fn write_raw(out: &std::path::Path, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join("benchmark.json");
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process.
fn run_one(args: &Args) -> Result<bool, String> {
    let w = workloads::by_name(&args.workload).expect("validated");
    let report = run::run(
        w,
        &run::Options {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        },
    );
    report::print_lines(&report);
    let entry = report::raw_entry(&report);
    write_raw(
        &args.out,
        &report::raw_file(args.seed, args.seconds, &[(w.name.to_string(), entry)]),
    )?;
    println!("{}", report::result_line(&report, args.trace));
    Ok(report.failures.is_empty())
}

/// Runs every workload in a child process of its own, then merges their
/// raw files into `<out>/benchmark.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut ok = true;
    let mut entries = Vec::new();
    for w in &workloads::WORKLOADS {
        let dir = args.out.join(w.name);
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&dir)
            .status()
            .map_err(|e| format!("starting {}: {e}", w.name))?;
        ok &= status.success();
        let path = dir.join("benchmark.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let parsed = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let entry = parsed
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .map(json::write)
            .ok_or_else(|| format!("{} holds no {} entry", path.display(), w.name))?;
        entries.push((w.name.to_string(), entry));
    }
    write_raw(
        &args.out,
        &report::raw_file(args.seed, args.seconds, &entries),
    )?;
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.compare {
        Some((parent, change)) => {
            compare::compare(parent, change, "BENCHMARK.json").map(|worse| !worse)
        }
        None if args.workload == "all" => run_all(&args),
        None => run_one(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    //! Checks the catalogue against `BENCHMARK.json` at the repository
    //! root, so the declared benchmark and the metrics the program emits
    //! cannot drift apart.

    use super::*;
    use crate::json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String, Option<String>)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
                (
                    field("name").expect("name"),
                    field("unit").expect("unit"),
                    field("better"),
                )
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The `name` of every entry of list `key`.
    fn entry_names(v: &Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("list")
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed() {
        let v = benchmark_json();
        for key in ["end_to_end", "per_layer", "workloads"] {
            for name in entry_names(&v, key) {
                assert!(valid_name(&name), "{key} name {name:?}");
            }
        }
        for m in &catalog::END_TO_END {
            assert!(valid_name(m.name), "{}", m.name);
        }
        for m in &catalog::PER_LAYER {
            assert!(valid_name(m.name), "{}", m.name);
        }
    }

    #[test]
    fn declared_metrics_match_the_catalogue() {
        let v = benchmark_json();
        let declared = names(&v, "end_to_end");
        let emitted: Vec<_> = catalog::END_TO_END.iter().filter(|m| m.declared).collect();
        assert_eq!(declared.len(), emitted.len(), "declared end-to-end set");
        for (name, unit, better) in &declared {
            let m = catalog::end_to_end(name).unwrap_or_else(|| panic!("{name} not emitted"));
            assert!(m.declared, "{name} is declared but not marked so");
            assert_eq!(unit, m.unit, "{name} unit");
            assert_eq!(
                better.as_deref(),
                Some(m.better.label()),
                "{name} direction"
            );
        }
        assert!(declared
            .iter()
            .any(|(n, u, b)| n == "setup_s" && u == "s" && b.as_deref() == Some("lower")));
        let per_layer = names(&v, "per_layer");
        let emitted = catalog::PER_LAYER.iter().filter(|m| m.declared).count();
        assert_eq!(per_layer.len(), emitted, "declared per-layer set");
        for (name, unit, better) in &per_layer {
            let m = catalog::per_layer(name).unwrap_or_else(|| panic!("{name} not emitted"));
            assert!(m.declared, "{name} is declared but not marked so");
            assert_eq!(unit, m.unit, "{name} unit");
            assert_eq!(
                Some(m.better.label()),
                better.as_deref(),
                "{name} direction"
            );
        }
        let workloads = entry_names(&v, "workloads");
        let ours: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn every_declared_metric_is_emitted_for_every_workload() {
        // Small traced runs exercise every emission path.
        let v = benchmark_json();
        for w in &workloads::WORKLOADS {
            // pf_sim's elastic fleet harvests completions member by member
            // at each member's own clock, so the planner's observation
            // window sees times out of order once two replicas are live,
            // which a debug assertion in `ObservationWindow::observe`
            // rejects. Release builds (the benchmark's) compile it out.
            if cfg!(debug_assertions) && w.kind == workloads::Kind::Elastic {
                continue;
            }
            let report = run::run(
                w.resized(400),
                &run::Options {
                    seed: 0,
                    seconds: 0.0,
                    trace: true,
                },
            );
            assert!(
                report.failures.is_empty(),
                "{}: {:?}",
                w.name,
                report.failures
            );
            emits_declared(&v, &report);
        }
    }

    fn emits_declared(v: &Value, report: &run::Report) {
        let line = json::parse(&report::result_line(report, false)).expect("result line");
        let metrics = line
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        for (name, unit, _) in names(v, "end_to_end") {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        }
        assert_eq!(metrics.len(), names(v, "end_to_end").len());
        let line = json::parse(&report::result_line(report, true)).expect("result line");
        let metrics = line
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        for (name, unit, _) in names(v, "per_layer") {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        }
        assert_eq!(metrics.len(), names(v, "per_layer").len());
        // Undeclared metrics are still printed and recorded.
        assert_eq!(report.per_layer.len(), catalog::PER_LAYER.len());
    }

    #[test]
    fn every_move_targets_an_end_to_end_metric() {
        let workloads: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        for (layer, targets, on) in &catalog::MOVES {
            for t in *targets {
                assert!(
                    catalog::end_to_end(t).is_some(),
                    "{layer} moves unknown {t}"
                );
            }
            for w in *on {
                assert!(workloads.contains(w), "{layer} moves on unknown {w}");
            }
        }
        for m in &catalog::PER_LAYER {
            let layer = m.name.split('.').next().expect("layer prefix");
            assert!(
                layer == "workload" || catalog::MOVES.iter().any(|(l, ..)| *l == layer),
                "{} has no moves entry",
                m.name
            );
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = args("--workload coloc-sharegpt --seed 3 --seconds 10 --trace 0").expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, false));
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
        let c = args("--compare a.json b.json").expect("valid");
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }
}
