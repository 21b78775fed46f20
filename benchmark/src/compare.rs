//! `--compare parent.json change.json`: one verdict per workload and
//! end-to-end metric, by the rule a change claiming a gain must meet.
//!
//! * **better** — the change wins at least nine tenths of the sample
//!   pairs (ties count for neither) and the medians differ by more than
//!   the parent's spread between quartiles;
//! * **unresolved** — otherwise, when the parent's spread is wider than
//!   the metric's bound, unless every change sample beats every parent
//!   sample;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound (a share of the parent's median);
//! * **unchanged** — none of the above.
//!
//! Bounds come from `BENCHMARK.json`. A simulated metric whose samples
//! repeat exactly on both sides is compared at bound zero: at equal
//! seeds any difference is a behaviour change.

use crate::catalog::{self, Better};
use crate::json::{self, Value};
use crate::timing::Samples;

/// Outcome of comparing one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by the gain rule.
    Better,
    /// Regressed past the bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// Spread too wide to tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the rule to one metric's samples. `exact` marks a simulated
/// metric, which is compared at bound zero when both sides repeat.
pub fn verdict(
    parent: &Samples,
    change: &Samples,
    better: Better,
    bound: f64,
    exact: bool,
) -> Verdict {
    // Improvement of `x` over `y`, positive when `x` is better.
    let gain = |x: f64, y: f64| match better {
        Better::Higher => x - y,
        Better::Lower => y - x,
    };
    let (pm, cm) = (parent.median(), change.median());
    if exact && parent.min() == parent.max() && change.min() == change.max() {
        return match gain(cm, pm) {
            g if g > 0.0 => Verdict::Better,
            g if g < 0.0 => Verdict::Worse,
            _ => Verdict::Unchanged,
        };
    }
    let pairs = parent.n().min(change.n());
    let wins = parent
        .values()
        .iter()
        .zip(change.values())
        .filter(|&(&p, &c)| gain(c, p) > 0.0)
        .count();
    let spread = parent.iqr();
    if gain(cm, pm) > spread && wins * 10 >= pairs * 9 {
        return Verdict::Better;
    }
    let scale = pm.abs();
    let (best_parent, worst_change) = match better {
        Better::Higher => (parent.max(), change.min()),
        Better::Lower => (parent.min(), change.max()),
    };
    let dominates = gain(worst_change, best_parent) > 0.0;
    if spread > bound * scale && !dominates {
        return Verdict::Unresolved;
    }
    if gain(cm, pm) < -bound * scale {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// `(name, bound)` of every end-to-end metric declared in
/// `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Value) -> Result<Vec<(String, f64)>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("end_to_end entry without name or bound".to_string()),
            }
        })
        .collect()
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn samples_of(file: &Value, workload: &str, metric: &str) -> Option<Samples> {
    let values = file
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect::<Option<Vec<f64>>>()?;
    Samples::new(values).ok()
}

/// Prints one row per workload and end-to-end metric present in both
/// files. Returns whether any metric got worse.
pub fn compare(parent_path: &str, change_path: &str, benchmark_json: &str) -> Result<bool, String> {
    let parent = read(parent_path)?;
    let change = read(change_path)?;
    let declared = bounds(&read(benchmark_json)?)?;
    if parent.get("seed") != change.get("seed") {
        println!("note: the files were measured at different seeds; simulated metrics will differ");
    }
    let workloads = parent
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{parent_path}: no workloads"))?;
    let mut any_worse = false;
    println!(
        "{:<26} {:<22} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "parent", "change", "bound"
    );
    for workload in workloads.keys() {
        for m in &catalog::END_TO_END {
            let (Some(p), Some(c)) = (
                samples_of(&parent, workload, m.name),
                samples_of(&change, workload, m.name),
            ) else {
                continue;
            };
            let bound = declared
                .iter()
                .find(|(name, _)| name == m.name)
                .map_or(0.0, |&(_, b)| b);
            let v = verdict(&p, &c, m.better, bound, !m.host);
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<26} {:<22} {:>14.6} {:>14.6} {:>7}  {}",
                workload,
                m.name,
                p.median(),
                c.median(),
                bound,
                v.label()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Samples {
        Samples::new(values.to_vec()).expect("valid")
    }

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    #[test]
    fn clear_gain_is_better() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            verdict(&s(&PARENT), &s(&change), Better::Higher, 0.1, false),
            Verdict::Better
        );
        // The same samples read as a latency got worse.
        assert_eq!(
            verdict(&s(&PARENT), &s(&change), Better::Lower, 0.1, false),
            Verdict::Worse
        );
    }

    #[test]
    fn small_shift_within_bound_is_unchanged() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 0.97).collect();
        assert_eq!(
            verdict(&s(&PARENT), &s(&change), Better::Higher, 0.1, false),
            Verdict::Unchanged
        );
    }

    #[test]
    fn gain_needs_nine_wins_in_ten() {
        // Median up by more than the spread, but only 8 of 10 pairs win.
        let mut change: Vec<f64> = PARENT.iter().map(|v| v + 5.0).collect();
        change[0] = 90.0;
        change[1] = 90.0;
        assert_eq!(
            verdict(&s(&PARENT), &s(&change), Better::Higher, 0.1, false),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_dominated() {
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let slightly_lower: Vec<f64> = noisy.iter().map(|v| v - 5.0).collect();
        assert_eq!(
            verdict(&s(&noisy), &s(&slightly_lower), Better::Higher, 0.1, false),
            Verdict::Unresolved
        );
        let dominated = [
            150.0, 151.0, 152.0, 153.0, 154.0, 155.0, 156.0, 157.0, 158.0, 159.0,
        ];
        assert_eq!(
            verdict(&s(&noisy), &s(&dominated), Better::Higher, 0.1, false),
            Verdict::Better
        );
    }

    #[test]
    fn deterministic_metrics_compare_exactly() {
        let same = s(&[0.9833; 4]);
        let lower = s(&[0.9832; 4]);
        let exact = |p: &Samples, c: &Samples| verdict(p, c, Better::Higher, 0.05, true);
        assert_eq!(exact(&same, &same), Verdict::Unchanged);
        assert_eq!(exact(&same, &lower), Verdict::Worse);
        assert_eq!(exact(&lower, &same), Verdict::Better);
        // One host measurement per side (peak memory) keeps its bound.
        let rss = |mb: f64| s(&[mb]);
        assert_eq!(
            verdict(&rss(8.88), &rss(8.90), Better::Lower, 0.15, false),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&rss(8.88), &rss(10.5), Better::Lower, 0.15, false),
            Verdict::Worse
        );
    }

    #[test]
    fn bounds_read_from_benchmark_json() {
        let v = json::parse(
            r#"{"end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .expect("valid");
        assert_eq!(bounds(&v), Ok(vec![("a".to_string(), 0.1)]));
        assert!(bounds(&json::parse("{}").expect("valid")).is_err());
    }
}
