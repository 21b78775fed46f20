//! Output: one human-readable line per metric, the raw-sample file, and
//! the closing one-line JSON result.

use std::fmt::Write as _;

use crate::catalog;
use crate::json::{number, quote};
use crate::run::{Metric, Report};

/// Prints `workload metric value unit [note]` for every metric, the
/// diagnostics and any failed check.
pub fn print_lines(report: &Report) {
    for line in &report.diagnostics {
        println!("{} {line}", report.workload);
    }
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        let mut line = format!("{} {} {} {}", report.workload, m.name, m.value(), m.unit);
        if !m.note.is_empty() {
            let _ = write!(line, " {}", m.note);
        }
        println!("{line}");
    }
    for failure in &report.failures {
        eprintln!("{} CHECK FAILED: {failure}", report.workload);
    }
}

fn metric_json(m: &Metric) -> String {
    let samples: Vec<String> = m.samples.values().iter().map(|&v| number(v)).collect();
    format!(
        "{{\"unit\": {}, \"value\": {}, \"samples\": [{}]}}",
        quote(m.unit),
        number(m.value()),
        samples.join(", ")
    )
}

/// One workload's entry of the raw-sample file.
pub fn raw_entry(report: &Report) -> String {
    let metrics: Vec<String> = report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .map(|m| format!("      {}: {}", quote(m.name), metric_json(m)))
        .collect();
    format!(
        "{{\n    \"correct\": {},\n    \"attempted\": {},\n    \"failed\": {},\n    \"metrics\": {{\n{}\n    }}\n  }}",
        report.failures.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(",\n")
    )
}

/// The raw-sample file: every workload entry plus the run's settings.
pub fn raw_file(seed: u64, seconds: f64, entries: &[(String, String)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(name, entry)| format!("  {}: {entry}", quote(name)))
        .collect();
    format!(
        "{{\n\"seed\": {seed},\n\"seconds\": {},\n\"workloads\": {{\n{}\n}}\n}}\n",
        number(seconds),
        body.join(",\n")
    )
}

/// The closing line: the end-to-end metrics declared in `BENCHMARK.json`
/// without `--trace`, the declared per-layer metrics with it.
pub fn result_line(report: &Report, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        report
            .per_layer
            .iter()
            .filter(|m| catalog::per_layer(m.name).is_some_and(|d| d.declared))
            .collect::<Vec<_>>()
    } else {
        report
            .end_to_end
            .iter()
            .filter(|m| catalog::end_to_end(m.name).is_some_and(|d| d.declared))
            .collect()
    }
    .into_iter()
    .map(|m| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(m.name),
            number(m.value()),
            quote(m.unit)
        )
    })
    .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}
