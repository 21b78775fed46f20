//! Figure 1: current consumed memory vs. future required memory and
//! eviction rate for the three scheduler classes, under a prefill-heavy
//! and a decode-heavy distribution.
//!
//! Emits a summary table plus downsampled time series
//! (`fig1_series.csv`) for plotting the solid/dashed curves.
//!
//! ```text
//! cargo run --release -p pf-bench --bin fig1 [-- --quick]
//! ```

use pf_bench::scenario::{paper, run_all};
use pf_bench::{pct, Cli};
use pf_metrics::{Align, Table};

fn main() {
    let cli = Cli::parse();
    let runs = run_all(&paper::fig1(2, cli.size(1200, 200)));

    let mut summary = Table::new([
        "dataset",
        "scheduler",
        "avg consumed",
        "avg future required",
        "peak future required",
        "evicted reqs",
    ])
    .with_aligns(&[
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut series = Table::new([
        "dataset",
        "scheduler",
        "t_secs",
        "consumed",
        "future_required",
    ]);
    for run in &runs {
        let report = &run.report.instances[0].report;
        summary.row(run.name.split('/').map(str::to_string).chain([
            pct(report.avg_consumed_frac),
            pct(report.avg_future_required_frac),
            pct(report.future_required_series.max_value().unwrap_or(0.0)),
            format!("{:.2}%", report.evicted_request_pct()),
        ]));
        let consumed = report.consumed_series.downsample(240);
        let future = report.future_required_series.downsample(240);
        for ((t, c), (_, f)) in consumed.iter().zip(future.iter()) {
            series.row(run.name.split('/').map(str::to_string).chain([
                format!("{:.2}", t.as_secs_f64()),
                format!("{c:.4}"),
                format!("{f:.4}"),
            ]));
        }
    }
    cli.emit(
        "fig1",
        "Figure 1: consumed vs. future required memory and evictions per scheduler",
        &summary,
    );
    pf_bench::write_artifacts(&cli.out_dir, "fig1_series", &series);
    println!("[wrote {}/fig1_series.csv]", cli.out_dir.display());
}
