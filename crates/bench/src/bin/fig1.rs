//! Figure 1: current consumed memory vs. future required memory and
//! eviction rate for the three scheduler classes, under a prefill-heavy
//! and a decode-heavy distribution.
//!
//! Emits a summary table plus downsampled time series
//! (`fig1_series_<dataset>.csv`) for plotting the solid/dashed curves.
//!
//! ```text
//! cargo run --release -p pf-bench --bin fig1 [-- --quick]
//! ```

use pf_bench::scenario::base;
use pf_bench::{default_threads, output_lengths, pct, run_parallel, Cli};
use pf_core::SchedulerConfig;
use pf_metrics::{Align, Table};
use pf_sim::{SimReport, Simulation};
use pf_workload::{datasets, RequestSpec};

fn main() {
    let cli = Cli::parse();
    let n = cli.size(1200, 200);
    type DatasetFn = fn(usize, u64) -> Vec<RequestSpec>;
    let cases: [(&'static str, DatasetFn); 2] = [
        ("decode-heavy (Distribution-1)", datasets::distribution_1),
        ("prefill-heavy (Distribution-3)", datasets::distribution_3),
    ];
    let schedulers = [
        SchedulerConfig::conservative(),
        SchedulerConfig::aggressive(0.99),
        SchedulerConfig::past_future_reserved(0.03),
    ];

    let mut jobs: Vec<Box<dyn FnOnce() -> (&'static str, SimReport) + Send>> = Vec::new();
    for (name, builder) in cases {
        let warmup = output_lengths(&builder(1000, 555));
        for scheduler in schedulers.clone() {
            let requests = builder(n, 2);
            let warmup = warmup.clone();
            jobs.push(Box::new(move || {
                let config = base(30)
                    .scheduler(scheduler)
                    .history_warmup(warmup)
                    .record_series(true)
                    .build();
                let report = Simulation::offline(config, requests)
                    .run()
                    .expect("fig1 simulation");
                (name, report)
            }));
        }
    }
    let results = run_parallel(jobs, default_threads());

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
    for (dataset, report) in &results {
        summary.row([
            dataset.to_string(),
            report.scheduler_name.clone(),
            pct(report.avg_consumed_frac),
            pct(report.avg_future_required_frac),
            pct(report.future_required_series.max_value().unwrap_or(0.0)),
            format!("{:.2}%", report.evicted_request_pct()),
        ]);
        let consumed = report.consumed_series.downsample(240);
        let future = report.future_required_series.downsample(240);
        for ((t, c), (_, f)) in consumed.iter().zip(future.iter()) {
            series.row([
                dataset.to_string(),
                report.scheduler_name.clone(),
                format!("{:.2}", t.as_secs_f64()),
                format!("{c:.4}"),
                format!("{f:.4}"),
            ]);
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
