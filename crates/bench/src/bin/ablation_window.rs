//! Ablation: Past-Future history window size under a drifting workload.
//!
//! The paper (Section 4) reports that window sizes from hundreds to
//! thousands all work well and fixes w = 1000. This ablation quantifies
//! that: tiny windows are noisy (per-sample variance), huge windows lag the
//! drift of a phase-changing workload; both ends raise evictions or waste
//! memory.
//!
//! ```text
//! cargo run --release -p pf-bench --bin ablation_window [-- --quick]
//! ```

use pf_bench::scenario::base;
use pf_bench::{default_threads, output_lengths, pct, run_parallel, Cli};
use pf_core::SchedulerConfig;
use pf_metrics::{Align, Table};
use pf_sim::{SimReport, Simulation};
use pf_workload::datasets;

fn main() {
    let cli = Cli::parse();
    let n_per_phase = cli.size(500, 100);
    let requests = datasets::mixed_phase(n_per_phase, 8);
    let warmup = output_lengths(&datasets::sharegpt_o1(1000, 81));
    let windows = [50usize, 100, 200, 500, 1000, 2000, 5000];

    let jobs: Vec<Box<dyn FnOnce() -> (usize, SimReport) + Send>> = windows
        .iter()
        .map(|&window| {
            let requests = requests.clone();
            let warmup = warmup.clone();
            Box::new(move || {
                let scheduler = SchedulerConfig::PastFuture {
                    window,
                    reserved_frac: 0.05,
                    sample_repeats: 4,
                };
                let config = base(70).scheduler(scheduler).history_warmup(warmup).build();
                let report = Simulation::offline(config, requests)
                    .run()
                    .expect("window ablation run");
                (window, report)
            }) as Box<dyn FnOnce() -> (usize, SimReport) + Send>
        })
        .collect();
    let results = run_parallel(jobs, default_threads());

    let mut table = Table::new([
        "history window",
        "decoding steps",
        "avg consumed",
        "evicted reqs %",
    ])
    .with_aligns(&[Align::Right, Align::Right, Align::Right, Align::Right]);
    for (window, report) in &results {
        table.row([
            window.to_string(),
            report.decode_steps.to_string(),
            pct(report.avg_consumed_frac),
            format!("{:.2}", report.evicted_request_pct()),
        ]);
    }
    cli.emit(
        "ablation_window",
        "Ablation: history window size on the phase-drifting workload",
        &table,
    );
}
