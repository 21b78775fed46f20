//! Ablation: number of Past-Future sampling passes (`sample_repeats`).
//!
//! Algorithm 1 samples predicted lengths; a single pass admits on lucky
//! draws, which matters exactly when the batch is small and individual
//! errors do not average out. The paper repeats the sampling "several
//! times" for small batches; this ablation shows the eviction/utilization
//! trade-off of 1..16 passes at small and large KV capacity.
//!
//! ```text
//! cargo run --release -p pf-bench --bin ablation_repeats [-- --quick]
//! ```

use pf_bench::scenario::base;
use pf_bench::{default_threads, output_lengths, pct, run_parallel, Cli};
use pf_core::SchedulerConfig;
use pf_metrics::{Align, Table};
use pf_sim::{SimReport, Simulation};
use pf_workload::datasets;

fn main() {
    let cli = Cli::parse();
    let n = cli.size(800, 150);
    let repeats = [1usize, 2, 4, 8, 16];
    // Small capacity: ~8 concurrent requests (high sampling variance).
    // Large capacity: ~50 concurrent requests (errors average out).
    let capacities = [
        ("small batch (15k tokens)", 15_000u64),
        ("large batch (90k tokens)", 90_000),
    ];

    type Job = Box<dyn FnOnce() -> (&'static str, usize, SimReport) + Send>;
    let mut jobs: Vec<Job> = Vec::new();
    for (cap_label, capacity) in capacities {
        for &sample_repeats in &repeats {
            let requests = datasets::sharegpt_o1(n, 9);
            let warmup = output_lengths(&datasets::sharegpt_o1(1000, 91));
            jobs.push(Box::new(move || {
                let scheduler = SchedulerConfig::PastFuture {
                    window: 1000,
                    reserved_frac: 0.05,
                    sample_repeats,
                };
                let config = base(71)
                    .scheduler(scheduler)
                    .capacity_override(capacity)
                    .history_warmup(warmup)
                    .build();
                let report = Simulation::offline(config, requests)
                    .run()
                    .expect("repeats ablation run");
                (cap_label, sample_repeats, report)
            }));
        }
    }
    let results = run_parallel(jobs, default_threads());

    let mut table = Table::new([
        "capacity",
        "sampling passes",
        "decoding steps",
        "avg consumed",
        "evicted reqs %",
    ])
    .with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (cap_label, sample_repeats, report) in &results {
        table.row([
            cap_label.to_string(),
            sample_repeats.to_string(),
            report.decode_steps.to_string(),
            pct(report.avg_consumed_frac),
            format!("{:.2}", report.evicted_request_pct()),
        ]);
    }
    cli.emit(
        "ablation_repeats",
        "Ablation: Past-Future sampling passes vs. batch scale",
        &table,
    );
}
