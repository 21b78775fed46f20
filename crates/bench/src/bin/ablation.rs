//! Ablations of Past-Future's two sampling parameters.
//!
//! * **Sampling passes** (`sample_repeats`, artifact `ablation_repeats`).
//!   Algorithm 1 samples predicted lengths; a single pass admits on lucky
//!   draws, which matters exactly when the batch is small and individual
//!   errors do not average out. The paper repeats the sampling "several
//!   times" for small batches; this shows the eviction/utilization
//!   trade-off of 1..16 passes at small and large KV capacity.
//! * **History window** (artifact `ablation_window`). The paper
//!   (Section 4) reports that window sizes from hundreds to thousands all
//!   work well and fixes w = 1000. This quantifies that on a
//!   phase-changing workload: tiny windows are noisy (per-sample
//!   variance), huge windows lag the drift; both ends raise evictions or
//!   waste memory.
//!
//! ```text
//! cargo run --release -p pf-bench --bin ablation [-- --quick]
//! ```

use pf_bench::scenario::base;
use pf_bench::{default_threads, output_lengths, pct, run_parallel, Cli};
use pf_core::SchedulerConfig;
use pf_metrics::{Align, Table};
use pf_sim::{SimReport, Simulation};
use pf_workload::{datasets, RequestSpec};

/// One offline Past-Future run on the Llama2-7B/A100 base config.
fn run(
    seed: u64,
    window: usize,
    sample_repeats: usize,
    capacity: Option<u64>,
    warmup: Vec<u32>,
    requests: Vec<RequestSpec>,
) -> SimReport {
    let scheduler = SchedulerConfig::PastFuture {
        window,
        reserved_frac: 0.05,
        sample_repeats,
    };
    let mut config = base(seed).scheduler(scheduler).history_warmup(warmup);
    if let Some(capacity) = capacity {
        config = config.capacity_override(capacity);
    }
    Simulation::offline(config.build(), requests)
        .run()
        .expect("ablation run")
}

fn sampling_passes(cli: &Cli) {
    let requests = datasets::sharegpt_o1(cli.size(800, 150), 9);
    let warmup = output_lengths(&datasets::sharegpt_o1(1000, 91));
    // Small capacity: ~8 concurrent requests (high sampling variance).
    // Large capacity: ~50 concurrent requests (errors average out).
    let capacities = [
        ("small batch (15k tokens)", 15_000u64),
        ("large batch (90k tokens)", 90_000),
    ];
    let mut jobs = Vec::new();
    for (cap_label, capacity) in capacities {
        for sample_repeats in [1usize, 2, 4, 8, 16] {
            let (requests, warmup) = (requests.clone(), warmup.clone());
            jobs.push(move || {
                let report = run(71, 1000, sample_repeats, Some(capacity), warmup, requests);
                (cap_label, sample_repeats, report)
            });
        }
    }
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
    for (cap_label, sample_repeats, report) in run_parallel(jobs, default_threads()) {
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

fn history_window(cli: &Cli) {
    let requests = datasets::mixed_phase(cli.size(500, 100), 8);
    let warmup = output_lengths(&datasets::sharegpt_o1(1000, 81));
    let mut jobs = Vec::new();
    for window in [50usize, 100, 200, 500, 1000, 2000, 5000] {
        let (requests, warmup) = (requests.clone(), warmup.clone());
        jobs.push(move || (window, run(70, window, 4, None, warmup, requests)));
    }
    let mut table = Table::new([
        "history window",
        "decoding steps",
        "avg consumed",
        "evicted reqs %",
    ])
    .with_aligns(&[Align::Right, Align::Right, Align::Right, Align::Right]);
    for (window, report) in run_parallel(jobs, default_threads()) {
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

fn main() {
    let cli = Cli::parse();
    sampling_passes(&cli);
    history_window(&cli);
}
