//! Table 1: decoding steps, memory utilization and eviction rate of every
//! scheduler configuration on Distribution-1/2/3 (Llama2-7B on A100-80G,
//! offline load).
//!
//! ```text
//! cargo run --release -p pf-bench --bin table1 [-- --quick]
//! ```

use pf_bench::scenario::base;
use pf_bench::{default_threads, output_lengths, pct, run_parallel, Cli};
use pf_core::SchedulerConfig;
use pf_metrics::{Align, Table};
use pf_sim::{SimReport, Simulation};
use pf_workload::{datasets, RequestSpec};

struct Row {
    dataset: &'static str,
    method: String,
    report: SimReport,
}

fn configs_for(dataset: &str) -> Vec<SchedulerConfig> {
    let conservative_over = if dataset == "Distribution-2" {
        // The paper reduces the overcommit ratio on the balanced
        // distribution "due to too many evictions".
        SchedulerConfig::conservative_overcommit(1.25)
    } else {
        SchedulerConfig::conservative_overcommit(1.5)
    };
    vec![
        SchedulerConfig::Oracle,
        SchedulerConfig::past_future_reserved(0.03),
        SchedulerConfig::past_future_reserved(0.05),
        SchedulerConfig::past_future_reserved(0.10),
        SchedulerConfig::aggressive(0.99),
        SchedulerConfig::aggressive(0.95),
        SchedulerConfig::aggressive(0.90),
        SchedulerConfig::conservative(),
        conservative_over,
    ]
}

fn main() {
    let cli = Cli::parse();
    let n = cli.size(2000, 250);
    type DatasetFn = fn(usize, u64) -> Vec<RequestSpec>;
    let datasets_list: [(&'static str, DatasetFn); 3] = [
        ("Distribution-1", datasets::distribution_1),
        ("Distribution-2", datasets::distribution_2),
        ("Distribution-3", datasets::distribution_3),
    ];

    let mut jobs: Vec<Box<dyn FnOnce() -> Row + Send>> = Vec::new();
    for (name, builder) in datasets_list {
        let requests = builder(n, 1);
        let warmup = output_lengths(&builder(1000, 777));
        for scheduler in configs_for(name) {
            let requests = requests.clone();
            let warmup = warmup.clone();
            jobs.push(Box::new(move || {
                let method = scheduler.to_string();
                let config = base(20).scheduler(scheduler).history_warmup(warmup).build();
                let report = Simulation::offline(config, requests)
                    .run()
                    .unwrap_or_else(|e| panic!("{name}/{method}: {e}"));
                Row {
                    dataset: name,
                    method,
                    report,
                }
            }));
        }
    }

    let rows = run_parallel(jobs, default_threads());
    let mut table = Table::new([
        "Dataset",
        "Method",
        "Decoding Steps",
        "Current Consumed Memory",
        "Future Required Memory",
        "Evicted Reqs",
    ])
    .with_aligns(&[
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for row in &rows {
        table.row([
            row.dataset.to_string(),
            row.method.clone(),
            row.report.decode_steps.to_string(),
            pct(row.report.avg_consumed_frac),
            pct(row.report.avg_future_required_frac),
            format!("{:.2}%", row.report.evicted_request_pct()),
        ]);
    }
    cli.emit(
        "table1",
        "Table 1: scheduler ablation on Distribution-1/2/3 (Llama2-7B, A100-80G)",
        &table,
    );
}
