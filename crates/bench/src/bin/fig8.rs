//! Figure 8: decoding steps vs. evicted requests across scheduler
//! parameters on a varying-load workload (ShareGPT-o1 ∥ Distribution-1 ∥
//! Distribution-2 ∥ Distribution-3 concatenated).
//!
//! Each scheduler family traces a parameter curve; the Past-Future curve
//! should dominate (fewer decoding steps at the same eviction level), with
//! the theoretical optimum as the anchor point.
//!
//! ```text
//! cargo run --release -p pf-bench --bin fig8 [-- --quick]
//! ```

use pf_bench::scenario::base;
use pf_bench::{default_threads, output_lengths, run_parallel, Cli};
use pf_core::SchedulerConfig;
use pf_metrics::{Align, Table};
use pf_sim::{SimReport, Simulation};
use pf_workload::datasets;

fn main() {
    let cli = Cli::parse();
    let n_per_phase = cli.size(500, 80);
    let requests = datasets::mixed_phase(n_per_phase, 4);
    // History warmed on the first phase's service (the workload then
    // drifts through D1→D2→D3 — exactly the regime the sliding window is
    // built for).
    let warmup = output_lengths(&datasets::sharegpt_o1(1000, 999));

    let mut configs: Vec<SchedulerConfig> = vec![SchedulerConfig::Oracle];
    for overcommit in [1.0, 1.05, 1.10, 1.15, 1.20, 1.22] {
        configs.push(SchedulerConfig::conservative_overcommit(overcommit));
    }
    for watermark in [0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90] {
        configs.push(SchedulerConfig::aggressive(watermark));
    }
    for reserved in [0.03, 0.05, 0.10, 0.15, 0.20] {
        configs.push(SchedulerConfig::past_future_reserved(reserved));
    }

    let jobs: Vec<Box<dyn FnOnce() -> SimReport + Send>> = configs
        .into_iter()
        .map(|scheduler| {
            let requests = requests.clone();
            let warmup = warmup.clone();
            Box::new(move || {
                let config = base(50).scheduler(scheduler).history_warmup(warmup).build();
                Simulation::offline(config, requests)
                    .run()
                    .expect("fig8 simulation")
            }) as Box<dyn FnOnce() -> SimReport + Send>
        })
        .collect();
    let reports = run_parallel(jobs, default_threads());

    let mut table = Table::new(["scheduler", "decoding steps", "evicted reqs %"]).with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
    ]);
    for report in &reports {
        table.row([
            report.scheduler_name.clone(),
            report.decode_steps.to_string(),
            format!("{:.2}", report.evicted_request_pct()),
        ]);
    }
    cli.emit(
        "fig8",
        "Figure 8: decoding steps vs. evictions across scheduler parameters (varying load)",
        &table,
    );
    println!(
        "Reading the scatter: down-left is better. Aggressive and conservative\n\
         trade decoding steps against evictions along their parameter curves;\n\
         the Past-Future points sit near the theoretical optimum."
    );
}
