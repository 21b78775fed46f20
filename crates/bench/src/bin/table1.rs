//! Table 1: decoding steps, memory utilization and eviction rate of every
//! scheduler configuration on Distribution-1/2/3 (Llama2-7B on A100-80G,
//! offline load).
//!
//! ```text
//! cargo run --release -p pf-bench --bin table1 [-- --quick]
//! ```

use pf_bench::scenario::{paper, run_all};
use pf_bench::{pct, Cli};
use pf_metrics::{Align, Table};

fn main() {
    let cli = Cli::parse();
    let runs = run_all(&paper::table1(1, cli.size(2000, 250)));
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
    for run in &runs {
        let report = run.report.single();
        table.row(run.name.split('/').map(str::to_string).chain([
            report.decode_steps.to_string(),
            pct(report.avg_consumed_frac),
            pct(report.avg_future_required_frac),
            format!("{:.2}%", report.evicted_request_pct()),
        ]));
    }
    cli.emit(
        "table1",
        "Table 1: scheduler ablation on Distribution-1/2/3 (Llama2-7B, A100-80G)",
        &table,
    );
}
