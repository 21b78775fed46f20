//! Figure 7: goodput vs. number of closed-loop clients for the three
//! scheduler classes, across four datasets and three model scales
//! (A100-80G; 4-way tensor parallel for 70B).
//!
//! ```text
//! cargo run --release -p pf-bench --bin fig7 [-- --quick]
//! ```

use pf_bench::scenario::{paper, run_all};
use pf_bench::Cli;
use pf_metrics::{Align, Table};

fn main() {
    let cli = Cli::parse();
    let runs = run_all(&paper::fig7(3, cli.quick));
    let mut table = Table::new([
        "model",
        "dataset",
        "scheduler",
        "clients",
        "goodput tok/s",
        "throughput tok/s",
        "SLA-ok %",
        "evicted %",
    ])
    .with_aligns(&[
        Align::Left,
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for run in &runs {
        let report = &run.report.instances[0].report;
        table.row(run.name.split('/').map(str::to_string).chain([
            format!("{:.0}", report.goodput_tok_per_s()),
            format!("{:.0}", report.throughput()),
            format!("{:.0}", report.goodput.satisfied_fraction() * 100.0),
            format!("{:.1}", report.evicted_request_pct()),
        ]));
    }
    cli.emit("fig7", "Figure 7: goodput vs. concurrent clients", &table);
}
