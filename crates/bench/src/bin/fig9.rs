//! Figure 9: maximum throughput (dashed) and SLA goodput (solid) of five
//! serving frameworks across hardware platforms, on ShareGPT with
//! `max_new_tokens = 2048`.
//!
//! ```text
//! cargo run --release -p pf-bench --bin fig9 [-- --quick]
//! ```

use pf_bench::scenario::{paper, run_all};
use pf_bench::Cli;
use pf_metrics::{Align, Table};

fn main() {
    let cli = Cli::parse();
    let runs = run_all(&paper::fig9(5));
    let mut table = Table::new([
        "model",
        "hardware",
        "framework",
        "throughput tok/s",
        "goodput tok/s",
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
    ]);
    for run in &runs {
        let report = run.report.single();
        table.row(run.name.split('/').map(str::to_string).chain([
            format!("{:.0}", report.throughput()),
            format!("{:.0}", report.goodput_tok_per_s()),
            format!("{:.0}", report.goodput.satisfied_fraction() * 100.0),
            format!("{:.1}", report.evicted_request_pct()),
        ]));
    }
    cli.emit(
        "fig9",
        "Figure 9: throughput and goodput per framework across hardware (ShareGPT, max_new=2048)",
        &table,
    );
}
