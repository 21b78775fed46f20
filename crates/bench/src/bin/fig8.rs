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

use pf_bench::scenario::{paper, run_all};
use pf_bench::Cli;
use pf_metrics::{Align, Table};

fn main() {
    let cli = Cli::parse();
    let runs = run_all(&paper::fig8(4, cli.size(500, 80)));
    let mut table = Table::new(["scheduler", "decoding steps", "evicted reqs %"]).with_aligns(&[
        Align::Left,
        Align::Right,
        Align::Right,
    ]);
    for run in &runs {
        let report = run.report.single();
        table.row([
            run.name.clone(),
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
