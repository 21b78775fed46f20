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

use pf_bench::scenario::{paper, run_all};
use pf_bench::{pct, Cli};
use pf_metrics::{Align, Table};

fn main() {
    let cli = Cli::parse();

    let mut repeats = Table::new([
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
    for run in &run_all(&paper::ablation_repeats(9, cli.size(800, 150))) {
        let report = &run.report.instances[0].report;
        repeats.row(run.name.split('/').map(str::to_string).chain([
            report.decode_steps.to_string(),
            pct(report.avg_consumed_frac),
            format!("{:.2}", report.evicted_request_pct()),
        ]));
    }
    cli.emit(
        "ablation_repeats",
        "Ablation: Past-Future sampling passes vs. batch scale",
        &repeats,
    );

    let mut window = Table::new([
        "history window",
        "decoding steps",
        "avg consumed",
        "evicted reqs %",
    ])
    .with_aligns(&[Align::Right, Align::Right, Align::Right, Align::Right]);
    for run in &run_all(&paper::ablation_window(8, cli.size(500, 100))) {
        let report = &run.report.instances[0].report;
        window.row([
            run.name.clone(),
            report.decode_steps.to_string(),
            pct(report.avg_consumed_frac),
            format!("{:.2}", report.evicted_request_pct()),
        ]);
    }
    cli.emit(
        "ablation_window",
        "Ablation: history window size on the phase-drifting workload",
        &window,
    );
}
