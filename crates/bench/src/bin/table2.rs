//! Table 2: multimodal serving throughput — original (static-batching)
//! implementations vs. LightLLM with the Past-Future scheduler, on a
//! TextVQA-like workload.
//!
//! ```text
//! cargo run --release -p pf-bench --bin table2 [-- --quick]
//! ```

use pf_bench::scenario::{paper, run_all};
use pf_bench::Cli;
use pf_metrics::{Align, Table};

fn main() {
    let cli = Cli::parse();
    let runs = run_all(&paper::table2(42, cli.size(2000, 300)));
    let mut table = Table::new([
        "Model",
        "Origin (tokens/s)",
        "LightLLM (tokens/s)",
        "speedup",
    ])
    .with_aligns(&[Align::Left, Align::Right, Align::Right, Align::Right]);
    for pair in runs.chunks(2) {
        let [origin, lightllm] = pair else {
            unreachable!("table2 runs come in origin/LightLLM pairs")
        };
        let model = origin.name.split('/').next().expect("a named run");
        let (origin, lightllm) = (
            origin.report.instances[0].report.throughput(),
            lightllm.report.instances[0].report.throughput(),
        );
        table.row([
            model.to_string(),
            format!("{origin:.2}"),
            format!("{lightllm:.2}"),
            format!("{:.2}x", lightllm / origin),
        ]);
    }
    cli.emit(
        "table2",
        "Table 2: multimodal throughput, original implementation vs. LightLLM",
        &table,
    );
}
