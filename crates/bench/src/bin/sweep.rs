//! Multi-seed robustness sweep: every headline scenario × a bank of
//! workload seeds, run on parallel workers, aggregated into per-metric
//! mean/sd/min/max rows.
//!
//! Single-seed experiments answer "what does the policy do"; this harness
//! answers "how stable is that answer across workloads". Results are
//! simulated metrics only (attainment, goodput, memory, makespan) —
//! wall-clock self-profiling lives in `benchmark/`. The aggregation is
//! a pure function of the run set ([`pf_bench::sweep::aggregate`] sorts
//! by scenario and seed before folding), so the emitted CSV is
//! bit-identical no matter how the worker threads interleave — safe to
//! diff in CI.
//!
//! ```text
//! cargo run --release -p pf-bench --bin sweep [-- --quick] [--seeds N]
//! ```

use pf_autoscale::{AutoscaleConfig, PredictorKind};
use pf_bench::scenario::{base, run_all, steady, Run, Scenario, Topology, Workload};
use pf_bench::sweep::{aggregate, SeedRun};
use pf_bench::Cli;
use pf_metrics::{SimDuration, Table};
use pf_sim::disagg::DisaggConfig;
use pf_workload::datasets;

/// The swept scenarios, each a function of the seed alone: colocated
/// offline ShareGPT, a 2p+2d split and an elastic 1..4 fleet on steady
/// ShareGPT streams.
fn bank(coloc_n: usize, pool_n: usize) -> [Box<dyn Fn(u64) -> Scenario>; 3] {
    [
        Box::new(move |seed| {
            let config = base(seed).capacity_override(40_000).build();
            Scenario::new("coloc", seed, Topology::Single(config), move |seed| {
                Workload::Offline(datasets::sharegpt(coloc_n, seed))
            })
        }),
        Box::new(move |seed| {
            let config = DisaggConfig::new(base(seed).capacity_override(30_000).build());
            Scenario::new(
                "disagg",
                seed,
                Topology::disagg(config, 2, 2),
                move |seed| Workload::Timed(datasets::sharegpt(pool_n, seed), steady(pool_n, 20)),
            )
        }),
        Box::new(move |seed| {
            let autoscale = AutoscaleConfig::bounded(1, 4)
                .interval(SimDuration::from_secs(10))
                .warmup(SimDuration::from_secs(15))
                .predictor(PredictorKind::holt())
                .initial_lengths(512.0, 64.0);
            let config = base(seed).capacity_override(20_000).build();
            let topology = Topology::elastic(config, autoscale, 1);
            Scenario::new("elastic", seed, topology, move |seed| {
                Workload::Timed(datasets::sharegpt(pool_n, seed), steady(pool_n, 30))
            })
        }),
    ]
}

/// The simulated metrics each topology reports, in display order.
fn metrics(topology: &Topology, run: &Run) -> Vec<(String, f64)> {
    let (h, report) = (&run.headline, &run.report);
    let makespan = ("makespan_s", report.makespan.as_secs_f64());
    let metrics = match topology {
        Topology::Single(_) => {
            let r = &report.instances[0].report;
            vec![
                ("goodput_tok_per_s", h.goodput_tok_per_s),
                ("throughput_tok_per_s", r.throughput()),
                ("sla_attainment", h.sla_attainment),
                ("evicted_req_pct", r.evicted_request_pct()),
                ("avg_consumed_frac", r.avg_consumed_frac),
                makespan,
            ]
        }
        Topology::Disagg {
            autoscale: None, ..
        } => vec![
            ("goodput_tok_per_s", h.goodput_tok_per_s),
            ("sla_attainment", h.sla_attainment),
            ("ttft_attainment", h.ttft_attainment),
            ("gpu_seconds", h.gpu_seconds),
            makespan,
        ],
        Topology::Elastic { .. } => vec![
            ("goodput_tok_per_s", h.goodput_tok_per_s),
            ("sla_attainment", h.sla_attainment),
            ("gpu_seconds", h.gpu_seconds),
            ("peak_replicas", report.peak_replicas() as f64),
            makespan,
        ],
        Topology::Cluster { .. } | Topology::Disagg { .. } => {
            unreachable!("the bank holds no fixed cluster and no autoscaled split")
        }
    };
    metrics
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
}

fn main() {
    let (cli, extra) = Cli::parse_extra(&["--seeds"]);
    let seeds: u64 = extra
        .iter()
        .find(|(flag, _)| flag == "--seeds")
        .map_or_else(
            || if cli.quick { 3 } else { 8 },
            |(_, value)| value.parse().expect("--seeds takes a positive integer"),
        )
        .max(1);

    let bank = bank(cli.size(600, 120), cli.size(400, 100));
    let scenarios: Vec<Scenario> = (1..=seeds)
        .flat_map(|seed| bank.iter().map(move |entry| entry(seed)))
        .collect();
    let runs: Vec<SeedRun> = scenarios
        .iter()
        .zip(run_all(&scenarios))
        .map(|(scenario, run)| SeedRun {
            scenario: scenario.name.clone(),
            seed: scenario.seed,
            metrics: metrics(&scenario.topology, &run),
        })
        .collect();
    let rows = aggregate(&runs);

    let mut table = Table::new(["scenario", "metric", "mean", "sd", "min", "max", "seeds"]);
    for row in &rows {
        table.row([
            row.scenario.clone(),
            row.metric.clone(),
            format!("{:.3}", row.summary.mean),
            format!("{:.3}", row.summary.std_dev),
            format!("{:.3}", row.summary.min),
            format!("{:.3}", row.summary.max),
            row.summary.count.to_string(),
        ]);
    }
    cli.emit(
        "sweep",
        &format!(
            "Multi-seed sweep ({seeds} seeds × {} scenarios, {} runs)",
            bank.len(),
            runs.len()
        ),
        &table,
    );
}
