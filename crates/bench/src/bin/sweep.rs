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
use pf_bench::sweep::{aggregate, SeedRun};
use pf_bench::{default_threads, run_parallel, Cli};
use pf_core::SchedulerConfig;
use pf_metrics::{SimDuration, SimTime, Table};
use pf_sim::disagg::{DisaggCluster, DisaggConfig};
use pf_sim::elastic::ElasticCluster;
use pf_sim::{GpuSpec, ModelSpec, SimConfig, Simulation};
use pf_workload::datasets;

fn base_config(capacity: u64, seed: u64) -> SimConfig {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(capacity)
        .record_series(false)
        .seed(seed)
        .build()
}

fn steady_arrivals(n: usize, gap_ms: u64) -> Vec<SimTime> {
    (0..n)
        .map(|i| SimTime::from_millis(gap_ms * i as u64))
        .collect()
}

fn metric(name: &str, value: f64) -> (String, f64) {
    (name.to_string(), value)
}

fn coloc_run(n: usize, seed: u64) -> SeedRun {
    let requests = datasets::sharegpt(n, seed);
    let report = Simulation::offline(base_config(40_000, seed), requests)
        .run()
        .expect("coloc sweep run");
    SeedRun {
        scenario: "coloc".to_string(),
        seed,
        metrics: vec![
            metric("goodput_tok_per_s", report.goodput_tok_per_s()),
            metric("throughput_tok_per_s", report.throughput()),
            metric("sla_attainment", report.goodput.satisfied_fraction()),
            metric("evicted_req_pct", report.evicted_request_pct()),
            metric("avg_consumed_frac", report.avg_consumed_frac),
            metric("makespan_s", report.makespan.as_secs_f64()),
        ],
    }
}

fn disagg_run(n: usize, seed: u64) -> SeedRun {
    let requests = datasets::sharegpt(n, seed);
    let arrivals = steady_arrivals(n, 20);
    let config = DisaggConfig::new(base_config(30_000, seed));
    let report = DisaggCluster::new(config, 2, 2)
        .run(requests, arrivals)
        .expect("disagg sweep run");
    SeedRun {
        scenario: "disagg".to_string(),
        seed,
        metrics: vec![
            metric("goodput_tok_per_s", report.goodput_tok_per_s()),
            metric("sla_attainment", report.sla_attainment()),
            metric("ttft_attainment", report.ttft_attainment()),
            metric("gpu_seconds", report.gpu_seconds()),
            metric("makespan_s", report.makespan.as_secs_f64()),
        ],
    }
}

fn elastic_run(n: usize, seed: u64) -> SeedRun {
    let requests = datasets::sharegpt(n, seed);
    let arrivals = steady_arrivals(n, 30);
    let autoscale = AutoscaleConfig::bounded(1, 4)
        .interval(SimDuration::from_secs(10))
        .warmup(SimDuration::from_secs(15))
        .predictor(PredictorKind::holt())
        .initial_lengths(512.0, 64.0);
    let report = ElasticCluster::new(base_config(20_000, seed), autoscale, 1)
        .run(requests, arrivals)
        .expect("elastic sweep run");
    SeedRun {
        scenario: "elastic".to_string(),
        seed,
        metrics: vec![
            metric("goodput_tok_per_s", report.goodput_tok_per_s()),
            metric("sla_attainment", report.sla_attainment()),
            metric("gpu_seconds", report.gpu_seconds()),
            metric("peak_replicas", report.peak_replicas() as f64),
            metric("makespan_s", report.makespan.as_secs_f64()),
        ],
    }
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

    let coloc_n = cli.size(600, 120);
    let pool_n = cli.size(400, 100);
    type Job = Box<dyn FnOnce() -> SeedRun + Send>;
    let mut jobs: Vec<Job> = Vec::new();
    for seed in 1..=seeds {
        jobs.push(Box::new(move || coloc_run(coloc_n, seed)));
        jobs.push(Box::new(move || disagg_run(pool_n, seed)));
        jobs.push(Box::new(move || elastic_run(pool_n, seed)));
    }
    let total = jobs.len();
    let runs = run_parallel(jobs, default_threads());
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
        &format!("Multi-seed sweep ({seeds} seeds × 3 scenarios, {total} runs)"),
        &table,
    );
}
