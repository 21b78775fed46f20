//! Extension (paper §7 future work): estimate-driven request forwarding
//! across serving instances.
//!
//! A front-end router assigns each arriving request to one of several
//! identical instances. The paper argues the Past-Future scheduler's
//! accurate per-batch memory estimates make a better routing signal than
//! request counts or current occupancy; this experiment compares the four
//! load-signal policies on a bursty, size-skewed arrival stream.
//! (`RouterPolicy::PrefixAffinity` is excluded: this workload carries no
//! prefix structure, so it degenerates to least-estimated-load —
//! `bench --bin prefix_routing` is its experiment.)
//!
//! ```text
//! cargo run --release -p pf-bench --bin cluster_routing [-- --quick]
//! ```

use pf_bench::scenario::{base, run_all, Scenario, Topology, Workload};
use pf_bench::{output_lengths, Cli};
use pf_core::SchedulerConfig;
use pf_metrics::Align::{Left, Right};
use pf_metrics::{SimTime, Table};
use pf_sim::cluster::RouterPolicy;
use pf_sim::SimConfig;
use pf_workload::{datasets, rng::seeded, LengthSampler, PoissonArrivals};

fn main() {
    let cli = Cli::parse();
    let n = cli.size(1200, 240);
    // Size-skewed service: most requests are short, a third are long-form.
    let input = LengthSampler::uniform(32, 512);
    let output = LengthSampler::mixture(vec![
        (0.7, LengthSampler::uniform(32, 256)),
        (
            0.3,
            LengthSampler::log_normal_median(1500.0, 0.5, 512, 4096),
        ),
    ]);
    let warmup = output_lengths(&datasets::from_samplers(1000, 11, &input, &output, 4096));
    // A mixed fleet: two large instances, one medium, one small
    // (co-tenancy / heterogeneous GPUs). Count-based balancing overloads
    // the small instance.
    let configs: Vec<SimConfig> = [22_000u64, 22_000, 14_000, 8_000]
        .iter()
        .enumerate()
        .map(|(i, &capacity)| {
            base(72 + i as u64)
                .scheduler(SchedulerConfig::past_future_reserved(0.05))
                .capacity_override(capacity)
                .history_warmup(warmup.clone())
                .build()
        })
        .collect();

    let scenarios = [
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastOutstanding,
        RouterPolicy::LeastUsedMemory,
        RouterPolicy::LeastEstimatedLoad,
    ]
    .map(|policy| {
        let topology = Topology::Cluster {
            configs: configs.clone(),
            policy,
        };
        let (input, output) = (input.clone(), output.clone());
        Scenario::new(policy.label(), 10, topology, move |seed| {
            let requests = datasets::from_samplers(n, seed, &input, &output, 4096);
            let mut arrivals: Vec<SimTime> =
                PoissonArrivals::new(14.0).assign(&mut seeded(seed + 2), n);
            arrivals.sort_unstable();
            Workload::Timed(requests, arrivals)
        })
    });
    let runs = run_all(&scenarios);

    let mut table = Table::new([
        "router policy",
        "makespan s",
        "cluster goodput tok/s",
        "SLA-ok",
        "evictions",
        "per-instance requests",
    ])
    .with_aligns(&[Left, Right, Right, Right, Right, Left]);
    for run in &runs {
        let (h, report) = (&run.headline, &run.report);
        let routed: Vec<usize> = report.instances.iter().map(|m| m.routed).collect();
        table.row([
            run.name.clone(),
            format!("{:.1}", report.makespan.as_secs_f64()),
            format!("{:.0}", h.goodput_tok_per_s),
            format!("{}/{}", h.satisfied, h.completed),
            h.evictions.to_string(),
            format!("{routed:?}"),
        ]);
    }
    cli.emit(
        "cluster_routing",
        "Extension: request forwarding across 4 instances (paper §7)",
        &table,
    );
}
