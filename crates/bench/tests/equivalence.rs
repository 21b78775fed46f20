//! Configurations that must agree, checked to agree. Each relation pairs
//! two registry scenarios that differ only in topology and runs them over
//! a bank of seeds; the comparison is on report fingerprints, so any
//! divergence in admission order, timing or RNG use fails it.

use pf_autoscale::AutoscaleConfig;
use pf_bench::scenario::{base, poisson, sim_fingerprint, Report, Scenario, Topology, Workload};
use pf_sim::cluster::RouterPolicy;
use pf_sim::{Headline, QueueOrder, SimConfig};
use pf_workload::datasets;

const SEEDS: std::ops::Range<u64> = 0..6;
const REQUESTS: usize = 150;

/// A fleet member's config, the router in front of it, and its workload.
type Member = (&'static str, SimConfig, RouterPolicy, fn(u64) -> Workload);

/// The members of a seed: ShareGPT under least-estimated-load, mixed
/// deadlines under least-slack-first behind least-outstanding routing,
/// and multi-turn chat over a block prefix cache under KV-overlap
/// routing.
fn members(seed: u64) -> [Member; 3] {
    [
        (
            "sharegpt-least-load",
            base(seed).capacity_override(20_000).build(),
            RouterPolicy::LeastEstimatedLoad,
            |seed| poisson(datasets::sharegpt(REQUESTS, seed), 4.0, seed),
        ),
        (
            "deadline-least-outstanding",
            base(seed)
                .capacity_override(8_000)
                .queue_order(QueueOrder::least_slack())
                .build(),
            RouterPolicy::LeastOutstanding,
            |seed| poisson(datasets::mixed_deadline(REQUESTS, seed), 20.0, seed),
        ),
        (
            "multi-turn-kv-overlap",
            base(seed)
                .capacity_override(12_000)
                .prefix_cache_blocks(0.4, 64)
                .build(),
            RouterPolicy::KvOverlap {
                overlap_weight: 1.0,
                temperature: 0.0,
            },
            |seed| poisson(datasets::multi_turn_chat(REQUESTS, seed), 10.0, seed),
        ),
    ]
}

/// A one-member cluster makes no routing choice and serves exactly the
/// single engine's schedule, stamping each request at its scheduled
/// arrival, under every policy that can run on the member (the overlap
/// policies over a prefix cache among them).
#[test]
fn one_member_cluster_equals_single_engine() {
    for seed in SEEDS {
        for (name, config, _, workload) in members(seed) {
            let single = Scenario::new(
                format!("{name}-single"),
                seed,
                Topology::Single(config.clone()),
                workload,
            );
            let Report::Single(single) = single.run(None).report else {
                unreachable!("the topology fixes the report type");
            };
            let kv_overlap = RouterPolicy::KvOverlap {
                overlap_weight: 1.0,
                temperature: 0.0,
            };
            let policies = RouterPolicy::ALL
                .into_iter()
                .chain(config.prefix_cache.is_some().then_some(kv_overlap));
            for policy in policies {
                let cluster = Scenario::new(
                    format!("{name}-cluster"),
                    seed,
                    Topology::cluster(config.clone(), 1, policy),
                    workload,
                );
                let Report::Cluster(cluster) = cluster.run(None).report else {
                    unreachable!("the topology fixes the report type");
                };
                assert_eq!(
                    sim_fingerprint(&cluster.instances[0]),
                    sim_fingerprint(&single),
                    "{name} seed {seed} {policy:?}: the one-member cluster diverged from the single engine"
                );
            }
        }
    }
}

/// An elastic fleet pinned at one replica makes no scaling decision and
/// serves exactly the schedule of a one-member fixed cluster.
#[test]
fn pinned_elastic_fleet_equals_one_member_cluster() {
    for seed in SEEDS {
        for (name, config, router, workload) in members(seed) {
            let cluster = Scenario::new(
                format!("{name}-cluster"),
                seed,
                Topology::cluster(config.clone(), 1, router),
                workload,
            );
            let elastic = Scenario::new(
                format!("{name}-elastic"),
                seed,
                Topology::Elastic {
                    base: config,
                    autoscale: AutoscaleConfig::bounded(1, 1),
                    initial: 1,
                    router,
                    fleet: Vec::new(),
                },
                workload,
            );
            let (Report::Cluster(cluster), Report::Elastic(elastic)) =
                (cluster.run(None).report, elastic.run(None).report)
            else {
                unreachable!("the topologies fix the report types");
            };
            assert!(
                elastic.events.is_empty(),
                "{name} seed {seed}: a fleet pinned at one replica scaled"
            );
            assert_eq!(elastic.instances.len(), 1, "{name} seed {seed}");
            let member = &elastic.instances[0];
            assert_eq!(
                cluster.routed_per_instance,
                [member.routed],
                "{name} seed {seed}"
            );
            assert_eq!(
                sim_fingerprint(&member.report),
                sim_fingerprint(&cluster.instances[0]),
                "{name} seed {seed}: the pinned fleet's member diverged from the cluster's"
            );
            // One run, three report types: their headline definitions
            // must agree (only the elastic fleet prices its GPUs).
            let single = cluster.instances[0].headline();
            assert_eq!(cluster.headline(), single, "{name} seed {seed}");
            let elastic = Headline {
                cost_weighted_gpu_seconds: None,
                ..elastic.headline()
            };
            assert_eq!(elastic, single, "{name} seed {seed}");
        }
    }
}
