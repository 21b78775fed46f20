//! Configurations that must agree, checked to agree. Each relation pairs
//! two registry scenarios that differ only in topology and runs them over
//! a bank of seeds; the comparison is on report fingerprints, so any
//! divergence in admission order, timing or RNG use fails it.

use pf_autoscale::AutoscaleConfig;
use std::sync::Arc;

use pf_bench::scenario::{
    base, poisson, sim_fingerprint, Report, Run, Scenario, Topology, Workload, WorkloadFn,
};
use pf_metrics::SimDuration;
use pf_obs::RecordingSink;
use pf_sim::cluster::RouterPolicy;
use pf_sim::disagg::{DisaggConfig, DisaggReport, PoolReport, TransferStats};
use pf_sim::{BatchingMode, Headline, QueueOrder, RequestOutcome, SimConfig, SimReport};
use pf_workload::{datasets, ClosedLoopClients};

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

/// The inputs a member serves in the one-member relation: its timed
/// workload, the same requests offline and to closed-loop clients, and the
/// timed workload again under static batching.
fn inputs(
    config: &SimConfig,
    workload: fn(u64) -> Workload,
) -> [(&'static str, SimConfig, WorkloadFn); 4] {
    let requests = move |seed| workload(seed).requests().to_vec();
    let statically_batched = SimConfig {
        batching: BatchingMode::Static { max_batch: 16 },
        ..config.clone()
    };
    [
        ("timed", config.clone(), Arc::new(workload)),
        (
            "offline",
            config.clone(),
            Arc::new(move |seed| Workload::Offline(requests(seed))),
        ),
        (
            "closed-loop",
            config.clone(),
            Arc::new(move |seed| Workload::ClosedLoop(requests(seed), ClosedLoopClients::new(12))),
        ),
        ("static", statically_batched, Arc::new(workload)),
    ]
}

/// A one-member cluster makes no routing choice and serves exactly the
/// single engine's schedule, stamping each request at its scheduled
/// arrival, under every policy that can run on the member (the overlap
/// policies over a prefix cache among them), on every input: timed,
/// offline, closed-loop clients and static batches.
#[test]
fn one_member_cluster_equals_single_engine() {
    for seed in SEEDS {
        for (name, member, _, workload) in members(seed) {
            for (input, config, workload) in inputs(&member, workload) {
                let scenario = |name: String, topology| Scenario {
                    name,
                    seed,
                    topology,
                    workload: workload.clone(),
                };
                let single = scenario(
                    format!("{name}-{input}-single"),
                    Topology::Single(config.clone()),
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
                    let cluster = scenario(
                        format!("{name}-{input}-cluster"),
                        Topology::cluster(config.clone(), 1, policy),
                    );
                    let Report::Cluster(cluster) = cluster.run(None).report else {
                        unreachable!("the topology fixes the report type");
                    };
                    assert_eq!(
                        sim_fingerprint(&cluster.instances[0]),
                        sim_fingerprint(&single),
                        "{name} {input} seed {seed} {policy:?}: the one-member cluster diverged from the single engine"
                    );
                }
            }
        }
    }
}

/// An elastic fleet pinned at its initial size (one, two or three
/// replicas) makes no scaling decision and serves exactly the schedule of
/// the same fixed cluster: every member's report, the routed counts and
/// the headline agree, and the run ends at the last served work, not at
/// the next planning round.
#[test]
fn pinned_elastic_fleet_equals_one_member_cluster() {
    for seed in SEEDS {
        for (name, config, router, workload) in members(seed) {
            for n in 1..=3 {
                let cluster = Scenario::new(
                    format!("{name}-cluster"),
                    seed,
                    Topology::cluster(config.clone(), n, router),
                    workload,
                );
                let elastic = Scenario::new(
                    format!("{name}-elastic"),
                    seed,
                    Topology::Elastic {
                        base: config.clone(),
                        autoscale: AutoscaleConfig::bounded(n, n),
                        initial: n,
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
                let what = format!("{name} seed {seed} n={n}");
                assert!(
                    elastic.events.is_empty(),
                    "{what}: a fleet pinned at its size scaled"
                );
                let routed: Vec<usize> = elastic.instances.iter().map(|i| i.routed).collect();
                assert_eq!(cluster.routed_per_instance, routed, "{what}");
                for (k, (member, fixed)) in
                    elastic.instances.iter().zip(&cluster.instances).enumerate()
                {
                    assert_eq!(
                        sim_fingerprint(&member.report),
                        sim_fingerprint(fixed),
                        "{what}: the pinned fleet's member {k} diverged from the cluster's"
                    );
                }
                // One run, three report types: their headline definitions
                // must agree (only the elastic fleet prices its GPUs).
                if n == 1 {
                    assert_eq!(
                        cluster.headline(),
                        cluster.instances[0].headline(),
                        "{what}"
                    );
                }
                let elastic = Headline {
                    cost_weighted_gpu_seconds: None,
                    ..elastic.headline()
                };
                assert_eq!(elastic, cluster.headline(), "{what}");
            }
        }
    }
}

/// The disaggregated counterpart: both pools pinned at two replicas make
/// no scaling decision and serve exactly the schedule of fixed 2p+2d
/// pools. The headline (but for the cost-weighted term, which only the
/// elastic pools price), every instance's routed count and every outcome
/// agree.
#[test]
fn pinned_elastic_disagg_pools_equal_fixed_pools() {
    let outcomes = |r: &DisaggReport| -> Vec<_> {
        r.outcomes
            .iter()
            .map(|o| (o.id, o.input_len, o.output_len, o.evictions, o.timing))
            .collect()
    };
    let routed =
        |pool: &PoolReport| -> Vec<usize> { pool.instances.iter().map(|i| i.routed).collect() };
    for seed in SEEDS {
        for (name, config, router, workload) in members(seed) {
            let config = DisaggConfig::new(config).router(router);
            let fixed = Scenario::new(
                format!("{name}-disagg"),
                seed,
                Topology::disagg(config.clone(), 2, 2),
                workload,
            );
            let pinned = Scenario::new(
                format!("{name}-elastic-disagg"),
                seed,
                Topology::ElasticDisagg {
                    config,
                    prefill: AutoscaleConfig::bounded(2, 2),
                    decode: AutoscaleConfig::bounded(2, 2),
                    initial: (2, 2),
                },
                workload,
            );
            let (Report::Disagg(fixed), Report::Disagg(pinned)) =
                (fixed.run(None).report, pinned.run(None).report)
            else {
                unreachable!("the topologies fix the report types");
            };
            let what = format!("{name} seed {seed}");
            assert!(
                pinned.prefill.events.is_empty() && pinned.decode.events.is_empty(),
                "{what}: pools pinned at their size scaled"
            );
            assert_eq!(routed(&pinned.prefill), routed(&fixed.prefill), "{what}");
            assert_eq!(routed(&pinned.decode), routed(&fixed.decode), "{what}");
            assert_eq!(outcomes(&pinned), outcomes(&fixed), "{what}");
            let headline = |r: &DisaggReport| Headline {
                cost_weighted_gpu_seconds: None,
                ..r.headline()
            };
            assert_eq!(headline(&pinned), headline(&fixed), "{what}");
        }
    }
}

/// Relation (d), routing: `KvOverlap` with no overlap weight and zero
/// temperature scores by the load term alone and picks the argmin without
/// a random draw, so it routes exactly as `LeastEstimatedLoad` does (same
/// cost key, same rotating tie-break) on the prefix-cache member behind a
/// 3-member cluster.
#[test]
fn weightless_kv_overlap_equals_least_estimated_load() {
    for seed in SEEDS {
        let [.., (name, config, _, workload)] = members(seed);
        let run = |policy| {
            let topology = Topology::cluster(config.clone(), 3, policy);
            Scenario::new(name, seed, topology, workload).run(None)
        };
        let degraded = run(RouterPolicy::KvOverlap {
            overlap_weight: 0.0,
            temperature: 0.0,
        });
        let blind = run(RouterPolicy::LeastEstimatedLoad);
        let (Report::Cluster(d), Report::Cluster(b)) = (&degraded.report, &blind.report) else {
            unreachable!("the topology fixes the report type");
        };
        assert_eq!(
            d.routed_per_instance, b.routed_per_instance,
            "{name} seed {seed}"
        );
        assert_eq!(
            degraded.fingerprint, blind.fingerprint,
            "{name} seed {seed}"
        );
    }
}

/// Relation (d), tracing: a trace sink only observes. Every member runs
/// traced and untraced on one engine, a 3-member cluster, an elastic fleet
/// of up to 3 replicas and 2p+2d disaggregated pools, and the two reports
/// share one fingerprint. (`trace_events.rs` checks the events
/// themselves.)
#[test]
fn traced_runs_equal_untraced_runs() {
    for seed in SEEDS {
        for (name, config, router, workload) in members(seed) {
            let elastic = Topology::Elastic {
                base: config.clone(),
                autoscale: AutoscaleConfig::bounded(1, 3),
                initial: 1,
                router,
                fleet: Vec::new(),
            };
            let disagg = DisaggConfig::new(config.clone()).router(router);
            for (shape, topology) in [
                ("single", Topology::Single(config.clone())),
                ("cluster", Topology::cluster(config.clone(), 3, router)),
                ("elastic", elastic),
                ("disagg", Topology::disagg(disagg, 2, 2)),
            ] {
                let what = format!("{name} seed {seed} {shape}");
                let scenario = Scenario::new(&what, seed, topology, workload);
                let mut sink = RecordingSink::new();
                let traced = scenario.run(Some(&mut sink));
                assert!(!sink.events.is_empty(), "{what}: nothing traced");
                assert_eq!(traced.fingerprint, scenario.run(None).fingerprint, "{what}");
            }
        }
    }
}

/// The constant every arrival moves by in the time-shift relation: whole
/// microseconds, so every shifted instant stays exact.
const SHIFT: SimDuration = SimDuration::from_micros(3_700_013);

/// `workload` with every arrival moved `SHIFT` later.
fn shifted(workload: fn(u64) -> Workload) -> impl Fn(u64) -> Workload {
    move |seed| match workload(seed) {
        Workload::Timed(requests, arrivals) => Workload::Timed(
            requests,
            arrivals.into_iter().map(|at| at + SHIFT).collect(),
        ),
        _ => unreachable!("every member's workload is timed"),
    }
}

/// The headline terms that do not depend on where the run starts (the
/// rates and the provisioned time run over the makespan, which moves).
fn clockless(h: Headline) -> Headline {
    Headline {
        goodput_tok_per_s: 0.0,
        gpu_seconds: 0.0,
        cost_weighted_gpu_seconds: None,
        ..h
    }
}

/// Every engine's step, KV and routed counters, engine by engine, or the
/// unserved count and link totals of a disaggregated run.
fn counters(report: &Report) -> (Vec<[u64; 6]>, Option<(usize, TransferStats)>) {
    let engine = |r: &SimReport, routed: usize| {
        [
            r.decode_steps,
            r.prefill_steps,
            r.unfinished as u64,
            r.kv_used_tokens_end,
            r.prefix_cached_tokens,
            routed as u64,
        ]
    };
    match report {
        Report::Single(r) => (vec![engine(r, 0)], None),
        Report::Cluster(r) => {
            let routed = r.routed_per_instance.iter();
            let engines = r.instances.iter().zip(routed);
            (
                engines.map(|(r, &routed)| engine(r, routed)).collect(),
                None,
            )
        }
        Report::Disagg(r) => (Vec::new(), Some((r.unserved, r.transfers))),
        Report::Elastic(_) => unreachable!("elastic fleets are exempt"),
    }
}

/// `moved` is `base` with every timing shifted by `SHIFT`: the same
/// requests in the same order on the same engines, with the same
/// latencies and counters, each arrival (and so every token instant and
/// the makespan) moved by exactly `SHIFT`.
fn assert_shifted(what: &str, base: &Run, moved: &Run) {
    let (b, m) = (&base.report, &moved.report);
    assert_eq!(b.makespan() + SHIFT, m.makespan(), "{what}");
    let (bh, mh) = (clockless(base.headline), clockless(moved.headline));
    assert_eq!(bh, mh, "{what}");
    assert_eq!(counters(b), counters(m), "{what}");
    assert_eq!(b.prefix_stats(), m.prefix_stats(), "{what}");
    let outcomes = |report: &Report, shift: SimDuration| -> Vec<_> {
        let outcome = |o: &RequestOutcome| {
            let t = &o.timing;
            let request = (o.id, o.input_len, o.output_len, o.evictions);
            let latency = (t.ttft(), t.mtpot(), t.avg_tpot(), t.total_latency());
            (request, t.arrival() + shift, t.n_tokens(), latency)
        };
        report.outcomes().into_iter().map(outcome).collect()
    };
    assert_eq!(outcomes(b, SHIFT), outcomes(m, SimDuration::ZERO), "{what}");
}

/// Relation (c): shifting every arrival by a constant shifts every
/// timing by that constant and changes nothing else, on one engine, on a
/// fixed cluster behind the member's router, and on 2p+2d disaggregated
/// pools (the link's f64 walk included: its totals stay bit-identical).
/// Nothing in these topologies reads the absolute clock. An elastic fleet
/// is exempt: its planning rounds fall on multiples of the interval from
/// t = 0, so a shifted workload meets them at other phases of its load.
#[test]
fn shifting_every_arrival_shifts_every_timing() {
    for seed in SEEDS {
        for (name, config, router, workload) in members(seed) {
            let disagg = DisaggConfig::new(config.clone()).router(router);
            for (shape, topology) in [
                ("single", Topology::Single(config.clone())),
                ("cluster", Topology::cluster(config.clone(), 3, router)),
                ("disagg", Topology::disagg(disagg, 2, 2)),
            ] {
                let what = format!("{name} seed {seed} {shape}");
                let base = Scenario::new(&what, seed, topology.clone(), workload);
                let moved = Scenario::new(&what, seed, topology, shifted(workload));
                assert_shifted(&what, &base.run(None), &moved.run(None));
            }
        }
    }
}
