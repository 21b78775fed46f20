//! Configurations that must agree, checked to agree. Each relation pairs
//! two registry scenarios that differ only in topology and runs them over
//! a bank of seeds; the comparison is on report fingerprints, so any
//! divergence in admission order, timing or RNG use fails it.

use pf_autoscale::AutoscaleConfig;
use std::sync::Arc;

use pf_bench::scenario::{
    base, poisson, sim_fingerprint, Run, Scenario, Topology, Workload, WorkloadFn,
};
use pf_metrics::SimDuration;
use pf_obs::RecordingSink;
use pf_sim::cluster::RouterPolicy;
use pf_sim::disagg::{DisaggConfig, TransferStats};
use pf_sim::{BatchingMode, FleetReport, Headline, QueueOrder, RequestOutcome, SimConfig};
use pf_workload::{datasets, ClosedLoopClients};

const SEEDS: std::ops::Range<u64> = 0..6;
const REQUESTS: usize = 150;

/// Requests routed to each member, in member order.
fn routed(report: &FleetReport) -> Vec<usize> {
    report.instances.iter().map(|m| m.routed).collect()
}

/// The fingerprint of the first member's engine report.
fn first_member(run: &Run) -> u64 {
    sim_fingerprint(&run.report.instances[0].report)
}

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
        batching: BatchingMode::Static,
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
/// offline, closed-loop clients and static batches. The member's report
/// and the headline agree.
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
                let single = single.run(None);
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
                    let cluster = cluster.run(None);
                    let what = format!("{name} {input} seed {seed} {policy:?}");
                    assert_eq!(
                        first_member(&cluster),
                        first_member(&single),
                        "{what}: the one-member cluster diverged from the single engine"
                    );
                    assert_eq!(cluster.headline, single.headline, "{what}");
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
                let (cluster, elastic) = (cluster.run(None), elastic.run(None));
                let what = format!("{name} seed {seed} n={n}");
                assert!(
                    elastic.report.events.is_empty(),
                    "{what}: a fleet pinned at its size scaled"
                );
                assert_eq!(routed(&cluster.report), routed(&elastic.report), "{what}");
                let members = elastic.report.instances.iter();
                for (k, (member, fixed)) in members.zip(&cluster.report.instances).enumerate() {
                    assert_eq!(
                        sim_fingerprint(&member.report),
                        sim_fingerprint(&fixed.report),
                        "{what}: the pinned fleet's member {k} diverged from the cluster's"
                    );
                }
                assert_eq!(elastic.headline, cluster.headline, "{what}");
            }
        }
    }
}

/// The disaggregated counterpart: both pools pinned at two replicas make
/// no scaling decision and serve exactly the schedule of fixed 2p+2d
/// pools. The headline, every instance's routed count and every outcome
/// agree.
#[test]
fn pinned_elastic_disagg_pools_equal_fixed_pools() {
    let outcomes = |r: &FleetReport| -> Vec<_> {
        r.outcomes
            .iter()
            .map(|o| (o.id, o.input_len, o.output_len, o.evictions, o.timing))
            .collect()
    };
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
                Topology::Disagg {
                    config,
                    prefill: 2,
                    decode: 2,
                    autoscale: Some((
                        AutoscaleConfig::bounded(2, 2),
                        AutoscaleConfig::bounded(2, 2),
                    )),
                },
                workload,
            );
            let (fixed, pinned) = (fixed.run(None), pinned.run(None));
            let what = format!("{name} seed {seed}");
            assert!(
                pinned.report.events.is_empty(),
                "{what}: pools pinned at their size scaled"
            );
            assert_eq!(routed(&pinned.report), routed(&fixed.report), "{what}");
            assert_eq!(outcomes(&pinned.report), outcomes(&fixed.report), "{what}");
            assert_eq!(pinned.headline, fixed.headline, "{what}");
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
        assert_eq!(
            routed(&degraded.report),
            routed(&blind.report),
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
        cost_weighted_gpu_seconds: 0.0,
        ..h
    }
}

/// Every member's step, KV, routed and served counters, member by
/// member, then the unserved count and the link totals.
fn counters(report: &FleetReport) -> (Vec<[u64; 7]>, usize, TransferStats) {
    let members = report.instances.iter().map(|m| {
        let r = &m.report;
        [
            r.decode_steps,
            r.prefill_steps,
            r.unfinished as u64,
            r.kv_used_tokens_end,
            r.prefix_cached_tokens,
            m.routed as u64,
            m.served as u64,
        ]
    });
    (members.collect(), report.unserved, report.transfers)
}

/// `moved` is `base` with every timing shifted by `SHIFT`: the same
/// requests in the same order on the same engines, with the same
/// latencies and counters, each arrival (and so every token instant and
/// the makespan) moved by exactly `SHIFT`.
fn assert_shifted(what: &str, base: &Run, moved: &Run) {
    let (b, m) = (&base.report, &moved.report);
    assert_eq!(b.makespan + SHIFT, m.makespan, "{what}");
    let (bh, mh) = (clockless(base.headline), clockless(moved.headline));
    assert_eq!(bh, mh, "{what}");
    assert_eq!(counters(b), counters(m), "{what}");
    assert_eq!(b.prefix_stats, m.prefix_stats, "{what}");
    let outcomes = |report: &FleetReport, shift: SimDuration| -> Vec<_> {
        let outcome = |o: &RequestOutcome| {
            let t = &o.timing;
            let request = (o.id, o.input_len, o.output_len, o.evictions);
            let latency = (t.ttft(), t.mtpot(), t.avg_tpot(), t.total_latency());
            (request, t.arrival() + shift, t.n_tokens(), latency)
        };
        report.all_outcomes().map(outcome).collect()
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
