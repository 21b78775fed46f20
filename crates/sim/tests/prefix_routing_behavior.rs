//! Behavioral tests for KV-aware prefix-affinity routing and the
//! rotating equal-load tie-break:
//!
//! * equal-load routing must spread across instances (the old
//!   lowest-index tie-break piled every cold-start request onto member
//!   0);
//! * prefix-affinity routing keeps sessions on the instance that cached
//!   them, producing hits and less prefill work than load-blind routing;
//! * the prefix cache yields to request KV under memory pressure instead
//!   of stalling the engine;
//! * prefix-affinity runs replay bit-identically.

use pf_autoscale::AutoscaleConfig;
use pf_core::SchedulerConfig;
use pf_metrics::{SimDuration, SimTime};
use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
use pf_sim::disagg::{DisaggCluster, DisaggConfig};
use pf_sim::elastic::ElasticCluster;
use pf_sim::{GpuSpec, ModelSpec, SimConfig, Simulation};
use pf_workload::{datasets, RequestSpec};

fn base_config(capacity: u64) -> SimConfig {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(capacity)
        .record_series(false)
        .seed(7)
        .build()
}

fn prefix_config(capacity: u64) -> SimConfig {
    let mut config = base_config(capacity);
    config.prefix_cache = Some(pf_sim::PrefixCacheConfig::with_budget_frac(0.4));
    config
}

/// Tiny identical requests spaced far enough apart that each one finishes
/// before the next arrives — every routing decision sees a fleet of
/// exactly equal loads.
fn spaced_identical(n: usize) -> (Vec<RequestSpec>, Vec<SimTime>) {
    let requests = (0..n)
        .map(|i| RequestSpec::new(i as u64, 64, 4, 16))
        .collect();
    let arrivals = (0..n).map(|i| SimTime::from_secs(2 * i as u64)).collect();
    (requests, arrivals)
}

#[test]
fn equal_load_ties_rotate_instead_of_piling_on_member_zero() {
    let (requests, arrivals) = spaced_identical(30);
    for policy in [
        RouterPolicy::LeastOutstanding,
        RouterPolicy::LeastUsedMemory,
        RouterPolicy::LeastEstimatedLoad,
    ] {
        let report = ClusterSimulation::new(base_config(20_000), 3, policy)
            .run(requests.clone(), arrivals.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", policy.label()));
        assert_eq!(
            report.routed_per_instance,
            vec![10, 10, 10],
            "{}: equal loads must spread round-robin, not pile up",
            policy.label()
        );
    }
}

#[test]
fn elastic_equal_load_ties_rotate_too() {
    let (requests, arrivals) = spaced_identical(30);
    let autoscale = AutoscaleConfig::bounded(3, 3)
        .interval(SimDuration::from_secs(1_000))
        .warmup(SimDuration::from_secs(5));
    let report = ElasticCluster::new(base_config(20_000), autoscale, 3)
        .run(requests, arrivals)
        .expect("elastic run");
    let routed: Vec<usize> = report.instances.iter().map(|i| i.routed).collect();
    assert_eq!(
        routed,
        vec![10, 10, 10],
        "elastic equal loads must spread round-robin"
    );
}

#[test]
fn prefix_affinity_routes_sessions_back_and_saves_prefill() {
    let spec = datasets::MultiTurnSpec::default();
    let (requests, arrivals) = datasets::multi_turn_chat_timed(240, 11, &spec, 2.0, 3.0, 4.0);
    let run = |policy| {
        ClusterSimulation::new(prefix_config(40_000), 3, policy)
            .run(requests.clone(), arrivals.clone())
            .expect("cluster run")
    };
    let affinity = run(RouterPolicy::PrefixAffinity {
        load_tiebreak: true,
    });
    let blind = run(RouterPolicy::LeastEstimatedLoad);
    assert_eq!(affinity.headline().completed, 240);
    let a = affinity.prefix_stats();
    let b = blind.prefix_stats();
    assert!(a.hits > 0, "affinity routing must produce cache hits");
    assert!(
        a.hit_tokens > b.hit_tokens,
        "affinity must save more prefill than load-blind routing ({} vs {})",
        a.hit_tokens,
        b.hit_tokens
    );
    // Same cache configuration on both fleets: only the routing differs.
    assert_eq!(a.lookups, b.lookups);
}

#[test]
fn prefix_cache_yields_to_request_kv_under_pressure() {
    // Capacity fits only a couple of live conversations, so the cache
    // (40% budget) must repeatedly give its slots back to admissions.
    let spec = datasets::MultiTurnSpec {
        max_context: 1_024,
        max_new_tokens: 128,
        assistant_turn: pf_workload::LengthSampler::uniform(16, 64),
        ..datasets::MultiTurnSpec::default()
    };
    let (requests, arrivals) = datasets::multi_turn_chat_timed(120, 13, &spec, 4.0, 1.0, 1.0);
    let report = Simulation::with_arrivals(prefix_config(2_400), requests, arrivals)
        .run()
        .expect("pressure run must not stall");
    assert_eq!(report.completed, 120);
    assert!(
        report.prefix_stats.evictions > 0,
        "under memory pressure the cache must shed entries"
    );
    assert!(
        report.prefix_cached_tokens <= 2_400 * 4 / 10,
        "cache occupancy exceeded its budget"
    );
}

#[test]
fn watermark_scheduler_reclaims_cache_instead_of_stalling() {
    // The aggressive scheduler gates admission on used memory, which
    // counts cached prefixes. After turn 1 finishes, its 800-token
    // conversation sits in the cache; turn 2 needs 851 tokens against a
    // 1000-token watermark budget, so the scheduler refuses until the
    // engine gives the cache back. Without cache reclamation on a
    // zero-admission plan this run stalls.
    let mut config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::aggressive(0.5))
        .capacity_override(2_000)
        .record_series(false)
        .seed(1)
        .build();
    config.prefix_cache = Some(pf_sim::PrefixCacheConfig::with_budget_frac(0.8));
    let requests = vec![
        RequestSpec::new(0u64, 500, 300, 300).with_prefix(1u64, 0),
        RequestSpec::new(1u64, 850, 50, 100).with_prefix(1u64, 800),
    ];
    let arrivals = vec![SimTime::ZERO, SimTime::from_secs(60)];
    let report = Simulation::with_arrivals(config, requests, arrivals)
        .run()
        .expect("the cache must yield to admission instead of stalling");
    assert_eq!(report.completed, 2);
    assert!(
        report.prefix_stats.evictions > 0,
        "the blocking cache entry must have been reclaimed"
    );
}

#[test]
fn disabled_prefix_cache_changes_nothing() {
    // A prefix-structured workload on a cache-less fleet must behave
    // exactly like the pre-prefix engine: no lookups, no hits.
    let spec = datasets::MultiTurnSpec::default();
    let (requests, arrivals) = datasets::multi_turn_chat_timed(100, 17, &spec, 2.0, 2.0, 2.0);
    let report = ClusterSimulation::new(
        base_config(40_000),
        2,
        RouterPolicy::PrefixAffinity {
            load_tiebreak: true,
        },
    )
    .run(requests, arrivals)
    .expect("cache-less run");
    assert_eq!(report.headline().completed, 100);
    let stats = report.prefix_stats();
    assert_eq!(stats.lookups, 0);
    assert_eq!(stats.hits, 0);
}

#[test]
fn prefix_affinity_replays_bit_identically() {
    let spec = datasets::MultiTurnSpec::default();
    let (requests, arrivals) = datasets::multi_turn_chat_timed(200, 19, &spec, 3.0, 2.0, 3.0);
    let affinity = RouterPolicy::PrefixAffinity {
        load_tiebreak: true,
    };
    let run_cluster = || {
        ClusterSimulation::new(prefix_config(30_000), 3, affinity)
            .run(requests.clone(), arrivals.clone())
            .expect("cluster run")
    };
    let a = run_cluster();
    let b = run_cluster();
    assert_eq!(a.makespan(), b.makespan());
    assert_eq!(a.routed_per_instance, b.routed_per_instance);
    assert_eq!(a.prefix_stats(), b.prefix_stats());
    assert_eq!(a.headline().satisfied, b.headline().satisfied);

    let run_disagg = || {
        DisaggCluster::new(
            DisaggConfig::new(prefix_config(30_000)).router(affinity),
            2,
            2,
        )
        .run(requests.clone(), arrivals.clone())
        .expect("disagg run")
    };
    let a = run_disagg();
    let b = run_disagg();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.prefix_stats, b.prefix_stats);
    assert_eq!(
        a.prefill
            .instances
            .iter()
            .map(|i| i.routed)
            .collect::<Vec<_>>(),
        b.prefill
            .instances
            .iter()
            .map(|i| i.routed)
            .collect::<Vec<_>>()
    );
}

#[test]
fn disagg_prefix_affinity_hits_shrink_prefill_pool_work() {
    let spec = datasets::MultiTurnSpec::default();
    let (requests, arrivals) = datasets::multi_turn_chat_timed(240, 23, &spec, 2.5, 2.0, 3.0);
    let run = |policy| {
        DisaggCluster::new(
            DisaggConfig::new(prefix_config(40_000)).router(policy),
            2,
            2,
        )
        .run(requests.clone(), arrivals.clone())
        .expect("disagg run")
    };
    let affinity = run(RouterPolicy::PrefixAffinity {
        load_tiebreak: true,
    });
    let blind = run(RouterPolicy::LeastEstimatedLoad);
    assert_eq!(affinity.completed(), 240);
    assert!(affinity.prefix_stats.hits > 0);
    assert!(
        affinity.prefix_stats.hit_tokens > blind.prefix_stats.hit_tokens,
        "affinity must reuse more prefill work ({} vs {})",
        affinity.prefix_stats.hit_tokens,
        blind.prefix_stats.hit_tokens
    );
}

#[test]
fn timed_out_turns_leave_no_stranded_kv() {
    // Deadline × prefix-cache interaction: a burst of multi-turn chat
    // against a tight default deadline cancels some follow-up turns. A
    // cancelled turn holds no KV (it never started), and its session's
    // cached conversation belongs to the *cache*, charged under the
    // sentinel — at run end the pool must hold exactly the cache's
    // occupancy, nothing stranded from cancelled requests.
    let requests = datasets::multi_turn_chat(200, 9);
    let n = requests.len();
    let mut config = prefix_config(6_000);
    config.request_deadline = Some(SimDuration::from_secs(3));
    let arrivals = vec![SimTime::ZERO; n];
    let report = Simulation::with_arrivals(config, requests, arrivals)
        .run()
        .expect("burst run");
    assert!(
        report.timed_out > 0,
        "the burst must blow some 3 s deadlines"
    );
    assert_eq!(report.completed + report.timed_out, n);
    assert_eq!(
        report.kv_used_tokens_end, report.prefix_cached_tokens,
        "pool occupancy must return to the cache's sentinel charge after the purge"
    );
}

#[test]
fn prefix_affinity_slack_pressure_only_acts_with_deadlines() {
    // The slack-pressure term in PrefixAffinity's load signal is zero for
    // deadline-free traffic: routing (and therefore the whole run) must
    // be bit-identical with and without the slack-aware queue order.
    let (requests, arrivals) = datasets::multi_turn_chat_timed(
        160,
        29,
        &datasets::MultiTurnSpec::default(),
        2.0,
        2.0,
        3.0,
    );
    let run = |order: pf_sim::QueueOrder| {
        let mut config = prefix_config(30_000);
        config.queue_order = order;
        ClusterSimulation::new(
            config,
            3,
            RouterPolicy::PrefixAffinity {
                load_tiebreak: true,
            },
        )
        .run(requests.clone(), arrivals.clone())
        .expect("cluster run")
    };
    let fifo = run(pf_sim::QueueOrder::Fifo);
    let lsf = run(pf_sim::QueueOrder::least_slack());
    assert_eq!(fifo.routed_per_instance, lsf.routed_per_instance);
    assert_eq!(fifo.makespan(), lsf.makespan());
    assert_eq!(fifo.headline().completed, lsf.headline().completed);
}

#[test]
fn early_drop_accounts_for_cached_prefix() {
    // A follow-up turn whose prompt is almost fully cached is feasible
    // long after its raw length suggests: the least-slack-first
    // early-drop must price the *uncached suffix*, not the full prompt.
    let mut config = prefix_config(20_000);
    config.queue_order = pf_sim::QueueOrder::least_slack();
    let perf = config.perf_model();
    // Turn 1: a 3000-token prompt cached under prefix 7 at completion.
    let first = RequestSpec::new(0u64, 3_000, 8, 512).with_prefix(7u64, 0);
    let conversation = 3_000 + 8;
    // Turn 2 repeats the conversation plus a 100-token user message; its
    // deadline sits between the suffix and the full-prompt prefill time,
    // so dropping it is correct only if the cache is ignored.
    let full = perf.prefill_step(u64::from(conversation) + 100);
    let suffix = perf.prefill_step(100);
    assert!(suffix < full);
    let deadline = SimDuration::from_micros((suffix.as_micros() + full.as_micros()) / 2);
    let second = RequestSpec::new(1u64, conversation + 100, 8, 512)
        .with_prefix(7u64, conversation)
        .with_deadline(deadline);
    let report = Simulation::with_arrivals(
        config,
        vec![first, second],
        vec![SimTime::ZERO, SimTime::from_secs(5)],
    )
    .run()
    .expect("two-turn run");
    assert_eq!(
        report.timed_out, 0,
        "a cached prompt feasible within its deadline must not be early-dropped"
    );
    assert_eq!(report.completed, 2);
    assert!(report.prefix_stats.hits > 0, "turn 2 must hit the cache");
}
