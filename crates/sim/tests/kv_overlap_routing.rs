//! Behavioral tests for block-granular KV routing
//! ([`RouterPolicy::KvOverlap`]) and its KV-index staleness knob (that
//! `KvOverlap { overlap_weight: 0, temperature: 0 }` routes exactly as
//! `LeastEstimatedLoad` is a relation in pf-bench's `equivalence.rs`):
//!
//! * overlap-scored routing reuses a tenant's shared system prompt
//!   across sessions, beating load-blind routing on that traffic;
//! * softmax routing (temperature > 0) replays bit-identically across
//!   the colocated cluster, the elastic fleet and the disagg pools;
//! * index staleness (the event-propagation delay) degrades reuse
//!   monotonically toward load-blind routing;
//! * block stores — colocated members and disaggregated prefill members
//!   alike — surface `kv-stored` lifecycle events to a trace sink;
//! * a non-finite weight or temperature, or overlap routing over a fleet
//!   without a prefix cache, is a typed error on every fleet shape.

use pf_autoscale::AutoscaleConfig;
use pf_core::SchedulerConfig;
use pf_metrics::SimDuration;
use pf_obs::{RecordingSink, TraceEvent};
use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
use pf_sim::disagg::{DisaggCluster, DisaggConfig};
use pf_sim::elastic::ElasticCluster;
use pf_sim::{GpuSpec, ModelSpec, SimConfig, SimError, Workload};
use pf_workload::datasets;

const BLOCK_TOKENS: u32 = 64;

fn base_config(capacity: u64) -> SimConfig {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(capacity)
        .record_series(false)
        .seed(7)
        .build()
}

/// Block-granular prefix store: the configuration KvOverlap routing is
/// built for.
fn block_config(capacity: u64) -> SimConfig {
    let mut config = base_config(capacity);
    config.prefix_cache =
        Some(pf_sim::PrefixCacheConfig::with_budget_frac(0.4).blocks(BLOCK_TOKENS));
    config
}

fn shared_sysprompt_traffic(
    n: usize,
    seed: u64,
) -> (Vec<pf_workload::RequestSpec>, Vec<pf_metrics::SimTime>) {
    let spec = datasets::SharedSyspromptSpec::default();
    datasets::shared_sysprompt_chat_timed(n, seed, &spec, 2.0, 2.0, 3.0)
}

#[test]
fn overlap_routing_reuses_shared_system_prompts_across_sessions() {
    let (requests, arrivals) = shared_sysprompt_traffic(240, 37);
    let n = requests.len();
    let run = |policy| {
        ClusterSimulation::new(block_config(40_000), 3, policy)
            .run_workload(Workload::Timed(requests.clone(), arrivals.clone()), None)
            .expect("cluster run")
    };
    let overlap = run(RouterPolicy::KvOverlap {
        overlap_weight: 1.0,
        temperature: 0.0,
    });
    let blind = run(RouterPolicy::LeastEstimatedLoad);
    assert_eq!(overlap.headline().completed, n);
    let o = overlap.prefix_stats;
    let b = blind.prefix_stats;
    assert!(o.hits > 0, "overlap routing must produce block hits");
    assert!(
        o.hit_tokens > b.hit_tokens,
        "overlap routing must reuse more prefill than load-blind routing ({} vs {})",
        o.hit_tokens,
        b.hit_tokens
    );
}

#[test]
fn softmax_routing_replays_bit_identically() {
    // Nonzero temperature draws from the router's own deterministic
    // stream; with a propagation delay in play the whole pipeline —
    // event publication, delayed visibility, softmax sampling — must
    // still replay exactly.
    let (requests, arrivals) = shared_sysprompt_traffic(200, 43);
    let overlap = RouterPolicy::KvOverlap {
        overlap_weight: 0.8,
        temperature: 0.35,
    };
    let config = || {
        let mut c = block_config(30_000);
        c.router.kv_event_delay = SimDuration::from_millis(250);
        c
    };

    let run_cluster = || {
        ClusterSimulation::new(config(), 3, overlap)
            .run_workload(Workload::Timed(requests.clone(), arrivals.clone()), None)
            .expect("cluster run")
    };
    let a = run_cluster();
    let b = run_cluster();
    assert!(a.prefix_stats.hits > 0);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));

    let run_elastic = || {
        let autoscale = AutoscaleConfig::bounded(3, 3)
            .interval(SimDuration::from_secs(1_000))
            .warmup(SimDuration::from_secs(5));
        ElasticCluster::new(config(), autoscale, 3)
            .router(overlap)
            .run(requests.clone(), arrivals.clone())
            .expect("elastic run")
    };
    let a = run_elastic();
    let b = run_elastic();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));

    let run_disagg = || {
        DisaggCluster::new(DisaggConfig::new(config()).router(overlap), 2, 2)
            .run(requests.clone(), arrivals.clone())
            .expect("disagg run")
    };
    let a = run_disagg();
    let b = run_disagg();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn index_staleness_degrades_reuse() {
    // A delay far longer than the run leaves the global index empty:
    // every overlap score reads zero and routing collapses to the load
    // term, losing the affinity that concentrates a tenant's blocks. Both
    // overlap policies read the same index.
    let (requests, arrivals) = shared_sysprompt_traffic(240, 47);
    let policies = [
        RouterPolicy::KvOverlap {
            overlap_weight: 1.0,
            temperature: 0.0,
        },
        RouterPolicy::PrefixAffinity {
            load_tiebreak: true,
        },
    ];
    for policy in policies {
        let run = |delay| {
            let mut config = block_config(40_000);
            config.router.kv_event_delay = delay;
            ClusterSimulation::new(config, 3, policy)
                .run_workload(Workload::Timed(requests.clone(), arrivals.clone()), None)
                .expect("cluster run")
        };
        let fresh = run(SimDuration::ZERO);
        let stale = run(SimDuration::from_secs(100_000));
        assert!(
            fresh.prefix_stats.hit_tokens > stale.prefix_stats.hit_tokens,
            "{}: a fresh index must out-reuse a never-propagated one ({} vs {})",
            policy.label(),
            fresh.prefix_stats.hit_tokens,
            stale.prefix_stats.hit_tokens
        );
    }
}

#[test]
fn block_store_emits_kv_lifecycle_trace_events() {
    let (requests, arrivals) = shared_sysprompt_traffic(120, 53);
    let autoscale = AutoscaleConfig::bounded(2, 2)
        .interval(SimDuration::from_secs(1_000))
        .warmup(SimDuration::from_secs(5));
    let mut sink = RecordingSink::new();
    let report = ElasticCluster::new(block_config(20_000), autoscale, 2)
        .router(RouterPolicy::KvOverlap {
            overlap_weight: 1.0,
            temperature: 0.0,
        })
        .run_traced(requests, arrivals, Some(&mut sink))
        .expect("traced elastic run");
    assert!(report.headline().completed > 0);
    let stored = sink
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::KvStored { .. }))
        .count();
    assert!(stored > 0, "block stores must surface kv-stored events");

    // The disaggregated prefill pool runs the same store at the default
    // block size, and publishes under every router, not just KvOverlap.
    let (requests, arrivals) = shared_sysprompt_traffic(120, 53);
    let mut config = base_config(20_000);
    config.prefix_cache = Some(pf_sim::PrefixCacheConfig::with_budget_frac(0.4));
    for policy in RouterPolicy::ALL {
        let mut sink = RecordingSink::new();
        let report = DisaggCluster::new(DisaggConfig::new(config.clone()).router(policy), 2, 2)
            .run_traced(requests.clone(), arrivals.clone(), Some(&mut sink))
            .expect("traced disagg run");
        assert!(report.completed() > 0);
        assert!(
            sink.events
                .iter()
                .any(|e| matches!(e, TraceEvent::KvStored { .. })),
            "{}: disagg prefill stores must surface kv-stored events",
            policy.label()
        );
    }
}

#[test]
fn non_finite_overlap_parameters_are_rejected_before_the_first_event() {
    // A NaN weight would silently degrade routing to round-robin and a NaN
    // temperature would route everything to the last candidate; every
    // fleet shape refuses both (and infinities) with a typed error.
    let (requests, arrivals) = shared_sysprompt_traffic(40, 59);
    let kv = |overlap_weight, temperature| RouterPolicy::KvOverlap {
        overlap_weight,
        temperature,
    };
    for (parameter, policy) in [
        ("overlap_weight", kv(f64::NAN, 0.0)),
        ("overlap_weight", kv(f64::INFINITY, 0.0)),
        ("temperature", kv(1.0, f64::NAN)),
        ("temperature", kv(1.0, f64::NEG_INFINITY)),
    ] {
        let expected = SimError::InvalidRouterPolicy { parameter };
        let mut sink = RecordingSink::new();
        let cluster = ClusterSimulation::new(block_config(30_000), 2, policy).run_traced(
            requests.clone(),
            arrivals.clone(),
            Some(&mut sink),
        );
        assert_eq!(cluster.unwrap_err(), expected);
        assert!(sink.events.is_empty(), "rejected before the first event");
        let autoscale = AutoscaleConfig::bounded(2, 2)
            .interval(SimDuration::from_secs(1_000))
            .warmup(SimDuration::from_secs(5));
        let elastic = ElasticCluster::new(block_config(30_000), autoscale, 2)
            .router(policy)
            .run(requests.clone(), arrivals.clone());
        assert_eq!(elastic.unwrap_err(), expected);
        let disagg =
            DisaggCluster::new(DisaggConfig::new(block_config(30_000)).router(policy), 1, 1)
                .run(requests.clone(), arrivals.clone());
        assert_eq!(disagg.unwrap_err(), expected);
    }

    // Without a prefix cache every overlap would read 0 and the policy
    // would silently route on load alone.
    let policy = kv(1.0, 0.0);
    let expected = SimError::InvalidRouterPolicy {
        parameter: "prefix_cache",
    };
    let mut sink = RecordingSink::new();
    let cluster = ClusterSimulation::new(base_config(30_000), 2, policy).run_traced(
        requests.clone(),
        arrivals.clone(),
        Some(&mut sink),
    );
    assert_eq!(cluster.unwrap_err(), expected);
    assert!(sink.events.is_empty(), "rejected before the first event");
    let autoscale = AutoscaleConfig::bounded(2, 2)
        .interval(SimDuration::from_secs(1_000))
        .warmup(SimDuration::from_secs(5));
    let elastic = ElasticCluster::new(base_config(30_000), autoscale, 2)
        .router(policy)
        .run(requests.clone(), arrivals.clone());
    assert_eq!(elastic.unwrap_err(), expected);
    let mut sink = RecordingSink::new();
    let disagg = DisaggCluster::new(DisaggConfig::new(base_config(30_000)).router(policy), 1, 1)
        .run_traced(requests, arrivals, Some(&mut sink));
    assert_eq!(disagg.unwrap_err(), expected);
    assert!(sink.events.is_empty(), "rejected before the first event");
}
