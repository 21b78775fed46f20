//! Behavioral tests for the elastic cluster: scale-up under load, drain
//! correctness, policy bounds, warm-up delays and full-run determinism —
//! plus request conservation at the horizon for it and for the fixed
//! cluster that runs on the same core.

use pf_autoscale::{AutoscaleConfig, PolicyConfig, PredictorKind};
use pf_core::SchedulerConfig;
use pf_metrics::{SimDuration, SimTime};
use pf_obs::RecordingSink;
use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
use pf_sim::elastic::ElasticCluster;
use pf_sim::{
    FleetReport, GpuSpec, ModelSpec, QueueOrder, SimConfig, SimError, SimReport, Workload,
};
use pf_workload::{datasets, rng::seeded, ClosedLoopClients, PoissonArrivals, RateProfile};

fn base_config(capacity: u64) -> SimConfig {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(capacity)
        .record_series(false)
        .seed(3)
        .build()
}

fn autoscale(min: usize, max: usize) -> AutoscaleConfig {
    AutoscaleConfig::bounded(min, max)
        .interval(SimDuration::from_secs(10))
        .warmup(SimDuration::from_secs(15))
        .predictor(PredictorKind::holt())
        .initial_lengths(160.0, 220.0)
}

/// A run against a diurnal profile ramping well past one instance's
/// capacity.
fn diurnal_run(seed: u64) -> FleetReport {
    let n = 900;
    let requests = datasets::short_chat(n, seed);
    let arrivals = RateProfile::diurnal(1.0, 12.0, SimDuration::from_secs(180))
        .assign(&mut seeded(seed + 1), n);
    ElasticCluster::new(base_config(6_000), autoscale(1, 4), 1)
        .run(requests, arrivals)
        .expect("elastic run")
}

/// Members' steps overlap in time, so one can end before another that
/// began earlier. The planner must learn each finished request when its
/// step ends, in completion order: its sliding windows take samples in
/// time order (debug builds assert it), so feeding a step's completions
/// when the step begins, stamped with its end, breaks them.
#[test]
fn planner_learns_completions_in_time_order_across_busy_members() {
    for seed in 0..6 {
        let n = 300;
        let requests = datasets::sharegpt(n, seed);
        let arrivals = PoissonArrivals::new(12.0).assign(&mut seeded(seed), n);
        let mut base = base_config(8_000);
        base.seed = seed;
        let report = ElasticCluster::new(base, AutoscaleConfig::bounded(3, 3), 3)
            .run(requests, arrivals)
            .expect("elastic run");
        assert_eq!(report.headline().completed, n, "seed {seed}");
    }
}

#[test]
fn ramp_forces_scale_up_and_completes_everything() {
    let report = diurnal_run(10);
    assert_eq!(report.headline().completed, 900);
    assert_eq!(report.unrouted, 0);
    assert!(
        report.peak_replicas() > 1,
        "fleet never grew: events {:?}",
        report.events
    );
    assert!(!report.events.is_empty(), "planner never acted");
    let total_routed: usize = report.instances.iter().map(|i| i.routed).sum();
    assert_eq!(total_routed, 900);
}

#[test]
fn drained_instances_finish_their_work_and_receive_nothing_new() {
    // A heavy burst grows the fleet, then a long quiet tail forces the
    // planner to drain the surplus well before the run ends.
    let burst = 600usize;
    let tail = 120usize;
    let requests = datasets::short_chat(burst + tail, 11);
    let mut arrivals: Vec<SimTime> = (0..burst)
        .map(|i| SimTime::from_millis(100 * i as u64)) // 10 req/s for 60 s
        .collect();
    arrivals.extend(
        (0..tail).map(|i| SimTime::from_millis(60_000 + 2_000 * i as u64)), // 0.5 req/s
    );
    let report = ElasticCluster::new(base_config(6_000), autoscale(1, 4), 1)
        .run(requests, arrivals)
        .expect("elastic run");
    assert_eq!(report.headline().completed, burst + tail);
    let makespan_end = SimTime::ZERO + report.makespan;
    let mut saw_early_stop = false;
    for (idx, instance) in report.instances.iter().enumerate() {
        // Every instance, drained or not, completed all routed work.
        assert_eq!(
            instance.report.unfinished, 0,
            "instance {idx} stopped with work in flight"
        );
        assert_eq!(instance.routed, instance.report.completed);
        if instance.stopped_at < makespan_end {
            saw_early_stop = true;
            // Nothing was routed to it after it began draining: every
            // request it served arrived (and finished) before it stopped.
            for outcome in &instance.report.outcomes {
                assert!(
                    outcome.timing.last_token_at() <= instance.stopped_at,
                    "instance {idx} emitted tokens after stopping"
                );
            }
        }
    }
    assert!(
        saw_early_stop,
        "diurnal trough never drained an instance; events {:?}",
        report.events
    );
}

#[test]
fn fleet_respects_policy_bounds() {
    let report = diurnal_run(12);
    assert!(report.peak_replicas() <= 4);
    let min_live = report
        .series
        .get("colocated-live")
        .expect("a live-replica series")
        .points()
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::INFINITY, f64::min);
    assert!(min_live >= 1.0, "live replicas dropped to {min_live}");
}

#[test]
fn scaled_up_instances_serve_only_after_warmup() {
    let report = diurnal_run(13);
    for (idx, instance) in report.instances.iter().enumerate() {
        if instance.spawned_at == SimTime::ZERO {
            continue; // initial replica
        }
        let ready_at = instance.spawned_at + SimDuration::from_secs(15);
        for outcome in &instance.report.outcomes {
            assert!(
                outcome.timing.arrival() >= ready_at,
                "instance {idx} (spawned {}) served a request arriving {} before ready {}",
                instance.spawned_at,
                outcome.timing.arrival(),
                ready_at
            );
        }
    }
}

#[test]
fn gpu_seconds_are_below_peak_fleet_cost() {
    let report = diurnal_run(14);
    let peak_cost = report.peak_replicas() as f64 * report.makespan.as_secs_f64();
    assert!(report.gpu_seconds() > 0.0);
    assert!(
        report.gpu_seconds() < peak_cost,
        "elastic cost {} should undercut peak-static cost {}",
        report.gpu_seconds(),
        peak_cost
    );
}

#[test]
fn elastic_run_is_deterministic() {
    let a = diurnal_run(15);
    let b = diurnal_run(15);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
    assert_eq!(a.gpu_seconds(), b.gpu_seconds());
    assert_eq!(
        a.instances.iter().map(|i| i.routed).collect::<Vec<_>>(),
        b.instances.iter().map(|i| i.routed).collect::<Vec<_>>()
    );
    assert_eq!(a.goodput.satisfied_requests, b.goodput.satisfied_requests);
    assert_eq!(a.headline().evictions, b.headline().evictions);
}

#[test]
fn static_min_and_max_bracket_the_elastic_fleet() {
    // With scaling disabled (min == max), the elastic runner degenerates
    // to a static fleet; the adaptive fleet's provisioned cost must land
    // between the static extremes.
    let n = 600;
    let requests = datasets::short_chat(n, 16);
    let arrivals =
        RateProfile::diurnal(1.0, 10.0, SimDuration::from_secs(150)).assign(&mut seeded(17), n);
    let run = |min: usize, max: usize, start: usize| {
        ElasticCluster::new(base_config(6_000), autoscale(min, max), start)
            .run(requests.clone(), arrivals.clone())
            .expect("run")
    };
    let static_one = run(1, 1, 1);
    let static_four = run(4, 4, 4);
    let elastic = run(1, 4, 1);
    assert_eq!(static_one.peak_replicas(), 1);
    assert_eq!(static_four.peak_replicas(), 4);
    assert!(elastic.gpu_seconds() < static_four.gpu_seconds());
    assert!(
        elastic.headline().sla_attainment >= static_one.headline().sla_attainment,
        "elastic {} vs single-instance {}",
        elastic.headline().sla_attainment,
        static_one.headline().sla_attainment
    );
}

#[test]
fn unsorted_arrivals_are_an_invalid_workload() {
    let err = ElasticCluster::new(base_config(6_000), autoscale(1, 4), 1)
        .run(
            datasets::short_chat(2, 1),
            vec![SimTime::from_secs(1), SimTime::ZERO],
        )
        .unwrap_err();
    assert_eq!(
        err,
        pf_sim::SimError::InvalidWorkload {
            reason: "arrival times must be sorted"
        }
    );
}

/// The error an elastic run from `initial` replicas under `autoscale`
/// returns before its first event.
fn rejected(autoscale: AutoscaleConfig, initial: usize) -> SimError {
    let mut sink = RecordingSink::new();
    let error = ElasticCluster::new(base_config(6_000), autoscale, initial)
        .run_traced(
            datasets::short_chat(8, 1),
            vec![SimTime::ZERO; 8],
            Some(&mut sink),
        )
        .expect_err("an invalid planner runs");
    assert!(sink.events.is_empty(), "rejected before the first event");
    error
}

/// The initial size must lie within the planner's bounds, and the bounds
/// must be ordered and positive, which `PolicyConfig` field literals can
/// skip.
#[test]
fn initial_replicas_outside_bounds_is_rejected() {
    let invalid = |parameter| SimError::InvalidAutoscale { parameter };
    let bounds = |min_replicas, max_replicas| AutoscaleConfig {
        policy: PolicyConfig {
            min_replicas,
            max_replicas,
            ..autoscale(1, 4).policy
        },
        ..autoscale(1, 4)
    };
    assert_eq!(rejected(autoscale(1, 4), 6), invalid("initial_replicas"));
    assert_eq!(rejected(autoscale(2, 4), 1), invalid("initial_replicas"));
    assert_eq!(rejected(autoscale(1, 4), 0), invalid("initial_replicas"));
    assert_eq!(rejected(bounds(0, 4), 1), invalid("min_replicas"));
    assert_eq!(rejected(bounds(3, 2), 2), invalid("min_replicas"));
}

/// A zero adjustment interval divided by zero in the planner.
#[test]
fn zero_autoscale_interval_is_rejected() {
    let zero = AutoscaleConfig {
        interval: SimDuration::ZERO,
        ..autoscale(1, 4)
    };
    assert_eq!(
        rejected(zero, 1),
        SimError::InvalidAutoscale {
            parameter: "interval"
        }
    );
}

#[test]
fn declaring_the_reference_fleet_changes_nothing() {
    use pf_sim::GpuType;
    let n = 400;
    let requests = datasets::short_chat(n, 20);
    let arrivals =
        RateProfile::diurnal(1.0, 10.0, SimDuration::from_secs(150)).assign(&mut seeded(21), n);
    let implicit = ElasticCluster::new(base_config(6_000), autoscale(1, 4), 1)
        .run(requests.clone(), arrivals.clone())
        .expect("implicit run");
    // The homogeneous reference fleet is the identity, bit for bit, and
    // so is the empty list.
    for slots in [vec![GpuType::reference(); 4], Vec::new()] {
        let label = format!("{} slots", slots.len());
        let explicit = ElasticCluster::new(base_config(6_000), autoscale(1, 4), 1)
            .fleet(slots)
            .run(requests.clone(), arrivals.clone())
            .expect("explicit run");
        assert_eq!(implicit.makespan, explicit.makespan, "{label}");
        assert_eq!(implicit.events, explicit.events, "{label}");
        assert_eq!(implicit.gpu_seconds(), explicit.gpu_seconds(), "{label}");
    }
    assert_eq!(
        implicit.gpu_seconds(),
        implicit.headline().cost_weighted_gpu_seconds,
        "weight-1.0 fleets bill plain GPU-seconds"
    );
}

#[test]
fn mixed_fleet_completes_and_bills_by_cost_weight() {
    use pf_sim::GpuType;
    let n = 500;
    let requests = datasets::short_chat(n, 22);
    let arrivals =
        RateProfile::diurnal(1.0, 8.0, SimDuration::from_secs(150)).assign(&mut seeded(23), n);
    let report = ElasticCluster::new(base_config(6_000), autoscale(1, 4), 2)
        .fleet(vec![
            GpuType::big(),
            GpuType::big(),
            GpuType::mid(),
            GpuType::mid(),
        ])
        .run(requests, arrivals)
        .expect("mixed run");
    assert_eq!(report.headline().completed, n);
    assert_eq!(report.unrouted, 0);
    // The ledger recomputes from per-instance lifetimes and weights.
    let recompute: f64 = report
        .instances
        .iter()
        .map(|i| i.active_secs() * i.gpu.cost_weight)
        .sum();
    assert!((report.headline().cost_weighted_gpu_seconds - recompute).abs() < 1e-9);
    // Any mid-tier instance in the fleet bills below plain seconds.
    if report.instances.iter().any(|i| i.gpu.cost_weight < 1.0) {
        assert!(report.headline().cost_weighted_gpu_seconds < report.gpu_seconds());
    }
    // Determinism with mixed types.
    let replay = ElasticCluster::new(base_config(6_000), autoscale(1, 4), 2)
        .fleet(vec![
            GpuType::big(),
            GpuType::big(),
            GpuType::mid(),
            GpuType::mid(),
        ])
        .run(datasets::short_chat(n, 22), {
            RateProfile::diurnal(1.0, 8.0, SimDuration::from_secs(150)).assign(&mut seeded(23), n)
        })
        .expect("replay");
    assert_eq!(replay.makespan, report.makespan);
    assert_eq!(replay.events, report.events);
    assert_eq!(
        replay.headline().cost_weighted_gpu_seconds,
        report.headline().cost_weighted_gpu_seconds
    );
}

#[test]
fn elastic_timed_out_requests_are_reported() {
    // A burst far beyond the bounded fleet's capacity with tight
    // deadlines: the elastic report surfaces the engine-level timeouts.
    let n = 500;
    let requests: Vec<pf_workload::RequestSpec> = datasets::short_chat(n, 24)
        .into_iter()
        .map(|r| r.with_deadline(SimDuration::from_secs(8)))
        .collect();
    let arrivals: Vec<SimTime> = (0..n)
        .map(|i| SimTime::from_millis(20 * i as u64)) // 50 req/s
        .collect();
    let report = ElasticCluster::new(base_config(3_000), autoscale(1, 2), 1)
        .run(requests, arrivals)
        .expect("elastic run");
    assert!(
        report.headline().timed_out > 0,
        "a 50 req/s burst into a 2-replica fleet must shed load"
    );
    assert_eq!(report.headline().completed + report.headline().timed_out, n);
}

#[test]
fn least_slack_first_reduces_elastic_timeouts_on_mixed_deadlines() {
    // Mixed-deadline traffic bursting past the bounded fleet: the member
    // engines inherit the base config's queue order, so slack-aware
    // admission works unchanged inside the elastic cluster.
    let n = 400;
    let requests = datasets::mixed_deadline(n, 27);
    let arrivals: Vec<SimTime> = (0..n)
        .map(|i| SimTime::from_millis(30 * i as u64))
        .collect();
    let run = |order: pf_sim::QueueOrder| {
        let mut base = base_config(6_000);
        base.queue_order = order;
        ElasticCluster::new(base, autoscale(1, 2), 1)
            .run(requests.clone(), arrivals.clone())
            .expect("elastic run")
    };
    let fifo = run(pf_sim::QueueOrder::Fifo);
    let lsf = run(pf_sim::QueueOrder::least_slack());
    assert!(
        fifo.headline().timed_out > 0,
        "the scenario must pressure deadlines under FIFO"
    );
    assert!(
        lsf.headline().timed_out < fifo.headline().timed_out,
        "least-slack-first timed out {} vs FIFO {}",
        lsf.headline().timed_out,
        fifo.headline().timed_out
    );
    assert_eq!(
        lsf.headline().completed + lsf.headline().timed_out + lsf.unrouted,
        n
    );
    // Timed-out requests weigh the cluster-level goodput denominator.
    assert_eq!(
        lsf.goodput.total_requests,
        lsf.headline().completed + lsf.headline().timed_out
    );
}

#[test]
fn every_request_ends_exactly_once_at_the_horizon() {
    // `max_sim_time` cuts both fleets off mid-stream, under a timed stream
    // and under closed-loop clients: each routed request ends in its
    // member's report as completed, timed out or unfinished, and each
    // request that found every member stopped, or that no client got to
    // submit, counts as unrouted — exactly once in total. The SLA terms
    // of the headline count every issued request.
    let n = 600;
    let requests = datasets::mixed_deadline(n, 29);
    let arrivals: Vec<SimTime> = (0..n)
        .map(|i| SimTime::from_millis(100 * i as u64))
        .collect();
    let mut config = base_config(6_000);
    config.max_sim_time = Some(SimDuration::from_secs(30));
    config.queue_order = QueueOrder::least_slack();
    let ended = |r: &SimReport| r.completed + r.timed_out + r.unfinished;
    let workloads = [
        ("timed", Workload::Timed(requests.clone(), arrivals)),
        (
            "closed-loop",
            Workload::ClosedLoop(requests, ClosedLoopClients::new(16)),
        ),
    ];

    for (label, workload) in workloads {
        let cluster = ClusterSimulation::new(config.clone(), 3, RouterPolicy::LeastEstimatedLoad)
            .run_workload(workload.clone(), None)
            .expect("cluster run");
        let elastic = ElasticCluster::new(config.clone(), autoscale(1, 4), 1)
            .run_workload(workload, None)
            .expect("elastic run");
        for (fleet, report) in [("cluster", cluster), ("elastic", elastic)] {
            let what = format!("{label} {fleet}");
            assert!(
                report.unrouted > 0,
                "{what}: the horizon must cut the stream"
            );
            for member in &report.instances {
                assert_eq!(ended(&member.report), member.routed, "{what}");
            }
            let routed: usize = report.instances.iter().map(|m| m.routed).sum();
            assert_eq!(routed + report.unrouted, n, "{what}");
            assert!(
                report.instances.iter().any(|m| m.report.unfinished > 0),
                "{what}: the horizon must strand work in flight"
            );
            assert_eq!(report.issued, n, "{what}");
            assert!(report.ledger_balances(), "{what}: {report:?}");
            // The requests the horizon cut off count as SLA misses.
            let headline = report.headline();
            let share = |k: usize| k as f64 / n as f64;
            assert_eq!(headline.sla_attainment, share(headline.satisfied), "{what}");
            let ttft_ok = report.goodput.ttft_ok_count();
            assert_eq!(headline.ttft_attainment, share(ttft_ok), "{what}");
        }
    }
}
