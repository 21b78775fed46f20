//! Trace-emission tests: attaching a [`TraceSink`] must not perturb the
//! simulation (bit-identical reports vs the untraced path), and the
//! emitted stream must reconstruct into spans that exactly partition
//! every request's lifetime — across the colocated engine, the
//! disaggregated pools, the elastic fleet and the fixed cluster.

use pf_autoscale::{AutoscaleConfig, PredictorKind};
use pf_core::SchedulerConfig;
use pf_metrics::{SimDuration, SimTime};
use pf_obs::{reconstruct, RecordingSink, SpanOutcome, TraceEvent};
use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
use pf_sim::disagg::{DisaggCluster, DisaggConfig};
use pf_sim::elastic::ElasticCluster;
use pf_sim::{GpuSpec, ModelSpec, PrefixCacheConfig, QueueOrder, SimConfig, Simulation, Workload};
use pf_workload::{datasets, LengthSampler};

fn base_config(capacity: u64) -> SimConfig {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(capacity)
        .record_series(false)
        .seed(7)
        .build()
}

fn steady_arrivals(n: usize, gap_ms: u64) -> Vec<SimTime> {
    (0..n)
        .map(|i| SimTime::from_millis(gap_ms * i as u64))
        .collect()
}

/// The tight-memory offline scenario: an aggressive scheduler over a
/// decode-heavy workload with a high generation cap, so running requests
/// outgrow memory and the stream exercises `Preempted` and re-admission.
fn preemption_scenario() -> (SimConfig, Vec<pf_workload::RequestSpec>) {
    let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::aggressive(0.99))
        .capacity_override(1_200)
        .record_series(false)
        .seed(11)
        .build();
    let input = LengthSampler::uniform(8, 32);
    let output = LengthSampler::uniform(64, 256);
    (config, datasets::from_samplers(48, 3, &input, &output, 512))
}

#[test]
fn traced_colocated_run_is_bit_identical_to_untraced() {
    let (config, requests) = preemption_scenario();
    let untraced = Simulation::offline(config.clone(), requests.clone())
        .run()
        .expect("untraced run");
    let mut sink = RecordingSink::new();
    let traced = Simulation::offline(config, requests)
        .run_traced(Some(&mut sink))
        .expect("traced run");
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
    assert!(!sink.events.is_empty());
    assert!(!sink.gauges.is_empty());
}

#[test]
fn colocated_stream_reconstructs_into_partitioning_spans() {
    let (config, requests) = preemption_scenario();
    let n = requests.len();
    let mut sink = RecordingSink::new();
    let report = Simulation::offline(config, requests)
        .run_traced(Some(&mut sink))
        .expect("traced run");
    assert!(report.evictions > 0, "scenario must exercise preemption");
    let spans = reconstruct(&sink.events);
    assert_eq!(spans.len(), n);
    for span in &spans {
        assert!(
            span.phases_partition_lifetime(),
            "request {} phases must partition its lifetime",
            span.request
        );
        assert!(matches!(span.outcome, SpanOutcome::Finished { .. }));
    }
}

#[test]
fn deadline_drops_emit_timeout_events() {
    let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(6_000)
        .record_series(false)
        .request_deadline(SimDuration::from_millis(400))
        .queue_order(QueueOrder::least_slack())
        .seed(13)
        .build();
    let input = LengthSampler::uniform(512, 2048);
    let output = LengthSampler::uniform(64, 256);
    let requests = datasets::from_samplers(64, 5, &input, &output, 64);
    let n = requests.len();
    let mut sink = RecordingSink::new();
    let report = Simulation::with_arrivals(config, requests, steady_arrivals(n, 10))
        .run_traced(Some(&mut sink))
        .expect("traced run");
    assert!(
        report.timed_out > 0,
        "scenario must exercise deadline drops"
    );
    let cancelled = sink
        .events
        .iter()
        .filter(|ev| {
            matches!(
                ev,
                TraceEvent::TimedOut { .. } | TraceEvent::SlackDropped { .. }
            )
        })
        .count();
    assert_eq!(cancelled, report.timed_out);
    let spans = reconstruct(&sink.events);
    let cancelled_spans = spans
        .iter()
        .filter(|s| matches!(s.outcome, SpanOutcome::TimedOut | SpanOutcome::SlackDropped))
        .count();
    assert_eq!(cancelled_spans, report.timed_out);
}

#[test]
fn traced_disagg_run_is_bit_identical_and_covers_transfers() {
    let input = LengthSampler::uniform(1024, 3072);
    let output = LengthSampler::uniform(8, 48);
    let requests = datasets::from_samplers(60, 2, &input, &output, 64);
    let arrivals = steady_arrivals(60, 120);
    let cluster = |sink| {
        DisaggCluster::new(DisaggConfig::new(base_config(12_000)), 2, 2).run_traced(
            requests.clone(),
            arrivals.clone(),
            sink,
        )
    };
    let untraced = cluster(None).expect("untraced run");
    let mut sink = RecordingSink::new();
    let traced = cluster(Some(&mut sink)).expect("traced run");
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
    let starts = sink
        .events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::KvTransferStart { .. }))
        .count();
    let ends = sink
        .events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::KvTransferEnd { .. }))
        .count();
    assert_eq!(starts, traced.transfers.transfers);
    assert_eq!(ends, traced.transfers.transfers);
    let spans = reconstruct(&sink.events);
    assert_eq!(spans.len(), 60);
    for span in &spans {
        assert!(span.phases_partition_lifetime());
    }
}

#[test]
fn traced_elastic_run_is_bit_identical_and_emits_scaling() {
    let base = base_config(12_000);
    let autoscale = AutoscaleConfig::bounded(1, 4)
        .interval(SimDuration::from_secs(10))
        .warmup(SimDuration::from_secs(15))
        .predictor(PredictorKind::holt())
        .initial_lengths(512.0, 64.0);
    let requests = datasets::sharegpt(150, 4);
    let arrivals = steady_arrivals(150, 40);
    let cluster = |sink| {
        ElasticCluster::new(base.clone(), autoscale, 1).run_traced(
            requests.clone(),
            arrivals.clone(),
            sink,
        )
    };
    let untraced = cluster(None).expect("untraced run");
    let mut sink = RecordingSink::new();
    let traced = cluster(Some(&mut sink)).expect("traced run");
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
    let scale_events = sink
        .events
        .iter()
        .filter(|ev| {
            matches!(
                ev,
                TraceEvent::ScaleUp { .. } | TraceEvent::ScaleDown { .. }
            )
        })
        .count();
    assert_eq!(scale_events, traced.events.len());
    let finished = sink
        .events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::Finished { .. }))
        .count();
    assert_eq!(finished, traced.headline().completed);
}

#[test]
fn traced_cluster_run_is_bit_identical_and_never_scales() {
    // The fixed fleet runs the elastic core without a planner: tracing
    // must not perturb it, and it must emit no fleet-level events.
    let spec = datasets::SharedSyspromptSpec::default();
    let (requests, arrivals) = datasets::shared_sysprompt_chat_timed(120, 9, &spec, 2.0, 2.0, 3.0);
    let mut config = base_config(20_000);
    config.prefix_cache = Some(PrefixCacheConfig::with_budget_frac(0.4).blocks(64));
    let cluster = |sink| {
        ClusterSimulation::new(
            config.clone(),
            3,
            RouterPolicy::KvOverlap {
                overlap_weight: 1.0,
                temperature: 0.25,
            },
        )
        .run_workload(Workload::Timed(requests.clone(), arrivals.clone()), sink)
    };
    let untraced = cluster(None).expect("untraced run");
    let mut sink = RecordingSink::new();
    let traced = cluster(Some(&mut sink)).expect("traced run");
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
    assert!(sink.events.iter().all(|ev| !matches!(
        ev,
        TraceEvent::ScaleUp { .. } | TraceEvent::ScaleDown { .. }
    )));
    let finished = sink
        .events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::Finished { .. }))
        .count();
    assert_eq!(finished, traced.headline().completed);
    for span in &reconstruct(&sink.events) {
        assert!(span.phases_partition_lifetime());
    }
}
