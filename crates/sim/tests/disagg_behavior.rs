//! Behavioral tests for the disaggregated prefill/decode cluster: request
//! flow through both pools, the shared transfer link, drain correctness,
//! per-pool scaling independence and full-run determinism.

use pf_autoscale::{AutoscaleConfig, PolicyConfig, PredictorKind};
use pf_metrics::{SimDuration, SimTime, SlaSpec};
use pf_obs::Pool;
use pf_obs::{RecordingSink, TraceEvent};
use pf_sim::disagg::{DisaggCluster, DisaggConfig, KvTransferSpec, RepurposeDirection};
use pf_sim::fleet::ScalingEvent;
use pf_sim::{
    FleetReport, GpuSpec, GpuType, MemberReport, ModelSpec, QueueOrder, SimConfig, SimError,
};
use pf_workload::{datasets, rng::seeded, LengthSampler, RateProfile, RequestSpec};

/// The scaling decisions of `pool`.
fn events(report: &FleetReport, pool: Pool) -> Vec<ScalingEvent> {
    report
        .events
        .iter()
        .filter(|e| e.pool == pool)
        .copied()
        .collect()
}

/// Member `i` of `pool`, the index a repurposing flip names.
fn member(report: &FleetReport, pool: Pool, i: usize) -> &MemberReport {
    report.pool(pool).nth(i).expect("a member of the pool")
}

fn base_config(capacity: u64) -> SimConfig {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .capacity_override(capacity)
        .record_series(false)
        .seed(5)
        .build()
}

/// Long prompts, terse answers: the regime disaggregation targets.
/// Deliberately narrower outputs than `datasets::prefill_heavy` (U[8,48]
/// cap 64 vs U[16,96] cap 128) so the behavior suite runs fast; the
/// canonical profile is exercised by `bench --bin disagg` and the golden
/// regression tests.
fn prefill_heavy_requests(n: usize, seed: u64) -> Vec<RequestSpec> {
    let input = LengthSampler::uniform(1024, 3072);
    let output = LengthSampler::uniform(8, 48);
    datasets::from_samplers(n, seed, &input, &output, 64)
}

/// Short prompts, long answers: the decode pool carries the load.
fn decode_heavy_requests(n: usize, seed: u64) -> Vec<RequestSpec> {
    let input = LengthSampler::uniform(32, 128);
    let output = LengthSampler::uniform(256, 640);
    datasets::from_samplers(n, seed, &input, &output, 768)
}

fn steady_arrivals(n: usize, gap_ms: u64) -> Vec<SimTime> {
    (0..n)
        .map(|i| SimTime::from_millis(gap_ms * i as u64))
        .collect()
}

fn autoscale(min: usize, max: usize) -> AutoscaleConfig {
    AutoscaleConfig::bounded(min, max)
        .interval(SimDuration::from_secs(10))
        .warmup(SimDuration::from_secs(15))
        .predictor(PredictorKind::holt())
        .initial_lengths(512.0, 64.0)
}

#[test]
fn requests_flow_through_both_pools_and_all_complete() {
    let n = 200;
    let requests = prefill_heavy_requests(n, 1);
    let report = DisaggCluster::new(DisaggConfig::new(base_config(12_000)), 2, 2)
        .run(requests, steady_arrivals(n, 150))
        .expect("disagg run");
    assert_eq!(report.completed(), n);
    assert_eq!(report.unserved, 0);
    let prefill_routed: usize = report.pool(Pool::Prefill).map(|i| i.routed).sum();
    let prefill_done: usize = report.pool(Pool::Prefill).map(|i| i.served).sum();
    assert_eq!(
        prefill_routed, n,
        "every request is routed to a prefill instance"
    );
    assert_eq!(prefill_done, n, "every request is prefilled");
    let decode_routed: usize = report.pool(Pool::Decode).map(|i| i.routed).sum();
    assert_eq!(
        decode_routed, report.transfers.transfers,
        "every transfer lands on a decode instance"
    );
    // Multi-token requests must all cross the link.
    assert_eq!(report.transfers.transfers, n);
    assert!(report.transfers.total_bytes > 0);
    // Every outcome carries a first token (TTFT) and full output.
    for outcome in &report.outcomes {
        assert!(outcome.timing.ttft().is_some());
        assert!(outcome.output_len >= 1);
    }
    // Fixed pools never scale.
    assert!(events(&report, Pool::Prefill).is_empty());
    assert!(events(&report, Pool::Decode).is_empty());
}

#[test]
fn atomic_handoffs_share_one_wire() {
    // A burst of equal 500-token prompts on the default NVLink spec. Two
    // single-token leaders (they finish at prefill, never crossing the
    // link) occupy the first passes, so the 30 followers queue and fill
    // one full pass per member; both passes end together and release 30
    // atomic handoffs onto the link at once. They share the one physical
    // wire, so the bytes moved fit link capacity over the span from the
    // first transfer start to the last transfer end.
    let n = 32;
    let requests: Vec<RequestSpec> = (0..n)
        .map(|i| {
            let output = if i < 2 { 1 } else { 16 };
            RequestSpec::new(i as u64, 500, output, 16)
        })
        .collect();
    let spec = KvTransferSpec::nvlink();
    let mut sink = RecordingSink::new();
    let report = DisaggCluster::new(DisaggConfig::new(base_config(12_000)).transfer(spec), 2, 2)
        .run_traced(requests, vec![SimTime::ZERO; n], Some(&mut sink))
        .expect("disagg run");
    assert_eq!(report.completed(), n);
    assert_eq!(report.transfers.transfers, n - 2);
    assert_eq!(report.transfers.streamed, 0);
    let first_start = sink
        .events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::KvTransferStart { at, .. } => Some(at),
            _ => None,
        })
        .min()
        .expect("handoffs start");
    let last_end = sink
        .events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::KvTransferEnd { at, .. } => Some(at),
            _ => None,
        })
        .max()
        .expect("handoffs land");
    let window_secs = last_end.saturating_since(first_start).as_secs_f64();
    let wire_bytes = spec.link_gbps * 1e9 * window_secs;
    assert!(
        report.transfers.total_bytes as f64 <= wire_bytes,
        "{} bytes moved in {window_secs:.6} s exceed the {} GB/s wire ({wire_bytes:.0} bytes)",
        report.transfers.total_bytes,
        spec.link_gbps
    );
}

#[test]
fn single_token_requests_never_cross_the_link() {
    let n = 50;
    let input = LengthSampler::uniform(64, 256);
    let output = LengthSampler::uniform(1, 1);
    let requests = datasets::from_samplers(n, 3, &input, &output, 1);
    let report = DisaggCluster::new(DisaggConfig::new(base_config(12_000)), 1, 1)
        .run(requests, steady_arrivals(n, 50))
        .expect("disagg run");
    assert_eq!(report.completed(), n);
    assert_eq!(
        report.transfers.transfers, 0,
        "one-token requests finish at prefill"
    );
    let decode_routed: usize = report.pool(Pool::Decode).map(|i| i.routed).sum();
    assert_eq!(decode_routed, 0);
}

#[test]
fn transfer_latency_shows_up_between_first_and_second_token() {
    // One request on an extremely slow link: the gap between token one
    // (prefill) and token two (first decode step) must carry the transfer.
    let requests = vec![RequestSpec::new(0, 1000, 8, 16)];
    let slow = KvTransferSpec::new(0.1, SimDuration::from_millis(5), 1);
    let report = DisaggCluster::new(DisaggConfig::new(base_config(12_000)).transfer(slow), 1, 1)
        .run(requests.clone(), vec![SimTime::ZERO])
        .expect("disagg run");
    // ~1001 tokens × 512 KiB ≈ 0.5 GB at 0.1 GB/s ≈ 5 s of link time.
    let outcome = &report.outcomes[0];
    assert!(
        outcome.timing.mtpot() >= SimDuration::from_secs(4),
        "mtpot {} should include the ~5 s transfer",
        outcome.timing.mtpot()
    );
    // The same request on a fast link has no such stall.
    let fast_report = DisaggCluster::new(
        DisaggConfig::new(base_config(12_000)).transfer(KvTransferSpec::nvlink()),
        1,
        1,
    )
    .run(requests, vec![SimTime::ZERO])
    .expect("disagg run");
    assert!(fast_report.outcomes[0].timing.mtpot() < SimDuration::from_secs(1));
}

fn elastic_run(requests: Vec<RequestSpec>, arrivals: Vec<SimTime>) -> FleetReport {
    DisaggCluster::new(DisaggConfig::new(base_config(12_000)), 1, 1)
        .autoscale(autoscale(1, 4), autoscale(1, 4))
        .run(requests, arrivals)
        .expect("elastic disagg run")
}

#[test]
fn elastic_disagg_run_is_deterministic() {
    let n = 400;
    let make = || {
        let requests = prefill_heavy_requests(n, 7);
        let arrivals =
            RateProfile::diurnal(1.0, 8.0, SimDuration::from_secs(120)).assign(&mut seeded(8), n);
        elastic_run(requests, arrivals)
    };
    let a = make();
    let b = make();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.gpu_seconds(), b.gpu_seconds());
    assert_eq!(a.events, b.events);
    assert_eq!(a.transfers, b.transfers);
    assert_eq!(a.goodput.satisfied_requests, b.goodput.satisfied_requests);
}

#[test]
fn prefill_heavy_load_scales_only_the_prefill_pool() {
    // ~8 req/s of 1-3k-token prompts saturates one prefill instance
    // (~0.2 s per prompt) while the tiny outputs barely load decode.
    let n = 500;
    let requests = prefill_heavy_requests(n, 9);
    let report = elastic_run(requests, steady_arrivals(n, 125));
    assert_eq!(report.completed(), n);
    assert!(
        report.peak_pool_replicas(Pool::Prefill) > 1,
        "prefill pool never scaled: events {:?}",
        events(&report, Pool::Prefill)
    );
    assert_eq!(
        report.peak_pool_replicas(Pool::Decode),
        1,
        "decode pool should idle at minimum: events {:?}",
        events(&report, Pool::Decode)
    );
}

#[test]
fn decode_heavy_load_scales_only_the_decode_pool() {
    // Short prompts keep prefill idle; 512+-token outputs at 6 req/s
    // exceed one decode instance's token throughput.
    let n = 400;
    let requests = decode_heavy_requests(n, 10);
    let report = elastic_run(requests, steady_arrivals(n, 160));
    assert_eq!(report.completed(), n);
    assert!(
        report.peak_pool_replicas(Pool::Decode) > 1,
        "decode pool never scaled: events {:?}",
        events(&report, Pool::Decode)
    );
    assert_eq!(
        report.peak_pool_replicas(Pool::Prefill),
        1,
        "prefill pool should idle at minimum: events {:?}",
        events(&report, Pool::Prefill)
    );
}

#[test]
fn drained_instances_finish_their_work_before_stopping() {
    // A heavy burst grows the pools, then a long quiet tail drains them.
    let burst = 350usize;
    let tail = 80usize;
    let mut requests = prefill_heavy_requests(burst, 11);
    requests.extend(
        prefill_heavy_requests(tail, 12)
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.id = ((burst + i) as u64).into();
                r
            }),
    );
    let mut arrivals: Vec<SimTime> = (0..burst)
        .map(|i| SimTime::from_millis(100 * i as u64)) // 10 req/s for 35 s
        .collect();
    arrivals.extend((0..tail).map(|i| SimTime::from_millis(35_000 + 3_000 * i as u64)));
    let report = elastic_run(requests, arrivals);
    assert_eq!(report.completed(), burst + tail);
    let end = SimTime::ZERO + report.makespan;
    let mut early_stops = 0;
    for instance in &report.instances {
        if instance.stopped_at < end {
            early_stops += 1;
            assert_eq!(
                instance.routed, instance.served,
                "an instance stopped with routed work unfinished"
            );
        }
    }
    assert!(
        early_stops > 0,
        "the quiet tail never drained any instance: prefill {:?}, decode {:?}",
        events(&report, Pool::Prefill),
        events(&report, Pool::Decode)
    );
}

#[test]
fn gpu_seconds_stay_below_peak_static_cost() {
    let n = 400;
    let requests = prefill_heavy_requests(n, 13);
    let arrivals =
        RateProfile::diurnal(1.0, 8.0, SimDuration::from_secs(120)).assign(&mut seeded(14), n);
    let report = elastic_run(requests, arrivals);
    let peak_total =
        report.peak_pool_replicas(Pool::Prefill) + report.peak_pool_replicas(Pool::Decode);
    let peak_cost = peak_total as f64 * report.makespan.as_secs_f64();
    assert!(report.gpu_seconds() > 0.0);
    assert!(
        report.gpu_seconds() < peak_cost,
        "elastic cost {} should undercut peak-static cost {}",
        report.gpu_seconds(),
        peak_cost
    );
}

/// The error an autoscaled run of `initial` pools under the two planners
/// returns before its first event.
fn rejected(
    initial: (usize, usize),
    prefill: AutoscaleConfig,
    decode: AutoscaleConfig,
) -> SimError {
    let mut sink = RecordingSink::new();
    let error = DisaggCluster::new(DisaggConfig::new(base_config(12_000)), initial.0, initial.1)
        .autoscale(prefill, decode)
        .run_traced(
            prefill_heavy_requests(8, 1),
            steady_arrivals(8, 100),
            Some(&mut sink),
        )
        .expect_err("an invalid planner runs");
    assert!(sink.events.is_empty(), "rejected before the first event");
    error
}

/// A pool's initial size must lie within its planner's bounds, and the
/// bounds must be ordered and positive, which `PolicyConfig` field
/// literals can skip.
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
    let valid = autoscale(1, 4);
    assert_eq!(rejected((6, 1), valid, valid), invalid("initial_replicas"));
    assert_eq!(
        rejected((1, 2), valid, autoscale(3, 4)),
        invalid("initial_replicas")
    );
    assert_eq!(
        rejected((1, 1), valid, bounds(0, 4)),
        invalid("min_replicas")
    );
    assert_eq!(
        rejected((3, 1), bounds(3, 2), valid),
        invalid("min_replicas")
    );
}

/// A zero adjustment interval divided by zero in the planner, and the two
/// pools plan on one cadence: both are typed errors.
#[test]
fn zero_autoscale_interval_is_rejected() {
    let invalid = SimError::InvalidAutoscale {
        parameter: "interval",
    };
    let every = |interval| AutoscaleConfig {
        interval,
        ..autoscale(1, 4)
    };
    let zero = every(SimDuration::ZERO);
    assert_eq!(rejected((1, 1), zero, zero), invalid);
    assert_eq!(rejected((1, 1), autoscale(1, 4), zero), invalid);
    let other = every(SimDuration::from_secs(5));
    assert_eq!(rejected((1, 1), autoscale(1, 4), other), invalid);
}

/// Prefill-heavy bursts with a minority of very long prompts: the regime
/// where queue order decides the TTFT tail — during a burst, dozens of
/// short summaries pile up behind one 5k-token prompt at the head of a
/// FIFO queue.
fn bursty_mixed_prompts(n: usize, seed: u64) -> (Vec<RequestSpec>, Vec<SimTime>) {
    let input = LengthSampler::mixture(vec![
        (0.90, LengthSampler::uniform(128, 512)),
        (0.10, LengthSampler::uniform(4096, 6144)),
    ]);
    let output = LengthSampler::uniform(8, 32);
    let requests = datasets::from_samplers(n, seed, &input, &output, 64);
    let arrivals = RateProfile::bursty(
        1.5,
        11.0,
        SimDuration::from_secs(25),
        SimDuration::from_secs(60),
    )
    .assign(&mut seeded(33), n);
    (requests, arrivals)
}

#[test]
fn sjf_prefill_order_cuts_the_ttft_tail_without_starving_long_prompts() {
    let n = 600;
    let aging_cap = SimDuration::from_secs(8);
    let (requests, arrivals) = bursty_mixed_prompts(n, 21);
    let run = |order: QueueOrder| {
        let base = SimConfig {
            queue_order: order,
            ..base_config(24_000)
        };
        DisaggCluster::new(DisaggConfig::new(base), 1, 1)
            .run(requests.clone(), arrivals.clone())
            .expect("disagg run")
    };
    let fifo = run(QueueOrder::Fifo);
    let sjf = run(QueueOrder::ShortestPromptFirst { aging_cap });
    assert_eq!(fifo.completed(), n);
    assert_eq!(sjf.completed(), n, "sjf must not drop or starve requests");
    assert!(
        sjf.goodput.ttft_secs.p99 < fifo.goodput.ttft_secs.p99,
        "sjf TTFT p99 {:.2}s did not beat fifo {:.2}s",
        sjf.goodput.ttft_secs.p99,
        fifo.goodput.ttft_secs.p99
    );
    // The aging cap bounds starvation: the worst wait under SJF (a long
    // prompt repeatedly overtaken during a burst) stays within the cap
    // plus one aged-flush backlog — operationally, no prompt waits
    // unboundedly behind short ones.
    let max_ttft = |report: &FleetReport| {
        report
            .outcomes
            .iter()
            .filter_map(|o| o.timing.ttft())
            .max()
            .expect("completed requests have first tokens")
    };
    let fifo_worst = max_ttft(&fifo);
    let sjf_worst = max_ttft(&sjf);
    assert!(
        sjf_worst <= fifo_worst + aging_cap,
        "sjf worst TTFT {sjf_worst} exceeds fifo worst {fifo_worst} plus the aging cap"
    );
}

#[test]
fn queued_requests_past_their_deadline_are_cancelled() {
    // One prefill instance at ~2x its service rate: the queue grows
    // without bound, so late requests blow through a 12 s deadline.
    let n = 200;
    let requests: Vec<RequestSpec> = prefill_heavy_requests(n, 22)
        .into_iter()
        .map(|r| r.with_deadline(SimDuration::from_secs(12)))
        .collect();
    let report = DisaggCluster::new(DisaggConfig::new(base_config(12_000)), 1, 1)
        .run(requests, steady_arrivals(n, 100))
        .expect("disagg run");
    assert!(
        report.timed_out > 0,
        "an overloaded prefill queue must time requests out"
    );
    assert_eq!(
        report.completed() + report.timed_out,
        n,
        "every request either completes or times out"
    );
    assert_eq!(report.unserved, 0);
    // Every completed request met its deadline to the first token.
    for outcome in &report.outcomes {
        let ttft = outcome.timing.ttft().expect("completed");
        assert!(
            ttft < SimDuration::from_secs(12) + SimDuration::from_secs(1),
            "request {} completed with TTFT {} past its deadline",
            outcome.id,
            ttft
        );
    }
    // Without deadlines the same run completes everything.
    let no_deadline = DisaggCluster::new(DisaggConfig::new(base_config(12_000)), 1, 1)
        .run(prefill_heavy_requests(n, 22), steady_arrivals(n, 100))
        .expect("disagg run");
    assert_eq!(no_deadline.completed(), n);
    assert_eq!(no_deadline.timed_out, 0);
}

#[test]
fn heterogeneous_pools_price_and_pace_by_gpu_type() {
    let n = 200;
    let requests = prefill_heavy_requests(n, 23);
    let run = |slots: Vec<GpuType>| {
        DisaggCluster::new(
            DisaggConfig::new(base_config(12_000)).fleet(slots, Vec::new()),
            2,
            1,
        )
        .run(requests.clone(), steady_arrivals(n, 150))
        .expect("disagg run")
    };
    let reference = run(Vec::new());
    let homogeneous = run(vec![GpuType::reference(), GpuType::reference()]);
    let mixed = run(vec![GpuType::reference(), GpuType::mid()]);
    // Declaring the reference type explicitly changes nothing, bit for bit.
    assert_eq!(reference.makespan, homogeneous.makespan);
    assert_eq!(
        reference.headline().cost_weighted_gpu_seconds,
        homogeneous.headline().cost_weighted_gpu_seconds
    );
    assert_eq!(
        reference.gpu_seconds(),
        reference.headline().cost_weighted_gpu_seconds
    );
    // A mixed pool completes everything, bills the cheap GPU at its
    // weight, and routes more work to the faster member.
    assert_eq!(mixed.completed(), n);
    assert!(
        mixed.headline().cost_weighted_gpu_seconds < mixed.gpu_seconds(),
        "a sub-1.0-cost member must cut the weighted bill"
    );
    assert!(
        member(&mixed, Pool::Prefill, 0).routed > member(&mixed, Pool::Prefill, 1).routed,
        "the faster GPU should draw more traffic ({} vs {})",
        member(&mixed, Pool::Prefill, 0).routed,
        member(&mixed, Pool::Prefill, 1).routed
    );
}

#[test]
fn oversized_prompt_is_rejected_upfront() {
    let requests = vec![RequestSpec::new(0, 4000, 8, 16)];
    let err = DisaggCluster::new(DisaggConfig::new(base_config(3_000)), 1, 1)
        .run(requests, vec![SimTime::ZERO])
        .expect_err("a 4k prompt cannot fit a 3k-token pool");
    assert!(err.to_string().contains("request 0"));
}

#[test]
fn mismatched_arrivals_are_an_invalid_workload() {
    let err = DisaggCluster::new(DisaggConfig::new(base_config(3_000)), 1, 1)
        .run(prefill_heavy_requests(2, 1), vec![SimTime::ZERO])
        .unwrap_err();
    assert_eq!(
        err,
        pf_sim::SimError::InvalidWorkload {
            reason: "one arrival time per request"
        }
    );
}

#[test]
fn least_slack_first_reduces_disagg_timeouts_on_mixed_deadlines() {
    // Mixed-deadline traffic through an overloaded prefill pool: FIFO
    // serves 3k-token documents with a minute of slack ahead of chat
    // seconds from missing; the slack-aware order flips that, and the
    // doomed are dropped before they burn a pass.
    let n = 300;
    let requests = datasets::mixed_deadline(n, 33);
    let arrivals = steady_arrivals(n, 25);
    let run = |order: pf_sim::QueueOrder| {
        let mut base = base_config(12_000);
        base.queue_order = order;
        DisaggCluster::new(DisaggConfig::new(base), 1, 1)
            .run(requests.clone(), arrivals.clone())
            .expect("disagg run")
    };
    let fifo = run(pf_sim::QueueOrder::Fifo);
    let lsf = run(pf_sim::QueueOrder::least_slack());
    assert!(
        fifo.timed_out > 0,
        "the scenario must pressure deadlines under FIFO"
    );
    assert!(
        lsf.timed_out < fifo.timed_out,
        "least-slack-first timed out {} vs FIFO {}",
        lsf.timed_out,
        fifo.timed_out
    );
    assert_eq!(lsf.completed() + lsf.timed_out, n);
    assert_eq!(lsf.unserved, 0);
}

#[test]
fn streamed_transfers_hide_the_link_behind_prefill() {
    // Same prefill-heavy traffic over the same shared wire, atomic vs
    // layer-streamed: streaming overlaps the wire time with the producing
    // pass, so the KV hold releases at roughly the pass end instead of
    // pass end plus the full wire time — and under a tight TTFT budget
    // that backpressure relief shows up directly in SLA attainment.
    let n = 240;
    let requests = prefill_heavy_requests(n, 5);
    let arrivals = steady_arrivals(n, 250);
    let sla = SlaSpec::new(
        SimDuration::from_millis(1_500),
        SimDuration::from_millis(1_500),
    );
    let link = KvTransferSpec::new(7.0, SimDuration::from_micros(200), 1);
    let run = |transfer: KvTransferSpec| {
        let base = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .capacity_override(4_500)
            .sla(sla)
            .record_series(false)
            .seed(5)
            .build();
        DisaggCluster::new(DisaggConfig::new(base).transfer(transfer), 1, 1)
            .run(requests.clone(), arrivals.clone())
            .expect("disagg run")
    };
    let atomic = run(link);
    let streamed = run(link.streamed());
    assert_eq!(atomic.transfers.streamed, 0);
    assert_eq!(streamed.transfers.streamed, streamed.transfers.transfers);
    // Identical payloads cross the link in both modes.
    assert_eq!(streamed.transfers.total_bytes, atomic.transfers.total_bytes);
    assert_eq!(streamed.transfers.transfers, atomic.transfers.transfers);
    // The streamed tail (transfer time left after prefill ends) is a
    // small fraction of the wire time the atomic path serializes.
    assert!(
        streamed.transfers.total_tail_secs < 0.1 * atomic.transfers.total_link_secs,
        "tail {:.3}s vs atomic link {:.3}s",
        streamed.transfers.total_tail_secs,
        atomic.transfers.total_link_secs
    );
    // The payoff: hiding the wire behind the pass frees prefill KV sooner,
    // so TTFT attainment strictly improves at no extra GPU cost.
    assert!(
        streamed.headline().ttft_attainment > atomic.headline().ttft_attainment + 0.1,
        "streamed attainment {:.3} vs atomic {:.3}",
        streamed.headline().ttft_attainment,
        atomic.headline().ttft_attainment
    );
    assert!(
        streamed.gpu_seconds() <= atomic.gpu_seconds(),
        "streamed burned more GPU: {:.1}s vs {:.1}s",
        streamed.gpu_seconds(),
        atomic.gpu_seconds()
    );
}

#[test]
fn streamed_handoff_latency_is_the_tail_past_prefill() {
    // The handoff latency the decode side sees runs from the pass end
    // until the KV lands. Streaming ships most of the KV while the pass
    // still runs, so that latency undercuts the uncontended wire time
    // plus overhead of the same transfers.
    let n = 60;
    let transfer = KvTransferSpec::new(25.0, SimDuration::from_micros(200), 1).streamed();
    let report = DisaggCluster::new(
        DisaggConfig::new(base_config(12_000)).transfer(transfer),
        1,
        1,
    )
    .run(prefill_heavy_requests(n, 3), steady_arrivals(n, 250))
    .expect("disagg run");
    let stats = report.transfers;
    assert_eq!(stats.transfers, n);
    assert_eq!(stats.streamed, n);
    assert!(
        stats.mean_handoff_secs() < stats.total_link_secs / stats.transfers as f64,
        "mean handoff {:.6}s vs uncontended link {:.6}s per transfer",
        stats.mean_handoff_secs(),
        stats.total_link_secs / stats.transfers as f64
    );
}

#[test]
fn streamed_run_is_deterministic() {
    let n = 120;
    let requests = prefill_heavy_requests(n, 11);
    let arrivals = steady_arrivals(n, 50);
    let run = || {
        let transfer = KvTransferSpec::new(5.0, SimDuration::from_micros(500), 1).streamed();
        DisaggCluster::new(
            DisaggConfig::new(base_config(12_000)).transfer(transfer),
            2,
            2,
        )
        .run(requests.clone(), arrivals.clone())
        .expect("disagg run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.transfers, b.transfers);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.goodput, b.goodput);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.timing, y.timing);
    }
}

#[test]
fn reverse_repurposing_rebalances_a_diurnal_day() {
    // Decode-heavy morning, prefill-heavy afternoon with a thin trickle
    // of long decodes: the afternoon's prefill scale-up must claim the
    // decode pool's draining members and flip them back — the mirror of
    // the prefill→decode flip — instead of paying full warmups while
    // drained decode GPUs idle out. The trickle keeps drained members
    // busy long enough to survive into the next plan round (the claim
    // window a real diurnal shift always has).
    let n_morning = 360;
    let n_wave1 = 300;
    let n_wave2 = 450;
    let n_trickle = 40;
    let long_decode = {
        let input = LengthSampler::uniform(32, 128);
        let output = LengthSampler::uniform(1536, 3072);
        datasets::from_samplers(n_trickle, 23, &input, &output, 3072)
    };
    let mut pairs: Vec<(RequestSpec, SimTime)> = Vec::new();
    for (i, r) in decode_heavy_requests(n_morning, 21).into_iter().enumerate() {
        pairs.push((r, SimTime::from_micros(100_000 * i as u64)));
    }
    let start = 100_000 * n_morning as u64;
    for (i, r) in prefill_heavy_requests(n_wave1 + n_wave2, 22)
        .into_iter()
        .enumerate()
    {
        let at = if i < n_wave1 {
            start + 100_000 * (i as u64 + 1)
        } else {
            start + 100_000 * n_wave1 as u64 + 50_000 * ((i - n_wave1) as u64 + 1)
        };
        pairs.push((r, SimTime::from_micros(at)));
    }
    for (i, r) in long_decode.into_iter().enumerate() {
        pairs.push((
            r,
            SimTime::from_micros(start + 1_000 + 1_500_000 * i as u64),
        ));
    }
    pairs.sort_by_key(|&(_, at)| at);
    let (mut requests, arrivals): (Vec<RequestSpec>, Vec<SimTime>) = pairs.into_iter().unzip();
    for (i, r) in requests.iter_mut().enumerate() {
        r.id = (i as u64).into();
    }
    let pool = |max: usize, patience: u32| {
        let mut policy = PolicyConfig::bounded(1, max);
        policy.scale_down_patience = patience;
        AutoscaleConfig::bounded(1, max)
            .interval(SimDuration::from_secs(10))
            .warmup(SimDuration::from_secs(20))
            .predictor(PredictorKind::holt())
            .initial_lengths(512.0, 64.0)
            .policy(policy)
    };
    let config = DisaggConfig::new(base_config(9_000)).repurpose(SimDuration::from_secs(2));
    let report = DisaggCluster::new(config, 1, 2)
        .autoscale(pool(6, 3), pool(4, 1))
        .run(requests, arrivals)
        .expect("diurnal run");
    assert_eq!(report.unserved, 0);
    let reverse: Vec<_> = report
        .repurposes
        .iter()
        .filter(|e| e.direction == RepurposeDirection::DecodeToPrefill)
        .collect();
    assert!(
        !reverse.is_empty(),
        "the afternoon phase shift never flipped a decode member back"
    );
    for event in reverse {
        let prefill = member(&report, Pool::Prefill, event.prefill_member);
        let decode = member(&report, Pool::Decode, event.decode_member);
        // Same conservation rules as the forward direction: the decode
        // life ends exactly where the prefill life begins, on one GPU.
        assert_eq!(decode.stopped_at, event.at);
        assert_eq!(prefill.spawned_at, event.at);
        assert_eq!(prefill.gpu, decode.gpu);
        assert!(decode.spawned_at < event.at);
    }
}

/// `max_sim_time` is a hard stop for the disaggregated pools, fixed or
/// elastic, as for one engine: a horizon at a quarter of the full run's
/// makespan ends the run by then, and every request it cut off counts as
/// unserved. The ledger balances against the members, with the handoffs
/// the horizon left on the link among the unserved, and the headline's
/// SLA terms count every issued request.
#[test]
fn max_sim_time_stops_both_disagg_topologies() {
    let n = 300;
    let run = |horizon: Option<SimDuration>, elastic: bool| {
        let mut config = base_config(12_000);
        config.max_sim_time = horizon;
        let (requests, arrivals) = (prefill_heavy_requests(n, 3), steady_arrivals(n, 100));
        let config = DisaggConfig::new(config);
        if elastic {
            DisaggCluster::new(config, 1, 1)
                .autoscale(autoscale(1, 4), autoscale(1, 4))
                .run(requests, arrivals)
        } else {
            DisaggCluster::new(config, 2, 2).run(requests, arrivals)
        }
        .expect("disagg run")
    };
    for elastic in [false, true] {
        let full = run(None, elastic);
        assert_eq!(full.unserved, 0);
        let horizon = full.makespan / 4;
        let cut = run(Some(horizon), elastic);
        assert!(
            cut.makespan <= horizon,
            "elastic={elastic}: ran to {:?} past the {horizon:?} horizon",
            cut.makespan
        );
        assert!(cut.unserved > 0, "elastic={elastic}");
        assert_eq!(
            cut.completed() + cut.timed_out + cut.unserved,
            n,
            "elastic={elastic}: every issued request ends exactly once"
        );
        assert!(cut.transfers.in_flight > 0, "elastic={elastic}");
        assert!(cut.ledger_balances(), "elastic={elastic}: {cut:?}");
        // The unserved requests count as SLA misses.
        let headline = cut.headline();
        let share = |k: usize| k as f64 / n as f64;
        assert_eq!(
            headline.sla_attainment,
            share(headline.satisfied),
            "elastic={elastic}"
        );
        let ttft_ok = cut.goodput.ttft_ok_count();
        assert_eq!(
            headline.ttft_attainment,
            share(ttft_ok),
            "elastic={elastic}"
        );
    }
}

/// The decode pool admits handoffs by Eq. 2–4 on true output lengths, so
/// a decode pool with room for only a few full-length requests at a time
/// queues the rest instead of over-admitting: every request completes and
/// none is ever evicted. An admission that predicts lengths (History)
/// over-admits such a pool and preempts.
#[test]
fn decode_memory_pressure_queues_handoffs_without_evicting() {
    let n = 60;
    // Outputs of 256–640 tokens on 32–128-token prompts: a 2_400-token
    // decode pool holds three to five of them at full length.
    let requests = decode_heavy_requests(n, 31);
    let report = DisaggCluster::new(DisaggConfig::new(base_config(2_400)), 1, 2)
        .run(requests, steady_arrivals(n, 20))
        .expect("disagg run");
    assert_eq!(report.completed(), n);
    assert_eq!(report.unserved, 0);
    assert_eq!(report.headline().evictions, 0);
    // The pool was under pressure: handoffs waited seconds for room
    // between their first token and their second.
    let waited = report
        .outcomes
        .iter()
        .filter(|o| o.timing.mtpot() > SimDuration::from_secs(2))
        .count();
    assert!(waited > n / 2, "only {waited} of {n} handoffs queued");
}

/// A deadline cancels a prompt still queued for prefill: no token has
/// streamed yet. A handoff has streamed its first token, so it completes
/// however long it then queues for the decode pool, past its deadline
/// included.
#[test]
fn deadlines_cancel_queued_prompts_but_never_handoffs() {
    let n = 120;
    let deadline = SimDuration::from_secs(10);
    let requests: Vec<RequestSpec> = decode_heavy_requests(n, 32)
        .into_iter()
        .map(|r| r.with_deadline(deadline))
        .collect();
    // A prefill GPU at a twentieth of the reference speed falls behind a
    // burst, and a 2_400-token decode pool queues what it hands off.
    let slow = GpuType::new("slow", 1.0, 0.05);
    let config = DisaggConfig::new(base_config(2_400)).fleet(vec![slow], Vec::new());
    let report = DisaggCluster::new(config, 1, 1)
        .run(requests, steady_arrivals(n, 10))
        .expect("disagg run");
    assert!(report.timed_out > 0, "no queued prompt was cancelled");
    assert_eq!(report.completed() + report.timed_out, n);
    assert_eq!(report.unserved, 0);
    // Completed requests made their deadline to the first token, then
    // waited past it for the decode pool.
    let late = report
        .outcomes
        .iter()
        .filter(|o| o.timing.ttft().expect("completed") < deadline)
        .filter(|o| o.timing.mtpot() > deadline)
        .count();
    assert!(late > 0, "no handoff queued past its deadline");
}

/// A prefill instance holds each prompt's KV until its transfer lands, so
/// a slow link backpressures prompt admission: with room for one prompt
/// at a time, the second prompt's prefill cannot start before the first
/// prompt's KV has landed on the decode pool.
#[test]
fn held_kv_backpressures_prompt_admission() {
    // Two 1_500-token prompts on 2_000-token instances: one fits at a time.
    let requests: Vec<RequestSpec> = (0..2u64)
        .map(|id| RequestSpec::new(id, 1_500, 8, 16))
        .collect();
    // Each prompt's KV takes about 1.6 s on this wire, its pass ~0.1 s.
    let slow = KvTransferSpec::new(0.5, SimDuration::from_micros(200), 1);
    let config = DisaggConfig::new(base_config(2_000)).transfer(slow);
    let mut sink = RecordingSink::new();
    let report = DisaggCluster::new(config, 1, 1)
        .run_traced(requests, vec![SimTime::ZERO; 2], Some(&mut sink))
        .expect("disagg run");
    assert_eq!(report.completed(), 2);
    let prefill_start = |id: u64| {
        sink.events.iter().find_map(|ev| match *ev {
            TraceEvent::PrefillStart { at, request, .. } if request == id => Some(at),
            _ => None,
        })
    };
    let landed = sink.events.iter().find_map(|ev| match *ev {
        TraceEvent::KvTransferEnd { at, request: 0, .. } => Some(at),
        _ => None,
    });
    let (first, second) = (prefill_start(0).unwrap(), prefill_start(1).unwrap());
    let landed = landed.expect("the first prompt's KV lands");
    assert!(
        landed > first + SimDuration::from_secs(1),
        "the link must be the bottleneck"
    );
    assert!(
        second >= landed,
        "second prefill started at {second}, before the first prompt's KV landed at {landed}"
    );
}
