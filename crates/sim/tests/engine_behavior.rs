//! Engine-level behaviour tests: scheduler dynamics, eviction semantics,
//! SLA accounting and run-mode coverage.

use pf_core::SchedulerConfig;
use pf_metrics::{SimDuration, SlaSpec};
use pf_sim::{
    BatchingMode, GpuSpec, GpuType, KvLayout, ModelSpec, PrefillMode, SimConfig, SimError,
    Simulation,
};
use pf_workload::{datasets, ClosedLoopClients, RequestSpec};

fn small_config(scheduler: SchedulerConfig, capacity: u64) -> SimConfig {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(scheduler)
        .capacity_override(capacity)
        .seed(42)
        .build()
}

/// A decode-heavy workload that stresses output-memory estimation: tiny
/// prompts, outputs far below the generation cap but variable.
fn decode_heavy(n: usize, seed: u64) -> Vec<RequestSpec> {
    let input = pf_workload::LengthSampler::uniform(8, 32);
    let output = pf_workload::LengthSampler::uniform(64, 256);
    datasets::from_samplers(n, seed, &input, &output, 512)
}

#[test]
fn oracle_completes_everything_without_evictions() {
    let report = Simulation::offline(
        small_config(SchedulerConfig::Oracle, 2_000),
        decode_heavy(64, 1),
    )
    .run()
    .unwrap();
    assert_eq!(report.completed, 64);
    assert_eq!(report.unfinished, 0);
    assert_eq!(report.evictions, 0, "the oracle must never evict");
    // Every request produced exactly its true output length.
    assert!(report.outcomes.iter().all(|o| o.evictions == 0));
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        Simulation::offline(
            small_config(SchedulerConfig::past_future(), 3_000),
            decode_heavy(48, 2),
        )
        .run()
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.decode_steps, b.decode_steps);
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.goodput.goodput_tok_per_s, b.goodput.goodput_tok_per_s);
}

#[test]
fn aggressive_evicts_under_decode_heavy_load_where_past_future_does_not() {
    // Capacity fits ~45 finished requests; the aggressive scheduler admits
    // by prompt size only (~20 tokens each) and must discover the shortage
    // mid-decode. (At paper scale — tens of concurrent requests — the
    // sampling noise of individual predictions averages out.)
    let requests = decode_heavy(256, 3);
    let aggressive = Simulation::offline(
        small_config(SchedulerConfig::aggressive(0.99), 8_000),
        requests.clone(),
    )
    .run()
    .unwrap();
    let mut warm = small_config(SchedulerConfig::past_future_reserved(0.05), 8_000);
    warm.history_warmup = decode_heavy(500, 99)
        .iter()
        .map(|r| r.true_output_len)
        .collect();
    let past_future = Simulation::offline(warm, requests).run().unwrap();
    assert!(
        aggressive.evictions > 50,
        "aggressive should evict heavily, got {}",
        aggressive.evictions
    );
    assert!(
        past_future.evictions * 10 < aggressive.evictions.max(1),
        "past-future ({}) must evict at least 10x less than aggressive ({})",
        past_future.evictions,
        aggressive.evictions
    );
    assert_eq!(past_future.completed, 256);
    assert_eq!(aggressive.completed, 256);
}

#[test]
fn evictions_inflate_decode_work_and_mtpot() {
    let requests = decode_heavy(48, 4);
    let report = Simulation::offline(
        small_config(SchedulerConfig::aggressive(0.99), 1_200),
        requests,
    )
    .run()
    .unwrap();
    assert!(report.evictions > 0);
    // Evicted requests stall; with a permissive SLA nothing violates, with
    // a 0-tolerance MTPOT the evicted ones do.
    let strict_sla_violations = report
        .outcomes
        .iter()
        .filter(|o| o.evictions > 0 && o.timing.mtpot() > SimDuration::from_millis(500))
        .count();
    assert!(
        strict_sla_violations > 0,
        "evicted requests should show output stalls"
    );
}

#[test]
fn conservative_queues_longer_than_oracle() {
    let requests = decode_heavy(48, 5);
    let conservative = Simulation::offline(
        small_config(SchedulerConfig::conservative(), 2_000),
        requests.clone(),
    )
    .run()
    .unwrap();
    let oracle = Simulation::offline(small_config(SchedulerConfig::Oracle, 2_000), requests)
        .run()
        .unwrap();
    assert_eq!(conservative.evictions, 0, "no overcommit → no evictions");
    assert!(
        conservative.decode_steps > oracle.decode_steps,
        "worst-case budgeting must shrink batches: {} vs {}",
        conservative.decode_steps,
        oracle.decode_steps
    );
    assert!(conservative.avg_consumed_frac < oracle.avg_consumed_frac);
    assert!(conservative.makespan > oracle.makespan);
}

#[test]
fn past_future_outperforms_conservative_on_memory_utilization() {
    let requests = decode_heavy(64, 6);
    let warmup: Vec<u32> = decode_heavy(500, 77)
        .iter()
        .map(|r| r.true_output_len)
        .collect();
    let mut pf_config = small_config(SchedulerConfig::past_future_reserved(0.05), 2_000);
    pf_config.history_warmup = warmup;
    let pf = Simulation::offline(pf_config, requests.clone())
        .run()
        .unwrap();
    let conservative = Simulation::offline(
        small_config(SchedulerConfig::conservative(), 2_000),
        requests,
    )
    .run()
    .unwrap();
    assert!(
        pf.avg_consumed_frac > conservative.avg_consumed_frac + 0.1,
        "past-future {:.2} should clearly beat conservative {:.2}",
        pf.avg_consumed_frac,
        conservative.avg_consumed_frac
    );
    assert!(pf.decode_steps < conservative.decode_steps);
}

#[test]
fn closed_loop_limits_concurrency() {
    let requests = decode_heavy(30, 7);
    let report = Simulation::closed_loop(
        small_config(SchedulerConfig::Oracle, 1_000_000),
        requests,
        ClosedLoopClients::new(4),
    )
    .run()
    .unwrap();
    assert_eq!(report.completed, 30);
    // With 4 clients and effectively infinite memory, peak usage stays far
    // below what 30 concurrent requests would need.
    assert!(report.peak_consumed_frac < 0.01);
}

#[test]
fn max_sim_time_truncates() {
    let requests = decode_heavy(200, 8);
    let report = Simulation::offline(
        small_config(SchedulerConfig::Oracle, 2_000).clone(),
        requests.clone(),
    )
    .run()
    .unwrap();
    let full_time = report.makespan;
    let mut truncated_config = small_config(SchedulerConfig::Oracle, 2_000);
    truncated_config.max_sim_time = Some(full_time / 4);
    let truncated = Simulation::offline(truncated_config, requests)
        .run()
        .unwrap();
    assert!(truncated.completed < 200);
    assert!(truncated.unfinished > 0);
    assert!(truncated.makespan <= full_time / 3);
}

/// The single engine's fleet report holds one colocated member on the
/// reference GPU, live from t = 0 to the makespan, whose engine report is
/// the one `run` returns; its headline prices that lifetime, and its
/// ledger balances.
#[test]
fn single_engine_reports_a_fleet_of_one() {
    let n = 120;
    let config = small_config(SchedulerConfig::past_future(), 4_000);
    let requests = decode_heavy(n, 9);
    let engine = Simulation::offline(config.clone(), requests.clone())
        .run()
        .unwrap();
    let fleet = Simulation::offline(config, requests)
        .fleet_report(None)
        .unwrap();
    assert_eq!(fleet.instances.len(), 1);
    let member = &fleet.instances[0];
    assert_eq!(member.pool, pf_obs::Pool::Colocated);
    assert_eq!(member.gpu, GpuType::reference());
    assert_eq!(member.stopped_at - member.spawned_at, engine.makespan);
    assert_eq!((member.routed, member.served), (n, n));
    assert_eq!(member.report.outcomes.len(), engine.outcomes.len());
    assert_eq!(fleet.makespan, engine.makespan);
    assert_eq!((fleet.issued, fleet.unserved, fleet.unrouted), (n, 0, 0));
    assert!(fleet.ledger_balances());
    let headline = fleet.headline();
    assert_eq!(headline.completed, engine.completed);
    assert_eq!(headline.satisfied, engine.goodput.satisfied_requests);
    assert_eq!(headline.evictions, engine.evictions);
    assert_eq!(headline.goodput_tok_per_s, engine.goodput_tok_per_s());
    assert_eq!(headline.gpu_seconds, engine.makespan.as_secs_f64());
    assert_eq!(headline.cost_weighted_gpu_seconds, headline.gpu_seconds);
}

#[test]
fn oversized_request_is_rejected_upfront() {
    let requests = vec![RequestSpec::new(0u64, 5_000, 100, 100)];
    let err = Simulation::offline(small_config(SchedulerConfig::Oracle, 1_000), requests)
        .run()
        .unwrap_err();
    assert!(matches!(err, SimError::RequestTooLarge { id: 0, .. }));
}

#[test]
fn malformed_workloads_are_typed_errors() {
    use pf_metrics::SimTime;
    let config = || small_config(SchedulerConfig::past_future(), 1_000);
    let two = || decode_heavy(2, 3);
    let invalid = |reason| SimError::InvalidWorkload { reason };
    // The timed stream is checked when the simulation is built and the
    // error comes back from `run`/`run_traced`, before the first event.
    let unsorted = vec![SimTime::from_secs(1), SimTime::ZERO];
    let err = Simulation::with_arrivals(config(), two(), unsorted)
        .run()
        .unwrap_err();
    assert_eq!(err, invalid("arrival times must be sorted"));
    let err = Simulation::with_arrivals(config(), two(), vec![SimTime::ZERO])
        .run_traced(None)
        .unwrap_err();
    assert_eq!(err, invalid("one arrival time per request"));
    // Request id u64::MAX is the prefix cache's pool charge.
    let mut config = config();
    config.prefix_cache = Some(pf_sim::PrefixCacheConfig::with_budget_frac(0.2));
    let requests = vec![RequestSpec::new(u64::MAX, 16, 8, 16)];
    let err = Simulation::offline(config, requests).run().unwrap_err();
    assert_eq!(
        err,
        invalid("request id u64::MAX is reserved for the prefix cache")
    );
}

#[test]
fn conservative_stalls_on_uncappable_request() {
    // True output fits, but the worst case (input + max_new) exceeds
    // capacity, so a no-overcommit conservative scheduler can never admit.
    let requests = vec![RequestSpec::new(0u64, 100, 50, 2_000)];
    let err = Simulation::offline(
        small_config(SchedulerConfig::conservative(), 1_000),
        requests,
    )
    .run()
    .unwrap_err();
    assert!(matches!(err, SimError::Stalled { queued: 1, .. }));
}

#[test]
fn paged_layout_completes_with_fragmentation_accounted() {
    let mut config = small_config(SchedulerConfig::past_future(), 3_000);
    config.kv_layout = KvLayout::Paged { block_size: 16 };
    let report = Simulation::offline(config, decode_heavy(32, 9))
        .run()
        .unwrap();
    assert_eq!(report.completed, 32);
}

#[test]
fn contiguous_layout_behaves_like_reservation() {
    let mut config = small_config(SchedulerConfig::conservative(), 5_000);
    config.kv_layout = KvLayout::Contiguous;
    let report = Simulation::offline(config, decode_heavy(16, 10))
        .run()
        .unwrap();
    assert_eq!(report.completed, 16);
    assert_eq!(report.evictions, 0);
}

/// Whether some prompt's prefill spanned several steps: a decode step
/// on its instance ended after its `PrefillStart` and before its
/// `PrefillEnd`.
fn some_prefill_spans_steps(events: &[pf_obs::TraceEvent]) -> bool {
    use pf_obs::TraceEvent;
    let mut starts = std::collections::BTreeMap::new();
    let mut decode_ends = Vec::new();
    events.iter().any(|&event| match event {
        TraceEvent::PrefillStart {
            at,
            instance,
            request,
        } => {
            starts.insert((instance, request), at);
            false
        }
        TraceEvent::DecodeStep { at, instance, .. } => {
            decode_ends.push((instance, at));
            false
        }
        TraceEvent::PrefillEnd {
            at,
            instance,
            request,
            ..
        } => starts.get(&(instance, request)).is_some_and(|&start| {
            decode_ends
                .iter()
                .any(|&(i, end)| i == instance && start < end && end < at)
        }),
        _ => false,
    })
}

#[test]
fn chunked_prefill_completes() {
    use pf_obs::RecordingSink;
    let mut config = small_config(SchedulerConfig::conservative_overcommit(1.2), 24_000);
    config.prefill = PrefillMode::Chunked;
    // Prompts longer than one chunk, so each prefill takes several steps.
    let input = pf_workload::LengthSampler::uniform(520, 1_100);
    let output = pf_workload::LengthSampler::uniform(64, 256);
    let requests = datasets::from_samplers(24, 11, &input, &output, 512);
    let mut sink = RecordingSink::new();
    let report = Simulation::offline(config, requests)
        .run_traced(Some(&mut sink))
        .unwrap();
    assert_eq!(report.completed, 24);
    assert!(report.goodput.throughput_tok_per_s > 0.0);
    assert!(
        some_prefill_spans_steps(&sink.events),
        "no prefill was split across steps"
    );
}

#[test]
fn static_batching_is_slower_than_continuous() {
    let requests = decode_heavy(64, 12);
    let mut static_config = small_config(SchedulerConfig::conservative(), 20_000);
    static_config.batching = BatchingMode::Static;
    let static_report = Simulation::offline(static_config, requests.clone())
        .run()
        .unwrap();
    let continuous = Simulation::offline(
        small_config(SchedulerConfig::past_future(), 20_000),
        requests,
    )
    .run()
    .unwrap();
    assert_eq!(static_report.completed, 64);
    assert!(
        continuous.throughput() > static_report.throughput(),
        "continuous {:.1} tok/s must beat static {:.1} tok/s",
        continuous.throughput(),
        static_report.throughput()
    );
}

#[test]
fn outcomes_match_ground_truth_lengths() {
    let requests = decode_heavy(40, 13);
    let by_id: std::collections::BTreeMap<u64, u32> = requests
        .iter()
        .map(|r| (r.id.raw(), r.true_output_len))
        .collect();
    let report = Simulation::offline(
        small_config(SchedulerConfig::aggressive(0.95), 1_500),
        requests,
    )
    .run()
    .unwrap();
    for outcome in &report.outcomes {
        assert_eq!(
            outcome.output_len, by_id[&outcome.id],
            "request {} generated a wrong number of tokens",
            outcome.id
        );
    }
}

#[test]
fn future_required_memory_exceeds_capacity_exactly_when_evictions_loom() {
    let requests = decode_heavy(64, 14);
    let aggressive = Simulation::offline(
        small_config(SchedulerConfig::aggressive(0.99), 1_500),
        requests.clone(),
    )
    .run()
    .unwrap();
    let oracle = Simulation::offline(small_config(SchedulerConfig::Oracle, 1_500), requests)
        .run()
        .unwrap();
    // The aggressive scheduler overcommits the future; the oracle never
    // exceeds 100%.
    let aggressive_peak_future = aggressive.future_required_series.max_value().unwrap_or(0.0);
    let oracle_peak_future = oracle.future_required_series.max_value().unwrap_or(0.0);
    assert!(
        aggressive_peak_future > 1.0,
        "aggressive future requirement should exceed capacity, got {aggressive_peak_future}"
    );
    assert!(
        oracle_peak_future <= 1.0 + 1e-9,
        "oracle future requirement must stay within capacity, got {oracle_peak_future}"
    );
}

#[test]
fn sla_spec_flows_into_goodput() {
    let requests = decode_heavy(32, 15);
    let mut impossible = small_config(SchedulerConfig::Oracle, 2_000);
    impossible.sla = SlaSpec::new(SimDuration::from_micros(1), SimDuration::from_micros(1));
    let report = Simulation::offline(impossible, requests).run().unwrap();
    assert_eq!(report.goodput.satisfied_requests, 0);
    assert_eq!(report.goodput.goodput_tok_per_s, 0.0);
    assert!(report.goodput.throughput_tok_per_s > 0.0);
}

#[test]
fn swap_preemption_completes_and_is_cheaper_than_recompute_for_long_victims() {
    use pf_sim::EvictionMode;
    // Long prompts make the recompute penalty large relative to a PCIe
    // transfer, so swap preemption should finish sooner under the same
    // aggressive eviction storm.
    let input = pf_workload::LengthSampler::uniform(512, 1024);
    let output = pf_workload::LengthSampler::uniform(256, 512);
    let requests = datasets::from_samplers(48, 21, &input, &output, 1024);
    let run = |eviction: EvictionMode| {
        let mut config = small_config(SchedulerConfig::aggressive(0.99), 20_000);
        config.eviction = eviction;
        Simulation::offline(config, requests.clone()).run().unwrap()
    };
    let recompute = run(EvictionMode::Recompute);
    let swap = run(EvictionMode::Swap);
    assert_eq!(recompute.completed, 48);
    assert_eq!(swap.completed, 48);
    assert!(recompute.evictions > 0, "scenario must actually evict");
    assert!(swap.evictions > 0);
    assert!(
        swap.makespan < recompute.makespan,
        "swap {} should beat recompute {} for long-context victims",
        swap.makespan,
        recompute.makespan
    );
}

#[test]
fn swap_mode_with_zero_evictions_matches_recompute() {
    use pf_sim::EvictionMode;
    let requests = decode_heavy(24, 22);
    let run = |eviction: EvictionMode| {
        let mut config = small_config(SchedulerConfig::Oracle, 50_000);
        config.eviction = eviction;
        Simulation::offline(config, requests.clone()).run().unwrap()
    };
    let recompute = run(EvictionMode::Recompute);
    let swap = run(EvictionMode::Swap);
    assert_eq!(recompute.evictions, 0);
    assert_eq!(swap.evictions, 0);
    assert_eq!(recompute.makespan, swap.makespan);
    assert_eq!(recompute.decode_steps, swap.decode_steps);
}

#[test]
fn queued_requests_past_their_deadline_time_out() {
    // Everything arrives at once against a pool that admits only a few
    // requests at a time: the back of the queue waits far past 5 s.
    use pf_metrics::SimTime;
    let n = 80;
    let requests: Vec<RequestSpec> = decode_heavy(n, 7)
        .into_iter()
        .map(|r| r.with_deadline(SimDuration::from_secs(5)))
        .collect();
    let arrivals = vec![SimTime::ZERO; n];
    let report = Simulation::with_arrivals(
        small_config(SchedulerConfig::past_future(), 1_200),
        requests,
        arrivals,
    )
    .run()
    .unwrap();
    assert!(
        report.timed_out > 0,
        "a 5 s deadline must cancel stragglers"
    );
    assert_eq!(
        report.completed + report.timed_out,
        n,
        "every request either completes or times out"
    );
    assert_eq!(report.unfinished, 0);
    // Cancelled requests left no KV behind: the survivors' outcomes are
    // all full-length completions.
    assert!(report.outcomes.iter().all(|o| o.output_len >= 1));
}

#[test]
fn deployment_wide_deadline_applies_to_deadline_free_requests() {
    use pf_metrics::SimTime;
    let n = 80;
    let requests = decode_heavy(n, 7); // no per-request deadlines
    let arrivals = vec![SimTime::ZERO; n];
    let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(1_200)
        .request_deadline(SimDuration::from_secs(5))
        .seed(42)
        .build();
    let with_default = Simulation::with_arrivals(config, requests.clone(), arrivals.clone())
        .run()
        .unwrap();
    assert!(with_default.timed_out > 0);
    assert_eq!(with_default.completed + with_default.timed_out, n);
    // Without any deadline the identical run completes everything.
    let without = Simulation::with_arrivals(
        small_config(SchedulerConfig::past_future(), 1_200),
        requests,
        arrivals,
    )
    .run()
    .unwrap();
    assert_eq!(without.completed, n);
    assert_eq!(without.timed_out, 0);
}

#[test]
fn preempted_requests_past_deadline_time_out() {
    // Regression (PR 5): a preemption re-queues at the *front* with
    // tokens already generated, which used to slip past the deadline
    // purge — an expired request was silently re-served instead of
    // counted. Force preempt-past-deadline: everything is admitted at
    // t≈0 (first tokens land well inside the 2 s deadline), the
    // aggressive scheduler overcommits, and decode-time evictions strand
    // victims in the queue past their deadline.
    use pf_metrics::SimTime;
    let n = 16;
    let requests: Vec<RequestSpec> = decode_heavy(n, 31)
        .into_iter()
        .map(|r| r.with_deadline(SimDuration::from_secs(2)))
        .collect();
    let report = Simulation::with_arrivals(
        small_config(SchedulerConfig::aggressive(0.99), 1_000),
        requests,
        vec![SimTime::ZERO; n],
    )
    .run()
    .unwrap();
    assert!(report.evictions > 0, "scenario must actually preempt");
    assert!(
        report.timed_out > 0,
        "a preempted request past its deadline must count as timed out, not be re-served"
    );
    assert_eq!(report.completed + report.timed_out, n);
    // Cancelled and completed requests alike released their KV.
    assert_eq!(report.kv_used_tokens_end, 0);
}

#[test]
fn least_slack_first_reduces_timeouts_on_mixed_deadlines() {
    // A burst of tight-deadline chat interleaved with lax summarization:
    // FIFO serves documents with a minute of slack ahead of chat 50 ms
    // from missing; least-slack-first reorders and both classes survive.
    use pf_metrics::SimTime;
    use pf_sim::QueueOrder;
    let n = 120;
    let requests = datasets::mixed_deadline(n, 11);
    let run = |order: QueueOrder| {
        let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .scheduler(SchedulerConfig::past_future())
            .capacity_override(8_000)
            .queue_order(order)
            .seed(3)
            .build();
        Simulation::with_arrivals(config, requests.clone(), vec![SimTime::ZERO; n])
            .run()
            .unwrap()
    };
    let fifo = run(QueueOrder::Fifo);
    let lsf = run(QueueOrder::least_slack());
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
    assert_eq!(lsf.completed + lsf.timed_out, n);
    // Timed-out requests weigh the denominator, so fewer timeouts at the
    // same service quality means higher attainment.
    assert!(
        lsf.goodput.ttft_attainment() >= fifo.goodput.ttft_attainment(),
        "LSF TTFT attainment {:.3} vs FIFO {:.3}",
        lsf.goodput.ttft_attainment(),
        fifo.goodput.ttft_attainment()
    );
}

/// Shortest-prompt-first on one engine under memory pressure: a burst
/// of short prompts overtakes the long prompt that arrived ahead of it,
/// and the aging cap bounds how long a long prompt is overtaken by the
/// short ones that keep arriving. An aged request heads the queue, so it
/// waits at most for the batch ahead of it to make room: no request waits
/// past the aging cap plus the longest any request stays in the batch.
#[test]
fn shortest_prompt_first_admits_short_prompts_first_within_the_aging_cap() {
    use pf_metrics::SimTime;
    use pf_obs::{RecordingSink, TraceEvent};
    use pf_sim::QueueOrder;
    let aging_cap = SimDuration::from_secs(2);
    // 2_000-token prompts at 0 s (ahead of everything), 2.2, 5.2 and
    // 8.2 s; 40 short prompts at 0 s, then 50 per second until 12 s. The
    // short prompts keep a 3_000-token pool too full for a long one, yet
    // are served well within the cap.
    let mut requests = Vec::new();
    let mut arrivals = Vec::new();
    for i in 0..640u64 {
        let at = SimTime::from_millis(20 * i.saturating_sub(40));
        if i % 150 == 0 && i < 600 {
            requests.push(RequestSpec::new(10_000 + i, 2_000, 8, 16));
            arrivals.push(at);
        }
        let (input, output) = (100 + (i * 37 % 100) as u32, 8 + (i % 9) as u32);
        requests.push(RequestSpec::new(i, input, output, 16));
        arrivals.push(at);
    }
    let long = |id: u64| id >= 10_000;
    let run = |order: QueueOrder| {
        let config = SimConfig {
            queue_order: order,
            ..small_config(SchedulerConfig::Oracle, 3_000)
        };
        let mut sink = RecordingSink::new();
        let report = Simulation::with_arrivals(config, requests.clone(), arrivals.clone())
            .run_traced(Some(&mut sink))
            .expect("engine run");
        assert_eq!(report.completed, requests.len(), "{order:?}");
        let admitted: Vec<(u64, SimTime)> = sink
            .events
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::Admitted { at, request, .. } => Some((request, at)),
                _ => None,
            })
            .collect();
        let finished = |id: u64| {
            sink.events.iter().find_map(|ev| match *ev {
                TraceEvent::Finished { at, request, .. } if request == id => Some(at),
                _ => None,
            })
        };
        let longest_stay = admitted
            .iter()
            .map(|&(id, at)| finished(id).expect("finished").saturating_since(at))
            .max()
            .expect("admissions");
        (admitted, longest_stay)
    };
    // Under FIFO the long prompt at t = 0 is admitted first.
    let (fifo, _) = run(QueueOrder::Fifo);
    assert!(long(fifo[0].0), "FIFO admits the first arrival first");
    let (sjf, longest_stay) = run(QueueOrder::ShortestPromptFirst { aging_cap });
    assert!(!long(sjf[0].0), "a short prompt overtakes the long one");
    let first_long = sjf
        .iter()
        .position(|&(id, _)| long(id))
        .expect("longs served");
    assert!(
        first_long > 20,
        "only {first_long} short prompts overtook the first long one"
    );
    let arrival = |id: u64| {
        let k = requests
            .iter()
            .position(|r| r.id.raw() == id)
            .expect("known");
        arrivals[k]
    };
    let bound = aging_cap + longest_stay;
    for &(id, at) in &sjf {
        let waited = at.saturating_since(arrival(id));
        assert!(
            waited <= bound,
            "request {id} waited {waited}, past the aging cap plus {longest_stay}"
        );
    }
    // The cap was what bounded the long prompts: each was overtaken for
    // most of it.
    let long_waits: Vec<SimDuration> = sjf
        .iter()
        .filter(|&&(id, _)| long(id))
        .map(|&(id, at)| at.saturating_since(arrival(id)))
        .collect();
    assert_eq!(long_waits.len(), 4);
    assert!(
        long_waits.iter().all(|&w| w >= aging_cap),
        "long prompts waited {long_waits:?}, not held back until aged"
    );
}

#[test]
fn deadline_less_requests_do_not_starve_under_least_slack() {
    // Deadline-less work ranks last under least-slack-first; the aging
    // cap must still get it served through a steady stream of
    // tight-deadline traffic.
    use pf_metrics::SimTime;
    use pf_sim::QueueOrder;
    let tight: Vec<RequestSpec> = datasets::mixed_deadline(80, 13);
    let free = decode_heavy(10, 17);
    let free_ids: Vec<u64> = (1_000..1_010).collect();
    let mut requests: Vec<RequestSpec> = Vec::new();
    let mut arrivals: Vec<SimTime> = Vec::new();
    // Deadline-less requests arrive first, tight traffic floods in after.
    for (mut r, id) in free.into_iter().zip(&free_ids) {
        r.id = (*id).into();
        requests.push(r);
        arrivals.push(SimTime::ZERO);
    }
    for (i, mut r) in tight.into_iter().enumerate() {
        r.id = (i as u64).into();
        requests.push(r);
        arrivals.push(SimTime::from_millis(50 * i as u64));
    }
    let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(6_000)
        .queue_order(QueueOrder::LeastSlackFirst {
            aging_cap: SimDuration::from_secs(8),
        })
        .seed(5)
        .build();
    let report = Simulation::with_arrivals(config, requests, arrivals)
        .run()
        .unwrap();
    for id in free_ids {
        assert!(
            report.outcomes.iter().any(|o| o.id == id),
            "deadline-less request {id} starved"
        );
    }
}

#[test]
fn lone_expired_deadline_leaves_the_rest_untouched() {
    // One request with a millisecond deadline in an otherwise
    // deadline-less run: it times out, everything else completes — and
    // the purge (gated on *pending* deadlines) has nothing to scan once
    // it is gone.
    use pf_metrics::SimTime;
    let n = 40;
    let mut requests = decode_heavy(n, 19);
    let doomed =
        RequestSpec::new(n as u64, 1_200, 8, 512).with_deadline(SimDuration::from_millis(1));
    requests.push(doomed);
    let report = Simulation::with_arrivals(
        small_config(SchedulerConfig::past_future(), 1_500),
        requests,
        vec![SimTime::ZERO; n + 1],
    )
    .run()
    .unwrap();
    assert_eq!(report.timed_out, 1, "only the doomed request expires");
    assert_eq!(report.completed, n);
    assert_eq!(report.unfinished, 0);
}

#[test]
fn generous_deadlines_change_nothing() {
    let n = 48;
    let baseline = Simulation::offline(
        small_config(SchedulerConfig::past_future(), 2_000),
        decode_heavy(n, 9),
    )
    .run()
    .unwrap();
    let relaxed: Vec<RequestSpec> = decode_heavy(n, 9)
        .into_iter()
        .map(|r| r.with_deadline(SimDuration::from_secs(100_000)))
        .collect();
    let with_deadlines =
        Simulation::offline(small_config(SchedulerConfig::past_future(), 2_000), relaxed)
            .run()
            .unwrap();
    assert_eq!(with_deadlines.completed, n);
    assert_eq!(with_deadlines.timed_out, 0);
    assert_eq!(with_deadlines.makespan, baseline.makespan);
    assert_eq!(with_deadlines.decode_steps, baseline.decode_steps);
}

#[test]
fn closed_loop_clients_survive_timeouts() {
    // A timed-out request must free its closed-loop client (the client
    // gave up and submits its next request), keeping the concurrency at
    // `n_clients` as the closed loop intends. Without that, every
    // timeout silently retires a client, the offered load decays, and
    // the tail of the run is measured against a much lighter system
    // than configured (here: timeouts collapse from 45 to 19).
    let n = 60;
    let requests: Vec<RequestSpec> = decode_heavy(n, 23)
        .into_iter()
        .map(|r| r.with_deadline(SimDuration::from_millis(1_500)))
        .collect();
    let report = Simulation::closed_loop(
        small_config(SchedulerConfig::past_future(), 700),
        requests,
        ClosedLoopClients::new(24),
    )
    .run()
    .unwrap();
    assert_eq!(
        report.completed + report.timed_out,
        n,
        "every request either completes or times out — none stranded behind a dead client"
    );
    assert_eq!(report.unfinished, 0);
    assert!(
        report.timed_out > 30,
        "sustained 24-client pressure must keep shedding load (got {} timeouts; \
         a decaying client pool would shed far less)",
        report.timed_out
    );

    // A lone client under least-slack-first: the early drop can empty
    // the queue while nothing runs, and the freed client resubmits at
    // that very instant. The resubmission must wake the engine, not be
    // stranded behind it.
    for seed in 1..=3 {
        let config = SimConfig {
            queue_order: pf_sim::QueueOrder::least_slack(),
            request_deadline: Some(SimDuration::from_millis(100)),
            ..small_config(SchedulerConfig::past_future(), 20_000)
        };
        let report = Simulation::closed_loop(
            config,
            datasets::sharegpt(20, seed),
            ClosedLoopClients::new(1),
        )
        .run()
        .unwrap();
        assert_eq!(report.completed + report.timed_out, 20, "seed {seed}");
        assert_eq!(report.unfinished, 0, "seed {seed}");
    }
}

/// A closed-loop client submits its next request the instant its last
/// one ends: with one client, every request arrives exactly at its
/// predecessor's last token, on a single engine and across a fleet.
#[test]
fn closed_loop_client_resubmits_at_the_last_token() {
    use pf_metrics::SimTime;
    use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
    use pf_sim::{RequestOutcome, Workload};

    fn assert_back_to_back(mut outcomes: Vec<RequestOutcome>, n: usize) {
        assert_eq!(outcomes.len(), n);
        outcomes.sort_by_key(|o| o.id);
        assert_eq!(outcomes[0].timing.arrival(), SimTime::ZERO);
        for pair in outcomes.windows(2) {
            assert_eq!(
                pair[1].timing.arrival(),
                pair[0].timing.last_token_at(),
                "request {} arrives when request {} ends",
                pair[1].id,
                pair[0].id
            );
        }
    }

    let n = 24;
    let requests = datasets::sharegpt(n, 5);
    let config = small_config(SchedulerConfig::past_future(), 20_000);
    let one_client = || ClosedLoopClients::new(1);
    let single = Simulation::closed_loop(config.clone(), requests.clone(), one_client())
        .run()
        .unwrap();
    assert_back_to_back(single.outcomes, n);

    let fleet = ClusterSimulation::new(config, 2, RouterPolicy::RoundRobin)
        .run_workload(Workload::ClosedLoop(requests, one_client()), None)
        .unwrap();
    assert!(
        fleet.instances.iter().all(|m| m.report.completed > 0),
        "both members serve the client"
    );
    let outcomes = fleet.instances.into_iter().flat_map(|m| m.report.outcomes);
    assert_back_to_back(outcomes.collect(), n);
}

/// Static batching is an engine tick rule, so every colocated topology
/// serves it: a one-member cluster and an elastic fleet pinned at one
/// replica run the single engine's padded batches, step for step.
#[test]
fn static_batching_runs_the_same_batches_on_every_colocated_topology() {
    use pf_autoscale::AutoscaleConfig;
    use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
    use pf_sim::elastic::ElasticCluster;
    use pf_workload::rng::seeded;
    use pf_workload::PoissonArrivals;

    let requests = datasets::sharegpt(120, 1);
    let arrivals = PoissonArrivals::new(0.5).assign(&mut seeded(1), requests.len());
    let config = SimConfig {
        batching: BatchingMode::Static,
        ..small_config(SchedulerConfig::past_future(), 20_000)
    };
    let config = SimConfig { seed: 1, ..config };
    let single = Simulation::with_arrivals(config.clone(), requests.clone(), arrivals.clone())
        .run()
        .unwrap();
    let cluster = ClusterSimulation::new(config.clone(), 1, RouterPolicy::LeastEstimatedLoad)
        .run(requests.clone(), arrivals.clone())
        .unwrap();
    let elastic = ElasticCluster::new(config, AutoscaleConfig::bounded(1, 1), 1)
        .run(requests, arrivals)
        .unwrap();
    assert_eq!(single.completed, 120);
    let steps = |r: &pf_sim::SimReport| (r.decode_steps, r.prefill_steps, r.makespan);
    let outcomes = |r: &pf_sim::SimReport| {
        (r.outcomes.iter())
            .map(|o| {
                (
                    o.id,
                    o.output_len,
                    o.timing.ttft(),
                    o.timing.last_token_at(),
                )
            })
            .collect::<Vec<_>>()
    };
    for (topology, report) in [
        ("cluster", &cluster.instances[0]),
        ("elastic", &elastic.instances[0].report),
    ] {
        assert_eq!(steps(report), steps(&single), "{topology}");
        assert_eq!(outcomes(report), outcomes(&single), "{topology}");
    }
}

#[test]
fn out_of_range_scheduler_configs_are_rejected_before_the_first_event() {
    use pf_autoscale::AutoscaleConfig;
    use pf_metrics::SimTime;
    use pf_obs::RecordingSink;
    use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
    use pf_sim::elastic::ElasticCluster;

    let past_future = |window, reserved_frac, sample_repeats| SchedulerConfig::PastFuture {
        window,
        reserved_frac,
        sample_repeats,
    };
    let requests = decode_heavy(4, 5);
    let arrivals = vec![SimTime::ZERO; requests.len()];
    for (parameter, scheduler) in [
        ("window", past_future(0, 0.05, 4)),
        ("reserved_frac", past_future(1000, 1.0, 4)),
        ("reserved_frac", past_future(1000, -0.01, 4)),
        ("reserved_frac", past_future(1000, f64::NAN, 4)),
        ("sample_repeats", past_future(1000, 0.05, 0)),
        ("watermark", SchedulerConfig::aggressive(0.0)),
        ("watermark", SchedulerConfig::aggressive(1.01)),
        ("watermark", SchedulerConfig::aggressive(f64::NAN)),
        ("overcommit", SchedulerConfig::conservative_overcommit(0.99)),
        (
            "overcommit",
            SchedulerConfig::conservative_overcommit(f64::NAN),
        ),
    ] {
        let expected = SimError::InvalidScheduler { parameter };
        let config = || small_config(scheduler.clone(), 2_000);
        let mut sink = RecordingSink::new();
        let single = Simulation::offline(config(), requests.clone()).run_traced(Some(&mut sink));
        assert_eq!(single.unwrap_err(), expected, "{scheduler:?}");
        assert!(sink.events.is_empty(), "rejected before the first event");
        // Every member of a mixed fleet is checked, not just the first.
        let good = small_config(SchedulerConfig::past_future(), 2_000);
        let mut sink = RecordingSink::new();
        let cluster =
            ClusterSimulation::heterogeneous(vec![good, config()], RouterPolicy::RoundRobin)
                .run_traced(requests.clone(), arrivals.clone(), Some(&mut sink));
        assert_eq!(cluster.unwrap_err(), expected, "{scheduler:?}");
        assert!(sink.events.is_empty(), "rejected before the first event");
        let mut sink = RecordingSink::new();
        let elastic = ElasticCluster::new(config(), AutoscaleConfig::bounded(1, 2), 1).run_traced(
            requests.clone(),
            arrivals.clone(),
            Some(&mut sink),
        );
        assert_eq!(elastic.unwrap_err(), expected, "{scheduler:?}");
        assert!(sink.events.is_empty(), "rejected before the first event");
    }
}

#[test]
fn out_of_range_prefix_cache_configs_are_rejected_before_the_first_event() {
    use pf_autoscale::AutoscaleConfig;
    use pf_metrics::SimTime;
    use pf_obs::RecordingSink;
    use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
    use pf_sim::disagg::{DisaggCluster, DisaggConfig};
    use pf_sim::elastic::ElasticCluster;
    use pf_sim::PrefixCacheConfig;

    // The fields are public, so a struct literal skips the builder asserts.
    let cache = |budget_frac, block_tokens| PrefixCacheConfig {
        budget_frac,
        block_tokens,
    };
    let requests = decode_heavy(4, 5);
    let arrivals = vec![SimTime::ZERO; requests.len()];
    for (parameter, prefix_cache) in [
        ("budget_frac", cache(0.0, None)),
        ("budget_frac", cache(-0.1, None)),
        ("budget_frac", cache(1.5, None)),
        ("budget_frac", cache(f64::NAN, None)),
        ("block_tokens", cache(0.2, Some(0))),
    ] {
        let expected = SimError::InvalidPrefixCache { parameter };
        let config = || SimConfig {
            prefix_cache: Some(prefix_cache),
            ..small_config(SchedulerConfig::past_future(), 2_000)
        };
        let mut sink = RecordingSink::new();
        let single = Simulation::offline(config(), requests.clone()).run_traced(Some(&mut sink));
        assert_eq!(single.unwrap_err(), expected, "{prefix_cache:?}");
        assert!(sink.events.is_empty(), "rejected before the first event");
        let mut sink = RecordingSink::new();
        let cluster = ClusterSimulation::new(config(), 2, RouterPolicy::RoundRobin).run_traced(
            requests.clone(),
            arrivals.clone(),
            Some(&mut sink),
        );
        assert_eq!(cluster.unwrap_err(), expected, "{prefix_cache:?}");
        assert!(sink.events.is_empty(), "rejected before the first event");
        let mut sink = RecordingSink::new();
        let elastic = ElasticCluster::new(config(), AutoscaleConfig::bounded(1, 2), 1).run_traced(
            requests.clone(),
            arrivals.clone(),
            Some(&mut sink),
        );
        assert_eq!(elastic.unwrap_err(), expected, "{prefix_cache:?}");
        assert!(sink.events.is_empty(), "rejected before the first event");
        let mut sink = RecordingSink::new();
        let disagg = DisaggCluster::new(DisaggConfig::new(config()), 1, 1).run_traced(
            requests.clone(),
            arrivals.clone(),
            Some(&mut sink),
        );
        assert_eq!(disagg.unwrap_err(), expected, "{prefix_cache:?}");
        assert!(sink.events.is_empty(), "rejected before the first event");
    }
}

#[test]
fn out_of_range_hardware_is_rejected_before_the_first_event() {
    use pf_autoscale::AutoscaleConfig;
    use pf_metrics::SimTime;
    use pf_obs::RecordingSink;
    use pf_sim::disagg::{DisaggCluster, DisaggConfig, KvTransferSpec};
    use pf_sim::elastic::ElasticCluster;
    use pf_sim::GpuType;

    // The fields are public, so a struct literal skips the constructors'
    // asserts.
    let gpu = |cost_weight, perf_scale| GpuType {
        name: "bad",
        cost_weight,
        perf_scale,
    };
    let link = |link_gbps| KvTransferSpec {
        link_gbps,
        ..KvTransferSpec::nvlink()
    };
    let requests = decode_heavy(4, 5);
    let arrivals = vec![SimTime::ZERO; requests.len()];
    let config = || small_config(SchedulerConfig::past_future(), 2_000);
    let autoscale = || AutoscaleConfig::bounded(1, 2);
    let mut cases = Vec::new();
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        cases.push(("perf_scale", gpu(1.0, bad), link(200.0)));
        cases.push(("cost_weight", gpu(bad, 1.0), link(200.0)));
        cases.push(("link_gbps", GpuType::reference(), link(bad)));
    }
    for (parameter, bad_gpu, transfer) in cases {
        let expected = SimError::InvalidHardware { parameter };
        let case = format!("{parameter}: {bad_gpu:?} {transfer:?}");
        if parameter != "link_gbps" {
            // Every slot is checked, not just the first.
            let mut sink = RecordingSink::new();
            let elastic = ElasticCluster::new(config(), autoscale(), 1)
                .fleet(vec![GpuType::reference(), bad_gpu])
                .run_traced(requests.clone(), arrivals.clone(), Some(&mut sink));
            assert_eq!(elastic.unwrap_err(), expected, "elastic {case}");
            assert!(sink.events.is_empty(), "rejected before the first event");
        }
        // The bad GPU sits in the decode pool: both pools are checked.
        let disagg = || {
            DisaggConfig::new(config())
                .transfer(transfer)
                .fleet(vec![GpuType::reference()], vec![bad_gpu])
        };
        let mut sink = RecordingSink::new();
        let fixed = DisaggCluster::new(disagg(), 1, 1).run_traced(
            requests.clone(),
            arrivals.clone(),
            Some(&mut sink),
        );
        assert_eq!(fixed.unwrap_err(), expected, "disagg {case}");
        assert!(sink.events.is_empty(), "rejected before the first event");
        let mut sink = RecordingSink::new();
        let elastic = DisaggCluster::new(disagg(), 1, 1)
            .autoscale(autoscale(), autoscale())
            .run_traced(requests.clone(), arrivals.clone(), Some(&mut sink));
        assert_eq!(elastic.unwrap_err(), expected, "elastic disagg {case}");
        assert!(sink.events.is_empty(), "rejected before the first event");
    }
}

/// A paged `block_size` of zero panicked; every entry point now returns a
/// typed error before the first event. A disaggregated deployment also
/// rejects static batching, since its pools batch continuously.
#[test]
fn invalid_engine_configs_are_rejected_before_the_first_event() {
    use pf_metrics::SimTime;
    use pf_obs::RecordingSink;
    use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
    use pf_sim::disagg::{DisaggCluster, DisaggConfig};

    let requests = datasets::sharegpt(40, 1);
    let arrivals = vec![SimTime::ZERO; requests.len()];
    let base = || SimConfig {
        max_sim_time: Some(SimDuration::from_secs(600)),
        ..small_config(SchedulerConfig::past_future(), 40_000)
    };
    let config = SimConfig {
        kv_layout: KvLayout::Paged { block_size: 0 },
        ..base()
    };
    let expected = SimError::InvalidEngine {
        parameter: "block_size",
    };
    let mut sink = RecordingSink::new();
    let single = Simulation::offline(config.clone(), requests.clone()).run_traced(Some(&mut sink));
    assert_eq!(single.unwrap_err(), expected, "single");
    assert!(sink.events.is_empty(), "rejected before the first event");
    let mut sink = RecordingSink::new();
    let cluster = ClusterSimulation::new(config.clone(), 2, RouterPolicy::RoundRobin).run_traced(
        requests.clone(),
        arrivals.clone(),
        Some(&mut sink),
    );
    assert_eq!(cluster.unwrap_err(), expected, "cluster");
    assert!(sink.events.is_empty(), "rejected before the first event");
    let mut sink = RecordingSink::new();
    let disagg = DisaggCluster::new(DisaggConfig::new(config), 1, 1).run_traced(
        requests.clone(),
        arrivals.clone(),
        Some(&mut sink),
    );
    assert_eq!(disagg.unwrap_err(), expected, "disagg");
    assert!(sink.events.is_empty(), "rejected before the first event");
    let statically_batched = SimConfig {
        batching: BatchingMode::Static,
        ..base()
    };
    let disagg =
        DisaggCluster::new(DisaggConfig::new(statically_batched), 1, 1).run(requests, arrivals);
    assert_eq!(
        disagg.unwrap_err(),
        SimError::InvalidEngine {
            parameter: "batching"
        }
    );
}
