//! Property-based engine tests: conservation laws that must hold for any
//! workload, capacity and scheduler parameterization.

use proptest::prelude::*;

use pf_core::SchedulerConfig;
use pf_sim::{GpuSpec, ModelSpec, SimConfig, Simulation};
use pf_workload::{datasets, LengthSampler, RequestSpec};

fn workload(n: usize, seed: u64) -> Vec<RequestSpec> {
    let input = LengthSampler::uniform(4, 64);
    let output = LengthSampler::uniform(8, 256);
    datasets::from_samplers(n, seed, &input, &output, 320)
}

fn config(scheduler: SchedulerConfig, capacity: u64, seed: u64) -> SimConfig {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(scheduler)
        .capacity_override(capacity)
        .record_series(false)
        .seed(seed)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under arbitrary eviction storms every request still completes with
    /// exactly its ground-truth output length, and token accounting
    /// balances.
    #[test]
    fn aggressive_conserves_requests_under_eviction_storms(
        seed in 0u64..500,
        capacity in 800u64..3_000,
        n in 8usize..48,
        watermark_pct in 85u32..100,
    ) {
        let requests = workload(n, seed);
        let expected_tokens: u64 =
            requests.iter().map(|r| u64::from(r.true_output_len)).sum();
        let report = Simulation::offline(
            config(
                SchedulerConfig::aggressive(watermark_pct as f64 / 100.0),
                capacity,
                seed,
            ),
            requests.clone(),
        )
        .run()
        .unwrap();
        prop_assert_eq!(report.completed, n);
        prop_assert_eq!(report.unfinished, 0);
        prop_assert_eq!(report.goodput.total_output_tokens, expected_tokens);
        let truth: std::collections::BTreeMap<u64, u32> = requests
            .iter()
            .map(|r| (r.id.raw(), r.true_output_len))
            .collect();
        for outcome in &report.outcomes {
            prop_assert_eq!(outcome.output_len, truth[&outcome.id]);
            prop_assert_eq!(outcome.timing.n_tokens(), u64::from(outcome.output_len));
        }
    }

    /// The oracle never evicts, for any workload and capacity that admits
    /// the largest single request.
    #[test]
    fn oracle_never_evicts_any_workload(
        seed in 0u64..500,
        capacity in 500u64..5_000,
        n in 4usize..40,
    ) {
        let requests = workload(n, seed);
        let report = Simulation::offline(
            config(SchedulerConfig::Oracle, capacity, seed),
            requests,
        )
        .run()
        .unwrap();
        prop_assert_eq!(report.evictions, 0);
        prop_assert_eq!(report.completed, n);
        prop_assert!(report.peak_consumed_frac <= 1.0 + 1e-12);
    }

    /// Past-Future completes any workload for any reserve setting, and a
    /// larger reserve never increases memory utilization.
    #[test]
    fn past_future_safe_for_any_reserve(
        seed in 0u64..200,
        reserve_pct in 0u32..40,
    ) {
        let requests = workload(32, seed);
        let warmup: Vec<u32> = workload(300, seed + 1)
            .iter()
            .map(|r| r.true_output_len)
            .collect();
        let run = |reserve: f64| {
            let mut c = config(
                SchedulerConfig::past_future_reserved(reserve),
                2_500,
                seed,
            );
            c.history_warmup = warmup.clone();
            Simulation::offline(c, requests.clone()).run().unwrap()
        };
        let report = run(reserve_pct as f64 / 100.0);
        prop_assert_eq!(report.completed, 32);
        // Makespan and decode steps are positive and sane.
        prop_assert!(report.decode_steps > 0);
        prop_assert!(report.makespan.as_secs_f64() > 0.0);
    }

    /// Closed-loop arrivals preserve every request across client counts.
    #[test]
    fn closed_loop_conserves_requests(
        seed in 0u64..200,
        clients in 1usize..24,
    ) {
        let requests = workload(24, seed);
        let report = Simulation::closed_loop(
            config(SchedulerConfig::past_future(), 4_000, seed),
            requests,
            pf_workload::ClosedLoopClients::new(clients),
        )
        .run()
        .unwrap();
        prop_assert_eq!(report.completed, 24);
        prop_assert_eq!(report.unfinished, 0);
    }

    /// Timing sanity for every completed request: first token after
    /// arrival, monotone stream, MTPOT below total latency.
    #[test]
    fn per_request_timing_invariants(
        seed in 0u64..200,
        capacity in 1_000u64..4_000,
    ) {
        let requests = workload(24, seed);
        let report = Simulation::offline(
            config(SchedulerConfig::aggressive(0.95), capacity, seed),
            requests,
        )
        .run()
        .unwrap();
        for outcome in &report.outcomes {
            let ttft = outcome.timing.ttft().expect("completed requests emitted tokens");
            prop_assert!(ttft.as_micros() > 0);
            prop_assert!(outcome.timing.mtpot() <= outcome.timing.total_latency());
            prop_assert!(outcome.timing.avg_tpot() <= outcome.timing.mtpot());
        }
    }
}
