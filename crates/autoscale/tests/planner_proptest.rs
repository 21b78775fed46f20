//! Property tests for the autoscaling planner: decisions stay inside the
//! policy bounds, hysteresis never whipsaws the fleet, and forecasts stay
//! finite and non-negative on arbitrary load histories.

use pf_autoscale::{
    AutoscaleConfig, AutoscalePlanner, LoadPredictor, LoadSample, PoolRole, PredictorKind,
    ScalingDecision, StepLatency,
};
use pf_metrics::{SimDuration, SimTime, SlaSpec};
use proptest::prelude::*;

/// Linear toy replica: one instance serves a few requests per second of
/// mid-sized chat traffic before TTFT degrades.
#[derive(Debug, Clone, Copy)]
struct ToyModel;

impl StepLatency for ToyModel {
    fn prefill_secs(&self, prompt_tokens: u64) -> f64 {
        0.02 + prompt_tokens as f64 * 1e-5
    }

    fn decode_secs(&self, batch_size: u64, kv_tokens: u64) -> f64 {
        0.02 + batch_size as f64 * 2e-4 + kv_tokens as f64 * 2e-6
    }

    fn kv_capacity_tokens(&self) -> u64 {
        8_000
    }
}

fn sla() -> SlaSpec {
    SlaSpec::new(SimDuration::from_secs(10), SimDuration::from_millis(1500))
}

/// Streams `rate` req/s (with matching completions) through the interval
/// ending at `end_s`, with the given mean lengths.
fn feed_interval(
    planner: &mut AutoscalePlanner<ToyModel>,
    end_s: u64,
    rate: usize,
    input_len: u32,
    output_len: u32,
) {
    let start_ms = (end_s - 10) * 1_000;
    let events = rate * 10;
    for i in 0..events {
        let at = SimTime::from_millis(start_ms + (i * 10_000 / events) as u64);
        planner.on_request_arrival(at, input_len);
        planner.on_request_finished(
            at,
            output_len,
            SimDuration::from_millis(400),
            SimDuration::from_millis(50),
        );
    }
}

/// One random load history: per-interval request rates plus mean lengths.
fn history_strategy() -> impl Strategy<Value = (Vec<usize>, u32, u32)> {
    (
        proptest::collection::vec(0usize..25, 3..20),
        16u32..1024,
        16u32..1024,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the load does, every decision's target stays inside the
    /// configured `[min, max]` replica bounds.
    #[test]
    fn plans_never_leave_policy_bounds(
        history in history_strategy(),
        min in 1usize..3,
        span in 0usize..4,
        kind_idx in 0usize..4,
    ) {
        let (rates, input_len, output_len) = history;
        let max = min + span;
        let kind = [
            PredictorKind::Constant,
            PredictorKind::ewma(),
            PredictorKind::holt(),
            PredictorKind::holt_winters(6),
        ][kind_idx];
        let config = AutoscaleConfig::bounded(min, max)
            .interval(SimDuration::from_secs(10))
            .warmup(SimDuration::from_secs(25))
            .predictor(kind);
        let mut planner = AutoscalePlanner::new(config, sla(), ToyModel, PoolRole::Colocated);
        let mut current = min;
        for (i, &rate) in rates.iter().enumerate() {
            let end = (i as u64 + 1) * 10;
            feed_interval(&mut planner, end, rate, input_len, output_len);
            let outcome = planner.plan(SimTime::from_secs(end), current, 0);
            let target = outcome.decision.target_or(current);
            prop_assert!(
                (min..=max).contains(&target),
                "target {target} outside [{min}, {max}] on decision {:?}",
                outcome.decision
            );
            current = target;
        }
    }

    /// Hysteresis: the policy never releases a replica within the
    /// scale-down patience window of a scale-up — a burst that forced
    /// growth cannot be immediately second-guessed.
    #[test]
    fn hysteresis_never_flips_direction_within_cooldown(
        history in history_strategy(),
    ) {
        let (rates, input_len, output_len) = history;
        let config = AutoscaleConfig::bounded(1, 6)
            .interval(SimDuration::from_secs(10))
            .predictor(PredictorKind::ewma());
        let patience = config.policy.scale_down_patience as usize;
        let mut planner = AutoscalePlanner::new(config, sla(), ToyModel, PoolRole::Colocated);
        let mut current = 1usize;
        // Planning rounds elapsed since the last scale-up (counting the
        // current round).
        let mut rounds_since_up = usize::MAX;
        for (i, &rate) in rates.iter().enumerate() {
            let end = (i as u64 + 1) * 10;
            feed_interval(&mut planner, end, rate, input_len, output_len);
            let outcome = planner.plan(SimTime::from_secs(end), current, 0);
            rounds_since_up = rounds_since_up.saturating_add(1);
            match outcome.decision {
                ScalingDecision::ScaleUp { target } => {
                    prop_assert!(target > current);
                    rounds_since_up = 0;
                }
                ScalingDecision::ScaleDown { target } => {
                    prop_assert!(target < current);
                    prop_assert!(
                        rounds_since_up >= patience,
                        "scale-down only {rounds_since_up} rounds after a scale-up \
                         (patience {patience})"
                    );
                }
                ScalingDecision::Hold => {}
            }
            current = outcome.decision.target_or(current);
        }
    }

    /// Holt-Winters forecasts (every horizon step) stay finite and
    /// non-negative for arbitrary sampled load windows.
    #[test]
    fn holt_winters_forecasts_stay_finite(
        samples in proptest::collection::vec(
            (0.0f64..1e6, 0.0f64..1e5, 0.0f64..1e5),
            1..60,
        ),
        season in 0usize..8,
        horizon in 1usize..8,
    ) {
        let mut predictor = LoadPredictor::new(PredictorKind::holt_winters(season));
        for (rate, input, output) in samples {
            predictor.observe(LoadSample {
                request_rate: rate,
                mean_input_tokens: input,
                mean_output_tokens: output,
            });
        }
        for step in 1..=horizon {
            let f = predictor.forecast_ahead(step);
            for (name, v) in [
                ("rate", f.request_rate),
                ("input", f.mean_input_tokens),
                ("output", f.mean_output_tokens),
            ] {
                prop_assert!(v.is_finite() && v >= 0.0, "{name} forecast {v} at step {step}");
            }
        }
        let max = predictor.forecast_horizon_max(horizon);
        prop_assert!(max.request_rate.is_finite() && max.request_rate >= 0.0);
    }

    /// Role-specific estimates respect their contracts on arbitrary loads:
    /// the prefill column never reports a TPOT and the decode column never
    /// reports a TTFT, and both stay finite.
    #[test]
    fn pool_role_estimates_respect_contracts(
        rate in 0.0f64..100.0,
        input in 1.0f64..4000.0,
        output in 1.0f64..2000.0,
        replicas in 1usize..8,
    ) {
        let load = LoadSample {
            request_rate: rate,
            mean_input_tokens: input,
            mean_output_tokens: output,
        };
        let prefill = pf_autoscale::PerfInterpolator::new(ToyModel, PoolRole::Prefill)
            .predict(&load, replicas, 1.0);
        prop_assert_eq!(prefill.tpot_secs, 0.0);
        prop_assert!(prefill.ttft_secs.is_finite() && prefill.ttft_secs >= 0.0);
        let decode = pf_autoscale::PerfInterpolator::new(ToyModel, PoolRole::Decode)
            .predict(&load, replicas, 1.0);
        prop_assert_eq!(decode.ttft_secs, 0.0);
        prop_assert!(decode.tpot_secs.is_finite() && decode.tpot_secs >= 0.0);
    }
}
