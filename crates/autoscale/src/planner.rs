//! The planner: observation windows → predictor → interpolator → policy.
//!
//! [`AutoscalePlanner`] is the object a serving cluster embeds. The cluster
//! streams events into it (`on_request_arrival`, `on_request_finished`) and
//! calls [`AutoscalePlanner::plan`] once per adjustment interval; the
//! planner answers with a [`ScalingDecision`] plus the forecast and
//! performance estimate behind it, so reports can show *why* the fleet
//! moved.

use pf_metrics::{ObservationWindow, SimDuration, SimTime, SlaSpec};

use crate::config::AutoscaleConfig;
use crate::interp::{PerfEstimate, PerfInterpolator, PoolRole, StepLatency};
use crate::load::LoadSample;
use crate::policy::{ScalingDecision, ScalingPolicy};
use crate::predictor::LoadPredictor;

/// Result of one planning round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanOutcome {
    /// What the fleet should do.
    pub decision: ScalingDecision,
    /// Load observed over the interval that just ended.
    pub observed: LoadSample,
    /// Load forecast for the interval ahead.
    pub forecast: LoadSample,
    /// Predicted service quality at the decision's target size.
    pub estimate: PerfEstimate,
}

/// SLA-driven elastic-fleet planner (see module docs).
#[derive(Debug, Clone)]
pub struct AutoscalePlanner<M> {
    config: AutoscaleConfig,
    predictor: LoadPredictor,
    interpolator: PerfInterpolator<M>,
    policy: ScalingPolicy,
    /// Steps to forecast ahead: `ceil(warmup / interval) + 1`, so capacity
    /// ordered now is sized for the load it will actually meet once warm.
    horizon: usize,
    arrivals: ObservationWindow,
    completions: ObservationWindow,
    ttfts: ObservationWindow,
    tpots: ObservationWindow,
    /// Observed load of the previous interval plus the replica count that
    /// was actually serving it (drives interpolator corrections: the
    /// just-measured latencies came from that load on that many live
    /// replicas — warming capacity served nothing).
    previous_interval: Option<(LoadSample, usize)>,
    /// Last non-empty mean lengths, as cold-start fallbacks decay away.
    fallback_input: f64,
    fallback_output: f64,
    /// Per-slot `perf_scale` of a heterogeneous fleet (`None` for a
    /// homogeneous fleet of scale-1.0 replicas): candidate size `n` is
    /// modelled as `n` replicas at the mean scale of the first `n` slots.
    slot_scales: Option<Vec<f64>>,
}

impl<M: StepLatency> AutoscalePlanner<M> {
    /// Creates a planner for replicas of the given [`PoolRole`]: colocated
    /// replicas serve both stages, and the pool of a disaggregated fleet
    /// reads the column of the performance sketch its stage controls
    /// (prefill → TTFT, decode → TPOT).
    pub fn new(config: AutoscaleConfig, sla: SlaSpec, model: M, role: PoolRole) -> Self {
        let horizon =
            (config.warmup.as_micros()).div_ceil(config.interval.as_micros()) as usize + 1;
        AutoscalePlanner {
            predictor: LoadPredictor::new(config.predictor),
            interpolator: PerfInterpolator::new(model, role),
            policy: ScalingPolicy::new(config.policy, sla),
            horizon,
            arrivals: ObservationWindow::new(config.interval),
            completions: ObservationWindow::new(config.interval),
            ttfts: ObservationWindow::new(config.interval),
            tpots: ObservationWindow::new(config.interval),
            previous_interval: None,
            fallback_input: config.initial_mean_input_tokens,
            fallback_output: config.initial_mean_output_tokens,
            slot_scales: None,
            config,
        }
    }

    /// Sets a heterogeneous fleet's per-slot perf scales: `scales[i]` is
    /// the `perf_scale` of the GPU a fleet of `i + 1` replicas would run
    /// in its `(i+1)`-th position (relative step-latency speed; 1.0 = the
    /// base model). The planner sizes candidate fleets of `n` replicas
    /// against the mean scale of the first `n` entries — exact for
    /// homogeneous fleets. Heterogeneous clusters call this before every
    /// planning round with the fleet each candidate size would *actually*
    /// run (`pf-sim`'s
    /// `fleet::candidate_perf_scales`): scale-downs drain the costliest
    /// members first, so after any shrink the surviving fleet can differ
    /// from the declared provisioning order.
    ///
    /// # Panics
    ///
    /// Panics if `scales` has fewer entries than `max_replicas` or any
    /// entry is not finite and positive.
    pub fn update_slot_perf_scales(&mut self, scales: Vec<f64>) {
        assert!(
            scales.len() >= self.config.policy.max_replicas,
            "need one perf scale per provisioning slot: got {}, max_replicas {}",
            scales.len(),
            self.config.policy.max_replicas
        );
        assert!(
            scales.iter().all(|s| s.is_finite() && *s > 0.0),
            "perf scales must be finite and positive: {scales:?}"
        );
        self.slot_scales = Some(scales);
    }

    /// Mean `perf_scale` of the first `n` provisioning slots (1.0 for a
    /// homogeneous fleet).
    fn fleet_scale(&self, n: usize) -> f64 {
        match &self.slot_scales {
            Some(scales) => {
                let n = n.clamp(1, scales.len());
                scales[..n].iter().sum::<f64>() / n as f64
            }
            None => 1.0,
        }
    }

    /// The adjustment interval.
    pub fn interval(&self) -> SimDuration {
        self.config.interval
    }

    /// Forecast horizon in adjustment intervals, computed as
    /// `ceil(warmup / interval) + 1`: the planner provisions against the
    /// maximum forecast load over this many steps, because capacity
    /// ordered now serves traffic only after the warm-up delay.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The instance warm-up delay.
    pub fn warmup(&self) -> SimDuration {
        self.config.warmup
    }

    /// The planner's configuration.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.config
    }

    /// The interpolator (exposed for reporting correction factors).
    pub fn interpolator(&self) -> &PerfInterpolator<M> {
        &self.interpolator
    }

    /// Records a request arriving at the cluster front end.
    pub fn on_request_arrival(&mut self, now: SimTime, input_tokens: u32) {
        self.arrivals.observe(now, f64::from(input_tokens));
    }

    /// Records a finished request: its output length and achieved
    /// latencies feed both the load statistics and the interpolator's
    /// correction loop.
    pub fn on_request_finished(
        &mut self,
        now: SimTime,
        output_tokens: u32,
        ttft: SimDuration,
        avg_tpot: SimDuration,
    ) {
        self.completions.observe(now, f64::from(output_tokens));
        self.ttfts.observe(now, ttft.as_secs_f64());
        self.tpots.observe(now, avg_tpot.as_secs_f64());
    }

    /// Runs one planning round at time `now`.
    ///
    /// `live_replicas` is the capacity that served the interval that just
    /// ended; `warming_replicas` is capacity already provisioning. The
    /// decision steers their sum (counting in-flight spawns stops the
    /// planner from re-issuing the same scale-up while capacity warms),
    /// while the interpolator's correction loop attributes observed
    /// latencies to the live count alone — warming replicas served
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `live_replicas + warming_replicas` is zero.
    pub fn plan(
        &mut self,
        now: SimTime,
        live_replicas: usize,
        warming_replicas: usize,
    ) -> PlanOutcome {
        let effective_replicas = live_replicas + warming_replicas;
        assert!(effective_replicas > 0, "planning for an empty fleet");
        self.arrivals.prune(now);
        self.completions.prune(now);
        self.ttfts.prune(now);
        self.tpots.prune(now);
        // 1. Summarize the interval that just ended.
        if let Some(mean) = self.arrivals.mean() {
            self.fallback_input = mean;
        }
        if let Some(mean) = self.completions.mean() {
            self.fallback_output = mean;
        }
        let observed = LoadSample {
            request_rate: self.arrivals.rate_per_s(),
            mean_input_tokens: self.fallback_input,
            mean_output_tokens: self.fallback_output,
        }
        .sanitized();
        // 2. Close the correction loop on the previous interval's load,
        // against the fleet that actually produced those latencies.
        if let (Some((previous, served_by)), Some(ttft), Some(tpot)) =
            (self.previous_interval, self.ttfts.mean(), self.tpots.mean())
        {
            let scale = self.fleet_scale(served_by);
            self.interpolator
                .observe(&previous, served_by, scale, ttft, tpot);
        }
        self.previous_interval = Some((observed, live_replicas.max(1)));
        // 3. Forecast the warm-up horizon ahead (provisioning against the
        // horizon maximum, so bursts arriving while capacity warms are
        // already paid for) and score every candidate size.
        self.predictor.observe(observed);
        let forecast = self.predictor.forecast_horizon_max(self.horizon);
        let (min, max) = (
            self.policy.config().min_replicas,
            self.policy.config().max_replicas,
        );
        let estimates: Vec<PerfEstimate> = (min..=max)
            .map(|n| self.interpolator.predict(&forecast, n, self.fleet_scale(n)))
            .collect();
        // 4. Decide.
        let decision = self.policy.decide(effective_replicas, &estimates);
        let target = decision.target_or(effective_replicas).clamp(min, max);
        PlanOutcome {
            decision,
            observed,
            forecast,
            estimate: estimates[target - min],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorKind;

    /// Toy model: one replica comfortably serves ~2 req/s of this
    /// workload; TTFT blows past the SLA near 4 req/s.
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

    fn planner(min: usize, max: usize) -> AutoscalePlanner<ToyModel> {
        let config = AutoscaleConfig::bounded(min, max)
            .interval(SimDuration::from_secs(10))
            .predictor(PredictorKind::ewma())
            .initial_lengths(100.0, 300.0);
        AutoscalePlanner::new(config, sla(), ToyModel, PoolRole::Colocated)
    }

    /// Streams `rate` arrivals/s (and matching completions) through one
    /// interval ending at `end`.
    fn feed_interval(p: &mut AutoscalePlanner<ToyModel>, end_s: u64, rate: usize) {
        let start = (end_s - 10) * 1_000;
        for i in 0..rate * 10 {
            let at = SimTime::from_millis(start + (i * 10_000 / (rate * 10)) as u64);
            p.on_request_arrival(at, 100);
            p.on_request_finished(
                at,
                300,
                SimDuration::from_millis(500),
                SimDuration::from_millis(60),
            );
        }
    }

    #[test]
    fn quiet_load_holds_minimum() {
        let mut p = planner(1, 4);
        feed_interval(&mut p, 10, 1);
        let outcome = p.plan(SimTime::from_secs(10), 1, 0);
        assert_eq!(outcome.decision, ScalingDecision::Hold);
        assert!((outcome.observed.request_rate - 1.0).abs() < 0.01);
        assert!(outcome.estimate.feasible);
    }

    #[test]
    fn heavy_load_scales_up() {
        let mut p = planner(1, 6);
        feed_interval(&mut p, 10, 12);
        let outcome = p.plan(SimTime::from_secs(10), 1, 0);
        match outcome.decision {
            ScalingDecision::ScaleUp { target } => assert!(target > 1),
            other => panic!("expected scale-up, got {other:?}"),
        }
    }

    #[test]
    fn load_drop_scales_down_after_patience() {
        let mut p = planner(1, 6);
        // Three busy intervals at 12 req/s hold a large fleet...
        for end in [10, 20, 30] {
            feed_interval(&mut p, end, 12);
            let _ = p.plan(SimTime::from_secs(end), 4, 0);
        }
        // ...then traffic collapses; patience (3) must elapse first.
        let mut downs = 0;
        for end in [40u64, 50, 60, 70, 80, 90] {
            feed_interval(&mut p, end, 1);
            if let ScalingDecision::ScaleDown { .. } =
                p.plan(SimTime::from_secs(end), 4 - downs, 0).decision
            {
                downs += 1;
            }
        }
        assert!(downs >= 1, "fleet never shrank after the load drop");
        assert!(
            downs <= 2,
            "shrank too eagerly: {downs} steps in 6 intervals"
        );
    }

    #[test]
    fn planning_is_deterministic() {
        let run = || {
            let mut p = planner(1, 4);
            let mut outcomes = Vec::new();
            for (i, rate) in [2usize, 6, 10, 10, 3, 1].iter().enumerate() {
                let end = (i as u64 + 1) * 10;
                feed_interval(&mut p, end, *rate);
                outcomes.push(p.plan(SimTime::from_secs(end), 2, 0));
            }
            outcomes
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_interval_reads_zero_rate() {
        let mut p = planner(1, 2);
        feed_interval(&mut p, 10, 4);
        let _ = p.plan(SimTime::from_secs(10), 1, 0);
        // No traffic for a long gap: windows fully expire.
        let outcome = p.plan(SimTime::from_secs(100), 2, 0);
        assert_eq!(outcome.observed.request_rate, 0.0);
        // Length fallbacks persist from the busy interval.
        assert_eq!(outcome.observed.mean_input_tokens, 100.0);
        assert_eq!(outcome.observed.mean_output_tokens, 300.0);
    }

    #[test]
    #[should_panic(expected = "empty fleet")]
    fn zero_replicas_panics() {
        let mut p = planner(1, 2);
        let _ = p.plan(SimTime::ZERO, 0, 0);
    }

    #[test]
    fn slower_slots_provision_more_replicas() {
        let run = |scales: Option<Vec<f64>>| {
            let config = AutoscaleConfig::bounded(1, 6)
                .interval(SimDuration::from_secs(10))
                .predictor(PredictorKind::ewma())
                .initial_lengths(100.0, 300.0);
            let mut p = AutoscalePlanner::new(config, sla(), ToyModel, PoolRole::Colocated);
            if let Some(scales) = scales {
                p.update_slot_perf_scales(scales);
            }
            feed_interval(&mut p, 10, 8);
            p.plan(SimTime::from_secs(10), 1, 0).decision.target_or(1)
        };
        let full_speed = run(None);
        let half_speed = run(Some(vec![0.5; 6]));
        assert!(
            half_speed >= full_speed,
            "half-speed fleet ordered {half_speed} replicas, full-speed {full_speed}"
        );
        assert!(
            half_speed > full_speed,
            "slower GPUs must need more of them"
        );
        // All-1.0 slots are exactly the homogeneous fleet.
        assert_eq!(run(Some(vec![1.0; 6])), full_speed);
    }

    #[test]
    #[should_panic(expected = "one perf scale per provisioning slot")]
    fn too_few_slot_scales_panics() {
        let config = AutoscaleConfig::bounded(1, 4);
        AutoscalePlanner::new(config, sla(), ToyModel, PoolRole::Colocated)
            .update_slot_perf_scales(vec![1.0]);
    }

    #[test]
    fn horizon_covers_the_warmup_delay() {
        let case = |warmup_s: u64, interval_s: u64| {
            let config = AutoscaleConfig::bounded(1, 4)
                .interval(SimDuration::from_secs(interval_s))
                .warmup(SimDuration::from_secs(warmup_s));
            AutoscalePlanner::new(config, sla(), ToyModel, PoolRole::Colocated).horizon()
        };
        assert_eq!(case(0, 10), 1, "zero warm-up degenerates to one step");
        assert_eq!(case(10, 10), 2);
        assert_eq!(case(15, 10), 3, "partial intervals round up");
        assert_eq!(case(30, 10), 4);
    }

    #[test]
    fn longer_warmup_provisions_against_a_ramp_earlier() {
        // A linear ramp under Holt forecasting: the long-warm-up planner
        // must order at least as many replicas as the short-warm-up one at
        // every round, and strictly more at some round before the peak.
        let run = |warmup_s: u64| {
            let config = AutoscaleConfig::bounded(1, 6)
                .interval(SimDuration::from_secs(10))
                .warmup(SimDuration::from_secs(warmup_s))
                .predictor(PredictorKind::holt())
                .initial_lengths(100.0, 300.0);
            let mut p = AutoscalePlanner::new(config, sla(), ToyModel, PoolRole::Colocated);
            let mut targets = Vec::new();
            let mut current = 1usize;
            for (i, rate) in [1usize, 2, 4, 6, 8, 10, 12].iter().enumerate() {
                let end = (i as u64 + 1) * 10;
                feed_interval(&mut p, end, *rate);
                let outcome = p.plan(SimTime::from_secs(end), current, 0);
                current = outcome.decision.target_or(current).clamp(1, 6);
                targets.push(current);
            }
            targets
        };
        let short = run(0);
        let long = run(40);
        assert!(
            short.iter().zip(&long).all(|(s, l)| l >= s),
            "long-warm-up targets {long:?} fell below short-warm-up {short:?}"
        );
        assert!(
            short.iter().zip(&long).any(|(s, l)| l > s),
            "horizon forecasting never provisioned ahead: {long:?} vs {short:?}"
        );
    }
}
