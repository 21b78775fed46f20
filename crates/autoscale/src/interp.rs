//! Performance interpolation: predicted load → expected TTFT/TPOT.
//!
//! The interpolator answers the planner's central question: *if the next
//! interval's load looks like `L` and we run `n` replicas, what TTFT and
//! TPOT should we expect?* It combines:
//!
//! 1. an analytic queueing sketch on top of a [`StepLatency`] model (the
//!    roofline `PerfModel` in `pf-sim` implements this trait) — decode
//!    concurrency from Little's law solved by fixed-point iteration,
//!    utilization from the token-throughput ceiling, M/M/1-shaped queueing
//!    delay for TTFT;
//! 2. multiplicative **correction factors** updated from observed-versus-
//!    predicted error each interval, so systematic model bias (the sketch
//!    ignores prefill interference, admission batching, eviction storms)
//!    is absorbed instead of propagated into scaling decisions.
//!
//! Disaggregated (prefill/decode-split) fleets size each pool against its
//! own SLA term. A [`PoolRole`] selects which *column* of the sketch a
//! pool's planner reads: [`PoolRole::Prefill`] replicas are an M/M/1 queue
//! of prefill passes (TTFT-bound; TPOT is reported as zero so only the
//! TTFT term of the SLA can bind), [`PoolRole::Decode`] replicas run the
//! decode fixed point alone (TPOT-bound; TTFT is reported as zero — the
//! first token is produced by the prefill pool).

use crate::load::LoadSample;

/// Which serving stage a pool's replicas execute.
///
/// Colocated replicas (the default) run both stages, so both SLA terms
/// bind. In a disaggregated deployment each pool is sized against the term
/// its stage controls: prefill against TTFT, decode against TPOT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolRole {
    /// One replica runs prefill and decode (single-engine serving).
    Colocated,
    /// Prefill-only replicas: TTFT-bound, no steady-state decode batch.
    Prefill,
    /// Decode-only replicas: TPOT-bound, first tokens come from elsewhere.
    Decode,
}

/// Step-latency oracle of one serving replica.
///
/// `pf-sim`'s elastic cluster wraps its roofline `PerfModel` (together
/// with the deployment's effective KV capacity, which a config override
/// may shrink below the hardware-derived value) to implement this; the
/// indirection keeps this crate free of a dependency cycle (the simulator
/// depends on the autoscaler).
pub trait StepLatency {
    /// Latency in seconds of a prefill pass over `prompt_tokens`.
    fn prefill_secs(&self, prompt_tokens: u64) -> f64;

    /// Latency in seconds of one decode step for `batch_size` sequences
    /// over `kv_tokens` live KV tokens.
    fn decode_secs(&self, batch_size: u64, kv_tokens: u64) -> f64;

    /// KV-cache capacity of one replica, in tokens.
    fn kv_capacity_tokens(&self) -> u64;
}

/// Expected per-request service quality at a given load and fleet size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfEstimate {
    /// Expected time to first token, in seconds.
    pub ttft_secs: f64,
    /// Expected time per output token (decode-step latency), in seconds.
    pub tpot_secs: f64,
    /// Expected steady-state decode concurrency per replica.
    pub concurrency: f64,
    /// Fraction of the per-replica token-throughput ceiling in use.
    pub utilization: f64,
    /// False when the offered load exceeds what the fleet can serve at
    /// all (utilization ≥ 1): the queue grows without bound.
    pub feasible: bool,
}

/// TTFT sentinel for infeasible (unboundedly queued) operating points.
const INFEASIBLE_TTFT_SECS: f64 = 1e6;

/// Maps predicted load to expected TTFT/TPOT for candidate fleet sizes.
#[derive(Debug, Clone)]
pub struct PerfInterpolator<M> {
    model: M,
    role: PoolRole,
    ttft_correction: f64,
    tpot_correction: f64,
    correction_alpha: f64,
}

/// Correction factors stay within this band so a few wild observations
/// cannot wedge the planner into permanent over- or under-scaling.
const CORRECTION_BOUNDS: (f64, f64) = (0.2, 5.0);

impl<M: StepLatency> PerfInterpolator<M> {
    /// Wraps a step-latency model, with neutral corrections, for replicas
    /// of the given [`PoolRole`].
    pub fn new(model: M, role: PoolRole) -> Self {
        PerfInterpolator {
            model,
            role,
            ttft_correction: 1.0,
            tpot_correction: 1.0,
            correction_alpha: 0.3,
        }
    }

    /// The pool role this interpolator models.
    pub fn role(&self) -> PoolRole {
        self.role
    }

    /// Current TTFT correction factor (observed/modelled, smoothed).
    pub fn ttft_correction(&self) -> f64 {
        self.ttft_correction
    }

    /// Current TPOT correction factor (observed/modelled, smoothed).
    pub fn tpot_correction(&self) -> f64 {
        self.tpot_correction
    }

    /// The underlying step-latency model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Expected service quality for `load` spread over `replicas`
    /// replicas whose step latencies run `perf_scale`× the base model's
    /// speed (1.0 = the base model, 2.0 = twice as fast), with corrections
    /// applied. A heterogeneous planner passes the mean `perf_scale` of the
    /// candidate fleet.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero or `perf_scale` is not finite and
    /// positive.
    pub fn predict(&self, load: &LoadSample, replicas: usize, perf_scale: f64) -> PerfEstimate {
        let mut e = self.raw_predict(load, replicas, perf_scale);
        e.ttft_secs = (e.ttft_secs * self.ttft_correction).min(INFEASIBLE_TTFT_SECS);
        e.tpot_secs *= self.tpot_correction;
        e
    }

    /// Folds one interval's observed TTFT/TPOT (means over finished
    /// requests) into the correction factors, comparing against what the
    /// uncorrected model predicts for the same operating point: `replicas`
    /// running at `perf_scale`× the base model's speed, the fleet that
    /// actually produced the observed latencies. Only the latency term the
    /// pool's role controls is folded: a decode pool teaches nothing about
    /// TTFT and a prefill pool nothing about TPOT.
    pub fn observe(
        &mut self,
        load: &LoadSample,
        replicas: usize,
        perf_scale: f64,
        observed_ttft_secs: f64,
        observed_tpot_secs: f64,
    ) {
        let raw = self.raw_predict(load, replicas, perf_scale);
        if !raw.feasible {
            // The sketch already says "overloaded"; observed latencies from
            // a saturated system would teach the corrections nothing but
            // queue length.
            return;
        }
        let fold = |correction: &mut f64, observed: f64, modelled: f64, alpha: f64| {
            if observed.is_finite() && observed > 0.0 && modelled > 0.0 {
                let ratio = (observed / modelled).clamp(CORRECTION_BOUNDS.0, CORRECTION_BOUNDS.1);
                *correction = (alpha * ratio + (1.0 - alpha) * *correction)
                    .clamp(CORRECTION_BOUNDS.0, CORRECTION_BOUNDS.1);
            }
        };
        if self.role != PoolRole::Decode {
            fold(
                &mut self.ttft_correction,
                observed_ttft_secs,
                raw.ttft_secs,
                self.correction_alpha,
            );
        }
        if self.role != PoolRole::Prefill {
            fold(
                &mut self.tpot_correction,
                observed_tpot_secs,
                raw.tpot_secs,
                self.correction_alpha,
            );
        }
    }

    /// Prefill-pass latency at the fleet's speed scale.
    fn prefill_secs(&self, prompt_tokens: u64, scale: f64) -> f64 {
        self.model.prefill_secs(prompt_tokens) / scale
    }

    /// Decode-step latency at the fleet's speed scale.
    fn decode_secs(&self, batch_size: u64, kv_tokens: u64, scale: f64) -> f64 {
        self.model.decode_secs(batch_size, kv_tokens) / scale
    }

    /// The analytic sketch without corrections, at `scale`× model speed.
    fn raw_predict(&self, load: &LoadSample, replicas: usize, scale: f64) -> PerfEstimate {
        assert!(replicas > 0, "cannot predict for zero replicas");
        assert!(
            scale.is_finite() && scale > 0.0,
            "invalid perf scale {scale}"
        );
        let load = load.sanitized();
        match self.role {
            PoolRole::Colocated => self.raw_colocated(&load, replicas, scale),
            PoolRole::Prefill => self.raw_prefill(&load, replicas, scale),
            PoolRole::Decode => self.raw_decode(&load, replicas, scale),
        }
    }

    /// Colocated column: decode fixed point plus the prefill pass in TTFT.
    fn raw_colocated(&self, load: &LoadSample, replicas: usize, scale: f64) -> PerfEstimate {
        let prefill = self.prefill_secs(load.mean_input_tokens.ceil().max(1.0) as u64, scale);
        let Some(point) = self.decode_point(load, replicas, scale) else {
            return PerfEstimate {
                ttft_secs: prefill,
                tpot_secs: self.decode_secs(1, load.mean_input_tokens.ceil() as u64, scale),
                concurrency: 0.0,
                utilization: 0.0,
                feasible: true,
            };
        };
        PerfEstimate {
            ttft_secs: if point.feasible {
                prefill + point.wait_secs
            } else {
                INFEASIBLE_TTFT_SECS
            },
            tpot_secs: point.tpot_secs,
            concurrency: point.concurrency,
            utilization: point.utilization,
            feasible: point.feasible,
        }
    }

    /// Prefill-bound column: each replica is an M/M/1 queue of whole-prompt
    /// prefill passes. TPOT is reported as zero — a prefill pool emits only
    /// first tokens, so only the TTFT side of the SLA can bind on it.
    fn raw_prefill(&self, load: &LoadSample, replicas: usize, scale: f64) -> PerfEstimate {
        let lambda = load.request_rate / replicas as f64;
        let service = self.prefill_secs(load.mean_input_tokens.ceil().max(1.0) as u64, scale);
        if lambda <= 0.0 {
            return PerfEstimate {
                ttft_secs: service,
                tpot_secs: 0.0,
                concurrency: 0.0,
                utilization: 0.0,
                feasible: true,
            };
        }
        let utilization = lambda * service;
        let feasible = utilization < 1.0;
        let ttft_secs = if feasible {
            service + utilization / (1.0 - utilization).max(1e-3) * service
        } else {
            INFEASIBLE_TTFT_SECS
        };
        PerfEstimate {
            ttft_secs,
            tpot_secs: 0.0,
            concurrency: utilization.min(1.0),
            utilization,
            feasible,
        }
    }

    /// Decode-bound column: the decode fixed point alone. TTFT is reported
    /// as zero — first tokens come from the prefill pool, so only the TPOT
    /// side of the SLA (and raw feasibility) can bind on a decode pool.
    fn raw_decode(&self, load: &LoadSample, replicas: usize, scale: f64) -> PerfEstimate {
        let Some(point) = self.decode_point(load, replicas, scale) else {
            return PerfEstimate {
                ttft_secs: 0.0,
                tpot_secs: self.decode_secs(1, load.mean_input_tokens.ceil() as u64, scale),
                concurrency: 0.0,
                utilization: 0.0,
                feasible: true,
            };
        };
        PerfEstimate {
            ttft_secs: 0.0,
            tpot_secs: point.tpot_secs,
            concurrency: point.concurrency,
            utilization: point.utilization,
            feasible: point.feasible,
        }
    }

    /// Shared decode-side queueing sketch, or `None` when the load offers
    /// no decode work at all.
    fn decode_point(&self, load: &LoadSample, replicas: usize, scale: f64) -> Option<DecodePoint> {
        let lambda = load.request_rate / replicas as f64;
        let l_in = load.mean_input_tokens;
        let l_out = load.mean_output_tokens;
        if lambda <= 0.0 || l_out <= 0.0 {
            return None;
        }
        let capacity = self.model.kv_capacity_tokens() as f64;
        // A request's mean resident KV footprint while decoding is its
        // prompt plus half its output; its admission-safe footprint (what
        // the Past-Future scheduler budgets for) is the full total.
        let mean_resident = l_in + l_out / 2.0;
        let n_max = (capacity / load.mean_total_tokens().max(1.0))
            .max(1.0)
            .floor();
        // Little's law fixed point: concurrency -> step time -> service
        // time -> concurrency. Damped; converges in a handful of rounds
        // because decode_secs is monotone and near-affine in both args.
        let mut n = 1.0f64;
        for _ in 0..32 {
            let batch = n.ceil().max(1.0) as u64;
            let kv = (n * mean_resident).ceil() as u64;
            let t_step = self.decode_secs(batch, kv, scale);
            let service = l_out * t_step;
            let target = (lambda * service).max(1e-9).min(4.0 * n_max);
            n = 0.5 * n + 0.5 * target;
        }
        let required = n;
        let n_eff = required.min(n_max);
        let batch_eff = n_eff.ceil().max(1.0) as u64;
        let tpot_secs = self.decode_secs(batch_eff, (n_eff * mean_resident).ceil() as u64, scale);
        // Throughput ceiling at the memory-bound batch size.
        let t_step_full = self.decode_secs(
            n_max.ceil() as u64,
            (n_max * mean_resident).ceil() as u64,
            scale,
        );
        let max_tokens_per_s = n_max / t_step_full;
        let utilization = (lambda * l_out) / max_tokens_per_s;
        let feasible = utilization < 1.0;
        let wait_secs = if feasible {
            // Machine-seconds a request occupies of the replica's decode
            // pipeline; M/M/1-shaped wait.
            let machine_secs = l_out * t_step_full / n_max;
            utilization / (1.0 - utilization).max(1e-3) * machine_secs
        } else {
            INFEASIBLE_TTFT_SECS
        };
        Some(DecodePoint {
            tpot_secs,
            concurrency: n_eff,
            utilization,
            wait_secs,
            feasible,
        })
    }
}

/// Decode-side operating point shared by the colocated and decode columns.
struct DecodePoint {
    tpot_secs: f64,
    concurrency: f64,
    utilization: f64,
    wait_secs: f64,
    feasible: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear toy latency model: decode grows with batch and KV, prefill
    /// with tokens; capacity 40k tokens.
    #[derive(Debug, Clone, Copy)]
    struct ToyModel;

    impl StepLatency for ToyModel {
        fn prefill_secs(&self, prompt_tokens: u64) -> f64 {
            0.01 + prompt_tokens as f64 * 1e-5
        }

        fn decode_secs(&self, batch_size: u64, kv_tokens: u64) -> f64 {
            0.01 + batch_size as f64 * 1e-4 + kv_tokens as f64 * 1e-7
        }

        fn kv_capacity_tokens(&self) -> u64 {
            40_000
        }
    }

    fn chat_load(rate: f64) -> LoadSample {
        LoadSample {
            request_rate: rate,
            mean_input_tokens: 200.0,
            mean_output_tokens: 400.0,
        }
    }

    #[test]
    fn idle_load_costs_one_prefill() {
        let interp = PerfInterpolator::new(ToyModel, PoolRole::Colocated);
        let e = interp.predict(&LoadSample::ZERO, 2, 1.0);
        assert!(e.feasible);
        assert_eq!(e.utilization, 0.0);
        assert!(e.ttft_secs < 0.02);
    }

    #[test]
    fn latency_improves_with_more_replicas() {
        let interp = PerfInterpolator::new(ToyModel, PoolRole::Colocated);
        let load = chat_load(20.0);
        let one = interp.predict(&load, 1, 1.0);
        let four = interp.predict(&load, 4, 1.0);
        assert!(four.ttft_secs < one.ttft_secs);
        assert!(four.tpot_secs <= one.tpot_secs);
        assert!(four.utilization < one.utilization);
    }

    #[test]
    fn overload_is_flagged_infeasible() {
        let interp = PerfInterpolator::new(ToyModel, PoolRole::Colocated);
        // Max decode throughput/replica ≈ n_max/t_step ≈ 66/0.0206 ≈ 3.2k
        // tok/s; 40 req/s × 400 tok = 16k tok/s ≫ that on one replica.
        let e = interp.predict(&chat_load(40.0), 1, 1.0);
        assert!(!e.feasible);
        assert!(e.utilization >= 1.0);
        assert!(e.ttft_secs >= 1e5);
        // Spread over enough replicas it becomes feasible again.
        let e = interp.predict(&chat_load(40.0), 8, 1.0);
        assert!(e.feasible, "utilization {}", e.utilization);
    }

    #[test]
    fn utilization_scales_linearly_with_rate() {
        let interp = PerfInterpolator::new(ToyModel, PoolRole::Colocated);
        let lo = interp.predict(&chat_load(2.0), 2, 1.0);
        let hi = interp.predict(&chat_load(4.0), 2, 1.0);
        assert!((hi.utilization / lo.utilization - 2.0).abs() < 1e-6);
    }

    #[test]
    fn corrections_track_observed_bias() {
        let mut interp = PerfInterpolator::new(ToyModel, PoolRole::Colocated);
        let load = chat_load(5.0);
        let raw = interp.predict(&load, 2, 1.0);
        // The "real system" is consistently 2× slower than the sketch.
        for _ in 0..30 {
            interp.observe(&load, 2, 1.0, raw.ttft_secs * 2.0, raw.tpot_secs * 2.0);
        }
        assert!((interp.ttft_correction() - 2.0).abs() < 0.05);
        assert!((interp.tpot_correction() - 2.0).abs() < 0.05);
        let corrected = interp.predict(&load, 2, 1.0);
        assert!((corrected.ttft_secs / raw.ttft_secs - 2.0).abs() < 0.05);
    }

    #[test]
    fn corrections_stay_bounded() {
        let mut interp = PerfInterpolator::new(ToyModel, PoolRole::Colocated);
        let load = chat_load(5.0);
        for _ in 0..100 {
            interp.observe(&load, 2, 1.0, 1e9, 1e9);
        }
        assert!(interp.ttft_correction() <= 5.0);
        for _ in 0..100 {
            interp.observe(&load, 2, 1.0, 1e-12, 1e-12);
        }
        assert!(interp.ttft_correction() >= 0.2);
    }

    #[test]
    fn saturated_observations_are_ignored() {
        let mut interp = PerfInterpolator::new(ToyModel, PoolRole::Colocated);
        interp.observe(&chat_load(40.0), 1, 1.0, 500.0, 50.0);
        assert_eq!(interp.ttft_correction(), 1.0);
        assert_eq!(interp.tpot_correction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "zero replicas")]
    fn zero_replicas_panics() {
        let _ =
            PerfInterpolator::new(ToyModel, PoolRole::Colocated).predict(&LoadSample::ZERO, 0, 1.0);
    }

    #[test]
    fn perf_scale_speeds_up_the_sketch() {
        let interp = PerfInterpolator::new(ToyModel, PoolRole::Colocated);
        let load = chat_load(10.0);
        let base = interp.predict(&load, 2, 1.0);
        let fast = interp.predict(&load, 2, 2.0);
        let slow = interp.predict(&load, 2, 0.5);
        assert!(fast.ttft_secs < base.ttft_secs);
        assert!(fast.tpot_secs < base.tpot_secs);
        assert!(fast.utilization < base.utilization);
        assert!(slow.ttft_secs > base.ttft_secs);
        assert!(slow.utilization > base.utilization);
    }

    #[test]
    #[should_panic(expected = "invalid perf scale")]
    fn non_finite_scale_panics() {
        let _ = PerfInterpolator::new(ToyModel, PoolRole::Colocated).predict(
            &LoadSample::ZERO,
            1,
            f64::NAN,
        );
    }

    #[test]
    fn prefill_role_is_ttft_only() {
        let interp = PerfInterpolator::new(ToyModel, PoolRole::Prefill);
        let e = interp.predict(&chat_load(10.0), 1, 1.0);
        assert!(e.feasible);
        assert_eq!(e.tpot_secs, 0.0, "prefill column must not bind on TPOT");
        assert!(e.ttft_secs > 0.0);
        // Saturate the prefill servers: service 0.012 s × 100 req/s > 1.
        let e = interp.predict(&chat_load(100.0), 1, 1.0);
        assert!(!e.feasible);
        // More replicas restore feasibility and shrink TTFT.
        let few = interp.predict(&chat_load(40.0), 1, 1.0);
        let many = interp.predict(&chat_load(40.0), 4, 1.0);
        assert!(many.ttft_secs < few.ttft_secs);
    }

    #[test]
    fn decode_role_is_tpot_only() {
        let interp = PerfInterpolator::new(ToyModel, PoolRole::Decode);
        let e = interp.predict(&chat_load(20.0), 2, 1.0);
        assert_eq!(e.ttft_secs, 0.0, "decode column must not bind on TTFT");
        assert!(e.tpot_secs > 0.0);
        // Same decode overload point as the colocated column.
        let overloaded = interp.predict(&chat_load(40.0), 1, 1.0);
        assert!(!overloaded.feasible);
        assert!(overloaded.utilization >= 1.0);
    }

    #[test]
    fn role_corrections_only_touch_their_own_term() {
        let mut prefill = PerfInterpolator::new(ToyModel, PoolRole::Prefill);
        let load = chat_load(5.0);
        for _ in 0..20 {
            prefill.observe(&load, 2, 1.0, 1.0, 1.0);
        }
        assert_eq!(
            prefill.tpot_correction(),
            1.0,
            "prefill pool must not learn TPOT corrections"
        );
        assert_ne!(prefill.ttft_correction(), 1.0);
        let mut decode = PerfInterpolator::new(ToyModel, PoolRole::Decode);
        for _ in 0..20 {
            decode.observe(&load, 2, 1.0, 1.0, 1.0);
        }
        assert_eq!(
            decode.ttft_correction(),
            1.0,
            "decode pool must not learn TTFT corrections"
        );
        assert_ne!(decode.tpot_correction(), 1.0);
    }
}
