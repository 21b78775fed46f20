//! The scaling policy: SLA targets plus hysteresis → replica counts.
//!
//! Given the interpolator's TTFT/TPOT estimates for candidate fleet sizes,
//! the policy picks the smallest replica count whose *predicted* latency
//! sits inside the SLA with a safety margin. Asymmetric hysteresis keeps
//! it from flapping on noisy load:
//!
//! * **scale up** happens immediately, straight to the smallest count
//!   predicted within 80% of the SLA — under-provisioning burns SLA, and
//!   new capacity already pays a warm-up delay;
//! * **scale down** requires the *smaller* fleet to stay within a stricter
//!   50% of the SLA for `scale_down_patience` consecutive intervals, and
//!   then releases one replica at a time.

use pf_metrics::SlaSpec;

use crate::interp::PerfEstimate;

/// Fraction of the SLA budget predicted latency may use before a size
/// counts as *sufficient* for scale-up purposes (predicted TTFT must stay
/// below 80% of the limit).
const HEADROOM: f64 = 0.8;
/// Stricter fraction the smaller fleet must satisfy before scaling down.
const SCALE_DOWN_HEADROOM: f64 = 0.5;

/// Scaling-policy parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Smallest fleet the policy will ever target (≥ 1).
    pub min_replicas: usize,
    /// Largest fleet the policy will ever target.
    pub max_replicas: usize,
    /// Consecutive qualifying intervals required before releasing a
    /// replica.
    pub scale_down_patience: u32,
}

impl PolicyConfig {
    /// Bounds-only constructor with the default patience of 3.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `min > max`.
    pub fn bounded(min_replicas: usize, max_replicas: usize) -> Self {
        let config = PolicyConfig {
            min_replicas,
            max_replicas,
            scale_down_patience: 3,
        };
        config.validate();
        config
    }

    fn validate(&self) {
        assert!(self.min_replicas > 0, "min_replicas must be at least 1");
        assert!(
            self.min_replicas <= self.max_replicas,
            "min_replicas {} exceeds max_replicas {}",
            self.min_replicas,
            self.max_replicas
        );
    }
}

/// One scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingDecision {
    /// Keep the current fleet.
    Hold,
    /// Grow the fleet to the contained target (provision the difference).
    ScaleUp {
        /// Desired total replica count.
        target: usize,
    },
    /// Shrink the fleet to the contained target (drain the difference).
    ScaleDown {
        /// Desired total replica count.
        target: usize,
    },
}

impl ScalingDecision {
    /// The replica count this decision aims for given the current count.
    pub fn target_or(&self, current: usize) -> usize {
        match *self {
            ScalingDecision::Hold => current,
            ScalingDecision::ScaleUp { target } | ScalingDecision::ScaleDown { target } => target,
        }
    }
}

/// SLA-targeted replica-count selection with hysteresis (see module docs).
#[derive(Debug, Clone)]
pub struct ScalingPolicy {
    config: PolicyConfig,
    sla: SlaSpec,
    down_streak: u32,
}

impl ScalingPolicy {
    /// Creates a policy for the given SLA.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`PolicyConfig::bounded`]).
    pub fn new(config: PolicyConfig, sla: SlaSpec) -> Self {
        config.validate();
        ScalingPolicy {
            config,
            sla,
            down_streak: 0,
        }
    }

    /// The policy's configuration.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// Whether an estimate satisfies the SLA scaled by `margin`.
    fn within(&self, estimate: &PerfEstimate, margin: f64) -> bool {
        estimate.feasible
            && estimate.ttft_secs <= self.sla.max_ttft.as_secs_f64() * margin
            && estimate.tpot_secs <= self.sla.max_mtpot.as_secs_f64() * margin
    }

    /// Decides the next fleet size.
    ///
    /// `current` is the effective fleet the decision steers (live plus
    /// already-provisioning replicas — counting in-flight spawns prevents
    /// re-ordering the same scale-up every interval during warm-up).
    /// `estimates[i]` must be the interpolator's prediction for `i + min`
    /// replicas … one entry per candidate size in
    /// `[min_replicas, max_replicas]`.
    ///
    /// # Panics
    ///
    /// Panics if `estimates` does not cover exactly the candidate range.
    pub fn decide(&mut self, current: usize, estimates: &[PerfEstimate]) -> ScalingDecision {
        let min = self.config.min_replicas;
        let max = self.config.max_replicas;
        assert_eq!(
            estimates.len(),
            max - min + 1,
            "need one estimate per candidate size in [{min}, {max}]"
        );
        let current = current.clamp(min, max);
        // Smallest size predicted to hold the SLA with scale-up headroom;
        // saturate at max when nothing qualifies (overload: give it
        // everything we have).
        let needed = (min..=max)
            .find(|&n| self.within(&estimates[n - min], HEADROOM))
            .unwrap_or(max);
        if needed > current {
            self.down_streak = 0;
            return ScalingDecision::ScaleUp { target: needed };
        }
        // Scale down only when one-fewer replicas would still hold the SLA
        // with the stricter margin, observed for `patience` intervals.
        if current > min && self.within(&estimates[current - 1 - min], SCALE_DOWN_HEADROOM) {
            self.down_streak += 1;
            if self.down_streak >= self.config.scale_down_patience {
                self.down_streak = 0;
                return ScalingDecision::ScaleDown {
                    target: current - 1,
                };
            }
        } else {
            self.down_streak = 0;
        }
        ScalingDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_metrics::SimDuration;

    fn sla() -> SlaSpec {
        // TTFT ≤ 10 s, MTPOT ≤ 1 s.
        SlaSpec::new(SimDuration::from_secs(10), SimDuration::from_secs(1))
    }

    fn ok(ttft: f64, tpot: f64) -> PerfEstimate {
        PerfEstimate {
            ttft_secs: ttft,
            tpot_secs: tpot,
            concurrency: 1.0,
            utilization: 0.5,
            feasible: true,
        }
    }

    fn overloaded() -> PerfEstimate {
        PerfEstimate {
            ttft_secs: 1e6,
            tpot_secs: 10.0,
            concurrency: 100.0,
            utilization: 2.0,
            feasible: false,
        }
    }

    #[test]
    fn scales_up_immediately_to_needed_count() {
        let mut p = ScalingPolicy::new(PolicyConfig::bounded(1, 4), sla());
        // 1..=2 replicas overloaded, 3 fine, 4 fine.
        let estimates = [overloaded(), overloaded(), ok(2.0, 0.1), ok(1.0, 0.05)];
        assert_eq!(
            p.decide(1, &estimates),
            ScalingDecision::ScaleUp { target: 3 }
        );
    }

    #[test]
    fn saturates_at_max_under_hopeless_load() {
        let mut p = ScalingPolicy::new(PolicyConfig::bounded(1, 3), sla());
        let estimates = [overloaded(), overloaded(), overloaded()];
        assert_eq!(
            p.decide(1, &estimates),
            ScalingDecision::ScaleUp { target: 3 }
        );
        // Already at max: hold, not flap.
        assert_eq!(p.decide(3, &estimates), ScalingDecision::Hold);
    }

    #[test]
    fn scale_down_waits_for_patience() {
        let mut p = ScalingPolicy::new(PolicyConfig::bounded(1, 4), sla());
        // Everything is comfortably idle.
        let estimates = [ok(0.5, 0.05), ok(0.4, 0.04), ok(0.3, 0.03), ok(0.2, 0.02)];
        assert_eq!(p.decide(3, &estimates), ScalingDecision::Hold);
        assert_eq!(p.decide(3, &estimates), ScalingDecision::Hold);
        assert_eq!(
            p.decide(3, &estimates),
            ScalingDecision::ScaleDown { target: 2 }
        );
        // Streak resets after the step: two more holds before the next.
        assert_eq!(p.decide(2, &estimates), ScalingDecision::Hold);
        assert_eq!(p.decide(2, &estimates), ScalingDecision::Hold);
        assert_eq!(
            p.decide(2, &estimates),
            ScalingDecision::ScaleDown { target: 1 }
        );
        // Never below min.
        assert_eq!(p.decide(1, &estimates), ScalingDecision::Hold);
    }

    #[test]
    fn borderline_load_does_not_flap() {
        // The smaller fleet holds the SLA with plain headroom but not the
        // stricter scale-down margin: policy must hold, not oscillate.
        let mut p = ScalingPolicy::new(PolicyConfig::bounded(1, 2), sla());
        // 1 replica: ttft 7 s ≤ 8 (headroom 0.8 × 10) but > 5 (0.5 × 10).
        let estimates = [ok(7.0, 0.1), ok(1.0, 0.05)];
        for _ in 0..20 {
            assert_eq!(p.decide(2, &estimates), ScalingDecision::Hold);
        }
    }

    #[test]
    fn interrupted_streak_resets() {
        let mut p = ScalingPolicy::new(PolicyConfig::bounded(1, 2), sla());
        let idle = [ok(0.5, 0.05), ok(0.2, 0.02)];
        let busy = [ok(7.0, 0.1), ok(2.0, 0.05)];
        assert_eq!(p.decide(2, &idle), ScalingDecision::Hold);
        assert_eq!(p.decide(2, &idle), ScalingDecision::Hold);
        // A busy interval wipes the streak.
        assert_eq!(p.decide(2, &busy), ScalingDecision::Hold);
        assert_eq!(p.decide(2, &idle), ScalingDecision::Hold);
        assert_eq!(p.decide(2, &idle), ScalingDecision::Hold);
        assert_eq!(p.decide(2, &idle), ScalingDecision::ScaleDown { target: 1 });
    }

    #[test]
    fn tpot_violation_forces_scale_up() {
        let mut p = ScalingPolicy::new(PolicyConfig::bounded(1, 2), sla());
        // TTFT fine everywhere, TPOT blown on one replica.
        let estimates = [ok(0.5, 2.0), ok(0.4, 0.1)];
        assert_eq!(
            p.decide(1, &estimates),
            ScalingDecision::ScaleUp { target: 2 }
        );
    }

    #[test]
    #[should_panic(expected = "one estimate per candidate")]
    fn wrong_estimate_count_panics() {
        let mut p = ScalingPolicy::new(PolicyConfig::bounded(1, 4), sla());
        let _ = p.decide(1, &[ok(1.0, 0.1)]);
    }

    #[test]
    #[should_panic(expected = "min_replicas must be at least 1")]
    fn zero_min_panics() {
        let _ = PolicyConfig::bounded(0, 3);
    }
}
