//! Declarative scheduler configuration.

use std::fmt;

use crate::aggressive::AggressiveScheduler;
use crate::conservative::ConservativeScheduler;
use crate::history::OutputLengthHistory;
use crate::past_future::PastFutureScheduler;
use crate::scheduler::Scheduler;

/// Serializable description of a scheduler, used by simulation configs and
/// the experiment harness to build fresh [`Scheduler`] instances per run.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerConfig {
    /// The paper's Past-Future scheduler (Algorithm 1).
    PastFuture {
        /// History window size (`w` in Eq. 1).
        window: usize,
        /// Reserved capacity fraction in `[0, 1)`.
        reserved_frac: f64,
        /// Sampling passes; the most conservative wins.
        sample_repeats: usize,
    },
    /// vLLM-style aggressive admission below a memory watermark.
    Aggressive {
        /// Watermark in `(0, 1]`.
        watermark: f64,
    },
    /// TGI-style conservative worst-case budgeting.
    Conservative {
        /// Overcommit factor ≥ 1.
        overcommit: f64,
    },
    /// Ground-truth oracle ("theoretical optimum").
    Oracle,
}

impl SchedulerConfig {
    /// Past-Future with the paper's defaults (window 1000, reserved 5%,
    /// 4 sampling passes).
    pub fn past_future() -> Self {
        SchedulerConfig::PastFuture {
            window: OutputLengthHistory::DEFAULT_WINDOW,
            reserved_frac: 0.05,
            sample_repeats: 4,
        }
    }

    /// Past-Future with an explicit reserved fraction.
    pub fn past_future_reserved(reserved_frac: f64) -> Self {
        SchedulerConfig::PastFuture {
            window: OutputLengthHistory::DEFAULT_WINDOW,
            reserved_frac,
            sample_repeats: 4,
        }
    }

    /// Aggressive with an explicit watermark.
    pub fn aggressive(watermark: f64) -> Self {
        SchedulerConfig::Aggressive { watermark }
    }

    /// Conservative without overcommit.
    pub fn conservative() -> Self {
        SchedulerConfig::Conservative { overcommit: 1.0 }
    }

    /// Conservative with overcommit.
    pub fn conservative_overcommit(overcommit: f64) -> Self {
        SchedulerConfig::Conservative { overcommit }
    }

    /// Instantiates the scheduler. `seed` feeds the Past-Future sampling
    /// passes; the other policies are deterministic and ignore it.
    pub fn build(&self, seed: u64) -> Box<dyn Scheduler> {
        match *self {
            SchedulerConfig::PastFuture {
                window,
                reserved_frac,
                sample_repeats,
            } => Box::new(PastFutureScheduler::new(
                window,
                reserved_frac,
                sample_repeats,
                seed,
            )),
            SchedulerConfig::Aggressive { watermark } => {
                Box::new(AggressiveScheduler::new(watermark))
            }
            SchedulerConfig::Conservative { overcommit } => {
                Box::new(ConservativeScheduler::new(overcommit))
            }
            SchedulerConfig::Oracle => Box::new(PastFutureScheduler::oracle()),
        }
    }

    /// Whether this configuration needs ground-truth output lengths from
    /// the engine (only the oracle does).
    pub fn needs_oracle(&self) -> bool {
        matches!(self, SchedulerConfig::Oracle)
    }
}

impl fmt::Display for SchedulerConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerConfig::PastFuture { reserved_frac, .. } => {
                write!(f, "past-future(reserved={:.0}%)", reserved_frac * 100.0)
            }
            SchedulerConfig::Aggressive { watermark } => {
                write!(f, "aggressive(watermark={:.0}%)", watermark * 100.0)
            }
            SchedulerConfig::Conservative { overcommit } => {
                if (overcommit - 1.0).abs() < f64::EPSILON {
                    write!(f, "conservative(no overcommit)")
                } else {
                    write!(f, "conservative(overcommit={:.0}%)", overcommit * 100.0)
                }
            }
            SchedulerConfig::Oracle => write!(f, "theoretical-optimum"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_matching_names() {
        for config in [
            SchedulerConfig::past_future(),
            SchedulerConfig::aggressive(0.95),
            SchedulerConfig::conservative(),
            SchedulerConfig::conservative_overcommit(1.5),
            SchedulerConfig::Oracle,
        ] {
            let scheduler = config.build(1);
            assert_eq!(scheduler.name(), config.to_string());
        }
    }

    #[test]
    fn only_oracle_needs_truth() {
        assert!(SchedulerConfig::Oracle.needs_oracle());
        assert!(!SchedulerConfig::past_future().needs_oracle());
        assert!(!SchedulerConfig::aggressive(0.9).needs_oracle());
        assert!(!SchedulerConfig::conservative().needs_oracle());
    }

    #[test]
    fn defaults_match_paper() {
        match SchedulerConfig::past_future() {
            SchedulerConfig::PastFuture {
                window,
                reserved_frac,
                sample_repeats,
            } => {
                assert_eq!(window, 1000);
                assert!((reserved_frac - 0.05).abs() < 1e-12);
                assert_eq!(sample_repeats, 4);
            }
            _ => unreachable!(),
        }
    }
}
