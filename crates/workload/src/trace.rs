//! Synthetic request traces with controlled distribution drift.
//!
//! Figures 3 and 4 of the paper study how the *output-length distribution*
//! of a service changes across time windows: single-service traces (chat,
//! code completion) are close to stationary, while API traces mix several
//! task types whose proportions drift over hours. The crucial property for
//! the Past-Future scheduler is that **adjacent** windows stay similar even
//! when distant windows do not.
//!
//! We cannot ship BurstGPT/Mooncake, so each archetype below is a generator
//! whose *windowed histogram structure* mirrors the corresponding trace
//! family: a base mixture of task types plus a slow, seeded drift process on
//! the mixture weights and location parameters.

use rand::Rng;

use crate::rng::{derive_seed, seeded};
use crate::sampler::LengthSampler;

/// Trace families studied in Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceArchetype {
    /// BurstGPT (a): end-user conversation service. Near-stationary.
    Conversation,
    /// BurstGPT (b): API service mixing several task types whose
    /// proportions drift over hours — globally non-stationary, locally
    /// stable.
    ApiService,
    /// In-house dialog service (c).
    InhouseDialogA,
    /// In-house dialog service (d), longer-form.
    InhouseDialogB,
    /// In-house code-completion service (e): mostly short completions.
    CodeCompletion,
    /// Mooncake-style long-context dialog trace (f).
    Mooncake,
}

impl TraceArchetype {
    /// All archetypes in the order of the paper's Figure 3 panels (a)–(f).
    pub const ALL: [TraceArchetype; 6] = [
        TraceArchetype::Conversation,
        TraceArchetype::ApiService,
        TraceArchetype::InhouseDialogA,
        TraceArchetype::InhouseDialogB,
        TraceArchetype::CodeCompletion,
        TraceArchetype::Mooncake,
    ];

    /// Short label used in figures and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            TraceArchetype::Conversation => "conversation",
            TraceArchetype::ApiService => "api",
            TraceArchetype::InhouseDialogA => "dialog-a",
            TraceArchetype::InhouseDialogB => "dialog-b",
            TraceArchetype::CodeCompletion => "code",
            TraceArchetype::Mooncake => "mooncake",
        }
    }

    /// True when the paper reports the trace as globally near-stationary
    /// (every window resembles every other, not just adjacent ones).
    pub fn is_globally_stable(self) -> bool {
        !matches!(self, TraceArchetype::ApiService)
    }
}

/// Generates `n` request output lengths in arrival order.
///
/// The generator is deterministic in `(archetype, n, seed)`.
pub fn generate_output_lengths(archetype: TraceArchetype, n: usize, seed: u64) -> Vec<u32> {
    let mut rng = seeded(derive_seed(seed, archetype as u64 + 10));
    let mut drift = DriftProcess::new(archetype, derive_seed(seed, archetype as u64 + 500));
    (0..n)
        .map(|i| {
            let phase = i as f64 / n.max(1) as f64;
            drift.advance(&mut rng);
            sample_one(archetype, phase, &drift, &mut rng)
        })
        .collect()
}

/// Slowly varying latent state: a reflected random walk per mixture
/// component plus a deterministic diurnal phase.
#[derive(Debug, Clone)]
struct DriftProcess {
    /// Random-walk states in [0, 1], one per task type.
    walk: Vec<f64>,
    /// Per-step walk magnitude (larger = faster drift).
    step: f64,
    rng: rand::rngs::StdRng,
}

impl DriftProcess {
    fn new(archetype: TraceArchetype, seed: u64) -> Self {
        let (n_components, step) = match archetype {
            // API services drift the fastest (task-mix changes over hours).
            TraceArchetype::ApiService => (4, 8e-3),
            TraceArchetype::Conversation => (2, 4e-5),
            TraceArchetype::InhouseDialogA => (2, 6e-5),
            TraceArchetype::InhouseDialogB => (2, 8e-5),
            TraceArchetype::CodeCompletion => (2, 3e-5),
            TraceArchetype::Mooncake => (2, 5e-5),
        };
        DriftProcess {
            walk: vec![0.5; n_components],
            step,
            rng: seeded(seed),
        }
    }

    fn advance<R: Rng + ?Sized>(&mut self, _outer: &mut R) {
        for w in &mut self.walk {
            let delta = (self.rng.gen::<f64>() - 0.5) * 2.0 * self.step;
            let mut next = *w + delta;
            // Reflect at the boundaries to keep the walk in [0, 1].
            if next < 0.0 {
                next = -next;
            }
            if next > 1.0 {
                next = 2.0 - next;
            }
            *w = next;
        }
    }

    fn weight(&self, i: usize) -> f64 {
        self.walk[i % self.walk.len()]
    }
}

fn sample_one(
    archetype: TraceArchetype,
    phase: f64,
    drift: &DriftProcess,
    rng: &mut rand::rngs::StdRng,
) -> u32 {
    use std::f64::consts::TAU;
    match archetype {
        TraceArchetype::Conversation => {
            // Single service: log-normal whose median breathes ±10% over a
            // diurnal cycle; windows everywhere look alike.
            let median = 260.0 * (1.0 + 0.10 * (TAU * phase * 2.0).sin());
            LengthSampler::log_normal_median(median, 0.85, 2, 4096).sample(rng)
        }
        TraceArchetype::ApiService => {
            // Four task types with drifting proportions: short extraction,
            // classification, chat, long generation. Adjacent windows share
            // the walk state; distant windows do not.
            // Squaring the walk state sharpens the contrast between
            // dominant and dormant task types, so the global mix genuinely
            // changes while adjacent windows still share the walk state.
            let w = [
                0.02 + drift.weight(0).powi(2),
                0.02 + drift.weight(1).powi(2),
                0.02 + drift.weight(2).powi(2),
                0.02 + drift.weight(3).powi(2),
            ];
            let mixture = LengthSampler::mixture(vec![
                (w[0], LengthSampler::uniform(1, 24)),
                (w[1], LengthSampler::uniform(1, 4)),
                (w[2], LengthSampler::log_normal_median(280.0, 0.7, 8, 2048)),
                (
                    w[3],
                    LengthSampler::log_normal_median(1200.0, 0.5, 256, 8192),
                ),
            ]);
            mixture.sample(rng)
        }
        TraceArchetype::InhouseDialogA => {
            let median = 300.0 * (1.0 + 0.12 * (TAU * (phase * 1.5 + drift.weight(0))).sin());
            LengthSampler::log_normal_median(median, 0.8, 2, 4096).sample(rng)
        }
        TraceArchetype::InhouseDialogB => {
            let median = 600.0 * (1.0 + 0.15 * (TAU * (phase * 1.2 + drift.weight(1))).cos());
            LengthSampler::log_normal_median(median, 0.7, 4, 8192).sample(rng)
        }
        TraceArchetype::CodeCompletion => {
            // Mostly short completions with a stable minority of long ones.
            let long_w = 0.12 + 0.05 * drift.weight(0);
            LengthSampler::mixture(vec![
                (
                    1.0 - long_w,
                    LengthSampler::log_normal_median(28.0, 0.6, 1, 256),
                ),
                (
                    long_w,
                    LengthSampler::log_normal_median(220.0, 0.5, 64, 1024),
                ),
            ])
            .sample(rng)
        }
        TraceArchetype::Mooncake => {
            let median = 420.0 * (1.0 + 0.08 * (TAU * phase).sin());
            LengthSampler::log_normal_median(median, 0.75, 8, 8192).sample(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_metrics::{Binning, WindowedLengths};

    #[test]
    fn traces_are_deterministic() {
        for archetype in TraceArchetype::ALL {
            let a = generate_output_lengths(archetype, 500, 7);
            let b = generate_output_lengths(archetype, 500, 7);
            assert_eq!(a, b, "{archetype:?} not deterministic");
            let c = generate_output_lengths(archetype, 500, 8);
            assert_ne!(a, c, "{archetype:?} ignores seed");
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<&str> =
            TraceArchetype::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), TraceArchetype::ALL.len());
    }

    /// The paper's core observation (Figure 3): adjacent windows are always
    /// similar; for the API archetype distant windows are noticeably less
    /// similar than adjacent ones.
    #[test]
    fn adjacent_windows_stay_similar() {
        for archetype in TraceArchetype::ALL {
            let lengths = generate_output_lengths(archetype, 20_000, 11);
            let windows = WindowedLengths::partition(&lengths, 1000, Binning::Log2);
            let m = windows.similarity_matrix();
            let diag = m.diagonal_mean().unwrap();
            assert!(
                diag > 0.80,
                "{archetype:?}: adjacent-window similarity too low: {diag}"
            );
        }
    }

    #[test]
    fn api_trace_drifts_globally() {
        let lengths = generate_output_lengths(TraceArchetype::ApiService, 40_000, 13);
        let windows = WindowedLengths::partition(&lengths, 1000, Binning::Log2);
        let m = windows.similarity_matrix();
        let diag = m.diagonal_mean().unwrap();
        let global = m.off_diagonal_mean().unwrap();
        assert!(
            diag - global > 0.03,
            "API diagonal ({diag}) should clearly beat global ({global})"
        );
    }

    #[test]
    fn conversation_trace_is_globally_stable() {
        let lengths = generate_output_lengths(TraceArchetype::Conversation, 30_000, 17);
        let windows = WindowedLengths::partition(&lengths, 1000, Binning::Log2);
        let m = windows.similarity_matrix();
        let global = m.off_diagonal_mean().unwrap();
        assert!(
            global > 0.90,
            "conversation global similarity {global} too low"
        );
    }

    #[test]
    fn code_trace_is_short_output() {
        let lengths = generate_output_lengths(TraceArchetype::CodeCompletion, 5000, 3);
        let mean = lengths.iter().map(|&v| v as f64).sum::<f64>() / lengths.len() as f64;
        assert!(mean < 120.0, "code completions too long on average: {mean}");
    }
}
