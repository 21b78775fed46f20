//! SLA-driven elastic autoscaling for LLM serving fleets.
//!
//! The paper's §7 future work proposes using the Past-Future scheduler's
//! accurate per-batch memory estimates as a load signal *beyond* a single
//! instance. This crate is the production-scale version of that idea (in
//! the spirit of NVIDIA Dynamo's SLA-based planner): a control loop that
//! sizes a fleet of identical serving replicas so that predicted TTFT and
//! TPOT stay inside an SLA while provisioning as few GPU-seconds as
//! possible.
//!
//! # The pipeline: predictor → interpolator → policy
//!
//! Each adjustment interval, the [`AutoscalePlanner`] runs three stages:
//!
//! 1. **Predict** ([`LoadPredictor`]): sliding
//!    [`ObservationWindow`](pf_metrics::ObservationWindow)s summarize the
//!    interval that just ended into a [`LoadSample`] — request rate, mean
//!    prompt length, mean output length — and a forecaster
//!    ([`PredictorKind::Constant`], [`PredictorKind::Ewma`], or
//!    [`PredictorKind::HoltWinters`] with trend and additive seasonality,
//!    each with fixed smoothing factors) extrapolates the next interval.
//!    Seasonal forecasting lets the fleet scale *ahead of* a diurnal peak
//!    instead of chasing it.
//! 2. **Interpolate** ([`PerfInterpolator`]): for every candidate fleet
//!    size, map the forecast load to expected TTFT/TPOT using a
//!    [`StepLatency`] model (in the simulator, a wrapper over the
//!    roofline `PerfModel`),
//!    via a Little's-law fixed point for decode concurrency and an
//!    M/M/1-shaped queueing term for admission wait. Multiplicative
//!    correction factors, updated from observed-versus-predicted error
//!    every interval, absorb the sketch's systematic bias.
//! 3. **Decide** ([`ScalingPolicy`]): pick the smallest fleet whose
//!    predicted latency holds the [`SlaSpec`](pf_metrics::SlaSpec) within
//!    80% of each limit. Scale-up jumps straight to the required count;
//!    scale-down requires the smaller fleet within 50% for
//!    `scale_down_patience` consecutive intervals and then releases one
//!    replica at a time (asymmetric hysteresis — the cost of
//!    under-provisioning is SLA burn plus a warm-up delay, the cost of
//!    over-provisioning is only GPU-seconds).
//!
//! The planner forecasts `ceil(warmup / interval) + 1` steps ahead and
//! provisions against the *horizon maximum*: capacity ordered now serves
//! traffic only after the warm-up delay, so sizing for the one-step
//! forecast alone would chronically lag step bursts.
//!
//! For disaggregated (DistServe/Dynamo-style) fleets, build one planner
//! per pool with [`AutoscalePlanner::new`]: a [`PoolRole::Prefill`]
//! planner reads the TTFT-bound column of the interpolator (M/M/1 queue of
//! prefill passes) and a [`PoolRole::Decode`] planner the TPOT-bound
//! column (the decode fixed point), so each pool is sized against exactly
//! the SLA term its stage controls.
//!
//! The crate is deliberately simulator-agnostic: it depends only on
//! `pf-metrics` and sees the serving system through the [`StepLatency`]
//! trait and the planner's event stream. `pf-sim`'s `ElasticCluster` wires
//! it to the discrete-event engine; a real deployment would wire it to
//! Prometheus counters and a Kubernetes replica set.
//!
//! # Example
//!
//! ```
//! use pf_autoscale::{
//!     AutoscaleConfig, AutoscalePlanner, PoolRole, PredictorKind, ScalingDecision, StepLatency,
//! };
//! use pf_metrics::{SimDuration, SimTime, SlaSpec};
//!
//! // A toy replica: flat 50 ms prefill, decode step linear in batch/KV.
//! struct Toy;
//! impl StepLatency for Toy {
//!     fn prefill_secs(&self, _: u64) -> f64 { 0.05 }
//!     fn decode_secs(&self, b: u64, kv: u64) -> f64 {
//!         0.02 + b as f64 * 1e-4 + kv as f64 * 1e-6
//!     }
//!     fn kv_capacity_tokens(&self) -> u64 { 20_000 }
//! }
//!
//! let config = AutoscaleConfig::bounded(1, 8)
//!     .interval(SimDuration::from_secs(10))
//!     .predictor(PredictorKind::holt());
//! let mut planner = AutoscalePlanner::new(config, SlaSpec::chat_7b(), Toy, PoolRole::Colocated);
//!
//! // A burst of arrivals in the first interval...
//! for i in 0..200 {
//!     planner.on_request_arrival(SimTime::from_millis(50 * i), 256);
//! }
//! // ...forces a scale-up decision.
//! let outcome = planner.plan(SimTime::from_secs(10), 1, 0);
//! assert!(matches!(outcome.decision, ScalingDecision::ScaleUp { .. }));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod interp;
mod load;
mod planner;
mod policy;
mod predictor;

pub use config::AutoscaleConfig;
pub use interp::{PerfEstimate, PerfInterpolator, PoolRole, StepLatency};
pub use load::LoadSample;
pub use planner::{AutoscalePlanner, PlanOutcome};
pub use policy::{PolicyConfig, ScalingDecision, ScalingPolicy};
pub use predictor::{LoadPredictor, PredictorKind};
