//! Multi-instance serving with estimate-driven request forwarding.
//!
//! The paper's future-work section (§7) proposes using the Past-Future
//! scheduler's accurate per-batch memory estimates to *forward requests to
//! under-utilized service instances*. This module implements that idea as a
//! co-simulation: several independent engines advance on one global
//! clock, and a front-end [`RouterPolicy`] assigns each arriving request to
//! an instance using the state visible at arrival time. (The engines
//! themselves are internal; the public surface is [`ClusterSimulation`].)
//!
//! A fixed fleet is a fleet with no planner: [`ClusterSimulation`] runs
//! the crate's one event loop, the event heap behind the single engine
//! and the elastic and disaggregated fleets too, with every instance live
//! at t=0 and no planning rounds, and reports the [`FleetReport`] they
//! all share ([`ClusterSimulation::run_workload`]).
//!
//! Routing signals, from least to most informed:
//!
//! * [`RouterPolicy::RoundRobin`] — no state;
//! * [`RouterPolicy::LeastOutstanding`] — queue + batch length (classic
//!   join-shortest-queue);
//! * [`RouterPolicy::LeastUsedMemory`] — current KV occupancy (what an
//!   aggressive scheduler can report);
//! * [`RouterPolicy::LeastEstimatedLoad`] — the future-required-memory
//!   estimate of the running batch plus the expected footprint of the
//!   queue — the paper's proposal;
//! * [`RouterPolicy::PrefixAffinity`] — KV-aware routing (NVIDIA
//!   Dynamo-style): steer each request to the live instance holding the
//!   longest cached prefix of its prompt, falling back to
//!   least-estimated-load below a match threshold. Pays off only with
//!   instances configured with a prefix cache
//!   ([`crate::SimConfigBuilder::prefix_cache`]) and workloads carrying
//!   prefix structure ([`pf_workload::datasets::multi_turn_chat`]);
//!   without a cache every match is 0 and it routes on load;
//! * [`RouterPolicy::KvOverlap`] — block-granular overlap scoring that
//!   trades estimated load against the cached overlap through a cost
//!   logit with optional softmax temperature. Requires a prefix cache
//!   ([`crate::SimConfigBuilder::prefix_cache`], or
//!   [`crate::SimConfigBuilder::prefix_cache_blocks`] for another block
//!   size): a fleet without one is rejected with
//!   [`SimError::InvalidRouterPolicy`] before its first event.
//!
//! Both overlap policies read one *global event-fed KV index*
//! ([`pf_kvcache::KvIndexer`]): engines publish block stored/removed
//! events, which become visible after the configured propagation delay
//! ([`crate::RouterConfig::kv_event_delay`]; zero, the default, mirrors
//! every store exactly). No policy probes an engine's store directly.
//!
//! All load-based policies break exact ties with a deterministic rotating
//! cursor rather than by lowest index — equal-load instances (the steady
//! state right after warm-up) would otherwise pile the traffic onto
//! member 0.
//!
//! # Example
//!
//! ```
//! use pf_core::SchedulerConfig;
//! use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
//! use pf_sim::{GpuSpec, ModelSpec, SimConfig, Workload};
//! use pf_workload::datasets;
//! use pf_metrics::SimTime;
//!
//! let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
//!     .scheduler(SchedulerConfig::past_future())
//!     .capacity_override(20_000)
//!     .record_series(false)
//!     .build();
//! let requests = datasets::sharegpt(48, 1);
//! let arrivals = (0..48).map(|i| SimTime::from_millis(100 * i)).collect();
//! let report = ClusterSimulation::new(config, 3, RouterPolicy::LeastEstimatedLoad)
//!     .run_workload(Workload::Timed(requests, arrivals), None)?;
//! assert_eq!(report.headline().completed, 48);
//! # Ok::<(), pf_sim::SimError>(())
//! ```

use pf_metrics::{SimDuration, SimTime};
use pf_obs::TraceSink;
use pf_workload::RequestSpec;

use crate::config::{PrefixCacheConfig, SimConfig};
use crate::driver::Run;
use crate::error::SimError;
use crate::fleet::{GpuType, Pool};
use crate::report::{FleetReport, SimReport};
use crate::simulation::Workload;

/// Request-forwarding policy of the cluster front end.
///
/// `Eq`/`Hash` are implemented manually (bitwise on the float fields of
/// [`RouterPolicy::KvOverlap`]). Every fleet run rejects a non-finite
/// `KvOverlap` weight or temperature, and `KvOverlap` without a prefix
/// cache, with [`SimError::InvalidRouterPolicy`] before its first event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouterPolicy {
    /// Cycle through instances regardless of load.
    RoundRobin,
    /// Fewest in-flight plus queued requests.
    LeastOutstanding,
    /// Lowest current KV-cache occupancy.
    LeastUsedMemory,
    /// Lowest estimated total load: future required memory of the running
    /// batch plus expected queue footprint (the paper's §7 proposal).
    ///
    /// Not yet the paper's signal: the running-batch term evaluates Eq.
    /// 2–4 over the batch's *ground-truth* output lengths (an oracle no
    /// real router has), where the paper routes on the history-based
    /// estimate.
    LeastEstimatedLoad,
    /// KV-aware prefix affinity: the live instance holding the longest
    /// cached prefix of the request's prompt *according to the event-fed
    /// [`pf_kvcache::KvIndexer`]* wins, provided the overlap reaches
    /// [`crate::fleet::PREFIX_MATCH_MIN_TOKENS`]; otherwise (and among
    /// equal-length matches) the decision falls back to load. When
    /// requests carry deadlines, each candidate's load also carries its
    /// queue's remaining-slack pressure (weighted by
    /// [`crate::fleet::SLACK_PRESSURE_WEIGHT`]), so queues full of urgent
    /// work attract less new traffic; deadline-free runs are unaffected.
    PrefixAffinity {
        /// `true` breaks equal-match ties by least estimated load;
        /// `false` breaks them with the rotating cursor only.
        load_tiebreak: bool,
    },
    /// Block-granular overlap-scored routing over a *global* KV index
    /// (NVIDIA Dynamo-style): each live instance is scored with the cost
    /// logit
    ///
    /// ```text
    /// cost = (load_estimate + slack_weight * pressure) / perf_scale
    ///        - overlap_weight * overlap_tokens / prompt_tokens
    /// ```
    ///
    /// where `overlap_tokens` is the request's longest chained-block run
    /// held by the instance *according to the event-fed
    /// [`pf_kvcache::KvIndexer`]* (stale by the configured
    /// [`crate::fleet::RouterConfig::kv_event_delay`], the same view
    /// [`RouterPolicy::PrefixAffinity`] reads). With
    /// `temperature <= 0` the lowest cost wins deterministically and no
    /// randomness is consumed — `overlap_weight` 0 then replays
    /// [`RouterPolicy::LeastEstimatedLoad`] bit-for-bit on deadline-free
    /// runs; a positive temperature samples instance `i` with probability
    /// proportional to `exp(-cost_i / temperature)` from a dedicated
    /// deterministic stream.
    KvOverlap {
        /// Reward (in the load signal's token units) for a full-prompt
        /// overlap; partial overlaps scale linearly.
        overlap_weight: f64,
        /// Softmax temperature; `<= 0` degrades to argmin.
        temperature: f64,
    },
}

impl Eq for RouterPolicy {}

impl std::hash::Hash for RouterPolicy {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            RouterPolicy::PrefixAffinity { load_tiebreak } => load_tiebreak.hash(state),
            RouterPolicy::KvOverlap {
                overlap_weight,
                temperature,
            } => {
                overlap_weight.to_bits().hash(state);
                temperature.to_bits().hash(state);
            }
            _ => {}
        }
    }
}

impl RouterPolicy {
    /// Every policy that runs without a prefix cache, for sweeps: all but
    /// [`RouterPolicy::KvOverlap`], which needs one.
    pub const ALL: [RouterPolicy; 5] = [
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastOutstanding,
        RouterPolicy::LeastUsedMemory,
        RouterPolicy::LeastEstimatedLoad,
        RouterPolicy::PrefixAffinity {
            load_tiebreak: true,
        },
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::LeastOutstanding => "least-outstanding",
            RouterPolicy::LeastUsedMemory => "least-used-memory",
            RouterPolicy::LeastEstimatedLoad => "least-estimated-load",
            RouterPolicy::PrefixAffinity { .. } => "prefix-affinity",
            RouterPolicy::KvOverlap { .. } => "kv-overlap",
        }
    }

    /// Rejects a [`RouterPolicy::KvOverlap`] that cannot route
    /// meaningfully: a NaN weight makes every cost NaN and routing
    /// degrades to round-robin, a NaN temperature routes every request to
    /// the last candidate, and without a prefix cache (`prefix_cache`, the
    /// routing layer's config) every overlap reads 0 and the policy
    /// silently routes on load alone.
    pub(crate) fn check(self, prefix_cache: Option<PrefixCacheConfig>) -> Result<(), SimError> {
        if let RouterPolicy::KvOverlap {
            overlap_weight,
            temperature,
        } = self
        {
            for (parameter, value) in [
                ("overlap_weight", overlap_weight),
                ("temperature", temperature),
            ] {
                if !value.is_finite() {
                    return Err(SimError::InvalidRouterPolicy { parameter });
                }
            }
            if prefix_cache.is_none() {
                return Err(SimError::InvalidRouterPolicy {
                    parameter: "prefix_cache",
                });
            }
        }
        Ok(())
    }
}

/// A cluster of identical serving instances behind one router.
#[derive(Debug)]
pub struct ClusterSimulation {
    configs: Vec<SimConfig>,
    policy: RouterPolicy,
}

impl ClusterSimulation {
    /// Creates a cluster of `n_instances` copies of `config` routed by
    /// `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `n_instances` is zero.
    pub fn new(config: SimConfig, n_instances: usize, policy: RouterPolicy) -> Self {
        assert!(n_instances > 0, "cluster needs at least one instance");
        let configs = (0..n_instances)
            .map(|i| {
                let mut config = config.clone();
                // Independent sampling streams per instance.
                config.seed = config.seed.wrapping_add(i as u64);
                config
            })
            .collect();
        ClusterSimulation { configs, policy }
    }

    /// Creates a cluster from per-instance configurations — a mixed fleet
    /// (different GPUs, different co-tenant memory budgets) is exactly the
    /// setting where load-aware forwarding matters.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn heterogeneous(configs: Vec<SimConfig>, policy: RouterPolicy) -> Self {
        assert!(!configs.is_empty(), "cluster needs at least one instance");
        ClusterSimulation { configs, policy }
    }

    /// Runs the cluster against a timed arrival stream (one timestamp per
    /// request, non-decreasing).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the arrival stream is malformed
    /// ([`SimError::InvalidWorkload`]), any request cannot fit an
    /// instance, an instance stalls, a scheduler, prefix-cache or engine
    /// parameter is out of range ([`SimError::InvalidScheduler`],
    /// [`SimError::InvalidPrefixCache`], [`SimError::InvalidEngine`],
    /// [`SimError::InvalidHardware`]), or the policy cannot run on the
    /// fleet ([`SimError::InvalidRouterPolicy`]).
    pub fn run(
        self,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
    ) -> Result<ClusterReport, SimError> {
        self.run_traced(requests, arrival_times, None)
    }

    /// [`ClusterSimulation::run`] with an optional [`TraceSink`] (see
    /// [`ClusterSimulation::run_workload`]).
    ///
    /// # Errors
    ///
    /// As [`ClusterSimulation::run`].
    pub fn run_traced(
        self,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<ClusterReport, SimError> {
        let report = self.run_workload(Workload::Timed(requests, arrival_times), sink)?;
        Ok(report.into())
    }

    /// Runs the cluster against `workload`, with an optional [`TraceSink`]
    /// receiving every per-instance lifecycle event (instances are
    /// numbered in construction order).
    ///
    /// # Errors
    ///
    /// As [`ClusterSimulation::run`].
    pub fn run_workload(
        self,
        workload: Workload,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<FleetReport, SimError> {
        let base = self.configs[0].clone();
        let initial = self
            .configs
            .into_iter()
            .map(|config| (config, GpuType::reference()))
            .collect();
        let pools = [
            Pool::new(pf_obs::Pool::Colocated, Vec::new(), None),
            Pool::new(pf_obs::Pool::Decode, Vec::new(), None),
        ];
        let initial = [initial, Vec::new()];
        Run::start(pools, base, initial, self.policy, None, workload, sink)?.drive()
    }
}

/// What [`ClusterSimulation::run`] returns: the members' engine reports,
/// and the fleet's makespan and goodput. It is kept only because the
/// frozen benchmark reads it; ROADMAP item 9 retires it for
/// [`FleetReport`], which [`ClusterSimulation::run_workload`] returns.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-instance engine reports.
    pub instances: Vec<SimReport>,
    makespan: SimDuration,
    goodput_tok_per_s: f64,
}

impl From<FleetReport> for ClusterReport {
    fn from(report: FleetReport) -> Self {
        ClusterReport {
            goodput_tok_per_s: report.goodput_tok_per_s(),
            makespan: report.makespan,
            instances: report.instances.into_iter().map(|m| m.report).collect(),
        }
    }
}

impl ClusterReport {
    /// The run's end ([`FleetReport::makespan`]).
    pub fn makespan(&self) -> SimDuration {
        self.makespan
    }

    /// The fleet's goodput ([`FleetReport::goodput_tok_per_s`]).
    pub fn goodput_tok_per_s(&self) -> f64 {
        self.goodput_tok_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuSpec, ModelSpec};
    use pf_core::SchedulerConfig;
    use pf_workload::{datasets, LengthSampler};

    fn base_config(capacity: u64) -> SimConfig {
        SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .scheduler(SchedulerConfig::past_future())
            .capacity_override(capacity)
            .record_series(false)
            .seed(5)
            .build()
    }

    /// Highly skewed request sizes make load-aware routing matter.
    fn skewed_requests(n: usize, seed: u64) -> Vec<RequestSpec> {
        let input = LengthSampler::uniform(16, 64);
        let output = LengthSampler::mixture(vec![
            (0.7, LengthSampler::uniform(16, 64)),
            (0.3, LengthSampler::uniform(512, 1024)),
        ]);
        datasets::from_samplers(n, seed, &input, &output, 1024)
    }

    fn burst_arrivals(n: usize, gap_ms: u64) -> Vec<SimTime> {
        (0..n)
            .map(|i| SimTime::from_millis(gap_ms * i as u64))
            .collect()
    }

    /// `requests` arriving `gap_ms` apart.
    fn burst(requests: Vec<RequestSpec>, gap_ms: u64) -> Workload {
        let arrivals = burst_arrivals(requests.len(), gap_ms);
        Workload::Timed(requests, arrivals)
    }

    fn routed(report: &FleetReport) -> Vec<usize> {
        report.instances.iter().map(|m| m.routed).collect()
    }

    #[test]
    fn cluster_completes_everything_under_every_policy() {
        for policy in RouterPolicy::ALL {
            let report = ClusterSimulation::new(base_config(8_000), 3, policy)
                .run_workload(burst(skewed_requests(90, 1), 50), None)
                .unwrap_or_else(|e| panic!("{}: {e}", policy.label()));
            assert_eq!(report.headline().completed, 90, "{}", policy.label());
            assert_eq!(report.instances.len(), 3);
            assert_eq!(routed(&report).iter().sum::<usize>(), 90);
        }
    }

    #[test]
    fn round_robin_balances_by_count() {
        let report = ClusterSimulation::new(base_config(8_000), 3, RouterPolicy::RoundRobin)
            .run_workload(burst(skewed_requests(90, 2), 50), None)
            .unwrap();
        assert_eq!(routed(&report), vec![30, 30, 30]);
    }

    #[test]
    fn load_aware_routing_beats_round_robin_on_makespan() {
        let requests = skewed_requests(120, 3);
        let arrivals = burst_arrivals(120, 20);
        let run = |policy| {
            ClusterSimulation::new(base_config(4_000), 4, policy)
                .run_workload(Workload::Timed(requests.clone(), arrivals.clone()), None)
                .unwrap()
        };
        let rr = run(RouterPolicy::RoundRobin);
        let load = run(RouterPolicy::LeastEstimatedLoad);
        assert!(
            load.makespan <= rr.makespan,
            "estimated-load routing ({}) should not lose to round-robin ({})",
            load.makespan,
            rr.makespan
        );
    }

    #[test]
    fn cluster_is_deterministic() {
        let run = || {
            ClusterSimulation::new(base_config(6_000), 2, RouterPolicy::LeastEstimatedLoad)
                .run_workload(burst(skewed_requests(60, 4), 100), None)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(routed(&a), routed(&b));
        assert_eq!(a.headline().evictions, b.headline().evictions);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_panics() {
        let _ = ClusterSimulation::new(base_config(1_000), 0, RouterPolicy::RoundRobin);
    }

    #[test]
    fn malformed_arrivals_are_an_invalid_workload() {
        let run = |arrivals| {
            ClusterSimulation::new(base_config(1_000), 1, RouterPolicy::RoundRobin)
                .run(skewed_requests(2, 7), arrivals)
                .unwrap_err()
        };
        assert_eq!(
            run(vec![SimTime::from_secs(1), SimTime::ZERO]),
            SimError::InvalidWorkload {
                reason: "arrival times must be sorted"
            }
        );
        assert_eq!(
            run(vec![SimTime::ZERO]),
            SimError::InvalidWorkload {
                reason: "one arrival time per request"
            }
        );
    }
}
