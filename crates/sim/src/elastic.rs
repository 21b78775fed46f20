//! Elastic multi-instance serving: the cluster grows and shrinks mid-run.
//!
//! [`ElasticCluster`] puts a control loop on a colocated fleet: an
//! [`pf_autoscale::AutoscalePlanner`] watches arrivals and completions
//! through sliding windows, forecasts the next adjustment interval, and
//! resizes the fleet —
//!
//! * **scale-up** provisions fresh instances that accept traffic only
//!   after a configurable *warm-up delay* (boot + weight load);
//! * **scale-down** runs the shared shrink pass of [`crate::fleet`]:
//!   cancel the newest warming instances first, then put live victims into
//!   a *draining* state — they finish their queued and running work but
//!   receive nothing new, and stop (and stop costing GPU-seconds) once
//!   empty.
//!
//! The fleet runs on the crate's one fleet driver, the event heap that
//! also runs [`crate::cluster::ClusterSimulation`] (a fleet with no
//! planner) and both disaggregated topologies; the member lifecycle
//! (warm-up, drain, stop, the cost ledger) is the [`crate::fleet`]
//! kernel. This module holds only the fleet's configuration: a run
//! returns the [`FleetReport`] every topology shares. A run ends at its
//! last served work: a fleet pinned at its initial size reports exactly
//! what the same fixed cluster reports.
//!
//! # Heterogeneous fleets
//!
//! [`ElasticCluster::fleet`] assigns a [`GpuType`] per provisioning slot:
//! slot `k` (the `k`-th simultaneously provisioned instance) runs on
//! `slots[k]`. A member's `perf_scale` multiplies its engine's kernel
//! speed, the router divides each member's load signal by it (a fast GPU
//! looks emptier than a slow one at equal queued work), the planner sizes
//! candidate fleets against the mean `perf_scale` of the slots they would
//! occupy, and the shrink pass releases the costliest members first.
//! Reports price every instance at its `cost_weight`
//! ([`FleetReport::headline`]'s `cost_weighted_gpu_seconds`).
//!
//! The front end routes every arriving request among the **live**
//! instances with a configurable [`RouterPolicy`] (default
//! [`RouterPolicy::LeastEstimatedLoad`] — the paper's §7 signal;
//! [`RouterPolicy::PrefixAffinity`] adds KV-aware prefix routing when the
//! base config enables a prefix cache); warming, draining and stopped
//! instances are never routed to. Exact load ties break with a rotating
//! cursor, not by lowest index. Member engines inherit the base config's
//! [`QueueOrder`](crate::QueueOrder), so deadline-slack-aware admission
//! (and its early-drop of doomed requests) works unchanged inside an
//! elastic fleet, and timed-out requests count as SLA
//! misses in the cluster-level goodput.
//!
//! The run is fully deterministic: one event heap orders engine steps,
//! arrivals and planning rounds, and all randomness is seeded.
//!
//! # Example
//!
//! ```
//! use pf_autoscale::AutoscaleConfig;
//! use pf_core::SchedulerConfig;
//! use pf_metrics::SimDuration;
//! use pf_sim::elastic::ElasticCluster;
//! use pf_sim::{GpuSpec, ModelSpec, SimConfig};
//! use pf_workload::{datasets, rng::seeded, RateProfile};
//!
//! let base = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
//!     .scheduler(SchedulerConfig::past_future())
//!     .capacity_override(12_000)
//!     .record_series(false)
//!     .build();
//! let autoscale = AutoscaleConfig::bounded(1, 4)
//!     .interval(SimDuration::from_secs(10))
//!     .warmup(SimDuration::from_secs(15));
//! let requests = datasets::sharegpt(120, 1);
//! let arrivals = RateProfile::diurnal(1.0, 6.0, SimDuration::from_secs(120))
//!     .assign(&mut seeded(2), 120);
//! let report = ElasticCluster::new(base, autoscale, 1)
//!     .run(requests, arrivals)?;
//! assert_eq!(report.headline().completed, 120);
//! assert!(report.gpu_seconds() > 0.0);
//! # Ok::<(), pf_sim::SimError>(())
//! ```

use pf_autoscale::{AutoscaleConfig, PoolRole};
use pf_metrics::SimTime;
use pf_obs::TraceSink;
use pf_workload::RequestSpec;

use crate::cluster::RouterPolicy;
use crate::config::SimConfig;
use crate::driver::{replicas, Run};
use crate::error::SimError;
use crate::fleet::{self, GpuType, Pool};
use crate::report::FleetReport;
use crate::simulation::Workload;

/// An elastic fleet of serving instances driven by an SLA-targeted
/// autoscaling planner (identical replicas by default; see
/// [`ElasticCluster::fleet`] for mixed GPU types).
#[derive(Debug)]
pub struct ElasticCluster {
    base: SimConfig,
    autoscale: AutoscaleConfig,
    initial_replicas: usize,
    router: RouterPolicy,
    slots: Vec<GpuType>,
}

impl ElasticCluster {
    /// Creates an elastic cluster starting with `initial_replicas` live
    /// copies of `base`, which must lie within the autoscale policy's
    /// `[min, max]` bounds (a run checks it: [`SimError::InvalidAutoscale`]).
    pub fn new(base: SimConfig, autoscale: AutoscaleConfig, initial_replicas: usize) -> Self {
        ElasticCluster {
            base,
            autoscale,
            initial_replicas,
            router: RouterPolicy::LeastEstimatedLoad,
            slots: Vec::new(),
        }
    }

    /// Sets the front-end routing policy (default
    /// [`RouterPolicy::LeastEstimatedLoad`]).
    pub fn router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Declares a heterogeneous fleet: provisioning slot `k` runs on
    /// `slots[k]` (slots past the end repeat the last entry). The default
    /// is a homogeneous fleet of [`GpuType::reference`] instances, which
    /// reproduces the single-type behavior bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn fleet(mut self, slots: Vec<GpuType>) -> Self {
        assert!(!slots.is_empty(), "a fleet needs at least one GPU type");
        self.slots = slots;
        self
    }

    /// Runs the elastic fleet against a timed arrival stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the arrival stream is malformed
    /// ([`SimError::InvalidWorkload`]), a request can never fit an
    /// instance, an instance stalls, a scheduler, prefix-cache, engine or
    /// GPU-type parameter is out of range ([`SimError::InvalidScheduler`],
    /// [`SimError::InvalidPrefixCache`], [`SimError::InvalidEngine`],
    /// [`SimError::InvalidHardware`]), the planner cannot run from the
    /// initial size ([`SimError::InvalidAutoscale`]),
    /// or the router policy cannot run on the fleet
    /// ([`SimError::InvalidRouterPolicy`]).
    pub fn run(
        self,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
    ) -> Result<FleetReport, SimError> {
        self.run_traced(requests, arrival_times, None)
    }

    /// [`ElasticCluster::run`] with an optional [`TraceSink`] (see
    /// [`ElasticCluster::run_workload`]).
    ///
    /// # Errors
    ///
    /// As [`ElasticCluster::run`].
    pub fn run_traced(
        self,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<FleetReport, SimError> {
        self.run_workload(Workload::Timed(requests, arrival_times), sink)
    }

    /// Runs the elastic fleet against `workload`, with an optional
    /// [`TraceSink`] receiving every member engine's lifecycle events plus
    /// fleet-level scaling events.
    ///
    /// # Errors
    ///
    /// As [`ElasticCluster::run`].
    pub fn run_workload(
        self,
        workload: Workload,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<FleetReport, SimError> {
        fleet::check_gpus(&self.slots)?;
        fleet::check_autoscale(&[(&self.autoscale, self.initial_replicas)])?;
        let planner = fleet::pool_planner(self.autoscale, &self.base, PoolRole::Colocated);
        let initial = replicas(&self.base, &self.slots, self.initial_replicas);
        let pools = [
            Pool::new(pf_obs::Pool::Colocated, self.slots, Some(planner)),
            Pool::new(pf_obs::Pool::Decode, Vec::new(), None),
        ];
        let initial = [initial, Vec::new()];
        Run::start(pools, self.base, initial, self.router, None, workload, sink)?.drive()
    }
}
