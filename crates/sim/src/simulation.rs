//! Simulation entry point, and the arrival disciplines every topology
//! serves.

use pf_metrics::SimTime;
use pf_obs::TraceSink;
use pf_workload::{ClosedLoopClients, RequestSpec};

use crate::cluster::{ClusterSimulation, RouterPolicy};
use crate::config::SimConfig;
use crate::error::SimError;
use crate::report::{FleetReport, SimReport};

/// The requests a run serves and when they arrive: the one arrival
/// discipline [`Simulation`] and every fleet type take.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Every request queued at t = 0 (the paper's ablation setting:
    /// Table 1, Figure 8).
    Offline(Vec<RequestSpec>),
    /// One arrival instant per request, in non-decreasing order (e.g. a
    /// Poisson open loop). A stream that breaks either rule is a
    /// [`SimError::InvalidWorkload`].
    Timed(Vec<RequestSpec>, Vec<SimTime>),
    /// Closed-loop clients: `n_clients` requests in flight at all times
    /// until the workload drains (the paper's goodput setting: Figures 7
    /// and 9). A client submits its next request the think time after its
    /// last one finishes or times out.
    ClosedLoop(Vec<RequestSpec>, ClosedLoopClients),
}

impl Workload {
    /// The requests, whatever their arrival discipline.
    pub fn requests(&self) -> &[RequestSpec] {
        match self {
            Workload::Offline(requests)
            | Workload::Timed(requests, _)
            | Workload::ClosedLoop(requests, _) => requests,
        }
    }
}

/// A configured simulation: a deployment ([`SimConfig`]) plus a
/// [`Workload`]. It runs on the fleet driver as a fleet of one engine.
///
/// # Example
///
/// ```
/// use pf_sim::{GpuSpec, ModelSpec, SimConfig, Simulation};
/// use pf_core::SchedulerConfig;
/// use pf_workload::datasets;
///
/// let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
///     .scheduler(SchedulerConfig::past_future())
///     .seed(1)
///     .build();
/// let requests = datasets::distribution_3(32, 1);
/// let report = Simulation::offline(config, requests).run()?;
/// assert_eq!(report.completed, 32);
/// # Ok::<(), pf_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    workload: Workload,
}

impl Simulation {
    /// One engine of `config` serving `workload`.
    pub fn new(config: SimConfig, workload: Workload) -> Self {
        Simulation { config, workload }
    }

    /// All requests available at time zero ([`Workload::Offline`]).
    pub fn offline(config: SimConfig, requests: Vec<RequestSpec>) -> Self {
        Simulation::new(config, Workload::Offline(requests))
    }

    /// Closed-loop clients ([`Workload::ClosedLoop`]).
    pub fn closed_loop(
        config: SimConfig,
        requests: Vec<RequestSpec>,
        clients: ClosedLoopClients,
    ) -> Self {
        Simulation::new(config, Workload::ClosedLoop(requests, clients))
    }

    /// Explicit arrival timestamps ([`Workload::Timed`]).
    pub fn with_arrivals(
        config: SimConfig,
        requests: Vec<RequestSpec>,
        times: Vec<SimTime>,
    ) -> Self {
        Simulation::new(config, Workload::Timed(requests, times))
    }

    /// The configuration this simulation will run with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation to completion (or to `max_sim_time`: the
    /// requests it cuts off, in flight or not yet arrived, count as
    /// unfinished).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the deployment cannot serve the workload:
    /// no KV capacity, a request that can never fit, a malformed workload,
    /// an out-of-range scheduler, prefix-cache or engine parameter
    /// ([`SimError::InvalidScheduler`], [`SimError::InvalidPrefixCache`],
    /// [`SimError::InvalidEngine`], [`SimError::InvalidHardware`]), or a
    /// scheduler stall.
    pub fn run(self) -> Result<SimReport, SimError> {
        self.run_traced(None)
    }

    /// [`Simulation::run`] with an optional [`TraceSink`] receiving every
    /// request lifecycle event ([`pf_obs::TraceEvent`]). With `None` this
    /// is exactly `run`: every emission site reduces to a branch on an
    /// empty option, so the untraced path stays allocation-free and the
    /// report bit-identical.
    ///
    /// # Errors
    ///
    /// As [`Simulation::run`].
    ///
    /// # Example
    ///
    /// ```
    /// use pf_obs::{RecordingSink, TraceEvent};
    /// use pf_sim::{GpuSpec, ModelSpec, SimConfig, Simulation};
    /// use pf_workload::datasets;
    ///
    /// let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
    ///     .seed(1)
    ///     .build();
    /// let requests = datasets::distribution_3(8, 1);
    /// let mut sink = RecordingSink::new();
    /// let report = Simulation::offline(config, requests).run_traced(Some(&mut sink))?;
    /// let finished = sink
    ///     .events
    ///     .iter()
    ///     .filter(|ev| matches!(ev, TraceEvent::Finished { .. }))
    ///     .count();
    /// assert_eq!(finished, report.completed);
    /// # Ok::<(), pf_sim::SimError>(())
    /// ```
    pub fn run_traced(self, sink: Option<&mut dyn TraceSink>) -> Result<SimReport, SimError> {
        let mut fleet = self.fleet_report(sink)?;
        let mut report = fleet.instances.pop().expect("one member").report;
        report.unfinished += fleet.unrouted;
        Ok(report)
    }

    /// Runs the simulation like [`Simulation::run_traced`] and returns the
    /// [`FleetReport`] of its fleet of one, the report every topology
    /// shares.
    ///
    /// # Errors
    ///
    /// As [`Simulation::run`].
    pub fn fleet_report(self, sink: Option<&mut dyn TraceSink>) -> Result<FleetReport, SimError> {
        // A one-member pool makes no routing choice; round-robin reads no
        // load signal.
        ClusterSimulation::heterogeneous(vec![self.config], RouterPolicy::RoundRobin)
            .run_workload(self.workload, sink)
    }
}
