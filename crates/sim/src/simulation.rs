//! Simulation entry point.

use pf_metrics::SimTime;
use pf_obs::TraceSink;
use pf_workload::{ClosedLoopClients, RequestSpec};

use crate::config::SimConfig;
use crate::engine::{Arrivals, Engine};
use crate::error::SimError;
use crate::report::SimReport;

/// A configured simulation: a deployment ([`SimConfig`]) plus a workload
/// and an arrival discipline.
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
    /// The arrival discipline, or the error a malformed timed stream
    /// raised at construction (returned by `run`/`run_traced`).
    arrivals: Result<Arrivals, SimError>,
}

impl Simulation {
    /// All requests available at time zero (the paper's ablation setting:
    /// Table 1, Figure 8).
    pub fn offline(config: SimConfig, requests: Vec<RequestSpec>) -> Self {
        Simulation {
            config,
            arrivals: Ok(Arrivals::offline(requests)),
        }
    }

    /// Closed-loop clients: `clients.n_clients` requests in flight at all
    /// times until the workload drains (the paper's goodput setting:
    /// Figures 7 and 9).
    pub fn closed_loop(
        config: SimConfig,
        requests: Vec<RequestSpec>,
        clients: ClosedLoopClients,
    ) -> Self {
        Simulation {
            config,
            arrivals: Ok(Arrivals::closed_loop(requests, clients)),
        }
    }

    /// Explicit arrival timestamps (one per request, non-decreasing), e.g.
    /// a Poisson open loop. A stream that breaks either rule makes
    /// [`Simulation::run`] return [`SimError::InvalidWorkload`].
    pub fn with_arrivals(
        config: SimConfig,
        requests: Vec<RequestSpec>,
        times: Vec<SimTime>,
    ) -> Self {
        let arrivals = crate::fleet::check_arrivals(&requests, &times)
            .map(|()| Arrivals::timed(requests, times));
        Simulation { config, arrivals }
    }

    /// The configuration this simulation will run with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation to completion (or to `max_sim_time`).
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
    /// Returns [`SimError`] when the deployment cannot serve the workload:
    /// no KV capacity, a request that can never fit, a malformed workload,
    /// an out-of-range scheduler, prefix-cache or engine parameter
    /// ([`SimError::InvalidScheduler`], [`SimError::InvalidPrefixCache`],
    /// [`SimError::InvalidEngine`], [`SimError::InvalidHardware`]), or a
    /// scheduler stall.
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
        let arrivals = self.arrivals?;
        crate::fleet::check_scheduler(&self.config.scheduler)?;
        crate::fleet::check_prefix_cache(self.config.prefix_cache)?;
        crate::fleet::check_engine(&self.config)?;
        Engine::new(self.config, arrivals).run_traced(sink)
    }
}
