//! # pastfuture
//!
//! Umbrella crate for the Rust reproduction of **"Past-Future Scheduler for
//! LLM Serving under SLA Guarantees"** (ASPLOS 2025). It re-exports the whole
//! workspace:
//!
//! * [`core`] — the paper's contribution: output-length distribution
//!   prediction and future-required-memory estimation in one Eq. 2–4
//!   admission, which also runs the oracle baseline on true output
//!   lengths, plus the aggressive and conservative baselines;
//! * [`sim`] — a discrete-event continuous-batching serving engine with a
//!   roofline GPU performance model (the LightLLM stand-in), including the
//!   static [`sim::cluster`] and elastic [`sim::elastic`] multi-instance
//!   co-simulations;
//! * [`autoscale`] — SLA-driven elastic scaling: load predictors,
//!   performance interpolation and the scaling policy;
//! * [`workload`] — length distributions, datasets, trace synthesis and
//!   arrival processes (Poisson, diurnal, bursty);
//! * [`kvcache`] — KV-cache memory managers;
//! * [`metrics`] — SLA/goodput accounting and similarity metrics;
//! * [`obs`] — request-lifecycle tracing: the [`obs::TraceSink`] every
//!   `run_traced` takes, recording sinks, phase spans and Chrome traces;
//! * [`frameworks`] — serving-framework presets used as baselines.
//!
//! # Quickstart
//!
//! ```
//! use pastfuture::prelude::*;
//!
//! // A decode-heavy workload served by the Past-Future scheduler.
//! let requests = datasets::distribution_1(64, 7);
//! let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
//!     .scheduler(SchedulerConfig::past_future())
//!     .seed(7)
//!     .build();
//! let report = Simulation::offline(config, requests).run().unwrap();
//! assert!(report.goodput.total_requests > 0);
//! ```
//!
//! # Tracing a run
//!
//! ```
//! use pastfuture::obs::{RecordingSink, TraceEvent};
//! use pastfuture::prelude::*;
//!
//! let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
//!     .seed(3)
//!     .build();
//! let requests = datasets::sharegpt(16, 3);
//! let mut sink = RecordingSink::new();
//! let report = Simulation::offline(config, requests).run_traced(Some(&mut sink))?;
//! let finished = sink
//!     .events
//!     .iter()
//!     .filter(|ev| matches!(ev, TraceEvent::Finished { .. }))
//!     .count();
//! assert_eq!(report.completed, 16);
//! assert_eq!(finished, 16, "one Finished event per request");
//! # Ok::<(), pastfuture::sim::SimError>(())
//! ```

pub use pf_autoscale as autoscale;
pub use pf_core as core;
pub use pf_frameworks as frameworks;
pub use pf_kvcache as kvcache;
pub use pf_metrics as metrics;
pub use pf_obs as obs;
pub use pf_sim as sim;
pub use pf_workload as workload;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use pf_core::{
        AggressiveScheduler, ConservativeScheduler, FutureMemoryEstimator, OutputLengthHistory,
        PastFutureScheduler, Scheduler, SchedulerConfig,
    };
    pub use pf_frameworks::{Framework, FrameworkPreset};
    pub use pf_kvcache::{KvCacheManager, KvPool};
    pub use pf_metrics::{GoodputReport, RequestTiming, SimDuration, SimTime, SlaSpec, Summary};
    pub use pf_sim::{GpuSpec, ModelSpec, PerfModel, SimConfig, SimReport, Simulation};
    pub use pf_workload::{datasets, ClosedLoopClients, LengthSampler, RequestSpec};
}
