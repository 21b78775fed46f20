//! Discrete-event continuous-batching LLM serving engine with a roofline
//! GPU performance model — the LightLLM stand-in of the Past-Future
//! scheduler reproduction.
//!
//! The crate simulates a single serving deployment end to end:
//!
//! * [`ModelSpec`] / [`GpuSpec`] / [`PerfModel`] — architecture and
//!   hardware numbers turned into prefill/decode step latencies and a
//!   KV-cache token capacity;
//! * [`SimConfig`] — scheduler choice, KV layout, batching and prefill
//!   discipline, SLA, seeds;
//! * [`Simulation`] — one engine, a fleet of one on the crate's one event
//!   loop, serving a [`Workload`] (offline, timed or closed-loop clients);
//!   produces a [`SimReport`] with goodput, decode-step counts, eviction
//!   statistics and memory-utilization series — every quantity the
//!   paper's evaluation section reports;
//! * [`FleetReport`] — the one report of every topology (the single
//!   engine, [`cluster`], [`elastic`] and [`disagg`] fleets): one
//!   [`MemberReport`] per member of either pool, one request ledger
//!   (issued = completed + timed out + unserved) and one [`Headline`].
//!
//! The engine reproduces the mechanisms the paper's analysis depends on:
//! iteration-level continuous batching, dedicated or chunked prefill,
//! recompute preemption (evicted requests re-queue at the front and pay a
//! re-prefill), and exact KV token accounting.
//!
//! # Example
//!
//! ```
//! use pf_core::SchedulerConfig;
//! use pf_sim::{GpuSpec, ModelSpec, SimConfig, Simulation};
//! use pf_workload::{datasets, ClosedLoopClients};
//!
//! let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
//!     .scheduler(SchedulerConfig::aggressive(0.95))
//!     .seed(7)
//!     .build();
//! let requests = datasets::sharegpt(48, 7);
//! let report =
//!     Simulation::closed_loop(config, requests, ClosedLoopClients::new(8)).run()?;
//! assert_eq!(report.completed, 48);
//! # Ok::<(), pf_sim::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod cluster;
mod config;
pub mod disagg;
mod driver;
pub mod elastic;
mod engine;
mod error;
pub mod fleet;
mod hardware;
pub mod link;
mod model;
mod perf;
mod report;
mod simulation;
mod slab;

pub use config::{
    BatchingMode, EvictionMode, KvLayout, PrefillMode, PrefixCacheConfig, QueueOrder, SimConfig,
    SimConfigBuilder,
};
pub use error::SimError;
pub use fleet::{GpuType, RouterConfig};
pub use hardware::GpuSpec;
pub use model::ModelSpec;
pub use perf::PerfModel;
pub use report::{FleetReport, Headline, MemberReport, RequestOutcome, SimReport};
pub use simulation::{Simulation, Workload};
