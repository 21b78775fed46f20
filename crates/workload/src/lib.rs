//! Request length distributions, datasets, trace synthesis and arrival
//! processes for LLM serving experiments.
//!
//! This crate generates every workload the paper evaluates on, as synthetic
//! equivalents of the original datasets (each builder's doc names what it
//! stands in for; the module doc of `pf_bench::scenario` indexes the
//! experiments that use them):
//!
//! * [`datasets`] — Distribution-1/2/3 (uniform ranges straight from the
//!   paper), ShareGPT-like, ShareGPT-o1-like (chain-of-thought heavy
//!   outputs), multimodal TextVQA-like workloads and the mixed-phase
//!   workload of Figure 8;
//! * [`trace`] — long request traces with controlled distribution drift for
//!   the window-similarity study (Figures 3 and 4);
//! * [`LengthSampler`] — the underlying distribution toolkit (uniform,
//!   log-normal via in-crate Box–Muller, exponential, mixtures, empirical);
//! * [`PoissonArrivals`] / [`ClosedLoopClients`] — open- and closed-loop
//!   arrival processes;
//! * [`trace_io`] — CSV import/export so real traces (BurstGPT-style
//!   exports) can replace the synthetic generators.
//!
//! Everything is deterministic given a `u64` seed.
//!
//! # Example
//!
//! ```
//! use pf_workload::{datasets, LengthSampler};
//! use rand::SeedableRng;
//!
//! let requests = datasets::distribution_1(100, 42);
//! assert_eq!(requests.len(), 100);
//! assert!(requests.iter().all(|r| (32..=4096).contains(&r.input_len)));
//! assert!(requests.iter().all(|r| (2048..=4096).contains(&r.true_output_len)));
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let sampler = LengthSampler::log_normal(6.0, 0.5, 1, 10_000);
//! let x = sampler.sample(&mut rng);
//! assert!((1..=10_000).contains(&x));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrival;
pub mod datasets;
mod request;
pub mod rng;
mod sampler;
pub mod trace;
pub mod trace_io;

pub use arrival::{ClosedLoopClients, PoissonArrivals, RateProfile};
pub use request::{PrefixId, RequestId, RequestSpec};
pub use sampler::LengthSampler;
