//! The Past-Future request scheduler (the paper's contribution) and its
//! baselines.
//!
//! Continuous batching admits queued requests into the running batch based
//! on an estimate of how much KV-cache memory the batch will need. The
//! Past-Future scheduler (paper Section 3) estimates this precisely by
//! combining:
//!
//! * **the Past** — [`OutputLengthHistory`] records the actual output
//!   lengths of recently finished requests (sliding window, default 1000);
//!   [`OutputLengthDistribution`] is the resulting empirical distribution
//!   `P(l)` (Eq. 1), which supports sampling from both `P(l)` and the
//!   conditional `P(l > l_t)` used to refresh predictions for requests that
//!   have already generated `l_t` tokens;
//! * **the Future** — [`FutureMemoryEstimator`] computes the memory the
//!   running batch will occupy at every future request-completion point
//!   (Eq. 2–3) and takes the maximum (Eq. 4): the *future required memory*
//!   `M*`. Admission is allowed only while `M*` fits in capacity.
//!
//! Four policies ([`SchedulerConfig`] variants) run on three
//! [`Scheduler`] types:
//!
//! | Policy | Scheduler | Admission | Models |
//! |---|---|---|---|
//! | [`PastFuture`](SchedulerConfig::PastFuture) | [`PastFutureScheduler`] | Algorithm 1: Eq. 2–4 over sampled output lengths | LightLLM |
//! | [`Oracle`](SchedulerConfig::Oracle) | [`PastFutureScheduler`] | Eq. 2–4 over *true* output lengths, no reserve | the paper's "theoretical optimum" |
//! | [`Aggressive`](SchedulerConfig::Aggressive) | [`AggressiveScheduler`] | admit while current usage below a watermark | vLLM |
//! | [`Conservative`](SchedulerConfig::Conservative) | [`ConservativeScheduler`] | budget `input + max_new_tokens` per request | TGI, DeepSpeed-MII |
//!
//! # Example
//!
//! ```
//! use pf_core::{
//!     FutureMemoryEstimator, BatchEntry, OutputLengthHistory, Scheduler,
//!     PastFutureScheduler, MemoryState, QueuedRequest,
//! };
//!
//! // Future required memory of a three-request batch (paper Figure 5:
//! // scheduling the queued request at time t needs a peak of 19 tokens).
//! let batch = [
//!     BatchEntry { committed: 5, remaining: 2 },
//!     BatchEntry { committed: 5, remaining: 4 },
//!     BatchEntry { committed: 3, remaining: 5 }, // the newly admitted request
//! ];
//! let peak = FutureMemoryEstimator::peak_memory(&batch);
//! assert_eq!(peak, 19); // max over completion points (Eq. 4)
//!
//! // Admission planning with the Past-Future scheduler.
//! let mut scheduler = PastFutureScheduler::new(1000, 0.05, 4, 42);
//! for len in [100u32, 120, 90, 110] {
//!     scheduler.on_request_finished(len); // warm the history
//! }
//! let queue = [QueuedRequest { id: 1, input_len: 50, generated: 0,
//!                              max_new_tokens: 512, oracle_remaining: None }];
//! let memory = MemoryState { capacity_tokens: 10_000, used_tokens: 0 };
//! let admitted = scheduler.plan_admission(&[], &queue, &memory);
//! assert_eq!(admitted, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aggressive;
mod config;
mod conservative;
mod distribution;
mod estimator;
mod history;
mod past_future;
mod scheduler;

pub use aggressive::AggressiveScheduler;
pub use config::SchedulerConfig;
pub use conservative::ConservativeScheduler;
pub use distribution::OutputLengthDistribution;
pub use estimator::{
    AdmissionIndex, BatchEntry, CompletionPoint, FutureMemoryEstimator, PackedBatch,
};
pub use history::OutputLengthHistory;
pub use past_future::PastFutureScheduler;
pub use scheduler::{MemoryState, QueuedRequest, RunningRequest, Scheduler};
