//! SLA accounting, goodput, histograms and similarity metrics for LLM serving
//! experiments.
//!
//! This crate is the measurement substrate of the Past-Future scheduler
//! reproduction. It owns the vocabulary types shared across the workspace:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time;
//! * [`SlaSpec`], [`RequestTiming`], [`SlaOutcome`] — per-request service
//!   level agreement evaluation (TTFT / TPOT / MTPOT, Section 2.5 of the
//!   paper);
//! * [`GoodputReport`] — throughput under SLA ("goodput"), the paper's main
//!   metric;
//! * [`LengthHistogram`] and [`cosine_similarity`] — output-length
//!   distribution comparison used by the "Past" half of the scheduler
//!   (Figures 3 and 4);
//! * [`StepSeries`] — step-weighted time series used for memory-utilization
//!   statistics (Figure 1, Table 1);
//! * [`ObservationWindow`] — sliding rate/length windows feeding the
//!   elastic-scaling planner's load observations;
//! * [`Summary`] and percentile helpers.
//!
//! # Example
//!
//! ```
//! use pf_metrics::{RequestTiming, SimTime, SlaSpec};
//!
//! let sla = SlaSpec::chat_7b(); // TTFT < 10 s, MTPOT < 1.5 s
//! let mut timing = RequestTiming::new(SimTime::ZERO);
//! timing.record_token(SimTime::from_secs_f64(0.5)); // first token
//! timing.record_token(SimTime::from_secs_f64(0.6));
//! let outcome = sla.evaluate(&timing);
//! assert!(outcome.is_satisfied());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hist;
mod series;
mod similarity;
mod sla;
mod stats;
mod table;
mod time;
mod window;

pub use hist::{Binning, LengthHistogram, ZeroBinWidth};
pub use series::{SeriesGroup, StepSeries};
pub use similarity::{cosine_similarity, SimilarityMatrix, WindowedLengths};
pub use sla::{GoodputReport, RequestTiming, SlaOutcome, SlaSpec, SlaViolation};
pub use stats::{mean, percentile, std_dev, Summary};
pub use table::{Align, Table};
pub use time::{SimDuration, SimTime};
pub use window::ObservationWindow;
