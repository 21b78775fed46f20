//! Simulation results.

use pf_kvcache::PrefixCacheStats;
use pf_metrics::{GoodputReport, RequestTiming, SimDuration, StepSeries};

/// Outcome of one request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Request id.
    pub id: u64,
    /// Prompt length.
    pub input_len: u32,
    /// Tokens actually generated.
    pub output_len: u32,
    /// Full token timing.
    pub timing: RequestTiming,
    /// Times this request was evicted and re-queued.
    pub evictions: u32,
}

/// The headline numbers of one run, in one shape for every topology
/// (each report type's `headline()` fills it with its own definitions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Requests that finished.
    pub completed: usize,
    /// Finished requests that met the full SLA.
    pub satisfied: usize,
    /// Requests cancelled past their deadline.
    pub timed_out: usize,
    /// Fraction of requests meeting the full SLA (timed-out requests count
    /// as misses; 1.0 when no request was issued).
    pub sla_attainment: f64,
    /// Fraction of requests whose TTFT met the SLA (same denominator).
    pub ttft_attainment: f64,
    /// SLA-satisfying output tokens per second over the makespan.
    pub goodput_tok_per_s: f64,
    /// Median TTFT of completed requests, in seconds.
    pub ttft_p50_s: f64,
    /// 99th-percentile TTFT of completed requests, in seconds.
    pub ttft_p99_s: f64,
    /// 99th-percentile maximum time-per-output-token, in seconds.
    pub mtpot_p99_s: f64,
    /// Preemptions (a request can be evicted more than once).
    pub evictions: u64,
    /// GPU time provisioned, in seconds (a fixed fleet is provisioned for
    /// its whole makespan).
    pub gpu_seconds: f64,
    /// Provisioned GPU time weighted by each instance's GPU cost, for
    /// topologies that carry GPU types.
    pub cost_weighted_gpu_seconds: Option<f64>,
}

impl Headline {
    /// The SLA terms of one goodput summary; the caller fills in the
    /// counters and costs the summary does not carry.
    pub(crate) fn of_goodput(goodput: &GoodputReport) -> Headline {
        Headline {
            completed: 0,
            satisfied: goodput.satisfied_requests,
            timed_out: 0,
            sla_attainment: goodput.satisfied_fraction(),
            ttft_attainment: goodput.ttft_attainment(),
            goodput_tok_per_s: goodput.goodput_tok_per_s,
            ttft_p50_s: goodput.ttft_secs.p50,
            ttft_p99_s: goodput.ttft_secs.p99,
            mtpot_p99_s: goodput.mtpot_secs.p99,
            evictions: 0,
            gpu_seconds: 0.0,
            cost_weighted_gpu_seconds: None,
        }
    }
}

/// Aggregate result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scheduler name as reported by the policy.
    pub scheduler_name: String,
    /// Goodput/throughput under the configured SLA.
    pub goodput: GoodputReport,
    /// Decode iterations executed (the paper's "Decoding Steps").
    pub decode_steps: u64,
    /// Dedicated prefill steps executed.
    pub prefill_steps: u64,
    /// Total evictions (can exceed the request count when requests are
    /// evicted repeatedly).
    pub evictions: u64,
    /// Requests that finished.
    pub completed: usize,
    /// Requests left unfinished at the simulation horizon.
    pub unfinished: usize,
    /// Requests cancelled because their deadline expired while queued —
    /// never started, or preempted and never readmitted (neither
    /// completed nor unfinished).
    pub timed_out: usize,
    /// End-to-end simulated duration.
    pub makespan: SimDuration,
    /// KV capacity in tokens.
    pub capacity_tokens: u64,
    /// Time-weighted mean of used/capacity ("Current Consumed Memory").
    pub avg_consumed_frac: f64,
    /// Mean of the *true* future required memory over capacity, sampled at
    /// every engine step ("Future Required Memory"; can exceed 1.0).
    pub avg_future_required_frac: f64,
    /// Peak used/capacity.
    pub peak_consumed_frac: f64,
    /// Utilization time series (used/capacity after each step), if
    /// recording was enabled.
    pub consumed_series: StepSeries,
    /// True future-required-memory series (fraction of capacity), if
    /// recording was enabled.
    pub future_required_series: StepSeries,
    /// Queue-depth time series, if recording was enabled.
    pub queue_series: StepSeries,
    /// Prefix-cache statistics (all zero when the cache is disabled).
    pub prefix_stats: PrefixCacheStats,
    /// Prefix-cache occupancy in tokens at the end of the run.
    pub prefix_cached_tokens: u64,
    /// KV-pool tokens still allocated when the run ended. With a prefix
    /// cache this equals the cache's sentinel charge
    /// ([`SimReport::prefix_cached_tokens`]); every request allocation —
    /// completed, preempted or cancelled past its deadline — must have
    /// been released by then, so a larger value means leaked KV.
    pub kv_used_tokens_end: u64,
    /// Per-request outcomes (completed requests only).
    pub outcomes: Vec<RequestOutcome>,
}

impl SimReport {
    /// Evictions relative to completed requests, as a percentage (the
    /// paper's "Evicted Reqs"; >100% means requests were evicted more than
    /// once on average).
    pub fn evicted_request_pct(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.evictions as f64 / self.completed as f64 * 100.0
        }
    }

    /// Output tokens per second counting every completed request.
    pub fn throughput(&self) -> f64 {
        self.goodput.throughput_tok_per_s
    }

    /// Output tokens per second counting only SLA-satisfying requests.
    pub fn goodput_tok_per_s(&self) -> f64 {
        self.goodput.goodput_tok_per_s
    }

    /// The run's headline numbers; one engine is provisioned for the
    /// whole makespan.
    pub fn headline(&self) -> Headline {
        Headline {
            completed: self.completed,
            timed_out: self.timed_out,
            evictions: self.evictions,
            gpu_seconds: self.makespan.as_secs_f64(),
            cost_weighted_gpu_seconds: None,
            ..Headline::of_goodput(&self.goodput)
        }
    }

    /// One-line human-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{}: goodput {:.1} tok/s (throughput {:.1}), {} reqs ({} SLA-ok), \
             {} decode steps, evicted {:.1}%, mem {:.1}% (future {:.1}%)",
            self.scheduler_name,
            self.goodput.goodput_tok_per_s,
            self.goodput.throughput_tok_per_s,
            self.completed,
            self.goodput.satisfied_requests,
            self.decode_steps,
            self.evicted_request_pct(),
            self.avg_consumed_frac * 100.0,
            self.avg_future_required_frac * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_metrics::{SimTime, SlaSpec};

    fn dummy_report() -> SimReport {
        let mut timing = RequestTiming::new(SimTime::ZERO);
        timing.record_token(SimTime::from_secs(1));
        SimReport {
            scheduler_name: "test".into(),
            goodput: GoodputReport::compute(
                &SlaSpec::chat_7b(),
                &[(timing, 10)],
                SimDuration::from_secs(10),
            ),
            decode_steps: 100,
            prefill_steps: 10,
            evictions: 3,
            completed: 2,
            unfinished: 0,
            timed_out: 0,
            makespan: SimDuration::from_secs(10),
            capacity_tokens: 1000,
            avg_consumed_frac: 0.5,
            avg_future_required_frac: 0.6,
            peak_consumed_frac: 0.9,
            consumed_series: StepSeries::new(),
            future_required_series: StepSeries::new(),
            queue_series: StepSeries::new(),
            prefix_stats: PrefixCacheStats::default(),
            prefix_cached_tokens: 0,
            kv_used_tokens_end: 0,
            outcomes: Vec::new(),
        }
    }

    #[test]
    fn evicted_pct() {
        let r = dummy_report();
        assert_eq!(r.evicted_request_pct(), 150.0);
    }

    #[test]
    fn summary_line_contains_key_numbers() {
        let line = dummy_report().summary_line();
        assert!(line.contains("test"));
        assert!(line.contains("150.0%"));
        assert!(line.contains("100 decode steps"));
    }
}
