//! Simulation results.

use pf_kvcache::PrefixCacheStats;
use pf_metrics::{GoodputReport, RequestTiming, SeriesGroup, SimDuration, SimTime, StepSeries};
use pf_obs::Pool;

use crate::disagg::{RepurposeEvent, TransferStats};
use crate::fleet::{GpuType, ScalingEvent};

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

/// The headline numbers of one run, one definition for every topology
/// ([`FleetReport::headline`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Requests that finished.
    pub completed: usize,
    /// Finished requests that met the full SLA.
    pub satisfied: usize,
    /// Requests cancelled past their deadline.
    pub timed_out: usize,
    /// Fraction of the issued requests meeting the full SLA (timed-out and
    /// unserved requests count as misses; 1.0 when none was issued).
    pub sla_attainment: f64,
    /// Fraction of the issued requests whose TTFT met the SLA (same
    /// denominator).
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
    /// GPU time provisioned, in seconds: every member's lifetime.
    pub gpu_seconds: f64,
    /// Provisioned GPU time weighted by each member's GPU cost (equal to
    /// `gpu_seconds` on reference GPUs).
    pub cost_weighted_gpu_seconds: f64,
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
    /// Requests that finished here (a disaggregated run's members count
    /// the ones whose outcomes moved to [`FleetReport::outcomes`]).
    pub completed: usize,
    /// Requests left unfinished at the simulation horizon: running,
    /// queued, or routed here and not yet taken in.
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
    /// Per-request outcomes (completed requests only; empty on a
    /// disaggregated run's members, whose outcomes the fleet keeps).
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

/// One member of a fleet run, in either pool.
#[derive(Debug)]
pub struct MemberReport {
    /// The pool it served in (a repurposed GPU reports once per pool).
    pub pool: Pool,
    /// The accelerator it ran on.
    pub gpu: GpuType,
    /// When it was provisioned.
    pub spawned_at: SimTime,
    /// When it stopped costing GPU time (run end for members still up).
    pub stopped_at: SimTime,
    /// Requests routed to it (handoffs landed on it, in a decode pool).
    pub routed: usize,
    /// Requests it served its stage for: finished here, or (prefill
    /// members) prefilled and handed out.
    pub served: usize,
    /// Its engine's report.
    pub report: SimReport,
}

impl MemberReport {
    /// GPU time this member was provisioned for, in seconds (warm-up
    /// counts: the GPU is busy loading weights, not serving).
    pub fn active_secs(&self) -> f64 {
        self.stopped_at
            .saturating_since(self.spawned_at)
            .as_secs_f64()
    }

    /// Provisioned seconds weighted by the member's GPU cost.
    pub fn cost_weighted_secs(&self) -> f64 {
        self.active_secs() * self.gpu.cost_weight
    }
}

/// The names of a pool's replica-count series in [`FleetReport::series`].
pub(crate) fn series_names(pool: Pool) -> [&'static str; 2] {
    match pool {
        Pool::Colocated => ["colocated-live", "colocated-provisioned"],
        Pool::Prefill => ["prefill-live", "prefill-provisioned"],
        Pool::Decode => ["decode-live", "decode-provisioned"],
    }
}

/// The result of one run of any topology: a single engine, a fixed or
/// elastic colocated fleet, or fixed or elastic disaggregated pools.
///
/// Its request ledger balances: every issued request completed, timed out
/// or went unserved ([`FleetReport::ledger_balances`]).
#[derive(Debug)]
pub struct FleetReport {
    /// Every member: the first pool's (colocated or prefill) in spawn
    /// order, then the decode pool's.
    pub instances: Vec<MemberReport>,
    /// Requests the workload issued.
    pub issued: usize,
    /// Requests cancelled because their deadline expired while queued.
    pub timed_out: usize,
    /// Requests neither completed nor timed out: in flight, on the link or
    /// never routed when `max_sim_time` stopped the run.
    pub unserved: usize,
    /// The part of `unserved` that reached no member: no member was live,
    /// the horizon came first, or no closed-loop client got to submit it.
    pub unrouted: usize,
    /// Goodput over every completed request, with the timed-out ones as
    /// misses, on the makespan.
    pub goodput: GoodputReport,
    /// Run end: its last served work, or the horizon.
    pub makespan: SimDuration,
    /// Prefix-cache statistics merged across members (all zero without
    /// caches).
    pub prefix_stats: PrefixCacheStats,
    /// A disaggregated run's finished requests, in completion order (a
    /// colocated member keeps its own in its report).
    pub outcomes: Vec<RequestOutcome>,
    /// Pool-size changes the planners made: the first pool's, then the
    /// decode pool's, each in decision order.
    pub events: Vec<ScalingEvent>,
    /// Cross-pool repurposing flips, in flip order.
    pub repurposes: Vec<RepurposeEvent>,
    /// KV-transfer statistics (all zero on a colocated run).
    pub transfers: TransferStats,
    /// Each pool's live and provisioned member counts over time
    /// (`colocated-live`, `colocated-provisioned`, or the `prefill-` and
    /// `decode-` pair of each of a disaggregated run's pools).
    pub series: SeriesGroup,
}

impl FleetReport {
    /// The members of `pool`, in spawn order (the indices a
    /// [`RepurposeEvent`] holds).
    pub fn pool(&self, pool: Pool) -> impl Iterator<Item = &MemberReport> {
        self.instances.iter().filter(move |m| m.pool == pool)
    }

    /// Every completed request's outcome: the fleet's, then each
    /// member's.
    pub fn all_outcomes(&self) -> impl Iterator<Item = &RequestOutcome> {
        let members = self.instances.iter().flat_map(|m| &m.report.outcomes);
        self.outcomes.iter().chain(members)
    }

    /// Requests that finished.
    pub fn completed(&self) -> usize {
        self.all_outcomes().count()
    }

    /// SLA-satisfying output tokens per second over the makespan.
    pub fn goodput_tok_per_s(&self) -> f64 {
        self.goodput.goodput_tok_per_s
    }

    /// `per_member` summed within each pool, then over the pools (float
    /// addition is not associative: the goldens pin this order).
    fn pool_sum(&self, per_member: fn(&MemberReport) -> f64) -> f64 {
        (self.instances.chunk_by(|a, b| a.pool == b.pool))
            .map(|pool| pool.iter().map(per_member).sum::<f64>())
            .sum()
    }

    /// GPU-seconds provisioned across every member's lifetime.
    pub fn gpu_seconds(&self) -> f64 {
        self.pool_sum(MemberReport::active_secs)
    }

    /// Largest number of simultaneously provisioned members of `pool`.
    pub fn peak_pool_replicas(&self, pool: Pool) -> usize {
        (self.series.get(series_names(pool)[1]))
            .and_then(StepSeries::max_value)
            .unwrap_or(0.0) as usize
    }

    /// Largest number of simultaneously provisioned members of each pool,
    /// summed over the pools.
    pub fn peak_replicas(&self) -> usize {
        [Pool::Colocated, Pool::Prefill, Pool::Decode]
            .map(|pool| self.peak_pool_replicas(pool))
            .iter()
            .sum()
    }

    /// Whether the request ledger balances: the issued requests are the
    /// completed, timed-out and unserved ones, and the members account for
    /// each term. Their completed and timed-out counts add up, and the
    /// unserved requests are the ones in flight on members, on the link,
    /// or never routed.
    pub fn ledger_balances(&self) -> bool {
        let members =
            |f: fn(&SimReport) -> usize| self.instances.iter().map(|m| f(&m.report)).sum::<usize>();
        self.issued == self.completed() + self.timed_out + self.unserved
            && members(|r| r.completed) == self.completed()
            && members(|r| r.timed_out) == self.timed_out
            && members(|r| r.unfinished) + self.transfers.in_flight + self.unrouted == self.unserved
    }

    /// The run's headline numbers: the goodput's SLA terms over every
    /// issued request (a request the horizon cut off is a miss), evictions
    /// summed over the member engines, and GPU time over every member's
    /// lifetime, raw and cost-weighted.
    pub fn headline(&self) -> Headline {
        let goodput = &self.goodput;
        let share = |n: usize| match self.issued {
            0 => 1.0,
            issued => n as f64 / issued as f64,
        };
        Headline {
            completed: self.completed(),
            satisfied: goodput.satisfied_requests,
            timed_out: self.timed_out,
            sla_attainment: share(goodput.satisfied_requests),
            ttft_attainment: share(goodput.ttft_ok_count()),
            goodput_tok_per_s: goodput.goodput_tok_per_s,
            ttft_p50_s: goodput.ttft_secs.p50,
            ttft_p99_s: goodput.ttft_secs.p99,
            mtpot_p99_s: goodput.mtpot_secs.p99,
            evictions: self.instances.iter().map(|m| m.report.evictions).sum(),
            gpu_seconds: self.gpu_seconds(),
            cost_weighted_gpu_seconds: self.pool_sum(MemberReport::cost_weighted_secs),
        }
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
            goodput: GoodputReport::compute_with_timeouts(
                &SlaSpec::chat_7b(),
                [(timing, 10)],
                SimDuration::from_secs(10),
                0,
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
