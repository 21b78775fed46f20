//! Service-level-agreement accounting (paper Section 2.5).
//!
//! The SLA metrics for streaming LLM serving are:
//!
//! * **TTFT** — time to first token (from request arrival);
//! * **TPOT** — time per output token (gap between consecutive tokens);
//! * **MTPOT** — the *maximum* TPOT within one request. A single long stall
//!   is user-visible even when the average TPOT looks fine, which is why the
//!   paper constrains MTPOT rather than mean TPOT.
//!
//! Throughput counted only over SLA-satisfying requests is **goodput**, the
//! paper's headline metric.

use crate::stats::Summary;
use crate::time::{SimDuration, SimTime};

/// SLA thresholds a request must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlaSpec {
    /// Maximum allowed time to first token.
    pub max_ttft: SimDuration,
    /// Maximum allowed gap between consecutive output tokens.
    pub max_mtpot: SimDuration,
}

impl SlaSpec {
    /// Creates an SLA spec from explicit thresholds.
    pub const fn new(max_ttft: SimDuration, max_mtpot: SimDuration) -> Self {
        SlaSpec {
            max_ttft,
            max_mtpot,
        }
    }

    /// The paper's SLA for 7B/13B models: TTFT < 10 s, MTPOT < 1.5 s.
    pub const fn chat_7b() -> Self {
        SlaSpec::new(SimDuration::from_secs(10), SimDuration::from_millis(1_500))
    }

    /// The paper's SLA for the 70B model: TTFT < 15 s, MTPOT < 5 s.
    pub const fn chat_70b() -> Self {
        SlaSpec::new(SimDuration::from_secs(15), SimDuration::from_secs(5))
    }

    /// Evaluates a finished request against this SLA.
    pub fn evaluate(&self, timing: &RequestTiming) -> SlaOutcome {
        let Some(ttft) = timing.ttft() else {
            return SlaOutcome {
                violation: Some(SlaViolation::NoTokens),
            };
        };
        if ttft > self.max_ttft {
            return SlaOutcome {
                violation: Some(SlaViolation::Ttft {
                    actual: ttft,
                    limit: self.max_ttft,
                }),
            };
        }
        let mtpot = timing.mtpot();
        if mtpot > self.max_mtpot {
            return SlaOutcome {
                violation: Some(SlaViolation::Mtpot {
                    actual: mtpot,
                    limit: self.max_mtpot,
                }),
            };
        }
        SlaOutcome { violation: None }
    }
}

impl Default for SlaSpec {
    fn default() -> Self {
        SlaSpec::chat_7b()
    }
}

/// Per-request token timing, tracked incrementally in O(1) memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    arrival: SimTime,
    first_token: Option<SimTime>,
    last_token: SimTime,
    n_tokens: u64,
    max_gap: SimDuration,
    sum_gaps: SimDuration,
}

impl RequestTiming {
    /// Starts timing a request that arrived at `arrival`.
    pub fn new(arrival: SimTime) -> Self {
        RequestTiming {
            arrival,
            first_token: None,
            last_token: arrival,
            n_tokens: 0,
            max_gap: SimDuration::ZERO,
            sum_gaps: SimDuration::ZERO,
        }
    }

    /// Records the emission of one output token at time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the previous token.
    pub fn record_token(&mut self, at: SimTime) {
        match self.first_token {
            None => {
                self.first_token = Some(at);
            }
            Some(_) => {
                let gap = at - self.last_token;
                self.max_gap = self.max_gap.max(gap);
                self.sum_gaps += gap;
            }
        }
        self.last_token = at;
        self.n_tokens += 1;
    }

    /// Arrival time of the request.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// Time to first token, if any token has been produced.
    pub fn ttft(&self) -> Option<SimDuration> {
        self.first_token.map(|t| t - self.arrival)
    }

    /// Maximum gap between consecutive tokens (zero with fewer than two
    /// tokens).
    pub fn mtpot(&self) -> SimDuration {
        self.max_gap
    }

    /// Mean gap between consecutive tokens (zero with fewer than two tokens).
    pub fn avg_tpot(&self) -> SimDuration {
        if self.n_tokens < 2 {
            SimDuration::ZERO
        } else {
            self.sum_gaps / (self.n_tokens - 1)
        }
    }

    /// Number of tokens recorded so far.
    pub fn n_tokens(&self) -> u64 {
        self.n_tokens
    }

    /// Time the last token was produced (arrival time if none yet).
    pub fn last_token_at(&self) -> SimTime {
        self.last_token
    }

    /// Completion latency: last token time minus arrival.
    pub fn total_latency(&self) -> SimDuration {
        self.last_token - self.arrival
    }
}

/// Result of evaluating one request against an [`SlaSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlaOutcome {
    /// The first violated constraint, or `None` when the SLA is satisfied.
    pub violation: Option<SlaViolation>,
}

impl SlaOutcome {
    /// True when every SLA constraint was met.
    pub fn is_satisfied(&self) -> bool {
        self.violation.is_none()
    }
}

/// A violated SLA constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlaViolation {
    /// The request finished without producing any token.
    NoTokens,
    /// First token arrived too late.
    Ttft {
        /// Observed time to first token.
        actual: SimDuration,
        /// Allowed maximum.
        limit: SimDuration,
    },
    /// Some inter-token gap was too long (output stall, e.g. after an
    /// eviction).
    Mtpot {
        /// Observed maximum inter-token gap.
        actual: SimDuration,
        /// Allowed maximum.
        limit: SimDuration,
    },
}

/// Counts of requests per violation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViolationCounts {
    /// Requests violating the TTFT bound.
    pub ttft: usize,
    /// Requests violating the MTPOT bound.
    pub mtpot: usize,
    /// Requests that produced no tokens.
    pub no_tokens: usize,
    /// Requests cancelled past their deadline — still waiting for a
    /// first token, or preempted mid-stream and never readmitted. They
    /// never completed, so they carry no timing samples (any tokens a
    /// preempted one streamed before cancellation do not count as
    /// delivered output) — but they are SLA misses and must weigh the
    /// attainment denominators (a system that cancels a doomed request
    /// must not *raise* its reported attainment by doing so).
    pub timed_out: usize,
}

/// Aggregate goodput/throughput report over a set of finished requests.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputReport {
    /// Number of finished requests considered.
    pub total_requests: usize,
    /// Requests that satisfied the SLA.
    pub satisfied_requests: usize,
    /// Output tokens across all requests.
    pub total_output_tokens: u64,
    /// Output tokens across SLA-satisfying requests only.
    pub satisfied_output_tokens: u64,
    /// Wall-clock duration of the measurement interval.
    pub duration: SimDuration,
    /// Output tokens per second, all requests.
    pub throughput_tok_per_s: f64,
    /// Output tokens per second, SLA-satisfying requests only.
    pub goodput_tok_per_s: f64,
    /// TTFT distribution (seconds).
    pub ttft_secs: Summary,
    /// MTPOT distribution (seconds).
    pub mtpot_secs: Summary,
    /// Violation breakdown.
    pub violations: ViolationCounts,
}

impl GoodputReport {
    /// Computes goodput over finished requests plus `timed_out` requests
    /// that were cancelled past their deadline.
    ///
    /// Each element of `requests` pairs a finished request's timing with
    /// its output token count. `duration` is the measurement interval
    /// (zero duration yields zero rates). Cancelled requests — waiting for
    /// a first token, or preempted mid-stream and never readmitted —
    /// contribute no counted tokens and no timing samples, but they enter
    /// `total_requests`, `violations.timed_out`, and therefore the
    /// [`GoodputReport::satisfied_fraction`] and
    /// [`GoodputReport::ttft_attainment`] denominators as misses.
    ///
    /// The TTFT/MTPOT percentile summaries still describe *completed*
    /// requests only (a cancelled request has no latency to summarize).
    ///
    /// `requests` is streamed, not collected: a fleet passes its members'
    /// outcomes without copying them into one buffer.
    pub fn compute_with_timeouts(
        sla: &SlaSpec,
        requests: impl IntoIterator<Item = (RequestTiming, u64)>,
        duration: SimDuration,
        timed_out: usize,
    ) -> GoodputReport {
        let requests = requests.into_iter();
        let mut completed = 0;
        let mut satisfied_requests = 0;
        let mut total_output_tokens = 0;
        let mut satisfied_output_tokens = 0;
        let mut violations = ViolationCounts {
            timed_out,
            ..ViolationCounts::default()
        };
        let mut ttfts = Vec::with_capacity(requests.size_hint().0);
        let mut mtpots = Vec::with_capacity(requests.size_hint().0);
        for (timing, tokens) in requests {
            completed += 1;
            total_output_tokens += tokens;
            if let Some(ttft) = timing.ttft() {
                ttfts.push(ttft.as_secs_f64());
                mtpots.push(timing.mtpot().as_secs_f64());
            }
            match sla.evaluate(&timing).violation {
                None => {
                    satisfied_requests += 1;
                    satisfied_output_tokens += tokens;
                }
                Some(SlaViolation::Ttft { .. }) => violations.ttft += 1,
                Some(SlaViolation::Mtpot { .. }) => violations.mtpot += 1,
                Some(SlaViolation::NoTokens) => violations.no_tokens += 1,
            }
        }
        GoodputReport {
            total_requests: completed + timed_out,
            satisfied_requests,
            total_output_tokens,
            satisfied_output_tokens,
            duration,
            throughput_tok_per_s: rate(total_output_tokens, duration),
            goodput_tok_per_s: rate(satisfied_output_tokens, duration),
            ttft_secs: Summary::of(&ttfts),
            mtpot_secs: Summary::of(&mtpots),
            violations,
        }
    }

    /// Fraction of requests that satisfied the SLA (1.0 when empty).
    pub fn satisfied_fraction(&self) -> f64 {
        if self.total_requests == 0 {
            1.0
        } else {
            self.satisfied_requests as f64 / self.total_requests as f64
        }
    }

    /// Requests whose *TTFT* met the SLA, regardless of their TPOT
    /// outcome (aggregatable across instances — see
    /// [`GoodputReport::ttft_attainment`]). Timed-out requests never
    /// produced a first token, so they are excluded here (and counted in
    /// the denominator).
    pub fn ttft_ok_count(&self) -> usize {
        self.total_requests
            - self.violations.ttft
            - self.violations.no_tokens
            - self.violations.timed_out
    }

    /// Fraction of requests whose *TTFT* met the SLA, regardless of their
    /// TPOT outcome (1.0 when empty). Timed-out requests count as misses.
    ///
    /// This is the term a disaggregated prefill pool is sized against:
    /// requests violating only MTPOT still count as TTFT-attained, so the
    /// metric isolates first-token latency from decode-side stalls.
    pub fn ttft_attainment(&self) -> f64 {
        if self.total_requests == 0 {
            return 1.0;
        }
        self.ttft_ok_count() as f64 / self.total_requests as f64
    }
}

/// Tokens per second over `duration` (zero over an empty interval).
fn rate(tokens: u64, duration: SimDuration) -> f64 {
    let secs = duration.as_secs_f64();
    if secs > 0.0 {
        tokens as f64 / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// Goodput over finished requests, none timed out.
    fn compute(
        sla: &SlaSpec,
        requests: &[(RequestTiming, u64)],
        duration: SimDuration,
    ) -> GoodputReport {
        GoodputReport::compute_with_timeouts(sla, requests.iter().copied(), duration, 0)
    }

    #[test]
    fn timing_tracks_ttft_and_gaps() {
        let mut t = RequestTiming::new(secs(1.0));
        assert_eq!(t.ttft(), None);
        t.record_token(secs(2.0));
        assert_eq!(t.ttft(), Some(SimDuration::from_secs(1)));
        assert_eq!(t.mtpot(), SimDuration::ZERO);
        t.record_token(secs(2.1));
        t.record_token(secs(2.9));
        assert_eq!(t.mtpot(), SimDuration::from_millis(800));
        assert_eq!(t.n_tokens(), 3);
        assert_eq!(t.avg_tpot(), SimDuration::from_millis(450));
        assert_eq!(t.total_latency(), SimDuration::from_millis(1_900));
    }

    #[test]
    fn sla_satisfied_fast_request() {
        let sla = SlaSpec::chat_7b();
        let mut t = RequestTiming::new(SimTime::ZERO);
        t.record_token(secs(0.5));
        t.record_token(secs(0.6));
        assert!(sla.evaluate(&t).is_satisfied());
    }

    #[test]
    fn sla_ttft_violation() {
        let sla = SlaSpec::chat_7b();
        let mut t = RequestTiming::new(SimTime::ZERO);
        t.record_token(secs(11.0));
        let outcome = sla.evaluate(&t);
        assert!(matches!(outcome.violation, Some(SlaViolation::Ttft { .. })));
    }

    #[test]
    fn sla_mtpot_violation_from_stall() {
        let sla = SlaSpec::chat_7b();
        let mut t = RequestTiming::new(SimTime::ZERO);
        t.record_token(secs(0.1));
        t.record_token(secs(0.2));
        t.record_token(secs(5.0)); // eviction-style stall
        let outcome = sla.evaluate(&t);
        assert!(matches!(
            outcome.violation,
            Some(SlaViolation::Mtpot { .. })
        ));
    }

    #[test]
    fn sla_no_tokens() {
        let sla = SlaSpec::chat_7b();
        let t = RequestTiming::new(SimTime::ZERO);
        assert_eq!(sla.evaluate(&t).violation, Some(SlaViolation::NoTokens));
    }

    #[test]
    fn ttft_exactly_at_limit_is_satisfied() {
        let sla = SlaSpec::new(SimDuration::from_secs(10), SimDuration::from_secs(10));
        let mut t = RequestTiming::new(SimTime::ZERO);
        t.record_token(secs(10.0));
        assert!(sla.evaluate(&t).is_satisfied());
    }

    #[test]
    fn goodput_counts_only_satisfied() {
        let sla = SlaSpec::chat_7b();
        let mut ok = RequestTiming::new(SimTime::ZERO);
        ok.record_token(secs(0.5));
        ok.record_token(secs(0.6));
        let mut bad = RequestTiming::new(SimTime::ZERO);
        bad.record_token(secs(20.0));
        let report = compute(&sla, &[(ok, 100), (bad, 300)], SimDuration::from_secs(10));
        assert_eq!(report.total_requests, 2);
        assert_eq!(report.satisfied_requests, 1);
        assert_eq!(report.total_output_tokens, 400);
        assert_eq!(report.satisfied_output_tokens, 100);
        assert!((report.throughput_tok_per_s - 40.0).abs() < 1e-9);
        assert!((report.goodput_tok_per_s - 10.0).abs() < 1e-9);
        assert_eq!(report.violations.ttft, 1);
        assert!((report.satisfied_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ttft_attainment_ignores_mtpot_violations() {
        let sla = SlaSpec::chat_7b();
        // Fast first token, then a decode stall: MTPOT-violating but
        // TTFT-attained.
        let mut stalled = RequestTiming::new(SimTime::ZERO);
        stalled.record_token(secs(0.5));
        stalled.record_token(secs(8.0));
        // Late first token: TTFT-violating.
        let mut late = RequestTiming::new(SimTime::ZERO);
        late.record_token(secs(20.0));
        // Fully satisfied.
        let mut ok = RequestTiming::new(SimTime::ZERO);
        ok.record_token(secs(0.5));
        ok.record_token(secs(0.6));
        let report = compute(
            &sla,
            &[(stalled, 10), (late, 10), (ok, 10)],
            SimDuration::from_secs(10),
        );
        assert_eq!(report.satisfied_requests, 1);
        assert!((report.ttft_attainment() - 2.0 / 3.0).abs() < 1e-12);
        let empty = compute(&sla, &[], SimDuration::ZERO);
        assert_eq!(empty.ttft_attainment(), 1.0);
    }

    #[test]
    fn timed_out_requests_weigh_the_attainment_denominators() {
        let sla = SlaSpec::chat_7b();
        let mut ok = RequestTiming::new(SimTime::ZERO);
        ok.record_token(secs(0.5));
        ok.record_token(secs(0.6));
        let completed = [(ok, 100)];
        let without = compute(&sla, &completed, SimDuration::from_secs(10));
        let with = GoodputReport::compute_with_timeouts(
            &sla,
            completed.iter().copied(),
            SimDuration::from_secs(10),
            3,
        );
        // Cancelling three doomed requests must *lower* attainment, not
        // leave it untouched (and certainly not raise it).
        assert_eq!(without.satisfied_fraction(), 1.0);
        assert_eq!(without.ttft_attainment(), 1.0);
        assert_eq!(with.total_requests, 4);
        assert_eq!(with.violations.timed_out, 3);
        assert!((with.satisfied_fraction() - 0.25).abs() < 1e-12);
        assert!((with.ttft_attainment() - 0.25).abs() < 1e-12);
        // Throughput counts tokens actually produced; timeouts add none.
        assert_eq!(with.total_output_tokens, 100);
        assert_eq!(with.goodput_tok_per_s, without.goodput_tok_per_s);
    }

    #[test]
    fn goodput_zero_duration() {
        let report = compute(&SlaSpec::chat_7b(), &[], SimDuration::ZERO);
        assert_eq!(report.goodput_tok_per_s, 0.0);
        assert_eq!(report.satisfied_fraction(), 1.0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn goodput_never_exceeds_throughput(
                tokens in proptest::collection::vec((1u64..1000, 0u64..20_000_000), 0..50),
            ) {
                let sla = SlaSpec::chat_7b();
                let requests: Vec<(RequestTiming, u64)> = tokens
                    .iter()
                    .map(|&(n, first_us)| {
                        let mut t = RequestTiming::new(SimTime::ZERO);
                        t.record_token(SimTime::from_micros(first_us));
                        (t, n)
                    })
                    .collect();
                let r = compute(&sla, &requests, SimDuration::from_secs(60));
                prop_assert!(r.goodput_tok_per_s <= r.throughput_tok_per_s + 1e-9);
                prop_assert!(r.satisfied_requests <= r.total_requests);
            }

            #[test]
            fn mtpot_is_max_of_gaps(gaps in proptest::collection::vec(1u64..5_000_000, 1..100)) {
                let mut t = RequestTiming::new(SimTime::ZERO);
                let mut now = 0u64;
                t.record_token(SimTime::from_micros(now));
                let mut max_gap = 0u64;
                for g in &gaps {
                    now += g;
                    max_gap = max_gap.max(*g);
                    t.record_token(SimTime::from_micros(now));
                }
                prop_assert_eq!(t.mtpot(), SimDuration::from_micros(max_gap));
                prop_assert_eq!(t.n_tokens(), gaps.len() as u64 + 1);
            }
        }
    }
}
