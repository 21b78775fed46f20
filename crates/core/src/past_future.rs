//! The Past-Future scheduler (paper Algorithm 1) and, over true output
//! lengths, the oracle "theoretical optimum" baseline.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::distribution::OutputLengthDistribution;
use crate::estimator::{BatchEntry, PackedBatch};
use crate::history::OutputLengthHistory;
use crate::scheduler::{MemoryState, QueuedRequest, RunningRequest, Scheduler};

/// Where the scheduler's output-length estimates come from.
#[derive(Debug)]
enum LengthSource {
    /// Draws from the empirical distribution of recently finished requests
    /// (Eq. 1, paper Section 3.2).
    History {
        history: OutputLengthHistory,
        rng: StdRng,
    },
    /// The engine's ground truth (`oracle_remaining`), or the generation
    /// cap when the engine supplies none.
    Oracle,
}

/// The Past-Future scheduler (paper Algorithm 1, deployed in LightLLM).
///
/// At every admission opportunity it:
///
/// 1. reads `P(l)` over the sliding window of recently finished requests,
///    which the history keeps sorted as requests finish;
/// 2. samples a fresh predicted output length for every running request
///    from `P(l > l_t)` and for every queue candidate from `P(l)`;
/// 3. walks the queue in FCFS order, admitting each candidate only while
///    the future required memory `M*` (Eq. 2–4) of the would-be batch stays
///    within `capacity × (1 − reserved_frac)`.
///
/// `sample_repeats` full passes are evaluated and the most conservative
/// admission count wins, which is the paper's "repeat the sampling
/// prediction several times when the running batch is small" refinement —
/// it suppresses the variance of single draws. A running request's support
/// `P(l > l_t)` is one load from the distribution's count table, so each
/// pass only loads and draws.
///
/// [`SchedulerConfig::Oracle`](crate::SchedulerConfig::Oracle) builds the
/// same admission over the *true* output lengths instead, with no reserve
/// and one pass: the paper's "theoretical optimum" baseline. Under the
/// simulator's exact token accounting it never evicts; impossible in
/// production, it calibrates how close the sampled predictions get.
#[derive(Debug)]
pub struct PastFutureScheduler {
    source: LengthSource,
    reserved_frac: f64,
    sample_repeats: usize,
    name: String,
    /// Reusable admission batch of packed Eq. 2 keys. Each pass refills it
    /// with freshly drawn running entries, unsorted; a candidate probe
    /// asks only whether `M*` exceeds the budget, which order-free bounds
    /// mostly answer, and the batch sorts at most once per pass, when
    /// they cannot.
    entries: PackedBatch,
}

impl PastFutureScheduler {
    /// Creates a scheduler.
    ///
    /// * `window` — history window size (paper default 1000);
    /// * `reserved_frac` — fraction of capacity kept free as a buffer
    ///   against distribution shift (paper evaluates 3%, 5%, 10%);
    /// * `sample_repeats` — number of sampling passes, the most
    ///   conservative of which is used (≥ 1);
    /// * `seed` — RNG seed for the sampling passes.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0, `reserved_frac` is outside `[0, 1)` or
    /// `sample_repeats` is 0.
    pub fn new(window: usize, reserved_frac: f64, sample_repeats: usize, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&reserved_frac),
            "reserved fraction {reserved_frac} outside [0, 1)"
        );
        assert!(sample_repeats > 0, "sample_repeats must be at least 1");
        PastFutureScheduler {
            source: LengthSource::History {
                history: OutputLengthHistory::new(window),
                rng: StdRng::seed_from_u64(seed),
            },
            reserved_frac,
            sample_repeats,
            name: format!("past-future(reserved={:.0}%)", reserved_frac * 100.0),
            entries: PackedBatch::default(),
        }
    }

    /// The "theoretical optimum": admission over the true output lengths,
    /// with no reserve and one pass.
    pub(crate) fn oracle() -> Self {
        PastFutureScheduler {
            source: LengthSource::Oracle,
            reserved_frac: 0.0,
            sample_repeats: 1,
            name: "theoretical-optimum".to_string(),
            entries: PackedBatch::default(),
        }
    }

    /// One full Algorithm-1 pass: returns how many queue-front requests fit.
    /// The source is matched once per pass, so each arm's entry loops are
    /// monomorphic.
    fn admission_pass(
        &mut self,
        running: &[RunningRequest],
        queue: &[QueuedRequest],
        budget: u64,
    ) -> usize {
        let entries = &mut self.entries;
        match &mut self.source {
            LengthSource::History { history, rng } => {
                let dist = history.distribution();
                // Lines 2–6: refresh predictions for the running batch.
                entries.fill(running.iter().map(|r| {
                    let predicted = predict(rng, dist, r.generated, r.max_new_tokens);
                    BatchEntry {
                        committed: r.committed(),
                        remaining: u64::from(predicted.saturating_sub(r.generated).max(1)),
                    }
                }));
                admit_prefix(entries, queue, budget, |c| {
                    predict(rng, dist, c.generated, c.max_new_tokens)
                })
            }
            LengthSource::Oracle => {
                entries.fill(running.iter().map(|r| {
                    BatchEntry {
                        committed: r.committed(),
                        remaining: r
                            .oracle_remaining
                            .map_or_else(|| r.worst_case_remaining(), u64::from),
                    }
                }));
                admit_prefix(entries, queue, budget, |c| {
                    c.oracle_remaining
                        .map_or(c.max_new_tokens, |r| c.generated + r)
                })
            }
        }
    }
}

/// Lines 7–16 of Algorithm 1: admits queue candidates into the running
/// batch in `entries` while `M*` fits `budget`, stopping at the first that
/// does not. `predicted_total` gives a candidate's total output length and
/// is called lazily, up to and including the first rejection. Candidates
/// are modelled at their post-prefill state (the prefill emits their first
/// token while the rest of the batch is paused). Each probe is
/// [`PackedBatch::exceeds`]: a sum over the committed tokens when an
/// order-free bound decides, one more O(n) bucket pass when the buckets
/// do, and otherwise a sort the first time and an O(log n) insertion plus
/// an O(n) scan after it. Each answer equals `peak() > budget`, so the
/// result is identical to re-sorting from scratch.
fn admit_prefix(
    entries: &mut PackedBatch,
    queue: &[QueuedRequest],
    budget: u64,
    mut predicted_total: impl FnMut(&QueuedRequest) -> u32,
) -> usize {
    let mut admitted = 0;
    for candidate in queue {
        let (committed, remaining) = candidate.post_prefill_entry(predicted_total(candidate));
        entries.insert(BatchEntry {
            committed,
            remaining,
        });
        if entries.exceeds(budget) {
            break;
        }
        admitted += 1;
    }
    admitted
}

/// Predicts the total output length of a request that has generated
/// `generated` tokens so far (paper Section 3.2): a draw from `P(l)` for a
/// queued request, from the conditional `P(l | l > l_t)` for one that has
/// generated `l_t` tokens, clamped to its `max_new_tokens` cap.
///
/// A still-running request always gets a prediction strictly greater than
/// `generated` (it must emit at least one more token), except when it has
/// reached (or passed) the cap, in which case the prediction equals the
/// cap. When the history cannot answer (cold start, or `l_t` beyond every
/// historical length) the prediction is the cap — exactly the paper's
/// service-startup initialization; neither fallback touches `rng`.
///
/// The support starts at index 0 of the sorted sample for a request that
/// has generated nothing (it draws from all of `P(l)`), otherwise at the
/// first length above `generated`, which the count table gives in one load.
fn predict(
    rng: &mut StdRng,
    distribution: Option<&OutputLengthDistribution>,
    generated: u32,
    max_new_tokens: u32,
) -> u32 {
    let Some(dist) = distribution else {
        return max_new_tokens;
    };
    let start = if generated > 0 {
        dist.greater_than_start(generated)
    } else {
        0
    };
    let Some(sampled) = dist.sample_from(rng, start) else {
        return max_new_tokens;
    };
    let cap = max_new_tokens.max(1);
    sampled.clamp(generated.saturating_add(1).min(cap), cap)
}

impl Scheduler for PastFutureScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn plan_admission(
        &mut self,
        running: &[RunningRequest],
        queue: &[QueuedRequest],
        memory: &MemoryState,
    ) -> usize {
        if queue.is_empty() {
            return 0;
        }
        let budget = (memory.capacity_tokens as f64 * (1.0 - self.reserved_frac)) as u64;
        let mut admitted = usize::MAX;
        for _ in 0..self.sample_repeats {
            admitted = admitted.min(self.admission_pass(running, queue, budget));
            if admitted == 0 {
                break;
            }
        }
        admitted
    }

    fn on_request_finished(&mut self, output_len: u32) {
        if let LengthSource::History { history, .. } = &mut self.source {
            history.record(output_len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{FutureMemoryEstimator, Route};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn queued(id: u64, input: u32, max_new: u32) -> QueuedRequest {
        QueuedRequest {
            id,
            input_len: input,
            generated: 0,
            max_new_tokens: max_new,
            oracle_remaining: None,
        }
    }

    fn running(id: u64, input: u32, generated: u32, max_new: u32) -> RunningRequest {
        RunningRequest {
            id,
            input_len: input,
            generated,
            max_new_tokens: max_new,
            oracle_remaining: None,
        }
    }

    fn memory(capacity: u64, used: u64) -> MemoryState {
        MemoryState {
            capacity_tokens: capacity,
            used_tokens: used,
        }
    }

    #[test]
    fn cold_start_falls_back_to_max_new_tokens() {
        // Empty history: predictions equal max_new_tokens, so the scheduler
        // behaves exactly like the conservative baseline.
        let mut s = PastFutureScheduler::new(100, 0.0, 1, 1);
        // Each request budgets 10 input + 90 output = 100 tokens.
        let queue: Vec<QueuedRequest> = (0..5).map(|i| queued(i, 10, 90)).collect();
        let n = s.plan_admission(&[], &queue, &memory(250, 0));
        assert_eq!(n, 2, "only two 100-token worst cases fit in 250");
    }

    #[test]
    fn warm_history_admits_more_than_cold() {
        // History says outputs are ~20 tokens, far below the 90-token cap.
        let mut s = PastFutureScheduler::new(100, 0.0, 1, 1);
        for _ in 0..100 {
            s.on_request_finished(20);
        }
        let queue: Vec<QueuedRequest> = (0..8).map(|i| queued(i, 10, 90)).collect();
        let n = s.plan_admission(&[], &queue, &memory(250, 0));
        // Each request now budgets ~30 tokens; all of them fit where the
        // cold scheduler admitted 2.
        assert!(n > 2, "warm history should admit more, got {n}");
    }

    #[test]
    fn reserved_fraction_shrinks_budget() {
        let mk = |reserved: f64| {
            let mut s = PastFutureScheduler::new(100, reserved, 1, 1);
            for _ in 0..100 {
                s.on_request_finished(50);
            }
            let queue: Vec<QueuedRequest> = (0..10).map(|i| queued(i, 50, 100)).collect();
            s.plan_admission(&[], &queue, &memory(1000, 0))
        };
        let no_reserve = mk(0.0);
        let heavy_reserve = mk(0.3);
        assert!(
            no_reserve > heavy_reserve,
            "reserve must reduce admission: {no_reserve} vs {heavy_reserve}"
        );
    }

    #[test]
    fn accounts_for_running_batch_growth() {
        let mut s = PastFutureScheduler::new(100, 0.0, 1, 1);
        for _ in 0..100 {
            s.on_request_finished(100);
        }
        // Running request has committed 150 and will grow ~50 more.
        let run = [running(0, 100, 50, 200)];
        let queue = [queued(1, 100, 200)];
        // Capacity 260: running alone peaks at 200; adding the candidate's
        // 100 input + ~100 output cannot fit.
        let n = s.plan_admission(&run, &queue, &memory(260, 150));
        assert_eq!(n, 0);
        // With ample capacity it is admitted.
        let n = s.plan_admission(&run, &queue, &memory(1000, 150));
        assert_eq!(n, 1);
    }

    #[test]
    fn admission_is_fcfs_prefix() {
        let mut s = PastFutureScheduler::new(100, 0.0, 1, 1);
        for _ in 0..100 {
            s.on_request_finished(10);
        }
        // First request is huge and cannot fit; the second would fit alone
        // but FCFS order must stop at the first reject.
        let queue = [queued(0, 10_000, 10_100), queued(1, 10, 100)];
        let n = s.plan_admission(&[], &queue, &memory(500, 0));
        assert_eq!(n, 0);
    }

    #[test]
    fn more_repeats_is_more_conservative() {
        // With a bimodal history, a single pass can get lucky; the min over
        // repeats never admits more than any single pass.
        let run_with_repeats = |repeats: usize| {
            let mut s = PastFutureScheduler::new(1000, 0.0, repeats, 99);
            for i in 0..1000 {
                s.on_request_finished(if i % 2 == 0 { 10 } else { 500 });
            }
            let queue: Vec<QueuedRequest> = (0..20).map(|i| queued(i, 50, 600)).collect();
            s.plan_admission(&[], &queue, &memory(3000, 0))
        };
        let single: usize = run_with_repeats(1);
        let many = run_with_repeats(16);
        assert!(many <= single, "repeats must not increase admission");
    }

    /// A history window of `window` holding `lengths`.
    fn history(window: usize, lengths: impl IntoIterator<Item = u32>) -> OutputLengthHistory {
        let mut h = OutputLengthHistory::new(window);
        h.extend(lengths);
        h
    }

    #[test]
    fn predictor_conditional_refresh() {
        let h = history(10, [100u32, 200, 300]);
        let dist = h.distribution();
        let mut rng = StdRng::seed_from_u64(3);
        // A request at 250 generated tokens can only be predicted as 300.
        for _ in 0..50 {
            assert_eq!(predict(&mut rng, dist, 250, 1000), 300);
        }
        // A request past every historical length falls back to its cap.
        assert_eq!(predict(&mut rng, dist, 300, 1000), 1000);
        // Cold start falls back to the cap.
        assert_eq!(predict(&mut rng, None, 0, 777), 777);
    }

    #[test]
    fn prediction_clamped_to_cap() {
        let h = history(10, [5000u32; 10]);
        let dist = h.distribution();
        let mut rng = StdRng::seed_from_u64(4);
        // History says 5000, but the request is capped at 128.
        assert_eq!(predict(&mut rng, dist, 0, 128), 128);
        // Running request: prediction stays > generated even when clamped.
        assert_eq!(predict(&mut rng, dist, 100, 128), 128);
    }

    #[test]
    fn prediction_at_or_past_the_cap_is_the_cap() {
        // The history only holds lengths above the cap, and the request
        // is at or past it, so `generated + 1` exceeds the cap.
        let h = history(10, [5000u32; 10]);
        let dist = h.distribution();
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(predict(&mut rng, dist, 128, 128), 128);
        assert_eq!(predict(&mut rng, dist, 200, 128), 128);
    }

    /// Admission as it was written before the history kept its sample
    /// sorted: `P(l)` rebuilt on every call, then a full prediction (binary
    /// search and draw) per running request in every pass, then a fresh
    /// `peak_memory` per candidate.
    struct Reference {
        window: usize,
        history: std::collections::VecDeque<u32>,
        reserved_frac: f64,
        sample_repeats: usize,
        rng: StdRng,
    }

    impl Reference {
        fn new(window: usize, reserved_frac: f64, sample_repeats: usize, seed: u64) -> Self {
            Reference {
                window,
                history: std::collections::VecDeque::new(),
                reserved_frac,
                sample_repeats,
                rng: StdRng::seed_from_u64(seed),
            }
        }

        fn on_request_finished(&mut self, output_len: u32) {
            if self.history.len() == self.window {
                self.history.pop_front();
            }
            self.history.push_back(output_len);
        }

        fn predict(
            rng: &mut StdRng,
            dist: Option<&OutputLengthDistribution>,
            generated: u32,
            max_new_tokens: u32,
        ) -> u32 {
            let Some(dist) = dist else {
                return max_new_tokens;
            };
            let sorted = dist.as_sorted_slice();
            let idx = if generated == 0 {
                0
            } else {
                sorted.partition_point(|&v| v <= generated)
            };
            if idx == sorted.len() {
                return max_new_tokens;
            }
            let sampled = sorted[rng.gen_range(idx..sorted.len())];
            sampled.clamp(generated.saturating_add(1), max_new_tokens.max(1))
        }

        fn plan_admission(
            &mut self,
            running: &[RunningRequest],
            queue: &[QueuedRequest],
            memory: &MemoryState,
        ) -> usize {
            if queue.is_empty() {
                return 0;
            }
            let dist = OutputLengthDistribution::from_lengths(self.history.iter().copied());
            let budget = (memory.capacity_tokens as f64 * (1.0 - self.reserved_frac)) as u64;
            let mut admitted = usize::MAX;
            for _ in 0..self.sample_repeats {
                let mut entries: Vec<BatchEntry> = running
                    .iter()
                    .map(|r| {
                        let predicted = Self::predict(
                            &mut self.rng,
                            dist.as_ref(),
                            r.generated,
                            r.max_new_tokens,
                        );
                        BatchEntry {
                            committed: r.committed(),
                            remaining: u64::from(predicted.saturating_sub(r.generated).max(1)),
                        }
                    })
                    .collect();
                let mut pass = 0;
                for c in queue {
                    let predicted =
                        Self::predict(&mut self.rng, dist.as_ref(), c.generated, c.max_new_tokens);
                    let (committed, remaining) = c.post_prefill_entry(predicted);
                    entries.push(BatchEntry {
                        committed,
                        remaining,
                    });
                    if FutureMemoryEstimator::peak_memory(&entries) > budget {
                        break;
                    }
                    pass += 1;
                }
                admitted = admitted.min(pass);
                if admitted == 0 {
                    break;
                }
            }
            admitted
        }
    }

    /// Asserts that a drive's admission probes, counted per
    /// [`Route`] in `Route::ALL` order, took every route of
    /// [`PackedBatch::exceeds`]: the order-free bounds, the bucket pass,
    /// the sort fallback and the scan of a kept order. So the reference
    /// checks each of them, not only one.
    fn assert_every_route(tally: [u32; Route::ALL.len()]) {
        for (count, route) in tally.into_iter().zip(Route::ALL) {
            assert!(count > 0, "no probe took {route:?}");
        }
    }

    #[test]
    fn matches_rebuild_per_call_reference() {
        let mut admissions = 0;
        let mut tally = [0; Route::ALL.len()];
        for seed in 0..48u64 {
            let mut g = StdRng::seed_from_u64(1000 + seed);
            let window = g.gen_range(1..=48usize);
            let reserved = [0.0, 0.05, 0.1][g.gen_range(0..3usize)];
            let repeats = g.gen_range(1..=4usize);
            let mut s = PastFutureScheduler::new(window, reserved, repeats, seed);
            let mut r = Reference::new(window, reserved, repeats, seed);
            // Few distinct lengths, so thresholds land on runs of equals.
            let max_len = g.gen_range(1..=300u32);
            for call in 0..150 {
                for _ in 0..g.gen_range(0..4usize) {
                    let len = g.gen_range(0..=max_len) / 10 * 10;
                    s.on_request_finished(len);
                    r.on_request_finished(len);
                }
                let running: Vec<RunningRequest> = (0..g.gen_range(0..24u64))
                    .map(|id| {
                        // Up to past every historical length, below the cap.
                        let max_new = g.gen_range(1..=max_len + 50);
                        let generated = g.gen_range(0..max_new) / 10 * 10;
                        running(id, g.gen_range(1..200), generated, max_new)
                    })
                    .collect();
                let queue: Vec<QueuedRequest> = (0..g.gen_range(0..8u64))
                    .map(|id| {
                        let max_new = g.gen_range(1..=max_len + 50);
                        let mut q = queued(100 + id, g.gen_range(1..200), max_new);
                        if g.gen_range(0..4u32) == 0 {
                            q.generated = g.gen_range(0..max_new);
                        }
                        q
                    })
                    .collect();
                let mem = memory(g.gen_range(0..30_000), 0);
                let got = s.plan_admission(&running, &queue, &mem);
                let want = r.plan_admission(&running, &queue, &mem);
                assert_eq!(got, want, "seed {seed}, call {call}");
                admissions += got;
            }
            for (count, route) in tally.iter_mut().zip(Route::ALL) {
                *count += s.entries.took(route);
            }
        }
        assert!(admissions > 0, "the drive never admitted anything");
        assert_every_route(tally);
    }

    fn oracle_queued(id: u64, input: u32, true_out: u32) -> QueuedRequest {
        QueuedRequest {
            oracle_remaining: Some(true_out),
            ..queued(id, input, 10_000)
        }
    }

    #[test]
    fn oracle_admits_to_exact_capacity() {
        let mut s = PastFutureScheduler::oracle();
        // Two requests, each peaking at input 10 + output 40 = 50; they
        // finish simultaneously, so M* = 100 exactly.
        let queue = [oracle_queued(0, 10, 40), oracle_queued(1, 10, 40)];
        assert_eq!(s.plan_admission(&[], &queue, &memory(100, 0)), 2);
        assert_eq!(s.plan_admission(&[], &queue, &memory(99, 0)), 1);
    }

    #[test]
    fn oracle_exploits_staggered_completions() {
        let mut s = PastFutureScheduler::oracle();
        // A short request rides along with a long one because it releases
        // memory early. Post-prefill entries (11, 49) and (11, 1):
        // M1 = 11 + 49 = 60, M2 = 22 + 1·2 = 24, so M* = 60, where summing
        // the totals would need 72.
        let queue = [oracle_queued(0, 10, 50), oracle_queued(1, 10, 2)];
        assert_eq!(s.plan_admission(&[], &queue, &memory(72, 0)), 2);
        assert_eq!(
            s.plan_admission(&[], &queue, &memory(60, 0)),
            2,
            "M* is only 60"
        );
    }

    #[test]
    fn oracle_uses_true_remaining_for_running() {
        let mut s = PastFutureScheduler::oracle();
        let running = [RunningRequest {
            oracle_remaining: Some(5),
            ..running(0, 50, 10, 10_000)
        }];
        // Running truly needs 60 + 5 = 65 peak. The queued candidate is
        // modelled post-prefill as (21, 19): its prefill emits one token
        // while the running request is paused. Batch peak: sorted
        // (21,19),(60,5): M1 = 21 + 19 = 40, M2 = 81 + 5·2 = 91.
        let queue = [oracle_queued(1, 20, 20)];
        assert_eq!(s.plan_admission(&running, &queue, &memory(91, 60)), 1);
        assert_eq!(s.plan_admission(&running, &queue, &memory(90, 60)), 0);
    }

    #[test]
    fn oracle_falls_back_to_worst_case_without_oracle_data() {
        let mut s = PastFutureScheduler::oracle();
        let queue = [queued(0, 10, 100)];
        assert_eq!(s.plan_admission(&[], &queue, &memory(109, 0)), 0);
        assert_eq!(s.plan_admission(&[], &queue, &memory(110, 0)), 1);
    }

    #[test]
    fn oracle_name_is_stable() {
        assert_eq!(PastFutureScheduler::oracle().name(), "theoretical-optimum");
    }

    /// The oracle's batch exactly as it was built when it was its own
    /// scheduler: the running entries, then every candidate post-prefill.
    fn oracle_reference_entries(
        running: &[RunningRequest],
        queue: &[QueuedRequest],
    ) -> (Vec<BatchEntry>, Vec<BatchEntry>) {
        let running = running
            .iter()
            .map(|r| BatchEntry {
                committed: r.committed(),
                remaining: r
                    .oracle_remaining
                    .map(u64::from)
                    .unwrap_or_else(|| r.worst_case_remaining()),
            })
            .collect();
        let candidates = queue
            .iter()
            .map(|c| {
                let predicted_total = c
                    .oracle_remaining
                    .map(|r| c.generated + r)
                    .unwrap_or(c.max_new_tokens);
                let (committed, remaining) = c.post_prefill_entry(predicted_total);
                BatchEntry {
                    committed,
                    remaining,
                }
            })
            .collect();
        (running, candidates)
    }

    /// The oracle's admission as it was written: every candidate re-sorts
    /// the whole batch through `peak_memory`.
    fn oracle_reference(
        running: &[RunningRequest],
        queue: &[QueuedRequest],
        memory: &MemoryState,
    ) -> usize {
        let (mut entries, candidates) = oracle_reference_entries(running, queue);
        let mut admitted = 0;
        for candidate in candidates {
            entries.push(candidate);
            if FutureMemoryEstimator::peak_memory(&entries) <= memory.capacity_tokens {
                admitted += 1;
            } else {
                break;
            }
        }
        admitted
    }

    /// A ground truth for a request capped at `max_new`: mostly below the
    /// cap, sometimes 0, above the cap, or absent; drawn from a few values
    /// so remaining lengths tie.
    fn truth(g: &mut StdRng, max_new: u32) -> Option<u32> {
        match g.gen_range(0..8u32) {
            0 => None,
            1 => Some(0),
            2 => Some(max_new + g.gen_range(1..50u32)),
            _ => Some(g.gen_range(0..=max_new) / 8 * 8),
        }
    }

    #[test]
    fn oracle_matches_resorting_reference() {
        let mut g = StdRng::seed_from_u64(27);
        let mut s = PastFutureScheduler::oracle();
        let (mut admissions, mut rejections) = (0, 0);
        for call in 0..3000 {
            let running: Vec<RunningRequest> = (0..g.gen_range(0..16u64))
                .map(|id| {
                    let max_new = g.gen_range(1..=200);
                    RunningRequest {
                        oracle_remaining: truth(&mut g, max_new),
                        ..running(id, g.gen_range(1..100), g.gen_range(0..=max_new), max_new)
                    }
                })
                .collect();
            let queue: Vec<QueuedRequest> = (0..g.gen_range(1..8u64))
                .map(|id| {
                    let max_new = g.gen_range(1..=200);
                    // A quarter are requeued after an eviction.
                    let generated = if g.gen_range(0..4u32) == 0 {
                        g.gen_range(1..=max_new)
                    } else {
                        0
                    };
                    QueuedRequest {
                        generated,
                        oracle_remaining: truth(&mut g, max_new),
                        ..queued(100 + id, g.gen_range(1..100), max_new)
                    }
                })
                .collect();
            // Capacity within a token of the peak with some queue prefix
            // admitted, so every boundary is probed.
            let (mut batch, candidates) = oracle_reference_entries(&running, &queue);
            batch.extend(&candidates[..g.gen_range(0..=candidates.len())]);
            let peak = FutureMemoryEstimator::peak_memory(&batch);
            let mem = memory((peak + g.gen_range(0..3u64)).saturating_sub(1), 0);
            let want = oracle_reference(&running, &queue, &mem);
            assert_eq!(
                s.plan_admission(&running, &queue, &mem),
                want,
                "call {call}"
            );
            admissions += want;
            rejections += usize::from(want < queue.len());
        }
        assert!(
            admissions > 0 && rejections > 0,
            "the drive never hit both sides"
        );
        assert_every_route(Route::ALL.map(|route| s.entries.took(route)));
    }

    #[test]
    fn name_reflects_reserve() {
        let s = PastFutureScheduler::new(100, 0.1, 1, 0);
        assert_eq!(s.name(), "past-future(reserved=10%)");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn invalid_reserve_panics() {
        let _ = PastFutureScheduler::new(100, 1.0, 1, 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_repeats_panics() {
        let _ = PastFutureScheduler::new(100, 0.0, 0, 0);
    }
}
