//! The Past-Future scheduler (paper Algorithm 1).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::distribution::OutputLengthDistribution;
use crate::estimator::{BatchEntry, FutureMemoryEstimator};
use crate::history::OutputLengthHistory;
use crate::scheduler::{MemoryState, QueuedRequest, RunningRequest, Scheduler};

/// Output-length prediction based on the historical distribution
/// (paper Section 3.2).
///
/// For a queued request the predicted total output length is a draw from
/// `P(l)`; for a request that has already generated `l_t` tokens it is a
/// draw from the conditional `P(l | l > l_t)`, refreshed at every
/// scheduling step so the prediction tracks reality as the request keeps
/// generating. When the history cannot answer (cold start, or `l_t` beyond
/// every historical length) the predictor falls back to the request's
/// `max_new_tokens` cap — exactly the paper's service-startup
/// initialization.
///
/// A prediction is two steps: one binary search locates the support of
/// `P(l | l > l_t)` in the sorted sample, and one draw samples from it.
/// The scheduler keeps the first step's result for a running request
/// across the passes of one admission call and repeats only the draw.
#[derive(Debug, Clone)]
pub struct OutputLengthPredictor {
    history: OutputLengthHistory,
}

impl OutputLengthPredictor {
    /// Creates a predictor with the given history window size.
    pub fn new(window: usize) -> Self {
        OutputLengthPredictor {
            history: OutputLengthHistory::new(window),
        }
    }

    /// Records a finished request's actual output length.
    pub fn record(&mut self, output_len: u32) {
        self.history.record(output_len);
    }

    /// Read access to the backing history.
    pub fn history(&self) -> &OutputLengthHistory {
        &self.history
    }

    /// The current `P(l)`, or `None` before any completion.
    pub fn distribution(&self) -> Option<&OutputLengthDistribution> {
        self.history.distribution()
    }

    /// Predicts the total output length of a request that has generated
    /// `generated` tokens so far, clamped to its `max_new_tokens` cap.
    ///
    /// A still-running request always gets a prediction strictly greater
    /// than `generated` (it must emit at least one more token), except when
    /// it has reached (or passed) the cap, in which case the prediction
    /// equals the cap.
    pub fn predict<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        distribution: Option<&OutputLengthDistribution>,
        generated: u32,
        max_new_tokens: u32,
    ) -> u32 {
        let start = Self::suffix_start(distribution, generated);
        Self::draw(rng, distribution, start, generated, max_new_tokens)
    }

    /// First step of [`predict`](Self::predict): the index in
    /// `distribution`'s sorted sample where the support of a request that
    /// has generated `generated` tokens starts — 0 for a request that has
    /// generated nothing (it draws from all of `P(l)`), otherwise the first
    /// length above `generated`. 0 when there is no distribution.
    pub(crate) fn suffix_start(
        distribution: Option<&OutputLengthDistribution>,
        generated: u32,
    ) -> usize {
        match distribution {
            Some(dist) if generated > 0 => dist.greater_than_start(generated),
            _ => 0,
        }
    }

    /// Second step of [`predict`](Self::predict): draws from the support
    /// starting at `start` and clamps the draw into
    /// `(generated, max_new_tokens]`. Falls back to `max_new_tokens` without
    /// touching `rng` when there is no distribution or the support is empty.
    pub(crate) fn draw<R: rand::Rng + ?Sized>(
        rng: &mut R,
        distribution: Option<&OutputLengthDistribution>,
        start: usize,
        generated: u32,
        max_new_tokens: u32,
    ) -> u32 {
        let Some(sampled) = distribution.and_then(|dist| dist.sample_from(rng, start)) else {
            return max_new_tokens;
        };
        let cap = max_new_tokens.max(1);
        sampled.clamp(generated.saturating_add(1).min(cap), cap)
    }
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
/// `P(l > l_t)` is the same in every pass of one call, so it is located
/// once per call and each pass only draws.
#[derive(Debug)]
pub struct PastFutureScheduler {
    predictor: OutputLengthPredictor,
    reserved_frac: f64,
    sample_repeats: usize,
    rng: StdRng,
    name: String,
    /// Reusable per-call suffix starts, one per running request (see
    /// [`OutputLengthPredictor::suffix_start`]).
    starts: Vec<usize>,
    /// Reusable admission batch, kept in Eq. 2 order (`remaining`
    /// descending) so each candidate probe is a binary insertion plus a
    /// linear `peak_memory_sorted` scan instead of a clone + full sort.
    entries: Vec<BatchEntry>,
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
    /// Panics if `reserved_frac` is outside `[0, 1)` or `sample_repeats`
    /// is 0.
    pub fn new(window: usize, reserved_frac: f64, sample_repeats: usize, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&reserved_frac),
            "reserved fraction {reserved_frac} outside [0, 1)"
        );
        assert!(sample_repeats > 0, "sample_repeats must be at least 1");
        PastFutureScheduler {
            predictor: OutputLengthPredictor::new(window),
            reserved_frac,
            sample_repeats,
            rng: StdRng::seed_from_u64(seed),
            name: format!("past-future(reserved={:.0}%)", reserved_frac * 100.0),
            starts: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// The reserved-memory fraction.
    pub fn reserved_frac(&self) -> f64 {
        self.reserved_frac
    }

    /// Read access to the predictor (for diagnostics).
    pub fn predictor(&self) -> &OutputLengthPredictor {
        &self.predictor
    }

    /// One full Algorithm-1 pass: returns how many queue-front requests fit.
    fn admission_pass(
        &mut self,
        running: &[RunningRequest],
        queue: &[QueuedRequest],
        budget: u64,
    ) -> usize {
        let dist = self.predictor.distribution();
        debug_assert_eq!(self.starts.len(), running.len());
        // Lines 2–6: refresh predictions for the running batch.
        self.entries.clear();
        for (r, &start) in running.iter().zip(&self.starts) {
            let predicted = OutputLengthPredictor::draw(
                &mut self.rng,
                dist,
                start,
                r.generated,
                r.max_new_tokens,
            );
            self.entries.push(BatchEntry {
                committed: r.committed(),
                remaining: u64::from(predicted.saturating_sub(r.generated).max(1)),
            });
        }
        FutureMemoryEstimator::sort_by_remaining_desc(&mut self.entries);
        // Lines 7–16: admit queue candidates while M* fits the budget.
        // Candidates are modelled at their post-prefill state (the prefill
        // emits their first token while the rest of the batch is paused).
        // The batch stays in Eq. 2 order across insertions, so each probe
        // is O(log n) placement + O(n) scan; M* is permutation-invariant,
        // so the result is identical to re-sorting from scratch.
        let mut admitted = 0;
        for candidate in queue {
            let predicted = self.predictor.predict(
                &mut self.rng,
                dist,
                candidate.generated,
                candidate.max_new_tokens,
            );
            let (committed, remaining) = candidate.post_prefill_entry(predicted);
            let pos = self.entries.partition_point(|e| e.remaining >= remaining);
            self.entries.insert(
                pos,
                BatchEntry {
                    committed,
                    remaining,
                },
            );
            if FutureMemoryEstimator::peak_memory_sorted(&self.entries) <= budget {
                admitted += 1;
            } else {
                break;
            }
        }
        admitted
    }
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
        // A running request's support `P(l > l_t)` is the same in every
        // pass, so its binary search runs once per call.
        let dist = self.predictor.distribution();
        self.starts.clear();
        self.starts.extend(
            running
                .iter()
                .map(|r| OutputLengthPredictor::suffix_start(dist, r.generated)),
        );
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
        self.predictor.record(output_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn predictor_conditional_refresh() {
        let mut p = OutputLengthPredictor::new(10);
        for len in [100u32, 200, 300] {
            p.record(len);
        }
        let dist = p.distribution();
        let mut rng = StdRng::seed_from_u64(3);
        // A request at 250 generated tokens can only be predicted as 300.
        for _ in 0..50 {
            let pred = p.predict(&mut rng, dist, 250, 1000);
            assert_eq!(pred, 300);
        }
        // A request past every historical length falls back to its cap.
        assert_eq!(p.predict(&mut rng, dist, 300, 1000), 1000);
        // Cold start falls back to the cap.
        assert_eq!(p.predict(&mut rng, None, 0, 777), 777);
    }

    #[test]
    fn prediction_clamped_to_cap() {
        let mut p = OutputLengthPredictor::new(10);
        for _ in 0..10 {
            p.record(5000);
        }
        let dist = p.distribution();
        let mut rng = StdRng::seed_from_u64(4);
        // History says 5000, but the request is capped at 128.
        assert_eq!(p.predict(&mut rng, dist, 0, 128), 128);
        // Running request: prediction stays > generated even when clamped.
        assert_eq!(p.predict(&mut rng, dist, 100, 128), 128);
    }

    #[test]
    fn prediction_at_or_past_the_cap_is_the_cap() {
        // The history only holds lengths above the cap, and the request
        // is at or past it, so `generated + 1` exceeds the cap.
        let mut p = OutputLengthPredictor::new(10);
        for _ in 0..10 {
            p.record(5000);
        }
        let dist = p.distribution();
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(p.predict(&mut rng, dist, 128, 128), 128);
        assert_eq!(p.predict(&mut rng, dist, 200, 128), 128);
    }

    /// Admission exactly as it was written before the history kept its
    /// sample sorted: `P(l)` rebuilt on every call, then a full prediction
    /// (binary search and draw) per running request in every pass, then
    /// sort, insert and scan.
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
                FutureMemoryEstimator::sort_by_remaining_desc(&mut entries);
                let mut pass = 0;
                for c in queue {
                    let predicted =
                        Self::predict(&mut self.rng, dist.as_ref(), c.generated, c.max_new_tokens);
                    let (committed, remaining) = c.post_prefill_entry(predicted);
                    let pos = entries.partition_point(|e| e.remaining >= remaining);
                    entries.insert(
                        pos,
                        BatchEntry {
                            committed,
                            remaining,
                        },
                    );
                    if FutureMemoryEstimator::peak_memory_sorted(&entries) > budget {
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

    #[test]
    fn matches_rebuild_per_call_reference() {
        let mut admissions = 0;
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
        }
        assert!(admissions > 0, "the drive never admitted anything");
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
