//! Future required memory (paper Eq. 2–4, the "Future").
//!
//! The memory a running batch will occupy peaks at a *request-completion
//! moment*: between completions every surviving request grows by one token
//! per decode step, so occupancy rises monotonically until something
//! finishes and releases its cache. It is therefore sufficient to evaluate
//! memory at each future completion point and take the maximum.
//!
//! With requests sorted by estimated remaining generation length in
//! descending order (Eq. 2), the occupancy when request `i` finishes is
//!
//! ```text
//! M_i = Σ_{j≤i} (l_p^j + l_t^j)  +  (l̂_i − l_i) · i        (Eq. 3)
//! ```
//!
//! (requests `j > i` have shorter remaining lengths and have already
//! released their memory), and the future required memory is
//! `M* = max_i M_i` (Eq. 4).

/// One request's contribution to the future-memory computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchEntry {
    /// Tokens already committed to the KV cache: input length plus tokens
    /// generated so far (`l_p + l_t`).
    pub committed: u64,
    /// Estimated remaining generation length (`l̂_t − l_t`).
    pub remaining: u64,
}

impl BatchEntry {
    /// Total footprint this request will have reached when it finishes.
    pub fn total_at_completion(&self) -> u64 {
        self.committed + self.remaining
    }
}

/// Memory occupancy at one future request-completion point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionPoint {
    /// Decode steps from now until this completion (the finishing request's
    /// remaining length).
    pub steps_from_now: u64,
    /// Batch memory occupancy at that moment (`M_i`, Eq. 3).
    pub memory: u64,
}

/// Stateless implementation of Eq. 2–4.
#[derive(Debug, Clone, Copy, Default)]
pub struct FutureMemoryEstimator;

impl FutureMemoryEstimator {
    /// Future required memory `M*` of a batch (Eq. 4). Zero for an empty
    /// batch.
    ///
    /// # Example
    ///
    /// ```
    /// use pf_core::{BatchEntry, FutureMemoryEstimator};
    ///
    /// let batch = [
    ///     BatchEntry { committed: 5, remaining: 2 },
    ///     BatchEntry { committed: 5, remaining: 4 },
    /// ];
    /// assert_eq!(FutureMemoryEstimator::peak_memory(&batch), 14);
    /// ```
    pub fn peak_memory(entries: &[BatchEntry]) -> u64 {
        let mut sorted: Vec<BatchEntry> = entries.to_vec();
        Self::sort_by_remaining_desc(&mut sorted);
        Self::peak_memory_sorted(sorted)
    }

    /// `M*` for entries already in Eq. 2 order (`remaining` descending):
    /// one scan, no sort.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the entries are not sorted descending.
    pub fn peak_memory_sorted(sorted: impl IntoIterator<Item = BatchEntry>) -> u64 {
        let mut prefix_committed = 0u64;
        let mut peak = 0u64;
        let mut previous = u64::MAX;
        for (i, entry) in sorted.into_iter().enumerate() {
            debug_assert!(
                entry.remaining <= previous,
                "entries must be sorted by remaining length, descending"
            );
            previous = entry.remaining;
            prefix_committed += entry.committed;
            let m_i = prefix_committed + entry.remaining * (i as u64 + 1);
            peak = peak.max(m_i);
        }
        peak
    }

    /// The full occupancy profile: one [`CompletionPoint`] per request, in
    /// completion order (soonest first). Exposes the intermediate `M_i`
    /// values behind Eq. 4 for figures and diagnostics.
    pub fn memory_profile(entries: &[BatchEntry]) -> Vec<CompletionPoint> {
        let mut sorted: Vec<BatchEntry> = entries.to_vec();
        Self::sort_by_remaining_desc(&mut sorted);
        let mut prefix_committed = 0u64;
        let mut profile: Vec<CompletionPoint> = sorted
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                prefix_committed += entry.committed;
                CompletionPoint {
                    steps_from_now: entry.remaining,
                    memory: prefix_committed + entry.remaining * (i as u64 + 1),
                }
            })
            .collect();
        profile.reverse(); // soonest completion first
        profile
    }

    /// Sorts entries into Eq. 2 order (`remaining` descending).
    fn sort_by_remaining_desc(entries: &mut [BatchEntry]) {
        entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.remaining));
    }

    /// The running batch advanced by `steps` synchronized decode steps:
    /// every entry grows by one token per step and leaves once its
    /// remaining length is exhausted.
    pub fn advance(entries: &[BatchEntry], steps: u64) -> Vec<BatchEntry> {
        entries
            .iter()
            .filter(|e| e.remaining > steps)
            .map(|e| BatchEntry {
                committed: e.committed + steps,
                remaining: e.remaining - steps,
            })
            .collect()
    }

    /// The paper's "optimal time point" (Figures 5 and 6): the smallest
    /// number of future decode steps after which `candidate` can join
    /// `running` without the batch's future required memory exceeding
    /// `capacity`.
    ///
    /// Pass the candidate in whichever form matches the model in use: the
    /// raw `(input, predicted_output)` entry for the paper's synchronized
    /// decode model, or [`QueuedRequest::post_prefill_entry`] for
    /// engine-accurate accounting (where the admission prefill emits the
    /// first token while the batch is paused).
    ///
    /// Returns `None` when the candidate cannot fit even on an empty
    /// system. Cost is O(max_remaining × k log k) — this is an analysis
    /// helper, not a per-step scheduler primitive (the scheduler only
    /// needs the δ = 0 test).
    ///
    /// [`QueuedRequest::post_prefill_entry`]: crate::QueuedRequest::post_prefill_entry
    pub fn earliest_admission_step(
        running: &[BatchEntry],
        candidate: BatchEntry,
        capacity: u64,
    ) -> Option<u64> {
        if candidate.total_at_completion() > capacity {
            return None;
        }
        let horizon = running.iter().map(|e| e.remaining).max().unwrap_or(0);
        for steps in 0..=horizon {
            let mut batch = Self::advance(running, steps);
            batch.push(candidate);
            if Self::peak_memory(&batch) <= capacity {
                return Some(steps);
            }
        }
        // Past the horizon the batch has fully drained.
        Some(horizon + 1)
    }
}

/// A reusable Eq. 2–4 batch held as packed `u64` sort keys, for the two
/// hot loops that evaluate `M*` from scratch: Past-Future admission and the
/// engine's true peak.
///
/// Each entry is the key `(remaining << 32) | slot`, where `slot` indexes
/// `committed`, a parallel vector that keeps the committed tokens exact as
/// `u64`. Sorting the keys descending is a primitive integer sort that
/// puts the batch in Eq. 2 order; ties on `remaining` fall in slot order,
/// which cannot change `M*` (the tied group's largest term is the same in
/// any order). Every `remaining` must fit in 32 bits, as it does at both
/// callers, which derive it from `u32` lengths; a larger one panics rather
/// than pack into the slot bits.
///
/// The batch sorts only when asked for its order or its `M*`. Admission
/// asks only whether `M*` exceeds a budget, and [`exceeds`](Self::exceeds)
/// answers that from Σ committed and the smallest and largest remaining
/// length, or from one bucket pass over the keys, none of which depends
/// on the order; it sorts only when they cannot decide. Once sorted, the
/// batch stays in Eq. 2 order: [`insert`](Self::insert) places each new
/// key by binary search.
///
/// [`FutureMemoryEstimator::peak_memory`] is the reference it must match.
///
/// # Example
///
/// ```
/// use pf_core::{BatchEntry, FutureMemoryEstimator, PackedBatch};
///
/// let running = [
///     BatchEntry { committed: 5, remaining: 2 },
///     BatchEntry { committed: 5, remaining: 4 },
/// ];
/// let candidate = BatchEntry { committed: 3, remaining: 5 };
/// let mut batch = PackedBatch::default();
/// batch.fill(running);
/// batch.insert(candidate);
/// assert!(batch.exceeds(18));
/// assert!(!batch.exceeds(19));
/// let reference = [running[0], running[1], candidate];
/// assert_eq!(batch.peak(), 19);
/// assert_eq!(batch.peak(), FutureMemoryEstimator::peak_memory(&reference));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PackedBatch {
    /// `(remaining << 32) | slot` per entry: descending once the batch is
    /// sorted, in arrival order before.
    keys: Vec<u64>,
    /// Committed tokens, indexed by slot.
    committed: Vec<u64>,
    /// The smallest remaining length while the batch is unsorted; above
    /// `max_remaining` once it is sorted, when no bound needs it. Marking
    /// the order in these two words keeps the batch at 56 bytes, a size at
    /// which the benchmark's peak memory holds (see docs/performance.md,
    /// "Admission decided by bounds").
    min_remaining: u32,
    /// The largest remaining length while the batch is unsorted.
    max_remaining: u32,
    /// How many answers of `exceeds` took each route, in `Route::ALL`
    /// order.
    #[cfg(test)]
    routes: [u32; Route::ALL.len()],
}

/// Equal-width buckets of the remaining range in step d of
/// [`PackedBatch::exceeds`].
const BUCKETS: usize = 32;

/// How [`PackedBatch::exceeds`] reached its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// a: `M_n`, the last Eq. 3 term, exceeds the budget.
    LastTerm,
    /// b: `Σc + n·r_max`, a bound on every term, fits the budget.
    Ceiling,
    /// c: a scan of the batch, already in Eq. 2 order.
    Scan,
    /// d: the bucket pass found a term over the budget.
    BucketTerm,
    /// d: the bucket pass bounded every term within the budget.
    BucketCeiling,
    /// e: nothing else decided, so the batch was sorted, then scanned.
    Sort,
}

#[cfg(test)]
impl Route {
    pub(crate) const ALL: [Route; 6] = [
        Route::LastTerm,
        Route::Ceiling,
        Route::Scan,
        Route::BucketTerm,
        Route::BucketCeiling,
        Route::Sort,
    ];
}

impl PackedBatch {
    /// Replaces the batch with `entries`, reusing the allocations. Slot `i`
    /// is the `i`-th entry; nothing is sorted yet.
    pub fn fill(&mut self, entries: impl IntoIterator<Item = BatchEntry>) {
        self.keys.clear();
        self.committed.clear();
        (self.min_remaining, self.max_remaining) = (0, 0);
        for entry in entries {
            self.insert(entry);
        }
    }

    /// Adds `entry` in the next slot. Once the batch is sorted it goes to
    /// its Eq. 2 position (a binary search and one shift of the keys, no
    /// sort); before, it is appended.
    pub fn insert(&mut self, entry: BatchEntry) {
        let key = self.key(entry);
        let remaining = (key >> 32) as u32;
        if self.is_sorted() {
            let pos = self.keys.partition_point(|&k| k > key);
            self.keys.insert(pos, key);
        } else {
            if self.keys.is_empty() {
                (self.min_remaining, self.max_remaining) = (remaining, remaining);
            } else {
                self.min_remaining = self.min_remaining.min(remaining);
                self.max_remaining = self.max_remaining.max(remaining);
            }
            self.keys.push(key);
        }
        self.committed.push(entry.committed);
    }

    /// The entries' slots in Eq. 2 order, where slot `i` is the `i`-th
    /// entry given to [`fill`](Self::fill) (then one per insert). Sorts the
    /// batch if it is not sorted yet.
    pub fn slots(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.sort();
        self.keys.iter().map(|&key| key as u32 as usize)
    }

    /// `M*` of the batch (Eq. 4): one scan of
    /// `M_i = Σ_{k≤i} committed_k + remaining_i · (i+1)`, after sorting the
    /// batch if it is not sorted yet. Zero when empty.
    pub fn peak(&mut self) -> u64 {
        self.sort();
        Self::scan(&self.keys, &self.committed)
    }

    /// Whether `M*` of the batch exceeds `budget`: exactly
    /// `self.peak() > budget`, mostly without sorting. A sorted batch is
    /// scanned (**c**). An unsorted one sums its committed tokens (`Σc`,
    /// one pass over a contiguous vector) and, with its `n` entries and the
    /// smallest and largest remaining lengths `r_min` and `r_max` that it
    /// keeps as they arrive, tries in order:
    ///
    /// - **a.** `M_n = Σc + n·r_min`, the last term, is at most `M*`: above
    ///   the budget, the answer is yes;
    /// - **b.** `Σc + n·r_max` bounds every term: within the budget, the
    ///   answer is no;
    /// - **d.** one pass over 32 equal-width buckets of `[r_min, r_max]`.
    ///   Walking them from the top with running count `K` and running
    ///   Σ committed `C`, a bucket's last entry sits at position `K` with
    ///   the bucket's smallest remaining length, so `C + r_min·K` is an
    ///   exact term, and `C + r_max·K` bounds every term inside the bucket;
    /// - **e.** if no exact term is over the budget and some bucket's bound
    ///   is, the batch is sorted and scanned, and later inserts keep it
    ///   sorted.
    ///
    /// Debug builds check every answer against a fresh sort and scan.
    pub fn exceeds(&mut self, budget: u64) -> bool {
        let (answer, route) = self.decide(budget);
        #[cfg(test)]
        {
            self.routes[route as usize] += 1;
        }
        if cfg!(debug_assertions) {
            let mut keys = self.keys.clone();
            keys.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(
                answer,
                Self::scan(&keys, &self.committed) > budget,
                "{route:?} answered wrongly at budget {budget}"
            );
        }
        answer
    }

    /// How many answers of [`exceeds`](Self::exceeds) took `route`.
    #[cfg(test)]
    pub(crate) fn took(&self, route: Route) -> u32 {
        self.routes[route as usize]
    }

    /// [`exceeds`](Self::exceeds)'s answer and the step that gave it.
    fn decide(&mut self, budget: u64) -> (bool, Route) {
        if self.is_sorted() {
            return (
                Self::scan(&self.keys, &self.committed) > budget,
                Route::Scan,
            );
        }
        let n = self.keys.len() as u64;
        let committed: u64 = self.committed.iter().sum();
        let (low, high) = (u64::from(self.min_remaining), u64::from(self.max_remaining));
        if committed + n * low > budget {
            return (true, Route::LastTerm);
        }
        if committed.saturating_add(n.saturating_mul(high)) <= budget {
            return (false, Route::Ceiling);
        }
        match self.bucket_pass(budget, low, high) {
            Some(true) => (true, Route::BucketTerm),
            Some(false) => (false, Route::BucketCeiling),
            None => (self.peak() > budget, Route::Sort),
        }
    }

    /// Step d of [`exceeds`](Self::exceeds) over remaining lengths in
    /// `low..=high`: `Some(answer)` when the buckets decide, `None` when
    /// they cannot. Only reached with `low < high`, since steps a and b
    /// coincide when all remaining lengths are equal.
    fn bucket_pass(&self, budget: u64, low: u64, high: u64) -> Option<bool> {
        let width = high - low + 1;
        let mut count = [0u64; BUCKETS];
        let mut committed = [0u64; BUCKETS];
        let mut min_r = [u64::MAX; BUCKETS];
        let mut max_r = [0u64; BUCKETS];
        for &key in &self.keys {
            let remaining = key >> 32;
            // At most (2³² − 1)·32 before the division, and below BUCKETS
            // after it.
            let b = ((remaining - low) * BUCKETS as u64 / width) as usize;
            count[b] += 1;
            committed[b] += self.committed[key as u32 as usize];
            min_r[b] = min_r[b].min(remaining);
            max_r[b] = max_r[b].max(remaining);
        }
        let (mut k, mut c, mut ceiling) = (0u64, 0u64, 0u64);
        for b in (0..BUCKETS).rev().filter(|&b| count[b] > 0) {
            k += count[b];
            c += committed[b];
            if c + min_r[b] * k > budget {
                return Some(true);
            }
            ceiling = ceiling.max(c.saturating_add(max_r[b].saturating_mul(k)));
        }
        (ceiling <= budget).then_some(false)
    }

    /// Whether `keys` is in Eq. 2 order.
    fn is_sorted(&self) -> bool {
        self.min_remaining > self.max_remaining
    }

    /// Puts the keys in Eq. 2 order, unless they already are.
    fn sort(&mut self) {
        if !self.is_sorted() {
            self.keys.sort_unstable_by(|a, b| b.cmp(a));
            (self.min_remaining, self.max_remaining) = (1, 0);
        }
    }

    /// `M*` over `keys` in Eq. 2 order.
    fn scan(keys: &[u64], committed: &[u64]) -> u64 {
        let mut prefix_committed = 0u64;
        let mut peak = 0u64;
        for (i, &key) in keys.iter().enumerate() {
            prefix_committed += committed[key as u32 as usize];
            peak = peak.max(prefix_committed + (key >> 32) * (i as u64 + 1));
        }
        peak
    }

    /// The packed key of `entry`, which takes the next free slot.
    fn key(&self, entry: BatchEntry) -> u64 {
        let slot = self.committed.len() as u64;
        debug_assert!(slot <= u64::from(u32::MAX), "slot {slot} exceeds 32 bits");
        let remaining = u32::try_from(entry.remaining).expect("remaining length fits in 32 bits");
        (u64::from(remaining) << 32) | slot
    }
}

/// Precomputed Eq. 2–4 state of one running batch, answering "what would
/// `M*` be if `candidate` joined the batch `steps` synchronized decode
/// steps from now?" in O(log n) instead of a fresh O(n log n)
/// clone-and-sort per probe.
///
/// The trick: with the batch fixed and sorted by `remaining` descending,
/// each entry's completion-point term `M_i = Σ_{k≤i} committed_k +
/// remaining_i · (i+1)` is *invariant* under synchronized decode steps —
/// every step adds `i+1` committed tokens to the prefix and removes
/// exactly `i+1` from the remaining term. A candidate inserted at
/// position `p` therefore splits the peak into three closed forms:
///
/// * entries before `p` keep their invariant terms (a prefix maximum);
/// * the candidate's own term is `Σ_{k<p} committed_k + p·steps +
///   committed_c + remaining_c · (p+1)`;
/// * entries at or past `p` shift one slot and gain the candidate's
///   committed tokens: their term becomes `M_i + remaining_i +
///   committed_c − steps` (a suffix maximum over `M_i + remaining_i`).
///
/// `rebuild` is O(n); every probe after it is a binary search for `p`
/// plus constant work, and returns *exactly* what
/// [`FutureMemoryEstimator::peak_memory`] would on the advanced batch
/// plus candidate. The index is valid while the batch's membership is
/// unchanged and no member has finished (`steps` below the smallest
/// remaining length) — callers rebuild on any admission or completion.
#[derive(Debug, Clone)]
pub struct AdmissionIndex {
    /// Per-entry `remaining` as of the index's reference step, descending
    /// (the Eq. 2 key).
    remaining: Vec<u64>,
    /// Per-entry `committed` as of the reference step, parallel to
    /// `remaining`.
    committed: Vec<u64>,
    /// `prefix_committed[i]` = Σ committed of entries `0..i` (length n+1).
    prefix_committed: Vec<u64>,
    /// `prefix_term_max[i]` = max of the invariant terms over `0..i`
    /// (length n+1, zero at 0).
    prefix_term_max: Vec<u64>,
    /// `suffix_term_rem_max[i]` = max of `term_k + remaining_k` over
    /// `i..n` (length n+1, zero at n).
    suffix_term_rem_max: Vec<u64>,
}

impl Default for AdmissionIndex {
    /// A valid index over the empty batch (the prefix arrays carry their
    /// length-`n+1` sentinel zeros even at `n = 0`).
    fn default() -> Self {
        AdmissionIndex {
            remaining: Vec::new(),
            committed: Vec::new(),
            prefix_committed: vec![0],
            prefix_term_max: vec![0],
            suffix_term_rem_max: vec![0],
        }
    }
}

impl AdmissionIndex {
    /// Recomputes the index from a batch in Eq. 2 order, reusing the
    /// existing allocations. The batch's values become the new reference
    /// step (`steps = 0` in subsequent probes).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slice is not sorted descending.
    pub fn rebuild(&mut self, sorted: &[BatchEntry]) {
        debug_assert!(
            sorted.windows(2).all(|w| w[0].remaining >= w[1].remaining),
            "entries must be sorted by remaining length, descending"
        );
        self.remaining.clear();
        self.remaining.extend(sorted.iter().map(|e| e.remaining));
        self.committed.clear();
        self.committed.extend(sorted.iter().map(|e| e.committed));
        self.recompute_derived();
    }

    /// Entries the index currently covers.
    pub fn len(&self) -> usize {
        self.remaining.len()
    }

    /// Whether the index covers an empty batch.
    pub fn is_empty(&self) -> bool {
        self.remaining.is_empty()
    }

    /// `M*` of the indexed batch advanced by `steps` synchronized decode
    /// steps with `candidate` inserted at its Eq. 2 position — exactly
    /// [`FutureMemoryEstimator::peak_memory`] on that merged batch, in
    /// O(log n).
    ///
    /// `steps` counts decode steps since the reference step and must stay
    /// below every indexed entry's remaining length (a completion changes
    /// membership — apply [`retire_due`](Self::retire_due) first); debug
    /// builds assert this.
    pub fn peak_with(&self, candidate: BatchEntry, steps: u64) -> u64 {
        debug_assert!(
            self.remaining.last().is_none_or(|&min| min > steps),
            "index stale: a member finished within {steps} steps"
        );
        let n = self.remaining.len();
        // Position by *current* remaining: r0 − steps ≥ r_c ⟺ r0 ≥ r_c + steps.
        let threshold = candidate.remaining.saturating_add(steps);
        let p = self.remaining.partition_point(|&r| r >= threshold);
        let mut peak = self.prefix_term_max[p];
        let candidate_term = self.prefix_committed[p]
            + p as u64 * steps
            + candidate.committed
            + candidate.remaining * (p as u64 + 1);
        peak = peak.max(candidate_term);
        if p < n {
            peak = peak.max(self.suffix_term_rem_max[p] - steps + candidate.committed);
        }
        peak
    }

    /// Admits `candidate` into the indexed batch `steps` decode steps
    /// after the reference step: rebases every entry to the current step,
    /// inserts the candidate at its Eq. 2 position and re-derives the
    /// probe arrays — O(n), no sorting. The current step becomes the new
    /// reference (`steps = 0` afterwards).
    pub fn admit(&mut self, candidate: BatchEntry, steps: u64) {
        self.rebase(steps);
        let p = self
            .remaining
            .partition_point(|&r| r >= candidate.remaining);
        self.remaining.insert(p, candidate.remaining);
        self.committed.insert(p, candidate.committed);
        self.recompute_derived();
    }

    /// Retires every entry finishing exactly at `steps` decode steps past
    /// the reference step (their remaining length is exhausted — they are
    /// the tail of the Eq. 2 order), rebases the survivors to the current
    /// step and re-derives the probe arrays — O(n), no sorting. Returns
    /// the number retired; the current step becomes the new reference.
    ///
    /// Debug builds assert no entry finished *before* `steps` (callers
    /// retire at every completion step, so earlier finishers are already
    /// gone).
    pub fn retire_due(&mut self, steps: u64) -> usize {
        debug_assert!(
            self.remaining.last().is_none_or(|&min| min >= steps),
            "index stale: a member finished before {steps} steps"
        );
        self.rebase(steps);
        let keep = self.remaining.partition_point(|&r| r > 0);
        let retired = self.remaining.len() - keep;
        self.remaining.truncate(keep);
        self.committed.truncate(keep);
        self.recompute_derived();
        retired
    }

    /// Advances every entry's values by `steps` synchronized decode steps
    /// (committed grows, remaining shrinks; descending order survives the
    /// uniform shift).
    fn rebase(&mut self, steps: u64) {
        if steps == 0 {
            return;
        }
        for r in &mut self.remaining {
            *r -= steps;
        }
        for c in &mut self.committed {
            *c += steps;
        }
    }

    /// Recomputes the prefix/suffix probe arrays from the raw entry
    /// values.
    fn recompute_derived(&mut self) {
        let n = self.remaining.len();
        self.prefix_committed.clear();
        self.prefix_committed.push(0);
        self.prefix_term_max.clear();
        self.prefix_term_max.push(0);
        let mut committed_sum = 0u64;
        let mut term_max = 0u64;
        let mut terms = std::mem::take(&mut self.suffix_term_rem_max);
        terms.clear();
        for i in 0..n {
            committed_sum += self.committed[i];
            self.prefix_committed.push(committed_sum);
            let term = committed_sum + self.remaining[i] * (i as u64 + 1);
            term_max = term_max.max(term);
            self.prefix_term_max.push(term_max);
            terms.push(term + self.remaining[i]);
        }
        // Turn the per-entry `term + remaining` values into a suffix max.
        terms.push(0);
        for i in (0..n).rev() {
            terms[i] = terms[i].max(terms[i + 1]);
        }
        self.suffix_term_rem_max = terms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(committed: u64, remaining: u64) -> BatchEntry {
        BatchEntry {
            committed,
            remaining,
        }
    }

    #[test]
    fn empty_batch_needs_nothing() {
        assert_eq!(FutureMemoryEstimator::peak_memory(&[]), 0);
        assert!(FutureMemoryEstimator::memory_profile(&[]).is_empty());
    }

    #[test]
    fn single_request_peaks_at_completion() {
        // One request: peak is its own total footprint.
        assert_eq!(FutureMemoryEstimator::peak_memory(&[e(10, 5)]), 15);
        let profile = FutureMemoryEstimator::memory_profile(&[e(10, 5)]);
        assert_eq!(
            profile,
            vec![CompletionPoint {
                steps_from_now: 5,
                memory: 15
            }]
        );
    }

    #[test]
    fn paper_figure_5_scenario() {
        // Scheduling the queued request (input 3, predicted output 5) into a
        // batch of two running requests at time t peaks at 19 tokens; one
        // step later the peak is 18 (Figure 5's "Max Memory Usage" 19 vs 18).
        let at_t = [e(5, 2), e(5, 4), e(3, 5)];
        assert_eq!(FutureMemoryEstimator::peak_memory(&at_t), 19);
        // At t+1 both running requests have grown by one token and are one
        // step closer to finishing.
        let at_t1 = [e(6, 1), e(6, 3), e(3, 5)];
        assert_eq!(FutureMemoryEstimator::peak_memory(&at_t1), 18);
    }

    #[test]
    fn profile_matches_hand_computation() {
        // Entries sorted desc by remaining: (3,5), (5,4), (5,2).
        // M_1 = 3 + 5*1 = 8; M_2 = 3+5 + 4*2 = 16; M_3 = 13 + 2*3 = 19.
        let profile = FutureMemoryEstimator::memory_profile(&[e(5, 2), e(5, 4), e(3, 5)]);
        assert_eq!(
            profile,
            vec![
                CompletionPoint {
                    steps_from_now: 2,
                    memory: 19
                },
                CompletionPoint {
                    steps_from_now: 4,
                    memory: 16
                },
                CompletionPoint {
                    steps_from_now: 5,
                    memory: 8
                },
            ]
        );
    }

    #[test]
    fn peak_is_max_of_profile() {
        let batch = [e(7, 3), e(2, 9), e(4, 4), e(1, 1)];
        let peak = FutureMemoryEstimator::peak_memory(&batch);
        let profile_max = FutureMemoryEstimator::memory_profile(&batch)
            .iter()
            .map(|p| p.memory)
            .max()
            .unwrap();
        assert_eq!(peak, profile_max);
    }

    #[test]
    fn zero_remaining_finishes_now() {
        // A request finishing immediately still holds its memory at the
        // moment it completes.
        assert_eq!(FutureMemoryEstimator::peak_memory(&[e(10, 0)]), 10);
        assert_eq!(
            FutureMemoryEstimator::peak_memory(&[e(10, 0), e(5, 3)]),
            // Sorted: (5,3),(10,0): M1 = 5+3 = 8, M2 = 15 + 0 = 15.
            15
        );
    }

    #[test]
    fn sorted_variant_matches_unsorted() {
        let mut batch = vec![e(7, 3), e(2, 9), e(4, 4), e(1, 1)];
        let peak = FutureMemoryEstimator::peak_memory(&batch);
        batch.sort_unstable_by_key(|e| std::cmp::Reverse(e.remaining));
        assert_eq!(FutureMemoryEstimator::peak_memory_sorted(batch), peak);
    }

    #[test]
    fn conservative_bound_recovered_with_equal_remaining() {
        // When all requests finish simultaneously no memory is ever
        // released early, so M* equals the sum of total footprints — the
        // conservative scheduler's estimate.
        let batch = [e(4, 6), e(9, 6), e(2, 6)];
        let sum_totals: u64 = batch.iter().map(|b| b.total_at_completion()).sum();
        assert_eq!(FutureMemoryEstimator::peak_memory(&batch), sum_totals);
    }

    #[test]
    fn advance_grows_and_retires() {
        let batch = [e(5, 2), e(5, 4)];
        assert_eq!(
            FutureMemoryEstimator::advance(&batch, 1),
            vec![e(6, 1), e(6, 3)]
        );
        // After 2 steps the first request has finished and released.
        assert_eq!(FutureMemoryEstimator::advance(&batch, 2), vec![e(7, 2)]);
        assert!(FutureMemoryEstimator::advance(&batch, 4).is_empty());
    }

    #[test]
    fn earliest_admission_matches_figure_5() {
        // Figure 5's batch (synchronized model, candidate = input 3 with
        // predicted output 5): peak 19 if admitted now, 18 one step later.
        let running = [e(5, 2), e(5, 4)];
        let candidate = e(3, 5);
        assert_eq!(
            FutureMemoryEstimator::earliest_admission_step(&running, candidate, 19),
            Some(0)
        );
        assert_eq!(
            FutureMemoryEstimator::earliest_admission_step(&running, candidate, 18),
            Some(1)
        );
    }

    #[test]
    fn earliest_admission_matches_figure_6() {
        // Figure 6's capacity-21 scenario: the optimal admission step for
        // the new request is t+1 (where the oracle admits it).
        let running = [e(5, 2), e(4, 5)];
        let candidate = e(7, 5);
        assert_eq!(
            FutureMemoryEstimator::earliest_admission_step(&running, candidate, 21),
            Some(1)
        );
    }

    #[test]
    fn earliest_admission_impossible_candidate() {
        assert_eq!(
            FutureMemoryEstimator::earliest_admission_step(&[], e(10, 20), 29),
            None
        );
        assert_eq!(
            FutureMemoryEstimator::earliest_admission_step(&[], e(10, 20), 30),
            Some(0)
        );
    }

    #[test]
    fn earliest_admission_waits_for_drain_when_tight() {
        // Capacity only fits the candidate alone: it must wait until the
        // last running request finishes.
        let running = [e(10, 7)];
        let candidate = e(10, 8);
        let capacity = 18; // candidate total, exactly
                           // The running request emits its last token at step 7 and releases
                           // at that boundary, which is when the candidate can enter.
        assert_eq!(
            FutureMemoryEstimator::earliest_admission_step(&running, candidate, capacity),
            Some(7)
        );
    }

    #[test]
    fn admission_index_matches_direct_peak() {
        // Figure 5's batch: probing the candidate now and one step later
        // must reproduce the direct Eq. 2–4 computation (19, then 18).
        let mut running = vec![e(5, 2), e(5, 4)];
        FutureMemoryEstimator::sort_by_remaining_desc(&mut running);
        let mut index = AdmissionIndex::default();
        index.rebuild(&running);
        let candidate = e(3, 5);
        assert_eq!(index.peak_with(candidate, 0), 19);
        assert_eq!(index.peak_with(candidate, 1), 18);
    }

    #[test]
    fn admission_index_empty_batch() {
        let mut index = AdmissionIndex::default();
        index.rebuild(&[]);
        assert!(index.is_empty());
        // The never-rebuilt default is the same valid empty index.
        assert_eq!(
            AdmissionIndex::default().peak_with(e(10, 5), 0),
            index.peak_with(e(10, 5), 0)
        );
        // A candidate alone peaks at its own total footprint.
        assert_eq!(index.peak_with(e(10, 5), 0), 15);
        assert_eq!(index.peak_with(e(10, 5), 7), 15);
    }

    #[test]
    fn admission_index_rebuild_reuses_allocations() {
        let mut index = AdmissionIndex::default();
        index.rebuild(&[e(5, 4), e(5, 2)]);
        assert_eq!(index.len(), 2);
        index.rebuild(&[e(7, 3)]);
        assert_eq!(index.len(), 1);
        // Sorted merge [(7,3), (2,1)]: M_1 = 7+3·1 = 10, M_2 = 9+1·2 = 11.
        assert_eq!(index.peak_with(e(2, 1), 0), 11);
    }

    /// A batch filled with `entries`, in arrival order.
    fn packed(entries: &[BatchEntry]) -> PackedBatch {
        let mut batch = PackedBatch::default();
        batch.fill(entries.iter().copied());
        batch
    }

    #[test]
    fn exceeds_takes_every_route() {
        // (5,2), (5,4): M_1 = 9, M_2 = 14; Σc + n·r_max = 18.
        let two = [e(5, 2), e(5, 4)];
        assert_eq!(packed(&two).decide(13), (true, Route::LastTerm));
        assert_eq!(packed(&two).decide(18), (false, Route::Ceiling));
        assert_eq!(packed(&two).decide(15), (false, Route::BucketCeiling));
        let mut sorted = packed(&two);
        assert_eq!(sorted.peak(), 14);
        assert_eq!(sorted.decide(15), (false, Route::Scan));
        assert_eq!(sorted.decide(13), (true, Route::Scan));
        // (10,100), (10,1): M_1 = 110 peaks before M_2 = 22, in the top
        // bucket.
        let early = [e(10, 1), e(10, 100)];
        assert_eq!(packed(&early).decide(50), (true, Route::BucketTerm));
        // (0,320), (1000,10), (0,0): M_1 = 320, M_2 = 1,020, M_3 = 1,000.
        // 10 and 0 share the bottom bucket, whose exact term is 1,000 and
        // whose bound is 1,030: between the two only the sort decides.
        let straddle = [e(1000, 10), e(0, 320), e(0, 0)];
        for (budget, answer) in [(1010, true), (1025, false)] {
            let mut batch = packed(&straddle);
            assert_eq!(batch.decide(budget), (answer, Route::Sort));
            assert!(batch.is_sorted());
            // Later probes scan the kept order; an insert keeps it.
            assert_eq!(batch.decide(budget), (answer, Route::Scan));
            batch.insert(e(0, 5));
            assert_eq!(batch.slots().collect::<Vec<_>>(), [1, 0, 3, 2]);
        }
        // The empty batch fits any budget.
        assert_eq!(PackedBatch::default().decide(0), (false, Route::Ceiling));
    }

    #[test]
    #[should_panic(expected = "fits in 32 bits")]
    fn packed_batch_rejects_remaining_past_32_bits() {
        PackedBatch::default().insert(e(1, 1 << 32));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn entries_strategy() -> impl Strategy<Value = Vec<BatchEntry>> {
            proptest::collection::vec(
                (0u64..10_000, 0u64..5_000).prop_map(|(committed, remaining)| BatchEntry {
                    committed,
                    remaining,
                }),
                0..64,
            )
        }

        /// Batches for the packed keys: remaining lengths that tie (a few
        /// small values, 0 among them) or span all 32 bits, and committed
        /// counts that stay small or exceed 2³² (where a `(remaining,
        /// committed)` packing would overflow).
        fn packed_entries_strategy() -> impl Strategy<Value = Vec<BatchEntry>> {
            proptest::collection::vec(packed_entry(), 0..48)
        }

        fn packed_entry() -> impl Strategy<Value = BatchEntry> {
            let committed = prop_oneof![0u64..10_000, (1u64 << 32)..(1u64 << 40)];
            let remaining = prop_oneof![Just(0u64), 0u64..4, 0u64..=u64::from(u32::MAX)];
            (committed, remaining).prop_map(|(committed, remaining)| BatchEntry {
                committed,
                remaining,
            })
        }

        proptest! {
            /// M* is at least the current occupancy (nothing is released
            /// before the first completion) and at most the sum of total
            /// footprints (the no-release worst case).
            #[test]
            fn peak_bounded_by_current_and_sum(entries in entries_strategy()) {
                let peak = FutureMemoryEstimator::peak_memory(&entries);
                let current: u64 = entries.iter().map(|e| e.committed).sum();
                let sum_totals: u64 = entries.iter().map(|e| e.total_at_completion()).sum();
                prop_assert!(peak >= current);
                prop_assert!(peak <= sum_totals);
                // Peak also dominates every individual request's own total.
                for e in &entries {
                    prop_assert!(peak >= e.total_at_completion());
                }
            }

            /// Permuting the batch never changes M* (Eq. 2 sorts internally).
            #[test]
            fn permutation_invariant(entries in entries_strategy(), seed in 0u64..100) {
                use rand::seq::SliceRandom;
                use rand::SeedableRng;
                let peak = FutureMemoryEstimator::peak_memory(&entries);
                let mut shuffled = entries.clone();
                shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
                prop_assert_eq!(FutureMemoryEstimator::peak_memory(&shuffled), peak);
            }

            /// Adding a request can only increase M* (admission monotonicity
            /// — this is what makes Algorithm 1's first-reject cutoff sound).
            #[test]
            fn monotone_in_batch_extension(
                entries in entries_strategy(),
                extra_committed in 0u64..10_000,
                extra_remaining in 0u64..5_000,
            ) {
                let before = FutureMemoryEstimator::peak_memory(&entries);
                let mut extended = entries.clone();
                extended.push(BatchEntry {
                    committed: extra_committed,
                    remaining: extra_remaining,
                });
                let after = FutureMemoryEstimator::peak_memory(&extended);
                prop_assert!(after >= before);
            }

            /// The earliest admission step is truly minimal: the batch fits
            /// at the returned step and not one step earlier.
            #[test]
            fn earliest_admission_is_minimal(
                entries in entries_strategy(),
                committed in 0u64..2_000,
                remaining in 0u64..1_000,
                slack in 0u64..10_000,
            ) {
                let candidate = BatchEntry { committed, remaining };
                // Capacity somewhere between "candidate alone" and "whole
                // batch at once".
                let capacity = candidate.total_at_completion() + slack;
                let Some(step) =
                    FutureMemoryEstimator::earliest_admission_step(&entries, candidate, capacity)
                else {
                    prop_assert!(candidate.total_at_completion() > capacity);
                    return Ok(());
                };
                let mut at_step = FutureMemoryEstimator::advance(&entries, step);
                at_step.push(candidate);
                prop_assert!(FutureMemoryEstimator::peak_memory(&at_step) <= capacity);
                if step > 0 {
                    let mut earlier = FutureMemoryEstimator::advance(&entries, step - 1);
                    earlier.push(candidate);
                    prop_assert!(
                        FutureMemoryEstimator::peak_memory(&earlier) > capacity,
                        "step {step} is not minimal"
                    );
                }
            }

            /// The O(log n) admission index returns exactly what a direct
            /// advance-insert-and-sort Eq. 2–4 evaluation returns, for any
            /// batch, candidate and in-validity-window step offset.
            #[test]
            fn admission_index_matches_naive(
                entries in entries_strategy(),
                committed in 0u64..10_000,
                remaining in 0u64..5_000,
                steps_seed in 0u64..5_000,
            ) {
                let mut batch: Vec<BatchEntry> =
                    entries.into_iter().filter(|e| e.remaining > 0).collect();
                FutureMemoryEstimator::sort_by_remaining_desc(&mut batch);
                let mut index = AdmissionIndex::default();
                index.rebuild(&batch);
                // Any step strictly below the smallest remaining keeps the
                // index valid (no member finishes).
                let min_remaining = batch.iter().map(|e| e.remaining).min().unwrap_or(u64::MAX);
                let steps = steps_seed % min_remaining.min(5_000);
                let candidate = BatchEntry { committed, remaining };
                let mut merged = FutureMemoryEstimator::advance(&batch, steps);
                merged.push(candidate);
                prop_assert_eq!(
                    index.peak_with(candidate, steps),
                    FutureMemoryEstimator::peak_memory(&merged)
                );
            }

            /// The index stays exact through an arbitrary
            /// admit/step/retire lifecycle — the maintenance the decode
            /// engines perform: after every operation an admission probe
            /// returns the same Eq. 2–4 peak as a from-scratch
            /// evaluation of the live batch.
            #[test]
            fn admission_index_lifecycle_matches_naive(
                ops in proptest::collection::vec((0u8..4, 0u64..200, 1u64..40), 1..60),
                probe_committed in 0u64..500,
                probe_remaining in 0u64..50,
            ) {
                let mut index = AdmissionIndex::default();
                // The live batch at *current* values; the index's
                // reference step trails it by `steps`.
                let mut live: Vec<BatchEntry> = Vec::new();
                let mut steps = 0u64;
                for (op, committed, remaining) in ops {
                    if op == 0 || live.is_empty() {
                        let cand = BatchEntry { committed, remaining };
                        index.admit(cand, steps);
                        steps = 0;
                        live.push(cand);
                    } else {
                        // One synchronized decode step; finishers retire.
                        for e in &mut live {
                            e.committed += 1;
                            e.remaining -= 1;
                        }
                        steps += 1;
                        let finished = live.iter().filter(|e| e.remaining == 0).count();
                        if finished > 0 {
                            live.retain(|e| e.remaining > 0);
                            prop_assert_eq!(index.retire_due(steps), finished);
                            steps = 0;
                        }
                    }
                    prop_assert_eq!(index.len(), live.len());
                    let probe = BatchEntry {
                        committed: probe_committed,
                        remaining: probe_remaining,
                    };
                    let mut merged = live.clone();
                    merged.push(probe);
                    prop_assert_eq!(
                        index.peak_with(probe, steps),
                        FutureMemoryEstimator::peak_memory(&merged)
                    );
                }
            }

            /// The packed batch returns exactly what `peak_memory` returns,
            /// on batches with tied and zero remaining lengths, committed
            /// counts above 2³² and remaining lengths up to `u32::MAX`;
            /// and a run of sorted inserts leaves the same keys as filling
            /// the grown batch from scratch (a full re-sort) after each one.
            #[test]
            fn packed_batch_matches_peak_memory(
                entries in packed_entries_strategy(),
                inserts in packed_entries_strategy(),
            ) {
                let mut batch = PackedBatch::default();
                batch.fill(entries.iter().copied());
                prop_assert_eq!(batch.peak(), FutureMemoryEstimator::peak_memory(&entries));
                let mut all = entries;
                let mut resorted = PackedBatch::default();
                for entry in inserts {
                    batch.insert(entry);
                    all.push(entry);
                    resorted.fill(all.iter().copied());
                    resorted.sort();
                    prop_assert_eq!(&batch.keys, &resorted.keys);
                    prop_assert_eq!(&batch.committed, &resorted.committed);
                    prop_assert_eq!(batch.peak(), FutureMemoryEstimator::peak_memory(&all));
                }
            }

            /// Every answer of `exceeds`, through random fills, inserts and
            /// probes, equals `peak_memory(..) > budget` at budgets of
            /// peak − 1, peak and peak + 1: on the empty batch, single
            /// entries, all-equal (`pin == 0`) and zero remaining lengths,
            /// and remaining lengths up to `u32::MAX`. Whenever the batch
            /// has turned sorted, `slots()` is an Eq. 2 order of the live
            /// entries.
            #[test]
            fn exceeds_matches_peak_memory(
                ops in proptest::collection::vec((0u8..8, packed_entry(), 0u64..3), 0..64),
                pin in 0u8..4,
                pinned in 0u64..=u64::from(u32::MAX),
            ) {
                let mut batch = PackedBatch::default();
                let mut live: Vec<BatchEntry> = Vec::new();
                for (op, mut entry, offset) in ops {
                    if pin == 0 {
                        entry.remaining = pinned;
                    }
                    match op {
                        // Refill with half the live batch plus `entry`.
                        0 => {
                            live.truncate(live.len() / 2);
                            live.push(entry);
                            batch.fill(live.iter().copied());
                        }
                        1 => {
                            live.clear();
                            batch.fill([]);
                        }
                        2 | 3 => {
                            live.push(entry);
                            batch.insert(entry);
                        }
                        _ => {
                            let peak = FutureMemoryEstimator::peak_memory(&live);
                            let budget = (peak + offset).saturating_sub(1);
                            prop_assert_eq!(batch.exceeds(budget), peak > budget);
                        }
                    }
                    if batch.is_sorted() {
                        let order: Vec<usize> = batch.slots().collect();
                        let mut seen = order.clone();
                        seen.sort_unstable();
                        prop_assert!(seen.iter().copied().eq(0..live.len()));
                        prop_assert!(order
                            .windows(2)
                            .all(|w| live[w[0]].remaining >= live[w[1]].remaining));
                    }
                }
                prop_assert_eq!(batch.peak(), FutureMemoryEstimator::peak_memory(&live));
            }

            /// M* exactly simulates the step-by-step token growth: replaying
            /// the batch decode-by-decode and releasing each request as it
            /// finishes never exceeds M*, and touches it at some step.
            #[test]
            fn matches_step_replay(entries in entries_strategy()) {
                let peak = FutureMemoryEstimator::peak_memory(&entries);
                // Brute-force replay. A request's memory counts up to and
                // including the step at which it emits its final token, and
                // is released before the next step.
                let mut live: Vec<BatchEntry> = entries.clone();
                let mut replay_peak: u64 = live.iter().map(|e| e.committed).sum();
                live.retain(|e| e.remaining > 0);
                while !live.is_empty() {
                    // Every live request generates one token.
                    for e in &mut live {
                        e.committed += 1;
                        e.remaining -= 1;
                    }
                    let occupancy: u64 = live.iter().map(|e| e.committed).sum();
                    replay_peak = replay_peak.max(occupancy);
                    live.retain(|e| e.remaining > 0);
                }
                prop_assert_eq!(replay_peak, peak);
            }
        }
    }
}
