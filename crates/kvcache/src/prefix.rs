//! Per-instance prefix cache for KV-aware routing.
//!
//! Production routers (NVIDIA Dynamo's KV-aware router, SGLang's
//! RadixAttention) exploit *shared-prefix locality*: a multi-turn session's
//! next request repeats the whole conversation so far, and a system prompt
//! repeats across thousands of requests. An instance that still holds the
//! prefix's KV entries can skip recomputing them, shrinking the prefill to
//! the unseen suffix.
//!
//! [`PrefixCache`] models that instance-local state as an LRU map from
//! opaque prefix ids to the number of prefix tokens cached, with
//! token-budget eviction. The budget is carved out of the same physical KV
//! pool that serves request KV — the simulation engine charges the cache's
//! occupancy against the pool and shrinks the cache first under memory
//! pressure (see `pf-sim`).
//!
//! # Example
//!
//! ```
//! use pf_kvcache::PrefixCache;
//!
//! let mut cache = PrefixCache::new(1000);
//! cache.insert(7, 300); // session 7's conversation: 300 tokens
//! assert_eq!(cache.lookup(7, 250), 250); // next turn repeats 250 of them
//! assert_eq!(cache.lookup(8, 100), 0); // unknown session: full prefill
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().lookups, 2);
//! ```

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
struct PrefixEntry {
    tokens: u64,
    last_used: u64,
}

/// Aggregate statistics of one [`PrefixCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Lookups performed (requests that declared a prefix).
    pub lookups: u64,
    /// Lookups that found a non-empty cached overlap.
    pub hits: u64,
    /// Prefix tokens served from cache across all hits (prefill work
    /// saved).
    pub hit_tokens: u64,
    /// Entries inserted or grown.
    pub insertions: u64,
    /// Entries evicted (budget pressure or external reclamation).
    pub evictions: u64,
    /// Tokens freed by evictions.
    pub evicted_tokens: u64,
}

impl PrefixCacheStats {
    /// Hits over lookups (0.0 when no lookup happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Merges another instance's statistics into this one (fleet-level
    /// reporting).
    pub fn merge(&mut self, other: &PrefixCacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.hit_tokens += other.hit_tokens;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.evicted_tokens += other.evicted_tokens;
    }
}

/// LRU cache over prefix ids with token-budget eviction.
///
/// Each entry records how many tokens of one prefix (a session's
/// conversation, a shared system prompt) are resident on the owning
/// instance. Occupancy never exceeds the budget: inserting evicts the
/// least-recently-used entries until the new entry fits; entries larger
/// than the whole budget are not cached at all.
///
/// All operations are deterministic: recency is a logical clock bumped on
/// every insert and hit, so the LRU victim is always unique.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    budget_tokens: u64,
    used_tokens: u64,
    clock: u64,
    /// Cached prefixes by id. A `BTreeMap` so the eviction victim scan
    /// iterates in a fixed order — victim choice feeds eviction counters
    /// that replayed reports must reproduce bit-identically.
    entries: BTreeMap<u64, PrefixEntry>,
    stats: PrefixCacheStats,
}

impl PrefixCache {
    /// Creates a cache bounded to `budget_tokens` of KV.
    pub fn new(budget_tokens: u64) -> Self {
        PrefixCache {
            budget_tokens,
            used_tokens: 0,
            clock: 0,
            entries: BTreeMap::new(),
            stats: PrefixCacheStats::default(),
        }
    }

    /// The configured token budget.
    pub fn budget_tokens(&self) -> u64 {
        self.budget_tokens
    }

    /// Tokens currently cached across all entries.
    pub fn used_tokens(&self) -> u64 {
        self.used_tokens
    }

    /// Number of cached prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> PrefixCacheStats {
        self.stats
    }

    /// Cached token count of `prefix_id` without touching recency or
    /// statistics — the router's probe (a probe is not a use: only the
    /// instance that actually serves the request refreshes the entry).
    pub fn peek(&self, prefix_id: u64) -> Option<u64> {
        self.entries.get(&prefix_id).map(|e| e.tokens)
    }

    /// Looks up `prefix_id` for a request whose first `prefix_len` prompt
    /// tokens repeat the prefix. Returns the cached overlap
    /// `min(cached, prefix_len)` (0 on a miss), counting the lookup and —
    /// on a non-empty overlap — the hit, and refreshing the entry's
    /// recency.
    pub fn lookup(&mut self, prefix_id: u64, prefix_len: u64) -> u64 {
        self.stats.lookups += 1;
        let Some(entry) = self.entries.get_mut(&prefix_id) else {
            return 0;
        };
        let overlap = entry.tokens.min(prefix_len);
        if overlap == 0 {
            return 0;
        }
        self.clock += 1;
        entry.last_used = self.clock;
        self.stats.hits += 1;
        self.stats.hit_tokens += overlap;
        overlap
    }

    /// Caches (or grows) `prefix_id` at `tokens` tokens, evicting
    /// least-recently-used entries until the cache fits its budget. An
    /// existing entry never shrinks (`max(old, new)` wins — conversations
    /// only grow) and is never evicted by its own insert. Prefixes larger
    /// than the whole budget are not cached.
    pub fn insert(&mut self, prefix_id: u64, tokens: u64) {
        if tokens == 0 || tokens > self.budget_tokens {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&prefix_id) {
            Some(entry) => {
                entry.last_used = clock;
                if tokens > entry.tokens {
                    self.used_tokens += tokens - entry.tokens;
                    entry.tokens = tokens;
                    self.stats.insertions += 1;
                }
            }
            None => {
                self.entries.insert(
                    prefix_id,
                    PrefixEntry {
                        tokens,
                        last_used: clock,
                    },
                );
                self.used_tokens += tokens;
                self.stats.insertions += 1;
            }
        }
        self.evict_down_to(self.budget_tokens);
    }

    /// Evicts least-recently-used entries until occupancy is at most
    /// `target_tokens`. Returns the tokens freed. The engine calls this
    /// under request-KV pressure (the cache shares the physical pool), with
    /// `target_tokens` below the budget.
    pub fn evict_down_to(&mut self, target_tokens: u64) -> u64 {
        let mut freed = 0;
        while self.used_tokens > target_tokens {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(id, e)| (e.last_used, **id))
                .map(|(id, _)| *id)
                .expect("non-zero occupancy implies entries");
            let entry = self.entries.remove(&victim).expect("victim exists");
            self.used_tokens -= entry.tokens;
            freed += entry.tokens;
            self.stats.evictions += 1;
            self.stats.evicted_tokens += entry.tokens;
        }
        freed
    }

    /// Drops every entry, returning the tokens freed.
    pub fn clear(&mut self) -> u64 {
        self.evict_down_to(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_caps_at_prefix_len_and_cached_len() {
        let mut c = PrefixCache::new(1000);
        c.insert(1, 300);
        assert_eq!(c.lookup(1, 200), 200); // request repeats less than cached
        assert_eq!(c.lookup(1, 400), 300); // request extends past the cache
        assert_eq!(c.lookup(2, 100), 0); // miss
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().lookups, 3);
        assert_eq!(c.stats().hit_tokens, 500);
    }

    #[test]
    fn entries_grow_but_never_shrink() {
        let mut c = PrefixCache::new(1000);
        c.insert(1, 100);
        c.insert(1, 250);
        assert_eq!(c.peek(1), Some(250));
        assert_eq!(c.used_tokens(), 250);
        c.insert(1, 50); // stale shorter write: ignored
        assert_eq!(c.peek(1), Some(250));
        assert_eq!(c.used_tokens(), 250);
    }

    #[test]
    fn budget_evicts_lru_first() {
        let mut c = PrefixCache::new(300);
        c.insert(1, 100);
        c.insert(2, 100);
        c.insert(3, 100);
        assert_eq!(c.lookup(1, 100), 100); // refresh 1: now 2 is LRU
        c.insert(4, 100);
        assert_eq!(c.peek(2), None, "LRU entry evicted");
        assert_eq!(c.peek(1), Some(100));
        assert_eq!(c.peek(4), Some(100));
        assert_eq!(c.used_tokens(), 300);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().evicted_tokens, 100);
    }

    #[test]
    fn oversized_prefix_not_cached() {
        let mut c = PrefixCache::new(100);
        c.insert(1, 101);
        assert!(c.is_empty());
        assert_eq!(c.used_tokens(), 0);
        c.insert(2, 100);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn external_eviction_frees_tokens() {
        let mut c = PrefixCache::new(1000);
        c.insert(1, 400);
        c.insert(2, 300);
        let freed = c.evict_down_to(350);
        assert_eq!(freed, 400, "LRU entry 1 evicted");
        assert_eq!(c.used_tokens(), 300);
        assert_eq!(c.clear(), 300);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_touch_recency_or_stats() {
        let mut c = PrefixCache::new(200);
        c.insert(1, 100);
        c.insert(2, 100);
        let _ = c.peek(1); // would save 1 if it refreshed recency
        c.insert(3, 100);
        assert_eq!(c.peek(1), None, "peek must not refresh recency");
        assert_eq!(c.stats().lookups, 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(u64, u64),
            Lookup(u64, u64),
            Evict(u64),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..12, 1u64..400).prop_map(|(id, t)| Op::Insert(id, t)),
                (0u64..12, 1u64..400).prop_map(|(id, t)| Op::Lookup(id, t)),
                (0u64..600).prop_map(Op::Evict),
            ]
        }

        proptest! {
            /// Occupancy never exceeds the budget and always equals the sum
            /// of the live entries.
            #[test]
            fn occupancy_bounded_by_budget(
                budget in 1u64..600,
                ops in proptest::collection::vec(op_strategy(), 0..120),
            ) {
                let mut cache = PrefixCache::new(budget);
                let mut shadow: std::collections::HashMap<u64, u64> = Default::default();
                for op in ops {
                    match op {
                        Op::Insert(id, tokens) => {
                            cache.insert(id, tokens);
                            if tokens <= budget {
                                let held = shadow.entry(id).or_insert(0);
                                *held = (*held).max(tokens);
                            }
                        }
                        Op::Lookup(id, len) => {
                            let overlap = cache.lookup(id, len);
                            // A hit is only ever served from a live entry.
                            match cache.peek(id) {
                                Some(cached) => prop_assert_eq!(overlap, cached.min(len)),
                                None => prop_assert_eq!(overlap, 0),
                            }
                        }
                        Op::Evict(target) => {
                            cache.evict_down_to(target);
                            prop_assert!(cache.used_tokens() <= target);
                        }
                    }
                    prop_assert!(cache.used_tokens() <= budget);
                    // Shadow drift: evictions shrink the live set, but any
                    // live entry matches its shadow token count.
                    shadow.retain(|id, _| cache.peek(*id).is_some());
                    let live_sum: u64 = shadow.values().sum();
                    prop_assert_eq!(cache.used_tokens(), live_sum);
                    for (id, tokens) in &shadow {
                        prop_assert_eq!(cache.peek(*id), Some(*tokens));
                    }
                }
            }

            /// Filling the cache past its budget evicts in exact LRU order.
            #[test]
            fn eviction_follows_lru_order(
                n in 2usize..12,
                refresh in proptest::collection::vec(0usize..12, 0..8),
            ) {
                // n unit-sized entries fill the budget exactly.
                let mut cache = PrefixCache::new(n as u64);
                for id in 0..n {
                    cache.insert(id as u64, 1);
                }
                // Refreshing entries reorders recency deterministically.
                let mut order: Vec<u64> = (0..n as u64).collect();
                for r in refresh {
                    let id = (r % n) as u64;
                    prop_assert_eq!(cache.lookup(id, 1), 1);
                    let pos = order.iter().position(|&x| x == id).unwrap();
                    order.remove(pos);
                    order.push(id);
                }
                // Each oversubscribing insert evicts exactly the current LRU.
                for (step, victim) in order.clone().into_iter().enumerate() {
                    cache.insert(1000 + step as u64, 1);
                    prop_assert_eq!(cache.peek(victim), None,
                        "expected {} to be the LRU victim", victim);
                    for survivor in &order[step + 1..] {
                        prop_assert!(cache.peek(*survivor).is_some());
                    }
                }
            }

            /// A non-zero overlap implies the prefix was inserted earlier
            /// and has not been evicted since.
            #[test]
            fn hit_implies_inserted_and_not_evicted(
                ops in proptest::collection::vec(op_strategy(), 0..150),
            ) {
                let mut cache = PrefixCache::new(500);
                let mut inserted: std::collections::HashSet<u64> = Default::default();
                for op in ops {
                    match op {
                        Op::Insert(id, tokens) => {
                            cache.insert(id, tokens);
                            inserted.insert(id);
                        }
                        Op::Lookup(id, len) => {
                            if cache.lookup(id, len) > 0 {
                                prop_assert!(inserted.contains(&id),
                                    "hit on never-inserted prefix {}", id);
                                prop_assert!(cache.peek(id).is_some(),
                                    "hit on evicted prefix {}", id);
                            }
                        }
                        Op::Evict(target) => {
                            cache.evict_down_to(target);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hit_rate_and_merge() {
        let mut a = PrefixCacheStats {
            lookups: 8,
            hits: 2,
            ..Default::default()
        };
        assert!((a.hit_rate() - 0.25).abs() < 1e-12);
        let b = PrefixCacheStats {
            lookups: 2,
            hits: 2,
            hit_tokens: 50,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.lookups, 10);
        assert_eq!(a.hits, 4);
        assert_eq!(a.hit_tokens, 50);
        assert_eq!(PrefixCacheStats::default().hit_rate(), 0.0);
    }
}
