//! Per-instance prefix-cache statistics, and the conversation-level
//! contract of the prefix store.
//!
//! Production routers (NVIDIA Dynamo's KV-aware router, SGLang's
//! RadixAttention) exploit *shared-prefix locality*: a multi-turn session's
//! next request repeats the whole conversation so far, and a system prompt
//! repeats across thousands of requests. An instance that still holds the
//! prefix's KV entries can skip recomputing them, shrinking the prefill to
//! the unseen suffix.
//!
//! The store that models that instance-local state is the block-granular
//! [`BlockPrefixCache`](crate::BlockPrefixCache): a conversation is a
//! chain of fixed-size blocks, and a token budget bounds the store with
//! LRU eviction. The budget is carved out of the same physical KV pool
//! that serves request KV — the simulation engine charges the store's
//! occupancy against the pool and shrinks the store first under memory
//! pressure (see `pf-sim`). [`PrefixCacheStats`] counts its lookups, hits
//! and evictions.
//!
//! # Example
//!
//! ```
//! use pf_kvcache::BlockPrefixCache;
//!
//! let mut cache = BlockPrefixCache::new(1_000, 100);
//! cache.insert_chain([7, 7, 7]); // session 7's conversation: 3 blocks
//! assert_eq!(cache.lookup_run([7, 7, 7, 9]), 300); // next turn repeats them
//! assert_eq!(cache.lookup_run([8]), 0); // unknown session: full prefill
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().lookups, 2);
//! ```

/// Aggregate statistics of one prefix store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Lookups performed (requests that declared a prefix).
    pub lookups: u64,
    /// Lookups that found a non-empty cached overlap.
    pub hits: u64,
    /// Prefix tokens served from cache across all hits (prefill work
    /// saved).
    pub hit_tokens: u64,
    /// Blocks inserted.
    pub insertions: u64,
    /// Blocks evicted (budget pressure or external reclamation).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockPrefixCache;

    // The store's contract at conversation granularity: conversation `id`
    // with `n` blocks is the chain `[id; n]`, so a one-block conversation
    // is a whole-prefix entry and a longer one is that session grown by
    // later turns.
    fn conv(id: u64, blocks: usize) -> Vec<u64> {
        vec![id; blocks]
    }

    #[test]
    fn lookup_caps_at_prefix_len_and_cached_len() {
        let mut c = BlockPrefixCache::new(1_000, 10);
        c.insert_chain(conv(1, 3));
        assert_eq!(c.lookup_run(conv(1, 2)), 20); // request repeats less than cached
        assert_eq!(c.lookup_run(conv(1, 4)), 30); // request extends past the cache
        assert_eq!(c.lookup_run(conv(2, 1)), 0); // miss
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().lookups, 3);
        assert_eq!(c.stats().hit_tokens, 50);
    }

    #[test]
    fn entries_grow_but_never_shrink() {
        let mut c = BlockPrefixCache::new(1_000, 10);
        c.insert_chain(conv(1, 1));
        c.insert_chain(conv(1, 3));
        assert_eq!(c.peek_run(conv(1, 3)), 30);
        assert_eq!(c.used_tokens(), 30);
        c.insert_chain(conv(1, 1)); // stale shorter write: only a touch
        assert_eq!(c.peek_run(conv(1, 3)), 30);
        assert_eq!(c.used_tokens(), 30);
    }

    #[test]
    fn budget_evicts_lru_first() {
        let mut c = BlockPrefixCache::new(30, 10);
        c.insert_chain(conv(1, 1));
        c.insert_chain(conv(2, 1));
        c.insert_chain(conv(3, 1));
        assert_eq!(c.lookup_run(conv(1, 1)), 10); // refresh 1: now 2 is LRU
        c.insert_chain(conv(4, 1));
        assert_eq!(c.peek_run(conv(2, 1)), 0, "LRU entry evicted");
        assert_eq!(c.peek_run(conv(1, 1)), 10);
        assert_eq!(c.peek_run(conv(4, 1)), 10);
        assert_eq!(c.used_tokens(), 30);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().evicted_tokens, 10);
    }

    #[test]
    fn oversized_prefix_not_cached() {
        let mut c = BlockPrefixCache::new(100, 101);
        assert_eq!(c.insert_chain(conv(1, 1)), 0);
        assert!(c.is_empty());
        assert_eq!(c.used_tokens(), 0);
        let mut c = BlockPrefixCache::new(100, 100);
        c.insert_chain(conv(2, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn external_eviction_frees_tokens() {
        let mut c = BlockPrefixCache::new(1_000, 100);
        c.insert_chain(conv(1, 4));
        c.insert_chain(conv(2, 3));
        let freed = c.evict_down_to(350);
        assert_eq!(freed, 400, "LRU conversation 1 evicted tail first");
        assert_eq!(c.used_tokens(), 300);
        assert_eq!(c.peek_run(conv(2, 3)), 300);
        assert_eq!(c.evict_down_to(0), 300);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_touch_recency_or_stats() {
        let mut c = BlockPrefixCache::new(20, 10);
        c.insert_chain(conv(1, 1));
        c.insert_chain(conv(2, 1));
        let _ = c.peek_run(conv(1, 1)); // would save 1 if it refreshed recency
        c.insert_chain(conv(3, 1));
        assert_eq!(c.peek_run(conv(1, 1)), 0, "peek must not refresh recency");
        assert_eq!(c.stats().lookups, 0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        const BLOCK: u64 = 10;

        #[derive(Debug, Clone)]
        enum Op {
            Insert(u64, usize),
            Lookup(u64, usize),
            Evict(u64),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..12, 1usize..40).prop_map(|(id, n)| Op::Insert(id, n)),
                (0u64..12, 1usize..40).prop_map(|(id, n)| Op::Lookup(id, n)),
                (0u64..600).prop_map(Op::Evict),
            ]
        }

        proptest! {
            /// Occupancy never exceeds the budget and always equals the
            /// live blocks' tokens; a lookup serves exactly what a peek
            /// sees, capped at the requested length.
            #[test]
            fn occupancy_bounded_by_budget(
                budget in 1u64..600,
                ops in proptest::collection::vec(op_strategy(), 0..120),
            ) {
                let mut cache = BlockPrefixCache::new(budget, BLOCK as u32);
                for op in ops {
                    match op {
                        Op::Insert(id, n) => {
                            cache.insert_chain(conv(id, n));
                        }
                        Op::Lookup(id, n) => {
                            let peeked = cache.peek_run(conv(id, n));
                            prop_assert_eq!(cache.lookup_run(conv(id, n)), peeked);
                            prop_assert!(peeked <= n as u64 * BLOCK);
                        }
                        Op::Evict(target) => {
                            cache.evict_down_to(target);
                            prop_assert!(cache.used_tokens() <= target);
                        }
                    }
                    prop_assert!(cache.used_tokens() <= budget);
                    prop_assert_eq!(cache.used_tokens(), cache.len() as u64 * BLOCK);
                }
            }

            /// Filling the store past its budget evicts one-block
            /// conversations in exact LRU order.
            #[test]
            fn eviction_follows_lru_order(
                n in 2usize..12,
                refresh in proptest::collection::vec(0usize..12, 0..8),
            ) {
                // n one-block conversations fill the budget exactly.
                let mut cache = BlockPrefixCache::new(n as u64 * BLOCK, BLOCK as u32);
                for id in 0..n {
                    cache.insert_chain(conv(id as u64, 1));
                }
                // Refreshing entries reorders recency deterministically.
                let mut order: Vec<u64> = (0..n as u64).collect();
                for r in refresh {
                    let id = (r % n) as u64;
                    prop_assert_eq!(cache.lookup_run(conv(id, 1)), BLOCK);
                    let pos = order.iter().position(|&x| x == id).unwrap();
                    order.remove(pos);
                    order.push(id);
                }
                // Each oversubscribing insert evicts exactly the current LRU.
                for (step, victim) in order.clone().into_iter().enumerate() {
                    cache.insert_chain(conv(1000 + step as u64, 1));
                    prop_assert_eq!(cache.peek_run(conv(victim, 1)), 0,
                        "expected {} to be the LRU victim", victim);
                    for survivor in &order[step + 1..] {
                        prop_assert_eq!(cache.peek_run(conv(*survivor, 1)), BLOCK);
                    }
                }
            }

            /// A non-zero overlap implies the conversation was inserted
            /// earlier and its leading block has not been evicted since.
            #[test]
            fn hit_implies_inserted_and_not_evicted(
                ops in proptest::collection::vec(op_strategy(), 0..150),
            ) {
                let mut cache = BlockPrefixCache::new(500, BLOCK as u32);
                let mut inserted: std::collections::BTreeSet<u64> = Default::default();
                for op in ops {
                    match op {
                        Op::Insert(id, n) => {
                            cache.insert_chain(conv(id, n));
                            inserted.insert(id);
                        }
                        Op::Lookup(id, n) => {
                            if cache.lookup_run(conv(id, n)) > 0 {
                                prop_assert!(inserted.contains(&id),
                                    "hit on never-inserted conversation {}", id);
                                prop_assert!(cache.peek_run(conv(id, 1)) > 0,
                                    "hit on evicted conversation {}", id);
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
