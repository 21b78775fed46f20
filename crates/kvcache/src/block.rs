//! Block-granular prefix caching and the event-driven global KV index.
//!
//! Real KV-aware routers (NVIDIA Dynamo's KV-cache routing being the
//! reference design) work at *block* granularity rather than asking
//! "does instance *i* hold conversation *p*?":
//!
//! * prompts are split into fixed-size token blocks and each block is
//!   identified by a **chained hash** — [`block_hash`] of the parent
//!   block's hash and the block's token content — so a block's identity
//!   pins the entire prefix leading up to it;
//! * engines keep a [`BlockPrefixCache`]: a token-budget LRU whose
//!   eviction removes block *suffixes* (leaf blocks first), so a
//!   partially evicted prefix still serves shorter matches. Its entries
//!   live on a slab threaded by one recency list, so a matched block
//!   costs one hash probe and a constant-time relink;
//! * every store/evict publishes a [`KvEvent`], and a global
//!   [`KvIndexer`] is maintained **purely from those events** — the
//!   router never inspects engine caches directly. A configurable
//!   propagation delay makes stale-index divergence (the router believes
//!   blocks exist that were already evicted) a measurable phenomenon.
//!
//! Both structures key their maps by chained block hash through
//! `ChainHasher`, which uses the key as its own hash: [`block_hash`]
//! already ends in a SplitMix64 finalizer, so hashing it again would only
//! cost time.
//!
//! All token counts are in KV token slots, as everywhere in this crate.

#[expect(
    clippy::disallowed_types,
    reason = "the block-hash maps below are key-addressed only (get/insert/remove/len); nothing iterates them"
)]
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

use crate::prefix::PrefixCacheStats;

/// Chain seed: the hash of the empty prefix (the parent of block 0).
pub const KV_ROOT_HASH: u64 = 0x9A3C_51B2_77D4_E021;

/// Chained block hash: mixes the parent block's hash with a 64-bit digest
/// of this block's token content (SplitMix64-style finalizer — good
/// avalanche, cheap, stable across platforms).
///
/// Because the parent hash feeds the mix, equal content words at the same
/// depth only collide when their *entire* leading prefixes match — the
/// property that lets a flat hash set answer prefix-overlap queries.
#[must_use]
pub fn block_hash(parent: u64, content: u64) -> u64 {
    let mut z = parent
        .rotate_left(17)
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(content | 1)
        ^ content;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Identity hasher for [`block_hash`] keys: they leave a SplitMix64
/// finalizer with full avalanche, so both the bucket bits and the tag bits
/// of a hash table are already uniform. Only `write_u64` is on the hot
/// path; `write` folds arbitrary bytes FNV-style for completeness.
#[derive(Default)]
struct ChainHasher(u64);

impl Hasher for ChainHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A map keyed by chained block hash.
#[expect(
    clippy::disallowed_types,
    reason = "key-addressed only; every holder probes by hash and never iterates"
)]
type ChainMap<V> = HashMap<u64, V, BuildHasherDefault<ChainHasher>>;

/// A KV-cache lifecycle record an engine publishes for the global index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvEvent {
    /// A block entered the engine's prefix store.
    Stored {
        /// Chained hash of the stored block.
        block: u64,
        /// Chained hash of its parent (`KV_ROOT_HASH` for block 0).
        parent: u64,
        /// KV token slots the block occupies.
        tokens: u64,
    },
    /// A block was evicted from the engine's prefix store.
    Removed {
        /// Chained hash of the removed block.
        block: u64,
    },
}

/// The null slot link: no parent, no neighbour, empty list.
const NIL: u32 = u32::MAX;

/// One stored block of a [`BlockPrefixCache`], in a slab slot.
#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    /// Chained hash of this block (its key in the index).
    hash: u64,
    /// Logical timestamp of the last touch (insert or matched lookup).
    last_used: u64,
    /// Slot of the parent block, or `NIL` for block 0. Stable while this
    /// entry lives: a parent with children is never evicted.
    parent_slot: u32,
    /// Number of stored blocks whose parent is this block. Only blocks
    /// with zero children (chain leaves) are eviction candidates, which
    /// keeps the store prefix-closed: a stored block's whole leading
    /// prefix is always stored too.
    children: u32,
    /// Older neighbour on the recency list (`NIL` at the head).
    prev: u32,
    /// Newer neighbour on the recency list (`NIL` at the tail).
    next: u32,
}

/// Block-granular prefix store: a token-budget LRU over chained-hash
/// blocks that evicts *suffixes first*.
///
/// The store is **prefix-closed** by construction —
/// [`insert_chain`](BlockPrefixCache::insert_chain)
/// inserts a chain front to back and eviction only removes leaves — so a
/// leading-run match against it is exactly the set of prompt tokens whose
/// KV an engine could reuse. Every mutation is buffered as a [`KvEvent`]
/// for the publisher to [`drain_events`](BlockPrefixCache::drain_events).
///
/// Entries live in a slab (a `Vec` plus a free list) behind a
/// hash-to-slot index, and every entry, leaf or not, sits on one intrusive
/// doubly-linked recency list, oldest first. Each touch sets `last_used`
/// to the new maximum clock and moves the entry to the tail, and clocks
/// are unique, so the list stays sorted by `last_used`. The eviction
/// victim is the first childless entry on the list that is not protected:
/// exactly the minimum-`(last_used, hash)` leaf. When an eviction exposes
/// a parent as a new leaf, the parent already sits at its own, older
/// position; a list of leaves alone would have to re-insert it mid-list.
///
/// Occupancy is meant to be charged against the engine's real KV pool by
/// the caller: the caller reads
/// [`used_tokens`](BlockPrefixCache::used_tokens) and calls
/// [`evict_down_to`](BlockPrefixCache::evict_down_to) when the pool
/// cannot hold the charge.
#[derive(Debug)]
pub struct BlockPrefixCache {
    block_tokens: u64,
    budget_tokens: u64,
    used_tokens: u64,
    clock: u64,
    /// Entry storage; a slot is live exactly when the index maps to it.
    slots: Vec<BlockEntry>,
    /// Freed slots, reused before the slab grows.
    free: Vec<u32>,
    /// Stored blocks by chained hash → slot.
    index: ChainMap<u32>,
    /// Oldest entry on the recency list (`NIL` when empty).
    head: u32,
    /// Newest entry on the recency list (`NIL` when empty).
    tail: u32,
    stats: PrefixCacheStats,
    events: Vec<KvEvent>,
}

impl BlockPrefixCache {
    /// Creates an empty store holding at most `budget_tokens` across
    /// blocks of `block_tokens` tokens each.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    #[must_use]
    pub fn new(budget_tokens: u64, block_tokens: u32) -> Self {
        assert!(block_tokens > 0, "block size must be positive");
        BlockPrefixCache {
            block_tokens: u64::from(block_tokens),
            budget_tokens,
            used_tokens: 0,
            clock: 0,
            slots: Vec::new(),
            free: Vec::new(),
            index: ChainMap::default(),
            head: NIL,
            tail: NIL,
            stats: PrefixCacheStats::default(),
            events: Vec::new(),
        }
    }

    /// Tokens per block.
    #[must_use]
    pub fn block_tokens(&self) -> u64 {
        self.block_tokens
    }

    /// Tokens currently held (always ≤ the budget).
    #[must_use]
    pub fn used_tokens(&self) -> u64 {
        self.used_tokens
    }

    /// Number of stored blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        self.stats
    }

    /// Takes `slot` off the recency list.
    fn unlink(&mut self, slot: u32) {
        let BlockEntry { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Appends `slot` to the recency list as its newest entry.
    fn push_tail(&mut self, slot: u32) {
        let e = &mut self.slots[slot as usize];
        e.prev = self.tail;
        e.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.slots[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Stamps `slot` with the next clock value and moves it to the tail.
    fn touch(&mut self, slot: u32) {
        self.clock += 1;
        self.slots[slot as usize].last_used = self.clock;
        if self.tail != slot {
            self.unlink(slot);
            self.push_tail(slot);
        }
    }

    /// Matched tokens of the longest stored leading run of the chain
    /// described by `contents` (one content word per block, in prompt
    /// order), without recording a lookup or refreshing recency — the
    /// router's side-effect-free probe.
    #[must_use]
    pub fn peek_run(&self, contents: impl IntoIterator<Item = u64>) -> u64 {
        let mut hash = KV_ROOT_HASH;
        let mut matched = 0;
        for content in contents {
            hash = block_hash(hash, content);
            if !self.index.contains_key(&hash) {
                break;
            }
            matched += self.block_tokens;
        }
        matched
    }

    /// Consumes a hit: matched tokens of the longest stored leading run,
    /// refreshing the recency of every matched block (front to back, so
    /// the run's deepest block ends up most recent) and recording the
    /// lookup in [`stats`](BlockPrefixCache::stats).
    pub fn lookup_run(&mut self, contents: impl IntoIterator<Item = u64>) -> u64 {
        self.stats.lookups += 1;
        let mut hash = KV_ROOT_HASH;
        let mut matched = 0;
        for content in contents {
            hash = block_hash(hash, content);
            let Some(&slot) = self.index.get(&hash) else {
                break;
            };
            self.touch(slot);
            matched += self.block_tokens;
        }
        if matched > 0 {
            self.stats.hits += 1;
            self.stats.hit_tokens += matched;
        }
        matched
    }

    /// Stores the chain described by `contents`, charging one block of
    /// tokens per new link and publishing a [`KvEvent::Stored`] for each.
    /// Already-stored links only have their recency refreshed. Returns
    /// the newly stored tokens.
    ///
    /// When the budget fills, older *leaves* are evicted to make room;
    /// blocks of the chain being inserted are never evicted (each link
    /// protects its parent via the child count, and the tip is protected
    /// explicitly). If no room can be freed the chain is cut short —
    /// storing a prefix of the conversation rather than thrashing.
    pub fn insert_chain(&mut self, contents: impl IntoIterator<Item = u64>) -> u64 {
        let mut parent = KV_ROOT_HASH;
        let mut parent_slot = NIL;
        let mut stored = 0;
        for content in contents {
            let hash = block_hash(parent, content);
            let slot = if let Some(&slot) = self.index.get(&hash) {
                self.touch(slot);
                slot
            } else {
                if self.block_tokens > self.budget_tokens {
                    break;
                }
                if self.used_tokens + self.block_tokens > self.budget_tokens {
                    self.evict_protected(self.budget_tokens - self.block_tokens, parent_slot);
                    if self.used_tokens + self.block_tokens > self.budget_tokens {
                        break;
                    }
                }
                self.clock += 1;
                let entry = BlockEntry {
                    hash,
                    last_used: self.clock,
                    parent_slot,
                    children: 0,
                    prev: NIL,
                    next: NIL,
                };
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slots[slot as usize] = entry;
                        slot
                    }
                    None => {
                        self.slots.push(entry);
                        u32::try_from(self.slots.len() - 1).expect("slab fits u32 slots")
                    }
                };
                self.push_tail(slot);
                self.index.insert(hash, slot);
                if parent_slot != NIL {
                    self.slots[parent_slot as usize].children += 1;
                }
                self.used_tokens += self.block_tokens;
                self.stats.insertions += 1;
                self.events.push(KvEvent::Stored {
                    block: hash,
                    parent,
                    tokens: self.block_tokens,
                });
                stored += self.block_tokens;
                slot
            };
            parent = hash;
            parent_slot = slot;
        }
        stored
    }

    /// Evicts least-recently-used leaf blocks until occupancy is at most
    /// `target_tokens` or no evictable leaf remains. Returns freed tokens.
    ///
    /// Only leaves (blocks with no stored children) are candidates, so
    /// eviction trims chains from the back: the surviving store still
    /// serves every shorter prefix of a partially evicted conversation.
    pub fn evict_down_to(&mut self, target_tokens: u64) -> u64 {
        self.evict_protected(target_tokens, NIL)
    }

    /// Eviction core: the entry in slot `protect` (and, transitively, its
    /// ancestors, which have children) is never chosen. `NIL` protects
    /// nothing. Comparing slots is exact because only a victim's slot is
    /// freed, and a slot is reused only after this call returns.
    ///
    /// Each victim comes from a scan of the recency list from its head,
    /// skipping entries with children and the protected one. The scan is
    /// short. A touch walks a chain from the root with consecutive clock
    /// values, so every touch of a leaf L was preceded, within the same
    /// walk, by a touch of each ancestor A at most `depth(L) − depth(A)`
    /// clock values earlier. An internal entry A has a descendant leaf L,
    /// so `last_used(A) ≥ last_used(L) − D ≥ m − D`, where D is the
    /// longest stored chain and m the oldest leaf's clock. Clocks are
    /// unique, so fewer than D internal entries precede the oldest leaf.
    /// The protected entry is the tip of the chain being inserted, at the
    /// tail, so it is skipped only when it is the last leaf. In total
    /// the scan skips fewer than D + 1 entries. On seed 0 it skips a mean
    /// of 3.7 entries per eviction (max 29) on the benchmark's
    /// `cluster-kv-sysprompt` workload and 9.3 (max 42) on
    /// `elastic-multiturn-diurnal`.
    fn evict_protected(&mut self, target_tokens: u64, protect: u32) -> u64 {
        let mut freed = 0;
        while self.used_tokens > target_tokens {
            let mut victim = self.head;
            while victim != NIL {
                let e = &self.slots[victim as usize];
                if e.children == 0 && victim != protect {
                    break;
                }
                victim = e.next;
            }
            if victim == NIL {
                break;
            }
            self.unlink(victim);
            self.free.push(victim);
            let entry = self.slots[victim as usize];
            self.index.remove(&entry.hash);
            if entry.parent_slot != NIL {
                self.slots[entry.parent_slot as usize].children -= 1;
            }
            self.used_tokens -= self.block_tokens;
            freed += self.block_tokens;
            self.stats.evictions += 1;
            self.stats.evicted_tokens += self.block_tokens;
            self.events.push(KvEvent::Removed { block: entry.hash });
        }
        freed
    }

    /// Moves all buffered events into `out`, preserving publish order.
    pub fn drain_events(&mut self, out: &mut Vec<KvEvent>) {
        out.append(&mut self.events);
    }

    /// Number of buffered, not-yet-drained events.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }
}

/// One instance's view inside a [`KvIndexer`].
#[derive(Debug, Default)]
struct IndexedInstance {
    /// Events not yet visible, in publish order: `(visible_at, event)`.
    /// An instance stamps its events with its own clock, so `visible_at`
    /// is non-decreasing along the queue.
    pending: VecDeque<(u64, KvEvent)>,
    /// Stored blocks: block hash → tokens.
    blocks: ChainMap<u64>,
}

impl IndexedInstance {
    fn apply(&mut self, event: KvEvent) {
        match event {
            KvEvent::Stored { block, tokens, .. } => {
                self.blocks.insert(block, tokens);
            }
            KvEvent::Removed { block } => {
                self.blocks.remove(&block);
            }
        }
    }
}

/// The exact global KV index: per-instance block sets maintained **purely
/// from the [`KvEvent`] stream** engines publish.
///
/// A propagation delay (microseconds of simulated time) models the
/// event-bus lag of a real deployment: an event published at `t` becomes
/// visible to overlap queries at `t + delay`. With zero delay the index
/// mirrors engine state exactly at every query; with a positive delay the
/// router can both miss fresh blocks and believe in evicted ones — the
/// stale-divergence the staleness sweeps measure.
///
/// Delayed events queue per instance. Publish times are non-decreasing
/// only within one instance (a fleet ticks whichever member lags), so a
/// single global queue could hold a due event behind one that is not.
/// Instance sets are independent, so applying each queue's due prefix is
/// exact.
#[derive(Debug, Default)]
pub struct KvIndexer {
    delay_micros: u64,
    instances: Vec<IndexedInstance>,
}

impl KvIndexer {
    /// Creates an index with the given event-propagation delay in
    /// microseconds of simulated time (zero = instantaneous).
    #[must_use]
    pub fn new(delay_micros: u64) -> Self {
        KvIndexer {
            delay_micros,
            instances: Vec::new(),
        }
    }

    fn instance(&mut self, instance: u32) -> &mut IndexedInstance {
        let i = instance as usize;
        if i >= self.instances.len() {
            self.instances.resize_with(i + 1, IndexedInstance::default);
        }
        &mut self.instances[i]
    }

    /// Ingests an event published by `instance` at simulated time
    /// `now_micros`. With zero delay it is applied immediately; otherwise
    /// it queues until [`advance`](KvIndexer::advance) passes
    /// `now_micros + delay`. Publish times must be non-decreasing per
    /// instance.
    pub fn publish(&mut self, instance: u32, event: KvEvent, now_micros: u64) {
        let delay = self.delay_micros;
        let inst = self.instance(instance);
        if delay == 0 {
            inst.apply(event);
        } else {
            let visible_at = now_micros.saturating_add(delay);
            debug_assert!(
                inst.pending.back().is_none_or(|&(t, _)| t <= visible_at),
                "instance {instance} published out of time order"
            );
            inst.pending.push_back((visible_at, event));
        }
    }

    /// Applies every queued event that became visible by `now_micros`.
    pub fn advance(&mut self, now_micros: u64) {
        if self.delay_micros == 0 {
            return;
        }
        for inst in &mut self.instances {
            while let Some(&(visible_at, event)) = inst.pending.front() {
                if visible_at > now_micros {
                    break;
                }
                inst.pending.pop_front();
                inst.apply(event);
            }
        }
    }

    /// Tokens of the longest leading run of `chain` (pre-computed chained
    /// hashes, in prompt order) the index believes `instance` holds.
    #[must_use]
    pub fn overlap(&self, instance: u32, chain: &[u64]) -> u64 {
        let Some(inst) = self.instances.get(instance as usize) else {
            return 0;
        };
        let mut tokens = 0;
        for hash in chain {
            match inst.blocks.get(hash) {
                Some(t) => tokens += t,
                None => break,
            }
        }
        tokens
    }

    /// Number of blocks the index currently attributes to `instance`.
    #[must_use]
    pub fn blocks(&self, instance: u32) -> usize {
        self.instances
            .get(instance as usize)
            .map_or(0, |inst| inst.blocks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(contents: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(contents.len());
        let mut h = KV_ROOT_HASH;
        for &c in contents {
            h = block_hash(h, c);
            out.push(h);
        }
        out
    }

    #[test]
    fn chained_hash_is_deterministic_and_prefix_stable() {
        let a = chain(&[1, 2, 3]);
        let b = chain(&[1, 2, 3, 4]);
        assert_eq!(a, chain(&[1, 2, 3]));
        // Extending a prefix leaves the leading hashes untouched.
        assert_eq!(a[..], b[..3]);
        // Different content diverges and stays diverged.
        let c = chain(&[1, 9, 3]);
        assert_ne!(a[1], c[1]);
        assert_ne!(a[2], c[2]);
    }

    #[test]
    fn store_matches_runs_and_counts_partial_hits() {
        let mut store = BlockPrefixCache::new(1_000, 10);
        assert_eq!(store.insert_chain([1, 2, 3]), 30);
        assert_eq!(store.used_tokens(), 30);
        assert_eq!(store.peek_run([1, 2, 3]), 30);
        assert_eq!(store.peek_run([1, 2]), 20);
        assert_eq!(store.peek_run([1, 2, 9]), 20);
        assert_eq!(store.peek_run([9, 2, 3]), 0);
        assert_eq!(store.lookup_run([1, 2, 9, 9]), 20);
        let stats = store.stats();
        assert_eq!((stats.lookups, stats.hits, stats.hit_tokens), (1, 1, 20));
    }

    #[test]
    fn shared_leading_blocks_are_stored_once() {
        let mut store = BlockPrefixCache::new(1_000, 10);
        store.insert_chain([7, 7, 1]);
        let stored = store.insert_chain([7, 7, 2]);
        // Only the diverging third block is new.
        assert_eq!(stored, 10);
        assert_eq!(store.used_tokens(), 40);
    }

    #[test]
    fn eviction_removes_suffixes_first() {
        let mut store = BlockPrefixCache::new(40, 10);
        store.insert_chain([1, 2, 3, 4]);
        store.evict_down_to(20);
        // The chain survives as its leading half.
        assert_eq!(store.peek_run([1, 2, 3, 4]), 20);
        assert_eq!(store.used_tokens(), 20);
    }

    #[test]
    fn insert_evicts_lru_leaves_to_make_room() {
        let mut store = BlockPrefixCache::new(30, 10);
        store.insert_chain([1, 2]);
        store.insert_chain([8]);
        // Touch the [1, 2] chain so [8] is the LRU leaf.
        assert_eq!(store.lookup_run([1, 2]), 20);
        store.insert_chain([9]);
        assert_eq!(store.peek_run([8]), 0, "LRU leaf should have been evicted");
        assert_eq!(store.peek_run([1, 2]), 20);
        assert_eq!(store.peek_run([9]), 10);
        assert_eq!(store.used_tokens(), 30);
    }

    #[test]
    fn over_budget_chain_is_cut_short_not_thrashed() {
        let mut store = BlockPrefixCache::new(30, 10);
        let stored = store.insert_chain([1, 2, 3, 4, 5]);
        assert_eq!(stored, 30);
        assert_eq!(store.peek_run([1, 2, 3, 4, 5]), 30);
        assert_eq!(store.used_tokens(), 30);
    }

    /// Regression pin for the determinism contract: the eviction event
    /// *order* is part of the replayed surface (events feed the global
    /// [`KvIndexer`], whose state feeds routing). Victims are the oldest
    /// leaves by `last_used` — this test pins the exact sequence
    /// interleaved leaf/parent eviction produces, including a parent
    /// that an eviction exposes as a leaf at its own, older recency.
    #[test]
    fn eviction_event_order_is_pinned() {
        let run = || {
            let mut store = BlockPrefixCache::new(60, 10);
            store.insert_chain([1, 2, 3]); // clocks 1, 2, 3
            store.insert_chain([1, 9]); // touches h(1) at 4, stores leaf at 5
            store.insert_chain([5]); // stores leaf at 6
            let mut events = Vec::new();
            store.drain_events(&mut events);
            store.evict_down_to(0);
            store.drain_events(&mut events);
            events
        };
        let events = run();
        assert_eq!(
            events,
            run(),
            "identical drives must emit identical event streams"
        );

        let c123 = chain(&[1, 2, 3]);
        let c19 = chain(&[1, 9]);
        let c5 = chain(&[5]);
        let removed: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                KvEvent::Removed { block } => Some(*block),
                KvEvent::Stored { .. } => None,
            })
            .collect();
        // LRU leaves fall first; evicting a leaf exposes its parent, whose
        // *older* recency can jump the queue: [1,2,3]'s tail (clock 3),
        // then its parent (clock 2), then leaf h(1,9) (clock 5), then the
        // now-leaf h(1) (clock 4), then h(5) (clock 6).
        assert_eq!(removed, vec![c123[2], c123[1], c19[1], c123[0], c5[0]]);
    }

    #[test]
    fn events_mirror_mutations() {
        let mut store = BlockPrefixCache::new(40, 10);
        store.insert_chain([1, 2]);
        store.evict_down_to(10);
        let mut events = Vec::new();
        store.drain_events(&mut events);
        let hashes = chain(&[1, 2]);
        assert_eq!(
            events,
            vec![
                KvEvent::Stored {
                    block: hashes[0],
                    parent: KV_ROOT_HASH,
                    tokens: 10
                },
                KvEvent::Stored {
                    block: hashes[1],
                    parent: hashes[0],
                    tokens: 10
                },
                KvEvent::Removed { block: hashes[1] },
            ]
        );
        assert_eq!(store.pending_events(), 0);
    }

    #[test]
    fn indexer_tracks_events_and_delay() {
        let mut idx = KvIndexer::new(1_000);
        let hashes = chain(&[1, 2]);
        idx.publish(
            0,
            KvEvent::Stored {
                block: hashes[0],
                parent: KV_ROOT_HASH,
                tokens: 10,
            },
            0,
        );
        idx.publish(
            0,
            KvEvent::Stored {
                block: hashes[1],
                parent: hashes[0],
                tokens: 10,
            },
            500,
        );
        idx.advance(999);
        assert_eq!(idx.overlap(0, &hashes), 0, "events still propagating");
        idx.advance(1_000);
        assert_eq!(idx.overlap(0, &hashes), 10);
        idx.advance(1_500);
        assert_eq!(idx.overlap(0, &hashes), 20);
        idx.publish(0, KvEvent::Removed { block: hashes[1] }, 2_000);
        idx.advance(3_000);
        assert_eq!(idx.overlap(0, &hashes), 10);
        assert_eq!(idx.blocks(0), 1);
        assert_eq!(idx.overlap(1, &hashes), 0);
    }

    /// Publish times are monotone only per instance: an event that is
    /// already due must become visible even when another instance
    /// published a later-visible event before it.
    #[test]
    fn indexer_applies_due_events_behind_later_ones() {
        let mut idx = KvIndexer::new(100);
        let a = chain(&[1]);
        let b = chain(&[2]);
        let stored = |block| KvEvent::Stored {
            block,
            parent: KV_ROOT_HASH,
            tokens: 10,
        };
        idx.publish(0, stored(a[0]), 1_000);
        idx.publish(1, stored(b[0]), 500);
        idx.advance(600);
        assert_eq!(idx.overlap(1, &b), 10, "instance 1's event is due at 600");
        assert_eq!(idx.overlap(0, &a), 0, "instance 0's event is due at 1100");
        idx.advance(1_100);
        assert_eq!(idx.overlap(0, &a), 10);
    }

    /// Checks the slab's structural invariants: the recency list holds
    /// every indexed slot exactly once in strictly increasing `last_used`
    /// order with consistent back links, no free slot is indexed, and each
    /// `children` count equals the number of indexed entries naming that
    /// slot as parent.
    fn assert_slab_invariants(store: &BlockPrefixCache) {
        let live = |slot: u32| store.index.get(&store.slots[slot as usize].hash) == Some(&slot);
        let mut on_list = 0;
        let mut prev = NIL;
        let mut slot = store.head;
        while slot != NIL {
            assert!(on_list < store.index.len(), "list is longer than the index");
            assert!(live(slot), "slot {slot} on the list is not indexed");
            let e = &store.slots[slot as usize];
            assert_eq!(e.prev, prev, "back link of slot {slot}");
            if prev != NIL {
                assert!(
                    store.slots[prev as usize].last_used < e.last_used,
                    "last_used must strictly increase from head to tail"
                );
            }
            on_list += 1;
            prev = slot;
            slot = e.next;
        }
        assert_eq!(store.tail, prev);
        assert_eq!(on_list, store.index.len(), "every indexed slot is listed");
        assert_eq!(store.free.len() + store.index.len(), store.slots.len());
        for &f in &store.free {
            assert!(!live(f), "free slot {f} is indexed");
        }
        for &s in store.index.values() {
            let e = &store.slots[s as usize];
            let children = store
                .index
                .values()
                .filter(|&&c| store.slots[c as usize].parent_slot == s)
                .count();
            assert_eq!(e.children as usize, children, "children of slot {s}");
            if e.parent_slot != NIL {
                assert!(live(e.parent_slot), "parent of slot {s} is not stored");
            }
        }
    }

    /// One entry of the reference model.
    #[derive(Debug, Clone, Copy)]
    struct ScanEntry {
        parent: u64,
        last_used: u64,
        children: u32,
    }

    /// Reference model: the same store over an ordered map, whose
    /// eviction scans every entry for the oldest leaf. The slab store
    /// must match it event for event.
    #[derive(Default)]
    struct ScanStore {
        block_tokens: u64,
        budget_tokens: u64,
        used_tokens: u64,
        clock: u64,
        entries: std::collections::BTreeMap<u64, ScanEntry>,
        stats: PrefixCacheStats,
        events: Vec<KvEvent>,
    }

    impl ScanStore {
        fn new(budget_tokens: u64, block_tokens: u64) -> Self {
            ScanStore {
                block_tokens,
                budget_tokens,
                ..ScanStore::default()
            }
        }

        fn touch(&mut self, block: u64) {
            self.clock += 1;
            self.entries.get_mut(&block).expect("stored").last_used = self.clock;
        }

        fn lookup_run(&mut self, contents: &[u64]) -> u64 {
            self.stats.lookups += 1;
            let mut matched = 0;
            for hash in chain(contents) {
                if !self.entries.contains_key(&hash) {
                    break;
                }
                self.touch(hash);
                matched += self.block_tokens;
            }
            if matched > 0 {
                self.stats.hits += 1;
                self.stats.hit_tokens += matched;
            }
            matched
        }

        fn insert_chain(&mut self, contents: &[u64]) -> u64 {
            let mut parent = KV_ROOT_HASH;
            let mut stored = 0;
            for hash in chain(contents) {
                if self.entries.contains_key(&hash) {
                    self.touch(hash);
                } else {
                    if self.block_tokens > self.budget_tokens {
                        break;
                    }
                    if self.used_tokens + self.block_tokens > self.budget_tokens {
                        self.evict_protected(self.budget_tokens - self.block_tokens, parent);
                        if self.used_tokens + self.block_tokens > self.budget_tokens {
                            break;
                        }
                    }
                    self.clock += 1;
                    let entry = ScanEntry {
                        parent,
                        last_used: self.clock,
                        children: 0,
                    };
                    self.entries.insert(hash, entry);
                    if let Some(p) = self.entries.get_mut(&parent) {
                        p.children += 1;
                    }
                    self.used_tokens += self.block_tokens;
                    self.stats.insertions += 1;
                    self.events.push(KvEvent::Stored {
                        block: hash,
                        parent,
                        tokens: self.block_tokens,
                    });
                    stored += self.block_tokens;
                }
                parent = hash;
            }
            stored
        }

        fn evict_protected(&mut self, target_tokens: u64, protect: u64) -> u64 {
            let mut freed = 0;
            while self.used_tokens > target_tokens {
                let victim = self
                    .entries
                    .iter()
                    .filter(|(hash, e)| e.children == 0 && **hash != protect)
                    .min_by_key(|(hash, e)| (e.last_used, **hash))
                    .map(|(hash, _)| *hash);
                let Some(victim) = victim else { break };
                let entry = self.entries.remove(&victim).expect("victim exists");
                if let Some(p) = self.entries.get_mut(&entry.parent) {
                    p.children -= 1;
                }
                self.used_tokens -= self.block_tokens;
                freed += self.block_tokens;
                self.stats.evictions += 1;
                self.stats.evicted_tokens += self.block_tokens;
                self.events.push(KvEvent::Removed { block: victim });
            }
            freed
        }
    }

    /// Drives the slab store and the scan model through the same ops,
    /// asserting identical return values, event streams, counters and
    /// occupancy, plus the slab invariants, after every op. An op is
    /// `(kind, contents, target)`: insert, lookup, or evict down to
    /// `target`.
    fn lockstep(
        budget_tokens: u64,
        ops: Vec<(u8, Vec<u64>, u64)>,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prelude::*;
        let mut store = BlockPrefixCache::new(budget_tokens, 10);
        let mut scan = ScanStore::new(budget_tokens, 10);
        let mut events = Vec::new();
        for (op, contents, target) in ops {
            let (got, want) = match op {
                0 => (
                    store.insert_chain(contents.iter().copied()),
                    scan.insert_chain(&contents),
                ),
                1 => (
                    store.lookup_run(contents.iter().copied()),
                    scan.lookup_run(&contents),
                ),
                _ => (
                    store.evict_down_to(target),
                    scan.evict_protected(target, KV_ROOT_HASH),
                ),
            };
            prop_assert_eq!(got, want, "op {} on {:?}", op, contents);
            store.drain_events(&mut events);
            prop_assert_eq!(&events, &scan.events);
            prop_assert_eq!(store.stats(), scan.stats);
            prop_assert_eq!(store.used_tokens(), scan.used_tokens);
            prop_assert_eq!(store.len(), scan.entries.len());
            assert_slab_invariants(&store);
        }
        Ok(())
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The recency list picks the same victims as the full scan:
            /// random inserts, lookups and evictions under budgets of a
            /// few blocks (so tip protection and chain cut-off fire) emit
            /// identical event streams, return values and counters.
            #[test]
            fn indexed_eviction_matches_the_scan(
                budget_blocks in 0u64..7,
                ops in proptest::collection::vec(
                    (0u8..3, proptest::collection::vec(0u64..3, 1..7), 0u64..80),
                    1..80),
            ) {
                lockstep(budget_blocks * 10, ops)?;
            }

            /// The same lockstep over long chains and larger budgets, so
            /// each victim scan crosses many internal entries before it
            /// reaches the oldest leaf.
            #[test]
            fn long_chain_eviction_matches_the_scan(
                budget_blocks in 0u64..65,
                ops in proptest::collection::vec(
                    (0u8..3, proptest::collection::vec(0u64..3, 1..41), 0u64..700),
                    1..60),
            ) {
                lockstep(budget_blocks * 10, ops)?;
            }

            /// Chained hashing is deterministic and prefix-extension
            /// leaves leading hashes bit-identical.
            #[test]
            fn chain_prefix_extension_identity(
                base in proptest::collection::vec(0u64..1_000, 0..40),
                ext in proptest::collection::vec(0u64..1_000, 0..40),
            ) {
                let mut full = base.clone();
                full.extend_from_slice(&ext);
                let a = chain(&base);
                let b = chain(&full);
                prop_assert_eq!(&a[..], &b[..base.len()]);
                prop_assert_eq!(&a, &chain(&base));
            }

            /// The indexer conserves stored-minus-removed under
            /// arbitrary interleavings of valid store/evict streams from
            /// several instances.
            #[test]
            fn indexer_conserves_stored_minus_removed(
                ops in proptest::collection::vec(
                    (0u32..3, 0u64..12, 0u8..2), 0..120),
                delayed in 0u8..2,
            ) {
                let mut idx = KvIndexer::new(u64::from(delayed) * 700);
                let mut shadow: Vec<std::collections::BTreeMap<u64, u64>> =
                    vec![Default::default(); 3];
                // Per-instance stores generate *valid* event streams
                // (no remove of a never-stored block), which the op
                // sequence interleaves across instances.
                let mut stores: Vec<BlockPrefixCache> =
                    (0..3).map(|_| BlockPrefixCache::new(40, 10)).collect();
                let mut events = Vec::new();
                for (t, (inst, content, evict)) in ops.into_iter().enumerate() {
                    let now = t as u64 * 100;
                    let store = &mut stores[inst as usize];
                    if evict == 1 {
                        let target = store.used_tokens() / 2;
                        store.evict_down_to(target);
                    } else {
                        store.insert_chain([content, content ^ 7]);
                    }
                    events.clear();
                    store.drain_events(&mut events);
                    for &ev in &events {
                        idx.publish(inst, ev, now);
                        match ev {
                            KvEvent::Stored { block, tokens, .. } => {
                                shadow[inst as usize].insert(block, tokens);
                            }
                            KvEvent::Removed { block } => {
                                shadow[inst as usize].remove(&block);
                            }
                        }
                    }
                }
                idx.advance(u64::MAX);
                for inst in 0..3u32 {
                    prop_assert_eq!(
                        idx.blocks(inst), shadow[inst as usize].len(),
                        "instance {} diverged from ground truth", inst
                    );
                    for (&block, &tokens) in &shadow[inst as usize] {
                        prop_assert_eq!(idx.overlap(inst, &[block]), tokens);
                    }
                }
            }
        }
    }
}
