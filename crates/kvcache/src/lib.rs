//! KV-cache memory managers for LLM serving simulation.
//!
//! Continuous batching lives or dies by KV-cache memory accounting (paper
//! Section 2.2). The paper contrasts three manager designs; this crate
//! models them as one allocator, [`KvPool`], with the designs as its
//! parameters:
//!
//! * [`KvPool::new`] — block size 1, LightLLM's *TokenAttention*: the
//!   attention kernel follows a per-request token-index table into one
//!   global pool, so there is no internal fragmentation.
//! * [`KvPool::paged`] — blocks of `block_size` slots, vLLM's
//!   *PagedAttention*: fragmentation is confined to each request's last
//!   block.
//! * [`KvPool::contiguous`] — block size 1 with each request's maximum
//!   length reserved up front, FasterTransformer/ORCA style: the gap
//!   between the reservation and the tokens actually generated is pure
//!   waste, the paper's motivating baseline.
//!
//! Capacity rounds down to whole blocks. A request of `logical` stored
//! tokens holds `max(round_up(logical, block_size), floor)` slots, where
//! `floor` is its `reserve_total` in the reserving pool and 0 otherwise.
//! There the floor is also a ceiling: growing past the reservation is a
//! caller bug (a real system sizes the region for the configured maximum),
//! a `debug_assert!` panic and a [`KvCacheError::Alloc`] in release builds.
//!
//! The crate also provides the prefix store KV-aware routers use to
//! simulate prefix-cache hits on shared prompt prefixes (system prompts,
//! multi-turn conversations): chained [`block_hash`]es, the
//! suffix-evicting [`BlockPrefixCache`] with its [`PrefixCacheStats`],
//! and the event-driven [`KvIndexer`] that global KV-aware routers
//! consult (see the [`block`](crate::block_hash) module docs).
//!
//! All sizes are in **KV token slots**: one slot stores the key/value
//! vectors of one token across all layers. Requests are identified by opaque
//! `u64` keys chosen by the caller.
//!
//! A decode step grows the whole running batch by one token each with a
//! single [`KvCacheManager::extend_each`] call, all or nothing;
//! [`KvCacheManager::extend`] grows one request by any amount.
//!
//! # Example
//!
//! ```
//! use pf_kvcache::{KvCacheManager, KvPool};
//!
//! let mut pool = KvPool::new(1000);
//! pool.allocate(1, 300, 300)?; // prefill: 300 prompt tokens
//! pool.allocate(2, 100, 100)?;
//! pool.extend_each(&[1, 2])?;  // one decode step of the batch
//! assert_eq!(pool.used_tokens(), 402);
//! assert_eq!(pool.release(1), 301);
//! assert_eq!(pool.release(2), 101);
//! assert_eq!(pool.used_tokens(), 0);
//! # Ok::<(), pf_kvcache::KvCacheError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block;
mod contiguous;
mod paged;
mod pool;
mod prefix;
mod token_pool;

pub use block::{block_hash, BlockPrefixCache, KvEvent, KvIndexer, KV_ROOT_HASH};
pub use contiguous::ContiguousPool;
pub use paged::PagedPool;
pub use pool::KvPool;
pub use prefix::PrefixCacheStats;
pub use token_pool::TokenPool;

use std::error::Error;
use std::fmt;

/// Error returned when an allocation cannot be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// Tokens requested by the failed call.
    pub requested: u64,
    /// Physical tokens that were available at the time.
    pub available: u64,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kv-cache allocation of {} tokens failed ({} available)",
            self.requested, self.available
        )
    }
}

impl Error for AllocError {}

/// Typed error of KV-cache manager operations.
///
/// Distinguishes ordinary memory exhaustion (the engine's admission and
/// eviction machinery handles it) from *protocol misuse* — operating on a
/// request id the manager does not know, which indicates a routing or
/// bookkeeping bug upstream. Misuse panics in debug builds (via
/// `debug_assert!`) and surfaces as a located error in release builds
/// instead of poisoning the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvCacheError {
    /// The operation could not be satisfied for lack of free slots.
    Alloc(AllocError),
    /// The operation referenced a request id the manager does not track —
    /// a routing/bookkeeping bug, not a capacity condition.
    UnknownRequest {
        /// The unknown request id.
        req: u64,
    },
}

impl KvCacheError {
    /// The allocation failure, when this is a capacity error.
    pub fn alloc(&self) -> Option<AllocError> {
        match self {
            KvCacheError::Alloc(e) => Some(*e),
            KvCacheError::UnknownRequest { .. } => None,
        }
    }
}

impl fmt::Display for KvCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvCacheError::Alloc(e) => e.fmt(f),
            KvCacheError::UnknownRequest { req } => {
                write!(f, "kv-cache operation on unknown request {req}")
            }
        }
    }
}

impl Error for KvCacheError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KvCacheError::Alloc(e) => Some(e),
            KvCacheError::UnknownRequest { .. } => None,
        }
    }
}

impl From<AllocError> for KvCacheError {
    fn from(e: AllocError) -> Self {
        KvCacheError::Alloc(e)
    }
}

/// The KV-cache manager interface, implemented by [`KvPool`].
///
/// A request's life is [`allocate`](Self::allocate) at admission, one
/// token of growth per decode step, and [`release`](Self::release) at
/// completion or eviction. A decode step grows the whole batch through
/// [`extend_each`](Self::extend_each), one call per step; when that is
/// refused, [`extension_shortfall`](Self::extension_shortfall) says how
/// many slots the caller must free first.
///
/// A manager distinguishes *logical* tokens (tokens whose KV entries are
/// actually stored) from *physical* tokens (slots consumed, including any
/// fragmentation or reservation overhead). At block size 1 the two are
/// equal; with larger blocks physical ≥ logical because of partially
/// filled blocks; in a reserving pool physical is the full reservation.
pub trait KvCacheManager: fmt::Debug {
    /// Total capacity in physical token slots.
    fn capacity_tokens(&self) -> u64;

    /// Physical token slots currently consumed.
    fn used_tokens(&self) -> u64;

    /// Logical tokens currently stored.
    fn logical_tokens(&self) -> u64;

    /// Physical token slots still free.
    fn available_tokens(&self) -> u64 {
        self.capacity_tokens() - self.used_tokens()
    }

    /// Whether a *new* request with a `tokens`-token prompt (and
    /// `reserve_total` maximum total length, honoured only by
    /// reservation-based managers) could be admitted right now.
    fn can_admit(&self, tokens: u64, reserve_total: u64) -> bool;

    /// Allocates the initial (prefill) footprint of request `req`.
    ///
    /// `tokens` is the prompt length; `reserve_total` is the maximum total
    /// length the request may reach (prompt + max_new_tokens), used only by
    /// reservation-based managers.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the manager cannot satisfy the allocation;
    /// the manager state is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if `req` is already allocated.
    fn allocate(&mut self, req: u64, tokens: u64, reserve_total: u64) -> Result<(), AllocError>;

    /// Grows request `req` by `tokens` logical tokens (decode step).
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::Alloc`] on out-of-memory and
    /// [`KvCacheError::UnknownRequest`] if `req` is not tracked (a
    /// `debug_assert!` panic in debug builds); the manager state is
    /// unchanged on error.
    fn extend(&mut self, req: u64, tokens: u64) -> Result<(), KvCacheError>;

    /// Releases everything held by request `req`, returning the number of
    /// physical slots freed (0 if the request is unknown).
    fn release(&mut self, req: u64) -> u64;

    /// Physical token slots *missing* to extend every listed request by one
    /// logical token in the same step (0 means the combined extension is
    /// guaranteed to succeed). Used by the engine to decide evictions
    /// before a decode step.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::UnknownRequest`] if any listed request is
    /// not tracked (a `debug_assert!` panic in debug builds).
    fn extension_shortfall(&self, requests: &[u64]) -> Result<u64, KvCacheError>;

    /// Grows every listed request by one logical token — one decode step
    /// of the whole batch in one call, all or nothing. Succeeds exactly
    /// when [`extension_shortfall`](Self::extension_shortfall) is 0; the
    /// ids must be distinct.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::Alloc`] when the shortfall is positive or
    /// a request outgrows its reservation (a caller bug, a
    /// `debug_assert!` panic in debug builds), and
    /// [`KvCacheError::UnknownRequest`] if any listed request is not
    /// tracked (a `debug_assert!` panic in debug builds); the manager
    /// state is unchanged on every error.
    fn extend_each(&mut self, requests: &[u64]) -> Result<(), KvCacheError>;

    /// Highest physical usage ever observed.
    fn peak_used_tokens(&self) -> u64;

    /// Number of live requests.
    fn n_requests(&self) -> usize;

    /// Physical-minus-logical overhead (fragmentation / reservation waste).
    fn overhead_tokens(&self) -> u64 {
        self.used_tokens() - self.logical_tokens()
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn check_basic(manager: &mut KvPool) {
        assert_eq!(manager.used_tokens(), 0);
        manager.allocate(1, 10, 20).unwrap();
        assert!(manager.used_tokens() >= 10);
        assert_eq!(manager.logical_tokens(), 10);
        manager.extend(1, 5).unwrap();
        assert_eq!(manager.logical_tokens(), 15);
        assert_eq!(manager.n_requests(), 1);
        let freed = manager.release(1);
        assert!(freed >= 15);
        assert_eq!(manager.used_tokens(), 0);
        assert_eq!(manager.n_requests(), 0);
    }

    /// One pool per layout: token, paged and contiguous.
    fn layouts() -> [KvPool; 3] {
        [
            KvPool::new(100),
            KvPool::paged(100, 4),
            KvPool::contiguous(100),
        ]
    }

    /// Runs `misuse` on a fresh pool of every layout and returns each
    /// panic message (`None` where it did not panic).
    fn panic_messages(misuse: impl Fn(&mut KvPool)) -> Vec<Option<String>> {
        layouts()
            .into_iter()
            .map(|mut pool| {
                let payload =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| misuse(&mut pool)))
                        .err()?;
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            })
            .collect()
    }

    #[test]
    fn all_managers_satisfy_basic_contract() {
        for mut pool in layouts() {
            check_basic(&mut pool);
        }
    }

    #[test]
    fn duplicate_allocate_panics() {
        let messages = panic_messages(|pool| {
            pool.allocate(1, 1, 1).unwrap();
            let _ = pool.allocate(1, 1, 1);
        });
        for message in messages {
            assert!(message.is_some_and(|m| m.contains("already allocated")));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn extend_unknown_panics_in_debug() {
        let extend = panic_messages(|pool| {
            let _ = pool.extend(9, 1);
        });
        let shortfall = panic_messages(|pool| {
            let _ = pool.extension_shortfall(&[9]);
        });
        for message in extend.into_iter().chain(shortfall) {
            assert!(message.is_some_and(|m| m.contains("unknown request")));
        }
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn extend_unknown_errors_in_release() {
        for mut pool in layouts() {
            let unknown = Err(KvCacheError::UnknownRequest { req: 9 });
            assert_eq!(pool.extend(9, 1), unknown, "{pool:?}");
            assert_eq!(pool.extension_shortfall(&[9]).map(|_| ()), unknown);
        }
    }

    #[test]
    fn alloc_error_displays() {
        let e = AllocError {
            requested: 10,
            available: 3,
        };
        assert_eq!(
            e.to_string(),
            "kv-cache allocation of 10 tokens failed (3 available)"
        );
    }

    #[test]
    fn kv_cache_error_wraps_and_displays() {
        let alloc = AllocError {
            requested: 10,
            available: 3,
        };
        let wrapped = KvCacheError::from(alloc);
        assert_eq!(wrapped.alloc(), Some(alloc));
        assert!(wrapped.to_string().contains("10 tokens"));
        let unknown = KvCacheError::UnknownRequest { req: 9 };
        assert_eq!(unknown.alloc(), None);
        assert_eq!(
            unknown.to_string(),
            "kv-cache operation on unknown request 9"
        );
    }
}
