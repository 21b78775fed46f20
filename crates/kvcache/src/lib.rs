//! KV-cache memory managers for LLM serving simulation.
//!
//! Continuous batching lives or dies by KV-cache memory accounting (paper
//! Section 2.2). This crate implements the three manager designs the paper
//! discusses, behind one [`KvCacheManager`] trait:
//!
//! * [`TokenPool`] — token-granularity allocation, LightLLM's
//!   *TokenAttention* design. Zero internal fragmentation.
//! * [`PagedPool`] — fixed-size block allocation, vLLM's *PagedAttention*
//!   design. Internal fragmentation limited to the last block per request.
//! * [`ContiguousPool`] — contiguous max-length reservation,
//!   FasterTransformer/ORCA style. Massive reservation waste, shown here as
//!   the motivating baseline.
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
//! use pf_kvcache::{KvCacheManager, TokenPool};
//!
//! let mut pool = TokenPool::new(1000);
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
mod prefix;
mod token_pool;

pub use block::{block_hash, BlockPrefixCache, KvEvent, KvIndexer, KV_ROOT_HASH};
pub use contiguous::ContiguousPool;
pub use paged::PagedPool;
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

/// Common interface of all KV-cache managers.
///
/// A request's life is [`allocate`](Self::allocate) at admission, one
/// token of growth per decode step, and [`release`](Self::release) at
/// completion or eviction. A decode step grows the whole batch through
/// [`extend_each`](Self::extend_each), one call per step; when that is
/// refused, [`extension_shortfall`](Self::extension_shortfall) says how
/// many slots the caller must free first.
///
/// Implementations distinguish *logical* tokens (tokens whose KV entries are
/// actually stored) from *physical* tokens (slots consumed, including any
/// fragmentation or reservation overhead). For [`TokenPool`] the two are
/// equal; for [`PagedPool`] physical ≥ logical because of partially filled
/// blocks; for [`ContiguousPool`] physical is the full reservation.
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
    /// The default body is that shortfall check followed by
    /// `extend(req, 1)` per request; [`TokenPool`] overrides it with a
    /// single pass over the batch.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::Alloc`] when the shortfall is positive and
    /// [`KvCacheError::UnknownRequest`] if any listed request is not
    /// tracked (a `debug_assert!` panic in debug builds); the manager
    /// state is unchanged on either error. A per-request `extend` failure
    /// past a zero shortfall (a [`ContiguousPool`] request outgrowing its
    /// reservation, itself a caller bug) is returned as is, with the
    /// requests listed before it already grown.
    fn extend_each(&mut self, requests: &[u64]) -> Result<(), KvCacheError> {
        if self.extension_shortfall(requests)? > 0 {
            return Err(AllocError {
                requested: requests.len() as u64,
                available: self.available_tokens(),
            }
            .into());
        }
        for &req in requests {
            self.extend(req, 1)?;
        }
        Ok(())
    }

    /// Highest physical usage ever observed.
    fn peak_used_tokens(&self) -> u64;

    /// Number of live requests.
    fn n_requests(&self) -> usize;

    /// Fraction of capacity physically used, in `[0, 1]`.
    fn utilization(&self) -> f64 {
        if self.capacity_tokens() == 0 {
            0.0
        } else {
            self.used_tokens() as f64 / self.capacity_tokens() as f64
        }
    }

    /// Physical-minus-logical overhead (fragmentation / reservation waste).
    fn overhead_tokens(&self) -> u64 {
        self.used_tokens() - self.logical_tokens()
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn check_basic(manager: &mut dyn KvCacheManager) {
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

    #[test]
    fn all_managers_satisfy_basic_contract() {
        check_basic(&mut TokenPool::new(100));
        check_basic(&mut PagedPool::new(100, 4));
        check_basic(&mut ContiguousPool::new(100));
    }

    #[test]
    fn utilization_bounds() {
        let mut pool = TokenPool::new(10);
        assert_eq!(pool.utilization(), 0.0);
        pool.allocate(1, 10, 10).unwrap();
        assert_eq!(pool.utilization(), 1.0);
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
