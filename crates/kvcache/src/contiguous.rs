//! Contiguous max-length reservation (FasterTransformer / ORCA style).

#![expect(
    clippy::disallowed_types,
    reason = "the `requests` map is key-addressed only (get/insert/remove/contains_key/len); nothing iterates it, so its order cannot reach events or reports"
)]

use std::collections::HashMap;

use crate::{AllocError, KvCacheError, KvCacheManager};

#[derive(Debug, Clone, Copy)]
struct ContiguousEntry {
    logical: u64,
    reserved: u64,
}

/// Reservation-based allocator: each request reserves its *maximum possible*
/// footprint (prompt + `max_new_tokens`) up front, in one contiguous region.
///
/// This models pre-PagedAttention serving systems. The gap between the
/// reservation and the tokens actually generated is pure waste — the paper's
/// motivation for smarter scheduling and memory management. `extend` within
/// the reservation always succeeds; exceeding the reservation is a caller
/// bug (a real system sizes the region for the configured maximum) and
/// reports [`KvCacheError::Alloc`] — panicking in debug builds.
///
/// # Example
///
/// ```
/// use pf_kvcache::{ContiguousPool, KvCacheManager};
///
/// let mut pool = ContiguousPool::new(4096);
/// // 100-token prompt, but up to 2048 new tokens: reserves 2148 slots.
/// pool.allocate(1, 100, 2148)?;
/// assert_eq!(pool.used_tokens(), 2148);
/// assert_eq!(pool.logical_tokens(), 100);
/// # Ok::<(), pf_kvcache::KvCacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ContiguousPool {
    capacity: u64,
    reserved: u64,
    logical: u64,
    peak: u64,
    requests: HashMap<u64, ContiguousEntry>,
}

impl ContiguousPool {
    /// Creates a pool with `capacity` token slots.
    pub fn new(capacity: u64) -> Self {
        ContiguousPool {
            capacity,
            reserved: 0,
            logical: 0,
            peak: 0,
            requests: HashMap::new(),
        }
    }

    fn bump_peak(&mut self) {
        self.peak = self.peak.max(self.reserved);
    }
}

impl KvCacheManager for ContiguousPool {
    fn capacity_tokens(&self) -> u64 {
        self.capacity
    }

    fn used_tokens(&self) -> u64 {
        self.reserved
    }

    fn logical_tokens(&self) -> u64 {
        self.logical
    }

    fn can_admit(&self, tokens: u64, reserve_total: u64) -> bool {
        tokens.max(reserve_total) <= self.available_tokens()
    }

    fn allocate(&mut self, req: u64, tokens: u64, reserve_total: u64) -> Result<(), AllocError> {
        assert!(
            !self.requests.contains_key(&req),
            "request {req} already allocated"
        );
        let reserve = tokens.max(reserve_total);
        if reserve > self.available_tokens() {
            return Err(AllocError {
                requested: reserve,
                available: self.available_tokens(),
            });
        }
        self.requests.insert(
            req,
            ContiguousEntry {
                logical: tokens,
                reserved: reserve,
            },
        );
        self.reserved += reserve;
        self.logical += tokens;
        self.bump_peak();
        Ok(())
    }

    fn extend(&mut self, req: u64, tokens: u64) -> Result<(), KvCacheError> {
        let Some(entry) = self.requests.get_mut(&req) else {
            debug_assert!(false, "extend of unknown request {req}");
            return Err(KvCacheError::UnknownRequest { req });
        };
        if entry.logical + tokens > entry.reserved {
            debug_assert!(
                false,
                "request {req} grew past its reservation ({} + {tokens} > {})",
                entry.logical, entry.reserved
            );
            return Err(AllocError {
                requested: tokens,
                available: entry.reserved - entry.logical,
            }
            .into());
        }
        entry.logical += tokens;
        self.logical += tokens;
        Ok(())
    }

    fn release(&mut self, req: u64) -> u64 {
        match self.requests.remove(&req) {
            Some(entry) => {
                self.reserved -= entry.reserved;
                self.logical -= entry.logical;
                entry.reserved
            }
            None => 0,
        }
    }

    fn extension_shortfall(&self, requests: &[u64]) -> Result<u64, KvCacheError> {
        for &req in requests {
            if !self.requests.contains_key(&req) {
                debug_assert!(false, "unknown request {req}");
                return Err(KvCacheError::UnknownRequest { req });
            }
        }
        // Growth within the reservation is prepaid.
        Ok(0)
    }

    fn peak_used_tokens(&self) -> u64 {
        self.peak
    }

    fn n_requests(&self) -> usize {
        self.requests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserves_max_footprint() {
        let mut p = ContiguousPool::new(1000);
        p.allocate(1, 50, 500).unwrap();
        assert_eq!(p.used_tokens(), 500);
        assert_eq!(p.logical_tokens(), 50);
        assert_eq!(p.overhead_tokens(), 450);
        assert_eq!(p.release(1), 500);
    }

    #[test]
    fn extend_within_reservation_is_free() {
        let mut p = ContiguousPool::new(1000);
        p.allocate(1, 50, 500).unwrap();
        p.extend(1, 450).unwrap();
        assert_eq!(p.used_tokens(), 500);
        assert_eq!(p.overhead_tokens(), 0);
    }

    #[test]
    fn admission_checks_reservation_not_prompt() {
        let mut p = ContiguousPool::new(100);
        assert!(p.can_admit(10, 90));
        assert!(!p.can_admit(10, 101));
        assert!(p.allocate(1, 10, 101).is_err());
        assert_eq!(p.n_requests(), 0);
    }

    #[test]
    fn release_frees_full_reservation() {
        let mut p = ContiguousPool::new(100);
        p.allocate(1, 10, 80).unwrap();
        assert_eq!(p.release(1), 80);
        assert_eq!(p.used_tokens(), 0);
        assert_eq!(p.logical_tokens(), 0);
    }

    #[test]
    fn reserve_defaults_to_prompt_when_smaller() {
        let mut p = ContiguousPool::new(100);
        // Caller passed a reserve smaller than the prompt: prompt wins.
        p.allocate(1, 60, 10).unwrap();
        assert_eq!(p.used_tokens(), 60);
    }

    #[test]
    #[should_panic(expected = "grew past its reservation")]
    #[cfg(debug_assertions)]
    fn growing_past_reservation_panics_in_debug() {
        let mut p = ContiguousPool::new(100);
        p.allocate(1, 10, 20).unwrap();
        let _ = p.extend(1, 11);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn growing_past_reservation_errors_in_release() {
        let mut p = ContiguousPool::new(100);
        p.allocate(1, 10, 20).unwrap();
        let err = p.extend(1, 11).unwrap_err();
        assert_eq!(err.alloc().expect("capacity error").available, 10);
        assert_eq!(p.extend(9, 1), Err(KvCacheError::UnknownRequest { req: 9 }));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn reservation_never_exceeded(
                reqs in proptest::collection::vec((1u64..50, 1u64..100), 1..30),
            ) {
                let mut p = ContiguousPool::new(100_000);
                for (i, (prompt, extra)) in reqs.iter().enumerate() {
                    p.allocate(i as u64, *prompt, prompt + extra).unwrap();
                }
                prop_assert!(p.logical_tokens() <= p.used_tokens());
                prop_assert!(p.used_tokens() <= p.capacity_tokens());
                let total_reserved: u64 = reqs.iter().map(|(pr, ex)| pr + ex).sum();
                prop_assert_eq!(p.used_tokens(), total_reserved);
            }
        }
    }
}
