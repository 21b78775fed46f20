//! Contiguous max-length reservation (FasterTransformer / ORCA style):
//! the reserving [`KvPool`].

use crate::KvPool;

/// The reserving [`KvPool`] under its earlier name; [`KvPool::contiguous`]
/// builds one:
///
/// ```
/// use pf_kvcache::{ContiguousPool, KvCacheManager};
///
/// let mut pool = ContiguousPool::contiguous(4096);
/// // 100-token prompt, but up to 2048 new tokens: reserves 2148 slots.
/// pool.allocate(1, 100, 2148)?;
/// assert_eq!(pool.used_tokens(), 2148);
/// assert_eq!(pool.logical_tokens(), 100);
/// # Ok::<(), pf_kvcache::KvCacheError>(())
/// ```
pub type ContiguousPool = KvPool;

impl KvPool {
    /// A pool of `capacity` slots where each request holds its whole
    /// `reserve_total` (prompt + `max_new_tokens`) from admission on.
    pub fn contiguous(capacity: u64) -> Self {
        KvPool::with_layout(capacity, 1, true)
    }
}

#[cfg(test)]
mod tests {
    use crate::{KvCacheManager, KvPool};

    #[test]
    fn reserves_max_footprint() {
        let mut p = KvPool::contiguous(1000);
        p.allocate(1, 50, 500).unwrap();
        assert_eq!(p.used_tokens(), 500);
        assert_eq!(p.logical_tokens(), 50);
        assert_eq!(p.overhead_tokens(), 450);
        assert_eq!(p.release(1), 500);
    }

    #[test]
    fn extend_within_reservation_is_free() {
        let mut p = KvPool::contiguous(1000);
        p.allocate(1, 50, 500).unwrap();
        p.extend(1, 450).unwrap();
        assert_eq!(p.used_tokens(), 500);
        assert_eq!(p.overhead_tokens(), 0);
    }

    #[test]
    fn admission_checks_reservation_not_prompt() {
        let mut p = KvPool::contiguous(100);
        assert!(p.can_admit(10, 90));
        assert!(!p.can_admit(10, 101));
        assert!(p.allocate(1, 10, 101).is_err());
        assert_eq!(p.n_requests(), 0);
    }

    #[test]
    fn release_frees_full_reservation() {
        let mut p = KvPool::contiguous(100);
        p.allocate(1, 10, 80).unwrap();
        assert_eq!(p.release(1), 80);
        assert_eq!(p.used_tokens(), 0);
        assert_eq!(p.logical_tokens(), 0);
    }

    #[test]
    fn reserve_defaults_to_prompt_when_smaller() {
        let mut p = KvPool::contiguous(100);
        // Caller passed a reserve smaller than the prompt: prompt wins.
        p.allocate(1, 60, 10).unwrap();
        assert_eq!(p.used_tokens(), 60);
    }

    #[test]
    fn reservation_is_prepaid_in_the_shortfall() {
        let mut p = KvPool::contiguous(30);
        p.allocate(1, 20, 20).unwrap(); // at its reservation
        p.allocate(2, 5, 10).unwrap(); // the pool is full
        assert_eq!(p.extension_shortfall(&[1, 2]), Ok(0));
    }

    #[test]
    #[should_panic(expected = "grew past its reservation")]
    #[cfg(debug_assertions)]
    fn growing_past_reservation_panics_in_debug() {
        let mut p = KvPool::contiguous(100);
        p.allocate(1, 10, 20).unwrap();
        let _ = p.extend(1, 11);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn growing_past_reservation_errors_in_release() {
        use crate::KvCacheError;

        let mut p = KvPool::contiguous(100);
        p.allocate(1, 10, 20).unwrap();
        let err = p.extend(1, 11).unwrap_err();
        assert_eq!(err.alloc().expect("capacity error").available, 10);
        assert_eq!(p.extend(9, 1), Err(KvCacheError::UnknownRequest { req: 9 }));
    }

    #[test]
    #[should_panic(expected = "grew past its reservation")]
    #[cfg(debug_assertions)]
    fn stepping_past_reservation_panics_in_debug() {
        let mut p = KvPool::contiguous(100);
        p.allocate(1, 10, 20).unwrap();
        p.allocate(2, 20, 20).unwrap();
        let _ = p.extend_each(&[1, 2]);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn stepping_past_reservation_rolls_back_in_release() {
        let mut p = KvPool::contiguous(100);
        p.allocate(1, 10, 20).unwrap();
        p.allocate(2, 20, 20).unwrap();
        let err = p.extend_each(&[1, 2]).unwrap_err();
        assert_eq!(
            err.alloc().map(|e| (e.requested, e.available)),
            Some((1, 0))
        );
        // Request 1 was not left grown.
        assert_eq!(p.logical_tokens(), 30);
        assert_eq!(p.release(2), 20);
        p.extend(1, 10).unwrap();
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn reservation_never_exceeded(
                reqs in proptest::collection::vec((1u64..50, 1u64..100), 1..30),
            ) {
                let mut p = KvPool::contiguous(100_000);
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
