//! LightLLM's TokenAttention: the [`KvPool`] at block size 1.

use crate::KvPool;

/// The token-granular [`KvPool`] under its earlier name:
///
/// ```
/// use pf_kvcache::{KvCacheManager, TokenPool};
///
/// let mut pool = TokenPool::new(100);
/// pool.allocate(7, 40, 40)?;
/// assert_eq!(pool.available_tokens(), 60);
/// assert!(pool.extend(7, 60).is_ok());
/// assert!(pool.extend(7, 1).is_err()); // full
/// # Ok::<(), pf_kvcache::KvCacheError>(())
/// ```
pub type TokenPool = KvPool;

impl KvPool {
    /// A pool of `capacity` slots where every logical token occupies
    /// exactly one slot: no fragmentation and no reservation.
    pub fn new(capacity: u64) -> Self {
        KvPool::with_layout(capacity, 1, false)
    }
}

#[cfg(test)]
mod tests {
    use crate::{AllocError, KvCacheManager, KvPool};

    #[test]
    fn allocate_extend_release_roundtrip() {
        let mut p = KvPool::new(50);
        p.allocate(1, 20, 20).unwrap();
        p.allocate(2, 10, 10).unwrap();
        assert_eq!(p.used_tokens(), 30);
        p.extend(1, 5).unwrap();
        assert_eq!(p.used_tokens(), 35);
        assert_eq!(p.release(1), 25);
        assert_eq!(p.release(1), 0); // double release is a no-op
        assert_eq!(p.used_tokens(), 10);
        assert_eq!(p.n_requests(), 1);
    }

    #[test]
    fn rejects_over_capacity() {
        let mut p = KvPool::new(10);
        let err = p.allocate(1, 11, 11).unwrap_err();
        assert_eq!(
            err,
            AllocError {
                requested: 11,
                available: 10
            }
        );
        assert_eq!(p.used_tokens(), 0); // unchanged on failure
        assert_eq!(p.n_requests(), 0);
    }

    #[test]
    fn failed_extend_leaves_state() {
        let mut p = KvPool::new(10);
        p.allocate(1, 8, 8).unwrap();
        assert!(p.extend(1, 3).is_err());
        assert_eq!(p.used_tokens(), 8);
        assert_eq!(p.release(1), 8);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut p = KvPool::new(100);
        p.allocate(1, 60, 60).unwrap();
        p.allocate(2, 30, 30).unwrap();
        p.release(1);
        p.allocate(3, 10, 10).unwrap();
        assert_eq!(p.peak_used_tokens(), 90);
        assert_eq!(p.used_tokens(), 40);
    }

    #[test]
    fn no_overhead() {
        let mut p = KvPool::new(100);
        p.allocate(1, 33, 99).unwrap();
        assert_eq!(p.overhead_tokens(), 0);
        assert_eq!(p.logical_tokens(), p.used_tokens());
    }

    #[test]
    fn can_admit_matches_allocate() {
        let mut p = KvPool::new(10);
        p.allocate(1, 4, 4).unwrap();
        assert!(p.can_admit(6, 6));
        assert!(!p.can_admit(7, 7));
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    #[cfg(debug_assertions)]
    fn extend_unknown_panics_in_debug() {
        let mut p = KvPool::new(10);
        let _ = p.extend(9, 1);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Random alloc/extend/release workload preserving accounting
        /// invariants.
        #[derive(Debug, Clone)]
        enum Op {
            Alloc(u64, u64),
            Extend(u64, u64),
            Release(u64),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..8, 1u64..200).prop_map(|(r, t)| Op::Alloc(r, t)),
                (0u64..8, 1u64..50).prop_map(|(r, t)| Op::Extend(r, t)),
                (0u64..8).prop_map(Op::Release),
            ]
        }

        proptest! {
            #[test]
            fn accounting_invariants(ops in proptest::collection::vec(op_strategy(), 0..200)) {
                let mut pool = KvPool::new(500);
                let mut shadow: std::collections::BTreeMap<u64, u64> = Default::default();
                for op in ops {
                    match op {
                        Op::Alloc(r, t) => {
                            if shadow.contains_key(&r) {
                                continue;
                            }
                            if pool.allocate(r, t, t).is_ok() {
                                shadow.insert(r, t);
                            }
                        }
                        Op::Extend(r, t) => {
                            if shadow.contains_key(&r) && pool.extend(r, t).is_ok() {
                                *shadow.get_mut(&r).unwrap() += t;
                            }
                        }
                        Op::Release(r) => {
                            let freed = pool.release(r);
                            prop_assert_eq!(freed, shadow.remove(&r).unwrap_or(0));
                        }
                    }
                    let expected: u64 = shadow.values().sum();
                    prop_assert_eq!(pool.used_tokens(), expected);
                    prop_assert!(pool.used_tokens() <= pool.capacity_tokens());
                    prop_assert!(pool.peak_used_tokens() >= pool.used_tokens());
                    prop_assert_eq!(pool.n_requests(), shadow.len());
                }
            }
        }
    }
}
