//! Token-granularity KV-cache pool (LightLLM TokenAttention).

#![expect(
    clippy::disallowed_types,
    reason = "the `requests` map is key-addressed only (get/insert/remove/contains_key/len); nothing iterates it, so its order cannot reach events or reports"
)]

use std::collections::HashMap;

use crate::{AllocError, KvCacheError, KvCacheManager};

/// Token-granularity allocator: every logical token occupies exactly one
/// physical slot, so there is no internal fragmentation and no reservation.
///
/// This models LightLLM's TokenAttention memory manager, where the attention
/// kernel follows a per-request token-index table into one global KV pool.
///
/// # Example
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
#[derive(Debug, Clone)]
pub struct TokenPool {
    capacity: u64,
    used: u64,
    peak: u64,
    requests: HashMap<u64, u64>,
}

impl TokenPool {
    /// Creates a pool with `capacity` token slots.
    pub fn new(capacity: u64) -> Self {
        TokenPool {
            capacity,
            used: 0,
            peak: 0,
            requests: HashMap::new(),
        }
    }

    fn bump_peak(&mut self) {
        self.peak = self.peak.max(self.used);
    }
}

impl KvCacheManager for TokenPool {
    fn capacity_tokens(&self) -> u64 {
        self.capacity
    }

    fn used_tokens(&self) -> u64 {
        self.used
    }

    fn logical_tokens(&self) -> u64 {
        self.used
    }

    fn can_admit(&self, tokens: u64, _reserve_total: u64) -> bool {
        tokens <= self.available_tokens()
    }

    fn allocate(&mut self, req: u64, tokens: u64, _reserve_total: u64) -> Result<(), AllocError> {
        assert!(
            !self.requests.contains_key(&req),
            "request {req} already allocated"
        );
        if tokens > self.available_tokens() {
            return Err(AllocError {
                requested: tokens,
                available: self.available_tokens(),
            });
        }
        self.requests.insert(req, tokens);
        self.used += tokens;
        self.bump_peak();
        Ok(())
    }

    fn extend(&mut self, req: u64, tokens: u64) -> Result<(), KvCacheError> {
        let available = self.available_tokens();
        let Some(held) = self.requests.get_mut(&req) else {
            debug_assert!(false, "extend of unknown request {req}");
            return Err(KvCacheError::UnknownRequest { req });
        };
        if tokens > available {
            return Err(AllocError {
                requested: tokens,
                available,
            }
            .into());
        }
        *held += tokens;
        self.used += tokens;
        self.bump_peak();
        Ok(())
    }

    fn release(&mut self, req: u64) -> u64 {
        let freed = self.requests.remove(&req).unwrap_or(0);
        self.used -= freed;
        freed
    }

    fn extension_shortfall(&self, requests: &[u64]) -> Result<u64, KvCacheError> {
        for &req in requests {
            if !self.requests.contains_key(&req) {
                debug_assert!(false, "unknown request {req}");
                return Err(KvCacheError::UnknownRequest { req });
            }
        }
        Ok((requests.len() as u64).saturating_sub(self.available_tokens()))
    }

    /// One pass: a single capacity check, one touch per entry, and one
    /// bump of `used` and `peak`. An unknown id rolls back the entries
    /// already grown.
    fn extend_each(&mut self, requests: &[u64]) -> Result<(), KvCacheError> {
        let n = requests.len() as u64;
        let available = self.available_tokens();
        if n > available {
            // Misuse outranks shortage, as in `extension_shortfall`.
            self.extension_shortfall(requests)?;
            return Err(AllocError {
                requested: n,
                available,
            }
            .into());
        }
        for (i, &req) in requests.iter().enumerate() {
            let Some(held) = self.requests.get_mut(&req) else {
                for grown in &requests[..i] {
                    *self.requests.get_mut(grown).expect("grown above") -= 1;
                }
                debug_assert!(false, "extend of unknown request {req}");
                return Err(KvCacheError::UnknownRequest { req });
            };
            *held += 1;
        }
        self.used += n;
        self.bump_peak();
        Ok(())
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
    fn allocate_extend_release_roundtrip() {
        let mut p = TokenPool::new(50);
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
        let mut p = TokenPool::new(10);
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
        let mut p = TokenPool::new(10);
        p.allocate(1, 8, 8).unwrap();
        assert!(p.extend(1, 3).is_err());
        assert_eq!(p.used_tokens(), 8);
        assert_eq!(p.release(1), 8);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut p = TokenPool::new(100);
        p.allocate(1, 60, 60).unwrap();
        p.allocate(2, 30, 30).unwrap();
        p.release(1);
        p.allocate(3, 10, 10).unwrap();
        assert_eq!(p.peak_used_tokens(), 90);
        assert_eq!(p.used_tokens(), 40);
    }

    #[test]
    fn no_overhead() {
        let mut p = TokenPool::new(100);
        p.allocate(1, 33, 99).unwrap();
        assert_eq!(p.overhead_tokens(), 0);
        assert_eq!(p.logical_tokens(), p.used_tokens());
    }

    #[test]
    fn can_admit_matches_allocate() {
        let mut p = TokenPool::new(10);
        p.allocate(1, 4, 4).unwrap();
        assert!(p.can_admit(6, 6));
        assert!(!p.can_admit(7, 7));
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn duplicate_allocate_panics() {
        let mut p = TokenPool::new(10);
        p.allocate(1, 1, 1).unwrap();
        let _ = p.allocate(1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    #[cfg(debug_assertions)]
    fn extend_unknown_panics_in_debug() {
        let mut p = TokenPool::new(10);
        let _ = p.extend(9, 1);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn extend_unknown_errors_in_release() {
        let mut p = TokenPool::new(10);
        assert_eq!(p.extend(9, 1), Err(KvCacheError::UnknownRequest { req: 9 }));
        assert_eq!(
            p.extension_shortfall(&[9]),
            Err(KvCacheError::UnknownRequest { req: 9 })
        );
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
                let mut pool = TokenPool::new(500);
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
