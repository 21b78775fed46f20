//! `KvCacheManager::extend_each` against its reference semantics: an
//! `extension_shortfall` check followed by `extend(req, 1)` per request.
//! The batched call must succeed exactly when the shortfall is zero, leave
//! the same accounting as the reference on success, and change nothing on
//! error — at block size 1, at larger block sizes and in a reserving pool.

use std::collections::BTreeSet;

use pf_kvcache::{KvCacheManager, KvPool};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Headroom every allocation reserves past its prompt. A request grows by
/// at most `MAX_OPS × MAX_GROWTH` tokens in one sequence, so contiguous
/// reservations are never outgrown (that would be a caller bug).
const RESERVE_PAD: u64 = 1_000;
const MAX_OPS: usize = 120;
const MAX_GROWTH: u64 = 8;

#[derive(Debug, Clone)]
enum Op {
    Alloc(u64, u64),
    Extend(u64, u64),
    Release(u64),
    /// One decode step over the live requests whose id bit is set.
    Step(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..8, 1u64..100).prop_map(|(r, t)| Op::Alloc(r, t)),
        (0u64..8, 1u64..MAX_GROWTH).prop_map(|(r, t)| Op::Extend(r, t)),
        (0u64..8).prop_map(Op::Release),
        (0u64..256).prop_map(Op::Step),
        (0u64..256).prop_map(Op::Step),
    ]
}

/// The accounting `extend_each` must agree on.
fn snapshot(pool: &KvPool) -> (u64, u64, u64, usize) {
    (
        pool.used_tokens(),
        pool.logical_tokens(),
        pool.peak_used_tokens(),
        pool.n_requests(),
    )
}

/// Replays `ops` on `pool`, checking every `Step` against the reference
/// sequence run on a clone.
fn check_against_reference(mut pool: KvPool, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut live: BTreeSet<u64> = BTreeSet::new();
    for op in ops {
        match *op {
            Op::Alloc(r, t) => {
                if !live.contains(&r) && pool.allocate(r, t, t + RESERVE_PAD).is_ok() {
                    live.insert(r);
                }
            }
            Op::Extend(r, t) => {
                if live.contains(&r) {
                    let _ = pool.extend(r, t);
                }
            }
            Op::Release(r) => {
                pool.release(r);
                live.remove(&r);
            }
            Op::Step(mask) => {
                let ids: Vec<u64> = live
                    .iter()
                    .copied()
                    .filter(|r| mask >> r & 1 == 1)
                    .collect();
                let mut reference = pool.clone();
                let shortfall = reference
                    .extension_shortfall(&ids)
                    .expect("only live ids listed");
                if shortfall == 0 {
                    for &r in &ids {
                        reference
                            .extend(r, 1)
                            .expect("zero shortfall grows every id");
                    }
                }
                let result = pool.extend_each(&ids);
                prop_assert_eq!(result.is_ok(), shortfall == 0);
                if let Err(error) = result {
                    prop_assert!(error.alloc().is_some(), "refusal must be a capacity error");
                }
                // On refusal the reference is the untouched pre-step state.
                prop_assert_eq!(snapshot(&pool), snapshot(&reference));
            }
        }
        prop_assert!(pool.used_tokens() <= pool.capacity_tokens());
    }
    Ok(())
}

proptest! {
    #[test]
    fn token_pool_extend_each_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 0..MAX_OPS),
    ) {
        check_against_reference(KvPool::new(300), &ops)?;
    }

    #[test]
    fn paged_pool_extend_each_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 0..MAX_OPS),
        block_size in 1u64..17,
    ) {
        check_against_reference(KvPool::paged(300, block_size), &ops)?;
    }

    #[test]
    fn contiguous_pool_extend_each_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 0..MAX_OPS),
    ) {
        check_against_reference(KvPool::contiguous(4 * RESERVE_PAD), &ops)?;
    }
}

#[test]
fn token_pool_refuses_a_step_one_slot_short() {
    let mut pool = KvPool::new(32);
    pool.allocate(1, 15, 15).unwrap();
    pool.allocate(2, 15, 15).unwrap();
    pool.extend_each(&[1, 2]).unwrap();
    assert_eq!(snapshot(&pool), (32, 32, 32, 2));
    let mut one_short = KvPool::new(33);
    one_short.allocate(1, 16, 16).unwrap();
    one_short.allocate(2, 16, 16).unwrap();
    let error = one_short.extend_each(&[1, 2]).unwrap_err();
    let alloc = error.alloc().expect("capacity error");
    assert_eq!((alloc.requested, alloc.available), (2, 1));
    assert_eq!(snapshot(&one_short), (32, 32, 32, 2));
}

/// An unknown id in the middle of the batch is reported, and the ids
/// listed before it are rolled back. Release builds only: debug builds
/// panic on the misuse (see the twin below).
#[test]
#[cfg(not(debug_assertions))]
fn unknown_id_mid_batch_rolls_back_in_release() {
    use pf_kvcache::KvCacheError;

    let pools = [
        KvPool::new(100),
        KvPool::paged(100, 4),
        KvPool::contiguous(1_000),
    ];
    for mut pool in pools {
        pool.allocate(1, 10, 100).unwrap();
        pool.allocate(2, 20, 100).unwrap();
        let before = snapshot(&pool);
        assert_eq!(
            pool.extend_each(&[1, 9, 2]),
            Err(KvCacheError::UnknownRequest { req: 9 }),
            "{pool:?}"
        );
        assert_eq!(snapshot(&pool), before, "{pool:?}");
        // Request 1 was not left grown: only request 2's tokens remain.
        pool.release(1);
        assert_eq!(pool.logical_tokens(), 20, "{pool:?}");
    }
    // Misuse outranks shortage: a batch that is both short and names an
    // unknown id reports the id.
    let mut full = KvPool::new(30);
    full.allocate(1, 10, 10).unwrap();
    full.allocate(2, 20, 20).unwrap();
    assert_eq!(
        full.extend_each(&[1, 9, 2]),
        Err(KvCacheError::UnknownRequest { req: 9 })
    );
    assert_eq!(snapshot(&full), (30, 30, 30, 2));
}

#[test]
#[should_panic(expected = "unknown request")]
#[cfg(debug_assertions)]
fn unknown_id_mid_batch_panics_in_debug() {
    let mut pool = KvPool::new(100);
    pool.allocate(1, 10, 10).unwrap();
    pool.allocate(2, 20, 20).unwrap();
    let _ = pool.extend_each(&[1, 9, 2]);
}

/// A pool driven through `extend_each` beside a fresh pool of the same
/// layout that only ever grows one request at a time, so it never holds a
/// resolution of the decode batch. Every call is checked against the twin:
/// used and logical tokens, peak, live requests and released sizes.
struct Twin {
    batched: KvPool,
    reference: KvPool,
}

impl Twin {
    fn new(pool: KvPool) -> Self {
        Twin {
            reference: pool.clone(),
            batched: pool,
        }
    }

    fn check(&self, what: &str) {
        assert_eq!(
            snapshot(&self.batched),
            snapshot(&self.reference),
            "{what}: {:?}",
            self.batched
        );
    }

    fn allocate(&mut self, req: u64, tokens: u64) -> bool {
        let batched = self.batched.allocate(req, tokens, tokens + RESERVE_PAD);
        let reference = self.reference.allocate(req, tokens, tokens + RESERVE_PAD);
        assert_eq!(batched, reference, "allocate {req}");
        self.check("allocate");
        batched.is_ok()
    }

    fn release(&mut self, req: u64) -> u64 {
        let freed = self.batched.release(req);
        assert_eq!(freed, self.reference.release(req), "release {req}");
        self.check("release");
        freed
    }

    /// One decode step: `extend_each` on one side, the shortfall check and
    /// a per-request `extend` on the other.
    fn step(&mut self, ids: &[u64]) -> Result<(), pf_kvcache::KvCacheError> {
        let shortfall = self.reference.extension_shortfall(ids);
        let result = self.batched.extend_each(ids);
        match shortfall {
            Ok(0) => {
                for &r in ids {
                    self.reference.extend(r, 1).expect("zero shortfall");
                }
                assert_eq!(result, Ok(()), "step {ids:?}");
            }
            Ok(_) => {
                let error = result.expect_err("a shortfall refuses the step");
                assert!(error.alloc().is_some(), "step {ids:?}: {error}");
            }
            Err(error) => assert_eq!(result, Err(error), "step {ids:?}"),
        }
        self.check("step");
        result
    }
}

fn layouts(capacity: u64) -> [KvPool; 3] {
    [
        KvPool::new(capacity),
        KvPool::paged(capacity, 4),
        KvPool::contiguous(capacity),
    ]
}

#[test]
fn extend_each_follows_membership_changes() {
    for pool in layouts(20_000) {
        let mut twin = Twin::new(pool);
        for r in 1..=3 {
            assert!(twin.allocate(r, 10 * r));
        }
        twin.step(&[1, 2, 3]).unwrap();
        twin.step(&[1, 2, 3]).unwrap();
        // A release, then a new id that takes the freed entry over.
        assert!(twin.release(2) > 0);
        assert!(twin.allocate(4, 7));
        twin.step(&[1, 3, 4]).unwrap();
        twin.step(&[1, 3, 4]).unwrap();
        // The same list after an unrelated allocate, then an unrelated
        // release.
        assert!(twin.allocate(5, 5));
        twin.step(&[1, 3, 4]).unwrap();
        assert!(twin.release(5) > 0);
        twin.step(&[1, 3, 4]).unwrap();
        // Different lists of the same length: other ids, another order.
        assert!(twin.allocate(6, 9));
        twin.step(&[1, 4, 6]).unwrap();
        twin.step(&[6, 4, 1]).unwrap();
        twin.step(&[1, 3, 4]).unwrap();
        // A release of an unknown id changes nothing, and the list still
        // grows the same entries.
        assert_eq!(twin.release(99), 0);
        twin.step(&[1, 3, 4]).unwrap();
        for r in [1, 3, 4, 6] {
            assert!(twin.release(r) > 0);
        }
        assert_eq!(twin.batched.n_requests(), 0);
    }
}

#[test]
fn extend_each_rolls_back_a_shortage_of_a_resolved_list() {
    // Three requests that leave a token pool one slot free: a step of all
    // three is two short.
    let mut twin = Twin::new(KvPool::new(42));
    assert!(twin.allocate(1, 10));
    assert!(twin.allocate(2, 10));
    twin.step(&[1, 2]).unwrap();
    assert!(twin.allocate(3, 16));
    twin.step(&[1, 2, 3]).unwrap();
    assert_eq!(twin.batched.available_tokens(), 1);
    // Refused twice, the second time on the list resolved by the first.
    assert!(twin.step(&[1, 2, 3]).is_err());
    assert!(twin.step(&[1, 2, 3]).is_err());
    assert_eq!(twin.release(3), 17);
    twin.step(&[1, 2]).unwrap();
    // In a paged pool only the requests whose last block is full need a
    // new one: 1 and 3 here, 8 slots against 4 free.
    let mut paged = Twin::new(KvPool::paged(24, 4));
    assert!(paged.allocate(1, 4));
    assert!(paged.allocate(2, 6));
    assert!(paged.allocate(3, 8));
    assert!(paged.step(&[1, 2, 3]).is_err());
    paged.step(&[2]).unwrap();
    assert_eq!(paged.release(1), 4);
    // 2 reaches 10 of 12 slots and 3 fills its 12; then 3 is short.
    for _ in 0..4 {
        paged.step(&[2, 3]).unwrap();
    }
    assert_eq!(paged.batched.available_tokens(), 0);
    assert!(paged.step(&[2, 3]).is_err());
}

/// An unknown id rolls back the ids before it and leaves no resolution
/// behind. Release builds only: debug builds panic on the misuse.
#[test]
#[cfg(not(debug_assertions))]
fn extend_each_rolls_back_an_unknown_id_of_a_resolved_list() {
    use pf_kvcache::KvCacheError;

    for pool in layouts(10_000) {
        let mut twin = Twin::new(pool);
        assert!(twin.allocate(1, 10));
        assert!(twin.allocate(2, 20));
        twin.step(&[1, 2]).unwrap();
        twin.release(2);
        // The resolved list names a released id now.
        assert_eq!(
            twin.step(&[1, 2]),
            Err(KvCacheError::UnknownRequest { req: 2 })
        );
        assert_eq!(
            twin.step(&[1, 9]),
            Err(KvCacheError::UnknownRequest { req: 9 })
        );
        assert!(twin.allocate(2, 5));
        twin.step(&[1, 2]).unwrap();
        twin.step(&[1, 2]).unwrap();
    }
}

#[derive(Debug, Clone)]
enum TwinOp {
    Alloc(u64, u64),
    Release(u64),
    /// One decode step over the live requests whose id bit is set.
    Step(u64),
    /// The previous step's list again.
    Repeat,
}

fn twin_op_strategy() -> impl Strategy<Value = TwinOp> {
    prop_oneof![
        (0u64..8, 1u64..100).prop_map(|(r, t)| TwinOp::Alloc(r, t)),
        (0u64..8).prop_map(TwinOp::Release),
        (0u64..256).prop_map(TwinOp::Step),
        Just(TwinOp::Repeat),
        Just(TwinOp::Repeat),
    ]
}

/// Replays `ops` on a twin; a repeated list keeps naming live ids only.
fn replay_twin(pool: KvPool, ops: &[TwinOp]) {
    let mut twin = Twin::new(pool);
    let mut live: BTreeSet<u64> = BTreeSet::new();
    let mut last: Vec<u64> = Vec::new();
    for op in ops {
        match *op {
            TwinOp::Alloc(r, t) => {
                if !live.contains(&r) && twin.allocate(r, t) {
                    live.insert(r);
                }
            }
            TwinOp::Release(r) => {
                twin.release(r);
                live.remove(&r);
            }
            TwinOp::Step(mask) => {
                last = (live.iter().copied())
                    .filter(|r| mask >> r & 1 == 1)
                    .collect();
                let _ = twin.step(&last);
            }
            TwinOp::Repeat => {
                last.retain(|r| live.contains(r));
                let _ = twin.step(&last);
            }
        }
    }
}

proptest! {
    #[test]
    fn extend_each_matches_a_fresh_pool_across_membership_changes(
        ops in proptest::collection::vec(twin_op_strategy(), 0..MAX_OPS),
        block_size in 1u64..9,
    ) {
        replay_twin(KvPool::new(300), &ops);
        replay_twin(KvPool::paged(300, block_size), &ops);
        replay_twin(KvPool::contiguous(4 * RESERVE_PAD), &ops);
    }
}
