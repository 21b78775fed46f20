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
