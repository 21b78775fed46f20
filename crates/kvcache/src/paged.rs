//! vLLM's PagedAttention: the [`KvPool`] at a block size above 1.

use crate::KvPool;

/// The paged [`KvPool`] under its earlier name; [`KvPool::paged`] builds
/// one:
///
/// ```
/// use pf_kvcache::{KvCacheManager, PagedPool};
///
/// let mut pool = PagedPool::paged(64, 16);
/// pool.allocate(1, 17, 17)?; // needs 2 blocks = 32 physical slots
/// assert_eq!(pool.logical_tokens(), 17);
/// assert_eq!(pool.used_tokens(), 32);
/// assert_eq!(pool.overhead_tokens(), 15);
/// # Ok::<(), pf_kvcache::KvCacheError>(())
/// ```
pub type PagedPool = KvPool;

impl KvPool {
    /// A pool of `capacity` slots in `block_size`-slot blocks, rounded
    /// down to whole blocks. Only a request's last block is partly full.
    /// Panics if `block_size` is zero.
    pub fn paged(capacity: u64, block_size: u64) -> Self {
        KvPool::with_layout(capacity, block_size, false)
    }
}

#[cfg(test)]
mod tests {
    use crate::{KvCacheManager, KvPool};

    #[test]
    fn capacity_rounds_down_to_blocks() {
        let p = KvPool::paged(100, 16);
        assert_eq!(p.capacity_tokens(), 96);
        assert_eq!(p.available_tokens(), 6 * 16);
    }

    #[test]
    fn fragmentation_confined_to_last_block() {
        let mut p = KvPool::paged(160, 16);
        p.allocate(1, 1, 1).unwrap();
        assert_eq!(p.used_tokens(), 16);
        assert_eq!(p.overhead_tokens(), 15);
        // Filling the block adds no physical usage.
        p.extend(1, 15).unwrap();
        assert_eq!(p.used_tokens(), 16);
        assert_eq!(p.overhead_tokens(), 0);
        // One more token starts a new block.
        p.extend(1, 1).unwrap();
        assert_eq!(p.used_tokens(), 32);
    }

    #[test]
    fn extend_fails_only_when_new_block_needed() {
        let mut p = KvPool::paged(16, 16);
        p.allocate(1, 10, 10).unwrap();
        p.extend(1, 6).unwrap(); // fills the single block
        let err = p.extend(1, 1).unwrap_err();
        assert_eq!(err.alloc().expect("capacity error").available, 0);
        assert_eq!(p.logical_tokens(), 16);
    }

    #[test]
    fn release_returns_block_multiple() {
        let mut p = KvPool::paged(64, 16);
        p.allocate(1, 20, 20).unwrap();
        assert_eq!(p.release(1), 32);
        assert_eq!(p.used_tokens(), 0);
        assert_eq!(p.logical_tokens(), 0);
    }

    #[test]
    fn can_admit_in_blocks() {
        let mut p = KvPool::paged(32, 16);
        p.allocate(1, 17, 17).unwrap(); // consumes both blocks
        assert!(!p.can_admit(1, 1));
        p.release(1);
        assert!(p.can_admit(32, 32));
        assert!(!p.can_admit(33, 33));
    }

    #[test]
    fn zero_token_allocate() {
        let mut p = KvPool::paged(32, 16);
        p.allocate(1, 0, 0).unwrap();
        assert_eq!(p.used_tokens(), 0);
        assert_eq!(p.n_requests(), 1);
        assert_eq!(p.release(1), 0);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let _ = KvPool::paged(16, 0);
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    #[cfg(debug_assertions)]
    fn extend_unknown_panics_in_debug() {
        let mut p = KvPool::paged(32, 16);
        let _ = p.extend(9, 1);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn physical_geq_logical_and_blocks_exact(
                allocs in proptest::collection::vec((1u64..6, 1u64..100), 1..20),
                block_size in 1u64..32,
            ) {
                let mut p = KvPool::paged(10_000, block_size);
                let mut next_req = 0u64;
                for (_, tokens) in &allocs {
                    if p.allocate(next_req, *tokens, *tokens).is_ok() {
                        next_req += 1;
                    }
                }
                prop_assert!(p.used_tokens() >= p.logical_tokens());
                // Overhead strictly less than one block per request.
                prop_assert!(p.overhead_tokens() < block_size * next_req.max(1));
                // Physical usage is a whole number of blocks.
                prop_assert_eq!(p.used_tokens() % block_size, 0);
            }

            #[test]
            fn release_all_restores_empty(
                sizes in proptest::collection::vec(1u64..200, 1..30),
                block_size in 1u64..64,
            ) {
                let mut p = KvPool::paged(100_000, block_size);
                for (i, s) in sizes.iter().enumerate() {
                    p.allocate(i as u64, *s, *s).unwrap();
                }
                for i in 0..sizes.len() {
                    p.release(i as u64);
                }
                prop_assert_eq!(p.used_tokens(), 0);
                prop_assert_eq!(p.logical_tokens(), 0);
                prop_assert_eq!(p.n_requests(), 0);
            }
        }
    }
}
