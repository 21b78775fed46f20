//! Block-granularity KV-cache pool (vLLM PagedAttention).

#![expect(
    clippy::disallowed_types,
    reason = "the `requests` map is key-addressed only (get/insert/remove/contains_key/len); nothing iterates it, so its order cannot reach events or reports"
)]

use std::collections::HashMap;

use crate::{AllocError, KvCacheError, KvCacheManager};

#[derive(Debug, Clone, Copy)]
struct PagedEntry {
    logical: u64,
    blocks: u64,
}

/// Fixed-size block allocator modelling vLLM's PagedAttention.
///
/// Logical tokens are stored in blocks of `block_size` slots; a request's
/// last block may be partially filled, which is the only internal
/// fragmentation. Physical usage is always a multiple of the block size.
///
/// # Example
///
/// ```
/// use pf_kvcache::{KvCacheManager, PagedPool};
///
/// let mut pool = PagedPool::new(64, 16);
/// pool.allocate(1, 17, 17)?; // needs 2 blocks = 32 physical slots
/// assert_eq!(pool.logical_tokens(), 17);
/// assert_eq!(pool.used_tokens(), 32);
/// assert_eq!(pool.overhead_tokens(), 15);
/// # Ok::<(), pf_kvcache::KvCacheError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PagedPool {
    capacity_blocks: u64,
    block_size: u64,
    used_blocks: u64,
    logical: u64,
    peak_blocks: u64,
    requests: HashMap<u64, PagedEntry>,
}

impl PagedPool {
    /// Creates a pool with (at least) `capacity_tokens` slots organized in
    /// `block_size`-token blocks. Capacity rounds *down* to whole blocks,
    /// matching a real allocator that cannot use a partial block.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(capacity_tokens: u64, block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        PagedPool {
            capacity_blocks: capacity_tokens / block_size,
            block_size,
            used_blocks: 0,
            logical: 0,
            peak_blocks: 0,
            requests: HashMap::new(),
        }
    }

    /// Block size in tokens.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    fn free_blocks(&self) -> u64 {
        self.capacity_blocks - self.used_blocks
    }

    fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_size)
    }

    fn bump_peak(&mut self) {
        self.peak_blocks = self.peak_blocks.max(self.used_blocks);
    }
}

impl KvCacheManager for PagedPool {
    fn capacity_tokens(&self) -> u64 {
        self.capacity_blocks * self.block_size
    }

    fn used_tokens(&self) -> u64 {
        self.used_blocks * self.block_size
    }

    fn logical_tokens(&self) -> u64 {
        self.logical
    }

    fn can_admit(&self, tokens: u64, _reserve_total: u64) -> bool {
        self.blocks_for(tokens) <= self.free_blocks()
    }

    fn allocate(&mut self, req: u64, tokens: u64, _reserve_total: u64) -> Result<(), AllocError> {
        assert!(
            !self.requests.contains_key(&req),
            "request {req} already allocated"
        );
        let blocks = self.blocks_for(tokens);
        if blocks > self.free_blocks() {
            return Err(AllocError {
                requested: tokens,
                available: self.free_blocks() * self.block_size,
            });
        }
        self.requests.insert(
            req,
            PagedEntry {
                logical: tokens,
                blocks,
            },
        );
        self.used_blocks += blocks;
        self.logical += tokens;
        self.bump_peak();
        Ok(())
    }

    fn extend(&mut self, req: u64, tokens: u64) -> Result<(), KvCacheError> {
        let free_blocks = self.free_blocks();
        let block_size = self.block_size;
        let Some(entry) = self.requests.get_mut(&req) else {
            debug_assert!(false, "extend of unknown request {req}");
            return Err(KvCacheError::UnknownRequest { req });
        };
        let new_blocks = (entry.logical + tokens).div_ceil(block_size);
        let extra = new_blocks.saturating_sub(entry.blocks);
        if extra > free_blocks {
            return Err(AllocError {
                requested: tokens,
                available: free_blocks * block_size,
            }
            .into());
        }
        entry.logical += tokens;
        entry.blocks = new_blocks;
        self.used_blocks += extra;
        self.logical += tokens;
        self.bump_peak();
        Ok(())
    }

    fn release(&mut self, req: u64) -> u64 {
        match self.requests.remove(&req) {
            Some(entry) => {
                self.used_blocks -= entry.blocks;
                self.logical -= entry.logical;
                entry.blocks * self.block_size
            }
            None => 0,
        }
    }

    fn extension_shortfall(&self, requests: &[u64]) -> Result<u64, KvCacheError> {
        let mut blocks_needed = 0u64;
        for &req in requests {
            let Some(entry) = self.requests.get(&req) else {
                debug_assert!(false, "unknown request {req}");
                return Err(KvCacheError::UnknownRequest { req });
            };
            // A new block is needed exactly when every allocated block is
            // full (including the zero-token, zero-block case).
            if entry.logical == entry.blocks * self.block_size {
                blocks_needed += 1;
            }
        }
        Ok(blocks_needed.saturating_sub(self.free_blocks()) * self.block_size)
    }

    fn peak_used_tokens(&self) -> u64 {
        self.peak_blocks * self.block_size
    }

    fn n_requests(&self) -> usize {
        self.requests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_down_to_blocks() {
        let p = PagedPool::new(100, 16);
        assert_eq!(p.capacity_tokens(), 96);
        assert_eq!(p.free_blocks(), 6);
    }

    #[test]
    fn fragmentation_confined_to_last_block() {
        let mut p = PagedPool::new(160, 16);
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
        let mut p = PagedPool::new(16, 16);
        p.allocate(1, 10, 10).unwrap();
        p.extend(1, 6).unwrap(); // fills the single block
        let err = p.extend(1, 1).unwrap_err();
        assert_eq!(err.alloc().expect("capacity error").available, 0);
        assert_eq!(p.logical_tokens(), 16);
    }

    #[test]
    fn release_returns_block_multiple() {
        let mut p = PagedPool::new(64, 16);
        p.allocate(1, 20, 20).unwrap();
        assert_eq!(p.release(1), 32);
        assert_eq!(p.used_tokens(), 0);
        assert_eq!(p.logical_tokens(), 0);
    }

    #[test]
    fn can_admit_in_blocks() {
        let mut p = PagedPool::new(32, 16);
        p.allocate(1, 17, 17).unwrap(); // consumes both blocks
        assert!(!p.can_admit(1, 1));
        p.release(1);
        assert!(p.can_admit(32, 32));
        assert!(!p.can_admit(33, 33));
    }

    #[test]
    fn zero_token_allocate() {
        let mut p = PagedPool::new(32, 16);
        p.allocate(1, 0, 0).unwrap();
        assert_eq!(p.used_tokens(), 0);
        assert_eq!(p.n_requests(), 1);
        assert_eq!(p.release(1), 0);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let _ = PagedPool::new(16, 0);
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    #[cfg(debug_assertions)]
    fn extend_unknown_panics_in_debug() {
        let mut p = PagedPool::new(32, 16);
        let _ = p.extend(9, 1);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn extend_unknown_errors_in_release() {
        let mut p = PagedPool::new(32, 16);
        assert_eq!(p.extend(9, 1), Err(KvCacheError::UnknownRequest { req: 9 }));
        assert_eq!(
            p.extension_shortfall(&[9]),
            Err(KvCacheError::UnknownRequest { req: 9 })
        );
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
                let mut p = PagedPool::new(10_000, block_size);
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
                let mut p = PagedPool::new(100_000, block_size);
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
