//! The one KV-cache allocator: a pool of fixed-size blocks.

#![expect(
    clippy::disallowed_types,
    reason = "the `requests` map is key-addressed only (get/insert/remove/contains_key/len) and hashes ids with `IdHasher`'s one multiply; nothing iterates it, so its order cannot reach events or reports, and the slots it maps to come from the pool's own free list, not from the map's layout"
)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{AllocError, KvCacheError, KvCacheManager};

/// Hasher for the request ids keying [`KvPool`]'s map: one multiply by an
/// odd constant. Ids are dense and sequential, so the identity would leave
/// hashbrown's tag bits (the hash's top bits) nearly constant; the multiply
/// carries the low bits up, and being a bijection on every low-bit window
/// it still sends consecutive ids to distinct buckets. Unlike SipHash it
/// does not resist ids chosen to collide; the ids come from the workload
/// the simulator is given, and colliding ids could only slow the map,
/// never change what a lookup returns. Only `write_u64` is on the hot
/// path; `write` folds arbitrary bytes FNV-style for completeness.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A request's stored tokens and the slots it holds.
#[derive(Debug, Clone, Copy)]
struct Entry {
    logical: u64,
    held: u64,
}

/// The id list of the last [`KvPool::extend_each`] and the entry index of
/// each id, kept until the next `allocate` or `release`.
#[derive(Debug, Clone, Default)]
struct Resolution {
    ids: Vec<u64>,
    slots: Vec<u32>,
}

/// A KV-cache pool of `block_size`-slot blocks that may reserve each
/// request's maximum length up front. The crate docs give its layouts and
/// the slots a request holds.
///
/// A decode step lists the same ids step after step until the batch
/// changes, so `extend_each` resolves the list to entry indices once and
/// reuses them while the list is unchanged; every `allocate` and `release`
/// drops the resolution.
#[derive(Debug, Clone)]
pub struct KvPool {
    block_size: u64,
    reserving: bool,
    capacity: u64,
    used: u64,
    logical: u64,
    peak: u64,
    /// Request id → index into `entries`.
    requests: HashMap<u64, u32, BuildHasherDefault<IdHasher>>,
    entries: Vec<Entry>,
    /// Indices of released `entries`, reused by the next `allocate`.
    free: Vec<u32>,
    resolution: Resolution,
}

impl KvPool {
    pub(crate) fn with_layout(capacity: u64, block_size: u64, reserving: bool) -> Self {
        assert!(block_size > 0, "block size must be positive");
        KvPool {
            block_size,
            reserving,
            capacity: capacity / block_size * block_size,
            used: 0,
            logical: 0,
            peak: 0,
            requests: HashMap::default(),
            entries: Vec::new(),
            free: Vec::new(),
            resolution: Resolution::default(),
        }
    }

    /// Resolves `requests` to entry indices unless the resolution already
    /// holds exactly this list. Returns the first unknown id, with the
    /// indices of the ids before it resolved and the list not kept.
    fn resolve(&mut self, requests: &[u64]) -> Option<u64> {
        let Resolution { ids, slots } = &mut self.resolution;
        if ids.as_slice() == requests {
            debug_assert!(
                (ids.iter().zip(slots.iter()))
                    .all(|(id, slot)| self.requests.get(id) == Some(slot)),
                "stale resolution of the decode batch"
            );
            return None;
        }
        ids.clear();
        slots.clear();
        for &req in requests {
            match self.requests.get(&req) {
                Some(&slot) => slots.push(slot),
                None => return Some(req),
            }
        }
        ids.extend_from_slice(requests);
        None
    }

    /// Drops the resolution after a change to the entries' ids.
    fn forget_resolution(&mut self) {
        self.resolution.ids.clear();
        self.resolution.slots.clear();
    }
}

/// Undoes one token of `extend_each` growth on `slots`; a reservation stays
/// held.
fn shrink_each(entries: &mut [Entry], block_size: u64, reserving: bool, slots: &[u32]) {
    for &slot in slots {
        let entry = &mut entries[slot as usize];
        entry.logical -= 1;
        entry.held = slots_for(block_size, reserving, entry.logical, entry.held);
    }
}

/// Slots a request of `logical` tokens holds in a pool of `block_size`
/// blocks that reserves `reserve_total` up front when `reserving`.
fn slots_for(block_size: u64, reserving: bool, logical: u64, reserve_total: u64) -> u64 {
    let blocks = logical.div_ceil(block_size) * block_size;
    blocks.max(if reserving { reserve_total } else { 0 })
}

fn unknown(req: u64) -> KvCacheError {
    debug_assert!(false, "unknown request {req}");
    KvCacheError::UnknownRequest { req }
}

fn outgrown(req: u64, entry: &Entry, tokens: u64) -> KvCacheError {
    debug_assert!(false, "request {req} grew past its reservation");
    KvCacheError::Alloc(AllocError {
        requested: tokens,
        available: entry.held - entry.logical,
    })
}

impl KvCacheManager for KvPool {
    fn capacity_tokens(&self) -> u64 {
        self.capacity
    }

    fn used_tokens(&self) -> u64 {
        self.used
    }

    fn logical_tokens(&self) -> u64 {
        self.logical
    }

    fn can_admit(&self, tokens: u64, reserve_total: u64) -> bool {
        slots_for(self.block_size, self.reserving, tokens, reserve_total) <= self.available_tokens()
    }

    fn allocate(&mut self, req: u64, logical: u64, reserve_total: u64) -> Result<(), AllocError> {
        assert!(
            !self.requests.contains_key(&req),
            "request {req} already allocated"
        );
        let held = slots_for(self.block_size, self.reserving, logical, reserve_total);
        if held > self.available_tokens() {
            return Err(AllocError {
                requested: if self.reserving { held } else { logical },
                available: self.available_tokens(),
            });
        }
        self.forget_resolution();
        let entry = Entry { logical, held };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.entries.len()).expect("at most 2^32 live requests");
                self.entries.push(entry);
                slot
            }
        };
        self.requests.insert(req, slot);
        self.used += held;
        self.logical += logical;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    fn extend(&mut self, req: u64, tokens: u64) -> Result<(), KvCacheError> {
        let (available, block_size) = (self.available_tokens(), self.block_size);
        let &slot = self.requests.get(&req).ok_or_else(|| unknown(req))?;
        let entry = &mut self.entries[slot as usize];
        let logical = entry.logical + tokens;
        let held = match self.reserving {
            false => logical.div_ceil(block_size) * block_size,
            true if logical <= entry.held => entry.held,
            true => return Err(outgrown(req, entry, tokens)),
        };
        let extra = held - entry.held;
        if extra > available {
            return Err(KvCacheError::Alloc(AllocError {
                requested: tokens,
                available,
            }));
        }
        *entry = Entry { logical, held };
        self.used += extra;
        self.logical += tokens;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    fn release(&mut self, req: u64) -> u64 {
        let Some(slot) = self.requests.remove(&req) else {
            return 0;
        };
        self.forget_resolution();
        self.free.push(slot);
        let entry = self.entries[slot as usize];
        self.used -= entry.held;
        self.logical -= entry.logical;
        entry.held
    }

    fn extension_shortfall(&self, requests: &[u64]) -> Result<u64, KvCacheError> {
        let mut needed = 0;
        for &req in requests {
            let &slot = self.requests.get(&req).ok_or_else(|| unknown(req))?;
            let entry = &self.entries[slot as usize];
            // A full request needs a new block; a reservation is prepaid.
            if entry.logical == entry.held && !self.reserving {
                needed += self.block_size;
            }
        }
        Ok(needed.saturating_sub(self.available_tokens()))
    }

    /// One pass over the resolved entries (no map probe while the list is
    /// unchanged): grow each entry and count the new blocks, then check
    /// them against the free slots once. An unknown id, an outgrown
    /// reservation or a shortage rolls back the grown entries; misuse
    /// outranks shortage, and the first misuse in list order is reported.
    fn extend_each(&mut self, requests: &[u64]) -> Result<(), KvCacheError> {
        let unknown_id = self.resolve(requests);
        let (block_size, reserving) = (self.block_size, self.reserving);
        let slots = &self.resolution.slots;
        let mut extra = 0;
        for (i, &slot) in slots.iter().enumerate() {
            let entry = &mut self.entries[slot as usize];
            if entry.logical < entry.held {
                entry.logical += 1;
            } else if !reserving {
                entry.logical += 1;
                entry.held += block_size;
                extra += block_size;
            } else {
                let error = outgrown(requests[i], entry, 1);
                shrink_each(&mut self.entries, block_size, reserving, &slots[..i]);
                return Err(error);
            }
        }
        if let Some(req) = unknown_id {
            shrink_each(&mut self.entries, block_size, reserving, slots);
            self.forget_resolution();
            return Err(unknown(req));
        }
        let available = self.available_tokens();
        if extra > available {
            shrink_each(&mut self.entries, block_size, reserving, slots);
            return Err(KvCacheError::Alloc(AllocError {
                requested: requests.len() as u64,
                available,
            }));
        }
        self.used += extra;
        self.logical += requests.len() as u64;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    fn peak_used_tokens(&self) -> u64 {
        self.peak
    }

    fn n_requests(&self) -> usize {
        self.requests.len()
    }
}
