//! Request specifications.

use std::fmt;

use pf_metrics::SimDuration;

/// Opaque request identifier, unique within one workload/simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl RequestId {
    /// Raw numeric value (used as the KV-cache key).
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

impl From<u64> for RequestId {
    fn from(v: u64) -> Self {
        RequestId(v)
    }
}

/// Opaque identifier of a shared prompt prefix (a multi-turn session's
/// conversation, a shared system prompt). Requests declaring the same
/// prefix id repeat each other's leading prompt tokens, which a KV-aware
/// router can exploit by steering them to the instance that still caches
/// those tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrefixId(pub u64);

impl PrefixId {
    /// Raw numeric value (used as the prefix-cache key).
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PrefixId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prefix#{}", self.0)
    }
}

impl From<u64> for PrefixId {
    fn from(v: u64) -> Self {
        PrefixId(v)
    }
}

/// Static description of one inference request.
///
/// `true_output_len` is simulation ground truth: the number of tokens the
/// model *will* generate before emitting EOS. Schedulers never see it (only
/// the oracle "theoretical optimum" baseline, `SchedulerConfig::Oracle` in
/// pf-core, does, via a dedicated oracle channel); they see
/// `max_new_tokens`, the user-configured generation cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpec {
    /// Unique id.
    pub id: RequestId,
    /// Prompt length in tokens, *including* any image tokens.
    pub input_len: u32,
    /// Ground-truth output length in tokens (EOS position).
    pub true_output_len: u32,
    /// User-configured generation cap (`max_new_tokens`).
    pub max_new_tokens: u32,
    /// Vision-encoder tokens contained in `input_len` (0 for text-only).
    pub image_tokens: u32,
    /// Shared prompt prefix this request extends (`None` for
    /// prefix-free traffic). After the request finishes, the serving
    /// instance holds the whole conversation's KV under this id.
    pub prefix_id: Option<PrefixId>,
    /// Leading prompt tokens (contained in `input_len`) that repeat the
    /// declared prefix — the part a prefix-cache hit can skip. Zero for
    /// the first request of a session (nothing cached yet).
    pub prefix_len: u32,
    /// Optional service deadline measured from arrival: a request still
    /// queued past this — waiting for its first token, or preempted and
    /// waiting for readmission — is cancelled by the serving engine. Its
    /// queue slot is reclaimed and it counts as `timed_out` in reports
    /// instead of completing. `None` waits forever.
    pub deadline: Option<SimDuration>,
    /// Shared system prompt (tenant identity) this request's leading
    /// tokens repeat, or `None` for tenant-free traffic. Unlike
    /// `prefix_id` — which names one session's conversation — every
    /// session of the same tenant shares this id, so block-granular
    /// caches can reuse the leading blocks *across* sessions.
    pub system_prompt_id: Option<u64>,
    /// Leading prompt tokens (contained in `input_len`, and in
    /// `prefix_len` once a session has history) occupied by the shared
    /// system prompt. Zero when `system_prompt_id` is `None`.
    pub system_prompt_len: u32,
}

impl RequestSpec {
    /// Creates a text-only request.
    ///
    /// # Panics
    ///
    /// Panics if `true_output_len` is zero or exceeds `max_new_tokens`.
    pub fn new(
        id: impl Into<RequestId>,
        input_len: u32,
        true_output_len: u32,
        max_new_tokens: u32,
    ) -> Self {
        assert!(
            true_output_len > 0,
            "a request must produce at least one token"
        );
        assert!(
            true_output_len <= max_new_tokens,
            "true output {true_output_len} exceeds max_new_tokens {max_new_tokens}"
        );
        RequestSpec {
            id: id.into(),
            input_len,
            true_output_len,
            max_new_tokens,
            image_tokens: 0,
            prefix_id: None,
            prefix_len: 0,
            deadline: None,
            system_prompt_id: None,
            system_prompt_len: 0,
        }
    }

    /// Attaches a cancellation deadline: a request still queued
    /// `deadline` after arrival — never started, or preempted and not
    /// readmitted — is dropped by the serving engine (client gave up /
    /// gateway timeout).
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero (the request could never be served).
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "a zero deadline can never be met");
        self.deadline = Some(deadline);
        self
    }

    /// Declares the shared prefix this request extends: its first
    /// `prefix_len` prompt tokens repeat prefix `prefix_id` (session-chat
    /// builder; see [`crate::datasets::multi_turn_chat`]).
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > input_len` (the prefix is part of the
    /// prompt, not extra tokens).
    pub fn with_prefix(mut self, prefix_id: impl Into<PrefixId>, prefix_len: u32) -> Self {
        assert!(
            prefix_len <= self.input_len,
            "prefix length {prefix_len} exceeds input length {}",
            self.input_len
        );
        self.prefix_id = Some(prefix_id.into());
        self.prefix_len = prefix_len;
        self
    }

    /// Creates a multimodal request whose prompt embeds `image_tokens`
    /// vision tokens (already counted in `input_len`).
    ///
    /// # Panics
    ///
    /// Panics if `image_tokens > input_len` or the output constraints of
    /// [`RequestSpec::new`] are violated.
    pub fn new_multimodal(
        id: impl Into<RequestId>,
        input_len: u32,
        image_tokens: u32,
        true_output_len: u32,
        max_new_tokens: u32,
    ) -> Self {
        assert!(
            image_tokens <= input_len,
            "image tokens {image_tokens} exceed input length {input_len}"
        );
        let mut spec = RequestSpec::new(id, input_len, true_output_len, max_new_tokens);
        spec.image_tokens = image_tokens;
        spec
    }

    /// Declares the shared system prompt occupying this request's first
    /// `len` prompt tokens. All requests carrying the same
    /// `system_prompt_id` (across sessions and tenants' users alike)
    /// share those leading tokens verbatim, which block-granular KV
    /// caches exploit even when the sessions themselves are unrelated.
    ///
    /// # Panics
    ///
    /// Panics if `len > input_len`.
    pub fn with_system_prompt(mut self, system_prompt_id: u64, len: u32) -> Self {
        assert!(
            len <= self.input_len,
            "system prompt length {len} exceeds input length {}",
            self.input_len
        );
        self.system_prompt_id = Some(system_prompt_id);
        self.system_prompt_len = len;
        self
    }

    /// Ground-truth total KV footprint at completion (input + true output).
    pub fn true_total_len(&self) -> u32 {
        self.input_len + self.true_output_len
    }

    /// Leading prompt tokens whose content is *predictable at routing
    /// time* from the request's declared identities: the shared system
    /// prompt plus, for session traffic, the repeated conversation
    /// history. Tokens past this (this turn's fresh user text) cannot be
    /// cached anywhere yet.
    pub fn matchable_shared_len(&self) -> u64 {
        let mut len = 0u32;
        if self.system_prompt_id.is_some() {
            len = self.system_prompt_len;
        }
        if self.prefix_id.is_some() {
            len = len.max(self.prefix_len);
        }
        u64::from(len.min(self.input_len))
    }

    /// Leading tokens of the *finished* conversation (after `generated`
    /// output tokens) whose content the serving instance now holds and a
    /// future request could repeat: the whole conversation for session
    /// traffic, the system prompt alone for sessionless tenant traffic.
    fn storable_shared_len(&self, generated: u32) -> u64 {
        if self.prefix_id.is_some() {
            u64::from(self.input_len) + u64::from(generated)
        } else if self.system_prompt_id.is_some() {
            u64::from(self.system_prompt_len)
        } else {
            0
        }
    }

    /// Content word of shared block `index` (spanning token positions
    /// `[index * block_tokens, (index + 1) * block_tokens)`), or `None`
    /// when the block is not fully inside the first `shared_len` tokens
    /// or carries no shareable identity. Blocks fully inside the system
    /// prompt derive from `(system_prompt_id, index)` — identical across
    /// every session of the tenant — and later blocks derive from
    /// `(prefix_id, index)`, identical across the turns of one session.
    fn shared_block_content(&self, index: u64, block_tokens: u32, shared_len: u64) -> Option<u64> {
        const SYS_BLOCK_TAG: u64 = 0x5359_5350_524f_4d50;
        const SESSION_BLOCK_TAG: u64 = 0x5345_5353_494f_4e21;
        let end = (index + 1) * u64::from(block_tokens);
        if end > shared_len {
            return None;
        }
        if end <= u64::from(self.system_prompt_len) {
            if let Some(sp) = self.system_prompt_id {
                return Some(crate::rng::derive_seed(
                    crate::rng::derive_seed(SYS_BLOCK_TAG, sp),
                    index,
                ));
            }
        }
        let prefix = self.prefix_id?;
        Some(crate::rng::derive_seed(
            crate::rng::derive_seed(SESSION_BLOCK_TAG, prefix.raw()),
            index,
        ))
    }

    /// Content words of the complete shared blocks coverable at routing
    /// and admission time (see
    /// [`matchable_shared_len`](RequestSpec::matchable_shared_len)), in
    /// prompt order. Chaining these through `pf_kvcache::block_hash`
    /// yields the block hashes a KV-aware router probes.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    pub fn matchable_blocks(&self, block_tokens: u32) -> SharedBlocks<'_> {
        assert!(block_tokens > 0, "block size must be positive");
        SharedBlocks {
            spec: self,
            block_tokens,
            shared_len: self.matchable_shared_len(),
            next: 0,
        }
    }

    /// Content words of the complete shared blocks the serving instance
    /// holds once the request finished with `generated` output tokens: the
    /// whole conversation for session traffic, the system prompt alone for
    /// sessionless tenant traffic.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    pub fn storable_blocks(&self, block_tokens: u32, generated: u32) -> SharedBlocks<'_> {
        assert!(block_tokens > 0, "block size must be positive");
        SharedBlocks {
            spec: self,
            block_tokens,
            shared_len: self.storable_shared_len(generated),
            next: 0,
        }
    }
}

/// Iterator over the content words of a request's shared token blocks
/// (see [`RequestSpec::matchable_blocks`]). Allocation-free, so routers
/// and engines can walk block chains on their hot paths.
#[derive(Debug, Clone)]
pub struct SharedBlocks<'a> {
    spec: &'a RequestSpec,
    block_tokens: u32,
    shared_len: u64,
    next: u64,
}

impl Iterator for SharedBlocks<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let content =
            self.spec
                .shared_block_content(self.next, self.block_tokens, self.shared_len)?;
        self.next += 1;
        Some(content)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let r = RequestSpec::new(3u64, 100, 50, 512);
        assert_eq!(r.id, RequestId(3));
        assert_eq!(r.true_total_len(), 150);
        assert_eq!(r.max_new_tokens, 512);
        assert_eq!(r.image_tokens, 0);
        assert_eq!(r.prefix_id, None);
        assert_eq!(r.prefix_len, 0);
        assert_eq!(r.deadline, None);
    }

    #[test]
    fn with_deadline_marks_cancellable() {
        let r = RequestSpec::new(3u64, 100, 50, 512).with_deadline(SimDuration::from_secs(30));
        assert_eq!(r.deadline, Some(SimDuration::from_secs(30)));
    }

    #[test]
    #[should_panic(expected = "zero deadline")]
    fn zero_deadline_rejected() {
        let _ = RequestSpec::new(1u64, 10, 5, 100).with_deadline(SimDuration::ZERO);
    }

    #[test]
    fn with_prefix_marks_session() {
        let r = RequestSpec::new(3u64, 100, 50, 512).with_prefix(7u64, 80);
        assert_eq!(r.prefix_id, Some(PrefixId(7)));
        assert_eq!(r.prefix_len, 80);
        assert_eq!(PrefixId(7).to_string(), "prefix#7");
        assert_eq!(PrefixId(7).raw(), 7);
    }

    #[test]
    #[should_panic(expected = "exceeds input length")]
    fn prefix_beyond_input_rejected() {
        let _ = RequestSpec::new(1u64, 10, 5, 100).with_prefix(1u64, 11);
    }

    #[test]
    fn multimodal_counts_image_tokens() {
        let r = RequestSpec::new_multimodal(1u64, 600, 576, 30, 256);
        assert_eq!(r.image_tokens, 576);
        assert_eq!(r.input_len, 600);
    }

    #[test]
    fn shared_blocks_match_across_sessions_and_turns() {
        let block = 16;
        // Two first-turn sessions of the same tenant (64-token system
        // prompt): their matchable blocks are exactly the system prompt
        // and identical, despite distinct sessions.
        let a = RequestSpec::new(1u64, 100, 20, 64)
            .with_system_prompt(9, 64)
            .with_prefix(100u64, 0);
        let b = RequestSpec::new(2u64, 120, 20, 64)
            .with_system_prompt(9, 64)
            .with_prefix(200u64, 0);
        let a_blocks: Vec<u64> = a.matchable_blocks(block).collect();
        let b_blocks: Vec<u64> = b.matchable_blocks(block).collect();
        assert_eq!(a_blocks.len(), 4);
        assert_eq!(a_blocks, b_blocks);
        // The finished first turn stores the whole conversation; the
        // second turn of the same session matches it bit for bit.
        let stored: Vec<u64> = a.storable_blocks(block, 20).collect();
        assert_eq!(stored.len(), 7, "120-token conversation, complete blocks");
        assert_eq!(stored[..4], a_blocks[..]);
        let t2 = RequestSpec::new(3u64, 160, 20, 64)
            .with_system_prompt(9, 64)
            .with_prefix(100u64, 120);
        let matchable: Vec<u64> = t2.matchable_blocks(block).collect();
        assert_eq!(matchable, stored);
        // A different tenant diverges on the very first block.
        let c = RequestSpec::new(4u64, 100, 20, 64).with_system_prompt(8, 64);
        assert_ne!(c.matchable_blocks(block).next(), a_blocks.first().copied());
        // Sessionless tenant traffic stores only the system prompt.
        assert_eq!(c.storable_blocks(block, 50).count(), 4);
        // Prefix-free, tenant-free traffic shares nothing.
        let plain = RequestSpec::new(5u64, 100, 20, 64);
        assert_eq!(plain.matchable_blocks(block).count(), 0);
        assert_eq!(plain.storable_blocks(block, 50).count(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds input length")]
    fn system_prompt_beyond_input_rejected() {
        let _ = RequestSpec::new(1u64, 10, 5, 100).with_system_prompt(1, 11);
    }

    #[test]
    fn display_id() {
        assert_eq!(RequestId(9).to_string(), "req#9");
        assert_eq!(RequestId(9).raw(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_output_rejected() {
        let _ = RequestSpec::new(1u64, 10, 0, 100);
    }

    #[test]
    #[should_panic(expected = "exceeds max_new_tokens")]
    fn output_beyond_cap_rejected() {
        let _ = RequestSpec::new(1u64, 10, 200, 100);
    }

    #[test]
    #[should_panic(expected = "exceed input length")]
    fn image_tokens_beyond_input_rejected() {
        let _ = RequestSpec::new_multimodal(1u64, 100, 101, 10, 100);
    }
}
