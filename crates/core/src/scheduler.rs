//! The scheduler interface shared by all admission policies.

use std::fmt;

/// Snapshot of one request in the running batch, as visible to a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningRequest {
    /// Engine-assigned id.
    pub id: u64,
    /// Prompt length (`l_p`), including image tokens.
    pub input_len: u32,
    /// Tokens generated so far (`l_t`).
    pub generated: u32,
    /// Generation cap configured for the request.
    pub max_new_tokens: u32,
    /// Ground-truth remaining output tokens. `None` for real schedulers;
    /// `Some` only when the engine runs the oracle ("theoretical optimum")
    /// baseline.
    pub oracle_remaining: Option<u32>,
}

impl RunningRequest {
    /// Tokens currently committed to the KV cache (`l_p + l_t`).
    pub fn committed(&self) -> u64 {
        u64::from(self.input_len) + u64::from(self.generated)
    }

    /// Worst-case remaining output tokens (the generation cap minus what
    /// has been produced, never less than 1 for a still-running request).
    pub fn worst_case_remaining(&self) -> u64 {
        u64::from(self.max_new_tokens.saturating_sub(self.generated).max(1))
    }
}

/// Snapshot of one queued request, as visible to a scheduler.
///
/// `generated > 0` identifies a request that was evicted mid-generation and
/// re-queued: its produced tokens are retained logically and will be
/// re-prefilled on readmission (recompute preemption).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// Engine-assigned id.
    pub id: u64,
    /// Prompt length (`l_p`), including image tokens.
    pub input_len: u32,
    /// Tokens generated before an eviction (0 for fresh requests).
    pub generated: u32,
    /// Generation cap configured for the request.
    pub max_new_tokens: u32,
    /// Ground-truth remaining output tokens (oracle baseline only).
    pub oracle_remaining: Option<u32>,
}

impl QueuedRequest {
    /// Tokens the prefill of this request will commit (`l_p + l_t`).
    pub fn committed_on_admission(&self) -> u64 {
        u64::from(self.input_len) + u64::from(self.generated)
    }

    /// Worst-case remaining output tokens.
    pub fn worst_case_remaining(&self) -> u64 {
        u64::from(self.max_new_tokens.saturating_sub(self.generated).max(1))
    }

    /// The request's state right after its admission prefill, given a
    /// predicted *total* output length: the prefill itself emits the first
    /// post-admission token during a step in which the running batch does
    /// not grow, so future-memory estimates must start from
    /// `(l_p + l_t + 1, remaining − 1)` to stay exact.
    pub fn post_prefill_entry(&self, predicted_total: u32) -> (u64, u64) {
        let committed = self.committed_on_admission() + 1;
        let remaining = u64::from(predicted_total.saturating_sub(self.generated).max(1)) - 1;
        (committed, remaining)
    }
}

/// KV-cache occupancy snapshot handed to schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryState {
    /// Total KV-cache capacity in token slots.
    pub capacity_tokens: u64,
    /// Token slots currently in use.
    pub used_tokens: u64,
}

impl MemoryState {
    /// Free token slots.
    pub fn available_tokens(&self) -> u64 {
        self.capacity_tokens.saturating_sub(self.used_tokens)
    }
}

/// An admission policy for continuous batching.
///
/// The engine calls [`Scheduler::plan_admission`] before every prefill
/// opportunity. The scheduler returns how many requests to admit **from the
/// front of the queue** (FCFS — the paper's Algorithm 1 walks the queue in
/// order and stops at the first request that does not fit). The engine then
/// performs the prefill and later reports completions via
/// [`Scheduler::on_request_finished`].
///
/// Implementations must be deterministic given their construction seed.
pub trait Scheduler: fmt::Debug {
    /// Human-readable policy name (stable, used in reports).
    fn name(&self) -> &str;

    /// Decides how many queue-front requests to admit now.
    ///
    /// Returning `n` admits `queue[..n]`. Must not exceed `queue.len()`.
    fn plan_admission(
        &mut self,
        running: &[RunningRequest],
        queue: &[QueuedRequest],
        memory: &MemoryState,
    ) -> usize;

    /// Observes the actual output length of a finished request (feeds the
    /// Past-Future history; default: ignored).
    fn on_request_finished(&mut self, output_len: u32) {
        let _ = output_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_request_accessors() {
        let r = RunningRequest {
            id: 1,
            input_len: 100,
            generated: 30,
            max_new_tokens: 256,
            oracle_remaining: None,
        };
        assert_eq!(r.committed(), 130);
        assert_eq!(r.worst_case_remaining(), 226);
    }

    #[test]
    fn worst_case_remaining_never_zero() {
        let r = RunningRequest {
            id: 1,
            input_len: 10,
            generated: 256,
            max_new_tokens: 256,
            oracle_remaining: None,
        };
        assert_eq!(r.worst_case_remaining(), 1);
    }

    #[test]
    fn queued_request_accounts_for_eviction_state() {
        let q = QueuedRequest {
            id: 2,
            input_len: 50,
            generated: 40,
            max_new_tokens: 128,
            oracle_remaining: None,
        };
        assert_eq!(q.committed_on_admission(), 90);
        assert_eq!(q.worst_case_remaining(), 88);
    }

    #[test]
    fn memory_state_available() {
        let m = MemoryState {
            capacity_tokens: 100,
            used_tokens: 30,
        };
        assert_eq!(m.available_tokens(), 70);
        let over = MemoryState {
            capacity_tokens: 100,
            used_tokens: 130,
        };
        assert_eq!(over.available_tokens(), 0);
    }
}
