//! The aggressive baseline scheduler (vLLM-style).

use crate::scheduler::{MemoryState, QueuedRequest, RunningRequest, Scheduler};

/// Aggressive admission: batch requests based on *current* memory only,
/// ignoring the memory their outputs will need (paper Section 2.4).
///
/// A queued request is admitted while current usage plus the prompts of the
/// newly admitted requests stays below `watermark × capacity`. This is the
/// vLLM-style policy: it maximizes instantaneous utilization but routinely
/// discovers mid-decode that the batch has outgrown memory, forcing request
/// evictions (recompute preemption) that stall outputs and break the MTPOT
/// SLA under load.
#[derive(Debug, Clone)]
pub struct AggressiveScheduler {
    watermark: f64,
    name: String,
}

impl AggressiveScheduler {
    /// Creates a scheduler admitting up to `watermark × capacity` tokens
    /// (the paper evaluates 0.90/0.95/0.99).
    ///
    /// # Panics
    ///
    /// Panics if `watermark` is not within `(0, 1]`.
    pub fn new(watermark: f64) -> Self {
        assert!(
            watermark > 0.0 && watermark <= 1.0,
            "watermark {watermark} outside (0, 1]"
        );
        AggressiveScheduler {
            watermark,
            name: format!("aggressive(watermark={:.0}%)", watermark * 100.0),
        }
    }
}

impl Default for AggressiveScheduler {
    /// vLLM's default watermark behaviour (admit close to full capacity).
    fn default() -> Self {
        AggressiveScheduler::new(0.99)
    }
}

impl Scheduler for AggressiveScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn plan_admission(
        &mut self,
        _running: &[RunningRequest],
        queue: &[QueuedRequest],
        memory: &MemoryState,
    ) -> usize {
        let budget = (memory.capacity_tokens as f64 * self.watermark) as u64;
        let mut used = memory.used_tokens;
        let mut admitted = 0;
        for candidate in queue {
            let need = candidate.committed_on_admission();
            if used + need <= budget {
                used += need;
                admitted += 1;
            } else {
                break;
            }
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(id: u64, input: u32) -> QueuedRequest {
        QueuedRequest {
            id,
            input_len: input,
            generated: 0,
            max_new_tokens: 10_000,
            oracle_remaining: None,
        }
    }

    #[test]
    fn admits_until_watermark() {
        let mut s = AggressiveScheduler::new(0.9);
        let queue: Vec<QueuedRequest> = (0..10).map(|i| queued(i, 100)).collect();
        let memory = MemoryState {
            capacity_tokens: 1000,
            used_tokens: 500,
        };
        // Budget 900; 500 used; each prompt 100 → admit 4.
        assert_eq!(s.plan_admission(&[], &queue, &memory), 4);
    }

    #[test]
    fn ignores_output_requirements_entirely() {
        // Even though every request may generate 10k tokens, the aggressive
        // scheduler only counts the 1-token prompts.
        let mut s = AggressiveScheduler::new(1.0);
        let queue: Vec<QueuedRequest> = (0..50).map(|i| queued(i, 1)).collect();
        let memory = MemoryState {
            capacity_tokens: 50,
            used_tokens: 0,
        };
        assert_eq!(s.plan_admission(&[], &queue, &memory), 50);
    }

    #[test]
    fn requeued_requests_count_their_generated_tokens() {
        let mut s = AggressiveScheduler::new(1.0);
        let queue = [QueuedRequest {
            id: 0,
            input_len: 40,
            generated: 30,
            max_new_tokens: 100,
            oracle_remaining: None,
        }];
        let tight = MemoryState {
            capacity_tokens: 69,
            used_tokens: 0,
        };
        assert_eq!(s.plan_admission(&[], &queue, &tight), 0);
        let enough = MemoryState {
            capacity_tokens: 70,
            used_tokens: 0,
        };
        assert_eq!(s.plan_admission(&[], &queue, &enough), 1);
    }

    #[test]
    fn stops_at_first_reject() {
        let mut s = AggressiveScheduler::new(1.0);
        let queue = [queued(0, 80), queued(1, 10)];
        let memory = MemoryState {
            capacity_tokens: 50,
            used_tokens: 0,
        };
        // First doesn't fit → FCFS stops even though the second would fit.
        assert_eq!(s.plan_admission(&[], &queue, &memory), 0);
    }

    #[test]
    fn name_and_default() {
        assert_eq!(
            AggressiveScheduler::new(0.95).name(),
            "aggressive(watermark=95%)"
        );
        assert_eq!(
            AggressiveScheduler::default().name(),
            "aggressive(watermark=99%)"
        );
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn invalid_watermark_panics() {
        let _ = AggressiveScheduler::new(1.5);
    }
}
