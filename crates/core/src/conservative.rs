//! The conservative baseline scheduler (TGI / DeepSpeed-MII style).

use crate::scheduler::{MemoryState, QueuedRequest, RunningRequest, Scheduler};

/// Conservative admission: budget every request at its worst case,
/// `input_len + max_new_tokens` (paper Section 2.4).
///
/// Because real outputs are usually far shorter than the generation cap,
/// this wastes most of the memory it reserves: requests queue for a long
/// time (breaking the TTFT SLA under load) and utilization stays low. The
/// `overcommit` factor (> 1) pretends capacity is larger, the tuning knob
/// the paper's Table 1 explores (e.g. 125%/150%) — it trades queueing for
/// evictions.
#[derive(Debug, Clone)]
pub struct ConservativeScheduler {
    overcommit: f64,
    name: String,
}

impl ConservativeScheduler {
    /// Creates a scheduler with the given overcommit factor (1.0 = none).
    ///
    /// # Panics
    ///
    /// Panics if `overcommit < 1.0`.
    pub fn new(overcommit: f64) -> Self {
        assert!(overcommit >= 1.0, "overcommit {overcommit} below 1.0");
        let name = if (overcommit - 1.0).abs() < f64::EPSILON {
            "conservative(no overcommit)".to_string()
        } else {
            format!("conservative(overcommit={:.0}%)", overcommit * 100.0)
        };
        ConservativeScheduler { overcommit, name }
    }
}

impl Default for ConservativeScheduler {
    fn default() -> Self {
        ConservativeScheduler::new(1.0)
    }
}

impl Scheduler for ConservativeScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn plan_admission(
        &mut self,
        running: &[RunningRequest],
        queue: &[QueuedRequest],
        memory: &MemoryState,
    ) -> usize {
        let budget = (memory.capacity_tokens as f64 * self.overcommit) as u64;
        // Worst-case footprint of the running batch: every request runs to
        // its generation cap.
        let mut committed: u64 = running
            .iter()
            .map(|r| r.committed() + r.worst_case_remaining())
            .sum();
        let mut admitted = 0;
        for candidate in queue {
            let need = candidate.committed_on_admission() + candidate.worst_case_remaining();
            if committed + need <= budget {
                committed += need;
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

    fn queued(id: u64, input: u32, max_new: u32) -> QueuedRequest {
        QueuedRequest {
            id,
            input_len: input,
            generated: 0,
            max_new_tokens: max_new,
            oracle_remaining: None,
        }
    }

    #[test]
    fn budgets_worst_case() {
        let mut s = ConservativeScheduler::new(1.0);
        // Each request: 10 input + 90 cap = 100 worst case.
        let queue: Vec<QueuedRequest> = (0..5).map(|i| queued(i, 10, 90)).collect();
        let memory = MemoryState {
            capacity_tokens: 250,
            used_tokens: 0,
        };
        assert_eq!(s.plan_admission(&[], &queue, &memory), 2);
    }

    #[test]
    fn overcommit_admits_more() {
        let queue: Vec<QueuedRequest> = (0..5).map(|i| queued(i, 10, 90)).collect();
        let memory = MemoryState {
            capacity_tokens: 250,
            used_tokens: 0,
        };
        let mut plain = ConservativeScheduler::new(1.0);
        let mut over = ConservativeScheduler::new(1.5);
        assert_eq!(plain.plan_admission(&[], &queue, &memory), 2);
        assert_eq!(over.plan_admission(&[], &queue, &memory), 3);
    }

    #[test]
    fn counts_running_batch_worst_case() {
        let mut s = ConservativeScheduler::new(1.0);
        let running = [RunningRequest {
            id: 0,
            input_len: 100,
            generated: 10,
            max_new_tokens: 100,
            oracle_remaining: None,
        }];
        // Running worst case: 100 + 100 = 200 (generated counts toward cap).
        let queue = [queued(1, 10, 40)];
        let tight = MemoryState {
            capacity_tokens: 249,
            used_tokens: 110,
        };
        assert_eq!(s.plan_admission(&running, &queue, &tight), 0);
        let enough = MemoryState {
            capacity_tokens: 250,
            used_tokens: 110,
        };
        assert_eq!(s.plan_admission(&running, &queue, &enough), 1);
    }

    #[test]
    fn unused_current_memory_is_irrelevant() {
        // Conservative reasons about worst-case commitments, not current
        // usage: even with zero current usage it refuses what cannot fit at
        // the cap.
        let mut s = ConservativeScheduler::new(1.0);
        let queue = [queued(0, 10, 4096)];
        let memory = MemoryState {
            capacity_tokens: 4000,
            used_tokens: 0,
        };
        assert_eq!(s.plan_admission(&[], &queue, &memory), 0);
    }

    #[test]
    fn names() {
        assert_eq!(
            ConservativeScheduler::new(1.0).name(),
            "conservative(no overcommit)"
        );
        assert_eq!(
            ConservativeScheduler::new(1.25).name(),
            "conservative(overcommit=125%)"
        );
    }

    #[test]
    #[should_panic(expected = "below 1.0")]
    fn undercommit_panics() {
        let _ = ConservativeScheduler::new(0.9);
    }
}
