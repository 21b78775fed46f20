//! Figure 6: behaviour of the three scheduler classes on the paper's toy
//! scenario — system token capacity 21, two requests mid-flight, one
//! queued request arriving at time t.
//!
//! * the **aggressive** scheduler admits at `t` and later pays an eviction;
//! * the **conservative** scheduler waits until its worst-case budget fits
//!   (long after a request has finished);
//! * the **Past-Future** scheduler admits at the earliest step whose future
//!   required memory fits — a few steps of queueing, zero evictions.
//!
//! The timeline is replayed at decode-step granularity against the real
//! `Scheduler` implementations.
//!
//! ```text
//! cargo run --release -p pf-bench --bin fig6
//! ```

use pf_bench::Cli;
use pf_core::{MemoryState, QueuedRequest, RunningRequest, Scheduler, SchedulerConfig};
use pf_metrics::{Align, Table};

const CAPACITY: u64 = 21;
const MAX_NEW: u32 = 8;

#[derive(Debug, Clone, Copy)]
struct ToyRequest {
    id: u64,
    input: u32,
    output: u32,
    generated: u32,
}

impl ToyRequest {
    fn committed(&self) -> u64 {
        u64::from(self.input + self.generated)
    }
}

#[derive(Debug, Default)]
struct Outcome {
    admit_step: Option<u32>,
    evictions: u32,
    finish_step: u32,
}

/// Replays the toy timeline: requests A and B are mid-flight at step 0, the
/// new request N is queued. Decode-step granularity, LIFO eviction,
/// admission modelled at the post-prefill state (like the engine).
fn replay(scheduler: &mut dyn Scheduler, log: &mut Table) -> Outcome {
    let mut running = vec![
        ToyRequest {
            id: 0,
            input: 3,
            output: 4,
            generated: 2,
        }, // A
        ToyRequest {
            id: 1,
            input: 3,
            output: 6,
            generated: 1,
        }, // B
    ];
    let mut queued = Some(ToyRequest {
        id: 2,
        input: 6,
        output: 6,
        generated: 0,
    }); // N
    let mut outcome = Outcome::default();
    for step in 0u32..32 {
        // Admission attempt.
        if let Some(n) = queued {
            let running_views: Vec<RunningRequest> = running
                .iter()
                .map(|r| RunningRequest {
                    id: r.id,
                    input_len: r.input,
                    generated: r.generated,
                    max_new_tokens: MAX_NEW,
                    oracle_remaining: Some(r.output - r.generated),
                })
                .collect();
            let queue_views = [QueuedRequest {
                id: n.id,
                input_len: n.input,
                generated: n.generated,
                max_new_tokens: MAX_NEW,
                oracle_remaining: Some(n.output - n.generated),
            }];
            let used: u64 = running.iter().map(ToyRequest::committed).sum();
            let memory = MemoryState {
                capacity_tokens: CAPACITY,
                used_tokens: used,
            };
            if scheduler.plan_admission(&running_views, &queue_views, &memory) > 0 {
                let mut admitted = n;
                admitted.generated += 1; // prefill emits the first token
                running.push(admitted);
                queued = None;
                if outcome.admit_step.is_none() {
                    outcome.admit_step = Some(step);
                }
                log.row([
                    scheduler.name().to_string(),
                    format!("t+{step}"),
                    "admit N".to_string(),
                    running
                        .iter()
                        .map(ToyRequest::committed)
                        .sum::<u64>()
                        .to_string(),
                ]);
            }
        }
        if running.is_empty() && queued.is_none() {
            outcome.finish_step = step;
            break;
        }
        // Decode step: one token per running request; evict LIFO if short.
        while !running.is_empty() {
            let used: u64 = running.iter().map(ToyRequest::committed).sum();
            if used + running.len() as u64 <= CAPACITY {
                break;
            }
            let victim = running.pop().expect("non-empty");
            outcome.evictions += 1;
            queued = Some(victim); // re-queued with generated tokens kept
            log.row([
                scheduler.name().to_string(),
                format!("t+{step}"),
                format!("evict req#{}", victim.id),
                running
                    .iter()
                    .map(ToyRequest::committed)
                    .sum::<u64>()
                    .to_string(),
            ]);
        }
        for r in &mut running {
            r.generated += 1;
        }
        let finished: Vec<ToyRequest> = running
            .iter()
            .copied()
            .filter(|r| r.generated >= r.output)
            .collect();
        running.retain(|r| r.generated < r.output);
        for f in finished {
            scheduler.on_request_finished(f.output);
            log.row([
                scheduler.name().to_string(),
                format!("t+{}", step + 1),
                format!("req#{} finishes", f.id),
                running
                    .iter()
                    .map(ToyRequest::committed)
                    .sum::<u64>()
                    .to_string(),
            ]);
        }
    }
    outcome
}

fn main() {
    let cli = Cli::parse();
    let mut log = Table::new(["scheduler", "step", "event", "used tokens after"]).with_aligns(&[
        Align::Left,
        Align::Left,
        Align::Left,
        Align::Right,
    ]);
    let mut summary = Table::new(["scheduler", "admits N at", "evictions", "all done at"])
        .with_aligns(&[Align::Left, Align::Right, Align::Right, Align::Right]);

    let configs = [
        SchedulerConfig::aggressive(0.99),
        SchedulerConfig::past_future_reserved(0.03),
        SchedulerConfig::conservative(),
        SchedulerConfig::Oracle,
    ];
    let mut outcomes = Vec::new();
    for config in configs {
        let mut scheduler = config.build(1);
        // Warm the Past-Future history with this service's typical outputs.
        for len in [4u32, 5, 6, 4, 5, 6, 4, 5, 6, 4, 5, 6] {
            scheduler.on_request_finished(len);
        }
        let outcome = replay(scheduler.as_mut(), &mut log);
        summary.row([
            scheduler.name().to_string(),
            format!("t+{}", outcome.admit_step.expect("N admitted")),
            outcome.evictions.to_string(),
            format!("t+{}", outcome.finish_step),
        ]);
        outcomes.push((config, outcome));
    }

    cli.emit(
        "fig6",
        "Figure 6: scheduler behaviour at capacity 21 (timeline summary)",
        &summary,
    );
    pf_bench::write_artifacts(&cli.out_dir, "fig6_timeline", &log);
    println!("{}", log.to_text());

    // The paper's qualitative claims, asserted.
    let admit = |i: usize| outcomes[i].1.admit_step.unwrap();
    assert_eq!(admit(0), 0, "aggressive admits immediately");
    assert!(outcomes[0].1.evictions >= 1, "aggressive pays an eviction");
    assert!(admit(1) > admit(0), "past-future waits a few steps");
    assert_eq!(outcomes[1].1.evictions, 0, "past-future avoids eviction");
    assert!(admit(2) > admit(1), "conservative waits longest");
    assert_eq!(outcomes[2].1.evictions, 0);
    assert!(admit(3) <= admit(1), "oracle admits at the optimal step");
    assert_eq!(outcomes[3].1.evictions, 0);
    println!("qualitative ordering matches the paper: aggressive (t, evicts) < oracle <= past-future < conservative.");
}
