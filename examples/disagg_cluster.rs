//! Disaggregated prefill/decode demo: a prefill-heavy load served by
//! independently autoscaled pools — the prefill pool sized against TTFT,
//! the decode pool against TPOT, joined by an NVLink KV-transfer link.
//!
//! ```text
//! cargo run --release --example disagg_cluster
//! ```

use pastfuture::autoscale::{AutoscaleConfig, PredictorKind};
use pastfuture::prelude::*;
use pastfuture::sim::disagg::{DisaggConfig, ElasticDisaggCluster, KvTransferSpec};
use pastfuture::workload::{datasets, rng::seeded, PoissonArrivals};
use pf_obs::Pool;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Summarization-style traffic: 1-3k-token prompts, terse answers.
    // Prefill work dominates, so the two pools end up differently sized.
    let base = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .capacity_override(9_000)
        .record_series(false)
        .seed(7)
        .build();
    let config = DisaggConfig::new(base).transfer(KvTransferSpec::nvlink());
    let pool = |max: usize| {
        AutoscaleConfig::bounded(1, max)
            .interval(SimDuration::from_secs(10))
            .warmup(SimDuration::from_secs(20))
            .predictor(PredictorKind::holt())
            .initial_lengths(2_048.0, 56.0)
    };

    let n = 2_400;
    let requests = datasets::prefill_heavy(n, 1);
    let arrivals = PoissonArrivals::new(10.0).assign(&mut seeded(2), n);

    let report =
        ElasticDisaggCluster::new(config, pool(3), pool(3), 1, 1).run(requests, arrivals)?;
    let headline = report.headline();

    println!(
        "served {} requests in {:.0} s: TTFT-SLA {:.1}%, full SLA {:.1}%, goodput {:.0} tok/s",
        headline.completed,
        report.makespan.as_secs_f64(),
        headline.ttft_attainment * 100.0,
        headline.sla_attainment * 100.0,
        headline.goodput_tok_per_s,
    );
    println!(
        "pools: prefill peaked at {} and decode at {} replicas; {:.0} GPU-seconds total",
        report.peak_pool_replicas(Pool::Prefill),
        report.peak_pool_replicas(Pool::Decode),
        report.gpu_seconds(),
    );
    println!(
        "kv transfers: {} handoffs, {:.1} GB moved, mean handoff {:.1} ms after prefill",
        report.transfers.transfers,
        report.transfers.total_bytes as f64 / 1e9,
        report.transfers.mean_handoff_secs() * 1e3,
    );
    for pool in [Pool::Prefill, Pool::Decode] {
        println!("\n{} pool scaling decisions:", pool.label());
        for event in report.events.iter().filter(|e| e.pool == pool) {
            let dir = if event.to > event.from { "up" } else { "down" };
            println!(
                "  t={:>5.0}s  {} {} -> {} replicas",
                event.at.as_secs_f64(),
                dir,
                event.from,
                event.to
            );
        }
    }
    Ok(())
}
