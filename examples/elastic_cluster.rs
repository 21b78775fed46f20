//! Elastic autoscaling demo: a diurnal load served by a fleet that grows
//! into the peak and drains through the trough.
//!
//! ```text
//! cargo run --release --example elastic_cluster
//! ```

use pastfuture::autoscale::{AutoscaleConfig, PredictorKind};
use pastfuture::prelude::*;
use pastfuture::sim::elastic::ElasticCluster;
use pastfuture::workload::rng::seeded;
use pastfuture::workload::RateProfile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One replica of this deployment saturates near 7 req/s of short-chat
    // traffic; the diurnal cycle swings between 2 and 12 req/s.
    let base = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(6_000)
        .record_series(false)
        .seed(7)
        .build();
    let autoscale = AutoscaleConfig::bounded(1, 4)
        .interval(SimDuration::from_secs(10))
        .warmup(SimDuration::from_secs(20))
        .predictor(PredictorKind::holt())
        .initial_lengths(160.0, 224.0);

    let n = 2_400;
    let requests = pastfuture::workload::datasets::short_chat(n, 1);
    let profile = RateProfile::diurnal(2.0, 12.0, SimDuration::from_secs(180));
    let arrivals = profile.assign(&mut seeded(2), n);

    let report = ElasticCluster::new(base, autoscale, 1).run(requests, arrivals)?;
    let headline = report.headline();

    println!(
        "served {} requests in {:.0} s: SLA attainment {:.1}%, goodput {:.0} tok/s",
        headline.completed,
        report.makespan.as_secs_f64(),
        headline.sla_attainment * 100.0,
        headline.goodput_tok_per_s,
    );
    println!(
        "fleet: peak {} replicas, {:.0} GPU-seconds provisioned \
         (a static {}-replica fleet would burn {:.0})",
        report.peak_replicas(),
        report.gpu_seconds(),
        report.peak_replicas(),
        report.peak_replicas() as f64 * report.makespan.as_secs_f64(),
    );
    println!("\nscaling decisions:");
    for event in &report.events {
        let dir = if event.to > event.from { "up" } else { "down" };
        println!(
            "  t={:>5.0}s  {} {} -> {} replicas",
            event.at.as_secs_f64(),
            dir,
            event.from,
            event.to
        );
    }
    println!("\nper-instance lifetimes:");
    for (i, instance) in report.instances.iter().enumerate() {
        println!(
            "  #{i}: up {:>5.0}s..{:>5.0}s  served {:>4} requests",
            instance.spawned_at.as_secs_f64(),
            instance.stopped_at.as_secs_f64(),
            instance.routed,
        );
    }
    Ok(())
}
