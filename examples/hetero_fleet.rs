//! Heterogeneous fleets and cross-pool repurposing on the shared
//! `pf_sim::fleet` lifecycle kernel.
//!
//! Part 1 serves a diurnal chat cycle on a mixed elastic fleet (two big
//! GPUs plus two mid-tier GPUs at 45% of the price and 55% of the speed)
//! and prints the cost-weighted bill next to the plain GPU-seconds.
//!
//! Part 2 runs a prefill-heavy → decode-heavy phase shift through an
//! elastic disaggregated cluster with cross-pool repurposing enabled:
//! when the decode pool scales up while the prefill pool drains, the
//! drained prefill instance flips into the decode pool after a 2 s
//! repurpose delay instead of a 20 s cold warm-up.
//!
//! ```text
//! cargo run --release --example hetero_fleet
//! ```

use pf_autoscale::{AutoscaleConfig, PolicyConfig, PredictorKind};
use pf_core::SchedulerConfig;
use pf_metrics::{SimDuration, SimTime};
use pf_sim::disagg::{DisaggCluster, DisaggConfig};
use pf_sim::elastic::ElasticCluster;
use pf_sim::{GpuSpec, GpuType, ModelSpec, SimConfig};
use pf_workload::{datasets, rng::seeded, LengthSampler, RateProfile};

fn main() {
    // Part 1 — a mixed elastic fleet on diurnal chat.
    let base = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(6_000)
        .record_series(false)
        .seed(81)
        .build();
    let autoscale = AutoscaleConfig::bounded(1, 4)
        .interval(SimDuration::from_secs(10))
        .warmup(SimDuration::from_secs(20))
        .predictor(PredictorKind::holt())
        .initial_lengths(160.0, 224.0);
    let n = 900;
    let requests = datasets::short_chat(n, 82);
    let arrivals =
        RateProfile::diurnal(2.0, 10.0, SimDuration::from_secs(180)).assign(&mut seeded(83), n);
    let report = ElasticCluster::new(base.clone(), autoscale, 2)
        .fleet(vec![
            GpuType::big(),
            GpuType::big(),
            GpuType::mid(),
            GpuType::mid(),
        ])
        .run(requests, arrivals)
        .expect("mixed elastic run");
    let headline = report.headline();
    println!(
        "mixed fleet: {} requests, SLA {:.1}%, {:.0} GPU-s billed as {:.0} cost-weighted GPU-s",
        headline.completed,
        headline.sla_attainment * 100.0,
        headline.gpu_seconds,
        headline.cost_weighted_gpu_seconds,
    );
    for (i, instance) in report.instances.iter().enumerate() {
        println!(
            "  instance {i}: {} ({}x cost, {}x speed) served {} requests over {:.0}s",
            instance.gpu.name,
            instance.gpu.cost_weight,
            instance.gpu.perf_scale,
            instance.routed,
            instance.active_secs(),
        );
    }

    // Part 2 — cross-pool repurposing through a phase shift.
    let n_prefill = 700;
    let n_decode = 450;
    let pre_in = LengthSampler::uniform(1024, 3072);
    let pre_out = LengthSampler::uniform(4, 16);
    let mut shift = datasets::from_samplers(n_prefill, 84, &pre_in, &pre_out, 32);
    let gen_in = LengthSampler::uniform(48, 160);
    let gen_out = LengthSampler::uniform(192, 512);
    let tail = datasets::from_samplers(n_decode, 85, &gen_in, &gen_out, 640);
    shift.extend(tail.into_iter().enumerate().map(|(i, mut r)| {
        r.id = ((n_prefill + i) as u64).into();
        r
    }));
    let mut times: Vec<SimTime> = (0..n_prefill)
        .map(|i| SimTime::from_micros(71_429 * i as u64))
        .collect();
    let switch = 71_429 * n_prefill as u64;
    times.extend((1..=n_decode as u64).map(|i| SimTime::from_micros(switch + 100_000 * i)));

    let pool = |max: usize, patience: u32| {
        let mut policy = PolicyConfig::bounded(1, max);
        policy.scale_down_patience = patience;
        AutoscaleConfig::bounded(1, max)
            .interval(SimDuration::from_secs(10))
            .warmup(SimDuration::from_secs(20))
            .predictor(PredictorKind::holt())
            .initial_lengths(512.0, 64.0)
            .policy(policy)
    };
    let mut disagg_base = base;
    disagg_base.capacity_override = Some(9_000);
    let config = DisaggConfig::new(disagg_base).repurpose(SimDuration::from_secs(2));
    let report = DisaggCluster::new(config, 2, 1)
        .autoscale(pool(4, 1), pool(4, 3))
        .run(shift, times)
        .expect("repurposing run");
    let headline = report.headline();
    println!(
        "\nphase shift: {} requests, TTFT-SLA {:.1}%, full SLA {:.1}%, {} repurpose flip(s)",
        headline.completed,
        headline.ttft_attainment * 100.0,
        headline.sla_attainment * 100.0,
        report.repurposes.len(),
    );
    for event in &report.repurposes {
        println!(
            "  flip at {}: prefill instance {} became decode instance {}",
            event.at, event.prefill_member, event.decode_member
        );
    }
}
