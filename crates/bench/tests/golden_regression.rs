//! Golden regression tests pinning the headline benchmark results behind
//! tolerance bands, so future refactors cannot silently shift them:
//!
//! * Table 1's memory-utilization ordering across scheduler families on
//!   the decode-heavy Distribution-1 (aggressive overcommits future
//!   memory past capacity, Past-Future tracks it near 100%, conservative
//!   underutilizes and never evicts);
//! * the elastic-autoscaling headline (GPU-seconds saving band at a
//!   bounded SLA gap versus the static-max fleet on the diurnal scenario);
//! * the disaggregation headline (a matched-GPU prefill/decode split
//!   keeps TTFT-SLA attainment at least colocated's on prefill-heavy
//!   load).
//!
//! Workload sizes are scaled down from the full bench runs to keep the
//! suite fast; the pinned bands were measured on these exact seeds.

use pf_autoscale::{AutoscaleConfig, PredictorKind};
use pf_bench::output_lengths;
use pf_bench::scenario::base;
use pf_core::SchedulerConfig;
use pf_metrics::SimDuration;
use pf_sim::disagg::{DisaggCluster, DisaggConfig};
use pf_sim::elastic::ElasticCluster;
use pf_sim::{SimReport, Simulation};
use pf_workload::{datasets, rng::seeded, PoissonArrivals, RateProfile};

/// One Table-1-style offline run on Distribution-1 (the `--quick` bench
/// size, so the pinned bands match `bench --bin table1 -- --quick`).
fn table1_run(scheduler: SchedulerConfig) -> SimReport {
    let n = 250;
    let requests = datasets::distribution_1(n, 1);
    let warmup = output_lengths(&datasets::distribution_1(1000, 777));
    let config = base(20).scheduler(scheduler).history_warmup(warmup).build();
    Simulation::offline(config, requests)
        .run()
        .expect("table1 run")
}

#[test]
fn table1_utilization_ordering_holds() {
    // Measured at these seeds (future-required / evicted): oracle 92.3% /
    // 0%, past-future(5%) 90.2% / 4.4%, aggressive(95%) 98.2% / 33.6%,
    // conservative 59.4% / 0%.
    let oracle = table1_run(SchedulerConfig::Oracle);
    let pf = table1_run(SchedulerConfig::past_future_reserved(0.05));
    let aggressive = table1_run(SchedulerConfig::aggressive(0.95));
    let conservative = table1_run(SchedulerConfig::conservative());

    // The paper's ordering on memory pressure: aggressive admission runs
    // the closest to (and during overload beyond) capacity, Past-Future
    // tracks the oracle just below it, conservative reservation leaves
    // almost half the memory idle.
    assert!(
        aggressive.avg_future_required_frac > pf.avg_future_required_frac + 0.03,
        "aggressive future-required {:.3} vs past-future {:.3}",
        aggressive.avg_future_required_frac,
        pf.avg_future_required_frac
    );
    assert!(
        conservative.avg_future_required_frac < 0.70,
        "conservative future-required {:.3} should stay under 70%",
        conservative.avg_future_required_frac
    );
    assert!(
        conservative.avg_consumed_frac < pf.avg_consumed_frac,
        "conservative consumed {:.3} should undercut past-future {:.3}",
        conservative.avg_consumed_frac,
        pf.avg_consumed_frac
    );
    for (name, report) in [("oracle", &oracle), ("past-future", &pf)] {
        assert!(
            (0.85..=0.97).contains(&report.avg_future_required_frac),
            "{name} future-required {:.3} left the golden band [0.85, 0.97]",
            report.avg_future_required_frac
        );
    }

    // Eviction ordering: overcommit pays in evictions, reservation never
    // evicts, Past-Future sits close to the oracle's zero.
    assert_eq!(conservative.evictions, 0);
    assert_eq!(oracle.evictions, 0);
    assert!(aggressive.evictions > 0);
    assert!(
        pf.evictions * 5 <= aggressive.evictions,
        "past-future evictions {} vs aggressive {}",
        pf.evictions,
        aggressive.evictions
    );

    // Batching density: conservative's tiny batches need far more decode
    // steps for the same work.
    assert!(
        conservative.decode_steps > pf.decode_steps,
        "conservative decode steps {} vs past-future {}",
        conservative.decode_steps,
        pf.decode_steps
    );
}

#[test]
fn autoscale_gpu_seconds_saving_band_holds() {
    let n = 700;
    let requests = datasets::short_chat(n, 42);
    let arrivals =
        RateProfile::diurnal(2.0, 12.0, SimDuration::from_secs(180)).assign(&mut seeded(43), n);
    let config = || base(41).capacity_override(6_000).build();
    let autoscale = |min: usize, max: usize| {
        AutoscaleConfig::bounded(min, max)
            .interval(SimDuration::from_secs(10))
            .warmup(SimDuration::from_secs(20))
            .predictor(PredictorKind::holt())
            .initial_lengths(160.0, 224.0)
    };
    let static_max = ElasticCluster::new(config(), autoscale(4, 4), 4)
        .run(requests.clone(), arrivals.clone())
        .expect("static run");
    let elastic = ElasticCluster::new(config(), autoscale(1, 4), 1)
        .run(requests, arrivals)
        .expect("elastic run");

    let gap = static_max.headline().sla_attainment - elastic.headline().sla_attainment;
    assert!(
        gap <= 0.05,
        "elastic SLA {:.3} trails static-max {:.3} by more than 5 points",
        elastic.headline().sla_attainment,
        static_max.headline().sla_attainment
    );
    let saving = 1.0 - elastic.gpu_seconds() / static_max.gpu_seconds();
    assert!(
        (0.25..=0.65).contains(&saving),
        "GPU-seconds saving {saving:.3} left the golden band [0.25, 0.65] \
         (elastic {:.0}, static-max {:.0})",
        elastic.gpu_seconds(),
        static_max.gpu_seconds()
    );
}

#[test]
fn disagg_ttft_headline_holds() {
    let n = 900;
    let requests = datasets::prefill_heavy(n, 51);
    let arrivals = PoissonArrivals::new(12.0).assign(&mut seeded(52), n);
    let config = || base(31).capacity_override(9_000).build();
    let coloc_autoscale = AutoscaleConfig::bounded(4, 4)
        .interval(SimDuration::from_secs(10))
        .warmup(SimDuration::from_secs(20));
    let coloc = ElasticCluster::new(config(), coloc_autoscale, 4)
        .run(requests.clone(), arrivals.clone())
        .expect("colocated run");
    let split = DisaggCluster::new(DisaggConfig::new(config()), 2, 2)
        .run(requests, arrivals)
        .expect("disagg run");

    assert!(
        split.headline().ttft_attainment >= coloc.goodput.ttft_attainment(),
        "disagg TTFT attainment {:.3} fell below colocated {:.3}",
        split.headline().ttft_attainment,
        coloc.goodput.ttft_attainment()
    );
    assert!(
        split.goodput.ttft_secs.p99 <= coloc.goodput.ttft_secs.p99,
        "disagg TTFT p99 {:.2}s exceeds colocated {:.2}s",
        split.goodput.ttft_secs.p99,
        coloc.goodput.ttft_secs.p99
    );
    // Matched provisioning: the split spends the same GPU-seconds within
    // a 2% tolerance.
    assert!(
        split.gpu_seconds() <= coloc.gpu_seconds() * 1.02,
        "disagg {:.0} GPU-s vs colocated {:.0}",
        split.gpu_seconds(),
        coloc.gpu_seconds()
    );
}

#[test]
fn headline_values_snapshot() {
    // Loose snapshot of the Table-1 Past-Future row itself (decode steps
    // and consumed memory move with any engine change; the band is ±10%
    // of the values measured at these seeds).
    let pf = table1_run(SchedulerConfig::past_future_reserved(0.05));
    assert_eq!(pf.completed, 250);
    let consumed = pf.avg_consumed_frac;
    assert!(
        (0.80..=0.95).contains(&consumed),
        "past-future consumed memory {consumed:.3} left its golden band [0.80, 0.95]"
    );
    assert!(
        pf.evicted_request_pct() <= 8.0,
        "past-future evicted {:.2}% of requests (golden bound 8%)",
        pf.evicted_request_pct()
    );
}
