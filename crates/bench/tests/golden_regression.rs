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
//! Each band reads the runs of the `--quick` bench that prints them,
//! from the same `pf_bench::scenario` constructor with the same seed and
//! size; the pinned bands were measured on these runs.

use std::sync::OnceLock;

use pf_bench::scenario::{by_name, fleets, paper, run_all, Run, Scenario};
use pf_core::SchedulerConfig;
use pf_sim::SimReport;

/// Runs the scenarios of `scenarios` named in `names`, in input order.
fn run_named(scenarios: Vec<Scenario>, names: &[&str]) -> Vec<Run> {
    let wanted: Vec<Scenario> = scenarios
        .into_iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .collect();
    assert_eq!(
        wanted.len(),
        names.len(),
        "missing scenarios among {names:?}"
    );
    run_all(&wanted)
}

/// The four Distribution-1 rows of `table1 --quick` the bands check, run
/// once and shared by every test that reads them.
fn table1_run(scheduler: SchedulerConfig) -> &'static SimReport {
    static RUNS: OnceLock<Vec<Run>> = OnceLock::new();
    let name = |s: &SchedulerConfig| format!("Distribution-1/{s}");
    let runs = RUNS.get_or_init(|| {
        let names = [
            SchedulerConfig::Oracle,
            SchedulerConfig::past_future_reserved(0.05),
            SchedulerConfig::aggressive(0.95),
            SchedulerConfig::conservative(),
        ]
        .map(|s| name(&s));
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        run_named(paper::table1(1, 250), &names)
    });
    &by_name(runs, &name(&scheduler)).report.instances[0].report
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
    // `autoscale --quick`'s diurnal table.
    let runs = run_named(
        fleets::autoscale_diurnal(42, 700),
        &["static-4", "elastic-holt"],
    );
    let static_max = by_name(&runs, "static-4").headline;
    let elastic = by_name(&runs, "elastic-holt").headline;

    let gap = static_max.sla_attainment - elastic.sla_attainment;
    assert!(
        gap <= 0.05,
        "elastic SLA {:.3} trails static-max {:.3} by more than 5 points",
        elastic.sla_attainment,
        static_max.sla_attainment
    );
    let saving = 1.0 - elastic.gpu_seconds / static_max.gpu_seconds;
    assert!(
        (0.25..=0.65).contains(&saving),
        "GPU-seconds saving {saving:.3} left the golden band [0.25, 0.65] \
         (elastic {:.0}, static-max {:.0})",
        elastic.gpu_seconds,
        static_max.gpu_seconds
    );
}

#[test]
fn disagg_ttft_headline_holds() {
    // `disagg --quick`'s steady prefill-heavy table.
    let runs = run_named(
        fleets::disagg_prefill_heavy(51, 900),
        &["coloc-static-4", "disagg-2p2d"],
    );
    let coloc = by_name(&runs, "coloc-static-4").headline;
    let split = by_name(&runs, "disagg-2p2d").headline;

    assert!(
        split.ttft_attainment >= coloc.ttft_attainment,
        "disagg TTFT attainment {:.3} fell below colocated {:.3}",
        split.ttft_attainment,
        coloc.ttft_attainment
    );
    assert!(
        split.ttft_p99_s <= coloc.ttft_p99_s,
        "disagg TTFT p99 {:.2}s exceeds colocated {:.2}s",
        split.ttft_p99_s,
        coloc.ttft_p99_s
    );
    // Matched provisioning: the split spends the same GPU-seconds within
    // a 2% tolerance.
    assert!(
        split.gpu_seconds <= coloc.gpu_seconds * 1.02,
        "disagg {:.0} GPU-s vs colocated {:.0}",
        split.gpu_seconds,
        coloc.gpu_seconds
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
