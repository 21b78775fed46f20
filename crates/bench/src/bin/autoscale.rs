//! Extension: SLA-driven elastic autoscaling versus static fleets.
//!
//! Two load shapes — a smooth diurnal cycle and an on/off bursty square
//! wave — are served by static fleets of 1, 2 and 4 instances and by the
//! elastic planner (`pf-autoscale`) bounded to [1, 4] with each of its
//! predictors. Static fleets are modelled as the degenerate elastic
//! configuration `min == max`, so provisioning cost is accounted
//! identically everywhere.
//!
//! The table reports goodput, SLA attainment and GPU-seconds provisioned.
//! The run asserts the headline claim: on the diurnal scenario the elastic
//! planner matches the static-max fleet's SLA attainment within 5 points
//! while provisioning strictly fewer GPU-seconds — and does so
//! deterministically.
//!
//! ```text
//! cargo run --release -p pf-bench --bin autoscale [-- --quick]
//! ```

use pf_bench::scenario::fleets::{autoscale_bursty, autoscale_diurnal, MAX_REPLICAS};
use pf_bench::scenario::{by_name, run_all, Run, Scenario};
use pf_bench::Cli;
use pf_metrics::Align::{Left, Right};
use pf_metrics::Table;

fn scenario_table(cli: &Cli, name: &str, title: &str, scenarios: &[Scenario]) -> Vec<Run> {
    let runs = run_all(scenarios);
    let mut table = Table::new([
        "fleet",
        "completed",
        "SLA-ok %",
        "goodput tok/s",
        "GPU-seconds",
        "peak",
        "makespan s",
        "scaling events",
    ])
    .with_aligns(&[Left, Right, Right, Right, Right, Right, Right, Right]);
    for run in &runs {
        let (h, report) = (&run.headline, run.report.elastic());
        table.row([
            run.name.clone(),
            h.completed.to_string(),
            format!("{:.1}", h.sla_attainment * 100.0),
            format!("{:.0}", h.goodput_tok_per_s),
            format!("{:.0}", h.gpu_seconds),
            report.peak_replicas().to_string(),
            format!("{:.0}", report.makespan.as_secs_f64()),
            report.events.len().to_string(),
        ]);
    }
    cli.emit(name, title, &table);
    runs
}

fn main() {
    let cli = Cli::parse();

    let diurnal = autoscale_diurnal(42, cli.size(3_600, 700));
    let diurnal_runs = scenario_table(
        &cli,
        "autoscale_diurnal",
        "Elastic autoscaling: diurnal load (2 -> 12 req/s, 180 s period)",
        &diurnal,
    );

    let bursty = autoscale_bursty(44, cli.size(1_800, 400));
    let bursty_runs = scenario_table(
        &cli,
        "autoscale_bursty",
        "Elastic autoscaling: bursty load (1 req/s floor, 12 req/s bursts)",
        &bursty,
    );

    // Headline checks (diurnal): the trend-following elastic fleet matches
    // the static-max fleet's SLA attainment within 5 points at strictly
    // lower provisioned cost, and the run replays bit-identically.
    let static_max = &by_name(&diurnal_runs, &format!("static-{MAX_REPLICAS}")).headline;
    let elastic_holt = by_name(&diurnal_runs, "elastic-holt");
    let holt = &elastic_holt.headline;
    assert!(
        static_max.sla_attainment - holt.sla_attainment <= 0.05,
        "elastic SLA attainment {:.3} trails static-max {:.3} by more than 5 points",
        holt.sla_attainment,
        static_max.sla_attainment
    );
    assert!(
        holt.gpu_seconds < static_max.gpu_seconds,
        "elastic provisioned {:.0} GPU-s, static-max {:.0}",
        holt.gpu_seconds,
        static_max.gpu_seconds
    );
    // Bursty checks: the planner forecasts `warmup/interval + 1` steps
    // ahead and provisions against the horizon maximum, so the
    // trend-extrapolating predictor must beat the one-step-lagging EWMA on
    // step bursts (a burst still ramping at planning time is extrapolated
    // across the warm-up delay instead of chased one interval at a time) —
    // while still provisioning strictly fewer GPU-seconds than static-max.
    let bursty_holt = &by_name(&bursty_runs, "elastic-holt").headline;
    let bursty_ewma = &by_name(&bursty_runs, "elastic-ewma").headline;
    let bursty_static_max = &by_name(&bursty_runs, &format!("static-{MAX_REPLICAS}")).headline;
    if cli.quick {
        // The quick run sees a single burst, which no predictor can
        // anticipate cold: require parity only.
        assert!(
            bursty_holt.sla_attainment >= bursty_ewma.sla_attainment,
            "horizon-forecasting holt ({:.3}) fell below one-step ewma ({:.3}) on step bursts",
            bursty_holt.sla_attainment,
            bursty_ewma.sla_attainment
        );
    } else {
        assert!(
            bursty_holt.sla_attainment > bursty_ewma.sla_attainment,
            "horizon-forecasting holt ({:.3}) no longer beats one-step ewma ({:.3}) on step bursts",
            bursty_holt.sla_attainment,
            bursty_ewma.sla_attainment
        );
    }
    assert!(
        bursty_holt.gpu_seconds < bursty_static_max.gpu_seconds,
        "elastic-holt provisioned {:.0} GPU-s on bursty, static-max {:.0}",
        bursty_holt.gpu_seconds,
        bursty_static_max.gpu_seconds
    );
    let scenario = diurnal
        .iter()
        .find(|s| s.name == "elastic-holt")
        .expect("holt fleet");
    let replay = scenario.replay(elastic_holt);
    assert_eq!(
        replay.report.elastic().events,
        elastic_holt.report.elastic().events,
        "non-deterministic scaling"
    );
    println!(
        "[ok] bursty: horizon-forecasting holt {:.1}% vs ewma {:.1}% SLA at {:.0} GPU-s (static-{} {:.0})",
        bursty_holt.sla_attainment * 100.0,
        bursty_ewma.sla_attainment * 100.0,
        bursty_holt.gpu_seconds,
        MAX_REPLICAS,
        bursty_static_max.gpu_seconds,
    );
    println!(
        "[ok] elastic-holt: SLA {:.1}% (static-{} {:.1}%), {:.0} GPU-s vs {:.0} ({:.0}% saved), deterministic replay",
        holt.sla_attainment * 100.0,
        MAX_REPLICAS,
        static_max.sla_attainment * 100.0,
        holt.gpu_seconds,
        static_max.gpu_seconds,
        (1.0 - holt.gpu_seconds / static_max.gpu_seconds) * 100.0,
    );
}
