//! Extension: disaggregated prefill/decode pools versus colocated serving
//! at matched GPU counts.
//!
//! Three load shapes — a steady prefill-heavy stream (summarization/RAG
//! traffic), a diurnal chat cycle and a bursty chat square wave — are
//! served by a colocated 4-instance fleet, by static disaggregated splits
//! of the same four GPUs, and by an elastic disaggregated cluster whose
//! prefill and decode pools autoscale independently (prefill against
//! TTFT, decode against TPOT).
//!
//! The table reports TTFT-SLA attainment separately from full-SLA
//! attainment: disaggregation's claim is about first-token latency — a
//! dedicated prefill pool keeps prompt admission off the decode batch's
//! memory and compute, at the price of a KV transfer charged between the
//! first and second token.
//!
//! The run asserts the headline claims on the prefill-heavy scenario:
//! the matched-GPU static split reaches at least the colocated fleet's
//! TTFT-SLA attainment without spending more GPU-seconds, and the elastic
//! run replays bit-identically.
//!
//! ```text
//! cargo run --release -p pf-bench --bin disagg [-- --quick]
//! ```

use pf_bench::scenario::fleets::{disagg_bursty, disagg_diurnal, disagg_prefill_heavy};
use pf_bench::scenario::{by_name, run_all, Run, Scenario};
use pf_bench::Cli;
use pf_metrics::Align::{Left, Right};
use pf_metrics::Table;
use pf_obs::Pool;

/// Peak replicas (prefill+decode on split pools) and scaling decisions.
fn fleet_columns(run: &Run) -> (String, usize) {
    let r = &run.report;
    let peak = match r.instances[0].pool {
        Pool::Colocated => r.peak_replicas().to_string(),
        Pool::Prefill | Pool::Decode => format!(
            "{}+{}",
            r.peak_pool_replicas(Pool::Prefill),
            r.peak_pool_replicas(Pool::Decode)
        ),
    };
    (peak, r.events.len())
}

fn scenario_table(cli: &Cli, name: &str, title: &str, scenarios: &[Scenario]) -> Vec<Run> {
    let runs = run_all(scenarios);
    let mut table = Table::new([
        "fleet",
        "completed",
        "TTFT-ok %",
        "TTFT p99 s",
        "SLA-ok %",
        "goodput tok/s",
        "GPU-seconds",
        "peak",
        "makespan s",
        "scaling events",
    ])
    .with_aligns(&[
        Left, Right, Right, Right, Right, Right, Right, Right, Right, Right,
    ]);
    for run in &runs {
        let h = &run.headline;
        let (peak, scaling_events) = fleet_columns(run);
        table.row([
            run.name.clone(),
            h.completed.to_string(),
            format!("{:.1}", h.ttft_attainment * 100.0),
            format!("{:.2}", h.ttft_p99_s),
            format!("{:.1}", h.sla_attainment * 100.0),
            format!("{:.0}", h.goodput_tok_per_s),
            format!("{:.0}", h.gpu_seconds),
            peak,
            format!("{:.0}", run.report.makespan.as_secs_f64()),
            scaling_events.to_string(),
        ]);
    }
    cli.emit(name, title, &table);
    runs
}

fn main() {
    let cli = Cli::parse();

    // Steady prefill-heavy load sits just past the colocated fleet's
    // admission ceiling: its TTFT tail collapses (prompts queue behind
    // decode-held KV), while a dedicated prefill pool keeps first tokens
    // flowing and pushes the stress onto the decode side's MTPOT — the
    // disaggregation trade.
    let steady_fleets = disagg_prefill_heavy(51, cli.size(3_000, 900));
    let steady_runs = scenario_table(
        &cli,
        "disagg_prefill_heavy",
        "Disaggregation: steady prefill-heavy load (12 req/s, 1-3k prompts, 4 GPUs)",
        &steady_fleets,
    );
    scenario_table(
        &cli,
        "disagg_diurnal",
        "Disaggregation: diurnal chat load (2 -> 10 req/s, 180 s period, 4 GPUs)",
        &disagg_diurnal(53, cli.size(2_400, 500)),
    );
    scenario_table(
        &cli,
        "disagg_bursty",
        "Disaggregation: bursty chat load (1 req/s floor, 10 req/s bursts, 4 GPUs)",
        &disagg_bursty(55, cli.size(1_500, 350)),
    );

    // Headline checks (prefill-heavy): the matched-GPU disaggregated split
    // protects TTFT — attainment at least the colocated fleet's, with a
    // no-worse p99 — at no extra provisioned cost, and the elastic run
    // replays bit-identically.
    let coloc = &by_name(&steady_runs, "coloc-static-4").headline;
    let split = &by_name(&steady_runs, "disagg-2p2d").headline;
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
    assert!(
        split.gpu_seconds <= coloc.gpu_seconds * 1.02,
        "disagg spent {:.0} GPU-s vs colocated {:.0} — not a matched comparison",
        split.gpu_seconds,
        coloc.gpu_seconds
    );
    steady_fleets[3].replay(by_name(&steady_runs, "disagg-elastic-3p3d"));
    println!(
        "[ok] disagg-2p2d: TTFT-SLA {:.1}% vs coloc-static-4 {:.1}% at {:.0} vs {:.0} GPU-s; \
         elastic replay deterministic",
        split.ttft_attainment * 100.0,
        coloc.ttft_attainment * 100.0,
        split.gpu_seconds,
        coloc.gpu_seconds,
    );
}
