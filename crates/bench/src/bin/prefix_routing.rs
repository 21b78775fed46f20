//! Extension: KV-aware prefix-affinity routing versus pure load routing
//! on multi-turn chat.
//!
//! Multi-turn chat traffic repeats each conversation's whole history as
//! the prompt prefix of the next turn. An instance that still caches the
//! session's KV can skip re-prefilling it — but only if the router sends
//! the turn back to that instance. This experiment serves the same
//! session-structured stream (`datasets::multi_turn_chat`) under
//! [`RouterPolicy::LeastEstimatedLoad`] (the paper's §7 signal, blind to
//! prefixes) and [`RouterPolicy::PrefixAffinity`] (longest cached prefix
//! wins, load breaks ties), in three deployments:
//!
//! * **colocated** — a fixed [`pf_sim::cluster::ClusterSimulation`] fleet;
//! * **elastic** — an autoscaled [`pf_sim::elastic::ElasticCluster`];
//! * **disagg** — a fixed [`pf_sim::disagg::DisaggCluster`], where prefix
//!   hits shrink the dedicated prefill pool's passes directly.
//!
//! Every instance runs the same block-granular prefix cache (half the KV
//! pool, 64-token blocks); only the routing signal differs, so the delta
//! isolates what *routing* awareness is worth. The run asserts the headline: prefix affinity reaches at
//! least least-estimated-load's TTFT-SLA attainment at equal GPU-seconds
//! with a nonzero hit rate, in both the colocated and disaggregated
//! deployments, and replays bit-identically.
//!
//! ```text
//! cargo run --release -p pf-bench --bin prefix_routing [-- --quick]
//! ```

use pf_bench::scenario::fleets::{prefix_base, prefix_deployments, PREFIX_BUDGET_FRAC};
use pf_bench::scenario::{by_name, run_all, Scenario, Workload};
use pf_bench::{pct, Cli};
use pf_metrics::Align::{Left, Right};
use pf_metrics::Table;
use pf_sim::cluster::RouterPolicy;
use pf_workload::{datasets, LengthSampler};

const AFFINITY: RouterPolicy = RouterPolicy::PrefixAffinity {
    load_tiebreak: true,
};

fn name(deployment: &str, router: RouterPolicy) -> String {
    format!("{deployment}/{}", router.label())
}

/// The three deployments under `router`, named by [`name`].
fn deployments(router: RouterPolicy, n: usize) -> [Scenario; 3] {
    let config = prefix_base(61).prefix_cache(PREFIX_BUDGET_FRAC).build();
    let [coloc, elastic, disagg] = prefix_deployments(config, router);
    // Two load points, each just past its deployment's prefill knee: the
    // 4-engine colocated fleet takes the full stream; the disaggregated
    // split (only two prefill GPUs) and the elastic fleet (averages fewer
    // than four live replicas) take a 0.8x stream. Comparisons are always
    // within one deployment at matched GPU-seconds.
    [
        ("coloc-4", coloc, 10.5),
        ("elastic-1..4", elastic, 7.2),
        ("disagg-2p2d", disagg, 7.2),
    ]
    .map(|(deployment, topology, sessions_per_sec)| {
        Scenario::new(name(deployment, router), 62, topology, move |seed| {
            multi_turn(n, seed, sessions_per_sec)
        })
    })
}

/// Session-structured chat at a rate that pressures prefill: the
/// conversation prefixes grow to ~3k tokens, so blind routing pays a full
/// re-prefill of the history almost every turn.
fn multi_turn(n: usize, seed: u64, sessions_per_sec: f64) -> Workload {
    let spec = datasets::MultiTurnSpec {
        // Prefill-bound chat: deep conversations with terse answers (the
        // RAG/agent-loop shape). Decode barely loads the fleet, so TTFT
        // is governed by prompt processing — the work prefix hits remove.
        system_prompt_len: 384,
        user_turn: LengthSampler::uniform(32, 160),
        assistant_turn: LengthSampler::uniform(24, 96),
        continue_prob: 0.78,
        concurrent_sessions: 8,
        max_new_tokens: 128,
        max_context: 2_048,
    };
    // Sessions arrive Poisson; follow-up turns wait for the previous
    // answer plus think time, as real users do (open-loop assignment
    // would deliver turn k+1 before turn k finished at exactly the loads
    // where TTFT matters, making prefix reuse impossible for any router).
    let (requests, arrivals) =
        datasets::multi_turn_chat_timed(n, seed, &spec, sessions_per_sec, 2.0, 2.0);
    Workload::Timed(requests, arrivals)
}

fn main() {
    let cli = Cli::parse();
    let n = cli.size(2_400, 600);
    let [by_load, by_affinity] =
        [RouterPolicy::LeastEstimatedLoad, AFFINITY].map(|r| deployments(r, n));
    let scenarios: Vec<Scenario> = by_load
        .into_iter()
        .zip(by_affinity.clone())
        .flat_map(<[Scenario; 2]>::from)
        .collect();
    let runs = run_all(&scenarios);

    let mut table = Table::new([
        "deployment",
        "router",
        "completed",
        "hit rate",
        "saved Mtok",
        "TTFT-ok %",
        "TTFT p99 s",
        "SLA-ok %",
        "GPU-seconds",
        "makespan s",
    ])
    .with_aligns(&[
        Left, Left, Right, Right, Right, Right, Right, Right, Right, Right,
    ]);
    for run in &runs {
        let (deployment, router) = run.name.split_once('/').expect("deployment/router");
        let h = &run.headline;
        let prefix = run.report.prefix_stats();
        table.row([
            deployment.to_string(),
            router.to_string(),
            h.completed.to_string(),
            pct(prefix.hit_rate()),
            format!("{:.2}", prefix.hit_tokens as f64 / 1e6),
            format!("{:.1}", h.ttft_attainment * 100.0),
            format!("{:.2}", h.ttft_p99_s),
            format!("{:.1}", h.sla_attainment * 100.0),
            format!("{:.0}", h.gpu_seconds),
            format!("{:.0}", run.report.makespan().as_secs_f64()),
        ]);
    }
    cli.emit(
        "prefix_routing",
        "KV-aware prefix-affinity routing vs least-estimated-load (multi-turn chat)",
        &table,
    );

    // Headline assertions: affinity wins TTFT attainment at equal
    // GPU-seconds with a real hit rate, in the colocated fleet and in the
    // disaggregated prefill pool.
    for mode in ["coloc-4", "disagg-2p2d"] {
        let load = by_name(&runs, &name(mode, RouterPolicy::LeastEstimatedLoad));
        let prefix = by_name(&runs, &name(mode, AFFINITY));
        let (load_hits, prefix_hits) = (load.report.prefix_stats(), prefix.report.prefix_stats());
        let (load, prefix) = (&load.headline, &prefix.headline);
        assert_eq!(prefix.completed, load.completed, "{mode}");
        assert!(
            prefix.ttft_attainment >= load.ttft_attainment,
            "{mode}: prefix-affinity TTFT attainment {:.3} below least-estimated-load {:.3}",
            prefix.ttft_attainment,
            load.ttft_attainment
        );
        assert!(
            prefix.gpu_seconds <= load.gpu_seconds * 1.02,
            "{mode}: prefix-affinity spent {:.0} GPU-s vs {:.0} — not a matched comparison",
            prefix.gpu_seconds,
            load.gpu_seconds
        );
        assert!(
            prefix_hits.hit_rate() > 0.0,
            "{mode}: prefix-affinity produced no cache hits"
        );
        assert!(
            prefix_hits.hit_tokens > load_hits.hit_tokens,
            "{mode}: affinity saved {} tokens vs {} under blind routing",
            prefix_hits.hit_tokens,
            load_hits.hit_tokens
        );
    }
    // Elastic sanity: the cache works behind the autoscaler too.
    let elastic = by_name(&runs, &name("elastic-1..4", AFFINITY));
    assert!(
        elastic.report.prefix_stats().hit_rate() > 0.0,
        "elastic: no cache hits"
    );

    // Deterministic replay: same inputs, bit-identical outcome.
    for mode in ["coloc-4", "disagg-2p2d"] {
        let first = by_name(&runs, &name(mode, AFFINITY));
        let scenario = by_affinity.iter().find(|s| s.name == first.name);
        let replay = scenario.expect("deployment").replay(first);
        assert_eq!(
            replay.report.prefix_stats(),
            first.report.prefix_stats(),
            "{mode}: non-deterministic prefix-cache stats"
        );
    }

    let coloc_load = &by_name(&runs, &name("coloc-4", RouterPolicy::LeastEstimatedLoad)).headline;
    let coloc_prefix = by_name(&runs, &name("coloc-4", AFFINITY));
    println!(
        "[ok] prefix-affinity: coloc TTFT-SLA {:.1}% vs {:.1}% at hit rate {}; \
         replay deterministic in coloc and disagg",
        coloc_prefix.headline.ttft_attainment * 100.0,
        coloc_load.ttft_attainment * 100.0,
        pct(coloc_prefix.report.prefix_stats().hit_rate()),
    );
}
