//! Extension: global KV-block index routing versus prefix affinity and
//! pure load routing on multi-tenant, multi-turn chat.
//!
//! Multi-turn sessions repeat their conversation history, and sessions of
//! one tenant share a long system prompt — reuse that only exists at
//! *block* granularity, because no session's whole prefix equals
//! another's. This experiment serves the same shared-sysprompt stream
//! (`datasets::shared_sysprompt_chat_timed`) under three routers:
//!
//! * [`RouterPolicy::LeastEstimatedLoad`] — the paper's §7 signal, blind
//!   to caches;
//! * [`RouterPolicy::PrefixAffinity`] — longest cached prefix wins, load
//!   breaks ties (reads the same event-fed index as `KvOverlap`);
//! * [`RouterPolicy::KvOverlap`] — cost-logit routing against the global
//!   event-driven [`pf_kvcache::KvIndexer`], trading cached overlap
//!   against load in one score;
//!
//! in three deployments (colocated fleet, elastic fleet, disaggregated
//! prefill/decode pools), every instance running the same block-granular
//! prefix store so only the routing signal differs.
//!
//! The run asserts the headline (overlap routing reaches at least
//! prefix-affinity's TTFT attainment at matched GPU-seconds with a real
//! hit rate, colocated and disaggregated), replays bit-identically —
//! including softmax routing at nonzero temperature — and sweeps the
//! index event-propagation delay to show how stale overlap scores decay
//! toward load-blind routing.
//!
//! ```text
//! cargo run --release -p pf-bench --bin kv_routing [-- --quick]
//! ```

use pf_bench::scenario::fleets::{prefix_base, prefix_deployments, PREFIX_BUDGET_FRAC};
use pf_bench::scenario::{by_name, run_all, Run, Scenario, Workload};
use pf_bench::{pct, Cli};
use pf_metrics::Align::{Left, Right};
use pf_metrics::{SimDuration, Table};
use pf_sim::cluster::RouterPolicy;
use pf_workload::{datasets, LengthSampler};

const BLOCK_TOKENS: u32 = 64;

/// The new stack: overlap scored against the global index, argmin pick.
const KV_OVERLAP: RouterPolicy = RouterPolicy::KvOverlap {
    overlap_weight: 1.0,
    temperature: 0.0,
};

const AFFINITY: RouterPolicy = RouterPolicy::PrefixAffinity {
    load_tiebreak: true,
};

fn name(deployment: &str, router: RouterPolicy, delay: SimDuration) -> String {
    format!(
        "{deployment}/{}/{:.2}s",
        router.label(),
        delay.as_secs_f64()
    )
}

/// The colocated, elastic and disaggregated deployments under `router`,
/// whose index sees KV events `delay` late, named by [`name`].
fn deployments(router: RouterPolicy, delay: SimDuration, n: usize) -> [Scenario; 3] {
    let mut config = prefix_base(67)
        .prefix_cache_blocks(PREFIX_BUDGET_FRAC, BLOCK_TOKENS)
        .build();
    config.router.kv_event_delay = delay;
    let [coloc, elastic, disagg] = prefix_deployments(config, router);
    // Two load points just past each deployment's prefill knee, as in
    // `prefix_routing`; comparisons are always within one deployment at
    // matched GPU-seconds.
    [
        ("coloc-4", coloc, 30.0),
        ("elastic-2..4", elastic, 11.0),
        ("disagg-2p2d", disagg, 11.0),
    ]
    .map(|(deployment, topology, sessions_per_sec)| {
        let name = name(deployment, router, delay);
        Scenario::new(name, 68, topology, move |seed| {
            tenant_chat(n, seed, sessions_per_sec)
        })
    })
}

/// Multi-tenant chat: short sessions (the shape that starves per-session
/// reuse — most requests are session openers) behind long tenant system
/// prompts, so the bulk of every opener's prefill is cross-session
/// reusable at block granularity only.
fn tenant_chat(n: usize, seed: u64, sessions_per_sec: f64) -> Workload {
    let spec = datasets::SharedSyspromptSpec {
        tenants: 24,
        system_prompt_len: 768,
        chat: datasets::MultiTurnSpec {
            system_prompt_len: 0, // replaced by the tenant prompt
            user_turn: LengthSampler::uniform(32, 160),
            assistant_turn: LengthSampler::uniform(24, 96),
            continue_prob: 0.6,
            concurrent_sessions: 8,
            max_new_tokens: 128,
            max_context: 2_048,
        },
    };
    let (requests, arrivals) =
        datasets::shared_sysprompt_chat_timed(n, seed, &spec, sessions_per_sec, 2.0, 2.0);
    Workload::Timed(requests, arrivals)
}

/// The fresh-index run of `router` in `mode`.
fn fresh<'a>(runs: &'a [Run], mode: &str, router: RouterPolicy) -> &'a Run {
    by_name(runs, &name(mode, router, SimDuration::ZERO))
}

fn main() {
    let cli = Cli::parse();
    let n = cli.size(2_400, 600);

    // 3 routers x 3 deployments, and the staleness sweep on the
    // colocated fleet (the first deployment).
    let [by_load, by_affinity, by_overlap] =
        [RouterPolicy::LeastEstimatedLoad, AFFINITY, KV_OVERLAP]
            .map(|router| deployments(router, SimDuration::ZERO, n));
    let staleness = [
        SimDuration::from_millis(250),
        SimDuration::from_secs(1),
        SimDuration::from_secs(4),
    ];
    let scenarios: Vec<Scenario> = (0..3)
        .flat_map(|i| [&by_load[i], &by_affinity[i], &by_overlap[i]])
        .cloned()
        .chain(staleness.map(|delay| deployments(KV_OVERLAP, delay, n)[0].clone()))
        .collect();
    let runs = run_all(&scenarios);

    let mut table = Table::new([
        "deployment",
        "router",
        "delay",
        "completed",
        "hit rate",
        "saved Mtok",
        "TTFT-ok %",
        "SLA-ok %",
        "GPU-seconds",
        "makespan s",
    ])
    .with_aligns(&[
        Left, Left, Right, Right, Right, Right, Right, Right, Right, Right,
    ]);
    for run in &runs {
        let (deployment, rest) = run.name.split_once('/').expect("deployment/...");
        let (router, delay) = rest.split_once('/').expect("router/delay");
        let h = &run.headline;
        let prefix = run.report.prefix_stats();
        table.row([
            deployment.to_string(),
            router.to_string(),
            delay.to_string(),
            h.completed.to_string(),
            pct(prefix.hit_rate()),
            format!("{:.2}", prefix.hit_tokens as f64 / 1e6),
            format!("{:.1}", h.ttft_attainment * 100.0),
            format!("{:.1}", h.sla_attainment * 100.0),
            format!("{:.0}", h.gpu_seconds),
            format!("{:.0}", run.report.makespan().as_secs_f64()),
        ]);
    }
    cli.emit(
        "kv_routing",
        "Global KV-block overlap routing vs prefix affinity vs least-estimated-load \
         (multi-tenant shared-sysprompt chat)",
        &table,
    );

    // Headline: overlap routing reaches at least prefix-affinity's (and
    // load routing's) TTFT attainment at matched GPU-seconds with a real
    // hit rate, colocated and disaggregated.
    for mode in ["coloc-4", "disagg-2p2d"] {
        let load = fresh(&runs, mode, RouterPolicy::LeastEstimatedLoad);
        let affinity = &fresh(&runs, mode, AFFINITY).headline;
        let kv = fresh(&runs, mode, KV_OVERLAP);
        let (load_hits, kv_hits) = (load.report.prefix_stats(), kv.report.prefix_stats());
        let (load, kv) = (&load.headline, &kv.headline);
        assert_eq!(kv.completed, load.completed, "{mode}");
        // The event-fed global index must match direct store probes, in
        // the colocated fleet and in the disaggregated prefill pool.
        assert!(
            kv.ttft_attainment >= affinity.ttft_attainment,
            "{mode}: overlap TTFT attainment {:.3} below prefix-affinity {:.3}",
            kv.ttft_attainment,
            affinity.ttft_attainment
        );
        assert!(
            kv.ttft_attainment >= load.ttft_attainment,
            "{mode}: overlap TTFT attainment {:.3} below least-estimated-load {:.3}",
            kv.ttft_attainment,
            load.ttft_attainment
        );
        assert!(
            kv.gpu_seconds <= load.gpu_seconds * 1.02,
            "{mode}: overlap spent {:.0} GPU-s vs {:.0} — not a matched comparison",
            kv.gpu_seconds,
            load.gpu_seconds
        );
        assert!(
            kv_hits.hit_rate() > 0.0,
            "{mode}: overlap routing produced no hits"
        );
        assert!(
            kv_hits.hit_tokens > load_hits.hit_tokens,
            "{mode}: overlap saved {} tokens vs {} under blind routing",
            kv_hits.hit_tokens,
            load_hits.hit_tokens
        );
    }
    let kv_coloc = fresh(&runs, "coloc-4", KV_OVERLAP);
    let kv_coloc_hits = kv_coloc.report.prefix_stats();
    // Elastic sanity: the index tracks members behind the autoscaler.
    let elastic = fresh(&runs, "elastic-2..4", KV_OVERLAP);
    assert!(
        elastic.report.prefix_stats().hit_rate() > 0.0,
        "elastic: no cache hits"
    );

    // Staleness: a never-propagating index cannot beat a fresh one. The
    // sweep rows print above; the endpoints must order.
    let stalest_delay = staleness[staleness.len() - 1];
    let stalest = by_name(&runs, &name("coloc-4", KV_OVERLAP, stalest_delay));
    assert!(
        kv_coloc_hits.hit_tokens >= stalest.report.prefix_stats().hit_tokens,
        "fresh index saved {} tokens but {:.2}s-stale saved {}",
        kv_coloc_hits.hit_tokens,
        stalest_delay.as_secs_f64(),
        stalest.report.prefix_stats().hit_tokens
    );

    // Deterministic replay: argmin overlap routing in coloc and disagg,
    // and softmax routing (nonzero temperature) in coloc, are all
    // bit-identical across reruns.
    for mode in ["coloc-4", "disagg-2p2d"] {
        let first = fresh(&runs, mode, KV_OVERLAP);
        let scenario = by_overlap.iter().find(|s| s.name == first.name);
        let replay = scenario.expect("deployment").replay(first);
        assert_eq!(
            replay.report.prefix_stats(),
            first.report.prefix_stats(),
            "{mode}: non-deterministic prefix-cache stats"
        );
    }
    let softmax = RouterPolicy::KvOverlap {
        overlap_weight: 1.0,
        temperature: 0.3,
    };
    let [softmax, ..] = deployments(softmax, SimDuration::from_millis(250), n);
    let soft_a = softmax.run(None);
    let soft_b = softmax.replay(&soft_a);
    assert_eq!(soft_a.report.prefix_stats(), soft_b.report.prefix_stats());

    let load_coloc = &fresh(&runs, "coloc-4", RouterPolicy::LeastEstimatedLoad).headline;
    println!(
        "[ok] kv-overlap: coloc TTFT-SLA {:.1}% vs affinity {:.1}% vs load {:.1}% at hit rate {}; \
         softmax + argmin replay deterministic; staleness sweep ordered",
        kv_coloc.headline.ttft_attainment * 100.0,
        fresh(&runs, "coloc-4", AFFINITY).headline.ttft_attainment * 100.0,
        load_coloc.ttft_attainment * 100.0,
        pct(kv_coloc_hits.hit_rate()),
    );
}
