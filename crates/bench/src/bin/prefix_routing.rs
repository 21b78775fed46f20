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
//! * **colocated** — a fixed [`ClusterSimulation`] fleet;
//! * **elastic** — an autoscaled [`ElasticCluster`];
//! * **disagg** — a fixed [`DisaggCluster`], where prefix hits shrink the
//!   dedicated prefill pool's passes directly.
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

use pf_autoscale::{AutoscaleConfig, PredictorKind};
use pf_bench::{default_threads, pct, run_parallel, Cli};
use pf_core::SchedulerConfig;
use pf_kvcache::PrefixCacheStats;
use pf_metrics::{Align, SimDuration, SimTime, SlaSpec, Table};
use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
use pf_sim::disagg::{DisaggCluster, DisaggConfig};
use pf_sim::elastic::ElasticCluster;
use pf_sim::{GpuSpec, ModelSpec, SimConfig};
use pf_workload::{datasets, LengthSampler, RequestSpec};

const CAPACITY: u64 = 48_000;
const PREFIX_BUDGET_FRAC: f64 = 0.5;
const COLOC_INSTANCES: usize = 4;

/// The scheduler's reserved fraction matches the cache budget: admission
/// packs request KV into the other half of memory, so a saturated queue
/// does not squeeze the prefix cache to zero (the same split a real
/// deployment makes when it provisions prefix-cache blocks).
fn base_config() -> SimConfig {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future_reserved(PREFIX_BUDGET_FRAC))
        .capacity_override(CAPACITY)
        .prefix_cache(PREFIX_BUDGET_FRAC)
        // Interactive-chat TTFT bound: multi-turn users notice first-token
        // stalls far sooner than the 10 s batch-style default.
        .sla(SlaSpec::new(
            SimDuration::from_secs(2),
            SimDuration::from_millis(1_500),
        ))
        .record_series(false)
        .seed(61)
        .build()
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Coloc,
    Elastic,
    Disagg,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Coloc => "coloc-4",
            Mode::Elastic => "elastic-1..4",
            Mode::Disagg => "disagg-2p2d",
        }
    }
}

#[derive(Clone)]
struct RowData {
    mode: Mode,
    router: RouterPolicy,
    completed: usize,
    prefix: PrefixCacheStats,
    ttft_attainment: f64,
    ttft_p99_secs: f64,
    sla_attainment: f64,
    gpu_seconds: f64,
    makespan_s: f64,
    /// Routing fingerprint for the determinism check (requests per
    /// instance, in spawn order).
    routed: Vec<usize>,
}

fn run_mode(
    mode: Mode,
    router: RouterPolicy,
    requests: Vec<RequestSpec>,
    arrivals: Vec<SimTime>,
) -> RowData {
    match mode {
        Mode::Coloc => {
            let report = ClusterSimulation::new(base_config(), COLOC_INSTANCES, router)
                .run(requests, arrivals)
                .expect("colocated run");
            let makespan = report.makespan().as_secs_f64();
            RowData {
                mode,
                router,
                completed: report.completed(),
                prefix: report.prefix_stats(),
                ttft_attainment: report.ttft_attainment(),
                ttft_p99_secs: ttft_p99(&report.instances),
                sla_attainment: report.satisfied() as f64 / report.completed().max(1) as f64,
                // A fixed fleet is provisioned for the whole run.
                gpu_seconds: COLOC_INSTANCES as f64 * makespan,
                makespan_s: makespan,
                routed: report.routed_per_instance.clone(),
            }
        }
        Mode::Elastic => {
            let autoscale = AutoscaleConfig::bounded(2, COLOC_INSTANCES)
                .interval(SimDuration::from_secs(10))
                .warmup(SimDuration::from_secs(20))
                .predictor(PredictorKind::holt())
                .initial_lengths(900.0, 150.0);
            let report = ElasticCluster::new(base_config(), autoscale, 4)
                .router(router)
                .run(requests, arrivals)
                .expect("elastic run");
            RowData {
                mode,
                router,
                completed: report.completed(),
                prefix: report.prefix_stats(),
                ttft_attainment: report.ttft_attainment(),
                ttft_p99_secs: report.goodput.ttft_secs.p99,
                sla_attainment: report.sla_attainment(),
                gpu_seconds: report.gpu_seconds(),
                makespan_s: report.makespan.as_secs_f64(),
                routed: report.instances.iter().map(|i| i.routed).collect(),
            }
        }
        Mode::Disagg => {
            let report = DisaggCluster::new(DisaggConfig::new(base_config()).router(router), 2, 2)
                .run(requests, arrivals)
                .expect("disagg run");
            RowData {
                mode,
                router,
                completed: report.completed(),
                prefix: report.prefix_stats,
                ttft_attainment: report.ttft_attainment(),
                ttft_p99_secs: report.goodput.ttft_secs.p99,
                sla_attainment: report.sla_attainment(),
                gpu_seconds: report.gpu_seconds(),
                makespan_s: report.makespan.as_secs_f64(),
                routed: report.prefill.instances.iter().map(|i| i.routed).collect(),
            }
        }
    }
}

fn ttft_p99(instances: &[pf_sim::SimReport]) -> f64 {
    let mut ttfts: Vec<f64> = instances
        .iter()
        .flat_map(|r| r.outcomes.iter())
        .filter_map(|o| o.timing.ttft().map(|t| t.as_secs_f64()))
        .collect();
    ttfts.sort_by(f64::total_cmp);
    if ttfts.is_empty() {
        return 0.0;
    }
    let rank = ((ttfts.len() as f64) * 0.99).ceil() as usize;
    ttfts[rank.saturating_sub(1).min(ttfts.len() - 1)]
}

fn find(rows: &[RowData], mode: Mode, router: RouterPolicy) -> &RowData {
    rows.iter()
        .find(|r| r.mode == mode && r.router == router)
        .unwrap_or_else(|| panic!("missing row {} / {}", mode.label(), router.label()))
}

fn main() {
    let cli = Cli::parse();

    // Session-structured chat at a rate that pressures prefill: the
    // conversation prefixes grow to ~3k tokens, so blind routing pays a
    // full re-prefill of the history almost every turn.
    let n = cli.size(2_400, 600);
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
    // answer plus think time, as real users do (open-loop assignment would
    // deliver turn k+1 before turn k finished at exactly the loads where
    // TTFT matters, making prefix reuse impossible for any router).
    //
    // Two load points, each just past its deployment's prefill knee: the
    // 4-engine colocated fleet takes the full stream; the disaggregated
    // split (only two prefill GPUs) and the elastic fleet (averages fewer
    // than four live replicas) take a 0.8x stream. Comparisons are always
    // within one deployment at matched GPU-seconds.
    let coloc = datasets::multi_turn_chat_timed(n, 62, &spec, 10.5, 2.0, 2.0);
    let scaled = datasets::multi_turn_chat_timed(n, 62, &spec, 7.2, 2.0, 2.0);
    let stream = |mode: Mode| match mode {
        Mode::Coloc => coloc.clone(),
        Mode::Elastic | Mode::Disagg => scaled.clone(),
    };

    let affinity = RouterPolicy::PrefixAffinity {
        load_tiebreak: true,
    };
    let combos: Vec<(Mode, RouterPolicy)> = [Mode::Coloc, Mode::Elastic, Mode::Disagg]
        .into_iter()
        .flat_map(|mode| [(mode, RouterPolicy::LeastEstimatedLoad), (mode, affinity)])
        .collect();
    let jobs: Vec<Box<dyn FnOnce() -> RowData + Send>> = combos
        .iter()
        .map(|&(mode, router)| {
            let (requests, arrivals) = stream(mode);
            Box::new(move || run_mode(mode, router, requests, arrivals))
                as Box<dyn FnOnce() -> RowData + Send>
        })
        .collect();
    let rows = run_parallel(jobs, default_threads());

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
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for row in &rows {
        table.row([
            row.mode.label().to_string(),
            row.router.label().to_string(),
            row.completed.to_string(),
            pct(row.prefix.hit_rate()),
            format!("{:.2}", row.prefix.hit_tokens as f64 / 1e6),
            format!("{:.1}", row.ttft_attainment * 100.0),
            format!("{:.2}", row.ttft_p99_secs),
            format!("{:.1}", row.sla_attainment * 100.0),
            format!("{:.0}", row.gpu_seconds),
            format!("{:.0}", row.makespan_s),
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
    for mode in [Mode::Coloc, Mode::Disagg] {
        let load = find(&rows, mode, RouterPolicy::LeastEstimatedLoad);
        let prefix = find(&rows, mode, affinity);
        assert_eq!(prefix.completed, load.completed, "{}", mode.label());
        assert!(
            prefix.ttft_attainment >= load.ttft_attainment,
            "{}: prefix-affinity TTFT attainment {:.3} below least-estimated-load {:.3}",
            mode.label(),
            prefix.ttft_attainment,
            load.ttft_attainment
        );
        assert!(
            prefix.gpu_seconds <= load.gpu_seconds * 1.02,
            "{}: prefix-affinity spent {:.0} GPU-s vs {:.0} — not a matched comparison",
            mode.label(),
            prefix.gpu_seconds,
            load.gpu_seconds
        );
        assert!(
            prefix.prefix.hit_rate() > 0.0,
            "{}: prefix-affinity produced no cache hits",
            mode.label()
        );
        assert!(
            prefix.prefix.hit_tokens > load.prefix.hit_tokens,
            "{}: affinity saved {} tokens vs {} under blind routing",
            mode.label(),
            prefix.prefix.hit_tokens,
            load.prefix.hit_tokens
        );
    }
    // Elastic sanity: the cache works behind the autoscaler too.
    let elastic = find(&rows, Mode::Elastic, affinity);
    assert!(elastic.prefix.hit_rate() > 0.0, "elastic: no cache hits");

    // Deterministic replay: same inputs, bit-identical outcome.
    for mode in [Mode::Coloc, Mode::Disagg] {
        let first = find(&rows, mode, affinity);
        let (requests, arrivals) = stream(mode);
        let replay = run_mode(mode, affinity, requests, arrivals);
        assert_eq!(
            replay.makespan_s,
            first.makespan_s,
            "{}: non-deterministic makespan",
            mode.label()
        );
        assert_eq!(
            replay.routed,
            first.routed,
            "{}: non-deterministic routing",
            mode.label()
        );
        assert_eq!(
            replay.prefix,
            first.prefix,
            "{}: non-deterministic prefix-cache stats",
            mode.label()
        );
    }

    let coloc_load = find(&rows, Mode::Coloc, RouterPolicy::LeastEstimatedLoad);
    let coloc_prefix = find(&rows, Mode::Coloc, affinity);
    println!(
        "[ok] prefix-affinity: coloc TTFT-SLA {:.1}% vs {:.1}% at hit rate {}; \
         replay deterministic in coloc and disagg",
        coloc_prefix.ttft_attainment * 100.0,
        coloc_load.ttft_attainment * 100.0,
        pct(coloc_prefix.prefix.hit_rate()),
    );
}
