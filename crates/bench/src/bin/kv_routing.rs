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
//!   breaks ties (probes every engine's store directly);
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
const BLOCK_TOKENS: u32 = 64;
const COLOC_INSTANCES: usize = 4;

/// The new stack: overlap scored against the global index, argmin pick.
const KV_OVERLAP: RouterPolicy = RouterPolicy::KvOverlap {
    overlap_weight: 1.0,
    temperature: 0.0,
};

const AFFINITY: RouterPolicy = RouterPolicy::PrefixAffinity {
    load_tiebreak: true,
};

/// Reserved-fraction scheduler as in `prefix_routing`: admission packs
/// request KV into the half of memory the cache does not own.
fn config(delay: SimDuration) -> SimConfig {
    let mut config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future_reserved(PREFIX_BUDGET_FRAC))
        .capacity_override(CAPACITY)
        .sla(SlaSpec::new(
            SimDuration::from_secs(2),
            SimDuration::from_millis(1_500),
        ))
        .record_series(false)
        .seed(67)
        .prefix_cache_blocks(PREFIX_BUDGET_FRAC, BLOCK_TOKENS)
        .build();
    config.router.kv_event_delay = delay;
    config
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
            Mode::Elastic => "elastic-2..4",
            Mode::Disagg => "disagg-2p2d",
        }
    }
}

#[derive(Clone)]
struct RowData {
    mode: Mode,
    router: RouterPolicy,
    delay: SimDuration,
    completed: usize,
    prefix: PrefixCacheStats,
    ttft_attainment: f64,
    sla_attainment: f64,
    gpu_seconds: f64,
    makespan_s: f64,
    /// Routing fingerprint for the determinism check.
    routed: Vec<usize>,
}

struct Job {
    mode: Mode,
    router: RouterPolicy,
    delay: SimDuration,
}

fn run_job(job: &Job, requests: Vec<RequestSpec>, arrivals: Vec<SimTime>) -> RowData {
    let config = config(job.delay);
    match job.mode {
        Mode::Coloc => {
            let report = ClusterSimulation::new(config, COLOC_INSTANCES, job.router)
                .run(requests, arrivals)
                .expect("colocated run");
            let makespan = report.makespan().as_secs_f64();
            RowData {
                mode: job.mode,
                router: job.router,
                delay: job.delay,
                completed: report.completed(),
                prefix: report.prefix_stats(),
                ttft_attainment: report.ttft_attainment(),
                sla_attainment: report.satisfied() as f64 / report.completed().max(1) as f64,
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
            let report = ElasticCluster::new(config, autoscale, 4)
                .router(job.router)
                .run(requests, arrivals)
                .expect("elastic run");
            RowData {
                mode: job.mode,
                router: job.router,
                delay: job.delay,
                completed: report.completed(),
                prefix: report.prefix_stats(),
                ttft_attainment: report.ttft_attainment(),
                sla_attainment: report.sla_attainment(),
                gpu_seconds: report.gpu_seconds(),
                makespan_s: report.makespan.as_secs_f64(),
                routed: report.instances.iter().map(|i| i.routed).collect(),
            }
        }
        Mode::Disagg => {
            let report = DisaggCluster::new(DisaggConfig::new(config).router(job.router), 2, 2)
                .run(requests, arrivals)
                .expect("disagg run");
            RowData {
                mode: job.mode,
                router: job.router,
                delay: job.delay,
                completed: report.completed(),
                prefix: report.prefix_stats,
                ttft_attainment: report.ttft_attainment(),
                sla_attainment: report.sla_attainment(),
                gpu_seconds: report.gpu_seconds(),
                makespan_s: report.makespan.as_secs_f64(),
                routed: report.prefill.instances.iter().map(|i| i.routed).collect(),
            }
        }
    }
}

fn find(rows: &[RowData], mode: Mode, router: RouterPolicy) -> &RowData {
    rows.iter()
        .find(|r| r.mode == mode && r.router == router && r.delay.is_zero())
        .unwrap_or_else(|| panic!("missing row {} / {}", mode.label(), router.label()))
}

fn main() {
    let cli = Cli::parse();

    // Multi-tenant chat: short sessions (the shape that starves
    // per-session reuse — most requests are session openers) behind long
    // tenant system prompts, so the bulk of every opener's prefill is
    // cross-session reusable at block granularity only.
    let n = cli.size(2_400, 600);
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
    // Two load points just past each deployment's prefill knee, as in
    // `prefix_routing`; comparisons are always within one deployment at
    // matched GPU-seconds.
    let coloc = datasets::shared_sysprompt_chat_timed(n, 68, &spec, 30.0, 2.0, 2.0);
    let scaled = datasets::shared_sysprompt_chat_timed(n, 68, &spec, 11.0, 2.0, 2.0);
    let stream = |mode: Mode| match mode {
        Mode::Coloc => coloc.clone(),
        Mode::Elastic | Mode::Disagg => scaled.clone(),
    };

    // 3 routers x 3 deployments, and the staleness sweep.
    let mut jobs_spec: Vec<Job> = [Mode::Coloc, Mode::Elastic, Mode::Disagg]
        .into_iter()
        .flat_map(|mode| {
            [RouterPolicy::LeastEstimatedLoad, AFFINITY, KV_OVERLAP]
                .into_iter()
                .map(move |router| Job {
                    mode,
                    router,
                    delay: SimDuration::ZERO,
                })
        })
        .collect();
    let staleness = [
        SimDuration::from_millis(250),
        SimDuration::from_secs(1),
        SimDuration::from_secs(4),
    ];
    for delay in staleness {
        jobs_spec.push(Job {
            mode: Mode::Coloc,
            router: KV_OVERLAP,
            delay,
        });
    }

    let jobs: Vec<Box<dyn FnOnce() -> RowData + Send>> = jobs_spec
        .into_iter()
        .map(|job| {
            let (requests, arrivals) = stream(job.mode);
            Box::new(move || run_job(&job, requests, arrivals))
                as Box<dyn FnOnce() -> RowData + Send>
        })
        .collect();
    let rows = run_parallel(jobs, default_threads());

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
            format!("{:.2}s", row.delay.as_secs_f64()),
            row.completed.to_string(),
            pct(row.prefix.hit_rate()),
            format!("{:.2}", row.prefix.hit_tokens as f64 / 1e6),
            format!("{:.1}", row.ttft_attainment * 100.0),
            format!("{:.1}", row.sla_attainment * 100.0),
            format!("{:.0}", row.gpu_seconds),
            format!("{:.0}", row.makespan_s),
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
    for mode in [Mode::Coloc, Mode::Disagg] {
        let load = find(&rows, mode, RouterPolicy::LeastEstimatedLoad);
        let affinity = find(&rows, mode, AFFINITY);
        let kv = find(&rows, mode, KV_OVERLAP);
        assert_eq!(kv.completed, load.completed, "{}", mode.label());
        // The event-fed global index must match direct store probes, in
        // the colocated fleet and in the disaggregated prefill pool.
        assert!(
            kv.ttft_attainment >= affinity.ttft_attainment,
            "{}: overlap TTFT attainment {:.3} below prefix-affinity {:.3}",
            mode.label(),
            kv.ttft_attainment,
            affinity.ttft_attainment
        );
        assert!(
            kv.ttft_attainment >= load.ttft_attainment,
            "{}: overlap TTFT attainment {:.3} below least-estimated-load {:.3}",
            mode.label(),
            kv.ttft_attainment,
            load.ttft_attainment
        );
        assert!(
            kv.gpu_seconds <= load.gpu_seconds * 1.02,
            "{}: overlap spent {:.0} GPU-s vs {:.0} — not a matched comparison",
            mode.label(),
            kv.gpu_seconds,
            load.gpu_seconds
        );
        assert!(
            kv.prefix.hit_rate() > 0.0,
            "{}: overlap routing produced no hits",
            mode.label()
        );
        assert!(
            kv.prefix.hit_tokens > load.prefix.hit_tokens,
            "{}: overlap saved {} tokens vs {} under blind routing",
            mode.label(),
            kv.prefix.hit_tokens,
            load.prefix.hit_tokens
        );
    }
    let kv_coloc = find(&rows, Mode::Coloc, KV_OVERLAP);
    // Elastic sanity: the index tracks members behind the autoscaler.
    let elastic = find(&rows, Mode::Elastic, KV_OVERLAP);
    assert!(elastic.prefix.hit_rate() > 0.0, "elastic: no cache hits");

    // Staleness: a never-propagating index cannot beat a fresh one. The
    // sweep rows print above; the endpoints must order.
    let stalest = rows
        .iter()
        .filter(|r| r.router == KV_OVERLAP && r.mode == Mode::Coloc)
        .max_by_key(|r| r.delay)
        .expect("sweep rows");
    assert!(
        kv_coloc.prefix.hit_tokens >= stalest.prefix.hit_tokens,
        "fresh index saved {} tokens but {:.2}s-stale saved {}",
        kv_coloc.prefix.hit_tokens,
        stalest.delay.as_secs_f64(),
        stalest.prefix.hit_tokens
    );

    // Deterministic replay: argmin overlap routing in coloc and disagg,
    // and softmax routing (nonzero temperature) in coloc, are all
    // bit-identical across reruns.
    for mode in [Mode::Coloc, Mode::Disagg] {
        let first = find(&rows, mode, KV_OVERLAP);
        let (requests, arrivals) = stream(mode);
        let replay = run_job(
            &Job {
                mode,
                router: KV_OVERLAP,
                delay: SimDuration::ZERO,
            },
            requests,
            arrivals,
        );
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
    let softmax_job = || Job {
        mode: Mode::Coloc,
        router: RouterPolicy::KvOverlap {
            overlap_weight: 1.0,
            temperature: 0.3,
        },
        delay: SimDuration::from_millis(250),
    };
    let (requests, arrivals) = stream(Mode::Coloc);
    let soft_a = run_job(&softmax_job(), requests.clone(), arrivals.clone());
    let soft_b = run_job(&softmax_job(), requests, arrivals);
    assert_eq!(soft_a.routed, soft_b.routed, "softmax routing must replay");
    assert_eq!(soft_a.makespan_s, soft_b.makespan_s);
    assert_eq!(soft_a.prefix, soft_b.prefix);

    let load_coloc = find(&rows, Mode::Coloc, RouterPolicy::LeastEstimatedLoad);
    println!(
        "[ok] kv-overlap: coloc TTFT-SLA {:.1}% vs affinity {:.1}% vs load {:.1}% at hit rate {}; \
         softmax + argmin replay deterministic; staleness sweep ordered",
        kv_coloc.ttft_attainment * 100.0,
        find(&rows, Mode::Coloc, AFFINITY).ttft_attainment * 100.0,
        load_coloc.ttft_attainment * 100.0,
        pct(kv_coloc.prefix.hit_rate()),
    );
}
