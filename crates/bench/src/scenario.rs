//! The scenario registry: every run the benches and the golden suite make,
//! as plain Rust values.
//!
//! A [`Scenario`] names a [`Topology`] (one engine, a fixed cluster, an
//! elastic fleet, or fixed or autoscaled disaggregated pools) with its
//! configs, a [`Workload`] builder and a seed. Every topology serves every
//! workload (offline, timed or closed-loop clients). [`Scenario::run`]
//! builds the workload from the seed, runs the topology and returns the
//! one [`FleetReport`] every topology shares, with its [`Headline`] and
//! its [`fingerprint`], a 64-bit hash of every field of the report.
//!
//! Most scenarios start from [`base`], the Llama2-7B on A100-80G
//! deployment, and arrive on a [`steady`] cadence, a seeded stream or
//! from closed-loop clients. A bench's scenarios are built by a function
//! of the workload seed and the size, so a sweep can rerun them over a
//! seed bank and a test can read the very runs a bench prints.
//!
//! [`goldens`] is the pinned subset: the test suite fingerprints each of
//! its runs against `tests/golden/report_fingerprints.txt`, explains any
//! drift with the headline digests in `tests/golden/report_digests.tsv`,
//! and checks each run's request ledger.
//!
//! The experiments, one binary each under `src/bin` (all accept `--quick`
//! and `--out <dir>`):
//!
//! * paper figures and tables, each a scenario list from [`paper`]:
//!   `fig1`, `fig7`, `fig8`, `fig9`, `table1`, `table2`, and the
//!   Past-Future ablations `ablation` (sampling passes and history
//!   window); `fig3`–`fig6` run no simulation (length-history similarity
//!   and the admission rule on toy batches);
//! * fleet extensions, each a scenario list plus its claim:
//!   `cluster_routing`, `autoscale` and `disagg` (their fleets in
//!   [`fleets`]), `kv_streaming`, `prefix_routing`, `kv_routing`,
//!   `hetero_fleet`, `deadline_sched`, `trace_replay` and `trace_viz`;
//! * `sweep` reruns the headline scenarios over a seed bank, and
//!   `simulate` runs one configurable deployment.

pub mod fleets;
pub mod paper;

use std::sync::Arc;

use pf_autoscale::{AutoscaleConfig, PolicyConfig, PredictorKind};
use pf_core::SchedulerConfig;
use pf_kvcache::PrefixCacheStats;
use pf_metrics::{GoodputReport, SimDuration, SimTime, StepSeries, Summary, ViolationCounts};
use pf_obs::TraceSink;
use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
use pf_sim::disagg::{DisaggCluster, DisaggConfig, KvTransferSpec, RepurposeEvent, TransferStats};
use pf_sim::elastic::ElasticCluster;
use pf_sim::fleet::ScalingEvent;
use pf_sim::{
    BatchingMode, EvictionMode, FleetReport, GpuSpec, GpuType, Headline, KvLayout, MemberReport,
    ModelSpec, PrefillMode, QueueOrder, RequestOutcome, RouterConfig, SimConfig, SimConfigBuilder,
    SimReport, Simulation,
};
use pf_workload::rng::seeded;
use pf_workload::{datasets, LengthSampler, PoissonArrivals, RequestSpec};

pub use pf_sim::Workload;

use crate::{default_threads, run_parallel};

/// The deployment most scenarios start from: Llama2-7B on one A100-80G,
/// Past-Future scheduling, no utilization series, seeded.
pub fn base(seed: u64) -> SimConfigBuilder {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .record_series(false)
        .seed(seed)
}

/// `n` arrivals `gap_ms` apart, the first at t = 0.
pub fn steady(n: usize, gap_ms: u64) -> Vec<SimTime> {
    (0..n)
        .map(|i| SimTime::from_millis(gap_ms * i as u64))
        .collect()
}

/// `requests` arriving open-loop at `rate` req/s, on the arrival stream
/// seeded by `seed`.
pub fn poisson(requests: Vec<RequestSpec>, rate: f64, seed: u64) -> Workload {
    let arrivals = PoissonArrivals::new(rate).assign(&mut seeded(seed), requests.len());
    Workload::Timed(requests, arrivals)
}

/// A deployment shape with its configs; each variant mirrors the
/// constructor of the pf-sim type that runs it.
#[derive(Debug, Clone)]
pub enum Topology {
    /// One colocated engine ([`Simulation`]).
    Single(SimConfig),
    /// A fixed fleet behind one router, one config per instance
    /// ([`ClusterSimulation::heterogeneous`]).
    Cluster {
        /// Per-instance configs.
        configs: Vec<SimConfig>,
        /// Front-end routing policy.
        policy: RouterPolicy,
    },
    /// An autoscaled colocated fleet ([`ElasticCluster`]).
    Elastic {
        /// Replica config.
        base: SimConfig,
        /// Planner settings and replica bounds.
        autoscale: AutoscaleConfig,
        /// Replicas live at t = 0.
        initial: usize,
        /// Front-end routing policy.
        router: RouterPolicy,
        /// GPU type per provisioning slot (empty = reference type).
        fleet: Vec<GpuType>,
    },
    /// Prefill and decode pools ([`DisaggCluster`]), fixed or
    /// independently autoscaled.
    Disagg {
        /// Pool configs.
        config: DisaggConfig,
        /// Prefill instances (live at t = 0 when autoscaled).
        prefill: usize,
        /// Decode instances (live at t = 0 when autoscaled).
        decode: usize,
        /// Prefill- and decode-pool planners ([`DisaggCluster::autoscale`]).
        autoscale: Option<(AutoscaleConfig, AutoscaleConfig)>,
    },
}

impl Topology {
    /// `instances` copies of `config` behind `policy`, seeded per instance
    /// exactly as [`ClusterSimulation::new`] seeds them.
    pub fn cluster(config: SimConfig, instances: usize, policy: RouterPolicy) -> Topology {
        let configs = (0..instances)
            .map(|i| SimConfig {
                seed: config.seed.wrapping_add(i as u64),
                ..config.clone()
            })
            .collect();
        Topology::Cluster { configs, policy }
    }

    /// An elastic fleet of reference GPUs behind least-estimated-load
    /// routing (the [`ElasticCluster`] defaults).
    pub fn elastic(base: SimConfig, autoscale: AutoscaleConfig, initial: usize) -> Topology {
        Topology::Elastic {
            base,
            autoscale,
            initial,
            router: RouterPolicy::LeastEstimatedLoad,
            fleet: Vec::new(),
        }
    }

    /// The fixed `prefill`p + `decode`d split of `config`.
    pub fn disagg(config: DisaggConfig, prefill: usize, decode: usize) -> Topology {
        Topology::Disagg {
            config,
            prefill,
            decode,
            autoscale: None,
        }
    }
}

/// One finished scenario run.
#[derive(Debug)]
pub struct Run {
    /// The scenario's name.
    pub name: String,
    /// The run's report.
    pub report: FleetReport,
    /// Its headline numbers.
    pub headline: Headline,
    /// The report's [`fingerprint`].
    pub fingerprint: u64,
}

/// Builds a scenario's workload from its seed.
pub type WorkloadFn = Arc<dyn Fn(u64) -> Workload + Send + Sync>;

/// A named, seeded run: a topology, and a workload built from the seed.
#[derive(Clone)]
pub struct Scenario {
    /// Label in tables and golden files.
    pub name: String,
    /// Seed the workload is built from (topology configs carry their own).
    pub seed: u64,
    /// The deployment.
    pub topology: Topology,
    /// The workload builder.
    pub workload: WorkloadFn,
}

impl Scenario {
    /// A scenario from its parts.
    pub fn new(
        name: impl Into<String>,
        seed: u64,
        topology: Topology,
        workload: impl Fn(u64) -> Workload + Send + Sync + 'static,
    ) -> Scenario {
        Scenario {
            name: name.into(),
            seed,
            topology,
            workload: Arc::new(workload),
        }
    }

    /// The workload this scenario serves.
    pub fn workload(&self) -> Workload {
        (self.workload)(self.seed)
    }

    /// Runs the scenario, feeding lifecycle events to `sink` if given.
    ///
    /// The fingerprint ([`fingerprint`]) hashes every field of the report,
    /// so any change to admission order, clock arithmetic, RNG
    /// consumption, preemption, routing or scaling shifts it.
    ///
    /// # Panics
    ///
    /// Panics, naming the scenario, if the simulation rejects its
    /// deployment or workload.
    pub fn run(&self, sink: Option<&mut dyn TraceSink>) -> Run {
        let workload = self.workload();
        let report = match self.topology.clone() {
            Topology::Single(config) => Simulation::new(config, workload).fleet_report(sink),
            Topology::Cluster { configs, policy } => {
                ClusterSimulation::heterogeneous(configs, policy).run_workload(workload, sink)
            }
            Topology::Elastic {
                base,
                autoscale,
                initial,
                router,
                fleet,
            } => {
                let mut cluster = ElasticCluster::new(base, autoscale, initial).router(router);
                if !fleet.is_empty() {
                    cluster = cluster.fleet(fleet);
                }
                cluster.run_workload(workload, sink)
            }
            Topology::Disagg {
                config,
                prefill,
                decode,
                autoscale,
            } => {
                let mut cluster = DisaggCluster::new(config, prefill, decode);
                if let Some((prefill, decode)) = autoscale {
                    cluster = cluster.autoscale(prefill, decode);
                }
                cluster.run_workload(workload, sink)
            }
        }
        .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        Run {
            name: self.name.clone(),
            headline: report.headline(),
            fingerprint: fingerprint(&report),
            report,
        }
    }

    /// Runs the scenario again, untraced, and returns the replay.
    ///
    /// # Panics
    ///
    /// Panics, naming the scenario, unless the replay reproduces `run`'s
    /// fingerprint and headline bit for bit.
    pub fn replay(&self, run: &Run) -> Run {
        let replay = self.run(None);
        assert_eq!(
            (replay.fingerprint, replay.headline),
            (run.fingerprint, run.headline),
            "{}: non-deterministic replay",
            self.name
        );
        replay
    }
}

/// Runs every scenario untraced on parallel workers; results come back in
/// input order.
pub fn run_all(scenarios: &[Scenario]) -> Vec<Run> {
    let jobs: Vec<_> = scenarios.iter().map(|s| move || s.run(None)).collect();
    run_parallel(jobs, default_threads())
}

/// The run of the scenario called `name`.
///
/// # Panics
///
/// Panics if no run has that name.
pub fn by_name<'a>(runs: &'a [Run], name: &str) -> &'a Run {
    runs.iter()
        .find(|run| run.name == name)
        .unwrap_or_else(|| panic!("no scenario named {name}"))
}

/// FNV-1a over every field of a run's report: each member's lifecycle and
/// engine report ([`sim_fingerprint`]), the request ledger, the goodput,
/// the fleet's outcome stream, scaling and repurposing decisions, link
/// totals and replica series. Each struct is destructured whole, so a
/// field added to the report fails to compile here until it is hashed.
pub fn fingerprint(report: &FleetReport) -> u64 {
    let FleetReport {
        instances,
        issued,
        timed_out,
        unserved,
        unrouted,
        goodput,
        makespan,
        prefix_stats,
        outcomes,
        events,
        repurposes,
        transfers,
        series,
    } = report;
    let mut h = Fnv::new();
    h.word(instances.len() as u64);
    for member in instances {
        let MemberReport {
            pool,
            gpu,
            spawned_at,
            stopped_at,
            routed,
            served,
            report,
        } = member;
        h.word(*pool as u64);
        h.str(gpu.name);
        h.f64(gpu.cost_weight);
        h.f64(gpu.perf_scale);
        h.time(*spawned_at);
        h.time(*stopped_at);
        h.word(*routed as u64);
        h.word(*served as u64);
        h.word(sim_fingerprint(report));
    }
    for n in [issued, timed_out, unserved, unrouted] {
        h.word(*n as u64);
    }
    hash_goodput(&mut h, goodput);
    h.word(makespan.as_micros());
    hash_prefix_stats(&mut h, prefix_stats);
    hash_outcomes(&mut h, outcomes);
    h.word(events.len() as u64);
    for ScalingEvent { at, pool, from, to } in events {
        h.time(*at);
        h.word(*pool as u64);
        h.word(*from as u64);
        h.word(*to as u64);
    }
    h.word(repurposes.len() as u64);
    for RepurposeEvent {
        at,
        direction,
        prefill_member,
        decode_member,
    } in repurposes
    {
        h.time(*at);
        h.word(*direction as u64);
        h.word(*prefill_member as u64);
        h.word(*decode_member as u64);
    }
    let TransferStats {
        transfers,
        total_bytes,
        total_link_secs,
        streamed,
        total_tail_secs,
        in_flight,
    } = transfers;
    h.word(*transfers as u64);
    h.word(*total_bytes);
    h.f64(*total_link_secs);
    h.word(*streamed as u64);
    h.f64(*total_tail_secs);
    h.word(*in_flight as u64);
    h.word(series.len() as u64);
    for (name, points) in series.iter() {
        h.str(name);
        hash_series(&mut h, points);
    }
    h.0
}

/// FNV-1a over every field of one engine's report: the word each member
/// contributes to [`fingerprint`].
pub fn sim_fingerprint(r: &SimReport) -> u64 {
    let SimReport {
        scheduler_name,
        goodput,
        decode_steps,
        prefill_steps,
        evictions,
        completed,
        unfinished,
        timed_out,
        makespan,
        capacity_tokens,
        avg_consumed_frac,
        avg_future_required_frac,
        peak_consumed_frac,
        consumed_series,
        future_required_series,
        queue_series,
        prefix_stats,
        prefix_cached_tokens,
        kv_used_tokens_end,
        outcomes,
    } = r;
    let mut h = Fnv::new();
    h.str(scheduler_name);
    for n in [completed, unfinished, timed_out] {
        h.word(*n as u64);
    }
    for n in [decode_steps, prefill_steps, evictions, capacity_tokens] {
        h.word(*n);
    }
    h.word(makespan.as_micros());
    for v in [
        avg_consumed_frac,
        avg_future_required_frac,
        peak_consumed_frac,
    ] {
        h.f64(*v);
    }
    for series in [consumed_series, future_required_series, queue_series] {
        hash_series(&mut h, series);
    }
    hash_prefix_stats(&mut h, prefix_stats);
    h.word(*prefix_cached_tokens);
    h.word(*kv_used_tokens_end);
    hash_goodput(&mut h, goodput);
    hash_outcomes(&mut h, outcomes);
    h.0
}

/// FNV-1a over a stream of u64 words (stable, dependency-free).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn time(&mut self, t: SimTime) {
        self.word(t.saturating_since(SimTime::ZERO).as_micros());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for byte in s.bytes() {
            self.word(u64::from(byte));
        }
    }
}

fn hash_summary(h: &mut Fnv, s: &Summary) {
    h.word(s.count as u64);
    for v in [s.mean, s.std_dev, s.min, s.max, s.p50, s.p90, s.p99] {
        h.f64(v);
    }
}

fn hash_goodput(h: &mut Fnv, g: &GoodputReport) {
    let GoodputReport {
        total_requests,
        satisfied_requests,
        total_output_tokens,
        satisfied_output_tokens,
        duration,
        throughput_tok_per_s,
        goodput_tok_per_s,
        ttft_secs,
        mtpot_secs,
        violations,
    } = g;
    h.word(*total_requests as u64);
    h.word(*satisfied_requests as u64);
    h.word(*total_output_tokens);
    h.word(*satisfied_output_tokens);
    h.word(duration.as_micros());
    h.f64(*throughput_tok_per_s);
    h.f64(*goodput_tok_per_s);
    hash_summary(h, ttft_secs);
    hash_summary(h, mtpot_secs);
    let ViolationCounts {
        ttft,
        mtpot,
        no_tokens,
        timed_out,
    } = violations;
    for n in [ttft, mtpot, no_tokens, timed_out] {
        h.word(*n as u64);
    }
}

fn hash_prefix_stats(h: &mut Fnv, s: &PrefixCacheStats) {
    let PrefixCacheStats {
        lookups,
        hits,
        hit_tokens,
        insertions,
        evictions,
        evicted_tokens,
    } = s;
    for n in [
        lookups,
        hits,
        hit_tokens,
        insertions,
        evictions,
        evicted_tokens,
    ] {
        h.word(*n);
    }
}

fn hash_series(h: &mut Fnv, series: &StepSeries) {
    h.word(series.len() as u64);
    for &(at, value) in series.points() {
        h.time(at);
        h.f64(value);
    }
}

/// The per-request stream is the most sensitive probe: every token
/// timestamp of every completed request feeds the hash.
fn hash_outcomes(h: &mut Fnv, outcomes: &[RequestOutcome]) {
    h.word(outcomes.len() as u64);
    for o in outcomes {
        let RequestOutcome {
            id,
            input_len,
            output_len,
            timing,
            evictions,
        } = o;
        h.word(*id);
        h.word(u64::from(*input_len));
        h.word(u64::from(*output_len));
        h.word(u64::from(*evictions));
        h.time(timing.arrival());
        h.word(timing.ttft().map_or(u64::MAX, |d| d.as_micros()));
        h.word(timing.n_tokens());
        h.time(timing.last_token_at());
    }
}

/// A three-phase day for the elastic disagg pools: a prefill-heavy
/// morning grows the prefill pool, a decode-heavy midday drains it into
/// the decode pool (prefill → decode flips), and a prefill-heavy
/// afternoon with a trickle of long decodes flips drained decode members
/// back (decode → prefill).
fn three_phase_day(seed: u64) -> Workload {
    const MORNING: usize = 420;
    const MIDDAY: usize = 360;
    const AFTERNOON: usize = 600;
    const TRICKLE: usize = 30;
    let prefill_heavy = |n: usize, seed: u64| {
        let input = LengthSampler::uniform(1024, 3072);
        let output = LengthSampler::uniform(4, 32);
        datasets::from_samplers(n, seed, &input, &output, 64)
    };
    let mut pairs: Vec<(RequestSpec, u64)> = Vec::new();
    let mut at = 0u64;
    for r in prefill_heavy(MORNING, seed) {
        at += 71_429; // 14 req/s
        pairs.push((r, at));
    }
    let decode_heavy = datasets::from_samplers(
        MIDDAY,
        seed + 1,
        &LengthSampler::uniform(32, 128),
        &LengthSampler::uniform(256, 640),
        768,
    );
    for r in decode_heavy {
        at += 100_000; // 10 req/s
        pairs.push((r, at));
    }
    // The trickle starts when the midday load ends; the afternoon wave
    // follows after a quiet half minute in which the decode pool drains.
    let afternoon = at;
    at += 30_000_000;
    for (i, r) in prefill_heavy(AFTERNOON, seed + 2).into_iter().enumerate() {
        // A slow first wave lets the decode pool drain before the
        // second wave doubles the prompt rate.
        at += if i < AFTERNOON / 2 { 100_000 } else { 50_000 };
        pairs.push((r, at));
    }
    let trickle = datasets::from_samplers(
        TRICKLE,
        seed + 3,
        &LengthSampler::uniform(32, 128),
        &LengthSampler::uniform(1536, 3072),
        3072,
    );
    for (i, r) in trickle.into_iter().enumerate() {
        pairs.push((r, afternoon + 1_000 + 1_500_000 * i as u64));
    }
    pairs.sort_by_key(|&(_, at)| at);
    let (requests, arrivals) = pairs
        .into_iter()
        .enumerate()
        .map(|(i, (mut r, at))| {
            r.id = (i as u64).into();
            (r, SimTime::from_micros(at))
        })
        .unzip();
    Workload::Timed(requests, arrivals)
}

/// The shared-system-prompt chat the KV-overlap goldens route.
fn sysprompt_chat(seed: u64) -> Workload {
    let spec = datasets::SharedSyspromptSpec::default();
    let (requests, arrivals) =
        datasets::shared_sysprompt_chat_timed(300, seed, &spec, 3.0, 2.0, 3.0);
    Workload::Timed(requests, arrivals)
}

/// The pinned scenarios, in golden-file order: every engine shape, and
/// every `RouterPolicy`, `QueueOrder`, `TransferMode`,
/// `RepurposeDirection`, `KvLayout`, `BatchingMode`, `EvictionMode` and
/// `PrefillMode` variant, across several seeds.
pub fn goldens() -> Vec<Scenario> {
    let mut out = Vec::new();

    // Colocated offline, the Table-1 hot loop, across seeds.
    for seed in [1u64, 2, 3] {
        out.push(Scenario::new(
            format!("coloc-offline-pf-seed{seed}"),
            seed,
            Topology::Single(base(seed).capacity_override(20_000).build()),
            |seed| Workload::Offline(datasets::sharegpt(300, seed)),
        ));
    }

    // The oracle scheduler exercises the `oracle_remaining` view fields.
    out.push(Scenario::new(
        "coloc-oracle",
        7,
        Topology::Single(
            base(7)
                .capacity_override(15_000)
                .scheduler(SchedulerConfig::Oracle)
                .build(),
        ),
        |seed| Workload::Offline(datasets::distribution_1(250, seed)),
    ));

    // Slack-aware queue ordering with per-request deadlines: exercises
    // ranking, aging, early drops, and the timed-out accounting.
    for seed in [11u64, 12] {
        out.push(Scenario::new(
            format!("coloc-slack-deadline-seed{seed}"),
            seed,
            Topology::Single(
                base(seed)
                    .capacity_override(8_000)
                    .queue_order(QueueOrder::least_slack())
                    .build(),
            ),
            |seed| poisson(datasets::mixed_deadline(400, seed), 40.0, seed),
        ));
    }

    // Chunked prefill + swap preemption + prefix cache: the remaining
    // engine code paths (mixed steps, swap transfers, cache reclaim).
    out.push(Scenario::new(
        "coloc-chunked-swap-prefix",
        21,
        Topology::Single(
            base(21)
                .capacity_override(6_000)
                .prefill(PrefillMode::Chunked { chunk_tokens: 512 })
                .eviction(EvictionMode::Swap { pcie_gbps: 32.0 })
                .prefix_cache(0.2)
                .build(),
        ),
        |seed| poisson(datasets::multi_turn_chat(300, seed), 30.0, seed + 1),
    ));

    // Cluster routing signals (`load_estimate`, `queue_slack_pressure`,
    // the event-fed KV index).
    out.push(Scenario::new(
        "cluster-least-load",
        31,
        Topology::cluster(
            base(31)
                .capacity_override(6_000)
                .queue_order(QueueOrder::least_slack())
                .build(),
            3,
            RouterPolicy::LeastEstimatedLoad,
        ),
        |seed| poisson(datasets::mixed_deadline(400, seed), 60.0, seed),
    ));

    // KV-overlap softmax routing over the block-granular store: chained
    // block hashing, delayed event propagation into the global index,
    // and the temperature-scaled cost-logit draw all consume determinism
    // budget, so the complete routed stream is pinned.
    out.push(Scenario::new(
        "cluster-kv-softmax",
        61,
        Topology::cluster(
            base(61)
                .capacity_override(20_000)
                .prefix_cache_blocks(0.4, 64)
                .router(RouterConfig {
                    kv_event_delay: SimDuration::from_millis(250),
                })
                .build(),
            3,
            RouterPolicy::KvOverlap {
                overlap_weight: 1.0,
                temperature: 0.25,
            },
        ),
        sysprompt_chat,
    ));

    // Disaggregated 2p+2d on the atomic NVLink default, plain and
    // slack-ordered.
    for (name, order, seed) in [
        ("disagg-fifo", QueueOrder::Fifo, 41u64),
        ("disagg-slack", QueueOrder::least_slack(), 42),
    ] {
        let config = DisaggConfig::new(
            base(seed)
                .capacity_override(12_000)
                .queue_order(order)
                .build(),
        );
        out.push(Scenario::new(
            name,
            seed,
            Topology::disagg(config, 2, 2),
            move |seed| {
                let requests = if order.is_slack_aware() {
                    datasets::mixed_deadline(300, seed)
                } else {
                    datasets::sharegpt(300, seed)
                };
                Workload::Timed(requests, steady(300, 15))
            },
        ));
    }

    // Disaggregated pools under KV-overlap routing: the prefill members'
    // block stores publish into the event-fed index the router scores,
    // and the softmax picks replay from the router's own stream.
    out.push(Scenario::new(
        "disagg-kv-overlap",
        62,
        Topology::disagg(
            DisaggConfig::new(
                base(62)
                    .capacity_override(12_000)
                    .prefix_cache_blocks(0.4, 64)
                    .build(),
            )
            .router(RouterPolicy::KvOverlap {
                overlap_weight: 1.0,
                temperature: 0.2,
            }),
            2,
            2,
        ),
        sysprompt_chat,
    ));

    // Layer-streamed transfers over a narrow shared link: the fluid
    // fair-share scheduler, chunk eligibility clock, and the stream-done
    // handoff all feed the outcome stream.
    out.push(Scenario::new(
        "disagg-stream",
        63,
        Topology::disagg(
            DisaggConfig::new(base(63).capacity_override(12_000).build())
                .transfer(KvTransferSpec::new(10.0, SimDuration::from_micros(200), 1).streamed()),
            2,
            2,
        ),
        |seed| Workload::Timed(datasets::sharegpt(300, seed), steady(300, 15)),
    ));

    // Elastic autoscaling fleets: spawn/drain decisions ride on engine
    // outcomes, so any drift shows up in the scaling event stream. The
    // heterogeneous one puts a big GPU on slot 0 and small ones after, so
    // the planner's candidate-fleet scales, the perf-scaled routing loads
    // and the costliest-first drain all feed the fingerprint.
    for (name, seed, max, fleet) in [
        ("elastic-holt", 51u64, 3, Vec::new()),
        (
            "elastic-hetero",
            52,
            4,
            vec![GpuType::big(), GpuType::small()],
        ),
    ] {
        let autoscale = AutoscaleConfig::bounded(1, max)
            .interval(SimDuration::from_secs(10))
            .warmup(SimDuration::from_secs(15))
            .predictor(PredictorKind::holt())
            .initial_lengths(160.0, 224.0);
        out.push(Scenario::new(
            name,
            seed,
            Topology::Elastic {
                base: base(seed).capacity_override(8_000).build(),
                autoscale,
                initial: 1,
                router: RouterPolicy::LeastEstimatedLoad,
                fleet,
            },
            |seed| Workload::Timed(datasets::short_chat(400, seed), steady(400, 12)),
        ));
    }

    // Elastic disagg pools on mixed GPUs with repurposing: both flip
    // directions, shortest-prompt-first prefill with its aging cap, and
    // both pools' lifecycles are pinned.
    let pool = |max: usize| {
        let mut policy = PolicyConfig::bounded(1, max);
        policy.scale_down_patience = 1;
        AutoscaleConfig::bounded(1, max)
            .interval(SimDuration::from_secs(10))
            .warmup(SimDuration::from_secs(20))
            .predictor(PredictorKind::holt())
            .initial_lengths(512.0, 64.0)
            .policy(policy)
    };
    out.push(Scenario::new(
        "disagg-elastic-repurpose",
        81,
        Topology::Disagg {
            config: DisaggConfig::new(
                base(81)
                    .capacity_override(9_000)
                    .queue_order(QueueOrder::ShortestPromptFirst {
                        aging_cap: SimDuration::from_secs(5),
                    })
                    .build(),
            )
            .repurpose(SimDuration::from_secs(2))
            .fleet(
                vec![GpuType::big(), GpuType::small()],
                vec![GpuType::small(), GpuType::big()],
            ),
            prefill: 2,
            decode: 1,
            autoscale: Some((pool(6), pool(4))),
        },
        three_phase_day,
    ));

    // Every remaining router policy on multi-turn chat, whose repeated
    // session prefixes give `PrefixAffinity` real overlap to chase, under
    // the spelled-out form of `QueueOrder::least_slack()`.
    for (name, policy) in [
        ("cluster-round-robin", RouterPolicy::RoundRobin),
        ("cluster-least-outstanding", RouterPolicy::LeastOutstanding),
        ("cluster-least-used-memory", RouterPolicy::LeastUsedMemory),
        (
            "cluster-prefix-affinity",
            RouterPolicy::PrefixAffinity {
                load_tiebreak: true,
            },
        ),
    ] {
        let config = base(71)
            .capacity_override(6_000)
            .prefix_cache(0.2)
            .queue_order(QueueOrder::LeastSlackFirst {
                aging_cap: SimDuration::from_secs(30),
            })
            .build();
        out.push(Scenario::new(
            name,
            71,
            Topology::cluster(config, 3, policy),
            |seed| poisson(datasets::multi_turn_chat(300, seed), 50.0, seed),
        ));
    }

    // The memory managers beside the token pool. vLLM's paged pool under
    // the aggressive watermark evicts, and the prefix cache's pool charge
    // rounds up to whole blocks.
    out.push(Scenario::new(
        "coloc-paged-aggressive-prefix",
        91,
        Topology::Single(
            base(91)
                .capacity_override(6_000)
                .kv_layout(KvLayout::Paged { block_size: 16 })
                .scheduler(SchedulerConfig::aggressive(0.99))
                .prefix_cache(0.2)
                .build(),
        ),
        |seed| poisson(datasets::multi_turn_chat(300, seed), 30.0, seed),
    ));

    // Contiguous max-length reservation under continuous batching, and
    // under the HF-original preset's static batches.
    for (name, seed, batching, rate) in [
        ("coloc-contiguous", 92u64, BatchingMode::Continuous, 3.0),
        (
            "coloc-contiguous-static",
            93,
            BatchingMode::Static { max_batch: 16 },
            0.5,
        ),
    ] {
        out.push(Scenario::new(
            name,
            seed,
            Topology::Single(
                base(seed)
                    .capacity_override(20_000)
                    .kv_layout(KvLayout::Contiguous)
                    .batching(batching)
                    .build(),
            ),
            move |seed| poisson(datasets::sharegpt(300, seed), rate, seed),
        ));
    }

    // Closed-loop clients, the paper's goodput setting: the `fig7 --quick`
    // cell at the knee of Past-Future's Distribution-1 curve, where
    // goodput peaks and preemption starts.
    let mut knee = paper::fig7(3, true)
        .into_iter()
        .find(|s| s.name == "Llama2-7B/Distribution-1/past-future(reserved=3%)/30")
        .expect("fig7 runs the knee cell");
    knee.name = "fig7-knee-closed-loop".into();
    out.push(knee);

    out
}
