//! The four benchmark workloads: their fixed inputs, the deployments that
//! serve them, and the simulated outcome of one run.
//!
//! Every workload is an open-loop arrival schedule served by llama2-7B on
//! an A100-80G. Each size `n` is part of the workload's definition:
//! run time on `cluster-kv-sysprompt` and `disagg-stream-prefill` grows
//! faster than linearly in `n` (see `sim.size_exponent`), so changing a
//! size changes what the benchmark measures.

use pf_autoscale::{AutoscaleConfig, PredictorKind};
use pf_core::SchedulerConfig;
use pf_kvcache::PrefixCacheStats;
use pf_metrics::{RequestTiming, SimDuration, SimTime, SlaSpec};
use pf_obs::TraceSink;
use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
use pf_sim::disagg::{DisaggCluster, DisaggConfig, KvTransferSpec};
use pf_sim::elastic::ElasticCluster;
use pf_sim::{GpuSpec, ModelSpec, SimConfig, SimError, SimReport, Simulation};
use pf_workload::rng::seeded;
use pf_workload::{datasets, LengthSampler, PoissonArrivals, RateProfile, RequestSpec};

/// Deployment shape a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One colocated `Simulation`.
    Coloc,
    /// A colocated `ClusterSimulation` behind the KV-overlap router.
    Cluster,
    /// A `DisaggCluster` with a layer-streamed KV link.
    Disagg,
    /// An autoscaled `ElasticCluster`.
    Elastic,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in every output.
    pub name: &'static str,
    /// Deployment shape.
    pub kind: Kind,
    /// Requests issued by one full-size run.
    pub n: usize,
    /// Dataset seed before `--seed` is added.
    dataset_seed: u64,
    /// Arrival-schedule seed before `--seed` is added.
    arrival_seed: u64,
}

/// The benchmark's workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    // The Past-Future knee: admission decides between queueing and
    // eviction. Loads `admission` and `kvpool`; no router, prefix cache,
    // link or autoscaler.
    Workload {
        name: "coloc-sharegpt",
        kind: Kind::Coloc,
        n: 60_000,
        dataset_seed: 11,
        arrival_seed: 12,
    },
    // Read-heavy prefix cache (24 tenant system prompts) and overlap
    // scoring over the global KV index on every arrival.
    Workload {
        name: "cluster-kv-sysprompt",
        kind: Kind::Cluster,
        n: 45_000,
        dataset_seed: 21,
        arrival_seed: 22,
    },
    // The only workload on the shared KV link and on disaggregated decode
    // admission; no prefix cache or KV router.
    Workload {
        name: "disagg-stream-prefill",
        kind: Kind::Disagg,
        n: 6_000,
        dataset_seed: 31,
        arrival_seed: 32,
    },
    // Write-heavy prefix cache (conversations grow every turn) with the
    // autoscaler and fleet lifecycle active through a diurnal cycle.
    Workload {
        name: "elastic-multiturn-diurnal",
        kind: Kind::Elastic,
        n: 80_000,
        dataset_seed: 41,
        arrival_seed: 42,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Instances of the static cluster.
const CLUSTER_INSTANCES: usize = 8;
/// Prefill and decode instances of the disaggregated cluster.
const DISAGG_POOLS: (usize, usize) = (2, 2);
/// Scheduler sampling seed (not a workload seed, so `--seed` leaves it).
const CONFIG_SEED: u64 = 9;

/// Generated inputs of one run: request specs and their scheduled
/// arrival times, sorted by arrival.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The requests, ids dense in arrival order.
    pub requests: Vec<RequestSpec>,
    /// One scheduled arrival per request.
    pub arrivals: Vec<SimTime>,
}

impl Inputs {
    /// The first `n` requests of the stream.
    pub fn truncate(mut self, n: usize) -> Inputs {
        self.requests.truncate(n);
        self.arrivals.truncate(n);
        self
    }
}

/// A deployment constructed and ready to run (set-up is timed up to
/// here).
pub enum Prepared {
    /// Colocated single instance and the requests it will issue
    /// (`Simulation` does not expose its arrival stream).
    Coloc(Simulation, usize),
    /// Static colocated cluster.
    Cluster(ClusterSimulation, Inputs),
    /// Disaggregated pools.
    Disagg(DisaggCluster, Inputs),
    /// Autoscaled fleet.
    Elastic(ElasticCluster, Inputs),
}

fn base(capacity: u64) -> pf_sim::SimConfigBuilder {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .capacity_override(capacity)
        .record_series(false)
        .seed(CONFIG_SEED)
}

/// The tenant traffic of the `kv_routing` experiment: 24 tenants with
/// 768-token system prompts and short sessions.
fn sysprompt_spec() -> datasets::SharedSyspromptSpec {
    datasets::SharedSyspromptSpec {
        tenants: 24,
        system_prompt_len: 768,
        chat: datasets::MultiTurnSpec {
            system_prompt_len: 0,
            user_turn: LengthSampler::uniform(32, 160),
            assistant_turn: LengthSampler::uniform(24, 96),
            continue_prob: 0.6,
            concurrent_sessions: 8,
            max_new_tokens: 128,
            max_context: 2_048,
        },
    }
}

/// The disaggregated cluster's KV link: 25 GB/s, 200 µs per stream,
/// layer-streamed.
fn transfer() -> KvTransferSpec {
    KvTransferSpec::new(25.0, SimDuration::from_micros(200), 1).streamed()
}

impl Workload {
    /// Serving instances at start (all of them, for the static shapes).
    pub fn instances(&self) -> usize {
        match self.kind {
            Kind::Coloc | Kind::Elastic => 1,
            Kind::Cluster => CLUSTER_INSTANCES,
            Kind::Disagg => DISAGG_POOLS.0 + DISAGG_POOLS.1,
        }
    }

    /// The same workload at another size (tests only: sizes define the
    /// benchmark).
    #[cfg(test)]
    pub fn resized(self, n: usize) -> Workload {
        Workload { n, ..self }
    }

    /// Bandwidth (GB/s) and per-stream overhead (µs) of the KV link.
    pub fn link(&self) -> (f64, u64) {
        let t = transfer();
        (t.link_gbps, t.per_hop_overhead.as_micros())
    }

    /// Generates the full-size input stream for `seed` (added to the
    /// workload's dataset and arrival seeds).
    pub fn inputs(&self, seed: u64) -> Inputs {
        let ds = self.dataset_seed.wrapping_add(seed);
        let mut arrival_rng = seeded(self.arrival_seed.wrapping_add(seed));
        let n = self.n;
        match self.kind {
            Kind::Coloc => Inputs {
                requests: datasets::sharegpt(n, ds),
                arrivals: PoissonArrivals::new(5.7).assign(&mut arrival_rng, n),
            },
            Kind::Cluster => {
                // Sessions are timed by the generator itself (a follow-up
                // turn waits for a think gap), so it takes one seed.
                let (requests, arrivals) =
                    datasets::shared_sysprompt_chat_timed(n, ds, &sysprompt_spec(), 48.0, 2.0, 2.0);
                Inputs { requests, arrivals }
            }
            Kind::Disagg => Inputs {
                requests: datasets::prefill_heavy(n, ds),
                arrivals: PoissonArrivals::new(10.0).assign(&mut arrival_rng, n),
            },
            Kind::Elastic => Inputs {
                requests: datasets::multi_turn_chat(n, ds),
                arrivals: RateProfile::diurnal(1.33, 8.0, SimDuration::from_secs(180))
                    .assign(&mut arrival_rng, n),
            },
        }
    }

    /// The deployment's engine configuration.
    pub fn config(&self) -> SimConfig {
        match self.kind {
            Kind::Coloc => base(40_000)
                .scheduler(SchedulerConfig::past_future())
                .build(),
            Kind::Cluster => base(48_000)
                .scheduler(SchedulerConfig::past_future_reserved(0.5))
                .prefix_cache_blocks(0.5, 64)
                .sla(SlaSpec::new(
                    SimDuration::from_secs(2),
                    SimDuration::from_millis(1_500),
                ))
                .build(),
            Kind::Disagg => base(30_000)
                .scheduler(SchedulerConfig::past_future())
                .sla(SlaSpec::new(
                    SimDuration::from_millis(1_500),
                    SimDuration::from_millis(1_500),
                ))
                .build(),
            Kind::Elastic => base(20_000)
                .scheduler(SchedulerConfig::past_future())
                .prefix_cache_blocks(0.3, 64)
                .build(),
        }
    }

    /// Builds the deployment around `inputs`.
    pub fn prepare(&self, inputs: Inputs) -> Prepared {
        let config = self.config();
        match self.kind {
            Kind::Coloc => {
                let issued = inputs.requests.len();
                Prepared::Coloc(
                    Simulation::with_arrivals(config, inputs.requests, inputs.arrivals),
                    issued,
                )
            }
            Kind::Cluster => Prepared::Cluster(
                ClusterSimulation::new(
                    config,
                    CLUSTER_INSTANCES,
                    RouterPolicy::KvOverlap {
                        overlap_weight: 1.0,
                        temperature: 0.0,
                    },
                ),
                inputs,
            ),
            Kind::Disagg => {
                let config = DisaggConfig::new(config).transfer(transfer());
                Prepared::Disagg(
                    DisaggCluster::new(config, DISAGG_POOLS.0, DISAGG_POOLS.1),
                    inputs,
                )
            }
            Kind::Elastic => {
                let autoscale = AutoscaleConfig::bounded(1, 6)
                    .interval(SimDuration::from_secs(10))
                    .warmup(SimDuration::from_secs(20))
                    .predictor(PredictorKind::holt())
                    .initial_lengths(1200.0, 144.0);
                Prepared::Elastic(
                    ElasticCluster::new(config, autoscale, 1).router(
                        RouterPolicy::PrefixAffinity {
                            load_tiebreak: true,
                        },
                    ),
                    inputs,
                )
            }
        }
    }
}

/// KV-pool occupancy summary of an engine-based run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Memory {
    /// Time-weighted mean used/capacity, averaged over instances.
    pub avg_consumed_frac: f64,
    /// Mean true future required memory over capacity, averaged over
    /// instances.
    pub avg_future_required_frac: f64,
    /// Largest used/capacity on any instance.
    pub peak_consumed_frac: f64,
}

/// Everything one run reports, reduced to what the benchmark uses.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests issued.
    pub issued: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests cancelled past a deadline.
    pub timed_out: usize,
    /// Requests neither completed nor cancelled when the run ended.
    pub unfinished: usize,
    /// Completed requests that met the SLA.
    pub satisfied: usize,
    /// SLA-satisfying output tokens per simulated second.
    pub goodput_tok_per_s: f64,
    /// TTFT of every completed request, seconds, measured from its
    /// scheduled arrival.
    pub ttft_s: Vec<f64>,
    /// Largest inter-token gap of every completed request, seconds.
    pub mtpot_s: Vec<f64>,
    /// Recompute or swap preemptions.
    pub evictions: u64,
    /// Provisioned GPU-seconds.
    pub gpu_seconds: f64,
    /// Engine KV-pool occupancy (zero for disaggregated pools, which
    /// keep no engine report).
    pub memory: Memory,
    /// Prefix-cache counters merged across instances.
    pub prefix: PrefixCacheStats,
    /// Engine reports whose leftover KV differs from the prefix cache's
    /// charge: `(instance, kv_used_tokens_end, prefix_cached_tokens)`.
    pub kv_leaks: Vec<(usize, u64, u64)>,
    /// `(streamed, transfers, total tail seconds)` of a disaggregated run.
    pub transfers: Option<(usize, usize, f64)>,
    /// Autoscaler decisions.
    pub scale_events: usize,
    /// Most replicas provisioned at once.
    pub peak_replicas: usize,
}

fn engine_outcome(reports: &[&SimReport], out: &mut Outcome) {
    for (i, r) in reports.iter().enumerate() {
        out.completed += r.completed;
        out.timed_out += r.timed_out;
        out.unfinished += r.unfinished;
        out.satisfied += r.goodput.satisfied_requests;
        out.evictions += r.evictions;
        out.prefix.merge(&r.prefix_stats);
        push_timings(r.outcomes.iter().map(|o| &o.timing), out);
        if r.kv_used_tokens_end != r.prefix_cached_tokens {
            out.kv_leaks
                .push((i, r.kv_used_tokens_end, r.prefix_cached_tokens));
        }
        out.memory.avg_consumed_frac += r.avg_consumed_frac / reports.len() as f64;
        out.memory.avg_future_required_frac += r.avg_future_required_frac / reports.len() as f64;
        out.memory.peak_consumed_frac = out.memory.peak_consumed_frac.max(r.peak_consumed_frac);
    }
}

fn push_timings<'a>(timings: impl Iterator<Item = &'a RequestTiming>, out: &mut Outcome) {
    for t in timings {
        if let Some(ttft) = t.ttft() {
            out.ttft_s.push(ttft.as_secs_f64());
            out.mtpot_s.push(t.mtpot().as_secs_f64());
        }
    }
}

impl Prepared {
    /// Runs the deployment, optionally traced.
    pub fn run(self, sink: Option<&mut dyn TraceSink>) -> Result<Outcome, SimError> {
        let mut out = Outcome::default();
        match self {
            Prepared::Coloc(sim, issued) => {
                out.issued = issued;
                let r = sim.run_traced(sink)?;
                engine_outcome(&[&r], &mut out);
                out.goodput_tok_per_s = r.goodput_tok_per_s();
                out.gpu_seconds = r.makespan.as_secs_f64();
            }
            Prepared::Cluster(sim, inputs) => {
                out.issued = inputs.requests.len();
                let r = sim.run_traced(inputs.requests, inputs.arrivals, sink)?;
                let reports: Vec<&SimReport> = r.instances.iter().collect();
                engine_outcome(&reports, &mut out);
                out.goodput_tok_per_s = r.goodput_tok_per_s();
                out.gpu_seconds = r.instances.len() as f64 * r.makespan().as_secs_f64();
            }
            Prepared::Disagg(sim, inputs) => {
                out.issued = inputs.requests.len();
                let r = sim.run_traced(inputs.requests, inputs.arrivals, sink)?;
                out.completed = r.completed();
                out.timed_out = r.timed_out;
                out.unfinished = r.unserved;
                out.satisfied = r.goodput.satisfied_requests;
                out.prefix = r.prefix_stats;
                push_timings(r.outcomes.iter().map(|o| &o.timing), &mut out);
                out.goodput_tok_per_s = r.goodput_tok_per_s();
                out.gpu_seconds = r.gpu_seconds();
                out.transfers = Some((
                    r.transfers.streamed,
                    r.transfers.transfers,
                    r.transfers.total_tail_secs,
                ));
            }
            Prepared::Elastic(sim, inputs) => {
                out.issued = inputs.requests.len();
                let r = sim.run_traced(inputs.requests, inputs.arrivals, sink)?;
                let reports: Vec<&SimReport> = r.instances.iter().map(|i| &i.report).collect();
                engine_outcome(&reports, &mut out);
                // Requests with no live instance to route to never reach
                // an engine report.
                out.unfinished += r.unrouted;
                out.goodput_tok_per_s = r.goodput_tok_per_s();
                out.gpu_seconds = r.gpu_seconds();
                out.scale_events = r.events.len();
                out.peak_replicas = r.peak_replicas();
            }
        }
        Ok(out)
    }
}
