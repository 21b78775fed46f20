//! The fleets the extension benches compare.
//!
//! The `autoscale` and `disagg` constructors, one per load shape, are each
//! a function of the workload seed and the request count and return every
//! fleet of their table, named as its row. The `prefix_routing` and
//! `kv_routing` benches share one deployment ([`prefix_base`]) and its
//! three fleet shapes ([`prefix_deployments`]).

use std::sync::Arc;

use pf_autoscale::{AutoscaleConfig, PredictorKind};
use pf_core::SchedulerConfig;
use pf_metrics::{SimDuration, SlaSpec};
use pf_sim::cluster::RouterPolicy;
use pf_sim::disagg::DisaggConfig;
use pf_sim::{SimConfig, SimConfigBuilder};
use pf_workload::{datasets, rng::seeded, PoissonArrivals, RateProfile};

use super::{base, Scenario, Topology, Workload, WorkloadFn};

/// The planners' adjustment interval.
const INTERVAL_S: u64 = 10;
/// Time from a spawn decision until the replica serves.
const WARMUP_S: u64 = 20;
/// Period of the diurnal and bursty load cycles.
const PERIOD_S: u64 = 180;
/// The largest fleet the `autoscale` bench provisions.
pub const MAX_REPLICAS: usize = 4;

/// `n` short chat requests whose arrivals follow `profile` on the stream
/// seeded one past the requests.
fn chat(n: usize, profile: RateProfile) -> WorkloadFn {
    Arc::new(move |seed| {
        Workload::Timed(
            datasets::short_chat(n, seed),
            profile.assign(&mut seeded(seed + 1), n),
        )
    })
}

/// Every `autoscale` fleet on one load shape: static fleets of 1, 2 and
/// [`MAX_REPLICAS`] (the degenerate `min == max` elastic configuration)
/// and the elastic planner bounded to `[1, MAX_REPLICAS]` with each
/// predictor.
fn autoscale(seed: u64, n: usize, profile: RateProfile) -> Vec<Scenario> {
    let statics =
        [1, 2, MAX_REPLICAS].map(|n| (format!("static-{n}"), AutoscaleConfig::bounded(n, n), n));
    let elastics = [
        PredictorKind::Constant,
        PredictorKind::ewma(),
        PredictorKind::holt(),
        PredictorKind::holt_winters((PERIOD_S / INTERVAL_S) as usize),
    ]
    .map(|kind| {
        let autoscale = AutoscaleConfig::bounded(1, MAX_REPLICAS).predictor(kind);
        (format!("elastic-{}", kind.label()), autoscale, 1)
    });
    let workload = chat(n, profile);
    statics
        .into_iter()
        .chain(elastics)
        .map(|(name, autoscale, initial)| {
            let autoscale = autoscale
                .interval(SimDuration::from_secs(INTERVAL_S))
                .warmup(SimDuration::from_secs(WARMUP_S))
                .initial_lengths(160.0, 224.0);
            let config = base(41).capacity_override(6_000).build();
            Scenario {
                name,
                seed,
                topology: Topology::elastic(config, autoscale, initial),
                workload: workload.clone(),
            }
        })
        .collect()
}

/// The `autoscale` fleets on a diurnal load: three cycles from 2 to 12
/// req/s (one instance saturates near 7 req/s of this workload).
pub fn autoscale_diurnal(seed: u64, n: usize) -> Vec<Scenario> {
    let period = SimDuration::from_secs(PERIOD_S);
    autoscale(seed, n, RateProfile::diurnal(2.0, 12.0, period))
}

/// The `autoscale` fleets on a bursty load: 12 req/s bursts of 40 s every
/// period over a 1 req/s floor.
pub fn autoscale_bursty(seed: u64, n: usize) -> Vec<Scenario> {
    let (burst, period) = (SimDuration::from_secs(40), SimDuration::from_secs(PERIOD_S));
    autoscale(seed, n, RateProfile::bursty(1.0, 12.0, burst, period))
}

/// The `disagg` fleets at four GPUs, each serving `workload` from `seed`
/// with `capacity` KV tokens per GPU: a colocated fleet of four engines
/// (the degenerate `min == max` elastic configuration), each static
/// `(prefill, decode)` split of `splits`, and elastic pools bounded to
/// `pmax` + `dmax` that start at `p0` + `d0` under `predictor`.
fn disagg(
    seed: u64,
    capacity: u64,
    workload: WorkloadFn,
    splits: &[(usize, usize)],
    (pmax, dmax, p0, d0, predictor): (usize, usize, usize, usize, PredictorKind),
) -> Vec<Scenario> {
    let config = base(31).capacity_override(capacity).build();
    let coloc = AutoscaleConfig::bounded(4, 4)
        .interval(SimDuration::from_secs(INTERVAL_S))
        .warmup(SimDuration::from_secs(WARMUP_S));
    let pool = |max: usize| {
        AutoscaleConfig::bounded(1, max)
            .interval(SimDuration::from_secs(INTERVAL_S))
            .warmup(SimDuration::from_secs(WARMUP_S))
            .predictor(predictor)
            .initial_lengths(512.0, 128.0)
    };
    let coloc = (
        "coloc-static-4".to_string(),
        Topology::elastic(config.clone(), coloc, 4),
    );
    let splits = splits.iter().map(|&(p, d)| {
        let topology = Topology::disagg(DisaggConfig::new(config.clone()), p, d);
        (format!("disagg-{p}p{d}d"), topology)
    });
    let elastic = Topology::Disagg {
        config: DisaggConfig::new(config.clone()),
        prefill: p0,
        decode: d0,
        autoscale: Some((pool(pmax), pool(dmax))),
    };
    let elastic = (format!("disagg-elastic-{pmax}p{dmax}d"), elastic);
    std::iter::once(coloc)
        .chain(splits)
        .chain([elastic])
        .map(|(name, topology)| Scenario {
            name,
            seed,
            topology,
            workload: workload.clone(),
        })
        .collect()
}

/// The `disagg` fleets on steady prefill-heavy load (summarization/RAG):
/// 12 req/s of 1-3k-token prompts with terse answers, against the 2p+2d
/// and 3p+1d splits and elastic pools bounded to 3+3. 12 req/s sits just
/// past the colocated fleet's admission ceiling.
pub fn disagg_prefill_heavy(seed: u64, n: usize) -> Vec<Scenario> {
    let workload: WorkloadFn = Arc::new(move |seed| {
        Workload::Timed(
            datasets::prefill_heavy(n, seed),
            PoissonArrivals::new(12.0).assign(&mut seeded(seed + 1), n),
        )
    });
    let elastic = (3, 3, 2, 2, PredictorKind::holt());
    disagg(seed, 9_000, workload, &[(2, 2), (3, 1)], elastic)
}

/// The `disagg` chat fleets: the 1p+3d split and elastic pools bounded to
/// 2+3 whose seasonal predictor pre-provisions for the recurring peak
/// (one cycle is 18 adjustment intervals).
fn disagg_chat(seed: u64, n: usize, profile: RateProfile) -> Vec<Scenario> {
    let season = (PERIOD_S / INTERVAL_S) as usize;
    let elastic = (2, 3, 1, 2, PredictorKind::holt_winters(season));
    disagg(seed, 6_000, chat(n, profile), &[(1, 3)], elastic)
}

/// The `disagg` chat fleets on a diurnal cycle from 2 to 10 req/s.
pub fn disagg_diurnal(seed: u64, n: usize) -> Vec<Scenario> {
    let period = SimDuration::from_secs(PERIOD_S);
    disagg_chat(seed, n, RateProfile::diurnal(2.0, 10.0, period))
}

/// The `disagg` chat fleets on 10 req/s bursts of 40 s every period over
/// a 1 req/s floor.
pub fn disagg_bursty(seed: u64, n: usize) -> Vec<Scenario> {
    let (burst, period) = (SimDuration::from_secs(40), SimDuration::from_secs(PERIOD_S));
    disagg_chat(seed, n, RateProfile::bursty(1.0, 10.0, burst, period))
}

/// Share of each GPU's KV the prefix-routing deployments give the cache.
pub const PREFIX_BUDGET_FRAC: f64 = 0.5;

/// The deployment the prefix-routing benches start from, before its
/// prefix cache: 48k KV tokens per GPU under an interactive-chat SLA. The
/// scheduler's reserved fraction matches the cache budget, so admission
/// packs request KV into the other half of memory and a saturated queue
/// does not squeeze the cache to zero (the split a real deployment makes
/// when it provisions prefix-cache blocks).
pub fn prefix_base(seed: u64) -> SimConfigBuilder {
    base(seed)
        .scheduler(SchedulerConfig::past_future_reserved(PREFIX_BUDGET_FRAC))
        .capacity_override(48_000)
        // Interactive-chat TTFT bound: multi-turn users notice first-token
        // stalls far sooner than the 10 s batch-style default.
        .sla(SlaSpec::new(
            SimDuration::from_secs(2),
            SimDuration::from_millis(1_500),
        ))
}

/// The three fleets of `config` the prefix-routing benches compare, each
/// behind `router`: a fixed cluster of four, an elastic fleet of 2 to 4
/// replicas that starts at four, and a 2p+2d split.
pub fn prefix_deployments(config: SimConfig, router: RouterPolicy) -> [Topology; 3] {
    let autoscale = AutoscaleConfig::bounded(2, 4)
        .interval(SimDuration::from_secs(INTERVAL_S))
        .warmup(SimDuration::from_secs(WARMUP_S))
        .predictor(PredictorKind::holt())
        .initial_lengths(900.0, 150.0);
    [
        Topology::cluster(config.clone(), 4, router),
        Topology::Elastic {
            base: config.clone(),
            autoscale,
            initial: 4,
            router,
            fleet: Vec::new(),
        },
        Topology::disagg(DisaggConfig::new(config).router(router), 2, 2),
    ]
}
