//! Bit-exactness suite for the simulator hot-path rework: every engine
//! shape (colocated, cluster-routed, disaggregated, elastic) is run across
//! several seeds and configurations, and a 64-bit fingerprint of the full
//! report — scalar counters, f64 bit patterns, and the complete
//! per-request timing stream — is compared against the committed golden
//! file. Any change to admission order, clock arithmetic, RNG consumption,
//! or preemption behavior shifts at least one fingerprint.
//!
//! The goldens were generated from the pre-slab engines, so a passing run
//! proves the slab-indexed state, scratch buffers, cached distributions,
//! and incremental slack ranking are observationally identical to the
//! straightforward implementations they replaced.
//!
//! Regenerate (only when an *intentional* behavior change lands) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pf-bench --test report_equivalence
//! ```

use pf_autoscale::{AutoscaleConfig, PolicyConfig, PredictorKind};
use pf_core::SchedulerConfig;
use pf_metrics::{GoodputReport, SimDuration, SimTime, Summary};
use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
use pf_sim::disagg::{
    DisaggCluster, DisaggConfig, DisaggReport, ElasticDisaggCluster, KvTransferSpec, PoolReport,
    PrefillOrder, RepurposeDirection, TransferMode,
};
use pf_sim::elastic::{ElasticCluster, ElasticReport};
use pf_sim::{
    EvictionMode, GpuSpec, GpuType, ModelSpec, PrefillMode, QueueOrder, RequestOutcome,
    RouterConfig, SimConfig, Simulation,
};
use pf_workload::rng::seeded;
use pf_workload::{datasets, LengthSampler, PoissonArrivals, RequestSpec};

const GOLDEN_PATH: &str = "tests/golden/report_fingerprints.txt";

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
}

fn hash_summary(h: &mut Fnv, s: &Summary) {
    h.word(s.count as u64);
    for v in [s.mean, s.std_dev, s.min, s.max, s.p50, s.p90, s.p99] {
        h.f64(v);
    }
}

fn hash_goodput(h: &mut Fnv, g: &GoodputReport) {
    h.word(g.total_requests as u64);
    h.word(g.satisfied_requests as u64);
    h.word(g.total_output_tokens);
    h.word(g.satisfied_output_tokens);
    h.word(g.duration.as_micros());
    h.f64(g.throughput_tok_per_s);
    h.f64(g.goodput_tok_per_s);
    hash_summary(h, &g.ttft_secs);
    hash_summary(h, &g.mtpot_secs);
}

/// The per-request stream is the most sensitive probe: every token
/// timestamp of every completed request feeds the hash.
fn hash_outcomes(h: &mut Fnv, outcomes: &[RequestOutcome]) {
    h.word(outcomes.len() as u64);
    for o in outcomes {
        h.word(o.id);
        h.word(u64::from(o.input_len));
        h.word(u64::from(o.output_len));
        h.word(u64::from(o.evictions));
        h.word(
            o.timing
                .arrival()
                .saturating_since(SimTime::ZERO)
                .as_micros(),
        );
        h.word(o.timing.ttft().map_or(u64::MAX, |d| d.as_micros()));
        h.word(o.timing.n_tokens());
        h.word(
            o.timing
                .last_token_at()
                .saturating_since(SimTime::ZERO)
                .as_micros(),
        );
    }
}

fn hash_sim_report(h: &mut Fnv, r: &pf_sim::SimReport) {
    h.word(r.completed as u64);
    h.word(r.unfinished as u64);
    h.word(r.timed_out as u64);
    h.word(r.decode_steps);
    h.word(r.prefill_steps);
    h.word(r.evictions);
    h.word(r.makespan.as_micros());
    h.word(r.capacity_tokens);
    h.f64(r.avg_consumed_frac);
    h.f64(r.avg_future_required_frac);
    h.f64(r.peak_consumed_frac);
    h.word(r.kv_used_tokens_end);
    h.word(r.prefix_stats.lookups);
    h.word(r.prefix_stats.hits);
    h.word(r.prefix_cached_tokens);
    hash_goodput(h, &r.goodput);
    hash_outcomes(h, &r.outcomes);
}

fn hash_gpu(h: &mut Fnv, gpu: &GpuType) {
    h.word(gpu.name.len() as u64);
    for byte in gpu.name.bytes() {
        h.word(u64::from(byte));
    }
    h.f64(gpu.cost_weight);
    h.f64(gpu.perf_scale);
}

fn hash_elastic(h: &mut Fnv, report: &ElasticReport) {
    hash_goodput(h, &report.goodput);
    h.word(report.makespan.as_micros());
    h.word(report.unrouted as u64);
    h.word(report.events.len() as u64);
    h.word(report.instances.len() as u64);
    for inst in &report.instances {
        h.word(inst.routed as u64);
        hash_sim_report(h, &inst.report);
    }
}

/// One disagg pool's lifecycle: every instance's lifetime, GPU, routed
/// and completed counts, then every scaling decision.
fn hash_pool(h: &mut Fnv, pool: &PoolReport) {
    h.word(pool.instances.len() as u64);
    for inst in &pool.instances {
        h.word(inst.spawned_at.as_micros());
        h.word(inst.stopped_at.as_micros());
        hash_gpu(h, &inst.gpu);
        h.word(inst.routed as u64);
        h.word(inst.completed as u64);
    }
    h.word(pool.events.len() as u64);
    for ev in &pool.events {
        h.word(ev.at.as_micros());
        h.word(ev.from as u64);
        h.word(ev.to as u64);
    }
}

fn hash_repurposes(h: &mut Fnv, report: &DisaggReport) {
    h.word(report.repurposes.len() as u64);
    for ev in &report.repurposes {
        h.word(ev.at.as_micros());
        h.word(match ev.direction {
            RepurposeDirection::PrefillToDecode => 0,
            RepurposeDirection::DecodeToPrefill => 1,
        });
        h.word(ev.prefill_member as u64);
        h.word(ev.decode_member as u64);
    }
}

/// A three-phase day for the elastic disagg pools: a prefill-heavy
/// morning grows the prefill pool, a decode-heavy midday drains it into
/// the decode pool (prefill → decode flips), and a prefill-heavy
/// afternoon with a trickle of long decodes flips drained decode members
/// back (decode → prefill).
fn three_phase_day(seed: u64) -> (Vec<RequestSpec>, Vec<SimTime>) {
    let prefill_heavy = |n: usize, seed: u64| {
        let input = LengthSampler::uniform(1024, 3072);
        let output = LengthSampler::uniform(4, 32);
        datasets::from_samplers(n, seed, &input, &output, 64)
    };
    let mut pairs: Vec<(RequestSpec, u64)> = Vec::new();
    let mut at = 0u64;
    for r in prefill_heavy(PHASE_MORNING, seed) {
        at += 71_429; // 14 req/s
        pairs.push((r, at));
    }
    let decode_heavy = datasets::from_samplers(
        PHASE_MIDDAY,
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
    for (i, r) in prefill_heavy(PHASE_AFTERNOON, seed + 2)
        .into_iter()
        .enumerate()
    {
        // A slow first wave lets the decode pool drain before the
        // second wave doubles the prompt rate.
        at += if i < PHASE_AFTERNOON / 2 {
            100_000
        } else {
            50_000
        };
        pairs.push((r, at));
    }
    let trickle = datasets::from_samplers(
        PHASE_TRICKLE,
        seed + 3,
        &LengthSampler::uniform(32, 128),
        &LengthSampler::uniform(1536, 3072),
        3072,
    );
    for (i, r) in trickle.into_iter().enumerate() {
        pairs.push((r, afternoon + 1_000 + 1_500_000 * i as u64));
    }
    pairs.sort_by_key(|&(_, at)| at);
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (mut r, at))| {
            r.id = (i as u64).into();
            (r, SimTime::from_micros(at))
        })
        .unzip()
}

const PHASE_MORNING: usize = 420;
const PHASE_MIDDAY: usize = 360;
const PHASE_AFTERNOON: usize = 600;
const PHASE_TRICKLE: usize = 30;

fn base(seed: u64, capacity: u64) -> pf_sim::SimConfigBuilder {
    SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(capacity)
        .record_series(false)
        .seed(seed)
}

/// Every pinned scenario, as `(label, fingerprint)` pairs.
fn fingerprints() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut pin = |label: String, hash: Fnv| out.push((label, hash.0));

    // Colocated offline, the Table-1 hot loop, across seeds.
    for seed in [1u64, 2, 3] {
        let requests = datasets::sharegpt(300, seed);
        let report = Simulation::offline(base(seed, 20_000).build(), requests)
            .run()
            .expect("coloc run");
        let mut h = Fnv::new();
        hash_sim_report(&mut h, &report);
        pin(format!("coloc-offline-pf-seed{seed}"), h);
    }

    // The oracle scheduler exercises the `oracle_remaining` view fields.
    {
        let requests = datasets::distribution_1(250, 7);
        let report = Simulation::offline(
            base(7, 15_000).scheduler(SchedulerConfig::Oracle).build(),
            requests,
        )
        .run()
        .expect("oracle run");
        let mut h = Fnv::new();
        hash_sim_report(&mut h, &report);
        pin("coloc-oracle".into(), h);
    }

    // Slack-aware queue ordering with per-request deadlines: exercises
    // ranking, aging, early drops, and the timed-out accounting.
    for seed in [11u64, 12] {
        let requests = datasets::mixed_deadline(400, seed);
        let arrivals = PoissonArrivals::new(40.0).assign(&mut seeded(seed), 400);
        let report = Simulation::with_arrivals(
            base(seed, 8_000)
                .queue_order(QueueOrder::least_slack())
                .build(),
            requests,
            arrivals,
        )
        .run()
        .expect("slack run");
        let mut h = Fnv::new();
        hash_sim_report(&mut h, &report);
        pin(format!("coloc-slack-deadline-seed{seed}"), h);
    }

    // Chunked prefill + swap preemption + prefix cache: the remaining
    // engine code paths (mixed steps, swap transfers, cache reclaim).
    {
        let requests = datasets::multi_turn_chat(300, 21);
        let arrivals = PoissonArrivals::new(30.0).assign(&mut seeded(22), 300);
        let report = Simulation::with_arrivals(
            base(21, 6_000)
                .prefill(PrefillMode::Chunked { chunk_tokens: 512 })
                .eviction(EvictionMode::Swap { pcie_gbps: 32.0 })
                .prefix_cache(0.2)
                .build(),
            requests,
            arrivals,
        )
        .run()
        .expect("chunked-swap run");
        let mut h = Fnv::new();
        hash_sim_report(&mut h, &report);
        pin("coloc-chunked-swap-prefix".into(), h);
    }

    // Cluster routing probes (`load_estimate`, `queue_slack_pressure`,
    // `cached_prefix_tokens`) must stay bit-identical too.
    {
        let requests = datasets::mixed_deadline(400, 31);
        let arrivals = PoissonArrivals::new(60.0).assign(&mut seeded(31), 400);
        let report = ClusterSimulation::new(
            base(31, 6_000)
                .queue_order(QueueOrder::least_slack())
                .build(),
            3,
            RouterPolicy::LeastEstimatedLoad,
        )
        .run(requests, arrivals)
        .expect("cluster run");
        let mut h = Fnv::new();
        for (routed, r) in report.routed_per_instance.iter().zip(&report.instances) {
            h.word(*routed as u64);
            hash_sim_report(&mut h, r);
        }
        pin("cluster-least-load".into(), h);
    }

    // KV-overlap softmax routing over the block-granular store: chained
    // block hashing, delayed event propagation into the global index,
    // and the temperature-scaled cost-logit draw all consume determinism
    // budget, so the complete routed stream is pinned here.
    {
        let spec = datasets::SharedSyspromptSpec::default();
        let (requests, arrivals) =
            datasets::shared_sysprompt_chat_timed(300, 61, &spec, 3.0, 2.0, 3.0);
        let report = ClusterSimulation::new(
            base(61, 20_000)
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
        )
        .run(requests, arrivals)
        .expect("kv-softmax cluster run");
        let mut h = Fnv::new();
        for (routed, r) in report.routed_per_instance.iter().zip(&report.instances) {
            h.word(*routed as u64);
            hash_sim_report(&mut h, r);
        }
        pin("cluster-kv-softmax".into(), h);
    }

    // Disaggregated 2p+2d, plain and slack-ordered.
    for (label, order, seed) in [
        ("disagg-fifo", QueueOrder::Fifo, 41u64),
        ("disagg-slack", QueueOrder::least_slack(), 42),
    ] {
        let n = 300;
        let requests = if order.is_slack_aware() {
            datasets::mixed_deadline(n, seed)
        } else {
            datasets::sharegpt(n, seed)
        };
        let arrivals: Vec<SimTime> = (0..n)
            .map(|i| SimTime::from_millis(15 * i as u64))
            .collect();
        let config = DisaggConfig::new(base(seed, 12_000).queue_order(order).build());
        let report = DisaggCluster::new(config, 2, 2)
            .run(requests, arrivals)
            .expect("disagg run");
        let mut h = Fnv::new();
        hash_goodput(&mut h, &report.goodput);
        h.word(report.makespan.as_micros());
        h.word(report.unserved as u64);
        h.word(report.timed_out as u64);
        h.word(report.transfers.transfers as u64);
        h.word(report.transfers.total_bytes);
        h.f64(report.transfers.total_link_secs);
        hash_outcomes(&mut h, &report.outcomes);
        pin(label.into(), h);
    }

    // Disaggregated pools under KV-overlap routing: the prefill members'
    // block stores publish into the event-fed index the router scores,
    // and the softmax picks replay from the router's own stream.
    {
        let spec = datasets::SharedSyspromptSpec::default();
        let (requests, arrivals) =
            datasets::shared_sysprompt_chat_timed(300, 62, &spec, 3.0, 2.0, 3.0);
        let config = DisaggConfig::new(base(62, 12_000).prefix_cache_blocks(0.4, 64).build())
            .router(RouterPolicy::KvOverlap {
                overlap_weight: 1.0,
                temperature: 0.2,
            });
        let report = DisaggCluster::new(config, 2, 2)
            .run(requests, arrivals)
            .expect("disagg kv run");
        let mut h = Fnv::new();
        hash_goodput(&mut h, &report.goodput);
        h.word(report.makespan.as_micros());
        h.word(report.unserved as u64);
        h.word(report.timed_out as u64);
        h.word(report.transfers.transfers as u64);
        h.word(report.transfers.total_bytes);
        h.f64(report.transfers.total_link_secs);
        hash_outcomes(&mut h, &report.outcomes);
        pin("disagg-kv-overlap".into(), h);
    }

    // Layer-streamed disaggregated transfers over a narrow shared link:
    // the fluid fair-share scheduler, chunk eligibility clock, and the
    // stream-done handoff all feed the outcome stream, and the streamed
    // counters join the fingerprint.
    {
        let n = 300;
        let requests = datasets::sharegpt(n, 63);
        let arrivals: Vec<SimTime> = (0..n)
            .map(|i| SimTime::from_millis(15 * i as u64))
            .collect();
        let transfer = KvTransferSpec::new(10.0, SimDuration::from_micros(200), 1).streamed();
        let config = DisaggConfig::new(base(63, 12_000).build()).transfer(transfer);
        let report = DisaggCluster::new(config, 2, 2)
            .run(requests, arrivals)
            .expect("disagg stream run");
        let mut h = Fnv::new();
        hash_goodput(&mut h, &report.goodput);
        h.word(report.makespan.as_micros());
        h.word(report.unserved as u64);
        h.word(report.timed_out as u64);
        h.word(report.transfers.transfers as u64);
        h.word(report.transfers.streamed as u64);
        h.word(report.transfers.total_bytes);
        h.f64(report.transfers.total_link_secs);
        h.f64(report.transfers.total_tail_secs);
        hash_outcomes(&mut h, &report.outcomes);
        pin("disagg-stream".into(), h);
    }

    // Elastic autoscaling fleet: spawn/drain decisions ride on engine
    // outcomes, so any drift shows up in the scaling event stream.
    {
        let n = 400;
        let requests = datasets::short_chat(n, 51);
        let arrivals: Vec<SimTime> = (0..n)
            .map(|i| SimTime::from_millis(12 * i as u64))
            .collect();
        let autoscale = AutoscaleConfig::bounded(1, 3)
            .interval(SimDuration::from_secs(10))
            .warmup(SimDuration::from_secs(15))
            .predictor(PredictorKind::holt())
            .initial_lengths(160.0, 224.0);
        let report = ElasticCluster::new(base(51, 8_000).build(), autoscale, 1)
            .run(requests, arrivals)
            .expect("elastic run");
        let mut h = Fnv::new();
        hash_elastic(&mut h, &report);
        pin("elastic-holt".into(), h);
    }

    // A heterogeneous elastic fleet: slot 0 is a big GPU, every later slot
    // a small one, so the planner's candidate-fleet scales, the
    // perf-scaled routing loads and the costliest-first drain all feed
    // the fingerprint.
    {
        let n = 400;
        let requests = datasets::short_chat(n, 52);
        let arrivals: Vec<SimTime> = (0..n)
            .map(|i| SimTime::from_millis(12 * i as u64))
            .collect();
        let autoscale = AutoscaleConfig::bounded(1, 4)
            .interval(SimDuration::from_secs(10))
            .warmup(SimDuration::from_secs(15))
            .predictor(PredictorKind::holt())
            .initial_lengths(160.0, 224.0);
        let report = ElasticCluster::new(base(52, 8_000).build(), autoscale, 1)
            .fleet(vec![GpuType::big(), GpuType::small()])
            .run(requests, arrivals)
            .expect("elastic hetero run");
        let mut h = Fnv::new();
        hash_elastic(&mut h, &report);
        for inst in &report.instances {
            h.word(inst.spawned_at.as_micros());
            h.word(inst.stopped_at.as_micros());
            hash_gpu(&mut h, &inst.gpu);
        }
        pin("elastic-hetero".into(), h);
    }

    // Elastic disagg pools on mixed GPUs with repurposing: both flip
    // directions, shortest-prompt-first prefill with its aging cap, and
    // both pools' lifecycles (instances, scaling decisions, flips) are
    // pinned.
    {
        let (requests, arrivals) = three_phase_day(81);
        let pool = |max: usize, patience: u32| {
            let mut policy = PolicyConfig::bounded(1, max);
            policy.scale_down_patience = patience;
            AutoscaleConfig::bounded(1, max)
                .interval(SimDuration::from_secs(10))
                .warmup(SimDuration::from_secs(20))
                .predictor(PredictorKind::holt())
                .initial_lengths(512.0, 64.0)
                .policy(policy)
        };
        let config = DisaggConfig::new(base(81, 9_000).build())
            .repurpose(SimDuration::from_secs(2))
            .fleet(
                vec![GpuType::big(), GpuType::small()],
                vec![GpuType::small(), GpuType::big()],
            )
            .prefill_order(PrefillOrder::ShortestPromptFirst {
                aging_cap: SimDuration::from_secs(5),
            });
        let report = ElasticDisaggCluster::new(config, pool(6, 1), pool(4, 1), 2, 1)
            .run(requests, arrivals)
            .expect("elastic disagg repurpose run");
        for direction in [
            RepurposeDirection::PrefillToDecode,
            RepurposeDirection::DecodeToPrefill,
        ] {
            assert!(
                report.repurposes.iter().any(|e| e.direction == direction),
                "the three-phase day never flipped {direction:?}"
            );
        }
        let mut h = Fnv::new();
        hash_goodput(&mut h, &report.goodput);
        h.word(report.makespan.as_micros());
        h.word(report.unserved as u64);
        h.word(report.timed_out as u64);
        h.word(report.transfers.transfers as u64);
        h.word(report.transfers.total_bytes);
        hash_outcomes(&mut h, &report.outcomes);
        hash_pool(&mut h, &report.prefill);
        hash_pool(&mut h, &report.decode);
        hash_repurposes(&mut h, &report);
        pin("disagg-elastic-repurpose".into(), h);
    }

    // Every remaining router-policy variant gets its own pinned scenario
    // (the pf-lint X1 rule enforces that no `RouterPolicy`,
    // `TransferMode`, or `QueueOrder` variant ships un-goldened). The
    // multi-turn workload repeats session prefixes so `PrefixAffinity`
    // routing has real overlap to chase, and the queue order is the
    // spelled-out form of `QueueOrder::least_slack()`.
    for (label, policy) in [
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
        let requests = datasets::multi_turn_chat(300, 71);
        let arrivals = PoissonArrivals::new(50.0).assign(&mut seeded(71), 300);
        let report = ClusterSimulation::new(
            base(71, 6_000)
                .prefix_cache(0.2)
                .queue_order(QueueOrder::LeastSlackFirst {
                    aging_cap: SimDuration::from_secs(30),
                })
                .build(),
            3,
            policy,
        )
        .run(requests, arrivals)
        .expect("router-policy run");
        let mut h = Fnv::new();
        for (routed, r) in report.routed_per_instance.iter().zip(&report.instances) {
            h.word(*routed as u64);
            hash_sim_report(&mut h, r);
        }
        pin(label.into(), h);
    }

    // Both transfer modes are exercised by the disagg scenarios above
    // (`disagg-fifo`/`disagg-slack`/`disagg-kv-overlap` ride the default
    // atomic NVLink spec, `disagg-stream` the layer-streamed one); spell
    // the variants out so the golden-coverage rule can see them pinned.
    assert_eq!(KvTransferSpec::nvlink().mode, TransferMode::Atomic);
    // Likewise every disagg scenario but `disagg-elastic-repurpose` runs
    // the default FIFO prefill order.
    assert_eq!(
        DisaggConfig::new(base(41, 12_000).build()).prefill_order,
        PrefillOrder::Fifo
    );
    assert_eq!(
        KvTransferSpec::new(10.0, SimDuration::from_micros(200), 1)
            .streamed()
            .mode,
        TransferMode::LayerStreamed
    );

    out
}

#[test]
fn reports_are_bit_identical_to_goldens() {
    let current = fingerprints();
    let rendered: String = current
        .iter()
        .map(|(label, fp)| format!("{label} {fp:#018x}\n"))
        .collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, rendered).expect("write goldens");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("missing golden file — run with UPDATE_GOLDEN=1 to generate");
    let mut failures = Vec::new();
    let mut golden_lines = 0usize;
    for line in golden.lines() {
        let mut parts = line.split_whitespace();
        let (Some(label), Some(fp)) = (parts.next(), parts.next()) else {
            continue;
        };
        golden_lines += 1;
        let fp = u64::from_str_radix(fp.trim_start_matches("0x"), 16).expect("golden hex");
        match current.iter().find(|(l, _)| l == label) {
            Some((_, got)) if *got == fp => {}
            Some((_, got)) => failures.push(format!("{label}: {got:#018x} != golden {fp:#018x}")),
            None => failures.push(format!("{label}: scenario missing from current run")),
        }
    }
    assert_eq!(
        golden_lines,
        current.len(),
        "scenario count changed — regenerate goldens deliberately"
    );
    assert!(
        failures.is_empty(),
        "report fingerprints drifted from the pre-rework engines:\n{}",
        failures.join("\n")
    );
}
