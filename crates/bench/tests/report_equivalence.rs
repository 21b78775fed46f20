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

use pf_autoscale::{AutoscaleConfig, PredictorKind};
use pf_core::SchedulerConfig;
use pf_metrics::{GoodputReport, SimDuration, SimTime, Summary};
use pf_sim::cluster::{ClusterSimulation, RouterPolicy};
use pf_sim::disagg::{DisaggCluster, DisaggConfig, KvTransferSpec, TransferMode};
use pf_sim::elastic::ElasticCluster;
use pf_sim::{
    EvictionMode, GpuSpec, ModelSpec, PrefillMode, QueueOrder, RequestOutcome, RouterConfig,
    SimConfig, Simulation,
};
use pf_workload::rng::seeded;
use pf_workload::{datasets, PoissonArrivals};

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
                    ..RouterConfig::default()
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
        hash_goodput(&mut h, &report.goodput);
        h.word(report.makespan.as_micros());
        h.word(report.unrouted as u64);
        h.word(report.events.len() as u64);
        h.word(report.instances.len() as u64);
        for inst in &report.instances {
            h.word(inst.routed as u64);
            hash_sim_report(&mut h, &inst.report);
        }
        pin("elastic-holt".into(), h);
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
