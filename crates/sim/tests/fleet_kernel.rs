//! Property and behavior tests for the shared fleet-lifecycle kernel
//! (`pf_sim::fleet`): shrink-pass invariants over arbitrary pools, and
//! cost-ledger conservation across spawn/drain/repurpose on a real
//! elastic disaggregated run.

use pf_autoscale::{AutoscaleConfig, PolicyConfig, PredictorKind};
use pf_core::SchedulerConfig;
use pf_metrics::{SimDuration, SimTime};
use pf_obs::Pool;
use pf_sim::disagg::{DisaggCluster, DisaggConfig, RepurposeDirection};
use pf_sim::fleet::{
    pool_counts, provisioned_count, shrink_pool, FleetMember, GpuType, MemberCore, MemberState,
};
use pf_sim::{FleetReport, GpuSpec, MemberReport, ModelSpec, SimConfig};
use pf_workload::{datasets, LengthSampler, RequestSpec};
use proptest::prelude::*;

/// Minimal member: just the lifecycle core plus a load signal.
struct Toy {
    core: MemberCore,
    load: u64,
}

impl FleetMember for Toy {
    fn core(&self) -> &MemberCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut MemberCore {
        &mut self.core
    }

    fn load_signal(&self) -> u64 {
        self.load
    }
}

fn toy(state_kind: u8, load: u64, cost_kind: u8) -> Toy {
    let gpu = match cost_kind % 3 {
        0 => GpuType::big(),
        1 => GpuType::mid(),
        _ => GpuType::small(),
    };
    let mut core = MemberCore::spawn(SimTime::ZERO, SimDuration::ZERO, gpu);
    core.state = match state_kind % 4 {
        0 => MemberState::Live,
        1 => MemberState::Warming {
            ready_at: SimTime::from_secs(u64::from(state_kind)),
        },
        2 => MemberState::Draining,
        _ => MemberState::Stopped,
    };
    if core.state == MemberState::Stopped {
        core.stopped_at = Some(SimTime::ZERO);
    }
    Toy { core, load }
}

fn pool_strategy() -> impl Strategy<Value = Vec<Toy>> {
    proptest::collection::vec(
        (0u8..4, 0u64..1_000, 0u8..3).prop_map(|(s, load, c)| toy(s, load, c)),
        0..12,
    )
}

/// The drain pass picks victims in one fixed total order: highest GPU
/// cost, then lowest load, then lowest index.
fn drain_order(members: &[Toy]) -> Vec<usize> {
    let mut live: Vec<usize> = members
        .iter()
        .enumerate()
        .filter(|(_, m)| m.core.state == MemberState::Live)
        .map(|(i, _)| i)
        .collect();
    live.sort_by(|&a, &b| {
        members[b]
            .core
            .gpu
            .cost_weight
            .total_cmp(&members[a].core.gpu.cost_weight)
            .then_with(|| members[a].load.cmp(&members[b].load))
            .then_with(|| a.cmp(&b))
    });
    live
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shrink pass never empties a pool that had a live member,
    /// cancels warming capacity before draining live capacity, lands on
    /// exactly the target (clamped to what exists and to the one-live
    /// floor), and picks drain victims costliest-first.
    #[test]
    fn shrink_pool_invariants(
        pool in pool_strategy(),
        target in 0usize..12,
    ) {
        let (live_before, warming_before) = {
            let (l, w) = pool_counts(&pool);
            (l, w)
        };
        let before = live_before + warming_before;
        let expected_order = drain_order(&pool);
        let mut pool = pool;
        let drained = shrink_pool(&mut pool, target, SimTime::from_secs(5));
        let (live_after, warming_after) = pool_counts(&pool);

        // Never below one live member.
        if live_before >= 1 {
            prop_assert!(live_after >= 1, "pool lost its last live member");
        }
        // Warming members are cancelled before any live member drains.
        if !drained.is_empty() {
            prop_assert_eq!(
                warming_after, 0,
                "drained a live member while warming capacity remained"
            );
        }
        // The pool lands exactly on the clamped target.
        let floor = live_before.min(1);
        let expected = target.min(before).max(floor);
        let draining = pool
            .iter()
            .filter(|m| m.core.state == MemberState::Draining)
            .count();
        // Draining members still count provisioned until they stop, but
        // live + warming is what the planner steers.
        prop_assert_eq!(
            live_after + warming_after,
            expected,
            "live {} warming {} after shrink to {} from {} live / {} warming (draining {})",
            live_after,
            warming_after,
            target,
            live_before,
            warming_before,
            draining
        );
        // Every drained member was live and is draining now.
        for &i in &drained {
            prop_assert_eq!(pool[i].core.state, MemberState::Draining);
        }
        // Victims follow the fixed cost-desc / load-asc / index-asc order.
        prop_assert_eq!(
            &drained[..],
            &expected_order[..drained.len()],
            "drain victims left the costliest-first order"
        );
        // Cancelled warming members are stamped with the shrink time.
        for m in &pool {
            if m.core.state == MemberState::Stopped {
                prop_assert!(m.core.stopped_at.is_some());
            }
        }
    }

    /// Shrinking is deterministic: the same pool shrinks the same way.
    #[test]
    fn shrink_pool_is_deterministic(
        seed_pool in proptest::collection::vec((0u8..4, 0u64..1_000, 0u8..3), 0..12),
        target in 0usize..12,
    ) {
        let build = || -> Vec<Toy> {
            seed_pool.iter().map(|&(s, l, c)| toy(s, l, c)).collect()
        };
        let mut a = build();
        let mut b = build();
        let da = shrink_pool(&mut a, target, SimTime::ZERO);
        let db = shrink_pool(&mut b, target, SimTime::ZERO);
        prop_assert_eq!(da, db);
        for (ma, mb) in a.iter().zip(&b) {
            prop_assert_eq!(ma.core.state, mb.core.state);
        }
        prop_assert_eq!(provisioned_count(&a), provisioned_count(&b));
    }
}

/// The phase-shift workload from `bench --bin hetero_fleet`, shrunk: pure
/// prefill load, then an abrupt switch to pure decode load.
fn phase_shift(seed: u64) -> (Vec<RequestSpec>, Vec<SimTime>) {
    let n_prefill = 560;
    let n_decode = 360;
    let pre_in = LengthSampler::uniform(1024, 3072);
    let pre_out = LengthSampler::uniform(4, 16);
    let mut requests = datasets::from_samplers(n_prefill, seed, &pre_in, &pre_out, 32);
    let long_in = LengthSampler::uniform(48, 160);
    let long_out = LengthSampler::uniform(192, 512);
    let tail = datasets::from_samplers(n_decode, seed + 1, &long_in, &long_out, 640);
    requests.extend(tail.into_iter().enumerate().map(|(i, mut r)| {
        r.id = ((n_prefill + i) as u64).into();
        r
    }));
    let mut arrivals: Vec<SimTime> = (0..n_prefill)
        .map(|i| SimTime::from_micros(71_429 * i as u64)) // 14 req/s
        .collect();
    let start = 71_429 * n_prefill as u64;
    arrivals.extend((1..=n_decode as u64).map(|i| SimTime::from_micros(start + 100_000 * i)));
    (requests, arrivals)
}

/// Member `i` of `pool`, the index a repurposing flip names.
fn member(report: &FleetReport, pool: Pool, i: usize) -> &MemberReport {
    report.pool(pool).nth(i).expect("a member of the pool")
}

fn repurposing_run(seed: u64) -> FleetReport {
    let (requests, arrivals) = phase_shift(seed);
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
    let base = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
        .scheduler(SchedulerConfig::past_future())
        .capacity_override(9_000)
        .record_series(false)
        .seed(seed)
        .build();
    let config = DisaggConfig::new(base).repurpose(SimDuration::from_secs(2));
    DisaggCluster::new(config, 2, 1)
        .autoscale(pool(4, 1), pool(4, 3))
        .run(requests, arrivals)
        .expect("repurposing run")
}

#[test]
fn repurpose_flip_is_atomic_in_the_cost_ledger() {
    for seed in [72, 172] {
        let report = repurposing_run(seed);
        assert!(
            !report.repurposes.is_empty(),
            "seed {seed}: the phase shift never triggered a flip"
        );
        for event in &report.repurposes {
            let prefill = member(&report, Pool::Prefill, event.prefill_member);
            let decode = member(&report, Pool::Decode, event.decode_member);
            // Conservation: the old-pool life ends exactly where the
            // new-pool life begins — the GPU is charged once, with no gap
            // and no overlap, so cost-weighted seconds are conserved
            // across the flip (in either direction).
            let (old, new) = match event.direction {
                RepurposeDirection::PrefillToDecode => (prefill, decode),
                RepurposeDirection::DecodeToPrefill => (decode, prefill),
            };
            assert_eq!(old.stopped_at, event.at, "seed {seed}: flip gap");
            assert_eq!(new.spawned_at, event.at, "seed {seed}: flip overlap");
            // The GPU itself (and its price) travels with the flip.
            assert_eq!(prefill.gpu, decode.gpu, "seed {seed}: GPU type changed");
            // Never both roles at once: the old role is over before the
            // new role starts, and the instance had fully drained (it
            // routed work only while live in exactly one pool).
            assert!(old.spawned_at < event.at);
            assert!(new.stopped_at >= event.at);
        }
        // The ledger sums exactly what the instance lifetimes say.
        let recompute: f64 = report
            .instances
            .iter()
            .map(|i| i.stopped_at.saturating_since(i.spawned_at).as_secs_f64() * i.gpu.cost_weight)
            .sum();
        let reported = report.headline().cost_weighted_gpu_seconds;
        assert!(
            (recompute - reported).abs() < 1e-6,
            "seed {seed}: ledger {reported} vs instance sum {recompute}"
        );
    }
}

#[test]
fn pools_never_drop_below_one_live_member() {
    let report = repurposing_run(72);
    for series in ["prefill-live", "decode-live"] {
        let min = report
            .series
            .get(series)
            .expect("series recorded")
            .points()
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min);
        assert!(min >= 1.0, "{series} dropped to {min}");
    }
}

#[test]
fn repurposing_run_is_deterministic() {
    let a = repurposing_run(72);
    let b = repurposing_run(72);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.repurposes, b.repurposes);
    assert_eq!(
        a.headline().cost_weighted_gpu_seconds,
        b.headline().cost_weighted_gpu_seconds
    );
    assert_eq!(a.events, b.events);
}
