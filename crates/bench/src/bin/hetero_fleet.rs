//! Extension: heterogeneous GPU fleets and cross-pool repurposing on the
//! shared fleet-lifecycle kernel.
//!
//! Two scenarios exercise the two capabilities the `pf_sim::fleet`
//! refactor unlocked:
//!
//! 1. **Repurposing** — a workload whose mix shifts from prefill-heavy
//!    (long prompts, terse answers) to decode-heavy (short prompts, long
//!    answers) drives an elastic disaggregated cluster twice: with
//!    cross-pool repurposing off, the decode pool's scale-up provisions
//!    cold instances through the full warm-up while the prefill pool's
//!    surplus drains to a stop; with repurposing on, the decode scale-up
//!    claims those draining prefill instances, which flip into the decode
//!    pool after a short repurpose delay (weights already resident, KV
//!    pool reset). The run asserts repurposing reaches at least the
//!    TTFT-SLA attainment of the no-repurpose baseline at matched
//!    cost-weighted GPU-seconds (within 0.2%), strictly improves full-SLA
//!    attainment through the transition, and replays bit-identically.
//!
//! 2. **Mixed fleets** — a diurnal chat cycle is served by an all-big
//!    static fleet, by a mixed static fleet (two big GPUs plus two
//!    mid-tier GPUs at 45% of the price and 55% of the speed), and by an
//!    elastic fleet over the same mixed slots. The run asserts the mixed
//!    static fleet stays within the same 5-point SLA band the autoscale
//!    bench uses while provisioning strictly fewer cost-weighted
//!    GPU-seconds than the all-big baseline.
//!
//! ```text
//! cargo run --release -p pf-bench --bin hetero_fleet [-- --quick]
//! ```

use pf_autoscale::{AutoscaleConfig, PolicyConfig, PredictorKind};
use pf_bench::scenario::{base, by_name, run_all, Run, Scenario, Topology, Workload};
use pf_bench::Cli;
use pf_metrics::Align::{Left, Right};
use pf_metrics::{SimDuration, SimTime, Table};
use pf_obs::Pool;
use pf_sim::cluster::RouterPolicy;
use pf_sim::disagg::DisaggConfig;
use pf_sim::GpuType;
use pf_workload::{datasets, rng::seeded, LengthSampler, RateProfile};

const INTERVAL_S: u64 = 10;
const WARMUP_S: u64 = 20;
/// Flip delay for a repurposed instance — weights are already on the GPU;
/// only the KV pool reset and CUDA-graph capture remain.
const REPURPOSE_S: u64 = 2;

/// The phase-shift workload: `n_prefill` requests of summarization-style
/// traffic (huge prompts, near-single-token answers — only the prefill
/// pool loads) at 14 req/s, then an abrupt switch to generation-style
/// traffic (short prompts, long answers) at 10 req/s — the decode pool
/// must grow in the same planning round the prefill pool sheds its
/// surplus.
fn phase_shift_workload(n_prefill: usize, n_decode: usize, seed: u64) -> Workload {
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
    let phase_b_start = 71_429 * n_prefill as u64;
    arrivals.extend(
        (1..=n_decode as u64).map(|i| SimTime::from_micros(phase_b_start + 100_000 * i)), // 10 req/s
    );
    Workload::Timed(requests, arrivals)
}

/// Elastic disaggregated pools on the phase shift, with cross-pool
/// repurposing on or off.
fn repurpose_scenario(repurpose: bool, n_prefill: usize, n_decode: usize) -> Scenario {
    let pool = |max: usize, patience: u32| {
        let mut policy = PolicyConfig::bounded(1, max);
        policy.scale_down_patience = patience;
        AutoscaleConfig::bounded(1, max)
            .interval(SimDuration::from_secs(INTERVAL_S))
            .warmup(SimDuration::from_secs(WARMUP_S))
            .predictor(PredictorKind::holt())
            .initial_lengths(512.0, 64.0)
            .policy(policy)
    };
    let mut config = DisaggConfig::new(base(71).capacity_override(9_000).build());
    if repurpose {
        config = config.repurpose(SimDuration::from_secs(REPURPOSE_S));
    }
    // Prefill instances drain in well under an interval (no long decodes),
    // so the prefill pool sheds surplus with minimal patience — the decode
    // pool keeps the default hysteresis.
    let topology = Topology::ElasticDisagg {
        config,
        prefill: pool(4, 1),
        decode: pool(4, 3),
        initial: (2, 1),
    };
    let name = if repurpose {
        "repurpose-on"
    } else {
        "repurpose-off"
    };
    Scenario::new(name, 72, topology, move |seed| {
        phase_shift_workload(n_prefill, n_decode, seed)
    })
}

fn main() {
    let cli = Cli::parse();

    // Scenario 1 — cross-pool repurposing on the phase-shift workload.
    // Phase A: 100 s (50 s quick) of pure prefill load; phase B: 90 s
    // (45 s quick) of pure decode load. The planner rounds right after
    // the switch shed prefill capacity and order decode capacity — the
    // repurposing window.
    let (n_prefill, n_decode) = (cli.size(1_400, 700), cli.size(900, 450));
    let repurposing = [false, true].map(|on| repurpose_scenario(on, n_prefill, n_decode));
    let runs = run_all(&repurposing);

    let mut table = Table::new([
        "fleet",
        "completed",
        "TTFT-ok %",
        "TTFT p99 s",
        "SLA-ok %",
        "cost-wt GPU-s",
        "repurposes",
        "peak",
    ])
    .with_aligns(&[Left, Right, Right, Right, Right, Right, Right, Right]);
    let cost = |run: &Run| run.headline.cost_weighted_gpu_seconds;
    for run in &runs {
        let (h, report) = (&run.headline, &run.report);
        table.row([
            run.name.clone(),
            h.completed.to_string(),
            format!("{:.1}", h.ttft_attainment * 100.0),
            format!("{:.2}", h.ttft_p99_s),
            format!("{:.1}", h.sla_attainment * 100.0),
            format!("{:.0}", cost(run)),
            report.repurposes.len().to_string(),
            format!(
                "{}+{}",
                report.peak_pool_replicas(Pool::Prefill),
                report.peak_pool_replicas(Pool::Decode)
            ),
        ]);
    }
    cli.emit(
        "hetero_repurpose",
        "Cross-pool repurposing: prefill-heavy -> decode-heavy phase shift",
        &table,
    );

    let (off, on) = (&runs[0], &runs[1]);
    assert!(
        !on.report.repurposes.is_empty(),
        "the phase shift never triggered a repurpose flip"
    );
    assert!(
        on.headline.ttft_attainment >= off.headline.ttft_attainment,
        "repurposing TTFT attainment {:.3} fell below no-repurpose {:.3}",
        on.headline.ttft_attainment,
        off.headline.ttft_attainment
    );
    // The flip substitutes one-for-one for the cold spawn, so provisioned
    // cost is matched (measured: bit-identical on the quick size, +0.015%
    // on the full size from drain-timing drift); the gain is that the
    // substituted capacity serves 18 s sooner, which shows up as full-SLA
    // attainment through the transition.
    assert!(
        cost(on) <= cost(off) * 1.002,
        "repurposing spent {:.1} cost-weighted GPU-s vs {:.1} without — not matched",
        cost(on),
        cost(off)
    );
    assert!(
        on.headline.sla_attainment >= off.headline.sla_attainment + 0.02,
        "repurposing SLA {:.3} no longer beats no-repurpose {:.3} through the transition",
        on.headline.sla_attainment,
        off.headline.sla_attainment
    );
    // Deterministic replay of the repurposing run.
    repurposing[1].replay(on);

    // Scenario 2 — an all-big static fleet, a mixed static fleet and an
    // elastic fleet over the same mixed slots, on diurnal chat.
    let n = cli.size(3_000, 700);
    let mixed_slots = vec![
        GpuType::big(),
        GpuType::big(),
        GpuType::mid(),
        GpuType::mid(),
    ];
    let fleets = [
        ("static-4xbig", (4, 4, 4), vec![GpuType::big(); 4]),
        ("static-2big+2mid", (4, 4, 4), mixed_slots.clone()),
        ("elastic-2big+2mid", (1, 4, 2), mixed_slots),
    ]
    .map(|(name, (min, max, initial), fleet)| {
        let autoscale = AutoscaleConfig::bounded(min, max)
            .interval(SimDuration::from_secs(INTERVAL_S))
            .warmup(SimDuration::from_secs(WARMUP_S))
            .predictor(PredictorKind::holt())
            .initial_lengths(160.0, 224.0);
        let topology = Topology::Elastic {
            base: base(71).capacity_override(6_000).build(),
            autoscale,
            initial,
            router: RouterPolicy::LeastEstimatedLoad,
            fleet,
        };
        Scenario::new(name, 74, topology, move |seed| {
            let profile = RateProfile::diurnal(2.0, 10.0, SimDuration::from_secs(180));
            Workload::Timed(
                datasets::short_chat(n, seed),
                profile.assign(&mut seeded(seed + 1), n),
            )
        })
    });
    let runs = run_all(&fleets);

    let mut table = Table::new([
        "fleet",
        "completed",
        "SLA-ok %",
        "GPU-seconds",
        "cost-wt GPU-s",
        "peak",
    ])
    .with_aligns(&[Left, Right, Right, Right, Right, Right]);
    for run in &runs {
        let (h, report) = (&run.headline, &run.report);
        table.row([
            run.name.clone(),
            h.completed.to_string(),
            format!("{:.1}", h.sla_attainment * 100.0),
            format!("{:.0}", h.gpu_seconds),
            format!("{:.0}", cost(run)),
            report.peak_replicas().to_string(),
        ]);
    }
    cli.emit(
        "hetero_mixed",
        "Mixed GPU fleet vs all-big static baseline (diurnal chat)",
        &table,
    );

    let all_big = by_name(&runs, "static-4xbig");
    let mixed = by_name(&runs, "static-2big+2mid");
    let (all_big_sla, mixed_sla) = (
        all_big.headline.sla_attainment,
        mixed.headline.sla_attainment,
    );
    assert!(
        all_big_sla - mixed_sla <= 0.05,
        "mixed fleet SLA {mixed_sla:.3} trails all-big {all_big_sla:.3} by more than 5 points",
    );
    assert!(
        cost(mixed) < cost(all_big),
        "mixed fleet cost {:.0} is not below all-big {:.0}",
        cost(mixed),
        cost(all_big)
    );

    println!(
        "[ok] repurpose-on: TTFT {:.1}% vs off {:.1}% at {:.0} vs {:.0} cost-weighted GPU-s \
         ({} flips); replay deterministic",
        on.headline.ttft_attainment * 100.0,
        off.headline.ttft_attainment * 100.0,
        cost(on),
        cost(off),
        on.report.repurposes.len(),
    );
    println!(
        "[ok] mixed 2big+2mid: SLA {:.1}% (all-big {:.1}%) at {:.0} vs {:.0} cost-weighted GPU-s \
         ({:.0}% cheaper)",
        mixed_sla * 100.0,
        all_big_sla * 100.0,
        cost(mixed),
        cost(all_big),
        (1.0 - cost(mixed) / cost(all_big)) * 100.0,
    );
}
