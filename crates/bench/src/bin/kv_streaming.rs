//! Extension: layer-wise streaming KV transfer versus the atomic
//! prefill→decode handoff, swept across shared-link bandwidths.
//!
//! Both modes serve the same prefill-heavy stream (long prompts, terse
//! answers — the regime disaggregation targets) through a 1-prefill +
//! 1-decode split joined by one shared link that both modes stream over
//! (an atomic handoff is a one-chunk stream). The atomic path parks each
//! request's whole KV footprint on the prefill engine until the full
//! post-hoc transfer drains; the streamed path ships each
//! layer's KV as the producing pass emits it, so the hold releases at
//! roughly the pass end plus a small tail and the prefill engine's
//! memory turns over link-latency sooner.
//!
//! Under a tight TTFT budget that backpressure relief is the whole
//! story: the table sweeps the link from comfortable to starved and
//! reports TTFT-SLA attainment for both modes at matched GPU-seconds.
//! The run asserts the tentpole claim — streamed attainment strictly
//! beats atomic at every width, the margin grows as the link narrows,
//! and the streamed run replays bit-identically.
//!
//! ```text
//! cargo run --release -p pf-bench --bin kv_streaming [-- --quick]
//! ```

use pf_bench::scenario::{base, by_name, run_all, steady, Scenario, Topology, Workload};
use pf_bench::Cli;
use pf_metrics::Align::{Left, Right};
use pf_metrics::{SimDuration, SlaSpec, Table};
use pf_sim::disagg::{DisaggConfig, KvTransferSpec};
use pf_workload::{datasets, LengthSampler};

/// Link widths swept, widest first. 8 GB/s comfortably clears the
/// stream's aggregate KV demand (~4.3 GB/s); 5 GB/s barely does, so the
/// atomic path's post-hoc serialization compounds into queueing.
const LINK_GBPS: [f64; 4] = [8.0, 7.0, 6.0, 5.0];

/// `<link GB/s> <atomic|streamed>`.
fn name(gbps: f64, streamed: bool) -> String {
    let mode = if streamed { "streamed" } else { "atomic" };
    format!("{gbps:.0} {mode}")
}

/// A 1p+1d split on a `gbps` link, atomic or streamed, serving long
/// prompts with terse answers arriving every 250 ms: steady pressure that
/// keeps the prefill pass busy without drowning either pool.
fn scenario(gbps: f64, streamed: bool, n: usize) -> Scenario {
    let transfer = KvTransferSpec::new(gbps, SimDuration::from_micros(200), 1);
    let transfer = if streamed {
        transfer.streamed()
    } else {
        transfer
    };
    let config = base(5)
        .capacity_override(4_500)
        .sla(SlaSpec::new(
            SimDuration::from_millis(1_500),
            SimDuration::from_millis(1_500),
        ))
        .build();
    let topology = Topology::disagg(DisaggConfig::new(config).transfer(transfer), 1, 1);
    Scenario::new(name(gbps, streamed), 5, topology, move |seed| {
        let input = LengthSampler::uniform(1024, 3072);
        let output = LengthSampler::uniform(8, 48);
        Workload::Timed(
            datasets::from_samplers(n, seed, &input, &output, 64),
            steady(n, 250),
        )
    })
}

fn main() {
    let cli = Cli::parse();
    let n = cli.size(240, 160);
    let scenarios: Vec<Scenario> = LINK_GBPS
        .iter()
        .flat_map(|&gbps| [false, true].map(|streamed| scenario(gbps, streamed, n)))
        .collect();
    let runs = run_all(&scenarios);

    let mut table = Table::new([
        "link GB/s",
        "mode",
        "completed",
        "TTFT-ok %",
        "tail s",
        "wire s",
        "GPU-seconds",
        "makespan s",
    ])
    .with_aligns(&[Right, Left, Right, Right, Right, Right, Right, Right]);
    for run in &runs {
        let (gbps, mode) = run.name.split_once(' ').expect("gbps and mode");
        let (h, report) = (&run.headline, &run.report);
        table.row([
            gbps.to_string(),
            mode.to_string(),
            h.completed.to_string(),
            format!("{:.1}", h.ttft_attainment * 100.0),
            format!("{:.1}", report.transfers.total_tail_secs),
            format!("{:.1}", report.transfers.total_link_secs),
            format!("{:.0}", h.gpu_seconds),
            format!("{:.0}", report.makespan.as_secs_f64()),
        ]);
    }
    cli.emit(
        "kv_streaming",
        "Layer-streamed vs atomic KV transfer across shared-link bandwidths \
         (prefill-heavy, 1p+1d, 1.5 s TTFT budget)",
        &table,
    );

    // Tentpole claims: streamed strictly beats atomic at every width, at
    // matched GPU cost and identical payloads, and the margin grows as
    // the link narrows.
    let mut margins = Vec::new();
    for &gbps in &LINK_GBPS {
        let atomic = by_name(&runs, &name(gbps, false));
        let streamed = by_name(&runs, &name(gbps, true));
        let (a, s) = (&atomic.headline, &streamed.headline);
        let (a_link, s_link) = (atomic.report.transfers, streamed.report.transfers);
        assert_eq!(s.completed, a.completed, "{gbps} GB/s");
        assert_eq!(s_link.total_bytes, a_link.total_bytes, "{gbps} GB/s");
        assert_eq!(s_link.transfers, a_link.transfers, "{gbps} GB/s");
        assert!(
            s.ttft_attainment > a.ttft_attainment,
            "{gbps} GB/s: streamed attainment {:.3} did not beat atomic {:.3}",
            s.ttft_attainment,
            a.ttft_attainment
        );
        assert!(
            s.gpu_seconds <= a.gpu_seconds * 1.02,
            "{gbps} GB/s: streamed spent {:.0} GPU-s vs {:.0} — not a matched comparison",
            s.gpu_seconds,
            a.gpu_seconds
        );
        // Streaming hides the wire behind the pass: most of each
        // transfer lands while prefill still runs (the tail fraction
        // grows as the link starves but stays under half the wire).
        assert!(
            s_link.total_tail_secs < 0.5 * a_link.total_link_secs,
            "{gbps} GB/s: tail {:.3}s vs atomic wire {:.3}s",
            s_link.total_tail_secs,
            a_link.total_link_secs
        );
        margins.push(s.ttft_attainment - a.ttft_attainment);
    }
    assert!(
        margins.last().expect("sweep") > margins.first().expect("sweep"),
        "margin did not grow as the link narrowed: {margins:?}"
    );

    // Deterministic replay at the narrowest link.
    let narrowest = *LINK_GBPS.last().expect("sweep");
    scenario(narrowest, true, n).replay(by_name(&runs, &name(narrowest, true)));

    let widest = &by_name(&runs, &name(LINK_GBPS[0], true)).headline;
    let widest_atomic = &by_name(&runs, &name(LINK_GBPS[0], false)).headline;
    println!(
        "[ok] kv-streaming: TTFT-SLA {:.1}% vs atomic {:.1}% at {:.0} GB/s, \
         margin {:.1}pp -> {:.1}pp as the link narrows to {:.0} GB/s; replay deterministic",
        widest.ttft_attainment * 100.0,
        widest_atomic.ttft_attainment * 100.0,
        LINK_GBPS[0],
        margins[0] * 100.0,
        margins.last().expect("sweep") * 100.0,
        narrowest,
    );
}
