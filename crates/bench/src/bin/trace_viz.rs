//! Lifecycle-trace demonstrator: runs traced colocated, disaggregated and
//! elastic simulations, prints per-phase latency breakdowns, checks that
//! tracing never perturbs the simulation, and exports Chrome trace-event
//! JSON (load `results/trace_*.json` in Perfetto / `chrome://tracing`).
//!
//! Also feeds the colocated run through the burn-rate monitor and prints
//! any SLO budget alerts.

use pf_autoscale::{AutoscaleConfig, PredictorKind};
use pf_bench::scenario::{base, steady, Scenario, Topology, Workload};
use pf_bench::Cli;
use pf_core::SchedulerConfig;
use pf_metrics::{SimDuration, SimTime, SlaSpec, Table};
use pf_obs::{
    chrome_trace_json_from_spans, reconstruct, Phase, PhaseTotals, RecordingSink, RequestSpans,
    SloConfig, SpanOutcome, TelemetryRecorder, TraceEvent,
};
use pf_sim::disagg::DisaggConfig;
use pf_sim::QueueOrder;
use pf_workload::{datasets, LengthSampler};

/// Runs a traced scenario twice and asserts the two event streams are
/// identical (replay determinism — the trace is a pure function of the
/// simulation).
fn traced_twice(scenario: &Scenario) -> RecordingSink {
    let mut first = RecordingSink::new();
    scenario.run(Some(&mut first));
    let mut second = RecordingSink::new();
    scenario.run(Some(&mut second));
    assert_eq!(
        first.events, second.events,
        "replay determinism violated: two identical runs emitted different traces"
    );
    assert_eq!(first.gauges, second.gauges);
    first
}

/// One row per scenario in the phase-breakdown table.
fn phase_row(table: &mut Table, scenario: &str, spans: &[RequestSpans]) {
    let totals = PhaseTotals::aggregate(spans);
    let mut cells = vec![scenario.to_string(), totals.requests.to_string()];
    for phase in Phase::ALL {
        cells.push(format!("{:.3}", totals.mean_secs(phase)));
    }
    table.row(cells);
}

fn check_partition(scenario: &str, spans: &[RequestSpans]) {
    for span in spans {
        assert!(
            span.phases_partition_lifetime(),
            "{scenario}: request {} phases do not partition its lifetime",
            span.request
        );
    }
}

fn main() {
    let cli = Cli::parse();

    let mut table = Table::new([
        "scenario",
        "requests",
        "queue_s",
        "prefill_s",
        "kv_transfer_s",
        "decode_s",
        "stalled_s",
    ]);

    // Colocated, memory-tight with deadlines: queue, prefill, decode,
    // preemption re-queues and deadline drops all show up.
    let n = cli.size(256, 48);
    let colocated = Scenario::new(
        "colocated",
        3,
        Topology::Single(
            base(11)
                .scheduler(SchedulerConfig::aggressive(0.99))
                .capacity_override(1_200)
                .request_deadline(SimDuration::from_secs(60))
                .queue_order(QueueOrder::least_slack())
                .sla(SlaSpec::new(
                    SimDuration::from_secs(10),
                    SimDuration::from_millis(1500),
                ))
                .build(),
        ),
        move |seed| {
            let input = LengthSampler::uniform(8, 32);
            let output = LengthSampler::uniform(64, 256);
            Workload::Offline(datasets::from_samplers(n, seed, &input, &output, 512))
        },
    );
    // Disaggregated 2p+2d: the kv-transfer and stalled phases appear.
    let disagg_n = cli.size(120, 40);
    let disagg = Scenario::new(
        "disagg-2p2d",
        2,
        Topology::disagg(
            DisaggConfig::new(base(7).capacity_override(12_000).build()),
            2,
            2,
        ),
        move |seed| {
            let input = LengthSampler::uniform(1024, 3072);
            let output = LengthSampler::uniform(8, 48);
            let requests = datasets::from_samplers(disagg_n, seed, &input, &output, 64);
            Workload::Timed(requests, steady(disagg_n, 120))
        },
    );
    // Elastic 1..4 instances: scaling events land on the cluster track.
    let elastic_n = cli.size(400, 120);
    let autoscale = AutoscaleConfig::bounded(1, 4)
        .interval(SimDuration::from_secs(10))
        .warmup(SimDuration::from_secs(15))
        .predictor(PredictorKind::holt())
        .initial_lengths(512.0, 64.0);
    let elastic = Scenario::new(
        "elastic-1..4",
        4,
        Topology::elastic(base(7).capacity_override(12_000).build(), autoscale, 1),
        move |seed| Workload::Timed(datasets::sharegpt(elastic_n, seed), steady(elastic_n, 40)),
    );

    std::fs::create_dir_all(&cli.out_dir).expect("create results directory");
    let mut traces = Vec::new();
    for (scenario, file) in [
        (&colocated, "trace_colocated.json"),
        (&disagg, "trace_disagg.json"),
        (&elastic, "trace_elastic.json"),
    ] {
        let sink = traced_twice(scenario);
        let spans = reconstruct(&sink.events);
        check_partition(&scenario.name, &spans);
        phase_row(&mut table, &scenario.name, &spans);
        std::fs::write(
            cli.out_dir.join(file),
            chrome_trace_json_from_spans(&spans, &sink.events),
        )
        .unwrap_or_else(|e| panic!("write {file}: {e}"));
        traces.push(sink.events);
    }
    let coloc_events = traces.swap_remove(0);

    cli.emit(
        "trace_phases",
        "Mean per-request phase breakdown (seconds)",
        &table,
    );
    println!(
        "[wrote {}/trace_colocated.json, trace_disagg.json, trace_elastic.json — open in Perfetto]",
        cli.out_dir.display()
    );

    // Burn-rate demo: replay the colocated outcome stream through the
    // telemetry recorder and print any SLO budget alerts.
    let horizon = coloc_events
        .iter()
        .map(|ev| ev.at())
        .max()
        .unwrap_or(SimTime::ZERO);
    let period = horizon
        .saturating_since(SimTime::ZERO)
        .max(SimDuration::from_secs(1));
    let mut recorder = TelemetryRecorder::new(SloConfig::new(0.99, period)).with_min_samples(10);
    {
        use pf_obs::TraceSink;
        for ev in &coloc_events {
            recorder.event(*ev);
        }
    }
    let spans = reconstruct(&coloc_events);
    let finished_ok = spans
        .iter()
        .filter(|s| matches!(s.outcome, SpanOutcome::Finished { sla_ok: true }))
        .count();
    println!(
        "== SLO burn-rate (colocated, target 99%) ==\n\
         {} requests traced, {} met their SLA; {} budget alert(s):",
        spans.len(),
        finished_ok,
        recorder.monitor().alerts().len()
    );
    for alert in recorder.monitor().alerts() {
        println!(
            "  [{}] t={:.1}s window={} burn_rate={:.2} budget_consumed={:.1}%",
            alert.severity.label(),
            alert.at.saturating_since(SimTime::ZERO).as_secs_f64(),
            alert.window.label(),
            alert.burn_rate,
            alert.budget_consumed * 100.0
        );
    }

    // Event-stream invariants double-checked on the way out.
    let enqueued = coloc_events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::Enqueued { .. }))
        .count();
    assert_eq!(enqueued, n, "every request must be enqueued exactly once");
}
