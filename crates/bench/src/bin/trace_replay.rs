//! Extension: trace replay through the cluster runners.
//!
//! Real deployments are steered by recorded traffic, not synthetic
//! generators. This scenario exports a generated diurnal chat workload to
//! the `trace_io` CSV schema — including the `arrival_us` timestamp
//! column — reads it back, and drives both the elastic cluster and a
//! disaggregated split from the replayed trace. It asserts the round trip
//! is lossless (specs and timestamps bit-identical) and that the replayed
//! runs reproduce the direct runs exactly: same completions, same
//! GPU-seconds, same scaling events, same makespan.
//!
//! ```text
//! cargo run --release -p pf-bench --bin trace_replay [-- --quick]
//! ```

use pf_autoscale::{AutoscaleConfig, PredictorKind};
use pf_bench::scenario::{base, run_all, Scenario, Topology, Workload};
use pf_bench::Cli;
use pf_metrics::Align::{Left, Right};
use pf_metrics::{SimDuration, Table};
use pf_sim::disagg::DisaggConfig;
use pf_workload::trace_io::{
    arrival_times_from_records, read_trace_csv, records_from_timed_requests, requests_from_records,
    write_trace_csv,
};
use pf_workload::{datasets, rng::seeded, RateProfile};

/// `datasets::short_chat`'s generation cap — replayed requests must carry
/// the same `max_new_tokens` for the rebuilt specs to be bit-identical.
const SHORT_CHAT_CAP: u32 = 512;

/// Both cluster runners, serving `workload` (seeded by `seed`).
fn clusters(
    path: &str,
    seed: u64,
    workload: impl Fn(u64) -> Workload + Clone + Send + Sync + 'static,
) -> [Scenario; 2] {
    let config = base(61).capacity_override(6_000).build();
    let autoscale = AutoscaleConfig::bounded(1, 4)
        .interval(SimDuration::from_secs(10))
        .warmup(SimDuration::from_secs(20))
        .predictor(PredictorKind::holt())
        .initial_lengths(160.0, 224.0);
    [
        (
            "elastic-1..4",
            Topology::elastic(config.clone(), autoscale, 1),
        ),
        (
            "disagg-2p2d",
            Topology::disagg(DisaggConfig::new(config), 2, 2),
        ),
    ]
    .map(|(cluster, topology)| {
        Scenario::new(
            format!("{cluster} {path}"),
            seed,
            topology,
            workload.clone(),
        )
    })
}

fn main() {
    let cli = Cli::parse();

    // The workload a production gateway would have logged: three diurnal
    // cycles of short chat.
    let n = cli.size(1_200, 300);
    let direct = clusters("direct", 62, move |seed| {
        let profile = RateProfile::diurnal(2.0, 10.0, SimDuration::from_secs(180));
        Workload::Timed(
            datasets::short_chat(n, seed),
            profile.assign(&mut seeded(seed + 1), n),
        )
    });
    let Workload::Timed(requests, arrivals) = direct[0].workload() else {
        unreachable!("the gateway log is timed");
    };

    // Export → CSV on disk → import. The CSV is the real artifact: users
    // replace it with their own traces in the same schema.
    let records = records_from_timed_requests(&requests, &arrivals);
    std::fs::create_dir_all(&cli.out_dir).expect("create results directory");
    let trace_path = cli.out_dir.join("trace_replay_trace.csv");
    let mut buffer = Vec::new();
    write_trace_csv(&mut buffer, &records).expect("serialize trace");
    std::fs::write(&trace_path, &buffer).expect("write trace csv");
    let parsed = read_trace_csv(std::fs::File::open(&trace_path).expect("reopen trace csv"))
        .expect("parse trace csv");
    assert_eq!(parsed, records, "csv round trip must be lossless");
    let replayed_requests = requests_from_records(&parsed, SHORT_CHAT_CAP);
    let replayed_arrivals = arrival_times_from_records(&parsed).expect("trace carries timestamps");
    assert_eq!(
        replayed_requests, requests,
        "replayed specs must be bit-identical"
    );
    assert_eq!(
        replayed_arrivals, arrivals,
        "replayed timestamps must be microsecond-exact"
    );

    // Drive both cluster runners from the original stream and from the
    // replayed trace; the pairs must agree exactly.
    let replayed = clusters("trace-replay", 62, move |_| {
        Workload::Timed(replayed_requests.clone(), replayed_arrivals.clone())
    });
    let runs = run_all(&[direct, replayed].concat());
    let (direct, replayed) = runs.split_at(2);
    for (direct, replay) in direct.iter().zip(replayed) {
        assert_eq!(
            direct.fingerprint, replay.fingerprint,
            "{} diverged from its trace replay",
            direct.name
        );
        assert_eq!(direct.headline, replay.headline, "{} diverged", direct.name);
    }
    assert_eq!(
        direct[0].report.events, replayed[0].report.events,
        "elastic replay diverged on scaling events"
    );
    let disagg_replay = &replayed[1].report;

    let mut table = Table::new([
        "cluster",
        "path",
        "completed",
        "SLA-ok %",
        "GPU-seconds",
        "makespan s",
    ])
    .with_aligns(&[Left, Left, Right, Right, Right, Right]);
    for run in [&direct[0], &replayed[0], &direct[1], &replayed[1]] {
        let (cluster, path) = run.name.split_once(' ').expect("cluster and path");
        let h = &run.headline;
        table.row([
            cluster.to_string(),
            path.to_string(),
            h.completed.to_string(),
            format!("{:.1}", h.sla_attainment * 100.0),
            format!("{:.0}", h.gpu_seconds),
            format!("{:.0}", run.report.makespan.as_secs_f64()),
        ]);
    }
    cli.emit(
        "trace_replay",
        "Trace replay: direct stream vs arrival_us CSV round trip",
        &table,
    );
    println!(
        "[ok] trace round-trips losslessly through {} and replays bit-identically \
         (elastic {:.0} GPU-s, disagg {} transfers)",
        trace_path.display(),
        replayed[0].headline.gpu_seconds,
        disagg_replay.transfers.transfers,
    );
}
