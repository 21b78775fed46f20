//! Bit-exactness suite: every golden scenario of the registry
//! (`pf_bench::scenario::goldens`) is run and its report fingerprint —
//! scalar counters, f64 bit patterns, and the complete per-request timing
//! stream — is compared against the committed golden file. Any change to
//! admission order, clock arithmetic, RNG consumption, or preemption
//! behavior shifts at least one fingerprint.
//!
//! The hash is the gate. Beside it, `report_digests.tsv` holds each
//! scenario's headline numbers, so a drift prints what moved and by how
//! much. Regenerate both (only when an *intentional* behavior change
//! lands) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pf-bench --test report_equivalence
//! ```

use std::collections::BTreeSet;

use pf_bench::scenario::{goldens, Topology};
use pf_sim::cluster::RouterPolicy;
use pf_sim::disagg::{DisaggConfig, RepurposeDirection, TransferMode};
use pf_sim::{
    BatchingMode, EvictionMode, FleetReport, Headline, KvLayout, PrefillMode, QueueOrder, SimConfig,
};

const GOLDEN_PATH: &str = "tests/golden/report_fingerprints.txt";
const DIGEST_PATH: &str = "tests/golden/report_digests.tsv";

/// Every variant of the config enums a golden must run: new config surface
/// is pinned by a fingerprint before it ships.
const VARIANTS: [&str; 22] = [
    "RouterPolicy::RoundRobin",
    "RouterPolicy::LeastOutstanding",
    "RouterPolicy::LeastUsedMemory",
    "RouterPolicy::LeastEstimatedLoad",
    "RouterPolicy::PrefixAffinity",
    "RouterPolicy::KvOverlap",
    "QueueOrder::Fifo",
    "QueueOrder::LeastSlackFirst",
    "QueueOrder::ShortestPromptFirst",
    "TransferMode::Atomic",
    "TransferMode::LayerStreamed",
    "RepurposeDirection::PrefillToDecode",
    "RepurposeDirection::DecodeToPrefill",
    "KvLayout::TokenPool",
    "KvLayout::Paged",
    "KvLayout::Contiguous",
    "BatchingMode::Continuous",
    "BatchingMode::Static",
    "EvictionMode::Recompute",
    "EvictionMode::Swap",
    "PrefillMode::WholePrompt",
    "PrefillMode::Chunked",
];

/// The config variants one golden runs. Every `match` is exhaustive with no
/// wildcard arm, so a new variant fails to compile here until this test
/// names it (and lists it in [`VARIANTS`]).
fn variants_run(topology: &Topology, report: &FleetReport) -> Vec<&'static str> {
    let router = |policy: RouterPolicy| match policy {
        RouterPolicy::RoundRobin => "RouterPolicy::RoundRobin",
        RouterPolicy::LeastOutstanding => "RouterPolicy::LeastOutstanding",
        RouterPolicy::LeastUsedMemory => "RouterPolicy::LeastUsedMemory",
        RouterPolicy::LeastEstimatedLoad => "RouterPolicy::LeastEstimatedLoad",
        RouterPolicy::PrefixAffinity { .. } => "RouterPolicy::PrefixAffinity",
        RouterPolicy::KvOverlap { .. } => "RouterPolicy::KvOverlap",
    };
    let engine = |config: &SimConfig| {
        [
            match config.queue_order {
                QueueOrder::Fifo => "QueueOrder::Fifo",
                QueueOrder::LeastSlackFirst { .. } => "QueueOrder::LeastSlackFirst",
                QueueOrder::ShortestPromptFirst { .. } => "QueueOrder::ShortestPromptFirst",
            },
            match config.kv_layout {
                KvLayout::TokenPool => "KvLayout::TokenPool",
                KvLayout::Paged { .. } => "KvLayout::Paged",
                KvLayout::Contiguous => "KvLayout::Contiguous",
            },
            match config.batching {
                BatchingMode::Continuous => "BatchingMode::Continuous",
                BatchingMode::Static => "BatchingMode::Static",
            },
            match config.eviction {
                EvictionMode::Recompute => "EvictionMode::Recompute",
                EvictionMode::Swap => "EvictionMode::Swap",
            },
            match config.prefill {
                PrefillMode::WholePrompt => "PrefillMode::WholePrompt",
                PrefillMode::Chunked => "PrefillMode::Chunked",
            },
        ]
    };
    let disagg = |config: &DisaggConfig| {
        let transfer = match config.transfer.mode {
            TransferMode::Atomic => "TransferMode::Atomic",
            TransferMode::LayerStreamed => "TransferMode::LayerStreamed",
        };
        let run = engine(&config.base).into_iter();
        run.chain([router(config.router), transfer]).collect()
    };
    let mut run = match topology {
        Topology::Single(config) => engine(config).to_vec(),
        Topology::Cluster { configs, policy } => configs
            .iter()
            .flat_map(engine)
            .chain([router(*policy)])
            .collect(),
        Topology::Elastic {
            base,
            router: policy,
            ..
        } => engine(base).into_iter().chain([router(*policy)]).collect(),
        Topology::Disagg { config, .. } => disagg(config),
    };
    run.extend(report.repurposes.iter().map(|event| match event.direction {
        RepurposeDirection::PrefillToDecode => "RepurposeDirection::PrefillToDecode",
        RepurposeDirection::DecodeToPrefill => "RepurposeDirection::DecodeToPrefill",
    }));
    run
}

/// The headline scalars a digest row holds, in column order.
fn digest_fields(h: &Headline) -> [(&'static str, f64); 12] {
    [
        ("completed", h.completed as f64),
        ("satisfied", h.satisfied as f64),
        ("timed_out", h.timed_out as f64),
        ("sla_attainment", h.sla_attainment),
        ("ttft_attainment", h.ttft_attainment),
        ("goodput_tok_per_s", h.goodput_tok_per_s),
        ("ttft_p50_s", h.ttft_p50_s),
        ("ttft_p99_s", h.ttft_p99_s),
        ("mtpot_p99_s", h.mtpot_p99_s),
        ("evictions", h.evictions as f64),
        ("gpu_seconds", h.gpu_seconds),
        ("cost_weighted_gpu_seconds", h.cost_weighted_gpu_seconds),
    ]
}

fn render_digests(runs: &[(String, u64, Headline)]) -> String {
    let mut out = String::from("scenario");
    for (name, _) in digest_fields(&runs[0].2) {
        out.push('\t');
        out.push_str(name);
    }
    out.push('\n');
    for (label, _, headline) in runs {
        out.push_str(label);
        for (_, value) in digest_fields(headline) {
            out.push('\t');
            out.push_str(&value.to_string());
        }
        out.push('\n');
    }
    out
}

/// Per-scalar deltas of one drifted scenario against its committed digest
/// row (`digest` is the whole committed file).
fn explain_drift(label: &str, headline: &Headline, digest: &str) -> String {
    let Some(row) = digest
        .lines()
        .find(|line| line.split('\t').next() == Some(label))
    else {
        return format!("  (no digest row for {label})");
    };
    let golden: Vec<&str> = row.split('\t').skip(1).collect();
    let mut lines = Vec::new();
    for ((name, now), was) in digest_fields(headline).into_iter().zip(golden) {
        let Ok(was) = was.parse::<f64>() else {
            lines.push(format!("  {name}: {was} -> {now}"));
            continue;
        };
        if was == now {
            continue;
        }
        // Rounded to micro-units: the digest explains, the hash gates.
        let delta = ((now - was) * 1e6).round() / 1e6;
        lines.push(format!("  {name}: {was} -> {now} ({delta:+})"));
    }
    if lines.is_empty() {
        "  (headline unchanged)".to_string()
    } else {
        lines.join("\n")
    }
}

#[test]
fn reports_are_bit_identical_to_goldens() {
    let mut covered = BTreeSet::new();
    let current: Vec<(String, u64, Headline)> = goldens()
        .iter()
        .map(|scenario| {
            let run = scenario.run(None);
            assert!(
                run.report.ledger_balances(),
                "{}: the request ledger does not balance",
                scenario.name
            );
            covered.extend(variants_run(&scenario.topology, &run.report));
            (scenario.name.clone(), run.fingerprint, run.headline)
        })
        .collect();
    let unpinned: Vec<_> = VARIANTS.iter().filter(|v| !covered.contains(*v)).collect();
    assert!(unpinned.is_empty(), "no golden runs {unpinned:?}");
    assert!(
        covered.iter().all(|v| VARIANTS.contains(v)),
        "VARIANTS misses one of {covered:?}"
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let rendered: String = current
            .iter()
            .map(|(label, fp, _)| format!("{label} {fp:#018x}\n"))
            .collect();
        std::fs::write(dir.join(GOLDEN_PATH), rendered).expect("write goldens");
        std::fs::write(dir.join(DIGEST_PATH), render_digests(&current)).expect("write digests");
        return;
    }
    let golden = std::fs::read_to_string(dir.join(GOLDEN_PATH))
        .expect("missing golden file — run with UPDATE_GOLDEN=1 to generate");
    let digest = std::fs::read_to_string(dir.join(DIGEST_PATH)).unwrap_or_default();
    let mut failures = Vec::new();
    let mut golden_lines = 0usize;
    for line in golden.lines() {
        let mut parts = line.split_whitespace();
        let (Some(label), Some(fp)) = (parts.next(), parts.next()) else {
            continue;
        };
        golden_lines += 1;
        let fp = u64::from_str_radix(fp.trim_start_matches("0x"), 16).expect("golden hex");
        match current.iter().find(|(l, _, _)| l == label) {
            Some((_, got, _)) if *got == fp => {}
            Some((_, got, headline)) => failures.push(format!(
                "{label}: {got:#018x} != golden {fp:#018x}\n{}",
                explain_drift(label, headline, &digest)
            )),
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
        "report fingerprints drifted from the goldens:\n{}",
        failures.join("\n")
    );
}
