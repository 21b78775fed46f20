//! The runs behind the paper's figures and tables, one constructor per
//! bench binary.
//!
//! Each constructor is a function of the workload seed and the size, so a
//! seed bank can rerun it. Every scenario serves one engine
//! ([`Topology::Single`]), and its name is the row key of the bench's
//! table: the key columns joined by `/`, which no model, dataset,
//! scheduler or framework name contains.

use pf_core::SchedulerConfig;
use pf_frameworks::Framework;
use pf_metrics::SlaSpec;
use pf_sim::{GpuSpec, ModelSpec, SimConfig, SimConfigBuilder};
use pf_workload::datasets::{
    self, mixed_phase, sharegpt, sharegpt_o1, textvqa_llava, textvqa_qwen_vl,
};
use pf_workload::{ClosedLoopClients, RequestSpec};

use super::{base, Scenario, Topology, Workload};
use crate::output_lengths;

/// A dataset builder: `n` requests from `seed`.
type DatasetFn = fn(usize, u64) -> Vec<RequestSpec>;

/// One engine ([`Topology::Single`]) serving `workload`.
fn single(
    name: String,
    seed: u64,
    config: SimConfig,
    workload: impl Fn(u64) -> Workload + Send + Sync + 'static,
) -> Scenario {
    Scenario::new(name, seed, Topology::Single(config), workload)
}

/// `n` requests of `dataset` from the seed, all queued at t = 0.
fn offline(dataset: DatasetFn, n: usize) -> impl Fn(u64) -> Workload + Send + Sync {
    move |seed| Workload::Offline(dataset(n, seed))
}

/// `n` requests of `dataset` from the seed, served to `clients`
/// closed-loop clients.
fn closed_loop(
    dataset: DatasetFn,
    n: usize,
    clients: usize,
) -> impl Fn(u64) -> Workload + Send + Sync {
    move |seed| Workload::ClosedLoop(dataset(n, seed), ClosedLoopClients::new(clients))
}

/// Table 1: every scheduler configuration on `n` requests of each of
/// Distribution-1/2/3, offline on the Llama2-7B/A100 [`base`]. Named
/// `dataset/scheduler`.
pub fn table1(seed: u64, n: usize) -> Vec<Scenario> {
    // The paper reduces the conservative overcommit ratio on the balanced
    // distribution "due to too many evictions".
    let datasets: [(&str, DatasetFn, f64); 3] = [
        ("Distribution-1", datasets::distribution_1, 1.5),
        ("Distribution-2", datasets::distribution_2, 1.25),
        ("Distribution-3", datasets::distribution_3, 1.5),
    ];
    let mut out = Vec::new();
    for (dataset, builder, overcommit) in datasets {
        let warmup = output_lengths(&builder(1000, 777));
        for scheduler in [
            SchedulerConfig::Oracle,
            SchedulerConfig::past_future_reserved(0.03),
            SchedulerConfig::past_future_reserved(0.05),
            SchedulerConfig::past_future_reserved(0.10),
            SchedulerConfig::aggressive(0.99),
            SchedulerConfig::aggressive(0.95),
            SchedulerConfig::aggressive(0.90),
            SchedulerConfig::conservative(),
            SchedulerConfig::conservative_overcommit(overcommit),
        ] {
            let name = format!("{dataset}/{scheduler}");
            let config = base(20)
                .scheduler(scheduler)
                .history_warmup(warmup.clone())
                .build();
            out.push(single(name, seed, config, offline(builder, n)));
        }
    }
    out
}

/// Figure 1: the three scheduler classes on `n` requests of a
/// decode-heavy and a prefill-heavy distribution, recording utilization
/// series. Named `dataset/scheduler`.
pub fn fig1(seed: u64, n: usize) -> Vec<Scenario> {
    let datasets: [(&str, DatasetFn); 2] = [
        ("decode-heavy (Distribution-1)", datasets::distribution_1),
        ("prefill-heavy (Distribution-3)", datasets::distribution_3),
    ];
    let mut out = Vec::new();
    for (dataset, builder) in datasets {
        let warmup = output_lengths(&builder(1000, 555));
        for scheduler in [
            SchedulerConfig::conservative(),
            SchedulerConfig::aggressive(0.99),
            SchedulerConfig::past_future_reserved(0.03),
        ] {
            let name = format!("{dataset}/{scheduler}");
            let config = base(30)
                .scheduler(scheduler)
                .history_warmup(warmup.clone())
                .record_series(true)
                .build();
            out.push(single(name, seed, config, offline(builder, n)));
        }
    }
    out
}

/// Figure 7: goodput against closed-loop clients for the three scheduler
/// classes, on four datasets and three model scales (A100-80G, 4-way
/// tensor parallel for 70B). `quick` keeps every other client count and
/// shrinks each curve's workload. Named `model/dataset/scheduler/clients`.
pub fn fig7(seed: u64, quick: bool) -> Vec<Scenario> {
    let models: [(&str, ModelSpec, u32, SlaSpec, &[usize]); 3] = [
        (
            "Llama2-7B",
            ModelSpec::llama2_7b(),
            1,
            SlaSpec::chat_7b(),
            &[10, 20, 30, 40, 60, 80, 100],
        ),
        (
            "Llama2-13B",
            ModelSpec::llama2_13b(),
            1,
            SlaSpec::chat_7b(),
            &[10, 20, 30, 40, 60, 80, 100],
        ),
        (
            "Llama2-70B (4xA100)",
            ModelSpec::llama2_70b(),
            4,
            SlaSpec::chat_70b(),
            &[100, 200, 300, 400, 500],
        ),
    ];
    let datasets: [(&str, DatasetFn); 4] = [
        ("ShareGPT-o1", sharegpt_o1),
        ("Distribution-1", datasets::distribution_1),
        ("Distribution-2", datasets::distribution_2),
        ("Distribution-3", datasets::distribution_3),
    ];
    let mut out = Vec::new();
    for (model_name, model, tp, sla, clients_list) in models {
        let clients_list = clients_list.iter().step_by(if quick { 2 } else { 1 });
        // Fixed workload size per curve (the paper measures a fixed test
        // window at every concurrency level, which is what makes goodput
        // plateau beyond saturation).
        let n = match (tp > 1, quick) {
            (true, false) => 1000,
            (true, true) => 250,
            (false, false) => 400,
            (false, true) => 150,
        };
        for (dataset, builder) in datasets {
            let warmup = output_lengths(&builder(1000, 888));
            for scheduler in [
                SchedulerConfig::conservative(),
                SchedulerConfig::aggressive(0.99),
                SchedulerConfig::past_future_reserved(0.03),
            ] {
                for &clients in clients_list.clone() {
                    let name = format!("{model_name}/{dataset}/{scheduler}/{clients}");
                    let config = SimConfig::builder(model, GpuSpec::a100_80g())
                        .tensor_parallel(tp)
                        .scheduler(scheduler.clone())
                        .sla(sla)
                        .history_warmup(warmup.clone())
                        .record_series(false)
                        .seed(40)
                        .build();
                    out.push(single(name, seed, config, closed_loop(builder, n, clients)));
                }
            }
        }
    }
    out
}

/// Figure 8: every scheduler family across its parameter curve on the
/// varying-load workload (ShareGPT-o1 ∥ Distribution-1/2/3, `n` requests
/// each), offline. Named by scheduler.
pub fn fig8(seed: u64, n: usize) -> Vec<Scenario> {
    // History warmed on the first phase's service (the workload then
    // drifts through D1→D2→D3 — exactly the regime the sliding window is
    // built for).
    let warmup = output_lengths(&sharegpt_o1(1000, 999));
    let schedulers = std::iter::once(SchedulerConfig::Oracle)
        .chain([1.0, 1.05, 1.10, 1.15, 1.20, 1.22].map(SchedulerConfig::conservative_overcommit))
        .chain([0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90].map(SchedulerConfig::aggressive))
        .chain([0.03, 0.05, 0.10, 0.15, 0.20].map(SchedulerConfig::past_future_reserved));
    schedulers
        .map(|scheduler| {
            let name = scheduler.to_string();
            let config = base(50)
                .scheduler(scheduler)
                .history_warmup(warmup.clone())
                .build();
            single(name, seed, config, offline(mixed_phase, n))
        })
        .collect()
}

/// Figure 9: the five serving frameworks on every hardware platform,
/// closed-loop ShareGPT with `max_new_tokens = 2048`. Each deployment is
/// loaded to about 1.5x its concurrent capacity, so throughput saturates
/// and SLA pressure appears. Named `model/hardware/framework`.
pub fn fig9(seed: u64) -> Vec<Scenario> {
    type Fleet = Vec<(GpuSpec, u32)>;
    let deployments: [(&str, ModelSpec, SlaSpec, Fleet); 3] = [
        (
            "Llama2-7B",
            ModelSpec::llama2_7b(),
            SlaSpec::chat_7b(),
            vec![
                (GpuSpec::a100_80g(), 1),
                (GpuSpec::h800(), 1),
                (GpuSpec::rtx_4090(), 1),
                (GpuSpec::a30(), 1),
            ],
        ),
        (
            "Llama2-13B",
            ModelSpec::llama2_13b(),
            SlaSpec::chat_7b(),
            vec![
                (GpuSpec::a100_80g(), 1),
                (GpuSpec::h800(), 1),
                (GpuSpec::rtx_4090(), 2),
                (GpuSpec::a30(), 2),
            ],
        ),
        (
            "Llama2-70B",
            ModelSpec::llama2_70b(),
            SlaSpec::chat_70b(),
            vec![
                (GpuSpec::a100_80g(), 4),
                (GpuSpec::h800(), 4),
                (GpuSpec::rtx_4090(), 8),
            ],
        ),
    ];
    let warmup = output_lengths(&sharegpt(1000, 666));
    let mut out = Vec::new();
    for (model_name, model, sla, hardware) in deployments {
        for (gpu, tp) in hardware {
            let hardware = if tp > 1 {
                format!("{} x{}", gpu.name, tp)
            } else {
                gpu.name.to_string()
            };
            for framework in Framework::FIGURE9 {
                let config = framework
                    .config(model, gpu, tp)
                    .sla(sla)
                    .history_warmup(warmup.clone())
                    .record_series(false)
                    .seed(60)
                    .build();
                let avg_footprint = 950u64; // ShareGPT mean input+output
                let clients =
                    ((config.capacity_tokens() / avg_footprint) * 3 / 2).clamp(8, 256) as usize;
                let n = (clients * 4).clamp(120, 1000);
                let name = format!("{model_name}/{hardware}/{}", framework.name());
                out.push(single(
                    name,
                    seed,
                    config,
                    closed_loop(sharegpt, n, clients),
                ));
            }
        }
    }
    out
}

/// Table 2: each multimodal model on `n` TextVQA-like requests, offline,
/// in its original static-batching implementation and then in LightLLM
/// with the Past-Future scheduler. Named `model/framework`, the two runs
/// of a model adjacent.
pub fn table2(seed: u64, n: usize) -> Vec<Scenario> {
    let models: [(&str, ModelSpec, DatasetFn); 3] = [
        ("Qwen-VL-Chat", ModelSpec::qwen_vl_chat(), textvqa_qwen_vl),
        ("Llava-1.5-7B", ModelSpec::llava_15_7b(), textvqa_llava),
        ("Llava-1.5-13B", ModelSpec::llava_15_13b(), textvqa_llava),
    ];
    let mut out = Vec::new();
    for (model_name, model, dataset) in models {
        for framework in [Framework::HfOriginal, Framework::LightLlm] {
            let name = format!("{model_name}/{}", framework.name());
            let config = framework
                .config(model, GpuSpec::a100_80g(), 1)
                .record_series(false)
                .seed(1)
                .build();
            out.push(single(name, seed, config, offline(dataset, n)));
        }
    }
    out
}

/// One offline Past-Future run on the Llama2-7B/A100 base config with a
/// given history window and number of sampling passes.
fn past_future(
    config_seed: u64,
    window: usize,
    sample_repeats: usize,
    warmup: Vec<u32>,
) -> SimConfigBuilder {
    base(config_seed)
        .scheduler(SchedulerConfig::PastFuture {
            window,
            reserved_frac: 0.05,
            sample_repeats,
        })
        .history_warmup(warmup)
}

/// Ablation of Past-Future's sampling passes: 1 to 16 passes on `n`
/// ShareGPT-o1 requests at a small (about 8 concurrent requests) and a
/// large (about 50) KV capacity. Named `capacity/passes`.
pub fn ablation_repeats(seed: u64, n: usize) -> Vec<Scenario> {
    let warmup = output_lengths(&sharegpt_o1(1000, 91));
    let mut out = Vec::new();
    for (capacity_label, capacity) in [
        ("small batch (15k tokens)", 15_000u64),
        ("large batch (90k tokens)", 90_000),
    ] {
        for sample_repeats in [1usize, 2, 4, 8, 16] {
            let name = format!("{capacity_label}/{sample_repeats}");
            let config = past_future(71, 1000, sample_repeats, warmup.clone())
                .capacity_override(capacity)
                .build();
            out.push(single(name, seed, config, offline(sharegpt_o1, n)));
        }
    }
    out
}

/// Ablation of Past-Future's history window, 50 to 5000 entries, on the
/// phase-drifting workload (`n` requests per phase). Named by
/// window.
pub fn ablation_window(seed: u64, n: usize) -> Vec<Scenario> {
    let warmup = output_lengths(&sharegpt_o1(1000, 81));
    [50usize, 100, 200, 500, 1000, 2000, 5000]
        .map(|window| {
            let (name, config) = (
                window.to_string(),
                past_future(70, window, 4, warmup.clone()),
            );
            single(name, seed, config.build(), offline(mixed_phase, n))
        })
        .into()
}
