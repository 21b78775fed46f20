//! Serving-framework presets for the paper's end-to-end comparison
//! (Figure 9, Table 2).
//!
//! Each preset reduces a real serving stack to the properties that drive
//! the goodput comparison: its *scheduler class*, its *memory manager*, its
//! *batching/prefill discipline* and a scalar *kernel-speed multiplier*
//! (relative to the LightLLM baseline, calibrated from the December-2023
//! static single-batch latencies the paper's comparison is based on):
//!
//! | Preset | Scheduler | Memory | Batching | Kernels |
//! |---|---|---|---|---|
//! | LightLLM | Past-Future | token pool | continuous | 1.00× |
//! | vLLM | aggressive (watermark) | paged blocks | continuous | 1.00× |
//! | TGI | conservative | paged blocks | continuous | 0.95× |
//! | DeepSpeed-MII | conservative | token pool | continuous + splitfuse | 1.00× |
//! | TensorRT-LLM | conservative | paged blocks | continuous | 1.15× |
//! | HF original (multimodal) | conservative | contiguous | static | 0.90× |
//!
//! # Example
//!
//! ```
//! use pf_frameworks::Framework;
//! use pf_sim::{GpuSpec, ModelSpec, Simulation};
//! use pf_workload::{datasets, ClosedLoopClients};
//!
//! let config = Framework::LightLlm
//!     .config(ModelSpec::llama2_7b(), GpuSpec::a100_80g(), 1)
//!     .seed(3)
//!     .build();
//! let report = Simulation::closed_loop(
//!     config,
//!     datasets::sharegpt(32, 3),
//!     ClosedLoopClients::new(8),
//! )
//! .run()?;
//! assert_eq!(report.completed, 32);
//! # Ok::<(), pf_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use pf_core::SchedulerConfig;
use pf_sim::{
    BatchingMode, GpuSpec, KvLayout, ModelSpec, PrefillMode, SimConfig, SimConfigBuilder,
};

/// The serving frameworks compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Framework {
    /// LightLLM with the Past-Future scheduler (the paper's system).
    LightLlm,
    /// vLLM: aggressive scheduler over PagedAttention.
    Vllm,
    /// HuggingFace Text-Generation-Inference: conservative scheduler.
    Tgi,
    /// DeepSpeed-MII (FastGen): conservative scheduler with the splitfuse
    /// chunked-prefill strategy.
    DeepSpeedMii,
    /// TensorRT-LLM with a conservative scheduler (the paper implemented
    /// the scheduler for this backend; fastest static kernels).
    TensorRtLlm,
    /// Original HuggingFace implementations of the multimodal models
    /// (static batching) — the Table 2 baseline.
    HfOriginal,
}

/// A fully resolved preset: scheduler, memory manager, batching and
/// relative kernel speed.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkPreset {
    /// Display name used in reports.
    pub name: &'static str,
    /// Admission policy.
    pub scheduler: SchedulerConfig,
    /// KV-cache layout.
    pub kv_layout: KvLayout,
    /// Batching discipline.
    pub batching: BatchingMode,
    /// Prompt-processing discipline.
    pub prefill: PrefillMode,
    /// Kernel speed relative to the LightLLM baseline.
    pub kernel_speedup: f64,
}

impl Framework {
    /// All frameworks in the Figure 9 comparison (text serving).
    pub const FIGURE9: [Framework; 5] = [
        Framework::Tgi,
        Framework::Vllm,
        Framework::DeepSpeedMii,
        Framework::TensorRtLlm,
        Framework::LightLlm,
    ];

    /// The resolved preset.
    pub fn preset(self) -> FrameworkPreset {
        match self {
            Framework::LightLlm => FrameworkPreset {
                name: "LightLLM",
                scheduler: SchedulerConfig::past_future_reserved(0.03),
                kv_layout: KvLayout::TokenPool,
                batching: BatchingMode::Continuous,
                prefill: PrefillMode::WholePrompt,
                kernel_speedup: 1.0,
            },
            Framework::Vllm => FrameworkPreset {
                name: "vLLM",
                scheduler: SchedulerConfig::aggressive(0.99),
                kv_layout: KvLayout::Paged { block_size: 16 },
                batching: BatchingMode::Continuous,
                prefill: PrefillMode::WholePrompt,
                kernel_speedup: 1.0,
            },
            Framework::Tgi => FrameworkPreset {
                name: "TGI",
                scheduler: SchedulerConfig::conservative(),
                kv_layout: KvLayout::Paged { block_size: 16 },
                batching: BatchingMode::Continuous,
                prefill: PrefillMode::WholePrompt,
                kernel_speedup: 0.95,
            },
            Framework::DeepSpeedMii => FrameworkPreset {
                name: "DeepSpeed-MII",
                scheduler: SchedulerConfig::conservative(),
                kv_layout: KvLayout::TokenPool,
                batching: BatchingMode::Continuous,
                prefill: PrefillMode::Chunked { chunk_tokens: 512 },
                kernel_speedup: 1.0,
            },
            Framework::TensorRtLlm => FrameworkPreset {
                name: "TensorRT-LLM",
                scheduler: SchedulerConfig::conservative(),
                kv_layout: KvLayout::Paged { block_size: 64 },
                batching: BatchingMode::Continuous,
                prefill: PrefillMode::WholePrompt,
                kernel_speedup: 1.15,
            },
            Framework::HfOriginal => FrameworkPreset {
                name: "Original (HF)",
                scheduler: SchedulerConfig::conservative(),
                kv_layout: KvLayout::Contiguous,
                batching: BatchingMode::Static { max_batch: 16 },
                prefill: PrefillMode::WholePrompt,
                kernel_speedup: 0.9,
            },
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        self.preset().name
    }

    /// Builds a [`SimConfig`] builder pre-populated with this framework's
    /// preset for the given deployment. Call `.seed(..)`, `.sla(..)` etc.
    /// and `.build()` to finish.
    pub fn config(self, model: ModelSpec, gpu: GpuSpec, tensor_parallel: u32) -> SimConfigBuilder {
        let preset = self.preset();
        SimConfig::builder(model, gpu)
            .tensor_parallel(tensor_parallel)
            .scheduler(preset.scheduler)
            .kv_layout(preset.kv_layout)
            .batching(preset.batching)
            .prefill(preset.prefill)
            .kernel_speedup(preset.kernel_speedup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_sim::Simulation;
    use pf_workload::{datasets, ClosedLoopClients};

    #[test]
    fn presets_are_distinct_and_named() {
        let names: std::collections::BTreeSet<&str> = [
            Framework::LightLlm,
            Framework::Vllm,
            Framework::Tgi,
            Framework::DeepSpeedMii,
            Framework::TensorRtLlm,
            Framework::HfOriginal,
        ]
        .iter()
        .map(|f| f.name())
        .collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn lightllm_uses_past_future_vllm_uses_aggressive() {
        assert!(matches!(
            Framework::LightLlm.preset().scheduler,
            SchedulerConfig::PastFuture { .. }
        ));
        assert!(matches!(
            Framework::Vllm.preset().scheduler,
            SchedulerConfig::Aggressive { .. }
        ));
        assert!(matches!(
            Framework::Tgi.preset().scheduler,
            SchedulerConfig::Conservative { .. }
        ));
    }

    #[test]
    fn figure9_lineup_matches_paper() {
        assert_eq!(Framework::FIGURE9.len(), 5);
        assert!(Framework::FIGURE9.contains(&Framework::LightLlm));
        assert!(!Framework::FIGURE9.contains(&Framework::HfOriginal));
    }

    #[test]
    fn every_figure9_preset_serves_a_small_workload() {
        for framework in Framework::FIGURE9 {
            let config = framework
                .config(ModelSpec::llama2_7b(), GpuSpec::a100_80g(), 1)
                .seed(1)
                .capacity_override(60_000)
                .record_series(false)
                .build();
            let report = Simulation::closed_loop(
                config,
                datasets::sharegpt(24, 1),
                ClosedLoopClients::new(6),
            )
            .run()
            .unwrap_or_else(|e| panic!("{} failed: {e}", framework.name()));
            assert_eq!(report.completed, 24, "{}", framework.name());
        }
    }

    #[test]
    fn hf_original_static_batching_works() {
        let config = Framework::HfOriginal
            .config(ModelSpec::llava_15_7b(), GpuSpec::a100_80g(), 1)
            .seed(2)
            .record_series(false)
            .build();
        let report = Simulation::offline(config, datasets::textvqa_llava(32, 2))
            .run()
            .unwrap();
        assert_eq!(report.completed, 32);
        assert_eq!(report.evictions, 0);
    }

    #[test]
    fn trt_kernels_faster_than_tgi() {
        assert!(
            Framework::TensorRtLlm.preset().kernel_speedup > Framework::Tgi.preset().kernel_speedup
        );
    }
}
