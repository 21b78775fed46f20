//! Roofline GPU performance model.
//!
//! Step latencies are modelled as `max(compute time, memory time) + fixed
//! overhead`:
//!
//! * **prefill** is compute-bound: `2 · params · tokens` FLOPs against the
//!   GPU's tensor throughput;
//! * **decode** is bandwidth-bound: every step must re-read the weights and
//!   the live KV cache from HBM, while the per-token GEMV math is tiny;
//! * **mixed** steps (chunked prefill / splitfuse) combine a prompt chunk
//!   with a decode batch in a single forward pass.
//!
//! Tensor parallelism divides both FLOPs and bytes across GPUs at an
//! efficiency discount. The serving stack's efficiencies and step overhead
//! are fixed constants (LightLLM's); the one per-deployment knob is the
//! `kernel_speedup` multiplier, which differentiates faster/slower serving
//! stacks (e.g. the TensorRT-LLM preset) and GPU generations without
//! changing the model.

use pf_metrics::SimDuration;

use crate::hardware::GpuSpec;
use crate::model::ModelSpec;

/// Fraction of peak FLOPs achieved by prefill GEMMs.
const PREFILL_FLOPS_EFF: f64 = 0.55;
/// Fraction of peak FLOPs achieved by decode GEMVs.
const DECODE_FLOPS_EFF: f64 = 0.35;
/// Fraction of peak memory bandwidth achieved.
const BW_EFF: f64 = 0.75;
/// Tensor-parallel scaling efficiency per extra GPU.
const TP_EFF: f64 = 0.85;
/// Fixed per-step overhead (kernel launches, scheduler, Python glue).
const STEP_OVERHEAD: SimDuration = SimDuration::from_micros(350);

/// Step-latency model for one (model, GPU, tensor-parallel degree) triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    model: ModelSpec,
    gpu: GpuSpec,
    tensor_parallel: u32,
    kernel_speedup: f64,
}

impl PerfModel {
    /// Builds a performance model whose whole stack runs `kernel_speedup`
    /// times the LightLLM baseline's speed (1.0; >1 = faster kernels).
    ///
    /// # Panics
    ///
    /// Panics if `tensor_parallel` is zero.
    pub fn new(model: ModelSpec, gpu: GpuSpec, tensor_parallel: u32, kernel_speedup: f64) -> Self {
        assert!(tensor_parallel > 0, "tensor_parallel must be at least 1");
        PerfModel {
            model,
            gpu,
            tensor_parallel,
            kernel_speedup,
        }
    }

    /// The model being served.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The GPU (single device of the TP group).
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Tensor-parallel degree.
    pub fn tensor_parallel(&self) -> u32 {
        self.tensor_parallel
    }

    /// KV-cache capacity in tokens: per-GPU HBM minus the weight shard and
    /// a fixed activation reserve, divided by the per-token KV footprint.
    pub fn kv_capacity_tokens(&self) -> u64 {
        let tp = u64::from(self.tensor_parallel);
        let total_hbm = self.gpu.hbm_bytes() * tp;
        // 8% of HBM reserved for activations, CUDA context and workspace.
        let usable = (total_hbm as f64 * 0.92) as u64;
        let for_kv = usable.saturating_sub(self.model.weight_bytes());
        for_kv / self.model.kv_bytes_per_token()
    }

    /// Effective FLOP/s of the TP group.
    fn effective_flops(&self, base_eff: f64) -> f64 {
        let tp = self.tensor_parallel as f64;
        let tp_scale = if self.tensor_parallel > 1 {
            tp * TP_EFF
        } else {
            1.0
        };
        self.gpu.flops() * base_eff * tp_scale * self.kernel_speedup
    }

    /// Effective bytes/s of the TP group.
    fn effective_bw(&self) -> f64 {
        let tp = self.tensor_parallel as f64;
        let tp_scale = if self.tensor_parallel > 1 {
            tp * TP_EFF
        } else {
            1.0
        };
        self.gpu.bw_bytes_per_s() * BW_EFF * tp_scale * self.kernel_speedup
    }

    /// Latency of a prefill step over `prompt_tokens` total tokens.
    pub fn prefill_step(&self, prompt_tokens: u64) -> SimDuration {
        if prompt_tokens == 0 {
            return SimDuration::ZERO;
        }
        let compute = self.model.flops_per_token() * prompt_tokens as f64
            / self.effective_flops(PREFILL_FLOPS_EFF);
        let memory = self.model.weight_bytes() as f64 / self.effective_bw();
        self.finish(compute.max(memory))
    }

    /// Latency of one decode step for `batch_size` sequences with
    /// `kv_tokens` total live KV-cache tokens.
    pub fn decode_step(&self, batch_size: u64, kv_tokens: u64) -> SimDuration {
        if batch_size == 0 {
            return SimDuration::ZERO;
        }
        let compute = self.model.flops_per_token() * batch_size as f64
            / self.effective_flops(DECODE_FLOPS_EFF);
        let bytes =
            self.model.weight_bytes() as f64 + (kv_tokens * self.model.kv_bytes_per_token()) as f64;
        let memory = bytes / self.effective_bw();
        self.finish(compute.max(memory))
    }

    /// Latency of a mixed step (chunked prefill): `chunk_tokens` prompt
    /// tokens fused with a `batch_size`-sequence decode over `kv_tokens`.
    pub fn mixed_step(&self, chunk_tokens: u64, batch_size: u64, kv_tokens: u64) -> SimDuration {
        if chunk_tokens == 0 {
            return self.decode_step(batch_size, kv_tokens);
        }
        let compute = self.model.flops_per_token() * (chunk_tokens + batch_size) as f64
            / self.effective_flops(PREFILL_FLOPS_EFF);
        let bytes =
            self.model.weight_bytes() as f64 + (kv_tokens * self.model.kv_bytes_per_token()) as f64;
        let memory = bytes / self.effective_bw();
        self.finish(compute.max(memory))
    }

    /// Host-device transfer time for swapping `tokens` KV entries over a
    /// `pcie_gbps` link (one direction).
    pub fn swap_transfer(&self, tokens: u64, pcie_gbps: f64) -> SimDuration {
        let bytes = (tokens * self.model.kv_bytes_per_token()) as f64;
        SimDuration::from_secs_f64(bytes / (pcie_gbps * 1e9))
    }

    fn finish(&self, seconds: f64) -> SimDuration {
        SimDuration::from_secs_f64(seconds) + STEP_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100_7b() -> PerfModel {
        PerfModel::new(ModelSpec::llama2_7b(), GpuSpec::a100_80g(), 1, 1.0)
    }

    #[test]
    fn capacity_in_expected_range() {
        // ~80 GiB × 0.92 − 13.5 GB weights ≈ 65 GB / 512 KiB ≈ 120k tokens.
        let cap = a100_7b().kv_capacity_tokens();
        assert!(
            (100_000..140_000).contains(&cap),
            "unexpected 7B capacity {cap}"
        );
    }

    #[test]
    fn capacity_scales_with_tensor_parallel() {
        let m70 = |tp| {
            PerfModel::new(ModelSpec::llama2_70b(), GpuSpec::a100_80g(), tp, 1.0)
                .kv_capacity_tokens()
        };
        // 70B does not even fit on one A100-80G.
        assert_eq!(m70(1), 0);
        assert!(m70(4) > 400_000, "4×A100 70B capacity {}", m70(4));
        assert!(m70(8) > 2 * m70(4) - m70(4) / 2);
    }

    #[test]
    fn decode_is_bandwidth_bound() {
        // Reading 13.5 GB of weights at ~1.5 TB/s is ≈ 9 ms even with an
        // empty KV cache; decode latency must be dominated by it.
        let pm = a100_7b();
        let empty = pm.decode_step(1, 0);
        assert!(empty.as_millis_f64() > 5.0);
        // A full KV cache adds tens of milliseconds.
        let full = pm.decode_step(32, 120_000);
        assert!(full > empty * 3);
        assert!(full.as_millis_f64() < 200.0);
    }

    #[test]
    fn prefill_scales_with_tokens() {
        let pm = a100_7b();
        let short = pm.prefill_step(128);
        let long = pm.prefill_step(4096);
        assert!(long > short * 8);
        // ~0.37 s of pure math for a 4k prefill at 55% of peak.
        let secs = long.as_secs_f64();
        assert!((0.2..1.0).contains(&secs), "4k prefill {secs}s");
    }

    #[test]
    fn kernel_speedup_accelerates_everything() {
        let base = a100_7b();
        let fast = PerfModel::new(ModelSpec::llama2_7b(), GpuSpec::a100_80g(), 1, 2.0);
        assert!(fast.prefill_step(2048) < base.prefill_step(2048));
        assert!(fast.decode_step(8, 50_000) < base.decode_step(8, 50_000));
        assert!(fast.mixed_step(512, 8, 50_000) < base.mixed_step(512, 8, 50_000));
    }

    #[test]
    fn zero_work_is_free() {
        let pm = a100_7b();
        assert_eq!(pm.prefill_step(0), SimDuration::ZERO);
        assert_eq!(pm.decode_step(0, 0), SimDuration::ZERO);
    }

    #[test]
    fn mixed_step_between_decode_and_prefill() {
        let pm = a100_7b();
        let decode = pm.decode_step(16, 60_000);
        let mixed = pm.mixed_step(512, 16, 60_000);
        assert!(mixed >= decode);
        // Chunked prefill with zero chunk degenerates to decode.
        assert_eq!(pm.mixed_step(0, 16, 60_000), decode);
    }

    #[test]
    fn tp_reduces_step_time() {
        let one = PerfModel::new(ModelSpec::llama2_70b(), GpuSpec::a100_80g(), 4, 1.0);
        let two = PerfModel::new(ModelSpec::llama2_70b(), GpuSpec::a100_80g(), 8, 1.0);
        assert!(two.decode_step(16, 100_000) < one.decode_step(16, 100_000));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_tp_panics() {
        let _ = PerfModel::new(ModelSpec::llama2_7b(), GpuSpec::a100_80g(), 0, 1.0);
    }
}
