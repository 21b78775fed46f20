//! GPU hardware descriptions.
//!
//! The simulator only needs three numbers per accelerator — HBM capacity,
//! dense fp16 throughput and memory bandwidth — because LLM inference is
//! either compute-bound (prefill) or bandwidth-bound (decode), and KV-cache
//! capacity is a memory-size budget. Presets carry published datasheet
//! numbers for the GPUs the paper evaluates on.

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// A GPU model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// HBM/GDDR capacity in GiB.
    pub hbm_gib: f64,
    /// Dense fp16/bf16 tensor throughput in TFLOPS.
    pub tflops_fp16: f64,
    /// Memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
}

impl GpuSpec {
    /// NVIDIA A100 80GB SXM (312 TFLOPS dense fp16, 2039 GB/s).
    pub const fn a100_80g() -> Self {
        GpuSpec {
            name: "A100-80G",
            hbm_gib: 80.0,
            tflops_fp16: 312.0,
            mem_bw_gbps: 2039.0,
        }
    }

    /// NVIDIA H800 80GB (H100-class compute, 989 TFLOPS dense fp16,
    /// 3350 GB/s).
    pub const fn h800() -> Self {
        GpuSpec {
            name: "H800",
            hbm_gib: 80.0,
            tflops_fp16: 989.0,
            mem_bw_gbps: 3350.0,
        }
    }

    /// NVIDIA GeForce RTX 4090 24GB (165 TFLOPS dense fp16, 1008 GB/s).
    pub const fn rtx_4090() -> Self {
        GpuSpec {
            name: "RTX-4090",
            hbm_gib: 24.0,
            tflops_fp16: 165.0,
            mem_bw_gbps: 1008.0,
        }
    }

    /// NVIDIA A30 24GB (165 TFLOPS dense fp16, 933 GB/s).
    pub const fn a30() -> Self {
        GpuSpec {
            name: "A30",
            hbm_gib: 24.0,
            tflops_fp16: 165.0,
            mem_bw_gbps: 933.0,
        }
    }

    /// HBM capacity in bytes.
    pub fn hbm_bytes(&self) -> u64 {
        (self.hbm_gib * GIB) as u64
    }

    /// Peak fp16 FLOP/s.
    pub fn flops(&self) -> f64 {
        self.tflops_fp16 * 1e12
    }

    /// Memory bandwidth in bytes/s.
    pub fn bw_bytes_per_s(&self) -> f64 {
        self.mem_bw_gbps * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_magnitudes() {
        for gpu in [
            GpuSpec::a100_80g(),
            GpuSpec::h800(),
            GpuSpec::rtx_4090(),
            GpuSpec::a30(),
        ] {
            assert!(gpu.hbm_bytes() > 20 * (GIB as u64));
            assert!(gpu.flops() > 1e14, "{}", gpu.name);
            assert!(gpu.bw_bytes_per_s() > 5e11, "{}", gpu.name);
        }
    }

    #[test]
    fn a100_matches_datasheet() {
        let a100 = GpuSpec::a100_80g();
        assert_eq!(a100.hbm_gib, 80.0);
        assert_eq!(a100.tflops_fp16, 312.0);
        assert!((a100.bw_bytes_per_s() - 2.039e12).abs() < 1e9);
    }

    #[test]
    fn h800_outclasses_a100() {
        assert!(GpuSpec::h800().flops() > GpuSpec::a100_80g().flops());
        assert!(GpuSpec::h800().bw_bytes_per_s() > GpuSpec::a100_80g().bw_bytes_per_s());
    }
}
