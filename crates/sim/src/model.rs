//! LLM architecture descriptions.
//!
//! Only the quantities that drive serving performance are modelled: weight
//! bytes (read once per decode step), FLOPs per token (≈ 2 × parameters for
//! dense transformers) and KV-cache bytes per token, which follows directly
//! from the attention geometry:
//!
//! ```text
//! kv_bytes/token = 2 (K and V) × layers × kv_heads × head_dim × 2 (fp16)
//! ```

/// An LLM architecture, parameterized by its attention geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    /// Model name.
    pub name: &'static str,
    /// Total parameter count.
    pub n_params: u64,
    /// Transformer layer count.
    pub n_layers: u32,
    /// Hidden dimension.
    pub hidden: u32,
    /// Attention query heads.
    pub n_heads: u32,
    /// KV heads (smaller than `n_heads` under grouped-query attention).
    pub n_kv_heads: u32,
}

impl ModelSpec {
    /// Llama-2 7B (MHA: 32 layers × 4096 hidden, 32 heads).
    pub const fn llama2_7b() -> Self {
        ModelSpec {
            name: "Llama2-7B-Chat",
            n_params: 6_738_000_000,
            n_layers: 32,
            hidden: 4096,
            n_heads: 32,
            n_kv_heads: 32,
        }
    }

    /// Llama-2 13B (MHA: 40 layers × 5120 hidden, 40 heads).
    pub const fn llama2_13b() -> Self {
        ModelSpec {
            name: "Llama2-13B-Chat",
            n_params: 13_016_000_000,
            n_layers: 40,
            hidden: 5120,
            n_heads: 40,
            n_kv_heads: 40,
        }
    }

    /// Llama-2 70B (GQA: 80 layers × 8192 hidden, 64 query / 8 KV heads).
    pub const fn llama2_70b() -> Self {
        ModelSpec {
            name: "Llama2-70B-Chat",
            n_params: 68_977_000_000,
            n_layers: 80,
            hidden: 8192,
            n_heads: 64,
            n_kv_heads: 8,
        }
    }

    /// Qwen-VL-Chat (Qwen-7B language tower; its ViT contributes 256
    /// image tokens per image, modelled on the workload side).
    pub const fn qwen_vl_chat() -> Self {
        ModelSpec {
            name: "Qwen-VL-Chat",
            n_params: 9_600_000_000,
            n_layers: 32,
            hidden: 4096,
            n_heads: 32,
            n_kv_heads: 32,
        }
    }

    /// LLaVA-1.5-7B (Vicuna-7B tower; 576 image tokens per image).
    pub const fn llava_15_7b() -> Self {
        ModelSpec {
            name: "LLaVA-1.5-7B",
            n_params: 7_060_000_000,
            n_layers: 32,
            hidden: 4096,
            n_heads: 32,
            n_kv_heads: 32,
        }
    }

    /// LLaVA-1.5-13B (Vicuna-13B tower; 576 image tokens per image).
    pub const fn llava_15_13b() -> Self {
        ModelSpec {
            name: "LLaVA-1.5-13B",
            n_params: 13_350_000_000,
            n_layers: 40,
            hidden: 5120,
            n_heads: 40,
            n_kv_heads: 40,
        }
    }

    /// Attention head dimension.
    pub fn head_dim(&self) -> u32 {
        self.hidden / self.n_heads
    }

    /// fp16 weight footprint in bytes.
    pub fn weight_bytes(&self) -> u64 {
        self.n_params * 2
    }

    /// KV-cache bytes stored per token.
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * u64::from(self.n_layers) * u64::from(self.n_kv_heads) * u64::from(self.head_dim()) * 2
    }

    /// Dense FLOPs per processed token (≈ 2 × parameters).
    pub fn flops_per_token(&self) -> f64 {
        2.0 * self.n_params as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama2_7b_kv_footprint() {
        // 2 × 32 layers × 32 heads × 128 dim × 2 bytes = 512 KiB/token.
        let m = ModelSpec::llama2_7b();
        assert_eq!(m.head_dim(), 128);
        assert_eq!(m.kv_bytes_per_token(), 524_288);
        assert_eq!(m.weight_bytes(), 13_476_000_000);
    }

    #[test]
    fn llama2_70b_gqa_shrinks_kv() {
        // GQA: 2 × 80 × 8 × 128 × 2 = 320 KiB/token — *less* than 13B
        // despite 5× the parameters.
        let m70 = ModelSpec::llama2_70b();
        let m13 = ModelSpec::llama2_13b();
        assert_eq!(m70.kv_bytes_per_token(), 327_680);
        assert!(m70.kv_bytes_per_token() < m13.kv_bytes_per_token());
    }

    #[test]
    fn llama2_13b_kv_footprint() {
        // 2 × 40 × 40 × 128 × 2 = 800 KiB/token.
        assert_eq!(ModelSpec::llama2_13b().kv_bytes_per_token(), 819_200);
    }

    #[test]
    fn flops_scale_with_params() {
        assert!(
            ModelSpec::llama2_70b().flops_per_token()
                > 9.0 * ModelSpec::llama2_7b().flops_per_token()
        );
    }

    #[test]
    fn multimodal_towers_match_text_models() {
        assert_eq!(
            ModelSpec::llava_15_7b().kv_bytes_per_token(),
            ModelSpec::llama2_7b().kv_bytes_per_token()
        );
        assert_eq!(
            ModelSpec::llava_15_13b().kv_bytes_per_token(),
            ModelSpec::llama2_13b().kv_bytes_per_token()
        );
    }
}
