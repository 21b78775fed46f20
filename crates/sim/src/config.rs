//! Simulation configuration.

use pf_core::SchedulerConfig;
use pf_kvcache::KvPool;
use pf_metrics::{SimDuration, SlaSpec};

use crate::hardware::GpuSpec;
use crate::model::ModelSpec;
use crate::perf::PerfModel;

/// KV-cache memory-manager choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvLayout {
    /// Token-granularity pool (LightLLM TokenAttention).
    TokenPool,
    /// Fixed-size block pool (vLLM PagedAttention).
    Paged {
        /// Block size in tokens (vLLM default: 16).
        block_size: u64,
    },
    /// Contiguous max-length reservation (FasterTransformer-era systems).
    Contiguous,
}

/// Batching discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchingMode {
    /// Continuous batching (iteration-level scheduling).
    Continuous,
    /// Static batching: form a batch, pad, run it to full completion
    /// (pre-ORCA systems; the "original implementation" multimodal
    /// baselines in Table 2).
    Static {
        /// Maximum requests per static batch.
        max_batch: usize,
    },
}

/// What happens to a request evicted under memory pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvictionMode {
    /// Recompute preemption (vLLM/LightLLM default): the victim's KV cache
    /// is dropped; on readmission the prompt plus generated tokens are
    /// re-prefilled.
    Recompute,
    /// Swap preemption: the victim's KV cache is copied to host memory over
    /// PCIe and copied back on resume — no recompute, but the transfers
    /// stall the engine in both directions. (The swap-in cost is modelled
    /// in whole-prompt prefill steps; under [`PrefillMode::Chunked`] the
    /// restore is treated as free, a small optimism acceptable because the
    /// chunked baseline never evicts in the paper's experiments.)
    Swap {
        /// Effective host-device bandwidth in GB/s (PCIe 4.0 x16 ≈ 25).
        pcie_gbps: f64,
    },
}

impl EvictionMode {
    /// Swap preemption over PCIe 4.0 x16 (≈25 GB/s effective).
    pub const fn swap_pcie4() -> Self {
        EvictionMode::Swap { pcie_gbps: 25.0 }
    }
}

/// Prompt-processing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefillMode {
    /// Admitted prompts are processed in one dedicated prefill step
    /// (LightLLM / vLLM default; decode pauses during prefill).
    WholePrompt,
    /// Chunked prefill fused with decode steps (DeepSpeed-MII "splitfuse").
    Chunked {
        /// Prompt tokens processed per step.
        chunk_tokens: u64,
    },
}

/// The default least-slack-first aging cap: [`QueueOrder::least_slack`]
/// uses it, and the disagg link weighs streams by it under any other
/// queue order.
pub(crate) const DEFAULT_AGING_CAP: SimDuration = SimDuration::from_secs(30);

/// Order in which the engine's admission loop serves waiting requests
/// (in every topology, the disaggregated pools' engines included).
///
/// [`QueueOrder::LeastSlackFirst`] is the deadline-aware discipline: the
/// queue is ranked by *remaining slack* — the request's effective deadline
/// ([`pf_workload::RequestSpec::deadline`], else
/// [`SimConfig::request_deadline`]) minus the time it has already waited —
/// so a request 50 ms from missing overtakes one with 5 s to spare.
/// Requests with no effective deadline rank last, and an aging cap
/// guarantees no request (deadline-less or lax) can starve behind an
/// endless stream of tight ones. Requests whose slack has already fallen
/// below the minimum feasible prefill time are dropped early and counted
/// `timed_out` — admitting them would burn a prefill pass (and KV) on a
/// request that is guaranteed to miss.
///
/// [`QueueOrder::ShortestPromptFirst`] ranks by prompt length instead:
/// short prompts overtake long ones, cutting the TTFT tail on mixed
/// prompt lengths, and the same aging cap bounds how long a long prompt
/// can be overtaken. In every order, preempted requests (mid-response)
/// are served first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueOrder {
    /// Arrival order (the default; deadlines only act as the cancellation
    /// guillotine).
    #[default]
    Fifo,
    /// Least remaining deadline slack first, with early-drop of doomed
    /// requests (see the type-level docs).
    LeastSlackFirst {
        /// Once a request has waited this long it is served in arrival
        /// order ahead of any slack ranking (starvation bound for
        /// deadline-less and lax requests).
        aging_cap: SimDuration,
    },
    /// Shortest prompt first, with no early drop (see the type-level
    /// docs).
    ShortestPromptFirst {
        /// Once a request has waited this long it is served in arrival
        /// order ahead of any shorter prompt (starvation bound).
        aging_cap: SimDuration,
    },
}

impl QueueOrder {
    /// Least-slack-first with a 30-second aging cap.
    pub fn least_slack() -> Self {
        QueueOrder::LeastSlackFirst {
            aging_cap: DEFAULT_AGING_CAP,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            QueueOrder::Fifo => "fifo",
            QueueOrder::LeastSlackFirst { .. } => "least-slack",
            QueueOrder::ShortestPromptFirst { .. } => "sjf",
        }
    }

    /// Whether this discipline ranks by slack (and early-drops doomed
    /// requests).
    pub fn is_slack_aware(self) -> bool {
        matches!(self, QueueOrder::LeastSlackFirst { .. })
    }
}

/// Prefix-cache configuration: the instance retains finished requests'
/// conversation KV as a chain of fixed-size chained-hash KV blocks
/// ([`pf_kvcache::BlockPrefixCache`]), so later requests sharing a
/// leading run of those blocks — the session's earlier turns, or a shared
/// system prompt across sessions — skip re-prefilling the cached tokens.
/// Eviction is LRU and suffix-granular, and the store emits
/// [`pf_kvcache::KvEvent`]s consumable by a global
/// [`pf_kvcache::KvIndexer`]. The cache's occupancy is charged against
/// the *same* KV pool as request KV (and reclaimed first under memory
/// pressure), bounded by `budget_frac` of capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixCacheConfig {
    /// Largest fraction of KV capacity the prefix cache may occupy, in
    /// `(0, 1]`.
    pub budget_frac: f64,
    /// Tokens per KV block; `None` means 64-token blocks (see
    /// [`PrefixCacheConfig::block_size`]).
    pub block_tokens: Option<u32>,
}

impl PrefixCacheConfig {
    /// Creates a configuration with the given capacity fraction.
    ///
    /// # Panics
    ///
    /// Panics if `budget_frac` is not in `(0, 1]`.
    pub fn with_budget_frac(budget_frac: f64) -> Self {
        assert!(
            budget_frac > 0.0 && budget_frac <= 1.0,
            "prefix-cache budget fraction {budget_frac} outside (0, 1]"
        );
        PrefixCacheConfig {
            budget_frac,
            block_tokens: None,
        }
    }

    /// Sets the store's block size to `block_tokens` tokens (see
    /// [`PrefixCacheConfig::block_tokens`]).
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    pub fn blocks(mut self, block_tokens: u32) -> Self {
        assert!(block_tokens > 0, "KV block size must be positive");
        self.block_tokens = Some(block_tokens);
        self
    }

    /// Tokens per KV block: the configured size, or 64 when unset.
    pub fn block_size(&self) -> u32 {
        self.block_tokens.unwrap_or(64)
    }

    /// Cache budget in tokens for a pool of `capacity_tokens`.
    pub fn budget_tokens(&self, capacity_tokens: u64) -> u64 {
        (capacity_tokens as f64 * self.budget_frac) as u64
    }
}

impl Default for PrefixCacheConfig {
    /// A fifth of KV capacity — roughly what chat deployments reserve for
    /// system prompts and hot sessions.
    fn default() -> Self {
        PrefixCacheConfig {
            budget_frac: 0.2,
            block_tokens: None,
        }
    }
}

/// Full description of one simulated serving deployment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Model being served.
    pub model: ModelSpec,
    /// GPU type.
    pub gpu: GpuSpec,
    /// Tensor-parallel degree (number of GPUs).
    pub tensor_parallel: u32,
    /// Admission policy.
    pub scheduler: SchedulerConfig,
    /// SLA thresholds used for goodput accounting.
    pub sla: SlaSpec,
    /// KV-cache manager.
    pub kv_layout: KvLayout,
    /// Batching discipline.
    pub batching: BatchingMode,
    /// Prompt-processing discipline.
    pub prefill: PrefillMode,
    /// Preemption mechanism for evicted requests.
    pub eviction: EvictionMode,
    /// Uniform speed multiplier of the whole serving stack in the
    /// performance model (1.0 = LightLLM baseline; >1 = faster kernels).
    pub kernel_speedup: f64,
    /// Seed for all stochastic components (scheduler sampling).
    pub seed: u64,
    /// Overrides the computed KV capacity (tokens). Used by toy scenarios
    /// such as the paper's Figure 6 (capacity 21) and by tests.
    pub capacity_override: Option<u64>,
    /// Hard stop for the simulated clock; unfinished requests are dropped
    /// from the report.
    pub max_sim_time: Option<SimDuration>,
    /// Output lengths fed to the scheduler before the run starts, modelling
    /// a service whose history window is already warm.
    pub history_warmup: Vec<u32>,
    /// Record utilization/future-memory time series (small cost; on by
    /// default).
    pub record_series: bool,
    /// Simulated prefix cache (`None` disables prefix reuse entirely —
    /// the pre-KV-aware behavior).
    pub prefix_cache: Option<PrefixCacheConfig>,
    /// Deployment-wide request deadline applied to requests that do not
    /// carry their own [`pf_workload::RequestSpec::deadline`]: a request
    /// still queued past this — waiting for its first token, or
    /// preempted and waiting for readmission — is cancelled and counted
    /// in [`crate::SimReport::timed_out`]. `None` (default) waits
    /// forever.
    pub request_deadline: Option<SimDuration>,
    /// Queue discipline of the admission loop (default
    /// [`QueueOrder::Fifo`]; see [`QueueOrder::LeastSlackFirst`] for
    /// deadline-aware scheduling).
    pub queue_order: QueueOrder,
    /// Routing-layer tunables (the KV-index staleness).
    pub router: crate::fleet::RouterConfig,
}

impl SimConfig {
    /// Starts a builder for the given model/GPU pair.
    pub fn builder(model: ModelSpec, gpu: GpuSpec) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                model,
                gpu,
                tensor_parallel: 1,
                scheduler: SchedulerConfig::past_future(),
                sla: SlaSpec::chat_7b(),
                kv_layout: KvLayout::TokenPool,
                batching: BatchingMode::Continuous,
                prefill: PrefillMode::WholePrompt,
                eviction: EvictionMode::Recompute,
                kernel_speedup: 1.0,
                seed: 0,
                capacity_override: None,
                max_sim_time: None,
                history_warmup: Vec::new(),
                record_series: true,
                prefix_cache: None,
                request_deadline: None,
                queue_order: QueueOrder::Fifo,
                router: crate::fleet::RouterConfig::default(),
            },
        }
    }

    /// The performance model implied by this configuration.
    pub fn perf_model(&self) -> PerfModel {
        PerfModel::new(
            self.model,
            self.gpu,
            self.tensor_parallel,
            self.kernel_speedup,
        )
    }

    /// KV-cache capacity in tokens (respecting any override).
    pub fn capacity_tokens(&self) -> u64 {
        self.capacity_override
            .unwrap_or_else(|| self.perf_model().kv_capacity_tokens())
    }

    /// Instantiates the KV-cache pool at the configured layout.
    pub fn build_kv_manager(&self) -> KvPool {
        let capacity = self.capacity_tokens();
        match self.kv_layout {
            KvLayout::TokenPool => KvPool::new(capacity),
            KvLayout::Paged { block_size } => KvPool::paged(capacity, block_size),
            KvLayout::Contiguous => KvPool::contiguous(capacity),
        }
    }
}

/// Builder for [`SimConfig`].
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the admission policy.
    pub fn scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.config.scheduler = scheduler;
        self
    }

    /// Sets the SLA thresholds.
    pub fn sla(mut self, sla: SlaSpec) -> Self {
        self.config.sla = sla;
        self
    }

    /// Sets the tensor-parallel degree.
    pub fn tensor_parallel(mut self, tp: u32) -> Self {
        self.config.tensor_parallel = tp;
        self
    }

    /// Sets the KV-cache layout.
    pub fn kv_layout(mut self, layout: KvLayout) -> Self {
        self.config.kv_layout = layout;
        self
    }

    /// Sets the batching discipline.
    pub fn batching(mut self, batching: BatchingMode) -> Self {
        self.config.batching = batching;
        self
    }

    /// Sets the prompt-processing discipline.
    pub fn prefill(mut self, prefill: PrefillMode) -> Self {
        self.config.prefill = prefill;
        self
    }

    /// Sets the preemption mechanism.
    pub fn eviction(mut self, eviction: EvictionMode) -> Self {
        self.config.eviction = eviction;
        self
    }

    /// Scales the whole stack's kernel speed (1.0 = LightLLM baseline).
    pub fn kernel_speedup(mut self, speedup: f64) -> Self {
        self.config.kernel_speedup = speedup;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Overrides the KV capacity in tokens (toy scenarios / tests).
    pub fn capacity_override(mut self, tokens: u64) -> Self {
        self.config.capacity_override = Some(tokens);
        self
    }

    /// Stops the simulated clock after `limit`.
    pub fn max_sim_time(mut self, limit: SimDuration) -> Self {
        self.config.max_sim_time = Some(limit);
        self
    }

    /// Pre-warms the scheduler's output-length history.
    pub fn history_warmup(mut self, lengths: Vec<u32>) -> Self {
        self.config.history_warmup = lengths;
        self
    }

    /// Enables or disables time-series recording.
    pub fn record_series(mut self, record: bool) -> Self {
        self.config.record_series = record;
        self
    }

    /// Enables the simulated prefix cache with `budget_frac` of KV
    /// capacity and the default 64-token blocks (see
    /// [`PrefixCacheConfig`]).
    pub fn prefix_cache(mut self, budget_frac: f64) -> Self {
        self.config.prefix_cache = Some(PrefixCacheConfig::with_budget_frac(budget_frac));
        self
    }

    /// Sets the deployment-wide request deadline (see
    /// [`SimConfig::request_deadline`]).
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn request_deadline(mut self, deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "a zero deadline can never be met");
        self.config.request_deadline = Some(deadline);
        self
    }

    /// Sets the admission queue discipline (see [`QueueOrder`]).
    pub fn queue_order(mut self, order: QueueOrder) -> Self {
        self.config.queue_order = order;
        self
    }

    /// Enables the simulated prefix cache with `budget_frac` of capacity
    /// and `block_tokens`-token chained-hash blocks (see
    /// [`PrefixCacheConfig::block_tokens`]).
    pub fn prefix_cache_blocks(mut self, budget_frac: f64, block_tokens: u32) -> Self {
        self.config.prefix_cache =
            Some(PrefixCacheConfig::with_budget_frac(budget_frac).blocks(block_tokens));
        self
    }

    /// Overrides the routing-layer tunables (see
    /// [`crate::fleet::RouterConfig`]).
    pub fn router(mut self, router: crate::fleet::RouterConfig) -> Self {
        self.config.router = router;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> SimConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let c = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g()).build();
        assert_eq!(c.tensor_parallel, 1);
        assert_eq!(c.kv_layout, KvLayout::TokenPool);
        assert_eq!(c.batching, BatchingMode::Continuous);
        assert_eq!(c.prefill, PrefillMode::WholePrompt);
        assert_eq!(c.queue_order, QueueOrder::Fifo);
        assert!(c.record_series);
        assert!(c.capacity_tokens() > 100_000);
    }

    #[test]
    fn capacity_override_wins() {
        let c = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .capacity_override(21)
            .build();
        assert_eq!(c.capacity_tokens(), 21);
    }

    #[test]
    fn kv_manager_matches_layout() {
        use pf_kvcache::KvCacheManager;

        let base =
            SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g()).capacity_override(1000);
        let token = base.clone().kv_layout(KvLayout::TokenPool).build();
        assert_eq!(token.build_kv_manager().capacity_tokens(), 1000);
        let paged = base
            .clone()
            .kv_layout(KvLayout::Paged { block_size: 16 })
            .build();
        // Paged rounds down to whole blocks.
        assert_eq!(paged.build_kv_manager().capacity_tokens(), 992);
        let contiguous = base.kv_layout(KvLayout::Contiguous).build();
        assert_eq!(contiguous.build_kv_manager().capacity_tokens(), 1000);
    }

    #[test]
    fn queue_order_flows_into_config() {
        let c = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .queue_order(QueueOrder::least_slack())
            .build();
        assert!(c.queue_order.is_slack_aware());
        assert_eq!(c.queue_order.label(), "least-slack");
        assert_eq!(QueueOrder::default().label(), "fifo");
        assert!(!QueueOrder::Fifo.is_slack_aware());
    }

    #[test]
    fn kernel_speedup_flows_into_tuning() {
        let base = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g());
        assert_eq!(base.clone().build().kernel_speedup, 1.0);
        let fast = base.clone().kernel_speedup(1.5).build();
        assert_eq!(fast.kernel_speedup, 1.5);
        // The performance model runs the stack at the configured speed.
        let step = |c: &SimConfig| c.perf_model().decode_step(8, 50_000);
        assert!(step(&fast) < step(&base.build()));
    }
}
