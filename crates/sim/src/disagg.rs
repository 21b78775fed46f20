//! Disaggregated prefill/decode serving: separate instance pools joined by
//! a KV-transfer link (DistServe / NVIDIA-Dynamo-style).
//!
//! A colocated engine runs prefill and decode on the same GPU, so the two
//! stages interfere: prompt passes stall token emission (MTPOT), and the
//! decode batch's KV residency starves prompt admission (TTFT). This module
//! splits them. Every instance of both pools is the colocated engine
//! behind [`crate::Simulation`], in its pool's role. **Prefill instances**
//! serve a queue of prompts in batched whole-prompt passes, in the base
//! config's [`QueueOrder`] (arrival order, least slack first or shortest
//! prompt first, each with its aging cap), emit each request's *first*
//! token and hand the request over to the link. **Decode instances** are
//! fed the requests whose KV cache has been handed over. Each runs
//! continuous-batching token generation and admits handoffs through the
//! engine's one admission path with [`SchedulerConfig::Oracle`]: the
//! paper's future-required-memory estimate (Eq. 2–4) on true output
//! lengths, so the decode batch packs densely yet never evicts. The pools
//! scale (and in the elastic variant autoscale) independently, each
//! against the SLA term its stage controls: prefill against TTFT, decode
//! against TPOT.
//!
//! Under [`QueueOrder::LeastSlackFirst`] each prefill instance serves the
//! queued prompt with the least remaining slack next (aging cap intact),
//! and prompts whose slack has fallen below their minimum feasible
//! prefill time are dropped early instead of burning a pass on a
//! guaranteed miss. Decode admission ranks queued handoffs by remaining
//! slack against the *end-to-end* deadline — a handoff reaches the decode
//! pool only after its KV transfer lands, so the transfer latency is
//! charged before the ranking. No deadline cancels a handoff: it streamed
//! its first token at prefill, so its client is mid-response.
//!
//! # The KV-transfer cost model
//!
//! Moving a request between pools means moving its KV cache. The cost
//! model ([`KvTransferSpec`]) sizes each handoff as
//!
//! ```text
//! bytes = (input_len + 1) × kv_bytes_per_token(model)
//!       = (input_len + 1) × 2 · layers · kv_heads · head_dim · 2
//! ```
//!
//! where `input_len + 1` counts the prompt plus the first generated token.
//! Every handoff is one stream on a single shared link of `link_gbps` (the
//! prefill→decode interconnect: NVLink ≈ 200 GB/s, PCIe 4.0 x16 ≈ 25
//! GB/s), arbitrated by [`crate::link::LinkScheduler`]: concurrent streams
//! split the wire by weighted max-min fair share, with slack-aware weights
//! (the shared [`crate::fleet`] slack grouping) so urgent transfers draw
//! up to twice the bandwidth, and `per_hop_overhead` (connection setup,
//! descriptor exchange, scheduler hops) is charged **once per stream**
//! after its last byte — not per chunk, which would make thin links
//! quadratically pessimistic in the layer count. An uncontended handoff
//! therefore takes `bytes / (link_gbps × 1e9) + per_hop_overhead`. The
//! latency is charged **between prefill completion and the first decode
//! step**: it widens the gap between a request's first and second tokens
//! (an MTPOT term), never its TTFT. A prefill instance keeps the
//! request's KV resident (and charged against its capacity) until its
//! stream lands, so a saturated link backpressures prompt admission
//! exactly as it would in a real deployment.
//!
//! # Atomic and layer-streamed handoffs
//!
//! The [`TransferMode`] only sets a stream's chunk count; chunk ℓ of L
//! becomes eligible at `start + ⌈span·ℓ/L⌉` of the producing pass.
//! [`TransferMode::Atomic`] sends one chunk, eligible exactly when the
//! pass ends: the whole KV crosses after prefill, and the handoffs of one
//! pass share the wire fairly rather than queueing one behind another.
//! [`TransferMode::LayerStreamed`] sends one chunk per model layer as
//! the pass proportionally produces it, so the transfer overlaps the
//! *remaining prefill compute* and only the tail chunks (bounded by link
//! bandwidth versus prefill rate) land after the pass ends. TTFT is
//! stamped at prefill end in both modes; streaming wins by
//! *backpressure*: the source instance frees its held KV as soon as the
//! short tail lands instead of a full transfer later, so a saturated
//! prefill pool admits new prompts sooner, and the first decode step
//! starts earlier (an MTPOT term). `docs/disagg.md` covers the model and its tuning knobs.
//!
//! # Elastic variant and cross-pool repurposing
//!
//! [`ElasticDisaggCluster`] runs each pool as a [`crate::fleet`] pool with
//! its own [`AutoscaleConfig`] planner (role [`PoolRole::Prefill`] /
//! [`PoolRole::Decode`]), both planned through the kernel's one planning
//! round: scale-ups provision instances that serve only after a warm-up
//! delay, scale-downs cancel warming instances first and then drain live
//! ones (they finish their work, transfer everything out and stop costing
//! GPU-seconds).
//!
//! With [`DisaggConfig::repurpose`] enabled, a scale-up of either pool
//! first *claims* the other pool's draining instances instead of
//! provisioning cold ones. When a claimed instance finishes draining it
//! flips pools after the short `repurpose_delay` (KV pool reset, CUDA
//! graphs re-captured) instead of a full warm-up — the weights are
//! already on the GPU. The flip is atomic in the cost ledger: the
//! instance stops charging its old pool and starts charging its new one at
//! the same instant, carries its [`GpuType`] with it, and is reported in
//! [`DisaggReport::repurposes`]. A member never serves both roles at once:
//! it must be fully drained (no queue, no batch, no held KV) before the
//! flip, and its new life starts from an empty KV pool.
//!
//! # Heterogeneous pools
//!
//! [`DisaggConfig::fleet`] assigns a [`GpuType`] per provisioning slot in
//! each pool. A member's `perf_scale` scales its engine's kernel speed
//! (every step but its fixed overhead), as in the elastic fleet; routing
//! divides load signals by it, the per-pool planners size candidates
//! against the mean scale of the slots they would occupy, and reports
//! price every instance at its `cost_weight`.
//!
//! Both topologies run on the crate's one fleet driver, the event heap
//! behind the colocated fleets too: a disaggregated run is a colocated
//! one plus the decode pool and the link. The run is fully
//! deterministic: the heap orders arrivals, step completions, transfers
//! and planning rounds, with a fixed rank and a monotone sequence number
//! breaking timestamp ties, and a run ends at its last served work.
//!
//! # Example
//!
//! ```
//! use pf_core::SchedulerConfig;
//! use pf_metrics::SimTime;
//! use pf_sim::disagg::{DisaggCluster, DisaggConfig};
//! use pf_sim::{GpuSpec, ModelSpec, SimConfig};
//! use pf_workload::{datasets, LengthSampler};
//!
//! let base = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
//!     .capacity_override(12_000)
//!     .build();
//! let input = LengthSampler::uniform(256, 1024);
//! let output = LengthSampler::uniform(8, 64);
//! let requests = datasets::from_samplers(40, 1, &input, &output, 64);
//! let arrivals = (0..40).map(|i| SimTime::from_millis(250 * i)).collect();
//! let report = DisaggCluster::new(DisaggConfig::new(base), 1, 1)
//!     .run(requests, arrivals)?;
//! assert_eq!(report.completed(), 40);
//! assert!(report.transfers.transfers > 0);
//! # Ok::<(), pf_sim::SimError>(())
//! ```

use pf_autoscale::{AutoscaleConfig, PoolRole};
use pf_core::SchedulerConfig;
use pf_kvcache::PrefixCacheStats;
use pf_metrics::{GoodputReport, SeriesGroup, SimDuration, SimTime};
use pf_obs::TraceSink;
use pf_workload::RequestSpec;

use crate::cluster::RouterPolicy;
use crate::config::{BatchingMode, PrefillMode, QueueOrder, SimConfig};
use crate::driver::{fleet_goodput, replicas, Member, Run, Split};
use crate::error::SimError;
use crate::fleet::{self, GpuType, Pool, PoolPlanner, ScalingEvent};
use crate::report::{Headline, RequestOutcome};
use crate::simulation::Workload;

/// The KV-transfer cost model between the prefill and decode pools (see
/// the module docs for the formula).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvTransferSpec {
    /// Effective prefill→decode link bandwidth in GB/s.
    pub link_gbps: f64,
    /// Fixed per-transfer overhead (connection setup, descriptor hops).
    pub per_hop_overhead: SimDuration,
    /// How transfers use the link (default [`TransferMode::Atomic`]).
    pub mode: TransferMode,
}

/// How many chunks each prefill→decode KV stream carries on the shared
/// link (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferMode {
    /// One chunk holding the whole KV, eligible when the prefill pass
    /// ends (the default).
    #[default]
    Atomic,
    /// One chunk per layer, each eligible as the prefill pass produces
    /// it, overlapping the transfer with the remaining compute.
    LayerStreamed,
}

impl KvTransferSpec {
    /// Creates an atomic transfer spec. `_slots` is ignored and kept only
    /// for source compatibility: every handoff shares the one link.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not finite and positive.
    pub fn new(link_gbps: f64, per_hop_overhead: SimDuration, _slots: usize) -> Self {
        assert!(
            link_gbps.is_finite() && link_gbps > 0.0,
            "invalid link bandwidth {link_gbps}"
        );
        KvTransferSpec {
            link_gbps,
            per_hop_overhead,
            mode: TransferMode::Atomic,
        }
    }

    /// Switches to layer-streamed transfers (see [`TransferMode`]).
    pub fn streamed(mut self) -> Self {
        self.mode = TransferMode::LayerStreamed;
        self
    }

    /// NVLink-class interconnect (≈200 GB/s, 50 µs overhead).
    pub fn nvlink() -> Self {
        KvTransferSpec::new(200.0, SimDuration::from_micros(50), 1)
    }
}

/// Configuration of a disaggregated deployment: one replica type (model,
/// GPU, capacity, SLA — all from the embedded [`SimConfig`]) split into
/// two pools joined by a [`KvTransferSpec`] link.
#[derive(Debug, Clone)]
pub struct DisaggConfig {
    /// Replica description every engine of both pools is provisioned
    /// from. Both pools honour the model, GPU, tensor parallelism,
    /// capacity, KV layout, tuning, SLA, deadlines
    /// ([`SimConfig::request_deadline`], [`SimConfig::queue_order`]) and
    /// [`SimConfig::max_sim_time`], except that the decode pool serves
    /// handoffs in arrival order under
    /// [`QueueOrder::ShortestPromptFirst`]. A [`SimConfig::prefix_cache`]
    /// applies to the prefill pool, where hits shrink prefill passes
    /// directly. Admission is fixed per pool. A prefill engine runs whole
    /// prompts ([`PrefillMode::WholePrompt`]) and admits a prompt while it
    /// and its first token fit beside the KV its requests hold
    /// ([`SchedulerConfig::Aggressive`] at a full watermark; cached
    /// prefixes yield to prompts). A decode engine admits by
    /// [`SchedulerConfig::Oracle`] and honours the eviction mode; its
    /// seed is offset per spawn. So [`SimConfig::scheduler`],
    /// [`SimConfig::prefill`] and [`SimConfig::history_warmup`] are
    /// unused, and static batching is rejected
    /// ([`SimError::InvalidEngine`]).
    pub base: SimConfig,
    /// The prefill→decode KV-transfer link.
    pub transfer: KvTransferSpec,
    /// *Computed* prompt tokens batched into one prefill pass at most
    /// (prefix-cache hits shrink a prompt's computed tokens, letting more
    /// prompts share a pass at the same per-pass cost).
    pub max_prefill_batch_tokens: u64,
    /// Front-end routing policy over the prefill pool.
    /// [`RouterPolicy::PrefixAffinity`] steers requests to the prefill
    /// instance holding the longest prefix of their prompt, and
    /// [`RouterPolicy::KvOverlap`] trades load against that overlap, both
    /// as the members' published KV events show it;
    /// [`RouterPolicy::RoundRobin`] rotates; every other policy routes by
    /// the pool's load signal (queued plus held prompt tokens). All exact
    /// ties break with a rotating cursor.
    pub router: RouterPolicy,
    /// Cross-pool repurposing delay: when set, decode scale-ups claim
    /// draining prefill instances, which flip into the decode pool this
    /// long after finishing their drain — much shorter than a full
    /// warm-up, since the weights are already resident. `None` (default)
    /// disables repurposing.
    pub repurpose: Option<SimDuration>,
    /// GPU type per prefill provisioning slot (empty = reference type).
    pub prefill_slots: Vec<GpuType>,
    /// GPU type per decode provisioning slot (empty = reference type).
    pub decode_slots: Vec<GpuType>,
}

impl DisaggConfig {
    /// Wraps a replica configuration with NVLink transfer defaults and an
    /// 8k-token prefill batch budget.
    pub fn new(base: SimConfig) -> Self {
        DisaggConfig {
            base,
            transfer: KvTransferSpec::nvlink(),
            max_prefill_batch_tokens: 8_192,
            router: RouterPolicy::LeastEstimatedLoad,
            repurpose: None,
            prefill_slots: Vec::new(),
            decode_slots: Vec::new(),
        }
    }

    /// Sets the KV-transfer link.
    pub fn transfer(mut self, transfer: KvTransferSpec) -> Self {
        self.transfer = transfer;
        self
    }

    /// Sets the prefill batch budget in prompt tokens.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is zero.
    pub fn prefill_batch_tokens(mut self, tokens: u64) -> Self {
        assert!(tokens > 0, "prefill batch budget must be positive");
        self.max_prefill_batch_tokens = tokens;
        self
    }

    /// Sets the prefill-pool routing policy.
    pub fn router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Enables cross-pool repurposing with the given flip delay (see
    /// [`DisaggConfig::repurpose`]).
    pub fn repurpose(mut self, delay: SimDuration) -> Self {
        self.repurpose = Some(delay);
        self
    }

    /// Declares heterogeneous pools: provisioning slot `k` of each pool
    /// runs on the `k`-th entry of its slot list (slots past the end
    /// repeat the last entry; an empty list is the homogeneous reference
    /// fleet, bit-identical to the single-type behavior).
    pub fn fleet(mut self, prefill_slots: Vec<GpuType>, decode_slots: Vec<GpuType>) -> Self {
        self.prefill_slots = prefill_slots;
        self.decode_slots = decode_slots;
        self
    }

    /// Checks both pools' GPU types, the link and the base engine before
    /// any planner, member or link is built from them (a zero `link_gbps`
    /// would panic in the link scheduler).
    fn check(&self) -> Result<(), SimError> {
        fleet::check_gpus(self.prefill_slots.iter().chain(&self.decode_slots))?;
        fleet::check_positive("link_gbps", self.transfer.link_gbps)?;
        fleet::check_prefix_cache(self.base.prefix_cache)?;
        fleet::check_engine(&self.base)?;
        // The builder rejects a zero budget; a field literal can skip it.
        let parameter = if self.max_prefill_batch_tokens == 0 {
            "max_prefill_batch_tokens"
        } else if let BatchingMode::Static { .. } = self.base.batching {
            "batching"
        } else {
            return Ok(());
        };
        Err(SimError::InvalidEngine { parameter })
    }

    /// The config every prefill engine is provisioned from: the base
    /// passing whole prompts with no series, admitting a prompt while it
    /// fits beside the held KV ([`SchedulerConfig::Aggressive`] at a full
    /// watermark).
    pub(crate) fn prefill_base(&self) -> SimConfig {
        SimConfig {
            scheduler: SchedulerConfig::Aggressive { watermark: 1.0 },
            prefill: PrefillMode::WholePrompt,
            record_series: false,
            ..self.base.clone()
        }
    }

    /// The config every decode engine is provisioned from: the base with
    /// no prefix cache (a handoff brings its KV along) and no series,
    /// admitting by Eq. 2–4 on true lengths ([`SchedulerConfig::Oracle`]).
    pub(crate) fn decode_base(&self) -> SimConfig {
        SimConfig {
            scheduler: SchedulerConfig::Oracle,
            // Prompt length orders prefill, where it cuts the TTFT tail;
            // handoffs keep their arrival order.
            queue_order: match self.base.queue_order {
                QueueOrder::ShortestPromptFirst { .. } => QueueOrder::Fifo,
                order => order,
            },
            prefix_cache: None,
            record_series: false,
            ..self.base.clone()
        }
    }

    /// Runs both pools from `initial` `(prefill, decode)` members, each
    /// autoscaled by `planners` when given, on the shared fleet driver
    /// (the caller has run [`DisaggConfig::check`]).
    fn run(
        self,
        initial: (usize, usize),
        planners: Option<(PoolPlanner, PoolPlanner)>,
        workload: Workload,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<DisaggReport, SimError> {
        let (prefill_planner, decode_planner) = planners.unzip();
        let prefill_base = self.prefill_base();
        let initial = [
            replicas(&prefill_base, &self.prefill_slots, initial.0),
            replicas(&self.decode_base(), &self.decode_slots, initial.1),
        ];
        let split = Split::new(&self);
        let pools = [
            Pool::new(pf_obs::Pool::Prefill, self.prefill_slots, prefill_planner),
            Pool::new(pf_obs::Pool::Decode, self.decode_slots, decode_planner),
        ];
        let sla = self.base.sla;
        let mut run = Run::start(
            pools,
            prefill_base,
            initial,
            self.router,
            Some(split),
            workload,
            sink,
        )?;
        let end = run.drive()?;
        let mut prefix_stats = PrefixCacheStats::default();
        for stats in run.pools[0]
            .members
            .iter()
            .filter_map(|m| m.engine.prefix_stats())
        {
            prefix_stats.merge(&stats);
        }
        let goodput = fleet_goodput(&sla, &run.outcomes, end, run.timed_out);
        // In flight when the horizon stopped the run, or never routed.
        let unserved = run.remaining + run.unrouted;
        let split = run.split.expect("a split run");
        let [prefill, decode] = run.pools;
        Ok(DisaggReport {
            goodput,
            makespan: end.saturating_since(SimTime::ZERO),
            unserved,
            timed_out: run.timed_out,
            prefill: PoolReport::new(prefill, end),
            decode: PoolReport::new(decode, end),
            repurposes: split.repurposes,
            prefix_stats,
            transfers: split.stats,
            pool_series: run.series,
            outcomes: run.outcomes,
        })
    }
}

/// A disaggregated cluster with *fixed* pool sizes.
#[derive(Debug)]
pub struct DisaggCluster {
    config: DisaggConfig,
    prefill_instances: usize,
    decode_instances: usize,
}

impl DisaggCluster {
    /// Creates a cluster with `prefill_instances` + `decode_instances`
    /// fixed replicas.
    ///
    /// # Panics
    ///
    /// Panics if either pool is empty.
    pub fn new(config: DisaggConfig, prefill_instances: usize, decode_instances: usize) -> Self {
        assert!(prefill_instances > 0, "prefill pool needs an instance");
        assert!(decode_instances > 0, "decode pool needs an instance");
        DisaggCluster {
            config,
            prefill_instances,
            decode_instances,
        }
    }

    /// Runs the cluster against a timed arrival stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the arrival stream is malformed
    /// ([`SimError::InvalidWorkload`]), a request cannot fit either pool,
    /// a prefix-cache parameter is out of range
    /// ([`SimError::InvalidPrefixCache`]), an engine size or the prefill
    /// batch budget is zero or the base batches statically
    /// ([`SimError::InvalidEngine`]), a GPU type or
    /// a link holds a value that is not finite and positive
    /// ([`SimError::InvalidHardware`]), or the router policy cannot run on
    /// the pools ([`SimError::InvalidRouterPolicy`]).
    pub fn run(
        self,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
    ) -> Result<DisaggReport, SimError> {
        self.run_traced(requests, arrival_times, None)
    }

    /// [`DisaggCluster::run`] with an optional [`TraceSink`] (see
    /// [`DisaggCluster::run_workload`]).
    ///
    /// # Errors
    ///
    /// As [`DisaggCluster::run`].
    pub fn run_traced(
        self,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<DisaggReport, SimError> {
        self.run_workload(Workload::Timed(requests, arrival_times), sink)
    }

    /// Runs the cluster against `workload`, with an optional [`TraceSink`]
    /// receiving every lifecycle event, the KV-transfer handoffs included.
    ///
    /// # Errors
    ///
    /// As [`DisaggCluster::run`].
    pub fn run_workload(
        self,
        workload: Workload,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<DisaggReport, SimError> {
        self.config.check()?;
        let initial = (self.prefill_instances, self.decode_instances);
        self.config.run(initial, None, workload, sink)
    }
}

/// A disaggregated cluster whose pools are independently autoscaled — the
/// prefill pool against TTFT, the decode pool against TPOT (see module
/// docs).
#[derive(Debug)]
pub struct ElasticDisaggCluster {
    config: DisaggConfig,
    prefill_autoscale: AutoscaleConfig,
    decode_autoscale: AutoscaleConfig,
    initial_prefill: usize,
    initial_decode: usize,
}

impl ElasticDisaggCluster {
    /// Creates an elastic disaggregated cluster.
    ///
    /// # Panics
    ///
    /// Panics if either initial count is zero or outside its pool's
    /// `[min, max]` bounds, or if the two pools disagree on the adjustment
    /// interval (planning rounds drive both pools on one cadence).
    pub fn new(
        config: DisaggConfig,
        prefill_autoscale: AutoscaleConfig,
        decode_autoscale: AutoscaleConfig,
        initial_prefill: usize,
        initial_decode: usize,
    ) -> Self {
        assert_eq!(
            prefill_autoscale.interval, decode_autoscale.interval,
            "pools must share one adjustment interval"
        );
        for (label, autoscale, initial) in [
            ("prefill", &prefill_autoscale, initial_prefill),
            ("decode", &decode_autoscale, initial_decode),
        ] {
            assert!(initial > 0, "{label} pool needs an instance");
            assert!(
                (autoscale.policy.min_replicas..=autoscale.policy.max_replicas).contains(&initial),
                "initial {label} replicas {} outside policy bounds [{}, {}]",
                initial,
                autoscale.policy.min_replicas,
                autoscale.policy.max_replicas
            );
        }
        ElasticDisaggCluster {
            config,
            prefill_autoscale,
            decode_autoscale,
            initial_prefill,
            initial_decode,
        }
    }

    /// Runs the elastic cluster against a timed arrival stream.
    ///
    /// # Errors
    ///
    /// As [`DisaggCluster::run`].
    pub fn run(
        self,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
    ) -> Result<DisaggReport, SimError> {
        self.run_traced(requests, arrival_times, None)
    }

    /// [`ElasticDisaggCluster::run`] with an optional [`TraceSink`] (see
    /// [`ElasticDisaggCluster::run_workload`]).
    ///
    /// # Errors
    ///
    /// As [`DisaggCluster::run`].
    pub fn run_traced(
        self,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<DisaggReport, SimError> {
        self.run_workload(Workload::Timed(requests, arrival_times), sink)
    }

    /// Runs the elastic cluster against `workload`, with an optional
    /// [`TraceSink`] receiving every lifecycle event, per-pool scaling and
    /// cross-pool repurposing included.
    ///
    /// # Errors
    ///
    /// As [`DisaggCluster::run`].
    pub fn run_workload(
        self,
        workload: Workload,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<DisaggReport, SimError> {
        self.config.check()?;
        let base = &self.config.base;
        let planners = (
            fleet::pool_planner(
                self.prefill_autoscale,
                base,
                PoolRole::Prefill,
                &self.config.prefill_slots,
            ),
            fleet::pool_planner(
                self.decode_autoscale,
                base,
                PoolRole::Decode,
                &self.config.decode_slots,
            ),
        );
        let initial = (self.initial_prefill, self.initial_decode);
        self.config.run(initial, Some(planners), workload, sink)
    }
}

/// Direction of a cross-pool repurposing flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepurposeDirection {
    /// A drained prefill member flipped into the decode pool.
    PrefillToDecode,
    /// A drained decode member flipped into the prefill pool.
    DecodeToPrefill,
}

/// One cross-pool repurposing flip, for reports and property tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepurposeEvent {
    /// When the drained member flipped (its old-pool life ends and its
    /// new-pool life begins at exactly this instant).
    pub at: SimTime,
    /// Which way the member flipped.
    pub direction: RepurposeDirection,
    /// Index into [`DisaggReport::prefill`]'s instances: the drained
    /// member for [`RepurposeDirection::PrefillToDecode`], the freshly
    /// spawned one for [`RepurposeDirection::DecodeToPrefill`].
    pub prefill_member: usize,
    /// Index into [`DisaggReport::decode`]'s instances (the counterpart
    /// of `prefill_member`, per the direction).
    pub decode_member: usize,
}

/// Aggregate KV-transfer statistics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferStats {
    /// Completed handoffs.
    pub transfers: usize,
    /// Total KV bytes moved.
    pub total_bytes: u64,
    /// Total uncontended link time (bandwidth + one overhead per
    /// transfer), in seconds.
    pub total_link_secs: f64,
    /// Transfers carried by layer streaming (a subset of `transfers`;
    /// zero under [`TransferMode::Atomic`]).
    pub streamed: usize,
    /// Total time from each producing prefill pass's end until its KV
    /// landed (the un-hidden tail: link contention, wire time past the
    /// pass and the overhead), in seconds. For an atomic handoff this is
    /// its whole handoff latency.
    pub total_tail_secs: f64,
}

impl TransferStats {
    /// Mean handoff latency the decode side sees — from the prefill
    /// pass's end until the KV lands — in seconds.
    pub fn mean_handoff_secs(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.total_tail_secs / self.transfers as f64
        }
    }
}

/// One pool instance's lifetime, for reports.
#[derive(Debug, Clone, Copy)]
pub struct PoolInstanceReport {
    /// When the instance was provisioned.
    pub spawned_at: SimTime,
    /// When it stopped costing GPU time (run end for instances still up).
    pub stopped_at: SimTime,
    /// The accelerator this instance ran on.
    pub gpu: GpuType,
    /// Requests routed to it.
    pub routed: usize,
    /// Stage completions it performed (prompts prefilled / requests fully
    /// decoded).
    pub completed: usize,
}

impl PoolInstanceReport {
    /// GPU time this instance was provisioned for, in seconds.
    pub fn active_secs(&self) -> f64 {
        self.stopped_at
            .saturating_since(self.spawned_at)
            .as_secs_f64()
    }

    /// Provisioned seconds weighted by the instance's GPU cost.
    pub fn cost_weighted_secs(&self) -> f64 {
        self.active_secs() * self.gpu.cost_weight
    }
}

/// Per-pool result of a disaggregated run.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Per-instance lifetimes, in spawn order.
    pub instances: Vec<PoolInstanceReport>,
    /// Pool-size changes the planner made (empty for fixed pools).
    pub events: Vec<ScalingEvent>,
}

impl PoolReport {
    /// The report of a finished pool whose members still up at `end` are
    /// charged until then.
    fn new(pool: Pool<Member>, end: SimTime) -> Self {
        let instances = pool
            .members
            .iter()
            .map(|m| PoolInstanceReport {
                spawned_at: m.core.spawned_at,
                stopped_at: m.core.stopped_at.unwrap_or(end),
                gpu: m.core.gpu,
                routed: m.core.routed,
                completed: m.completed,
            })
            .collect();
        PoolReport {
            instances,
            events: pool.events,
        }
    }

    /// Total GPU-seconds provisioned in this pool.
    pub fn gpu_seconds(&self) -> f64 {
        self.instances
            .iter()
            .map(PoolInstanceReport::active_secs)
            .sum()
    }

    /// Total cost-weighted GPU-seconds provisioned in this pool.
    pub fn cost_weighted_gpu_seconds(&self) -> f64 {
        self.instances
            .iter()
            .map(PoolInstanceReport::cost_weighted_secs)
            .sum()
    }
}

/// Aggregate result of a disaggregated cluster run.
#[derive(Debug)]
pub struct DisaggReport {
    /// Cluster-level goodput over all completed requests.
    pub goodput: GoodputReport,
    /// Run end time.
    pub makespan: SimDuration,
    /// Requests neither completed nor timed out: those still in flight
    /// when `max_sim_time` stopped the run.
    pub unserved: usize,
    /// Requests cancelled because their deadline expired before their
    /// prefill started (a handoff is never cancelled unless preempted,
    /// which the decode pool's oracle admission rules out).
    pub timed_out: usize,
    /// The prefill pool.
    pub prefill: PoolReport,
    /// The decode pool.
    pub decode: PoolReport,
    /// Cross-pool repurposing flips, in flip order (empty with
    /// repurposing disabled).
    pub repurposes: Vec<RepurposeEvent>,
    /// Prefix-cache statistics merged across prefill instances (all zero
    /// when caches are disabled).
    pub prefix_stats: PrefixCacheStats,
    /// KV-transfer statistics.
    pub transfers: TransferStats,
    /// Per-pool live/provisioned replica counts over time
    /// (`prefill-live`, `prefill-provisioned`, `decode-live`,
    /// `decode-provisioned`).
    pub pool_series: SeriesGroup,
    /// Per-request outcomes in completion order.
    pub outcomes: Vec<RequestOutcome>,
}

impl DisaggReport {
    /// Total completed requests.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// SLA-satisfying output tokens per second over the makespan.
    pub fn goodput_tok_per_s(&self) -> f64 {
        self.goodput.goodput_tok_per_s
    }

    /// Total GPU-seconds provisioned across both pools.
    pub fn gpu_seconds(&self) -> f64 {
        self.prefill.gpu_seconds() + self.decode.gpu_seconds()
    }

    /// The run's headline: SLA terms from the cluster-level goodput and
    /// both pools' provisioned time (raw and cost-weighted — equal for
    /// weight-1.0 fleets).
    pub fn headline(&self) -> Headline {
        Headline {
            completed: self.completed(),
            timed_out: self.timed_out,
            evictions: self.outcomes.iter().map(|o| u64::from(o.evictions)).sum(),
            gpu_seconds: self.gpu_seconds(),
            cost_weighted_gpu_seconds: Some(
                self.prefill.cost_weighted_gpu_seconds() + self.decode.cost_weighted_gpu_seconds(),
            ),
            ..Headline::of_goodput(&self.goodput)
        }
    }

    /// Largest number of simultaneously provisioned prefill replicas.
    pub fn peak_prefill_replicas(&self) -> usize {
        self.pool_series
            .get("prefill-provisioned")
            .and_then(|s| s.max_value())
            .unwrap_or(0.0) as usize
    }

    /// Largest number of simultaneously provisioned decode replicas.
    pub fn peak_decode_replicas(&self) -> usize {
        self.pool_series
            .get("decode-provisioned")
            .and_then(|s| s.max_value())
            .unwrap_or(0.0) as usize
    }
}
