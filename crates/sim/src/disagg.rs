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
//! The run is fully deterministic: one global event heap orders arrivals,
//! step completions, transfers and planning rounds, with a monotone
//! sequence number breaking timestamp ties.
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

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

use pf_autoscale::{AutoscaleConfig, PoolRole};
use pf_core::SchedulerConfig;
use pf_kvcache::{KvEvent, PrefixCacheStats};
use pf_metrics::{GoodputReport, RequestTiming, SeriesGroup, SimDuration, SimTime, SlaSpec};
use pf_obs::{GaugeKind, TraceEvent, TraceSink};
use pf_workload::RequestSpec;

use crate::cluster::RouterPolicy;
use crate::config::{BatchingMode, PrefillMode, QueueOrder, SimConfig, DEFAULT_AGING_CAP};
use crate::engine::{Arrivals, Engine, Handoff, Tick};
use crate::error::SimError;
use crate::fleet::{
    self, pick_rotating_min, FleetMember, GpuType, MemberCore, MemberState, Pool, PoolPlanner,
    Resize, Routing, ScalingEvent,
};
use crate::link::{LinkScheduler, StreamDone, StreamSpec};
use crate::report::{Headline, RequestOutcome};

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

    /// Checks both pools' GPU types and the link before any planner,
    /// member or link is built from them (a zero `link_gbps` would panic
    /// in the link scheduler).
    fn check_hardware(&self) -> Result<(), SimError> {
        fleet::check_gpus(self.prefill_slots.iter().chain(&self.decode_slots))?;
        fleet::check_positive("link_gbps", self.transfer.link_gbps)
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

    /// [`DisaggCluster::run`] with an optional [`TraceSink`] receiving
    /// every lifecycle event, including the KV-transfer handoffs. With
    /// `None` this is exactly `run`: bit-identical reports, no allocation
    /// on the emission paths.
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
        self.config.check_hardware()?;
        Run::start(
            self.config,
            (self.prefill_instances, self.decode_instances),
            None,
            requests,
            arrival_times,
            sink,
        )?
        .drive()
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

    /// [`ElasticDisaggCluster::run`] with an optional [`TraceSink`]
    /// receiving every lifecycle event, including per-pool scaling and
    /// cross-pool repurposing. With `None` this is exactly `run`.
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
        self.config.check_hardware()?;
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
        Run::start(
            self.config,
            (self.initial_prefill, self.initial_decode),
            Some(planners),
            requests,
            arrival_times,
            sink,
        )?
        .drive()
    }
}

/// Run-side state of one KV transfer stream (a parallel array to the link
/// scheduler's stream ids).
#[derive(Debug)]
struct StreamSlot {
    /// Source prefill member (pool index).
    from: usize,
    /// Stream payload in bytes.
    bytes: u64,
    /// When the producing prefill pass ends (µs); transfer time beyond
    /// this is the un-hidden tail.
    produce_end_us: u64,
    /// The request the pass handed out, parked here until the stream
    /// lands.
    handoff: Option<Handoff>,
}

/// Which of the run's two pools a member, event or planning round
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoolKind {
    Prefill,
    Decode,
}

impl PoolKind {
    /// The pool a claimed member of this one flips into.
    fn other(self) -> Self {
        match self {
            PoolKind::Prefill => PoolKind::Decode,
            PoolKind::Decode => PoolKind::Prefill,
        }
    }
}

/// A member of either pool: a colocated [`Engine`] provisioned from its
/// pool's config ([`Run::prefill_base`], in the prefill role, or
/// [`Run::decode_base`]) and fed the prompts routed to it or the handoffs
/// that land on it.
#[derive(Debug)]
struct Member {
    engine: Engine,
    core: MemberCore,
    /// Whether the engine's current pass or step is in flight (its `Done`
    /// is scheduled).
    busy: bool,
    /// Requests this member served its stage for: prompts prefilled, or
    /// requests decoded to their end.
    completed: usize,
    /// Engine timeouts already counted in the run's report.
    seen_timed_out: usize,
}

impl FleetMember for Member {
    fn core(&self) -> &MemberCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut MemberCore {
        &mut self.core
    }

    /// KV held by requests plus what the queued and routed ones will hold
    /// ([`Engine::resident_load`]).
    fn load_signal(&self) -> u64 {
        self.engine.resident_load()
    }
}

#[derive(Debug)]
enum Ev {
    /// A request reaches the cluster front end.
    Arrival(RequestSpec),
    /// A member finishes its prefill pass or decode step; `handoffs` are
    /// the link streams the pass opened (none for a decode step).
    Done {
        pool: PoolKind,
        member: usize,
        handoffs: Range<usize>,
    },
    /// A warming member becomes live.
    Ready(PoolKind, usize),
    /// An autoscale planning round (elastic runs only).
    Plan,
    /// The shared link reaches its next projected completion (dropped
    /// unprocessed when `generation` is stale — a stream joined or
    /// drained since, rescheduling the wake).
    LinkWake { generation: u64 },
    /// A KV transfer stream fully lands (its last chunk plus the
    /// per-stream overhead).
    StreamDone { id: usize },
}

/// Heap entry: earliest `(at, seq)` first; `seq` makes ties deterministic.
#[derive(Debug)]
struct Scheduled {
    at_us: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at_us == other.at_us && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the max-heap pops the earliest event.
        (other.at_us, other.seq).cmp(&(self.at_us, self.seq))
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

/// Mutable state of one disaggregated run.
struct Run<'s> {
    capacity: u64,
    sla: SlaSpec,
    transfer: KvTransferSpec,
    kv_bytes_per_token: u64,
    repurpose_delay: Option<SimDuration>,
    default_deadline: Option<SimDuration>,
    /// The aging cap grouping the link streams' weights: the queue
    /// order's under [`QueueOrder::LeastSlackFirst`], else the default.
    link_aging_cap: SimDuration,
    /// The front end's routing over the prefill pool; under an overlap
    /// policy ([`RouterPolicy::PrefixAffinity`] or
    /// [`RouterPolicy::KvOverlap`]) prefill members publish into its KV
    /// index under their pool index, the same index space
    /// [`Run::route_prefill`] scores over.
    route: Routing,
    /// Rotating tie-break cursor of the handoff routing.
    decode_cursor: usize,

    prefill: Pool<Member>,
    decode: Pool<Member>,
    /// The config every prefill engine is provisioned from: the base
    /// passing whole prompts with no series, admitting a prompt while it
    /// fits beside the held KV ([`SchedulerConfig::Aggressive`] at a full
    /// watermark).
    prefill_base: SimConfig,
    /// Computed prompt tokens one prefill pass batches at most: the
    /// prefill engines' role parameter.
    max_prefill_batch_tokens: u64,
    /// The config every decode engine is provisioned from: the base with
    /// no prefix cache (a handoff brings its KV along) and no series,
    /// admitting by Eq. 2–4 on true lengths
    /// ([`SchedulerConfig::Oracle`]).
    decode_base: SimConfig,
    repurposes: Vec<RepurposeEvent>,

    heap: BinaryHeap<Scheduled>,
    seq: u64,
    /// The shared-link fluid scheduler every KV handoff streams over.
    link: LinkScheduler,
    /// Per-stream run state, indexed by link stream id.
    stream_slots: Vec<StreamSlot>,
    /// Reusable completion buffer of [`Run::on_link_wake`].
    stream_done_buf: Vec<StreamDone>,
    /// Chunks per stream: 1 for atomic handoffs, the layer count when
    /// layer-streamed.
    chunks: u32,
    /// Whether handoffs are layer-streamed (counted in
    /// [`TransferStats::streamed`]).
    layer_streamed: bool,
    /// Reusable KV-event drain buffer of [`Run::on_done`].
    kv_event_buf: Vec<(SimTime, KvEvent)>,

    remaining: usize,
    timed_out: usize,
    outcomes: Vec<RequestOutcome>,
    clock: SimTime,
    /// The base config's `max_sim_time` in µs (`u64::MAX` without one):
    /// the run stops at the first event at or past it.
    horizon_us: u64,
    series: SeriesGroup,
    last_series_at: SimTime,
    stats: TransferStats,
    /// Next trace-event instance id (dense over both pools' spawn order).
    next_instance: u32,
    /// Optional trace sink; `None` costs one branch per emission site.
    sink: Option<&'s mut dyn TraceSink>,
}

impl<'s> Run<'s> {
    /// Provisions the `initial` `(prefill, decode)` members (live at t=0)
    /// and schedules every arrival, plus the first planning round when the
    /// pools are autoscaled by `planners` (`(prefill, decode)`).
    fn start(
        config: DisaggConfig,
        initial: (usize, usize),
        planners: Option<(PoolPlanner, PoolPlanner)>,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
        sink: Option<&'s mut dyn TraceSink>,
    ) -> Result<Run<'s>, SimError> {
        fleet::check_arrivals(&requests, &arrival_times)?;
        fleet::check_prefix_cache(config.base.prefix_cache)?;
        fleet::check_engine(&config.base)?;
        // The builder rejects a zero budget; a field literal can skip it.
        if config.max_prefill_batch_tokens == 0 {
            return Err(SimError::InvalidEngine {
                parameter: "max_prefill_batch_tokens",
            });
        }
        if let BatchingMode::Static { .. } = config.base.batching {
            return Err(SimError::InvalidEngine {
                parameter: "batching",
            });
        }
        let route = Routing::new(config.router, &config.base)?;
        let capacity = config.base.capacity_tokens();
        if capacity == 0 {
            return Err(SimError::NoKvCapacity { capacity });
        }
        let max_batch = config.max_prefill_batch_tokens;
        for spec in &requests {
            if u64::from(spec.input_len) > max_batch {
                return Err(SimError::RequestTooLarge {
                    id: spec.id.raw(),
                    needed: u64::from(spec.input_len),
                    capacity: max_batch,
                });
            }
        }
        // The one place the transfer mode is read: it only sets how many
        // chunks every stream on the shared link carries.
        let (chunks, layer_streamed) = match config.transfer.mode {
            TransferMode::Atomic => (1, false),
            TransferMode::LayerStreamed => (config.base.model.n_layers.max(1), true),
        };
        let (prefill_planner, decode_planner) = planners.unzip();
        let mut run = Run {
            capacity,
            sla: config.base.sla,
            transfer: config.transfer,
            kv_bytes_per_token: config.base.model.kv_bytes_per_token(),
            repurpose_delay: config.repurpose,
            default_deadline: config.base.request_deadline,
            link_aging_cap: match config.base.queue_order {
                QueueOrder::LeastSlackFirst { aging_cap } => aging_cap,
                QueueOrder::Fifo | QueueOrder::ShortestPromptFirst { .. } => DEFAULT_AGING_CAP,
            },
            route,
            decode_cursor: 0,
            prefill: Pool::new(pf_obs::Pool::Prefill, config.prefill_slots, prefill_planner),
            decode: Pool::new(pf_obs::Pool::Decode, config.decode_slots, decode_planner),
            prefill_base: SimConfig {
                scheduler: SchedulerConfig::Aggressive { watermark: 1.0 },
                prefill: PrefillMode::WholePrompt,
                record_series: false,
                ..config.base.clone()
            },
            max_prefill_batch_tokens: max_batch,
            decode_base: SimConfig {
                scheduler: SchedulerConfig::Oracle,
                // Prompt length orders prefill, where it cuts the TTFT
                // tail; handoffs keep their arrival order.
                queue_order: match config.base.queue_order {
                    QueueOrder::ShortestPromptFirst { .. } => QueueOrder::Fifo,
                    order => order,
                },
                prefix_cache: None,
                record_series: false,
                ..config.base
            },
            repurposes: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            link: LinkScheduler::new(
                config.transfer.link_gbps,
                config.transfer.per_hop_overhead.as_micros(),
            ),
            stream_slots: Vec::new(),
            stream_done_buf: Vec::new(),
            chunks,
            layer_streamed,
            kv_event_buf: Vec::new(),
            remaining: requests.len(),
            timed_out: 0,
            outcomes: Vec::with_capacity(requests.len()),
            clock: SimTime::ZERO,
            horizon_us: config
                .base
                .max_sim_time
                .map_or(u64::MAX, |limit| limit.as_micros()),
            series: SeriesGroup::new(),
            last_series_at: SimTime::ZERO,
            stats: TransferStats::default(),
            next_instance: 0,
            sink,
        };
        run.grow(
            PoolKind::Prefill,
            SimTime::ZERO,
            initial.0,
            SimDuration::ZERO,
        );
        run.grow(
            PoolKind::Decode,
            SimTime::ZERO,
            initial.1,
            SimDuration::ZERO,
        );
        // Every engine shares the base capacity and KV layout; a prefill
        // engine also reserves its prefix store's request id.
        let prefiller = &run.prefill.members[0].engine;
        for spec in &requests {
            prefiller.validate_spec(spec)?;
        }
        for (at, spec) in arrival_times.into_iter().zip(requests) {
            run.schedule(at, Ev::Arrival(spec));
        }
        // Both pools plan on one cadence (the constructor checks).
        if let (Some(planner), true) = (&run.prefill.planner, run.remaining > 0) {
            run.schedule(SimTime::ZERO + planner.interval(), Ev::Plan);
        }
        run.record_fleet(SimTime::ZERO);
        Ok(run)
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            at_us: at.as_micros(),
            seq,
            ev,
        });
    }

    fn pool(&mut self, kind: PoolKind) -> &mut Pool<Member> {
        match kind {
            PoolKind::Prefill => &mut self.prefill,
            PoolKind::Decode => &mut self.decode,
        }
    }

    /// Provisions an engine in `kind`'s pool on `gpu` at `now`, seeded
    /// and sped up for its spawn index exactly as an elastic replica is
    /// ([`fleet::replica`]), live after `warmup` (at once when zero),
    /// under the next trace-event instance id (dense over both pools'
    /// spawn order, so a flipped member gets a fresh id in its new pool).
    /// Returns its pool index.
    fn spawn(&mut self, kind: PoolKind, now: SimTime, warmup: SimDuration, gpu: GpuType) -> usize {
        let (pool, base) = match kind {
            PoolKind::Prefill => (&mut self.prefill, &self.prefill_base),
            PoolKind::Decode => (&mut self.decode, &self.decode_base),
        };
        let config = fleet::replica(base, gpu, pool.members.len());
        let mut engine = Engine::new(config, Arrivals::offline(Vec::new()));
        engine.set_instance(self.next_instance);
        engine.advance_to(now);
        if kind == PoolKind::Prefill {
            engine.prefill_only(self.max_prefill_batch_tokens);
            if self.route.kv_routing {
                engine.enable_kv_event_log();
            }
        }
        self.next_instance += 1;
        pool.members.push(Member {
            engine,
            core: MemberCore::spawn(now, warmup, gpu),
            busy: false,
            completed: 0,
            seen_timed_out: 0,
        });
        let i = pool.members.len() - 1;
        if !warmup.is_zero() {
            self.schedule(now + warmup, Ev::Ready(kind, i));
        }
        i
    }

    /// Spawns `n` members of `kind`'s pool at `now`, each on the next slot
    /// of the pool's GPU mix.
    fn grow(&mut self, kind: PoolKind, now: SimTime, n: usize, warmup: SimDuration) {
        for _ in 0..n {
            let gpu = self.pool(kind).next_gpu();
            self.spawn(kind, now, warmup, gpu);
        }
    }

    fn record_fleet(&mut self, at: SimTime) {
        let at = at.max(self.last_series_at);
        self.last_series_at = at;
        let (p_live, p_provisioned) = self.prefill.sizes();
        let (d_live, d_provisioned) = self.decode.sizes();
        self.series.record("prefill-live", at, p_live as f64);
        self.series
            .record("prefill-provisioned", at, p_provisioned as f64);
        self.series.record("decode-live", at, d_live as f64);
        self.series
            .record("decode-provisioned", at, d_provisioned as f64);
    }

    fn drive(mut self) -> Result<DisaggReport, SimError> {
        while let Some(Scheduled { at_us, ev, .. }) = self.heap.pop() {
            if at_us >= self.horizon_us {
                // Requests still in flight count as unserved.
                break;
            }
            let now = SimTime::from_micros(at_us);
            self.clock = self.clock.max(now);
            match ev {
                Ev::Arrival(spec) => self.on_arrival(now, spec)?,
                Ev::Done {
                    pool,
                    member,
                    handoffs,
                } => self.on_done(now, pool, member, handoffs)?,
                Ev::Ready(pool, i) => self.on_ready(now, pool, i),
                Ev::Plan => self.on_plan(now),
                Ev::LinkWake { generation } => self.on_link_wake(now, generation),
                Ev::StreamDone { id } => self.on_stream_done(now, id)?,
            }
        }
        Ok(self.finish())
    }

    /// Routes an arrival over the live prefill members with the configured
    /// policy through the fleet kernel's one routing call
    /// ([`Routing::route`]). The pool's load signal is
    /// [`Engine::resident_load`], divided by the member's GPU speed. Under
    /// [`RouterPolicy::PrefixAffinity`] or [`RouterPolicy::KvOverlap`],
    /// each candidate's load also carries its queue's remaining-slack
    /// pressure ([`Engine::queue_slack_pressure`], weighted by
    /// [`fleet::SLACK_PRESSURE_WEIGHT`] of capacity; zero without
    /// deadlines), so urgent queues attract less new traffic.
    fn route_prefill(&mut self, now: SimTime, spec: &RequestSpec) -> usize {
        let members = &self.prefill.members;
        let slack_weighted = matches!(
            self.route.policy,
            RouterPolicy::PrefixAffinity { .. } | RouterPolicy::KvOverlap { .. }
        );
        let pressure_tokens = fleet::SLACK_PRESSURE_WEIGHT * self.capacity as f64;
        let candidates = members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.core.is_live())
            .map(|(i, m)| {
                let mut load = m.load_signal() as f64;
                if slack_weighted {
                    load += pressure_tokens * m.engine.queue_slack_pressure();
                }
                (i, load / m.core.gpu.perf_scale)
            });
        self.route
            .route(now, spec, members.len(), candidates)
            .expect("at least one live prefill instance")
    }

    /// Routes an arrival onto the prefill pool, stamped at its arrival: a
    /// busy member ingests it after its pass, an idle one ticks now.
    fn on_arrival(&mut self, now: SimTime, spec: RequestSpec) -> Result<(), SimError> {
        if let Some(planner) = self.prefill.planner.as_mut() {
            planner.on_request_arrival(now, spec.input_len);
        }
        let target = self.route_prefill(now, &spec);
        let member = &mut self.prefill.members[target];
        member.core.routed += 1;
        member.engine.inject(now, spec);
        if member.busy {
            return Ok(());
        }
        self.tick(PoolKind::Prefill, target, now)
    }

    /// Ticks idle member `i` of `kind`'s pool at `now`. A prefill engine
    /// runs one pass over its queued prompts and hands out every request
    /// that needs more tokens, whose streams open now; a decode engine
    /// admits queued handoffs by Eq. 2–4 (under
    /// [`QueueOrder::LeastSlackFirst`], least end-to-end slack first) and
    /// runs one decode step. `Done` fires at the engine's post-tick clock.
    /// An engine with nothing to run stays idle, and a draining one stops.
    fn tick(&mut self, kind: PoolKind, i: usize, now: SimTime) -> Result<(), SimError> {
        let member = match kind {
            PoolKind::Prefill => &mut self.prefill.members[i],
            PoolKind::Decode => &mut self.decode.members[i],
        };
        member.engine.advance_to(now);
        let tick = member.engine.tick_traced(&mut self.sink)?;
        // A queued prompt can time out; a handoff only once preempted.
        let timed_out = member.engine.timed_out() - member.seen_timed_out;
        member.seen_timed_out += timed_out;
        self.timed_out += timed_out;
        self.remaining -= timed_out;
        match tick {
            Tick::Worked => {
                member.busy = true;
                let end = member.engine.now();
                let first = self.stream_slots.len();
                let handoffs = first..first + member.engine.pending_handoffs();
                // Scheduled before the pass's streams open, so that at
                // equal timestamps `Done` always pops first: a stream's
                // last chunk turns eligible exactly at the pass end, so
                // its `StreamDone` never lands before the pass has ended.
                self.schedule(
                    end,
                    Ev::Done {
                        pool: kind,
                        member: i,
                        handoffs,
                    },
                );
                if kind == PoolKind::Prefill {
                    self.open_streams(i, now, end);
                }
            }
            // A decode engine with nothing running can never admit; a
            // prefill engine waits for its held KV to be released.
            Tick::Blocked if kind == PoolKind::Decode => {
                return Err(SimError::Stalled {
                    queued: member.engine.outstanding(),
                    at: now,
                });
            }
            Tick::Blocked | Tick::Sleep(_) | Tick::Drained | Tick::HorizonReached => {
                self.maybe_stop(kind, i, now);
            }
        }
        Ok(())
    }

    /// Opens one link stream for each request that prefill member `i`'s
    /// pass, from `now` to `end`, handed out: chunk `l` of [`Run::chunks`]
    /// becomes eligible as the pass proportionally produces it (a
    /// one-chunk atomic stream at the pass end), so a layer-streamed
    /// transfer overlaps the remaining prefill compute.
    fn open_streams(&mut self, i: usize, now: SimTime, end: SimTime) {
        let (now_us, end_us) = (now.as_micros(), end.as_micros());
        let chunks = self.chunks;
        let first_at = now_us + (end_us - now_us).div_ceil(u64::from(chunks));
        let Run {
            prefill,
            link,
            stream_slots,
            sink,
            ..
        } = self;
        let engine = &mut prefill.members[i].engine;
        let instance = engine.instance();
        for handoff in engine.drain_handoffs() {
            // The prompt plus the first generated token.
            let bytes = (u64::from(handoff.spec.input_len) + 1) * self.kv_bytes_per_token;
            let weight = fleet::slack_share_weight(
                now,
                handoff.timing.arrival(),
                handoff.spec.deadline.or(self.default_deadline),
                self.link_aging_cap,
            );
            let request = handoff.spec.id.raw();
            let id = link.start_stream(
                now_us,
                StreamSpec {
                    bytes,
                    produce_start_us: now_us,
                    produce_end_us: end_us,
                    chunks,
                    weight,
                },
            );
            debug_assert_eq!(id, stream_slots.len());
            stream_slots.push(StreamSlot {
                from: i,
                bytes,
                produce_end_us: end_us,
                handoff: Some(handoff),
            });
            // Future-stamped at the first chunk's eligibility (the pass
            // end for an atomic handoff).
            fleet::emit(
                sink,
                TraceEvent::KvTransferStart {
                    at: SimTime::from_micros(first_at),
                    instance,
                    request,
                },
            );
        }
        self.schedule_link_wake(now);
        self.emit_link_utilization(now);
    }

    /// Member `i` of `kind`'s pool ended its pass or step: its KV-block
    /// events reach the router index, the requests it finished join the
    /// run's outcomes, the pool's planner learns each first token the pass
    /// emitted and each finished request, and the engine ticks again.
    fn on_done(
        &mut self,
        now: SimTime,
        kind: PoolKind,
        i: usize,
        handoffs: Range<usize>,
    ) -> Result<(), SimError> {
        let Run {
            prefill,
            decode,
            route,
            kv_event_buf,
            outcomes,
            stream_slots,
            ..
        } = self;
        let Pool {
            members, planner, ..
        } = match kind {
            PoolKind::Prefill => prefill,
            PoolKind::Decode => decode,
        };
        let member = &mut members[i];
        member.busy = false;
        if kind == PoolKind::Prefill && route.kv_routing {
            kv_event_buf.clear();
            member.engine.drain_kv_events(kv_event_buf);
            for &(at, ev) in kv_event_buf.iter() {
                route.indexer.publish(i as u32, ev, at.as_micros());
            }
        }
        let before = outcomes.len();
        outcomes.extend(member.engine.drain_outcomes());
        let finished = &outcomes[before..];
        if let Some(planner) = planner.as_mut() {
            for id in handoffs.clone() {
                let handoff = stream_slots[id]
                    .handoff
                    .as_ref()
                    .expect("parked until it lands");
                let ttft = handoff
                    .timing
                    .ttft()
                    .expect("the pass emitted its first token");
                planner.on_request_finished(now, 1, ttft, SimDuration::ZERO);
            }
            for o in finished {
                let ttft = o.timing.ttft().expect("completed with tokens");
                planner.on_request_finished(now, o.output_len, ttft, o.timing.avg_tpot());
            }
        }
        member.completed += handoffs.len() + finished.len();
        self.remaining -= finished.len();
        self.tick(kind, i, now)
    }

    /// Schedules a wake at the link's next projected completion, tagged
    /// with the current generation; a join in the meantime bumps the
    /// generation, so the stale wake is dropped unprocessed and a fresh
    /// projection replaces it.
    fn schedule_link_wake(&mut self, now: SimTime) {
        let Some(at_us) = self.link.next_event_us() else {
            return;
        };
        let generation = self.link.generation();
        self.schedule(
            SimTime::from_micros(at_us.max(now.as_micros())),
            Ev::LinkWake { generation },
        );
    }

    fn on_link_wake(&mut self, now: SimTime, generation: u64) {
        if generation != self.link.generation() {
            return; // Superseded by a join since this wake was scheduled.
        }
        let mut completions = std::mem::take(&mut self.stream_done_buf);
        completions.clear();
        self.link.advance(now.as_micros(), &mut completions);
        for done in completions.drain(..) {
            self.schedule(
                SimTime::from_micros(done.done_us.max(now.as_micros())),
                Ev::StreamDone { id: done.id },
            );
        }
        self.stream_done_buf = completions;
        self.schedule_link_wake(now);
    }

    /// A KV transfer fully lands: the source releases the held KV (and an
    /// idle source ticks, since a prompt may fit now), the stats charge
    /// the uncontended wire time plus one *per-stream* overhead and the
    /// time landed past the pass end, and the request hands off to the
    /// decode pool.
    fn on_stream_done(&mut self, now: SimTime, id: usize) -> Result<(), SimError> {
        let slot = &mut self.stream_slots[id];
        let (from, bytes, produce_end_us) = (slot.from, slot.bytes, slot.produce_end_us);
        let handoff = slot.handoff.take().expect("a stream lands once");
        let wire_secs = bytes as f64 / (self.transfer.link_gbps * 1e9);
        self.stats.transfers += 1;
        self.stats.streamed += usize::from(self.layer_streamed);
        self.stats.total_bytes += bytes;
        self.stats.total_link_secs += wire_secs + self.transfer.per_hop_overhead.as_secs_f64();
        self.stats.total_tail_secs += now.as_micros().saturating_sub(produce_end_us) as f64 / 1e6;
        let source = &mut self.prefill.members[from];
        source.engine.release(handoff.spec.id.raw());
        if !source.busy {
            self.tick(PoolKind::Prefill, from, now)?;
        }
        self.emit_link_utilization(now);
        self.handoff_to_decode(now, handoff)
    }

    /// Emits the shared-link utilization gauge. The link is a pool-wide
    /// resource, so the gauge carries the pseudo-instance `u32::MAX`
    /// rather than any member's id.
    fn emit_link_utilization(&mut self, now: SimTime) {
        if let Some(s) = self.sink.as_deref_mut() {
            s.gauge(
                now,
                u32::MAX,
                GaugeKind::LinkUtilization,
                self.link.utilization(),
            );
        }
    }

    /// Routes a landed KV handoff onto the decode pool, by each live
    /// member's [`Member::load_signal`] over its GPU speed, and ticks the
    /// receiving engine if it is idle.
    fn handoff_to_decode(&mut self, now: SimTime, handoff: Handoff) -> Result<(), SimError> {
        if let Some(planner) = self.decode.planner.as_mut() {
            planner.on_request_arrival(now, handoff.spec.input_len);
        }
        let n = self.decode.members.len();
        let target = pick_rotating_min(
            self.decode
                .members
                .iter()
                .enumerate()
                .filter(|(_, m)| m.core.is_live())
                .map(|(j, m)| (j, m.load_signal() as f64 / m.core.gpu.perf_scale)),
            &mut self.decode_cursor,
            n,
        )
        .expect("at least one live decode instance");
        let member = &mut self.decode.members[target];
        member.core.routed += 1;
        // The transfer end carries the *receiving decode* instance: the
        // request's decode phase runs there from this point on.
        fleet::emit(
            &mut self.sink,
            TraceEvent::KvTransferEnd {
                at: now,
                instance: member.engine.instance(),
                request: handoff.spec.id.raw(),
            },
        );
        member.engine.hand_off(now, handoff);
        if member.busy {
            return Ok(());
        }
        self.tick(PoolKind::Decode, target, now)
    }

    fn on_ready(&mut self, now: SimTime, kind: PoolKind, i: usize) {
        let core = &mut self.pool(kind).members[i].core;
        if matches!(core.state, MemberState::Warming { .. }) {
            core.state = MemberState::Live;
            self.record_fleet(now);
        }
    }

    /// Stops member `i` of `kind`'s pool once it is draining and idle with
    /// nothing outstanding (no queue, no batch, no held KV).
    fn maybe_stop(&mut self, kind: PoolKind, i: usize, now: SimTime) {
        let member = &self.pool(kind).members[i];
        if member.core.state == MemberState::Draining
            && !member.busy
            && member.engine.outstanding() == 0
        {
            self.stop_or_flip(kind, i, now);
        }
    }

    /// Stops drained member `i` of `kind`'s pool. If the other pool
    /// claimed it, it flips there: it leaves this pool's ledger and
    /// re-spawns in the other at the same instant, with its KV pool reset
    /// and only the short repurpose delay before it serves (the weights
    /// are already resident). Its new pool sees it as ordinary warming
    /// capacity, and it serves its new role under a fresh instance id,
    /// linked to the old one by a [`TraceEvent::Repurposed`].
    fn stop_or_flip(&mut self, kind: PoolKind, i: usize, now: SimTime) {
        let member = &mut self.pool(kind).members[i];
        let from_instance = member.engine.instance();
        let gpu = member.core.gpu;
        let claimed = std::mem::take(&mut member.core.claimed);
        member.core.stop(now);
        if claimed {
            let delay = self
                .repurpose_delay
                .expect("claims only exist with repurposing enabled");
            let to = self.spawn(kind.other(), now, delay, gpu);
            let to_instance = self.pool(kind.other()).members[to].engine.instance();
            fleet::emit(
                &mut self.sink,
                TraceEvent::Repurposed {
                    at: now,
                    from_instance,
                    to_instance,
                },
            );
            let (direction, prefill_member, decode_member) = match kind {
                PoolKind::Prefill => (RepurposeDirection::PrefillToDecode, i, to),
                PoolKind::Decode => (RepurposeDirection::DecodeToPrefill, to, i),
            };
            self.repurposes.push(RepurposeEvent {
                at: now,
                direction,
                prefill_member,
                decode_member,
            });
        }
        self.record_fleet(now);
    }

    /// One planning round: each pool's planner decides independently. The
    /// prefill decision runs first so a decode scale-up in the same round
    /// can claim its freshly draining victims; the prefill victims'
    /// idle-stop check is deferred until after the decode decision, so an
    /// already-idle victim flips immediately instead of stopping cold.
    fn on_plan(&mut self, now: SimTime) {
        let prefill_drained = self.plan_pool(PoolKind::Prefill, now);
        let decode_drained = self.plan_pool(PoolKind::Decode, now);
        for victim in decode_drained {
            self.maybe_stop(PoolKind::Decode, victim, now);
        }
        for victim in prefill_drained {
            self.maybe_stop(PoolKind::Prefill, victim, now);
        }
        self.record_fleet(now);
        if let (Some(planner), true) = (&self.prefill.planner, self.remaining > 0) {
            self.schedule(now + planner.interval(), Ev::Plan);
        }
    }

    /// Runs the planning round of `kind`'s pool and applies its decision.
    /// A scale-up first claims draining members of the other pool when
    /// repurposing is enabled, then spawns the rest. A scale-down first
    /// releases the pool's pending claims (they have not started costing
    /// it anything yet), then cancels and drains its own members through
    /// the fleet kernel's shrink pass. Returns the members newly marked
    /// draining (their idle-stop check is the caller's, after both pools
    /// have decided).
    fn plan_pool(&mut self, kind: PoolKind, now: SimTime) -> Vec<usize> {
        let (own, other) = match kind {
            PoolKind::Prefill => (&mut self.prefill, &mut self.decode),
            PoolKind::Decode => (&mut self.decode, &mut self.prefill),
        };
        // Claimed-but-not-flipped members are capacity the pool has
        // already ordered.
        let claimed = fleet::pending_claims(&other.members);
        match own.plan_round(now, claimed, &mut self.sink) {
            Some(Resize::Grow(mut need)) => {
                if self.repurpose_delay.is_some() {
                    need -= fleet::claim_drained(&mut other.members, need);
                }
                let warmup = own
                    .planner
                    .as_ref()
                    .expect("only planned pools grow")
                    .warmup();
                self.grow(kind, now, need, warmup);
                Vec::new()
            }
            Some(Resize::Shrink(excess)) => {
                let excess = excess - fleet::release_claims(&mut other.members, excess);
                own.shrink_by(excess, now)
            }
            Some(Resize::Hold) | None => Vec::new(),
        }
    }

    fn finish(mut self) -> DisaggReport {
        let end = self.clock;
        self.record_fleet(end);
        let mut prefix_stats = PrefixCacheStats::default();
        for member in &self.prefill.members {
            if let Some(stats) = member.engine.prefix_stats() {
                prefix_stats.merge(&stats);
            }
        }
        let makespan = end.saturating_since(SimTime::ZERO);
        let requests: Vec<(RequestTiming, u64)> = self
            .outcomes
            .iter()
            .map(|o| (o.timing, u64::from(o.output_len)))
            .collect();
        let goodput =
            GoodputReport::compute_with_timeouts(&self.sla, &requests, makespan, self.timed_out);
        DisaggReport {
            goodput,
            makespan,
            unserved: self.remaining,
            timed_out: self.timed_out,
            prefill: PoolReport::new(self.prefill, end),
            decode: PoolReport::new(self.decode, end),
            repurposes: self.repurposes,
            prefix_stats,
            transfers: self.stats,
            pool_series: self.series,
            outcomes: self.outcomes,
        }
    }
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
