//! Disaggregated prefill/decode serving: separate instance pools joined by
//! a KV-transfer link (DistServe / NVIDIA-Dynamo-style).
//!
//! A colocated engine runs prefill and decode on the same GPU, so the two
//! stages interfere: prompt passes stall token emission (MTPOT), and the
//! decode batch's KV residency starves prompt admission (TTFT). This module
//! splits them. Every instance of both pools is the colocated engine
//! behind [`crate::Simulation`], in its pool's role. **Prefill instances**
//! serve a queue of prompts in batched whole-prompt passes of at most
//! [`PREFILL_PASS_TOKENS`] computed tokens, in the base config's
//! [`QueueOrder`] (arrival order, least slack first or shortest prompt
//! first, each with its aging cap), emit each request's *first* token
//! and hand the request over to the link. **Decode instances** are
//! fed the requests whose KV cache has been handed over. Each runs
//! continuous-batching token generation and admits handoffs through the
//! engine's one admission path with [`SchedulerConfig::Oracle`]: the
//! paper's future-required-memory estimate (Eq. 2–4) on true output
//! lengths, so the decode batch packs densely yet never evicts. The pools
//! are sized (and, when autoscaled, planned) independently, each against
//! the SLA term its stage controls: prefill against TTFT, decode against
//! TPOT.
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
//! # Autoscaled pools and cross-pool repurposing
//!
//! [`DisaggCluster::autoscale`] gives each pool its own
//! [`AutoscaleConfig`] planner (role [`PoolRole::Prefill`] /
//! [`PoolRole::Decode`]), starting from the sizes given to
//! [`DisaggCluster::new`], both planned through the kernel's one planning
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
//! [`FleetReport::repurposes`]. A member never serves both roles at once:
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
//! Fixed and autoscaled pools run on the crate's one fleet driver, the
//! event heap behind the colocated fleets too: a disaggregated run is a
//! colocated one plus the decode pool and the link. The run is fully
//! deterministic: the heap orders arrivals, step completions, transfers
//! and planning rounds, with a fixed rank and a monotone sequence number
//! breaking timestamp ties, and a run ends at its last served work. This
//! module holds the pools' configuration and the link's cost model; a
//! run returns the [`FleetReport`] every topology shares, whose members
//! are both pools' engines and whose outcomes are the run's own, in
//! completion order.
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
use pf_metrics::{SimDuration, SimTime};
use pf_obs::TraceSink;
use pf_workload::RequestSpec;

use crate::cluster::RouterPolicy;
use crate::config::{BatchingMode, PrefillMode, QueueOrder, SimConfig};
use crate::driver::{replicas, Run, Split};
use crate::error::SimError;
use crate::fleet::{self, GpuType, Pool};
use crate::report::FleetReport;
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

/// *Computed* prompt tokens batched into one prefill pass at most
/// (prefix-cache hits shrink a prompt's computed tokens, letting more
/// prompts share a pass at the same per-pass cost). A prompt longer than
/// this is [`SimError::RequestTooLarge`].
pub const PREFILL_PASS_TOKENS: u64 = 8_192;

/// Configuration of a disaggregated deployment: one replica type (model,
/// GPU, capacity, SLA — all from the embedded [`SimConfig`]) split into
/// two pools joined by a [`KvTransferSpec`] link. Each prefill pass
/// batches at most [`PREFILL_PASS_TOKENS`] computed prompt tokens.
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
    /// Wraps a replica configuration with NVLink transfer defaults.
    pub fn new(base: SimConfig) -> Self {
        DisaggConfig {
            base,
            transfer: KvTransferSpec::nvlink(),
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
        if matches!(self.base.batching, BatchingMode::Static) {
            return Err(SimError::InvalidEngine {
                parameter: "batching",
            });
        }
        Ok(())
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
}

/// A disaggregated cluster: fixed pool sizes, or pools independently
/// autoscaled from their initial sizes ([`DisaggCluster::autoscale`]).
#[derive(Debug)]
pub struct DisaggCluster {
    config: DisaggConfig,
    prefill_instances: usize,
    decode_instances: usize,
    autoscale: Option<(AutoscaleConfig, AutoscaleConfig)>,
}

impl DisaggCluster {
    /// Creates a cluster with `prefill_instances` + `decode_instances`
    /// replicas: the pool sizes, or the initial ones under
    /// [`DisaggCluster::autoscale`].
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
            autoscale: None,
        }
    }

    /// Autoscales each pool with its own planner — the prefill pool
    /// against TTFT, the decode pool against TPOT (see the module docs).
    /// Both planners share one adjustment interval, and each pool's
    /// initial size lies within its planner's `[min, max]` bounds; a run
    /// checks both ([`SimError::InvalidAutoscale`]).
    pub fn autoscale(mut self, prefill: AutoscaleConfig, decode: AutoscaleConfig) -> Self {
        self.autoscale = Some((prefill, decode));
        self
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
    /// ([`SimError::InvalidHardware`]), an autoscaled pool's planner
    /// cannot run from its initial size ([`SimError::InvalidAutoscale`]),
    /// or the router policy cannot run on the pools
    /// ([`SimError::InvalidRouterPolicy`]).
    pub fn run(
        self,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
    ) -> Result<FleetReport, SimError> {
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
    ) -> Result<FleetReport, SimError> {
        self.run_workload(Workload::Timed(requests, arrival_times), sink)
    }

    /// Runs the cluster against `workload` on the shared fleet driver,
    /// with an optional [`TraceSink`] receiving every lifecycle event, the
    /// KV-transfer handoffs, per-pool scaling and cross-pool repurposing
    /// included.
    ///
    /// # Errors
    ///
    /// As [`DisaggCluster::run`].
    pub fn run_workload(
        self,
        workload: Workload,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<FleetReport, SimError> {
        let config = self.config;
        config.check()?;
        let initial = (self.prefill_instances, self.decode_instances);
        let planner = |autoscale, role| Some(fleet::pool_planner(autoscale, &config.base, role));
        let (prefill_planner, decode_planner) = match self.autoscale {
            Some((prefill, decode)) => {
                fleet::check_autoscale(&[(&prefill, initial.0), (&decode, initial.1)])?;
                (
                    planner(prefill, PoolRole::Prefill),
                    planner(decode, PoolRole::Decode),
                )
            }
            None => (None, None),
        };
        let prefill_base = config.prefill_base();
        let initial = [
            replicas(&prefill_base, &config.prefill_slots, initial.0),
            replicas(&config.decode_base(), &config.decode_slots, initial.1),
        ];
        let split = Split::new(&config);
        let pools = [
            Pool::new(pf_obs::Pool::Prefill, config.prefill_slots, prefill_planner),
            Pool::new(pf_obs::Pool::Decode, config.decode_slots, decode_planner),
        ];
        Run::start(
            pools,
            prefill_base,
            initial,
            config.router,
            Some(split),
            workload,
            sink,
        )?
        .drive()
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
    /// Index among the prefill pool's members
    /// ([`FleetReport::pool`]): the drained member for
    /// [`RepurposeDirection::PrefillToDecode`], the freshly spawned one for
    /// [`RepurposeDirection::DecodeToPrefill`].
    pub prefill_member: usize,
    /// Index among the decode pool's members (the counterpart of
    /// `prefill_member`, per the direction).
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
    /// Handoffs still on the link when the run ended (only a run cut by
    /// `max_sim_time` leaves any).
    pub in_flight: usize,
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
