//! The shared fleet-lifecycle kernel: one instance state machine, one
//! shrink pass, one cost ledger and one routing surface for every
//! multi-instance deployment in this crate.
//!
//! [`crate::elastic::ElasticCluster`] and [`crate::disagg::DisaggCluster`]
//! (fixed or autoscaled) manage pools of serving instances that are
//! provisioned, warmed up, drained and released over a run. This module
//! is the single definition of that machinery; the crate's one fleet
//! driver (crate-internal `driver::Run`) runs every topology's pools on
//! it.
//!
//! # Pools and the planning round
//!
//! A crate-internal `Pool` owns one pool's members, its declared GPU
//! slots, its scaling log and its optional autoscaling planner. The
//! colocated fleet runs one pool, a disaggregated deployment one per
//! stage. Every pool plans through the same round (`Pool::plan_round`):
//! refresh the planner's candidate slot scales, plan, emit and log any
//! size change, and hand back a grow/shrink count. The driver applies
//! it: a scale-up first claims the other pool's draining members
//! ([`MemberCore::claimed`]) when a disaggregated run repurposes, then
//! spawns; a scale-down first releases such claims, then runs
//! [`shrink_pool`]. A claimed member flips pools when its drain ends.
//!
//! # The member state machine
//!
//! ```text
//!               spawn(warmup > 0)
//!                     │
//!                     ▼
//!                ┌─────────┐  ready_at reached   ┌──────┐
//!                │ Warming │ ───────────────────▶│ Live │◀── spawn(warmup = 0)
//!                └─────────┘                     └──────┘
//!                     │                             │
//!       shrink:       │ cancel                      │ shrink: drain victim
//!       (newest       ▼                             ▼
//!       first)   ┌─────────┐   in-flight work   ┌──────────┐
//!                │ Stopped │◀──────────────────│ Draining │
//!                └─────────┘   finishes         └──────────┘
//!                     ▲
//!                     │ repurpose: a drained member leaves this pool and
//!                     └─ re-spawns in another pool as Warming, with a
//!                        short repurpose delay instead of a full warm-up
//! ```
//!
//! * **Warming** members cost GPU time (the accelerator is booting and
//!   loading weights) but are never routed to.
//! * **Live** members serve traffic; only they are routing candidates.
//! * **Draining** members finish their queued and running work, receive
//!   nothing new, and stop — and stop costing — once empty.
//! * **Stopped** members cost nothing from `stopped_at` on.
//!
//! # Heterogeneous fleets
//!
//! Every member carries a [`GpuType`]: a name, a `cost_weight` (its price
//! relative to the fleet's reference accelerator) and a `perf_scale` (its
//! step-latency speed relative to the reference; 2.0 = twice as fast).
//! The cost ledger ([`crate::MemberReport::cost_weighted_secs`]) charges
//! provisioned wall-clock seconds multiplied by `cost_weight` — the
//! objective heterogeneous planners minimize — and the shrink pass
//! releases the *costliest* members first, so a mixed fleet sheds its
//! expensive capacity as soon as the cheap capacity suffices.
//!
//! # Shrinking
//!
//! [`shrink_pool`] implements the one scale-down discipline every pool
//! uses: cancel the newest warming members first (they have served
//! nothing), then mark live victims as draining — preferring the highest
//! `cost_weight`, then the lowest load, then the lowest index — and never
//! take a pool below one live member, so its router always has a target.
//!
//! # Routing surface
//!
//! `Routing::route` (crate-internal) is the one routing call: every
//! fleet — [`crate::cluster`], the elastic fleet and the disagg prefill
//! pool — hands it `(index, load)` candidates, and it credits each with
//! the cached overlap the event-fed [`pf_kvcache::KvIndexer`] shows,
//! then dispatches with deterministic rotating tie-breaks (first-index
//! tie-breaking would herd all cold-start traffic onto member 0).
//!
//! # Deadlines
//!
//! `expiry` and `slack_rank_key` (crate-internal) are the one definition
//! of the deadline policy. The engine's queue, which every topology runs
//! (both disagg pools included), takes its cancellation verdict from
//! `expiry` and its least-slack-first order from `rank_by_slack`, and the
//! disagg link weighs its streams by the same groups
//! (`slack_share_weight`). Queued disagg handoffs rank by end-to-end slack
//! like any queued request, and no deadline cancels one, since each has
//! streamed its first token.

use std::collections::VecDeque;

use pf_autoscale::{AutoscaleConfig, AutoscalePlanner, PoolRole, ScalingDecision, StepLatency};
use pf_core::SchedulerConfig;
use pf_kvcache::KvIndexer;
use pf_metrics::{SimDuration, SimTime};
use pf_obs::{TraceEvent, TraceSink};
use pf_workload::RequestSpec;

use crate::cluster::RouterPolicy;
use crate::config::{KvLayout, PrefixCacheConfig, SimConfig};
use crate::error::SimError;
use crate::perf::PerfModel;

/// Forwards a [`TraceEvent`] to the sink, if one is attached. This is the
/// single emission funnel every engine and cluster module routes through:
/// with no sink it compiles to one branch on an empty option — no
/// allocation, no formatting, bit-identical reports.
#[inline]
pub(crate) fn emit(sink: &mut Option<&mut dyn TraceSink>, ev: TraceEvent) {
    if let Some(s) = sink {
        s.event(ev);
    }
}

/// Checks a scheduler config before an engine builds it, where the
/// scheduler's constructor would panic on an out-of-range value.
///
/// # Errors
///
/// [`SimError::InvalidScheduler`] naming the offending parameter.
pub(crate) fn check_scheduler(config: &SchedulerConfig) -> Result<(), SimError> {
    let parameter = match *config {
        SchedulerConfig::PastFuture { window: 0, .. } => "window",
        SchedulerConfig::PastFuture { reserved_frac, .. }
            if !(0.0..1.0).contains(&reserved_frac) =>
        {
            "reserved_frac"
        }
        SchedulerConfig::PastFuture {
            sample_repeats: 0, ..
        } => "sample_repeats",
        SchedulerConfig::Aggressive { watermark } if !(watermark > 0.0 && watermark <= 1.0) => {
            "watermark"
        }
        SchedulerConfig::Conservative { overcommit } if !(1.0..).contains(&overcommit) => {
            "overcommit"
        }
        _ => return Ok(()),
    };
    Err(SimError::InvalidScheduler { parameter })
}

/// Checks a prefix-cache config before an engine or pool builds its store,
/// where a zero block size would panic and a budget outside `(0, 1]` would
/// model a cache with no room or one larger than the KV pool.
///
/// # Errors
///
/// [`SimError::InvalidPrefixCache`] naming the offending parameter.
pub(crate) fn check_prefix_cache(config: Option<PrefixCacheConfig>) -> Result<(), SimError> {
    let parameter = match config {
        Some(c) if !(c.budget_frac > 0.0 && c.budget_frac <= 1.0) => "budget_frac",
        Some(c) if c.block_tokens == Some(0) => "block_tokens",
        _ => return Ok(()),
    };
    Err(SimError::InvalidPrefixCache { parameter })
}

/// Checks an engine config's KV layout before an engine is built from
/// it: a paged `block_size` of 0 panics.
///
/// # Errors
///
/// [`SimError::InvalidEngine`] naming `block_size`.
pub(crate) fn check_engine(config: &SimConfig) -> Result<(), SimError> {
    if config.kv_layout == (KvLayout::Paged { block_size: 0 }) {
        return Err(SimError::InvalidEngine {
            parameter: "block_size",
        });
    }
    Ok(())
}

/// Checks the GPU types of a fleet's slots before any planner or member is
/// built from them, where a `perf_scale` that is not finite and positive
/// would divide step times by zero and a `cost_weight` would price the
/// cost ledger at NaN or at no cost. Every fleet driver with a GPU mix
/// runs this one check.
///
/// # Errors
///
/// [`SimError::InvalidHardware`] naming the offending parameter.
pub(crate) fn check_gpus<'a>(slots: impl IntoIterator<Item = &'a GpuType>) -> Result<(), SimError> {
    slots.into_iter().try_for_each(|gpu| {
        check_positive("perf_scale", gpu.perf_scale)?;
        check_positive("cost_weight", gpu.cost_weight)
    })
}

/// Checks each autoscaled pool of a run, with its initial size, before
/// any planner is built: a zero `interval` divides by zero in the
/// planner, a `min_replicas` of 0 or above `max_replicas` panics in its
/// policy, the initial size must lie within `[min_replicas,
/// max_replicas]`, and the pools of one run plan on one cadence, so they
/// share one `interval`. Every planned fleet runs this one check.
///
/// # Errors
///
/// [`SimError::InvalidAutoscale`] naming the offending parameter.
pub(crate) fn check_autoscale(pools: &[(&AutoscaleConfig, usize)]) -> Result<(), SimError> {
    let interval = pools.first().map(|(config, _)| config.interval);
    pools.iter().try_for_each(|&(config, initial)| {
        let (min, max) = (config.policy.min_replicas, config.policy.max_replicas);
        let parameter = if config.interval.is_zero() || Some(config.interval) != interval {
            "interval"
        } else if min == 0 || min > max {
            "min_replicas"
        } else if !(min..=max).contains(&initial) {
            "initial_replicas"
        } else {
            return Ok(());
        };
        Err(SimError::InvalidAutoscale { parameter })
    })
}

/// [`SimError::InvalidHardware`] naming `parameter` unless `value` is
/// finite and positive.
pub(crate) fn check_positive(parameter: &'static str, value: f64) -> Result<(), SimError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(SimError::InvalidHardware { parameter })
    }
}

/// Config of a pool's `spawned`-th engine, provisioned on `gpu`: an
/// independent sampling stream per instance, and the GPU's `perf_scale`
/// multiplying the whole stack's kernel speed (×1.0 for the reference
/// type — bit-identical). The elastic fleet and both disaggregated pools
/// provision every engine through it.
pub(crate) fn replica(base: &SimConfig, gpu: GpuType, spawned: usize) -> SimConfig {
    let mut config = base.clone();
    config.seed = config.seed.wrapping_add(spawned as u64);
    config.kernel_speedup *= gpu.perf_scale;
    config
}

/// Lifecycle state of one fleet member (see the module-level diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Provisioned but not yet accepting traffic.
    Warming {
        /// When the instance becomes live.
        ready_at: SimTime,
    },
    /// Serving and routable.
    Live,
    /// Finishing in-flight work; receives nothing new.
    Draining,
    /// Released; costs nothing from its stop time on.
    Stopped,
}

/// An accelerator type in a (possibly mixed) fleet: a display name plus
/// its cost and speed relative to the fleet's reference GPU.
///
/// `perf_scale` multiplies the replica's effective kernel speed (2.0 =
/// step latencies halve); `cost_weight` multiplies its provisioned
/// seconds in the cost ledger. KV capacity is taken from the deployment
/// configuration as usual — `GpuType` models speed and price, not memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuType {
    /// Display name for reports.
    pub name: &'static str,
    /// Price per provisioned second relative to the reference GPU.
    pub cost_weight: f64,
    /// Step-latency speed relative to the reference GPU (higher = faster).
    pub perf_scale: f64,
}

impl GpuType {
    /// Creates a GPU type, validating the weights.
    ///
    /// # Panics
    ///
    /// Panics unless both weights are finite and positive.
    pub fn new(name: &'static str, cost_weight: f64, perf_scale: f64) -> Self {
        assert!(
            cost_weight.is_finite() && cost_weight > 0.0,
            "invalid cost weight {cost_weight}"
        );
        assert!(
            perf_scale.is_finite() && perf_scale > 0.0,
            "invalid perf scale {perf_scale}"
        );
        GpuType {
            name,
            cost_weight,
            perf_scale,
        }
    }

    /// The reference accelerator: cost 1.0, speed 1.0.
    pub fn reference() -> Self {
        GpuType::new("ref", 1.0, 1.0)
    }

    /// A big training-class GPU (the reference: cost 1.0, speed 1.0).
    pub fn big() -> Self {
        GpuType::new("big", 1.0, 1.0)
    }

    /// A mid-range inference GPU: 55% of the reference speed at 45% of
    /// the price — cheaper per provisioned second, slower per step.
    pub fn mid() -> Self {
        GpuType::new("mid", 0.45, 0.55)
    }

    /// A small inference GPU: 30% of the reference speed at 22% of the
    /// price.
    pub fn small() -> Self {
        GpuType::new("small", 0.22, 0.30)
    }
}

/// The GPU type of provisioning slot `k` in a declared mix (slots past the
/// end repeat the last entry; an empty mix is the homogeneous reference
/// fleet).
pub(crate) fn slot_gpu(slots: &[GpuType], k: usize) -> GpuType {
    match slots.get(k) {
        Some(gpu) => *gpu,
        None => slots.last().copied().unwrap_or_default(),
    }
}

impl Default for GpuType {
    fn default() -> Self {
        GpuType::reference()
    }
}

/// The lifecycle bookkeeping every fleet member embeds: state, GPU type,
/// provisioning timestamps and the routed-request counter.
#[derive(Debug, Clone, Copy)]
pub struct MemberCore {
    /// Current lifecycle state.
    pub state: MemberState,
    /// The accelerator this member runs on.
    pub gpu: GpuType,
    /// When the member was provisioned (cost accrues from here).
    pub spawned_at: SimTime,
    /// When it stopped costing GPU time (`None` while still provisioned).
    pub stopped_at: Option<SimTime>,
    /// Requests routed to this member.
    pub routed: usize,
    /// Claimed by the other pool of a disaggregated deployment: flips
    /// into it the moment its drain completes (see the module docs).
    pub claimed: bool,
}

impl MemberCore {
    /// Provisions a member at `now`: live immediately when `warmup` is
    /// zero, warming until `now + warmup` otherwise.
    pub fn spawn(now: SimTime, warmup: SimDuration, gpu: GpuType) -> Self {
        let state = if warmup.is_zero() {
            MemberState::Live
        } else {
            MemberState::Warming {
                ready_at: now + warmup,
            }
        };
        MemberCore {
            state,
            gpu,
            spawned_at: now,
            stopped_at: None,
            routed: 0,
            claimed: false,
        }
    }

    /// Whether the member may hold work (live or draining).
    pub fn is_active(&self) -> bool {
        matches!(self.state, MemberState::Live | MemberState::Draining)
    }

    /// Whether the member is a routing candidate.
    pub fn is_live(&self) -> bool {
        self.state == MemberState::Live
    }

    /// Releases the member at `at`.
    pub fn stop(&mut self, at: SimTime) {
        self.state = MemberState::Stopped;
        self.stopped_at = Some(at);
    }
}

/// One pool-size change, for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingEvent {
    /// When the planner decided.
    pub at: SimTime,
    /// The pool it resized.
    pub pool: pf_obs::Pool,
    /// Provisioned replicas (live + warming) before the decision.
    pub from: usize,
    /// Provisioned replicas after the decision.
    pub to: usize,
}

/// The surface a pool's member type exposes to the lifecycle kernel.
pub trait FleetMember {
    /// The embedded lifecycle bookkeeping.
    fn core(&self) -> &MemberCore;

    /// Mutable access to the lifecycle bookkeeping.
    fn core_mut(&mut self) -> &mut MemberCore;

    /// Relative load for drain-victim selection (lower drains first).
    fn load_signal(&self) -> u64;
}

/// `(live, warming)` counts of one pool.
pub fn pool_counts<T: FleetMember>(members: &[T]) -> (usize, usize) {
    let live = members.iter().filter(|m| m.core().is_live()).count();
    let warming = members
        .iter()
        .filter(|m| matches!(m.core().state, MemberState::Warming { .. }))
        .count();
    (live, warming)
}

/// Members still costing GPU time (anything not stopped).
pub fn provisioned_count<T: FleetMember>(members: &[T]) -> usize {
    members
        .iter()
        .filter(|m| m.core().stopped_at.is_none())
        .count()
}

/// Per-slot `perf_scale`s describing the fleet each candidate size would
/// *actually* run, for the planner's heterogeneous sizing
/// (`AutoscalePlanner::update_slot_perf_scales`).
///
/// Entry `k` is the `perf_scale` of the member that would be the
/// `(k+1)`-th survivor of shrinking this pool: live members in reverse
/// drain order (the longest-surviving — cheapest, then most loaded —
/// first), then warming members oldest-spawn-first (shrink cancels the
/// newest first), then the slot types future spawns would occupy. The
/// declared provisioning order alone is wrong here: the shrink pass
/// drains the *costliest* members first, so after any scale-down the
/// surviving fleet differs from the first-n slots.
pub fn candidate_perf_scales<T: FleetMember>(
    members: &[T],
    slots: &[GpuType],
    max_candidates: usize,
) -> Vec<f64> {
    // Live members, most-survivable first: the reverse of the drain
    // order's (cost desc, load asc, index asc) key.
    let mut live: Vec<usize> = members
        .iter()
        .enumerate()
        .filter(|(_, m)| m.core().is_live())
        .map(|(i, _)| i)
        .collect();
    live.sort_by(|&a, &b| {
        members[a]
            .core()
            .gpu
            .cost_weight
            .total_cmp(&members[b].core().gpu.cost_weight)
            .then_with(|| members[b].load_signal().cmp(&members[a].load_signal()))
            .then_with(|| b.cmp(&a))
    });
    // Warming members survive any live member's drain but are cancelled
    // newest-first, so the oldest (lowest index) is the most survivable.
    let warming = members
        .iter()
        .enumerate()
        .filter(|(_, m)| matches!(m.core().state, MemberState::Warming { .. }))
        .map(|(i, _)| i);
    let mut scales: Vec<f64> = live
        .into_iter()
        .chain(warming)
        .map(|i| members[i].core().gpu.perf_scale)
        .collect();
    let mut next_slot = provisioned_count(members);
    while scales.len() < max_candidates {
        scales.push(slot_gpu(slots, next_slot).perf_scale);
        next_slot += 1;
    }
    scales.truncate(max_candidates);
    scales
}

/// Shrinks one pool toward `target` members: cancels the newest warming
/// members first (they have served nothing), then marks live victims as
/// draining — preferring the highest `cost_weight`, then the lowest
/// [`FleetMember::load_signal`], then the lowest index — and never takes
/// the pool below one live member, so the router always has a target.
/// Returns the indices newly marked draining; the caller runs its
/// pool-specific idle-stop check on them.
pub fn shrink_pool<T: FleetMember>(members: &mut [T], target: usize, now: SimTime) -> Vec<usize> {
    let (live, warming) = pool_counts(members);
    let mut excess = (live + warming).saturating_sub(target);
    for i in (0..members.len()).rev() {
        if excess == 0 {
            break;
        }
        if matches!(members[i].core().state, MemberState::Warming { .. }) {
            members[i].core_mut().stop(now);
            excess -= 1;
        }
    }
    let mut drained = Vec::new();
    // Draining a victim is the only live-count change in this loop, so
    // the count carries across iterations instead of being recounted.
    let mut live_count = members.iter().filter(|m| m.core().is_live()).count();
    while excess > 0 {
        if live_count <= 1 {
            break; // never leave the router without a target
        }
        let Some(victim) = drain_victim(members) else {
            break;
        };
        members[victim].core_mut().state = MemberState::Draining;
        live_count -= 1;
        drained.push(victim);
        excess -= 1;
    }
    drained
}

/// The live member the shrink pass drains next: highest GPU cost first
/// (release expensive capacity as soon as cheap capacity suffices), then
/// lowest load (it empties soonest), then lowest index. For a homogeneous
/// fleet this reduces to the classic least-loaded-first victim.
pub(crate) fn drain_victim<T: FleetMember>(members: &[T]) -> Option<usize> {
    members
        .iter()
        .enumerate()
        .filter(|(_, m)| m.core().is_live())
        .min_by(|(ia, a), (ib, b)| {
            b.core()
                .gpu
                .cost_weight
                .total_cmp(&a.core().gpu.cost_weight)
                .then_with(|| a.load_signal().cmp(&b.load_signal()))
                .then_with(|| ia.cmp(ib))
        })
        .map(|(i, _)| i)
}

/// Pending repurpose claims on one pool: claimed members that have not
/// stopped (flipped) yet. The claiming pool counts them as capacity it
/// has already ordered.
pub(crate) fn pending_claims<T: FleetMember>(members: &[T]) -> usize {
    members
        .iter()
        .filter(|m| m.core().claimed && m.core().stopped_at.is_none())
        .count()
}

/// Claims up to `need` draining, unclaimed members for the other pool,
/// least-loaded first (they flip soonest). Returns how many were claimed.
pub(crate) fn claim_drained<T: FleetMember>(members: &mut [T], need: usize) -> usize {
    let mut candidates: Vec<(u64, usize)> = members
        .iter()
        .enumerate()
        .filter(|(_, m)| m.core().state == MemberState::Draining && !m.core().claimed)
        .map(|(i, m)| (m.load_signal(), i))
        .collect();
    candidates.sort_unstable();
    let claimed = candidates.len().min(need);
    for &(_, i) in &candidates[..claimed] {
        members[i].core_mut().claimed = true;
    }
    claimed
}

/// Releases up to `excess` pending claims, highest index first. Returns
/// how many were released.
pub(crate) fn release_claims<T: FleetMember>(members: &mut [T], excess: usize) -> usize {
    let mut released = 0;
    for member in members.iter_mut().rev() {
        if released == excess {
            break;
        }
        let core = member.core_mut();
        if core.claimed && core.stopped_at.is_none() {
            core.claimed = false;
            released += 1;
        }
    }
    released
}

/// Step-latency oracle for one reference replica: the roofline
/// [`PerfModel`] with the deployment's KV capacity (which an override in
/// [`SimConfig`] may shrink below the hardware-derived value).
/// Heterogeneous slots scale it through the planner's per-slot perf
/// scales.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplicaModel {
    perf: PerfModel,
    capacity_tokens: u64,
}

impl StepLatency for ReplicaModel {
    fn prefill_secs(&self, prompt_tokens: u64) -> f64 {
        self.perf.prefill_step(prompt_tokens).as_secs_f64()
    }

    fn decode_secs(&self, batch_size: u64, kv_tokens: u64) -> f64 {
        self.perf.decode_step(batch_size, kv_tokens).as_secs_f64()
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.capacity_tokens
    }
}

/// The autoscaling planner of one pool.
pub(crate) type PoolPlanner = AutoscalePlanner<ReplicaModel>;

/// Builds the planner of a pool of `base` replicas in `role` (the caller
/// has run [`check_autoscale`]). A heterogeneous pool sets its candidate
/// slot scales before every plan (`Pool::plan_round`).
pub(crate) fn pool_planner(
    autoscale: AutoscaleConfig,
    base: &SimConfig,
    role: PoolRole,
) -> PoolPlanner {
    let model = ReplicaModel {
        perf: base.perf_model(),
        capacity_tokens: base.capacity_tokens(),
    };
    AutoscalePlanner::new(autoscale, base.sla, model, role)
}

/// The member change a planning round asks its caller to make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resize {
    /// Keep the members as they are.
    Hold,
    /// Add this many members (spawned, or claimed from another pool).
    Grow(usize),
    /// Remove this many members (un-claimed, cancelled or drained).
    Shrink(usize),
}

/// One pool of a deployment: its members in spawn order (the index is
/// stable — members stop, they are never removed), its declared GPU mix,
/// the scaling decisions it took and its planner (`None` for a fixed
/// pool, which never plans).
pub(crate) struct Pool<M> {
    pub(crate) members: Vec<M>,
    /// Declared GPU mix (empty = homogeneous reference fleet).
    pub(crate) slots: Vec<GpuType>,
    /// Pool-size changes the planner made.
    pub(crate) events: Vec<ScalingEvent>,
    pub(crate) planner: Option<PoolPlanner>,
    /// The pool label of its members and scaling events.
    pub(crate) label: pf_obs::Pool,
}

impl<M: FleetMember> Pool<M> {
    pub(crate) fn new(
        label: pf_obs::Pool,
        slots: Vec<GpuType>,
        planner: Option<PoolPlanner>,
    ) -> Self {
        Pool {
            members: Vec::new(),
            slots,
            events: Vec::new(),
            planner,
            label,
        }
    }

    /// The GPU the next spawn runs on: the slot at its rank among the
    /// currently provisioned members, so a pool of n instances always
    /// runs on (approximately) the first n slots of the declared mix.
    pub(crate) fn next_gpu(&self) -> GpuType {
        slot_gpu(&self.slots, provisioned_count(&self.members))
    }

    /// `(live, provisioned)` member counts: the routing candidates, and
    /// everything still costing GPU time.
    pub(crate) fn sizes(&self) -> (usize, usize) {
        (
            pool_counts(&self.members).0,
            provisioned_count(&self.members),
        )
    }

    /// One planning round at `at`: refreshes the planner's candidate
    /// slot scales from the members each size would keep, plans against
    /// the live members and the warming ones plus `claimed` (members of
    /// another pool this one has claimed but not received yet), logs any
    /// size change and emits it as a [`TraceEvent::ScaleUp`] or
    /// [`TraceEvent::ScaleDown`], and returns the member change for the
    /// caller to apply. `None` when the pool has no planner or nothing
    /// left to steer (horizon pressure stopped every member).
    pub(crate) fn plan_round(
        &mut self,
        at: SimTime,
        claimed: usize,
        sink: &mut Option<&mut dyn TraceSink>,
    ) -> Option<Resize> {
        let planner = self.planner.as_mut()?;
        let (live, warming) = pool_counts(&self.members);
        let warming = warming + claimed;
        let effective = live + warming;
        if effective == 0 {
            return None;
        }
        if !self.slots.is_empty() {
            // Drains remove the costliest members first, so the surviving
            // fleet can differ from the declared slot order (claimed
            // members are approximated by the slots they would otherwise
            // have spawned into).
            let max = planner.config().policy.max_replicas;
            planner.update_slot_perf_scales(candidate_perf_scales(&self.members, &self.slots, max));
        }
        let decision = planner.plan(at, live, warming).decision;
        let (pool, from, to) = (self.label, effective, decision.target_or(effective));
        if to != from {
            let event = if to > from {
                TraceEvent::ScaleUp { at, pool, from, to }
            } else {
                TraceEvent::ScaleDown { at, pool, from, to }
            };
            emit(sink, event);
            self.events.push(ScalingEvent { at, pool, from, to });
        }
        Some(match decision {
            ScalingDecision::ScaleUp { target } if target > effective => {
                Resize::Grow(target - effective)
            }
            ScalingDecision::ScaleDown { target } if target < effective => {
                Resize::Shrink(effective - target)
            }
            _ => Resize::Hold,
        })
    }

    /// Shrinks the pool's own members by `excess` through the shared
    /// [`shrink_pool`] pass, returning the members newly marked draining.
    pub(crate) fn shrink_by(&mut self, excess: usize, now: SimTime) -> Vec<usize> {
        let (live, warming) = pool_counts(&self.members);
        shrink_pool(
            &mut self.members,
            (live + warming).saturating_sub(excess),
            now,
        )
    }
}

/// Smallest cached overlap (tokens) for which
/// [`crate::cluster::RouterPolicy::PrefixAffinity`] prefers the matching
/// instance over the least-loaded one. Below this the prefill saving is
/// smaller than the imbalance it can cause.
pub const PREFIX_MATCH_MIN_TOKENS: u64 = 32;

/// The one deadline verdict for a queued request in an engine's queue:
/// [`TraceEvent::TimedOut`] once it
/// has waited its whole `deadline` (the guillotine),
/// [`TraceEvent::SlackDropped`] while still inside it but with less slack
/// left than `min_feasible` — the fastest path to its next token, which
/// only [`crate::config::QueueOrder::LeastSlackFirst`] callers make
/// non-zero — and `None` while it can still make it. Either event means
/// the caller cancels the request.
pub(crate) fn expiry(
    now: SimTime,
    arrival: SimTime,
    deadline: SimDuration,
    min_feasible: SimDuration,
    instance: u32,
    request: u64,
) -> Option<TraceEvent> {
    let waited = now.saturating_since(arrival);
    if waited >= deadline {
        Some(TraceEvent::TimedOut {
            at: now,
            instance,
            request,
        })
    } else if waited + min_feasible >= deadline {
        Some(TraceEvent::SlackDropped {
            at: now,
            instance,
            request,
        })
    } else {
        None
    }
}

/// The least-slack-first ranking key shared by every queue in the crate:
/// entries past the aging cap first, oldest first (the starvation bound);
/// then ascending remaining slack `deadline − waited` (saturating — an
/// already-expired entry ranks most urgent); deadline-less entries last,
/// oldest first. [`rank_by_slack`] puts preempted work (group 0) ahead.
pub(crate) fn slack_rank_key(
    now: SimTime,
    arrival: SimTime,
    deadline: Option<SimDuration>,
    aging_cap: SimDuration,
) -> (u8, u64) {
    let waited = now.saturating_since(arrival);
    if waited >= aging_cap {
        return (1, arrival.as_micros());
    }
    match deadline {
        Some(deadline) => (2, (deadline - waited).as_micros()),
        None => (3, arrival.as_micros()),
    }
}

/// Sorts `queue` least-slack-first: preempted mid-response work first,
/// oldest first, then the [`slack_rank_key`] groups. `entry` reads an
/// item's `(preempted, arrival, effective deadline)`. The sort is
/// stable, so equal keys keep their queue order and re-ranking an
/// already ranked queue leaves it unchanged.
pub(crate) fn rank_by_slack<T>(
    queue: &mut VecDeque<T>,
    now: SimTime,
    aging_cap: SimDuration,
    entry: impl Fn(&T) -> (bool, SimTime, Option<SimDuration>),
) {
    queue.make_contiguous().sort_by_key(|item| {
        let (preempted, arrival, deadline) = entry(item);
        if preempted {
            return (0, arrival.as_micros());
        }
        slack_rank_key(now, arrival, deadline, aging_cap)
    });
}

/// Fair-share weight of one KV stream on the shared transfer link,
/// grouped exactly like [`slack_rank_key`]: streams aged past the cap
/// weigh 2.0 (the starvation bound dominates), deadlined streams weigh
/// `1 + 1/(1 + slack_secs)` (up to 2.0 as slack vanishes), deadline-free
/// streams weigh 1.0. Weights are bounded in `[1, 2]`, so no stream is
/// ever starved of link bandwidth — urgency at most doubles a share.
pub(crate) fn slack_share_weight(
    now: SimTime,
    arrival: SimTime,
    deadline: Option<SimDuration>,
    aging_cap: SimDuration,
) -> f64 {
    let waited = now.saturating_since(arrival);
    if waited >= aging_cap {
        return 2.0;
    }
    match deadline {
        Some(deadline) => 1.0 + 1.0 / (1.0 + (deadline - waited).as_secs_f64()),
        None => 1.0,
    }
}

/// Weight of the queue's deadline-slack pressure in the load signal of
/// the overlap policies ([`crate::cluster::RouterPolicy::PrefixAffinity`]
/// and [`crate::cluster::RouterPolicy::KvOverlap`]): each
/// unit of pressure (one queued request at zero remaining slack) counts
/// like this fraction of an instance's capacity in load. Urgent queues
/// therefore look *fuller* to the affinity tie-break and receive less new
/// traffic, giving their tight-deadline work room to drain. Zero pressure
/// (any deadline-free run) leaves every routing decision bit-identical to
/// the pre-slack behavior.
pub const SLACK_PRESSURE_WEIGHT: f64 = 0.05;

/// Tunables of the routing layer shared by every fleet driver (coloc
/// cluster, elastic fleet, disagg pools).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RouterConfig {
    /// Propagation delay between an engine persisting/evicting a KV block
    /// and the global [`pf_kvcache::KvIndexer`] reflecting it. Zero (the
    /// default) models an ideal in-process index; raise it to study how
    /// stale overlap scores degrade the overlap policies,
    /// [`crate::cluster::RouterPolicy::PrefixAffinity`] and
    /// [`crate::cluster::RouterPolicy::KvOverlap`], which both read that
    /// one index.
    pub kv_event_delay: SimDuration,
}

/// Deterministic uniform stream for softmax routing draws (SplitMix64).
///
/// The routing layer cannot share the workload generators' `StdRng`
/// streams (consuming from them would perturb arrivals), and `pf-sim`
/// deliberately keeps its own randomness dependency-free: SplitMix64 is
/// stable across platforms and cheap, and one `u64` of state replays
/// bit-for-bit from the config seed.
#[derive(Debug, Clone)]
pub(crate) struct RouteRng(u64);

/// `derive_seed` stream index of the router's softmax draws — distinct
/// from every workload stream so adding KV-overlap routing never perturbs
/// arrivals or lengths.
pub(crate) const ROUTE_RNG_STREAM: u64 = 0x524F_5554; // "ROUT"

impl RouteRng {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next uniform draw in `[0, 1)` with 53 bits of precision.
    pub(crate) fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The routing layer's state, owned by each fleet run and built in one
/// place ([`Routing::new`]) from the policy and the fleet's base config:
/// the policy, the rotating tie-break cursor and the reusable candidate
/// buffer, plus what only the overlap policies read — the global
/// event-fed KV index, the softmax stream and the routed request's
/// chained block hashes.
pub(crate) struct Routing {
    pub(crate) policy: RouterPolicy,
    /// Rotating tie-break cursor (see [`pick_rotating_min`]).
    cursor: usize,
    /// Reusable per-arrival candidate buffer.
    scratch: Vec<RouteCandidate>,
    /// Whether the policy reads cached overlap
    /// ([`RouterPolicy::PrefixAffinity`] or [`RouterPolicy::KvOverlap`])
    /// and the fleet has a prefix cache — only then do members publish KV
    /// events into `indexer`.
    pub(crate) kv_routing: bool,
    /// Global event-fed KV index; members publish under the same index
    /// the router scores them by.
    pub(crate) indexer: KvIndexer,
    /// Dedicated softmax stream (never the workload's generators).
    rng: RouteRng,
    /// Chained block hashes of the request being routed.
    chain: Vec<u64>,
    /// Block size of the members' prefix stores (0 = no prefix cache).
    block_tokens: u32,
}

impl Routing {
    /// The routing state of a fleet of `base` replicas under `policy`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidRouterPolicy`] when the policy cannot run on
    /// the fleet.
    pub(crate) fn new(policy: RouterPolicy, base: &SimConfig) -> Result<Self, SimError> {
        policy.check(base.prefix_cache)?;
        let reads_overlap = matches!(
            policy,
            RouterPolicy::PrefixAffinity { .. } | RouterPolicy::KvOverlap { .. }
        );
        Ok(Routing {
            policy,
            cursor: 0,
            scratch: Vec::new(),
            kv_routing: reads_overlap && base.prefix_cache.is_some(),
            indexer: KvIndexer::new(base.router.kv_event_delay.as_micros()),
            rng: RouteRng::new(pf_workload::rng::derive_seed(base.seed, ROUTE_RNG_STREAM)),
            chain: Vec::new(),
            block_tokens: base.prefix_cache.map_or(0, |p| p.block_size()),
        })
    }

    /// Routes `spec` at `now` among `candidates`, `(index, load)` pairs of
    /// a fleet of `n` members. Under `kv_routing` the index first applies
    /// every stored event older than the propagation delay, the request's
    /// chained block hashes (system prompt, then conversation prefix,
    /// then prompt tail — exactly what a block store could hold for it)
    /// are computed once, and each candidate is credited with the overlap
    /// the index shows for it; otherwise every overlap is 0.
    /// [`RouterPolicy::KvOverlap`] then picks through its cost logit,
    /// every other policy through [`pick_routed`].
    pub(crate) fn route(
        &mut self,
        now: SimTime,
        spec: &RequestSpec,
        n: usize,
        candidates: impl Iterator<Item = (usize, f64)>,
    ) -> Option<usize> {
        self.chain.clear();
        if self.kv_routing {
            self.indexer.advance(now.as_micros());
            let mut parent = pf_kvcache::KV_ROOT_HASH;
            for content in spec.matchable_blocks(self.block_tokens) {
                parent = pf_kvcache::block_hash(parent, content);
                self.chain.push(parent);
            }
        }
        let (indexer, chain) = (&self.indexer, &self.chain);
        self.scratch.clear();
        self.scratch
            .extend(candidates.map(|(index, load)| RouteCandidate {
                index,
                load,
                cached_match: indexer.overlap(index as u32, chain),
            }));
        let RouterPolicy::KvOverlap {
            overlap_weight,
            temperature,
        } = self.policy
        else {
            return pick_routed(self.policy, &self.scratch, &mut self.cursor, n);
        };
        let prompt = f64::from(spec.input_len.max(1));
        pick_cost_logit(
            &self.scratch,
            |c| c.load - overlap_weight * (c.cached_match as f64 / prompt),
            temperature,
            &mut self.cursor,
            n,
            &mut self.rng,
        )
    }
}

/// Selects among `candidates` by the given cost function: `temperature <=
/// 0` degrades to the deterministic [`pick_rotating_min`] argmin (and
/// consumes **no** randomness, so a zero-temperature run replays
/// bit-identically to the argmin policies); a positive temperature samples
/// candidate `c` with probability `exp(-(cost(c) - min_cost) /
/// temperature)` (normalized), using exactly one uniform draw and walking
/// the cumulative weights in candidate order. The cursor is only touched
/// on the argmin path.
fn pick_cost_logit(
    candidates: &[RouteCandidate],
    cost: impl Fn(&RouteCandidate) -> f64,
    temperature: f64,
    cursor: &mut usize,
    n: usize,
    rng: &mut RouteRng,
) -> Option<usize> {
    if temperature <= 0.0 {
        return pick_rotating_min(candidates.iter().map(|c| (c.index, cost(c))), cursor, n);
    }
    let min = candidates.iter().map(&cost).fold(f64::INFINITY, f64::min);
    let weight = |c: &RouteCandidate| (-(cost(c) - min) / temperature).exp();
    let total: f64 = candidates.iter().map(&weight).sum();
    let last = candidates.last()?.index;
    let mut draw = rng.next_f64() * total;
    for c in candidates {
        let w = weight(c);
        if draw < w {
            return Some(c.index);
        }
        draw -= w;
    }
    // Floating-point remainder after the walk: charge it to the last
    // candidate so the draw always lands.
    Some(last)
}

/// Index minimizing `key` among `candidates`, breaking *exact* key ties by
/// the first candidate at or after `*cursor` (mod `n`), then advancing the
/// cursor just past the winner. The rotation spreads equal-load picks
/// across the fleet instead of piling them onto the lowest index.
pub(crate) fn pick_rotating_min(
    candidates: impl Iterator<Item = (usize, f64)>,
    cursor: &mut usize,
    n: usize,
) -> Option<usize> {
    let n = n.max(1);
    let start = *cursor % n;
    let mut best: Option<(usize, f64, usize)> = None;
    for (i, key) in candidates {
        let rank = (i + n - start) % n;
        let better = match &best {
            None => true,
            Some((_, best_key, best_rank)) => match key.total_cmp(best_key) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => rank < *best_rank,
                std::cmp::Ordering::Greater => false,
            },
        };
        if better {
            best = Some((i, key, rank));
        }
    }
    best.map(|(i, _, _)| {
        *cursor = (i + 1) % n;
        i
    })
}

/// One routable candidate: fleet index, load under the active policy's
/// signal (already divided by the member's `perf_scale`, so a fast GPU
/// looks emptier than a slow one at equal queued work), and cached prefix
/// overlap with the request being routed.
pub(crate) struct RouteCandidate {
    pub(crate) index: usize,
    pub(crate) load: f64,
    pub(crate) cached_match: u64,
}

/// The dispatch of every policy but [`crate::cluster::RouterPolicy::KvOverlap`]
/// (which [`Routing::route`] sends through its cost logit):
/// [`crate::cluster::RouterPolicy::RoundRobin`] rotates,
/// [`crate::cluster::RouterPolicy::PrefixAffinity`] takes the longest
/// cached match at or above [`PREFIX_MATCH_MIN_TOKENS`] (ties by load or
/// rotation), and everything else routes by the candidate's load, all
/// exact ties broken by the rotating cursor. `n` is the full fleet size.
fn pick_routed(
    policy: crate::cluster::RouterPolicy,
    candidates: &[RouteCandidate],
    cursor: &mut usize,
    n: usize,
) -> Option<usize> {
    use crate::cluster::RouterPolicy;
    let by_load = |c: &RouteCandidate| (c.index, c.load);
    match policy {
        RouterPolicy::RoundRobin => {
            pick_rotating_min(candidates.iter().map(|c| (c.index, 0.0)), cursor, n)
        }
        RouterPolicy::LeastOutstanding
        | RouterPolicy::LeastUsedMemory
        | RouterPolicy::LeastEstimatedLoad
        | RouterPolicy::KvOverlap { .. } => {
            pick_rotating_min(candidates.iter().map(by_load), cursor, n)
        }
        RouterPolicy::PrefixAffinity { load_tiebreak } => {
            let best_match = candidates.iter().map(|c| c.cached_match).max().unwrap_or(0);
            if best_match >= PREFIX_MATCH_MIN_TOKENS {
                let matched = candidates.iter().filter(|c| c.cached_match == best_match);
                if load_tiebreak {
                    pick_rotating_min(matched.map(by_load), cursor, n)
                } else {
                    pick_rotating_min(matched.map(|c| (c.index, 0.0)), cursor, n)
                }
            } else {
                pick_rotating_min(candidates.iter().map(by_load), cursor, n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        core: MemberCore,
        load: u64,
    }

    impl FleetMember for Toy {
        fn core(&self) -> &MemberCore {
            &self.core
        }

        fn core_mut(&mut self) -> &mut MemberCore {
            &mut self.core
        }

        fn load_signal(&self) -> u64 {
            self.load
        }
    }

    fn live(load: u64, gpu: GpuType) -> Toy {
        Toy {
            core: MemberCore::spawn(SimTime::ZERO, SimDuration::ZERO, gpu),
            load,
        }
    }

    fn warming(at_s: u64) -> Toy {
        Toy {
            core: MemberCore::spawn(SimTime::ZERO, SimDuration::from_secs(at_s), GpuType::big()),
            load: 0,
        }
    }

    #[test]
    fn spawn_state_depends_on_warmup() {
        let cold = MemberCore::spawn(SimTime::ZERO, SimDuration::from_secs(5), GpuType::big());
        assert!(matches!(cold.state, MemberState::Warming { ready_at } if
            ready_at == SimTime::from_secs(5)));
        let hot = MemberCore::spawn(SimTime::ZERO, SimDuration::ZERO, GpuType::big());
        assert!(hot.is_live());
    }

    #[test]
    fn shrink_cancels_newest_warming_first() {
        let mut pool = vec![live(3, GpuType::big()), warming(5), warming(9)];
        let drained = shrink_pool(&mut pool, 1, SimTime::from_secs(1));
        assert!(
            drained.is_empty(),
            "warming cancellation covered the excess"
        );
        assert_eq!(pool[0].core.state, MemberState::Live);
        assert_eq!(pool[1].core.state, MemberState::Stopped);
        assert_eq!(pool[2].core.state, MemberState::Stopped);
        assert_eq!(pool[1].core.stopped_at, Some(SimTime::from_secs(1)));
    }

    #[test]
    fn shrink_prefers_costly_then_idle_victims() {
        let mut pool = vec![
            live(0, GpuType::small()),
            live(50, GpuType::big()),
            live(10, GpuType::big()),
        ];
        let drained = shrink_pool(&mut pool, 1, SimTime::ZERO);
        // Both big members outrank the idle small one; among them the
        // less-loaded drains first.
        assert_eq!(drained, vec![2, 1]);
        assert_eq!(pool[0].core.state, MemberState::Live);
    }

    #[test]
    fn homogeneous_shrink_is_least_loaded_first() {
        let mut pool = vec![
            live(7, GpuType::big()),
            live(2, GpuType::big()),
            live(2, GpuType::big()),
        ];
        let drained = shrink_pool(&mut pool, 1, SimTime::ZERO);
        assert_eq!(drained, vec![1, 2], "load then index ties");
    }

    #[test]
    fn shrink_never_empties_the_pool() {
        let mut pool = vec![live(1, GpuType::big()), live(2, GpuType::big())];
        let drained = shrink_pool(&mut pool, 0, SimTime::ZERO);
        assert_eq!(drained.len(), 1);
        assert_eq!(pool.iter().filter(|m| m.core.is_live()).count(), 1);
    }

    #[test]
    fn candidate_scales_track_drain_survivors_not_slot_order() {
        // Slots declare big-first, but the shrink pass drains big members
        // first — so small candidate fleets are the *mid* members.
        let slots = [
            GpuType::big(),
            GpuType::big(),
            GpuType::mid(),
            GpuType::mid(),
        ];
        let pool = vec![
            live(10, GpuType::big()),
            live(20, GpuType::big()),
            live(30, GpuType::mid()),
            live(40, GpuType::mid()),
        ];
        let scales = candidate_perf_scales(&pool, &slots, 4);
        let mid = GpuType::mid().perf_scale;
        // Survivors of shrinking to 1/2: the mids (cheapest, most loaded
        // last); only candidates of 3+ include a big member.
        assert_eq!(scales[0], mid);
        assert_eq!(scales[1], mid);
        assert_eq!(scales[2], 1.0);
        assert_eq!(scales[3], 1.0);
        // After the bigs drain away, candidates re-grow from future slots.
        let survivors = vec![live(30, GpuType::mid()), live(40, GpuType::mid())];
        let scales = candidate_perf_scales(&survivors, &slots, 4);
        assert_eq!(scales, vec![mid, mid, mid, mid]);
    }

    #[test]
    fn candidate_scales_prefer_live_over_warming_and_pad_from_slots() {
        let slots = [GpuType::big(), GpuType::mid()];
        let pool = vec![warming(5), live(0, GpuType::big())];
        let scales = candidate_perf_scales(&pool, &slots, 4);
        // The live member survives everything; the warming member is next;
        // future spawns occupy slot 2+ (repeating the last declared type).
        assert_eq!(scales[0], 1.0);
        assert_eq!(scales[1], 1.0);
        assert_eq!(scales[2], GpuType::mid().perf_scale);
        assert_eq!(scales[3], GpuType::mid().perf_scale);
    }

    #[test]
    fn counts_split_live_warming_and_provisioned() {
        let pool = vec![live(0, GpuType::big()), warming(3), warming(7)];
        assert_eq!(pool_counts(&pool), (1, 2));
        assert_eq!(provisioned_count(&pool), 3);
    }

    fn draining(load: u64) -> Toy {
        let mut toy = live(load, GpuType::big());
        toy.core.state = MemberState::Draining;
        toy
    }

    fn claimed(pool: &[Toy]) -> Vec<usize> {
        (0..pool.len()).filter(|&i| pool[i].core.claimed).collect()
    }

    #[test]
    fn claim_drained_takes_least_loaded_draining_members_only() {
        let mut pool = vec![
            live(0, GpuType::big()),
            draining(30),
            draining(10),
            warming(5),
            draining(20),
        ];
        pool[4].core.claimed = true;
        // Member 4 is already claimed and the live/warming ones are never
        // candidates: only 2 then 1 remain, least-loaded first.
        assert_eq!(claim_drained(&mut pool, 1), 1);
        assert_eq!(claimed(&pool), vec![2, 4]);
        assert_eq!(claim_drained(&mut pool, 5), 1, "only member 1 was left");
        assert_eq!(claimed(&pool), vec![1, 2, 4]);
        assert_eq!(claim_drained(&mut pool, 5), 0);
    }

    #[test]
    fn release_claims_goes_newest_first_and_stops_at_the_excess() {
        let mut pool = vec![
            draining(0),
            draining(0),
            live(0, GpuType::big()),
            draining(0),
        ];
        for i in [0, 1, 3] {
            pool[i].core.claimed = true;
        }
        assert_eq!(release_claims(&mut pool, 2), 2);
        assert_eq!(claimed(&pool), vec![0], "the two highest indices go");
        assert_eq!(release_claims(&mut pool, 4), 1, "only one claim was left");
        assert!(claimed(&pool).is_empty());
    }

    #[test]
    fn stopped_members_are_never_pending_claims() {
        let mut pool = vec![draining(0), draining(0)];
        pool[0].core.claimed = true;
        pool[1].core.claimed = true;
        assert_eq!(pending_claims(&pool), 2);
        pool[0].core.stop(SimTime::from_secs(3));
        assert_eq!(pending_claims(&pool), 1);
        // A stopped member's stale flag is not a claim to release either.
        assert_eq!(release_claims(&mut pool, 2), 1);
        assert_eq!(pending_claims(&pool), 0);
    }

    /// The name of `expiry`'s verdict for a request that has waited
    /// `waited_ms` of a `deadline_ms` deadline, checking the event is
    /// stamped now, on instance 3, for request 7.
    fn verdict(waited_ms: u64, deadline_ms: u64, min_feasible_ms: u64) -> Option<&'static str> {
        let arrival = SimTime::from_secs(10);
        let now = arrival + SimDuration::from_millis(waited_ms);
        let event = expiry(
            now,
            arrival,
            SimDuration::from_millis(deadline_ms),
            SimDuration::from_millis(min_feasible_ms),
            3,
            7,
        )?;
        assert_eq!(
            (event.at(), event.instance(), event.request()),
            (now, Some(3), Some(7))
        );
        Some(event.name())
    }

    #[test]
    fn expiry_times_out_once_the_whole_deadline_is_waited() {
        assert_eq!(verdict(500, 500, 0), Some("timed-out"));
        // Past the deadline outright is a timeout, never a slack drop.
        assert_eq!(verdict(600, 500, 200), Some("timed-out"));
    }

    #[test]
    fn expiry_drops_early_when_the_fastest_path_lands_on_the_deadline() {
        assert_eq!(verdict(300, 500, 200), Some("slack-dropped"));
        assert_eq!(verdict(300, 500, 199), None);
    }

    #[test]
    fn expiry_without_a_feasibility_bound_never_drops_early() {
        assert_eq!(verdict(499, 500, 0), None);
        assert_eq!(verdict(0, 500, 0), None);
    }

    #[test]
    fn rank_by_slack_orders_preempted_aged_slack_then_deadline_less() {
        let secs = SimTime::from_secs;
        let dur = SimDuration::from_secs;
        // (label, preempted, arrival, deadline), ranked at t = 100 s with a
        // 30 s aging cap.
        let mut queue: VecDeque<(&str, bool, SimTime, Option<SimDuration>)> = VecDeque::from([
            ("lax", false, secs(90), Some(dur(60))),
            ("fresh", false, secs(95), None),
            ("tight", false, secs(98), Some(dur(5))),
            ("aged", false, secs(60), None),
            ("resumed-late", true, secs(99), Some(dur(1))),
            ("tight-twin", false, secs(96), Some(dur(7))),
            ("waiting", false, secs(80), None),
            ("resumed-early", true, secs(50), None),
        ]);
        let entry = |e: &(&str, bool, SimTime, Option<SimDuration>)| (e.1, e.2, e.3);
        rank_at_100s(&mut queue, entry);
        let order: Vec<&str> = queue.iter().map(|e| e.0).collect();
        // Preempted oldest first, then the aged entry, then ascending
        // slack — "tight" and "tight-twin" both have 3 s left and keep
        // their queue order — then deadline-less oldest first.
        let ranked = [
            "resumed-early",
            "resumed-late",
            "aged",
            "tight",
            "tight-twin",
            "lax",
            "waiting",
            "fresh",
        ];
        assert_eq!(order, ranked);
        // Re-ranking a ranked queue is the identity.
        rank_at_100s(&mut queue, entry);
        let order: Vec<&str> = queue.iter().map(|e| e.0).collect();
        assert_eq!(order, ranked);
    }

    #[test]
    fn rank_by_slack_keeps_queue_order_among_equal_keys() {
        // Alternating 1 s / 2 s of slack, each entry tagged with its queue
        // position: long enough that an unstable sort would reorder ties.
        let mut queue: VecDeque<(usize, SimTime, Option<SimDuration>)> = (0..96)
            .map(|i| {
                let arrival = SimTime::from_secs(90 + i as u64 % 4);
                let waited = SimTime::from_secs(100).saturating_since(arrival);
                let slack = SimDuration::from_secs(1 + (i as u64 % 2));
                (i, arrival, Some(waited + slack))
            })
            .collect();
        rank_at_100s(&mut queue, |e| (false, e.1, e.2));
        let order: Vec<usize> = queue.iter().map(|e| e.0).collect();
        let evens = (0..96).step_by(2);
        let odds = (1..96).step_by(2);
        assert_eq!(order, evens.chain(odds).collect::<Vec<_>>());
    }

    fn rank_at_100s<T>(
        queue: &mut VecDeque<T>,
        entry: impl Fn(&T) -> (bool, SimTime, Option<SimDuration>),
    ) {
        rank_by_slack(
            queue,
            SimTime::from_secs(100),
            SimDuration::from_secs(30),
            entry,
        );
    }

    #[test]
    #[should_panic(expected = "invalid cost weight")]
    fn zero_cost_weight_panics() {
        let _ = GpuType::new("bad", 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid perf scale")]
    fn negative_perf_scale_panics() {
        let _ = GpuType::new("bad", 1.0, -1.0);
    }
}
