//! The continuous-batching serving engine.
//!
//! A discrete-event reimplementation of the LightLLM/vLLM serving loop:
//!
//! 1. take in the requests routed to it;
//! 2. ask the [`Scheduler`] how many queued requests to admit, allocate
//!    their prompts and run a prefill step (or start chunked prefill);
//! 3. otherwise run one decode step: every running request grows by one
//!    token; if the KV pool cannot hold the growth, evict the most recently
//!    admitted request (recompute preemption: it re-queues at the *front*
//!    keeping its generated tokens, and pays a full re-prefill on
//!    readmission);
//! 4. requests reaching their true output length finish, release memory and
//!    feed the scheduler's output-length history.
//!
//! Time advances by the roofline [`PerfModel`] step latencies; every token
//! emission is timestamped for SLA accounting. The engine also instruments
//! the *true* future required memory (Eq. 2–4 evaluated with ground-truth
//! lengths) at every step — the quantity reported in the paper's Figure 1
//! and Table 1, which exceeds 100% exactly when the current batch is
//! destined to run out of memory.
//!
//! # Queue discipline and deadlines
//!
//! A queued request moves through these states, ordered by the configured
//! [`QueueOrder`]:
//!
//! ```text
//!             take in                scheduler plan + KV alloc
//! inbox ─────────────▶ queue ════(QueueOrder ranks the queue)════▶ running
//!                      ▲  │                                          │
//!   preemption: evicted│  │ purge:                            finish │
//!   victims re-queue   │  │  · waited ≥ deadline (Fifo guillotine)   ▼
//!   (rank 0 — client   │  │  · slack < min feasible prefill     outcomes
//!   is mid-response)   │  │    (LeastSlackFirst early-drop)
//!                      │  ▼
//!              running └─ timed_out
//!
//! LeastSlackFirst ranking (stable within each group):
//!   [0] preempted (mid-response, resume first)
//!   [1] waited ≥ aging_cap, oldest first          (starvation bound)
//!   [2] remaining slack = deadline − waited, ascending
//!   [3] no effective deadline, oldest first
//! ```
//!
//! Under [`QueueOrder::Fifo`] deadlines act only as the guillotine: an
//! expired queued request — never-started *or* preempted-and-waiting — is
//! cancelled and counted `timed_out` (a queued entry holds no KV, so
//! cancellation frees exactly the queue slot). Under
//! [`QueueOrder::LeastSlackFirst`] admission additionally serves the
//! tightest remaining slack first and drops requests that can no longer
//! make their deadline even if admitted alone immediately. Both take the
//! shared [`crate::fleet`] expiry verdict and slack sort. The purge runs
//! once a deadline can fire (a deployment-wide default, or an ingested
//! request carrying its own), so deadline-less runs pay nothing per tick.
//!
//! # Handoffs
//!
//! Both disaggregated pools run this engine too. A prefill instance is an
//! engine in the prefill role ([`Engine::prefill_only`]). Each tick runs at
//! most one whole-prompt pass, of at most [`PREFILL_PASS_TOKENS`]
//! *computed* tokens (prefix-cache hits are not computed), and admits a
//! prompt only while the KV its requests hold plus the prompt and its
//! first token fit the pool: cached prefixes yield to prompts. When the
//! pass ends, a request that needs more tokens is handed out
//! ([`Engine::drain_handoffs`]): it leaves the batch and its prompt enters
//! the prefix store, but its KV stays held until the driver releases it
//! ([`Engine::release`]) as its transfer lands, so a slow link
//! backpressures admission. A request whose output is one token finishes
//! at the pass like any other.
//!
//! On the decode side, a handoff ([`Engine::hand_off`]) is a request
//! whose prompt was prefilled, and whose first token was emitted, on a
//! prefill instance. It queues like any request, but its admission
//! allocates its KV without a pass, it emits its next token at the next
//! decode step, no deadline cancels it, and least-slack-first ranks it by
//! its end-to-end slack.

use std::cell::Cell;
use std::collections::VecDeque;

use pf_core::{BatchEntry, MemoryState, PackedBatch, QueuedRequest, RunningRequest, Scheduler};
use pf_kvcache::{
    BlockPrefixCache, KvCacheError, KvCacheManager, KvEvent, KvPool, PrefixCacheStats,
};
use pf_metrics::{GoodputReport, RequestTiming, SimDuration, SimTime, StepSeries};
use pf_obs::{GaugeKind, TraceEvent, TraceSink};
use pf_workload::RequestSpec;

use crate::cluster::RouterPolicy;
use crate::config::{
    BatchingMode, EvictionMode, PrefillMode, QueueOrder, SimConfig, PREFILL_CHUNK_TOKENS,
    STATIC_MAX_BATCH,
};
use crate::disagg::PREFILL_PASS_TOKENS;
use crate::error::SimError;
use crate::fleet;
use crate::perf::PerfModel;
use crate::report::{RequestOutcome, SimReport};
use crate::slab::Slab;

/// How many queued requests are exposed to the scheduler per planning call.
/// The plan loop repeats while the scheduler admits the whole visible
/// window, so this is not an admission cap — only a cost bound.
const PLAN_WINDOW: usize = 256;

/// Reserved KV-pool request id under which the prefix cache's occupancy is
/// charged, so cached prefixes and request KV compete for the *same*
/// physical slots. Workload request ids are dense from zero and never
/// reach it.
const PREFIX_SENTINEL: u64 = u64::MAX;

/// How an admission brings a queued request's KV into the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Restore {
    /// A prefill pass computes the prompt and any generated tokens: fresh
    /// arrivals and recompute-preempted victims.
    Recompute,
    /// A PCIe transfer copies the KV back from host memory: swap-preempted
    /// victims.
    SwapIn,
    /// The KV already exists: a disaggregated handoff whose prompt was
    /// prefilled and whose first token was emitted on another instance
    /// ([`Engine::hand_off`]). Admission allocates it without a pass and
    /// the request resumes at the next decode step.
    Resident,
}

/// What an engine serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Whole requests (a colocated instance), or handoffs to decode (a
    /// disaggregated decode instance).
    Serve,
    /// Prompts only: a disaggregated prefill instance whose passes batch
    /// at most [`PREFILL_PASS_TOKENS`] computed prompt tokens (see
    /// "Handoffs").
    Prefill,
}

/// A request a prefill-role engine handed out at the end of its pass: its
/// prompt is prefilled and its first token recorded, and its KV stays
/// held on the engine until [`Engine::release`].
#[derive(Debug)]
pub(crate) struct Handoff {
    pub(crate) spec: RequestSpec,
    pub(crate) timing: RequestTiming,
}

#[derive(Debug)]
struct Pending {
    /// Handle into the engine's spec slab — queue rotations and slack
    /// re-sorts move this `u32`, not the full [`RequestSpec`].
    spec: u32,
    generated: u32,
    timing: RequestTiming,
    evictions: u32,
    restore: Restore,
}

impl Pending {
    /// Whether this is a preemption victim waiting to resume: its client
    /// is mid-response, so least-slack-first serves it first. A handoff
    /// also streamed its first token, but it ranks by its slack.
    fn preempted(&self) -> bool {
        match self.restore {
            Restore::Recompute => self.generated > 0,
            Restore::SwapIn => true,
            Restore::Resident => false,
        }
    }
}

#[derive(Debug)]
struct Live {
    /// Handle into the engine's spec slab.
    spec: u32,
    generated: u32,
    timing: RequestTiming,
    evictions: u32,
    /// Prompt tokens still to process (chunked prefill only).
    prefill_remaining: u64,
    /// The first post-(re)admission token is pre-paid by the admission
    /// allocation and consumes no extra KV slot.
    first_token_pending: bool,
    /// How this admission restored the KV: a swap-in's "prefill" is a
    /// PCIe transfer, and a resident handoff has no pass at all.
    restore: Restore,
    /// Prompt tokens served from the prefix cache at this admission: the
    /// prefill pass skips them (KV accounting is unchanged — the request
    /// still holds its full footprint).
    cached_prefix: u64,
}

/// Outcome of one engine tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tick {
    /// The engine performed a prefill or decode step (clock advanced).
    Worked,
    /// Requests are queued but nothing can run without external input:
    /// the fleet driver stalls the run ([`SimError::Stalled`]), unless a
    /// prefill engine waits for its held KV to be released.
    Blocked,
    /// All work drained.
    Drained,
}

/// A static batch's padding ([`Engine::static_tick`]): every sequence is
/// padded to the longest prompt, `max_in`, and reserves `max_in +
/// max_cap` tokens; `decoded` counts the batch's decode steps so far.
#[derive(Debug, Default, Clone, Copy)]
struct Padding {
    max_in: u64,
    max_cap: u64,
    decoded: u64,
}

/// The serving engine, a member of a fleet driver's pool.
pub(crate) struct Engine {
    perf: PerfModel,
    capacity: u64,
    kv: KvPool,
    scheduler: Box<dyn Scheduler>,
    needs_oracle: bool,
    config: SimConfig,
    role: Role,
    /// Id stamped into emitted trace events (the fleet driver assigns one
    /// per spawned member, from 0).
    instance: u32,

    now: SimTime,
    /// Requests routed here (arrival, `specs` handle), in routing (and so
    /// arrival) order, until the next tick takes them in.
    inbox: Vec<(SimTime, u32)>,
    queue: VecDeque<Pending>,
    /// The running batch; under static batching, the batch in flight.
    running: Vec<Live>,
    /// The static batch's padding while one is in flight.
    padding: Padding,
    /// Requests handed out by the last prefill-role pass, until the
    /// driver drains them.
    handoffs: Vec<Handoff>,
    /// Handed-out requests whose KV is still held here.
    held: usize,
    /// Backing store for every routed request's spec; inbox, `Pending` and
    /// `Live` entries carry slab handles.
    specs: Slab<RequestSpec>,
    /// Simulated prefix store (disabled unless configured): matches are
    /// block *runs* (crossing conversations via shared system prompts),
    /// eviction is suffix-granular, and it emits [`KvEvent`]s for the
    /// global router index. Its occupancy is mirrored into `kv` under
    /// [`PREFIX_SENTINEL`].
    prefix: Option<BlockPrefixCache>,
    /// `(time, event)` log of block store/evict events, appended by the
    /// per-tick flush and drained by the fleet driver into the global
    /// [`pf_kvcache::KvIndexer`]. Only populated after
    /// [`Engine::enable_kv_event_log`] — a run whose router reads no KV
    /// index has no consumer and must not accumulate an unbounded log.
    kv_events: Vec<(SimTime, KvEvent)>,
    log_kv_events: bool,
    /// Reusable drain buffer for the per-tick event flush.
    scratch_kv_events: Vec<KvEvent>,

    // Reusable per-tick buffers: the steady-state loop builds scheduler
    // views and estimator batches in place instead of allocating.
    scratch_running: Vec<RunningRequest>,
    scratch_queue: Vec<QueuedRequest>,
    /// Estimator batch for [`Engine::true_future_required_frac`]; a
    /// `Cell` so the `&self` router probe can borrow it too.
    scratch_entries: Cell<PackedBatch>,
    scratch_ids: Vec<u64>,
    /// The running batch's true M* (in tokens), kept across decode steps
    /// that advance every member in lockstep — each Eq. 3 term is
    /// invariant under such a step. Cleared on every membership change
    /// and after any step where some member did not advance in lockstep;
    /// a `Cell` so the `&self` router probe can fill it.
    true_peak: Cell<Option<u64>>,

    decode_steps: u64,
    prefill_steps: u64,
    evictions: u64,
    timed_out: usize,
    /// Set once a request carrying its own deadline is ingested: from
    /// then on (or from the start, under a deployment-wide default) the
    /// purge and the slack-pressure probe scan the queue.
    deadlines: bool,
    outcomes: Vec<RequestOutcome>,
    /// Outcomes moved out by [`Engine::drain_outcomes`] (still completed
    /// here).
    drained: usize,

    output_len_sum: u64,
    output_len_count: u64,
    consumed_weighted_sum: f64,
    weighted_time: f64,
    future_required_sum: f64,
    future_required_samples: u64,
    peak_consumed_frac: f64,
    consumed_series: StepSeries,
    future_required_series: StepSeries,
    queue_series: StepSeries,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("running", &self.running.len())
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    pub(crate) fn new(config: SimConfig) -> Self {
        let perf = config.perf_model();
        let capacity = config.capacity_tokens();
        let kv = config.build_kv_manager();
        let mut scheduler = config.scheduler.build(config.seed);
        for &len in &config.history_warmup {
            scheduler.on_request_finished(len);
        }
        let needs_oracle = config.scheduler.needs_oracle();
        // Seed the router-facing mean-output estimate from the warmup
        // history, mirroring a service whose statistics are already warm.
        let output_len_sum: u64 = config.history_warmup.iter().map(|&l| u64::from(l)).sum();
        let output_len_count = config.history_warmup.len() as u64;
        // Static batches reserve their padded worst case and reuse nothing.
        let prefix = (config.prefix_cache)
            .filter(|_| config.batching == BatchingMode::Continuous)
            .map(|spec| BlockPrefixCache::new(spec.budget_tokens(capacity), spec.block_size()));
        Engine {
            perf,
            capacity,
            kv,
            scheduler,
            needs_oracle,
            config,
            role: Role::Serve,
            instance: 0,
            now: SimTime::ZERO,
            inbox: Vec::new(),
            queue: VecDeque::new(),
            running: Vec::new(),
            padding: Padding::default(),
            handoffs: Vec::new(),
            held: 0,
            specs: Slab::new(),
            prefix,
            kv_events: Vec::new(),
            log_kv_events: false,
            scratch_kv_events: Vec::new(),
            scratch_running: Vec::new(),
            scratch_queue: Vec::new(),
            scratch_entries: Cell::new(PackedBatch::default()),
            scratch_ids: Vec::new(),
            true_peak: Cell::new(None),
            output_len_sum,
            output_len_count,
            decode_steps: 0,
            prefill_steps: 0,
            evictions: 0,
            timed_out: 0,
            deadlines: false,
            outcomes: Vec::new(),
            drained: 0,
            consumed_weighted_sum: 0.0,
            weighted_time: 0.0,
            future_required_sum: 0.0,
            future_required_samples: 0,
            peak_consumed_frac: 0.0,
            consumed_series: StepSeries::new(),
            future_required_series: StepSeries::new(),
            queue_series: StepSeries::new(),
        }
    }

    /// Executes at most one engine action (admission-plus-prefill or one
    /// decode step) with an optional trace sink; with `None` every
    /// emission site reduces to a branch on an empty option, so the
    /// untraced path stays allocation-free and bit-identical. This is the
    /// one entry point of the fleet driver, which interleaves every
    /// engine of a run (a [`crate::Simulation`]'s one, or a fleet's
    /// members) on one global clock. Any KV-block events the tick
    /// produced are flushed afterwards — to the sink as
    /// [`TraceEvent::KvStored`]/[`TraceEvent::KvRemoved`], and to the
    /// driver-facing log when enabled.
    pub(crate) fn tick_traced(
        &mut self,
        sink: &mut Option<&mut dyn TraceSink>,
    ) -> Result<Tick, SimError> {
        let tick = self.tick_inner(sink)?;
        self.flush_kv_events(sink);
        Ok(tick)
    }

    fn tick_inner(&mut self, sink: &mut Option<&mut dyn TraceSink>) -> Result<Tick, SimError> {
        if matches!(self.config.batching, BatchingMode::Static) {
            return Ok(self.static_tick(sink));
        }
        self.take_inbox(sink);
        if self.try_admission(sink) {
            return Ok(Tick::Worked);
        }
        if !self.running.is_empty() {
            self.step(sink)?;
            return Ok(Tick::Worked);
        }
        // Idle: nothing running, nothing admissible.
        Ok(if self.queue.is_empty() {
            Tick::Drained
        } else {
            Tick::Blocked
        })
    }

    /// Current simulated time of this engine.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the idle engine's clock (the fleet driver's only).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `to` precedes the current time.
    pub(crate) fn advance_to(&mut self, to: SimTime) {
        debug_assert!(to >= self.now, "engine time went backwards");
        self.now = self.now.max(to);
    }

    /// Sets the instance id stamped into emitted trace events (clusters
    /// assign one id per spawned member).
    pub(crate) fn set_instance(&mut self, instance: u32) {
        self.instance = instance;
    }

    /// Starts accumulating the `(time, event)` KV-block event log for a
    /// fleet driver to drain (see [`Engine::drain_kv_events`]). Off by
    /// default so a run that reads no KV index never grows an unconsumed
    /// log.
    pub(crate) fn enable_kv_event_log(&mut self) {
        self.log_kv_events = true;
    }

    /// Moves the accumulated KV-block events (in emission order, stamped
    /// with the engine clock at flush time) into `out`.
    pub(crate) fn drain_kv_events(&mut self, out: &mut Vec<(SimTime, KvEvent)>) {
        out.append(&mut self.kv_events);
    }

    /// Drains the prefix store's pending events, mirroring each to the
    /// trace sink and — when enabled — the driver-facing log.
    fn flush_kv_events(&mut self, sink: &mut Option<&mut dyn TraceSink>) {
        let Some(store) = self.prefix.as_mut() else {
            return;
        };
        if store.pending_events() == 0 {
            return;
        }
        self.scratch_kv_events.clear();
        store.drain_events(&mut self.scratch_kv_events);
        let at = self.now;
        let instance = self.instance;
        for &ev in &self.scratch_kv_events {
            fleet::emit(sink, kv_trace_event(at, instance, ev));
            if self.log_kv_events {
                self.kv_events.push((at, ev));
            }
        }
    }

    /// Routes a request arriving at `at`, in time order and by the next
    /// tick, here: it waits in the inbox until that tick takes it in.
    pub(crate) fn inject(&mut self, at: SimTime, spec: RequestSpec) {
        let spec = self.specs.insert(spec);
        self.inbox.push((at, spec));
    }

    /// Queues a disaggregated handoff landing at `at` (an idle engine's
    /// clock catches up to it): a request whose prompt was prefilled, and
    /// whose first token its timing recorded, on a prefill instance, with
    /// its KV now resident here. It waits for admission like any queued
    /// request but no deadline cancels it. Its admission allocates the KV
    /// plus the next token's slot and runs no pass, and it emits that
    /// token at the next decode step.
    pub(crate) fn hand_off(&mut self, at: SimTime, handoff: Handoff) {
        let Handoff { spec, timing } = handoff;
        let generated = u32::try_from(timing.n_tokens()).expect("token count fits u32");
        debug_assert!(generated > 0, "a handoff carries its first token");
        self.now = self.now.max(at);
        self.deadlines |= spec.deadline.is_some();
        let spec = self.specs.insert(spec);
        self.queue.push_back(Pending {
            spec,
            generated,
            timing,
            evictions: 0,
            restore: Restore::Resident,
        });
    }

    /// Makes this a disaggregated prefill instance (see "Handoffs").
    pub(crate) fn prefill_only(&mut self) {
        self.role = Role::Prefill;
    }

    /// Moves out the requests the last pass handed out (prefill role).
    pub(crate) fn drain_handoffs(&mut self) -> std::vec::Drain<'_, Handoff> {
        self.handoffs.drain(..)
    }

    /// Frees the KV a handed-out request held here (prefill role): its
    /// transfer landed.
    pub(crate) fn release(&mut self, request: u64) {
        self.kv.release(request);
        self.held -= 1;
    }

    /// KV held by requests: the pool's use less the prefix store's.
    fn held_tokens(&self) -> u64 {
        let cached = self
            .prefix
            .as_ref()
            .map_or(0, BlockPrefixCache::used_tokens);
        self.kv.used_tokens().saturating_sub(cached)
    }

    /// KV held by requests plus what each queued or routed request holds
    /// once admitted (`input_len + generated`): the disaggregated pools'
    /// routing signal and every fleet's drain and claim signal
    /// ([`crate::fleet::FleetMember::load_signal`]). A server knows all of
    /// it; none of it is ground truth.
    pub(crate) fn resident_load(&self) -> u64 {
        let queued: u64 = self
            .queue
            .iter()
            .map(|p| u64::from(self.specs[p.spec].input_len) + u64::from(p.generated))
            .sum();
        let routed: u64 = (self.inbox.iter())
            .map(|&(_, spec)| u64::from(self.specs[spec].input_len))
            .sum();
        self.held_tokens() + queued + routed
    }

    /// Id stamped into emitted trace events.
    pub(crate) fn instance(&self) -> u32 {
        self.instance
    }

    /// Queued requests cancelled by their deadline so far.
    pub(crate) fn timed_out(&self) -> usize {
        self.timed_out
    }

    /// Requests in flight, waiting, already routed to this engine but not
    /// yet taken in (the router must see its own recent decisions, or a
    /// burst of arrivals herds onto one instance), or handed out with
    /// their KV still held here.
    pub(crate) fn outstanding(&self) -> usize {
        self.running.len() + self.queue.len() + self.inbox.len() + self.held
    }

    /// Fraction of KV capacity physically in use right now.
    pub(crate) fn used_frac(&self) -> f64 {
        self.kv.used_tokens() as f64 / self.capacity as f64
    }

    /// Load estimate for routing: the running batch's future required
    /// memory (Eq. 2–4 on ground truth) plus the expected footprint of the
    /// queue (prompt + mean historical output), as a fraction of capacity.
    /// This is the signal the paper's future-work section proposes for
    /// forwarding requests to under-utilized instances.
    pub(crate) fn load_estimate(&self) -> f64 {
        let mean_output = if self.output_len_count == 0 {
            256.0
        } else {
            self.output_len_sum as f64 / self.output_len_count as f64
        };
        let queued_tokens: f64 = self
            .queue
            .iter()
            .map(|p| f64::from(self.specs[p.spec].input_len) + f64::from(p.generated) + mean_output)
            .chain(
                // Routed requests not yet taken in count too.
                (self.inbox.iter())
                    .map(|&(_, spec)| f64::from(self.specs[spec].input_len) + mean_output),
            )
            .sum();
        self.true_future_required_frac() + queued_tokens / self.capacity as f64
    }

    /// This instance's load under `policy`'s routing signal, divided by
    /// its GPU's `perf_scale` so a fast GPU looks emptier than a slow one
    /// at equal queued work (1.0 everywhere reproduces the homogeneous
    /// dispatch bit-for-bit). [`RouterPolicy::LeastUsedMemory`] is *not*
    /// scaled: it measures KV headroom, and `GpuType` models speed and
    /// price, not memory. The overlap policies add the queue's
    /// deadline-slack pressure (weighted by
    /// [`crate::fleet::SLACK_PRESSURE_WEIGHT`]; zero for deadline-free
    /// runs) to the paper's §7 estimate, so urgent queues look fuller and
    /// get room to drain. Each policy evaluates only the signal it routes
    /// on: [`Engine::load_estimate`] walks the queue, the running batch
    /// and the inbox, so the cheap policies must not pay for it.
    ///
    /// A prefill instance scores every policy by [`Engine::resident_load`]
    /// (its requests leave with their first token, so no output estimate
    /// applies), the overlap policies adding the slack pressure in tokens
    /// of capacity.
    pub(crate) fn route_load(&self, policy: RouterPolicy, perf_scale: f64) -> f64 {
        if self.role == Role::Prefill {
            let mut load = self.resident_load() as f64;
            if matches!(
                policy,
                RouterPolicy::PrefixAffinity { .. } | RouterPolicy::KvOverlap { .. }
            ) {
                load += fleet::SLACK_PRESSURE_WEIGHT
                    * self.capacity as f64
                    * self.queue_slack_pressure();
            }
            return load / perf_scale;
        }
        match policy {
            RouterPolicy::RoundRobin => 0.0,
            RouterPolicy::LeastOutstanding => self.outstanding() as f64 / perf_scale,
            RouterPolicy::LeastUsedMemory => self.used_frac(),
            RouterPolicy::LeastEstimatedLoad => self.load_estimate() / perf_scale,
            RouterPolicy::PrefixAffinity { .. } | RouterPolicy::KvOverlap { .. } => {
                let pressure = fleet::SLACK_PRESSURE_WEIGHT * self.queue_slack_pressure();
                (self.load_estimate() + pressure) / perf_scale
            }
        }
    }

    /// Validates one request upfront against this engine (the fleet driver
    /// checks every request against each initial member). With a prefix
    /// cache, request id `u64::MAX` is [`SimError::InvalidWorkload`]: that
    /// id is reserved for the cache's pool charge, and letting it through
    /// would silently corrupt the KV accounting. A prefill-role engine
    /// also rejects a prompt larger than its pass budget
    /// ([`SimError::RequestTooLarge`] with the budget as the capacity).
    pub(crate) fn validate_spec(&self, spec: &RequestSpec) -> Result<(), SimError> {
        // A prompt is prefilled in one pass.
        if self.role == Role::Prefill && u64::from(spec.input_len) > PREFILL_PASS_TOKENS {
            return Err(SimError::RequestTooLarge {
                id: spec.id.raw(),
                needed: u64::from(spec.input_len),
                capacity: PREFILL_PASS_TOKENS,
            });
        }
        if self.prefix.is_some() && spec.id.raw() == PREFIX_SENTINEL {
            return Err(SimError::InvalidWorkload {
                reason: "request id u64::MAX is reserved for the prefix cache",
            });
        }
        let contiguous = matches!(self.config.kv_layout, crate::config::KvLayout::Contiguous);
        let static_mode = matches!(self.config.batching, BatchingMode::Static);
        let needed = if contiguous || static_mode {
            u64::from(spec.input_len) + u64::from(spec.max_new_tokens)
        } else {
            u64::from(spec.true_total_len())
        };
        if needed > self.capacity {
            return Err(SimError::RequestTooLarge {
                id: spec.id.raw(),
                needed,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Completed-request outcomes so far. The fleet driver reads these
    /// incrementally (by index) when a step ends, to feed observed output
    /// lengths and TTFT/TPOT into the autoscaling planner and a
    /// disaggregated run's ledger.
    pub(crate) fn outcomes(&self) -> &[RequestOutcome] {
        &self.outcomes
    }

    /// Moves out the outcomes completed since the last drain, for a driver
    /// that keeps its own ledger (a disaggregated run). The engine's own
    /// report then no longer holds them, but still counts them completed.
    pub(crate) fn drain_outcomes(&mut self) -> std::vec::Drain<'_, RequestOutcome> {
        self.drained += self.outcomes.len();
        self.outcomes.drain(..)
    }

    /// The prefix store's statistics (`None` without a store).
    pub(crate) fn prefix_stats(&self) -> Option<PrefixCacheStats> {
        self.prefix.as_ref().map(BlockPrefixCache::stats)
    }

    /// Rejects an engine with no KV capacity before its first event.
    pub(crate) fn check_capacity(&self) -> Result<(), SimError> {
        if self.capacity == 0 {
            return Err(SimError::NoKvCapacity { capacity: 0 });
        }
        Ok(())
    }

    /// Re-charges the pool's sentinel allocation to the cache's current
    /// occupancy, shrinking the cache when the pool cannot hold it (block
    /// rounding can make a paged pool stricter than the token budget).
    fn sync_prefix_charge(&mut self) {
        let Some(cache) = self.prefix.as_mut() else {
            return;
        };
        self.kv.release(PREFIX_SENTINEL);
        loop {
            let occ = cache.used_tokens();
            if occ == 0 {
                return;
            }
            if self.kv.allocate(PREFIX_SENTINEL, occ, occ).is_ok() {
                return;
            }
            let free = self.kv.available_tokens();
            cache.evict_down_to(free.min(occ - 1));
        }
    }

    /// Frees at least `needed` cached-prefix tokens (LRU first) if the
    /// cache holds any, returning whether anything was reclaimed. Cached
    /// prefixes are always reclaimed before live work is refused or
    /// evicted: a cache entry is a bet on future savings, a request is
    /// work already accepted.
    fn reclaim_prefix_tokens(&mut self, needed: u64) -> bool {
        let Some(cache) = self.prefix.as_mut() else {
            return false;
        };
        let occ = cache.used_tokens();
        if occ == 0 {
            return false;
        }
        cache.evict_down_to(occ.saturating_sub(needed));
        self.sync_prefix_charge();
        true
    }

    /// Consumes the admission-time prefix hit for `pending`: the cached
    /// overlap in tokens, refreshing the entry's recency and counting
    /// lookup/hit statistics.
    fn prefix_lookup(&mut self, pending: &Pending) -> u64 {
        let spec = &self.specs[pending.spec];
        self.prefix
            .as_mut()
            .map_or(0, |store| lookup_prefix(store, spec))
    }

    /// Retains a finished request's conversation KV in the prefix store as
    /// a chain of fixed-size blocks, so the session's next turn can skip
    /// re-prefilling it. A chain the pool cannot charge is cut short by
    /// `sync_prefix_charge`, which trims leaves: the conversation keeps
    /// its leading blocks instead of thrashing the store.
    fn cache_finished_prefix(&mut self, spec: &RequestSpec, generated: u32) {
        let Some(store) = self.prefix.as_mut() else {
            return;
        };
        let before = store.used_tokens();
        store_prefix(store, spec, generated);
        if store.used_tokens() != before {
            self.sync_prefix_charge();
        }
    }

    /// Queues every routed request at its arrival, then purges the queue.
    fn take_inbox(&mut self, sink: &mut Option<&mut dyn TraceSink>) {
        for (at, spec) in self.inbox.drain(..) {
            debug_assert!(at <= self.now, "taken in before its arrival");
            let routed = &self.specs[spec];
            self.deadlines |= routed.deadline.is_some();
            fleet::emit(
                sink,
                TraceEvent::Enqueued {
                    at,
                    instance: self.instance,
                    request: routed.id.raw(),
                },
            );
            self.queue.push_back(Pending {
                spec,
                generated: 0,
                timing: RequestTiming::new(at),
                evictions: 0,
                restore: Restore::Recompute,
            });
        }
        self.purge_timed_out(sink);
    }

    /// Cancels queued requests whose deadline has expired: the queue slot
    /// is reclaimed and the request counts as timed out. This covers both
    /// never-started arrivals and preempted requests waiting for
    /// readmission — a preempted request past its deadline must not be
    /// silently re-served as if it had made it (the client gave up at the
    /// deadline either way), and a queued entry holds no KV, so
    /// cancellation frees exactly the queue slot. Under
    /// [`QueueOrder::LeastSlackFirst`] a request whose remaining slack is
    /// below the minimum feasible prefill time is dropped *early*: even
    /// admitted alone right now its (re-)prefill would land past the
    /// deadline, so admitting it would burn a prefill pass and KV on a
    /// guaranteed miss. The verdict is [`fleet::expiry`].
    fn purge_timed_out(&mut self, sink: &mut Option<&mut dyn TraceSink>) {
        let default_deadline = self.config.request_deadline;
        if default_deadline.is_none() && !self.deadlines {
            return;
        }
        let now = self.now;
        let slack_aware = self.config.queue_order.is_slack_aware();
        let perf = self.perf;
        let prefix = &self.prefix;
        let specs = &self.specs;
        let instance = self.instance;
        let mut removed: Vec<u32> = Vec::new();
        self.queue.retain(|p| {
            let spec = &specs[p.spec];
            // A handoff streamed its first token on the prefill instance:
            // the client is mid-response, so it is never cancelled.
            if p.restore == Restore::Resident {
                return true;
            }
            let Some(deadline) = spec.deadline.or(default_deadline) else {
                return true;
            };
            // The fastest possible path to a (first or resumed) token: a
            // dedicated prefill pass over everything this admission must
            // process, minus the current prefix-cache overlap (admission
            // skips cached tokens — a near-fully-cached prompt is feasible
            // far later than its raw length suggests). Swap restores are
            // transfer-bound, not compute-bound; never early-drop those.
            let min_feasible = if slack_aware && p.restore == Restore::Recompute {
                let tokens = u64::from(spec.input_len) + u64::from(p.generated);
                let cached = prefix.as_ref().map_or(0, |store| peek_prefix(store, spec));
                perf.prefill_step(tokens.saturating_sub(cached).max(1))
            } else {
                SimDuration::ZERO
            };
            let (arrival, request) = (p.timing.arrival(), spec.id.raw());
            let verdict = fleet::expiry(now, arrival, deadline, min_feasible, instance, request);
            let Some(event) = verdict else {
                return true;
            };
            fleet::emit(sink, event);
            removed.push(p.spec);
            false
        });
        self.timed_out += removed.len();
        for idx in removed {
            self.specs.remove(idx);
        }
    }

    /// Router-facing urgency signal: the sum over queued requests with an
    /// effective deadline of `1 / (1 + slack_secs)`. Zero for
    /// deadline-free queues; grows as deadlines accumulate or tighten.
    /// The overlap policies' load ([`Engine::route_load`]) adds this
    /// (weighted by [`crate::fleet::SLACK_PRESSURE_WEIGHT`]) so urgent
    /// queues receive less new traffic and get room to drain.
    pub(crate) fn queue_slack_pressure(&self) -> f64 {
        let default_deadline = self.config.request_deadline;
        if default_deadline.is_none() && !self.deadlines {
            return 0.0;
        }
        self.queue
            .iter()
            .filter_map(|p| {
                let deadline = self.specs[p.spec].deadline.or(default_deadline)?;
                Some(slack_urgency(self.now, p.timing.arrival(), deadline))
            })
            .sum()
    }

    /// The scheduler's view of the pool. A prefill instance's cached
    /// prefixes yield to prompts, so its view leaves them out.
    fn memory_state(&self) -> MemoryState {
        MemoryState {
            capacity_tokens: self.capacity,
            used_tokens: match self.role {
                Role::Serve => self.kv.used_tokens(),
                Role::Prefill => self.held_tokens(),
            },
        }
    }

    /// Ranks the queue by the configured [`QueueOrder`] (a stable sort, so
    /// equal keys keep their queue order).
    fn rank_queue(&mut self) {
        let now = self.now;
        let specs = &self.specs;
        match self.config.queue_order {
            QueueOrder::Fifo => {}
            QueueOrder::LeastSlackFirst { aging_cap } => {
                let default_deadline = self.config.request_deadline;
                fleet::rank_by_slack(&mut self.queue, now, aging_cap, |p| {
                    let deadline = specs[p.spec].deadline.or(default_deadline);
                    (p.preempted(), p.timing.arrival(), deadline)
                });
            }
            // Preempted work first, then requests past the aging cap,
            // oldest first, then ascending prompt length.
            QueueOrder::ShortestPromptFirst { aging_cap } => {
                self.queue.make_contiguous().sort_by_key(|p| {
                    let arrival = p.timing.arrival();
                    if p.preempted() {
                        (0, arrival.as_micros())
                    } else if now.saturating_since(arrival) >= aging_cap {
                        (1, arrival.as_micros())
                    } else {
                        (2, u64::from(specs[p.spec].input_len))
                    }
                });
            }
        }
    }

    /// Rebuilds `scratch_running` with the scheduler's view of the
    /// running batch.
    fn fill_running_views(&mut self) {
        self.scratch_running.clear();
        for l in &self.running {
            let spec = &self.specs[l.spec];
            debug_assert!(
                spec.true_output_len >= l.generated,
                "request {} generated past its true output length",
                spec.id.raw()
            );
            self.scratch_running.push(RunningRequest {
                id: spec.id.raw(),
                input_len: spec.input_len,
                generated: l.generated,
                max_new_tokens: spec.max_new_tokens,
                oracle_remaining: self
                    .needs_oracle
                    .then(|| spec.true_output_len.saturating_sub(l.generated)),
            });
        }
    }

    /// Admits queue-front requests per the scheduler's plan. In
    /// [`PrefillMode::WholePrompt`] an admission runs the prefill step
    /// immediately (advancing the clock); in chunked mode prompts are
    /// processed incrementally by subsequent steps. The configured
    /// [`QueueOrder`] decides which requests sit at the front (under
    /// [`QueueOrder::LeastSlackFirst`], the ones closest to their
    /// deadline). Returns whether an admission needs a pass (a prefill or
    /// swap-in, whole or chunked): a round that admits only handoffs
    /// leaves the tick to the decode step. A prefill instance admits one
    /// pass (see "Handoffs").
    fn try_admission(&mut self, sink: &mut Option<&mut dyn TraceSink>) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        self.rank_queue();
        // Handle discipline: every slab slot is owned by exactly one inbox,
        // queue or batch entry.
        debug_assert_eq!(
            self.specs.len(),
            self.queue.len() + self.running.len() + self.inbox.len()
        );
        let prefill_role = self.role == Role::Prefill;
        // Computed tokens of the prefill-role pass so far.
        let mut pass_tokens = 0u64;
        let mut pass_full = false;
        let mut passes_total = 0usize;
        loop {
            let window = PLAN_WINDOW.min(self.queue.len());
            if window == 0 {
                break;
            }
            self.scratch_queue.clear();
            for p in self.queue.iter().take(window) {
                let spec = &self.specs[p.spec];
                debug_assert!(
                    spec.true_output_len >= p.generated,
                    "request {} generated past its true output length",
                    spec.id.raw()
                );
                // Schedulers model an admission as emitting one token at
                // once, as a prefill does. A handoff emits its next token
                // at the next decode step instead, from the slot its
                // admission pre-pays, so it is shown one token earlier:
                // its modelled entry is then its state at that step.
                let generated = p.generated - u32::from(p.restore == Restore::Resident);
                self.scratch_queue.push(QueuedRequest {
                    id: spec.id.raw(),
                    input_len: spec.input_len,
                    generated,
                    max_new_tokens: spec.max_new_tokens,
                    oracle_remaining: self
                        .needs_oracle
                        .then(|| spec.true_output_len.saturating_sub(generated)),
                });
            }
            self.fill_running_views();
            let memory = self.memory_state();
            let plan = self
                .scheduler
                .plan_admission(&self.scratch_running, &self.scratch_queue, &memory)
                .min(window);
            if plan == 0 {
                // Schedulers gate admission on used memory, which counts
                // cached prefixes. With an empty batch, a refusal means
                // the *cache* is what blocks the queue — give entries
                // back until the scheduler admits or the cache is empty.
                // (Refusal with a live batch is ordinary backpressure and
                // resolves as requests finish; draining the cache for it
                // would forfeit hits for no admission gain. A prefill
                // instance's view leaves the cache out already.)
                let cache_blocks = !prefill_role && self.running.is_empty();
                if cache_blocks && self.reclaim_prefix_tokens(1) {
                    continue;
                }
                break;
            }
            let (mut admitted_now, mut passes_now) = (0usize, 0usize);
            'admit: for _ in 0..plan {
                let pending = self.queue.front().expect("plan within queue bounds");
                let spec = &self.specs[pending.spec];
                // Pre-pay the prompt plus the first output token's slot.
                let needed = u64::from(spec.input_len) + u64::from(pending.generated) + 1;
                let reserve_total = u64::from(spec.input_len) + u64::from(spec.max_new_tokens);
                let req = spec.id.raw();
                if prefill_role {
                    // The prompt must fit beside the held KV; cached
                    // prefixes are reclaimed below only once it does. The
                    // budget bounds computed tokens, decided on a
                    // pre-eviction probe: eviction can only shrink the
                    // match, so a probe that busts the budget busts it
                    // afterwards too, and a prompt that stops the pass
                    // must not have evicted cache entries first.
                    let cached = self
                        .prefix
                        .as_ref()
                        .map_or(0, |store| peek_prefix(store, spec));
                    let probe = u64::from(spec.input_len).saturating_sub(cached).max(1);
                    let started = passes_total + passes_now > 0;
                    if self.held_tokens() + needed > self.capacity
                        || (started && pass_tokens + probe > PREFILL_PASS_TOKENS)
                    {
                        pass_full = true;
                        break;
                    }
                }
                if self.kv.allocate(req, needed, reserve_total).is_err() {
                    // Reclaim cached prefixes, one LRU entry at a time,
                    // before refusing admission.
                    while !self.kv.can_admit(needed, reserve_total) {
                        if !self.reclaim_prefix_tokens(1) {
                            break 'admit;
                        }
                    }
                    if self.kv.allocate(req, needed, reserve_total).is_err() {
                        break;
                    }
                }
                let pending = self.queue.pop_front().expect("front exists");
                // Only a recompute pass can skip cached prefix tokens: a
                // swap-in restores the full KV wholesale, and a handoff's
                // KV is already here.
                let cached = match pending.restore {
                    Restore::Recompute => self.prefix_lookup(&pending),
                    Restore::SwapIn | Restore::Resident => 0,
                };
                let prefill_tokens =
                    u64::from(self.specs[pending.spec].input_len) + u64::from(pending.generated);
                if pending.restore != Restore::Resident {
                    passes_now += 1;
                    pass_tokens += prefill_tokens.saturating_sub(cached).max(1);
                    emit_prefill_start(sink, self.now, self.instance, req);
                }
                self.true_peak.set(None);
                self.running.push(Live {
                    spec: pending.spec,
                    generated: pending.generated,
                    timing: pending.timing,
                    evictions: pending.evictions,
                    prefill_remaining: match (self.config.prefill, pending.restore) {
                        // Even a full-prefix hit computes at least the last
                        // prompt position.
                        (PrefillMode::Chunked, Restore::Recompute) => {
                            prefill_tokens.saturating_sub(cached).max(1)
                        }
                        // A swap-in or a handoff restores the KV wholesale;
                        // it never goes through chunked prompt processing.
                        _ => 0,
                    },
                    first_token_pending: true,
                    restore: pending.restore,
                    cached_prefix: cached,
                });
                admitted_now += 1;
            }
            passes_total += passes_now;
            // Whole-prompt mode prefills each admission round immediately,
            // so the next planning round sees the post-prefill state (the
            // state the schedulers' future-memory entries model). A
            // prefill instance runs its one pass after the last round.
            let whole = matches!(self.config.prefill, PrefillMode::WholePrompt);
            if passes_now > 0 && whole && !prefill_role {
                self.prefill_step(admitted_now, sink);
            }
            if pass_full || admitted_now < plan || plan < window {
                break;
            }
        }
        if passes_total > 0 && prefill_role {
            self.prefill_step(passes_total, sink);
        }
        passes_total > 0
    }

    /// Dedicated prefill step over the `admitted` most recent batch entries
    /// (whole-prompt mode). Every admitted request but a handoff emits its
    /// first token at the end of the step; a handoff waits for the next
    /// decode step. A prefill instance hands out every request that needs
    /// more tokens.
    fn prefill_step(&mut self, admitted: usize, sink: &mut Option<&mut dyn TraceSink>) {
        let start = self.running.len() - admitted;
        let mut prompt_tokens = 0u64;
        let mut swapped_tokens = 0u64;
        for live in &self.running[start..] {
            let tokens = u64::from(self.specs[live.spec].input_len) + u64::from(live.generated);
            match live.restore {
                // Prefix-cache hits shrink the prefill to the uncached
                // suffix (at least one position: the final prompt token is
                // always computed).
                Restore::Recompute => {
                    prompt_tokens += tokens.saturating_sub(live.cached_prefix).max(1);
                }
                Restore::SwapIn => swapped_tokens += tokens,
                Restore::Resident => {}
            }
        }
        let mut duration = self.perf.prefill_step(prompt_tokens);
        if matches!(self.config.eviction, EvictionMode::Swap) {
            duration += self.perf.swap_transfer(swapped_tokens);
        }
        self.now += duration;
        self.prefill_steps += 1;
        self.record_step_metrics(duration, None, sink);
        let instance = self.instance;
        let mut i = start;
        while i < self.running.len() {
            let live = &mut self.running[i];
            if live.restore == Restore::Resident {
                i += 1;
                continue;
            }
            live.first_token_pending = false;
            live.generated += 1;
            let first_ever = live.timing.ttft().is_none();
            live.timing.record_token(self.now);
            let request = self.specs[live.spec].id.raw();
            emit_prefill_end(sink, self.now, instance, request, first_ever);
            if self.running[i].generated >= self.specs[self.running[i].spec].true_output_len {
                let live = self.running.remove(i);
                self.finish(live, sink);
            } else if self.role != Role::Serve {
                let live = self.running.remove(i);
                self.hand_out(live);
            } else {
                i += 1;
            }
        }
        // No M* invalidation beyond the admission pushes and finishes: an
        // emitting entry's first token was pre-paid (see `true_entry`),
        // so its Eq. 3 terms are unchanged, and no other member advanced.
    }

    /// One decode (or mixed chunked-prefill) step.
    fn step(&mut self, sink: &mut Option<&mut dyn TraceSink>) -> Result<(), SimError> {
        // Chunked prefill progress for this step.
        let mut chunk_tokens = 0u64;
        if matches!(self.config.prefill, PrefillMode::Chunked) {
            let mut left = PREFILL_CHUNK_TOKENS;
            for live in &mut self.running {
                if left == 0 {
                    break;
                }
                if live.prefill_remaining > 0 {
                    let take = live.prefill_remaining.min(left);
                    live.prefill_remaining -= take;
                    left -= take;
                    chunk_tokens += take;
                }
            }
        }
        // Grow every decoding request by one token in one pool call. While
        // the pool refuses, make room: reclaim cached prefixes first, then
        // evict the most recently admitted request (recompute preemption).
        let mut emitters;
        loop {
            self.scratch_ids.clear();
            emitters = 0u64;
            for l in &self.running {
                if l.prefill_remaining == 0 {
                    emitters += 1;
                    if !l.first_token_pending {
                        self.scratch_ids.push(self.specs[l.spec].id.raw());
                    }
                }
            }
            if self.scratch_ids.is_empty() {
                break;
            }
            let at = self.now;
            let error = match self.kv.extend_each(&self.scratch_ids) {
                Ok(()) => break,
                Err(error) => error,
            };
            // A refusal without a shortfall (a reservation outgrown) or an
            // unknown id is a bookkeeping bug, not a lack of room.
            let shortfall = match error {
                KvCacheError::Alloc(_) => self
                    .kv
                    .extension_shortfall(&self.scratch_ids)
                    .map_err(|error| SimError::KvCache { error, at })?,
                KvCacheError::UnknownRequest { .. } => 0,
            };
            if shortfall == 0 {
                return Err(SimError::KvCache { error, at });
            }
            if self.reclaim_prefix_tokens(shortfall) {
                continue;
            }
            if self.running.len() <= 1 {
                // Cannot happen for validated workloads: a lone request
                // always fits its own growth.
                return Err(SimError::Stalled {
                    queued: self.queue.len(),
                    at: self.now,
                });
            }
            self.evict_most_recent(sink);
        }
        // When every member grew from steady state (none mid-prefill, none
        // with a pending first token), this step leaves M* unchanged.
        let lockstep = self.scratch_ids.len() == self.running.len();
        // Idle cached prefixes occupy memory but no running request
        // attends to them: they must not be billed as attention KV in the
        // step's bandwidth term.
        let kv_tokens = self.kv.logical_tokens().saturating_sub(
            self.prefix
                .as_ref()
                .map_or(0, BlockPrefixCache::used_tokens),
        );
        let duration = if chunk_tokens > 0 {
            self.perf.mixed_step(chunk_tokens, emitters, kv_tokens)
        } else {
            self.perf.decode_step(emitters, kv_tokens)
        };
        self.now += duration;
        if emitters > 0 {
            self.decode_steps += 1;
            // One coalesced decode event per batch tick, not one per
            // token: the batch size carries the per-request fan-out.
            fleet::emit(
                sink,
                TraceEvent::DecodeStep {
                    at: self.now,
                    instance: self.instance,
                    batch: emitters as u32,
                },
            );
        }
        self.record_step_metrics(duration, None, sink);
        let instance = self.instance;
        // Emit tokens; finish completed requests.
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].prefill_remaining == 0 {
                let live = &mut self.running[i];
                let was_pending = live.first_token_pending;
                live.first_token_pending = false;
                live.generated += 1;
                let first_ever = live.timing.ttft().is_none();
                live.timing.record_token(self.now);
                // A chunked prefill that just drained emits its first
                // (or post-preemption resumed) token on this step; a
                // handoff's token ends no prefill.
                if was_pending && live.restore != Restore::Resident {
                    let request = self.specs[live.spec].id.raw();
                    emit_prefill_end(sink, self.now, instance, request, first_ever);
                }
                if self.running[i].generated >= self.specs[self.running[i].spec].true_output_len {
                    let live = self.running.remove(i);
                    self.finish(live, sink);
                    continue;
                }
            }
            i += 1;
        }
        // Cleared only now: the step's metrics were recorded before
        // emission, on the pre-step batch.
        if !lockstep {
            self.true_peak.set(None);
        }
        Ok(())
    }

    /// Hands a prefilled request out of a prefill instance: it leaves the
    /// batch, its KV stays held until [`Engine::release`], and its prompt
    /// and first token are retained in the prefix store.
    fn hand_out(&mut self, live: Live) {
        self.true_peak.set(None);
        let spec = self.specs.remove(live.spec);
        self.cache_finished_prefix(&spec, live.generated);
        self.held += 1;
        self.handoffs.push(Handoff {
            spec,
            timing: live.timing,
        });
    }

    fn evict_most_recent(&mut self, sink: &mut Option<&mut dyn TraceSink>) {
        let live = self.running.pop().expect("eviction from non-empty batch");
        self.true_peak.set(None);
        let spec = &self.specs[live.spec];
        let held = u64::from(spec.input_len) + u64::from(live.generated);
        let request = spec.id.raw();
        self.kv.release(request);
        self.evictions += 1;
        let restore = match self.config.eviction {
            EvictionMode::Recompute => Restore::Recompute,
            EvictionMode::Swap => {
                // The swap-out transfer stalls the engine before the step.
                self.now += self.perf.swap_transfer(held);
                Restore::SwapIn
            }
        };
        fleet::emit(
            sink,
            if restore == Restore::SwapIn {
                TraceEvent::Swapped {
                    at: self.now,
                    instance: self.instance,
                    request,
                }
            } else {
                TraceEvent::Preempted {
                    at: self.now,
                    instance: self.instance,
                    request,
                }
            },
        );
        self.queue.push_front(Pending {
            spec: live.spec,
            generated: live.generated,
            timing: live.timing,
            evictions: live.evictions + 1,
            restore,
        });
    }

    fn finish(&mut self, live: Live, sink: &mut Option<&mut dyn TraceSink>) {
        self.true_peak.set(None);
        let spec = self.specs.remove(live.spec);
        if sink.is_some() {
            let sla_ok = self.config.sla.evaluate(&live.timing).is_satisfied();
            fleet::emit(
                sink,
                TraceEvent::Finished {
                    at: self.now,
                    instance: self.instance,
                    request: spec.id.raw(),
                    sla_ok,
                },
            );
        }
        self.kv.release(spec.id.raw());
        // Retain the conversation KV as a cached prefix (the release above
        // freed the slots this re-charges under the cache sentinel).
        self.cache_finished_prefix(&spec, live.generated);
        self.scheduler.on_request_finished(live.generated);
        self.output_len_sum += u64::from(live.generated);
        self.output_len_count += 1;
        self.outcomes.push(RequestOutcome {
            id: spec.id.raw(),
            input_len: spec.input_len,
            output_len: live.generated,
            timing: live.timing,
            evictions: live.evictions,
        });
    }

    /// One running request's ground-truth future-memory entry. Requests
    /// whose admission prefill is in flight already hold the pre-paid slot
    /// for their first token.
    fn true_entry(spec: &RequestSpec, l: &Live) -> BatchEntry {
        debug_assert!(
            spec.true_output_len >= l.generated,
            "request {} generated past its true output length",
            spec.id.raw()
        );
        let prepaid = u64::from(l.first_token_pending);
        BatchEntry {
            committed: u64::from(spec.input_len) + u64::from(l.generated) + prepaid,
            remaining: u64::from(spec.true_output_len.saturating_sub(l.generated))
                .saturating_sub(prepaid),
        }
    }

    /// True future required memory of the current batch: Eq. 2–4 evaluated
    /// with ground-truth remaining lengths. Schedulers never see this; the
    /// per-step metrics and the router probe do.
    ///
    /// The value is served from `true_peak` while the batch has only
    /// advanced in lockstep since it was computed (see the field), so a
    /// steady decode phase evaluates Eq. 2–4 once, not once per step. On a
    /// miss it builds the batch in the reusable `scratch_entries` instead
    /// of allocating. Debug builds check every hit against a fresh
    /// evaluation.
    fn true_future_required_frac(&self) -> f64 {
        let peak = match self.true_peak.get() {
            Some(peak) => {
                debug_assert_eq!(peak, self.fresh_true_peak(), "stale cached true M*");
                peak
            }
            None => {
                let peak = self.fresh_true_peak();
                self.true_peak.set(Some(peak));
                peak
            }
        };
        peak as f64 / self.capacity as f64
    }

    /// Eq. 2–4 over the running batch's [`Self::true_entry`]s, uncached.
    fn fresh_true_peak(&self) -> u64 {
        let mut entries = self.scratch_entries.take();
        entries.fill(
            self.running
                .iter()
                .map(|l| Self::true_entry(&self.specs[l.spec], l)),
        );
        let peak = entries.peak();
        self.scratch_entries.set(entries);
        peak
    }

    /// Accumulates one step's memory metrics. A static batch passes its
    /// padded `reserved` tokens: static systems reserve the padded worst
    /// case for the whole batch, which is then both the consumed and the
    /// future-required memory, under no slack pressure.
    fn record_step_metrics(
        &mut self,
        duration: SimDuration,
        reserved: Option<u64>,
        sink: &mut Option<&mut dyn TraceSink>,
    ) {
        let used_frac =
            reserved.unwrap_or_else(|| self.kv.used_tokens()) as f64 / self.capacity as f64;
        let secs = duration.as_secs_f64();
        self.consumed_weighted_sum += used_frac * secs;
        self.weighted_time += secs;
        self.peak_consumed_frac = self.peak_consumed_frac.max(used_frac);
        let future_frac = reserved.map_or_else(|| self.true_future_required_frac(), |_| used_frac);
        self.future_required_sum += future_frac;
        self.future_required_samples += 1;
        if self.config.record_series {
            self.consumed_series.record(self.now, used_frac);
            self.future_required_series.record(self.now, future_frac);
            self.queue_series.record(self.now, self.queue.len() as f64);
        }
        if let Some(s) = sink {
            let (at, id) = (self.now, self.instance);
            s.gauge(at, id, GaugeKind::QueueDepth, self.queue.len() as f64);
            s.gauge(at, id, GaugeKind::KvOccupancy, used_frac);
            s.gauge(at, id, GaugeKind::BatchSize, self.running.len() as f64);
            let pressure = reserved.map_or_else(|| self.queue_slack_pressure(), |_| 0.0);
            s.gauge(at, id, GaugeKind::SlackPressure, pressure);
        }
    }

    /// Consumes the engine and produces its report.
    pub(crate) fn into_report(self) -> SimReport {
        let makespan = self.now - SimTime::ZERO;
        let requests = (self.outcomes.iter()).map(|o| (o.timing, u64::from(o.output_len)));
        let goodput = GoodputReport::compute_with_timeouts(
            &self.config.sla,
            requests,
            makespan,
            self.timed_out,
        );
        let unfinished = self.running.len() + self.queue.len() + self.inbox.len();
        let kv_used_tokens_end = self.kv.used_tokens();
        let prefix_stats = self.prefix_stats().unwrap_or_default();
        SimReport {
            scheduler_name: self.scheduler.name().to_string(),
            goodput,
            decode_steps: self.decode_steps,
            prefill_steps: self.prefill_steps,
            evictions: self.evictions,
            completed: self.drained + self.outcomes.len(),
            unfinished,
            timed_out: self.timed_out,
            makespan,
            capacity_tokens: self.capacity,
            avg_consumed_frac: if self.weighted_time > 0.0 {
                self.consumed_weighted_sum / self.weighted_time
            } else {
                0.0
            },
            avg_future_required_frac: if self.future_required_samples > 0 {
                self.future_required_sum / self.future_required_samples as f64
            } else {
                0.0
            },
            peak_consumed_frac: self.peak_consumed_frac,
            consumed_series: self.consumed_series,
            future_required_series: self.future_required_series,
            queue_series: self.queue_series,
            prefix_stats,
            prefix_cached_tokens: self
                .prefix
                .as_ref()
                .map_or(0, BlockPrefixCache::used_tokens),
            kv_used_tokens_end,
            outcomes: self.outcomes,
        }
    }

    /// One tick of [`BatchingMode::Static`], the pre-ORCA baseline. With no
    /// batch in flight it takes the inbox in, purges the queue, forms a
    /// batch from the queue front under the padded worst-case reservation
    /// and runs the padded prefill; otherwise it runs one padded decode
    /// step. The step that finishes the last sequence ends the batch
    /// (early finishers idle inside it: padding waste). `Blocked` only if
    /// the front request cannot fit alone, which validation rules out.
    fn static_tick(&mut self, sink: &mut Option<&mut dyn TraceSink>) -> Tick {
        let instance = self.instance;
        let prefill = self.running.is_empty();
        if prefill {
            self.take_inbox(sink);
            self.padding = Padding::default();
            while self.running.len() < STATIC_MAX_BATCH {
                let Some(front) = self.queue.front() else {
                    break;
                };
                let spec = &self.specs[front.spec];
                let max_in = self.padding.max_in.max(u64::from(spec.input_len));
                let max_cap = self.padding.max_cap.max(u64::from(spec.max_new_tokens));
                if (self.running.len() as u64 + 1) * (max_in + max_cap) > self.capacity {
                    break;
                }
                (self.padding.max_in, self.padding.max_cap) = (max_in, max_cap);
                emit_prefill_start(sink, self.now, instance, spec.id.raw());
                let pending = self.queue.pop_front().expect("front exists");
                self.running.push(Live {
                    spec: pending.spec,
                    generated: pending.generated,
                    timing: pending.timing,
                    evictions: 0,
                    prefill_remaining: 0,
                    first_token_pending: false,
                    restore: Restore::Recompute,
                    cached_prefix: 0,
                });
            }
            if self.running.is_empty() {
                return if self.queue.is_empty() {
                    Tick::Drained
                } else {
                    Tick::Blocked
                };
            }
        } else {
            self.padding.decoded += 1;
        }
        let (max_in, max_cap) = (self.padding.max_in, self.padding.max_cap);
        let b = self.running.len() as u64;
        let duration = if prefill {
            self.prefill_steps += 1;
            self.perf.prefill_step(b * max_in)
        } else {
            self.decode_steps += 1;
            // The padded prompt plus every token so far, this step's too.
            self.perf
                .decode_step(b, b * (max_in + self.padding.decoded + 1))
        };
        self.now += duration;
        let specs = &self.specs;
        if !prefill && sink.is_some() {
            let unfinished = |l: &&Live| l.generated < specs[l.spec].true_output_len;
            let batch = self.running.iter().filter(unfinished).count() as u32;
            let at = self.now;
            fleet::emit(
                sink,
                TraceEvent::DecodeStep {
                    at,
                    instance,
                    batch,
                },
            );
        }
        self.record_step_metrics(duration, Some(b * (max_in + max_cap)), sink);
        let specs = &self.specs;
        for live in &mut self.running {
            if prefill {
                let request = specs[live.spec].id.raw();
                emit_prefill_end(
                    sink,
                    self.now,
                    instance,
                    request,
                    live.timing.ttft().is_none(),
                );
            } else if live.generated >= specs[live.spec].true_output_len {
                continue;
            }
            live.generated += 1;
            live.timing.record_token(self.now);
        }
        // The batch grew outside admission: the router's cached M* is stale.
        self.true_peak.set(None);
        if !self
            .running
            .iter()
            .any(|l| l.generated < specs[l.spec].true_output_len)
        {
            let mut batch = std::mem::take(&mut self.running);
            for live in batch.drain(..) {
                self.finish(live, sink);
            }
            self.running = batch;
        }
        Tick::Worked
    }
}

/// Emits a request's admission into a prefill pass at `at`:
/// [`TraceEvent::Admitted`], then [`TraceEvent::PrefillStart`].
fn emit_prefill_start(
    sink: &mut Option<&mut dyn TraceSink>,
    at: SimTime,
    instance: u32,
    request: u64,
) {
    fleet::emit(
        sink,
        TraceEvent::Admitted {
            at,
            instance,
            request,
        },
    );
    fleet::emit(
        sink,
        TraceEvent::PrefillStart {
            at,
            instance,
            request,
        },
    );
}

/// Emits the end of a request's prefill pass at `at`:
/// [`TraceEvent::PrefillEnd`], then [`TraceEvent::FirstToken`] when the
/// pass emitted the request's first token.
fn emit_prefill_end(
    sink: &mut Option<&mut dyn TraceSink>,
    at: SimTime,
    instance: u32,
    request: u64,
    first_token: bool,
) {
    fleet::emit(
        sink,
        TraceEvent::PrefillEnd {
            at,
            instance,
            request,
        },
    );
    if first_token {
        fleet::emit(
            sink,
            TraceEvent::FirstToken {
                at,
                instance,
                request,
            },
        );
    }
}

/// The lifecycle trace event mirroring a prefix store's [`KvEvent`].
fn kv_trace_event(at: SimTime, instance: u32, ev: KvEvent) -> TraceEvent {
    match ev {
        KvEvent::Stored { block, .. } => TraceEvent::KvStored {
            at,
            instance,
            block,
        },
        KvEvent::Removed { block } => TraceEvent::KvRemoved {
            at,
            instance,
            block,
        },
    }
}

/// Cached tokens of `spec`'s longest stored block run, without touching
/// recency or statistics — the slack purge's feasibility estimate and the
/// prefill pass budget's probe.
fn peek_prefix(store: &BlockPrefixCache, spec: &RequestSpec) -> u64 {
    store.peek_run(spec.matchable_blocks(store.block_tokens() as u32))
}

/// Consumes an admission-time hit: the cached tokens of `spec`'s longest
/// stored block run, refreshing recency and counting lookup statistics.
fn lookup_prefix(store: &mut BlockPrefixCache, spec: &RequestSpec) -> u64 {
    let block_tokens = store.block_tokens() as u32;
    store.lookup_run(spec.matchable_blocks(block_tokens))
}

/// Retains the KV blocks of `spec`'s conversation after `generated`
/// output tokens, when the request declares a reusable prefix (a session
/// or a shared system prompt).
fn store_prefix(store: &mut BlockPrefixCache, spec: &RequestSpec, generated: u32) {
    if spec.prefix_id.is_some() || spec.system_prompt_id.is_some() {
        let block_tokens = store.block_tokens() as u32;
        store.insert_chain(spec.storable_blocks(block_tokens, generated));
    }
}

/// One queued request's contribution to the router-facing slack-pressure
/// signal: `1 / (1 + slack_secs)` — 1.0 at zero remaining slack, decaying
/// as the deadline recedes. Summed per queue and weighed by
/// [`fleet::SLACK_PRESSURE_WEIGHT`].
fn slack_urgency(now: SimTime, arrival: SimTime, deadline: SimDuration) -> f64 {
    let waited = now.saturating_since(arrival);
    1.0 / (1.0 + (deadline - waited).as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefixCacheConfig;
    use crate::{GpuSpec, ModelSpec};
    use pf_core::{FutureMemoryEstimator, SchedulerConfig};

    fn prefix_engine(capacity: u64, budget_frac: f64) -> Engine {
        let mut config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .scheduler(SchedulerConfig::past_future())
            .capacity_override(capacity)
            .record_series(false)
            .seed(7)
            .build();
        config.prefix_cache = Some(PrefixCacheConfig::with_budget_frac(budget_frac));
        Engine::new(config)
    }

    /// A finished conversation longer than the pool's free room is cut
    /// short to what the pool can charge: the colder warm entry gives way
    /// first, the new conversation keeps its leading blocks, and the
    /// sentinel charge tracks the store exactly — live request KV is never
    /// displaced.
    #[test]
    fn over_budget_conversation_is_cut_to_the_free_room() {
        let mut engine = prefix_engine(10_000, 0.5); // budget 5_000, 64-token blocks
        let warm = RequestSpec::new(98u64, 448, 64, 64).with_prefix(1u64, 0);
        engine.cache_finished_prefix(&warm, 64);
        let previous = engine.prefix.as_ref().unwrap().used_tokens();
        assert_eq!(previous, 512, "warm conversation cached as 8 blocks");
        // Live work crowds the pool: 9_000 of 10_000 tokens held.
        engine.kv.allocate(7, 9_000, 9_000).expect("blocker fits");
        let free = engine.kv.available_tokens();
        assert_eq!(free, 488);

        // conversation = 3_000 + 1_000 = 4_000: under the 5_000 budget but
        // far over the 1_000 the pool can charge (488 free + 512 cached).
        let spec = RequestSpec::new(99u64, 3_000, 1_000, 1_000).with_prefix(2u64, 0);
        engine.cache_finished_prefix(&spec, 1_000);

        let store = engine.prefix.as_ref().unwrap();
        let charge = engine.kv.used_tokens() - 9_000;
        assert_eq!(
            charge,
            store.used_tokens(),
            "sentinel charge tracks the store"
        );
        assert!(store.used_tokens() <= free + previous);
        assert_eq!(
            store.peek_run(warm.storable_blocks(64, 64)),
            0,
            "cold entry gave way"
        );
        assert_eq!(
            store.peek_run(spec.storable_blocks(64, 1_000)),
            store.used_tokens(),
            "the new conversation keeps its leading blocks"
        );
        assert!(store.used_tokens() > 0);
    }

    /// Regression: a finished turn that fits the token budget but exceeds
    /// what the pool can ever charge (free tokens plus the current
    /// sentinel charge) must not empty the cache. The unchargeable tail is
    /// skipped; the cached history it extends survives untouched.
    #[test]
    fn over_budget_conversation_skips_instead_of_flushing_cache() {
        let mut engine = prefix_engine(10_000, 0.5); // budget 5_000, 64-token blocks
        let warm = RequestSpec::new(98u64, 448, 64, 64).with_prefix(1u64, 0);
        engine.cache_finished_prefix(&warm, 64);
        let previous = engine.prefix.as_ref().unwrap().used_tokens();
        assert_eq!(previous, 512, "warm conversation cached as 8 blocks");
        // Live work crowds the pool: 9_000 of 10_000 tokens held, leaving
        // 488 free beyond the 512-token sentinel charge.
        engine.kv.allocate(7, 9_000, 9_000).expect("blocker fits");
        assert_eq!(engine.kv.available_tokens(), 488);

        // The next turn of the same session: conversation = 3_000 + 1_000
        // = 4_000, under the 5_000 budget but over the 1_000 the pool can
        // charge. Its first 512 tokens are the warm entry.
        let spec = RequestSpec::new(99u64, 3_000, 1_000, 1_000).with_prefix(1u64, 512);
        engine.cache_finished_prefix(&spec, 1_000);

        let store = engine.prefix.as_ref().unwrap();
        assert_eq!(
            store.peek_run(warm.storable_blocks(64, 64)),
            previous,
            "warm entry survives untouched"
        );
        assert_eq!(store.used_tokens(), 960, "15 whole blocks fit in 1_000");
        assert_eq!(
            store.peek_run(spec.storable_blocks(64, 1_000)),
            store.used_tokens(),
            "the unchargeable tail is skipped, the leading blocks kept"
        );
        assert_eq!(
            engine.kv.used_tokens() - 9_000,
            store.used_tokens(),
            "sentinel charge tracks the store"
        );
    }

    /// A conversation the pool *can* charge after evicting colder entries
    /// still lands in the cache whole — cutting is strictly for
    /// unchargeable conversations, not a general admission tightening.
    #[test]
    fn chargeable_conversation_still_caches_after_evicting_lru() {
        let mut engine = prefix_engine(10_000, 0.5);
        let warm = RequestSpec::new(98u64, 448, 64, 64).with_prefix(1u64, 0);
        engine.cache_finished_prefix(&warm, 64);
        assert_eq!(engine.prefix.as_ref().unwrap().used_tokens(), 512);
        engine.kv.allocate(7, 6_000, 6_000).expect("blocker fits");
        // 3_488 free + 512 cached = 4_000 chargeable; the 4_000-token
        // conversation's 62 whole blocks fit once the cold entry is evicted.
        let spec = RequestSpec::new(99u64, 3_000, 1_000, 1_000).with_prefix(2u64, 0);
        engine.cache_finished_prefix(&spec, 1_000);

        let store = engine.prefix.as_ref().unwrap();
        assert_eq!(store.used_tokens(), 3_968);
        assert_eq!(
            store.peek_run(spec.storable_blocks(64, 1_000)),
            3_968,
            "new conversation cached"
        );
        assert_eq!(
            store.peek_run(warm.storable_blocks(64, 64)),
            0,
            "cold entry gave way"
        );
        assert_eq!(engine.kv.used_tokens() - 6_000, store.used_tokens());
    }

    /// The router probe walks only undelivered arrivals: requests routed
    /// here wait in the inbox, in routing order, until the next tick takes
    /// them in, and `load_estimate` is bit-for-bit the running batch's M*
    /// plus the queue's terms followed by the inbox's terms, summed in
    /// that order.
    #[test]
    fn load_probe_walks_only_undelivered_arrivals() {
        let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
            .scheduler(SchedulerConfig::past_future())
            .capacity_override(4_000)
            .record_series(false)
            .seed(7)
            .build();
        let mut engine = Engine::new(config);
        let (mut saw_queue, mut saw_running) = (false, false);
        for round in 0..16u32 {
            let routed: Vec<RequestSpec> = (0..4u32)
                .map(|k| {
                    let id = round * 4 + k;
                    RequestSpec::new(u64::from(id), 200 + 37 * (id % 7), 8 + id % 13, 64)
                })
                .collect();
            for &spec in &routed {
                engine.inject(engine.now(), spec);
            }

            let walked: Vec<u64> = engine
                .inbox
                .iter()
                .map(|&(_, s)| engine.specs[s].id.raw())
                .collect();
            let expected: Vec<u64> = routed.iter().map(|s| s.id.raw()).collect();
            assert_eq!(walked, expected, "round {round}");
            let in_flight = engine.running.len() + engine.queue.len();
            assert_eq!(engine.outstanding(), in_flight + routed.len());

            let mean_output = if engine.output_len_count == 0 {
                256.0
            } else {
                engine.output_len_sum as f64 / engine.output_len_count as f64
            };
            let terms: Vec<f64> = engine
                .queue
                .iter()
                .map(|p| {
                    f64::from(engine.specs[p.spec].input_len) + f64::from(p.generated) + mean_output
                })
                .chain(routed.iter().map(|s| f64::from(s.input_len) + mean_output))
                .collect();
            let batch: Vec<BatchEntry> = engine
                .running
                .iter()
                .map(|l| Engine::true_entry(&engine.specs[l.spec], l))
                .collect();
            let capacity = engine.capacity as f64;
            let reference = FutureMemoryEstimator::peak_memory(&batch) as f64 / capacity
                + terms.iter().sum::<f64>() / capacity;
            assert_eq!(
                engine.load_estimate().to_bits(),
                reference.to_bits(),
                "round {round}"
            );
            saw_queue |= !engine.queue.is_empty();
            saw_running |= !engine.running.is_empty();

            for _ in 0..3 {
                match engine.tick_traced(&mut None).expect("tick") {
                    Tick::Worked => {}
                    tick => panic!("unexpected {tick:?}"),
                }
                assert!(engine.inbox.is_empty(), "a tick takes the inbox in");
            }
        }
        assert!(
            saw_queue && saw_running,
            "the probe saw a queue and a batch beside the inbox"
        );
    }

    /// The cached true M* never goes stale: after every tick — admission
    /// rounds, lockstep decode steps, chunked mixed steps, pending first
    /// tokens, finishes and preemptions — it equals a fresh Eq. 2–4
    /// evaluation bit for bit, and so does the packed-key evaluation that
    /// fills the cache. Release builds compile out the cache's own debug
    /// cross-check, so this is the check that runs there.
    #[test]
    fn cached_true_peak_matches_a_fresh_evaluation_after_every_tick() {
        // Prompts up to 1,920 tokens, so a chunked prefill spans steps.
        let requests: Vec<RequestSpec> = (0..48u32)
            .map(|id| {
                let output = 20 + (id * 37) % 480;
                RequestSpec::new(u64::from(id), 320 + (id * 53) % 1_600, output, 640)
            })
            .collect();
        let prefills = [PrefillMode::WholePrompt, PrefillMode::Chunked];
        let evictions = [EvictionMode::Recompute, EvictionMode::Swap];
        for prefill in prefills {
            for eviction in evictions {
                let config = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
                    .scheduler(SchedulerConfig::aggressive(0.99))
                    .prefill(prefill)
                    .eviction(eviction)
                    .capacity_override(12_800)
                    .record_series(false)
                    .seed(3)
                    .build();
                let mut engine = Engine::new(config);
                for &spec in &requests {
                    engine.inject(SimTime::ZERO, spec);
                }
                let (mut ticks, mut hits, mut split) = (0u32, 0u32, false);
                loop {
                    match engine.tick_traced(&mut None).expect("tick") {
                        Tick::Worked => {}
                        Tick::Drained => break,
                        tick => panic!("unexpected {tick:?}"),
                    }
                    ticks += 1;
                    hits += u32::from(engine.true_peak.get().is_some());
                    // A prefill cut short by the chunk spans several steps.
                    split |= engine.running.iter().any(|l| {
                        let prompt =
                            u64::from(engine.specs[l.spec].input_len) + u64::from(l.generated);
                        let computed = prompt.saturating_sub(l.cached_prefix).max(1);
                        (1..computed).contains(&l.prefill_remaining)
                    });
                    let batch: Vec<BatchEntry> = engine
                        .running
                        .iter()
                        .map(|l| Engine::true_entry(&engine.specs[l.spec], l))
                        .collect();
                    let reference = FutureMemoryEstimator::peak_memory(&batch);
                    assert_eq!(
                        engine.fresh_true_peak(),
                        reference,
                        "{prefill:?} {eviction:?}: packed M*, tick {ticks}"
                    );
                    let fresh = reference as f64 / engine.capacity as f64;
                    assert_eq!(
                        engine.true_future_required_frac().to_bits(),
                        fresh.to_bits(),
                        "{prefill:?} {eviction:?}: tick {ticks}"
                    );
                }
                let label = format!("{prefill:?} {eviction:?}");
                assert_eq!(engine.outcomes.len(), requests.len(), "{label}");
                assert!(engine.evictions > 0, "{label}: no preemption exercised");
                assert_eq!(
                    split,
                    prefill == PrefillMode::Chunked,
                    "{label}: a prefill spans steps exactly when chunked"
                );
                assert!(
                    hits > ticks / 4,
                    "{label}: cache served {hits} of {ticks} ticks"
                );
            }
        }
    }
}
