//! The one event loop: every topology, a single engine included, runs on
//! one event heap.
//!
//! [`crate::Simulation`], [`crate::cluster::ClusterSimulation`],
//! [`crate::elastic::ElasticCluster`] and [`crate::disagg::DisaggCluster`]
//! (fixed or autoscaled) each start a `Run` and drive it. A colocated fleet is a run with one pool: it takes the
//! arrivals, and its members never hand a request out; a single engine is
//! such a pool of one member with no planner. A disaggregated run adds
//! the decode pool and the KV-transfer link: its first pool is then the
//! prefill pool, whose engines hand every request that needs more tokens
//! over the link to the decode pool. Every member of either pool is the
//! colocated [`Engine`] (in the prefill role in a disaggregated first
//! pool), and the lifecycle, the planning round and the routing call are
//! the [`crate::fleet`] kernel's.
//!
//! # Event order
//!
//! Arrivals are a time-ordered stream beside the heap, from one of two
//! sources ([`Workload`]): an open-loop workload fills it upfront, and a
//! closed-loop client submits its next request at the instant its last
//! one ends (finishes at its member's `Done`, or times out in a tick),
//! which keeps the stream in time order. Routing is one
//! [`Routing::route`] call over the live members of the first pool, each
//! scored by [`Engine::route_load`]. The heap holds everything else. At
//! equal timestamps a warming member's `Ready` comes first, then the
//! planning round, then the arrivals, then member ticks, link wakes and
//! landed streams in the order they were scheduled. An arrival wakes an
//! idle member by scheduling its tick, so every arrival of an instant is
//! routed before any member acts on it.
//!
//! A member ticks when it is woken (by an arrival, a landed handoff or
//! released KV) and again when its pass or step ends (`Done`), taking in
//! the requests routed to it since; a client it freed at `Done` is routed
//! before that tick. A tick's KV-block events and timeouts are taken when
//! the tick runs, its finished requests and planner samples at its
//! `Done`, in completion order. An idle member's clock follows the
//! arrivals, and the router reads the KV index at the earliest clock of
//! the pool's active members, none before the arrival.
//!
//! # Run end
//!
//! A run ends at its last served work (the last engine step, prefill
//! pass or landed stream), once every request has completed, timed out
//! or found no member: no planning round, link wake or `Ready` after it
//! runs, so none can push the makespan, a member's clock or its
//! provisioned time past that point. It stops earlier at the first event
//! at or past the base config's `max_sim_time`, which it then ends at
//! (or before, if its last work came first); work in flight then counts
//! as unfinished, and arrivals not yet routed, or not yet submitted by a
//! closed-loop client, as unrouted. A colocated or decode engine whose
//! queue can never be admitted stalls the run ([`SimError::Stalled`]).
//!
//! The run then builds the one [`FleetReport`] of every topology: each
//! member's lifetime and engine report, the request ledger (checked
//! against the members in debug builds), the goodput over every completed
//! request, the scaling and repurposing decisions, the link totals and
//! the replica series.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

use pf_kvcache::{KvEvent, PrefixCacheStats};
use pf_metrics::{GoodputReport, SeriesGroup, SimDuration, SimTime};
use pf_obs::{GaugeKind, TraceEvent, TraceSink};
use pf_workload::RequestSpec;

use crate::cluster::RouterPolicy;
use crate::config::{QueueOrder, SimConfig, DEFAULT_AGING_CAP};
use crate::disagg::{
    DisaggConfig, KvTransferSpec, RepurposeDirection, RepurposeEvent, TransferMode, TransferStats,
};
use crate::engine::{Engine, Handoff, Tick};
use crate::error::SimError;
use crate::fleet::{
    self, pick_rotating_min, slot_gpu, FleetMember, GpuType, MemberCore, MemberState, Pool, Resize,
    Routing,
};
use crate::link::{LinkScheduler, StreamDone, StreamSpec};
use crate::report::{series_names, FleetReport, MemberReport, RequestOutcome};
use crate::simulation::Workload;

/// Which of a run's two pools a member, event or planning round belongs
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum PoolKind {
    /// The pool that takes the arrivals: the colocated fleet, or the
    /// prefill pool of a disaggregated run.
    Front = 0,
    /// The decode pool of a disaggregated run (empty in a colocated one).
    Decode = 1,
}

/// A member of either pool: a colocated [`Engine`] provisioned from its
/// pool's config, fed the requests routed to it or the handoffs that land
/// on it.
#[derive(Debug)]
pub(crate) struct Member {
    pub(crate) engine: Engine,
    pub(crate) core: MemberCore,
    /// Whether the member's next tick is scheduled (its pass or step is in
    /// flight, or an arrival woke it).
    busy: bool,
    /// The link streams its pass in flight opened (prefill role).
    handed: Range<usize>,
    /// Requests this member served its stage for: requests finished here,
    /// plus prompts prefilled and handed out.
    served: usize,
    /// Engine outcomes the run has seen (a colocated member keeps them).
    seen_outcomes: usize,
    /// Engine timeouts already counted by the run.
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

/// The configs of the initial members of a pool of `base` replicas on
/// the GPU mix `slots`: replica `k` is provisioned exactly like the
/// pool's `k`-th spawn, on slot `k`.
pub(crate) fn replicas(base: &SimConfig, slots: &[GpuType], n: usize) -> Vec<(SimConfig, GpuType)> {
    (0..n)
        .map(|k| {
            let gpu = slot_gpu(slots, k);
            (fleet::replica(base, gpu, k), gpu)
        })
        .collect()
}

/// The requests `member` finished since it was last asked: moved into the
/// run's `ledger` when the run keeps its own (a disaggregated run), else
/// left in the engine, which keeps them for its report.
fn take_finished<'a>(
    member: &'a mut Member,
    ledger: &'a mut Vec<RequestOutcome>,
    own_ledger: bool,
) -> &'a [RequestOutcome] {
    if own_ledger {
        let before = ledger.len();
        ledger.extend(member.engine.drain_outcomes());
        &ledger[before..]
    } else {
        let seen = std::mem::replace(&mut member.seen_outcomes, member.engine.outcomes().len());
        &member.engine.outcomes()[seen..]
    }
}

/// The requests of `workload` and their arrivals (t = 0 when offline or
/// in a closed-loop client's hands), how many of the front requests are
/// submitted (all of them but the ones waiting for a closed-loop client:
/// the first wave submits at t = 0). A timed stream needs one arrival
/// time per request, in non-decreasing order.
fn arrival_sources(
    workload: Workload,
) -> Result<(Vec<RequestSpec>, Vec<SimTime>, usize), SimError> {
    let (requests, times, submitted) = match workload {
        Workload::Offline(requests) => (requests, None, usize::MAX),
        Workload::Timed(requests, times) => (requests, Some(times), usize::MAX),
        Workload::ClosedLoop(requests, clients) => (requests, None, clients.n_clients),
    };
    let times = times.unwrap_or_else(|| vec![SimTime::ZERO; requests.len()]);
    let reason = if requests.len() != times.len() {
        "one arrival time per request"
    } else if !times.is_sorted() {
        "arrival times must be sorted"
    } else {
        return Ok((requests, times, submitted));
    };
    Err(SimError::InvalidWorkload { reason })
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

/// What a disaggregated run adds to a colocated one: the decode pool's
/// config, the KV-transfer link and its streams, the handoff routing and
/// cross-pool repurposing.
pub(crate) struct Split {
    /// The config every decode engine is provisioned from.
    decode_base: SimConfig,
    transfer: KvTransferSpec,
    kv_bytes_per_token: u64,
    default_deadline: Option<SimDuration>,
    /// The aging cap grouping the link streams' weights: the queue
    /// order's under [`QueueOrder::LeastSlackFirst`], else the default.
    aging_cap: SimDuration,
    /// Chunks per stream: 1 for atomic handoffs, the layer count when
    /// layer-streamed.
    chunks: u32,
    layer_streamed: bool,
    /// The shared-link fluid scheduler every KV handoff streams over.
    link: LinkScheduler,
    /// Per-stream run state, indexed by link stream id.
    streams: Vec<StreamSlot>,
    /// Reusable completion buffer of [`Run::on_link_wake`].
    done_buf: Vec<StreamDone>,
    /// Rotating tie-break cursor of the handoff routing.
    decode_cursor: usize,
    /// Cross-pool repurposing delay (`None` disables claims).
    repurpose_delay: Option<SimDuration>,
    repurposes: Vec<RepurposeEvent>,
    stats: TransferStats,
}

impl Split {
    /// The disaggregated half of a run of `config`.
    pub(crate) fn new(config: &DisaggConfig) -> Split {
        let base = &config.base;
        // The one place the transfer mode is read: it only sets how many
        // chunks every stream on the shared link carries.
        let (chunks, layer_streamed) = match config.transfer.mode {
            TransferMode::Atomic => (1, false),
            TransferMode::LayerStreamed => (base.model.n_layers.max(1), true),
        };
        Split {
            decode_base: config.decode_base(),
            transfer: config.transfer,
            kv_bytes_per_token: base.model.kv_bytes_per_token(),
            default_deadline: base.request_deadline,
            aging_cap: match base.queue_order {
                QueueOrder::LeastSlackFirst { aging_cap } => aging_cap,
                QueueOrder::Fifo | QueueOrder::ShortestPromptFirst { .. } => DEFAULT_AGING_CAP,
            },
            chunks,
            layer_streamed,
            link: LinkScheduler::new(
                config.transfer.link_gbps,
                config.transfer.per_hop_overhead.as_micros(),
            ),
            streams: Vec::new(),
            done_buf: Vec::new(),
            decode_cursor: 0,
            repurpose_delay: config.repurpose,
            repurposes: Vec::new(),
            stats: TransferStats::default(),
        }
    }
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// A warming member becomes live.
    Ready(PoolKind, usize),
    /// An autoscale planning round (planned runs only).
    Plan,
    /// Member `i` of the pool ticks: its pass or step ended, or an
    /// arrival woke it.
    Done(PoolKind, usize),
    /// The shared link reaches its completion floor, or, re-armed in the
    /// same heap place (its `seq` kept), its projected completion.
    /// Dropped unprocessed when `generation` is stale — a stream joined
    /// or drained since, rescheduling the wake.
    LinkWake { generation: u64 },
    /// A KV transfer stream fully lands (its last chunk plus the
    /// per-stream overhead).
    StreamDone { id: usize },
}

impl Ev {
    /// Rank among events of one instant (lower first; arrivals rank
    /// [`ARRIVAL_RANK`]).
    fn rank(&self) -> u8 {
        match self {
            Ev::Ready(..) => 0,
            Ev::Plan => 1,
            Ev::Done(..) | Ev::LinkWake { .. } | Ev::StreamDone { .. } => 3,
        }
    }
}

/// Where arrivals sit among the events of one instant: after `Ready` and
/// `Plan`, before member ticks and link events.
const ARRIVAL_RANK: u8 = 2;

/// Heap entry: earliest `(at, rank, seq)` first (the heap holds it
/// reversed); `seq` is unique, so ties never reach the event.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Scheduled {
    at_us: u64,
    rank: u8,
    seq: u64,
    ev: Ev,
}

/// Mutable state of one fleet run.
pub(crate) struct Run<'s> {
    /// The pools, indexed by [`PoolKind`]: members in spawn order (the
    /// index is a member's key in the router's KV index).
    pools: [Pool<Member>; 2],
    /// The config the first pool's spawns are provisioned from.
    base: SimConfig,
    /// The disaggregated half (`None` for a colocated run).
    split: Option<Split>,
    route: Routing,
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    /// Requests not yet routed, in submission order: the first `submitted`
    /// are submitted, in arrival order; the rest wait for a closed-loop
    /// client to free, which stamps the next one.
    stream: VecDeque<(SimTime, RequestSpec)>,
    submitted: usize,
    /// Reusable KV-event drain buffer of [`Run::tick`].
    kv_event_buf: Vec<(SimTime, KvEvent)>,
    /// Requests the workload issued.
    issued: usize,
    /// Requests neither ended (completed or timed out) nor unrouted.
    remaining: usize,
    /// Requests that reached no member: no member was live, or the
    /// horizon stopped the run first.
    unrouted: usize,
    /// Requests cancelled by their deadline.
    timed_out: usize,
    /// A disaggregated run's finished requests, in completion order.
    outcomes: Vec<RequestOutcome>,
    /// The base config's `max_sim_time` in µs (`u64::MAX` without one).
    horizon_us: u64,
    /// Live and provisioned member counts over time, per pool.
    series: SeriesGroup,
    last_series_at: SimTime,
    /// Next trace-event instance id (dense over both pools' spawn order).
    next_instance: u32,
    /// Optional trace sink; `None` costs one branch per emission site.
    sink: Option<&'s mut dyn TraceSink>,
}

impl<'s> Run<'s> {
    /// Starts a run of `pools` (the first takes the arrivals; the second
    /// is the decode pool of a `split` run) with their `initial` members
    /// live at t=0, against `workload`. Spawns of the first pool copy
    /// `base`. The arrivals and every initial config
    /// are checked before any engine is built, each request against every
    /// member of the first pool (a heterogeneous fixed fleet mixes KV
    /// capacities; later spawns and the decode pool share the base
    /// capacity and layout). The routing layer (tunables, KV block size,
    /// softmax seed) follows the first pool's first member.
    ///
    /// # Panics
    ///
    /// Panics if the first pool has no initial member.
    pub(crate) fn start(
        pools: [Pool<Member>; 2],
        base: SimConfig,
        initial: [Vec<(SimConfig, GpuType)>; 2],
        router: RouterPolicy,
        split: Option<Split>,
        workload: Workload,
        sink: Option<&'s mut dyn TraceSink>,
    ) -> Result<Self, SimError> {
        let (requests, times, submitted) = arrival_sources(workload)?;
        for (config, _) in initial.iter().flatten() {
            fleet::check_scheduler(&config.scheduler)?;
            fleet::check_prefix_cache(config.prefix_cache)?;
            fleet::check_engine(config)?;
        }
        let first = &initial[0].first().expect("fleet needs an initial member").0;
        let ledger = if split.is_some() { requests.len() } else { 0 };
        let mut run = Run {
            route: Routing::new(router, first)?,
            horizon_us: first.max_sim_time.map_or(u64::MAX, |t| t.as_micros()),
            pools,
            base,
            split,
            heap: BinaryHeap::new(),
            seq: 0,
            stream: VecDeque::new(),
            submitted: submitted.min(requests.len()),
            issued: requests.len(),
            remaining: requests.len(),
            kv_event_buf: Vec::new(),
            unrouted: 0,
            timed_out: 0,
            outcomes: Vec::with_capacity(ledger),
            series: SeriesGroup::new(),
            last_series_at: SimTime::ZERO,
            next_instance: 0,
            sink,
        };
        for (kind, members) in [PoolKind::Front, PoolKind::Decode].into_iter().zip(initial) {
            for (config, gpu) in members {
                run.add_member(kind, config, gpu, SimTime::ZERO, SimDuration::ZERO);
            }
        }
        for member in &run.pools[0].members {
            member.engine.check_capacity()?;
            for spec in &requests {
                member.engine.validate_spec(spec)?;
            }
        }
        run.stream = times.into_iter().zip(requests).collect();
        // Both pools plan on one cadence.
        if let Some(planner) = &run.pools[0].planner {
            run.schedule(SimTime::ZERO + planner.interval(), Ev::Plan);
        }
        run.record_fleet(SimTime::ZERO);
        Ok(run)
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.push(at, seq, ev);
    }

    /// Pushes `ev` at `at` under `seq`: a fresh one from
    /// [`Run::schedule`], or a popped wake's own when it re-arms.
    fn push(&mut self, at: SimTime, seq: u64, ev: Ev) {
        self.heap.push(Reverse(Scheduled {
            at_us: at.as_micros(),
            rank: ev.rank(),
            seq,
            ev,
        }));
    }

    /// Provisions an engine of `config` in `kind`'s pool on `gpu` at `now`,
    /// live after `warmup` (at once when zero), under the next trace-event
    /// instance id (dense over both pools' spawn order, so a flipped member
    /// gets a fresh id in its new pool). Returns its pool index.
    fn add_member(
        &mut self,
        kind: PoolKind,
        config: SimConfig,
        gpu: GpuType,
        now: SimTime,
        warmup: SimDuration,
    ) -> usize {
        let mut engine = Engine::new(config);
        engine.set_instance(self.next_instance);
        self.next_instance += 1;
        engine.advance_to(now);
        if kind == PoolKind::Front {
            if self.split.is_some() {
                engine.prefill_only();
            }
            if self.route.kv_routing {
                engine.enable_kv_event_log();
            }
        }
        let pool = &mut self.pools[kind as usize];
        pool.members.push(Member {
            engine,
            core: MemberCore::spawn(now, warmup, gpu),
            busy: false,
            handed: 0..0,
            served: 0,
            seen_outcomes: 0,
            seen_timed_out: 0,
        });
        let i = pool.members.len() - 1;
        if !warmup.is_zero() {
            self.schedule(now + warmup, Ev::Ready(kind, i));
        }
        i
    }

    /// Spawns a replica in `kind`'s pool at `now` on `gpu`, seeded and sped
    /// up for its spawn index ([`fleet::replica`]).
    fn spawn(&mut self, kind: PoolKind, now: SimTime, warmup: SimDuration, gpu: GpuType) -> usize {
        let base = match kind {
            PoolKind::Front => &self.base,
            PoolKind::Decode => &self.split.as_ref().expect("a split run").decode_base,
        };
        let config = fleet::replica(base, gpu, self.pools[kind as usize].members.len());
        self.add_member(kind, config, gpu, now, warmup)
    }

    /// Spawns `n` members of `kind`'s pool at `now`, each on the next slot
    /// of the pool's GPU mix.
    fn grow(&mut self, kind: PoolKind, now: SimTime, n: usize, warmup: SimDuration) {
        for _ in 0..n {
            let gpu = self.pools[kind as usize].next_gpu();
            self.spawn(kind, now, warmup, gpu);
        }
    }

    fn record_fleet(&mut self, at: SimTime) {
        let at = at.max(self.last_series_at);
        self.last_series_at = at;
        let pools = if self.split.is_some() { 2 } else { 1 };
        for pool in &self.pools[..pools] {
            let (live, provisioned) = pool.sizes();
            let [live_name, provisioned_name] = series_names(pool.label);
            self.series.record(live_name, at, live as f64);
            self.series.record(provisioned_name, at, provisioned as f64);
        }
    }

    /// Runs the fleet until every request has ended or found no member,
    /// or until the horizon, and reports the run, which ends at its last
    /// served work (the latest member clock: an engine step, a prefill pass
    /// or a landed stream) or at the horizon, whichever is first.
    pub(crate) fn drive(mut self) -> Result<FleetReport, SimError> {
        while self.remaining > 0 {
            let arrival =
                (self.submitted > 0).then(|| (self.stream[0].0.as_micros(), ARRIVAL_RANK));
            let event = self.heap.peek().map(|Reverse(s)| (s.at_us, s.rank));
            let Some((at_us, rank)) = arrival.into_iter().chain(event).min() else {
                break;
            };
            if at_us >= self.horizon_us {
                break;
            }
            let now = SimTime::from_micros(at_us);
            if rank == ARRIVAL_RANK {
                self.route_next();
            } else {
                let Scheduled { seq, ev, .. } = self.heap.pop().expect("peeked").0;
                match ev {
                    Ev::Ready(kind, i) => self.on_ready(now, kind, i),
                    Ev::Plan => self.on_plan(now),
                    Ev::Done(kind, i) => self.on_done(now, kind, i)?,
                    Ev::LinkWake { generation } => self.on_link_wake(now, generation, seq),
                    Ev::StreamDone { id } => self.on_stream_done(now, id)?,
                }
            }
        }
        // Arrivals the horizon cut off reach no member, nor do requests no
        // closed-loop client got to submit.
        self.unrouted += self.stream.len();
        self.remaining -= self.stream.len();
        // A step that ends past the horizon has finished its requests,
        // though the run stops before the member's `Done`.
        let split = self.split.is_some();
        for member in self.pools.iter_mut().flat_map(|pool| &mut pool.members) {
            let finished = take_finished(member, &mut self.outcomes, split).len();
            member.served += finished;
            self.remaining -= finished;
        }
        let last_work = (self.pools.iter().flat_map(|pool| &pool.members))
            .map(|m| m.engine.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        let end = last_work.min(SimTime::from_micros(self.horizon_us));
        self.record_fleet(end);
        Ok(self.report(end))
    }

    /// The report of the run ended at `end`: members still up are charged
    /// until then, and the goodput counts every completed request on the
    /// makespan, with the timed-out ones as misses. In debug builds the
    /// request ledger is checked against the members.
    fn report(self, end: SimTime) -> FleetReport {
        // Destructured in a block of its own, so that the arrival stream,
        // the heap and the router's index are freed before the members'
        // reports and the goodput allocate.
        let (pools, base, split, series, outcomes, [issued, remaining, unrouted, timed_out]) = {
            let run = self;
            let counts = [run.issued, run.remaining, run.unrouted, run.timed_out];
            (
                run.pools,
                run.base,
                run.split,
                run.series,
                run.outcomes,
                counts,
            )
        };
        let mut instances = Vec::new();
        let mut events = Vec::new();
        for pool in pools {
            let label = pool.label;
            instances.extend(pool.members.into_iter().map(|m| MemberReport {
                pool: label,
                gpu: m.core.gpu,
                spawned_at: m.core.spawned_at,
                stopped_at: m.core.stopped_at.unwrap_or(end),
                routed: m.core.routed,
                served: m.served,
                report: m.engine.into_report(),
            }));
            events.extend(pool.events);
        }
        let (repurposes, transfers) = split
            .map(|split| {
                let in_flight = split.streams.iter().filter(|s| s.handoff.is_some());
                let transfers = TransferStats {
                    in_flight: in_flight.count(),
                    ..split.stats
                };
                (split.repurposes, transfers)
            })
            .unwrap_or_default();
        let mut prefix_stats = PrefixCacheStats::default();
        for member in &instances {
            prefix_stats.merge(&member.report.prefix_stats);
        }
        let makespan = end.saturating_since(SimTime::ZERO);
        let members = instances.iter().flat_map(|m| &m.report.outcomes);
        let requests =
            (outcomes.iter().chain(members)).map(|o| (o.timing, u64::from(o.output_len)));
        let goodput =
            GoodputReport::compute_with_timeouts(&base.sla, requests, makespan, timed_out);
        let report = FleetReport {
            goodput,
            instances,
            issued,
            timed_out,
            unserved: remaining + unrouted,
            unrouted,
            makespan,
            prefix_stats,
            outcomes,
            events,
            repurposes,
            transfers,
            series,
        };
        debug_assert!(
            report.ledger_balances(),
            "unbalanced ledger: {issued} issued, {} completed, {timed_out} timed out, \
             {} unserved ({unrouted} unrouted, {} on the link)",
            report.completed(),
            report.unserved,
            report.transfers.in_flight,
        );
        report
    }

    /// Routes an arrival among the live members of the first pool with
    /// the configured policy, each scored by [`Engine::route_load`]
    /// divided by its GPU speed, and stamps it at its arrival: a busy
    /// member ingests it at its next tick, an idle one is woken to tick
    /// now. The router reads the KV index at the earliest clock of the
    /// pool's active members, none before the arrival. With no live
    /// member the request goes unrouted.
    fn on_arrival(&mut self, at: SimTime, spec: RequestSpec) {
        let Pool {
            members, planner, ..
        } = &mut self.pools[0];
        // An idle member's clock follows the arrivals.
        for member in members.iter_mut() {
            if member.core.is_active() && !member.busy && member.engine.outstanding() == 0 {
                member.engine.advance_to(at);
            }
        }
        let now = members
            .iter()
            .filter(|m| m.core.is_active())
            .map(|m| m.engine.now().max(at))
            .min()
            .unwrap_or(at);
        let policy = self.route.policy;
        let candidates = members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.core.is_live())
            .map(|(i, m)| (i, m.engine.route_load(policy, m.core.gpu.perf_scale)));
        let Some(target) = self.route.route(now, &spec, members.len(), candidates) else {
            self.unrouted += 1;
            self.remaining -= 1;
            return;
        };
        if let Some(planner) = planner.as_mut() {
            planner.on_request_arrival(at, spec.input_len);
        }
        let member = &mut members[target];
        member.core.routed += 1;
        member.engine.inject(at, spec);
        if !member.busy {
            member.busy = true;
            self.schedule(at, Ev::Done(PoolKind::Front, target));
        }
    }

    /// Ticks member `i` of `kind`'s pool at `now`. An engine that worked
    /// is busy until `Done` at its post-tick clock; a prefill pass opens
    /// the streams of the requests it handed out. An engine with nothing
    /// to run stays idle, a draining one stops, and a colocated or decode
    /// engine that can never admit its queue stalls the run (a prefill
    /// engine waits for its held KV to be released).
    fn tick(&mut self, kind: PoolKind, i: usize, now: SimTime) -> Result<(), SimError> {
        let Run {
            pools,
            route,
            kv_event_buf,
            sink,
            ..
        } = self;
        let member = &mut pools[kind as usize].members[i];
        member.engine.advance_to(now);
        let tick = member.engine.tick_traced(sink)?;
        if route.kv_routing {
            kv_event_buf.clear();
            member.engine.drain_kv_events(kv_event_buf);
            for &(at, ev) in kv_event_buf.iter() {
                route.indexer.publish(i as u32, ev, at.as_micros());
            }
        }
        // A queued prompt can time out; a handoff only once preempted.
        let timed_out = member.engine.timed_out() - member.seen_timed_out;
        member.seen_timed_out += timed_out;
        self.timed_out += timed_out;
        self.remaining -= timed_out;
        match tick {
            Tick::Worked => {
                member.busy = true;
                let end = member.engine.now();
                // Scheduled before the pass's streams open, so that at
                // equal timestamps `Done` always pops first: a stream's
                // last chunk turns eligible exactly at the pass end, so
                // its `StreamDone` never lands before the pass has ended.
                self.schedule(end, Ev::Done(kind, i));
                if kind == PoolKind::Front && self.split.is_some() {
                    self.open_streams(i, now, end);
                }
            }
            Tick::Blocked if !(kind == PoolKind::Front && self.split.is_some()) => {
                return Err(SimError::Stalled {
                    queued: member.engine.outstanding(),
                    at: now,
                });
            }
            Tick::Blocked | Tick::Drained => {
                self.maybe_stop(kind, i, now);
            }
        }
        self.free_clients(now, timed_out);
        Ok(())
    }

    /// `n` closed-loop clients whose requests ended at `now` submit their
    /// next ones at `now` (no-op for an open-loop workload).
    fn free_clients(&mut self, now: SimTime, n: usize) {
        let n = n.min(self.stream.len() - self.submitted);
        let freed = self.submitted..self.submitted + n;
        debug_assert!(n == 0 || self.submitted == 0 || self.stream[self.submitted - 1].0 <= now);
        self.stream
            .range_mut(freed)
            .for_each(|(arrival, _)| *arrival = now);
        self.submitted += n;
    }

    /// Routes the next submitted request at its arrival.
    fn route_next(&mut self) {
        let (at, spec) = self.stream.pop_front().expect("a submitted request");
        self.submitted -= 1;
        self.on_arrival(at, spec);
    }

    /// Member `i` of `kind`'s pool ended its pass or step at `now`: the
    /// requests it finished end (a disaggregated run keeps their outcomes
    /// in its own ledger), the pool's planner learns each first token the
    /// pass handed out and each finished request, their closed-loop
    /// clients resubmit (a resubmission due now is routed while the member
    /// still counts as busy, so it waits in the inbox), and the engine
    /// ticks again.
    fn on_done(&mut self, now: SimTime, kind: PoolKind, i: usize) -> Result<(), SimError> {
        let Run {
            pools,
            outcomes,
            split,
            ..
        } = self;
        let Pool {
            members, planner, ..
        } = &mut pools[kind as usize];
        let member = &mut members[i];
        let handed = std::mem::take(&mut member.handed);
        let finished = take_finished(member, outcomes, split.is_some());
        if let Some(planner) = planner.as_mut() {
            for slot in split.iter().flat_map(|s| &s.streams[handed.clone()]) {
                let handoff = slot.handoff.as_ref().expect("parked until it lands");
                let ttft = handoff.timing.ttft().expect("the pass emitted it");
                planner.on_request_finished(now, 1, ttft, SimDuration::ZERO);
            }
            for o in finished {
                if let Some(ttft) = o.timing.ttft() {
                    planner.on_request_finished(now, o.output_len, ttft, o.timing.avg_tpot());
                }
            }
        }
        let finished = finished.len();
        member.served += handed.len() + finished;
        self.remaining -= finished;
        self.free_clients(now, finished);
        while self.submitted > 0 && self.stream[0].0 <= now {
            self.route_next();
        }
        self.pools[kind as usize].members[i].busy = false;
        self.tick(kind, i, now)
    }

    /// Opens one link stream for each request that prefill member `i`'s
    /// pass, from `now` to `end`, handed out. Chunk `l` of [`Split::chunks`]
    /// becomes eligible as the pass proportionally produces it (a
    /// one-chunk atomic stream at the pass end), so a layer-streamed
    /// transfer overlaps the remaining prefill compute.
    fn open_streams(&mut self, i: usize, now: SimTime, end: SimTime) {
        let Run {
            pools, split, sink, ..
        } = self;
        let split = split.as_mut().expect("only prefill engines hand out");
        let (now_us, end_us) = (now.as_micros(), end.as_micros());
        let chunks = split.chunks;
        let first_at = now_us + (end_us - now_us).div_ceil(u64::from(chunks));
        let member = &mut pools[0].members[i];
        let instance = member.engine.instance();
        let first = split.streams.len();
        for handoff in member.engine.drain_handoffs() {
            // The prompt plus the first generated token.
            let bytes = (u64::from(handoff.spec.input_len) + 1) * split.kv_bytes_per_token;
            let weight = fleet::slack_share_weight(
                now,
                handoff.timing.arrival(),
                handoff.spec.deadline.or(split.default_deadline),
                split.aging_cap,
            );
            let request = handoff.spec.id.raw();
            let id = split.link.start_stream(
                now_us,
                StreamSpec {
                    bytes,
                    produce_start_us: now_us,
                    produce_end_us: end_us,
                    chunks,
                    weight,
                },
            );
            debug_assert_eq!(id, split.streams.len());
            split.streams.push(StreamSlot {
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
        member.handed = first..split.streams.len();
        self.schedule_link_wake(now);
        self.emit_link_utilization(now);
    }

    /// Schedules a wake at the link's completion floor, tagged with the
    /// current generation, without walking the fluid; a join in the
    /// meantime bumps the generation, so the stale wake is dropped
    /// unprocessed (and unwalked) and a fresh floor replaces it.
    fn schedule_link_wake(&mut self, now: SimTime) {
        let link = &self.split.as_ref().expect("a split run").link;
        let Some(at_us) = link.drain_floor_us() else {
            return;
        };
        let generation = link.generation();
        self.schedule(
            SimTime::from_micros(at_us.max(now.as_micros())),
            Ev::LinkWake { generation },
        );
    }

    /// A current wake projects the link's next completion. Before it, the
    /// wake re-arms there under its popped `seq`: since the floor is at
    /// most the completion, the entry keeps the heap place a wake
    /// scheduled at the completion would have had. At it, the link
    /// advances and its completions are scheduled.
    fn on_link_wake(&mut self, now: SimTime, generation: u64, seq: u64) {
        let split = self.split.as_mut().expect("a split run");
        if generation != split.link.generation() {
            return; // Superseded by a join since this wake was scheduled.
        }
        if let Some(done_us) = split
            .link
            .next_event_us()
            .filter(|&at| at > now.as_micros())
        {
            self.push(
                SimTime::from_micros(done_us),
                seq,
                Ev::LinkWake { generation },
            );
            return;
        }
        let mut completions = std::mem::take(&mut split.done_buf);
        completions.clear();
        split.link.advance(now.as_micros(), &mut completions);
        for done in completions.drain(..) {
            self.schedule(
                SimTime::from_micros(done.done_us.max(now.as_micros())),
                Ev::StreamDone { id: done.id },
            );
        }
        self.split.as_mut().expect("a split run").done_buf = completions;
        self.schedule_link_wake(now);
    }

    /// A KV transfer fully lands: the source releases the held KV (and an
    /// idle source ticks, since a prompt may fit now), the stats charge
    /// the uncontended wire time plus one *per-stream* overhead and the
    /// time landed past the pass end, and the request hands off to the
    /// decode pool.
    fn on_stream_done(&mut self, now: SimTime, id: usize) -> Result<(), SimError> {
        let split = self.split.as_mut().expect("a split run");
        let slot = &mut split.streams[id];
        let (from, bytes, produce_end_us) = (slot.from, slot.bytes, slot.produce_end_us);
        let handoff = slot.handoff.take().expect("a stream lands once");
        let wire_secs = bytes as f64 / (split.transfer.link_gbps * 1e9);
        let stats = &mut split.stats;
        stats.transfers += 1;
        stats.streamed += usize::from(split.layer_streamed);
        stats.total_bytes += bytes;
        stats.total_link_secs += wire_secs + split.transfer.per_hop_overhead.as_secs_f64();
        stats.total_tail_secs += now.as_micros().saturating_sub(produce_end_us) as f64 / 1e6;
        let source = &mut self.pools[0].members[from];
        source.engine.release(handoff.spec.id.raw());
        if !source.busy {
            self.tick(PoolKind::Front, from, now)?;
        }
        self.emit_link_utilization(now);
        self.handoff_to_decode(now, handoff)
    }

    /// Emits the shared-link utilization gauge. The link is a pool-wide
    /// resource, so the gauge carries the pseudo-instance `u32::MAX`
    /// rather than any member's id.
    fn emit_link_utilization(&mut self, now: SimTime) {
        if let Some(s) = self.sink.as_deref_mut() {
            let link = &self.split.as_ref().expect("a split run").link;
            s.gauge(
                now,
                u32::MAX,
                GaugeKind::LinkUtilization,
                link.utilization(),
            );
        }
    }

    /// Routes a landed KV handoff onto the decode pool, by each live
    /// member's [`Member::load_signal`] over its GPU speed, and ticks the
    /// receiving engine if it is idle.
    fn handoff_to_decode(&mut self, now: SimTime, handoff: Handoff) -> Result<(), SimError> {
        let Run {
            pools, split, sink, ..
        } = self;
        let Pool {
            members, planner, ..
        } = &mut pools[1];
        if let Some(planner) = planner.as_mut() {
            planner.on_request_arrival(now, handoff.spec.input_len);
        }
        let split = split.as_mut().expect("a split run");
        let target = pick_rotating_min(
            members
                .iter()
                .enumerate()
                .filter(|(_, m)| m.core.is_live())
                .map(|(j, m)| (j, m.load_signal() as f64 / m.core.gpu.perf_scale)),
            &mut split.decode_cursor,
            members.len(),
        )
        .expect("at least one live decode instance");
        let member = &mut members[target];
        member.core.routed += 1;
        // The transfer end carries the *receiving decode* instance: the
        // request's decode phase runs there from this point on.
        fleet::emit(
            sink,
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
        let core = &mut self.pools[kind as usize].members[i].core;
        if matches!(core.state, MemberState::Warming { .. }) {
            core.state = MemberState::Live;
            self.record_fleet(now);
        }
    }

    /// Stops member `i` of `kind`'s pool once it is draining and idle with
    /// nothing outstanding (no queue, no batch, no held KV).
    fn maybe_stop(&mut self, kind: PoolKind, i: usize, now: SimTime) {
        let member = &self.pools[kind as usize].members[i];
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
        let member = &mut self.pools[kind as usize].members[i];
        let from_instance = member.engine.instance();
        let gpu = member.core.gpu;
        let claimed = std::mem::take(&mut member.core.claimed);
        member.core.stop(now);
        if claimed {
            let delay = (self.split.as_ref())
                .and_then(|split| split.repurpose_delay)
                .expect("claims only exist with repurposing enabled");
            let (direction, into) = match kind {
                PoolKind::Front => (RepurposeDirection::PrefillToDecode, PoolKind::Decode),
                PoolKind::Decode => (RepurposeDirection::DecodeToPrefill, PoolKind::Front),
            };
            let to = self.spawn(into, now, delay, gpu);
            let to_instance = self.pools[into as usize].members[to].engine.instance();
            fleet::emit(
                &mut self.sink,
                TraceEvent::Repurposed {
                    at: now,
                    from_instance,
                    to_instance,
                },
            );
            let (prefill_member, decode_member) = match kind {
                PoolKind::Front => (i, to),
                PoolKind::Decode => (to, i),
            };
            let split = self.split.as_mut().expect("a split run");
            split.repurposes.push(RepurposeEvent {
                at: now,
                direction,
                prefill_member,
                decode_member,
            });
        }
        self.record_fleet(now);
    }

    /// One planning round: each pool's planner decides independently. The
    /// first pool decides first so a decode scale-up in the same round
    /// can claim its freshly draining victims; the first pool's victims'
    /// idle-stop check is deferred until after the decode decision, so an
    /// already-idle victim flips immediately instead of stopping cold.
    fn on_plan(&mut self, now: SimTime) {
        let front_drained = self.plan_pool(PoolKind::Front, now);
        let decode_drained = self.plan_pool(PoolKind::Decode, now);
        for victim in decode_drained {
            self.maybe_stop(PoolKind::Decode, victim, now);
        }
        for victim in front_drained {
            self.maybe_stop(PoolKind::Front, victim, now);
        }
        self.record_fleet(now);
        if let Some(planner) = &self.pools[0].planner {
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
        let repurpose = self
            .split
            .as_ref()
            .is_some_and(|s| s.repurpose_delay.is_some());
        let [front, decode] = &mut self.pools;
        let (own, other) = match kind {
            PoolKind::Front => (front, decode),
            PoolKind::Decode => (decode, front),
        };
        // Claimed-but-not-flipped members are capacity the pool has
        // already ordered.
        let claimed = fleet::pending_claims(&other.members);
        match own.plan_round(now, claimed, &mut self.sink) {
            Some(Resize::Grow(mut need)) => {
                if repurpose {
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
}
