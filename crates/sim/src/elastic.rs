//! Elastic multi-instance serving: the cluster grows and shrinks mid-run.
//!
//! This module is the one colocated event core. A fixed fleet is an
//! elastic fleet with no planner: [`crate::cluster::ClusterSimulation`]
//! runs this same loop with every member live at t=0 and no planning
//! rounds, spawns or drains. [`ElasticCluster`] adds the control loop on
//! top: an [`pf_autoscale::AutoscalePlanner`] watches arrivals and
//! completions through sliding windows, forecasts the next adjustment
//! interval, and resizes the fleet —
//!
//! * **scale-up** provisions fresh instances that accept traffic only
//!   after a configurable *warm-up delay* (boot + weight load);
//! * **scale-down** runs the shared shrink pass of [`crate::fleet`]:
//!   cancel the newest warming instances first, then put live victims into
//!   a *draining* state — they finish their queued and running work but
//!   receive nothing new, and stop (and stop costing GPU-seconds) once
//!   empty.
//!
//! The member lifecycle (warm-up, drain, stop, the cost ledger) is the
//! [`crate::fleet`] kernel — the same state machine the disaggregated
//! pools run on; this module contributes only the engine work loop and
//! the planning cadence.
//!
//! # Heterogeneous fleets
//!
//! [`ElasticCluster::fleet`] assigns a [`GpuType`] per provisioning slot:
//! slot `k` (the `k`-th simultaneously provisioned instance) runs on
//! `slots[k]`. A member's `perf_scale` multiplies its engine's kernel
//! speed, the router divides each member's load signal by it (a fast GPU
//! looks emptier than a slow one at equal queued work), the planner sizes
//! candidate fleets against the mean `perf_scale` of the slots they would
//! occupy, and the shrink pass releases the costliest members first.
//! Reports price every instance at its `cost_weight`
//! ([`ElasticReport::headline`]'s `cost_weighted_gpu_seconds`).
//!
//! The front end routes every arriving request among the **live**
//! instances with a configurable [`RouterPolicy`] (default
//! [`RouterPolicy::LeastEstimatedLoad`] — the paper's §7 signal;
//! [`RouterPolicy::PrefixAffinity`] adds KV-aware prefix routing when the
//! base config enables a prefix cache); warming, draining and stopped
//! instances are never routed to. Exact load ties break with a rotating
//! cursor, not by lowest index. Member engines inherit the base config's
//! [`QueueOrder`](crate::QueueOrder), so deadline-slack-aware admission
//! (and its early-drop of doomed requests) works unchanged inside an
//! elastic fleet, and timed-out requests count as SLA
//! misses in the cluster-level goodput.
//!
//! The run is fully deterministic: one global clock orders engine steps,
//! arrivals and planning rounds, and all randomness is seeded.
//!
//! # Example
//!
//! ```
//! use pf_autoscale::AutoscaleConfig;
//! use pf_core::SchedulerConfig;
//! use pf_metrics::SimDuration;
//! use pf_sim::elastic::ElasticCluster;
//! use pf_sim::{GpuSpec, ModelSpec, SimConfig};
//! use pf_workload::{datasets, rng::seeded, RateProfile};
//!
//! let base = SimConfig::builder(ModelSpec::llama2_7b(), GpuSpec::a100_80g())
//!     .scheduler(SchedulerConfig::past_future())
//!     .capacity_override(12_000)
//!     .record_series(false)
//!     .build();
//! let autoscale = AutoscaleConfig::bounded(1, 4)
//!     .interval(SimDuration::from_secs(10))
//!     .warmup(SimDuration::from_secs(15));
//! let requests = datasets::sharegpt(120, 1);
//! let arrivals = RateProfile::diurnal(1.0, 6.0, SimDuration::from_secs(120))
//!     .assign(&mut seeded(2), 120);
//! let report = ElasticCluster::new(base, autoscale, 1)
//!     .run(requests, arrivals)?;
//! assert_eq!(report.headline().completed, 120);
//! assert!(report.gpu_seconds() > 0.0);
//! # Ok::<(), pf_sim::SimError>(())
//! ```

use std::collections::VecDeque;

use pf_autoscale::{AutoscaleConfig, PoolRole};
use pf_metrics::{GoodputReport, SimDuration, SimTime, SlaSpec, StepSeries};
use pf_obs::TraceSink;
use pf_workload::RequestSpec;

use crate::cluster::RouterPolicy;
use crate::config::SimConfig;
use crate::engine::{Arrivals, Engine, Tick};
use crate::error::SimError;
use crate::fleet::{
    self, replica, slot_gpu, FleetMember, GpuType, MemberCore, MemberState, Pool, Resize, Routing,
};
use crate::report::{Headline, SimReport};

pub use crate::fleet::ScalingEvent;

#[derive(Debug)]
pub(crate) struct Member {
    pub(crate) engine: Engine,
    pub(crate) core: MemberCore,
    seen_outcomes: usize,
}

impl FleetMember for Member {
    fn core(&self) -> &MemberCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut MemberCore {
        &mut self.core
    }

    fn load_signal(&self) -> u64 {
        self.engine.outstanding() as u64
    }
}

/// An elastic fleet of serving instances driven by an SLA-targeted
/// autoscaling planner (identical replicas by default; see
/// [`ElasticCluster::fleet`] for mixed GPU types).
#[derive(Debug)]
pub struct ElasticCluster {
    base: SimConfig,
    autoscale: AutoscaleConfig,
    initial_replicas: usize,
    router: RouterPolicy,
    slots: Vec<GpuType>,
}

impl ElasticCluster {
    /// Creates an elastic cluster starting with `initial_replicas` live
    /// copies of `base`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_replicas` is zero or outside the autoscale
    /// policy's `[min, max]` bounds.
    pub fn new(base: SimConfig, autoscale: AutoscaleConfig, initial_replicas: usize) -> Self {
        assert!(initial_replicas > 0, "cluster needs at least one instance");
        assert!(
            (autoscale.policy.min_replicas..=autoscale.policy.max_replicas)
                .contains(&initial_replicas),
            "initial_replicas {} outside policy bounds [{}, {}]",
            initial_replicas,
            autoscale.policy.min_replicas,
            autoscale.policy.max_replicas
        );
        ElasticCluster {
            base,
            autoscale,
            initial_replicas,
            router: RouterPolicy::LeastEstimatedLoad,
            slots: Vec::new(),
        }
    }

    /// Sets the front-end routing policy (default
    /// [`RouterPolicy::LeastEstimatedLoad`]).
    pub fn router(mut self, router: RouterPolicy) -> Self {
        self.router = router;
        self
    }

    /// Declares a heterogeneous fleet: provisioning slot `k` runs on
    /// `slots[k]` (slots past the end repeat the last entry). The default
    /// is a homogeneous fleet of [`GpuType::reference`] instances, which
    /// reproduces the single-type behavior bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn fleet(mut self, slots: Vec<GpuType>) -> Self {
        assert!(!slots.is_empty(), "a fleet needs at least one GPU type");
        self.slots = slots;
        self
    }

    /// Runs the elastic fleet against a timed arrival stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the arrival stream is malformed
    /// ([`SimError::InvalidWorkload`]), a request can never fit an
    /// instance, an instance stalls, a scheduler, prefix-cache, engine or
    /// GPU-type parameter is out of range ([`SimError::InvalidScheduler`],
    /// [`SimError::InvalidPrefixCache`], [`SimError::InvalidEngine`],
    /// [`SimError::InvalidHardware`]),
    /// or the router policy cannot run on the fleet
    /// ([`SimError::InvalidRouterPolicy`]).
    pub fn run(
        self,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
    ) -> Result<ElasticReport, SimError> {
        self.run_traced(requests, arrival_times, None)
    }

    /// [`ElasticCluster::run`] with an optional [`TraceSink`] receiving
    /// every member engine's lifecycle events plus fleet-level scaling
    /// events. With `None` this is exactly `run`: bit-identical reports,
    /// no allocation on the emission paths.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the arrival stream is malformed
    /// ([`SimError::InvalidWorkload`]), a request can never fit an
    /// instance, an instance stalls, a scheduler, prefix-cache, engine or
    /// GPU-type parameter is out of range ([`SimError::InvalidScheduler`],
    /// [`SimError::InvalidPrefixCache`], [`SimError::InvalidEngine`],
    /// [`SimError::InvalidHardware`]),
    /// or the router policy cannot run on the fleet
    /// ([`SimError::InvalidRouterPolicy`]).
    pub fn run_traced(
        self,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
        mut sink: Option<&mut dyn TraceSink>,
    ) -> Result<ElasticReport, SimError> {
        fleet::check_gpus(&self.slots)?;
        let planner =
            fleet::pool_planner(self.autoscale, &self.base, PoolRole::Colocated, &self.slots);
        // The initial replicas are provisioned exactly like later spawns:
        // replica `k` is the `k`-th spawn on slot `k`.
        let initial = (0..self.initial_replicas)
            .map(|k| {
                let gpu = slot_gpu(&self.slots, k);
                (replica(&self.base, gpu, k), gpu)
            })
            .collect();
        let sla = self.base.sla;
        let planning = Planning {
            next_adjust: SimTime::ZERO + planner.interval(),
            base: self.base,
        };
        let pool = Pool::new(pf_obs::Pool::Colocated, self.slots, Some(planner));
        let mut run = Run::start(
            pool,
            initial,
            self.router,
            Some(planning),
            requests,
            arrival_times,
        )?;
        run.drive(&mut sink)?;
        Ok(run.finish(sla))
    }
}

/// The autoscaling cadence of an elastic run (its planner lives in the
/// fleet's [`Pool`]).
pub(crate) struct Planning {
    /// The config every replica is provisioned from.
    base: SimConfig,
    /// When the next planning round runs.
    next_adjust: SimTime,
}

/// Mutable state of one colocated run: the event core shared by
/// [`ElasticCluster`] and [`crate::cluster::ClusterSimulation`].
pub(crate) struct Run {
    /// The autoscaling cadence; `None` for a fixed fleet, which then
    /// never plans, spawns or drains, and feeds no planner.
    planning: Option<Planning>,
    /// The fleet: every member ever provisioned, in spawn order (the
    /// index is the member's trace-event instance id and its key in the
    /// router's KV index).
    pub(crate) pool: Pool<Member>,
    route: Routing,
    /// Reusable per-tick event drain buffer.
    kv_event_buf: Vec<(SimTime, pf_kvcache::KvEvent)>,
    /// Timed arrivals not yet routed.
    stream: VecDeque<(SimTime, RequestSpec)>,
    /// Requests that never reached a member: popped while no live member
    /// existed, or left in the stream when every member had stopped (both
    /// possible only when `max_sim_time` stops members early).
    pub(crate) unrouted: usize,
    live_series: StepSeries,
    provisioned_series: StepSeries,
    /// Series must be recorded in time order; planning rounds are stamped
    /// at the interval boundary, which can trail the global front.
    last_record: SimTime,
}

impl Run {
    /// Provisions the `initial` members of `pool` (live at t=0) and checks
    /// the arrival stream against them before the first event. The
    /// routing layer (tunables, KV block size, softmax seed) follows
    /// member 0's config.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty.
    pub(crate) fn start(
        pool: Pool<Member>,
        initial: Vec<(SimConfig, GpuType)>,
        router: RouterPolicy,
        planning: Option<Planning>,
        requests: Vec<RequestSpec>,
        arrival_times: Vec<SimTime>,
    ) -> Result<Run, SimError> {
        fleet::check_arrivals(&requests, &arrival_times)?;
        for (config, _) in &initial {
            fleet::check_scheduler(&config.scheduler)?;
            fleet::check_prefix_cache(config.prefix_cache)?;
            fleet::check_engine(config)?;
        }
        let first = &initial.first().expect("fleet needs an initial member").0;
        let mut run = Run {
            planning,
            pool,
            route: Routing::new(router, first)?,
            kv_event_buf: Vec::new(),
            stream: arrival_times.into_iter().zip(requests).collect(),
            unrouted: 0,
            live_series: StepSeries::new(),
            provisioned_series: StepSeries::new(),
            last_record: SimTime::ZERO,
        };
        for (config, gpu) in initial {
            run.add_member(config, gpu, SimTime::ZERO, SimDuration::ZERO);
        }
        // Every initial member is validated: a heterogeneous fixed fleet
        // mixes KV capacities. Later spawns copy the elastic base config,
        // whose capacity the initial replicas already share (GPU types
        // differ in speed and cost only).
        for member in &run.pool.members {
            member.engine.validate()?;
            for (_, spec) in &run.stream {
                member.engine.validate_spec(spec)?;
            }
        }
        run.record_fleet(SimTime::ZERO);
        Ok(run)
    }

    /// Provisions one replica of the elastic base config at `now`.
    fn spawn(&mut self, now: SimTime, warmup: SimDuration) {
        let planning = self.planning.as_ref().expect("only the planner spawns");
        let gpu = self.pool.next_gpu();
        let config = replica(&planning.base, gpu, self.pool.members.len());
        self.add_member(config, gpu, now, warmup);
    }

    fn add_member(&mut self, config: SimConfig, gpu: GpuType, now: SimTime, warmup: SimDuration) {
        let mut engine = Engine::new(config, Arrivals::offline(Vec::new()));
        // Trace-event instance id: the member index, stable for the
        // member's lifetime.
        engine.set_instance(self.pool.members.len() as u32);
        engine.advance_to(now);
        if self.route.kv_routing {
            engine.enable_kv_event_log();
        }
        self.pool.members.push(Member {
            engine,
            core: MemberCore::spawn(now, warmup, gpu),
            seen_outcomes: 0,
        });
    }

    fn record_fleet(&mut self, at: SimTime) {
        let at = at.max(self.last_record);
        self.last_record = at;
        let (live, provisioned) = self.pool.sizes();
        self.live_series.record(at, live as f64);
        self.provisioned_series.record(at, provisioned as f64);
    }

    /// Index of the active member with the smallest clock (the global
    /// front), or `None` when no member is active.
    fn lagging_active(&self) -> Option<usize> {
        self.pool
            .members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.core.is_active())
            .min_by_key(|(_, m)| m.engine.now())
            .map(|(i, _)| i)
    }

    /// Routes `spec` among the live members with the configured policy,
    /// each scored by its engine's [`Engine::route_load`].
    fn route_target(&mut self, now: SimTime, spec: &RequestSpec) -> Option<usize> {
        let members = &self.pool.members;
        let policy = self.route.policy;
        let candidates = members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.core.is_live())
            .map(|(i, m)| (i, m.engine.route_load(policy, m.core.gpu.perf_scale)));
        self.route.route(now, spec, members.len(), candidates)
    }

    /// Feeds newly finished requests of member `i` to the planner, if any.
    fn harvest_outcomes(&mut self, i: usize) {
        // Disjoint borrows: the member is read, the planner is fed. This
        // runs after every member tick, so it must not allocate.
        let Pool {
            members,
            planner: Some(planner),
            ..
        } = &mut self.pool
        else {
            return;
        };
        let member = &mut members[i];
        let now = member.engine.now();
        let outcomes = member.engine.outcomes();
        for o in &outcomes[member.seen_outcomes..] {
            if let Some(ttft) = o.timing.ttft() {
                planner.on_request_finished(now, o.output_len, ttft, o.timing.avg_tpot());
            }
        }
        member.seen_outcomes = outcomes.len();
    }

    /// When the next planning round runs (`None` without a planner).
    fn next_adjust(&self) -> Option<SimTime> {
        self.planning.as_ref().map(|p| p.next_adjust)
    }

    /// The earliest global event the lagging member must not skip past:
    /// the next planning round or the next arrival.
    fn next_event(&self) -> Option<SimTime> {
        let arrival = self.stream.front().map(|&(at, _)| at);
        [self.next_adjust(), arrival].into_iter().flatten().min()
    }

    /// Runs one planning round at the scheduled time and applies the
    /// decision (no-op without a planner): spawns, or the shared shrink
    /// pass — cancel the newest warming members, then drain the costliest
    /// / least-loaded live ones, never below one live member.
    fn adjust(&mut self, sink: &mut Option<&mut dyn TraceSink>) {
        let (Some(planning), Some(planner)) = (self.planning.as_mut(), self.pool.planner.as_ref())
        else {
            return;
        };
        let at = planning.next_adjust;
        planning.next_adjust = at + planner.interval();
        let warmup = planner.warmup();
        // `None`: horizon pressure stopped the whole fleet; nothing to
        // steer.
        let Some(resize) = self.pool.plan_round(at, 0, sink) else {
            return;
        };
        match resize {
            Resize::Grow(n) => {
                for _ in 0..n {
                    self.spawn(at, warmup);
                }
            }
            Resize::Shrink(n) => {
                let _ = self.pool.shrink_by(n, at);
            }
            Resize::Hold => {}
        }
        self.record_fleet(at);
    }

    /// Promotes warming members whose delay elapsed before `front`.
    fn promote_ready(&mut self, front: SimTime) -> bool {
        let mut promoted = false;
        for member in &mut self.pool.members {
            if let MemberState::Warming { ready_at } = member.core.state {
                if ready_at <= front {
                    member.engine.advance_to(ready_at);
                    member.core.state = MemberState::Live;
                    promoted = true;
                }
            }
        }
        if promoted {
            self.record_fleet(front);
        }
        promoted
    }

    /// Runs the fleet until every arrival is routed and every member idle
    /// or stopped.
    pub(crate) fn drive(&mut self, sink: &mut Option<&mut dyn TraceSink>) -> Result<(), SimError> {
        // The loop ends when no member is active (every instance stopped)
        // or via the explicit all-idle break below.
        while let Some(i_min) = self.lagging_active() {
            let front = self.pool.members[i_min].engine.now();
            if self.promote_ready(front) {
                continue;
            }
            if self.next_adjust().is_some_and(|at| front >= at) {
                self.adjust(sink);
                continue;
            }
            if let Some(&(at, _)) = self.stream.front() {
                if front >= at {
                    let (at, spec) = self.stream.pop_front().expect("peeked");
                    let Some(target) = self.route_target(front, &spec) else {
                        // No live instance (all draining under horizon
                        // pressure): the request goes unserved.
                        self.unrouted += 1;
                        continue;
                    };
                    if let Some(planner) = self.pool.planner.as_mut() {
                        planner.on_request_arrival(at, spec.input_len);
                    }
                    // Stamped at its scheduled arrival: a busy member
                    // ingests it at its next tick, and its TTFT counts
                    // from when the client sent it.
                    let member = &mut self.pool.members[target];
                    member.engine.inject(at, spec);
                    member.core.routed += 1;
                    continue;
                }
            }
            let member = &mut self.pool.members[i_min];
            let tick = member.engine.tick_traced(sink)?;
            if self.route.kv_routing {
                self.kv_event_buf.clear();
                member.engine.drain_kv_events(&mut self.kv_event_buf);
                for &(at, ev) in &self.kv_event_buf {
                    self.route.indexer.publish(i_min as u32, ev, at.as_micros());
                }
            }
            match tick {
                Tick::Worked => self.harvest_outcomes(i_min),
                Tick::Sleep(t) => {
                    // Do not overshoot the next global event: the planner
                    // round and stream arrivals need the front to pause at
                    // their timestamps.
                    let bound = self.next_event().map_or(t, |next| next.min(t));
                    self.pool.members[i_min].engine.advance_to(bound.max(front));
                }
                Tick::Blocked => {
                    return Err(SimError::Stalled {
                        queued: self.pool.members[i_min].engine.outstanding(),
                        at: front,
                    });
                }
                Tick::HorizonReached => {
                    // The member will never work again; release it so the
                    // run can terminate.
                    self.pool.members[i_min].core.stop(front);
                    self.record_fleet(front);
                }
                Tick::Drained => {
                    if self.pool.members[i_min].core.state == MemberState::Draining {
                        self.pool.members[i_min].core.stop(front);
                        self.record_fleet(front);
                        continue;
                    }
                    let members = &self.pool.members;
                    let all_idle = members
                        .iter()
                        .filter(|m| m.core.is_active())
                        .all(|m| m.engine.outstanding() == 0);
                    if self.stream.is_empty() && all_idle && fleet::pool_counts(members).1 == 0 {
                        break;
                    }
                    let next = [self.next_event(), fleet::next_ready(members)]
                        .into_iter()
                        .flatten()
                        .min();
                    let member = &mut self.pool.members[i_min];
                    match next {
                        // Idle live instance: fast-forward to the next
                        // global event so it stays a valid routing-time
                        // reference.
                        Some(next) => member.engine.advance_to(next.max(front)),
                        // A fixed fleet past its last arrival: nothing can
                        // reach this member again, so it leaves the lagging
                        // set with its clock (its report's makespan) where
                        // its work ended.
                        None => member.core.stop(front),
                    }
                }
            }
        }
        // Arrivals still queued when every member stopped go unserved.
        self.unrouted += self.stream.len();
        self.stream.clear();
        Ok(())
    }

    /// Builds the elastic report of a driven run.
    fn finish(mut self, sla: SlaSpec) -> ElasticReport {
        // Collect any completions the final ticks produced.
        for i in 0..self.pool.members.len() {
            self.harvest_outcomes(i);
        }
        let end = self
            .pool
            .members
            .iter()
            .map(|m| m.core.stopped_at.unwrap_or(m.engine.now()))
            .max()
            .unwrap_or(SimTime::ZERO);
        let (live, provisioned) = self.pool.sizes();
        self.live_series.record(end, live as f64);
        self.provisioned_series.record(end, provisioned as f64);
        let instances: Vec<ElasticInstanceReport> = self
            .pool
            .members
            .into_iter()
            .map(|m| {
                let stopped_at = m.core.stopped_at.unwrap_or(end);
                ElasticInstanceReport {
                    spawned_at: m.core.spawned_at,
                    stopped_at,
                    gpu: m.core.gpu,
                    routed: m.core.routed,
                    report: m.engine.into_report(),
                }
            })
            .collect();
        // Cluster-level goodput over every completed request, measured on
        // the cluster makespan; timed-out requests enter the denominators
        // as SLA misses.
        let all_requests: Vec<(pf_metrics::RequestTiming, u64)> = instances
            .iter()
            .flat_map(|i| i.report.outcomes.iter())
            .map(|o| (o.timing, u64::from(o.output_len)))
            .collect();
        let timed_out: usize = instances.iter().map(|i| i.report.timed_out).sum();
        let makespan = end.saturating_since(SimTime::ZERO);
        let goodput =
            GoodputReport::compute_with_timeouts(&sla, &all_requests, makespan, timed_out);
        ElasticReport {
            goodput,
            makespan,
            unrouted: self.unrouted,
            instances,
            events: self.pool.events,
            live_series: self.live_series,
            provisioned_series: self.provisioned_series,
        }
    }
}

/// Per-instance result of an elastic run.
#[derive(Debug)]
pub struct ElasticInstanceReport {
    /// When the instance was provisioned.
    pub spawned_at: SimTime,
    /// When it stopped costing GPU time (run end for instances still up).
    pub stopped_at: SimTime,
    /// The accelerator this instance ran on.
    pub gpu: GpuType,
    /// Requests routed to it.
    pub routed: usize,
    /// Its engine report.
    pub report: SimReport,
}

impl ElasticInstanceReport {
    /// GPU time this instance was provisioned for, in seconds (warm-up
    /// time counts: the GPU is busy loading weights, not serving).
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

/// Aggregate result of an elastic cluster run.
#[derive(Debug)]
pub struct ElasticReport {
    /// Cluster-level goodput over all completed requests.
    pub goodput: GoodputReport,
    /// Run end time (latest instance activity).
    pub makespan: SimDuration,
    /// Requests dropped because no live instance existed (only possible
    /// when `max_sim_time` stops the fleet early).
    pub unrouted: usize,
    /// Per-instance reports, in spawn order.
    pub instances: Vec<ElasticInstanceReport>,
    /// Fleet-size changes the planner made.
    pub events: Vec<ScalingEvent>,
    /// Live-replica count over time.
    pub live_series: StepSeries,
    /// Provisioned-replica count (live + warming + draining) over time.
    pub provisioned_series: StepSeries,
}

impl ElasticReport {
    /// SLA-satisfying output tokens per second over the makespan.
    pub fn goodput_tok_per_s(&self) -> f64 {
        self.goodput.goodput_tok_per_s
    }

    /// Total GPU-seconds provisioned across the fleet (the cost metric
    /// the elastic planner competes on against static fleets).
    pub fn gpu_seconds(&self) -> f64 {
        self.instances.iter().map(|i| i.active_secs()).sum()
    }

    /// Largest number of simultaneously provisioned replicas.
    pub fn peak_replicas(&self) -> usize {
        self.provisioned_series.max_value().unwrap_or(0.0) as usize
    }

    /// The fleet's headline: SLA terms from the cluster-level goodput,
    /// counters summed over instances, and every instance's provisioned
    /// time (raw and cost-weighted — equal for weight-1.0 fleets).
    pub fn headline(&self) -> Headline {
        let sum =
            |f: fn(&SimReport) -> usize| self.instances.iter().map(|i| f(&i.report)).sum::<usize>();
        Headline {
            completed: sum(|r| r.completed),
            timed_out: sum(|r| r.timed_out),
            evictions: self.instances.iter().map(|i| i.report.evictions).sum(),
            gpu_seconds: self.gpu_seconds(),
            cost_weighted_gpu_seconds: Some(
                self.instances.iter().map(|i| i.cost_weighted_secs()).sum(),
            ),
            ..Headline::of_goodput(&self.goodput)
        }
    }

    /// Prefix-cache statistics merged across instances (all zero when
    /// caches are disabled).
    pub fn prefix_stats(&self) -> pf_kvcache::PrefixCacheStats {
        let mut stats = pf_kvcache::PrefixCacheStats::default();
        for instance in &self.instances {
            stats.merge(&instance.report.prefix_stats);
        }
        stats
    }
}
