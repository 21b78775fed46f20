//! Per-layer attribution by replay.
//!
//! One traced run records the simulator's lifecycle events. Each layer's
//! operation stream is rebuilt from those events plus the workload's
//! `RequestSpec`s, then replayed into the layer's public API. A layer's
//! time is the replay loop minus the same loop with the layer calls
//! removed, so the bookkeeping that rebuilds the layer's inputs (batch
//! and queue snapshots, block chains) is not charged to the layer.
//!
//! The streams are reconstructions, not recordings of the calls
//! themselves, so they carry the limits the README lists: a layer called
//! where the trace shows no event (the elastic router's prefix probes,
//! extra planning rounds inside one admission tick) is not replayed, and
//! a replayed call runs on warm caches outside the simulator's loop.

use std::collections::VecDeque;
use std::hint::black_box;

use pf_core::{AdmissionIndex, BatchEntry, MemoryState, QueuedRequest, RunningRequest, Scheduler};
use pf_kvcache::{block_hash, BlockPrefixCache, KvCacheManager, KvEvent, KvIndexer, TokenPool};
use pf_metrics::SimTime;
use pf_obs::TraceEvent;
use pf_sim::link::{LinkScheduler, StreamDone, StreamSpec};
use pf_sim::SimConfig;
use pf_workload::RequestSpec;

use crate::timing::{cpu_secs, Samples};
use crate::workloads::Kind;

/// How many times each variant of a layer's stream is replayed.
const REPS: usize = 3;
/// Queue entries the engine shows its scheduler per planning round
/// (`pf_sim`'s admission window).
const PLAN_WINDOW: usize = 256;
/// Pool id under which the engine charges its prefix cache.
const PREFIX_SENTINEL: u64 = u64::MAX;
/// Replayed pools never refuse: the replay prices calls, and capacity is
/// enforced by the run the trace came from.
const UNBOUNDED: u64 = u64::MAX / 4;
/// Queue age past which a stream gets double link weight (the disagg
/// default aging cap for FIFO queues).
const AGING_CAP_US: u64 = 30_000_000;

/// What a workload's run looked like, as the replay needs it.
pub struct Recorded<'a> {
    /// Deployment shape.
    pub kind: Kind,
    /// Engine configuration of every instance.
    pub config: &'a SimConfig,
    /// Lifecycle events of the traced run, in emission order.
    pub events: &'a [TraceEvent],
    /// Request specs indexed by request id.
    pub specs: &'a [RequestSpec],
    /// Instances of a static cluster (the router scores each).
    pub instances: usize,
    /// Link bandwidth and per-stream overhead of a streamed disagg run.
    pub link: Option<(f64, u64)>,
}

/// Replayed layer costs and the counts behind them.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `plan_admission` plus history updates, seconds.
    pub plan_s: f64,
    /// `AdmissionIndex` probes, inserts and retirements, seconds.
    pub index_s: f64,
    /// Token-pool allocate, extend, shortfall and release, seconds.
    pub kvpool_s: f64,
    /// Block-cache lookups, seconds.
    pub lookup_s: f64,
    /// Block-cache inserts and evictions, seconds.
    pub insert_s: f64,
    /// KV-index publishes, advances and overlap scoring, seconds.
    pub router_s: f64,
    /// Link stream starts and advances, seconds.
    pub advance_s: f64,
    /// Link completion projections, seconds.
    pub projection_s: f64,

    /// Planning rounds replayed.
    pub plan_calls: u64,
    /// Sum of queue lengths at those rounds.
    pub queue_sum: u64,
    /// Admission-index probes.
    pub index_probes: u64,
    /// Token-pool calls.
    pub kv_ops: u64,
    /// Block-cache lookups.
    pub lookups: u64,
    /// Block-cache inserts.
    pub inserts: u64,
    /// Blocks the trace shows evicted.
    pub blocks_removed: u64,
    /// Routing decisions scored.
    pub queries: u64,
    /// KV events published to the index.
    pub index_events: u64,
    /// Prompt tokens of routed requests.
    pub routed_prompt_tokens: u64,
    /// Of those, tokens the index held on the chosen instance.
    pub routed_overlap_tokens: u64,
    /// Routed requests whose instance held at least one of their blocks.
    pub routed_hits: u64,
    /// Link streams.
    pub streams: u64,
    /// Link advances (wakes).
    pub advances: u64,
    /// Link projections.
    pub projections: u64,
    /// Busy share of the replayed link.
    pub link_utilization: f64,
    /// Decode iterations in the trace.
    pub decode_steps: u64,
    /// Prefill passes in the trace.
    pub prefills: u64,
    /// Sum of decode batch sizes.
    pub batch_sum: u64,
    /// Places where the rebuilt stream disagrees with the trace (a
    /// batch size, a queue front, a stream count). None when the replay
    /// models the run.
    pub mismatches: Mismatches,
}

/// Disagreements between a rebuilt stream and the trace.
#[derive(Debug, Clone, Default)]
pub struct Mismatches {
    /// How many were found.
    pub total: u64,
    /// The first few, described.
    pub examples: Vec<String>,
}

impl Mismatches {
    fn note(&mut self, describe: impl FnOnce() -> String) {
        self.total += 1;
        if self.examples.len() < 5 {
            self.examples.push(describe());
        }
    }

    fn merge(&mut self, other: Mismatches) {
        self.total += other.total;
        let room = 5usize.saturating_sub(self.examples.len());
        self.examples.extend(other.examples.into_iter().take(room));
    }
}

impl Layers {
    /// Time attributed to the `admission` layer.
    pub fn admission_s(&self) -> f64 {
        self.plan_s + self.index_s
    }

    /// Time attributed to the `prefix` layer.
    pub fn prefix_s(&self) -> f64 {
        self.lookup_s + self.insert_s
    }

    /// Time attributed to the `link` layer.
    pub fn link_s(&self) -> f64 {
        self.advance_s + self.projection_s
    }

    /// Every replayed layer's time; with the unattributed remainder it
    /// adds up to the untraced run's CPU time.
    pub fn total_s(&self) -> f64 {
        self.admission_s() + self.kvpool_s + self.prefix_s() + self.router_s + self.link_s()
    }
}

/// Rebuilds every layer's stream from `rec` and times its replays.
pub fn replay(rec: &Recorded<'_>) -> Layers {
    let mut out = Layers::default();
    count_steps(rec.events, &mut out);
    match rec.kind {
        Kind::Coloc | Kind::Cluster | Kind::Elastic => {
            engine_layers(rec, &mut out);
            prefix_layer(rec, &mut out);
            if rec.kind == Kind::Cluster {
                router_layer(rec, &mut out);
            }
        }
        Kind::Disagg => {
            index_layer(rec, &mut out);
            if rec.link.is_some() {
                link_layer(rec, &mut out);
            }
        }
    }
    out
}

/// Median CPU time of each variant over [`REPS`] rounds, rotating
/// which variant runs first.
fn time_variants(variants: &mut [&mut dyn FnMut() -> u64]) -> Vec<f64> {
    let k = variants.len();
    let mut times = vec![Vec::with_capacity(REPS); k];
    for rep in 0..REPS {
        for slot in 0..k {
            let v = (slot + rep) % k;
            let mut check = 0;
            times[v].push(cpu_secs(|| check = (variants[v])()));
            black_box(check);
        }
    }
    times
        .into_iter()
        .map(|t| Samples::new(t).expect("CPU times are finite").median())
        .collect()
}

fn request(ev: &TraceEvent) -> usize {
    ev.request().expect("request-scoped event") as usize
}

fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

fn count_steps(events: &[TraceEvent], out: &mut Layers) {
    let mut last_prefill_end: Vec<Option<SimTime>> = Vec::new();
    for ev in events {
        match *ev {
            TraceEvent::DecodeStep { batch, .. } => {
                out.decode_steps += 1;
                out.batch_sum += u64::from(batch);
            }
            TraceEvent::PrefillEnd { at, instance, .. } => {
                // One pass ends all its requests at the same instant.
                let last = slot(&mut last_prefill_end, instance as usize);
                if *last != Some(at) {
                    out.prefills += 1;
                    *last = Some(at);
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// admission (plan_admission) and kvpool (TokenPool), colocated engines
// ---------------------------------------------------------------------

/// One engine-side lifecycle step, `(instance, request)` where relevant.
#[derive(Debug, Clone, Copy)]
enum EngineOp {
    Enqueue(u32, u32),
    /// A planning round that admitted (the queue is non-empty).
    Plan(u32),
    /// A tick's planning round, run only when the queue is non-empty.
    TickPlan(u32),
    Admit(u32, u32),
    /// A prefill pass emitted the request's next token.
    Token(u32, u32),
    /// A decode iteration over a batch of the given size.
    Step(u32, u32),
    Preempt(u32, u32),
    Finish(u32, u32),
    Drop(u32, u32),
    /// The prefix cache's pool charge after a KV flush, in tokens.
    Cache(u32, u32),
}

#[derive(Clone, Copy, PartialEq, Eq, Default)]
enum TickState {
    #[default]
    Idle,
    Admitting,
    Stepping,
}

fn engine_ops(events: &[TraceEvent], block_tokens: u64) -> Vec<EngineOp> {
    let mut ops = Vec::with_capacity(events.len());
    let mut state: Vec<TickState> = Vec::new();
    let mut blocks: Vec<u64> = Vec::new();
    let mut flushed: Vec<bool> = Vec::new();
    for ev in events {
        let Some(inst) = ev.instance() else { continue };
        let i = inst as usize;
        match ev {
            TraceEvent::KvStored { .. } => {
                *slot(&mut blocks, i) += 1;
                *slot(&mut flushed, i) = true;
                continue;
            }
            TraceEvent::KvRemoved { .. } => {
                *slot(&mut blocks, i) -= 1;
                *slot(&mut flushed, i) = true;
                continue;
            }
            _ => {}
        }
        if std::mem::take(slot(&mut flushed, i)) {
            let tokens = blocks[i] * block_tokens;
            ops.push(EngineOp::Cache(
                inst,
                u32::try_from(tokens).expect("cache fits u32"),
            ));
        }
        let st = slot(&mut state, i);
        match *ev {
            TraceEvent::Enqueued { .. } => {
                *st = TickState::Idle;
                ops.push(EngineOp::Enqueue(inst, request(ev) as u32));
            }
            TraceEvent::Admitted { .. } => {
                if *st != TickState::Admitting {
                    ops.push(EngineOp::Plan(inst));
                    *st = TickState::Admitting;
                }
                ops.push(EngineOp::Admit(inst, request(ev) as u32));
            }
            TraceEvent::PrefillEnd { .. } => {
                *st = TickState::Idle;
                ops.push(EngineOp::Token(inst, request(ev) as u32));
            }
            // Evictions run inside the decode tick, after its planning
            // round.
            TraceEvent::Preempted { .. } | TraceEvent::Swapped { .. } => {
                if *st != TickState::Stepping {
                    ops.push(EngineOp::TickPlan(inst));
                    *st = TickState::Stepping;
                }
                ops.push(EngineOp::Preempt(inst, request(ev) as u32));
            }
            TraceEvent::DecodeStep { batch, .. } => {
                if *st != TickState::Stepping {
                    ops.push(EngineOp::TickPlan(inst));
                }
                *st = TickState::Idle;
                ops.push(EngineOp::Step(inst, batch));
            }
            TraceEvent::Finished { .. } => {
                *st = TickState::Idle;
                ops.push(EngineOp::Finish(inst, request(ev) as u32));
            }
            TraceEvent::TimedOut { .. } | TraceEvent::SlackDropped { .. } => {
                ops.push(EngineOp::Drop(inst, request(ev) as u32));
            }
            _ => {}
        }
    }
    for (i, pending) in flushed.iter().enumerate() {
        if *pending {
            let tokens = blocks[i] * block_tokens;
            ops.push(EngineOp::Cache(
                i as u32,
                u32::try_from(tokens).expect("cache fits u32"),
            ));
        }
    }
    ops
}

/// Replay state of one engine.
struct EngineState {
    /// `(request, generated)` in queue order.
    queue: VecDeque<(u32, u32)>,
    /// `(request, generated)` in batch order.
    running: Vec<(u32, u32)>,
    scheduler: Box<dyn Scheduler>,
    pool: TokenPool,
}

/// Counts one engine replay produces (identical across variants).
#[derive(Default)]
struct EngineCounts {
    plan_calls: u64,
    queue_sum: u64,
    kv_ops: u64,
    mismatches: Mismatches,
}

/// Replays the engine stream. `VIEWS`/`IDS` rebuild the scheduler's and
/// the pool's inputs; `PLAN`/`POOL` make the layer calls on them.
fn replay_engine<const VIEWS: bool, const PLAN: bool, const IDS: bool, const POOL: bool>(
    ops: &[EngineOp],
    rec: &Recorded<'_>,
    counts: &mut EngineCounts,
) -> u64 {
    let capacity = rec.config.capacity_tokens();
    let mut engines: Vec<EngineState> = Vec::new();
    let mut running_views: Vec<RunningRequest> = Vec::new();
    let mut queue_views: Vec<QueuedRequest> = Vec::new();
    let mut ids: Vec<u64> = Vec::new();
    let mut check = 0u64;
    let spec = |r: u32| &rec.specs[r as usize];
    let engine = |engines: &mut Vec<EngineState>, i: u32| -> usize {
        let i = i as usize;
        while engines.len() <= i {
            let seed = rec.config.seed.wrapping_add(engines.len() as u64);
            engines.push(EngineState {
                queue: VecDeque::new(),
                running: Vec::new(),
                scheduler: rec.config.scheduler.build(seed),
                pool: TokenPool::new(UNBOUNDED),
            });
        }
        i
    };
    for &op in ops {
        match op {
            EngineOp::Enqueue(i, r) => {
                let i = engine(&mut engines, i);
                engines[i].queue.push_back((r, 0));
            }
            EngineOp::Plan(i) | EngineOp::TickPlan(i) => {
                let i = engine(&mut engines, i);
                let e = &mut engines[i];
                if e.queue.is_empty() {
                    if let EngineOp::Plan(_) = op {
                        counts
                            .mismatches
                            .note(|| format!("planning round on empty queue (instance {i})"));
                    }
                    continue;
                }
                counts.plan_calls += 1;
                counts.queue_sum += e.queue.len() as u64;
                if VIEWS {
                    running_views.clear();
                    let mut used = 0u64;
                    for &(r, generated) in &e.running {
                        let s = spec(r);
                        used += u64::from(s.input_len) + u64::from(generated);
                        running_views.push(RunningRequest {
                            id: r.into(),
                            input_len: s.input_len,
                            generated,
                            max_new_tokens: s.max_new_tokens,
                            oracle_remaining: None,
                        });
                    }
                    queue_views.clear();
                    for &(r, generated) in e.queue.iter().take(PLAN_WINDOW) {
                        let s = spec(r);
                        queue_views.push(QueuedRequest {
                            id: r.into(),
                            input_len: s.input_len,
                            generated,
                            max_new_tokens: s.max_new_tokens,
                            oracle_remaining: None,
                        });
                    }
                    let memory = MemoryState {
                        capacity_tokens: capacity,
                        used_tokens: used,
                    };
                    if PLAN {
                        check += e
                            .scheduler
                            .plan_admission(&running_views, &queue_views, &memory)
                            as u64;
                    } else {
                        check += black_box(&running_views).len() as u64
                            + black_box(&queue_views).len() as u64
                            + black_box(&memory).used_tokens;
                    }
                }
            }
            EngineOp::Admit(i, r) => {
                let i = engine(&mut engines, i);
                let e = &mut engines[i];
                let at = match e.queue.front() {
                    Some(&(front, _)) if front == r => 0,
                    _ => {
                        counts
                            .mismatches
                            .note(|| format!("request {r} admitted from behind the queue front"));
                        e.queue
                            .iter()
                            .position(|&(q, _)| q == r)
                            .unwrap_or(usize::MAX)
                    }
                };
                let Some((_, generated)) = e.queue.remove(at) else {
                    counts
                        .mismatches
                        .note(|| format!("request {r} admitted but never queued"));
                    continue;
                };
                e.running.push((r, generated));
                if IDS {
                    let s = spec(r);
                    let needed = u64::from(s.input_len) + u64::from(generated) + 1;
                    let reserve = u64::from(s.input_len) + u64::from(s.max_new_tokens);
                    counts.kv_ops += 1;
                    if POOL {
                        check += u64::from(e.pool.allocate(r.into(), needed, reserve).is_ok());
                    } else {
                        check += black_box(needed + reserve);
                    }
                }
            }
            EngineOp::Token(i, r) => {
                let i = engine(&mut engines, i);
                match engines[i].running.iter_mut().rev().find(|(q, _)| *q == r) {
                    Some(entry) => entry.1 += 1,
                    None => counts
                        .mismatches
                        .note(|| format!("prefill token for idle request {r}")),
                }
            }
            EngineOp::Step(i, batch) => {
                let i = engine(&mut engines, i);
                let e = &mut engines[i];
                if e.running.len() != batch as usize {
                    counts.mismatches.note(|| {
                        format!(
                            "decode batch {} on instance {i}, trace says {batch}",
                            e.running.len()
                        )
                    });
                }
                if IDS {
                    ids.clear();
                    ids.extend(e.running.iter().map(|&(r, _)| u64::from(r)));
                    counts.kv_ops += 1 + ids.len() as u64;
                    if POOL {
                        check += e.pool.extension_shortfall(&ids).unwrap_or(1);
                        for &id in &ids {
                            check += u64::from(e.pool.extend(id, 1).is_ok());
                        }
                    } else {
                        check += black_box(&ids).len() as u64;
                    }
                }
                for entry in &mut e.running {
                    entry.1 += 1;
                }
            }
            EngineOp::Preempt(i, r) | EngineOp::Finish(i, r) => {
                let i = engine(&mut engines, i);
                let e = &mut engines[i];
                let Some(pos) = e.running.iter().rposition(|&(q, _)| q == r) else {
                    counts
                        .mismatches
                        .note(|| format!("request {r} left a batch it was not in"));
                    continue;
                };
                let (_, generated) = e.running.remove(pos);
                if let EngineOp::Preempt(..) = op {
                    e.queue.push_front((r, generated));
                } else if PLAN {
                    e.scheduler.on_request_finished(generated);
                }
                if IDS {
                    counts.kv_ops += 1;
                    if POOL {
                        check += e.pool.release(r.into());
                    } else {
                        check += black_box(u64::from(r));
                    }
                }
            }
            EngineOp::Drop(i, r) => {
                let i = engine(&mut engines, i);
                let e = &mut engines[i];
                if let Some(pos) = e.queue.iter().position(|&(q, _)| q == r) {
                    e.queue.remove(pos);
                }
            }
            EngineOp::Cache(i, tokens) => {
                let i = engine(&mut engines, i);
                if IDS {
                    counts.kv_ops += 2;
                    if POOL {
                        let pool = &mut engines[i].pool;
                        check += pool.release(PREFIX_SENTINEL);
                        if tokens > 0 {
                            let t = u64::from(tokens);
                            check += u64::from(pool.allocate(PREFIX_SENTINEL, t, t).is_ok());
                        }
                    } else {
                        check += black_box(u64::from(tokens));
                    }
                }
            }
        }
    }
    check
}

fn engine_layers(rec: &Recorded<'_>, out: &mut Layers) {
    let block_tokens = rec
        .config
        .prefix_cache
        .and_then(|p| p.block_tokens)
        .map_or(0, u64::from);
    let ops = engine_ops(rec.events, block_tokens);
    // One untimed pass collects the counts and checks the stream.
    let mut counts = EngineCounts::default();
    replay_engine::<true, true, true, true>(&ops, rec, &mut counts);
    let mut scratch = EngineCounts::default();
    let mut admission_with = || replay_engine::<true, true, false, false>(&ops, rec, &mut scratch);
    let mut scratch = EngineCounts::default();
    let mut admission_without =
        || replay_engine::<true, false, false, false>(&ops, rec, &mut scratch);
    let mut scratch = EngineCounts::default();
    let mut pool_with = || replay_engine::<false, false, true, true>(&ops, rec, &mut scratch);
    let mut scratch = EngineCounts::default();
    let mut pool_without = || replay_engine::<false, false, true, false>(&ops, rec, &mut scratch);
    let t = time_variants(&mut [
        &mut admission_with,
        &mut admission_without,
        &mut pool_with,
        &mut pool_without,
    ]);
    out.plan_s = t[0] - t[1];
    out.kvpool_s = t[2] - t[3];
    out.plan_calls = counts.plan_calls;
    out.queue_sum = counts.queue_sum;
    out.kv_ops = counts.kv_ops;
    out.mismatches.merge(counts.mismatches);
}

// ---------------------------------------------------------------------
// prefix (BlockPrefixCache)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum PrefixOp {
    Lookup(u32, u32),
    Insert(u32, u32),
    /// Pool-pressure eviction down to the given occupancy.
    Evict(u32, u64),
}

fn prefix_layer(rec: &Recorded<'_>, out: &mut Layers) {
    let Some(prefix) = rec.config.prefix_cache else {
        return;
    };
    let Some(block_tokens) = prefix.block_tokens else {
        return;
    };
    let budget = prefix.budget_tokens(rec.config.capacity_tokens());
    let new_cache = || BlockPrefixCache::new(budget, block_tokens);
    // Build the stream by running real caches alongside the trace: where
    // the trace shows fewer blocks than the replayed cache holds once a
    // KV flush is complete, the engine evicted under pool pressure.
    let mut caches: Vec<BlockPrefixCache> = Vec::new();
    let mut traced_blocks: Vec<u64> = Vec::new();
    let mut flushed: Vec<bool> = Vec::new();
    let mut ops = Vec::new();
    let grow = |caches: &mut Vec<BlockPrefixCache>, i: usize| {
        while caches.len() <= i {
            caches.push(new_cache());
        }
    };
    for ev in rec.events {
        let Some(inst) = ev.instance() else { continue };
        let i = inst as usize;
        match ev {
            TraceEvent::KvStored { .. } => {
                *slot(&mut traced_blocks, i) += 1;
                *slot(&mut flushed, i) = true;
                continue;
            }
            TraceEvent::KvRemoved { .. } => {
                *slot(&mut traced_blocks, i) -= 1;
                *slot(&mut flushed, i) = true;
                out.blocks_removed += 1;
                continue;
            }
            _ => {}
        }
        if std::mem::take(slot(&mut flushed, i)) {
            grow(&mut caches, i);
            let target = traced_blocks[i] * u64::from(block_tokens);
            if caches[i].used_tokens() > target {
                caches[i].evict_down_to(target);
                ops.push(PrefixOp::Evict(inst, target));
            }
        }
        match *ev {
            TraceEvent::Admitted { .. } => {
                grow(&mut caches, i);
                let r = request(ev);
                caches[i].lookup_run(rec.specs[r].matchable_blocks(block_tokens));
                ops.push(PrefixOp::Lookup(inst, r as u32));
                out.lookups += 1;
            }
            TraceEvent::Finished { .. } => {
                let r = request(ev);
                let s = &rec.specs[r];
                if s.prefix_id.is_some() || s.system_prompt_id.is_some() {
                    grow(&mut caches, i);
                    caches[i].insert_chain(s.storable_blocks(block_tokens, s.true_output_len));
                    ops.push(PrefixOp::Insert(inst, r as u32));
                    out.inserts += 1;
                }
            }
            _ => {}
        }
    }
    let run = |lookups: bool, inserts: bool| -> u64 {
        let mut caches: Vec<BlockPrefixCache> = Vec::new();
        let mut check = 0u64;
        for &op in &ops {
            match op {
                PrefixOp::Lookup(i, r) => {
                    let i = i as usize;
                    grow(&mut caches, i);
                    let s = &rec.specs[r as usize];
                    if lookups {
                        check += caches[i].lookup_run(s.matchable_blocks(block_tokens));
                    } else {
                        check += black_box(s).input_len as u64;
                    }
                }
                PrefixOp::Insert(i, r) => {
                    let i = i as usize;
                    grow(&mut caches, i);
                    let s = &rec.specs[r as usize];
                    if inserts {
                        check += caches[i]
                            .insert_chain(s.storable_blocks(block_tokens, s.true_output_len));
                    } else {
                        check += black_box(s).input_len as u64;
                    }
                }
                PrefixOp::Evict(i, target) => {
                    let i = i as usize;
                    grow(&mut caches, i);
                    if inserts {
                        check += caches[i].evict_down_to(target);
                    } else {
                        check += black_box(target);
                    }
                }
            }
        }
        check
    };
    let t = time_variants(&mut [
        &mut || run(true, true),
        &mut || run(false, true),
        &mut || run(false, false),
    ]);
    out.lookup_s = t[0] - t[1];
    out.insert_s = t[1] - t[2];
}

// ---------------------------------------------------------------------
// router (KvIndexer scoring), static cluster
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum RouterOp {
    Publish(u32, KvEvent, u64),
    /// A routing decision for the request at the given time, and the
    /// instance it went to.
    Route(u32, u64, u32),
}

fn router_layer(rec: &Recorded<'_>, out: &mut Layers) {
    let Some(block_tokens) = rec.config.prefix_cache.and_then(|p| p.block_tokens) else {
        return;
    };
    let delay = rec.config.router.kv_event_delay.as_micros();
    let n = rec.instances as u32;
    let mut ops = Vec::new();
    for ev in rec.events {
        match *ev {
            TraceEvent::KvStored {
                at,
                instance,
                block,
            } => ops.push(RouterOp::Publish(
                instance,
                // The index only reads the block and its size.
                KvEvent::Stored {
                    block,
                    parent: 0,
                    tokens: u64::from(block_tokens),
                },
                at.as_micros(),
            )),
            TraceEvent::KvRemoved {
                at,
                instance,
                block,
            } => ops.push(RouterOp::Publish(
                instance,
                KvEvent::Removed { block },
                at.as_micros(),
            )),
            TraceEvent::Enqueued {
                at,
                instance,
                request,
            } => ops.push(RouterOp::Route(request as u32, at.as_micros(), instance)),
            _ => {}
        }
    }
    let chain_of = |spec: &RequestSpec, chain: &mut Vec<u64>| {
        chain.clear();
        let mut parent = pf_kvcache::KV_ROOT_HASH;
        for content in spec.matchable_blocks(block_tokens) {
            parent = block_hash(parent, content);
            chain.push(parent);
        }
    };
    // Untimed pass: what the index showed the router.
    {
        let mut index = KvIndexer::new(delay);
        let mut chain = Vec::new();
        for &op in &ops {
            match op {
                RouterOp::Publish(i, ev, at) => {
                    index.publish(i, ev, at);
                    out.index_events += 1;
                }
                RouterOp::Route(r, at, chosen) => {
                    index.advance(at);
                    let spec = &rec.specs[r as usize];
                    chain_of(spec, &mut chain);
                    let overlap = index.overlap(chosen, &chain);
                    out.queries += 1;
                    out.routed_prompt_tokens += u64::from(spec.input_len);
                    out.routed_overlap_tokens += overlap;
                    out.routed_hits += u64::from(overlap > 0);
                }
            }
        }
    }
    let run = |call: bool| -> u64 {
        let mut index = KvIndexer::new(delay);
        let mut chain = Vec::new();
        let mut check = 0u64;
        for &op in &ops {
            match op {
                RouterOp::Publish(i, ev, at) => {
                    if call {
                        index.publish(i, ev, at);
                    } else {
                        check += black_box(at);
                    }
                }
                RouterOp::Route(r, at, _) => {
                    let spec = &rec.specs[r as usize];
                    if call {
                        index.advance(at);
                        chain_of(spec, &mut chain);
                        for i in 0..n {
                            check += index.overlap(i, &chain);
                        }
                    } else {
                        check += black_box(spec).input_len as u64;
                    }
                }
            }
        }
        check
    };
    let t = time_variants(&mut [&mut || run(true), &mut || run(false)]);
    out.router_s = t[0] - t[1];
}

// ---------------------------------------------------------------------
// admission (AdmissionIndex), disaggregated decode pool
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum IndexOp {
    Probe(u32, BatchEntry, u64),
    Admit(u32, BatchEntry, u64),
    Retire(u32, u64),
}

/// One decode member, as `try_start_decode`/`on_decode_done` drive it.
#[derive(Default)]
struct DecodeState {
    /// `(request, generated)` handoffs waiting for admission.
    pending: VecDeque<(u32, u32)>,
    running: Vec<(u32, u32)>,
    index: AdmissionIndex,
    steps: u64,
    busy: bool,
}

fn index_layer(rec: &Recorded<'_>, out: &mut Layers) {
    let capacity = rec.config.capacity_tokens();
    let entry = |r: u32, generated: u32| {
        let s = &rec.specs[r as usize];
        BatchEntry {
            committed: u64::from(s.input_len) + u64::from(generated),
            remaining: u64::from(s.true_output_len.saturating_sub(generated)),
        }
    };
    let mut members: Vec<DecodeState> = Vec::new();
    let mut ops = Vec::new();
    let try_start = |m: &mut DecodeState, j: u32, ops: &mut Vec<IndexOp>| {
        if m.busy {
            return;
        }
        while let Some(&(r, generated)) = m.pending.front() {
            let candidate = entry(r, generated);
            ops.push(IndexOp::Probe(j, candidate, m.steps));
            if m.index.peak_with(candidate, m.steps) > capacity {
                break;
            }
            m.pending.pop_front();
            ops.push(IndexOp::Admit(j, candidate, m.steps));
            m.index.admit(candidate, m.steps);
            m.steps = 0;
            m.running.push((r, generated));
        }
        m.busy = !m.running.is_empty();
    };
    for ev in rec.events {
        match *ev {
            TraceEvent::KvTransferEnd { instance, .. } => {
                let m = slot(&mut members, instance as usize);
                // The first token came from the prefill pass.
                m.pending.push_back((request(ev) as u32, 1));
                try_start(m, instance, &mut ops);
            }
            TraceEvent::DecodeStep {
                instance, batch, ..
            } => {
                let Some(m) = members.get_mut(instance as usize) else {
                    continue; // a colocated step; disagg steps follow handoffs
                };
                if m.running.len() != batch as usize {
                    out.mismatches.note(|| {
                        format!(
                            "decode batch {} on instance {instance}, trace says {batch}",
                            m.running.len()
                        )
                    });
                }
                m.busy = false;
                let before = m.running.len();
                m.running.retain_mut(|(r, generated)| {
                    *generated += 1;
                    *generated < rec.specs[*r as usize].true_output_len
                });
                if m.running.len() == before {
                    m.steps += 1;
                } else {
                    ops.push(IndexOp::Retire(instance, m.steps + 1));
                    let retired = m.index.retire_due(m.steps + 1);
                    if retired != before - m.running.len() {
                        out.mismatches
                            .note(|| format!("index retired {retired} on instance {instance}"));
                    }
                    m.steps = 0;
                }
                try_start(m, instance, &mut ops);
            }
            _ => {}
        }
    }
    out.index_probes = ops
        .iter()
        .filter(|op| matches!(op, IndexOp::Probe(..)))
        .count() as u64;
    let run = |call: bool| -> u64 {
        let mut index: Vec<AdmissionIndex> = Vec::new();
        let mut check = 0u64;
        for &op in &ops {
            match op {
                IndexOp::Probe(j, candidate, steps) => {
                    if call {
                        check += slot(&mut index, j as usize).peak_with(candidate, steps);
                    } else {
                        check += black_box(candidate.committed + steps);
                    }
                }
                IndexOp::Admit(j, candidate, steps) => {
                    if call {
                        slot(&mut index, j as usize).admit(candidate, steps);
                    } else {
                        check += black_box(candidate.remaining + steps);
                    }
                }
                IndexOp::Retire(j, steps) => {
                    if call {
                        check += slot(&mut index, j as usize).retire_due(steps) as u64;
                    } else {
                        check += black_box(steps);
                    }
                }
            }
        }
        check
    };
    let t = time_variants(&mut [&mut || run(true), &mut || run(false)]);
    out.index_s = t[0] - t[1];
}

// ---------------------------------------------------------------------
// link (LinkScheduler), streamed disaggregated transfers
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum LinkOp {
    Start(u64, StreamSpec),
    Advance(u64),
    Project,
}

fn link_layer(rec: &Recorded<'_>, out: &mut Layers) {
    let (gbps, overhead_us) = rec.link.expect("streamed run");
    let n = rec.specs.len();
    let mut arrival = vec![0u64; n];
    let mut pass_start = vec![0u64; n];
    let mut pass_end = vec![0u64; n];
    for ev in rec.events {
        match *ev {
            TraceEvent::Enqueued { at, .. } => arrival[request(ev)] = at.as_micros(),
            TraceEvent::PrefillStart { at, .. } => pass_start[request(ev)] = at.as_micros(),
            TraceEvent::PrefillEnd { at, .. } => pass_end[request(ev)] = at.as_micros(),
            _ => {}
        }
    }
    let kv_bytes = rec.config.model.kv_bytes_per_token();
    let chunks = rec.config.model.n_layers;
    // Streams open at their pass start, one group per pass, in the order
    // the trace announced them.
    let mut starts: Vec<(u64, u32, StreamSpec)> = Vec::new();
    for ev in rec.events {
        if let TraceEvent::KvTransferStart { instance, .. } = *ev {
            let r = request(ev);
            let start = pass_start[r];
            let weight = if start.saturating_sub(arrival[r]) >= AGING_CAP_US {
                2.0
            } else {
                1.0
            };
            starts.push((
                start,
                instance,
                StreamSpec {
                    bytes: (u64::from(rec.specs[r].input_len) + 1) * kv_bytes,
                    produce_start_us: start,
                    produce_end_us: pass_end[r],
                    chunks,
                    weight,
                },
            ));
        }
    }
    starts.sort_by_key(|&(start, ..)| start);
    // Drive the scheduler the way the disagg event loop does: open a
    // pass's streams, project the next completion, advance to it.
    let mut link = LinkScheduler::new(gbps, overhead_us);
    let mut done: Vec<StreamDone> = Vec::new();
    let mut ops = Vec::new();
    let mut next = 0;
    loop {
        let wake = link.next_event_us();
        ops.push(LinkOp::Project);
        match starts.get(next) {
            Some(&(at, inst, _)) if wake.is_none_or(|w| at <= w) => {
                while let Some(&(t, i, spec)) = starts.get(next) {
                    if t != at || i != inst {
                        break;
                    }
                    link.start_stream(t, spec);
                    ops.push(LinkOp::Start(t, spec));
                    next += 1;
                }
            }
            _ => match wake {
                Some(w) => {
                    let landed = done.len();
                    link.advance(w, &mut done);
                    ops.push(LinkOp::Advance(w));
                    if done.len() == landed && link.next_event_us() == Some(w) {
                        out.mismatches
                            .note(|| format!("link projection at {w} us never completes"));
                        break;
                    }
                }
                None => break,
            },
        }
    }
    out.streams = starts.len() as u64;
    out.link_utilization = link.utilization();
    if done.len() != starts.len() {
        out.mismatches.note(|| {
            format!(
                "{} of {} replayed streams completed",
                done.len(),
                starts.len()
            )
        });
    }
    out.advances = ops
        .iter()
        .filter(|op| matches!(op, LinkOp::Start(..) | LinkOp::Advance(_)))
        .count() as u64;
    out.projections = ops
        .iter()
        .filter(|op| matches!(op, LinkOp::Project))
        .count() as u64;
    let run = |advance: bool, project: bool| -> u64 {
        let mut link = LinkScheduler::new(gbps, overhead_us);
        let mut done = Vec::new();
        let mut check = 0u64;
        for &op in &ops {
            match op {
                LinkOp::Start(t, spec) => {
                    if advance {
                        check += link.start_stream(t, spec) as u64;
                    } else {
                        check += black_box(t);
                    }
                }
                LinkOp::Advance(t) => {
                    if advance {
                        link.advance(t, &mut done);
                    } else {
                        check += black_box(t);
                    }
                }
                LinkOp::Project => {
                    if project {
                        check += link.next_event_us().unwrap_or(0);
                    } else {
                        check += black_box(1);
                    }
                }
            }
        }
        check + done.len() as u64
    };
    let t = time_variants(&mut [
        &mut || run(true, true),
        &mut || run(true, false),
        &mut || run(false, false),
    ]);
    out.projection_s = t[0] - t[1];
    out.advance_s = t[1] - t[2];
}
