//! A shared KV-transfer link modeled as a fluid, weighted max-min
//! fair-share resource (progressive filling).
//!
//! Every prefill→decode KV handoff in [`crate::disagg`] is one stream on
//! this link: an atomic handoff is a single chunk that becomes eligible
//! when its prefill pass ends, a layer-streamed one ships a chunk per
//! layer while the pass is still running. Many streams share the link at
//! once, and completion times shift whenever a stream joins or leaves.
//! [`LinkScheduler`] implements that model exactly:
//!
//! - Chunk `ℓ ∈ 1..=L` of a stream producing over `[start, end]` becomes
//!   eligible at `start + ceil((end − start)·ℓ/L)` — the pass emits KV
//!   proportionally, so the last chunk is eligible exactly at `end`.
//! - At any instant the link capacity `C = link_gbps·1e9` bytes/s is split
//!   among *active* streams (open, with eligible bytes not yet delivered)
//!   in proportion to their weights: `r_i = C·w_i / Σ_active w_j`. A
//!   stream throttled by eligibility (transfer caught up with production)
//!   temporarily leaves the active set and its share redistributes — the
//!   classic progressive-filling construction of weighted max-min
//!   fairness.
//! - The fluid trajectory is piecewise linear; the scheduler advances it
//!   breakpoint by breakpoint (stream drains, eligibility boundaries), so
//!   completion times are exact, not discretised.
//! - `per_hop_overhead` is charged **once per stream**, appended after the
//!   last byte lands (not per chunk — see the disagg module docs).
//!
//! All state advances through deterministic `f64` arithmetic in a fixed
//! order, so replays are bit-identical.
//!
//! # Walking the fluid once
//!
//! Three things keep a walk cheap without moving any result bit:
//!
//! - **Cached eligibility.** Each open stream keeps a small record whose
//!   `limit` (bytes eligible) and `boundary` (when that next changes) are
//!   step functions of `floor(cursor)`. They stay exact while
//!   `cursor < boundary`, so a step re-derives them, with their integer
//!   divisions, only when the cursor reaches the boundary.
//! - **A projection the next advance reuses.**
//!   [`LinkScheduler::next_event_us`] walks a scratch copy of the records
//!   to the first drain and keeps the walked state, keyed by the
//!   generation and the bit pattern of the cursor it started from.
//!   Between generation bumps the state changes only when the cursor
//!   moves, so the key pins the state. The next advance adopts that
//!   state instead of walking again when the key still matches, chunks
//!   are not being recorded, and the target lies at least 1 µs past the
//!   drain: then the target cap binds at none of the walked steps. A
//!   repeated projection on unchanged state returns the kept result.
//!   Debug builds re-walk every reuse from scratch and assert that it
//!   matches.
//! - **A floor that walks nothing.** No stream drains before its last
//!   chunk is eligible, so [`LinkScheduler::drain_floor_us`] bounds the
//!   next completion from the production ends alone. The disagg driver
//!   wakes at that floor and projects only then: a join before it bumps
//!   the generation and drops the wake unwalked, where a projection at
//!   every join would be thrown away. Debug builds assert the floor
//!   against every walk.

/// One stream's shape: how many bytes, over which production window, in
/// how many chunks, at what fair-share weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Total payload in bytes (must be positive).
    pub bytes: u64,
    /// When production (the prefill pass) starts, in µs.
    pub produce_start_us: u64,
    /// When production ends, in µs (`>= produce_start_us`). With
    /// `produce_end_us == produce_start_us` every chunk is eligible
    /// immediately (post-hoc transfer).
    pub produce_end_us: u64,
    /// Number of equal chunks (layers); must be positive.
    pub chunks: u32,
    /// Fair-share weight (finite, positive). Higher weights draw a larger
    /// share of the link while contended.
    pub weight: f64,
}

/// A completed stream, reported by [`LinkScheduler::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDone {
    /// Stream id, as returned by [`LinkScheduler::start_stream`].
    pub id: usize,
    /// When the last byte cleared the link, in µs.
    pub transmit_end_us: u64,
    /// `transmit_end_us` plus the per-stream overhead: when the receiver
    /// may use the KV.
    pub done_us: u64,
}

/// Delivered-byte slack below which a stream counts as caught up.
const EPS_BYTES: f64 = 1e-6;
/// Cursor slack (µs) below which two fluid instants are the same.
const EPS_US: f64 = 1e-9;

/// What a stream leaves behind: its final byte count and, when recording
/// is on, its chunk landing times.
#[derive(Debug, Clone, Default)]
struct Stream {
    /// Bytes delivered, written when the stream closes (an open stream's
    /// count lives in its [`Open`] record).
    delivered: f64,
    /// Chunk landing times (µs), recorded when enabled.
    landings: Vec<u64>,
}

/// An open stream's fluid state, with its chunk eligibility cached.
///
/// `limit` (bytes eligible) and `boundary` (the next instant that changes
/// it) are step functions of `floor(cursor)` and stay exact while
/// `cursor < boundary`, so a step re-derives them only once the cursor
/// reaches the boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Open {
    id: usize,
    spec: StreamSpec,
    /// `spec.bytes` as `f64`.
    bytes: f64,
    delivered: f64,
    limit: f64,
    /// Next eligibility boundary in µs, `INFINITY` once every chunk is
    /// eligible.
    boundary: f64,
    /// Fair-share rate over the current step (bytes/µs), set while active.
    rate: f64,
}

impl Open {
    fn new(id: usize, spec: StreamSpec, cursor: f64) -> Self {
        let mut open = Open {
            id,
            spec,
            bytes: spec.bytes as f64,
            delivered: 0.0,
            limit: 0.0,
            boundary: 0.0,
            rate: 0.0,
        };
        open.refresh(cursor);
        open
    }

    /// Re-derives `limit` and `boundary` at fluid time `t`.
    fn refresh(&mut self, t: f64) {
        let StreamSpec {
            produce_start_us: start,
            produce_end_us: end,
            chunks,
            ..
        } = self.spec;
        let span = end - start;
        let l = u64::from(chunks);
        (self.limit, self.boundary) = if span == 0 || t >= end as f64 {
            (self.bytes, f64::INFINITY)
        } else if t < start as f64 {
            // Production starts in the future: nothing yet, first chunk next.
            (0.0, (start + span.div_ceil(l)) as f64)
        } else {
            // Chunk ℓ is eligible at start + ceil(span·ℓ/L), an integer, so
            // count chunks via the equivalent integer test
            // span·ℓ ≤ floor(t−start)·L. `floor(t) < end` keeps k below L.
            let elapsed = (t as u64).saturating_sub(start);
            let k = mul_div(elapsed, l, span, false);
            let limit = (self.bytes * k as f64 / l as f64).min(self.bytes);
            (limit, (start + mul_div(span, k + 1, l, true)) as f64)
        };
    }

    /// A lower bound on the µs (the ceiled fluid instant) this stream can
    /// drain at, given the ceiled cursor: that cursor once a limit before
    /// production ends can already reach the drain slack (a zero-span
    /// stream, or a chunk below `EPS_BYTES`), else the production end.
    /// The largest limit before the end is the one `refresh` computes for
    /// `k = L − 1`, as rounding is monotone. The end is also taken as the
    /// `f64` that `refresh` compares against, which rounds past 2⁵³ µs.
    fn drain_floor_us(&self, cursor_us: u64) -> u64 {
        let l = f64::from(self.spec.chunks);
        let end = self.spec.produce_end_us;
        if end == self.spec.produce_start_us || self.bytes * (l - 1.0) / l >= self.bytes - EPS_BYTES
        {
            cursor_us
        } else {
            end.min((end as f64) as u64)
        }
    }

    /// Has eligible bytes not yet delivered.
    fn active(&self) -> bool {
        self.delivered < self.limit - EPS_BYTES
    }

    fn drained(&self) -> bool {
        self.delivered >= self.bytes - EPS_BYTES
    }

    /// Records each chunk threshold crossed in a step that started at
    /// `cursor` with `before` bytes delivered, at its exact fluid
    /// crossing time.
    fn record_landings(&self, landings: &mut Vec<u64>, before: f64, cursor: f64) {
        let chunk = self.bytes / self.spec.chunks as f64;
        let mut c = landings.len() + 1;
        while c <= self.spec.chunks as usize && self.delivered >= chunk * c as f64 - EPS_BYTES {
            let at = cursor + (chunk * c as f64 - before).max(0.0) / self.rate;
            landings.push(at.ceil() as u64);
            c += 1;
        }
    }
}

/// `a·b/d`, rounded up when `ceil`, in `u64` unless the product
/// overflows it, then exactly in `u128` (the quotient fits `u64` at every
/// call site).
fn mul_div(a: u64, b: u64, d: u64, ceil: bool) -> u64 {
    match (a.checked_mul(b), ceil) {
        (Some(p), false) => p / d,
        (Some(p), true) => p.div_ceil(d),
        (None, false) => (u128::from(a) * u128::from(b) / u128::from(d)) as u64,
        (None, true) => (u128::from(a) * u128::from(b)).div_ceil(u128::from(d)) as u64,
    }
}

/// What one fluid step did.
enum Step {
    /// Every open stream waited on production: the cursor jumped to the
    /// next eligibility boundary or the horizon, and no byte moved.
    Idle,
    /// Bytes moved for `dt` µs; `drained` when a stream delivered its last
    /// byte.
    Moved { dt: f64, drained: bool },
}

/// Advances `open` by one breakpoint from `*cursor`, never past
/// `horizon`: a stream drains or catches up with production, an
/// eligibility boundary passes, or the horizon is reached. With
/// `landings`, chunk landing times are recorded into it.
///
/// The arithmetic is the fluid model's reference order: the weight sum in
/// ascending id order, each rate as `bytes_per_us · w / Σw`, and `dt` as
/// a plain minimum, which no order changes.
///
/// Panics on a step that moves neither the cursor nor a byte, in release
/// builds too: the walk would otherwise spin forever.
fn step(
    open: &mut [Open],
    cursor: &mut f64,
    horizon: f64,
    bytes_per_us: f64,
    mut landings: Option<&mut [Stream]>,
) -> Step {
    let at = *cursor;
    let mut weight_sum = 0.0;
    let mut boundary = f64::INFINITY;
    for o in open.iter_mut() {
        if at >= o.boundary {
            o.refresh(at);
        }
        if o.active() {
            weight_sum += o.spec.weight;
        }
        boundary = boundary.min(o.boundary);
    }
    if weight_sum <= 0.0 {
        // Idle (or everyone throttled by production): jump to the next
        // eligibility boundary or the horizon, whichever is sooner.
        *cursor = boundary.min(horizon).max(at);
        assert!(*cursor > at, "fluid step stalled");
        return Step::Idle;
    }
    let mut dt = (horizon - at).min(boundary - at);
    for o in open.iter_mut() {
        if o.active() {
            o.rate = bytes_per_us * o.spec.weight / weight_sum;
            dt = dt.min((o.limit - o.delivered) / o.rate);
        }
    }
    assert!(dt.is_finite() && dt > 0.0, "fluid step stalled");
    let mut drained = false;
    for o in open.iter_mut() {
        if o.active() {
            let before = o.delivered;
            o.delivered = (before + o.rate * dt).min(o.limit);
            if let Some(streams) = landings.as_deref_mut() {
                o.record_landings(&mut streams[o.id].landings, before, at);
            }
        }
        drained |= o.drained();
    }
    *cursor = at + dt;
    Step::Moved { dt, drained }
}

/// A projection's walk to its first drain, kept for the `sync_to` that
/// follows it.
#[derive(Debug, Clone, Default, PartialEq)]
struct Projection {
    /// `(generation, cursor bits)` the walk started from; `None` once
    /// adopted or never walked.
    key: Option<(u64, u64)>,
    /// The open records after the drain step, drained streams included.
    open: Vec<Open>,
    cursor: f64,
    busy_us: f64,
    done_us: Option<u64>,
}

impl Projection {
    /// Walks a copy of `link`'s open streams to the first drain, leaving
    /// the key to the caller.
    fn walk(&mut self, link: &LinkScheduler) {
        self.open.clear();
        self.open.extend_from_slice(&link.open);
        self.cursor = link.cursor;
        self.busy_us = link.busy_us;
        self.done_us = loop {
            match step(
                &mut self.open,
                &mut self.cursor,
                f64::INFINITY,
                link.bytes_per_us,
                None,
            ) {
                Step::Idle if self.cursor == f64::INFINITY => break None,
                Step::Idle => {}
                Step::Moved { dt, drained } => {
                    self.busy_us += dt;
                    if drained {
                        break Some(self.cursor.ceil() as u64 + link.overhead_us);
                    }
                }
            }
        };
    }
}

/// The shared-link bandwidth scheduler (see the module docs).
#[derive(Debug, Clone)]
pub struct LinkScheduler {
    /// Link capacity in bytes per microsecond.
    bytes_per_us: f64,
    overhead_us: u64,
    streams: Vec<Stream>,
    /// The open streams, ascending by id (ids are handed out in order);
    /// the fluid loops walk only these, never the closed history.
    open: Vec<Open>,
    /// Fluid clock, fractional µs. Monotone.
    cursor: f64,
    /// Integral of time with at least one active stream, in µs.
    busy_us: f64,
    /// Bumped whenever the completion schedule may have changed (stream
    /// joins, completions drained). Stale wake-ups compare against this.
    generation: u64,
    record_chunks: bool,
    pending: Vec<StreamDone>,
    /// The last `next_event_us` walk (see the module docs).
    projection: Projection,
}

impl LinkScheduler {
    /// Creates a scheduler for a link of `link_gbps` GB/s charging
    /// `overhead_us` once per stream after its last byte.
    ///
    /// # Panics
    ///
    /// Panics unless the bandwidth is finite and positive.
    pub fn new(link_gbps: f64, overhead_us: u64) -> Self {
        assert!(
            link_gbps.is_finite() && link_gbps > 0.0,
            "invalid link bandwidth {link_gbps}"
        );
        LinkScheduler {
            bytes_per_us: link_gbps * 1e3,
            overhead_us,
            streams: Vec::new(),
            open: Vec::new(),
            cursor: 0.0,
            busy_us: 0.0,
            generation: 0,
            record_chunks: false,
            pending: Vec::new(),
            projection: Projection::default(),
        }
    }

    /// Enables per-chunk landing-time recording (for tests and tracing).
    pub fn record_chunks(mut self, on: bool) -> Self {
        self.record_chunks = on;
        self
    }

    /// Opens a new stream at `now_us` and returns its id. The fluid model
    /// is advanced to `now_us` first; the join invalidates previously
    /// projected completion times (the generation is bumped).
    ///
    /// # Panics
    ///
    /// Panics on an empty or malformed spec.
    pub fn start_stream(&mut self, now_us: u64, spec: StreamSpec) -> usize {
        assert!(spec.bytes > 0, "empty stream");
        assert!(spec.chunks > 0, "stream needs at least one chunk");
        assert!(
            spec.produce_end_us >= spec.produce_start_us,
            "production window ends before it starts"
        );
        assert!(
            spec.weight.is_finite() && spec.weight > 0.0,
            "invalid stream weight {}",
            spec.weight
        );
        self.sync_to(now_us as f64);
        let id = self.streams.len();
        self.streams.push(Stream::default());
        self.open.push(Open::new(id, spec, self.cursor));
        self.generation += 1;
        id
    }

    /// Advances the fluid model to `now_us` and drains any streams that
    /// completed at or before it into `out`. Bumps the generation when a
    /// completion was drained (remaining streams just sped up).
    pub fn advance(&mut self, now_us: u64, out: &mut Vec<StreamDone>) {
        self.sync_to(now_us as f64);
        if !self.pending.is_empty() {
            out.append(&mut self.pending);
            self.generation += 1;
        }
    }

    /// The current completion-schedule generation (see
    /// [`LinkScheduler::start_stream`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Projects the next stream-completion instant (`done_us`, overhead
    /// included), or `None` when idle. The fluid model does not move: the
    /// walk runs on a scratch copy, which is kept for the next
    /// [`LinkScheduler::advance`] and for a repeated call on unchanged
    /// state.
    pub fn next_event_us(&mut self) -> Option<u64> {
        if self.open.is_empty() {
            return None;
        }
        let key = Some((self.generation, self.cursor.to_bits()));
        if self.projection.key == key {
            self.debug_assert_projection_fresh();
            return self.projection.done_us;
        }
        // Taking the kept walk out reuses its buffer while `walk` reads the
        // scheduler.
        let mut projection = std::mem::take(&mut self.projection);
        projection.walk(self);
        projection.key = key;
        self.projection = projection;
        debug_assert!(
            self.projection.done_us >= self.drain_floor_us(),
            "the drain floor passed the projected completion"
        );
        self.projection.done_us
    }

    /// A lower bound on [`LinkScheduler::next_event_us`] that walks no
    /// step, or `None` when idle: no stream drains before its last chunk
    /// is eligible at its production end, unless its chunks are too small
    /// to tell (then the cursor bounds it).
    pub fn drain_floor_us(&self) -> Option<u64> {
        let cursor_us = self.cursor.ceil() as u64;
        let floor = self
            .open
            .iter()
            .map(|o| o.drain_floor_us(cursor_us))
            .min()?;
        Some(floor + self.overhead_us)
    }

    /// Bytes delivered so far on stream `id`.
    pub fn delivered_bytes(&self, id: usize) -> f64 {
        match self.open.binary_search_by_key(&id, |o| o.id) {
            Ok(slot) => self.open[slot].delivered,
            Err(_) => self.streams[id].delivered,
        }
    }

    /// Chunk landing times (µs) recorded for stream `id` (empty unless
    /// recording is enabled).
    pub fn chunk_landings(&self, id: usize) -> &[u64] {
        &self.streams[id].landings
    }

    /// Number of streams currently open (transmitting or waiting on
    /// production).
    pub fn inflight(&self) -> usize {
        self.open.len()
    }

    /// Total time the link spent transmitting, in seconds.
    pub fn busy_secs(&self) -> f64 {
        self.busy_us / 1e6
    }

    /// Running-mean utilization: busy time over elapsed fluid time.
    pub fn utilization(&self) -> f64 {
        if self.cursor <= 0.0 {
            return 0.0;
        }
        (self.busy_us / self.cursor).clamp(0.0, 1.0)
    }

    /// Advances the fluid trajectory to `target` (fractional µs),
    /// breakpoint by breakpoint, closing streams whose last byte lands.
    ///
    /// When the last projection walked from this very state (same
    /// generation, bit-equal cursor), chunks are not being recorded, and
    /// `target` lies at least 1 µs past the projected drain, the walk up
    /// to that drain is the projection's: the `target − cursor` cap binds
    /// at none of its steps, so the projected state is adopted as is and
    /// only the rest of the way is walked.
    fn sync_to(&mut self, target: f64) {
        let p = &self.projection;
        if !self.record_chunks
            && p.key == Some((self.generation, self.cursor.to_bits()))
            && p.done_us.is_some()
            && target >= p.cursor + 1.0
        {
            self.debug_assert_projection_fresh();
            std::mem::swap(&mut self.open, &mut self.projection.open);
            self.projection.key = None;
            self.cursor = self.projection.cursor;
            self.busy_us = self.projection.busy_us;
            self.close_drained();
        }
        while self.cursor < target - EPS_US {
            let landings = self.record_chunks.then_some(&mut self.streams[..]);
            match step(
                &mut self.open,
                &mut self.cursor,
                target,
                self.bytes_per_us,
                landings,
            ) {
                Step::Idle => {}
                Step::Moved { dt, drained } => {
                    self.busy_us += dt;
                    if drained {
                        self.close_drained();
                    }
                }
            }
        }
        self.cursor = self.cursor.max(target);
    }

    /// Closes the drained streams at the cursor, in id order.
    fn close_drained(&mut self) {
        let transmit_end_us = self.cursor.ceil() as u64;
        let done_us = transmit_end_us + self.overhead_us;
        let LinkScheduler {
            open,
            streams,
            pending,
            ..
        } = self;
        open.retain(|o| {
            if !o.drained() {
                return true;
            }
            streams[o.id].delivered = o.delivered;
            pending.push(StreamDone {
                id: o.id,
                transmit_end_us,
                done_us,
            });
            false
        });
    }

    /// Debug builds re-walk every projection hit from scratch, as the
    /// engine does for its cached true M*.
    fn debug_assert_projection_fresh(&self) {
        if cfg!(debug_assertions) {
            let mut fresh = Projection {
                key: self.projection.key,
                ..Projection::default()
            };
            fresh.walk(self);
            assert!(fresh == self.projection, "stale link projection");
        }
    }
}
