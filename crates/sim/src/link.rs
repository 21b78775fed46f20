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

#[derive(Debug, Clone)]
struct Stream {
    spec: StreamSpec,
    delivered: f64,
    /// Chunk landing times (µs), recorded when enabled.
    landings: Vec<u64>,
}

impl Stream {
    fn span_us(&self) -> u64 {
        self.spec.produce_end_us - self.spec.produce_start_us
    }

    /// Bytes eligible for transfer at fluid time `t` (µs).
    fn eligible_at(&self, t: f64) -> f64 {
        let bytes = self.spec.bytes as f64;
        let span = self.span_us();
        if span == 0 || t >= self.spec.produce_end_us as f64 {
            return bytes;
        }
        let start = self.spec.produce_start_us;
        if t < start as f64 {
            return 0.0;
        }
        // Chunk ℓ is eligible at start + ceil(span·ℓ/L), an integer, so
        // count chunks via the equivalent integer test span·ℓ ≤ floor(t−start)·L.
        let elapsed = (t as u64).saturating_sub(start);
        let l = self.spec.chunks as u64;
        let k = (elapsed * l / span).min(l);
        bytes * k as f64 / l as f64
    }

    /// The next eligibility boundary strictly after `t`, if production is
    /// still ahead of the cursor.
    fn next_boundary(&self, t: f64) -> Option<u64> {
        let span = self.span_us();
        if span == 0 || t >= self.spec.produce_end_us as f64 {
            return None;
        }
        let start = self.spec.produce_start_us;
        if t < start as f64 {
            // First chunk's boundary (production may start in the future).
            let l = self.spec.chunks as u64;
            return Some(start + span.div_ceil(l));
        }
        let elapsed = (t as u64).saturating_sub(start);
        let l = self.spec.chunks as u64;
        let k = (elapsed * l / span).min(l);
        if k >= l {
            return None;
        }
        Some(start + (span * (k + 1)).div_ceil(l))
    }
}

/// Delivered-byte slack below which a stream counts as caught up.
const EPS_BYTES: f64 = 1e-6;
/// Cursor slack (µs) below which two fluid instants are the same.
const EPS_US: f64 = 1e-9;

/// The shared-link bandwidth scheduler (see the module docs).
#[derive(Debug, Clone)]
pub struct LinkScheduler {
    /// Link capacity in bytes per microsecond.
    bytes_per_us: f64,
    overhead_us: u64,
    streams: Vec<Stream>,
    /// Ids of the open streams, ascending (ids are handed out in order);
    /// the fluid loops walk only these, never the closed history.
    open: Vec<usize>,
    /// Fluid clock, fractional µs. Monotone.
    cursor: f64,
    /// Integral of time with at least one active stream, in µs.
    busy_us: f64,
    /// Bumped whenever the completion schedule may have changed (stream
    /// joins, completions drained). Stale wake-ups compare against this.
    generation: u64,
    record_chunks: bool,
    pending: Vec<StreamDone>,
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
        self.streams.push(Stream {
            spec,
            delivered: 0.0,
            landings: Vec::new(),
        });
        self.open.push(id);
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
    /// included) without mutating the model, or `None` when idle.
    pub fn next_event_us(&self) -> Option<u64> {
        let open = &self.open;
        if open.is_empty() {
            return None;
        }
        let mut cursor = self.cursor;
        let mut delivered: Vec<f64> = open.iter().map(|&i| self.streams[i].delivered).collect();
        // Piecewise-linear projection: identical fluid algorithm to
        // `sync_to`, run forward on scratch state until the first drain.
        loop {
            let mut weight_sum = 0.0;
            for (slot, &i) in open.iter().enumerate() {
                let s = &self.streams[i];
                let limit = s.eligible_at(cursor).min(s.spec.bytes as f64);
                if delivered[slot] < limit - EPS_BYTES {
                    weight_sum += s.spec.weight;
                }
            }
            if weight_sum <= 0.0 {
                // Everyone is caught up with production: idle-jump to the
                // earliest future eligibility boundary.
                let next = open
                    .iter()
                    .filter_map(|&i| self.streams[i].next_boundary(cursor))
                    .min()?;
                cursor = next as f64;
                continue;
            }
            let mut dt = f64::INFINITY;
            for (slot, &i) in open.iter().enumerate() {
                let s = &self.streams[i];
                let limit = s.eligible_at(cursor).min(s.spec.bytes as f64);
                if delivered[slot] < limit - EPS_BYTES {
                    let rate = self.bytes_per_us * s.spec.weight / weight_sum;
                    dt = dt.min((limit - delivered[slot]) / rate);
                }
                if let Some(b) = s.next_boundary(cursor) {
                    dt = dt.min(b as f64 - cursor);
                }
            }
            debug_assert!(dt.is_finite() && dt > 0.0);
            let mut first_done: Option<u64> = None;
            for (slot, &i) in open.iter().enumerate() {
                let s = &self.streams[i];
                let limit = s.eligible_at(cursor).min(s.spec.bytes as f64);
                if delivered[slot] < limit - EPS_BYTES {
                    let rate = self.bytes_per_us * s.spec.weight / weight_sum;
                    delivered[slot] = (delivered[slot] + rate * dt).min(limit);
                }
                if delivered[slot] >= s.spec.bytes as f64 - EPS_BYTES {
                    let end = (cursor + dt).ceil() as u64 + self.overhead_us;
                    first_done = Some(first_done.map_or(end, |e: u64| e.min(end)));
                }
            }
            cursor += dt;
            if let Some(done) = first_done {
                return Some(done);
            }
        }
    }

    /// Bytes delivered so far on stream `id`.
    pub fn delivered_bytes(&self, id: usize) -> f64 {
        self.streams[id].delivered
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
    fn sync_to(&mut self, target: f64) {
        while self.cursor < target - EPS_US {
            let mut weight_sum = 0.0;
            for &id in &self.open {
                let s = &self.streams[id];
                let limit = s.eligible_at(self.cursor).min(s.spec.bytes as f64);
                if s.delivered < limit - EPS_BYTES {
                    weight_sum += s.spec.weight;
                }
            }
            if weight_sum <= 0.0 {
                // Idle (or everyone throttled by production): jump to the
                // next eligibility boundary or the target, whichever is
                // sooner.
                let next = self
                    .open
                    .iter()
                    .filter_map(|&id| self.streams[id].next_boundary(self.cursor))
                    .min()
                    .map_or(target, |b| (b as f64).min(target));
                self.cursor = next.max(self.cursor);
                continue;
            }
            // Breakpoints: a stream drains, a chunk becomes eligible, or
            // we reach the target.
            let mut dt = target - self.cursor;
            for &id in &self.open {
                let s = &self.streams[id];
                let limit = s.eligible_at(self.cursor).min(s.spec.bytes as f64);
                if s.delivered < limit - EPS_BYTES {
                    let rate = self.bytes_per_us * s.spec.weight / weight_sum;
                    dt = dt.min((limit - s.delivered) / rate);
                }
                if let Some(b) = s.next_boundary(self.cursor) {
                    dt = dt.min(b as f64 - self.cursor);
                }
            }
            debug_assert!(dt.is_finite() && dt > 0.0, "fluid step stalled");
            let cursor = self.cursor;
            let after = cursor + dt;
            let record = self.record_chunks;
            let bytes_per_us = self.bytes_per_us;
            let overhead_us = self.overhead_us;
            let streams = &mut self.streams;
            let pending = &mut self.pending;
            self.open.retain(|&id| {
                let s = &mut streams[id];
                let bytes = s.spec.bytes as f64;
                let limit = s.eligible_at(cursor).min(bytes);
                if s.delivered < limit - EPS_BYTES {
                    let rate = bytes_per_us * s.spec.weight / weight_sum;
                    let before = s.delivered;
                    s.delivered = (before + rate * dt).min(limit);
                    if record {
                        // Record each chunk threshold crossed in this
                        // interval at its exact fluid crossing time.
                        let chunk = bytes / s.spec.chunks as f64;
                        let mut c = s.landings.len() + 1;
                        while c <= s.spec.chunks as usize
                            && s.delivered >= chunk * c as f64 - EPS_BYTES
                        {
                            let at = cursor + (chunk * c as f64 - before).max(0.0) / rate;
                            s.landings.push(at.ceil() as u64);
                            c += 1;
                        }
                    }
                }
                if s.delivered < bytes - EPS_BYTES {
                    return true;
                }
                let transmit_end_us = after.ceil() as u64;
                pending.push(StreamDone {
                    id,
                    transmit_end_us,
                    done_us: transmit_end_us + overhead_us,
                });
                false
            });
            self.busy_us += dt;
            self.cursor = after;
        }
        self.cursor = self.cursor.max(target);
    }
}
