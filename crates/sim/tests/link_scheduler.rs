//! Property tests for the shared-link fluid scheduler: chunk ordering,
//! byte conservation, capacity respect, per-stream overhead,
//! deterministic replay, and bit-for-bit agreement with the direct fluid
//! walk.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use pf_sim::link::{LinkScheduler, StreamDone, StreamSpec};

/// Drives the scheduler the way the disagg run does: wake at the next
/// projected completion, drain, repeat until the link is idle.
fn drive(link: &mut LinkScheduler) -> Vec<StreamDone> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    while let Some(at_us) = link.next_event_us() {
        link.advance(at_us, &mut buf);
        out.append(&mut buf);
    }
    out
}

fn spec(bytes: u64, start: u64, span: u64, chunks: u32, weight: f64) -> StreamSpec {
    StreamSpec {
        bytes,
        produce_start_us: start,
        produce_end_us: start + span,
        chunks,
        weight,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary stream mixes: every chunk lands in order and never
    /// before production makes it eligible, every stream delivers exactly
    /// its bytes, the link never moves more bytes than capacity times
    /// busy time, and the whole trajectory replays bit-identically.
    #[test]
    fn fluid_link_conserves_bytes_orders_chunks_and_respects_capacity(
        gbps in 1.0f64..100.0,
        overhead_us in 0u64..500,
        streams in proptest::collection::vec(
            (1_000u64..5_000_000, 0u64..200_000, 0u64..300_000, 1u32..48, 1.0f64..2.0),
            1..10,
        ),
    ) {
        let run = |record: bool| {
            let mut link = LinkScheduler::new(gbps, overhead_us).record_chunks(record);
            let mut ids = Vec::new();
            for &(bytes, start, span, chunks, weight) in &streams {
                ids.push(link.start_stream(start, spec(bytes, start, span, chunks, weight)));
            }
            let done = drive(&mut link);
            (link, ids, done)
        };
        let (link, ids, done) = run(true);

        prop_assert_eq!(done.len(), streams.len());
        prop_assert_eq!(link.inflight(), 0);
        let capacity_bytes_per_us = gbps * 1e3;
        let mut total_bytes = 0u64;
        for (&id, &(bytes, start, span, chunks, _)) in ids.iter().zip(&streams) {
            total_bytes += bytes;
            // Delivered bytes are conserved exactly (within fluid slack).
            prop_assert!((link.delivered_bytes(id) - bytes as f64).abs() < 1e-3);
            let landings = link.chunk_landings(id);
            prop_assert_eq!(landings.len(), chunks as usize);
            let mut prev = 0u64;
            for (k, &at) in landings.iter().enumerate() {
                // Chunk k never lands before chunk k-1 ...
                prop_assert!(at >= prev, "chunk {} landed at {} before {}", k, at, prev);
                prev = at;
                // ... and never before production makes it eligible.
                let eligible = start + (span * (k as u64 + 1)).div_ceil(u64::from(chunks));
                prop_assert!(
                    at >= eligible,
                    "chunk {} landed at {} before eligibility {}",
                    k, at, eligible,
                );
            }
            let this = done.iter().find(|d| d.id == id).expect("every stream completes");
            // The overhead is charged once per stream, after the last byte.
            prop_assert_eq!(this.done_us, this.transmit_end_us + overhead_us);
            prop_assert!(this.transmit_end_us >= start + span);
            prop_assert!(this.transmit_end_us + 1 >= *landings.last().expect("chunks >= 1"));
        }
        // Aggregate rate never exceeds the link: total bytes fit in the
        // busy-time integral at full capacity (1 µs of ceil slack per
        // breakpoint is absorbed by the fluid epsilon).
        prop_assert!(
            total_bytes as f64 <= capacity_bytes_per_us * (link.busy_secs() * 1e6) + 1.0,
            "moved {} bytes in {} busy-us at {} bytes/us",
            total_bytes, link.busy_secs() * 1e6, capacity_bytes_per_us,
        );

        // Deterministic replay: identical completions and landings.
        let (link2, ids2, done2) = run(true);
        prop_assert_eq!(&done, &done2);
        for (&a, &b) in ids.iter().zip(&ids2) {
            prop_assert_eq!(link.chunk_landings(a), link2.chunk_landings(b));
        }
        // Recording observes the walk without changing it: the path the
        // simulator runs, where projections are reused, lands every stream
        // at the same instants.
        let (unrecorded, _, done3) = run(false);
        prop_assert_eq!(&done, &done3);
        prop_assert_eq!(link.busy_secs().to_bits(), unrecorded.busy_secs().to_bits());
    }
}

/// Charging the overhead per stream (not per chunk) means a stream's
/// completion time is independent of how finely it is chunked when
/// production is instantaneous.
#[test]
fn overhead_is_charged_once_per_stream_regardless_of_chunking() {
    let mut done_times = Vec::new();
    for chunks in [1u32, 8, 32, 128] {
        let mut link = LinkScheduler::new(25.0, 200);
        link.start_stream(0, spec(1_000_000, 0, 0, chunks, 1.0));
        let done = drive(&mut link);
        assert_eq!(done.len(), 1);
        done_times.push(done[0].done_us);
    }
    // 1 MB at 25 GB/s = 40 µs of wire time, plus one 200 µs overhead.
    assert!(done_times.iter().all(|&t| t == 40 + 200), "{done_times:?}");
}

/// Weighted max-min fair share: a weight-2 stream drains twice as fast as
/// a weight-1 rival while both are backlogged, and the freed share
/// redistributes after it completes.
#[test]
fn fair_share_splits_bandwidth_by_weight() {
    let mut link = LinkScheduler::new(1.0, 0); // 1 GB/s = 1e3 bytes/µs
    let heavy = link.start_stream(0, spec(1_000_000, 0, 0, 1, 2.0));
    let light = link.start_stream(0, spec(1_000_000, 0, 0, 1, 1.0));
    let done = drive(&mut link);
    let end = |id: usize| done.iter().find(|d| d.id == id).unwrap().transmit_end_us;
    // Heavy drains at rate 2C/3: 1e6 / (2e3/3) = 1500 µs. Light then has
    // 0.5e6 bytes left and the full link: 1500 + 500 = 2000 µs.
    assert_eq!(end(heavy), 1500);
    assert_eq!(end(light), 2000);
    assert!((link.busy_secs() - 2000e-6).abs() < 1e-9);
    assert!((link.utilization() - 1.0).abs() < 1e-9);
}

/// A stream throttled by production (link faster than the prefill pass)
/// lands each chunk at its eligibility boundary and finishes exactly at
/// the pass end plus its overhead.
#[test]
fn production_throttled_stream_finishes_with_the_pass() {
    let mut link = LinkScheduler::new(100.0, 50).record_chunks(true);
    // 10 kB over a 10 ms pass in 10 chunks: each 1 kB chunk needs 0.01 µs
    // of wire time but arrives every 1000 µs — pure eligibility limit.
    let id = link.start_stream(0, spec(10_000, 0, 10_000, 10, 1.0));
    let done = drive(&mut link);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].transmit_end_us, 10_001); // last chunk + 1 µs ceil
    assert_eq!(done[0].done_us, 10_051);
    for (k, &at) in link.chunk_landings(id).iter().enumerate() {
        let eligible = 1000 * (k as u64 + 1);
        assert!(at >= eligible && at <= eligible + 1, "chunk {k} at {at}");
    }
}

/// A long production window in many chunks: joined at its middle,
/// `elapsed·L` and `span·(k + 1)` overflow `u64`, and the eligible bytes
/// and the next boundary must still be the exact ones.
#[test]
fn eligibility_stays_exact_where_chunk_products_overflow_u64() {
    let (span, chunks) = (4_000_000_000_000_000u64, 10_000u32);
    // One chunk is 25 kB, 1 µs of wire time at 25 GB/s: every delivery
    // below is exact.
    let bytes = 25_000 * u64::from(chunks);
    let join = span / 2;
    let l = u128::from(chunks);
    assert!(join.checked_mul(u64::from(chunks)).is_none());
    let k = (u128::from(join) * l / u128::from(span)) as u64;
    let eligible = |k: u64| bytes as f64 * k as f64 / f64::from(chunks);
    let next = (u128::from(span) * u128::from(k + 1)).div_ceil(l) as u64;

    let mut link = LinkScheduler::new(25.0, 0);
    let id = link.start_stream(join, spec(bytes, 0, span, chunks, 1.0));
    let mut done = Vec::new();
    link.advance(join + 10_000, &mut done);
    assert_eq!(link.delivered_bytes(id), eligible(k));
    link.advance(next - 1, &mut done);
    assert_eq!(link.delivered_bytes(id), eligible(k));
    link.advance(next + 10, &mut done);
    assert_eq!(link.delivered_bytes(id), eligible(k + 1));
    // The last chunk is eligible at the end and lands 1 µs later.
    assert_eq!(link.drain_floor_us(), Some(span));
    assert_eq!(link.next_event_us(), Some(span + 1));
    assert!(done.is_empty());
}

/// A chunk below the drain slack lets a stream count as drained before
/// its production ends, so its completion floor falls back to the cursor
/// instead of the production end.
#[test]
fn drain_floor_stays_below_a_sub_slack_chunk_stream_drain() {
    let (end, overhead_us) = (4_000_000, 200);
    let mut link = LinkScheduler::new(25.0, overhead_us);
    // Joined 2 µs before the end, its eligible share is already within
    // 1e-6 of its single byte.
    link.start_stream(end - 2, spec(1, 0, end, u32::MAX, 1.0));
    let floor = link.drain_floor_us().expect("a stream is open");
    let done = link.next_event_us().expect("a stream is open");
    assert!(
        done < end + overhead_us,
        "drains before production ends: {done}"
    );
    assert!(floor <= done, "floor {floor} past the completion {done}");
}

/// The fluid walk written the direct way: every step re-derives each open
/// stream's chunk eligibility, and every projection walks afresh from the
/// live state. [`LinkScheduler`] caches both, and the lockstep property
/// below holds it to this walk bit for bit.
mod reference {
    use pf_sim::link::{StreamDone, StreamSpec};

    const EPS_BYTES: f64 = 1e-6;
    const EPS_US: f64 = 1e-9;

    #[derive(Debug, Clone)]
    struct Stream {
        spec: StreamSpec,
        delivered: f64,
        landings: Vec<u64>,
    }

    impl Stream {
        fn span_us(&self) -> u64 {
            self.spec.produce_end_us - self.spec.produce_start_us
        }

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
            let elapsed = (t as u64).saturating_sub(start);
            let l = self.spec.chunks as u64;
            let k = (elapsed * l / span).min(l);
            bytes * k as f64 / l as f64
        }

        fn next_boundary(&self, t: f64) -> Option<u64> {
            let span = self.span_us();
            if span == 0 || t >= self.spec.produce_end_us as f64 {
                return None;
            }
            let start = self.spec.produce_start_us;
            if t < start as f64 {
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

    #[derive(Debug, Clone)]
    pub struct Link {
        bytes_per_us: f64,
        overhead_us: u64,
        streams: Vec<Stream>,
        open: Vec<usize>,
        cursor: f64,
        busy_us: f64,
        record_chunks: bool,
        pending: Vec<StreamDone>,
    }

    impl Link {
        pub fn new(link_gbps: f64, overhead_us: u64, record_chunks: bool) -> Self {
            Link {
                bytes_per_us: link_gbps * 1e3,
                overhead_us,
                streams: Vec::new(),
                open: Vec::new(),
                cursor: 0.0,
                busy_us: 0.0,
                record_chunks,
                pending: Vec::new(),
            }
        }

        pub fn start_stream(&mut self, now_us: u64, spec: StreamSpec) -> usize {
            self.sync_to(now_us as f64);
            let id = self.streams.len();
            self.streams.push(Stream {
                spec,
                delivered: 0.0,
                landings: Vec::new(),
            });
            self.open.push(id);
            id
        }

        pub fn advance(&mut self, now_us: u64, out: &mut Vec<StreamDone>) {
            self.sync_to(now_us as f64);
            out.append(&mut self.pending);
        }

        pub fn next_event_us(&self) -> Option<u64> {
            let open = &self.open;
            if open.is_empty() {
                return None;
            }
            let mut cursor = self.cursor;
            let mut delivered: Vec<f64> = open.iter().map(|&i| self.streams[i].delivered).collect();
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

        pub fn delivered_bytes(&self, id: usize) -> f64 {
            self.streams[id].delivered
        }

        pub fn chunk_landings(&self, id: usize) -> &[u64] {
            &self.streams[id].landings
        }

        pub fn busy_secs(&self) -> f64 {
            self.busy_us / 1e6
        }

        pub fn utilization(&self) -> f64 {
            if self.cursor <= 0.0 {
                return 0.0;
            }
            (self.busy_us / self.cursor).clamp(0.0, 1.0)
        }

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
                    let next = self
                        .open
                        .iter()
                        .filter_map(|&id| self.streams[id].next_boundary(self.cursor))
                        .min()
                        .map_or(target, |b| (b as f64).min(target));
                    self.cursor = next.max(self.cursor);
                    continue;
                }
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
}

/// One step of the lockstep driver, decoded from a random tuple.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Opens a stream at `now + shift`; a negative shift joins at or
    /// before the fluid cursor.
    Start {
        shift: i64,
        spec_seed: (u64, u64, u32, f64),
    },
    /// Projects, then advances to the instant `To` picks from the wake,
    /// or projects a second time when there is none.
    Project(Option<To>),
    /// Advances by this many µs without projecting first.
    AdvanceBy(u64),
}

/// Where an advance after a projection goes.
#[derive(Debug, Clone, Copy)]
enum To {
    /// The projected wake.
    Wake,
    /// This fraction of the way to the wake: mid-walk, before the
    /// projected drain.
    Early(f64),
    /// The wake minus the overhead: the drain's `ceil`, less than 1 µs
    /// past the drain itself.
    TransmitEnd,
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..9,
        0u64..60_000,
        1_000u64..3_000_000,
        0u64..400_000,
        1u32..40,
        0usize..3,
    )
        .prop_map(|(kind, x, bytes, y, chunks, w)| {
            let spec_seed = (bytes, y, chunks, [1.0, 1.0, 2.0][w]);
            let shift = (x % 20_000) as i64;
            match kind {
                0 | 1 => Op::Start { shift, spec_seed },
                2 => Op::Start {
                    shift: -shift,
                    spec_seed,
                },
                3 => Op::Project(None),
                4 | 5 => Op::Project(Some(To::Wake)),
                6 => Op::Project(Some(To::Early((x % 1000) as f64 / 1000.0))),
                7 => Op::Project(Some(To::TransmitEnd)),
                _ => Op::AdvanceBy(x),
            }
        })
}

/// A stream opened at `at`: production starting then, in the future or
/// in the past; zero-span (post-hoc) about a quarter of the time.
fn lockstep_spec(at: u64, (bytes, y, chunks, weight): (u64, u64, u32, f64)) -> StreamSpec {
    let start = match y % 3 {
        0 => at,
        1 => at + y % 50_000,
        _ => at.saturating_sub(y % 5_000),
    };
    let span = if y % 4 == 0 { 0 } else { y % 200_000 };
    spec(bytes, start, span, chunks, weight)
}

/// Asserts that the scheduler and the reference agree bit for bit, and
/// that the drain floor exists exactly when a projection does and never
/// passes it. The projection is compared on a clone, so the check leaves
/// the scheduler's kept projection as the operations left it.
fn assert_lockstep(
    link: &LinkScheduler,
    reference: &reference::Link,
    opened: usize,
    record: bool,
) -> Result<(), TestCaseError> {
    let projected = link.clone().next_event_us();
    prop_assert_eq!(projected, reference.next_event_us());
    let floor = link.drain_floor_us();
    prop_assert_eq!(floor.is_some(), projected.is_some());
    if let (Some(floor), Some(projected)) = (floor, projected) {
        prop_assert!(floor <= projected, "floor {} past {}", floor, projected);
    }
    for id in 0..opened {
        prop_assert_eq!(
            link.delivered_bytes(id).to_bits(),
            reference.delivered_bytes(id).to_bits(),
            "delivered bytes of stream {}",
            id
        );
        if record {
            prop_assert_eq!(link.chunk_landings(id), reference.chunk_landings(id));
        }
    }
    prop_assert_eq!(link.busy_secs().to_bits(), reference.busy_secs().to_bits());
    prop_assert_eq!(
        link.utilization().to_bits(),
        reference.utilization().to_bits()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The cached walk and its kept projection reproduce the direct walk
    /// exactly, whatever order the operations come in: joins before the
    /// cursor, streams producing in the future, zero-span streams, tied
    /// weights, repeated projections, and advances that stop short of a
    /// projected drain.
    #[test]
    fn cached_walk_matches_the_direct_walk_bit_for_bit(
        gbps in 1.0f64..100.0,
        overhead in 0usize..3,
        record in 0u8..4,
        ops in proptest::collection::vec(op(), 1..80),
    ) {
        let overhead_us = [0, 1, 200][overhead];
        let record = record == 0;
        let mut link = LinkScheduler::new(gbps, overhead_us).record_chunks(record);
        let mut reference = reference::Link::new(gbps, overhead_us, record);
        let (mut done, mut expected) = (Vec::new(), Vec::new());
        let mut now = 0u64;
        let mut opened = 0;
        let drain = std::iter::repeat_n(Op::Project(Some(To::Wake)), 200);
        for op in ops.iter().copied().chain(drain) {
            let target = match op {
                Op::Start { shift, spec_seed } => {
                    let at = now.saturating_add_signed(shift);
                    let spec = lockstep_spec(at, spec_seed);
                    prop_assert_eq!(link.start_stream(at, spec), reference.start_stream(at, spec));
                    opened += 1;
                    now = now.max(at);
                    None
                }
                Op::Project(to) => {
                    let wake = link.next_event_us();
                    prop_assert_eq!(wake, reference.next_event_us());
                    match to {
                        None => {
                            prop_assert_eq!(link.next_event_us(), wake);
                            None
                        }
                        Some(To::Wake) => wake,
                        Some(To::Early(frac)) => {
                            wake.map(|w| now + (w.saturating_sub(now) as f64 * frac) as u64)
                        }
                        Some(To::TransmitEnd) => wake.map(|w| w - overhead_us),
                    }
                }
                Op::AdvanceBy(by) => Some(now + by),
            };
            if let Some(t) = target {
                link.advance(t, &mut done);
                reference.advance(t, &mut expected);
                prop_assert_eq!(&done, &expected);
                now = now.max(t);
            }
            assert_lockstep(&link, &reference, opened, record)?;
        }
        prop_assert_eq!(link.inflight(), 0, "the trailing wakes drain every stream");
        prop_assert_eq!(done.len(), opened);
    }
}
