//! The workspace's only wall-clock site.
//!
//! Simulated time is the repository's currency everywhere else — replay
//! from a seed must reproduce every number bit-identically, and host time
//! cannot be replayed. Self-profiling (the `benchmark/` package) is the one
//! legitimate consumer of wall time, and it goes through this module, the
//! one `#[expect]` of the `clippy.toml` ban on `Instant::now`. Do not read
//! `Instant`/`SystemTime` anywhere else; measured durations must never feed
//! back into simulation state.

use std::time::Instant;

/// Wall-clock seconds `f` takes to run once.
#[expect(
    clippy::disallowed_methods,
    reason = "self-profiling wall time; it never feeds back into simulation state"
)]
pub fn wall_secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_secs_is_nonnegative() {
        let mut calls = 0;
        let secs = wall_secs(|| calls += 1);
        assert_eq!(calls, 1);
        assert!(secs >= 0.0 && secs.is_finite());
    }
}
