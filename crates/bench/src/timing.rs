//! The workspace's only wall-clock site outside the shims.
//!
//! Simulated time is the repository's currency everywhere else — replay
//! from a seed must reproduce every number bit-identically, and host time
//! cannot be replayed. Self-profiling (the `benchmark/` package) is the one
//! legitimate consumer of wall time, and it goes through this module so
//! the `pf-lint` D2 rule can allowlist exactly one file instead of
//! whitelisting call sites ad hoc. Do not read `Instant`/`SystemTime`
//! anywhere else; measured durations must never feed back into simulation
//! state.

use std::time::Instant;

/// Wall-clock seconds `f` takes to run once.
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
