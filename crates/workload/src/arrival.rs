//! Arrival processes.
//!
//! The paper's goodput experiments (Figure 7/9) simulate *closed-loop*
//! clients: each client keeps exactly one request in flight and submits the
//! next one as soon as the previous finishes, so offered load scales with
//! the number of clients. The ablations (Table 1, Figure 8) use *offline*
//! runs where all requests are available up front. An open-loop Poisson
//! process is also provided for rate-controlled studies.

use rand::Rng;

use pf_metrics::{SimDuration, SimTime};

/// Closed-loop client pool configuration.
///
/// This is a plain description consumed by the simulation driver in
/// `pf-sim`: `n_clients` requests are in flight at any time (until the
/// workload is exhausted), and a client submits its next request the
/// instant it receives the last token of the previous one (zero think
/// time, the paper's setting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedLoopClients {
    /// Number of concurrent clients.
    pub n_clients: usize,
}

impl ClosedLoopClients {
    /// `n` clients.
    pub fn new(n_clients: usize) -> Self {
        ClosedLoopClients { n_clients }
    }
}

/// Open-loop Poisson arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    /// Mean arrival rate in requests per second.
    pub rate_per_s: f64,
}

impl PoissonArrivals {
    /// Creates a process with the given mean rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub fn new(rate_per_s: f64) -> Self {
        assert!(
            rate_per_s.is_finite() && rate_per_s > 0.0,
            "invalid arrival rate {rate_per_s}"
        );
        PoissonArrivals { rate_per_s }
    }

    /// Draws `n` arrival timestamps starting at time zero (sorted,
    /// exponential inter-arrival gaps).
    pub fn assign<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<SimTime> {
        let mut now = 0.0f64;
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                now += -(1.0 - u).ln() / self.rate_per_s;
                SimTime::from_secs_f64(now)
            })
            .collect()
    }
}

/// A deterministic time-varying arrival-rate profile (requests per second
/// as a function of simulated time).
///
/// These are the load shapes the elastic-autoscaling experiments exercise:
/// a smooth *diurnal* cycle (think day/night traffic compressed into a
/// simulated period) and an on/off *bursty* square wave (batch jobs, retry
/// storms). Both are periodic so a seasonal predictor has something to
/// learn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateProfile {
    /// Sinusoidal cycle from `base_per_s` (at phase 0) up to `peak_per_s`
    /// (at half period) and back.
    Diurnal {
        /// Trough arrival rate in requests per second.
        base_per_s: f64,
        /// Peak arrival rate in requests per second.
        peak_per_s: f64,
        /// Length of one full cycle.
        period: SimDuration,
    },
    /// Square wave: `burst_per_s` for the first `burst_len` of every
    /// `period`, `base_per_s` otherwise.
    Bursty {
        /// Quiet-phase arrival rate in requests per second.
        base_per_s: f64,
        /// Burst-phase arrival rate in requests per second.
        burst_per_s: f64,
        /// Duration of the burst within each period.
        burst_len: SimDuration,
        /// Length of one full cycle.
        period: SimDuration,
    },
}

impl RateProfile {
    /// Creates a diurnal profile, validating the parameters.
    ///
    /// # Panics
    ///
    /// Panics if rates are not finite/positive, `peak < base`, or the
    /// period is zero.
    pub fn diurnal(base_per_s: f64, peak_per_s: f64, period: SimDuration) -> Self {
        assert!(
            base_per_s.is_finite() && base_per_s > 0.0,
            "invalid base rate {base_per_s}"
        );
        assert!(
            peak_per_s.is_finite() && peak_per_s >= base_per_s,
            "peak rate {peak_per_s} below base {base_per_s}"
        );
        assert!(!period.is_zero(), "zero diurnal period");
        RateProfile::Diurnal {
            base_per_s,
            peak_per_s,
            period,
        }
    }

    /// Creates a bursty profile, validating the parameters.
    ///
    /// # Panics
    ///
    /// Panics if rates are not finite/positive, `burst < base`, or
    /// `burst_len` is zero or not shorter than `period`.
    pub fn bursty(
        base_per_s: f64,
        burst_per_s: f64,
        burst_len: SimDuration,
        period: SimDuration,
    ) -> Self {
        assert!(
            base_per_s.is_finite() && base_per_s > 0.0,
            "invalid base rate {base_per_s}"
        );
        assert!(
            burst_per_s.is_finite() && burst_per_s >= base_per_s,
            "burst rate {burst_per_s} below base {base_per_s}"
        );
        assert!(
            !burst_len.is_zero() && burst_len < period,
            "burst length must be positive and shorter than the period"
        );
        RateProfile::Bursty {
            base_per_s,
            burst_per_s,
            burst_len,
            period,
        }
    }

    /// Instantaneous arrival rate at simulated time `t`.
    fn rate_at(&self, t: SimTime) -> f64 {
        match *self {
            RateProfile::Diurnal {
                base_per_s,
                peak_per_s,
                period,
            } => {
                let phase = t.as_secs_f64() / period.as_secs_f64();
                let swing = 0.5 * (1.0 - (std::f64::consts::TAU * phase).cos());
                base_per_s + (peak_per_s - base_per_s) * swing
            }
            RateProfile::Bursty {
                base_per_s,
                burst_per_s,
                burst_len,
                period,
            } => {
                let in_period = t.as_micros() % period.as_micros();
                if in_period < burst_len.as_micros() {
                    burst_per_s
                } else {
                    base_per_s
                }
            }
        }
    }

    /// Upper bound of the rate over all times (the thinning envelope).
    fn max_rate(&self) -> f64 {
        match *self {
            RateProfile::Diurnal { peak_per_s, .. } => peak_per_s,
            RateProfile::Bursty { burst_per_s, .. } => burst_per_s,
        }
    }

    /// Length of one cycle.
    pub fn period(&self) -> SimDuration {
        match *self {
            RateProfile::Diurnal { period, .. } | RateProfile::Bursty { period, .. } => period,
        }
    }

    /// Draws `n` arrival timestamps from the non-homogeneous Poisson
    /// process with this rate function (Lewis–Shedler thinning: candidates
    /// at the envelope rate, accepted with probability `rate(t)/max`).
    pub fn assign<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<SimTime> {
        let envelope = self.max_rate();
        let mut now = 0.0f64;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let u: f64 = rng.gen();
            now += -(1.0 - u).ln() / envelope;
            let t = SimTime::from_secs_f64(now);
            let accept: f64 = rng.gen();
            if accept * envelope < self.rate_at(t) {
                out.push(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn closed_loop_builder() {
        let c = ClosedLoopClients::new(40);
        assert_eq!(c.n_clients, 40);
    }

    #[test]
    fn poisson_mean_rate() {
        let mut rng = seeded(1);
        let arrivals = PoissonArrivals::new(50.0).assign(&mut rng, 20_000);
        let span = arrivals.last().unwrap().as_secs_f64();
        let rate = 20_000.0 / span;
        assert!((rate - 50.0).abs() < 2.0, "observed rate {rate}");
    }

    #[test]
    fn poisson_is_sorted_and_deterministic() {
        let a = PoissonArrivals::new(10.0).assign(&mut seeded(2), 100);
        let b = PoissonArrivals::new(10.0).assign(&mut seeded(2), 100);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "invalid arrival rate")]
    fn zero_rate_panics() {
        let _ = PoissonArrivals::new(0.0);
    }

    #[test]
    fn diurnal_rate_cycles_between_base_and_peak() {
        let p = RateProfile::diurnal(2.0, 10.0, SimDuration::from_secs(100));
        assert!((p.rate_at(SimTime::ZERO) - 2.0).abs() < 1e-9);
        assert!((p.rate_at(SimTime::from_secs(50)) - 10.0).abs() < 1e-9);
        assert!((p.rate_at(SimTime::from_secs(100)) - 2.0).abs() < 1e-9);
        let quarter = p.rate_at(SimTime::from_secs(25));
        assert!((quarter - 6.0).abs() < 1e-9, "midpoint rate {quarter}");
        assert_eq!(p.max_rate(), 10.0);
    }

    #[test]
    fn bursty_rate_is_square_wave() {
        let p = RateProfile::bursty(
            1.0,
            20.0,
            SimDuration::from_secs(10),
            SimDuration::from_secs(60),
        );
        assert_eq!(p.rate_at(SimTime::from_secs(5)), 20.0);
        assert_eq!(p.rate_at(SimTime::from_secs(30)), 1.0);
        // Periodicity.
        assert_eq!(p.rate_at(SimTime::from_secs(65)), 20.0);
        assert_eq!(p.rate_at(SimTime::from_secs(90)), 1.0);
    }

    #[test]
    fn thinning_matches_mean_rate() {
        // Diurnal 5..15 over 200 s has a long-run mean of 10/s.
        let p = RateProfile::diurnal(5.0, 15.0, SimDuration::from_secs(200));
        let arrivals = p.assign(&mut seeded(3), 20_000);
        let span = arrivals.last().unwrap().as_secs_f64();
        let rate = 20_000.0 / span;
        assert!((rate - 10.0).abs() < 0.5, "observed rate {rate}");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn thinning_concentrates_arrivals_in_bursts() {
        let p = RateProfile::bursty(
            1.0,
            20.0,
            SimDuration::from_secs(10),
            SimDuration::from_secs(60),
        );
        let arrivals = p.assign(&mut seeded(4), 5_000);
        let in_burst = arrivals
            .iter()
            .filter(|t| t.as_micros() % 60_000_000 < 10_000_000)
            .count() as f64
            / 5_000.0;
        // Bursts carry 200 of every 250 expected arrivals (80%).
        assert!((in_burst - 0.8).abs() < 0.05, "burst share {in_burst}");
    }

    #[test]
    fn variable_arrivals_deterministic() {
        let p = RateProfile::diurnal(2.0, 8.0, SimDuration::from_secs(50));
        assert_eq!(p.assign(&mut seeded(5), 500), p.assign(&mut seeded(5), 500));
    }

    #[test]
    #[should_panic(expected = "peak rate")]
    fn diurnal_peak_below_base_panics() {
        let _ = RateProfile::diurnal(5.0, 1.0, SimDuration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "burst length")]
    fn bursty_burst_longer_than_period_panics() {
        let _ = RateProfile::bursty(
            1.0,
            2.0,
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
        );
    }
}
