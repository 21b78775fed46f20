//! What the benchmark measures with: the thread's CPU clock, the
//! process's peak memory, and sample summaries.
//!
//! Durations are CPU time of the measuring thread. The simulator is
//! single-threaded and does no I/O, so on an idle core its CPU time is its
//! wall time; on a shared machine CPU time leaves out the time the kernel
//! gave other processes, which is the largest source of run-to-run noise
//! there. The wall clock (`pf_bench::timing`, the one file pf-lint's D2
//! rule lets read it) only paces the run against `--seconds`.

use std::fmt;
use std::os::raw::{c_int, c_long};

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// `struct timespec` on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time the calling thread has used, in seconds.
///
/// # Panics
///
/// Panics if the kernel refuses the thread CPU clock, which Linux has
/// provided since 2.6.12.
pub fn thread_cpu_secs() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` for the duration
    // of the call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// CPU seconds the calling thread spends running `f`.
pub fn cpu_secs(f: impl FnOnce()) -> f64 {
    let start = thread_cpu_secs();
    f();
    thread_cpu_secs() - start
}

/// A non-empty, NaN-free set of measurements of one quantity.
///
/// The order statistics follow Python's `statistics` module —
/// `median` as `statistics.median` and `quartiles` as
/// `statistics.quantiles(values, n=4)` (the default exclusive method) —
/// so spreads computed here match the ones an outside check computes
/// from the same values.
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    /// Values in measurement order.
    values: Vec<f64>,
    /// The same values, ascending.
    sorted: Vec<f64>,
}

/// Why a set of values cannot be summarized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleError {
    /// No values.
    Empty,
    /// A value was NaN (a failed or undefined measurement).
    NaN,
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::Empty => write!(f, "no samples"),
            SampleError::NaN => write!(f, "a sample is NaN"),
        }
    }
}

impl Samples {
    /// Wraps `values`, rejecting an empty set and any NaN.
    pub fn new(values: Vec<f64>) -> Result<Samples, SampleError> {
        if values.is_empty() {
            return Err(SampleError::Empty);
        }
        if values.iter().any(|v| v.is_nan()) {
            return Err(SampleError::NaN);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(Samples { values, sorted })
    }

    /// Values in measurement order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of values.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Smallest value.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest value.
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// Median; the mean of the two middle values when `n` is even.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        }
    }

    /// First and third quartiles by the exclusive method: the cut points
    /// at ranks `(n + 1) / 4` and `3 (n + 1) / 4`, interpolated between
    /// neighbours and clamped to the sample ends. One value is its own
    /// quartiles.
    pub fn quartiles(&self) -> (f64, f64) {
        let data = &self.sorted;
        let ld = data.len();
        if ld == 1 {
            return (data[0], data[0]);
        }
        let m = ld + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        };
        (cut(1), cut(3))
    }

    /// Distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        let (q1, q3) = self.quartiles();
        q3 - q1
    }
}

/// Peak resident set size of this process (`VmHWM` in
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => value.checked_mul(1024),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Samples {
        Samples::new(values.to_vec()).expect("valid samples")
    }

    #[test]
    fn odd_count() {
        // Python: statistics.quantiles([9, 1, 5, 3, 7], n=4) == [2.0, 5.0, 8.0].
        let x = s(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!(x.n(), 5);
        assert_eq!(x.median(), 5.0);
        assert_eq!(x.quartiles(), (2.0, 8.0));
        assert_eq!(x.min(), 1.0);
        assert_eq!(x.max(), 9.0);
        assert_eq!(x.values(), &[9.0, 1.0, 5.0, 3.0, 7.0]);
    }

    #[test]
    fn even_count() {
        // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 8.25].
        let x = s(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(x.median(), 5.5);
        assert_eq!(x.quartiles(), (2.75, 8.25));
        assert_eq!(x.iqr(), 5.5);
        // Python: statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
        assert_eq!(s(&[4.0, 3.0, 2.0, 1.0]).quartiles(), (1.25, 3.75));
        assert_eq!(s(&[4.0, 3.0, 2.0, 1.0]).median(), 2.5);
    }

    #[test]
    fn tiny_samples() {
        // Python: statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5].
        assert_eq!(s(&[5.0, 3.0]).quartiles(), (2.5, 5.5));
        assert_eq!(s(&[7.0]).quartiles(), (7.0, 7.0));
        assert_eq!(s(&[7.0]).median(), 7.0);
    }

    #[test]
    fn rejects_nan_and_empty() {
        assert_eq!(Samples::new(vec![1.0, f64::NAN]), Err(SampleError::NaN));
        assert_eq!(Samples::new(Vec::new()), Err(SampleError::Empty));
    }

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let busy = cpu_secs(|| {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        });
        assert!(busy > 0.0, "busy loop used no CPU time");
        let asleep = cpu_secs(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(asleep < 0.025, "sleeping used {asleep} CPU seconds");
    }

    #[test]
    fn vm_hwm_parses_kilobytes() {
        let status = "Name:\tbenchmark\nVmPeak:\t  20000 kB\nVmHWM:\t   1536 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(1536 * 1024));
        assert_eq!(parse_vm_hwm("VmRSS: 1 kB\n"), None);
        assert!(peak_rss_bytes().is_some_and(|b| b > 0));
    }
}
