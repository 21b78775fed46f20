//! Shared harness for the experiment binaries (one per paper table/figure).
//!
//! Every binary:
//!
//! * accepts `--quick` (smaller workloads, for smoke runs) and
//!   `--out <dir>` (default `results/`);
//! * prints the table(s) to stdout;
//! * writes `results/<name>.csv` and `results/<name>.md`.
//!
//! [`scenario`] is the registry of the runs they make, and its module doc
//! is the experiment index. Every bench that simulates, the configurable
//! `simulate` runner aside, runs registry [`scenario::Scenario`]s and
//! renders its tables from the [`scenario::Run`]s. The paper benches take
//! their scenario lists from [`scenario::paper`] and the `autoscale` and
//! `disagg` benches theirs from [`scenario::fleets`], each a function of
//! the seed and the size; the golden bands call the same constructors, so
//! they check the very runs the benches print.

#![warn(missing_docs)]

pub mod cli;
pub mod scenario;
pub mod sweep;
pub mod timing;

pub use cli::Cli;

use std::path::Path;
use std::sync::Mutex;

use pf_metrics::Table;
use pf_workload::RequestSpec;

/// Writes `<name>.csv` and `<name>.md` for a table.
///
/// # Panics
///
/// Panics on I/O errors — experiment binaries want loud failures.
pub fn write_artifacts(dir: &Path, name: &str, table: &Table) {
    std::fs::create_dir_all(dir).expect("create results directory");
    std::fs::write(dir.join(format!("{name}.csv")), table.to_csv()).expect("write csv");
    std::fs::write(dir.join(format!("{name}.md")), table.to_markdown()).expect("write md");
}

/// Ground-truth output lengths of a request set (history warmup material).
pub fn output_lengths(requests: &[RequestSpec]) -> Vec<u32> {
    requests.iter().map(|r| r.true_output_len).collect()
}

/// Runs jobs on up to `threads` workers and returns results in job order.
///
/// The closures must be `Send`; results are collected positionally so the
/// output is deterministic regardless of scheduling.
pub fn run_parallel<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let threads = threads.max(1);
    let n = jobs.len();
    let work: Mutex<Vec<Option<F>>> = Mutex::new(jobs.into_iter().map(Some).collect());
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let job = {
                    let mut work = work.lock().expect("work lock");
                    let next = work.iter().position(|j| j.is_some());
                    match next {
                        Some(i) => (i, work[i].take().expect("checked")),
                        None => return,
                    }
                };
                let (i, f) = job;
                let out = f();
                results.lock().expect("results lock")[i] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("job completed"))
        .collect()
}

/// Default worker count: available parallelism minus one, at least 1.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(4)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(frac: f64) -> String {
    format!("{:.2}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = run_parallel(jobs, 4);
        assert_eq!(out, (0..32usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_handles_empty_and_single_thread() {
        let empty: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![];
        assert!(run_parallel(empty, 8).is_empty());
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![Box::new(|| 7), Box::new(|| 9)];
        assert_eq!(run_parallel(jobs, 1), vec![7, 9]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.12345), "12.35%");
    }

    #[test]
    fn output_lengths_extracts_truth() {
        let reqs = pf_workload::datasets::distribution_1(5, 1);
        let lens = output_lengths(&reqs);
        assert_eq!(lens.len(), 5);
        assert!(lens.iter().all(|&l| (2048..=4096).contains(&l)));
    }
}
