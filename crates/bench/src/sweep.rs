//! Multi-seed sweep aggregation.
//!
//! The `sweep` binary runs every headline scenario across a bank of
//! workload seeds on parallel workers ([`crate::run_parallel`]) and folds
//! the per-seed simulated metrics into per-metric [`Summary`] rows. The
//! fold here is deliberately a pure function of the *set* of runs: inputs
//! are sorted by `(scenario, seed)` before any floating-point arithmetic,
//! so whatever order the worker threads happened to finish in, the
//! aggregate — and the CSV committed from it — is bit-identical.

use pf_metrics::Summary;

/// One scenario × seed simulation outcome.
///
/// Only *simulated* metrics belong here (attainment, goodput, memory
/// fractions, makespan); wall-clock self-profiling is the `benchmark/`
/// package's job. Every seed of a scenario reports the same metric set.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedRun {
    /// Scenario label (groups runs).
    pub scenario: String,
    /// Workload seed that produced this run.
    pub seed: u64,
    /// `(metric, value)` pairs, in display order.
    pub metrics: Vec<(String, f64)>,
}

/// Per-scenario, per-metric summary across the seed bank.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateRow {
    /// Scenario label.
    pub scenario: String,
    /// Metric name.
    pub metric: String,
    /// Summary over the metric's per-seed values, in seed order.
    pub summary: Summary,
}

/// Aggregates seed runs into per-metric summaries, independent of input
/// order.
///
/// Runs are sorted by `(scenario, seed)` first, so every permutation of
/// `runs` — serial, or parallel under any thread interleaving — folds the
/// same values in the same order and returns bit-identical summaries.
/// Metric display order follows the lowest-seed run of each scenario;
/// scenarios appear alphabetically.
pub fn aggregate(runs: &[SeedRun]) -> Vec<AggregateRow> {
    let mut ordered: Vec<&SeedRun> = runs.iter().collect();
    ordered.sort_by(|a, b| (a.scenario.as_str(), a.seed).cmp(&(b.scenario.as_str(), b.seed)));
    let mut out = Vec::new();
    let mut i = 0;
    while i < ordered.len() {
        let scenario = &ordered[i].scenario;
        let mut j = i;
        while j < ordered.len() && ordered[j].scenario == *scenario {
            j += 1;
        }
        let group = &ordered[i..j];
        for (metric, _) in &group[0].metrics {
            let values: Vec<f64> = group
                .iter()
                .filter_map(|run| {
                    run.metrics
                        .iter()
                        .find(|(name, _)| name == metric)
                        .map(|(_, value)| *value)
                })
                .collect();
            out.push(AggregateRow {
                scenario: scenario.clone(),
                metric: metric.clone(),
                summary: Summary::of(&values),
            });
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(scenario: &str, seed: u64, metrics: &[(&str, f64)]) -> SeedRun {
        SeedRun {
            scenario: scenario.to_string(),
            seed,
            metrics: metrics
                .iter()
                .map(|(name, value)| (name.to_string(), *value))
                .collect(),
        }
    }

    #[test]
    fn aggregates_per_scenario_and_metric() {
        let runs = [
            run("coloc", 1, &[("goodput", 10.0), ("evicted", 0.0)]),
            run("coloc", 2, &[("goodput", 14.0), ("evicted", 2.0)]),
            run("disagg", 1, &[("sla", 0.9)]),
        ];
        let agg = aggregate(&runs);
        assert_eq!(agg.len(), 3);
        assert_eq!(agg[0].scenario, "coloc");
        assert_eq!(agg[0].metric, "goodput");
        assert_eq!(agg[0].summary.mean, 12.0);
        assert_eq!(agg[0].summary.count, 2);
        assert_eq!(agg[1].metric, "evicted");
        assert_eq!(agg[2].scenario, "disagg");
        assert_eq!(agg[2].summary.mean, 0.9);
    }

    #[test]
    fn empty_input_aggregates_to_nothing() {
        assert!(aggregate(&[]).is_empty());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn runs_strategy() -> impl Strategy<Value = Vec<SeedRun>> {
            let scenario = (0usize..3).prop_map(|k| ["coloc", "disagg", "elastic"][k].to_string());
            let metrics = proptest::collection::vec(
                (0usize..4, -1e6f64..1e6).prop_map(|(k, v)| (format!("m{k}"), v)),
                1..5,
            );
            proptest::collection::vec(
                (scenario, 0u64..16, metrics).prop_map(|(scenario, seed, metrics)| SeedRun {
                    scenario,
                    seed,
                    metrics,
                }),
                0..24,
            )
        }

        proptest! {
            /// The aggregate is invariant under any permutation of the
            /// runs — the order parallel workers deliver results in can
            /// never change the output.
            #[test]
            fn aggregate_is_order_independent(
                runs in runs_strategy(),
                keys in proptest::collection::vec(0u64..1_000_000, 32),
            ) {
                let mut shuffled: Vec<(u64, SeedRun)> = runs
                    .iter()
                    .cloned()
                    .enumerate()
                    .map(|(i, r)| (keys[i % keys.len()] ^ (i as u64) << 20, r))
                    .collect();
                shuffled.sort_by_key(|(k, _)| *k);
                let shuffled: Vec<SeedRun> = shuffled.into_iter().map(|(_, r)| r).collect();
                prop_assert_eq!(aggregate(&runs), aggregate(&shuffled));
            }

            /// Aggregating results collected from parallel workers — with
            /// adversarial per-job delays to scramble completion order —
            /// equals aggregating a serial run of the same jobs.
            #[test]
            fn parallel_aggregation_equals_serial(
                runs in runs_strategy(),
                delays in proptest::collection::vec(0u64..80, 32),
                threads in 1usize..5,
            ) {
                let serial: Vec<SeedRun> = runs.clone();
                let jobs: Vec<Box<dyn FnOnce() -> SeedRun + Send>> = runs
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let delay = delays[i % delays.len()];
                        Box::new(move || {
                            std::thread::sleep(std::time::Duration::from_micros(delay));
                            r
                        }) as Box<dyn FnOnce() -> SeedRun + Send>
                    })
                    .collect();
                let parallel = crate::run_parallel(jobs, threads);
                prop_assert_eq!(aggregate(&serial), aggregate(&parallel));
            }
        }
    }
}
