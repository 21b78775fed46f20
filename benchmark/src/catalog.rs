//! Every metric the benchmark emits: name, unit, direction, and for each
//! layer the end-to-end metrics it should move.

/// Which way is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `better` field as `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the simulator (its CPU cost and
/// memory) or of the simulated service (its SLA outcome) sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Measured on the host (clock or memory), so it varies run to run;
    /// the others are simulated and repeat exactly for one seed.
    pub host: bool,
    /// Declared in `BENCHMARK.json`, with a regression bound there.
    ///
    /// Simulated metrics repeat exactly for one seed, but a benchmark
    /// run's seed changes the generated inputs, and a metric is declared
    /// only when its spread across seeds stays well inside a bound: the
    /// SLA tail at a knee (`ttft_p99_s`, and `ttft_p50_s` on the two
    /// queue-bound workloads) swings 10–40% from seed to seed,
    /// `evictions_per_kreq` is zero on two workloads and swings 38% on a
    /// third, and `failed_frac` is zero on all four.
    /// Undeclared metrics are still printed, recorded and compared (at
    /// bound zero, see `compare`).
    pub declared: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    host: bool,
    declared: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        host,
        declared,
    }
}

/// All end-to-end metrics, in output order.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("sim_req_per_s", "req/s", Better::Higher, true, true),
    e2e("sim_req_per_s_traced", "req/s", Better::Higher, true, true),
    e2e("setup_s", "s", Better::Lower, true, true),
    e2e("peak_rss_mb", "MB", Better::Lower, true, true),
    e2e("goodput_tok_per_s", "tok/s", Better::Higher, false, true),
    e2e("sla_attainment", "fraction", Better::Higher, false, true),
    e2e("ttft_p50_s", "s", Better::Lower, false, false),
    e2e("ttft_p99_s", "s", Better::Lower, false, false),
    e2e("mtpot_p99_s", "s", Better::Lower, false, true),
    e2e(
        "evictions_per_kreq",
        "count/kreq",
        Better::Lower,
        false,
        false,
    ),
    e2e("failed_frac", "fraction", Better::Lower, false, false),
    e2e("gpu_seconds", "s", Better::Lower, false, true),
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement (checked against `BENCHMARK.json`; per-layer
    /// metrics are not compared).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// Declared in `BENCHMARK.json` and put on the `--trace 1` result
    /// line.
    ///
    /// Costs per operation (`ns_per_*`) and the link's simulated tail are
    /// only printed and recorded: on a workload that never calls the
    /// layer they are undefined and read 0, a time that would repeat
    /// exactly on every run. The layer's `share` and operation count,
    /// which are declared, carry the same information.
    pub declared: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        declared: true,
    }
}

const fn printed(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        declared: false,
        ..layer(name, unit, better)
    }
}

/// All per-layer metrics, in output order. The layer is the name's
/// prefix before the first `.`. A count's direction is "less work"; the
/// `workload.*` inputs are fixed by the workload's definition.
///
/// Layer times are reported as shares of the untraced median CPU time
/// (`<layer>.share`), so the replayed layers and `sim.unattributed_share`
/// sum to one.
pub const PER_LAYER: [PerLayer; 51] = [
    layer("sim.cpu_s", "s", Better::Lower),
    layer("sim.unattributed_s", "s", Better::Lower),
    layer("sim.unattributed_share", "fraction", Better::Lower),
    layer("sim.size_exponent", "exponent", Better::Lower),
    layer("sim.events", "count", Better::Lower),
    layer("sim.decode_steps", "count", Better::Lower),
    layer("sim.prefills", "count", Better::Lower),
    layer("sim.mean_batch", "requests", Better::Higher),
    layer("admission.share", "fraction", Better::Lower),
    layer("admission.calls", "count", Better::Lower),
    printed("admission.ns_per_call", "ns/call", Better::Lower),
    layer("admission.mean_queue", "requests", Better::Lower),
    layer("admission.index_probes", "count", Better::Lower),
    printed("admission.index_ns_per_probe", "ns/probe", Better::Lower),
    layer("kvpool.share", "fraction", Better::Lower),
    layer("kvpool.ops", "count", Better::Lower),
    printed("kvpool.ns_per_op", "ns/op", Better::Lower),
    layer("kvpool.avg_consumed_frac", "fraction", Better::Higher),
    layer("kvpool.avg_future_required_frac", "fraction", Better::Lower),
    layer("kvpool.peak_consumed_frac", "fraction", Better::Higher),
    layer("prefix.share", "fraction", Better::Lower),
    layer("prefix.lookups", "count", Better::Lower),
    printed("prefix.ns_per_lookup", "ns/lookup", Better::Lower),
    layer("prefix.inserts", "count", Better::Lower),
    printed("prefix.ns_per_insert", "ns/insert", Better::Lower),
    layer("prefix.blocks_removed", "count", Better::Lower),
    layer("prefix.hit_rate", "fraction", Better::Higher),
    layer("prefix.cached_token_share", "fraction", Better::Higher),
    layer("router.share", "fraction", Better::Lower),
    layer("router.queries", "count", Better::Lower),
    printed("router.ns_per_query", "ns/query", Better::Lower),
    layer("router.index_events", "count", Better::Lower),
    layer("router.overlap_share", "fraction", Better::Higher),
    layer("router.prefix_hit_share", "fraction", Better::Higher),
    layer("link.share", "fraction", Better::Lower),
    layer("link.streams", "count", Better::Lower),
    printed("link.ns_per_advance", "ns/advance", Better::Lower),
    printed("link.ns_per_projection", "ns/projection", Better::Lower),
    layer("link.utilization", "fraction", Better::Higher),
    printed("link.tail_s_mean", "s/stream", Better::Lower),
    layer("autoscale.scale_events", "count", Better::Lower),
    layer("autoscale.peak_replicas", "replicas", Better::Lower),
    layer("obs.events", "count", Better::Lower),
    layer("obs.gauges", "count", Better::Lower),
    layer("obs.ns_per_event", "ns/event", Better::Lower),
    layer("obs.reconstruct_ns_per_event", "ns/event", Better::Lower),
    layer("obs.chrome_export_s", "s", Better::Lower),
    layer("workload.requests", "count", Better::Higher),
    layer("workload.prompt_tokens_mean", "tokens", Better::Higher),
    layer("workload.output_tokens_mean", "tokens", Better::Higher),
    layer("workload.shared_prefix_share", "fraction", Better::Higher),
];

/// The end-to-end metrics a layer's metrics should move, and on which
/// workloads — written down before measuring, so a change to one layer
/// states in advance where its effect must show (also in the README;
/// the tests hold this copy to the catalogue).
#[cfg(test)]
pub const MOVES: [(&str, &[&str], &[&str]); 8] = [
    (
        "sim",
        &["sim_req_per_s"],
        &["cluster-kv-sysprompt", "disagg-stream-prefill"],
    ),
    (
        "admission",
        &["sim_req_per_s"],
        &["coloc-sharegpt", "elastic-multiturn-diurnal"],
    ),
    (
        "kvpool",
        &["sim_req_per_s", "goodput_tok_per_s", "evictions_per_kreq"],
        &["coloc-sharegpt"],
    ),
    (
        "prefix",
        &["ttft_p99_s", "sim_req_per_s"],
        &["cluster-kv-sysprompt", "elastic-multiturn-diurnal"],
    ),
    (
        "router",
        &["ttft_p99_s", "sim_req_per_s"],
        &["cluster-kv-sysprompt"],
    ),
    (
        "link",
        &["sim_req_per_s", "ttft_p99_s"],
        &["disagg-stream-prefill"],
    ),
    (
        "autoscale",
        &["gpu_seconds", "sla_attainment"],
        &["elastic-multiturn-diurnal"],
    ),
    (
        "obs",
        &["sim_req_per_s_traced"],
        &[
            "coloc-sharegpt",
            "cluster-kv-sysprompt",
            "disagg-stream-prefill",
            "elastic-multiturn-diurnal",
        ],
    ),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}
