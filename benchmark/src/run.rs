//! One workload's measurement: timed rounds, output checks, the traced
//! run and its replay, and every metric assembled.

use pf_bench::timing::wall_secs;
use pf_obs::{CountingSink, GaugeKind, TraceEvent, TraceSink};

use crate::catalog;
use crate::replay::{self, Layers, Recorded};
use crate::timing::{cpu_secs, peak_rss_bytes, Samples};
use crate::workloads::{Kind, Outcome, Workload};

/// Rounds measured even when one round outlasts `--seconds`.
pub const MIN_ROUNDS: usize = 3;
/// Set-ups timed for `setup_s` in every round. Set-up takes milliseconds,
/// so timing a few in each round is cheap, and the median then spans the
/// whole run instead of one moment of it.
const SETUP_REPS_PER_ROUND: usize = 5;

/// How one workload is measured.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Added to every dataset and arrival seed.
    pub seed: u64,
    /// Wall-clock budget of the timed rounds.
    pub seconds: f64,
    /// Also record a trace and attribute time to layers.
    pub trace: bool,
}

/// One emitted metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// Every raw sample; the reported value is their median.
    pub samples: Samples,
    /// Extra context for the human-readable line.
    pub note: String,
}

impl Metric {
    /// The reported value.
    pub fn value(&self) -> f64 {
        self.samples.median()
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// End-to-end metrics, catalogue order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, catalogue order (empty without `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Requests issued across every simulation the run made.
    pub attempted: u64,
    /// Of those, requests that did not complete.
    pub failed: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Human-readable diagnostics printed before the metrics.
    pub diagnostics: Vec<String>,
}

/// The deterministic, simulated end-to-end metrics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Simulated {
    goodput_tok_per_s: f64,
    sla_attainment: f64,
    ttft_p50_s: f64,
    ttft_p99_s: f64,
    mtpot_p99_s: f64,
    evictions_per_kreq: f64,
    failed_frac: f64,
    gpu_seconds: f64,
}

impl Simulated {
    fn of(o: &Outcome) -> Simulated {
        let issued = o.issued.max(1) as f64;
        let pct = |v: &[f64], p: f64| pf_metrics::percentile(v, p).unwrap_or(0.0);
        Simulated {
            goodput_tok_per_s: o.goodput_tok_per_s,
            // Requests that never completed count as misses.
            sla_attainment: o.satisfied as f64 / issued,
            ttft_p50_s: pct(&o.ttft_s, 50.0),
            ttft_p99_s: pct(&o.ttft_s, 99.0),
            mtpot_p99_s: pct(&o.mtpot_s, 99.0),
            evictions_per_kreq: o.evictions as f64 * 1000.0 / issued,
            failed_frac: (o.issued - o.completed) as f64 / issued,
            gpu_seconds: o.gpu_seconds,
        }
    }

    fn get(&self, name: &str) -> f64 {
        match name {
            "goodput_tok_per_s" => self.goodput_tok_per_s,
            "sla_attainment" => self.sla_attainment,
            "ttft_p50_s" => self.ttft_p50_s,
            "ttft_p99_s" => self.ttft_p99_s,
            "mtpot_p99_s" => self.mtpot_p99_s,
            "evictions_per_kreq" => self.evictions_per_kreq,
            "failed_frac" => self.failed_frac,
            "gpu_seconds" => self.gpu_seconds,
            _ => unreachable!("{name} is not simulated"),
        }
    }

    fn same_as(&self, other: &Simulated) -> bool {
        let bits = |s: &Simulated| {
            [
                s.goodput_tok_per_s,
                s.sla_attainment,
                s.ttft_p50_s,
                s.ttft_p99_s,
                s.mtpot_p99_s,
                s.evictions_per_kreq,
                s.failed_frac,
                s.gpu_seconds,
            ]
            .map(f64::to_bits)
        };
        bits(self) == bits(other)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rep {
    Untraced,
    Traced,
    Half,
}

/// Output checks every run's outcome must pass.
fn check_outcome(o: &Outcome, what: &str, failures: &mut Vec<String>) {
    if o.completed + o.timed_out + o.unfinished != o.issued {
        failures.push(format!(
            "{what}: completed {} + timed out {} + unfinished {} != issued {}",
            o.completed, o.timed_out, o.unfinished, o.issued
        ));
    }
    for &(instance, used, cached) in &o.kv_leaks {
        failures.push(format!(
            "{what}: instance {instance} ended with {used} KV tokens allocated, \
             prefix cache holds {cached}"
        ));
    }
    if let Some((streamed, transfers, _)) = o.transfers {
        if streamed != transfers {
            failures.push(format!(
                "{what}: {streamed} of {transfers} KV transfers were streamed"
            ));
        }
    }
}

/// Records lifecycle events and counts gauges: the replay needs only
/// events, and the gauge stream is twice as long.
#[derive(Default)]
struct EventRecorder {
    events: Vec<TraceEvent>,
    gauges: u64,
}

impl TraceSink for EventRecorder {
    fn event(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    fn gauge(&mut self, _at: pf_metrics::SimTime, _instance: u32, _kind: GaugeKind, _value: f64) {
        self.gauges += 1;
    }
}

fn samples(values: Vec<f64>) -> Samples {
    Samples::new(values).expect("measured values are finite")
}

fn one(value: f64) -> Samples {
    samples(vec![value])
}

/// `num / den`, zero when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seed of round `round`'s input stream: the run's own seed first, then
/// streams derived from it. CPU-time medians over several streams
/// average out how much simulator work one stream happens to need; the
/// simulated metrics come from the run's own stream alone.
fn round_seed(seed: u64, round: usize) -> u64 {
    if round == 0 {
        seed
    } else {
        pf_workload::rng::derive_seed(seed, round as u64)
    }
}

/// Measures `w`: timed rounds until `opts.seconds` is spent (at least
/// [`MIN_ROUNDS`]), then — with `opts.trace` — one recorded run and its
/// replay.
pub fn run(w: Workload, opts: &Options) -> Report {
    let mut report = Report {
        workload: w.name,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        diagnostics: Vec::new(),
    };
    let kinds: &[Rep] = if opts.trace {
        &[Rep::Untraced, Rep::Traced, Rep::Half]
    } else {
        &[Rep::Untraced, Rep::Traced]
    };
    // CPU seconds and completed requests per CPU second of each run, by
    // kind, and the wall-clock rates of the full-size untraced runs (shown
    // beside the CPU rates).
    let mut cpu: [Vec<f64>; 3] = Default::default();
    let mut rates: [Vec<f64>; 3] = Default::default();
    let mut wall_rates = Vec::new();
    let mut setups = Vec::new();
    // The run's own stream: its simulated metrics and trace size.
    let mut reference: Option<(Simulated, Outcome)> = None;
    let mut counted: Option<(u64, u64)> = None;
    let mut elapsed = 0.0;
    let mut longest_round = 0.0f64;
    let mut round = 0;
    while round < MIN_ROUNDS || elapsed + longest_round <= opts.seconds {
        let round_start = elapsed;
        let seed = round_seed(opts.seed, round);
        let mut full_size: Option<Simulated> = None;
        elapsed += wall_secs(|| {
            for _ in 0..SETUP_REPS_PER_ROUND {
                let mut prepared = None;
                setups.push(cpu_secs(|| prepared = Some(w.prepare(w.inputs(seed)))));
                drop(prepared);
            }
        });
        // Alternate the order so slow drift does not favour one kind.
        let order: Vec<Rep> = if round % 2 == 0 {
            kinds.to_vec()
        } else {
            kinds.iter().rev().copied().collect()
        };
        for rep in order {
            let mut sink = CountingSink::new();
            let mut result = None;
            let (mut run_cpu, mut run_wall) = (0.0, 0.0);
            // Set-up counts against the budget but is timed apart, above.
            elapsed += wall_secs(|| {
                let inputs = w.inputs(seed);
                let inputs = match rep {
                    Rep::Half => inputs.truncate(w.n / 2),
                    _ => inputs,
                };
                let prepared = w.prepare(inputs);
                run_wall = wall_secs(|| {
                    let sink: Option<&mut dyn TraceSink> = match rep {
                        Rep::Traced => Some(&mut sink),
                        _ => None,
                    };
                    run_cpu = cpu_secs(|| result = Some(prepared.run(sink)));
                });
            });
            let what = format!("round {round} {rep:?}");
            let outcome = match result.expect("ran") {
                Ok(o) => o,
                Err(e) => {
                    report
                        .failures
                        .push(format!("{what}: simulation failed: {e}"));
                    report.attempted += w.n as u64;
                    report.failed += w.n as u64;
                    return report;
                }
            };
            report.attempted += outcome.issued as u64;
            report.failed += (outcome.issued - outcome.completed) as u64;
            check_outcome(&outcome, &what, &mut report.failures);
            let completed = outcome.completed as f64;
            if rep != Rep::Half {
                // Traced and untraced runs of one stream must report
                // identically.
                let sim = Simulated::of(&outcome);
                match full_size {
                    None => full_size = Some(sim),
                    Some(r) if !r.same_as(&sim) => report.failures.push(format!(
                        "{what}: simulated metrics differ between the traced and untraced runs"
                    )),
                    Some(_) => {}
                }
                if round == 0 && reference.is_none() {
                    reference = Some((sim, outcome));
                }
            }
            if rep == Rep::Traced && round == 0 {
                counted = Some((sink.events, sink.gauges));
            }
            let slot = match rep {
                Rep::Untraced => {
                    wall_rates.push(completed / run_wall);
                    0
                }
                Rep::Traced => 1,
                Rep::Half => 2,
            };
            cpu[slot].push(run_cpu);
            rates[slot].push(completed / run_cpu);
        }
        longest_round = longest_round.max(elapsed - round_start);
        round += 1;
    }
    let peak_rss = peak_rss_bytes().unwrap_or(0) as f64 / 1e6;
    let (sim, outcome) = reference.expect("round 0 ran");
    let (events, gauges) = counted.expect("round 0 ran traced");

    let with_span = |s: Samples, extra: String| {
        let note = format!("min={} max={} n={}{extra}", s.min(), s.max(), s.n());
        (s, note)
    };
    let wall_note = format!(" wall_clock_median={}", samples(wall_rates).median());
    for m in &catalog::END_TO_END {
        let (s, note) = match m.name {
            "sim_req_per_s" => with_span(samples(rates[0].clone()), wall_note.clone()),
            "sim_req_per_s_traced" => with_span(samples(rates[1].clone()), String::new()),
            "setup_s" => with_span(samples(setups.clone()), String::new()),
            "peak_rss_mb" => (one(peak_rss), String::new()),
            name => {
                let note = if name.starts_with("ttft") {
                    let n = outcome.ttft_s.len();
                    format!("n={n} beyond_p99={}", n / 100)
                } else {
                    String::new()
                };
                // The untraced and traced runs of the run's own stream,
                // identical by the check above.
                (samples(vec![sim.get(name); 2]), note)
            }
        };
        report.end_to_end.push(Metric {
            name: m.name,
            unit: m.unit,
            samples: s,
            note,
        });
    }

    if opts.trace {
        traced(w, opts, &mut report, &cpu, &outcome, sim, (events, gauges));
    }
    report
}

/// The recorded run, its replay, and the per-layer metrics.
fn traced(
    w: Workload,
    opts: &Options,
    report: &mut Report,
    cpu: &[Vec<f64>; 3],
    outcome: &Outcome,
    sim: Simulated,
    (events, gauges): (u64, u64),
) {
    let inputs = w.inputs(opts.seed);
    let specs = inputs.requests.clone();
    if specs
        .iter()
        .enumerate()
        .any(|(i, s)| s.id.raw() != i as u64)
    {
        report
            .failures
            .push("request ids are not dense in arrival order".into());
        return;
    }
    let config = w.config();
    let mut recorder = EventRecorder::default();
    let recorded = match w.prepare(inputs).run(Some(&mut recorder)) {
        Ok(o) => o,
        Err(e) => {
            report
                .failures
                .push(format!("recorded run: simulation failed: {e}"));
            return;
        }
    };
    report.attempted += recorded.issued as u64;
    report.failed += (recorded.issued - recorded.completed) as u64;
    check_outcome(&recorded, "recorded run", &mut report.failures);
    if !Simulated::of(&recorded).same_as(&sim) {
        report
            .failures
            .push("recorded run: simulated metrics differ from the untraced run".into());
    }
    let finished = recorder
        .events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::Finished { .. }))
        .count();
    if finished != recorded.completed {
        report.failures.push(format!(
            "recorded run: {finished} Finished events for {} completed requests",
            recorded.completed
        ));
    }
    if (recorder.events.len() as u64, recorder.gauges) != (events, gauges) {
        report
            .failures
            .push("recorded run: event counts differ from the counted run of round 0".into());
    }

    let link = match w.kind {
        Kind::Disagg => Some(w.link()),
        _ => None,
    };
    let layers = replay::replay(&Recorded {
        kind: w.kind,
        config: &config,
        events: &recorder.events,
        specs: &specs,
        instances: w.instances(),
        link,
    });
    if layers.mismatches.total > 0 {
        report.diagnostics.push(format!(
            "replay: {} disagreements with the trace, e.g. {}",
            layers.mismatches.total,
            layers.mismatches.examples.join("; ")
        ));
    }

    let mut reconstruct = Vec::new();
    for _ in 0..3 {
        reconstruct.push(cpu_secs(|| {
            std::hint::black_box(pf_obs::reconstruct(&recorder.events));
        }));
    }
    let reconstruct_s = samples(reconstruct).median();
    let chrome_s = cpu_secs(|| {
        std::hint::black_box(pf_obs::chrome_trace_json(&recorder.events).len());
    });

    let run_s = samples(cpu[0].clone()).median();
    let traced_s = samples(cpu[1].clone()).median();
    let half_s = samples(cpu[2].clone()).median();
    let n_events = recorder.events.len() as f64;
    let prompt_tokens: f64 = specs.iter().map(|s| f64::from(s.input_len)).sum();
    let shared_tokens: f64 = specs.iter().map(|s| s.matchable_shared_len() as f64).sum();
    let output_tokens: f64 = specs.iter().map(|s| f64::from(s.true_output_len)).sum();
    let unattributed = run_s - layers.total_s();
    let ns = |secs: f64, ops: u64| ratio(secs * 1e9, ops as f64);
    let value = |name: &str| -> f64 {
        let l: &Layers = &layers;
        match name {
            "sim.cpu_s" => run_s,
            "sim.unattributed_s" => unattributed,
            "sim.unattributed_share" => unattributed / run_s,
            "sim.size_exponent" => (run_s / half_s).log2(),
            "sim.events" => n_events,
            "sim.decode_steps" => l.decode_steps as f64,
            "sim.prefills" => l.prefills as f64,
            "sim.mean_batch" => ratio(l.batch_sum as f64, l.decode_steps as f64),
            "admission.share" => l.admission_s() / run_s,
            "admission.calls" => l.plan_calls as f64,
            "admission.ns_per_call" => ns(l.plan_s, l.plan_calls),
            "admission.mean_queue" => ratio(l.queue_sum as f64, l.plan_calls as f64),
            "admission.index_probes" => l.index_probes as f64,
            "admission.index_ns_per_probe" => ns(l.index_s, l.index_probes),
            "kvpool.share" => l.kvpool_s / run_s,
            "kvpool.ops" => l.kv_ops as f64,
            "kvpool.ns_per_op" => ns(l.kvpool_s, l.kv_ops),
            "kvpool.avg_consumed_frac" => outcome.memory.avg_consumed_frac,
            "kvpool.avg_future_required_frac" => outcome.memory.avg_future_required_frac,
            "kvpool.peak_consumed_frac" => outcome.memory.peak_consumed_frac,
            "prefix.share" => l.prefix_s() / run_s,
            "prefix.lookups" => l.lookups as f64,
            "prefix.ns_per_lookup" => ns(l.lookup_s, l.lookups),
            "prefix.inserts" => l.inserts as f64,
            "prefix.ns_per_insert" => ns(l.insert_s, l.inserts),
            "prefix.blocks_removed" => l.blocks_removed as f64,
            "prefix.hit_rate" => outcome.prefix.hit_rate(),
            "prefix.cached_token_share" => ratio(outcome.prefix.hit_tokens as f64, prompt_tokens),
            "router.share" => l.router_s / run_s,
            "router.queries" => l.queries as f64,
            "router.ns_per_query" => ns(l.router_s, l.queries),
            "router.index_events" => l.index_events as f64,
            "router.overlap_share" => ratio(
                l.routed_overlap_tokens as f64,
                l.routed_prompt_tokens as f64,
            ),
            "router.prefix_hit_share" => ratio(l.routed_hits as f64, l.queries as f64),
            "link.share" => l.link_s() / run_s,
            "link.streams" => l.streams as f64,
            "link.ns_per_advance" => ns(l.advance_s, l.advances),
            "link.ns_per_projection" => ns(l.projection_s, l.projections),
            "link.utilization" => l.link_utilization,
            "link.tail_s_mean" => outcome
                .transfers
                .map_or(0.0, |(streamed, _, tail)| ratio(tail, streamed as f64)),
            "autoscale.scale_events" => outcome.scale_events as f64,
            "autoscale.peak_replicas" => match w.kind {
                Kind::Elastic => outcome.peak_replicas as f64,
                _ => w.instances() as f64,
            },
            "obs.events" => events as f64,
            "obs.gauges" => gauges as f64,
            "obs.ns_per_event" => ns(traced_s - run_s, events + gauges),
            "obs.reconstruct_ns_per_event" => ratio(reconstruct_s * 1e9, n_events),
            "obs.chrome_export_s" => chrome_s,
            "workload.requests" => specs.len() as f64,
            "workload.prompt_tokens_mean" => ratio(prompt_tokens, specs.len() as f64),
            "workload.output_tokens_mean" => ratio(output_tokens, specs.len() as f64),
            "workload.shared_prefix_share" => ratio(shared_tokens, prompt_tokens),
            _ => unreachable!("{name} has no definition"),
        }
    };
    for m in &catalog::PER_LAYER {
        report.per_layer.push(Metric {
            name: m.name,
            unit: m.unit,
            samples: one(value(m.name)),
            note: String::new(),
        });
    }
}
