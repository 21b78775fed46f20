//! The paper's evaluation datasets, as synthetic builders.
//!
//! Section 5.1 of the paper evaluates on:
//!
//! * **Distribution-1/2/3** — uniform input/output ranges
//!   32–4k / 2k–4k (decode-heavy), 3k–5k / 3k–5k (balanced) and
//!   2k–4k / 32–4k (prefill-heavy). These are specified exactly and need no
//!   approximation.
//! * **ShareGPT** — human chat; short-to-medium prompts and answers. We use
//!   the well-known log-normal shape, capped at 2048 new tokens as in the
//!   paper's end-to-end experiment.
//! * **ShareGPT-o1** — ShareGPT questions answered by a chain-of-thought
//!   model (avg input ≈ 381, avg output ≈ 2160 per Figure 7). Log-normal
//!   with a long-output mode.
//! * **TextVQA** — multimodal VQA: a fixed vision-token prefix per image
//!   (256 for Qwen-VL-Chat, 576 for LLaVA-1.5) plus a short question and a
//!   short answer.
//! * **Mixed-phase** — ShareGPT-o1 ∥ D1 ∥ D2 ∥ D3 concatenated, the
//!   varying-load workload of Figure 8.

use rand::Rng;

use crate::request::RequestSpec;
use crate::rng::{derive_seed, seeded};
use crate::sampler::LengthSampler;

/// Builds `n` requests by drawing input/output lengths from two samplers.
///
/// Output draws are clamped to `[1, max_new_tokens]` (a real engine stops at
/// the generation cap).
pub fn from_samplers(
    n: usize,
    seed: u64,
    input: &LengthSampler,
    output: &LengthSampler,
    max_new_tokens: u32,
) -> Vec<RequestSpec> {
    let mut in_rng = seeded(derive_seed(seed, 0));
    let mut out_rng = seeded(derive_seed(seed, 1));
    (0..n)
        .map(|i| {
            let input_len = input.sample(&mut in_rng);
            let output_len = output.sample(&mut out_rng).clamp(1, max_new_tokens);
            RequestSpec::new(i as u64, input_len, output_len, max_new_tokens)
        })
        .collect()
}

/// Distribution-1 (decode-heavy): input U\[32, 4096\], output U\[2048, 4096\].
pub fn distribution_1(n: usize, seed: u64) -> Vec<RequestSpec> {
    from_samplers(
        n,
        derive_seed(seed, 101),
        &LengthSampler::uniform(32, 4096),
        &LengthSampler::uniform(2048, 4096),
        4096,
    )
}

/// Distribution-2 (balanced): input U\[3072, 5120\], output U\[3072, 5120\].
pub fn distribution_2(n: usize, seed: u64) -> Vec<RequestSpec> {
    from_samplers(
        n,
        derive_seed(seed, 102),
        &LengthSampler::uniform(3072, 5120),
        &LengthSampler::uniform(3072, 5120),
        5120,
    )
}

/// Distribution-3 (prefill-heavy): input U\[2048, 4096\], output U\[32, 4096\].
pub fn distribution_3(n: usize, seed: u64) -> Vec<RequestSpec> {
    from_samplers(
        n,
        derive_seed(seed, 103),
        &LengthSampler::uniform(2048, 4096),
        &LengthSampler::uniform(32, 4096),
        4096,
    )
}

/// ShareGPT-like chat workload (used by the Figure 9 end-to-end comparison
/// with `max_new_tokens = 2048`).
pub fn sharegpt(n: usize, seed: u64) -> Vec<RequestSpec> {
    from_samplers(
        n,
        derive_seed(seed, 104),
        &LengthSampler::log_normal_median(230.0, 0.9, 4, 2048),
        &LengthSampler::log_normal_median(200.0, 1.0, 4, 2048),
        2048,
    )
}

/// ShareGPT-o1-like chain-of-thought workload (decode-heavy; Figure 7 top
/// row reports avg input 381, avg output 2160).
pub fn sharegpt_o1(n: usize, seed: u64) -> Vec<RequestSpec> {
    from_samplers(
        n,
        derive_seed(seed, 105),
        &LengthSampler::log_normal_median(300.0, 0.75, 16, 2048),
        &LengthSampler::log_normal_median(1750.0, 0.65, 64, 8192),
        8192,
    )
}

/// Short-chat workload used by the elastic-autoscaling and
/// disaggregation benches and their golden regression tests: input
/// U\[64, 256\], output U\[64, 384\] capped at 512.
///
/// This is deliberately the *one* definition of that workload — the
/// golden tolerance bands are pinned against these exact streams, so the
/// benches and the regression tests must not drift apart. Unlike the
/// other builders, the seed is passed straight through (no
/// `derive_seed`), preserving the streams the bands were measured on.
pub fn short_chat(n: usize, seed: u64) -> Vec<RequestSpec> {
    from_samplers(
        n,
        seed,
        &LengthSampler::uniform(64, 256),
        &LengthSampler::uniform(64, 384),
        512,
    )
}

/// Prefill-heavy chat workload (summarization / RAG-style): long prompts
/// drawn U\[1024, 3072\], terse answers U\[16, 96\] capped at 128.
///
/// This is the regime disaggregated prefill/decode serving targets — TTFT
/// is bound by prompt processing while the decode side barely loads — and
/// the load shape `bench --bin disagg` compares colocated and split pools
/// on.
pub fn prefill_heavy(n: usize, seed: u64) -> Vec<RequestSpec> {
    from_samplers(
        n,
        derive_seed(seed, 108),
        &LengthSampler::uniform(1024, 3072),
        &LengthSampler::uniform(16, 96),
        128,
    )
}

/// Fraction of [`mixed_deadline`] requests that are tight-deadline
/// interactive chat (the remainder is lax batch summarization).
const TIGHT_FRAC: f64 = 0.6;
/// Deadline of the chat class (time to first token before the client
/// gives up).
const TIGHT_DEADLINE: pf_metrics::SimDuration = pf_metrics::SimDuration::from_secs(5);
/// Deadline of the batch class.
const LAX_DEADLINE: pf_metrics::SimDuration = pf_metrics::SimDuration::from_secs(60);
/// Chat prompt lengths.
const CHAT_INPUT: LengthSampler = LengthSampler::UniformRange { lo: 64, hi: 256 };
/// Chat answer lengths.
const CHAT_OUTPUT: LengthSampler = LengthSampler::UniformRange { lo: 64, hi: 256 };
/// Chat generation cap.
const CHAT_CAP: u32 = 512;
/// Summarization prompt lengths (long documents).
const BATCH_INPUT: LengthSampler = LengthSampler::UniformRange { lo: 1024, hi: 3072 };
/// Summarization answer lengths (terse summaries).
const BATCH_OUTPUT: LengthSampler = LengthSampler::UniformRange { lo: 16, hi: 96 };
/// Summarization generation cap.
const BATCH_CAP: u32 = 128;

/// Mixed-deadline traffic: tight-deadline interactive chat interleaved
/// with lax batch summarization, every request carrying an explicit
/// [`RequestSpec::deadline`]. This is the workload slack-aware admission
/// ([`QueueOrder::LeastSlackFirst`] in `pf-sim`) targets — under FIFO a
/// chat request with 50 ms of slack waits behind a 3k-token document with
/// a minute to spare, and both classes miss.
///
/// 60% of the requests are interactive chat (U\[64, 256\] both ways,
/// capped at 512) under a 5-second first-token deadline, 40% document
/// summarization (U\[1024, 3072\] in, U\[16, 96\] out, capped at 128)
/// under a lax 60-second one — the mix where FIFO admission lets one long
/// document blow a handful of chat deadlines. The class of each request
/// is an independent Bernoulli draw, so the two streams interleave the
/// way a shared front end sees them. Ids are dense in emission order.
///
/// [`QueueOrder::LeastSlackFirst`]: https://docs.rs/pf-sim
pub fn mixed_deadline(n: usize, seed: u64) -> Vec<RequestSpec> {
    let base = derive_seed(seed, 111);
    let mut class_rng = seeded(derive_seed(base, 0));
    let mut in_rng = seeded(derive_seed(base, 1));
    let mut out_rng = seeded(derive_seed(base, 2));
    (0..n)
        .map(|i| {
            if class_rng.gen_bool(TIGHT_FRAC) {
                let input = CHAT_INPUT.sample(&mut in_rng);
                let output = CHAT_OUTPUT.sample(&mut out_rng).clamp(1, CHAT_CAP);
                RequestSpec::new(i as u64, input, output, CHAT_CAP).with_deadline(TIGHT_DEADLINE)
            } else {
                let input = BATCH_INPUT.sample(&mut in_rng);
                let output = BATCH_OUTPUT.sample(&mut out_rng).clamp(1, BATCH_CAP);
                RequestSpec::new(i as u64, input, output, BATCH_CAP).with_deadline(LAX_DEADLINE)
            }
        })
        .collect()
}

/// Parameters of the [`multi_turn_chat`] session builder.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTurnSpec {
    /// Tokens of the system prompt prepended to every session's first
    /// turn (part of the session prefix from turn two on).
    pub system_prompt_len: u32,
    /// Tokens of each new user message.
    pub user_turn: LengthSampler,
    /// Tokens of each assistant answer.
    pub assistant_turn: LengthSampler,
    /// Probability that a session continues after a turn (geometric
    /// session length with mean `1 / (1 - p)` turns).
    pub continue_prob: f64,
    /// Sessions interleaved round-robin at any moment — consecutive
    /// requests belong to different sessions, as a shared front end sees
    /// them.
    pub concurrent_sessions: usize,
    /// Generation cap per turn.
    pub max_new_tokens: u32,
    /// Conversations are force-ended once their token count would exceed
    /// this context budget (a real chat UI truncates or re-summarizes).
    pub max_context: u32,
}

impl Default for MultiTurnSpec {
    fn default() -> Self {
        MultiTurnSpec {
            system_prompt_len: 224,
            user_turn: LengthSampler::uniform(16, 128),
            assistant_turn: LengthSampler::uniform(32, 256),
            continue_prob: 0.72,
            concurrent_sessions: 8,
            max_new_tokens: 512,
            max_context: 3_072,
        }
    }
}

/// Multi-turn chat workload with shared-prefix structure — the traffic
/// shape KV-aware prefix-affinity routing targets.
///
/// Sessions have geometric length: after every turn the conversation
/// continues with probability [`MultiTurnSpec::continue_prob`]. Each
/// session's first turn carries the system prompt plus a user message
/// (`prefix_len = 0`: nothing of this session is cached anywhere yet);
/// every later turn repeats the full conversation so far — system prompt,
/// previous user messages and assistant answers — as its prefix, then
/// appends a fresh user message. All turns of one session declare the same
/// [`crate::PrefixId`], so a router can steer them to the instance that
/// still holds the conversation's KV. Sessions are interleaved round-robin
/// across [`MultiTurnSpec::concurrent_sessions`] slots, mimicking a front
/// end multiplexing many concurrent users.
pub fn multi_turn_chat(n: usize, seed: u64) -> Vec<RequestSpec> {
    let spec = MultiTurnSpec::default();
    let base = derive_seed(seed, 109);
    let mut user_rng = seeded(derive_seed(base, 0));
    let mut out_rng = seeded(derive_seed(base, 1));
    let mut cont_rng = seeded(derive_seed(base, 2));
    /// One interleaving slot: the session currently owning it, if any.
    struct Slot {
        session: u64,
        /// Conversation tokens so far (inputs + outputs of past turns).
        conversation: u32,
    }
    let mut slots: Vec<Option<Slot>> = (0..spec.concurrent_sessions).map(|_| None).collect();
    let mut next_session = 0u64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let slot = &mut slots[i % spec.concurrent_sessions];
        let (session, prefix_len) = match slot {
            Some(s) => (s.session, s.conversation),
            None => {
                let session = next_session;
                next_session += 1;
                *slot = Some(Slot {
                    session,
                    conversation: 0,
                });
                (session, 0)
            }
        };
        let fresh = if prefix_len == 0 {
            spec.system_prompt_len + spec.user_turn.sample(&mut user_rng)
        } else {
            spec.user_turn.sample(&mut user_rng)
        };
        let input_len = prefix_len + fresh;
        let output_len = spec
            .assistant_turn
            .sample(&mut out_rng)
            .clamp(1, spec.max_new_tokens);
        out.push(
            RequestSpec::new(i as u64, input_len, output_len, spec.max_new_tokens)
                .with_prefix(session, prefix_len),
        );
        let conversation = input_len + output_len;
        let continues = cont_rng.gen_bool(spec.continue_prob)
            && conversation + spec.user_turn.max_len() + spec.max_new_tokens <= spec.max_context;
        *slot = continues.then_some(Slot {
            session,
            conversation,
        });
    }
    out
}

/// Session-timed variant of [`multi_turn_chat`]: sessions *arrive* as a
/// Poisson process at `sessions_per_sec`, and each follow-up turn arrives
/// one think gap after the previous turn — `think_floor_secs` (covering
/// the assistant's response time plus a minimal read) plus an
/// exponentially distributed pause of mean `think_mean_secs`.
///
/// This is the closed-loop-per-session shape real chat traffic has: a
/// user cannot send turn *k + 1* before reading the answer to turn *k*.
/// An open-loop assignment (e.g. [`crate::PoissonArrivals`] over
/// [`multi_turn_chat`]'s output) breaks that causality at high rates —
/// follow-up turns arrive before their session's previous turn finished,
/// making prefix reuse physically impossible no matter how the router
/// behaves.
///
/// Returns `(requests, arrival_times)` sorted by arrival time, ids dense
/// in arrival order — ready for the cluster drivers.
///
/// # Panics
///
/// Panics if `sessions_per_sec` is not finite and positive, the think
/// parameters are negative, or `spec.continue_prob` is outside `[0, 1)`.
pub fn multi_turn_chat_timed(
    n: usize,
    seed: u64,
    spec: &MultiTurnSpec,
    sessions_per_sec: f64,
    think_floor_secs: f64,
    think_mean_secs: f64,
) -> (Vec<RequestSpec>, Vec<pf_metrics::SimTime>) {
    timed_sessions(
        n,
        derive_seed(seed, 110),
        spec,
        None,
        sessions_per_sec,
        think_floor_secs,
        think_mean_secs,
    )
}

/// One generated turn of a timed chat session, before its id.
struct Turn {
    at_us: u64,
    session: u64,
    turn: u32,
    input_len: u32,
    output_len: u32,
    /// The conversation so far (the session prefix).
    prefix_len: u32,
    /// The session's tenant (0 without tenants).
    tenant: u64,
}

/// The session generator behind [`multi_turn_chat_timed`] and
/// [`shared_sysprompt_chat_timed`]: Poisson session starts, geometric
/// turns separated by think gaps, then the turns interleaved by arrival
/// and cut to `n`. With `tenants = Some((count, system_prompt_len))`,
/// every session draws a tenant, opens with that tenant's system prompt
/// in place of `chat.system_prompt_len`, and declares it on every turn.
///
/// Draws from sub-streams 0–4 of `base`, and 5 for the tenants.
fn timed_sessions(
    n: usize,
    base: u64,
    chat: &MultiTurnSpec,
    tenants: Option<(usize, u32)>,
    sessions_per_sec: f64,
    think_floor_secs: f64,
    think_mean_secs: f64,
) -> (Vec<RequestSpec>, Vec<pf_metrics::SimTime>) {
    assert!(
        sessions_per_sec.is_finite() && sessions_per_sec > 0.0,
        "invalid session rate {sessions_per_sec}"
    );
    assert!(
        think_floor_secs >= 0.0 && think_mean_secs >= 0.0,
        "negative think time"
    );
    assert!(
        (0.0..1.0).contains(&chat.continue_prob),
        "continue probability {} outside [0, 1)",
        chat.continue_prob
    );
    let mut start_rng = seeded(derive_seed(base, 0));
    let mut user_rng = seeded(derive_seed(base, 1));
    let mut out_rng = seeded(derive_seed(base, 2));
    let mut cont_rng = seeded(derive_seed(base, 3));
    let mut think_rng = seeded(derive_seed(base, 4));
    let mut tenant_draw = tenants.map(|(count, _)| (seeded(derive_seed(base, 5)), count as u64));
    let system_prompt_len = tenants.map_or(chat.system_prompt_len, |(_, len)| len);
    let mut turns: Vec<Turn> = Vec::with_capacity(2 * n);
    let mut session_start = 0.0f64;
    let mut session = 0u64;
    while turns.len() < n {
        let u: f64 = start_rng.gen();
        session_start += -(1.0 - u).ln() / sessions_per_sec;
        let tenant = tenant_draw
            .as_mut()
            .map_or(0, |(rng, count)| rng.gen_range(0..*count));
        let mut at = session_start;
        let mut conversation = 0u32;
        let mut turn = 0u32;
        loop {
            let fresh = if conversation == 0 {
                system_prompt_len + chat.user_turn.sample(&mut user_rng)
            } else {
                chat.user_turn.sample(&mut user_rng)
            };
            let input_len = conversation + fresh;
            let output_len = chat
                .assistant_turn
                .sample(&mut out_rng)
                .clamp(1, chat.max_new_tokens);
            turns.push(Turn {
                at_us: (at * 1e6) as u64,
                session,
                turn,
                input_len,
                output_len,
                prefix_len: conversation,
                tenant,
            });
            conversation = input_len + output_len;
            let continues = cont_rng.gen_bool(chat.continue_prob)
                && conversation + chat.user_turn.max_len() + chat.max_new_tokens
                    <= chat.max_context;
            if !continues {
                break;
            }
            let u: f64 = think_rng.gen();
            at += think_floor_secs - (1.0 - u).ln() * think_mean_secs;
            turn += 1;
        }
        session += 1;
    }
    // Interleave sessions by arrival; truncating to n may cut a session's
    // tail, which is fine (the user left).
    turns.sort_unstable_by_key(|t| (t.at_us, t.session, t.turn));
    turns.truncate(n);
    let mut requests = Vec::with_capacity(n);
    let mut arrivals = Vec::with_capacity(n);
    for (i, t) in turns.into_iter().enumerate() {
        let request = RequestSpec::new(i as u64, t.input_len, t.output_len, chat.max_new_tokens)
            .with_prefix(t.session, t.prefix_len);
        requests.push(match tenants {
            Some(_) => request.with_system_prompt(t.tenant, system_prompt_len),
            None => request,
        });
        arrivals.push(pf_metrics::SimTime::from_micros(t.at_us));
    }
    (requests, arrivals)
}

/// Parameters of the [`shared_sysprompt_chat_timed`] tenant-traffic builder.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedSyspromptSpec {
    /// Distinct tenants; each owns one shared system prompt and sessions
    /// are assigned to tenants uniformly at random.
    pub tenants: usize,
    /// Tokens of every tenant's system prompt. This leading span is
    /// *identical across all sessions of the tenant* — the cross-session
    /// reuse whole-prefix caching cannot express — so it should dominate
    /// the first-turn prompt for the effect to matter.
    pub system_prompt_len: u32,
    /// Turn shape of the sessions (its `system_prompt_len` is replaced by
    /// the tenant prompt above).
    pub chat: MultiTurnSpec,
}

impl Default for SharedSyspromptSpec {
    fn default() -> Self {
        SharedSyspromptSpec {
            tenants: 4,
            system_prompt_len: 512,
            chat: MultiTurnSpec {
                // Shorter sessions than plain multi-turn chat: every
                // session *start* pays the (long) system prompt, which is
                // exactly the traffic block-granular sharing targets.
                continue_prob: 0.55,
                ..MultiTurnSpec::default()
            },
        }
    }
}

/// Multi-tenant chat where sessions of one tenant share a long system
/// prompt: the cross-session variant of [`multi_turn_chat_timed`].
///
/// Every session carries its own [`crate::PrefixId`] (turn *k + 1*
/// repeats the conversation of turn *k*), and additionally declares its
/// tenant's `system_prompt_id` over the first
/// [`SharedSyspromptSpec::system_prompt_len`] prompt tokens. Whole-prefix
/// caching sees nothing reusable on a session's first turn; block-granular
/// caching reuses the tenant's system-prompt blocks stored by *other*
/// sessions ([`crate::RequestSpec::matchable_blocks`]).
///
/// Sessions arrive Poisson at `sessions_per_sec` and follow-up turns wait
/// one think gap, exactly as in [`multi_turn_chat_timed`]. Returns
/// `(requests, arrival_times)` sorted by arrival, ids dense in arrival
/// order.
///
/// # Panics
///
/// Panics on the same invalid rates/think parameters as
/// [`multi_turn_chat_timed`], or if `spec.tenants` is zero.
pub fn shared_sysprompt_chat_timed(
    n: usize,
    seed: u64,
    spec: &SharedSyspromptSpec,
    sessions_per_sec: f64,
    think_floor_secs: f64,
    think_mean_secs: f64,
) -> (Vec<RequestSpec>, Vec<pf_metrics::SimTime>) {
    assert!(spec.tenants > 0, "need at least one tenant");
    timed_sessions(
        n,
        derive_seed(seed, 113),
        &spec.chat,
        Some((spec.tenants, spec.system_prompt_len)),
        sessions_per_sec,
        think_floor_secs,
        think_mean_secs,
    )
}

/// TextVQA-like multimodal workload for Qwen-VL-Chat (256 vision tokens per
/// image).
pub fn textvqa_qwen_vl(n: usize, seed: u64) -> Vec<RequestSpec> {
    multimodal(n, derive_seed(seed, 106), 256)
}

/// TextVQA-like multimodal workload for LLaVA-1.5 (576 vision tokens per
/// image).
pub fn textvqa_llava(n: usize, seed: u64) -> Vec<RequestSpec> {
    multimodal(n, derive_seed(seed, 107), 576)
}

fn multimodal(n: usize, seed: u64, image_tokens: u32) -> Vec<RequestSpec> {
    let question = LengthSampler::uniform(8, 60);
    let answer = LengthSampler::mixture(vec![
        // Most VQA answers are a few tokens; a minority explain at length.
        (0.8, LengthSampler::uniform(2, 20)),
        (0.2, LengthSampler::uniform(20, 160)),
    ]);
    let max_new_tokens = 256;
    let mut q_rng = seeded(derive_seed(seed, 0));
    let mut a_rng = seeded(derive_seed(seed, 1));
    (0..n)
        .map(|i| {
            let text = question.sample(&mut q_rng);
            let output = answer.sample(&mut a_rng).clamp(1, max_new_tokens);
            RequestSpec::new_multimodal(
                i as u64,
                image_tokens + text,
                image_tokens,
                output,
                max_new_tokens,
            )
        })
        .collect()
}

/// The Figure 8 varying-load workload: ShareGPT-o1 followed by
/// Distribution-1, -2 and -3, re-identified sequentially.
pub fn mixed_phase(n_per_phase: usize, seed: u64) -> Vec<RequestSpec> {
    let phases = [
        sharegpt_o1(n_per_phase, derive_seed(seed, 1)),
        distribution_1(n_per_phase, derive_seed(seed, 2)),
        distribution_2(n_per_phase, derive_seed(seed, 3)),
        distribution_3(n_per_phase, derive_seed(seed, 4)),
    ];
    let mut out = Vec::with_capacity(n_per_phase * 4);
    for phase in phases {
        for mut request in phase {
            request.id = (out.len() as u64).into();
            out.push(request);
        }
    }
    out
}

/// Draws a random subset used for quick smoke runs (keeps order, thins
/// uniformly).
pub fn thin<R: Rng + ?Sized>(
    requests: &[RequestSpec],
    keep: usize,
    rng: &mut R,
) -> Vec<RequestSpec> {
    if keep >= requests.len() {
        return requests.to_vec();
    }
    let mut picked: Vec<usize> = rand::seq::index::sample(rng, requests.len(), keep).into_vec();
    picked.sort_unstable();
    picked
        .into_iter()
        .enumerate()
        .map(|(new_id, idx)| {
            let mut r = requests[idx];
            r.id = (new_id as u64).into();
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(values: impl Iterator<Item = u32>) -> f64 {
        let v: Vec<f64> = values.map(f64::from).collect();
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn distribution_bounds_match_paper() {
        let d1 = distribution_1(500, 1);
        assert!(d1.iter().all(|r| (32..=4096).contains(&r.input_len)));
        assert!(d1
            .iter()
            .all(|r| (2048..=4096).contains(&r.true_output_len)));
        let d2 = distribution_2(500, 1);
        assert!(d2.iter().all(|r| (3072..=5120).contains(&r.input_len)));
        assert!(d2
            .iter()
            .all(|r| (3072..=5120).contains(&r.true_output_len)));
        let d3 = distribution_3(500, 1);
        assert!(d3.iter().all(|r| (2048..=4096).contains(&r.input_len)));
        assert!(d3.iter().all(|r| (32..=4096).contains(&r.true_output_len)));
    }

    #[test]
    fn d1_is_decode_heavy_d3_is_prefill_heavy() {
        let d1 = distribution_1(2000, 2);
        let d3 = distribution_3(2000, 2);
        let d1_in = mean_of(d1.iter().map(|r| r.input_len));
        let d1_out = mean_of(d1.iter().map(|r| r.true_output_len));
        let d3_in = mean_of(d3.iter().map(|r| r.input_len));
        let d3_out = mean_of(d3.iter().map(|r| r.true_output_len));
        assert!(d1_out > d1_in, "D1 must be decode-heavy");
        assert!(d3_in > d3_out, "D3 must be prefill-heavy");
    }

    #[test]
    fn sharegpt_o1_matches_reported_averages() {
        // Figure 7: avg input 381, avg output 2160. Allow 15% tolerance for
        // the synthetic stand-in.
        let reqs = sharegpt_o1(20_000, 3);
        let avg_in = mean_of(reqs.iter().map(|r| r.input_len));
        let avg_out = mean_of(reqs.iter().map(|r| r.true_output_len));
        assert!(
            (avg_in - 381.0).abs() / 381.0 < 0.15,
            "avg input {avg_in} too far from 381"
        );
        assert!(
            (avg_out - 2160.0).abs() / 2160.0 < 0.15,
            "avg output {avg_out} too far from 2160"
        );
    }

    #[test]
    fn prefill_heavy_is_prefill_heavy() {
        let reqs = prefill_heavy(1000, 7);
        assert!(reqs.iter().all(|r| (1024..=3072).contains(&r.input_len)));
        assert!(reqs.iter().all(|r| (16..=96).contains(&r.true_output_len)));
        let mean_in = mean_of(reqs.iter().map(|r| r.input_len));
        let mean_out = mean_of(reqs.iter().map(|r| r.true_output_len));
        assert!(mean_in > 20.0 * mean_out, "prompts must dominate outputs");
    }

    #[test]
    fn sharegpt_respects_cap() {
        let reqs = sharegpt(2000, 4);
        assert!(reqs.iter().all(|r| r.true_output_len <= 2048));
        assert!(reqs.iter().all(|r| r.max_new_tokens == 2048));
    }

    #[test]
    fn multimodal_has_image_prefix() {
        let qwen = textvqa_qwen_vl(100, 5);
        assert!(qwen.iter().all(|r| r.image_tokens == 256));
        assert!(qwen.iter().all(|r| r.input_len > 256));
        let llava = textvqa_llava(100, 5);
        assert!(llava.iter().all(|r| r.image_tokens == 576));
    }

    #[test]
    fn mixed_phase_concatenates_and_reids() {
        let m = mixed_phase(50, 6);
        assert_eq!(m.len(), 200);
        for (i, r) in m.iter().enumerate() {
            assert_eq!(r.id.raw(), i as u64);
        }
        // First phase decode-heavy (o1), last phase prefill-heavy (D3).
        let first = mean_of(m[..50].iter().map(|r| r.true_output_len));
        let last_in = mean_of(m[150..].iter().map(|r| r.input_len));
        let last_out = mean_of(m[150..].iter().map(|r| r.true_output_len));
        assert!(first > 1000.0);
        assert!(last_in > last_out);
    }

    #[test]
    fn mixed_deadline_interleaves_two_deadline_classes() {
        let reqs = mixed_deadline(400, 5);
        assert_eq!(reqs.len(), 400);
        let tight: Vec<&RequestSpec> = reqs
            .iter()
            .filter(|r| r.deadline == Some(TIGHT_DEADLINE))
            .collect();
        let lax: Vec<&RequestSpec> = reqs
            .iter()
            .filter(|r| r.deadline == Some(LAX_DEADLINE))
            .collect();
        assert_eq!(tight.len() + lax.len(), 400, "every request has a class");
        // Bernoulli(0.6) over 400 draws stays comfortably inside [0.4, 0.8].
        let frac = tight.len() as f64 / 400.0;
        assert!((0.4..=0.8).contains(&frac), "tight fraction {frac}");
        // Chat is short both ways; summarization is prompt-dominated.
        assert!(tight.iter().all(|r| (64..=256).contains(&r.input_len)));
        assert!(tight.iter().all(|r| r.max_new_tokens == CHAT_CAP));
        assert!(lax.iter().all(|r| (1024..=3072).contains(&r.input_len)));
        assert!(lax.iter().all(|r| (16..=96).contains(&r.true_output_len)));
        // Dense ids in emission order; deterministic.
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id.raw(), i as u64);
        }
        assert_eq!(mixed_deadline(400, 5), reqs);
        assert_ne!(mixed_deadline(400, 6), reqs);
    }

    #[test]
    fn multi_turn_chat_builds_session_chains() {
        let spec = MultiTurnSpec::default();
        let reqs = multi_turn_chat(600, 1);
        assert_eq!(reqs.len(), 600);
        let mut turns: std::collections::BTreeMap<u64, Vec<&RequestSpec>> = Default::default();
        for r in &reqs {
            let prefix = r.prefix_id.expect("every chat request has a session");
            turns.entry(prefix.raw()).or_default().push(r);
        }
        assert!(turns.len() > 10, "expected many sessions");
        let mut multi_turn_sessions = 0;
        for session in turns.values() {
            // First turn: fresh conversation carrying the system prompt.
            assert_eq!(session[0].prefix_len, 0);
            assert!(session[0].input_len >= spec.system_prompt_len);
            let mut conversation = session[0].input_len + session[0].true_output_len;
            for turn in &session[1..] {
                multi_turn_sessions += 1;
                // Later turns repeat the exact conversation so far.
                assert_eq!(turn.prefix_len, conversation);
                assert!(turn.input_len > turn.prefix_len, "a fresh user message");
                conversation = turn.input_len + turn.true_output_len;
                // The force-end rule keeps continued conversations within
                // the context budget.
                assert!(
                    conversation <= spec.max_context,
                    "conversation {conversation} exceeds the context budget"
                );
            }
        }
        assert!(
            multi_turn_sessions > 100,
            "geometric sessions should yield many follow-up turns, got {multi_turn_sessions}"
        );
        // Request ids are dense and sequential (arrival order).
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id.raw(), i as u64);
        }
    }

    #[test]
    fn multi_turn_chat_interleaves_sessions() {
        let reqs = multi_turn_chat(64, 2);
        // Consecutive requests never belong to the same session: the
        // round-robin slots model a front end serving many users at once.
        for pair in reqs.windows(2) {
            assert_ne!(pair[0].prefix_id, pair[1].prefix_id);
        }
    }

    #[test]
    fn multi_turn_chat_timed_respects_session_causality() {
        let spec = MultiTurnSpec::default();
        let floor = 4.0;
        let (reqs, times) = multi_turn_chat_timed(500, 3, &spec, 2.0, floor, 6.0);
        assert_eq!(reqs.len(), 500);
        assert_eq!(times.len(), 500);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted arrivals");
        let mut last_turn: std::collections::BTreeMap<u64, (u32, pf_metrics::SimTime)> =
            Default::default();
        let mut follow_ups = 0;
        for (r, &at) in reqs.iter().zip(&times) {
            let session = r.prefix_id.expect("sessions everywhere").raw();
            match last_turn.get(&session) {
                None => assert_eq!(r.prefix_len, 0, "first turn of a session"),
                Some(&(conversation, prev_at)) => {
                    follow_ups += 1;
                    // The conversation chain is exact and the think gap
                    // keeps causality: a user answers only after the floor.
                    assert_eq!(r.prefix_len, conversation);
                    assert!(
                        (at - prev_at).as_secs_f64() >= floor - 1e-6,
                        "turn arrived {}s after its predecessor",
                        (at - prev_at).as_secs_f64()
                    );
                }
            }
            last_turn.insert(session, (r.input_len + r.true_output_len, at));
        }
        assert!(follow_ups > 150, "expected many follow-up turns");
        // Dense ids in arrival order; deterministic.
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id.raw(), i as u64);
        }
        assert_eq!(
            multi_turn_chat_timed(500, 3, &spec, 2.0, floor, 6.0).0,
            reqs
        );
    }

    #[test]
    fn shared_sysprompt_chat_shares_tenant_prompts() {
        let spec = SharedSyspromptSpec::default();
        let (reqs, _) = shared_sysprompt_chat_timed(400, 5, &spec, 4.0, 2.0, 3.0);
        let mut tenants = std::collections::BTreeSet::new();
        let mut session_tenant: std::collections::BTreeMap<u64, u64> = Default::default();
        for r in &reqs {
            let tenant = r.system_prompt_id.expect("every request has a tenant");
            assert!(tenant < spec.tenants as u64);
            assert_eq!(r.system_prompt_len, spec.system_prompt_len);
            assert!(r.system_prompt_len <= r.input_len);
            tenants.insert(tenant);
            // A session never switches tenants mid-conversation.
            let session = r.prefix_id.expect("sessions everywhere").raw();
            assert_eq!(*session_tenant.entry(session).or_insert(tenant), tenant);
        }
        assert!(tenants.len() > 1, "sessions spread over several tenants");
        // Cross-session sharing is real: two first-turn requests of the
        // same tenant produce identical matchable block chains.
        let firsts: Vec<&RequestSpec> = reqs
            .iter()
            .filter(|r| r.prefix_len == 0 && r.system_prompt_id == Some(0))
            .take(2)
            .collect();
        assert_eq!(firsts.len(), 2, "tenant 0 starts at least two sessions");
        let a: Vec<u64> = firsts[0].matchable_blocks(64).collect();
        let b: Vec<u64> = firsts[1].matchable_blocks(64).collect();
        assert_eq!(a, b);
        assert_eq!(a.len() as u32, spec.system_prompt_len / 64);
    }

    #[test]
    fn shared_sysprompt_chat_timed_keeps_causality_and_tenancy() {
        let spec = SharedSyspromptSpec::default();
        let (reqs, times) = shared_sysprompt_chat_timed(400, 7, &spec, 4.0, 2.0, 3.0);
        assert_eq!(reqs.len(), 400);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted arrivals");
        let mut last_turn: std::collections::BTreeMap<u64, u32> = Default::default();
        for r in &reqs {
            let session = r.prefix_id.expect("sessions everywhere").raw();
            match last_turn.get(&session) {
                None => assert_eq!(r.prefix_len, 0),
                Some(&conversation) => assert_eq!(r.prefix_len, conversation),
            }
            last_turn.insert(session, r.input_len + r.true_output_len);
            assert!(r.system_prompt_id.is_some());
        }
        assert_eq!(
            shared_sysprompt_chat_timed(400, 7, &spec, 4.0, 2.0, 3.0).0,
            reqs
        );
    }

    #[test]
    fn multi_turn_chat_is_deterministic() {
        assert_eq!(multi_turn_chat(200, 9), multi_turn_chat(200, 9));
        assert_ne!(multi_turn_chat(200, 9), multi_turn_chat(200, 10));
    }

    #[test]
    fn builders_are_deterministic() {
        assert_eq!(distribution_1(50, 9), distribution_1(50, 9));
        assert_ne!(distribution_1(50, 9), distribution_1(50, 10));
    }

    #[test]
    fn thin_preserves_order_and_reids() {
        let reqs = distribution_1(100, 1);
        let mut rng = crate::rng::seeded(1);
        let thinned = thin(&reqs, 10, &mut rng);
        assert_eq!(thinned.len(), 10);
        for (i, r) in thinned.iter().enumerate() {
            assert_eq!(r.id.raw(), i as u64);
        }
        let full = thin(&reqs, 200, &mut rng);
        assert_eq!(full.len(), 100);
    }
}
