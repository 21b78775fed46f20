//! Simulation errors.

use std::error::Error;
use std::fmt;

use pf_kvcache::KvCacheError;
use pf_metrics::SimTime;

/// Errors reported by [`Simulation::run`](crate::Simulation::run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The model does not fit on the configured hardware at all.
    NoKvCapacity {
        /// Computed KV capacity in tokens.
        capacity: u64,
    },
    /// A request can never run: its final footprint exceeds total capacity.
    RequestTooLarge {
        /// Offending request id.
        id: u64,
        /// Tokens the request needs at completion.
        needed: u64,
        /// Total capacity in tokens.
        capacity: u64,
    },
    /// An engine made no progress: nothing is running, requests are
    /// queued, and the scheduler refuses to admit any of them (e.g. a
    /// conservative scheduler facing a request whose worst case exceeds
    /// its budget).
    Stalled {
        /// Requests stuck in the queue.
        queued: usize,
        /// Simulated time at the stall.
        at: SimTime,
    },
    /// The KV-cache manager rejected an operation the engine believed
    /// valid — an unknown request id (a routing/bookkeeping bug) or an
    /// extension the shortfall check should have covered. The typed error
    /// locates the bug instead of poisoning the whole simulation with a
    /// panic.
    KvCache {
        /// The underlying manager error.
        error: KvCacheError,
        /// Simulated time of the failing operation.
        at: SimTime,
    },
    /// The router policy cannot run as configured, and would otherwise
    /// route silently on garbage: a NaN or infinite `KvOverlap` weight or
    /// temperature (`overlap_weight`/`temperature`), or `KvOverlap` over
    /// a fleet without a prefix cache (`prefix_cache`), where every
    /// overlap reads 0.
    InvalidRouterPolicy {
        /// Name of the offending parameter.
        parameter: &'static str,
    },
    /// The scheduler config holds a value its constructor rejects: a
    /// Past-Future `window` or `sample_repeats` of 0 or a `reserved_frac`
    /// outside `[0, 1)`, an aggressive `watermark` outside `(0, 1]`, or a
    /// conservative `overcommit` below 1; NaN is out of every range.
    InvalidScheduler {
        /// Name of the offending parameter.
        parameter: &'static str,
    },
    /// The prefix-cache config holds a value its builder rejects: a
    /// `budget_frac` outside `(0, 1]` (NaN included) or a `block_tokens`
    /// of 0. Its fields are public, so a struct literal can skip the
    /// builder's asserts.
    InvalidPrefixCache {
        /// Name of the offending parameter.
        parameter: &'static str,
    },
    /// A GPU type or a link holds a value its constructor rejects: a
    /// `perf_scale` or `cost_weight` of a fleet slot, the KV link's
    /// `link_gbps` or the swap link's `pcie_gbps`, that is not finite and
    /// positive. Their fields are public, so a struct literal can skip
    /// `GpuType::new`'s and `KvTransferSpec::new`'s asserts.
    InvalidHardware {
        /// Name of the offending parameter.
        parameter: &'static str,
    },
    /// An engine config holds a size its engine cannot run: a static
    /// `max_batch`, a paged `block_size` or a chunked `chunk_tokens` of 0,
    /// or static batching (`batching`) in a disaggregated pool, whose
    /// stages batch continuously. The enum fields are public, so a
    /// variant literal skips every builder.
    InvalidEngine {
        /// Name of the offending parameter.
        parameter: &'static str,
    },
    /// An autoscaled pool's planner cannot run as configured: an
    /// adjustment `interval` of zero or one that differs between the two
    /// pools of a disaggregated fleet, a `min_replicas` of 0 or above
    /// `max_replicas`, or an initial pool size (`initial_replicas`)
    /// outside `[min_replicas, max_replicas]`. The config's fields are
    /// public, so a struct literal can skip its builders' asserts.
    InvalidAutoscale {
        /// Name of the offending parameter.
        parameter: &'static str,
    },
    /// The workload cannot be replayed as given: arrival times that do
    /// not pair one-to-one with the requests or are not sorted, or a
    /// request id reserved by the simulator (`u64::MAX`, the prefix
    /// cache's pool charge).
    InvalidWorkload {
        /// The rule the workload breaks.
        reason: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoKvCapacity { capacity } => {
                write!(f, "model leaves no kv-cache capacity ({capacity} tokens)")
            }
            SimError::RequestTooLarge {
                id,
                needed,
                capacity,
            } => write!(
                f,
                "request {id} needs {needed} tokens but capacity is {capacity}"
            ),
            SimError::Stalled { queued, at } => write!(
                f,
                "scheduler stalled at {at} with {queued} queued requests and an empty batch"
            ),
            SimError::KvCache { error, at } => {
                write!(f, "kv-cache protocol error at {at}: {error}")
            }
            SimError::InvalidRouterPolicy { parameter } => {
                write!(
                    f,
                    "router policy parameter `{parameter}` is invalid \
                     (kv-overlap needs a finite weight and temperature and a prefix cache)"
                )
            }
            SimError::InvalidScheduler { parameter } => {
                write!(f, "scheduler parameter `{parameter}` is out of range")
            }
            SimError::InvalidPrefixCache { parameter } => {
                write!(f, "prefix-cache parameter `{parameter}` is out of range")
            }
            SimError::InvalidHardware { parameter } => {
                write!(f, "hardware parameter `{parameter}` is out of range")
            }
            SimError::InvalidEngine { parameter } => {
                write!(f, "engine parameter `{parameter}` is out of range")
            }
            SimError::InvalidAutoscale { parameter } => {
                write!(f, "autoscale parameter `{parameter}` is out of range")
            }
            SimError::InvalidWorkload { reason } => write!(f, "invalid workload: {reason}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::KvCache { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SimError::NoKvCapacity { capacity: 0 }
            .to_string()
            .contains("no kv-cache capacity"));
        assert!(SimError::RequestTooLarge {
            id: 3,
            needed: 10,
            capacity: 5
        }
        .to_string()
        .contains("request 3"));
        assert!(SimError::Stalled {
            queued: 2,
            at: SimTime::ZERO
        }
        .to_string()
        .contains("stalled"));
        let kv = SimError::KvCache {
            error: KvCacheError::UnknownRequest { req: 4 },
            at: SimTime::ZERO,
        };
        assert!(kv.to_string().contains("unknown request 4"));
        assert!(std::error::Error::source(&kv).is_some());
        assert!(SimError::InvalidRouterPolicy {
            parameter: "temperature"
        }
        .to_string()
        .contains("`temperature` is invalid"));
        assert!(SimError::InvalidScheduler {
            parameter: "reserved_frac"
        }
        .to_string()
        .contains("`reserved_frac` is out of range"));
        assert!(SimError::InvalidPrefixCache {
            parameter: "block_tokens"
        }
        .to_string()
        .contains("prefix-cache parameter `block_tokens` is out of range"));
        assert!(SimError::InvalidEngine {
            parameter: "chunk_tokens"
        }
        .to_string()
        .contains("engine parameter `chunk_tokens` is out of range"));
        assert!(SimError::InvalidAutoscale {
            parameter: "interval"
        }
        .to_string()
        .contains("autoscale parameter `interval` is out of range"));
        assert!(SimError::InvalidWorkload {
            reason: "arrival times must be sorted"
        }
        .to_string()
        .contains("invalid workload: arrival times must be sorted"));
    }
}
