//! The service's degradation ladder, and the bounded retry at its top.
//!
//! The stance on failure comes from the error-code taxonomy
//! ([`xqr_xdm::ErrorCode::is_retryable`]): *transient* codes
//! (`XQRL0002/0004/0005`) describe a moment — queue pressure, a starved
//! deadline, an injected subsystem fault — and deserve a bounded retry;
//! every other code is deterministic and retrying it only burns
//! capacity. Below the retry, each subsystem failure has exactly one
//! fallback, taken where the failure is observed and counted in
//! [`crate::ServiceStats`]. The rungs, in the order a request meets them:
//!
//! | # | Rung | Trigger | Effect | Counter |
//! |---|------|---------|--------|---------|
//! | 1 | retry | a `run`-family call ends in a transient code | re-submit up to [`RetryPolicy::max_retries`] times, jittered exponential backoff | `retries` |
//! | 2 | uncached compile | the plan cache's insert side fails with `XQRL0005` | compile for this execution only; nothing is cached | `uncached_compiles` |
//! | 3 | unindexed load | an index build fails (budget trip, fault) or panics | the document is resident but unindexed (and memory-only under persistence); queries navigate | `index_build_failures` |
//! | 4 | Yellow brownout | the memory ledger is at Yellow or worse | loads skip the index build; once per transition the plan cache shrinks to half and (under persistence) cold catalog documents demote to their segments; new queries run joins inline | `pressure_no_index`, `plan_evictions`, `catalog_evictions`, `joins_shed_pressure` |
//! | 5 | Red shed | the ledger is Red | chunk sessions, stream queries, publishes and batches fail at admission with `XQRL0004` | `pressure_sheds` |
//! | 6 | queue full | workers and run queue are both full | the submission fails with `XQRL0004` | `rejected` |
//! | 7 | expired in queue | a queued query's deadline passes before a worker takes it | dropped at dequeue with `XQRL0002`, never executed | `dropped_expired` |
//!
//! Nothing wraps the rungs: there is no breaker and no service-wide
//! degraded mode, so every request tries the normal path first.

use std::time::Duration;

/// Bounded retry with exponential backoff and deterministic jitter.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = no retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..Default::default()
        }
    }

    /// The sleep before retry number `attempt` (1-based): exponential in
    /// the attempt with ±50% jitter. Jitter is a pure function of
    /// `(salt, attempt)` — no RNG, so a replayed chaos run backs off
    /// identically — while distinct salts (e.g. a per-query counter)
    /// still de-synchronize herds of retriers.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max_backoff);
        // Map jitter into [50%, 150%] of the capped backoff.
        let jitter = splitmix64(salt ^ u64::from(attempt)) % 1001;
        capped.mul_f64(0.5 + jitter as f64 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_within_bounds() {
        let p = RetryPolicy {
            max_retries: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(60),
        };
        let b1 = p.backoff(1, 1);
        let b3 = p.backoff(3, 1);
        // Attempt 1 jitters around 10ms: within [5ms, 15ms].
        assert!(b1 >= Duration::from_millis(5) && b1 <= Duration::from_millis(15));
        // Attempt 3 would be 40ms ±50%: within [20ms, 60ms] (cap 60ms ⇒
        // at most 90ms even with jitter — still ≤ 1.5 × cap).
        assert!(b3 >= Duration::from_millis(20));
        assert!(b3 <= Duration::from_millis(90));
        // Deterministic: same (attempt, salt) → same backoff.
        assert_eq!(p.backoff(2, 9), p.backoff(2, 9));
        assert_ne!(p.backoff(2, 9), p.backoff(2, 10), "salt de-synchronizes");
    }
}
