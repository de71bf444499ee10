//! Exponential backoff with seeded jitter, as a pure unit.
//!
//! The policy owns no clock and no socket: callers ask it for the next
//! delay and sleep (or don't) themselves, which is what makes the
//! schedule testable as plain data. Delays follow *equal jitter*:
//! attempt `n` draws uniformly from `[cap_n/2, cap_n]` where
//! `cap_n = min(base·2ⁿ, cap)` — enough randomness to de-synchronize a
//! thundering herd of clients retrying against one daemon, while
//! keeping at least half the exponential spacing deterministically.
//! The jitter source is a seeded xorshift64* stream, so a given seed
//! always produces the same schedule.

use std::time::Duration;

use cellsim_kernel::rng::{splitmix64, GOLDEN_GAMMA};

/// A reusable retry schedule; see the module docs.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    base: Duration,
    cap: Duration,
    max_retries: u32,
    attempt: u32,
    rng: u64,
}

impl RetryPolicy {
    /// A policy starting at `base`, doubling per attempt up to `cap`,
    /// giving up after `max_retries` delays. `seed` fixes the jitter
    /// stream.
    #[must_use]
    pub fn new(base: Duration, cap: Duration, max_retries: u32, seed: u64) -> RetryPolicy {
        // SplitMix64 scramble so adjacent seeds get unrelated jitter
        // streams; `| 1` keeps the xorshift state nonzero.
        let z = splitmix64(seed.wrapping_add(GOLDEN_GAMMA));
        RetryPolicy {
            base: base.max(Duration::from_millis(1)),
            cap: cap.max(base).max(Duration::from_millis(1)),
            max_retries,
            attempt: 0,
            rng: z | 1,
        }
    }

    /// A client-friendly default: 100 ms doubling to a 5 s ceiling.
    #[must_use]
    pub fn with_defaults(max_retries: u32, seed: u64) -> RetryPolicy {
        RetryPolicy::new(
            Duration::from_millis(100),
            Duration::from_secs(5),
            max_retries,
            seed,
        )
    }

    /// Retries handed out since the last success.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*; the state is kept nonzero by construction.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The next backoff delay, or `None` once `max_retries` have been
    /// handed out (the caller gives up and surfaces its last error).
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.max_retries {
            return None;
        }
        let ceiling = self
            .base
            .checked_mul(1u32.checked_shl(self.attempt).unwrap_or(u32::MAX))
            .map_or(self.cap, |d| d.min(self.cap));
        self.attempt += 1;
        let ceiling_ms = ceiling.as_millis().max(1) as u64;
        let half = ceiling_ms / 2;
        let jitter = if half == 0 {
            0
        } else {
            self.next_u64() % (half + 1)
        };
        Some(Duration::from_millis(ceiling_ms - half + jitter))
    }

    /// Reports a success: the next failure starts the schedule over
    /// from `base`.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(policy: &mut RetryPolicy) -> Vec<Duration> {
        std::iter::from_fn(|| policy.next_delay()).collect()
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let mut a = RetryPolicy::with_defaults(8, 42);
        let mut b = RetryPolicy::with_defaults(8, 42);
        let mut c = RetryPolicy::with_defaults(8, 43);
        let sa = schedule(&mut a);
        assert_eq!(sa, schedule(&mut b), "same seed, same schedule");
        assert_eq!(sa.len(), 8, "exactly max_retries delays, then None");
        assert_ne!(sa, schedule(&mut c), "different seed diverges");
    }

    #[test]
    fn delays_grow_exponentially_and_cap_at_the_ceiling() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_millis(800);
        let mut policy = RetryPolicy::new(base, cap, 10, 7);
        for (n, delay) in schedule(&mut policy).into_iter().enumerate() {
            let ceiling = base.checked_mul(1 << n.min(31)).map_or(cap, |d| d.min(cap));
            assert!(
                delay >= ceiling / 2 && delay <= ceiling,
                "attempt {n}: {delay:?} outside [{:?}, {ceiling:?}]",
                ceiling / 2
            );
        }
        // Past the doubling range every delay is bounded by the cap.
        let mut policy = RetryPolicy::new(base, cap, 40, 9);
        assert!(schedule(&mut policy).iter().all(|d| *d <= cap));
    }

    #[test]
    fn reset_restarts_the_schedule_after_a_success() {
        let mut policy = RetryPolicy::new(Duration::from_millis(100), Duration::from_secs(5), 3, 1);
        assert_eq!(schedule(&mut policy).len(), 3);
        assert!(policy.next_delay().is_none(), "exhausted until reset");
        policy.reset();
        assert_eq!(policy.attempts(), 0);
        let resumed = policy.next_delay().expect("reset restores the budget");
        // Back at the first rung: within [base/2, base].
        assert!(
            resumed >= Duration::from_millis(50) && resumed <= Duration::from_millis(100),
            "{resumed:?}"
        );
    }

    #[test]
    fn zero_retries_means_fail_fast() {
        let mut policy = RetryPolicy::with_defaults(0, 5);
        assert!(policy.next_delay().is_none());
    }
}
