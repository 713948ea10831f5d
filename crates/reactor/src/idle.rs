//! Spin-then-park idling for reactor worker threads.

use std::time::Duration;

/// Spin → park backoff for a worker loop with nothing to do.
///
/// A worker whose round found nothing to do calls [`IdleStrategy::idle`]
/// once per empty round and [`IdleStrategy::reset`] as soon as any round
/// makes progress:
///
/// * fresh idleness spins (`spin_hint`), so a request that is
///   microseconds away is picked up without a syscall;
/// * after that the worker parks and costs no CPU until whoever creates
///   work for it calls [`std::thread::Thread::unpark`] on its handle, or
///   `park_timeout` passes — the tick on which the worker runs a round
///   anyway, and so checks its connections' stall deadlines.
///
/// The waker's order is *publish, then unpark*; the worker's is *round,
/// then park*. `park`'s token makes the pair race-free: an unpark that
/// lands between an empty round and the park is remembered, and the park
/// returns at once. Wakeup latency is therefore set by the waker, not by
/// `park_timeout`, which bounds only how late a stall deadline or a
/// socket's bytes are noticed.
#[derive(Debug, Clone)]
pub struct IdleStrategy {
    spin_limit: u32,
    park_timeout: Duration,
    rounds: u32,
}

impl IdleStrategy {
    /// Create a strategy: `spin_limit` busy rounds, then parks that end
    /// on unpark or after `park_timeout`.
    pub fn new(spin_limit: u32, park_timeout: Duration) -> Self {
        IdleStrategy {
            spin_limit,
            park_timeout,
            rounds: 0,
        }
    }

    /// The tuning the collection plane's workers use: a short spin, then
    /// parks ended by the client's send or the 1 ms park tick.
    pub fn default_for_io() -> Self {
        IdleStrategy::new(16, Duration::from_millis(1))
    }

    /// Consecutive idle rounds since the last reset.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Record one idle round and back off accordingly.
    pub fn idle(&mut self) {
        self.rounds = self.rounds.saturating_add(1);
        if self.rounds <= self.spin_limit {
            std::hint::spin_loop();
        } else {
            std::thread::park_timeout(self.park_timeout);
        }
    }

    /// Work happened: drop back to the spin phase.
    pub fn reset(&mut self) {
        self.rounds = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn escalates_and_resets() {
        let mut s = IdleStrategy::new(2, Duration::from_micros(1));
        for _ in 0..4 {
            s.idle(); // walks through the spin and park phases
        }
        assert_eq!(s.rounds(), 4);
        s.reset();
        assert_eq!(s.rounds(), 0);
    }

    #[test]
    fn park_phase_bounds_latency_not_liveness() {
        // Even deep in the park phase, idle() returns promptly (the park
        // is timed) — the loop stays live if nobody ever unparks it.
        let mut s = IdleStrategy::new(0, Duration::from_micros(50));
        let start = Instant::now();
        for _ in 0..4 {
            s.idle();
        }
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(s.rounds(), 4);
    }

    #[test]
    fn an_unpark_before_the_park_is_not_lost() {
        // The race the worker loop relies on: work is published and the
        // worker unparked after its empty round but before it parks. The
        // park must return on the stored token, not sit out the timeout.
        let mut s = IdleStrategy::new(0, Duration::from_secs(30));
        std::thread::current().unpark();
        let start = Instant::now();
        s.idle();
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
