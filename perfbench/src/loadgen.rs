//! Load generation: the open-loop write schedule and the pivot samplers.
//!
//! An open loop sends on a fixed schedule whether or not earlier requests
//! finished, so each request is timed from when it was *due*: a stall
//! shows up as latency on every request it delayed, and the generator's own
//! lateness (send time minus due time) is reported beside it.

use er_datagen::rng::SmallRng;
use er_datagen::zipf::Zipf;
use std::time::{Duration, Instant};

/// A fixed-rate send schedule: request `i` of the current segment is due
/// at `anchor + i · period`.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    anchor: Instant,
    period: Duration,
    sent: u64,
}

impl OpenLoop {
    /// A schedule at `rate_per_s` whose first request is due at `start`.
    pub fn new(start: Instant, rate_per_s: f64) -> OpenLoop {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        OpenLoop { anchor: start, period: Duration::from_secs_f64(1.0 / rate_per_s), sent: 0 }
    }

    /// When the next request is due.
    pub fn next_due(&self) -> Instant {
        self.anchor + self.period.mul_f64(self.sent as f64)
    }

    /// Marks the next request as sent and returns its due time.
    pub fn take(&mut self) -> Instant {
        let due = self.next_due();
        self.sent += 1;
        due
    }

    /// Restarts the schedule so the next request is due at `at` — used
    /// after a maintenance pause the feed deliberately waits out.
    pub fn reanchor(&mut self, at: Instant) {
        self.anchor = at;
        self.sent = 0;
    }
}

/// How late a request was sent: `sent_at − due`, zero when early.
pub fn lateness(due: Instant, sent_at: Instant) -> Duration {
    sent_at.saturating_duration_since(due)
}

/// Zipf-skewed entity pivots: rank `k` maps through a seeded permutation
/// to an entity id, so the hot entities are spread over the id space.
#[derive(Debug, Clone)]
pub struct ZipfPivots {
    zipf: Zipf,
    ids: Vec<u32>,
    rng: SmallRng,
}

impl ZipfPivots {
    /// Pivots over `0..n` with exponent `s`, fully determined by `seed`.
    pub fn new(n: usize, s: f64, seed: u64) -> ZipfPivots {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..ids.len()).rev() {
            let j = rng.gen_below(i as u64 + 1) as usize;
            ids.swap(i, j);
        }
        ZipfPivots { zipf: Zipf::new(n, s), ids, rng }
    }

    /// The next pivot.
    pub fn next_id(&mut self) -> u32 {
        self.ids[self.zipf.sample(&mut self.rng)]
    }

    /// The generator, for the other random choices of the same stream.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_and_reanchor_restarts() {
        let t0 = Instant::now();
        let mut s = OpenLoop::new(t0, 200.0);
        assert_eq!(s.take(), t0);
        assert_eq!(s.take(), t0 + Duration::from_millis(5));
        assert_eq!(s.next_due(), t0 + Duration::from_millis(10));
        let later = t0 + Duration::from_secs(3);
        s.reanchor(later);
        assert_eq!(s.take(), later);
        assert_eq!(s.next_due(), later + Duration::from_millis(5));
    }

    #[test]
    fn lateness_counts_only_late_sends() {
        let t0 = Instant::now();
        let due = t0 + Duration::from_millis(5);
        assert_eq!(lateness(due, t0), Duration::ZERO);
        assert_eq!(lateness(due, t0 + Duration::from_millis(12)), Duration::from_millis(7));
        // A stall delays every later request: after a 50 ms stall at 200/s,
        // the next ten requests are all late by a decreasing amount.
        let mut s = OpenLoop::new(t0, 200.0);
        let resume = t0 + Duration::from_millis(50);
        let late: Vec<u128> = (0..11).map(|_| lateness(s.take(), resume).as_millis()).collect();
        assert_eq!(late, vec![50, 45, 40, 35, 30, 25, 20, 15, 10, 5, 0]);
    }

    #[test]
    fn zipf_pivots_are_deterministic_per_seed_and_skewed() {
        let draw = |seed| {
            let mut p = ZipfPivots::new(5_000, 1.0, seed);
            (0..2_000).map(|_| p.next_id()).collect::<Vec<u32>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        assert!(a.iter().all(|&id| id < 5_000));
        // Skew: the most frequent pivot takes far more than a uniform share.
        let mut counts = std::collections::HashMap::new();
        for id in &a {
            *counts.entry(*id).or_insert(0u32) += 1;
        }
        assert!(counts.values().copied().max().unwrap_or(0) > 50, "no hot pivot");
    }
}
