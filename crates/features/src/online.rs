//! Online review-side state for the streaming feature engine.
//!
//! The batch extractor ([`crate::app_features`]) derives the review-timing
//! feature families (§7.1 (1)–(3)) by re-scanning the app's review list:
//! reviewer sets split around the monitoring window, install-to-review
//! delays, and inter-review gaps. [`AppReviewStream`] keeps exactly what
//! those families emit, folded once over the *coalesced* (time-sorted)
//! review stream:
//!
//! * the before/during/after reviewer sets;
//! * the delay count and min latch — the min starts at `f64::INFINITY`
//!   and is literally the batch `fold(f64::INFINITY, f64::min)`, so
//!   emission is bit-identical;
//! * the gap count and exact integer-second min/max, which map to the
//!   batch's per-gap `secs as f64 / day` values through a monotone
//!   transform (same bits).
//!
//! The f64 *sums* that feed emitted means (`delay_sum_days`,
//! `gap_sum_days`) are folded in the batch's canonical order (reviews
//! sorted stably by `posted_at`, as [`crate::DeviceObservation::reviews_for`]
//! returns them), replicating `iter().sum::<f64>()` add-for-add so the
//! emitted means match batch bit-for-bit.

use racket_types::{GoogleId, Review, SimTime, TimeInterval};
use std::collections::HashSet;

/// Seconds per day, matching the constant in [`crate::app_features`].
pub(crate) const DAY_SECS: f64 = 86_400.0;

/// Streaming sufficient statistics for the review-derived features of one
/// (app, device) instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReviewStream {
    /// Total reviews folded for this app.
    pub n_reviews: u64,
    /// Reviewers who posted before the monitoring window.
    pub before: HashSet<GoogleId>,
    /// Reviewers who posted during the monitoring window.
    pub during: HashSet<GoogleId>,
    /// Reviewers who posted after the monitoring window.
    pub after: HashSet<GoogleId>,
    /// Sum of non-negative install-to-review delays, in days, folded in
    /// coalesced review order (bit-compatible with the batch sum).
    pub delay_sum_days: f64,
    /// Number of non-negative delays folded.
    pub n_delays: u64,
    /// Smallest delay in days (`f64::INFINITY` while none; the batch min
    /// fold).
    pub min_delay_days: f64,
    /// Number of inter-review gaps (reviews − 1 once any was folded).
    pub n_gaps: u64,
    /// Smallest inter-review gap, in seconds (exact).
    pub min_gap_secs: u64,
    /// Largest inter-review gap, in seconds (exact).
    pub max_gap_secs: u64,
    /// Sum of inter-review gaps in days, folded in coalesced order
    /// (bit-compatible with the batch sum).
    pub gap_sum_days: f64,
    /// Time of the previously folded review (gap anchor).
    pub last_posted: Option<SimTime>,
}

impl Default for AppReviewStream {
    fn default() -> Self {
        AppReviewStream {
            n_reviews: 0,
            before: HashSet::new(),
            during: HashSet::new(),
            after: HashSet::new(),
            delay_sum_days: 0.0,
            n_delays: 0,
            min_delay_days: f64::INFINITY,
            n_gaps: 0,
            min_gap_secs: u64::MAX,
            max_gap_secs: 0,
            gap_sum_days: 0.0,
            last_posted: None,
        }
    }
}

impl AppReviewStream {
    /// The empty stream.
    pub fn new() -> Self {
        AppReviewStream::default()
    }

    /// Fold the next review in coalesced (nondecreasing `posted_at`)
    /// order. `install_time` is the app's install time on the device;
    /// `monitoring` is the device's monitored window.
    pub fn fold(&mut self, review: &Review, install_time: SimTime, monitoring: TimeInterval) {
        self.n_reviews += 1;

        // (1) reviewer sets relative to the monitoring window.
        if review.posted_at < monitoring.start {
            self.before.insert(review.reviewer);
        } else if review.posted_at < monitoring.end {
            self.during.insert(review.reviewer);
        } else {
            self.after.insert(review.reviewer);
        }

        // (2) install-to-review delay (non-negative only, §6.3).
        let d = review.posted_at.signed_delta_secs(install_time);
        if d >= 0 {
            let days = d as f64 / DAY_SECS;
            self.delay_sum_days += days;
            self.n_delays += 1;
            self.min_delay_days = self.min_delay_days.min(days);
        }

        // (3) inter-review gap from the previous review.
        if let Some(last) = self.last_posted {
            let gap = (review.posted_at - last).as_secs();
            self.n_gaps += 1;
            self.min_gap_secs = self.min_gap_secs.min(gap);
            self.max_gap_secs = self.max_gap_secs.max(gap);
            self.gap_sum_days += gap as f64 / DAY_SECS;
        }
        self.last_posted = Some(review.posted_at);
    }

    /// Emitted §7.1 family (2): `(avg_install_review_days,
    /// min_install_review_days)` with the −1 sentinels.
    pub(crate) fn delay_features(&self) -> (f64, f64) {
        if self.n_delays == 0 {
            (-1.0, -1.0)
        } else {
            (
                self.delay_sum_days / self.n_delays as f64,
                self.min_delay_days,
            )
        }
    }

    /// Emitted §7.1 family (3): `(mean, min, max)` inter-review days with
    /// the −1 sentinels.
    pub(crate) fn gap_features(&self) -> (f64, f64, f64) {
        if self.n_gaps == 0 {
            (-1.0, -1.0, -1.0)
        } else {
            (
                self.gap_sum_days / self.n_gaps as f64,
                self.min_gap_secs as f64 / DAY_SECS,
                self.max_gap_secs as f64 / DAY_SECS,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::{AppId, Rating};

    fn review(reviewer: u64, day: u64) -> Review {
        Review::new(
            AppId(1),
            GoogleId(reviewer),
            SimTime::from_days(day),
            Rating::FIVE,
        )
    }

    #[test]
    fn review_stream_matches_hand_computed_features() {
        let monitoring = TimeInterval::new(SimTime::from_days(10), SimTime::from_days(14));
        let install = SimTime::from_days(2);
        let mut s = AppReviewStream::new();
        for r in [review(1, 3), review(2, 12), review(1, 13)] {
            s.fold(&r, install, monitoring);
        }
        assert_eq!(s.n_reviews, 3);
        assert_eq!(s.before.len(), 1);
        assert_eq!(s.during.len(), 2);
        assert_eq!(s.after.len(), 0);
        let (avg, min) = s.delay_features();
        assert!((avg - 22.0 / 3.0).abs() < 1e-12);
        assert_eq!(min, 1.0);
        let (mean, gmin, gmax) = s.gap_features();
        assert_eq!((mean, gmin, gmax), (5.0, 1.0, 9.0));
    }

    #[test]
    fn empty_stream_emits_sentinels() {
        let s = AppReviewStream::new();
        assert_eq!(s.delay_features(), (-1.0, -1.0));
        assert_eq!(s.gap_features(), (-1.0, -1.0, -1.0));
    }
}
