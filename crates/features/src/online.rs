//! Online review-side aggregators for the streaming feature engine.
//!
//! The batch extractor ([`crate::app_features`]) derives the review-timing
//! feature families (§7.1 (1)–(3)) by re-scanning the app's review list:
//! reviewer sets split around the monitoring window, install-to-review
//! delays, and inter-review gaps. [`AppReviewStream`] maintains the same
//! quantities as single-pass folds over the *coalesced* (time-sorted)
//! review stream, built from the shared aggregator primitives in
//! [`racket_types::online`]:
//!
//! * [`Distinct`] for the before/during/after reviewer cardinalities;
//! * [`MinMax`] for delay extrema — its min latch is literally the batch
//!   `fold(f64::INFINITY, f64::min)`, so emission is bit-identical;
//! * [`GapAccum`] for inter-review gaps — exact integer second gaps whose
//!   min/max map to the batch's per-gap `secs as f64 / day` values through
//!   a monotone transform (same bits).
//!
//! The f64 *sums* that feed emitted means (`delay_sum_days`,
//! `gap_sum_days`) are folded in the batch's canonical order (reviews
//! sorted stably by `posted_at`, as [`crate::DeviceObservation::reviews_for`]
//! returns them), replicating `iter().sum::<f64>()` add-for-add so the
//! emitted means match batch bit-for-bit.

pub use racket_types::online::{Distinct, GapAccum, MinMax};

use racket_types::{GoogleId, Review, SimTime, TimeInterval};

/// Seconds per day, matching the constant in [`crate::app_features`].
pub(crate) const DAY_SECS: f64 = 86_400.0;

/// Streaming sufficient statistics for the review-derived features of one
/// (app, device) instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppReviewStream {
    /// Total reviews folded for this app.
    pub n_reviews: u64,
    /// Reviewers who posted before the monitoring window.
    pub before: Distinct<GoogleId>,
    /// Reviewers who posted during the monitoring window.
    pub during: Distinct<GoogleId>,
    /// Reviewers who posted after the monitoring window.
    pub after: Distinct<GoogleId>,
    /// Sum of non-negative install-to-review delays, in days, folded in
    /// coalesced review order (bit-compatible with the batch sum).
    pub delay_sum_days: f64,
    /// Extrema/count of the same delays (min latch = batch min fold).
    pub delays: MinMax,
    /// Exact integer inter-review gaps, in seconds.
    pub gaps: GapAccum,
    /// Sum of inter-review gaps in days, folded in coalesced order
    /// (bit-compatible with the batch sum; `gaps.sum / DAY` is *not*).
    pub gap_sum_days: f64,
    /// Time of the previously folded review (gap anchor).
    pub last_posted: Option<SimTime>,
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
            self.before.fold(review.reviewer);
        } else if review.posted_at < monitoring.end {
            self.during.fold(review.reviewer);
        } else {
            self.after.fold(review.reviewer);
        }

        // (2) install-to-review delay (non-negative only, §6.3).
        let d = review.posted_at.signed_delta_secs(install_time);
        if d >= 0 {
            let days = d as f64 / DAY_SECS;
            self.delay_sum_days += days;
            self.delays.fold(days);
        }

        // (3) inter-review gap from the previous review.
        if let Some(last) = self.last_posted {
            let gap_days = (review.posted_at - last).as_secs() as f64 / DAY_SECS;
            self.gap_sum_days += gap_days;
        }
        self.gaps.fold(review.posted_at.as_secs());
        self.last_posted = Some(review.posted_at);
    }

    /// Emitted §7.1 family (2): `(avg_install_review_days,
    /// min_install_review_days)` with the −1 sentinels.
    pub fn delay_features(&self) -> (f64, f64) {
        if self.delays.count == 0 {
            (-1.0, -1.0)
        } else {
            (
                self.delay_sum_days / self.delays.count as f64,
                self.delays.min,
            )
        }
    }

    /// Emitted §7.1 family (3): `(mean, min, max)` inter-review days with
    /// the −1 sentinels.
    pub fn gap_features(&self) -> (f64, f64, f64) {
        if self.gaps.count == 0 {
            (-1.0, -1.0, -1.0)
        } else {
            (
                self.gap_sum_days / self.gaps.count as f64,
                self.gaps.min as f64 / DAY_SECS,
                self.gaps.max as f64 / DAY_SECS,
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
