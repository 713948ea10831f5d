//! Google Play reviews.
//!
//! The review crawler collected 110,511,637 reviews for 12,341 apps, each
//! with the reviewer's Google ID, a 1-second-granularity timestamp and a
//! star rating (§5). Reviews are joined to devices through the Google IDs
//! of the Gmail accounts registered on each device.

use crate::app::AppId;
use crate::id::GoogleId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 1–5 star rating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Rating(u8);

impl Rating {
    /// One star.
    pub const ONE: Rating = Rating(1);
    /// Four stars.
    pub const FOUR: Rating = Rating(4);
    /// Five stars — the rating paid reviews overwhelmingly carry (§2).
    pub const FIVE: Rating = Rating(5);

    /// Construct a rating, returning `None` outside 1..=5.
    pub fn new(stars: u8) -> Option<Rating> {
        (1..=5).contains(&stars).then_some(Rating(stars))
    }

    /// The star value.
    pub const fn stars(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Rating {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}★", self.0)
    }
}

/// One Play-Store review as the crawler sees it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Review {
    /// The reviewed app.
    pub app: AppId,
    /// The reviewer's Google identity.
    pub reviewer: GoogleId,
    /// Posting time, 1-second granularity.
    pub posted_at: SimTime,
    /// The star rating.
    pub rating: Rating,
}

impl Review {
    /// Construct a review.
    pub fn new(app: AppId, reviewer: GoogleId, posted_at: SimTime, rating: Rating) -> Self {
        Review {
            app,
            reviewer,
            posted_at,
            rating,
        }
    }
}

/// A review *as witnessed on the posting device* and carried by slow
/// snapshots when review collection is enabled.
///
/// Unlike the store-side [`Review`], a `ReviewEvent` keeps the review
/// text: the deception study's near-duplicate detector (§6) needs the
/// text to find copy-pasted campaign templates across accounts, and only
/// the instrumented device sees which of its accounts posted it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReviewEvent {
    /// The reviewed app.
    pub app: AppId,
    /// The Google identity that posted the review.
    pub reviewer: GoogleId,
    /// Posting time, 1-second granularity.
    pub time: SimTime,
    /// The star rating.
    pub rating: Rating,
    /// The review text (may be empty).
    pub text: String,
}

/// Aggregate rating statistics for an app, the quantity ASO campaigns try
/// to manipulate (a 1-star aggregate increase raises conversion up to 280%,
/// §2).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RatingSummary {
    /// Number of reviews aggregated.
    pub count: u64,
    /// Sum of star values.
    pub star_sum: u64,
}

impl RatingSummary {
    /// Fold one review into the summary.
    pub fn add(&mut self, rating: Rating) {
        self.count += 1;
        self.star_sum += u64::from(rating.stars());
    }

    /// The aggregate (mean) rating, or `None` with no reviews.
    pub fn aggregate(&self) -> Option<f64> {
        (self.count > 0).then(|| self.star_sum as f64 / self.count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rating_bounds() {
        assert!(Rating::new(0).is_none());
        assert!(Rating::new(6).is_none());
        assert_eq!(Rating::new(3).map(Rating::stars), Some(3));
        assert_eq!(Rating::FIVE.stars(), 5);
        assert_eq!(Rating::FIVE.to_string(), "5★");
    }

    #[test]
    fn rating_summary_aggregates() {
        let mut s = RatingSummary::default();
        assert_eq!(s.aggregate(), None);
        s.add(Rating::FIVE);
        s.add(Rating::ONE);
        assert_eq!(s.count, 2);
        assert_eq!(s.aggregate(), Some(3.0));
    }

    #[test]
    fn review_round_trips_through_serde() {
        let r = Review::new(AppId(4), GoogleId(77), SimTime::from_days(3), Rating::FOUR);
        let json = serde_json::to_string(&r).unwrap();
        let back: Review = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
