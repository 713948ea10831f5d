//! The Play-Store review log.
//!
//! Append-only per-app review storage with the newest-first pagination the
//! real store exposes and the paper's crawler consumes (§5). Also indexes
//! reviews by reviewer Google ID, which is how the study joined the
//! accounts registered on participant devices to the 217,041 reviews they
//! had posted.

use racket_types::{AppId, GoogleId, RatingSummary, Review};
use std::collections::HashMap;

/// Append-only review store with per-app and per-reviewer indexes.
#[derive(Debug, Clone, Default)]
pub struct ReviewStore {
    /// Per-app reviews in posting order (oldest first).
    by_app: HashMap<AppId, Vec<Review>>,
    /// Per-reviewer review references `(app, index into by_app[app])`.
    by_reviewer: HashMap<GoogleId, Vec<(AppId, usize)>>,
    /// Per-app rating aggregates.
    summaries: HashMap<AppId, RatingSummary>,
    /// Background review volume per app: reviews posted by the wider user
    /// base outside the simulated fleet. Counted (the store's public
    /// review total, which the §7.2 "≥ 15,000 reviews" labeling rule
    /// reads) but not materialized — the crawler never needs their bodies.
    background: HashMap<AppId, u64>,
    total: u64,
}

impl ReviewStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Post a review.
    ///
    /// Google Play allows one review per (account, app); a re-review
    /// *replaces* the old one. The same policy applies here: a second
    /// review from the same Google ID updates the original entry's rating
    /// and timestamp instead of appending.
    pub fn post(&mut self, review: Review) {
        let app_log = self.by_app.entry(review.app).or_default();
        // Replace an existing review by the same account, if any.
        if let Some(refs) = self.by_reviewer.get(&review.reviewer) {
            if let Some(&(_, idx)) = refs.iter().find(|(a, _)| *a == review.app) {
                let summary = self.summaries.entry(review.app).or_default();
                summary.star_sum = summary.star_sum - u64::from(app_log[idx].rating.stars())
                    + u64::from(review.rating.stars());
                app_log[idx] = review;
                return;
            }
        }
        let idx = app_log.len();
        app_log.push(review.clone());
        self.by_reviewer
            .entry(review.reviewer)
            .or_default()
            .push((review.app, idx));
        self.summaries
            .entry(review.app)
            .or_default()
            .add(review.rating);
        self.total += 1;
    }

    /// Merge a store built elsewhere (e.g. by one device's history
    /// simulation on a worker thread) into this one.
    ///
    /// Reviews are re-posted app by app in ascending [`AppId`] order, each
    /// app's log in its original posting order, so the result is a pure
    /// function of `other`'s contents — never of the thread that built it.
    /// Re-posting (rather than splicing the maps) preserves the
    /// `by_reviewer` index invariant and the one-review-per-(account, app)
    /// policy across store boundaries. Background volume is summed.
    pub fn absorb(&mut self, other: ReviewStore) {
        let mut apps: Vec<(AppId, Vec<Review>)> = other.by_app.into_iter().collect();
        apps.sort_by_key(|(app, _)| *app);
        for (_, log) in apps {
            for review in log {
                self.post(review);
            }
        }
        let mut background: Vec<(AppId, u64)> = other.background.into_iter().collect();
        background.sort_by_key(|(app, _)| *app);
        for (app, n) in background {
            self.seed_background(app, n);
        }
    }

    /// Total number of (distinct account, app) reviews stored.
    pub fn total_reviews(&self) -> u64 {
        self.total
    }

    /// Number of reviews for one app.
    pub fn review_count(&self, app: AppId) -> usize {
        self.by_app.get(&app).map_or(0, Vec::len)
    }

    /// Aggregate rating of an app.
    pub fn rating(&self, app: AppId) -> Option<f64> {
        self.summaries.get(&app).and_then(RatingSummary::aggregate)
    }

    /// Newest-first page of an app's reviews: `offset` newest reviews are
    /// skipped, up to `limit` returned. This is the interface the crawler
    /// consumes (reviews "sorted by timestamp", §5).
    pub fn newest_page(&self, app: AppId, offset: usize, limit: usize) -> Vec<&Review> {
        let Some(log) = self.by_app.get(&app) else {
            return Vec::new();
        };
        let mut sorted: Vec<&Review> = log.iter().collect();
        sorted.sort_by_key(|r| std::cmp::Reverse(r.posted_at));
        sorted.into_iter().skip(offset).take(limit).collect()
    }

    /// All reviews ever posted by a Google ID (the join the Google-ID
    /// crawler performs).
    pub fn reviews_by(&self, reviewer: GoogleId) -> Vec<&Review> {
        self.by_reviewer
            .get(&reviewer)
            .map(|refs| {
                refs.iter()
                    .map(|&(app, idx)| &self.by_app[&app][idx])
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Seed `n` background reviews for an app (wider-world volume; see
    /// the `background` field).
    pub fn seed_background(&mut self, app: AppId, n: u64) {
        *self.background.entry(app).or_insert(0) += n;
    }

    /// The app's total public review count: materialized fleet reviews
    /// plus background volume. This is what the store page displays and
    /// what the §7.2 non-suspicious labeling rule thresholds on.
    pub fn public_review_count(&self, app: AppId) -> u64 {
        self.review_count(app) as u64 + self.background.get(&app).copied().unwrap_or(0)
    }
}

#[cfg(test)]
impl ReviewStore {
    /// Apps that have at least one review.
    pub(crate) fn reviewed_apps(&self) -> impl Iterator<Item = AppId> + '_ {
        self.by_app.keys().copied()
    }
}

/// Convenience constructor for the store and crawler tests.
#[cfg(test)]
pub(crate) fn review(
    app: AppId,
    reviewer: GoogleId,
    t: racket_types::SimTime,
    stars: u8,
) -> Review {
    let rating = racket_types::Rating::new(stars).expect("stars in 1..=5");
    Review::new(app, reviewer, t, rating)
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::SimTime;

    #[test]
    fn post_and_count() {
        let mut s = ReviewStore::new();
        s.post(review(AppId(1), GoogleId(1), SimTime::from_secs(10), 5));
        s.post(review(AppId(1), GoogleId(2), SimTime::from_secs(20), 4));
        s.post(review(AppId(2), GoogleId(1), SimTime::from_secs(30), 1));
        assert_eq!(s.total_reviews(), 3);
        assert_eq!(s.review_count(AppId(1)), 2);
        assert_eq!(s.rating(AppId(1)), Some(4.5));
        assert_eq!(s.rating(AppId(3)), None);
    }

    #[test]
    fn re_review_replaces() {
        let mut s = ReviewStore::new();
        s.post(review(AppId(1), GoogleId(1), SimTime::from_secs(10), 1));
        s.post(review(AppId(1), GoogleId(1), SimTime::from_secs(99), 5));
        assert_eq!(s.total_reviews(), 1);
        assert_eq!(s.review_count(AppId(1)), 1);
        assert_eq!(s.rating(AppId(1)), Some(5.0));
        let r = s
            .reviews_by(GoogleId(1))
            .into_iter()
            .find(|r| r.app == AppId(1))
            .unwrap();
        assert_eq!(r.posted_at, SimTime::from_secs(99));
    }

    #[test]
    fn newest_page_ordering_and_pagination() {
        let mut s = ReviewStore::new();
        for i in 0..10 {
            s.post(review(
                AppId(1),
                GoogleId(i),
                SimTime::from_secs(i * 100),
                5,
            ));
        }
        let page = s.newest_page(AppId(1), 0, 3);
        assert_eq!(page.len(), 3);
        assert_eq!(page[0].posted_at, SimTime::from_secs(900));
        assert_eq!(page[2].posted_at, SimTime::from_secs(700));
        let page2 = s.newest_page(AppId(1), 8, 5);
        assert_eq!(page2.len(), 2, "pagination clamps at the end");
        assert!(s.newest_page(AppId(9), 0, 5).is_empty());
    }

    #[test]
    fn reviewer_index() {
        let mut s = ReviewStore::new();
        s.post(review(AppId(1), GoogleId(7), SimTime::from_secs(1), 5));
        s.post(review(AppId(2), GoogleId(7), SimTime::from_secs(2), 5));
        s.post(review(AppId(3), GoogleId(8), SimTime::from_secs(3), 2));
        assert_eq!(s.reviews_by(GoogleId(7)).len(), 2);
        assert_eq!(s.reviews_by(GoogleId(9)).len(), 0);
        let by_8 = s.reviews_by(GoogleId(8));
        assert!(by_8.iter().any(|r| r.app == AppId(3)));
        assert!(!by_8.iter().any(|r| r.app == AppId(1)));
    }

    #[test]
    fn background_volume_counts_without_materializing() {
        let mut s = ReviewStore::new();
        s.post(review(AppId(1), GoogleId(1), SimTime::from_secs(1), 5));
        s.seed_background(AppId(1), 20_000);
        s.seed_background(AppId(1), 5_000);
        assert_eq!(s.public_review_count(AppId(1)), 25_001);
        assert_eq!(s.review_count(AppId(1)), 1, "bodies not materialized");
        assert_eq!(s.newest_page(AppId(1), 0, 10).len(), 1);
        assert_eq!(s.public_review_count(AppId(2)), 0);
    }

    #[test]
    fn absorb_merges_reviews_background_and_indexes() {
        let mut a = ReviewStore::new();
        a.post(review(AppId(1), GoogleId(1), SimTime::from_secs(10), 5));
        a.seed_background(AppId(1), 100);
        let mut b = ReviewStore::new();
        b.post(review(AppId(2), GoogleId(2), SimTime::from_secs(20), 4));
        b.post(review(AppId(1), GoogleId(2), SimTime::from_secs(30), 3));
        b.seed_background(AppId(1), 50);
        a.absorb(b);
        assert_eq!(a.total_reviews(), 3);
        assert_eq!(a.review_count(AppId(1)), 2);
        assert_eq!(a.public_review_count(AppId(1)), 152);
        // The reviewer index survives the merge.
        assert_eq!(a.reviews_by(GoogleId(2)).len(), 2);
        assert!(a.reviews_by(GoogleId(2)).iter().any(|r| r.app == AppId(2)));
    }

    #[test]
    fn absorb_applies_re_review_policy_across_stores() {
        let mut a = ReviewStore::new();
        a.post(review(AppId(1), GoogleId(1), SimTime::from_secs(10), 1));
        let mut b = ReviewStore::new();
        b.post(review(AppId(1), GoogleId(1), SimTime::from_secs(99), 5));
        a.absorb(b);
        assert_eq!(a.total_reviews(), 1, "same (account, app) replaces");
        assert_eq!(a.rating(AppId(1)), Some(5.0));
    }

    #[test]
    fn reviewed_apps_iterates_keys() {
        let mut s = ReviewStore::new();
        s.post(review(AppId(1), GoogleId(1), SimTime::from_secs(1), 5));
        s.post(review(AppId(5), GoogleId(1), SimTime::from_secs(2), 5));
        let mut apps: Vec<AppId> = s.reviewed_apps().collect();
        apps.sort();
        assert_eq!(apps, vec![AppId(1), AppId(5)]);
    }
}
