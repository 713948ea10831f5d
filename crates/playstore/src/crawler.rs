//! The review crawler.
//!
//! §5: *"The review crawler … collects reviews posted for apps installed on
//! participant devices every 12 hours. … The first time an app was
//! processed, we collected reviews until hitting a threshold of 100,000
//! reviews. In subsequent collection efforts, we collected the most recent
//! reviews until finding a previously collected review."*
//!
//! [`ReviewCrawler`] implements exactly that incremental policy against a
//! [`ReviewStore`], maintaining its own local copy of everything crawled.

use crate::reviews::ReviewStore;
use racket_types::{AppId, GoogleId, Review, SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// Crawl cadence from the paper.
pub(crate) const CRAWL_PERIOD: SimDuration = SimDuration(12 * 3600);
/// First-contact review cap from the paper.
pub(crate) const FIRST_CRAWL_CAP: usize = 100_000;
/// Page size per store query (an implementation knob; the paper queries
/// "sorted by timestamp" pages).
const PAGE: usize = 200;

/// Incremental, stateful crawler over a [`ReviewStore`].
#[derive(Debug, Clone, Default)]
pub struct ReviewCrawler {
    /// Everything crawled so far, keyed by app.
    collected: HashMap<AppId, Vec<Review>>,
    /// Identity of already-seen reviews: (app, reviewer, posted_at).
    seen: HashSet<(AppId, GoogleId, SimTime)>,
    /// Apps known to the crawler (first crawl done).
    known: HashSet<AppId>,
    /// Last crawl time, if any.
    last_crawl: Option<SimTime>,
}

impl ReviewCrawler {
    /// Create an idle crawler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a crawl is due at `now` (every 12 h).
    pub fn is_due(&self, now: SimTime) -> bool {
        match self.last_crawl {
            None => true,
            Some(t) => now.saturating_since(t) >= CRAWL_PERIOD,
        }
    }

    /// Crawl one app: first contact pulls up to [`FIRST_CRAWL_CAP`] newest
    /// reviews; afterwards, newest-first until a previously collected
    /// review is encountered. Returns the number of new reviews collected.
    pub(crate) fn crawl_app(&mut self, store: &ReviewStore, app: AppId) -> usize {
        let first_contact = self.known.insert(app);
        let cap = if first_contact {
            FIRST_CRAWL_CAP
        } else {
            usize::MAX
        };
        let mut new_reviews = Vec::new();
        let mut offset = 0;
        'pages: loop {
            let page = store.newest_page(app, offset, PAGE);
            if page.is_empty() {
                break;
            }
            for r in &page {
                let key = (r.app, r.reviewer, r.posted_at);
                if self.seen.contains(&key) {
                    // Incremental stop condition: we've caught up.
                    break 'pages;
                }
                new_reviews.push((*r).clone());
                if new_reviews.len() >= cap {
                    break 'pages;
                }
            }
            offset += page.len();
        }
        for r in &new_reviews {
            self.seen.insert((r.app, r.reviewer, r.posted_at));
        }
        let n = new_reviews.len();
        self.collected.entry(app).or_default().extend(new_reviews);
        n
    }

    /// Crawl a set of apps (the apps currently installed on participant
    /// devices) and stamp the crawl time. Returns total new reviews.
    pub fn crawl_all(
        &mut self,
        store: &ReviewStore,
        apps: impl IntoIterator<Item = AppId>,
        now: SimTime,
    ) -> usize {
        let mut total = 0;
        for app in apps {
            total += self.crawl_app(store, app);
        }
        self.last_crawl = Some(now);
        total
    }

    /// All reviews collected for one app (crawl order).
    pub fn reviews(&self, app: AppId) -> &[Review] {
        self.collected.get(&app).map_or(&[], Vec::as_slice)
    }

    /// Collected reviews for `app` posted by a given Google ID — the join
    /// used for install-to-review analysis (§6.3).
    pub fn reviews_by(&self, app: AppId, reviewer: GoogleId) -> Vec<&Review> {
        self.reviews(app)
            .iter()
            .filter(|r| r.reviewer == reviewer)
            .collect()
    }

    /// Total reviews collected across all apps.
    pub fn total_collected(&self) -> usize {
        self.collected.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reviews::review;

    fn store_with(n: u64) -> ReviewStore {
        let mut s = ReviewStore::new();
        for i in 0..n {
            s.post(review(AppId(1), GoogleId(i), SimTime::from_secs(i * 10), 5));
        }
        s
    }

    #[test]
    fn first_crawl_collects_everything_under_cap() {
        let store = store_with(500);
        let mut c = ReviewCrawler::new();
        let n = c.crawl_app(&store, AppId(1));
        assert_eq!(n, 500);
        assert_eq!(c.total_collected(), 500);
        assert_eq!(c.known.len(), 1);
    }

    #[test]
    fn incremental_crawl_stops_at_seen_reviews() {
        let mut store = store_with(300);
        let mut c = ReviewCrawler::new();
        c.crawl_all(&store, [AppId(1)], SimTime::EPOCH);
        // 40 new reviews arrive later.
        for i in 0..40 {
            store.post(review(
                AppId(1),
                GoogleId(1000 + i),
                SimTime::from_secs(100_000 + i * 5),
                4,
            ));
        }
        let n = c.crawl_app(&store, AppId(1));
        assert_eq!(n, 40, "only the new reviews are collected");
        assert_eq!(c.total_collected(), 340);
    }

    #[test]
    fn repeat_crawl_without_changes_collects_nothing() {
        let store = store_with(50);
        let mut c = ReviewCrawler::new();
        c.crawl_app(&store, AppId(1));
        assert_eq!(c.crawl_app(&store, AppId(1)), 0);
        assert_eq!(c.total_collected(), 50);
    }

    #[test]
    fn crawl_cadence() {
        let store = store_with(10);
        let mut c = ReviewCrawler::new();
        assert!(c.is_due(SimTime::EPOCH));
        c.crawl_all(&store, [AppId(1)], SimTime::EPOCH);
        assert!(!c.is_due(SimTime::from_hours(11)));
        assert!(c.is_due(SimTime::from_hours(12)));
    }

    #[test]
    fn reviews_by_reviewer_filter() {
        let mut store = ReviewStore::new();
        store.post(review(AppId(1), GoogleId(5), SimTime::from_secs(1), 5));
        store.post(review(AppId(1), GoogleId(6), SimTime::from_secs(2), 5));
        let mut c = ReviewCrawler::new();
        c.crawl_app(&store, AppId(1));
        assert_eq!(c.reviews_by(AppId(1), GoogleId(5)).len(), 1);
        assert_eq!(c.reviews_by(AppId(1), GoogleId(9)).len(), 0);
    }

    #[test]
    fn unknown_app_returns_empty() {
        let c = ReviewCrawler::new();
        assert!(c.reviews(AppId(99)).is_empty());
    }
}
