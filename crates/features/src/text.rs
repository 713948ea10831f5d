//! Review-text features — the EXPERIMENTS.md ablation column.
//!
//! These columns are extracted from the per-install streaming
//! [`racket_text::TextSketch`] (folded at snapshot-ingest time from
//! reported reviews) and are **not** part of the default §7.1 vector:
//! the paper's classifiers never saw review text, so the baseline vector
//! keeps the [`crate::app_feature_names`] columns and these ride along
//! only in the `+text` ablation run ([`app_feature_names_with_text`]). A text-off
//! study has an empty sketch and every pair gets the all-sentinel row,
//! so the ablation degrades to the baseline rather than erroring.

use crate::observation::DeviceObservation;
use racket_text::hamming;
use racket_types::AppId;

/// Column names of the text ablation block, aligned with
/// [`text_features`].
pub(crate) const TEXT_FEATURE_NAMES: [&str; 4] = [
    "n_texted_reviews",            // reviews of this app reported with text
    "mean_review_len",             // mean text length in bytes (−1 if none)
    "rating_sentiment_divergence", // mean |rating tone − lexicon tone| (−1 if none)
    "crossacct_neardup_degree",    // same-app near-dup pairs across accounts
];

/// Hamming threshold for the within-device cross-account near-duplicate
/// degree — matches the detector's `text_max_hamming` default so the
/// feature counts exactly the pairs the campaign text source would
/// verify.
const NEAR_DUP_HAMMING: u32 = 6;

/// Extract the text ablation block for app `app` on the observed device.
///
/// Unlike [`crate::app_features`] this never panics on an unseen app: a
/// pair with no texted reviews is a legitimate observation (text-off
/// studies, organic devices) and maps to the sentinel row
/// `[0, −1, −1, 0]`.
pub fn text_features(obs: &DeviceObservation, app: AppId) -> Vec<f64> {
    let rows: Vec<&racket_text::ReviewRow> = obs
        .record
        .stream
        .text()
        .rows()
        .filter(|r| r.app == app.raw())
        .collect();
    if rows.is_empty() {
        return vec![0.0, -1.0, -1.0, 0.0];
    }
    let n = rows.len() as f64;
    let mean_len = rows.iter().map(|r| f64::from(r.len)).sum::<f64>() / n;

    // Rating–text divergence: both tones normalised to [−1, 1] (rating
    // centred on 3 stars, lexicon score clamped at ±3), mean absolute
    // disagreement halved into [0, 1]. A 5★ review reading "crashes a
    // lot" scores near 1; an honest review near 0.
    let divergence = rows
        .iter()
        .map(|r| {
            let rating_tone = (f64::from(r.rating) - 3.0) / 2.0;
            let text_tone = f64::from(r.sentiment.clamp(-3, 3)) / 3.0;
            (rating_tone - text_tone).abs() / 2.0
        })
        .sum::<f64>()
        / n;

    // Cross-account similarity degree: distinct reviewer pairs on this
    // app whose texts verify as near-duplicates. Organizer-scripted
    // account farms recycle one phrasing across their gmail pool;
    // personal texts are keyed per identity and stay distant.
    let mut neardup_pairs = 0u64;
    for (i, a) in rows.iter().enumerate() {
        for b in &rows[i + 1..] {
            if a.reviewer != b.reviewer && hamming(a.simhash, b.simhash) <= NEAR_DUP_HAMMING {
                neardup_pairs += 1;
            }
        }
    }

    vec![n, mean_len, divergence, neardup_pairs as f64]
}

/// Column names of the `+text` ablation vector: the default §7.1 columns
/// followed by the four text columns.
pub fn app_feature_names_with_text() -> Vec<String> {
    let mut names = crate::app_feature_names();
    names.extend(TEXT_FEATURE_NAMES.iter().map(|s| s.to_string()));
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::{
        FastSnapshot, GoogleId, InstallId, ParticipantId, Rating, ReviewEvent, SimTime,
        SlowSnapshot, Snapshot, TimeInterval,
    };
    use std::collections::HashMap;

    const P: ParticipantId = ParticipantId(111_111);
    const I: InstallId = InstallId(1);
    const A: AppId = AppId(1);

    fn observation(reviews: Vec<ReviewEvent>) -> DeviceObservation {
        let store = racket_collect::ShardedIngest::new(8);
        store.ingest_batch(&[Snapshot::Fast(FastSnapshot {
            install_id: I,
            participant_id: P,
            time: SimTime::from_days(10),
            foreground_app: Some(A),
            screen_on: true,
            battery_pct: 90,
            install_events: vec![racket_types::InstallDelta::Installed(
                racket_types::InstalledApp::fresh(
                    A,
                    SimTime::from_days(9),
                    racket_types::PermissionProfile::default(),
                    racket_types::ApkHash([1; 16]),
                ),
            )],
        })]);
        store.ingest_batch(&[Snapshot::Slow(SlowSnapshot {
            install_id: I,
            participant_id: P,
            android_id: None,
            time: SimTime::from_days(10),
            accounts: vec![],
            save_mode: false,
            stopped_apps: vec![],
            review_events: reviews,
        })]);
        DeviceObservation {
            record: store.record(I).unwrap(),
            monitoring: TimeInterval::new(SimTime::from_days(10), SimTime::from_days(14)),
            google_ids: vec![GoogleId(1), GoogleId(2)],
            reviews_by_app: HashMap::new(),
            vt_flags: HashMap::new(),
        }
    }

    fn review(reviewer: u64, t: u64, stars: u8, text: &str) -> ReviewEvent {
        ReviewEvent {
            app: A,
            reviewer: GoogleId(reviewer),
            time: SimTime::from_secs(t),
            rating: Rating::new(stars).unwrap(),
            text: text.to_owned(),
        }
    }

    #[test]
    fn textless_pair_gets_sentinels() {
        let obs = observation(vec![]);
        assert_eq!(text_features(&obs, A), vec![0.0, -1.0, -1.0, 0.0]);
        assert_eq!(
            crate::app_features(&obs, A).len() + text_features(&obs, A).len(),
            app_feature_names_with_text().len()
        );
    }

    #[test]
    fn honest_review_has_low_divergence() {
        let obs = observation(vec![review(1, 100, 5, "great app works perfectly love it")]);
        let v = text_features(&obs, A);
        assert_eq!(v[0], 1.0);
        assert!(v[1] > 10.0, "mean length {}", v[1]);
        assert!(v[2] < 0.2, "divergence {}", v[2]);
        assert_eq!(v[3], 0.0);
    }

    #[test]
    fn dishonest_rating_diverges_from_text() {
        let obs = observation(vec![review(1, 100, 5, "terrible crashes a lot useless")]);
        let v = text_features(&obs, A);
        assert!(v[2] > 0.8, "divergence {}", v[2]);
    }

    #[test]
    fn cross_account_copies_raise_the_degree() {
        let template = "great app works perfectly love the new design";
        let obs = observation(vec![
            review(1, 100, 5, template),
            review(2, 200, 5, template),
            review(
                3,
                300,
                5,
                "completely different words about weather patterns",
            ),
        ]);
        let v = text_features(&obs, A);
        assert_eq!(v[0], 3.0);
        assert_eq!(v[3], 1.0, "exactly the template pair");
    }

    #[test]
    fn same_account_copies_do_not_count() {
        let template = "great app works perfectly love the new design";
        let obs = observation(vec![
            review(1, 100, 5, template),
            review(1, 200, 4, template),
        ]);
        let v = text_features(&obs, A);
        assert_eq!(v[3], 0.0, "one reviewer repeating is not cross-account");
    }
}
