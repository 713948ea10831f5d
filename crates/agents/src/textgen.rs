//! Deterministic templated review-text generation.
//!
//! Review text is a *pure function* of stable identity keys — it is never
//! drawn from a device's RNG stream. Enabling text therefore cannot
//! perturb any existing decision stream: a text-off study is byte-identical
//! to a pre-text build, and a text-on study differs only by the text
//! payloads themselves (pinned by the scenario table, `tests/scenario/mod.rs`).
//!
//! Three generation tiers mirror the paper's §6.3 review-writing economy:
//!
//! * **Personal** — keyed by `(seed, google_id, app, stars)`. Every
//!   (account, app) pair writes from its own corner of the template space,
//!   so organic reviews are mutually distant under SimHash: the
//!   near-duplicate detector's negative control.
//! * **Worker promo** — keyed by `(seed, device base identity, app)` with a
//!   per-posting-account suffix word. One worker writes one text per
//!   promoted app and posts light edits of it from each of their accounts —
//!   near-duplicates *within* a device, distant *across* devices.
//! * **Campaign** — keyed by `(seed, campaign, app)` only. Every hired
//!   worker pastes the organizer-supplied template verbatim; ~30% of
//!   account slots append one slot-keyed word. Cross-device near-duplicate
//!   clusters — the signal `racket-campaign` joins as its second LSH
//!   candidate source.
//!
//! The vocabulary pools deliberately overlap the `racket-text` sentiment
//! lexicon so the rating–text divergence feature sees correlated signal:
//! 4–5★ texts score positive, 1–2★ negative, 3★ near zero.

use racket_types::Rating;

/// Salt separating the review-text key family from the device
/// (`stream_seed(seed, i)`), campaign, driver and fault stream families.
pub(crate) const TEXT_STREAM_SALT: u64 = 0x7EA7_5EED_C0DE_2021;

/// The SplitMix64 output rounds *without* the golden-ratio increment —
/// not `racket_text::mix64`, which adds it first. Every generated review
/// text is keyed through this function, so swapping in the other mixer
/// would shift every text-on fingerprint.
pub(crate) fn fmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const POS_ADJ: &[&str] = &[
    "great",
    "awesome",
    "amazing",
    "excellent",
    "fantastic",
    "perfect",
    "wonderful",
    "superb",
    "brilliant",
    "nice",
    "beautiful",
    "smooth",
];
const POS_VERB: &[&str] = &["love", "recommend", "enjoy", "like", "adore"];
const POS_TAIL: &[&str] = &[
    "works perfectly",
    "very easy to use",
    "fast and reliable",
    "simple and smooth",
    "really useful every day",
    "so much fun",
    "best in its class",
    "five stars from me",
    "helpful support too",
    "good design all around",
];
const NEG_ADJ: &[&str] = &[
    "terrible", "awful", "bad", "horrible", "broken", "useless", "buggy", "laggy", "unusable",
    "poor",
];
const NEG_TAIL: &[&str] = &[
    "crashes all the time",
    "freezes on startup",
    "full of ads",
    "a total waste of time",
    "asking for a refund",
    "worst update ever",
    "slow and annoying",
    "looks like a scam",
];
const MID_TAIL: &[&str] = &[
    "does the job",
    "could be better",
    "average at best",
    "needs more features",
    "ok for now",
    "not sure yet",
    "decent but unpolished",
];
const SUBJECT: &[&str] = &["app", "game", "tool", "update", "interface", "design"];
const FILLER: &[&str] = &[
    "really",
    "honestly",
    "definitely",
    "overall",
    "simply",
    "truly",
    "absolutely",
    "totally",
];

fn pick<'a>(pool: &[&'a str], key: u64) -> &'a str {
    pool[(key % pool.len() as u64) as usize]
}

fn push_phrase(out: &mut String, phrase: &str) {
    if !out.is_empty() {
        out.push(' ');
    }
    out.push_str(phrase);
}

/// Render one review text from a key and a star rating. The rating picks
/// the sentiment branch (4–5★ positive, 1–2★ negative, 3★ neutral); the
/// key picks the template and fills its slots.
fn compose(key: u64, stars: u8) -> String {
    let k0 = fmix64(key ^ 0xA1);
    let k1 = fmix64(key ^ 0xB2);
    let k2 = fmix64(key ^ 0xC3);
    let k3 = fmix64(key ^ 0xD4);
    let k4 = fmix64(key ^ 0xE5);
    let mut text = String::with_capacity(80);
    if stars >= 4 {
        match k0 % 4 {
            0 => {
                push_phrase(&mut text, pick(FILLER, k1));
                push_phrase(&mut text, pick(POS_ADJ, k2));
                push_phrase(&mut text, pick(SUBJECT, k3));
                push_phrase(&mut text, pick(POS_TAIL, k4));
            }
            1 => {
                push_phrase(&mut text, pick(POS_ADJ, k1));
                push_phrase(&mut text, pick(SUBJECT, k2));
                push_phrase(&mut text, "i");
                push_phrase(&mut text, pick(POS_VERB, k3));
                push_phrase(&mut text, "it");
                push_phrase(&mut text, pick(POS_TAIL, k4));
            }
            2 => {
                push_phrase(&mut text, "i");
                push_phrase(&mut text, pick(POS_VERB, k1));
                push_phrase(&mut text, "this");
                push_phrase(&mut text, pick(SUBJECT, k2));
                push_phrase(&mut text, pick(POS_TAIL, k3));
                push_phrase(&mut text, pick(FILLER, k4));
                push_phrase(&mut text, pick(POS_ADJ, fmix64(k4 ^ k1)));
            }
            _ => {
                push_phrase(&mut text, pick(POS_ADJ, k1));
                push_phrase(&mut text, "and");
                push_phrase(&mut text, pick(POS_ADJ, k2));
                push_phrase(&mut text, pick(SUBJECT, k3));
                push_phrase(&mut text, pick(POS_TAIL, k4));
            }
        }
    } else if stars <= 2 {
        match k0 % 3 {
            0 => {
                push_phrase(&mut text, pick(NEG_ADJ, k1));
                push_phrase(&mut text, pick(SUBJECT, k2));
                push_phrase(&mut text, pick(NEG_TAIL, k3));
            }
            1 => {
                push_phrase(&mut text, pick(FILLER, k1));
                push_phrase(&mut text, pick(NEG_ADJ, k2));
                push_phrase(&mut text, "this");
                push_phrase(&mut text, pick(SUBJECT, k3));
                push_phrase(&mut text, pick(NEG_TAIL, k4));
            }
            _ => {
                push_phrase(&mut text, pick(NEG_ADJ, k1));
                push_phrase(&mut text, "and");
                push_phrase(&mut text, pick(NEG_ADJ, k2));
                push_phrase(&mut text, pick(NEG_TAIL, k3));
            }
        }
    } else {
        push_phrase(&mut text, pick(SUBJECT, k1));
        push_phrase(&mut text, pick(MID_TAIL, k2));
        if k0.is_multiple_of(2) {
            push_phrase(&mut text, "but");
            push_phrase(&mut text, pick(MID_TAIL, k3));
        }
    }
    text
}

/// The deterministic review-text generator for one fleet.
///
/// Constructed from the fleet master seed; every output is a pure function
/// of `(master seed, tier keys)`, so text generation consumes no RNG and
/// is independent of thread count and build order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextGen {
    seed: u64,
}

impl TextGen {
    /// A generator on the fleet's text stream family.
    pub fn new(master_seed: u64) -> Self {
        TextGen {
            seed: fmix64(master_seed ^ TEXT_STREAM_SALT),
        }
    }

    /// Mix tier tag and two identity keys into one template key.
    fn key(&self, tier: u64, a: u64, b: u64) -> u64 {
        fmix64(fmix64(fmix64(self.seed ^ tier) ^ a) ^ b)
    }

    /// Personal-tier text: unique per (account, app, rating).
    pub fn personal(&self, google_id: u64, app: u64, rating: Rating) -> String {
        let stars = rating.stars();
        compose(
            fmix64(self.key(0x01, google_id, app) ^ u64::from(stars)),
            stars,
        )
    }

    /// Worker-promo-tier text: one base template per (device, app), with a
    /// suffix word keyed by the posting account. Promo ratings are always
    /// 4–5★, so the base template is rating-independent and every account
    /// on the device posts a near-duplicate of it.
    pub fn worker_promo(
        &self,
        base_google_id: u64,
        app: u64,
        account_google_id: u64,
        rating: Rating,
    ) -> String {
        let base_key = self.key(0x02, base_google_id, app);
        let mut text = compose(base_key, rating.stars().max(4));
        let v = fmix64(base_key ^ fmix64(account_google_id ^ 0x51));
        push_phrase(&mut text, pick(FILLER, v));
        text
    }

    /// Campaign-tier text: the organizer's template, keyed by
    /// `(campaign, app)` only, pasted verbatim by every hired worker; ~30%
    /// of account slots append one slot-keyed word.
    pub fn campaign(&self, campaign: u32, app: u64, account_slot: u32, rating: Rating) -> String {
        let base_key = self.key(0x03, u64::from(campaign), app);
        let mut text = compose(base_key, rating.stars().max(4));
        let v = fmix64(base_key ^ fmix64(u64::from(account_slot) ^ 0x77));
        if v % 10 < 3 {
            push_phrase(&mut text, pick(FILLER, fmix64(v)));
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_text::{hamming, sentiment_score, simhash64_of_text};

    const FIVE: Rating = Rating::FIVE;

    #[test]
    fn generation_is_deterministic() {
        let g = TextGen::new(2021);
        assert_eq!(g.personal(7, 3, FIVE), g.personal(7, 3, FIVE));
        assert_eq!(
            g.worker_promo(9, 3, 11, FIVE),
            g.worker_promo(9, 3, 11, FIVE)
        );
        assert_eq!(g.campaign(0, 3, 5, FIVE), g.campaign(0, 3, 5, FIVE));
        assert_ne!(TextGen::new(2021), TextGen::new(2022));
    }

    #[test]
    fn personal_texts_are_mutually_distant() {
        let g = TextGen::new(2021);
        let texts: Vec<String> = (0..20).map(|i| g.personal(i, 42, FIVE)).collect();
        let mut min_d = 64;
        for i in 0..texts.len() {
            for j in (i + 1)..texts.len() {
                let d = hamming(
                    simhash64_of_text(&texts[i], 2),
                    simhash64_of_text(&texts[j], 2),
                );
                min_d = min_d.min(d);
            }
        }
        assert!(min_d > 6, "organic texts collided at hamming {min_d}");
    }

    #[test]
    fn worker_promo_is_near_duplicate_within_device_only() {
        let g = TextGen::new(2021);
        let a = g.worker_promo(100, 42, 101, FIVE);
        let b = g.worker_promo(100, 42, 102, FIVE);
        assert_ne!(a, b, "per-account suffix varies the text");
        let d = hamming(simhash64_of_text(&a, 2), simhash64_of_text(&b, 2));
        assert!(d <= 16, "same-device accounts are near-duplicates, got {d}");
        // Base text (all but the suffix word) is shared verbatim.
        let strip = |t: &str| t.rsplit_once(' ').map(|(h, _)| h.to_string()).unwrap();
        assert_eq!(strip(&a), strip(&b));
        // A different device writes its own template.
        let c = g.worker_promo(200, 42, 201, FIVE);
        let d = hamming(simhash64_of_text(&a, 2), simhash64_of_text(&c, 2));
        assert!(d > 16, "cross-device promo texts must differ, got {d}");
    }

    #[test]
    fn campaign_texts_are_templates_shared_across_workers() {
        let g = TextGen::new(2021);
        let texts: Vec<String> = (0..16).map(|slot| g.campaign(3, 42, slot, FIVE)).collect();
        let base = texts
            .iter()
            .min_by_key(|t| t.len())
            .expect("non-empty")
            .clone();
        for t in &texts {
            assert!(t.starts_with(&base), "{t:?} does not extend {base:?}");
            let d = hamming(simhash64_of_text(&base, 2), simhash64_of_text(t, 2));
            assert!(d <= 16, "campaign slot drifted to hamming {d}");
        }
        // Some slots paste the template verbatim, some append a word.
        assert!(texts.contains(&base));
        assert!(texts.iter().any(|t| *t != base));
        // A different campaign gets a different template.
        assert_ne!(g.campaign(4, 42, 0, FIVE), g.campaign(3, 42, 0, FIVE));
    }

    #[test]
    fn sentiment_tracks_rating() {
        let g = TextGen::new(7);
        for i in 0..30u64 {
            let pos = g.personal(i, i + 1, Rating::FIVE);
            let neg = g.personal(i, i + 1, Rating::ONE);
            assert!(sentiment_score(&pos) > 0, "5-star text {pos:?} scored flat");
            assert!(sentiment_score(&neg) < 0, "1-star text {neg:?} scored flat");
        }
    }
}
