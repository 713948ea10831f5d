//! Coordinated ASO campaigns: deterministic lockstep install/review jobs.
//!
//! §7.3 of the paper infers coordination from devices that act on the same
//! promoted apps at the same times. The fleet reproduces that ground truth
//! with explicit [`CampaignSpec`] objects: an organizer picks a target-app set
//! from the promoted catalog slice, hires a worker pool from the promotion
//! personas (the device indices in `[n_regular, n_devices)`), and schedules
//! correlated install + review *directives* under one of three
//! [`PacingStrategy`] profiles. Detection difficulty is monotone in the
//! pacing: `Burst` is near-perfect lockstep, `Drip` spreads the same work
//! over days, `Stealth` adds per-worker jitter and dropout.
//!
//! Determinism rides the fleet RNG-stream contract: campaign `c` draws every
//! decision from `stream_seed(config.seed ^ CAMPAIGN_STREAM_SALT, c)`, so
//! the plan is a pure function of [`FleetConfig`] — independent of thread
//! count, and byte-identical across the direct / wire / async delivery
//! paths (pinned by the scenario table, `tests/scenario/mod.rs`).

use crate::agent::{Action, TimelineAction};
use crate::fleet::{stream_seed, FleetConfig};
use racket_playstore::AppCatalog;
use racket_types::{AccountId, AppId, GoogleId, Rating, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Salt separating the campaign RNG stream family from device streams
/// (`stream_seed(seed, i)`) and the study's driver/fault families.
pub(crate) const CAMPAIGN_STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// How a campaign paces its correlated actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacingStrategy {
    /// All workers act inside one ~3 h window on the campaign's anchor
    /// day — maximal temporal overlap, the easiest case for a lockstep
    /// detector.
    Burst,
    /// The organizer staggers targets across days 0–2, one schedule slot
    /// per app, and workers follow it with up to 12 h of slack — apps
    /// stay correlated but each shared time bucket becomes a coin flip,
    /// the intermediate row of the EXPERIMENTS.md table.
    Drip,
    /// Per-app slots across days 0–3, up to 48 h of per-worker jitter,
    /// ~25% per-job dropout and a lower review rate — the evasion end of
    /// the recall/precision table.
    Stealth,
}

/// Fleet-level campaign knobs. The default runs **zero** campaigns, which
/// keeps every pre-existing study pin (fingerprints, calibration bands,
/// goldens) byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Number of independent campaigns to schedule.
    pub n_campaigns: usize,
    /// Workers hired per campaign (clamped to the promotion-persona pool).
    pub workers_per_campaign: usize,
    /// Distinct promoted target apps per campaign (clamped to the catalog's
    /// promoted slice).
    pub apps_per_campaign: usize,
    /// Pacing profile shared by all campaigns in this fleet.
    pub pacing: PacingStrategy,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            n_campaigns: 0,
            workers_per_campaign: 8,
            apps_per_campaign: 4,
            pacing: PacingStrategy::Burst,
        }
    }
}

impl CampaignConfig {
    /// A config running `n` campaigns with the given pacing and the default
    /// pool sizes.
    pub fn with(n: usize, pacing: PacingStrategy) -> Self {
        CampaignConfig {
            n_campaigns: n,
            pacing,
            ..CampaignConfig::default()
        }
    }
}

/// One scheduled install (+ optional review) job for one worker device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignDirective {
    /// Index of the campaign that issued the job.
    pub campaign: u32,
    /// The target app.
    pub app: AppId,
    /// When the worker installs (re-installs are fine: the collector
    /// reports a changed install time as a fresh install event).
    pub install_at: SimTime,
    /// When the worker posts the paid review, if the job includes one.
    pub review_at: Option<SimTime>,
    /// Which of the worker's Gmail identities posts (index modulo the
    /// device's identity count).
    pub account_slot: u32,
    /// The bought star rating.
    pub stars: u8,
}

/// Ground truth for one campaign: who organized it, which devices worked
/// it, which apps it targeted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign index (0-based).
    pub index: u32,
    /// Synthetic organizer handle (flavour only; never observed).
    pub organizer: u64,
    /// Target apps, ascending.
    pub targets: Vec<AppId>,
    /// Worker device indices into `Fleet::devices`, ascending.
    pub workers: Vec<usize>,
    /// Pacing the campaign ran under.
    pub pacing: PacingStrategy,
}

/// The full campaign schedule for a fleet: ground-truth specs plus the
/// per-device directive lists.
#[derive(Debug, Clone, Default)]
pub(crate) struct CampaignPlan {
    /// Ground-truth campaign descriptions, by index.
    pub specs: Vec<CampaignSpec>,
    /// `directives[i]` = jobs for fleet device `i`, sorted by install time.
    pub directives: Vec<Vec<CampaignDirective>>,
}

impl CampaignPlan {
    /// Build the deterministic campaign schedule for `config` against the
    /// generated catalog. Pure function of `(config, catalog)`; the catalog
    /// is itself a pure function of `config.catalog`.
    pub(crate) fn generate(config: &FleetConfig, catalog: &AppCatalog) -> CampaignPlan {
        let cc = config.campaigns;
        let n_devices = config.n_devices();
        let mut plan = CampaignPlan {
            specs: Vec::with_capacity(cc.n_campaigns),
            directives: vec![Vec::new(); n_devices],
        };
        if cc.n_campaigns == 0 {
            return plan;
        }
        let pool: Vec<usize> = (config.n_regular..n_devices).collect();
        let promoted = catalog.promoted_apps();
        assert!(
            !pool.is_empty() && !promoted.is_empty(),
            "campaigns need promotion devices and promoted apps"
        );
        let study_start = config.study_start();

        for c in 0..cc.n_campaigns {
            let mut rng =
                StdRng::seed_from_u64(stream_seed(config.seed ^ CAMPAIGN_STREAM_SALT, c as u64));

            let mut targets = promoted.to_vec();
            targets.shuffle(&mut rng);
            targets.truncate(cc.apps_per_campaign.clamp(1, targets.len()));
            targets.sort();

            let mut workers = pool.clone();
            workers.shuffle(&mut rng);
            workers.truncate(cc.workers_per_campaign.clamp(1, workers.len()));
            workers.sort_unstable();

            // Per-app schedule anchors, aligned to 6 h shingle-bucket
            // boundaries (the study start is day-aligned). Burst shares a
            // single anchor inside days 0–1, so every worker's ≥ 2-day
            // monitoring window covers it; drip/stealth stagger each
            // target across days 0–2 / 0–3 on its own slot.
            let campaign_slot = rng.gen_range(0..7u64); // 6 h slots, days 0–1
            let anchors: Vec<SimTime> = targets
                .iter()
                .map(|_| {
                    let slot = match cc.pacing {
                        PacingStrategy::Burst => campaign_slot,
                        PacingStrategy::Drip => rng.gen_range(0..9u64), // days 0–2
                        PacingStrategy::Stealth => rng.gen_range(0..12u64), // days 0–3
                    };
                    study_start + SimDuration::from_hours(6 * slot)
                })
                .collect();

            for &w in &workers {
                for (&app, &anchor) in targets.iter().zip(&anchors) {
                    let (jitter_secs, review, review_delay) = match cc.pacing {
                        // < 3 h of slack: every worker lands in the
                        // anchor's bucket.
                        PacingStrategy::Burst => (
                            rng.gen_range(0..3 * 3600),
                            rng.gen_bool(0.9),
                            SimDuration::from_secs(rng.gen_range(3600..20 * 3600)),
                        ),
                        // Up to 12 h of slack: a shared bucket per app is
                        // a coin flip between two workers.
                        PacingStrategy::Drip => (
                            rng.gen_range(0..12 * 3600),
                            rng.gen_bool(0.8),
                            SimDuration::from_secs(rng.gen_range(6 * 3600..2 * 86_400)),
                        ),
                        // Up to 48 h of slack: bucket collisions are rare.
                        PacingStrategy::Stealth => (
                            rng.gen_range(0..48 * 3600),
                            rng.gen_bool(0.6),
                            SimDuration::from_secs(rng.gen_range(86_400..4 * 86_400)),
                        ),
                    };
                    let install_at = anchor + SimDuration::from_secs(jitter_secs);
                    // Stealth dropout: the worker skips this job entirely.
                    if cc.pacing == PacingStrategy::Stealth && rng.gen_bool(0.25) {
                        continue;
                    }
                    plan.directives[w].push(CampaignDirective {
                        campaign: c as u32,
                        app,
                        install_at,
                        review_at: review.then(|| install_at + review_delay),
                        account_slot: rng.gen_range(0..16),
                        stars: if rng.gen_bool(0.85) { 5 } else { 4 },
                    });
                }
            }

            plan.specs.push(CampaignSpec {
                index: c as u32,
                organizer: rng.gen(),
                targets,
                workers,
                pacing: cc.pacing,
            });
        }
        for jobs in &mut plan.directives {
            jobs.sort_by_key(|d| (d.install_at, d.app));
        }
        plan
    }
}

/// The rating object for a directive (`stars` is always 4 or 5).
pub(crate) fn directive_rating(d: &CampaignDirective) -> Rating {
    Rating::new(d.stars).expect("campaign stars are valid")
}

/// Expand a device's directive list into timeline actions, stably sorted
/// by time — the lane-setup half of the study driver's directive cursor.
///
/// Each directive yields an install action and (when the job includes a
/// review and the device has Gmail identities) a review action from the
/// identity at `account_slot` modulo the identity count. Expansion order
/// follows the directive list, so after the stable time sort, actions at
/// equal times keep directive order — exactly what the per-day scan this
/// replaces produced. The plan is sliced per day by a cursor; merging a
/// slice into a day's organic actions and stable-sorting reproduces the
/// old scan-every-day injection byte for byte, RNG-free on both sides.
///
/// `textgen` supplies the campaign-tier review text (the organizer's
/// template, shared by every hired worker — ARCHITECTURE.md §13); `None`
/// leaves texts empty. Either way expansion stays RNG-free.
pub fn expand_directives(
    directives: &[CampaignDirective],
    idents: &[(AccountId, GoogleId)],
    textgen: Option<&crate::textgen::TextGen>,
) -> Vec<TimelineAction> {
    let mut plan = Vec::with_capacity(directives.len() * 2);
    for d in directives {
        plan.push(TimelineAction {
            time: d.install_at,
            action: Action::Install { app: d.app },
        });
        if let Some(at) = d.review_at {
            if let Some(&(account, google_id)) =
                idents.get(d.account_slot as usize % idents.len().max(1))
            {
                let rating = directive_rating(d);
                plan.push(TimelineAction {
                    time: at,
                    action: Action::Review {
                        app: d.app,
                        account,
                        google_id,
                        rating,
                        text: textgen
                            .map(|g| {
                                g.campaign(
                                    d.campaign,
                                    u64::from(d.app.raw()),
                                    d.account_slot,
                                    rating,
                                )
                            })
                            .unwrap_or_default(),
                    },
                });
            }
        }
    }
    plan.sort_by_key(|ta| ta.time);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_playstore::AppCatalog;

    fn plan_for(cc: CampaignConfig) -> (FleetConfig, CampaignPlan) {
        let mut config = FleetConfig::test_scale();
        config.campaigns = cc;
        let catalog = AppCatalog::generate(&config.catalog);
        let plan = CampaignPlan::generate(&config, &catalog);
        (config, plan)
    }

    #[test]
    fn default_config_schedules_nothing() {
        let (_, plan) = plan_for(CampaignConfig::default());
        assert!(plan.specs.is_empty());
        assert!(plan.directives.iter().all(|d| d.is_empty()));
    }

    #[test]
    fn plan_is_deterministic_and_workers_are_promoters() {
        let cc = CampaignConfig::with(2, PacingStrategy::Burst);
        let (config, plan) = plan_for(cc);
        let (_, plan2) = plan_for(cc);
        assert_eq!(plan.specs, plan2.specs);
        assert_eq!(plan.directives, plan2.directives);
        assert_eq!(plan.specs.len(), 2);
        for spec in &plan.specs {
            assert!(spec.workers.iter().all(|&w| w >= config.n_regular));
            assert!(spec.workers.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(spec.targets.len(), cc.apps_per_campaign);
        }
        // Regular devices never receive directives.
        assert!(plan.directives[..config.n_regular]
            .iter()
            .all(|d| d.is_empty()));
    }

    #[test]
    fn burst_jobs_land_in_one_bucket_per_campaign() {
        let (config, plan) = plan_for(CampaignConfig::with(1, PacingStrategy::Burst));
        let spec = &plan.specs[0];
        let start = config.study_start().as_secs();
        for &w in &spec.workers {
            for d in &plan.directives[w] {
                let t = d.install_at.as_secs();
                assert!(t >= start && t < start + 2 * 86_400 + 3 * 3600);
                if let Some(r) = d.review_at {
                    assert!(r > d.install_at);
                }
            }
            assert_eq!(plan.directives[w].len(), spec.targets.len());
        }
        // All installs of one campaign share a single 6 h bucket boundary
        // set: max spread under burst is < 3 h.
        let times: Vec<u64> = spec
            .workers
            .iter()
            .flat_map(|&w| plan.directives[w].iter().map(|d| d.install_at.as_secs()))
            .collect();
        let (lo, hi) = (*times.iter().min().unwrap(), *times.iter().max().unwrap());
        assert!(hi - lo < 3 * 3600);
    }

    #[test]
    fn stealth_drops_some_jobs() {
        let (_, full) = plan_for(CampaignConfig::with(3, PacingStrategy::Burst));
        let (_, stealth) = plan_for(CampaignConfig::with(3, PacingStrategy::Stealth));
        let count = |p: &CampaignPlan| p.directives.iter().map(Vec::len).sum::<usize>();
        assert!(count(&stealth) < count(&full));
        assert!(count(&stealth) > 0);
    }
}
