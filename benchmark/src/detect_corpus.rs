//! `detect_corpus`: campaign and review-text detection as the whole run.
//!
//! Set-up (untimed) runs one `Direct` study with campaigns and review text
//! on and trains the detection service, then generates a review corpus
//! with planted near-duplicate groups and a set of lockstep-sketch inputs
//! with one planted cluster. A timed repetition exercises the same sketch
//! kernels both ways — streaming observe/merge beside batch rebuild — so a
//! change that helps one use and costs the other shows here.

use crate::chain;
use crate::e2e;
use crate::harness::{self, Rep, RunArgs};
use crate::metrics::{Outcome, Values};
use crate::trace::Tracer;
use racket_agents::{stream_seed, TextGen};
use racket_campaign::{detect, CampaignSketch, DetectorConfig};
use racket_obs::Registry;
use racket_text::{NearDupIndex, TextSketch};
use racket_types::metrics::keys;
use racket_types::{AppId, InstallId, Rating, SimTime};
use racketstore::scoring::DetectionService;
use racketstore::study::{CollectionPath, Study, StudyOutput};
use rayon::prelude::*;
use std::collections::BTreeSet;

/// Sizes of the synthetic inputs.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Installs in the review corpus.
    installs: usize,
    /// Reviews per install.
    reviews_per_install: usize,
    /// Groups the per-install sketches are merged down to.
    groups: usize,
    /// Leading installs whose reviews enter the near-duplicate index. The
    /// index verifies candidates pairwise inside each band bucket, so its
    /// cost grows with the square of what it holds; the hired installs
    /// come first and are always inside.
    indexed_installs: usize,
    /// Planted campaigns; each hires [`PLANTED_MEMBERS`] installs.
    planted_campaigns: usize,
    /// Synthetic lockstep sketches.
    sketches: usize,
    /// Install events per synthetic sketch.
    events_per_sketch: usize,
}

/// Installs hired per planted review campaign, and members of the planted
/// lockstep cluster.
const PLANTED_MEMBERS: usize = 5;
const CLUSTER_MEMBERS: usize = 8;
/// Campaign-tier reviews each hired install posts (the rest are its own).
const CAMPAIGN_REVIEWS: usize = 20;

impl Sizes {
    fn of(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                installs: 200,
                reviews_per_install: 40,
                groups: 10,
                indexed_installs: 200,
                planted_campaigns: 4,
                sketches: 100,
                events_per_sketch: 120,
            }
        } else {
            Sizes {
                installs: 3_000,
                reviews_per_install: 100,
                groups: 100,
                indexed_installs: 400,
                planted_campaigns: 20,
                sketches: 500,
                events_per_sketch: 120,
            }
        }
    }
}

/// One review of the synthetic corpus.
struct CorpusReview {
    app: u32,
    reviewer: u64,
    time: u64,
    stars: u8,
    text: String,
}

/// Everything set-up hands the repetitions.
struct Inputs {
    out: StudyOutput,
    service: DetectionService,
    /// Reviews per install; installs `0..planted_campaigns * PLANTED_MEMBERS`
    /// are hired, five consecutive installs per campaign.
    corpus: Vec<Vec<CorpusReview>>,
    /// Install events per synthetic device; devices `0..CLUSTER_MEMBERS`
    /// act in lockstep.
    events: Vec<Vec<(AppId, SimTime)>>,
}

/// Run the workload.
pub fn run(args: &RunArgs, tracer: &Tracer) -> Outcome {
    let sizes = Sizes::of(args.smoke);
    let mut outcome = Outcome::default();
    let inputs = harness::repeat_setup(args.smoke, &mut outcome.values, || {
        let inputs = setup(tracer, args, sizes);
        let mut warmup = Outcome::default();
        repetition(tracer, &inputs, sizes, &mut warmup);
        inputs
    });

    let reps = harness::run_reps(args, tracer, false, || {
        repetition(tracer, &inputs, sizes, &mut outcome)
    });
    harness::fold_reps(&reps, &mut outcome.values);
    outcome
}

fn setup(t: &Tracer, args: &RunArgs, sizes: Sizes) -> Inputs {
    let (config, labeling) = e2e::study_config(CollectionPath::Direct, args.seed, args.smoke);
    let out = Study::new(config).run();
    let service = chain::train_service(t, &out, &labeling, false, &mut Values::new());

    let textgen = TextGen::new(args.seed);
    let hired = sizes.planted_campaigns * PLANTED_MEMBERS;
    let corpus: Vec<Vec<CorpusReview>> = (0..sizes.installs as u64)
        .into_par_iter()
        .map(|i| {
            (0..sizes.reviews_per_install as u64)
                .map(|r| {
                    let reviewer = i * 1_000 + r;
                    let stars = (1 + (i + r) % 5) as u8;
                    let rating = Rating::new(stars).expect("1..=5 stars");
                    let campaign = i / PLANTED_MEMBERS as u64;
                    let (app, text) = if (i as usize) < hired && (r as usize) < CAMPAIGN_REVIEWS {
                        // The organizer's template, pasted by every member.
                        let app = 1_000_000 + campaign * 100 + r;
                        let slot = (i % PLANTED_MEMBERS as u64) as u32;
                        (
                            app,
                            textgen.campaign(campaign as u32, app, slot, Rating::FIVE),
                        )
                    } else if i % 4 == 3 {
                        // A worker device: one base text per app, reposted
                        // from each of its accounts.
                        let app = (i * 7 + r / 4) % 997;
                        (app, textgen.worker_promo(i, app, reviewer, rating))
                    } else {
                        let app = (i * sizes.reviews_per_install as u64 + r) % 997;
                        (app, textgen.personal(reviewer, app, rating))
                    };
                    CorpusReview {
                        app: app as u32,
                        reviewer,
                        time: r * 60,
                        stars,
                        text,
                    }
                })
                .collect()
        })
        .collect();

    // Lockstep inputs: every device installs `events_per_sketch` random
    // apps at random times over 540 days; the cluster members share three
    // quarters of theirs to the second.
    let draw = |stream: u64, k: u64| stream_seed(args.seed ^ stream, k);
    let event = |stream: u64, k: u64| {
        let app = AppId((draw(stream, 2 * k) % 5_000) as u32);
        let secs = draw(stream, 2 * k + 1) % (540 * 86_400);
        (app, SimTime::from_secs(secs))
    };
    let shared = sizes.events_per_sketch * 3 / 4;
    let events = (0..sizes.sketches as u64)
        .map(|d| {
            (0..sizes.events_per_sketch as u64)
                .map(|k| {
                    if (d as usize) < CLUSTER_MEMBERS && (k as usize) < shared {
                        event(u64::MAX, k)
                    } else {
                        event(d, k)
                    }
                })
                .collect()
        })
        .collect();
    Inputs {
        out,
        service,
        corpus,
        events,
    }
}

fn repetition(t: &Tracer, inputs: &Inputs, sizes: Sizes, outcome: &mut Outcome) -> Rep {
    let mut layers = Values::new();
    let t0 = std::time::Instant::now();
    let detected = chain::score_and_detect(t, &inputs.out, &inputs.service);

    // The corpus, streamed: one sketch per install, folded review by
    // review as ingest would, installs in parallel as lanes are.
    let n_reviews = (sizes.installs * sizes.reviews_per_install) as u64;
    let (sketches, fold_s) = t.time("text.sketch.observe", || {
        inputs
            .corpus
            .par_iter()
            .map(|reviews| {
                let mut sketch = TextSketch::default();
                for r in reviews {
                    sketch.observe(r.app, r.reviewer, r.time, r.stars, &r.text);
                }
                sketch
            })
            .collect::<Vec<TextSketch>>()
    });
    let per_group = sizes.installs.div_ceil(sizes.groups);
    let (groups, merge_s) = t.time("text.sketch.merge", || {
        sketches
            .chunks(per_group)
            .map(|members| {
                let mut group = TextSketch::default();
                for sketch in members {
                    group.merge(sketch);
                }
                group
            })
            .collect::<Vec<TextSketch>>()
    });
    let (scan, _) = t.time("text.index.scan", || {
        let mut index = NearDupIndex::new();
        for (install, sketch) in sketches.iter().take(sizes.indexed_installs).enumerate() {
            for row in sketch.rows() {
                index.insert(install as u64, row.simhash);
            }
        }
        index.scan(DetectorConfig::default().text_max_hamming)
    });

    // The lockstep inputs, streamed and detected.
    let (campaign_sketches, observe_s) = t.time("campaign.sketch.observe", || {
        inputs
            .events
            .iter()
            .map(|events| {
                let mut sketch = CampaignSketch::default();
                for &(app, time) in events {
                    sketch.observe(app, time);
                }
                sketch
            })
            .collect::<Vec<CampaignSketch>>()
    });
    let registry = Registry::new();
    let (report, _) = t.time("campaign.detect.synthetic", || {
        let detector_inputs: Vec<(InstallId, &CampaignSketch)> = campaign_sketches
            .iter()
            .enumerate()
            .map(|(d, s)| (InstallId(1_000_000_000 + d as u64), s))
            .collect();
        detect(
            &detector_inputs,
            &DetectorConfig::default(),
            Some(&registry),
        )
    });
    let wall_s = t0.elapsed().as_secs_f64();

    t.time("bench.verify", || {
        detected.verify(&inputs.out, outcome);
        let folded: u64 = sketches.iter().map(|s| s.n_reviews() as u64).sum();
        outcome.ops(
            n_reviews,
            n_reviews - folded.min(n_reviews),
            "reviews folded",
        );
        outcome.check(
            groups.iter().map(|g| g.n_reviews() as u64).sum::<u64>() == folded,
            "merged groups hold every member's reviews",
        );
        let planted_pairs_found = (0..sizes.planted_campaigns).all(|c| {
            let first = (c * PLANTED_MEMBERS) as u64;
            (first..first + PLANTED_MEMBERS as u64).all(|a| {
                (a + 1..first + PLANTED_MEMBERS as u64).all(|b| scan.pairs.contains(&(a, b)))
            })
        });
        outcome.check(
            planted_pairs_found,
            "every planted near-duplicate review group is recovered",
        );
        let cluster: BTreeSet<InstallId> = (0..CLUSTER_MEMBERS as u64)
            .map(|d| InstallId(1_000_000_000 + d))
            .collect();
        outcome.check(
            report.campaigns.iter().any(|c| {
                let found: BTreeSet<InstallId> = c.devices.iter().copied().collect();
                cluster.is_subset(&found)
            }),
            "the planted lockstep cluster is recovered",
        );
    });

    let shingles: u64 = campaign_sketches
        .iter()
        .map(|s| s.n_shingles() as u64)
        .sum();
    layers.insert(
        "text.sketch.observe_ns_per_review",
        fold_s * 1e9 / n_reviews as f64,
    );
    layers.insert(
        "text.sketch.merge_ns",
        merge_s * 1e9 / sizes.installs as f64,
    );
    layers.insert(
        "campaign.sketch.shingles_per_s",
        shingles as f64 / observe_s.max(1e-9),
    );
    layers.insert(
        "campaign.lsh.busy_s",
        registry.snapshot().span_secs(keys::SPAN_CAMPAIGN_LSH),
    );
    let mut extras = Values::new();
    extras.insert("verdict_ms", detected.verdict_s * 1e3);
    extras.insert("reviews_per_s", n_reviews as f64 / (fold_s + merge_s));
    Rep {
        wall_s,
        units: n_reviews,
        extras,
        layers,
        inside_run_s: 0.0,
    }
}
