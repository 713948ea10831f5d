//! Microbenchmarks for the lockstep-detection hot path: the per-event
//! sketch fold, MinHash signature folding/merging, LSH candidate
//! generation, and the full `detect` kernel over a synthetic fleet of
//! sketches — plus the review-text side: the per-review ingest fold split
//! into its kernels (`text_fold`) and the candidate source's scaling curve
//! (`text_index`: near-duplicate index insert + scan at corpus sizes the
//! `benchmark/` workloads do not reach).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use racket_agents::TextGen;
use racket_campaign::lsh::{candidate_pairs, LSH_BANDS, LSH_ROWS};
use racket_campaign::{detect, CampaignSketch, DetectorConfig, MinHash};
use racket_text::{sentiment_score, simhash64_of_text, NearDupIndex, TextSketch};
use racket_types::{AppId, InstallId, Rating, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic device event stream: `n` install events over a two-week
/// window, drawn from an app universe of 4k.
fn device_events(seed: u64, n: usize) -> (Vec<u32>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let apps: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4_000)).collect();
    let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0..14 * 86_400)).collect();
    (apps, times)
}

/// The sketch of one device's events: what ingest folds per install
/// event and `batch_report` rebuilds per record.
fn sketch_of(apps: &[u32], times: &[u64]) -> CampaignSketch {
    let mut sk = CampaignSketch::default();
    for (&a, &t) in apps.iter().zip(times) {
        sk.observe(AppId(a), SimTime::from_secs(t));
    }
    sk
}

fn bench_sketch(c: &mut Criterion) {
    let (apps, times) = device_events(1, 10_000);
    let mut g = c.benchmark_group("campaign_sketch");
    g.throughput(Throughput::Elements(apps.len() as u64));
    g.bench_function("observe_10k_events", |b| {
        b.iter(|| sketch_of(std::hint::black_box(&apps), std::hint::black_box(&times)))
    });
    g.finish();
}

fn bench_minhash(c: &mut Criterion) {
    let (apps, times) = device_events(2, 10_000);
    let shingles: Vec<u64> = sketch_of(&apps, &times).shingles().collect();
    let mut g = c.benchmark_group("campaign_minhash");
    g.throughput(Throughput::Elements(shingles.len() as u64));
    for k in [64usize, 128] {
        g.bench_with_input(BenchmarkId::new("fold", k), &k, |b, &k| {
            b.iter(|| {
                let mut mh = MinHash::empty(k);
                for &s in std::hint::black_box(&shingles) {
                    mh.observe(s);
                }
                mh
            })
        });
    }
    let a = {
        let mut mh = MinHash::empty(128);
        shingles.iter().for_each(|&s| mh.observe(s));
        mh
    };
    g.bench_function("merge_128", |b| {
        b.iter(|| {
            let mut m = a.clone();
            m.merge(std::hint::black_box(&a));
            m
        })
    });
    g.finish();
}

/// A fleet of sketches: `n` devices with ~120 organic events each, plus a
/// planted 10-device lockstep cluster hitting 4 shared apps in one bucket.
fn fleet_sketches(n: usize) -> Vec<(InstallId, CampaignSketch)> {
    (0..n)
        .map(|i| {
            let (apps, times) = device_events(100 + i as u64, 120);
            let mut sk = sketch_of(&apps, &times);
            if i < 10 {
                for a in 0..4u32 {
                    sk.observe(
                        AppId(9_000 + a),
                        SimTime::from_secs(3 * 86_400 + 60 * i as u64),
                    );
                }
            }
            (InstallId(1_000_000_000 + i as u64), sk)
        })
        .collect()
}

fn bench_lsh_and_detect(c: &mut Criterion) {
    let sketches = fleet_sketches(800);
    let refs: Vec<(InstallId, &CampaignSketch)> = sketches.iter().map(|(id, s)| (*id, s)).collect();
    let sigs: Vec<&[u64]> = sketches.iter().map(|(_, s)| s.signature()).collect();
    let mut g = c.benchmark_group("campaign_lsh");
    g.throughput(Throughput::Elements(sigs.len() as u64));
    g.bench_function("candidate_pairs_800", |b| {
        b.iter(|| candidate_pairs(std::hint::black_box(&sigs), LSH_BANDS, LSH_ROWS))
    });
    g.bench_function("detect_800", |b| {
        b.iter(|| {
            detect(
                std::hint::black_box(&refs),
                &DetectorConfig::default(),
                None,
            )
        })
    });
    g.finish();
}

/// One review of the `detect_corpus` corpus, as `TextSketch::observe`
/// takes it.
struct CorpusReview {
    app: u32,
    reviewer: u64,
    time: u64,
    stars: u8,
    text: String,
}

/// The reviews of install `i` of the `detect_corpus` review corpus. The
/// recipe is `benchmark/src/detect_corpus.rs::setup`'s, copied (that
/// package is a workspace of its own) at its default seed: 100 reviews per
/// install; the first 20 × 5 installs are hired, five per planted
/// campaign, and paste 20 organizer templates each; every fourth install
/// is a worker device reposting one text per app from each of its
/// accounts; everything else is personal.
fn corpus_install(textgen: &TextGen, i: u64) -> Vec<CorpusReview> {
    const REVIEWS_PER_INSTALL: u64 = 100;
    const PLANTED_MEMBERS: u64 = 5;
    const HIRED: u64 = 20 * PLANTED_MEMBERS;
    const CAMPAIGN_REVIEWS: u64 = 20;
    (0..REVIEWS_PER_INSTALL)
        .map(|r| {
            let reviewer = i * 1_000 + r;
            let stars = (1 + (i + r) % 5) as u8;
            let rating = Rating::new(stars).expect("1..=5 stars");
            let (app, text) = if i < HIRED && r < CAMPAIGN_REVIEWS {
                let campaign = i / PLANTED_MEMBERS;
                let app = 1_000_000 + campaign * 100 + r;
                let slot = (i % PLANTED_MEMBERS) as u32;
                (
                    app,
                    textgen.campaign(campaign as u32, app, slot, Rating::FIVE),
                )
            } else if i % 4 == 3 {
                let app = (i * 7 + r / 4) % 997;
                (app, textgen.worker_promo(i, app, reviewer, rating))
            } else {
                let app = (i * REVIEWS_PER_INSTALL + r) % 997;
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
}

/// One install's reviews folded as ingest folds them.
fn text_sketch_of(reviews: &[CorpusReview]) -> TextSketch {
    let mut sketch = TextSketch::default();
    for r in reviews {
        sketch.observe(r.app, r.reviewer, r.time, r.stars, &r.text);
    }
    sketch
}

/// `(owner, simhash)` rows of the first `installs` installs of the corpus,
/// owner = install index.
fn corpus_rows(installs: u64) -> Vec<(u64, u64)> {
    let textgen = TextGen::new(7);
    let mut rows = Vec::new();
    for i in 0..installs {
        let sketch = text_sketch_of(&corpus_install(&textgen, i));
        rows.extend(sketch.rows().map(|row| (i, row.simhash)));
    }
    rows
}

/// The per-review ingest fold over 400 installs of the corpus (the hired
/// block and 300 worker/personal installs), single-threaded, and its two
/// text kernels alone — the split `benchmark/`'s
/// `text.sketch.observe_ns_per_review` cannot show. What `observe` costs
/// over the sum of the two kernels is the row set's insert plus whatever
/// the fold does beyond one scan.
fn bench_text_fold(c: &mut Criterion) {
    let textgen = TextGen::new(7);
    let corpus: Vec<Vec<CorpusReview>> = (0..400).map(|i| corpus_install(&textgen, i)).collect();
    let texts = || corpus.iter().flatten().map(|r| r.text.as_str());
    let mut g = c.benchmark_group("text_fold");
    g.throughput(Throughput::Elements(texts().count() as u64));
    g.bench_function("observe", |b| {
        b.iter(|| {
            std::hint::black_box(&corpus)
                .iter()
                .map(|reviews| text_sketch_of(reviews).n_reviews())
                .sum::<usize>()
        })
    });
    g.bench_function("sentiment_score", |b| {
        b.iter(|| {
            texts()
                .map(|t| sentiment_score(std::hint::black_box(t)))
                .sum::<i32>()
        })
    });
    g.bench_function("simhash64_of_text", |b| {
        b.iter(|| {
            texts().fold(0u64, |acc, t| {
                acc ^ simhash64_of_text(std::hint::black_box(t), 2)
            })
        })
    });
    g.finish();
}

/// One `Vm*` line of `/proc/self/status`, in MB (0 where there is no procfs).
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find(|l| l.starts_with(field));
    let kb = line.and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Insert + scan at 40 k / 100 k / 200 k rows. Before each size's timed
/// passes one untimed pass prints what the scan found and how far it
/// pushed peak RSS over the resident size before any index existed —
/// the two columns a time alone cannot show (EXPERIMENTS.md, "Pipeline
/// performance").
fn bench_text_index(c: &mut Criterion) {
    let max_hamming = DetectorConfig::default().text_max_hamming;
    let insert_and_scan = |rows: &[(u64, u64)]| {
        let mut index = NearDupIndex::new();
        for &(owner, simhash) in rows {
            index.insert(owner, simhash);
        }
        index.scan(max_hamming)
    };
    let all = corpus_rows(2_000);
    let resident_mb = proc_status_mb("VmRSS:");
    let mut g = c.benchmark_group("text_index");
    for installs in [400u64, 1_000, 2_000] {
        let rows = &all[..all.partition_point(|&(owner, _)| owner < installs)];
        // "5" resets this process's peak-RSS mark (Linux ≥ 4.0); where the
        // write fails the mark is the largest size so far, which ascending
        // sizes keep meaningful.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let scan = insert_and_scan(rows);
        println!(
            "text_index/{} rows: n_candidates={} n_verified={} pairs={} peak_rss_growth_mb={:.0}",
            rows.len(),
            scan.n_candidates,
            scan.n_verified,
            scan.pairs.len(),
            proc_status_mb("VmHWM:") - resident_mb,
        );
        drop(scan);
        g.throughput(Throughput::Elements(rows.len() as u64));
        g.bench_with_input(
            BenchmarkId::new("insert_scan", rows.len()),
            rows,
            |b, rows| b.iter(|| insert_and_scan(std::hint::black_box(rows))),
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sketch,
    bench_minhash,
    bench_lsh_and_detect,
    bench_text_fold,
    bench_text_index
);
criterion_main!(benches);
