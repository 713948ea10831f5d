//! Microbenchmarks for the lockstep-detection hot path: the per-event
//! sketch fold, MinHash signature folding/merging, LSH candidate
//! generation, and the full `detect` kernel over a synthetic fleet of
//! sketches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use racket_campaign::lsh::{candidate_pairs, LSH_BANDS, LSH_ROWS};
use racket_campaign::{detect, CampaignSketch, DetectorConfig, MinHash};
use racket_types::{AppId, InstallId, SimTime};
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

criterion_group!(benches, bench_sketch, bench_minhash, bench_lsh_and_detect);
criterion_main!(benches);
