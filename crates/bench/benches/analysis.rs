//! Microbenchmarks for the analysis side: the statistical tests, the ML
//! learners and per-observation feature extraction. The delivery kernels
//! (checksums, LZSS, framing) are measured against their baselines in
//! `delivery.rs` and on real bytes by `benchmark/`'s per-layer metrics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use racket_features::{app_features, device_features};
use racket_ml::{
    Classifier, DecisionTree, DecisionTreeParams, GradientBoosting, GradientBoostingParams,
    KNearestNeighbors, RandomForest, RandomForestParams,
};

fn bench_stats(c: &mut Criterion) {
    let a: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
    let b2: Vec<f64> = (0..1000)
        .map(|i| (i as f64 * 0.3).cos() * 12.0 + 1.0)
        .collect();
    let mut g = c.benchmark_group("stats");
    g.bench_function("ks_2samp_1k", |bch| {
        bch.iter(|| racket_stats::ks_2samp(std::hint::black_box(&a), std::hint::black_box(&b2)))
    });
    g.bench_function("kruskal_wallis_1k", |bch| {
        bch.iter(|| racket_stats::kruskal_wallis(&[std::hint::black_box(&a), &b2]))
    });
    g.bench_function("shapiro_wilk_1k", |bch| {
        bch.iter(|| racket_stats::shapiro_wilk(std::hint::black_box(&a)))
    });
    g.finish();
}

fn ml_data(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<u8>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = u8::from(i % 2 == 1);
        let row: Vec<f64> = (0..d)
            .map(|j| ((i * 31 + j * 7) % 97) as f64 / 10.0 + f64::from(label) * (j % 3) as f64)
            .collect();
        x.push(row);
        y.push(label);
    }
    (x, y)
}

fn bench_ml(c: &mut Criterion) {
    let (x, y) = ml_data(1000, 20);
    let mut g = c.benchmark_group("ml_fit");
    g.sample_size(10);
    g.bench_function("tree_1000x20", |b| {
        b.iter(|| {
            let mut t = DecisionTree::new(DecisionTreeParams::default());
            t.fit(std::hint::black_box(&x), &y);
            t
        })
    });
    g.bench_function("forest25_1000x20", |b| {
        b.iter(|| {
            let mut f = RandomForest::new(RandomForestParams {
                n_trees: 25,
                ..RandomForestParams::default()
            });
            f.fit(std::hint::black_box(&x), &y);
            f
        })
    });
    g.bench_function("gbt50_1000x20", |b| {
        b.iter(|| {
            let mut m = GradientBoosting::new(GradientBoostingParams {
                n_rounds: 50,
                ..GradientBoostingParams::default()
            });
            m.fit(std::hint::black_box(&x), &y);
            m
        })
    });
    g.finish();

    let mut knn = KNearestNeighbors::paper_default();
    knn.fit(&x, &y);
    let mut g = c.benchmark_group("ml_predict");
    g.bench_for_each_input(&knn, &x);
    g.finish();
}

/// Extension helper: benchmark one KNN query against the fitted model.
trait BenchExt {
    fn bench_for_each_input(&mut self, knn: &KNearestNeighbors, x: &[Vec<f64>]);
}

impl BenchExt for criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    fn bench_for_each_input(&mut self, knn: &KNearestNeighbors, x: &[Vec<f64>]) {
        self.bench_with_input(BenchmarkId::new("knn_query", x.len()), &x[0], |b, row| {
            b.iter(|| knn.predict_proba(std::hint::black_box(row)))
        });
    }
}

fn bench_features(c: &mut Criterion) {
    // Build one observation through a tiny study.
    let out = racketstore::study::Study::new(racketstore::study::StudyConfig::test_scale()).run();
    let obs = out
        .observations
        .iter()
        .max_by_key(|o| o.record.apps.len())
        .expect("study has observations");
    let app = *obs.record.apps.keys().next().expect("device has apps");
    let mut g = c.benchmark_group("features");
    g.bench_function("app_features", |b| {
        b.iter(|| app_features(std::hint::black_box(obs), app))
    });
    g.bench_function("device_features", |b| {
        b.iter(|| device_features(std::hint::black_box(obs), 0.5))
    });
    g.finish();
}

criterion_group!(benches, bench_stats, bench_ml, bench_features);
criterion_main!(benches);
