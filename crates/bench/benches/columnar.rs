//! Microbenchmarks for the columnar analyze engine: the presorted GBT
//! split search against the row-oriented reference, flat-matrix batch
//! scoring against per-row scoring, and the KNN distance kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use racket_columnar::{sq_dist, FlatMatrix};
use racket_ml::{Classifier, GradientBoosting, GradientBoostingParams};

/// A deterministic synthetic binary dataset with mild feature/label
/// correlation and plenty of tied values (the split search's worst case
/// for tie handling, the presort's best case for reuse).
fn dataset(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<u8>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..n {
        let mut row = Vec::with_capacity(d);
        for f in 0..d {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Quantized values: ~16 distinct levels per feature.
            let v = ((s >> 33) % 16) as f64 + (f as f64) * 0.01;
            row.push(v);
        }
        let label = u8::from(row[0] + row[1 % d] > 15.0);
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        y.push(if (s >> 40).is_multiple_of(10) {
            1 - label
        } else {
            label
        });
        x.push(row);
        let _ = i;
    }
    (x, y)
}

/// A matrix shaped like the one `benchmark/`'s `e2e_direct` cross-validates
/// (the study's app-usage dataset at half-mid scale, seed 7): 1,520 rows,
/// 21 columns holding exactly these numbers of distinct values — from one
/// constant and several binary columns to near-unique ones — and about
/// three positives in four. Sixteen levels in every column, as
/// [`dataset`] draws, flatters the scan (few candidates) and understates
/// what a split moves.
fn app_matrix_like() -> (Vec<Vec<f64>>, Vec<u8>) {
    const DISTINCT: [u64; 21] = [
        14, 6, 1, 893, 892, 632, 631, 632, 2, 158, 35, 754, 2, 2, 4, 10, 10, 5, 17, 3, 3,
    ];
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let mut x = Vec::with_capacity(1520);
    let mut y = Vec::with_capacity(1520);
    for i in 0..1520u64 {
        // The first k rows of a k-valued column walk all k values (101
        // is coprime to every k), so each occurs; the rest are drawn.
        let row: Vec<f64> = DISTINCT
            .iter()
            .zip(0u64..)
            .map(|(&k, f)| if i < k { (i * 101 + f * 37) % k } else { next() % k } as f64)
            .collect();
        let score = row[3] / 893.0 + row[9] / 158.0 + row[10] / 35.0;
        let label = u8::from(score > 1.1);
        y.push(if next() % 200 == 0 { 1 - label } else { label });
        x.push(row);
    }
    (x, y)
}

fn bench_gbt_fit(c: &mut Criterion) {
    let mut g = c.benchmark_group("columnar/gbt_fit");
    g.sample_size(10);
    let datasets = [
        ("500", dataset(500, 14)),
        ("2000", dataset(2000, 14)),
        ("app_1520x21", app_matrix_like()),
    ];
    for (n, (x, y)) in &datasets {
        g.bench_with_input(BenchmarkId::new("presorted", n), n, |b, _| {
            b.iter(|| {
                let mut m = GradientBoosting::new(GradientBoostingParams::default());
                m.fit(std::hint::black_box(x), std::hint::black_box(y));
                m
            })
        });
        g.bench_with_input(BenchmarkId::new("row_reference", n), n, |b, _| {
            b.iter(|| {
                let mut m = GradientBoosting::new(GradientBoostingParams::default());
                m.fit_reference(std::hint::black_box(x), std::hint::black_box(y));
                m
            })
        });
    }
    g.finish();
}

fn bench_batch_scoring(c: &mut Criterion) {
    let (x, y) = dataset(2000, 14);
    let mut m = GradientBoosting::new(GradientBoostingParams::default());
    m.fit(&x, &y);
    let flat = FlatMatrix::from_rows(&x);
    let mut g = c.benchmark_group("columnar/score");
    g.bench_function("batch_2000", |b| {
        b.iter(|| m.predict_proba_batch(std::hint::black_box(&flat)))
    });
    g.bench_function("per_row_2000", |b| {
        b.iter(|| {
            x.iter()
                .map(|r| m.predict_proba(std::hint::black_box(r)))
                .collect::<Vec<f64>>()
        })
    });
    g.finish();
}

fn bench_knn_kernel(c: &mut Criterion) {
    let (x, _) = dataset(512, 14);
    let flat = FlatMatrix::from_rows(&x);
    let probe = x[0].clone();
    let mut g = c.benchmark_group("columnar/knn");
    g.bench_function("sq_dist_flat_512", |b| {
        b.iter(|| {
            flat.rows()
                .map(|r| sq_dist(std::hint::black_box(&probe), r))
                .sum::<f64>()
        })
    });
    g.bench_function("sq_dist_nested_512", |b| {
        b.iter(|| {
            x.iter()
                .map(|r| sq_dist(std::hint::black_box(&probe), r))
                .sum::<f64>()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gbt_fit,
    bench_batch_scoring,
    bench_knn_kernel
);
criterion_main!(benches);
