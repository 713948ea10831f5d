//! Thread-count invariance of the parallel pipeline.
//!
//! The simulate→collect→analyze pipeline fans out across rayon worker
//! threads, but every parallel region is constructed to be deterministic:
//! per-device RNG streams, disjoint ID ranges, ordered merges, and sorted
//! record drains. This test pins the contract: the same configuration and
//! seed must produce a byte-identical study output whether the pipeline
//! runs on 1, 2, 3 or 8 worker threads (3 does not divide the 20-lane
//! fleet, so its workers claim lanes in yet another interleaving).
//!
//! All runs happen inside one `#[test]` because the worker-thread count is
//! pinned through the `RAYON_NUM_THREADS` environment variable, which is
//! process-global — concurrent tests flipping it would race.

mod common;

use common::{fingerprint, small_config, with_threads};
use racket_agents::{Fleet, FleetConfig};
use racketstore::study::{CollectionPath, Study};
use std::fmt::Write;

/// Canonical fingerprint of a generated fleet: per-device state in fleet
/// order plus the review store rendered app-by-app in ID order.
fn fleet_fingerprint(fleet: &Fleet) -> String {
    let mut s = String::new();
    for d in &fleet.devices {
        let mut apps: Vec<_> = d.device.installed_apps().collect();
        apps.sort_by_key(|a| a.app);
        writeln!(
            s,
            "{:?}|{:?}|{:?}|{:?}|{:?}|{apps:?}|{:?}",
            d.participant,
            d.install_id,
            d.monitoring,
            d.persona(),
            d.device.android_id(),
            d.device.accounts()
        )
        .unwrap();
    }
    for raw in 0..=(fleet.catalog.len() as u32 + 1) {
        let app = racket_types::AppId(raw);
        let n = fleet.store.review_count(app);
        if n == 0 {
            continue;
        }
        writeln!(s, "app {raw}: {:?}", fleet.store.newest_page(app, 0, n)).unwrap();
    }
    s
}

#[test]
fn output_is_invariant_to_worker_thread_count() {
    // Fleet generation: serial (1 thread) vs parallel (8 threads).
    let fleet_serial = with_threads("1", || {
        fleet_fingerprint(&Fleet::generate(FleetConfig::test_scale()))
    });
    let fleet_parallel = with_threads("8", || {
        fleet_fingerprint(&Fleet::generate(FleetConfig::test_scale()))
    });
    assert_eq!(
        fleet_serial, fleet_parallel,
        "Fleet::generate depends on thread count"
    );

    // Full study, direct (sharded-ingest) path: 1 vs 2 vs 3 vs 8 threads.
    let run = |threads: &str, path| {
        with_threads(threads, || {
            fingerprint(&Study::new(small_config(path)).run())
        })
    };
    let d1 = run("1", CollectionPath::Direct);
    let d2 = run("2", CollectionPath::Direct);
    let d3 = run("3", CollectionPath::Direct);
    let d8 = run("8", CollectionPath::Direct);
    assert_eq!(d1, d2, "direct path differs between 1 and 2 threads");
    assert_eq!(d1, d3, "direct path differs between 1 and 3 threads");
    assert_eq!(d1, d8, "direct path differs between 1 and 8 threads");

    // Full study, wire (framed upload) path: 1 vs 3 vs 8 threads.
    let w1 = run("1", CollectionPath::Wire);
    let w3 = run("3", CollectionPath::Wire);
    let w8 = run("8", CollectionPath::Wire);
    assert_eq!(w1, w3, "wire path differs between 1 and 3 threads");
    assert_eq!(w1, w8, "wire path differs between 1 and 8 threads");
}
