//! Sync/async driver equivalence: the reactor-driven collection plane is
//! a different front end, not a different protocol.
//!
//! Contract under test (ARCHITECTURE.md §8): a study driven through
//! `CollectionPath::AsyncWire` — every device lane holding a live
//! connection into the `AsyncCollectServer`, thread-per-core workers
//! multiplexing the fleet, bounded queues shedding under pressure — must
//! produce a data fingerprint and a streaming-state fingerprint
//! byte-identical to the synchronous loopback driver's, at every rayon
//! thread count, on a clean link and under the combined hostile fault
//! profile. Everything the async plane adds (sheds, stall sweeps, queue
//! depths, premature-retry duplicates) is observability, and none of it
//! appears in either fingerprint.
//!
//! The scenarios pin `RAYON_NUM_THREADS` (process-global), so the whole
//! matrix lives in one `#[test]`.

mod common;

use common::{data_fingerprint, small_config, streaming_fingerprint, with_threads};
use racket_collect::FaultPlan;
use racketstore::study::{CollectionPath, Study};

#[test]
fn async_driver_reproduces_the_sync_wire_study() {
    // The sync baseline is itself thread-invariant (tests/determinism.rs),
    // so one run anchors the whole matrix.
    let baseline = with_threads("1", || Study::new(small_config(CollectionPath::Wire)).run());
    let base_data = data_fingerprint(&baseline);
    let base_stream = streaming_fingerprint(&baseline);

    // 3 does not divide the 20-lane fleet: its workers claim lanes in an
    // interleaving no other pinned count produces.
    for threads in ["1", "2", "3", "8"] {
        for (name, plan) in [
            ("clean", FaultPlan::none()),
            ("hostile", FaultPlan::hostile()),
        ] {
            let out = with_threads(threads, || {
                let mut config = small_config(CollectionPath::AsyncWire);
                config.faults = plan;
                Study::new(config).run()
            });
            assert_eq!(
                data_fingerprint(&out),
                base_data,
                "async/{name} @ {threads} threads: data diverged from the sync driver"
            );
            assert_eq!(
                streaming_fingerprint(&out),
                base_stream,
                "async/{name} @ {threads} threads: streaming state diverged"
            );
            // The async plane really ran: its sharded store reported
            // occupancy, and the hostile plan really injected faults.
            assert!(
                !out.metrics.shard_occupancy.is_empty(),
                "async/{name} @ {threads}: async plane ingests through shards"
            );
            match name {
                "clean" => assert_eq!(out.metrics.faults.total(), 0),
                _ => {
                    assert!(out.metrics.faults.total() > 0, "hostile plan was inert");
                    assert_eq!(
                        out.metrics.exchanges_exhausted, 0,
                        "async/hostile @ {threads}: retry budget exhausted"
                    );
                }
            }
        }
    }
}
