//! The clean wire rows of the scenario table (`tests/scenario/mod.rs`),
//! which checks every contract on each row. The wire path (buffer → LZSS →
//! frames → transport → decode → ack) must deliver exactly the data that
//! direct in-process ingestion does (the pinned direct fingerprints), at
//! every worker count.

mod common;
mod scenario;

use racketstore::study::CollectionPath::Wire;

#[test]
fn wire_and_direct_paths_yield_identical_aggregates() {
    scenario::check(&[
        (Wire, "clean", Some("1")),
        (Wire, "clean", Some("3")),
        (Wire, "clean", Some("8")),
    ]);
}
