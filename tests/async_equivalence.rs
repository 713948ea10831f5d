//! The clean async rows of the scenario table (`tests/scenario/mod.rs`),
//! which checks every contract on each row. The reactor-driven collection
//! plane (ARCHITECTURE.md §8) is a different front end, not a different
//! protocol: at every worker count it reproduces the sync wire study's
//! pinned data and feature fingerprints and uploads as many files.

mod common;
mod scenario;

use racketstore::study::CollectionPath::AsyncWire;

#[test]
fn async_driver_reproduces_the_sync_wire_study() {
    scenario::check(&[
        (AsyncWire, "clean", Some("1")),
        (AsyncWire, "clean", Some("2")),
        (AsyncWire, "clean", Some("3")),
        (AsyncWire, "clean", Some("8")),
    ]);
}
