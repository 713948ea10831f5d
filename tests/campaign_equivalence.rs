//! Two slices of the scenario table (`tests/scenario/mod.rs`), which
//! checks every contract on each row; named for the lockstep detector's
//! contract (ARCHITECTURE.md §10): the batch report rebuilt from the
//! columnar install-event family equals the incremental one folded at
//! ingest, and is not vacuous.

mod common;
mod scenario;

use racketstore::study::CollectionPath::{AsyncWire, Direct};

/// Whatever thread pool the environment gives us (no pinning).
#[test]
fn ambient_batch_report_equals_incremental() {
    scenario::check(&[(Direct, "clean", None)]);
}

/// An async hostile row: replays never double-fold a sketch, and the
/// campaign fingerprint stays the pinned one.
#[test]
fn matrix_batch_report_equals_incremental_everywhere() {
    scenario::check(&[(AsyncWire, "hostile", Some("3"))]);
}
