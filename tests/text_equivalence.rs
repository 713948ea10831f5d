//! Two slices of the scenario table (`tests/scenario/mod.rs`), which
//! checks every contract on each row; named for the review-text engine's
//! contracts (ARCHITECTURE.md §13): turning text on perturbs nothing else,
//! and the streaming text sketch equals its batch rebuild.

mod common;
mod scenario;

use racketstore::study::CollectionPath::AsyncWire;

/// The text-off twin of the ambient direct row against that row's pinned
/// fingerprints: the no-perturbation contract.
#[test]
fn ambient_text_on_study_reproduces_text_off_bytes() {
    scenario::check_text_off_twin();
}

/// An async hostile row: replays and reconnects on the reactor plane never
/// double-fold a review row, and the text fingerprint stays the pinned one.
#[test]
fn matrix_streaming_text_equals_batch_everywhere() {
    scenario::check(&[(AsyncWire, "hostile", Some("1"))]);
}
