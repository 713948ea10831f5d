//! Two slices of the scenario table (`tests/scenario/mod.rs`), which
//! checks every contract on each row; named for the review-text engine's
//! contracts (ARCHITECTURE.md §13): turning text on perturbs nothing else,
//! and the streaming text sketch equals its batch rebuild.

mod common;
mod scenario;

use racketstore::study::CollectionPath::{AsyncWire, Direct, Wire};

/// The ambient direct row and its text-off twin: the no-perturbation
/// contract.
#[test]
fn ambient_text_on_study_reproduces_text_off_bytes() {
    scenario::check(&[(Direct, "clean", None)]).check_text_off_twin();
}

/// An async hostile row against the clean sync wire baseline: replays and
/// reconnects on the reactor plane never double-fold a review row.
#[test]
fn matrix_streaming_text_equals_batch_everywhere() {
    scenario::check(&[
        (Wire, "clean", Some("1")),
        (AsyncWire, "hostile", Some("1")),
    ]);
}
