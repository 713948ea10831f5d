//! The direct rows of the scenario table (`tests/scenario/mod.rs`), which
//! checks every contract on each row; named for the streaming ≡ batch
//! feature-bits contract (ARCHITECTURE.md §7).

mod common;
mod scenario;

use racketstore::study::CollectionPath::Direct;

/// Whatever thread pool the environment gives us (no pinning).
#[test]
fn ambient_streaming_state_equals_batch_features() {
    scenario::check(&[(Direct, "clean", None)]);
}

/// The direct path at every worker count: N threads ≡ 1 thread on the
/// full fingerprint, and every row-local contract at each count.
#[test]
fn matrix_streaming_state_equals_batch_features() {
    scenario::check(&[
        (Direct, "clean", None),
        (Direct, "clean", Some("1")),
        (Direct, "clean", Some("2")),
        (Direct, "clean", Some("3")),
        (Direct, "clean", Some("8")),
    ]);
}
