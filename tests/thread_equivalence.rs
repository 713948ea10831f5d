//! The direct rows of the scenario table (`tests/scenario/mod.rs`), which
//! checks every contract on each row; named for the N threads ≡ 1 thread
//! contract its rows pin on the direct path.

mod common;
mod scenario;

use racketstore::study::CollectionPath::Direct;

/// Whatever thread pool the environment gives us (no pinning).
#[test]
fn ambient_direct_study_meets_every_contract() {
    scenario::check(&[(Direct, "clean", None)]);
}

/// The direct path at every pinned worker count: N threads ≡ 1 thread on
/// the full and feature fingerprints, and every row-local contract at
/// each count.
#[test]
fn direct_study_is_equal_at_every_thread_count() {
    scenario::check(&[
        (Direct, "clean", Some("1")),
        (Direct, "clean", Some("2")),
        (Direct, "clean", Some("3")),
        (Direct, "clean", Some("8")),
    ]);
}
