//! A slice of the scenario table (`tests/scenario/mod.rs`), which checks
//! every contract on each row; named for the columnar store's contract
//! (ARCHITECTURE.md §9): the store mirrors the row records' install
//! events and reviews, and its contents (the pinned columnar fingerprint)
//! do not depend on the collection path or the worker count. The training
//! and scoring half of that contract is in `tests/matrix.rs`.

mod common;
mod scenario;

use racketstore::study::CollectionPath::AsyncWire;

#[test]
fn matrix_columnar_store_is_path_and_thread_invariant() {
    scenario::check(&[(AsyncWire, "hostile", Some("8"))]);
}
