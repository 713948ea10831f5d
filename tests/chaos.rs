//! The sync wire fault rows of the scenario table
//! (`tests/scenario/mod.rs`), which checks every contract on each row. A
//! hostile network can change how many times things are sent, never what
//! is ingested (ARCHITECTURE.md "Chaos and idempotency", PROTOCOL.md
//! §§5–7): each fault class alone, then the combined hostile plan at 1 and
//! 8 threads, reproduces the clean run's data, features and text state,
//! with evidence that the faults happened and were survived. The async
//! hostile rows are the last rows of the text, campaign and columnar
//! slices.

mod common;
mod scenario;

use racketstore::study::CollectionPath::Wire;

#[test]
fn study_output_survives_every_fault_class() {
    scenario::check(&[
        (Wire, "clean", Some("1")),
        (Wire, "drop", Some("1")),
        (Wire, "duplicate", Some("1")),
        (Wire, "reorder", Some("1")),
        (Wire, "truncate", Some("1")),
        (Wire, "corrupt", Some("1")),
        (Wire, "disconnect", Some("1")),
        (Wire, "stall", Some("1")),
        (Wire, "hostile", Some("1")),
        (Wire, "hostile", Some("8")),
    ]);
}
