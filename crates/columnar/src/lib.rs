//! Columnar (struct-of-arrays) storage and kernels for the analyze side
//! of the RacketStore pipeline.
//!
//! The analyze stage group dominates non-wire runs (on `benchmark/`'s
//! `e2e_direct`, CV + training are the largest measured cost): feature
//! builds and learner inner loops used to walk row-oriented state
//! (`Vec<Vec<f64>>` feature matrices, `HashMap`-of-`BTreeMap` install
//! records), paying a pointer chase per comparison. This crate is the
//! storage layer that removes those chases — ARCHITECTURE.md §9 documents
//! the memory layout, the dictionary-encoding scheme and the split
//! search's buffer ranges; this crate-level doc is the API-side summary.
//!
//! # Column families
//!
//! * [`ColumnMatrix`] — a column-major `f64` feature matrix. One
//!   contiguous buffer, columns back to back; `col(f)[i]` is the bitwise
//!   value of row-major `rows[i][f]`. This is the layout the
//!   gradient-boosting split search scans (one column at a time).
//! * [`FlatMatrix`] — a row-major flat `f64` matrix (one contiguous
//!   buffer, rows back to back). This is the layout for per-row kernels —
//!   batch model scoring and KNN distance loops — where a whole row is
//!   consumed at once and must be contiguous.
//! * [`Dict`] — a dictionary encoder mapping sparse external identifiers
//!   (app / account-service / install IDs) to dense `u32` codes, so
//!   columnar stores index arrays instead of hashing IDs.
//!
//! # The row→column equivalence contract
//!
//! Transposing storage must never change analysis output. Every value in
//! a [`ColumnMatrix`] or [`FlatMatrix`] is a bit-for-bit copy of its
//! row-major source — construction performs no arithmetic — and every
//! kernel in this crate folds floats in the **batch-canonical order**:
//! the exact operation sequence of the row-oriented code it replaces.
//! Concretely:
//!
//! * the **batch-canonical order** itself is defined over rows and
//!   features: node row sets are ascending by row index; each feature's
//!   scan order is the stable sort by `(feature value, row index)`; and
//!   gradient/hessian sums fold in ascending row order. Any population
//!   path (batch transpose, streaming adoption, presort-plus-partition)
//!   that reproduces these orders reproduces the floats bit for bit;
//! * [`kernel::sort_pairs`] is a *stable* sort keyed by the same
//!   `partial_cmp` comparator as the row-oriented split search: applied
//!   to pairs whose row indices are ascending it yields exactly the
//!   `(value, row)` order above, and a stable partition of the result
//!   preserves that order for each child node — which is why the GBT fit
//!   sorts each feature once and never re-sorts per node;
//! * [`kernel::sq_dist`] folds squared differences left to right over the
//!   row slice, the same `Iterator::sum` expression the row-oriented KNN
//!   used.
//!
//! Consumers that promise bit-identical results (`racket-ml`'s gradient
//! boosting, the detection service's scoring paths) are held to this
//! contract by the `tests/columnar_equivalence.rs` differential harness.

#![deny(missing_docs)]

pub mod column;
pub mod dict;
pub mod kernel;
pub mod shingle;

pub use column::{ColumnMatrix, FlatMatrix};
pub use dict::Dict;
pub use kernel::{sort_pairs, sq_dist, SortPair};
pub use shingle::{pack_shingle, unpack_shingle};
