//! Review-text similarity kernels for the RacketStore reproduction.
//!
//! Martens & Maalej ("Towards Understanding and Detecting Fake Reviews in
//! App Stores") show that the strongest fake-review signals live in the
//! review *text*: template reuse across accounts, rating–text divergence,
//! and cross-account near-duplicates. This crate supplies the content
//! kernels those signals are computed from, with zero dependencies so the
//! hot ingest path stays self-contained:
//!
//! * [`token_hashes`] — ASCII word tokenization with case-folded hashing;
//! * [`shingle_hashes`] — `k`-word shingle hashes over a token stream;
//! * [`simhash64`] / [`hamming`] — 64-bit SimHash over shingle sets;
//! * [`sentiment_score`] — a compile-time hashed positive/negative lexicon;
//! * [`TextSketch`] — the per-install streaming fold: the set of
//!   canonical [`ReviewRow`]s, each reduced from its review in one scan
//!   of the text. Observation is idempotent and merge is
//!   commutative/associative with the default sketch as identity, which
//!   is what makes the incremental ingest-time fold byte-identical to a
//!   batch rebuild from the columnar store;
//! * [`NearDupIndex`] — a streaming-capable banded index over review
//!   SimHashes with Hamming verification; its state is the inserted *set*
//!   itself, so batch and incremental population agree exactly, and its
//!   scan verifies each candidate as a per-band sorted sweep generates it,
//!   in memory proportional to the rows and the verified pairs.
//!
//! Everything here is deterministic: no `RandomState`, no floats in any
//! state, B-tree ordering throughout.

#![deny(missing_docs)]

mod index;
mod sentiment;
mod shingle;
mod simhash;
mod sketch;
mod token;

pub use index::{NearDupIndex, NearDupScan};
pub use sentiment::sentiment_score;
pub use shingle::{mix64, shingle_hashes};
pub use simhash::{hamming, simhash64, simhash64_of_text};
pub use sketch::{ReviewRow, TextSketch};
pub use token::{token_count, token_hashes};
