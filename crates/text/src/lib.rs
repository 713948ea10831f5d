//! Review-text similarity kernels for the RacketStore reproduction.
//!
//! Martens & Maalej ("Towards Understanding and Detecting Fake Reviews in
//! App Stores") show that the strongest fake-review signals live in the
//! review *text*: template reuse across accounts, rating–text divergence,
//! and cross-account near-duplicates. This crate supplies the content
//! kernels those signals are computed from, with zero dependencies so the
//! hot ingest path stays self-contained:
//!
//! * [`token`] — ASCII word tokenization with case-folded token hashing;
//! * [`shingle`] — `k`-word shingle hashes over a token stream;
//! * [`simhash`] — 64-bit SimHash over shingle sets + Hamming distance;
//! * [`minhash`] — K-permutation MinHash over shingle sets, on its own
//!   salted SplitMix64 hash family (distinct from the campaign crate's);
//! * [`sentiment`] — a compile-time hashed positive/negative lexicon;
//! * [`sketch`] — [`TextSketch`], the per-install streaming fold: one
//!   canonical [`ReviewRow`] per review plus an install-level MinHash.
//!   Observation is idempotent and merge is commutative/associative with
//!   the default sketch as identity, mirroring the campaign sketch
//!   algebra — which is what makes the incremental ingest-time fold
//!   byte-identical to a batch rebuild from the columnar store;
//! * [`index`] — [`NearDupIndex`], a streaming-capable banded-bucket
//!   index over review SimHashes with Hamming verification; its state is
//!   a pure function of the inserted *set*, so batch and incremental
//!   population agree exactly.
//!
//! Everything here is deterministic: no `RandomState`, no floats in any
//! state, B-tree ordering throughout.

#![deny(missing_docs)]

pub mod index;
pub mod minhash;
pub mod sentiment;
pub mod shingle;
pub mod simhash;
pub mod sketch;
pub mod token;

pub use index::{NearDupIndex, NearDupScan};
pub use minhash::{MinHash, TextHasher, TEXT_MINHASH_SALT};
pub use sentiment::sentiment_score;
pub use shingle::{mix64, shingle_hashes, SHINGLE_SALT};
pub use simhash::{hamming, simhash64, simhash64_of_text};
pub use sketch::{ReviewRow, TextParams, TextSketch};
pub use token::{token_count, token_hashes, TOKEN_HASH_SEED};
