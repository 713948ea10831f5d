//! `racket-obs` — the observability subsystem of the RacketStore pipeline.
//!
//! Large-scale app-usage measurement lives or dies by per-stage
//! instrumentation (the paper's study ingested 58.3M snapshots from 803
//! devices); this crate provides the three primitives the pipeline records
//! itself with, designed so observability composes with the determinism
//! contract in ARCHITECTURE.md:
//!
//! * [`Registry`] — named counters, gauges and log-bucketed latency
//!   histograms. Recording is commutative (plain atomic adds), so every
//!   *count* is bit-identical across thread counts and interleavings; only
//!   wall-clock durations vary. Nothing in a registry ever enters a study
//!   output fingerprint.
//! * [`span!`] / [`SpanGuard`] — lightweight tracing spans: a named
//!   wall-clock scope recorded into `span.<name>` on drop, with
//!   slash-separated names encoding the stage hierarchy
//!   ([`render_timing_tree`] prints it).
//! * [`LocalHistogram`] — unsynchronized per-thread/per-lane histogram
//!   shards, merged into the shared registry when the owner retires
//!   (the merge is a set of atomic adds — property-tested — so retirement
//!   order is irrelevant).
//!
//! [`RegistrySnapshot`] freezes a registry into serializable maps; the
//! `benchmark/` package reads its per-layer metrics out of snapshots of
//! the registries `Study::run` and `AsyncCollectServer::shutdown` fill.

#![deny(missing_docs)]

pub mod histogram;
pub mod registry;
pub mod span;

pub use histogram::{AtomicHistogram, HistogramSnapshot, LocalHistogram};
pub use registry::{
    global, install_global, Counter, HistogramHandle, Registry, RegistrySnapshot, TraceEvent,
};
pub use span::{render_timing_tree, SpanGuard, SPAN_PREFIX};
