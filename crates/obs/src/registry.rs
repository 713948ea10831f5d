//! The metrics registry: named counters, gauges and histograms.
//!
//! A [`Registry`] is a cheap `Arc` handle; clones share state. Looking a
//! metric up by name takes a short-lived lock on the name table, but the
//! returned [`Counter`]/[`HistogramHandle`] records with plain atomics —
//! hot paths resolve their handle once and then record lock-free. All
//! recording operations are commutative, so metric *values* are
//! independent of thread interleaving (the §3 determinism contract:
//! metrics are excluded from output fingerprints, but counter totals still
//! reproduce bit-for-bit across thread counts; only wall-clock histograms
//! vary run to run).

use crate::histogram::{AtomicHistogram, HistogramSnapshot, LocalHistogram};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<AtomicHistogram>>>,
}

/// A shared, clonable metrics registry.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.inner.counters.lock().len())
            .field("gauges", &self.inner.gauges.lock().len())
            .field("histograms", &self.inner.histograms.lock().len())
            .finish()
    }
}

/// A monotone counter handle (lock-free after lookup).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle (lock-free recording after lookup).
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<AtomicHistogram>);

impl HistogramHandle {
    /// Record one value.
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// Merge a retiring per-thread/per-lane shard.
    pub fn merge_local(&self, local: &LocalHistogram) {
        self.0.merge_local(local);
    }

    /// Freeze the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut table = self.inner.counters.lock();
        Counter(Arc::clone(table.entry(name.to_string()).or_default()))
    }

    /// Add `n` to the counter named `name` (lookup + add convenience).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Set the gauge named `name` (last write wins).
    pub fn gauge_set(&self, name: &str, v: u64) {
        let mut table = self.inner.gauges.lock();
        table
            .entry(name.to_string())
            .or_default()
            .store(v, Ordering::Relaxed);
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut table = self.inner.histograms.lock();
        HistogramHandle(Arc::clone(
            table
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicHistogram::new())),
        ))
    }

    /// Record one value into the histogram named `name`.
    pub fn record(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Freeze every metric into a serializable snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A frozen registry: plain maps, serializable.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by name, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Total seconds spent in the span named `name` (0.0 when absent).
    pub fn span_secs(&self, name: &str) -> f64 {
        self.histogram(&format!("{}{name}", crate::span::SPAN_PREFIX))
            .map(|h| h.sum_secs())
            .unwrap_or(0.0)
    }
}

static GLOBAL: OnceLock<RwLock<Registry>> = OnceLock::new();

fn global_cell() -> &'static RwLock<Registry> {
    GLOBAL.get_or_init(|| RwLock::new(Registry::new()))
}

/// The process-default registry (a cheap clone of the installed handle).
///
/// Components without an explicit registry parameter — per-fold CV spans
/// in `racket-ml`, per-device fleet-generation timing — record here.
/// Harnesses that need per-run isolation (`benchmark/`'s traced
/// repetitions) swap in a fresh registry with [`install_global`] around
/// each run; the study
/// driver itself always uses its own private registry, so test
/// parallelism never pollutes study metrics.
pub fn global() -> Registry {
    global_cell().read().clone()
}

/// Replace the process-default registry, returning the previous one.
pub fn install_global(registry: Registry) -> Registry {
    std::mem::replace(&mut *global_cell().write(), registry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = Registry::new();
        let c = reg.counter("uploads");
        c.add(3);
        c.add(1);
        reg.add("uploads", 6);
        assert_eq!(c.get(), 10);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("uploads"), 10);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let reg = Registry::new();
        reg.gauge_set("threads", 4);
        reg.gauge_set("threads", 8);
        assert_eq!(reg.snapshot().gauge("threads"), 8);
    }

    #[test]
    fn clones_share_state() {
        let reg = Registry::new();
        let other = reg.clone();
        other.add("x", 5);
        assert_eq!(reg.snapshot().counter("x"), 5);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::new();
        reg.add("c", 42);
        reg.gauge_set("g", 9);
        reg.record("h", 1234);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn install_global_swaps_the_default() {
        let fresh = Registry::new();
        let prev = install_global(fresh.clone());
        global().add("swap_test", 2);
        assert_eq!(fresh.snapshot().counter("swap_test"), 2);
        install_global(prev);
    }
}
