//! Online (single-pass) aggregators for streaming feature maintenance.
//!
//! The streaming analysis engine folds every decoded snapshot into
//! per-install feature state *as it arrives* (ARCHITECTURE.md §7), so the
//! aggregates here are designed around two algebraic laws that the
//! property suite (`tests/aggregators.rs`) pins:
//!
//! * **fold is order-insensitive after coalescing** — folding the same
//!   multiset of values in any order yields exactly the same aggregate;
//! * **merge is associative with an empty identity** — state built over
//!   shards can be combined in any grouping. [`MinMax`] and
//!   [`Distinct`] merges are additionally commutative; [`GapAccum`]
//!   merges by *concatenation* of adjacent time ranges, which is
//!   associative but deliberately not commutative (gaps are defined on
//!   the coalesced event order).
//!
//! Nothing here is used to *emit* the paper's feature vectors directly —
//! emission reproduces the batch formulas bit-for-bit from exact
//! sufficient statistics (see `racket-features`).

use std::collections::HashSet;
use std::hash::Hash;

/// Exact running minimum/maximum over folded `f64` values.
///
/// Fold and merge are both exact (`f64::min`/`f64::max` latches), so the
/// aggregate is bitwise identical under any permutation or sharding of
/// non-NaN inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMax {
    /// Number of folded values.
    pub count: u64,
    /// Smallest value folded so far (`f64::INFINITY` while empty).
    pub min: f64,
    /// Largest value folded so far (`f64::NEG_INFINITY` while empty).
    pub max: f64,
}

impl Default for MinMax {
    fn default() -> Self {
        MinMax {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl MinMax {
    /// The empty accumulator (merge identity).
    pub fn new() -> Self {
        MinMax::default()
    }

    /// Fold one value.
    pub fn fold(&mut self, x: f64) {
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator.
    pub fn merge(&mut self, other: &MinMax) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Distinct-set cardinality accumulator (exact, not a sketch).
///
/// The paper's fleets are hundreds of devices with dozens of accounts and
/// apps each, so an exact `HashSet` costs less than a sketch would and
/// keeps the streaming feature vectors *equal* to batch, not approximately
/// equal. Fold is insertion; merge is union — both order-insensitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distinct<T: Eq + Hash> {
    set: HashSet<T>,
}

impl<T: Eq + Hash> Default for Distinct<T> {
    fn default() -> Self {
        Distinct {
            set: HashSet::new(),
        }
    }
}

impl<T: Eq + Hash + Clone> Distinct<T> {
    /// The empty set (merge identity).
    pub fn new() -> Self {
        Distinct {
            set: HashSet::new(),
        }
    }

    /// Fold one value; returns `true` if it was new.
    pub fn fold(&mut self, value: T) -> bool {
        self.set.insert(value)
    }

    /// Merge (union) another set into this one.
    pub fn merge(&mut self, other: &Distinct<T>) {
        for v in &other.set {
            self.set.insert(v.clone());
        }
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no value has been folded.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Whether `value` has been folded.
    pub fn contains(&self, value: &T) -> bool {
        self.set.contains(value)
    }
}

/// Inter-event-gap accumulator over a time-coalesced event stream.
///
/// Folding event times **in nondecreasing order** accumulates the exact
/// integer gaps (in seconds) between consecutive events: count, sum, min
/// and max. Merging two accumulators built over *adjacent* time ranges
/// appends the later one, bridging the boundary gap — an associative
/// operation with [`GapAccum::new`] as identity, but (unlike the other
/// aggregates) not commutative: gaps are defined on the coalesced order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapAccum {
    /// First event time folded (seconds), if any.
    pub first: Option<u64>,
    /// Last event time folded (seconds), if any.
    pub last: Option<u64>,
    /// Number of gaps (= events − 1 when non-empty).
    pub count: u64,
    /// Sum of all gaps, in seconds (exact).
    pub sum: u64,
    /// Smallest gap, in seconds (`u64::MAX` while no gap exists).
    pub min: u64,
    /// Largest gap, in seconds (0 while no gap exists).
    pub max: u64,
}

impl Default for GapAccum {
    fn default() -> Self {
        GapAccum::new()
    }
}

impl GapAccum {
    /// The empty accumulator (append identity).
    pub fn new() -> Self {
        GapAccum {
            first: None,
            last: None,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Fold the next event time (seconds). Must be ≥ the previous one.
    ///
    /// # Panics
    /// If `t` precedes the last folded time — callers coalesce (sort)
    /// events before folding.
    pub fn fold(&mut self, t: u64) {
        if let Some(last) = self.last {
            assert!(t >= last, "events must fold in nondecreasing time order");
            let gap = t - last;
            self.count += 1;
            self.sum += gap;
            self.min = self.min.min(gap);
            self.max = self.max.max(gap);
        } else {
            self.first = Some(t);
        }
        self.last = Some(t);
    }

    /// Append an accumulator built over the *following* time range,
    /// bridging the boundary gap between `self.last` and `other.first`.
    ///
    /// # Panics
    /// If `other` starts before `self` ends.
    pub fn append(&mut self, other: &GapAccum) {
        let Some(other_first) = other.first else {
            return; // appending the identity
        };
        if let Some(last) = self.last {
            assert!(
                other_first >= last,
                "appended range must start after this one ends"
            );
            let bridge = other_first - last;
            self.count += 1 + other.count;
            self.sum += bridge + other.sum;
            self.min = self.min.min(bridge).min(other.min);
            self.max = self.max.max(bridge).max(other.max);
        } else {
            self.first = other.first;
            self.count = other.count;
            self.sum = other.sum;
            self.min = other.min;
            self.max = other.max;
        }
        self.last = other.last;
    }

    /// Mean gap in seconds, if any gap exists.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmax_folds_and_merges() {
        let mut a = MinMax::new();
        a.fold(2.0);
        a.fold(-5.0);
        let mut b = MinMax::new();
        b.fold(9.0);
        a.merge(&b);
        assert_eq!(a.min, -5.0);
        assert_eq!(a.max, 9.0);
        assert_eq!(a.count, 3);
    }

    #[test]
    fn distinct_counts_unique_values() {
        let mut d = Distinct::new();
        assert!(d.fold(7u32));
        assert!(!d.fold(7u32));
        assert!(d.fold(9u32));
        let mut e = Distinct::new();
        e.fold(9u32);
        e.fold(11u32);
        d.merge(&e);
        assert_eq!(d.len(), 3);
        assert!(d.contains(&11));
    }

    #[test]
    fn gap_accum_matches_windowed_gaps() {
        let times = [10u64, 25, 25, 100];
        let mut g = GapAccum::new();
        for &t in &times {
            g.fold(t);
        }
        assert_eq!(g.count, 3);
        assert_eq!(g.sum, 90);
        assert_eq!(g.min, 0);
        assert_eq!(g.max, 75);
        assert_eq!(g.mean(), Some(30.0));
    }

    #[test]
    fn gap_append_bridges_ranges() {
        let times = [5u64, 8, 20, 21, 50];
        for split in 0..=times.len() {
            let mut a = GapAccum::new();
            for &t in &times[..split] {
                a.fold(t);
            }
            let mut b = GapAccum::new();
            for &t in &times[split..] {
                b.fold(t);
            }
            let mut whole = GapAccum::new();
            for &t in &times {
                whole.fold(t);
            }
            a.append(&b);
            assert_eq!(a, whole, "split at {split}");
        }
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn gap_fold_rejects_out_of_order_events() {
        let mut g = GapAccum::new();
        g.fold(10);
        g.fold(5);
    }
}
