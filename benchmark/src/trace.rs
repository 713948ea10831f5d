//! Benchmark-side spans: one around every public call the benchmark makes
//! into a layer, kept in memory and written out when the run ends.
//!
//! All spans open and close on the benchmark's main thread (the calls
//! into the layers are made from there), so parentage is a plain stack.
//! Time spent *inside* a layer on other threads is not a span here; it
//! comes from the `Registry` the layer hands back (source `R` in the
//! README) and lands in the budget table next to the spans.

use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// `<crate>.<module>.<what>` of the call the span wraps.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The repetition the span belongs to (0 = set-up).
    pub rep: u32,
}

/// Collects spans while enabled; timing still works while disabled.
pub struct Tracer {
    epoch: Instant,
    enabled: Cell<bool>,
    rep: Cell<u32>,
    stack: RefCell<Vec<u32>>,
    spans: RefCell<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: Cell::new(false),
            rep: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Record spans from now on (or stop).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Label the spans that follow with a repetition id.
    pub fn set_rep(&self, rep: u32) {
        self.rep.set(rep);
    }

    /// Run `f`, return its result and its wall time in seconds, and — when
    /// enabled — record a span named `name` around it.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled.get() {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed().as_secs_f64());
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent: self.stack.borrow().last().copied(),
                name: name.to_string(),
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                rep: self.rep.get(),
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id as usize];
        span.end_ns = end_ns;
        let secs = (span.end_ns - span.start_ns) as f64 / 1e9;
        (out, secs)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part of
/// it its direct children cover. Children of one parent never overlap
/// (stack discipline), so the subtraction cannot go negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per repetition: total self seconds per span name.
pub fn self_secs_by_rep(spans: &[Span]) -> BTreeMap<u32, BTreeMap<String, f64>> {
    let own = self_times(spans);
    let mut out: BTreeMap<u32, BTreeMap<String, f64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *out.entry(s.rep)
            .or_default()
            .entry(s.name.clone())
            .or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100, children 10..30 and 40..90, grandchild 50..60.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 90),
            span(3, Some(2), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // Self times of a tree always sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_and_times_even_when_disabled() {
        let t = Tracer::default();
        let (v, secs) = t.time("off", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty(), "disabled tracer records nothing");

        t.set_enabled(true);
        t.set_rep(3);
        t.time("outer", || {
            t.time("inner", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rep, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_rep = self_secs_by_rep(&spans);
        assert_eq!(by_rep[&3].len(), 2);
    }
}
