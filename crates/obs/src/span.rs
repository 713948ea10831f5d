//! Lightweight tracing spans and the per-stage timing tree.
//!
//! A span is a named wall-clock scope: creating one starts a timer, and
//! dropping it records the elapsed nanoseconds into the histogram
//! `span.<name>` of its registry. Names are slash-separated stage paths
//! (`"simulate/day/lane"`); the hierarchy is encoded in the name, never in
//! thread-local state, so spans opened on rayon worker threads land in the
//! right place without any ambient context.
//!
//! [`render_timing_tree`] folds the `span.*` histograms of a snapshot back
//! into an indented per-stage report. Child stages can sum to more than
//! their parent's wall time: parallel lanes each record their own span, so
//! a 4-thread day loop shows ~4× the day wall time under `lane` — that gap
//! *is* the parallelism, and watching it shrink is the point of the tree.

use crate::registry::{HistogramHandle, Registry};
use std::time::Instant;

/// Histogram-name prefix shared by every span.
pub const SPAN_PREFIX: &str = "span.";

/// An in-flight span; records its duration on drop.
#[derive(Debug)]
pub struct SpanGuard {
    hist: HistogramHandle,
    start: Instant,
}

impl SpanGuard {
    /// Elapsed time so far, in nanoseconds.
    pub(crate) fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hist.record(self.elapsed_nanos());
    }
}

impl Registry {
    /// Open a span named `name` (a slash-separated stage path).
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard {
            hist: self.histogram(&format!("{SPAN_PREFIX}{name}")),
            start: Instant::now(),
        }
    }
}

/// One rendered row of the timing tree.
struct TreeRow {
    depth: usize,
    label: String,
    count: u64,
    total_secs: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// Render the `span.*` histograms of a snapshot as an indented tree.
///
/// Rows are sorted depth-first in name order; each shows the completion
/// count, total wall time and p50/p95/p99 single-span latencies.
pub fn render_timing_tree(snapshot: &crate::registry::RegistrySnapshot) -> String {
    let mut rows: Vec<TreeRow> = Vec::new();
    for (name, hist) in &snapshot.histograms {
        let Some(path) = name.strip_prefix(SPAN_PREFIX) else {
            continue;
        };
        let depth = path.matches('/').count();
        let label = path.rsplit('/').next().unwrap_or(path).to_string();
        rows.push(TreeRow {
            depth,
            label,
            count: hist.count,
            total_secs: hist.sum_secs(),
            p50_ms: hist.quantile(0.50) / 1e6,
            p95_ms: hist.quantile(0.95) / 1e6,
            p99_ms: hist.quantile(0.99) / 1e6,
        });
    }
    // BTreeMap iteration already yields parents before children
    // ("span.simulate" < "span.simulate/day"), so rows are depth-first.
    let mut out = String::new();
    out.push_str("stage                              count    total      p50      p95      p99\n");
    for row in &rows {
        let indent = "  ".repeat(row.depth);
        out.push_str(&format!(
            "{:<30} {:>9} {:>7.2}s {:>7.2}ms {:>7.2}ms {:>7.2}ms\n",
            format!("{indent}{}", row.label),
            row.count,
            row.total_secs,
            row.p50_ms,
            row.p95_ms,
            row.p99_ms,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn span_records_into_prefixed_histogram() {
        let reg = Registry::new();
        {
            let _s = reg.span("stage_a");
        }
        let snap = reg.snapshot();
        let h = snap.histogram("span.stage_a").expect("span histogram");
        assert_eq!(h.count, 1);
        assert!(snap.span_secs("stage_a") >= 0.0);
    }

    #[test]
    fn timing_tree_nests_by_slash_path() {
        let reg = Registry::new();
        {
            let _outer = reg.span("simulate");
            let _inner = reg.span("simulate/day");
        }
        let tree = render_timing_tree(&reg.snapshot());
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[1].starts_with("simulate"), "{tree}");
        assert!(lines[2].starts_with("  day"), "{tree}");
    }

    #[test]
    fn nested_spans_accumulate_counts() {
        let reg = Registry::new();
        for _ in 0..5 {
            let _s = reg.span("a/b");
        }
        assert_eq!(reg.snapshot().histogram("span.a/b").unwrap().count, 5);
    }
}
