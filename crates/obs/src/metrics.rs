//! Typed counters and histograms.
//!
//! A [`MetricSheet`] is a plain, lock-free accumulator. Serial code records
//! straight into the recorder's sheet; each parallel refinement worker owns
//! a private sheet, and the engine merges them in worker-index order once
//! the scoped pool has joined — a deterministic merge of deterministic
//! per-decision counts, which is why total counter values are identical for
//! every thread count.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An exact-value histogram: `value → occurrence count`.
///
/// Pipeline histogram samples (e.g. iterations per shard)
/// are small integers with tiny cardinality, so exact counts are cheaper
/// than bucketing and keep the report bit-reproducible.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    values: BTreeMap<u64, u64>,
}

impl Histogram {
    /// Records one sample. Per-value counts saturate at `u64::MAX` rather
    /// than wrapping.
    pub fn record(&mut self, value: u64) {
        let slot = self.values.entry(value).or_insert(0);
        *slot = slot.saturating_add(1);
    }

    /// Folds another histogram into this one. Counts saturate at
    /// `u64::MAX`.
    pub fn merge(&mut self, other: &Histogram) {
        for (&v, &n) in &other.values {
            let slot = self.values.entry(v).or_insert(0);
            *slot = slot.saturating_add(n);
        }
    }

    /// The value at quantile `p` (0.0 ≤ p ≤ 1.0) by nearest-rank over the
    /// exact counts, or `None` when empty. `percentile(0.5)` is the median,
    /// `percentile(0.99)` the p99.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((total - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (&v, &n) in &self.values {
            seen = seen.saturating_add(n);
            if seen > rank {
                return Some(v);
            }
        }
        self.max()
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.values.values().sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.values.iter().map(|(&v, &n)| v * n).sum()
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.values.keys().next().copied()
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.values.keys().next_back().copied()
    }

    /// The raw `value → count` map.
    pub fn values(&self) -> &BTreeMap<u64, u64> {
        &self.values
    }
}

/// A worker-local (or recorder-owned) metric accumulator.
///
/// Counters come in two classes: *deterministic* ([`MetricSheet::add`]) —
/// per-decision counts that must match across thread counts — and
/// *execution-dependent* ([`MetricSheet::add_exec`]) — pool tasks, worker
/// slots and similar scheduling artifacts, reported for tuning but excluded
/// from determinism comparisons.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricSheet {
    pub(crate) counters: BTreeMap<&'static str, u64>,
    pub(crate) exec: BTreeMap<&'static str, u64>,
    pub(crate) hists: BTreeMap<&'static str, Histogram>,
}

impl MetricSheet {
    /// An empty sheet.
    pub fn new() -> MetricSheet {
        MetricSheet::default()
    }

    /// Adds `n` to a deterministic counter.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Adds one to a deterministic counter.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to an execution-dependent counter.
    pub fn add_exec(&mut self, name: &'static str, n: u64) {
        *self.exec.entry(name).or_insert(0) += n;
    }

    /// Records one histogram sample.
    pub fn record(&mut self, name: &'static str, value: u64) {
        self.hists.entry(name).or_default().record(value);
    }

    /// Folds `other` into this sheet (counters add, histograms merge).
    pub fn merge(&mut self, other: &MetricSheet) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.exec {
            *self.exec.entry(k).or_insert(0) += v;
        }
        for (&k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
    }

    /// The value of a deterministic counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.exec.is_empty() && self.hists.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::default();
        for v in [3u64, 1, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 14);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(7));
        assert_eq!(h.values().get(&3), Some(&2));
        let empty = Histogram::default();
        assert_eq!(empty.min(), None);
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn histogram_merge_overlapping_values_adds_counts() {
        let mut a = Histogram::default();
        for v in [1u64, 2, 2, 3] {
            a.record(v);
        }
        let mut b = Histogram::default();
        for v in [2u64, 3, 3, 4] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 8);
        assert_eq!(a.values().get(&2), Some(&3));
        assert_eq!(a.values().get(&3), Some(&3));
        assert_eq!((a.min(), a.max()), (Some(1), Some(4)));
        assert_eq!(a.sum(), 1 + 2 * 3 + 3 * 3 + 4);
    }

    #[test]
    fn histogram_merge_disjoint_values_is_a_union() {
        let mut low = Histogram::default();
        low.record(1);
        low.record(2);
        let mut high = Histogram::default();
        high.record(10);
        high.record(20);
        low.merge(&high);
        assert_eq!(low.count(), 4);
        assert_eq!(low.values().len(), 4);
        assert!(low.values().values().all(|&n| n == 1));
        // Merging an empty histogram is the identity.
        let before = low.clone();
        low.merge(&Histogram::default());
        assert_eq!(low, before);
    }

    #[test]
    fn histogram_merge_saturates_instead_of_wrapping() {
        let mut a = Histogram::default();
        a.record(7);
        let mut near_max = Histogram::default();
        near_max.values.insert(7, u64::MAX - 1);
        a.merge(&near_max);
        assert_eq!(a.values().get(&7), Some(&u64::MAX));
        a.merge(&near_max);
        assert_eq!(a.values().get(&7), Some(&u64::MAX), "count stays pinned");
        a.record(7);
        assert_eq!(a.values().get(&7), Some(&u64::MAX), "record saturates too");
    }

    #[test]
    fn sheet_merge_is_order_insensitive_for_totals() {
        let mut a = MetricSheet::new();
        a.add("x", 2);
        a.record("h", 5);
        a.add_exec("e", 1);
        let mut b = MetricSheet::new();
        b.inc("x");
        b.add("y", 4);
        b.record("h", 5);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("x"), 3);
        assert_eq!(ab.counter("y"), 4);
        assert_eq!(ab.hists["h"].count(), 2);
        assert_eq!(ab.exec["e"], 1);
    }

    #[test]
    fn empty_sheet_reports_empty() {
        assert!(MetricSheet::new().is_empty());
        let mut s = MetricSheet::new();
        s.inc("x");
        assert!(!s.is_empty());
        assert_eq!(s.counter("missing"), 0);
    }
}
