//! Named metric registry with handle-based hot-path access and
//! merge-by-name.
//!
//! Registration returns a typed handle ([`CounterId`], [`GaugeId`],
//! [`HistId`]) that indexes a dense `Vec`, so instrumented inner loops pay
//! one bounds-checked array access per increment — no string hashing.
//! Merging walks the *other* registry's name table (a `BTreeMap`, so
//! ascending name order) and folds each metric into the local metric of
//! the same name, registering it first if absent. Two shards that
//! registered the same names in different orders therefore still merge
//! bit-identically.

use std::collections::BTreeMap;

use crate::export::Snapshot;
use crate::metrics::{Counter, Gauge, Histogram};

/// Handle to a registered [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered [`Gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// A named set of metric monoids that merges by name.
///
/// Equality compares the *logical* contents (name → metric), not handle
/// assignment order, so two registries built by different shard schedules
/// compare equal iff their merged measurements are identical.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counter_names: BTreeMap<String, usize>,
    counters: Vec<Counter>,
    gauge_names: BTreeMap<String, usize>,
    gauges: Vec<Gauge>,
    hist_names: BTreeMap<String, usize>,
    hists: Vec<Histogram>,
}

impl PartialEq for Registry {
    fn eq(&self, other: &Self) -> bool {
        self.snapshot() == other.snapshot()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or looks up) a counter named `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(&i) = self.counter_names.get(name) {
            return CounterId(i);
        }
        let i = self.counters.len();
        self.counters.push(Counter::new());
        self.counter_names.insert(name.to_owned(), i);
        CounterId(i)
    }

    /// Registers (or looks up) a gauge named `name`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(&i) = self.gauge_names.get(name) {
            return GaugeId(i);
        }
        let i = self.gauges.len();
        self.gauges.push(Gauge::new());
        self.gauge_names.insert(name.to_owned(), i);
        GaugeId(i)
    }

    /// Registers (or looks up) a histogram named `name`.
    pub fn histogram(&mut self, name: &str) -> HistId {
        if let Some(&i) = self.hist_names.get(name) {
            return HistId(i);
        }
        let i = self.hists.len();
        self.hists.push(Histogram::new());
        self.hist_names.insert(name.to_owned(), i);
        HistId(i)
    }

    /// Adds one to a counter.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].inc();
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].add(n);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].get()
    }

    /// Sets a gauge.
    pub fn set(&mut self, id: GaugeId, v: i64) {
        self.gauges[id.0].set(v);
    }

    /// Records an observation into a histogram.
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0].observe(v);
    }

    /// Value of the counter named `name`, if registered.
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counter_names
            .get(name)
            .map(|&i| self.counters[i].get())
    }

    /// Absorbs another registry, matching metrics *by name* and
    /// registering any the local registry lacks. Merge shards in ascending
    /// shard order to reproduce the sequential gauge values; counters and
    /// histograms commute.
    pub fn merge(&mut self, other: &Registry) {
        for (name, &oi) in &other.counter_names {
            let id = self.counter(name);
            self.counters[id.0].merge(&other.counters[oi]);
        }
        for (name, &oi) in &other.gauge_names {
            let id = self.gauge(name);
            self.gauges[id.0].merge(&other.gauges[oi]);
        }
        for (name, &oi) in &other.hist_names {
            let id = self.histogram(name);
            self.hists[id.0].merge(&other.hists[oi]);
        }
    }

    /// Stable-ordered export of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counter_names
                .iter()
                .map(|(n, &i)| (n.clone(), self.counters[i].get()))
                .collect(),
            gauges: self
                .gauge_names
                .iter()
                .filter_map(|(n, &i)| self.gauges[i].get().map(|v| (n.clone(), v)))
                .collect(),
            histograms: self
                .hist_names
                .iter()
                .map(|(n, &i)| (n.clone(), self.hists[i].snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_registry_matches_by_name_across_registration_orders() {
        // Shard A registers (x, y); shard B registers (y, x): handles
        // differ, but the merge keys on names.
        let mut a = Registry::new();
        let ax = a.counter("x");
        let ay = a.counter("y");
        a.add(ax, 1);
        a.add(ay, 10);

        let mut b = Registry::new();
        let by = b.counter("y");
        let bx = b.counter("x");
        b.add(by, 20);
        b.add(bx, 2);

        a.merge(&b);
        assert_eq!(a.counter_by_name("x"), Some(3));
        assert_eq!(a.counter_by_name("y"), Some(30));
    }

    #[test]
    fn merge_registry_shard_order_equals_sequential() {
        // Full sequential run...
        let mut whole = Registry::new();
        let c = whole.counter("ops");
        let g = whole.gauge("last");
        let h = whole.histogram("bytes");
        for i in 0..10u64 {
            whole.add(c, i);
            whole.set(g, i as i64);
            whole.observe(h, i * 100);
        }

        // ...equals two half-shards merged in ascending shard order.
        let mut shards = Vec::new();
        for range in [0..5u64, 5..10] {
            let mut r = Registry::new();
            let c = r.counter("ops");
            let g = r.gauge("last");
            let h = r.histogram("bytes");
            for i in range {
                r.add(c, i);
                r.set(g, i as i64);
                r.observe(h, i * 100);
            }
            shards.push(r);
        }
        let mut merged = Registry::new();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.snapshot(), whole.snapshot());
    }

    #[test]
    fn merge_registry_with_empty_is_identity() {
        let mut r = Registry::new();
        let c = r.counter("n");
        r.add(c, 7);
        let before = r.snapshot();
        r.merge(&Registry::new());
        assert_eq!(r.snapshot(), before);

        let mut id = Registry::new();
        id.merge(&r);
        assert_eq!(id.snapshot(), before);
    }

    #[test]
    fn unset_gauges_are_omitted_from_snapshots() {
        let mut r = Registry::new();
        let _ = r.gauge("never_set");
        let g = r.gauge("set");
        r.set(g, -4);
        let s = r.snapshot();
        assert!(!s.gauges.contains_key("never_set"));
        assert_eq!(s.gauges["set"], -4);
    }
}
