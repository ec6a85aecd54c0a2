//! Sorted, disjoint, half-open time windows.
//!
//! Every fault schedule — front-end outages, brownouts, metadata
//! unavailability here, link blackouts in the packet layer — is "a set of
//! intervals during which something is wrong". [`Windows`] is that set,
//! normalised once at construction (sorted, overlaps merged, empties
//! dropped) so membership queries are a binary search and two schedules
//! compare equal iff they cover the same instants.
//!
//! Units are deliberately unspecified: the storage layer uses milliseconds,
//! the packet layer microseconds.

/// A normalised set of half-open `[start, end)` intervals.
///
/// Invariant: spans are sorted by start, pairwise disjoint (no two spans
/// touch or overlap), and non-empty (`start < end`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Windows {
    spans: Vec<(u64, u64)>,
}

impl Windows {
    /// The empty set: `contains` is `false` everywhere.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a normalised window set from arbitrary `(start, end)` pairs.
    ///
    /// Pairs with `start >= end` are dropped; overlapping or adjacent pairs
    /// are merged. The input order does not matter.
    pub fn new(mut spans: Vec<(u64, u64)>) -> Self {
        spans.retain(|&(s, e)| s < e);
        spans.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        Self { spans: merged }
    }

    /// True when `t` falls inside some window.
    pub fn contains(&self, t: u64) -> bool {
        // Index of the first span starting after `t`; the candidate is the
        // one before it.
        let idx = self.spans.partition_point(|&(s, _)| s <= t);
        idx > 0 && t < self.spans[idx - 1].1
    }

    /// Total covered duration (sum of span lengths).
    pub fn covered(&self) -> u64 {
        self.spans.iter().map(|&(s, e)| e - s).sum()
    }

    /// The normalised spans, sorted and disjoint.
    pub fn spans(&self) -> &[(u64, u64)] {
        &self.spans
    }

    /// True when no instants are covered.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_stats::rng::{stream_rng, Rng};

    #[test]
    fn normalises_overlaps_and_order() {
        let w = Windows::new(vec![(50, 60), (10, 20), (15, 30), (30, 35), (40, 40)]);
        // (15,30) overlaps (10,20); (30,35) touches the merged (10,30);
        // (40,40) is empty and dropped.
        assert_eq!(w.spans(), &[(10, 35), (50, 60)]);
        assert_eq!(w.covered(), 25 + 10);
    }

    #[test]
    fn contains_is_half_open() {
        let w = Windows::new(vec![(10, 20)]);
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(!Windows::empty().contains(0));
    }

    #[test]
    fn equal_coverage_compares_equal() {
        let a = Windows::new(vec![(0, 10), (10, 20)]);
        let b = Windows::new(vec![(0, 20)]);
        assert_eq!(a, b);
    }

    /// Checks the construction invariant directly: sorted by start,
    /// pairwise disjoint and non-touching, every span non-empty.
    fn assert_normalised(w: &Windows) {
        for pair in w.spans().windows(2) {
            assert!(pair[0].1 < pair[1].0, "overlap/touch in {:?}", w.spans());
        }
        for &(s, e) in w.spans() {
            assert!(s < e, "empty span in {:?}", w.spans());
        }
    }

    /// [`Windows::new`] output always satisfies the sorted/disjoint/
    /// non-empty invariant, whatever pairs it is given: reversed, empty,
    /// overlapping or touching ones included.
    #[test]
    fn prop_scale_preserves_invariant() {
        for case in 0..256 {
            let mut rng = stream_rng(0x5EED, case);
            let raw: Vec<(u64, u64)> = (0..rng.random_range(0usize..12))
                .map(|_| (rng.random_range(0..u64::MAX), rng.random_range(0..u64::MAX)))
                .collect();
            let w = Windows::new(raw);
            assert_normalised(&w);
            // A normalised set round-trips through its own spans.
            assert_eq!(w, Windows::new(w.spans().to_vec()), "case {case}");
        }
    }
}
