//! Fixed-bin histograms with quantile estimation.
//!
//! Used by the comparison tooling to report distributional quantities
//! (e.g. the 95th-percentile energy of a scheme, not just its mean — tail
//! behavior matters when frames share a power budget).

use serde::{Deserialize, Serialize};

/// A histogram over a fixed range with equal-width bins. Out-of-range
/// observations clamp into the edge bins, so counts are never lost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` equal-width bins.
    ///
    /// Returns `None` if `bins == 0`, the bounds are non-finite, or
    /// `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Option<Self> {
        if bins == 0 || !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return None;
        }
        Some(Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Records one observation (clamped into range).
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let frac = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let idx = ((frac * bins as f64) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// True when `x` falls outside `[lo, hi]` — callers that must not
    /// lose the information that [`Histogram::add`] will clamp check
    /// this first (NaN never compares outside, so it reports `false`
    /// and clamps silently, as before).
    pub fn out_of_range(&self, x: f64) -> bool {
        x < self.lo || x > self.hi
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / self.counts.len() as f64
    }

    /// Estimates the `q`-quantile (`0 <= q <= 1`) by linear interpolation
    /// within the bin containing the target rank. Returns `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total as f64;
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                let within = if c == 0 {
                    0.0
                } else {
                    (target - cum) / c as f64
                };
                return Some(self.bin_lo(i) + width * within.clamp(0.0, 1.0));
            }
            cum = next;
        }
        Some(self.hi)
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    ///
    /// Panics on mismatched range or bin count.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo);
        assert_eq!(self.hi, other.hi);
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Histogram::new(0.0, 1.0, 0).is_none());
        assert!(Histogram::new(1.0, 0.0, 4).is_none());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_none());
        assert!(Histogram::new(0.0, 1.0, 4).is_some());
    }

    #[test]
    fn counts_land_in_expected_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.add(0.5);
        h.add(9.99);
        h.add(5.0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        assert!(h.out_of_range(-5.0));
        assert!(h.out_of_range(99.0));
        assert!(!h.out_of_range(0.5));
        assert!(!h.out_of_range(0.0));
        assert!(!h.out_of_range(1.0));
        h.add(-5.0);
        h.add(99.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn quantiles_of_uniform_data() {
        let mut h = Histogram::new(0.0, 100.0, 100).unwrap();
        for i in 0..1000 {
            h.add(i as f64 / 10.0);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() < 2.0, "median={median}");
        let p95 = h.quantile(0.95).unwrap();
        assert!((p95 - 95.0).abs() < 2.0, "p95={p95}");
        assert!(h.quantile(0.0).unwrap() <= h.quantile(1.0).unwrap());
    }

    #[test]
    fn empty_quantile_is_none() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        assert!(h.quantile(0.5).is_none());
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 1.0, 2).unwrap();
        let mut b = Histogram::new(0.0, 1.0, 2).unwrap();
        a.add(0.1);
        b.add(0.9);
        b.add(0.8);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts(), &[1, 2]);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(0.0, 1.0, 2).unwrap();
        let b = Histogram::new(0.0, 2.0, 2).unwrap();
        a.merge(&b);
    }
}
