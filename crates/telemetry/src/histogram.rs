//! Bucketed histograms with percentile estimation.
//!
//! Values below [`LINEAR_MAX`] get one bucket each (exact percentiles);
//! larger values share [`SUB`] geometric sub-buckets per power of two,
//! bounding the relative quantile error at `1/SUB` (~6%) while keeping
//! the bucket array small regardless of the value range. The scheme is
//! the usual HDR-style `(exponent, mantissa-prefix)` indexing.

/// Values below this threshold are counted exactly (one bucket per value).
const LINEAR_MAX: u64 = 64;
/// Sub-buckets per power of two above the linear range.
const SUB: u64 = 16;

/// A fixed-layout bucketed histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as u64; // >= 6
        let sub = (v >> (exp - 4)) & (SUB - 1);
        (LINEAR_MAX + (exp - 6) * SUB + sub) as usize
    }
}

/// Midpoint of the bucket at `idx` (exact value in the linear range).
fn bucket_value(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LINEAR_MAX {
        idx
    } else {
        let exp = 6 + (idx - LINEAR_MAX) / SUB;
        let sub = (idx - LINEAR_MAX) % SUB;
        let width = 1u64 << (exp - 4);
        (1u64 << exp) + sub * width + (width - 1) / 2
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (0 < p <= 100): the representative value of
    /// the bucket holding the sample of rank `ceil(p/100 * count)`.
    /// Exact for samples below 64; within one sub-bucket (~6% relative)
    /// above. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_have_exact_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 5);
        assert_eq!(h.percentile(90.0), 9);
        assert_eq!(h.percentile(99.0), 10);
        assert_eq!(h.percentile(100.0), 10);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert!((h.mean() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn large_values_are_within_bucket_error() {
        let mut h = Histogram::new();
        for v in (0..1000u64).map(|i| 10_000 + i * 17) {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let exact = 10_000 + 499 * 17;
        let rel = (p50 as f64 - exact as f64).abs() / exact as f64;
        assert!(rel < 0.07, "p50={p50} exact={exact} rel={rel}");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = Histogram::new();
        h.record(12_345);
        for p in [0.001, 1.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 12_345, "p={p}");
        }
        assert_eq!(h.min(), 12_345);
        assert_eq!(h.max(), 12_345);
        assert_eq!(h.mean(), 12_345.0);
    }

    #[test]
    fn all_samples_in_one_bucket_clamp_to_observed_range() {
        // 10_000 and 10_100 share a geometric bucket; the clamp to
        // [min, max] must keep every percentile inside what was seen.
        let mut h = Histogram::new();
        for _ in 0..500 {
            h.record(10_000);
        }
        for _ in 0..500 {
            h.record(10_100);
        }
        assert_eq!(bucket_index(10_000), bucket_index(10_100));
        for p in [1.0, 50.0, 99.0] {
            let v = h.percentile(p);
            assert!((10_000..=10_100).contains(&v), "p{p}={v}");
        }
    }

    #[test]
    fn saturating_max_records_without_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX); // saturated, not wrapped
        assert_eq!(h.min(), 1);
        // The top bucket's representative is within one sub-bucket of
        // u64::MAX (no u64 lies above the observed maximum).
        for p in [99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= u64::MAX / 16 * 15, "p{p}={v}");
        }
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..50u64 {
            a.record(v);
            b.record(v + 1000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 1049);
    }

    #[test]
    fn bucket_roundtrip_is_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 63, 64, 65, 100, 1000, 1 << 20, u64::MAX >> 1] {
            let idx = bucket_index(v);
            assert!(idx >= last || v < LINEAR_MAX, "index not monotone at {v}");
            last = idx;
            let rep = bucket_value(idx);
            if v < LINEAR_MAX {
                assert_eq!(rep, v);
            } else {
                let rel = (rep as f64 - v as f64).abs() / v as f64;
                assert!(rel < 0.07, "v={v} rep={rep}");
            }
        }
    }
}
