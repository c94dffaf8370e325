//! Fixed-bucket, log-scale latency histograms.
//!
//! A [`Histogram`] is an array of 64 atomic buckets where bucket *i*
//! counts observations whose value needs *i* bits — i.e. bucket
//! boundaries grow as powers of two. Recording is three relaxed atomic
//! RMWs (bucket, count+sum, max) with no locks and no allocation, so
//! histograms are safe to hit from the hottest paths. Quantiles are
//! estimated from the bucket boundaries at snapshot time: the reported
//! pXX is the upper edge of the bucket containing that quantile, an
//! upper bound that is at worst 2x the true value — plenty for the
//! order-of-magnitude questions latency histograms answer.
//!
//! Values are plain `u64`s with no unit attached; by convention series
//! named `*_us` record microseconds and `*_pct` record percentages. The
//! caller supplies the value, which is what makes recording *sim-clock
//! aware*: the discrete-event simulator feeds virtual microseconds into
//! the same histograms the thread runtime feeds wall-clock ones.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible bit length of a `u64`, so every
/// value maps to a bucket and nothing is clamped except by `u64::MAX`
/// itself (the final bucket is the overflow bucket).
pub const BUCKETS: usize = 64;

/// A lock-free, fixed-memory latency histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket covering `value`: its bit length, so bucket `i`
/// holds values in `[2^(i-1), 2^i)` (bucket 0 holds only zero).
#[inline]
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Upper edge of bucket `i` (inclusive), used as the quantile estimate.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        // The final bucket is the overflow bucket: unbounded above.
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation. Relaxed atomics throughout: histograms
    /// are diagnostics, not synchronization.
    #[inline]
    pub fn observe(&self, value: u64) {
        let i = bucket_index(value).min(BUCKETS - 1);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bucket `i` covers `[2^(i-1), 2^i)`).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Estimated value at quantile `q` (0.0–1.0): the upper edge of the
    /// bucket containing the `ceil(q * count)`-th observation. `None`
    /// when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The true maximum is exact; never report an edge past it.
                return Some(bucket_upper(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Mean of all observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// `{count, sum, max, p50, p90, p99}`, as `/metrics.json` and
    /// `/cluster.json` write a histogram.
    pub fn to_json(&self) -> crate::Json {
        let quantiles = [
            ("p50", self.p50()),
            ("p90", self.p90()),
            ("p99", self.p99()),
        ];
        let fields = [("count", self.count), ("sum", self.sum), ("max", self.max)]
            .into_iter()
            .chain(quantiles.map(|(q, v)| (q, v.unwrap_or(0))));
        crate::Json::object(fields.map(|(k, v)| (k, v.into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn zero_samples_has_no_quantiles() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50(), None);
        assert_eq!(snap.p99(), None);
        assert_eq!(snap.mean(), None);
        assert_eq!(snap.max, 0);
    }

    #[test]
    fn single_sample_quantiles_collapse() {
        let h = Histogram::new();
        h.observe(100);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 100);
        assert_eq!(snap.max, 100);
        // One sample: every quantile reports (at most) the max.
        assert_eq!(snap.p50(), Some(100));
        assert_eq!(snap.p99(), Some(100));
    }

    #[test]
    fn quantiles_track_distribution() {
        let h = Histogram::new();
        // 90 fast samples (~10 µs), 10 slow ones (~10 ms).
        for _ in 0..90 {
            h.observe(10);
        }
        for _ in 0..10 {
            h.observe(10_000);
        }
        let snap = h.snapshot();
        let p50 = snap.p50().unwrap();
        let p99 = snap.p99().unwrap();
        assert!(p50 < 32, "p50 {p50} should sit in the fast band");
        assert!(p99 >= 8192, "p99 {p99} should sit in the slow band");
        assert_eq!(snap.max, 10_000);
    }

    #[test]
    fn overflow_bucket_holds_huge_values() {
        let h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX / 2);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.buckets[BUCKETS - 1], 2);
        // The sum saturates by wrapping — count and max stay meaningful.
        assert_eq!(snap.p99(), Some(u64::MAX));
    }

    #[test]
    fn concurrent_recording_from_8_threads() {
        let h = Arc::new(Histogram::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.observe(t * 1000 + (i % 100));
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 80_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 80_000);
        assert!(snap.max >= 7000 && snap.max < 7100);
    }
}
