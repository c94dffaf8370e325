//! Bounded time-series history: a fixed-size ring of `(timestamp, value)`
//! samples per series, with windowed min/max/mean/p99 queries — and
//! [`SortedWindow`], the allocation-free sliding percentile the worker's
//! per-task retention decision runs on.
//!
//! The registry's counters and gauges are instants — one value, no
//! memory. The federation plane ([`crate::http`]'s `/cluster` consumers,
//! the MonitoringAgent's decision input) needs *trends*: was this
//! worker's load spiking for the last minute or only for the last poll?
//! A [`HistoryRing`] answers that with a fixed memory footprint:
//! `capacity` samples (default [`DEFAULT_DEPTH`]), oldest evicted first.
//!
//! Recording is a mutex-guarded `VecDeque` push — a few tens of
//! nanoseconds, and deliberately *not* on any tuple-space hot path:
//! rings are fed by the heartbeat collector and the SNMP poll loop,
//! both of which run on second-scale intervals.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Default ring depth (samples retained per series).
pub const DEFAULT_DEPTH: usize = 256;

/// One retained sample: wall-clock milliseconds and the observed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingSample {
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub at_ms: u64,
    /// The observed value.
    pub value: i64,
}

/// Windowed statistics over a ring's retained samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingStats {
    /// Number of samples in the window.
    pub samples: usize,
    /// Most recent value (0 when empty).
    pub last: i64,
    /// Minimum over the window (0 when empty).
    pub min: i64,
    /// Maximum over the window (0 when empty).
    pub max: i64,
    /// Arithmetic mean over the window (0.0 when empty).
    pub mean: f64,
    /// 99th-percentile value over the window (0 when empty).
    pub p99: i64,
}

impl RingStats {
    const EMPTY: RingStats = RingStats {
        samples: 0,
        last: 0,
        min: 0,
        max: 0,
        mean: 0.0,
        p99: 0,
    };
}

/// A fixed-capacity time-series ring. Thread-safe; shared by reference.
#[derive(Debug)]
pub struct HistoryRing {
    capacity: usize,
    samples: Mutex<VecDeque<RingSample>>,
}

impl HistoryRing {
    /// A ring retaining up to `capacity` samples (at least 1).
    pub fn new(capacity: usize) -> HistoryRing {
        let capacity = capacity.max(1);
        HistoryRing {
            capacity,
            samples: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// The configured depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records a sample, evicting the oldest when full.
    pub fn record(&self, at_ms: u64, value: i64) {
        let mut samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        if samples.len() == self.capacity {
            samples.pop_front();
        }
        samples.push_back(RingSample { at_ms, value });
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.samples.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the retained samples, oldest first.
    pub fn samples(&self) -> Vec<RingSample> {
        self.samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .collect()
    }

    /// Statistics over every retained sample.
    pub fn stats(&self) -> RingStats {
        self.stats_since(0)
    }

    /// Statistics over samples with `at_ms >= since_ms`.
    pub fn stats_since(&self, since_ms: u64) -> RingStats {
        let samples = self.samples.lock().unwrap_or_else(|e| e.into_inner());
        let window: Vec<i64> = samples
            .iter()
            .filter(|s| s.at_ms >= since_ms)
            .map(|s| s.value)
            .collect();
        if window.is_empty() {
            return RingStats::EMPTY;
        }
        let last = *window.last().expect("non-empty");
        let min = *window.iter().min().expect("non-empty");
        let max = *window.iter().max().expect("non-empty");
        let sum: i128 = window.iter().map(|&v| v as i128).sum();
        let mean = sum as f64 / window.len() as f64;
        let mut sorted = window.clone();
        sorted.sort_unstable();
        // Nearest-rank p99 (1-based rank ⌈0.99·n⌉).
        let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
        let p99 = sorted[rank.clamp(1, sorted.len()) - 1];
        RingStats {
            samples: window.len(),
            last,
            min,
            max,
            mean,
            p99,
        }
    }
}

/// The last `capacity` values of a series, held in arrival order *and*
/// in sorted order, so that any percentile of the window is an index
/// lookup and recording a value is two binary searches and one shift of
/// the sorted values between the slot vacated and the slot filled — no
/// allocation, no sort.
///
/// Built for judging each finished task against its predecessors (the
/// worker's tail-based trace retention), which asks for a percentile as
/// often as it records. Single-owner: methods take `&mut self`.
#[derive(Debug)]
pub struct SortedWindow {
    capacity: usize,
    arrivals: VecDeque<u64>,
    sorted: Vec<u64>,
}

impl SortedWindow {
    /// A window over the last `capacity` values (at least 1), with both
    /// orders allocated up front.
    pub fn new(capacity: usize) -> SortedWindow {
        let capacity = capacity.max(1);
        SortedWindow {
            capacity,
            arrivals: VecDeque::with_capacity(capacity),
            sorted: Vec::with_capacity(capacity),
        }
    }

    /// Number of values currently in the window.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no value has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile of the window (1-based rank `⌈q·n⌉`, `q`
    /// clamped to `[0, 1]`), or `None` when it is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let n = self.sorted.len();
        let rank = ((n as f64) * q.clamp(0.0, 1.0)).ceil() as usize;
        self.sorted.get(rank.clamp(1, n.max(1)) - 1).copied()
    }

    /// Adds a value, pushing the oldest out of a full window.
    pub fn record(&mut self, value: u64) {
        // Where the value goes among the sorted ones: after its equals.
        let to = self.sorted.partition_point(|v| *v <= value);
        if self.arrivals.len() < self.capacity {
            self.sorted.insert(to, value);
        } else {
            let oldest = self.arrivals.pop_front().expect("a full window");
            let from = self
                .sorted
                .binary_search(&oldest)
                .expect("every arrival is among the sorted values");
            // Close the gap at `from` and open one for the new value,
            // moving only the values in between.
            if from < to {
                self.sorted[from..to].rotate_left(1);
                self.sorted[to - 1] = value;
            } else {
                self.sorted[to..=from].rotate_right(1);
                self.sorted[to] = value;
            }
        }
        self.arrivals.push_back(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_reports_zeroes() {
        let ring = HistoryRing::new(8);
        assert!(ring.is_empty());
        assert_eq!(ring.stats(), RingStats::EMPTY);
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let ring = HistoryRing::new(4);
        for i in 0..10 {
            ring.record(i, i as i64);
        }
        assert_eq!(ring.len(), 4);
        let samples = ring.samples();
        assert_eq!(samples[0].value, 6);
        assert_eq!(samples[3].value, 9);
    }

    #[test]
    fn stats_cover_min_max_mean_p99() {
        let ring = HistoryRing::new(128);
        for v in 1..=100 {
            ring.record(v, v as i64);
        }
        let stats = ring.stats();
        assert_eq!(stats.samples, 100);
        assert_eq!(stats.last, 100);
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 100);
        assert!((stats.mean - 50.5).abs() < 1e-9);
        assert_eq!(stats.p99, 99);
    }

    #[test]
    fn windowed_stats_filter_by_timestamp() {
        let ring = HistoryRing::new(128);
        ring.record(100, 10);
        ring.record(200, 20);
        ring.record(300, 30);
        let stats = ring.stats_since(150);
        assert_eq!(stats.samples, 2);
        assert_eq!(stats.min, 20);
        assert_eq!(stats.max, 30);
        let none = ring.stats_since(1_000);
        assert_eq!(none.samples, 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = HistoryRing::new(0);
        ring.record(1, 1);
        ring.record(2, 2);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.stats().last, 2);
    }

    #[test]
    fn sorted_window_percentile_matches_nearest_rank() {
        let mut window = SortedWindow::new(128);
        assert_eq!(window.percentile(0.95), None);
        for v in 1..=100 {
            window.record(v);
        }
        assert_eq!(window.percentile(0.99), Some(99));
        assert_eq!(window.percentile(0.5), Some(50));
        assert_eq!(window.percentile(0.0), Some(1));
        assert_eq!(window.percentile(1.0), Some(100));
        assert_eq!(window.percentile(2.0), Some(100));
    }

    #[test]
    fn sorted_window_tracks_a_sort_of_the_last_n_values() {
        // Against the obvious model — keep the last n, sort, index — over
        // a stream with runs of duplicates, ascents and descents.
        let capacity = 37;
        let mut window = SortedWindow::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let value = match (i / 100) % 4 {
                0 => x % 8,     // many ties
                1 => i,         // ascending: always lands last
                2 => 5_000 - i, // descending: always lands first
                _ => x % 1_000,
            };
            window.record(value);
            model.push_back(value);
            if model.len() > capacity {
                model.pop_front();
            }
            let mut sorted: Vec<u64> = model.iter().copied().collect();
            sorted.sort_unstable();
            assert_eq!(window.len(), sorted.len());
            for q in [0.0, 0.5, 0.95, 1.0] {
                let rank = ((sorted.len() as f64) * q).ceil() as usize;
                let want = sorted[rank.clamp(1, sorted.len()) - 1];
                assert_eq!(window.percentile(q), Some(want), "q={q} at step {i}");
            }
        }
    }
}
