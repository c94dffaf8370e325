//! Space operation counters, folded into the workspace telemetry registry.
//!
//! Every space keeps its own [`SpaceStats`] atomics (so tests and callers
//! can assert on one space's traffic via [`SpaceStats::snapshot`]), and
//! the recordings the benchmark's layer table reads *also* bump the
//! process-wide series in [`acc_telemetry::registry`] under `space.*`
//! names.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use acc_telemetry::{registry, Counter};

/// The global `space.*` series every [`SpaceStats`] records into: the
/// counts the benchmark's layer table reads.
struct SpaceSeries {
    writes: Arc<Counter>,
    reads: Arc<Counter>,
    takes: Arc<Counter>,
    blocked_waits: Arc<Counter>,
    bytes_written: Arc<Counter>,
    shard_contention: Arc<Counter>,
    index_hits: Arc<Counter>,
    index_misses: Arc<Counter>,
}

/// The lazily registered global series (one set per process).
fn series() -> &'static SpaceSeries {
    static SERIES: OnceLock<SpaceSeries> = OnceLock::new();
    SERIES.get_or_init(|| {
        let r = registry();
        SpaceSeries {
            writes: r.counter("space.write.count"),
            reads: r.counter("space.read.count"),
            takes: r.counter("space.take.count"),
            blocked_waits: r.counter("space.blocked_waits"),
            bytes_written: r.counter("space.bytes_written"),
            shard_contention: r.counter("space.shard_contention"),
            index_hits: r.counter("space.index.hits"),
            index_misses: r.counter("space.index.misses"),
        }
    })
}

/// Monotone counters describing traffic through a space. All methods use
/// relaxed atomics: the counters are diagnostics, not synchronization.
#[derive(Debug, Default)]
pub struct SpaceStats {
    writes: AtomicU64,
    reads: AtomicU64,
    takes: AtomicU64,
    misses: AtomicU64,
    blocked_waits: AtomicU64,
    expired: AtomicU64,
    txns_committed: AtomicU64,
    txns_aborted: AtomicU64,
    bytes_written: AtomicU64,
    shard_contention: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
}

/// A point-in-time copy of [`SpaceStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Entries written (including transactional writes at commit time).
    pub writes: u64,
    /// Successful non-destructive reads.
    pub reads: u64,
    /// Successful takes.
    pub takes: u64,
    /// Read/take attempts that returned empty (timeout or if-exists miss).
    pub misses: u64,
    /// Number of times an operation blocked waiting for a match.
    pub blocked_waits: u64,
    /// Entries reclaimed by lease expiry.
    pub expired: u64,
    /// Transactions committed.
    pub txns_committed: u64,
    /// Transactions aborted.
    pub txns_aborted: u64,
    /// Total approximate bytes written into the space.
    pub bytes_written: u64,
    /// Shard lock acquisitions that found the lock already held.
    pub shard_contention: u64,
    /// Match attempts answered through the per-field exact-match index.
    pub index_hits: u64,
    /// Match attempts that had to fall back to a linear shard scan.
    pub index_misses: u64,
}

#[inline]
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl SpaceStats {
    /// Records one write of `bytes` approximate payload bytes.
    #[inline]
    pub(crate) fn record_write(&self, bytes: u64) {
        bump(&self.writes);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        let s = series();
        s.writes.inc();
        s.bytes_written.add(bytes);
    }

    /// Records one successful non-destructive read.
    #[inline]
    pub(crate) fn record_read(&self) {
        bump(&self.reads);
        series().reads.inc();
    }

    /// Records one successful take.
    #[inline]
    pub(crate) fn record_take(&self) {
        bump(&self.takes);
        series().takes.inc();
    }

    /// Records one empty read/take attempt.
    #[inline]
    pub(crate) fn record_miss(&self) {
        bump(&self.misses);
    }

    /// Records one operation blocking for a match.
    #[inline]
    pub(crate) fn record_blocked_wait(&self) {
        bump(&self.blocked_waits);
        series().blocked_waits.inc();
    }

    /// Records `n` entries reclaimed by lease expiry.
    #[inline]
    pub(crate) fn record_expired(&self, n: u64) {
        self.expired.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a transaction finishing.
    #[inline]
    pub(crate) fn record_txn_finished(&self, commit: bool) {
        bump(if commit {
            &self.txns_committed
        } else {
            &self.txns_aborted
        });
    }

    /// Records a contended shard-lock acquisition.
    #[inline]
    pub(crate) fn record_contention(&self) {
        bump(&self.shard_contention);
        series().shard_contention.inc();
    }

    /// Records whether a match attempt was answered by the field index.
    #[inline]
    pub(crate) fn record_index_probe(&self, hit: bool) {
        if hit {
            bump(&self.index_hits);
            series().index_hits.inc();
        } else {
            bump(&self.index_misses);
            series().index_misses.inc();
        }
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            takes: self.takes.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            blocked_waits: self.blocked_waits.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            txns_committed: self.txns_committed.load(Ordering::Relaxed),
            txns_aborted: self.txns_aborted.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            shard_contention: self.shard_contention.load(Ordering::Relaxed),
            index_hits: self.index_hits.load(Ordering::Relaxed),
            index_misses: self.index_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_bump() {
        let s = SpaceStats::default();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
        s.record_write(128);
        let snap = s.snapshot();
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.bytes_written, 128);
        assert_eq!(snap.takes, 0);
    }

    #[test]
    fn recordings_fold_into_global_registry() {
        let before = acc_telemetry::registry().snapshot();
        let s = SpaceStats::default();
        s.record_take();
        s.record_index_probe(true);
        let after = acc_telemetry::registry().snapshot();
        assert!(
            after.counters["space.take.count"]
                > *before.counters.get("space.take.count").unwrap_or(&0)
        );
        assert!(
            after.counters["space.index.hits"]
                > *before.counters.get("space.index.hits").unwrap_or(&0)
        );
    }
}
