//! # acc-telemetry
//!
//! Workspace-wide observability substrate:
//!
//! * [`registry`] — the unified metrics registry: monotone [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket log-scale latency [`Histogram`]s,
//!   registered by static name, with [`Registry::snapshot`], a
//!   Prometheus-style text exposition and a JSON dump for the bench
//!   harness;
//! * [`trace`] — the structured-tracing facade: [`span!`]/[`event!`]
//!   with key–value fields, thread-local span depth, and pluggable
//!   [`Subscriber`]s (no-op default, stderr writer, ring-buffer capture
//!   for tests);
//! * [`context`] — distributed trace propagation: a thread-local
//!   [`TraceContext`] every span inherits, serialisable across process
//!   boundaries, plus the [`TraceAssembler`] that stitches per-process
//!   dumps into one cross-process tree;
//! * [`flight`] — the always-on bounded flight recorder (last N records
//!   per thread, written in place without allocating or locking), dumped
//!   on demand or from a panic hook, with tail-based trace retention for
//!   slow or errored tasks; [`clock`] is the tick counter it stamps
//!   records with;
//! * [`profile`] — per-job waterfall profiles: phase totals, the
//!   reconstructed critical path, and a one-word bound verdict with its
//!   evidence;
//! * [`ring`] — bounded time-series history: fixed-depth rings of
//!   `(timestamp, value)` samples with windowed min/max/mean/p99
//!   queries, feeding the cluster federation plane and the adaptive
//!   decision input;
//! * [`http`] — the std-only scrape endpoint serving `/metrics`,
//!   `/metrics.json`, `/healthz`, `/spans` and any extra routes a
//!   component mounts (the framework adds `/cluster`).
//!
//! Both halves are built to be left in hot paths permanently:
//!
//! * counters and histograms record through relaxed atomics — no locks,
//!   no allocation;
//! * with no trace sink active, `span!`/`event!` cost one relaxed
//!   atomic load and a branch (single-digit nanoseconds) and build no
//!   fields; with the flight recorder on, a record is one tick-counter
//!   read and at most twelve plain stores;
//! * operation-latency *timing* (the two `Instant::now` calls around an
//!   op) is gated separately by [`set_timing`], so the tuple space's
//!   sub-microsecond write path pays nothing until a deployment opts in
//!   (the framework's `ClusterBuilder` does).
//!
//! Like the `shim-*` crates, this crate depends on nothing outside `std`.
//!
//! # Naming conventions
//!
//! Series names are dotted paths, `layer.operation.measure`, with the
//! unit as the last suffix where one applies: `space.take.wait_us`,
//! `snmp.poll.rtt_us`, `worker.transition`, `federation.lease.granted`.

#![warn(missing_docs)]

pub mod clock;
pub mod context;
pub mod flight;
pub mod histogram;
pub mod http;
pub mod profile;
pub mod registry;
pub mod ring;
pub mod trace;

pub use context::{ContextGuard, SpanRecord, TraceAssembler, TraceContext};
pub use histogram::{Histogram, HistogramSnapshot};
pub use http::{serve, serve_routed, HealthChecks, HealthResult, HttpOptions, HttpServer, Routes};
pub use profile::{BoundVerdict, CriticalPath, JobProfile, PathSegment, PhaseTotals, ShardPhase};
pub use registry::{
    json_escape, json_unescape, refresh_process_series, registry, Counter, Gauge, Registry,
    Snapshot,
};
pub use ring::{HistoryRing, RingSample, RingStats, SortedWindow, DEFAULT_DEPTH};
pub use trace::{
    init_from_env, install, uninstall, RingBufferSubscriber, StderrSubscriber, Subscriber,
    TraceEvent, TraceKind,
};

/// Serialises tests (here and across modules) that mutate process-global
/// trace state: subscriber installation and the flight-recorder bit.
#[cfg(test)]
pub(crate) static TEST_EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static TIMING: AtomicBool = AtomicBool::new(false);

/// True when operation-latency timing is on (see [`set_timing`]).
#[inline]
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// Globally enables or disables operation-latency timing. Off by default
/// so micro-benchmarks of uninstrumented paths pay nothing; the framework
/// turns it on when a cluster is built.
pub fn set_timing(on: bool) {
    TIMING.store(on, Ordering::Relaxed);
}

/// A conditionally started stopwatch for operation-latency histograms:
/// holds a start `Instant` only while [`timing_enabled`] — otherwise both
/// `start` and `observe` are a load and a branch.
#[derive(Debug)]
pub struct Timed(Option<Instant>);

impl Timed {
    /// Starts the stopwatch if timing is enabled.
    #[inline]
    pub fn start() -> Timed {
        Timed(timing_enabled().then(Instant::now))
    }

    /// Records the elapsed microseconds into `histogram` (no-op when the
    /// stopwatch never started).
    #[inline]
    pub fn observe(&self, histogram: &Histogram) {
        if let Some(start) = self.0 {
            histogram.observe(start.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_is_inert_when_disabled() {
        set_timing(false);
        let h = Histogram::new();
        let t = Timed::start();
        t.observe(&h);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn timed_records_when_enabled() {
        set_timing(true);
        let h = Histogram::new();
        let t = Timed::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.observe(&h);
        set_timing(false);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.max >= 1_000, "slept 2 ms, saw {} us", snap.max);
    }
}
