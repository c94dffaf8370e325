//! # acc-telemetry
//!
//! Workspace-wide observability substrate:
//!
//! * [`registry`](mod@registry) — the unified metrics registry: monotone
//!   [`Counter`]s, [`Gauge`]s and fixed-bucket log-scale latency [`Histogram`]s,
//!   registered by static name, with [`Registry::snapshot`] (what the
//!   benchmark reads), a Prometheus-style text exposition and the
//!   `/metrics.json` document;
//! * [`json`] — the one JSON writer and parser every document goes
//!   through;
//! * [`trace`] — structured tracing: [`span!`]/[`event!`] with
//!   key–value fields, recorded by the flight recorder while it is on;
//! * [`context`] — distributed trace propagation: a thread-local
//!   [`TraceContext`] every span inherits, serialisable across process
//!   boundaries, plus the [`TraceAssembler`] that stitches per-process
//!   dumps into one cross-process tree;
//! * [`flight`] — the always-on bounded flight recorder, the one sink of
//!   every span and event (last N records per thread, written in place
//!   without allocating or locking), dumped on demand or from a panic
//!   hook, with tail-based trace retention for slow or errored tasks;
//!   [`clock`] is the tick counter it stamps records with;
//! * [`profile`] — per-job waterfall profiles: phase totals, the
//!   reconstructed critical path, and a one-word bound verdict with its
//!   evidence;
//! * [`ring`] — bounded time-series history: fixed-depth rings of
//!   `(timestamp, value)` samples with windowed min/max/mean/p99
//!   queries, feeding the cluster view;
//! * [`http`] — the std-only scrape endpoint serving `/metrics`,
//!   `/metrics.json`, `/healthz`, `/spans` and any extra routes a
//!   component mounts (the framework adds `/cluster.json` and
//!   `/profile.json`).
//!
//! Both halves are built to be left in hot paths permanently:
//!
//! * counters and histograms record through relaxed atomics — no locks,
//!   no allocation;
//! * with the flight recorder off, `span!`/`event!` cost one relaxed
//!   atomic load and a branch (single-digit nanoseconds) and build no
//!   fields; with it on, a record is one tick-counter read and at most
//!   twelve plain stores.
//!
//! Like the `shim-*` crates, this crate depends on nothing outside `std`.
//!
//! # Naming conventions
//!
//! Series names are dotted paths, `layer.operation.measure`, with the
//! unit as the last suffix where one applies: `space.write.count`,
//! `grid.shard0.op_us`, `remote.frame_bytes`. Every series names its
//! reader other than `/metrics` — or why it stays without one — in the
//! workspace's registry audit (`tests/registry_audit.rs`).

#![warn(missing_docs)]

pub mod clock;
pub mod context;
pub mod flight;
pub mod histogram;
pub mod http;
pub mod json;
pub mod profile;
pub mod registry;
pub mod ring;
pub mod trace;

pub use context::{ContextGuard, SpanRecord, TraceAssembler, TraceContext};
pub use histogram::{Histogram, HistogramSnapshot};
pub use http::{serve, serve_routed, HealthChecks, HealthResult, HttpOptions, HttpServer, Routes};
pub use json::Json;
pub use profile::{BoundVerdict, CriticalPath, JobProfile, PathSegment, PhaseTotals, ShardPhase};
pub use registry::{refresh_process_series, registry, Counter, Gauge, Registry, Snapshot};
pub use ring::{HistoryRing, RingSample, RingStats, SortedWindow, DEFAULT_DEPTH};

/// Test support shared by the modules' tests.
#[cfg(test)]
mod tests {
    use crate::flight;

    /// Serialises tests that mutate process-global trace state: the
    /// flight recorder's switch, its rings and the retained set.
    pub(crate) static TEST_EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A test's hold on the flight recorder: [`TEST_EXCLUSIVE`], with the
    /// recorder installed and emptied and no trace retained. Dropping it —
    /// also while a failed assertion unwinds — turns the recorder off and
    /// empties it again, so no test leaves it on for the next.
    pub(crate) struct Recording {
        _exclusive: std::sync::MutexGuard<'static, ()>,
    }

    impl Recording {
        pub(crate) fn start() -> Recording {
            let exclusive = TEST_EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
            flight::install();
            flight::clear();
            flight::clear_retained();
            Recording {
                _exclusive: exclusive,
            }
        }
    }

    impl Drop for Recording {
        fn drop(&mut self) {
            flight::uninstall();
            flight::clear();
            flight::clear_retained();
        }
    }
}
