//! # acc-telemetry
//!
//! Workspace-wide observability substrate:
//!
//! * [`registry`] — the unified metrics registry: monotone [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket log-scale latency [`Histogram`]s,
//!   registered by static name, with [`Registry::snapshot`] (what the
//!   benchmark reads), a Prometheus-style text exposition and the
//!   `/metrics.json` document;
//! * [`json`] — the one JSON writer and parser every document goes
//!   through;
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
//! * with no trace sink active, `span!`/`event!` cost one relaxed
//!   atomic load and a branch (single-digit nanoseconds) and build no
//!   fields; with the flight recorder on, a record is one tick-counter
//!   read and at most twelve plain stores.
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
pub use trace::{
    init_from_env, install, uninstall, RingBufferSubscriber, StderrSubscriber, Subscriber,
    TraceEvent, TraceKind,
};

/// Serialises tests (here and across modules) that mutate process-global
/// trace state: subscriber installation and the flight-recorder bit.
#[cfg(test)]
pub(crate) static TEST_EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());
