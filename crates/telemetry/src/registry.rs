//! The unified metrics registry.
//!
//! Series are registered by static name and live forever: a handle
//! ([`Counter`], [`Gauge`], [`Histogram`]) is an `Arc` into the global
//! registry, so instrumented code looks its series up once (typically at
//! construction) and then records through plain relaxed atomics with no
//! further locking. One process-wide registry ([`registry`]) aggregates
//! every layer — tuple space, framework, SNMP, federation, simulator —
//! into a single [`Registry::snapshot`] (what the benchmark's layer table
//! reads), a Prometheus-style text exposition ([`Registry::render_text`])
//! and the `/metrics.json` document ([`Registry::to_json`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::Json;

/// The instant process-level series measure uptime from: first call
/// wins, so every entry point can refresh freely.
pub fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Refreshes the process-level gauges every exporter wants:
/// `process.uptime_seconds` (since [`process_epoch`]) and, where the
/// platform exposes it, `process.threads`. Called by the scrape
/// endpoint per request and by the cluster builder at startup.
pub fn refresh_process_series() {
    registry()
        .gauge("process.uptime_seconds")
        .set(process_epoch().elapsed().as_secs() as i64);
    if let Some(n) = os_thread_count() {
        registry().gauge("process.threads").set(n);
    }
}

#[cfg(target_os = "linux")]
fn os_thread_count() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn os_thread_count() -> Option<i64> {
    None
}

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of every registered series.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by series name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values by series name.
    pub gauges: BTreeMap<&'static str, i64>,
    /// Histogram snapshots by series name.
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
}

impl Snapshot {
    /// Total number of distinct named series in the snapshot.
    pub fn series_count(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }
}

#[derive(Default)]
struct Series {
    counters: BTreeMap<&'static str, Arc<Counter>>,
    gauges: BTreeMap<&'static str, Arc<Gauge>>,
    histograms: BTreeMap<&'static str, Arc<Histogram>>,
}

/// The metrics registry: a name-indexed set of counters, gauges and
/// histograms.
#[derive(Default)]
pub struct Registry {
    series: Mutex<Series>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("Registry")
            .field("counters", &series.counters.len())
            .field("gauges", &series.gauges.len())
            .field("histograms", &series.histograms.len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry (tests; production code uses the global
    /// [`registry()`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Series> {
        // The registry has no lock-poisoning story to tell: all mutation
        // is a BTreeMap insert.
        self.series.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the counter named `name`, registering it on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.lock().counters.entry(name).or_default().clone()
    }

    /// Returns the gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        self.lock().gauges.entry(name).or_default().clone()
    }

    /// Returns the histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.lock().histograms.entry(name).or_default().clone()
    }

    /// Takes a consistent-enough snapshot of every registered series.
    pub fn snapshot(&self) -> Snapshot {
        let series = self.lock();
        Snapshot {
            counters: series
                .counters
                .iter()
                .map(|(name, c)| (*name, c.get()))
                .collect(),
            gauges: series
                .gauges
                .iter()
                .map(|(name, g)| (*name, g.get()))
                .collect(),
            histograms: series
                .histograms
                .iter()
                .map(|(name, h)| (*name, h.snapshot()))
                .collect(),
        }
    }

    /// Renders every series as Prometheus-style text exposition: one
    /// `name value` line per counter/gauge, and per-histogram quantile
    /// lines (`name{q="0.5"} v`) plus `_count`, `_sum` and `_max`.
    pub fn render_text(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for (name, value) in &snap.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &snap.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &snap.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                let v = h.quantile(q).unwrap_or(0);
                out.push_str(&format!("{name}{{q=\"{label}\"}} {v}\n"));
            }
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_max {}\n", h.max));
        }
        out
    }

    /// Every series as the `/metrics.json` document:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name: {count,
    /// sum, max, p50, p90, p99}}}`.
    pub fn to_json(&self) -> Json {
        let snap = self.snapshot();
        let histograms = snap.histograms.iter().map(|(name, h)| (*name, h.to_json()));
        Json::object([
            (
                "counters",
                Json::object(snap.counters.iter().map(|(n, v)| (*n, Json::from(*v)))),
            ),
            (
                "gauges",
                Json::object(snap.gauges.iter().map(|(n, v)| (*n, Json::from(*v)))),
            ),
            ("histograms", Json::object(histograms)),
        ])
    }
}

/// The process-wide registry every layer records into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let r = Registry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counters["x.count"], 3);
    }

    #[test]
    fn gauges_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("x.level");
        g.set(10);
        g.add(-3);
        assert_eq!(r.snapshot().gauges["x.level"], 7);
    }

    #[test]
    fn text_exposition_contains_all_series() {
        let r = Registry::new();
        r.counter("space.write.count").add(5);
        r.gauge("cluster.workers").set(3);
        r.histogram("space.take.wait_us").observe(100);
        let text = r.render_text();
        assert!(text.contains("space.write.count 5"));
        assert!(text.contains("cluster.workers 3"));
        assert!(text.contains("space.take.wait_us{q=\"0.5\"}"));
        assert!(text.contains("space.take.wait_us_count 1"));
        assert!(text.contains("space.take.wait_us_max 100"));
    }

    #[test]
    fn json_dump_is_shaped() {
        let r = Registry::new();
        r.counter("a").inc();
        r.gauge("g").set(-4);
        r.histogram("h_us").observe(7);
        let doc = Json::parse(&r.to_json().to_string()).unwrap();
        assert_eq!(doc["counters"]["a"].as_u64(), Some(1));
        assert_eq!(doc["gauges"]["g"].as_i64(), Some(-4));
        let h = &doc["histograms"]["h_us"];
        for (field, want) in [("count", 1), ("sum", 7), ("max", 7), ("p50", 7)] {
            assert_eq!(h[field].as_u64(), Some(want), "{field} in {doc}");
        }
    }

    #[test]
    fn escaped_json_renders_hostile_series_names_safely() {
        let r = Registry::new();
        r.counter("evil\"name\\with\nstuff").inc();
        let doc = Json::parse(&r.to_json().to_string()).unwrap();
        assert_eq!(doc["counters"]["evil\"name\\with\nstuff"].as_u64(), Some(1));
    }

    #[test]
    fn snapshot_counts_series() {
        let r = Registry::new();
        r.counter("a");
        r.counter("b");
        r.gauge("c");
        r.histogram("d");
        assert_eq!(r.snapshot().series_count(), 4);
    }

    #[test]
    fn global_registry_is_shared() {
        registry().counter("telemetry.test.shared").inc();
        assert!(registry().snapshot().counters["telemetry.test.shared"] >= 1);
    }

    #[test]
    fn process_series_refresh_populates_gauges() {
        refresh_process_series();
        let snap = registry().snapshot();
        assert!(snap.gauges.contains_key("process.uptime_seconds"));
        #[cfg(target_os = "linux")]
        assert!(snap.gauges["process.threads"] >= 1);
    }
}
