//! Cluster-wide metric federation through the tuple space itself.
//!
//! The paper's adaptive loop is only as informed as what the monitoring
//! agent can see. This module gives it a cluster view instead of a
//! last-sample view:
//!
//! * workers (and the space server) periodically publish a compact
//!   [`MetricsReport`] heartbeat tuple — type [`METRICS_TYPE`], payload a
//!   versioned little-endian byte record in the same style as the `tctx`
//!   trace-context field;
//! * a master-side [`ClusterObserver`] collects those tuples, folds them
//!   into per-worker [`HistoryRing`]s (bounded time series), mirrors the
//!   latest values into the global registry under `cluster.<worker>.*`,
//!   and renders the whole table for the `/cluster` route (text + JSON);
//! * result tuples carry a [`TaskTiming`] attribution record
//!   (space-wait, transfer, compute, result-write), aggregated into
//!   per-worker and per-job histograms;
//! * a straggler detector flags workers whose median compute time
//!   exceeds `k ×` the median of their peers' medians;
//! * the observer implements [`DecisionInput`], so the monitoring agent's
//!   exclusion decisions can use load *trends* and straggler flags, not
//!   only the instantaneous SNMP sample.
//!
//! Everything here is off the hot path by construction: heartbeats are
//! second-scale and jittered ([`jittered_interval`]), attribution is one
//! histogram observe per *completed task*, and an unobserved (v0-style)
//! worker that never publishes simply falls back to raw SNMP samples —
//! the same probe-and-fallback posture as the wire protocol.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use acc_telemetry::{registry, Histogram, HistoryRing, RingStats};
use acc_tuplespace::{Template, Tuple};
use parking_lot::Mutex;

/// Tuple type of the heartbeat/metric tuples workers publish.
pub const METRICS_TYPE: &str = "acc.metrics";

/// Current version byte of the [`MetricsReport`] body encoding.
const REPORT_VERSION: u8 = 1;
/// Current version byte of the [`TaskTiming`] encoding.
const TIMING_VERSION: u8 = 1;

/// Wall-clock milliseconds since the Unix epoch.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One heartbeat: a worker's (or the space server's) self-reported state
/// at a point in time. Rides the space as an [`METRICS_TYPE`] tuple with
/// the numeric payload packed into a single versioned bytes field, so
/// the whole report costs one tuple write per interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// Reporting entity: a worker name, or `space:<name>` for the space
    /// server's self-report.
    pub worker: String,
    /// Monotone per-worker sequence number; the collector is idempotent
    /// by `(worker, seq)`, which is what makes duplicate and late
    /// heartbeats harmless.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch at publication.
    pub at_ms: u64,
    /// Total CPU load percentage (0–100) seen by the reporter.
    pub total_load: u64,
    /// The framework's own share of that load (0–100).
    pub framework_load: u64,
    /// Tasks completed so far (cumulative).
    pub tasks_done: u64,
}

impl MetricsReport {
    /// Packs the numeric payload: version byte, then five `u64`s
    /// little-endian (seq, at_ms, total_load, framework_load,
    /// tasks_done) — 41 bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(41);
        out.push(REPORT_VERSION);
        for v in [
            self.seq,
            self.at_ms,
            self.total_load,
            self.framework_load,
            self.tasks_done,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes an [`MetricsReport::encode`] payload for `worker`. `None`
    /// on a short body or an unknown version (a newer publisher talking
    /// to an older collector — skip, don't crash).
    pub fn decode(worker: &str, body: &[u8]) -> Option<MetricsReport> {
        if body.len() < 41 || body[0] != REPORT_VERSION {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(body[1 + i * 8..9 + i * 8].try_into().unwrap());
        Some(MetricsReport {
            worker: worker.to_owned(),
            seq: word(0),
            at_ms: word(1),
            total_load: word(2),
            framework_load: word(3),
            tasks_done: word(4),
        })
    }

    /// The tuple form written into the space.
    pub fn to_tuple(&self) -> Tuple {
        Tuple::build(METRICS_TYPE)
            .field("worker", self.worker.as_str())
            .field("seq", self.seq as i64)
            .field("body", self.encode())
            .done()
    }

    /// Parses a [`METRICS_TYPE`] tuple back into a report.
    pub fn from_tuple(tuple: &Tuple) -> Option<MetricsReport> {
        if tuple.type_name() != METRICS_TYPE {
            return None;
        }
        MetricsReport::decode(tuple.get_str("worker")?, tuple.get_bytes("body")?)
    }
}

/// The template a collector takes heartbeat tuples with.
pub fn metrics_template() -> Template {
    Template::of_type(METRICS_TYPE)
}

/// Per-task cost attribution, carried on result tuples as a compact
/// bytes field: where did this task's wall-clock go?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskTiming {
    /// Microseconds the worker waited on the space for the take that
    /// delivered this task (full round-trip, charged to the first task
    /// of a prefetch batch).
    pub wait_us: u64,
    /// Microseconds of transfer cost amortised per task (batch
    /// round-trip divided by batch size).
    pub xfer_us: u64,
    /// Microseconds of pure compute.
    pub compute_us: u64,
    /// Microseconds spent writing the *previous* result back (a worker
    /// can't know its own result-write cost before writing; the next
    /// task carries it).
    pub write_us: u64,
}

impl TaskTiming {
    /// Version byte plus four little-endian `u64`s — 33 bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(33);
        out.push(TIMING_VERSION);
        for v in [self.wait_us, self.xfer_us, self.compute_us, self.write_us] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes [`TaskTiming::to_bytes`]; `None` on short/unknown input.
    pub fn from_bytes(body: &[u8]) -> Option<TaskTiming> {
        if body.len() < 33 || body[0] != TIMING_VERSION {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(body[1 + i * 8..9 + i * 8].try_into().unwrap());
        Some(TaskTiming {
            wait_us: word(0),
            xfer_us: word(1),
            compute_us: word(2),
            write_us: word(3),
        })
    }
}

/// The monitoring agent's pluggable view of the federation plane.
///
/// The default implementation of every method is the v0 behaviour
/// (pass raw samples through, flag nothing), so an agent without an
/// observer — or an observer that has never heard from a worker —
/// degrades to exactly the paper's last-SNMP-sample loop.
pub trait DecisionInput: Send + Sync {
    /// Called on every SNMP poll with the raw external/total load split.
    fn on_load_sample(&self, _worker: &str, _external: u64, _total: u64) {}

    /// The load value the inference engine should act on; defaults to
    /// the raw sample (unknown workers fall back unchanged).
    fn effective_load(&self, _worker: &str, raw: u64) -> u64 {
        raw
    }

    /// True when the federation plane has flagged this worker as a
    /// compute straggler (and it should be treated as overloaded).
    fn is_straggler(&self, _worker: &str) -> bool {
        false
    }
}

/// A no-op [`DecisionInput`]: the v0 monitoring loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct RawSamples;

impl DecisionInput for RawSamples {}

/// Tuning for the observer's rings and straggler detector.
#[derive(Debug, Clone, Copy)]
pub struct ObserverConfig {
    /// Samples retained per history ring.
    pub history_depth: usize,
    /// Straggler threshold: flagged when a worker's median compute time
    /// exceeds `k ×` the median of its peers' median compute times.
    /// Values below 1 are treated as 1.
    pub straggler_k: f64,
    /// Minimum completed tasks before a worker can be judged at all.
    pub straggler_min_samples: u64,
}

impl Default for ObserverConfig {
    fn default() -> ObserverConfig {
        ObserverConfig {
            history_depth: acc_telemetry::DEFAULT_DEPTH,
            straggler_k: 4.0,
            straggler_min_samples: 5,
        }
    }
}

/// Registry mirror handles for one worker, registered once under leaked
/// `cluster.<worker>.*` names (the registry keys by `&'static str`; the
/// leak is bounded by workers × series).
#[derive(Debug)]
struct MirrorSeries {
    load: Arc<acc_telemetry::Gauge>,
    framework_load: Arc<acc_telemetry::Gauge>,
    tasks_done: Arc<acc_telemetry::Gauge>,
}

impl MirrorSeries {
    fn new(worker: &str) -> MirrorSeries {
        let leaked = |suffix: &str| -> &'static str {
            Box::leak(format!("cluster.{worker}.{suffix}").into_boxed_str())
        };
        MirrorSeries {
            load: registry().gauge(leaked("load")),
            framework_load: registry().gauge(leaked("framework_load")),
            tasks_done: registry().gauge(leaked("tasks_done")),
        }
    }
}

/// Everything the observer knows about one reporting entity.
#[derive(Debug)]
struct WorkerView {
    /// Highest heartbeat sequence number ingested (dedupe watermark).
    last_seq: u64,
    /// Wall-clock ms of the newest heartbeat.
    last_heartbeat_ms: u64,
    /// External (non-framework) load samples, fed by the SNMP poll loop.
    load: HistoryRing,
    /// Framework-load samples from heartbeats.
    framework_load: HistoryRing,
    /// Cumulative tasks-done samples from heartbeats (for throughput).
    tasks: HistoryRing,
    /// Per-worker compute-time histogram (µs), from task attribution.
    compute: Histogram,
    /// Aggregate non-compute attribution (µs), for the table.
    wait_us: u64,
    xfer_us: u64,
    write_us: u64,
    mirror: MirrorSeries,
}

impl WorkerView {
    fn new(worker: &str, depth: usize) -> WorkerView {
        WorkerView {
            last_seq: 0,
            last_heartbeat_ms: 0,
            load: HistoryRing::new(depth),
            framework_load: HistoryRing::new(depth),
            tasks: HistoryRing::new(depth),
            compute: Histogram::new(),
            wait_us: 0,
            xfer_us: 0,
            write_us: 0,
            mirror: MirrorSeries::new(worker),
        }
    }

    fn tasks_done(&self) -> u64 {
        self.tasks.stats().last.max(0) as u64
    }

    /// Tasks per second over the heartbeat window (0.0 with < 2 samples).
    fn throughput(&self) -> f64 {
        let samples = self.tasks.samples();
        let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
            return 0.0;
        };
        let span_ms = last.at_ms.saturating_sub(first.at_ms);
        if span_ms == 0 {
            return 0.0;
        }
        let done = (last.value - first.value).max(0) as f64;
        done * 1000.0 / span_ms as f64
    }
}

/// The master-side collector: ingests heartbeat tuples, folds SNMP load
/// samples and task attribution into bounded history, detects
/// stragglers, and renders the `/cluster` view. Doubles as the
/// monitoring agent's [`DecisionInput`].
#[derive(Debug)]
pub struct ClusterObserver {
    config: ObserverConfig,
    workers: Mutex<BTreeMap<String, WorkerView>>,
    /// Per-job compute histograms (µs), keyed by job name.
    jobs: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl ClusterObserver {
    /// An observer with the given tuning.
    pub fn new(config: ObserverConfig) -> ClusterObserver {
        ClusterObserver {
            config,
            workers: Mutex::new(BTreeMap::new()),
            jobs: Mutex::new(BTreeMap::new()),
        }
    }

    /// The active tuning.
    pub fn config(&self) -> ObserverConfig {
        self.config
    }

    /// Ingests one heartbeat. Returns `false` (and changes nothing) for
    /// a duplicate or out-of-order report — the collector is idempotent
    /// by `(worker, seq)`, so redelivered or late tuples are harmless.
    pub fn ingest(&self, report: &MetricsReport) -> bool {
        let mut workers = self.workers.lock();
        let view = workers
            .entry(report.worker.clone())
            .or_insert_with(|| WorkerView::new(&report.worker, self.config.history_depth));
        if view.last_seq != 0 && report.seq <= view.last_seq {
            return false;
        }
        view.last_seq = report.seq;
        view.last_heartbeat_ms = report.at_ms;
        view.framework_load
            .record(report.at_ms, report.framework_load as i64);
        view.tasks.record(report.at_ms, report.tasks_done as i64);
        view.mirror.framework_load.set(report.framework_load as i64);
        view.mirror.tasks_done.set(report.tasks_done as i64);
        true
    }

    /// Folds one SNMP poll sample (external = total − framework) into
    /// the worker's load ring. Fed by [`DecisionInput::on_load_sample`].
    pub fn record_load_sample(&self, worker: &str, external: u64, _total: u64) {
        let mut workers = self.workers.lock();
        let view = workers
            .entry(worker.to_owned())
            .or_insert_with(|| WorkerView::new(worker, self.config.history_depth));
        view.load.record(now_ms(), external as i64);
        view.mirror.load.set(external as i64);
    }

    /// Records one completed task's cost attribution under its worker
    /// and job.
    pub fn record_attribution(&self, job: &str, worker: &str, timing: &TaskTiming) {
        {
            let mut workers = self.workers.lock();
            let view = workers
                .entry(worker.to_owned())
                .or_insert_with(|| WorkerView::new(worker, self.config.history_depth));
            view.compute.observe(timing.compute_us);
            view.wait_us += timing.wait_us;
            view.xfer_us += timing.xfer_us;
            view.write_us += timing.write_us;
        }
        let hist = {
            let mut jobs = self.jobs.lock();
            jobs.entry(job.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new()))
                .clone()
        };
        hist.observe(timing.compute_us);
    }

    /// Number of distinct reporting entities seen so far.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }

    /// History depth of one worker's heartbeat ring (0 if unknown) —
    /// the "has it really reported?" probe used by tests and CI.
    pub fn history_len(&self, worker: &str) -> usize {
        self.workers
            .lock()
            .get(worker)
            .map(|v| v.framework_load.len())
            .unwrap_or(0)
    }

    /// Workers currently flagged as compute stragglers: median compute
    /// time exceeding `k ×` the median of their *peers'* medians. Like is
    /// compared with like — a worker's typical task against its peers'
    /// typical task — so neither tasks of unequal cost (every worker's
    /// tail is then far above every median) nor one preempted task among
    /// thousands of cheap ones reads as a slow worker. Needs at least two
    /// qualifying workers — an outlier is only meaningful relative to
    /// peers.
    pub fn stragglers(&self) -> Vec<String> {
        let workers = self.workers.lock();
        let medians: Vec<(&String, u64)> = workers
            .iter()
            .filter_map(|(name, view)| {
                let snap = view.compute.snapshot();
                (snap.count >= self.config.straggler_min_samples)
                    .then(|| (name, snap.p50().unwrap_or(0)))
            })
            .collect();
        if medians.len() < 2 {
            return Vec::new();
        }
        // `k >= 1` is what keeps the whole pool from being flagged at once
        // (which would stop every worker): the fastest worker's median
        // cannot exceed any multiple >= 1 of its peers', so one worker
        // always survives as the pool's baseline.
        let k = self.config.straggler_k.max(1.0);
        let mut sorted: Vec<u64> = medians.iter().map(|&(_, median)| median).collect();
        sorted.sort_unstable();
        // A worker's peers are `sorted` minus its own entry. Their median
        // is the upper one on even counts: a worker is an outlier when it
        // is slow against most of its peers, not against the fastest.
        let mid = (sorted.len() - 1) / 2;
        medians
            .iter()
            .filter(|&&(_, own)| {
                let own_rank = sorted.partition_point(|&median| median < own);
                let baseline = sorted[if mid < own_rank { mid } else { mid + 1 }].max(1);
                own as f64 > baseline as f64 * k
            })
            .map(|&(name, _)| name.clone())
            .collect()
    }

    /// The aligned text table behind `GET /cluster`.
    pub fn render_text(&self) -> String {
        let stragglers = self.stragglers();
        let workers = self.workers.lock();
        let now = now_ms();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>5} {:>5} {:>7} {:>8} {:>9} {:>9} {:>7} {:>5}  {}\n",
            "WORKER",
            "LOAD",
            "FW",
            "TASKS",
            "TASK/S",
            "CP50(us)",
            "CP99(us)",
            "HB_AGE",
            "HIST",
            "FLAGS"
        ));
        for (name, view) in workers.iter() {
            let load = view.load.stats();
            let fw = view.framework_load.stats();
            let compute = view.compute.snapshot();
            let age = if view.last_heartbeat_ms == 0 {
                "-".to_owned()
            } else {
                format!("{}ms", now.saturating_sub(view.last_heartbeat_ms))
            };
            let flags = if stragglers.contains(name) {
                "STRAGGLER"
            } else {
                ""
            };
            out.push_str(&format!(
                "{:<18} {:>5} {:>5} {:>7} {:>8.1} {:>9} {:>9} {:>7} {:>5}  {}\n",
                name,
                load.last,
                fw.last,
                view.tasks_done(),
                view.throughput(),
                compute.p50().unwrap_or(0),
                compute.p99().unwrap_or(0),
                age,
                view.framework_load.len(),
                flags
            ));
        }
        if workers.is_empty() {
            out.push_str("(no workers have reported yet)\n");
        }
        out
    }

    /// The JSON document behind `GET /cluster.json`.
    pub fn render_json(&self) -> String {
        let stragglers = self.stragglers();
        let workers = self.workers.lock();
        let jobs = self.jobs.lock();
        let now = now_ms();
        let ring_json = |stats: &RingStats, len: usize| {
            format!(
                "{{\"samples\":{},\"last\":{},\"min\":{},\"max\":{},\"mean\":{:.2},\"p99\":{},\"depth\":{}}}",
                stats.samples, stats.last, stats.min, stats.max, stats.mean, stats.p99, len
            )
        };
        let hist_json = |h: &Histogram| {
            let s = h.snapshot();
            format!(
                "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                s.count,
                s.sum,
                s.max,
                s.p50().unwrap_or(0),
                s.p90().unwrap_or(0),
                s.p99().unwrap_or(0)
            )
        };
        let mut out = String::from("{\"workers\":{");
        let mut first = true;
        for (name, view) in workers.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"load\":{},\"framework_load\":{},\"tasks_done\":{},\"throughput_per_s\":{:.3},\"compute_us\":{},\"wait_us\":{},\"xfer_us\":{},\"write_us\":{},\"last_seq\":{},\"heartbeat_age_ms\":{},\"history_samples\":{},\"straggler\":{}}}",
                acc_telemetry::json_escape(name),
                ring_json(&view.load.stats(), view.load.len()),
                ring_json(&view.framework_load.stats(), view.framework_load.len()),
                view.tasks_done(),
                view.throughput(),
                hist_json(&view.compute),
                view.wait_us,
                view.xfer_us,
                view.write_us,
                view.last_seq,
                if view.last_heartbeat_ms == 0 {
                    -1
                } else {
                    now.saturating_sub(view.last_heartbeat_ms) as i64
                },
                view.framework_load.len(),
                stragglers.contains(name)
            ));
        }
        out.push_str("},\"jobs\":{");
        let mut first = true;
        for (name, hist) in jobs.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{}",
                acc_telemetry::json_escape(name),
                hist_json(hist)
            ));
        }
        out.push_str("},\"stragglers\":[");
        let mut first = true;
        for name in &stragglers {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\"", acc_telemetry::json_escape(name)));
        }
        out.push_str("]}");
        out
    }
}

impl DecisionInput for ClusterObserver {
    fn on_load_sample(&self, worker: &str, external: u64, total: u64) {
        self.record_load_sample(worker, external, total);
    }

    /// The load the inference engine should act on: a flagged straggler
    /// reads as saturated (force exclusion); otherwise the raw sample is
    /// floored by the recent mean so one optimistic poll can't instantly
    /// undo a sustained-load trend. A worker with no history gets the
    /// raw sample back — the v0 fallback.
    fn effective_load(&self, worker: &str, raw: u64) -> u64 {
        if self.is_straggler(worker) {
            return 100;
        }
        let workers = self.workers.lock();
        let Some(view) = workers.get(worker) else {
            return raw;
        };
        let stats = view.load.stats();
        if stats.samples < 2 {
            return raw;
        }
        raw.max(stats.mean.round() as u64).min(100)
    }

    fn is_straggler(&self, worker: &str) -> bool {
        self.stragglers().iter().any(|w| w == worker)
    }
}

/// Deterministic jitter for heartbeat publication: the base interval
/// skewed by ±25% as a pure function of `(worker, seq)`, so every
/// worker drifts off the common phase (no thundering herd on the
/// space) while tests stay reproducible.
pub fn jittered_interval(base: Duration, worker: &str, seq: u64) -> Duration {
    // FNV-1a over the worker name, mixed with the sequence number via
    // a splitmix64 finaliser.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in worker.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = hash ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Map to [-0.25, +0.25).
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    let skew = 0.75 + unit * 0.5;
    Duration::from_nanos((base.as_nanos() as f64 * skew) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(worker: &str, seq: u64, at_ms: u64) -> MetricsReport {
        MetricsReport {
            worker: worker.to_owned(),
            seq,
            at_ms,
            total_load: 40 + seq,
            framework_load: 10 + seq,
            tasks_done: seq * 3,
        }
    }

    #[test]
    fn report_roundtrips_through_tuple() {
        let r = report("w0", 7, 123_456);
        let decoded = MetricsReport::from_tuple(&r.to_tuple()).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn decode_rejects_short_and_versioned_garbage() {
        assert_eq!(MetricsReport::decode("w", &[]), None);
        assert_eq!(MetricsReport::decode("w", &[9; 41]), None);
        let mut body = report("w", 1, 2).encode();
        body[0] = 99;
        assert_eq!(MetricsReport::decode("w", &body), None);
    }

    #[test]
    fn timing_roundtrips() {
        let t = TaskTiming {
            wait_us: 1,
            xfer_us: 2,
            compute_us: 3,
            write_us: 4,
        };
        assert_eq!(TaskTiming::from_bytes(&t.to_bytes()), Some(t));
        assert_eq!(TaskTiming::from_bytes(&[1, 2]), None);
    }

    #[test]
    fn collector_is_idempotent_by_worker_and_seq() {
        let obs = ClusterObserver::new(ObserverConfig::default());
        assert!(obs.ingest(&report("w0", 1, 100)));
        assert!(obs.ingest(&report("w0", 2, 200)));
        // Exact duplicate (redelivered tuple): ignored.
        assert!(!obs.ingest(&report("w0", 2, 200)));
        // Late heartbeat arriving after a newer one: ignored.
        assert!(!obs.ingest(&report("w0", 1, 100)));
        assert_eq!(obs.history_len("w0"), 2);
        // Another worker's seq space is independent.
        assert!(obs.ingest(&report("w1", 1, 150)));
        assert_eq!(obs.worker_count(), 2);
    }

    #[test]
    fn straggler_flagged_only_past_k_times_median() {
        let config = ObserverConfig {
            straggler_k: 3.0,
            straggler_min_samples: 5,
            ..ObserverConfig::default()
        };
        let obs = ClusterObserver::new(config);
        for _ in 0..20 {
            obs.record_attribution(
                "job",
                "fast-0",
                &TaskTiming {
                    compute_us: 1_000,
                    ..TaskTiming::default()
                },
            );
            obs.record_attribution(
                "job",
                "fast-1",
                &TaskTiming {
                    compute_us: 1_100,
                    ..TaskTiming::default()
                },
            );
            obs.record_attribution(
                "job",
                "slow",
                &TaskTiming {
                    compute_us: 50_000,
                    ..TaskTiming::default()
                },
            );
        }
        assert_eq!(obs.stragglers(), vec!["slow".to_owned()]);
        assert!(obs.is_straggler("slow"));
        assert!(!obs.is_straggler("fast-0"));
        assert_eq!(obs.effective_load("slow", 0), 100);
    }

    #[test]
    fn whole_pool_is_never_flagged_at_once() {
        // Two workers, one four times slower, and a `k` that — taken at
        // its word — would flag any worker at all slower than a fifth of
        // its peer. Flagging both would stop every worker in the cluster:
        // `k` is floored at 1, so the faster one always survives as the
        // baseline.
        let config = ObserverConfig {
            straggler_k: 0.2,
            straggler_min_samples: 2,
            ..ObserverConfig::default()
        };
        let obs = ClusterObserver::new(config);
        for (worker, us) in [("meh", 10_000u64), ("worse", 40_000)] {
            for i in 0..5 {
                obs.record_attribution(
                    "job",
                    worker,
                    &TaskTiming {
                        compute_us: us + i,
                        ..TaskTiming::default()
                    },
                );
            }
        }
        assert_eq!(obs.stragglers(), vec!["worse".to_owned()]);
        assert!(!obs.is_straggler("meh"));
    }

    fn record_compute(obs: &ClusterObserver, worker: &str, compute_us: u64) {
        obs.record_attribution(
            "job",
            worker,
            &TaskTiming {
                compute_us,
                ..TaskTiming::default()
            },
        );
    }

    #[test]
    fn tasks_of_unequal_cost_do_not_make_healthy_workers_stragglers() {
        // A ray-traced scene: most strips are cheap, some cost 40x as
        // much, and both workers get the same mix. Every worker's tail is
        // far beyond 4x any median; no worker is slow.
        let obs = ClusterObserver::new(ObserverConfig::default());
        for i in 0..40 {
            let cost = if i % 4 == 0 { 40_000 } else { 1_000 };
            record_compute(&obs, "w0", cost);
            record_compute(&obs, "w1", cost + 50);
        }
        assert!(obs.stragglers().is_empty(), "{:?}", obs.stragglers());
    }

    #[test]
    fn one_preempted_task_does_not_make_a_healthy_worker_a_straggler() {
        // Zero-compute tasks, one of which lost the CPU for a timeslice.
        let obs = ClusterObserver::new(ObserverConfig::default());
        for _ in 0..50 {
            record_compute(&obs, "w0", 1);
            record_compute(&obs, "w1", 1);
        }
        record_compute(&obs, "w1", 4_000);
        assert!(obs.stragglers().is_empty(), "{:?}", obs.stragglers());
    }

    #[test]
    fn straggler_needs_peers_and_samples() {
        let obs = ClusterObserver::new(ObserverConfig::default());
        // One worker alone can't be an outlier.
        for _ in 0..10 {
            obs.record_attribution(
                "j",
                "only",
                &TaskTiming {
                    compute_us: 99_999,
                    ..TaskTiming::default()
                },
            );
        }
        assert!(obs.stragglers().is_empty());
        // A second worker below min_samples doesn't qualify the pool.
        obs.record_attribution(
            "j",
            "newcomer",
            &TaskTiming {
                compute_us: 10,
                ..TaskTiming::default()
            },
        );
        assert!(obs.stragglers().is_empty());
    }

    #[test]
    fn effective_load_floors_raw_by_trend_and_falls_back_when_unknown() {
        let obs = ClusterObserver::new(ObserverConfig::default());
        // Unknown worker: raw passes through (v0 fallback).
        assert_eq!(obs.effective_load("ghost", 42), 42);
        // Sustained high load: one optimistic sample is floored.
        for _ in 0..10 {
            obs.record_load_sample("w0", 80, 90);
        }
        assert_eq!(obs.effective_load("w0", 5), 80);
        // Raw above the mean wins.
        assert_eq!(obs.effective_load("w0", 95), 95);
    }

    #[test]
    fn render_covers_workers_jobs_and_stragglers() {
        let obs = ClusterObserver::new(ObserverConfig::default());
        obs.ingest(&report("w0", 1, now_ms()));
        obs.record_load_sample("w0", 12, 30);
        obs.record_attribution(
            "pricing",
            "w0",
            &TaskTiming {
                wait_us: 5,
                xfer_us: 6,
                compute_us: 700,
                write_us: 8,
            },
        );
        let text = obs.render_text();
        assert!(text.contains("WORKER"), "{text}");
        assert!(text.contains("w0"), "{text}");
        let json = obs.render_json();
        assert!(json.contains("\"w0\""), "{json}");
        assert!(json.contains("\"history_samples\":1"), "{json}");
        assert!(json.contains("\"pricing\""), "{json}");
        assert!(json.contains("\"stragglers\":[]"), "{json}");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let base = Duration::from_millis(1_000);
        let a = jittered_interval(base, "w0", 3);
        let b = jittered_interval(base, "w0", 3);
        assert_eq!(a, b);
        let mut distinct = std::collections::BTreeSet::new();
        for seq in 0..50 {
            let d = jittered_interval(base, "w0", seq);
            assert!(d >= Duration::from_millis(750), "{d:?}");
            assert!(d < Duration::from_millis(1_250), "{d:?}");
            distinct.insert(d);
        }
        assert!(distinct.len() > 10, "jitter barely varies: {distinct:?}");
    }

    #[test]
    fn registry_mirror_appears_under_cluster_prefix() {
        let obs = ClusterObserver::new(ObserverConfig::default());
        obs.ingest(&report("mirror-test", 4, 99));
        let text = registry().render_text();
        assert!(
            text.contains("cluster.mirror-test.framework_load"),
            "{text}"
        );
        assert!(text.contains("cluster.mirror-test.tasks_done 12"), "{text}");
    }
}
