//! The cluster view: one row per worker, fed by the two carriers the
//! framework already has.
//!
//! * **SNMP** (paper §4.1): every monitor poll tick hands the observer
//!   the node's total and external load ([`ClusterObserver::record_load_sample`]).
//!   External load lands in the `load` ring, the framework's own share
//!   (total − external) in the `framework_load` ring, and the count of
//!   results attributed to the worker so far in the `tasks` ring — the
//!   samples behind throughput.
//! * **Result tuples** carry a [`TaskTiming`] attribution record
//!   (space-wait, transfer, compute, result-write); the master folds each
//!   into per-worker and per-job histograms
//!   ([`ClusterObserver::record_attribution`]).
//!
//! From those the observer flags stragglers (a worker whose median
//! compute time exceeds `k ×` the median of its peers' medians), hands
//! the monitoring agent the load its inference engine should act on
//! ([`ClusterObserver::effective_load`]: trend-floored, saturated for a
//! straggler), and writes the worker and job sections of `/cluster.json`.
//! Nothing here travels through the space: the space is what is being
//! monitored.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use acc_telemetry::{Histogram, HistoryRing, Json, RingStats};
use parking_lot::Mutex;

/// Current version byte of the [`TaskTiming`] encoding.
const TIMING_VERSION: u8 = 1;

/// Wall-clock milliseconds since the Unix epoch.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
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

/// Everything the observer knows about one worker.
#[derive(Debug)]
struct WorkerView {
    /// External (non-framework) load, one sample per SNMP poll.
    load: HistoryRing,
    /// The framework's own load (total − external), one sample per poll.
    framework_load: HistoryRing,
    /// `results` as of each poll — the samples behind throughput.
    tasks: HistoryRing,
    /// Results the master has attributed to this worker.
    results: u64,
    /// Per-worker compute-time histogram (µs), from task attribution.
    compute: Histogram,
    /// Aggregate non-compute attribution (µs), for the table.
    wait_us: u64,
    xfer_us: u64,
    write_us: u64,
    /// How the newest SNMP poll went: `ok` or the failure's kind; `None`
    /// before the first poll.
    last_poll: Option<&'static str>,
}

impl WorkerView {
    fn new(depth: usize) -> WorkerView {
        WorkerView {
            load: HistoryRing::new(depth),
            framework_load: HistoryRing::new(depth),
            tasks: HistoryRing::new(depth),
            results: 0,
            compute: Histogram::new(),
            wait_us: 0,
            xfer_us: 0,
            write_us: 0,
            last_poll: None,
        }
    }

    /// Tasks per second over the poll window (0.0 with < 2 samples).
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

    /// Milliseconds since the newest SNMP sample, `None` before the first.
    fn sample_age_ms(&self, now: u64) -> Option<u64> {
        self.load.last().map(|s| now.saturating_sub(s.at_ms))
    }
}

/// The master-side cluster view: folds SNMP load samples and task
/// attribution into bounded per-worker history, detects stragglers,
/// tells the monitoring agent what load to act on, and writes the worker
/// and job sections of `/cluster.json`.
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

    /// Folds one SNMP poll of `worker` — total CPU load and the external
    /// (non-framework) part of it — into its rings: external load,
    /// framework load (`total − external`), and the results attributed
    /// to it so far. Called by the monitoring agent once per poll tick.
    pub fn record_load_sample(&self, worker: &str, external: u64, total: u64) {
        let at_ms = now_ms();
        let framework = total.saturating_sub(external) as i64;
        let mut workers = self.workers.lock();
        let view = workers
            .entry(worker.to_owned())
            .or_insert_with(|| WorkerView::new(self.config.history_depth));
        let results = view.results as i64;
        view.load.record(at_ms, external as i64);
        view.framework_load.record(at_ms, framework);
        view.tasks.record(at_ms, results);
        view.last_poll = Some("ok");
    }

    /// Records that a poll of `worker` failed, and how (`kind`): the row's
    /// `last_poll` until the next poll. Its rings are left as they were.
    pub fn record_poll_failure(&self, worker: &str, kind: &'static str) {
        let mut workers = self.workers.lock();
        workers
            .entry(worker.to_owned())
            .or_insert_with(|| WorkerView::new(self.config.history_depth))
            .last_poll = Some(kind);
    }

    /// Records one completed task's cost attribution under its worker
    /// and job.
    pub fn record_attribution(&self, job: &str, worker: &str, timing: &TaskTiming) {
        {
            let mut workers = self.workers.lock();
            let view = workers
                .entry(worker.to_owned())
                .or_insert_with(|| WorkerView::new(self.config.history_depth));
            view.results += 1;
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
        self.flagged(&workers).into_iter().cloned().collect()
    }

    /// [`ClusterObserver::stragglers`] over an already locked table.
    fn flagged<'a>(&self, workers: &'a BTreeMap<String, WorkerView>) -> Vec<&'a String> {
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
            .map(|&(name, _)| name)
            .collect()
    }

    /// The load the inference engine should act on, and whether `worker`
    /// is a flagged straggler — one straggler scan, so the two cannot
    /// disagree. A straggler reads as saturated (100, forcing its
    /// exclusion); otherwise the raw sample is floored by the recent mean
    /// so one optimistic poll can't instantly undo a sustained-load
    /// trend. A worker with under two samples gets the raw sample back.
    pub fn effective_load(&self, worker: &str, raw: u64) -> (u64, bool) {
        let workers = self.workers.lock();
        if self.flagged(&workers).iter().any(|name| *name == worker) {
            return (100, true);
        }
        let Some(view) = workers.get(worker) else {
            return (raw, false);
        };
        let stats = view.load.stats();
        if stats.samples < 2 {
            return (raw, false);
        }
        (raw.max(stats.mean.round() as u64).min(100), false)
    }

    /// The worker, job and straggler sections of `/cluster.json`.
    pub fn to_json(&self) -> Json {
        let workers = self.workers.lock();
        let stragglers = self.flagged(&workers);
        let jobs = self.jobs.lock();
        let now = now_ms();
        let ring_json = |stats: &RingStats, len: usize| {
            Json::object([
                ("samples", stats.samples.into()),
                ("last", stats.last.into()),
                ("min", stats.min.into()),
                ("max", stats.max.into()),
                ("mean", Json::Float(stats.mean, 2)),
                ("p99", stats.p99.into()),
                ("depth", len.into()),
            ])
        };
        let worker_rows = workers.iter().map(|(name, view)| {
            let row = Json::object([
                ("load", ring_json(&view.load.stats(), view.load.len())),
                (
                    "framework_load",
                    ring_json(&view.framework_load.stats(), view.framework_load.len()),
                ),
                ("tasks_done", view.results.into()),
                ("throughput_per_s", Json::Float(view.throughput(), 3)),
                ("compute_us", view.compute.snapshot().to_json()),
                ("wait_us", view.wait_us.into()),
                ("xfer_us", view.xfer_us.into()),
                ("write_us", view.write_us.into()),
                (
                    "sample_age_ms",
                    view.sample_age_ms(now).map_or(-1, |ms| ms as i64).into(),
                ),
                ("history_samples", view.framework_load.len().into()),
                ("last_poll", view.last_poll.map_or(Json::Null, Json::from)),
                ("straggler", stragglers.contains(&name).into()),
            ]);
            (name.as_str(), row)
        });
        Json::object([
            ("workers", Json::object(worker_rows)),
            (
                "jobs",
                Json::object(
                    jobs.iter()
                        .map(|(name, h)| (name.as_str(), h.snapshot().to_json())),
                ),
            ),
            (
                "stragglers",
                stragglers.iter().map(|s| s.as_str()).collect(),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(obs.effective_load("slow", 0), (100, true));
        assert_eq!(obs.effective_load("fast-0", 0), (0, false));
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
        assert_eq!(obs.effective_load("meh", 0), (0, false));
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
        // Unknown worker: raw passes through.
        assert_eq!(obs.effective_load("ghost", 42), (42, false));
        // Sustained high load: one optimistic sample is floored.
        for _ in 0..10 {
            obs.record_load_sample("w0", 80, 90);
        }
        assert_eq!(obs.effective_load("w0", 5), (80, false));
        // Raw above the mean wins.
        assert_eq!(obs.effective_load("w0", 95), (95, false));
    }

    fn document(obs: &ClusterObserver) -> Json {
        Json::parse(&obs.to_json().to_string()).unwrap()
    }

    #[test]
    fn render_covers_workers_jobs_and_stragglers() {
        let obs = ClusterObserver::new(ObserverConfig::default());
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
        let json = document(&obs);
        let w0 = &json["workers"]["w0"];
        assert_eq!(w0["history_samples"].as_u64(), Some(1), "{json}");
        assert_eq!(w0["compute_us"]["sum"].as_u64(), Some(700), "{json}");
        assert_eq!(json["jobs"]["pricing"]["count"].as_u64(), Some(1), "{json}");
        assert_eq!(json["stragglers"], Json::Array(Vec::new()), "{json}");
    }

    #[test]
    fn rings_fill_from_polls_and_count_attributed_results() {
        let obs = ClusterObserver::new(ObserverConfig::default());
        obs.record_load_sample("w0", 10, 40);
        for _ in 0..3 {
            record_compute(&obs, "w0", 100);
        }
        obs.record_load_sample("w0", 10, 40);
        let json = document(&obs);
        let w0 = &json["workers"]["w0"];
        assert_eq!(w0["history_samples"].as_u64(), Some(2), "{json}");
        assert_eq!(w0["tasks_done"].as_u64(), Some(3), "{json}");
        assert_eq!(w0["framework_load"]["samples"].as_u64(), Some(2), "{json}");
        assert_eq!(w0["framework_load"]["last"].as_u64(), Some(30), "{json}");
        assert!(w0["sample_age_ms"].as_u64().is_some(), "{json}");
        // A worker known only from its results has no sample to age.
        record_compute(&obs, "unpolled", 100);
        let json = document(&obs);
        assert_eq!(
            json["workers"]["unpolled"]["sample_age_ms"].as_i64(),
            Some(-1)
        );
    }
}
