//! The master-side job profiler: folds per-result [`TaskTiming`]s and
//! master phase scalars into per-job [`JobProfile`]s as results arrive.
//!
//! The observer ([`crate::observer::ClusterObserver`]) answers *who* is
//! slow; the profiler answers *why a job* was slow. It keeps one build
//! per job (bounded; oldest evicted): raw phase totals, one bounded
//! task chain per worker, and the arrival order of results. On demand
//! it assembles the waterfall: the critical path is the dispatch
//! segment followed by the task chain of the worker whose result closed
//! the job — by construction the chain that bounded wall-clock — and
//! the verdict comes from [`acc_telemetry::profile::judge`], fed the
//! critical path's phase split plus the observer's straggler flags.
//!
//! Per-task effective duration de-duplicates the wait/xfer overlap: the
//! first task of a prefetch batch carries the full take round-trip as
//! `wait_us` *and* a transfer share as `xfer_us`, so a segment counts
//! `max(wait, xfer) + compute + write`, never both halves of the same
//! round-trip. Raw phase totals stay un-deduplicated on purpose — they
//! must reconcile exactly with summed `TaskTiming` fields.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use acc_telemetry::profile::{
    judge, CriticalPath, JobProfile, PathSegment, PhaseTotals, ShardPhase, VerdictInput,
};
use acc_telemetry::Json;

use crate::observer::TaskTiming;

/// Jobs retained at once; the oldest-started build is evicted first.
pub const MAX_JOBS: usize = 16;

/// Per-worker path segments retained in full detail per job. Chains
/// longer than this stay correct in total duration — only old segment
/// detail is dropped (and counted in `omitted`).
pub const MAX_SEGMENTS: usize = 256;

/// Buffered results a [`JobRecorder`] accumulates before taking the
/// build lock once for the whole batch.
pub const RECORDER_FLUSH_EVERY: usize = 64;

/// One worker's task chain within a job. Segment detail is stored
/// compact (ids and durations); [`PathSegment`]s are materialised only
/// when a profile is assembled.
#[derive(Debug, Default)]
struct WorkerChain {
    segments: VecDeque<(u64, u64)>,
    omitted: usize,
    /// Full effective busy time (wait-or-xfer + compute + write), µs.
    busy_us: u64,
    /// Space interaction along the chain (wait-or-xfer + write), µs.
    space_us: u64,
    compute_us: u64,
    tasks: u64,
}

impl WorkerChain {
    fn push(&mut self, task_id: u64, timing: &TaskTiming) {
        let space = timing.wait_us.max(timing.xfer_us) + timing.write_us;
        let effective = space + timing.compute_us;
        self.busy_us += effective;
        self.space_us += space;
        self.compute_us += timing.compute_us;
        self.tasks += 1;
        if self.segments.len() >= MAX_SEGMENTS {
            self.segments.pop_front();
            self.omitted += 1;
        }
        self.segments.push_back((task_id, effective));
    }
}

/// One job's accumulating state.
#[derive(Debug)]
struct JobBuild {
    started: Instant,
    phases: PhaseTotals,
    chains: BTreeMap<String, WorkerChain>,
    /// Worker of the most recently folded result — when the job closes,
    /// this is the worker whose result closed it.
    last_worker: String,
    tasks: u64,
    errors: u64,
    wall_ms: Option<u64>,
    fanout: Vec<ShardPhase>,
}

impl JobBuild {
    fn new() -> JobBuild {
        JobBuild {
            started: Instant::now(),
            phases: PhaseTotals::default(),
            chains: BTreeMap::new(),
            last_worker: String::new(),
            tasks: 0,
            errors: 0,
            wall_ms: None,
            fanout: Vec::new(),
        }
    }

    fn fold(&mut self, task_id: u64, worker: &str, timing: &TaskTiming, errored: bool) {
        self.phases.wait_us += timing.wait_us;
        self.phases.xfer_us += timing.xfer_us;
        self.phases.compute_us += timing.compute_us;
        self.phases.write_us += timing.write_us;
        self.tasks += 1;
        if errored {
            self.errors += 1;
        }
        if self.last_worker != worker {
            worker.clone_into(&mut self.last_worker);
        }
        if let Some(chain) = self.chains.get_mut(worker) {
            chain.push(task_id, timing);
        } else {
            let mut chain = WorkerChain::default();
            chain.push(task_id, timing);
            self.chains.insert(worker.to_owned(), chain);
        }
    }
}

/// One buffered result awaiting a [`JobRecorder`] flush. Worker names
/// are interned in the recorder, so this stays plain data.
#[derive(Debug, Clone, Copy)]
struct PendingTask {
    task_id: u64,
    worker: u32,
    timing: TaskTiming,
    errored: bool,
}

/// The master's per-result recording handle for one job: buffers results
/// locally and folds them into the shared build in batches, so the
/// result hot path pays a `Vec` push — not a lock — per task. Flushes
/// when [`RECORDER_FLUSH_EVERY`] results are pending, on
/// [`JobRecorder::flush`], and on drop; a profile scraped mid-run can
/// therefore trail the newest handful of results, never lose them.
#[derive(Debug)]
pub struct JobRecorder {
    build: Arc<Mutex<JobBuild>>,
    workers: Vec<String>,
    buf: Vec<PendingTask>,
}

impl JobRecorder {
    /// Buffers one result's timing; folds the batch on overflow.
    pub fn record_task(&mut self, task_id: u64, worker: &str, timing: &TaskTiming, errored: bool) {
        let worker = match self.workers.iter().position(|w| w == worker) {
            Some(i) => i as u32,
            None => {
                self.workers.push(worker.to_owned());
                (self.workers.len() - 1) as u32
            }
        };
        self.buf.push(PendingTask {
            task_id,
            worker,
            timing: *timing,
            errored,
        });
        if self.buf.len() >= RECORDER_FLUSH_EVERY {
            self.flush();
        }
    }

    /// Folds every buffered result into the job's build now.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut build = self.build.lock().unwrap_or_else(|e| e.into_inner());
        for p in self.buf.drain(..) {
            build.fold(
                p.task_id,
                &self.workers[p.worker as usize],
                &p.timing,
                p.errored,
            );
        }
    }
}

impl Drop for JobRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Map entry: the job's start sequence (for eviction and latest-job
/// ordering, readable without the build lock) and its shared build.
type JobEntry = (u64, Arc<Mutex<JobBuild>>);

/// Folds result-tuple timings and master phase scalars into per-job
/// waterfall profiles. Shared (`Arc`) between the master and the
/// `/profile.json` route; every method takes `&self`.
#[derive(Debug, Default)]
pub struct JobProfiler {
    jobs: Mutex<BTreeMap<String, JobEntry>>,
    next_seq: Mutex<u64>,
}

impl JobProfiler {
    /// An empty profiler.
    pub fn new() -> JobProfiler {
        JobProfiler::default()
    }

    fn build_handle(&self, job: &str) -> Arc<Mutex<JobBuild>> {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if !jobs.contains_key(job) {
            let seq = {
                let mut seq = self.next_seq.lock().unwrap_or_else(|e| e.into_inner());
                *seq += 1;
                *seq
            };
            if jobs.len() >= MAX_JOBS {
                if let Some(oldest) = jobs
                    .iter()
                    .min_by_key(|(_, (seq, _))| *seq)
                    .map(|(name, _)| name.clone())
                {
                    jobs.remove(&oldest);
                }
            }
            jobs.insert(job.to_owned(), (seq, Arc::new(Mutex::new(JobBuild::new()))));
        }
        jobs.get(job).expect("just inserted").1.clone()
    }

    fn with_build<R>(&self, job: &str, f: impl FnOnce(&mut JobBuild) -> R) -> R {
        let handle = self.build_handle(job);
        let mut build = handle.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut build)
    }

    /// Opens (or reopens) a job's build. A rerun under the same name
    /// starts a fresh profile.
    pub fn job_started(&self, job: &str) {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.remove(job);
        drop(jobs);
        self.with_build(job, |_| {});
    }

    /// A buffered per-result recording handle for `job` — what the
    /// master's aggregation loop holds. See [`JobRecorder`].
    pub fn recorder(&self, job: &str) -> JobRecorder {
        JobRecorder {
            build: self.build_handle(job),
            workers: Vec::new(),
            buf: Vec::with_capacity(RECORDER_FLUSH_EVERY),
        }
    }

    /// Folds one result tuple's timing into the job's build directly
    /// (unbuffered; the aggregation loop uses [`JobProfiler::recorder`]).
    pub fn record_task(
        &self,
        job: &str,
        task_id: u64,
        worker: &str,
        timing: &TaskTiming,
        errored: bool,
    ) {
        self.with_build(job, |b| b.fold(task_id, worker, timing, errored));
    }

    /// Records the master-side phase scalars and closes the job.
    pub fn job_finished(&self, job: &str, dispatch_us: u64, aggregation_us: u64, wall_ms: u64) {
        self.with_build(job, |b| {
            b.phases.dispatch_us = dispatch_us;
            b.phases.aggregation_us = aggregation_us;
            b.wall_ms = Some(wall_ms);
        });
    }

    /// Attaches per-shard scatter-gather attribution (grid deployments).
    pub fn record_fanout(&self, job: &str, fanout: Vec<ShardPhase>) {
        self.with_build(job, |b| b.fanout = fanout);
    }

    /// The most recently started job, if any.
    pub fn latest_job(&self) -> Option<String> {
        let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.iter()
            .max_by_key(|(_, (seq, _))| *seq)
            .map(|(name, _)| name.clone())
    }

    /// Assembles one job's profile. `stragglers` is the observer's
    /// current flag list (empty is fine). `None` for an unknown job.
    pub fn profile(&self, job: &str, stragglers: &[String]) -> Option<JobProfile> {
        let handle = {
            let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            jobs.get(job)?.1.clone()
        };
        let b = handle.lock().unwrap_or_else(|e| e.into_inner());
        let wall_ms = b
            .wall_ms
            .unwrap_or_else(|| b.started.elapsed().as_millis() as u64);

        // Critical path: dispatch, then the closing worker's chain.
        let mut segments = vec![PathSegment {
            label: "dispatch".to_owned(),
            task_id: None,
            worker: String::new(),
            duration_us: b.phases.dispatch_us,
        }];
        let empty = WorkerChain::default();
        let chain = b.chains.get(&b.last_worker).unwrap_or(&empty);
        segments.extend(
            chain
                .segments
                .iter()
                .map(|&(task_id, duration_us)| PathSegment {
                    label: format!("task {task_id}"),
                    task_id: Some(task_id),
                    worker: b.last_worker.clone(),
                    duration_us,
                }),
        );
        let critical_path = CriticalPath {
            worker: b.last_worker.clone(),
            segments,
            omitted: chain.omitted,
            total_us: b.phases.dispatch_us + chain.busy_us,
        };

        // Peer compute mean: every chain except the bounding one.
        let (mut peer_compute, mut peer_tasks) = (0u64, 0u64);
        for (name, c) in &b.chains {
            if *name != b.last_worker {
                peer_compute += c.compute_us;
                peer_tasks += c.tasks;
            }
        }
        let (verdict, evidence) = judge(&VerdictInput {
            dispatch_us: b.phases.dispatch_us,
            space_us: chain.space_us,
            compute_us: chain.compute_us,
            straggler_flagged: stragglers.contains(&b.last_worker),
            path_worker_mean_compute_us: chain.compute_us as f64 / chain.tasks.max(1) as f64,
            peer_mean_compute_us: peer_compute as f64 / peer_tasks.max(1) as f64,
        });

        Some(JobProfile {
            job: job.to_owned(),
            tasks: b.tasks,
            errors: b.errors,
            wall_ms,
            finished: b.wall_ms.is_some(),
            phases: b.phases,
            critical_path,
            fanout: b.fanout.clone(),
            verdict,
            evidence,
        })
    }

    /// The `/profile.json` document: the latest job's profile plus the
    /// list of every retained job name. `{"job":null,"jobs":[]}` before
    /// any job has run.
    pub fn to_json(&self, stragglers: &[String]) -> Json {
        let names: Json = {
            let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            let mut by_seq: Vec<(&String, u64)> =
                jobs.iter().map(|(name, (seq, _))| (name, *seq)).collect();
            by_seq.sort_by_key(|&(_, seq)| seq);
            by_seq.into_iter().map(|(name, _)| name.as_str()).collect()
        };
        let latest = self.latest_job();
        let mut doc = match latest.and_then(|job| self.profile(&job, stragglers)) {
            Some(profile) => profile.to_json(),
            None => Json::object([("job", Json::Null)]),
        };
        doc.insert("jobs", names);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_telemetry::profile::BoundVerdict;

    fn timing(wait: u64, xfer: u64, compute: u64, write: u64) -> TaskTiming {
        TaskTiming {
            wait_us: wait,
            xfer_us: xfer,
            compute_us: compute,
            write_us: write,
        }
    }

    #[test]
    fn folds_tasks_into_phases_and_critical_path() {
        let p = JobProfiler::new();
        p.job_started("job");
        // Fast worker does three cheap tasks, slow worker two dear ones;
        // the slow worker's result arrives last.
        for id in 0..3 {
            p.record_task("job", id, "w-fast", &timing(100, 100, 2_000, 50), false);
        }
        p.record_task("job", 3, "w-slow", &timing(120, 120, 40_000, 60), false);
        p.record_task("job", 4, "w-slow", &timing(0, 110, 41_000, 60), true);
        p.job_finished("job", 900, 300, 85);

        let profile = p.profile("job", &[]).expect("job exists");
        assert_eq!(profile.tasks, 5);
        assert_eq!(profile.errors, 1);
        assert_eq!(profile.wall_ms, 85);
        assert!(profile.finished);
        // Raw totals reconcile exactly with the summed TaskTiming fields.
        assert_eq!(profile.phases.wait_us, 100 * 3 + 120);
        assert_eq!(profile.phases.xfer_us, 100 * 3 + 120 + 110);
        assert_eq!(profile.phases.compute_us, 2_000 * 3 + 40_000 + 41_000);
        assert_eq!(profile.phases.write_us, 50 * 3 + 60 * 2);
        assert_eq!(profile.phases.dispatch_us, 900);
        assert_eq!(profile.phases.aggregation_us, 300);

        // Critical path: dispatch + the slow worker's two tasks, with the
        // wait/xfer overlap de-duplicated (max, not sum).
        let cp = &profile.critical_path;
        assert_eq!(cp.worker, "w-slow");
        assert_eq!(cp.segments.len(), 3);
        assert_eq!(cp.segments[0].label, "dispatch");
        assert_eq!(cp.segments[1].duration_us, 120 + 40_000 + 60);
        assert_eq!(cp.segments[2].duration_us, 110 + 41_000 + 60);
        assert_eq!(cp.total_us, 900 + (120 + 40_000 + 60) + (110 + 41_000 + 60));

        // ~40 ms vs ~2 ms mean compute: straggler by ratio, no flag needed.
        assert_eq!(profile.verdict, BoundVerdict::StragglerBound);
        assert!(profile.evidence.contains("peers' mean compute"));
    }

    #[test]
    fn straggler_flag_overrides_ratio() {
        let p = JobProfiler::new();
        p.job_started("j");
        p.record_task("j", 0, "a", &timing(10, 10, 1_000, 5), false);
        p.record_task("j", 1, "b", &timing(10, 10, 1_100, 5), false);
        p.job_finished("j", 50, 20, 3);
        let profile = p.profile("j", &["b".to_owned()]).unwrap();
        assert_eq!(profile.verdict, BoundVerdict::StragglerBound);
        assert!(profile.evidence.contains("straggler detector"));
        // Without the flag the near-equal peers make it compute-bound.
        let unflagged = p.profile("j", &[]).unwrap();
        assert_eq!(unflagged.verdict, BoundVerdict::ComputeBound);
    }

    #[test]
    fn running_job_profiles_with_elapsed_wall() {
        let p = JobProfiler::new();
        p.job_started("live");
        p.record_task("live", 0, "w", &timing(5, 5, 100, 2), false);
        let profile = p.profile("live", &[]).unwrap();
        assert!(!profile.finished);
        let json = Json::parse(&p.to_json(&[]).to_string()).unwrap();
        assert_eq!(json["job"].as_str(), Some("live"), "{json}");
        assert_eq!(json["jobs"], ["live"].into_iter().collect(), "{json}");
    }

    #[test]
    fn empty_profiler_renders_placeholders() {
        let p = JobProfiler::new();
        assert!(p.latest_job().is_none());
        assert_eq!(p.to_json(&[]).to_string(), "{\"job\":null,\"jobs\":[]}");
    }

    #[test]
    fn job_cap_evicts_oldest_and_rerun_resets() {
        let p = JobProfiler::new();
        for i in 0..(MAX_JOBS + 3) {
            p.job_started(&format!("job-{i}"));
        }
        {
            let jobs = p.jobs.lock().unwrap();
            assert_eq!(jobs.len(), MAX_JOBS);
            assert!(!jobs.contains_key("job-0"), "oldest evicted");
        }
        assert_eq!(
            p.latest_job().as_deref(),
            Some(&*format!("job-{}", MAX_JOBS + 2))
        );

        p.record_task("job-5", 0, "w", &timing(1, 1, 1, 1), false);
        assert_eq!(p.profile("job-5", &[]).unwrap().tasks, 1);
        p.job_started("job-5");
        assert_eq!(p.profile("job-5", &[]).unwrap().tasks, 0, "rerun resets");
    }

    #[test]
    fn recorder_buffers_until_flush_and_drop_flushes() {
        let p = JobProfiler::new();
        p.job_started("buf");
        let mut rec = p.recorder("buf");
        for id in 0..3u64 {
            rec.record_task(id, "w", &timing(1, 1, 10, 1), false);
        }
        // Below the flush threshold nothing has reached the build yet.
        assert_eq!(p.profile("buf", &[]).unwrap().tasks, 0);
        rec.flush();
        assert_eq!(p.profile("buf", &[]).unwrap().tasks, 3);

        // Crossing the threshold flushes without an explicit call...
        for id in 3..(3 + RECORDER_FLUSH_EVERY as u64) {
            rec.record_task(id, "w", &timing(1, 1, 10, 1), false);
        }
        assert!(p.profile("buf", &[]).unwrap().tasks >= 3 + RECORDER_FLUSH_EVERY as u64 - 1);
        // ...and dropping the recorder flushes the remainder.
        rec.record_task(999, "w-late", &timing(1, 1, 10, 1), true);
        drop(rec);
        let profile = p.profile("buf", &[]).unwrap();
        assert_eq!(profile.tasks, 4 + RECORDER_FLUSH_EVERY as u64);
        assert_eq!(profile.errors, 1);
        assert_eq!(profile.critical_path.worker, "w-late");
    }

    #[test]
    fn segment_detail_is_bounded_but_totals_are_not() {
        let p = JobProfiler::new();
        p.job_started("big");
        for id in 0..(MAX_SEGMENTS as u64 + 10) {
            p.record_task("big", id, "w", &timing(0, 1, 9, 0), false);
        }
        let profile = p.profile("big", &[]).unwrap();
        let cp = &profile.critical_path;
        assert_eq!(
            cp.segments.len(),
            MAX_SEGMENTS + 1,
            "dispatch + bounded chain"
        );
        assert_eq!(cp.omitted, 10);
        // Omitted segments still count toward the chain total.
        assert_eq!(cp.total_us, (MAX_SEGMENTS as u64 + 10) * 10);
    }
}
