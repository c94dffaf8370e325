//! The master module (paper §4.1–4.2).
//!
//! The master defines the problem domain: it decomposes the application
//! into independent tasks during the *task-planning* phase, writes them
//! into the space, and during the *result-aggregation* phase removes result
//! entries and assimilates them into the final solution. All of the paper's
//! master-side metrics (task planning time, task aggregation time, max
//! worker time, parallel time, max master overhead) are measured here.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_cluster::{ClusterObserver, JobProfiler, JobRecorder};
use acc_telemetry::span;
use acc_tuplespace::{Bytes, SpaceError, StoreHandle, Template, Tuple, Value};

use crate::checkpoint::CheckpointState;
use crate::metrics::PhaseTimes;
use crate::task::{result_template, task_tuple, Application, ExecError, ResultView, TASK_TYPE};

/// Outcome of one application run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Phase timings (the paper's figures plot these).
    pub times: PhaseTimes,
    /// Results successfully collected and absorbed.
    pub results_collected: usize,
    /// Per-task aggregation failures (decode errors etc.).
    pub failures: Vec<(u64, ExecError)>,
    /// True when every planned task's result arrived before the deadline.
    pub complete: bool,
}

/// The master process: task planning and result aggregation over a space.
#[derive(Clone)]
pub struct Master {
    space: StoreHandle,
    /// How long to wait for each outstanding result before giving up.
    pub result_timeout: Duration,
    /// How many planned tasks go into one batched space write, and the
    /// most results one aggregation drain takes. Over a remote space each
    /// chunk is a single pipelined round trip instead of one per task; see
    /// [`crate::FrameworkConfig::dispatch_chunk`].
    pub dispatch_chunk: usize,
    /// Cluster-view sink for the task-level timing attribution riding each
    /// result entry. `None` (the default) drops the attribution.
    pub observer: Option<Arc<ClusterObserver>>,
    /// Per-job waterfall sink: every result's timing plus the master's
    /// phase scalars fold into a [`JobProfiler`] build, queryable live
    /// via `/profile`. `None` (the default) skips profiling.
    pub profiler: Option<Arc<JobProfiler>>,
}

impl Master {
    /// Creates a master over a space (local or remote).
    pub fn new(space: StoreHandle) -> Master {
        Master {
            space,
            result_timeout: Duration::from_secs(60),
            dispatch_chunk: 256,
            observer: None,
            profiler: None,
        }
    }

    /// Runs an application end-to-end: plan → (workers compute) → aggregate.
    ///
    /// Returns a [`RunReport`] with the paper's phase timings. If a result
    /// does not arrive within `result_timeout`, aggregation stops and the
    /// report is marked incomplete (`complete == false`). Results are
    /// deduplicated by task id, so a result delivered twice (a bare
    /// write's at-least-once resend, as on a multi-shard grid) is absorbed
    /// once.
    ///
    /// Task and result entries are matched by job name only, so a run
    /// assumes a space with no leftover entries for this job. Re-running a
    /// job after an incomplete run on the *same* space would mix the old
    /// run's stragglers into the new aggregation — use a fresh space (as
    /// [`crate::AdaptiveCluster`] does) or drain the job's entries first.
    pub fn run(&self, app: &mut dyn Application) -> Result<RunReport, SpaceError> {
        self.run_job(app, None)
    }

    /// Like [`run`](Master::run), but persisting aggregation progress to a
    /// checkpoint file every `every` absorbed results, and resuming from
    /// that file when it already exists.
    ///
    /// On resume the application's partial aggregate is restored via
    /// [`Application::restore_partials`], result entries that reached the
    /// (typically durable, recovered) space before the previous master died
    /// are drained first, and only tasks that are neither completed nor
    /// still queued in the space are re-written. The checkpoint file is
    /// removed once every task is accounted for, and rewritten one final
    /// time when the run stops short of that (timeout).
    ///
    /// `plan` must be deterministic: a restarted master re-plans the job
    /// and relies on task ids matching the interrupted run's.
    pub fn run_with_checkpoint(
        &self,
        app: &mut dyn Application,
        checkpoint: &Path,
        every: usize,
    ) -> Result<RunReport, SpaceError> {
        self.run_job(app, Some((checkpoint, every.max(1))))
    }

    /// The one run loop: [`run`](Master::run) is the checkpointing run
    /// with checkpointing off.
    fn run_job(
        &self,
        app: &mut dyn Application,
        checkpoint: Option<(&Path, usize)>,
    ) -> Result<RunReport, SpaceError> {
        let job = app.job_name();
        // The run's root span: every task tuple written during planning
        // carries this trace context, so worker spans — possibly in other
        // processes — assemble under it.
        let _dispatch = span!("master.dispatch", job = job.as_str());
        let run_start = Instant::now();
        if let Some(profiler) = &self.profiler {
            profiler.job_started(&job);
        }

        let mut completed = HashSet::new();
        let mut resumed = false;
        if let Some((path, _)) = checkpoint {
            match CheckpointState::load(path) {
                Ok(Some(state)) if state.job == job => {
                    app.restore_partials(&state.app_state)
                        .map_err(|e| SpaceError::Storage(format!("restore partials: {e}")))?;
                    completed = state.completed.into_iter().collect();
                    resumed = true;
                }
                Ok(_) => {}
                Err(e) => return Err(SpaceError::Storage(format!("load checkpoint: {e}"))),
            }
        }

        // ------------------------------------------------------------
        // Task-planning phase.
        // ------------------------------------------------------------
        let planning_start = Instant::now();
        let specs = {
            let _span = span!("master.planning", job = job.as_str());
            app.plan()
        };
        let total = specs.len();
        let template = result_template(&job);
        // Room for every task up front, so recording one never allocates.
        completed.reserve(total.saturating_sub(completed.len()));
        let mut agg = Aggregation {
            app,
            completed,
            report: RunReport::default(),
            observer: self.observer.as_deref(),
            recorder: self.profiler.as_ref().map(|p| p.recorder(&job)),
            busy_ms: 0.0,
            max_overhead_ms: 0.0,
        };

        if resumed {
            // Drain results that reached the space before the previous
            // master died, so their tasks are not re-issued below.
            for tuple in self.space.take_all(&template)? {
                agg.absorb(&tuple);
            }
        }

        agg.report.times.tasks = total;
        let chunk = self.dispatch_chunk.max(1);
        // One job name for every task tuple: each shares it.
        let job_value = Value::from(job.as_str());
        let mut pending: Vec<Tuple> = Vec::new();
        for spec in &specs {
            if agg.completed.contains(&spec.task_id) {
                continue;
            }
            if resumed {
                // A recovered durable space may still hold this entry.
                let this_task = Template::build(TASK_TYPE)
                    .eq("job", job.as_str())
                    .eq("task_id", spec.task_id as i64)
                    .done();
                if self.space.read_if_exists(&this_task)?.is_some() {
                    continue;
                }
            }
            let payload = Bytes::copy_from_slice(&spec.payload);
            pending.push(task_tuple(job_value.clone(), spec.task_id, payload, 0));
            if pending.len() >= chunk {
                dispatch_batch(&self.space, &mut pending, &mut agg.max_overhead_ms)?;
            }
        }
        dispatch_batch(&self.space, &mut pending, &mut agg.max_overhead_ms)?;
        agg.report.times.task_planning_ms = ms_since(planning_start);

        let save = |agg: &Aggregation| match checkpoint {
            Some((path, _)) => save_checkpoint(path, &job, total as u64, &agg.completed, agg.app),
            None => Ok(()),
        };
        // Persist progress-so-far (including drained leftovers) before
        // blocking on new results: a crash from here on resumes cleanly.
        save(&agg)?;

        // ------------------------------------------------------------
        // Result-aggregation phase. Each wake-up blocks in `take` for one
        // result and then drains whatever else has already arrived with
        // one non-blocking batch take, so a burst of results costs two
        // round trips instead of one each; workers run concurrently.
        // ------------------------------------------------------------
        let aggregation_start = Instant::now();
        let aggregation_span = span!("master.aggregation", job = job.as_str(), tasks = total);
        let every = checkpoint.map_or(usize::MAX, |(_, every)| every);
        let mut since_save = 0usize;
        while agg.completed.len() < total {
            let Some(first) = self.space.take(&template, Some(self.result_timeout))? else {
                break; // deadline: a worker died or was stopped for good
            };
            let mut batch = vec![first];
            let rest = (total - agg.completed.len() - 1).min(chunk);
            if rest > 0 {
                batch.extend(
                    self.space
                        .take_up_to(&template, rest, Some(Duration::ZERO))?,
                );
            }
            for tuple in &batch {
                if agg.absorb(tuple) {
                    since_save += 1;
                    if since_save >= every {
                        save(&agg)?;
                        since_save = 0;
                    }
                }
            }
        }
        drop(aggregation_span);
        // Task aggregation time is the wall time of the aggregation phase:
        // it tracks max worker time, since the master waits for the last
        // task to complete (paper §5.2.1).
        agg.report.times.task_aggregation_ms = ms_since(aggregation_start);
        agg.report.times.max_master_overhead_ms = agg.max_overhead_ms;
        agg.report.times.parallel_ms = ms_since(run_start);
        let accounted = agg.completed.len() == total;
        if let Some((path, _)) = checkpoint {
            if accounted {
                let _ = std::fs::remove_file(path);
            } else {
                save(&agg)?;
            }
        }
        let Aggregation {
            mut report,
            recorder,
            busy_ms,
            ..
        } = agg;
        // A task accounted for by a terminal error (or an undecodable
        // payload) is done, but the job it belongs to is not whole.
        report.complete = accounted && report.failures.is_empty();
        drop(recorder); // flushes any buffered results into the build
        if let Some(profiler) = &self.profiler {
            // Aggregation phase cost is the master's *busy* time, not the
            // phase's wall (which mostly overlaps worker compute).
            profiler.job_finished(
                &job,
                (report.times.task_planning_ms * 1e3) as u64,
                (busy_ms * 1e3) as u64,
                report.times.parallel_ms as u64,
            );
        }
        Ok(report)
    }
}

/// Writes one planning chunk with a single batched space operation (one
/// pipelined round trip on a remote space) and folds the amortised
/// per-task cost into the master-overhead metric.
fn dispatch_batch(
    space: &StoreHandle,
    pending: &mut Vec<Tuple>,
    max_overhead: &mut f64,
) -> Result<(), SpaceError> {
    if pending.is_empty() {
        return Ok(());
    }
    let n = pending.len();
    let t0 = Instant::now();
    space.write_all(std::mem::take(pending))?;
    *max_overhead = max_overhead.max(ms_since(t0) / n as f64);
    Ok(())
}

/// What one run's results fold into: the application's aggregate, the set
/// of finished task ids, and the master-side cost of getting them there.
struct Aggregation<'a> {
    app: &'a mut dyn Application,
    completed: HashSet<u64>,
    report: RunReport,
    observer: Option<&'a ClusterObserver>,
    recorder: Option<JobRecorder>,
    /// Time the master spent absorbing results (not waiting for them).
    busy_ms: f64,
    /// The costliest single step so far: one result's absorb, or one
    /// planning chunk's write amortised over its tasks.
    max_overhead_ms: f64,
}

impl Aggregation<'_> {
    /// Absorbs one result tuple into the application and reports whether
    /// it completed a task. Duplicates (a re-issued task computed twice, a
    /// result flush resent) are dropped; a terminal worker error still
    /// completes the task so the run terminates.
    fn absorb(&mut self, tuple: &Tuple) -> bool {
        let start = Instant::now();
        let newly_completed = self.absorb_untimed(tuple);
        let elapsed = ms_since(start);
        self.busy_ms += elapsed;
        self.max_overhead_ms = self.max_overhead_ms.max(elapsed);
        newly_completed
    }

    fn absorb_untimed(&mut self, tuple: &Tuple) -> bool {
        let Some(result) = ResultView::of(tuple) else {
            self.report
                .failures
                .push((u64::MAX, ExecError::App("malformed result entry".into())));
            return false;
        };
        if self.completed.contains(&result.task_id) {
            return false;
        }
        let times = &mut self.report.times;
        times.max_worker_ms = times.max_worker_ms.max(result.span_ms);
        // Looked up before `entry`, which needs an owned key: only a
        // worker's first result pays for the name's clone.
        match times.per_worker_ms.get_mut(result.worker) {
            Some(slot) => *slot = slot.max(result.span_ms),
            None => {
                times
                    .per_worker_ms
                    .insert(result.worker.to_owned(), result.span_ms.max(0.0));
            }
        }
        if let Some(observer) = self.observer {
            observer.record_attribution(result.job, result.worker, &result.timing);
        }
        if let Some(recorder) = &mut self.recorder {
            recorder.record_task(
                result.task_id,
                result.worker,
                &result.timing,
                result.error.is_some(),
            );
        }
        match result.error {
            // A poison task exhausted its retries: account for it so the
            // run terminates, but report the failure.
            Some(error) => self
                .report
                .failures
                .push((result.task_id, ExecError::App(error.to_owned()))),
            None => match self.app.absorb(result.task_id, result.payload) {
                Ok(()) => self.report.results_collected += 1,
                Err(e) => self.report.failures.push((result.task_id, e)),
            },
        }
        self.completed.insert(result.task_id);
        true
    }
}

/// Writes the current progress atomically to the checkpoint file.
fn save_checkpoint(
    path: &Path,
    job: &str,
    total: u64,
    completed: &HashSet<u64>,
    app: &dyn Application,
) -> Result<(), SpaceError> {
    let state = CheckpointState {
        job: job.to_owned(),
        total,
        completed: completed.iter().copied().collect(),
        app_state: app.snapshot_partials().unwrap_or_default(),
    };
    state
        .save(path)
        .map_err(|e| SpaceError::Storage(format!("save checkpoint {}: {e}", path.display())))
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{task_template, ResultEntry, TaskEntry, TaskExecutor, TaskSpec};
    use acc_tuplespace::{EntryId, Lease, Payload, Space, SpaceHandle, SpaceResult, TupleStore};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Doubles each input; trivially correct so aggregation is checkable.
    struct Doubler {
        n: u64,
        outputs: Vec<u64>,
    }

    impl Application for Doubler {
        fn job_name(&self) -> String {
            "double".into()
        }
        fn bundle_name(&self) -> String {
            "double-bundle".into()
        }
        fn plan(&mut self) -> Vec<TaskSpec> {
            (0..self.n).map(|i| TaskSpec::new(i, &(i * 10))).collect()
        }
        fn executor(&self) -> Arc<dyn TaskExecutor> {
            struct Exec;
            impl TaskExecutor for Exec {
                fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
                    let x: u64 = task.input()?;
                    Ok((x * 2).to_bytes())
                }
            }
            Arc::new(Exec)
        }
        fn absorb(&mut self, _task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
            self.outputs
                .push(u64::from_bytes(payload).map_err(ExecError::Decode)?);
            Ok(())
        }
    }

    #[test]
    fn plan_compute_aggregate_roundtrip() {
        let space = Space::new("test");
        let mut app = Doubler {
            n: 20,
            outputs: vec![],
        };
        let exec = app.executor();
        let w1 = spawn_inline_worker(space.clone(), "double", exec.clone(), "w1");
        let w2 = spawn_inline_worker(space.clone(), "double", exec, "w2");
        let master = Master::new(space.clone());
        let report = master.run(&mut app).unwrap();
        w1.join().unwrap();
        w2.join().unwrap();

        assert!(report.complete);
        assert_eq!(report.results_collected, 20);
        assert!(report.failures.is_empty());
        let mut outputs = app.outputs.clone();
        outputs.sort_unstable();
        assert_eq!(outputs, (0..20).map(|i| i * 20).collect::<Vec<_>>());
        assert_eq!(report.times.tasks, 20);
        assert!(report.times.parallel_ms > 0.0);
        assert!(report.times.task_planning_ms >= 0.0);
        assert!(report.times.workers_used() >= 1);
        // The space is drained: no leftover tasks or results.
        assert_eq!(space.len(), 0);
    }

    #[test]
    fn missing_worker_times_out_incomplete() {
        let space = Space::new("test");
        let mut app = Doubler {
            n: 3,
            outputs: vec![],
        };
        let mut master = Master::new(space.clone());
        master.result_timeout = Duration::from_millis(50);
        let report = master.run(&mut app).unwrap();
        assert!(!report.complete);
        assert_eq!(report.results_collected, 0);
        // Tasks remain in the space for a future worker.
        assert_eq!(space.count(&task_template("double")), 3);
    }

    impl Doubler {
        fn encode_outputs(&self) -> Vec<u8> {
            self.outputs.iter().flat_map(|v| v.to_le_bytes()).collect()
        }

        fn decode_outputs(bytes: &[u8]) -> Result<Vec<u64>, ExecError> {
            if bytes.len() % 8 != 0 {
                return Err(ExecError::App("bad partials length".into()));
            }
            Ok(bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }
    }

    /// A bare-bones inline worker: takes tasks, executes, writes results.
    /// It stops on the first space error, so a mid-run close (simulated
    /// master crash) ends the thread instead of panicking it.
    fn spawn_inline_worker(
        space: SpaceHandle,
        job: &str,
        exec: Arc<dyn TaskExecutor>,
        name: &str,
    ) -> std::thread::JoinHandle<()> {
        let template = task_template(job);
        let job = job.to_owned();
        let name = name.to_owned();
        std::thread::spawn(move || {
            let first = Instant::now();
            while let Ok(Some(tuple)) = space.take(&template, Some(Duration::from_millis(200))) {
                let task = TaskEntry::from_tuple(&tuple).unwrap();
                let t0 = Instant::now();
                let payload = exec.execute(&task).unwrap();
                let result = ResultEntry {
                    job: job.clone(),
                    task_id: task.task_id,
                    worker: name.clone(),
                    payload,
                    compute_ms: ms_since(t0),
                    span_ms: ms_since(first),
                    timing: Default::default(),
                    error: None,
                };
                if space.write(result.to_tuple()).is_err() {
                    break;
                }
            }
        })
    }

    /// Delegates to an inner partials-capable app but closes the space
    /// after `crash_after` absorbed results, simulating the master process
    /// dying mid-aggregation.
    struct CrashAfter {
        inner: DoublerWithPartials,
        crash_after: usize,
        absorbed: usize,
        space: StoreHandle,
    }

    impl Application for CrashAfter {
        fn job_name(&self) -> String {
            self.inner.job_name()
        }
        fn bundle_name(&self) -> String {
            self.inner.bundle_name()
        }
        fn plan(&mut self) -> Vec<TaskSpec> {
            self.inner.plan()
        }
        fn executor(&self) -> Arc<dyn TaskExecutor> {
            self.inner.executor()
        }
        fn absorb(&mut self, task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
            self.inner.absorb(task_id, payload)?;
            self.absorbed += 1;
            if self.absorbed == self.crash_after {
                self.space.close();
            }
            Ok(())
        }
        fn snapshot_partials(&self) -> Option<Vec<u8>> {
            self.inner.snapshot_partials()
        }
        fn restore_partials(&mut self, bytes: &[u8]) -> Result<(), ExecError> {
            self.inner.restore_partials(bytes)
        }
    }

    impl Doubler {
        fn with_partials(n: u64) -> DoublerWithPartials {
            DoublerWithPartials(Doubler { n, outputs: vec![] })
        }
    }

    /// [`Doubler`] plus checkpointable partials (the base test app leaves
    /// the default no-op hooks in place on purpose, to cover that path).
    struct DoublerWithPartials(Doubler);

    impl Application for DoublerWithPartials {
        fn job_name(&self) -> String {
            self.0.job_name()
        }
        fn bundle_name(&self) -> String {
            self.0.bundle_name()
        }
        fn plan(&mut self) -> Vec<TaskSpec> {
            self.0.plan()
        }
        fn executor(&self) -> Arc<dyn TaskExecutor> {
            self.0.executor()
        }
        fn absorb(&mut self, task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
            self.0.absorb(task_id, payload)
        }
        fn snapshot_partials(&self) -> Option<Vec<u8>> {
            Some(self.0.encode_outputs())
        }
        fn restore_partials(&mut self, bytes: &[u8]) -> Result<(), ExecError> {
            self.0.outputs = Doubler::decode_outputs(bytes)?;
            Ok(())
        }
    }

    #[test]
    fn checkpointed_run_completes_and_removes_file() {
        let space = Space::new("test");
        let mut app = Doubler {
            n: 10,
            outputs: vec![],
        };
        let exec = app.executor();
        let w = spawn_inline_worker(space.clone(), "double", exec, "w1");
        let master = Master::new(space.clone());
        let ckpt =
            std::env::temp_dir().join(format!("acc-master-ckpt-done-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&ckpt);
        let report = master.run_with_checkpoint(&mut app, &ckpt, 3).unwrap();
        w.join().unwrap();
        assert!(report.complete);
        assert_eq!(report.results_collected, 10);
        assert!(!ckpt.exists(), "completed run removes its checkpoint");
        let mut outputs = app.outputs.clone();
        outputs.sort_unstable();
        assert_eq!(outputs, (0..10).map(|i| i * 20).collect::<Vec<_>>());
    }

    #[test]
    fn master_resumes_from_checkpoint_after_crash() {
        let dir = std::env::temp_dir().join(format!("acc-master-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = dir.join("master.ckpt");
        let space_dir = dir.join("space");

        // ---- Phase 1: the master "crashes" (space closes) mid-run. ----
        {
            let space =
                Space::durable("m", &space_dir, acc_tuplespace::WalOptions::default()).unwrap();
            let mut app = CrashAfter {
                inner: Doubler::with_partials(20),
                crash_after: 7,
                absorbed: 0,
                space: space.clone(),
            };
            let exec = app.executor();
            let workers: Vec<_> = (0..2)
                .map(|i| {
                    spawn_inline_worker(space.clone(), "double", exec.clone(), &format!("w{i}"))
                })
                .collect();
            let mut master = Master::new(space.clone());
            // A real crash kills the process; closing the space only fails
            // the master's *next* store call, and results it had already
            // drained would still be absorbed. A small chunk bounds that
            // drain, so the simulated crash lands mid-job.
            master.dispatch_chunk = 2;
            let err = master.run_with_checkpoint(&mut app, &ckpt, 1).unwrap_err();
            assert_eq!(err, SpaceError::Closed);
            for w in workers {
                w.join().unwrap();
            }
            let state = crate::checkpoint::CheckpointState::load(&ckpt)
                .unwrap()
                .expect("crash leaves a checkpoint behind");
            assert_eq!(state.total, 20);
            assert!(state.completed.len() >= 7, "every=1 persists each result");
            assert!(
                !state.app_state.is_empty(),
                "the checkpoint carries the absorbed partial outputs"
            );
        }

        // ---- Phase 2: a fresh master resumes from the checkpoint. ----
        let space = Space::recover(&space_dir).unwrap();
        let mut app = Doubler::with_partials(20);
        let exec = app.executor();
        let workers: Vec<_> = (0..2)
            .map(|i| spawn_inline_worker(space.clone(), "double", exec.clone(), &format!("w{i}")))
            .collect();
        let master = Master::new(space.clone());
        let report = master.run_with_checkpoint(&mut app, &ckpt, 1).unwrap();
        for w in workers {
            w.join().unwrap();
        }
        assert!(report.complete, "resumed run must finish the job");
        let mut outputs = app.0.outputs.clone();
        outputs.sort_unstable();
        assert_eq!(
            outputs,
            (0..20).map(|i| i * 20).collect::<Vec<_>>(),
            "combined result must equal an uninterrupted run — no missing, \
             no double-absorbed tasks"
        );
        assert!(!ckpt.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn result(id: u64, worker: &str) -> Tuple {
        ResultEntry {
            job: "double".into(),
            task_id: id,
            worker: worker.into(),
            payload: (id * 20).to_bytes(),
            compute_ms: 1.0,
            span_ms: 1.0,
            timing: Default::default(),
            error: None,
        }
        .to_tuple()
    }

    /// Counts the result takes a master makes, by kind.
    struct CountingStore {
        inner: SpaceHandle,
        takes: AtomicUsize,
        /// `max` of every batch take.
        drains: parking_lot::Mutex<Vec<usize>>,
    }

    impl TupleStore for CountingStore {
        fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
            self.inner.write_leased(tuple, lease)
        }
        fn read(&self, t: &Template, d: Option<Duration>) -> SpaceResult<Option<Tuple>> {
            self.inner.read(t, d)
        }
        fn take(&self, t: &Template, d: Option<Duration>) -> SpaceResult<Option<Tuple>> {
            self.takes.fetch_add(1, Ordering::SeqCst);
            self.inner.take(t, d)
        }
        fn take_up_to(
            &self,
            t: &Template,
            max: usize,
            d: Option<Duration>,
        ) -> SpaceResult<Vec<Tuple>> {
            assert_eq!(d, Some(Duration::ZERO), "the drain must never block");
            self.drains.lock().push(max);
            self.inner.take_up_to(t, max, d)
        }
        fn count(&self, t: &Template) -> SpaceResult<usize> {
            Ok(Space::count(&self.inner, t))
        }
        fn close(&self) {
            self.inner.close()
        }
        fn is_closed(&self) -> bool {
            self.inner.is_closed()
        }
    }

    #[test]
    fn aggregation_blocks_for_one_result_then_drains_the_rest_in_batches() {
        let space = Space::new("test");
        for id in 0..10 {
            space.write(result(id, "w")).unwrap();
        }
        let store = Arc::new(CountingStore {
            inner: space.clone(),
            takes: Default::default(),
            drains: Default::default(),
        });
        let mut master = Master::new(store.clone());
        // The drain is bounded by the chunk and by what is outstanding.
        master.dispatch_chunk = 4;
        let mut app = Doubler {
            n: 10,
            outputs: vec![],
        };
        let report = master.run(&mut app).unwrap();
        assert!(report.complete);
        assert_eq!(report.results_collected, 10);
        // 10 results in two wake-ups: 1 + 4, then 1 + 4 (all that is left).
        assert_eq!(store.takes.load(Ordering::SeqCst), 2);
        assert_eq!(*store.drains.lock(), vec![4, 4]);
    }

    #[test]
    fn a_result_delivered_twice_is_absorbed_once() {
        // A worker's flush that was resent after a lost response leaves
        // two copies of each of its results in the space.
        let space = Space::new("test");
        for id in [0, 1, 0, 1, 2] {
            space.write(result(id, "w")).unwrap();
        }
        let mut app = Doubler {
            n: 3,
            outputs: vec![],
        };
        let report = Master::new(space.clone()).run(&mut app).unwrap();
        assert!(report.complete);
        assert_eq!(report.results_collected, 3);
        app.outputs.sort_unstable();
        assert_eq!(app.outputs, vec![0, 20, 40]);
    }

    #[test]
    fn aggregation_tracks_worker_spans() {
        let space = Space::new("test");
        // Hand-write two results with known spans before running aggregation.
        let mut app = Doubler {
            n: 2,
            outputs: vec![],
        };
        let master = Master::new(space.clone());
        // Pre-seed results; plan() writes tasks but the workers "already ran".
        for (id, span) in [(0u64, 120.0f64), (1, 80.0)] {
            let mut r = ResultEntry::from_tuple(&result(id, &format!("w{id}"))).unwrap();
            r.span_ms = span;
            space.write(r.to_tuple()).unwrap();
        }
        let report = master.run(&mut app).unwrap();
        assert!(report.complete);
        assert_eq!(report.times.max_worker_ms, 120.0);
        assert_eq!(report.times.per_worker_ms["w0"], 120.0);
        assert_eq!(report.times.per_worker_ms["w1"], 80.0);
    }
}
