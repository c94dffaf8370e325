//! The worker module (paper §4.1–4.4).
//!
//! A worker is a thin, application-agnostic process. Its behaviour:
//!
//! * it registers with the network management module over the rule-base
//!   protocol and then obeys Start / Stop / Pause / Resume signals;
//! * on Start it performs remote node configuration — fetches the
//!   application's code bundle from the master's bundle server (paying the
//!   modeled class-loading cost) and links the executor;
//! * while Running it takes task entries from the space by value-based
//!   lookup — a batch per round trip, as deep as the worker's own
//!   measurements say pays (see `refill_depth`), under a transaction of
//!   the space's — computes them, and commits the batch with its result
//!   entries, as the next batch is taken (see `Outbox`). A worker that
//!   dies holding a batch loses nothing: the space aborts its transaction
//!   and the tasks are there to take again;
//! * signals only take effect *between* tasks: the currently executing task
//!   always completes, and a Pause or Stop commits every finished result
//!   with the unstarted tasks handed back, so no work is ever lost;
//! * on Pause the executor stays linked (Resume skips class loading); on
//!   Stop it is dropped (the next Start reloads).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_cluster::LoadMix;
use acc_telemetry::{event, span};
use acc_tuplespace::{Batch, BatchTxn, SpaceError, SpaceResult, StoreHandle, Template, Tuple};
use parking_lot::Mutex;

use crate::config::FrameworkConfig;
use crate::loader::{BundleServer, ExecutorRegistry};
use crate::policy::execute_policed;
use crate::rulebase::{client_register, Duplex, RuleMessage, WorkerId};
use crate::series::series;
use crate::signal::{Signal, SignalLogEntry, WorkerState};
use crate::task::{task_template, ResultEntry, TaskEntry, TaskExecutor};

/// Everything a worker runtime needs to operate.
pub struct WorkerConfig {
    /// The worker's host name (reported in result entries).
    pub name: String,
    /// The shared space (local handle or remote proxy).
    pub space: StoreHandle,
    /// Where to fetch code bundles from.
    pub bundle_server: Arc<BundleServer>,
    /// The local link table.
    pub registry: Arc<ExecutorRegistry>,
    /// Client side of the rule-base protocol link.
    pub duplex: Duplex,
    /// The code bundle this worker loads on Start.
    pub bundle_name: String,
    /// The job whose tasks this worker takes.
    pub job: String,
    /// The node's load meter, so the framework's own CPU use is visible to
    /// monitoring (`None` for tests without a node model).
    pub node_load: Option<Arc<LoadMix>>,
    /// Experiment epoch for millisecond timestamps.
    pub epoch: Instant,
    /// Framework tunables (task poll timeout, etc.).
    pub framework: FrameworkConfig,
}

/// CPU percent the worker's process shows while computing a task.
const COMPUTE_LOAD: u64 = 98;
/// CPU percent during remote class loading (the paper's Start-time peak).
const CLASS_LOAD_LOAD: u64 = 80;
/// CPU percent while running but waiting for a task.
const IDLE_RUNNING_LOAD: u64 = 2;

/// Handle to a spawned worker runtime.
pub struct WorkerRuntime {
    name: String,
    id: WorkerId,
    shutdown: Arc<AtomicBool>,
    state: Arc<Mutex<WorkerState>>,
    log: Arc<Mutex<Vec<SignalLogEntry>>>,
    tasks_done: Arc<Mutex<u64>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerRuntime")
            .field("name", &self.name)
            .field("id", &self.id)
            .finish()
    }
}

impl WorkerRuntime {
    /// Registers over the rule-base link and spawns the worker loop.
    /// Returns `None` if registration fails (management module gone).
    pub fn spawn(config: WorkerConfig) -> Option<WorkerRuntime> {
        let id = client_register(&config.duplex, &config.name, Duration::from_secs(5))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new(WorkerState::Stopped));
        let log = Arc::new(Mutex::new(Vec::new()));
        let tasks_done = Arc::new(Mutex::new(0u64));
        let name = config.name.clone();
        let loop_state = LoopState {
            config,
            shutdown: shutdown.clone(),
            state: state.clone(),
            log: log.clone(),
            tasks_done: tasks_done.clone(),
        };
        // Worker threads are named after the worker so cost attribution,
        // flight dumps, and tests can tell them apart.
        let thread = std::thread::Builder::new()
            .name(format!("acc-worker-{name}"))
            .spawn(move || worker_loop(loop_state))
            .expect("spawn worker thread");
        Some(WorkerRuntime {
            name,
            id,
            shutdown,
            state,
            log,
            tasks_done,
            thread: Some(thread),
        })
    }

    /// The management-assigned worker id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// The worker's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The worker's current state.
    pub fn state(&self) -> WorkerState {
        *self.state.lock()
    }

    /// Signals handled so far (reaction-time log, Figs. 9b–11b).
    pub fn signal_log(&self) -> Vec<SignalLogEntry> {
        self.log.lock().clone()
    }

    /// Tasks completed so far: results whose commit was answered. A
    /// commit whose answer a dropped connection lost is not counted,
    /// though its results are in the space.
    pub fn tasks_done(&self) -> u64 {
        *self.tasks_done.lock()
    }

    /// Stops the loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_join();
    }

    fn stop_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerRuntime {
    fn drop(&mut self) {
        self.stop_join();
    }
}

struct LoopState {
    config: WorkerConfig,
    shutdown: Arc<AtomicBool>,
    state: Arc<Mutex<WorkerState>>,
    log: Arc<Mutex<Vec<SignalLogEntry>>>,
    tasks_done: Arc<Mutex<u64>>,
}

/// How many *consecutive* transport-level take failures a worker rides out
/// before concluding the space is gone for good. `RemoteSpace` already
/// absorbs a single dropped connection internally; this guards the window
/// where the server is briefly unreachable across calls.
const MAX_TRANSPORT_STRIKES: u32 = 3;

/// The deepest refill [`refill_depth`] asks for: zero-compute tasks would
/// otherwise have no bound. Each task in hand is a decoded tuple, its
/// pending attribution and then its buffered result, so past 32 a deeper
/// batch buys little throughput for resident memory.
const MAX_REFILL_DEPTH: usize = 32;

/// How many tasks the next refill takes: `⌈4 · rtt ÷ median_compute⌉`,
/// clamped to `1..=`[`MAX_REFILL_DEPTH`]. The refill then costs at most a
/// quarter of the compute it fetches, and the worker holds about four
/// round trips of unstarted work (what a Stop hands back and a peer
/// cannot run meanwhile), so a task that computes for four round trips or
/// more is taken alone. With either input unmeasured the depth is 1; a
/// zero median (tasks under a microsecond) gets the cap.
///
/// `rtt` is [`Outbox::min_flush`], the fastest stand-alone result write,
/// not a timed refill: a take blocks up to `task_poll_timeout` for its
/// first match, and a worker is taking before the master has written the
/// job's tasks, so its first refill reads a wait. A write never waits for
/// tasks, and the first result always goes out alone and timed.
fn refill_depth(rtt: Option<Duration>, median_compute: Option<Duration>) -> usize {
    let (Some(rtt), Some(compute)) = (rtt, median_compute) else {
        return 1;
    };
    if compute.is_zero() {
        return MAX_REFILL_DEPTH;
    }
    let depth = (4 * rtt.as_nanos()).div_ceil(compute.as_nanos());
    depth.clamp(1, MAX_REFILL_DEPTH as u128) as usize
}

fn worker_loop(ls: LoopState) {
    let template: Template = task_template(&ls.config.job);
    let mut executor: Option<Arc<dyn TaskExecutor>> = None;
    let mut first_access: Option<Instant> = None;
    // The unstarted tasks of the batch in hand — taken in one round trip,
    // up to `refill_depth` of them, under the transaction the outbox
    // holds — each with the cost attribution its result will carry: the
    // take's round trip is charged as `wait_us` to the batch's first task
    // and amortised into `xfer_us` across all of them.
    let mut prefetched: VecDeque<(Tuple, acc_cluster::TaskTiming)> = VecDeque::new();
    // Tail-based trace retention: the decision whether a finished task
    // was "slow" is made here, where the task's spans live (flight rings
    // are per-process). Its window of compute times also sizes refills.
    let mut retention = TraceRetention::new(&ls.config.framework);
    let mut outbox = Outbox::default();
    let mut transport_strikes = 0u32;
    let set_load = |pct: u64| {
        if let Some(load) = &ls.config.node_load {
            load.set_framework(pct);
        }
    };
    let unstarted = |prefetched: &mut VecDeque<(Tuple, _)>| -> Vec<Tuple> {
        prefetched.drain(..).map(|(tuple, _)| tuple).collect()
    };

    loop {
        if ls.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let state = *ls.state.lock();
        match state {
            WorkerState::Stopped | WorkerState::Paused => {
                set_load(0);
                // Blocked on the signal channel; nothing else to do.
                if let Some(msg) = ls.config.duplex.recv_timeout(Duration::from_millis(25)) {
                    handle_message(&ls, msg, &mut executor, &set_load);
                }
            }
            WorkerState::Running => {
                // Signals are drained between tasks (paper §4.3: the node
                // configuration engine forwards the signal before the
                // worker fetches the next task). One that takes the worker
                // off Running first ends the batch: its results commit,
                // with the tasks it did not start handed back, before the
                // worker reacts (and acks).
                if let Some(msg) = ls.config.duplex.try_recv() {
                    let leaves = matches!(&msg, RuleMessage::Signal { signal }
                        if WorkerState::Running.apply(*signal).is_some());
                    if leaves && !carries_on(&outbox.commit(&ls, unstarted(&mut prefetched))) {
                        break;
                    }
                    handle_message(&ls, msg, &mut executor, &set_load);
                    continue;
                }
                let Some(exec) = executor.clone() else {
                    // Running without linked code should not happen; recover
                    // by stopping.
                    *ls.state.lock() = WorkerState::Stopped;
                    continue;
                };
                let Some((tuple, mut timing)) = prefetched.pop_front() else {
                    // The batch is done: it commits with its results as
                    // the next batch is taken, one exchange where the
                    // store pipelines them.
                    set_load(IDLE_RUNNING_LOAD);
                    let median_compute = retention.median_compute();
                    let depth = refill_depth(outbox.min_flush, median_compute);
                    let take_start = Instant::now();
                    let (committed, taken) = outbox.commit_and_refill(&ls, &template, depth);
                    match taken {
                        Ok(batch) => {
                            transport_strikes = 0;
                            if !batch.is_empty() {
                                // The depth and the inputs that chose it
                                // (0 µs: not measured yet).
                                let us =
                                    |d: Option<Duration>| d.map_or(0, |d| d.as_micros() as u64);
                                event!(
                                    "worker.prefetch",
                                    count = batch.len() as u64,
                                    depth = depth as u64,
                                    min_flush_us = us(outbox.min_flush),
                                    median_compute_us = us(median_compute)
                                );
                            }
                            let rtt_us = take_start.elapsed().as_micros() as u64;
                            let xfer_us = rtt_us / batch.len().max(1) as u64;
                            prefetched.extend(batch.into_iter().enumerate().map(|(i, tuple)| {
                                let wait_us = if i == 0 { rtt_us } else { 0 };
                                let timing = acc_cluster::TaskTiming {
                                    wait_us,
                                    xfer_us,
                                    ..Default::default()
                                };
                                (tuple, timing)
                            }));
                        }
                        Err(SpaceError::Transport(_))
                            if transport_strikes + 1 < MAX_TRANSPORT_STRIKES =>
                        {
                            // Transient: the server may be restarting.
                            transport_strikes += 1;
                            series().transport_strikes.inc();
                        }
                        Err(_) => break, // space closed: cluster shutting down
                    }
                    // A failed commit ends the loop, as any failed write
                    // does; a batch the pair took all the same is the batch
                    // in hand, handed back on the way out.
                    if !carries_on(&committed) {
                        break;
                    }
                    // Re-check signals before starting on the batch.
                    continue;
                };
                let Some(task) = TaskEntry::from_tuple(&tuple) else {
                    continue;
                };
                if first_access.is_none() {
                    first_access = Some(Instant::now());
                }
                // Adopt the master's trace context from the task tuple (if
                // present) before opening any spans, so worker.task and
                // worker.compute — and the result tuple written below —
                // join the master's trace.
                let _trace_ctx = crate::task::tuple_trace_context(&tuple)
                    .map(acc_telemetry::TraceContext::attach);
                let _task_span = span!(
                    "worker.task",
                    worker = ls.config.name.as_str(),
                    task_id = task.task_id,
                );
                event!("worker.task.take", task_id = task.task_id);
                set_load(COMPUTE_LOAD);
                let compute_start = Instant::now();
                let outcome = {
                    let _compute = span!("worker.compute", task_id = task.task_id);
                    execute_policed(&exec, &task, &ls.config.framework.policy)
                };
                let compute = compute_start.elapsed();
                let compute_ms = compute.as_secs_f64() * 1e3;
                timing.compute_us = (compute_ms * 1e3) as u64;
                timing.write_us = outbox.last_write_us;
                let rtt_us = outbox.min_flush.map_or(0, |d| d.as_micros() as u64);
                retention.observe(&task.job, timing.compute_us, outcome.is_err(), rtt_us);
                set_load(IDLE_RUNNING_LOAD);
                let span_ms = first_access
                    .map(|f| f.elapsed().as_secs_f64() * 1e3)
                    .unwrap_or(compute_ms);
                let (payload, error) = match outcome {
                    Ok(payload) => (payload, None),
                    Err(_) if task.retries < ls.config.framework.max_task_retries => {
                        // Return the task to the space (with its retry count
                        // bumped) so another attempt — possibly on another
                        // worker — can succeed. It is handed back with the
                        // batch, so it shows exactly when the task it
                        // retries is gone.
                        let mut retry = task.clone();
                        retry.retries += 1;
                        outbox.tuples.push(retry.into_tuple());
                        continue;
                    }
                    // Poison task: a terminal error result, so the master
                    // can account for it.
                    Err(e) => (Vec::new(), Some(e.to_string())),
                };
                outbox.push(ResultEntry {
                    job: task.job.clone(),
                    task_id: task.task_id,
                    worker: ls.config.name.clone(),
                    payload,
                    compute_ms,
                    span_ms,
                    error,
                    timing,
                });
                // The batch's last task: where a round trip is small change
                // beside its compute, the batch commits now, alone and
                // timed, instead of with the next take.
                if prefetched.is_empty()
                    && outbox.worth_flushing_after(compute)
                    && !carries_on(&outbox.commit(&ls, Vec::new()))
                {
                    break;
                }
            }
        }
    }
    // Whatever ended the loop (shutdown, space closed, failed write): the
    // batch in hand commits with its finished results and its unstarted
    // tasks handed back, so neither is lost with this worker.
    let _ = outbox.commit(&ls, unstarted(&mut prefetched));
    set_load(0);
    ls.config.duplex.send(RuleMessage::Bye);
}

/// Whether the worker goes on after a commit: unless it failed for
/// another reason than `TxnInactive` — the connection that held the
/// batch's transaction dropped, which settled it whole (aborted, or
/// committed with the answer lost), so the batch is in the space once
/// either way and the worker drops its copy of the results.
fn carries_on(committed: &SpaceResult<()>) -> bool {
    !matches!(committed, Err(e) if *e != SpaceError::TxnInactive)
}

/// Tail-based trace retention, decided worker-side, after the task ends,
/// where the task's flight records live: pin the current trace when the
/// task errored/retried, or when its compute time exceeds the
/// 95th percentile of the compute times of the tasks this worker ran
/// before it (the last `history_depth` of them, once there are 8) by
/// more than the worker's measured round trip. A worker runs the tasks
/// of one job, so one window is its per-job history. Every task is
/// recorded, traced or not: the median of the latest of them sizes the
/// worker's refills ([`TraceRetention::median_compute`]).
///
/// Exceeds, not reaches: on a job of equal-cost tasks — zero-compute ones
/// above all, whose every sample reads 0 µs — the percentile *is* the
/// common cost, and a `>=` would pin every task. And by more than a round
/// trip: once a worker's few slow samples leave the top 5 %, the
/// percentile of a cheap job reads 0 µs, and a 1 µs blip would pin the
/// job's trace. A task that costs less extra than one round trip cannot
/// be what makes its job slow.
///
/// Runs once per task, so it does no allocation and no sort: the window
/// is a [`SortedWindow`](acc_telemetry::SortedWindow).
#[derive(Debug)]
pub struct TraceRetention {
    window: acc_telemetry::SortedWindow,
}

/// The percentile of a worker's compute history that a task must exceed
/// for its trace to be retained.
const TRACE_RETENTION_PERCENTILE: f64 = 0.95;

/// Tasks a worker must have seen before the percentile rule fires —
/// below this the distribution is noise.
const TRACE_RETENTION_MIN_SAMPLES: usize = 8;

impl TraceRetention {
    /// Retention over a window of `framework`'s `history_depth`.
    pub fn new(framework: &FrameworkConfig) -> TraceRetention {
        TraceRetention {
            window: acc_telemetry::SortedWindow::new(framework.history_depth),
        }
    }

    /// Judges the task that just ended on this thread, inside its trace:
    /// pins the trace if the task was slow or errored, and says whether
    /// it did. The threshold is taken *before* recording the new sample,
    /// so a task is judged against the distribution of its predecessors.
    /// `rtt_us` is the worker's round trip, its fastest stand-alone
    /// result write, 0 while unmeasured.
    pub fn observe(&mut self, job: &str, compute_us: u64, errored: bool, rtt_us: u64) -> bool {
        let threshold = (self.window.len() >= TRACE_RETENTION_MIN_SAMPLES)
            .then(|| self.window.percentile(TRACE_RETENTION_PERCENTILE))
            .flatten();
        self.window.record(compute_us);
        if !acc_telemetry::flight::installed() {
            return false;
        }
        let Some(ctx) = acc_telemetry::TraceContext::current() else {
            return false; // untraced task: nothing to pin
        };
        let slow = threshold.is_some_and(|t| compute_us > t.saturating_add(rtt_us));
        if errored || slow {
            acc_telemetry::flight::retain_trace(ctx.trace_id);
            event!(
                "worker.trace.retained",
                job = job,
                compute_us = compute_us,
                errored = errored
            );
        }
        errored || slow
    }

    /// The median compute time of the last 32 tasks observed (the refill
    /// cap: a capped batch's worth), or `None` before the first.
    /// Not of the whole window: a worker whose window holds a long history
    /// of dear tasks would go on refilling one task at a time for half
    /// that history after the tasks turned cheap, while a peer with a
    /// shorter history drained the job at the cap.
    pub fn median_compute(&self) -> Option<Duration> {
        self.window
            .recent_median(MAX_REFILL_DEPTH)
            .map(Duration::from_micros)
    }
}

/// The batch in hand's transaction, and what it commits with: the
/// finished results, and any task handed back.
///
/// One blocking `write` per result is a round trip per task; for tasks
/// cheaper than that round trip it is most of the worker's time. So
/// results collect here and commit with their batch, paired with the take
/// for the next batch ([`Outbox::commit_and_refill`]) — or alone, when
/// the batch's last task computed for longer than a round trip
/// ([`Outbox::worth_flushing_after`]), so a compute-bound job, whose
/// batches are one task deep, writes each result the moment it exists, as
/// without an outbox; and when a signal takes the worker off Running or
/// the loop exits, with the unstarted tasks handed back (paper §4.3: only
/// the executing task is the worker's to finish).
///
/// A result counts as done (`tasks_done`) when its commit succeeds, not
/// when it is buffered.
#[derive(Default)]
struct Outbox {
    /// The transaction the batch in hand was taken under.
    txn: BatchTxn,
    /// The results buffered, then any task handed back.
    tuples: Vec<Tuple>,
    /// `(task_id, poisoned)` of each buffered result, booked on commit.
    tasks: Vec<(u64, bool)>,
    /// The fastest stand-alone commit round trip seen — what one write
    /// costs when nothing else delays it. A minimum because every other statistic of
    /// the samples also measures the host: a commit that shared the CPU
    /// with the other worker's timeslice reads milliseconds, and judged
    /// by that a millisecond-scale task would look cheap and have its
    /// (large) result held back to ride a batch frame. Also the round
    /// trip [`refill_depth`] sizes refills by.
    min_flush: Option<Duration>,
    /// The previous commit's duration ÷ its result count — zero when it
    /// rode the refill exchange, whose time is charged to the take. A
    /// worker cannot know a result's write cost before writing it, so
    /// this rides the *next* results' [`TaskTiming`](acc_cluster::TaskTiming).
    last_write_us: u64,
}

impl Outbox {
    fn push(&mut self, result: ResultEntry) {
        self.tasks.push((result.task_id, result.error.is_some()));
        self.tuples.push(result.into_tuple());
    }

    /// Whether the batch whose last result was just pushed should commit
    /// now instead of with the next take: its task computed for longer
    /// than a commit costs (so the round trip saved is small change, and
    /// the result may be large), or no commit has been timed yet.
    fn worth_flushing_after(&self, compute: Duration) -> bool {
        self.min_flush.is_none_or(|rtt| compute > rtt)
    }

    /// Commits the batch in one space operation of its own, `unstarted`
    /// tasks handed back with it, and times it when it carried results:
    /// these stand-alone commits (first result, long task, signal, exit)
    /// are the only samples of [`Outbox::min_flush`], because only they
    /// measure a write and nothing else.
    fn commit(&mut self, ls: &LoopState, unstarted: Vec<Tuple>) -> SpaceResult<()> {
        let tasks = std::mem::take(&mut self.tasks);
        let mut tuples = std::mem::take(&mut self.tuples);
        tuples.extend(unstarted);
        let txn = std::mem::take(&mut self.txn);
        record_writes(&tasks);
        let start = Instant::now();
        let committed = ls.config.space.commit_batch(Batch { txn, tuples });
        if committed.is_ok() && !tasks.is_empty() {
            let took = start.elapsed();
            self.min_flush = Some(self.min_flush.map_or(took, |min| min.min(took)));
            self.last_write_us = took.as_micros() as u64 / tasks.len() as u64;
        }
        settled(ls, &tasks, committed)
    }

    /// The refill point: the batch commits with what is buffered *as* the
    /// next batch of up to `max` tasks is taken — one pipelined exchange
    /// on a store that pairs them (`RemoteSpace`, the one-shard grid),
    /// the same two calls as ever on one that does not. Both outcomes
    /// come back, the commit's first; the new batch's transaction stays
    /// here, its tasks go to the caller.
    ///
    /// The exchange's wall time is the caller's to charge, once, to the
    /// take; the results that rode it cost no write of their own, so the
    /// next results carry `write_us = 0` and no commit sample is taken.
    fn commit_and_refill(
        &mut self,
        ls: &LoopState,
        template: &Template,
        max: usize,
    ) -> (SpaceResult<()>, SpaceResult<Vec<Tuple>>) {
        let tasks = std::mem::take(&mut self.tasks);
        let done = Batch {
            txn: std::mem::take(&mut self.txn),
            tuples: std::mem::take(&mut self.tuples),
        };
        record_writes(&tasks);
        let timeout = Some(ls.config.framework.task_poll_timeout);
        let (committed, taken) = ls.config.space.take_batch(done, template, max, timeout);
        if committed.is_ok() && !tasks.is_empty() {
            self.last_write_us = 0;
        }
        let taken = taken.map(|batch| {
            self.txn = batch.txn;
            batch.tuples
        });
        (settled(ls, &tasks, committed), taken)
    }
}

/// Books a commit's results: done when it succeeded (poisoned ones
/// apart); dropped with their batch when its transaction was gone. That
/// batch was aborted (its tasks are back in the space, to be run again)
/// or committed with its answer lost — then its results are in the space
/// but not in `tasks_done`, which undercounts by them: it is a progress
/// gauge, not an exact count.
fn settled(ls: &LoopState, tasks: &[(u64, bool)], committed: SpaceResult<()>) -> SpaceResult<()> {
    match &committed {
        Ok(()) => {
            let completed = tasks.iter().filter(|&&(_, poisoned)| !poisoned).count();
            *ls.tasks_done.lock() += completed as u64;
        }
        Err(SpaceError::TxnInactive) => {
            event!("worker.batch.aborted", results = tasks.len() as u64);
        }
        Err(_) => {}
    }
    committed
}

/// Records a `worker.result.write` event for each result of a commit,
/// `(task_id, poisoned)` each, as the commit goes out. Before it, not
/// after: the master may take a result the moment its commit lands, so a
/// worker that lost the CPU between its commit returning and the record
/// would leave a trace in which the job ended before its result was
/// written. A commit that then fails stops the worker or drops the
/// batch; its results are then not in the space, unless a `TxnInactive`
/// refusal hid a commit that landed.
fn record_writes(tasks: &[(u64, bool)]) {
    for &(task_id, poisoned) in tasks {
        if poisoned {
            event!("worker.result.write", task_id = task_id, poisoned = true);
        } else {
            event!("worker.result.write", task_id = task_id);
        }
    }
}

fn handle_message(
    ls: &LoopState,
    msg: RuleMessage,
    executor: &mut Option<Arc<dyn TaskExecutor>>,
    set_load: &impl Fn(u64),
) {
    let RuleMessage::Signal { signal } = msg else {
        return;
    };
    let client_signal_ms = ls.config.epoch.elapsed().as_millis() as u64;
    let current = *ls.state.lock();
    let Some(next) = current.apply(signal) else {
        // Invalid in this state: re-ack with the current state so the
        // inference engine can resynchronise.
        ls.config.duplex.send(RuleMessage::Ack {
            signal,
            new_state: current,
        });
        return;
    };
    // Act on the signal.
    match signal {
        Signal::Start => {
            // Remote node configuration: fetch + verify + link, paying the
            // modeled class-loading cost. This is the overhead Resume
            // avoids.
            set_load(CLASS_LOAD_LOAD);
            match ls.config.bundle_server.fetch(&ls.config.bundle_name) {
                Ok((bundle, cost)) => {
                    std::thread::sleep(cost);
                    match ls.config.registry.link(&bundle) {
                        Ok(exec) => *executor = Some(exec),
                        Err(_) => {
                            set_load(0);
                            ls.config.duplex.send(RuleMessage::Ack {
                                signal,
                                new_state: current,
                            });
                            return;
                        }
                    }
                }
                Err(_) => {
                    set_load(0);
                    ls.config.duplex.send(RuleMessage::Ack {
                        signal,
                        new_state: current,
                    });
                    return;
                }
            }
            set_load(IDLE_RUNNING_LOAD);
        }
        Signal::Stop => {
            // Shutdown/cleanup: drop the linked classes; the next Start
            // must reload them.
            *executor = None;
            set_load(0);
        }
        Signal::Pause => {
            // Temporary back-off: classes stay in memory.
            set_load(0);
        }
        Signal::Resume => {
            // No class loading: remove the lock on the interrupted thread.
            if executor.is_none() {
                // Lost our classes somehow; treat as a failed resume.
                ls.config.duplex.send(RuleMessage::Ack {
                    signal,
                    new_state: current,
                });
                return;
            }
            set_load(IDLE_RUNNING_LOAD);
        }
    }
    let worker_signal_ms = ls.config.epoch.elapsed().as_millis() as u64;
    event!(
        "worker.transition",
        worker = ls.config.name.as_str(),
        signal = format!("{signal:?}"),
        from = format!("{current:?}"),
        to = format!("{next:?}"),
    );
    ls.log.lock().push(SignalLogEntry {
        signal,
        client_signal_ms,
        worker_signal_ms,
        new_state: next,
    });
    // Published after the log entry: whoever sees the new state (tests
    // poll it) must also find the transition in the signal log.
    *ls.state.lock() = next;
    ls.config.duplex.send(RuleMessage::Ack {
        signal,
        new_state: next,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::CodeBundle;
    use crate::rulebase::{duplex_pair, RuleBaseServer};
    use crate::task::{ExecError, TaskSpec};
    use acc_tuplespace::{EntryId, Lease, Payload, Space, SpaceHandle, TupleStore};

    struct SquareExec;
    impl TaskExecutor for SquareExec {
        fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
            let x: u64 = task.input()?;
            Ok((x * x).to_bytes())
        }
    }

    struct Rig {
        space: SpaceHandle,
        server: Arc<RuleBaseServer>,
        worker: WorkerRuntime,
    }

    fn rig() -> Rig {
        let space = Space::new("rig");
        let store: StoreHandle = space.clone();
        rig_with(
            space,
            store,
            Arc::new(SquareExec),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                ..FrameworkConfig::default()
            },
        )
    }

    /// Like [`rig`] but with the worker reaching the space through an
    /// arbitrary store (for failure injection), a custom executor, and
    /// explicit tunables. `space` is the underlying space tests seed and
    /// inspect directly.
    fn rig_with(
        space: SpaceHandle,
        store: StoreHandle,
        exec: Arc<dyn TaskExecutor>,
        framework: FrameworkConfig,
    ) -> Rig {
        let server = RuleBaseServer::new(Arc::new(|_, _| {}));
        let bundle_server = BundleServer::new(Duration::from_millis(5), Duration::ZERO);
        bundle_server.publish(CodeBundle::synthetic("sq", 1, 1));
        let registry = ExecutorRegistry::new();
        registry.register("sq", exec);
        let (client, server_side) = duplex_pair();
        let server2 = server.clone();
        let accept = std::thread::spawn(move || {
            server2.accept(server_side, Duration::from_secs(5)).unwrap()
        });
        let worker = WorkerRuntime::spawn(WorkerConfig {
            name: "w01".into(),
            space: store,
            bundle_server,
            registry,
            duplex: client,
            bundle_name: "sq".into(),
            job: "squares".into(),
            node_load: None,
            epoch: Instant::now(),
            framework,
        })
        .unwrap();
        let id = accept.join().unwrap();
        assert_eq!(id, worker.id());
        Rig {
            space,
            server,
            worker,
        }
    }

    fn wait_for(pred: impl Fn() -> bool, what: &str) {
        let begun = Instant::now();
        while !pred() {
            assert!(
                begun.elapsed() < Duration::from_secs(5),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn put_task(space: &SpaceHandle, id: u64, x: u64) {
        let spec = TaskSpec::new(id, &x);
        let entry = TaskEntry::new("squares", spec.task_id, spec.payload);
        space.write(entry.to_tuple()).unwrap();
    }

    /// The tie at the threshold: equal-cost tasks (zero-compute ones read
    /// 0 µs, and so does their p95) must retain nothing, while a task
    /// that really is slower than its predecessors still does.
    #[test]
    fn equal_cost_tasks_retain_nothing_and_a_slow_one_among_them_is_retained() {
        use acc_telemetry::flight;
        flight::install();
        for cost_us in [0u64, 40] {
            let mut retention = TraceRetention::new(&FrameworkConfig::default());
            let job_trace = acc_telemetry::TraceContext::root();
            let _ctx = job_trace.attach();
            for _ in 0..250 {
                assert!(!retention.observe("squares", cost_us, false, 0));
            }
            assert!(!flight::is_retained(job_trace.trace_id), "cost {cost_us}");
            // One task 50x its peers (at least 50 us, for the 0 us job).
            assert!(retention.observe("squares", (50 * cost_us).max(50), false, 0));
            assert!(flight::is_retained(job_trace.trace_id), "cost {cost_us}");
            for _ in 0..249 {
                assert!(!retention.observe("squares", cost_us, false, 0));
            }
            // Errors pin whatever they cost.
            assert!(retention.observe("squares", cost_us, true, 0));
        }
    }

    /// The blips of a cheap job: once its window reads 0 µs, tasks of 1–3
    /// µs under a 30 µs round trip retain nothing, and a task 50x the
    /// percentile (at least 50 us, as above) still is retained.
    #[test]
    fn blips_within_a_round_trip_retain_nothing_and_a_slow_task_still_is() {
        use acc_telemetry::flight;
        flight::install();
        let mut retention = TraceRetention::new(&FrameworkConfig::default());
        let job_trace = acc_telemetry::TraceContext::root();
        let _ctx = job_trace.attach();
        for i in 0..250u64 {
            // One task in 25 blips, 1 to 3 us: 4 %, so the p95 stays 0 us.
            let compute_us = if i % 25 == 24 { 1 + i / 25 % 3 } else { 0 };
            assert!(
                !retention.observe("squares", compute_us, false, 30),
                "task {i}"
            );
        }
        assert!(!flight::is_retained(job_trace.trace_id));
        assert!(retention.observe("squares", 50, false, 30));
        assert!(flight::is_retained(job_trace.trace_id));
    }

    #[test]
    fn refill_depth_is_one_until_both_inputs_are_measured() {
        let rtt = Some(Duration::from_micros(30));
        assert_eq!(refill_depth(None, None), 1);
        assert_eq!(refill_depth(rtt, None), 1);
        assert_eq!(refill_depth(None, Some(Duration::ZERO)), 1);
    }

    #[test]
    fn refill_depth_takes_a_task_alone_once_it_outweighs_four_round_trips() {
        let rtt = Some(Duration::from_micros(30));
        assert_eq!(refill_depth(rtt, Some(Duration::from_millis(7))), 1);
        assert_eq!(refill_depth(rtt, Some(Duration::from_micros(120))), 1);
        assert_eq!(refill_depth(rtt, Some(Duration::from_micros(119))), 2);
    }

    #[test]
    fn refill_depth_caps_zero_compute_and_lands_between_for_cheap_tasks() {
        let rtt = Some(Duration::from_micros(60));
        assert_eq!(refill_depth(rtt, Some(Duration::ZERO)), MAX_REFILL_DEPTH);
        // ⌈4 · 60 ÷ 13.5⌉ = 18, strictly between 1 and the cap.
        assert_eq!(refill_depth(rtt, Some(Duration::from_nanos(13_500))), 18);
    }

    #[test]
    fn refill_depth_never_exceeds_the_cap_nor_rises_with_compute() {
        for rtt_us in [1, 13, 60, 2_000, 1_000_000] {
            let rtt = Some(Duration::from_micros(rtt_us));
            let mut previous = MAX_REFILL_DEPTH;
            for compute_us in (0..10_000).step_by(7) {
                let depth = refill_depth(rtt, Some(Duration::from_micros(compute_us)));
                assert!(
                    (1..=previous).contains(&depth),
                    "{rtt_us} µs, {compute_us} µs"
                );
                previous = depth;
            }
        }
    }

    #[test]
    fn the_median_compute_counts_untraced_tasks() {
        let mut retention = TraceRetention::new(&FrameworkConfig::default());
        assert_eq!(retention.median_compute(), None);
        for compute_us in [7, 1, 40] {
            retention.observe("squares", compute_us, false, 0);
        }
        assert_eq!(retention.median_compute(), Some(Duration::from_micros(7)));
    }

    /// The refill median is of the last `MAX_REFILL_DEPTH` tasks, not of
    /// the whole retention window: a worker with a long history of 6 ms
    /// tasks deepens its refills after 16 zero-compute ones, not after
    /// as many as it has history.
    #[test]
    fn the_median_compute_follows_a_change_in_task_cost() {
        let mut retention = TraceRetention::new(&FrameworkConfig {
            history_depth: 2048,
            ..FrameworkConfig::default()
        });
        for _ in 0..200 {
            retention.observe("squares", 6_000, false, 0);
        }
        for _ in 0..15 {
            retention.observe("squares", 0, false, 0);
        }
        assert_eq!(retention.median_compute(), Some(Duration::from_millis(6)));
        retention.observe("squares", 0, false, 0);
        assert_eq!(retention.median_compute(), Some(Duration::ZERO));
    }

    #[test]
    fn worker_idles_until_started() {
        let r = rig();
        put_task(&r.space, 0, 4);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(r.worker.state(), WorkerState::Stopped);
        assert_eq!(r.worker.tasks_done(), 0);
        assert_eq!(r.space.len(), 1, "task untouched while stopped");
    }

    #[test]
    fn start_compute_result_flow() {
        let r = rig();
        put_task(&r.space, 0, 6);
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.tasks_done() == 1, "task completion");
        let result = r
            .space
            .take(
                &crate::task::result_template("squares"),
                Some(Duration::from_secs(2)),
            )
            .unwrap()
            .unwrap();
        let entry = ResultEntry::from_tuple(&result).unwrap();
        assert_eq!(u64::from_bytes(&entry.payload).unwrap(), 36);
        assert_eq!(entry.worker, "w01");
        assert!(entry.span_ms >= 0.0);
        // The Start transition is in the signal log with a class-load cost.
        let log = r.worker.signal_log();
        assert_eq!(log[0].signal, Signal::Start);
        assert!(log[0].reaction_ms() >= 5, "class loading cost paid");
        r.worker.shutdown();
    }

    #[test]
    fn pause_stops_consumption_resume_restarts() {
        let r = rig();
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.state() == WorkerState::Running, "start");
        r.server.send_signal(r.worker.id(), Signal::Pause);
        wait_for(|| r.worker.state() == WorkerState::Paused, "pause");
        put_task(&r.space, 1, 3);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(r.worker.tasks_done(), 0, "paused: no consumption");
        r.server.send_signal(r.worker.id(), Signal::Resume);
        wait_for(|| r.worker.tasks_done() == 1, "resume computes");
        // Resume must be much cheaper than Start (no class loading).
        let log = r.worker.signal_log();
        let start = log.iter().find(|e| e.signal == Signal::Start).unwrap();
        let resume = log.iter().find(|e| e.signal == Signal::Resume).unwrap();
        assert!(resume.reaction_ms() <= start.reaction_ms());
        r.worker.shutdown();
    }

    #[test]
    fn stop_then_start_reloads_classes() {
        let r = rig();
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.state() == WorkerState::Running, "start");
        r.server.send_signal(r.worker.id(), Signal::Stop);
        wait_for(|| r.worker.state() == WorkerState::Stopped, "stop");
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.state() == WorkerState::Running, "restart");
        let log = r.worker.signal_log();
        let starts: Vec<_> = log.iter().filter(|e| e.signal == Signal::Start).collect();
        assert_eq!(starts.len(), 2);
        assert!(
            starts[1].reaction_ms() >= 5,
            "restart pays class load again"
        );
        r.worker.shutdown();
    }

    #[test]
    fn invalid_signal_is_ignored() {
        let r = rig();
        r.server.send_signal(r.worker.id(), Signal::Resume);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(r.worker.state(), WorkerState::Stopped);
        assert!(r.worker.signal_log().is_empty());
        r.worker.shutdown();
    }

    #[test]
    fn space_close_terminates_worker() {
        let r = rig();
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.state() == WorkerState::Running, "start");
        r.space.close();
        // The loop exits; shutdown() joins promptly.
        r.worker.shutdown();
    }

    /// What every write of the slow test stores costs. The first result
    /// goes out alone and timed, so a worker's second refill reads this
    /// round trip and sits at [`MAX_REFILL_DEPTH`] while the first task's
    /// compute stays under 4 · 10 ms ÷ 32 = 1.25 ms: microsecond tasks
    /// with room for a preempted or cold first one.
    const ROUND_TRIP: Duration = Duration::from_millis(10);

    /// Delegates everything to an inner space, but fails writes once
    /// armed — the shape of a master whose space became unreachable for
    /// writes while takes still drain a local queue. Its batches are the
    /// trait's defaults: taken bare, committed as plain writes. Every
    /// write also costs `write_delay` (a round trip far dearer than the
    /// test tasks, so their results are buffered rather than flushed one
    /// by one), and the results in every write that carries any and the
    /// `max` of every batch take are logged.
    struct FailingWriteStore {
        inner: SpaceHandle,
        arm: AtomicBool,
        write_delay: Duration,
        result_writes: Mutex<Vec<usize>>,
        refill_depths: Mutex<Vec<usize>>,
    }

    impl FailingWriteStore {
        fn new(inner: SpaceHandle, write_delay: Duration) -> Arc<FailingWriteStore> {
            Arc::new(FailingWriteStore {
                inner,
                arm: AtomicBool::new(false),
                write_delay,
                result_writes: Mutex::new(Vec::new()),
                refill_depths: Mutex::new(Vec::new()),
            })
        }

        fn before_write(&self, tuples: &[Tuple]) -> SpaceResult<()> {
            std::thread::sleep(self.write_delay);
            if self.arm.load(Ordering::SeqCst) {
                return Err(SpaceError::Storage("injected write failure".into()));
            }
            let results = tuples
                .iter()
                .filter(|t| t.type_name() == crate::task::RESULT_TYPE)
                .count();
            if results > 0 {
                self.result_writes.lock().push(results);
            }
            Ok(())
        }
    }

    impl TupleStore for FailingWriteStore {
        fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
            self.before_write(std::slice::from_ref(&tuple))?;
            self.inner.write_leased(tuple, lease)
        }
        fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
            self.before_write(&tuples)?;
            self.inner.write_all_leased(tuples, lease)
        }
        fn read(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
            self.inner.read(t, timeout)
        }
        fn take(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
            self.inner.take(t, timeout)
        }
        fn take_up_to(
            &self,
            t: &Template,
            max: usize,
            timeout: Option<Duration>,
        ) -> SpaceResult<Vec<Tuple>> {
            self.refill_depths.lock().push(max);
            self.inner.take_up_to(t, max, timeout)
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

    /// Squares its input, and runs `hook` while executing the `at`-th
    /// task it sees — how a test lands a signal (or a fault) between two
    /// tasks of one prefetched batch, deterministically.
    struct HookedExec {
        seen: std::sync::atomic::AtomicUsize,
        at: usize,
        hook: Mutex<Option<Box<dyn Fn() + Send>>>,
    }

    impl HookedExec {
        fn at(at: usize) -> Arc<HookedExec> {
            Arc::new(HookedExec {
                seen: std::sync::atomic::AtomicUsize::new(0),
                at,
                hook: Mutex::new(None),
            })
        }
    }

    impl TaskExecutor for HookedExec {
        fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
            if self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.at {
                if let Some(hook) = self.hook.lock().as_ref() {
                    hook();
                }
            }
            let x: u64 = task.input()?;
            Ok((x * x).to_bytes())
        }
    }

    /// The task ids of every tuple in `space` matching `template`.
    fn task_ids(space: &SpaceHandle, template: &Template) -> Vec<i64> {
        let mut ids: Vec<i64> = space
            .read_all(template)
            .unwrap()
            .iter()
            .map(|t| t.get_int("task_id").unwrap())
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn retry_write_failure_stops_worker_without_losing_queued_tasks() {
        struct AlwaysFails;
        impl TaskExecutor for AlwaysFails {
            fn execute(&self, _: &TaskEntry) -> Result<Vec<u8>, ExecError> {
                Err(ExecError::App("always fails".into()))
            }
        }
        let space = Space::new("failing-writes");
        let store = FailingWriteStore::new(space.clone(), Duration::ZERO);
        let r = rig_with(
            space.clone(),
            store.clone(),
            Arc::new(AlwaysFails),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                max_task_retries: 10,
                ..FrameworkConfig::default()
            },
        );
        put_task(&r.space, 0, 1);
        put_task(&r.space, 1, 2);
        store.arm.store(true, Ordering::SeqCst);
        r.server.send_signal(r.worker.id(), Signal::Start);
        // The worker takes task 0 alone (a first refill has measured
        // nothing, so its depth is 1), fails it, and cannot write the retry
        // back: it must stop there — not swallow the error and keep
        // consuming (and losing) the rest of the queue.
        wait_for(|| space.len() == 1, "first task taken");
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            space.len(),
            1,
            "worker kept consuming tasks after a failed retry write"
        );
        assert_eq!(r.worker.tasks_done(), 0);
        r.worker.shutdown();
    }

    #[test]
    fn flush_failure_stops_worker_without_consuming_further_tasks() {
        let space = Space::new("failing-flush");
        let store = FailingWriteStore::new(space.clone(), ROUND_TRIP);
        // Task 0 comes alone and its result goes out alone; the next
        // refill is a capped batch, 1..=CAP. Writes start failing while
        // its second task runs, so its results are (or will be) buffered.
        let exec = HookedExec::at(3);
        let r = rig_with(
            space.clone(),
            store.clone(),
            exec.clone(),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                ..FrameworkConfig::default()
            },
        );
        let arm = store.clone();
        *exec.hook.lock() = Some(Box::new(move || arm.arm.store(true, Ordering::SeqCst)));
        let total = 1 + MAX_REFILL_DEPTH as i64 + 4;
        for i in 0..total {
            put_task(&r.space, i as u64, i as u64);
        }
        r.server.send_signal(r.worker.id(), Signal::Start);
        // The batch's flush fails; the worker must end there, as after a
        // failed single write — not fetch the next batch and lose it too.
        let worker_thread = r.worker.thread.as_ref().unwrap();
        wait_for(|| worker_thread.is_finished(), "worker loop exit");
        assert_eq!(r.worker.tasks_done(), 1, "only the flushed result counts");
        assert_eq!(*store.result_writes.lock(), vec![1]);
        assert_eq!(
            task_ids(&space, &task_template("squares")),
            (1 + MAX_REFILL_DEPTH as i64..total).collect::<Vec<_>>(),
            "the tasks after the failed batch must still be in the space"
        );
        r.worker.shutdown();
    }

    #[test]
    fn a_failed_paired_write_returns_the_tasks_its_take_removed_and_stops_the_worker() {
        /// A store that runs the refill pair as one exchange, like
        /// `RemoteSpace`: the next batch is taken by the time the commit's
        /// failure is known. A commit that fails drops its transaction,
        /// which aborts it, as a space server does. Its stand-alone
        /// commits work, at `ROUND_TRIP` each, so microsecond tasks
        /// buffer their results for the pair and refill at the cap.
        struct PairFailsWrite(SpaceHandle);
        impl TupleStore for PairFailsWrite {
            fn take_batch(
                &self,
                done: Batch,
                t: &Template,
                max: usize,
                timeout: Option<Duration>,
            ) -> (SpaceResult<()>, SpaceResult<Batch>) {
                if done.tuples.is_empty() {
                    return self.0.take_batch(done, t, max, timeout);
                }
                drop(done);
                let (_, taken) = self.0.take_batch(Batch::default(), t, max, timeout);
                (Err(SpaceError::Storage("injected".into())), taken)
            }
            fn commit_batch(&self, batch: Batch) -> SpaceResult<()> {
                std::thread::sleep(ROUND_TRIP);
                self.0.commit_batch(batch)
            }
            fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
                self.0.write_leased(tuple, lease)
            }
            fn read(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
                self.0.read(t, timeout)
            }
            fn take(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
                self.0.take(t, timeout)
            }
            fn count(&self, t: &Template) -> SpaceResult<usize> {
                Ok(Space::count(&self.0, t))
            }
            fn close(&self) {
                self.0.close()
            }
            fn is_closed(&self) -> bool {
                self.0.is_closed()
            }
        }
        let space = Space::new("failing-pair");
        let r = rig_with(
            space.clone(),
            Arc::new(PairFailsWrite(space.clone())),
            Arc::new(SquareExec),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                ..FrameworkConfig::default()
            },
        );
        let total = 1 + MAX_REFILL_DEPTH as i64 + 4;
        for i in 0..total {
            put_task(&r.space, i as u64, i as u64);
        }
        r.server.send_signal(r.worker.id(), Signal::Start);
        // Task 0 arrives alone and its result commits alone; the capped
        // batch 1..=CAP arrives by a take with nothing to commit. Its
        // results ride the refill pair, whose commit fails although its
        // take brought the last four tasks: the failed batch's tasks are
        // back in the space by its abort, the last four by the worker's
        // commit on the way out.
        let worker_thread = r.worker.thread.as_ref().unwrap();
        wait_for(|| worker_thread.is_finished(), "worker loop exit");
        assert_eq!(r.worker.tasks_done(), 1, "only the committed result counts");
        assert_eq!(
            task_ids(&space, &crate::task::result_template("squares")),
            vec![0]
        );
        assert_eq!(
            task_ids(&space, &task_template("squares")),
            (1..total).collect::<Vec<_>>(),
            "every task not done is back in the space, each once"
        );
        r.worker.shutdown();
    }

    /// A commit refused with `TxnInactive` — the connection that held the
    /// batch dropped, and the batch went back to the space — costs the
    /// worker that batch's results, not its life: it carries on, runs the
    /// batch's tasks again, and every result reaches the space once.
    #[test]
    fn a_refused_commit_drops_its_results_and_the_worker_carries_on() {
        /// Refuses the first commit that carries several results, as a
        /// server does a resent one: the batch is aborted (dropped) and
        /// the next is taken all the same.
        struct RefusesOnce(SpaceHandle, AtomicBool);
        impl TupleStore for RefusesOnce {
            fn take_batch(
                &self,
                done: Batch,
                t: &Template,
                max: usize,
                timeout: Option<Duration>,
            ) -> (SpaceResult<()>, SpaceResult<Batch>) {
                if done.tuples.len() < 2 || self.1.swap(true, Ordering::SeqCst) {
                    return self.0.take_batch(done, t, max, timeout);
                }
                drop(done);
                let (_, taken) = self.0.take_batch(Batch::default(), t, max, timeout);
                (Err(SpaceError::TxnInactive), taken)
            }
            fn commit_batch(&self, batch: Batch) -> SpaceResult<()> {
                std::thread::sleep(ROUND_TRIP);
                self.0.commit_batch(batch)
            }
            fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
                self.0.write_leased(tuple, lease)
            }
            fn read(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
                self.0.read(t, timeout)
            }
            fn take(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
                self.0.take(t, timeout)
            }
            fn count(&self, t: &Template) -> SpaceResult<usize> {
                Ok(Space::count(&self.0, t))
            }
            fn close(&self) {
                self.0.close()
            }
            fn is_closed(&self) -> bool {
                self.0.is_closed()
            }
        }
        let space = Space::new("refused");
        let store = Arc::new(RefusesOnce(space.clone(), AtomicBool::new(false)));
        let r = rig_with(
            space.clone(),
            store.clone(),
            Arc::new(SquareExec),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                ..FrameworkConfig::default()
            },
        );
        let total = 1 + MAX_REFILL_DEPTH as i64 + 4;
        for i in 0..total {
            put_task(&r.space, i as u64, i as u64);
        }
        r.server.send_signal(r.worker.id(), Signal::Start);
        let results = crate::task::result_template("squares");
        // Counted once each: the refused batch's results were not.
        wait_for(|| r.worker.tasks_done() == total as u64, "every result");
        assert!(store.1.load(Ordering::SeqCst), "a commit was refused");
        assert!(!r.worker.thread.as_ref().unwrap().is_finished());
        assert_eq!(r.worker.state(), WorkerState::Running);
        assert_eq!(task_ids(&space, &results), (0..total).collect::<Vec<_>>());
        assert_eq!(space.count(&task_template("squares")), 0);
        r.worker.shutdown();
    }

    #[test]
    fn results_that_rode_the_refill_exchange_carry_no_write_cost() {
        let space = Space::new("attribution");
        // A 10 ms round trip against microsecond tasks: everything after
        // the first result is buffered and leaves with a refill.
        let store = FailingWriteStore::new(space.clone(), ROUND_TRIP);
        let r = rig_with(
            space.clone(),
            store.clone(),
            Arc::new(SquareExec),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                ..FrameworkConfig::default()
            },
        );
        // Task 0 alone, then a capped batch, then the last four.
        let cap = MAX_REFILL_DEPTH;
        let total = 1 + cap + 4;
        for i in 0..total {
            put_task(&r.space, i as u64, i as u64);
        }
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(
            || r.worker.tasks_done() == total as u64,
            "all results flushed",
        );
        // One stand-alone flush (the first result), then one per refill.
        assert_eq!(*store.result_writes.lock(), vec![1, cap, 4]);
        let mut timing = vec![acc_cluster::TaskTiming::default(); total];
        for tuple in space
            .read_all(&crate::task::result_template("squares"))
            .unwrap()
        {
            let result = ResultEntry::from_tuple(&tuple).unwrap();
            timing[result.task_id as usize] = result.timing;
        }
        // `write_us` is the previous flush's cost per result: nothing
        // before task 0; the 10 ms stand-alone flush of result 0 before
        // tasks 1..=cap, which a plain take brought; and nothing again
        // after the refill exchange, whose whole time — write included —
        // is the take's, charged once to the batch's first task. A stale
        // 10 ms sample here is the bug.
        let write_us: Vec<u64> = timing.iter().map(|t| t.write_us).collect();
        assert_eq!(write_us[0], 0, "{write_us:?}");
        assert!(
            write_us[1..=cap].iter().all(|&us| us >= 10_000),
            "{write_us:?}"
        );
        assert_eq!(write_us[cap + 1..], [0; 4], "{write_us:?}");
        assert!(timing[cap + 1].wait_us >= 10_000, "{:?}", timing[cap + 1]);
        assert!(
            timing[cap + 2..].iter().all(|t| t.wait_us == 0),
            "{timing:?}"
        );
        r.worker.shutdown();
    }

    /// What takes the worker off its batch in
    /// [`hold_point_flushes_results_and_returns_unstarted_tasks`].
    #[derive(Clone, Copy, Debug)]
    enum HoldPoint {
        Signal(Signal),
        Shutdown,
    }

    /// Paper §4.3 with an outbox: when a Pause, a Stop or a shutdown lands
    /// between two tasks of a prefetched batch, the results already
    /// computed reach the space and the tasks not yet started go back to
    /// it, each exactly once. The hold lands while the `at`-th task runs:
    /// task 0 came alone, the rest of those `at` from a batch at the cap.
    fn hold_point_flushes_results_and_returns_unstarted_tasks(hold: HoldPoint, at: usize) {
        let space = Space::new("hold-point");
        // A 10 ms "round trip" against microsecond tasks: results buffer,
        // and the second refill takes a batch at the cap.
        let store = FailingWriteStore::new(space.clone(), ROUND_TRIP);
        let exec = HookedExec::at(at);
        let r = rig_with(
            space.clone(),
            store.clone(),
            exec.clone(),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                ..FrameworkConfig::default()
            },
        );
        let total = 1 + MAX_REFILL_DEPTH + 5;
        for i in 0..total {
            put_task(&r.space, i as u64, i as u64);
        }
        let hold_now: Box<dyn Fn() + Send> = match hold {
            HoldPoint::Signal(signal) => {
                let (server, id) = (r.server.clone(), r.worker.id());
                Box::new(move || {
                    server.send_signal(id, signal);
                })
            }
            HoldPoint::Shutdown => {
                let shutdown = r.worker.shutdown.clone();
                Box::new(move || shutdown.store(true, Ordering::SeqCst))
            }
        };
        // The hook also notes how many tasks the batch in hand left.
        let left_in_space = Arc::new(Mutex::new(None));
        let (seen, observed) = (space.clone(), left_in_space.clone());
        *exec.hook.lock() = Some(Box::new(move || {
            *observed.lock() = Some(seen.count(&task_template("squares")));
            hold_now();
        }));
        r.server.send_signal(r.worker.id(), Signal::Start);
        match hold {
            HoldPoint::Signal(signal) => {
                let held = WorkerState::Running.apply(signal).unwrap();
                wait_for(|| r.worker.state() == held, "the signal to land");
                // Let the loop reach its held arm, which returns the buffer.
                wait_for(
                    || space.count(&task_template("squares")) == total - at,
                    "unstarted tasks back in the space",
                );
            }
            HoldPoint::Shutdown => {
                let worker_thread = r.worker.thread.as_ref().unwrap();
                wait_for(|| worker_thread.is_finished(), "worker loop exit");
            }
        }
        assert_eq!(
            *left_in_space.lock(),
            Some(5),
            "{hold:?}: the batch in hand was {MAX_REFILL_DEPTH} deep"
        );
        // Tasks 0..at ran: result 0 went out alone (no flush timed yet),
        // the others were buffered and flushed together by the hold.
        assert_eq!(*store.result_writes.lock(), vec![1, at - 1], "{hold:?}");
        assert_eq!(r.worker.tasks_done(), at as u64, "{hold:?}");
        assert_eq!(
            task_ids(&space, &crate::task::result_template("squares")),
            (0..at as i64).collect::<Vec<_>>(),
            "{hold:?}: finished results in the space, each once"
        );
        assert_eq!(
            task_ids(&space, &task_template("squares")),
            (at as i64..total as i64).collect::<Vec<_>>(),
            "{hold:?}: unstarted tasks back in the space, each once"
        );
        r.worker.shutdown();
    }

    #[test]
    fn pause_flushes_the_outbox_and_returns_unstarted_tasks() {
        hold_point_flushes_results_and_returns_unstarted_tasks(HoldPoint::Signal(Signal::Pause), 3);
    }

    #[test]
    fn stop_flushes_the_outbox_and_returns_unstarted_tasks() {
        hold_point_flushes_results_and_returns_unstarted_tasks(HoldPoint::Signal(Signal::Stop), 3);
    }

    #[test]
    fn shutdown_flushes_the_outbox_and_returns_unstarted_tasks() {
        hold_point_flushes_results_and_returns_unstarted_tasks(HoldPoint::Shutdown, 3);
    }

    /// A Stop on the first task of a batch at the cap hands back all
    /// `MAX_REFILL_DEPTH - 1` others.
    #[test]
    fn a_stop_inside_a_capped_batch_returns_all_its_unstarted_tasks() {
        hold_point_flushes_results_and_returns_unstarted_tasks(HoldPoint::Signal(Signal::Stop), 2);
    }

    /// A worker is Running, and blocked in a take, before the master has
    /// written the job's tasks, so its first refill waits for them. That
    /// wait is not a round trip: against 10 ms tasks over an in-process
    /// space every refill stays at depth 1. Sized from a timed refill,
    /// the 40 ms wait would make the second ⌈4 · 40 ÷ 10⌉ = 16 deep.
    #[test]
    fn a_refill_that_waited_for_tasks_does_not_deepen_the_next() {
        struct TenMs;
        impl TaskExecutor for TenMs {
            fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
                std::thread::sleep(Duration::from_millis(10));
                let x: u64 = task.input()?;
                Ok((x * x).to_bytes())
            }
        }
        let space = Space::new("late-tasks");
        let store = FailingWriteStore::new(space.clone(), Duration::ZERO);
        let r = rig_with(
            space.clone(),
            store.clone(),
            Arc::new(TenMs),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(200),
                ..FrameworkConfig::default()
            },
        );
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(
            || !store.refill_depths.lock().is_empty(),
            "the worker to block in its first take",
        );
        std::thread::sleep(Duration::from_millis(40));
        let total = 5;
        for i in 0..total {
            put_task(&r.space, i, i);
        }
        wait_for(|| r.worker.tasks_done() == total, "all results flushed");
        let depths = store.refill_depths.lock().clone();
        assert!(depths.iter().all(|&depth| depth == 1), "{depths:?}");
        r.worker.shutdown();
    }

    #[test]
    fn pause_returns_unstarted_prefetched_tasks_to_the_space() {
        let space = Space::new("prefetching");
        // A 10 ms round trip against microsecond tasks: refills take
        // batches at the cap, and the job outlasts the Pause by far.
        let store = FailingWriteStore::new(space.clone(), ROUND_TRIP);
        let r = rig_with(
            space.clone(),
            store,
            Arc::new(SquareExec),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                ..FrameworkConfig::default()
            },
        );
        let total = 200u64;
        for i in 0..total {
            put_task(&r.space, i, i);
        }
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.tasks_done() >= 1, "first task done");
        r.server.send_signal(r.worker.id(), Signal::Pause);
        wait_for(|| r.worker.state() == WorkerState::Paused, "pause");
        // Let the loop reach its Paused arm, which flushes the buffer.
        std::thread::sleep(Duration::from_millis(60));
        let done = r.worker.tasks_done();
        let queued = space.count(&task_template("squares")) as u64;
        assert!(done < total, "pause must land before the job finishes");
        assert_eq!(
            queued + done,
            total,
            "unstarted prefetched tasks must be back in the space, \
             visible to other workers, while this one is paused"
        );
        // Resume: the worker re-fetches what it gave back and finishes.
        r.server.send_signal(r.worker.id(), Signal::Resume);
        wait_for(|| r.worker.tasks_done() == total, "job completes");
        assert_eq!(space.count(&task_template("squares")), 0);
        r.worker.shutdown();
    }
}
