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
//!   lookup (a prefetched batch per round trip), computes them, and writes
//!   result entries back — coalesced into one batch write per prefetched
//!   batch when the tasks are cheaper than a round trip (see `Outbox`);
//! * signals only take effect *between* tasks: the currently executing task
//!   always completes and every finished result is written into the space
//!   first, so no work is ever lost;
//! * on Pause the executor stays linked (Resume skips class loading); on
//!   Stop it is dropped (the next Start reloads).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_cluster::LoadMix;
use acc_telemetry::{event, span};
use acc_tuplespace::{SpaceError, StoreHandle, Template, Tuple};
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

    /// Tasks completed so far.
    pub fn tasks_done(&self) -> u64 {
        *self.tasks_done.lock()
    }

    /// A cheap probe suitable for exporting over SNMP
    /// (`acc_worker_threads`): 1 while the worker participates in the
    /// computation (Running or Paused), 0 once Stopped.
    pub fn participation_gauge(&self) -> impl Fn() -> u64 + Send + Sync + 'static {
        let state = self.state.clone();
        move || match *state.lock() {
            WorkerState::Stopped => 0,
            WorkerState::Running | WorkerState::Paused => 1,
        }
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

fn worker_loop(ls: LoopState) {
    let template: Template = task_template(&ls.config.job);
    let mut executor: Option<Arc<dyn TaskExecutor>> = None;
    let mut first_access: Option<Instant> = None;
    // Tasks fetched ahead of execution (one batched round trip for up to
    // `task_prefetch` tasks). Only the executing task is committed to this
    // worker: on Pause/Stop/shutdown the buffer is written back to the
    // space so other workers can claim it.
    let prefetch = ls.config.framework.task_prefetch.max(1);
    let mut prefetched: VecDeque<Tuple> = VecDeque::new();
    // Cost attribution riding each result tuple, aligned with
    // `prefetched`: the delivering take's round trip is charged as
    // `wait_us` to the first task of the batch and amortised into
    // `xfer_us` across all of them.
    let mut pending_timing: VecDeque<acc_cluster::TaskTiming> = VecDeque::new();
    // Tail-based trace retention: the decision whether a finished task
    // was "slow" is made here, where the task's spans live (flight rings
    // are per-process).
    let mut retention = TraceRetention::new(&ls.config.framework);
    let mut outbox = Outbox::default();
    let mut transport_strikes = 0u32;
    let set_load = |pct: u64| {
        if let Some(load) = &ls.config.node_load {
            load.set_framework(pct);
        }
    };

    loop {
        if ls.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let state = *ls.state.lock();
        match state {
            WorkerState::Stopped | WorkerState::Paused => {
                // Unstarted prefetched tasks must not sit out the back-off
                // invisible to the rest of the cluster (paper §4.3: only
                // the currently executing task completes).
                return_prefetched(&ls, &mut prefetched, &mut pending_timing);
                set_load(0);
                // Blocked on the signal channel; nothing else to do.
                if let Some(msg) = ls.config.duplex.recv_timeout(Duration::from_millis(25)) {
                    handle_message(&ls, msg, &mut executor, &set_load);
                }
            }
            WorkerState::Running => {
                // Signals are drained between tasks (paper §4.3: the node
                // configuration engine forwards the signal before the
                // worker fetches the next task).
                if let Some(msg) = ls.config.duplex.try_recv() {
                    // Every finished result is in the space before the
                    // worker reacts (and acks).
                    if outbox.flush(&ls).is_err() {
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
                if prefetched.is_empty() {
                    // The batch is done: its results go out with the take
                    // for the next batch, as one exchange where the store
                    // can pair them.
                    set_load(IDLE_RUNNING_LOAD);
                    let take_start = Instant::now();
                    let (flushed, taken) = outbox.flush_and_refill(&ls, &template, prefetch);
                    if flushed.is_err() {
                        // As after any failed flush, the worker stops; a
                        // paired take may have succeeded all the same, and
                        // its tasks go back to the space on the way out.
                        prefetched.extend(taken.unwrap_or_default());
                        break;
                    }
                    match taken {
                        Err(SpaceError::Transport(_))
                            if transport_strikes + 1 < MAX_TRANSPORT_STRIKES =>
                        {
                            // Transient: the server may be restarting.
                            transport_strikes += 1;
                            series().transport_strikes.inc();
                            continue;
                        }
                        Err(_) => break, // space closed: cluster shutting down
                        Ok(batch) => {
                            transport_strikes = 0;
                            if batch.len() > 1 {
                                event!("worker.prefetch", count = batch.len() as u64);
                            }
                            if !batch.is_empty() {
                                let rtt_us = take_start.elapsed().as_micros() as u64;
                                let xfer_us = rtt_us / batch.len() as u64;
                                for i in 0..batch.len() {
                                    pending_timing.push_back(acc_cluster::TaskTiming {
                                        wait_us: if i == 0 { rtt_us } else { 0 },
                                        xfer_us,
                                        compute_us: 0,
                                        write_us: 0,
                                    });
                                }
                            }
                            prefetched.extend(batch);
                        }
                    }
                    // Re-check signals before starting on the batch.
                    continue;
                }
                {
                    let tuple = prefetched.pop_front().expect("non-empty buffer");
                    let mut timing = pending_timing.pop_front().unwrap_or_default();
                    {
                        let Some(task) = TaskEntry::from_tuple(&tuple) else {
                            continue;
                        };
                        if first_access.is_none() {
                            first_access = Some(Instant::now());
                        }
                        // Adopt the master's trace context from the task
                        // tuple (if present) before opening any spans, so
                        // worker.task/worker.compute — and the result tuple
                        // written below — join the master's trace.
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
                        retention.observe(&task.job, timing.compute_us, outcome.is_err());
                        set_load(IDLE_RUNNING_LOAD);
                        let span_ms = first_access
                            .map(|f| f.elapsed().as_secs_f64() * 1e3)
                            .unwrap_or(compute_ms);
                        let (payload, error) = match outcome {
                            Ok(payload) => (payload, None),
                            Err(_) if task.retries < ls.config.framework.max_task_retries => {
                                // Return the task to the space (with its
                                // retry count bumped) so another attempt —
                                // possibly on another worker — can succeed.
                                // Written at once, not buffered: a worker
                                // may be waiting for it.
                                let mut retry = task.clone();
                                retry.retries += 1;
                                if ls.config.space.write(retry.into_tuple()).is_err() {
                                    // Same exit as a failed result flush:
                                    // swallowing this error would silently
                                    // lose the task and keep looping against
                                    // a dead space.
                                    break;
                                }
                                continue;
                            }
                            // Poison task: a terminal error result, so the
                            // master can account for it.
                            Err(e) => (Vec::new(), Some(e.to_string())),
                        };
                        let result = ResultEntry {
                            job: task.job.clone(),
                            task_id: task.task_id,
                            worker: ls.config.name.clone(),
                            payload,
                            compute_ms,
                            span_ms,
                            error,
                            timing,
                        };
                        outbox.push(result);
                        if outbox.worth_flushing_after(compute) && outbox.flush(&ls).is_err() {
                            break;
                        }
                    }
                }
            }
        }
    }
    // Whatever ended the loop (shutdown, space closed, failed write):
    // hand finished results over and give unstarted prefetched tasks back
    // if the space will still have them, so neither is lost with this
    // worker.
    let _ = outbox.flush(&ls);
    return_prefetched(&ls, &mut prefetched, &mut pending_timing);
    set_load(0);
    ls.config.duplex.send(RuleMessage::Bye);
}

/// Tail-based trace retention, decided worker-side, after the task ends,
/// where the task's flight records live: pin the current trace when the
/// task errored/retried, or when its compute time *exceeds* the
/// configured percentile of the compute times of the tasks this worker
/// ran before it (the last `history_depth` of them, once there are
/// `trace_retention_min_samples`). A worker runs the tasks of one job,
/// so one window is its per-job history.
///
/// Exceeds, not reaches: on a job of equal-cost tasks — zero-compute ones
/// above all, whose every sample reads 0 µs — the percentile *is* the
/// common cost, and a `>=` would pin every task.
///
/// Runs once per task, so it does no allocation and no sort: the window
/// is a [`SortedWindow`](acc_telemetry::SortedWindow).
#[derive(Debug)]
pub struct TraceRetention {
    window: acc_telemetry::SortedWindow,
    min_samples: usize,
    percentile: f64,
}

impl TraceRetention {
    /// Retention under `framework`'s `history_depth`,
    /// `trace_retention_min_samples` and `trace_retention_percentile`.
    pub fn new(framework: &FrameworkConfig) -> TraceRetention {
        TraceRetention {
            window: acc_telemetry::SortedWindow::new(framework.history_depth),
            min_samples: framework.trace_retention_min_samples.max(1),
            percentile: framework.trace_retention_percentile,
        }
    }

    /// Judges the task that just ended on this thread, inside its trace:
    /// pins the trace if the task was slow or errored, and says whether
    /// it did. The threshold is taken *before* recording the new sample,
    /// so a task is judged against the distribution of its predecessors.
    pub fn observe(&mut self, job: &str, compute_us: u64, errored: bool) -> bool {
        if !acc_telemetry::flight::installed() {
            return false;
        }
        let Some(ctx) = acc_telemetry::TraceContext::current() else {
            return false; // untraced task: nothing to pin
        };
        let threshold = (self.window.len() >= self.min_samples)
            .then(|| self.window.percentile(self.percentile))
            .flatten();
        self.window.record(compute_us);
        let slow = threshold.is_some_and(|t| compute_us > t);
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
}

/// Finished results waiting to be written to the space.
///
/// One blocking `write` per result is a round trip per task; for tasks
/// cheaper than that round trip it is most of the worker's time. So
/// results collect here and go out in one batch write when the prefetched
/// batch that produced them is done — paired with the take for the next
/// batch ([`Outbox::flush_and_refill`]) — and at once whenever buffering
/// would not pay, or would hold a result back from a worker that is
/// about to stop:
///
/// * the task just computed took longer than a flush round trip
///   ([`Outbox::worth_flushing_after`]), so a compute-bound job writes
///   each result the moment it exists, exactly as without an outbox;
/// * a signal arrived, or the loop is exiting (paper §4.3: only the
///   executing task is the worker's to finish; nothing else it holds may
///   be lost or delayed with it).
///
/// A result counts as done (`tasks_done`) when its flush succeeds, not
/// when it is buffered.
#[derive(Default)]
struct Outbox {
    tuples: Vec<Tuple>,
    /// `(task_id, poisoned)` of each buffered result, booked on flush.
    tasks: Vec<(u64, bool)>,
    /// The fastest stand-alone flush round trip seen — what one write
    /// costs when nothing else delays it. A minimum because every other statistic of
    /// the samples also measures the host: a flush that shared the CPU
    /// with the other worker's timeslice reads milliseconds, and judged
    /// by that a millisecond-scale task would look cheap and have its
    /// (large) result held back to ride a batch frame.
    min_flush: Option<Duration>,
    /// The previous flush's duration ÷ its result count — zero when it
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

    /// Whether the result just pushed should go out now instead of
    /// waiting for its batch: its task computed for longer than a flush
    /// costs (so the round trip saved is small change, and the result may
    /// be large), or no flush has been timed yet.
    fn worth_flushing_after(&self, compute: Duration) -> bool {
        self.min_flush.is_none_or(|rtt| compute > rtt)
    }

    /// Writes everything buffered in one space operation of its own — a
    /// plain `write` for a single result — and times it: these
    /// stand-alone flushes (first result, long task, signal, exit) are
    /// the only samples of [`Outbox::min_flush`], because only they
    /// measure a write and nothing else. On failure the results are gone
    /// with the connection (the master's result timeout covers them) and
    /// the worker must stop, as after any failed write.
    fn flush(&mut self, ls: &LoopState) -> Result<(), SpaceError> {
        if self.tuples.is_empty() {
            return Ok(());
        }
        let tasks = std::mem::take(&mut self.tasks);
        let mut tuples = std::mem::take(&mut self.tuples);
        let start = Instant::now();
        if tuples.len() == 1 {
            ls.config.space.write(tuples.pop().expect("one tuple"))?;
        } else {
            ls.config.space.write_all(tuples)?;
        }
        let took = start.elapsed();
        self.min_flush = Some(self.min_flush.map_or(took, |min| min.min(took)));
        self.last_write_us = took.as_micros() as u64 / tasks.len() as u64;
        book_flushed(ls, &tasks);
        Ok(())
    }

    /// The refill point: whatever is buffered goes out *with* the take
    /// for the next batch of up to `max` tasks — one pipelined exchange on
    /// a store that pairs them (`RemoteSpace`, the one-shard grid), the
    /// same two calls as ever on one that does not. Both outcomes come
    /// back, the flush's first: the pair may have taken tasks although
    /// its write failed, and the caller owns them.
    ///
    /// The exchange's wall time is the caller's to charge, once, to the
    /// take; the results that rode it cost no write of their own, so the
    /// next results carry `write_us = 0` and no flush sample is taken.
    fn flush_and_refill(
        &mut self,
        ls: &LoopState,
        template: &Template,
        max: usize,
    ) -> (Result<(), SpaceError>, Result<Vec<Tuple>, SpaceError>) {
        let timeout = Some(ls.config.framework.task_poll_timeout);
        if self.tuples.is_empty() {
            return (Ok(()), ls.config.space.take_up_to(template, max, timeout));
        }
        let tasks = std::mem::take(&mut self.tasks);
        let tuples = std::mem::take(&mut self.tuples);
        let (written, taken) = ls
            .config
            .space
            .write_all_then_take_up_to(tuples, template, max, timeout);
        let flushed = written.map(|_| {
            self.last_write_us = 0;
            book_flushed(ls, &tasks);
        });
        (flushed, taken)
    }
}

/// Counts flushed results as done: `(task_id, poisoned)` each.
fn book_flushed(ls: &LoopState, tasks: &[(u64, bool)]) {
    let mut completed = 0;
    for &(task_id, poisoned) in tasks {
        if poisoned {
            event!("worker.result.write", task_id = task_id, poisoned = true);
        } else {
            event!("worker.result.write", task_id = task_id);
            completed += 1;
        }
    }
    *ls.tasks_done.lock() += completed;
}

/// Writes the worker's unstarted prefetched tasks back to the space in one
/// batch. Failure is tolerated: if the space is closed the cluster is shutting
/// down and the tasks are moot; if it is unreachable the master's result
/// timeout re-issues them. Attribution pending for those tasks is dropped
/// with them — whoever re-takes them measures its own costs.
fn return_prefetched(
    ls: &LoopState,
    prefetched: &mut VecDeque<Tuple>,
    pending_timing: &mut VecDeque<acc_cluster::TaskTiming>,
) {
    pending_timing.clear();
    if prefetched.is_empty() {
        return;
    }
    let tuples: Vec<Tuple> = prefetched.drain(..).collect();
    let count = tuples.len() as u64;
    if ls.config.space.write_all(tuples).is_ok() {
        event!("worker.prefetch.return", count = count);
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
    use acc_tuplespace::{
        EntryId, Lease, Payload, Space, SpaceHandle, SpaceResult, TupleStore, WriteThenTake,
    };

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
                assert!(!retention.observe("squares", cost_us, false));
            }
            assert!(!flight::is_retained(job_trace.trace_id), "cost {cost_us}");
            // One task 50x its peers (at least 50 us, for the 0 us job).
            assert!(retention.observe("squares", (50 * cost_us).max(50), false));
            assert!(flight::is_retained(job_trace.trace_id), "cost {cost_us}");
            for _ in 0..249 {
                assert!(!retention.observe("squares", cost_us, false));
            }
            // Errors pin whatever they cost.
            assert!(retention.observe("squares", cost_us, true));
        }
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

    /// Delegates everything to an inner space, but fails writes once
    /// armed — the shape of a master whose space became unreachable for
    /// writes while takes still drain a local queue. Every write also
    /// costs `write_delay` (a round trip far dearer than the test tasks,
    /// so their results are buffered rather than flushed one by one), and
    /// the size of every result write is logged.
    struct FailingWriteStore {
        inner: SpaceHandle,
        arm: AtomicBool,
        write_delay: Duration,
        result_writes: Mutex<Vec<usize>>,
    }

    impl FailingWriteStore {
        fn new(inner: SpaceHandle, write_delay: Duration) -> Arc<FailingWriteStore> {
            Arc::new(FailingWriteStore {
                inner,
                arm: AtomicBool::new(false),
                write_delay,
                result_writes: Mutex::new(Vec::new()),
            })
        }

        fn before_write(&self, tuples: &[Tuple]) -> SpaceResult<()> {
            std::thread::sleep(self.write_delay);
            if self.arm.load(Ordering::SeqCst) {
                return Err(SpaceError::Storage("injected write failure".into()));
            }
            if tuples[0].type_name() == crate::task::RESULT_TYPE {
                self.result_writes.lock().push(tuples.len());
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
                task_prefetch: 1,
                max_task_retries: 10,
                ..FrameworkConfig::default()
            },
        );
        put_task(&r.space, 0, 1);
        put_task(&r.space, 1, 2);
        store.arm.store(true, Ordering::SeqCst);
        r.server.send_signal(r.worker.id(), Signal::Start);
        // The worker takes task 0, fails it, and cannot write the retry
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
        let store = FailingWriteStore::new(space.clone(), Duration::from_millis(2));
        // Writes start failing while the third task of the first batch
        // runs: result 0 went out alone, 1..=3 are (or will be) buffered.
        let exec = HookedExec::at(3);
        let r = rig_with(
            space.clone(),
            store.clone(),
            exec.clone(),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                task_prefetch: 4,
                ..FrameworkConfig::default()
            },
        );
        let arm = store.clone();
        *exec.hook.lock() = Some(Box::new(move || arm.arm.store(true, Ordering::SeqCst)));
        for i in 0..8 {
            put_task(&r.space, i, i);
        }
        r.server.send_signal(r.worker.id(), Signal::Start);
        // The batch's flush fails; the worker must end there, as after a
        // failed single write — not fetch the second batch and lose it too.
        let worker_thread = r.worker.thread.as_ref().unwrap();
        wait_for(|| worker_thread.is_finished(), "worker loop exit");
        assert_eq!(r.worker.tasks_done(), 1, "only the flushed result counts");
        assert_eq!(*store.result_writes.lock(), vec![1]);
        assert_eq!(
            task_ids(&space, &task_template("squares")),
            vec![4, 5, 6, 7],
            "the second batch must still be in the space"
        );
        r.worker.shutdown();
    }

    #[test]
    fn a_failed_paired_write_returns_the_tasks_its_take_removed_and_stops_the_worker() {
        /// A store that runs the refill pair as one exchange, like
        /// `RemoteSpace`: the take is done by the time the write's
        /// failure is known. Its stand-alone writes work, at 2 ms each,
        /// so microsecond tasks buffer their results for the pair.
        struct PairFailsWrite(SpaceHandle);
        impl TupleStore for PairFailsWrite {
            fn write_all_then_take_up_to(
                &self,
                _results: Vec<Tuple>,
                t: &Template,
                max: usize,
                timeout: Option<Duration>,
            ) -> WriteThenTake {
                let taken = self.0.take_up_to(t, max, timeout);
                (Err(SpaceError::Storage("injected".into())), taken)
            }
            fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
                std::thread::sleep(Duration::from_millis(2));
                self.0.write_leased(tuple, lease)
            }
            fn write_all_leased(&self, ts: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
                std::thread::sleep(Duration::from_millis(2));
                self.0.write_all_leased(ts, lease)
            }
            fn read(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
                self.0.read(t, timeout)
            }
            fn take(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
                self.0.take(t, timeout)
            }
            fn take_up_to(
                &self,
                t: &Template,
                max: usize,
                timeout: Option<Duration>,
            ) -> SpaceResult<Vec<Tuple>> {
                self.0.take_up_to(t, max, timeout)
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
                task_prefetch: 4,
                ..FrameworkConfig::default()
            },
        );
        for i in 0..8 {
            put_task(&r.space, i, i);
        }
        r.server.send_signal(r.worker.id(), Signal::Start);
        // Batch 0..4 arrives by a plain take (nothing to flush yet);
        // result 0 goes out alone, 1..=3 ride the refill pair, whose
        // write fails although its take brought 4..8.
        let worker_thread = r.worker.thread.as_ref().unwrap();
        wait_for(|| worker_thread.is_finished(), "worker loop exit");
        assert_eq!(r.worker.tasks_done(), 1, "only the flushed result counts");
        assert_eq!(
            task_ids(&space, &crate::task::result_template("squares")),
            vec![0]
        );
        assert_eq!(
            task_ids(&space, &task_template("squares")),
            vec![4, 5, 6, 7],
            "the tasks the failed pair took are back in the space, each once"
        );
        r.worker.shutdown();
    }

    #[test]
    fn results_that_rode_the_refill_exchange_carry_no_write_cost() {
        let space = Space::new("attribution");
        // A 2 ms write against microsecond tasks: everything after the
        // first result is buffered and leaves with a refill.
        let store = FailingWriteStore::new(space.clone(), Duration::from_millis(2));
        let r = rig_with(
            space.clone(),
            store.clone(),
            Arc::new(SquareExec),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                task_prefetch: 4,
                ..FrameworkConfig::default()
            },
        );
        for i in 0..8 {
            put_task(&r.space, i, i);
        }
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.tasks_done() == 8, "all eight results flushed");
        // One stand-alone flush (the first result), then one per refill.
        assert_eq!(*store.result_writes.lock(), vec![1, 3, 4]);
        let mut timing = vec![acc_cluster::TaskTiming::default(); 8];
        for tuple in space
            .read_all(&crate::task::result_template("squares"))
            .unwrap()
        {
            let result = ResultEntry::from_tuple(&tuple).unwrap();
            timing[result.task_id as usize] = result.timing;
        }
        // `write_us` is the previous flush's cost per result: nothing
        // before task 0; the 2 ms stand-alone flush of result 0 before
        // tasks 1..=3; and nothing again after the refill exchange, whose
        // whole time — write included — is the take's, charged once to
        // the batch's first task. A stale 2 ms sample here is the bug.
        let write_us: Vec<u64> = timing.iter().map(|t| t.write_us).collect();
        assert_eq!(write_us[0], 0, "{write_us:?}");
        assert!(write_us[1..4].iter().all(|&us| us >= 2_000), "{write_us:?}");
        assert_eq!(write_us[4..], [0; 4], "{write_us:?}");
        assert!(timing[4].wait_us >= 2_000, "{:?}", timing[4]);
        assert!(timing[5..].iter().all(|t| t.wait_us == 0), "{timing:?}");
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
    /// it, each exactly once.
    fn hold_point_flushes_results_and_returns_unstarted_tasks(hold: HoldPoint) {
        let space = Space::new("hold-point");
        // A 2 ms "round trip" against microsecond tasks: results buffer.
        let store = FailingWriteStore::new(space.clone(), Duration::from_millis(2));
        // The hold lands while the third task of the first batch runs.
        let exec = HookedExec::at(3);
        let r = rig_with(
            space.clone(),
            store.clone(),
            exec.clone(),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                task_prefetch: 4,
                ..FrameworkConfig::default()
            },
        );
        let total = 10i64;
        for i in 0..total {
            put_task(&r.space, i as u64, i as u64);
        }
        *exec.hook.lock() = Some(match hold {
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
        });
        r.server.send_signal(r.worker.id(), Signal::Start);
        match hold {
            HoldPoint::Signal(signal) => {
                let held = WorkerState::Running.apply(signal).unwrap();
                wait_for(|| r.worker.state() == held, "the signal to land");
                // Let the loop reach its held arm, which returns the buffer.
                wait_for(
                    || space.count(&task_template("squares")) == (total - 3) as usize,
                    "unstarted tasks back in the space",
                );
            }
            HoldPoint::Shutdown => {
                let worker_thread = r.worker.thread.as_ref().unwrap();
                wait_for(|| worker_thread.is_finished(), "worker loop exit");
            }
        }
        // Tasks 0..3 ran: result 0 went out alone (no flush timed yet),
        // 1 and 2 were buffered and flushed together by the hold.
        assert_eq!(*store.result_writes.lock(), vec![1, 2], "{hold:?}");
        assert_eq!(r.worker.tasks_done(), 3, "{hold:?}");
        assert_eq!(
            task_ids(&space, &crate::task::result_template("squares")),
            vec![0, 1, 2],
            "{hold:?}: finished results in the space, each once"
        );
        assert_eq!(
            task_ids(&space, &task_template("squares")),
            (3..total).collect::<Vec<_>>(),
            "{hold:?}: unstarted tasks back in the space, each once"
        );
        r.worker.shutdown();
    }

    #[test]
    fn pause_flushes_the_outbox_and_returns_unstarted_tasks() {
        hold_point_flushes_results_and_returns_unstarted_tasks(HoldPoint::Signal(Signal::Pause));
    }

    #[test]
    fn stop_flushes_the_outbox_and_returns_unstarted_tasks() {
        hold_point_flushes_results_and_returns_unstarted_tasks(HoldPoint::Signal(Signal::Stop));
    }

    #[test]
    fn shutdown_flushes_the_outbox_and_returns_unstarted_tasks() {
        hold_point_flushes_results_and_returns_unstarted_tasks(HoldPoint::Shutdown);
    }

    #[test]
    fn pause_returns_unstarted_prefetched_tasks_to_the_space() {
        struct Slow;
        impl TaskExecutor for Slow {
            fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
                std::thread::sleep(Duration::from_millis(25));
                let x: u64 = task.input()?;
                Ok((x * x).to_bytes())
            }
        }
        let space = Space::new("prefetching");
        let store: StoreHandle = space.clone();
        let r = rig_with(
            space.clone(),
            store,
            Arc::new(Slow),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                task_prefetch: 4,
                ..FrameworkConfig::default()
            },
        );
        let total = 10u64;
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
