//! The framework's global telemetry series (`master.*`, `worker.*`,
//! `monitor.*` names), registered once per process in
//! [`acc_telemetry::registry`].

use std::sync::{Arc, OnceLock};

use acc_telemetry::{registry, Counter, Histogram};

/// Framework-layer series. Fields are public handles shared across the
/// master, worker and monitoring modules.
pub(crate) struct CoreSeries {
    /// Application runs driven to completion (or timeout) by a master.
    pub master_runs: Arc<Counter>,
    /// Task entries planned and written into the space.
    pub tasks_planned: Arc<Counter>,
    /// Result entries collected and absorbed by masters.
    pub results_collected: Arc<Counter>,
    /// Task-planning phase wall time per run, µs.
    pub planning_us: Arc<Histogram>,
    /// Result-aggregation phase wall time per run, µs.
    pub aggregation_us: Arc<Histogram>,
    /// End-to-end parallel execution time per run, µs.
    pub parallel_us: Arc<Histogram>,
    /// Per-task master overhead (plan or absorb one task), µs.
    pub master_overhead_us: Arc<Histogram>,
    /// Tasks a worker computed and answered with a result entry.
    pub tasks_completed: Arc<Counter>,
    /// Tasks returned to the space for another attempt.
    pub tasks_retried: Arc<Counter>,
    /// Tasks that exhausted their retries (terminal error result).
    pub tasks_poisoned: Arc<Counter>,
    /// Worker state-machine transitions applied (any signal).
    pub transitions: Arc<Counter>,
    /// Single-task compute time on workers, µs.
    pub compute_us: Arc<Histogram>,
    /// Signal reaction time (management send → worker state change), µs.
    pub reaction_us: Arc<Histogram>,
    /// Load samples examined by the monitoring agent.
    pub monitor_samples: Arc<Counter>,
    /// Samples on which the inference engine emitted a signal.
    pub monitor_signals: Arc<Counter>,
    /// Consecutive-transport-failure strikes workers absorbed on takes
    /// (each strike is one ridden-out transient failure).
    pub transport_strikes: Arc<Counter>,
}

/// The lazily registered framework series (one set per process).
pub(crate) fn series() -> &'static CoreSeries {
    static SERIES: OnceLock<CoreSeries> = OnceLock::new();
    SERIES.get_or_init(|| {
        let r = registry();
        CoreSeries {
            master_runs: r.counter("master.runs"),
            tasks_planned: r.counter("master.tasks.planned"),
            results_collected: r.counter("master.results.collected"),
            planning_us: r.histogram("master.planning.us"),
            aggregation_us: r.histogram("master.aggregation.us"),
            parallel_us: r.histogram("master.parallel.us"),
            master_overhead_us: r.histogram("master.task_overhead.us"),
            tasks_completed: r.counter("worker.task.completed"),
            tasks_retried: r.counter("worker.task.retried"),
            tasks_poisoned: r.counter("worker.task.poisoned"),
            transitions: r.counter("worker.transition.count"),
            compute_us: r.histogram("worker.compute.us"),
            reaction_us: r.histogram("worker.reaction.us"),
            monitor_samples: r.counter("monitor.samples"),
            monitor_signals: r.counter("monitor.signals"),
            transport_strikes: r.counter("worker.transport_strikes"),
        }
    })
}
