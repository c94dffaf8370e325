//! Task and result entries, and the application interface.
//!
//! The master decomposes an application into tasks that are "JavaSpaces
//! enabled": serialized into tuples and written into the space. Workers
//! retrieve them by value-based lookup on the job name, compute, and write
//! result tuples back (paper §4.2).

use std::fmt;
use std::sync::{Arc, OnceLock};

use acc_tuplespace::{Bytes, Payload, PayloadError, Template, Tuple, Value};

/// Tuple type for task entries.
pub const TASK_TYPE: &str = "acc.task";
/// Tuple type for result entries.
pub const RESULT_TYPE: &str = "acc.result";
/// Field carrying a serialized [`acc_telemetry::TraceContext`] on task and
/// result tuples. The wire envelope only links one request to its reply;
/// the master→worker hop happens through the space (the worker's `take` is
/// its own request), so the context has to ride the tuple itself.
pub const TRACE_FIELD: &str = "tctx";
/// Field carrying the serialized [`acc_cluster::TaskTiming`] attribution
/// record on result tuples (same compact-bytes style as [`TRACE_FIELD`]).
pub const TIMING_FIELD: &str = "timing";

/// Extracts the distributed trace context a tuple carries, if any.
pub fn tuple_trace_context(tuple: &Tuple) -> Option<acc_telemetry::TraceContext> {
    acc_telemetry::TraceContext::from_bytes(tuple.get_bytes(TRACE_FIELD)?)
}

/// The current trace context as a tuple field value.
fn current_trace_value() -> Option<Value> {
    acc_telemetry::TraceContext::current_if_enabled()
        .map(|ctx| Value::Bytes(Bytes::copy_from_slice(&ctx.to_bytes())))
}

/// The type and field names of task and result tuples, as process-wide
/// shared strings: a tuple names its type and every field with an
/// `Arc<str>`, and these are the same eleven strings on every tuple the
/// framework builds — cloning one is a reference-count increment where
/// `Tuple::build("acc.task").field("job", ..)` allocates and copies each.
struct Names {
    task_type: Arc<str>,
    result_type: Arc<str>,
    job: Arc<str>,
    task_id: Arc<str>,
    payload: Arc<str>,
    retries: Arc<str>,
    worker: Arc<str>,
    compute_ms: Arc<str>,
    span_ms: Arc<str>,
    timing: Arc<str>,
    tctx: Arc<str>,
}

fn names() -> &'static Names {
    static NAMES: OnceLock<Names> = OnceLock::new();
    NAMES.get_or_init(|| Names {
        task_type: TASK_TYPE.into(),
        result_type: RESULT_TYPE.into(),
        job: "job".into(),
        task_id: "task_id".into(),
        payload: "payload".into(),
        retries: "retries".into(),
        worker: "worker".into(),
        compute_ms: "compute_ms".into(),
        span_ms: "span_ms".into(),
        timing: TIMING_FIELD.into(),
        tctx: TRACE_FIELD.into(),
    })
}

/// A unit of work produced during task planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Unique id within the job.
    pub task_id: u64,
    /// Serialized application input (a [`Payload`] encoding).
    pub payload: Vec<u8>,
}

impl TaskSpec {
    /// Creates a spec from an encodable input.
    pub fn new(task_id: u64, input: &impl Payload) -> TaskSpec {
        TaskSpec {
            task_id,
            payload: input.to_bytes(),
        }
    }
}

/// A task as it travels through the space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskEntry {
    /// The job this task belongs to.
    pub job: String,
    /// Unique id within the job.
    pub task_id: u64,
    /// Serialized application input.
    pub payload: Vec<u8>,
    /// How many times this task has failed and been requeued.
    pub retries: u32,
}

impl TaskEntry {
    /// A fresh task (no retries yet).
    pub fn new(job: impl Into<String>, task_id: u64, payload: Vec<u8>) -> TaskEntry {
        TaskEntry {
            job: job.into(),
            task_id,
            payload,
            retries: 0,
        }
    }

    /// Serializes into a space tuple. When tracing is active the current
    /// [`acc_telemetry::TraceContext`] rides along as a `tctx` field so the
    /// worker that takes this task can join the master's trace.
    pub fn to_tuple(&self) -> Tuple {
        let names = names();
        let mut builder = Tuple::build(names.task_type.clone())
            .field(names.job.clone(), self.job.as_str())
            .field(names.task_id.clone(), self.task_id as i64)
            .field(names.payload.clone(), self.payload.clone())
            .field(names.retries.clone(), self.retries as i64);
        if let Some(ctx) = current_trace_value() {
            builder = builder.field(names.tctx.clone(), ctx);
        }
        builder.done()
    }

    /// Deserializes from a space tuple.
    pub fn from_tuple(tuple: &Tuple) -> Option<TaskEntry> {
        if tuple.type_name() != TASK_TYPE {
            return None;
        }
        Some(TaskEntry {
            job: tuple.get_str("job")?.to_owned(),
            task_id: tuple.get_int("task_id")? as u64,
            payload: tuple.get_bytes("payload")?.to_vec(),
            retries: tuple.get_int("retries").unwrap_or(0) as u32,
        })
    }

    /// Decodes the payload into the application's input type.
    pub fn input<T: Payload>(&self) -> Result<T, ExecError> {
        T::from_bytes(&self.payload).map_err(ExecError::Decode)
    }
}

/// A result as it travels through the space.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultEntry {
    /// The job this result belongs to.
    pub job: String,
    /// Which task produced it.
    pub task_id: u64,
    /// The worker that computed it.
    pub worker: String,
    /// Serialized application output (empty when `error` is set).
    pub payload: Vec<u8>,
    /// How long the task's computation took at the worker (ms).
    pub compute_ms: f64,
    /// The worker's cumulative busy span — first task access to this result
    /// write (ms). The paper's Max Worker Time is the max of the final
    /// spans.
    pub span_ms: f64,
    /// Set when the task exhausted its retries: the terminal error, so the
    /// master can account for the task instead of waiting forever.
    pub error: Option<String>,
    /// Per-task cost attribution (space-wait / transfer / compute /
    /// result-write), feeding the federation plane's per-worker and
    /// per-job histograms. Rides the tuple as a compact bytes field;
    /// results from older workers decode to all-zero timing.
    pub timing: acc_cluster::TaskTiming,
}

impl ResultEntry {
    /// Serializes into a space tuple.
    pub fn to_tuple(&self) -> Tuple {
        let names = names();
        let mut builder = Tuple::build(names.result_type.clone())
            .field(names.job.clone(), self.job.as_str())
            .field(names.task_id.clone(), self.task_id as i64)
            .field(names.worker.clone(), self.worker.as_str())
            .field(names.payload.clone(), self.payload.clone())
            .field(names.compute_ms.clone(), self.compute_ms)
            .field(names.span_ms.clone(), self.span_ms);
        if self.timing != acc_cluster::TaskTiming::default() {
            builder = builder.field(names.timing.clone(), self.timing.to_bytes());
        }
        if let Some(error) = &self.error {
            builder = builder.field("error", error.as_str());
        }
        if let Some(ctx) = current_trace_value() {
            builder = builder.field(names.tctx.clone(), ctx);
        }
        builder.done()
    }

    /// Deserializes from a space tuple.
    pub fn from_tuple(tuple: &Tuple) -> Option<ResultEntry> {
        if tuple.type_name() != RESULT_TYPE {
            return None;
        }
        Some(ResultEntry {
            job: tuple.get_str("job")?.to_owned(),
            task_id: tuple.get_int("task_id")? as u64,
            worker: tuple.get_str("worker")?.to_owned(),
            payload: tuple.get_bytes("payload")?.to_vec(),
            compute_ms: tuple.get_float("compute_ms")?,
            span_ms: tuple.get_float("span_ms")?,
            error: tuple.get_str("error").map(str::to_owned),
            timing: tuple
                .get_bytes(TIMING_FIELD)
                .and_then(acc_cluster::TaskTiming::from_bytes)
                .unwrap_or_default(),
        })
    }
}

/// Template matching every task of a job — the worker's value-based lookup.
pub fn task_template(job: &str) -> Template {
    Template::build(TASK_TYPE).eq("job", job).done()
}

/// Template matching every result of a job — the master's aggregation
/// lookup.
pub fn result_template(job: &str) -> Template {
    Template::build(RESULT_TYPE).eq("job", job).done()
}

/// Errors surfaced while executing or aggregating tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A payload failed to decode.
    Decode(PayloadError),
    /// Application-level failure.
    App(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Decode(e) => write!(f, "payload decode failed: {e}"),
            ExecError::App(msg) => write!(f, "application error: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The worker-side solution content: what the dynamically loaded classes do.
/// Implementations are registered in the [`crate::ExecutorRegistry`] and
/// linked when a worker loads the application's code bundle.
pub trait TaskExecutor: Send + Sync {
    /// Computes one task, returning the serialized result payload.
    fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError>;
}

/// An application as the framework sees it: planning, the executor bundle,
/// and result aggregation. Concrete applications expose richer typed APIs
/// on top.
pub trait Application {
    /// Unique job name (tags task and result entries in the space).
    fn job_name(&self) -> String;

    /// Name of the code bundle workers must load to compute this job.
    fn bundle_name(&self) -> String;

    /// Approximate size of the code bundle in KB (drives the modeled
    /// class-loading cost).
    fn bundle_kb(&self) -> usize {
        64
    }

    /// Task-planning phase: decompose the problem into task specs.
    fn plan(&mut self) -> Vec<TaskSpec>;

    /// The executor the bundle links to (runs on workers).
    fn executor(&self) -> Arc<dyn TaskExecutor>;

    /// Result-aggregation phase: absorb one task's result payload.
    fn absorb(&mut self, task_id: u64, payload: &[u8]) -> Result<(), ExecError>;

    /// Serializes the aggregation-in-progress state for a master
    /// checkpoint. Returning `None` (the default) stores an empty
    /// aggregate; applications that accumulate partial results should
    /// return an encoding [`restore_partials`](Self::restore_partials) can
    /// rebuild from.
    fn snapshot_partials(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores aggregation state captured by
    /// [`snapshot_partials`](Self::snapshot_partials) when a master resumes
    /// from a checkpoint. The default accepts any bytes and restores
    /// nothing.
    fn restore_partials(&mut self, _bytes: &[u8]) -> Result<(), ExecError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> TaskEntry {
        TaskEntry::new("render", 5, vec![1, 2, 3])
    }

    fn result() -> ResultEntry {
        ResultEntry {
            job: "render".into(),
            task_id: 5,
            worker: "w01".into(),
            payload: vec![9, 9],
            compute_ms: 12.5,
            span_ms: 40.0,
            error: None,
            timing: acc_cluster::TaskTiming::default(),
        }
    }

    #[test]
    fn task_tuple_roundtrip() {
        let t = task();
        assert_eq!(TaskEntry::from_tuple(&t.to_tuple()), Some(t));
    }

    #[test]
    fn result_tuple_roundtrip() {
        let r = result();
        assert_eq!(ResultEntry::from_tuple(&r.to_tuple()), Some(r));
    }

    #[test]
    fn from_tuple_rejects_other_types() {
        assert_eq!(TaskEntry::from_tuple(&result().to_tuple()), None);
        assert_eq!(ResultEntry::from_tuple(&task().to_tuple()), None);
    }

    #[test]
    fn templates_select_by_job() {
        let t1 = task().to_tuple();
        let mut other = task();
        other.job = "other".into();
        let t2 = other.to_tuple();
        let tmpl = task_template("render");
        assert!(tmpl.matches(&t1));
        assert!(!tmpl.matches(&t2));
        assert!(!result_template("render").matches(&t1));
        assert!(result_template("render").matches(&result().to_tuple()));
    }

    #[test]
    fn retried_task_roundtrips() {
        let mut t = task();
        t.retries = 2;
        assert_eq!(TaskEntry::from_tuple(&t.to_tuple()), Some(t));
    }

    #[test]
    fn error_result_roundtrips() {
        let mut r = result();
        r.error = Some("exhausted retries".into());
        r.payload = vec![];
        assert_eq!(ResultEntry::from_tuple(&r.to_tuple()), Some(r));
    }

    #[test]
    fn timed_result_roundtrips_and_untimed_decodes_to_zero() {
        let mut r = result();
        r.timing = acc_cluster::TaskTiming {
            wait_us: 100,
            xfer_us: 20,
            compute_us: 3_000,
            write_us: 40,
        };
        assert_eq!(ResultEntry::from_tuple(&r.to_tuple()), Some(r.clone()));
        // A v0-style result tuple without the timing field (an older
        // worker) decodes with zeroed attribution, not a failure.
        let bare = Tuple::build(RESULT_TYPE)
            .field("job", "render")
            .field("task_id", 5i64)
            .field("worker", "w01")
            .field("payload", vec![9u8])
            .field("compute_ms", 12.5)
            .field("span_ms", 40.0)
            .done();
        let decoded = ResultEntry::from_tuple(&bare).unwrap();
        assert_eq!(decoded.timing, acc_cluster::TaskTiming::default());
    }

    #[test]
    fn tuple_trace_context_extraction() {
        // No tracing active in tests: to_tuple adds no context field.
        assert_eq!(tuple_trace_context(&task().to_tuple()), None);
        // A tuple carrying one yields it back.
        let ctx = acc_telemetry::TraceContext {
            trace_id: 0x1122,
            span_id: 0x3344,
        };
        let tuple = Tuple::build(TASK_TYPE)
            .field("job", "render")
            .field("task_id", 5i64)
            .field("payload", vec![1u8])
            .field("retries", 0i64)
            .field(TRACE_FIELD, ctx.to_bytes().to_vec())
            .done();
        assert_eq!(tuple_trace_context(&tuple), Some(ctx));
        // The extra field does not confuse entry deserialization.
        let entry = TaskEntry::from_tuple(&tuple).unwrap();
        assert_eq!(entry.task_id, 5);
    }

    #[test]
    fn task_spec_encodes_payload() {
        let spec = TaskSpec::new(3, &42u64);
        let entry = TaskEntry::new("j", spec.task_id, spec.payload);
        assert_eq!(entry.input::<u64>().unwrap(), 42);
        assert!(matches!(entry.input::<String>(), Err(ExecError::Decode(_))));
    }
}
