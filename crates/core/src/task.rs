//! Task and result entries, and the application interface.
//!
//! The master decomposes an application into tasks that are "JavaSpaces
//! enabled": serialized into tuples and written into the space. Workers
//! retrieve them by value-based lookup on the job name, compute, and write
//! result tuples back (paper §4.2).

use std::fmt;
use std::sync::{Arc, OnceLock};

use acc_cluster::TaskTiming;
use acc_telemetry::TraceContext;
use acc_tuplespace::{Bytes, Payload, PayloadError, Shape, Template, Tuple, Value};

/// Tuple type for task entries.
pub const TASK_TYPE: &str = "acc.task";
/// Tuple type for result entries.
pub const RESULT_TYPE: &str = "acc.result";
/// Field carrying the serialized [`acc_cluster::TaskTiming`] attribution
/// record on result tuples.
pub const TIMING_FIELD: &str = "timing";

/// Every field a task or result tuple can carry, in name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    ComputeMs,
    Error,
    Job,
    Payload,
    Retries,
    SpanMs,
    TaskId,
    Timing,
    Worker,
}

const FIELDS: usize = 9;

impl Field {
    fn name(self) -> &'static str {
        match self {
            Field::ComputeMs => "compute_ms",
            Field::Error => "error",
            Field::Job => "job",
            Field::Payload => "payload",
            Field::Retries => "retries",
            Field::SpanMs => "span_ms",
            Field::TaskId => "task_id",
            Field::Timing => TIMING_FIELD,
            Field::Worker => "worker",
        }
    }
}

/// One shape a task or result tuple can have, and where each field sits
/// in it. A result's optional fields (`timing`, `error`) are present or
/// absent exactly as the tuples on the wire have them, so each
/// combination is its own shape: 1 for tasks, 4 for results.
struct Layout {
    shape: Arc<Shape>,
    /// The fields in shape order.
    order: Vec<Field>,
    /// Each field's position in the shape, if it has the field.
    at: [Option<u8>; FIELDS],
}

impl Layout {
    /// `base` plus the `optional` fields whose bit is set in `bits`.
    fn variant(type_name: &str, base: &[Field], optional: &[Field], bits: usize) -> Layout {
        let present = (0..optional.len()).filter(|k| bits >> k & 1 == 1);
        let mut order: Vec<Field> = base
            .iter()
            .copied()
            .chain(present.map(|k| optional[k]))
            .collect();
        order.sort_by_key(|f| f.name());
        let names: Vec<&str> = order.iter().map(|f| f.name()).collect();
        let mut at = [None; FIELDS];
        for (i, f) in order.iter().enumerate() {
            at[*f as usize] = Some(i as u8);
        }
        Layout {
            shape: Shape::new(type_name, &names),
            order,
            at,
        }
    }

    /// The tuple whose fields are `slots` (indexed by [`Field`]): one
    /// allocation, the value array, built at its final size.
    fn tuple(&self, mut slots: [Option<Value>; FIELDS]) -> Tuple {
        let values = self
            .order
            .iter()
            .map(|f| {
                slots[*f as usize]
                    .take()
                    .expect("the layout's fields are set")
            })
            .collect();
        Tuple::from_parts(self.shape.clone(), values)
    }
}

/// The shapes of every task and result tuple, registered in the
/// process-wide shape table, so tuples decoded off the wire share them
/// and are recognised by pointer.
struct Layouts {
    task: Layout,
    /// Results, indexed by `timing | error << 1` present.
    result: [Layout; 4],
}

fn layouts() -> &'static Layouts {
    static LAYOUTS: OnceLock<Layouts> = OnceLock::new();
    LAYOUTS.get_or_init(|| {
        use Field::*;
        let task = [Job, TaskId, Payload, Retries];
        let result = [Job, TaskId, Worker, Payload, ComputeMs, SpanMs];
        Layouts {
            task: Layout::variant(TASK_TYPE, &task, &[], 0),
            result: std::array::from_fn(|bits| {
                Layout::variant(RESULT_TYPE, &result, &[Timing, Error], bits)
            }),
        }
    })
}

/// A tuple's fields, read by position when its shape is one of the known
/// layouts and by name otherwise.
struct Fields<'a> {
    tuple: &'a Tuple,
    layout: Option<&'static Layout>,
}

impl<'a> Fields<'a> {
    /// The fields of `tuple` if it is of type `type_name`.
    fn of(
        tuple: &'a Tuple,
        type_name: &str,
        known: impl IntoIterator<Item = &'static Layout>,
    ) -> Option<Fields<'a>> {
        let layout = known
            .into_iter()
            .find(|l| Arc::ptr_eq(&l.shape, tuple.shape()));
        (layout.is_some() || tuple.type_name() == type_name).then_some(Fields { tuple, layout })
    }

    fn get(&self, field: Field) -> Option<&'a Value> {
        match self.layout {
            Some(l) => l.at[field as usize].map(|i| &self.tuple.values()[i as usize]),
            None => self.tuple.get(field.name()),
        }
    }
}

/// A task tuple: `job` is shared (a string value's clone is a reference
/// count), and the current trace context rides along as the tuple's
/// metadata, so the worker that takes the task joins the writer's trace.
pub(crate) fn task_tuple(job: Value, task_id: u64, payload: Bytes, retries: u32) -> Tuple {
    let mut slots: [Option<Value>; FIELDS] = Default::default();
    slots[Field::Job as usize] = Some(job);
    slots[Field::TaskId as usize] = Some(Value::Int(task_id as i64));
    slots[Field::Payload as usize] = Some(Value::Bytes(payload));
    slots[Field::Retries as usize] = Some(Value::Int(retries as i64));
    layouts()
        .task
        .tuple(slots)
        .with_trace(TraceContext::current_if_enabled())
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
    /// [`acc_telemetry::TraceContext`] rides along as the tuple's trace
    /// metadata ([`Tuple::trace`]) so the worker that takes this task can
    /// join the master's trace.
    pub fn to_tuple(&self) -> Tuple {
        let payload = Bytes::copy_from_slice(&self.payload);
        task_tuple(
            self.job.as_str().into(),
            self.task_id,
            payload,
            self.retries,
        )
    }

    /// [`TaskEntry::to_tuple`], consuming the entry. It costs the same: a
    /// tuple's string and blob are shared allocations of their own, which
    /// a `String` or `Vec` is copied into either way.
    pub fn into_tuple(self) -> Tuple {
        self.to_tuple()
    }

    /// Deserializes from a space tuple.
    pub fn from_tuple(tuple: &Tuple) -> Option<TaskEntry> {
        let mut entry = TaskEntry::new(String::new(), 0, Vec::new());
        entry.read_tuple(tuple).map(|_| entry)
    }

    /// Overwrites this entry with the task `tuple` carries, into the
    /// entry's own job and payload buffers: how a worker reads each task
    /// it takes without allocating. Returns the tuple's `job` value, for
    /// the task's result to share; `None`, with the entry unspecified,
    /// when `tuple` is not a task.
    pub(crate) fn read_tuple<'t>(&mut self, tuple: &'t Tuple) -> Option<&'t Value> {
        let fields = Fields::of(tuple, TASK_TYPE, [&layouts().task])?;
        let job_value = fields.get(Field::Job)?;
        let job = job_value.as_str()?;
        let task_id = fields.get(Field::TaskId)?.as_int()?;
        let payload = fields.get(Field::Payload)?.as_bytes()?;
        self.job.clear();
        self.job.push_str(job);
        self.task_id = task_id as u64;
        self.payload.clear();
        self.payload.extend_from_slice(payload);
        self.retries = fields
            .get(Field::Retries)
            .and_then(Value::as_int)
            .unwrap_or(0) as u32;
        Some(job_value)
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
    /// result-write), feeding the cluster view's per-worker and
    /// per-job histograms. Rides the tuple as a compact bytes field;
    /// results from older workers decode to all-zero timing.
    pub timing: TaskTiming,
}

impl ResultEntry {
    /// Serializes into a space tuple. It carries no trace context:
    /// nothing reads one off a result.
    pub fn to_tuple(&self) -> Tuple {
        let view = self.view();
        view.tuple_sharing(view.job.into(), view.worker.into())
    }

    /// [`ResultEntry::to_tuple`], consuming the entry (at the same cost,
    /// as [`TaskEntry::into_tuple`]).
    pub fn into_tuple(self) -> Tuple {
        self.to_tuple()
    }

    /// Deserializes from a space tuple.
    pub fn from_tuple(tuple: &Tuple) -> Option<ResultEntry> {
        ResultView::of(tuple).map(|r| r.to_entry())
    }

    /// The entry, borrowed.
    fn view(&self) -> ResultView<'_> {
        ResultView {
            job: &self.job,
            task_id: self.task_id,
            worker: &self.worker,
            payload: &self.payload,
            compute_ms: self.compute_ms,
            span_ms: self.span_ms,
            error: self.error.as_deref(),
            timing: self.timing,
        }
    }
}

/// A result tuple's fields, borrowed from it: how the master absorbs a
/// result without copying its names or payload out of the frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultView<'a> {
    /// The job this result belongs to.
    pub job: &'a str,
    /// Which task produced it.
    pub task_id: u64,
    /// The worker that computed it.
    pub worker: &'a str,
    /// Serialized application output (empty when `error` is set).
    pub payload: &'a [u8],
    /// See [`ResultEntry::compute_ms`].
    pub compute_ms: f64,
    /// See [`ResultEntry::span_ms`].
    pub span_ms: f64,
    /// See [`ResultEntry::error`].
    pub error: Option<&'a str>,
    /// See [`ResultEntry::timing`].
    pub timing: TaskTiming,
}

impl<'a> ResultView<'a> {
    /// The result `tuple` carries, if it is one.
    pub fn of(tuple: &'a Tuple) -> Option<ResultView<'a>> {
        let fields = Fields::of(tuple, RESULT_TYPE, &layouts().result)?;
        Some(ResultView {
            job: fields.get(Field::Job)?.as_str()?,
            task_id: fields.get(Field::TaskId)?.as_int()? as u64,
            worker: fields.get(Field::Worker)?.as_str()?,
            payload: fields.get(Field::Payload)?.as_bytes()?,
            compute_ms: fields.get(Field::ComputeMs)?.as_float()?,
            span_ms: fields.get(Field::SpanMs)?.as_float()?,
            error: fields.get(Field::Error).and_then(Value::as_str),
            timing: fields
                .get(Field::Timing)
                .and_then(Value::as_bytes)
                .and_then(TaskTiming::from_bytes)
                .unwrap_or_default(),
        })
    }

    /// An owned copy.
    fn to_entry(self) -> ResultEntry {
        ResultEntry {
            job: self.job.to_owned(),
            task_id: self.task_id,
            worker: self.worker.to_owned(),
            payload: self.payload.to_vec(),
            compute_ms: self.compute_ms,
            span_ms: self.span_ms,
            error: self.error.map(str::to_owned),
            timing: self.timing,
        }
    }

    /// The result as a space tuple, with the job and worker names given
    /// as shared values, equal to `job` and `worker`: a worker passes the
    /// task tuple's `job` and a name value it made once, so building its
    /// result copies neither.
    pub(crate) fn tuple_sharing(&self, job: Value, worker: Value) -> Tuple {
        debug_assert_eq!(job.as_str(), Some(self.job));
        debug_assert_eq!(worker.as_str(), Some(self.worker));
        let timed = self.timing != TaskTiming::default();
        let bits = timed as usize | (self.error.is_some() as usize) << 1;
        let mut slots: [Option<Value>; FIELDS] = Default::default();
        slots[Field::Job as usize] = Some(job);
        slots[Field::TaskId as usize] = Some(Value::Int(self.task_id as i64));
        slots[Field::Worker as usize] = Some(worker);
        slots[Field::Payload as usize] = Some(Value::Bytes(Bytes::copy_from_slice(self.payload)));
        slots[Field::ComputeMs as usize] = Some(Value::Float(self.compute_ms));
        slots[Field::SpanMs as usize] = Some(Value::Float(self.span_ms));
        slots[Field::Timing as usize] =
            timed.then(|| Value::Bytes(Bytes::copy_from_slice(&self.timing.to_bytes())));
        slots[Field::Error as usize] = self.error.map(Value::from);
        layouts().result[bits].tuple(slots)
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
        // No tracing active in tests: to_tuple attaches no context.
        assert_eq!(task().to_tuple().trace(), None);
        let ctx = acc_telemetry::TraceContext {
            trace_id: 0x1122,
            span_id: 0x3344,
        };
        let tuple = Tuple::build(TASK_TYPE)
            .field("job", "render")
            .field("task_id", 5i64)
            .field("payload", vec![1u8, 2, 3])
            .field("retries", 0i64)
            .field("extra", 1i64)
            .done()
            .with_trace(Some(ctx));
        assert_eq!(TaskEntry::from_tuple(&tuple), Some(task()));
        // A reused entry takes every field from the tuple it reads.
        let mut reused = TaskEntry::new("an-older-job", 9, vec![7; 100]);
        reused.retries = 4;
        assert_eq!(reused.read_tuple(&tuple), tuple.get("job"));
        assert_eq!(reused, task());
        assert_eq!(reused.read_tuple(&result().to_tuple()), None);
    }

    #[test]
    fn result_views_borrow_the_tuple() {
        let mut r = result();
        r.error = Some("boom".into());
        let tuple = r.to_tuple();
        let view = ResultView::of(&tuple).unwrap();
        assert_eq!(view, r.view());
        assert_eq!(
            view.payload.as_ptr(),
            tuple.get_bytes("payload").unwrap().as_ptr()
        );
        assert_eq!(
            view.worker.as_ptr(),
            tuple.get_str("worker").unwrap().as_ptr()
        );
        assert_eq!(view.to_entry(), r);
        assert_eq!(ResultView::of(&task().to_tuple()), None);
    }

    #[test]
    fn decoded_tuples_are_read_by_position() {
        use acc_tuplespace::{decode_frame, NameInterner};
        let mut r = result();
        r.error = Some("boom".into());
        let mut shapes = NameInterner::new();
        for tuple in [task().to_tuple(), r.to_tuple()] {
            let frame = Bytes::from(tuple.to_bytes());
            let decoded: Tuple = decode_frame(frame, &mut shapes).unwrap();
            // The decoder hands back the process-wide static shape, so
            // the entry conversions find their layout by pointer.
            assert!(Arc::ptr_eq(decoded.shape(), tuple.shape()));
            let known = std::iter::once(&layouts().task).chain(&layouts().result);
            let fields = Fields::of(&decoded, tuple.type_name(), known).unwrap();
            assert!(fields.layout.is_some());
        }
        assert_eq!(TaskEntry::from_tuple(&task().to_tuple()), Some(task()));
        assert_eq!(ResultEntry::from_tuple(&r.to_tuple()), Some(r));
    }

    #[test]
    fn task_spec_encodes_payload() {
        let spec = TaskSpec::new(3, &42u64);
        let entry = TaskEntry::new("j", spec.task_id, spec.payload);
        assert_eq!(entry.input::<u64>().unwrap(), 42);
        assert!(matches!(entry.input::<String>(), Err(ExecError::Decode(_))));
    }
}
