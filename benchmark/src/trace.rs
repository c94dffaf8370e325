//! The traced run's instrument: in-memory spans recorded around the calls
//! the harness makes into each layer, from outside the program.
//!
//! A span is `{name, start_ns, end_ns, parent, trace}` plus the CPU time its
//! thread burned inside it; the spans of one job share a trace id. Spans on
//! the thread that opened the job nest through a thread-local stack; spans
//! opened on the program's own threads (a worker
//! running the wrapped executor) hang off the current job's root. Nothing
//! is written until [`Tracer::flush`] at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use acc_core::ResultEntry;
use acc_tuplespace::{EntryId, Lease, SpaceResult, StoreHandle, Template, Tuple, TupleStore};

/// One recorded interval. `parent == 0` marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The recording thread, numbered in order of first use.
    pub thread: u32,
    /// CPU time the recording thread consumed between start and end. On
    /// the one CPU the benchmark runs on, wall time inside a span also
    /// counts every other thread's turn; this does not.
    pub cpu_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of this thread as `(id, trace)`, innermost last.
    static STACK: RefCell<Vec<(u32, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has consumed so far.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // every 64-bit Linux target) and the clock id is a constant the kernel
    // defines; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The span sink. Recording is off until [`Tracer::set_on`]; while off,
/// [`Tracer::span`] costs one relaxed load.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU32,
    /// Trace id and root span of the job in flight, for spans opened on
    /// threads that have no stack of their own.
    job_trace: AtomicU64,
    job_root: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u32,
    parent: u32,
    trace: u64,
    start_ns: u64,
    start_cpu_ns: u64,
    root: bool,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            job_trace: AtomicU64::new(0),
            job_root: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of one job (or one block of ops); `trace` is
    /// shared by every span recorded until the guard drops.
    pub fn job(&self, name: &'static str, trace: u64) -> Option<SpanGuard<'_>> {
        if !self.is_on() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.job_trace.store(trace, Ordering::SeqCst);
        self.job_root.store(id, Ordering::SeqCst);
        STACK.with(|s| s.borrow_mut().push((id, trace)));
        Some(SpanGuard {
            tracer: self,
            name,
            id,
            parent: 0,
            trace,
            start_ns: self.now_ns(),
            start_cpu_ns: thread_cpu_ns(),
            root: true,
        })
    }

    /// Opens a span under the innermost open span of this thread, or under
    /// the current job's root when this thread has none.
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        if !self.is_on() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, trace) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let (parent, trace) = stack.last().copied().unwrap_or_else(|| {
                (
                    self.job_root.load(Ordering::SeqCst),
                    self.job_trace.load(Ordering::SeqCst),
                )
            });
            stack.push((id, trace));
            (parent, trace)
        });
        Some(SpanGuard {
            tracer: self,
            name,
            id,
            parent,
            trace,
            start_ns: self.now_ns(),
            start_cpu_ns: thread_cpu_ns(),
            root: false,
        })
    }

    /// Hands over every span recorded so far, leaving the sink empty.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }

    /// Writes the spans as JSON lines.
    pub fn flush(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                r#"{{"name":"{}","id":{},"parent":{},"trace":{},"start_ns":{},"end_ns":{},"thread":{},"cpu_ns":{}}}"#,
                s.name, s.id, s.parent, s.trace, s.start_ns, s.end_ns, s.thread, s.cpu_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let cpu_ns = thread_cpu_ns().saturating_sub(self.start_cpu_ns);
        let end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last().map(|(id, _)| *id) == Some(self.id) {
                stack.pop();
            }
        });
        if self.root {
            self.tracer.job_root.store(0, Ordering::SeqCst);
        }
        self.tracer
            .spans
            .lock()
            .expect("span sink poisoned")
            .push(Span {
                name: self.name,
                id: self.id,
                parent: self.parent,
                trace: self.trace,
                start_ns: self.start_ns,
                end_ns,
                thread: THREAD.with(|t| *t),
                cpu_ns,
            });
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of the interval child spans cover.
    pub self_ns: u64,
    pub cpu_ns: u64,
    /// CPU time minus that of the child spans on the same thread.
    pub self_cpu_ns: u64,
    pub durations_ns: Vec<u64>,
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it. Children may overlap each other (two workers
/// computing at once) and may outlive the parent; neither is counted twice
/// nor beyond the parent's end.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Self CPU time of every span: its thread's CPU time inside it minus that
/// of its children *on the same thread* (those nest, so they subtract
/// whole; a child on another thread burned that thread's CPU, not this
/// one's).
pub fn self_cpu_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let threads: BTreeMap<u32, u32> = spans.iter().map(|s| (s.id, s.thread)).collect();
    let mut selfs: BTreeMap<u32, u64> = spans.iter().map(|s| (s.id, s.cpu_ns)).collect();
    for s in spans {
        if threads.get(&s.parent) == Some(&s.thread) {
            let parent = selfs.get_mut(&s.parent).expect("parent is a recorded span");
            *parent = parent.saturating_sub(s.cpu_ns);
        }
    }
    selfs
}

/// Folds spans into per-name totals.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let self_cpus = self_cpu_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs[&s.id];
        t.cpu_ns += s.cpu_ns;
        t.self_cpu_ns += self_cpus[&s.id];
        t.durations_ns.push(s.duration_ns());
    }
    out
}

/// What the master-side store handle saw of the workers: the `TaskTiming`
/// each result tuple carries, and which worker produced it.
#[derive(Debug, Default)]
pub struct ResultLog {
    pub results: u64,
    pub wait_us: u64,
    pub xfer_us: u64,
    pub write_us: u64,
    pub per_worker: BTreeMap<String, u64>,
    /// The first task and result tuples that crossed the handle: the
    /// workload's own tuples, replayed by the layer probes.
    pub sample_task: Option<Tuple>,
    pub sample_result: Option<Tuple>,
}

/// `TupleStore` decorator: a span and a call count around every operation
/// the wrapped handle serves. Forwards every trait method, so the batch
/// overrides of the wrapped store keep their single-round-trip behaviour.
pub struct TracedStore {
    inner: StoreHandle,
    tracer: Arc<Tracer>,
    calls: AtomicU64,
    log: Mutex<ResultLog>,
}

impl TracedStore {
    pub fn new(inner: StoreHandle, tracer: Arc<Tracer>) -> Arc<TracedStore> {
        Arc::new(TracedStore {
            inner,
            tracer,
            calls: AtomicU64::new(0),
            log: Mutex::new(ResultLog::default()),
        })
    }

    /// Store calls made through this handle while tracing was on.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn take_log(&self) -> ResultLog {
        std::mem::take(&mut *self.log.lock().expect("result log poisoned"))
    }

    fn enter(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        let guard = self.tracer.span(name);
        if guard.is_some() {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        guard
    }

    fn note_written(&self, tuple: &Tuple) {
        if self.tracer.is_on() && tuple.type_name() == acc_core::task::TASK_TYPE {
            let mut log = self.log.lock().expect("result log poisoned");
            if log.sample_task.is_none() {
                log.sample_task = Some(tuple.clone());
            }
        }
    }

    fn note_taken(&self, tuple: &Tuple) {
        if !self.tracer.is_on() {
            return;
        }
        let Some(result) = ResultEntry::from_tuple(tuple) else {
            return;
        };
        let mut log = self.log.lock().expect("result log poisoned");
        log.results += 1;
        log.wait_us += result.timing.wait_us;
        log.xfer_us += result.timing.xfer_us;
        log.write_us += result.timing.write_us;
        *log.per_worker.entry(result.worker).or_default() += 1;
        if log.sample_result.is_none() {
            log.sample_result = Some(tuple.clone());
        }
    }
}

impl TupleStore for TracedStore {
    fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
        self.note_written(&tuple);
        let _span = self.enter("store.write");
        self.inner.write_leased(tuple, lease)
    }

    fn read(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        let _span = self.enter("store.read");
        self.inner.read(template, timeout)
    }

    fn take(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        let taken = {
            let _span = self.enter("store.take");
            self.inner.take(template, timeout)
        };
        if let Ok(Some(tuple)) = &taken {
            self.note_taken(tuple);
        }
        taken
    }

    fn count(&self, template: &Template) -> SpaceResult<usize> {
        let _span = self.enter("store.count");
        self.inner.count(template)
    }

    fn close(&self) {
        self.inner.close()
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    // `write`, `write_all`, `read_if_exists` and `take_if_exists` keep their
    // default bodies: no store overrides them, and the defaults land on the
    // traced methods above. The three below *are* overridden by the wire
    // and grid stores (one round trip for a batch) and must pass through.

    fn take_all(&self, template: &Template) -> SpaceResult<Vec<Tuple>> {
        let _span = self.enter("store.take_all");
        self.inner.take_all(template)
    }

    fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
        if let Some(first) = tuples.first() {
            self.note_written(first);
        }
        let _span = self.enter("store.write_all");
        self.inner.write_all_leased(tuples, lease)
    }

    fn take_up_to(
        &self,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> SpaceResult<Vec<Tuple>> {
        let _span = self.enter("store.take_up_to");
        self.inner.take_up_to(template, max, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            id,
            parent,
            trace: 1,
            start_ns,
            end_ns,
            thread: 1,
            cpu_ns: end_ns - start_ns,
        }
    }

    #[test]
    fn self_cpu_subtracts_same_thread_children_only() {
        // A master span burning 60 of CPU, 25 of it inside a nested call on
        // its own thread; a worker span under it burned its own thread's 40.
        let mut master = span(1, 0, 0, 100);
        master.cpu_ns = 60;
        let mut call = span(2, 1, 10, 50);
        call.cpu_ns = 25;
        let mut worker = span(3, 1, 20, 90);
        worker.cpu_ns = 40;
        worker.thread = 2;
        let selfs = self_cpu_times(&[master, call, worker]);
        assert_eq!((selfs[&1], selfs[&2], selfs[&3]), (35, 25, 40));
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100; child 10..60 with grandchild 20..30; child 70..90.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 2, 20, 30),
            span(4, 1, 70, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 20);
        assert_eq!(selfs[&2], 50 - 10);
        assert_eq!(selfs[&3], 10);
        assert_eq!(selfs[&4], 20);
        // Self times of a tree add back up to the root's duration.
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_their_union() {
        // Two workers computing at once (20..60 and 40..80), one child
        // contained in another (45..50), one outliving the parent.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 20, 60),
            span(3, 1, 40, 80),
            span(4, 1, 45, 50),
            span(5, 1, 90, 130),
        ];
        let selfs = self_times(&spans);
        // Covered: 20..80 and 90..100.
        assert_eq!(selfs[&1], 100 - 60 - 10);
        assert_eq!(selfs[&5], 40);
    }

    #[test]
    fn recorder_nests_by_thread_and_hangs_foreign_threads_off_the_job() {
        let tracer = Tracer::new();
        assert!(tracer.span("off").is_none(), "nothing records while off");
        tracer.set_on(true);
        {
            let _job = tracer.job("job", 7);
            {
                let _outer = tracer.span("outer");
                let _inner = tracer.span("inner");
            }
            std::thread::scope(|scope| {
                scope.spawn(|| drop(tracer.span("worker")));
            });
        }
        let spans = tracer.take_spans();
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).expect("span recorded");
        let job = by_name("job");
        assert_eq!(job.parent, 0);
        assert_eq!(by_name("outer").parent, job.id);
        assert_eq!(by_name("inner").parent, by_name("outer").id);
        assert_eq!(by_name("worker").parent, job.id);
        assert!(spans.iter().all(|s| s.trace == 7));
        let totals = totals_by_name(&spans);
        assert_eq!(totals["job"].count, 1);
        assert_eq!(
            totals.values().map(|t| t.self_ns).sum::<u64>(),
            job.duration_ns(),
            "self times partition the job"
        );
    }
}
