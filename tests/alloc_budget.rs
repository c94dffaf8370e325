//! Hard allocation budgets for the wire path's and the trace path's hot
//! operations.
//!
//! The zero-copy decode work (borrowed `Bytes` frames, name interning)
//! and the flight recorder's in-place records are only real if they stay
//! real: this binary installs a counting global allocator and gates the
//! per-operation allocation counts. CI runs it
//! as a hard gate — a regression that quietly reintroduces per-field
//! copies, or a `Vec` per trace record, fails the build, not a
//! dashboard.
//!
//! The allocator counts per thread, and every measurement runs on the
//! test's own thread, so what the harness's other threads allocate
//! meanwhile is never charged to an operation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use adaptive_spaces::cluster::{ClusterObserver, ObserverConfig, TaskTiming};
use adaptive_spaces::framework::{
    Application, ExecError, Master, ResultEntry, TaskEntry, TaskExecutor, TaskSpec,
};
use adaptive_spaces::space::{
    decode_frame, Bytes, NameInterner, Payload, Space, Template, Tuple, Value, WireReader,
};
use adaptive_spaces::telemetry::{event, flight, span, TraceContext};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. `const`-initialised and without a
    /// destructor, so the allocator can touch it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Charges one allocation to the calling thread; a thread past its
/// thread-locals' teardown goes uncounted.
fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocation count of `f`, on this thread's watch.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A representative 6-field task tuple (mostly scalars plus one blob —
/// the shape the cluster framework actually ships).
fn task_tuple(id: i64) -> Tuple {
    Tuple::build("acc.task")
        .field("job", "alloc-budget")
        .field("task_id", id)
        .field("attempt", 1i64)
        .field("live", true)
        .field("weight", 0.5f64)
        .field("payload", vec![0xA5u8; 64])
        .done()
}

/// What the decoder did before the zero-copy rework: an owned `String`
/// per name, a copied `Vec<u8>` per blob, no interning, and the builder's
/// canonicalising path. Kept as the baseline the ≥5× gate measures
/// against — observationally equivalent, allocationally honest.
fn legacy_copying_decode(frame: Bytes) -> Tuple {
    fn legacy_value(r: &mut WireReader) -> Value {
        match r.get_u8().unwrap() {
            0 => Value::Int(r.get_i64().unwrap()),
            1 => Value::Float(r.get_f64().unwrap()),
            2 => Value::Bool(r.get_bool().unwrap()),
            3 => Value::from(r.get_str().unwrap()),
            4 => Value::from(r.get_blob().unwrap()),
            5 => {
                let n = r.get_u32().unwrap() as usize;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(legacy_value(r));
                }
                Value::List(items)
            }
            _ => panic!("bad value tag"),
        }
    }
    let mut r = WireReader::new(frame);
    let type_name = r.get_str().unwrap();
    let n = r.get_u32().unwrap() as usize;
    let mut builder = Tuple::build(type_name);
    for _ in 0..n {
        let name = r.get_str().unwrap();
        let value = legacy_value(&mut r);
        builder = builder.field(name, value);
    }
    builder.done()
}

#[test]
fn wire_path_allocation_budgets() {
    // --- Gate 1: borrowed decode beats the copying decode ≥5× ---------
    let frame = Bytes::from(task_tuple(7).to_bytes());
    let mut interner = NameInterner::new();
    // Warm the name cache (a real connection decodes thousands of frames
    // with the same half-dozen field names; the first is the odd one out).
    let warm: Tuple = decode_frame(frame.clone(), &mut interner).unwrap();
    assert_eq!(warm, task_tuple(7));

    const ROUNDS: u64 = 100;
    let (borrowed, last) = allocs(|| {
        let mut last = None;
        for _ in 0..ROUNDS {
            let t: Tuple = decode_frame(frame.clone(), &mut interner).unwrap();
            last = Some(t);
        }
        last
    });
    let (copying, legacy_last) = allocs(|| {
        let mut last = None;
        for _ in 0..ROUNDS {
            last = Some(legacy_copying_decode(frame.clone()));
        }
        last
    });
    // Same observable tuple either way.
    assert_eq!(last.as_ref().unwrap(), legacy_last.as_ref().unwrap());
    eprintln!(
        "alloc_budget: borrowed={:.2}/op copying={:.2}/op ({:.1}x)",
        borrowed as f64 / ROUNDS as f64,
        copying as f64 / ROUNDS as f64,
        copying as f64 / borrowed.max(1) as f64,
    );
    assert!(
        borrowed * 5 <= copying,
        "borrowed decode must allocate ≥5x less than the copying decode: \
         {} vs {} allocs over {ROUNDS} rounds",
        borrowed,
        copying,
    );
    // And an absolute ceiling so the ratio can't drift upward in tandem:
    // a known shape decodes into the value array alone — the `Str` and
    // the blob are views of the frame, and the tuple reuses the cached
    // shape.
    assert!(
        borrowed <= ROUNDS,
        "known-shape 6-field decode exceeded 1 alloc/op: {borrowed} over {ROUNDS} rounds"
    );
    assert!(
        std::sync::Arc::ptr_eq(last.as_ref().unwrap().shape(), warm.shape()),
        "a known shape is reused, not rebuilt"
    );

    // --- Gate 2: batch decode stays linear with a small constant ------
    const BATCH: usize = 64;
    let batch_frames: Vec<Bytes> = (0..BATCH)
        .map(|i| Bytes::from(task_tuple(i as i64).to_bytes()))
        .collect();
    let (batch_allocs, decoded) = allocs(|| {
        batch_frames
            .iter()
            .map(|f| decode_frame::<Tuple>(f.clone(), &mut interner).unwrap())
            .collect::<Vec<Tuple>>()
    });
    assert_eq!(decoded.len(), BATCH);
    assert!(
        batch_allocs as usize <= BATCH + 16,
        "batch decode of {BATCH} tuples exceeded its budget: {batch_allocs} allocs"
    );

    // --- Gate 3: local write+take budget -------------------------------
    // Both rounds go through a space whose only demanded (indexed) field
    // is `job`, the one field the framework's templates name.
    let write_take = |tuple: &Tuple| {
        let space = Space::new("alloc-budget");
        let template = Template::build(tuple.type_name())
            .eq("job", "alloc-budget")
            .done();
        // Warm the space's shard map and the `job` index.
        space.write(tuple.clone()).unwrap();
        assert!(space.take_if_exists(&template).unwrap().is_some());
        let (count, got) = allocs(|| {
            for _ in 0..ROUNDS {
                space.write(tuple.clone()).unwrap();
            }
            let mut got = 0;
            for _ in 0..ROUNDS {
                if space.take_if_exists(&template).unwrap().is_some() {
                    got += 1;
                }
            }
            got
        });
        assert_eq!(got, ROUNDS);
        count
    };
    let six_field = write_take(&task_tuple(1));
    let null_job = write_take(&TaskEntry::new("alloc-budget", 1, vec![0xA5; 64]).into_tuple());
    eprintln!(
        "alloc_budget: write_take={:.2}/op null_job write_take={:.2}/op",
        six_field as f64 / ROUNDS as f64,
        null_job as f64 / ROUNDS as f64,
    );
    // Measured 22 per 100 rounds for both: growth of the shard's entry
    // map and `job` bucket, nothing per tuple.
    assert!(
        six_field <= ROUNDS / 4,
        "write+take exceeded {} allocs per {ROUNDS} rounds: {six_field}",
        ROUNDS / 4
    );
    assert!(
        null_job <= ROUNDS / 4,
        "null_job-shaped write+take exceeded {} allocs per {ROUNDS} rounds: {null_job}",
        ROUNDS / 4
    );

    // --- Gate 4: flight records allocate nothing ------------------------
    // The recorder is on in every `ClusterBuilder` deployment, so a
    // record's cost is every task's cost. Steady state is a ring that has
    // wrapped (its chunks are allocated as it first fills).
    flight::install();
    let job_trace = TraceContext::root();
    let _job = job_trace.attach();
    let worker = String::from("bench-w0");
    let record_set = |task_id: u64| {
        let _task = span!("alloc.task", worker = worker.as_str(), task_id = task_id);
        event!("alloc.take", task_id = task_id, op = "take_up_to");
        event!("alloc.flags", ok = true, share = 0.5f64);
    };
    const RECORDS_PER_SET: u64 = 4;
    let wrap = (2 * flight::DEFAULT_CAPACITY) as u64 / RECORDS_PER_SET;
    (0..wrap).for_each(record_set);
    let (dropping, ()) = allocs(|| (0..wrap).for_each(record_set));
    assert_eq!(
        dropping,
        0,
        "steady-state span!/event! allocated: {dropping} allocs over {} records",
        wrap * RECORDS_PER_SET
    );
    // The same with the trace retained, so that every evicted record is
    // moved to the kept ring instead of dropped (warm-up: that ring's
    // chunks, and this thread's copy of the retained set).
    flight::retain_trace(job_trace.trace_id);
    (0..wrap).for_each(record_set);
    let (keeping, ()) = allocs(|| (0..wrap).for_each(record_set));
    assert_eq!(
        keeping, 0,
        "steady-state span!/event! with a retained trace allocated: {keeping} allocs"
    );
    let mine = flight::occupancy()
        .into_iter()
        .find(|o| o.live == flight::DEFAULT_CAPACITY && o.kept == flight::DEFAULT_CAPACITY);
    assert!(mine.is_some(), "both rings of this thread wrapped");

    // --- Gate 5: framework tuples, traced -------------------------------
    // Type and field names live in static shapes, so what is left is the
    // tuple's own storage: the value array, the job/worker strings and
    // the payload/timing blobs, one shared allocation each. The trace
    // context is metadata, no allocation. `into_tuple` copies the strings
    // and the payload as `to_tuple` does: a `String` or `Vec` cannot
    // become a shared allocation without one.
    let task = TaskEntry::new("alloc-budget", 7, vec![0xA5; 64]);
    let result = ResultEntry {
        job: "alloc-budget".into(),
        task_id: 7,
        worker: "bench-w0".into(),
        payload: vec![0x5A; 64],
        compute_ms: 0.25,
        span_ms: 12.5,
        error: None,
        timing: TaskTiming {
            wait_us: 40,
            xfer_us: 5,
            compute_us: 250,
            write_us: 12,
        },
    };
    // The first tuple ever built registers the shapes.
    drop(task.to_tuple());
    let rounds_of = |build: &mut dyn FnMut() -> Tuple| {
        allocs(|| {
            let mut last = build();
            for _ in 1..ROUNDS {
                last = build();
            }
            last
        })
    };
    let (task_allocs, task_tuple) = rounds_of(&mut || task.to_tuple());
    let (result_allocs, result_tuple) = rounds_of(&mut || result.to_tuple());
    let mut tasks: Vec<TaskEntry> = (0..ROUNDS).map(|_| task.clone()).collect();
    let mut results: Vec<ResultEntry> = (0..ROUNDS).map(|_| result.clone()).collect();
    let (task_moves, _) = rounds_of(&mut || tasks.pop().unwrap().into_tuple());
    let (result_moves, _) = rounds_of(&mut || results.pop().unwrap().into_tuple());
    eprintln!(
        "alloc_budget: task.to_tuple={:.2}/op result.to_tuple={:.2}/op \
         task.into_tuple={:.2}/op result.into_tuple={:.2}/op",
        task_allocs as f64 / ROUNDS as f64,
        result_allocs as f64 / ROUNDS as f64,
        task_moves as f64 / ROUNDS as f64,
        result_moves as f64 / ROUNDS as f64,
    );
    assert_eq!(
        task_tuple.trace(),
        Some(job_trace),
        "a task carries the current trace context"
    );
    assert_eq!(result_tuple.trace(), None, "a result carries none");
    assert_eq!(TaskEntry::from_tuple(&task_tuple), Some(task));
    assert_eq!(ResultEntry::from_tuple(&result_tuple), Some(result.clone()));
    assert!(
        task_moves <= 3 * ROUNDS,
        "TaskEntry::into_tuple exceeded 3 allocs/op: {task_moves} over {ROUNDS} rounds"
    );
    assert!(
        result_moves <= 5 * ROUNDS,
        "ResultEntry::into_tuple exceeded 5 allocs/op: {result_moves} over {ROUNDS} rounds"
    );
    assert!(
        task_allocs <= 3 * ROUNDS,
        "TaskEntry::to_tuple exceeded 3 allocs/op: {task_allocs} over {ROUNDS} rounds"
    );
    assert!(
        result_allocs <= 5 * ROUNDS,
        "ResultEntry::to_tuple exceeded 5 allocs/op: {result_allocs} over {ROUNDS} rounds"
    );
    flight::uninstall();

    // --- Gate 6: the master absorbs a result without allocating --------
    // The results are in the space before the job starts, so the master's
    // first take and its one drain return them all before the first
    // absorb; from the first absorb to the last, this thread does nothing
    // but absorb — read each result in place, book its worker and its
    // attribution, and record its task as done.
    const RESULTS: u64 = 64;
    let space = Space::new("alloc-budget-master");
    for task_id in 0..RESULTS {
        let mut result = result.clone();
        result.job = AbsorbCounter::JOB.into();
        result.task_id = task_id;
        space.write(result.into_tuple()).unwrap();
    }
    let mut master = Master::new(space.clone());
    master.observer = Some(Arc::new(ClusterObserver::new(ObserverConfig::default())));
    let mut app = AbsorbCounter::default();
    let report = master.run(&mut app).unwrap();
    assert!(report.complete, "{report:?}");
    let (first, last) = (app.first.unwrap(), app.last.unwrap());
    eprintln!(
        "alloc_budget: master absorb={:.2}/result",
        (last - first) as f64 / (RESULTS - 1) as f64
    );
    assert_eq!(
        last - first,
        0,
        "absorbing {} results allocated {} times",
        RESULTS - 1,
        last - first
    );
}

/// A job whose results are read, not computed: `absorb` notes this
/// thread's allocation count at the first and the last result.
#[derive(Default)]
struct AbsorbCounter {
    first: Option<u64>,
    last: Option<u64>,
}

impl AbsorbCounter {
    const JOB: &'static str = "alloc-budget-absorb";
}

impl Application for AbsorbCounter {
    fn job_name(&self) -> String {
        Self::JOB.into()
    }

    fn bundle_name(&self) -> String {
        "none".into()
    }

    fn plan(&mut self) -> Vec<TaskSpec> {
        (0..64).map(|id| TaskSpec::new(id, &id)).collect()
    }

    fn executor(&self) -> Arc<dyn TaskExecutor> {
        unreachable!("no worker runs this job")
    }

    fn absorb(&mut self, _task_id: u64, _payload: &[u8]) -> Result<(), ExecError> {
        let now = ALLOCS.with(Cell::get);
        self.first.get_or_insert(now);
        self.last = Some(now);
        Ok(())
    }
}
