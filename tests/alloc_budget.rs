//! Hard allocation budgets for the wire path's and the trace path's hot
//! operations.
//!
//! The zero-copy decode work (borrowed `Bytes` frames, name interning,
//! pooled buffers) and the flight recorder's in-place records are only
//! real if they stay real: this binary installs a counting global
//! allocator and gates the per-operation allocation counts. CI runs it
//! as a hard gate — a regression that quietly reintroduces per-field
//! copies, or a `Vec` per trace record, fails the build, not a
//! dashboard.
//!
//! Everything lives in ONE `#[test]` so no sibling test thread can
//! allocate inside a measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adaptive_spaces::cluster::TaskTiming;
use adaptive_spaces::framework::{tuple_trace_context, ResultEntry, TaskEntry};
use adaptive_spaces::space::{
    decode_frame, Bytes, NameInterner, Payload, Space, Template, Tuple, Value, WireReader,
};
use adaptive_spaces::telemetry::{event, flight, span, TraceContext};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocation count of `f`, on this thread's watch.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
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
            3 => Value::Str(r.get_str().unwrap()),
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
    assert_eq!(last.unwrap(), legacy_last.unwrap());
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
    // fields Vec + Arc<[..]> per decode, plus slack.
    assert!(
        borrowed <= 4 * ROUNDS,
        "borrowed 6-field decode exceeded 4 allocs/op: {borrowed} over {ROUNDS} rounds"
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
        batch_allocs as usize <= 4 * BATCH + 16,
        "batch decode of {BATCH} tuples exceeded its budget: {batch_allocs} allocs"
    );

    // --- Gate 3: local write+take budget -------------------------------
    let space = Space::new("alloc-budget");
    let template = Template::build("acc.task").eq("job", "alloc-budget").done();
    // Warm the space's shard maps and index buckets.
    space.write(task_tuple(0)).unwrap();
    assert!(space.take_if_exists(&template).unwrap().is_some());
    let tuple = task_tuple(1);
    let (write_take, got) = allocs(|| {
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
    assert!(
        write_take <= 40 * ROUNDS,
        "write+take cycle exceeded 40 allocs/op: {write_take} over {ROUNDS} rounds"
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
    // Type and field names are shared strings, so what is left is the
    // tuple's own storage: the field list (grown once, then frozen), the
    // job/worker strings, and the payload/timing/trace-context blobs (a
    // buffer and its ref-count each).
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
    // The first tuple ever built allocates the shared names.
    drop(task.to_tuple());
    let rounds_of = |build: &dyn Fn() -> Tuple| {
        allocs(|| {
            let mut last = build();
            for _ in 1..ROUNDS {
                last = build();
            }
            last
        })
    };
    let (task_allocs, task_tuple) = rounds_of(&|| task.to_tuple());
    let (result_allocs, result_tuple) = rounds_of(&|| result.to_tuple());
    eprintln!(
        "alloc_budget: task.to_tuple={:.2}/op result.to_tuple={:.2}/op",
        task_allocs as f64 / ROUNDS as f64,
        result_allocs as f64 / ROUNDS as f64,
    );
    for tuple in [&task_tuple, &result_tuple] {
        assert_eq!(
            tuple_trace_context(tuple),
            Some(job_trace),
            "the tuple carries the current trace context"
        );
    }
    assert_eq!(TaskEntry::from_tuple(&task_tuple), Some(task));
    assert_eq!(ResultEntry::from_tuple(&result_tuple), Some(result));
    assert!(
        task_allocs <= 8 * ROUNDS,
        "TaskEntry::to_tuple exceeded 8 allocs/op: {task_allocs} over {ROUNDS} rounds"
    );
    assert!(
        result_allocs <= 11 * ROUNDS,
        "ResultEntry::to_tuple exceeded 11 allocs/op: {result_allocs} over {ROUNDS} rounds"
    );
    flight::uninstall();
}
