//! The flight recorder's cost contract, measured with the recorder
//! installed — the point is to prove the instrumentation is cheap enough
//! to leave in hot paths.
//!
//! With the flight recorder on — as every `ClusterBuilder` deployment
//! has it — a recorded event costs about one clock read and a span about
//! two; with it off, an instrumented site costs a relaxed atomic load and
//! a branch. The budgets are ratios to a reference body the same process
//! times in alternate rounds — one `Instant::now()`, a vDSO clock read —
//! so a host that runs everything slower for a while moves both sides
//! alike. `cargo bench` measures, asserts those budgets and exports
//! `BENCH_trace.json` at the repo root, the parent commit's numbers
//! beside this one's; without `--bench` (`cargo test`) each body runs
//! once and nothing is written.

use std::time::Instant;

use acc_telemetry::{event, span, Json};

/// The reference each body is judged against: one `Instant::now()`, the
/// clock read the recorder's TSC stamp replaces.
fn reference() {
    std::hint::black_box(Instant::now());
}

/// A body's cost: the median of 25 rounds of 10 000 calls, each round
/// followed by one of the reference, after one untimed round of each
/// (measured cold, a body read up to 40 % high on the reference host).
/// Returns the body's ns per call and the median of the rounds' ratios
/// to the reference — the shared host's bursts inflate every number by
/// 40 % for seconds at a time, and land on both arms of a round alike.
fn paired_ns(mut f: impl FnMut()) -> (f64, f64) {
    acc_bench::median_ns(1, 10_000, &mut f);
    acc_bench::median_ns(1, 10_000, reference);
    let (mut body_ns, mut ratios) = (Vec::new(), Vec::new());
    for _ in 0..25 {
        let body = acc_bench::median_ns(1, 10_000, &mut f);
        let reference = acc_bench::median_ns(1, 10_000, reference);
        body_ns.push(body);
        ratios.push(body / reference);
    }
    (acc_bench::median(body_ns), acc_bench::median(ratios))
}

/// The `before` side of `BENCH_trace.json`: the same three bodies built
/// against the parent commit (owned `TraceEvent` records in a
/// mutex-guarded `VecDeque`, `HistoryRing::percentile` per task) on the
/// host named in DESIGN.md §6, median of 25 rounds — in the parent's
/// steady state, where the tie at the retention threshold has pinned the
/// job's trace and every evicted record takes the retained-set lock
/// (the first round, before that, reads 115 / 282 / 1950 ns).
const BEFORE_COMMIT: &str = "2a265b0";
const BEFORE_NS: [(&str, f64); 3] = [
    ("flight/event_recorded", 135.0),
    ("flight/span_recorded", 324.0),
    ("flight/task_record_set", 1810.0),
];

/// Budgets the recorder must hold with the recorder on, one u64 and one
/// short text field per record, in clock reads (see [`reference`]).
const EVENT_BUDGET: f64 = 1.5;
const SPAN_BUDGET: f64 = 3.5;
/// Budget of an instrumented site with the recorder off.
const DISABLED_BUDGET: f64 = 0.5;

/// The records one task costs its worker — `worker_loop`'s exact
/// sequence for a task that computes nothing — and the retention
/// decision between them.
fn one_task_record_set(retention: &mut acc_core::TraceRetention, task_id: u64) {
    let _task_span = span!("worker.task", worker = "bench-w0", task_id = task_id);
    event!("worker.task.take", task_id = task_id);
    {
        let _compute = span!("worker.compute", task_id = task_id);
    }
    retention.observe("bench-job", task_id % 3, false, 0);
    drop(_task_span);
    event!("worker.result.write", task_id = task_id);
}

fn recorded_event() {
    event!("bench.flight.budget", task_id = 42u64, worker = "bench-w0");
}

fn recorded_span() {
    let _span = span!("bench.flight.budget", task_id = 42u64, worker = "bench-w0");
}

/// `f`'s cost and its ratio to the reference under `--bench`; otherwise
/// `f` runs once and reads 0. Generic, not `dyn`, so the measured body is
/// inlined as at its call sites.
fn time(measure: bool, mut f: impl FnMut()) -> (f64, f64) {
    if measure {
        paired_ns(f)
    } else {
        f();
        (0.0, 0.0)
    }
}

fn main() {
    let measure = std::env::args().any(|a| a == "--bench");
    acc_telemetry::flight::install();
    // Tasks run inside the job's trace, as the master's context on the
    // task tuple has it.
    let job_trace = acc_telemetry::TraceContext::root();
    let _ctx = job_trace.attach();
    let (event_ns, event) = time(measure, recorded_event);
    let (span_ns, span) = time(measure, recorded_span);
    let mut retention = acc_core::TraceRetention::new(&acc_core::FrameworkConfig::default());
    let mut task_id = 0u64;
    let (task_ns, _) = time(measure, || {
        task_id += 1;
        one_task_record_set(&mut retention, task_id);
    });
    acc_telemetry::flight::uninstall();
    let (disabled_ns, disabled) = time(measure, recorded_event);
    if !measure {
        println!("telemetry: smoke ok");
        return;
    }
    println!(
        "flight budget: event {event_ns:.1} ns ({event:.2} clock reads), span {span_ns:.1} ns \
         ({span:.2}), task record set {task_ns:.1} ns, disabled {disabled_ns:.1} ns \
         ({disabled:.2}) (clock: {})",
        acc_telemetry::clock::source()
    );
    export_trace_json(&[
        ("flight/event_recorded", event_ns),
        ("flight/span_recorded", span_ns),
        ("flight/task_record_set", task_ns),
    ]);
    assert!(
        event <= EVENT_BUDGET,
        "flight-recorded event! took {event:.2} clock reads (budget {EVENT_BUDGET})"
    );
    assert!(
        span <= SPAN_BUDGET,
        "flight-recorded span! took {span:.2} clock reads (budget {SPAN_BUDGET})"
    );
    assert!(
        disabled < DISABLED_BUDGET,
        "disabled event! took {disabled:.2} clock reads (budget {DISABLED_BUDGET})"
    );
}

/// Writes `BENCH_trace.json` at the repo root: the recorded `before`
/// numbers beside this run's `after`, stamped with this run's host and
/// commit.
fn export_trace_json(after: &[(&str, f64)]) {
    let ratio = |label: &str| {
        let of = |rows: &[(&str, f64)]| rows.iter().find(|(l, _)| *l == label).map(|(_, ns)| *ns);
        of(&BEFORE_NS).zip(of(after)).map_or(0.0, |(b, a)| b / a)
    };
    let before = Json::object([
        ("commit", BEFORE_COMMIT.into()),
        ("results_ns", acc_bench::results_ns(&BEFORE_NS)),
    ]);
    let after = Json::object([("results_ns", acc_bench::results_ns(after))]);
    acc_bench::write_bench_record(&acc_bench::bench_record(
        "trace",
        [
            ("before", before),
            ("after", after),
            (
                "event_speedup",
                Json::Float(ratio("flight/event_recorded"), 2),
            ),
            (
                "span_speedup",
                Json::Float(ratio("flight/span_recorded"), 2),
            ),
            (
                "task_record_set_speedup",
                Json::Float(ratio("flight/task_record_set"), 2),
            ),
        ],
    ));
}
