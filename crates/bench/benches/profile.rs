//! Job-profiler benchmarks: what the profiling plane costs where it
//! actually runs.
//!
//! * `record_task` — the master-side fold of one result's `TaskTiming`
//!   into the job's waterfall (the only profiler work on the result
//!   hot path).
//! * `document` — building and writing the `/profile.json` body over a
//!   populated job (route-handler cost, off the hot path).
//! * `retention_decision` — the worker-side tail-retention check: a
//!   percentile over the job's compute history plus the sample record,
//!   on the `SortedWindow` the worker keeps. This runs once per *task
//!   end*, and on a framework-bound job tasks are tens of microseconds,
//!   so it must stay a small fraction of one.
//! * the headline **overhead guard**: the `write_take/64` hot-path
//!   cycle with the profiler folding every result must stay within 5%
//!   of the bare cycle. Measured runs export `BENCH_profile.json` at
//!   the repo root, then assert the gate.
//!
//! Custom harness (no `criterion_group!`): the overhead arm needs the
//! same cycle measured twice under identical conditions, which is
//! clearer with explicit timing loops. Output stays `label: N ns/iter`
//! compatible.

use acc_cluster::{JobProfiler, TaskTiming};
use acc_telemetry::{Json, SortedWindow};
use acc_tuplespace::{Space, Template, Tuple};

fn task_tuple(id: i64) -> Tuple {
    Tuple::build("acc.task")
        .field("job", "bench")
        .field("task_id", id)
        .field("payload", vec![0u8; 64])
        .done()
}

const TIMING: TaskTiming = TaskTiming {
    wait_us: 120,
    xfer_us: 60,
    compute_us: 40_000,
    write_us: 90,
};

fn main() {
    let measure = std::env::args().any(|a| a == "--bench");
    let (rounds, per_round): (usize, u64) = if measure { (25, 2_000) } else { (1, 1) };
    // The flight recorder is on for the whole run, as in any cluster
    // deployment.
    acc_telemetry::flight::install();
    let mut results: Vec<(String, f64)> = Vec::new();

    // ----------------------------------------------------------------
    // record_task: the per-result fold.
    // ----------------------------------------------------------------
    let profiler = JobProfiler::new();
    profiler.job_started("bench");
    let mut rec = profiler.recorder("bench");
    let mut task_id = 0u64;
    let record_ns = acc_bench::median_ns(rounds, per_round, || {
        rec.record_task(task_id, "w-0", &TIMING, false);
        task_id += 1;
    });
    drop(rec);
    results.push(("profile/record_task".into(), record_ns));

    // ----------------------------------------------------------------
    // document: the /profile.json route over a populated job —
    // several workers, chains past the per-worker detail cap.
    // ----------------------------------------------------------------
    let rendered = JobProfiler::new();
    rendered.job_started("bench");
    for id in 0..2_000u64 {
        let worker = format!("w-{}", id % 4);
        rendered.record_task("bench", id, &worker, &TIMING, false);
    }
    rendered.job_finished("bench", 1_500, 900, 80_000);
    let stragglers = vec!["w-3".to_owned()];
    let render_ns = acc_bench::median_ns(rounds, per_round.min(200), || {
        std::hint::black_box(rendered.to_json(&stragglers).to_string());
    });
    results.push(("profile/document".into(), render_ns));

    // ----------------------------------------------------------------
    // retention_decision: percentile over a full history window + record,
    // as the worker runs it at every task end.
    // ----------------------------------------------------------------
    let mut window = SortedWindow::new(256);
    for i in 0..256u64 {
        window.record(35_000 + (i * 37) % 10_000);
    }
    let mut next = 0u64;
    let retention_ns = acc_bench::median_ns(rounds, per_round.min(500), || {
        let threshold = window.percentile(0.95);
        next = (next + 7_919) % 10_000;
        window.record(35_000 + next);
        std::hint::black_box(threshold);
    });
    results.push(("profile/retention_decision".into(), retention_ns));

    // ----------------------------------------------------------------
    // Overhead guard: the write_take/64 cycle bare vs. with the
    // profiler folding every result. The arms alternate round by round
    // and the overhead is the median of the rounds' ratios, so host
    // drift between rounds lands on both arms alike.
    // ----------------------------------------------------------------
    let template = Template::of_type("acc.task");
    let space = Space::new("bench-bare");
    let mut i = 0i64;
    let mut bare = || {
        space.write(task_tuple(i)).unwrap();
        i += 1;
        std::hint::black_box(space.take_if_exists(&template).unwrap().unwrap());
    };
    let guarded_space = Space::new("bench-profiled");
    let guarded = JobProfiler::new();
    guarded.job_started("bench");
    // The master's hot path records through a buffered `JobRecorder`,
    // not `record_task` on the shared profiler — measure what it runs.
    let mut recorder = guarded.recorder("bench");
    let mut j = 0i64;
    let mut profiled = || {
        guarded_space.write(task_tuple(j)).unwrap();
        std::hint::black_box(guarded_space.take_if_exists(&template).unwrap().unwrap());
        recorder.record_task(j as u64, "w-0", &TIMING, false);
        j += 1;
    };
    let (mut bare_ns, mut profiled_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let b = acc_bench::median_ns(1, per_round, &mut bare);
        let p = acc_bench::median_ns(1, per_round, &mut profiled);
        bare_ns.push(b);
        profiled_ns.push(p);
        ratios.push(p / b);
    }
    let overhead_pct = (acc_bench::median(ratios) - 1.0) * 100.0;
    results.push((
        "profile/write_take_64_bare".into(),
        acc_bench::median(bare_ns),
    ));
    results.push((
        "profile/write_take_64_profiled".into(),
        acc_bench::median(profiled_ns),
    ));

    for (label, ns) in &results {
        if measure {
            println!("{label}: {ns:.0} ns/iter");
        } else {
            println!("{label}: ok (test mode, 1 iter)");
        }
    }

    if !measure {
        println!("profile: smoke ok");
        return;
    }

    println!("profile/write_take_64_overhead: {overhead_pct:+.1}%");
    acc_bench::write_bench_record(&acc_bench::bench_record(
        "profile",
        [
            ("results_ns", acc_bench::results_ns(&results)),
            ("write_take_64_overhead_pct", Json::Float(overhead_pct, 2)),
        ],
    ));

    // Budgets — only on measured runs (a single test-mode iteration
    // would be noise), and after the record is written: a miss is a
    // measurement too.
    assert!(
        overhead_pct <= 5.0,
        "profiler overhead on write_take/64 is {overhead_pct:+.1}% (gate 5%)"
    );
    assert!(
        retention_ns < 500.0,
        "retention decision took {retention_ns:.0} ns (budget 500 ns per task end)"
    );
}
