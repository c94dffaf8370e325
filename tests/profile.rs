//! Acceptance test for the job profiler: a master and two remote
//! workers, one artificially slowed. `/profile.json` must report a
//! critical path dominated by the slow worker, the verdict
//! `straggler-bound`, and phase totals that reconcile with the job's
//! measured wall-clock within 10%. Tail-based retention must keep the
//! slow job's full trace in the flight recorder while a later flood of
//! fast tasks ages everything else out of the rings.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_spaces::cluster::NodeSpec;
use adaptive_spaces::framework::{
    Application, ClusterBuilder, ExecError, FrameworkConfig, TaskEntry, TaskExecutor, TaskSpec,
};
use adaptive_spaces::space::Payload;
use adaptive_spaces::telemetry::{flight, registry, TraceAssembler};

/// Inputs at or above this are "filler" tasks: they return immediately
/// instead of sleeping. Remote workers are bound to the job installed
/// when they joined, so both phases of the test run under one job name
/// and the task input selects the behaviour.
const FILLER_BASE: u64 = 1 << 32;

/// Adds one to each input. Ordinary tasks sleep — much longer on any
/// worker whose thread name marks it slow (worker threads are named
/// `acc-worker-<node>`), so the node name selects the behaviour — a
/// degraded machine running the same binary. Filler tasks skip the
/// sleep entirely.
struct SkewedApp {
    n: u64,
    filler: bool,
    total: u64,
}

impl Application for SkewedApp {
    fn job_name(&self) -> String {
        "skewed".into()
    }
    fn bundle_name(&self) -> String {
        "skewed-bundle".into()
    }
    fn bundle_kb(&self) -> usize {
        1
    }
    fn plan(&mut self) -> Vec<TaskSpec> {
        let base = if self.filler { FILLER_BASE } else { 0 };
        (0..self.n).map(|i| TaskSpec::new(i, &(base + i))).collect()
    }
    fn executor(&self) -> Arc<dyn TaskExecutor> {
        struct Exec;
        impl TaskExecutor for Exec {
            fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
                let x: u64 = task.input()?;
                if x < FILLER_BASE {
                    let slow = std::thread::current()
                        .name()
                        .is_some_and(|n| n.contains("slow"));
                    // 88, not a round 80: 74 tasks at ~6.5 ms and 6 at 80 ms
                    // both come to ~481 ms, so which worker closed the job
                    // (the critical path the test asserts on) was a coin
                    // toss some processes lost three times running. With
                    // 88 the slow worker's sixth task ends ~50 ms after
                    // the fast worker has run out of tasks.
                    std::thread::sleep(Duration::from_millis(if slow { 88 } else { 6 }));
                }
                Ok((x + 1).to_bytes())
            }
        }
        Arc::new(Exec)
    }
    fn absorb(&mut self, _task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
        self.total += u64::from_bytes(payload).map_err(ExecError::Decode)? % FILLER_BASE;
        Ok(())
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

/// Pulls `"key":<int>` out of the JSON following `anchor` — enough of a
/// parser for the fields this test asserts on.
fn json_int_after(json: &str, anchor: &str, key: &str) -> Option<i64> {
    let at = json.find(anchor)?;
    let rest = &json[at..];
    let kat = rest.find(&format!("\"{key}\":"))?;
    let num = &rest[kat + key.len() + 3..];
    let end = num
        .find(|c: char| !c.is_ascii_digit() && c != '-')
        .unwrap_or(num.len());
    num[..end].parse().ok()
}

#[test]
fn profile_names_the_straggler_and_retention_outlives_ring_overflow() {
    flight::install();
    flight::clear();
    flight::clear_retained();

    let config = FrameworkConfig {
        poll_interval: Duration::from_millis(10),
        task_poll_timeout: Duration::from_millis(10),
        class_load_base: Duration::from_millis(1),
        class_load_per_kb: Duration::ZERO,
        task_prefetch: 1,
        metrics_interval: Duration::from_millis(25),
        // Keep the straggler detector out of the way: if it flags the
        // slow worker the monitor excludes it mid-run and the fast
        // worker bounds the job instead. The profiler's own peer-ratio
        // rule (~13x mean compute) must name the straggler unaided.
        // Off, not merely lenient: the detector judges a worker by its
        // whole compute history, and once the filler phase starts the
        // two workers' histories (6 slow tasks vs 74) mix 88 ms and
        // microsecond samples in very different proportions.
        straggler_k: f64::INFINITY,
        straggler_min_samples: 3,
        // Deep enough that the slow job's compute samples still anchor
        // the workers' retention threshold while the filler phase floods
        // the same per-job history ring with near-zero samples.
        history_depth: 2048,
        ..FrameworkConfig::default()
    };
    let mut cluster = ClusterBuilder::new(config)
        .space_name("profiled-space")
        .observe("127.0.0.1:0")
        .build();
    let addr = cluster.observe_addr().expect("observer endpoint mounted");
    let mut app = SkewedApp {
        n: 80,
        filler: false,
        total: 0,
    };
    cluster.install(&app);
    cluster
        .add_remote_worker(NodeSpec::new("fast-0", 800, 256))
        .expect("fast worker connects");
    cluster
        .add_remote_worker(NodeSpec::new("slow-1", 800, 256))
        .expect("slow worker connects");

    // Both workers federating heartbeats means both are up and taking
    // before the job starts, so the bounding chain spans the whole run.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let json = http_get(addr, "/cluster.json");
        let fast_hist = json_int_after(&json, "\"fast-0\"", "history_samples").unwrap_or(0);
        let slow_hist = json_int_after(&json, "\"slow-1\"", "history_samples").unwrap_or(0);
        if fast_hist >= 3 && slow_hist >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "workers never federated 3 heartbeats: {json}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Whose result closes the job is a race in the final task handoff
    // (the fast worker can snatch the last task while the slow one is
    // mid-task), so allow a few runs; each rerun of the same job name
    // resets its profile. The expected outcome dominates every run.
    let mut profile_json = String::new();
    let mut ok = false;
    for _attempt in 0..3 {
        app.total = 0;
        let report = cluster.run(&mut app);
        assert!(report.complete, "failures: {:?}", report.failures);
        assert_eq!(report.results_collected, 80);
        assert_eq!(app.total, (1..=80u64).sum::<u64>());

        profile_json = http_get(addr, "/profile.json");
        let wall_us = json_int_after(&profile_json, "\"skewed\"", "wall_ms").unwrap_or(0) * 1000;
        let total_us = json_int_after(&profile_json, "critical_path", "total_us").unwrap_or(0);
        let reconciles = wall_us > 0 && (total_us - wall_us).abs() <= wall_us / 10;
        if profile_json.contains("\"verdict\":\"straggler-bound\"")
            && profile_json.contains("\"critical_path\":{\"worker\":\"slow-1\"")
            && reconciles
            && !flight::retained_traces().is_empty()
        {
            ok = true;
            break;
        }
        eprintln!(
            "attempt missed: wall_us={wall_us} total_us={total_us} retained={} — {profile_json}",
            flight::retained_traces().len()
        );
    }
    assert!(ok, "no run produced the expected profile: {profile_json}");

    // The winning profile's shape: all 80 results folded in, no errors,
    // a finished job, raw phase totals carrying the compute skew
    // (every task sleeps at least 6 ms), and a non-empty bounding chain
    // attributed to the slow worker.
    assert!(
        json_int_after(&profile_json, "\"skewed\"", "tasks") == Some(80),
        "{profile_json}"
    );
    assert!(
        json_int_after(&profile_json, "\"skewed\"", "errors") == Some(0),
        "{profile_json}"
    );
    assert!(profile_json.contains("\"finished\":true"), "{profile_json}");
    assert!(
        json_int_after(&profile_json, "phases", "compute_us").unwrap_or(0) >= 480_000,
        "{profile_json}"
    );
    assert!(
        profile_json.contains("\"task\":"),
        "critical path has no task segments: {profile_json}"
    );
    // The human waterfall names the same bound.
    let text = http_get(addr, "/profile");
    assert!(text.contains("verdict: straggler-bound"), "{text}");
    assert!(text.contains("critical path (worker slow-1"), "{text}");
    // The flight occupancy satellite reports through /cluster.json.
    let cluster_json = http_get(addr, "/cluster.json");
    assert!(
        cluster_json.contains("\"flight\":{\"dropped_events\":"),
        "{cluster_json}"
    );

    // Tail retention: the slow job's trace ids are pinned. Flood the
    // workers with trivial tasks until their flight rings overflow; the
    // pinned records must move to the kept buffer while unpinned filler
    // spans are dropped.
    let retained_before = flight::retained_traces();
    let dropped_before = registry().counter("telemetry.flight.dropped_events").get();
    app.n = 900;
    app.filler = true;
    app.total = 0;
    let report = cluster.run(&mut app);
    assert!(report.complete, "failures: {:?}", report.failures);
    assert_eq!(report.results_collected, 900);
    assert_eq!(app.total, (1..=900u64).sum::<u64>());

    let dropped_after = registry().counter("telemetry.flight.dropped_events").get();
    assert!(
        dropped_after > dropped_before,
        "filler flood never overflowed a flight ring ({dropped_before} -> {dropped_after})"
    );
    assert!(
        flight::occupancy().iter().any(|o| o.kept > 0),
        "no thread moved retained records to its kept buffer: {:?}",
        flight::occupancy()
    );
    // A pinned slow-job trace still assembles with full span detail —
    // including a worker.compute span that carries the 88 ms straggler
    // task — even though the rings have since turned over completely.
    let mut asm = TraceAssembler::new();
    asm.add_flight_json("test-process", &flight::dump_json());
    let slow_span_survives = retained_before.iter().any(|&trace_id| {
        asm.spans(trace_id)
            .iter()
            .any(|s| s.name == "worker.compute" && s.elapsed_us >= 60_000)
    });
    assert!(
        slow_span_survives,
        "no retained trace kept a slow worker.compute span; retained={retained_before:?}"
    );

    cluster.shutdown();
}
