//! Acceptance test for the job profiler: a master and two remote
//! workers, one artificially slowed. `/profile.json` must report a
//! critical path dominated by the slow worker, the verdict
//! `straggler-bound`, and phase totals that reconcile with the job's
//! measured wall-clock within 10% and equal the per-worker attribution
//! in `/cluster.json`; every route answers a whole document. Tail-based
//! retention must keep the slow job's full trace in the flight recorder
//! while a later flood of fast tasks ages everything else out of the
//! rings.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_spaces::cluster::NodeSpec;
use adaptive_spaces::framework::{
    Application, ClusterBuilder, ExecError, FrameworkConfig, TaskEntry, TaskExecutor, TaskSpec,
    WorkerState,
};
use adaptive_spaces::space::Payload;
use adaptive_spaces::telemetry::{flight, registry, Json, TraceAssembler};

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

/// GETs a route and returns its body, which must come with a 200.
fn get(addr: SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    let (head, body) = out.split_once("\r\n\r\n").expect("header block");
    assert!(head.starts_with("HTTP/1.0 200"), "{path}: {head}");
    body.to_owned()
}

/// GETs a JSON route and parses its whole body.
fn get_json(addr: SocketAddr, path: &str) -> Json {
    let body = get(addr, path);
    Json::parse(&body).unwrap_or_else(|e| panic!("{path}: {e}: {body}"))
}

/// The phases `/profile.json` totals, in the names both documents use.
const PHASES: [&str; 4] = ["compute_us", "wait_us", "xfer_us", "write_us"];

/// [`PHASES`] summed over `/cluster.json`'s workers. The observer keeps
/// them for the process's life, so a run's share is a difference of two
/// of these. `compute_us` is a histogram there: its `sum` counts.
fn attributed_phases(addr: SocketAddr) -> [u64; 4] {
    let view = get_json(addr, "/cluster.json");
    let mut totals = [0; 4];
    for (_, worker) in view["workers"].as_object().unwrap_or_default() {
        totals[0] += worker["compute_us"]["sum"].as_u64().unwrap_or(0);
        for (total, phase) in totals.iter_mut().zip(PHASES).skip(1) {
            *total += worker[phase].as_u64().unwrap_or(0);
        }
    }
    totals
}

/// The routes the test body does not read answer whole documents:
/// `/metrics.json` and `/spans` parse, `/healthz` says `ok`, every flight
/// record in `/spans` has a `kind`, and `/metrics` exposes at least the
/// 13 series the quickstart does — each has a reader in
/// `tests/registry_audit.rs`, so fewer means a layer stopped reporting.
fn assert_routes_answer_whole_documents(addr: SocketAddr) {
    let metrics = get(addr, "/metrics");
    let series = metrics.lines().filter(|l| l.starts_with("# TYPE")).count();
    assert!(series >= 13, "{series} series exposed:\n{metrics}");
    let health = get(addr, "/healthz");
    assert!(health.starts_with("ok"), "{health}");
    let counters = get_json(addr, "/metrics.json");
    assert!(counters["counters"].as_object().is_some(), "{counters}");
    let spans = get_json(addr, "/spans");
    let events = spans["events"].as_array().unwrap_or_default();
    assert!(!events.is_empty(), "{spans}");
    assert!(
        events.iter().all(|e| e["kind"].as_str().is_some()),
        "{spans}"
    );
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

    // Both workers Running means both are up and taking before the job
    // starts, so the bounding chain spans the whole run.
    let deadline = Instant::now() + Duration::from_secs(15);
    while cluster
        .workers()
        .iter()
        .any(|w| w.state() != WorkerState::Running)
    {
        assert!(Instant::now() < deadline, "workers were never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Whose result closes the job is a race in the final task handoff
    // (the fast worker can snatch the last task while the slow one is
    // mid-task), so allow a few runs; each rerun of the same job name
    // resets its profile. The expected outcome dominates every run.
    let mut profile = Json::Null;
    let mut attributed = [0; 4];
    let mut ok = false;
    for _attempt in 0..3 {
        app.total = 0;
        let before = attributed_phases(addr);
        let report = cluster.run(&mut app);
        assert!(report.complete, "failures: {:?}", report.failures);
        assert_eq!(report.results_collected, 80);
        assert_eq!(app.total, (1..=80u64).sum::<u64>());

        profile = get_json(addr, "/profile.json");
        let after = attributed_phases(addr);
        attributed = std::array::from_fn(|i| after[i] - before[i]);
        let wall_us = profile["wall_ms"].as_i64().unwrap_or(0) * 1000;
        let total_us = profile["critical_path"]["total_us"].as_i64().unwrap_or(0);
        let reconciles = wall_us > 0 && (total_us - wall_us).abs() <= wall_us / 10;
        if profile["verdict"].as_str() == Some("straggler-bound")
            && profile["critical_path"]["worker"].as_str() == Some("slow-1")
            && reconciles
            && !flight::retained_traces().is_empty()
        {
            ok = true;
            break;
        }
        eprintln!(
            "attempt missed: wall_us={wall_us} total_us={total_us} retained={} — {profile}",
            flight::retained_traces().len()
        );
    }
    assert!(ok, "no run produced the expected profile: {profile}");

    // The winning profile's shape: all 80 results folded in, no errors,
    // a finished job, raw phase totals carrying the compute skew
    // (every task sleeps at least 6 ms), and a non-empty bounding chain
    // attributed to the slow worker.
    assert_eq!(profile["job"].as_str(), Some("skewed"), "{profile}");
    assert_eq!(profile["tasks"].as_u64(), Some(80), "{profile}");
    assert_eq!(profile["errors"].as_u64(), Some(0), "{profile}");
    assert_eq!(profile["finished"].as_bool(), Some(true), "{profile}");
    assert!(
        profile["phases"]["compute_us"].as_u64().unwrap_or(0) >= 480_000,
        "{profile}"
    );
    let segments = profile["critical_path"]["segments"]
        .as_array()
        .unwrap_or_default();
    assert!(
        segments.iter().any(|s| s["task"].as_u64().is_some()),
        "critical path has no task segments: {profile}"
    );
    // The rendered segments are a bounded window of the chain, so their
    // sum never exceeds the chain's total.
    let segment_sum: i64 = segments
        .iter()
        .map(|s| s["duration_us"].as_i64().unwrap_or(0))
        .sum();
    let total_us = profile["critical_path"]["total_us"].as_i64().unwrap_or(0);
    assert!(
        segment_sum <= total_us,
        "{segment_sum} > {total_us}: {profile}"
    );
    // The profile's phase totals fold the same result stream the observer
    // attributes per worker, so for one run they agree exactly.
    for (phase, attributed) in PHASES.iter().zip(attributed) {
        assert_eq!(
            profile["phases"][*phase].as_u64(),
            Some(attributed),
            "{phase}: {profile}"
        );
    }
    assert_routes_answer_whole_documents(addr);
    // The flight occupancy satellite reports through /cluster.json.
    let view = get_json(addr, "/cluster.json");
    assert!(
        view["flight"]["dropped_events"].as_u64().is_some(),
        "{view}"
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
