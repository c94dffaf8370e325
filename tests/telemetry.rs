//! Telemetry integration: a real master/worker round leaves the expected
//! span tree in the flight recorder, and one cluster run populates the
//! global metrics registry with series from every layer.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use adaptive_spaces::cluster::NodeSpec;
use adaptive_spaces::framework::{
    Application, ClusterBuilder, ExecError, FrameworkConfig, TaskEntry, TaskExecutor, TaskSpec,
};
use adaptive_spaces::space::Payload;
use adaptive_spaces::telemetry::{flight, registry, Json, TraceAssembler};

/// The flight recorder is process-global; tests that turn it on or read
/// it serialise here so recordings don't interleave.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

struct Doubler {
    n: u64,
    total: u64,
}

struct DoubleExecutor;

impl TaskExecutor for DoubleExecutor {
    fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
        let x: u64 = task.input()?;
        Ok((2 * x).to_bytes())
    }
}

impl Application for Doubler {
    fn job_name(&self) -> String {
        "doubler".into()
    }
    fn bundle_name(&self) -> String {
        "doubler-worker".into()
    }
    fn plan(&mut self) -> Vec<TaskSpec> {
        (0..self.n).map(|i| TaskSpec::new(i, &i)).collect()
    }
    fn executor(&self) -> Arc<dyn TaskExecutor> {
        Arc::new(DoubleExecutor)
    }
    fn absorb(&mut self, _task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
        self.total += u64::from_bytes(payload).map_err(ExecError::Decode)?;
        Ok(())
    }
}

fn fast_config() -> FrameworkConfig {
    FrameworkConfig {
        poll_interval: Duration::from_millis(10),
        class_load_base: Duration::from_millis(2),
        class_load_per_kb: Duration::ZERO,
        task_poll_timeout: Duration::from_millis(10),
        ..FrameworkConfig::default()
    }
}

fn run_job(tasks: u64, workers: usize) -> Doubler {
    let mut app = Doubler { n: tasks, total: 0 };
    let mut cluster = ClusterBuilder::new(fast_config()).build();
    cluster.install(&app);
    for i in 0..workers {
        cluster.add_worker(NodeSpec::new(format!("w{i:02}"), 800, 256));
    }
    let report = cluster.run(&mut app);
    assert_eq!(report.results_collected, tasks as usize);
    cluster.shutdown();
    app
}

/// The record objects of a flight dump, one per line, in dump order:
/// thread by thread, each thread's oldest first.
fn dump_records(dump: &str) -> Vec<Json> {
    dump.lines()
        .filter_map(|line| Json::parse(line.trim_end_matches(',')).ok())
        .filter(|record| record["kind"] != Json::Null)
        .collect()
}

#[test]
fn master_worker_round_emits_expected_span_tree() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    flight::install();
    flight::clear();
    let app = run_job(8, 2);
    let dump = flight::dump_json();
    flight::uninstall();
    flight::clear();
    assert_eq!(app.total, (0..8).map(|i| 2 * i).sum::<u64>());

    let records = dump_records(&dump);
    let named = |name: &'static str| {
        records
            .iter()
            .enumerate()
            .filter(move |(_, r)| r["name"].as_str() == Some(name))
    };
    let count = |name: &'static str| named(name).count();
    let t_us = |at: usize| records[at]["t_us"].as_u64().expect("t_us");
    let thread = |at: usize| records[at]["thread"].as_str().expect("thread");
    // Record order within a thread, the trace clock across threads.
    let before = |a: usize, b: usize| {
        if thread(a) == thread(b) {
            a < b
        } else {
            t_us(a) < t_us(b)
        }
    };
    let earliest = |name: &'static str| {
        named(name)
            .map(|(at, _)| at)
            .min_by_key(|at| t_us(*at))
            .unwrap_or_else(|| panic!("no {name:?} record in the dump:\n{dump}"))
    };
    let first_on = |name: &'static str, on: &str| {
        named(name)
            .map(|(at, _)| at)
            .find(|at| thread(*at) == on)
            .unwrap_or_else(|| panic!("no {name:?} record on {on}"))
    };

    // Every span and event the pipeline emits is in the recording.
    for name in [
        "master.planning",
        "worker.task",
        "worker.task.take",
        "worker.compute",
        "worker.result.write",
        "master.aggregation",
        "worker.transition",
    ] {
        assert!(count(name) > 0, "no {name:?} record in the dump:\n{dump}");
    }

    // The whole pipeline, in order: planning → task take → compute →
    // result write → aggregation.
    let planning = earliest("master.planning");
    let take = earliest("worker.task.take");
    let worker = thread(take);
    let compute = first_on("worker.compute", worker);
    let write = first_on("worker.result.write", worker);
    let aggregation_end = named("master.aggregation").next_back().unwrap().0;
    assert!(
        before(planning, take),
        "tasks are taken only after planning starts"
    );
    assert!(
        before(take, compute),
        "compute happens inside the taken task"
    );
    assert!(
        before(compute, write),
        "the result is written after computing"
    );
    assert!(
        before(write, aggregation_end),
        "aggregation outlives the first result"
    );

    // Every task produced exactly one take and one result write.
    assert_eq!(count("worker.task.take"), 8);
    assert_eq!(count("worker.result.write"), 8);

    // Spans nest: worker.compute's parent is the worker.task span.
    let compute_enter = &records[compute];
    assert_eq!(compute_enter["kind"].as_str(), Some("enter"));
    assert!(
        named("worker.task").any(|(at, task)| task["kind"].as_str() == Some("enter")
            && task["span"] == compute_enter["parent"]
            && thread(at) == worker),
        "worker.compute's parent is not a worker.task span:\n{dump}"
    );

    // Workers start via a Start signal, which is traced as a transition.
    assert!(count("worker.transition") >= 2, "one Start per worker");

    // Span exits carry elapsed time.
    let exit = &records[aggregation_end];
    assert_eq!(exit["kind"].as_str(), Some("exit"));
    assert!(
        exit["elapsed_us"].as_u64().is_some(),
        "aggregation exit: {exit}"
    );
}

#[test]
fn cluster_run_populates_registry_across_layers() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    run_job(16, 2);

    let snapshot = registry().snapshot();
    let mut names: Vec<&str> = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys())
        .copied()
        .collect();
    names.sort_unstable();
    names.dedup();
    assert!(
        names.len() >= 13,
        "expected at least 13 distinct series, got {}: {names:?}",
        names.len()
    );
    for prefix in ["space.", "worker.", "monitor."] {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "no {prefix}* series in {names:?}"
        );
    }

    // Core counters moved with the run.
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    assert!(counter("space.write.count") >= 16);
    assert!(counter("space.take.count") >= 16);
    assert!(counter("monitor.samples") >= 1);
    // Registered by every deployment, whether or not they moved.
    for name in [
        "worker.transport_strikes",
        "telemetry.flight.dropped_events",
    ] {
        assert!(
            snapshot.counters.contains_key(name),
            "no {name} in {names:?}"
        );
    }
}

/// One raw HTTP/1.0 GET; returns the body (everything past the header
/// block).
fn http_get_body(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.0 200"), "got: {out:.200}");
    out.split_once("\r\n\r\n")
        .expect("header block")
        .1
        .to_owned()
}

/// The tentpole end to end: a master driving a TCP-served space, a worker
/// reaching the same space over its own TCP connection, the flight
/// recorder on, and `/spans` scraped from both the space server's
/// observability endpoint and a second locally mounted one. The scraped
/// dumps must assemble into a single trace whose spans cross the wire —
/// master.dispatch → remote.take → space.serve — and reach the worker's
/// compute through the task tuple's trace-context field.
#[test]
fn one_trace_crosses_wire_space_and_worker() {
    use adaptive_spaces::framework::{
        BundleServer, CodeBundle, ExecutorRegistry, Master, RuleBaseServer, Signal, WorkerConfig,
        WorkerRuntime,
    };
    use adaptive_spaces::space::remote::{ServerOptions, SpaceServer};
    use adaptive_spaces::space::{RemoteSpace, Space, StoreHandle};

    let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    flight::install();
    flight::clear();

    // Server side: the space, served over TCP with its scrape endpoint.
    let space = Space::new("wire-trace");
    let server = SpaceServer::spawn_observed(
        space.clone(),
        "127.0.0.1:0",
        ServerOptions::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let space_addr = server.addr();
    let server_observe = server.observe_addr().unwrap();

    // Worker side: a runtime whose space access goes through the proxy.
    let rulebase = RuleBaseServer::new(Arc::new(|_, _| {}));
    let bundle_server = BundleServer::new(Duration::from_millis(1), Duration::ZERO);
    bundle_server.publish(CodeBundle::synthetic("doubler-worker", 1, 1));
    let executors = ExecutorRegistry::new();
    executors.register("doubler-worker", Arc::new(DoubleExecutor));
    let (client_side, server_side) = adaptive_spaces::framework::duplex_pair();
    let rb = rulebase.clone();
    let accept =
        std::thread::spawn(move || rb.accept(server_side, Duration::from_secs(5)).unwrap());
    let worker_store: StoreHandle = Arc::new(RemoteSpace::connect(space_addr).unwrap());
    let worker = WorkerRuntime::spawn(WorkerConfig {
        name: "remote-w".into(),
        space: worker_store,
        bundle_server,
        registry: executors,
        duplex: client_side,
        bundle_name: "doubler-worker".into(),
        job: "doubler".into(),
        node_load: None,
        epoch: std::time::Instant::now(),
        framework: FrameworkConfig {
            task_poll_timeout: Duration::from_millis(10),
            ..FrameworkConfig::default()
        },
    })
    .unwrap();
    let worker_id = accept.join().unwrap();
    rulebase.send_signal(worker_id, Signal::Start);

    // Master side: its own TCP connection to the same space.
    let master_store: StoreHandle = Arc::new(RemoteSpace::connect(space_addr).unwrap());
    let master = Master::new(master_store);
    let mut app = Doubler { n: 4, total: 0 };
    let report = master.run(&mut app).unwrap();
    assert!(report.complete, "failures: {:?}", report.failures);
    assert_eq!(app.total, (0..4).map(|i| 2 * i).sum::<u64>());

    // Scrape /spans from both sides of the deployment, plus the metrics
    // and health routes while a live cluster is up.
    let local_observe = adaptive_spaces::telemetry::serve(
        "127.0.0.1:0",
        adaptive_spaces::telemetry::HealthChecks::new(),
    )
    .unwrap();
    let server_spans = http_get_body(server_observe, "/spans");
    let local_spans = http_get_body(local_observe.addr(), "/spans");
    let metrics = http_get_body(server_observe, "/metrics");
    assert!(metrics.contains("process.uptime_seconds"), "{metrics:.300}");
    let health = http_get_body(server_observe, "/healthz");
    assert!(health.starts_with("ok"), "{health}");

    // Assemble the dumps into one tree.
    let mut asm = TraceAssembler::new();
    asm.add_flight_json("server", &server_spans);
    asm.add_flight_json("local", &local_spans);
    let dispatch = asm.find("master.dispatch").expect("master.dispatch span");
    let trace_id = dispatch.trace_id;
    let dispatch_span = dispatch.span_id;
    let in_trace = asm.spans(trace_id);

    // The master's wire calls join its trace with dispatch as an ancestor.
    let take = in_trace
        .iter()
        .find(|s| s.name == "remote.take")
        .expect("remote.take in the master's trace");
    assert!(
        asm.ancestry(take.span_id)
            .iter()
            .any(|s| s.span_id == dispatch_span),
        "master.dispatch not an ancestor of remote.take:\n{}",
        asm.render_tree(trace_id)
    );
    // The server adopted the wire context for its serve spans.
    assert!(
        in_trace.iter().any(|s| s.name == "space.serve"),
        "no space.serve span in trace:\n{}",
        asm.render_tree(trace_id)
    );
    // The worker adopted the tuple-borne context for its compute.
    assert!(
        in_trace.iter().any(|s| s.name == "worker.compute"),
        "no worker.compute span in trace:\n{}",
        asm.render_tree(trace_id)
    );
    // And the trace genuinely crosses execution contexts.
    let mut threads: Vec<&str> = in_trace.iter().map(|s| s.thread.as_str()).collect();
    threads.sort_unstable();
    threads.dedup();
    assert!(
        threads.len() >= 2,
        "expected spans from at least 2 threads, got {threads:?}:\n{}",
        asm.render_tree(trace_id)
    );

    worker.shutdown();
    drop(server);
    flight::uninstall();
    flight::clear();
}

/// A panicking thread leaves a parseable `flight-<pid>.json` behind.
#[test]
fn panic_dumps_parseable_flight_recording() {
    let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    flight::install();
    flight::clear();
    let dir = std::env::temp_dir().join(format!("acc-flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    flight::set_dump_dir(&dir);
    flight::install_panic_hook();

    let crash = std::thread::Builder::new()
        .name("doomed".into())
        .spawn(|| {
            let _span = adaptive_spaces::telemetry::span!("doomed.final_descent");
            adaptive_spaces::telemetry::event!("doomed.mayday", altitude = 0);
            panic!("controlled flight into terrain");
        })
        .unwrap();
    assert!(crash.join().is_err(), "thread must panic");

    let dump_path = dir.join(format!("flight-{}.json", std::process::id()));
    let dump = std::fs::read_to_string(&dump_path).expect("panic hook wrote the flight file");
    let mut asm = TraceAssembler::new();
    let parsed = asm.add_flight_json("crashed", &dump);
    assert!(parsed > 0, "no events parsed from: {dump:.400}");
    let span = asm
        .find("doomed.final_descent")
        .expect("the doomed span is in the recording");
    assert_eq!(span.thread, "doomed");

    let _ = std::fs::remove_dir_all(&dir);
    flight::uninstall();
    flight::clear();
}
