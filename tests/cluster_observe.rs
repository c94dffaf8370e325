//! Acceptance test for the cluster view: a master and two remote workers,
//! `/cluster.json` reporting both with load history from the monitor's SNMP
//! polls and results and compute histograms from the result tuples, and an
//! artificially slowed worker flagged as a straggler and excluded through
//! the load the observer hands the monitor.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_spaces::cluster::NodeSpec;
use adaptive_spaces::framework::{
    Application, ClusterBuilder, ExecError, FrameworkConfig, Signal, TaskEntry, TaskExecutor,
    TaskSpec, WorkerState,
};
use adaptive_spaces::space::Payload;
use adaptive_spaces::telemetry::Json;

/// Adds one to each input. The executor sleeps per task, much longer on
/// any worker whose thread name marks it slow — worker threads are named
/// `acc-worker-<node>`, so the node name selects the behaviour and the
/// same executor binary serves both workers, like a degraded machine
/// running identical code.
struct SkewedApp {
    n: u64,
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
        (0..self.n).map(|i| TaskSpec::new(i, &i)).collect()
    }
    fn executor(&self) -> Arc<dyn TaskExecutor> {
        struct Exec;
        impl TaskExecutor for Exec {
            fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
                let slow = std::thread::current()
                    .name()
                    .is_some_and(|n| n.contains("slow"));
                std::thread::sleep(Duration::from_millis(if slow { 60 } else { 8 }));
                let x: u64 = task.input()?;
                Ok((x + 1).to_bytes())
            }
        }
        Arc::new(Exec)
    }
    fn absorb(&mut self, _task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
        self.total += u64::from_bytes(payload).map_err(ExecError::Decode)?;
        Ok(())
    }
}

/// GETs a JSON route and parses its body.
fn get_json(addr: std::net::SocketAddr, path: &str) -> Json {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    let (_, body) = out.split_once("\r\n\r\n").expect("header block");
    Json::parse(body).unwrap_or_else(|e| panic!("{path}: {e}: {body}"))
}

#[test]
fn federation_reports_both_workers_and_excludes_the_straggler() {
    let config = FrameworkConfig {
        poll_interval: Duration::from_millis(10),
        task_poll_timeout: Duration::from_millis(10),
        class_load_base: Duration::from_millis(1),
        class_load_per_kb: Duration::ZERO,
        // The slow worker computes at ~7.5x the fast one, so 3x the
        // median flags it with plenty of margin — while a scheduling
        // hiccup on the fast worker (p99 a few ms over its own median)
        // stays well under the threshold and can't stop both workers.
        straggler_k: 3.0,
        straggler_min_samples: 3,
        ..FrameworkConfig::default()
    };
    let mut cluster = ClusterBuilder::new(config)
        .space_name("observed-space")
        .observe("127.0.0.1:0")
        .build();
    let addr = cluster.observe_addr().expect("observer endpoint mounted");
    let mut app = SkewedApp { n: 150, total: 0 };
    cluster.install(&app);
    let fast = cluster
        .add_remote_worker(NodeSpec::new("fast-0", 800, 256))
        .expect("fast worker connects");
    let slow = cluster
        .add_remote_worker(NodeSpec::new("slow-1", 800, 256))
        .expect("slow worker connects");

    // Both workers Running before the job starts.
    let deadline = Instant::now() + Duration::from_secs(15);
    while cluster
        .workers()
        .iter()
        .any(|w| w.state() != WorkerState::Running)
    {
        assert!(Instant::now() < deadline, "workers were never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    let report = cluster.run(&mut app);
    assert!(report.complete, "failures: {:?}", report.failures);
    assert_eq!(report.results_collected, 150);
    assert_eq!(app.total, (1..=150u64).sum::<u64>());

    // Task-level attribution: both workers carry a non-empty compute
    // histogram, and the results attributed to them are the job's.
    let json = get_json(addr, "/cluster.json");
    let mut tasks_done = 0;
    for worker in ["fast-0", "slow-1"] {
        let row = &json["workers"][worker];
        let count = row["compute_us"]["count"].as_u64().unwrap_or(0);
        assert!(count > 0, "{worker} has no compute samples: {json}");
        tasks_done += row["tasks_done"].as_u64().unwrap_or(0);
        // SNMP polls fill the load history.
        let history = row["history_samples"].as_u64().unwrap_or(0);
        assert!(history >= 3, "{worker} has {history} samples: {json}");
    }
    assert_eq!(tasks_done, 150, "{json}");
    // The framework-load column is the node's own `set_framework` share,
    // as the SNMP agent exports it: the fast worker idles Running at a
    // small non-zero load.
    let fast_load = cluster.workers()[0].node.load();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let json = get_json(addr, "/cluster.json");
        let fw_last = json["workers"]["fast-0"]["framework_load"]["last"].as_i64();
        let own = fast_load.framework_effective() as i64;
        if own > 0 && fw_last == Some(own) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "framework_load.last {fw_last:?} never matched the node's {own}: {json}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The slowed worker's compute p99 is far beyond 2x the cluster
    // median: it must be flagged.
    let observer = cluster.cluster_observer();
    assert_eq!(observer.stragglers(), vec!["slow-1".to_owned()]);
    assert_eq!(
        json["stragglers"],
        ["slow-1"].into_iter().collect(),
        "{json}"
    );

    // ... and excluded: the monitor keeps polling, the observer hands it
    // the straggler's load as saturated, and the inference engine orders
    // a Stop with the straggler flag on the decision.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let excluded = cluster
            .monitor()
            .decisions()
            .iter()
            .any(|d| d.worker == slow && d.straggler && d.signal == Some(Signal::Stop));
        if excluded {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "straggler was never stopped: {:?}",
            cluster.monitor().decisions()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The fast worker is never flagged.
    assert!(cluster
        .monitor()
        .decisions()
        .iter()
        .all(|d| d.worker != fast || !d.straggler));

    cluster.shutdown();
}
