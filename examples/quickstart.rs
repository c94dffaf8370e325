//! Quickstart: the smallest complete use of the framework.
//!
//! Defines a trivial bag-of-tasks application (sum the squares of 0..N),
//! brings up an adaptive cluster with three simulated worker nodes, runs
//! the job through the master module, and prints the phase timings the
//! paper's evaluation reports.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Crash recovery: `--durable <dir>` journals the tuple space to `<dir>`
//! and checkpoints the master's progress there. Add `--crash-after <n>`
//! to kill the process (exit code 3) after absorbing `n` results, then
//! re-run with the same `--durable <dir>`: the space replays its
//! write-ahead log, the master resumes from its checkpoint, and only the
//! unfinished tasks are re-issued.
//!
//! Observability: set `ACC_OBSERVE=127.0.0.1:9137` (or any bind address)
//! to mount the scrape endpoint, and `--hold-ms <n>` to keep the cluster
//! alive for `n` milliseconds after the run so `/metrics`, `/healthz` and
//! `/spans` can be curled.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_spaces::cluster::NodeSpec;
use adaptive_spaces::framework::{
    task_template, Application, ClusterBuilder, ExecError, FrameworkConfig, Master, ResultEntry,
    TaskEntry, TaskExecutor, TaskSpec,
};
use adaptive_spaces::space::{Payload, Space, SpaceHandle, WalOptions};

/// The application: each task squares one integer; the master sums them.
struct SumSquares {
    n: u64,
    total: u64,
    absorbed: u64,
    /// Simulated crash: exit the process after absorbing this many results.
    crash_after: Option<u64>,
}

impl SumSquares {
    fn new(n: u64) -> SumSquares {
        SumSquares {
            n,
            total: 0,
            absorbed: 0,
            crash_after: None,
        }
    }
}

struct SquareExecutor;

impl TaskExecutor for SquareExecutor {
    fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
        let x: u64 = task.input()?;
        Ok((x * x).to_bytes())
    }
}

impl Application for SumSquares {
    fn job_name(&self) -> String {
        "sum-squares".into()
    }

    fn bundle_name(&self) -> String {
        "sum-squares-worker".into()
    }

    fn plan(&mut self) -> Vec<TaskSpec> {
        (0..self.n).map(|i| TaskSpec::new(i, &i)).collect()
    }

    fn executor(&self) -> Arc<dyn TaskExecutor> {
        Arc::new(SquareExecutor)
    }

    fn absorb(&mut self, _task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
        self.total += u64::from_bytes(payload).map_err(ExecError::Decode)?;
        self.absorbed += 1;
        if self.crash_after.is_some_and(|n| self.absorbed >= n) {
            eprintln!(
                "simulated crash after {} results (re-run with the same --durable dir to resume)",
                self.absorbed
            );
            std::process::exit(3);
        }
        Ok(())
    }

    fn snapshot_partials(&self) -> Option<Vec<u8>> {
        Some(self.total.to_bytes())
    }

    fn restore_partials(&mut self, bytes: &[u8]) -> Result<(), ExecError> {
        self.total = u64::from_bytes(bytes).map_err(ExecError::Decode)?;
        Ok(())
    }
}

/// A minimal in-process worker: takes tasks from the space, executes
/// them, writes results back. Tolerates the space closing (crash).
fn spawn_worker(space: SpaceHandle, job: String, name: String) -> std::thread::JoinHandle<()> {
    let template = task_template(&job);
    std::thread::spawn(move || {
        let exec = SquareExecutor;
        let first = Instant::now();
        while let Ok(Some(tuple)) = space.take(&template, Some(Duration::from_millis(200))) {
            let Some(task) = TaskEntry::from_tuple(&tuple) else {
                continue;
            };
            let t0 = Instant::now();
            let Ok(payload) = exec.execute(&task) else {
                continue;
            };
            let result = ResultEntry {
                job: job.clone(),
                task_id: task.task_id,
                worker: name.clone(),
                payload,
                compute_ms: t0.elapsed().as_secs_f64() * 1e3,
                span_ms: first.elapsed().as_secs_f64() * 1e3,
                timing: Default::default(),
                error: None,
            };
            if space.write(result.to_tuple()).is_err() {
                break;
            }
        }
    })
}

/// The `--durable <dir>` path: journaled space + master checkpoint.
/// Re-running with the same directory resumes an interrupted job.
fn run_durable(dir: &Path, crash_after: Option<u64>) {
    // Opening the directory replays any previous write-ahead log and
    // snapshot, so a fresh start and a post-crash restart are one call.
    let space =
        Space::durable("quickstart-space", dir, WalOptions::default()).expect("open durable space");
    let checkpoint = dir.join("master.ckpt");
    let resuming = checkpoint.exists();

    let mut app = SumSquares::new(64);
    app.crash_after = crash_after;
    println!(
        "{} job '{}' in {}",
        if resuming { "resuming" } else { "starting" },
        app.job_name(),
        dir.display()
    );

    let workers: Vec<_> = (0..2)
        .map(|i| spawn_worker(space.clone(), app.job_name(), format!("worker-{i}")))
        .collect();

    // Checkpoint the cursor + partial sums every 8 absorbed results.
    let master = Master::new(space.clone());
    let report = master
        .run_with_checkpoint(&mut app, &checkpoint, 8)
        .expect("run job");
    for worker in workers {
        let _ = worker.join();
    }

    let expected: u64 = (0..app.n).map(|i| i * i).sum();
    println!("sum of squares 0..{} = {}", app.n, app.total);
    println!("expected                 = {expected}");
    println!("results collected this run: {}", report.results_collected);
    if app.total != expected {
        eprintln!("MISMATCH: recovered total is wrong");
        std::process::exit(1);
    }
}

fn main() {
    // `--durable <dir>` switches to the crash-recovery demo; the default
    // path below runs the adaptive-cluster demo.
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        })
    };
    let crash_after = flag_value("--crash-after").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--crash-after needs a number, got {v}");
            std::process::exit(2);
        })
    });
    let hold_ms: Option<u64> = flag_value("--hold-ms").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--hold-ms needs a number, got {v}");
            std::process::exit(2);
        })
    });
    if let Some(dir) = flag_value("--durable") {
        run_durable(&PathBuf::from(dir), crash_after);
        return;
    }

    // 1. Bring the cluster up: space + network management.
    let config = FrameworkConfig {
        poll_interval: Duration::from_millis(20),
        ..FrameworkConfig::default()
    };
    let mut cluster = ClusterBuilder::new(config)
        .space_name("quickstart-space")
        .build();

    // 2. Install the application (publishes its code bundle) and add
    //    worker nodes. The inference engine will Start them when their
    //    nodes are idle.
    let mut app = SumSquares::new(64);
    cluster.install(&app);
    for i in 0..3 {
        cluster.add_worker(NodeSpec::new(format!("worker-{i}"), 800, 256));
    }

    // 3. Run the job through the master module.
    let report = cluster.run(&mut app);

    println!("sum of squares 0..{} = {}", app.n, app.total);
    println!(
        "expected                 = {}",
        (0..app.n).map(|i| i * i).sum::<u64>()
    );
    println!();
    println!("tasks planned        : {}", report.times.tasks);
    println!("results collected    : {}", report.results_collected);
    println!(
        "task planning time   : {:8.2} ms",
        report.times.task_planning_ms
    );
    println!(
        "task aggregation time: {:8.2} ms",
        report.times.task_aggregation_ms
    );
    println!(
        "max worker time      : {:8.2} ms",
        report.times.max_worker_ms
    );
    println!("parallel time        : {:8.2} ms", report.times.parallel_ms);
    for worker in cluster.workers() {
        println!(
            "  {}: {} tasks, final state {}",
            worker.name(),
            worker.tasks_done(),
            worker.state()
        );
    }
    // 4. Everything above was also recorded in the global telemetry
    //    registry; dump it in text exposition format.
    println!();
    println!("--- telemetry ---");
    print!("{}", adaptive_spaces::telemetry::registry().render_text());

    // 5. `--hold-ms` keeps the cluster (and its ACC_OBSERVE endpoint, if
    //    any) alive so the observability plane can be scraped live.
    if let Some(ms) = hold_ms {
        match cluster.observe_addr() {
            Some(addr) => println!("holding for {ms} ms; observability endpoint at http://{addr}"),
            None => println!("holding for {ms} ms (set ACC_OBSERVE=127.0.0.1:0 for an endpoint)"),
        }
        std::thread::sleep(Duration::from_millis(ms));
    }
    cluster.shutdown();
}
