//! Full adaptation demo (paper §5.2.2): the framework backs off a worker
//! whose machine gets busy, and reclaims it when the machine is idle
//! again — without losing any work.
//!
//! One worker node is hit first by load simulator 2 (100% CPU → Stop) and
//! then by load simulator 1 (30–50% CPU → Pause), while a second node
//! stays idle and keeps computing. The example prints the signal log with
//! reaction times — the data of Figures 9(b)–11(b).
//!
//! Run with: `cargo run --release --example adaptive_cluster`

use std::sync::Arc;
use std::time::Duration;

use adaptive_spaces::cluster::{LoadGenerator, LoadTrace, NodeSpec};
use adaptive_spaces::framework::{
    Application, ClusterBuilder, ExecError, FrameworkConfig, TaskEntry, TaskExecutor, TaskSpec,
};
use adaptive_spaces::space::Payload;

/// A slow-ish task so signals visibly interleave with computation.
struct BusyWork {
    tasks: u64,
    done: u64,
}

struct SpinExecutor;

impl TaskExecutor for SpinExecutor {
    fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
        let x: u64 = task.input()?;
        std::thread::sleep(Duration::from_millis(15));
        Ok(x.to_bytes())
    }
}

impl Application for BusyWork {
    fn job_name(&self) -> String {
        "busy-work".into()
    }
    fn bundle_name(&self) -> String {
        "busy-work-worker".into()
    }
    fn plan(&mut self) -> Vec<TaskSpec> {
        (0..self.tasks).map(|i| TaskSpec::new(i, &i)).collect()
    }
    fn executor(&self) -> Arc<dyn TaskExecutor> {
        Arc::new(SpinExecutor)
    }
    fn absorb(&mut self, _task_id: u64, _payload: &[u8]) -> Result<(), ExecError> {
        self.done += 1;
        Ok(())
    }
}

fn main() {
    let config = FrameworkConfig {
        poll_interval: Duration::from_millis(15),
        ..FrameworkConfig::default()
    };
    let mut cluster = ClusterBuilder::new(config).build();
    let mut app = BusyWork {
        tasks: 150,
        done: 0,
    };
    cluster.install(&app);
    cluster.add_worker(NodeSpec::new("victim", 800, 256));
    cluster.add_worker(NodeSpec::new("steady", 800, 256));
    cluster.start_usage_sampler(Duration::from_millis(20));

    // Script the interference against the "victim" node while the job
    // runs: 300 ms of 100% CPU (simulator 2), a quiet gap, then 300 ms in
    // the 30–50% band (simulator 1).
    let victim = cluster.workers()[0].node.clone();
    let script = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let hog = LoadGenerator::start(&victim, LoadTrace::simulator2(300));
        std::thread::sleep(Duration::from_millis(400));
        hog.stop();
        std::thread::sleep(Duration::from_millis(200));
        let moderate = LoadGenerator::start(&victim, LoadTrace::simulator1(300));
        std::thread::sleep(Duration::from_millis(400));
        moderate.stop();
    });

    let report = cluster.run(&mut app);
    script.join().unwrap();

    println!(
        "job complete: {}/{} results, parallel time {:.1} ms",
        report.results_collected, report.times.tasks, report.times.parallel_ms
    );
    println!();
    for worker in cluster.workers() {
        println!(
            "{} ({} tasks) signal log:",
            worker.name(),
            worker.tasks_done()
        );
        for entry in worker.signal_log() {
            println!(
                "  {:>6} at {:6} ms -> {:<7} (reaction {:3} ms)",
                entry.signal.to_string(),
                entry.client_signal_ms,
                entry.new_state.to_string(),
                entry.reaction_ms()
            );
        }
    }
    println!();
    println!(
        "no work was lost: every one of the {} tasks completed.",
        report.times.tasks
    );
    cluster.shutdown();

    // The run above fed latency histograms and counters from every layer
    // (space, master, workers, monitor) into the global
    // registry; dump the whole thing in text exposition format.
    println!();
    println!("--- telemetry ---");
    print!("{}", adaptive_spaces::telemetry::registry().render_text());
}
