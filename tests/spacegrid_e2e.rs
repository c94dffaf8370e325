//! Multi-process space-grid E2E: a real master, four real shard server
//! processes, two real worker processes that find the grid from shard 0's
//! address alone — and one shard killed in the middle of the job.
//!
//! The degradation contract under test: killing a shard mid-job must
//! cost at most the tasks queued on it (which the master re-plans from
//! its checkpoint), never a worker (workers route around the dead shard
//! and keep computing), and the job must still complete with correct
//! results.
//!
//! Child processes are this same test binary re-invoked with
//! `--ignored --exact <role test>` plus `ACC_GRID_*` environment
//! variables — no helper binaries to build or install.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_spaces::cluster::TaskTiming;
use adaptive_spaces::framework::{
    task_template, Application, ExecError, Master, ResultEntry, TaskEntry, TaskExecutor, TaskSpec,
};
use adaptive_spaces::space::{Payload, Space, SpaceError, SpaceServer, TupleStore};
use adaptive_spaces::spacegrid::PartitionedSpace;

const JOB: &str = "gridjob";
const TASKS: u64 = 80;

// ---------------------------------------------------------------------
// Child roles. Each is an `#[ignore]`d test the parent re-invokes; the
// env-var guard makes a bare `cargo test -- --ignored` run skip them.
// ---------------------------------------------------------------------

/// Shard role: hosts one space server on an ephemeral port, announces
/// the address on stdout, then serves until the parent kills it.
#[test]
#[ignore = "child process role for grid_job_survives_shard_kill"]
fn grid_child_shard() {
    if std::env::var("ACC_GRID_ROLE").as_deref() != Ok("shard") {
        return;
    }
    let space = Space::new("grid-shard");
    let server = SpaceServer::spawn(space, "127.0.0.1:0").expect("bind shard server");
    println!("SHARD_ADDR {}", server.addr());
    std::io::stdout().flush().unwrap();
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// Worker role: discovers the grid from the shard 0 address in
/// `ACC_GRID_LOOKUP` (the lookup entry the master published), then
/// loops take-task / compute / write-result until the grid closes.
/// Transient grid faults (a dying shard) are ridden out, not fatal —
/// that is the "no worker deaths" half of the contract.
#[test]
#[ignore = "child process role for grid_job_survives_shard_kill"]
fn grid_child_worker() {
    if std::env::var("ACC_GRID_ROLE").as_deref() != Ok("worker") {
        return;
    }
    let name = std::env::var("ACC_GRID_WORKER").unwrap_or_else(|_| "worker".into());
    let lookup = std::env::var("ACC_GRID_LOOKUP")
        .expect("ACC_GRID_LOOKUP set for worker role")
        .parse()
        .expect("shard 0 address");
    let grid = PartitionedSpace::discover(lookup).expect("discover worker grid");
    assert_eq!(grid.shard_count(), 4, "the lookup entry lists every shard");
    println!("WORKER_READY");
    std::io::stdout().flush().unwrap();
    let template = task_template(JOB);
    loop {
        match grid.take(&template, Some(Duration::from_millis(200))) {
            Ok(Some(tuple)) => {
                let task = TaskEntry::from_tuple(&tuple).expect("task tuple");
                let x: u64 = task.input().expect("u64 input");
                std::thread::sleep(Duration::from_millis(3)); // pretend to work
                let result = ResultEntry {
                    job: task.job.clone(),
                    task_id: task.task_id,
                    worker: name.clone(),
                    payload: (x * x).to_bytes(),
                    compute_ms: 3.0,
                    span_ms: 0.0,
                    error: None,
                    timing: TaskTiming::default(),
                };
                // A result must not be lost to a shard dying between the
                // take and the write: retry until a (possibly rerouted)
                // write lands or the grid closes.
                loop {
                    match grid.write(result.to_tuple()) {
                        Ok(_) => break,
                        Err(SpaceError::Closed) => return,
                        Err(_) => std::thread::sleep(Duration::from_millis(50)),
                    }
                }
            }
            Ok(None) => {}
            Err(SpaceError::Closed) => return,
            // e.g. every shard momentarily unreachable: back off, retry.
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

// ---------------------------------------------------------------------
// Parent-side machinery.
// ---------------------------------------------------------------------

/// A child process killed on drop, so a failing assertion can't leak
/// shard/worker processes past the test run.
struct ChildGuard {
    child: Child,
}

impl ChildGuard {
    fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Re-invokes this test binary as a child role and waits for its
/// announcement line (`prefix ...`), returning the guard and the line's
/// payload.
fn spawn_role(
    role_test: &str,
    role: &str,
    envs: &[(&str, String)],
    announce_prefix: &str,
) -> (ChildGuard, String) {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.args(["--ignored", "--exact", role_test, "--nocapture"])
        .env("ACC_GRID_ROLE", role)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (key, value) in envs {
        cmd.env(key, value);
    }
    let mut child = cmd.spawn().expect("spawn child role");
    let stdout = child.stdout.take().expect("piped stdout");
    let guard = ChildGuard { child };
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut reader = BufReader::new(stdout);
    loop {
        assert!(
            Instant::now() < deadline,
            "{role_test} never announced '{announce_prefix}'"
        );
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read child stdout");
        assert!(n > 0, "{role_test} exited before announcing");
        // libtest's own progress output ("test x ...") shares the line
        // with the role's announcement, so match anywhere in the line.
        if let Some(at) = line.find(announce_prefix) {
            let rest = line[at + announce_prefix.len()..].trim();
            let rest = rest.to_owned();
            // Detach the reader so the child never blocks on a full pipe.
            std::thread::spawn(move || {
                let mut sink = String::new();
                while let Ok(n) = reader.read_line(&mut sink) {
                    if n == 0 {
                        break;
                    }
                    sink.clear();
                }
            });
            return (guard, rest);
        }
    }
}

/// Sums squares of 0..n, exactly like the in-process framework tests —
/// but the executor never runs here: real worker processes compute.
struct SumSquares {
    n: u64,
    total: u64,
}

impl Application for SumSquares {
    fn job_name(&self) -> String {
        JOB.into()
    }
    fn bundle_name(&self) -> String {
        "gridjob-bundle".into()
    }
    fn bundle_kb(&self) -> usize {
        4
    }
    fn plan(&mut self) -> Vec<TaskSpec> {
        (0..self.n).map(|i| TaskSpec::new(i, &i)).collect()
    }
    fn executor(&self) -> Arc<dyn TaskExecutor> {
        struct Unused;
        impl TaskExecutor for Unused {
            fn execute(
                &self,
                _task: &adaptive_spaces::framework::TaskEntry,
            ) -> Result<Vec<u8>, ExecError> {
                unreachable!("executed by worker processes, not in-process")
            }
        }
        Arc::new(Unused)
    }
    fn absorb(&mut self, _task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
        self.total += u64::from_bytes(payload).map_err(ExecError::Decode)?;
        Ok(())
    }
}

#[test]
fn grid_job_survives_shard_kill() {
    // Four shard server processes.
    let mut shards = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..4 {
        let (guard, addr) = spawn_role("grid_child_shard", "shard", &[], "SHARD_ADDR");
        addrs.push(addr);
        shards.push(guard);
    }

    // The master dispatches through its own grid client, and publishes
    // the shard list in shard 0 for the workers to find. Lost tasks are
    // re-planned from the checkpoint, so a shard dying with queued tasks
    // costs a retry round, not the job.
    let socket_addrs: Vec<std::net::SocketAddr> =
        addrs.iter().map(|a| a.parse().unwrap()).collect();
    let grid = Arc::new(PartitionedSpace::connect(&socket_addrs).expect("master grid"));
    grid.publish().expect("shard 0 takes the lookup entry");

    // Two worker processes, each given shard 0's address alone.
    let mut workers = Vec::new();
    for i in 0..2 {
        let (guard, _) = spawn_role(
            "grid_child_worker",
            "worker",
            &[
                ("ACC_GRID_LOOKUP", addrs[0].clone()),
                ("ACC_GRID_WORKER", format!("pw{i}")),
            ],
            "WORKER_READY",
        );
        workers.push(guard);
    }

    let mut master = Master::new(grid.clone());
    master.result_timeout = Duration::from_secs(2);
    let checkpoint = std::env::temp_dir().join(format!("acc-grid-e2e-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&checkpoint);

    // Kill one shard shortly after dispatch begins — mid-job, while its
    // queue still holds tasks with high probability.
    let victim = shards.pop().expect("four shards spawned");
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        drop(victim); // ChildGuard::drop kills the process
    });

    let mut app = SumSquares { n: TASKS, total: 0 };
    let mut report = None;
    for _attempt in 0..5 {
        let r = master
            .run_with_checkpoint(&mut app, &checkpoint, 8)
            .expect("grid stays serviceable for the master");
        let complete = r.complete;
        report = Some(r);
        if complete {
            break;
        }
    }
    killer.join().unwrap();
    let report = report.expect("at least one attempt ran");
    assert!(
        report.complete,
        "job never completed after retries: {report:?}"
    );

    // Correctness: every task result arrived exactly once.
    let expected: u64 = (0..TASKS).map(|i| i * i).sum();
    assert_eq!(app.total, expected, "wrong aggregate after shard kill");

    // Degradation posture: the dead shard is struck out, the rest serve.
    assert_eq!(grid.shard_count(), 4);
    assert!(grid.healthy_count() >= 3, "survivors must stay healthy");

    // No worker deaths: both worker processes are still running, then
    // exit cleanly once the grid closes.
    for worker in &mut workers {
        assert!(worker.alive(), "worker process died during the job");
    }
    grid.close();
    let deadline = Instant::now() + Duration::from_secs(10);
    for worker in &mut workers {
        loop {
            match worker.child.try_wait().expect("wait worker") {
                Some(status) => {
                    assert!(status.success(), "worker exited uncleanly: {status}");
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "worker never exited after close");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }
    // Leftover task tuples for the killed shard's re-planned round may
    // exist; the checkpoint was removed by the completed run.
    assert!(!checkpoint.exists(), "completed run must remove checkpoint");
}
