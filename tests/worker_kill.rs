//! A worker process dies holding a batch: it takes every task of a job
//! under a transaction of the space server's and is SIGKILLed before it
//! commits. The server sees the dead process's socket close, aborts the
//! transaction, and the tasks are back in the space for a healthy worker:
//! the job finishes exactly once, long before the master's
//! `result_timeout` would have given up on it.
//!
//! The dying worker is this test binary re-invoked with `--ignored
//! --exact worker_kill_child` plus `ACC_KILL_*` environment variables, as
//! in `tests/spacegrid_e2e.rs`.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_spaces::framework::task::result_template;
use adaptive_spaces::framework::{
    task_template, Application, ExecError, Master, ResultEntry, TaskEntry, TaskExecutor, TaskSpec,
};
use adaptive_spaces::space::{
    Batch, Payload, RemoteSpace, Space, SpaceServer, StoreHandle, TupleStore,
};

const JOB: &str = "killjob";
const TASKS: u64 = 8;

/// The dying worker: takes a batch of every task under a transaction,
/// says how many, and waits to be killed without ever committing.
#[test]
#[ignore = "child process role for a_worker_killed_holding_a_batch_loses_none_of_it"]
fn worker_kill_child() {
    if std::env::var("ACC_KILL_ROLE").as_deref() != Ok("worker") {
        return;
    }
    let addr = std::env::var("ACC_KILL_ADDR").unwrap().parse().unwrap();
    let remote = RemoteSpace::connect(addr).unwrap();
    let template = task_template(JOB);
    let mut held = 0;
    while held < TASKS as usize {
        let (committed, taken) =
            remote.take_batch(Batch::default(), &template, TASKS as usize, None);
        committed.unwrap();
        let batch = taken.unwrap();
        held += batch.tuples.len();
        std::mem::forget(batch); // held until the process dies
    }
    println!("TOOK {held}");
    std::io::stdout().flush().unwrap();
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

struct SumSquares {
    total: u64,
    absorbed: Vec<u32>,
}

impl Application for SumSquares {
    fn job_name(&self) -> String {
        JOB.into()
    }
    fn bundle_name(&self) -> String {
        "killjob-bundle".into()
    }
    fn plan(&mut self) -> Vec<TaskSpec> {
        (0..TASKS).map(|i| TaskSpec::new(i, &i)).collect()
    }
    fn executor(&self) -> Arc<dyn TaskExecutor> {
        struct Unused;
        impl TaskExecutor for Unused {
            fn execute(&self, _: &TaskEntry) -> Result<Vec<u8>, ExecError> {
                unreachable!("computed by the test's own worker loop")
            }
        }
        Arc::new(Unused)
    }
    fn absorb(&mut self, task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
        self.total += u64::from_bytes(payload).map_err(ExecError::Decode)?;
        self.absorbed[task_id as usize] += 1;
        Ok(())
    }
}

/// A healthy worker: batches taken under transactions, squared, and
/// committed with their results, until `stop`.
fn healthy_worker(remote: RemoteSpace, stop: Arc<std::sync::atomic::AtomicBool>) {
    let template = task_template(JOB);
    let mut done = Batch::default();
    while !stop.load(std::sync::atomic::Ordering::SeqCst) {
        let (committed, taken) =
            remote.take_batch(done, &template, 4, Some(Duration::from_millis(20)));
        committed.unwrap();
        let mut batch = taken.unwrap();
        let results = batch.tuples.iter().map(|tuple| {
            let task = TaskEntry::from_tuple(tuple).unwrap();
            let x: u64 = task.input().unwrap();
            ResultEntry {
                job: task.job.clone(),
                task_id: task.task_id,
                worker: "healthy".into(),
                payload: (x * x).to_bytes(),
                compute_ms: 0.0,
                span_ms: 0.0,
                error: None,
                timing: Default::default(),
            }
            .into_tuple()
        });
        batch.tuples = results.collect();
        done = batch;
    }
    remote.commit_batch(done).unwrap();
}

#[test]
fn a_worker_killed_holding_a_batch_loses_none_of_it() {
    let space = Space::new("kill");
    let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
    let store: StoreHandle = space.clone();
    let master = Master::new(store);
    let result_timeout = master.result_timeout;
    let job = std::thread::spawn(move || {
        let mut app = SumSquares {
            total: 0,
            absorbed: vec![0; TASKS as usize],
        };
        let report = master.run(&mut app).unwrap();
        (report, app)
    });

    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(exe)
        .args(["--ignored", "--exact", "worker_kill_child", "--nocapture"])
        .env("ACC_KILL_ROLE", "worker")
        .env("ACC_KILL_ADDR", server.addr().to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let took = loop {
        let line = lines
            .next()
            .expect("the child announces its batch")
            .unwrap();
        if let Some(at) = line.find("TOOK ") {
            break line[at + 5..].trim().parse::<u64>().unwrap();
        }
    };
    assert_eq!(took, TASKS);
    assert_eq!(space.count(&task_template(JOB)), 0, "the batch is held");

    child.kill().unwrap(); // SIGKILL: no commit, no clean close
    let killed = Instant::now();
    child.wait().unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let healthy = {
        let (remote, stop) = (RemoteSpace::connect(server.addr()).unwrap(), stop.clone());
        std::thread::spawn(move || healthy_worker(remote, stop))
    };
    let (report, app) = job.join().unwrap();
    let took = killed.elapsed();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    healthy.join().unwrap();
    println!("job finished {:.3} s after the kill", took.as_secs_f64());
    assert!(report.complete, "failures: {:?}", report.failures);
    assert_eq!(app.total, (0..TASKS).map(|i| i * i).sum::<u64>());
    assert!(app.absorbed.iter().all(|&n| n == 1), "{:?}", app.absorbed);
    assert!(
        took < result_timeout / 6,
        "{took:?}: the batch came back by the abort, not by a timeout"
    );
    assert_eq!(space.count(&task_template(JOB)), 0);
    assert_eq!(space.count(&result_template(JOB)), 0, "no second result");
}
