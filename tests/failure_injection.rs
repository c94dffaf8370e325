//! Failure injection: what happens when executors fail, workers vanish
//! mid-task, payloads are corrupt, or results never come.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_spaces::cluster::NodeSpec;
use adaptive_spaces::framework::task::result_template;
use adaptive_spaces::framework::ResultEntry;
use adaptive_spaces::framework::{
    duplex_pair, task_template, Application, BundleServer, ClusterBuilder, CodeBundle, ExecError,
    ExecutorRegistry, FrameworkConfig, Master, RuleBaseServer, Signal, TaskEntry, TaskExecutor,
    TaskSpec, WorkerConfig, WorkerRuntime,
};
use adaptive_spaces::space::{
    Batch, EntryId, Lease, Payload, RemoteSpace, Space, SpaceResult, SpaceServer, StoreHandle,
    Template, Tuple, TupleStore,
};

fn fast_config() -> FrameworkConfig {
    FrameworkConfig {
        poll_interval: Duration::from_millis(10),
        class_load_base: Duration::from_millis(2),
        class_load_per_kb: Duration::ZERO,
        task_poll_timeout: Duration::from_millis(10),
        ..FrameworkConfig::default()
    }
}

/// Fails the first `failures` executions, then succeeds — a flaky worker
/// library.
struct FlakyApp {
    n: u64,
    outputs: u64,
    failures: Arc<AtomicU64>,
}

struct FlakyExec {
    remaining_failures: Arc<AtomicU64>,
}

impl TaskExecutor for FlakyExec {
    fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
        let left = self.remaining_failures.load(Ordering::SeqCst);
        if left > 0
            && self
                .remaining_failures
                .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            return Err(ExecError::App("injected failure".into()));
        }
        let x: u64 = task.input()?;
        Ok(x.to_bytes())
    }
}

impl Application for FlakyApp {
    fn job_name(&self) -> String {
        "flaky".into()
    }
    fn bundle_name(&self) -> String {
        "flaky-worker".into()
    }
    fn plan(&mut self) -> Vec<TaskSpec> {
        (0..self.n).map(|i| TaskSpec::new(i, &i)).collect()
    }
    fn executor(&self) -> Arc<dyn TaskExecutor> {
        Arc::new(FlakyExec {
            remaining_failures: self.failures.clone(),
        })
    }
    fn absorb(&mut self, _task_id: u64, _payload: &[u8]) -> Result<(), ExecError> {
        self.outputs += 1;
        Ok(())
    }
}

/// The master's store, counting every result tuple it takes by task id:
/// the writes the space saw, before the master's dedupe by task id.
struct ResultCounter {
    inner: StoreHandle,
    taken: parking_lot::Mutex<std::collections::BTreeMap<u64, u32>>,
}

impl ResultCounter {
    fn new(inner: StoreHandle) -> Arc<ResultCounter> {
        Arc::new(ResultCounter {
            inner,
            taken: Default::default(),
        })
    }

    fn note(&self, tuples: &[Tuple]) {
        let mut taken = self.taken.lock();
        for result in tuples.iter().filter_map(ResultEntry::from_tuple) {
            *taken.entry(result.task_id).or_default() += 1;
        }
    }

    /// Asserts each of tasks `0..n` had its result written exactly once:
    /// taken once by the master, and no copy left in the space.
    fn assert_each_once(&self, n: u64, job: &str) {
        let taken = self.taken.lock().clone();
        let expected: std::collections::BTreeMap<u64, u32> = (0..n).map(|id| (id, 1)).collect();
        assert_eq!(taken, expected, "result writes per task id");
        assert_eq!(self.inner.count(&result_template(job)).unwrap(), 0);
    }
}

impl TupleStore for ResultCounter {
    fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
        self.inner.write_leased(tuple, lease)
    }
    fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
        self.inner.write_all_leased(tuples, lease)
    }
    fn read(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        self.inner.read(t, timeout)
    }
    fn take(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        let taken = self.inner.take(t, timeout)?;
        self.note(taken.as_slice());
        Ok(taken)
    }
    fn take_up_to(&self, t: &Template, max: usize, d: Option<Duration>) -> SpaceResult<Vec<Tuple>> {
        let taken = self.inner.take_up_to(t, max, d)?;
        self.note(&taken);
        Ok(taken)
    }
    fn take_all(&self, t: &Template) -> SpaceResult<Vec<Tuple>> {
        let taken = self.inner.take_all(t)?;
        self.note(&taken);
        Ok(taken)
    }
    fn count(&self, t: &Template) -> SpaceResult<usize> {
        self.inner.count(t)
    }
    fn close(&self) {
        self.inner.close()
    }
    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
}

#[test]
fn failed_executions_requeue_the_task() {
    // 5 injected failures across 20 tasks: every failed task goes back to
    // the space and is retried until it succeeds, so the run completes.
    let failures = Arc::new(AtomicU64::new(5));
    let mut app = FlakyApp {
        n: 20,
        outputs: 0,
        failures: failures.clone(),
    };
    let mut cluster = ClusterBuilder::new(fast_config()).build();
    cluster.install(&app);
    cluster.add_worker(NodeSpec::new("w1", 800, 256));
    cluster.add_worker(NodeSpec::new("w2", 800, 256));
    let report = cluster.run(&mut app);
    assert!(report.complete, "all tasks eventually done");
    assert_eq!(app.outputs, 20);
    assert_eq!(failures.load(Ordering::SeqCst), 0, "failures were consumed");
    cluster.shutdown();
}

#[test]
fn master_reports_malformed_results_without_stalling() {
    // An impostor writes a result entry whose payload is not decodable by
    // the application; the master records the failure and keeps going.
    struct StrictApp {
        good: u64,
    }
    impl Application for StrictApp {
        fn job_name(&self) -> String {
            "strict".into()
        }
        fn bundle_name(&self) -> String {
            "strict-worker".into()
        }
        fn plan(&mut self) -> Vec<TaskSpec> {
            vec![TaskSpec::new(0, &1u64), TaskSpec::new(1, &2u64)]
        }
        fn executor(&self) -> Arc<dyn TaskExecutor> {
            unreachable!("no workers in this test")
        }
        fn absorb(&mut self, _id: u64, payload: &[u8]) -> Result<(), ExecError> {
            let _: u64 = u64::from_bytes(payload).map_err(ExecError::Decode)?;
            self.good += 1;
            Ok(())
        }
    }

    let space = Space::new("strict");
    // Seed one good and one corrupt result before the master runs.
    for (id, payload) in [(0u64, 7u64.to_bytes()), (1, vec![1, 2, 3])] {
        let result = adaptive_spaces::framework::ResultEntry {
            job: "strict".into(),
            task_id: id,
            worker: "impostor".into(),
            payload,
            compute_ms: 1.0,
            span_ms: 1.0,
            timing: Default::default(),
            error: None,
        };
        space.write(result.to_tuple()).unwrap();
    }
    let mut app = StrictApp { good: 0 };
    let store: StoreHandle = space;
    let master = Master::new(store);
    let report = master.run(&mut app).unwrap();
    assert_eq!(app.good, 1);
    assert_eq!(report.results_collected, 1);
    assert_eq!(report.failures.len(), 1);
    assert!(!report.complete);
}

#[test]
fn poison_task_terminates_with_error_result() {
    // One task always fails; after max_task_retries the worker writes a
    // terminal error result, so the run finishes (incomplete) instead of
    // hanging or looping forever.
    struct PoisonApp {
        good: u64,
    }
    struct PoisonExec;
    impl TaskExecutor for PoisonExec {
        fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
            let x: u64 = task.input()?;
            if x == 3 {
                return Err(ExecError::App("always fails".into()));
            }
            Ok(x.to_bytes())
        }
    }
    impl Application for PoisonApp {
        fn job_name(&self) -> String {
            "poison".into()
        }
        fn bundle_name(&self) -> String {
            "poison-worker".into()
        }
        fn plan(&mut self) -> Vec<TaskSpec> {
            (0..6).map(|i| TaskSpec::new(i, &i)).collect()
        }
        fn executor(&self) -> Arc<dyn TaskExecutor> {
            Arc::new(PoisonExec)
        }
        fn absorb(&mut self, _: u64, _: &[u8]) -> Result<(), ExecError> {
            self.good += 1;
            Ok(())
        }
    }

    let mut app = PoisonApp { good: 0 };
    let mut cluster = ClusterBuilder::new(fast_config()).build();
    cluster.install(&app);
    cluster.add_worker(NodeSpec::new("w1", 800, 256));
    let report = cluster.run(&mut app);
    assert!(!report.complete, "the poison task cannot succeed");
    assert_eq!(report.results_collected, 5);
    assert_eq!(app.good, 5);
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].0, 3);
    // Nothing left circulating in the space.
    assert_eq!(cluster.space().expect("hosted space").len(), 0);
    cluster.shutdown();
}

#[test]
fn master_timeout_leaves_tasks_for_later() {
    struct NoWorkers {
        n: u64,
    }
    impl Application for NoWorkers {
        fn job_name(&self) -> String {
            "orphan".into()
        }
        fn bundle_name(&self) -> String {
            "orphan-worker".into()
        }
        fn plan(&mut self) -> Vec<TaskSpec> {
            (0..self.n).map(|i| TaskSpec::new(i, &i)).collect()
        }
        fn executor(&self) -> Arc<dyn TaskExecutor> {
            unreachable!()
        }
        fn absorb(&mut self, _: u64, _: &[u8]) -> Result<(), ExecError> {
            Ok(())
        }
    }
    let space = Space::new("orphan");
    let store: StoreHandle = space.clone();
    let mut master = Master::new(store);
    master.result_timeout = Duration::from_millis(30);
    let report = master.run(&mut NoWorkers { n: 4 }).unwrap();
    assert!(!report.complete);
    assert_eq!(report.results_collected, 0);
    // Tasks survive in the space: a late worker could still pick them up.
    assert_eq!(space.count(&task_template("orphan")), 4);
}

#[test]
fn crashed_holder_under_txn_loses_nothing() {
    // A "worker" takes a task under a transaction and dies (drops the txn
    // without committing). The task reappears and a healthy taker gets it.
    let space = Space::new("crashy");
    space
        .write(
            adaptive_spaces::space::Tuple::build("acc.task")
                .field("job", "j")
                .field("task_id", 0i64)
                .field("payload", vec![1u8])
                .done(),
        )
        .unwrap();
    {
        let txn = space.txn().unwrap();
        let taken = txn.take_if_exists(&Template::of_type("acc.task")).unwrap();
        assert!(taken.is_some());
        // Simulated crash: txn dropped here without commit.
    }
    let recovered = space
        .take_if_exists(&Template::of_type("acc.task"))
        .unwrap();
    assert!(recovered.is_some(), "task restored after holder crash");
}

#[test]
fn workers_survive_transient_connection_drops_and_finish_the_job() {
    // Remote workers whose TCP connections are all severed (a restarting
    // or load-shedding space server) must ride out the drop — the proxy
    // reconnects — and still complete the job, instead of treating the
    // transport error as "cluster shutting down" and exiting for good.
    let mut app = FlakyApp {
        n: 30,
        outputs: 0,
        failures: Arc::new(AtomicU64::new(0)),
    };
    let mut cluster = ClusterBuilder::new(fast_config()).build();
    cluster.install(&app);
    cluster.serve_space().unwrap();
    cluster
        .add_remote_worker(NodeSpec::new("rw1", 800, 256))
        .unwrap();
    cluster
        .add_remote_worker(NodeSpec::new("rw2", 800, 256))
        .unwrap();
    // Let the workers connect, start, and begin polling — then cut every
    // connection out from under them, twice for good measure.
    std::thread::sleep(Duration::from_millis(150));
    cluster.space_server().unwrap().disconnect_all();
    std::thread::sleep(Duration::from_millis(50));
    cluster.space_server().unwrap().disconnect_all();
    let counter = ResultCounter::new(cluster.store());
    let report = Master::new(counter.clone()).run(&mut app).unwrap();
    assert!(report.complete, "job must finish despite the dropped links");
    assert_eq!(app.outputs, 30);
    counter.assert_each_once(30, "flaky");
    cluster.shutdown();
}

#[test]
fn worker_dies_when_space_server_disappears() {
    // A remote worker whose space server goes away exits its loop rather
    // than spinning; the cluster can still be shut down cleanly.
    let mut app = FlakyApp {
        n: 0,
        outputs: 0,
        failures: Arc::new(AtomicU64::new(0)),
    };
    let mut cluster = ClusterBuilder::new(fast_config()).build();
    cluster.install(&app);
    let _addr = cluster.serve_space().unwrap();
    cluster
        .add_remote_worker(NodeSpec::new("doomed", 800, 256))
        .unwrap();
    // Run the (empty) job, then tear down; join must not hang.
    let report = cluster.run(&mut app);
    assert!(report.complete);
    cluster.shutdown();
}

/// A worker's proxy to the space whose connection is cut exactly once:
/// between the request frames of the first commit that carries several
/// tuples — on its own or paired with the refill take — and their
/// response.
struct CutDuringFlush {
    remote: RemoteSpace,
    server: Arc<SpaceServer>,
    cuts: AtomicU64,
}

impl CutDuringFlush {
    /// Called with the frames sent and no answer read: the server may or
    /// may not have served them when the cut lands.
    fn cut_once(&self, several: bool) {
        if several && self.cuts.fetch_add(1, Ordering::SeqCst) == 0 {
            self.server.disconnect_all();
        }
    }
}

impl TupleStore for CutDuringFlush {
    fn commit_batch(&self, batch: Batch) -> SpaceResult<()> {
        let several = batch.tuples.len() > 1;
        let pending = self.remote.begin_commit_batch(batch)?;
        self.cut_once(several);
        pending.finish().map(drop)
    }
    fn take_batch(
        &self,
        done: Batch,
        t: &Template,
        max: usize,
        d: Option<Duration>,
    ) -> (SpaceResult<()>, SpaceResult<Batch>) {
        let several = done.tuples.len() > 1;
        let pending = self.remote.begin_take_batch(done, t, max, d);
        self.cut_once(several);
        pending.finish()
    }
    fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
        self.remote.write_leased(tuple, lease)
    }
    fn read(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        self.remote.read(t, timeout)
    }
    fn take(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        self.remote.take(t, timeout)
    }
    fn take_up_to(&self, t: &Template, max: usize, d: Option<Duration>) -> SpaceResult<Vec<Tuple>> {
        self.remote.take_up_to(t, max, d)
    }
    fn count(&self, t: &Template) -> SpaceResult<usize> {
        self.remote.count(t)
    }
    fn close(&self) {
        self.remote.close()
    }
    fn is_closed(&self) -> bool {
        self.remote.is_closed()
    }
}

#[test]
fn connection_cut_during_a_result_flush_still_completes_the_job_exactly_once() {
    // The worker's coalesced commit — the first half of its refill pair —
    // loses its connection after its frames went out and before the
    // answers came back. If the server had not applied it, the end of the
    // connection aborted the batch's transaction and its tasks are back in
    // the space; if it had, the results are there and only the answer was
    // lost. Either way `RemoteSpace` reconnects and resends the pair, and
    // the resent commit names a transaction the new connection never
    // opened: it is refused and applies nothing. The worker drops those
    // results and carries on. Each result reaches the space once.
    struct CountingApp {
        absorbed: Vec<u32>,
    }
    struct Echo;
    impl TaskExecutor for Echo {
        fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
            Ok(task.payload.clone())
        }
    }
    impl Application for CountingApp {
        fn job_name(&self) -> String {
            "cut".into()
        }
        fn bundle_name(&self) -> String {
            "cut-worker".into()
        }
        fn plan(&mut self) -> Vec<TaskSpec> {
            (0..self.absorbed.len() as u64)
                .map(|i| TaskSpec::new(i, &i))
                .collect()
        }
        fn executor(&self) -> Arc<dyn TaskExecutor> {
            Arc::new(Echo)
        }
        fn absorb(&mut self, task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
            assert_eq!(u64::from_bytes(payload).unwrap(), task_id);
            self.absorbed[task_id as usize] += 1;
            Ok(())
        }
    }

    let space = Space::new("cut");
    let server = Arc::new(SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap());
    let store = Arc::new(CutDuringFlush {
        remote: RemoteSpace::connect(server.addr()).unwrap(),
        server: server.clone(),
        cuts: AtomicU64::new(0),
    });

    // One worker, assembled by hand so it can be given that proxy.
    let mut app = CountingApp {
        absorbed: vec![0; 40],
    };
    let rule_base = RuleBaseServer::new(Arc::new(|_, _| {}));
    let bundle_server = BundleServer::new(Duration::from_millis(1), Duration::ZERO);
    bundle_server.publish(CodeBundle::synthetic(app.bundle_name(), 1, 1));
    let registry = ExecutorRegistry::new();
    registry.register(app.bundle_name(), app.executor());
    let (client, server_side) = duplex_pair();
    let acceptor = rule_base.clone();
    let accept = std::thread::spawn(move || {
        acceptor
            .accept(server_side, Duration::from_secs(5))
            .unwrap()
    });
    let worker = WorkerRuntime::spawn(WorkerConfig {
        name: "w-cut".into(),
        space: store.clone(),
        bundle_server,
        registry,
        duplex: client,
        bundle_name: app.bundle_name(),
        job: app.job_name(),
        node_load: None,
        epoch: Instant::now(),
        framework: fast_config(),
    })
    .unwrap();
    assert_eq!(accept.join().unwrap(), worker.id());
    rule_base.send_signal(worker.id(), Signal::Start);

    let master_store: StoreHandle = Arc::new(RemoteSpace::connect(server.addr()).unwrap());
    let counter = ResultCounter::new(master_store);
    let mut master = Master::new(counter.clone());
    master.result_timeout = Duration::from_secs(10);
    let report = master.run(&mut app).unwrap();
    assert!(report.complete, "failures: {:?}", report.failures);
    assert_eq!(report.results_collected, 40);
    assert!(
        app.absorbed.iter().all(|&n| n == 1),
        "every task id absorbed exactly once: {:?}",
        app.absorbed
    );
    assert!(
        store.cuts.load(Ordering::SeqCst) >= 1,
        "the job must have flushed at least one coalesced batch"
    );
    counter.assert_each_once(40, "cut");
    worker.shutdown();
}
