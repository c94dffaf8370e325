//! The trace context as entry metadata, over a real `SpaceServer`: a task
//! written inside a span on one connection is taken on another carrying
//! that span's context, a worker's `worker.task` span joins the writer's
//! trace, and the result the writer takes back carries no context.
//!
//! One test, so no sibling test switches the flight recorder off while
//! this one records.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_spaces::framework::{
    duplex_pair, result_template, task_template, BundleServer, CodeBundle, ExecError,
    ExecutorRegistry, FrameworkConfig, ResultEntry, RuleBaseServer, Signal, TaskEntry,
    TaskExecutor, WorkerConfig, WorkerRuntime,
};
use adaptive_spaces::space::remote::SpaceServer;
use adaptive_spaces::space::{RemoteSpace, Space, StoreHandle};
use adaptive_spaces::telemetry::{flight, span, TraceAssembler, TraceContext};

const JOB: &str = "trace-metadata";

struct Echo;

impl TaskExecutor for Echo {
    fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
        Ok(task.payload.clone())
    }
}

/// A worker for [`JOB`], started, taking through `space`.
fn start_worker(space: StoreHandle) -> WorkerRuntime {
    let rulebase = RuleBaseServer::new(Arc::new(|_, _| {}));
    let bundle_server = BundleServer::new(Duration::from_millis(1), Duration::ZERO);
    bundle_server.publish(CodeBundle::synthetic("echo", 1, 1));
    let registry = ExecutorRegistry::new();
    registry.register("echo", Arc::new(Echo));
    let (client_side, server_side) = duplex_pair();
    let rb = rulebase.clone();
    let accept = std::thread::spawn(move || rb.accept(server_side, Duration::from_secs(5)));
    let worker = WorkerRuntime::spawn(WorkerConfig {
        name: "remote-w".into(),
        space,
        bundle_server,
        registry,
        duplex: client_side,
        bundle_name: "echo".into(),
        job: JOB.into(),
        node_load: None,
        epoch: Instant::now(),
        framework: FrameworkConfig {
            task_poll_timeout: Duration::from_millis(10),
            ..FrameworkConfig::default()
        },
    })
    .unwrap();
    let id = accept.join().unwrap().unwrap();
    rulebase.send_signal(id, Signal::Start);
    worker
}

#[test]
fn a_task_carries_its_writers_trace_context_and_a_result_none() {
    flight::install();
    flight::clear();
    let server = SpaceServer::spawn(Space::new(JOB), "127.0.0.1:0").unwrap();
    let connect = || -> StoreHandle { Arc::new(RemoteSpace::connect(server.addr()).unwrap()) };
    let (writer, taker) = (connect(), connect());
    let wait = Some(Duration::from_secs(10));

    // Each task is written inside a span of its own: its context is what
    // the task carries.
    let write_traced = |task_id: u64| {
        let _dispatch = span!("test.dispatch", task_id = task_id);
        let ctx = TraceContext::current().expect("a span is current");
        let task = TaskEntry::new(JOB, task_id, vec![7; 8]).into_tuple();
        writer.write(task).unwrap();
        ctx
    };

    // Written on one connection, taken on another.
    let ctx = write_traced(1);
    let taken = taker.take(&task_template(JOB), wait).unwrap().unwrap();
    assert_eq!(taken.trace(), Some(ctx));
    assert_eq!(TaskEntry::from_tuple(&taken).unwrap().task_id, 1);

    // A worker on a third connection runs the next task in its trace.
    let worker = start_worker(connect());
    let ctx = write_traced(2);
    let result = writer.take(&result_template(JOB), wait).unwrap().unwrap();
    worker.shutdown();
    assert_eq!(result.trace(), None, "a result carries no trace context");
    assert_eq!(ResultEntry::from_tuple(&result).unwrap().task_id, 2);

    let mut asm = TraceAssembler::new();
    asm.add_flight_json("local", &flight::dump_json());
    let task_span = asm
        .spans(ctx.trace_id)
        .into_iter()
        .find(|s| s.name == "worker.task")
        .unwrap_or_else(|| panic!("no worker.task span in the writer's trace"));
    assert_eq!(
        task_span.parent_span_id,
        ctx.span_id,
        "worker.task is a child of the writer's span:\n{}",
        asm.render_tree(ctx.trace_id)
    );
    flight::uninstall();
    flight::clear();
}
