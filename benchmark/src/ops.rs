//! `space_ops`: no framework. Two `RemoteSpace` connections loop
//! write → read → take cycles, closed loop, against one server holding a
//! resident backlog, with one unindexed (scan) pair in every block of eight
//! cycles.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_core::task::TASK_TYPE;
use acc_tuplespace::{
    RemoteSpace, Space, SpaceHandle, SpaceServer, StoreHandle, Template, Tuple, TupleStore,
};

use crate::gen::{self, OpStream, BLOCK_CYCLES};
use crate::trace::{TracedStore, Tracer};
use crate::Scale;

/// Closed-loop clients, one connection each.
pub const CLIENTS: u64 = 2;

/// Tuples resident in the space while the clients run.
pub fn backlog_size(scale: Scale) -> usize {
    match scale {
        Scale::Full => 50_000,
        Scale::Smoke => 1_000,
    }
}

/// Unmeasured cycles per client before timing starts.
pub fn warmup_cycles(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 1_000,
        Scale::Smoke => 16,
    }
}

pub struct OpsRig {
    pub space: SpaceHandle,
    server: SpaceServer,
    /// One store handle per client; `traced` holds the same handles when
    /// the run is traced.
    pub clients: Vec<StoreHandle>,
    pub traced: Vec<Arc<TracedStore>>,
    backlog: usize,
}

impl OpsRig {
    /// Starts the server, connects the clients and preloads the backlog
    /// over the wire.
    pub fn build(seed: u64, scale: Scale, tracer: Option<&Arc<Tracer>>) -> Result<OpsRig, String> {
        let space = Space::new("space-ops");
        let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0")
            .map_err(|e| format!("bind space server: {e}"))?;
        let mut clients: Vec<StoreHandle> = Vec::new();
        let mut traced = Vec::new();
        for _ in 0..CLIENTS {
            let remote: StoreHandle =
                Arc::new(RemoteSpace::connect(server.addr()).map_err(|e| format!("connect: {e}"))?);
            match tracer {
                None => clients.push(remote),
                Some(tracer) => {
                    let store = TracedStore::new(remote, tracer.clone());
                    clients.push(store.clone());
                    traced.push(store);
                }
            }
        }
        let backlog = gen::backlog(seed, backlog_size(scale));
        let n = backlog.len();
        for chunk in backlog.chunks(1_024) {
            clients[0]
                .write_all(chunk.to_vec())
                .map_err(|e| format!("backlog preload: {e}"))?;
        }
        Ok(OpsRig {
            space,
            server,
            clients,
            traced,
            backlog: n,
        })
    }

    /// The closing check: exactly the backlog is left.
    pub fn check_backlog_intact(&self) -> Result<(), String> {
        let left = self.space.count(&Template::of_type(TASK_TYPE));
        if left == self.backlog && self.space.len() == self.backlog {
            Ok(())
        } else {
            Err(format!(
                "space holds {left} task tuples ({} of any type), expected exactly the {} of the backlog",
                self.space.len(),
                self.backlog
            ))
        }
    }

    pub fn teardown(self) {
        self.space.close();
        drop(self.server);
    }
}

/// What one client did in one phase.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub op_ns: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    pub scan_takes: u64,
    pub blocks: u64,
    pub first_error: Option<String>,
}

/// Runs whole blocks of cycles until `duration` has passed and at least
/// `min_blocks` are done. Every op is timed on its own; an op fails when it
/// errors, finds nothing, or returns a tuple other than the one written.
pub fn run_client(
    store: &dyn TupleStore,
    stream: &mut OpStream,
    duration: Duration,
    min_blocks: u64,
    tracer: Option<&Tracer>,
    trace_base: u64,
) -> ClientRun {
    let mut run = ClientRun::default();
    let by_job = stream.by_job();
    let start = Instant::now();
    while start.elapsed() < duration || run.blocks < min_blocks {
        let _root = tracer.and_then(|t| t.job("ops.block", trace_base + run.blocks));
        for cycle in stream.by_ref().take(BLOCK_CYCLES as usize) {
            let wrote = cycle.tuple.clone();
            run.op(|| store.write(cycle.tuple).map(|_| true), "write");
            let by_id = OpStream::by_task_id(cycle.task_id);
            run.op(
                || {
                    store
                        .read_if_exists(&by_id)
                        .map(|t| t.as_ref() == Some(&wrote))
                },
                "read by task_id",
            );
            run.op(
                || {
                    store
                        .take_if_exists(&by_job)
                        .map(|t| t.as_ref() == Some(&wrote))
                },
                "take by job",
            );
            if let Some((tuple, key)) = cycle.scan {
                let wrote = tuple.clone();
                run.op(|| store.write(tuple).map(|_| true), "write");
                let by_key = OpStream::by_key(&key);
                run.op(
                    || {
                        store
                            .take_if_exists(&by_key)
                            .map(|t| t.as_ref() == Some(&wrote))
                    },
                    "take by key",
                );
                run.scan_takes += 1;
            }
        }
        run.blocks += 1;
    }
    run
}

impl ClientRun {
    fn op<E: std::fmt::Display>(&mut self, op: impl FnOnce() -> Result<bool, E>, what: &str) {
        let t0 = Instant::now();
        let outcome = op();
        let ns = t0.elapsed().as_nanos();
        self.op_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.attempted += 1;
        let error = match outcome {
            Ok(true) => return,
            Ok(false) => format!("{what}: no tuple, or not the tuple written"),
            Err(e) => format!("{what}: {e}"),
        };
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }
}

/// Runs every client for one phase, each on its own thread, and returns
/// their runs with the phase's wall time.
pub fn run_phase(
    rig: &OpsRig,
    streams: &mut [OpStream],
    duration: Duration,
    min_blocks: u64,
    tracer: Option<&Tracer>,
) -> (Vec<ClientRun>, f64) {
    let start = Instant::now();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = rig
            .clients
            .iter()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(i, (store, stream))| {
                let store: &dyn TupleStore = store.as_ref();
                // Trace ids of the two clients interleave without colliding.
                let trace_base = (i as u64) << 32;
                scope.spawn(move || {
                    run_client(store, stream, duration, min_blocks, tracer, trace_base)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ops client panicked"))
            .collect::<Vec<_>>()
    });
    (runs, start.elapsed().as_secs_f64())
}

/// A sample tuple in the shape the clients write, for the layer probes.
pub fn sample_tuple(seed: u64) -> Tuple {
    OpStream::new(seed, 0)
        .next()
        .expect("the op stream is endless")
        .tuple
}
