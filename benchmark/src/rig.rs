//! The system under test, assembled the way a deployment would: shard
//! `SpaceServer`s on loopback TCP and an `AdaptiveCluster` over them, so
//! the master and both workers cross the wire.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use acc_cluster::NodeSpec;
use acc_core::task::{RESULT_TYPE, TASK_TYPE};
use acc_core::{
    AdaptiveCluster, Application, ClusterBuilder, FrameworkConfig, Master, Signal, WorkerState,
};
use acc_tuplespace::{Space, SpaceHandle, SpaceServer, StoreHandle, Template, WalOptions};

/// Workers per cluster, in every workload.
pub const WORKERS: usize = 2;

/// The deployment's configuration: `FrameworkConfig::default()` — SNMP polls
/// every 100 ms, heartbeats every second, prefetch 4, dispatch chunks of
/// 256 — so the adaptive plane's overhead is inside every number, with one
/// verdict switched off. The straggler detector flags a worker whose compute
/// p99 exceeds 4× the median; strips of unequal cost (the ray-traced scene)
/// or one preempted zero-compute task trip it within the first second, and
/// the management module then *stops* a healthy worker for good, which turns
/// a two-worker workload into a one-worker one at a moment that varies from
/// run to run. Polling, heartbeats, collection and attribution all still run.
pub fn framework_config() -> FrameworkConfig {
    FrameworkConfig {
        straggler_k: f64::INFINITY,
        ..FrameworkConfig::default()
    }
}

/// How the space is hosted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Shard servers behind the cluster's `PartitionedSpace`; one shard is
    /// the grid's call-through fast path.
    pub shards: usize,
    /// Journal every shard to a WAL directory under `benchmark/out/`.
    pub durable: bool,
}

/// Where runs leave their files (WAL directories, span dumps).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The filesystem type `path` lives on, from the mount table.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut cols = line.split(' ');
            let (_, mount, fs) = (cols.next()?, cols.next()?, cols.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs.to_owned())
        .unwrap_or_else(|| "unknown".into())
}

pub struct Rig {
    pub cluster: AdaptiveCluster,
    /// The spaces behind the shard servers, for checks made in place.
    pub spaces: Vec<SpaceHandle>,
    servers: Vec<SpaceServer>,
    wal_dirs: Vec<PathBuf>,
}

impl Rig {
    /// Brings the servers and the cluster up, installs `app`, adds the
    /// workers and waits until the management module has started both
    /// (which includes the modeled class load).
    pub fn build(topology: Topology, app: &dyn Application, tag: &str) -> Result<Rig, String> {
        let mut spaces = Vec::new();
        let mut servers = Vec::new();
        let mut wal_dirs = Vec::new();
        for i in 0..topology.shards {
            let space = if topology.durable {
                let dir = out_dir().join(format!("wal-{tag}-{}-{i}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
                let space = Space::durable(format!("shard-{i}"), &dir, WalOptions::default())
                    .map_err(|e| format!("open durable space: {e}"))?;
                wal_dirs.push(dir);
                space
            } else {
                Space::new(format!("shard-{i}"))
            };
            let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0")
                .map_err(|e| format!("bind shard server: {e}"))?;
            spaces.push(space);
            servers.push(server);
        }
        let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
        let mut cluster = ClusterBuilder::new(framework_config())
            .shards(addrs)
            .build();
        cluster.install(app);
        for i in 0..WORKERS {
            cluster.add_worker(NodeSpec::new(format!("bench-w{i}"), 800, 256));
        }
        let rig = Rig {
            cluster,
            spaces,
            servers,
            wal_dirs,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while rig
            .cluster
            .workers()
            .iter()
            .any(|w| w.state() != WorkerState::Running)
        {
            if Instant::now() > deadline {
                return Err("workers were not started within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(rig)
    }

    /// A master wired as `AdaptiveCluster::run` wires its own, over the
    /// given handle to the cluster's store.
    pub fn master(&self, store: StoreHandle) -> Master {
        let mut master = Master::new(store);
        master.dispatch_chunk = framework_config().dispatch_chunk;
        master.observer = Some(self.cluster.cluster_observer());
        master.profiler = Some(self.cluster.job_profiler());
        master
    }

    pub fn is_durable(&self) -> bool {
        !self.wal_dirs.is_empty()
    }

    /// Task and result tuples still in any shard.
    pub fn leftover_tuples(&self) -> usize {
        self.spaces
            .iter()
            .map(|s| {
                s.count(&Template::of_type(TASK_TYPE)) + s.count(&Template::of_type(RESULT_TYPE))
            })
            .sum()
    }

    /// Signals other than Start that any worker handled: a Stop or Pause
    /// in mid-run means the adaptive plane interfered and voids the run.
    pub fn non_start_signals(&self) -> u64 {
        self.cluster
            .workers()
            .iter()
            .flat_map(|w| w.signal_log())
            .filter(|entry| entry.signal != Signal::Start)
            .count() as u64
    }

    /// Stops the cluster and the servers and releases the spaces. Returns
    /// the WAL directories, which the caller removes when done with them.
    pub fn teardown(self) -> Vec<PathBuf> {
        self.cluster.shutdown();
        drop(self.servers);
        drop(self.spaces);
        self.wal_dirs
    }
}
