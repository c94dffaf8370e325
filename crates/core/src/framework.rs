//! End-to-end wiring: the whole framework in one handle.
//!
//! [`AdaptiveCluster`] assembles the space (or a grid of shard servers), the
//! bundle server, the network management module and any number of worker
//! nodes, then runs applications through the master module. It is the
//! programmatic equivalent of deploying the paper's framework on a cluster.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_cluster::{ClusterObserver, JobProfiler, Node, NodeSpec};
use acc_snmp::{host_resources_mib, oids, transport::InProcTransport, Agent, Session};
use acc_spacegrid::PartitionedSpace;
use acc_telemetry::Json;
use acc_tuplespace::{remote::SpaceServer, RemoteSpace, Space, SpaceHandle, StoreHandle};

use crate::config::FrameworkConfig;
use crate::loader::{BundleServer, CodeBundle, ExecutorRegistry};
use crate::master::{Master, RunReport};
use crate::monitor::MonitoringAgent;
use crate::rulebase::{duplex_pair, WorkerId};
use crate::signal::{SignalLogEntry, WorkerState};
use crate::task::Application;
use crate::worker::{WorkerConfig, WorkerRuntime};

/// Builder for [`AdaptiveCluster`].
#[derive(Debug)]
pub struct ClusterBuilder {
    config: FrameworkConfig,
    space_name: String,
    observe: Option<String>,
    shards: Vec<String>,
}

impl ClusterBuilder {
    /// Starts a builder with the given framework configuration.
    pub fn new(config: FrameworkConfig) -> ClusterBuilder {
        ClusterBuilder {
            config,
            space_name: "JavaSpaces".into(),
            observe: None,
            shards: Vec::new(),
        }
    }

    /// Names the hosted space (a grid cluster hosts none).
    pub fn space_name(mut self, name: impl Into<String>) -> ClusterBuilder {
        self.space_name = name.into();
        self
    }

    /// Binds the observability endpoint (`/metrics`, `/metrics.json`,
    /// `/healthz`, `/spans`, `/cluster.json`, `/profile.json`) on the given
    /// address, e.g. `"127.0.0.1:9137"` or `"127.0.0.1:0"` for an ephemeral
    /// port. Without this call the endpoint can still be requested via the
    /// `ACC_OBSERVE` environment variable.
    pub fn observe(mut self, bind: impl Into<String>) -> ClusterBuilder {
        self.observe = Some(bind.into());
        self
    }

    /// Runs the cluster over a space grid: the given addresses are
    /// external shard `SpaceServer`s, all master dispatch and worker
    /// prefetch traffic goes through a [`PartitionedSpace`] over them, and
    /// the cluster hosts no space of its own. The build publishes the
    /// shard list in shard 0, where [`PartitionedSpace::discover`] finds it.
    pub fn shards<I, S>(mut self, addrs: I) -> ClusterBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.shards = addrs.into_iter().map(Into::into).collect();
        self
    }

    /// Brings the cluster up: hosts the space — or connects the grid and
    /// publishes its lookup entry — and starts the network management
    /// module.
    pub fn build(self) -> AdaptiveCluster {
        // The flight recorder is always on under cluster management: a
        // bounded per-thread ring whose contents surface in `/spans` and in
        // `flight-<pid>.json` should the process panic.
        acc_telemetry::flight::install();
        // Not in this crate's own unit tests: they panic on purpose
        // (`should_panic`, `catch_unwind`) in a process where some other
        // test has built a cluster, and each such panic would leave a
        // dump in the source tree.
        #[cfg(not(test))]
        acc_telemetry::flight::install_panic_hook();
        acc_telemetry::refresh_process_series();
        let epoch = Instant::now();
        let bundle_server =
            BundleServer::new(self.config.class_load_base, self.config.class_load_per_kb);
        // The cluster view: the monitor's SNMP samples and the master's
        // per-result attribution merge here, and effective loads (and
        // straggler verdicts) flow back into the inference loop.
        let hub = Arc::new(ClusterObserver::new(self.config.observer_config()));
        let monitor = MonitoringAgent::new(self.config.clone(), epoch, hub.clone());
        // The per-job waterfall profiler: the master folds every result's
        // timing into it; `/profile.json` serves it live.
        let profiler = Arc::new(JobProfiler::new());
        // Space grid: when a shard list is configured, every store
        // operation the cluster performs — dispatch and prefetch — goes
        // through a PartitionedSpace over those servers. Shards must be up
        // at build time; one dying later degrades instead of failing.
        let backing = if self.shards.is_empty() {
            Backing::Space(Space::new(self.space_name.clone()))
        } else {
            let addrs: Vec<std::net::SocketAddr> = self
                .shards
                .iter()
                .map(|a| {
                    a.trim()
                        .parse()
                        .unwrap_or_else(|e| panic!("bad shard address '{a}': {e}"))
                })
                .collect();
            let grid = PartitionedSpace::connect(&addrs)
                .expect("all space-grid shards reachable at build time");
            grid.publish()
                .expect("shard 0 takes the grid's lookup entry at build time");
            Backing::Grid(Arc::new(grid))
        };
        let observer = self
            .observe
            .or_else(|| std::env::var("ACC_OBSERVE").ok().filter(|v| !v.is_empty()))
            .and_then(|bind| {
                match spawn_observer(
                    &bind,
                    backing.space(),
                    backing.grid(),
                    monitor.clone(),
                    hub.clone(),
                    profiler.clone(),
                    &self.config,
                ) {
                    Ok(server) => Some(server),
                    Err(e) => {
                        eprintln!("acc: observability endpoint on {bind} failed: {e}");
                        None
                    }
                }
            });
        AdaptiveCluster {
            config: self.config,
            epoch,
            backing,
            space_name: self.space_name,
            bundle_server,
            registry: ExecutorRegistry::new(),
            monitor,
            hub,
            profiler,
            binding: None,
            workers: Vec::new(),
            sampler: None,
            space_server: None,
            observer,
        }
    }
}

/// Mounts the scrape/health endpoint for a cluster: `/healthz` reports
/// whether the hosted space is open and its WAL flushes (or, for a grid
/// cluster, how many shards are healthy), and — once workers are watched —
/// how stale the newest monitor sample is.
fn spawn_observer(
    bind: &str,
    space: Option<SpaceHandle>,
    grid: Option<Arc<PartitionedSpace>>,
    monitor: Arc<MonitoringAgent>,
    hub: Arc<ClusterObserver>,
    profiler: Arc<JobProfiler>,
    config: &FrameworkConfig,
) -> std::io::Result<acc_telemetry::HttpServer> {
    let health = acc_telemetry::HealthChecks::new();
    if let Some(space) = space {
        let space_for_check = space.clone();
        health.register("space", move || {
            if space_for_check.is_closed() {
                Err("space closed".into())
            } else {
                Ok(format!("space '{}' open", space_for_check.name()))
            }
        });
        health.register("wal", move || match space.flush_journal() {
            Ok(()) => Ok("journal flushes (or space is non-durable)".into()),
            Err(e) => Err(format!("journal flush failed: {e}")),
        });
    }
    // The workers' view is stale when the monitor has gone many poll
    // intervals without a sample (capped so sub-millisecond test intervals
    // don't flap).
    let stale_after = (config.poll_interval * 10).max(Duration::from_secs(2));
    health.register("workers", move || match monitor.sample_age() {
        None => Ok("no workers watched".into()),
        Some(age) if age <= stale_after => Ok(format!("last sample {} ms ago", age.as_millis())),
        Some(age) => Err(format!(
            "no sample for {} ms (stale after {} ms)",
            age.as_millis(),
            stale_after.as_millis()
        )),
    });
    // Remote-transport posture: the error-path counters the wire protocol
    // maintains, surfaced so `/healthz?detail` answers "has this cluster
    // been reconnecting / restoring / striking out?" at a glance.
    health.register("remote", || {
        let r = acc_telemetry::registry();
        Ok(format!(
            "reconnects={} transport_strikes={} tuples_restored={}",
            r.counter("remote.reconnects").get(),
            r.counter("worker.transport_strikes").get(),
            r.counter("server.tuples_restored").get(),
        ))
    });
    // Grid posture: degraded shards flip `/healthz` and are listed, with
    // per-shard health, in `/cluster.json`.
    if let Some(grid_for_check) = grid.clone() {
        health.register("grid", move || {
            let healthy = grid_for_check.healthy_count();
            let total = grid_for_check.shard_count();
            let detail = format!("{healthy}/{total} shards healthy");
            if healthy == total {
                Ok(detail)
            } else {
                Err(detail)
            }
        });
    }
    let routes = acc_telemetry::Routes::new();
    let hub_for_cluster = hub.clone();
    routes.register("/cluster.json", move || {
        let doc = cluster_document(&hub_for_cluster, grid.as_deref());
        ("200 OK", "application/json", doc.to_string())
    });
    routes.register("/profile.json", move || {
        let doc = profiler.to_json(&hub.stragglers());
        ("200 OK", "application/json", doc.to_string())
    });
    acc_telemetry::serve_routed(bind, health, routes, acc_telemetry::HttpOptions::default())
}

/// The `/cluster.json` document: the observer's worker and job sections,
/// the monitor's failed polls by kind, then the grid's shards (when there
/// is a grid), the flight recorder's loss and ring occupancy — retention
/// pressure shows before traces silently vanish — and the wire path's
/// frame bytes.
fn cluster_document(hub: &ClusterObserver, grid: Option<&PartitionedSpace>) -> Json {
    let r = acc_telemetry::registry();
    let mut doc = hub.to_json();
    doc.insert("monitor", crate::monitor::monitor_json());
    if let Some(grid) = grid {
        doc.insert("grid", grid.to_json());
    }
    let threads = acc_telemetry::flight::occupancy().into_iter().map(|t| {
        Json::object([
            ("thread", t.thread.into()),
            ("live", t.live.into()),
            ("kept", t.kept.into()),
            ("capacity", t.capacity.into()),
        ])
    });
    let dropped = r.counter("telemetry.flight.dropped_events").get();
    doc.insert(
        "flight",
        Json::object([
            ("dropped_events", dropped.into()),
            ("threads", threads.collect()),
        ]),
    );
    doc.insert(
        "wire",
        Json::object([("frame_bytes", r.counter("remote.frame_bytes").get().into())]),
    );
    doc
}

/// A worker node under cluster management.
pub struct ManagedWorker {
    /// The node model (load meter, usage history).
    pub node: Node,
    runtime: WorkerRuntime,
}

impl ManagedWorker {
    /// The management-assigned worker id.
    pub fn id(&self) -> WorkerId {
        self.runtime.id()
    }

    /// The worker's name.
    pub fn name(&self) -> &str {
        self.runtime.name()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> WorkerState {
        self.runtime.state()
    }

    /// Signals handled so far (reaction-time log).
    pub fn signal_log(&self) -> Vec<SignalLogEntry> {
        self.runtime.signal_log()
    }

    /// Tasks completed so far.
    pub fn tasks_done(&self) -> u64 {
        self.runtime.tasks_done()
    }
}

/// Where a cluster's traffic goes: the space it hosts, or a grid of shard
/// servers, beside which it hosts no space.
enum Backing {
    Space(SpaceHandle),
    Grid(Arc<PartitionedSpace>),
}

impl Backing {
    fn space(&self) -> Option<SpaceHandle> {
        match self {
            Backing::Space(space) => Some(space.clone()),
            Backing::Grid(_) => None,
        }
    }

    fn grid(&self) -> Option<Arc<PartitionedSpace>> {
        match self {
            Backing::Space(_) => None,
            Backing::Grid(grid) => Some(grid.clone()),
        }
    }
}

/// The assembled framework: space (or grid) + management + workers.
pub struct AdaptiveCluster {
    config: FrameworkConfig,
    epoch: Instant,
    backing: Backing,
    space_name: String,
    bundle_server: Arc<BundleServer>,
    registry: Arc<ExecutorRegistry>,
    monitor: Arc<MonitoringAgent>,
    hub: Arc<ClusterObserver>,
    profiler: Arc<JobProfiler>,
    binding: Option<(String, String)>,
    workers: Vec<ManagedWorker>,
    sampler: Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)>,
    space_server: Option<SpaceServer>,
    observer: Option<acc_telemetry::HttpServer>,
}

impl std::fmt::Debug for AdaptiveCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveCluster")
            .field("space", &self.space_name)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl AdaptiveCluster {
    /// Shorthand: default configuration, default space name.
    pub fn with_defaults() -> AdaptiveCluster {
        ClusterBuilder::new(FrameworkConfig::default()).build()
    }

    /// The experiment epoch all millisecond timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The hosted space; `None` for a grid cluster, which hosts none.
    pub fn space(&self) -> Option<SpaceHandle> {
        self.backing.space()
    }

    /// The space grid, when the cluster was built over shards.
    pub fn grid(&self) -> Option<Arc<PartitionedSpace>> {
        self.backing.grid()
    }

    /// The store all cluster traffic goes through: the grid when one is
    /// configured, the in-process space otherwise.
    pub fn store(&self) -> StoreHandle {
        match &self.backing {
            Backing::Space(space) => space.clone(),
            Backing::Grid(grid) => grid.clone(),
        }
    }

    /// The network management module.
    pub fn monitor(&self) -> Arc<MonitoringAgent> {
        self.monitor.clone()
    }

    /// The cluster view: merged per-worker history rings, task-level
    /// attribution and straggler verdicts (the worker and job sections of
    /// `/cluster.json`).
    pub fn cluster_observer(&self) -> Arc<ClusterObserver> {
        self.hub.clone()
    }

    /// Where the observability endpoint is listening, if one was requested
    /// via [`ClusterBuilder::observe`] or `ACC_OBSERVE`.
    pub fn observe_addr(&self) -> Option<std::net::SocketAddr> {
        self.observer.as_ref().map(|s| s.addr())
    }

    /// Installs an application: publishes its code bundle on the bundle
    /// server and registers its executor so workers can link it. Must be
    /// called before [`AdaptiveCluster::add_worker`].
    pub fn install(&mut self, app: &dyn Application) {
        let bundle_name = app.bundle_name();
        self.bundle_server.publish(CodeBundle::synthetic(
            bundle_name.clone(),
            1,
            app.bundle_kb(),
        ));
        self.registry.register(bundle_name.clone(), app.executor());
        self.binding = Some((app.job_name(), bundle_name));
    }

    /// Starts serving the space over TCP so remote workers can join, and
    /// returns the address. Idempotent. A grid cluster hosts no space to
    /// serve: its shard servers already are the network's spaces.
    pub fn serve_space(&mut self) -> std::io::Result<std::net::SocketAddr> {
        let Backing::Space(space) = &self.backing else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "a grid cluster hosts no space to serve",
            ));
        };
        if self.space_server.is_none() {
            self.space_server = Some(SpaceServer::spawn(space.clone(), "127.0.0.1:0")?);
        }
        Ok(self.space_server.as_ref().expect("just set").addr())
    }

    /// The TCP space server, when [`AdaptiveCluster::serve_space`] has been
    /// called. Exposes operator levers like
    /// [`SpaceServer::disconnect_all`] (and failure injection in tests).
    pub fn space_server(&self) -> Option<&SpaceServer> {
        self.space_server.as_ref()
    }

    /// Adds a worker whose space access goes over TCP — the deployment
    /// shape, where worker machines reach the space over the network: a
    /// [`RemoteSpace`] to the served space (see
    /// [`AdaptiveCluster::serve_space`]), or, on a grid cluster, the grid
    /// discovered from shard 0's address alone.
    pub fn add_remote_worker(&mut self, spec: NodeSpec) -> std::io::Result<WorkerId> {
        let store: StoreHandle = match &self.backing {
            Backing::Space(_) => Arc::new(RemoteSpace::connect(self.serve_space()?)?),
            Backing::Grid(grid) => Arc::new(PartitionedSpace::discover(grid.addrs()[0])?),
        };
        Ok(self.add_worker_with_store(spec, store))
    }

    /// Adds a worker node: brings up its SNMP agent, registers it over the
    /// rule-base protocol, and starts monitoring it. The worker serves the
    /// currently installed application.
    ///
    /// # Panics
    /// If no application has been installed yet.
    pub fn add_worker(&mut self, spec: NodeSpec) -> WorkerId {
        // Grid deployments give every worker its own shard connections,
        // exactly as remote workers each get their own RemoteSpace.
        let store: StoreHandle = match &self.backing {
            Backing::Space(space) => space.clone(),
            Backing::Grid(grid) => Arc::new(
                grid.reconnect()
                    .expect("space-grid shards reachable for new worker"),
            ),
        };
        self.add_worker_with_store(spec, store)
    }

    fn add_worker_with_store(&mut self, spec: NodeSpec, store: StoreHandle) -> WorkerId {
        let (job, bundle_name) = self
            .binding
            .clone()
            .expect("install an application before adding workers");
        let node = Node::new(spec);

        // Rule-base registration: client (worker) and server (management)
        // handshake over a fresh duplex.
        let (client_side, server_side) = duplex_pair();
        let rulebase = self.monitor.rulebase();
        let accept = std::thread::spawn(move || {
            rulebase
                .accept(server_side, Duration::from_secs(5))
                .expect("worker registration handshake")
        });
        let runtime = WorkerRuntime::spawn(WorkerConfig {
            name: node.spec().name.clone(),
            space: store,
            bundle_server: self.bundle_server.clone(),
            registry: self.registry.clone(),
            duplex: client_side,
            bundle_name,
            job,
            node_load: Some(node.load()),
            epoch: self.epoch,
            framework: self.config.clone(),
        })
        .expect("worker registration");
        let id = accept.join().expect("accept thread");
        debug_assert_eq!(id, runtime.id());

        // SNMP worker-agent for the node.
        let n1 = node.clone();
        let n2 = node.clone();
        let n3 = node.clone();
        let mut mib = host_resources_mib(
            node.spec().name.clone(),
            node.spec().memory_mb as u64 * 1024,
            move || n1.cpu_load(),
            move || n2.free_memory_kb(),
            move || n3.uptime_ticks(),
        );
        let load_for_mib = node.load();
        mib.register_gauge(oids::acc_framework_load(), move || {
            load_for_mib.framework_effective()
        });
        let community = self.config.community.clone();
        let agent = Arc::new(Agent::new(community.clone(), mib));
        let session = Session::new(community, Box::new(InProcTransport::new(agent)));

        // Monitoring: register with the inference engine and start
        // polling, keyed by the node name the worker's result tuples
        // carry, so SNMP samples and attribution merge into one row.
        self.monitor.watch(id, node.spec().name.clone(), session);

        self.workers.push(ManagedWorker { node, runtime });
        id
    }

    /// The managed workers.
    pub fn workers(&self) -> &[ManagedWorker] {
        &self.workers
    }

    /// Runs an installed application to completion through the master
    /// module, over [`AdaptiveCluster::store`].
    pub fn run(&mut self, app: &mut dyn Application) -> RunReport {
        let mut master = Master::new(self.store());
        master.dispatch_chunk = self.config.dispatch_chunk;
        master.observer = Some(self.hub.clone());
        master.profiler = Some(self.profiler.clone());
        // Scatter-gather fan-out attribution: per-shard op counts/latency
        // are process-wide histograms, so the job's share is the delta
        // across the run.
        let grid = self.grid();
        let fanout_before = grid.as_ref().map(|g| g.fanout_profile());
        let report = master.run(app).expect("space open for the run's duration");
        if let (Some(grid), Some(before)) = (grid, fanout_before) {
            self.profiler
                .record_fanout(&app.job_name(), grid.fanout_since(&before));
        }
        report
    }

    /// The per-job waterfall profiler (the state behind `/profile.json`).
    pub fn job_profiler(&self) -> Arc<JobProfiler> {
        self.profiler.clone()
    }

    /// Starts a background sampler recording every node's CPU usage into
    /// its usage history at the given interval (the data behind the
    /// "Worker CPU Usage" plots).
    pub fn start_usage_sampler(&mut self, interval: Duration) {
        if self.sampler.is_some() {
            return;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let nodes: Vec<Node> = self.workers.iter().map(|w| w.node.clone()).collect();
        let epoch = self.epoch;
        let thread = std::thread::spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                let at_ms = epoch.elapsed().as_millis() as u64;
                for node in &nodes {
                    node.record_usage(at_ms);
                }
                std::thread::sleep(interval);
            }
        });
        self.sampler = Some((stop, thread));
    }

    /// Tears the cluster down: stops monitoring, closes the store (waking
    /// blocked workers), and joins every worker thread. Closing a grid
    /// closes the shard spaces themselves.
    pub fn shutdown(mut self) {
        if let Some((stop, thread)) = self.sampler.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = thread.join();
        }
        self.monitor.stop();
        self.store().close();
        for worker in self.workers.drain(..) {
            worker.runtime.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Signal;
    use crate::task::{ExecError, TaskEntry, TaskExecutor, TaskSpec};
    use acc_tuplespace::Payload;

    /// Sums integers 0..n by squaring each in a task.
    struct SumSquares {
        n: u64,
        total: u64,
    }

    impl Application for SumSquares {
        fn job_name(&self) -> String {
            "sum-squares".into()
        }
        fn bundle_name(&self) -> String {
            "sum-squares-bundle".into()
        }
        fn bundle_kb(&self) -> usize {
            4
        }
        fn plan(&mut self) -> Vec<TaskSpec> {
            (0..self.n).map(|i| TaskSpec::new(i, &i)).collect()
        }
        fn executor(&self) -> Arc<dyn TaskExecutor> {
            struct Exec;
            impl TaskExecutor for Exec {
                fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
                    let x: u64 = task.input()?;
                    Ok((x * x).to_bytes())
                }
            }
            Arc::new(Exec)
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

    #[test]
    fn end_to_end_adaptive_run() {
        let mut cluster = ClusterBuilder::new(fast_config())
            .space_name("test-space")
            .build();
        let mut app = SumSquares { n: 30, total: 0 };
        cluster.install(&app);
        for i in 0..3 {
            cluster.add_worker(NodeSpec::new(format!("w{i:02}"), 800, 256));
        }
        let report = cluster.run(&mut app);
        assert!(report.complete, "failures: {:?}", report.failures);
        assert_eq!(report.results_collected, 30);
        let expected: u64 = (0..30u64).map(|i| i * i).sum();
        assert_eq!(app.total, expected);
        assert!(report.times.parallel_ms > 0.0);
        // At least one worker was started by the inference engine and did
        // the work.
        assert!(cluster.workers().iter().any(|w| w.tasks_done() > 0));
        cluster.shutdown();
    }

    #[test]
    fn loaded_worker_is_excluded() {
        let mut cluster = ClusterBuilder::new(fast_config()).build();
        let mut app = SumSquares { n: 10, total: 0 };
        cluster.install(&app);
        let busy = cluster.add_worker(NodeSpec::new("busy", 800, 256));
        cluster.add_worker(NodeSpec::new("idle", 800, 256));
        // Peg the first node before any work shows up.
        cluster.workers()[0].node.load().set_background(100);
        // Wait until the inference engine has actually *seen* the pegged
        // load and the worker is not running, rather than sleeping a fixed
        // interval — the poll thread can lag arbitrarily on a loaded host.
        // And until no signal to it is in flight: a first poll before the
        // peg sends `Start`, and a worker still in that start's class load
        // reads `Stopped`, then runs, and takes tasks until a later poll
        // stops it. So a sent `Start` must have been followed by a `Stop`.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let decisions = cluster.monitor().decisions();
            let mine = || decisions.iter().filter(|d| d.worker == busy);
            let seen = mine().any(|d| d.external_load >= 90);
            let signals: Vec<Signal> = mine().filter_map(|d| d.signal).collect();
            let settled =
                !signals.contains(&Signal::Start) || signals.last() == Some(&Signal::Stop);
            if seen && settled && cluster.workers()[0].state() != WorkerState::Running {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "engine never excluded the busy worker"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = cluster.run(&mut app);
        assert!(report.complete);
        // All tasks went to the idle worker. The counter is incremented
        // *after* the result write, so the master can finish before the
        // last increment lands — wait for it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while cluster.workers()[1].tasks_done() < 10 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(cluster.workers()[0].tasks_done(), 0);
        assert_eq!(cluster.workers()[1].tasks_done(), 10);
        cluster.shutdown();
    }

    #[test]
    #[should_panic(expected = "install an application")]
    fn add_worker_requires_install() {
        let mut cluster = ClusterBuilder::new(fast_config()).build();
        cluster.add_worker(NodeSpec::new("w", 800, 256));
    }

    #[test]
    fn a_cluster_polls_with_its_own_community() {
        // The monitor's sessions speak the community its agents check, so
        // a non-default community still gets every poll answered.
        let mut cluster = ClusterBuilder::new(FrameworkConfig {
            community: "private".into(),
            ..fast_config()
        })
        .build();
        cluster.install(&SumSquares { n: 1, total: 0 });
        let id = cluster.add_worker(NodeSpec::new("w", 800, 256));
        let deadline = Instant::now() + Duration::from_secs(5);
        while cluster.workers()[0].state() != WorkerState::Running {
            assert!(Instant::now() < deadline, "the worker never started");
            std::thread::sleep(Duration::from_millis(5));
        }
        let decisions = cluster.monitor().decisions();
        assert_eq!(decisions[0].worker, id);
        assert_eq!(decisions[0].signal, Some(crate::signal::Signal::Start));
        cluster.shutdown();
    }

    #[test]
    fn a_poll_refused_for_its_community_shows_in_the_worker_row() {
        // The agent checks "private", the session speaks "public". The
        // first poll runs as the watch starts and the next a minute later,
        // so whatever the row shows before then is the first poll's, well
        // within two poll intervals.
        let cluster = ClusterBuilder::new(FrameworkConfig {
            poll_interval: Duration::from_secs(60),
            ..fast_config()
        })
        .observe("127.0.0.1:0")
        .build();
        let mib = host_resources_mib("mismatched".into(), 1024, || 0, || 0, || 0);
        let agent = Arc::new(Agent::new("private", mib));
        let session = Session::new("public", Box::new(InProcTransport::new(agent)));
        cluster
            .monitor()
            .watch(WorkerId(900), "mismatched", session);
        let addr = cluster.observe_addr().expect("observer mounted");
        let deadline = Instant::now() + Duration::from_secs(10);
        let json = loop {
            let reply = http_get(addr, "/cluster.json");
            let body = reply.split_once("\r\n\r\n").expect("header block").1;
            let json = Json::parse(body).expect("/cluster.json parses");
            if !matches!(json["workers"]["mismatched"]["last_poll"], Json::Null) {
                break json;
            }
            assert!(Instant::now() < deadline, "the first poll never landed");
            std::thread::sleep(Duration::from_millis(5));
        };
        let row = &json["workers"]["mismatched"];
        assert_eq!(row["last_poll"].as_str(), Some("bad_community"), "{json}");
        assert_eq!(row["load"]["samples"].as_u64(), Some(0), "{json}");
        let failed = &json["monitor"]["failed_polls"];
        assert!(failed["bad_community"].as_u64() >= Some(1), "{json}");
        assert!(failed["timeout"].as_u64().is_some(), "{json}");
        cluster.shutdown();
    }

    fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn observe_endpoint_serves_cluster_health() {
        let mut cluster = ClusterBuilder::new(fast_config())
            .observe("127.0.0.1:0")
            .build();
        let addr = cluster.observe_addr().expect("observer mounted");
        let health = http_get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200"), "got: {health}");
        assert!(health.contains("no workers watched"), "got: {health}");
        let metrics = http_get(addr, "/metrics");
        assert!(
            metrics.contains("process.uptime_seconds"),
            "got: {metrics:.300}"
        );
        // The text views are `acc_top`'s, rendered from the JSON routes.
        for gone in ["/cluster", "/profile"] {
            let reply = http_get(addr, gone);
            assert!(reply.starts_with("HTTP/1.0 404"), "{gone}: {reply}");
        }
        // With a worker watched, the workers check reports sample age.
        let mut app = SumSquares { n: 1, total: 0 };
        cluster.install(&app);
        cluster.add_worker(NodeSpec::new("w0", 800, 256));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = http_get(addr, "/healthz");
            if health.contains("last sample") {
                break;
            }
            assert!(Instant::now() < deadline, "no sample: {health}");
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = cluster.run(&mut app);
        assert!(report.complete);
        cluster.shutdown();
    }

    #[test]
    fn end_to_end_run_over_a_space_grid() {
        // Two external shard servers, as separate processes would host.
        let shard_a = Space::new("shard-a");
        let shard_b = Space::new("shard-b");
        let server_a = SpaceServer::spawn(shard_a.clone(), "127.0.0.1:0").unwrap();
        let server_b = SpaceServer::spawn(shard_b.clone(), "127.0.0.1:0").unwrap();
        let mut cluster = ClusterBuilder::new(fast_config())
            .shards([server_a.addr().to_string(), server_b.addr().to_string()])
            .observe("127.0.0.1:0")
            .build();
        assert_eq!(cluster.grid().expect("grid configured").shard_count(), 2);
        let mut app = SumSquares { n: 40, total: 0 };
        cluster.install(&app);
        for i in 0..2 {
            cluster.add_worker(NodeSpec::new(format!("gw{i}"), 800, 256));
        }
        let report = cluster.run(&mut app);
        assert!(report.complete, "failures: {:?}", report.failures);
        assert_eq!(report.results_collected, 40);
        let expected: u64 = (0..40u64).map(|i| i * i).sum();
        assert_eq!(app.total, expected);
        // The work actually spread: both shards saw traffic.
        let touched_a = shard_a.stats().writes > 0;
        let touched_b = shard_b.stats().writes > 0;
        assert!(touched_a && touched_b, "both shards should carry tuples");
        // Observability: the grid check is green and the shard list is in
        // the cluster views.
        let addr = cluster.observe_addr().expect("observer mounted");
        let health = http_get(addr, "/healthz");
        assert!(
            health.contains("grid: ok (2/2 shards healthy"),
            "got: {health}"
        );
        // Only checks that read the grid: the cluster hosts no space, so
        // there is none to report open or to flush.
        assert!(cluster.space().is_none());
        for line in health.lines() {
            assert!(
                !line.starts_with("space") && !line.starts_with("wal"),
                "check of a space the grid cluster does not use: {health}"
            );
        }
        let reply = http_get(addr, "/cluster.json");
        let body = reply.split_once("\r\n\r\n").expect("header block").1;
        let json = Json::parse(body).expect("/cluster.json parses");
        assert_eq!(json["grid"]["total"].as_u64(), Some(2), "got: {json}");
        assert_eq!(json["grid"]["shards"].as_array().map(<[_]>::len), Some(2));
        // Wire-path posture rides along: the run above pushed real frames
        // through RemoteSpace connections, so frame traffic is non-zero.
        assert!(
            json["wire"]["frame_bytes"].as_u64() > Some(0),
            "got: {json}"
        );
        cluster.shutdown();
    }

    #[test]
    fn remote_worker_joins_the_grid_from_shard_0() {
        let shards = [Space::new("remote-a"), Space::new("remote-b")];
        let servers: Vec<SpaceServer> = shards
            .iter()
            .map(|s| SpaceServer::spawn(s.clone(), "127.0.0.1:0").unwrap())
            .collect();
        let mut cluster = ClusterBuilder::new(fast_config())
            .shards(servers.iter().map(|s| s.addr().to_string()))
            .build();
        assert!(
            cluster.serve_space().is_err(),
            "a grid cluster hosts no space"
        );
        let mut app = SumSquares { n: 20, total: 0 };
        cluster.install(&app);
        cluster
            .add_remote_worker(NodeSpec::new("rw0", 800, 256))
            .expect("the grid is discoverable from shard 0");
        let report = cluster.run(&mut app);
        assert!(report.complete, "failures: {:?}", report.failures);
        assert_eq!(app.total, (0..20u64).map(|i| i * i).sum::<u64>());
        cluster.shutdown();
    }

    #[test]
    fn monitoring_writes_nothing_into_the_space_it_monitors() {
        let shards = [Space::new("quiet-a"), Space::new("quiet-b")];
        let servers: Vec<SpaceServer> = shards
            .iter()
            .map(|s| SpaceServer::spawn(s.clone(), "127.0.0.1:0").unwrap())
            .collect();
        let mut cluster = ClusterBuilder::new(FrameworkConfig {
            // No straggler verdict may stop a worker (whose unstarted
            // tasks would then go back to the space as writes).
            straggler_k: f64::INFINITY,
            ..fast_config()
        })
        .shards(servers.iter().map(|s| s.addr().to_string()))
        .build();
        let mut app = SumSquares { n: 40, total: 0 };
        cluster.install(&app);
        for i in 0..2 {
            cluster.add_worker(NodeSpec::new(format!("qw{i}"), 800, 256));
        }
        // Workers up and polled for longer than any periodic report
        // interval would take to fire.
        std::thread::sleep(Duration::from_millis(1_500));
        let report = cluster.run(&mut app);
        assert!(report.complete, "failures: {:?}", report.failures);
        // The shards saw the grid's lookup entry, the job's tasks and
        // results, and nothing else.
        let writes: u64 = shards.iter().map(|s| s.stats().writes).sum();
        assert_eq!(writes, 1 + 40 + 40);
        cluster.shutdown();
    }
}
