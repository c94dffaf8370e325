//! End-to-end wiring: the whole framework in one handle.
//!
//! [`AdaptiveCluster`] assembles the space, the Jini-style federation, the
//! bundle server, the network management module and any number of worker
//! nodes, then runs applications through the master module. It is the
//! programmatic equivalent of deploying the paper's framework on a cluster.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_cluster::{metrics_template, ClusterObserver, JobProfiler, MetricsReport, Node, NodeSpec};
use acc_federation::{Attributes, DiscoveryBus, LookupService, Registrar, ServiceItem};
use acc_snmp::{host_resources_mib, oids, transport::InProcTransport, Agent, Manager};
use acc_spacegrid::PartitionedSpace;
use acc_tuplespace::{
    remote::SpaceServer, RemoteSpace, Space, SpaceHandle, StoreHandle, Template, TupleStore,
};

use crate::config::FrameworkConfig;
use crate::loader::{BundleServer, CodeBundle, ExecutorRegistry};
use crate::master::{Master, RunReport};
use crate::monitor::MonitoringAgent;
use crate::rulebase::{duplex_pair, WorkerId};
use crate::series::series;
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

    /// Names the hosted space service.
    pub fn space_name(mut self, name: impl Into<String>) -> ClusterBuilder {
        self.space_name = name.into();
        self
    }

    /// Binds the observability endpoint (`/metrics`, `/metrics.json`,
    /// `/healthz`, `/spans`) on the given address, e.g. `"127.0.0.1:9137"`
    /// or `"127.0.0.1:0"` for an ephemeral port. Without this call the
    /// endpoint can still be requested via the `ACC_OBSERVE` environment
    /// variable.
    pub fn observe(mut self, bind: impl Into<String>) -> ClusterBuilder {
        self.observe = Some(bind.into());
        self
    }

    /// Runs the cluster over a space grid: the given addresses are
    /// external shard `SpaceServer`s, and all master dispatch, worker
    /// prefetch and heartbeat traffic goes through a
    /// [`PartitionedSpace`] over them instead of the in-process space
    /// (which remains hosted for federation discovery). Without this
    /// call the shard list can still come from the `ACC_SHARDS`
    /// environment variable (comma-separated `host:port` addresses).
    pub fn shards<I, S>(mut self, addrs: I) -> ClusterBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.shards = addrs.into_iter().map(Into::into).collect();
        self
    }

    /// Brings the cluster up: hosts the space, announces the lookup
    /// service, registers the space with the federation, and starts the
    /// network management module.
    pub fn build(self) -> AdaptiveCluster {
        // Cluster deployments always collect operation-latency histograms
        // (raw `Space::new` users opt in via `acc_telemetry::set_timing`),
        // and honor `ACC_TRACE` for a stderr trace subscriber.
        acc_telemetry::set_timing(true);
        acc_telemetry::init_from_env();
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
        let bus = DiscoveryBus::new();
        let lookup = LookupService::new("lus-0");
        bus.announce(lookup.clone());
        let space = Space::new(self.space_name.clone());
        // Join protocol: publish the space proxy in the federation.
        let registrar = Registrar::join(
            &bus,
            ServiceItem::new(
                self.space_name.clone(),
                Attributes::build().set("kind", "tuple-space").done(),
                space.clone(),
            ),
            None,
        )
        .expect("registering the space cannot fail on a fresh lookup");
        let bundle_server =
            BundleServer::new(self.config.class_load_base, self.config.class_load_per_kb);
        let monitor = MonitoringAgent::new(self.config.clone(), epoch);
        // The federation hub: merges every heartbeat tuple and task
        // attribution into one cluster view, and feeds effective loads
        // (and straggler verdicts) back into the inference loop.
        let hub = Arc::new(ClusterObserver::new(self.config.observer_config()));
        monitor.set_decision_input(hub.clone());
        // The per-job waterfall profiler: the master folds every result's
        // timing into it; `/profile` and `acc_top` read it live.
        let profiler = Arc::new(JobProfiler::new());
        // Space grid: when a shard list is configured (builder or
        // ACC_SHARDS), every store operation the cluster performs —
        // dispatch, prefetch, heartbeats — goes through a
        // PartitionedSpace over those servers. Shards must be up at
        // build time; one dying later degrades instead of failing.
        let shard_addrs: Vec<std::net::SocketAddr> = {
            let list = if self.shards.is_empty() {
                std::env::var("ACC_SHARDS")
                    .ok()
                    .filter(|v| !v.is_empty())
                    .map(|v| v.split(',').map(str::to_owned).collect())
                    .unwrap_or_default()
            } else {
                self.shards.clone()
            };
            list.iter()
                .map(|a| {
                    a.trim()
                        .parse()
                        .unwrap_or_else(|e| panic!("bad shard address '{a}': {e}"))
                })
                .collect()
        };
        let grid = if shard_addrs.is_empty() {
            None
        } else {
            Some(Arc::new(
                PartitionedSpace::connect(&shard_addrs)
                    .expect("all space-grid shards reachable at build time"),
            ))
        };
        let store: StoreHandle = match &grid {
            Some(grid) => grid.clone(),
            None => space.clone(),
        };
        let collector = if self.config.metrics_interval.is_zero() {
            None
        } else {
            Some(spawn_collector(
                store.clone(),
                self.space_name.clone(),
                hub.clone(),
                self.config.metrics_interval,
            ))
        };
        let observer = self
            .observe
            .or_else(|| std::env::var("ACC_OBSERVE").ok().filter(|v| !v.is_empty()))
            .and_then(|bind| {
                match spawn_observer(
                    &bind,
                    space.clone(),
                    grid.clone(),
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
            bus,
            lookup,
            _registrar: registrar,
            space,
            grid,
            space_name: self.space_name,
            bundle_server,
            registry: ExecutorRegistry::new(),
            monitor,
            hub,
            profiler,
            collector,
            manager: Manager::new("public"),
            binding: None,
            workers: Vec::new(),
            sampler: None,
            space_server: None,
            observer,
        }
    }
}

/// Starts the master-side collector: every interval it publishes the
/// space's own heartbeat tuple (the space is a federation participant
/// like any worker, under the name `space:<name>`), then drains every
/// pending `acc.metrics` tuple and folds it into the hub. Runs against
/// whatever store the cluster dispatches through — the in-process space
/// or the grid (where `take_all` scatter-gathers heartbeats from every
/// shard). Exits when the store closes.
fn spawn_collector(
    store: StoreHandle,
    space_name: String,
    hub: Arc<ClusterObserver>,
    interval: Duration,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let thread = std::thread::Builder::new()
        .name("acc-collector".into())
        .spawn(move || {
            let template = metrics_template();
            let any = Template::any_type().done();
            let self_name = format!("space:{space_name}");
            let mut seq = 0u64;
            while !stop2.load(Ordering::SeqCst) {
                seq += 1;
                let self_report = MetricsReport {
                    worker: self_name.clone(),
                    seq,
                    at_ms: acc_cluster::observer::now_ms(),
                    total_load: 0,
                    framework_load: 0,
                    tasks_done: store.count(&any).unwrap_or(0) as u64,
                };
                if store.write(self_report.to_tuple()).is_err() && store.is_closed() {
                    break;
                }
                match store.take_all(&template) {
                    Ok(tuples) => {
                        for tuple in &tuples {
                            let Some(report) = MetricsReport::from_tuple(tuple) else {
                                continue;
                            };
                            if hub.ingest(&report) {
                                series().heartbeats_ingested.inc();
                            } else {
                                series().heartbeats_duplicate.inc();
                            }
                        }
                    }
                    // Transient store faults (e.g. every grid shard
                    // momentarily unhealthy) skip a cycle; only a closed
                    // store ends collection.
                    Err(_) if !store.is_closed() => {}
                    Err(_) => break,
                }
                // Sleep in slices so shutdown is prompt at any interval.
                let deadline = Instant::now() + interval;
                while Instant::now() < deadline && !stop2.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(10).min(interval));
                }
            }
        })
        .expect("spawn collector thread");
    (stop, thread)
}

/// Mounts the scrape/health endpoint for a cluster: `/healthz` reports
/// whether the space is open, the WAL flushes, and — once workers are
/// watched — how stale the newest monitor sample is.
fn spawn_observer(
    bind: &str,
    space: SpaceHandle,
    grid: Option<Arc<PartitionedSpace>>,
    monitor: Arc<MonitoringAgent>,
    hub: Arc<ClusterObserver>,
    profiler: Arc<JobProfiler>,
    config: &FrameworkConfig,
) -> std::io::Result<acc_telemetry::HttpServer> {
    let health = acc_telemetry::HealthChecks::new();
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
    // A worker heartbeat is stale when the monitor has gone many poll
    // intervals without a sample (capped so sub-millisecond test intervals
    // don't flap).
    let stale_after = (config.poll_interval * 10).max(Duration::from_secs(2));
    health.register("workers", move || match monitor.heartbeat_age() {
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
    // per-shard health, in `/cluster` and `/cluster.json`.
    if let Some(grid_for_check) = grid.clone() {
        health.register("grid", move || {
            let healthy = grid_for_check.healthy_count();
            let total = grid_for_check.shard_count();
            // Tuples confirmed lost (restore-on-reroute failed) degrade
            // the check even with every shard back up: data went missing
            // and only an operator can clear that.
            let lost = acc_telemetry::registry().counter("grid.lost_tuples").get();
            let detail = format!("{healthy}/{total} shards healthy, lost_tuples={lost}");
            if healthy == total && lost == 0 {
                Ok(detail)
            } else {
                Err(detail)
            }
        });
    }
    let routes = acc_telemetry::Routes::new();
    let hub_text = hub.clone();
    let grid_text = grid.clone();
    routes.register("/cluster", move || {
        let mut body = hub_text.render_text();
        if let Some(grid) = &grid_text {
            body.push_str("\nspace grid:\n");
            for shard in grid.status() {
                body.push_str(&format!(
                    "  shard {} {} {}\n",
                    shard.index,
                    shard.addr,
                    if shard.healthy {
                        "healthy"
                    } else {
                        "UNHEALTHY"
                    }
                ));
            }
        }
        ("200 OK", "text/plain; charset=utf-8", body)
    });
    let hub_json = hub.clone();
    routes.register("/cluster.json", move || {
        let mut body = hub_json.render_json();
        if let Some(grid) = &grid {
            // Splice the grid object into the hub's top-level document.
            if let Some(close) = body.rfind('}') {
                body.truncate(close);
                body.push_str(&format!(r#","grid":{}}}"#, grid.render_json()));
            }
        }
        // Flight-recorder pressure: dropped events plus per-thread ring
        // occupancy, so retention pressure is visible before traces
        // silently vanish.
        if let Some(close) = body.rfind('}') {
            body.truncate(close);
            body.push_str(&format!(r#","flight":{}}}"#, flight_json()));
        }
        // Wire-path posture: frame volume, buffer-pool effectiveness and
        // server pipeline saturation, so a regression in the zero-copy
        // path shows up as a reuse-rate drop before it shows up as CPU.
        if let Some(close) = body.rfind('}') {
            body.truncate(close);
            body.push_str(&format!(r#","wire":{}}}"#, wire_json()));
        }
        ("200 OK", "application/json", body)
    });
    let hub_profile = hub.clone();
    let profiler_text = profiler.clone();
    routes.register("/profile", move || {
        (
            "200 OK",
            "text/plain; charset=utf-8",
            profiler_text.render_text(&hub_profile.stragglers()),
        )
    });
    routes.register("/profile.json", move || {
        (
            "200 OK",
            "application/json",
            profiler.render_json(&hub.stragglers()),
        )
    });
    acc_telemetry::serve_routed(bind, health, routes, acc_telemetry::HttpOptions::default())
}

/// The `"flight"` section of `/cluster.json`: loss and occupancy of the
/// flight recorder's per-thread rings.
fn flight_json() -> String {
    let mut out = format!(
        "{{\"dropped_events\":{},\"threads\":[",
        acc_telemetry::registry()
            .counter("telemetry.flight.dropped_events")
            .get()
    );
    for (i, t) in acc_telemetry::flight::occupancy().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"thread\":\"{}\",\"live\":{},\"kept\":{},\"capacity\":{}}}",
            acc_telemetry::json_escape(&t.thread),
            t.live,
            t.kept,
            t.capacity
        ));
    }
    out.push_str("]}");
    out
}

/// The `"wire"` section of `/cluster.json`: zero-copy wire-path health —
/// total frame traffic and read-buffer pool reuse.
fn wire_json() -> String {
    let r = acc_telemetry::registry();
    let hits = r.counter("remote.buffer_reuse_hits").get();
    let misses = r.counter("remote.buffer_reuse_misses").get();
    let reuse_pct = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64 * 100.0
    } else {
        0.0
    };
    format!(
        concat!(
            "{{\"frame_bytes\":{},\"buffer_reuse_hits\":{},",
            "\"buffer_reuse_misses\":{},\"buffer_reuse_pct\":{:.1}}}"
        ),
        r.counter("remote.frame_bytes").get(),
        hits,
        misses,
        reuse_pct,
    )
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

/// The assembled framework: space + federation + management + workers.
pub struct AdaptiveCluster {
    config: FrameworkConfig,
    epoch: Instant,
    #[allow(dead_code)]
    bus: Arc<DiscoveryBus>,
    lookup: Arc<LookupService>,
    _registrar: Registrar,
    space: SpaceHandle,
    grid: Option<Arc<PartitionedSpace>>,
    space_name: String,
    bundle_server: Arc<BundleServer>,
    registry: Arc<ExecutorRegistry>,
    monitor: Arc<MonitoringAgent>,
    hub: Arc<ClusterObserver>,
    profiler: Arc<JobProfiler>,
    collector: Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)>,
    manager: Manager,
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

    /// The hosted space.
    pub fn space(&self) -> SpaceHandle {
        self.space.clone()
    }

    /// The space grid, when the cluster was built over shards.
    pub fn grid(&self) -> Option<Arc<PartitionedSpace>> {
        self.grid.clone()
    }

    /// The store all cluster traffic goes through: the grid when one is
    /// configured, the in-process space otherwise.
    pub fn store(&self) -> StoreHandle {
        match &self.grid {
            Some(grid) => grid.clone(),
            None => self.space.clone(),
        }
    }

    /// The network management module.
    pub fn monitor(&self) -> Arc<MonitoringAgent> {
        self.monitor.clone()
    }

    /// The federation hub: merged per-worker history rings, task-level
    /// attribution and straggler verdicts (what `/cluster` renders).
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
    /// returns the address. Idempotent.
    pub fn serve_space(&mut self) -> std::io::Result<std::net::SocketAddr> {
        if self.space_server.is_none() {
            self.space_server = Some(SpaceServer::spawn(self.space.clone(), "127.0.0.1:0")?);
        }
        Ok(self.space_server.as_ref().expect("just set").addr())
    }

    /// The TCP space server, when [`AdaptiveCluster::serve_space`] has been
    /// called. Exposes operator levers like
    /// [`SpaceServer::disconnect_all`] (and failure injection in tests).
    pub fn space_server(&self) -> Option<&SpaceServer> {
        self.space_server.as_ref()
    }

    /// Adds a worker whose space access goes through the TCP proxy — the
    /// deployment shape, where worker machines reach the master's space
    /// over the network. Requires [`AdaptiveCluster::serve_space`].
    pub fn add_remote_worker(&mut self, spec: NodeSpec) -> std::io::Result<WorkerId> {
        let addr = self.serve_space()?;
        let proxy: StoreHandle = Arc::new(RemoteSpace::connect(addr)?);
        Ok(self.add_worker_with_store(spec, proxy))
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
        let store: StoreHandle = match &self.grid {
            Some(grid) => Arc::new(
                grid.reconnect()
                    .expect("space-grid shards reachable for new worker"),
            ),
            None => self.space.clone(),
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
            publish_metrics: true,
        })
        .expect("worker registration");
        let id = accept.join().expect("accept thread");
        debug_assert_eq!(id, runtime.id());

        // SNMP worker-agent for the node, including the worker runtime's
        // participation gauge.
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
        mib.register_gauge(oids::acc_worker_threads(), runtime.participation_gauge());
        let agent = Arc::new(Agent::new(self.config.community.clone(), mib));
        let session = self.manager.session(Box::new(InProcTransport::new(agent)));

        // Monitoring: register with the inference engine and start
        // polling, keyed by the node name the worker's heartbeat tuples
        // carry so both feeds merge into one federation view.
        self.monitor
            .watch_named(id, node.spec().name.clone(), session);

        self.workers.push(ManagedWorker { node, runtime });
        id
    }

    /// The managed workers.
    pub fn workers(&self) -> &[ManagedWorker] {
        &self.workers
    }

    /// Looks the space service up through the federation — the path a
    /// remote master uses — and returns its proxy.
    pub fn find_space(&self) -> Option<SpaceHandle> {
        let found = self.lookup.lookup_named(
            &self.space_name,
            &Attributes::build().set("kind", "tuple-space").done(),
        );
        found.first().and_then(|item| item.proxy::<Space>())
    }

    /// Runs an installed application to completion through the master
    /// module. The space is discovered via the federation, exactly as a
    /// Jini client would.
    pub fn run(&mut self, app: &mut dyn Application) -> RunReport {
        // Grid mode dispatches straight through the partitioned store;
        // otherwise the space is discovered via the federation, exactly
        // as a Jini client would.
        let store: StoreHandle = match &self.grid {
            Some(grid) => grid.clone(),
            None => self.find_space().expect("space registered in federation") as _,
        };
        let mut master = Master::new(store);
        master.dispatch_chunk = self.config.dispatch_chunk;
        master.observer = Some(self.hub.clone());
        master.profiler = Some(self.profiler.clone());
        // Scatter-gather fan-out attribution: per-shard op counts/latency
        // are process-wide histograms, so the job's share is the delta
        // across the run.
        let fanout_before = self.grid.as_ref().map(|g| g.fanout_profile());
        let report = master.run(app).expect("space open for the run's duration");
        if let (Some(grid), Some(before)) = (&self.grid, fanout_before) {
            self.profiler
                .record_fanout(&app.job_name(), grid.fanout_since(&before));
        }
        report
    }

    /// The per-job waterfall profiler (the state behind `/profile`).
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

    /// Tears the cluster down: stops monitoring, closes the space (waking
    /// blocked workers), and joins every worker thread.
    pub fn shutdown(mut self) {
        if let Some((stop, thread)) = self.sampler.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = thread.join();
        }
        if let Some((stop, thread)) = self.collector.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = thread.join();
        }
        self.monitor.stop();
        self.space.close();
        // Closing the grid closes the shard spaces themselves, waking any
        // worker blocked on a grid take — the partitioned analogue of
        // closing the in-process space above.
        if let Some(grid) = self.grid.take() {
            grid.close();
        }
        for worker in self.workers.drain(..) {
            worker.runtime.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let seen = cluster
                .monitor()
                .decisions()
                .iter()
                .any(|d| d.worker == busy && d.external_load >= 90);
            if seen && cluster.workers()[0].state() != WorkerState::Running {
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
    fn find_space_through_federation() {
        let cluster = ClusterBuilder::new(fast_config())
            .space_name("fed-space")
            .build();
        let space = cluster.find_space().unwrap();
        assert_eq!(space.name(), "fed-space");
        cluster.shutdown();
    }

    #[test]
    #[should_panic(expected = "install an application")]
    fn add_worker_requires_install() {
        let mut cluster = ClusterBuilder::new(fast_config()).build();
        cluster.add_worker(NodeSpec::new("w", 800, 256));
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
        // With a worker watched, the heartbeat check reports sample age.
        let mut app = SumSquares { n: 1, total: 0 };
        cluster.install(&app);
        cluster.add_worker(NodeSpec::new("w0", 800, 256));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = http_get(addr, "/healthz");
            if health.contains("last sample") {
                break;
            }
            assert!(Instant::now() < deadline, "no heartbeat: {health}");
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
        assert!(health.contains("2/2 shards healthy"), "got: {health}");
        let json = http_get(addr, "/cluster.json");
        assert!(json.contains(r#""grid":{"total":2"#), "got: {json}");
        // Wire-path posture rides along: the run above pushed real frames
        // through RemoteSpace connections, so frame traffic is non-zero.
        assert!(json.contains(r#""wire":{"frame_bytes":"#), "got: {json}");
        assert!(json.contains(r#""buffer_reuse_hits":"#), "got: {json}");
        assert!(json.contains(r#""buffer_reuse_pct":"#), "got: {json}");
        let text = http_get(addr, "/cluster");
        assert!(text.contains("space grid:"), "got: {text}");
        cluster.shutdown();
    }
}
