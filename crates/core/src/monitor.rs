//! The monitoring agent: SNMP polling feeding the inference engine.
//!
//! The network management module's sensing half (paper §4.1): it keeps one
//! SNMP session per registered worker, polls the worker's CPU load at a
//! fixed interval, and hands each sample to the [`InferenceEngine`]; any
//! resulting signal is delivered through the rule-base server.
//!
//! Two variables are polled per tick: `hrProcessorLoad.1` (total CPU) and
//! the private `acc_framework_load` (the worker process's own share). The
//! inference engine decides on their difference — the *external* load — so
//! the framework never reacts to its own computation.
//!
//! Each sample also goes to the [`ClusterObserver`], which keeps the
//! worker's load history for the cluster view; the engine then acts on
//! the *effective* load the observer returns — floored by the recent
//! mean, and saturated for a flagged compute straggler — rather than on
//! the bare last sample.
//!
//! A poll that fails is counted by its kind of failure
//! (`monitor.failed_polls.{kind}`, the `monitor` section of
//! `/cluster.json`) and shown as the worker row's `last_poll`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_cluster::ClusterObserver;
use acc_snmp::{oids, Session, SnmpError, SnmpValue};
use acc_telemetry::{event, Json};
use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;

use crate::config::FrameworkConfig;
use crate::inference::InferenceEngine;
use crate::rulebase::{RuleBaseServer, RuleMessage, WorkerId};
use crate::series::{failed_polls, series};
use crate::signal::{Signal, WorkerState};

/// One monitoring decision: the data behind the adaptation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionLogEntry {
    /// Milliseconds since the experiment epoch.
    pub at_ms: u64,
    /// The worker sampled.
    pub worker: WorkerId,
    /// Total CPU load polled from the node.
    pub total_load: u64,
    /// External (non-framework) load — the decision variable: the
    /// *effective* load the engine acted on (see
    /// [`ClusterObserver::effective_load`]), not the raw sample.
    pub external_load: u64,
    /// Whether the observer had this worker flagged as a straggler when
    /// the decision was taken.
    pub straggler: bool,
    /// The signal sent, if the inference engine acted.
    pub signal: Option<Signal>,
}

/// Why a monitor poll failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PollFailure {
    /// The agent did not answer in time.
    Timeout,
    /// The agent checks a different community string.
    BadCommunity,
    /// The transport failed: the agent is gone or unreachable.
    Transport,
    /// An answer came, but not a reading of what was asked: malformed
    /// bytes, a mismatched request id, or an agent error status.
    Decode,
}

impl PollFailure {
    /// Every kind, in the order of the `monitor` section of `/cluster.json`.
    pub(crate) const ALL: [PollFailure; 4] = [
        PollFailure::Timeout,
        PollFailure::BadCommunity,
        PollFailure::Transport,
        PollFailure::Decode,
    ];

    /// The kind of failure a poll's error is.
    fn of(error: &SnmpError) -> PollFailure {
        match error {
            SnmpError::Timeout => PollFailure::Timeout,
            SnmpError::BadCommunity => PollFailure::BadCommunity,
            SnmpError::Transport(_) => PollFailure::Transport,
            SnmpError::Decode(_)
            | SnmpError::Agent(_)
            | SnmpError::RequestIdMismatch
            | SnmpError::NoSuchObject => PollFailure::Decode,
        }
    }

    /// The kind's name in series names and `/cluster.json`.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            PollFailure::Timeout => "timeout",
            PollFailure::BadCommunity => "bad_community",
            PollFailure::Transport => "transport",
            PollFailure::Decode => "decode",
        }
    }
}

/// The `monitor` section of `/cluster.json`: failed polls by kind, summed
/// over every watched worker since the process started.
pub(crate) fn monitor_json() -> Json {
    let failed = PollFailure::ALL
        .iter()
        .zip(failed_polls())
        .map(|(failure, count)| (failure.as_str(), count.get().into()));
    Json::object([("failed_polls", Json::object(failed))])
}

/// The decision log: every decision that sent a signal, and the last
/// `depth` per worker that sent none, in the order they were taken — so a
/// monitor polling at 10 Hz for days holds its adaptation history, not
/// every idle poll.
#[derive(Debug)]
struct DecisionLog {
    entries: Vec<DecisionLogEntry>,
    depth: usize,
}

impl DecisionLog {
    fn push(&mut self, entry: DecisionLogEntry) {
        if entry.signal.is_none() {
            let quiet = |e: &DecisionLogEntry| e.worker == entry.worker && e.signal.is_none();
            if self.entries.iter().filter(|e| quiet(e)).count() >= self.depth {
                let Some(oldest) = self.entries.iter().position(quiet) else {
                    return; // a depth of 0 keeps none
                };
                self.entries.remove(oldest);
            }
        }
        self.entries.push(entry);
    }
}

struct Watcher {
    stop: Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

/// The sensing + deciding half of the network management module.
pub struct MonitoringAgent {
    config: FrameworkConfig,
    epoch: Instant,
    engine: Arc<Mutex<InferenceEngine>>,
    rulebase: Arc<RuleBaseServer>,
    decisions: Mutex<DecisionLog>,
    watchers: Mutex<Vec<Watcher>>,
    // Raw samples go in; effective loads and straggler verdicts come back.
    observer: Arc<ClusterObserver>,
    // Milliseconds-since-epoch of the newest sample, plus one so a sample
    // in the epoch's first millisecond is distinguishable from "never".
    last_sample_ms: Arc<AtomicU64>,
}

impl std::fmt::Debug for MonitoringAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitoringAgent")
            .field("watchers", &self.watchers.lock().len())
            .finish()
    }
}

impl MonitoringAgent {
    /// Creates the agent (and its rule-base server) for a deployment,
    /// feeding every polled sample to `observer`.
    pub fn new(
        config: FrameworkConfig,
        epoch: Instant,
        observer: Arc<ClusterObserver>,
    ) -> Arc<MonitoringAgent> {
        let engine = Arc::new(Mutex::new(InferenceEngine::new(
            config.thresholds,
            config.hysteresis,
        )));
        let engine_for_acks = engine.clone();
        let rulebase = RuleBaseServer::new(Arc::new(move |id, msg| match msg {
            RuleMessage::Ack { new_state, .. } => engine_for_acks.lock().on_ack(id, new_state),
            RuleMessage::Bye => engine_for_acks.lock().unregister(id),
            _ => {}
        }));
        let decisions = Mutex::new(DecisionLog {
            entries: Vec::new(),
            depth: config.history_depth,
        });
        Arc::new(MonitoringAgent {
            config,
            epoch,
            engine,
            rulebase,
            decisions,
            watchers: Mutex::new(Vec::new()),
            observer,
            last_sample_ms: Arc::new(AtomicU64::new(0)),
        })
    }

    /// How long ago the newest worker sample arrived — the health signal
    /// the `/healthz` endpoint exposes. `None` while no watcher is running
    /// (a master-only deployment is not unhealthy, just unwatched).
    pub fn sample_age(&self) -> Option<Duration> {
        if self.watchers.lock().is_empty() {
            return None;
        }
        let stamp = self.last_sample_ms.load(Ordering::Relaxed);
        let elapsed = self.epoch.elapsed().as_millis() as u64;
        // Stamp 0 means no sample yet: the full elapsed time has passed.
        Some(Duration::from_millis(
            elapsed.saturating_sub(stamp.saturating_sub(1)),
        ))
    }

    fn mark_sample(&self) {
        self.last_sample_ms.store(
            self.epoch.elapsed().as_millis() as u64 + 1,
            Ordering::Relaxed,
        );
    }

    /// The rule-base server workers register with.
    pub fn rulebase(&self) -> Arc<RuleBaseServer> {
        self.rulebase.clone()
    }

    /// The inference engine's belief about a worker's state.
    pub fn state_of(&self, id: WorkerId) -> Option<WorkerState> {
        self.engine.lock().state_of(id)
    }

    /// The decisions taken so far: every one that sent a signal, and the
    /// last `history_depth` per worker that sent none.
    pub fn decisions(&self) -> Vec<DecisionLogEntry> {
        self.decisions.lock().entries.clone()
    }

    /// Registers a worker with the inference engine and starts its polling
    /// loop over the given SNMP session. Samples and straggler lookups
    /// reach the observer under `name`, the key the worker's result tuples
    /// carry.
    pub fn watch(self: &Arc<Self>, id: WorkerId, name: impl Into<String>, session: Session) {
        let name = name.into();
        self.engine.lock().register(id);
        let (stop_tx, stop_rx) = bounded::<()>(1);
        // Hold the agent weakly: a watch thread must not keep the agent
        // alive, or dropping the cluster without shutdown() would leak
        // pollers forever (Arc cycle agent → watchers → thread → agent).
        let agent = Arc::downgrade(self);
        let interval = self.config.poll_interval;
        let thread = std::thread::spawn(move || {
            let oids_wanted = [oids::hr_processor_load_1(), oids::acc_framework_load()];
            loop {
                let Some(agent) = agent.upgrade() else { break };
                match session.get_many(&oids_wanted) {
                    Err(error) => {
                        let failure = PollFailure::of(&error);
                        agent.observer.record_poll_failure(&name, failure.as_str());
                        failed_polls()[failure as usize].inc();
                        event!(
                            "monitor.poll_failed",
                            worker = id.0,
                            kind = failure.as_str(),
                        );
                    }
                    Ok(values) => {
                        let total = gauge(&values, 0);
                        let framework = gauge(&values, 1);
                        let external = total.saturating_sub(framework);
                        agent.observer.record_load_sample(&name, external, total);
                        let (effective, straggler) = agent.observer.effective_load(&name, external);
                        let signal = agent.engine.lock().on_sample(id, effective);
                        series().monitor_samples.inc();
                        agent.mark_sample();
                        if let Some(sig) = signal {
                            event!(
                                "monitor.decision",
                                worker = id.0,
                                external_load = effective,
                                straggler = straggler,
                                signal = format!("{sig:?}"),
                            );
                            agent.rulebase.send_signal(id, sig);
                        }
                        agent.decisions.lock().push(DecisionLogEntry {
                            at_ms: agent.epoch.elapsed().as_millis() as u64,
                            worker: id,
                            total_load: total,
                            external_load: effective,
                            straggler,
                            signal,
                        });
                    }
                }
                drop(agent);
                // Interruptible sleep: stop() wakes us immediately.
                match stop_rx.recv_timeout(interval) {
                    Ok(()) => break,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                }
            }
        });
        self.watchers.lock().push(Watcher {
            stop: stop_tx,
            thread,
        });
    }

    /// Stops every polling loop and joins the threads.
    pub fn stop(&self) {
        let watchers: Vec<Watcher> = self.watchers.lock().drain(..).collect();
        for w in &watchers {
            let _ = w.stop.try_send(());
        }
        for w in watchers {
            let _ = w.thread.join();
        }
    }
}

impl Drop for MonitoringAgent {
    fn drop(&mut self) {
        // Watch threads hold the agent weakly, so Drop can run while they
        // still exist; their next upgrade() fails and they exit. Nothing to
        // join here (the handles may be the very threads dropping us).
        self.watchers.lock().clear();
    }
}

fn gauge(values: &[(acc_snmp::Oid, SnmpValue)], index: usize) -> u64 {
    values.get(index).and_then(|(_, v)| v.as_u64()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rulebase::{client_register, duplex_pair};
    use acc_cluster::{Node, NodeSpec, ObserverConfig, TaskTiming};
    use acc_snmp::{host_resources_mib, transport::InProcTransport, Agent};
    use std::time::Duration;

    fn observer() -> Arc<ClusterObserver> {
        Arc::new(ClusterObserver::new(ObserverConfig::default()))
    }

    fn node_session(node: &Node) -> Session {
        node_session_counting(node, Arc::default())
    }

    /// A session to `node`'s agent that counts the polls it answers.
    fn node_session_counting(node: &Node, polls: Arc<AtomicU64>) -> Session {
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
        let load = node.load();
        mib.register_gauge(oids::acc_framework_load(), move || {
            polls.fetch_add(1, Ordering::Relaxed);
            load.framework_effective()
        });
        let agent = Arc::new(Agent::new("public", mib));
        Session::new("public", Box::new(InProcTransport::new(agent)))
    }

    #[test]
    fn idle_node_gets_started_loaded_node_gets_stopped() {
        let config = FrameworkConfig {
            poll_interval: Duration::from_millis(10),
            ..FrameworkConfig::default()
        };
        let monitor = MonitoringAgent::new(config, Instant::now(), observer());
        let node = Node::new(NodeSpec::new("w01", 800, 256));
        let session = node_session(&node);

        // Fake worker endpoint: a bare duplex we poll manually.
        let (client, server_side) = duplex_pair();
        let rb = monitor.rulebase();
        let reg = std::thread::spawn(move || {
            client_register(&client, "w01", Duration::from_secs(2)).map(|id| (client, id))
        });
        rb.accept(server_side, Duration::from_secs(2)).unwrap();
        let (client, id) = reg.join().unwrap().unwrap();

        // Nothing watched yet: no sample to age.
        assert_eq!(monitor.sample_age(), None);
        monitor.watch(id, "w01", session);
        // Idle → Start.
        let msg = client.recv_timeout(Duration::from_secs(2)).unwrap();
        // A signal implies a sample arrived; it must be fresh.
        assert!(monitor.sample_age().unwrap() < Duration::from_secs(5));
        assert_eq!(
            msg,
            RuleMessage::Signal {
                signal: Signal::Start
            }
        );
        client.send(RuleMessage::Ack {
            signal: Signal::Start,
            new_state: WorkerState::Running,
        });
        // Pile on background load → Stop.
        node.load().set_background(95);
        let msg = client.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(
            msg,
            RuleMessage::Signal {
                signal: Signal::Stop
            }
        );
        client.send(RuleMessage::Ack {
            signal: Signal::Stop,
            new_state: WorkerState::Stopped,
        });
        monitor.stop();
        let decisions = monitor.decisions();
        assert!(decisions.iter().any(|d| d.signal == Some(Signal::Start)));
        assert!(decisions.iter().any(|d| d.signal == Some(Signal::Stop)));
    }

    /// Polled far past `history_depth`, the log holds the one signal
    /// sent (the idle node's `Start`, never acknowledged, so nothing
    /// follows it) and the last `history_depth` quiet polls, in order.
    #[test]
    fn the_decision_log_keeps_signals_and_the_last_quiet_polls() {
        const DEPTH: usize = 4;
        let config = FrameworkConfig {
            poll_interval: Duration::from_millis(1),
            history_depth: DEPTH,
            ..FrameworkConfig::default()
        };
        let monitor = MonitoringAgent::new(config, Instant::now(), observer());
        let node = Node::new(NodeSpec::new("w04", 800, 256));
        let (client, server_side) = duplex_pair();
        let rb = monitor.rulebase();
        let reg = std::thread::spawn(move || {
            client_register(&client, "w04", Duration::from_secs(2)).map(|id| (client, id))
        });
        rb.accept(server_side, Duration::from_secs(2)).unwrap();
        let (_client, id) = reg.join().unwrap().unwrap();
        let polls = Arc::new(AtomicU64::new(0));
        monitor.watch(id, "w04", node_session_counting(&node, polls.clone()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while polls.load(Ordering::Relaxed) < 25 * DEPTH as u64 {
            assert!(
                Instant::now() < deadline,
                "the monitor never polled 100 times"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        monitor.stop();
        let decisions = monitor.decisions();
        assert_eq!(decisions.len(), 1 + DEPTH, "{decisions:?}");
        assert_eq!(decisions[0].signal, Some(Signal::Start));
        assert!(decisions[1..].iter().all(|d| d.signal.is_none()));
        assert!(decisions.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    #[test]
    fn framework_load_is_discounted() {
        let config = FrameworkConfig {
            poll_interval: Duration::from_millis(10),
            ..FrameworkConfig::default()
        };
        let monitor = MonitoringAgent::new(config, Instant::now(), observer());
        let node = Node::new(NodeSpec::new("w02", 800, 256));
        // The node is busy — but it's all framework work.
        node.load().set_framework(98);
        let session = node_session(&node);
        let (client, server_side) = duplex_pair();
        let rb = monitor.rulebase();
        let reg = std::thread::spawn(move || {
            client_register(&client, "w02", Duration::from_secs(2)).map(|id| (client, id))
        });
        rb.accept(server_side, Duration::from_secs(2)).unwrap();
        let (client, id) = reg.join().unwrap().unwrap();
        monitor.watch(id, "w02", session);
        // External load is 0 → the worker is asked to Start, never Stop.
        let msg = client.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(
            msg,
            RuleMessage::Signal {
                signal: Signal::Start
            }
        );
        monitor.stop();
        assert!(monitor
            .decisions()
            .iter()
            .all(|d| d.external_load == 0 && d.total_load >= 98));
    }

    #[test]
    fn a_flagged_straggler_reads_saturated_on_every_logged_decision() {
        let config = FrameworkConfig {
            poll_interval: Duration::from_millis(5),
            ..FrameworkConfig::default()
        };
        // "w03" computes 50x slower than its peer: flagged before the
        // first poll, on an otherwise idle node.
        let observer = observer();
        for _ in 0..10 {
            for (worker, compute_us) in [("w03", 50_000), ("peer", 1_000)] {
                let timing = TaskTiming {
                    compute_us,
                    ..TaskTiming::default()
                };
                observer.record_attribution("job", worker, &timing);
            }
        }
        let monitor = MonitoringAgent::new(config, Instant::now(), observer);
        let node = Node::new(NodeSpec::new("w03", 800, 256));
        let session = node_session(&node);
        let (client, server_side) = duplex_pair();
        let rb = monitor.rulebase();
        let reg = std::thread::spawn(move || {
            client_register(&client, "w03", Duration::from_secs(2)).map(|id| (client, id))
        });
        rb.accept(server_side, Duration::from_secs(2)).unwrap();
        let (_client, id) = reg.join().unwrap().unwrap();
        monitor.watch(id, "w03", session);
        let deadline = Instant::now() + Duration::from_secs(5);
        while monitor.decisions().len() < 20 {
            assert!(Instant::now() < deadline, "monitor never polled 20 times");
            std::thread::sleep(Duration::from_millis(5));
        }
        monitor.stop();
        let decisions = monitor.decisions();
        assert!(
            decisions
                .iter()
                .all(|d| d.external_load == 100 && d.straggler && d.signal.is_none()),
            "{decisions:?}"
        );
    }
}
