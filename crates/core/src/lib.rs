//! # acc-core
//!
//! The adaptive cluster-computing framework itself — the paper's primary
//! contribution (§4). It wires the substrates together:
//!
//! * the **master module** ([`Master`]) decomposes an application into
//!   tasks, writes them into a JavaSpaces-style [`acc_tuplespace::Space`],
//!   and aggregates the results the workers write back;
//! * the **worker module** ([`WorkerRuntime`]) is a thin, remotely
//!   configured process: application code arrives as a [`CodeBundle`] at
//!   runtime, tasks are pulled from the space by value-based lookup, and a
//!   state machine (Running / Paused / Stopped) obeys management signals
//!   *between* tasks — the current task always completes and its result is
//!   written back, so work is never lost;
//! * the **network management module** ([`MonitoringAgent`] +
//!   [`InferenceEngine`] + the rule-base protocol in [`rulebase`]) polls
//!   each worker's CPU load over SNMP and maps it to Start / Stop / Pause /
//!   Resume signals using threshold rules, keeping the framework
//!   non-intrusive on machines their owners are using.
//!
//! [`AdaptiveCluster`] assembles all of the above for the common case; see
//! the `examples/` directory of the workspace for end-to-end usage.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod framework;
pub mod inference;
pub mod loader;
pub mod master;
pub mod metrics;
pub mod monitor;
pub mod policy;
pub mod rulebase;
mod series;
pub mod signal;
pub mod task;
pub mod worker;

pub use checkpoint::CheckpointState;
pub use config::{FrameworkConfig, Thresholds};
pub use framework::{AdaptiveCluster, ClusterBuilder};
pub use inference::{desired_for_load, DesiredState, InferenceEngine};
pub use loader::{BundleServer, CodeBundle, ExecutorRegistry};
pub use master::{Master, RunReport};
pub use metrics::PhaseTimes;
pub use monitor::{DecisionLogEntry, MonitoringAgent};
pub use policy::{execute_policed, ExecutionPolicy, PolicedError, PolicyViolation};
pub use rulebase::{client_register, duplex_pair, Duplex, RuleBaseServer, RuleMessage, WorkerId};
pub use signal::{Signal, SignalLogEntry, WorkerState};
pub use task::{
    result_template, task_template, tuple_trace_context, Application, ExecError, ResultEntry,
    TaskEntry, TaskExecutor, TaskSpec,
};
pub use worker::{TraceRetention, WorkerConfig, WorkerRuntime};
