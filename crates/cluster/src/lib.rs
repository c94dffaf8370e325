//! # acc-cluster
//!
//! The cluster-node model: heterogeneous machine specs, a CPU meter that
//! blends framework work with background (interactive-user) load, a usage
//! history recorder, and the paper's two synthetic load simulators
//! (§5.2.2): *load simulator 1* raises worker CPU to 30–50% with scripted
//! RTP/HTTP/multimedia traffic patterns; *load simulator 2* pegs the CPU at
//! 100%.
//!
//! Nodes here are models, not OS processes: the SNMP agent on each node
//! exports [`Node::cpu_load`] as `hrProcessorLoad`, which is exactly the
//! parameter the paper's monitoring agent polls.

#![warn(missing_docs)]

mod loadgen;
mod meter;
mod node;
pub mod observer;
pub mod profiler;
mod testbeds;

pub use loadgen::{LoadGenerator, LoadPhase, LoadTrace, TrafficKind};
pub use meter::{LoadMix, UsageHistory, UsagePoint};
pub use node::{Node, NodeSpec};
pub use observer::{ClusterObserver, ObserverConfig, TaskTiming};
pub use profiler::{JobProfiler, JobRecorder};
pub use testbeds::{option_pricing_testbed, ray_tracing_testbed, Testbed, MASTER_SPEC};
