//! # adaptive-spaces
//!
//! A Rust reproduction of *“A Framework for Adaptive Cluster Computing using
//! JavaSpaces”* (Batheja & Parashar, IEEE CLUSTER 2001): opportunistic
//! master–worker parallel computing over a JavaSpaces-style tuple space, with
//! SNMP-based system-state monitoring driving non-intrusive adaptation.
//!
//! This facade crate re-exports the workspace's crates under one roof:
//!
//! * [`space`] — the tuple space (write/read/take, templates, transactions,
//!   leases, events);
//! * [`spacegrid`] — the partitioned multi-server space: hash routing and
//!   scatter-gather over N space servers behind the same store interface;
//! * [`snmp`] — the monitoring stack (OIDs, PDUs, MIB, agent, manager);
//! * [`cluster`] — node models and the paper's synthetic load simulators;
//! * [`framework`] — the adaptive master–worker framework itself;
//! * [`apps`] — the three evaluation applications (option pricing, ray
//!   tracing, web-page pre-fetching);
//! * [`sim`] — the deterministic discrete-event simulator that regenerates
//!   the paper's figures;
//! * [`telemetry`] — the workspace-wide metrics registry and the flight
//!   recorder every layer's spans and events go to;
//! * [`durability`] — the write-ahead log, snapshot, and crash-recovery
//!   subsystem backing durable spaces and master checkpoints.
//!
//! See the repository README for a quickstart and `DESIGN.md` for the
//! complete system inventory.

pub use acc_apps as apps;
pub use acc_cluster as cluster;
pub use acc_core as framework;
pub use acc_durability as durability;
pub use acc_sim as sim;
pub use acc_snmp as snmp;
pub use acc_spacegrid as spacegrid;
pub use acc_telemetry as telemetry;
pub use acc_tuplespace as space;
