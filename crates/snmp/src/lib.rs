//! # acc-snmp
//!
//! The GET the framework's monitor makes: the monitoring substrate that
//! observes worker nodes (paper §4.1, "Network Management Module").
//!
//! The paper's monitoring agent polls per-node SNMP worker-agents for
//! system parameters such as CPU load and available memory. This crate is
//! that poll, GET and RESPONSE only:
//!
//! * [`Oid`] — object identifiers, and the [`oids`] the framework polls;
//! * [`codec`] — a BER-style TLV binary encoding for values and messages;
//! * [`Pdu`]/[`Message`] — GET and RESPONSE protocol data units;
//! * [`Mib`] — the agent-side read-only variables (constants, gauges);
//! * [`Agent`] — answers GETs against a MIB, with the standard
//!   host-resources variables used by the framework;
//! * [`Session`] — the manager side: one community, one transport, and a
//!   request-id check on every response;
//! * [`transport`] — in-process and TCP-loopback request/response
//!   transports with length-prefixed framing.
//!
//! ```
//! use acc_snmp::{Agent, Mib, Oid, Session, SnmpValue, transport::InProcTransport};
//! use std::sync::Arc;
//!
//! let mut mib = Mib::new();
//! mib.register_gauge(Oid::parse("1.3.6.1.2.1.25.3.3.1.2.1").unwrap(), || 17);
//! let agent = Arc::new(Agent::new("public", mib));
//!
//! let session = Session::new("public", Box::new(InProcTransport::new(agent)));
//! let value = session.get(&Oid::parse("1.3.6.1.2.1.25.3.3.1.2.1").unwrap()).unwrap();
//! assert_eq!(value, SnmpValue::Gauge(17));
//! ```

#![warn(missing_docs)]

mod agent;
pub mod codec;
mod manager;
mod mib;
mod oid;
mod pdu;
pub mod transport;

pub use agent::{host_resources_mib, Agent};
pub use manager::Session;
pub use mib::Mib;
pub use oid::{oids, Oid, OidParseError};
pub use pdu::{ErrorStatus, Message, Pdu, PduType, SnmpError, SnmpValue, VERSION_2C};
