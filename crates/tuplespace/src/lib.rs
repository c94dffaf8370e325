//! # acc-tuplespace
//!
//! A JavaSpaces-style associative tuple space: the coordination substrate of
//! the adaptive cluster-computing framework (Batheja & Parashar, CLUSTER
//! 2001, §3).
//!
//! A [`Space`] is a shared repository of [`Tuple`]s. Processes cooperate by
//! the flow of tuples into and out of the space:
//!
//! * [`Space::write`] stores a tuple under a [`Lease`];
//! * [`Space::read`] returns a copy of a tuple matching a [`Template`]
//!   (associative, value-based lookup), blocking until one arrives;
//! * [`Space::take`] removes and returns a matching tuple;
//! * [`Txn`] transactions make groups of operations atomic: in the event of a
//!   partial failure the transaction either completes or has no effect,
//!   mirroring the paper's fault-tolerance claim for JavaSpaces.
//!
//! ```
//! use acc_tuplespace::{Space, Tuple, Template};
//! use std::time::Duration;
//!
//! let space = Space::new("demo");
//! space.write(Tuple::build("task").field("id", 7i64).field("body", "compute").done()).unwrap();
//!
//! // Value-based associative lookup: match any `task` with id == 7.
//! let tmpl = Template::build("task").eq("id", 7i64).done();
//! let t = space.take(&tmpl, Some(Duration::from_secs(1))).unwrap().unwrap();
//! assert_eq!(t.get_str("body"), Some("compute"));
//! ```

#![warn(missing_docs)]

mod codec;
mod error;
mod fx;
mod journal;
mod lease;
mod payload;
pub mod remote;
mod shape;
mod space;
mod stats;
mod store;
mod template;
mod tuple;
mod value;

pub use acc_durability::{SyncPolicy, WalOptions};
pub use bytes::Bytes;
pub use error::{SpaceError, SpaceResult};
pub use lease::Lease;
pub use payload::{decode_frame, NameInterner, Payload, PayloadError, WireReader, WireWriter};
pub use remote::{Pending, PendingBatch, RemoteSpace, SpaceServer};
pub use shape::Shape;
pub use space::{EntryId, Space, SpaceHandle, Txn, TxnId, TxnState};
pub use stats::SpaceStats;
pub use store::{Batch, BatchTxn, StoreHandle, TupleStore};
pub use template::{Constraint, Template, TemplateBuilder};
pub use tuple::{Tuple, TupleBuilder};
pub use value::Value;
