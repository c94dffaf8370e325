//! A network-accessible space: TCP server and remote client.
//!
//! JavaSpaces is "a shared, **network-accessible** repository for Java
//! objects" — masters and workers on different machines reach the same
//! space. [`SpaceServer`] serves an in-process [`Space`](crate::Space) over
//! TCP; [`RemoteSpace`] is the client-side proxy and implements
//! [`TupleStore`](crate::TupleStore), so the framework's master and workers
//! work against it unchanged.
//!
//! **Trust model:** the protocol is unauthenticated — any connector can
//! read, take, or close the space, matching the paper's era (JavaSpaces
//! relied on the deployment network's perimeter; its community-string-like
//! controls lived in Jini security policies, out of scope here). Bind to
//! loopback or a trusted segment.
//!
//! There is one wire format and one path through each side:
//!
//! * `proto` owns the frame — `len | version | flags | seq | [trace
//!   context] | op tag | body` — the request/response codecs, the error
//!   code table and the buffered frame I/O. Nothing outside it knows the
//!   layout.
//! * `server` accepts connections and serves every frame inline on the
//!   connection's thread, in arrival order, echoing the request's `seq`.
//!   Blocking `read`/`take` block on the *server*, exactly like a
//!   JavaSpaces proxy blocking on the remote call.
//! * `client` is the proxy: one exchange routine (write *n* frames, read
//!   *n* frames, check each echoed `seq`, reconnect and resend once) that
//!   a plain call uses with *n* = 1 and the batch operations use
//!   split-phase, so several servers' round trips can overlap.
//!
//! ```
//! use acc_tuplespace::{RemoteSpace, Space, SpaceServer, Template, Tuple, TupleStore};
//!
//! let space = Space::new("shared");
//! let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
//! let proxy = RemoteSpace::connect(server.addr()).unwrap();
//!
//! proxy.write(Tuple::build("task").field("id", 1i64).done()).unwrap();
//! let got = space.take_if_exists(&Template::of_type("task")).unwrap();
//! assert_eq!(got.unwrap().get_int("id"), Some(1));
//! ```

use std::sync::Arc;

mod client;
mod proto;
mod server;
#[cfg(test)]
mod tests;

pub use client::{Pending, PendingBatch, RemoteSpace};
pub use server::{ServerOptions, SpaceServer};

/// Wire-path series: the error path (reconnects, restored tuples) and the
/// traffic — bytes moved and frames read.
struct NetSeries {
    reconnects: Arc<acc_telemetry::Counter>,
    tuples_restored: Arc<acc_telemetry::Counter>,
    /// Total frame bytes moved (length prefixes + frames, both directions).
    frame_bytes: Arc<acc_telemetry::Counter>,
    /// Frames read, each into its own allocation (the series keeps the
    /// name it had when a per-connection pool served some reads).
    frames_read: Arc<acc_telemetry::Counter>,
}

fn net_series() -> &'static NetSeries {
    static SERIES: std::sync::OnceLock<NetSeries> = std::sync::OnceLock::new();
    SERIES.get_or_init(|| {
        let r = acc_telemetry::registry();
        NetSeries {
            reconnects: r.counter("remote.reconnects"),
            tuples_restored: r.counter("server.tuples_restored"),
            frame_bytes: r.counter("remote.frame_bytes"),
            frames_read: r.counter("remote.buffer_reuse_misses"),
        }
    })
}
