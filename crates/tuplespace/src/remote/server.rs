//! The serving side: accept loop, connection limits, and the one serve
//! path — every frame is decoded, served against the space and answered
//! inline on its connection's thread, in arrival order. Also owns the
//! connection's transactions, which its end aborts, and the lost-take
//! protection for bare takes: tuples removed for a response that could
//! not be delivered go back into the space.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use acc_telemetry::TraceContext;
use parking_lot::Mutex;

use super::net_series;
use super::proto::{
    self, error_encode, lease_from_ms, Frame, FrameEncoder, FrameReader, Request, Response,
    TxnHeader, COALESCE_LIMIT, MAX_FRAME,
};
use crate::error::{SpaceError, SpaceResult};
use crate::lease::Lease;
use crate::payload::NameInterner;
use crate::space::{EntryId, Space, Txn};
use crate::store::TupleStore;
use crate::tuple::Tuple;

/// Resource limits for a [`SpaceServer`]. Each accepted connection owns one
/// service thread, so an unbounded accept loop lets one misbehaving client
/// pool exhaust the server; these knobs bound both the thread count and how
/// long a silent connection may pin its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Max idle time between requests on a connection before it is dropped
    /// (`None` = wait forever). Does not limit blocking `read`/`take`
    /// service time — while those wait on the space, the socket is idle on
    /// the *client's* side, not the server's — nor a connection holding an
    /// open transaction, whose holder may compute for longer than this
    /// before it commits. A dead holder *process*'s socket closes, which
    /// aborts; a holder *host* that vanishes without closing it leaves the
    /// connection, and its transaction, open (there is no keepalive).
    pub read_timeout: Option<Duration>,
    /// Max time a response write may block before the connection is
    /// dropped (`None` = wait forever).
    pub write_timeout: Option<Duration>,
    /// Max concurrently served connections; connections accepted over this
    /// limit are dropped immediately.
    pub max_connections: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_connections: 128,
        }
    }
}

type ConnRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// Serves one space over TCP loopback/network.
#[derive(Debug)]
pub struct SpaceServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// Live served connections, so drop can actively hang up on clients
    /// (service threads are detached; shutting their sockets down is what
    /// unblocks and ends them).
    conns: ConnRegistry,
    observer: Option<acc_telemetry::HttpServer>,
}

impl SpaceServer {
    /// Binds an ephemeral port on the given address (`"127.0.0.1:0"` for
    /// loopback) and starts serving with [`ServerOptions::default`].
    pub fn spawn(space: Arc<Space>, bind: &str) -> std::io::Result<SpaceServer> {
        SpaceServer::spawn_with(space, bind, ServerOptions::default())
    }

    /// Like [`SpaceServer::spawn_with`], plus a scrape endpoint
    /// (`/metrics`, `/metrics.json`, `/healthz`, `/spans`) on a second
    /// bind — the server-side half of the observability plane. `/healthz`
    /// checks that the served space is open and its journal flushes.
    pub fn spawn_observed(
        space: Arc<Space>,
        bind: &str,
        opts: ServerOptions,
        observe_bind: &str,
    ) -> std::io::Result<SpaceServer> {
        let health = acc_telemetry::HealthChecks::new();
        let space_open = space.clone();
        health.register("space", move || {
            if space_open.is_closed() {
                Err("space closed".into())
            } else {
                Ok("open".into())
            }
        });
        let space_wal = space.clone();
        health.register("wal", move || match space_wal.flush_journal() {
            Ok(()) => Ok("flushing".into()),
            Err(e) => Err(e.to_string()),
        });
        let observer = acc_telemetry::serve(observe_bind, health)?;
        let mut server = SpaceServer::spawn_with(space, bind, opts)?;
        server.observer = Some(observer);
        Ok(server)
    }

    /// The scrape endpoint's address, when mounted via
    /// [`SpaceServer::spawn_observed`].
    pub fn observe_addr(&self) -> Option<SocketAddr> {
        self.observer.as_ref().map(|o| o.addr())
    }

    /// Like [`SpaceServer::spawn`] with explicit resource limits.
    pub fn spawn_with(
        space: Arc<Space>,
        bind: &str,
        opts: ServerOptions,
    ) -> std::io::Result<SpaceServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let active = Arc::new(AtomicUsize::new(0));
        let conns: ConnRegistry = Arc::new(Mutex::new(HashMap::new()));
        let conns2 = conns.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut next_conn_id = 0u64;
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if active.fetch_add(1, Ordering::SeqCst) >= opts.max_connections {
                    // Over the cap: release the slot and drop the socket.
                    active.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(opts.read_timeout);
                let _ = stream.set_write_timeout(opts.write_timeout);
                let conn_id = next_conn_id;
                next_conn_id += 1;
                if let Ok(clone) = stream.try_clone() {
                    conns2.lock().insert(conn_id, clone);
                }
                let space = space.clone();
                let active = active.clone();
                let conns3 = conns2.clone();
                std::thread::spawn(move || {
                    /// Releases the connection slot and registry entry
                    /// however the thread exits.
                    struct Slot(Arc<AtomicUsize>, ConnRegistry, u64);
                    impl Drop for Slot {
                        fn drop(&mut self) {
                            self.0.fetch_sub(1, Ordering::SeqCst);
                            self.1.lock().remove(&self.2);
                        }
                    }
                    let _slot = Slot(active, conns3, conn_id);
                    serve_connection(&space, stream, opts.read_timeout);
                });
            }
        });
        Ok(SpaceServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            conns,
            observer: None,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Hangs up on every currently served connection. Clients see a reset
    /// on their next (or in-flight) request and are expected to reconnect
    /// — [`RemoteSpace`](super::RemoteSpace) does so transparently. An
    /// operator lever for shedding stuck clients, and the failure
    /// injection behind the "worker survives a dropped connection" tests.
    pub fn disconnect_all(&self) {
        for (_, conn) in self.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for SpaceServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Service threads are detached and may be blocked in a read;
        // shutting the sockets down unblocks them so clients see a hangup,
        // not a stale server.
        self.disconnect_all();
    }
}

/// One connection's whole life: read a frame, serve it, answer with the
/// request's `seq`, repeat. The read buffer, the encode buffer and the
/// name cache are per connection and reused frame to frame.
///
/// **Flush rule.** An answer is held back only while bytes of a further
/// request are *already received* (and under [`COALESCE_LIMIT`] are
/// pending): a client that pipelined *n* frames is answered in one write
/// after the *n*-th is served; a client that sends one request and waits
/// leaves nothing buffered behind it, so its answer goes out at once. The
/// server never waits on the socket with an answer in hand unless the
/// client stopped in the middle of a frame it has yet to finish — which
/// no client waiting for an answer does — so holding cannot deadlock.
///
/// **Transactions.** The connection's open transactions live in `txns`,
/// by the ids its client chose. However the loop ends — hangup, failed
/// write, timeout, undecodable frame — dropping them aborts every one:
/// what they took goes back to the space, what they wrote never shows.
/// While one is open the socket waits for the next request without
/// `read_timeout`.
///
/// **Lost-take protection.** Every bare destructive answer served and not
/// yet successfully flushed is kept in `unacked`; however the loop ends,
/// what is still there goes back to the space.
fn serve_connection(space: &Arc<Space>, mut stream: TcpStream, read_timeout: Option<Duration>) {
    let mut frames = FrameReader::default();
    let mut enc = FrameEncoder::default();
    let mut interner = NameInterner::new();
    let mut unacked: Vec<Response> = Vec::new();
    let mut txns = Txns::new();
    let mut timeout = read_timeout;
    loop {
        let wanted = read_timeout.filter(|_| txns.is_empty());
        if wanted != timeout && !frames.has_buffered() {
            timeout = wanted;
            let _ = stream.set_read_timeout(timeout);
        }
        let Ok(frame) = frames.read_frame(&mut stream) else {
            break;
        };
        let request = match proto::decode::<Request>(frame, &mut interner) {
            Ok(request) => request,
            Err(e) => {
                // Say why before hanging up: a peer of another wire
                // version learns both versions instead of a bare reset.
                let _ = enc.push(0, None, None, &error_encode(&e));
                break;
            }
        };
        let (seq, destructive) = (request.seq, request.body.is_destructive(request.txn));
        let response = serve(space, &mut txns, request);
        if enc.push(seq, None, None, &response).is_err() {
            // An answer too large to frame can never be delivered.
            if destructive {
                restore_unacked(space, response);
            }
            break;
        }
        if destructive {
            unacked.push(response);
        }
        if frames.has_buffered() && enc.pending() < COALESCE_LIMIT {
            continue;
        }
        if enc.flush(&mut stream).is_err() {
            break;
        }
        unacked.clear();
    }
    // Answers still pending (the peer stopped mid-frame, or sent one that
    // does not decode) get one last chance to leave.
    if enc.pending() > 0 && enc.flush(&mut stream).is_ok() {
        unacked.clear();
    }
    for response in unacked {
        restore_unacked(space, response);
    }
    // Dropping `txns` aborts them.
}

/// Returns tuples carried by an *undeliverable* response to a bare
/// destructive request back to the space. A take's tuples live only in the
/// response frame once removed from the space; if that frame never reaches
/// the client (connection cut mid-call — see `SpaceServer::disconnect_all`,
/// or the client died), dropping it would silently destroy them. Restoring
/// them lets the client's reconnect-and-retry take them again, and returns
/// a dead worker's tasks to the pool. Restored tuples get a fresh
/// `Forever` lease — the original lease was consumed by the take.
///
/// The caller gates on [`Request::is_destructive`]: a `MaybeTuple`
/// response to a plain `read` must *not* be restored (the tuple is still
/// in the space — writing it back would duplicate it), nor a take under a
/// transaction, whose abort restores the originals.
fn restore_unacked(space: &Arc<Space>, response: Response) {
    let tuples = match response {
        Response::MaybeTuple(Some(tuple)) => vec![tuple],
        Response::Tuples(tuples) if !tuples.is_empty() => tuples,
        _ => return,
    };
    net_series().tuples_restored.add(tuples.len() as u64);
    // Failure means the space is closed; the tuples are moot then.
    let _ = Space::write_all(space, tuples);
}

/// The most a batch take answers with, by `size_hint` plus a margin per
/// tuple: the batch fits one response frame. Tuples past it are not
/// taken.
const TAKE_BUDGET: usize = MAX_FRAME / 2;

/// A connection's open transactions, by the ids its client chose.
pub(super) type Txns = HashMap<u64, Txn>;

/// Serves one request. Under a transaction, a `TakeUpTo` takes under it,
/// opening it if this connection has not — and closes it again if it
/// opened it and took nothing, so an empty poll leaves nothing open; a
/// `WriteAll` writes under it and, with the commit bit, commits it. Any
/// other op under a transaction, and a committing take, are refused.
pub(super) fn serve(space: &Arc<Space>, txns: &mut Txns, request: Frame<Request>) -> Response {
    // Adopt the client's context so the handler span (and any space
    // instrumentation under it) joins the client's trace.
    let _ctx = request.trace.map(TraceContext::attach);
    let _span = request
        .trace
        .map(|_| acc_telemetry::span!("space.serve", op = request.body.op_name()));
    let millis = |ms: Option<u64>| ms.map(Duration::from_millis);
    let result = match (request.body, request.txn) {
        (Request::WriteAll(tuples, lease), Some(txn)) => {
            write_under(txns, txn, tuples, lease_from_ms(lease)).map(Response::Ids)
        }
        (Request::TakeUpTo(tmpl, max, timeout), Some(txn)) if !txn.commit => {
            let opened = !txns.contains_key(&txn.id);
            if opened {
                match space.txn() {
                    Ok(t) => txns.insert(txn.id, t),
                    Err(e) => return error_encode(&e),
                };
            }
            let taken =
                txns[&txn.id].take_up_to_within(&tmpl, max as usize, TAKE_BUDGET, millis(timeout));
            if opened && !matches!(&taken, Ok(tuples) if !tuples.is_empty()) {
                txns.remove(&txn.id);
            }
            taken.map(Response::Tuples)
        }
        (body, Some(_)) => Err(SpaceError::Protocol(format!(
            "a transaction header on a {} frame",
            body.op_name()
        ))),
        (Request::Write(tuple, lease), _) => space
            .write_leased(tuple, lease_from_ms(lease))
            .map(Response::Id),
        (Request::Read(tmpl, timeout), _) => {
            Space::read(space, &tmpl, millis(timeout)).map(Response::MaybeTuple)
        }
        (Request::Take(tmpl, timeout), _) => {
            Space::take(space, &tmpl, millis(timeout)).map(Response::MaybeTuple)
        }
        (Request::Count(tmpl), _) => {
            TupleStore::count(&**space, &tmpl).map(|n| Response::Count(n as u64))
        }
        (Request::Close, _) => {
            Space::close(space);
            Ok(Response::Unit)
        }
        (Request::IsClosed, _) => Ok(Response::Bool(Space::is_closed(space))),
        (Request::WriteAll(tuples, lease), None) => {
            Space::write_all_leased(space, tuples, lease_from_ms(lease)).map(Response::Ids)
        }
        (Request::TakeUpTo(tmpl, max, timeout), None) => space
            .take_batch(&tmpl, max as usize, TAKE_BUDGET, millis(timeout), None)
            .map(Response::Tuples),
    };
    result.unwrap_or_else(|e| error_encode(&e))
}

/// A transactional `WriteAll`: the writes, then the commit if asked for.
/// One naming a transaction this connection has not opened is refused
/// with `TxnInactive` and applies nothing. Asked to commit, the
/// transaction is done whatever happens: a write that fails drops it,
/// which aborts.
fn write_under(
    txns: &mut Txns,
    header: TxnHeader,
    tuples: Vec<Tuple>,
    lease: Lease,
) -> SpaceResult<Vec<EntryId>> {
    if !header.commit {
        let txn = txns.get(&header.id).ok_or(SpaceError::TxnInactive)?;
        return txn.write_all(tuples, lease);
    }
    let txn = txns.remove(&header.id).ok_or(SpaceError::TxnInactive)?;
    let ids = txn.write_all(tuples, lease)?;
    txn.commit()?;
    Ok(ids)
}
