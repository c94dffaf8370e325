//! The client-side proxy: one connection, one exchange routine. Owns the
//! per-connection sequence numbers, the reconnect-once-and-resend policy
//! and its single error exit, the split-phase [`Pending`] handle, and the
//! [`TupleStore`] implementation with its batch chunking.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use acc_telemetry::TraceContext;
use parking_lot::{Mutex, MutexGuard};

use super::net_series;
use super::proto::{
    self, io_error, lease_to_ms, timeout_to_ms, FrameEncoder, FrameReader, Request, Response,
    COALESCE_LIMIT, MAX_FRAME,
};
use crate::error::{SpaceError, SpaceResult};
use crate::lease::Lease;
use crate::payload::NameInterner;
use crate::space::EntryId;
use crate::store::{TupleStore, WriteThenTake};
use crate::template::Template;
use crate::tuple::Tuple;

/// Soft cap on one batch-write frame: tuples are chunked so each
/// `WriteAll` frame stays comfortably under [`MAX_FRAME`] (the estimate
/// is `size_hint`, not the exact encoding, hence the margin).
const BATCH_FRAME_BUDGET: usize = MAX_FRAME / 4;
/// Hard cap on tuples per batch frame, so a million tiny tuples still
/// go out as several frames instead of one enormous one.
const BATCH_MAX_TUPLES: usize = 4096;

/// The client's per-connection state: the socket plus the reusable
/// buffers that make the wire path allocation-free in steady state — an
/// encode buffer, a read buffer with its recycled frame, and the decode
/// name cache. All live under the one connection mutex, so none need
/// their own.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    enc: FrameEncoder,
    reader: FrameReader,
    interner: NameInterner,
    /// Sequence number of the next frame sent. It survives reconnects, so
    /// an answer to an earlier attempt can never pass for a current one.
    next_seq: u32,
}

impl Conn {
    /// Encodes one frame per op, back to back, and sends them in one
    /// write (one per [`COALESCE_LIMIT`] bytes, for a batch of large
    /// frames). Returns the first frame's sequence number; the rest
    /// follow it consecutively. A frame the encoder refuses fails the
    /// send with whatever was not yet written dropped.
    fn send(&mut self, ops: &[Request], trace: Option<TraceContext>) -> SpaceResult<u32> {
        let first = self.next_seq;
        for op in ops {
            let seq = self.next_seq;
            self.next_seq = seq.wrapping_add(1);
            if let Err(e) = self.enc.push(seq, trace, op) {
                self.enc.discard();
                return Err(io_error(e));
            }
            if self.enc.pending() >= COALESCE_LIMIT {
                self.enc.flush(&mut self.stream).map_err(io_error)?;
            }
        }
        if self.enc.pending() > 0 {
            self.enc.flush(&mut self.stream).map_err(io_error)?;
        }
        Ok(first)
    }

    /// Reads the `n` responses to the frames sent from `first` on. The
    /// server answers in arrival order, so the `i`-th response must echo
    /// `first + i`; anything else is a stale or foreign answer.
    fn receive(&mut self, first: u32, n: usize) -> SpaceResult<Vec<Response>> {
        let mut responses = Vec::with_capacity(n);
        for i in 0..n {
            let frame = self.reader.read_frame(&mut self.stream).map_err(io_error)?;
            let decoded = proto::decode::<Response>(frame.clone(), &mut self.interner);
            // Opportunistic: reclaims the buffer unless the response
            // borrowed it (a tuple payload holding a `Bytes` view).
            self.reader.recycle(frame);
            let response = decoded?;
            let expected = first.wrapping_add(i as u32);
            if response.seq != expected {
                return Err(SpaceError::Protocol(format!(
                    "response carries seq {}, expected {expected}",
                    response.seq
                )));
            }
            responses.push(response.body);
        }
        Ok(responses)
    }
}

/// Chunks a batch write to `WriteAll` frames within
/// [`BATCH_FRAME_BUDGET`] and [`BATCH_MAX_TUPLES`] (none for no tuples).
fn write_all_chunks(tuples: Vec<Tuple>, lease_ms: Option<u64>) -> Vec<Request> {
    let mut chunks: Vec<Request> = Vec::new();
    let mut current: Vec<Tuple> = Vec::new();
    let mut budget = 0usize;
    for tuple in tuples {
        let hint = tuple.size_hint() + 64;
        if !current.is_empty()
            && (budget + hint > BATCH_FRAME_BUDGET || current.len() >= BATCH_MAX_TUPLES)
        {
            chunks.push(Request::WriteAll(std::mem::take(&mut current), lease_ms));
            budget = 0;
        }
        budget += hint;
        current.push(tuple);
    }
    if !current.is_empty() {
        chunks.push(Request::WriteAll(current, lease_ms));
    }
    chunks
}

/// The ids answering [`write_all_chunks`]' frames, in input order.
fn ids_of(responses: Vec<Response>) -> SpaceResult<Vec<EntryId>> {
    let mut ids = Vec::new();
    for response in responses {
        match response {
            Response::Ids(batch) => ids.extend(batch),
            other => return Err(other.into_error("remote.write_all")),
        }
    }
    Ok(ids)
}

/// The tuples answering a `TakeUpTo` frame.
fn tuples_of(response: Option<Response>) -> SpaceResult<Vec<Tuple>> {
    match response {
        None => Ok(Vec::new()),
        Some(Response::Tuples(tuples)) => Ok(tuples),
        Some(other) => Err(other.into_error("remote.take_up_to")),
    }
}

/// Client-side proxy to a [`SpaceServer`](super::SpaceServer) — the
/// "downloaded space proxy". One TCP connection, one *caller* at a time
/// (clone-free; open one proxy per worker, as each worker owns its own
/// connection). Batch operations put several frames on that connection
/// before reading the first answer, all in one lock hold.
///
/// A transport failure mid-call triggers exactly one reconnect and one
/// resend before surfacing [`SpaceError::Transport`] — so a single dropped
/// connection is invisible to callers. The retry makes mutating calls
/// *at-least-once*: if the first attempt's response was lost after the
/// server applied it, the resend applies it again. That matches
/// JavaSpaces' RMI-era semantics; callers needing exactly-once dedupe by
/// task id (as the master does).
#[derive(Debug)]
pub struct RemoteSpace {
    addr: SocketAddr,
    stream: Mutex<Conn>,
}

impl RemoteSpace {
    /// Connects to a space server. Nothing is exchanged until the first
    /// call; a peer of another wire version fails that call with
    /// [`SpaceError::Protocol`] naming both versions.
    pub fn connect(addr: SocketAddr) -> std::io::Result<RemoteSpace> {
        Ok(RemoteSpace {
            addr,
            stream: Mutex::new(Conn {
                stream: RemoteSpace::open(addr)?,
                enc: FrameEncoder::default(),
                reader: FrameReader::default(),
                interner: NameInterner::new(),
                next_seq: 0,
            }),
        })
    }

    fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// The second half of every exchange, and the only place that
    /// reconnects: reads the answers to the frames `sent` put on the wire.
    /// A transport failure in either half — the send recorded in `sent` or
    /// the reads here — buys one fresh socket and one resend of the
    /// *whole* batch (only the socket is replaced; the buffers and name
    /// cache are content-based and stay warm). Whatever still fails leaves
    /// through the one exit below, which shuts the socket down: answers
    /// may be outstanding on it, and the next call must start from a
    /// clean reconnect instead of reading its predecessor's response.
    fn complete(
        &self,
        conn: &mut Conn,
        ops: &[Request],
        trace: Option<TraceContext>,
        sent: SpaceResult<u32>,
    ) -> SpaceResult<Vec<Response>> {
        let n = ops.len();
        let mut outcome = sent.and_then(|first| conn.receive(first, n));
        if let Err(SpaceError::Transport(cause)) = &outcome {
            outcome = match RemoteSpace::open(self.addr) {
                Ok(fresh) => {
                    conn.stream = fresh;
                    // Bytes received on the old socket are not answers to
                    // anything sent on this one.
                    conn.reader.discard_buffered();
                    net_series().reconnects.inc();
                    conn.send(ops, trace)
                        .and_then(|first| conn.receive(first, n))
                }
                Err(e) => Err(SpaceError::Transport(format!(
                    "{cause}; reconnect failed: {e}"
                ))),
            };
        }
        if outcome.is_err() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        outcome
    }

    /// Split-phase exchange, first half: takes the connection lock and
    /// puts every op on the wire before any answer is read, so the whole
    /// batch costs one round trip. [`Pending::finish`] is the second half.
    pub(super) fn begin<T>(
        &self,
        ops: Vec<Request>,
        interpret: fn(Vec<Response>) -> SpaceResult<T>,
    ) -> Pending<'_, T> {
        let trace = TraceContext::current_if_enabled();
        let mut conn = self.stream.lock();
        let sent = conn.send(&ops, trace);
        Pending {
            space: self,
            conn,
            ops,
            trace,
            sent,
            interpret,
        }
    }

    /// One request, one response: the exchange with *n* = 1.
    fn call(&self, request: &Request, trace: Option<TraceContext>) -> SpaceResult<Response> {
        let ops = std::slice::from_ref(request);
        let mut conn = self.stream.lock();
        let sent = conn.send(ops, trace);
        let mut responses = self.complete(&mut conn, ops, trace, sent)?;
        Ok(responses.pop().expect("one response per request sent"))
    }

    /// Opens a client-side span over the operation and, when tracing is
    /// on, sends that span's context in the frame header — which is how
    /// the server's handler span ends up in the caller's trace.
    fn call_traced(&self, span_name: &'static str, request: Request) -> SpaceResult<Response> {
        let _span = acc_telemetry::span!(span_name);
        self.call(&request, TraceContext::current_if_enabled())
    }

    /// Split-phase [`TupleStore::write_all_leased`]: the chunked
    /// `WriteAll` frames go out now, the ids come back from
    /// [`Pending::finish`]. A caller with several servers to write to
    /// begins on each before finishing on any, paying one round trip of
    /// latency for all of them without a thread per server (see
    /// `acc-spacegrid`).
    pub fn begin_write_all_leased(
        &self,
        tuples: Vec<Tuple>,
        lease: Lease,
    ) -> Pending<'_, Vec<EntryId>> {
        let chunks = write_all_chunks(tuples, lease_to_ms(lease));
        self.begin(chunks, ids_of)
    }

    /// Split-phase, non-blocking [`TupleStore::take_up_to`]: asks now for
    /// up to `max` tuples that match *at this moment* (a zero timeout, so
    /// the server never parks on it); the tuples come back from
    /// [`Pending::finish`]. Same fan-out use as
    /// [`RemoteSpace::begin_write_all_leased`].
    pub fn begin_take_up_to(&self, template: &Template, max: usize) -> Pending<'_, Vec<Tuple>> {
        let ops = match max {
            0 => Vec::new(),
            _ => vec![Request::TakeUpTo(template.clone(), max as u64, Some(0))],
        };
        self.begin(ops, |responses| tuples_of(responses.into_iter().next()))
    }

    /// Split-phase [`TupleStore::write_all_then_take_up_to`]: the
    /// `WriteAll` frame(s) and the `TakeUpTo` frame leave in one write,
    /// the server serves them in order and answers both in one write;
    /// [`Pending::finish`] reads the two outcomes. The take may block on
    /// the server for `timeout` — the write has been applied by then,
    /// only its answer waits. A transport failure resends the whole pair
    /// once, so write and take are each at-least-once, as on their own
    /// (the server restores a take whose answer it could not deliver).
    pub fn begin_write_all_then_take_up_to(
        &self,
        tuples: Vec<Tuple>,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> Pending<'_, WriteThenTake> {
        let mut ops = write_all_chunks(tuples, None);
        ops.push(Request::TakeUpTo(
            template.clone(),
            max as u64,
            timeout_to_ms(timeout),
        ));
        self.begin(ops, |mut responses| {
            let taken = tuples_of(responses.pop());
            Ok((ids_of(responses), taken))
        })
    }

    fn expect_tuple(
        &self,
        span_name: &'static str,
        request: Request,
    ) -> SpaceResult<Option<Tuple>> {
        match self.call_traced(span_name, request)? {
            Response::MaybeTuple(t) => Ok(t),
            other => Err(other.into_error(span_name)),
        }
    }
}

/// The second half of a split-phase batch call (see
/// [`RemoteSpace::begin_write_all_leased`]): the request is on the wire
/// (or failed to get there) and this value holds the connection — lock
/// included — until [`Pending::finish`] reads the answer, so no other
/// caller's frames can interleave with the outstanding ones. Begin on
/// several `RemoteSpace`s in one fixed order (two threads that share them
/// and begin in different orders can deadlock on the connection locks),
/// then finish each; do not call the same `RemoteSpace` again in between,
/// its lock is held.
pub struct Pending<'a, T> {
    space: &'a RemoteSpace,
    conn: MutexGuard<'a, Conn>,
    /// Kept for the resend after a reconnect.
    ops: Vec<Request>,
    trace: Option<TraceContext>,
    sent: SpaceResult<u32>,
    interpret: fn(Vec<Response>) -> SpaceResult<T>,
}

impl<T> Pending<'_, T> {
    /// Reads the response(s) and releases the connection. Failure
    /// handling is that of every `RemoteSpace` call: one reconnect and
    /// one resend of the whole request before `Transport` surfaces.
    pub fn finish(mut self) -> SpaceResult<T> {
        self.space
            .complete(&mut self.conn, &self.ops, self.trace, self.sent)
            .and_then(self.interpret)
    }
}

impl TupleStore for RemoteSpace {
    fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
        let request = Request::Write(tuple, lease_to_ms(lease));
        match self.call_traced("remote.write", request)? {
            Response::Id(id) => Ok(id),
            other => Err(other.into_error("remote.write")),
        }
    }

    // The `template.clone()` below (and in take/count/take_up_to) is two
    // refcount bumps, not a deep copy — `Template` is `Arc`-backed.
    fn read(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        let request = Request::Read(template.clone(), timeout_to_ms(timeout));
        self.expect_tuple("remote.read", request)
    }

    fn take(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        let request = Request::Take(template.clone(), timeout_to_ms(timeout));
        self.expect_tuple("remote.take", request)
    }

    fn count(&self, template: &Template) -> SpaceResult<usize> {
        match self.call_traced("remote.count", Request::Count(template.clone()))? {
            Response::Count(n) => Ok(n as usize),
            other => Err(other.into_error("remote.count")),
        }
    }

    fn close(&self) {
        let _ = self.call(&Request::Close, None);
    }

    fn is_closed(&self) -> bool {
        matches!(
            self.call(&Request::IsClosed, None),
            Ok(Response::Bool(true)) | Err(_)
        )
    }

    /// Batch write over the wire: tuples are chunked to bounded frames and
    /// every frame is sent before the first response is read, so a
    /// planning phase of thousands of tasks costs a handful of round trips
    /// instead of one per task.
    fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
        let _span = acc_telemetry::span!("remote.write_all", tuples = tuples.len() as u64);
        self.begin_write_all_leased(tuples, lease).finish()
    }

    /// Batch take over the wire: one round trip fetches up to `max`
    /// matching tuples (the worker's prefetch path).
    fn take_up_to(
        &self,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> SpaceResult<Vec<Tuple>> {
        if max == 0 {
            return Ok(Vec::new());
        }
        let request = Request::TakeUpTo(template.clone(), max as u64, timeout_to_ms(timeout));
        tuples_of(Some(self.call_traced("remote.take_up_to", request)?))
    }

    /// The refill pair as one exchange — see
    /// [`RemoteSpace::begin_write_all_then_take_up_to`]. What fails for
    /// good (after the one reconnect and resend) fails both outcomes.
    fn write_all_then_take_up_to(
        &self,
        tuples: Vec<Tuple>,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> WriteThenTake {
        let _span = acc_telemetry::span!("remote.write_take", tuples = tuples.len() as u64);
        self.begin_write_all_then_take_up_to(tuples, template, max, timeout)
            .finish()
            .unwrap_or_else(|e| (Err(e.clone()), Err(e)))
    }

    /// Batch drain over the wire: repeated `take_up_to` frames instead of
    /// one round trip per tuple.
    fn take_all(&self, template: &Template) -> SpaceResult<Vec<Tuple>> {
        let mut out = Vec::new();
        loop {
            let batch = self.take_up_to(template, BATCH_MAX_TUPLES, Some(Duration::ZERO))?;
            let done = batch.is_empty();
            out.extend(batch);
            if done {
                return Ok(out);
            }
        }
    }
}
