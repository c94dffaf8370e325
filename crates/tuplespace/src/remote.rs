//! A network-accessible space: TCP server and remote client.
//!
//! JavaSpaces is "a shared, **network-accessible** repository for Java
//! objects" — masters and workers on different machines reach the same
//! space. [`SpaceServer`] serves an in-process [`Space`] over TCP with
//! length-prefixed frames; [`RemoteSpace`] is the client-side proxy and
//! implements [`TupleStore`], so the framework's master and workers work
//! against it unchanged.
//!
//! **Trust model:** the protocol is unauthenticated — any connector can
//! read, take, or close the space, matching the paper's era (JavaSpaces
//! relied on the deployment network's perimeter; its community-string-like
//! controls lived in Jini security policies, out of scope here). Bind to
//! loopback or a trusted segment.
//!
//! Protocol: length-prefixed frames over one connection. Plain (v0/v1)
//! requests are served synchronously — one request/response at a time —
//! and blocking `read`/`take` block on the *server* (each connection gets
//! its own service thread), exactly like a JavaSpaces proxy blocking on
//! the remote call. Protocol v2 adds batch operations (`WriteAll`,
//! `TakeUpTo`) and *pipelined* requests: a client may send several
//! [`Request::Corr`]-wrapped frames back to back and collect the
//! correlated responses afterwards, paying one round trip for the whole
//! batch instead of one per tuple.
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

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use acc_telemetry::TraceContext;
use parking_lot::{Mutex, MutexGuard};

use crate::error::{SpaceError, SpaceResult};
use crate::lease::Lease;
use crate::payload::{Payload, PayloadError, WireReader, WireWriter};
use crate::space::{EntryId, Space};
use crate::store::TupleStore;
use crate::template::Template;
use crate::tuple::Tuple;

const MAX_FRAME: usize = 16 << 20;

/// Wire-protocol series: the error path (reconnects, negotiated version,
/// restored tuples) plus the zero-copy path's health — bytes moved per
/// frame, how often per-connection frame buffers were actually reused,
/// and the server pipeline pool's backlog.
struct NetSeries {
    reconnects: Arc<acc_telemetry::Counter>,
    protocol_version: Arc<acc_telemetry::Gauge>,
    tuples_restored: Arc<acc_telemetry::Counter>,
    /// Total frame bytes moved (headers + payloads, both directions).
    frame_bytes: Arc<acc_telemetry::Counter>,
    /// Frame reads served from a recycled per-connection buffer…
    buffer_reuse_hits: Arc<acc_telemetry::Counter>,
    /// …vs. reads that had to allocate (first read, or the previous frame
    /// is still pinned by decoded values borrowing it).
    buffer_reuse_misses: Arc<acc_telemetry::Counter>,
    /// Jobs queued or running in server pipeline pools right now.
    pipeline_queue_depth: Arc<acc_telemetry::Gauge>,
    /// Submissions that found every pool slot busy and had to queue.
    pipeline_saturated: Arc<acc_telemetry::Counter>,
}

fn net_series() -> &'static NetSeries {
    static SERIES: std::sync::OnceLock<NetSeries> = std::sync::OnceLock::new();
    SERIES.get_or_init(|| {
        let r = acc_telemetry::registry();
        NetSeries {
            reconnects: r.counter("remote.reconnects"),
            protocol_version: r.gauge("remote.protocol_version"),
            tuples_restored: r.counter("server.tuples_restored"),
            frame_bytes: r.counter("remote.frame_bytes"),
            buffer_reuse_hits: r.counter("remote.buffer_reuse_hits"),
            buffer_reuse_misses: r.counter("remote.buffer_reuse_misses"),
            pipeline_queue_depth: r.gauge("server.pipeline_queue_depth"),
            pipeline_saturated: r.counter("server.pipeline_saturated"),
        }
    })
}

/// Current wire-protocol version, exchanged via [`Request::Hello`].
///
/// * **Version 1** adds the `Hello` handshake and the `Traced` request
///   envelope carrying a distributed [`TraceContext`]. Version-0 peers
///   (the seed protocol) never see either: a v0 server drops the
///   connection on the unknown `Hello` tag, which the client takes as
///   "speak v0" and reconnects plain.
/// * **Version 2** adds the batch operations `WriteAll` / `TakeUpTo` and
///   the `Corr` correlation envelope for pipelining several in-flight
///   requests over one connection. The client gates every v2 frame on the
///   version the server answered, so v0/v1 peers keep interoperating —
///   batch trait calls silently degrade to loops of single-tuple frames.
pub const PROTO_VERSION: u32 = 2;

#[derive(Debug, Clone, PartialEq)]
enum Request {
    /// Write with optional lease (`None` = forever, `Some(ms)`).
    Write(Tuple, Option<u64>),
    /// Read with optional timeout in ms (`None` = wait forever).
    Read(Template, Option<u64>),
    /// Take with optional timeout in ms.
    Take(Template, Option<u64>),
    /// Count matching tuples.
    Count(Template),
    /// Close the space.
    Close,
    /// Is the space closed?
    IsClosed,
    /// Version handshake: client sends its protocol version, server
    /// answers [`Response::Proto`]. (v1+)
    Hello(u32),
    /// A basic request wrapped with the sender's trace context, so the
    /// server-side handler span joins the client's trace. (v1+)
    Traced {
        trace_id: u64,
        span_id: u64,
        inner: Box<Request>,
    },
    /// Batch write: every tuple stored under one optional lease in a
    /// single space operation (one round trip, one wakeup per shard). (v2+)
    WriteAll(Vec<Tuple>, Option<u64>),
    /// Batch take: block up to the timeout for the first match, then drain
    /// up to `max` currently matching tuples without further waiting. (v2+)
    TakeUpTo(Template, u64, Option<u64>),
    /// Pipelining envelope: the response to this request is wrapped in
    /// [`Response::Corr`] with the same correlation id, so several
    /// requests can be in flight on one connection and their responses
    /// matched up out of order. May wrap an operation or a `Traced`
    /// envelope — never a `Hello` or another `Corr`. (v2+)
    Corr { corr_id: u64, inner: Box<Request> },
}

impl Payload for Request {
    fn encode(&self, w: &mut WireWriter) {
        let put_opt = |w: &mut WireWriter, v: &Option<u64>| match v {
            Some(ms) => {
                w.put_bool(true);
                w.put_u64(*ms);
            }
            None => w.put_bool(false),
        };
        match self {
            Request::Write(tuple, lease) => {
                w.put_u8(1);
                tuple.encode(w);
                put_opt(w, lease);
            }
            Request::Read(tmpl, timeout) => {
                w.put_u8(2);
                tmpl.encode(w);
                put_opt(w, timeout);
            }
            Request::Take(tmpl, timeout) => {
                w.put_u8(3);
                tmpl.encode(w);
                put_opt(w, timeout);
            }
            Request::Count(tmpl) => {
                w.put_u8(4);
                tmpl.encode(w);
            }
            Request::Close => w.put_u8(5),
            Request::IsClosed => w.put_u8(6),
            Request::Hello(version) => {
                w.put_u8(7);
                w.put_u32(*version);
            }
            Request::Traced {
                trace_id,
                span_id,
                inner,
            } => {
                w.put_u8(8);
                w.put_u64(*trace_id);
                w.put_u64(*span_id);
                inner.encode(w);
            }
            Request::WriteAll(tuples, lease) => {
                w.put_u8(9);
                w.put_u32(tuples.len() as u32);
                for tuple in tuples {
                    tuple.encode(w);
                }
                put_opt(w, lease);
            }
            Request::TakeUpTo(tmpl, max, timeout) => {
                w.put_u8(10);
                tmpl.encode(w);
                w.put_u64(*max);
                put_opt(w, timeout);
            }
            Request::Corr { corr_id, inner } => {
                w.put_u8(11);
                w.put_u64(*corr_id);
                inner.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        match r.get_u8()? {
            7 => Ok(Request::Hello(r.get_u32()?)),
            8 => Request::decode_traced(r),
            11 => {
                let corr_id = r.get_u64()?;
                // A correlation envelope wraps an operation or one trace
                // envelope — never a handshake or another `Corr`, so frame
                // nesting is bounded at depth two (no recursion through
                // `decode`, which a hostile frame could stack ~1M deep).
                let inner = match r.get_u8()? {
                    8 => Request::decode_traced(r)?,
                    tag => Request::decode_op(tag, r)?,
                };
                Ok(Request::Corr {
                    corr_id,
                    inner: Box::new(inner),
                })
            }
            tag => Request::decode_op(tag, r),
        }
    }
}

impl Request {
    /// Decodes a trace envelope body (tag 8 already consumed). The
    /// envelope may only wrap an *operation* — decoding the inner tag
    /// through `decode` again would let a hostile frame nest envelopes
    /// arbitrarily deep inside MAX_FRAME and blow the service thread's
    /// stack.
    fn decode_traced(r: &mut WireReader) -> Result<Request, PayloadError> {
        let trace_id = r.get_u64()?;
        let span_id = r.get_u64()?;
        let inner = Request::decode_op(r.get_u8()?, r)?;
        Ok(Request::Traced {
            trace_id,
            span_id,
            inner: Box::new(inner),
        })
    }

    /// Decodes the operation set — the version-0 requests (tags 1–6) plus
    /// the v2 batch operations (tags 9–10); everything except the
    /// handshake and the two envelopes.
    fn decode_op(tag: u8, r: &mut WireReader) -> Result<Request, PayloadError> {
        let get_opt = |r: &mut WireReader| -> Result<Option<u64>, PayloadError> {
            if r.get_bool()? {
                Ok(Some(r.get_u64()?))
            } else {
                Ok(None)
            }
        };
        match tag {
            1 => {
                let tuple = Tuple::decode(r)?;
                let lease = get_opt(r)?;
                Ok(Request::Write(tuple, lease))
            }
            2 => {
                let tmpl = Template::decode(r)?;
                let timeout = get_opt(r)?;
                Ok(Request::Read(tmpl, timeout))
            }
            3 => {
                let tmpl = Template::decode(r)?;
                let timeout = get_opt(r)?;
                Ok(Request::Take(tmpl, timeout))
            }
            4 => Ok(Request::Count(Template::decode(r)?)),
            5 => Ok(Request::Close),
            6 => Ok(Request::IsClosed),
            9 => {
                let n = r.get_u32()? as usize;
                // The count is attacker-controlled, so the pre-reserve is
                // capped: a lying header wastes at most 1024 slots before
                // the bounded body (MAX_FRAME) runs out of tuples.
                let mut tuples = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    tuples.push(Tuple::decode(r)?);
                }
                let lease = if r.get_bool()? {
                    Some(r.get_u64()?)
                } else {
                    None
                };
                Ok(Request::WriteAll(tuples, lease))
            }
            10 => {
                let tmpl = Template::decode(r)?;
                let max = r.get_u64()?;
                let timeout = if r.get_bool()? {
                    Some(r.get_u64()?)
                } else {
                    None
                };
                Ok(Request::TakeUpTo(tmpl, max, timeout))
            }
            _ => Err(PayloadError::Corrupt("request tag")),
        }
    }

    /// The operation name a [`Request::Traced`] envelope's server-side
    /// span reports.
    fn op_name(&self) -> &'static str {
        match self {
            Request::Write(..) => "write",
            Request::Read(..) => "read",
            Request::Take(..) => "take",
            Request::Count(..) => "count",
            Request::Close => "close",
            Request::IsClosed => "is_closed",
            Request::Hello(..) => "hello",
            Request::Traced { .. } => "traced",
            Request::WriteAll(..) => "write_all",
            Request::TakeUpTo(..) => "take_up_to",
            Request::Corr { .. } => "corr",
        }
    }

    /// The lowest protocol version whose peers understand this request —
    /// what a version-capped server checks to emulate an older peer
    /// (older servers genuinely cannot decode newer tags and hang up; the
    /// cap reproduces that hangup without a second codebase).
    fn min_version(&self) -> u32 {
        match self {
            Request::Write(..)
            | Request::Read(..)
            | Request::Take(..)
            | Request::Count(..)
            | Request::Close
            | Request::IsClosed => 0,
            Request::Hello(..) => 1,
            Request::Traced { inner, .. } => inner.min_version().max(1),
            Request::WriteAll(..) | Request::TakeUpTo(..) => 2,
            Request::Corr { inner, .. } => inner.min_version().max(2),
        }
    }

    /// True when serving this request *removes* tuples from the space. If
    /// the response to such a request cannot be delivered, the server must
    /// restore the taken tuples (see [`restore_unacked`]) — otherwise a
    /// connection dropped between the take and the response destroys them.
    fn is_destructive(&self) -> bool {
        match self {
            Request::Take(..) | Request::TakeUpTo(..) => true,
            Request::Traced { inner, .. } | Request::Corr { inner, .. } => inner.is_destructive(),
            _ => false,
        }
    }

    /// True when serving this request may park the serving thread waiting
    /// on the space. Pipelined requests that cannot block are served
    /// inline on the connection thread; only ones that can occupy a
    /// [`PipelinePool`] slot.
    fn may_block(&self) -> bool {
        match self {
            Request::Read(_, timeout) | Request::Take(_, timeout) => !matches!(timeout, Some(0)),
            Request::TakeUpTo(_, _, timeout) => !matches!(timeout, Some(0)),
            Request::Traced { inner, .. } | Request::Corr { inner, .. } => inner.may_block(),
            _ => false,
        }
    }
}

/// A request as the client puts it on the wire: the operation inside
/// its optional envelopes (`Corr` outermost, then `Traced`), encoded from
/// borrowed parts. Byte for byte what the nested
/// `Request::Corr { Request::Traced { op } }` encodes to — which is what
/// the server decodes it as — without boxing the operation once per
/// envelope to build that value for every request sent.
struct Framed<'a> {
    corr_id: Option<u64>,
    trace: Option<TraceContext>,
    op: &'a Request,
}

/// What a [`FrameEncoder`] can fill a frame body with.
trait Encode {
    fn encode_into(&self, w: &mut WireWriter);
}

impl<P: Payload> Encode for P {
    fn encode_into(&self, w: &mut WireWriter) {
        self.encode(w);
    }
}

impl Encode for Framed<'_> {
    fn encode_into(&self, w: &mut WireWriter) {
        if let Some(corr_id) = self.corr_id {
            w.put_u8(11);
            w.put_u64(corr_id);
        }
        if let Some(ctx) = self.trace {
            w.put_u8(8);
            w.put_u64(ctx.trace_id);
            w.put_u64(ctx.span_id);
        }
        self.op.encode(w);
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Response {
    Id(EntryId),
    MaybeTuple(Option<Tuple>),
    Count(u64),
    Bool(bool),
    Unit,
    /// An error code plus a detail string (empty except for `Storage`,
    /// `Transport` and `Protocol`).
    Err(u8, String),
    /// The server's protocol version, answering [`Request::Hello`]. (v1+)
    Proto(u32),
    /// Entry ids of a batch write, answering [`Request::WriteAll`]. (v2+)
    Ids(Vec<EntryId>),
    /// Tuples of a batch take, answering [`Request::TakeUpTo`]. (v2+)
    Tuples(Vec<Tuple>),
    /// The correlated answer to a [`Request::Corr`] envelope. (v2+)
    Corr {
        corr_id: u64,
        inner: Box<Response>,
    },
}

fn error_encode(e: &SpaceError) -> Response {
    let code = match e {
        SpaceError::Closed => 1,
        SpaceError::TxnInactive => 2,
        SpaceError::NoSuchEntry => 3,
        SpaceError::LeaseExpired => 4,
        SpaceError::NoSuchRegistration => 5,
        SpaceError::EntryLocked => 6,
        SpaceError::Storage(_) => 7,
        SpaceError::Transport(_) => 8,
        SpaceError::Protocol(_) => 9,
    };
    let detail = match e {
        SpaceError::Storage(msg) | SpaceError::Transport(msg) | SpaceError::Protocol(msg) => {
            msg.clone()
        }
        _ => String::new(),
    };
    Response::Err(code, detail)
}

fn error_from(code: u8, detail: String) -> SpaceError {
    match code {
        1 => SpaceError::Closed,
        2 => SpaceError::TxnInactive,
        3 => SpaceError::NoSuchEntry,
        4 => SpaceError::LeaseExpired,
        6 => SpaceError::EntryLocked,
        7 => SpaceError::Storage(detail),
        8 => SpaceError::Transport(detail),
        9 => SpaceError::Protocol(detail),
        _ => SpaceError::NoSuchRegistration,
    }
}

impl Payload for Response {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Response::Id(id) => {
                w.put_u8(1);
                w.put_u64(*id);
            }
            Response::MaybeTuple(None) => w.put_u8(2),
            Response::MaybeTuple(Some(tuple)) => {
                w.put_u8(3);
                tuple.encode(w);
            }
            Response::Count(n) => {
                w.put_u8(4);
                w.put_u64(*n);
            }
            Response::Bool(b) => {
                w.put_u8(5);
                w.put_bool(*b);
            }
            Response::Unit => w.put_u8(6),
            Response::Err(code, detail) => {
                w.put_u8(7);
                w.put_u8(*code);
                w.put_str(detail);
            }
            Response::Proto(version) => {
                w.put_u8(8);
                w.put_u32(*version);
            }
            Response::Ids(ids) => {
                w.put_u8(9);
                w.put_u32(ids.len() as u32);
                for id in ids {
                    w.put_u64(*id);
                }
            }
            Response::Tuples(tuples) => {
                w.put_u8(10);
                w.put_u32(tuples.len() as u32);
                for tuple in tuples {
                    tuple.encode(w);
                }
            }
            Response::Corr { corr_id, inner } => {
                w.put_u8(11);
                w.put_u64(*corr_id);
                inner.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        match r.get_u8()? {
            11 => {
                let corr_id = r.get_u64()?;
                // Correlation envelopes never nest (same stack-depth guard
                // as on the request side).
                let inner = Response::decode_flat(r.get_u8()?, r)?;
                Ok(Response::Corr {
                    corr_id,
                    inner: Box::new(inner),
                })
            }
            tag => Response::decode_flat(tag, r),
        }
    }
}

impl Response {
    /// Decodes every response except the correlation envelope.
    fn decode_flat(tag: u8, r: &mut WireReader) -> Result<Response, PayloadError> {
        match tag {
            1 => Ok(Response::Id(r.get_u64()?)),
            2 => Ok(Response::MaybeTuple(None)),
            3 => Ok(Response::MaybeTuple(Some(Tuple::decode(r)?))),
            4 => Ok(Response::Count(r.get_u64()?)),
            5 => Ok(Response::Bool(r.get_bool()?)),
            6 => Ok(Response::Unit),
            7 => Ok(Response::Err(r.get_u8()?, r.get_str()?)),
            8 => Ok(Response::Proto(r.get_u32()?)),
            9 => {
                let n = r.get_u32()? as usize;
                // Capped pre-reserve; see `Request::decode` for rationale.
                let mut ids = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ids.push(r.get_u64()?);
                }
                Ok(Response::Ids(ids))
            }
            10 => {
                let n = r.get_u32()? as usize;
                let mut tuples = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    tuples.push(Tuple::decode(r)?);
                }
                Ok(Response::Tuples(tuples))
            }
            _ => Err(PayloadError::Corrupt("response tag")),
        }
    }
}

fn write_frame(stream: &mut TcpStream, payload: &impl Payload) -> std::io::Result<()> {
    let bytes = payload.to_bytes();
    // Reject oversized frames before the length prefix goes out: casting
    // an over-4GiB length to u32 would wrap the prefix and desync the
    // stream, and anything over MAX_FRAME would be rejected by the peer's
    // reader anyway — after we already paid to send it.
    if bytes.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "frame too large to send: {} > {MAX_FRAME} bytes",
                bytes.len()
            ),
        ));
    }
    stream.write_all(&(bytes.len() as u32).to_le_bytes())?;
    stream.write_all(&bytes)?;
    stream.flush()
}

/// Reads and validates a frame's length prefix — the one place frame-size
/// edge cases are policed. Empty frames are rejected here: every legal
/// request/response encodes at least a tag byte, so a zero length means a
/// desynced or hostile peer, and catching it at the prefix keeps the
/// decoders free of empty-input special cases.
fn read_frame_len(stream: &mut TcpStream) -> std::io::Result<usize> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "empty frame",
        ));
    }
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    Ok(len)
}

fn read_frame_bytes(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let len = read_frame_len(stream)?;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(body)
}

/// A per-connection recycled frame buffer.
///
/// Each frame is read into a ref-counted [`bytes::Bytes`] so decoded
/// values can borrow it; once every borrower is gone, [`FramePool::recycle`]
/// reclaims the allocation for the next read. The buffer is sized by
/// high-water mark and decays: every [`FramePool::DECAY_INTERVAL`]
/// recycles, a buffer grown far beyond the recent peak frame size is
/// shrunk back to it, so one huge batch frame does not pin megabytes for
/// the life of the connection.
#[derive(Debug)]
struct FramePool {
    spare: Option<Vec<u8>>,
    /// Largest frame seen since the last decay window closed.
    seen_max: usize,
    recycles: u32,
}

impl FramePool {
    const DECAY_INTERVAL: u32 = 64;
    /// Never decay below this; tiny control frames shouldn't thrash.
    const MIN_CAPACITY: usize = 4 << 10;

    fn new() -> FramePool {
        FramePool {
            spare: None,
            seen_max: 0,
            recycles: 0,
        }
    }

    /// Reads one length-prefixed frame, reusing the recycled buffer when
    /// one is available.
    fn read_frame(&mut self, stream: &mut TcpStream) -> std::io::Result<bytes::Bytes> {
        let len = read_frame_len(stream)?;
        let net = net_series();
        let mut body = match self.spare.take() {
            Some(buf) => {
                net.buffer_reuse_hits.inc();
                buf
            }
            None => {
                net.buffer_reuse_misses.inc();
                Vec::new()
            }
        };
        body.resize(len, 0);
        stream.read_exact(&mut body)?;
        net.frame_bytes.add((len + 4) as u64);
        self.seen_max = self.seen_max.max(len);
        Ok(bytes::Bytes::from(body))
    }

    /// Hands a frame's allocation back for reuse. A frame still borrowed
    /// by decoded values (e.g. a written tuple's `Bytes` field now living
    /// in the space) is simply dropped later with its last borrower —
    /// callers recycle opportunistically and never wait.
    fn recycle(&mut self, frame: bytes::Bytes) {
        let Ok(mut buf) = frame.try_reclaim() else {
            return;
        };
        buf.clear();
        self.recycles += 1;
        if self.recycles % Self::DECAY_INTERVAL == 0 {
            let target = self.seen_max.max(Self::MIN_CAPACITY);
            if buf.capacity() > target * 2 {
                buf.shrink_to(target);
            }
            self.seen_max = 0;
        }
        // Keep the larger of the spare and the incoming buffer.
        if self
            .spare
            .as_ref()
            .is_none_or(|s| s.capacity() < buf.capacity())
        {
            self.spare = Some(buf);
        }
    }
}

/// A per-connection reusable encode buffer with vectored frame writes.
///
/// Encoding reuses one scratch [`WireWriter`] (high-water sized, decayed
/// like [`FramePool`]), and the header + payload go out in a single
/// `write_vectored` call instead of two writes or a concatenating copy.
#[derive(Debug)]
struct FrameEncoder {
    w: WireWriter,
    seen_max: usize,
    uses: u32,
}

impl FrameEncoder {
    fn new() -> FrameEncoder {
        FrameEncoder {
            w: WireWriter::new(),
            seen_max: 0,
            uses: 0,
        }
    }

    fn write_frame(
        &mut self,
        stream: &mut TcpStream,
        payload: &impl Encode,
    ) -> std::io::Result<()> {
        self.uses += 1;
        if self.uses % FramePool::DECAY_INTERVAL == 0 {
            let target = self.seen_max.max(FramePool::MIN_CAPACITY);
            if self.w.capacity() > target * 2 {
                self.w.shrink_to(target);
            }
            self.seen_max = 0;
        }
        self.w.clear();
        payload.encode_into(&mut self.w);
        let body = self.w.as_slice();
        // Reject oversized frames before the length prefix goes out (see
        // `write_frame`).
        if body.len() > MAX_FRAME {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "frame too large to send: {} > {MAX_FRAME} bytes",
                    body.len()
                ),
            ));
        }
        self.seen_max = self.seen_max.max(body.len());
        let header = (body.len() as u32).to_le_bytes();
        let total = header.len() + body.len();
        let mut written = 0usize;
        while written < total {
            let n = if written < header.len() {
                stream.write_vectored(&[
                    std::io::IoSlice::new(&header[written..]),
                    std::io::IoSlice::new(body),
                ])?
            } else {
                stream.write(&body[written - header.len()..])?
            };
            if n == 0 {
                return Err(std::io::ErrorKind::WriteZero.into());
            }
            written += n;
        }
        stream.flush()?;
        net_series().frame_bytes.add(total as u64);
        Ok(())
    }
}

/// Resource limits for a [`SpaceServer`]. Each accepted connection owns one
/// service thread, so an unbounded accept loop lets one misbehaving client
/// pool exhaust the server; these knobs bound both the thread count and how
/// long a silent connection may pin its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Max idle time between requests on a connection before it is dropped
    /// (`None` = wait forever). Does not limit blocking `read`/`take`
    /// service time — while those wait on the space, the socket is idle on
    /// the *client's* side, not the server's.
    pub read_timeout: Option<Duration>,
    /// Max time a response write may block before the connection is
    /// dropped (`None` = wait forever).
    pub write_timeout: Option<Duration>,
    /// Max concurrently served connections; connections accepted over this
    /// limit are dropped immediately.
    pub max_connections: usize,
    /// Worker threads per connection for pipelined (`Corr`) requests that
    /// can block. Non-blocking pipelined requests are served inline on the
    /// connection thread; blocking ones occupy a pool slot, and when every
    /// slot is busy they queue (bounding the per-request thread spawns the
    /// previous design paid, and the unbounded thread count with it).
    pub pipeline_workers: usize,
    /// Highest protocol version this server speaks (default
    /// [`PROTO_VERSION`]). A capped server behaves exactly like a real
    /// older build: it answers `Hello` with the capped version and hangs
    /// up on any frame that version cannot decode — which is what the
    /// cross-version interop tests rely on to emulate v0/v1 peers without
    /// keeping three codebases around.
    pub protocol_version: u32,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_connections: 128,
            pipeline_workers: 4,
            protocol_version: PROTO_VERSION,
        }
    }
}

type ConnRegistry = Arc<Mutex<std::collections::HashMap<u64, TcpStream>>>;

/// The write half of a served connection: one socket plus one reusable
/// encode buffer behind a single lock, so every response — inline or from
/// a pipeline worker — reuses the same scratch allocation and goes out as
/// one vectored write.
struct ResponseWriter {
    stream: TcpStream,
    enc: FrameEncoder,
}

impl ResponseWriter {
    fn send(&mut self, response: &Response) -> std::io::Result<()> {
        self.enc.write_frame(&mut self.stream, response)
    }
}

/// A bounded per-connection worker pool for pipelined (`Corr`) requests
/// that can block.
///
/// The previous design spawned one thread per pipelined request — cheap
/// until a client pipelines thousands of blocking takes and the server
/// pays a thread spawn per frame plus an unbounded thread count. The pool
/// spawns lazily up to `max_workers` threads; beyond that, jobs queue.
/// Workers exit when the connection closes the channel; a worker parked
/// in a forever-blocking take drains its queue entry late, exactly as the
/// old detached thread would have.
struct PipelinePool {
    tx: Option<std::sync::mpsc::Sender<PipelineJob>>,
    rx: Arc<Mutex<std::sync::mpsc::Receiver<PipelineJob>>>,
    space: Arc<Space>,
    writer: Arc<Mutex<ResponseWriter>>,
    version: u32,
    max_workers: usize,
    spawned: usize,
    /// Jobs queued or running. Shared with workers; also mirrored into
    /// the `server.pipeline_queue_depth` gauge.
    depth: Arc<AtomicUsize>,
}

struct PipelineJob {
    corr_id: u64,
    inner: Request,
    /// Decrements depth (and the gauge) exactly once, whether the job
    /// runs, dies in the queue, or dies with the channel.
    _depth: DepthGuard,
}

struct DepthGuard(Arc<AtomicUsize>);

impl Drop for DepthGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
        net_series().pipeline_queue_depth.add(-1);
    }
}

impl PipelinePool {
    fn new(
        space: Arc<Space>,
        writer: Arc<Mutex<ResponseWriter>>,
        version: u32,
        max_workers: usize,
    ) -> PipelinePool {
        let (tx, rx) = std::sync::mpsc::channel();
        PipelinePool {
            tx: Some(tx),
            rx: Arc::new(Mutex::new(rx)),
            space,
            writer,
            version,
            max_workers: max_workers.max(1),
            spawned: 0,
            depth: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn submit(&mut self, corr_id: u64, inner: Request) {
        let depth = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        let net = net_series();
        net.pipeline_queue_depth.add(1);
        if depth > self.max_workers {
            net.pipeline_saturated.inc();
        }
        if depth > self.spawned && self.spawned < self.max_workers {
            self.spawn_worker();
        }
        let tx = self.tx.as_ref().expect("pool open while serving");
        let _ = tx.send(PipelineJob {
            corr_id,
            inner,
            _depth: DepthGuard(self.depth.clone()),
        });
    }

    fn spawn_worker(&mut self) {
        self.spawned += 1;
        let rx = self.rx.clone();
        let space = self.space.clone();
        let writer = self.writer.clone();
        let version = self.version;
        std::thread::spawn(move || {
            loop {
                // Holding the lock across `recv` is the point: exactly one
                // idle worker waits on the channel, the rest park on the
                // mutex, and each job wakes exactly one of them.
                let job = match rx.lock().recv() {
                    Ok(job) => job,
                    Err(_) => break,
                };
                let destructive = job.inner.is_destructive();
                let inner = serve(&space, job.inner, version);
                let response = Response::Corr {
                    corr_id: job.corr_id,
                    inner: Box::new(inner),
                };
                let failed = writer.lock().send(&response).is_err();
                if failed && destructive {
                    restore_unacked(&space, response);
                }
                drop(job._depth);
            }
        });
    }
}

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
        let conns: ConnRegistry = Arc::new(Mutex::new(std::collections::HashMap::new()));
        let conns2 = conns.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut next_conn_id = 0u64;
            for stream in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
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
                    // Responses go through a shared writer (socket + one
                    // reusable encode buffer) so pipelined requests served
                    // on pool workers interleave their answers with the
                    // synchronous path.
                    let Ok(write_stream) = stream.try_clone() else {
                        return;
                    };
                    let writer = Arc::new(Mutex::new(ResponseWriter {
                        stream: write_stream,
                        enc: FrameEncoder::new(),
                    }));
                    let version = opts.protocol_version;
                    let mut pool = PipelinePool::new(
                        space.clone(),
                        writer.clone(),
                        version,
                        opts.pipeline_workers,
                    );
                    // Per-connection read-side state: a recycled frame
                    // buffer, the name cache shared by every decode on
                    // this connection, and the previous frame awaiting an
                    // opportunistic recycle.
                    let mut frames = FramePool::new();
                    let mut interner = crate::payload::NameInterner::new();
                    let mut last_frame: Option<bytes::Bytes> = None;
                    loop {
                        if let Some(done) = last_frame.take() {
                            // By now the previous request has been served
                            // (or handed to the pool); if nothing borrowed
                            // its frame, the next read reuses it.
                            frames.recycle(done);
                        }
                        let Ok(frame) = frames.read_frame(&mut stream) else {
                            break;
                        };
                        last_frame = Some(frame.clone());
                        let Ok(request) =
                            crate::payload::decode_frame::<Request>(frame, &mut interner)
                        else {
                            break;
                        };
                        if request.min_version() > version {
                            // A real server of the capped version could not
                            // have decoded this frame; reproduce its
                            // reaction — hang up without an answer.
                            break;
                        }
                        match request {
                            // Pipelined and possibly blocking: a pool
                            // worker serves it so the requests queued
                            // behind it aren't stalled; the response
                            // carries the correlation id back.
                            Request::Corr { corr_id, inner } if inner.may_block() => {
                                pool.submit(corr_id, *inner);
                            }
                            // Pipelined but non-blocking: serving inline
                            // is cheaper than any handoff.
                            Request::Corr { corr_id, inner } => {
                                let destructive = inner.is_destructive();
                                let response = Response::Corr {
                                    corr_id,
                                    inner: Box::new(serve(&space, *inner, version)),
                                };
                                if writer.lock().send(&response).is_err() {
                                    if destructive {
                                        restore_unacked(&space, response);
                                    }
                                    break;
                                }
                            }
                            request => {
                                let destructive = request.is_destructive();
                                let response = serve(&space, request, version);
                                if writer.lock().send(&response).is_err() {
                                    if destructive {
                                        restore_unacked(&space, response);
                                    }
                                    break;
                                }
                            }
                        }
                    }
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
    /// — [`RemoteSpace`] does so transparently. An operator lever for
    /// shedding stuck clients, and the failure injection behind the
    /// "worker survives a dropped connection" tests.
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
        // Actively hang up on served clients: service threads are
        // detached and may be blocked in a read; shutting the sockets
        // down unblocks them so clients see Closed, not a stale server.
        for (_, conn) in self.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Returns tuples carried by an *undeliverable* response to a destructive
/// request back to the space. A take's tuples live only in the response
/// frame once removed from the space; if that frame never reaches the
/// client (connection cut mid-call — see `SpaceServer::disconnect_all`, or
/// the client died), dropping it would silently destroy them. Restoring
/// them lets the client's reconnect-and-retry take them again, and returns
/// a dead worker's tasks to the pool. Restored tuples get a fresh
/// `Forever` lease — the original lease was consumed by the take.
///
/// Callers gate on [`Request::is_destructive`]: a `MaybeTuple` response to
/// a plain `read` must *not* be restored (the tuple is still in the
/// space — writing it back would duplicate it).
fn restore_unacked(space: &Arc<Space>, response: Response) {
    let tuples = match response {
        Response::MaybeTuple(Some(tuple)) => vec![tuple],
        Response::Tuples(tuples) if !tuples.is_empty() => tuples,
        Response::Corr { inner, .. } => return restore_unacked(space, *inner),
        _ => return,
    };
    net_series().tuples_restored.add(tuples.len() as u64);
    // Failure means the space is closed; the tuples are moot then.
    let _ = Space::write_all(space, tuples);
}

fn serve(space: &Arc<Space>, request: Request, version: u32) -> Response {
    match request {
        Request::Hello(_client_version) => Response::Proto(version),
        Request::Traced {
            trace_id,
            span_id,
            inner,
        } => {
            // Adopt the client's context so the handler span (and any
            // space instrumentation under it) joins the client's trace.
            let _ctx = (trace_id != 0 && span_id != 0)
                .then(|| TraceContext { trace_id, span_id }.attach());
            let _span = acc_telemetry::span!("space.serve", op = inner.op_name());
            serve_basic(space, *inner, version)
        }
        basic => serve_basic(space, basic, version),
    }
}

fn serve_basic(space: &Arc<Space>, request: Request, version: u32) -> Response {
    fn map<T>(result: SpaceResult<T>, ok: impl FnOnce(T) -> Response) -> Response {
        match result {
            Ok(v) => ok(v),
            Err(e) => error_encode(&e),
        }
    }
    match request {
        Request::Write(tuple, lease) => {
            let lease = match lease {
                Some(ms) => Lease::for_millis(ms),
                None => Lease::Forever,
            };
            map(space.write_leased(tuple, lease), Response::Id)
        }
        Request::Read(tmpl, timeout) => map(
            Space::read(space, &tmpl, timeout.map(Duration::from_millis)),
            Response::MaybeTuple,
        ),
        Request::Take(tmpl, timeout) => map(
            Space::take(space, &tmpl, timeout.map(Duration::from_millis)),
            Response::MaybeTuple,
        ),
        Request::Count(tmpl) => Response::Count(Space::count(space, &tmpl) as u64),
        Request::Close => {
            Space::close(space);
            Response::Unit
        }
        Request::IsClosed => Response::Bool(Space::is_closed(space)),
        Request::WriteAll(tuples, lease) => {
            let lease = match lease {
                Some(ms) => Lease::for_millis(ms),
                None => Lease::Forever,
            };
            map(Space::write_all_leased(space, tuples, lease), Response::Ids)
        }
        Request::TakeUpTo(tmpl, max, timeout) => {
            match Space::take_up_to(
                space,
                &tmpl,
                max as usize,
                timeout.map(Duration::from_millis),
            ) {
                Err(e) => error_encode(&e),
                Ok(mut tuples) => {
                    // The batch must fit one response frame. Tuples that
                    // would overflow it go *back to the space* — they were
                    // already taken, and dropping the frame on the floor
                    // would silently destroy them.
                    let mut total = 0usize;
                    let mut keep = tuples.len();
                    for (i, t) in tuples.iter().enumerate() {
                        total += t.size_hint() + 64;
                        if total > MAX_FRAME / 2 {
                            keep = i.max(1);
                            break;
                        }
                    }
                    if keep < tuples.len() {
                        let excess = tuples.split_off(keep);
                        if Space::write_all(space, excess).is_err() {
                            return error_encode(&SpaceError::Closed);
                        }
                    }
                    Response::Tuples(tuples)
                }
            }
        }
        // Envelopes never nest (the codec enforces it); answer the
        // version either way rather than kill the connection.
        Request::Hello(..) | Request::Traced { .. } | Request::Corr { .. } => {
            Response::Proto(version)
        }
    }
}

/// Soft cap on one batch-write frame: tuples are chunked so each
/// `WriteAll` frame stays comfortably under [`MAX_FRAME`] (the estimate
/// is `size_hint`, not the exact encoding, hence the margin).
const BATCH_FRAME_BUDGET: usize = MAX_FRAME / 4;
/// Hard cap on tuples per batch frame, so a million tiny tuples still
/// pipeline as several frames instead of one enormous one.
const BATCH_MAX_TUPLES: usize = 4096;

/// The client's per-connection state: the socket plus the reusable
/// buffers that make the wire path allocation-free in steady state — an
/// encode scratch, a recycled read frame, and the decode name cache.
/// All live under the one connection mutex, so none need their own.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    enc: FrameEncoder,
    pool: FramePool,
    interner: crate::payload::NameInterner,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            enc: FrameEncoder::new(),
            pool: FramePool::new(),
            interner: crate::payload::NameInterner::new(),
        }
    }

    /// Pipelines `ops`, each in a `Corr` envelope numbered by its
    /// position (and a `Traced` one inside it when `trace` is live).
    fn write_frames(
        &mut self,
        ops: &[Request],
        trace: Option<TraceContext>,
    ) -> std::io::Result<()> {
        ops.iter().enumerate().try_for_each(|(i, op)| {
            let framed = Framed {
                corr_id: Some(i as u64),
                trace,
                op,
            };
            self.enc.write_frame(&mut self.stream, &framed)
        })
    }

    fn read_frames(&mut self, n: usize) -> std::io::Result<Vec<bytes::Bytes>> {
        (0..n)
            .map(|_| self.pool.read_frame(&mut self.stream))
            .collect()
    }
}

/// Pipelined request frames that are on the wire (or failed to get there)
/// and whose responses have not been read: the state between the two
/// halves of a split-phase call. It holds the connection lock throughout,
/// so no other caller's frames can interleave with the outstanding ones.
struct InFlight<'a> {
    space: &'a RemoteSpace,
    conn: MutexGuard<'a, Conn>,
    /// Kept for the resend after a reconnect.
    ops: Vec<Request>,
    trace: Option<TraceContext>,
    sent: std::io::Result<()>,
}

impl InFlight<'_> {
    /// Reads one response per frame sent and returns them in request
    /// order. A transport failure in either half — the send recorded at
    /// construction or the reads here — triggers the one reconnect and a
    /// resend of the *whole* batch, which is what makes pipelined writes
    /// at-least-once.
    fn finish(self) -> SpaceResult<Vec<Response>> {
        let InFlight {
            space,
            mut conn,
            ops,
            trace,
            sent,
        } = self;
        let conn = &mut *conn;
        let n = ops.len();
        let raw = match sent.and_then(|()| conn.read_frames(n)) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return Err(SpaceError::Protocol(e.to_string()));
            }
            Err(first) => {
                space.reconnect(conn, &first)?;
                if space.peer_version() < 2 {
                    // The server was replaced by an older build between
                    // attempts; resending v2 frames would just hang up.
                    return Err(SpaceError::Transport(format!(
                        "{first}; peer downgraded below v2 on reconnect"
                    )));
                }
                conn.write_frames(&ops, trace)
                    .and_then(|()| conn.read_frames(n))
                    .map_err(|e| SpaceError::Transport(e.to_string()))?
            }
        };
        let mut slots: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        for frame in raw {
            let decoded =
                crate::payload::decode_frame::<Response>(frame.clone(), &mut conn.interner);
            conn.pool.recycle(frame);
            let Ok(Response::Corr { corr_id, inner }) = decoded else {
                RemoteSpace::poison(&conn.stream);
                return Err(SpaceError::Protocol(
                    "expected a correlated response frame".into(),
                ));
            };
            let Some(slot) = slots.get_mut(corr_id as usize) else {
                RemoteSpace::poison(&conn.stream);
                return Err(SpaceError::Protocol(format!(
                    "correlation id {corr_id} out of range"
                )));
            };
            if slot.is_some() {
                RemoteSpace::poison(&conn.stream);
                return Err(SpaceError::Protocol(format!(
                    "duplicate correlation id {corr_id}"
                )));
            }
            *slot = Some(*inner);
        }
        // n responses with unique in-range ids fill all n slots.
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all correlation slots filled"))
            .collect())
    }
}

/// Client-side proxy to a [`SpaceServer`] — the "downloaded space proxy".
/// One TCP connection, one *caller* at a time (clone-free; open one proxy
/// per worker, as each worker owns its own connection). Batch operations
/// pipeline several correlated frames over that connection in one lock
/// hold.
///
/// A transport failure mid-call triggers exactly one reconnect (with a
/// fresh version probe) and one resend before surfacing
/// [`SpaceError::Transport`] — so a single dropped connection is invisible
/// to callers. The retry makes mutating calls *at-least-once*: if the
/// first attempt's response was lost after the server applied it, the
/// resend applies it again. That matches JavaSpaces' RMI-era semantics;
/// callers needing exactly-once dedupe by task id (as the master does).
#[derive(Debug)]
pub struct RemoteSpace {
    addr: SocketAddr,
    stream: Mutex<Conn>,
    /// What the server answered to `Hello` — 0 for a version-0 (seed
    /// protocol) server, which must never be sent v1+ frames. Refreshed on
    /// every reconnect, hence atomic.
    peer_version: AtomicU32,
    /// The highest version this client will speak (PROTO_VERSION outside
    /// of cross-version interop tests).
    max_version: u32,
}

impl RemoteSpace {
    /// Connects to a space server and probes its protocol version: a
    /// `Hello` is sent first, and a server that hangs up on it (a v0
    /// server breaks the connection on any undecodable request) gets a
    /// plain reconnect with every v1+ feature disabled.
    pub fn connect(addr: SocketAddr) -> std::io::Result<RemoteSpace> {
        RemoteSpace::connect_capped(addr, PROTO_VERSION)
    }

    /// Like [`RemoteSpace::connect`], but never speaking a protocol newer
    /// than `max_version` regardless of what the server offers — this is
    /// how the interop matrix emulates older clients. `max_version == 0`
    /// skips the handshake entirely, exactly like the seed client.
    pub fn connect_capped(addr: SocketAddr, max_version: u32) -> std::io::Result<RemoteSpace> {
        let (stream, peer_version) = RemoteSpace::establish(addr, max_version)?;
        net_series().protocol_version.set(peer_version as i64);
        Ok(RemoteSpace {
            addr,
            stream: Mutex::new(Conn::new(stream)),
            peer_version: AtomicU32::new(peer_version),
            max_version,
        })
    }

    /// Opens a connection and negotiates the protocol version: the lower
    /// of our cap and the server's answer, or 0 when the server rejects
    /// the handshake (probe-and-fallback).
    fn establish(addr: SocketAddr, max_version: u32) -> std::io::Result<(TcpStream, u32)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        if max_version == 0 {
            return Ok((stream, 0));
        }
        match RemoteSpace::probe(&mut stream, max_version) {
            Ok(version) => Ok((stream, version.min(max_version))),
            Err(_) => {
                // Old peer: reconnect and speak version 0 only.
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok((stream, 0))
            }
        }
    }

    fn probe(stream: &mut TcpStream, max_version: u32) -> std::io::Result<u32> {
        write_frame(stream, &Request::Hello(max_version))?;
        let bytes = read_frame_bytes(stream)?;
        match Response::from_bytes(&bytes) {
            Ok(Response::Proto(version)) => Ok(version),
            _ => Ok(0),
        }
    }

    /// The protocol version negotiated with the connected server (0 = a
    /// pre-handshake server).
    pub fn peer_version(&self) -> u32 {
        self.peer_version.load(Ordering::Relaxed)
    }

    /// Replaces a failed connection with a fresh, re-probed one. Called
    /// at most once per operation (bounded retry). Only the socket is
    /// replaced — the buffers and name cache are content-based, not
    /// connection-based, and stay warm across reconnects.
    fn reconnect(&self, conn: &mut Conn, cause: &std::io::Error) -> SpaceResult<()> {
        let (fresh, version) = RemoteSpace::establish(self.addr, self.max_version)
            .map_err(|e| SpaceError::Transport(format!("{cause}; reconnect failed: {e}")))?;
        conn.stream = fresh;
        self.peer_version.store(version, Ordering::Relaxed);
        let net = net_series();
        net.reconnects.inc();
        net.protocol_version.set(version as i64);
        Ok(())
    }

    /// Marks the stream dead after a protocol violation so the next call
    /// starts from a clean reconnect instead of a desynced byte stream.
    fn poison(stream: &TcpStream) {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// One request, one response. `trace`, when set, rides along in a
    /// [`Request::Traced`] envelope (v1+ peers only — the caller checks).
    fn call(&self, request: &Request, trace: Option<TraceContext>) -> SpaceResult<Response> {
        let framed = Framed {
            corr_id: None,
            trace,
            op: request,
        };
        let mut conn = self.stream.lock();
        let conn = &mut *conn;
        let exchange = |c: &mut Conn| -> std::io::Result<bytes::Bytes> {
            c.enc.write_frame(&mut c.stream, &framed)?;
            c.pool.read_frame(&mut c.stream)
        };
        let frame = match exchange(conn) {
            Ok(frame) => frame,
            // InvalidData is not a transport fault (oversized or corrupt
            // frame) — reconnecting and resending cannot fix it.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return Err(SpaceError::Protocol(e.to_string()));
            }
            Err(first) => {
                self.reconnect(conn, &first)?;
                exchange(conn).map_err(|e| SpaceError::Transport(e.to_string()))?
            }
        };
        let decoded = crate::payload::decode_frame::<Response>(frame.clone(), &mut conn.interner);
        // Opportunistic: reclaims the buffer unless the response borrowed
        // it (a tuple payload holding a `Bytes` view keeps it alive).
        conn.pool.recycle(frame);
        match decoded {
            Ok(response) => Ok(response),
            Err(_) => {
                RemoteSpace::poison(&conn.stream);
                Err(SpaceError::Protocol("undecodable response frame".into()))
            }
        }
    }

    /// Opens a client-side span over the operation and, when tracing is
    /// on and the peer speaks v1, sends the request in a
    /// [`Request::Traced`] envelope carrying that span's context — which
    /// is how the server's handler span ends up in the caller's trace.
    fn call_traced(&self, span_name: &'static str, request: Request) -> SpaceResult<Response> {
        let _span = acc_telemetry::span!(span_name);
        let trace = TraceContext::current_if_enabled().filter(|_| self.peer_version() >= 1);
        self.call(&request, trace)
    }

    /// Pipelines several requests over the connection in one lock hold:
    /// every frame goes out (in a [`Request::Corr`] envelope, trace
    /// context attached when live) before the first response is read, so
    /// the whole batch costs one round trip. This is the sending half: it
    /// takes the connection lock and writes the frames;
    /// [`InFlight::finish`] reads the responses, and owns the one
    /// reconnect-and-resend whichever half failed. Requires a v2 peer.
    fn send_pipelined(&self, ops: Vec<Request>) -> InFlight<'_> {
        let trace = TraceContext::current_if_enabled();
        let mut conn = self.stream.lock();
        // The whole batch is encoded through the one reusable scratch
        // buffer before the first response is read (that is the whole
        // point of pipelining: one round trip).
        let sent = conn.write_frames(&ops, trace);
        InFlight {
            space: self,
            conn,
            ops,
            trace,
            sent,
        }
    }

    /// Split-phase [`TupleStore::write_all_leased`]: the chunked
    /// `WriteAll` frames go out now, the ids come back from
    /// [`Pending::finish`]. A caller with several servers to write to
    /// begins on each before finishing on any, paying one round trip of
    /// latency for all of them without a thread per server (see
    /// `acc-spacegrid`). Pre-v2 peers have no pipelining; the write
    /// completes here and `finish` just hands the outcome over.
    pub fn begin_write_all_leased(
        &self,
        tuples: Vec<Tuple>,
        lease: Lease,
    ) -> Pending<'_, Vec<EntryId>> {
        if tuples.is_empty() {
            return Pending::done(Ok(Vec::new()));
        }
        if self.peer_version() < 2 {
            return Pending::done(
                tuples
                    .into_iter()
                    .map(|tuple| self.write_leased(tuple, lease))
                    .collect(),
            );
        }
        let lease_ms = match lease {
            Lease::Forever => None,
            Lease::Duration(d) => Some(d.as_millis() as u64),
        };
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
        chunks.push(Request::WriteAll(current, lease_ms));
        Pending::sent(self.send_pipelined(chunks), |responses| {
            let mut ids = Vec::new();
            for response in responses {
                match response {
                    Response::Ids(batch) => ids.extend(batch),
                    Response::Err(code, detail) => return Err(error_from(code, detail)),
                    other => return Err(unexpected("remote.write_all", &other)),
                }
            }
            Ok(ids)
        })
    }

    /// Split-phase, non-blocking [`TupleStore::take_up_to`]: asks now for
    /// up to `max` tuples that match *at this moment* (a zero timeout, so
    /// the server answers from its connection thread and never parks);
    /// the tuples come back from [`Pending::finish`]. Same fan-out use
    /// and pre-v2 behaviour as [`RemoteSpace::begin_write_all_leased`].
    pub fn begin_take_up_to(&self, template: &Template, max: usize) -> Pending<'_, Vec<Tuple>> {
        if max == 0 {
            return Pending::done(Ok(Vec::new()));
        }
        if self.peer_version() < 2 {
            return Pending::done(self.take_up_to(template, max, Some(Duration::ZERO)));
        }
        let request = Request::TakeUpTo(template.clone(), max as u64, Some(0));
        Pending::sent(
            self.send_pipelined(vec![request]),
            |mut responses| match responses.pop().expect("one response per request sent") {
                Response::Tuples(tuples) => Ok(tuples),
                Response::Err(code, detail) => Err(error_from(code, detail)),
                other => Err(unexpected("remote.take_up_to", &other)),
            },
        )
    }

    fn expect_tuple(
        &self,
        span_name: &'static str,
        request: Request,
    ) -> SpaceResult<Option<Tuple>> {
        match self.call_traced(span_name, request)? {
            Response::MaybeTuple(t) => Ok(t),
            Response::Err(code, detail) => Err(error_from(code, detail)),
            other => Err(unexpected(span_name, &other)),
        }
    }
}

/// The second half of a split-phase batch call (see
/// [`RemoteSpace::begin_write_all_leased`]): the request is on the wire
/// and this value holds the connection — lock included — until
/// [`Pending::finish`] reads the answer. Begin on several `RemoteSpace`s
/// in one fixed order (two threads that share them and begin in different
/// orders can deadlock on the connection locks), then finish each; do not
/// call the same `RemoteSpace` again in between, its lock is held.
pub struct Pending<'a, T> {
    state: PendingState<'a, T>,
}

enum PendingState<'a, T> {
    /// Completed at `begin` (empty batch, or a pre-v2 peer).
    Done(SpaceResult<T>),
    Sent {
        in_flight: InFlight<'a>,
        interpret: fn(Vec<Response>) -> SpaceResult<T>,
    },
}

impl<'a, T> Pending<'a, T> {
    fn done(result: SpaceResult<T>) -> Pending<'a, T> {
        Pending {
            state: PendingState::Done(result),
        }
    }

    fn sent(
        in_flight: InFlight<'a>,
        interpret: fn(Vec<Response>) -> SpaceResult<T>,
    ) -> Pending<'a, T> {
        Pending {
            state: PendingState::Sent {
                in_flight,
                interpret,
            },
        }
    }

    /// Reads the response(s) and releases the connection. Failure
    /// handling is that of every `RemoteSpace` call: one reconnect and
    /// one resend of the whole request before `Transport` surfaces.
    pub fn finish(self) -> SpaceResult<T> {
        match self.state {
            PendingState::Done(result) => result,
            PendingState::Sent {
                in_flight,
                interpret,
            } => in_flight.finish().and_then(interpret),
        }
    }
}

/// A decodable response of the wrong variant is a protocol bug (or a
/// hostile peer) — report it as such instead of masking it as a shutdown.
fn unexpected(op: &str, response: &Response) -> SpaceError {
    SpaceError::Protocol(format!("unexpected response to {op}: {response:?}"))
}

impl TupleStore for RemoteSpace {
    fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
        let lease_ms = match lease {
            Lease::Forever => None,
            Lease::Duration(d) => Some(d.as_millis() as u64),
        };
        match self.call_traced("remote.write", Request::Write(tuple, lease_ms))? {
            Response::Id(id) => Ok(id),
            Response::Err(code, detail) => Err(error_from(code, detail)),
            other => Err(unexpected("remote.write", &other)),
        }
    }

    // The `template.clone()` below (and in take/count/take_up_to) is two
    // refcount bumps, not a deep copy — `Template` is `Arc`-backed.
    fn read(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        self.expect_tuple(
            "remote.read",
            Request::Read(template.clone(), timeout.map(|d| d.as_millis() as u64)),
        )
    }

    fn take(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        self.expect_tuple(
            "remote.take",
            Request::Take(template.clone(), timeout.map(|d| d.as_millis() as u64)),
        )
    }

    fn count(&self, template: &Template) -> SpaceResult<usize> {
        match self.call_traced("remote.count", Request::Count(template.clone()))? {
            Response::Count(n) => Ok(n as usize),
            Response::Err(code, detail) => Err(error_from(code, detail)),
            other => Err(unexpected("remote.count", &other)),
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
    /// the chunks *pipelined* — every frame is sent before the first
    /// response is read, so a planning phase of thousands of tasks costs a
    /// handful of round trips instead of one per task. Pre-v2 peers get
    /// the plain one-write-per-tuple loop.
    fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
        let _span = acc_telemetry::span!("remote.write_all", tuples = tuples.len() as u64);
        self.begin_write_all_leased(tuples, lease).finish()
    }

    /// Batch take over the wire: one round trip fetches up to `max`
    /// matching tuples (the worker's prefetch path). Pre-v2 peers get the
    /// block-for-first-then-drain loop of single takes.
    fn take_up_to(
        &self,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> SpaceResult<Vec<Tuple>> {
        if max == 0 {
            return Ok(Vec::new());
        }
        if self.peer_version() < 2 {
            let mut out = Vec::new();
            match self.take(template, timeout)? {
                None => return Ok(out),
                Some(first) => out.push(first),
            }
            while out.len() < max {
                match self.take_if_exists(template)? {
                    Some(t) => out.push(t),
                    None => break,
                }
            }
            return Ok(out);
        }
        let request = Request::TakeUpTo(
            template.clone(),
            max as u64,
            timeout.map(|d| d.as_millis() as u64),
        );
        match self.call_traced("remote.take_up_to", request)? {
            Response::Tuples(tuples) => Ok(tuples),
            Response::Err(code, detail) => Err(error_from(code, detail)),
            other => Err(unexpected("remote.take_up_to", &other)),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreHandle;

    fn tuple(id: i64) -> Tuple {
        Tuple::build("t").field("id", id).done()
    }

    fn rig() -> (Arc<Space>, SpaceServer, RemoteSpace) {
        let space = Space::new("served");
        let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
        let remote = RemoteSpace::connect(server.addr()).unwrap();
        (space, server, remote)
    }

    #[test]
    fn request_response_codecs_roundtrip() {
        let requests = vec![
            Request::Write(tuple(1), Some(5000)),
            Request::Write(tuple(2), None),
            Request::Read(Template::of_type("t"), Some(100)),
            Request::Take(Template::any_type().done(), None),
            Request::Count(Template::of_type("t")),
            Request::Close,
            Request::IsClosed,
            Request::Hello(PROTO_VERSION),
            Request::Traced {
                trace_id: 0xdead_beef_cafe_f00d,
                span_id: 42,
                inner: Box::new(Request::Take(Template::of_type("t"), Some(250))),
            },
            Request::WriteAll(vec![tuple(1), tuple(2), tuple(3)], Some(9000)),
            Request::WriteAll(Vec::new(), None),
            Request::TakeUpTo(Template::of_type("t"), 8, Some(50)),
            Request::TakeUpTo(Template::any_type().done(), 1, None),
            Request::Corr {
                corr_id: 17,
                inner: Box::new(Request::WriteAll(vec![tuple(9)], None)),
            },
            Request::Corr {
                corr_id: u64::MAX,
                inner: Box::new(Request::Traced {
                    trace_id: 5,
                    span_id: 6,
                    inner: Box::new(Request::Count(Template::of_type("t"))),
                }),
            },
        ];
        for r in requests {
            assert_eq!(Request::from_bytes(&r.to_bytes()).unwrap(), r);
        }
        let responses = vec![
            Response::Id(7),
            Response::MaybeTuple(None),
            Response::MaybeTuple(Some(tuple(3))),
            Response::Count(12),
            Response::Bool(true),
            Response::Unit,
            Response::Err(1, String::new()),
            Response::Err(7, "disk full".into()),
            Response::Err(8, "connection reset".into()),
            Response::Err(9, "bad correlation id".into()),
            Response::Proto(PROTO_VERSION),
            Response::Ids(vec![1, 2, 3]),
            Response::Ids(Vec::new()),
            Response::Tuples(vec![tuple(4), tuple(5)]),
            Response::Corr {
                corr_id: 17,
                inner: Box::new(Response::Ids(vec![8, 9])),
            },
        ];
        for r in responses {
            assert_eq!(Response::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }

    #[test]
    fn framed_requests_encode_as_the_nested_envelopes_they_decode_to() {
        let op = Request::TakeUpTo(Template::of_type("t"), 8, Some(50));
        let ctx = TraceContext {
            trace_id: 0xdead_beef_cafe_f00d,
            span_id: 42,
        };
        let traced = |inner: Request| Request::Traced {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            inner: Box::new(inner),
        };
        let corr = |inner: Request| Request::Corr {
            corr_id: 3,
            inner: Box::new(inner),
        };
        for (corr_id, trace, nested) in [
            (None, None, op.clone()),
            (None, Some(ctx), traced(op.clone())),
            (Some(3), None, corr(op.clone())),
            (Some(3), Some(ctx), corr(traced(op.clone()))),
        ] {
            let mut w = WireWriter::new();
            Framed {
                corr_id,
                trace,
                op: &op,
            }
            .encode_into(&mut w);
            assert_eq!(w.into_vec(), nested.to_bytes());
        }
    }

    #[test]
    fn nested_trace_envelopes_are_rejected_not_recursed() {
        // Hand-build Traced(Traced(IsClosed)): the codec must refuse the
        // inner envelope rather than recurse (stack-overflow guard).
        let mut w = WireWriter::new();
        w.put_u8(8);
        w.put_u64(1);
        w.put_u64(2);
        w.put_u8(8); // inner tag: another envelope
        w.put_u64(3);
        w.put_u64(4);
        w.put_u8(6);
        assert!(Request::from_bytes(&w.finish()).is_err());
        // An envelope wrapping a Hello is equally invalid.
        let mut w = WireWriter::new();
        w.put_u8(8);
        w.put_u64(1);
        w.put_u64(2);
        w.put_u8(7);
        w.put_u32(1);
        assert!(Request::from_bytes(&w.finish()).is_err());
    }

    #[test]
    fn nested_correlation_envelopes_are_rejected_not_recursed() {
        // Corr(Corr(IsClosed)) must be refused at the inner tag.
        let mut w = WireWriter::new();
        w.put_u8(11);
        w.put_u64(1);
        w.put_u8(11); // inner tag: another correlation envelope
        w.put_u64(2);
        w.put_u8(6);
        assert!(Request::from_bytes(&w.finish()).is_err());
        // Corr(Hello) is invalid: the handshake is never pipelined.
        let mut w = WireWriter::new();
        w.put_u8(11);
        w.put_u64(1);
        w.put_u8(7);
        w.put_u32(2);
        assert!(Request::from_bytes(&w.finish()).is_err());
        // Response-side: Corr(Corr(Unit)) is refused the same way.
        let mut w = WireWriter::new();
        w.put_u8(11);
        w.put_u64(1);
        w.put_u8(11);
        w.put_u64(2);
        w.put_u8(6);
        assert!(Response::from_bytes(&w.finish()).is_err());
    }

    #[test]
    fn connect_negotiates_protocol_version() {
        let (_space, _server, remote) = rig();
        assert_eq!(remote.peer_version(), PROTO_VERSION);
    }

    #[test]
    fn connect_falls_back_to_v0_when_peer_rejects_hello() {
        // A "v0 server": accepts, reads one frame, hangs up — exactly how
        // the seed server reacted to an undecodable request tag.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let old_server = std::thread::spawn(move || {
            let mut seen_frames = 0usize;
            for stream in listener.incoming().take(2) {
                let Ok(mut stream) = stream else { continue };
                if read_frame_bytes(&mut stream).is_ok() {
                    seen_frames += 1;
                }
                // Drop the connection without answering: v0 behaviour
                // for a frame it cannot decode.
            }
            seen_frames
        });
        let remote = RemoteSpace::connect(addr).unwrap();
        assert_eq!(remote.peer_version(), 0);
        // The client's next op goes over the *second* (plain) connection
        // and carries no envelope; our fake server just hangs up, which
        // surfaces as Closed — but the probe must not have errored out
        // the constructor.
        assert!(remote.write(tuple(1)).is_err());
        assert!(old_server.join().unwrap() >= 1);
    }

    #[test]
    fn traced_envelope_serves_like_plain_request() {
        let space = Space::new("enveloped");
        let env = Request::Traced {
            trace_id: 9,
            span_id: 11,
            inner: Box::new(Request::Write(tuple(5), None)),
        };
        let Response::Id(_) = serve(&space, env, PROTO_VERSION) else {
            panic!("enveloped write must behave like a plain write");
        };
        assert_eq!(
            serve(
                &space,
                Request::Traced {
                    trace_id: 9,
                    span_id: 12,
                    inner: Box::new(Request::Count(Template::of_type("t"))),
                },
                PROTO_VERSION
            ),
            Response::Count(1)
        );
        // Hello gets the version back.
        assert_eq!(
            serve(&space, Request::Hello(0), PROTO_VERSION),
            Response::Proto(PROTO_VERSION)
        );
    }

    #[test]
    fn observed_server_scrapes_metrics_and_health() {
        use std::io::{Read as _, Write as _};
        let space = Space::new("observed");
        let server = SpaceServer::spawn_observed(
            space.clone(),
            "127.0.0.1:0",
            ServerOptions::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let observe = server.observe_addr().expect("observer mounted");
        let get = |path: &str| {
            let mut s = TcpStream::connect(observe).unwrap();
            s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let health = get("/healthz");
        assert!(health.contains("200"), "{health}");
        assert!(health.contains("space: ok"), "{health}");
        assert!(health.contains("wal: ok"), "{health}");
        let metrics = get("/metrics");
        assert!(metrics.contains("# TYPE"), "{metrics}");
        // Closing the space flips /healthz to 503.
        space.close();
        let health = get("/healthz");
        assert!(health.contains("503"), "{health}");
        assert!(health.contains("space: FAIL"), "{health}");
    }

    #[test]
    fn remote_write_take_roundtrip() {
        let (_space, _server, remote) = rig();
        remote.write(tuple(1)).unwrap();
        remote.write(tuple(2)).unwrap();
        assert_eq!(remote.count(&Template::of_type("t")).unwrap(), 2);
        let got = remote.take_if_exists(&Template::of_type("t")).unwrap();
        assert_eq!(got.unwrap().get_int("id"), Some(1));
    }

    #[test]
    fn remote_sees_local_writes_and_vice_versa() {
        let (space, _server, remote) = rig();
        space.write(tuple(10)).unwrap();
        let got = remote.take_if_exists(&Template::of_type("t")).unwrap();
        assert_eq!(got.unwrap().get_int("id"), Some(10));
        remote.write(tuple(11)).unwrap();
        let got = Space::take_if_exists(&space, &Template::of_type("t")).unwrap();
        assert_eq!(got.unwrap().get_int("id"), Some(11));
    }

    #[test]
    fn remote_blocking_take_waits_for_writer() {
        let (space, _server, remote) = rig();
        let handle = std::thread::spawn(move || {
            remote
                .take(&Template::of_type("t"), Some(Duration::from_secs(5)))
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(40));
        space.write(tuple(77)).unwrap();
        let got = handle.join().unwrap().unwrap();
        assert_eq!(got.get_int("id"), Some(77));
    }

    #[test]
    fn remote_timeout_returns_none() {
        let (_space, _server, remote) = rig();
        let got = remote
            .take(&Template::of_type("t"), Some(Duration::from_millis(30)))
            .unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn remote_close_propagates() {
        let (space, _server, remote) = rig();
        assert!(!remote.is_closed());
        remote.close();
        assert!(space.is_closed());
        assert!(remote.is_closed());
        assert_eq!(remote.write(tuple(1)), Err(SpaceError::Closed));
    }

    #[test]
    fn leased_remote_writes_expire() {
        let (_space, _server, remote) = rig();
        remote
            .write_leased(tuple(1), Lease::for_millis(10))
            .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(remote.count(&Template::of_type("t")).unwrap(), 0);
    }

    #[test]
    fn two_remote_workers_share_distinct_tasks() {
        let (space, server, _unused) = rig();
        for i in 0..40 {
            space.write(tuple(i)).unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..2 {
            let remote = RemoteSpace::connect(server.addr()).unwrap();
            handles.push(std::thread::spawn(move || {
                let store: StoreHandle = Arc::new(remote);
                let mut got = Vec::new();
                while let Ok(Some(t)) =
                    store.take(&Template::of_type("t"), Some(Duration::from_millis(100)))
                {
                    got.push(t.get_int("id").unwrap());
                }
                got
            }));
        }
        let mut all: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn server_drop_disconnects_clients() {
        let (_space, server, remote) = rig();
        drop(server);
        std::thread::sleep(Duration::from_millis(20));
        // New requests fail as Closed.
        assert!(remote.write(tuple(1)).is_err());
    }

    #[test]
    fn connection_cap_drops_excess_connections() {
        let space = Space::new("capped");
        let server = SpaceServer::spawn_with(
            space,
            "127.0.0.1:0",
            ServerOptions {
                max_connections: 1,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let first = RemoteSpace::connect(server.addr()).unwrap();
        // Prove the first connection holds the only slot.
        first.write(tuple(1)).unwrap();
        // The second connection is accepted at TCP level but dropped by the
        // server before service; its first request fails even after the
        // client's one bounded reconnect (the cap still holds), surfacing
        // as a transport error — not as a bogus "space closed".
        let second = RemoteSpace::connect(server.addr()).unwrap();
        assert!(matches!(
            second.write(tuple(2)),
            Err(SpaceError::Transport(_))
        ));
        // Releasing the first connection frees the slot for a new client.
        drop(first);
        let mut ok = false;
        for _ in 0..50 {
            std::thread::sleep(Duration::from_millis(10));
            let third = RemoteSpace::connect(server.addr()).unwrap();
            if third.write(tuple(3)).is_ok() {
                ok = true;
                break;
            }
        }
        assert!(ok, "slot was never released");
    }

    #[test]
    fn idle_connection_is_dropped_after_read_timeout() {
        let space = Space::new("timed");
        let server = SpaceServer::spawn_with(
            space,
            "127.0.0.1:0",
            ServerOptions {
                read_timeout: Some(Duration::from_millis(40)),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        // A raw connection (no proxy, so no transparent reconnect) sees
        // the hangup directly: after the idle period its next exchange
        // gets EOF instead of a response.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut raw, &Request::Write(tuple(1), None)).unwrap();
        read_frame_bytes(&mut raw).unwrap();
        std::thread::sleep(Duration::from_millis(250));
        let _ = write_frame(&mut raw, &Request::Write(tuple(2), None));
        assert!(read_frame_bytes(&mut raw).is_err());
        // The proxy rides out the same hangup: its call fails mid-flight,
        // reconnects once, and succeeds.
        let remote = RemoteSpace::connect(server.addr()).unwrap();
        remote.write(tuple(3)).unwrap();
        std::thread::sleep(Duration::from_millis(250));
        remote.write(tuple(4)).unwrap();
    }

    #[test]
    fn active_requests_survive_read_timeout() {
        // The idle timeout bounds silence *between* requests; a blocking
        // take that waits longer than the timeout must still be served.
        let space = Space::new("busy");
        let server = SpaceServer::spawn_with(
            space.clone(),
            "127.0.0.1:0",
            ServerOptions {
                read_timeout: Some(Duration::from_millis(40)),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let remote = RemoteSpace::connect(server.addr()).unwrap();
        let handle = std::thread::spawn(move || {
            remote
                .take(&Template::of_type("t"), Some(Duration::from_millis(400)))
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(200));
        space.write(tuple(9)).unwrap();
        assert_eq!(handle.join().unwrap().unwrap().get_int("id"), Some(9));
    }

    #[test]
    fn storage_error_crosses_the_wire_with_its_message() {
        for e in [
            SpaceError::Storage("disk on fire".into()),
            SpaceError::Transport("connection reset".into()),
            SpaceError::Protocol("bad correlation id".into()),
        ] {
            let resp = error_encode(&e);
            let decoded = Response::from_bytes(&resp.to_bytes()).unwrap();
            let Response::Err(code, detail) = decoded else {
                panic!("expected error response");
            };
            assert_eq!(error_from(code, detail), e);
        }
    }

    #[test]
    fn remote_batch_write_and_take_up_to() {
        let (space, _server, remote) = rig();
        let ids = remote.write_all((0..10).map(tuple).collect()).unwrap();
        assert_eq!(ids.len(), 10);
        assert_eq!(Space::count(&space, &Template::of_type("t")), 10);
        let got = remote
            .take_up_to(&Template::of_type("t"), 4, Some(Duration::ZERO))
            .unwrap();
        assert_eq!(got.len(), 4);
        let rest = remote.take_all(&Template::of_type("t")).unwrap();
        assert_eq!(rest.len(), 6);
        // Batch take blocks for the first match like a single take.
        let empty = remote
            .take_up_to(&Template::of_type("t"), 4, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn split_phase_calls_overlap_across_servers() {
        let (space_a, server_a, a) = rig();
        let (space_b, _server_b, b) = rig();
        // Both writes are on the wire before either response is read.
        let pending_a = a.begin_write_all_leased((0..5).map(tuple).collect(), Lease::Forever);
        let pending_b = b.begin_write_all_leased((5..8).map(tuple).collect(), Lease::Forever);
        assert_eq!(pending_a.finish().unwrap().len(), 5);
        assert_eq!(pending_b.finish().unwrap().len(), 3);
        assert_eq!(space_a.len(), 5);
        assert_eq!(space_b.len(), 3);
        // Batch takes likewise; each is non-blocking and capped at `max`.
        let t = Template::of_type("t");
        let pending_a = a.begin_take_up_to(&t, 4);
        let pending_b = b.begin_take_up_to(&t, 4);
        assert_eq!(pending_a.finish().unwrap().len(), 4);
        assert_eq!(pending_b.finish().unwrap().len(), 3);
        assert!(a.begin_take_up_to(&t, 0).finish().unwrap().is_empty());
        assert_eq!(space_a.len() + space_b.len(), 1);
        // A pre-v2 peer has no pipelining: the call completes at `begin`.
        let old = RemoteSpace::connect_capped(server_a.addr(), 1).unwrap();
        let pending = old.begin_take_up_to(&t, 4);
        assert_eq!(space_a.len(), 0, "served before finish");
        assert_eq!(pending.finish().unwrap().len(), 1);
    }

    #[test]
    fn split_phase_finish_resends_after_a_dropped_connection() {
        let (space, server, remote) = rig();
        let pending = remote.begin_write_all_leased((0..6).map(tuple).collect(), Lease::Forever);
        // The connection dies between the request frames and the response:
        // `finish` reconnects and resends the whole batch. Whether the
        // first copy was applied before the cut is a race, so the write is
        // at-least-once — 6 tuples or 12, never fewer, and always 6 ids.
        server.disconnect_all();
        assert_eq!(pending.finish().unwrap().len(), 6);
        let stored = Space::count(&space, &Template::of_type("t"));
        assert!(stored == 6 || stored == 12, "stored {stored}");
        // The proxy is usable again afterwards (lock released, fresh socket).
        remote.write(tuple(99)).unwrap();
    }

    #[test]
    fn pipelined_requests_correlate_responses() {
        let (space, _server, remote) = rig();
        let requests = (0..8).map(|i| Request::Write(tuple(i), None)).collect();
        let responses = remote.send_pipelined(requests).finish().unwrap();
        assert_eq!(responses.len(), 8);
        for r in responses {
            assert!(matches!(r, Response::Id(_)), "unexpected {r:?}");
        }
        assert_eq!(Space::count(&space, &Template::of_type("t")), 8);
    }

    #[test]
    fn cross_version_interop_matrix() {
        // Every client generation against every server generation: the
        // negotiated version is the min of the two, and the batch trait
        // calls work at every intersection (degrading to loops of single
        // frames below v2).
        for server_v in [0u32, 1, 2] {
            for client_v in [0u32, 1, 2] {
                let space = Space::new("interop");
                let server = SpaceServer::spawn_with(
                    space.clone(),
                    "127.0.0.1:0",
                    ServerOptions {
                        protocol_version: server_v,
                        ..ServerOptions::default()
                    },
                )
                .unwrap();
                let remote = RemoteSpace::connect_capped(server.addr(), client_v).unwrap();
                let pair = format!("server v{server_v} / client v{client_v}");
                assert_eq!(remote.peer_version(), server_v.min(client_v), "{pair}");
                let ids = remote.write_all((0..6).map(tuple).collect()).unwrap();
                assert_eq!(ids.len(), 6, "{pair}");
                let got = remote
                    .take_up_to(&Template::of_type("t"), 4, Some(Duration::from_millis(200)))
                    .unwrap();
                assert_eq!(got.len(), 4, "{pair}");
                assert_eq!(remote.count(&Template::of_type("t")).unwrap(), 2, "{pair}");
                let rest = remote.take_all(&Template::of_type("t")).unwrap();
                assert_eq!(rest.len(), 2, "{pair}");
            }
        }
    }

    #[test]
    fn client_survives_server_dropping_the_connection() {
        let (space, server, remote) = rig();
        remote.write(tuple(1)).unwrap();
        // The server kills every live connection (as a restarting or
        // load-shedding server would); the proxy's next call fails on the
        // dead socket, reconnects once, re-probes, and succeeds.
        server.disconnect_all();
        remote.write(tuple(2)).unwrap();
        assert_eq!(remote.peer_version(), PROTO_VERSION);
        assert_eq!(Space::count(&space, &Template::of_type("t")), 2);
        // Batch calls survive the same treatment.
        server.disconnect_all();
        let ids = remote.write_all((3..13).map(tuple).collect()).unwrap();
        assert_eq!(ids.len(), 10);
        assert_eq!(Space::count(&space, &Template::of_type("t")), 12);
    }

    #[test]
    fn undeliverable_take_response_restores_the_tuples() {
        // The lost-take race: a blocking take is parked server-side when
        // the connection is severed; the take then matches and the
        // response write fails. The tuples must go back to the space —
        // dropping the undeliverable frame would silently destroy them.
        let (space, server, _remote) = rig();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        write_frame(
            &mut raw,
            &Request::TakeUpTo(Template::of_type("t"), 4, Some(500)),
        )
        .unwrap();
        // Let the request park in the server's blocking take, then cut
        // the connection out from under it and satisfy the match.
        std::thread::sleep(Duration::from_millis(50));
        server.disconnect_all();
        Space::write_all(&space, (0..4).map(tuple).collect()).unwrap();
        // The server takes all four, fails to answer the dead socket, and
        // restores them.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while Space::count(&space, &Template::of_type("t")) < 4 {
            assert!(
                std::time::Instant::now() < deadline,
                "taken tuples were not restored"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(Space::count(&space, &Template::of_type("t")), 4);
    }

    #[test]
    fn write_frame_enforces_max_frame_at_the_boundary() {
        struct Blob(Vec<u8>);
        impl Payload for Blob {
            fn encode(&self, w: &mut WireWriter) {
                w.put_blob(&self.0);
            }
            fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
                Ok(Blob(r.get_blob()?))
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let drain = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 64 * 1024];
            while matches!(s.read(&mut buf), Ok(n) if n > 0) {}
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let overhead = Blob(Vec::new()).to_bytes().len();
        // Exactly MAX_FRAME: allowed (the reader accepts len == MAX_FRAME).
        let at_limit = Blob(vec![0u8; MAX_FRAME - overhead]);
        assert_eq!(at_limit.to_bytes().len(), MAX_FRAME);
        write_frame(&mut stream, &at_limit).unwrap();
        // One byte over: rejected cleanly before any bytes go out.
        let over = Blob(vec![0u8; MAX_FRAME - overhead + 1]);
        let err = write_frame(&mut stream, &over).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame too large"), "{err}");
        drop(stream);
        drain.join().unwrap();
    }

    #[test]
    fn oversized_write_is_a_protocol_error_and_does_not_desync() {
        let (_space, _server, remote) = rig();
        let huge = Tuple::build("t").field("blob", vec![0u8; MAX_FRAME]).done();
        match remote.write(huge) {
            Err(SpaceError::Protocol(msg)) => {
                assert!(msg.contains("frame too large"), "{msg}")
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
        // Nothing hit the wire, so the connection is still usable.
        remote.write(tuple(1)).unwrap();
        assert_eq!(remote.count(&Template::of_type("t")).unwrap(), 1);
    }

    #[test]
    fn unexpected_response_is_a_protocol_error() {
        // A confused server: answers the handshake correctly, then replies
        // to everything with Bool — decodable but wrong. The old client
        // reported this as `Closed`, masking the bug as a shutdown.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let bytes = read_frame_bytes(&mut s).unwrap();
            assert!(matches!(Request::from_bytes(&bytes), Ok(Request::Hello(_))));
            write_frame(&mut s, &Response::Proto(PROTO_VERSION)).unwrap();
            while read_frame_bytes(&mut s).is_ok() {
                if write_frame(&mut s, &Response::Bool(false)).is_err() {
                    break;
                }
            }
        });
        let remote = RemoteSpace::connect(addr).unwrap();
        match remote.count(&Template::of_type("t")) {
            Err(SpaceError::Protocol(msg)) => {
                assert!(msg.contains("unexpected response"), "{msg}")
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    #[test]
    fn take_up_to_splits_responses_that_would_overflow_a_frame() {
        // Six 2 MiB tuples exceed the server's per-response budget
        // (MAX_FRAME / 2): the server must return a prefix and write the
        // excess back rather than losing it or sending an unreadable
        // frame.
        let (space, _server, remote) = rig();
        for i in 0..6i64 {
            space
                .write(
                    Tuple::build("big")
                        .field("id", i)
                        .field("blob", vec![0u8; 2 << 20])
                        .done(),
                )
                .unwrap();
        }
        let first = remote
            .take_up_to(&Template::of_type("big"), 10, Some(Duration::ZERO))
            .unwrap();
        assert!(!first.is_empty(), "must return at least one tuple");
        assert!(first.len() < 6, "a 12 MiB response must have been split");
        // The excess went back to the space; repeated calls recover all six.
        let mut total = first.len();
        while total < 6 {
            let more = remote
                .take_up_to(&Template::of_type("big"), 10, Some(Duration::ZERO))
                .unwrap();
            assert!(!more.is_empty(), "excess tuples were lost");
            total += more.len();
        }
        assert_eq!(total, 6);
        assert_eq!(Space::count(&space, &Template::of_type("big")), 0);
    }

    /// Property tests over the wire codec: arbitrary frames (including the
    /// v2 batch and envelope variants) round-trip exactly, and arbitrary
    /// bytes never panic the decoder.
    mod codec_props {
        use super::*;
        use crate::value::Value;
        use proptest::prelude::*;

        fn arb_value() -> impl Strategy<Value = Value> {
            prop_oneof![
                any::<i64>().prop_map(Value::Int),
                // Arbitrary bit patterns: NaN payloads must round-trip too
                // (Value compares bitwise).
                any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
                any::<bool>().prop_map(Value::Bool),
                "[a-zA-Z0-9 ]{0,16}".prop_map(Value::Str),
                proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::from),
            ]
        }

        fn arb_tuple() -> impl Strategy<Value = Tuple> {
            (
                "[a-z]{1,8}",
                proptest::collection::btree_map("[a-z]{1,6}", arb_value(), 0..5),
            )
                .prop_map(|(ty, fields)| {
                    let mut builder = Tuple::build(ty.as_str());
                    for (name, value) in fields {
                        builder = builder.field(name, value);
                    }
                    builder.done()
                })
        }

        fn arb_template() -> impl Strategy<Value = Template> {
            (
                "[a-z]{1,8}",
                proptest::collection::btree_map("[a-z]{1,6}", any::<i64>(), 0..4),
            )
                .prop_map(|(ty, fields)| {
                    let mut builder = Template::build(ty.as_str());
                    for (name, value) in fields {
                        builder = builder.eq(name, value);
                    }
                    builder.done()
                })
        }

        fn arb_opt_ms() -> impl Strategy<Value = Option<u64>> {
            prop_oneof![Just(None), any::<u64>().prop_map(Some)]
        }

        /// The operation set — everything an envelope may wrap.
        fn arb_op() -> impl Strategy<Value = Request> {
            prop_oneof![
                (arb_tuple(), arb_opt_ms()).prop_map(|(t, l)| Request::Write(t, l)),
                (arb_template(), arb_opt_ms()).prop_map(|(t, o)| Request::Read(t, o)),
                (arb_template(), arb_opt_ms()).prop_map(|(t, o)| Request::Take(t, o)),
                arb_template().prop_map(Request::Count),
                Just(Request::Close),
                Just(Request::IsClosed),
                (proptest::collection::vec(arb_tuple(), 0..6), arb_opt_ms())
                    .prop_map(|(ts, l)| Request::WriteAll(ts, l)),
                (arb_template(), any::<u64>(), arb_opt_ms())
                    .prop_map(|(t, max, o)| Request::TakeUpTo(t, max, o)),
            ]
        }

        fn arb_traced() -> impl Strategy<Value = Request> {
            (any::<u64>(), any::<u64>(), arb_op()).prop_map(|(trace_id, span_id, op)| {
                Request::Traced {
                    trace_id,
                    span_id,
                    inner: Box::new(op),
                }
            })
        }

        fn arb_request() -> impl Strategy<Value = Request> {
            prop_oneof![
                arb_op(),
                any::<u32>().prop_map(Request::Hello),
                arb_traced(),
                // Corr wraps an op or a trace envelope — the codec's legal
                // nesting, matched by what `send_pipelined` sends.
                (any::<u64>(), prop_oneof![arb_op(), arb_traced()]).prop_map(|(corr_id, inner)| {
                    Request::Corr {
                        corr_id,
                        inner: Box::new(inner),
                    }
                }),
            ]
        }

        fn arb_flat_response() -> impl Strategy<Value = Response> {
            prop_oneof![
                any::<u64>().prop_map(Response::Id),
                Just(Response::MaybeTuple(None)),
                arb_tuple().prop_map(|t| Response::MaybeTuple(Some(t))),
                any::<u64>().prop_map(Response::Count),
                any::<bool>().prop_map(Response::Bool),
                Just(Response::Unit),
                (1u8..10, "[a-z ]{0,24}").prop_map(|(code, detail)| Response::Err(code, detail)),
                any::<u32>().prop_map(Response::Proto),
                proptest::collection::vec(any::<u64>(), 0..8).prop_map(Response::Ids),
                proptest::collection::vec(arb_tuple(), 0..6).prop_map(Response::Tuples),
            ]
        }

        fn arb_response() -> impl Strategy<Value = Response> {
            prop_oneof![
                arb_flat_response(),
                (any::<u64>(), arb_flat_response()).prop_map(|(corr_id, inner)| Response::Corr {
                    corr_id,
                    inner: Box::new(inner),
                }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn requests_roundtrip(request in arb_request()) {
                let decoded = Request::from_bytes(&request.to_bytes()).unwrap();
                prop_assert_eq!(decoded, request);
            }

            #[test]
            fn responses_roundtrip(response in arb_response()) {
                let decoded = Response::from_bytes(&response.to_bytes()).unwrap();
                prop_assert_eq!(decoded, response);
            }

            #[test]
            fn request_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..192)) {
                let _ = Request::from_bytes(&bytes);
            }

            #[test]
            fn response_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..192)) {
                let _ = Response::from_bytes(&bytes);
            }
        }
    }
}
