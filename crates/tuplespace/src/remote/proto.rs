//! The wire format — the only module that knows it.
//!
//! Every frame, request or response, is
//!
//! ```text
//! len:u32 | version:u8 | flags:u8 | seq:u32 | [trace_id:u64 span_id:u64] | [txn:u64] | tag:u8 | body
//! ```
//!
//! little-endian, `len` counting everything after itself and capped at
//! [`MAX_FRAME`]. `version` is [`WIRE_VERSION`] or the frame is refused —
//! there is no negotiation. `flags` bit 0 says a 16-byte trace context
//! follows `seq`; bit 1 that a client-chosen transaction id follows it,
//! which only a `TakeUpTo` or a `WriteAll` request may carry; bit 2, on a
//! `WriteAll` with bit 1, asks the server to commit that transaction once
//! the write is served. Every other bit must be zero. `seq` is chosen by
//! the client and echoed by the server in the response to that request.
//!
//! This file owns the layout ([`Frame`]), the operation and response
//! codecs ([`Request`], [`Response`]), the error-code table, and the
//! per-connection frame I/O ([`FrameEncoder`], [`FrameReader`]) with its
//! length policing and its one-syscall-per-direction batching. [`decode`]
//! — `payload::decode_frame` underneath — is the single point where a
//! malformed frame is rejected.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use acc_telemetry::TraceContext;
use bytes::Bytes;

use super::net_series;
use crate::error::{SpaceError, SpaceResult};
use crate::lease::Lease;
use crate::payload::{decode_frame, NameInterner, Payload, PayloadError, WireReader, WireWriter};
use crate::space::EntryId;
use crate::template::Template;
use crate::tuple::Tuple;

/// Largest frame either side sends or accepts.
pub(super) const MAX_FRAME: usize = 16 << 20;

/// The one wire version this build speaks. A peer whose frames carry any
/// other value gets [`SpaceError::Protocol`] naming both — never a silent
/// downgrade. (Versions 0–2 were the tag-first formats version 3 replaced;
/// version 4 added the transaction header.)
pub(super) const WIRE_VERSION: u8 = 4;

/// `flags` bit 0: a trace context follows `seq`.
const FLAG_TRACE: u8 = 1;
/// `flags` bit 1: a transaction id follows the trace context.
const FLAG_TXN: u8 = 2;
/// `flags` bit 2: commit the transaction after serving (needs bit 1).
const FLAG_COMMIT: u8 = 4;

/// The transaction a request frame runs under: the client-chosen id of a
/// transaction its connection opens or has opened, and whether the server
/// commits it once the request is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct TxnHeader {
    pub id: u64,
    pub commit: bool,
}

/// A decoded frame: the header fields plus the request or response body.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Frame<T> {
    /// Client-chosen sequence number; a response echoes its request's.
    pub seq: u32,
    /// The sender's trace context, so the server-side handler span joins
    /// the client's trace. Responses carry none.
    pub trace: Option<TraceContext>,
    /// The transaction a request runs under. Responses carry none.
    pub txn: Option<TxnHeader>,
    pub body: T,
}

fn put_header(w: &mut WireWriter, seq: u32, trace: Option<TraceContext>, txn: Option<TxnHeader>) {
    let txn_flags = txn.map_or(0, |t| FLAG_TXN | if t.commit { FLAG_COMMIT } else { 0 });
    w.put_u8(WIRE_VERSION);
    w.put_u8(if trace.is_some() { FLAG_TRACE } else { 0 } | txn_flags);
    w.put_u32(seq);
    if let Some(ctx) = trace {
        w.put_u64(ctx.trace_id);
        w.put_u64(ctx.span_id);
    }
    if let Some(txn) = txn {
        w.put_u64(txn.id);
    }
}

impl<T: Payload> Payload for Frame<T> {
    fn encode(&self, w: &mut WireWriter) {
        put_header(w, self.seq, self.trace, self.txn);
        self.body.encode(w);
    }

    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        if r.get_u8()? != WIRE_VERSION {
            return Err(PayloadError::Corrupt("wire version"));
        }
        let flags = r.get_u8()?;
        if flags & !(FLAG_TRACE | FLAG_TXN | FLAG_COMMIT) != 0
            || flags & (FLAG_TXN | FLAG_COMMIT) == FLAG_COMMIT
        {
            return Err(PayloadError::Corrupt("frame flags"));
        }
        let seq = r.get_u32()?;
        let trace = if flags & FLAG_TRACE != 0 {
            let (trace_id, span_id) = (r.get_u64()?, r.get_u64()?);
            if trace_id == 0 || span_id == 0 {
                return Err(PayloadError::Corrupt("trace context"));
            }
            Some(TraceContext { trace_id, span_id })
        } else {
            None
        };
        let commit = flags & FLAG_COMMIT != 0;
        let txn = match flags & FLAG_TXN {
            0 => None,
            _ => Some(TxnHeader {
                id: r.get_u64()?,
                commit,
            }),
        };
        let body = T::decode(r)?;
        Ok(Frame {
            seq,
            trace,
            txn,
            body,
        })
    }
}

/// Decodes one frame (as read by [`FrameReader::read_frame`]), borrowing
/// from it: `Bytes` values in the result alias the frame's allocation and
/// names go through the connection's `interner`. Wrong version, unknown
/// flags or tags, truncation and trailing bytes are all refused here.
pub(super) fn decode<T: Payload>(
    frame: Bytes,
    interner: &mut NameInterner,
) -> SpaceResult<Frame<T>> {
    let version = frame.first().copied();
    decode_frame(frame, interner).map_err(|e| match version {
        Some(peer) if peer != WIRE_VERSION => SpaceError::Protocol(format!(
            "peer speaks wire version {peer}, this build speaks {WIRE_VERSION}"
        )),
        _ => SpaceError::Protocol(format!("undecodable frame: {e}")),
    })
}

/// A space operation. Leases and timeouts travel as optional
/// milliseconds (`None` = forever).
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Request {
    Write(Tuple, Option<u64>),
    Read(Template, Option<u64>),
    Take(Template, Option<u64>),
    Count(Template),
    Close,
    IsClosed,
    /// Batch write: every tuple stored under one lease in a single space
    /// operation (one round trip, one wakeup per shard).
    WriteAll(Vec<Tuple>, Option<u64>),
    /// Batch take: block up to the timeout for the first match, then drain
    /// up to `max` currently matching tuples without further waiting.
    TakeUpTo(Template, u64, Option<u64>),
}

fn put_opt_ms(w: &mut WireWriter, v: Option<u64>) {
    w.put_bool(v.is_some());
    if let Some(ms) = v {
        w.put_u64(ms);
    }
}

fn get_opt_ms(r: &mut WireReader) -> Result<Option<u64>, PayloadError> {
    Ok(if r.get_bool()? {
        Some(r.get_u64()?)
    } else {
        None
    })
}

fn put_tuples(w: &mut WireWriter, tuples: &[Tuple]) {
    w.put_u32(tuples.len() as u32);
    for tuple in tuples {
        tuple.encode(w);
    }
}

/// Reads a counted list. The count is attacker-controlled, so the
/// pre-reserve is capped: a lying count wastes at most 1024 slots before
/// the bounded frame runs out of items.
fn get_list<T>(
    r: &mut WireReader,
    item: impl Fn(&mut WireReader) -> Result<T, PayloadError>,
) -> Result<Vec<T>, PayloadError> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

impl Payload for Request {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Request::Write(tuple, lease) => {
                w.put_u8(1);
                tuple.encode(w);
                put_opt_ms(w, *lease);
            }
            Request::Read(tmpl, timeout) => {
                w.put_u8(2);
                tmpl.encode(w);
                put_opt_ms(w, *timeout);
            }
            Request::Take(tmpl, timeout) => {
                w.put_u8(3);
                tmpl.encode(w);
                put_opt_ms(w, *timeout);
            }
            Request::Count(tmpl) => {
                w.put_u8(4);
                tmpl.encode(w);
            }
            Request::Close => w.put_u8(5),
            Request::IsClosed => w.put_u8(6),
            Request::WriteAll(tuples, lease) => {
                w.put_u8(7);
                put_tuples(w, tuples);
                put_opt_ms(w, *lease);
            }
            Request::TakeUpTo(tmpl, max, timeout) => {
                w.put_u8(8);
                tmpl.encode(w);
                w.put_u64(*max);
                put_opt_ms(w, *timeout);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        Ok(match r.get_u8()? {
            1 => Request::Write(Tuple::decode(r)?, get_opt_ms(r)?),
            2 => Request::Read(Template::decode(r)?, get_opt_ms(r)?),
            3 => Request::Take(Template::decode(r)?, get_opt_ms(r)?),
            4 => Request::Count(Template::decode(r)?),
            5 => Request::Close,
            6 => Request::IsClosed,
            7 => Request::WriteAll(get_list(r, Tuple::decode)?, get_opt_ms(r)?),
            8 => Request::TakeUpTo(Template::decode(r)?, r.get_u64()?, get_opt_ms(r)?),
            _ => return Err(PayloadError::Corrupt("request tag")),
        })
    }
}

impl Request {
    /// The operation name the server-side `space.serve` span reports.
    pub(super) fn op_name(&self) -> &'static str {
        match self {
            Request::Write(..) => "write",
            Request::Read(..) => "read",
            Request::Take(..) => "take",
            Request::Count(..) => "count",
            Request::Close => "close",
            Request::IsClosed => "is_closed",
            Request::WriteAll(..) => "write_all",
            Request::TakeUpTo(..) => "take_up_to",
        }
    }

    /// True when serving this request *removes* tuples from the space: if
    /// its response cannot be delivered, the server must put them back —
    /// unless it ran under a transaction, whose abort puts them back.
    pub(super) fn is_destructive(&self, txn: Option<TxnHeader>) -> bool {
        txn.is_none() && matches!(self, Request::Take(..) | Request::TakeUpTo(..))
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(super) enum Response {
    Id(EntryId),
    MaybeTuple(Option<Tuple>),
    Count(u64),
    Bool(bool),
    Unit,
    /// An error code plus a detail string (empty except for `Storage`,
    /// `Transport` and `Protocol`); see [`error_encode`].
    Err(u8, String),
    /// Entry ids of a batch write, answering [`Request::WriteAll`].
    Ids(Vec<EntryId>),
    /// Tuples of a batch take, answering [`Request::TakeUpTo`].
    Tuples(Vec<Tuple>),
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
            Response::Ids(ids) => {
                w.put_u8(8);
                w.put_u32(ids.len() as u32);
                for id in ids {
                    w.put_u64(*id);
                }
            }
            Response::Tuples(tuples) => {
                w.put_u8(9);
                put_tuples(w, tuples);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        Ok(match r.get_u8()? {
            1 => Response::Id(r.get_u64()?),
            2 => Response::MaybeTuple(None),
            3 => Response::MaybeTuple(Some(Tuple::decode(r)?)),
            4 => Response::Count(r.get_u64()?),
            5 => Response::Bool(r.get_bool()?),
            6 => Response::Unit,
            7 => Response::Err(r.get_u8()?, r.get_str()?),
            8 => Response::Ids(get_list(r, WireReader::get_u64)?),
            9 => Response::Tuples(get_list(r, Tuple::decode)?),
            _ => return Err(PayloadError::Corrupt("response tag")),
        })
    }
}

impl Response {
    /// What a response that is not the expected variant means to the
    /// caller of `op`: the error the server reported, or — for a decodable
    /// answer of the wrong kind — a protocol bug, reported as such
    /// instead of being masked as a shutdown.
    pub(super) fn into_error(self, op: &str) -> SpaceError {
        match self {
            Response::Err(code, detail) => error_from(code, detail),
            other => SpaceError::Protocol(format!("unexpected response to {op}: {other:?}")),
        }
    }
}

/// Codes 5 and 6 are retired (they named errors of the removed notify and
/// cancel ops) and decode as unknown. Do not reuse them: every peer must
/// agree on what each code means.
pub(super) fn error_encode(e: &SpaceError) -> Response {
    let code = match e {
        SpaceError::Closed => 1,
        SpaceError::TxnInactive => 2,
        SpaceError::NoSuchEntry => 3,
        SpaceError::LeaseExpired => 4,
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

pub(super) fn error_from(code: u8, detail: String) -> SpaceError {
    match code {
        1 => SpaceError::Closed,
        2 => SpaceError::TxnInactive,
        3 => SpaceError::NoSuchEntry,
        4 => SpaceError::LeaseExpired,
        7 => SpaceError::Storage(detail),
        8 => SpaceError::Transport(detail),
        9 => SpaceError::Protocol(detail),
        n => SpaceError::Protocol(format!("unknown error code {n}")),
    }
}

pub(super) fn lease_to_ms(lease: Lease) -> Option<u64> {
    match lease {
        Lease::Forever => None,
        Lease::Duration(d) => Some(d.as_millis() as u64),
    }
}

pub(super) fn lease_from_ms(ms: Option<u64>) -> Lease {
    ms.map_or(Lease::Forever, Lease::for_millis)
}

pub(super) fn timeout_to_ms(timeout: Option<Duration>) -> Option<u64> {
    timeout.map(|d| d.as_millis() as u64)
}

/// Sorts an I/O failure into the client's two classes: `InvalidData`
/// (an oversized or empty frame) is a protocol fault that resending
/// cannot fix; everything else is the transport's.
pub(super) fn io_error(e: std::io::Error) -> SpaceError {
    if e.kind() == std::io::ErrorKind::InvalidData {
        SpaceError::Protocol(e.to_string())
    } else {
        SpaceError::Transport(e.to_string())
    }
}

fn invalid_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// How often (in flushes) a connection's encode buffer decays toward the
/// largest batch recently sent, so one huge batch frame does not pin
/// megabytes for the life of the connection.
const DECAY_INTERVAL: u32 = 64;
/// Never decay below this; tiny control frames shouldn't thrash.
const MIN_CAPACITY: usize = 4 << 10;

/// Size of a connection's read buffer: what one `recv` can drain, and
/// what each end of each connection pays for it in resident memory
/// (8 KiB, zeroed when the connection opens — about 0.1 MB for the ten
/// connection ends of a two-worker cluster in one process). A pipelined
/// batch of ordinary frames arrives in one call — a worker's refill pair
/// is under 2 KiB, its two answers about 1 KiB; a frame that does not fit
/// is finished straight into its own allocation, two calls as before.
pub(super) const READ_BUFFER: usize = 8 << 10;

/// Most bytes either side gathers before writing them out: the server
/// stops holding answers back and the client stops coalescing request
/// frames once this much is encoded, so the encode buffer is bounded by
/// this plus one frame whatever the peer pipelines.
pub(super) const COALESCE_LIMIT: usize = 64 << 10;

/// `read` that rides out `EINTR` and reports a hangup as an error, like
/// `read_exact`.
fn read_some(stream: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match stream.read(buf) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// A connection's read half: one [`READ_BUFFER`] that every `recv` fills
/// with whatever the peer has written — several frames, when it
/// pipelined.
///
/// Each frame is handed out as its own exactly sized [`Bytes`], one
/// allocation, so decoded values can borrow it for as long as they live
/// without pinning the read buffer.
#[derive(Debug)]
pub(super) struct FrameReader {
    buf: Box<[u8]>,
    /// `buf[start..end]` is received and not yet handed out.
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader {
            buf: vec![0; READ_BUFFER].into_boxed_slice(),
            start: 0,
            end: 0,
        }
    }
}

impl FrameReader {
    /// Reads one frame, touching the stream only for what the buffer
    /// does not already hold. The length prefix is policed here, before
    /// any allocation: over [`MAX_FRAME`] is refused, and so is zero —
    /// every legal frame has a header, so an empty one means a desynced
    /// or hostile peer.
    pub(super) fn read_frame(&mut self, stream: &mut impl Read) -> std::io::Result<Bytes> {
        while self.end - self.start < 4 {
            if self.start == self.end {
                (self.start, self.end) = (0, 0);
            } else if self.end == self.buf.len() {
                // A prefix split across the buffer's end: move its first
                // bytes (at most three) to the front.
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
            self.end += read_some(stream, &mut self.buf[self.end..])?;
        }
        let prefix = &self.buf[self.start..self.start + 4];
        let len = u32::from_le_bytes(prefix.try_into().expect("four bytes")) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(invalid_data(format!(
                "frame length {len} outside 1..={MAX_FRAME}"
            )));
        }
        self.start += 4;
        let buffered = len.min(self.end - self.start);
        let mut body = frame_body(&self.buf[self.start..self.start + buffered], len);
        self.start += buffered;
        if buffered < len {
            // The rest of a frame larger than what one `recv` brought
            // goes straight into the frame's own allocation.
            let unshared = Arc::get_mut(&mut body).expect("a fresh frame is unshared");
            stream.read_exact(&mut unshared[buffered..])?;
        }
        let net = net_series();
        net.frames_read.inc();
        net.frame_bytes.add((len + 4) as u64);
        Ok(Bytes::from(body))
    }

    /// Whether bytes of a further frame have already been received — the
    /// peer pipelined, and the next [`FrameReader::read_frame`] starts
    /// without waiting.
    pub(super) fn has_buffered(&self) -> bool {
        self.start < self.end
    }

    /// Forgets received bytes: they came from a socket that has been
    /// given up.
    pub(super) fn discard_buffered(&mut self) {
        (self.start, self.end) = (0, 0);
    }
}

/// A frame's allocation, `len` bytes: `head` (what the read buffer
/// already holds) copied in, and the rest zeroed for the socket to
/// overwrite. Only that tail is ever zeroed.
fn frame_body(head: &[u8], len: usize) -> Arc<[u8]> {
    assert!(head.len() <= len, "a frame's head is part of it");
    let mut body = Arc::<[u8]>::new_uninit_slice(len);
    let dst = Arc::get_mut(&mut body)
        .expect("a fresh allocation is unshared")
        .as_mut_ptr()
        .cast::<u8>();
    // SAFETY: `dst` points to `len` writable bytes of a fresh allocation
    // that nothing else can see, and `head` (at most `len` bytes, checked
    // above) cannot overlap it. The copy writes the first `head.len()`
    // bytes and `write_bytes` the rest, so all `len` are initialised
    // before `assume_init`.
    unsafe {
        std::ptr::copy_nonoverlapping(head.as_ptr(), dst, head.len());
        dst.add(head.len()).write_bytes(0, len - head.len());
        body.assume_init()
    }
}

/// A connection's write half: frames are encoded back to back into one
/// reusable buffer ([`FrameEncoder::push`]) and leave in one write
/// ([`FrameEncoder::flush`]), so an exchange of *n* frames costs one
/// `send`. The buffer decays toward the largest batch recently sent.
#[derive(Debug, Default)]
pub(super) struct FrameEncoder {
    w: WireWriter,
    seen_max: usize,
    flushes: u32,
}

impl FrameEncoder {
    /// Encodes one frame behind those already pushed. An oversized frame
    /// is refused and taken back out of the buffer, so its length prefix
    /// never goes out: the peer's reader would reject it anyway — after
    /// we paid to send it — and past 4 GiB the `u32` prefix would wrap
    /// and desync the stream. Frames pushed before it stay.
    pub(super) fn push(
        &mut self,
        seq: u32,
        trace: Option<TraceContext>,
        txn: Option<TxnHeader>,
        body: &impl Payload,
    ) -> std::io::Result<()> {
        let at = self.w.len();
        self.w.put_u32(0);
        put_header(&mut self.w, seq, trace, txn);
        body.encode(&mut self.w);
        let len = self.w.len() - at - 4;
        if len > MAX_FRAME {
            self.w.truncate(at);
            return Err(invalid_data(format!(
                "frame too large to send: {len} > {MAX_FRAME} bytes"
            )));
        }
        self.w.set_u32(at, len as u32);
        Ok(())
    }

    /// Bytes pushed and not yet flushed.
    pub(super) fn pending(&self) -> usize {
        self.w.len()
    }

    /// Drops what was pushed without sending it.
    pub(super) fn discard(&mut self) {
        self.w.clear();
    }

    /// Writes every pushed frame in one call (more only if the socket
    /// takes part of it) and empties the buffer, also on failure: what
    /// could not be sent is the caller's to resend or restore.
    pub(super) fn flush(&mut self, stream: &mut impl Write) -> std::io::Result<()> {
        let bytes = self.w.len();
        // Counted before the write, so a peer that has read the reply finds
        // it counted (a send that fails is counted too).
        net_series().frame_bytes.add(bytes as u64);
        let sent = stream
            .write_all(self.w.as_slice())
            .and_then(|()| stream.flush());
        self.seen_max = self.seen_max.max(bytes);
        self.flushes += 1;
        if self.flushes % DECAY_INTERVAL == 0 {
            let target = self.seen_max.max(MIN_CAPACITY);
            if self.w.capacity() > target * 2 {
                self.w.shrink_to(target);
            }
            self.seen_max = 0;
        }
        self.w.clear();
        sent
    }
}
