use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_telemetry::TraceContext;
use bytes::Bytes;

use super::proto::{
    self, error_encode, error_from, Frame, FrameEncoder, FrameReader, Request, Response, TxnHeader,
    MAX_FRAME, READ_BUFFER, WIRE_VERSION,
};
use super::server::{serve, Txns};
use super::{RemoteSpace, ServerOptions, SpaceServer};
use crate::error::{SpaceError, SpaceResult};
use crate::lease::Lease;
use crate::payload::{NameInterner, Payload, PayloadError, WireReader, WireWriter};
use crate::space::Space;
use crate::store::{Batch, BatchTxn, Held, StoreHandle, TupleStore};
use crate::template::Template;
use crate::tuple::Tuple;

fn tuple(id: i64) -> Tuple {
    Tuple::build("t").field("id", id).done()
}

fn rig() -> (Arc<Space>, SpaceServer, RemoteSpace) {
    let space = Space::new("served");
    let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
    let remote = RemoteSpace::connect(server.addr()).unwrap();
    (space, server, remote)
}

/// Spins until `cond` holds (a state the test then acts on), failing
/// after two seconds.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A frame as it travels, length prefix included.
fn raw_frame<T: Payload>(seq: u32, trace: Option<TraceContext>, body: &T) -> Vec<u8> {
    let mut enc = FrameEncoder::default();
    enc.push(seq, trace, None, body).unwrap();
    let mut out = Vec::new();
    enc.flush(&mut out).unwrap();
    out
}

/// Reads one frame off a raw socket, as either side's service loop would.
fn read_raw<T: Payload>(stream: &mut TcpStream) -> SpaceResult<Frame<T>> {
    let frame = FrameReader::default()
        .read_frame(stream)
        .map_err(proto::io_error)?;
    proto::decode(frame, &mut NameInterner::new())
}

/// A server that answers every request frame with whatever raw bytes
/// `reply` makes of it — for the answers a real server never gives.
fn misbehaving_server(reply: fn(Frame<Request>) -> Vec<u8>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            while let Ok(request) = read_raw::<Request>(&mut stream) {
                if stream.write_all(&reply(request)).is_err() {
                    break;
                }
            }
        }
    });
    addr
}

fn ctx() -> TraceContext {
    TraceContext {
        trace_id: 0xdead_beef_cafe_f00d,
        span_id: 42,
    }
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
        Request::WriteAll(vec![tuple(1), tuple(2), tuple(3)], Some(9000)),
        Request::WriteAll(Vec::new(), None),
        Request::TakeUpTo(Template::of_type("t"), 8, Some(50)),
        Request::TakeUpTo(Template::any_type().done(), 1, None),
    ];
    for body in requests {
        for (seq, trace) in [(0, None), (u32::MAX, Some(ctx()))] {
            let frame = Frame {
                seq,
                trace,
                txn: None,
                body: body.clone(),
            };
            assert_eq!(Frame::from_bytes(&frame.to_bytes()).unwrap(), frame);
        }
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
        Response::Ids(vec![1, 2, 3]),
        Response::Ids(Vec::new()),
        Response::Tuples(vec![tuple(4), tuple(5)]),
    ];
    for body in responses {
        let frame = Frame {
            seq: 17,
            trace: None,
            txn: None,
            body,
        };
        assert_eq!(Frame::from_bytes(&frame.to_bytes()).unwrap(), frame);
    }
}

#[test]
fn the_encoder_writes_what_the_frame_codec_reads() {
    // `FrameEncoder` (borrowed body, what both sides send with) and
    // `Frame::encode` (owned, what decodes) are one format.
    let op = Request::TakeUpTo(Template::of_type("t"), 8, Some(50));
    for trace in [None, Some(ctx())] {
        let frame = Frame {
            seq: 3,
            trace,
            txn: None,
            body: op.clone(),
        };
        let body = frame.to_bytes();
        let mut expected = (body.len() as u32).to_le_bytes().to_vec();
        expected.extend(body);
        assert_eq!(raw_frame(3, trace, &op), expected);
    }
}

#[test]
fn hostile_frames_are_rejected_at_decode() {
    let good = Frame {
        seq: 1,
        trace: Some(ctx()),
        txn: None,
        body: Request::IsClosed,
    }
    .to_bytes();
    assert!(Frame::<Request>::from_bytes(&good).is_ok());
    let patched = |at: usize, byte: u8| {
        let mut bytes = good.clone();
        bytes[at] = byte;
        bytes
    };
    let mut zero_trace_id = good.clone();
    zero_trace_id[6..14].fill(0);
    let mut zero_span_id = good.clone();
    zero_span_id[14..22].fill(0);
    let mut lying_count = Frame {
        seq: 1,
        trace: None,
        txn: None,
        body: Request::WriteAll(Vec::new(), None),
    }
    .to_bytes();
    lying_count[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
    let committing_write_all = Frame {
        seq: 1,
        trace: None,
        txn: Some(TxnHeader {
            id: 7,
            commit: true,
        }),
        body: Request::WriteAll(Vec::new(), None),
    }
    .to_bytes();
    assert!(Frame::<Request>::from_bytes(&committing_write_all).is_ok());
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("no bytes at all", Vec::new()),
        ("older version byte", patched(0, WIRE_VERSION - 1)),
        ("newer version byte", patched(0, WIRE_VERSION + 1)),
        ("unknown flag bit", patched(1, 0b1001)),
        ("only unknown flag bits", patched(1, 0x80)),
        ("commit bit without a transaction", patched(1, 0b101)),
        (
            "header cut inside the transaction id",
            committing_write_all[..10].to_vec(),
        ),
        ("trace flag, zero trace id", zero_trace_id),
        ("trace flag, zero span id", zero_span_id),
        ("header cut inside seq", good[..4].to_vec()),
        ("header cut inside trace context", good[..13].to_vec()),
        ("header with no op", good[..22].to_vec()),
        ("unknown op tag", patched(22, 0xEE)),
        ("trailing byte", [good.clone(), vec![0]].concat()),
        ("tuple count far beyond the frame", lying_count),
    ];
    for (what, bytes) in cases {
        let request =
            proto::decode::<Request>(Bytes::from(bytes.clone()), &mut NameInterner::new());
        assert!(
            matches!(request, Err(SpaceError::Protocol(_))),
            "{what}: {request:?}"
        );
        let response = proto::decode::<Response>(Bytes::from(bytes), &mut NameInterner::new());
        assert!(
            matches!(response, Err(SpaceError::Protocol(_))),
            "{what}: {response:?}"
        );
    }
    // The length prefix is policed before anything is allocated for it:
    // the claimed body is not there to read, and is never asked for.
    for (what, len) in [
        ("empty frame", 0u32),
        ("one over the cap", MAX_FRAME as u32 + 1),
        ("4 GiB", u32::MAX),
    ] {
        let mut reader = FrameReader::default();
        let err = reader.read_frame(&mut &len.to_le_bytes()[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
    }
    let mut cut = (100u32).to_le_bytes().to_vec();
    cut.extend([WIRE_VERSION, 0, 0]);
    let err = FrameReader::default()
        .read_frame(&mut &cut[..])
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn version_mismatch_names_both_versions_in_both_directions() {
    let theirs = WIRE_VERSION + 1;
    let names_both = |msg: &str| {
        msg.contains(&format!("version {theirs}"))
            && msg.contains(&format!("speaks {WIRE_VERSION}"))
    };
    // A foreign client against this server: an error frame saying so,
    // then the hangup — not a bare reset.
    let (_space, server, _remote) = rig();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut foreign = raw_frame(5, None, &Request::IsClosed);
    foreign[4] = theirs;
    raw.write_all(&foreign).unwrap();
    match read_raw::<Response>(&mut raw).unwrap().body {
        Response::Err(code, detail) => match error_from(code, detail) {
            SpaceError::Protocol(msg) => assert!(names_both(&msg), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        },
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(read_raw::<Response>(&mut raw).is_err(), "server hangs up");
    // This client against a foreign server.
    let addr = misbehaving_server(|request| {
        let mut reply = raw_frame(request.seq, None, &Response::Bool(false));
        reply[4] = WIRE_VERSION + 1;
        reply
    });
    let remote = RemoteSpace::connect(addr).unwrap();
    match remote.count(&Template::of_type("t")) {
        Err(SpaceError::Protocol(msg)) => assert!(names_both(&msg), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

/// Serves one bare request outside any connection.
fn serve_one(space: &Arc<Space>, body: Request, trace: Option<TraceContext>) -> Response {
    let request = Frame {
        seq: 0,
        trace,
        txn: None,
        body,
    };
    serve(space, &mut Txns::new(), request)
}

#[test]
fn traced_frame_serves_like_plain_request() {
    let space = Space::new("traced");
    let Response::Id(_) = serve_one(&space, Request::Write(tuple(5), None), Some(ctx())) else {
        panic!("traced write must behave like a plain write");
    };
    let count = Request::Count(Template::of_type("t"));
    assert_eq!(
        serve_one(&space, count.clone(), Some(ctx())),
        Response::Count(1)
    );
    assert_eq!(serve_one(&space, count, None), Response::Count(1));
}

#[test]
fn observed_server_scrapes_metrics_and_health() {
    use std::io::Read as _;
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
fn count_on_a_closed_space_reports_closed() {
    let (space, _server, remote) = rig();
    remote.write(tuple(1)).unwrap();
    space.close();
    let t = Template::of_type("t");
    assert_eq!(TupleStore::count(&*space, &t), Err(SpaceError::Closed));
    assert_eq!(remote.count(&t), Err(SpaceError::Closed));
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
    raw.write_all(&raw_frame(0, None, &Request::Write(tuple(1), None)))
        .unwrap();
    read_raw::<Response>(&mut raw).unwrap();
    std::thread::sleep(Duration::from_millis(250));
    let _ = raw.write_all(&raw_frame(1, None, &Request::Write(tuple(2), None)));
    assert!(read_raw::<Response>(&mut raw).is_err());
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
fn every_error_crosses_the_wire_and_unknown_codes_are_protocol_errors() {
    for e in [
        SpaceError::Closed,
        SpaceError::TxnInactive,
        SpaceError::NoSuchEntry,
        SpaceError::LeaseExpired,
        SpaceError::Storage("disk on fire".into()),
        SpaceError::Transport("connection reset".into()),
        SpaceError::Protocol("stale answer".into()),
    ] {
        let resp = error_encode(&e);
        let decoded = Response::from_bytes(&resp.to_bytes()).unwrap();
        assert_eq!(decoded.into_error("test"), e);
    }
    for code in [0u8, 5, 6, 10, 255] {
        match error_from(code, "whatever".into()) {
            SpaceError::Protocol(msg) => {
                assert!(msg.contains(&format!("unknown error code {code}")), "{msg}")
            }
            other => panic!("code {code} decoded as {other:?}"),
        }
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
    assert!(remote.write_all(Vec::new()).unwrap().is_empty());

    // What batching buys, counted at the server: a batch of 1 000 crosses
    // as one request frame, where the per-tuple loop sends 1 000. This
    // server answers each request frame with one response frame, and the
    // client's echoed-`seq` check holds it to that.
    let (addr, log) = deaf_then_serving(Space::new("counted"), 0, 0);
    let counted = RemoteSpace::connect(addr).unwrap();
    let t = Template::of_type("t");
    let frames = || log.lock().iter().map(Vec::len).sum::<usize>();
    let ids = counted.write_all((0..1000).map(tuple).collect()).unwrap();
    assert_eq!((ids.len(), frames()), (1000, 1));
    let got = counted.take_up_to(&t, 1000, Some(Duration::ZERO)).unwrap();
    assert_eq!((got.len(), frames()), (1000, 2));
    for i in 0..1000 {
        counted.write(tuple(i)).unwrap();
    }
    assert_eq!(frames(), 1002);
    for _ in 0..1000 {
        assert!(counted.take_if_exists(&t).unwrap().is_some());
    }
    assert_eq!(frames(), 2002);
}

#[test]
fn split_phase_calls_overlap_across_servers() {
    let (space_a, _server_a, a) = rig();
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
fn frames_sent_back_to_back_are_answered_in_order() {
    let (space, _server, remote) = rig();
    let requests = (0..8)
        .map(|i| (Request::Write(tuple(i), None), None))
        .collect();
    let responses = remote.begin(requests, Ok).finish().unwrap();
    assert_eq!(responses.len(), 8);
    for r in responses {
        assert!(matches!(r, Response::Id(_)), "unexpected {r:?}");
    }
    assert_eq!(Space::count(&space, &Template::of_type("t")), 8);
}

#[test]
fn client_survives_server_dropping_the_connection() {
    let (space, server, remote) = rig();
    remote.write(tuple(1)).unwrap();
    // The server kills every live connection (as a restarting or
    // load-shedding server would); the proxy's next call fails on the
    // dead socket, reconnects once, and succeeds.
    server.disconnect_all();
    remote.write(tuple(2)).unwrap();
    assert_eq!(Space::count(&space, &Template::of_type("t")), 2);
    // Batch calls survive the same treatment.
    server.disconnect_all();
    let ids = remote.write_all((3..13).map(tuple).collect()).unwrap();
    assert_eq!(ids.len(), 10);
    assert_eq!(Space::count(&space, &Template::of_type("t")), 12);
}

#[test]
fn blocking_take_from_a_raw_socket_is_served_inline_and_restored_if_undeliverable() {
    let (space, server, _remote) = rig();
    let take = Request::TakeUpTo(Template::of_type("t"), 4, Some(2000));
    // Served: the take parks on the connection's own thread, a write
    // wakes it, and the answer echoes the request's seq.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&raw_frame(7, Some(ctx()), &take)).unwrap();
    wait_until("the take is parked", || space.stats().blocked_waits >= 1);
    space.write(tuple(0)).unwrap();
    let answer = read_raw::<Response>(&mut raw).unwrap();
    assert_eq!(answer.seq, 7);
    assert_eq!(answer.body, Response::Tuples(vec![tuple(0)]));
    // Undeliverable — the lost-take race: the connection is severed
    // while the take is parked; the take then matches and the response
    // write fails. The tuples must go back to the space — dropping the
    // undeliverable frame would silently destroy them.
    raw.write_all(&raw_frame(8, None, &take)).unwrap();
    wait_until("the second take is parked", || {
        space.stats().blocked_waits >= 2
    });
    server.disconnect_all();
    Space::write_all(&space, (0..4).map(tuple).collect()).unwrap();
    // The server takes all four, fails to answer the dead socket, and
    // restores them.
    wait_until("the taken tuples are restored", || {
        space.stats().takes >= 5 && Space::count(&space, &Template::of_type("t")) == 4
    });
}

#[test]
fn encoder_enforces_max_frame_at_the_boundary() {
    struct Blob(Vec<u8>);
    impl Payload for Blob {
        fn encode(&self, w: &mut WireWriter) {
            w.put_blob(&self.0);
        }
        fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
            Ok(Blob(r.get_blob()?))
        }
    }
    let mut enc = FrameEncoder::default();
    let mut sink = std::io::sink();
    let overhead = raw_frame(0, None, &Blob(Vec::new())).len() - 4;
    // Exactly MAX_FRAME: allowed (the reader accepts len == MAX_FRAME).
    let at_limit = Blob(vec![0u8; MAX_FRAME - overhead]);
    enc.push(0, None, None, &at_limit).unwrap();
    enc.flush(&mut sink).unwrap();
    // One byte over: rejected cleanly before any bytes go out, and taken
    // back out of the buffer — a frame pushed before it still leaves.
    let over = Blob(vec![0u8; MAX_FRAME - overhead + 1]);
    enc.push(1, None, None, &Request::IsClosed).unwrap();
    let err = enc.push(2, None, None, &over).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("frame too large"), "{err}");
    let mut out = Vec::new();
    enc.flush(&mut out).unwrap();
    assert_eq!(out, raw_frame(1, None, &Request::IsClosed));
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
    // The connection is still usable.
    remote.write(tuple(1)).unwrap();
    assert_eq!(remote.count(&Template::of_type("t")).unwrap(), 1);
}

#[test]
fn failed_batch_send_does_not_leave_the_connection_one_response_behind() {
    // `write_all` chunks to two frames; the first goes out, the second is
    // refused by the encoder. The first frame's answer must never be read
    // as the answer to a later call.
    let (space, _server, remote) = rig();
    let u = Tuple::build("u").field("id", 1i64).done();
    remote.write(u.clone()).unwrap();
    let huge = Tuple::build("t").field("blob", vec![0u8; MAX_FRAME]).done();
    match remote.write_all(vec![tuple(0), huge]) {
        Err(SpaceError::Protocol(msg)) => assert!(msg.contains("frame too large"), "{msg}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    let of_u = Template::of_type("u");
    assert_eq!(remote.count(&of_u), Ok(1));
    assert_eq!(remote.read_if_exists(&of_u), Ok(Some(u.clone())));
    // The taken tuple reaches the caller instead of being swallowed as
    // some other call's answer: nothing is lost.
    assert_eq!(remote.take_if_exists(&of_u), Ok(Some(u)));
    assert_eq!(remote.count(&of_u), Ok(0));
    assert_eq!(Space::count(&space, &of_u), 0);
}

#[test]
fn unexpected_response_is_a_protocol_error() {
    // A confused server: replies to everything with Bool — decodable,
    // correctly sequenced, but wrong. Reported as a protocol error, not
    // masked as a shutdown.
    let addr = misbehaving_server(|request| raw_frame(request.seq, None, &Response::Bool(false)));
    let remote = RemoteSpace::connect(addr).unwrap();
    match remote.count(&Template::of_type("t")) {
        Err(SpaceError::Protocol(msg)) => {
            assert!(msg.contains("unexpected response"), "{msg}")
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    // A stale answer: the right kind of response to some other request.
    let addr = misbehaving_server(|request| {
        raw_frame(request.seq.wrapping_sub(1), None, &Response::Count(9))
    });
    let remote = RemoteSpace::connect(addr).unwrap();
    match remote.count(&Template::of_type("t")) {
        Err(SpaceError::Protocol(msg)) => assert!(msg.contains("seq"), "{msg}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    // An answer under a transaction header, which no response carries.
    let addr = misbehaving_server(|request| {
        let mut enc = FrameEncoder::default();
        let txn = Some(TxnHeader {
            id: 1,
            commit: false,
        });
        enc.push(request.seq, None, txn, &Response::Count(9))
            .unwrap();
        let mut reply = Vec::new();
        enc.flush(&mut reply).unwrap();
        reply
    });
    let remote = RemoteSpace::connect(addr).unwrap();
    match remote.count(&Template::of_type("t")) {
        Err(SpaceError::Protocol(msg)) => assert!(msg.contains("transaction"), "{msg}"),
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

/// A `Write` that counts how often it is called.
#[derive(Default)]
struct CountingWrite {
    bytes: Vec<u8>,
    calls: usize,
}

impl std::io::Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A `Read` over fixed bytes that hands out at most `chunks[i]` bytes on
/// its `i`-th call (cycling; everything it has when `chunks` is empty),
/// and counts the calls — a socket whose segments arrive as they please.
struct ChunkedRead {
    bytes: Vec<u8>,
    at: usize,
    chunks: Vec<usize>,
    calls: usize,
}

impl ChunkedRead {
    fn new(bytes: Vec<u8>, chunks: Vec<usize>) -> ChunkedRead {
        ChunkedRead {
            bytes,
            at: 0,
            chunks,
            calls: 0,
        }
    }
}

impl std::io::Read for ChunkedRead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = match self.chunks.len() {
            0 => usize::MAX,
            n => self.chunks[self.calls % n],
        };
        self.calls += 1;
        let n = chunk.min(buf.len()).min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

#[test]
fn pushed_frames_reach_the_socket_in_one_write() {
    let ops = [
        Request::WriteAll((0..4).map(tuple).collect(), None),
        Request::TakeUpTo(Template::of_type("t"), 4, Some(50)),
        Request::IsClosed,
    ];
    let mut enc = FrameEncoder::default();
    let mut expected = Vec::new();
    for (seq, op) in ops.iter().enumerate() {
        enc.push(seq as u32, None, None, op).unwrap();
        expected.extend(raw_frame(seq as u32, None, op));
    }
    assert_eq!(enc.pending(), expected.len());
    let mut sink = CountingWrite::default();
    enc.flush(&mut sink).unwrap();
    assert_eq!(sink.calls, 1, "an exchange's frames are one write");
    assert_eq!(sink.bytes, expected);
    assert_eq!(enc.pending(), 0);
}

#[test]
fn frames_written_in_one_call_are_read_in_one_call() {
    let ops = [
        Request::Write(tuple(1), None),
        Request::TakeUpTo(Template::of_type("t"), 4, Some(50)),
    ];
    // One frame, one read — not a read for the prefix and one for the body.
    let mut one = ChunkedRead::new(raw_frame(0, None, &ops[0]), Vec::new());
    let mut reader = FrameReader::default();
    let frame = reader.read_frame(&mut one).unwrap();
    assert_eq!(one.calls, 1);
    let decoded: Frame<Request> = proto::decode(frame, &mut NameInterner::new()).unwrap();
    assert_eq!(decoded.body, ops[0]);
    assert!(!reader.has_buffered());
    // A pipelined pair: the first read brings both, the second frame is
    // served from the buffer.
    let both = [raw_frame(1, None, &ops[0]), raw_frame(2, None, &ops[1])].concat();
    let mut pair = ChunkedRead::new(both, Vec::new());
    let mut reader = FrameReader::default();
    for (seq, op) in [(1, &ops[0]), (2, &ops[1])] {
        assert_eq!(reader.has_buffered(), seq == 2);
        let frame = reader.read_frame(&mut pair).unwrap();
        let decoded: Frame<Request> = proto::decode(frame, &mut NameInterner::new()).unwrap();
        assert_eq!((decoded.seq, &decoded.body), (seq, op));
    }
    assert_eq!(pair.calls, 1);
    assert!(!reader.has_buffered());
}

#[test]
fn a_frame_larger_than_the_read_buffer_lands_in_its_own_allocation() {
    // `raytrace_job`'s shape: a 45 KB strip in one result tuple.
    let strip: Vec<u8> = (0..45_000u32).map(|i| (i % 251) as u8).collect();
    assert!(strip.len() > READ_BUFFER);
    let op = Request::Write(
        Tuple::build("strip")
            .field("id", 7i64)
            .field("pixels", strip.clone())
            .done(),
        None,
    );
    let follower = Request::IsClosed;
    let bytes = [raw_frame(0, None, &op), raw_frame(1, None, &follower)].concat();
    let mut reader = FrameReader::default();
    let mut stream = ChunkedRead::new(bytes, Vec::new());
    let frame = reader.read_frame(&mut stream).unwrap();
    assert_eq!(stream.calls, 2, "one read for what fits, one for the rest");
    let decoded: Frame<Request> = proto::decode(frame.clone(), &mut NameInterner::new()).unwrap();
    let Request::Write(written, None) = decoded.body else {
        panic!("decoded as {:?}", decoded.body)
    };
    let pixels = written.get_bytes("pixels").expect("a bytes field");
    assert_eq!(pixels, &strip[..]);
    // The field is a view into the frame, not a copy of it, and the
    // frame is exactly its own length, not the read buffer.
    let pixels_at = pixels.as_ptr();
    assert!(frame.as_ptr_range().contains(&pixels_at));
    assert_eq!(frame.len() + 4, raw_frame(0, None, &op).len());
    // The frame behind it is intact.
    let next = reader.read_frame(&mut stream).unwrap();
    let decoded: Frame<Request> = proto::decode(next, &mut NameInterner::new()).unwrap();
    assert_eq!((decoded.seq, decoded.body), (1, follower));
}

#[test]
fn a_client_that_waits_for_each_answer_is_answered_at_once() {
    // Nothing is buffered behind a lone request, so its answer is never
    // held: each comes back well inside the raw socket's read timeout
    // (the server's own idle timeout is 30 s).
    let (space, server, _remote) = rig();
    space.write(tuple(1)).unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let exchanges = [
        (Request::Count(Template::of_type("t")), Response::Count(1)),
        (
            Request::Take(Template::of_type("t"), Some(0)),
            Response::MaybeTuple(Some(tuple(1))),
        ),
        (Request::IsClosed, Response::Bool(false)),
    ];
    for (seq, (request, expected)) in exchanges.iter().enumerate() {
        raw.write_all(&raw_frame(seq as u32, None, request))
            .unwrap();
        let answer = read_raw::<Response>(&mut raw).unwrap();
        assert_eq!((answer.seq, &answer.body), (seq as u32, expected));
    }
}

#[test]
fn a_pipelined_batch_is_answered_in_order_with_the_echoed_seqs() {
    let (space, server, _remote) = rig();
    let batch = [
        (40, Request::Write(tuple(1), None)),
        (7, Request::WriteAll(vec![tuple(2), tuple(3)], None)),
        (7, Request::Count(Template::of_type("t"))),
        (
            u32::MAX,
            Request::TakeUpTo(Template::of_type("t"), 2, Some(0)),
        ),
        (0, Request::Read(Template::of_type("t"), Some(0))),
    ];
    let mut segment = Vec::new();
    for (seq, request) in &batch {
        segment.extend(raw_frame(*seq, None, request));
    }
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    raw.write_all(&segment).unwrap();
    let mut reader = FrameReader::default();
    let mut answers = Vec::new();
    for _ in &batch {
        let frame = reader.read_frame(&mut raw).unwrap();
        let answer: Frame<Response> = proto::decode(frame, &mut NameInterner::new()).unwrap();
        answers.push((answer.seq, answer.body));
    }
    assert!(matches!(answers[0], (40, Response::Id(_))), "{answers:?}");
    assert!(
        matches!(&answers[1], (7, Response::Ids(ids)) if ids.len() == 2),
        "{answers:?}"
    );
    assert_eq!(answers[2], (7, Response::Count(3)));
    assert_eq!(
        answers[3],
        (u32::MAX, Response::Tuples(vec![tuple(1), tuple(2)]))
    );
    assert_eq!(answers[4], (0, Response::MaybeTuple(Some(tuple(3)))));
    assert_eq!(space.len(), 1);
}

/// `server.tuples_restored` is one counter for the whole test process:
/// tests that assert on how much it moved take this lock.
static RESTORES: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

fn tuples_restored() -> u64 {
    super::net_series().tuples_restored.get()
}

/// Writes `batch` to a fresh raw connection in one segment — its last
/// frame a take on type `t` that parks — and hangs up without reading a
/// byte, the server's side of the connection severed too so that the
/// held-back answers' write fails for certain instead of depending on
/// when the peer's reset lands. Then makes the parked take match.
/// Returns how many tuples the server restored.
fn hang_up_on_a_pipelined_batch(
    space: &Arc<Space>,
    server: &SpaceServer,
    batch: &[Request],
) -> u64 {
    let before = tuples_restored();
    let parked = space.stats().blocked_waits;
    let mut segment = Vec::new();
    for (seq, request) in batch.iter().enumerate() {
        segment.extend(raw_frame(seq as u32, None, request));
    }
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&segment).unwrap();
    wait_until("the batch's last take is parked", || {
        space.stats().blocked_waits > parked
    });
    drop(raw);
    server.disconnect_all();
    Space::write_all(space, (10..13).map(tuple).collect()).unwrap();
    wait_until("the connection's thread has restored and gone", || {
        tuples_restored() > before && Space::count(space, &Template::of_type("t")) == 3
    });
    tuples_restored() - before
}

#[test]
fn every_take_answer_held_back_is_restored_when_the_flush_fails() {
    let _serial = RESTORES.lock();
    let (space, server, _remote) = rig();
    let u = |id: i64| Tuple::build("u").field("id", id).done();
    Space::write_all(&space, (0..4).map(u).collect()).unwrap();
    // Two destructive answers pending at once: the first (two `u`s) is
    // held while the second is served, and the second parks.
    let restored = hang_up_on_a_pipelined_batch(
        &space,
        &server,
        &[
            Request::TakeUpTo(Template::of_type("u"), 2, Some(0)),
            Request::TakeUpTo(Template::of_type("t"), 8, Some(5000)),
        ],
    );
    assert_eq!(restored, 5, "two held `u`s and the three `t`s");
    let mut us: Vec<i64> = Space::take_all(&space, &Template::of_type("u"))
        .unwrap()
        .iter()
        .map(|t| t.get_int("id").unwrap())
        .collect();
    us.sort_unstable();
    assert_eq!(us, vec![0, 1, 2, 3], "each taken tuple back exactly once");
    let mut ts: Vec<i64> = Space::take_all(&space, &Template::of_type("t"))
        .unwrap()
        .iter()
        .map(|t| t.get_int("id").unwrap())
        .collect();
    ts.sort_unstable();
    assert_eq!(ts, vec![10, 11, 12]);
}

#[test]
fn a_refill_pair_whose_answers_are_lost_keeps_its_write_and_restores_its_take() {
    let _serial = RESTORES.lock();
    let (space, server, _remote) = rig();
    let result = |id: i64| Tuple::build("r").field("id", id).done();
    // The worker's shape: results out, tasks in. The write is applied
    // once and stays; only the take is undone.
    let restored = hang_up_on_a_pipelined_batch(
        &space,
        &server,
        &[
            Request::WriteAll((0..4).map(result).collect(), None),
            Request::TakeUpTo(Template::of_type("t"), 8, Some(5000)),
        ],
    );
    assert_eq!(restored, 3);
    assert_eq!(Space::count(&space, &Template::of_type("r")), 4);
    assert_eq!(Space::count(&space, &Template::of_type("t")), 3);
}

#[test]
fn a_read_answer_in_a_lost_batch_is_not_written_back() {
    let _serial = RESTORES.lock();
    let (space, server, _remote) = rig();
    let u = Tuple::build("u").field("id", 1i64).done();
    space.write(u).unwrap();
    // The read's `MaybeTuple(Some(..))` looks just like a take's, but its
    // tuple never left the space: restoring it would duplicate it.
    let restored = hang_up_on_a_pipelined_batch(
        &space,
        &server,
        &[
            Request::Read(Template::of_type("u"), Some(0)),
            Request::TakeUpTo(Template::of_type("t"), 8, Some(5000)),
        ],
    );
    assert_eq!(restored, 3, "the take's tuples only");
    assert_eq!(Space::count(&space, &Template::of_type("u")), 1);
}

#[test]
fn answers_pending_when_the_peer_stops_mid_frame_are_restored() {
    let _serial = RESTORES.lock();
    let (space, server, _remote) = rig();
    Space::write_all(&space, (0..3).map(tuple).collect()).unwrap();
    let before = tuples_restored();
    // A whole take, then the first bytes of a further frame: the answer
    // is held for the frame to finish, and the hangup comes instead.
    let mut segment = raw_frame(
        0,
        None,
        &Request::TakeUpTo(Template::of_type("t"), 8, Some(0)),
    );
    segment.extend(&raw_frame(1, None, &Request::IsClosed)[..5]);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&segment).unwrap();
    wait_until("the take is served", || space.is_empty());
    server.disconnect_all();
    drop(raw);
    wait_until("the taken tuples are back", || space.len() == 3);
    assert_eq!(tuples_restored() - before, 3);
}

/// A batch handing `tuples` back under no transaction: bare writes.
fn bare(tuples: Vec<Tuple>) -> Batch {
    Batch {
        txn: BatchTxn::default(),
        tuples,
    }
}

#[test]
fn remote_refill_pair_writes_then_takes_in_one_exchange() {
    let (space, _server, remote) = rig();
    let t = Template::of_type("t");
    let r = Template::of_type("r");
    let result = |id: i64| Tuple::build("r").field("id", id).done();
    Space::write_all(&space, (0..6).map(tuple).collect()).unwrap();
    let frames_before = super::net_series().frames_read.get();
    // Nothing to commit: the take alone, under a transaction — its
    // tuples are out of sight, not out of the space.
    let (committed, taken) = remote.take_batch(Batch::default(), &t, 4, Some(Duration::ZERO));
    assert_eq!(committed, Ok(()));
    let mut batch = taken.unwrap();
    assert_eq!(batch.tuples, (0..4).map(tuple).collect::<Vec<_>>());
    assert!(matches!(batch.txn.0, Held::Wire(_)));
    assert_eq!(Space::count(&space, &t), 2);
    // The batch commits with its results and takes the rest in one
    // exchange.
    batch.tuples = (0..4).map(result).collect();
    let (committed, taken) = remote.take_batch(batch, &t, 8, None);
    assert_eq!(committed, Ok(()));
    let mut batch = taken.unwrap();
    assert_eq!(batch.tuples.len(), 2);
    assert_eq!(Space::count(&space, &r), 4);
    assert_eq!(Space::count(&space, &t), 0);
    // Committed alone, with one task handed back; an empty take holds no
    // transaction.
    batch.tuples = vec![result(4), tuple(5)];
    remote.commit_batch(batch).unwrap();
    assert_eq!(Space::count(&space, &r), 5);
    assert_eq!(Space::count(&space, &t), 1);
    Space::take_all(&space, &t).unwrap();
    let (_, taken) = remote.take_batch(Batch::default(), &t, 8, Some(Duration::from_millis(10)));
    let empty = taken.unwrap();
    assert!(empty.tuples.is_empty() && matches!(empty.txn.0, Held::Bare));
    // Other tests share the frame counters, so only a floor holds: one
    // frame each way, two, one, one.
    let frames = super::net_series().frames_read.get() - frames_before;
    assert!(frames >= 10, "frames {frames}");
    // A closed space fails both halves, each with its own answer.
    remote.close();
    let (committed, taken) = remote.take_batch(bare(vec![result(1)]), &t, 4, None);
    assert_eq!(committed, Err(SpaceError::Closed));
    assert_eq!(taken.map(|b| b.tuples), Err(SpaceError::Closed));
}

/// A server that hangs up on its first `deaf` connections after reading
/// `per_exchange` frames from each, serves the later ones against
/// `space` with one answer frame per request frame, and logs the `seq`s
/// every connection saw — with `deaf` 0, a frame-counting server.
fn deaf_then_serving(
    space: Arc<Space>,
    deaf: usize,
    per_exchange: usize,
) -> (SocketAddr, Arc<parking_lot::Mutex<Vec<Vec<u32>>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let seen = log.clone();
    std::thread::spawn(move || {
        for (conn, mut stream) in listener.incoming().flatten().enumerate() {
            let mut reader = FrameReader::default();
            let mut interner = NameInterner::new();
            seen.lock().push(Vec::new());
            let mut answers = Vec::new();
            let mut txns = Txns::new();
            while let Ok(frame) = reader.read_frame(&mut stream) {
                let request: Frame<Request> = proto::decode(frame, &mut interner).unwrap();
                seen.lock()[conn].push(request.seq);
                if conn < deaf {
                    if seen.lock()[conn].len() == per_exchange {
                        break; // hang up with the whole exchange unanswered
                    }
                    continue;
                }
                let seq = request.seq;
                let response = serve(&space, &mut txns, request);
                answers.extend(raw_frame(seq, None, &response));
                if !reader.has_buffered() {
                    if stream.write_all(&answers).is_err() {
                        break;
                    }
                    answers.clear();
                }
            }
        }
    });
    (addr, log)
}

#[test]
fn a_resent_pair_keeps_seq_monotone_and_fails_through_one_exit() {
    let t = Template::of_type("t");
    let result = |id: i64| Tuple::build("r").field("id", id).done();
    // One dropped connection: invisible — the pair is resent whole, under
    // fresh sequence numbers.
    let space = Space::new("resent");
    Space::write_all(&space, (0..3).map(tuple).collect()).unwrap();
    let (addr, log) = deaf_then_serving(space.clone(), 1, 2);
    let remote = RemoteSpace::connect(addr).unwrap();
    let (written, taken) = remote
        .begin_refill(vec![result(0), result(1)], &t, 8, Some(Duration::ZERO))
        .finish()
        .unwrap();
    assert_eq!(written.unwrap().len(), 2);
    assert_eq!(taken.unwrap().len(), 3);
    assert_eq!(*log.lock(), vec![vec![0, 1], vec![2, 3]]);
    assert_eq!(Space::count(&space, &Template::of_type("r")), 2);
    // The connection that served the resend is in step: a plain call
    // follows on it, under the next number.
    assert_eq!(remote.count(&t), Ok(0));
    assert_eq!(*log.lock(), vec![vec![0, 1], vec![2, 3, 4]]);
    // Two in a row: one reconnect, one resend, then both halves fail with
    // the one transport error — and the next call starts from a clean
    // reconnect instead of reading a stale answer.
    let (addr, log) = deaf_then_serving(space.clone(), 2, 2);
    let remote = RemoteSpace::connect(addr).unwrap();
    let (written, taken) = remote.take_batch(bare(vec![result(2)]), &t, 8, Some(Duration::ZERO));
    assert!(
        matches!(written, Err(SpaceError::Transport(_))),
        "{written:?}"
    );
    assert_eq!(written, taken.map(drop));
    assert_eq!(*log.lock(), vec![vec![0, 1], vec![2, 3]]);
    // (`seq` 4 went to the send that found the socket shut down.)
    assert_eq!(remote.count(&Template::of_type("r")), Ok(2));
    assert_eq!(*log.lock(), vec![vec![0, 1], vec![2, 3], vec![5]]);
}

/// A request frame under transaction `id`, committing it if `commit`.
fn txn_frame(seq: u32, id: u64, commit: bool, body: &Request) -> Vec<u8> {
    let mut enc = FrameEncoder::default();
    enc.push(seq, None, Some(TxnHeader { id, commit }), body)
        .unwrap();
    let mut out = Vec::new();
    enc.flush(&mut out).unwrap();
    out
}

/// The `id`s of the visible tuples of type `ty`, sorted.
fn ids_of_type(space: &Space, ty: &str) -> Vec<i64> {
    let mut ids: Vec<i64> = space
        .read_all(&Template::of_type(ty))
        .unwrap()
        .iter()
        .map(|t| t.get_int("id").unwrap())
        .collect();
    ids.sort_unstable();
    ids
}

/// Where [`a_cut_at_any_step_of_a_batch_loses_and_duplicates_nothing`]
/// severs the worker's connection.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cut {
    BeforeTheTakeAnswerIsRead,
    AfterTheTakeAnswerIsRead,
    AfterTheCommitIsSent,
    AfterTheCommitAnswerIsRead,
}

/// The kill matrix: a worker's batch — a take under a transaction, then
/// its results written under it with the commit bit — with the socket
/// shut down at each step. However the cut falls, each task is in the
/// space either still as a task or as its result, never both and never
/// neither, once the server has finished with the connection.
#[test]
fn a_cut_at_any_step_of_a_batch_loses_and_duplicates_nothing() {
    let result = |id: i64| Tuple::build("r").field("id", id).done();
    for cut in [
        Cut::BeforeTheTakeAnswerIsRead,
        Cut::AfterTheTakeAnswerIsRead,
        Cut::AfterTheCommitIsSent,
        Cut::AfterTheCommitAnswerIsRead,
    ] {
        let (space, server, _remote) = rig();
        Space::write_all(&space, (0..4).map(tuple).collect()).unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let take = Request::TakeUpTo(Template::of_type("t"), 3, Some(0));
        raw.write_all(&txn_frame(0, 1, false, &take)).unwrap();
        if cut != Cut::BeforeTheTakeAnswerIsRead {
            let Response::Tuples(taken) = read_raw::<Response>(&mut raw).unwrap().body else {
                panic!("{cut:?}: a take answers with tuples");
            };
            assert_eq!(taken.len(), 3, "{cut:?}");
            assert_eq!(
                ids_of_type(&space, "t"),
                vec![3],
                "{cut:?}: taken is hidden"
            );
            if cut != Cut::AfterTheTakeAnswerIsRead {
                let results = taken.iter().map(|t| result(t.get_int("id").unwrap()));
                let commit = Request::WriteAll(results.collect(), None);
                raw.write_all(&txn_frame(1, 1, true, &commit)).unwrap();
                if cut == Cut::AfterTheCommitAnswerIsRead {
                    let answer = read_raw::<Response>(&mut raw).unwrap().body;
                    assert!(matches!(answer, Response::Ids(ref ids) if ids.len() == 3));
                }
            }
        }
        raw.shutdown(std::net::Shutdown::Both).unwrap();
        wait_until("every task is a task or a result again", || {
            Space::count(&space, &Template::any_type().done()) == 4
        });
        let (tasks, results) = (ids_of_type(&space, "t"), ids_of_type(&space, "r"));
        let mut every = [tasks.clone(), results.clone()].concat();
        every.sort_unstable();
        assert_eq!(every, vec![0, 1, 2, 3], "{cut:?}: {tasks:?} {results:?}");
        match cut {
            Cut::BeforeTheTakeAnswerIsRead | Cut::AfterTheTakeAnswerIsRead => {
                assert!(results.is_empty(), "{cut:?}: aborted")
            }
            Cut::AfterTheCommitAnswerIsRead => assert_eq!(results, vec![0, 1, 2], "committed"),
            // Served before the hangup or not: committed or aborted whole.
            Cut::AfterTheCommitIsSent => assert!(results.is_empty() || results == [0, 1, 2]),
        }
    }
}

/// The same matrix in process, over the [`crate::Txn`] the server holds:
/// dropping it is the hangup.
#[test]
fn a_dropped_txn_at_any_step_of_a_batch_loses_and_duplicates_nothing() {
    let result = |id: i64| Tuple::build("r").field("id", id).done();
    for step in 0..3 {
        let space = Space::new("in-process");
        Space::write_all(&space, (0..4).map(tuple).collect()).unwrap();
        let txn = space.txn().unwrap();
        let taken = txn.take_up_to(&Template::of_type("t"), 3, None).unwrap();
        assert_eq!(taken.len(), 3);
        if step >= 1 {
            let results = taken.iter().map(|t| result(t.get_int("id").unwrap()));
            txn.write_all(results.collect(), Lease::Forever).unwrap();
            assert_eq!(ids_of_type(&space, "r"), Vec::<i64>::new(), "pending");
        }
        if step == 2 {
            txn.commit().unwrap();
        } else {
            drop(txn);
        }
        let (tasks, results) = (ids_of_type(&space, "t"), ids_of_type(&space, "r"));
        match step {
            2 => assert_eq!((tasks, results), (vec![3], vec![0, 1, 2])),
            _ => assert_eq!((tasks, results), (vec![0, 1, 2, 3], vec![]), "step {step}"),
        }
    }
}

/// Transaction ids belong to the connection that opened them: a
/// committing `WriteAll` sent on another connection — a resend after a
/// reconnect — is refused with `TxnInactive` and applies nothing, while
/// the transaction it names is untouched.
#[test]
fn a_commit_resent_on_a_new_connection_is_refused_and_applies_nothing() {
    let (space, server, remote) = rig();
    Space::write_all(&space, (0..3).map(tuple).collect()).unwrap();
    let mut opener = TcpStream::connect(server.addr()).unwrap();
    let take = Request::TakeUpTo(Template::of_type("t"), 3, Some(0));
    opener.write_all(&txn_frame(0, 1, false, &take)).unwrap();
    read_raw::<Response>(&mut opener).unwrap();
    let mut other = TcpStream::connect(server.addr()).unwrap();
    let commit = Request::WriteAll(vec![Tuple::build("r").field("id", 0i64).done()], None);
    other.write_all(&txn_frame(0, 1, true, &commit)).unwrap();
    let answer = read_raw::<Response>(&mut other).unwrap().body;
    assert_eq!(answer.into_error("commit"), SpaceError::TxnInactive);
    assert_eq!(space.len(), 0, "nothing written; the takes still held");
    drop(opener);
    wait_until("the opener's hangup aborts", || space.len() == 3);
    // Through the proxy: its connection is cut under an open batch, and
    // the commit it resends after reconnecting is refused.
    let (_, taken) = remote.take_batch(Batch::default(), &Template::of_type("t"), 3, None);
    let mut batch = taken.unwrap();
    assert_eq!(space.len(), 0);
    server.disconnect_all();
    wait_until("the cut aborts the batch", || space.len() == 3);
    batch.tuples = vec![Tuple::build("r").field("id", 1i64).done()];
    assert_eq!(remote.commit_batch(batch), Err(SpaceError::TxnInactive));
    assert_eq!(ids_of_type(&space, "t"), vec![0, 1, 2]);
    assert!(ids_of_type(&space, "r").is_empty());
}

/// The case a resend must not apply twice: the server applied a refill's
/// commit, and the connection is cut before its answer left (held back
/// while the paired take waits for a task). The proxy reconnects and
/// resends the pair; the resent commit is refused with `TxnInactive`, and
/// the results are in the space once.
#[test]
fn a_commit_whose_answer_is_lost_is_not_applied_again() {
    let (space, server, remote) = rig();
    let t = Template::of_type("t");
    Space::write_all(&space, (0..3).map(tuple).collect()).unwrap();
    let (_, taken) = remote.take_batch(Batch::default(), &t, 3, None);
    let mut batch = taken.unwrap();
    batch.tuples = (0..3)
        .map(|id| Tuple::build("r").field("id", id).done())
        .collect();
    let wait = Some(Duration::from_millis(200));
    let pending = remote.begin_take_batch(batch, &t, 3, wait);
    wait_until("the commit is applied", || {
        ids_of_type(&space, "r") == [0, 1, 2]
    });
    server.disconnect_all();
    let (committed, taken) = pending.finish();
    assert_eq!(committed, Err(SpaceError::TxnInactive));
    assert!(taken.unwrap().tuples.is_empty());
    assert_eq!(ids_of_type(&space, "r"), vec![0, 1, 2], "written once");
    assert!(ids_of_type(&space, "t").is_empty(), "consumed once");
}

/// A connection holding an open transaction waits for its next request
/// without `read_timeout`: its holder may compute for longer than that
/// before committing. One holding none still times out.
#[test]
fn a_connection_holding_a_txn_outlives_the_read_timeout() {
    let space = Space::new("long-task");
    let server = SpaceServer::spawn_with(
        space.clone(),
        "127.0.0.1:0",
        ServerOptions {
            read_timeout: Some(Duration::from_millis(200)),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    space.write(tuple(1)).unwrap();
    let mut holder = TcpStream::connect(server.addr()).unwrap();
    let take = Request::TakeUpTo(Template::of_type("t"), 1, Some(0));
    holder.write_all(&txn_frame(0, 1, false, &take)).unwrap();
    read_raw::<Response>(&mut holder).unwrap();
    std::thread::sleep(Duration::from_millis(500)); // the task
    let commit = Request::WriteAll(vec![Tuple::build("r").field("id", 1i64).done()], None);
    holder.write_all(&txn_frame(1, 1, true, &commit)).unwrap();
    let answer = read_raw::<Response>(&mut holder).unwrap().body;
    assert!(matches!(answer, Response::Ids(_)), "{answer:?}");
    assert_eq!(ids_of_type(&space, "r"), vec![1]);
    assert!(ids_of_type(&space, "t").is_empty());
    // Committed, the same connection is timed again; so is a fresh one.
    let mut idle = TcpStream::connect(server.addr()).unwrap();
    idle.write_all(&raw_frame(0, None, &Request::IsClosed))
        .unwrap();
    read_raw::<Response>(&mut idle).unwrap();
    std::thread::sleep(Duration::from_millis(500));
    for conn in [&mut holder, &mut idle] {
        let _ = conn.write_all(&raw_frame(2, None, &Request::IsClosed));
        assert!(read_raw::<Response>(conn).is_err(), "timed out");
    }
}

/// A batch take under a transaction that would overflow its answer frame
/// takes only the prefix it answers with: the rest stays visible and
/// free, so the commit removes exactly what the client was sent.
#[test]
fn a_txn_take_that_would_overflow_a_frame_holds_only_what_it_answers() {
    let (space, server, _remote) = rig();
    let big = |i: i64| {
        Tuple::build("big")
            .field("id", i)
            .field("blob", vec![0u8; 2 << 20])
            .done()
    };
    Space::write_all(&space, (0..6).map(big).collect()).unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let take = Request::TakeUpTo(Template::of_type("big"), 10, Some(0));
    raw.write_all(&txn_frame(0, 1, false, &take)).unwrap();
    let Response::Tuples(sent) = read_raw::<Response>(&mut raw).unwrap().body else {
        panic!("a take answers with tuples");
    };
    assert!((1..6).contains(&sent.len()), "split: {}", sent.len());
    assert_eq!(
        space.len(),
        6 - sent.len(),
        "nothing held but what was sent"
    );
    raw.write_all(&txn_frame(1, 1, true, &Request::WriteAll(Vec::new(), None)))
        .unwrap();
    assert!(matches!(
        read_raw::<Response>(&mut raw).unwrap().body,
        Response::Ids(_)
    ));
    let left: Vec<i64> = (sent.len() as i64..6).collect();
    assert_eq!(ids_of_type(&space, "big"), left);
}

/// A refill with nothing to commit that cannot reach the server fails its
/// take only: there was no commit to fail, and a worker rides out a
/// failed take as a transient strike.
#[test]
fn a_take_alone_that_cannot_reach_the_server_fails_only_the_take() {
    let (addr, _log) = deaf_then_serving(Space::new("deaf"), 2, 1);
    let remote = RemoteSpace::connect(addr).unwrap();
    let t = Template::of_type("t");
    let (committed, taken) = remote.take_batch(Batch::default(), &t, 8, Some(Duration::ZERO));
    assert_eq!(committed, Ok(()));
    assert!(
        matches!(taken, Err(SpaceError::Transport(_))),
        "{:?}",
        taken.map(|b| b.tuples)
    );
}

/// Property tests over the wire codec: arbitrary frames — every header
/// against every op and every response — round-trip exactly, and
/// arbitrary bytes never panic the decoder.
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

    fn arb_request() -> impl Strategy<Value = Request> {
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

    fn arb_response() -> impl Strategy<Value = Response> {
        prop_oneof![
            any::<u64>().prop_map(Response::Id),
            Just(Response::MaybeTuple(None)),
            arb_tuple().prop_map(|t| Response::MaybeTuple(Some(t))),
            any::<u64>().prop_map(Response::Count),
            any::<bool>().prop_map(Response::Bool),
            Just(Response::Unit),
            (any::<u8>(), "[a-z ]{0,24}").prop_map(|(code, detail)| Response::Err(code, detail)),
            proptest::collection::vec(any::<u64>(), 0..8).prop_map(Response::Ids),
            proptest::collection::vec(arb_tuple(), 0..6).prop_map(Response::Tuples),
        ]
    }

    /// Every header: any seq, with and without a (non-zero) trace context.
    fn arb_frame<T: std::fmt::Debug>(
        body: impl Strategy<Value = T>,
    ) -> impl Strategy<Value = Frame<T>> {
        let trace = prop_oneof![
            Just(None),
            (1..u64::MAX, 1..u64::MAX)
                .prop_map(|(trace_id, span_id)| Some(TraceContext { trace_id, span_id })),
        ];
        (any::<u32>(), trace, body).prop_map(|(seq, trace, body)| Frame {
            seq,
            trace,
            txn: None,
            body,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn requests_roundtrip(frame in arb_frame(arb_request())) {
            let decoded = proto::decode(Bytes::from(frame.to_bytes()), &mut NameInterner::new());
            prop_assert_eq!(decoded, Ok(frame));
        }

        #[test]
        fn responses_roundtrip(frame in arb_frame(arb_response())) {
            let decoded = proto::decode(Bytes::from(frame.to_bytes()), &mut NameInterner::new());
            prop_assert_eq!(decoded, Ok(frame));
        }

        #[test]
        fn frames_survive_arbitrary_chunking(
            frames in proptest::collection::vec(arb_frame(arb_request()), 1..12),
            chunks in proptest::collection::vec(1usize..600, 1..8),
            blob in 0usize..40_000,
        ) {
            // The stream delivers 1 byte … several frames per read; one
            // frame may be far larger than the read buffer.
            let mut frames = frames;
            frames[0].body = Request::Write(
                Tuple::build("big").field("blob", vec![0xA5u8; blob]).done(),
                None,
            );
            let mut bytes = Vec::new();
            for frame in &frames {
                bytes.extend(raw_frame(frame.seq, frame.trace, &frame.body));
            }
            let mut stream = ChunkedRead::new(bytes, chunks);
            let mut reader = FrameReader::default();
            let mut interner = NameInterner::new();
            for frame in &frames {
                let read = reader.read_frame(&mut stream).unwrap();
                prop_assert_eq!(&proto::decode::<Request>(read, &mut interner).unwrap(), frame);
            }
            prop_assert!(!reader.has_buffered());
            let end = reader.read_frame(&mut stream).unwrap_err();
            prop_assert_eq!(end.kind(), std::io::ErrorKind::UnexpectedEof);
        }

        #[test]
        fn a_txn_header_rides_a_batch_take_or_write_and_nothing_else(
            frame in arb_frame(arb_request()),
            response in arb_frame(arb_response()),
            id in any::<u64>(),
            commit in any::<bool>(),
        ) {
            // Accepted exactly on a `WriteAll` (committing or not) and a
            // non-committing `TakeUpTo`, and then decoded as sent.
            // Decoded as sent; served only on a `WriteAll` (committing
            // or not) or a non-committing `TakeUpTo`, and refused on
            // every other op without touching the space.
            let txn = Some(TxnHeader { id, commit });
            let frame = Frame { txn, ..frame };
            let accepted = match frame.body {
                Request::WriteAll(..) => true,
                Request::TakeUpTo(..) => !commit,
                _ => false,
            };
            let decoded = proto::decode(Bytes::from(frame.to_bytes()), &mut NameInterner::new());
            prop_assert_eq!(&decoded, &Ok(frame));
            if !accepted {
                let space = Space::new("refuses");
                let served = serve(&space, &mut Txns::new(), decoded.unwrap());
                prop_assert!(
                    matches!(served.into_error("txn"), SpaceError::Protocol(_)),
                    "a transaction header must be refused"
                );
                prop_assert!(!space.is_closed());
            }
            // And a response carrying one still decodes as sent (the
            // client refuses it on receipt).
            let response = Frame { txn, ..response };
            let decoded = proto::decode(Bytes::from(response.to_bytes()), &mut NameInterner::new());
            prop_assert_eq!(decoded, Ok(response));
        }

        #[test]
        fn decoders_never_panic(tail in proptest::collection::vec(any::<u8>(), 0..192), valid_header in any::<bool>()) {
            // Half the cases get past the version and flag checks, so the
            // op decoders see arbitrary bytes too.
            let mut bytes = if valid_header { vec![WIRE_VERSION, 0, 0, 0, 0, 0] } else { Vec::new() };
            bytes.extend(tail);
            let _ = proto::decode::<Request>(Bytes::from(bytes.clone()), &mut NameInterner::new());
            let _ = proto::decode::<Response>(Bytes::from(bytes), &mut NameInterner::new());
        }
    }
}
