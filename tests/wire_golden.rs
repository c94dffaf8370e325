//! Wire goldens: the bytes a task tuple, a traced and timed result tuple,
//! a job template and one `WriteAll` frame encode to. The files under
//! `tests/golden/*.hex` were captured before tuples became a shape plus a
//! value array; encoding must reproduce them byte for byte, and decoding
//! them must give back what was encoded. The WAL, snapshots and the
//! spacegrid placement hash all go through this codec, so this pins them
//! too.
//!
//! One test, so no sibling test switches the flight recorder on or off
//! while another encodes.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;

use adaptive_spaces::cluster::TaskTiming;
use adaptive_spaces::framework::task::{RESULT_TYPE, TASK_TYPE};
use adaptive_spaces::framework::{task_template, tuple_trace_context, ResultEntry, TaskEntry};
use adaptive_spaces::space::remote::SpaceServer;
use adaptive_spaces::space::{
    decode_frame, Bytes, NameInterner, Payload, RemoteSpace, Space, Template, Tuple, TupleStore,
};
use adaptive_spaces::telemetry::{flight, TraceContext};

fn golden(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/golden/{name}.hex", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn assert_golden(name: &str, encoded: &[u8]) {
    assert_eq!(
        hex(encoded),
        hex(&golden(name)),
        "{name}: encoding moved (left: now, right: golden)"
    );
}

fn task() -> TaskEntry {
    TaskEntry::new("golden-job", 42, (0u8..64).collect())
}

fn result() -> ResultEntry {
    ResultEntry {
        job: "golden-job".into(),
        task_id: 42,
        worker: "w07".into(),
        payload: (0u8..64).rev().collect(),
        compute_ms: 0.25,
        span_ms: 12.5,
        error: None,
        timing: TaskTiming {
            wait_us: 40,
            xfer_us: 5,
            compute_us: 250,
            write_us: 12,
        },
    }
}

/// The frame a `RemoteSpace` sends for one `write_all`, read off a socket
/// that never answers.
fn captured_write_all_frame(tuples: Vec<Tuple>) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let remote = RemoteSpace::connect(addr).unwrap();
        // The peer hangs up without answering: the call fails, the frame
        // has been sent.
        let _ = remote.write_all(tuples);
    });
    let (mut conn, _) = listener.accept().unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut len = [0u8; 4];
    conn.read_exact(&mut len).unwrap();
    let mut frame = vec![0u8; u32::from_le_bytes(len) as usize];
    conn.read_exact(&mut frame).unwrap();
    // Hang up and stop listening, so the client's one reconnect fails too.
    drop(conn);
    drop(listener);
    client.join().unwrap();
    [len.to_vec(), frame].concat()
}

#[test]
fn encodings_match_the_goldens_and_decode_back() {
    let mut interner = NameInterner::new();

    // A task tuple, untraced.
    let task_tuple = task().to_tuple();
    let task_bytes = task_tuple.to_bytes();
    assert_golden("task_tuple", &task_bytes);
    let decoded: Tuple = decode_frame(Bytes::from(golden("task_tuple")), &mut interner).unwrap();
    assert_eq!(decoded, task_tuple);
    assert_eq!(decoded.type_name(), TASK_TYPE);
    assert_eq!(TaskEntry::from_tuple(&decoded), Some(task()));

    // A job template.
    let template = task_template("golden-job");
    assert_golden("job_template", &template.to_bytes());
    let decoded: Template =
        decode_frame(Bytes::from(golden("job_template")), &mut interner).unwrap();
    assert_eq!(decoded, template);
    assert!(decoded.matches(&task_tuple));

    // One WriteAll frame of two task tuples, as the client sends it.
    let batch = vec![task_tuple.clone(), {
        let mut second = task();
        second.task_id = 43;
        second.retries = 1;
        second.to_tuple()
    }];
    assert_golden("write_all_frame", &captured_write_all_frame(batch.clone()));
    // The server decodes the golden frame into the same two tuples.
    let space = Space::new("golden");
    let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    conn.write_all(&golden("write_all_frame")).unwrap();
    let mut len = [0u8; 4];
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.read_exact(&mut len).unwrap();
    let stored = space.take_all(&Template::of_type(TASK_TYPE)).unwrap();
    assert_eq!(stored, batch);

    // A result tuple carrying timing and a trace context.
    flight::install();
    let ctx = TraceContext {
        trace_id: 0x1122_3344_5566_7788,
        span_id: 0x99aa_bbcc_ddee_ff01,
    };
    let result_tuple = {
        let _attached = ctx.attach();
        result().to_tuple()
    };
    flight::uninstall();
    assert_golden("result_tuple", &result_tuple.to_bytes());
    let decoded: Tuple = decode_frame(Bytes::from(golden("result_tuple")), &mut interner).unwrap();
    assert_eq!(decoded, result_tuple);
    assert_eq!(decoded.type_name(), RESULT_TYPE);
    assert_eq!(ResultEntry::from_tuple(&decoded), Some(result()));
    assert_eq!(tuple_trace_context(&decoded), Some(ctx));
}
