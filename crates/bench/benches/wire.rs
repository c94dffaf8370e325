//! Codec microbenchmarks for the zero-copy wire path.
//!
//! Pure in-memory encode/decode — no sockets — so the numbers isolate
//! the codec itself: the borrowed (frame-sharing, name-interned) decode
//! against a fresh uncached decode, and the reused-scratch encode
//! against encoding into a fresh buffer each time. Measuring runs export
//! `BENCH_wire.json` at the repo root for the perf-trajectory record;
//! the hard gate on this path is the allocation budgets in
//! `tests/alloc_budget.rs`, not these timings.

use acc_telemetry::Json;
use acc_tuplespace::{decode_frame, Bytes, NameInterner, Payload, Tuple, WireWriter};

fn task_tuple(id: i64) -> Tuple {
    Tuple::build("acc.task")
        .field("job", "bench")
        .field("task_id", id)
        .field("attempt", 1i64)
        .field("live", true)
        .field("weight", 0.5f64)
        .field("payload", vec![0xA5u8; 64])
        .done()
}

fn main() {
    let measure = std::env::args().any(|a| a == "--bench");
    let reps = if measure { 30 } else { 1 };
    let iters: u64 = if measure { 10_000 } else { 10 };
    let mut results: Vec<(&'static str, f64)> = Vec::new();

    let tuple = task_tuple(7);
    let frame = Bytes::from(tuple.to_bytes());

    // Borrowed decode: warm per-connection shape cache, frame shared.
    {
        let mut interner = NameInterner::new();
        let warm: Tuple = decode_frame(frame.clone(), &mut interner).unwrap();
        assert_eq!(warm, tuple);
        let ns = acc_bench::median_ns(reps, iters, || {
            let t: Tuple = decode_frame(frame.clone(), &mut interner).unwrap();
            std::hint::black_box(t);
        });
        results.push(("wire/decode_6field_borrowed", ns));
    }

    // Uncached decode: a fresh cache per frame, so every frame decodes
    // and checks its names and looks its shape up in the process table.
    {
        let bytes = tuple.to_bytes();
        let ns = acc_bench::median_ns(reps, iters, || {
            let t = Tuple::from_bytes(&bytes).unwrap();
            std::hint::black_box(t);
        });
        results.push(("wire/decode_6field_uncached", ns));
    }

    // Reused-scratch encode: clear + encode into one buffer, the frame
    // encoder's steady state.
    {
        let mut w = WireWriter::new();
        let ns = acc_bench::median_ns(reps, iters, || {
            w.clear();
            tuple.encode(&mut w);
            std::hint::black_box(w.len());
        });
        results.push(("wire/encode_6field_reused", ns));
    }

    // Fresh-buffer encode: what `to_bytes()` per frame used to cost.
    {
        let ns = acc_bench::median_ns(reps, iters, || {
            std::hint::black_box(tuple.to_bytes());
        });
        results.push(("wire/encode_6field_fresh", ns));
    }

    // Batch decode: 64 frames through one warm cache — the server's
    // view of a pipelined `write_all`.
    {
        let frames: Vec<Bytes> = (0..64)
            .map(|i| Bytes::from(task_tuple(i).to_bytes()))
            .collect();
        let mut interner = NameInterner::new();
        let batch_iters = (iters / 64).max(1);
        let ns = acc_bench::median_ns(reps, batch_iters, || {
            for f in &frames {
                let t: Tuple = decode_frame(f.clone(), &mut interner).unwrap();
                std::hint::black_box(t);
            }
        });
        results.push(("wire/decode_batch_64", ns));
    }

    let ns_of = |needle: &str| results.iter().find(|(l, _)| *l == needle).unwrap().1;
    let decode_speedup =
        ns_of("wire/decode_6field_uncached") / ns_of("wire/decode_6field_borrowed");
    let encode_speedup = ns_of("wire/encode_6field_fresh") / ns_of("wire/encode_6field_reused");

    for (label, ns) in &results {
        if measure {
            println!("{label}: {ns:.0} ns/iter");
        } else {
            println!("{label}: ok (test mode)");
        }
    }
    if !measure {
        println!("wire: smoke ok");
        return;
    }
    println!("wire/decode_borrowed_speedup: {decode_speedup:.2}x");
    println!("wire/encode_reused_speedup: {encode_speedup:.2}x");

    acc_bench::write_bench_record(&acc_bench::bench_record(
        "wire",
        [
            ("results_ns", acc_bench::results_ns(&results)),
            ("decode_borrowed_speedup", Json::Float(decode_speedup, 3)),
            ("encode_reused_speedup", Json::Float(encode_speedup, 3)),
        ],
    ));
}
