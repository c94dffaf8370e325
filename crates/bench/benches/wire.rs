//! Codec microbenchmarks for the zero-copy wire path.
//!
//! Pure in-memory encode/decode — no sockets — so the numbers isolate
//! the codec itself: the borrowed (frame-sharing, name-interned) decode
//! against a fresh uncached decode, and the reused-scratch encode
//! against encoding into a fresh buffer each time. Measuring runs export
//! `BENCH_wire.json` at the repo root for the perf-trajectory record;
//! CI treats the wall-clock numbers as advisory (the allocation budgets
//! in `tests/alloc_budget.rs` are the hard gate).

use std::time::Instant;

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

/// Median ns/op over `reps` timed passes of `iters` iterations each.
fn median_ns(reps: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                op();
            }
            start.elapsed().as_nanos() / iters as u128
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

fn main() {
    let measure = std::env::args().any(|a| a == "--bench");
    let reps = if measure { 30 } else { 1 };
    let iters = if measure { 10_000 } else { 10 };
    let mut results: Vec<(&'static str, f64)> = Vec::new();

    let tuple = task_tuple(7);
    let frame = Bytes::from(tuple.to_bytes());

    // Borrowed decode: warm per-connection name cache, frame shared.
    {
        let mut interner = NameInterner::new();
        let warm: Tuple = decode_frame(frame.clone(), &mut interner).unwrap();
        assert_eq!(warm, tuple);
        let ns = median_ns(reps, iters, || {
            let t: Tuple = decode_frame(frame.clone(), &mut interner).unwrap();
            std::hint::black_box(t);
        });
        results.push(("wire/decode_6field_borrowed", ns));
    }

    // Uncached decode: no interner, every name allocates — what a
    // connection without the cache (or the pre-interning code) pays.
    {
        let bytes = tuple.to_bytes();
        let ns = median_ns(reps, iters, || {
            let t = Tuple::from_bytes(&bytes).unwrap();
            std::hint::black_box(t);
        });
        results.push(("wire/decode_6field_uncached", ns));
    }

    // Reused-scratch encode: clear + encode into one buffer, the frame
    // encoder's steady state.
    {
        let mut w = WireWriter::new();
        let ns = median_ns(reps, iters, || {
            w.clear();
            tuple.encode(&mut w);
            std::hint::black_box(w.len());
        });
        results.push(("wire/encode_6field_reused", ns));
    }

    // Fresh-buffer encode: what `to_bytes()` per frame used to cost.
    {
        let ns = median_ns(reps, iters, || {
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
        let ns = median_ns(reps, batch_iters, || {
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

    let from = acc_bench::Provenance::capture();
    let mut json = format!(
        "{{\n  \"bench\": \"wire\",\n  \"host\": {{ \"cpu\": \"{}\", \"cores\": {} }},\n  \"commit\": \"{}\",\n  \"results_ns\": {{\n",
        acc_telemetry::json_escape(&from.cpu),
        from.cores,
        from.commit,
    );
    for (i, (label, ns)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!("    \"{label}\": {ns:.0}{comma}\n"));
    }
    json.push_str(&format!(
        "  }},\n  \"decode_borrowed_speedup\": {decode_speedup:.3},\n  \"encode_reused_speedup\": {encode_speedup:.3}\n}}\n"
    ));
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json");
    std::fs::write(out, json).unwrap();
    println!("wire: wrote {out}");
}
