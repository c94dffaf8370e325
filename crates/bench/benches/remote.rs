//! Wire-protocol benchmarks: batch dispatch and batch fetch against an
//! explicit unbatched loop, over a real loopback TCP server.
//!
//! Both arms drive one [`RemoteSpace`]: `per_tuple` pays one frame — one
//! round trip — per tuple (`write` / `take_if_exists`), `batched` uses the
//! batch operations (`write_all` / `take_up_to`). That a batch crosses as
//! one frame each way is a tier-1 test
//! (`remote_batch_write_and_take_up_to`); these are its timings.
//!
//! `remote/refill` is a worker's refill point on its own: four results
//! out, four tasks in, as the two calls it used to be and as the one
//! pipelined pair it is now.
//!
//! Custom harness (no `criterion_group!`). Measured runs export
//! `BENCH_remote.json` at the repo root. The numbers are only comparable
//! pinned to one CPU: unpinned, every round trip is a cross-CPU wake-up.

use std::time::Duration;

use acc_tuplespace::{RemoteSpace, Space, SpaceServer, Template, Tuple, TupleStore};

const TASKS: usize = 1000;
const REFILL: usize = 4;

fn tuple(kind: &str, id: i64) -> Tuple {
    Tuple::build(kind)
        .field("job", "bench")
        .field("task_id", id)
        .field("payload", vec![0u8; 64])
        .done()
}

fn main() {
    let measure = std::env::args().any(|a| a == "--bench");
    let (reps, iters): (usize, u64) = if measure { (15, 10) } else { (1, 1) };
    let space = Space::new("bench");
    let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
    let remote = RemoteSpace::connect(server.addr()).unwrap();
    let tasks = Template::of_type("acc.task");
    let results_of = Template::of_type("acc.result");
    let mut results: Vec<(&str, f64)> = Vec::new();

    // Master-side planning: dispatch 1k tasks through the proxy. The loop
    // pays 1000 round trips; `write_all` sends one batch frame. Cleanup
    // between iterations stays local — off the wire, the same in both
    // arms.
    for (label, batched) in [
        ("remote/dispatch_1k/per_tuple", false),
        ("remote/dispatch_1k/batched", true),
    ] {
        let ns = acc_bench::median_ns(reps, iters, || {
            let out: Vec<Tuple> = (0..TASKS as i64).map(|i| tuple("acc.task", i)).collect();
            if batched {
                remote.write_all(out).unwrap();
            } else {
                for t in out {
                    remote.write(t).unwrap();
                }
            }
            assert_eq!(Space::take_all(&space, &tasks).unwrap().len(), TASKS);
        });
        results.push((label, ns));
    }

    // Worker-side fetching: drain 1k tasks through the proxy, one
    // `take_if_exists` per tuple or in prefetch batches of 32. Seeding is
    // local.
    for (label, batch) in [
        ("remote/fetch_1k/per_tuple", 1usize),
        ("remote/fetch_1k/batched", 32),
    ] {
        let ns = acc_bench::median_ns(reps, iters, || {
            let seed = (0..TASKS as i64).map(|i| tuple("acc.task", i)).collect();
            Space::write_all(&space, seed).unwrap();
            let mut got = 0usize;
            while got < TASKS {
                let fetched = if batch == 1 {
                    usize::from(remote.take_if_exists(&tasks).unwrap().is_some())
                } else {
                    let zero = Some(Duration::ZERO);
                    remote.take_up_to(&tasks, batch, zero).unwrap().len()
                };
                assert!(fetched > 0, "seeded tasks must be fetchable");
                got += fetched;
            }
        });
        results.push((label, ns));
    }

    // Worker-side refill: write a batch's four results and take the next
    // four tasks — `write_all` then `take_up_to` (two round trips), or
    // `write_all_then_take_up_to` (one exchange). Seeding and cleanup are
    // local.
    for (label, paired) in [
        ("remote/refill/two_calls", false),
        ("remote/refill/pair", true),
    ] {
        let ns = acc_bench::median_ns(reps, iters * 100, || {
            let seed = (0..REFILL as i64).map(|i| tuple("acc.task", i)).collect();
            Space::write_all(&space, seed).unwrap();
            let out: Vec<Tuple> = (0..REFILL as i64).map(|i| tuple("acc.result", i)).collect();
            let zero = Some(Duration::ZERO);
            let taken = if paired {
                let (written, taken) = remote.write_all_then_take_up_to(out, &tasks, REFILL, zero);
                written.unwrap();
                taken.unwrap()
            } else {
                remote.write_all(out).unwrap();
                remote.take_up_to(&tasks, REFILL, zero).unwrap()
            };
            assert_eq!(taken.len(), REFILL);
            assert_eq!(Space::take_all(&space, &results_of).unwrap().len(), REFILL);
        });
        results.push((label, ns));
    }

    for (label, ns) in &results {
        if measure {
            println!("{label}: {ns:.0} ns/iter");
        } else {
            println!("{label}: ok (test mode, 1 iter)");
        }
    }
    if !measure {
        println!("remote: smoke ok");
        return;
    }
    acc_bench::write_bench_record(&acc_bench::bench_record(
        "remote",
        [("results_ns", acc_bench::results_ns(&results))],
    ));
}
