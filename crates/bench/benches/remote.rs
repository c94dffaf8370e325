//! Wire-protocol benchmarks: batch dispatch and batch fetch against an
//! explicit unbatched loop, over a real loopback TCP server.
//!
//! Both arms drive one [`RemoteSpace`]: `per_tuple` pays one frame — one
//! round trip — per tuple (`write` / `take_if_exists`), `batched` uses the
//! batch operations (`write_all` / `take_up_to`).
//!
//! `remote/refill` is a worker's refill point on its own: four results
//! out, four tasks in, as the two calls it used to be and as the one
//! pipelined pair it is now.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use acc_tuplespace::{RemoteSpace, Space, SpaceServer, Template, Tuple, TupleStore};

const TASKS: usize = 1000;

fn task_tuple(id: i64) -> Tuple {
    Tuple::build("acc.task")
        .field("job", "bench")
        .field("task_id", id)
        .field("payload", vec![0u8; 64])
        .done()
}

/// Master-side planning: dispatch 1k tasks through the proxy. The loop
/// pays 1000 round trips; `write_all` sends budgeted batch frames back to
/// back over the same connection.
fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("remote/dispatch_1k");
    group.throughput(Throughput::Elements(TASKS as u64));
    for (label, batched) in [("per_tuple", false), ("batched", true)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &batched,
            |b, &batched| {
                let space = Space::new("bench");
                let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
                let remote = RemoteSpace::connect(server.addr()).unwrap();
                let template = Template::of_type("acc.task");
                b.iter(|| {
                    let tuples: Vec<Tuple> = (0..TASKS as i64).map(task_tuple).collect();
                    if batched {
                        remote.write_all(tuples).unwrap();
                    } else {
                        for tuple in tuples {
                            remote.write(tuple).unwrap();
                        }
                    }
                    // Cleanup between iterations stays local — off the wire
                    // path under test, and identical in both arms.
                    let drained = Space::take_all(&space, &template).unwrap();
                    assert_eq!(drained.len(), TASKS);
                });
            },
        );
    }
    group.finish();
}

/// Worker-side fetching: drain 1k tasks through the proxy, one
/// `take_if_exists` per tuple or in prefetch batches of 32.
fn bench_fetch(c: &mut Criterion) {
    let mut group = c.benchmark_group("remote/fetch_1k");
    group.throughput(Throughput::Elements(TASKS as u64));
    for (label, batch) in [("per_tuple", 1usize), ("batched", 32)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &batch, |b, &batch| {
            let space = Space::new("bench");
            let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
            let remote = RemoteSpace::connect(server.addr()).unwrap();
            let template = Template::of_type("acc.task");
            b.iter(|| {
                // Seeding is local: same cost in both arms, off the wire.
                Space::write_all(&space, (0..TASKS as i64).map(task_tuple).collect()).unwrap();
                let mut got = 0usize;
                while got < TASKS {
                    let fetched = if batch == 1 {
                        usize::from(remote.take_if_exists(&template).unwrap().is_some())
                    } else {
                        remote
                            .take_up_to(&template, batch, Some(Duration::ZERO))
                            .unwrap()
                            .len()
                    };
                    assert!(fetched > 0, "seeded tasks must be fetchable");
                    got += fetched;
                }
            });
        });
    }
    group.finish();
}

/// Worker-side refill: write a batch's four results and take the next
/// four tasks — `write_all` then `take_up_to` (two round trips), or
/// `write_all_then_take_up_to` (one exchange, one syscall each way on
/// each side).
fn bench_refill(c: &mut Criterion) {
    const BATCH: usize = 4;
    let mut group = c.benchmark_group("remote/refill");
    group.throughput(Throughput::Elements(BATCH as u64));
    for (label, paired) in [("two_calls", false), ("pair", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &paired, |b, &paired| {
            let space = Space::new("bench");
            let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
            let remote = RemoteSpace::connect(server.addr()).unwrap();
            let tasks = Template::of_type("acc.task");
            let results = Template::of_type("acc.result");
            let result_tuple = |id: i64| {
                Tuple::build("acc.result")
                    .field("job", "bench")
                    .field("task_id", id)
                    .field("payload", vec![0u8; 64])
                    .done()
            };
            b.iter(|| {
                // Seeding and cleanup are local: off the wire, the same
                // in both arms.
                Space::write_all(&space, (0..BATCH as i64).map(task_tuple).collect()).unwrap();
                let out: Vec<Tuple> = (0..BATCH as i64).map(result_tuple).collect();
                let taken = if paired {
                    let (written, taken) =
                        remote.write_all_then_take_up_to(out, &tasks, BATCH, Some(Duration::ZERO));
                    written.unwrap();
                    taken.unwrap()
                } else {
                    remote.write_all(out).unwrap();
                    remote
                        .take_up_to(&tasks, BATCH, Some(Duration::ZERO))
                        .unwrap()
                };
                assert_eq!(taken.len(), BATCH);
                assert_eq!(Space::take_all(&space, &results).unwrap().len(), BATCH);
            });
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_dispatch, bench_fetch, bench_refill
);
criterion_main!(benches);
