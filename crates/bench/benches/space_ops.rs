//! Micro-benchmarks of the tuple space: the substrate every byte of the
//! framework flows through.
//!
//! The flight recorder is installed for the whole run, as it is in any
//! cluster deployment — these numbers are the space's hot-path cost with
//! the observability plane live.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use acc_tuplespace::{Lease, Space, Template, Tuple};

fn with_flight(c: &mut Criterion) {
    acc_telemetry::flight::install();
    let _ = c;
}

fn task_tuple(id: i64, payload_len: usize) -> Tuple {
    Tuple::build("acc.task")
        .field("job", "bench")
        .field("task_id", id)
        .field("payload", vec![0u8; payload_len])
        .done()
}

fn bench_write_take(c: &mut Criterion) {
    let mut group = c.benchmark_group("space/write_take");
    for payload in [64usize, 4096, 65536] {
        group.throughput(Throughput::Bytes(payload as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(payload),
            &payload,
            |b, &payload| {
                let space = Space::new("bench");
                let template = Template::of_type("acc.task");
                let mut i = 0i64;
                b.iter(|| {
                    space.write(task_tuple(i, payload)).unwrap();
                    i += 1;
                    space.take_if_exists(&template).unwrap().unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_read(c: &mut Criterion) {
    c.bench_function("space/read_among_1000", |b| {
        let space = Space::new("bench");
        for i in 0..1000 {
            space.write(task_tuple(i, 64)).unwrap();
        }
        let template = Template::build("acc.task").eq("task_id", 999i64).done();
        b.iter(|| space.read_if_exists(&template).unwrap().unwrap());
    });
}

fn bench_template_match(c: &mut Criterion) {
    c.bench_function("space/template_match", |b| {
        let tuple = task_tuple(42, 256);
        let template = Template::build("acc.task")
            .eq("job", "bench")
            .int_range("task_id", 0, 100)
            .done();
        b.iter(|| template.matches(&tuple));
    });
}

fn bench_take_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("space/take_modes");
    group.bench_function("plain", |b| {
        let space = Space::new("bench");
        let template = Template::of_type("acc.task");
        let mut i = 0i64;
        b.iter(|| {
            space.write(task_tuple(i, 256)).unwrap();
            i += 1;
            space.take_if_exists(&template).unwrap().unwrap()
        });
    });
    group.bench_function("transactional", |b| {
        let space = Space::new("bench");
        let template = Template::of_type("acc.task");
        let mut i = 0i64;
        b.iter(|| {
            space.write(task_tuple(i, 256)).unwrap();
            i += 1;
            let txn = space.txn().unwrap();
            let got = txn.take_if_exists(&template).unwrap().unwrap();
            txn.commit().unwrap();
            got
        });
    });
    group.finish();
}

fn bench_leased_writes_and_sweep(c: &mut Criterion) {
    c.bench_function("space/leased_write_sweep_100", |b| {
        let space = Space::new("bench");
        b.iter(|| {
            for i in 0..100 {
                space
                    .write_leased(task_tuple(i, 64), Lease::for_millis(0))
                    .unwrap();
            }
            space.sweep()
        });
    });
}

/// One producer feeding 1/4/16 long-lived takers, each taker draining its
/// own tuple type with a blocking `take`. Takers park between tasks, so
/// the wakeup policy dominates: a store that wakes every waiter per write
/// (notify_all on one global condvar) pays O(takers) spurious wakeups and
/// rescans per tuple, while per-type shards with targeted wakeups pay
/// O(1). Taker threads persist across iterations so thread spawn/join
/// cost (~1ms for 16 threads) stays out of the measurement.
fn bench_concurrent_takers(c: &mut Criterion) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const OPS: usize = 2048;
    let mut group = c.benchmark_group("space/concurrent_takers");
    for takers in [1usize, 4, 16] {
        group.throughput(Throughput::Elements(OPS as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(takers),
            &takers,
            |b, &takers| {
                let space = Space::new("bench");
                let consumed = Arc::new(AtomicUsize::new(0));
                let handles: Vec<_> = (0..takers)
                    .map(|t| {
                        let space = space.clone();
                        let consumed = consumed.clone();
                        std::thread::spawn(move || {
                            let template = Template::build(format!("acc.task.{t}"))
                                .eq("job", "bench")
                                .done();
                            // Drain until the space closes at teardown.
                            while let Ok(Some(_)) = space.take(&template, None) {
                                consumed.fetch_add(1, Ordering::Relaxed);
                            }
                        })
                    })
                    .collect();
                let types: Vec<String> = (0..takers).map(|t| format!("acc.task.{t}")).collect();
                b.iter(|| {
                    consumed.store(0, Ordering::Relaxed);
                    for i in 0..OPS {
                        let t = i % takers;
                        space
                            .write(
                                Tuple::build(types[t].as_str())
                                    .field("job", "bench")
                                    .field("task_id", (i / takers) as i64)
                                    .done(),
                            )
                            .unwrap();
                    }
                    while consumed.load(Ordering::Relaxed) < OPS {
                        std::thread::yield_now();
                    }
                });
                space.close();
                for h in handles {
                    h.join().unwrap();
                }
            },
        );
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets =
    with_flight,
    bench_write_take,
    bench_read,
    bench_template_match,
    bench_take_modes,
    bench_leased_writes_and_sweep,
    bench_concurrent_takers
);
criterion_main!(benches);
