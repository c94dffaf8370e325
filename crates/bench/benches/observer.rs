//! Micro-benchmarks of the cluster observer: what its history rings and
//! its hub cost. The rings record once per worker per SNMP poll and the
//! hub once per result, so these numbers bound the observer's share of
//! the monitor's tick and of the master's absorb path.

use criterion::{criterion_group, criterion_main, Criterion};

use acc_cluster::{ClusterObserver, ObserverConfig, TaskTiming};
use acc_telemetry::HistoryRing;

fn bench_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("observer/ring");
    group.bench_function("record", |b| {
        let ring = HistoryRing::new(256);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            ring.record(t, (t % 100) as i64);
        });
    });
    group.bench_function("stats_full_ring", |b| {
        let ring = HistoryRing::new(256);
        for t in 0..256u64 {
            ring.record(t, (t % 100) as i64);
        }
        b.iter(|| ring.stats());
    });
    group.finish();
}

fn bench_hub(c: &mut Criterion) {
    let mut group = c.benchmark_group("observer/hub");
    group.bench_function("record_attribution", |b| {
        let hub = ClusterObserver::new(ObserverConfig::default());
        let timing = TaskTiming {
            wait_us: 120,
            xfer_us: 40,
            compute_us: 5_000,
            write_us: 90,
        };
        b.iter(|| hub.record_attribution("job", "bench-worker", &timing));
    });
    group.bench_function("straggler_scan_16_workers", |b| {
        // The monitor's effective_load runs this scan once per worker per
        // poll tick; bound it over a fleet-sized hub.
        let hub = ClusterObserver::new(ObserverConfig::default());
        for w in 0..16 {
            let name = format!("w{w:02}");
            for i in 0..64u64 {
                hub.record_attribution(
                    "job",
                    &name,
                    &TaskTiming {
                        compute_us: 4_000 + w * 100 + i,
                        ..TaskTiming::default()
                    },
                );
            }
        }
        b.iter(|| hub.stragglers());
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_ring, bench_hub
);
criterion_main!(benches);
