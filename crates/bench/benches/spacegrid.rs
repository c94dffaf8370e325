//! Space-grid benchmarks: aggregate dispatch-throughput scaling from
//! 1 → 4 shards, and the single-shard overhead of going through
//! `PartitionedSpace` at all.
//!
//! The headline scaling arm (`loaded_dispatch`) measures what sharding
//! buys *algorithmically*: dispatch cycles against a space that also
//! carries a standing backlog of other jobs' queued tuples. Jobs are
//! keyed by `Bytes` ids, and the space server's field index does not
//! index byte blobs (documented in `value_index_hash`), so every match
//! walks the scan path — whose cost is proportional to the entries
//! *this shard* stores. One shard scans the whole cluster's backlog on
//! every op; four shards each scan a quarter. That advantage is CPU-
//! architecture-independent: it holds even on a single-core runner,
//! where lock- or fsync-parallelism arms would be bounded by the
//! machine rather than by the design.
//!
//! The secondary scaling arm (`durable_dispatch`) runs durable shards
//! (`SyncPolicy::Always`): each `write_all` batch pays every shard it
//! reaches one WAL append (one record of its share) and one fsync, which
//! the batches of other writers on that shard share when they meet, and
//! four shards commit four WALs concurrently. Its ratio is bounded by how well the host's disk
//! overlaps concurrent syncs, so it is reported for the record, not
//! gated on.
//!
//! Both scaling arms use the placement a cluster runs
//! (`PartitionedSpace::connect`): each `write_all` batch splits evenly
//! over the shards, so it waits on every shard's answer, and each drain
//! asks every shard for its share.
//!
//! The overhead arm compares a 1-shard grid against a direct
//! `RemoteSpace` on the identical non-durable server, over the batch
//! dispatch + drain cycle the master/worker hot path uses.
//!
//! The refill arm times a worker's refill on a 4-shard grid — results
//! out, tasks in — as the grid sends it (one pipelined pair on the
//! client's home shard, the other shards asked only when the home runs
//! short) against `write_all` then `take_up_to` on the same grid (the
//! write fan-out, then the take fan-out) as its control.
//!
//! Every ratio is taken between arms that alternate in one loop — the
//! scaling arms shard count by shard count within each pass, the
//! overhead and refill arms cycle by cycle — and is the median of the
//! per-round ratios, so host drift between rounds lands on both sides
//! alike.
//!
//! The scaling arm measures aggregate multi-thread throughput with
//! explicit thread control. Output is `label: N ns/iter`, and measured
//! runs export `BENCH_spacegrid.json` at the repo root for the
//! perf-trajectory record.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_durability::{SyncPolicy, WalOptions};
use acc_spacegrid::PartitionedSpace;
use acc_telemetry::Json;
use acc_tuplespace::{
    Batch, BatchTxn, RemoteSpace, Space, SpaceHandle, SpaceServer, Template, Tuple, TupleStore,
};

const WRITERS: usize = 16;
const PAYLOAD: usize = 64;

fn task_tuple(writer: usize, id: i64) -> Tuple {
    Tuple::build("acc.task")
        .field("job", "bench")
        .field("writer", writer as i64)
        .field("task_id", id)
        .field("payload", vec![0u8; PAYLOAD])
        .done()
}

struct ShardRig {
    #[allow(dead_code)]
    spaces: Vec<SpaceHandle>,
    servers: Vec<SpaceServer>,
    dirs: Vec<std::path::PathBuf>,
}

impl ShardRig {
    fn durable(shards: usize) -> ShardRig {
        let mut spaces = Vec::new();
        let mut servers = Vec::new();
        let mut dirs = Vec::new();
        for i in 0..shards {
            let dir = std::env::temp_dir().join(format!(
                "acc-bench-grid-{}-{shards}-{i}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let opts = WalOptions {
                sync: SyncPolicy::Always,
                ..WalOptions::default()
            };
            let space = Space::durable(format!("shard-{i}"), &dir, opts).unwrap();
            let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
            spaces.push(space);
            servers.push(server);
            dirs.push(dir);
        }
        ShardRig {
            spaces,
            servers,
            dirs,
        }
    }

    fn plain(shards: usize) -> ShardRig {
        let mut spaces = Vec::new();
        let mut servers = Vec::new();
        for i in 0..shards {
            let space = Space::new(format!("shard-{i}"));
            let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
            spaces.push(space);
            servers.push(server);
        }
        ShardRig {
            spaces,
            servers,
            dirs: Vec::new(),
        }
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|s| s.addr()).collect()
    }
}

impl Drop for ShardRig {
    fn drop(&mut self) {
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Tuples per `write_all` call in the scaling arm — the same order of
/// magnitude as the master's dispatch batches.
const DISPATCH_CHUNK: usize = 64;

/// Aggregate durable dispatch throughput over `shards` shards:
/// `WRITERS` threads, each with its own grid client (its own shard
/// connections, like real workers), each dispatching `per_writer`
/// distinct tuples in `DISPATCH_CHUNK`-sized `write_all` batches that
/// split evenly over the shards. Returns mean ns per tuple across the
/// whole run; every batch costs each shard it reaches one WAL append,
/// a record of its share, and at most one fsync.
fn durable_dispatch_ns(shards: usize, per_writer: usize) -> f64 {
    let rig = ShardRig::durable(shards);
    let addrs = Arc::new(rig.addrs());
    let barrier = Arc::new(std::sync::Barrier::new(WRITERS + 1));
    let mut threads = Vec::new();
    for writer in 0..WRITERS {
        let addrs = addrs.clone();
        let barrier = barrier.clone();
        threads.push(std::thread::spawn(move || {
            let grid = PartitionedSpace::connect(&addrs).unwrap();
            barrier.wait();
            let mut next = 0usize;
            while next < per_writer {
                let end = (next + DISPATCH_CHUNK).min(per_writer);
                let chunk: Vec<Tuple> = (next..end).map(|i| task_tuple(writer, i as i64)).collect();
                grid.write_all(chunk).unwrap();
                next = end;
            }
        }));
    }
    barrier.wait();
    let start = Instant::now();
    for t in threads {
        t.join().unwrap();
    }
    let elapsed = start.elapsed();
    elapsed.as_nanos() as f64 / (WRITERS * per_writer) as f64
}

/// A task tuple owned by a byte-keyed job (the loaded arm's shape).
fn job_task(job: &[u8], id: i64) -> Tuple {
    Tuple::build("acc.task")
        .field("job", job.to_vec())
        .field("task_id", id)
        .field("payload", vec![0u8; PAYLOAD])
        .done()
}

/// Aggregate dispatch throughput against a loaded space: the shards
/// also hold `backlog` tuples of another job (split evenly by the
/// grid's placement — the same total cluster content whatever the shard
/// count), and byte job ids keep every match on the server's scan path,
/// so per-op cost tracks the entries stored *on that shard*. Each of
/// `WRITERS` threads cycles `write_all` / `take_up_to` drains of its own
/// job, both spread over every shard. Returns mean ns per dispatched
/// tuple.
fn loaded_dispatch_ns(shards: usize, per_writer: usize, backlog: usize) -> f64 {
    let rig = ShardRig::plain(shards);
    let addrs = Arc::new(rig.addrs());
    let loader = PartitionedSpace::connect(&addrs).unwrap();
    let mut next = 0usize;
    while next < backlog {
        let end = (next + 256).min(backlog);
        let chunk: Vec<Tuple> = (next..end).map(|i| job_task(b"B", i as i64)).collect();
        loader.write_all(chunk).unwrap();
        next = end;
    }
    drop(loader);

    let barrier = Arc::new(std::sync::Barrier::new(WRITERS + 1));
    let mut threads = Vec::new();
    for writer in 0..WRITERS {
        let addrs = addrs.clone();
        let barrier = barrier.clone();
        let job = vec![b'W', writer as u8];
        threads.push(std::thread::spawn(move || {
            let grid = PartitionedSpace::connect(&addrs).unwrap();
            let template = Template::build("acc.task").eq("job", job.clone()).done();
            barrier.wait();
            let mut next = 0usize;
            while next < per_writer {
                let end = (next + DISPATCH_CHUNK).min(per_writer);
                let chunk: Vec<Tuple> = (next..end).map(|i| job_task(&job, i as i64)).collect();
                let want = chunk.len();
                grid.write_all(chunk).unwrap();
                let mut drained = 0usize;
                while drained < want {
                    let got = grid
                        .take_up_to(&template, 32, Some(std::time::Duration::ZERO))
                        .unwrap();
                    assert!(!got.is_empty(), "own job under-drained");
                    drained += got.len();
                }
                next = end;
            }
        }));
    }
    barrier.wait();
    let start = Instant::now();
    for t in threads {
        t.join().unwrap();
    }
    let elapsed = start.elapsed();
    elapsed.as_nanos() as f64 / (WRITERS * per_writer) as f64
}

/// One dispatch+drain cycle: `write_all` a batch, then `take_up_to` it
/// back in prefetch-sized bites — the master/worker hot path.
fn dispatch_cycle(store: &dyn TupleStore, batch: usize) {
    let tuples: Vec<Tuple> = (0..batch as i64).map(|i| task_tuple(0, i)).collect();
    store.write_all(tuples).unwrap();
    let template = Template::build("acc.task").eq("job", "bench").done();
    let mut drained = 0;
    while drained < batch {
        let got = store
            .take_up_to(&template, 32, Some(std::time::Duration::ZERO))
            .unwrap();
        assert!(!got.is_empty(), "batch under-drained");
        drained += got.len();
    }
}

/// Refills per timed refill cycle, and results out / tasks asked per
/// refill (a worker's prefetch depth).
const REFILLS: usize = 32;
const REFILL: usize = 8;

/// One timed cycle of a worker's refills on a grid: `REFILLS` times,
/// `REFILL` results out and up to `REFILL` tasks in — `paired` as the
/// grid sends it, else as the write fan-out then the take fan-out.
/// Seeding twice the tasks taken (so no sweep comes up dry) and clearing
/// up are outside the timing. Returns ns per refill.
fn refill_cycle_ns(grid: &PartitionedSpace, paired: bool) -> f64 {
    let tasks = Template::build("acc.task").eq("job", "bench").done();
    let seed = (0..2 * REFILLS * REFILL).map(|i| task_tuple(0, i as i64));
    grid.write_all(seed.collect()).unwrap();
    let start = Instant::now();
    for r in 0..REFILLS {
        let results = (0..REFILL)
            .map(|i| {
                Tuple::build("acc.result")
                    .field("task_id", (r * REFILL + i) as i64)
                    .field("payload", vec![0u8; PAYLOAD])
                    .done()
            })
            .collect();
        let zero = Some(Duration::ZERO);
        let taken = if paired {
            let done = Batch {
                txn: BatchTxn::default(),
                tuples: results,
            };
            let (written, taken) = grid.take_batch(done, &tasks, REFILL, zero);
            written.unwrap();
            taken.unwrap().tuples
        } else {
            grid.write_all(results).unwrap();
            grid.take_up_to(&tasks, REFILL, zero).unwrap()
        };
        assert!(!taken.is_empty(), "a refill found no task");
    }
    let ns = start.elapsed().as_nanos() as f64 / REFILLS as f64;
    grid.take_all(&tasks).unwrap();
    grid.take_all(&Template::of_type("acc.result")).unwrap();
    ns
}

/// `reps` timed rounds of two arms, one run of each per round: each
/// arm's median ns and the median of the rounds' `b / a` ratios.
fn alternating(reps: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> [f64; 3] {
    let (mut a_ns, mut b_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let (x, y) = (a(), b());
        a_ns.push(x);
        b_ns.push(y);
        ratios.push(y / x);
    }
    [
        acc_bench::median(a_ns),
        acc_bench::median(b_ns),
        acc_bench::median(ratios),
    ]
}

/// Shard counts of the scaling arms.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// `passes` passes of a scaling arm, each running every shard count in
/// turn on fresh shards: each count's median ns, and the median of the
/// passes' 1-vs-4 ratios.
fn alternating_scaling(passes: usize, arm: impl Fn(usize) -> f64) -> ([f64; 3], f64) {
    let mut samples: [Vec<f64>; 3] = Default::default();
    let mut ratios = Vec::new();
    for _ in 0..passes {
        let pass = SHARD_COUNTS.map(&arm);
        ratios.push(pass[0] / pass[2]);
        for (all, ns) in samples.iter_mut().zip(pass) {
            all.push(ns);
        }
    }
    (samples.map(acc_bench::median), acc_bench::median(ratios))
}

fn main() {
    let measure = std::env::args().any(|a| a == "--bench");
    let mut results: Vec<(String, f64)> = Vec::new();
    let passes = if measure { 3 } else { 1 };
    let mut report = |label: String, ns: f64, what: String| {
        if measure {
            println!("{label}: {ns:.0} ns/iter ({what})");
        } else {
            println!("{label}: ok (test mode)");
        }
        results.push((label, ns));
    };

    // ----------------------------------------------------------------
    // Headline scaling arm: dispatch against a loaded space, 1 → 2 → 4
    // shards. Scan-path matching makes per-op cost track per-shard
    // content, so the ratio reflects the partitioning design, not the
    // host's disk or core count.
    // ----------------------------------------------------------------
    let per_writer = if measure { 64 } else { 8 };
    let backlog = if measure { 4096 } else { 64 };
    let (loaded, scaling_4x) = alternating_scaling(passes, |shards| {
        loaded_dispatch_ns(shards, per_writer, backlog)
    });
    for (shards, ns) in SHARD_COUNTS.into_iter().zip(loaded) {
        let what = format!("{} tuples over {backlog} backlog", WRITERS * per_writer);
        report(
            format!("spacegrid/loaded_dispatch/{shards}shards"),
            ns,
            what,
        );
    }

    // ----------------------------------------------------------------
    // Secondary scaling arm: durable batched dispatch, 1 → 2 → 4
    // shards (fsync-overlap bound; ratio is host-disk dependent).
    // Fresh shards each pass: fsync latency on shared hosts is too
    // jittery for a single sample.
    // ----------------------------------------------------------------
    let per_writer = if measure { 128 } else { 8 };
    let (durable, durable_4x) =
        alternating_scaling(passes, |shards| durable_dispatch_ns(shards, per_writer));
    for (shards, ns) in SHARD_COUNTS.into_iter().zip(durable) {
        let what = format!("{} tuples, {WRITERS} threads", WRITERS * per_writer);
        report(
            format!("spacegrid/durable_dispatch/{shards}shards"),
            ns,
            what,
        );
    }

    // ----------------------------------------------------------------
    // Overhead arm: 1-shard grid vs direct RemoteSpace, non-durable.
    // ----------------------------------------------------------------
    let batch = if measure { 512 } else { 32 };
    let reps = if measure { 30 } else { 1 };
    let (direct_rig, grid_rig) = (ShardRig::plain(1), ShardRig::plain(1));
    let remote = RemoteSpace::connect(direct_rig.addrs()[0]).unwrap();
    let grid = PartitionedSpace::connect(&grid_rig.addrs()).unwrap();
    let time_cycle = |store: &dyn TupleStore| {
        let start = Instant::now();
        dispatch_cycle(store, batch);
        start.elapsed().as_nanos() as f64
    };
    let [direct_ns, grid_ns, overhead] =
        alternating(reps, || time_cycle(&remote), || time_cycle(&grid));
    let what = format!("batch {batch}, {reps} samples");
    report(
        "spacegrid/overhead/direct_remote".into(),
        direct_ns,
        what.clone(),
    );
    report("spacegrid/overhead/grid_1shard".into(), grid_ns, what);

    // ----------------------------------------------------------------
    // Refill arm: a 4-shard refill, one pair on one shard vs two fan-outs.
    // ----------------------------------------------------------------
    let rig = ShardRig::plain(4);
    let grid = PartitionedSpace::connect(&rig.addrs()).unwrap();
    let [paired_ns, sequence_ns, refill_ratio] = alternating(
        reps,
        || refill_cycle_ns(&grid, true),
        || refill_cycle_ns(&grid, false),
    );
    let what = format!("{REFILL} results out, {REFILL} tasks in, {reps} samples");
    report("spacegrid/refill/4shards".into(), paired_ns, what.clone());
    report(
        "spacegrid/refill/4shards_in_sequence".into(),
        sequence_ns,
        what,
    );

    if !measure {
        println!("spacegrid: smoke ok");
        return;
    }

    // ----------------------------------------------------------------
    // Derived figures + perf-trajectory export.
    // ----------------------------------------------------------------
    let overhead_pct = (overhead - 1.0) * 100.0;
    let refill_pct = (1.0 / refill_ratio - 1.0) * 100.0;
    println!("spacegrid/scaling_4_shards_vs_1: {scaling_4x:.2}x");
    println!("spacegrid/durable_scaling_4_shards_vs_1: {durable_4x:.2}x");
    println!("spacegrid/overhead_1shard_vs_direct: {overhead_pct:+.1}%");
    println!("spacegrid/refill_4shards_vs_in_sequence: {refill_pct:+.1}%");

    acc_bench::write_bench_record(&acc_bench::bench_record(
        "spacegrid",
        [
            ("results_ns", acc_bench::results_ns(&results)),
            ("scaling_4_shards_vs_1", Json::Float(scaling_4x, 3)),
            ("durable_scaling_4_shards_vs_1", Json::Float(durable_4x, 3)),
            ("overhead_1shard_pct", Json::Float(overhead_pct, 2)),
            (
                "refill_4shards_vs_in_sequence_pct",
                Json::Float(refill_pct, 2),
            ),
        ],
    ));
}
