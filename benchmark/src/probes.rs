//! Post-run layer probes: a sample of the workload's *own* tuples replayed
//! through one layer's public API at a time, on an otherwise idle process.
//! They price what the spans cannot see from outside — a codec pass, one
//! round trip, one space operation, one journal append.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use acc_durability::{Wal, WalOptions};
use acc_tuplespace::{Payload, RemoteSpace, Space, SpaceServer, Template, Tuple, TupleStore};

use crate::stats;

/// Median cost of one probed operation per layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Probes {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub task_bytes: f64,
    pub result_bytes: f64,
    pub rtt_us: f64,
    pub remote_write_us: f64,
    pub remote_take_us: f64,
    pub space_write_ns: f64,
    pub space_read_indexed_ns: f64,
    pub space_take_indexed_ns: f64,
    pub space_take_scan_ns: f64,
    pub wal_append_us: f64,
    pub journal_write_take_us: f64,
}

/// What the probes replay.
pub struct ProbeInput<'a> {
    /// A tuple as the workload writes it (a task entry, or an op tuple).
    pub task: &'a Tuple,
    /// A tuple as the workload takes it back (a result entry; the op tuple
    /// again on `space_ops`).
    pub result: &'a Tuple,
    /// The resident set the local-space probe matches against (empty for
    /// the job workloads, whose space is near-empty).
    pub backlog: Vec<Tuple>,
    /// A `Bytes` field of `task` to match on exactly: unindexed, so the
    /// lookup scans.
    pub scan_field: &'a str,
    /// Probe iterations per timing (the smoke run uses few).
    pub iterations: usize,
    /// Scratch directory for the WAL and journal probes.
    pub dir: &'a Path,
}

/// Median nanoseconds per call of `op`, over `samples` timings of `batch`
/// calls each (batching keeps the clock read out of sub-microsecond ops).
fn median_ns(samples: usize, batch: usize, mut op: impl FnMut()) -> f64 {
    let timings: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                op();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&timings)
}

fn by_field(tuple: &Tuple, field: &str) -> Template {
    let value = tuple
        .get(field)
        .unwrap_or_else(|| panic!("sample tuple has no '{field}' field"))
        .clone();
    Template::build(tuple.type_name().to_owned())
        .eq(field, value)
        .done()
}

pub fn run(input: ProbeInput<'_>) -> Result<Probes, String> {
    let ProbeInput {
        task,
        result,
        backlog,
        scan_field,
        iterations,
        dir,
    } = input;
    let n = iterations.max(8);
    let mut p = Probes::default();

    // tuplespace.payload: one codec pass over each of the two tuple shapes.
    let task_wire = task.to_bytes();
    let result_wire = result.to_bytes();
    p.task_bytes = task_wire.len() as f64;
    p.result_bytes = result_wire.len() as f64;
    p.encode_ns = median_ns(n / 8, 8, || {
        std::hint::black_box(std::hint::black_box(task).to_bytes());
        std::hint::black_box(std::hint::black_box(result).to_bytes());
    }) / 2.0;
    p.decode_ns = median_ns(n / 8, 8, || {
        std::hint::black_box(Tuple::from_bytes(std::hint::black_box(&task_wire)).ok());
        std::hint::black_box(Tuple::from_bytes(std::hint::black_box(&result_wire)).ok());
    }) / 2.0;

    let by_job = by_field(task, "job");
    let by_id = by_field(task, "task_id");
    let by_scan = by_field(task, scan_field);

    // tuplespace.remote: an idle server, one connection. The no-match
    // non-blocking read is the floor: syscalls + wake-up + two frames.
    {
        let space = Space::new("probe-remote");
        let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0")
            .map_err(|e| format!("probe server: {e}"))?;
        let remote =
            RemoteSpace::connect(server.addr()).map_err(|e| format!("probe connect: {e}"))?;
        let miss = Template::of_type("probe.absent");
        let mut failed = false;
        p.rtt_us = median_ns(n, 1, || failed |= remote.read_if_exists(&miss).is_err()) / 1e3;
        p.remote_write_us = median_ns(n, 1, || failed |= remote.write(task.clone()).is_err()) / 1e3;
        p.remote_take_us = median_ns(n, 1, || {
            failed |= !matches!(remote.take_if_exists(&by_job), Ok(Some(_)));
        }) / 1e3;
        space.close();
        drop(server);
        if failed {
            return Err("a remote probe op failed".into());
        }
    }

    // tuplespace.space: the same ops on an in-process space holding the
    // workload's resident set, no wire.
    {
        let space = Space::new("probe-space");
        space
            .write_all(backlog)
            .map_err(|e| format!("probe preload: {e}"))?;
        let mut failed = false;
        let batch = 8;
        let mut write_ns = Vec::new();
        let mut read_ns = Vec::new();
        let mut take_ns = Vec::new();
        for _ in 0..(n / batch).max(1) {
            let t0 = Instant::now();
            for _ in 0..batch {
                failed |= space.write(task.clone()).is_err();
            }
            let t1 = Instant::now();
            for _ in 0..batch {
                failed |= !matches!(space.read_if_exists(&by_id), Ok(Some(_)));
            }
            let t2 = Instant::now();
            for _ in 0..batch {
                failed |= !matches!(space.take_if_exists(&by_job), Ok(Some(_)));
            }
            let t3 = Instant::now();
            write_ns.push((t1 - t0).as_nanos() as f64 / batch as f64);
            read_ns.push((t2 - t1).as_nanos() as f64 / batch as f64);
            take_ns.push((t3 - t2).as_nanos() as f64 / batch as f64);
        }
        p.space_write_ns = stats::median(&write_ns);
        p.space_read_indexed_ns = stats::median(&read_ns);
        p.space_take_indexed_ns = stats::median(&take_ns);
        // The scan walks the resident set, so it gets fewer repetitions.
        let mut scan_ns = Vec::new();
        for _ in 0..(n / 16).max(4) {
            failed |= space.write(task.clone()).is_err();
            let t0 = Instant::now();
            failed |= !matches!(space.take_if_exists(&by_scan), Ok(Some(_)));
            scan_ns.push(t0.elapsed().as_nanos() as f64);
        }
        p.space_take_scan_ns = stats::median(&scan_ns);
        space.close();
        if failed {
            return Err("a local space probe op failed".into());
        }
    }

    // durability.wal and tuplespace.journal: records the size of the
    // workload's tuples, default options (fsync every 64 appends).
    {
        let wal_dir = dir.join("probe-wal");
        let journal_dir = dir.join("probe-journal");
        for d in [&wal_dir, &journal_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
        let mut failed = false;
        {
            let wal = Wal::open(&wal_dir, WalOptions::default())
                .map_err(|e| format!("probe wal: {e}"))?;
            p.wal_append_us = median_ns(n, 1, || failed |= wal.append(&task_wire).is_err()) / 1e3;
        }
        {
            let space = Space::durable("probe-journal", &journal_dir, WalOptions::default())
                .map_err(|e| format!("probe journal: {e}"))?;
            let store: Arc<Space> = space;
            p.journal_write_take_us = median_ns(n, 1, || {
                failed |= store.write(task.clone()).is_err();
                failed |= !matches!(store.take_if_exists(&by_job), Ok(Some(_)));
            }) / 1e3;
            store.close();
        }
        for d in [&wal_dir, &journal_dir] {
            let _ = std::fs::remove_dir_all(d);
        }
        if failed {
            return Err("a WAL or journal probe op failed".into());
        }
    }
    Ok(p)
}
