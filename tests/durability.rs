//! Crash-recovery integration tests: kill-point injection against the
//! durable space.
//!
//! The strategy is model-based: run a known op sequence against a durable
//! space, and after every op record the WAL length together with the
//! space's visible state. Each recorded boundary is a *kill point* — a
//! place a `kill -9` could have landed. For each one we copy the storage
//! directory, truncate the log to that boundary (and a few bytes past it,
//! to model a torn in-flight frame), recover, and require the recovered
//! state to equal exactly the state recorded at that boundary: the
//! committed prefix, nothing more, nothing less.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use adaptive_spaces::space::{EntryId, Lease, Space, SpaceHandle, Template, Tuple, WalOptions};

fn tdir(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "acc-durability-it-{}-{label}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn task(id: i64) -> Tuple {
    Tuple::build("task").field("id", id).done()
}

/// The single active WAL segment (these tests stay below one segment).
fn wal_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    assert_eq!(segments.len(), 1, "tests assume a single active segment");
    segments.pop().unwrap()
}

/// Copies a flat storage directory (WAL segments + snapshots).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

type Boundary = (u64, Vec<(EntryId, Tuple)>);

fn record(dir: &Path, space: &SpaceHandle) -> Boundary {
    let len = std::fs::metadata(wal_segment(dir)).unwrap().len();
    (len, space.dump())
}

/// Truncates a copy of the storage dir to `len` log bytes and recovers.
fn recover_at(src: &Path, kill_dir: &Path, len: u64) -> Vec<(EntryId, Tuple)> {
    let _ = std::fs::remove_dir_all(kill_dir);
    copy_dir(src, kill_dir);
    let segment = wal_segment(kill_dir);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap();
    file.set_len(len).unwrap();
    drop(file);
    let recovered = Space::recover(kill_dir).unwrap();
    recovered.dump()
}

#[test]
fn every_kill_point_recovers_exactly_the_committed_prefix() {
    let dir = tdir("matrix");
    let space = Space::durable("kp", &dir, WalOptions::default()).unwrap();
    let all = Template::of_type("task");
    let mut boundaries: Vec<Boundary> = vec![record(&dir, &space)];

    // A representative op mix: plain writes, leased writes, takes (one of
    // them indexed, off the FIFO head), renew, a committed transaction,
    // and an aborted one.
    for i in 0..6 {
        space.write(task(i)).unwrap();
        boundaries.push(record(&dir, &space));
    }
    let leased = space
        .write_leased(task(100), Lease::for_millis(120_000))
        .unwrap();
    boundaries.push(record(&dir, &space));
    space.take_if_exists(&all).unwrap().unwrap();
    boundaries.push(record(&dir, &space));
    space
        .renew_lease(leased, Lease::for_millis(240_000))
        .unwrap();
    boundaries.push(record(&dir, &space));
    space.write(task(200)).unwrap();
    boundaries.push(record(&dir, &space));
    space
        .take_if_exists(&Template::build("task").eq("id", 200i64).done())
        .unwrap()
        .unwrap();
    boundaries.push(record(&dir, &space));

    let txn = space.txn().unwrap();
    txn.write(task(300)).unwrap();
    txn.take_if_exists(&Template::build("task").eq("id", 1i64).done())
        .unwrap()
        .unwrap();
    txn.commit().unwrap();
    boundaries.push(record(&dir, &space));

    let aborted = space.txn().unwrap();
    aborted.write(task(400)).unwrap();
    aborted.abort().unwrap();
    boundaries.push(record(&dir, &space));

    space.take_if_exists(&all).unwrap().unwrap();
    boundaries.push(record(&dir, &space));

    drop(space);

    // The log grows monotonically, and an aborted txn journals nothing.
    for pair in boundaries.windows(2) {
        assert!(pair[0].0 <= pair[1].0);
    }

    let kill_dir = tdir("matrix-kill");
    for (i, (len, expected)) in boundaries.iter().enumerate() {
        let got = recover_at(&dir, &kill_dir, *len);
        assert_eq!(&got, expected, "kill point {i} (log length {len})");

        // A torn frame past the boundary must recover to the same state.
        let next_len = boundaries.get(i + 1).map(|b| b.0);
        if next_len.is_some_and(|n| n > *len) {
            let got = recover_at(&dir, &kill_dir, *len + 3);
            assert_eq!(&got, expected, "torn frame after kill point {i}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
}

#[test]
fn kill_after_checkpoint_recovers_snapshot_plus_wal_tail() {
    let dir = tdir("ckpt-tail");
    let space = Space::durable("ct", &dir, WalOptions::default()).unwrap();
    let all = Template::of_type("task");
    for i in 0..10 {
        space.write(task(i)).unwrap();
    }
    space.take_if_exists(&all).unwrap().unwrap();
    space.checkpoint().unwrap();

    // Boundaries strictly after the checkpoint: each pairs the snapshot
    // with a growing WAL tail.
    let mut boundaries: Vec<Boundary> = vec![record(&dir, &space)];
    for i in 10..15 {
        space.write(task(i)).unwrap();
        boundaries.push(record(&dir, &space));
    }
    for _ in 0..3 {
        space.take_if_exists(&all).unwrap().unwrap();
        boundaries.push(record(&dir, &space));
    }
    drop(space);

    let kill_dir = tdir("ckpt-tail-kill");
    for (i, (len, expected)) in boundaries.iter().enumerate() {
        let got = recover_at(&dir, &kill_dir, *len);
        assert_eq!(&got, expected, "post-checkpoint kill point {i}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
}

#[test]
fn recovery_is_idempotent_and_preserves_fifo_order() {
    let dir = tdir("twice");
    {
        let space = Space::durable("tw", &dir, WalOptions::default()).unwrap();
        for i in 0..8 {
            space.write(task(i)).unwrap();
        }
        space
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .unwrap();
    }
    // Recover, mutate nothing, recover again: same state both times.
    let first = Space::recover(&dir).unwrap().dump();
    let second = Space::recover(&dir).unwrap().dump();
    assert_eq!(first, second);
    // FIFO order survives recovery: the oldest remaining entry comes out.
    let space = Space::recover(&dir).unwrap();
    let got = space
        .take_if_exists(&Template::of_type("task"))
        .unwrap()
        .unwrap();
    assert_eq!(got.get_int("id"), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lease_expiring_during_downtime_stays_dead() {
    let dir = tdir("downtime");
    {
        let space = Space::durable("dt", &dir, WalOptions::default()).unwrap();
        space.write_leased(task(1), Lease::for_millis(40)).unwrap();
        space.write(task(2)).unwrap();
        // Renewal of an already-long lease must also be honored.
        let id = space.write_leased(task(3), Lease::for_millis(40)).unwrap();
        space.renew_lease(id, Lease::for_millis(120_000)).unwrap();
    }
    std::thread::sleep(Duration::from_millis(80));
    let space = Space::recover(&dir).unwrap();
    let ids: Vec<i64> = space
        .dump()
        .into_iter()
        .map(|(_, t)| t.get_int("id").unwrap())
        .collect();
    assert_eq!(ids, vec![2, 3], "entry 1 expired while the space was down");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_space_keeps_accepting_and_journaling_ops() {
    let dir = tdir("continue");
    {
        let space = Space::durable("ct", &dir, WalOptions::default()).unwrap();
        for i in 0..5 {
            space.write(task(i)).unwrap();
        }
    }
    // First restart: consume some, add some.
    {
        let space = Space::recover(&dir).unwrap();
        space
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .unwrap();
        space.write(task(50)).unwrap();
        space.checkpoint().unwrap();
        space.write(task(51)).unwrap();
    }
    // Second restart: everything from both generations is there.
    let space = Space::recover(&dir).unwrap();
    let ids: Vec<i64> = space
        .dump()
        .into_iter()
        .map(|(_, t)| t.get_int("id").unwrap())
        .collect();
    assert_eq!(ids, vec![1, 2, 3, 4, 50, 51]);
    let _ = std::fs::remove_dir_all(&dir);
}
