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
use std::sync::mpsc;
use std::time::Duration;

use adaptive_spaces::space::{
    EntryId, Lease, Space, SpaceHandle, SyncPolicy, Template, Tuple, WalOptions,
};

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

    // Batches: a multi-tuple write and a several-tuple take, each one
    // boundary.
    let batches = boundaries.len();
    space.write_all((500..505).map(task).collect()).unwrap();
    boundaries.push(record(&dir, &space));
    let taken = space.take_up_to(&all, 4, Some(Duration::ZERO)).unwrap();
    assert_eq!(taken.len(), 4);
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
    // The batch write is one record: torn one byte short, it recovers
    // none of its batch.
    let (before, after) = (&boundaries[batches - 1], &boundaries[batches]);
    let got = recover_at(&dir, &kill_dir, after.0 - 1);
    assert_eq!(
        got, before.1,
        "a torn batch write recovered part of its batch"
    );
    // The batch take's drain is one record too: torn, it keeps all of its
    // tuples, and only the waited first take (a record of its own) stays.
    let (before, after) = (&boundaries[batches], &boundaries[batches + 1]);
    let got = recover_at(&dir, &kill_dir, after.0 - 1);
    assert_eq!(got.len(), before.1.len() - 1, "a torn batch take");
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

/// A single-type batch write is one WAL record, and a batch take at most
/// two: the waited first take, then one per shard drained.
#[test]
fn a_batch_is_one_record() {
    let dir = tdir("one-record");
    let space = Space::durable("one", &dir, WalOptions::default()).unwrap();
    let wal = space.wal().unwrap();
    let before = wal.next_lsn();
    space.write_all((0..64).map(task).collect()).unwrap();
    assert_eq!(wal.next_lsn(), before + 1, "a 64-tuple write_all");
    let before = wal.next_lsn();
    let got = space
        .take_up_to(&Template::of_type("task"), 64, Some(Duration::ZERO))
        .unwrap();
    assert_eq!(got.len(), 64);
    assert!(wal.next_lsn() - before <= 2, "a take_up_to of 64");
    drop(space);
    assert!(Space::recover(&dir).unwrap().dump().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// No due sync is skipped: after every op returns, the WAL's synced
/// watermark covers every LSN the sync policy made due. Each phase repeats
/// one journaling path until it has made at least one sync due, so every
/// path is checked; the batch write crosses several multiples of 8.
#[test]
fn every_op_returns_only_after_the_syncs_it_made_due() {
    let dir = tdir("dues");
    let opts = WalOptions {
        sync: SyncPolicy::EveryN(8),
        ..WalOptions::default()
    };
    let space = Space::durable("dues", &dir, opts).unwrap();
    let wal = space.wal().expect("a durable space has a WAL");
    let all = Template::of_type("task");
    let settled = |op: &str| {
        let (due, synced) = (wal.due_below(), wal.synced_below());
        assert!(
            synced >= due,
            "{op} returned with LSN {} due but only {synced} synced",
            due - 1
        );
    };
    let phase = |name: &str, op: &mut dyn FnMut()| {
        let before = wal.due_below();
        op();
        assert!(wal.due_below() > before, "{name} made no sync due");
    };

    phase("write_all", &mut || {
        space.write_all((0..30).map(task).collect()).unwrap();
        settled("write_all");
        assert_eq!(
            wal.unsynced_ops(),
            0,
            "the batch's 30 ops cross 8 at its record"
        );
    });
    phase("write", &mut || {
        for i in 30..38 {
            space.write(task(i)).unwrap();
            settled("write");
        }
    });
    phase("take", &mut || {
        for _ in 0..8 {
            space.take_if_exists(&all).unwrap().unwrap();
            settled("take");
        }
    });
    phase("wildcard take", &mut || {
        for _ in 0..8 {
            space
                .take_if_exists(&Template::any_type().done())
                .unwrap()
                .unwrap();
            settled("wildcard take");
        }
    });
    phase("take_up_to", &mut || {
        let got = space.take_up_to(&all, 9, Some(Duration::ZERO)).unwrap();
        assert_eq!(got.len(), 9);
        settled("take_up_to");
    });
    let leased = space
        .write_leased(task(100), Lease::for_millis(120_000))
        .unwrap();
    settled("write_leased");
    phase("renew_lease", &mut || {
        for _ in 0..8 {
            space
                .renew_lease(leased, Lease::for_millis(240_000))
                .unwrap();
            settled("renew_lease");
        }
    });
    phase("commit", &mut || {
        for i in 200..208 {
            let txn = space.txn().unwrap();
            txn.write(task(i)).unwrap();
            txn.commit().unwrap();
            settled("commit");
        }
    });
    phase("take_all", &mut || {
        assert!(space.take_all(&all).unwrap().len() >= 8);
        settled("take_all");
    });
    // The policy's cadence counts ops: fewer than 8 stand past the last due.
    assert!(wal.unsynced_ops() < 8);
    drop(space);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `op` on a thread and waits for it. The wait is a watchdog that
/// turns a deadlock into a failure; on a passing run it never fires.
fn completes<T: Send + 'static>(what: &str, op: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(op()).unwrap());
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what} is stuck behind the held sync"))
}

/// No lock is held across an fsync: while a sync is held open, the op
/// that owes it waits, and a take on the same shard and an append from
/// another thread both complete.
#[test]
fn a_held_sync_stalls_only_the_op_that_owes_it() {
    let dir = tdir("held");
    let opts = WalOptions {
        sync: SyncPolicy::EveryN(4),
        ..WalOptions::default()
    };
    let space = Space::durable("held", &dir, opts).unwrap();
    for i in 0..3 {
        space.write(task(i)).unwrap();
    }
    let wal = space.wal().unwrap();
    let held = wal.hold_sync();
    // The fourth append falls due, so its write waits on the held sync.
    let owing = {
        let space = space.clone();
        std::thread::spawn(move || space.write(task(3)))
    };
    while wal.next_lsn() < 4 {
        std::thread::yield_now();
    }
    let taker = space.clone();
    let taken = completes("a take on the owing op's shard", move || {
        taker.take_if_exists(&Template::of_type("task"))
    });
    assert!(taken.unwrap().is_some());
    let writer = space.clone();
    completes("an append from another thread", move || {
        writer.write(task(4))
    })
    .unwrap();
    assert!(
        !owing.is_finished(),
        "the op answered before the sync it made due"
    );
    assert!(wal.synced_below() <= 3);
    drop(held);
    owing.join().unwrap().unwrap();
    assert!(wal.synced_below() >= 4);
    drop(space);
    let _ = std::fs::remove_dir_all(&dir);
}
