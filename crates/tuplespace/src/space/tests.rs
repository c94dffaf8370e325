use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

use acc_durability::WalOptions;

use super::*;
use crate::lease::Lease;

fn task(id: i64) -> Tuple {
    Tuple::build("task").field("id", id).done()
}

#[test]
fn write_then_take() {
    let s = Space::new("t");
    s.write(task(1)).unwrap();
    let got = s.take_if_exists(&Template::of_type("task")).unwrap();
    assert_eq!(got.unwrap().get_int("id"), Some(1));
    assert!(s
        .take_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_none());
}

#[test]
fn read_does_not_remove() {
    let s = Space::new("t");
    s.write(task(1)).unwrap();
    assert!(s
        .read_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_some());
    assert!(s
        .read_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_some());
    assert_eq!(s.len(), 1);
}

#[test]
fn fifo_matching_order() {
    let s = Space::new("t");
    for i in 0..5 {
        s.write(task(i)).unwrap();
    }
    for i in 0..5 {
        let got = s
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .unwrap();
        assert_eq!(got.get_int("id"), Some(i));
    }
}

#[test]
fn blocking_take_waits_for_writer() {
    let s = Space::new("t");
    let s2 = s.clone();
    let h = thread::spawn(move || {
        s2.take(&Template::of_type("task"), Some(Duration::from_secs(5)))
            .unwrap()
    });
    thread::sleep(Duration::from_millis(30));
    s.write(task(42)).unwrap();
    let got = h.join().unwrap().unwrap();
    assert_eq!(got.get_int("id"), Some(42));
}

#[test]
fn blocking_wildcard_take_waits_for_writer() {
    let s = Space::new("t");
    let s2 = s.clone();
    let h = thread::spawn(move || {
        s2.take(&Template::any_type().done(), Some(Duration::from_secs(5)))
            .unwrap()
    });
    thread::sleep(Duration::from_millis(30));
    s.write(task(42)).unwrap();
    let got = h.join().unwrap().unwrap();
    assert_eq!(got.get_int("id"), Some(42));
}

#[test]
fn take_timeout_returns_none() {
    let s = Space::new("t");
    let got = s
        .take(&Template::of_type("task"), Some(Duration::from_millis(20)))
        .unwrap();
    assert!(got.is_none());
    assert_eq!(s.stats().misses, 1);
}

#[test]
fn close_wakes_blocked_takers() {
    let s = Space::new("t");
    let s2 = s.clone();
    let h = thread::spawn(move || s2.take(&Template::of_type("task"), None));
    thread::sleep(Duration::from_millis(30));
    s.close();
    assert_eq!(h.join().unwrap(), Err(SpaceError::Closed));
    assert!(s.write(task(1)).is_err());
}

#[test]
fn close_wakes_blocked_wildcard_takers() {
    let s = Space::new("t");
    let s2 = s.clone();
    let h = thread::spawn(move || s2.take(&Template::any_type().done(), None));
    thread::sleep(Duration::from_millis(30));
    s.close();
    assert_eq!(h.join().unwrap(), Err(SpaceError::Closed));
}

#[test]
fn lease_expiry_reclaims_entry() {
    let s = Space::new("t");
    s.write_leased(task(1), Lease::for_millis(10)).unwrap();
    thread::sleep(Duration::from_millis(25));
    assert!(s
        .take_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_none());
    assert_eq!(s.len(), 0);
}

#[test]
fn renew_extends_lease() {
    // The entry lives in the middle of three types: renew finds it by
    // looking in each shard in turn.
    let s = Space::new("t");
    s.write(Tuple::build("alpha").field("id", 0i64).done())
        .unwrap();
    let id = s.write_leased(task(1), Lease::for_millis(40)).unwrap();
    s.write(Tuple::build("zeta").field("id", 2i64).done())
        .unwrap();
    s.renew_lease(id, Lease::forever()).unwrap();
    thread::sleep(Duration::from_millis(60));
    assert!(s
        .read_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_some());
    assert_eq!(
        s.renew_lease(id + 100, Lease::forever()),
        Err(SpaceError::NoSuchEntry)
    );
}

#[test]
fn renew_expired_entry_reports_lease_expired() {
    let s = Space::new("t");
    let id = s.write_leased(task(1), Lease::for_millis(5)).unwrap();
    thread::sleep(Duration::from_millis(15));
    assert_eq!(
        s.renew_lease(id, Lease::forever()),
        Err(SpaceError::LeaseExpired)
    );
    assert_eq!(
        s.renew_lease(id, Lease::forever()),
        Err(SpaceError::NoSuchEntry)
    );
}

#[test]
fn sweep_counts_expired() {
    let s = Space::new("t");
    s.write_leased(task(1), Lease::for_millis(5)).unwrap();
    s.write(task(2)).unwrap();
    thread::sleep(Duration::from_millis(15));
    assert_eq!(s.sweep(), 1);
    assert_eq!(s.len(), 1);
}

#[test]
fn txn_write_invisible_until_commit() {
    let s = Space::new("t");
    let txn = s.txn().unwrap();
    txn.write(task(1)).unwrap();
    assert!(s
        .read_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_none());
    txn.commit().unwrap();
    assert!(s
        .read_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_some());
}

#[test]
fn txn_write_visible_to_self() {
    let s = Space::new("t");
    let txn = s.txn().unwrap();
    txn.write(task(1)).unwrap();
    assert!(txn
        .read(&Template::of_type("task"), Some(Duration::ZERO))
        .unwrap()
        .is_some());
    txn.abort().unwrap();
    assert!(s
        .read_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_none());
}

#[test]
fn txn_take_restored_on_abort() {
    let s = Space::new("t");
    s.write(task(1)).unwrap();
    let txn = s.txn().unwrap();
    let got = txn.take_if_exists(&Template::of_type("task")).unwrap();
    assert!(got.is_some());
    // Invisible to others while taken.
    assert!(s
        .read_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_none());
    txn.abort().unwrap();
    assert!(s
        .take_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_some());
}

#[test]
fn txn_take_removed_on_commit() {
    let s = Space::new("t");
    s.write(task(1)).unwrap();
    let txn = s.txn().unwrap();
    txn.take_if_exists(&Template::of_type("task")).unwrap();
    txn.commit().unwrap();
    assert_eq!(s.len(), 0);
}

#[test]
fn txn_drop_aborts() {
    let s = Space::new("t");
    s.write(task(1)).unwrap();
    {
        let txn = s.txn().unwrap();
        txn.take_if_exists(&Template::of_type("task")).unwrap();
        // Dropped without commit — simulated crash.
    }
    assert!(s
        .take_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_some());
    assert_eq!(s.stats().txns_aborted, 1);
}

#[test]
fn read_lock_blocks_other_take_but_not_read() {
    let s = Space::new("t");
    s.write(task(1)).unwrap();
    let txn = s.txn().unwrap();
    txn.read(&Template::of_type("task"), Some(Duration::ZERO))
        .unwrap()
        .unwrap();
    // Others can still read…
    assert!(s
        .read_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_some());
    // …but not take.
    assert!(s
        .take_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_none());
    txn.commit().unwrap();
    assert!(s
        .take_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_some());
}

#[test]
fn take_back_own_pending_write() {
    let s = Space::new("t");
    let txn = s.txn().unwrap();
    txn.write(task(1)).unwrap();
    let got = txn.take_if_exists(&Template::of_type("task")).unwrap();
    assert!(got.is_some());
    txn.commit().unwrap();
    // The write never became visible: taking your own pending write
    // cancels it.
    assert_eq!(s.len(), 0);
}

#[test]
fn commit_wakes_blocked_taker() {
    let s = Space::new("t");
    let s2 = s.clone();
    let h = thread::spawn(move || {
        s2.take(&Template::of_type("task"), Some(Duration::from_secs(5)))
            .unwrap()
    });
    thread::sleep(Duration::from_millis(30));
    let txn = s.txn().unwrap();
    txn.write(task(5)).unwrap();
    txn.commit().unwrap();
    assert_eq!(h.join().unwrap().unwrap().get_int("id"), Some(5));
}

#[test]
fn len_counts_only_read_visible_entries() {
    let s = Space::new("t");
    s.write(task(1)).unwrap();
    let txn = s.txn().unwrap();
    // A take-locked entry and an uncommitted write are both invisible
    // to plain readers, so neither may count.
    txn.take_if_exists(&Template::of_type("task"))
        .unwrap()
        .unwrap();
    txn.write(task(2)).unwrap();
    assert_eq!(s.len(), 0);
    assert!(s.is_empty());
    txn.commit().unwrap();
    assert_eq!(s.len(), 1);
    assert!(!s.is_empty());
}

#[test]
fn many_concurrent_takers_each_get_distinct_task() {
    let s = Space::new("t");
    let n = 64;
    let mut handles = Vec::new();
    for _ in 0..8 {
        let s2 = s.clone();
        handles.push(thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(t) = s2
                .take(&Template::of_type("task"), Some(Duration::from_millis(200)))
                .unwrap()
            {
                got.push(t.get_int("id").unwrap());
            }
            got
        }));
    }
    for i in 0..n {
        s.write(task(i)).unwrap();
    }
    let mut all: Vec<i64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..n).collect::<Vec<_>>());
}

#[test]
fn write_all_is_batched_and_ordered() {
    let s = Space::new("t");
    let ids = s.write_all((0..5).map(task).collect()).unwrap();
    assert_eq!(ids.len(), 5);
    assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "contiguous ids");
    for i in 0..5 {
        let got = s
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .unwrap();
        assert_eq!(got.get_int("id"), Some(i), "FIFO preserved");
    }
}

#[test]
fn write_all_wakes_blocked_taker() {
    let s = Space::new("t");
    let s2 = s.clone();
    let h = thread::spawn(move || {
        s2.take_up_to(&Template::of_type("task"), 10, Some(Duration::from_secs(5)))
            .unwrap()
    });
    thread::sleep(Duration::from_millis(30));
    s.write_all((0..4).map(task).collect()).unwrap();
    let got = h.join().unwrap();
    assert_eq!(got.len(), 4, "first blocks, rest drained");
}

#[test]
fn write_all_leased_honors_lease() {
    let s = Space::new("t");
    let ids = s
        .write_all_leased((0..3).map(task).collect(), Lease::for_millis(100))
        .unwrap();
    assert_eq!(ids.len(), 3);
    assert_eq!(s.len(), 3);
    thread::sleep(Duration::from_millis(150));
    assert_eq!(s.len(), 0);
    assert!(s
        .take_if_exists(&Template::of_type("task"))
        .unwrap()
        .is_none());
}

#[test]
fn take_up_to_caps_at_max() {
    let s = Space::new("t");
    s.write_all((0..10).map(task).collect()).unwrap();
    let got = s
        .take_up_to(&Template::of_type("task"), 3, Some(Duration::ZERO))
        .unwrap();
    assert_eq!(got.len(), 3);
    assert_eq!(s.len(), 7);
    let none = s
        .take_up_to(&Template::of_type("task"), 0, Some(Duration::ZERO))
        .unwrap();
    assert!(none.is_empty());
}

#[test]
fn take_up_to_counts_a_miss_only_when_nothing_is_returned() {
    let s = Space::new("t");
    s.write_all((0..3).map(task).collect()).unwrap();
    let tmpl = Template::of_type("task");
    // A partly filled batch (3 of 10) returned tuples: not a miss.
    let got = s.take_up_to(&tmpl, 10, Some(Duration::ZERO)).unwrap();
    assert_eq!(got.len(), 3);
    assert_eq!(s.stats().takes, 3);
    assert_eq!(s.stats().misses, 0);
    // An empty one is exactly one.
    assert!(s
        .take_up_to(&tmpl, 10, Some(Duration::ZERO))
        .unwrap()
        .is_empty());
    assert_eq!(s.stats().misses, 1);
}

#[test]
fn take_up_to_timeout_empty() {
    let s = Space::new("t");
    let got = s
        .take_up_to(
            &Template::of_type("task"),
            5,
            Some(Duration::from_millis(20)),
        )
        .unwrap();
    assert!(got.is_empty());
}

#[test]
fn stats_track_operations() {
    let s = Space::new("t");
    s.write(task(1)).unwrap();
    s.read_if_exists(&Template::of_type("task")).unwrap();
    s.take_if_exists(&Template::of_type("task")).unwrap();
    s.take_if_exists(&Template::of_type("task")).unwrap();
    let st = s.stats();
    assert_eq!(st.writes, 1);
    assert_eq!(st.reads, 1);
    assert_eq!(st.takes, 1);
    assert_eq!(st.misses, 1);
    assert!(st.bytes_written > 0);
}

#[test]
fn exact_match_lookups_use_the_field_index() {
    let s = Space::new("t");
    for i in 0..100 {
        s.write(task(i)).unwrap();
    }
    let tmpl = Template::build("task").eq("id", 99i64).done();
    let got = s.read_if_exists(&tmpl).unwrap().unwrap();
    assert_eq!(got.get_int("id"), Some(99));
    assert_eq!(s.stats().index_hits, 1);
    // A type-only scan cannot use the index.
    s.take_if_exists(&Template::of_type("task"))
        .unwrap()
        .unwrap();
    assert_eq!(s.stats().index_misses, 1);
}

#[test]
fn index_stays_consistent_across_take_and_rewrite() {
    let s = Space::new("t");
    let tmpl = |i: i64| Template::build("task").eq("id", i).done();
    s.write(task(1)).unwrap();
    s.write(task(1)).unwrap();
    s.write(task(2)).unwrap();
    // Two entries share the value; FIFO picks the older one first.
    let a = s.take_if_exists(&tmpl(1)).unwrap().unwrap();
    assert_eq!(a.get_int("id"), Some(1));
    assert!(s.take_if_exists(&tmpl(1)).unwrap().is_some());
    assert!(s.take_if_exists(&tmpl(1)).unwrap().is_none());
    // The id=2 entry is untouched and still indexed.
    assert!(s.read_if_exists(&tmpl(2)).unwrap().is_some());
    // Rewriting a taken value re-indexes it.
    s.write(task(1)).unwrap();
    assert!(s.take_if_exists(&tmpl(1)).unwrap().is_some());
}

#[test]
fn indexed_lookup_respects_txn_locks() {
    let s = Space::new("t");
    s.write(task(3)).unwrap();
    let tmpl = Template::build("task").eq("id", 3i64).done();
    let txn = s.txn().unwrap();
    txn.take_if_exists(&tmpl).unwrap().unwrap();
    // Index still knows the entry, but visibility must hide it.
    assert!(s.read_if_exists(&tmpl).unwrap().is_none());
    assert!(s.take_if_exists(&tmpl).unwrap().is_none());
    txn.abort().unwrap();
    assert!(s.take_if_exists(&tmpl).unwrap().is_some());
}

/// The fields the `task` shard indexes.
fn demanded(s: &Space) -> Vec<String> {
    let shard = s.existing_shard("task").expect("task shard");
    let state = shard.state.lock();
    state
        .index
        .demanded()
        .into_iter()
        .map(str::to_owned)
        .collect()
}

#[test]
fn the_index_holds_only_the_fields_probes_name() {
    let kinded = |id: i64| {
        Tuple::build("task")
            .field("id", id)
            .field("kind", "k")
            .done()
    };
    let s = Space::new("t");
    for i in 0..10 {
        s.write(kinded(i)).unwrap();
    }
    // Writes alone index nothing.
    assert!(demanded(&s).is_empty());
    // The first probe of a field back-fills it from the stored entries,
    // in FIFO order.
    let by_kind = Template::build("task").eq("kind", "k").done();
    assert_eq!(
        s.take_if_exists(&by_kind).unwrap().unwrap().get_int("id"),
        Some(0)
    );
    assert_eq!(demanded(&s), ["kind"]);
    // Later writes and removals keep it current; other fields stay out.
    s.write(kinded(10)).unwrap();
    let ids: Vec<i64> = s
        .take_all(&by_kind)
        .unwrap()
        .iter()
        .map(|t| t.get_int("id").unwrap())
        .collect();
    assert_eq!(ids, (1..=10).collect::<Vec<_>>());
    assert_eq!(demanded(&s), ["kind"]);
    // A probe of a field no stored shape has creates no index state.
    s.write(kinded(11)).unwrap();
    let absent = Template::build("task").eq("owner", "w1").done();
    assert!(s.read_if_exists(&absent).unwrap().is_none());
    assert_eq!(demanded(&s), ["kind"]);
    let by_id = Template::build("task").eq("id", 11i64).done();
    assert!(s.read_if_exists(&by_id).unwrap().is_some());
    assert_eq!(demanded(&s), ["kind", "id"]);
}

#[test]
fn type_wildcard_template_scans_all_types() {
    let s = Space::new("t");
    s.write(Tuple::build("alpha").field("x", 1i64).done())
        .unwrap();
    s.write(Tuple::build("beta").field("x", 1i64).done())
        .unwrap();
    let all = s
        .read_all(&Template::any_type().eq("x", 1i64).done())
        .unwrap();
    assert_eq!(all.len(), 2);
}

fn durable_dir(label: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("acc-space-{}-{label}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_space_recovers_writes_and_takes() {
    let dir = durable_dir("roundtrip");
    {
        let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
        assert!(s.is_durable());
        for i in 0..10 {
            s.write(task(i)).unwrap();
        }
        for _ in 0..3 {
            s.take_if_exists(&Template::of_type("task")).unwrap();
        }
        // An indexed take removes an entry that is not at the FIFO head.
        s.write(task(99)).unwrap();
        let victim = Template::build("task").eq("id", 99i64).done();
        assert!(s.take_if_exists(&victim).unwrap().is_some());
        // No clean shutdown: recovery must work from the raw files.
    }
    let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
    let ids: Vec<i64> = r
        .dump()
        .into_iter()
        .map(|(_, t)| t.get_int("id").unwrap())
        .collect();
    assert_eq!(ids, vec![3, 4, 5, 6, 7, 8, 9]);
    // FIFO order and id allocation continue where they left off.
    let got = r.take_if_exists(&Template::of_type("task")).unwrap();
    assert_eq!(got.unwrap().get_int("id"), Some(3));
    let fresh = r.write(task(100)).unwrap();
    assert!(fresh > 11, "recovered id counter must not reuse ids");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lease_expired_during_downtime_is_not_resurrected() {
    let dir = durable_dir("lease");
    {
        let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
        s.write_leased(task(1), Lease::for_millis(30)).unwrap();
        s.write(task(2)).unwrap();
    }
    // The lease runs out while no process has the space open.
    thread::sleep(Duration::from_millis(60));
    let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
    let ids: Vec<i64> = r
        .dump()
        .into_iter()
        .map(|(_, t)| t.get_int("id").unwrap())
        .collect();
    assert_eq!(ids, vec![2], "expired entry must stay dead after replay");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn renewed_lease_survives_recovery() {
    let dir = durable_dir("renew");
    {
        let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
        let id = s.write_leased(task(1), Lease::for_millis(30)).unwrap();
        s.renew_lease(id, Lease::for_millis(60_000)).unwrap();
    }
    thread::sleep(Duration::from_millis(60));
    let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
    assert_eq!(r.dump().len(), 1, "renewal must be replayed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_txn_survives_recovery_uncommitted_does_not() {
    let dir = durable_dir("txn");
    {
        let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
        s.write(task(0)).unwrap();
        let committed = s.txn().unwrap();
        committed.write(task(1)).unwrap();
        committed
            .take_if_exists(&Template::build("task").eq("id", 0i64).done())
            .unwrap()
            .unwrap();
        committed.commit().unwrap();
        // This transaction is still open at "crash" time.
        let open = s.txn().unwrap();
        open.write(task(2)).unwrap();
        std::mem::forget(open);
    }
    let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
    let ids: Vec<i64> = r
        .dump()
        .into_iter()
        .map(|(_, t)| t.get_int("id").unwrap())
        .collect();
    assert_eq!(
        ids,
        vec![1],
        "commit is atomic: its write landed, its take landed, \
         and the uncommitted write vanished"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_compacts_and_recovery_uses_snapshot_plus_tail() {
    let dir = durable_dir("ckpt");
    {
        let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
        for i in 0..20 {
            s.write(task(i)).unwrap();
        }
        for _ in 0..5 {
            s.take_if_exists(&Template::of_type("task")).unwrap();
        }
        let cut = s.checkpoint().unwrap();
        assert_eq!(cut, 25);
        // Ops after the checkpoint live only in the WAL tail.
        s.write(task(100)).unwrap();
        s.take_if_exists(&Template::of_type("task")).unwrap();
    }
    let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
    let ids: Vec<i64> = r
        .dump()
        .into_iter()
        .map(|(_, t)| t.get_int("id").unwrap())
        .collect();
    let expected: Vec<i64> = (6..20).chain([100]).collect();
    assert_eq!(ids, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_on_plain_space_is_a_storage_error() {
    let s = Space::new("plain");
    assert!(!s.is_durable());
    assert!(matches!(s.checkpoint(), Err(SpaceError::Storage(_))));
    assert_eq!(s.flush_journal(), Ok(()));
}

#[test]
fn durable_batch_writes_recover_in_order() {
    let dir = durable_dir("batch");
    {
        let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
        s.write_all((0..8).map(task).collect()).unwrap();
    }
    let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
    for i in 0..8 {
        let got = r
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .unwrap();
        assert_eq!(got.get_int("id"), Some(i));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distinct_types_do_not_contend_for_wakeups() {
    // One taker per type; each write must wake (at most) its own
    // type's waiter and every taker must still drain its own queue.
    let s = Space::new("t");
    let types = 4;
    let per = 16;
    let mut handles = Vec::new();
    for t in 0..types {
        let s2 = s.clone();
        handles.push(thread::spawn(move || {
            let tmpl = Template::of_type(format!("ty{t}"));
            let mut got = 0;
            for _ in 0..per {
                s2.take(&tmpl, Some(Duration::from_secs(5)))
                    .unwrap()
                    .unwrap();
                got += 1;
            }
            got
        }));
    }
    for i in 0..per {
        for t in 0..types {
            s.write(Tuple::build(format!("ty{t}")).field("n", i as i64).done())
                .unwrap();
        }
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), per);
    }
    assert_eq!(s.len(), 0);
}
