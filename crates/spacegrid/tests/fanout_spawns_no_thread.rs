//! Batch operations on a multi-shard grid fan out from the calling thread,
//! and blocking lookups wait from it: no helper thread is spawned per shard
//! per call.
//!
//! A thread that is spawned and joined inside the call leaves no trace in
//! the process's thread count, so the test watches the kernel's id
//! allocator instead: `/proc/loadavg` ends with the most recently
//! allocated pid, and thread ids come from the same counter. If that
//! number is the same before and after a round of batch operations, nothing
//! on the whole system — this process's grid client and its four in-process
//! servers included — created a thread in between. Another process may of
//! course create one at any moment, which proves nothing either way, so a
//! round only has to come out quiet once; a fan-out that spawns helpers
//! moves the counter on *every* round.
//!
//! ONE `#[test]` in this binary, so no sibling test spawns threads.

#![cfg(target_os = "linux")]

use std::sync::mpsc;
use std::time::Duration;

use acc_spacegrid::PartitionedSpace;
use acc_tuplespace::{
    Batch, BatchTxn, Space, SpaceHandle, SpaceServer, Template, Tuple, TupleStore,
};

fn last_allocated_pid() -> u64 {
    let loadavg = std::fs::read_to_string("/proc/loadavg").expect("read /proc/loadavg");
    loadavg
        .split_whitespace()
        .last()
        .and_then(|pid| pid.parse().ok())
        .expect("/proc/loadavg ends with the last allocated pid")
}

fn task(id: i64) -> Tuple {
    Tuple::build("acc.task")
        .field("job", "grid")
        .field("task_id", id)
        .done()
}

/// What the waker does for one blocking case: once shard `waited` has
/// parked a lookup more than `parked_before` times, write `tuple` straight
/// into shard `to`.
struct Wake {
    waited: usize,
    parked_before: u64,
    to: usize,
    tuple: Tuple,
}

/// The waker: one thread for the whole test, spawned before any pid is
/// read, which writes each [`Wake`]'s tuple once the grid's wait has
/// parked on its shard.
fn spawn_waker(spaces: Vec<SpaceHandle>) -> mpsc::Sender<Wake> {
    let (tx, rx) = mpsc::channel::<Wake>();
    std::thread::spawn(move || {
        for wake in rx {
            while spaces[wake.waited].stats().blocked_waits <= wake.parked_before {
                std::thread::sleep(Duration::from_micros(100));
            }
            spaces[wake.to].write(wake.tuple).unwrap();
        }
    });
    tx
}

#[test]
fn batch_ops_on_a_four_shard_grid_spawn_no_thread() {
    let spaces: Vec<_> = (0..4).map(|i| Space::new(format!("shard-{i}"))).collect();
    let servers: Vec<_> = spaces
        .iter()
        .map(|s| SpaceServer::spawn(s.clone(), "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let grid = PartitionedSpace::connect(&addrs).unwrap();
    let template = Template::build("acc.task").eq("job", "grid").done();
    let result_template = Template::of_type("acc.result");
    let results = || {
        (0..4)
            .map(|id: i64| Tuple::build("acc.result").field("task_id", id).done())
            .collect()
    };

    // One round: a batch write that reaches every shard, non-blocking
    // batch takes that sweep every shard, a refill that finds tasks, a
    // batch take topped up from the one shard that has more, and drains.
    let round = || {
        let ids = grid.write_all((0..64).map(task).collect()).unwrap();
        assert_eq!(ids.len(), 64);
        let some = grid
            .take_up_to(&template, 10, Some(Duration::ZERO))
            .unwrap();
        assert_eq!(some.len(), 10);
        // A batch take that finds tuples never reaches the blocking
        // scatter, whatever its timeout.
        let more = grid
            .take_up_to(&template, 6, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(more.len(), 6);
        // A worker's refill: results out and tasks in, one pair on its home.
        let done = Batch {
            txn: BatchTxn::default(),
            tuples: results(),
        };
        let (written, taken) = grid.take_batch(done, &template, 8, Some(Duration::from_secs(5)));
        assert_eq!(written, Ok(()));
        assert_eq!(taken.unwrap().tuples.len(), 8);
        assert_eq!(grid.take_all(&template).unwrap().len(), 40);
        assert_eq!(grid.take_all(&result_template).unwrap().len(), 4);
        // Quotas of 1 on every shard, and only shard 0 answers in full.
        for id in 0..8 {
            spaces[0].write(task(id)).unwrap();
        }
        let topped_up = grid.take_up_to(&template, 4, Some(Duration::ZERO)).unwrap();
        assert_eq!(topped_up.len(), 4);
        assert_eq!(grid.take_all(&template).unwrap().len(), 4);
    };
    let waker = spawn_waker(spaces.clone());
    let marker = Template::of_type("acc.marker");
    let wait = Some(Duration::from_secs(30));
    // One round of the blocking lookups, each on a dry grid: the waited
    // shard is set by a match there, and the tuple that wakes the lookup
    // is written to the next shard once the wait has parked.
    let blocking_round = || {
        for (case, waited) in (0..4usize).enumerate() {
            spaces[waited]
                .write(Tuple::build("acc.marker").done())
                .unwrap();
            assert!(grid.take(&marker, Some(Duration::ZERO)).unwrap().is_some());
            waker
                .send(Wake {
                    waited,
                    parked_before: spaces[waited].stats().blocked_waits,
                    to: (waited + 1) % 4,
                    tuple: task(100 + case as i64),
                })
                .unwrap();
            let got: Vec<Tuple> = match case {
                0 => grid.take(&template, wait).unwrap().into_iter().collect(),
                1 => {
                    let read = grid.read(&template, wait).unwrap();
                    assert_eq!(grid.take_all(&template).unwrap().len(), 1);
                    read.into_iter().collect()
                }
                2 => grid.take_up_to(&template, 8, wait).unwrap(),
                _ => {
                    let done = Batch {
                        txn: BatchTxn::default(),
                        tuples: results(),
                    };
                    let (written, taken) = grid.take_batch(done, &template, 8, wait);
                    assert_eq!(written, Ok(()));
                    assert_eq!(grid.take_all(&result_template).unwrap().len(), 4);
                    taken.unwrap().tuples
                }
            };
            assert_eq!(got, [task(100 + case as i64)], "blocking case {case}");
        }
        assert_eq!(grid.count(&template).unwrap(), 0);
    };
    // Warm-up: connections accepted, server threads up, every shard used.
    round();
    blocking_round();
    assert!(spaces.iter().all(|s| s.stats().writes > 0));

    let quiet = (0..200).any(|_| {
        let before = last_allocated_pid();
        round();
        blocking_round();
        last_allocated_pid() == before
    });
    assert!(
        quiet,
        "every one of 200 rounds of batch operations and blocking lookups saw \
         a thread or process created: the grid is spawning helpers again"
    );
}
