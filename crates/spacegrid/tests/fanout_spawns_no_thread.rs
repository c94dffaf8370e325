//! Batch operations on a multi-shard grid fan out from the calling thread:
//! no helper thread is spawned per shard per call.
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

use std::time::Duration;

use acc_spacegrid::PartitionedSpace;
use acc_tuplespace::{Space, SpaceServer, Template, Tuple, TupleStore};

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

    // One round: a batch write that reaches every shard, non-blocking
    // batch takes that sweep every shard, and a drain.
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
        assert_eq!(grid.take_all(&template).unwrap().len(), 48);
    };
    // Warm-up: connections accepted, server threads up, every shard used.
    round();
    assert!(spaces.iter().all(|s| s.stats().writes > 0));

    let quiet = (0..200).any(|_| {
        let before = last_allocated_pid();
        round();
        last_allocated_pid() == before
    });
    assert!(
        quiet,
        "every one of 200 rounds of batch operations saw a thread or process \
         created: the grid's fan-out is spawning helpers again"
    );
}
