//! A refill's unowned results land on the client's home shard: no reroute
//! is counted for them, and losing the home moves the refills to the next
//! shard without losing or doubling a tuple.
//!
//! The `grid.*` counters are process-wide, so this binary holds only tests
//! that do not reroute.

use std::collections::BTreeSet;
use std::time::Duration;

use acc_spacegrid::PartitionedSpace;
use acc_tuplespace::{
    Batch, BatchTxn, Space, SpaceHandle, SpaceServer, Template, Tuple, TupleStore,
};

fn task(id: i64) -> Tuple {
    Tuple::build("acc.task")
        .field("job", "grid")
        .field("task_id", id)
        .done()
}

fn result(id: i64) -> Tuple {
    Tuple::build("acc.result").field("task_id", id).done()
}

fn tasks() -> Template {
    Template::build("acc.task").eq("job", "grid").done()
}

fn grid_of(shards: usize) -> (Vec<SpaceHandle>, Vec<SpaceServer>, PartitionedSpace) {
    let spaces: Vec<_> = (0..shards)
        .map(|i| Space::new(format!("shard-{i}")))
        .collect();
    let servers: Vec<_> = spaces
        .iter()
        .map(|s| SpaceServer::spawn(s.clone(), "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let grid = PartitionedSpace::connect(&addrs).unwrap();
    (spaces, servers, grid)
}

/// A batch handing `tuples` back bare, as a multi-shard grid's are.
fn bare(tuples: Vec<Tuple>) -> Batch {
    Batch {
        txn: BatchTxn::default(),
        tuples,
    }
}

fn counter(name: &'static str) -> u64 {
    acc_telemetry::registry().counter(name).get()
}

#[test]
fn refills_on_a_healthy_spread_grid_count_no_reroute() {
    let (_spaces, _servers, grid) = grid_of(4);
    grid.write_all((0..400).map(task).collect()).unwrap();
    let before = counter("grid.rerouted_writes");
    let mut taken = 0;
    for refill in 0..100 {
        let (written, took) = grid.take_batch(
            bare((4 * refill..4 * refill + 4).map(result).collect()),
            &tasks(),
            4,
            Some(Duration::ZERO),
        );
        assert_eq!(written, Ok(()));
        taken += took.unwrap().tuples.len();
    }
    assert_eq!(taken, 400);
    assert_eq!(grid.count(&tasks()).unwrap(), 0);
    assert_eq!(counter("grid.rerouted_writes"), before);
    assert_eq!(grid.healthy_count(), 4);
}

#[test]
fn losing_the_home_mid_series_writes_every_result_once() {
    let (spaces, mut servers, grid) = grid_of(4);
    grid.write_all((0..200).map(task).collect()).unwrap();
    let results = Template::of_type("acc.result");
    let shards_with_results = |ids: std::ops::Range<i64>| -> BTreeSet<usize> {
        (0..spaces.len())
            .filter(|&s| {
                ids.clone().any(|id| {
                    let point = Template::build("acc.result").eq("task_id", id).done();
                    spaces[s].count(&point) > 0
                })
            })
            .collect()
    };
    let mut taken = BTreeSet::new();
    let mut home = None;
    for refill in 0..20i64 {
        let ids = 4 * refill..4 * refill + 4;
        if refill == 5 {
            drop(servers.remove(home.unwrap()));
        }
        let (written, took) = grid.take_batch(
            bare(ids.clone().map(result).collect()),
            &tasks(),
            4,
            Some(Duration::ZERO),
        );
        assert_eq!(written, Ok(()), "refill {refill}");
        for t in took.unwrap().tuples {
            assert!(taken.insert(t.get_int("task_id").unwrap()), "taken twice");
        }
        let on = shards_with_results(ids);
        assert_eq!(on.len(), 1, "refill {refill}'s results on one shard");
        let now = on.into_iter().next();
        match refill {
            0 => home = now,
            5.. => assert_ne!(now, home, "the home moved off the dead shard"),
            _ => {}
        }
    }
    assert_eq!(grid.healthy_count(), 3);
    let mut written = Vec::new();
    for space in &spaces {
        written.extend(space.take_all(&results).unwrap());
    }
    let ids: Vec<i64> = written
        .iter()
        .map(|t| t.get_int("task_id").unwrap())
        .collect();
    let unique: BTreeSet<i64> = ids.iter().copied().collect();
    assert_eq!((ids.len(), unique.len()), (80, 80), "every result once");
    let left: usize = spaces.iter().map(|s| s.count(&tasks())).sum();
    assert_eq!(taken.len() + left, 200, "tasks taken plus tasks left");
}
