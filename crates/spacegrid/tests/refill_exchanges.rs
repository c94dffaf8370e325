//! A multi-shard refill goes to one shard: its results and its whole take
//! are one pipelined pair on the client's home shard, and the other shards
//! are asked only for what the home lacks, in one more fan-out.
//!
//! The per-shard op counts of `fanout_profile()` are process-wide, so this
//! binary holds ONE `#[test]`: a sibling test's grid would count into the
//! same shard indices.

use std::time::Duration;

use acc_spacegrid::PartitionedSpace;
use acc_tuplespace::{Batch, BatchTxn, Space, SpaceServer, Template, Tuple, TupleStore};

fn task(id: i64) -> Tuple {
    Tuple::build("acc.task")
        .field("job", "grid")
        .field("task_id", id)
        .done()
}

/// A batch handing `tuples` back bare, as a multi-shard grid's are.
fn bare(tuples: Vec<Tuple>) -> Batch {
    Batch {
        txn: BatchTxn::default(),
        tuples,
    }
}

fn results(ids: std::ops::Range<i64>) -> Vec<Tuple> {
    ids.map(|id| Tuple::build("acc.result").field("task_id", id).done())
        .collect()
}

#[test]
fn a_four_shard_refill_is_one_op_on_its_home_shard() {
    let spaces: Vec<_> = (0..4).map(|i| Space::new(format!("shard-{i}"))).collect();
    let servers: Vec<_> = spaces
        .iter()
        .map(|s| SpaceServer::spawn(s.clone(), "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let grid = PartitionedSpace::connect(&addrs).unwrap();
    let template = Template::build("acc.task").eq("job", "grid").done();
    let result_template = Template::of_type("acc.result");
    grid.write_all((0..64).map(task).collect()).unwrap();
    assert!(spaces.iter().all(|s| s.len() >= 4), "tasks on every shard");
    let refill = |ids| {
        let before = grid.fanout_profile();
        let (written, taken) = grid.take_batch(
            bare(results(ids)),
            &template,
            4,
            Some(Duration::from_secs(5)),
        );
        assert_eq!(written, Ok(()));
        assert_eq!(taken.unwrap().tuples.len(), 4);
        let ops: Vec<u64> = grid.fanout_since(&before).iter().map(|s| s.ops).collect();
        ops
    };
    let results_on = |shard: usize| spaces[shard].count(&result_template);

    // Steady state: one op in total, and every result lands on that shard.
    let ops = refill(0..4);
    assert_eq!(
        ops.iter().sum::<u64>(),
        1,
        "shard ops of one refill: {ops:?}"
    );
    let home = ops.iter().position(|&n| n == 1).unwrap();
    assert_eq!(results_on(home), 4, "the results ride the take to the home");

    // A home with no task left answers short: its pair, then one top-up
    // fan-out over the other three shards.
    assert!(!spaces[home].take_all(&template).unwrap().is_empty());
    let ops = refill(4..8);
    assert_eq!(
        ops,
        [1, 1, 1, 1],
        "the home's pair and a top-up of the rest"
    );
    assert_eq!(results_on(home), 8);

    // The home has moved on: one op again, on another shard.
    let ops = refill(8..12);
    assert_eq!(ops.iter().sum::<u64>(), 1, "after the move: {ops:?}");
    assert_eq!(ops[home], 0);

    // The master's drain asks more than any shard holds: one op per shard,
    // every shard exhausted, so no top-up.
    let left = grid.count(&template).unwrap();
    let before = grid.fanout_profile();
    let drained = grid
        .take_up_to(&template, 256, Some(Duration::ZERO))
        .unwrap();
    let ops: Vec<u64> = grid.fanout_since(&before).iter().map(|s| s.ops).collect();
    assert_eq!(drained.len(), left);
    assert_eq!(ops, [1, 1, 1, 1], "a drain that no shard fills");
}
