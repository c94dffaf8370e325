//! A multi-shard refill is one exchange per shard: each shard it touches
//! gets its results and its share of the take as one pipelined pair.
//!
//! The per-shard op counts of `fanout_profile()` are process-wide, so this
//! binary holds ONE `#[test]`: a sibling test's grid would count into the
//! same shard indices.

use std::time::Duration;

use acc_spacegrid::{route_tuple, PartitionedSpace};
use acc_tuplespace::{Space, SpaceServer, Template, Tuple, TupleStore};

fn task(id: i64) -> Tuple {
    Tuple::build("acc.task")
        .field("job", "grid")
        .field("task_id", id)
        .done()
}

#[test]
fn a_four_shard_refill_is_one_op_per_shard() {
    let spaces: Vec<_> = (0..4).map(|i| Space::new(format!("shard-{i}"))).collect();
    let servers: Vec<_> = spaces
        .iter()
        .map(|s| SpaceServer::spawn(s.clone(), "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let grid = PartitionedSpace::connect(&addrs).unwrap();
    let template = Template::build("acc.task").eq("job", "grid").done();
    grid.write_all((0..64).map(task).collect()).unwrap();
    assert!(spaces.iter().all(|s| s.len() >= 2), "tasks on every shard");
    // One result owned by each shard, so every shard gets a pair.
    let results: Vec<Tuple> = (0..4)
        .map(|s| {
            (0..)
                .map(|id: i64| Tuple::build("acc.result").field("task_id", id).done())
                .find(|t| route_tuple(t, &[], 4) == s)
                .unwrap()
        })
        .collect();

    let held: Vec<usize> = spaces.iter().map(|s| s.len()).collect();
    let before = grid.fanout_profile();
    let (written, taken) =
        grid.write_all_then_take_up_to(results, &template, 8, Some(Duration::from_secs(5)));
    let ops: Vec<u64> = grid.fanout_since(&before).iter().map(|s| s.ops).collect();

    assert_eq!(written.unwrap().len(), 4);
    assert_eq!(taken.unwrap().len(), 8);
    let now: Vec<usize> = spaces.iter().map(|s| s.len() + 1).collect();
    assert_eq!(now, held, "one result in and two tasks out, on each shard");
    // The write fan-out followed by the take fan-out was two per shard.
    assert_eq!(ops, [1, 1, 1, 1], "shard ops of one refill");
}
