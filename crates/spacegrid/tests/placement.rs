//! Writes go round the healthy shards: a batch splits evenly over them,
//! and a shard that fails under a batch has its share redone on the
//! survivors, each redone tuple counted in `grid.rerouted_writes`.
//!
//! The `grid.*` counters are process-wide, so this binary holds one test.

use acc_spacegrid::PartitionedSpace;
use acc_tuplespace::{Space, SpaceServer, Template, Tuple, TupleStore};

fn task(id: i64) -> Tuple {
    Tuple::build("acc.task")
        .field("job", "grid")
        .field("task_id", id)
        .done()
}

fn rerouted() -> u64 {
    acc_telemetry::registry()
        .counter("grid.rerouted_writes")
        .get()
}

/// Asserts every shard named in `on` holds ⌊n/k⌋ or ⌈n/k⌉ of `n`.
fn assert_even(held: &[usize], on: &[usize], n: usize) {
    let k = on.len();
    for &s in on {
        assert!(
            (n / k..=n.div_ceil(k)).contains(&held[s]),
            "{n} over {k} shards: {held:?}"
        );
    }
}

#[test]
fn a_batch_splits_evenly_over_the_healthy_shards_and_a_dead_ones_share_is_redone() {
    let spaces: Vec<_> = (0..4).map(|i| Space::new(format!("shard-{i}"))).collect();
    let mut servers: Vec<_> = spaces
        .iter()
        .map(|s| SpaceServer::spawn(s.clone(), "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let grid = PartitionedSpace::connect(&addrs).unwrap();
    let held = || spaces.iter().map(|s| s.len()).collect::<Vec<_>>();

    for n in [1, 7, 40] {
        let before = held();
        grid.write_all((0..n as i64).map(task).collect()).unwrap();
        let added: Vec<usize> = held().iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_even(&added, &[0, 1, 2, 3], n);
    }
    for space in &spaces {
        space.take_all(&Template::of_type("acc.task")).unwrap();
    }

    // The grid learns of the drop from the batch itself: the dead shard's
    // quarter fails and is redone on the other three.
    let dead = 1;
    drop(servers.remove(dead));
    let survivors = [0, 2, 3];
    let before = rerouted();
    let ids = grid.write_all((0..40).map(task).collect()).unwrap();
    assert_eq!(ids.len(), 40);
    assert_eq!(rerouted() - before, 10, "the dead shard's quarter, redone");
    assert_eq!(held()[dead], 0, "nothing landed on the dead shard");
    assert_even(&held(), &survivors, 40);

    // Struck out, it is skipped from the start: nothing more is redone.
    let (before, redone) = (held(), rerouted());
    grid.write_all((40..70).map(task).collect()).unwrap();
    let added: Vec<usize> = held().iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(added[dead], 0);
    assert_even(&added, &survivors, 30);
    assert_eq!(rerouted(), redone);
}
