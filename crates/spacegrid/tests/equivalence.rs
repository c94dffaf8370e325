//! A one-shard grid is observationally a plain remote space.
//!
//! The grid's whole contract is "the `TupleStore` you already had, only
//! partitioned" — so with the partition count at 1 there must be no
//! observable difference from talking to the single server directly.
//! The property test drives the same random operation sequence (the
//! tuple/template strategies mirror the wire-protocol codec props) into
//! both clients and compares every result.

use std::time::Duration;

use acc_spacegrid::PartitionedSpace;
use acc_tuplespace::{
    RemoteSpace, Space, SpaceHandle, SpaceServer, Template, Tuple, TupleStore, Value,
};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // Arbitrary bit patterns: NaN payloads must behave identically
        // through the grid too (Value compares bitwise).
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z0-9 ]{0,16}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::from),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (
        // A narrow name space so templates actually hit tuples.
        "[ab]{1,2}",
        proptest::collection::btree_map("[mn]{1,2}", arb_value(), 0..4),
    )
        .prop_map(|(ty, fields)| {
            let mut builder = Tuple::build(ty.as_str());
            for (name, value) in fields {
                builder = builder.field(name, value);
            }
            builder.done()
        })
}

fn arb_template() -> impl Strategy<Value = Template> {
    (
        "[ab]{1,2}",
        proptest::collection::btree_map("[mn]{1,2}", -3i64..3, 0..3),
    )
        .prop_map(|(ty, fields)| {
            let mut builder = Template::build(ty.as_str());
            for (name, value) in fields {
                builder = builder.eq(name, value);
            }
            builder.done()
        })
}

/// One step of the observable-behaviour script.
#[derive(Debug, Clone)]
enum Op {
    Write(Tuple),
    WriteAll(Vec<Tuple>),
    ReadIfExists(Template),
    TakeIfExists(Template),
    TakeUpTo(Template, usize),
    TakeAll(Template),
    Count(Template),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_tuple().prop_map(Op::Write),
        proptest::collection::vec(arb_tuple(), 0..5).prop_map(Op::WriteAll),
        arb_template().prop_map(Op::ReadIfExists),
        arb_template().prop_map(Op::TakeIfExists),
        (arb_template(), 0usize..6).prop_map(|(t, max)| Op::TakeUpTo(t, max)),
        arb_template().prop_map(Op::TakeAll),
        arb_template().prop_map(Op::Count),
    ]
}

/// Applies one op to any store and renders the observable outcome.
/// Entry ids are deliberately *not* part of the observation: they are
/// handles, not contents, and two fresh spaces may number differently.
fn apply(store: &dyn TupleStore, op: &Op) -> String {
    match op {
        Op::Write(t) => format!("write {:?}", store.write(t.clone()).is_ok()),
        Op::WriteAll(ts) => format!(
            "write_all {:?}",
            store.write_all(ts.clone()).map(|ids| ids.len())
        ),
        Op::ReadIfExists(t) => format!("read {:?}", store.read_if_exists(t)),
        Op::TakeIfExists(t) => format!("take {:?}", store.take_if_exists(t)),
        Op::TakeUpTo(t, max) => format!(
            "take_up_to {:?}",
            store.take_up_to(t, *max, Some(Duration::ZERO))
        ),
        Op::TakeAll(t) => format!("take_all {:?}", store.take_all(t)),
        Op::Count(t) => format!("count {:?}", store.count(t)),
    }
}

fn serve(name: &str) -> (SpaceHandle, SpaceServer) {
    let space = Space::new(name);
    let server = SpaceServer::spawn(space.clone(), "127.0.0.1:0").unwrap();
    (space, server)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_shard_grid_is_observationally_a_remote_space(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let (_plain_space, plain_server) = serve("plain");
        let (_shard_space, shard_server) = serve("shard");
        let plain = RemoteSpace::connect(plain_server.addr()).unwrap();
        let grid = PartitionedSpace::connect(&[shard_server.addr()]).unwrap();
        for (step, op) in ops.iter().enumerate() {
            let direct = apply(&plain, op);
            let through_grid = apply(&grid, op);
            prop_assert_eq!(
                &direct, &through_grid,
                "step {} diverged on {:?}", step, op
            );
        }
        // Closing behaves identically too.
        plain.close();
        grid.close();
        prop_assert!(plain.is_closed());
        prop_assert!(grid.is_closed());
    }
}
