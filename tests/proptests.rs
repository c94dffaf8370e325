//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use adaptive_spaces::apps::prefetch::{LinkGraph, LruCache, PageRank, StochasticMatrix};
use adaptive_spaces::framework::{Signal, WorkerState};
use adaptive_spaces::snmp::codec::{decode_message, encode_message};
use adaptive_spaces::snmp::{ErrorStatus, Message, Oid, Pdu, PduType, SnmpValue};
use adaptive_spaces::space::{
    decode_frame, Bytes, Lease, NameInterner, Payload, Shape, Space, Template, Tuple, Value,
    WalOptions, WireReader, WireWriter,
};

// ---------------------------------------------------------------------
// Tuple space: model-based conservation of entries.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Write(i64),
    Take,
    TakeSpecific(i64),
    Read,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..20).prop_map(Op::Write),
        Just(Op::Take),
        (0i64..20).prop_map(Op::TakeSpecific),
        Just(Op::Read),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn space_conserves_entries(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let space = Space::new("prop");
        // Model: multiset of ids currently in the space.
        let mut model: Vec<i64> = Vec::new();
        let all = Template::of_type("t");
        for op in ops {
            match op {
                Op::Write(id) => {
                    space.write(Tuple::build("t").field("id", id).done()).unwrap();
                    model.push(id);
                }
                Op::Take => {
                    let got = space.take_if_exists(&all).unwrap();
                    match got {
                        Some(tuple) => {
                            let id = tuple.get_int("id").unwrap();
                            let pos = model.iter().position(|&m| m == id);
                            prop_assert!(pos.is_some(), "took an id not in the model");
                            model.remove(pos.unwrap());
                        }
                        None => prop_assert!(model.is_empty()),
                    }
                }
                Op::TakeSpecific(id) => {
                    let tmpl = Template::build("t").eq("id", id).done();
                    let got = space.take_if_exists(&tmpl).unwrap();
                    match got {
                        Some(tuple) => {
                            prop_assert_eq!(tuple.get_int("id"), Some(id));
                            let pos = model.iter().position(|&m| m == id);
                            prop_assert!(pos.is_some());
                            model.remove(pos.unwrap());
                        }
                        None => prop_assert!(!model.contains(&id)),
                    }
                }
                Op::Read => {
                    let got = space.read_if_exists(&all).unwrap();
                    prop_assert_eq!(got.is_some(), !model.is_empty());
                }
            }
            prop_assert_eq!(space.len(), model.len());
        }
    }

    #[test]
    fn txn_abort_is_a_no_op(
        ids in proptest::collection::vec(0i64..50, 1..30),
        take_count in 0usize..10,
        write_count in 0usize..10,
    ) {
        let space = Space::new("prop");
        for &id in &ids {
            space.write(Tuple::build("t").field("id", id).done()).unwrap();
        }
        let before: usize = space.len();
        let txn = space.txn().unwrap();
        for _ in 0..take_count {
            let _ = txn.take_if_exists(&Template::of_type("t")).unwrap();
        }
        for i in 0..write_count {
            txn.write(Tuple::build("t").field("id", 1000 + i as i64).done()).unwrap();
        }
        txn.abort().unwrap();
        prop_assert_eq!(space.len(), before, "abort must restore everything");
    }

    #[test]
    fn template_from_subset_always_matches(
        fields in proptest::collection::btree_map("[a-z]{1,6}", -100i64..100, 1..8),
        subset_mask in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let mut builder = Tuple::build("t");
        for (name, value) in &fields {
            builder = builder.field(name.clone(), *value);
        }
        let tuple = builder.done();
        let mut tmpl = Template::build("t");
        for (i, (name, value)) in fields.iter().enumerate() {
            if *subset_mask.get(i).unwrap_or(&false) {
                tmpl = tmpl.eq(name.clone(), *value);
            }
        }
        prop_assert!(tmpl.done().matches(&tuple));
    }

    #[test]
    fn template_with_extra_field_never_matches(
        fields in proptest::collection::btree_map("[a-z]{1,6}", -100i64..100, 1..8),
    ) {
        let mut builder = Tuple::build("t");
        for (name, value) in &fields {
            builder = builder.field(name.clone(), *value);
        }
        let tuple = builder.done();
        let tmpl = Template::build("t").eq("ZZ_not_a_field", 1i64).done();
        prop_assert!(!tmpl.matches(&tuple));
    }
}

// ---------------------------------------------------------------------
// Durability: snapshot round-trip and crash at a random kill point.
// ---------------------------------------------------------------------

fn prop_dir(label: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("acc-prop-{}-{label}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn leaf_value_strategy() -> impl Strategy<Value = Value> {
    // Arbitrary float bit patterns are fine: Value compares bitwise, so
    // even NaN payloads must round-trip exactly.
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..48).prop_map(Value::from),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        leaf_value_strategy(),
        proptest::collection::vec(leaf_value_strategy(), 0..4).prop_map(Value::List),
    ]
}

fn tuple_strategy() -> impl Strategy<Value = Tuple> {
    proptest::collection::btree_map("[a-z]{1,8}", value_strategy(), 1..6).prop_map(|fields| {
        let mut builder = Tuple::build("prop");
        for (name, value) in fields {
            builder = builder.field(name, value);
        }
        builder.done()
    })
}

/// `None` = forever; `Some(ms)` = a lease comfortably beyond test runtime.
fn lease_strategy() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (60_000u64..600_000).prop_map(Some)]
}

fn entry_strategy() -> impl Strategy<Value = (Tuple, Option<u64>)> {
    lease_strategy().prop_flat_map(|lease| tuple_strategy().prop_map(move |t| (t, lease)))
}

#[derive(Debug, Clone)]
enum DurableOp {
    Write(i64),
    Take,
    TakeSpecific(i64),
    TxnSwap(i64),
    TxnAbort(i64),
}

fn durable_op_strategy() -> impl Strategy<Value = DurableOp> {
    prop_oneof![
        (0i64..20).prop_map(DurableOp::Write),
        Just(DurableOp::Take),
        (0i64..20).prop_map(DurableOp::TakeSpecific),
        (100i64..120).prop_map(DurableOp::TxnSwap),
        (200i64..220).prop_map(DurableOp::TxnAbort),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Arbitrary tuples under arbitrary leases survive snapshot encode →
    // compact → decode byte-identically.
    #[test]
    fn snapshot_roundtrips_arbitrary_tuples(
        entries in proptest::collection::vec(entry_strategy(), 1..16),
    ) {
        let dir = prop_dir("snap");
        let live = {
            let space = Space::durable("prop", &dir, WalOptions::default()).unwrap();
            for (tuple, lease_ms) in &entries {
                let lease = match lease_ms {
                    None => Lease::Forever,
                    Some(ms) => Lease::for_millis(*ms),
                };
                space.write_leased(tuple.clone(), lease).unwrap();
            }
            // Checkpoint so recovery exercises the snapshot codec (the WAL
            // tail past the cut is empty).
            space.checkpoint().unwrap();
            space.dump()
        };
        let recovered = Space::recover(&dir).unwrap().dump();
        prop_assert_eq!(live, recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Run a random op sequence, crash at a random kill point (log
    // truncated at an op boundary or mid-frame), recover: the replayed
    // state equals the live state recorded at that boundary.
    #[test]
    fn crash_at_random_kill_point_recovers_a_recorded_state(
        ops in proptest::collection::vec(durable_op_strategy(), 1..40),
        kill in any::<usize>(),
        torn_extra in 0u64..8,
    ) {
        let dir = prop_dir("crash");
        let all = Template::of_type("t");
        let mut boundaries: Vec<(u64, Vec<(u64, Tuple)>)> = Vec::new();
        {
            let space = Space::durable("prop", &dir, WalOptions::default()).unwrap();
            let wal_len = || {
                std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|e| e.unwrap())
                    .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                    .map(|e| e.metadata().unwrap().len())
                    .sum::<u64>()
            };
            boundaries.push((wal_len(), space.dump()));
            for op in &ops {
                match op {
                    DurableOp::Write(id) => {
                        space.write(Tuple::build("t").field("id", *id).done()).unwrap();
                    }
                    DurableOp::Take => {
                        let _ = space.take_if_exists(&all).unwrap();
                    }
                    DurableOp::TakeSpecific(id) => {
                        let tmpl = Template::build("t").eq("id", *id).done();
                        let _ = space.take_if_exists(&tmpl).unwrap();
                    }
                    DurableOp::TxnSwap(id) => {
                        let txn = space.txn().unwrap();
                        txn.write(Tuple::build("t").field("id", *id).done()).unwrap();
                        let _ = txn.take_if_exists(&all).unwrap();
                        txn.commit().unwrap();
                    }
                    DurableOp::TxnAbort(id) => {
                        let txn = space.txn().unwrap();
                        txn.write(Tuple::build("t").field("id", *id).done()).unwrap();
                        let _ = txn.take_if_exists(&all).unwrap();
                        txn.abort().unwrap();
                    }
                }
                boundaries.push((wal_len(), space.dump()));
            }
        }
        let (len, expected) = &boundaries[kill % boundaries.len()];
        let kill_dir = prop_dir("crash-kill");
        std::fs::create_dir_all(&kill_dir).unwrap();
        let mut segments = Vec::new();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            let copied = kill_dir.join(entry.file_name());
            std::fs::copy(entry.path(), &copied).unwrap();
            if entry.file_name().to_string_lossy().starts_with("wal-") {
                segments.push(copied);
            }
        }
        prop_assert_eq!(segments.len(), 1, "ops stay within one segment");
        // Truncate to the boundary plus up to 7 torn bytes. Every frame is
        // at least 8 bytes (the header alone), so the extra bytes can never
        // amount to a complete later frame — recovery must round down to
        // exactly this boundary's state.
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&segments[0])
            .unwrap();
        let cur = file.metadata().unwrap().len();
        file.set_len((*len + torn_extra).min(cur)).unwrap();
        drop(file);
        let recovered = Space::recover(&kill_dir).unwrap().dump();
        prop_assert_eq!(&recovered, expected, "kill at log length {}", len);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&kill_dir);
    }
}

// ---------------------------------------------------------------------
// SNMP codec.
// ---------------------------------------------------------------------

fn snmp_value_strategy() -> impl Strategy<Value = SnmpValue> {
    prop_oneof![
        any::<i64>().prop_map(SnmpValue::Int),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(SnmpValue::Str),
        proptest::collection::vec(0u32..100_000, 2..8).prop_map(|mut arcs| {
            // First two arcs are constrained by BER encoding.
            arcs[0] %= 3;
            arcs[1] %= 40;
            SnmpValue::Oid(Oid::from_arcs(arcs))
        }),
        Just(SnmpValue::Null),
        any::<u64>().prop_map(SnmpValue::Counter),
        any::<u64>().prop_map(SnmpValue::Gauge),
        any::<u64>().prop_map(SnmpValue::TimeTicks),
        Just(SnmpValue::NoSuchObject),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snmp_messages_roundtrip(
        request_id in any::<i64>(),
        community in "[a-zA-Z0-9]{0,16}",
        values in proptest::collection::vec(snmp_value_strategy(), 0..6),
    ) {
        let msg = Message {
            community,
            pdu_type: PduType::Response,
            pdu: Pdu {
                request_id,
                error_status: ErrorStatus::NoError,
                error_index: 0,
                varbinds: values
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (Oid::from_arcs(vec![1, 3, 6, 1, i as u32 + 1]), v))
                    .collect(),
            },
        };
        let bytes = encode_message(&msg);
        prop_assert_eq!(decode_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn snmp_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_message(&bytes);
    }
}

// ---------------------------------------------------------------------
// Worker state machine.
// ---------------------------------------------------------------------

fn signal_strategy() -> impl Strategy<Value = Signal> {
    prop_oneof![
        Just(Signal::Start),
        Just(Signal::Stop),
        Just(Signal::Pause),
        Just(Signal::Resume),
    ]
}

proptest! {
    #[test]
    fn state_machine_never_reaches_undefined_states(
        signals in proptest::collection::vec(signal_strategy(), 0..64),
    ) {
        let mut state = WorkerState::Stopped;
        let mut loaded = false;
        for signal in signals {
            if let Some(next) = state.apply(signal) {
                // Invariants of Fig. 5.
                match signal {
                    Signal::Start => {
                        prop_assert_eq!(state, WorkerState::Stopped);
                        prop_assert_eq!(next, WorkerState::Running);
                        loaded = true;
                    }
                    Signal::Stop => {
                        prop_assert_eq!(next, WorkerState::Stopped);
                        loaded = false;
                    }
                    Signal::Pause => {
                        prop_assert_eq!(state, WorkerState::Running);
                        prop_assert_eq!(next, WorkerState::Paused);
                        prop_assert!(loaded, "paused implies classes loaded");
                    }
                    Signal::Resume => {
                        prop_assert_eq!(state, WorkerState::Paused);
                        prop_assert_eq!(next, WorkerState::Running);
                        prop_assert!(loaded, "resume must not need class loading");
                    }
                }
                state = next;
            }
        }
        // Whatever happened, Running/Paused imply loaded classes.
        if state != WorkerState::Stopped {
            prop_assert!(loaded);
        }
    }
}

// ---------------------------------------------------------------------
// PageRank and LRU cache invariants.
// ---------------------------------------------------------------------

fn graph_strategy() -> impl Strategy<Value = LinkGraph> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(0u32..n as u32, 0..6), n).prop_map(
            move |mut successors| {
                for (j, succ) in successors.iter_mut().enumerate() {
                    succ.retain(|&s| s as usize != j);
                    succ.sort_unstable();
                    succ.dedup();
                }
                LinkGraph { n, successors }
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pagerank_is_a_probability_distribution(graph in graph_strategy()) {
        let matrix = StochasticMatrix::from_graph(&graph);
        prop_assert!(matrix.is_column_stochastic(1e-9));
        let (ranks, iters) = PageRank::default().compute(&matrix);
        prop_assert!(iters >= 1);
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        prop_assert!(ranks.iter().all(|&r| r > 0.0 && r < 1.0 + 1e-9));
    }

    #[test]
    fn lru_never_exceeds_capacity(
        capacity in 1usize..16,
        requests in proptest::collection::vec(0u32..64, 0..200),
    ) {
        let mut cache = LruCache::new(capacity);
        let mut total = 0u64;
        for page in requests {
            cache.request(page);
            total += 1;
            prop_assert!(cache.hits() + cache.misses() == total);
            // A just-requested page is always resident.
            prop_assert!(cache.contains(page));
        }
        prop_assert!(cache.hit_rate() >= 0.0 && cache.hit_rate() <= 1.0);
    }

    #[test]
    fn lru_immediate_rerequest_hits(page in 0u32..100) {
        let mut cache = LruCache::new(4);
        cache.request(page);
        prop_assert!(cache.request(page), "second request must hit");
    }
}

// ---------------------------------------------------------------------
// TaskTiming wire format: round-trip plus hostile-input robustness.
// ---------------------------------------------------------------------

use adaptive_spaces::cluster::TaskTiming;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn task_timing_round_trips(
        wait_us in any::<u64>(),
        xfer_us in any::<u64>(),
        compute_us in any::<u64>(),
        write_us in any::<u64>(),
    ) {
        let timing = TaskTiming { wait_us, xfer_us, compute_us, write_us };
        let bytes = timing.to_bytes();
        prop_assert_eq!(bytes.len(), 33);
        prop_assert_eq!(TaskTiming::from_bytes(&bytes), Some(timing));
        // Trailing garbage is tolerated (forward compat): the known
        // prefix still decodes to the same value.
        let mut padded = bytes.to_vec();
        padded.extend_from_slice(&[0xAB; 7]);
        prop_assert_eq!(TaskTiming::from_bytes(&padded), Some(timing));
    }

    #[test]
    fn task_timing_rejects_truncation(
        timing_words in proptest::collection::vec(any::<u64>(), 4),
        cut in 0usize..33,
    ) {
        let timing = TaskTiming {
            wait_us: timing_words[0],
            xfer_us: timing_words[1],
            compute_us: timing_words[2],
            write_us: timing_words[3],
        };
        let bytes = timing.to_bytes();
        prop_assert_eq!(TaskTiming::from_bytes(&bytes[..cut]), None);
    }

    #[test]
    fn task_timing_rejects_unknown_version(
        raw_version in 0u8..255,
        body in proptest::collection::vec(any::<u8>(), 32..64),
    ) {
        // Version byte 1 is the only one the decoder understands; any
        // other leading byte must be refused no matter the payload.
        let version = if raw_version == 1 { 255 } else { raw_version };
        let mut bytes = vec![version];
        bytes.extend_from_slice(&body);
        prop_assert_eq!(TaskTiming::from_bytes(&bytes), None);
    }

    #[test]
    fn task_timing_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
        let _ = TaskTiming::from_bytes(&bytes);
    }
}

// ---------------------------------------------------------------------
// Wire decode: the borrowed (zero-copy, interned) decoder must be
// observationally identical to the copying decoder it replaced.
// ---------------------------------------------------------------------

/// Values with genuinely nested lists (lists of lists), on top of the
/// leaf coverage — including non-UTF-8 blobs from `leaf_value_strategy`.
fn deep_value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        value_strategy(),
        proptest::collection::vec(value_strategy(), 0..3).prop_map(Value::List),
    ]
}

fn wire_tuple_strategy() -> impl Strategy<Value = Tuple> {
    (
        "[a-z.]{1,12}",
        proptest::collection::btree_map("[a-z_]{1,8}", deep_value_strategy(), 0..8),
    )
        .prop_map(|(ty, fields)| {
            let mut builder = Tuple::build(ty.as_str());
            for (name, value) in fields {
                builder = builder.field(name, value);
            }
            builder.done()
        })
}

/// The decoder as it was before the zero-copy rework: an owned `String`
/// per name, a copied `Vec<u8>` per blob, no interning. The reference
/// implementation the borrowed decoder is checked against.
fn legacy_copying_decode(frame: Bytes) -> Tuple {
    fn legacy_value(r: &mut WireReader) -> Value {
        match r.get_u8().unwrap() {
            0 => Value::Int(r.get_i64().unwrap()),
            1 => Value::Float(r.get_f64().unwrap()),
            2 => Value::Bool(r.get_bool().unwrap()),
            3 => Value::from(r.get_str().unwrap()),
            4 => Value::from(r.get_blob().unwrap()),
            5 => {
                let n = r.get_u32().unwrap() as usize;
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(legacy_value(r));
                }
                Value::List(items)
            }
            _ => panic!("bad value tag"),
        }
    }
    let mut r = WireReader::new(frame);
    let type_name = r.get_str().unwrap();
    let n = r.get_u32().unwrap() as usize;
    let mut builder = Tuple::build(type_name);
    for _ in 0..n {
        let name = r.get_str().unwrap();
        let value = legacy_value(&mut r);
        builder = builder.field(name, value);
    }
    builder.done()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn borrowed_decode_matches_copying_decode(tuple in wire_tuple_strategy()) {
        let frame = Bytes::from(tuple.to_bytes());
        let mut interner = NameInterner::new();
        let borrowed: Tuple = decode_frame(frame.clone(), &mut interner).unwrap();
        let copied = legacy_copying_decode(frame.clone());
        prop_assert_eq!(&borrowed, &copied);
        prop_assert_eq!(&borrowed, &tuple);
        // Re-encoding the borrowed decode reproduces the frame exactly —
        // sharing the frame's allocation never leaks into the encoding.
        prop_assert_eq!(borrowed.to_bytes(), frame.as_ref());
        // A second decode through the now-warm name cache agrees too.
        let again: Tuple = decode_frame(frame, &mut interner).unwrap();
        prop_assert_eq!(again, tuple);
    }
}

// ---------------------------------------------------------------------
// Shapes: one connection's decoder and the demand-built field index.
// ---------------------------------------------------------------------

/// A tuple frame with the fields in the given order, duplicates and all —
/// what a peer may send, whatever our encoder would.
fn raw_tuple_frame(ty: &str, fields: &[(String, i64)]) -> Bytes {
    let mut w = WireWriter::new();
    w.put_str(ty);
    w.put_u32(fields.len() as u32);
    for (name, v) in fields {
        w.put_str(name);
        Value::Int(*v).encode(&mut w);
    }
    w.finish()
}

/// The same for a template of `Exists` constraints.
fn raw_template_frame(ty: &str, names: &[String]) -> Bytes {
    let mut w = WireWriter::new();
    w.put_bool(true);
    w.put_str(ty);
    w.put_u32(names.len() as u32);
    for name in names {
        w.put_str(name);
        w.put_u8(4);
    }
    w.finish()
}

fn built(ty: &str, fields: &[(String, i64)]) -> Tuple {
    let mut builder = Tuple::build(ty);
    for (name, v) in fields {
        builder = builder.field(name.as_str(), *v);
    }
    builder.done()
}

/// A field set over a small alphabet: unsorted, repeated, sometimes
/// canonical, sometimes empty.
fn field_list_strategy() -> impl Strategy<Value = Vec<(String, i64)>> {
    proptest::collection::vec(("[a-e]", -3i64..3), 0..6)
}

#[derive(Debug, Clone)]
enum ShapeOp {
    // A tuple with the `k`-th field set of `FIELD_SETS`.
    Write(usize, i64),
    // Take / read with `==` on the named fields (values from the
    // `Write` range), or with a range constraint that forces a scan.
    Take(Vec<(usize, i64)>, bool),
    Read(Vec<(usize, i64)>, bool),
}

/// The field sets tuples of the one type in the history have.
const FIELD_SETS: [&[&str]; 4] = [&["a", "b"], &["b", "c"], &["a", "b", "c"], &["c"]];
const FIELD_NAMES: [&str; 4] = ["a", "b", "c", "d"];

fn shape_op_strategy() -> impl Strategy<Value = ShapeOp> {
    let template = || proptest::collection::vec((0usize..4, 0i64..3), 0..3);
    prop_oneof![
        (0usize..4, 0i64..3).prop_map(|(k, v)| ShapeOp::Write(k, v)),
        (template(), any::<bool>()).prop_map(|(t, scan)| ShapeOp::Take(t, scan)),
        (template(), any::<bool>()).prop_map(|(t, scan)| ShapeOp::Read(t, scan)),
    ]
}

fn op_template(fields: &[(usize, i64)], scan: bool) -> Template {
    let mut builder = Template::build("shaped");
    for (i, v) in fields {
        builder = if scan {
            builder.int_range(FIELD_NAMES[*i], *v, *v)
        } else {
            builder.eq(FIELD_NAMES[*i], *v)
        };
    }
    builder.done()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // (a) Same-type tuples with different, unsorted and duplicated field
    // sets, interleaved on one connection: each decodes exactly as the
    // builder builds it — the shape cache never hands out a previous
    // shape's names. Templates likewise.
    #[test]
    fn one_decoder_decodes_every_field_set_as_the_builder_builds_it(
        lists in proptest::collection::vec(field_list_strategy(), 1..24),
    ) {
        let mut interner = NameInterner::new();
        for fields in &lists {
            let frame = raw_tuple_frame("shaped", fields);
            let decoded: Tuple = decode_frame(frame, &mut interner).unwrap();
            let expected = built("shaped", fields);
            prop_assert_eq!(&decoded, &expected);
            prop_assert!(decoded.shape().names().eq(expected.shape().names()));

            let names: Vec<String> = fields.iter().map(|(n, _)| n.clone()).collect();
            let template: Template =
                decode_frame(raw_template_frame("shaped", &names), &mut interner).unwrap();
            let mut builder = Template::build("shaped");
            for name in &names {
                builder = builder.exists(name.as_str());
            }
            prop_assert_eq!(&template, &builder.done());
            prop_assert!(template.matches(&expected));
        }
    }

    // (c) Random histories of writes, takes and reads with templates
    // naming random fields: the space answers exactly what a scan of its
    // entries in id order answers, FIFO included — including the first
    // probe of a field after writes, which back-fills its index.
    #[test]
    fn space_answers_like_a_fifo_scan(
        ops in proptest::collection::vec(shape_op_strategy(), 0..80),
    ) {
        let space = Space::new("prop-shapes");
        let mut model: Vec<Tuple> = Vec::new();
        for op in ops {
            match op {
                ShapeOp::Write(k, v) => {
                    let mut builder = Tuple::build("shaped");
                    for (i, name) in FIELD_SETS[k].iter().enumerate() {
                        builder = builder.field(*name, (v + i as i64) % 3);
                    }
                    let tuple = builder.done();
                    space.write(tuple.clone()).unwrap();
                    model.push(tuple);
                }
                ShapeOp::Take(fields, scan) => {
                    let template = op_template(&fields, scan);
                    let want = model.iter().position(|t| template.matches(t));
                    let got = space.take_if_exists(&template).unwrap();
                    prop_assert_eq!(got, want.map(|i| model.remove(i)));
                }
                ShapeOp::Read(fields, scan) => {
                    let template = op_template(&fields, scan);
                    let want = model.iter().find(|t| template.matches(t)).cloned();
                    prop_assert_eq!(space.read_if_exists(&template).unwrap(), want);
                    let count = model.iter().filter(|t| template.matches(t)).count();
                    prop_assert_eq!(space.count(&template), count);
                }
            }
        }
        prop_assert_eq!(space.take_all(&Template::of_type("shaped")).unwrap(), model);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // (b) A flood of distinct shapes on one connection stays within the
    // connection's and the process table's caps, and every tuple still
    // decodes correctly, shared or not.
    #[test]
    fn a_flood_of_shapes_stays_within_the_caps(seed in any::<u32>()) {
        let mut interner = NameInterner::new();
        for i in 0..Shape::MAX_SHARED + 200 {
            let ty = format!("flood-{}", i % 100);
            let fields = vec![(format!("f{seed}-{i}"), i as i64), ("z".to_string(), 1)];
            let decoded: Tuple =
                decode_frame(raw_tuple_frame(&ty, &fields), &mut interner).unwrap();
            prop_assert_eq!(decoded, built(&ty, &fields));
        }
        prop_assert!(interner.len() <= NameInterner::MAX_ENTRIES);
        prop_assert!(Shape::shared_count() <= Shape::MAX_SHARED);
    }
}
