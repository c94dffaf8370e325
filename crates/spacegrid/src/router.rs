//! Deterministic tuple → shard routing.
//!
//! Every tuple hashes to exactly one *owner* shard, and the hash depends
//! only on the tuple's contents — never on connection state, process
//! identity, or time — so a master, any number of workers, and a client
//! that reconnected after a network fault all agree on where a tuple
//! lives. The hash is FNV-1a over the stable wire encoding of the hashed
//! fields (the same encoding the remote protocol uses), so it is
//! identical across processes and across this workspace's builds.
//!
//! Two routing modes, chosen by [`GridConfig::key_fields`]:
//!
//! * **Keyed** (`key_fields` non-empty): a tuple carrying *all* key
//!   fields hashes by its type name plus those field values; a template
//!   binding all key fields with [`Constraint::Exact`] routes lookups to
//!   the one owning shard. Tuples missing any key field fall back to
//!   whole-tuple hashing, and templates that leave a key field unbound
//!   scatter — the constraint-matching rules guarantee such templates can
//!   never match a keyed tuple anyway.
//! * **Spread** (`key_fields` empty, the default): tuples hash over their
//!   type name and every field, spreading uniformly; all template lookups
//!   scatter-gather. This is what the cluster framework uses: task and
//!   result templates bind only the job name, and pinning a whole job to
//!   one shard would defeat partitioning.

use std::cell::RefCell;

use acc_tuplespace::{Constraint, Payload, Template, Tuple, Value, WireWriter};

/// Tunables for a [`crate::PartitionedSpace`].
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Field names whose values key the placement hash (see module docs).
    /// Empty (the default) spreads tuples by whole-tuple hash.
    pub key_fields: Vec<String>,
    /// How long one helper-thread blocking slice lasts during a
    /// scatter-gather `read`/`take`. Shorter slices react faster to a
    /// first-wins cancellation (and to shutdown) at the cost of more
    /// round trips while idle.
    pub take_slice: std::time::Duration,
    /// How often the background prober retries unhealthy shards.
    pub reprobe_interval: std::time::Duration,
}

impl Default for GridConfig {
    fn default() -> GridConfig {
        GridConfig {
            key_fields: Vec::new(),
            take_slice: std::time::Duration::from_millis(25),
            reprobe_interval: std::time::Duration::from_millis(250),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Separates hashed components so `("ab", "c")` and `("a", "bc")` differ.
fn fnv_sep(hash: &mut u64) {
    fnv1a(hash, &[0xff]);
}

thread_local! {
    /// Reused encode scratch for value hashing: routing a tuple hashes
    /// one value encoding per field, and a fresh `Vec` for each would put
    /// an allocation on every routed operation's hot path.
    static HASH_SCRATCH: RefCell<WireWriter> = RefCell::new(WireWriter::default());
}

/// Hashes a value's stable wire encoding — the exact bytes
/// `value.to_bytes()` would produce, without materialising a fresh
/// buffer per value.
fn fnv_value(hash: &mut u64, value: &Value) {
    HASH_SCRATCH.with(|scratch| {
        let mut w = scratch.borrow_mut();
        w.clear();
        value.encode(&mut w);
        fnv1a(hash, w.as_slice());
    });
}

/// The placement hash of a tuple under the given key fields.
///
/// Keyed mode applies only when the tuple carries *every* key field;
/// otherwise (and always in spread mode) the hash covers the tuple's
/// canonical, sorted field list in full.
pub fn tuple_hash(tuple: &Tuple, key_fields: &[String]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, tuple.type_name().as_bytes());
    if !key_fields.is_empty() && key_fields.iter().all(|k| tuple.get(k).is_some()) {
        for key in key_fields {
            fnv_sep(&mut hash);
            fnv1a(&mut hash, key.as_bytes());
            fnv_sep(&mut hash);
            fnv_value(&mut hash, tuple.get(key).expect("checked above"));
        }
    } else {
        for (name, value) in tuple.fields() {
            fnv_sep(&mut hash);
            fnv1a(&mut hash, name.as_bytes());
            fnv_sep(&mut hash);
            fnv_value(&mut hash, value);
        }
    }
    hash
}

/// The owning shard index for a tuple, over `shards` shards.
pub fn route_tuple(tuple: &Tuple, key_fields: &[String], shards: usize) -> usize {
    (tuple_hash(tuple, key_fields) % shards.max(1) as u64) as usize
}

/// The single shard a template's matches can live on, when one exists.
///
/// `Some(shard)` requires keyed mode, a concrete template type, and an
/// [`Constraint::Exact`] binding for every key field: under those
/// conditions any tuple the template can match carries all key fields
/// with exactly those values, so it hashed to that shard. Everything else
/// returns `None` — the lookup must scatter.
pub fn route_template(template: &Template, key_fields: &[String], shards: usize) -> Option<usize> {
    if key_fields.is_empty() {
        return None;
    }
    let type_name = template.type_name()?;
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, type_name.as_bytes());
    for key in key_fields {
        let value =
            template
                .constraints()
                .find_map(|(name, c)| match (name == key.as_str(), c) {
                    (true, Constraint::Exact(v)) => Some(v),
                    _ => None,
                })?;
        fnv_sep(&mut hash);
        fnv1a(&mut hash, key.as_bytes());
        fnv_sep(&mut hash);
        fnv_value(&mut hash, value);
    }
    Some((hash % shards.max(1) as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed() -> Vec<String> {
        vec!["job".into(), "task_id".into()]
    }

    #[test]
    fn tuple_hash_is_deterministic_and_content_addressed() {
        let a = Tuple::build("acc.task")
            .field("job", "j")
            .field("task_id", 7i64)
            .done();
        let b = Tuple::build("acc.task")
            .field("task_id", 7i64)
            .field("job", "j")
            .done();
        // Field order at build time is irrelevant: tuples canonicalise.
        assert_eq!(tuple_hash(&a, &[]), tuple_hash(&b, &[]));
        assert_eq!(tuple_hash(&a, &keyed()), tuple_hash(&b, &keyed()));
        let c = Tuple::build("acc.task")
            .field("job", "j")
            .field("task_id", 8i64)
            .done();
        assert_ne!(tuple_hash(&a, &[]), tuple_hash(&c, &[]));
    }

    #[test]
    fn keyed_tuples_ignore_non_key_fields() {
        let a = Tuple::build("acc.task")
            .field("job", "j")
            .field("task_id", 7i64)
            .field("payload", vec![1u8, 2, 3])
            .done();
        let b = Tuple::build("acc.task")
            .field("job", "j")
            .field("task_id", 7i64)
            .field("payload", vec![9u8])
            .done();
        assert_eq!(tuple_hash(&a, &keyed()), tuple_hash(&b, &keyed()));
        assert_ne!(tuple_hash(&a, &[]), tuple_hash(&b, &[]));
    }

    #[test]
    fn template_binding_all_keys_routes_to_the_owner() {
        let keys = keyed();
        let tuple = Tuple::build("acc.task")
            .field("job", "j")
            .field("task_id", 7i64)
            .field("payload", vec![0u8; 16])
            .done();
        let template = Template::build("acc.task")
            .eq("job", "j")
            .eq("task_id", 7i64)
            .done();
        for shards in 1..=8 {
            let owner = route_tuple(&tuple, &keys, shards);
            assert_eq!(route_template(&template, &keys, shards), Some(owner));
        }
    }

    #[test]
    fn partial_or_inexact_bindings_scatter() {
        let keys = keyed();
        let by_job = Template::build("acc.task").eq("job", "j").done();
        assert_eq!(route_template(&by_job, &keys, 4), None);
        let ranged = Template::build("acc.task")
            .eq("job", "j")
            .int_range("task_id", 0, 10)
            .done();
        assert_eq!(route_template(&ranged, &keys, 4), None);
        let untyped = Template::any_type()
            .eq("job", "j")
            .eq("task_id", 7i64)
            .done();
        assert_eq!(route_template(&untyped, &keys, 4), None);
        // Spread mode never routes templates.
        let exact = Template::build("acc.task")
            .eq("job", "j")
            .eq("task_id", 7i64)
            .done();
        assert_eq!(route_template(&exact, &[], 4), None);
    }

    /// The scratch-buffer hash path must stay byte-identical to hashing
    /// `value.to_bytes()` — the digest is a cross-process placement
    /// contract, so this pins it against the pre-scratch implementation.
    #[test]
    fn streaming_hash_matches_materialised_encoding() {
        fn reference_hash(tuple: &Tuple) -> u64 {
            let mut hash = FNV_OFFSET;
            fnv1a(&mut hash, tuple.type_name().as_bytes());
            for (name, value) in tuple.fields() {
                fnv_sep(&mut hash);
                fnv1a(&mut hash, name.as_bytes());
                fnv_sep(&mut hash);
                fnv1a(&mut hash, &value.to_bytes());
            }
            hash
        }
        let tuples = [
            Tuple::build("acc.task").done(),
            Tuple::build("acc.task")
                .field("job", "j")
                .field("task_id", 7i64)
                .field("weight", 0.5f64)
                .field("live", true)
                .field("payload", vec![0xffu8, 0x00, 0x7f])
                .done(),
            Tuple::build("acc.result")
                .field(
                    "body",
                    Value::List(vec![Value::Int(1), Value::Str("x".into())]),
                )
                .done(),
        ];
        for tuple in &tuples {
            assert_eq!(tuple_hash(tuple, &[]), reference_hash(tuple));
        }
    }

    #[test]
    fn spread_mode_distributes_across_shards() {
        let mut seen = [0usize; 4];
        for i in 0..256i64 {
            let t = Tuple::build("acc.task")
                .field("job", "j")
                .field("task_id", i)
                .done();
            seen[route_tuple(&t, &[], 4)] += 1;
        }
        for (shard, &count) in seen.iter().enumerate() {
            assert!(
                count > 256 / 16,
                "shard {shard} starved: {count}/256 tuples ({seen:?})"
            );
        }
    }
}
