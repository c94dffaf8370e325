//! How a shard locates an entry: the per-shard exact-match field index,
//! built on demand, and the candidate lookup that probes it or falls back
//! to a FIFO scan.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use super::shard::{ShardState, Stored};
use super::{EntryId, FxMap, Space, TxnId};
use crate::fx::FxHasher;
use crate::template::{Constraint, Matcher};
use crate::value::Value;

/// Hash of an indexable [`Value`], used as the field-index key. Keying by
/// hash instead of by owned value keeps the write path allocation-free;
/// the (astronomically rare) collision only yields a false candidate,
/// which the template-match check filters out. Floats hash by bit
/// pattern, consistent with `Value`'s bitwise equality; `Bytes` and
/// `List` values are not indexed (exact-matching them falls back to a
/// scan).
fn value_index_hash(value: &Value) -> Option<u64> {
    use std::hash::{Hash, Hasher};
    let mut h = FxHasher::default();
    match value {
        Value::Int(v) => (0u8, v).hash(&mut h),
        Value::Bool(v) => (1u8, v).hash(&mut h),
        Value::Str(v) => (2u8, v).hash(&mut h),
        Value::Float(v) => (3u8, v.to_bits()).hash(&mut h),
        Value::Bytes(_) | Value::List(_) => return None,
    }
    Some(h.finish())
}

/// One shard's exact-match index, over the fields an exact-match probe
/// has named and no others.
///
/// A field enters the index the first time a probe names it and some
/// stored entry has it: its buckets are back-filled once from the shard's
/// entries, and from then on every write and removal keeps them current.
/// Fields no probe has named cost nothing per write. The demanded set is
/// bounded by the names of the shapes stored in the shard; it is never
/// dropped.
#[derive(Debug, Default)]
pub(super) struct FieldIndex {
    demanded: Vec<Demanded>,
}

#[derive(Debug)]
struct Demanded {
    name: Arc<str>,
    /// `value hash → ids of entries carrying that value`, each bucket
    /// sorted so index-served matches keep FIFO order. Ids arrive nearly
    /// in order (they come from a monotone counter) and leave mostly from
    /// the front, so a bucket behaves like a queue.
    buckets: FxMap<u64, VecDeque<EntryId>>,
}

impl FieldIndex {
    /// Indexes a freshly stored entry under every demanded field it has.
    pub(super) fn insert(&mut self, stored: &Stored) {
        for field in &mut self.demanded {
            let Some(key) = stored.tuple.get(&field.name).and_then(value_index_hash) else {
                continue;
            };
            let ids = field.buckets.entry(key).or_default();
            match ids.back() {
                Some(last) if *last > stored.id => {
                    let pos = ids.partition_point(|id| *id < stored.id);
                    ids.insert(pos, stored.id);
                }
                _ => ids.push_back(stored.id),
            }
        }
    }

    /// Removes an entry's ids from the index.
    pub(super) fn remove(&mut self, stored: &Stored) {
        for field in &mut self.demanded {
            let Some(key) = stored.tuple.get(&field.name).and_then(value_index_hash) else {
                continue;
            };
            if let Some(ids) = field.buckets.get_mut(&key) {
                if let Ok(pos) = ids.binary_search(&stored.id) {
                    ids.remove(pos);
                }
                if ids.is_empty() {
                    field.buckets.remove(&key);
                }
            }
        }
    }

    /// Empties every bucket; the demanded fields stay demanded.
    pub(super) fn clear(&mut self) {
        for field in &mut self.demanded {
            field.buckets.clear();
        }
    }

    /// Makes `field` demanded, back-filling its buckets from `entries`.
    /// Returns false, creating nothing, when no entry has the field — so
    /// no entry can match an exact constraint on it.
    fn demand(&mut self, field: &str, entries: &BTreeMap<EntryId, Stored>) -> bool {
        if self.demanded.iter().any(|f| &*f.name == field) {
            return true;
        }
        let mut buckets: FxMap<u64, VecDeque<EntryId>> = FxMap::default();
        let mut found = false;
        for stored in entries.values() {
            let Some(value) = stored.tuple.get(field) else {
                continue;
            };
            found = true;
            if let Some(key) = value_index_hash(value) {
                // Entries iterate in id order: every bucket is pushed sorted.
                buckets.entry(key).or_default().push_back(stored.id);
            }
        }
        if found {
            self.demanded.push(Demanded {
                name: Arc::from(field),
                buckets,
            });
        }
        found
    }

    /// Ids past `after` of entries whose `field` hashes to `key`, oldest
    /// first.
    fn bucket(&self, field: &str, key: u64, after: EntryId) -> impl Iterator<Item = EntryId> + '_ {
        self.demanded
            .iter()
            .find(|f| &*f.name == field)
            .and_then(|f| f.buckets.get(&key))
            .map(|ids| ids.range(ids.partition_point(|id| *id <= after)..))
            .into_iter()
            .flatten()
            .copied()
    }

    /// The demanded field names, in demand order.
    #[cfg(test)]
    pub(super) fn demanded(&self) -> Vec<&str> {
        self.demanded.iter().map(|f| &*f.name).collect()
    }
}

impl Space {
    /// Finds the oldest live entry past `after` in `state` matching
    /// `matcher`'s template that the caller may see, purging expired
    /// entries it passes over. An `==` constraint on an indexable value lets the field index
    /// hand over exactly the entries carrying that value; anything else
    /// scans.
    pub(super) fn find_candidate(
        &self,
        state: &mut ShardState,
        matcher: &mut Matcher<'_>,
        txn: Option<TxnId>,
        destructive: bool,
        after: EntryId,
        now: Instant,
    ) -> Option<EntryId> {
        let probe = matcher
            .template()
            .constraints()
            .find_map(|(name, c)| match c {
                Constraint::Exact(value) => value_index_hash(value).map(|key| (name, key)),
                _ => None,
            });
        self.stats.record_index_probe(probe.is_some());
        // The lock state first: entries a transaction holds are skipped
        // without matching them.
        let mut usable = |s: &Stored| {
            let allowed = match destructive {
                true => s.takeable_by(txn),
                false => s.visible_to_read(txn),
            };
            allowed && matcher.matches(&s.tuple)
        };
        let mut dead = Vec::new();
        let found = match probe {
            Some((field, key)) => {
                if !state.index.demand(field, &state.entries) {
                    return None;
                }
                let entries = &state.entries;
                let indexed = state
                    .index
                    .bucket(field, key, after)
                    .map(|id| entries.get(&id).expect("indexed entry exists"));
                first_usable(indexed, now, &mut usable, &mut dead)
            }
            None => {
                let scan = state.entries.range(after + 1..).map(|(_, s)| s);
                first_usable(scan, now, &mut usable, &mut dead)
            }
        };
        for id in dead {
            state.remove(id);
        }
        found
    }
}

/// The first live, `usable` entry among `candidates`; the expired ones
/// passed over go into `dead`.
fn first_usable<'a>(
    candidates: impl Iterator<Item = &'a Stored>,
    now: Instant,
    usable: &mut impl FnMut(&Stored) -> bool,
    dead: &mut Vec<EntryId>,
) -> Option<EntryId> {
    for stored in candidates {
        if stored.expired(now) {
            dead.push(stored.id);
        } else if usable(stored) {
            return Some(stored.id);
        }
    }
    None
}
