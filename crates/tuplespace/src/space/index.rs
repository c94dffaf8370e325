//! How a shard locates an entry: the per-shard exact-match field index,
//! folded in lazily, and the candidate lookup that probes it or falls back
//! to a FIFO scan.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use super::shard::{ShardState, Stored};
use super::{EntryId, FxMap, Space, TxnId};
use crate::fx::FxHasher;
use crate::template::{Constraint, Template};
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

/// One shard's exact-match index.
#[derive(Debug, Default)]
pub(super) struct FieldIndex {
    /// `field name → value hash → ids of entries carrying that value`.
    /// Each id bucket is kept sorted, so index-served matches keep FIFO
    /// semantics. Ids arrive nearly in order (they are allocated from a
    /// monotone counter) and leave mostly from the front, so the sorted
    /// deque behaves like a queue: O(1) amortized insert and remove.
    by_field: FxMap<Arc<str>, FxMap<u64, VecDeque<EntryId>>>,
    /// Ids written since the last index probe, not yet folded into
    /// `by_field`. Writes only push here (O(1) per field set, no hashing);
    /// the first probe that actually needs the index pays the folding
    /// cost. Entries that are removed before any probe never touch the
    /// index at all — which is what makes pure write→expire→sweep
    /// traffic cheap.
    pending: Vec<EntryId>,
}

impl FieldIndex {
    /// Queues a freshly inserted entry for lazy indexing. `entries` must
    /// already hold it.
    pub(super) fn note_pending(&mut self, id: EntryId, entries: &BTreeMap<EntryId, Stored>) {
        // Under write-heavy, probe-free churn the queue accumulates ids of
        // entries that are long gone; compact it before it outgrows the
        // live set by more than a small constant factor.
        if self.pending.len() > entries.len() * 2 + 64 {
            self.pending.retain(|id| entries.contains_key(id));
        }
        self.pending.push(id);
    }

    /// Folds queued writes into the index; called before any probe. Ids
    /// whose entries were already removed are skipped, so the index never
    /// references missing entries.
    fn flush(&mut self, entries: &BTreeMap<EntryId, Stored>) {
        for id in std::mem::take(&mut self.pending) {
            if let Some(stored) = entries.get(&id) {
                self.insert(stored);
            }
        }
    }

    fn insert(&mut self, stored: &Stored) {
        for (name, value) in stored.tuple.fields() {
            let Some(key) = value_index_hash(value) else {
                continue;
            };
            // Field names are shared `Arc<str>`s, so keying the index is a
            // refcount bump, never an allocation.
            if !self.by_field.contains_key(name) {
                self.by_field.insert(name.clone(), FxMap::default());
            }
            let ids = self
                .by_field
                .get_mut(name)
                .expect("just ensured")
                .entry(key)
                .or_default();
            match ids.back() {
                Some(last) if *last > stored.id => {
                    let pos = ids.partition_point(|id| *id < stored.id);
                    ids.insert(pos, stored.id);
                }
                _ => ids.push_back(stored.id),
            }
        }
    }

    /// Removes an entry's ids from the index. Harmlessly misses for
    /// entries still pending (never folded in).
    pub(super) fn remove(&mut self, stored: &Stored) {
        for (name, value) in stored.tuple.fields() {
            let Some(key) = value_index_hash(value) else {
                continue;
            };
            let Some(by_value) = self.by_field.get_mut(name) else {
                continue;
            };
            if let Some(ids) = by_value.get_mut(&key) {
                if let Ok(pos) = ids.binary_search(&stored.id) {
                    ids.remove(pos);
                }
                if ids.is_empty() {
                    by_value.remove(&key);
                }
            }
        }
    }

    pub(super) fn clear(&mut self) {
        self.by_field.clear();
        self.pending.clear();
    }

    /// Ids of entries whose `field` hashes to `key`, oldest first.
    fn bucket(&self, field: &str, key: u64) -> impl Iterator<Item = EntryId> + '_ {
        self.by_field
            .get(field)
            .and_then(|by_value| by_value.get(&key))
            .into_iter()
            .flatten()
            .copied()
    }
}

impl Space {
    /// Finds the oldest live entry in `state` matching `template` that the
    /// caller may see, purging expired entries it passes over. An `==`
    /// constraint on an indexable value lets the field index hand over
    /// exactly the entries carrying that value; anything else scans.
    pub(super) fn find_candidate(
        &self,
        state: &mut ShardState,
        template: &Template,
        txn: Option<TxnId>,
        destructive: bool,
        now: Instant,
    ) -> Option<EntryId> {
        let usable = |s: &Stored| {
            template.matches(&s.tuple)
                && if destructive {
                    s.takeable_by(txn)
                } else {
                    s.visible_to_read(txn)
                }
        };
        let probe = template.constraints().iter().find_map(|(name, c)| match c {
            Constraint::Exact(value) => value_index_hash(value).map(|key| (name.as_str(), key)),
            _ => None,
        });
        self.stats.record_index_probe(probe.is_some());
        let mut dead = Vec::new();
        let found = match probe {
            Some((field, key)) => {
                state.index.flush(&state.entries);
                let entries = &state.entries;
                let indexed = state
                    .index
                    .bucket(field, key)
                    .map(|id| entries.get(&id).expect("indexed entry exists"));
                first_usable(indexed, now, usable, &mut dead)
            }
            None => first_usable(state.entries.values(), now, usable, &mut dead),
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
    usable: impl Fn(&Stored) -> bool,
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
