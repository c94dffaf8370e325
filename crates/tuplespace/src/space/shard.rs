//! Per-type storage, entry lock states, and the blocking matchers every
//! `read`/`take` (plain or transactional, typed or wildcard) runs through.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use super::index::{FieldIndex, Search};
use super::{EntryId, Space, TxnId};
use crate::error::{SpaceError, SpaceResult};
use crate::template::Template;
use crate::tuple::Tuple;

#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) enum LockState {
    /// Visible to everyone.
    Free,
    /// Written under a transaction; visible only to that transaction until
    /// commit.
    PendingWrite(TxnId),
    /// Taken under a transaction; invisible pending commit/abort.
    TakenBy(TxnId),
    /// Read under one or more transactions; readable by all, takeable by
    /// nobody else. Boxed: every stored entry is as large as this enum's
    /// largest variant, and few are ever read under a transaction.
    #[allow(clippy::box_collection)]
    ReadBy(Box<Vec<TxnId>>),
}

#[derive(Debug)]
pub(super) struct Stored {
    pub(super) id: EntryId,
    pub(super) tuple: Tuple,
    pub(super) expires: Option<Instant>,
    pub(super) lock: LockState,
}

impl Stored {
    pub(super) fn expired(&self, now: Instant) -> bool {
        self.expires.is_some_and(|e| e <= now)
    }

    pub(super) fn visible_to_read(&self, reader: Option<TxnId>) -> bool {
        match &self.lock {
            LockState::Free | LockState::ReadBy(_) => true,
            LockState::PendingWrite(t) => reader == Some(*t),
            LockState::TakenBy(_) => false,
        }
    }

    pub(super) fn takeable_by(&self, taker: Option<TxnId>) -> bool {
        match &self.lock {
            LockState::Free => true,
            LockState::PendingWrite(t) => taker == Some(*t),
            LockState::TakenBy(_) => false,
            LockState::ReadBy(readers) => match taker {
                Some(t) => readers.iter().all(|r| *r == t),
                None => readers.is_empty(),
            },
        }
    }
}

#[derive(Debug, Default)]
pub(super) struct ShardState {
    /// Monotone ids make iteration order the arrival (FIFO) order.
    pub(super) entries: BTreeMap<EntryId, Stored>,
    pub(super) index: FieldIndex,
}

impl ShardState {
    /// Stores a new entry, indexing its demanded fields.
    pub(super) fn insert(&mut self, stored: Stored) {
        self.index.insert(&stored);
        self.entries.insert(stored.id, stored);
    }

    /// Removes an entry, keeping the field index consistent.
    pub(super) fn remove(&mut self, id: EntryId) -> Option<Stored> {
        let stored = self.entries.remove(&id)?;
        self.index.remove(&stored);
        Some(stored)
    }

    /// Removes every entry whose lease has run out; returns how many.
    pub(super) fn purge_expired(&mut self, now: Instant) -> usize {
        let dead: Vec<EntryId> = self
            .entries
            .values()
            .filter(|s| s.expired(now))
            .map(|s| s.id)
            .collect();
        if dead.len() == self.entries.len() {
            // Everything in the shard is dead: drop the storage wholesale
            // instead of unpicking the index id by id.
            self.entries.clear();
            self.index.clear();
        } else {
            for &id in &dead {
                self.remove(id);
            }
        }
        dead.len()
    }
}

/// Per-type storage: its own lock and its own condvar, so only waiters of
/// this type are woken by writes of this type. `waiters` counts threads
/// parked on `cond`, letting writers skip the notify syscall entirely
/// when nobody is listening (the common case under steady throughput).
#[derive(Default)]
pub(super) struct Shard {
    pub(super) state: Mutex<ShardState>,
    pub(super) cond: Condvar,
    waiters: AtomicUsize,
}

/// Shard plumbing.
impl Space {
    /// Looks up the shard for `ty`, creating it on first use (waiters need
    /// a condvar to park on even before the first write of their type).
    /// Returns the shared name allocation alongside the shard so hot paths
    /// never re-allocate type names.
    fn shard_entry(&self, ty: &str) -> (Arc<str>, Arc<Shard>) {
        if let Some((name, shard)) = self.shards.read().get_key_value(ty) {
            return (name.clone(), shard.clone());
        }
        let name: Arc<str> = Arc::from(ty);
        let shard = self.shards.write().entry(name.clone()).or_default().clone();
        (name, shard)
    }

    /// Same as [`Space::shard_entry`] but reuses the tuple's own name
    /// allocation when the shard does not exist yet.
    pub(super) fn shard_for(&self, name: &Arc<str>) -> Arc<Shard> {
        if let Some(shard) = self.shards.read().get(&**name) {
            return shard.clone();
        }
        self.shards.write().entry(name.clone()).or_default().clone()
    }

    pub(super) fn existing_shard(&self, ty: &str) -> Option<Arc<Shard>> {
        self.shards.read().get(ty).cloned()
    }

    pub(super) fn all_shards(&self) -> Vec<(Arc<str>, Arc<Shard>)> {
        self.shards
            .read()
            .iter()
            .map(|(ty, shard)| (ty.clone(), shard.clone()))
            .collect()
    }

    /// The shards a template of type `ty` could match, in type order.
    pub(super) fn select_shards(&self, ty: Option<&str>) -> Vec<(Arc<str>, Arc<Shard>)> {
        match ty {
            Some(ty) => self
                .shards
                .read()
                .get_key_value(ty)
                .map(|(name, shard)| vec![(name.clone(), shard.clone())])
                .unwrap_or_default(),
            None => self.all_shards(),
        }
    }

    /// Acquires a shard's state lock, counting contended acquisitions.
    pub(super) fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, ShardState> {
        match shard.state.try_lock() {
            Some(guard) => guard,
            None => {
                self.stats.record_contention();
                shard.state.lock()
            }
        }
    }

    /// Wakes a shard's parked waiters, if any. The waiter count is bumped
    /// under the shard lock before parking and the writer's data change
    /// happened under that same lock, so a zero count here proves no
    /// waiter can have missed the update — the syscall is safely skipped.
    pub(super) fn notify_shard(&self, shard: &Shard) {
        if shard.waiters.load(Ordering::SeqCst) > 0 {
            shard.cond.notify_all();
        }
    }

    /// Wakes wildcard waiters, if any. Callers must not hold a shard lock:
    /// `global` is only ever taken with no shard lock held (see module
    /// docs), which is what makes the waiters' scan-then-park atomic.
    pub(super) fn notify_wildcard_waiters(&self) {
        if self.wildcard_waiters.load(Ordering::SeqCst) > 0 {
            let _global = self.global.lock();
            self.global_cond.notify_all();
        }
    }
}

/// The blocking matchers.
impl Space {
    /// The single blocking matcher used by every read and take. A plain
    /// take's due sync lands in `owed`, for the caller to settle once
    /// this has dropped its locks.
    pub(super) fn wait_for(
        &self,
        template: &Template,
        timeout: Option<Duration>,
        txn: Option<TxnId>,
        destructive: bool,
        owed: &mut Option<u64>,
    ) -> SpaceResult<Option<Tuple>> {
        let deadline = timeout.map(|d| Instant::now() + d);
        let result = match template.type_name() {
            Some(ty) => {
                let (ty, shard) = self.shard_entry(ty);
                let mut search = Search::new(template);
                let mut state = self.lock_shard(&shard);
                self.park_until_match(
                    &mut state,
                    &shard.cond,
                    Some(&shard.waiters),
                    deadline,
                    txn,
                    |state| self.try_match_shard(&ty, state, &mut search, txn, destructive, owed),
                )
            }
            None => {
                // Count ourselves before the first scan: a writer that
                // misses the counter must have run before the scan, so the
                // scan sees its tuple. Holding `global` across the scan
                // keeps a concurrent writer's wakeup (which also takes
                // `global`) from slipping between our last look and our
                // park.
                self.wildcard_waiters.fetch_add(1, Ordering::SeqCst);
                let mut global = self.global.lock();
                let outcome = self.park_until_match(
                    &mut global,
                    &self.global_cond,
                    None,
                    deadline,
                    txn,
                    |_| self.scan_all_shards(template, txn, destructive, owed),
                );
                drop(global);
                self.wildcard_waiters.fetch_sub(1, Ordering::SeqCst);
                outcome
            }
        };
        if let Ok(found) = &result {
            match (found, destructive) {
                (Some(_), true) => self.stats.record_take(),
                (Some(_), false) => self.stats.record_read(),
                (None, _) => self.stats.record_miss(),
            }
        }
        result
    }

    /// The park-and-retry loop behind both matchers: `attempt` looks for a
    /// match under `guard`, the lock `cond` pairs with; finding none, the
    /// caller parks until woken or `deadline`, then looks once more.
    /// `waiters`, when given, counts the parked threads for the writer's
    /// notify skip.
    fn park_until_match<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        cond: &Condvar,
        waiters: Option<&AtomicUsize>,
        deadline: Option<Instant>,
        txn: Option<TxnId>,
        mut attempt: impl FnMut(&mut T) -> Option<Tuple>,
    ) -> SpaceResult<Option<Tuple>> {
        let mut parked = false;
        loop {
            if self.is_closed() {
                return Err(SpaceError::Closed);
            }
            self.check_active(txn)?;
            if let Some(tuple) = attempt(&mut **guard) {
                return Ok(Some(tuple));
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(None);
            }
            if !parked {
                self.stats.record_blocked_wait();
                parked = true;
            }
            if let Some(w) = waiters {
                w.fetch_add(1, Ordering::SeqCst);
            }
            match deadline {
                Some(d) => {
                    cond.wait_until(guard, d);
                }
                None => cond.wait(guard),
            }
            if let Some(w) = waiters {
                w.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    fn scan_all_shards(
        &self,
        template: &Template,
        txn: Option<TxnId>,
        destructive: bool,
        owed: &mut Option<u64>,
    ) -> Option<Tuple> {
        let mut search = Search::new(template);
        for (ty, shard) in self.all_shards() {
            let mut state = self.lock_shard(&shard);
            if let Some(tuple) =
                self.try_match_shard(&ty, &mut state, &mut search, txn, destructive, owed)
            {
                return Some(tuple);
            }
        }
        None
    }

    /// Resolves a match inside one shard and applies it (see
    /// [`Space::apply_match`]).
    pub(super) fn try_match_shard(
        &self,
        ty: &Arc<str>,
        state: &mut ShardState,
        search: &mut Search<'_>,
        txn: Option<TxnId>,
        destructive: bool,
        owed: &mut Option<u64>,
    ) -> Option<Tuple> {
        if !self.resolve(state, search) {
            return None;
        }
        let id = self.find_candidate(state, search, txn, destructive, 0, Instant::now())?;
        // A plain take is a record of one, journaled before it applies
        // (raising `owed` to the LSN of a sync it makes due).
        if let Some(j) = self.journal().filter(|_| destructive && txn.is_none()) {
            let mut record = j.takes(1);
            record.take(id);
            *owed = (*owed).max(record.append());
        }
        self.apply_match(ty, state, id, txn, destructive)
    }

    /// Applies a match on candidate `id`: a plain take removes the entry,
    /// a transactional read or take locks it (see `txn`). Journaling a
    /// plain take is the caller's, under the same lock.
    pub(super) fn apply_match(
        &self,
        ty: &Arc<str>,
        state: &mut ShardState,
        id: EntryId,
        txn: Option<TxnId>,
        destructive: bool,
    ) -> Option<Tuple> {
        match (txn, destructive) {
            (None, true) => Some(state.remove(id).expect("candidate exists").tuple),
            (None, false) => Some(state.entries[&id].tuple.clone()),
            (Some(t), true) => self.take_under(t, ty, state, id),
            (Some(t), false) => self.read_under(t, ty, state, id),
        }
    }
}
