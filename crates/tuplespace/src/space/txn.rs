//! Transactions over space operations — every transaction rule lives here.
//!
//! The paper relies on JavaSpaces transactions for fault tolerance: "in event
//! of a partial failure, the transaction either completes successfully or
//! does not execute at all" (§3). A [`Txn`] buffers writes (invisible to
//! other clients until commit), locks taken entries (restored on abort), and
//! read-locks read entries (other clients may read but not take them).
//!
//! Dropping an active transaction aborts it, so a worker that panics while
//! holding a task under a transaction returns the task to the space — the
//! entry is never lost. The wire's transactions are these: a space server
//! holds one [`Txn`] per transaction its connection opened, and dropping
//! them when the connection ends is the wire's only abort.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::shard::{LockState, ShardState};
use super::{EntryId, Space};
use crate::error::{SpaceError, SpaceResult};
use crate::journal::{self, Op};
use crate::lease::Lease;
use crate::template::Template;
use crate::tuple::Tuple;

/// Transaction identifier, unique within a space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(u64);

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Operations may still be performed under the transaction.
    Active,
    /// The transaction committed; its effects are visible.
    Committed,
    /// The transaction aborted; it had no effect.
    Aborted,
}

/// A handle to an active transaction. Obtained from [`Space::txn`].
#[derive(Debug)]
pub struct Txn {
    space: Arc<Space>,
    id: TxnId,
    finished: AtomicBool,
}

impl Txn {
    /// This transaction's identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Writes a tuple under this transaction. It becomes visible to other
    /// clients only at commit; reads/takes under this same transaction see it
    /// immediately.
    pub fn write(&self, tuple: Tuple) -> SpaceResult<EntryId> {
        self.space
            .write_internal(tuple, Lease::Forever, Some(self.id))
    }

    /// Reads a matching tuple under this transaction, blocking up to
    /// `timeout` (`None` blocks indefinitely). The entry is read-locked until
    /// the transaction finishes: others may read it but not take it.
    pub fn read(
        &self,
        template: &Template,
        timeout: Option<Duration>,
    ) -> SpaceResult<Option<Tuple>> {
        self.space
            .wait_for(template, timeout, Some(self.id), false, &mut None)
    }

    /// Takes a matching tuple under this transaction. The entry is locked —
    /// invisible to everyone — until commit (removed) or abort (restored).
    pub fn take(
        &self,
        template: &Template,
        timeout: Option<Duration>,
    ) -> SpaceResult<Option<Tuple>> {
        self.space
            .wait_for(template, timeout, Some(self.id), true, &mut None)
    }

    /// Non-blocking take under this transaction.
    pub fn take_if_exists(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        self.take(template, Some(Duration::ZERO))
    }

    /// Takes up to `max` matching tuples under this transaction: blocks
    /// up to `timeout` for the first match, then drains whatever else
    /// matches without waiting, like [`Space::take_up_to`]. Each entry is
    /// locked as by [`Txn::take`].
    pub fn take_up_to(
        &self,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> SpaceResult<Vec<Tuple>> {
        self.take_up_to_within(template, max, usize::MAX, timeout)
    }

    /// [`Txn::take_up_to`] within a byte budget (see `Space::take_batch`):
    /// a space server answers a batch take in one frame.
    pub(crate) fn take_up_to_within(
        &self,
        template: &Template,
        max: usize,
        bytes: usize,
        timeout: Option<Duration>,
    ) -> SpaceResult<Vec<Tuple>> {
        self.space
            .take_batch(template, max, bytes, timeout, Some(self.id))
    }

    /// Writes every tuple under this transaction in one batch, under one
    /// lease; like [`Txn::write`], none is visible to others until commit.
    pub fn write_all(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
        self.space.write_batch(tuples, lease, Some(self.id))
    }

    /// Commits: buffered writes become visible, taken entries are removed,
    /// read locks are released.
    pub fn commit(self) -> SpaceResult<()> {
        self.finished.store(true, Ordering::SeqCst);
        self.space.finish_txn(self.id, true)
    }

    /// Aborts: buffered writes are discarded, taken entries are restored,
    /// read locks are released.
    pub fn abort(self) -> SpaceResult<()> {
        self.finished.store(true, Ordering::SeqCst);
        self.space.finish_txn(self.id, false)
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished.swap(true, Ordering::SeqCst) {
            // Abort on drop: a crashed holder must not lose entries.
            let _ = self.space.finish_txn(self.id, false);
        }
    }
}

/// What an active transaction holds, grouped by tuple type so commit and
/// abort fix each shard up under one lock acquisition.
pub(super) type TxnRecord = BTreeMap<Arc<str>, Held>;

/// The entries a transaction pending-wrote, take-locked and read-locked
/// in one shard.
#[derive(Debug, Default)]
pub(super) struct Held {
    writes: Vec<EntryId>,
    takes: Vec<EntryId>,
    reads: Vec<EntryId>,
}

impl Space {
    /// Begins a transaction.
    pub fn txn(&self) -> SpaceResult<Txn> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed) + 1);
        self.txns.lock().insert(id, TxnRecord::default());
        Ok(Txn {
            space: self.me.upgrade().expect("a space in use has a handle"),
            id,
            finished: AtomicBool::new(false),
        })
    }

    /// `Err(TxnInactive)` once `txn` has committed or aborted.
    pub(super) fn check_active(&self, txn: Option<TxnId>) -> SpaceResult<()> {
        match txn {
            Some(t) if !self.txns.lock().contains_key(&t) => Err(SpaceError::TxnInactive),
            _ => Ok(()),
        }
    }

    /// Enlists a write under `t`: the entry stays invisible to others until
    /// commit. Called under the entry's shard lock.
    pub(super) fn enlist_write(
        &self,
        t: TxnId,
        ty: Arc<str>,
        id: EntryId,
    ) -> SpaceResult<LockState> {
        let mut txns = self.txns.lock();
        let rec = txns.get_mut(&t).ok_or(SpaceError::TxnInactive)?;
        rec.entry(ty).or_default().writes.push(id);
        Ok(LockState::PendingWrite(t))
    }

    /// A take under `t` of candidate `id`: taking back the transaction's
    /// own pending write simply drops it; any other entry is take-locked
    /// until commit (removed) or abort (restored).
    pub(super) fn take_under(
        &self,
        t: TxnId,
        ty: &Arc<str>,
        state: &mut ShardState,
        id: EntryId,
    ) -> Option<Tuple> {
        let own_pending = state.entries[&id].lock == LockState::PendingWrite(t);
        // Hold the txn registry lock across the entry mutation: if the
        // transaction finished concurrently, we must not lock an entry
        // no committer will ever release.
        let mut txns = self.txns.lock();
        let held = txns.get_mut(&t)?.entry(ty.clone()).or_default();
        if own_pending {
            held.writes.retain(|w| *w != id);
            drop(txns);
            return Some(state.remove(id).expect("candidate exists").tuple);
        }
        held.takes.push(id);
        let stored = state.entries.get_mut(&id).expect("candidate exists");
        stored.lock = LockState::TakenBy(t);
        Some(stored.tuple.clone())
    }

    /// A read under `t` of candidate `id` read-locks it (others may read
    /// it, nobody else may take it); reading the transaction's own pending
    /// write takes no lock.
    pub(super) fn read_under(
        &self,
        t: TxnId,
        ty: &Arc<str>,
        state: &mut ShardState,
        id: EntryId,
    ) -> Option<Tuple> {
        let stored = state.entries.get_mut(&id).expect("candidate exists");
        let needs_lock = match &stored.lock {
            LockState::Free => true,
            LockState::ReadBy(readers) => !readers.contains(&t),
            LockState::PendingWrite(_) | LockState::TakenBy(_) => false,
        };
        if needs_lock {
            let mut txns = self.txns.lock();
            txns.get_mut(&t)?
                .entry(ty.clone())
                .or_default()
                .reads
                .push(id);
            match &mut stored.lock {
                lock @ LockState::Free => *lock = LockState::ReadBy(Box::new(vec![t])),
                LockState::ReadBy(readers) => readers.push(t),
                _ => unreachable!("needs_lock implies Free or ReadBy"),
            }
        }
        Some(stored.tuple.clone())
    }

    fn finish_txn(&self, id: TxnId, commit: bool) -> SpaceResult<()> {
        let rec = self
            .txns
            .lock()
            .remove(&id)
            .ok_or(SpaceError::TxnInactive)?;
        // Durable spaces journal a commit as one atomic record, and hold
        // the commit gate across both the append and the in-memory apply
        // below — a checkpoint (which captures its cut LSN under the same
        // gate) can therefore never land between the two. The entries are
        // stable between the collect pass and the apply pass: they are
        // locked by this transaction, so no other thread can remove them
        // (an expired locked entry can be purged concurrently, but its
        // journaled deadline is already past, so replay drops it again).
        // A sync the record makes due is settled after the gate drops.
        let mut owed = None;
        let gate = if commit {
            self.journal().map(|j| {
                let gate = j.commit_gate.lock();
                let mut writes = Vec::new();
                let mut takes = Vec::new();
                for (ty, held) in &rec {
                    let Some(shard) = self.existing_shard(ty) else {
                        continue;
                    };
                    let state = self.lock_shard(&shard);
                    for e in &held.writes {
                        if let Some(s) = state.entries.get(e) {
                            if s.lock == LockState::PendingWrite(id) {
                                writes.push((
                                    *e,
                                    journal::wall_from_instant(s.expires),
                                    s.tuple.clone(),
                                ));
                            }
                        }
                    }
                    for e in &held.takes {
                        if let Some(s) = state.entries.get(e) {
                            if s.lock == LockState::TakenBy(id) {
                                takes.push(*e);
                            }
                        }
                    }
                }
                if !writes.is_empty() || !takes.is_empty() {
                    owed = j.append(&Op::TxnCommit { writes, takes });
                }
                gate
            })
        } else {
            // Aborts restore pre-transaction state, which the journal
            // already reflects: nothing to record.
            None
        };
        let mut touched = Vec::with_capacity(rec.len());
        for (ty, held) in rec {
            let Some(shard) = self.existing_shard(&ty) else {
                continue;
            };
            {
                let mut state = self.lock_shard(&shard);
                for e in held.writes {
                    match state.entries.get_mut(&e) {
                        Some(s) if s.lock == LockState::PendingWrite(id) => {
                            if commit {
                                s.lock = LockState::Free;
                            } else {
                                state.remove(e);
                            }
                        }
                        _ => {}
                    }
                }
                for e in held.takes {
                    match state.entries.get_mut(&e) {
                        Some(s) if s.lock == LockState::TakenBy(id) => {
                            if commit {
                                state.remove(e);
                            } else {
                                s.lock = LockState::Free;
                            }
                        }
                        _ => {}
                    }
                }
                for e in held.reads {
                    if let Some(stored) = state.entries.get_mut(&e) {
                        if let LockState::ReadBy(readers) = &mut stored.lock {
                            readers.retain(|r| *r != id);
                            if readers.is_empty() {
                                stored.lock = LockState::Free;
                            }
                        }
                    }
                }
            }
            touched.push(shard);
        }
        drop(gate);
        self.stats.record_txn_finished(commit);
        // Entries became visible (commit) or available again (abort): wake
        // the affected types either way.
        for shard in touched {
            self.notify_shard(&shard);
        }
        self.notify_wildcard_waiters();
        self.settle(owed);
        Ok(())
    }
}
