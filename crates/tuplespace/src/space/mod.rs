//! The tuple space proper: storage, associative matching, blocking
//! operations, leases and transactions.
//!
//! # Storage layout
//!
//! Entries are sharded by tuple type: each type owns a `Shard` with its
//! own mutex and condition variable, so traffic on one type never contends
//! with another and a write wakes only the waiters of its own type. Within
//! a shard, entries live in a `BTreeMap<EntryId, Stored>` — ids are
//! allocated from one monotone counter, so map order *is* arrival (FIFO)
//! order — and a per-shard field index answers `field == value` templates
//! without scanning the shard. Writes and takes touch no space-wide
//! structure: [`Space::renew_lease`], the one op addressed by entry id,
//! looks in each shard in turn.
//!
//! Templates with no type name ("wildcard" templates) are the rare case:
//! blocking wildcard waiters park on a dedicated global condvar, and
//! writers nudge it only when `wildcard_waiters` says somebody is parked.
//!
//! One file per concern: `shard` holds per-type storage, entry lock states
//! and the blocking matchers; `index` the field index and candidate
//! lookup; `txn` every transaction rule; `durable` journaling, recovery
//! and checkpoints.
//!
//! # Lock ordering
//!
//! To stay deadlock-free, locks are always acquired in this order (any
//! prefix may be skipped, never reordered):
//!
//! 0. `SpaceJournal::commit_gate` (durable spaces only — brackets a whole
//!    transaction commit or checkpoint scan)
//! 1. `global` (wildcard waiters only — held across their shard scan)
//! 2. `shards` (the shard-map RwLock, held only to look up/create a shard)
//! 3. `Shard::state` (at most one shard at a time)
//! 4. `txns` (leaf)
//!
//! The WAL's append mutex (inside `SpaceJournal::append`) is a further
//! leaf: plain ops journal while holding their shard lock, so WAL order
//! is apply order, and nothing is acquired under it. An append only
//! reports that the sync policy made a sync due; the op carries that LSN
//! out and settles it (`Space::settle`, an fsync under the WAL's own
//! sync mutex) after dropping every lock above and notifying waiters. No
//! fsync runs under a space lock, and a due op still answers only after
//! an fsync covering it.
//!
//! Writers and `finish_txn` notify the global condvar only *after*
//! dropping every shard lock, so they never hold `Shard::state` while
//! acquiring `global`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use crate::error::{SpaceError, SpaceResult};
use crate::fx::FxBuild;
use crate::journal::{self, Op, SpaceJournal};
use crate::lease::Lease;
use crate::stats::{SpaceStats, StatsSnapshot};
use crate::template::Template;
use crate::tuple::Tuple;

mod durable;
mod index;
mod shard;
#[cfg(test)]
mod tests;
mod txn;

use index::Search;
use shard::{LockState, Shard, ShardState, Stored};
use txn::TxnRecord;
pub use txn::{Txn, TxnId, TxnState};

/// Identifier of a stored entry (monotone per space, never reused).
pub type EntryId = u64;

/// Shared handle to a space.
pub type SpaceHandle = Arc<Space>;

type FxMap<K, V> = HashMap<K, V, FxBuild>;

/// A shared, associative repository of [`Tuple`]s — the Rust JavaSpaces.
///
/// All operations are thread-safe; blocking `read`/`take` calls park on
/// their type's condition variable and are woken by writes of that type,
/// transaction commits/aborts, and [`Space::close`].
pub struct Space {
    /// The space's own handle, for the [`Txn`]s it hands out.
    me: Weak<Space>,
    name: String,
    closed: AtomicBool,
    next_id: AtomicU64,
    next_txn: AtomicU64,
    shards: RwLock<BTreeMap<Arc<str>, Arc<Shard>>>,
    txns: Mutex<FxMap<TxnId, TxnRecord>>,
    /// Number of blocked waiters using type-wildcard templates; writers
    /// skip the global condvar entirely while this is zero.
    wildcard_waiters: AtomicUsize,
    global: Mutex<()>,
    global_cond: Condvar,
    stats: SpaceStats,
    /// Set once by [`Space::durable`]; `None` means a plain in-memory
    /// space. The `OnceLock::get` on every hot-path op is a single atomic
    /// load, so the disabled-journal overhead is negligible.
    journal: OnceLock<SpaceJournal>,
}

impl std::fmt::Debug for Space {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Space").field("name", &self.name).finish()
    }
}

impl Space {
    /// Creates a new, empty space.
    pub fn new(name: impl Into<String>) -> SpaceHandle {
        Arc::new_cyclic(|me| Space {
            me: me.clone(),
            name: name.into(),
            closed: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            next_txn: AtomicU64::new(0),
            shards: RwLock::new(BTreeMap::new()),
            txns: Mutex::new(FxMap::default()),
            wildcard_waiters: AtomicUsize::new(0),
            global: Mutex::new(()),
            global_cond: Condvar::new(),
            stats: SpaceStats::default(),
            journal: OnceLock::new(),
        })
    }

    #[inline]
    fn journal(&self) -> Option<&SpaceJournal> {
        self.journal.get()
    }

    /// The space's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Closes the space: all blocked operations and all future operations
    /// fail with [`SpaceError::Closed`]. Used to shut workers down.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Notify each shard while holding its lock: a waiter that read
        // `closed == false` still holds the shard lock until it parks, so
        // the notification cannot slip in between check and park.
        for (_, shard) in self.all_shards() {
            let _state = shard.state.lock();
            shard.cond.notify_all();
        }
        let _global = self.global.lock();
        self.global_cond.notify_all();
    }

    /// True once [`Space::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Writes a tuple with an infinite lease.
    pub fn write(&self, tuple: Tuple) -> SpaceResult<EntryId> {
        self.write_internal(tuple, Lease::Forever, None)
    }

    /// Writes a tuple under the given lease; the entry is reclaimed after
    /// the lease expires.
    pub fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
        self.write_internal(tuple, lease, None)
    }

    /// Blocking, non-destructive associative lookup. Returns a copy of some
    /// tuple matching `template`, waiting up to `timeout` for one to arrive
    /// (`None` waits indefinitely). `Ok(None)` signals timeout.
    pub fn read(
        &self,
        template: &Template,
        timeout: Option<Duration>,
    ) -> SpaceResult<Option<Tuple>> {
        self.wait_for(template, timeout, None, false, &mut None)
    }

    /// Non-blocking read.
    pub fn read_if_exists(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        self.read(template, Some(Duration::ZERO))
    }

    /// Blocking destructive lookup: removes and returns a matching tuple.
    pub fn take(
        &self,
        template: &Template,
        timeout: Option<Duration>,
    ) -> SpaceResult<Option<Tuple>> {
        let mut owed = None;
        let found = self.wait_for(template, timeout, None, true, &mut owed);
        self.settle(owed);
        found
    }

    /// Non-blocking take.
    pub fn take_if_exists(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        self.take(template, Some(Duration::ZERO))
    }

    /// Takes every currently matching tuple (non-blocking). Each shard is
    /// drained under a single lock acquisition.
    pub fn take_all(&self, template: &Template) -> SpaceResult<Vec<Tuple>> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        let mut out = Vec::new();
        let mut owed = None;
        self.drain_into(template, usize::MAX, usize::MAX, None, &mut out, &mut owed);
        self.settle(owed);
        // The drain always ends on a failed probe, like the seed's
        // take-until-empty loop did.
        self.stats.record_miss();
        Ok(out)
    }

    /// Writes a batch of tuples under one lock acquisition per touched
    /// shard (the JavaSpaces05 `write` batch operation). All become visible
    /// together and waiters are woken once per shard. Returns contiguous,
    /// input-ordered entry ids.
    pub fn write_all(&self, tuples: Vec<Tuple>) -> SpaceResult<Vec<EntryId>> {
        self.write_all_leased(tuples, Lease::Forever)
    }

    /// Batch write with an explicit lease applied to every tuple.
    pub fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
        self.write_batch(tuples, lease, None)
    }

    /// The one batch write, plain or under `txn`: one lock acquisition
    /// per touched shard, contiguous input-ordered ids. Plain writes are
    /// visible at once and wake their waiters; transactional ones become
    /// visible, and wake them, at commit.
    pub(crate) fn write_batch(
        &self,
        tuples: Vec<Tuple>,
        lease: Lease,
        txn: Option<TxnId>,
    ) -> SpaceResult<Vec<EntryId>> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        self.check_active(txn)?;
        if tuples.is_empty() {
            return Ok(Vec::new());
        }
        // Reserve a contiguous id block so batch ids are dense even under
        // concurrent writers.
        let base = self
            .next_id
            .fetch_add(tuples.len() as u64, Ordering::Relaxed);
        let expires = lease.deadline();
        let mut by_type: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, tuple) in tuples.iter().enumerate() {
            by_type.entry(tuple.type_name()).or_default().push(i);
        }
        let mut touched = Vec::with_capacity(by_type.len());
        let mut owed = None;
        for (_, indexes) in by_type {
            let ty = tuples[indexes[0]].type_name_arc();
            let shard = self.shard_for(&ty);
            {
                let mut state = self.lock_shard(&shard);
                for i in indexes {
                    let id = base + i as u64 + 1;
                    let lock = match txn {
                        Some(t) => self.enlist_write(t, ty.clone(), id)?,
                        None => LockState::Free,
                    };
                    let tuple = tuples[i].clone();
                    owed =
                        owed.max(self.insert_entry(&mut state, id, tuple, &lease, expires, lock));
                }
            }
            touched.push(shard);
        }
        if txn.is_none() {
            for shard in touched {
                self.notify_shard(&shard);
            }
            self.notify_wildcard_waiters();
        }
        self.settle(owed);
        Ok((base + 1..=base + tuples.len() as u64).collect())
    }

    /// Takes up to `max` matching tuples (the JavaSpaces05 `take` batch
    /// operation): blocks up to `timeout` for the *first* match, then
    /// drains whatever else currently matches — one shard lock acquisition
    /// per shard — without further waiting.
    pub fn take_up_to(
        &self,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> SpaceResult<Vec<Tuple>> {
        self.take_batch(template, max, usize::MAX, timeout, None)
    }

    /// The one batch take, plain or under `txn`: [`Space::take_up_to`],
    /// stopped short of the tuple that would take the batch past `bytes`
    /// (`size_hint` + 64 per tuple; the first is taken whatever its size).
    /// A tuple left out for size is never taken, so it needs no putting
    /// back.
    pub(crate) fn take_batch(
        &self,
        template: &Template,
        max: usize,
        bytes: usize,
        timeout: Option<Duration>,
        txn: Option<TxnId>,
    ) -> SpaceResult<Vec<Tuple>> {
        if max == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        // One settle for the whole batch: its last due covers the rest.
        let mut owed = None;
        if let Some(first) = self.wait_for(template, timeout, txn, true, &mut owed)? {
            let left = bytes.saturating_sub(batch_cost(&first));
            out.push(first);
            self.drain_into(template, max, left, txn, &mut out, &mut owed);
        }
        self.settle(owed);
        // A partly filled batch is a hit, not a miss: the only miss is the
        // opening take finding nothing, and it has booked that itself.
        Ok(out)
    }

    /// Takes matches into `out` until it holds `max` tuples, the next
    /// would cost more than `bytes` are left, or nothing else matches, one
    /// lock acquisition per shard. The syncs plain takes make due
    /// accumulate in `owed`, for the caller to settle.
    fn drain_into(
        &self,
        template: &Template,
        max: usize,
        mut bytes: usize,
        txn: Option<TxnId>,
        out: &mut Vec<Tuple>,
        owed: &mut Option<u64>,
    ) {
        let mut search = Search::new(template);
        for (ty, shard) in self.select_shards(template.type_name()) {
            let mut state = self.lock_shard(&shard);
            if !self.resolve(&mut state, &mut search) {
                continue;
            }
            // Under the shard lock nothing passed over can become takeable,
            // so each search resumes after the last entry taken, and no
            // lease runs out that had not at the lock's first look.
            let now = Instant::now();
            let mut after = 0;
            while out.len() < max {
                let Some(id) = self.find_candidate(&mut state, &mut search, txn, true, after, now)
                else {
                    break;
                };
                after = id;
                let Some(cost) = bytes.checked_sub(batch_cost(&state.entries[&id].tuple)) else {
                    return;
                };
                bytes = cost;
                match self.apply_match(&ty, &mut state, id, txn, true, owed) {
                    Some(tuple) => {
                        self.stats.record_take();
                        out.push(tuple);
                    }
                    None => return,
                }
            }
            if out.len() >= max {
                return;
            }
        }
    }

    /// Copies every currently matching tuple (non-blocking). Each shard is
    /// scanned under a single lock acquisition.
    pub fn read_all(&self, template: &Template) -> SpaceResult<Vec<Tuple>> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        let mut out = Vec::new();
        self.scan_visible(template, |s| out.push(s.tuple.clone()));
        Ok(out)
    }

    /// Counts currently matching, visible tuples, in place. The
    /// [`TupleStore`](crate::TupleStore) form reports
    /// [`SpaceError::Closed`] on a closed space; this one just counts.
    pub fn count(&self, template: &Template) -> usize {
        let mut n = 0;
        self.scan_visible(template, |_| n += 1);
        n
    }

    /// Number of entries a plain (non-transactional) `read` could observe
    /// right now: live, not taken and not pending inside a transaction.
    pub fn len(&self) -> usize {
        self.count(&Template::any_type().done())
    }

    /// True when the space holds no read-visible entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f` on every live entry matching `template` that a plain
    /// `read` could observe, one lock acquisition per shard.
    fn scan_visible(&self, template: &Template, mut f: impl FnMut(&Stored)) {
        let now = Instant::now();
        let mut matcher = template.matcher();
        for (_, shard) in self.select_shards(template.type_name()) {
            let state = self.lock_shard(&shard);
            for stored in state.entries.values() {
                if !stored.expired(now)
                    && stored.visible_to_read(None)
                    && matcher.matches(&stored.tuple)
                {
                    f(stored);
                }
            }
        }
    }

    /// Renews the lease on an entry. The entry is found by looking in each
    /// shard in turn: a space holds a handful of types, and no hot path
    /// renews.
    pub fn renew_lease(&self, id: EntryId, lease: Lease) -> SpaceResult<()> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        for (_, shard) in self.all_shards() {
            let mut state = self.lock_shard(&shard);
            let now = Instant::now();
            let Some(stored) = state.entries.get_mut(&id) else {
                continue;
            };
            if stored.expired(now) {
                state.remove(id);
                return Err(SpaceError::LeaseExpired);
            }
            stored.expires = lease.deadline_from(now);
            let owed = self.journal().and_then(|j| {
                j.append(&Op::Renew {
                    id,
                    deadline_ms: journal::wall_deadline(&lease),
                })
            });
            drop(state);
            self.settle(owed);
            return Ok(());
        }
        Err(SpaceError::NoSuchEntry)
    }

    /// Purges expired entries immediately; returns how many were reclaimed.
    pub fn sweep(&self) -> usize {
        let now = Instant::now();
        let removed: usize = self
            .all_shards()
            .iter()
            .map(|(_, shard)| self.lock_shard(shard).purge_expired(now))
            .sum();
        self.stats.record_expired(removed as u64);
        removed
    }

    fn write_internal(
        &self,
        tuple: Tuple,
        lease: Lease,
        txn: Option<TxnId>,
    ) -> SpaceResult<EntryId> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        let ty = tuple.type_name_arc();
        let shard = self.shard_for(&ty);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let owed = {
            let mut state = self.lock_shard(&shard);
            let lock = match txn {
                Some(t) => self.enlist_write(t, ty, id)?,
                None => LockState::Free,
            };
            self.insert_entry(&mut state, id, tuple, &lease, lease.deadline(), lock)
        };
        // Plain writes are instantly visible: wake this type's waiters.
        // Transactional writes wake them at commit instead.
        if txn.is_none() {
            self.notify_shard(&shard);
            self.notify_wildcard_waiters();
        }
        self.settle(owed);
        Ok(id)
    }

    /// Stores one entry under its shard lock, journaling it first if it is
    /// a plain write (transactional writes are journaled at commit) — so
    /// WAL order agrees with apply order for ops touching the same entry.
    /// Returns the LSN a sync is owed for, if the journal made one due.
    fn insert_entry(
        &self,
        state: &mut ShardState,
        id: EntryId,
        tuple: Tuple,
        lease: &Lease,
        expires: Option<Instant>,
        lock: LockState,
    ) -> Option<u64> {
        let owed = match (lock == LockState::Free, self.journal()) {
            (true, Some(j)) => j.append(&Op::Write {
                id,
                deadline_ms: journal::wall_deadline(lease),
                tuple: tuple.clone(),
            }),
            _ => None,
        };
        self.stats.record_write(tuple.size_hint() as u64);
        state.insert(Stored {
            id,
            tuple,
            expires,
            lock,
        });
        owed
    }

    /// Settles the sync an op made due (see the module docs' lock
    /// ordering): called with no space lock held, before the op answers.
    fn settle(&self, owed: Option<u64>) {
        if let Some(lsn) = owed {
            self.journal()
                .expect("only a journal owes a sync")
                .settle(lsn);
        }
    }
}

/// What one tuple costs a batch take's byte budget: its size estimate
/// plus a framing margin.
fn batch_cost(tuple: &Tuple) -> usize {
    tuple.size_hint() + 64
}
