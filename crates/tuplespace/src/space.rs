//! The tuple space proper: storage, associative matching, blocking
//! operations, leases, transactions and event dispatch.
//!
//! # Storage layout
//!
//! Entries are sharded by tuple type: each type owns a [`Shard`] with its
//! own mutex and condition variable, so traffic on one type never contends
//! with another and a write wakes only the waiters of its own type. Within
//! a shard, entries live in a `BTreeMap<EntryId, Stored>` — ids are
//! allocated from one monotone counter, so map order *is* arrival (FIFO)
//! order. Two indexes accelerate the non-scan paths:
//!
//! * a per-shard field index (`field name → value → entry ids`) answers
//!   `field == value` templates without scanning the shard;
//! * a space-wide `EntryId → type` map routes `renew_lease`/`cancel`
//!   straight to the owning shard.
//!
//! Templates with no type name ("wildcard" templates) are the rare case:
//! blocking wildcard waiters park on a dedicated global condvar, and
//! writers nudge it only when `wildcard_waiters` says somebody is parked.
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
//! 4. `txns`
//! 5. `entry_index` (leaf)
//!
//! The WAL's internal mutex (inside `SpaceJournal::append`) is a further
//! leaf: plain ops journal while holding their shard lock, and nothing is
//! acquired under it.
//!
//! Writers and `finish_txn` notify the global condvar only *after*
//! dropping every shard lock, so they never hold `Shard::state` while
//! acquiring `global`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use acc_durability::WalOptions;
use acc_telemetry::Timed;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::error::{SpaceError, SpaceResult};
use crate::events::{EventCookie, Listener, SpaceEvent};
use crate::fx::{FxBuild, FxHasher};
use crate::journal::{self, Op, SpaceJournal};
use crate::lease::Lease;
use crate::payload::{Payload, PayloadError, WireReader, WireWriter};
use crate::stats::series;
use crate::stats::{SpaceStats, StatsSnapshot};
use crate::template::{Constraint, Template};
use crate::tuple::Tuple;
use crate::txn::{Txn, TxnId};
use crate::value::Value;

/// Identifier of a stored entry (monotone per space, never reused).
pub type EntryId = u64;

/// Shared handle to a space.
pub type SpaceHandle = Arc<Space>;

#[derive(Debug, Clone, PartialEq, Eq)]
enum LockState {
    /// Visible to everyone.
    Free,
    /// Written under a transaction; visible only to that transaction until
    /// commit.
    PendingWrite(TxnId),
    /// Taken under a transaction; invisible pending commit/abort.
    TakenBy(TxnId),
    /// Read under one or more transactions; readable by all, takeable by
    /// nobody else.
    ReadBy(Vec<TxnId>),
}

#[derive(Debug)]
struct Stored {
    id: EntryId,
    tuple: Tuple,
    expires: Option<Instant>,
    lock: LockState,
}

impl Stored {
    fn expired(&self, now: Instant) -> bool {
        self.expires.is_some_and(|e| e <= now)
    }

    fn visible_to_read(&self, reader: Option<TxnId>) -> bool {
        match &self.lock {
            LockState::Free | LockState::ReadBy(_) => true,
            LockState::PendingWrite(t) => reader == Some(*t),
            LockState::TakenBy(_) => false,
        }
    }

    fn takeable_by(&self, taker: Option<TxnId>) -> bool {
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

type FxMap<K, V> = HashMap<K, V, FxBuild>;

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

#[derive(Debug, Default)]
struct ShardState {
    /// Monotone ids make iteration order the arrival (FIFO) order.
    entries: BTreeMap<EntryId, Stored>,
    /// `field name → value hash → ids of entries carrying that value`.
    /// Each id bucket is kept sorted, so index-served matches keep FIFO
    /// semantics. Ids arrive nearly in order (they are allocated from a
    /// monotone counter) and leave mostly from the front, so the sorted
    /// deque behaves like a queue: O(1) amortized insert and remove.
    index: FxMap<Arc<str>, FxMap<u64, VecDeque<EntryId>>>,
    /// Ids written since the last index probe, not yet folded into
    /// `index`. Writes only push here (O(1) per field set, no hashing);
    /// the first probe that actually needs the index pays the folding
    /// cost. Entries that are removed before any probe never touch the
    /// index at all — which is what makes pure write→expire→sweep
    /// traffic cheap again.
    pending_index: Vec<EntryId>,
}

impl ShardState {
    /// Queues a freshly inserted entry for lazy indexing. Must be called
    /// after the entry is in `entries`.
    fn note_pending(&mut self, id: EntryId) {
        // Under write-heavy, probe-free churn the queue accumulates ids of
        // entries that are long gone; compact it before it outgrows the
        // live set by more than a small constant factor.
        if self.pending_index.len() > self.entries.len() * 2 + 64 {
            let ShardState {
                entries,
                pending_index,
                ..
            } = self;
            pending_index.retain(|id| entries.contains_key(id));
        }
        self.pending_index.push(id);
    }

    /// Folds queued writes into the field index; called before any index
    /// probe. Ids whose entries were already removed are skipped, so the
    /// index never references missing entries.
    fn flush_pending_index(&mut self) {
        if self.pending_index.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_index);
        let ShardState { entries, index, .. } = self;
        for id in pending {
            if let Some(stored) = entries.get(&id) {
                index_insert_into(index, stored);
            }
        }
    }

    /// Removes an entry's ids from the field index. Harmlessly misses for
    /// entries still sitting in `pending_index` (never folded in).
    fn index_remove(&mut self, stored: &Stored) {
        for (name, value) in stored.tuple.fields() {
            let Some(key) = value_index_hash(value) else {
                continue;
            };
            let Some(by_value) = self.index.get_mut(name) else {
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
}

/// Inserts one entry's indexable fields into a shard's field index. A free
/// function (not a `ShardState` method) so [`ShardState::flush_pending_index`]
/// can split-borrow `entries` and `index`.
fn index_insert_into(index: &mut FxMap<Arc<str>, FxMap<u64, VecDeque<EntryId>>>, stored: &Stored) {
    for (name, value) in stored.tuple.fields() {
        let Some(key) = value_index_hash(value) else {
            continue;
        };
        // Field names are shared `Arc<str>`s, so keying the index is a
        // refcount bump, never an allocation.
        if !index.contains_key(name) {
            index.insert(name.clone(), FxMap::default());
        }
        let ids = index
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

/// Per-type storage: its own lock and its own condvar, so only waiters of
/// this type are woken by writes of this type. `waiters` counts threads
/// parked on `cond`, letting writers skip the notify syscall entirely
/// when nobody is listening (the common case under steady throughput).
#[derive(Default)]
struct Shard {
    state: Mutex<ShardState>,
    cond: Condvar,
    waiters: AtomicUsize,
}

#[derive(Debug, Default)]
struct TxnRecord {
    /// `(type, id)` of entries pending-written under the transaction.
    writes: Vec<(Arc<str>, EntryId)>,
    /// `(type, id)` of entries take-locked under the transaction.
    takes: Vec<(Arc<str>, EntryId)>,
    /// `(type, id)` of entries read-locked under the transaction.
    reads: Vec<(Arc<str>, EntryId)>,
}

struct RegistrationSlot {
    cookie: EventCookie,
    template: Template,
    listener: Listener,
    seq: AtomicU64,
    active: AtomicBool,
}

/// A shared, associative repository of [`Tuple`]s — the Rust JavaSpaces.
///
/// All operations are thread-safe; blocking `read`/`take` calls park on
/// their type's condition variable and are woken by writes of that type,
/// transaction commits/aborts, and [`Space::close`].
pub struct Space {
    name: String,
    closed: AtomicBool,
    next_id: AtomicU64,
    next_txn: AtomicU64,
    next_cookie: AtomicU64,
    shards: RwLock<BTreeMap<Arc<str>, Arc<Shard>>>,
    txns: Mutex<FxMap<TxnId, TxnRecord>>,
    /// Routes an [`EntryId`] to its owning shard without scanning.
    entry_index: Mutex<FxMap<EntryId, Arc<str>>>,
    /// Number of blocked waiters using type-wildcard templates; writers
    /// skip the global condvar entirely while this is zero.
    wildcard_waiters: AtomicUsize,
    global: Mutex<()>,
    global_cond: Condvar,
    /// Copy-on-write so event dispatch snapshots the list with one Arc
    /// clone instead of copying it under the lock.
    registrations: Mutex<Arc<Vec<Arc<RegistrationSlot>>>>,
    /// Mirror of `registrations.len()`, so writers skip event dispatch
    /// without touching the registrations lock when nothing is registered.
    reg_count: AtomicUsize,
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
        Arc::new(Space {
            name: name.into(),
            closed: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            next_txn: AtomicU64::new(0),
            next_cookie: AtomicU64::new(1),
            shards: RwLock::new(BTreeMap::new()),
            txns: Mutex::new(FxMap::default()),
            entry_index: Mutex::new(FxMap::default()),
            wildcard_waiters: AtomicUsize::new(0),
            global: Mutex::new(()),
            global_cond: Condvar::new(),
            registrations: Mutex::new(Arc::new(Vec::new())),
            reg_count: AtomicUsize::new(0),
            stats: SpaceStats::default(),
            journal: OnceLock::new(),
        })
    }

    #[inline]
    fn journal(&self) -> Option<&SpaceJournal> {
        self.journal.get()
    }

    /// The space's name (used for federation registration).
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
        self.read_internal(template, timeout, None)
    }

    /// Non-blocking read.
    pub fn read_if_exists(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        self.read_internal(template, Some(Duration::ZERO), None)
    }

    /// Blocking destructive lookup: removes and returns a matching tuple.
    pub fn take(
        &self,
        template: &Template,
        timeout: Option<Duration>,
    ) -> SpaceResult<Option<Tuple>> {
        self.take_internal(template, timeout, None)
    }

    /// Non-blocking take.
    pub fn take_if_exists(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        self.take_internal(template, Some(Duration::ZERO), None)
    }

    /// Takes every currently matching tuple (non-blocking). Each shard is
    /// drained under a single lock acquisition.
    pub fn take_all(&self, template: &Template) -> SpaceResult<Vec<Tuple>> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        let mut out = Vec::new();
        for (ty, shard) in self.select_shards(template.type_name()) {
            let mut state = self.lock_shard(&shard);
            while let Some(tuple) = self.try_match_shard(&ty, &mut state, template, None, true) {
                self.stats.record_take();
                out.push(tuple);
            }
        }
        // The drain always ends on a failed probe, like the seed's
        // take-until-empty loop did.
        self.stats.record_miss();
        Ok(out)
    }

    /// Writes a batch of tuples under one lock acquisition per touched
    /// shard (the JavaSpaces05 `write` batch operation). All become visible
    /// together; waiters are woken once per shard and events fire once per
    /// tuple afterwards. Returns contiguous, input-ordered entry ids.
    pub fn write_all(&self, tuples: Vec<Tuple>) -> SpaceResult<Vec<EntryId>> {
        self.write_all_leased(tuples, Lease::Forever)
    }

    /// Batch write with an explicit lease applied to every tuple.
    pub fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
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
        for (_, indexes) in by_type {
            let ty = tuples[indexes[0]].type_name_arc();
            let shard = self.shard_for(&ty);
            {
                let mut state = self.lock_shard(&shard);
                let mut entry_index = self.entry_index.lock();
                for i in indexes {
                    let id = base + i as u64 + 1;
                    if let Some(j) = self.journal() {
                        j.append(&Op::Write {
                            id,
                            deadline_ms: journal::wall_deadline(&lease),
                            tuple: tuples[i].clone(),
                        });
                    }
                    let stored = Stored {
                        id,
                        tuple: tuples[i].clone(),
                        expires,
                        lock: LockState::Free,
                    };
                    self.stats.record_write(stored.tuple.size_hint() as u64);
                    state.entries.insert(id, stored);
                    state.note_pending(id);
                    entry_index.insert(id, ty.clone());
                }
            }
            touched.push(shard);
        }
        for shard in touched {
            self.notify_shard(&shard);
        }
        self.notify_wildcard_waiters();
        self.fire_events(&tuples);
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
        if max == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        match self.take(template, timeout)? {
            None => return Ok(out),
            Some(first) => out.push(first),
        }
        'shards: for (ty, shard) in self.select_shards(template.type_name()) {
            let mut state = self.lock_shard(&shard);
            while out.len() < max {
                match self.try_match_shard(&ty, &mut state, template, None, true) {
                    Some(tuple) => {
                        self.stats.record_take();
                        out.push(tuple);
                    }
                    None => continue 'shards,
                }
            }
            break;
        }
        // A partly filled batch is a hit, not a miss: the only miss is the
        // opening `take` finding nothing, and it has booked that itself.
        Ok(out)
    }

    /// Copies every currently matching tuple (non-blocking). Each shard is
    /// scanned under a single lock acquisition.
    pub fn read_all(&self, template: &Template) -> SpaceResult<Vec<Tuple>> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        let now = Instant::now();
        let mut out = Vec::new();
        for (_, shard) in self.select_shards(template.type_name()) {
            let state = self.lock_shard(&shard);
            for stored in state.entries.values() {
                if !stored.expired(now)
                    && stored.visible_to_read(None)
                    && template.matches(&stored.tuple)
                {
                    out.push(stored.tuple.clone());
                }
            }
        }
        Ok(out)
    }

    /// Counts currently matching, visible tuples.
    pub fn count(&self, template: &Template) -> usize {
        self.read_all(template).map(|v| v.len()).unwrap_or(0)
    }

    /// Number of entries a plain (non-transactional) `read` could observe
    /// right now: live, not taken and not pending inside a transaction.
    pub fn len(&self) -> usize {
        let now = Instant::now();
        self.all_shards()
            .into_iter()
            .map(|(_, shard)| {
                self.lock_shard(&shard)
                    .entries
                    .values()
                    .filter(|s| !s.expired(now) && s.visible_to_read(None))
                    .count()
            })
            .sum()
    }

    /// True when the space holds no read-visible entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renews the lease on an entry.
    pub fn renew_lease(&self, id: EntryId, lease: Lease) -> SpaceResult<()> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        let Some(shard) = self.shard_of_entry(id) else {
            return Err(SpaceError::NoSuchEntry);
        };
        let mut state = self.lock_shard(&shard);
        let now = Instant::now();
        let expired = match state.entries.get_mut(&id) {
            None => return Err(SpaceError::NoSuchEntry),
            Some(stored) if stored.expired(now) => true,
            Some(stored) => {
                stored.expires = lease.deadline_from(now);
                if let Some(j) = self.journal() {
                    j.append(&Op::Renew {
                        id,
                        deadline_ms: journal::wall_deadline(&lease),
                    });
                }
                false
            }
        };
        if expired {
            self.remove_entry(&mut state, id);
            return Err(SpaceError::LeaseExpired);
        }
        Ok(())
    }

    /// Cancels an entry by id (equivalent to taking it). Distinguishes the
    /// failure modes: an entry that was never there (or already consumed)
    /// is [`SpaceError::NoSuchEntry`], one whose lease ran out is
    /// [`SpaceError::LeaseExpired`], and one locked by an active
    /// transaction is [`SpaceError::EntryLocked`].
    pub fn cancel(&self, id: EntryId) -> SpaceResult<Tuple> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        let Some(shard) = self.shard_of_entry(id) else {
            return Err(SpaceError::NoSuchEntry);
        };
        let mut state = self.lock_shard(&shard);
        let now = Instant::now();
        let status = match state.entries.get(&id) {
            None => return Err(SpaceError::NoSuchEntry),
            Some(stored) if stored.expired(now) => Err(SpaceError::LeaseExpired),
            Some(stored) if !stored.takeable_by(None) => return Err(SpaceError::EntryLocked),
            Some(_) => Ok(()),
        };
        match status {
            Err(e) => {
                self.remove_entry(&mut state, id);
                Err(e)
            }
            Ok(()) => {
                if let Some(j) = self.journal() {
                    j.append(&Op::Cancel { id });
                }
                let stored = self.remove_entry(&mut state, id).expect("entry just found");
                Ok(stored.tuple)
            }
        }
    }

    /// Purges expired entries immediately; returns how many were reclaimed.
    pub fn sweep(&self) -> usize {
        let now = Instant::now();
        let mut removed = 0;
        for (_, shard) in self.all_shards() {
            let mut state = self.lock_shard(&shard);
            let dead: Vec<EntryId> = state
                .entries
                .values()
                .filter(|s| s.expired(now))
                .map(|s| s.id)
                .collect();
            removed += dead.len();
            if dead.is_empty() {
                continue;
            }
            // Batch the id-routing removals under one lock acquisition.
            let mut entry_index = self.entry_index.lock();
            if dead.len() == state.entries.len() {
                // Everything in the shard is dead: drop the storage
                // wholesale instead of unpicking the index id by id.
                for id in &dead {
                    entry_index.remove(id);
                }
                state.entries.clear();
                state.index.clear();
                state.pending_index.clear();
            } else {
                for id in dead {
                    if let Some(stored) = state.entries.remove(&id) {
                        state.index_remove(&stored);
                        entry_index.remove(&id);
                    }
                }
            }
        }
        self.stats.record_expired(removed as u64);
        removed
    }

    /// Begins a transaction.
    pub fn txn(self: &Arc<Self>) -> SpaceResult<Txn> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed) + 1);
        self.txns.lock().insert(id, TxnRecord::default());
        Ok(Txn::new(self.clone(), id))
    }

    /// Registers an event listener for writes matching `template`.
    pub fn notify(&self, template: Template, listener: Listener) -> EventCookie {
        let cookie = EventCookie(self.next_cookie.fetch_add(1, Ordering::Relaxed));
        let mut regs = self.registrations.lock();
        let mut next = Vec::clone(&regs);
        next.push(Arc::new(RegistrationSlot {
            cookie,
            template,
            listener,
            seq: AtomicU64::new(0),
            active: AtomicBool::new(true),
        }));
        self.reg_count.store(next.len(), Ordering::Release);
        *regs = Arc::new(next);
        cookie
    }

    /// Registers a channel-backed listener; events are sent into the
    /// returned receiver. The channel closes when the registration is
    /// cancelled and dropped.
    pub fn notify_channel(&self, template: Template) -> (EventCookie, mpsc::Receiver<SpaceEvent>) {
        let (tx, rx) = mpsc::channel();
        let cookie = self.notify(
            template,
            Box::new(move |ev| {
                let _ = tx.send(ev);
            }),
        );
        (cookie, rx)
    }

    /// Cancels an event registration.
    pub fn cancel_notify(&self, cookie: EventCookie) -> SpaceResult<()> {
        let mut regs = self.registrations.lock();
        let before = regs.len();
        let mut next = Vec::clone(&regs);
        next.retain(|slot| {
            if slot.cookie == cookie {
                // Mark inactive so in-flight event snapshots skip it too.
                slot.active.store(false, Ordering::Relaxed);
                false
            } else {
                true
            }
        });
        self.reg_count.store(next.len(), Ordering::Release);
        let removed = next.len() != before;
        *regs = Arc::new(next);
        if removed {
            Ok(())
        } else {
            Err(SpaceError::NoSuchRegistration)
        }
    }

    // ------------------------------------------------------------------
    // Shard plumbing.
    // ------------------------------------------------------------------

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
    fn shard_for(&self, name: &Arc<str>) -> Arc<Shard> {
        if let Some(shard) = self.shards.read().get(&**name) {
            return shard.clone();
        }
        self.shards.write().entry(name.clone()).or_default().clone()
    }

    fn existing_shard(&self, ty: &str) -> Option<Arc<Shard>> {
        self.shards.read().get(ty).cloned()
    }

    fn all_shards(&self) -> Vec<(Arc<str>, Arc<Shard>)> {
        self.shards
            .read()
            .iter()
            .map(|(ty, shard)| (ty.clone(), shard.clone()))
            .collect()
    }

    /// The shards a template of type `ty` could match, in type order.
    fn select_shards(&self, ty: Option<&str>) -> Vec<(Arc<str>, Arc<Shard>)> {
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
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, ShardState> {
        match shard.state.try_lock() {
            Some(guard) => guard,
            None => {
                self.stats.record_contention();
                shard.state.lock()
            }
        }
    }

    fn shard_of_entry(&self, id: EntryId) -> Option<Arc<Shard>> {
        let ty = self.entry_index.lock().get(&id).cloned()?;
        self.existing_shard(&ty)
    }

    /// Removes an entry from a shard, keeping both indexes consistent.
    fn remove_entry(&self, state: &mut ShardState, id: EntryId) -> Option<Stored> {
        let stored = state.entries.remove(&id)?;
        state.index_remove(&stored);
        self.entry_index.lock().remove(&id);
        Some(stored)
    }

    /// Wakes a shard's parked waiters, if any. The waiter count is bumped
    /// under the shard lock before parking and the writer's data change
    /// happened under that same lock, so a zero count here proves no
    /// waiter can have missed the update — the syscall is safely skipped.
    fn notify_shard(&self, shard: &Shard) {
        if shard.waiters.load(Ordering::SeqCst) > 0 {
            shard.cond.notify_all();
        }
    }

    /// Wakes wildcard waiters, if any. Callers must not hold a shard lock:
    /// `global` is only ever taken with no shard lock held (see module
    /// docs), which is what makes the waiters' scan-then-park atomic.
    fn notify_wildcard_waiters(&self) {
        if self.wildcard_waiters.load(Ordering::SeqCst) > 0 {
            let _global = self.global.lock();
            self.global_cond.notify_all();
        }
    }

    // ------------------------------------------------------------------
    // Internals shared with Txn.
    // ------------------------------------------------------------------

    pub(crate) fn write_internal(
        &self,
        tuple: Tuple,
        lease: Lease,
        txn: Option<TxnId>,
    ) -> SpaceResult<EntryId> {
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
        let timed = Timed::start();
        let ty = tuple.type_name_arc();
        let shard = self.shard_for(&ty);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut state = self.lock_shard(&shard);
            let lock = match txn {
                Some(t) => {
                    let mut txns = self.txns.lock();
                    let rec = txns.get_mut(&t).ok_or(SpaceError::TxnInactive)?;
                    rec.writes.push((ty.clone(), id));
                    LockState::PendingWrite(t)
                }
                None => LockState::Free,
            };
            // Journal inside the shard-lock critical section, so WAL order
            // agrees with apply order for ops touching the same entry.
            // Transactional writes are journaled at commit, not here.
            if txn.is_none() {
                if let Some(j) = self.journal() {
                    j.append(&Op::Write {
                        id,
                        deadline_ms: journal::wall_deadline(&lease),
                        tuple: tuple.clone(),
                    });
                }
            }
            let stored = Stored {
                id,
                tuple: tuple.clone(),
                expires: lease.deadline(),
                lock,
            };
            self.stats.record_write(stored.tuple.size_hint() as u64);
            state.entries.insert(id, stored);
            state.note_pending(id);
            self.entry_index.lock().insert(id, ty);
        }
        // Plain writes are instantly visible: wake this type's waiters and
        // fire events. Transactional writes fire at commit instead.
        if txn.is_none() {
            self.notify_shard(&shard);
            self.notify_wildcard_waiters();
            self.fire_events(std::slice::from_ref(&tuple));
        }
        timed.observe(&series().write_us);
        Ok(id)
    }

    pub(crate) fn read_internal(
        &self,
        template: &Template,
        timeout: Option<Duration>,
        txn: Option<TxnId>,
    ) -> SpaceResult<Option<Tuple>> {
        self.wait_for(template, timeout, txn, false)
    }

    pub(crate) fn take_internal(
        &self,
        template: &Template,
        timeout: Option<Duration>,
        txn: Option<TxnId>,
    ) -> SpaceResult<Option<Tuple>> {
        self.wait_for(template, timeout, txn, true)
    }

    /// The single blocking matcher used by read and take.
    fn wait_for(
        &self,
        template: &Template,
        timeout: Option<Duration>,
        txn: Option<TxnId>,
        destructive: bool,
    ) -> SpaceResult<Option<Tuple>> {
        let timed = Timed::start();
        let deadline = timeout.map(|d| Instant::now() + d);
        let result = match template.type_name() {
            Some(ty) => {
                let (ty, shard) = self.shard_entry(ty);
                self.wait_typed(&ty, &shard, template, deadline, txn, destructive)
            }
            None => {
                // Count ourselves before the first scan: a writer that
                // misses the counter must have run before the scan, so the
                // scan sees its tuple.
                self.wildcard_waiters.fetch_add(1, Ordering::SeqCst);
                let result = self.wait_wildcard(template, deadline, txn, destructive);
                self.wildcard_waiters.fetch_sub(1, Ordering::SeqCst);
                result
            }
        };
        timed.observe(if destructive {
            &series().take_us
        } else {
            &series().read_us
        });
        result
    }

    /// Records how long a blocking read/take spent parked, if it parked.
    /// Wait durations are recorded unconditionally (not gated by
    /// [`acc_telemetry::timing_enabled`]): the path already paid for a
    /// park/wake cycle, so two clock reads are noise.
    fn record_wait(destructive: bool, wait_start: Option<Instant>) {
        if let Some(start) = wait_start {
            let s = series();
            let h = if destructive {
                &s.take_wait_us
            } else {
                &s.read_wait_us
            };
            h.observe_duration(start.elapsed());
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn wait_typed(
        &self,
        ty: &Arc<str>,
        shard: &Shard,
        template: &Template,
        deadline: Option<Instant>,
        txn: Option<TxnId>,
        destructive: bool,
    ) -> SpaceResult<Option<Tuple>> {
        let mut state = self.lock_shard(shard);
        let mut wait_start: Option<Instant> = None;
        loop {
            if self.is_closed() {
                return Err(SpaceError::Closed);
            }
            if let Some(t) = txn {
                if !self.txns.lock().contains_key(&t) {
                    return Err(SpaceError::TxnInactive);
                }
            }
            if let Some(tuple) = self.try_match_shard(ty, &mut state, template, txn, destructive) {
                self.bump_match(destructive);
                Self::record_wait(destructive, wait_start);
                return Ok(Some(tuple));
            }
            // No match: park until this type changes or the deadline hits.
            match deadline {
                Some(d) => {
                    if Instant::now() >= d {
                        self.stats.record_miss();
                        Self::record_wait(destructive, wait_start);
                        return Ok(None);
                    }
                    if wait_start.is_none() {
                        self.stats.record_blocked_wait();
                        wait_start = Some(Instant::now());
                    }
                    shard.waiters.fetch_add(1, Ordering::SeqCst);
                    let timed_out = shard.cond.wait_until(&mut state, d).timed_out();
                    shard.waiters.fetch_sub(1, Ordering::SeqCst);
                    if timed_out {
                        // Re-check one final time before reporting a miss: a
                        // write may have landed exactly at the deadline.
                        if let Some(tuple) =
                            self.try_match_shard(ty, &mut state, template, txn, destructive)
                        {
                            self.bump_match(destructive);
                            Self::record_wait(destructive, wait_start);
                            return Ok(Some(tuple));
                        }
                        if self.is_closed() {
                            return Err(SpaceError::Closed);
                        }
                        self.stats.record_miss();
                        Self::record_wait(destructive, wait_start);
                        return Ok(None);
                    }
                }
                None => {
                    if wait_start.is_none() {
                        self.stats.record_blocked_wait();
                        wait_start = Some(Instant::now());
                    }
                    shard.waiters.fetch_add(1, Ordering::SeqCst);
                    shard.cond.wait(&mut state);
                    shard.waiters.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }

    /// Wildcard (untyped-template) blocking path. Holds `global` across the
    /// scan so a concurrent writer's wakeup (which also takes `global`)
    /// cannot slip between our last look and our park.
    fn wait_wildcard(
        &self,
        template: &Template,
        deadline: Option<Instant>,
        txn: Option<TxnId>,
        destructive: bool,
    ) -> SpaceResult<Option<Tuple>> {
        let mut global = self.global.lock();
        let mut wait_start: Option<Instant> = None;
        loop {
            if self.is_closed() {
                return Err(SpaceError::Closed);
            }
            if let Some(t) = txn {
                if !self.txns.lock().contains_key(&t) {
                    return Err(SpaceError::TxnInactive);
                }
            }
            if let Some(tuple) = self.scan_all_shards(template, txn, destructive) {
                self.bump_match(destructive);
                Self::record_wait(destructive, wait_start);
                return Ok(Some(tuple));
            }
            match deadline {
                Some(d) => {
                    if Instant::now() >= d {
                        self.stats.record_miss();
                        Self::record_wait(destructive, wait_start);
                        return Ok(None);
                    }
                    if wait_start.is_none() {
                        self.stats.record_blocked_wait();
                        wait_start = Some(Instant::now());
                    }
                    if self.global_cond.wait_until(&mut global, d).timed_out() {
                        if let Some(tuple) = self.scan_all_shards(template, txn, destructive) {
                            self.bump_match(destructive);
                            Self::record_wait(destructive, wait_start);
                            return Ok(Some(tuple));
                        }
                        if self.is_closed() {
                            return Err(SpaceError::Closed);
                        }
                        self.stats.record_miss();
                        Self::record_wait(destructive, wait_start);
                        return Ok(None);
                    }
                }
                None => {
                    if wait_start.is_none() {
                        self.stats.record_blocked_wait();
                        wait_start = Some(Instant::now());
                    }
                    self.global_cond.wait(&mut global);
                }
            }
        }
    }

    fn scan_all_shards(
        &self,
        template: &Template,
        txn: Option<TxnId>,
        destructive: bool,
    ) -> Option<Tuple> {
        for (ty, shard) in self.all_shards() {
            let mut state = self.lock_shard(&shard);
            if let Some(tuple) = self.try_match_shard(&ty, &mut state, template, txn, destructive) {
                return Some(tuple);
            }
        }
        None
    }

    fn bump_match(&self, destructive: bool) {
        if destructive {
            self.stats.record_take();
        } else {
            self.stats.record_read();
        }
    }

    /// Finds the oldest live entry in `state` matching `template` that the
    /// caller may see, purging expired entries it passes over.
    fn find_candidate(
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
        // An `==` constraint on an indexable value lets the field index
        // hand us exactly the entries carrying that value, oldest first.
        let probe = template.constraints().iter().find_map(|(name, c)| match c {
            Constraint::Exact(value) => value_index_hash(value).map(|key| (name.as_str(), key)),
            _ => None,
        });
        let mut dead = Vec::new();
        let mut found = None;
        if let Some((field, key)) = probe {
            self.stats.record_index_probe(true);
            state.flush_pending_index();
            if let Some(ids) = state
                .index
                .get(field)
                .and_then(|by_value| by_value.get(&key))
            {
                for &id in ids {
                    let stored = state.entries.get(&id).expect("indexed entry exists");
                    if stored.expired(now) {
                        dead.push(id);
                    } else if usable(stored) {
                        found = Some(id);
                        break;
                    }
                }
            }
        } else {
            self.stats.record_index_probe(false);
            for (id, stored) in state.entries.iter() {
                if stored.expired(now) {
                    dead.push(*id);
                } else if usable(stored) {
                    found = Some(*id);
                    break;
                }
            }
        }
        for id in dead {
            self.remove_entry(state, id);
        }
        found
    }

    /// Resolves a match inside one shard; applies take/read locking.
    fn try_match_shard(
        &self,
        ty: &Arc<str>,
        state: &mut ShardState,
        template: &Template,
        txn: Option<TxnId>,
        destructive: bool,
    ) -> Option<Tuple> {
        let now = Instant::now();
        let id = self.find_candidate(state, template, txn, destructive, now)?;
        if destructive {
            let Some(t) = txn else {
                if let Some(j) = self.journal() {
                    j.append(&Op::Take { id });
                }
                let stored = self.remove_entry(state, id).expect("candidate exists");
                return Some(stored.tuple);
            };
            let own_pending = state.entries[&id].lock == LockState::PendingWrite(t);
            // Hold the txn registry lock across the entry mutation: if the
            // transaction finished concurrently, we must not lock an entry
            // no committer will ever release.
            let mut txns = self.txns.lock();
            let rec = txns.get_mut(&t)?;
            if own_pending {
                // Taking back your own uncommitted write: the entry simply
                // disappears from the transaction.
                rec.writes.retain(|(_, w)| *w != id);
                drop(txns);
                let stored = self.remove_entry(state, id).expect("candidate exists");
                Some(stored.tuple)
            } else {
                rec.takes.push((ty.clone(), id));
                let stored = state.entries.get_mut(&id).expect("candidate exists");
                stored.lock = LockState::TakenBy(t);
                Some(stored.tuple.clone())
            }
        } else {
            if let Some(t) = txn {
                let needs_lock = match &state.entries[&id].lock {
                    LockState::Free => true,
                    LockState::ReadBy(readers) => !readers.contains(&t),
                    // Reading your own pending write takes no lock.
                    LockState::PendingWrite(_) | LockState::TakenBy(_) => false,
                };
                if needs_lock {
                    let mut txns = self.txns.lock();
                    let rec = txns.get_mut(&t)?;
                    rec.reads.push((ty.clone(), id));
                    drop(txns);
                    let stored = state.entries.get_mut(&id).expect("candidate exists");
                    match &mut stored.lock {
                        lock @ LockState::Free => *lock = LockState::ReadBy(vec![t]),
                        LockState::ReadBy(readers) => readers.push(t),
                        _ => unreachable!("needs_lock implies Free or ReadBy"),
                    }
                }
            }
            Some(state.entries[&id].tuple.clone())
        }
    }

    pub(crate) fn finish_txn(&self, id: TxnId, commit: bool) -> SpaceResult<()> {
        let timed = Timed::start();
        let rec = self
            .txns
            .lock()
            .remove(&id)
            .ok_or(SpaceError::TxnInactive)?;
        // Group the transaction's entries per shard so each shard is fixed
        // up under one lock acquisition.
        #[derive(Default)]
        struct Ops {
            writes: Vec<EntryId>,
            takes: Vec<EntryId>,
            reads: Vec<EntryId>,
        }
        let mut by_type: BTreeMap<Arc<str>, Ops> = BTreeMap::new();
        for (ty, e) in rec.writes {
            by_type.entry(ty).or_default().writes.push(e);
        }
        for (ty, e) in rec.takes {
            by_type.entry(ty).or_default().takes.push(e);
        }
        for (ty, e) in rec.reads {
            by_type.entry(ty).or_default().reads.push(e);
        }
        // Durable spaces journal a commit as one atomic record, and hold
        // the commit gate across both the append and the in-memory apply
        // below — a checkpoint (which captures its cut LSN under the same
        // gate) can therefore never land between the two. The entries are
        // stable between the collect pass and the apply pass: they are
        // locked by this transaction, so no other thread can remove them
        // (an expired locked entry can be purged concurrently, but its
        // journaled deadline is already past, so replay drops it again).
        let _gate = if commit {
            self.journal().map(|j| {
                let gate = j.commit_gate.lock();
                let mut writes = Vec::new();
                let mut takes = Vec::new();
                for (ty, ops) in &by_type {
                    let Some(shard) = self.existing_shard(ty) else {
                        continue;
                    };
                    let state = self.lock_shard(&shard);
                    for e in &ops.writes {
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
                    for e in &ops.takes {
                        if let Some(s) = state.entries.get(e) {
                            if s.lock == LockState::TakenBy(id) {
                                takes.push(*e);
                            }
                        }
                    }
                }
                if !writes.is_empty() || !takes.is_empty() {
                    j.append(&Op::TxnCommit { writes, takes });
                }
                gate
            })
        } else {
            // Aborts restore pre-transaction state, which the journal
            // already reflects: nothing to record.
            None
        };
        let mut fire: Vec<Tuple> = Vec::new();
        let mut touched = Vec::with_capacity(by_type.len());
        for (ty, ops) in by_type {
            let Some(shard) = self.existing_shard(&ty) else {
                continue;
            };
            {
                let mut state = self.lock_shard(&shard);
                for e in ops.writes {
                    let pending = state
                        .entries
                        .get(&e)
                        .is_some_and(|s| s.lock == LockState::PendingWrite(id));
                    if !pending {
                        continue;
                    }
                    if commit {
                        let stored = state.entries.get_mut(&e).expect("entry just checked");
                        stored.lock = LockState::Free;
                        fire.push(stored.tuple.clone());
                    } else {
                        self.remove_entry(&mut state, e);
                    }
                }
                for e in ops.takes {
                    let taken = state
                        .entries
                        .get(&e)
                        .is_some_and(|s| s.lock == LockState::TakenBy(id));
                    if !taken {
                        continue;
                    }
                    if commit {
                        self.remove_entry(&mut state, e);
                    } else {
                        state.entries.get_mut(&e).expect("entry just checked").lock =
                            LockState::Free;
                    }
                }
                for e in ops.reads {
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
        self.stats.record_txn_finished(commit);
        // Entries became visible (commit) or available again (abort): wake
        // the affected types either way.
        for shard in touched {
            self.notify_shard(&shard);
        }
        self.notify_wildcard_waiters();
        if !fire.is_empty() {
            self.fire_events(&fire);
        }
        timed.observe(&series().txn_finish_us);
        Ok(())
    }

    /// Dispatches events for newly visible tuples. Invokes listeners with
    /// no space lock held, so a listener may freely call back into the
    /// space (write a reply, register/cancel notifications, …).
    fn fire_events(&self, tuples: &[Tuple]) {
        if self.reg_count.load(Ordering::Acquire) == 0 {
            return;
        }
        let slots: Arc<Vec<Arc<RegistrationSlot>>> = self.registrations.lock().clone();
        let mut dispatched = 0u64;
        for slot in slots.iter() {
            if !slot.active.load(Ordering::Relaxed) {
                continue;
            }
            for tuple in tuples {
                if slot.template.matches(tuple) {
                    let seq = slot.seq.fetch_add(1, Ordering::Relaxed) + 1;
                    (slot.listener)(SpaceEvent {
                        cookie: slot.cookie,
                        seq,
                        tuple: tuple.clone(),
                    });
                    dispatched += 1;
                }
            }
        }
        if dispatched > 0 {
            series().events_dispatched.add(dispatched);
        }
    }
}

fn storage_err(e: std::io::Error) -> SpaceError {
    SpaceError::Storage(e.to_string())
}

/// Encodes the snapshot body: the id counter plus every committed, live
/// entry with its absolute wall-clock deadline.
fn encode_snapshot_body(next_id: u64, entries: &[(EntryId, Option<u64>, Tuple)]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(next_id);
    w.put_u32(entries.len() as u32);
    for (id, deadline_ms, tuple) in entries {
        w.put_u64(*id);
        match deadline_ms {
            Some(ms) => {
                w.put_bool(true);
                w.put_u64(*ms);
            }
            None => w.put_bool(false),
        }
        tuple.encode(&mut w);
    }
    w.finish().to_vec()
}

type SnapshotEntries = Vec<(EntryId, Option<u64>, Tuple)>;

fn decode_snapshot_body(body: &[u8]) -> Result<(u64, SnapshotEntries), PayloadError> {
    let mut r = WireReader::new(bytes::Bytes::copy_from_slice(body));
    let next_id = r.get_u64()?;
    let n = r.get_u32()? as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = r.get_u64()?;
        let deadline_ms = if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        };
        entries.push((id, deadline_ms, Tuple::decode(&mut r)?));
    }
    if r.remaining() != 0 {
        return Err(PayloadError::Corrupt("trailing snapshot bytes"));
    }
    Ok((next_id, entries))
}

/// Durability: journaling, checkpointing and crash recovery. See the
/// `journal` module for the record format and `acc-durability` for the
/// WAL/snapshot machinery.
impl Space {
    /// Opens a durable space backed by `dir`: recovers whatever state the
    /// directory holds (snapshot plus committed WAL tail, exactly as a
    /// crashed process left it) and journals every subsequent mutation.
    ///
    /// Recovery semantics:
    ///
    /// * a torn WAL tail (crash mid-append) is truncated, never fatal;
    /// * entries whose lease deadline passed while the process was down are
    ///   dropped, not resurrected (deadlines are journaled as absolute
    ///   wall-clock times);
    /// * uncommitted transactional writes vanish and take/read locks are
    ///   released — a transaction either committed entirely or not at all.
    pub fn durable(
        name: impl Into<String>,
        dir: impl AsRef<Path>,
        opts: WalOptions,
    ) -> SpaceResult<SpaceHandle> {
        let dir = dir.as_ref();
        // Opening the WAL first truncates any torn tail, so the replay
        // below reads exactly the committed prefix.
        let journal = SpaceJournal::open(dir, opts).map_err(storage_err)?;
        let snapshot = SpaceJournal::load_snapshot(dir).map_err(storage_err)?;
        let replay = SpaceJournal::replay(dir).map_err(storage_err)?;

        let mut entries: BTreeMap<EntryId, (Option<u64>, Tuple)> = BTreeMap::new();
        let mut max_id = 0u64;
        let mut cut = 0u64;
        if let Some((cut_lsn, body)) = snapshot {
            cut = cut_lsn;
            let (snap_next, snap_entries) = decode_snapshot_body(&body)
                .map_err(|e| SpaceError::Storage(format!("snapshot: {e}")))?;
            max_id = snap_next;
            for (id, deadline_ms, tuple) in snap_entries {
                entries.insert(id, (deadline_ms, tuple));
            }
        }
        for rec in replay.records {
            if rec.lsn < cut {
                continue;
            }
            let op = Op::from_bytes(&rec.payload)
                .map_err(|e| SpaceError::Storage(format!("wal record {}: {e}", rec.lsn)))?;
            // Replay is idempotent per entry (insert-if-absent /
            // remove-if-present): records at or past the cut may describe
            // mutations the snapshot already observed.
            match op {
                Op::Write {
                    id,
                    deadline_ms,
                    tuple,
                } => {
                    max_id = max_id.max(id);
                    entries.entry(id).or_insert((deadline_ms, tuple));
                }
                Op::Take { id } | Op::Cancel { id } => {
                    max_id = max_id.max(id);
                    entries.remove(&id);
                }
                Op::Renew { id, deadline_ms } => {
                    max_id = max_id.max(id);
                    if let Some(slot) = entries.get_mut(&id) {
                        slot.0 = deadline_ms;
                    }
                }
                Op::TxnCommit { writes, takes } => {
                    for (id, deadline_ms, tuple) in writes {
                        max_id = max_id.max(id);
                        entries.entry(id).or_insert((deadline_ms, tuple));
                    }
                    for id in takes {
                        max_id = max_id.max(id);
                        entries.remove(&id);
                    }
                }
            }
        }

        let inst_now = Instant::now();
        let wall_now = journal::wall_now_ms();
        let mut restored = 0u64;
        let mut expired_dropped = 0u64;
        let space = Space::new(name);
        for (id, (deadline_ms, tuple)) in entries {
            max_id = max_id.max(id);
            let expires = match deadline_ms {
                None => None,
                Some(ms) => match journal::instant_from_wall(ms, inst_now, wall_now) {
                    // The lease ran out during the downtime: stay dead.
                    None => {
                        expired_dropped += 1;
                        continue;
                    }
                    some => some,
                },
            };
            let ty = tuple.type_name_arc();
            let shard = space.shard_for(&ty);
            {
                let mut state = space.lock_shard(&shard);
                state.entries.insert(
                    id,
                    Stored {
                        id,
                        tuple,
                        expires,
                        lock: LockState::Free,
                    },
                );
                state.note_pending(id);
                space.entry_index.lock().insert(id, ty);
            }
            restored += 1;
        }
        space.next_id.store(max_id, Ordering::Relaxed);
        let r = acc_telemetry::registry();
        r.counter("recovery.entries_restored").add(restored);
        r.counter("recovery.expired_dropped").add(expired_dropped);
        space
            .journal
            .set(journal)
            .unwrap_or_else(|_| unreachable!("journal set once on a fresh space"));
        Ok(space)
    }

    /// [`Space::durable`] with default WAL options and a generic name —
    /// the one-argument "bring my space back" entry point.
    pub fn recover(dir: impl AsRef<Path>) -> SpaceResult<SpaceHandle> {
        Space::durable("recovered", dir, WalOptions::default())
    }

    /// True when this space journals its mutations to disk.
    pub fn is_durable(&self) -> bool {
        self.journal().is_some()
    }

    /// Writes a snapshot of the current committed state and compacts the
    /// WAL segments it covers. Returns the snapshot's cut LSN. Fails with
    /// [`SpaceError::Storage`] on a non-durable space.
    ///
    /// The snapshot contains every live committed entry (take/read locks
    /// are recorded as free — an in-flight transaction that never commits
    /// must leave no trace) and skips uncommitted pending writes; lease
    /// deadlines are stored as absolute wall-clock times.
    pub fn checkpoint(&self) -> SpaceResult<u64> {
        let Some(j) = self.journal() else {
            return Err(SpaceError::Storage(
                "checkpoint on a space with no durability journal".into(),
            ));
        };
        // The gate makes the cut LSN safe: no transaction commit can be
        // between its journal append and its in-memory apply while we hold
        // it, and plain ops append+apply atomically under their shard lock.
        let _gate = j.commit_gate.lock();
        let cut = j.next_lsn();
        let now = Instant::now();
        let mut entries: Vec<(EntryId, Option<u64>, Tuple)> = Vec::new();
        for (_, shard) in self.all_shards() {
            let state = self.lock_shard(&shard);
            for s in state.entries.values() {
                if s.expired(now) || matches!(s.lock, LockState::PendingWrite(_)) {
                    continue;
                }
                entries.push((s.id, journal::wall_from_instant(s.expires), s.tuple.clone()));
            }
        }
        let body = encode_snapshot_body(self.next_id.load(Ordering::Relaxed), &entries);
        j.write_snapshot(cut, &body).map_err(storage_err)?;
        Ok(cut)
    }

    /// Forces journaled ops to stable storage regardless of the configured
    /// sync policy. No-op on a non-durable space.
    pub fn flush_journal(&self) -> SpaceResult<()> {
        match self.journal() {
            Some(j) => j.sync().map_err(storage_err),
            None => Ok(()),
        }
    }

    /// Test/diagnostic view: every live, committed entry as `(id, tuple)`,
    /// in id order. Used by the crash-recovery tests to compare a recovered
    /// space against a live one.
    #[doc(hidden)]
    pub fn dump(&self) -> Vec<(EntryId, Tuple)> {
        let now = Instant::now();
        let mut out = Vec::new();
        for (_, shard) in self.all_shards() {
            let state = self.lock_shard(&shard);
            for s in state.entries.values() {
                if !s.expired(now) && s.visible_to_read(None) {
                    out.push((s.id, s.tuple.clone()));
                }
            }
        }
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use crate::tuple::Tuple;
    use std::thread;

    fn task(id: i64) -> Tuple {
        Tuple::build("task").field("id", id).done()
    }

    #[test]
    fn write_then_take() {
        let s = Space::new("t");
        s.write(task(1)).unwrap();
        let got = s.take_if_exists(&Template::of_type("task")).unwrap();
        assert_eq!(got.unwrap().get_int("id"), Some(1));
        assert!(s
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn read_does_not_remove() {
        let s = Space::new("t");
        s.write(task(1)).unwrap();
        assert!(s
            .read_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_some());
        assert!(s
            .read_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_some());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fifo_matching_order() {
        let s = Space::new("t");
        for i in 0..5 {
            s.write(task(i)).unwrap();
        }
        for i in 0..5 {
            let got = s
                .take_if_exists(&Template::of_type("task"))
                .unwrap()
                .unwrap();
            assert_eq!(got.get_int("id"), Some(i));
        }
    }

    #[test]
    fn blocking_take_waits_for_writer() {
        let s = Space::new("t");
        let s2 = s.clone();
        let h = thread::spawn(move || {
            s2.take(&Template::of_type("task"), Some(Duration::from_secs(5)))
                .unwrap()
        });
        thread::sleep(Duration::from_millis(30));
        s.write(task(42)).unwrap();
        let got = h.join().unwrap().unwrap();
        assert_eq!(got.get_int("id"), Some(42));
    }

    #[test]
    fn blocking_wildcard_take_waits_for_writer() {
        let s = Space::new("t");
        let s2 = s.clone();
        let h = thread::spawn(move || {
            s2.take(&Template::any_type().done(), Some(Duration::from_secs(5)))
                .unwrap()
        });
        thread::sleep(Duration::from_millis(30));
        s.write(task(42)).unwrap();
        let got = h.join().unwrap().unwrap();
        assert_eq!(got.get_int("id"), Some(42));
    }

    #[test]
    fn take_timeout_returns_none() {
        let s = Space::new("t");
        let got = s
            .take(&Template::of_type("task"), Some(Duration::from_millis(20)))
            .unwrap();
        assert!(got.is_none());
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn close_wakes_blocked_takers() {
        let s = Space::new("t");
        let s2 = s.clone();
        let h = thread::spawn(move || s2.take(&Template::of_type("task"), None));
        thread::sleep(Duration::from_millis(30));
        s.close();
        assert_eq!(h.join().unwrap(), Err(SpaceError::Closed));
        assert!(s.write(task(1)).is_err());
    }

    #[test]
    fn close_wakes_blocked_wildcard_takers() {
        let s = Space::new("t");
        let s2 = s.clone();
        let h = thread::spawn(move || s2.take(&Template::any_type().done(), None));
        thread::sleep(Duration::from_millis(30));
        s.close();
        assert_eq!(h.join().unwrap(), Err(SpaceError::Closed));
    }

    #[test]
    fn lease_expiry_reclaims_entry() {
        let s = Space::new("t");
        s.write_leased(task(1), Lease::for_millis(10)).unwrap();
        thread::sleep(Duration::from_millis(25));
        assert!(s
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_none());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn renew_extends_lease() {
        let s = Space::new("t");
        let id = s.write_leased(task(1), Lease::for_millis(40)).unwrap();
        s.renew_lease(id, Lease::forever()).unwrap();
        thread::sleep(Duration::from_millis(60));
        assert!(s
            .read_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_some());
    }

    #[test]
    fn cancel_removes_by_id() {
        let s = Space::new("t");
        let id = s.write(task(7)).unwrap();
        let t = s.cancel(id).unwrap();
        assert_eq!(t.get_int("id"), Some(7));
        assert_eq!(s.cancel(id), Err(SpaceError::NoSuchEntry));
    }

    #[test]
    fn cancel_expired_entry_reports_lease_expired() {
        let s = Space::new("t");
        let id = s.write_leased(task(1), Lease::for_millis(5)).unwrap();
        thread::sleep(Duration::from_millis(15));
        assert_eq!(s.cancel(id), Err(SpaceError::LeaseExpired));
        // The expired entry was reclaimed by the failed cancel: a second
        // attempt no longer finds it at all.
        assert_eq!(s.cancel(id), Err(SpaceError::NoSuchEntry));
    }

    #[test]
    fn cancel_take_locked_entry_reports_entry_locked() {
        let s = Space::new("t");
        let id = s.write(task(1)).unwrap();
        let txn = s.txn().unwrap();
        txn.take_if_exists(&Template::of_type("task"))
            .unwrap()
            .unwrap();
        assert_eq!(s.cancel(id), Err(SpaceError::EntryLocked));
        txn.abort().unwrap();
        assert_eq!(s.cancel(id).unwrap().get_int("id"), Some(1));
    }

    #[test]
    fn cancel_read_locked_entry_reports_entry_locked() {
        let s = Space::new("t");
        let id = s.write(task(1)).unwrap();
        let txn = s.txn().unwrap();
        txn.read(&Template::of_type("task"), Some(Duration::ZERO))
            .unwrap()
            .unwrap();
        assert_eq!(s.cancel(id), Err(SpaceError::EntryLocked));
        txn.commit().unwrap();
        assert!(s.cancel(id).is_ok());
    }

    #[test]
    fn renew_expired_entry_reports_lease_expired() {
        let s = Space::new("t");
        let id = s.write_leased(task(1), Lease::for_millis(5)).unwrap();
        thread::sleep(Duration::from_millis(15));
        assert_eq!(
            s.renew_lease(id, Lease::forever()),
            Err(SpaceError::LeaseExpired)
        );
        assert_eq!(
            s.renew_lease(id, Lease::forever()),
            Err(SpaceError::NoSuchEntry)
        );
    }

    #[test]
    fn sweep_counts_expired() {
        let s = Space::new("t");
        s.write_leased(task(1), Lease::for_millis(5)).unwrap();
        s.write(task(2)).unwrap();
        thread::sleep(Duration::from_millis(15));
        assert_eq!(s.sweep(), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn txn_write_invisible_until_commit() {
        let s = Space::new("t");
        let txn = s.txn().unwrap();
        txn.write(task(1)).unwrap();
        assert!(s
            .read_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_none());
        txn.commit().unwrap();
        assert!(s
            .read_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_some());
    }

    #[test]
    fn txn_write_visible_to_self() {
        let s = Space::new("t");
        let txn = s.txn().unwrap();
        txn.write(task(1)).unwrap();
        assert!(txn
            .read(&Template::of_type("task"), Some(Duration::ZERO))
            .unwrap()
            .is_some());
        txn.abort().unwrap();
        assert!(s
            .read_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn txn_take_restored_on_abort() {
        let s = Space::new("t");
        s.write(task(1)).unwrap();
        let txn = s.txn().unwrap();
        let got = txn.take_if_exists(&Template::of_type("task")).unwrap();
        assert!(got.is_some());
        // Invisible to others while taken.
        assert!(s
            .read_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_none());
        txn.abort().unwrap();
        assert!(s
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_some());
    }

    #[test]
    fn txn_take_removed_on_commit() {
        let s = Space::new("t");
        s.write(task(1)).unwrap();
        let txn = s.txn().unwrap();
        txn.take_if_exists(&Template::of_type("task")).unwrap();
        txn.commit().unwrap();
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn txn_drop_aborts() {
        let s = Space::new("t");
        s.write(task(1)).unwrap();
        {
            let txn = s.txn().unwrap();
            txn.take_if_exists(&Template::of_type("task")).unwrap();
            // Dropped without commit — simulated crash.
        }
        assert!(s
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_some());
        assert_eq!(s.stats().txns_aborted, 1);
    }

    #[test]
    fn read_lock_blocks_other_take_but_not_read() {
        let s = Space::new("t");
        s.write(task(1)).unwrap();
        let txn = s.txn().unwrap();
        txn.read(&Template::of_type("task"), Some(Duration::ZERO))
            .unwrap()
            .unwrap();
        // Others can still read…
        assert!(s
            .read_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_some());
        // …but not take.
        assert!(s
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_none());
        txn.commit().unwrap();
        assert!(s
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_some());
    }

    #[test]
    fn take_back_own_pending_write() {
        let s = Space::new("t");
        let txn = s.txn().unwrap();
        txn.write(task(1)).unwrap();
        let got = txn.take_if_exists(&Template::of_type("task")).unwrap();
        assert!(got.is_some());
        txn.commit().unwrap();
        // The write never became visible: taking your own pending write
        // cancels it.
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn commit_wakes_blocked_taker() {
        let s = Space::new("t");
        let s2 = s.clone();
        let h = thread::spawn(move || {
            s2.take(&Template::of_type("task"), Some(Duration::from_secs(5)))
                .unwrap()
        });
        thread::sleep(Duration::from_millis(30));
        let txn = s.txn().unwrap();
        txn.write(task(5)).unwrap();
        txn.commit().unwrap();
        assert_eq!(h.join().unwrap().unwrap().get_int("id"), Some(5));
    }

    #[test]
    fn len_counts_only_read_visible_entries() {
        let s = Space::new("t");
        s.write(task(1)).unwrap();
        let txn = s.txn().unwrap();
        // A take-locked entry and an uncommitted write are both invisible
        // to plain readers, so neither may count.
        txn.take_if_exists(&Template::of_type("task"))
            .unwrap()
            .unwrap();
        txn.write(task(2)).unwrap();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        txn.commit().unwrap();
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn notify_fires_on_matching_write_only() {
        let s = Space::new("t");
        let (_, rx) = s.notify_channel(Template::build("task").eq("id", 2i64).done());
        s.write(task(1)).unwrap();
        s.write(task(2)).unwrap();
        let ev = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(ev.tuple.get_int("id"), Some(2));
        assert_eq!(ev.seq, 1);
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn notify_fires_on_commit_not_before() {
        let s = Space::new("t");
        let (_, rx) = s.notify_channel(Template::of_type("task"));
        let txn = s.txn().unwrap();
        txn.write(task(1)).unwrap();
        assert!(rx.try_recv().is_err());
        txn.commit().unwrap();
        assert!(rx.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn cancel_notify_stops_events() {
        let s = Space::new("t");
        let (cookie, rx) = s.notify_channel(Template::of_type("task"));
        s.cancel_notify(cookie).unwrap();
        s.write(task(1)).unwrap();
        assert!(rx.try_recv().is_err());
        assert_eq!(s.cancel_notify(cookie), Err(SpaceError::NoSuchRegistration));
    }

    #[test]
    fn listener_may_call_back_into_the_space() {
        // Regression: listeners used to be invoked while holding the
        // registration's lock, so a listener that wrote a reply tuple
        // (re-entering event dispatch) deadlocked the writing thread.
        let s = Space::new("t");
        let replier = s.clone();
        s.notify(
            Template::of_type("task"),
            Box::new(move |ev| {
                let id = ev.tuple.get_int("id").unwrap();
                replier
                    .write(Tuple::build("reply").field("id", id).done())
                    .unwrap();
            }),
        );
        s.write(task(7)).unwrap();
        let reply = s.read_if_exists(&Template::of_type("reply")).unwrap();
        assert_eq!(reply.unwrap().get_int("id"), Some(7));
    }

    #[test]
    fn many_concurrent_takers_each_get_distinct_task() {
        let s = Space::new("t");
        let n = 64;
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s2 = s.clone();
            handles.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(t) = s2
                    .take(&Template::of_type("task"), Some(Duration::from_millis(200)))
                    .unwrap()
                {
                    got.push(t.get_int("id").unwrap());
                }
                got
            }));
        }
        for i in 0..n {
            s.write(task(i)).unwrap();
        }
        let mut all: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn write_all_is_batched_and_ordered() {
        let s = Space::new("t");
        let ids = s.write_all((0..5).map(task).collect()).unwrap();
        assert_eq!(ids.len(), 5);
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "contiguous ids");
        for i in 0..5 {
            let got = s
                .take_if_exists(&Template::of_type("task"))
                .unwrap()
                .unwrap();
            assert_eq!(got.get_int("id"), Some(i), "FIFO preserved");
        }
    }

    #[test]
    fn write_all_fires_events_per_tuple() {
        let s = Space::new("t");
        let (_, rx) = s.notify_channel(Template::of_type("task"));
        s.write_all(vec![task(1), task(2), task(3)]).unwrap();
        let mut seen = 0;
        while rx.recv_timeout(Duration::from_millis(200)).is_ok() {
            seen += 1;
        }
        assert_eq!(seen, 3);
    }

    #[test]
    fn write_all_wakes_blocked_taker() {
        let s = Space::new("t");
        let s2 = s.clone();
        let h = thread::spawn(move || {
            s2.take_up_to(&Template::of_type("task"), 10, Some(Duration::from_secs(5)))
                .unwrap()
        });
        thread::sleep(Duration::from_millis(30));
        s.write_all((0..4).map(task).collect()).unwrap();
        let got = h.join().unwrap();
        assert_eq!(got.len(), 4, "first blocks, rest drained");
    }

    #[test]
    fn write_all_leased_honors_lease() {
        let s = Space::new("t");
        let ids = s
            .write_all_leased((0..3).map(task).collect(), Lease::for_millis(100))
            .unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(s.len(), 3);
        thread::sleep(Duration::from_millis(150));
        assert_eq!(s.len(), 0);
        assert!(s
            .take_if_exists(&Template::of_type("task"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn take_up_to_caps_at_max() {
        let s = Space::new("t");
        s.write_all((0..10).map(task).collect()).unwrap();
        let got = s
            .take_up_to(&Template::of_type("task"), 3, Some(Duration::ZERO))
            .unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(s.len(), 7);
        let none = s
            .take_up_to(&Template::of_type("task"), 0, Some(Duration::ZERO))
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn take_up_to_counts_a_miss_only_when_nothing_is_returned() {
        let s = Space::new("t");
        s.write_all((0..3).map(task).collect()).unwrap();
        let tmpl = Template::of_type("task");
        // A partly filled batch (3 of 10) returned tuples: not a miss.
        let got = s.take_up_to(&tmpl, 10, Some(Duration::ZERO)).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(s.stats().takes, 3);
        assert_eq!(s.stats().misses, 0);
        // An empty one is exactly one.
        assert!(s
            .take_up_to(&tmpl, 10, Some(Duration::ZERO))
            .unwrap()
            .is_empty());
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn take_up_to_timeout_empty() {
        let s = Space::new("t");
        let got = s
            .take_up_to(
                &Template::of_type("task"),
                5,
                Some(Duration::from_millis(20)),
            )
            .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn stats_track_operations() {
        let s = Space::new("t");
        s.write(task(1)).unwrap();
        s.read_if_exists(&Template::of_type("task")).unwrap();
        s.take_if_exists(&Template::of_type("task")).unwrap();
        s.take_if_exists(&Template::of_type("task")).unwrap();
        let st = s.stats();
        assert_eq!(st.writes, 1);
        assert_eq!(st.reads, 1);
        assert_eq!(st.takes, 1);
        assert_eq!(st.misses, 1);
        assert!(st.bytes_written > 0);
    }

    #[test]
    fn exact_match_lookups_use_the_field_index() {
        let s = Space::new("t");
        for i in 0..100 {
            s.write(task(i)).unwrap();
        }
        let tmpl = Template::build("task").eq("id", 99i64).done();
        let got = s.read_if_exists(&tmpl).unwrap().unwrap();
        assert_eq!(got.get_int("id"), Some(99));
        assert_eq!(s.stats().index_hits, 1);
        // A type-only scan cannot use the index.
        s.take_if_exists(&Template::of_type("task"))
            .unwrap()
            .unwrap();
        assert_eq!(s.stats().index_misses, 1);
    }

    #[test]
    fn index_stays_consistent_across_take_and_rewrite() {
        let s = Space::new("t");
        let tmpl = |i: i64| Template::build("task").eq("id", i).done();
        s.write(task(1)).unwrap();
        s.write(task(1)).unwrap();
        s.write(task(2)).unwrap();
        // Two entries share the value; FIFO picks the older one first.
        let a = s.take_if_exists(&tmpl(1)).unwrap().unwrap();
        assert_eq!(a.get_int("id"), Some(1));
        assert!(s.take_if_exists(&tmpl(1)).unwrap().is_some());
        assert!(s.take_if_exists(&tmpl(1)).unwrap().is_none());
        // The id=2 entry is untouched and still indexed.
        assert!(s.read_if_exists(&tmpl(2)).unwrap().is_some());
        // Rewriting a taken value re-indexes it.
        s.write(task(1)).unwrap();
        assert!(s.take_if_exists(&tmpl(1)).unwrap().is_some());
    }

    #[test]
    fn indexed_lookup_respects_txn_locks() {
        let s = Space::new("t");
        s.write(task(3)).unwrap();
        let tmpl = Template::build("task").eq("id", 3i64).done();
        let txn = s.txn().unwrap();
        txn.take_if_exists(&tmpl).unwrap().unwrap();
        // Index still knows the entry, but visibility must hide it.
        assert!(s.read_if_exists(&tmpl).unwrap().is_none());
        assert!(s.take_if_exists(&tmpl).unwrap().is_none());
        txn.abort().unwrap();
        assert!(s.take_if_exists(&tmpl).unwrap().is_some());
    }

    #[test]
    fn type_wildcard_template_scans_all_types() {
        let s = Space::new("t");
        s.write(Tuple::build("alpha").field("x", 1i64).done())
            .unwrap();
        s.write(Tuple::build("beta").field("x", 1i64).done())
            .unwrap();
        let all = s
            .read_all(&Template::any_type().eq("x", 1i64).done())
            .unwrap();
        assert_eq!(all.len(), 2);
    }

    fn durable_dir(label: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU64;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("acc-space-{}-{label}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_space_recovers_writes_and_takes() {
        let dir = durable_dir("roundtrip");
        {
            let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
            assert!(s.is_durable());
            for i in 0..10 {
                s.write(task(i)).unwrap();
            }
            for _ in 0..3 {
                s.take_if_exists(&Template::of_type("task")).unwrap();
            }
            s.cancel(s.write(task(99)).unwrap()).unwrap();
            // No clean shutdown: recovery must work from the raw files.
        }
        let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
        let ids: Vec<i64> = r
            .dump()
            .into_iter()
            .map(|(_, t)| t.get_int("id").unwrap())
            .collect();
        assert_eq!(ids, vec![3, 4, 5, 6, 7, 8, 9]);
        // FIFO order and id allocation continue where they left off.
        let got = r.take_if_exists(&Template::of_type("task")).unwrap();
        assert_eq!(got.unwrap().get_int("id"), Some(3));
        let fresh = r.write(task(100)).unwrap();
        assert!(fresh > 11, "recovered id counter must not reuse ids");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_expired_during_downtime_is_not_resurrected() {
        let dir = durable_dir("lease");
        {
            let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
            s.write_leased(task(1), Lease::for_millis(30)).unwrap();
            s.write(task(2)).unwrap();
        }
        // The lease runs out while no process has the space open.
        thread::sleep(Duration::from_millis(60));
        let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
        let ids: Vec<i64> = r
            .dump()
            .into_iter()
            .map(|(_, t)| t.get_int("id").unwrap())
            .collect();
        assert_eq!(ids, vec![2], "expired entry must stay dead after replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn renewed_lease_survives_recovery() {
        let dir = durable_dir("renew");
        {
            let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
            let id = s.write_leased(task(1), Lease::for_millis(30)).unwrap();
            s.renew_lease(id, Lease::for_millis(60_000)).unwrap();
        }
        thread::sleep(Duration::from_millis(60));
        let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
        assert_eq!(r.dump().len(), 1, "renewal must be replayed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_txn_survives_recovery_uncommitted_does_not() {
        let dir = durable_dir("txn");
        {
            let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
            s.write(task(0)).unwrap();
            let committed = s.txn().unwrap();
            committed.write(task(1)).unwrap();
            committed
                .take_if_exists(&Template::build("task").eq("id", 0i64).done())
                .unwrap()
                .unwrap();
            committed.commit().unwrap();
            // This transaction is still open at "crash" time.
            let open = s.txn().unwrap();
            open.write(task(2)).unwrap();
            std::mem::forget(open);
        }
        let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
        let ids: Vec<i64> = r
            .dump()
            .into_iter()
            .map(|(_, t)| t.get_int("id").unwrap())
            .collect();
        assert_eq!(
            ids,
            vec![1],
            "commit is atomic: its write landed, its take landed, \
             and the uncommitted write vanished"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_and_recovery_uses_snapshot_plus_tail() {
        let dir = durable_dir("ckpt");
        {
            let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
            for i in 0..20 {
                s.write(task(i)).unwrap();
            }
            for _ in 0..5 {
                s.take_if_exists(&Template::of_type("task")).unwrap();
            }
            let cut = s.checkpoint().unwrap();
            assert_eq!(cut, 25);
            // Ops after the checkpoint live only in the WAL tail.
            s.write(task(100)).unwrap();
            s.take_if_exists(&Template::of_type("task")).unwrap();
        }
        let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
        let ids: Vec<i64> = r
            .dump()
            .into_iter()
            .map(|(_, t)| t.get_int("id").unwrap())
            .collect();
        let expected: Vec<i64> = (6..20).chain([100]).collect();
        assert_eq!(ids, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_on_plain_space_is_a_storage_error() {
        let s = Space::new("plain");
        assert!(!s.is_durable());
        assert!(matches!(s.checkpoint(), Err(SpaceError::Storage(_))));
        assert_eq!(s.flush_journal(), Ok(()));
    }

    #[test]
    fn durable_batch_writes_recover_in_order() {
        let dir = durable_dir("batch");
        {
            let s = Space::durable("d", &dir, WalOptions::default()).unwrap();
            s.write_all((0..8).map(task).collect()).unwrap();
        }
        let r = Space::durable("d", &dir, WalOptions::default()).unwrap();
        for i in 0..8 {
            let got = r
                .take_if_exists(&Template::of_type("task"))
                .unwrap()
                .unwrap();
            assert_eq!(got.get_int("id"), Some(i));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_types_do_not_contend_for_wakeups() {
        // One taker per type; each write must wake (at most) its own
        // type's waiter and every taker must still drain its own queue.
        let s = Space::new("t");
        let types = 4;
        let per = 16;
        let mut handles = Vec::new();
        for t in 0..types {
            let s2 = s.clone();
            handles.push(thread::spawn(move || {
                let tmpl = Template::of_type(format!("ty{t}"));
                let mut got = 0;
                for _ in 0..per {
                    s2.take(&tmpl, Some(Duration::from_secs(5)))
                        .unwrap()
                        .unwrap();
                    got += 1;
                }
                got
            }));
        }
        for i in 0..per {
            for t in 0..types {
                s.write(Tuple::build(format!("ty{t}")).field("n", i as i64).done())
                    .unwrap();
            }
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), per);
        }
        assert_eq!(s.len(), 0);
    }
}
