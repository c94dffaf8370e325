//! The flight recorder: an always-on, bounded ring of the last N trace
//! records per thread, cheap enough to leave installed in production. It
//! is where every [`span!`](crate::span) and [`event!`](crate::event)
//! goes, and [`install`] is what turns them on.
//!
//! Each thread records into its own ring, reached through a thread-local
//! handle, and a record is twelve machine words written in place: no
//! allocation, no lock, no read-modify-write instruction (see
//! the `slot` module for the layout and the publication protocol). The
//! point is crash forensics: a worker that dies mid-task leaves its last
//! seconds of spans readable, either on demand (the `/spans` endpoint
//! calls [`dump_json`]) or post-mortem (the panic hook installed by
//! [`install_panic_hook`] writes `flight-<pid>.json`).
//!
//! Rings are bounded; when one overflows the oldest record is dropped and
//! counted in `telemetry.flight.dropped_events`, so loss is visible
//! rather than silent. (A full ring drops one record per record written,
//! so each thread adds its drops to the shared counter
//! [`DROP_REPORT_BATCH`] at a time; the counter trails by less than that
//! per thread.) A thread's rings outlive it, for the post-mortem, until
//! the rings of ended threads together exceed [`DEAD_THREAD_SLOTS`].
//!
//! ## Tail-based retention
//!
//! FIFO eviction is the wrong policy for forensics: the traces worth
//! keeping (the straggler task, the errored retry) are exactly the ones
//! that finished long ago and age out first under load. A caller that
//! decides — *after* a trace ends — that it was interesting can call
//! [`retain_trace`]; from then on, records belonging to that trace are
//! moved to a per-thread `kept` ring on eviction instead of being
//! dropped. The decision is tail-based (made at task end, against a
//! percentile of the task's predecessors) rather than head-based
//! sampling, so nothing needs to guess upfront which traces will matter.
//! The eviction path checks the retained set through a per-thread copy,
//! refreshed only when the set's generation number has moved: with
//! nothing retained it pays one relaxed load, with something retained a
//! second load and a binary search — never the set's lock.

use std::cell::{OnceCell, RefCell};
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::clock::Scale;
use crate::json::Json;
use crate::registry::registry;
use crate::trace::FieldRef;

use self::slot::{Ring, Slot, Snapshot};

/// Records retained per thread before the oldest is dropped.
pub const DEFAULT_CAPACITY: usize = 2048;

/// Retained trace ids kept at once; the oldest flag is forgotten first.
/// Records already moved to `kept` rings stay there regardless.
pub const RETAINED_TRACE_CAPACITY: usize = 256;

/// Evictions a thread counts privately before adding them to
/// `telemetry.flight.dropped_events`.
pub const DROP_REPORT_BATCH: u32 = 64;

/// Which of the three record shapes a ring slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecordKind {
    /// A span was entered.
    Enter = 0,
    /// A span was exited; the record carries the time spent inside.
    Exit = 1,
    /// A point event.
    Event = 2,
}

/// One record's parts, borrowed from the `span!`/`event!` call site.
pub(crate) struct Parts<'a> {
    pub(crate) kind: RecordKind,
    pub(crate) name: &'static str,
    /// Field names and values, paired by position.
    pub(crate) keys: &'static [&'static str],
    pub(crate) values: &'a [FieldRef<'a>],
    pub(crate) trace_id: u64,
    pub(crate) span_id: u64,
    pub(crate) parent_span_id: u64,
    /// [`crate::clock::ticks`] at the record.
    pub(crate) ticks: u64,
    /// Ticks spent inside the span (exit records only).
    pub(crate) elapsed_ticks: u64,
}

/// The packed record, the ring of them, and the protocol that lets a
/// dumping thread read a ring its owner is writing without either one
/// taking a lock. All `unsafe` in this crate's record path is here, and
/// everything it relies on is private to this module.
mod slot {
    use std::sync::atomic::{fence, AtomicU64, Ordering};
    use std::sync::OnceLock;

    use super::{FieldRef, Parts, RecordKind, DEFAULT_CAPACITY};

    /// Fields a slot holds in place: what every per-task record needs.
    const INLINE_FIELDS: usize = 2;
    /// Words per record (96 bytes): eight of header, two per inline field.
    const WORDS: usize = VALUES + 2 * INLINE_FIELDS;
    /// Longest text value a slot holds in place, in bytes.
    pub(super) const INLINE_STR_LEN: usize = 14;

    // Word indices. `META` packs the name's length (bits 0..32), the
    // kind (32..40) and the field count (40..48).
    const NAME_PTR: usize = 0;
    const META: usize = 1;
    const TRACE: usize = 2;
    const SPAN: usize = 3;
    const PARENT: usize = 4;
    const TICKS: usize = 5;
    const ELAPSED: usize = 6;
    const KEYS_PTR: usize = 7;
    const VALUES: usize = 8;

    /// Field-count marker: the fields did not fit and live in the
    /// owning thread's spill list instead.
    const SPILLED: u64 = 0xFF;

    const TAG_I64: u8 = 0;
    const TAG_U64: u8 = 1;
    const TAG_F64: u8 = 2;
    const TAG_BOOL: u8 = 3;
    const TAG_STR: u8 = 4;

    fn field_count(meta: u64) -> u64 {
        (meta >> 40) & 0xFF
    }

    /// `text` (at most [`INLINE_STR_LEN`] bytes) as a little-endian
    /// integer, assembled in registers from fixed-size loads — two
    /// overlapping ones cover any length. (Staging the bytes in a stack
    /// buffer instead costs a `memcpy` call or, with overlapping stores,
    /// a failed store-to-load forward: ~7 ns either way, a fifth of the
    /// record.)
    fn short_text_bits(text: &[u8]) -> u128 {
        let n = text.len();
        if n >= 8 {
            let head = u64::from_le_bytes(text[..8].try_into().expect("8 bytes"));
            let tail = u64::from_le_bytes(text[n - 8..].try_into().expect("8 bytes"));
            // `tail`'s top `n - 8` bytes are `text[8..]`.
            u128::from(head) | (u128::from(tail) >> (8 * (16 - n))) << 64
        } else if n >= 4 {
            let head = u32::from_le_bytes(text[..4].try_into().expect("4 bytes"));
            let tail = u32::from_le_bytes(text[n - 4..].try_into().expect("4 bytes"));
            u128::from(u64::from(head) | (u64::from(tail) >> (8 * (8 - n))) << 32)
        } else {
            text.iter()
                .rev()
                .fold(0, |bits, byte| bits << 8 | u128::from(*byte))
        }
    }

    /// The two words of one inline field; `None` if it does not fit. A
    /// text field is its tag, its length, then its bytes.
    #[inline]
    fn pack_value(value: &FieldRef<'_>) -> Option<[u64; 2]> {
        Some(match *value {
            FieldRef::I64(v) => [u64::from(TAG_I64), v as u64],
            FieldRef::U64(v) => [u64::from(TAG_U64), v],
            FieldRef::F64(v) => [u64::from(TAG_F64), v.to_bits()],
            FieldRef::Bool(v) => [u64::from(TAG_BOOL), u64::from(v)],
            FieldRef::Str(s) => {
                if s.len() > INLINE_STR_LEN {
                    return None;
                }
                let bits = short_text_bits(s.as_bytes());
                [
                    u64::from(TAG_STR) | (s.len() as u64) << 8 | (bits as u64) << 16,
                    (bits >> 48) as u64,
                ]
            }
        })
    }

    /// One inline field's dump text.
    fn unpack_value(words: [u64; 2]) -> String {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&words[0].to_le_bytes());
        buf[8..].copy_from_slice(&words[1].to_le_bytes());
        match buf[0] {
            TAG_I64 => FieldRef::I64(words[1] as i64).to_string(),
            TAG_U64 => FieldRef::U64(words[1]).to_string(),
            TAG_F64 => FieldRef::F64(f64::from_bits(words[1])).to_string(),
            TAG_BOOL => FieldRef::Bool(words[1] != 0).to_string(),
            _ => {
                let len = usize::from(buf[1]).min(INLINE_STR_LEN);
                String::from_utf8_lossy(&buf[2..2 + len]).into_owned()
            }
        }
    }

    /// One ring slot. Every word is an atomic so that a reader's copy
    /// racing the owner's write is merely garbage to be discarded (see
    /// [`Ring::snapshot`]), not a data race; all accesses are relaxed
    /// loads and stores, which cost what plain ones do.
    pub(super) struct Slot([AtomicU64; WORDS]);

    impl Slot {
        fn store(&self, word: usize, value: u64) {
            self.0[word].store(value, Ordering::Relaxed);
        }

        fn load(&self, word: usize) -> u64 {
            self.0[word].load(Ordering::Relaxed)
        }

        /// Owner only: the trace id of the record held.
        pub(super) fn trace_id(&self) -> u64 {
            self.load(TRACE)
        }

        /// Owner only: whether the fields of the record held are in the
        /// spill list.
        pub(super) fn spilled(&self) -> bool {
            field_count(self.load(META)) == SPILLED
        }

        /// Owner only, between [`Ring::claim`] and [`Ring::publish`]:
        /// writes one record over whatever the slot held. Returns false
        /// when the fields did not fit in place (more than two, or a
        /// text value over [`INLINE_STR_LEN`] bytes): the slot then says
        /// so and the caller must put them in its spill list.
        #[inline]
        pub(super) fn write(&self, parts: &Parts<'_>) -> bool {
            let mut count = parts.keys.len().min(parts.values.len());
            let mut fits = count <= INLINE_FIELDS;
            if fits {
                for (i, value) in parts.values[..count].iter().enumerate() {
                    let Some([tagged, payload]) = pack_value(value) else {
                        fits = false;
                        break;
                    };
                    self.store(VALUES + 2 * i, tagged);
                    self.store(VALUES + 2 * i + 1, payload);
                }
            }
            if !fits {
                count = SPILLED as usize;
            }
            // Value words past the count keep stale contents; the count
            // keeps readers off them. The keys pointer is only ever read
            // back together with a count of at most `keys.len()`.
            self.store(KEYS_PTR, parts.keys.as_ptr() as usize as u64);
            self.store(NAME_PTR, parts.name.as_ptr() as usize as u64);
            // A name cannot be 4 GiB long; if one were, a shorter prefix
            // is still inside the same allocation.
            let name_len = parts.name.len().min(u32::MAX as usize) as u64;
            self.store(
                META,
                name_len | (parts.kind as u64) << 32 | (count as u64) << 40,
            );
            self.store(TRACE, parts.trace_id);
            self.store(SPAN, parts.span_id);
            self.store(PARENT, parts.parent_span_id);
            self.store(TICKS, parts.ticks);
            self.store(ELAPSED, parts.elapsed_ticks);
            fits
        }

        /// Owner only, between [`Ring::claim`] and [`Ring::publish`] on
        /// `self`'s ring: makes this slot a copy of `from`, a slot of
        /// another ring of the same owner.
        pub(super) fn copy_from(&self, from: &Slot) {
            for (to, from) in self.0.iter().zip(&from.0) {
                to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
    }

    /// One record's words, copied out of a slot.
    ///
    /// Invariant: the twelve words are those one [`Slot::write`] call
    /// left in a slot — never a mix of two records. [`Ring::snapshot`]
    /// is the only constructor and establishes exactly that. The pointer
    /// words therefore always pair with the lengths packed beside them.
    pub(super) struct Snapshot([u64; WORDS]);

    impl Snapshot {
        pub(super) fn kind(&self) -> RecordKind {
            match (self.0[META] >> 32) & 0xFF {
                0 => RecordKind::Enter,
                1 => RecordKind::Exit,
                _ => RecordKind::Event,
            }
        }

        pub(super) fn name(&self) -> &'static str {
            let len = (self.0[META] & 0xFFFF_FFFF) as usize;
            let ptr = self.0[NAME_PTR] as usize as *const u8;
            // SAFETY: by the type's invariant both words come from one
            // `Slot::write` call, which stored the address of a
            // `&'static str` and a length no greater than that string's:
            // the range is readable, initialised and immutable for the
            // rest of the program. (`u8` has no alignment requirement.)
            let bytes = unsafe { std::slice::from_raw_parts(ptr, len) };
            // Checked, not assumed: a name over 4 GiB would have been cut
            // mid-character.
            std::str::from_utf8(bytes).unwrap_or("?")
        }

        pub(super) fn trace_id(&self) -> u64 {
            self.0[TRACE]
        }

        pub(super) fn span_id(&self) -> u64 {
            self.0[SPAN]
        }

        pub(super) fn parent_span_id(&self) -> u64 {
            self.0[PARENT]
        }

        pub(super) fn ticks(&self) -> u64 {
            self.0[TICKS]
        }

        pub(super) fn elapsed_ticks(&self) -> u64 {
            self.0[ELAPSED]
        }

        /// True when the fields live in the owning thread's spill list.
        pub(super) fn spilled(&self) -> bool {
            field_count(self.0[META]) == SPILLED
        }

        /// The fields held in place, as text (none for a spilled record).
        pub(super) fn inline_fields(&self) -> Vec<(&'static str, String)> {
            if self.spilled() {
                return Vec::new();
            }
            let count = field_count(self.0[META]) as usize;
            let ptr = self.0[KEYS_PTR] as usize as *const &'static str;
            // SAFETY: by the type's invariant the pointer and the count
            // come from one `Slot::write` call, which stored the address
            // of a `&'static [&'static str]` and a count no greater than
            // its length: `count` initialised, immutable, properly
            // aligned elements are readable there for the rest of the
            // program (for `count == 0` the pointer is the slice's own
            // dangling but aligned one, which a zero-length slice allows).
            let keys = unsafe { std::slice::from_raw_parts(ptr, count) };
            keys.iter()
                .enumerate()
                .map(|(i, key)| {
                    let at = VALUES + 2 * i;
                    (*key, unpack_value([self.0[at], self.0[at + 1]]))
                })
                .collect()
        }
    }

    /// Slots in a ring's first chunk. Chunks are allocated as the ring
    /// first reaches them and double in size — 8, 8, 16, 32, … slots —
    /// so a thread's ring costs in proportion to what the thread has
    /// recorded: 768 bytes for a short-lived pool thread's handful of
    /// spans, the full 192 KiB only once the ring has wrapped.
    const FIRST_CHUNK: usize = 8;
    const CHUNKS: usize = (DEFAULT_CAPACITY / FIRST_CHUNK).ilog2() as usize + 1;
    const CAPACITY: u64 = DEFAULT_CAPACITY as u64;
    const _: () = assert!(FIRST_CHUNK << (CHUNKS - 1) == DEFAULT_CAPACITY);

    /// A single-writer ring of [`DEFAULT_CAPACITY`] slots that any thread
    /// may read while the owner writes.
    ///
    /// Records are numbered from 0 in write order; record `n` lives in
    /// slot `n % CAPACITY`. `head` is the number of records written and
    /// *published*. The owner [claims](Ring::claim) the next slot, writes
    /// the record's words with relaxed stores and then
    /// [publishes](Ring::publish) it with a release store of `head`; on
    /// x86-64 every one of these is a plain `mov`. A reader copies slots
    /// with relaxed loads and afterwards works out from `head` which of
    /// its copies no write can have overlapped ([`Ring::snapshot`]) —
    /// the seqlock pattern, with the record number as the sequence.
    pub(super) struct Ring {
        head: AtomicU64,
        /// Records numbered below this were cleared.
        floor: AtomicU64,
        chunks: Box<[OnceLock<Box<[Slot]>>]>,
    }

    #[cold]
    fn new_chunk(slots: usize) -> Box<[Slot]> {
        (0..slots)
            .map(|_| Slot(std::array::from_fn(|_| AtomicU64::new(0))))
            .collect()
    }

    impl Ring {
        pub(super) fn new() -> Ring {
            Ring {
                head: AtomicU64::new(0),
                floor: AtomicU64::new(0),
                chunks: (0..CHUNKS).map(|_| OnceLock::new()).collect(),
            }
        }

        /// The chunk holding record `number`'s slot, the slot's place in
        /// it, and the chunk's size: chunk 0 is slots `0..8`, chunk
        /// `k >= 1` is slots `8·2^(k-1) .. 8·2^k`.
        fn chunk_of(&self, number: u64) -> (&OnceLock<Box<[Slot]>>, usize, usize) {
            let index = (number % CAPACITY) as usize;
            if index < FIRST_CHUNK {
                return (&self.chunks[0], index, FIRST_CHUNK);
            }
            let start = 1 << index.ilog2();
            let chunk = (start / FIRST_CHUNK).ilog2() as usize + 1;
            (&self.chunks[chunk], index - start, start)
        }

        /// The number of the oldest record held when `head` records have
        /// been published: not overwritten, not cleared.
        fn oldest(&self, head: u64) -> u64 {
            self.floor
                .load(Ordering::Relaxed)
                .max(head.saturating_sub(CAPACITY))
        }

        /// Records currently held.
        pub(super) fn len(&self) -> usize {
            let head = self.head.load(Ordering::Acquire);
            head.saturating_sub(self.oldest(head)) as usize
        }

        /// Slots allocated so far.
        pub(super) fn slots(&self) -> usize {
            self.chunks
                .iter()
                .filter_map(|chunk| chunk.get())
                .map(|slots| slots.len())
                .sum()
        }

        /// Hides every record written so far.
        pub(super) fn clear(&self) {
            self.floor
                .store(self.head.load(Ordering::Acquire), Ordering::Relaxed);
        }

        /// Owner only: the slot the next record goes into, that record's
        /// number, and the number of the record the slot still holds —
        /// `None` while the ring has room, or if that record was
        /// cleared. The caller may overwrite the slot and must then
        /// [`publish`](Ring::publish).
        #[inline]
        pub(super) fn claim(&self) -> (&Slot, u64, Option<u64>) {
            let number = self.head.load(Ordering::Relaxed);
            let (chunk, at, slots) = self.chunk_of(number);
            let slot = &chunk.get_or_init(|| new_chunk(slots))[at];
            let held = number
                .checked_sub(CAPACITY)
                .filter(|held| *held >= self.floor.load(Ordering::Relaxed));
            // Orders the caller's stores to the slot after the store that
            // published record `number - 1`: a reader that sees any word
            // of the coming write is thereby guaranteed to also see
            // `head >= number`, which is how it knows to distrust its
            // copy of this slot.
            fence(Ordering::Release);
            (slot, number, held)
        }

        /// Owner only: makes record `number`, fully written into the slot
        /// [`claim`](Ring::claim) returned, visible to readers.
        pub(super) fn publish(&self, number: u64) {
            self.head.store(number + 1, Ordering::Release);
        }

        /// Any thread: every record the ring holds, oldest first, each
        /// with its number. Records the owner overwrote (or may have
        /// been overwriting) while this ran are left out.
        pub(super) fn snapshot(&self) -> Vec<(u64, Snapshot)> {
            // Acquire: every record below `published` was fully written
            // before this value was stored.
            let published = self.head.load(Ordering::Acquire);
            let oldest = self.oldest(published);
            let mut copies = Vec::with_capacity(published.saturating_sub(oldest) as usize);
            for number in oldest..published {
                let (chunk, at, _) = self.chunk_of(number);
                if let Some(slots) = chunk.get() {
                    let words = std::array::from_fn(|i| slots[at].load(i));
                    copies.push((number, words));
                }
            }
            // Pairs with the fence in `claim`: if any load above saw a
            // word of record `m`'s write, the load below sees `head >= m`.
            fence(Ordering::Acquire);
            let now = self.head.load(Ordering::Relaxed);
            // So the newest write any copy can have seen is that of
            // record `now`, which lands in the slot of `now - CAPACITY`:
            // copies numbered above that are whole.
            let whole_from = (now + 1).saturating_sub(CAPACITY);
            copies
                .into_iter()
                .filter(|(number, _)| *number >= whole_from)
                .map(|(number, words)| (number, Snapshot(words)))
                .collect()
        }
    }
}

/// Text values up to this many bytes (and up to two fields a record) are
/// stored inside the ring slot; longer ones are kept, exactly, in a
/// per-thread side list at the cost of an allocation.
pub const INLINE_STR_LEN: usize = slot::INLINE_STR_LEN;

/// A field set that did not fit its slot, as the text a dump shows.
type SpilledFields = Box<[(&'static str, String)]>;

/// Spilled field sets by record number, oldest first — one list per ring.
#[derive(Default)]
struct Spill {
    live: VecDeque<(u64, SpilledFields)>,
    kept: VecDeque<(u64, SpilledFields)>,
}

/// Removes and returns the entry for record `number`, discarding any
/// older ones (cleared, or lost to a racing `clear`).
fn take_spilled(list: &mut VecDeque<(u64, SpilledFields)>, number: u64) -> Option<SpilledFields> {
    while list.front().is_some_and(|(n, _)| *n < number) {
        list.pop_front();
    }
    if list.front().is_some_and(|(n, _)| *n == number) {
        list.pop_front().map(|(_, fields)| fields)
    } else {
        None
    }
}

/// A thread's rings, shared between the thread (through its
/// [`Registration`]) and the recorder's thread list. Rings outlive their
/// thread — a dump taken after a worker died must still show its last
/// spans — but not without bound: see [`DEAD_THREAD_SLOTS`].
struct ThreadRing {
    label: String,
    /// The FIFO ring every record goes into.
    live: Ring,
    /// Records evicted from `live` whose trace is retained.
    kept: Ring,
    /// Locked by the owner only to add, move or drop a spilled field set
    /// (rare), and by dumps.
    spill: Mutex<Spill>,
    /// Evictions not yet added to the shared counter. Owner only.
    unreported_drops: AtomicU32,
    /// Set when the owning thread has ended.
    exited: AtomicBool,
}

/// Ring slots the rings of *ended* threads may hold between them — two
/// threads' worth. Servers serve each connection on a thread of its own
/// (the space server, the observer's HTTP, the SNMP agent), so a
/// long-lived server whose clients come and go would otherwise grow by a
/// ring per connection for ever. When a newly registered thread finds the
/// budget exceeded, the longest-registered ended threads' rings are
/// freed, their records counted as dropped.
pub const DEAD_THREAD_SLOTS: usize = 2 * DEFAULT_CAPACITY;

struct Recorder {
    /// Every thread's rings, appended on first record from that thread.
    /// Locked only to register a thread or to dump.
    threads: Mutex<Vec<Arc<ThreadRing>>>,
    /// `telemetry.flight.dropped_events`, resolved once.
    dropped: Arc<crate::Counter>,
}

static RECORDER: OnceLock<Recorder> = OnceLock::new();
/// Whether the recorder is on: the one switch for every span and event.
static ON: AtomicBool = AtomicBool::new(false);
static THREAD_SEQ: AtomicUsize = AtomicUsize::new(0);
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static PANIC_HOOK: OnceLock<()> = OnceLock::new();

/// Trace ids flagged for retention, oldest first (bounded FIFO).
static RETAINED: Mutex<VecDeque<u64>> = Mutex::new(VecDeque::new());
/// Fast-path guard: true iff [`RETAINED`] is non-empty, so the common
/// eviction (nothing retained) pays one relaxed load.
static ANY_RETAINED: AtomicBool = AtomicBool::new(false);
/// Bumped, under the [`RETAINED`] lock, by every change to the set.
static RETAINED_GENERATION: AtomicU64 = AtomicU64::new(0);

/// A thread's copy of the retained set, as of `generation`.
struct RetainedCopy {
    generation: u64,
    /// Sorted.
    ids: Vec<u64>,
    /// The last id looked up and the answer: records leave a ring in the
    /// order they entered it, a job's worth at a time. Starts as the one
    /// id that is never retained.
    last: (u64, bool),
}

/// What a thread holds of the recorder: its rings, from its first record
/// on, and its copy of the retained set. Dropped with the thread, which
/// is how the recorder learns the thread has ended.
struct Registration {
    ring: OnceCell<Arc<ThreadRing>>,
    retained: RefCell<RetainedCopy>,
}

impl Drop for Registration {
    fn drop(&mut self) {
        if let Some(ring) = self.ring.get() {
            ring.exited.store(true, Ordering::Release);
        }
    }
}

thread_local! {
    static REGISTRATION: Registration = const {
        Registration {
            ring: OnceCell::new(),
            retained: RefCell::new(RetainedCopy {
                generation: 0,
                ids: Vec::new(),
                last: (0, false),
            }),
        }
    };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Turns the flight recorder on (idempotent). From here on every span
/// enter/exit and event is retained in the calling thread's ring — and
/// [`crate::trace::enabled`] reports true, so instrumented code starts
/// building fields.
pub fn install() {
    RECORDER.get_or_init(|| Recorder {
        threads: Mutex::new(Vec::new()),
        dropped: registry().counter("telemetry.flight.dropped_events"),
    });
    ON.store(true, Ordering::Release);
}

/// True while the recorder is on. [`crate::trace::enabled`] is this.
#[inline]
pub fn installed() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Turns the recorder off: `span!` and `event!` record nothing from now
/// on (a span entered before still records its exit). Retained records
/// stay dumpable until [`clear`].
pub fn uninstall() {
    ON.store(false, Ordering::Release);
}

/// Empties every thread's rings — live and kept records, not
/// registrations. Retention flags survive; see [`clear_retained`].
pub fn clear() {
    if let Some(rec) = RECORDER.get() {
        for t in lock(&rec.threads).iter() {
            t.live.clear();
            t.kept.clear();
            *lock(&t.spill) = Spill::default();
        }
    }
}

/// Flags a trace for tail retention: from now on, records of this trace
/// evicted from any thread's live ring move to that thread's `kept`
/// ring instead of being dropped. Bounded at
/// [`RETAINED_TRACE_CAPACITY`] flags (oldest forgotten first); a zero
/// trace id (untraced record) is ignored.
pub fn retain_trace(trace_id: u64) {
    if trace_id == 0 {
        return;
    }
    let mut set = lock(&RETAINED);
    if set.contains(&trace_id) {
        return;
    }
    if set.len() >= RETAINED_TRACE_CAPACITY {
        set.pop_front();
    }
    set.push_back(trace_id);
    RETAINED_GENERATION.fetch_add(1, Ordering::Release);
    ANY_RETAINED.store(true, Ordering::Release);
}

/// True if `trace_id` is currently flagged for retention.
pub fn is_retained(trace_id: u64) -> bool {
    ANY_RETAINED.load(Ordering::Relaxed) && lock(&RETAINED).contains(&trace_id)
}

/// Every currently flagged trace id, oldest first.
pub fn retained_traces() -> Vec<u64> {
    lock(&RETAINED).iter().copied().collect()
}

/// Drops every retention flag (kept records stay until [`clear`]).
pub fn clear_retained() {
    let mut set = lock(&RETAINED);
    set.clear();
    RETAINED_GENERATION.fetch_add(1, Ordering::Release);
    ANY_RETAINED.store(false, Ordering::Release);
}

impl RetainedCopy {
    /// The eviction path's retained-set check: against this thread's
    /// copy, re-read from [`RETAINED`] only when the set has changed
    /// since.
    fn contains(&mut self, trace_id: u64) -> bool {
        if self.generation != RETAINED_GENERATION.load(Ordering::Acquire) {
            let set = lock(&RETAINED);
            // Read under the lock, where it only moves.
            self.generation = RETAINED_GENERATION.load(Ordering::Relaxed);
            self.ids.clear();
            self.ids.extend(set.iter());
            self.ids.sort_unstable();
            self.last = (0, false);
        }
        if self.last.0 != trace_id {
            self.last = (trace_id, self.ids.binary_search(&trace_id).is_ok());
        }
        self.last.1
    }
}

/// One thread's ring occupancy, for retention-pressure dashboards.
#[derive(Debug, Clone)]
pub struct ThreadOccupancy {
    /// Thread label (name, or `thread-N`).
    pub thread: String,
    /// Records in the live FIFO ring.
    pub live: usize,
    /// Evicted records held because their trace is retained.
    pub kept: usize,
    /// Live-ring capacity (kept has the same bound).
    pub capacity: usize,
}

/// Per-thread ring occupancy, registration order.
pub fn occupancy() -> Vec<ThreadOccupancy> {
    let Some(rec) = RECORDER.get() else {
        return Vec::new();
    };
    lock(&rec.threads)
        .iter()
        .map(|t| ThreadOccupancy {
            thread: t.label.clone(),
            live: t.live.len(),
            kept: t.kept.len(),
            capacity: DEFAULT_CAPACITY,
        })
        .collect()
}

/// First record from a thread: create its rings and register them for
/// dumps. The slots themselves are allocated a chunk at a time as the
/// thread records.
#[cold]
fn register(registration: &Registration) -> Option<&Arc<ThreadRing>> {
    let rec = RECORDER.get()?;
    let label = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{}", THREAD_SEQ.fetch_add(1, Ordering::Relaxed)));
    let ring = Arc::new(ThreadRing {
        label,
        live: Ring::new(),
        kept: Ring::new(),
        spill: Mutex::new(Spill::default()),
        unreported_drops: AtomicU32::new(0),
        exited: AtomicBool::new(false),
    });
    let mut threads = lock(&rec.threads);
    threads.push(ring.clone());
    // Registrations are what make the list grow, so this is where the
    // rings of ended threads are held to their budget.
    let dead_slots = |t: &Arc<ThreadRing>| {
        if t.exited.load(Ordering::Acquire) {
            t.live.slots() + t.kept.slots()
        } else {
            0
        }
    };
    let mut over = threads
        .iter()
        .map(dead_slots)
        .sum::<usize>()
        .saturating_sub(DEAD_THREAD_SLOTS);
    if over > 0 {
        threads.retain(|t| {
            let slots = dead_slots(t);
            if over == 0 || slots == 0 {
                return true;
            }
            over = over.saturating_sub(slots);
            rec.dropped.add((t.live.len() + t.kept.len()) as u64);
            false
        });
    }
    drop(threads);
    Some(registration.ring.get_or_init(|| ring))
}

impl ThreadRing {
    /// Owner only: counts one record lost to overflow.
    fn count_drop(&self) {
        let unreported = self.unreported_drops.load(Ordering::Relaxed) + 1;
        if unreported < DROP_REPORT_BATCH {
            self.unreported_drops.store(unreported, Ordering::Relaxed);
        } else {
            self.unreported_drops.store(0, Ordering::Relaxed);
            report_drops(unreported);
        }
    }

    /// Owner only: live record `number`, in the claimed slot `held`, is
    /// about to be overwritten, and either its trace may be retained or
    /// its fields are spilled. A record whose trace is retained moves to
    /// `kept` (pushing out that ring's oldest if it is full); any other
    /// is dropped and counted.
    #[cold]
    fn evict_slowly(&self, number: u64, held: &Slot, retained: &RefCell<RetainedCopy>) {
        let spilled = held.spilled();
        if !retained.borrow_mut().contains(held.trace_id()) {
            if spilled {
                take_spilled(&mut lock(&self.spill).live, number);
            }
            self.count_drop();
            return;
        }
        let (kept_slot, kept_number, kept_held) = self.kept.claim();
        if let Some(pushed_out) = kept_held {
            if kept_slot.spilled() {
                take_spilled(&mut lock(&self.spill).kept, pushed_out);
            }
            self.count_drop();
        }
        kept_slot.copy_from(held);
        if spilled {
            // Under the lock, so a dump finds the fields on one list or
            // the other.
            let mut spill = lock(&self.spill);
            self.kept.publish(kept_number);
            if let Some(fields) = take_spilled(&mut spill.live, number) {
                spill.kept.push_back((kept_number, fields));
            }
        } else {
            self.kept.publish(kept_number);
        }
    }
}

#[cold]
fn report_drops(count: u32) {
    if let Some(rec) = RECORDER.get() {
        rec.dropped.add(u64::from(count));
    }
}

/// Appends one record to the calling thread's ring. Called by `span!`
/// and `event!` with the record's parts still borrowed from the call
/// site; unless the fields spill, nothing here allocates, locks, or
/// executes an atomic read-modify-write.
#[inline]
pub(crate) fn record(parts: &Parts<'_>) {
    // An error means the thread is past its thread-local destructors:
    // its rings are already marked ended, and this record is not kept.
    let _ = REGISTRATION.try_with(|registration| {
        let Some(ring) = registration.ring.get().or_else(|| register(registration)) else {
            return;
        };
        let (slot, number, held) = ring.live.claim();
        if let Some(held_number) = held {
            if ANY_RETAINED.load(Ordering::Relaxed) || slot.spilled() {
                ring.evict_slowly(held_number, slot, &registration.retained);
            } else {
                ring.count_drop();
            }
        }
        if slot.write(parts) {
            ring.live.publish(number);
        } else {
            publish_spilled(ring, number, parts);
        }
    });
}

/// The slow end of [`record`]: the fields go to the spill list, as text.
#[cold]
fn publish_spilled(ring: &ThreadRing, number: u64, parts: &Parts<'_>) {
    let fields = parts
        .keys
        .iter()
        .zip(parts.values)
        .map(|(key, value)| (*key, value.to_string()))
        .collect();
    // Under the lock, so a dump sees the record and its fields together.
    let mut spill = lock(&ring.spill);
    ring.live.publish(number);
    spill.live.push_back((number, fields));
}

/// Serializes every thread's ring as JSON: the process header, then
/// `"events"`, one record object per line, each naming its thread — so
/// [`TraceAssembler::add_flight_json`](crate::context::TraceAssembler::add_flight_json)
/// parses the dump line by line and a truncated file (crash mid-write)
/// still yields every complete line. Ids are hex strings to dodge 64-bit
/// precision loss in consumers that read JSON numbers as doubles.
pub fn dump_json() -> String {
    let mut events = Vec::new();
    if let Some(rec) = RECORDER.get() {
        let scale = Scale::now();
        let threads = lock(&rec.threads);
        for t in threads.iter() {
            // Spilled fields are looked up under the lock the owner
            // takes to move or drop them, after the slots were copied: a
            // record whose fields went meanwhile renders without them.
            let spill = lock(&t.spill);
            // Kept (retained-trace) records first: they are the oldest.
            let kept = t.kept.snapshot();
            let live = t.live.snapshot();
            let with_spill = kept
                .iter()
                .map(|r| (r, &spill.kept))
                .chain(live.iter().map(|r| (r, &spill.live)));
            for ((number, record), spilled) in with_spill {
                events.push(record_json(&t.label, record, *number, spilled, &scale));
            }
        }
    }
    let retained: Json = retained_traces()
        .iter()
        .map(|id| format!("{id:x}"))
        .collect();
    let dump = Json::object([
        ("pid", std::process::id().into()),
        (
            "dropped",
            registry()
                .counter("telemetry.flight.dropped_events")
                .get()
                .into(),
        ),
        ("retained", retained),
        ("events", Json::Array(events)),
    ]);
    format!("{dump:#}\n")
}

fn record_json(
    thread: &str,
    record: &Snapshot,
    number: u64,
    spilled: &VecDeque<(u64, SpilledFields)>,
    scale: &Scale,
) -> Json {
    let kind = match record.kind() {
        RecordKind::Enter => "enter",
        RecordKind::Exit => "exit",
        RecordKind::Event => "event",
    };
    let hex = |id: u64| Json::from(format!("{id:x}"));
    let mut out = Json::object([
        ("thread", thread.into()),
        ("kind", kind.into()),
        ("name", record.name().into()),
        ("trace", hex(record.trace_id())),
        ("span", hex(record.span_id())),
        ("parent", hex(record.parent_span_id())),
        ("t_us", scale.since_start_us(record.ticks()).into()),
    ]);
    if record.kind() == RecordKind::Exit {
        out.insert("elapsed_us", scale.span_us(record.elapsed_ticks()).into());
    }
    let inline;
    let fields: &[(&'static str, String)] = if record.spilled() {
        let at = spilled.partition_point(|(n, _)| *n < number);
        match spilled.get(at) {
            Some((n, fields)) if *n == number => fields,
            _ => &[],
        }
    } else {
        inline = record.inline_fields();
        &inline
    };
    if !fields.is_empty() {
        let text = fields.iter().map(|(k, v)| (*k, Json::from(v.as_str())));
        out.insert("fields", Json::object(text));
    }
    out
}

/// The calling thread's live records as [`dump_json`] renders them,
/// oldest first.
#[cfg(test)]
pub(crate) fn thread_records() -> Vec<Json> {
    REGISTRATION.with(|registration| {
        let Some(t) = registration.ring.get() else {
            return Vec::new();
        };
        let scale = Scale::now();
        let spill = lock(&t.spill);
        t.live
            .snapshot()
            .iter()
            .map(|(number, record)| record_json(&t.label, record, *number, &spill.live, &scale))
            .collect()
    })
}

/// Writes [`dump_json`] to `path` (atomically enough for forensics:
/// create + write + flush).
pub fn dump_to(path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(dump_json().as_bytes())?;
    f.flush()
}

/// Overrides where the panic hook writes its dump (default: the
/// `ACC_FLIGHT_DIR` environment variable, then the current directory).
/// A process-global setting, safe to call from tests running in
/// parallel — unlike mutating the environment.
pub fn set_dump_dir(dir: impl Into<PathBuf>) {
    *lock(&DUMP_DIR) = Some(dir.into());
}

fn dump_path() -> PathBuf {
    let dir = lock(&DUMP_DIR)
        .clone()
        .or_else(|| std::env::var_os("ACC_FLIGHT_DIR").map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("flight-{}.json", std::process::id()))
}

/// Installs a panic hook (once per process; chains the previous hook)
/// that writes the flight dump to `flight-<pid>.json` whenever any
/// thread panics while the recorder is on — so a crash leaves its last
/// seconds of trace on disk.
pub fn install_panic_hook() {
    PANIC_HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if installed() {
                let path = dump_path();
                if dump_to(&path).is_ok() {
                    eprintln!("[flight] wrote {}", path.display());
                }
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TraceAssembler;
    use crate::event;
    use crate::tests::Recording;

    /// The record objects of a dump, one per line.
    fn records(dump: &str) -> Vec<Json> {
        dump.lines()
            .filter_map(|line| Json::parse(line.trim_end_matches(',')).ok())
            .filter(|record| record["kind"] != Json::Null)
            .collect()
    }

    /// The `fields` object of every record named `name`.
    fn fields_of<'a>(records: &'a [Json], name: &str) -> Vec<&'a Json> {
        records
            .iter()
            .filter(|r| r["name"].as_str() == Some(name))
            .map(|r| &r["fields"])
            .collect()
    }

    fn text_fields(fields: &[(&str, &str)]) -> Json {
        Json::object(fields.iter().map(|&(k, v)| (k, Json::from(v))))
    }

    fn my_occupancy() -> ThreadOccupancy {
        let me = std::thread::current().name().map(str::to_owned);
        occupancy()
            .into_iter()
            .find(|o| Some(&o.thread) == me.as_ref())
            .expect("this thread's ring is registered")
    }

    #[test]
    fn records_and_dumps_per_thread() {
        let _recording = Recording::start();
        {
            let _span = crate::span!("flight.main", job = "j\"1");
            crate::event!("flight.tick", n = 3u64);
        }
        std::thread::Builder::new()
            .name("flight-side".into())
            .spawn(|| {
                let _span = crate::span!("flight.side");
            })
            .unwrap()
            .join()
            .unwrap();
        let dump = dump_json();

        let mut asm = TraceAssembler::new();
        let added = asm.add_flight_json("me", &dump);
        assert!(added >= 2, "expected both spans in dump:\n{dump}");
        assert!(asm.find("flight.main").is_some());
        let side = asm.find("flight.side").unwrap();
        assert_eq!(side.thread, "flight-side");
        let records = records(&dump);
        assert!(fields_of(&records, "flight.main").contains(&&text_fields(&[("job", "j\"1")])));
        assert_eq!(
            fields_of(&records, "flight.tick"),
            [&text_fields(&[("n", "3")])]
        );
    }

    /// Field keys are free-form at every `span!` site: a field named
    /// `thread` must neither relabel the recording thread nor hide the
    /// span from the assembler.
    #[test]
    fn a_span_field_named_thread_keeps_its_span_and_thread_label() {
        let _recording = Recording::start();
        std::thread::Builder::new()
            .name("flight-real".into())
            .spawn(|| {
                let _span = crate::span!("flight.hijack", thread = "y");
            })
            .unwrap()
            .join()
            .unwrap();
        let dump = dump_json();
        let mut asm = TraceAssembler::new();
        asm.add_flight_json("me", &dump);
        let span = asm.find("flight.hijack").expect("the span survives");
        assert_eq!(span.thread, "flight-real");
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let _recording = Recording::start();
        let dropped = registry().counter("telemetry.flight.dropped_events");
        let before = dropped.get();
        let overflow = 3 * DROP_REPORT_BATCH as usize;
        for _ in 0..(DEFAULT_CAPACITY + overflow) {
            crate::event!("flight.spam");
        }
        assert_eq!(my_occupancy().live, DEFAULT_CAPACITY);
        // The counter trails by less than one batch per thread.
        assert!(
            dropped.get() >= before + 2 * u64::from(DROP_REPORT_BATCH),
            "dropped counter must move on overflow"
        );
        clear();
        assert_eq!(my_occupancy().live, 0);
    }

    #[test]
    fn retained_trace_survives_overflow_while_others_age_out() {
        let _recording = Recording::start();

        // A "slow task" trace: a span plus an event, then flag it.
        let slow = crate::TraceContext::root();
        {
            let _ctx = slow.attach();
            let _span = crate::span!("retained.task");
            crate::event!("retained.tick");
            // A measurable duration, so the exit record folds a non-zero
            // elapsed_us into the assembled span.
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        retain_trace(slow.trace_id);
        assert!(is_retained(slow.trace_id));
        assert_eq!(retained_traces(), vec![slow.trace_id]);

        // A "fast task" trace that is *not* flagged.
        let fast = crate::TraceContext::root();
        {
            let _ctx = fast.attach();
            let _span = crate::span!("forgotten.task");
        }

        // Spam the ring far past capacity: both traces get evicted, but
        // the retained one must land in `kept`.
        for _ in 0..(DEFAULT_CAPACITY * 2) {
            crate::event!("flight.noise");
        }

        let mine = my_occupancy();
        assert_eq!(mine.kept, 3, "retained records kept: {mine:?}");
        assert!(mine.live <= mine.capacity);

        let dump = dump_json();
        assert!(
            dump.contains(&format!("{:x}", slow.trace_id)),
            "retained trace in dump"
        );
        assert!(
            dump.contains(&format!("\"retained\":[\"{:x}\"]", slow.trace_id)),
            "retained ids listed in dump header:\n{}",
            &dump[..200.min(dump.len())]
        );
        assert!(
            !dump.contains("forgotten.task"),
            "unflagged trace must age out"
        );
        let mut asm = crate::context::TraceAssembler::new();
        asm.add_flight_json("me", &dump);
        let spans = asm.spans(slow.trace_id);
        assert_eq!(spans.len(), 1, "full retained span detail survives");
        assert_eq!(spans[0].name, "retained.task");
        assert!(
            (1_000..1_000_000).contains(&spans[0].elapsed_us),
            "exit record folded the 1 ms sleep: {} us",
            spans[0].elapsed_us
        );

        clear_retained();
        assert!(!is_retained(slow.trace_id));
    }

    #[test]
    fn retained_set_is_bounded_and_ignores_zero() {
        let _recording = Recording::start();
        retain_trace(0);
        assert!(retained_traces().is_empty());
        for id in 1..=(RETAINED_TRACE_CAPACITY as u64 + 10) {
            retain_trace(id);
        }
        let ids = retained_traces();
        assert_eq!(ids.len(), RETAINED_TRACE_CAPACITY);
        assert_eq!(ids[0], 11, "oldest flags forgotten first");
        retain_trace(11); // already present: no-op, no reorder
        assert_eq!(retained_traces().len(), RETAINED_TRACE_CAPACITY);
    }

    #[test]
    fn dump_without_install_is_valid() {
        // No test lock needed: read-only.
        let dump = Json::parse(&dump_json()).unwrap();
        assert!(dump["events"].as_array().is_some(), "{dump}");
    }

    /// Everything a record can carry survives a wrapped ring and the move
    /// to `kept`: inline and spilled fields (a text value longer than a
    /// slot holds, and a fifth field), exactly, and the span structure
    /// `TraceAssembler` rebuilds from the dump.
    #[test]
    fn wrapped_ring_and_kept_records_round_trip_with_exact_fields() {
        let _recording = Recording::start();

        let long = "a long text value, \"quoted\" \\ and well over fourteen bytes — ünïcödé too";
        assert!(long.len() > INLINE_STR_LEN);
        let at_limit = "exactly14bytes";
        assert_eq!(at_limit.len(), INLINE_STR_LEN);

        // A pinned trace whose records are spilled ones.
        let pinned = crate::TraceContext::root();
        {
            let _ctx = pinned.attach();
            let _span = crate::span!("rt.pinned", note = long, n = 7u64);
            crate::event!(
                "rt.five",
                a = 1u64,
                b = -2i64,
                c = 0.5f64,
                d = true,
                e = "five"
            );
        }
        retain_trace(pinned.trace_id);
        // Wrap the live ring one and a half times with inline records.
        for i in 0..(DEFAULT_CAPACITY * 3 / 2) as u64 {
            crate::event!("rt.noise", i = i, who = at_limit);
        }
        // And one more spilled record that is still live at dump time.
        let newest = {
            let _span = crate::span!("rt.live", note = long);
            crate::TraceContext::current().unwrap()
        };
        let dump = dump_json();

        let mine = my_occupancy();
        assert_eq!(mine.live, DEFAULT_CAPACITY);
        assert_eq!(mine.kept, 3, "enter, event and exit of the pinned trace");

        let records = records(&dump);
        assert_eq!(
            fields_of(&records, "rt.pinned"),
            [&text_fields(&[("note", long), ("n", "7")]), &Json::Null],
            "the long value, exactly, on the kept span (its exit carries no fields)"
        );
        assert_eq!(
            fields_of(&records, "rt.live"),
            [&text_fields(&[("note", long)]), &Json::Null],
            "and on the live one"
        );
        let five = [
            ("a", "1"),
            ("b", "-2"),
            ("c", "0.500"),
            ("d", "true"),
            ("e", "five"),
        ];
        assert_eq!(
            fields_of(&records, "rt.five"),
            [&text_fields(&five)],
            "five-field event kept whole"
        );
        let noise = fields_of(&records, "rt.noise");
        let last_noise = (DEFAULT_CAPACITY * 3 / 2 - 1).to_string();
        assert_eq!(
            noise.last().copied(),
            Some(&text_fields(&[("i", &last_noise), ("who", at_limit)])),
            "inline fields of the newest noise record"
        );
        assert!(
            noise.iter().all(|f| f["i"].as_str() != Some("0")),
            "the oldest noise record aged out"
        );

        let mut asm = TraceAssembler::new();
        asm.add_flight_json("me", &dump);
        let kept = asm.spans(pinned.trace_id);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].name, "rt.pinned");
        let live = asm.find("rt.live").expect("the newest span is in the dump");
        assert_eq!(live.span_id, newest.span_id);
        assert_eq!(live.trace_id, newest.trace_id);
    }

    /// A stream of short-lived threads (a server's connection threads)
    /// does not grow the recorder without bound: ended threads' rings
    /// share a slot budget, oldest out first, their records counted.
    #[test]
    fn rings_of_ended_threads_are_held_to_a_budget() {
        let _recording = Recording::start();
        let dropped = registry().counter("telemetry.flight.dropped_events");
        let before = dropped.get();
        // Two records fit a ring's first chunk, of 8 slots.
        let within_budget = DEAD_THREAD_SLOTS / 8;
        let threads = within_budget + 64;
        for i in 0..threads {
            std::thread::Builder::new()
                .name(format!("flight-brief-{i}"))
                .spawn(|| {
                    let _span = crate::span!("brief.span");
                })
                .unwrap()
                .join()
                .unwrap();
        }
        let brief: Vec<String> = occupancy()
            .into_iter()
            .map(|o| o.thread)
            .filter(|label| label.starts_with("flight-brief-"))
            .collect();
        // The budget is enforced when a thread registers, so the last
        // one to end sits on top of it.
        assert!(
            brief.len() <= within_budget + 1,
            "{} rings kept",
            brief.len()
        );
        assert!(
            brief.len() >= within_budget / 2,
            "{} rings kept",
            brief.len()
        );
        assert!(brief.contains(&format!("flight-brief-{}", threads - 1)));
        assert!(!brief.contains(&"flight-brief-0".to_owned()));
        assert!(
            dropped.get() >= before + 2 * (threads - brief.len()) as u64,
            "freed rings' records count as dropped"
        );
    }

    /// Text values survive exactly at every length around the in-place
    /// limit (the packing has three code paths by length), multi-byte
    /// characters included.
    #[test]
    fn text_fields_of_every_length_survive_exactly() {
        let _recording = Recording::start();
        let alphabet = "aé\"z\\9ü-Q\u{7f}xß.~m#";
        let texts: Vec<String> = (0..=INLINE_STR_LEN + 2)
            .map(|len| {
                // The longest prefix of whole characters within `len` bytes,
                // padded with ASCII to exactly `len`.
                let mut text = String::new();
                for ch in alphabet.chars() {
                    if text.len() + ch.len_utf8() <= len {
                        text.push(ch);
                    }
                }
                while text.len() < len {
                    text.push('p');
                }
                text
            })
            .collect();
        for (len, text) in texts.iter().enumerate() {
            assert_eq!(text.len(), len);
            event!("len.probe", len = len, text = text.as_str());
        }
        let records = records(&dump_json());
        let probes = fields_of(&records, "len.probe");
        for (len, text) in texts.iter().enumerate() {
            let want = text_fields(&[("len", &len.to_string()), ("text", text)]);
            assert!(probes.contains(&&want), "length {len}: {want} not in dump");
        }
    }

    /// Four threads record flat out while this one dumps, retains and
    /// un-retains: every dump must parse line by line into whole records
    /// (no torn names, ids or field sets), and every writer must end
    /// with a full ring. Each dump waits until every writer has written
    /// a ring's worth since the last, so the dumps race full rings that
    /// are being overwritten however the scheduler runs the threads.
    #[test]
    fn threads_record_while_one_dumps_and_retains() {
        let _recording = Recording::start();

        const WRITERS: usize = 4;
        // Loop iterations (three records each) that fill a ring.
        const FILL: u64 = DEFAULT_CAPACITY as u64 / 3 + 1;
        // Writers start together and keep going until told to stop.
        let start = std::sync::Barrier::new(WRITERS + 1);
        let stop = AtomicBool::new(false);
        let progress: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
        let traces: Vec<crate::TraceContext> =
            (0..WRITERS).map(|_| crate::TraceContext::root()).collect();
        let long = "w".repeat(3 * INLINE_STR_LEN);
        let dumps = std::thread::scope(|scope| {
            for (w, trace) in traces.iter().enumerate() {
                let (start, stop, long, done) = (&start, &stop, &long, &progress[w]);
                std::thread::Builder::new()
                    .name(format!("flight-writer-{w}"))
                    .spawn_scoped(scope, move || {
                        let _ctx = trace.attach();
                        start.wait();
                        let mut i = 0u64;
                        while !stop.load(Ordering::Relaxed) || i < 2 * DEFAULT_CAPACITY as u64 {
                            let _span = crate::span!("race.span", w = w, i = i);
                            if i % 97 == 0 {
                                crate::event!("race.spilled", note = long.as_str());
                            } else {
                                crate::event!("race.event", w = w, tag = "inline");
                            }
                            i += 1;
                            done.store(i, Ordering::Relaxed);
                        }
                    })
                    .unwrap();
            }
            start.wait();
            let mut dumps = Vec::new();
            for round in 0..12 {
                let target = (round + 1) * FILL;
                while progress.iter().any(|p| p.load(Ordering::Relaxed) < target) {
                    std::thread::yield_now();
                }
                retain_trace(traces[round as usize % WRITERS].trace_id);
                dumps.push(dump_json());
                if round % 3 == 2 {
                    clear_retained();
                }
            }
            stop.store(true, Ordering::Relaxed);
            dumps
        });

        let spilled = text_fields(&[("note", &long)]);
        let mut records = 0;
        for dump in &dumps {
            for line in dump.lines().filter(|l| l.contains("\"kind\"")) {
                records += 1;
                let record = Json::parse(line.trim_end_matches(','))
                    .unwrap_or_else(|e| panic!("torn record ({e}): {line}"));
                let fields = &record["fields"];
                let whole = match record["name"].as_str() {
                    Some("race.span") => {
                        record["kind"].as_str() == Some("exit") || fields["w"].as_str().is_some()
                    }
                    Some("race.event") => fields["tag"].as_str() == Some("inline"),
                    // A spilled record may lose its fields to a racing
                    // eviction, never show someone else's.
                    Some("race.spilled") => *fields == spilled || *fields == Json::Null,
                    _ => false,
                };
                assert!(whole, "torn record: {line}");
                let trace = record["trace"].as_str();
                assert!(
                    traces
                        .iter()
                        .any(|t| Some(format!("{:x}", t.trace_id).as_str()) == trace),
                    "foreign trace id: {line}"
                );
            }
        }
        assert!(records > DEFAULT_CAPACITY, "dumps saw the writers' records");
        let writers: Vec<ThreadOccupancy> = occupancy()
            .into_iter()
            .filter(|o| o.thread.starts_with("flight-writer-"))
            .collect();
        assert_eq!(writers.len(), WRITERS);
        assert!(
            writers.iter().all(|o| o.live == DEFAULT_CAPACITY),
            "{writers:?}"
        );
    }
}
