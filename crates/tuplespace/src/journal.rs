//! The space's durability journal: the op-log record format and the
//! [`SpaceJournal`] handle a durable [`crate::Space`] carries.
//!
//! Every state-changing operation that survived a crash must be derivable
//! from `snapshot + WAL tail`, so the journal records exactly the committed
//! mutations: plain writes, destructive takes, lease renewals and
//! transaction commits. The plain writes or takes one shard-lock hold
//! applies are one record, and a transaction's ops hit the journal only at
//! commit, as one atomic record. Expiry is *not* journaled — lease
//! deadlines are recorded as absolute wall-clock times and recovery
//! re-evaluates them, so
//! an entry whose lease ran out while the process was down stays dead.
//!
//! Journaling failures are fail-stop: an operation that was acknowledged
//! but not journaled would silently break the recovery contract, so a WAL
//! I/O error panics instead of letting the space continue un-durably.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use acc_durability::{Wal, WalOptions, WalReplay, FRAME_HEADER, MAX_RECORD};
use parking_lot::Mutex;

use crate::lease::Lease;
use crate::payload::{Payload, PayloadError, WireReader, WireWriter};
use crate::space::EntryId;
use crate::tuple::Tuple;

/// Current wall-clock time as milliseconds since the UNIX epoch.
pub(crate) fn wall_now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis() as u64
}

/// Absolute wall-clock deadline (ms since epoch) a lease granted *now*
/// expires at; `None` for forever. This is what goes into the journal — an
/// absolute time survives the process, a monotonic `Instant` does not.
pub(crate) fn wall_deadline(lease: &Lease) -> Option<u64> {
    match lease {
        Lease::Forever => None,
        Lease::Duration(d) => Some(wall_now_ms().saturating_add(d.as_millis() as u64)),
    }
}

/// Converts a live entry's monotonic expiry into an absolute wall-clock
/// deadline for snapshotting.
pub(crate) fn wall_from_instant(expires: Option<Instant>) -> Option<u64> {
    expires.map(|e| {
        let now = Instant::now();
        let wall = wall_now_ms();
        if e <= now {
            wall
        } else {
            wall.saturating_add((e - now).as_millis() as u64)
        }
    })
}

/// Converts a journaled wall-clock deadline back into a monotonic expiry,
/// relative to a consistent `(Instant, wall ms)` clock pair read once at
/// recovery time. Returns `None` (meaning: already expired) for deadlines
/// at or before `wall_now`.
pub(crate) fn instant_from_wall(
    deadline_ms: u64,
    inst_now: Instant,
    wall_now: u64,
) -> Option<Instant> {
    if deadline_ms <= wall_now {
        None
    } else {
        Some(inst_now + Duration::from_millis(deadline_ms - wall_now))
    }
}

pub(crate) fn put_deadline(w: &mut WireWriter, deadline_ms: Option<u64>) {
    match deadline_ms {
        Some(ms) => {
            w.put_bool(true);
            w.put_u64(ms);
        }
        None => w.put_bool(false),
    }
}

pub(crate) fn get_deadline(r: &mut WireReader) -> Result<Option<u64>, PayloadError> {
    Ok(if r.get_bool()? {
        Some(r.get_u64()?)
    } else {
        None
    })
}

/// One journaled record. Deadlines are absolute wall-clock milliseconds
/// since the UNIX epoch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// A plain write, as logs before batch records wrote it (tag 1). Only
    /// decoded: plain writes are journaled as an [`Op::Batch`].
    Write {
        id: EntryId,
        deadline_ms: Option<u64>,
        tuple: Tuple,
    },
    /// A plain take, as logs before batch records wrote it (tag 2). Only
    /// decoded, like [`Op::Write`].
    Take { id: EntryId },
    /// [`crate::Space::renew_lease`] moved the entry's deadline.
    Renew {
        id: EntryId,
        deadline_ms: Option<u64>,
    },
    /// Writes became visible and entries were removed, atomically: the
    /// plain writes or takes one shard-lock hold applied (built in place
    /// by [`BatchRecord`]), or a transaction's commit.
    Batch {
        writes: Vec<(EntryId, Option<u64>, Tuple)>,
        takes: Vec<EntryId>,
    },
}

const TAG_RENEW: u8 = 4;
const TAG_BATCH: u8 = 5;

impl Payload for Op {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Op::Write {
                id,
                deadline_ms,
                tuple,
            } => {
                w.put_u8(1);
                w.put_u64(*id);
                put_deadline(w, *deadline_ms);
                tuple.encode(w);
            }
            Op::Take { id } => {
                w.put_u8(2);
                w.put_u64(*id);
            }
            Op::Renew { id, deadline_ms } => {
                w.put_u8(TAG_RENEW);
                w.put_u64(*id);
                put_deadline(w, *deadline_ms);
            }
            Op::Batch { writes, takes } => {
                w.put_u8(TAG_BATCH);
                w.put_u32(writes.len() as u32);
                for (id, deadline_ms, tuple) in writes {
                    put_write(w, *id, *deadline_ms, tuple);
                }
                w.put_u32(takes.len() as u32);
                for id in takes {
                    w.put_u64(*id);
                }
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        match r.get_u8()? {
            1 => Ok(Op::Write {
                id: r.get_u64()?,
                deadline_ms: get_deadline(r)?,
                tuple: Tuple::decode(r)?,
            }),
            2 => Ok(Op::Take { id: r.get_u64()? }),
            // Tag 3 is retired (it named the removed `cancel` op): never
            // reuse it, or an old log would replay as something else. Tags
            // 1 and 2 are no longer written, and stay reserved likewise.
            TAG_RENEW => Ok(Op::Renew {
                id: r.get_u64()?,
                deadline_ms: get_deadline(r)?,
            }),
            TAG_BATCH => {
                let nw = r.get_u32()? as usize;
                if nw > 1 << 20 {
                    return Err(PayloadError::Corrupt("batch write count"));
                }
                let mut writes = Vec::with_capacity(nw.min(1024));
                for _ in 0..nw {
                    let id = r.get_u64()?;
                    let deadline_ms = get_deadline(r)?;
                    writes.push((id, deadline_ms, Tuple::decode(r)?));
                }
                let nt = r.get_u32()? as usize;
                if nt > 1 << 20 {
                    return Err(PayloadError::Corrupt("batch take count"));
                }
                let mut takes = Vec::with_capacity(nt.min(1024));
                for _ in 0..nt {
                    takes.push(r.get_u64()?);
                }
                Ok(Op::Batch { writes, takes })
            }
            _ => Err(PayloadError::Corrupt("op tag")),
        }
    }
}

fn put_write(w: &mut WireWriter, id: EntryId, deadline_ms: Option<u64>, tuple: &Tuple) {
    w.put_u64(id);
    put_deadline(w, deadline_ms);
    tuple.encode(w);
}

/// A new frame buffer: the WAL's header reserved, then room for `payload`
/// bytes.
fn frame(payload: usize) -> WireWriter {
    let mut w = WireWriter::with_capacity(FRAME_HEADER + payload);
    w.put_u64(0);
    w
}

/// The most ops one batch record holds, well under the
/// [`Op::decode`](Payload::decode) cap of 2^20 per section.
const RECORD_OPS: u32 = 1 << 16;

/// The payload bytes past which a batch record takes no further op: half
/// the WAL's record cap, so an op's estimated cost may fall short.
const RECORD_BYTES: usize = MAX_RECORD / 2;

/// The [`Op::Batch`] records of plain writes or of plain takes, encoded
/// straight from the borrowed tuples and ids into a WAL frame while the
/// space applies them under one shard-lock hold. One record holds them
/// all, unless they pass [`RECORD_OPS`] or [`RECORD_BYTES`]; then each
/// full record is appended and the next begun.
pub(crate) struct BatchRecord<'j> {
    journal: &'j SpaceJournal,
    frame: WireWriter,
    /// Where the count of the section being filled sits.
    count_at: usize,
    ops: u32,
    /// Writes, not takes: the record still owes its (empty) takes section.
    writes: bool,
    /// The LSN a sync is owed for, if an appended record made one due.
    owed: Option<u64>,
}

impl<'j> BatchRecord<'j> {
    fn new(journal: &'j SpaceJournal, payload: usize, writes: bool) -> BatchRecord<'j> {
        let mut frame = frame(9 + payload.min(RECORD_BYTES));
        frame.put_u8(TAG_BATCH);
        if !writes {
            frame.put_u32(0);
        }
        let count_at = frame.len();
        frame.put_u32(0);
        BatchRecord {
            journal,
            frame,
            count_at,
            ops: 0,
            writes,
            owed: None,
        }
    }

    /// What journaling `tuple` adds to a writes record, roughly: its id,
    /// deadline and encoded fields.
    pub(crate) fn write_cost(tuple: &Tuple) -> usize {
        32 + tuple.size_hint() + 9 * tuple.len()
    }

    /// Adds a write to a record begun by [`SpaceJournal::writes`].
    pub(crate) fn write(&mut self, id: EntryId, deadline_ms: Option<u64>, tuple: &Tuple) {
        debug_assert!(self.writes, "a write in a takes record");
        self.make_room(Self::write_cost(tuple));
        put_write(&mut self.frame, id, deadline_ms, tuple);
        self.ops += 1;
    }

    /// Adds a take to a record begun by [`SpaceJournal::takes`].
    pub(crate) fn take(&mut self, id: EntryId) {
        debug_assert!(!self.writes, "a take in a writes record");
        self.make_room(8);
        self.frame.put_u64(id);
        self.ops += 1;
    }

    /// Appends the record so far, and begins the next, if an op of `cost`
    /// bytes would take it past its caps.
    fn make_room(&mut self, cost: usize) {
        let len = self.frame.len() - FRAME_HEADER;
        if self.ops > 0 && (self.ops >= RECORD_OPS || len + cost > RECORD_BYTES) {
            let next = BatchRecord::new(self.journal, len, self.writes);
            let full = std::mem::replace(self, next);
            self.owed = full.append();
        }
    }

    /// Appends the record, counting each write or take it holds as an op
    /// (one that holds none appends nothing), and returns the LSN a sync
    /// is owed for, if this or an earlier full record made one due.
    pub(crate) fn append(mut self) -> Option<u64> {
        if self.ops == 0 {
            return self.owed;
        }
        self.frame.set_u32(self.count_at, self.ops);
        if self.writes {
            self.frame.put_u32(0);
        }
        self.owed
            .max(self.journal.append_frame(self.frame, self.ops))
    }
}

/// The journal a durable space carries: a WAL plus the commit gate that
/// keeps multi-shard transaction commits atomic with respect to snapshots.
///
/// Lock ordering: `commit_gate` is acquired *before* any shard lock (it
/// brackets whole commit/checkpoint sequences); the WAL's append mutex is
/// a leaf acquired *under* shard locks (plain ops journal inside their
/// shard-lock critical section). [`SpaceJournal::settle`] runs with no
/// space lock held: it takes only the WAL's sync mutex.
pub(crate) struct SpaceJournal {
    wal: Wal,
    dir: PathBuf,
    /// Held by `finish_txn(commit)` across its journal-append *and* its
    /// in-memory apply, and by `checkpoint` while it captures the cut LSN.
    /// This guarantees the cut never lands between a commit record and its
    /// application, so `snapshot + WAL[cut..]` always reproduces the state.
    pub(crate) commit_gate: Mutex<()>,
}

impl SpaceJournal {
    /// Opens (or creates) the journal in `dir`, truncating any torn tail.
    pub(crate) fn open(dir: impl Into<PathBuf>, opts: WalOptions) -> io::Result<SpaceJournal> {
        let dir = dir.into();
        let wal = Wal::open(&dir, opts)?;
        Ok(SpaceJournal {
            wal,
            dir,
            commit_gate: Mutex::new(()),
        })
    }

    /// Appends one record, a lease renewal or a transaction's commit, as
    /// one op of the sync policy's count, and returns the LSN a sync is
    /// owed for, if the policy made one due. The caller settles it with
    /// [`SpaceJournal::settle`] once its locks are dropped, and before it
    /// answers. Panics on I/O failure (fail-stop; see module docs).
    pub(crate) fn append(&self, op: &Op) -> Option<u64> {
        let mut w = frame(64);
        op.encode(&mut w);
        self.append_frame(w, 1)
    }

    /// Begins the batch records of plain writes, with room for `payload`
    /// bytes of them (see [`BatchRecord::write_cost`]).
    pub(crate) fn writes(&self, payload: usize) -> BatchRecord<'_> {
        BatchRecord::new(self, payload, true)
    }

    /// Begins the batch records of plain takes, with room for `ids` of
    /// them.
    pub(crate) fn takes(&self, ids: usize) -> BatchRecord<'_> {
        BatchRecord::new(self, 8 * ids, false)
    }

    fn append_frame(&self, frame: WireWriter, ops: u32) -> Option<u64> {
        self.wal
            .append_frame(&mut frame.into_vec(), ops)
            .expect("WAL append failed; cannot acknowledge an un-journaled op")
            .owed()
    }

    /// Makes the record at `lsn` durable, sharing a concurrent op's fsync
    /// when it covers `lsn`. Panics on I/O failure, like
    /// [`SpaceJournal::append`].
    pub(crate) fn settle(&self, lsn: u64) {
        self.wal
            .sync_to(lsn)
            .expect("WAL sync failed; cannot acknowledge an op the policy made due");
    }

    /// Forces the WAL to stable storage regardless of sync policy.
    pub(crate) fn sync(&self) -> io::Result<()> {
        self.wal.sync()
    }

    /// The WAL underneath.
    pub(crate) fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The LSN the next journaled op will get.
    pub(crate) fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Writes a snapshot covering everything below `cut_lsn`, then drops
    /// the WAL segments the snapshot made redundant.
    pub(crate) fn write_snapshot(&self, cut_lsn: u64, body: &[u8]) -> io::Result<()> {
        acc_durability::write_snapshot(&self.dir, cut_lsn, body)?;
        self.wal.compact(cut_lsn)?;
        Ok(())
    }

    /// Loads the newest valid snapshot in `dir`, if any.
    pub(crate) fn load_snapshot(dir: &Path) -> io::Result<Option<(u64, Vec<u8>)>> {
        acc_durability::load_latest_snapshot(dir)
    }

    /// Replays the committed WAL records in `dir`.
    pub(crate) fn replay(dir: &Path) -> io::Result<WalReplay> {
        Wal::replay(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample_tuple() -> Tuple {
        Tuple::build("acc.task")
            .field("id", 3i64)
            .field("body", Value::from(vec![1u8, 2, 3]))
            .done()
    }

    #[test]
    fn op_roundtrip_all_variants() {
        let ops = [
            Op::Write {
                id: 7,
                deadline_ms: Some(123_456),
                tuple: sample_tuple(),
            },
            Op::Write {
                id: 8,
                deadline_ms: None,
                tuple: sample_tuple(),
            },
            Op::Take { id: 9 },
            Op::Renew {
                id: 11,
                deadline_ms: Some(999),
            },
            Op::Renew {
                id: 12,
                deadline_ms: None,
            },
            Op::Batch {
                writes: vec![(13, None, sample_tuple()), (14, Some(42), sample_tuple())],
                takes: vec![1, 2, 3],
            },
            Op::Batch {
                writes: vec![],
                takes: vec![],
            },
        ];
        for op in ops {
            assert_eq!(Op::from_bytes(&op.to_bytes()).unwrap(), op);
        }
    }

    #[test]
    fn batch_records_replay_as_their_ops_and_split_at_the_cap() {
        let dir = std::env::temp_dir().join(format!("acc-journal-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = SpaceJournal::open(&dir, WalOptions::default()).unwrap();
        let tuples = [sample_tuple(), sample_tuple().with_field("id", 4i64)];
        let cost = tuples.iter().map(BatchRecord::write_cost).sum();
        let mut writes = journal.writes(cost);
        writes.write(20, Some(77), &tuples[0]);
        writes.write(21, Some(77), &tuples[1]);
        writes.append();
        let mut takes = journal.takes(1);
        for id in [5, 9, 2] {
            takes.take(id);
        }
        takes.append();
        assert_eq!(journal.takes(4).append(), None, "an empty record");
        let mut many = journal.takes(64);
        for id in 0..u64::from(RECORD_OPS) + 3 {
            many.take(id);
        }
        many.append();

        let ops: Vec<Op> = SpaceJournal::replay(&dir)
            .unwrap()
            .records
            .iter()
            .map(|r| Op::from_bytes(&r.payload).unwrap())
            .collect();
        let batch = |writes, takes| Op::Batch { writes, takes };
        assert_eq!(ops.len(), 4);
        assert_eq!(
            ops[0],
            batch(
                vec![
                    (20, Some(77), tuples[0].clone()),
                    (21, Some(77), tuples[1].clone())
                ],
                vec![]
            )
        );
        assert_eq!(ops[1], batch(vec![], vec![5, 9, 2]));
        assert_eq!(ops[2], batch(vec![], (0..u64::from(RECORD_OPS)).collect()));
        let rest = u64::from(RECORD_OPS)..u64::from(RECORD_OPS) + 3;
        assert_eq!(ops[3], batch(vec![], rest.collect()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(Op::from_bytes(&[9]).is_err());
    }

    #[test]
    fn retired_cancel_tag_is_an_unknown_op_tag() {
        let mut record = vec![3u8];
        record.extend_from_slice(&10u64.to_le_bytes());
        assert_eq!(
            Op::from_bytes(&record),
            Err(PayloadError::Corrupt("op tag"))
        );
    }

    #[test]
    fn wall_deadline_is_in_the_future() {
        let before = wall_now_ms();
        let dl = wall_deadline(&Lease::for_millis(10_000)).unwrap();
        assert!(dl >= before + 10_000);
        assert_eq!(wall_deadline(&Lease::Forever), None);
    }

    #[test]
    fn instant_wall_conversions_roundtrip() {
        let inst_now = Instant::now();
        let wall_now = wall_now_ms();
        // A deadline 5 s out survives the round trip within clock jitter.
        let expires = Some(inst_now + Duration::from_secs(5));
        let wall = wall_from_instant(expires).unwrap();
        assert!(wall >= wall_now + 4_900 && wall <= wall_now + 5_200);
        let back = instant_from_wall(wall, inst_now, wall_now).unwrap();
        let d = back - inst_now;
        assert!(d >= Duration::from_millis(4_900) && d <= Duration::from_millis(5_200));
        // A deadline already past maps to "expired".
        assert_eq!(instant_from_wall(wall_now, inst_now, wall_now), None);
    }
}
