//! Durability: journaling, checkpointing and crash recovery. See the
//! `journal` module for the record format and `acc-durability` for the
//! WAL/snapshot machinery.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

use acc_durability::WalOptions;

use super::shard::{LockState, Stored};
use super::{EntryId, Space, SpaceHandle};
use crate::error::{SpaceError, SpaceResult};
use crate::journal::{self, get_deadline, put_deadline, Op, SpaceJournal};
use crate::payload::{decode_frame, NameInterner, Payload, PayloadError, WireReader, WireWriter};
use crate::template::Template;
use crate::tuple::Tuple;

fn storage_err(e: std::io::Error) -> SpaceError {
    SpaceError::Storage(e.to_string())
}

type SnapshotEntries = Vec<(EntryId, Option<u64>, Tuple)>;

/// Encodes the snapshot body: the id counter plus every committed, live
/// entry with its absolute wall-clock deadline.
fn encode_snapshot_body(next_id: u64, entries: &SnapshotEntries) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u64(next_id);
    w.put_u32(entries.len() as u32);
    for (id, deadline_ms, tuple) in entries {
        w.put_u64(*id);
        put_deadline(&mut w, *deadline_ms);
        tuple.encode(&mut w);
    }
    w.into_vec()
}

fn decode_snapshot_body(body: &[u8]) -> Result<(u64, SnapshotEntries), PayloadError> {
    let mut r = WireReader::new(bytes::Bytes::copy_from_slice(body));
    let next_id = r.get_u64()?;
    let n = r.get_u32()? as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let id = r.get_u64()?;
        let deadline_ms = get_deadline(&mut r)?;
        entries.push((id, deadline_ms, Tuple::decode(&mut r)?));
    }
    if r.remaining() != 0 {
        return Err(PayloadError::Corrupt("trailing snapshot bytes"));
    }
    Ok((next_id, entries))
}

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
        // One shape cache across the log: its tuples share a few shapes.
        let mut shapes = NameInterner::new();
        for rec in replay.records {
            if rec.lsn < cut {
                continue;
            }
            let op = decode_frame::<Op>(bytes::Bytes::copy_from_slice(&rec.payload), &mut shapes)
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
                Op::Take { id } => {
                    max_id = max_id.max(id);
                    entries.remove(&id);
                }
                Op::Renew { id, deadline_ms } => {
                    max_id = max_id.max(id);
                    if let Some(slot) = entries.get_mut(&id) {
                        slot.0 = deadline_ms;
                    }
                }
                Op::Batch { writes, takes } => {
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
        let space = Space::new(name);
        for (id, (deadline_ms, tuple)) in entries {
            max_id = max_id.max(id);
            let expires = match deadline_ms {
                None => None,
                Some(ms) => match journal::instant_from_wall(ms, inst_now, wall_now) {
                    // The lease ran out during the downtime: stay dead.
                    None => continue,
                    some => some,
                },
            };
            let shard = space.shard_for(&tuple.type_name_arc());
            space.lock_shard(&shard).insert(Stored {
                id,
                tuple,
                expires,
                lock: LockState::Free,
            });
        }
        space.next_id.store(max_id, Ordering::Relaxed);
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
        let mut entries = SnapshotEntries::new();
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

    /// The journal's WAL, `None` on a non-durable space. Lets tests check
    /// the sync watermarks and hold a sync open.
    #[doc(hidden)]
    pub fn wal(&self) -> Option<&acc_durability::Wal> {
        self.journal().map(|j| j.wal())
    }

    /// Test/diagnostic view: every live, committed entry as `(id, tuple)`,
    /// in id order. Used by the crash-recovery tests to compare a recovered
    /// space against a live one.
    #[doc(hidden)]
    pub fn dump(&self) -> Vec<(EntryId, Tuple)> {
        let mut out = Vec::new();
        self.scan_visible(&Template::any_type().done(), |s| {
            out.push((s.id, s.tuple.clone()))
        });
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }
}
