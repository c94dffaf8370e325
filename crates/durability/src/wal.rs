//! The segmented append-only write-ahead log.
//!
//! # On-disk layout
//!
//! A log directory holds numbered segment files `wal-<start-lsn>.log`;
//! the 20-digit zero-padded start LSN makes lexicographic order equal
//! LSN order. A segment is a run of frames:
//!
//! ```text
//! [u32 len (LE)] [u32 crc32(payload) (LE)] [payload bytes]
//! ```
//!
//! LSNs are implicit — the i-th frame of a segment starting at LSN `s`
//! has LSN `s + i` — so frames carry no per-record header beyond length
//! and checksum. One record may hold many of the caller's ops; the sync
//! policy counts ops, not records. Appends are a single `write(2)` of the
//! whole frame (never buffered in userspace), so after a process kill the
//! file contains every acknowledged append up to at most one torn frame at
//! the tail; `fsync` cadence against *machine* failure is the
//! [`SyncPolicy`]'s business.
//!
//! # Append, then sync
//!
//! [`Wal::append`] writes under the WAL mutex and only *decides*, by the
//! policy, whether a sync is due; it never fsyncs. The caller settles a
//! due sync with [`Wal::sync_to`] after it has let go of its own locks.
//! `sync_to` serializes on a separate sync mutex and skips the fsync when
//! the synced watermark already covers the LSN: one fsync covers every
//! record written before it started, so ops that fall due together share
//! it. Only segment rotation (once per `segment_bytes`) still fsyncs
//! under the WAL mutex, sealing the old segment before the new one opens.
//!
//! # Recovery
//!
//! [`Wal::open`] scans the newest segment and physically truncates it at
//! the first frame whose length or CRC fails — torn-tail tolerance.
//! [`Wal::replay`] walks every segment in LSN order and stops at the
//! first bad frame, returning exactly the committed prefix.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::crc::crc32;
use crate::series::series;

/// Upper bound on one record's payload; a larger length prefix is treated
/// as corruption (it would otherwise make recovery attempt a huge read),
/// and a larger append panics.
pub const MAX_RECORD: usize = 64 << 20;

/// Bytes a frame handed to [`Wal::append_frame`] reserves in front of its
/// payload, for the length and checksum the WAL fills in.
pub const FRAME_HEADER: usize = 8;

/// When appends are made durable against machine failure: which appends
/// make a sync due (see [`Appended::sync_due`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// A sync is due after every append. Safest, slowest.
    Always,
    /// A sync is due at the append that brings the ops appended since the
    /// last due to N or more: a record counts the ops its appender declares
    /// ([`Wal::append`] one), so at most N − 1 acknowledged ops are ever
    /// left unsynced.
    EveryN(u32),
    /// Never `fsync`; the OS flushes on its own schedule. A process kill
    /// still loses nothing (appends are direct writes), only a machine
    /// failure can.
    Never,
}

/// Tunables for a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Durability cadence for appends.
    pub sync: SyncPolicy,
    /// Rotate to a fresh segment once the current one exceeds this size.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            sync: SyncPolicy::EveryN(64),
            segment_bytes: 8 << 20,
        }
    }
}

/// One recovered record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The opaque payload as appended.
    pub payload: Vec<u8>,
}

/// Everything [`Wal::replay`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// Committed records in LSN order.
    pub records: Vec<WalRecord>,
    /// Bytes discarded at the tail (torn frame or trailing corruption).
    pub torn_bytes: u64,
}

/// What one [`Wal::append`] or [`Wal::append_frame`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Appended {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The sync policy made a sync due at this record: the appender owes
    /// a [`Wal::sync_to`] of `lsn` before it acknowledges any op the
    /// record holds.
    pub sync_due: bool,
}

impl Appended {
    /// The LSN a sync is owed for, if this append made one due.
    pub fn owed(&self) -> Option<u64> {
        self.sync_due.then_some(self.lsn)
    }
}

struct Inner {
    file: Arc<File>,
    segment_len: u64,
    next_lsn: u64,
    /// Ops appended since the policy last made a sync due.
    unsynced: u64,
    /// One past the newest LSN the policy made due.
    due_below: u64,
}

/// A segmented append-only log of opaque records. All methods are
/// thread-safe; appends are serialized by an internal mutex, which is what
/// makes the WAL order a real total order for the layers above. Syncs
/// serialize on a mutex of their own (see the module docs).
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    inner: Mutex<Inner>,
    sync_lock: Mutex<()>,
    /// Every record with an LSN below this is on stable storage.
    synced_below: AtomicU64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("dir", &self.dir).finish()
    }
}

fn segment_path(dir: &Path, start_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{start_lsn:020}.log"))
}

/// Existing segments as `(start_lsn, path)`, in LSN order.
fn segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(start) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((start, entry.path()));
    }
    out.sort_unstable();
    Ok(out)
}

/// Scans one segment's bytes: returns `(record_count, valid_len)` and, when
/// `collect` is set, the payloads of every valid frame. Stops at the first
/// frame that is incomplete or fails its checksum.
fn scan_segment(bytes: &[u8], collect: bool) -> (u64, u64, Vec<Vec<u8>>) {
    let mut offset = 0usize;
    let mut count = 0u64;
    let mut payloads = Vec::new();
    while let Some(header) = bytes.get(offset..offset + FRAME_HEADER) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            break;
        }
        let Some(payload) = bytes.get(offset + FRAME_HEADER..offset + FRAME_HEADER + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        if collect {
            payloads.push(payload.to_vec());
        }
        offset += FRAME_HEADER + len;
        count += 1;
    }
    (count, offset as u64, payloads)
}

impl Wal {
    /// Opens (or creates) the log in `dir`. If the newest segment ends in a
    /// torn frame, it is truncated to its last complete frame — the log is
    /// always append-ready afterwards.
    pub fn open(dir: impl Into<PathBuf>, opts: WalOptions) -> io::Result<Wal> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segs = segments(&dir)?;
        let (start, path) = match segs.last() {
            Some((start, path)) => (*start, path.clone()),
            None => (0, segment_path(&dir, 0)),
        };
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (count, valid_len, _) = scan_segment(&bytes, false);
        if valid_len < bytes.len() as u64 {
            file.set_len(valid_len)?;
            file.sync_data()?;
            // Reopen in append mode so the cursor lands at the new end on
            // every platform (append repositions per write, but be exact).
            file = OpenOptions::new().read(true).append(true).open(&path)?;
        }
        Ok(Wal {
            dir,
            opts,
            inner: Mutex::new(Inner {
                file: Arc::new(file),
                segment_len: valid_len,
                next_lsn: start + count,
                unsynced: 0,
                due_below: 0,
            }),
            sync_lock: Mutex::new(()),
            synced_below: AtomicU64::new(0),
        })
    }

    /// Appends one record of one op and asks the sync policy whether a
    /// sync is now due; it does not sync. The frame is written with a
    /// single `write(2)`, so a concurrent crash can tear at most this one
    /// frame.
    pub fn append(&self, payload: &[u8]) -> io::Result<Appended> {
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&[0; FRAME_HEADER]);
        frame.extend_from_slice(payload);
        self.append_frame(&mut frame, 1)
    }

    /// Appends one record holding `ops` of the caller's ops, encoded in
    /// `frame[FRAME_HEADER..]`: fills in the header in place and writes
    /// the frame with a single `write(2)`, like [`Wal::append`]. The sync
    /// policy counts all `ops`, and a due sync covers them all.
    pub fn append_frame(&self, frame: &mut [u8], ops: u32) -> io::Result<Appended> {
        assert!(frame.len() >= FRAME_HEADER, "frame lacks its header");
        let len = frame.len() - FRAME_HEADER;
        assert!(len <= MAX_RECORD, "record exceeds MAX_RECORD");
        let crc = crc32(&frame[FRAME_HEADER..]);
        frame[0..4].copy_from_slice(&(len as u32).to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());

        let mut inner = self.inner.lock().expect("wal lock");
        if inner.segment_len >= self.opts.segment_bytes && inner.segment_len > 0 {
            self.rotate(&mut inner)?;
        }
        (&*inner.file).write_all(frame)?;
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        inner.segment_len += frame.len() as u64;
        inner.unsynced += u64::from(ops);
        let sync_due = match self.opts.sync {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => inner.unsynced >= u64::from(n.max(1)),
            SyncPolicy::Never => false,
        };
        if sync_due {
            inner.unsynced = 0;
            inner.due_below = lsn + 1;
        }
        drop(inner);
        let s = series();
        s.appends.inc();
        s.append_bytes.add(frame.len() as u64);
        Ok(Appended { lsn, sync_due })
    }

    /// Makes the record at `lsn`, and every record before it, durable.
    /// Returns at once when an earlier fsync already covered `lsn`;
    /// otherwise fsyncs everything appended so far, holding only the sync
    /// mutex, so appends carry on meanwhile.
    pub fn sync_to(&self, lsn: u64) -> io::Result<()> {
        if self.synced_below.load(Ordering::Acquire) > lsn {
            return Ok(());
        }
        let _sync = self.sync_lock.lock().expect("wal sync lock");
        // A sync that ran while this one waited may have covered `lsn`.
        if self.synced_below.load(Ordering::Acquire) > lsn {
            return Ok(());
        }
        // Records in sealed segments were synced at rotation, so the
        // current file holds every record this fsync must cover.
        let (file, end) = {
            let inner = self.inner.lock().expect("wal lock");
            (inner.file.clone(), inner.next_lsn)
        };
        file.sync_data()?;
        self.synced_below.fetch_max(end, Ordering::AcqRel);
        series().fsyncs.inc();
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        match self.next_lsn() {
            0 => Ok(()),
            end => self.sync_to(end - 1),
        }
    }

    /// Every record with an LSN below this one is on stable storage.
    pub fn synced_below(&self) -> u64 {
        self.synced_below.load(Ordering::Acquire)
    }

    /// Every LSN the sync policy has made due is below this one.
    pub fn due_below(&self) -> u64 {
        self.inner.lock().expect("wal lock").due_below
    }

    /// Ops appended since the sync policy last made a sync due: under
    /// `EveryN(n)`, always below `n`.
    pub fn unsynced_ops(&self) -> u64 {
        self.inner.lock().expect("wal lock").unsynced
    }

    /// Takes the sync mutex, as a sync in flight holds it: every
    /// [`Wal::sync_to`] that must fsync waits until the guard drops. Lets
    /// a test hold a sync open and check what proceeds beside it.
    #[doc(hidden)]
    pub fn hold_sync(&self) -> MutexGuard<'_, ()> {
        self.sync_lock.lock().expect("wal sync lock")
    }

    /// Seals the current segment and starts a new one at the current LSN.
    fn rotate(&self, inner: &mut Inner) -> io::Result<()> {
        inner.file.sync_data()?;
        self.synced_below
            .fetch_max(inner.next_lsn, Ordering::AcqRel);
        let path = segment_path(&self.dir, inner.next_lsn);
        inner.file = Arc::new(
            OpenOptions::new()
                .create(true)
                .read(true)
                .append(true)
                .open(path)?,
        );
        inner.segment_len = 0;
        Ok(())
    }

    /// The LSN the next append will get.
    pub fn next_lsn(&self) -> u64 {
        self.inner.lock().expect("wal lock").next_lsn
    }

    /// Deletes every segment whose records all have `lsn < upto`, i.e. are
    /// covered by a snapshot taken at cut LSN `upto`. The active segment is
    /// never deleted. Returns how many segments were removed.
    pub fn compact(&self, upto: u64) -> io::Result<usize> {
        // Hold the append lock so rotation cannot race the directory scan.
        let _inner = self.inner.lock().expect("wal lock");
        let segs = segments(&self.dir)?;
        let mut removed = 0;
        for window in segs.windows(2) {
            let (_, path) = &window[0];
            let (next_start, _) = window[1];
            // All records of window[0] have lsn < next_start.
            if next_start <= upto {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Reads every committed record in `dir` in LSN order, stopping at the
    /// first incomplete or corrupt frame (torn-tail tolerance). Does not
    /// modify any file — safe on a copied directory.
    pub fn replay(dir: impl AsRef<Path>) -> io::Result<WalReplay> {
        let dir = dir.as_ref();
        let mut records = Vec::new();
        let mut torn_bytes = 0u64;
        let segs = if dir.is_dir() {
            segments(dir)?
        } else {
            Vec::new()
        };
        let mut expected_lsn: Option<u64> = None;
        for (start, path) in segs {
            if let Some(expected) = expected_lsn {
                if start != expected {
                    // A gap or overlap in the segment chain: everything from
                    // here on is not a contiguous committed prefix.
                    break;
                }
            }
            let bytes = fs::read(&path)?;
            let (count, valid_len, payloads) = scan_segment(&bytes, true);
            for (i, payload) in payloads.into_iter().enumerate() {
                records.push(WalRecord {
                    lsn: start + i as u64,
                    payload,
                });
            }
            if valid_len < bytes.len() as u64 {
                torn_bytes = bytes.len() as u64 - valid_len;
                break; // Only the prefix up to the tear is committed.
            }
            expected_lsn = Some(start + count);
        }
        Ok(WalReplay {
            records,
            torn_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_dir(label: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("acc-wal-{}-{label}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = test_dir("roundtrip");
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        for i in 0..50u64 {
            let lsn = wal.append(&i.to_le_bytes()).unwrap().lsn;
            assert_eq!(lsn, i);
        }
        let replay = Wal::replay(&dir).unwrap();
        assert_eq!(replay.records.len(), 50);
        assert_eq!(replay.torn_bytes, 0);
        for (i, rec) in replay.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64);
            assert_eq!(rec.payload, (i as u64).to_le_bytes());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_lsns() {
        let dir = test_dir("reopen");
        {
            let wal = Wal::open(&dir, WalOptions::default()).unwrap();
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
        }
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.next_lsn(), 2);
        assert_eq!(wal.append(b"three").unwrap().lsn, 2);
        assert_eq!(Wal::replay(&dir).unwrap().records.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = test_dir("torn");
        {
            let wal = Wal::open(&dir, WalOptions::default()).unwrap();
            for i in 0..10u64 {
                wal.append(&i.to_le_bytes()).unwrap();
            }
        }
        // Simulate a crash mid-append: append garbage half-frame bytes.
        let path = segment_path(&dir, 0);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0x55; 7]).unwrap();
        drop(file);
        let replay = Wal::replay(&dir).unwrap();
        assert_eq!(replay.records.len(), 10);
        assert_eq!(replay.torn_bytes, 7);
        // Reopening truncates the tear and continues cleanly.
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.next_lsn(), 10);
        wal.append(b"fresh").unwrap();
        assert_eq!(Wal::replay(&dir).unwrap().records.len(), 11);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_byte_truncation_yields_a_committed_prefix() {
        let dir = test_dir("prefix");
        {
            let wal = Wal::open(&dir, WalOptions::default()).unwrap();
            for i in 0..8u64 {
                wal.append(&[i as u8; 5]).unwrap();
            }
        }
        let path = segment_path(&dir, 0);
        let full = fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let replay = Wal::replay(&dir).unwrap();
            // Whatever the cut, we get a clean prefix of whole records and
            // no invented data.
            assert_eq!(cut as u64, {
                let consumed: u64 = replay
                    .records
                    .iter()
                    .map(|r| FRAME_HEADER as u64 + r.payload.len() as u64)
                    .sum();
                consumed + replay.torn_bytes
            });
            for (i, rec) in replay.records.iter().enumerate() {
                assert_eq!(rec.payload, [i as u8; 5]);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_frame_stops_replay_there() {
        let dir = test_dir("corrupt");
        {
            let wal = Wal::open(&dir, WalOptions::default()).unwrap();
            for _ in 0..5 {
                wal.append(b"payload").unwrap();
            }
        }
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let frame = FRAME_HEADER + b"payload".len();
        bytes[2 * frame + FRAME_HEADER] ^= 0xFF; // flip a byte in record 2
        fs::write(&path, &bytes).unwrap();
        let replay = Wal::replay(&dir).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.torn_bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_cross_segment_replay() {
        let dir = test_dir("rotate");
        let opts = WalOptions {
            segment_bytes: 64,
            ..WalOptions::default()
        };
        let wal = Wal::open(&dir, opts).unwrap();
        for i in 0..40u64 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        assert!(segments(&dir).unwrap().len() > 1, "should have rotated");
        let replay = Wal::replay(&dir).unwrap();
        assert_eq!(replay.records.len(), 40);
        for (i, rec) in replay.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_only_covered_segments() {
        let dir = test_dir("compact");
        let opts = WalOptions {
            segment_bytes: 64,
            ..WalOptions::default()
        };
        let wal = Wal::open(&dir, opts).unwrap();
        for i in 0..40u64 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        let before = segments(&dir).unwrap();
        assert!(before.len() > 2);
        // A cut in the middle of the chain keeps the segment holding it.
        let cut = before[1].0; // every record of segment 0 is < cut
        assert_eq!(wal.compact(cut).unwrap(), 1);
        let replay = Wal::replay(&dir).unwrap();
        assert_eq!(replay.records.first().unwrap().lsn, cut);
        assert_eq!(replay.records.last().unwrap().lsn, 39);
        // Compacting past the end removes all but the active segment.
        wal.compact(u64::MAX).unwrap();
        assert_eq!(segments(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_policies_all_preserve_appends_on_reopen() {
        for (label, sync) in [
            ("always", SyncPolicy::Always),
            ("every", SyncPolicy::EveryN(8)),
            ("never", SyncPolicy::Never),
        ] {
            let dir = test_dir(label);
            {
                let wal = Wal::open(
                    &dir,
                    WalOptions {
                        sync,
                        ..WalOptions::default()
                    },
                )
                .unwrap();
                for i in 0..20u64 {
                    wal.append(&i.to_le_bytes()).unwrap();
                }
            }
            // A process exit (not machine crash) loses nothing under any
            // policy: appends hit the file directly.
            assert_eq!(Wal::replay(&dir).unwrap().records.len(), 20, "{label}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn every_n_makes_every_nth_append_due_and_never_syncs_by_itself() {
        let dir = test_dir("due");
        let opts = WalOptions {
            sync: SyncPolicy::EveryN(4),
            ..WalOptions::default()
        };
        let wal = Wal::open(&dir, opts).unwrap();
        let owed: Vec<Option<u64>> = (0..10u64)
            .map(|i| wal.append(&i.to_le_bytes()).unwrap().owed())
            .collect();
        let due: Vec<u64> = owed.into_iter().flatten().collect();
        assert_eq!(due, [3, 7]);
        assert_eq!(wal.due_below(), 8);
        assert_eq!(wal.synced_below(), 0, "an append never fsyncs");
        // One sync covers everything appended before it, so the earlier
        // due needs no second fsync.
        wal.sync_to(7).unwrap();
        assert_eq!(wal.synced_below(), 10);
        wal.sync_to(3).unwrap();
        assert_eq!(wal.synced_below(), 10);
        wal.sync().unwrap();
        assert_eq!(wal.synced_below(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_counts_the_ops_a_record_holds() {
        let dir = test_dir("ops");
        let opts = WalOptions {
            sync: SyncPolicy::EveryN(8),
            ..WalOptions::default()
        };
        let wal = Wal::open(&dir, opts).unwrap();
        let mut append = |ops: u32| {
            let mut frame = vec![0; FRAME_HEADER];
            frame.extend_from_slice(&ops.to_le_bytes());
            wal.append_frame(&mut frame, ops).unwrap().owed()
        };
        // 3 + 3 leave 6 ops unsynced; the third record reaches 9 and falls
        // due, and a record of 20 ops falls due by itself.
        let owed: Vec<Option<u64>> = [3, 3, 3, 20, 7, 1].into_iter().map(&mut append).collect();
        assert_eq!(owed, [None, None, Some(2), Some(3), None, Some(5)]);
        assert_eq!(wal.unsynced_ops(), 0);
        assert_eq!(append(7), None);
        assert_eq!(wal.unsynced_ops(), 7);
        let replay = Wal::replay(&dir).unwrap();
        let payloads: Vec<&[u8]> = replay.records.iter().map(|r| &r.payload[..]).collect();
        assert_eq!(payloads[3], 20u32.to_le_bytes());
        assert_eq!(payloads.len(), 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sync_waits_for_the_one_in_flight_and_rotation_seals_what_it_holds() {
        let dir = test_dir("follower");
        let opts = WalOptions {
            sync: SyncPolicy::Always,
            segment_bytes: 64,
        };
        let wal = Arc::new(Wal::open(&dir, opts).unwrap());
        let first = wal.append(b"first").unwrap();
        assert_eq!(first.owed(), Some(0));
        let held = wal.hold_sync();
        let follower = {
            let wal = wal.clone();
            std::thread::spawn(move || wal.sync_to(first.lsn))
        };
        // Appends proceed beside the held sync, and rotation syncs the
        // segment it seals without the sync mutex.
        for i in 0..20u64 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        assert!(segments(&dir).unwrap().len() > 1, "should have rotated");
        assert!(wal.synced_below() > first.lsn);
        drop(held);
        follower.join().unwrap().unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.synced_below(), 21);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_dir_replays_empty() {
        let dir = test_dir("missing");
        let replay = Wal::replay(&dir).unwrap();
        assert!(replay.records.is_empty());
        let wal = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(wal.next_lsn(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
