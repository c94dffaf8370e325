//! Atomic snapshot files.
//!
//! A snapshot is a single file `snapshot-<cut-lsn>.snap` whose body is an
//! opaque blob produced by the layer above (the tuple space serializes its
//! live entries with its wire codec). The file carries a magic, the WAL cut
//! LSN it corresponds to, and a CRC over the body, and is always written
//! atomically: temp file → fsync → rename → fsync(dir). Recovery loads the
//! newest valid snapshot and replays only WAL records with `lsn >= cut`.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;

const MAGIC: &[u8; 8] = b"ACCSNAP1";
const HEADER: usize = 8 + 8 + 4 + 4; // magic + cut_lsn + len + crc

/// Writes `bytes` to `path` atomically: the data lands under a temporary
/// name, is fsynced, renamed over `path`, and the parent directory is
/// fsynced so the rename itself survives a crash. Readers never observe a
/// partially written file.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("tmp");
    {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = dir {
        File::open(dir)?.sync_data()?;
    }
    Ok(())
}

fn snapshot_path(dir: &Path, cut_lsn: u64) -> PathBuf {
    dir.join(format!("snapshot-{cut_lsn:020}.snap"))
}

/// Existing snapshots as `(cut_lsn, path)`, in cut-LSN order.
fn snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(cut) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".snap"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((cut, entry.path()));
    }
    out.sort_unstable();
    Ok(out)
}

/// Writes a snapshot of state covering every WAL record below `cut_lsn`,
/// then removes older snapshot files. After this returns, the caller may
/// compact the WAL up to `cut_lsn`.
pub fn write_snapshot(dir: impl AsRef<Path>, cut_lsn: u64, body: &[u8]) -> io::Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let mut bytes = Vec::with_capacity(HEADER + body.len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&cut_lsn.to_le_bytes());
    bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(body).to_le_bytes());
    bytes.extend_from_slice(body);
    write_atomic(snapshot_path(dir, cut_lsn), &bytes)?;
    for (cut, path) in snapshots(dir)? {
        if cut < cut_lsn {
            fs::remove_file(path)?;
        }
    }
    Ok(())
}

/// Loads the newest snapshot in `dir` that passes its integrity checks,
/// returning `(cut_lsn, body)`. A snapshot with a bad magic, length, or CRC
/// is skipped in favour of the next older one — an interrupted writer can
/// never make recovery worse than "use the previous snapshot".
pub fn load_latest_snapshot(dir: impl AsRef<Path>) -> io::Result<Option<(u64, Vec<u8>)>> {
    let dir = dir.as_ref();
    if !dir.is_dir() {
        return Ok(None);
    }
    for (cut, path) in snapshots(dir)?.into_iter().rev() {
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER || &bytes[0..8] != MAGIC {
            continue;
        }
        let stored_cut = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
        if stored_cut != cut || bytes.len() != HEADER + len {
            continue;
        }
        let body = &bytes[HEADER..];
        if crc32(body) != crc {
            continue;
        }
        return Ok(Some((cut, body.to_vec())));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_dir(label: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("acc-snap-{}-{label}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_then_load_roundtrip() {
        let dir = test_dir("roundtrip");
        write_snapshot(&dir, 42, b"the space state").unwrap();
        let (cut, body) = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(cut, 42);
        assert_eq!(body, b"the space state");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newer_snapshot_replaces_older() {
        let dir = test_dir("replace");
        write_snapshot(&dir, 10, b"old").unwrap();
        write_snapshot(&dir, 20, b"new").unwrap();
        let (cut, body) = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(cut, 20);
        assert_eq!(body, b"new");
        // The older file was compacted away.
        assert_eq!(snapshots(&dir).unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older() {
        let dir = test_dir("fallback");
        write_snapshot(&dir, 10, b"good").unwrap();
        // Hand-write a newer, corrupt snapshot (bad CRC).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u64.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(b"bad");
        fs::write(snapshot_path(&dir, 99), &bytes).unwrap();
        let (cut, body) = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(cut, 10);
        assert_eq!(body, b"good");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_is_skipped() {
        let dir = test_dir("truncated");
        write_snapshot(&dir, 5, b"complete body").unwrap();
        let path = snapshot_path(&dir, 5);
        let full = fs::read(&path).unwrap();
        write_snapshot(&dir, 3, b"older but whole").unwrap();
        // Recreate the newer file, torn mid-body.
        fs::write(&path, &full[..full.len() - 4]).unwrap();
        let (cut, body) = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(cut, 3);
        assert_eq!(body, b"older but whole");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_loads_none() {
        let dir = test_dir("missing");
        assert!(load_latest_snapshot(&dir).unwrap().is_none());
    }

    #[test]
    fn write_atomic_overwrites_in_place() {
        let dir = test_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No stray temp file left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
