//! # acc-durability
//!
//! The byte-level durability engine underneath the tuple space and the
//! master's checkpoint/resume: a segmented, CRC-framed append-only
//! write-ahead log ([`Wal`]) whose appends and fsyncs are separate calls,
//! plus atomic snapshot files ([`snapshot`]). The engine is
//! payload-agnostic — callers hand it opaque records (the tuple space
//! encodes ops with its own wire codec) and get back exactly the
//! committed prefix after a crash.
//!
//! ## Crash model
//!
//! The log tolerates *torn tails*: a crash mid-append leaves a partial
//! frame at the end of the newest segment, and recovery truncates the log
//! at the first frame whose length or CRC does not check out instead of
//! failing. Every complete frame before that point is replayed. How much
//! of the acknowledged tail survives a crash is governed by the
//! [`SyncPolicy`], which decides which appends make a sync due: every one
//! (`Always`), the one that brings the ops since the last due to N
//! (`EveryN`; a record may hold many ops), or none (`Never`, leaving
//! flushing to the OS). [`Wal::append`] only reports a due sync; the appender
//! settles it with [`Wal::sync_to`] once it holds no lock of its own, and
//! one fsync settles every due it covers.

#![warn(missing_docs)]

mod crc;
mod series;
pub mod snapshot;
mod wal;

pub use crc::crc32;
pub use snapshot::{load_latest_snapshot, write_atomic, write_snapshot};
pub use wal::{
    Appended, SyncPolicy, Wal, WalOptions, WalRecord, WalReplay, FRAME_HEADER, MAX_RECORD,
};
