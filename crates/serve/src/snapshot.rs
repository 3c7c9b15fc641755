//! Session snapshots: `RIOTSNAP1` files that make recovery
//! O(snapshot + WAL tail) instead of O(history).
//!
//! # File format
//!
//! ```text
//! "RIOTSNAP1"            9-byte magic
//! u64 LE covered         journal records the snapshot covers
//!                        (including the `edit` head)
//! one record             riot_core::record: u32 LE payload length,
//!                        u32 LE CRC-32, then the
//!                        riot_core::encode_session bytes
//! ```
//!
//! The record is the one the WAL and the wire use, read and written by
//! the same [`riot_core::record`] code.
//!
//! # Durability protocol
//!
//! A snapshot is written to `<session>.snap.tmp`, fsynced, renamed over
//! `<session>.snap`, and the directory fsynced — readers only ever see
//! either the previous intact snapshot or the new one, never a partial
//! write (unless the [`FAULT_SERVE_SNAPSHOT_WRITE`] fault site
//! deliberately tears one to prove recovery's fallback).
//!
//! Only after the snapshot is durable may the WAL be **compacted**
//! (truncated to the records past `covered` — see
//! [`crate::session::SessionEntry`]). A compacted WAL no longer starts
//! with the `edit` head, which is exactly how recovery tells the two
//! layouts apart: journal records are never `edit` lines mid-session
//! (the engine rejects `edit` outside a journal head), so *first
//! record is `edit`* ⇔ *full-history WAL*.
//!
//! # Recovery matrix
//!
//! | WAL layout | snapshot    | recovery                                |
//! |------------|-------------|-----------------------------------------|
//! | full       | intact      | decode snapshot, replay records past it |
//! | full       | torn/bad    | full-history replay (fallback)          |
//! | full       | missing     | full-history replay                     |
//! | compacted  | intact      | decode snapshot, replay every record    |
//! | compacted  | torn/bad    | unrecoverable — reported honestly       |
//!
//! The last row cannot happen without bytes rotting on disk: compaction
//! only runs after the covering snapshot is durable. "Intact" also
//! means consistent: the snapshot's journal holds `covered` records,
//! a full WAL holds at least that many, and the editor resumes from it.
//! [`crate::session::SessionEntry::recover`] walks this table as one
//! sequence: pick the base, replay the records past it, cut the WAL.

use crate::fault::ServeFaults;
use riot_core::record::{self, RecordCorruption};
use riot_core::{decode_session, Checkpoint, Library, FAULT_SERVE_SNAPSHOT_WRITE};
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic header opening a session snapshot file.
pub const SNAP_MAGIC: &[u8; 9] = b"RIOTSNAP1";

/// Where a session's snapshot file lives.
pub fn snap_path(root: &Path, session: &str) -> PathBuf {
    root.join(format!("{session}.snap"))
}

/// Why a snapshot file could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read.
    Io(String),
    /// The framing is damaged: bad magic, torn, or a failed CRC.
    Record(RecordCorruption),
    /// The payload failed to decode as a session.
    Decode(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "cannot read snapshot: {e}"),
            SnapshotError::Record(c) => write!(f, "snapshot framing: {c}"),
            SnapshotError::Decode(e) => write!(f, "snapshot payload does not decode: {e}"),
        }
    }
}

/// Validates the framing of snapshot `bytes` and returns
/// `(covered, payload)`.
///
/// # Errors
///
/// [`SnapshotError::Record`] with the magic, header or payload damage.
pub fn parse_snapshot(bytes: &[u8]) -> Result<(u64, &[u8]), SnapshotError> {
    let Some(rest) = bytes.strip_prefix(SNAP_MAGIC) else {
        return Err(SnapshotError::Record(RecordCorruption::BadMagic));
    };
    let Some((covered, rest)) = rest.split_first_chunk::<8>() else {
        return Err(SnapshotError::Record(RecordCorruption::TornHeader));
    };
    let (payload, _) = record::scan_eof(rest, None).map_err(SnapshotError::Record)?;
    Ok((u64::from_le_bytes(*covered), payload))
}

/// Writes a snapshot atomically: temp file, fsync, rename, directory
/// fsync. The header and then the payload go out straight from the
/// caller's buffer, so a cut never holds a second full-size copy. On a
/// [`FAULT_SERVE_SNAPSHOT_WRITE`] trip the final path gets a
/// deliberately torn file instead (header plus half the payload) and
/// the write reports failure — the caller must then *skip* compaction,
/// so the full WAL still carries every record the torn snapshot lost.
///
/// # Errors
///
/// Real I/O failures, or the simulated failure on a fault trip.
pub fn write_snapshot(
    root: &Path,
    session: &str,
    covered: u64,
    payload: &[u8],
    faults: &ServeFaults,
) -> io::Result<()> {
    let reg = riot_trace::registry();
    let mut header = SNAP_MAGIC.to_vec();
    header.extend_from_slice(&covered.to_le_bytes());
    header.extend_from_slice(&record::header(payload).map_err(io::Error::other)?);
    let final_path = snap_path(root, session);
    if faults.should_inject(FAULT_SERVE_SNAPSHOT_WRITE) {
        // A torn write straight over the final path: everything up to
        // half the payload made it, the rest did not.
        let _ = File::create(&final_path).and_then(|mut f| {
            f.write_all(&header)?;
            f.write_all(&payload[..payload.len() / 2])
        });
        reg.counter("serve.snapshot.torn").inc();
        return Err(io::Error::other("fault injected at snapshot write"));
    }
    let tmp = root.join(format!("{session}.snap.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(&header)?;
    f.write_all(payload)?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, &final_path)?;
    sync_dir(root);
    reg.counter("serve.snapshot.written").inc();
    reg.counter("serve.snapshot.bytes")
        .add((header.len() + payload.len()) as u64);
    Ok(())
}

/// Best-effort directory fsync so a rename survives power loss.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Loads `session`'s snapshot: the journal records it covers
/// (including the `edit` head), the library and the suspended session
/// at snapshot time — `None` when there is no snapshot. Counts nothing:
/// recovery decides whether a loaded snapshot is usable.
///
/// # Errors
///
/// A snapshot file that cannot be read, framed or decoded.
pub fn load_snapshot(
    root: &Path,
    session: &str,
) -> Result<Option<(usize, Library, Checkpoint)>, SnapshotError> {
    let bytes = match std::fs::read(snap_path(root, session)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SnapshotError::Io(e.to_string())),
    };
    let (covered, payload) = parse_snapshot(&bytes)?;
    let (lib, cp) = decode_session(payload).map_err(|e| SnapshotError::Decode(e.to_string()))?;
    Ok(Some((
        usize::try_from(covered).unwrap_or(usize::MAX),
        lib,
        cp,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The on-disk bytes for `payload`: magic, `covered`, one record.
    fn snapshot_bytes(covered: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = SNAP_MAGIC.to_vec();
        out.extend_from_slice(&covered.to_le_bytes());
        record::encode(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frame_and_parse_round_trip() {
        let payload = b"not a real session, framing only";
        let bytes = snapshot_bytes(42, payload);
        let (covered, p) = parse_snapshot(&bytes).unwrap();
        assert_eq!(covered, 42);
        assert_eq!(p, payload);
    }

    #[test]
    fn torn_and_corrupt_framing_are_detected() {
        let payload = b"payload bytes";
        let bytes = snapshot_bytes(7, payload);
        assert_eq!(
            parse_snapshot(b"RIOTWAL1xxxx"),
            Err(SnapshotError::Record(RecordCorruption::BadMagic))
        );
        for len in SNAP_MAGIC.len()..bytes.len() {
            assert!(
                matches!(
                    parse_snapshot(&bytes[..len]),
                    Err(SnapshotError::Record(
                        RecordCorruption::TornHeader | RecordCorruption::TornPayload { .. }
                    ))
                ),
                "prefix {len}"
            );
        }
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            parse_snapshot(&flipped),
            Err(SnapshotError::Record(RecordCorruption::BadChecksum { .. }))
        ));
    }

    #[test]
    fn snapshot_write_fault_leaves_a_torn_file() {
        let dir = std::env::temp_dir().join(format!("riot-snap-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let faults = ServeFaults::none();
        faults.arm(FAULT_SERVE_SNAPSHOT_WRITE, 0);
        let payload = vec![0xAB; 64];
        let err = write_snapshot(&dir, "s", 9, &payload, &faults).unwrap_err();
        assert!(err.to_string().contains("fault injected"));
        let bytes = std::fs::read(snap_path(&dir, "s")).unwrap();
        assert_eq!(
            parse_snapshot(&bytes),
            Err(SnapshotError::Record(RecordCorruption::TornPayload {
                expected: 64,
                available: 32
            }))
        );
        // A later, healthy write replaces the torn file atomically.
        write_snapshot(&dir, "s", 9, &payload, &faults).unwrap();
        let bytes = std::fs::read(snap_path(&dir, "s")).unwrap();
        assert_eq!(parse_snapshot(&bytes).unwrap(), (9, payload.as_slice()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
