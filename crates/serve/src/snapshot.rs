//! Session snapshots: `RIOTSNAP1` files that make recovery
//! O(snapshot + WAL tail) instead of O(history).
//!
//! # File format
//!
//! ```text
//! "RIOTSNAP1"            9-byte magic
//! u64 LE covered         journal records the snapshot covers
//!                        (including the `edit` head)
//! u32 LE payload length
//! u32 LE CRC-32          IEEE, over the payload only
//! payload                riot_core::encode_session bytes
//! ```
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
//! only runs after the covering snapshot is durable.

use crate::fault::ServeFaults;
use riot_core::{crc32, decode_session, Checkpoint, Library, FAULT_SERVE_SNAPSHOT_WRITE};
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic header opening a session snapshot file.
pub const SNAP_MAGIC: &[u8; 9] = b"RIOTSNAP1";

/// Fixed bytes before the payload: magic, covered count, length, CRC.
const HEADER_LEN: usize = SNAP_MAGIC.len() + 8 + 4 + 4;

/// Where a session's snapshot file lives.
pub fn snap_path(root: &Path, session: &str) -> PathBuf {
    root.join(format!("{session}.snap"))
}

/// Why a snapshot file could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file could not be read.
    Io(String),
    /// The file does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The file ends before the declared payload does (torn write).
    Torn,
    /// The payload CRC-32 does not match the header.
    BadCrc,
    /// The payload failed to decode as a session.
    Decode(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "cannot read snapshot: {e}"),
            SnapshotError::BadMagic => write!(f, "not a RIOTSNAP1 file"),
            SnapshotError::Torn => write!(f, "snapshot is torn (truncated payload)"),
            SnapshotError::BadCrc => write!(f, "snapshot payload fails its CRC"),
            SnapshotError::Decode(e) => write!(f, "snapshot payload does not decode: {e}"),
        }
    }
}

/// The fixed header that precedes `payload` on disk.
fn snapshot_header(covered: u64, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..9].copy_from_slice(SNAP_MAGIC);
    h[9..17].copy_from_slice(&covered.to_le_bytes());
    h[17..21].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[21..25].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Frames `payload` into the on-disk snapshot layout.
pub fn frame_snapshot(covered: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = snapshot_header(covered, payload).to_vec();
    out.extend_from_slice(payload);
    out
}

/// Validates the framing of snapshot `bytes` and returns
/// `(covered, payload)`.
///
/// # Errors
///
/// [`SnapshotError::BadMagic`], [`SnapshotError::Torn`] (file shorter
/// than the declared payload) or [`SnapshotError::BadCrc`].
pub fn parse_snapshot(bytes: &[u8]) -> Result<(u64, &[u8]), SnapshotError> {
    if bytes.len() < SNAP_MAGIC.len() || &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Torn);
    }
    let covered = u64::from_le_bytes(bytes[9..17].try_into().unwrap());
    let len = u32::from_le_bytes(bytes[17..21].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[21..25].try_into().unwrap());
    let Some(payload) = bytes.get(HEADER_LEN..HEADER_LEN + len) else {
        return Err(SnapshotError::Torn);
    };
    if crc32(payload) != crc {
        return Err(SnapshotError::BadCrc);
    }
    Ok((covered, payload))
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
    let header = snapshot_header(covered, payload);
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
        .add((HEADER_LEN + payload.len()) as u64);
    Ok(())
}

/// Best-effort directory fsync so a rename survives power loss.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The outcome of looking for a session's snapshot.
#[derive(Debug)]
pub enum SnapLoad {
    /// No snapshot file exists.
    Missing,
    /// An intact snapshot was decoded.
    Loaded {
        /// Journal records the snapshot covers (incl. the `edit` head).
        covered: usize,
        /// The library at snapshot time.
        lib: Box<Library>,
        /// The suspended session at snapshot time.
        cp: Box<Checkpoint>,
    },
    /// A snapshot file exists but cannot be used.
    Corrupt(SnapshotError),
}

/// Loads `session`'s snapshot, if any. A corrupt snapshot is counted
/// (`serve.recovery.snapshot_corrupt`) and reported, never trusted; an
/// intact one counts `serve.recovery.snapshot_loaded`.
pub fn load_snapshot(root: &Path, session: &str) -> SnapLoad {
    let path = snap_path(root, session);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return SnapLoad::Missing,
        Err(e) => {
            riot_trace::registry()
                .counter("serve.recovery.snapshot_corrupt")
                .inc();
            return SnapLoad::Corrupt(SnapshotError::Io(e.to_string()));
        }
    };
    let parsed = parse_snapshot(&bytes)
        .and_then(|(covered, payload)| {
            decode_session(payload)
                .map(|(lib, cp)| (covered, lib, cp))
                .map_err(|e| SnapshotError::Decode(e.to_string()))
        })
        .map(|(covered, lib, cp)| SnapLoad::Loaded {
            covered: covered as usize,
            lib: Box::new(lib),
            cp: Box::new(cp),
        });
    match parsed {
        Ok(loaded) => {
            riot_trace::registry()
                .counter("serve.recovery.snapshot_loaded")
                .inc();
            loaded
        }
        Err(e) => {
            riot_trace::registry()
                .counter("serve.recovery.snapshot_corrupt")
                .inc();
            SnapLoad::Corrupt(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_and_parse_round_trip() {
        let payload = b"not a real session, framing only";
        let bytes = frame_snapshot(42, payload);
        let (covered, p) = parse_snapshot(&bytes).unwrap();
        assert_eq!(covered, 42);
        assert_eq!(p, payload);
    }

    #[test]
    fn torn_and_corrupt_framing_are_detected() {
        let payload = b"payload bytes";
        let bytes = frame_snapshot(7, payload);
        assert_eq!(
            parse_snapshot(b"RIOTWAL1xxxx"),
            Err(SnapshotError::BadMagic)
        );
        for len in SNAP_MAGIC.len()..bytes.len() {
            assert_eq!(
                parse_snapshot(&bytes[..len]),
                Err(SnapshotError::Torn),
                "prefix {len}"
            );
        }
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert_eq!(parse_snapshot(&flipped), Err(SnapshotError::BadCrc));
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
        assert_eq!(parse_snapshot(&bytes), Err(SnapshotError::Torn));
        // A later, healthy write replaces the torn file atomically.
        write_snapshot(&dir, "s", 9, &payload, &faults).unwrap();
        let bytes = std::fs::read(snap_path(&dir, "s")).unwrap();
        assert_eq!(parse_snapshot(&bytes).unwrap(), (9, payload.as_slice()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
