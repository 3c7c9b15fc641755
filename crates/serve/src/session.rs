//! Hosted sessions: an owned [`Library`] plus a suspended editor
//! [`Checkpoint`], backed by a per-session `RIOTWAL1` write-ahead file
//! and an optional `RIOTSNAP1` snapshot.
//!
//! # Durability contract
//!
//! Every command the editor *accepts* is appended to the session's WAL
//! (the exact record the editor journaled — CREATE's deduplicated
//! instance name and all) before the `ok` reply is released, so an
//! acknowledged command is always recoverable. The WAL lives at
//! `<root>/<session>.wal` — the root directory is configuration, never
//! a hardcoded path.
//!
//! Appends move through two watermarks: [`SessionEntry::stage_journal`]
//! encodes fresh journal records into an in-memory staging buffer
//! (`staged_records`), and [`SessionEntry::flush_staged`] writes that
//! buffer and **fsyncs** (`durable_records`). A worker in
//! [`crate::manager`] stages every run of a drained batch — across
//! sessions — and pays one fsync per dirty WAL in the batch's flush
//! pass; [`SessionEntry::sync_all`] does both steps at once for close,
//! eviction and drain. Every fsync the server issues goes through one
//! instrumented helper so the
//! `serve.wal.fsync_ns` histogram and `serve.wal.fsyncs` counter are
//! the whole story.
//!
//! # Recovery
//!
//! Reopening a session whose WAL exists runs
//! [`riot_core::Journal::recover_wal`]: the longest intact prefix is
//! kept, and a torn tail — say, from a fault injected at
//! [`riot_core::FAULT_SERVE_JOURNAL_APPEND`] mid-append — costs at
//! most the unacknowledged suffix, never consistency. Then
//! [`SessionEntry::recover`] runs one sequence. It picks a base: the
//! snapshot (see [`crate::snapshot`]) when it decodes and fits this
//! WAL, else the WAL's `edit` head. It replays the records past that
//! base, one command at a time, through the same transactional
//! `execute` everything else uses. It then cuts the WAL in place to the
//! end of the last record that recovered. An intact WAL whose every
//! record replayed is reopened for append and never rewritten, so a
//! kill at any moment of recovery loses nothing that was acknowledged.
//! Recovery cost is bounded by the snapshot interval instead of the
//! session's lifetime.

use crate::fault::ServeFaults;
use crate::snapshot::{load_snapshot, write_snapshot};
use riot_core::{
    encode_session, encode_wal_record, record, Checkpoint, Command, Editor, Journal, Library,
    RiotError, WAL_MAGIC,
};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where a session's WAL file lives.
pub fn wal_path(root: &Path, session: &str) -> PathBuf {
    root.join(format!("{session}.wal"))
}

/// What happened when a session was brought into memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenKind {
    /// Fresh session: no WAL existed.
    Created,
    /// WAL existed and was replayed.
    Recovered {
        /// Journal records recovered, counting the `edit` head and any
        /// records restored from a snapshot rather than replayed.
        records: usize,
        /// `true` when the WAL had a corrupt tail that was truncated.
        truncated: bool,
    },
}

/// A hosted session at rest: owned library, suspended editor state,
/// and the open WAL append handle.
#[derive(Debug)]
pub struct SessionEntry {
    /// Session name (also the WAL file stem).
    pub name: String,
    /// The session's own cell menu.
    pub lib: Library,
    /// Suspended editor state; `None` only transiently while a worker
    /// has the editor resumed.
    pub cp: Option<Checkpoint>,
    /// Number of journal records already durable in the WAL.
    pub durable_records: usize,
    /// Last time a worker touched this session (drives idle eviction).
    pub last_touch: Instant,
    /// Encoded records staged for the next flush pass.
    staged: Vec<u8>,
    /// Journal records encoded into `staged` (absolute watermark;
    /// `durable_records <= staged_records <= journal length`).
    staged_records: usize,
    /// Journal records covered by the newest durable snapshot (0 when
    /// no snapshot exists).
    snap_covered: usize,
    wal: File,
    path: PathBuf,
}

impl SessionEntry {
    /// Creates a brand-new session editing `cell`, writing the WAL
    /// magic and the `edit` head record.
    ///
    /// # Errors
    ///
    /// Editor errors (e.g. `cell` names a leaf) as a reply-ready
    /// string, or WAL I/O failures.
    pub fn create(
        root: &Path,
        name: &str,
        cell: &str,
        mut lib: Library,
    ) -> Result<SessionEntry, String> {
        let path = wal_path(root, name);
        let cp = {
            let ed = Editor::open(&mut lib, cell).map_err(|e| format!("open failed: {e}"))?;
            ed.suspend()
        };
        let mut wal = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)
            .map_err(|e| format!("cannot create WAL {}: {e}", path.display()))?;
        wal.write_all(&cp.journal().to_wal())
            .and_then(|()| fsync_file(&mut wal))
            .map_err(|e| format!("cannot write WAL head: {e}"))?;
        riot_trace::registry()
            .counter("serve.sessions.created")
            .inc();
        Ok(SessionEntry {
            name: name.to_owned(),
            lib,
            cp: Some(cp),
            durable_records: 1,
            last_touch: Instant::now(),
            staged: Vec::new(),
            staged_records: 1,
            snap_covered: 0,
            wal,
            path,
        })
    }

    /// Recovers a session from its WAL (and snapshot, when one exists)
    /// in one sequence, per the recovery matrix in [`crate::snapshot`]:
    ///
    /// 1. pick the base — the snapshot when it decodes, its journal
    ///    holds `covered` records, it fits the WAL's layout and the
    ///    editor resumes from it; else the WAL's `edit` head; else an
    ///    honest error for a compacted WAL with no usable snapshot;
    /// 2. replay the records past the base, stopping at the first that
    ///    fails;
    /// 3. cut the WAL in place to the end of the last record that
    ///    recovered. An intact WAL that replayed in full is left
    ///    untouched.
    ///
    /// # Errors
    ///
    /// A reply-ready description when the WAL is unreadable, empty of
    /// even a head record, or the replay fails structurally.
    pub fn recover(
        root: &Path,
        name: &str,
        lib: Library,
    ) -> Result<(SessionEntry, OpenKind), String> {
        let path = wal_path(root, name);
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read WAL {}: {e}", path.display()))?;
        let rec = Journal::recover_wal(&bytes);
        let truncated = !rec.is_clean();
        let reg = riot_trace::registry();
        if truncated {
            reg.counter("serve.recovery.truncated").inc();
        }
        reg.counter("serve.recovery.sessions").inc();
        let cmds = rec.journal.commands();
        // `edit` only ever appears as a journal head, so *first record
        // is `edit`* ⇔ *full-history WAL* (vs. compacted tail).
        let head = match cmds.first() {
            Some(Command::Edit { cell }) => Some(cell),
            _ => None,
        };

        // 1 + 2, snapshot base (`Ok(None)` when there is none). A full
        // WAL repeats the snapshot's `covered` records; a compacted one
        // starts past them.
        let from_snapshot = load_snapshot(root, name)
            .map_err(|e| e.to_string())
            .and_then(|found| {
                let Some((covered, slib, cp)) = found else {
                    return Ok(None);
                };
                let past = if head.is_some() { covered } else { 0 };
                let held = cp.journal().commands().len();
                if covered == 0 || held != covered || past > cmds.len() {
                    return Err(format!(
                        "it covers {covered} records, its journal holds {held}, the WAL {}",
                        cmds.len()
                    ));
                }
                let replayed = resume_and_replay(slib, cp, &cmds[past..])?;
                Ok(Some((replayed, covered, past)))
            });
        if from_snapshot.is_err() {
            reg.counter("serve.recovery.snapshot_corrupt").inc();
        }
        // 1 + 2, fallback: the `edit` head, every record past it.
        let ((lib, cp, replayed), snap_covered, past) = match (from_snapshot, head) {
            (Ok(Some(found)), _) => {
                reg.counter("serve.recovery.snapshot_loads").inc();
                found
            }
            (_, Some(cell)) => {
                reg.counter("serve.recovery.full_replay").inc();
                let mut lib = lib;
                let cp = Editor::open(&mut lib, cell)
                    .map_err(|e| format!("recovered head: {e}"))?
                    .suspend();
                (resume_and_replay(lib, cp, &cmds[1..])?, 0, 1)
            }
            (Ok(None), None) => {
                return Err(format!(
                    "WAL {} is compacted (no `edit` head, {} records) but no snapshot exists",
                    path.display(),
                    cmds.len(),
                ))
            }
            (Err(e), None) => {
                return Err(format!(
                    "WAL {} is compacted but its snapshot is unusable: {e}",
                    path.display(),
                ))
            }
        };
        reg.counter("serve.recovery.replayed_records")
            .add(replayed as u64);

        // 3: cut the WAL to the records that recovered.
        let kept = past + replayed;
        let end = match kept {
            0 => WAL_MAGIC.len(),
            k => rec.record_ends[k - 1],
        };
        let wal = reopen_cut(&path, bytes.starts_with(WAL_MAGIC), end, bytes.len())
            .map_err(|e| format!("cannot cut WAL {}: {e}", path.display()))?;
        let durable = cp.journal().commands().len();
        Ok((
            SessionEntry {
                name: name.to_owned(),
                lib,
                cp: Some(cp),
                durable_records: durable,
                last_touch: Instant::now(),
                staged: Vec::new(),
                staged_records: durable,
                snap_covered,
                wal,
                path,
            },
            OpenKind::Recovered {
                records: durable,
                truncated,
            },
        ))
    }

    /// Opens a session: recover when its WAL exists, create otherwise.
    ///
    /// # Errors
    ///
    /// See [`SessionEntry::create`] / [`SessionEntry::recover`].
    pub fn open(
        root: &Path,
        name: &str,
        cell: &str,
        lib: Library,
    ) -> Result<(SessionEntry, OpenKind), String> {
        if wal_path(root, name).exists() {
            SessionEntry::recover(root, name, lib)
        } else {
            SessionEntry::create(root, name, cell, lib).map(|e| (e, OpenKind::Created))
        }
    }

    /// Encodes every journal record the suspended checkpoint holds
    /// beyond the staging watermark into the in-memory staging buffer.
    /// Nothing touches the disk; a later [`SessionEntry::flush_staged`]
    /// (typically the batch's flush pass) makes it durable.
    /// Returns the number of records staged.
    pub fn stage_journal(&mut self) -> usize {
        let Some(cp) = self.cp.as_ref() else {
            return 0;
        };
        let cmds = cp.journal().commands();
        let new = &cmds[self.staged_records.min(cmds.len())..];
        if new.is_empty() {
            return 0;
        }
        let before = self.staged.len();
        for cmd in new {
            encode_wal_record(&mut self.staged, cmd);
        }
        riot_trace::registry()
            .counter("serve.wal.staged_bytes")
            .add((self.staged.len() - before) as u64);
        self.staged_records = cmds.len();
        new.len()
    }

    /// Writes the staging buffer to the WAL and fsyncs — the covering
    /// flush that lets every staged run's reply be released. Returns
    /// the number of records that just became durable.
    ///
    /// # Errors
    ///
    /// WAL I/O failures (the in-memory state is still intact).
    pub fn flush_staged(&mut self) -> io::Result<usize> {
        let newly = self.staged_records - self.durable_records;
        if newly == 0 && self.staged.is_empty() {
            return Ok(0);
        }
        self.wal.write_all(&self.staged)?;
        let bytes = self.staged.len();
        self.staged.clear();
        self.fsync_wal()?;
        let reg = riot_trace::registry();
        reg.counter("serve.wal.bytes").add(bytes as u64);
        reg.counter("serve.wal.records").add(newly as u64);
        self.durable_records = self.staged_records;
        Ok(newly)
    }

    /// Discards staged-but-unflushed records (crash path: the session
    /// is being dropped, and unflushed work was never acknowledged).
    pub fn discard_staged(&mut self) {
        self.staged.clear();
        self.staged_records = self.durable_records;
    }

    /// Records covered by the newest durable snapshot (0 when none).
    pub fn snap_covered(&self) -> usize {
        self.snap_covered
    }

    /// The one instrumented fsync for this session's WAL.
    fn fsync_wal(&mut self) -> io::Result<()> {
        fsync_file(&mut self.wal)
    }

    /// Cuts a snapshot when at least `every` records accumulated past
    /// the last one (`every == 0` disables snapshots). Returns whether
    /// a snapshot was written.
    pub fn maybe_snapshot(&mut self, root: &Path, every: usize, faults: &ServeFaults) -> bool {
        if every == 0 || self.durable_records < self.snap_covered + every {
            return false;
        }
        self.snapshot_now(root, faults)
    }

    /// Cuts a snapshot covering everything durable, then compacts the
    /// WAL behind it. Any failure — a real I/O error, an injected
    /// [`riot_core::FAULT_SERVE_SNAPSHOT_WRITE`] tear, an armed fault
    /// plan the codec refuses to persist — is contained: compaction is
    /// skipped, the full WAL still holds every record, the session
    /// keeps running, and recovery falls back to full replay.
    pub fn snapshot_now(&mut self, root: &Path, faults: &ServeFaults) -> bool {
        let Some(cp) = self.cp.as_ref() else {
            return false;
        };
        let covered = self.durable_records;
        if cp.journal().commands().len() != covered {
            // Only fully-flushed states are snapshot-consistent: the
            // snapshot's journal must equal the durable WAL prefix.
            return false;
        }
        let Ok(payload) = encode_session(&self.lib, cp) else {
            return false;
        };
        if write_snapshot(root, &self.name, covered as u64, &payload, faults).is_err() {
            return false;
        }
        self.snap_covered = covered;
        if let Err(_e) = self.compact_wal(covered) {
            // Benign: the durable snapshot plus the full WAL still
            // recover; compaction will be retried at the next cut.
            riot_trace::registry()
                .counter("serve.snapshot.compact_failed")
                .inc();
        }
        true
    }

    /// Atomically rewrites the WAL to hold only the records past
    /// `covered`: temp file, fsync, rename, reopen the append handle.
    /// The tail records are acknowledged data, so the rewrite must
    /// never be observable half-done.
    fn compact_wal(&mut self, covered: usize) -> io::Result<()> {
        let cp = self
            .cp
            .as_ref()
            .expect("compact_wal requires a suspended session");
        let cmds = cp.journal().commands();
        let mut tail = Journal::new();
        for cmd in &cmds[covered.min(cmds.len())..] {
            tail.record(cmd.clone());
        }
        let tmp = self.path.with_file_name(format!("{}.wal.tmp", self.name));
        let mut f = File::create(&tmp)?;
        f.write_all(&tail.to_wal())?;
        f.sync_data()?;
        drop(f);
        std::fs::rename(&tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            crate::snapshot::sync_dir(dir);
        }
        self.wal = OpenOptions::new().append(true).open(&self.path)?;
        riot_trace::registry()
            .counter("serve.wal.compactions")
            .inc();
        Ok(())
    }

    /// Simulates a crash mid-append: writes a deliberately **torn**
    /// record (full header, half the payload) for `line` and syncs it
    /// to disk. The caller drops the session afterwards; recovery on
    /// reopen truncates this record away.
    pub fn append_torn_record(&mut self, line: &str) {
        let mut buf = Vec::new();
        let _ = record::encode(&mut buf, line.as_bytes());
        buf.truncate(record::HEADER_LEN + line.len() / 2);
        let _ = self.wal.write_all(&buf);
        let _ = self.wal.flush();
        let _ = self.wal.sync_all();
    }

    /// Forces file durability (used on close/evict/drain): stages and
    /// flushes anything pending through the same instrumented fsync
    /// every other flush uses, so `serve.wal.fsync_ns` covers these
    /// paths too. A session with nothing pending costs no fsync — its
    /// acknowledged records were already synced by their covering
    /// flush.
    pub fn sync_all(&mut self) -> io::Result<()> {
        self.stage_journal();
        self.flush_staged().map(|_| ())
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The one replay loop: resumes a suspended editor — a snapshot's, or
/// a fresh `edit` head's — and replays `tail` through the one
/// transactional entry point, stopping (and counting
/// `serve.recovery.replay_stopped`) at the first record that fails.
/// Returns the rebuilt library, the re-suspended checkpoint, and how
/// many tail records replayed.
fn resume_and_replay(
    mut lib: Library,
    cp: Checkpoint,
    tail: &[Command],
) -> Result<(Library, Checkpoint, usize), String> {
    let mut ed = Editor::resume(&mut lib, cp).map_err(|e| format!("resume failed: {e}"))?;
    let mut ok = 0usize;
    for cmd in tail {
        if ed.execute(cmd.clone()).is_err() {
            riot_trace::registry()
                .counter("serve.recovery.replay_stopped")
                .inc();
            break;
        }
        ok += 1;
    }
    let cp = ed.suspend();
    Ok((lib, cp, ok))
}

/// Reopens the WAL for append, cut to its first `end` of `len` bytes.
/// A WAL that is already `end` bytes long is left untouched. A longer
/// one is cut in place with `set_len` and synced. A file without the
/// magic holds nothing recoverable and restarts as a bare magic.
fn reopen_cut(path: &Path, has_magic: bool, end: usize, len: usize) -> io::Result<File> {
    let mut wal = OpenOptions::new().append(true).open(path)?;
    if !has_magic {
        wal.set_len(0)?;
        wal.write_all(WAL_MAGIC)?;
        fsync_file(&mut wal)?;
    } else if end < len {
        wal.set_len(end as u64)?;
        fsync_file(&mut wal)?;
    }
    Ok(wal)
}

/// The one instrumented fsync: every WAL fsync the server issues lands
/// in the `serve.wal.fsync_ns` histogram and `serve.wal.fsyncs`
/// counter, so fsyncs-per-command is computable from telemetry alone.
fn fsync_file(f: &mut File) -> io::Result<()> {
    let start = Instant::now();
    f.sync_data()?;
    let reg = riot_trace::registry();
    reg.histogram("serve.wal.fsync_ns")
        .record(start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    reg.counter("serve.wal.fsyncs").inc();
    Ok(())
}

/// Executes one wire command line against a resumed editor, mapping
/// the outcome to a reply detail string.
///
/// # Errors
///
/// The editor's error, reply-ready.
pub fn execute_line(ed: &mut Editor<'_>, line: &str) -> Result<String, RiotError> {
    let cmd = riot_core::parse_command_line(line, 0)?;
    let out = ed.execute(cmd)?;
    Ok(outcome_text(&out))
}

/// A compact, stable text form of an [`riot_core::Outcome`].
pub fn outcome_text(out: &riot_core::Outcome) -> String {
    use riot_core::Outcome;
    match out {
        Outcome::None => "done".to_owned(),
        Outcome::Instance(id) => format!("instance {}", id.index()),
        Outcome::Cell(id) => format!("cell {}", id.index()),
        Outcome::CellInstance(c, i) => format!("cell {} instance {}", c.index(), i.index()),
        Outcome::Count(n) => format!("count {n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::standard_library;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("riot-serve-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn create_then_recover_round_trips_state() {
        let root = tmp_root("roundtrip");
        let (mut entry, kind) = SessionEntry::open(&root, "s1", "TOP", standard_library()).unwrap();
        assert_eq!(kind, OpenKind::Created);
        {
            let mut ed = Editor::resume(&mut entry.lib, entry.cp.take().unwrap()).unwrap();
            execute_line(&mut ed, "create nand2 A").unwrap();
            execute_line(&mut ed, "create nand2 B").unwrap();
            execute_line(&mut ed, "translate B 5000 0").unwrap();
            entry.cp = Some(ed.suspend());
        }
        entry.sync_all().unwrap();
        assert_eq!(entry.durable_records, 4);
        drop(entry);

        let (mut entry2, kind2) =
            SessionEntry::open(&root, "s1", "TOP", standard_library()).unwrap();
        assert_eq!(
            kind2,
            OpenKind::Recovered {
                records: 4,
                truncated: false
            }
        );
        let ed = Editor::resume(&mut entry2.lib, entry2.cp.take().unwrap()).unwrap();
        assert_eq!(ed.instances().len(), 2);
        assert_eq!(ed.journal().commands().len(), 4);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn torn_append_recovers_to_the_acknowledged_prefix() {
        let root = tmp_root("torn");
        let (mut entry, _) = SessionEntry::open(&root, "s2", "TOP", standard_library()).unwrap();
        {
            let mut ed = Editor::resume(&mut entry.lib, entry.cp.take().unwrap()).unwrap();
            execute_line(&mut ed, "create nand2 A").unwrap();
            entry.cp = Some(ed.suspend());
        }
        entry.sync_all().unwrap();
        // Crash mid-append of a command that was never acknowledged.
        entry.append_torn_record("create nand2 B");
        drop(entry);

        let (mut entry2, kind) =
            SessionEntry::open(&root, "s2", "TOP", standard_library()).unwrap();
        assert_eq!(
            kind,
            OpenKind::Recovered {
                records: 2,
                truncated: true
            }
        );
        let wal_file = entry2.path().to_path_buf();
        let ed = Editor::resume(&mut entry2.lib, entry2.cp.take().unwrap()).unwrap();
        assert_eq!(ed.instances().len(), 1, "only the acknowledged command");
        // And the file, cut in place, is now clean.
        let bytes = std::fs::read(&wal_file).unwrap();
        assert!(Journal::recover_wal(&bytes).is_clean());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn recovering_an_intact_wal_leaves_it_untouched() {
        use std::os::unix::fs::MetadataExt;
        let root = tmp_root("intact");
        let (mut entry, _) = SessionEntry::open(&root, "in", "TOP", standard_library()).unwrap();
        {
            let mut ed = Editor::resume(&mut entry.lib, entry.cp.take().unwrap()).unwrap();
            execute_line(&mut ed, "create nand2 A").unwrap();
            entry.cp = Some(ed.suspend());
        }
        entry.sync_all().unwrap();
        let path = entry.path().to_path_buf();
        drop(entry);
        // Backdate the file so any rewrite would show in its mtime.
        let old = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1 << 20);
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(old)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let inode = std::fs::metadata(&path).unwrap().ino();

        let (entry2, kind) = SessionEntry::open(&root, "in", "TOP", standard_library()).unwrap();
        assert_eq!(
            kind,
            OpenKind::Recovered {
                records: 2,
                truncated: false
            }
        );
        let meta = std::fs::metadata(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "same bytes");
        assert_eq!(meta.ino(), inode, "same file");
        assert_eq!(meta.modified().unwrap(), old, "never written");
        drop(entry2);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_wal_whose_replay_stops_early_ends_at_its_last_kept_record() {
        let root = tmp_root("cut");
        let path = wal_path(&root, "cut");
        let mut journal = Journal::new();
        for line in [
            "edit TOP",
            "create nand2 A",
            "translate NOPE 10 0",
            "create nand2 B",
        ] {
            journal.record(riot_core::parse_command_line(line, 0).unwrap());
        }
        let bytes = journal.to_wal();
        std::fs::write(&path, &bytes).unwrap();
        // `translate NOPE` is intact on disk but names no instance.
        let kept = Journal::recover_wal(&bytes).record_ends[1];

        let (mut entry, kind) =
            SessionEntry::open(&root, "cut", "TOP", standard_library()).unwrap();
        assert_eq!(
            kind,
            OpenKind::Recovered {
                records: 2,
                truncated: false
            }
        );
        assert_eq!(std::fs::read(&path).unwrap(), &bytes[..kept]);
        // The cut WAL takes appends where it now ends.
        {
            let mut ed = Editor::resume(&mut entry.lib, entry.cp.take().unwrap()).unwrap();
            execute_line(&mut ed, "create nand2 C").unwrap();
            entry.cp = Some(ed.suspend());
        }
        entry.sync_all().unwrap();
        drop(entry);
        let (_, kind) = SessionEntry::open(&root, "cut", "TOP", standard_library()).unwrap();
        assert!(matches!(kind, OpenKind::Recovered { records: 3, .. }));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_wal_without_its_magic_restarts_behind_the_snapshot() {
        let root = tmp_root("magic");
        let faults = crate::fault::ServeFaults::none();
        let (mut entry, _) = SessionEntry::open(&root, "mg", "TOP", standard_library()).unwrap();
        {
            let mut ed = Editor::resume(&mut entry.lib, entry.cp.take().unwrap()).unwrap();
            execute_line(&mut ed, "create nand2 A").unwrap();
            entry.cp = Some(ed.suspend());
        }
        entry.sync_all().unwrap();
        assert!(entry.snapshot_now(&root, &faults));
        let path = entry.path().to_path_buf();
        drop(entry);
        std::fs::write(&path, b"NOTAWAL!").unwrap();

        let (entry2, kind) = SessionEntry::open(&root, "mg", "TOP", standard_library()).unwrap();
        assert_eq!(
            kind,
            OpenKind::Recovered {
                records: 2,
                truncated: true
            }
        );
        assert_eq!(std::fs::read(&path).unwrap(), WAL_MAGIC, "a fresh magic");
        drop(entry2);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn staged_records_survive_only_after_flush() {
        let root = tmp_root("staged");
        let (mut entry, _) = SessionEntry::open(&root, "st", "TOP", standard_library()).unwrap();
        {
            let mut ed = Editor::resume(&mut entry.lib, entry.cp.take().unwrap()).unwrap();
            execute_line(&mut ed, "create nand2 A").unwrap();
            execute_line(&mut ed, "create nand2 B").unwrap();
            entry.cp = Some(ed.suspend());
        }
        assert_eq!(entry.stage_journal(), 2);
        assert_eq!(entry.durable_records, 1, "staging wrote nothing");
        assert_eq!(entry.flush_staged().unwrap(), 2);
        assert_eq!(entry.durable_records, 3);
        assert_eq!(entry.flush_staged().unwrap(), 0, "idempotent");
        drop(entry);
        let (entry2, kind) = SessionEntry::open(&root, "st", "TOP", standard_library()).unwrap();
        assert!(matches!(kind, OpenKind::Recovered { records: 3, .. }));
        drop(entry2);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn snapshot_compacts_the_wal_and_recovers_from_the_tail() {
        let root = tmp_root("snap");
        let faults = crate::fault::ServeFaults::none();
        let (mut entry, _) = SessionEntry::open(&root, "sn", "TOP", standard_library()).unwrap();
        {
            let mut ed = Editor::resume(&mut entry.lib, entry.cp.take().unwrap()).unwrap();
            for name in ["A", "B", "C"] {
                execute_line(&mut ed, &format!("create nand2 {name}")).unwrap();
            }
            execute_line(&mut ed, "undo").unwrap();
            entry.cp = Some(ed.suspend());
        }
        entry.sync_all().unwrap();
        assert!(!entry.maybe_snapshot(&root, 100, &faults), "below interval");
        assert!(entry.maybe_snapshot(&root, 5, &faults), "5 durable >= 5");
        assert_eq!(entry.snap_covered(), 5);
        // The compacted WAL holds no records (snapshot covers them all)
        // and no longer starts with the `edit` head.
        let bytes = std::fs::read(entry.path()).unwrap();
        assert_eq!(bytes, WAL_MAGIC, "fully compacted");
        // Post-snapshot commands land in the compacted WAL's tail.
        {
            let mut ed = Editor::resume(&mut entry.lib, entry.cp.take().unwrap()).unwrap();
            execute_line(&mut ed, "create nand2 D").unwrap();
            entry.cp = Some(ed.suspend());
        }
        entry.sync_all().unwrap();
        drop(entry);

        let replayed_before = riot_trace::registry()
            .counter("serve.recovery.replayed_records")
            .get();
        let (mut entry2, kind) =
            SessionEntry::open(&root, "sn", "TOP", standard_library()).unwrap();
        assert_eq!(
            kind,
            OpenKind::Recovered {
                records: 6,
                truncated: false
            }
        );
        let replayed = riot_trace::registry()
            .counter("serve.recovery.replayed_records")
            .get()
            - replayed_before;
        assert_eq!(replayed, 1, "only the post-snapshot tail replays");
        let ed = Editor::resume(&mut entry2.lib, entry2.cp.take().unwrap()).unwrap();
        assert_eq!(ed.instances().len(), 3, "A, B (C undone), D");
        assert_eq!(ed.undo_depth(), 3, "undo stack restored from snapshot");
        assert_eq!(ed.journal().commands().len(), 6);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn torn_snapshot_falls_back_to_full_replay() {
        let root = tmp_root("snapfault");
        let faults = crate::fault::ServeFaults::none();
        faults.arm(riot_core::FAULT_SERVE_SNAPSHOT_WRITE, 0);
        let (mut entry, _) = SessionEntry::open(&root, "tf", "TOP", standard_library()).unwrap();
        {
            let mut ed = Editor::resume(&mut entry.lib, entry.cp.take().unwrap()).unwrap();
            execute_line(&mut ed, "create nand2 A").unwrap();
            execute_line(&mut ed, "create nand2 B").unwrap();
            entry.cp = Some(ed.suspend());
        }
        entry.sync_all().unwrap();
        assert!(!entry.snapshot_now(&root, &faults), "fault tears the write");
        assert_eq!(entry.snap_covered(), 0, "torn snapshot is not trusted");
        // Compaction was skipped: the WAL still starts with the head.
        let bytes = std::fs::read(entry.path()).unwrap();
        let rec = Journal::recover_wal(&bytes);
        assert!(matches!(
            rec.journal.commands().first(),
            Some(Command::Edit { .. })
        ));
        drop(entry);

        let full_before = riot_trace::registry()
            .counter("serve.recovery.full_replay")
            .get();
        let (mut entry2, kind) =
            SessionEntry::open(&root, "tf", "TOP", standard_library()).unwrap();
        assert!(matches!(kind, OpenKind::Recovered { records: 3, .. }));
        let full_after = riot_trace::registry()
            .counter("serve.recovery.full_replay")
            .get();
        assert_eq!(full_after - full_before, 1, "fell back to full replay");
        let ed = Editor::resume(&mut entry2.lib, entry2.cp.take().unwrap()).unwrap();
        assert_eq!(ed.instances().len(), 2);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn compacted_wal_without_its_snapshot_is_an_honest_error() {
        let root = tmp_root("snapgone");
        let faults = crate::fault::ServeFaults::none();
        let (mut entry, _) = SessionEntry::open(&root, "sg", "TOP", standard_library()).unwrap();
        {
            let mut ed = Editor::resume(&mut entry.lib, entry.cp.take().unwrap()).unwrap();
            execute_line(&mut ed, "create nand2 A").unwrap();
            entry.cp = Some(ed.suspend());
        }
        entry.sync_all().unwrap();
        assert!(entry.snapshot_now(&root, &faults));
        drop(entry);
        std::fs::remove_file(crate::snapshot::snap_path(&root, "sg")).unwrap();
        let err = SessionEntry::open(&root, "sg", "TOP", standard_library()).unwrap_err();
        assert!(err.contains("no snapshot exists"), "{err}");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn undo_redo_survive_the_wal() {
        let root = tmp_root("undo");
        let (mut entry, _) = SessionEntry::open(&root, "s3", "TOP", standard_library()).unwrap();
        {
            let mut ed = Editor::resume(&mut entry.lib, entry.cp.take().unwrap()).unwrap();
            execute_line(&mut ed, "create nand2 A").unwrap();
            execute_line(&mut ed, "undo").unwrap();
            execute_line(&mut ed, "redo").unwrap();
            entry.cp = Some(ed.suspend());
        }
        entry.sync_all().unwrap();
        drop(entry);
        let (mut entry2, kind) =
            SessionEntry::open(&root, "s3", "TOP", standard_library()).unwrap();
        assert!(matches!(kind, OpenKind::Recovered { records: 4, .. }));
        let ed = Editor::resume(&mut entry2.lib, entry2.cp.take().unwrap()).unwrap();
        assert_eq!(ed.instances().len(), 1);
        assert_eq!(ed.undo_depth(), 1);
        let _ = std::fs::remove_dir_all(root);
    }
}
