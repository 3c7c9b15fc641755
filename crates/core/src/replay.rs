//! REPLAY: the command journal.
//!
//! "Riot saves the commands given by the user and can re-run an editing
//! session if some of the input files have changed. The replay file uses
//! instance names and connector names to identify connections, and the
//! positions are re-calculated, thereby avoiding the problems with
//! differently-shaped cells. The replay also enables users to recover an
//! abnormally-terminated editing session or an accidentally-deleted
//! file."
//!
//! The journal is a `Vec<`[`Command`]`>` — the same values the command
//! engine executes — so replay is nothing but a loop of
//! [`crate::Editor::execute`]. This module owns only the text
//! (de)serialization; there is no second per-command dispatch.
//!
//! # Crash-safe write-ahead format
//!
//! Besides the human-readable text form, a journal serializes to a
//! binary **write-ahead log** ([`Journal::to_wal`]) built for recovery
//! after an abnormal termination: an 8-byte magic (`RIOTWAL1`) followed
//! by one [`crate::record`] per command, whose payload is the same
//! single-line text the replay file uses. [`Journal::recover_wal`]
//! reads as many intact records as it can and **truncates at the first
//! corrupt one** (torn header, short payload, checksum or parse
//! mismatch), returning the recovered prefix, where each kept record
//! ends, and what stopped it — the `riot-check` harness proves the
//! prefix always replays to a state the reference model explains.

use crate::command::Command;
use crate::editor::Editor;
use crate::error::RiotError;
use crate::library::Library;
use crate::record::{self, RecordCorruption};
use riot_geom::Point;
use riot_rest::SolveMode;
use riot_route::RouterOptions;
use std::fmt;
use std::fmt::Write as _;

/// The journaled form of a command. Since the engine unification this
/// *is* [`Command`]; the alias keeps the original name alive.
pub use crate::command::Command as ReplayCommand;

/// An ordered journal of commands, savable as text.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Journal {
    commands: Vec<Command>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends one command.
    pub fn record(&mut self, cmd: Command) {
        self.commands.push(cmd);
    }

    /// The commands in order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Serializes to the replay file format.
    ///
    /// `Route` serializes `move|stay` plus the engine choice when it is
    /// not the default river engine (`route move grid`); the rest of
    /// the router tuning is not serialized and parsing restores the
    /// defaults. River routes keep the historical two-field form
    /// byte-for-byte.
    pub fn to_text(&self) -> String {
        let mut out = String::from("riot replay v1\n");
        for cmd in &self.commands {
            out.push_str(&command_to_line(cmd));
            out.push('\n');
        }
        out
    }

    /// Parses a replay file.
    ///
    /// # Errors
    ///
    /// [`RiotError::Parse`] with the offending line.
    pub fn parse(text: &str) -> Result<Journal, RiotError> {
        let mut lines = text.lines().enumerate();
        let perr = |line: usize, msg: &str| RiotError::Parse {
            line: line + 1,
            message: msg.to_owned(),
        };
        match lines.next() {
            Some((_, header)) if header.trim() == "riot replay v1" => {}
            _ => return Err(perr(0, "missing `riot replay v1` header")),
        }
        let mut journal = Journal::new();
        for (n, raw) in lines {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            journal.record(parse_command_line(line, n)?);
        }
        Ok(journal)
    }
}

/// Serializes one command as its single-line replay form (no newline).
pub fn command_to_line(cmd: &Command) -> String {
    let mut out = String::new();
    match cmd {
        Command::Edit { cell } => {
            let _ = write!(out, "edit {cell}");
        }
        Command::Create { cell, instance } => {
            let _ = write!(out, "create {cell} {instance}");
        }
        Command::Translate { instance, d } => {
            let _ = write!(out, "translate {instance} {} {}", d.x, d.y);
        }
        Command::Orient { instance, orient } => {
            let _ = write!(out, "orient {instance} {orient}");
        }
        Command::Replicate {
            instance,
            cols,
            rows,
        } => {
            let _ = write!(out, "replicate {instance} {cols} {rows}");
        }
        Command::Spacing { instance, col, row } => {
            let _ = write!(out, "spacing {instance} {col} {row}");
        }
        Command::Delete { instance } => {
            let _ = write!(out, "delete {instance}");
        }
        Command::Connect {
            from,
            from_connector,
            to,
            to_connector,
        } => {
            let _ = write!(out, "connect {from} {from_connector} {to} {to_connector}");
        }
        Command::RemovePending { index } => {
            let _ = write!(out, "unpend {index}");
        }
        Command::ClearPending => out.push_str("clearpend"),
        Command::Abut { overlap } => {
            let _ = write!(out, "abut {}", if *overlap { "overlap" } else { "touch" });
        }
        Command::AbutInstances { from, to } => {
            let _ = write!(out, "abutinst {from} {to}");
        }
        Command::Route { move_from, router } => {
            let _ = write!(out, "route {}", if *move_from { "move" } else { "stay" });
            if router.engine == riot_route::RouterEngine::Grid {
                out.push_str(" grid");
            }
        }
        Command::Stretch { mode } => match mode {
            SolveMode::PreserveGaps => out.push_str("stretch"),
            SolveMode::DesignRules => out.push_str("stretch rules"),
        },
        Command::BringOut {
            instance,
            connectors,
            side,
        } => {
            let _ = write!(out, "bringout {instance} {side}");
            for c in connectors {
                let _ = write!(out, " {c}");
            }
        }
        Command::Finish => out.push_str("finish"),
        Command::Undo => out.push_str("undo"),
        Command::Redo => out.push_str("redo"),
    }
    out
}

/// Parses one replay line (already comment-stripped, non-empty) into a
/// command. `n` is the 0-based line (or record) number for errors.
///
/// # Errors
///
/// [`RiotError::Parse`] describing the malformed field.
pub fn parse_command_line(line: &str, n: usize) -> Result<Command, RiotError> {
    let perr = |line: usize, msg: &str| RiotError::Parse {
        line: line + 1,
        message: msg.to_owned(),
    };
    let f: Vec<&str> = line.split_whitespace().collect();
    if f.is_empty() {
        return Err(perr(n, "empty command line"));
    }
    {
        let need = |k: usize| -> Result<(), RiotError> {
            if f.len() == k {
                Ok(())
            } else {
                Err(perr(n, &format!("`{}` needs {} fields", f[0], k - 1)))
            }
        };
        let cmd = match f[0] {
            "edit" => {
                need(2)?;
                Command::Edit { cell: f[1].into() }
            }
            "create" => {
                need(3)?;
                Command::Create {
                    cell: f[1].into(),
                    instance: f[2].into(),
                }
            }
            "translate" => {
                need(4)?;
                Command::Translate {
                    instance: f[1].into(),
                    d: Point::new(
                        f[2].parse().map_err(|_| perr(n, "bad integer"))?,
                        f[3].parse().map_err(|_| perr(n, "bad integer"))?,
                    ),
                }
            }
            "orient" => {
                need(3)?;
                Command::Orient {
                    instance: f[1].into(),
                    orient: f[2].parse().map_err(|_| perr(n, "bad orientation"))?,
                }
            }
            "replicate" => {
                need(4)?;
                Command::Replicate {
                    instance: f[1].into(),
                    cols: f[2].parse().map_err(|_| perr(n, "bad count"))?,
                    rows: f[3].parse().map_err(|_| perr(n, "bad count"))?,
                }
            }
            "spacing" => {
                need(4)?;
                Command::Spacing {
                    instance: f[1].into(),
                    col: f[2].parse().map_err(|_| perr(n, "bad pitch"))?,
                    row: f[3].parse().map_err(|_| perr(n, "bad pitch"))?,
                }
            }
            "delete" => {
                need(2)?;
                Command::Delete {
                    instance: f[1].into(),
                }
            }
            "connect" => {
                need(5)?;
                Command::Connect {
                    from: f[1].into(),
                    from_connector: f[2].into(),
                    to: f[3].into(),
                    to_connector: f[4].into(),
                }
            }
            "unpend" => {
                need(2)?;
                Command::RemovePending {
                    index: f[1].parse().map_err(|_| perr(n, "bad index"))?,
                }
            }
            "clearpend" => {
                need(1)?;
                Command::ClearPending
            }
            "abut" => {
                need(2)?;
                Command::Abut {
                    overlap: match f[1] {
                        "overlap" => true,
                        "touch" => false,
                        _ => return Err(perr(n, "abut wants overlap|touch")),
                    },
                }
            }
            "abutinst" => {
                need(3)?;
                Command::AbutInstances {
                    from: f[1].into(),
                    to: f[2].into(),
                }
            }
            "route" => {
                let engine = match f.len() {
                    2 => riot_route::RouterEngine::River,
                    3 if f[2] == "grid" => riot_route::RouterEngine::Grid,
                    _ => return Err(perr(n, "route wants move|stay [grid]")),
                };
                Command::Route {
                    move_from: match f[1] {
                        "move" => true,
                        "stay" => false,
                        _ => return Err(perr(n, "route wants move|stay")),
                    },
                    router: RouterOptions {
                        engine,
                        ..RouterOptions::new()
                    },
                }
            }
            "stretch" => {
                let mode = match f.len() {
                    1 => SolveMode::PreserveGaps,
                    2 if f[1] == "rules" => SolveMode::DesignRules,
                    _ => return Err(perr(n, "stretch wants no field or `rules`")),
                };
                Command::Stretch { mode }
            }
            "bringout" => {
                if f.len() < 4 {
                    return Err(perr(n, "bringout wants instance side connectors…"));
                }
                Command::BringOut {
                    instance: f[1].into(),
                    side: f[2].parse().map_err(|_| perr(n, "bad side"))?,
                    connectors: f[3..].iter().map(|s| (*s).to_owned()).collect(),
                }
            }
            "finish" => {
                need(1)?;
                Command::Finish
            }
            "undo" => {
                need(1)?;
                Command::Undo
            }
            "redo" => {
                need(1)?;
                Command::Redo
            }
            other => return Err(perr(n, &format!("unknown command `{other}`"))),
        };
        Ok(cmd)
    }
}

// ----------------------------------------------------------------------
// The crash-safe write-ahead format
// ----------------------------------------------------------------------

/// Magic header opening a write-ahead journal file.
pub const WAL_MAGIC: &[u8; 8] = b"RIOTWAL1";

/// Why [`Journal::recover_wal`] stopped reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalCorruption {
    /// The file or a record is damaged: bad magic, torn header or
    /// payload, or a checksum mismatch.
    Record(RecordCorruption),
    /// The payload is not UTF-8 or not a valid command line.
    BadPayload(String),
}

impl fmt::Display for WalCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalCorruption::Record(c) => write!(f, "{c}"),
            WalCorruption::BadPayload(msg) => write!(f, "bad payload: {msg}"),
        }
    }
}

/// The outcome of recovering a write-ahead journal: the longest intact
/// prefix plus what (if anything) stopped the scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecovery {
    /// The recovered prefix, ready for [`replay`].
    pub journal: Journal,
    /// The byte offset where each recovered record ends, one per
    /// command in `journal` — the cut point for keeping a shorter
    /// prefix.
    pub record_ends: Vec<usize>,
    /// Byte offset the scan stopped at — the truncation point. Equals
    /// the file length for an intact file.
    pub valid_len: usize,
    /// `None` when the whole file was intact.
    pub corruption: Option<WalCorruption>,
}

impl WalRecovery {
    /// `true` when every byte of the file was an intact record.
    pub fn is_clean(&self) -> bool {
        self.corruption.is_none()
    }
}

/// Appends one write-ahead record for `cmd` to `out`: its replay line,
/// framed by the shared [`crate::record`] codec.
///
/// # Panics
///
/// If the replay line exceeds the record's 4 GiB length field.
pub fn encode_wal_record(out: &mut Vec<u8>, cmd: &Command) {
    record::encode(out, command_to_line(cmd).as_bytes())
        .expect("a replay line fits a record's u32 length");
}

impl Journal {
    /// Serializes to the crash-safe write-ahead format: the magic, then
    /// one record per command ([`encode_wal_record`]).
    pub fn to_wal(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WAL_MAGIC.len() + self.commands.len() * 24);
        out.extend_from_slice(WAL_MAGIC);
        for cmd in &self.commands {
            encode_wal_record(&mut out, cmd);
        }
        out
    }

    /// Recovers as much of a write-ahead journal as is intact,
    /// truncating at the first corrupt record. Never fails: the worst
    /// input yields an empty journal plus the corruption description.
    /// Bumps the `journal.recovered` / `journal.truncated` metrics.
    pub fn recover_wal(bytes: &[u8]) -> WalRecovery {
        let mut rec = WalRecovery {
            journal: Journal::new(),
            record_ends: Vec::new(),
            valid_len: 0,
            corruption: None,
        };
        match bytes.strip_prefix(WAL_MAGIC) {
            None => rec.corruption = Some(WalCorruption::Record(RecordCorruption::BadMagic)),
            Some(mut rest) => {
                rec.valid_len = WAL_MAGIC.len();
                while !rest.is_empty() {
                    let (payload, consumed) = match record::scan_eof(rest, None) {
                        Ok(found) => found,
                        Err(c) => {
                            rec.corruption = Some(WalCorruption::Record(c));
                            break;
                        }
                    };
                    let cmd = std::str::from_utf8(payload)
                        .map_err(|e| e.to_string())
                        .and_then(|line| {
                            parse_command_line(line.trim(), rec.record_ends.len())
                                .map_err(|e| e.to_string())
                        });
                    match cmd {
                        Ok(cmd) => rec.journal.record(cmd),
                        Err(msg) => {
                            rec.corruption = Some(WalCorruption::BadPayload(msg));
                            break;
                        }
                    }
                    rest = &rest[consumed..];
                    rec.valid_len += consumed;
                    rec.record_ends.push(rec.valid_len);
                }
            }
        }
        let reg = riot_trace::registry();
        reg.counter("journal.recovered")
            .add(rec.journal.commands.len() as u64);
        if rec.corruption.is_some() {
            reg.counter("journal.truncated").inc();
        }
        rec
    }
}

/// Re-runs a journal against a library whose leaf cells may have
/// changed shape. Positions of connections are recomputed from names.
/// Returns the warnings the re-run produced.
///
/// Every command after the `edit` head goes through the one
/// [`Editor::execute`] entry point — the interactive editor, undo/redo,
/// and this loop share a single dispatch.
///
/// # Errors
///
/// Any editor error the re-run hits (unknown cells/instances, routing
/// failures…). The journal must begin with an `edit` command.
pub fn replay(journal: &Journal, lib: &mut Library) -> Result<Vec<String>, RiotError> {
    let mut commands = journal.commands().iter();
    let first = commands.next().ok_or(RiotError::Parse {
        line: 0,
        message: "empty journal".into(),
    })?;
    let Command::Edit { cell } = first else {
        return Err(RiotError::Parse {
            line: 1,
            message: "journal must start with `edit`".into(),
        });
    };
    let mut ed = Editor::open(lib, cell)?;
    for cmd in commands {
        if matches!(cmd, Command::Edit { .. }) {
            return Err(RiotError::Parse {
                line: 0,
                message: "nested `edit` in journal".into(),
            });
        }
        ed.execute(cmd.clone())?;
    }
    Ok(ed.take_warnings())
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_geom::{Orientation, Side};

    fn sample_journal() -> Journal {
        let mut j = Journal::new();
        j.record(ReplayCommand::Edit { cell: "TOP".into() });
        j.record(ReplayCommand::Create {
            cell: "gate".into(),
            instance: "I0".into(),
        });
        j.record(ReplayCommand::Translate {
            instance: "I0".into(),
            d: Point::new(-100, 2500),
        });
        j.record(ReplayCommand::Orient {
            instance: "I0".into(),
            orient: Orientation::MX90,
        });
        j.record(ReplayCommand::Connect {
            from: "I0".into(),
            from_connector: "A".into(),
            to: "I1".into(),
            to_connector: "X".into(),
        });
        j.record(ReplayCommand::RemovePending { index: 0 });
        j.record(ReplayCommand::ClearPending);
        j.record(ReplayCommand::Abut { overlap: true });
        j.record(ReplayCommand::Route {
            move_from: false,
            router: RouterOptions::new(),
        });
        j.record(ReplayCommand::Route {
            move_from: true,
            router: RouterOptions {
                engine: riot_route::RouterEngine::Grid,
                ..RouterOptions::new()
            },
        });
        j.record(ReplayCommand::Stretch {
            mode: SolveMode::DesignRules,
        });
        j.record(ReplayCommand::BringOut {
            instance: "I0".into(),
            connectors: vec!["A".into(), "B".into()],
            side: Side::Left,
        });
        j.record(ReplayCommand::Undo);
        j.record(ReplayCommand::Redo);
        j.record(ReplayCommand::Finish);
        j
    }

    #[test]
    fn text_round_trip() {
        let j = sample_journal();
        let text = j.to_text();
        let again = Journal::parse(&text).unwrap();
        assert_eq!(j, again);
    }

    #[test]
    fn route_engine_serialization() {
        // The river form stays byte-identical to the historical two
        // field record; the grid engine rides in an optional third
        // field and survives the round trip.
        let river = ReplayCommand::Route {
            move_from: true,
            router: RouterOptions::new(),
        };
        assert_eq!(command_to_line(&river), "route move");
        let grid = ReplayCommand::Route {
            move_from: false,
            router: RouterOptions {
                engine: riot_route::RouterEngine::Grid,
                ..RouterOptions::new()
            },
        };
        assert_eq!(command_to_line(&grid), "route stay grid");
        let j = Journal::parse("riot replay v1\nroute move\nroute stay grid\n").unwrap();
        assert_eq!(j.commands(), &[river, grid]);
        assert!(Journal::parse("riot replay v1\nroute move river\n").is_err());
        assert!(Journal::parse("riot replay v1\nroute\n").is_err());
    }

    #[test]
    fn parse_rejects_bad_header() {
        assert!(matches!(
            Journal::parse("not a replay\n"),
            Err(RiotError::Parse { .. })
        ));
    }

    #[test]
    fn parse_rejects_unknown_command() {
        let err = Journal::parse("riot replay v1\nfrobnicate I0\n").unwrap_err();
        assert!(matches!(err, RiotError::Parse { line: 2, .. }));
    }

    #[test]
    fn parse_tolerates_comments_and_blanks() {
        let j = Journal::parse("riot replay v1\n# nothing\n\nfinish\n").unwrap();
        assert_eq!(j.commands(), &[ReplayCommand::Finish]);
    }

    #[test]
    fn parse_stretch_modes() {
        let j = Journal::parse("riot replay v1\nstretch\nstretch rules\n").unwrap();
        assert_eq!(
            j.commands(),
            &[
                ReplayCommand::Stretch {
                    mode: SolveMode::PreserveGaps
                },
                ReplayCommand::Stretch {
                    mode: SolveMode::DesignRules
                },
            ]
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The WAL checksum is the canonical CRC-32/ISO-HDLC.
        assert_eq!(record::crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(record::crc32(b""), 0);
        assert_eq!(record::crc32(b"riot"), {
            // Independent bit-reversed computation to guard the table.
            let mut crc = 0xFFFF_FFFF_u32;
            for &b in b"riot" {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 == 1 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        });
    }

    #[test]
    fn wal_round_trip() {
        let j = sample_journal();
        let bytes = j.to_wal();
        assert_eq!(&bytes[..8], WAL_MAGIC);
        let rec = Journal::recover_wal(&bytes);
        assert!(rec.is_clean());
        assert_eq!(rec.valid_len, bytes.len());
        assert_eq!(rec.record_ends.len(), j.commands().len());
        assert_eq!(rec.record_ends.last(), Some(&bytes.len()));
        assert_eq!(rec.journal, j);
    }

    #[test]
    fn wal_recovery_truncates_torn_tail() {
        let j = sample_journal();
        let bytes = j.to_wal();
        // Cut the file mid-way through the last record's payload.
        let torn = &bytes[..bytes.len() - 3];
        let rec = Journal::recover_wal(torn);
        assert!(matches!(
            rec.corruption,
            Some(WalCorruption::Record(RecordCorruption::TornPayload { .. }))
        ));
        let n = j.commands().len();
        assert_eq!(rec.journal.commands(), &j.commands()[..n - 1]);
        // The truncation point is the start of the torn record.
        assert!(rec.valid_len < torn.len());
        assert_eq!(
            &Journal::recover_wal(&bytes[..rec.valid_len]).journal,
            &rec.journal
        );
    }

    #[test]
    fn wal_recovery_truncates_torn_header() {
        let j = sample_journal();
        let mut bytes = j.to_wal();
        // Append 5 stray bytes: a header needs 8.
        bytes.extend_from_slice(&[1, 2, 3, 4, 5]);
        let rec = Journal::recover_wal(&bytes);
        assert_eq!(
            rec.corruption,
            Some(WalCorruption::Record(RecordCorruption::TornHeader))
        );
        assert_eq!(&rec.journal, &j);
    }

    #[test]
    fn wal_recovery_stops_at_bad_checksum() {
        let j = sample_journal();
        let mut bytes = j.to_wal();
        // Flip one payload bit in the second record. Record 1 payload
        // starts right after magic(8) + header(8): "edit TOP".
        let second_payload = 8 + 8 + b"edit TOP".len() + 8;
        bytes[second_payload] ^= 0x40;
        let rec = Journal::recover_wal(&bytes);
        assert!(matches!(
            rec.corruption,
            Some(WalCorruption::Record(RecordCorruption::BadChecksum { .. }))
        ));
        assert_eq!(rec.journal.commands(), &j.commands()[..1]);
        assert_eq!(rec.valid_len, 8 + 8 + b"edit TOP".len());
    }

    #[test]
    fn wal_recovery_rejects_bad_magic() {
        let rec = Journal::recover_wal(b"NOTAWAL0\x01\x02");
        let bad_magic = Some(WalCorruption::Record(RecordCorruption::BadMagic));
        assert_eq!(rec.corruption, bad_magic);
        assert_eq!(rec.valid_len, 0);
        assert!(rec.journal.commands().is_empty());
        let rec = Journal::recover_wal(b"");
        assert_eq!(rec.corruption, bad_magic);
    }

    #[test]
    fn wal_recovery_stops_at_unparseable_payload() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        for line in ["edit TOP", "frobnicate I0"] {
            record::encode(&mut bytes, line.as_bytes()).unwrap();
        }
        let rec = Journal::recover_wal(&bytes);
        assert!(matches!(rec.corruption, Some(WalCorruption::BadPayload(_))));
        assert_eq!(
            rec.journal.commands(),
            &[ReplayCommand::Edit { cell: "TOP".into() }]
        );
    }

    #[test]
    fn replay_requires_edit_first() {
        let mut lib = Library::new();
        let mut j = Journal::new();
        j.record(ReplayCommand::Finish);
        assert!(matches!(replay(&j, &mut lib), Err(RiotError::Parse { .. })));
    }
}
