//! Golden-fixture tests for the `RIOTSNAP1` snapshot format.
//!
//! Four checked-in fixtures under `examples/` pin the on-disk formats
//! and the recovery matrix:
//!
//! * `session.snap` + `session_tail.wal` — an intact snapshot covering
//!   9 journal records plus a compacted WAL carrying 2 more: recovery
//!   must decode the snapshot and replay only the tail.
//! * `session_full.wal` — the same 9 records as an uncompacted,
//!   full-history WAL: pairing it with the torn / bad-CRC snapshot
//!   variants proves recovery falls back to full replay instead of
//!   trusting a damaged snapshot.
//! * `session_torn.snap` / `session_badcrc.snap` — the intact snapshot
//!   truncated mid-payload, and with its last payload byte flipped.
//!
//! If the snapshot codec drifts, `session.snap` stops decoding — and
//! that is a format break, not a refactor. Regenerate deliberately
//! with `cargo test -p riot-serve --test snapshot_golden -- --ignored`
//! after such a break.

use riot_core::{parse_command_line, RecordCorruption};
use riot_serve::{
    parse_snapshot, standard_library, wal_path, ServeFaults, SessionEntry, SnapshotError,
};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const SNAP: &[u8] = include_bytes!("../../../examples/session.snap");
const TAIL_WAL: &[u8] = include_bytes!("../../../examples/session_tail.wal");
const FULL_WAL: &[u8] = include_bytes!("../../../examples/session_full.wal");
const TORN_SNAP: &[u8] = include_bytes!("../../../examples/session_torn.snap");
const BADCRC_SNAP: &[u8] = include_bytes!("../../../examples/session_badcrc.snap");

/// The scripted session the fixtures capture: 8 commands under the
/// snapshot, 2 more in the compacted tail.
fn script_full() -> Vec<&'static str> {
    vec![
        "create nand2 A",
        "create nand2 B",
        "translate A 4000 0",
        "create or2 C",
        "connect A OUT B A",
        "undo",
        "create nand2 D",
        "translate D 8000 0",
    ]
}

fn script_tail() -> Vec<&'static str> {
    vec!["create or2 E", "undo"]
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("riot-snapgold-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    root
}

/// Stages a fixture pair as session `rec` in a temp root.
fn stage(root: &Path, wal: &[u8], snap: Option<&[u8]>) {
    std::fs::write(wal_path(root, "rec"), wal).unwrap();
    if let Some(bytes) = snap {
        std::fs::write(root.join("rec.snap"), bytes).unwrap();
    }
}

/// Proves a recovered entry is model-equivalent to replaying `lines`
/// from scratch through the riot-check reference model.
fn assert_model_equivalent(mut entry: SessionEntry, lines: &[&str]) {
    let mut cmds = vec![riot_core::Command::Edit {
        cell: "TOP".to_owned(),
    }];
    for (i, line) in lines.iter().enumerate() {
        cmds.push(parse_command_line(line, i + 1).unwrap());
    }
    let mut mlib = standard_library();
    let (model, replayed) = riot_check::lockstep_model(&mut mlib, &cmds)
        .unwrap_or_else(|e| panic!("reference replay diverges: {e}"));
    assert_eq!(replayed, cmds.len());
    let cp = entry.cp.take().expect("recovered session is suspended");
    let ed = riot_core::Editor::resume(&mut entry.lib, cp).expect("recovered session resumes");
    riot_check::check_equiv(&ed, &model)
        .unwrap_or_else(|e| panic!("recovered state diverges from full replay: {e}"));
}

#[test]
fn golden_snapshot_plus_tail_recovers_the_full_session() {
    let (covered, _payload) = parse_snapshot(SNAP).expect("checked-in snapshot parses");
    assert_eq!(covered, 9, "snapshot covers edit head + 8 commands");

    let root = temp_root("intact");
    stage(&root, TAIL_WAL, Some(SNAP));
    let (entry, kind) = SessionEntry::recover(&root, "rec", standard_library()).unwrap();
    assert!(
        matches!(
            kind,
            riot_serve::OpenKind::Recovered {
                records: 11,
                truncated: false
            }
        ),
        "snapshot (9) + tail (2) recovered, got {kind:?}"
    );
    let all: Vec<&str> = script_full().into_iter().chain(script_tail()).collect();
    assert_model_equivalent(entry, &all);
    let _ = std::fs::remove_dir_all(root);
}

/// Both fallback tests assert on deltas of the process-wide recovery
/// counters, and each fallback bumps them, so the two take turns.
static COUNTERS: Mutex<()> = Mutex::new(());

#[test]
fn torn_snapshot_fixture_falls_back_to_full_replay() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let header = 9 + 8 + 8;
    assert_eq!(
        parse_snapshot(TORN_SNAP),
        Err(SnapshotError::Record(RecordCorruption::TornPayload {
            expected: SNAP.len() - header,
            available: TORN_SNAP.len() - header,
        })),
        "fixture is torn exactly as framed"
    );
    let reg = riot_trace::registry();
    let fallbacks = reg.counter("serve.recovery.full_replay");
    let before = fallbacks.get();

    let root = temp_root("torn");
    stage(&root, FULL_WAL, Some(TORN_SNAP));
    let (entry, kind) = SessionEntry::recover(&root, "rec", standard_library()).unwrap();
    assert!(
        matches!(kind, riot_serve::OpenKind::Recovered { records: 9, .. }),
        "full WAL replays all 9 records, got {kind:?}"
    );
    assert_eq!(fallbacks.get() - before, 1, "recovery took the fallback");
    assert_model_equivalent(entry, &script_full());
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn bad_crc_snapshot_fixture_falls_back_to_full_replay() {
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        matches!(
            parse_snapshot(BADCRC_SNAP),
            Err(SnapshotError::Record(RecordCorruption::BadChecksum { .. }))
        ),
        "fixture fails its CRC exactly as framed"
    );
    let reg = riot_trace::registry();
    let corrupt = reg.counter("serve.recovery.snapshot_corrupt");
    let fallbacks = reg.counter("serve.recovery.full_replay");
    let (c0, f0) = (corrupt.get(), fallbacks.get());

    let root = temp_root("badcrc");
    stage(&root, FULL_WAL, Some(BADCRC_SNAP));
    let (entry, kind) = SessionEntry::recover(&root, "rec", standard_library()).unwrap();
    assert!(
        matches!(kind, riot_serve::OpenKind::Recovered { records: 9, .. }),
        "full WAL replays all 9 records, got {kind:?}"
    );
    assert_eq!(corrupt.get() - c0, 1, "the bad CRC was counted");
    assert_eq!(fallbacks.get() - f0, 1, "recovery took the fallback");
    assert_model_equivalent(entry, &script_full());
    let _ = std::fs::remove_dir_all(root);
}

/// Regenerates every fixture from the script above. Ignored by
/// default: the fixtures pin the format, so regenerate only after a
/// deliberate format change, and commit the new bytes.
#[test]
#[ignore = "rewrites the checked-in fixtures"]
fn regenerate_snapshot_fixtures() {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let faults = ServeFaults::none();
    let root = temp_root("regen");

    let mut entry = SessionEntry::create(&root, "rec", "TOP", standard_library()).unwrap();
    let apply = |entry: &mut SessionEntry, lines: &[&str]| {
        let cp = entry.cp.take().unwrap();
        let mut ed = riot_core::Editor::resume(&mut entry.lib, cp).unwrap();
        for line in lines {
            riot_serve::session::execute_line(&mut ed, line).unwrap();
        }
        entry.cp = Some(ed.suspend());
        entry.sync_all().unwrap();
    };
    apply(&mut entry, &script_full());
    std::fs::copy(wal_path(&root, "rec"), examples.join("session_full.wal")).unwrap();

    assert!(entry.snapshot_now(&root, &faults), "snapshot cut");
    apply(&mut entry, &script_tail());
    drop(entry);
    std::fs::copy(wal_path(&root, "rec"), examples.join("session_tail.wal")).unwrap();
    let snap = std::fs::read(root.join("rec.snap")).unwrap();
    std::fs::write(examples.join("session.snap"), &snap).unwrap();

    // Torn: header plus half the payload. Bad CRC: last byte flipped.
    let header = 9 + 8 + 4 + 4;
    let torn = &snap[..header + (snap.len() - header) / 2];
    std::fs::write(examples.join("session_torn.snap"), torn).unwrap();
    let mut flipped = snap.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    std::fs::write(examples.join("session_badcrc.snap"), flipped).unwrap();
    let _ = std::fs::remove_dir_all(root);
}
