//! Snapshot-era crash recovery, proved against the riot-check model.
//!
//! Three layers of evidence that the durability fast path never
//! changes what a session *means*:
//!
//! * a proptest that `snapshot → load` is state-identical for
//!   arbitrary command histories (the canonical codec makes byte
//!   equality state equality), and that the decoded, cold editor then
//!   edits exactly like the live, warm one;
//! * a fault injected at the **snapshot write** site tears the
//!   snapshot, and the session must stay fully usable, its WAL
//!   uncompacted, and recovery must fall back to a model-equivalent
//!   full replay;
//! * a fault injected at the **group flush** site crashes the session
//!   mid-window, and the surviving WAL must hold exactly the
//!   acknowledged prefix, model-equivalent, with nothing unflushed
//!   leaking in.

use proptest::prelude::*;
use riot_core::{
    decode_session, encode_session, record, Editor, Journal, FAULT_SERVE_GROUP_FLUSH,
    FAULT_SERVE_SNAPSHOT_WRITE,
};
use riot_serve::{
    parse_snapshot, standard_library, wal_path, Bind, Client, ServeConfig, Server, SessionEntry,
    SNAP_MAGIC,
};
use std::time::Duration;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("riot-snaprec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// One pseudo-random editing step: gate index + offset, decoded from
/// an opcode. Failed commands (duplicate create, missing target,
/// nothing to abut) are part of the property — they must not corrupt
/// the snapshot either. Connect and abut read the connector cache.
fn step_line(op: u8, gate: usize, dx: i32) -> String {
    match op % 6 {
        0 => format!("create nand2 G{gate}"),
        1 => format!("translate G{gate} {} 0", i64::from(dx) * 4000),
        2 => "undo".to_owned(),
        3 => "redo".to_owned(),
        4 => format!("connect G{gate} PWRL G{} PWRR", (gate + 1) % 6),
        _ => "abut touch".to_owned(),
    }
}

/// Applies `steps` to `ed`. Errors (duplicate names, missing gates,
/// empty undo stack) are legal editing history; they are ignored.
fn edit(ed: &mut Editor<'_>, steps: &[(u8, usize, i32)]) {
    for &(op, gate, dx) in steps {
        let _ =
            riot_core::parse_command_line(&step_line(op, gate, dx), 0).map(|cmd| ed.execute(cmd));
    }
}

/// The encoded session without its engine counters, the nine `u64`s
/// that end the payload: time spent and cache hits and misses differ
/// between a warm and a cold editor that hold the same session.
fn session_state(ed: &Editor<'_>) -> Vec<u8> {
    let mut bytes = encode_session(ed).expect("session encodes");
    bytes.truncate(bytes.len() - 9 * 8);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `snapshot → load` round-trips the session exactly: the
    /// canonical codec re-encodes the decoded session to the same
    /// bytes. Decoding is the one cold start, so a second random tail
    /// then runs on both the live editor, its connector cache warm,
    /// and the decoded one: both must end holding the same session and
    /// reporting the same world connectors for every instance.
    #[test]
    fn snapshot_round_trip_is_state_identical(
        steps in prop::collection::vec((0u8..6, 0usize..6, -2i32..3), 0..40),
        tail in prop::collection::vec((0u8..6, 0usize..6, -2i32..3), 0..20),
    ) {
        let mut warm = Editor::open_owned(standard_library(), "TOP").expect("TOP opens");
        edit(&mut warm, &steps);
        for (id, _) in warm.instances() {
            warm.world_connectors(id).expect("live instance");
        }
        let payload = encode_session(&warm).expect("live session encodes");

        // Framing round-trips: magic, covered count, one record.
        let mut framed = SNAP_MAGIC.to_vec();
        framed.extend_from_slice(&7u64.to_le_bytes());
        record::encode(&mut framed, &payload).unwrap();
        let (covered, parsed) = parse_snapshot(&framed).expect("own framing parses");
        prop_assert_eq!(covered, 7);
        prop_assert_eq!(parsed, &payload[..]);

        // Decode → re-encode is the identity: state-identical.
        let mut cold = decode_session(&payload).expect("own payload decodes");
        prop_assert_eq!(
            encode_session(&cold).expect("decoded session re-encodes"),
            payload
        );

        // A cold editor behaves like a warm one.
        edit(&mut warm, &tail);
        edit(&mut cold, &tail);
        prop_assert_eq!(session_state(&warm), session_state(&cold));
        let counts = |ed: &Editor<'_>| {
            let s = ed.stats();
            (s.applied, s.undos, s.redos, s.rollbacks, s.events, s.damage_rects)
        };
        prop_assert_eq!(counts(&warm), counts(&cold));
        let ids: Vec<_> = warm.instances().into_iter().map(|(id, _)| id).collect();
        let cold_ids: Vec<_> = cold.instances().into_iter().map(|(id, _)| id).collect();
        prop_assert_eq!(&ids, &cold_ids);
        for id in ids {
            prop_assert_eq!(
                warm.world_connectors(id).expect("live instance"),
                cold.world_connectors(id).expect("live instance")
            );
        }
    }
}

#[test]
fn torn_snapshot_never_compacts_and_recovery_falls_back() {
    let root = temp_root("snapfault");
    let mut cfg = ServeConfig::new(&root);
    cfg.threads = 1;
    cfg.tick = Duration::from_millis(1);
    cfg.snapshot_every = 4;
    // Every snapshot attempt in this test tears: the WAL must stay
    // full-history because compaction may only follow a durable
    // snapshot.
    for _ in 0..32 {
        cfg.faults.arm(FAULT_SERVE_SNAPSHOT_WRITE, 0);
    }
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    c.open("snapfault", "TOP").unwrap();
    for k in 0..10u32 {
        let line = if k.is_multiple_of(2) {
            format!("create nand2 G{}", k / 2)
        } else {
            format!("translate G{} 4000 0", k / 2)
        };
        // Torn snapshots must never cost an acknowledgement.
        c.cmd("snapfault", &line).unwrap();
    }
    c.close_session("snapfault").unwrap();
    c.shutdown_server().unwrap();
    h.wait();

    // The WAL still starts at the `edit` head: compaction was refused.
    let bytes = std::fs::read(wal_path(&root, "snapfault")).unwrap();
    let rec = Journal::recover_wal(&bytes);
    assert!(rec.is_clean());
    let cmds = rec.journal.commands().to_vec();
    assert_eq!(cmds.len(), 11, "edit head + 10 commands, none compacted");
    assert!(matches!(
        cmds.first(),
        Some(riot_core::Command::Edit { .. })
    ));

    // The torn snapshot is on disk and unusable; recovery ignores it.
    let snap = std::fs::read(riot_serve::snap_path(&root, "snapfault")).unwrap();
    assert!(parse_snapshot(&snap).is_err(), "snapshot is torn");
    let fallbacks = riot_trace::registry().counter("serve.recovery.full_replay");
    let before = fallbacks.get();
    let (entry, kind) = SessionEntry::recover(&root, "snapfault", standard_library()).unwrap();
    assert!(matches!(
        kind,
        riot_serve::OpenKind::Recovered { records: 11, .. }
    ));
    assert_eq!(fallbacks.get() - before, 1, "fallback path taken");

    // Model equivalence of the fallback recovery.
    let mut mlib = standard_library();
    let (model, _) = riot_check::lockstep_model(&mut mlib, &cmds).unwrap();
    riot_check::check_equiv(entry.editor(), &model)
        .unwrap_or_else(|e| panic!("fallback recovery diverges: {e}"));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn group_flush_fault_preserves_exactly_the_acknowledged_prefix() {
    let root = temp_root("flushfault");
    let mut cfg = ServeConfig::new(&root);
    cfg.threads = 1;
    cfg.tick = Duration::from_millis(1);
    // The third flush pass over this session crashes it.
    cfg.faults.arm(FAULT_SERVE_GROUP_FLUSH, 2);
    let faults = cfg.faults.clone();
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    c.open("flushfault", "TOP").unwrap();
    let mut acked = Vec::new();
    let mut crashed = false;
    for k in 0..6 {
        let line = format!("create nand2 G{k}");
        match c.cmd("flushfault", &line) {
            Ok(_) => acked.push(line),
            Err(e) => {
                assert!(e.contains("group flush"), "unexpected error: {e}");
                crashed = true;
                break;
            }
        }
    }
    assert!(crashed, "the armed group-flush fault must fire");
    assert_eq!(faults.injected(), 1);

    // The WAL holds exactly the acknowledged prefix — the refused
    // command was staged but its bytes never joined a flush the
    // client heard about.
    let bytes = std::fs::read(wal_path(&root, "flushfault")).unwrap();
    let rec = Journal::recover_wal(&bytes);
    let cmds = rec.journal.commands().to_vec();
    assert_eq!(
        cmds.len(),
        acked.len() + 1,
        "durable records == acknowledged commands + edit head"
    );
    let mut mlib = standard_library();
    let (_, replayed) = riot_check::lockstep_model(&mut mlib, &cmds).unwrap();
    assert_eq!(replayed, cmds.len());

    // Reopen recovers the prefix and the session works again.
    let detail = c.open("flushfault", "TOP").unwrap();
    assert!(
        detail.contains(&format!("recovered {} records", acked.len() + 1)),
        "recovery report missing: {detail}"
    );
    assert_eq!(
        c.cmd("flushfault", "create nand2 X").unwrap(),
        format!("instance {}", acked.len()),
        "arena picks up exactly after the durable prefix"
    );
    c.shutdown_server().unwrap();
    h.wait();
    let _ = std::fs::remove_dir_all(root);
}
