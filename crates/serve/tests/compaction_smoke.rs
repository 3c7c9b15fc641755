//! Compaction smoke test — the CI `compaction-smoke` job.
//!
//! A 500-command session runs with `--snapshot-every 100` and an armed
//! journal-append fault that kills the session mid-burst (450 commands
//! land, the 451st crashes). Recovery must then be O(snapshot):
//! snapshots were cut at records 101/201/301/401, so the reopen decodes
//! the latest snapshot and replays **at most one snapshot interval** of
//! WAL tail — never the 451-record history. The recovered session
//! finishes the remaining commands, and the final state is proved
//! model-equivalent to a clean lockstep replay of every acknowledged
//! command.

use riot_core::{parse_command_line, FAULT_SERVE_JOURNAL_APPEND};
use riot_serve::{standard_library, Bind, Client, ServeConfig, Server, SessionEntry};
use std::time::Duration;

fn command_line(k: usize) -> String {
    if k.is_multiple_of(2) {
        format!("create nand2 G{}", k / 2)
    } else {
        format!("translate G{} 4000 0", k / 2)
    }
}

#[test]
fn killed_mid_burst_session_recovers_in_one_snapshot_interval() {
    const COMMANDS: usize = 500;
    const INTERVAL: usize = 100;
    const CRASH_AFTER: u64 = 450;

    let root = std::env::temp_dir().join(format!("riot-compaction-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = ServeConfig::new(&root);
    cfg.threads = 1;
    cfg.tick = Duration::from_millis(1);
    cfg.snapshot_every = INTERVAL;
    // 450 commands land durably; the 451st hits the fault plan and the
    // session crashes with a torn WAL record.
    cfg.faults.arm(FAULT_SERVE_JOURNAL_APPEND, CRASH_AFTER);
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    c.open("smoke", "TOP").unwrap();
    let mut acked: Vec<String> = Vec::new();
    let mut k = 0;
    let crash_error = loop {
        assert!(k < COMMANDS, "the armed fault never fired");
        let line = command_line(k);
        match c.cmd("smoke", &line) {
            Ok(_) => {
                acked.push(line);
                k += 1;
            }
            Err(e) => break e,
        }
    };
    assert!(
        crash_error.contains("session crashed"),
        "expected a crash, got: {crash_error}"
    );
    assert_eq!(acked.len() as u64, CRASH_AFTER, "durable prefix size");

    // Reopen: recovery must come from the newest snapshot (cut at
    // record 401) plus a WAL tail no longer than one interval — not
    // from a 451-record full replay.
    let reg = riot_trace::registry();
    let replayed = reg.counter("serve.recovery.replayed_records");
    let snap_loads = reg.counter("serve.recovery.snapshot_loads");
    let (r0, s0) = (replayed.get(), snap_loads.get());
    let detail = c.open("smoke", "TOP").unwrap();
    assert!(
        detail.contains(&format!("recovered {} records", acked.len() + 1))
            && detail.contains("truncated"),
        "recovery report: {detail}"
    );
    assert_eq!(snap_loads.get() - s0, 1, "recovery decoded the snapshot");
    let tail = replayed.get() - r0;
    assert!(
        tail as usize <= INTERVAL,
        "recovery replayed {tail} records — more than one snapshot \
         interval ({INTERVAL}); compaction is not keeping up"
    );

    // The recovered session finishes the burst.
    for j in k..COMMANDS {
        let line = command_line(j);
        c.cmd("smoke", &line).unwrap();
        acked.push(line);
    }
    c.close_session("smoke").unwrap();
    c.shutdown_server().unwrap();
    h.wait();

    // Offline proof: recover from disk once more and compare against a
    // clean lockstep replay of everything the client was promised.
    let mut cmds = vec![riot_core::Command::Edit {
        cell: "TOP".to_owned(),
    }];
    for (i, line) in acked.iter().enumerate() {
        cmds.push(parse_command_line(line, i + 1).unwrap());
    }
    let mut mlib = standard_library();
    let (model, replayed) = riot_check::lockstep_model(&mut mlib, &cmds)
        .unwrap_or_else(|e| panic!("reference replay diverges: {e}"));
    assert_eq!(replayed, cmds.len());

    let (entry, _) = SessionEntry::recover(&root, "smoke", standard_library()).unwrap();
    riot_check::check_equiv(entry.editor(), &model)
        .unwrap_or_else(|e| panic!("recovered state diverges from clean replay: {e}"));
    let _ = std::fs::remove_dir_all(root);
}
