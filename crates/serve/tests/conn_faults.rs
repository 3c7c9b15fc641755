//! The connection plane's two fault sites, proved harmless to
//! durability against the riot-check model:
//!
//! * `serve.poll.wakeup` — a *lost* wakeup: the pipe stays undrained
//!   and reply routing skips one loop iteration. Delivery must ride
//!   the tick fallback; nothing is lost, only late.
//! * `serve.conn.backlog` — a client that never drains: the reply
//!   routing evicts the connection instead of buffering unboundedly.
//!   The acknowledgement is lost with the socket, but every command
//!   the worker applied is already journaled, and the WAL must replay
//!   model-equivalently.

use riot_core::{Journal, FAULT_SERVE_CONN_BACKLOG, FAULT_SERVE_POLL_WAKEUP};
use riot_serve::{standard_library, wal_path, Bind, Client, ServeConfig, Server, SessionEntry};
use std::time::Duration;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("riot-connfault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn poll_cfg(root: &std::path::Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(root);
    cfg.threads = 1;
    cfg.tick = Duration::from_millis(2);
    cfg
}

/// A lost wakeup delays reply routing by one iteration; the tick
/// fallback delivers on the next pass. The client just sees a normal
/// (slightly late) `ok` — and the `serve.poll.wakeup.lost` counter
/// plus a flight-recorder fault event prove the site actually fired.
#[test]
fn lost_wakeup_is_absorbed_by_the_tick_fallback() {
    let root = temp_root("wakeup");
    let cfg = poll_cfg(&root);
    cfg.faults.arm(FAULT_SERVE_POLL_WAKEUP, 0);
    let faults = cfg.faults.clone();
    let lost = riot_trace::registry().counter("serve.poll.wakeup.lost");
    let before = lost.get();
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    c.open("wake", "TOP").unwrap();
    assert_eq!(c.cmd("wake", "create nand2 A").unwrap(), "instance 0");
    assert_eq!(faults.injected(), 1, "the armed wakeup fault must fire");
    assert!(
        lost.get() > before,
        "serve.poll.wakeup.lost never counted the dropped wakeup"
    );

    // The plane is healthy afterwards: more traffic, clean drain.
    assert_eq!(c.cmd("wake", "create nand2 B").unwrap(), "instance 1");
    c.shutdown_server().unwrap();
    h.wait();
    let _ = std::fs::remove_dir_all(root);
}

/// A tripped backlog evicts the connection while its reply is in
/// flight: the client loses the socket, **not** the durability. The
/// WAL must hold every applied command and replay model-equivalently
/// (riot-check lockstep), and a reconnect resumes exactly after it.
#[test]
fn backlog_eviction_loses_the_socket_never_the_journal() {
    let root = temp_root("backlog");
    let cfg = poll_cfg(&root);
    // First consultation = the reply to the first routed job.
    cfg.faults.arm(FAULT_SERVE_CONN_BACKLOG, 1);
    let faults = cfg.faults.clone();
    let evicted = riot_trace::registry().counter("serve.conn.evicted");
    let before = evicted.get();
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // `open` consumes consultation 0; the `cmd` reply trips the site,
    // so the command is applied and journaled but its ack dies with
    // the eviction.
    c.open("evict", "TOP").unwrap();
    let err = c
        .cmd("evict", "create nand2 A")
        .expect_err("the evicted connection cannot deliver the ack");
    assert!(
        err.contains("closed") || err.contains("i/o"),
        "unexpected eviction error: {err}"
    );
    assert_eq!(faults.injected(), 1);
    assert!(evicted.get() > before, "serve.conn.evicted never moved");

    // The command survived: the hosted session outlives its socket, so
    // a fresh connection attaches and sees the applied command.
    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(
        c.open("evict", "TOP").unwrap(),
        "attached",
        "the session must outlive its evicted socket"
    );
    assert_eq!(
        c.cmd("evict", "create nand2 B").unwrap(),
        "instance 1",
        "arena resumes after the durable record"
    );
    c.close_session("evict").unwrap();
    c.shutdown_server().unwrap();
    h.wait();

    // Model equivalence of the surviving journal, riot-check style.
    let bytes = std::fs::read(wal_path(&root, "evict")).unwrap();
    let rec = Journal::recover_wal(&bytes);
    assert!(rec.is_clean(), "eviction must not tear the WAL");
    let cmds = rec.journal.commands().to_vec();
    let mut mlib = standard_library();
    let (model, replayed) = riot_check::lockstep_model(&mut mlib, &cmds).unwrap();
    assert_eq!(replayed, cmds.len());
    let (entry, _) = SessionEntry::recover(&root, "evict", standard_library()).unwrap();
    riot_check::check_equiv(entry.editor(), &model)
        .unwrap_or_else(|e| panic!("post-eviction recovery diverges from the model: {e}"));
    let _ = std::fs::remove_dir_all(root);
}
