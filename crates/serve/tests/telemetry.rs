//! Telemetry-plane integration tests: wire-propagated trace context
//! decomposing into server-side child spans, the snapshot-cut span, the
//! HTTP scrape endpoint, the `telemetry`/`dump` wire verbs, and
//! percentile stats lines.

use riot_serve::{Bind, Client, FlightRecorder, ServeConfig, Server, TelemetryFormat};
use riot_trace::{fresh_trace_id, Snapshot, TraceContext};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("riot-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The tests that switch span recording on take turns: one must not
/// switch it off under the other.
fn tracing_turn() -> MutexGuard<'static, ()> {
    static TRACING: Mutex<()> = Mutex::new(());
    TRACING.lock().unwrap_or_else(|e| e.into_inner())
}

/// A traced, pipelined `cmd` must decompose into the full server-side
/// span chain — decode, queue-wait, apply, wal-flush — all carrying
/// the **client's** trace id. This is the acceptance bar for the wire
/// propagation: one client span explains the whole server round trip.
#[test]
fn traced_cmd_decomposes_into_server_side_child_spans() {
    let _turn = tracing_turn();
    riot_trace::enable(true);
    let root = temp_root("traced");
    let mut cfg = ServeConfig::new(&root);
    cfg.threads = 1;
    cfg.tick = Duration::from_millis(1);
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();

    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.open("traced", "TOP").unwrap();

    // Pipeline two traced commands under one client trace, as a traced
    // caller (UI thread, batch tool) would.
    let trace_id = fresh_trace_id();
    let ctx = TraceContext::new(trace_id, 7);
    let id1 = c.cmd_traced("traced", "create nand2 A", ctx).unwrap();
    let id2 = c.cmd_traced("traced", "create nand2 B", ctx).unwrap();
    assert_eq!(c.recv().unwrap().id, id1);
    assert_eq!(c.recv().unwrap().id, id2);

    let spans = riot_trace::recorder().snapshot();
    let mine: Vec<&str> = spans
        .iter()
        .filter(|s| s.trace == trace_id)
        .map(|s| s.name)
        .collect();
    for required in [
        "serve.frame.decode",
        "serve.queue.wait",
        "serve.cmd.apply",
        "serve.wal.flush",
    ] {
        assert!(
            mine.contains(&required),
            "trace {trace_id:#x} is missing the `{required}` child span; got {mine:?}"
        );
    }
    assert!(
        mine.len() >= 4,
        "expected at least 4 server-side child spans, got {mine:?}"
    );

    c.shutdown_server().unwrap();
    h.wait();
    riot_trace::enable(false);
    let _ = std::fs::remove_dir_all(root);
}

/// The snapshot cut runs on the worker thread after a flush pass: one
/// `serve.snapshot.cut` span covers it, with the records it covered and
/// the payload bytes it wrote.
#[test]
fn snapshot_cut_is_spanned() {
    let _turn = tracing_turn();
    riot_trace::enable(true);
    let root = temp_root("cut");
    let mut cfg = ServeConfig::new(&root);
    cfg.threads = 1;
    cfg.snapshot_every = 4;
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.open("cut", "TOP").unwrap();
    for k in 0..8 {
        c.cmd("cut", &format!("create nand2 C{k}")).unwrap();
    }
    // Shutting down drains the worker, so every cut has closed.
    c.shutdown_server().unwrap();
    h.wait();
    riot_trace::enable(false);

    let field =
        |fields: &[(&str, u64)], key: &str| fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
    let cuts: Vec<Vec<(&str, u64)>> = riot_trace::recorder()
        .snapshot()
        .into_iter()
        .filter(|s| s.name == "serve.snapshot.cut")
        .map(|s| s.fields)
        .collect();
    assert!(
        cuts.iter()
            .any(|f| field(f, "covered") >= Some(4) && field(f, "bytes") > Some(0)),
        "no cut covering the interval with a payload: {cuts:?}"
    );
    let _ = std::fs::remove_dir_all(root);
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect telemetry listener");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header split");
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    body.to_owned()
}

/// Pulls one sample value out of a Prometheus text body, checking the
/// whole body is well-formed on the way past.
fn prom_value(body: &str, metric: &str) -> Option<u64> {
    let mut found = None;
    for line in body.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
        let bare = name.split('{').next().unwrap();
        assert!(
            bare.chars()
                .all(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == ':'),
            "invalid metric name in line {line:?}"
        );
        let v: i64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        if bare == metric {
            found = Some(v as u64);
        }
    }
    found
}

#[test]
fn http_scrape_serves_valid_prometheus_with_live_counters() {
    let root = temp_root("scrape");
    let mut cfg = ServeConfig::new(&root);
    cfg.threads = 1;
    cfg.telemetry_addr = Some("127.0.0.1:0".into());
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let scrape = h.telemetry_addr().expect("telemetry listener is up");

    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.open("scrape", "TOP").unwrap();
    for k in 0..20 {
        c.cmd("scrape", &format!("create nand2 S{k}")).unwrap();
    }

    let body = http_get(scrape, "/metrics");
    let cmds = prom_value(&body, "riot_serve_cmds_total").expect("cmds counter exposed");
    assert!(cmds >= 20, "riot_serve_cmds_total = {cmds}");
    assert!(
        body.contains("riot_serve_wal_fsync_ns_bucket")
            && prom_value(&body, "riot_serve_wal_fsync_ns_count").unwrap_or(0) > 0,
        "fsync-latency histogram missing:\n{body}"
    );

    // Counters are monotone across scrapes while traffic flows.
    for k in 20..40 {
        c.cmd("scrape", &format!("create nand2 S{k}")).unwrap();
    }
    let body2 = http_get(scrape, "/metrics");
    let cmds2 = prom_value(&body2, "riot_serve_cmds_total").unwrap();
    assert!(cmds2 >= cmds + 20, "not monotone: {cmds} -> {cmds2}");

    // The JSON rendering parses under the same schema the wire verb
    // uses, and the health probe answers.
    let json = http_get(scrape, "/metrics.json");
    let snap = Snapshot::parse(&json).expect("valid riot-telemetry/1 json");
    assert!(snap
        .counters
        .iter()
        .any(|(n, v)| n == "serve.cmds" && *v >= 40));
    assert_eq!(http_get(scrape, "/healthz"), "ok\n");

    c.shutdown_server().unwrap();
    h.wait();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn telemetry_and_dump_wire_verbs_answer_inline() {
    let root = temp_root("verbs");
    let mut cfg = ServeConfig::new(&root);
    cfg.threads = 1;
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.open("verbs", "TOP").unwrap();
    c.cmd("verbs", "create nand2 A").unwrap();

    let prom = c.telemetry(TelemetryFormat::Prometheus).unwrap();
    assert!(prom.contains("riot_serve_cmds_total"), "{prom}");
    let json = c.telemetry(TelemetryFormat::Json).unwrap();
    Snapshot::parse(&json).expect("wire json snapshot parses");

    // `dump` writes the flight recorder under the server root and
    // answers with the path; the file parses back into events.
    let path = c.dump().unwrap();
    let text = std::fs::read_to_string(&path).expect("dump file exists");
    let events = FlightRecorder::parse_dump(&text).expect("dump parses");
    assert!(
        events.iter().any(|e| e.detail == "create nand2 A"),
        "dump misses the applied command: {text}"
    );

    // The stats line carries p50/p95/p99 for serve.* histograms.
    let stats = c.stats().unwrap();
    assert!(
        stats
            .lines()
            .any(|l| l.starts_with("serve.") && l.contains(" p99 ")),
        "no percentile lines in stats: {stats}"
    );

    c.shutdown_server().unwrap();
    h.wait();
    let _ = std::fs::remove_dir_all(root);
}
