//! Connection-plane soak and conformance tests: a 256-connection herd
//! mixing idle, pipelining and slow-reader clients with zero lost or
//! misordered replies; `busy` backpressure under a stuffed inbox;
//! half-open connections evicted on the read timeout; and the poll
//! loop's `serve.conns.open` gauge returning to zero after a drain.
//!
//! The scenarios run sequentially inside a single `#[test]` because
//! the gauges live in the process-global `riot_trace` registry — two
//! concurrent poll loops would fight over them.

use riot_serve::{Bind, Client, Reply, ReplyBody, RequestBody, ServeConfig, Server};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("riot-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn soak_cfg(root: &std::path::Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(root);
    cfg.threads = 2;
    cfg.tick = Duration::from_millis(2);
    cfg.read_timeout = Duration::from_secs(10);
    cfg.write_timeout = Duration::from_secs(10);
    cfg
}

/// Pipelines `n` pings with `window` in flight and asserts the replies
/// come back **in send order** — the conn plane answers pings inline,
/// so any reordering here is a frame-dispatch or backlog-order bug.
fn ping_pipeliner(addr: &riot_serve::BoundAddr, n: usize, window: usize) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    let mut expected: VecDeque<u64> = VecDeque::new();
    let mut sent = 0usize;
    let mut acked = 0usize;
    while acked < n {
        while expected.len() < window && sent < n {
            expected.push_back(
                c.send(RequestBody::Ping)
                    .map_err(|e| format!("send: {e}"))?,
            );
            sent += 1;
        }
        let Reply { id, body } = c.recv().map_err(|e| format!("recv: {e}"))?;
        let want = expected.pop_front().ok_or("reply with nothing in flight")?;
        if id != want {
            return Err(format!("misordered reply: got id {id}, wanted {want}"));
        }
        match body {
            ReplyBody::Ok(_) => acked += 1,
            other => return Err(format!("ping answered {other:?}")),
        }
    }
    Ok(())
}

/// Drives `n` independent `create` commands through one session with a
/// window of 8, absorbing `busy` backpressure. Asserts every command
/// is acknowledged exactly once and no reply answers an unknown id.
fn cmd_driver(addr: &riot_serve::BoundAddr, session: &str, n: usize) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    for _ in 0..1000 {
        match c.open(session, "TOP") {
            Err(e) if e == "busy" => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("open: {e}")),
            Ok(_) => break,
        }
    }
    let mut ready: VecDeque<usize> = (0..n).collect();
    let mut in_flight: HashMap<u64, usize> = HashMap::new();
    let mut acked = vec![false; n];
    while acked.iter().any(|a| !a) {
        while in_flight.len() < 8 {
            let Some(i) = ready.pop_front() else { break };
            let id = c
                .send(RequestBody::Cmd {
                    session: session.to_owned(),
                    line: format!("create nand2 S{i}"),
                })
                .map_err(|e| format!("send: {e}"))?;
            in_flight.insert(id, i);
        }
        let Reply { id, body } = c.recv().map_err(|e| format!("recv: {e}"))?;
        let i = in_flight
            .remove(&id)
            .ok_or_else(|| format!("reply id {id} answers nothing in flight"))?;
        match body {
            ReplyBody::Ok(_) => {
                if acked[i] {
                    return Err(format!("command {i} acknowledged twice"));
                }
                acked[i] = true;
            }
            ReplyBody::Busy => ready.push_front(i),
            ReplyBody::Err(m) => return Err(format!("command {i}: {m}")),
        }
    }
    for _ in 0..1000 {
        match c.close_session(session) {
            Err(e) if e == "busy" => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("close: {e}")),
            Ok(_) => return Ok(()),
        }
    }
    Err("close: busy after 1000 retries".into())
}

/// Fires `n` pings without reading a single reply, sleeps, then drains
/// them all — the server must buffer the replies (bounded backlog) and
/// deliver every one, in order, once the reader wakes up.
fn slow_reader(addr: &riot_serve::BoundAddr, n: usize) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(
            c.send(RequestBody::Ping)
                .map_err(|e| format!("send: {e}"))?,
        );
    }
    std::thread::sleep(Duration::from_millis(150));
    for want in ids {
        let Reply { id, body } = c.recv().map_err(|e| format!("recv: {e}"))?;
        if id != want {
            return Err(format!("slow reader misordered: got {id}, wanted {want}"));
        }
        if !matches!(body, ReplyBody::Ok(_)) {
            return Err(format!("slow reader ping answered {body:?}"));
        }
    }
    Ok(())
}

/// The herd scenario: 256 concurrent connections — 168 idle, 40 ping
/// pipeliners, 32 command sessions, 16 slow readers — with every reply
/// accounted for.
fn herd() {
    let root = temp_root("herd");
    let cfg = soak_cfg(&root);
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let addr = h.addr();

    let mut idle = Vec::new();
    for i in 0..168 {
        idle.push(Client::connect(&addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")));
    }
    // One round trip so the loop has certainly seen the whole herd,
    // then the open-connections gauge must cover it.
    ping_pipeliner(&addr, 1, 1).unwrap();
    let open = riot_trace::registry().gauge("serve.conns.open").get();
    assert!(open >= 168, "serve.conns.open = {open} with 168 idle conns");

    let decode_in_place = riot_trace::registry().counter("serve.conn.decode.in_place");
    let decoded_before = decode_in_place.get();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..40 {
            let addr = addr.clone();
            handles.push(scope.spawn(move || ping_pipeliner(&addr, 40, 8)));
        }
        for s in 0..32 {
            let addr = addr.clone();
            let session = format!("soak-{s}");
            handles.push(scope.spawn(move || cmd_driver(&addr, &session, 20)));
        }
        for _ in 0..16 {
            let addr = addr.clone();
            handles.push(scope.spawn(move || slow_reader(&addr, 200)));
        }
        for (k, handle) in handles.into_iter().enumerate() {
            handle
                .join()
                .unwrap_or_else(|_| Err("worker panicked".into()))
                .unwrap_or_else(|e| panic!("soak worker {k}: {e}"));
        }
    });
    assert!(
        decode_in_place.get() > decoded_before,
        "zero-copy decode counter never moved under load"
    );

    drop(idle);
    h.shutdown();
    assert_eq!(
        riot_trace::registry().gauge("serve.conns.open").get(),
        0,
        "serve.conns.open must return to 0 after the drain"
    );
    assert_eq!(
        riot_trace::registry()
            .gauge("serve.conn.backlog_bytes")
            .get(),
        0,
        "serve.conn.backlog_bytes must return to 0 after the drain"
    );
    let _ = std::fs::remove_dir_all(root);
}

/// A stuffed inbox must answer `busy`, not buffer unboundedly: stall
/// the only worker, overfill its 2-deep queue, and count the refusals.
fn busy_under_pressure() {
    let root = temp_root("busy");
    let mut cfg = soak_cfg(&root);
    cfg.threads = 1;
    cfg.inbox_cap = 2;
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let mut c = Client::connect(&h.addr()).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c.open("jam", "TOP").unwrap();

    // Hold the worker down, then flood: the stall occupies it while the
    // pipelined commands overflow the 2-deep inbox.
    let stall_id = c
        .send(RequestBody::Stall {
            session: "jam".into(),
            ms: 200,
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let mut ids = vec![stall_id];
    for k in 0..8 {
        ids.push(
            c.send(RequestBody::Cmd {
                session: "jam".into(),
                line: format!("create nand2 J{k}"),
            })
            .unwrap(),
        );
    }
    let mut busy = 0usize;
    let mut seen = 0usize;
    while seen < ids.len() {
        let Reply { id, body } = c.recv().unwrap();
        assert!(ids.contains(&id), "phantom reply id {id}");
        if matches!(body, ReplyBody::Busy) {
            busy += 1;
        }
        seen += 1;
    }
    assert!(busy > 0, "a 2-deep inbox swallowed 8 pipelined commands");
    c.shutdown_server().unwrap();
    h.wait();
    let _ = std::fs::remove_dir_all(root);
}

/// Half-open connections — handshaken then silent, or never
/// handshaken at all — must be evicted on the read timeout, observed
/// from the client side as EOF.
fn half_open_eviction() {
    let root = temp_root("halfopen");
    let mut cfg = soak_cfg(&root);
    cfg.read_timeout = Duration::from_millis(200);
    cfg.write_timeout = Duration::from_millis(200);
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let riot_serve::BoundAddr::Tcp(sa) = h.addr() else {
        panic!("tcp bind expected");
    };

    // Handshakes, then goes silent.
    let mut silent = std::net::TcpStream::connect(sa).unwrap();
    silent.write_all(riot_serve::SRV_MAGIC_V2).unwrap();
    let mut echo = [0u8; 8];
    silent.read_exact(&mut echo).unwrap();
    assert_eq!(&echo, riot_serve::SRV_MAGIC_V2);

    // Never even sends the magic.
    let mut mute = std::net::TcpStream::connect(sa).unwrap();

    for (tag, s) in [("silent", &mut silent), ("mute", &mut mute)] {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let started = Instant::now();
        let mut buf = [0u8; 64];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break, // evicted: clean EOF
                Ok(_) => continue,
                Err(e) => panic!("{tag} conn: expected EOF, got {e}"),
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "{tag} conn outlived the 200ms read timeout"
        );
    }
    h.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// A stop request must cut through an idle herd without waiting out
/// any tick: the wake pipe turns 100 parked connections into an
/// immediate drain — a couple of 2ms loop iterations, nowhere near any
/// timeout.
fn fast_shutdown() {
    let bound = Duration::from_millis(10);
    let root = temp_root("fastdown");
    let cfg = soak_cfg(&root);
    let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
    let addr = h.addr();
    let mut herd = Vec::new();
    for i in 0..100 {
        herd.push(Client::connect(&addr).unwrap_or_else(|e| panic!("conn {i}: {e}")));
    }
    // One round trip guarantees the server has registered the herd.
    ping_pipeliner(&addr, 1, 1).unwrap();

    let started = Instant::now();
    h.shutdown();
    let elapsed = started.elapsed();
    drop(herd);
    assert!(
        elapsed < bound,
        "drain of 100 idle conns took {elapsed:?} (bound {bound:?})"
    );
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn poll_model_soaks_clean() {
    herd();
    busy_under_pressure();
    half_open_eviction();
    fast_shutdown();
}
