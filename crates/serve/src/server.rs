//! The server: the readiness-driven connection plane plus graceful
//! drain.
//!
//! # Connection plane
//!
//! One event-loop thread owns every connection:
//! the listener, a wakeup pipe and each connection's socket are
//! multiplexed through `poll(2)` ([`crate::net::PollSet`]). Sockets are
//! non-blocking; each connection is a pure [`Connection`] state machine
//! (`handshaking → reading ⇄ backlogged → draining → closed`) that
//! scans frames **in place** over its receive scratch — request decode
//! borrows the payload bytes ([`RequestRef`]) and only dispatch
//! materializes owned strings. Replies come back from the worker pool
//! over one routed channel tagged with the connection token
//! ([`ReplyTx::routed`]); every send kicks the wakeup pipe so a blocked
//! `poll(2)` learns immediately. Write backlogs are bounded: past a
//! quarter of [`crate::ServeConfig::conn_backlog_max`] the connection
//! stops reading (slow readers throttle themselves), past the cap it is
//! evicted (`serve.conn.evicted`).
//!
//! Per-session FIFO ordering in the manager, plus a single writer per
//! connection (the event loop's backlog), means pipelined replies can
//! never be misordered.
//!
//! # Shutdown
//!
//! `shutdown` (the wire verb) or [`ServerHandle::shutdown`] calls
//! [`request_stop`]: the stop flag is set and the wakeup pipe kicked,
//! so the poll loop wakes **immediately** (no tick worst-case), drains
//! every connection's queued replies and exits once the last one
//! closes. Nothing is dropped: replies already queued still go out
//! before the sockets close.

use crate::config::ServeConfig;
use crate::conn::{ConnEvent, Connection, QueueOutcome};
use crate::flightrec::{self, FlightKind};
use crate::manager::{JobKind, ReplyTx, SessionManager};
use crate::net::{Bind, BoundAddr, Interest, Listener, PollSet, Stream, WakePipe};
use crate::proto::{Reply, ReplyBody, RequestBodyRef, RequestRef, TelemetryFormat};
use crate::telemetry::TelemetryServer;
use riot_core::{
    FAULT_SERVE_ACCEPT, FAULT_SERVE_CONN_BACKLOG, FAULT_SERVE_FRAME_DECODE, FAULT_SERVE_POLL_WAKEUP,
};
use riot_trace::TraceContext;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// State shared by the event-loop thread and the server handle.
struct Shared {
    cfg: ServeConfig,
    mgr: SessionManager,
    stop: AtomicBool,
    bound: BoundAddr,
    /// Event-loop wakeup pipe: kicked on shutdown and by every routed
    /// reply becoming ready.
    wake: Arc<WakePipe>,
}

/// A running server. Obtain with [`Server::start`]; stop with
/// [`ServerHandle::shutdown`] or let a client's `shutdown` verb drain
/// it and [`ServerHandle::wait`] for completion.
pub struct Server;

/// Handle to a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    telemetry: Option<TelemetryServer>,
}

impl Server {
    /// Binds `bind`, starts the worker pool and the event-loop
    /// thread.
    ///
    /// # Errors
    ///
    /// Bind, wakeup-pipe, or WAL-root creation failures.
    pub fn start(cfg: ServeConfig, bind: &Bind) -> std::io::Result<ServerHandle> {
        riot_trace::init_from_env();
        let (listener, bound) = Listener::bind(bind)?;
        let wake = Arc::new(WakePipe::new()?);
        let mgr = SessionManager::start(cfg.clone())?;
        // From here on a panic anywhere in the process dumps the
        // flight recorder next to the WALs it describes.
        flightrec::register_panic_dump(&cfg.root, &cfg.flightrec);
        let telemetry = match &cfg.telemetry_addr {
            Some(addr) => Some(TelemetryServer::start(addr, Arc::clone(&cfg.flightrec))?),
            None => None,
        };
        let shared = Arc::new(Shared {
            cfg,
            mgr,
            stop: AtomicBool::new(false),
            bound,
            wake,
        });
        let io_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("riot-serve-io".into())
            .spawn(move || poll_loop(listener, &io_shared))
            .expect("spawn io thread");
        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            telemetry,
        })
    }
}

impl ServerHandle {
    /// Where the server is listening (TCP `:0` resolved).
    pub fn addr(&self) -> BoundAddr {
        self.shared.bound.clone()
    }

    /// Where the telemetry HTTP listener is bound, if one was
    /// configured (`:0` resolved).
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.telemetry.as_ref().map(TelemetryServer::addr)
    }

    /// True once a drain has been requested (flag set by the wire
    /// `shutdown` verb or [`ServerHandle::shutdown`]).
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Requests a drain and blocks until the server is fully stopped:
    /// io thread joined, every connection closed, every session
    /// flushed.
    pub fn shutdown(mut self) {
        request_stop(&self.shared);
        self.join_everything();
    }

    /// Blocks until a *client* drains the server with the `shutdown`
    /// verb, then finishes the drain and returns.
    pub fn wait(mut self) {
        self.join_everything();
    }

    fn join_everything(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let BoundAddr::Unix(path) = &self.shared.bound {
            let _ = std::fs::remove_file(path);
        }
        // The telemetry listener outlives the wire sockets — `wait`
        // blocks here for the server's whole life, and scrapers must
        // see metrics while it serves. Dropping it stops and joins its
        // thread.
        self.telemetry.take();
        // Dropping the handle's Arc releases the manager; its Drop
        // drains the worker pool and flushes every session WAL.
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            request_stop(&self.shared);
            self.join_everything();
        }
    }
}

/// Sets the stop flag and wakes the poll loop via its wakeup pipe.
fn request_stop(shared: &Shared) {
    shared.stop.store(true, Ordering::Relaxed);
    shared.wake.wake();
}

/// One live connection inside the event loop.
struct PollConn {
    stream: Stream,
    conn: Connection,
    reply: ReplyTx,
    /// Last byte of progress in either direction — read or write —
    /// for timeout eviction.
    last_progress: Instant,
}

/// The readiness-driven event loop: listener, wakeup pipe and every
/// connection multiplexed through one `poll(2)` set.
fn poll_loop(listener: Listener, shared: &Arc<Shared>) {
    let reg = riot_trace::registry();
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let (reply_tx, reply_rx) = channel::<(u64, Reply)>();
    let mut conns: HashMap<u64, PollConn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut pollset = PollSet::new();
    let mut tmp = [0u8; 16 * 1024];
    let mut stopping = false;
    loop {
        let iter_start = Instant::now();
        if !stopping && shared.stop.load(Ordering::Relaxed) {
            stopping = true;
            for pc in conns.values_mut() {
                pc.conn.begin_drain();
            }
        }
        conns.retain(|_, pc| {
            if pc.conn.is_closed() {
                pc.stream.shutdown_both();
                false
            } else {
                true
            }
        });
        if stopping && conns.is_empty() {
            break;
        }

        // Build this iteration's poll set: wakeup pipe, listener
        // (unless draining), and every connection by current interest.
        pollset.clear();
        let wake_idx = pollset.register(shared.wake.read_fd(), Interest::READ);
        let listen_idx = if stopping {
            None
        } else {
            Some(pollset.register(listener.raw_fd(), Interest::READ))
        };
        let mut regs: Vec<(u64, usize)> = Vec::with_capacity(conns.len());
        for (tok, pc) in &conns {
            let interest = Interest {
                read: pc.conn.wants_read(),
                write: pc.conn.wants_write(),
            };
            if interest.read || interest.write {
                regs.push((*tok, pollset.register(pc.stream.raw_fd(), interest)));
            }
        }
        let _ = pollset.wait(Some(shared.cfg.tick));

        // Wakeup pipe: worker replies became ready or a stop was
        // requested. The fault site models a *lost* wakeup — the pipe
        // stays undrained and reply routing is skipped one iteration,
        // so delivery must ride the tick fallback instead.
        let mut route_replies = true;
        if pollset.readiness(wake_idx).readable {
            if shared.cfg.faults.should_inject(FAULT_SERVE_POLL_WAKEUP) {
                shared.cfg.flightrec.record(
                    0,
                    "",
                    FlightKind::Fault,
                    "serve.poll.wakeup",
                    false,
                    0,
                );
                reg.counter("serve.poll.wakeup.lost").inc();
                route_replies = false;
            } else {
                shared.wake.drain();
                reg.counter("serve.poll.wakeups").inc();
            }
        }
        if route_replies {
            while let Ok((tok, reply)) = reply_rx.try_recv() {
                let Some(pc) = conns.get_mut(&tok) else {
                    continue; // connection evicted while the job ran
                };
                if shared.cfg.faults.should_inject(FAULT_SERVE_CONN_BACKLOG) {
                    // The injected "client that never drains": evict
                    // rather than buffer unboundedly. Durability is
                    // untouched — what was acknowledged is on disk.
                    shared.cfg.flightrec.record(
                        reply.id,
                        "",
                        FlightKind::Fault,
                        "serve.conn.backlog",
                        false,
                        0,
                    );
                    reg.counter("serve.conn.evicted").inc();
                    pc.conn.force_close();
                    continue;
                }
                if pc.conn.deliver_reply(&reply) == QueueOutcome::Overflow {
                    reg.counter("serve.conn.evicted").inc();
                }
            }
        }

        // Accept everything pending.
        if listen_idx.is_some_and(|idx| pollset.readiness(idx).readable) {
            accept_ready(&listener, shared, &reply_tx, &mut next_token, &mut conns);
        }

        // Per-connection readiness: pull bytes, then scan/dispatch.
        for (tok, idx) in &regs {
            let r = pollset.readiness(*idx);
            let Some(pc) = conns.get_mut(tok) else {
                continue;
            };
            if r.error && !r.readable {
                pc.conn.force_close();
                continue;
            }
            if r.readable && pc.conn.wants_read() {
                read_ready(pc, &mut tmp);
            }
        }

        // Scan/dispatch for every connection — not just the ones that
        // read this iteration: a connection leaving `backlogged` must
        // resume dispatching its already-buffered frames.
        for pc in conns.values_mut() {
            process_events(shared, pc);
            flush_writes(pc);
        }

        evict_stalled(shared, &mut conns);

        let mut backlog_total = 0usize;
        for pc in conns.values() {
            backlog_total += pc.conn.backlog_bytes();
        }
        reg.gauge("serve.conns.open").set(conns.len() as i64);
        reg.gauge("serve.conn.backlog_bytes")
            .set(backlog_total as i64);
        reg.histogram("serve.poll.loop_iter_ns")
            .record(iter_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    reg.gauge("serve.conns.open").set(0);
    reg.gauge("serve.conn.backlog_bytes").set(0);
}

/// Drains the listener's accept queue (non-blocking).
fn accept_ready(
    listener: &Listener,
    shared: &Arc<Shared>,
    reply_tx: &Sender<(u64, Reply)>,
    next_token: &mut u64,
    conns: &mut HashMap<u64, PollConn>,
) {
    loop {
        match listener.accept() {
            Ok(stream) => {
                if shared.cfg.faults.should_inject(FAULT_SERVE_ACCEPT) {
                    // A fault at accept: the connection is dropped
                    // before the handshake, exactly like a dying
                    // network. No session state is involved yet.
                    stream.shutdown_both();
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    stream.shutdown_both();
                    continue;
                }
                riot_trace::registry().counter("serve.connections").inc();
                let token = *next_token;
                *next_token += 1;
                let reply = ReplyTx::routed(reply_tx.clone(), token, Arc::clone(&shared.wake));
                conns.insert(
                    token,
                    PollConn {
                        stream,
                        conn: Connection::new(shared.cfg.conn_backlog_max),
                        reply,
                        last_progress: Instant::now(),
                    },
                );
            }
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Pulls every available byte off a readable socket into the
/// connection's scratch buffer.
fn read_ready(pc: &mut PollConn, tmp: &mut [u8]) {
    loop {
        match pc.stream.read(tmp) {
            Ok(0) => {
                // Peer closed cleanly: no more requests, but in-flight
                // replies still flush before the socket closes.
                pc.conn.begin_drain();
                break;
            }
            Ok(n) => {
                pc.conn.ingest(&tmp[..n]);
                pc.last_progress = Instant::now();
                if n < tmp.len() {
                    break;
                }
            }
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => {
                pc.conn.force_close();
                break;
            }
        }
    }
}

/// Scans buffered bytes into handshake/frame events and dispatches
/// them. Zero-copy: each frame's payload is decoded in place.
fn process_events(shared: &Arc<Shared>, pc: &mut PollConn) {
    let reg = riot_trace::registry();
    loop {
        match pc.conn.next_event() {
            None => return,
            Some(ConnEvent::Handshake) => {
                reg.counter("serve.handshake.v2").inc();
            }
            Some(ConnEvent::BadMagic) => {
                reg.counter("serve.handshake.rejected").inc();
                return;
            }
            Some(ConnEvent::Frame { off, len }) => {
                reg.counter("serve.conn.decode.in_place").inc();
                pc.conn.note_dispatched();
                let keep = handle_frame(pc.conn.frame_payload(off, len), shared, &pc.reply);
                if !keep {
                    pc.conn.begin_drain();
                    return;
                }
            }
            Some(ConnEvent::Corrupt(c)) => {
                reg.counter("serve.frame.corrupt").inc();
                if pc.conn.queue_reply(&Reply {
                    id: u64::MAX,
                    body: ReplyBody::Err(format!("corrupt frame: {c}; closing")),
                }) == QueueOutcome::Overflow
                {
                    reg.counter("serve.conn.evicted").inc();
                }
                return;
            }
        }
    }
}

/// Writes backlog bytes until the socket would block.
fn flush_writes(pc: &mut PollConn) {
    while pc.conn.wants_write() {
        match pc.stream.write(pc.conn.writable_bytes()) {
            Ok(0) => {
                pc.conn.force_close();
                break;
            }
            Ok(n) => {
                pc.conn.advance_write(n);
                pc.last_progress = Instant::now();
            }
            Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => {
                pc.conn.force_close();
                break;
            }
        }
    }
}

/// Evicts connections that made no progress in either direction for
/// too long: half-open peers that never handshook, idle readers past
/// `read_timeout`, and backlogged peers that never drain.
fn evict_stalled(shared: &Arc<Shared>, conns: &mut HashMap<u64, PollConn>) {
    let reg = riot_trace::registry();
    let now = Instant::now();
    for pc in conns.values_mut() {
        if pc.conn.is_closed() {
            continue;
        }
        let reading = pc.conn.wants_read();
        let limit = if reading {
            shared.cfg.read_timeout
        } else {
            shared.cfg.write_timeout.max(shared.cfg.read_timeout)
        };
        if now.duration_since(pc.last_progress) >= limit {
            if reading {
                reg.counter("serve.read.timeout").inc();
            }
            reg.counter("serve.conn.evicted").inc();
            pc.conn.force_close();
        }
    }
}

/// Decodes and dispatches one frame. Returns `false` to close the
/// connection. Decode is zero-copy ([`RequestRef`] borrows `payload`);
/// only the dispatch arms materialize owned strings for the worker
/// pool.
fn handle_frame(payload: &[u8], shared: &Arc<Shared>, reply_tx: &ReplyTx) -> bool {
    let decode_start = Instant::now();
    let _span = riot_trace::span!("serve.frame", bytes = payload.len() as u64);
    riot_trace::registry().counter("serve.frames").inc();
    if shared.cfg.faults.should_inject(FAULT_SERVE_FRAME_DECODE) {
        // A fault at frame decode behaves exactly like wire corruption:
        // refuse the frame and close, before any session work happens —
        // and leave the incident in the flight recorder, dumped.
        shared
            .cfg
            .flightrec
            .record(0, "", FlightKind::Fault, "serve.frame.decode", false, 0);
        let _ = shared.cfg.flightrec.dump_to(&shared.cfg.root);
        reply_tx.send(Reply {
            id: u64::MAX,
            body: ReplyBody::Err("corrupt frame: injected decode fault; closing".to_owned()),
        });
        return false;
    }
    let (req, trace) = match RequestRef::decode(payload) {
        Ok(t) => t,
        Err(e) => {
            reply_tx.send(Reply {
                id: u64::MAX,
                body: ReplyBody::Err(format!("bad request: {e}")),
            });
            return true; // framing is intact; only this request is bad
        }
    };
    // The context was *inside* the bytes we just decoded, so the decode
    // span is completed retroactively under it — the first server-side
    // child of the client's trace.
    let ctx = trace.unwrap_or(TraceContext::NONE);
    riot_trace::complete_span(
        "serve.frame.decode",
        ctx,
        decode_start,
        &[("bytes", payload.len() as u64)],
    );
    let id = req.id;
    let reply_now = |body: ReplyBody| {
        reply_tx.send(Reply { id, body });
    };
    match req.body {
        RequestBodyRef::Ping => reply_now(ReplyBody::Ok("pong".to_owned())),
        RequestBodyRef::Stats { session: None } => {
            reply_now(ReplyBody::Ok(shared.mgr.stats_line()));
        }
        RequestBodyRef::Stats {
            session: Some(session),
        } => {
            dispatch(shared, reply_tx, id, session, JobKind::SessionStats, ctx);
        }
        RequestBodyRef::Telemetry { format } => {
            // Served inline from the registry: no worker round-trip, no
            // session state, safe even when every inbox is full.
            reply_now(ReplyBody::Ok(match format {
                TelemetryFormat::Prometheus => riot_trace::prometheus(),
                TelemetryFormat::Json => riot_trace::json_snapshot(),
            }));
        }
        RequestBodyRef::Dump => {
            reply_now(match shared.cfg.flightrec.dump_to(&shared.cfg.root) {
                Ok(path) => ReplyBody::Ok(path.display().to_string()),
                Err(e) => ReplyBody::Err(format!("flight recorder dump failed: {e}")),
            });
        }
        RequestBodyRef::Shutdown => {
            request_stop(shared);
            reply_now(ReplyBody::Ok("draining".to_owned()));
            return false;
        }
        RequestBodyRef::Open { session, cell } => {
            dispatch(
                shared,
                reply_tx,
                id,
                session,
                JobKind::Open {
                    cell: cell.to_owned(),
                },
                ctx,
            );
        }
        RequestBodyRef::Cmd { session, line } => {
            dispatch(
                shared,
                reply_tx,
                id,
                session,
                JobKind::Cmd {
                    line: line.split_whitespace().collect::<Vec<_>>().join(" "),
                },
                ctx,
            );
        }
        RequestBodyRef::Close { session } => {
            dispatch(shared, reply_tx, id, session, JobKind::Close, ctx);
        }
        RequestBodyRef::Stall { session, ms } => {
            dispatch(shared, reply_tx, id, session, JobKind::Stall { ms }, ctx);
        }
    }
    true
}

/// Validates the session name and submits to the manager; any refusal
/// (invalid name, full inbox, shutdown) replies immediately.
fn dispatch(
    shared: &Arc<Shared>,
    reply_tx: &ReplyTx,
    id: u64,
    session: &str,
    kind: JobKind,
    trace: TraceContext,
) {
    if !crate::proto::valid_session_name(session) {
        reply_tx.send(Reply {
            id,
            body: ReplyBody::Err(format!(
                "invalid session name `{session}` (want [A-Za-z0-9_-]{{1,64}})"
            )),
        });
        return;
    }
    if let Err(body) = shared
        .mgr
        .submit(session, kind, id, trace, reply_tx.clone())
    {
        reply_tx.send(Reply { id, body });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::{Request, RequestBody, MAX_FRAME_PAYLOAD, SRV_MAGIC_V2};
    use riot_core::record;
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("riot-serve-srv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_cfg(root: &Path) -> ServeConfig {
        let mut cfg = ServeConfig::new(root);
        cfg.threads = 2;
        cfg.tick = Duration::from_millis(2);
        cfg
    }

    #[test]
    fn tcp_ping_open_cmd_close() {
        let root = tmp_root("tcp");
        let h = Server::start(test_cfg(&root), &Bind::Tcp("127.0.0.1:0".into())).unwrap();
        let mut c = Client::connect(&h.addr()).unwrap();
        assert_eq!(c.ping().unwrap(), "pong");
        assert_eq!(c.open("t1", "TOP").unwrap(), "created");
        assert_eq!(c.cmd("t1", "create nand2 A").unwrap(), "instance 0");
        assert_eq!(c.cmd("t1", "translate A 5000 0").unwrap(), "done");
        assert_eq!(c.close_session("t1").unwrap(), "closed");
        drop(c);
        h.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn unix_socket_and_wire_shutdown() {
        let root = tmp_root("unix");
        let sock = root.join("srv.sock");
        std::fs::create_dir_all(&root).unwrap();
        let h = Server::start(test_cfg(&root), &Bind::Unix(sock.clone())).unwrap();
        let mut c = Client::connect(&h.addr()).unwrap();
        assert_eq!(c.open("u1", "TOP").unwrap(), "created");
        assert!(c.stats().unwrap().contains("sessions"));
        assert_eq!(c.shutdown_server().unwrap(), "draining");
        h.wait();
        assert!(!sock.exists(), "socket file removed on drain");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn session_stats_report_engine_counters() {
        let root = tmp_root("sstats");
        let h = Server::start(test_cfg(&root), &Bind::Tcp("127.0.0.1:0".into())).unwrap();
        let mut c = Client::connect(&h.addr()).unwrap();
        assert_eq!(c.open("st1", "TOP").unwrap(), "created");
        assert_eq!(c.cmd("st1", "create nand2 A").unwrap(), "instance 0");
        assert_eq!(c.cmd("st1", "translate A 5000 0").unwrap(), "done");
        let line = c.stats_session("st1").unwrap();
        assert!(line.contains("applied 2"), "{line}");
        assert!(line.contains("cache_hits"), "{line}");
        assert!(line.contains("hit_rate"), "{line}");
        assert!(line.contains("damage_rects"), "{line}");
        // A served session stays warm: the editor that answered the
        // first `connect` answers the second from its connector cache.
        assert_eq!(c.cmd("st1", "create nand2 B").unwrap(), "instance 1");
        assert_eq!(c.cmd("st1", "connect B PWRL A PWRR").unwrap(), "done");
        let misses = |line: &str| -> u64 {
            let mut words = line.split_whitespace();
            words.find(|w| *w == "cache_misses");
            words
                .next()
                .and_then(|n| n.parse().ok())
                .expect("a miss count")
        };
        let cold = misses(&c.stats_session("st1").unwrap());
        assert_eq!(c.cmd("st1", "clearpend").unwrap(), "done");
        assert_eq!(c.cmd("st1", "connect B PWRL A PWRR").unwrap(), "done");
        let line = c.stats_session("st1").unwrap();
        assert_eq!(misses(&line), cold, "{line}");
        // The pool-wide line still answers the bare verb.
        assert!(c.stats().unwrap().contains("sessions"), "pool-wide stats");
        // A session that was never opened is an error, not a panic.
        let err = c.stats_session("never-opened").unwrap_err();
        assert!(err.contains("no such session"), "{err}");
        h.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let root = tmp_root("magic");
        let h = Server::start(test_cfg(&root), &Bind::Tcp("127.0.0.1:0".into())).unwrap();
        // `RIOTSRV1` is refused like any other unknown magic.
        for magic in [b"NOTRIOT!", b"RIOTSRV1"] {
            let mut s = Stream::connect(&h.addr()).unwrap();
            s.write_all(magic).unwrap();
            let mut b = [0u8; 1];
            // Server closes without echoing the magic.
            assert!(matches!(s.read(&mut b), Ok(0) | Err(_)));
        }
        h.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn corrupt_frame_gets_an_error_reply_then_close() {
        let root = tmp_root("corrupt");
        let h = Server::start(test_cfg(&root), &Bind::Tcp("127.0.0.1:0".into())).unwrap();
        let mut s = Stream::connect(&h.addr()).unwrap();
        s.write_all(SRV_MAGIC_V2).unwrap();
        let mut echo = [0u8; 8];
        s.read_exact(&mut echo).unwrap();
        assert_eq!(&echo, SRV_MAGIC_V2);
        let mut frame = Vec::new();
        let ping = Request {
            id: 1,
            body: RequestBody::Ping,
        };
        record::encode(&mut frame, &ping.encode(None)).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x40; // bad checksum
        s.write_all(&frame).unwrap();
        let mut wire = Vec::new();
        s.read_to_end(&mut wire).unwrap(); // server replies, then closes
        let (payload, _) = record::scan_eof(&wire, Some(MAX_FRAME_PAYLOAD)).unwrap();
        let reply = Reply::decode(payload).unwrap();
        assert_eq!(reply.id, u64::MAX);
        assert!(
            matches!(reply.body, ReplyBody::Err(ref m) if m.contains("corrupt frame")),
            "{reply:?}"
        );
        h.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn invalid_session_names_are_refused() {
        let root = tmp_root("names");
        let h = Server::start(test_cfg(&root), &Bind::Tcp("127.0.0.1:0".into())).unwrap();
        let mut c = Client::connect(&h.addr()).unwrap();
        let err = c.open("../evil", "TOP").unwrap_err();
        assert!(err.contains("invalid session name"), "{err}");
        h.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn accept_fault_drops_the_connection_not_the_server() {
        let root = tmp_root("afault");
        let cfg = test_cfg(&root);
        cfg.faults.arm(riot_core::FAULT_SERVE_ACCEPT, 0);
        let h = Server::start(cfg, &Bind::Tcp("127.0.0.1:0".into())).unwrap();
        // First connection dies at accept…
        assert!(Client::connect(&h.addr()).is_err());
        // …the next one is fine.
        let mut c = Client::connect(&h.addr()).unwrap();
        assert_eq!(c.ping().unwrap(), "pong");
        h.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }
}
