//! The load generator behind `riot-serve bench`.
//!
//! Spawns `sessions` client connections (each driving its own
//! session), pushes `commands` editor commands through each with a
//! window of `window` requests in flight, and reports throughput,
//! request-latency percentiles, and **durability cost**: how many WAL
//! fsyncs the run bought (`fsyncs_total`, read as the delta of the
//! server's `serve.wal.fsyncs` counter over the `telemetry` wire verb)
//! and how many fsyncs each acknowledged command cost
//! (`fsyncs_per_cmd` — the number the per-batch flush pass exists to
//! push far below 1.0). The report is schema-checked by
//! [`BenchReport::validate`] **before** any timing claim is written —
//! a bench that cannot vouch for its own numbers emits nothing.
//!
//! [`run_suite`] goes further: it drives a private server with the
//! load, then adds a recovery benchmark ([`run_recovery_bench`]) that
//! times session recovery with and without a snapshot across growing
//! WAL histories — demonstrating that snapshot recovery cost is flat
//! in history length — and a connection-scaling axis
//! ([`run_conn_scaling`]).

use crate::client::Client;
use crate::config::{standard_library, ServeConfig};
use crate::fault::ServeFaults;
use crate::net::{Bind, BoundAddr};
use crate::proto::{Reply, ReplyBody, RequestBody, TelemetryFormat};
use crate::server::Server;
use crate::session::{execute_line, SessionEntry};
use riot_core::Editor;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Bench shape: how much load, how wide the pipeline.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Concurrent client connections (one session each).
    pub sessions: usize,
    /// Commands per session.
    pub commands: usize,
    /// Pipelined requests in flight per connection.
    pub window: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            sessions: 4,
            commands: 1000,
            window: 32,
        }
    }
}

/// What the bench measured.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report schema tag, always `riot-serve-bench/3`.
    pub schema: String,
    /// Concurrent sessions driven.
    pub sessions: usize,
    /// Total commands acknowledged across all sessions.
    pub commands_total: usize,
    /// Pipeline window per connection.
    pub window: usize,
    /// Wall-clock for the whole run, milliseconds.
    pub elapsed_ms: f64,
    /// Acknowledged commands per second (all sessions combined).
    pub cmds_per_sec: f64,
    /// WAL fsyncs the run performed (`serve.wal.fsyncs` delta).
    pub fsyncs_total: u64,
    /// Fsyncs per acknowledged command — the flush pass's whole point
    /// is pushing this far below 1.0.
    pub fsyncs_per_cmd: f64,
    /// Request latency percentiles, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// `busy` replies absorbed (retried) during the run.
    pub busy_retries: usize,
}

impl BenchReport {
    /// Checks internal consistency: the schema tag, positive load and
    /// timings, ordered percentiles, fsync accounting. Run this before
    /// trusting (or writing) any number in the report.
    ///
    /// # Errors
    ///
    /// A description of the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != "riot-serve-bench/3" {
            return Err(format!("bad schema tag `{}`", self.schema));
        }
        if self.sessions == 0 {
            return Err("sessions must be positive".into());
        }
        if self.commands_total == 0 {
            return Err("no commands were acknowledged".into());
        }
        if !self.commands_total.is_multiple_of(self.sessions) {
            return Err(format!(
                "commands_total {} not a multiple of sessions {} — lost replies",
                self.commands_total, self.sessions
            ));
        }
        if !(self.elapsed_ms.is_finite() && self.elapsed_ms > 0.0) {
            return Err("elapsed_ms must be positive and finite".into());
        }
        if !(self.cmds_per_sec.is_finite() && self.cmds_per_sec > 0.0) {
            return Err("cmds_per_sec must be positive and finite".into());
        }
        let implied = self.commands_total as f64 / (self.elapsed_ms / 1000.0);
        if (implied - self.cmds_per_sec).abs() / implied > 0.05 {
            return Err(format!(
                "cmds_per_sec {:.0} disagrees with commands/elapsed {:.0}",
                self.cmds_per_sec, implied
            ));
        }
        let implied_rate = self.fsyncs_total as f64 / self.commands_total as f64;
        if !(self.fsyncs_per_cmd.is_finite()
            && self.fsyncs_per_cmd >= 0.0
            && (implied_rate - self.fsyncs_per_cmd).abs() < 1e-6)
        {
            return Err(format!(
                "fsyncs_per_cmd {:.4} disagrees with fsyncs/commands {:.4}",
                self.fsyncs_per_cmd, implied_rate
            ));
        }
        if !(self.p50_us <= self.p95_us && self.p95_us <= self.p99_us) {
            return Err(format!(
                "percentiles out of order: p50 {} p95 {} p99 {}",
                self.p50_us, self.p95_us, self.p99_us
            ));
        }
        Ok(())
    }

    /// The report as pretty-printed JSON (`riot-serve-bench/3`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"sessions\": {},\n  \"commands_total\": {},\n  \
             \"window\": {},\n  \"elapsed_ms\": {:.2},\n  \
             \"cmds_per_sec\": {:.1},\n  \"fsyncs_total\": {},\n  \"fsyncs_per_cmd\": {:.4},\n  \
             \"p50_us\": {},\n  \"p95_us\": {},\n  \"p99_us\": {},\n  \"busy_retries\": {}\n}}\n",
            self.schema,
            self.sessions,
            self.commands_total,
            self.window,
            self.elapsed_ms,
            self.cmds_per_sec,
            self.fsyncs_total,
            self.fsyncs_per_cmd,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.busy_retries
        )
    }
}

/// One session-recovery timing at one history length.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPoint {
    /// Commands in the session's history before recovery.
    pub history: usize,
    /// Recovery time with no snapshot: full-history replay, ms.
    pub full_replay_ms: f64,
    /// Recovery time from snapshot + WAL tail, ms.
    pub snapshot_ms: f64,
    /// WAL records replayed on top of the snapshot.
    pub tail_records: usize,
}

/// One connection-scaling measurement: `connections` open clients,
/// most idle, `active` driving commands.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnScalePoint {
    /// Total open connections held for the whole measurement.
    pub connections: usize,
    /// Connections actively driving commands (the rest sit idle).
    pub active: usize,
    /// Commands acknowledged across the active connections.
    pub commands_total: usize,
    /// Wall-clock for the active phase, milliseconds.
    pub elapsed_ms: f64,
    /// Acknowledged commands per second with the idle herd attached.
    pub cmds_per_sec: f64,
}

impl ConnScalePoint {
    fn validate(&self) -> Result<(), String> {
        if self.active == 0 || self.connections < self.active {
            return Err(format!(
                "connections {} must cover active {}",
                self.connections, self.active
            ));
        }
        if self.commands_total == 0 {
            return Err("no commands were acknowledged".into());
        }
        if !(self.elapsed_ms.is_finite() && self.elapsed_ms > 0.0) {
            return Err("elapsed_ms must be positive and finite".into());
        }
        let implied = self.commands_total as f64 / (self.elapsed_ms / 1000.0);
        if !(self.cmds_per_sec.is_finite()
            && self.cmds_per_sec > 0.0
            && (implied - self.cmds_per_sec).abs() / implied < 0.05)
        {
            return Err(format!(
                "cmds_per_sec {:.0} disagrees with commands/elapsed {:.0}",
                self.cmds_per_sec, implied
            ));
        }
        Ok(())
    }

    fn to_json_line(&self) -> String {
        format!(
            "    {{ \"connections\": {}, \"active\": {}, \
             \"commands_total\": {}, \"elapsed_ms\": {:.2}, \"cmds_per_sec\": {:.1} }}",
            self.connections, self.active, self.commands_total, self.elapsed_ms, self.cmds_per_sec
        )
    }
}

/// One run plus the recovery curve and the connection-scaling axis —
/// what `riot-serve bench --suite` writes to `BENCH_serve.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSuite {
    /// Suite schema tag, always `riot-serve-bench-suite/3`.
    pub schema: String,
    /// The load driven through a private server.
    pub run: BenchReport,
    /// Recovery timings across growing histories; `snapshot_ms` should
    /// stay flat while `full_replay_ms` grows.
    pub recovery: Vec<RecoveryPoint>,
    /// Throughput while holding growing herds of mostly-idle
    /// connections: a connection plane that degrades while merely
    /// holding sockets shows up as a cliff along the axis.
    pub conn_scaling: Vec<ConnScalePoint>,
}

impl BenchSuite {
    /// Validates the embedded report, the recovery curve's shape
    /// (non-empty, histories increasing, positive timings), and the
    /// connection-scaling axis (non-empty, consistent points,
    /// connections increasing).
    ///
    /// # Errors
    ///
    /// A description of the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != "riot-serve-bench-suite/3" {
            return Err(format!("bad suite schema tag `{}`", self.schema));
        }
        self.run.validate().map_err(|e| format!("run: {e}"))?;
        if self.recovery.is_empty() {
            return Err("recovery curve is empty".into());
        }
        for pair in self.recovery.windows(2) {
            if pair[1].history <= pair[0].history {
                return Err("recovery histories must be strictly increasing".into());
            }
        }
        for p in &self.recovery {
            if !(p.full_replay_ms.is_finite()
                && p.full_replay_ms > 0.0
                && p.snapshot_ms.is_finite()
                && p.snapshot_ms > 0.0)
            {
                return Err(format!("history {}: non-positive timing", p.history));
            }
        }
        if self.conn_scaling.is_empty() {
            return Err("connection-scaling axis is empty".into());
        }
        for p in &self.conn_scaling {
            p.validate()
                .map_err(|e| format!("conn_scaling [@{}]: {e}", p.connections))?;
        }
        for pair in self.conn_scaling.windows(2) {
            if pair[1].connections <= pair[0].connections {
                return Err("scaling connections must be strictly increasing".into());
            }
        }
        Ok(())
    }

    /// The suite as pretty-printed JSON (`riot-serve-bench-suite/3`).
    pub fn to_json(&self) -> String {
        let indent = |block: &str| -> String {
            block
                .trim_end()
                .lines()
                .enumerate()
                .map(|(i, l)| {
                    if i == 0 {
                        l.to_owned()
                    } else {
                        format!("  {l}")
                    }
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let points = self
            .recovery
            .iter()
            .map(|p| {
                format!(
                    "    {{ \"history\": {}, \"full_replay_ms\": {:.2}, \
                     \"snapshot_ms\": {:.2}, \"tail_records\": {} }}",
                    p.history, p.full_replay_ms, p.snapshot_ms, p.tail_records
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let scaling = self
            .conn_scaling
            .iter()
            .map(ConnScalePoint::to_json_line)
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"run\": {},\n  \
             \"recovery\": [\n{}\n  ],\n  \"conn_scaling\": [\n{}\n  ]\n}}\n",
            self.schema,
            indent(&self.run.to_json()),
            points,
            scaling
        )
    }
}

/// One worker's tally.
struct SessionRun {
    latencies_us: Vec<u64>,
    acked: usize,
    busy_retries: usize,
}

/// The command mix: a growing row of gates, nudged into place — the
/// same create/translate traffic an interactive RIOT composition
/// session produces.
fn command_line(i: usize) -> String {
    if i.is_multiple_of(2) {
        format!("create nand2 G{}", i / 2)
    } else {
        format!("translate G{} {} 0", i / 2, 4000 * (i / 2 + 1))
    }
}

/// Reads the server's `serve.wal.fsyncs` counter over the `telemetry`
/// wire verb. Works the same against a spawned or a remote server; on
/// a shared remote server other tenants' fsyncs pollute the delta,
/// which is why CI benches against a private spawned server.
fn wal_fsyncs(addr: &BoundAddr) -> Result<u64, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("telemetry connect: {e}"))?;
    let text = c
        .telemetry(TelemetryFormat::Json)
        .map_err(|e| format!("telemetry verb: {e}"))?;
    let snap = riot_trace::Snapshot::parse(&text).map_err(|e| format!("telemetry parse: {e}"))?;
    Ok(snap
        .counters
        .iter()
        .find(|(name, _)| name == "serve.wal.fsyncs")
        .map_or(0, |(_, v)| *v))
}

/// Drives one session over one connection with windowed pipelining.
///
/// Dependency-aware: `translate G{n}` is only eligible to send once
/// `create nand2 G{n}` is acknowledged, so a `busy` retry (which puts
/// a command behind later sends in the server's queue) can never
/// reorder a translate ahead of its create. Commands on *different*
/// gates commute, so any interleaving of eligible commands reaches the
/// same session state.
fn drive_session(addr: &BoundAddr, session: &str, cfg: &BenchConfig) -> Result<SessionRun, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.open(session, "TOP").map_err(|e| format!("open: {e}"))?;
    let mut run = SessionRun {
        latencies_us: Vec::with_capacity(cfg.commands),
        acked: 0,
        busy_retries: 0,
    };
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    // Every create is eligible immediately; each translate becomes
    // eligible when its create is acknowledged.
    let mut ready: VecDeque<usize> = (0..cfg.commands).filter(|i| i.is_multiple_of(2)).collect();
    // After a `busy`, stop refilling until the window drains to this
    // level — hammering a full inbox just buys more busy replies.
    let mut cooldown: Option<usize> = None;
    while run.acked < cfg.commands {
        if cooldown.is_some_and(|n| in_flight.len() <= n) {
            cooldown = None;
        }
        // Fill the window from the eligible queue.
        while cooldown.is_none() && in_flight.len() < cfg.window.max(1) {
            let Some(i) = ready.pop_front() else { break };
            let id = c
                .send(RequestBody::Cmd {
                    session: session.to_owned(),
                    line: command_line(i),
                })
                .map_err(|e| format!("send: {e}"))?;
            in_flight.insert(id, (i, Instant::now()));
        }
        if in_flight.is_empty() {
            return Err("pipeline stalled: nothing in flight, nothing eligible".into());
        }
        // Drain one reply.
        let Reply { id, body } = c.recv().map_err(|e| format!("recv: {e}"))?;
        let Some((cmd_index, sent)) = in_flight.remove(&id) else {
            return Err(format!("reply id {id} answers nothing in flight"));
        };
        match body {
            ReplyBody::Ok(_) => {
                run.latencies_us
                    .push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
                run.acked += 1;
                // The gate exists now: its translate may fly.
                if cmd_index.is_multiple_of(2) && cmd_index + 1 < cfg.commands {
                    ready.push_back(cmd_index + 1);
                }
            }
            ReplyBody::Busy => {
                // Backpressure: the command goes back to the front of
                // the eligible queue, and half the window drains
                // before we refill.
                run.busy_retries += 1;
                ready.push_front(cmd_index);
                cooldown = Some(in_flight.len() / 2);
            }
            ReplyBody::Err(m) => return Err(format!("command {cmd_index}: {m}")),
        }
    }
    // Close politely: the inbox may still be full of other sessions'
    // traffic, so `busy` here just means try again in a moment.
    for _ in 0..1000 {
        match c.close_session(session) {
            Err(e) if e == "busy" => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("close: {e}")),
            Ok(_) => return Ok(run),
        }
    }
    Err("close: busy after 1000 retries".into())
}

/// Runs the bench against a live server and returns a **validated**
/// report.
///
/// # Errors
///
/// Transport/protocol failures, lost or misordered replies, or a
/// report that fails its own schema check.
pub fn run_bench(addr: &BoundAddr, cfg: &BenchConfig) -> Result<BenchReport, String> {
    let fsyncs_before = wal_fsyncs(addr)?;
    let started = Instant::now();
    let runs: Vec<Result<SessionRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|s| {
                let session = format!("bench-{s}");
                let addr = addr.clone();
                scope.spawn(move || drive_session(&addr, &session, cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("worker panicked".into())))
            .collect()
    });
    let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
    let fsyncs_total = wal_fsyncs(addr)?.saturating_sub(fsyncs_before);

    let mut latencies: Vec<u64> = Vec::new();
    let mut acked = 0usize;
    let mut busy_retries = 0usize;
    for run in runs {
        let run = run?;
        latencies.extend_from_slice(&run.latencies_us);
        acked += run.acked;
        busy_retries += run.busy_retries;
    }
    latencies.sort_unstable();
    let pct = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    let report = BenchReport {
        schema: "riot-serve-bench/3".to_owned(),
        sessions: cfg.sessions,
        commands_total: acked,
        window: cfg.window,
        elapsed_ms,
        cmds_per_sec: acked as f64 / (elapsed_ms / 1000.0),
        fsyncs_total,
        fsyncs_per_cmd: fsyncs_total as f64 / acked.max(1) as f64,
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        busy_retries,
    };
    report.validate()?;
    Ok(report)
}

/// Spawns a private Unix-socket server in a fresh temp directory.
fn spawn_server(
    tag: &str,
    snapshot_every: usize,
) -> Result<(crate::server::ServerHandle, PathBuf), String> {
    let dir = std::env::temp_dir().join(format!("riot-serve-suite-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut cfg = ServeConfig::new(dir.join("wal"));
    cfg.snapshot_every = snapshot_every;
    let handle = Server::start(cfg, &Bind::Unix(dir.join("bench.sock")))
        .map_err(|e| format!("cannot spawn {tag} server: {e}"))?;
    Ok((handle, dir))
}

/// One connection-scaling point: holds `connections` open clients
/// against a private server, keeps all but `cfg.sessions` of them
/// idle, and measures command throughput through the active ones. The idle herd is what the point is really measuring — a
/// connection plane that degrades while merely *holding* sockets shows
/// up as a throughput cliff along the axis.
///
/// # Errors
///
/// Server spawn, connect, or drive failures, or an internally
/// inconsistent point.
pub fn run_conn_point(
    connections: usize,
    cfg: &BenchConfig,
    snapshot_every: usize,
) -> Result<ConnScalePoint, String> {
    let active = cfg.sessions.max(1);
    if connections < active {
        return Err(format!(
            "{connections} connections cannot cover {active} active sessions"
        ));
    }
    let tag = format!("conns-{connections}");
    let (handle, dir) = spawn_server(&tag, snapshot_every)?;
    let addr = handle.addr();
    let run = (|| -> Result<ConnScalePoint, String> {
        let mut idle = Vec::with_capacity(connections - active);
        for i in 0..connections - active {
            idle.push(
                Client::connect(&addr)
                    .map_err(|e| format!("idle connect {i}/{connections}: {e}"))?,
            );
        }
        let started = Instant::now();
        let runs: Vec<Result<SessionRun, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..active)
                .map(|s| {
                    let session = format!("scale-{s}");
                    let addr = addr.clone();
                    scope.spawn(move || drive_session(&addr, &session, cfg))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("worker panicked".into())))
                .collect()
        });
        let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
        drop(idle);
        let mut acked = 0usize;
        for run in runs {
            acked += run?.acked;
        }
        let point = ConnScalePoint {
            connections,
            active,
            commands_total: acked,
            elapsed_ms,
            cmds_per_sec: acked as f64 / (elapsed_ms / 1000.0),
        };
        point.validate()?;
        Ok(point)
    })();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    run.map_err(|e| format!("{tag}: {e}"))
}

/// Runs the connection-scaling axis: one point per count in `scales`.
///
/// # Errors
///
/// The first failing point.
pub fn run_conn_scaling(
    scales: &[usize],
    load: &BenchConfig,
    snapshot_every: usize,
) -> Result<Vec<ConnScalePoint>, String> {
    scales
        .iter()
        .map(|&n| run_conn_point(n, load, snapshot_every))
        .collect()
}

/// Applies `range` of the bench command mix directly to a session
/// entry (resume, execute, suspend, one flush) — the recovery bench's
/// way of building WAL history without a server in the way.
fn apply_lines(entry: &mut SessionEntry, range: std::ops::Range<usize>) -> Result<(), String> {
    let cp = entry.cp.take().ok_or("session has no checkpoint")?;
    let mut ed = Editor::resume(&mut entry.lib, cp).map_err(|e| format!("resume: {e}"))?;
    for i in range {
        execute_line(&mut ed, &command_line(i)).map_err(|e| format!("command {i}: {e}"))?;
    }
    entry.cp = Some(ed.suspend());
    entry.sync_all().map_err(|e| format!("flush: {e}"))
}

/// Times session recovery with and without a snapshot at each history
/// length in `histories`. Each point builds a session with `history`
/// commands, times a full-history recovery (no snapshot on disk), then
/// cuts a snapshot, appends `tail` more commands, and times the
/// snapshot + tail recovery. `snapshot_ms` staying flat while
/// `full_replay_ms` grows is the O(snapshot + tail) claim, measured.
///
/// # Errors
///
/// I/O or replay failures while building or recovering the sessions.
pub fn run_recovery_bench(histories: &[usize], tail: usize) -> Result<Vec<RecoveryPoint>, String> {
    let faults = ServeFaults::none();
    let mut points = Vec::new();
    for (k, &history) in histories.iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("riot-recov-{k}-{history}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;

        let mut entry = SessionEntry::create(&dir, "rec", "TOP", standard_library())?;
        apply_lines(&mut entry, 0..history)?;
        drop(entry);

        // No snapshot on disk yet: this is the full-history replay.
        let t = Instant::now();
        let (mut entry, _) = SessionEntry::recover(&dir, "rec", standard_library())?;
        let full_replay_ms = t.elapsed().as_secs_f64() * 1000.0;

        // Snapshot, compact, extend by `tail`, recover again.
        if !entry.snapshot_now(&dir, &faults) {
            return Err(format!("history {history}: snapshot refused"));
        }
        apply_lines(&mut entry, history..history + tail)?;
        drop(entry);
        let t = Instant::now();
        let (entry, _) = SessionEntry::recover(&dir, "rec", standard_library())?;
        let snapshot_ms = t.elapsed().as_secs_f64() * 1000.0;
        drop(entry);

        let _ = std::fs::remove_dir_all(&dir);
        points.push(RecoveryPoint {
            history,
            full_replay_ms,
            snapshot_ms,
            tail_records: tail,
        });
    }
    Ok(points)
}

/// Runs the full suite: the load against a private spawned server,
/// the recovery curve, and the connection-scaling axis
/// ([`run_conn_scaling`] over `conn_scales`). Returns a **validated**
/// [`BenchSuite`].
///
/// # Errors
///
/// Server spawn failures, bench, recovery or scaling bench failures,
/// or a suite that fails its own consistency check.
pub fn run_suite(
    load: &BenchConfig,
    snapshot_every: usize,
    histories: &[usize],
    tail: usize,
    conn_scales: &[usize],
) -> Result<BenchSuite, String> {
    let (handle, dir) = spawn_server("run", snapshot_every)?;
    let run = run_bench(&handle.addr(), load);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    let suite = BenchSuite {
        schema: "riot-serve-bench-suite/3".to_owned(),
        run: run?,
        recovery: run_recovery_bench(histories, tail)?,
        conn_scaling: run_conn_scaling(conn_scales, load, snapshot_every)?,
    };
    suite.validate()?;
    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            schema: "riot-serve-bench/3".into(),
            sessions: 4,
            commands_total: 200,
            window: 16,
            elapsed_ms: 20.0,
            cmds_per_sec: 10_000.0,
            fsyncs_total: 50,
            fsyncs_per_cmd: 0.25,
            p50_us: 50,
            p95_us: 200,
            p99_us: 400,
            busy_retries: 0,
        }
    }

    #[test]
    fn valid_report_passes_and_serializes() {
        let r = sample();
        r.validate().unwrap();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"riot-serve-bench/3\""));
        assert!(json.contains("\"cmds_per_sec\": 10000.0"));
        assert!(json.contains("\"fsyncs_total\": 50"));
        assert!(json.contains("\"fsyncs_per_cmd\": 0.2500"));
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut r = sample();
        r.schema = "wat/9".into();
        assert!(r.validate().is_err());

        let mut r = sample();
        r.commands_total = 199; // not divisible by sessions: lost reply
        assert!(r.validate().is_err());

        let mut r = sample();
        r.p95_us = 10_000; // above p99
        assert!(r.validate().is_err());

        let mut r = sample();
        r.cmds_per_sec = 123.0; // disagrees with commands/elapsed
        assert!(r.validate().is_err());

        let mut r = sample();
        r.fsyncs_per_cmd = 0.9; // disagrees with fsyncs/commands
        assert!(r.validate().is_err());
    }

    fn scale_point(connections: usize) -> ConnScalePoint {
        ConnScalePoint {
            connections,
            active: 4,
            commands_total: 400,
            elapsed_ms: 40.0,
            cmds_per_sec: 10_000.0,
        }
    }

    fn sample_suite() -> BenchSuite {
        BenchSuite {
            schema: "riot-serve-bench-suite/3".into(),
            run: sample(),
            recovery: vec![
                RecoveryPoint {
                    history: 500,
                    full_replay_ms: 5.0,
                    snapshot_ms: 1.0,
                    tail_records: 64,
                },
                RecoveryPoint {
                    history: 2000,
                    full_replay_ms: 20.0,
                    snapshot_ms: 1.1,
                    tail_records: 64,
                },
            ],
            conn_scaling: vec![scale_point(64), scale_point(1024)],
        }
    }

    #[test]
    fn suite_validation_checks_the_run_and_curve() {
        let suite = sample_suite();
        suite.validate().unwrap();
        let json = suite.to_json();
        assert!(json.contains("\"schema\": \"riot-serve-bench-suite/3\""));
        assert!(json.contains("\"run\": {"));
        assert!(json.contains("\"history\": 2000"));
        assert!(json.contains("{ \"connections\": 1024"));

        let mut bad = suite.clone();
        bad.run.schema = "riot-serve-bench/2".into();
        assert!(bad.validate().unwrap_err().contains("run"));

        let mut bad = suite.clone();
        bad.recovery.clear();
        assert!(bad.validate().is_err());

        let mut bad = suite;
        bad.recovery[1].history = 500; // not increasing
        assert!(bad.validate().is_err());
    }

    #[test]
    fn suite_validation_checks_the_scaling_axis() {
        let mut bad = sample_suite();
        bad.conn_scaling.clear();
        assert!(bad.validate().unwrap_err().contains("scaling axis"));

        let mut bad = sample_suite();
        bad.conn_scaling[1].connections = 64; // not increasing
        assert!(bad.validate().is_err());

        let mut bad = sample_suite();
        bad.conn_scaling[0].active = 0;
        assert!(bad.validate().is_err());

        let mut bad = sample_suite();
        bad.conn_scaling[0].cmds_per_sec = 1.0; // disagrees with commands/elapsed
        assert!(bad.validate().is_err());
    }

    #[test]
    fn conn_scaling_measures_a_real_herd() {
        let cfg = BenchConfig {
            sessions: 2,
            commands: 40,
            window: 8,
        };
        let point = run_conn_point(16, &cfg, 0).unwrap();
        assert_eq!(point.connections, 16);
        assert_eq!(point.active, 2);
        assert_eq!(point.commands_total, 80);
    }

    #[test]
    fn recovery_bench_measures_real_sessions() {
        let points = run_recovery_bench(&[20], 6).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].history, 20);
        assert_eq!(points[0].tail_records, 6);
        assert!(points[0].full_replay_ms > 0.0 && points[0].snapshot_ms > 0.0);
    }

    #[test]
    fn command_mix_alternates_create_translate() {
        assert_eq!(command_line(0), "create nand2 G0");
        assert_eq!(command_line(1), "translate G0 4000 0");
        assert_eq!(command_line(2), "create nand2 G1");
    }
}
