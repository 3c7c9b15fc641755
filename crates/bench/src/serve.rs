//! `riot-bench serve`: durable command throughput through `riot-serve`.
//!
//! With `--socket PATH` or `--addr HOST:PORT` it drives that server and
//! reports one run. With neither it runs the suite against private
//! Unix-socket servers: one run, the recovery curve and the connection
//! axis.
//!
//! A run opens `--sessions` connections, one session each, and pushes
//! `--commands` commands through each with `--window` requests in
//! flight. It reports the acknowledged commands, wall time, latency
//! percentiles, `busy` retries, and the WAL fsyncs the run bought: the
//! delta of the server's `serve.wal.fsyncs` counter, read over the
//! `telemetry` verb (on a shared server other tenants' fsyncs land in
//! the delta too).
//!
//! The recovery curve times session recovery with and without a
//! snapshot at growing history lengths (`recovery.N.full_replay_ns`,
//! `recovery.N.snapshot_ns`): snapshot recovery should stay flat while
//! full replay grows. The connection axis (`conns.N.*`) measures the
//! same load while N mostly idle connections are held open: a
//! connection plane that degrades while merely holding sockets shows up
//! as a cliff along it.

use crate::harness::{timed, write, Flags, Report};
use riot::serve::session::execute_line;
use riot::serve::{
    standard_library, Bind, BoundAddr, Client, Reply, ReplyBody, RequestBody, ServeConfig,
    ServeFaults, Server, SessionEntry, TelemetryFormat,
};
use riot::trace::export::fmt_ns;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// The flags `serve` accepts.
pub const FLAGS: &[&str] = &[
    "--addr",
    "--socket",
    "--sessions",
    "--commands",
    "--window",
    "--conn-scale",
    "--out",
];

/// The recovery curve's history lengths.
const HISTORIES: [usize; 3] = [500, 2000, 8000];

/// Commands appended after each recovery snapshot.
const TAIL: usize = 64;

/// How much load a run drives: `sessions` connections, one session
/// each, `commands` per session, `window` requests in flight.
#[derive(Debug, Clone, Copy)]
struct Load {
    sessions: usize,
    commands: usize,
    window: usize,
}

/// What one run of the load measured: acknowledged commands, wall
/// time, sorted request latencies, and `busy` replies absorbed by
/// retrying.
#[derive(Debug, Default)]
struct Tally {
    acked: usize,
    elapsed_ns: u64,
    latencies_ns: Vec<u64>,
    busy_retries: usize,
}

/// The command mix: a growing row of gates, each nudged into place,
/// the create/translate traffic of an interactive composition session.
fn command_line(i: usize) -> String {
    if i.is_multiple_of(2) {
        format!("create nand2 G{}", i / 2)
    } else {
        format!("translate G{} {} 0", i / 2, 4000 * (i / 2 + 1))
    }
}

/// Reads the server's `serve.wal.fsyncs` counter over the `telemetry`
/// verb.
fn wal_fsyncs(addr: &BoundAddr) -> Result<u64, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("telemetry connect: {e}"))?;
    let text = c
        .telemetry(TelemetryFormat::Json)
        .map_err(|e| format!("telemetry verb: {e}"))?;
    let snap = riot::trace::Snapshot::parse(&text).map_err(|e| format!("telemetry parse: {e}"))?;
    Ok(snap
        .counters
        .iter()
        .find(|(name, _)| name == "serve.wal.fsyncs")
        .map_or(0, |(_, v)| *v))
}

/// Drives one session over one connection with a pipelined window.
///
/// Dependency-aware: `translate G{n}` is only sent once `create nand2
/// G{n}` is acknowledged, so a `busy` retry (which puts a command behind
/// later sends in the server's queue) can never reorder a translate
/// ahead of its create. Commands on different gates commute, so any
/// interleaving of eligible commands reaches the same session state.
fn drive_session(addr: &BoundAddr, session: &str, load: Load) -> Result<Tally, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.open(session, "TOP").map_err(|e| format!("open: {e}"))?;
    let mut tally = Tally::default();
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    // Every create is eligible at once; each translate when its create
    // is acknowledged.
    let mut ready: VecDeque<usize> = (0..load.commands).step_by(2).collect();
    // After a `busy`, stop refilling until the window drains to this
    // level: hammering a full inbox only buys more busy replies.
    let mut cooldown: Option<usize> = None;
    while tally.acked < load.commands {
        if cooldown.is_some_and(|n| in_flight.len() <= n) {
            cooldown = None;
        }
        while cooldown.is_none() && in_flight.len() < load.window.max(1) {
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
        let Reply { id, body } = c.recv().map_err(|e| format!("recv: {e}"))?;
        let Some((i, sent)) = in_flight.remove(&id) else {
            return Err(format!("reply id {id} answers nothing in flight"));
        };
        match body {
            ReplyBody::Ok(_) => {
                let ns = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
                tally.latencies_ns.push(ns);
                tally.acked += 1;
                if i.is_multiple_of(2) && i + 1 < load.commands {
                    ready.push_back(i + 1);
                }
            }
            ReplyBody::Busy => {
                // Back to the front of the queue; half the window drains
                // before the next refill.
                tally.busy_retries += 1;
                ready.push_front(i);
                cooldown = Some(in_flight.len() / 2);
            }
            ReplyBody::Err(m) => return Err(format!("command {i}: {m}")),
        }
    }
    // The inbox may still hold other sessions' traffic, so `busy` on
    // close only means try again shortly.
    for _ in 0..1000 {
        match c.close_session(session) {
            Err(e) if e == "busy" => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("close: {e}")),
            Ok(_) => return Ok(tally),
        }
    }
    Err("close: busy after 1000 retries".into())
}

/// Drives `load` through the server at `addr`, sessions named
/// `{prefix}-0`, `{prefix}-1`, …, one thread each.
fn drive(addr: &BoundAddr, prefix: &str, load: Load) -> Result<Tally, String> {
    let (elapsed_ns, runs) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..load.sessions)
                .map(|s| {
                    let session = format!("{prefix}-{s}");
                    scope.spawn(move || drive_session(addr, &session, load))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("worker panicked".into())))
                .collect::<Vec<_>>()
        })
    });
    let mut total = Tally {
        elapsed_ns,
        ..Tally::default()
    };
    for run in runs {
        let run = run?;
        total.acked += run.acked;
        total.busy_retries += run.busy_retries;
        total.latencies_ns.extend(run.latencies_ns);
    }
    total.latencies_ns.sort_unstable();
    Ok(total)
}

/// Drives one run at `addr` and records it in `r`.
fn measure_run(addr: &BoundAddr, load: Load, r: &mut Report) -> Result<(), String> {
    let before = wal_fsyncs(addr)?;
    let tally = drive(addr, "bench", load)?;
    let fsyncs = wal_fsyncs(addr)?.saturating_sub(before);
    let pct = |q: f64| {
        let n = tally.latencies_ns.len();
        let idx = ((n.saturating_sub(1)) as f64 * q).round() as usize;
        tally.latencies_ns.get(idx).copied().unwrap_or(0)
    };
    r.set("commands_total", tally.acked as u64);
    r.set("elapsed_ns", tally.elapsed_ns);
    r.set("fsyncs_total", fsyncs);
    r.set("p50_ns", pct(0.50));
    r.set("p95_ns", pct(0.95));
    r.set("p99_ns", pct(0.99));
    r.set("busy_retries", tally.busy_retries as u64);
    Ok(())
}

/// Runs `f` against a private Unix-socket server in a fresh temp
/// directory, then drains the server and removes the directory.
fn with_server<T>(tag: &str, f: impl FnOnce(&BoundAddr) -> Result<T, String>) -> Result<T, String> {
    let dir = std::env::temp_dir().join(format!("riot-bench-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let handle = Server::start(
        ServeConfig::new(dir.join("wal")),
        &Bind::Unix(dir.join("bench.sock")),
    )
    .map_err(|e| format!("cannot start the {tag} server: {e}"))?;
    let out = f(&handle.addr());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    out.map_err(|e| format!("{tag}: {e}"))
}

/// One connection-axis point: holds `connections` open clients on a
/// private server, all but `load.sessions` of them idle, and drives the
/// load through the rest.
fn run_conn_point(connections: usize, load: Load) -> Result<Tally, String> {
    let idle = connections.checked_sub(load.sessions).ok_or_else(|| {
        format!(
            "{connections} connections cannot cover {} sessions",
            load.sessions
        )
    })?;
    with_server(&format!("conns-{connections}"), |addr| {
        let herd = (0..idle)
            .map(|i| Client::connect(addr).map_err(|e| format!("idle connect {i}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let tally = drive(addr, "scale", load);
        drop(herd);
        tally
    })
}

/// Builds WAL history by applying `range` of the command mix directly
/// to a session's editor, then one flush.
fn apply_lines(entry: &mut SessionEntry, range: std::ops::Range<usize>) -> Result<(), String> {
    for i in range {
        execute_line(entry.editor_mut(), &command_line(i))
            .map_err(|e| format!("command {i}: {e}"))?;
    }
    entry.sync_all().map_err(|e| format!("flush: {e}"))
}

/// Times session recovery at each of `histories`: a full-history
/// replay with no snapshot on disk, then, after a snapshot and `tail`
/// more commands, the snapshot + tail recovery. Returns `(history,
/// full_replay_ns, snapshot_ns)` per point.
fn run_recovery_bench(histories: &[usize], tail: usize) -> Result<Vec<(usize, u64, u64)>, String> {
    let mut points = Vec::new();
    for &history in histories {
        let dir = std::env::temp_dir().join(format!(
            "riot-bench-recovery-{history}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut entry = SessionEntry::create(&dir, "rec", "TOP", standard_library())?;
        apply_lines(&mut entry, 0..history)?;
        drop(entry);
        let (full_ns, recovered) = timed(|| SessionEntry::recover(&dir, "rec", standard_library()));
        let (mut entry, _) = recovered?;
        if !entry.snapshot_now(&dir, &ServeFaults::none()) {
            return Err(format!("history {history}: snapshot refused"));
        }
        apply_lines(&mut entry, history..history + tail)?;
        drop(entry);
        let (snapshot_ns, recovered) =
            timed(|| SessionEntry::recover(&dir, "rec", standard_library()));
        drop(recovered?);
        let _ = std::fs::remove_dir_all(&dir);
        points.push((history, full_ns, snapshot_ns));
    }
    Ok(points)
}

/// Measures, checks and writes the serve report.
///
/// # Errors
///
/// A bad flag, a run, recovery or axis failure, a failed check, or the
/// write.
pub fn run(flags: &Flags) -> Result<(), String> {
    let load = Load {
        sessions: flags.num("--sessions", 4)?,
        commands: flags.num("--commands", 1000)?,
        window: flags.num("--window", 32)?,
    };
    let target = match (flags.text("--socket"), flags.text("--addr")) {
        (Some(path), _) => Some(BoundAddr::Unix(path.into())),
        (None, Some(a)) => Some(BoundAddr::Tcp(
            a.parse().map_err(|_| "`--addr` wants HOST:PORT")?,
        )),
        (None, None) => None,
    };
    let mut r = Report::new(
        "serve",
        &[
            ("sessions", load.sessions),
            ("commands", load.commands),
            ("window", load.window),
        ],
    );
    if let Some(addr) = target {
        if flags.text("--conn-scale").is_some() {
            return Err("`--conn-scale` belongs to the suite, which starts its own servers".into());
        }
        measure_run(&addr, load, &mut r)?;
    } else {
        with_server("run", |addr| measure_run(addr, load, &mut r))?;
        r.params.insert("recovery_tail".into(), TAIL as u64);
        for (history, full_ns, snapshot_ns) in run_recovery_bench(&HISTORIES, TAIL)? {
            r.set(format!("recovery.{history}.full_replay_ns"), full_ns);
            r.set(format!("recovery.{history}.snapshot_ns"), snapshot_ns);
        }
        for n in flags.list("--conn-scale", &[64, 256, 1024])? {
            let tally = run_conn_point(n, load)?;
            r.set(format!("conns.{n}.commands_total"), tally.acked as u64);
            r.set(format!("conns.{n}.elapsed_ns"), tally.elapsed_ns);
        }
    }
    let (total, elapsed) = (r.get("commands_total")?, r.get("elapsed_ns")?);
    eprintln!(
        "serve: {total} commands in {} ({:.0} cmds/s), {:.4} fsyncs/cmd, p99 {}, {} busy retries",
        fmt_ns(elapsed),
        total as f64 * 1e9 / elapsed.max(1) as f64,
        r.get("fsyncs_total")? as f64 / total.max(1) as f64,
        fmt_ns(r.get("p99_ns")?),
        r.get("busy_retries")?,
    );
    for ((n, acked), (_, ns)) in r
        .axis("conns", "commands_total")
        .into_iter()
        .zip(r.axis("conns", "elapsed_ns"))
    {
        eprintln!(
            "  {n} connections: {:.0} cmds/s",
            acked as f64 * 1e9 / ns.max(1) as f64
        );
    }
    write(&r, flags)
}

/// The serve report's checks: every session acknowledged every
/// command, positive wall time and fsync count, ordered percentiles;
/// and a suite run carries a non-empty recovery curve with positive
/// timings and a connection axis whose points each hold at least the
/// sessions and acknowledged every command.
///
/// # Errors
///
/// The first check that fails.
pub fn check(r: &Report) -> Result<(), String> {
    let (sessions, commands) = (r.param("sessions")?, r.param("commands")?);
    r.param("window")?;
    let want = sessions.saturating_mul(commands);
    if want == 0 {
        return Err("sessions and commands must be positive".into());
    }
    let got = r.get("commands_total")?;
    if got != want {
        return Err(format!(
            "{got} commands acknowledged, not {sessions} × {commands}: lost replies"
        ));
    }
    r.positive("elapsed_ns")?;
    r.positive("fsyncs_total")?;
    r.get("busy_retries")?;
    let (p50, p95, p99) = (r.get("p50_ns")?, r.get("p95_ns")?, r.get("p99_ns")?);
    if !(p50 <= p95 && p95 <= p99) {
        return Err(format!(
            "percentiles out of order: p50 {p50} p95 {p95} p99 {p99}"
        ));
    }

    let full = r.axis("recovery", "full_replay_ns");
    let snap = r.axis("recovery", "snapshot_ns");
    let totals = r.axis("conns", "commands_total");
    let elapsed = r.axis("conns", "elapsed_ns");
    if full.is_empty() != totals.is_empty() {
        return Err("a suite run reports both the recovery curve and the connection axis".into());
    }
    let points = |axis: &[(u64, u64)]| axis.iter().map(|p| p.0).collect::<Vec<_>>();
    if points(&full) != points(&snap) || full.iter().chain(&snap).any(|p| p.1 == 0) {
        return Err("every recovery point needs positive full-replay and snapshot times".into());
    }
    if points(&totals) != points(&elapsed) || elapsed.iter().any(|p| p.1 == 0) {
        return Err("every connection point needs a positive elapsed time".into());
    }
    for (n, total) in totals {
        if n < sessions {
            return Err(format!("{n} connections cannot cover {sessions} sessions"));
        }
        if total != want {
            return Err(format!(
                "{n} connections: {total} commands acknowledged, not {want}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new(
            "serve",
            &[("sessions", 4), ("commands", 50), ("window", 16)],
        );
        for (name, v) in [
            ("commands_total", 200),
            ("elapsed_ns", 20_000_000),
            ("fsyncs_total", 50),
            ("p50_ns", 50_000),
            ("p95_ns", 200_000),
            ("p99_ns", 400_000),
            ("busy_retries", 0),
        ] {
            r.set(name, v);
        }
        r
    }

    fn sample_suite() -> Report {
        let mut r = sample();
        r.params.insert("recovery_tail".into(), 64);
        for (history, full, snap) in [(500, 5_000_000, 1_000_000), (2000, 20_000_000, 1_100_000)] {
            r.set(format!("recovery.{history}.full_replay_ns"), full);
            r.set(format!("recovery.{history}.snapshot_ns"), snap);
        }
        for n in [64, 1024] {
            r.set(format!("conns.{n}.commands_total"), 200);
            r.set(format!("conns.{n}.elapsed_ns"), 40_000_000);
        }
        r
    }

    #[test]
    fn valid_report_passes_and_serializes() {
        let r = sample();
        check(&r).unwrap();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"riot-bench/2\""));
        assert!(json.contains("\"fsyncs_total\": 50"));
        assert_eq!(Report::parse(&json).unwrap(), r);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let json = sample().to_json();
        assert!(Report::parse(&json.replace("riot-bench/2", "wat/9")).is_err());

        let mut r = sample();
        r.set("commands_total", 199); // a lost reply
        assert!(check(&r).is_err());

        let mut r = sample();
        r.set("p95_ns", 10_000_000); // above p99
        assert!(check(&r).is_err());

        let mut r = sample();
        r.set("fsyncs_total", 0); // acknowledged without a flush
        assert!(check(&r).is_err());

        let mut r = sample();
        r.metrics.remove("elapsed_ns");
        assert!(check(&r).is_err());

        let mut r = sample();
        r.params.insert("sessions".into(), u64::MAX); // no overflow panic
        assert!(check(&r).is_err());
    }

    #[test]
    fn suite_validation_checks_the_run_and_curve() {
        let suite = sample_suite();
        check(&suite).unwrap();
        assert!(suite
            .to_json()
            .contains("\"recovery.2000.snapshot_ns\": 1100000"));

        let mut bad = suite.clone();
        bad.set("commands_total", 100);
        assert!(check(&bad).is_err());

        let mut bad = suite.clone();
        bad.metrics.retain(|k, _| !k.starts_with("recovery."));
        assert!(check(&bad).unwrap_err().contains("recovery curve"));

        let mut bad = suite.clone();
        bad.set("recovery.500.snapshot_ns", 0);
        assert!(check(&bad).is_err());

        let mut bad = suite;
        bad.metrics.remove("recovery.2000.full_replay_ns");
        assert!(check(&bad).is_err());
    }

    #[test]
    fn suite_validation_checks_the_scaling_axis() {
        let mut bad = sample_suite();
        bad.metrics.retain(|k, _| !k.starts_with("conns."));
        assert!(check(&bad).unwrap_err().contains("connection axis"));

        let mut bad = sample_suite();
        bad.set("conns.2.commands_total", 200);
        bad.set("conns.2.elapsed_ns", 1);
        assert!(check(&bad).is_err()); // fewer connections than sessions

        let mut bad = sample_suite();
        bad.set("conns.64.commands_total", 120);
        assert!(check(&bad).is_err());

        let mut bad = sample_suite();
        bad.metrics.remove("conns.1024.elapsed_ns");
        assert!(check(&bad).is_err());
    }

    #[test]
    fn conn_scaling_measures_a_real_herd() {
        let load = Load {
            sessions: 2,
            commands: 40,
            window: 8,
        };
        let tally = run_conn_point(16, load).unwrap();
        assert_eq!(tally.acked, 80);
        assert_eq!(tally.latencies_ns.len(), 80);
        assert!(tally.elapsed_ns > 0);
        assert!(run_conn_point(1, load).is_err());
    }

    #[test]
    fn recovery_bench_measures_real_sessions() {
        let points = run_recovery_bench(&[20], 6).unwrap();
        assert_eq!(points.len(), 1);
        let (history, full_ns, snapshot_ns) = points[0];
        assert_eq!(history, 20);
        assert!(full_ns > 0 && snapshot_ns > 0);
    }

    #[test]
    fn command_mix_alternates_create_translate() {
        assert_eq!(command_line(0), "create nand2 G0");
        assert_eq!(command_line(1), "translate G0 4000 0");
        assert_eq!(command_line(2), "create nand2 G1");
    }
}
