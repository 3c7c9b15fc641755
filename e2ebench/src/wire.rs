//! The Fig 9 workloads: the logic journal replayed through a live
//! riot-serve, then verified.
//!
//! The server runs in this process ([`Server::start`], Unix socket, 2
//! workers, default config); the clients are [`CONNECTIONS`] threads
//! with one connection each. A run goes in rounds: every connection runs
//! one whole session at once — open, every journal command, close,
//! reopen, close — and then verify passes run over the reference build.

use crate::report::{Values, CORE_KINDS};
use crate::stats::{mean, median, percentile};
use crate::verify::{self, Expected, Pass};
use crate::workload::{WireSpec, CONNECTIONS, SAMPLERS, WORKERS};
use crate::{fig9, spans, Phase, Tally};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use riot::core::{command_to_line, parse_command_line, Editor, Library};
use riot::serve::session::{outcome_text, SessionEntry};
use riot::serve::{
    standard_library, Bind, Client, Reply, ReplyBody, RequestBody, ServeConfig, Server,
    ServerHandle, TelemetryFormat,
};
use riot::trace::{self, SpanRecord, TraceContext};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A traced run sends every this-many-th command with a trace context.
const TRACE_EVERY: usize = 8;

/// Verify passes get this much time for each second a round's sessions
/// took, so three fifths of a phase goes to the wire.
const VERIFY_PER_WIRE: f64 = 2.0 / 3.0;

/// The worker riot-serve hosts session `name` on: the server shards by
/// the std `DefaultHasher` of the name modulo the worker count. Mirrored
/// here only to pick session names, so that connection `c` always talks
/// to worker `c`: the seed changes the names, never the load balance,
/// which would otherwise swing throughput and memory from seed to seed.
fn worker_of(name: &str) -> usize {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() % WORKERS as u64) as usize
}

/// The reference execution: the journal applied in-process through
/// `Editor::execute`, one command at a time.
pub struct Reference {
    /// `outcome_text` of each command after the `edit` head.
    pub outcomes: Vec<String>,
    /// Engine time of each command after the head, in nanoseconds.
    pub exec_ns: Vec<u64>,
    /// The library holding the finished cell.
    pub lib: Library,
}

fn kind(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or("")
}

fn kind_span(kind: &str) -> &'static str {
    match kind {
        "create" => "bench.core.create",
        "translate" => "bench.core.translate",
        "connect" => "bench.core.connect",
        "clearpend" => "bench.core.clearpend",
        "abut" => "bench.core.abut",
        "route" => "bench.core.route",
        "stretch" => "bench.core.stretch",
        "replicate" => "bench.core.replicate",
        "bringout" => "bench.core.bringout",
        "finish" => "bench.core.finish",
        _ => "bench.core.other",
    }
}

/// Replays `lines` (an `edit` head, then commands) into a fresh
/// [`standard_library`], timing each `Editor::execute`.
///
/// # Errors
///
/// A command the engine rejects, or a journal that does not come back
/// line for line.
pub fn replay(lines: &[String], cell: &str) -> Result<Reference, String> {
    let _root = spans::root("bench.core.replay");
    let mut lib = standard_library();
    let mut outcomes = Vec::with_capacity(lines.len());
    let mut exec_ns = Vec::with_capacity(lines.len());
    {
        let mut ed = Editor::open(&mut lib, cell).map_err(|e| format!("reference open: {e}"))?;
        for (i, line) in lines.iter().enumerate().skip(1) {
            let cmd = parse_command_line(line, i).map_err(|e| format!("journal line {i}: {e}"))?;
            let _s = trace::span(kind_span(kind(line)));
            let t = Instant::now();
            let out = ed
                .execute(cmd)
                .map_err(|e| format!("reference `{line}`: {e}"))?;
            exec_ns.push(t.elapsed().as_nanos() as u64);
            outcomes.push(outcome_text(&out));
            if i.is_multiple_of(1024) {
                spans::drain();
            }
        }
        let journaled: Vec<String> = ed
            .journal()
            .commands()
            .iter()
            .map(command_to_line)
            .collect();
        if journaled != lines {
            return Err("the reference replay journaled a different journal".to_owned());
        }
    }
    Ok(Reference {
        outcomes,
        exec_ns,
        lib,
    })
}

/// The `core.*` rows of `reference`, timed over `lines`.
fn core_values(lines: &[String], reference: &Reference, values: &mut Values) {
    let mut by_kind: HashMap<&str, Vec<f64>> = HashMap::new();
    for (line, &ns) in lines[1..].iter().zip(&reference.exec_ns) {
        by_kind.entry(kind(line)).or_default().push(ns as f64);
    }
    for k in CORE_KINDS {
        let ns = by_kind.remove(k).unwrap_or_default();
        values.insert(format!("core.{k}.p50_us"), percentile(&ns, 0.5) / 1e3);
        let total_ns = ns.iter().fold(0.0, |a, b| a + b);
        values.insert(format!("core.{k}.total_ms"), total_ns / 1e6);
    }
    let total: u64 = reference.exec_ns.iter().sum();
    values.insert("core.replay_ms".into(), total as f64 / 1e6);
    values.insert(
        "core.us_per_cmd".into(),
        total as f64 / 1e3 / reference.exec_ns.len().max(1) as f64,
    );
}

/// Everything one connection's thread needs, shared read-only.
struct Job<'a> {
    cell: &'a str,
    lines: &'a [String],
    outcomes: &'a [String],
    exec_ns: &'a [u64],
    window: usize,
    traced: bool,
}

/// What one connection did in one session.
#[derive(Default)]
struct ConnRun {
    rtt_ns: Vec<f64>,
    overhead_ns: Vec<f64>,
    reopen_ns: Option<f64>,
    /// `(trace id, RTT ns)` of each command sent with a trace context.
    traced: Vec<(u64, f64)>,
    acked: u64,
    /// Time spent streaming commands: the first send to the last reply.
    stream: Duration,
    busy: u64,
    tally: Tally,
}

/// Sends one request and checks its reply against `want`.
fn call(
    client: &mut Client,
    body: RequestBody,
    run: &mut ConnRun,
    want: impl Fn(&str) -> bool,
) -> Result<Duration, String> {
    let t = Instant::now();
    run.tally.attempted += 1;
    let what = format!("{body:?}");
    let reply = client.request(body).map_err(|e| format!("{what}: {e}"))?;
    let rtt = t.elapsed();
    match reply.body {
        ReplyBody::Ok(d) if want(&d) => {}
        other => run
            .tally
            .fail(format!("{what}: unexpected reply {other:?}")),
    }
    Ok(rtt)
}

/// One session: open, every command with up to `window` in flight,
/// close, reopen, close.
fn session(client: &mut Client, job: &Job, name: &str, run: &mut ConnRun) -> Result<(), String> {
    let open = || RequestBody::Open {
        session: name.to_owned(),
        cell: job.cell.to_owned(),
    };
    let close = || RequestBody::Close {
        session: name.to_owned(),
    };
    call(client, open(), run, |d| d == "created")?;
    let streaming = Instant::now();
    let cmds = &job.lines[1..];
    let mut inflight: VecDeque<(u64, usize, Instant, TraceContext)> = VecDeque::new();
    let mut next = 0;
    while next < cmds.len() || !inflight.is_empty() {
        while next < cmds.len() && inflight.len() < job.window {
            let ctx = if job.traced && next.is_multiple_of(TRACE_EVERY) {
                spans::context()
            } else {
                TraceContext::NONE
            };
            let sent = Instant::now();
            let body = RequestBody::Cmd {
                session: name.to_owned(),
                line: cmds[next].clone(),
            };
            let id = client
                .send_traced(body, ctx)
                .map_err(|e| format!("{name}: send: {e}"))?;
            run.tally.attempted += 1;
            inflight.push_back((id, next, sent, ctx));
            next += 1;
        }
        let Reply { id, body } = client.recv().map_err(|e| format!("{name}: recv: {e}"))?;
        let rtt = Instant::now();
        let (want_id, idx, sent, ctx) = inflight.pop_front().expect("a request is in flight");
        if id != want_id {
            return Err(format!(
                "{name}: reply id {id} answers no request (want {want_id})"
            ));
        }
        let rtt_ns = rtt.duration_since(sent).as_nanos() as f64;
        match body {
            ReplyBody::Ok(d) if d == job.outcomes[idx] => {
                run.acked += 1;
                run.rtt_ns.push(rtt_ns);
                run.overhead_ns.push(rtt_ns - job.exec_ns[idx] as f64);
            }
            ReplyBody::Busy => {
                run.busy += 1;
                run.tally.fail(format!("{name}: busy on `{}`", cmds[idx]));
            }
            other => run.tally.fail(format!(
                "{name}: `{}` replied {other:?}, reference {:?}",
                cmds[idx], job.outcomes[idx]
            )),
        }
        if !ctx.is_none() {
            trace::complete_span("bench.wire.cmd", ctx, sent, &[("cmd", idx as u64)]);
            run.traced.push((ctx.trace_id, rtt_ns));
            spans::drain();
        }
    }
    run.stream = streaming.elapsed();
    call(client, close(), run, |d| d == "closed")?;
    let records = format!("recovered {} records", job.lines.len());
    let reopen = call(client, open(), run, |d| d == records)?;
    run.reopen_ns = Some(reopen.as_nanos() as f64);
    call(client, close(), run, |d| d == "closed")?;
    Ok(())
}

/// A set-up wire workload: the journal, its reference execution, a
/// running server and connected clients.
pub struct WireBench {
    spec: WireSpec,
    cell: String,
    lines: Vec<String>,
    reference: Reference,
    expected: Option<Expected>,
    root: PathBuf,
    names: StdRng,
    /// Sessions run so far; the journal gate recovers each.
    sessions: Vec<String>,
    // Declared before `server`: clients must disconnect before the
    // server's drain can finish.
    clients: Vec<Client>,
    server: ServerHandle,
}

impl WireBench {
    /// One set-up: generate the journal, replay it as the reference,
    /// start the server under `dir` and connect the clients.
    ///
    /// # Errors
    ///
    /// Journal generation, reference replay, server start or connect.
    pub fn set_up(spec: WireSpec, seed: u64, dir: &Path) -> Result<WireBench, String> {
        let cell = fig9::cell_name(spec.style);
        let journal = fig9::journal(spec.bits, spec.style).map_err(|e| format!("journal: {e}"))?;
        let lines: Vec<String> = journal.commands().iter().map(command_to_line).collect();
        let reference = replay(&lines, &cell)?;
        let root = dir.join("serve");
        if root.exists() {
            std::fs::remove_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        }
        let mut cfg = ServeConfig::new(&root);
        cfg.threads = WORKERS;
        let server = Server::start(cfg, &Bind::Unix(dir.join("riot.sock")))
            .map_err(|e| format!("server start: {e}"))?;
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(&server.addr()).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(WireBench {
            spec,
            cell,
            lines,
            reference,
            expected: None,
            root,
            names: StdRng::seed_from_u64(seed),
            sessions: Vec::new(),
            clients,
            server,
        })
    }

    /// The set-up gates on the reference build (memoized flatten and
    /// indexed DRC against their references).
    ///
    /// # Errors
    ///
    /// The gate that failed.
    pub fn gate(&mut self) -> Result<(), String> {
        self.expected = Some(verify::gate(&self.reference.lib, &self.cell)?);
        Ok(())
    }

    fn counters(&mut self) -> Result<HashMap<String, u64>, String> {
        let text = self.clients[0].telemetry(TelemetryFormat::Json)?;
        let snap = riot::trace::Snapshot::parse(&text)?;
        Ok(snap.counters.into_iter().collect())
    }

    /// A fresh session name for each connection, drawn from the seed and
    /// kept for the connection whose worker hosts it.
    fn session_names(&mut self) -> Vec<String> {
        let mut names = vec![None; CONNECTIONS];
        while names.iter().any(Option::is_none) {
            let name = format!("f9-{:012x}", self.names.next_u64() >> 16);
            names[worker_of(&name) % CONNECTIONS].get_or_insert(name);
        }
        names.into_iter().flatten().collect()
    }

    /// One round: a session on every connection at once.
    fn session_round(&mut self, traced: bool) -> Vec<ConnRun> {
        let names = self.session_names();
        let job = Job {
            cell: &self.cell,
            lines: &self.lines,
            outcomes: &self.reference.outcomes,
            exec_ns: &self.reference.exec_ns,
            window: self.spec.window,
            traced,
        };
        let runs: Vec<ConnRun> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&names)
                .map(|(client, name)| {
                    let job = &job;
                    s.spawn(move || {
                        let mut run = ConnRun::default();
                        if let Err(e) = session(client, job, name, &mut run) {
                            run.tally.fail(e);
                        }
                        run
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        self.sessions.extend(names);
        runs
    }

    /// The untimed warm-up unit: one session per connection and one
    /// verify pass.
    pub fn warm_up(&mut self, tally: &mut Tally) {
        for run in self.session_round(false) {
            tally.merge(run.tally);
        }
        self.verify_until(Instant::now(), tally);
    }

    /// Verify passes on each of [`SAMPLERS`] threads until `deadline` (at
    /// least one each).
    fn verify_until(&self, deadline: Instant, tally: &mut Tally) -> Vec<Pass> {
        let expected = self.expected.expect("gate ran before any pass");
        let lane = || {
            let mut passes = Vec::new();
            let mut tally = Tally::default();
            loop {
                tally.attempted += 1;
                match verify::pass(&self.reference.lib, &self.cell, expected) {
                    Ok(p) => passes.push(p),
                    Err(e) => tally.fail(e),
                }
                if Instant::now() >= deadline {
                    return (passes, tally);
                }
            }
        };
        let lanes: Vec<(Vec<Pass>, Tally)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..SAMPLERS).map(|_| s.spawn(lane)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a verify thread panicked"))
                .collect()
        });
        let mut passes = Vec::new();
        for (p, t) in lanes {
            passes.extend(p);
            tally.merge(t);
        }
        passes
    }

    /// One measured phase of about `budget`, in rounds: a session on
    /// every connection, then verify passes. Rounds go on while at least
    /// half of one more fits, so the round count does not flip with a few
    /// percent of speed. Interleaving spreads both kinds of work over
    /// the whole phase: a slow spell of the host covering part of it
    /// cannot hold every verify pass or every round. `between` runs after
    /// each round. A traced phase first replays the reference again, so
    /// the Chrome trace holds the engine's spans for every command kind.
    pub fn measure(&mut self, budget: Duration, traced: bool, between: &mut dyn FnMut()) -> Phase {
        let started = Instant::now();
        let mut tally = Tally::default();
        let mut values = Values::new();
        core_values(&self.lines, &self.reference, &mut values);
        if traced {
            if let Err(e) = replay(&self.lines, &self.cell) {
                tally.problem(e);
            }
        }
        let before = self.counters();
        let mut overhead = Vec::new();
        let mut reopen = Vec::new();
        let mut traced_cmds = Vec::new();
        // `[p50 RTT, p90 RTT, rate]` of each round.
        let mut rounds: Vec<[f64; 3]> = Vec::new();
        let mut passes = Vec::new();
        let (mut acked, mut busy) = (0u64, 0u64);
        loop {
            let round = Instant::now();
            // Each connection's own rate, summed: opens, closes and
            // reopens (timed on their own) and the wait for the slower
            // session to finish stay out of it.
            let mut rate = 0.0;
            let mut rtt = Vec::new();
            for r in self.session_round(traced) {
                rate += r.acked as f64 / r.stream.as_secs_f64().max(1e-9);
                rtt.extend(r.rtt_ns);
                overhead.extend(r.overhead_ns);
                reopen.extend(r.reopen_ns);
                traced_cmds.extend(r.traced);
                acked += r.acked;
                busy += r.busy;
                tally.merge(r.tally);
            }
            rounds.push([percentile(&rtt, 0.5), percentile(&rtt, 0.9), rate]);
            let verify_for = round.elapsed().mul_f64(VERIFY_PER_WIRE);
            passes.extend(self.verify_until(Instant::now() + verify_for, &mut tally));
            let took = round.elapsed();
            between();
            if started.elapsed() + took / 2 > budget {
                break;
            }
        }
        let after = self.counters();

        if busy > 0 {
            tally.problem(format!(
                "{busy} busy replies; the workload must never overrun an inbox"
            ));
        }
        // Each from its best round: every round does identical work, and
        // the host's slow spells only ever add time.
        let column = |i: usize| rounds.iter().map(move |r| r[i]);
        let lowest = |i: usize| column(i).fold(f64::INFINITY, f64::min);
        values.insert("op_p50_ms".into(), lowest(0) / 1e6);
        values.insert("op_p90_ms".into(), lowest(1) / 1e6);
        values.insert("throughput_per_s".into(), column(2).fold(0.0, f64::max));
        values.insert(
            "serve.overhead_p50_us".into(),
            percentile(&overhead, 0.5) / 1e3,
        );
        values.insert("serve.reopen_ms".into(), median(&reopen) / 1e6);
        match (before, after) {
            (Ok(b), Ok(a)) => {
                let count = |m: &HashMap<String, u64>, k: &str| m.get(k).copied().unwrap_or(0);
                let delta = |k: &str| count(&a, k).saturating_sub(count(&b, k)) as f64;
                let acked = acked.max(1) as f64;
                values.insert(
                    "serve.fsyncs_per_cmd".into(),
                    delta("serve.wal.fsyncs") / acked,
                );
                values.insert(
                    "serve.snapshots_per_kcmd".into(),
                    1e3 * delta("serve.snapshot.written") / acked,
                );
                values.insert(
                    "serve.recovered_records".into(),
                    delta("serve.recovery.replayed_records") / reopen.len().max(1) as f64,
                );
            }
            (Err(e), _) | (_, Err(e)) => tally.problem(format!("telemetry verb: {e}")),
        }

        // The fastest pass: every pass does identical work, and the
        // host's slow spells only ever add time.
        if let Some(p) = passes.iter().min_by_key(|p| p.total_ns) {
            values.insert("verify_s".into(), p.total_ns as f64 / 1e9);
            values.insert("core.export_ms".into(), p.export_ns as f64 / 1e6);
            values.insert("cif.flatten_ms".into(), p.flatten_ns as f64 / 1e6);
            values.insert("drc.check_ms".into(), p.drc_ns as f64 / 1e6);
            values.insert("cif.write_ms".into(), p.write_ns as f64 / 1e6);
        }
        let expected = self.expected.expect("gate ran before any pass");
        values.insert("cif.flat_shapes".into(), expected.shapes as f64);
        values.insert("cif.bytes".into(), expected.bytes as f64);
        values.insert("drc.violations".into(), expected.violations as f64);

        let spans = if traced { spans::take() } else { Vec::new() };
        if traced {
            serve_split(&spans, &traced_cmds, &mut values, &mut tally);
        }
        Phase {
            values,
            tally,
            spans,
        }
    }

    /// Stops the server, then the journal gate: every session's WAL,
    /// recovered, holds exactly the journal that was sent.
    pub fn finish(self) -> Vec<String> {
        let WireBench {
            lines,
            root,
            sessions,
            clients,
            server,
            ..
        } = self;
        drop(clients);
        server.shutdown();
        let mut problems = Vec::new();
        for name in &sessions {
            match SessionEntry::recover(&root, name, standard_library()) {
                Ok((entry, _)) => {
                    let got: Vec<String> = entry
                        .cp
                        .as_ref()
                        .map(|cp| {
                            cp.journal()
                                .commands()
                                .iter()
                                .map(command_to_line)
                                .collect()
                        })
                        .unwrap_or_default();
                    if got != lines {
                        let at = got.iter().zip(&lines).position(|(a, b)| a != b);
                        problems.push(format!(
                            "session {name}: recovered journal has {} lines, sent {}; first difference at {at:?}",
                            got.len(),
                            lines.len()
                        ));
                    }
                }
                Err(e) => problems.push(format!("session {name}: recovery failed: {e}")),
            }
        }
        problems
    }
}

/// The serve split of the traced commands: the server's own decode,
/// queue-wait, apply and WAL-flush spans, found by trace id, averaged
/// per command next to the client-side RTT; whatever the four do not
/// cover is `serve.unattributed_us`. Means, so the rows add up.
fn serve_split(
    spans: &[SpanRecord],
    traced: &[(u64, f64)],
    values: &mut Values,
    tally: &mut Tally,
) {
    const PARTS: [(&str, &str); 4] = [
        ("serve.frame.decode", "serve.decode_us"),
        ("serve.queue.wait", "serve.queue_wait_us"),
        ("serve.cmd.apply", "serve.apply_us"),
        ("serve.wal.flush", "serve.wal_flush_us"),
    ];
    let mut by_trace: HashMap<u64, [f64; 4]> = HashMap::new();
    for s in spans {
        if let Some(i) = PARTS.iter().position(|(name, _)| *name == s.name) {
            by_trace.entry(s.trace).or_default()[i] += s.dur_ns as f64;
        }
    }
    let mut parts: [Vec<f64>; 4] = Default::default();
    let mut rest = Vec::new();
    let mut rtts = Vec::new();
    let mut missing = 0;
    for (trace, rtt) in traced {
        let Some(p) = by_trace.get(trace) else {
            missing += 1;
            continue;
        };
        for (v, x) in parts.iter_mut().zip(p) {
            v.push(*x);
        }
        rest.push(rtt - p.iter().sum::<f64>());
        rtts.push(*rtt);
    }
    if missing > 0 {
        tally.problem(format!("{missing} traced commands left no server spans"));
    }
    values.insert("serve.rtt_us".into(), mean(&rtts) / 1e3);
    for ((_, name), v) in PARTS.iter().zip(&parts) {
        values.insert((*name).into(), mean(v) / 1e3);
    }
    values.insert("serve.unattributed_us".into(), mean(&rest) / 1e3);
}
