//! The session manager: a fixed worker pool that owns every hosted
//! session and applies commands in per-session FIFO order.
//!
//! # Sharding
//!
//! Sessions are sharded by a stable hash of their name across
//! `threads` workers (resolved like `riot_geom::par` — explicit config
//! beats `RIOT_SERVE_THREADS` beats machine parallelism). One session
//! always lands on one worker, so its commands — and therefore its
//! replies — are totally ordered without any per-session locking.
//!
//! # Backpressure
//!
//! Each worker's inbox is a **bounded** channel of `inbox_cap` jobs.
//! [`SessionManager::submit`] never blocks: a full inbox is an
//! immediate [`ReplyBody::Busy`], and the command was *not* queued.
//! Clients own the retry; the server never buffers unboundedly.
//!
//! # Batching and the flush pass
//!
//! A worker drains up to `batch_max` queued jobs at a time and applies
//! *consecutive runs* of commands for the same session to its editor,
//! which lives as long as the session is hosted, caches and all. Each
//! run **stages** its WAL records in memory and joins the batch's
//! commit queue. One flush pass — one write and one
//! fsync per dirty WAL — runs at the end of the drained batch, and
//! before any non-`cmd` job in it, then releases every staged run's
//! replies in order. The inbox decides when to flush, not a timer: a
//! lone command is flushed as soon as it is applied, and sixteen
//! sessions interleaved in one batch share sixteen fsyncs. `ok` replies
//! are withheld until the covering flush succeeds (acknowledged ⇒
//! durable).
//!
//! # Snapshots
//!
//! After a flush, any session that accumulated
//! [`ServeConfig::snapshot_every`] records past its last snapshot gets
//! a new `RIOTSNAP1` cut and its WAL compacted behind it (see
//! [`crate::snapshot`]); idle eviction cuts one too. Recovery then
//! replays only the records past the snapshot.
//!
//! # Idle eviction
//!
//! Sessions untouched for `idle_timeout` are flushed to their WAL and
//! dropped from memory during the worker's housekeeping tick; a later
//! `cmd` or `open` transparently recovers them from the WAL.

use crate::config::ServeConfig;
use crate::flightrec::FlightKind;
use crate::proto::{Reply, ReplyBody};
use crate::session::{execute_line, OpenKind, SessionEntry};
use riot_core::{FAULT_SERVE_GROUP_FLUSH, FAULT_SERVE_JOURNAL_APPEND};
use riot_trace::TraceContext;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// What a connection asks a worker to do to a session.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Create, attach, or recover the session editing `cell`.
    Open {
        /// Composition cell for a brand-new session.
        cell: String,
    },
    /// Apply one editor command line.
    Cmd {
        /// Replay-syntax command line.
        line: String,
    },
    /// Flush and evict the session.
    Close,
    /// Report the session's engine counters (cache hit rate, damage
    /// stats). Routed to the owning worker so it reads the same editor
    /// the next `Cmd` applies to.
    SessionStats,
    /// Testing hook: hold the worker for `ms` milliseconds.
    Stall {
        /// How long to hold the worker.
        ms: u64,
    },
}

/// Where a job's reply goes: the event loop's shared reply channel,
/// tagged with the connection's token. Every send then kicks the
/// loop's wakeup pipe, so a blocked `poll(2)` learns immediately that
/// a reply is ready to write. Cloning is cheap (a channel sender plus
/// an `Arc`).
#[derive(Clone, Debug)]
pub struct ReplyTx {
    tx: Sender<(u64, Reply)>,
    token: u64,
    wake: Arc<crate::net::WakePipe>,
}

impl ReplyTx {
    /// Replies go to the event loop's shared channel tagged with
    /// `token`, and `wake` is kicked after every send.
    pub fn routed(
        tx: Sender<(u64, Reply)>,
        token: u64,
        wake: Arc<crate::net::WakePipe>,
    ) -> ReplyTx {
        ReplyTx { tx, token, wake }
    }

    /// Delivers one reply. A gone receiver (the event loop already
    /// exited) is not an error — the reply is simply dropped.
    pub fn send(&self, reply: Reply) {
        let _ = self.tx.send((self.token, reply));
        self.wake.wake();
    }
}

/// One queued unit of work.
struct Job {
    session: String,
    kind: JobKind,
    id: u64,
    /// The client's trace context ([`TraceContext::NONE`] for an
    /// untraced request): every server-side span for this job continues
    /// it.
    trace: TraceContext,
    reply_tx: ReplyTx,
    enqueued: Instant,
    /// Nanoseconds spent queued (stamped when the worker drains the
    /// job; feeds the slow-command log's phase decomposition).
    queue_ns: u64,
}

/// Shared live counters the manager exposes without a worker
/// round-trip.
#[derive(Debug, Default)]
struct Shared {
    live_sessions: AtomicUsize,
    queued: AtomicUsize,
}

/// The worker pool. Dropping the manager without calling
/// [`SessionManager::shutdown`] also drains cleanly (workers flush
/// every session when their inbox disconnects).
pub struct SessionManager {
    shards: Vec<SyncSender<Job>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    threads: usize,
}

impl std::fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("threads", &self.threads)
            .field(
                "live_sessions",
                &self.shared.live_sessions.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl SessionManager {
    /// Creates the WAL root directory and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// When the root directory cannot be created.
    pub fn start(cfg: ServeConfig) -> io::Result<SessionManager> {
        std::fs::create_dir_all(&cfg.root)?;
        let threads = cfg.effective_threads();
        let shared = Arc::new(Shared::default());
        let mut shards = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let (tx, rx) = sync_channel::<Job>(cfg.inbox_cap);
            shards.push(tx);
            let cfg = cfg.clone();
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("riot-serve-worker-{w}"))
                    .spawn(move || worker_loop(&cfg, &rx, &shared, w as u64))
                    .expect("spawn worker"),
            );
        }
        Ok(SessionManager {
            shards,
            handles,
            shared,
            threads,
        })
    }

    /// Which worker owns `session` (stable across the process).
    fn shard(&self, session: &str) -> usize {
        let mut h = DefaultHasher::new();
        session.hash(&mut h);
        (h.finish() % self.threads as u64) as usize
    }

    /// Queues a job for `session`'s worker. Non-blocking: a full inbox
    /// comes back as `Err(Busy)`, a shut-down pool as `Err(Err(..))` —
    /// in both cases the caller already holds the reply to send.
    ///
    /// # Errors
    ///
    /// The reply body to send instead of queueing.
    pub fn submit(
        &self,
        session: &str,
        kind: JobKind,
        id: u64,
        trace: TraceContext,
        reply_tx: ReplyTx,
    ) -> Result<(), ReplyBody> {
        let job = Job {
            session: session.to_owned(),
            kind,
            id,
            trace,
            reply_tx,
            enqueued: Instant::now(),
            queue_ns: 0,
        };
        let shard = self.shard(session);
        match self.shards[shard].try_send(job) {
            Ok(()) => {
                // Approximate by design: the worker may pop (and
                // decrement) this job before our increment lands, so
                // clamp rather than trust exact arithmetic.
                let q = self
                    .shared
                    .queued
                    .fetch_add(1, Ordering::Relaxed)
                    .saturating_add(1);
                riot_trace::registry()
                    .gauge("serve.queue.depth")
                    .set(q as i64);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                riot_trace::registry().counter("serve.busy").inc();
                Err(ReplyBody::Busy)
            }
            Err(TrySendError::Disconnected(_)) => {
                Err(ReplyBody::Err("server is shutting down".to_owned()))
            }
        }
    }

    /// Live stats for the `stats` verb: the pool-wide gauges, then one
    /// line per populated `serve.*` latency histogram with its
    /// p50/p95/p99 so a plain `riot-serve stats` surfaces tail latency
    /// without a Prometheus scrape.
    pub fn stats_line(&self) -> String {
        let mut out = format!(
            "sessions {} queued {} workers {}",
            self.shared.live_sessions.load(Ordering::Relaxed),
            self.shared.queued.load(Ordering::Relaxed),
            self.threads
        );
        for (name, h) in riot_trace::registry().histograms() {
            if h.count() == 0 || !name.starts_with("serve.") {
                continue;
            }
            out.push_str(&format!(
                "\n{name} count {} p50 {} p95 {} p99 {}",
                h.count(),
                h.p50().unwrap_or(0),
                h.p95().unwrap_or(0),
                h.p99().unwrap_or(0),
            ));
        }
        out
    }

    /// Sessions currently resident in memory.
    pub fn live_sessions(&self) -> usize {
        self.shared.live_sessions.load(Ordering::Relaxed)
    }

    /// Graceful drain: closes every inbox, then joins every worker.
    /// Workers flush each hosted session's WAL before exiting.
    pub fn shutdown(mut self) {
        self.shards.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.shards.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One run of commands whose WAL records are staged awaiting the
/// batch's flush pass. Replies are held here — released, in staging
/// order, only after the covering fsync.
struct StagedRun {
    jobs: Vec<Job>,
    outcomes: Vec<Result<String, String>>,
    apply_ns: Vec<u64>,
}

/// A batch's commit queue: every run staged since the last flush pass.
#[derive(Default)]
struct Pending {
    runs: Vec<StagedRun>,
}

impl Pending {
    /// Fails every staged run for `session` with `msg` (crash paths:
    /// the session's staged bytes died with its entry, so replies that
    /// were waiting on them must refuse, never acknowledge).
    fn fail_session(&mut self, session: &str, msg: &str) {
        let mut kept = Vec::with_capacity(self.runs.len());
        for run in self.runs.drain(..) {
            if run.jobs[0].session == session {
                for job in &run.jobs {
                    send_reply(job, ReplyBody::Err(msg.to_owned()));
                }
            } else {
                kept.push(run);
            }
        }
        self.runs = kept;
    }
}

/// One worker: owns a shard of sessions, applies batches (each ending
/// in its flush pass), evicts idlers, and flushes everything on drain.
fn worker_loop(cfg: &ServeConfig, rx: &Receiver<Job>, shared: &Shared, worker: u64) {
    let mut sessions: HashMap<String, SessionEntry> = HashMap::new();
    loop {
        // The tick only paces housekeeping: staged state never outlives
        // the batch that staged it, so nothing waits on a timer.
        let first = match rx.recv_timeout(cfg.tick) {
            Ok(job) => Some(job),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        if let Some(first) = first {
            let mut batch = Vec::with_capacity(8);
            batch.push(first);
            while batch.len() < cfg.batch_max {
                match rx.try_recv() {
                    Ok(job) => batch.push(job),
                    Err(_) => break,
                }
            }
            let n = batch.len();
            // Clamped decrement: submit's increment for a job may land
            // after we already popped it (see `submit`).
            let q = shared
                .queued
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |q| {
                    Some(q.saturating_sub(n))
                })
                .map(|prev| prev.saturating_sub(n))
                .unwrap_or(0);
            riot_trace::registry()
                .gauge("serve.queue.depth")
                .set(q as i64);
            // The queue-wait phase ends here: stamp it per job (it
            // started on the submitting thread) and record the span
            // under the client's context.
            for job in &mut batch {
                job.queue_ns = job.enqueued.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                riot_trace::complete_span("serve.queue.wait", job.trace, job.enqueued, &[]);
            }
            process_batch(cfg, &mut sessions, batch, worker);
        }
        evict_idle(cfg, &mut sessions);
        publish_live(shared, &sessions);
        update_slo_gauges();
    }
    // Drain: flush every hosted session before exiting.
    for (_, mut entry) in sessions.drain() {
        let _ = entry.sync_all();
    }
    publish_live(shared, &sessions);
}

/// Publishes this worker's shard size into the pool-wide
/// `live_sessions` total. Each worker only sees its own shard, so it
/// applies the *delta* from its previous contribution (tracked in a
/// thread-local) rather than overwriting other shards' counts.
fn publish_live(shared: &Shared, mine: &HashMap<String, SessionEntry>) {
    thread_local! {
        static PREV: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }
    let now = mine.len();
    let prev = PREV.with(|p| p.replace(now));
    let total = if now >= prev {
        shared
            .live_sessions
            .fetch_add(now - prev, Ordering::Relaxed)
            + (now - prev)
    } else {
        shared
            .live_sessions
            .fetch_sub(prev - now, Ordering::Relaxed)
            .saturating_sub(prev - now)
    };
    riot_trace::registry()
        .gauge("serve.sessions.live")
        .set(total as i64);
}

/// Applies one drained batch in arrival order, merging consecutive
/// `Cmd` runs for the same session into one staged run, and ends with
/// the flush pass that makes every staged run durable.
fn process_batch(
    cfg: &ServeConfig,
    sessions: &mut HashMap<String, SessionEntry>,
    batch: Vec<Job>,
    worker: u64,
) {
    let mut pending = Pending::default();
    let mut iter = batch.into_iter().peekable();
    while let Some(job) = iter.next() {
        if matches!(job.kind, JobKind::Cmd { .. }) {
            // Collect the run of consecutive Cmd jobs on the same
            // session.
            let mut run = vec![job];
            while iter.peek().is_some_and(|n| {
                n.session == run[0].session && matches!(n.kind, JobKind::Cmd { .. })
            }) {
                run.push(iter.next().expect("peeked"));
            }
            apply_cmd_run(cfg, sessions, run, worker, &mut pending);
        } else {
            // Per-session reply FIFO: a close/open/stats reply must not
            // overtake staged command replies, and close/stats read
            // state the staged records are part of — flush first.
            flush_pending(cfg, sessions, &mut pending, worker);
            apply_single(cfg, sessions, &job, worker);
        }
    }
    flush_pending(cfg, sessions, &mut pending, worker);
}

/// Refreshes the rolling SLO gauges from the registry: the p99 of the
/// end-to-end request latency histogram and the error rate in permille
/// of all replies sent so far. Cheap (a few atomic loads), run once
/// per worker tick so a scrape always sees fresh values.
fn update_slo_gauges() {
    let reg = riot_trace::registry();
    if let Some(p99) = reg.histogram("serve.request.latency_ns").p99() {
        reg.gauge("serve.slo.request_p99_ns").set(p99 as i64);
    }
    let ok = reg.counter("serve.replies.ok").get();
    let err = reg.counter("serve.replies.err").get();
    if let Some(permille) = err.saturating_mul(1000).checked_div(ok + err) {
        reg.gauge("serve.slo.error_permille").set(permille as i64);
    }
}

/// The reply detail for `stats <session>`: the editor's cumulative
/// engine counters, one `key value` pair per field clients care about.
fn session_stats_line(s: riot_core::Stats) -> String {
    let rate = s
        .cache_hit_rate()
        .map_or("n/a".to_owned(), |r| format!("{r:.3}"));
    format!(
        "applied {} cache_hits {} cache_misses {} hit_rate {rate} damage_rects {}",
        s.applied, s.cache_hits, s.cache_misses, s.damage_rects
    )
}

fn send_reply(job: &Job, body: ReplyBody) {
    let nanos = job.enqueued.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    let reg = riot_trace::registry();
    reg.histogram("serve.request.latency_ns").record(nanos);
    reg.counter(match body {
        ReplyBody::Err(_) => "serve.replies.err",
        _ => "serve.replies.ok",
    })
    .inc();
    job.reply_tx.send(Reply { id: job.id, body });
}

/// Brings `session` into memory if it is not already hosted: recovers
/// from an existing WAL, or (for `Open`) creates it fresh.
fn ensure_open(
    cfg: &ServeConfig,
    sessions: &mut HashMap<String, SessionEntry>,
    session: &str,
    create_cell: Option<&str>,
    worker: u64,
    trace: u64,
) -> Result<OpenKind, String> {
    if sessions.contains_key(session) {
        return Ok(OpenKind::Recovered {
            records: 0,
            truncated: false,
        });
    }
    let lib = (cfg.library)();
    let wal = crate::session::wal_path(&cfg.root, session);
    let (entry, kind) = if wal.exists() {
        SessionEntry::recover(&cfg.root, session, lib)?
    } else if let Some(cell) = create_cell {
        (
            SessionEntry::create(&cfg.root, session, cell, lib)?,
            OpenKind::Created,
        )
    } else {
        return Err(format!("no such session `{session}` (open it first)"));
    };
    // The flight recorder's `open` event carries the WAL head line
    // (`edit <cell>`), so a dump's per-session tail is itself a valid
    // replay for riot-check's lockstep harness.
    let head = entry
        .editor()
        .journal()
        .commands()
        .first()
        .map(riot_core::command_to_line)
        .unwrap_or_default();
    cfg.flightrec
        .record(worker, session, FlightKind::Open, head, true, trace);
    sessions.insert(session.to_owned(), entry);
    Ok(kind)
}

/// Handles `Open`, `Close` and `Stall` jobs.
fn apply_single(
    cfg: &ServeConfig,
    sessions: &mut HashMap<String, SessionEntry>,
    job: &Job,
    worker: u64,
) {
    match &job.kind {
        JobKind::Open { cell } => {
            let attached = sessions.contains_key(&job.session);
            let body = match ensure_open(
                cfg,
                sessions,
                &job.session,
                Some(cell),
                worker,
                job.trace.trace_id,
            ) {
                Ok(_) if attached => ReplyBody::Ok("attached".to_owned()),
                Ok(OpenKind::Created) => ReplyBody::Ok("created".to_owned()),
                Ok(OpenKind::Recovered { records, truncated }) => ReplyBody::Ok(format!(
                    "recovered {records} records{}",
                    if truncated {
                        " (truncated torn tail)"
                    } else {
                        ""
                    }
                )),
                Err(e) => ReplyBody::Err(e),
            };
            send_reply(job, body);
        }
        JobKind::Close => {
            let body = match sessions.remove(&job.session) {
                Some(mut entry) => match entry.sync_all() {
                    Ok(()) => ReplyBody::Ok("closed".to_owned()),
                    Err(e) => ReplyBody::Err(format!("close flush failed: {e}")),
                },
                None if crate::session::wal_path(&cfg.root, &job.session).exists() => {
                    ReplyBody::Ok("closed".to_owned())
                }
                None => ReplyBody::Err(format!("no such session `{}`", job.session)),
            };
            send_reply(job, body);
        }
        JobKind::SessionStats => {
            let body = match ensure_open(
                cfg,
                sessions,
                &job.session,
                None,
                worker,
                job.trace.trace_id,
            ) {
                Ok(_) => {
                    let entry = sessions.get(&job.session).expect("ensure_open inserted");
                    send_reply(
                        job,
                        ReplyBody::Ok(session_stats_line(entry.editor().stats())),
                    );
                    return;
                }
                Err(e) => ReplyBody::Err(e),
            };
            send_reply(job, body);
        }
        JobKind::Stall { ms } => {
            std::thread::sleep(std::time::Duration::from_millis(*ms));
            send_reply(job, ReplyBody::Ok(format!("stalled {ms}ms")));
        }
        JobKind::Cmd { .. } => unreachable!("Cmd runs go through apply_cmd_run"),
    }
}

/// Applies a run of consecutive `Cmd` jobs to one session's editor,
/// then stages the WAL records on the batch's commit queue. Replies
/// wait for the covering flush pass: no `ok` escapes before its records
/// are fsynced — acknowledged means durable.
fn apply_cmd_run(
    cfg: &ServeConfig,
    sessions: &mut HashMap<String, SessionEntry>,
    run: Vec<Job>,
    worker: u64,
    pending: &mut Pending,
) {
    let session = run[0].session.clone();
    // The run-level context: the first traced job. A pipelining client
    // reuses one trace across its burst, so per-run spans (apply,
    // flush) land in the trace that paid for them.
    let run_ctx = run
        .iter()
        .map(|j| j.trace)
        .find(|c| !c.is_none())
        .unwrap_or(TraceContext::NONE);
    let _span = {
        let mut s = riot_trace::span_with_context("serve.session.apply", run_ctx);
        s.field("commands", run.len() as u64);
        s
    };
    riot_trace::registry()
        .counter("serve.cmds")
        .add(run.len() as u64);
    if let Err(e) = ensure_open(cfg, sessions, &session, None, worker, run_ctx.trace_id) {
        for job in &run {
            send_reply(job, ReplyBody::Err(e.clone()));
        }
        return;
    }
    let entry = sessions.get_mut(&session).expect("ensure_open inserted");
    entry.last_touch = Instant::now();

    // Phase 1: execute, buffering outcomes. A journal-append fault
    // mid-run crashes the session *before* the faulted command runs:
    // a torn record is written (as a real torn write would) and every
    // remaining job in the run — including any earlier `ok`s not yet
    // flushed — is refused, because un-flushed acknowledgements must
    // never escape.
    let mut outcomes: Vec<Result<String, String>> = Vec::with_capacity(run.len());
    let mut apply_ns: Vec<u64> = Vec::with_capacity(run.len());
    let mut crashed: Option<String> = None;
    for job in &run {
        let JobKind::Cmd { line } = &job.kind else {
            unreachable!("run holds only Cmd jobs")
        };
        if cfg.faults.should_inject(FAULT_SERVE_JOURNAL_APPEND) {
            cfg.flightrec.record(
                worker,
                &session,
                FlightKind::Fault,
                "serve.journal.append",
                false,
                job.trace.trace_id,
            );
            crashed = Some(line.clone());
            break;
        }
        let exec_start = Instant::now();
        let outcome = execute_line(entry.editor_mut(), line).map_err(|e| e.to_string());
        riot_trace::complete_span("serve.cmd.apply", job.trace, exec_start, &[]);
        apply_ns.push(exec_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        cfg.flightrec.record(
            worker,
            &session,
            FlightKind::Cmd,
            line.clone(),
            outcome.is_ok(),
            job.trace.trace_id,
        );
        outcomes.push(outcome);
    }

    if let Some(line) = crashed {
        // Crash simulation: half-written record, then the session dies.
        entry.append_torn_record(&line);
        riot_trace::registry()
            .counter("serve.session.crashed")
            .inc();
        cfg.flightrec.record(
            worker,
            &session,
            FlightKind::Crash,
            format!("fault injected at journal append before `{line}`"),
            false,
            run_ctx.trace_id,
        );
        // A fault trip is exactly what the flight recorder exists for:
        // put the evidence on disk while the process is still healthy.
        let _ = cfg.flightrec.dump_to(&cfg.root);
        sessions.remove(&session); // a later cmd/open recovers it
        let msg = "session crashed: fault injected at journal append; \
                   not applied — reopen to recover";
        // Earlier runs staged for this session die with it: their
        // records were never flushed, so their replies must refuse.
        pending.fail_session(&session, msg);
        for job in &run {
            send_reply(job, ReplyBody::Err(msg.to_owned()));
        }
        return;
    }

    // Phase 2: park the run on the commit queue, replies withheld. The
    // batch's flush pass makes it durable, sharing one fsync per dirty
    // WAL with every other run staged in the batch.
    entry.stage_journal();
    pending.runs.push(StagedRun {
        jobs: run,
        outcomes,
        apply_ns,
    });
}

/// Completes the wal-flush spans, sends the run's buffered replies in
/// order, and feeds the slow-command log.
fn release_run_replies(run: &StagedRun, flush_start: Instant, cfg: &ServeConfig, worker: u64) {
    // One wal-flush span per distinct trace in the run: every client
    // trace sees the flush its acknowledgement waited on.
    let mut seen: Vec<u64> = Vec::new();
    for job in &run.jobs {
        if job.trace.is_none() || seen.contains(&job.trace.trace_id) {
            continue;
        }
        seen.push(job.trace.trace_id);
        riot_trace::complete_span("serve.wal.flush", job.trace, flush_start, &[]);
    }
    if seen.is_empty() {
        riot_trace::complete_span("serve.wal.flush", TraceContext::NONE, flush_start, &[]);
    }
    let flush_ns = flush_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    for (job, outcome) in run.jobs.iter().zip(&run.outcomes) {
        let body = match outcome {
            Ok(detail) => ReplyBody::Ok(detail.clone()),
            Err(e) => ReplyBody::Err(e.clone()),
        };
        send_reply(job, body);
    }
    riot_trace::registry()
        .counter("serve.commands.applied")
        .add(run.jobs.len() as u64);
    log_slow_commands(cfg, &run.jobs, &run.apply_ns, flush_ns, worker);
}

/// The flush pass: one write + fsync per *dirty* WAL covers every run
/// staged since the last pass, then every staged run's replies release
/// in staging order. A flush failure — real I/O
/// or an injected [`FAULT_SERVE_GROUP_FLUSH`] — crashes only that
/// session: its staged runs refuse, its entry is dropped (staged bytes
/// and all, none of them acknowledged), and recovery resumes from the
/// durable prefix. Sessions that crossed the snapshot interval get a
/// snapshot cut (and their WAL compacted) after their flush.
fn flush_pending(
    cfg: &ServeConfig,
    sessions: &mut HashMap<String, SessionEntry>,
    pending: &mut Pending,
    worker: u64,
) {
    if pending.runs.is_empty() {
        return;
    }
    let runs = std::mem::take(&mut pending.runs);
    let reg = riot_trace::registry();
    let flush_start = Instant::now();
    let mut flushed: Vec<String> = Vec::new();
    let mut failed: HashMap<String, String> = HashMap::new();
    for run in &runs {
        let session = &run.jobs[0].session;
        if flushed.iter().any(|s| s == session) || failed.contains_key(session) {
            continue;
        }
        if cfg.faults.should_inject(FAULT_SERVE_GROUP_FLUSH) {
            // Simulated crash at the covering flush: the staged suffix
            // never reaches disk, so the session dies un-acknowledged.
            let msg = "session crashed: fault injected at group flush; \
                       not applied — reopen to recover";
            cfg.flightrec.record(
                worker,
                session,
                FlightKind::Fault,
                "serve.group.flush",
                false,
                run.jobs[0].trace.trace_id,
            );
            reg.counter("serve.session.crashed").inc();
            let _ = cfg.flightrec.dump_to(&cfg.root);
            drop(sessions.remove(session));
            failed.insert(session.clone(), msg.to_owned());
            continue;
        }
        match sessions.get_mut(session) {
            Some(entry) => match entry.flush_staged() {
                Ok(_) => flushed.push(session.clone()),
                Err(e) => {
                    cfg.flightrec.record(
                        worker,
                        session,
                        FlightKind::Crash,
                        format!("group flush failed: {e}"),
                        false,
                        run.jobs[0].trace.trace_id,
                    );
                    reg.counter("serve.session.crashed").inc();
                    let _ = cfg.flightrec.dump_to(&cfg.root);
                    drop(sessions.remove(session));
                    failed.insert(
                        session.clone(),
                        format!("session crashed: group flush failed ({e}); reopen to recover"),
                    );
                }
            },
            // Unreachable in practice (staged sessions are pinned in
            // memory until flushed), but refuse rather than acknowledge.
            None => {
                failed.insert(
                    session.clone(),
                    "session no longer hosted; reopen to recover".to_owned(),
                );
            }
        }
    }
    reg.counter("serve.group.flushes").inc();
    for run in &runs {
        let session = &run.jobs[0].session;
        if let Some(msg) = failed.get(session) {
            for job in &run.jobs {
                send_reply(job, ReplyBody::Err(msg.clone()));
            }
            continue;
        }
        release_run_replies(run, flush_start, cfg, worker);
    }
    // Snapshot pass: cut + compact behind sessions that crossed the
    // interval, and publish how far each flushed session's WAL has run
    // past its snapshot.
    for name in flushed {
        if let Some(entry) = sessions.get_mut(&name) {
            entry.maybe_snapshot(&cfg.root, cfg.snapshot_every, &cfg.faults);
            reg.gauge("serve.snapshot.age_records")
                .set((entry.durable_records - entry.snap_covered()) as i64);
        }
    }
}

/// The slow-command log: any command whose end-to-end latency crossed
/// [`ServeConfig::slow_threshold`] is logged to stderr with its phase
/// decomposition (queue wait, apply, WAL flush — the same phases the
/// trace spans measure) and recorded in the flight recorder.
fn log_slow_commands(cfg: &ServeConfig, run: &[Job], apply_ns: &[u64], flush_ns: u64, worker: u64) {
    let threshold_ns = cfg.slow_threshold.as_nanos().min(u128::from(u64::MAX)) as u64;
    for (i, job) in run.iter().enumerate() {
        let total_ns = job.enqueued.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if total_ns < threshold_ns {
            continue;
        }
        let JobKind::Cmd { line } = &job.kind else {
            continue;
        };
        let detail = format!(
            "slow command: total {}us (queue {}us, apply {}us, wal-flush {}us): {line}",
            total_ns / 1_000,
            job.queue_ns / 1_000,
            apply_ns.get(i).copied().unwrap_or(0) / 1_000,
            flush_ns / 1_000,
        );
        eprintln!("riot-serve[worker {worker}] {detail}");
        riot_trace::registry().counter("serve.slow.commands").inc();
        cfg.flightrec.record(
            worker,
            &job.session,
            FlightKind::Slow,
            detail,
            true,
            job.trace.trace_id,
        );
    }
}

/// Flushes to the WAL and drops the sessions idle past the deadline.
/// An evicted session gets a parting snapshot so its eventual recovery
/// is O(snapshot), not O(history).
fn evict_idle(cfg: &ServeConfig, sessions: &mut HashMap<String, SessionEntry>) {
    let now = Instant::now();
    let idle: Vec<String> = sessions
        .iter()
        .filter(|(_, e)| now.duration_since(e.last_touch) >= cfg.idle_timeout)
        .map(|(n, _)| n.clone())
        .collect();
    for name in idle {
        if let Some(mut entry) = sessions.remove(&name) {
            let _ = entry.sync_all();
            if cfg.snapshot_every > 0 {
                entry.snapshot_now(&cfg.root, &cfg.faults);
            }
            riot_trace::registry()
                .counter("serve.sessions.evicted")
                .inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    /// The routed reply channel of one pretend connection.
    fn routed() -> (ReplyTx, Receiver<(u64, Reply)>) {
        let (tx, rx) = channel();
        let wake = Arc::new(crate::net::WakePipe::new().unwrap());
        (ReplyTx::routed(tx, 1, wake), rx)
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("riot-serve-mgr-{tag}-{}", std::process::id()));
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
    fn open_cmd_close_round_trip() {
        let root = tmp_root("roundtrip");
        let mgr = SessionManager::start(test_cfg(&root)).unwrap();
        let (tx, rx) = routed();
        mgr.submit(
            "a",
            JobKind::Open { cell: "TOP".into() },
            1,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        assert_eq!(
            rx.recv().unwrap().1,
            Reply {
                id: 1,
                body: ReplyBody::Ok("created".into())
            }
        );
        mgr.submit(
            "a",
            JobKind::Cmd {
                line: "create nand2 I0".into(),
            },
            2,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        let rep = rx.recv().unwrap().1;
        assert_eq!(rep.id, 2);
        assert!(
            matches!(rep.body, ReplyBody::Ok(ref d) if d.starts_with("instance")),
            "{rep:?}"
        );
        mgr.submit("a", JobKind::Close, 3, TraceContext::NONE, tx)
            .unwrap();
        assert_eq!(
            rx.recv().unwrap().1,
            Reply {
                id: 3,
                body: ReplyBody::Ok("closed".into())
            }
        );
        mgr.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn pipelined_replies_stay_in_order() {
        let root = tmp_root("order");
        let mgr = SessionManager::start(test_cfg(&root)).unwrap();
        let (tx, rx) = routed();
        mgr.submit(
            "p",
            JobKind::Open { cell: "TOP".into() },
            0,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        for i in 1..=20u64 {
            mgr.submit(
                "p",
                JobKind::Cmd {
                    line: format!("create nand2 N{i}"),
                },
                i,
                TraceContext::NONE,
                tx.clone(),
            )
            .unwrap();
        }
        let ids: Vec<u64> = (0..=20).map(|_| rx.recv().unwrap().1.id).collect();
        assert_eq!(ids, (0..=20).collect::<Vec<_>>());
        mgr.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn full_inbox_reports_busy_without_queueing() {
        let root = tmp_root("busy");
        let mut cfg = test_cfg(&root);
        cfg.threads = 1;
        cfg.inbox_cap = 4;
        let mgr = SessionManager::start(cfg).unwrap();
        let (tx, rx) = routed();
        // Stall the single worker so the inbox backs up.
        mgr.submit(
            "b",
            JobKind::Stall { ms: 300 },
            0,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(50)); // let the worker pick it up
        let mut busy = 0;
        for i in 1..=50u64 {
            match mgr.submit(
                "b",
                JobKind::Stall { ms: 0 },
                i,
                TraceContext::NONE,
                tx.clone(),
            ) {
                Ok(()) => {}
                Err(ReplyBody::Busy) => busy += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(busy > 0, "bounded inbox never pushed back");
        drop(tx);
        while rx.recv().is_ok() {}
        mgr.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn cmd_without_open_recovers_or_errors() {
        let root = tmp_root("lazy");
        let mgr = SessionManager::start(test_cfg(&root)).unwrap();
        let (tx, rx) = routed();
        mgr.submit(
            "ghost",
            JobKind::Cmd {
                line: "create nand2 X".into(),
            },
            1,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        let rep = rx.recv().unwrap().1;
        assert!(matches!(rep.body, ReplyBody::Err(ref m) if m.contains("no such session")));
        // Open, close (flushes WAL), then cmd transparently recovers.
        mgr.submit(
            "ghost",
            JobKind::Open { cell: "TOP".into() },
            2,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        rx.recv().unwrap();
        mgr.submit("ghost", JobKind::Close, 3, TraceContext::NONE, tx.clone())
            .unwrap();
        rx.recv().unwrap();
        mgr.submit(
            "ghost",
            JobKind::Cmd {
                line: "create nand2 X".into(),
            },
            4,
            TraceContext::NONE,
            tx,
        )
        .unwrap();
        let rep = rx.recv().unwrap().1;
        assert!(matches!(rep.body, ReplyBody::Ok(_)), "{rep:?}");
        mgr.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn journal_append_fault_crashes_then_recovers_cleanly() {
        let root = tmp_root("fault");
        let cfg = test_cfg(&root);
        // Trip on the 3rd journal-append consultation: after the open
        // head, two commands succeed, the third crashes the session.
        cfg.faults.arm(FAULT_SERVE_JOURNAL_APPEND, 2);
        let mgr = SessionManager::start(cfg).unwrap();
        let (tx, rx) = routed();
        mgr.submit(
            "f",
            JobKind::Open { cell: "TOP".into() },
            0,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        rx.recv().unwrap();
        for i in 1..=3u64 {
            mgr.submit(
                "f",
                JobKind::Cmd {
                    line: format!("create nand2 C{i}"),
                },
                i,
                TraceContext::NONE,
                tx.clone(),
            )
            .unwrap();
            // Serialize so each command is its own batch: the fault arm
            // counts consultations, one per command.
            let rep = rx.recv().unwrap().1;
            if i <= 2 {
                assert!(matches!(rep.body, ReplyBody::Ok(_)), "cmd {i}: {rep:?}");
            } else {
                assert!(
                    matches!(rep.body, ReplyBody::Err(ref m) if m.contains("crashed")),
                    "cmd {i}: {rep:?}"
                );
            }
        }
        // Recovery: reopen and observe exactly the acknowledged prefix.
        mgr.submit(
            "f",
            JobKind::Open { cell: "TOP".into() },
            9,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        let rep = rx.recv().unwrap().1;
        match rep.body {
            ReplyBody::Ok(d) => {
                assert!(d.contains("recovered 3 records"), "{d}");
                assert!(d.contains("truncated"), "torn tail should be reported: {d}");
            }
            other => panic!("reopen failed: {other:?}"),
        }
        // Instance ids are arena indices: a fresh create on the
        // recovered session lands at index 2 iff exactly the two
        // acknowledged creates survived.
        mgr.submit(
            "f",
            JobKind::Cmd {
                line: "create nand2 C9".into(),
            },
            10,
            TraceContext::NONE,
            tx,
        )
        .unwrap();
        let rep = rx.recv().unwrap().1;
        assert_eq!(
            rep.body,
            ReplyBody::Ok("instance 2".into()),
            "acknowledged prefix only"
        );
        mgr.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn group_flush_fault_refuses_staged_runs_and_recovers() {
        let root = tmp_root("groupfault");
        let cfg = test_cfg(&root);
        // Trip the first group-flush consultation: the staged run's
        // records never reach disk, so its replies must refuse.
        cfg.faults.arm(riot_core::FAULT_SERVE_GROUP_FLUSH, 0);
        let mgr = SessionManager::start(cfg).unwrap();
        let (tx, rx) = routed();
        mgr.submit(
            "g",
            JobKind::Open { cell: "TOP".into() },
            0,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        rx.recv().unwrap();
        mgr.submit(
            "g",
            JobKind::Cmd {
                line: "create nand2 A".into(),
            },
            1,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        let rep = rx.recv().unwrap().1;
        assert!(
            matches!(rep.body, ReplyBody::Err(ref m) if m.contains("group flush")),
            "{rep:?}"
        );
        // Recovery sees only the durable prefix: the WAL head. The
        // refused create never happened.
        mgr.submit(
            "g",
            JobKind::Open { cell: "TOP".into() },
            2,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        let rep = rx.recv().unwrap().1;
        assert!(
            matches!(rep.body, ReplyBody::Ok(ref d) if d.contains("recovered 1 records")),
            "{rep:?}"
        );
        mgr.submit(
            "g",
            JobKind::Cmd {
                line: "create nand2 A".into(),
            },
            3,
            TraceContext::NONE,
            tx,
        )
        .unwrap();
        let rep = rx.recv().unwrap().1;
        assert_eq!(
            rep.body,
            ReplyBody::Ok("instance 0".into()),
            "refused command left no trace"
        );
        mgr.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn snapshots_cut_at_the_interval_keep_sessions_correct() {
        let root = tmp_root("snapint");
        let mut cfg = test_cfg(&root);
        cfg.snapshot_every = 4;
        let mgr = SessionManager::start(cfg).unwrap();
        let (tx, rx) = routed();
        mgr.submit(
            "si",
            JobKind::Open { cell: "TOP".into() },
            0,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        rx.recv().unwrap();
        for i in 1..=10u64 {
            mgr.submit(
                "si",
                JobKind::Cmd {
                    line: format!("create nand2 N{i}"),
                },
                i,
                TraceContext::NONE,
                tx.clone(),
            )
            .unwrap();
            let rep = rx.recv().unwrap().1;
            assert!(matches!(rep.body, ReplyBody::Ok(_)), "cmd {i}: {rep:?}");
        }
        mgr.submit("si", JobKind::Close, 99, TraceContext::NONE, tx.clone())
            .unwrap();
        rx.recv().unwrap();
        mgr.shutdown();
        // A snapshot was cut (interval 4 < 10 commands) and the WAL
        // compacted behind it.
        assert!(crate::snapshot::snap_path(&root, "si").exists());
        // Reopen from disk: snapshot + tail must equal the full state.
        let mgr = SessionManager::start(test_cfg(&root)).unwrap();
        let (tx, rx) = routed();
        mgr.submit(
            "si",
            JobKind::Open { cell: "TOP".into() },
            0,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        let rep = rx.recv().unwrap().1;
        assert!(
            matches!(rep.body, ReplyBody::Ok(ref d) if d.contains("recovered 11 records")),
            "{rep:?}"
        );
        mgr.submit(
            "si",
            JobKind::Cmd {
                line: "create nand2 X".into(),
            },
            1,
            TraceContext::NONE,
            tx,
        )
        .unwrap();
        let rep = rx.recv().unwrap().1;
        assert_eq!(
            rep.body,
            ReplyBody::Ok("instance 10".into()),
            "all ten creates survived the snapshot round-trip"
        );
        mgr.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn idle_sessions_are_evicted_and_recover_on_demand() {
        let root = tmp_root("evict");
        let mut cfg = test_cfg(&root);
        cfg.idle_timeout = Duration::from_millis(30);
        let mgr = SessionManager::start(cfg).unwrap();
        let (tx, rx) = routed();
        mgr.submit(
            "idle",
            JobKind::Open { cell: "TOP".into() },
            0,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        rx.recv().unwrap();
        mgr.submit(
            "idle",
            JobKind::Cmd {
                line: "create nand2 A".into(),
            },
            1,
            TraceContext::NONE,
            tx.clone(),
        )
        .unwrap();
        rx.recv().unwrap();
        let wait_for = |want: usize| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while mgr.live_sessions() != want && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            mgr.live_sessions()
        };
        assert_eq!(wait_for(1), 1);
        assert_eq!(wait_for(0), 0, "idle session should be evicted");
        // A fresh create after transparent recovery lands at index 1
        // iff the pre-eviction instance survived the WAL round-trip.
        mgr.submit(
            "idle",
            JobKind::Cmd {
                line: "create nand2 B".into(),
            },
            2,
            TraceContext::NONE,
            tx,
        )
        .unwrap();
        let rep = rx.recv().unwrap().1;
        assert_eq!(
            rep.body,
            ReplyBody::Ok("instance 1".into()),
            "transparent recovery"
        );
        mgr.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }
}
