//! Server configuration.
//!
//! Everything tunable about a [`crate::Server`] lives here so tests can
//! shrink timeouts and inboxes to milliseconds and single digits while
//! the binary ships sensible production defaults. The WAL root is
//! always explicit — library code never hardcodes a directory (the
//! `riot-serve` binary defaults `--root` to `./riot-serve-data`, but
//! that decision lives in the binary, not here).

use crate::fault::ServeFaults;
use crate::flightrec::FlightRecorder;
use riot_core::Library;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Builds the library every fresh session starts from. Sessions never
/// share a [`Library`] (each worker-owned session has its own), so the
/// factory is called once per `open`.
pub type LibraryFactory = Arc<dyn Fn() -> Library + Send + Sync>;

/// The library new sessions edit: the four menu cells every other
/// subsystem in this repo exercises (`nand2`, `or2`, `shift_register`
/// and the CIF pads). Mirrors `riot_check::menu_library` so the
/// riot-check reference model is valid against served sessions.
pub fn standard_library() -> Library {
    let mut lib = Library::new();
    lib.add_sticks_cell(riot_cells::nand2())
        .expect("nand2 loads");
    lib.add_sticks_cell(riot_cells::or2()).expect("or2 loads");
    lib.add_sticks_cell(riot_cells::shift_register())
        .expect("shift_register loads");
    lib.load_cif(&riot_cells::pads_cif()).expect("pads load");
    lib
}

/// Resolves the worker count: an explicit request if positive, else the
/// `RIOT_SERVE_THREADS` environment variable, else the machine
/// parallelism. Always at least 1; capped at 64. Mirrors
/// `riot_geom::par::threads` (which answers to `RIOT_THREADS`) so both
/// knobs behave identically.
pub fn resolve_threads(requested: usize) -> usize {
    let n = if requested > 0 {
        requested
    } else {
        std::env::var("RIOT_SERVE_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
    };
    n.clamp(1, 64)
}

/// Configuration for one server instance.
#[derive(Clone)]
pub struct ServeConfig {
    /// Directory holding one `<session>.wal` per session. Created on
    /// server start if missing.
    pub root: PathBuf,
    /// Worker threads (0 = resolve via [`resolve_threads`]).
    pub threads: usize,
    /// Bounded depth of each worker's job queue. A full queue turns
    /// into an explicit `busy` reply, never an unbounded buffer.
    pub inbox_cap: usize,
    /// Most jobs a worker drains from its inbox as one batch. Every
    /// batch ends in one flush pass — one fsync per dirty WAL — that
    /// releases the batch's command replies.
    pub batch_max: usize,
    /// Worker scheduling tick: how long a worker sleeps waiting for
    /// jobs before running housekeeping (idle eviction).
    pub tick: Duration,
    /// Sessions untouched for this long are flushed to their WAL and
    /// dropped from memory; a later `cmd` transparently reopens them.
    pub idle_timeout: Duration,
    /// Cut a `RIOTSNAP1` snapshot (and compact the WAL behind it) every
    /// time this many journal records accumulate past the last
    /// snapshot; idle eviction also cuts one. `0` disables snapshots.
    pub snapshot_every: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Most pending write-backlog bytes per connection. Reads pause at a quarter of this; crossing it
    /// evicts the connection (`serve.conn.evicted`).
    pub conn_backlog_max: usize,
    /// Library every fresh session starts from.
    pub library: LibraryFactory,
    /// Fault injection for the request path (disarmed by default).
    pub faults: ServeFaults,
    /// `host:port` for the telemetry HTTP listener (`/metrics`,
    /// `/metrics.json`, `/flightrec`, `/healthz`). `None` (the
    /// default) starts no listener; the `telemetry` wire verb works
    /// regardless.
    pub telemetry_addr: Option<String>,
    /// Commands slower than this (enqueue → reply) are logged with
    /// decomposed phase timings and recorded in the flight recorder.
    pub slow_threshold: Duration,
    /// The always-on flight recorder: shared with every worker and the
    /// event loop, dumped on panic, fault trip, or the `dump`
    /// wire verb. Replace with `Arc::new(FlightRecorder::new(cap))` to
    /// change the ring size (default 4096 events).
    pub flightrec: Arc<FlightRecorder>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("root", &self.root)
            .field("threads", &self.threads)
            .field("inbox_cap", &self.inbox_cap)
            .field("batch_max", &self.batch_max)
            .field("tick", &self.tick)
            .field("idle_timeout", &self.idle_timeout)
            .field("snapshot_every", &self.snapshot_every)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("conn_backlog_max", &self.conn_backlog_max)
            .field("telemetry_addr", &self.telemetry_addr)
            .field("slow_threshold", &self.slow_threshold)
            .finish_non_exhaustive()
    }
}

impl ServeConfig {
    /// Defaults for `root`: 0 (auto) threads, 256-job inboxes, 64-job
    /// batches, 20 ms ticks, 60 s idle eviction, snapshots every 1000
    /// records, 30 s socket timeouts, 4 MiB write backlogs, the
    /// [`standard_library`], no faults, no telemetry listener, a
    /// 100 ms slow-command threshold, and a 4096-event flight
    /// recorder.
    pub fn new(root: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            root: root.into(),
            threads: 0,
            inbox_cap: 256,
            batch_max: 64,
            tick: Duration::from_millis(20),
            idle_timeout: Duration::from_secs(60),
            snapshot_every: 1000,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            conn_backlog_max: 4 << 20,
            library: Arc::new(standard_library),
            faults: ServeFaults::none(),
            telemetry_addr: None,
            slow_threshold: Duration::from_millis(100),
            flightrec: Arc::new(FlightRecorder::new(4096)),
        }
    }

    /// The effective worker count ([`resolve_threads`] of `threads`).
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_has_the_menu_cells() {
        let lib = standard_library();
        for name in ["nand2", "or2", "shiftcell"] {
            assert!(
                lib.find(name).is_some(),
                "{name} missing from standard library"
            );
        }
    }

    #[test]
    fn explicit_thread_requests_win_and_are_clamped() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(10_000), 64);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig::new("/tmp/x");
        assert!(cfg.inbox_cap > 0);
        assert!(cfg.batch_max > 0);
        assert!(cfg.effective_threads() >= 1);
    }
}
