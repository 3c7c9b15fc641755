//! # riot-serve — headless multi-session composition server
//!
//! Hosts many concurrent [`riot_core::Editor`] sessions behind the
//! `RIOTSRV2` binary wire protocol (length-prefixed, CRC-checksummed
//! frames with client-chosen request ids for pipelining and optional
//! trace contexts) over TCP or Unix-domain sockets.
//!
//! * [`proto`] — frames, requests, replies, handshake
//! * [`session`] — WAL-backed hosted sessions (durability + recovery)
//! * [`snapshot`] — `RIOTSNAP1` session snapshots (O(tail) recovery,
//!   WAL compaction)
//! * [`manager`] — the sharded worker pool (batching, one flush pass
//!   per drained batch, backpressure, idle eviction)
//! * [`conn`] — the pure per-connection state machine behind the poll
//!   event loop (zero-copy scan buffer, bounded write backlog)
//! * [`server`] — the readiness-driven event loop, accept, drain
//! * [`client`] — a small blocking client used by the bench, the CLI
//!   and the tests
//! * [`bench`] — the load generator behind `riot-serve bench`
//! * [`fault`] — request-path fault injection
//! * [`flightrec`] — the always-on bounded ring of recent events,
//!   dumped on panic, crash or the `dump` verb
//! * [`telemetry`] — the `--telemetry-addr` HTTP scrape endpoint
//!
//! The durability contract, in one line: **an `ok` reply is released
//! only after the command's journal record is flushed to the
//! session's WAL**, so anything a client saw acknowledged survives a
//! crash (recovery truncates at the first torn record and replays the
//! intact prefix).

pub mod bench;
pub mod client;
pub mod config;
pub mod conn;
pub mod fault;
pub mod flightrec;
pub mod manager;
pub mod net;
pub mod proto;
pub mod server;
pub mod session;
pub mod snapshot;
pub mod telemetry;

pub use bench::{
    run_bench, run_conn_point, run_conn_scaling, run_recovery_bench, run_suite, BenchConfig,
    BenchReport, BenchSuite, ConnScalePoint, RecoveryPoint,
};
pub use client::Client;
pub use config::{resolve_threads, standard_library, LibraryFactory, ServeConfig};
pub use conn::{ConnEvent, ConnState, Connection, QueueOutcome, TraceEvent};
pub use fault::ServeFaults;
pub use flightrec::{FlightEvent, FlightKind, FlightRecorder};
pub use manager::{JobKind, ReplyTx, SessionManager};
pub use net::{Bind, BoundAddr, Interest, Listener, PollSet, Readiness, Stream, WakePipe};
pub use proto::{
    decode_frame_eof, encode_frame, handshake_client, read_frame_into, scan_frame_ref,
    valid_session_name, write_frame, FrameCorruption, FrameScanRef, ProtoError, Reply, ReplyBody,
    Request, RequestBody, RequestBodyRef, RequestRef, TelemetryFormat, SRV_MAGIC_V2,
};
pub use server::{Server, ServerHandle};
pub use session::{wal_path, OpenKind, SessionEntry};
pub use snapshot::{
    frame_snapshot, load_snapshot, parse_snapshot, snap_path, write_snapshot, SnapLoad,
    SnapshotError, SNAP_MAGIC,
};
pub use telemetry::TelemetryServer;
