//! `riot-trace`: the observability substrate of the RIOT reproduction.
//!
//! The ROADMAP's north star is a system "as fast as the hardware
//! allows" — a claim that needs *measurement*, not vibes. This crate
//! provides the three pieces every later perf PR builds on:
//!
//! * **Spans** ([`span`](fn@span), [`span!`]) — guard-style timed
//!   regions with optional `u64` key/value fields, nested via a
//!   per-thread stack.
//!   Finished spans land in a global ring-buffer [`Recorder`] and feed
//!   a per-span-name latency [`Histogram`] automatically.
//! * **Metrics registry** ([`registry`]) — named monotonic
//!   [`Counter`]s, [`Gauge`]s, and fixed-log2-bucket latency
//!   [`Histogram`]s with p50/p95/p99 estimation. All handles are
//!   lock-free on the hot path (atomics); the registry lock is only
//!   taken on first registration of a name.
//! * **Exporters** ([`summary`], [`chrome_trace`]) — a human-readable
//!   session summary and Chrome `trace_event` JSON loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! * **Trace context** ([`TraceContext`], [`span_with_context`],
//!   [`adopt`], [`complete_span`]) — explicit trace ids that follow a
//!   logical operation across threads and, via the riot-serve wire
//!   protocol, across processes; every span records the trace it
//!   belongs to.
//! * **Live exposition** ([`Snapshot`], [`prometheus`],
//!   [`json_snapshot`]) — point-in-time registry snapshots rendered as
//!   Prometheus text format or JSON, scrapeable while a server runs.
//!
//! # Cost model
//!
//! Tracing is **disabled by default**. A disabled [`span!`] is one
//! relaxed atomic load and a branch — no clock read, no allocation —
//! so instrumented hot paths stay within noise of uninstrumented ones.
//! Enable with [`enable`], or by setting the `RIOT_TRACE` environment
//! variable (see [`init_from_env`]).
//!
//! # `RIOT_TRACE` environment hook
//!
//! `RIOT_TRACE=summary` (or `1`) prints the session summary to stderr
//! when the instrumented application calls [`dump_from_env`] (the riot
//! editor does so on drop); `RIOT_TRACE=chrome:/path.json` writes the
//! Chrome trace to a file. Those are the only two sinks.
//!
//! # Example
//!
//! ```
//! riot_trace::enable(true);
//! {
//!     let mut s = riot_trace::span!("route.river", nets = 8u64);
//!     // ... do the work ...
//!     s.field("tracks", 3);
//! }
//! let spans = riot_trace::recorder().snapshot();
//! assert!(spans.iter().any(|r| r.name == "route.river"));
//! let h = riot_trace::registry().histogram("route.river");
//! assert!(h.count() >= 1);
//! riot_trace::enable(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod export;
pub mod expose;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use context::{adopt, current, fresh_trace_id, ContextGuard, TraceContext};
pub use export::{chrome_trace, summary};
pub use expose::{json_snapshot, prometheus, sanitize_metric_name, Snapshot};
pub use metrics::{registry, Counter, Gauge, Histogram, Registry};
pub use recorder::{recorder, Recorder, SpanRecord};
pub use span::{complete_span, span, span_with_context, Span};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span recording on or off globally.
///
/// Counters and gauges obtained directly from the [`registry`] always
/// work; this switch gates the span machinery (clock reads, ring-buffer
/// pushes, auto-histograms) so uninstrumented runs pay only an atomic
/// load per [`span!`] site.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The parsed form of the `RIOT_TRACE` environment variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSink {
    /// `RIOT_TRACE=summary`: human-readable summary to stderr.
    Summary,
    /// `RIOT_TRACE=chrome:/path.json`: Chrome trace export to a file.
    Chrome(String),
}

/// Parses a `RIOT_TRACE` value. Unknown forms yield `None`.
pub fn parse_sink(value: &str) -> Option<TraceSink> {
    let v = value.trim();
    if v.is_empty() {
        return None;
    }
    if v == "summary" || v == "1" {
        return Some(TraceSink::Summary);
    }
    if let Some(path) = v.strip_prefix("chrome:") {
        return Some(TraceSink::Chrome(path.to_owned()));
    }
    None
}

fn env_sink() -> Option<&'static TraceSink> {
    static SINK: OnceLock<Option<TraceSink>> = OnceLock::new();
    SINK.get_or_init(|| {
        std::env::var("RIOT_TRACE")
            .ok()
            .and_then(|v| parse_sink(&v))
    })
    .as_ref()
}

/// Enables tracing when the `RIOT_TRACE` environment variable names a
/// valid sink. Cheap after the first call; instrumented applications
/// call this at session start (the riot editor does in `Editor::open`).
pub fn init_from_env() {
    if env_sink().is_some() {
        enable(true);
    }
}

/// Dumps the collected trace to the sink named by `RIOT_TRACE`, if any.
/// Returns the sink used. The riot editor calls this on drop, so
/// `RIOT_TRACE=chrome:/tmp/t.json cargo run --example quickstart` "just
/// works". File-write failures are reported on stderr, never panic.
pub fn dump_from_env() -> Option<TraceSink> {
    let sink = env_sink()?;
    match sink {
        TraceSink::Summary => eprintln!("{}", summary()),
        TraceSink::Chrome(path) => {
            if let Err(e) = std::fs::write(path, chrome_trace()) {
                eprintln!("riot-trace: cannot write {path}: {e}");
            }
        }
    }
    Some(sink.clone())
}

/// Clears the recorder and every registry metric. Intended for the
/// replay profiler and tests; concurrent recordings may interleave.
pub fn reset() {
    recorder().clear();
    registry().reset();
}

/// Opens a guard-style span with optional `u64` fields:
///
/// ```
/// riot_trace::enable(true);
/// let _s = riot_trace::span!("cif.parse", bytes = 1024u64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let mut __riot_span = $crate::span($name);
        $(__riot_span.field(stringify!($key), $value as u64);)+
        __riot_span
    }};
}

/// Serializes the unit tests that flip the global [`enable`] flag or
/// count records in the global recorder; the test harness runs them on
/// parallel threads.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_parsing() {
        assert_eq!(parse_sink("summary"), Some(TraceSink::Summary));
        assert_eq!(parse_sink("1"), Some(TraceSink::Summary));
        assert_eq!(parse_sink("jsonl:/tmp/x.jsonl"), None, "no JSON-lines sink");
        assert_eq!(
            parse_sink("chrome:/tmp/x.json"),
            Some(TraceSink::Chrome("/tmp/x.json".into()))
        );
        assert_eq!(parse_sink(""), None);
        assert_eq!(parse_sink("bogus"), None);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = test_lock();
        enable(false);
        let before = recorder().snapshot().len();
        {
            let _s = span!("test.disabled", n = 1u64);
        }
        assert_eq!(recorder().snapshot().len(), before);
    }
}
