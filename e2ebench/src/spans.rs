//! Bench-side tracing: the collector that keeps the spans of traced
//! work out of the global ring.
//!
//! Every traced unit of work — a wire command sent with a trace
//! context, a reference replay, a verify pass, a routed channel — starts
//! a fresh trace whose id is registered here. The engine and the server
//! record their own spans into the process-wide `riot_trace` ring;
//! [`drain`] moves the spans of registered traces out of the ring (the
//! rest, from untraced commands, is dropped) before it can overflow.

use riot::trace::{self, SpanRecord, TraceContext};
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, OnceLock};

#[derive(Default)]
struct Collected {
    traces: HashSet<u64>,
    kept: Vec<SpanRecord>,
}

fn collected() -> MutexGuard<'static, Collected> {
    static C: OnceLock<Mutex<Collected>> = OnceLock::new();
    C.get_or_init(Mutex::default)
        .lock()
        .expect("no thread panics while holding the span collector")
}

/// A fresh registered trace context, or [`TraceContext::NONE`] while
/// tracing is off.
pub fn context() -> TraceContext {
    if !trace::enabled() {
        return TraceContext::NONE;
    }
    let id = trace::fresh_trace_id();
    collected().traces.insert(id);
    TraceContext::new(id, 0)
}

/// Opens a root bench span in a fresh registered trace: everything the
/// layer records underneath it on this thread joins that trace.
pub fn root(name: &'static str) -> trace::Span {
    trace::span_with_context(name, context())
}

/// Moves the spans of registered traces from the global ring into the
/// collector and drops the rest.
pub fn drain() {
    let spans = trace::recorder().take();
    let mut c = collected();
    let Collected { traces, kept } = &mut *c;
    kept.extend(spans.into_iter().filter(|s| traces.contains(&s.trace)));
}

/// Drains one last time and hands over every kept span.
pub fn take() -> Vec<SpanRecord> {
    drain();
    let mut c = collected();
    c.traces.clear();
    std::mem::take(&mut c.kept)
}
