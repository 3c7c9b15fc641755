//! Exporters: human-readable summary and Chrome `trace_event` JSON.
//!
//! All JSON is emitted by hand (the crate has zero dependencies); only
//! span names and field keys — short static identifiers — and metric
//! names reach the output, and every string is escaped anyway.

use crate::metrics::registry;
use crate::recorder::{recorder, SpanRecord};
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn fields_json(fields: &[(&'static str, u64)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape_json(k), v);
    }
    out.push('}');
    out
}

/// Pretty-prints a nanosecond quantity (`123ns`, `4.5µs`, `6.7ms`,
/// `8.9s`).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// A human-readable session summary: counters, gauges, and latency
/// histograms with count/mean/p50/p95/p99/max. This is what the `STATS`
/// textual command and `RIOT_TRACE=summary` print.
pub fn summary() -> String {
    let reg = registry();
    let mut out = String::from("== riot-trace session summary ==\n");
    let counters = reg.counters();
    let gauges = reg.gauges();
    let hists = reg.histograms();
    if counters.iter().all(|(_, v)| *v == 0)
        && hists.iter().all(|(_, h)| h.count() == 0)
        && gauges.is_empty()
    {
        out.push_str("(no metrics recorded; set RIOT_TRACE or call riot_trace::enable)\n");
    }
    if counters.iter().any(|(_, v)| *v > 0) {
        out.push_str("counters:\n");
        for (name, v) in &counters {
            if *v > 0 {
                let _ = writeln!(out, "  {name:<28} {v}");
            }
        }
    }
    if !gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &gauges {
            let _ = writeln!(out, "  {name:<28} {v}");
        }
    }
    let live: Vec<_> = hists.iter().filter(|(_, h)| h.count() > 0).collect();
    if !live.is_empty() {
        let _ = writeln!(
            out,
            "latency:\n  {:<28} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "span", "count", "mean", "p50", "p95", "p99", "max"
        );
        for (name, h) in live {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                name,
                h.count(),
                fmt_ns(h.mean().unwrap_or(0.0) as u64),
                fmt_ns(h.p50().unwrap_or(0)),
                fmt_ns(h.p95().unwrap_or(0)),
                fmt_ns(h.p99().unwrap_or(0)),
                fmt_ns(h.max().unwrap_or(0)),
            );
        }
    }
    let dropped = recorder().dropped();
    let _ = writeln!(
        out,
        "spans buffered: {}{}",
        recorder().len(),
        if dropped > 0 {
            format!(" ({dropped} evicted)")
        } else {
            String::new()
        }
    );
    out
}

/// Chrome `trace_event` export: a JSON array of complete (`"ph":"X"`)
/// events, loadable in `chrome://tracing` and Perfetto. Timestamps and
/// durations are microseconds (fractional, preserving ns precision);
/// span fields appear under `args`.
pub fn chrome_trace() -> String {
    chrome_trace_of(&recorder().snapshot())
}

/// [`chrome_trace`] over an explicit span list (the profiler uses this
/// to export a drained ring).
pub fn chrome_trace_of(spans: &[SpanRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"riot\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
            escape_json(r.name),
            micros(r.start_ns),
            micros(r.dur_ns),
            r.thread,
            fields_json(&r.fields),
        );
    }
    out.push_str("\n]\n");
    out
}

/// Nanoseconds as a decimal microsecond literal with ns precision
/// (`1234` ns → `1.234`).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, id: u64) -> SpanRecord {
        SpanRecord {
            name,
            id,
            parent: 0,
            trace: id,
            thread: 1,
            start_ns: 1_500,
            dur_ns: 2_250,
            fields: vec![("nets", 4)],
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let t = chrome_trace_of(&[rec("route.river", 1), rec("rest.solve", 2)]);
        assert!(t.trim_start().starts_with('['));
        assert!(t.trim_end().ends_with(']'));
        assert!(t.contains("\"ph\":\"X\""));
        assert!(t.contains("\"ts\":1.500"));
        assert!(t.contains("\"dur\":2.250"));
        assert!(t.contains("\"args\":{\"nets\":4}"));
        // Balanced braces/brackets (a structural smoke test; the CI
        // profile step runs a real JSON parser over the artifact).
        let open = t.matches('{').count();
        let close = t.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn empty_chrome_trace_is_valid_array() {
        assert_eq!(chrome_trace_of(&[]).trim(), "[\n]");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn fmt_ns_ranges() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }

    #[test]
    fn summary_mentions_emptiness() {
        // Cannot assert much about the shared registry, but summary
        // must never panic and always carries the header.
        assert!(summary().starts_with("== riot-trace session summary =="));
    }
}
