//! `riot-bench profile`: replay a command journal under tracing and
//! report latency per command kind.
//!
//! ```text
//! riot-bench profile JOURNAL [--out PATH] [--chrome PATH]
//! riot-bench profile gen [PATH]
//! ```
//!
//! The first form replays the journal against the built-in cell menu
//! with `riot-trace` enabled, prints a count / total / p50 / p99 table
//! per command kind, and writes metrics `<kind>.count`,
//! `<kind>.total_ns`, `<kind>.p50_ns` and `<kind>.p99_ns`. `--chrome`
//! also writes a Chrome `trace_event` file for `chrome://tracing` or
//! Perfetto. Neither file is written unless both pass their checks.
//!
//! The `gen` form records a representative editing session (abutment
//! chain, river route, stretch, undo/redo, finish) as a replay journal,
//! by default `examples/profile_session.replay`, the journal CI
//! replays.

use crate::harness::{write, Flags, Report};
use riot::core::{replay, AbutOptions, Editor, Journal, Library, RouteOptions, StretchOptions};
use riot::geom::{Point, LAMBDA};
use riot::trace::export::fmt_ns;

/// The flags `profile` accepts.
pub const FLAGS: &[&str] = &["--out", "--chrome"];

/// The per-kind measures, in table order.
const MEASURES: [&str; 4] = ["count", "total_ns", "p50_ns", "p99_ns"];

/// A two-output driver leaf: pins `X`/`Y` on the right edge, 8λ apart.
const DRIVER: &str = "\
sticks driver
bbox 0 0 10 20
pin X right NP 10 6 2
pin Y right NP 10 14 2
wire NP 2 0 6 10 6
wire NP 2 0 14 10 14
end
";

/// A two-input receiver leaf: pins `A`/`B` on the left edge, 6λ apart.
const RECEIVER: &str = "\
sticks receiver
bbox 0 0 12 24
pin A left NP 0 6 2
pin B left NP 0 12 2
wire NP 2 0 6 8 6
wire NP 2 0 12 8 12
end
";

/// The cell menu every profile run starts from. Journals replayed by
/// this suite may reference any of these cells by name.
fn standard_library() -> Library {
    let mut lib = Library::new();
    lib.add_sticks_cell(riot::cells::shift_register())
        .expect("standard cell loads");
    lib.add_sticks_cell(riot::cells::nand2())
        .expect("standard cell loads");
    lib.add_sticks_cell(riot::cells::or2())
        .expect("standard cell loads");
    lib.load_sticks(DRIVER).expect("driver loads");
    lib.load_sticks(RECEIVER).expect("receiver loads");
    lib
}

/// Records the canonical profile session: an abutted shift-register
/// chain, a river route, a stretch connection, an undo/redo pair, and
/// the finishing pass.
fn record_session() -> Result<Journal, Box<dyn std::error::Error>> {
    let mut lib = standard_library();
    let sr = lib.find("shiftcell").ok_or("shiftcell missing")?;
    let drv = lib.find("driver").ok_or("driver missing")?;
    let rcv = lib.find("receiver").ok_or("receiver missing")?;

    let mut ed = Editor::open(&mut lib, "PROFILE")?;

    // A 4-stage shift-register chain, connected by abutment.
    let mut prev = ed.create_instance(sr)?;
    for k in 1..4 {
        let next = ed.create_instance(sr)?;
        ed.translate_instance(next, Point::new(30 * k * LAMBDA, 0))?;
        ed.connect(next, "SI", prev, "SO")?;
        ed.abut(AbutOptions::default())?;
        prev = next;
    }

    // A river route between a driver/receiver pair above the chain.
    let d1 = ed.create_instance(drv)?;
    ed.translate_instance(d1, Point::new(0, 100 * LAMBDA))?;
    let r1 = ed.create_instance(rcv)?;
    ed.translate_instance(r1, Point::new(40 * LAMBDA, 107 * LAMBDA))?;
    ed.connect(r1, "A", d1, "X")?;
    ed.route(RouteOptions::default())?;

    // A stretch connection on a second pair: the receiver's pins grow
    // apart to meet the driver's.
    let d2 = ed.create_instance(drv)?;
    ed.translate_instance(d2, Point::new(0, 200 * LAMBDA))?;
    let r2 = ed.create_instance(rcv)?;
    ed.translate_instance(r2, Point::new(40 * LAMBDA, 200 * LAMBDA))?;
    ed.connect(r2, "A", d2, "X")?;
    ed.connect(r2, "B", d2, "Y")?;
    ed.stretch(StretchOptions::default())?;

    // Exercise the history machinery.
    ed.translate_instance(d2, Point::new(0, 2 * LAMBDA))?;
    ed.undo()?;
    ed.redo()?;

    ed.finish()?;
    Ok(ed.journal().clone())
}

/// The command kinds in `r`, costliest first.
fn kinds(r: &Report) -> Vec<&str> {
    let mut kinds: Vec<&str> = r
        .metrics
        .keys()
        .filter_map(|name| name.strip_suffix(".count"))
        .collect();
    kinds.sort_by_key(|k| std::cmp::Reverse(r.metrics.get(&format!("{k}.total_ns"))));
    kinds
}

/// Runs either form of the suite.
///
/// # Errors
///
/// An unreadable or failing journal, a failed check, or a write.
pub fn run(flags: &Flags) -> Result<(), String> {
    let journal_path = match flags.positional.as_slice() {
        [gen] if gen == "gen" => return generate("examples/profile_session.replay"),
        [gen, path] if gen == "gen" => return generate(path),
        [path] => path,
        _ => return Err("wants JOURNAL, or gen [PATH]".into()),
    };
    let text = std::fs::read_to_string(journal_path)
        .map_err(|e| format!("cannot read {journal_path}: {e}"))?;
    let journal = Journal::parse(&text).map_err(|e| format!("bad journal {journal_path}: {e}"))?;

    riot::trace::reset();
    riot::trace::enable(true);
    let warnings = replay(&journal, &mut standard_library());
    riot::trace::enable(false);
    for w in warnings.map_err(|e| format!("replay failed: {e}"))? {
        eprintln!("warning: {w}");
    }

    let mut r = Report::new("profile", &[("commands", journal.commands().len())]);
    for (name, h) in riot::trace::registry().histograms() {
        let Some(kind) = name.strip_prefix("cmd.") else {
            continue;
        };
        if h.count() > 0 {
            r.set(format!("{kind}.count"), h.count());
            r.set(format!("{kind}.total_ns"), h.sum());
            r.set(format!("{kind}.p50_ns"), h.p50().unwrap_or(0));
            r.set(format!("{kind}.p99_ns"), h.p99().unwrap_or(0));
        }
    }
    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>10}",
        "command", "count", "total", "p50", "p99"
    );
    for kind in kinds(&r) {
        let v = |m: &str| r.metrics[&format!("{kind}.{m}")];
        println!(
            "{kind:<16} {:>8} {:>10} {:>10} {:>10}",
            v("count"),
            fmt_ns(v("total_ns")),
            fmt_ns(v("p50_ns")),
            fmt_ns(v("p99_ns")),
        );
    }

    // The Chrome trace is checked before either file is written, and
    // the report first, so an empty profile fails as one.
    check(&r)?;
    let chrome = flags
        .text("--chrome")
        .map(|path| (path, riot::trace::chrome_trace()));
    if let Some((_, trace)) = &chrome {
        let events = trace.matches("\"ph\":").count();
        if events == 0 || trace.matches("\"ph\":\"X\"").count() != events {
            return Err(
                "the Chrome trace is empty or has events that are not complete spans".into(),
            );
        }
    }
    write(&r, flags)?;
    if let Some((path, trace)) = chrome {
        std::fs::write(path, trace).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Writes the canonical session's journal to `path`.
fn generate(path: &str) -> Result<(), String> {
    let journal = record_session().map_err(|e| format!("session recording failed: {e}"))?;
    std::fs::write(path, journal.to_text()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote {path} ({} commands)", journal.commands().len());
    Ok(())
}

/// The profile report's checks: at least one command kind, and for
/// each a positive count, every measure present, and p50 ≤ p99.
///
/// # Errors
///
/// The first check that fails.
pub fn check(r: &Report) -> Result<(), String> {
    r.param("commands")?;
    let kinds = kinds(r);
    if kinds.is_empty() {
        return Err("the journal produced no command spans".into());
    }
    for kind in kinds {
        for m in MEASURES {
            r.get(&format!("{kind}.{m}"))?;
        }
        r.positive(&format!("{kind}.count"))?;
        let (p50, p99) = (
            r.get(&format!("{kind}.p50_ns"))?,
            r.get(&format!("{kind}.p99_ns"))?,
        );
        if p50 > p99 {
            return Err(format!("{kind}: p50 {p50} ns above p99 {p99} ns"));
        }
    }
    Ok(())
}
