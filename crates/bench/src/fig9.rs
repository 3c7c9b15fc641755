//! `riot-bench fig9`: the paper's Fig 9 filter logic, river-routed (9a)
//! and stretched (9b), at 64, 128, 256 and 512 bits.
//!
//! ```text
//! riot-bench fig9 [--out PATH]
//! ```
//!
//! For each style and size the suite builds the block with
//! [`build_logic`] and replays the journal that build recorded on a
//! fresh [`logic_menu`] through one editor that owns the menu, as a host
//! keeps a session between commands. A replay's time counts only if the
//! replay measures like the build, and the replayed session is timed
//! only after it re-encodes to the same bytes through an
//! `encode_session` / `decode_session` round trip. Each time is the
//! fastest of `PASSES`:
//!
//! * the replay (`live_ns`), and each command kind's share of the
//!   fastest pass (`<kind>.count`, `<kind>.total_ns`, with tracing off;
//!   `profile` is the traced view);
//! * the replayed session's `session_bytes`, `encode_ns` and
//!   `decode_ns`;
//! * CIF export, flatten and DRC of the block (`export_ns`,
//!   `flatten_ns`, `flat_shapes`, `drc_ns`, `violations`, and
//!   `other_violations`, those that are not the 2λ diffusion corner
//!   case);
//! * every instance's world connectors, cached against rebuilt
//!   (`connectors_cached_ns`, `connectors_recompute_ns`).
//!
//! Metrics are named `<style>.<bits>.<measure>`, so
//! `Report::axis("routed", "drc_ns")` reads one series. The sizes and
//! the pass count are constants.

use crate::harness::{best_of, timed, write, Flags, Report};
use riot::core::measure::measure;
use riot::core::{decode_session, encode_session, Command, Editor, Library, RiotError};
use riot::drc::{RuleSet, Violation};
use riot::filter::{build_logic, logic_menu, FilterLogic, LogicStyle};
use riot::geom::{Layer, LAMBDA};
use riot::trace::export::fmt_ns;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::hint::black_box;

/// The flags `fig9` accepts.
pub const FLAGS: &[&str] = &["--out"];

/// The filter sizes the suite measures, in bits.
pub const BITS: [usize; 4] = [64, 128, 256, 512];

/// Both ways of connecting the gate rows.
pub const STYLES: [LogicStyle; 2] = [LogicStyle::Routed, LogicStyle::Stretched];

/// Every time is the fastest of this many passes.
const PASSES: usize = 3;

/// Passes over every instance in one connector timing: one pass of
/// cached lookups is too short to time alone.
const CONNECTOR_ROUNDS: usize = 20;

/// From this size up, rebuilding world connectors must cost at least
/// [`CACHE_SPEEDUP`] times the cached lookup.
const CACHE_GATE_BITS: u64 = 64;

/// The cached-connector gate: recompute over cached.
const CACHE_SPEEDUP: u64 = 5;

/// The most, in tenths, that the routed session may grow from one size
/// to the next: each undo record holds only what its command changed,
/// so the payload follows the block, not commands × instances.
const SESSION_GROWTH_TENTHS: u64 = 22;

/// The most the routed block's DRC may cost over the stretched one's
/// at the same size. The two hold nearly as many flat shapes; the
/// routed poly's overlapping river-route jogs must not make its check
/// slower in kind.
const DRC_ROUTED_OVER_STRETCHED: u64 = 4;

/// The measures of every `<style>.<bits>` point beside its per-kind
/// ones. Those ending in `_ns` are timings and must be positive.
const MEASURES: [&str; 16] = [
    "commands",
    "width",
    "height",
    "route_cells",
    "live_ns",
    "session_bytes",
    "encode_ns",
    "decode_ns",
    "export_ns",
    "flatten_ns",
    "flat_shapes",
    "drc_ns",
    "violations",
    "other_violations",
    "connectors_cached_ns",
    "connectors_recompute_ns",
];

/// Command count and total execute time per command kind.
type Kinds = BTreeMap<&'static str, (u64, u64)>;

/// Measures, checks and writes the fig9 report.
///
/// # Errors
///
/// A failed assembly, replay or check, or the write.
pub fn run(flags: &Flags) -> Result<(), String> {
    let r = sweep(&BITS)?;
    println!(
        "{:<10} {:>5} {:>6} {:>10} {:>6} {:>9} {:>9} {:>9} {:>5}",
        "style", "bits", "cmds", "w x h λ", "routes", "live", "session", "drc", "viol"
    );
    for bits in BITS {
        for style in STYLES {
            let v = |m: &str| r.metrics[&format!("{}.{bits}.{m}", style.name())];
            println!(
                "{:<10} {bits:>5} {:>6} {:>10} {:>6} {:>9} {:>8}K {:>9} {:>5}",
                style.name(),
                v("commands"),
                format!("{}x{}", v("width"), v("height")),
                v("route_cells"),
                fmt_ns(v("live_ns")),
                v("session_bytes") / 1024,
                fmt_ns(v("drc_ns")),
                v("violations"),
            );
        }
    }
    write(&r, flags)
}

/// The suite's report at each of `bits`, in both styles.
///
/// # Errors
///
/// A failed assembly or replay, or a replay that differs from its build.
///
/// # Panics
///
/// As [`build_logic`], when a size is not a power of two of at least 4.
pub fn sweep(bits: &[usize]) -> Result<Report, String> {
    let mut r = Report::new("fig9", &[("passes", PASSES)]);
    bits.iter().try_for_each(|&bits| {
        STYLES.iter().try_for_each(|&style| {
            point(&mut r, style, bits).map_err(|e| format!("{} at {bits} bits: {e}", style.name()))
        })
    })?;
    Ok(r)
}

/// Builds, checks and times one style at one size into `r`.
fn point(r: &mut Report, style: LogicStyle, bits: usize) -> Result<(), Box<dyn Error>> {
    let FilterLogic {
        mut lib,
        cell,
        report,
        journal,
    } = build_logic(bits, style)?;
    let commands = &journal.commands()[1..];

    let mut fastest: Option<(u64, Kinds)> = None;
    let mut session = None;
    for _ in 0..PASSES {
        // One replay's history in memory at a time.
        drop(session.take());
        let (ns, kinds, ed) = live(&cell, commands)?;
        let got = measure(ed.library(), &cell)?;
        if got != report {
            return Err(format!("the replay measures {got:?}, the build {report:?}").into());
        }
        if fastest.as_ref().is_none_or(|(best, _)| ns < *best) {
            fastest = Some((ns, kinds));
        }
        session = Some(ed);
    }
    let (live_ns, kinds) = fastest.expect("at least one pass");
    let ed = session.expect("at least one pass");

    let bytes = encode_session(&ed)?;
    if encode_session(&decode_session(&bytes)?)? != bytes {
        return Err("the decoded session re-encodes to other bytes".into());
    }
    let (encode_ns, _) = best_of(PASSES, || encode_session(&ed));
    drop(ed);
    let (decode_ns, _) = best_of(PASSES, || decode_session(&bytes));

    let (export_ns, cif) = best_of(PASSES, || riot::core::export::to_cif(&lib, &cell));
    let cif = cif?;
    let (flatten_ns, flat) = best_of(PASSES, || riot::cif::flatten(&cif));
    let flat = flat?;
    let rules = RuleSet::nmos();
    let (drc_ns, violations) = best_of(PASSES, || riot::drc::check(&flat, &rules));
    let (connectors_cached_ns, connectors_recompute_ns) = connectors(&mut lib, &cell)?;

    let key = |m: &str| format!("{}.{bits}.{m}", style.name());
    for (m, v) in [
        ("commands", commands.len() as u64),
        ("width", (report.bbox.width() / LAMBDA) as u64),
        ("height", (report.bbox.height() / LAMBDA) as u64),
        ("route_cells", report.route_instances as u64),
        ("live_ns", live_ns),
        ("session_bytes", bytes.len() as u64),
        ("encode_ns", encode_ns),
        ("decode_ns", decode_ns),
        ("export_ns", export_ns),
        ("flatten_ns", flatten_ns),
        ("flat_shapes", flat.len() as u64),
        ("drc_ns", drc_ns),
        ("violations", violations.len() as u64),
        (
            "other_violations",
            violations.iter().filter(|v| !corner_case(v)).count() as u64,
        ),
        ("connectors_cached_ns", connectors_cached_ns),
        ("connectors_recompute_ns", connectors_recompute_ns),
    ] {
        r.set(key(m), v);
    }
    for (kind, (count, ns)) in kinds {
        r.set(key(&format!("{kind}.count")), count);
        r.set(key(&format!("{kind}.total_ns")), ns);
    }
    Ok(())
}

/// The one violation a Fig 9 block may hold: two unconnected diffusion
/// corners 2λ apart on both axes (2.8λ Euclidean), once per routed gate
/// junction. Many NMOS decks relax the corner rule to exactly this
/// case; `tests/drc_chip.rs` pins it at 4 bits.
fn corner_case(v: &Violation) -> bool {
    matches!(
        v,
        Violation::Spacing { layer: Layer::Diffusion, measured, required, .. }
            if *measured == 2 * LAMBDA && *required == 3 * LAMBDA
    )
}

/// One replay of `commands` on `cell` through one editor that owns a
/// fresh menu: the pass's wall time, each kind's count and execute
/// time, and the editor, which is dropped outside the timing.
fn live(cell: &str, commands: &[Command]) -> Result<(u64, Kinds, Editor<'static>), RiotError> {
    let lib = logic_menu()?;
    let mut kinds = Kinds::new();
    let (ns, ed) = timed(|| {
        let mut ed = Editor::open_owned(lib, cell)?;
        for cmd in commands {
            let (kind, cmd) = (cmd.kind_name(), cmd.clone());
            let (ns, done) = timed(|| ed.execute(cmd));
            done?;
            let k = kinds.entry(kind).or_default();
            k.0 += 1;
            k.1 += ns;
        }
        Ok::<_, RiotError>(ed)
    });
    Ok((ns, kinds, ed?))
}

/// [`CONNECTOR_ROUNDS`] passes over every instance of `cell`'s world
/// connectors, timed through the editor's cache and rebuilt from each
/// instance and its cell. Both ways must count the same connectors.
fn connectors(lib: &mut Library, cell: &str) -> Result<(u64, u64), Box<dyn Error>> {
    let ed = Editor::open(lib, cell)?;
    let ids: Vec<_> = ed.instances().into_iter().map(|(id, _)| id).collect();
    let cached = || -> Result<usize, RiotError> {
        let mut n = 0;
        for _ in 0..CONNECTOR_ROUNDS {
            for &id in &ids {
                n += black_box(ed.world_connectors_arc(id)?).len();
            }
        }
        Ok(n)
    };
    let recompute = || -> Result<usize, RiotError> {
        let mut n = 0;
        for _ in 0..CONNECTOR_ROUNDS {
            for &id in &ids {
                let inst = ed.instance(id)?;
                n += black_box(inst.world_connectors(ed.instance_cell(id)?)).len();
            }
        }
        Ok(n)
    };
    // The first cached pass fills the cache.
    let (via_cache, rebuilt) = (cached()?, recompute()?);
    if via_cache != rebuilt {
        return Err(
            format!("the cache holds {via_cache} world connectors, a rebuild {rebuilt}").into(),
        );
    }
    let (cached_ns, _) = best_of(PASSES, cached);
    let (recompute_ns, _) = best_of(PASSES, recompute);
    Ok((cached_ns, recompute_ns))
}

/// The fig9 report's checks, at every size it holds:
///
/// * both styles are present with every measure and both per-kind
///   series, every timing is positive, the kinds count every command,
///   and their times sum to at most the live pass;
/// * the paper's shape claim: equal widths and a lower stretched
///   block;
/// * the stretched block has one route cell (the bring-out), the routed
///   one `bits` (one per gate, plus the bring-out);
/// * the stretched block is DRC-clean, and neither block has a
///   violation other than the 2λ diffusion corner case;
/// * the routed block's `drc_ns` is at most
///   `DRC_ROUTED_OVER_STRETCHED` times the stretched block's;
/// * from `CACHE_GATE_BITS` up, rebuilding world connectors costs at
///   least `CACHE_SPEEDUP` times the cached lookup;
/// * the routed `session_bytes` grow at most
///   `SESSION_GROWTH_TENTHS` / 10 times from one size to the next.
///
/// # Errors
///
/// The first check that fails.
pub fn check(r: &Report) -> Result<(), String> {
    r.param("passes")?;
    let sizes: BTreeSet<u64> = STYLES
        .iter()
        .flat_map(|s| r.axis(s.name(), "live_ns"))
        .map(|(bits, _)| bits)
        .collect();
    if sizes.is_empty() {
        return Err("no sizes measured".into());
    }
    for bits in sizes {
        for style in STYLES {
            check_point(r, style.name(), bits)
                .map_err(|e| format!("{} at {bits} bits: {e}", style.name()))?;
        }
        let routed = |m: &str| r.get(&format!("routed.{bits}.{m}"));
        let stretched = |m: &str| r.get(&format!("stretched.{bits}.{m}"));
        let fail = |e: String| Err(format!("at {bits} bits: {e}"));
        let (rw, sw) = (routed("width")?, stretched("width")?);
        if rw != sw {
            return fail(format!("routed width {rw} λ, stretched {sw} λ"));
        }
        let (rh, sh) = (routed("height")?, stretched("height")?);
        if sh >= rh {
            return fail(format!(
                "stretched height {sh} λ is not below routed {rh} λ"
            ));
        }
        let (rc, sc) = (routed("route_cells")?, stretched("route_cells")?);
        if (rc, sc) != (bits, 1) {
            return fail(format!(
                "{rc} routed and {sc} stretched route cells, not {bits} and 1"
            ));
        }
        let v = stretched("violations")?;
        if v != 0 {
            return fail(format!("the stretched block has {v} DRC violations"));
        }
        let (rd, sd) = (routed("drc_ns")?, stretched("drc_ns")?);
        if rd > sd.saturating_mul(DRC_ROUTED_OVER_STRETCHED) {
            return fail(format!(
                "routed DRC ({rd} ns) is over {DRC_ROUTED_OVER_STRETCHED}× stretched ({sd} ns)"
            ));
        }
    }
    let session = r.axis("routed", "session_bytes");
    for pair in session.windows(2) {
        let ((small, from), (large, to)) = (pair[0], pair[1]);
        if to.saturating_mul(10) > from.saturating_mul(SESSION_GROWTH_TENTHS) {
            return Err(format!(
                "the routed session grows from {from} B at {small} bits to {to} B at {large} bits, \
                 more than {}.{}×",
                SESSION_GROWTH_TENTHS / 10,
                SESSION_GROWTH_TENTHS % 10
            ));
        }
    }
    Ok(())
}

/// One style's checks at one size.
fn check_point(r: &Report, style: &str, bits: u64) -> Result<(), String> {
    let key = |m: &str| format!("{style}.{bits}.{m}");
    for m in MEASURES {
        if m.ends_with("_ns") {
            r.positive(&key(m))?;
        } else {
            r.get(&key(m))?;
        }
    }
    let prefix = key("");
    let kinds: BTreeSet<&str> = r
        .metrics
        .keys()
        .filter_map(|name| name.strip_prefix(&prefix))
        .filter_map(|m| m.strip_suffix(".count").or(m.strip_suffix(".total_ns")))
        .collect();
    // Saturating: a report read from a file may hold any u64.
    let (mut count, mut total) = (0u64, 0u64);
    for kind in kinds {
        count = count.saturating_add(r.get(&key(&format!("{kind}.count")))?);
        total = total.saturating_add(r.positive(&key(&format!("{kind}.total_ns")))?);
    }
    let commands = r.get(&key("commands"))?;
    if count != commands || commands == 0 {
        return Err(format!(
            "the command kinds count {count} commands, the pass ran {commands}"
        ));
    }
    let other = r.get(&key("other_violations"))?;
    if other != 0 {
        return Err(format!(
            "{other} DRC violations other than the 2λ diffusion corner case"
        ));
    }
    let live = r.get(&key("live_ns"))?;
    if total > live {
        return Err(format!(
            "the command kinds take {total} ns, more than the {live} ns pass"
        ));
    }
    let cached = r.get(&key("connectors_cached_ns"))?;
    let recompute = r.get(&key("connectors_recompute_ns"))?;
    if bits >= CACHE_GATE_BITS && recompute < CACHE_SPEEDUP.saturating_mul(cached) {
        return Err(format!(
            "rebuilt world connectors ({recompute} ns) are not {CACHE_SPEEDUP}× the cached ({cached} ns)"
        ));
    }
    Ok(())
}
