//! `riot-bench spatial`: the all-pairs DRC against `riot::drc::check`,
//! and recursive vs memoized CIF flatten. Each pair is asserted to give
//! identical results before its timings are kept.

use crate::harness::{best_of, violation_keys, write, Flags, Report};
use riot::drc::{naive, RuleSet};
use riot::trace::export::fmt_ns;

/// The flags `spatial` accepts.
pub const FLAGS: &[&str] = &[
    "--shapes",
    "--levels",
    "--fanout",
    "--top-calls",
    "--iters",
    "--out",
];

/// From CI's smoke size up, `check` must beat the all-pairs checker;
/// on smaller inputs its setup can dominate.
const GATE_SHAPES: u64 = 5_000;

/// Measures, checks and writes the spatial report.
///
/// # Errors
///
/// A bad flag, a failed check, or the write.
pub fn run(flags: &Flags) -> Result<(), String> {
    let shapes = flags.num("--shapes", 10_000)?;
    let levels = flags.num("--levels", 5)?;
    let fanout = flags.num("--fanout", 8)?;
    let top_calls = flags.num("--top-calls", 8)?;
    let iters = flags.num("--iters", 3)?;
    let mut r = Report::new(
        "spatial",
        &[
            ("shapes", shapes),
            ("levels", levels),
            ("fanout", fanout),
            ("top_calls", top_calls),
            ("iters", iters),
        ],
    );

    let soup = crate::rect_soup(shapes, 0xD0C);
    let rules = RuleSet::nmos();
    let (naive_ns, reference) = best_of(iters, || naive::check(&soup, &rules));
    let reference = violation_keys(reference);
    let (check_ns, got) = best_of(iters, || riot::drc::check(&soup, &rules));
    assert_eq!(violation_keys(got), reference, "DRC diverged from naive");
    r.set("drc.check_ns", check_ns);
    r.set("drc.naive_ns", naive_ns);
    r.set("drc.violations", reference.len() as u64);

    let text = crate::shared_hierarchy(levels, fanout, 6, top_calls);
    let file = riot::cif::parse(&text).expect("generated CIF parses");
    let (recursive_ns, recursive) = best_of(iters, || {
        riot::cif::flatten_recursive(&file).expect("recursive flatten")
    });
    let (memo_ns, (flat, stats)) = best_of(iters, || {
        riot::cif::flatten_counted(&file).expect("memoized flatten")
    });
    assert_eq!(flat, recursive, "memoized flatten diverged from recursive");
    r.set("flatten.recursive_ns", recursive_ns);
    r.set("flatten.memo_ns", memo_ns);
    r.set("flatten.shapes", stats.shapes as u64);
    r.set("flatten.memo_cells", stats.memo_cells as u64);
    r.set("flatten.memo_hits", stats.memo_hits as u64);
    r.set("flatten.memo_misses", stats.memo_misses as u64);

    eprintln!(
        "drc: {shapes} shapes, {} violations, naive {}, check {} ({:.1}x)\n\
         flatten: {} shapes, recursive {}, memo {} ({:.1}x)",
        reference.len(),
        fmt_ns(naive_ns),
        fmt_ns(check_ns),
        naive_ns as f64 / check_ns as f64,
        stats.shapes,
        fmt_ns(recursive_ns),
        fmt_ns(memo_ns),
        recursive_ns as f64 / memo_ns as f64,
    );
    write(&r, flags)
}

/// The spatial report's checks: every timing positive, every count
/// present, and from `GATE_SHAPES` up `check` faster than naive.
///
/// # Errors
///
/// The first check that fails.
pub fn check(r: &Report) -> Result<(), String> {
    for name in ["levels", "fanout", "top_calls", "iters"] {
        r.param(name)?;
    }
    for name in [
        "drc.violations",
        "flatten.shapes",
        "flatten.memo_cells",
        "flatten.memo_hits",
        "flatten.memo_misses",
    ] {
        r.get(name)?;
    }
    for name in [
        "drc.naive_ns",
        "drc.check_ns",
        "flatten.recursive_ns",
        "flatten.memo_ns",
    ] {
        r.positive(name)?;
    }
    let (shapes, naive_ns) = (r.param("shapes")?, r.get("drc.naive_ns")?);
    let check_ns = r.get("drc.check_ns")?;
    if shapes >= GATE_SHAPES && check_ns >= naive_ns {
        return Err(format!(
            "DRC ({check_ns} ns) is not faster than naive ({naive_ns} ns) at {shapes} shapes"
        ));
    }
    Ok(())
}
