//! The Fig 9 verify pass: export the assembled cell to CIF, flatten it,
//! DRC it and write the CIF text — what a designer runs before tape-out.

use crate::spans;
use riot::core::Library;
use riot::drc::{naive, RuleSet, Violation};
use riot::trace;
use std::time::Instant;

/// What every pass over the same cell must reproduce, fixed once by
/// [`gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Flattened shapes.
    pub shapes: usize,
    /// DRC violations (routed logic has about one per gate).
    pub violations: usize,
    /// Bytes of CIF text.
    pub bytes: usize,
}

/// Per-step time of one pass, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// `riot::core::export::to_cif`.
    pub export_ns: u64,
    /// `riot::cif::flatten` (memoized).
    pub flatten_ns: u64,
    /// `riot::drc::check` (indexed).
    pub drc_ns: u64,
    /// `riot::cif::to_text`.
    pub write_ns: u64,
    /// The whole pass.
    pub total_ns: u64,
}

fn sorted_keys(vs: &[Violation]) -> Vec<String> {
    let mut keys: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
    keys.sort();
    keys
}

/// The set-up gate: the memoized flatten equals `flatten_recursive` and
/// the indexed DRC equals the all-pairs `drc::naive` on `cell`.
///
/// # Errors
///
/// Which reference the fast path disagreed with, or an export error.
pub fn gate(lib: &Library, cell: &str) -> Result<Expected, String> {
    let cif = riot::core::export::to_cif(lib, cell).map_err(|e| format!("to_cif: {e}"))?;
    let flat = riot::cif::flatten(&cif).map_err(|e| format!("flatten: {e}"))?;
    let reference = riot::cif::flatten_recursive(&cif).map_err(|e| format!("flatten: {e}"))?;
    if flat != reference {
        return Err(format!(
            "{cell}: memoized flatten differs from flatten_recursive"
        ));
    }
    let rules = RuleSet::nmos();
    let violations = riot::drc::check(&flat, &rules);
    if sorted_keys(&violations) != sorted_keys(&naive::check(&flat, &rules)) {
        return Err(format!("{cell}: indexed DRC differs from drc::naive"));
    }
    Ok(Expected {
        shapes: flat.len(),
        violations: violations.len(),
        bytes: riot::cif::to_text(&cif).len(),
    })
}

/// Runs `f` inside a span called `name`; returns its result and time
/// in nanoseconds.
pub(crate) fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let _s = trace::span(name);
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// One verify pass, checked against `expected`. Under tracing the pass
/// is a `bench.verify` trace with one span per step.
///
/// # Errors
///
/// An export error, or a result that differs from `expected`.
pub fn pass(lib: &Library, cell: &str, expected: Expected) -> Result<Pass, String> {
    let _root = spans::root("bench.verify");
    let t = Instant::now();
    let (cif, export_ns) = timed("bench.core.export", || {
        riot::core::export::to_cif(lib, cell)
    });
    let cif = cif.map_err(|e| format!("to_cif: {e}"))?;
    let (flat, flatten_ns) = timed("bench.cif.flatten", || riot::cif::flatten(&cif));
    let flat = flat.map_err(|e| format!("flatten: {e}"))?;
    let (violations, drc_ns) = timed("bench.drc.check", || {
        riot::drc::check(&flat, &RuleSet::nmos())
    });
    let (text, write_ns) = timed("bench.cif.write", || riot::cif::to_text(&cif));
    let total_ns = t.elapsed().as_nanos() as u64;
    let got = Expected {
        shapes: flat.len(),
        violations: violations.len(),
        bytes: text.len(),
    };
    if got != expected {
        return Err(format!(
            "{cell}: verify pass gave {got:?}, set-up gave {expected:?}"
        ));
    }
    Ok(Pass {
        export_ns,
        flatten_ns,
        drc_ns,
        write_ns,
        total_ns,
    })
}
