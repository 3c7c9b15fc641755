//! `riot-bench incremental`: one-instance edits on a large flat chip,
//! incremental recompute (flatten cache, DRC patch, dirty-rect repaint)
//! against full recompute.
//!
//! The workload is [`crate::grid_chip`]: a DRC-clean leaf of
//! `--leaf-shapes` metal boxes on a `--grid`² lattice (the defaults give
//! a one-million-shape chip). Each edit translates one top-level
//! instance by 4λ, the single-instance move the damage engine is built
//! for. Before anything is timed, and again after the timed edits, the
//! retained state is asserted equal to a from-scratch run: flattened
//! shapes, sorted violations, the display list and the framebuffer
//! pixels, with zero full rebuilds.

use crate::harness::{timed, violation_keys, write, Flags, Report};
use riot::cif::{CifFile, FlatShape, FlattenCache};
use riot::drc::{check_incremental, DrcState, RuleSet, Violation};
use riot::geom::{Point, Rect, Transform, LAMBDA};
use riot::graphics::{DrawOp, Framebuffer, RenderCache, Viewport};
use riot::trace::export::fmt_ns;
use riot::ui::render::flat_cif_ops;

/// The flags `incremental` accepts.
pub const FLAGS: &[&str] = &["--leaf-shapes", "--grid", "--iters", "--out"];

const SCREEN_W: usize = 1024;
const SCREEN_H: usize = 768;

/// From CI's smoke size up, an incremental edit must beat full
/// recompute.
const GATE_SHAPES: u64 = 5_000;

/// From a million shapes, the committed baseline's size, up, it must
/// beat it [`GATE_SPEEDUP`] times over.
const GATE_BIG_SHAPES: u64 = 1_000_000;
const GATE_SPEEDUP: u64 = 20;

/// The three pipeline stages, in nanoseconds.
const STAGES: [&str; 3] = ["flatten_ns", "drc_ns", "render_ns"];

/// What a full pass produces: flat shapes, violations, the display
/// list and the framebuffer.
type Artifacts = (Vec<FlatShape>, Vec<Violation>, Vec<DrawOp>, Framebuffer);

/// The retained state an edit patches.
struct Retained {
    cache: FlattenCache,
    state: DrcState,
    ops: Vec<DrawOp>,
    rc: RenderCache,
    fb: Framebuffer,
}

/// One full recompute: flatten from scratch, check the whole chip,
/// rebuild the display list, render the whole screen.
fn full_pass(file: &CifFile, rules: &RuleSet, vp: &Viewport) -> ([u64; 3], Artifacts) {
    let (flatten, (shapes, _)) = timed(|| riot::cif::flatten_counted(file).expect("full flatten"));
    let (drc, violations) = timed(|| riot::drc::check(&shapes, rules));
    let (render, (ops, fb)) = timed(|| {
        let list = flat_cif_ops(&shapes);
        let mut fb = Framebuffer::new(SCREEN_W, SCREEN_H);
        list.render(vp, &mut fb);
        (list.ops().to_vec(), fb)
    });
    ([flatten, drc, render], (shapes, violations, ops, fb))
}

/// One incremental pass over an applied edit of top call `k`: sync the
/// flatten cache, patch the DRC state from the damage rects, patch
/// segment `k` of the display list, and repaint only the damaged
/// pixels. Returns the stage times, the damage and the patched pairs.
fn incremental_pass(
    file: &CifFile,
    k: usize,
    leaf_shapes: usize,
    vp: &Viewport,
    kept: &mut Retained,
) -> ([u64; 3], Vec<Rect>, usize) {
    let (flatten, delta) = timed(|| kept.cache.update(file).expect("incremental flatten"));
    assert!(!delta.full, "a single-instance move must not rebuild");
    let (drc, patched) =
        timed(|| check_incremental(&mut kept.state, &delta.dirty, kept.cache.shapes()));
    let (render, ()) = timed(|| {
        // Every top call expands to exactly `leaf_shapes` ops at a known
        // offset, so the display list is patched in place (checked
        // against a from-scratch build by `verify`).
        let seg = k * leaf_shapes..(k + 1) * leaf_shapes;
        let seg_ops = flat_cif_ops(&kept.cache.shapes()[seg.clone()]);
        kept.ops[seg.clone()].clone_from_slice(seg_ops.ops());
        let changed: Vec<usize> = seg.collect();
        kept.rc.sync(&kept.ops, vp, &changed);
        kept.rc.render(&kept.ops, &mut kept.fb, &delta.dirty);
    });
    ([flatten, drc, render], delta.dirty, patched)
}

/// Asserts the retained state equals a from-scratch run of `file`.
fn verify(file: &CifFile, rules: &RuleSet, vp: &Viewport, kept: &Retained, when: &str) {
    let (_, (shapes, violations, ops, fb)) = full_pass(file, rules, vp);
    assert_eq!(kept.cache.shapes(), shapes, "flatten diverged {when}");
    assert_eq!(
        violation_keys(kept.state.violations()),
        violation_keys(violations),
        "DRC diverged {when}"
    );
    assert_eq!(kept.ops, ops, "display list diverged {when}");
    assert_eq!(kept.fb, fb, "framebuffer diverged {when}");
    assert_eq!(kept.state.full_rebuilds(), 0, "full rebuild {when}");
}

/// Moves top call `k` to its lattice position plus `dx`.
fn move_call(file: &mut CifFile, k: usize, base: Point, dx: i64) {
    file.top_calls_mut()[k].transform = Transform::translate(Point::new(base.x + dx, base.y));
}

/// Records the per-stage minimum of `runs` and the minimum total under
/// `side`.
fn record(r: &mut Report, side: &str, runs: &[[u64; 3]]) {
    for (i, stage) in STAGES.iter().enumerate() {
        let min = runs.iter().map(|s| s[i]).min().expect("at least one run");
        r.set(format!("{side}.{stage}"), min);
    }
    let total = runs
        .iter()
        .map(|s| s.iter().sum())
        .min()
        .expect("at least one run");
    r.set(format!("{side}.total_ns"), total);
}

/// Measures, checks and writes the incremental report.
///
/// # Errors
///
/// A bad flag, a failed check, or the write.
pub fn run(flags: &Flags) -> Result<(), String> {
    let leaf_shapes = flags.num("--leaf-shapes", 100)?;
    let grid = flags.num("--grid", 100)?;
    let iters = flags.num("--iters", 5)?.max(1);
    let mut r = Report::new(
        "incremental",
        &[
            ("leaf_shapes", leaf_shapes),
            ("grid", grid),
            ("iters", iters),
        ],
    );
    let rules = RuleSet::nmos();
    let mut file =
        riot::cif::parse(&crate::grid_chip(leaf_shapes, grid)).expect("grid chip parses");
    let calls = file.top_calls().len();
    let bases: Vec<Point> = file
        .top_calls()
        .iter()
        .map(|c| c.transform.apply(Point::new(0, 0)))
        .collect();

    // The retained state, built once; every edit patches it.
    let mut cache = FlattenCache::new();
    assert!(cache.update(&file).expect("initial flatten").full);
    let chip = cache
        .shapes()
        .iter()
        .map(|s| s.geometry.bounding_box())
        .reduce(|a, b| a.union(b))
        .expect("non-empty chip");
    let vp = Viewport::fit(chip, SCREEN_W, SCREEN_H);
    let (build_ns, state) = timed(|| DrcState::build(cache.shapes(), &rules));
    let list = flat_cif_ops(cache.shapes());
    let mut fb = Framebuffer::new(SCREEN_W, SCREEN_H);
    list.render(&vp, &mut fb);
    let ops = list.ops().to_vec();
    let rc = RenderCache::build(&ops, &vp);
    let flat_shapes = cache.shapes().len();
    let mut kept = Retained {
        cache,
        state,
        ops,
        rc,
        fb,
    };

    let k0 = calls / 2;
    move_call(&mut file, k0, bases[k0], 4 * LAMBDA);
    let (_, dirty, _) = incremental_pass(&file, k0, leaf_shapes, &vp, &mut kept);
    assert!(!dirty.is_empty(), "a move must report damage");
    verify(&file, &rules, &vp, &kept, "after the first edit");

    let full: Vec<[u64; 3]> = (0..iters)
        .map(|_| full_pass(&file, &rules, &vp).0)
        .collect();
    let mut incr = Vec::with_capacity(iters);
    let (mut dirty_rects, mut patched_pairs) = (0, 0);
    for i in 0..iters {
        let k = (k0 + 1 + i * 37) % calls;
        let dx = if i % 2 == 0 { 4 } else { -4 } * LAMBDA;
        move_call(&mut file, k, bases[k], dx);
        let (ns, dirty, patched) = incremental_pass(&file, k, leaf_shapes, &vp, &mut kept);
        incr.push(ns);
        (dirty_rects, patched_pairs) = (dirty.len(), patched);
    }
    verify(&file, &rules, &vp, &kept, "after the timed edits");

    r.set("flat_shapes", flat_shapes as u64);
    r.set("state_build_ns", build_ns);
    r.set("dirty_rects", dirty_rects as u64);
    r.set("patched_pairs", patched_pairs as u64);
    r.set("incremental.full_rebuilds", kept.state.full_rebuilds());
    record(&mut r, "full", &full);
    record(&mut r, "incremental", &incr);
    let (full_ns, incr_ns) = (r.get("full.total_ns")?, r.get("incremental.total_ns")?);
    eprintln!(
        "incremental: {flat_shapes} shapes, full {}, incremental {} ({:.1}x), {dirty_rects} dirty rects",
        fmt_ns(full_ns),
        fmt_ns(incr_ns),
        full_ns as f64 / incr_ns as f64
    );
    write(&r, flags)
}

/// The incremental report's checks: the chip is `leaf_shapes × grid²`
/// shapes, every stage time positive and no total below its largest
/// stage, damage reported and patched with zero full rebuilds, and the
/// speed gates (`GATE_SHAPES`, `GATE_BIG_SHAPES`).
///
/// # Errors
///
/// The first check that fails.
pub fn check(r: &Report) -> Result<(), String> {
    let (leaf, grid) = (r.param("leaf_shapes")?, r.param("grid")?);
    r.param("iters")?;
    let flat = r.get("flat_shapes")?;
    if flat != leaf.saturating_mul(grid).saturating_mul(grid) {
        return Err(format!("flat_shapes {flat} is not {leaf} × {grid}²"));
    }
    for side in ["full", "incremental"] {
        let mut largest = 0;
        for stage in STAGES {
            largest = largest.max(r.positive(&format!("{side}.{stage}"))?);
        }
        if r.get(&format!("{side}.total_ns"))? < largest {
            return Err(format!("{side}.total_ns is below one of its stages"));
        }
    }
    if r.get("incremental.full_rebuilds")? != 0 {
        return Err("damage under-reported: an edit rebuilt in full".into());
    }
    for name in ["dirty_rects", "patched_pairs", "state_build_ns"] {
        r.positive(name)?;
    }
    let (full, incr) = (r.get("full.total_ns")?, r.get("incremental.total_ns")?);
    if flat >= GATE_SHAPES && full <= incr {
        return Err(format!(
            "incremental ({incr} ns) is not faster than full ({full} ns) at {flat} shapes"
        ));
    }
    if flat >= GATE_BIG_SHAPES && full < incr.saturating_mul(GATE_SPEEDUP) {
        return Err(format!(
            "full ({full} ns) is under {GATE_SPEEDUP}× incremental ({incr} ns) at {flat} shapes"
        ));
    }
    Ok(())
}
