//! `riot-bench route`: the grid router on a channel only it can route,
//! serial against parallel planning, plus both engines on a
//! river-routable channel.
//!
//! * **grid**: a layer-mismatched, obstacle-dense channel
//!   ([`crate::grid_route_workload`]) that the river router is asserted
//!   to reject. The grid router solves it at 1 and 4 planner threads;
//!   the routes are asserted identical, clearance-clean and DRC-clean
//!   at mask level, and only then timed. Throughput (nets/s) comes from
//!   the single-thread time.
//! * **riverable**: the classic order-preserving metal channel, solved
//!   by both engines on identical input: what the grid router costs
//!   where the river router already works.
//!
//! Because CI hosts can pin a single core, the gated parallelism is a
//! model, not wall-clock: per-net A* expansion counts are the same at
//! any thread count (route equality is asserted), so total plan work
//! over the heaviest contiguous [`PLAN_WORKERS`]-worker chunk (the
//! chunking `par::map_heavy` uses) measures the parallelism the
//! plan/commit design exposes. Wall-clock at 1 and 4 threads is stored
//! beside it and tracks it only when `host_cpus` reaches the worker
//! count.

use crate::harness::{best_of, write, Flags, Report};
use riot::drc::RuleSet;
use riot::geom::par;
use riot::route::{grid, grid_route, river_route, GridRoute, RouteError};
use riot::trace::export::fmt_ns;

/// The flags `route` accepts.
pub const FLAGS: &[&str] = &["--nets", "--obstacles", "--iters", "--out"];

/// The planner worker count the work/span model and the parallel run
/// use.
pub const PLAN_WORKERS: usize = 4;

/// From this many nets up, plan work must be at least twice the plan
/// span.
const GATE_NETS: u64 = 256;

/// Full mask-level DRC of the route cell: sticks → CIF shapes →
/// `RuleSet::nmos`. Any violation is a routing bug.
fn assert_drc_clean(route: &GridRoute, label: &str) {
    let cell = route.to_sticks_cell("bench_route");
    cell.validate().expect("route cell validates");
    let shapes: Vec<riot::cif::FlatShape> = riot::sticks::mask::to_cif_cell(&cell, 1)
        .shapes
        .into_iter()
        .map(|s| riot::cif::FlatShape {
            layer: s.layer,
            geometry: s.geometry,
            depth: 0,
        })
        .collect();
    let violations = riot::drc::check(&shapes, &RuleSet::nmos());
    assert!(
        violations.is_empty(),
        "{label}: route cell has DRC violations: {violations:?}"
    );
}

/// Measures, checks and writes the route report.
///
/// # Errors
///
/// A bad flag, a failed check, or the write.
pub fn run(flags: &Flags) -> Result<(), String> {
    let nets = flags.num("--nets", 256)?;
    let obstacles = flags.num("--obstacles", 256)?;
    let iters = flags.num("--iters", 3)?;
    let mut r = Report::new(
        "route",
        &[
            ("nets", nets),
            ("obstacles", obstacles),
            ("iters", iters),
            ("plan_workers", PLAN_WORKERS),
        ],
    );

    let problem = crate::grid_route_workload(nets, 7);
    let field = crate::grid_route_obstacles(nets, obstacles, 42);
    let river = river_route(&problem);
    assert!(
        matches!(river, Err(RouteError::LayerMismatch { .. })),
        "the grid workload must defeat the river router, got {river:?}"
    );
    let solve = |threads: usize| {
        par::set_threads(threads);
        let route = grid_route(&problem, &field).expect("grid solve");
        par::set_threads(0);
        route
    };
    let serial = solve(1);
    assert_eq!(
        serial,
        solve(PLAN_WORKERS),
        "grid routing must be thread-count invariant"
    );
    grid::verify_clearance(&serial, &field).expect("clearance");
    assert_drc_clean(&serial, "grid workload");

    let per_net = serial.plan_expansions();
    let chunk = per_net.len().div_ceil(PLAN_WORKERS).max(1);
    let span = per_net
        .chunks(chunk)
        .map(|c| c.iter().sum())
        .max()
        .unwrap_or(0);
    r.set("grid.plan_work", per_net.iter().sum());
    r.set("grid.plan_span", span);

    let time_at = |threads: usize| {
        par::set_threads(threads);
        let timed = best_of(iters, || grid_route(&problem, &field).expect("grid solve"));
        par::set_threads(0);
        timed
    };
    let (serial_ns, _) = time_at(1);
    let (parallel_ns, route) = time_at(PLAN_WORKERS);
    let stats = route.stats();
    r.set("grid.serial_ns", serial_ns);
    r.set("grid.parallel_ns", parallel_ns);
    r.set("grid.expansions", stats.expansions);
    r.set("grid.vias", stats.vias);
    r.set("grid.conflicts", stats.conflicts);
    r.set("grid.retries", stats.retries);
    r.set("grid.restarts", stats.restarts);
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    r.set("host_cpus", host_cpus as u64);

    let riverable = crate::route_problem(nets, 20, 7);
    let (river_ns, river) = best_of(iters, || river_route(&riverable).expect("river solve"));
    let (grid_ns, gridr) = best_of(iters, || grid_route(&riverable, &[]).expect("grid solve"));
    assert_eq!(river.wires().len(), gridr.wires().len());
    assert_drc_clean(&gridr, "river-routable workload");
    r.set("riverable.river_ns", river_ns);
    r.set("riverable.grid_ns", grid_ns);

    eprintln!(
        "grid: {nets} nets, {obstacles} obstacles, serial {} ({:.0} nets/s), \
         {PLAN_WORKERS} threads {} on {host_cpus} cpus, plan work/span {:.2}\n\
         riverable: river {}, grid {} ({:.0}x)",
        fmt_ns(serial_ns),
        nets as f64 * 1e9 / serial_ns as f64,
        fmt_ns(parallel_ns),
        r.get("grid.plan_work")? as f64 / span.max(1) as f64,
        fmt_ns(river_ns),
        fmt_ns(grid_ns),
        grid_ns as f64 / river_ns as f64,
    );
    write(&r, flags)
}

/// The route report's checks: [`PLAN_WORKERS`] planner workers, every
/// timing and the work, span, expansion, via and cpu counts positive,
/// the conflict counters present, and from [`GATE_NETS`] up plan work
/// at least twice the plan span.
///
/// # Errors
///
/// The first check that fails.
pub fn check(r: &Report) -> Result<(), String> {
    for name in ["nets", "obstacles", "iters"] {
        r.param(name)?;
    }
    if r.param("plan_workers")? != PLAN_WORKERS as u64 {
        return Err(format!("plan_workers is not {PLAN_WORKERS}"));
    }
    for name in [
        "grid.serial_ns",
        "grid.parallel_ns",
        "grid.plan_work",
        "grid.plan_span",
        "grid.expansions",
        "grid.vias",
        "host_cpus",
        "riverable.river_ns",
        "riverable.grid_ns",
    ] {
        r.positive(name)?;
    }
    for name in ["grid.conflicts", "grid.retries", "grid.restarts"] {
        r.get(name)?;
    }
    let (work, span) = (r.get("grid.plan_work")?, r.get("grid.plan_span")?);
    let nets = r.param("nets")?;
    if nets >= GATE_NETS && work < span.saturating_mul(2) {
        return Err(format!(
            "plan work {work} is under 2× plan span {span} at {nets} nets"
        ));
    }
    Ok(())
}
