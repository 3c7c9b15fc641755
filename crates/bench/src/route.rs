//! `riot-bench route`: the grid router on a channel only it can route,
//! plus both engines on a river-routable channel.
//!
//! * **grid**: a layer-mismatched, obstacle-dense channel
//!   ([`crate::grid_route_workload`]) that the river router is asserted
//!   to reject. The timed route is asserted clearance-clean and
//!   DRC-clean at mask level before the report is kept. Throughput
//!   (nets/s) comes from that time.
//! * **riverable**: the classic order-preserving metal channel, solved
//!   by both engines on identical input: what the grid router costs
//!   where the river router already works.

use crate::harness::{best_of, write, Flags, Report};
use riot::drc::RuleSet;
use riot::route::{grid, grid_route, river_route, GridRoute, RouteError};
use riot::trace::export::fmt_ns;

/// The flags `route` accepts.
pub const FLAGS: &[&str] = &["--nets", "--obstacles", "--iters", "--out"];

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
        &[("nets", nets), ("obstacles", obstacles), ("iters", iters)],
    );

    let problem = crate::grid_route_workload(nets, 7);
    let field = crate::grid_route_obstacles(nets, obstacles, 42);
    let river = river_route(&problem);
    assert!(
        matches!(river, Err(RouteError::LayerMismatch { .. })),
        "the grid workload must defeat the river router, got {river:?}"
    );
    let (solve_ns, route) = best_of(iters, || grid_route(&problem, &field).expect("grid solve"));
    grid::verify_clearance(&route, &field).expect("clearance");
    assert_drc_clean(&route, "grid workload");
    let stats = route.stats();
    r.set("grid.solve_ns", solve_ns);
    r.set("grid.expansions", stats.expansions);
    r.set("grid.vias", stats.vias);
    r.set("grid.conflicts", stats.conflicts);
    r.set("grid.retries", stats.retries);
    r.set("grid.restarts", stats.restarts);

    let riverable = crate::route_problem(nets, 20, 7);
    let (river_ns, river) = best_of(iters, || river_route(&riverable).expect("river solve"));
    let (grid_ns, gridr) = best_of(iters, || grid_route(&riverable, &[]).expect("grid solve"));
    assert_eq!(river.wires().len(), gridr.wires().len());
    assert_drc_clean(&gridr, "river-routable workload");
    r.set("riverable.river_ns", river_ns);
    r.set("riverable.grid_ns", grid_ns);

    eprintln!(
        "grid: {nets} nets, {obstacles} obstacles, {} ({:.0} nets/s)\n\
         riverable: river {}, grid {} ({:.0}x)",
        fmt_ns(solve_ns),
        nets as f64 * 1e9 / solve_ns as f64,
        fmt_ns(river_ns),
        fmt_ns(grid_ns),
        grid_ns as f64 / river_ns as f64,
    );
    write(&r, flags)
}

/// The route report's checks: every timing and the expansion and via
/// counts positive, and the conflict counters present.
///
/// # Errors
///
/// The first check that fails.
pub fn check(r: &Report) -> Result<(), String> {
    for name in ["nets", "obstacles", "iters"] {
        r.param(name)?;
    }
    for name in [
        "grid.solve_ns",
        "grid.expansions",
        "grid.vias",
        "riverable.river_ns",
        "riverable.grid_ns",
    ] {
        r.positive(name)?;
    }
    for name in ["grid.conflicts", "grid.retries", "grid.restarts"] {
        r.get(name)?;
    }
    Ok(())
}
