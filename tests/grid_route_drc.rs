//! Differential properties of the grid maze router, checked through
//! the *other* subsystems: every route it emits must pass the real
//! mask-level DRC (`riot::drc`) and clear every obstacle it was given
//! (`grid::verify_clearance`).

use proptest::prelude::*;
use riot::drc::RuleSet;
use riot::geom::{Layer, Rect};
use riot::route::{grid, grid_route, river_route, GridRoute, RouteProblem, Terminal};

/// Layer-appropriate terminal width (metal's minimum is 3λ).
fn width_for(layer: Layer) -> i64 {
    if layer == Layer::Metal {
        3
    } else {
        2
    }
}

/// Builds an order-preserving channel from per-net (gap, bottom-layer,
/// top-layer, jog) picks. Layers come from `Layer::ROUTABLE` indices,
/// so nets freely mismatch layers — the case the river router rejects.
fn channel(nets: &[(i64, u8, u8, i64)]) -> RouteProblem {
    let mut bottom = Vec::with_capacity(nets.len());
    let mut top = Vec::with_capacity(nets.len());
    let mut x = 0i64;
    for (i, &(gap, bl, tl, jog)) in nets.iter().enumerate() {
        x += 10 + gap;
        let blayer = Layer::ROUTABLE[bl as usize % Layer::ROUTABLE.len()];
        let tlayer = Layer::ROUTABLE[tl as usize % Layer::ROUTABLE.len()];
        bottom.push(Terminal::new(format!("n{i}"), x, blayer, width_for(blayer)));
        top.push(Terminal::new(
            format!("n{i}"),
            x + jog,
            tlayer,
            width_for(tlayer),
        ));
    }
    RouteProblem::new(bottom, top)
}

/// Full mask-level DRC of the routed cell: sticks → CIF shapes →
/// `RuleSet::nmos`.
fn drc_violations(route: &GridRoute) -> Vec<riot::drc::Violation> {
    let cell = route.to_sticks_cell("grid_route_prop");
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
    riot::drc::check(&shapes, &RuleSet::nmos())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Obstacle-free channels always route and the result is DRC-clean
    /// at mask level.
    #[test]
    fn random_channels_route_drc_clean_and_thread_invariant(
        nets in prop::collection::vec((0i64..5, 0u8..3, 0u8..3, -2i64..3), 2..10)
    ) {
        let problem = channel(&nets);
        let route = grid_route(&problem, &[]).expect("obstacle-free channel routes");
        let v = drc_violations(&route);
        prop_assert!(v.is_empty(), "grid route has DRC violations: {v:?}");
    }

    /// Against a random obstacle soup the router either reports the
    /// channel unroutable or returns geometry that clears every
    /// obstacle by the layer's spacing rule *and* passes mask DRC.
    #[test]
    fn random_obstacle_soups_are_respected(
        nets in prop::collection::vec((0i64..5, 0u8..3, 0u8..3, -2i64..3), 2..8),
        blocks in prop::collection::vec(
            (0u8..3, 0i64..120, 8i64..30, 3i64..7, 2i64..5), 0..12
        )
    ) {
        let problem = channel(&nets);
        let obstacles: Vec<(Layer, Rect)> = blocks
            .iter()
            .map(|&(l, x0, y0, w, h)| {
                let layer = Layer::ROUTABLE[l as usize % Layer::ROUTABLE.len()];
                (layer, Rect::new(x0, y0, x0 + w, y0 + h))
            })
            .collect();
        if let Ok(route) = grid_route(&problem, &obstacles) {
            grid::verify_clearance(&route, &obstacles)
                .map_err(TestCaseError::fail)?;
            let v = drc_violations(&route);
            prop_assert!(v.is_empty(), "grid route has DRC violations: {v:?}");
        }
    }
}

#[test]
fn crossing_layer_pair_defeats_river_but_grid_routes() {
    // The canonical case the tentpole exists for: terminals whose
    // layers differ end-to-end. The river router refuses (it cannot
    // change layers); the grid router places vias and succeeds.
    let problem = RouteProblem::new(
        vec![
            Terminal::new("a", 10, Layer::Poly, 2),
            Terminal::new("b", 20, Layer::Metal, 3),
        ],
        vec![
            Terminal::new("a", 20, Layer::Metal, 3),
            Terminal::new("b", 30, Layer::Poly, 2),
        ],
    );
    assert!(river_route(&problem).is_err(), "river must reject");
    let route = grid_route(&problem, &[]).expect("grid routes the crossing pair");
    assert_eq!(route.wires().len(), 2);
    assert!(route.stats().vias >= 2, "layer changes need vias");
    let v = drc_violations(&route);
    assert!(
        v.is_empty(),
        "crossing-pair route has DRC violations: {v:?}"
    );
}
