//! Geometric design-rule checking over flattened mask geometry.
//!
//! The paper's users had to "verify connections with extensive
//! checking" because Riot guarantees only the connections it makes.
//! This crate is that checking pass for the geometric rules: every
//! shape wide enough, every same-layer pair either connected (touching)
//! or a full design-rule space apart.
//!
//! Rules follow the Mead & Conway NMOS set this reproduction uses
//! throughout ([`RuleSet::nmos`]); widths and spaces are in
//! centimicrons, matching [`riot_cif`] geometry.
//!
//! There is one engine. [`DrcState::build`] checks a shape list from
//! scratch and keeps what it computed; [`check`] is that build plus
//! its report, and [`check_incremental`] patches the kept state after
//! an edit. The build finds every layer's nearby pairs with one plane
//! sweep ([`riot_geom::sweep`]) and builds no spatial index, so a fresh
//! state is all overlay; a patch queries each layer's index plus
//! overlay, and the first patch indexes the layer. The all-pairs
//! [`naive`] checker is kept apart as the reference the tests compare
//! against.
//!
//! # Example
//!
//! ```
//! use riot_drc::{check, RuleSet};
//! use riot_cif::FlatShape;
//! use riot_geom::{Layer, Rect, LAMBDA};
//!
//! let shapes = vec![
//!     FlatShape {
//!         layer: Layer::Metal,
//!         geometry: riot_cif::Geometry::Box(Rect::new(0, 0, 10 * LAMBDA, 3 * LAMBDA)),
//!         depth: 0,
//!     },
//!     // A second metal box only 1λ away: a spacing violation.
//!     FlatShape {
//!         layer: Layer::Metal,
//!         geometry: riot_cif::Geometry::Box(Rect::new(0, 4 * LAMBDA, 10 * LAMBDA, 7 * LAMBDA)),
//!         depth: 0,
//!     },
//! ];
//! let violations = check(&shapes, &RuleSet::nmos());
//! assert_eq!(violations.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod differential;
mod incremental;
#[cfg(any(test, feature = "naive"))]
pub mod naive;

pub use incremental::{check_incremental, DrcState};

use riot_cif::{FlatShape, Geometry};
use riot_geom::{Layer, Rect, LAMBDA};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;

/// Minimum width and same-layer spacing for one layer, centimicrons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerRule {
    /// Minimum feature width.
    pub min_width: i64,
    /// Minimum space between unconnected same-layer features.
    pub min_space: i64,
}

/// The rule deck.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSet {
    rules: Vec<(Layer, LayerRule)>,
}

impl RuleSet {
    /// The Mead & Conway NMOS rules at λ = 2.5 µm: 2λ/3λ diffusion,
    /// 2λ/2λ poly, 3λ/3λ metal, 2λ/2λ contact cuts. Implant, buried
    /// and glass carry no width/space checks here.
    pub fn nmos() -> Self {
        RuleSet {
            rules: vec![
                (
                    Layer::Diffusion,
                    LayerRule {
                        min_width: 2 * LAMBDA,
                        min_space: 3 * LAMBDA,
                    },
                ),
                (
                    Layer::Poly,
                    LayerRule {
                        min_width: 2 * LAMBDA,
                        min_space: 2 * LAMBDA,
                    },
                ),
                (
                    Layer::Metal,
                    LayerRule {
                        min_width: 3 * LAMBDA,
                        min_space: 3 * LAMBDA,
                    },
                ),
                (
                    Layer::Contact,
                    LayerRule {
                        min_width: 2 * LAMBDA,
                        min_space: 2 * LAMBDA,
                    },
                ),
            ],
        }
    }

    /// The rule for a layer, if it is checked at all.
    pub fn rule(&self, layer: Layer) -> Option<LayerRule> {
        self.rules
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|&(_, r)| r)
    }
}

/// One design-rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A feature narrower than the layer's minimum width.
    Width {
        /// Offending layer.
        layer: Layer,
        /// Bounding box of the feature.
        at: Rect,
        /// Measured width.
        measured: i64,
        /// Required minimum.
        required: i64,
    },
    /// Two unconnected same-layer features closer than minimum space.
    Spacing {
        /// Offending layer.
        layer: Layer,
        /// First feature's bounding box.
        a: Rect,
        /// Second feature's bounding box.
        b: Rect,
        /// Measured separation (the larger axis gap).
        measured: i64,
        /// Required minimum.
        required: i64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Width {
                layer,
                at,
                measured,
                required,
            } => write!(
                f,
                "{layer} feature at {at} is {measured} wide; rule needs {required}"
            ),
            Violation::Spacing {
                layer,
                a,
                b,
                measured,
                required,
            } => write!(
                f,
                "{layer} features at {a} and {b} are {measured} apart; rule needs {required}"
            ),
        }
    }
}

/// The primitive rectangles a shape paints (wires one per segment).
pub(crate) fn painted_rects(shape: &FlatShape) -> Vec<Rect> {
    match &shape.geometry {
        Geometry::Box(r) => vec![*r],
        Geometry::Polygon(pts) => {
            // Conservative: the polygon's bounding box.
            let mut bb = Rect::at_point(pts[0]);
            for &p in &pts[1..] {
                bb = bb.union_point(p);
            }
            vec![bb]
        }
        Geometry::Wire { width, path } => path
            .segments()
            .map(|(a, b)| Rect::from_points(a, b).inflated(width / 2))
            .collect(),
        Geometry::Flash { diameter, center } => {
            vec![Rect::from_center(*center, *diameter, *diameter)]
        }
    }
}

/// Checks flattened geometry against the rules, returning every
/// violation found. Touching features count as connected and are not
/// spacing-checked against each other.
///
/// This is [`DrcState::build`] followed by [`DrcState::violations`], so
/// the full check and [`check_incremental`] share one engine. Each
/// layer's labels and spacing pairs come from one plane sweep over its
/// painted rects, O((n + k) log n) for n rects and k pairs within
/// `min_space - 1`, and no spatial index is built. Layers are checked
/// one after another on the caller's thread, so every `drc.layer` span
/// and its `geom.sweep` child stay in the caller's trace. The result
/// comes in the state's canonical order: width violations
/// sorted by `(layer, at, measured, required)`, then each checked
/// layer's spacing violations, layers in [`Layer`] order and each
/// layer's in `(measured, a, b)` order. As a multiset it equals the
/// all-pairs reference ([`naive`], compiled for tests and the `naive`
/// feature): each component pair's representative rect pair is the
/// order-free minimum by `(measured, a, b)`.
pub fn check(shapes: &[FlatShape], rules: &RuleSet) -> Vec<Violation> {
    let mut sp = riot_trace::span!("drc.check", shapes = shapes.len() as u64);
    let violations = DrcState::build(shapes, rules).violations();
    sp.field("violations", violations.len() as u64);
    violations
}

/// A total order key for rectangles (they carry no `Ord` themselves).
pub(crate) fn rect_key(r: Rect) -> (i64, i64, i64, i64) {
    (r.x0, r.y0, r.x1, r.y1)
}

/// Offers one violating rect pair as the representative for a
/// component pair, keeping the minimum by `(measured, a, b)` with the
/// pair normalized so `a <= b`. The chosen representative is a pure
/// function of the *set* of violating pairs — independent of
/// discovery order — which is what lets the incremental checker patch
/// a retained violation set and still agree with a full recompute.
pub(crate) fn offer_representative<K: std::hash::Hash + Eq>(
    best: &mut HashMap<K, (i64, Rect, Rect)>,
    key: K,
    measured: i64,
    a: Rect,
    b: Rect,
) {
    let (a, b) = if rect_key(a) <= rect_key(b) {
        (a, b)
    } else {
        (b, a)
    };
    match best.entry(key) {
        std::collections::hash_map::Entry::Occupied(mut e) => {
            let (m, ca, cb) = *e.get();
            if (measured, rect_key(a), rect_key(b)) < (m, rect_key(ca), rect_key(cb)) {
                e.insert((measured, a, b));
            }
        }
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert((measured, a, b));
        }
    }
}

/// Emits one layer's spacing representatives in canonical order
/// (ascending `(measured, a, b)`), from an owned or a borrowed map.
pub(crate) fn emit_spacing<K>(
    layer: Layer,
    space: i64,
    best: impl Borrow<HashMap<K, (i64, Rect, Rect)>>,
) -> Vec<Violation> {
    let mut list: Vec<(i64, Rect, Rect)> = best.borrow().values().copied().collect();
    list.sort_unstable_by_key(|&(m, a, b)| (m, rect_key(a), rect_key(b)));
    list.into_iter()
        .map(|(measured, a, b)| Violation::Spacing {
            layer,
            a,
            b,
            measured,
            required: space,
        })
        .collect()
}

/// The axis gaps between two rects: `(dx, dy)`, both clamped to zero.
/// The pair violates `space` iff `dx < space && dy < space` (and the
/// rects belong to different components); the measured separation is
/// `dx.max(dy)`.
pub(crate) fn axis_gaps(a: Rect, b: Rect) -> (i64, i64) {
    let dx = (b.x0 - a.x1).max(a.x0 - b.x1).max(0);
    let dy = (b.y0 - a.y1).max(a.y0 - b.y1).max(0);
    (dx, dy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(layer: Layer, r: Rect) -> FlatShape {
        FlatShape {
            layer,
            geometry: Geometry::Box(r),
            depth: 0,
        }
    }

    #[test]
    fn clean_geometry_passes() {
        let shapes = vec![
            boxed(Layer::Metal, Rect::new(0, 0, 10 * LAMBDA, 3 * LAMBDA)),
            boxed(
                Layer::Metal,
                Rect::new(0, 6 * LAMBDA, 10 * LAMBDA, 9 * LAMBDA),
            ),
        ];
        assert!(check(&shapes, &RuleSet::nmos()).is_empty());
    }

    #[test]
    fn narrow_feature_flagged() {
        let shapes = vec![boxed(Layer::Metal, Rect::new(0, 0, 10 * LAMBDA, LAMBDA))];
        let v = check(&shapes, &RuleSet::nmos());
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::Width { measured, .. } if measured == LAMBDA));
    }

    #[test]
    fn close_features_flagged_touching_allowed() {
        let a = boxed(Layer::Poly, Rect::new(0, 0, 4 * LAMBDA, 2 * LAMBDA));
        let close = boxed(
            Layer::Poly,
            Rect::new(0, 3 * LAMBDA, 4 * LAMBDA, 5 * LAMBDA),
        );
        let touching = boxed(
            Layer::Poly,
            Rect::new(0, 2 * LAMBDA, 4 * LAMBDA, 4 * LAMBDA),
        );
        let v = check(&[a.clone(), close], &RuleSet::nmos());
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::Spacing { measured, .. } if measured == LAMBDA));
        assert!(check(&[a, touching], &RuleSet::nmos()).is_empty());
    }

    #[test]
    fn different_layers_do_not_interact() {
        let shapes = vec![
            boxed(Layer::Metal, Rect::new(0, 0, 10 * LAMBDA, 3 * LAMBDA)),
            boxed(
                Layer::Poly,
                Rect::new(0, 4 * LAMBDA, 10 * LAMBDA, 6 * LAMBDA),
            ),
        ];
        assert!(check(&shapes, &RuleSet::nmos()).is_empty());
    }

    #[test]
    fn connected_components_are_exempt_transitively() {
        // Three boxes: a-b touch, b-c touch, a and c are 1λ apart in
        // the corner sense — but all one conductor, so no violation.
        let shapes = vec![
            boxed(Layer::Metal, Rect::new(0, 0, 4 * LAMBDA, 3 * LAMBDA)),
            boxed(
                Layer::Metal,
                Rect::new(4 * LAMBDA, 0, 8 * LAMBDA, 3 * LAMBDA),
            ),
            boxed(
                Layer::Metal,
                Rect::new(8 * LAMBDA, 0, 12 * LAMBDA, 3 * LAMBDA),
            ),
        ];
        assert!(check(&shapes, &RuleSet::nmos()).is_empty());
    }

    #[test]
    fn diagonal_proximity_flagged() {
        let shapes = vec![
            boxed(Layer::Metal, Rect::new(0, 0, 3 * LAMBDA, 3 * LAMBDA)),
            boxed(
                Layer::Metal,
                Rect::new(4 * LAMBDA, 4 * LAMBDA, 7 * LAMBDA, 7 * LAMBDA),
            ),
        ];
        let v = check(&shapes, &RuleSet::nmos());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn wire_segments_of_one_wire_exempt() {
        let path = riot_geom::Path::from_points([
            riot_geom::Point::new(0, 0),
            riot_geom::Point::new(10 * LAMBDA, 0),
            riot_geom::Point::new(10 * LAMBDA, 2 * LAMBDA),
            riot_geom::Point::new(0, 2 * LAMBDA),
        ])
        .unwrap();
        let shapes = vec![FlatShape {
            layer: Layer::Metal,
            geometry: Geometry::Wire {
                width: 3 * LAMBDA,
                path,
            },
            depth: 0,
        }];
        // The U-turn brings the wire near itself; same-shape pairs are
        // exempt (a real DRC would merge the polygon first).
        assert!(check(&shapes, &RuleSet::nmos()).is_empty());
    }

    #[test]
    fn unchecked_layers_ignored() {
        let shapes = vec![
            boxed(Layer::Implant, Rect::new(0, 0, LAMBDA, LAMBDA)),
            boxed(Layer::Glass, Rect::new(0, 0, LAMBDA, LAMBDA)),
        ];
        assert!(check(&shapes, &RuleSet::nmos()).is_empty());
    }

    #[test]
    fn long_abutted_rail_is_one_clean_component() {
        // 100,000 3λ boxes in one serpentine chain: rows of abutted
        // boxes 3λ apart, each row joined to the next by one box at
        // alternate ends. The flood walks the whole chain on its stack.
        let (cols, side) = (316, 3 * LAMBDA);
        let (mut x, mut y, mut step) = (0, 0, 1);
        let mut rail = Vec::new();
        while rail.len() < 100_000 {
            rail.push(boxed(
                Layer::Metal,
                Rect::new(x * side, y * side, (x + 1) * side, (y + 1) * side),
            ));
            if y % 2 == 1 || !(0..cols).contains(&(x + step)) {
                if y % 2 == 0 {
                    step = -step;
                }
                y += 1;
            } else {
                x += step;
            }
        }
        let state = DrcState::build(&rail, &RuleSet::nmos());
        assert!(state.violations().is_empty());
        assert_eq!(state.rect_count(), 100_000);
        assert!(check(&rail, &RuleSet::nmos()).is_empty());
    }
}
