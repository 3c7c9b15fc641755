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
mod unionfind;

pub use incremental::{check_incremental, DrcState};

use riot_cif::{FlatShape, Geometry};
use riot_geom::{index::SpatialIndex, Layer, Rect, LAMBDA};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use unionfind::UnionFind;

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
/// Spacing is checked through a [`SpatialIndex`] per layer — each rect
/// only inspects its `min_space`-neighborhood instead of every other
/// rect — one layer after another on the caller's thread, so every
/// `drc.layer` span stays in the caller's trace. The reported violation
/// set is identical to the retained all-pairs reference ([`naive`],
/// compiled for tests and the `naive` feature) and to the incremental
/// checker ([`check_incremental`]); only cross-layer ordering differs
/// (layers are visited in [`Layer`] order rather than first-appearance
/// order). Each component pair's representative rect pair is the
/// order-free minimum by `(measured, a, b)`, so all three paths agree
/// shape for shape.
pub fn check(shapes: &[FlatShape], rules: &RuleSet) -> Vec<Violation> {
    let mut sp = riot_trace::span!("drc.check", shapes = shapes.len() as u64);
    // Width checks per shape.
    let mut violations = Vec::new();
    for s in shapes {
        let Some(rule) = rules.rule(s.layer) else {
            continue;
        };
        let measured = match &s.geometry {
            Geometry::Wire { width, .. } => *width,
            other => {
                let bb = other.bounding_box();
                bb.width().min(bb.height())
            }
        };
        if measured < rule.min_width {
            violations.push(Violation::Width {
                layer: s.layer,
                at: s.geometry.bounding_box(),
                measured,
                required: rule.min_width,
            });
        }
    }

    // Spacing checks: merge touching same-layer geometry into connected
    // components first (abutted rails are one conductor, not two close
    // shapes), then require full spacing between different components.
    let mut by_layer: BTreeMap<Layer, Vec<Rect>> = BTreeMap::new();
    for s in shapes {
        if rules.rule(s.layer).is_none() {
            continue;
        }
        by_layer
            .entry(s.layer)
            .or_default()
            .extend(painted_rects(s));
    }
    for (layer, rects) in by_layer {
        let space = rules.rule(layer).expect("filtered above").min_space;
        violations.extend(layer_spacing_violations(layer, &rects, space));
    }
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
/// (ascending `(measured, a, b)`).
pub(crate) fn emit_spacing<K>(
    layer: Layer,
    space: i64,
    best: HashMap<K, (i64, Rect, Rect)>,
) -> Vec<Violation> {
    let mut list: Vec<(i64, Rect, Rect)> = best.into_values().collect();
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

/// Spacing violations on one layer, index-driven.
///
/// For every rect the index yields only its neighbors with an axis gap
/// `< space`. One violation is reported per component pair; the
/// representative rect pair is the order-free minimum chosen by
/// [`offer_representative`], so the result is a pure function of the
/// geometry.
fn layer_spacing_violations(layer: Layer, rects: &[Rect], space: i64) -> Vec<Violation> {
    if rects.len() < 2 || space <= 0 {
        return Vec::new();
    }
    let _sp = riot_trace::span!("drc.layer", rects = rects.len() as u64);
    let index = SpatialIndex::build(rects);
    let comp = components(rects, &index);
    let mut best: HashMap<(usize, usize), (i64, Rect, Rect)> = HashMap::new();
    let mut neighbors = Vec::new();
    for i in 0..rects.len() {
        neighbors.clear();
        neighbors.extend(index.within(rects[i], space - 1).filter(|&j| j > i));
        for &j in &neighbors {
            if comp[i] == comp[j] {
                continue; // one conductor
            }
            let (a, b) = (rects[i], rects[j]);
            let (dx, dy) = axis_gaps(a, b);
            let measured = dx.max(dy);
            debug_assert!(dx < space && dy < space, "index over-expanded");
            offer_representative(
                &mut best,
                (comp[i].min(comp[j]), comp[i].max(comp[j])),
                measured,
                a,
                b,
            );
        }
    }
    emit_spacing(layer, space, best)
}

/// Connected-component labels for touching rectangles: the index turns
/// edge discovery from all-pairs into per-rect neighborhood queries,
/// and the union-find uses union-by-rank + path compression.
pub(crate) fn components(rects: &[Rect], index: &SpatialIndex) -> Vec<usize> {
    let mut uf = UnionFind::new(rects.len());
    for (i, &r) in rects.iter().enumerate() {
        for j in index.query(r) {
            if j > i {
                uf.union(i, j);
            }
        }
    }
    uf.labels()
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
}
