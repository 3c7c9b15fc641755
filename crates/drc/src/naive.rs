//! The retained naive (all-pairs) checker.
//!
//! This is the original O(n²) implementation of [`crate::check`], kept
//! as the reference oracle: the differential property tests prove the
//! indexed and incremental checkers report the same violation set, and
//! the `riot-bench` spatial benchmark measures the speedup against it.
//! The only departure from the original code is the shared order-free
//! representative rule (`crate::offer_representative`) — both
//! checkers must pick per-component-pair representatives that do not
//! depend on discovery order, or incremental patching could never
//! reproduce them.
//! Compiled only for tests and under the `naive` cargo feature — it is
//! not part of the production checking path.

use crate::{painted_rects, RuleSet, Violation};
use riot_cif::{FlatShape, Geometry};
use riot_geom::{Layer, Rect};

/// Checks flattened geometry against the rules with the original
/// all-pairs loops. Semantically identical to [`crate::check`] (modulo
/// violation ordering), quadratically slower.
pub fn check(shapes: &[FlatShape], rules: &RuleSet) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Width checks per shape.
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
    let mut by_layer: Vec<(Layer, Vec<Rect>)> = Vec::new();
    for s in shapes {
        if rules.rule(s.layer).is_none() {
            continue;
        }
        let entry = match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some(e) => e,
            None => {
                by_layer.push((s.layer, Vec::new()));
                by_layer.last_mut().expect("just pushed")
            }
        };
        entry.1.extend(painted_rects(s));
    }
    for (layer, rects) in &by_layer {
        let space = rules.rule(*layer).expect("filtered above").min_space;
        let comp = components(rects);
        let mut best = std::collections::HashMap::new();
        for i in 0..rects.len() {
            for j in i + 1..rects.len() {
                if comp[i] == comp[j] {
                    continue; // one conductor
                }
                let (a, b) = (rects[i], rects[j]);
                let (dx, dy) = crate::axis_gaps(a, b);
                let measured = dx.max(dy);
                if dx < space && dy < space {
                    crate::offer_representative(
                        &mut best,
                        (comp[i].min(comp[j]), comp[i].max(comp[j])),
                        measured,
                        a,
                        b,
                    );
                }
            }
        }
        violations.extend(crate::emit_spacing(*layer, space, best));
    }
    violations
}

/// Connected-component labels for touching rectangles, by all-pairs
/// union-find (path compression only — the original code).
fn components(rects: &[Rect]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..rects.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..rects.len() {
        for j in i + 1..rects.len() {
            if rects[i].touches(rects[j]) {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    (0..rects.len()).map(|i| find(&mut parent, i)).collect()
}
