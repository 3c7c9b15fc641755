//! Differential property tests: the indexed checker must report the
//! same violation set as the retained all-pairs reference on random
//! rect soups.

use crate::{check, naive, RuleSet, Violation};
use proptest::prelude::*;
use riot_cif::{FlatShape, Geometry};
use riot_geom::{Layer, Path, Point, Rect, LAMBDA};

const LAYERS: [Layer; 4] = [Layer::Metal, Layer::Poly, Layer::Diffusion, Layer::Contact];

/// A sortable fingerprint of a violation, for order-normalized
/// comparison (the indexed checker visits layers in `Layer` order, the
/// naive one in first-appearance order).
fn key(v: &Violation) -> String {
    format!("{v:?}")
}

fn normalized(vs: Vec<Violation>) -> Vec<String> {
    let mut keys: Vec<String> = vs.iter().map(key).collect();
    keys.sort();
    keys
}

/// A random soup of boxes and wires over the checked layers: clustered
/// enough to produce touching runs, near-misses and true violations.
fn arb_soup() -> impl Strategy<Value = Vec<FlatShape>> {
    (1u64..50_000, 1usize..120).prop_map(|(seed, n)| {
        // Small xorshift so the soup derives deterministically from the
        // proptest-generated seed.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut shapes = Vec::with_capacity(n);
        for _ in 0..n {
            let layer = LAYERS[(next() % 4) as usize];
            let x = (next() % 60) as i64 * LAMBDA;
            let y = (next() % 60) as i64 * LAMBDA;
            if next() % 5 == 0 {
                // A two-segment wire.
                let len = (next() % 8 + 2) as i64 * LAMBDA;
                let path = Path::from_points([
                    Point::new(x, y),
                    Point::new(x + len, y),
                    Point::new(x + len, y + len),
                ])
                .expect("manhattan by construction");
                shapes.push(FlatShape {
                    layer,
                    geometry: Geometry::Wire {
                        width: (next() % 4 + 1) as i64 * LAMBDA,
                        path,
                    },
                    depth: 0,
                });
            } else {
                let w = (next() % 6 + 1) as i64 * LAMBDA;
                let h = (next() % 6 + 1) as i64 * LAMBDA;
                shapes.push(FlatShape {
                    layer,
                    geometry: Geometry::Box(Rect::new(x, y, x + w, y + h)),
                    depth: 0,
                });
            }
        }
        shapes
    })
}

/// A soup clustered around extreme coordinates: anchors near
/// `i32::MIN`/`i32::MAX` (the magnitudes CIF files from 32-bit tools
/// produce), plus zero-area and zero-width degenerate boxes. Guards
/// the spatial index and the distance arithmetic against overflow and
/// degenerate-extent corner cases.
fn arb_extreme_soup() -> impl Strategy<Value = Vec<FlatShape>> {
    const ANCHORS: [i64; 5] = [
        i32::MIN as i64,
        -(1_i64 << 20),
        0,
        1_i64 << 20,
        i32::MAX as i64,
    ];
    (1u64..50_000, 1usize..60).prop_map(|(seed, n)| {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut shapes = Vec::with_capacity(n);
        for _ in 0..n {
            let layer = LAYERS[(next() % 4) as usize];
            let x = ANCHORS[(next() % 5) as usize] + (next() % 40) as i64 * LAMBDA;
            let y = ANCHORS[(next() % 5) as usize] + (next() % 40) as i64 * LAMBDA;
            match next() % 6 {
                // A zero-area point rect.
                0 => shapes.push(FlatShape {
                    layer,
                    geometry: Geometry::Box(Rect::new(x, y, x, y)),
                    depth: 0,
                }),
                // A zero-width / zero-height line rect.
                1 => {
                    let len = (next() % 6 + 1) as i64 * LAMBDA;
                    let r = if next() % 2 == 0 {
                        Rect::new(x, y, x + len, y)
                    } else {
                        Rect::new(x, y, x, y + len)
                    };
                    shapes.push(FlatShape {
                        layer,
                        geometry: Geometry::Box(r),
                        depth: 0,
                    });
                }
                _ => {
                    let w = (next() % 6 + 1) as i64 * LAMBDA;
                    let h = (next() % 6 + 1) as i64 * LAMBDA;
                    shapes.push(FlatShape {
                        layer,
                        geometry: Geometry::Box(Rect::new(x, y, x + w, y + h)),
                        depth: 0,
                    });
                }
            }
        }
        shapes
    })
}

/// Applies a derived random edit to `shapes` and returns the dirty
/// rects covering it: a removal, an addition, or a move (replace a
/// shape with a fresh box elsewhere). The dirty list always covers the
/// old and new bounding boxes — the `riot_core::Damage` contract.
fn apply_edit(shapes: &mut Vec<FlatShape>, next: &mut impl FnMut() -> u64) -> Vec<Rect> {
    let op = next() % 3;
    if shapes.is_empty() || op == 0 {
        // Addition.
        let layer = LAYERS[(next() % 4) as usize];
        let x = (next() % 60) as i64 * LAMBDA;
        let y = (next() % 60) as i64 * LAMBDA;
        let w = (next() % 6 + 1) as i64 * LAMBDA;
        let h = (next() % 6 + 1) as i64 * LAMBDA;
        let r = Rect::new(x, y, x + w, y + h);
        shapes.push(FlatShape {
            layer,
            geometry: Geometry::Box(r),
            depth: 0,
        });
        vec![r]
    } else if op == 1 {
        // Removal.
        let idx = (next() as usize) % shapes.len();
        let old = shapes.swap_remove(idx);
        vec![old.geometry.bounding_box()]
    } else {
        // Move: replace with a box of the same layer elsewhere.
        let idx = (next() as usize) % shapes.len();
        let old = shapes[idx].geometry.bounding_box();
        let layer = shapes[idx].layer;
        let x = (next() % 60) as i64 * LAMBDA;
        let y = (next() % 60) as i64 * LAMBDA;
        let w = (next() % 6 + 1) as i64 * LAMBDA;
        let h = (next() % 6 + 1) as i64 * LAMBDA;
        let r = Rect::new(x, y, x + w, y + h);
        shapes[idx] = FlatShape {
            layer,
            geometry: Geometry::Box(r),
            depth: 0,
        };
        vec![old, r]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_equals_naive_on_random_soups(shapes in arb_soup()) {
        let rules = RuleSet::nmos();
        let reference = normalized(naive::check(&shapes, &rules));
        let indexed = normalized(check(&shapes, &rules));
        prop_assert_eq!(indexed, reference);
    }

    #[test]
    fn indexed_equals_naive_on_extreme_coordinates(shapes in arb_extreme_soup()) {
        let rules = RuleSet::nmos();
        let reference = normalized(naive::check(&shapes, &rules));
        let indexed = normalized(check(&shapes, &rules));
        prop_assert_eq!(indexed, reference);
    }

    /// The tentpole equivalence: a retained [`crate::DrcState`]
    /// patched through a random edit sequence reports exactly the full
    /// checker's violations after every step — and never needs the
    /// rebuild fallback, because the damage contract is honoured.
    #[test]
    fn incremental_equals_full_under_edit_sequences(
        shapes in arb_soup(),
        edit_seed in 1u64..50_000,
        edits in 1usize..8,
    ) {
        let rules = RuleSet::nmos();
        let mut shapes = shapes;
        let mut state = crate::DrcState::build(&shapes, &rules);
        prop_assert_eq!(
            normalized(state.violations()),
            normalized(check(&shapes, &rules))
        );
        let mut s = edit_seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..edits {
            let dirty = apply_edit(&mut shapes, &mut next);
            crate::check_incremental(&mut state, &dirty, &shapes);
            prop_assert_eq!(
                normalized(state.violations()),
                normalized(check(&shapes, &rules))
            );
        }
        prop_assert_eq!(state.full_rebuilds(), 0);
        let painted: usize = shapes
            .iter()
            .filter(|s| rules.rule(s.layer).is_some())
            .map(|s| crate::painted_rects(s).len())
            .sum();
        prop_assert_eq!(state.rect_count(), painted);
    }

    /// Several edits batched into one damage list patch the same as
    /// the full checker — the shape riot-serve sessions produce when a
    /// transaction touches many instances at once.
    #[test]
    fn incremental_handles_batched_damage(
        shapes in arb_soup(),
        edit_seed in 1u64..50_000,
        edits in 2usize..6,
    ) {
        let rules = RuleSet::nmos();
        let mut shapes = shapes;
        let mut state = crate::DrcState::build(&shapes, &rules);
        let mut s = edit_seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut dirty = Vec::new();
        for _ in 0..edits {
            dirty.extend(apply_edit(&mut shapes, &mut next));
        }
        crate::check_incremental(&mut state, &dirty, &shapes);
        prop_assert_eq!(
            normalized(state.violations()),
            normalized(check(&shapes, &rules))
        );
        prop_assert_eq!(state.full_rebuilds(), 0);
    }

    /// Incremental updates stay exact at i32-extreme anchors and with
    /// zero-area shapes: remove then re-add each shape of an extreme
    /// soup, one at a time, against the full checker.
    #[test]
    fn incremental_survives_extreme_coordinates(shapes in arb_extreme_soup()) {
        let rules = RuleSet::nmos();
        let mut shapes = shapes;
        let mut state = crate::DrcState::build(&shapes, &rules);
        // Remove the last shape, verify, re-add it, verify.
        let removed = shapes.pop().expect("soup is non-empty");
        let bb = removed.geometry.bounding_box();
        crate::check_incremental(&mut state, &[bb], &shapes);
        prop_assert_eq!(
            normalized(state.violations()),
            normalized(check(&shapes, &rules))
        );
        shapes.push(removed);
        crate::check_incremental(&mut state, &[bb], &shapes);
        prop_assert_eq!(
            normalized(state.violations()),
            normalized(check(&shapes, &rules))
        );
        prop_assert_eq!(state.full_rebuilds(), 0);
    }
}
