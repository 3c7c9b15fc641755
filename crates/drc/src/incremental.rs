//! The DRC engine: [`DrcState::build`] checks a shape list from
//! scratch and keeps what it computed; [`check_incremental`] patches
//! that state from a list of dirty world rects. [`crate::check`] is
//! `build` plus [`DrcState::violations`].
//!
//! Per checked layer the state keeps the painted rects in a slot
//! arena, a connected-component label per slot (a removed slot's label
//! marks it dead), a spatial index over the arena's head (the tail of
//! slots added since the last index build is the overlay, scanned
//! linearly), and one spacing representative per component pair.
//! Width violations are a sorted multiset.
//!
//! * **Build.** A layer is checked in one pass. One plane sweep
//!   ([`riot_geom::sweep::pairs_within`] at `space - 1`) lists every
//!   slot's neighbours; the labels come from its touching pairs and the
//!   spacing representatives from all of them. `build` builds no
//!   index: a fresh arena is all overlay, and the first patch indexes
//!   it before its first query.
//! * **Labels.** A flood over touching live slots, with an explicit
//!   stack, gives each component a fresh label. `build` floods from
//!   every slot over the sweep's lists. A patch floods from the added
//!   rects and from the live neighbours of the removed ones, querying
//!   the index plus overlay.
//! * **Diff.** The dirty old slots come from querying each layer's
//!   index plus overlay with the dirty rects, so that side costs
//!   O(damage). The dirty new rects come from a bounding-box scan of
//!   `shapes`, which is O(chip): one cheap test per shape. Per layer
//!   the two rect multisets are diffed, and rects on both sides stay.
//!   Width entries are replaced wherever their `at` touches the damage.
//! * **Patch.** Only the flooded slots are relabelled, and only
//!   spacing pairs with a flooded slot are re-measured through the
//!   index plus overlay, so the patch costs O(damage). The flood's
//!   visited set is the rebuild set, so it is closed under touching by
//!   construction.
//!
//! # Contract
//!
//! The caller guarantees the damage invariant from
//! `riot_core::Damage`: every shape added, removed or modified since
//! the state was last in sync has its bounding box (old and new)
//! covered by the dirty rects. Shapes outside the damage must be
//! bit-identical between the old and new shape lists *as multisets* —
//! their order may change freely. An update whose clean region holds
//! a different number of painted rects on some layer than before has
//! seen under-reported damage; it rebuilds in full rather than return
//! wrong answers.
//!
//! # Equality
//!
//! After any sequence of updates, [`DrcState::violations`] equals
//! `DrcState::build(shapes, rules).violations()` — that is,
//! `check(shapes, rules)` — as a multiset. This rests on the
//! order-free representative rule ([`crate::offer_representative`]):
//! the reported pair for a component pair is the minimum by
//! `(measured, a, b)`, a pure function of the geometry that local
//! patching reproduces.

use crate::{
    axis_gaps, emit_spacing, offer_representative, painted_rects, rect_key, LayerRule, RuleSet,
    Violation,
};
use riot_cif::{FlatShape, Geometry};
use riot_geom::{index::SpatialIndex, sweep, Layer, Rect};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Once this many slots of a layer are dead, or this many sit in its
/// overlay, the layer drops its dead slots and re-indexes the arena.
/// Keeps the overlay scan and the dead weight bounded while
/// amortizing index builds over many updates.
const OVERLAY_REBUILD: usize = 2048;

/// The label of a removed slot. It sorts above every fresh label, so
/// a flood never visits a removed slot.
const DEAD: u64 = u64::MAX;

type RectKey = (i64, i64, i64, i64);

/// A width violation: `(layer, at, measured, required)`.
type WidthKey = (Layer, RectKey, i64, i64);

/// Retained state for one checked layer.
#[derive(Debug)]
struct LayerState {
    space: i64,
    /// Slot arena of painted rects. Removal tombstones; the index
    /// rebuild drops the dead slots.
    rects: Vec<Rect>,
    live_rects: usize,
    /// Connected-component label per slot; [`DEAD`] for a removed one.
    label: Vec<u64>,
    /// Index over the arena's head, `rects[..index.len()]`; the slots
    /// after it are the overlay. `None` until the first patch indexes
    /// the arena, so a fresh state is all overlay.
    index: Option<SpatialIndex>,
    /// Spacing representative per component pair (labels ordered).
    spacing: HashMap<(u64, u64), (i64, Rect, Rect)>,
}

/// Where [`LayerState::flood`] and [`LayerState::pair`] find a slot's
/// neighbours.
enum Near<'a> {
    /// The slot lists of one sweep over the whole arena, in `build`.
    Swept(&'a Swept),
    /// Queries of the index plus overlay, in a patch.
    Indexed,
}

/// Every slot's neighbours within its layer's `space - 1`, from one
/// [`sweep::pairs_within`]: slot `s`'s list is
/// `near[start[s]..start[s + 1]]`.
struct Swept {
    start: Vec<usize>,
    near: Vec<u32>,
}

impl Swept {
    fn new(rects: &[Rect], dist: i64) -> Swept {
        let mut pairs = Vec::new();
        sweep::pairs_within(rects, dist, |a, b| pairs.push((a, b)));
        let mut start = vec![0; rects.len() + 1];
        for &(a, b) in &pairs {
            start[a as usize + 1] += 1;
            start[b as usize + 1] += 1;
        }
        for s in 1..start.len() {
            start[s] += start[s - 1];
        }
        let mut fill = start.clone();
        let mut near = vec![0; 2 * pairs.len()];
        for (a, b) in pairs {
            for (from, to) in [(a, b), (b, a)] {
                near[fill[from as usize]] = to;
                fill[from as usize] += 1;
            }
        }
        Swept { start, near }
    }
}

impl LayerState {
    /// Labels and pairs `rects` from scratch, finding every slot's
    /// neighbours with one sweep. Builds no index: the arena is all
    /// overlay until the first patch.
    fn build(rects: Vec<Rect>, space: i64, next_label: &mut u64) -> LayerState {
        let _sp = riot_trace::span!("drc.layer", rects = rects.len() as u64);
        let n = rects.len();
        let swept = Swept::new(&rects, (space - 1).max(0));
        let mut layer = LayerState {
            space,
            index: None,
            rects,
            live_rects: n,
            label: vec![0; n],
            spacing: HashMap::new(),
        };
        let (fresh, near) = (*next_label, Near::Swept(&swept));
        layer.flood(&near, 0..n as u32, next_label, |_, _| {});
        layer.pair(&near, 0..n as u32, fresh);
        layer
    }

    /// The number of slots the index covers; the rest are the overlay.
    fn indexed(&self) -> usize {
        self.index.as_ref().map_or(0, SpatialIndex::len)
    }

    /// Slots, dead ones included, whose axis gap to `window` is at most
    /// `dist` on both axes, from the index plus the overlay.
    fn neighbors(&self, window: Rect, dist: i64, out: &mut Vec<u32>) {
        out.clear();
        if let Some(index) = &self.index {
            out.extend(index.within(window, dist).map(|s| s as u32));
        }
        for s in self.indexed()..self.rects.len() {
            let (dx, dy) = axis_gaps(self.rects[s], window);
            if dx <= dist && dy <= dist {
                out.push(s as u32);
            }
        }
    }

    /// Slot `s`'s neighbours from `src` into `out`: the slots touching
    /// it when `touch`, else those within `space - 1`. Either list may
    /// hold `s` itself and dead slots.
    fn near(&self, src: &Near, s: u32, touch: bool, out: &mut Vec<u32>) {
        let r = self.rects[s as usize];
        match src {
            Near::Swept(swept) => {
                out.clear();
                let list = &swept.near[swept.start[s as usize]..swept.start[s as usize + 1]];
                if touch {
                    out.extend(list.iter().filter(|&&t| self.rects[t as usize].touches(r)));
                } else {
                    out.extend_from_slice(list);
                }
            }
            Near::Indexed => self.neighbors(r, if touch { 0 } else { self.space - 1 }, out),
        }
    }

    /// Gives every live slot reachable from `seeds` through touching
    /// live slots a fresh label, one per component, and calls
    /// `visit(slot, old_label)` for each slot it relabels. A slot
    /// already labelled at or above the first fresh label is done.
    fn flood(
        &mut self,
        src: &Near,
        seeds: impl IntoIterator<Item = u32>,
        next_label: &mut u64,
        mut visit: impl FnMut(u32, u64),
    ) {
        let fresh = *next_label;
        let (mut stack, mut near) = (Vec::new(), Vec::new());
        for seed in seeds {
            if self.label[seed as usize] >= fresh {
                continue;
            }
            let label = *next_label;
            *next_label += 1;
            near.clear();
            near.push(seed);
            loop {
                for &t in &near {
                    let old = self.label[t as usize];
                    if old < fresh {
                        visit(t, old);
                        self.label[t as usize] = label;
                        stack.push(t);
                    }
                }
                let Some(s) = stack.pop() else { break };
                self.near(src, s, true, &mut near);
            }
        }
    }

    /// Offers every violating pair with a slot in `slots` as its
    /// component pair's representative. `slots` must be every slot
    /// labelled `fresh` or above, so a pair of two such slots is
    /// offered once, from its lower slot.
    fn pair(&mut self, src: &Near, slots: impl IntoIterator<Item = u32>, fresh: u64) {
        if self.space <= 0 {
            return;
        }
        let mut near = Vec::new();
        for s in slots {
            let (rs, ls) = (self.rects[s as usize], self.label[s as usize]);
            self.near(src, s, false, &mut near);
            for &t in &near {
                let lt = self.label[t as usize];
                if lt == ls || lt == DEAD || (t < s && lt >= fresh) {
                    continue;
                }
                let rt = self.rects[t as usize];
                let (dx, dy) = axis_gaps(rs, rt);
                let key = (ls.min(lt), ls.max(lt));
                offer_representative(&mut self.spacing, key, dx.max(dy), rs, rt);
            }
        }
    }

    /// Live slots touching some rect of `dirty`.
    fn touching(&self, dirty: &[Rect]) -> Vec<u32> {
        let (mut slots, mut near) = (Vec::new(), Vec::new());
        for &d in dirty {
            self.neighbors(d, 0, &mut near);
            slots.extend(near.iter().filter(|&&s| self.label[s as usize] != DEAD));
        }
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// Tombstones `removed`, appends `added`, then relabels and
    /// re-pairs every component either touched. Returns the number of
    /// slots re-paired.
    fn patch(&mut self, removed: &[u32], added: &[Rect], next_label: &mut u64) -> usize {
        // Labels whose spacing entries go stale: the removed slots'
        // and, below, those of every slot the flood relabels.
        let mut stale: HashSet<u64> = HashSet::new();
        for &s in removed {
            stale.insert(self.label[s as usize]);
            self.label[s as usize] = DEAD;
        }
        self.live_rects -= removed.len();
        let (mut seeds, mut near) = (Vec::new(), Vec::new());
        for &s in removed {
            self.neighbors(self.rects[s as usize], 0, &mut near);
            seeds.extend_from_slice(&near);
        }
        for &r in added {
            seeds.push(self.rects.len() as u32);
            self.rects.push(r);
            self.label.push(0);
        }
        self.live_rects += added.len();

        let fresh = *next_label;
        let mut rebuild = Vec::new();
        self.flood(&Near::Indexed, seeds, next_label, |s, old| {
            rebuild.push(s);
            stale.insert(old);
        });
        self.spacing
            .retain(|(a, b), _| !stale.contains(a) && !stale.contains(b));
        self.pair(&Near::Indexed, rebuild.iter().copied(), fresh);
        self.maybe_rebuild_index();
        rebuild.len()
    }

    /// Drops the dead slots and re-indexes the arena once
    /// [`OVERLAY_REBUILD`] slots are dead or in the overlay. O(arena),
    /// the cost of the index build itself. Labels move with their
    /// slots; the spacing map names labels, not slots.
    fn maybe_rebuild_index(&mut self) {
        let dead = self.rects.len() - self.live_rects;
        let overlay = self.rects.len() - self.indexed();
        if dead.max(overlay) < OVERLAY_REBUILD {
            return;
        }
        let live: Vec<usize> = (0..self.rects.len())
            .filter(|&s| self.label[s] != DEAD)
            .collect();
        self.rects = live.iter().map(|&s| self.rects[s]).collect();
        self.label = live.iter().map(|&s| self.label[s]).collect();
        self.index = Some(SpatialIndex::build(&self.rects));
    }
}

/// Retained DRC results, patchable by [`check_incremental`].
#[derive(Debug)]
pub struct DrcState {
    rules: RuleSet,
    layers: BTreeMap<Layer, LayerState>,
    /// Width violations, sorted. Width depends on one shape only, so
    /// it patches as a plain multiset.
    width: Vec<WidthKey>,
    next_label: u64,
    /// Updates that fell back to a full rebuild (contract breach).
    rebuilds: u64,
}

/// The width violation a single shape produces under its layer's
/// rule, if any.
fn width_violation(shape: &FlatShape, rule: LayerRule) -> Option<WidthKey> {
    let measured = match &shape.geometry {
        Geometry::Wire { width, .. } => *width,
        other => {
            let bb = other.bounding_box();
            bb.width().min(bb.height())
        }
    };
    (measured < rule.min_width).then(|| {
        (
            shape.layer,
            rect_key(shape.geometry.bounding_box()),
            measured,
            rule.min_width,
        )
    })
}

impl DrcState {
    /// Checks `shapes` from scratch and keeps the result: the full
    /// check every incremental update patches.
    pub fn build(shapes: &[FlatShape], rules: &RuleSet) -> DrcState {
        let mut width = Vec::new();
        let mut painted: BTreeMap<Layer, Vec<Rect>> = BTreeMap::new();
        for s in shapes {
            let Some(rule) = rules.rule(s.layer) else {
                continue;
            };
            width.extend(width_violation(s, rule));
            painted.entry(s.layer).or_default().extend(painted_rects(s));
        }
        width.sort_unstable();
        let mut next_label = 1;
        let layers = painted
            .into_iter()
            .map(|(layer, rects)| {
                let space = rules.rule(layer).expect("bucketed by rule").min_space;
                (layer, LayerState::build(rects, space, &mut next_label))
            })
            .collect();
        DrcState {
            rules: rules.clone(),
            layers,
            width,
            next_label,
            rebuilds: 0,
        }
    }

    /// The current violations, in canonical order: width violations
    /// sorted, then each layer's spacing violations in
    /// `(measured, a, b)` order.
    pub fn violations(&self) -> Vec<Violation> {
        let mut out: Vec<Violation> = self
            .width
            .iter()
            .map(|&(layer, at, measured, required)| Violation::Width {
                layer,
                at: Rect::new(at.0, at.1, at.2, at.3),
                measured,
                required,
            })
            .collect();
        for (&layer, ls) in &self.layers {
            out.extend(emit_spacing(layer, ls.space, &ls.spacing));
        }
        out
    }

    /// Live painted rects over all checked layers.
    pub fn rect_count(&self) -> usize {
        self.layers.values().map(|l| l.live_rects).sum()
    }

    /// Updates that detected a contract breach and rebuilt fully.
    pub fn full_rebuilds(&self) -> u64 {
        self.rebuilds
    }
}

/// Patches `state` so it reflects `shapes`, given that every change
/// since the last sync lies inside `dirty` (see the module contract).
/// Returns the number of slots re-paired — the size of the rebuild
/// set, also recorded in the `drc.incremental.patched` histogram.
///
/// An empty `dirty` list asserts nothing changed and returns
/// immediately. A contract breach degrades to `DrcState::build`.
pub fn check_incremental(state: &mut DrcState, dirty: &[Rect], shapes: &[FlatShape]) -> usize {
    if dirty.is_empty() {
        return 0;
    }
    let mut sp = riot_trace::span!("drc.incremental", dirty = dirty.len() as u64);
    let union = dirty[1..].iter().fold(dirty[0], |acc, &r| acc.union(r));
    let in_dirty = |r: Rect| r.touches(union) && dirty.iter().any(|d| r.touches(*d));

    // New side: one bounding-box scan of `shapes` finds the painted
    // rects touching the damage, and counts each layer's painted rects.
    let mut painted = [0usize; Layer::ALL.len()];
    let mut fresh: BTreeMap<Layer, Vec<Rect>> = BTreeMap::new();
    let mut width = Vec::new();
    for s in shapes {
        painted[s.layer as usize] += match &s.geometry {
            Geometry::Wire { path, .. } => path.segment_count(),
            _ => 1,
        };
        if !in_dirty(s.geometry.bounding_box()) {
            continue;
        }
        let Some(rule) = state.rules.rule(s.layer) else {
            continue;
        };
        width.extend(width_violation(s, rule));
        let rects = painted_rects(s).into_iter().filter(|&r| in_dirty(r));
        fresh.entry(s.layer).or_default().extend(rects);
    }

    // Old side, O(damage): each layer's dirty slots come from its index
    // plus overlay. Rects on both sides stay; the rest are removed
    // slots and added rects.
    let mut diffs = Vec::new();
    for &(layer, _) in &state.rules.rules {
        let new = fresh.remove(&layer).unwrap_or_default();
        let (live, old) = match state.layers.get_mut(&layer) {
            Some(ls) => {
                ls.maybe_rebuild_index();
                let slots = ls.touching(dirty);
                let keyed = slots.iter().map(|&s| (rect_key(ls.rects[s as usize]), s));
                (ls.live_rects, keyed.collect())
            }
            None => (0, Vec::new()),
        };
        // The clean region must hold as many rects on both sides.
        // Drift means damage was under-reported: rebuild, not drift.
        if live - old.len() != painted[layer as usize] - new.len() {
            state.rebuilds += 1;
            let rebuilds = state.rebuilds;
            *state = DrcState::build(shapes, &state.rules);
            state.rebuilds = rebuilds;
            sp.field("rebuild", 1);
            return state.rect_count();
        }
        let mut unmatched: HashMap<RectKey, Vec<u32>> = HashMap::new();
        for (key, s) in old {
            unmatched.entry(key).or_default().push(s);
        }
        let added: Vec<Rect> = new
            .into_iter()
            .filter(|&r| unmatched.get_mut(&rect_key(r)).and_then(Vec::pop).is_none())
            .collect();
        let removed: Vec<u32> = unmatched.into_values().flatten().collect();
        if !removed.is_empty() || !added.is_empty() {
            diffs.push((layer, removed, added));
        }
    }

    state
        .width
        .retain(|&(_, at, _, _)| !in_dirty(Rect::new(at.0, at.1, at.2, at.3)));
    state.width.extend(width);
    state.width.sort_unstable();

    let mut patched = 0;
    for (layer, removed, added) in diffs {
        let space = state.rules.rule(layer).expect("a checked layer").min_space;
        let next_label = &mut state.next_label;
        let ls = state
            .layers
            .entry(layer)
            .or_insert_with(|| LayerState::build(Vec::new(), space, next_label));
        patched += ls.patch(&removed, &added, next_label);
    }
    sp.field("patched", patched as u64);
    if riot_trace::enabled() {
        riot_trace::registry()
            .histogram("drc.incremental.patched")
            .record(patched as u64);
    }
    patched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use riot_geom::LAMBDA;

    fn boxed(layer: Layer, r: Rect) -> FlatShape {
        FlatShape {
            layer,
            geometry: Geometry::Box(r),
            depth: 0,
        }
    }

    fn canon(mut v: Vec<Violation>) -> Vec<String> {
        let mut s: Vec<String> = v.drain(..).map(|x| format!("{x:?}")).collect();
        s.sort();
        s
    }

    #[test]
    fn build_matches_full_check() {
        let shapes = vec![
            boxed(Layer::Metal, Rect::new(0, 0, 10 * LAMBDA, 3 * LAMBDA)),
            boxed(
                Layer::Metal,
                Rect::new(0, 4 * LAMBDA, 10 * LAMBDA, 7 * LAMBDA),
            ),
            boxed(Layer::Poly, Rect::new(0, 0, 10 * LAMBDA, LAMBDA)),
        ];
        let rules = RuleSet::nmos();
        let state = DrcState::build(&shapes, &rules);
        assert_eq!(
            canon(state.violations()),
            canon(crate::naive::check(&shapes, &rules))
        );
    }

    #[test]
    fn move_patches_the_violation_set() {
        let rules = RuleSet::nmos();
        let stay = boxed(Layer::Metal, Rect::new(0, 0, 10 * LAMBDA, 3 * LAMBDA));
        let near = boxed(
            Layer::Metal,
            Rect::new(0, 4 * LAMBDA, 10 * LAMBDA, 7 * LAMBDA),
        );
        let far = boxed(
            Layer::Metal,
            Rect::new(0, 20 * LAMBDA, 10 * LAMBDA, 23 * LAMBDA),
        );
        let mut state = DrcState::build(&[stay.clone(), near.clone()], &rules);
        assert_eq!(state.violations().len(), 1);
        // Move `near` far away: the violation disappears.
        let dirty = [near.geometry.bounding_box(), far.geometry.bounding_box()];
        let new_shapes = vec![stay.clone(), far.clone()];
        check_incremental(&mut state, &dirty, &new_shapes);
        assert_eq!(canon(state.violations()), canon(check(&new_shapes, &rules)));
        assert!(state.violations().is_empty());
        // Move it back: the violation returns, identically.
        let back = vec![stay.clone(), near.clone()];
        check_incremental(&mut state, &dirty, &back);
        assert_eq!(canon(state.violations()), canon(check(&back, &rules)));
        assert_eq!(state.full_rebuilds(), 0);
    }

    #[test]
    fn addition_merges_components() {
        let rules = RuleSet::nmos();
        // Two metal boxes a violation apart; a bridge box touching
        // both merges them into one conductor — no violation.
        let a = boxed(Layer::Metal, Rect::new(0, 0, 4 * LAMBDA, 3 * LAMBDA));
        let b = boxed(
            Layer::Metal,
            Rect::new(0, 4 * LAMBDA, 4 * LAMBDA, 7 * LAMBDA),
        );
        let bridge = boxed(
            Layer::Metal,
            Rect::new(0, 2 * LAMBDA, 4 * LAMBDA, 5 * LAMBDA),
        );
        let mut state = DrcState::build(&[a.clone(), b.clone()], &rules);
        assert_eq!(state.violations().len(), 1);
        let with_bridge = vec![a.clone(), b.clone(), bridge.clone()];
        check_incremental(&mut state, &[bridge.geometry.bounding_box()], &with_bridge);
        assert_eq!(
            canon(state.violations()),
            canon(check(&with_bridge, &rules))
        );
        assert!(state.violations().is_empty());
        // Remove the bridge again: the component splits, the
        // violation comes back.
        let without = vec![a.clone(), b.clone()];
        check_incremental(&mut state, &[bridge.geometry.bounding_box()], &without);
        assert_eq!(canon(state.violations()), canon(check(&without, &rules)));
        assert_eq!(state.violations().len(), 1);
    }

    #[test]
    fn under_reported_damage_falls_back_to_rebuild() {
        let rules = RuleSet::nmos();
        let a = boxed(Layer::Metal, Rect::new(0, 0, 10 * LAMBDA, 3 * LAMBDA));
        let b = boxed(
            Layer::Metal,
            Rect::new(100 * LAMBDA, 0, 110 * LAMBDA, 3 * LAMBDA),
        );
        let mut state = DrcState::build(std::slice::from_ref(&a), &rules);
        // `b` appears outside the reported damage: population drift in
        // the clean region triggers the rebuild path.
        check_incremental(
            &mut state,
            &[Rect::new(0, 0, LAMBDA, LAMBDA)],
            &[a.clone(), b.clone()],
        );
        assert_eq!(state.full_rebuilds(), 1);
        assert_eq!(canon(state.violations()), canon(check(&[a, b], &rules)));
    }

    #[test]
    fn width_violations_patch_as_a_multiset() {
        let rules = RuleSet::nmos();
        let thin = boxed(Layer::Metal, Rect::new(0, 0, 10 * LAMBDA, LAMBDA));
        let thin2 = boxed(
            Layer::Metal,
            Rect::new(0, 10 * LAMBDA, 10 * LAMBDA, 11 * LAMBDA),
        );
        let mut state = DrcState::build(&[thin.clone(), thin2.clone()], &rules);
        assert_eq!(state.violations().len(), 2); // two widths; 9λ apart, no spacing
        let dirty = [thin2.geometry.bounding_box()];
        let after = vec![thin.clone()];
        check_incremental(&mut state, &dirty, &after);
        assert_eq!(canon(state.violations()), canon(check(&after, &rules)));
    }

    #[test]
    fn coincident_rects_are_removed_one_at_a_time() {
        let rules = RuleSet::nmos();
        let dup = boxed(Layer::Metal, Rect::new(0, 0, 10 * LAMBDA, 3 * LAMBDA));
        let near = boxed(
            Layer::Metal,
            Rect::new(0, 4 * LAMBDA, 10 * LAMBDA, 7 * LAMBDA),
        );
        let mut shapes = vec![dup.clone(), near.clone(), dup.clone(), dup.clone()];
        let mut state = DrcState::build(&shapes, &rules);
        assert_eq!(state.violations().len(), 1);
        let dirty = [dup.geometry.bounding_box()];
        for left in (0..3).rev() {
            let at = shapes.iter().rposition(|s| *s == dup).expect("a copy left");
            shapes.remove(at);
            check_incremental(&mut state, &dirty, &shapes);
            assert_eq!(canon(state.violations()), canon(check(&shapes, &rules)));
            assert_eq!(state.rect_count(), left + 1);
        }
        assert!(state.violations().is_empty());
        assert_eq!(state.full_rebuilds(), 0);
    }

    #[test]
    fn unchanged_wire_straddling_the_damage_is_kept() {
        let rules = RuleSet::nmos();
        // An L of two segments: the box moves off the horizontal one,
        // so only that segment touches the damage.
        let path = riot_geom::Path::from_points([
            riot_geom::Point::new(0, 0),
            riot_geom::Point::new(40 * LAMBDA, 0),
            riot_geom::Point::new(40 * LAMBDA, 40 * LAMBDA),
        ])
        .unwrap();
        let wire = FlatShape {
            layer: Layer::Metal,
            geometry: Geometry::Wire {
                width: 3 * LAMBDA,
                path,
            },
            depth: 0,
        };
        // 1λ from the vertical segment: a violation that stays.
        let beside = boxed(
            Layer::Metal,
            Rect::new(42 * LAMBDA, 20 * LAMBDA, 46 * LAMBDA, 23 * LAMBDA),
        );
        let on = boxed(
            Layer::Metal,
            Rect::new(8 * LAMBDA, LAMBDA, 12 * LAMBDA, 4 * LAMBDA),
        );
        let off = boxed(
            Layer::Metal,
            Rect::new(20 * LAMBDA, 10 * LAMBDA, 24 * LAMBDA, 13 * LAMBDA),
        );
        let dirty = [on.geometry.bounding_box(), off.geometry.bounding_box()];
        let before = vec![wire.clone(), beside.clone(), on.clone()];
        let after = vec![wire.clone(), beside.clone(), off.clone()];
        let mut state = DrcState::build(&before, &rules);
        for shapes in [&after, &before, &after] {
            check_incremental(&mut state, &dirty, shapes);
            assert_eq!(canon(state.violations()), canon(check(shapes, &rules)));
            assert_eq!(state.violations().len(), 1);
            assert_eq!(state.rect_count(), 4);
        }
        assert_eq!(state.full_rebuilds(), 0);
    }

    #[test]
    fn removal_relabels_every_piece_it_leaves() {
        let rules = RuleSet::nmos();
        let l = LAMBDA;
        // A hub with four arms; the west arm runs on past the hub's
        // reach. Without the hub the arms are four conductors, each
        // 2λ × 2λ diagonally from its neighbours.
        let hub = boxed(Layer::Metal, Rect::new(3 * l, 3 * l, 10 * l, 10 * l));
        let arms = vec![
            boxed(Layer::Metal, Rect::new(0, 5 * l, 3 * l, 8 * l)),
            boxed(Layer::Metal, Rect::new(-3 * l, 5 * l, 0, 8 * l)),
            boxed(Layer::Metal, Rect::new(10 * l, 5 * l, 13 * l, 8 * l)),
            boxed(Layer::Metal, Rect::new(5 * l, 0, 8 * l, 3 * l)),
            boxed(Layer::Metal, Rect::new(5 * l, 10 * l, 8 * l, 13 * l)),
        ];
        let mut whole = arms.clone();
        whole.push(hub.clone());
        let mut state = DrcState::build(&whole, &rules);
        assert!(state.violations().is_empty());
        let dirty = [hub.geometry.bounding_box()];
        check_incremental(&mut state, &dirty, &arms);
        assert_eq!(canon(state.violations()), canon(check(&arms, &rules)));
        assert_eq!(state.violations().len(), 4);
        let metal = &state.layers[&Layer::Metal];
        let labels: HashSet<u64> = metal.label.iter().copied().filter(|&l| l != DEAD).collect();
        assert_eq!(labels.len(), 4, "four pieces, four labels");
        check_incremental(&mut state, &dirty, &whole);
        assert!(state.violations().is_empty());
        assert_eq!(state.full_rebuilds(), 0);
    }

    #[test]
    fn first_patch_indexes_a_fresh_layer() {
        let rules = RuleSet::nmos();
        let l = LAMBDA;
        // A clean lattice of 4λ metal boxes 4λ apart, more than the
        // overlay holds.
        let lattice = |i: i64| {
            let (x, y) = (i % 64 * 8 * l, i / 64 * 8 * l);
            boxed(Layer::Metal, Rect::new(x, y, x + 4 * l, y + 4 * l))
        };
        let n = OVERLAY_REBUILD + 100;
        let before: Vec<FlatShape> = (0..n as i64).map(lattice).collect();
        let mut state = DrcState::build(&before, &rules);
        assert!(
            state.layers[&Layer::Metal].index.is_none(),
            "build indexes nothing"
        );
        // Box 0 moves 2λ right, 2λ from box 1: a spacing violation.
        let mut after = before.clone();
        after[0] = boxed(Layer::Metal, Rect::new(2 * l, 0, 6 * l, 4 * l));
        let dirty = [
            before[0].geometry.bounding_box(),
            after[0].geometry.bounding_box(),
        ];
        for shapes in [&after, &before, &after] {
            check_incremental(&mut state, &dirty, shapes);
            assert_eq!(canon(state.violations()), canon(check(shapes, &rules)));
            let metal = &state.layers[&Layer::Metal];
            assert_eq!(metal.index.as_ref().map(SpatialIndex::len), Some(n));
        }
        assert_eq!(state.violations().len(), 1);
        assert_eq!(state.full_rebuilds(), 0);
    }

    #[test]
    fn moves_do_not_grow_the_arena() {
        let rules = RuleSet::nmos();
        let stay = boxed(Layer::Metal, Rect::new(0, 0, 10 * LAMBDA, 3 * LAMBDA));
        let near = boxed(
            Layer::Metal,
            Rect::new(0, 4 * LAMBDA, 10 * LAMBDA, 7 * LAMBDA),
        );
        let far = boxed(
            Layer::Metal,
            Rect::new(0, 20 * LAMBDA, 10 * LAMBDA, 23 * LAMBDA),
        );
        let dirty = [near.geometry.bounding_box(), far.geometry.bounding_box()];
        let mut state = DrcState::build(&[stay.clone(), near.clone()], &rules);
        for i in 0..3 * OVERLAY_REBUILD {
            let moved = if i % 2 == 0 { &far } else { &near };
            let shapes = [stay.clone(), moved.clone()];
            check_incremental(&mut state, &dirty, &shapes);
            assert_eq!(canon(state.violations()), canon(check(&shapes, &rules)));
        }
        let metal = &state.layers[&Layer::Metal];
        assert!(
            metal.rects.len() < metal.live_rects + OVERLAY_REBUILD,
            "{} slots for {} live rects",
            metal.rects.len(),
            metal.live_rects
        );
        assert_eq!(state.full_rebuilds(), 0);
    }
}
