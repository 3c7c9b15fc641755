//! Damage-driven incremental design-rule checking.
//!
//! [`DrcState`] retains everything [`crate::check`] computes — painted
//! rects per layer, connected-component labels, and the per-pair
//! spacing representatives — plus the spatial indexes used to compute
//! them. [`check_incremental`] patches that state from a list of dirty
//! world rects in two steps:
//!
//! * **Diff.** Every retained slot and every new shape is tested
//!   against the damage, and only the shapes whose bounding boxes touch
//!   it are diffed. Both scans walk a whole shape list, so the diff
//!   is O(chip) — a cheap bounding-box test per shape, but on a
//!   million-shape chip it is most of an edit's cost.
//! * **Patch.** Only components touching removed or added geometry are
//!   re-labeled, and only spacing pairs involving those components are
//!   re-measured. Everything else is carried over untouched, so the
//!   patch costs O(damage).
//!
//! # Contract
//!
//! The caller guarantees the damage invariant from
//! `riot_core::Damage`: every shape added, removed or modified since
//! the state was last in sync has its bounding box (old and new)
//! covered by the dirty rects. Shapes outside the damage must be
//! bit-identical between the old and new shape lists *as multisets* —
//! their order may change freely. The update detects gross contract
//! violations (clean-region population drift) and falls back to a
//! full rebuild rather than returning wrong answers.
//!
//! # Equality
//!
//! After any sequence of updates, [`DrcState::violations`] equals
//! `check(shapes, rules)` as a multiset. This depends on the
//! order-free representative rule shared with the full checker
//! ([`crate::offer_representative`]): the reported pair for a
//! component pair is the minimum by `(measured, a, b)`, a pure
//! function of the geometry that local patching can reproduce.

use crate::unionfind::UnionFind;
use crate::{
    axis_gaps, emit_spacing, offer_representative, painted_rects, rect_key, RuleSet, Violation,
};
use riot_cif::{FlatShape, Geometry};
use riot_geom::{index::SpatialIndex, Layer, Rect};
use std::collections::{BTreeMap, HashMap, HashSet};

/// When this many un-indexed slots accumulate in a layer's overlay,
/// the layer's spatial index is rebuilt over the whole arena. Keeps
/// the linear overlay scan bounded while amortizing index builds over
/// many updates.
const OVERLAY_REBUILD: usize = 2048;

type RectKey = (i64, i64, i64, i64);

/// Retained spacing state for one checked layer.
#[derive(Debug)]
struct LayerState {
    space: i64,
    /// Slot arena of painted rects. Grows only; removal tombstones.
    rects: Vec<Rect>,
    live: Vec<bool>,
    /// Connected-component label per slot (valid while live).
    label: Vec<u64>,
    /// Live slots per label.
    members: HashMap<u64, Vec<u32>>,
    /// Live slots per exact rect — how a removed shape's rects are
    /// located without scanning.
    by_rect: HashMap<RectKey, Vec<u32>>,
    /// Index over `rects[..indexed_len]` (dead slots included in the
    /// index and filtered by `live` at query time).
    index: SpatialIndex,
    indexed_len: usize,
    /// Live slots not yet in the index, scanned linearly.
    overlay: Vec<u32>,
    /// Spacing representative per component pair (labels ordered).
    spacing: HashMap<(u64, u64), (i64, Rect, Rect)>,
}

impl LayerState {
    fn new(space: i64) -> LayerState {
        LayerState {
            space,
            rects: Vec::new(),
            live: Vec::new(),
            label: Vec::new(),
            members: HashMap::new(),
            by_rect: HashMap::new(),
            index: SpatialIndex::build(&[]),
            indexed_len: 0,
            overlay: Vec::new(),
            spacing: HashMap::new(),
        }
    }

    /// Live slots whose axis gap to `window` is at most `dist` on both
    /// axes, from the index plus the overlay.
    fn neighbors(&self, window: Rect, dist: i64, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.index
                .within(window, dist)
                .filter(|&id| self.live[id])
                .map(|id| id as u32),
        );
        for &s in &self.overlay {
            let (dx, dy) = axis_gaps(self.rects[s as usize], window);
            if dx <= dist && dy <= dist {
                out.push(s);
            }
        }
    }

    fn add_slot(&mut self, r: Rect) -> u32 {
        let slot = self.rects.len() as u32;
        self.rects.push(r);
        self.live.push(true);
        self.label.push(0);
        self.by_rect.entry(rect_key(r)).or_default().push(slot);
        self.overlay.push(slot);
        slot
    }

    /// Tombstones one live slot holding exactly `r`. `None` when no
    /// such slot exists — a contract violation the caller handles.
    fn remove_rect(&mut self, r: Rect) -> Option<u32> {
        let slots = self.by_rect.get_mut(&rect_key(r))?;
        let slot = slots.pop()?;
        if slots.is_empty() {
            self.by_rect.remove(&rect_key(r));
        }
        self.live[slot as usize] = false;
        if let Some(m) = self.members.get_mut(&self.label[slot as usize]) {
            if let Some(pos) = m.iter().position(|&s| s == slot) {
                m.swap_remove(pos);
            }
            if m.is_empty() {
                self.members.remove(&self.label[slot as usize]);
            }
        }
        if let Some(pos) = self.overlay.iter().position(|&s| s == slot) {
            self.overlay.swap_remove(pos);
        }
        Some(slot)
    }

    fn maybe_rebuild_index(&mut self) {
        if self.overlay.len() > OVERLAY_REBUILD {
            self.index = SpatialIndex::build(&self.rects);
            self.indexed_len = self.rects.len();
            self.overlay.clear();
        }
    }
}

/// Retained DRC results, patchable by [`check_incremental`].
#[derive(Debug)]
pub struct DrcState {
    rules: RuleSet,
    /// Slot arena of the current shapes (with cached bbox); removal
    /// tombstones, addition appends.
    shapes: Vec<Option<(FlatShape, Rect)>>,
    live_shapes: usize,
    layers: BTreeMap<Layer, LayerState>,
    /// Width-violation multiset keyed by `(layer, at, measured,
    /// required)` — width depends on one shape only, so it patches as
    /// a plain multiset diff.
    width: HashMap<(Layer, RectKey, i64, i64), usize>,
    next_label: u64,
    /// Updates that fell back to a full rebuild (contract breach).
    rebuilds: u64,
}

/// The width violation a single shape produces, if any — the same
/// predicate [`crate::check`] applies per shape.
fn width_violation(shape: &FlatShape, rules: &RuleSet) -> Option<(Layer, RectKey, i64, i64)> {
    let rule = rules.rule(shape.layer)?;
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

/// Diff key: layer + geometry. Depth is deliberately excluded — the
/// checker never reads it, so shapes differing only in depth are
/// DRC-equivalent.
fn shape_key(s: &FlatShape) -> String {
    format!("{:?}|{:?}", s.layer, s.geometry)
}

impl DrcState {
    /// Builds the retained state from scratch — the full-recompute
    /// baseline every incremental update patches.
    pub fn build(shapes: &[FlatShape], rules: &RuleSet) -> DrcState {
        let mut sp = riot_trace::span!("drc.state.build", shapes = shapes.len() as u64);
        let mut state = DrcState {
            rules: rules.clone(),
            shapes: Vec::with_capacity(shapes.len()),
            live_shapes: shapes.len(),
            layers: BTreeMap::new(),
            width: HashMap::new(),
            next_label: 1,
            rebuilds: 0,
        };
        for s in shapes {
            if let Some(k) = width_violation(s, rules) {
                *state.width.entry(k).or_insert(0) += 1;
            }
            let bb = s.geometry.bounding_box();
            if let Some(rule) = rules.rule(s.layer) {
                let layer = state
                    .layers
                    .entry(s.layer)
                    .or_insert_with(|| LayerState::new(rule.min_space));
                for r in painted_rects(s) {
                    layer.add_slot(r);
                }
            }
            state.shapes.push(Some((s.clone(), bb)));
        }
        for layer in state.layers.values_mut() {
            layer.index = SpatialIndex::build(&layer.rects);
            layer.indexed_len = layer.rects.len();
            layer.overlay.clear();
            // Initial labels via one union-find over the whole layer.
            let comp = crate::components(&layer.rects, &layer.index);
            let mut fresh: HashMap<usize, u64> = HashMap::new();
            for (slot, &c) in comp.iter().enumerate() {
                let label = *fresh.entry(c).or_insert_with(|| {
                    let l = state.next_label;
                    state.next_label += 1;
                    l
                });
                layer.label[slot] = label;
                layer.members.entry(label).or_default().push(slot as u32);
            }
            // Initial spacing representatives.
            if layer.space > 0 {
                let mut neighbors = Vec::new();
                for i in 0..layer.rects.len() {
                    neighbors.clear();
                    neighbors.extend(layer.index.within(layer.rects[i], layer.space - 1));
                    for &j in &neighbors {
                        if j <= i || layer.label[i] == layer.label[j] {
                            continue;
                        }
                        let (a, b) = (layer.rects[i], layer.rects[j]);
                        let (dx, dy) = axis_gaps(a, b);
                        let key = (
                            layer.label[i].min(layer.label[j]),
                            layer.label[i].max(layer.label[j]),
                        );
                        offer_representative(&mut layer.spacing, key, dx.max(dy), a, b);
                    }
                }
            }
        }
        sp.field("labels", state.next_label);
        state
    }

    /// The current violation multiset: equals `check(shapes, rules)`
    /// up to ordering (width violations first, then per-layer spacing
    /// in canonical `(measured, a, b)` order).
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut width: Vec<_> = self.width.iter().collect();
        width.sort_unstable_by_key(|&(k, _)| *k);
        for (&(layer, at, measured, required), &count) in width {
            for _ in 0..count {
                out.push(Violation::Width {
                    layer,
                    at: Rect::new(at.0, at.1, at.2, at.3),
                    measured,
                    required,
                });
            }
        }
        for (&layer, ls) in &self.layers {
            out.extend(emit_spacing(layer, ls.space, ls.spacing.clone()));
        }
        out
    }

    /// Live shapes currently accounted for.
    pub fn shape_count(&self) -> usize {
        self.live_shapes
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
    let in_dirty = |bb: Rect| bb.touches(union) && dirty.iter().any(|d| bb.touches(*d));

    // Multiset-diff the dirty subsets at shape level: shapes present
    // on both sides survive untouched; the rest are removals and
    // additions.
    let mut old_dirty: HashMap<String, Vec<usize>> = HashMap::new();
    let mut old_dirty_total = 0usize;
    for (slot, entry) in state.shapes.iter().enumerate() {
        if let Some((shape, bb)) = entry {
            if in_dirty(*bb) {
                old_dirty.entry(shape_key(shape)).or_default().push(slot);
                old_dirty_total += 1;
            }
        }
    }
    let mut added: Vec<&FlatShape> = Vec::new();
    let mut new_dirty_total = 0usize;
    for s in shapes {
        if in_dirty(s.geometry.bounding_box()) {
            new_dirty_total += 1;
            match old_dirty.get_mut(&shape_key(s)) {
                Some(slots) if !slots.is_empty() => {
                    slots.pop();
                }
                _ => added.push(s),
            }
        }
    }
    let removed: Vec<usize> = old_dirty.into_values().flatten().collect();

    // Contract sanity: the clean region must hold the same number of
    // shapes on both sides. Population drift means damage was
    // under-reported — rebuild rather than drift.
    let clean_old = state.live_shapes - old_dirty_total;
    let clean_new = shapes.len() - new_dirty_total;
    if clean_old != clean_new {
        state.rebuilds += 1;
        let rebuilds = state.rebuilds;
        *state = DrcState::build(shapes, &state.rules);
        state.rebuilds = rebuilds;
        sp.field("rebuild", 1);
        return state.live_shapes;
    }
    if removed.is_empty() && added.is_empty() {
        return 0;
    }

    // Per-layer work lists: removed slots and added rects.
    let mut removed_rects: BTreeMap<Layer, Vec<Rect>> = BTreeMap::new();
    for &slot in &removed {
        let (shape, _) = state.shapes[slot].take().expect("diffed as live");
        state.live_shapes -= 1;
        if let Some(k) = width_violation(&shape, &state.rules) {
            if let Some(c) = state.width.get_mut(&k) {
                *c -= 1;
                if *c == 0 {
                    state.width.remove(&k);
                }
            }
        }
        if state.rules.rule(shape.layer).is_some() {
            removed_rects
                .entry(shape.layer)
                .or_default()
                .extend(painted_rects(&shape));
        }
    }
    let mut added_rects: BTreeMap<Layer, Vec<Rect>> = BTreeMap::new();
    for s in added {
        if let Some(k) = width_violation(s, &state.rules) {
            *state.width.entry(k).or_insert(0) += 1;
        }
        if state.rules.rule(s.layer).is_some() {
            added_rects
                .entry(s.layer)
                .or_default()
                .extend(painted_rects(s));
        }
        state
            .shapes
            .push(Some((s.clone(), s.geometry.bounding_box())));
        state.live_shapes += 1;
    }

    // Patch each touched layer's connectivity and spacing.
    let mut patched_total = 0usize;
    let touched: Vec<Layer> = removed_rects
        .keys()
        .chain(added_rects.keys())
        .copied()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for layer_id in touched {
        let rule = state.rules.rule(layer_id).expect("only checked layers");
        let layer = state
            .layers
            .entry(layer_id)
            .or_insert_with(|| LayerState::new(rule.min_space));

        let mut affected: HashSet<u64> = HashSet::new();
        for &r in removed_rects
            .get(&layer_id)
            .map(Vec::as_slice)
            .unwrap_or(&[])
        {
            match layer.remove_rect(r) {
                Some(slot) => {
                    affected.insert(layer.label[slot as usize]);
                }
                None => {
                    // A removed shape whose rect is not in the state:
                    // the caller's shape list and ours disagree.
                    state.rebuilds += 1;
                    let rebuilds = state.rebuilds;
                    *state = DrcState::build(shapes, &state.rules);
                    state.rebuilds = rebuilds;
                    sp.field("rebuild", 1);
                    return state.live_shapes;
                }
            }
        }
        let mut new_slots: Vec<u32> = Vec::new();
        let mut neighbors = Vec::new();
        for &r in added_rects.get(&layer_id).map(Vec::as_slice).unwrap_or(&[]) {
            new_slots.push(layer.add_slot(r));
        }
        // Labels whose components touch the additions join the rebuild
        // set (an addition can merge two components into one).
        for &s in &new_slots {
            layer.neighbors(layer.rects[s as usize], 0, &mut neighbors);
            for &t in &neighbors {
                if !new_slots.contains(&t) {
                    affected.insert(layer.label[t as usize]);
                }
            }
        }

        // Rebuild set: every remaining member of an affected label,
        // plus the new slots.
        let mut rebuild: Vec<u32> = new_slots.clone();
        for l in &affected {
            if let Some(m) = layer.members.get(l) {
                rebuild.extend(m.iter().copied());
            }
        }
        rebuild.sort_unstable();
        rebuild.dedup();
        patched_total += rebuild.len();

        // Re-pair the rebuild set: union-find over touching members.
        // Damage closure guarantees any slot touching a rebuild slot
        // is itself in the set (proved in DESIGN.md §10), so the local
        // union-find sees every edge.
        let local: HashMap<u32, usize> = rebuild.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let mut uf = UnionFind::new(rebuild.len());
        for (i, &s) in rebuild.iter().enumerate() {
            layer.neighbors(layer.rects[s as usize], 0, &mut neighbors);
            for &t in &neighbors {
                if let Some(&j) = local.get(&t) {
                    uf.union(i, j);
                }
            }
        }
        let comp = uf.labels();
        // Old labels die with their entries; fresh labels replace them.
        for l in &affected {
            layer.members.remove(l);
        }
        let mut fresh: HashMap<usize, u64> = HashMap::new();
        for (i, &s) in rebuild.iter().enumerate() {
            let label = match fresh.get(&comp[i]) {
                Some(&l) => l,
                None => {
                    let l = state.next_label;
                    state.next_label += 1;
                    fresh.insert(comp[i], l);
                    l
                }
            };
            layer.label[s as usize] = label;
            layer.members.entry(label).or_default().push(s);
        }

        // Spacing: entries naming an affected (or removed) label are
        // stale; pairs involving the rebuild set are re-measured.
        layer
            .spacing
            .retain(|&(a, b), _| !affected.contains(&a) && !affected.contains(&b));
        if layer.space > 0 {
            for &s in &rebuild {
                let rs = layer.rects[s as usize];
                layer.neighbors(rs, layer.space - 1, &mut neighbors);
                for &t in &neighbors {
                    let (ls, lt) = (layer.label[s as usize], layer.label[t as usize]);
                    if ls == lt {
                        continue;
                    }
                    let rt = layer.rects[t as usize];
                    let (dx, dy) = axis_gaps(rs, rt);
                    if dx < layer.space && dy < layer.space {
                        offer_representative(
                            &mut layer.spacing,
                            (ls.min(lt), ls.max(lt)),
                            dx.max(dy),
                            rs,
                            rt,
                        );
                    }
                }
            }
        }
        layer.maybe_rebuild_index();
    }
    sp.field("patched", patched_total as u64);
    if riot_trace::enabled() {
        riot_trace::registry()
            .histogram("drc.incremental.patched")
            .record(patched_total as u64);
    }
    patched_total
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
        assert_eq!(canon(state.violations()), canon(check(&shapes, &rules)));
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
}
