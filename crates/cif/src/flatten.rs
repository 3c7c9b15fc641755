//! Hierarchy flattening: instantiate every call down to painted shapes.
//!
//! Riot renders and measures cells by walking the hierarchy; the
//! flattener produces the fully-instantiated shape list used for
//! plotting, mask generation checks and area accounting.
//!
//! Flatten runs after essentially every editor command (the checking
//! pipeline is flatten → DRC → render), so it is a hot path. The
//! production entry points ([`flatten`], [`flatten_counted`]) therefore
//! **memoize**: each symbol's flattened local-coordinate shape list is
//! computed once — DAG-sized tree-walking — and every further
//! instantiation is a flat pass applying one transform per shape, with
//! translation-only placements taking a validation-free fast path.
//! The original recursive walker is retained as [`flatten_recursive`] /
//! [`flatten_cell`] for differential tests and benchmarks.
//!
//! # Memoization invariants
//!
//! The memo is only correct because CIF hierarchies are *separated*:
//! a symbol's geometry is fixed at definition time and a call can only
//! reference already-defined symbols, so a cached local-coordinate
//! expansion can never be invalidated mid-flatten. The depth-64 cycle
//! guard is preserved exactly: every memo entry records its call-chain
//! *height*, and an instantiation at depth `d` of a cell with height
//! `h` fails iff `d + h` exceeds the limit — the same condition the
//! recursive walker checks one call at a time.

use crate::error::{ErrorKind, ParseCifError};
use crate::model::{CifFile, Geometry};
use riot_geom::{Layer, Orientation, Path, Point, Rect, Transform};
use std::borrow::Cow;
use std::collections::HashMap;

/// A shape instantiated into top-level coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatShape {
    /// Mask layer.
    pub layer: Layer,
    /// Geometry in absolute coordinates.
    pub geometry: Geometry,
    /// Instantiation depth (0 = drawn at top level).
    pub depth: usize,
}

/// Counters from one memoized flatten, also mirrored into the
/// `riot-trace` registry (`cif.flatten.memo.hits` / `.misses`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlattenStats {
    /// Shapes in the flattened output.
    pub shapes: usize,
    /// Distinct symbols expanded into the memo (= cache misses).
    pub memo_cells: usize,
    /// Calls served from the memo instead of re-walking a subtree.
    pub memo_hits: usize,
    /// Calls that had to expand their symbol (first encounters).
    pub memo_misses: usize,
}

/// Maximum instantiation depth; deeper means a definition cycle in a
/// well-formed separated hierarchy.
const MAX_DEPTH: usize = 64;

/// Flattens the file's top-level content (shapes and calls) into
/// absolute-coordinate shapes.
///
/// # Errors
///
/// Returns an error if a call references an undefined symbol or the
/// hierarchy is deeper than 64 levels (which in a well-formed separated
/// hierarchy means a definition cycle).
pub fn flatten(file: &CifFile) -> Result<Vec<FlatShape>, ParseCifError> {
    let mut sp = riot_trace::span!("cif.flatten");
    let (shapes, stats) = flatten_counted(file)?;
    sp.field("shapes", stats.shapes as u64);
    Ok(shapes)
}

/// One symbol's flattened expansion in its own coordinate system.
struct MemoEntry {
    /// Subtree shapes; `depth` is *relative* (0 = the symbol's own).
    shapes: Vec<FlatShape>,
    /// Longest call chain below this symbol (leaf = 0).
    height: usize,
}

#[derive(Default)]
struct Memo {
    cells: HashMap<u32, MemoEntry>,
    hits: usize,
    misses: usize,
}

/// Memoized flatten returning the shape list plus cache statistics.
///
/// Identical output (including order and `depth` values) to
/// [`flatten_recursive`]; see the module docs for why the memo is
/// sound and how the depth guard is preserved.
///
/// # Errors
///
/// Same conditions as [`flatten`].
pub fn flatten_counted(file: &CifFile) -> Result<(Vec<FlatShape>, FlattenStats), ParseCifError> {
    let mut sp = riot_trace::span!("cif.flatten.memo");
    let mut memo = Memo::default();
    for call in file.top_calls() {
        build_memo(file, call.cell, 1, &mut memo)?;
    }

    // Exact output size up front (the counted stats): no growth
    // reallocations while instantiating.
    let total: usize = file.top_shapes().len()
        + file
            .top_calls()
            .iter()
            .map(|c| memo.cells[&c.cell].shapes.len())
            .sum::<usize>();
    let mut out = Vec::with_capacity(total);

    // Top-level shapes pass through untransformed: `Cow::Borrowed`
    // until the single clone into the output.
    for shape in file.top_shapes() {
        out.push(FlatShape {
            layer: shape.layer,
            geometry: transform_geometry_cow(&shape.geometry, Transform::IDENTITY).into_owned(),
            depth: 0,
        });
    }

    // Instantiate each top call from its memo entry: one transform
    // application per shape, no tree left to walk.
    for call in file.top_calls() {
        let entry = &memo.cells[&call.cell];
        instantiate_into(&entry.shapes, call.transform, &mut out);
    }
    debug_assert_eq!(out.len(), total);

    let stats = FlattenStats {
        shapes: out.len(),
        memo_cells: memo.cells.len(),
        memo_hits: memo.hits,
        memo_misses: memo.misses,
    };
    let registry = riot_trace::registry();
    registry
        .counter("cif.flatten.memo.hits")
        .add(stats.memo_hits as u64);
    registry
        .counter("cif.flatten.memo.misses")
        .add(stats.memo_misses as u64);
    sp.field("shapes", stats.shapes as u64);
    sp.field("memo_hits", stats.memo_hits as u64);
    Ok((out, stats))
}

/// Applies `t` to a memoized local-coordinate slice, pushing shapes one
/// instantiation level deeper. The translation-only check is hoisted
/// out of the loop: placements in assembled layouts are overwhelmingly
/// pure translations, and the fast path is a branch-free shift per
/// shape with no path re-validation.
fn instantiate_into(local: &[FlatShape], t: Transform, out: &mut Vec<FlatShape>) {
    if t.orient == Orientation::R0 {
        out.extend(local.iter().map(|fs| FlatShape {
            layer: fs.layer,
            geometry: fs.geometry.translated(t.offset),
            depth: fs.depth + 1,
        }));
    } else {
        out.extend(local.iter().map(|fs| FlatShape {
            layer: fs.layer,
            geometry: transform_geometry(&fs.geometry, t),
            depth: fs.depth + 1,
        }));
    }
}

/// Ensures `memo` holds the expansion of symbol `id`, returning the
/// symbol's call-chain height. `chain` is the instantiation depth this
/// call occurs at, mirroring the recursive walker's depth counter so
/// undefined-symbol and too-deep errors fire under exactly the same
/// conditions.
fn build_memo(
    file: &CifFile,
    id: u32,
    chain: usize,
    memo: &mut Memo,
) -> Result<usize, ParseCifError> {
    if let Some(entry) = memo.cells.get(&id) {
        memo.hits += 1;
        // The recursive walker would have re-entered every level of
        // this subtree; its deepest entry is `chain + height`.
        if chain + entry.height > MAX_DEPTH {
            return Err(ParseCifError::new(0, ErrorKind::UnbalancedDefinition));
        }
        return Ok(entry.height);
    }
    memo.misses += 1;
    if chain > MAX_DEPTH {
        return Err(ParseCifError::new(0, ErrorKind::UnbalancedDefinition));
    }
    let cell = file
        .cell(id)
        .ok_or_else(|| ParseCifError::new(0, ErrorKind::UndefinedSymbol(id)))?;

    // Expand children first (DAG post-order), accumulating the exact
    // output size so composition allocates once.
    let mut height = 0usize;
    let mut total = cell.shapes.len();
    for call in &cell.calls {
        let child_height = build_memo(file, call.cell, chain + 1, memo)?;
        height = height.max(1 + child_height);
        total += memo.cells[&call.cell].shapes.len();
    }

    let mut shapes = Vec::with_capacity(total);
    for shape in &cell.shapes {
        shapes.push(FlatShape {
            layer: shape.layer,
            geometry: shape.geometry.clone(),
            depth: 0,
        });
    }
    for call in &cell.calls {
        let child = &memo.cells[&call.cell];
        instantiate_into(&child.shapes, call.transform, &mut shapes);
    }
    memo.cells.insert(id, MemoEntry { shapes, height });
    Ok(height)
}

/// What one [`FlattenCache::update`] did, and where.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlattenDelta {
    /// First sync (or top-structure churn): everything is new and
    /// `dirty` is empty — callers treat the whole output as damaged.
    pub full: bool,
    /// World-space rects covering every output shape that changed
    /// (old and new positions). Empty when nothing changed.
    pub dirty: Vec<Rect>,
    /// Symbols whose expansions were recomputed.
    pub reexpanded_symbols: usize,
    /// Top-level segments (calls or the top-shape prefix) patched.
    pub patched_segments: usize,
}

/// A persistent, incrementally-maintained flatten.
///
/// Where [`flatten_counted`] memoizes *within* one call, this cache
/// survives across edits: [`update`](Self::update) diffs the file
/// against the last-synced definitions, re-expands only symbols whose
/// definition changed — or that transitively call one that did, found
/// through a reverse-dependency map — and patches the retained output
/// in place, splicing only the top-level segments whose content moved.
/// It returns the world rects those segments covered before and after,
/// which is exactly the damage the downstream incremental DRC and
/// dirty-rect render need.
///
/// The retained output is always bit-identical (order, depth values)
/// to what [`flatten_counted`] would produce from scratch — the
/// differential property tests in `tests/flatten_differential.rs`
/// prove it under random edit sequences.
#[derive(Default)]
pub struct FlattenCache {
    /// Symbol definitions as of the last sync, for diffing.
    defs: HashMap<u32, crate::model::CifCell>,
    memo: Memo,
    /// Top-level structure as of the last sync.
    top_shapes: Vec<crate::model::Shape>,
    top_calls: Vec<crate::model::CifCall>,
    /// The retained flattened output: top-shape prefix, then one
    /// contiguous segment per top call, in call order.
    output: Vec<FlatShape>,
    /// Per-top-call segment starts (segment `i` ends where `i + 1`
    /// starts; the last ends at `output.len()`). The top-shape prefix
    /// occupies `0..starts.first()`.
    starts: Vec<usize>,
    synced: bool,
    updates: u64,
    patched_segments: u64,
}

impl FlattenCache {
    /// An empty cache; the first [`update`](Self::update) is a full
    /// flatten.
    pub fn new() -> FlattenCache {
        FlattenCache::default()
    }

    /// The retained flattened output for the last synced file.
    pub fn shapes(&self) -> &[FlatShape] {
        &self.output
    }

    /// Memo statistics over the cache's lifetime (hits accumulate
    /// across updates — the cache-hit-rate numerator riot-serve
    /// reports per session).
    pub fn stats(&self) -> FlattenStats {
        FlattenStats {
            shapes: self.output.len(),
            memo_cells: self.memo.cells.len(),
            memo_hits: self.memo.hits,
            memo_misses: self.memo.misses,
        }
    }

    /// Updates performed and top-level segments patched (rather than
    /// rebuilt) over the cache's lifetime.
    pub fn patch_counts(&self) -> (u64, u64) {
        (self.updates, self.patched_segments)
    }

    /// Syncs the cache to `file`, returning the damage the edit
    /// caused.
    ///
    /// # Errors
    ///
    /// Same conditions as [`flatten`]; the cache is left cleared on
    /// error (the next update rebuilds fully).
    pub fn update(&mut self, file: &CifFile) -> Result<FlattenDelta, ParseCifError> {
        let mut sp = riot_trace::span!("cif.flatten.update");
        self.updates += 1;
        match self.update_inner(file) {
            Ok(delta) => {
                self.patched_segments += delta.patched_segments as u64;
                sp.field("dirty", delta.dirty.len() as u64);
                sp.field("patched", delta.patched_segments as u64);
                debug_assert_eq!(
                    self.output,
                    flatten_counted(file)?.0,
                    "cache must match a from-scratch flatten"
                );
                Ok(delta)
            }
            Err(e) => {
                *self = FlattenCache {
                    updates: self.updates,
                    patched_segments: self.patched_segments,
                    ..FlattenCache::default()
                };
                Err(e)
            }
        }
    }

    fn update_inner(&mut self, file: &CifFile) -> Result<FlattenDelta, ParseCifError> {
        // 1. Which symbol definitions changed since the last sync?
        let mut dirty_syms: Vec<u32> = Vec::new();
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for cell in file.cells() {
            seen.insert(cell.id);
            if self.defs.get(&cell.id) != Some(cell) {
                dirty_syms.push(cell.id);
            }
        }
        for &id in self.defs.keys() {
            if !seen.contains(&id) {
                dirty_syms.push(id); // removed definition
            }
        }

        // 2. Close over reverse dependencies: a symbol calling a dirty
        // symbol is itself dirty — its cached expansion embeds the
        // callee's shapes.
        let mut rev: HashMap<u32, Vec<u32>> = HashMap::new();
        for cell in file.cells() {
            for call in &cell.calls {
                rev.entry(call.cell).or_default().push(cell.id);
            }
        }
        let mut dirty_set: std::collections::HashSet<u32> = dirty_syms.iter().copied().collect();
        let mut work = dirty_syms;
        while let Some(id) = work.pop() {
            for &caller in rev.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
                if dirty_set.insert(caller) {
                    work.push(caller);
                }
            }
        }
        for id in &dirty_set {
            self.memo.cells.remove(id);
        }
        let reexpanded = dirty_set.len();

        // 3. Re-expand what the top calls need (memo hits for clean
        // symbols, rebuilds for dirty ones — the same depth guard as
        // flatten_counted).
        for call in file.top_calls() {
            build_memo(file, call.cell, 1, &mut self.memo)?;
        }

        // 4. Patch the retained output. Segment 0 is the top-shape
        // prefix; segment i+1 is top call i. A segment is stale when
        // its call changed or its symbol was re-expanded.
        if !self.synced {
            return self.rebuild_all(file, reexpanded);
        }
        let old_calls = std::mem::take(&mut self.top_calls);
        let n_old = old_calls.len();
        let n_new = file.top_calls().len();
        let mut dirty: Vec<Rect> = Vec::new();
        let mut patched = 0usize;

        // Stale segments, new content computed up front (splices are
        // applied back-to-front so earlier ranges stay valid).
        let mut splices: Vec<(usize, Vec<FlatShape>)> = Vec::new();
        if file.top_shapes() != self.top_shapes.as_slice() {
            let mut seg = Vec::with_capacity(file.top_shapes().len());
            for shape in file.top_shapes() {
                seg.push(FlatShape {
                    layer: shape.layer,
                    geometry: shape.geometry.clone(),
                    depth: 0,
                });
            }
            splices.push((0, seg));
        }
        for i in 0..n_old.max(n_new) {
            let old = old_calls.get(i);
            let new = file.top_calls().get(i);
            let stale = match (old, new) {
                (Some(o), Some(n)) => o != n || dirty_set.contains(&n.cell),
                _ => true, // added or removed call
            };
            if !stale {
                continue;
            }
            let mut seg = Vec::new();
            if let Some(n) = new {
                let entry = &self.memo.cells[&n.cell];
                seg.reserve(entry.shapes.len());
                instantiate_into(&entry.shapes, n.transform, &mut seg);
            }
            if let Some(bb) = bounding_box_of(&seg) {
                dirty.push(bb);
            }
            splices.push((i + 1, seg));
        }

        // Back-to-front, with ranges fixed against the pre-splice
        // layout: a splice only moves content at higher positions, so
        // every earlier (smaller) range stays valid — including
        // multiple appends at the old end, which reverse application
        // re-orders correctly.
        let old_len = self.output.len();
        for (seg_idx, new_seg) in splices.into_iter().rev() {
            let (start, end) = self.segment_range(seg_idx, n_old, old_len);
            if let Some(bb) = bounding_box_of(&self.output[start..end]) {
                dirty.push(bb);
            }
            patched += 1;
            self.output.splice(start..end, new_seg);
        }

        // Recompute segment starts from the synced sizes.
        self.top_shapes = file.top_shapes().to_vec();
        self.top_calls = file.top_calls().to_vec();
        self.defs = file
            .cells()
            .into_iter()
            .map(|c| (c.id, c.clone()))
            .collect();
        self.starts.clear();
        let mut at = self.top_shapes.len();
        for call in &self.top_calls {
            self.starts.push(at);
            at += self.memo.cells[&call.cell].shapes.len();
        }
        debug_assert_eq!(at, self.output.len());

        Ok(FlattenDelta {
            full: false,
            dirty,
            reexpanded_symbols: reexpanded,
            patched_segments: patched,
        })
    }

    /// `[start, end)` of segment `seg_idx` in the *old* output of
    /// length `old_len` (0 = top-shape prefix, `i + 1` = old top call
    /// `i`; a segment past the old call count is empty at the old
    /// end).
    fn segment_range(&self, seg_idx: usize, n_old_calls: usize, old_len: usize) -> (usize, usize) {
        if seg_idx == 0 {
            return (0, self.starts.first().copied().unwrap_or(old_len));
        }
        let i = seg_idx - 1;
        if i >= n_old_calls {
            return (old_len, old_len);
        }
        let start = self.starts[i];
        let end = self.starts.get(i + 1).copied().unwrap_or(old_len);
        (start, end)
    }

    fn rebuild_all(
        &mut self,
        file: &CifFile,
        reexpanded: usize,
    ) -> Result<FlattenDelta, ParseCifError> {
        self.output.clear();
        self.starts.clear();
        for shape in file.top_shapes() {
            self.output.push(FlatShape {
                layer: shape.layer,
                geometry: shape.geometry.clone(),
                depth: 0,
            });
        }
        for call in file.top_calls() {
            self.starts.push(self.output.len());
            let entry = &self.memo.cells[&call.cell];
            instantiate_into(&entry.shapes, call.transform, &mut self.output);
        }
        self.top_shapes = file.top_shapes().to_vec();
        self.top_calls = file.top_calls().to_vec();
        self.defs = file
            .cells()
            .into_iter()
            .map(|c| (c.id, c.clone()))
            .collect();
        self.synced = true;
        Ok(FlattenDelta {
            full: true,
            dirty: Vec::new(),
            reexpanded_symbols: reexpanded,
            patched_segments: 0,
        })
    }
}

/// The original recursive flatten, retained as the reference
/// implementation for differential tests and the spatial benchmark.
/// Walks the full instantiation *tree* (re-expanding shared symbols at
/// every call) where [`flatten`] walks the definition *DAG* once.
///
/// # Errors
///
/// Same conditions as [`flatten`].
pub fn flatten_recursive(file: &CifFile) -> Result<Vec<FlatShape>, ParseCifError> {
    let mut out = Vec::new();
    for shape in file.top_shapes() {
        out.push(FlatShape {
            layer: shape.layer,
            geometry: shape.geometry.clone(),
            depth: 0,
        });
    }
    for call in file.top_calls() {
        flatten_cell(file, call.cell, call.transform, 1, &mut out)?;
    }
    Ok(out)
}

/// Flattens one definition (and everything below it) under `transform`
/// by direct recursion.
///
/// # Errors
///
/// Same conditions as [`flatten`].
pub fn flatten_cell(
    file: &CifFile,
    id: u32,
    transform: Transform,
    depth: usize,
    out: &mut Vec<FlatShape>,
) -> Result<(), ParseCifError> {
    if depth > MAX_DEPTH {
        return Err(ParseCifError::new(0, ErrorKind::UnbalancedDefinition));
    }
    let cell = file
        .cell(id)
        .ok_or_else(|| ParseCifError::new(0, ErrorKind::UndefinedSymbol(id)))?;
    for shape in &cell.shapes {
        out.push(FlatShape {
            layer: shape.layer,
            geometry: transform_geometry(&shape.geometry, transform),
            depth,
        });
    }
    for call in &cell.calls {
        flatten_cell(
            file,
            call.cell,
            call.transform.then(transform),
            depth + 1,
            out,
        )?;
    }
    Ok(())
}

/// Maps geometry through a Manhattan transform.
///
/// Pure translations (the overwhelmingly common placement in assembled
/// layouts) take a fast path through [`Geometry::translated`], which
/// shifts wire vertices without re-validating the path.
pub fn transform_geometry(g: &Geometry, t: Transform) -> Geometry {
    if t.orient == Orientation::R0 {
        return g.translated(t.offset);
    }
    match g {
        Geometry::Box(r) => Geometry::Box(t.apply_rect(*r)),
        Geometry::Polygon(pts) => Geometry::Polygon(pts.iter().map(|&p| t.apply(p)).collect()),
        Geometry::Wire { width, path } => {
            let pts: Vec<Point> = path.points().iter().map(|&p| t.apply(p)).collect();
            Geometry::Wire {
                width: *width,
                path: Path::from_points(pts)
                    .expect("Manhattan transform preserves Manhattan paths"),
            }
        }
        Geometry::Flash { diameter, center } => Geometry::Flash {
            diameter: *diameter,
            center: t.apply(*center),
        },
    }
}

/// Like [`transform_geometry`] but allocation-free for the identity
/// transform: callers that only *read* the result (bounding boxes,
/// area sums) never pay for a clone, and owned output is cloned only
/// at the final `into_owned`.
pub fn transform_geometry_cow(g: &Geometry, t: Transform) -> Cow<'_, Geometry> {
    if t == Transform::IDENTITY {
        Cow::Borrowed(g)
    } else {
        Cow::Owned(transform_geometry(g, t))
    }
}

/// Bounding box of a cell **including** everything it instantiates.
///
/// Served from the memoized expansion: nothing is cloned or
/// re-transformed just to take a bounding box.
///
/// # Errors
///
/// Same conditions as [`flatten`]. Returns `Ok(None)` for a cell that
/// paints nothing anywhere in its subtree.
pub fn deep_bounding_box(file: &CifFile, id: u32) -> Result<Option<Rect>, ParseCifError> {
    let mut memo = Memo::default();
    build_memo(file, id, 1, &mut memo)?;
    Ok(bounding_box_of(&memo.cells[&id].shapes))
}

/// Bounding box of a flattened shape list.
pub fn bounding_box_of(shapes: &[FlatShape]) -> Option<Rect> {
    let mut bb: Option<Rect> = None;
    for s in shapes {
        let b = s.geometry.bounding_box();
        bb = Some(match bb {
            Some(acc) => acc.union(b),
            None => b,
        });
    }
    bb
}

/// Sum of painted bounding-box areas per layer, for area accounting.
/// Overlaps are counted twice; Riot-era area comparisons used cell
/// bounding boxes, so this is a diagnostic, not a mask-area integral.
pub fn painted_area_by_layer(shapes: &[FlatShape]) -> Vec<(Layer, i128)> {
    let mut totals: Vec<(Layer, i128)> = Vec::new();
    for s in shapes {
        let area = s.geometry.bounding_box().area();
        match totals.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, t)) => *t += area,
            None => totals.push((s.layer, area)),
        }
    }
    totals.sort_by_key(|&(l, _)| l);
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    const HIER: &str = "\
DS 1;
L NM; B 10 10 5 5;
DF;
DS 2;
C 1 T 0 0;
C 1 T 20 0;
DF;
C 2 T 100 100;
E";

    #[test]
    fn flattens_two_levels() {
        let f = parse(HIER).unwrap();
        let shapes = flatten(&f).unwrap();
        assert_eq!(shapes.len(), 2);
        assert_eq!(shapes[0].depth, 2);
        assert_eq!(
            shapes[0].geometry.bounding_box(),
            Rect::new(100, 100, 110, 110)
        );
        assert_eq!(
            shapes[1].geometry.bounding_box(),
            Rect::new(120, 100, 130, 110)
        );
    }

    #[test]
    fn memo_output_equals_recursive_output() {
        let f = parse(HIER).unwrap();
        let (memoized, stats) = flatten_counted(&f).unwrap();
        let recursive = flatten_recursive(&f).unwrap();
        assert_eq!(memoized, recursive, "same shapes in the same order");
        assert_eq!(stats.shapes, 2);
        assert_eq!(stats.memo_cells, 2);
        // Symbol 1 is called twice by symbol 2: one miss, one hit.
        assert_eq!(stats.memo_hits, 1);
        assert_eq!(stats.memo_misses, 2);
    }

    #[test]
    fn deep_bbox() {
        let f = parse(HIER).unwrap();
        assert_eq!(
            deep_bounding_box(&f, 2).unwrap(),
            Some(Rect::new(0, 0, 30, 10))
        );
        assert_eq!(
            deep_bounding_box(&f, 1).unwrap(),
            Some(Rect::new(0, 0, 10, 10))
        );
    }

    #[test]
    fn empty_cell_has_no_bbox() {
        let f = parse("DS 1;DF;E").unwrap();
        assert_eq!(deep_bounding_box(&f, 1).unwrap(), None);
    }

    #[test]
    fn rotation_applies_through_hierarchy() {
        let text = "DS 1;L NM;B 10 4 5 2;DF;DS 2;C 1 R 0 1;DF;C 2;E";
        let f = parse(text).unwrap();
        let shapes = flatten(&f).unwrap();
        // The 10x4 box rotated 90° becomes 4x10.
        let bb = shapes[0].geometry.bounding_box();
        assert_eq!(bb.width(), 4);
        assert_eq!(bb.height(), 10);
    }

    #[test]
    fn cycle_detected() {
        // A cycle cannot be written in strict CIF (definition before
        // call), but the model can be constructed programmatically.
        use crate::model::{CifCall, CifCell, CifFile};
        let mut f = CifFile::new();
        f.insert_cell(CifCell {
            id: 1,
            calls: vec![CifCall {
                cell: 1,
                transform: Transform::IDENTITY,
            }],
            ..CifCell::default()
        });
        f.push_top_call(CifCall {
            cell: 1,
            transform: Transform::IDENTITY,
        });
        assert!(flatten(&f).is_err());
        assert!(flatten_recursive(&f).is_err());
    }

    #[test]
    fn depth_guard_applies_to_memo_hits() {
        // A 64-deep linear chain: each cell calls the next. Flattening
        // the whole chain exceeds MAX_DEPTH both recursively and
        // through the memo (entry height check), even though no single
        // memo build recurses past the guard.
        use crate::model::{CifCall, CifCell, CifFile, Shape};
        let mut f = CifFile::new();
        f.insert_cell(CifCell {
            id: 1,
            shapes: vec![Shape {
                layer: Layer::Metal,
                geometry: Geometry::Box(Rect::new(0, 0, 10, 10)),
            }],
            ..CifCell::default()
        });
        for id in 2..=65 {
            f.insert_cell(CifCell {
                id,
                calls: vec![CifCall {
                    cell: id - 1,
                    transform: Transform::IDENTITY,
                }],
                ..CifCell::default()
            });
        }
        // Depth 64 from the top: still legal.
        f.push_top_call(CifCall {
            cell: 64,
            transform: Transform::IDENTITY,
        });
        assert_eq!(flatten(&f).unwrap().len(), 1);
        // One level deeper: both implementations reject.
        f.push_top_call(CifCall {
            cell: 65,
            transform: Transform::IDENTITY,
        });
        assert!(flatten_recursive(&f).is_err());
        assert!(flatten(&f).is_err());
    }

    #[test]
    fn translation_fast_path_matches_full_apply() {
        let path =
            Path::from_points([Point::new(0, 0), Point::new(30, 0), Point::new(30, 20)]).unwrap();
        let wire = Geometry::Wire { width: 4, path };
        let t = Transform::translate(Point::new(7, -3));
        let fast = transform_geometry(&wire, t);
        // Reference: the pre-fast-path application through `apply`.
        let Geometry::Wire { path: p, .. } = &wire else {
            unreachable!()
        };
        let full = Geometry::Wire {
            width: 4,
            path: Path::from_points(p.points().iter().map(|&q| t.apply(q)).collect::<Vec<_>>())
                .unwrap(),
        };
        assert_eq!(fast, full);
    }

    #[test]
    fn cow_transform_borrows_identity() {
        let g = Geometry::Box(Rect::new(0, 0, 5, 5));
        assert!(matches!(
            transform_geometry_cow(&g, Transform::IDENTITY),
            Cow::Borrowed(_)
        ));
        assert!(matches!(
            transform_geometry_cow(&g, Transform::translate(Point::new(1, 0))),
            Cow::Owned(_)
        ));
    }

    #[test]
    fn cache_first_update_is_full_then_patches() {
        let f = parse(HIER).unwrap();
        let mut cache = FlattenCache::new();
        let delta = cache.update(&f).unwrap();
        assert!(delta.full);
        assert_eq!(cache.shapes(), flatten_counted(&f).unwrap().0.as_slice());

        // No edit: a clean update touches nothing.
        let delta = cache.update(&f).unwrap();
        assert_eq!(delta, FlattenDelta::default());

        // Move the single top call: one segment patched, dirty covers
        // the old and new positions.
        let mut f2 = f.clone();
        f2.top_calls_mut()[0].transform = Transform::translate(Point::new(500, 500));
        let delta = cache.update(&f2).unwrap();
        assert!(!delta.full);
        assert_eq!(delta.patched_segments, 1);
        assert_eq!(delta.reexpanded_symbols, 0);
        assert_eq!(
            delta.dirty,
            vec![Rect::new(500, 500, 530, 510), Rect::new(100, 100, 130, 110)]
        );
        assert_eq!(cache.shapes(), flatten_counted(&f2).unwrap().0.as_slice());
    }

    #[test]
    fn symbol_edit_reexpands_only_transitive_callers() {
        // 1 ← 2 ← 3 (top), and an unrelated 4 (top): editing 1 must
        // re-expand {1, 2, 3} but serve 4 from the retained memo.
        let text = "\
DS 1;L NM;B 10 10 5 5;DF;
DS 2;C 1 T 0 0;DF;
DS 3;C 2 T 0 0;DF;
DS 4;L NP;B 10 10 5 5;DF;
C 3 T 0 0;
C 4 T 100 0;
E";
        let f = parse(text).unwrap();
        let mut cache = FlattenCache::new();
        cache.update(&f).unwrap();
        let misses_before = cache.stats().memo_misses;

        let mut f2 = f.clone();
        let mut leaf = f2.cell(1).unwrap().clone();
        leaf.shapes[0].geometry = Geometry::Box(Rect::new(0, 0, 20, 20));
        f2.insert_cell(leaf);
        let delta = cache.update(&f2).unwrap();
        assert_eq!(delta.reexpanded_symbols, 3, "1, 2, 3 — not 4");
        assert_eq!(delta.patched_segments, 1, "only the C 3 segment");
        assert_eq!(
            cache.stats().memo_misses - misses_before,
            3,
            "symbol 4's entry survived the edit"
        );
        assert_eq!(cache.shapes(), flatten_counted(&f2).unwrap().0.as_slice());
    }

    #[test]
    fn cache_recovers_after_an_error() {
        let f = parse(HIER).unwrap();
        let mut cache = FlattenCache::new();
        cache.update(&f).unwrap();

        // Point the top call at an undefined symbol: the update fails
        // and clears the cache.
        let mut broken = f.clone();
        broken.top_calls_mut()[0].cell = 99;
        assert!(cache.update(&broken).is_err());
        assert!(cache.shapes().is_empty());

        // The next good update rebuilds from scratch.
        let delta = cache.update(&f).unwrap();
        assert!(delta.full);
        assert_eq!(cache.shapes(), flatten_counted(&f).unwrap().0.as_slice());
    }

    #[test]
    fn cache_tracks_added_and_removed_top_calls() {
        let f = parse(HIER).unwrap();
        let mut cache = FlattenCache::new();
        cache.update(&f).unwrap();

        let mut f2 = f.clone();
        f2.push_top_call(crate::model::CifCall {
            cell: 2,
            transform: Transform::translate(Point::new(1000, 0)),
        });
        f2.push_top_call(crate::model::CifCall {
            cell: 1,
            transform: Transform::translate(Point::new(2000, 0)),
        });
        let delta = cache.update(&f2).unwrap();
        assert!(!delta.full);
        assert_eq!(delta.patched_segments, 2);
        assert_eq!(cache.shapes(), flatten_counted(&f2).unwrap().0.as_slice());

        let mut f3 = f2.clone();
        f3.top_calls_mut().remove(0);
        let delta = cache.update(&f3).unwrap();
        assert!(!delta.full);
        assert_eq!(cache.shapes(), flatten_counted(&f3).unwrap().0.as_slice());
        assert!(
            delta.dirty.iter().any(|d| d.x0 == 100),
            "old position damaged"
        );
    }

    #[test]
    fn area_by_layer() {
        let f = parse("DS 1;L NM;B 10 10 5 5;L NP;B 2 2 1 1;B 2 2 5 5;DF;C 1;E").unwrap();
        let shapes = flatten(&f).unwrap();
        let areas = painted_area_by_layer(&shapes);
        assert_eq!(areas.len(), 2);
        let poly = areas
            .iter()
            .find(|(l, _)| *l == Layer::Poly)
            .map(|&(_, a)| a);
        assert_eq!(poly, Some(8));
    }
}
