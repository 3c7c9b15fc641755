//! The obstacle-aware grid router.
//!
//! Where the paper's river router "cannot turn corners, and it ignores
//! objects in the path of the route", this module routes each net with
//! an A* maze search over a per-layer grid: the channel is rasterized
//! into node/edge blockage masks from the caller's obstacle rectangles
//! (queried through a per-layer [`SpatialIndex`], with a keep-out halo
//! of `width/2 + spacing` derived from the layer's design rule), and
//! the search walks `(layer, x, y)` states with Manhattan step costs, a
//! bend penalty, and a layer-change via cost. Layer changes emit real
//! contacts (`md`/`mp`/`bur` with their 4λ landing pads), so a grid
//! route can connect terminals on *different* layers and detour around
//! anything in the channel.
//!
//! Multi-net problems route with a two-phase **plan/commit** scheme:
//! every net first plans against the frozen obstacle-only grid, then
//! the plans commit in net order — a commit that would violate spacing
//! against an earlier net's geometry is re-routed alone against the
//! obstacles plus everything already committed. A plan never sees
//! another net, so no net's first attempt depends on the nets before it.
//!
//! The grid is **non-uniform**: node columns sit every
//! [`crate::RouterOptions::grid_pitch`] lambda *plus* a dedicated
//! column per terminal, so a coarse pitch never strands a pin. Edge
//! blockage is checked over the full span between adjacent columns,
//! keeping coarse grids exactly as safe as the 1λ default.
//!
//! All coordinates are channel-local lambda: the bottom edge is `y = 0`
//! (the *to* instance), the top edge is `y = height` (the *from*
//! instance), matching [`crate::river_route`].

use crate::error::RouteError;
use crate::river::{check_edge_spacing, spacing_lambda};
use crate::straight::unique_pin_name;
use crate::terminal::RouteProblem;
use riot_geom::{index::SpatialIndex, Layer, Path, Point, Rect};
use riot_sticks::{Contact, ContactKind, Pin, SticksCell, SymWire};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cost of one lambda of wire.
const COST_STEP: u64 = 2;
/// Extra cost when a net changes direction (fewer jogs, cleaner masks).
const COST_BEND: u64 = 3;
/// Cost of a layer change (a via costs area on both layers).
const COST_VIA: u64 = 40;
/// Deterministic per-net expansion cap: the search gives up (and the
/// net reports [`RouteError::Unroutable`]) rather than running forever.
const MAX_EXPANSIONS: u64 = 4_000_000;
/// Commit-phase restart budget: each restart promotes one failed net
/// to the front of the commit order. Independent plans tend to pile
/// jogs into the same rows, so a late net can find its terminal region
/// sealed by earlier commits; promotion lets it route first and makes
/// the sealing nets detour instead. The front net can never fail (it
/// commits into an empty channel), so a handful of restarts settles
/// any realistic pile-up.
const MAX_RESTARTS: u64 = 8;
/// Columns kept free beyond the terminal extent so detours can swing
/// around edge obstacles (added on top of the widest wire).
const X_SLACK: i64 = 8;
/// Half-extent of the x-window a net searches first, in lambda beyond
/// its own terminal span. Keeps per-net A* state small (and therefore
/// cache-resident); a net that cannot route inside its window
/// deterministically retries over the full channel.
const X_WINDOW: i64 = 32;

/// Minimum legal wire width on a layer in lambda (Mead & Conway: 3λ
/// metal, 2λ everything else) — a net narrower than this widens to the
/// floor on that layer so emitted masks stay DRC-clean.
fn min_width_lambda(layer: Layer) -> i64 {
    match layer {
        Layer::Metal => 3,
        _ => 2,
    }
}

/// The wire width a net actually uses on `layer`.
fn eff_width(width: i64, layer: Layer) -> i64 {
    width.max(min_width_lambda(layer))
}

/// Lifts a lambda-frame rectangle into the **half-lambda** clearance
/// frame. Mask emission inflates a width-`w` centerline by the
/// physical `w/2`, which is not a whole lambda when `w` is odd (the 3λ
/// metal floor is the common case) — so every clearance computation in
/// this module doubles its coordinates and works in exact half-lambda
/// integers: a width-`w` wire's edges sit exactly `w` half-lambdas
/// from its center, and the spacing rule on a layer is
/// `2 * spacing_lambda(layer)`.
fn phys(r: Rect) -> Rect {
    Rect::new(2 * r.x0, 2 * r.y0, 2 * r.x1, 2 * r.y1)
}

/// The contact kind joining two distinct routable layers.
fn via_kind(a: Layer, b: Layer) -> ContactKind {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match (lo, hi) {
        (Layer::Diffusion, Layer::Metal) => ContactKind::MetalDiffusion,
        (Layer::Poly, Layer::Metal) => ContactKind::MetalPoly,
        _ => ContactKind::Buried,
    }
}

/// A layer change on a routed net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridVia {
    /// Cut center (channel-local lambda).
    pub position: Point,
    /// Which layers the contact joins.
    pub kind: ContactKind,
}

/// One grid-routed net: same-layer runs separated by vias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridWire {
    /// Net name (from the bottom terminal).
    pub name: String,
    /// Index of the net in the problem.
    pub net: usize,
    /// Requested width (max of the two terminal widths); each segment
    /// widens to its layer's minimum where needed.
    pub width: i64,
    /// Same-layer centerline runs, in bottom-to-top order. The width is
    /// the effective width on that segment's layer.
    pub segments: Vec<(Layer, i64, Path)>,
    /// Layer changes between consecutive segments.
    pub vias: Vec<GridVia>,
}

impl GridWire {
    /// The wire's start on the bottom channel edge.
    pub fn bottom_end(&self) -> Point {
        self.segments
            .first()
            .map(|(_, _, p)| p.start())
            .unwrap_or(Point::new(0, 0))
    }

    /// The wire's end on the top channel edge.
    pub fn top_end(&self) -> Point {
        self.segments
            .last()
            .map(|(_, _, p)| p.end())
            .unwrap_or(Point::new(0, 0))
    }

    /// Every mask rectangle the net paints on routable layers, in
    /// **half-lambda** coordinates (exact physical extents): one rect
    /// per path segment inflated by its full width — a width-`w` wire's
    /// edges sit `w/2` lambda, i.e. `w` half-lambdas, from the
    /// centerline — plus the 4λ via landing pads on both joined layers.
    /// (Cut/buried boxes are concentric and strictly inside the pads'
    /// design-rule shadow, so they never add constraints.)
    pub fn rects(&self) -> Vec<(Layer, Rect)> {
        let mut out = Vec::new();
        for (layer, w, path) in &self.segments {
            for (a, b) in path.segments() {
                out.push((*layer, phys(Rect::from_points(a, b)).inflated(*w)));
            }
        }
        for v in &self.vias {
            let pad = phys(Rect::from_center(v.position, 0, 0)).inflated(4);
            let (a, b) = v.kind.layers();
            out.push((a, pad));
            out.push((b, pad));
        }
        out
    }
}

/// Solver counters for one [`grid_route`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridStats {
    /// A* states popped across every net (including re-routes).
    pub expansions: u64,
    /// Total vias placed.
    pub vias: u64,
    /// Commit-phase conflicts detected between planned nets.
    pub conflicts: u64,
    /// Single-net re-routes run to resolve those conflicts.
    pub retries: u64,
    /// Commit passes restarted with a failed net promoted to the front
    /// of the commit order (see `MAX_RESTARTS`).
    pub restarts: u64,
}

/// A completed grid route across one channel region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRoute {
    wires: Vec<GridWire>,
    height: i64,
    stats: GridStats,
}

impl GridRoute {
    /// The routed nets, one per net, in problem order.
    pub fn wires(&self) -> &[GridWire] {
        &self.wires
    }

    /// Channel height in lambda (distance between the two edges).
    pub fn height(&self) -> i64 {
        self.height
    }

    /// Solver counters (expansions, vias, conflicts, retries).
    pub fn stats(&self) -> GridStats {
        self.stats
    }

    /// Builds the Sticks route cell for this route: wires per segment,
    /// a contact per via, pins on both channel edges (primed on name
    /// collision, like the river cell generator).
    pub fn to_sticks_cell(&self, name: impl Into<String>) -> SticksCell {
        let mut xmin = i64::MAX;
        let mut xmax = i64::MIN;
        let mut wmax: i64 = 0;
        for w in &self.wires {
            for (_, sw, path) in &w.segments {
                wmax = wmax.max(*sw);
                for &p in path.points() {
                    xmin = xmin.min(p.x);
                    xmax = xmax.max(p.x);
                }
            }
            for v in &w.vias {
                xmin = xmin.min(v.position.x);
                xmax = xmax.max(v.position.x);
            }
        }
        let pad = (wmax + 1) / 2 + 2;
        let bbox = Rect::new(xmin - pad, 0, xmax + pad, self.height);
        let mut cell = SticksCell::new(name, bbox);

        let mut used = std::collections::HashSet::new();
        for w in &self.wires {
            if let Some((layer, sw, path)) = w.segments.first() {
                cell.push_pin(Pin {
                    name: unique_pin_name(&w.name, &mut used),
                    side: riot_geom::Side::Bottom,
                    layer: *layer,
                    position: path.start(),
                    width: *sw,
                });
            }
            if let Some((layer, sw, path)) = w.segments.last() {
                cell.push_pin(Pin {
                    name: unique_pin_name(&w.name, &mut used),
                    side: riot_geom::Side::Top,
                    layer: *layer,
                    position: path.end(),
                    width: *sw,
                });
            }
            for (layer, sw, path) in &w.segments {
                cell.push_wire(SymWire {
                    layer: *layer,
                    width: *sw,
                    path: path.clone(),
                });
            }
            for v in &w.vias {
                cell.push_contact(Contact {
                    kind: v.kind,
                    position: v.position,
                });
            }
        }
        cell
    }
}

/// Checks a finished grid route for spacing violations: every pair of
/// rects from *different* nets, and every net rect against every
/// obstacle, must keep the layer's design-rule spacing (a net's own
/// geometry is contiguous and exempt, exactly as DRC merges connected
/// components). Obstacles are lambda-frame rects; the check runs in
/// the exact half-lambda frame.
///
/// # Errors
///
/// A human-readable description of the first violation (coordinates in
/// half-lambda).
pub fn verify_clearance(route: &GridRoute, obstacles: &[(Layer, Rect)]) -> Result<(), String> {
    let nets: Vec<Vec<(Layer, Rect)>> = route.wires.iter().map(|w| w.rects()).collect();
    let obstacles: Vec<(Layer, Rect)> = obstacles.iter().map(|&(l, r)| (l, phys(r))).collect();
    for i in 0..nets.len() {
        for j in i + 1..nets.len() {
            if let Some((layer, ra, rb)) = rect_sets_conflict(&nets[i], &nets[j]) {
                return Err(format!(
                    "nets {} and {} violate {layer} spacing (half-lambda): {ra} vs {rb}",
                    route.wires[i].name, route.wires[j].name
                ));
            }
        }
        if let Some((layer, ra, rb)) = rect_sets_conflict(&nets[i], &obstacles) {
            return Err(format!(
                "net {} violates {layer} spacing against an obstacle (half-lambda): {ra} vs {rb}",
                route.wires[i].name
            ));
        }
    }
    Ok(())
}

/// First same-layer spacing conflict between two **half-lambda** rect
/// sets, if any.
fn rect_sets_conflict(a: &[(Layer, Rect)], b: &[(Layer, Rect)]) -> Option<(Layer, Rect, Rect)> {
    for &(la, ra) in a {
        for &(lb, rb) in b {
            if la != lb {
                continue;
            }
            let s2 = 2 * spacing_lambda(la);
            let dx = (rb.x0 - ra.x1).max(ra.x0 - rb.x1).max(0);
            let dy = (rb.y0 - ra.y1).max(ra.y0 - rb.y1).max(0);
            if dx < s2 && dy < s2 {
                return Some((la, ra, rb));
            }
        }
    }
    None
}

/// One net's search inputs.
struct Spec {
    net: usize,
    name: String,
    width: i64,
    blayer: usize,
    tlayer: usize,
    bxi: usize,
    txi: usize,
}

/// A terminal keep-out: the vertical escape column reserved for one
/// net at its terminal. Other nets' searches must keep design-rule
/// spacing from it, so no commit can ever seal a later net's terminal
/// against the channel edge; the owning net is exempt (the stub *is*
/// its access path). `x`/`y0`/`y1` are lambda-frame; `w` is the full
/// effective wire width (the half-lambda half-extent).
struct Stub {
    x: i64,
    w: i64,
    layer: usize,
    owner: usize,
    y0: i64,
    y1: i64,
}

/// Per-(layer, half-width) blockage: nodes plus horizontal/vertical
/// edges between adjacent grid lines (edges are checked over their full
/// span, so coarse pitches stay safe).
struct Mask {
    node: Vec<bool>,
    hedge: Vec<bool>,
    vedge: Vec<bool>,
}

/// The rasterized channel: non-uniform axes and per-(layer, width)
/// blockage masks. Via pads share the `(layer, 2)` masks — a 4λ pad's
/// half-extent is exactly a half-width of 2 — so those keys always
/// exist.
struct Grid {
    xs: Vec<i64>,
    ys: Vec<i64>,
    nx: usize,
    ny: usize,
    height: i64,
    /// Keyed by `(layer index, half-width)`; few entries, linear scan.
    masks: Vec<((usize, i64), Mask)>,
    /// Terminal keep-outs, sorted by `x`.
    stubs: Vec<Stub>,
    /// Max x-distance (half-lambda) at which a stub can still matter.
    stub_reach: i64,
}

impl Grid {
    fn mask(&self, layer: usize, w2: i64) -> &Mask {
        self.masks
            .iter()
            .find(|((l, w), _)| *l == layer && *w == w2)
            .map(|(_, m)| m)
            .expect("mask prebuilt for every (layer, width) a net can use")
    }

    /// Marks one committed net rectangle (half-lambda frame) into every
    /// mask of its layer, so conflict re-routes see earlier commits
    /// without rebuilding the grid. Masks are pure ORs, so the marking
    /// order is irrelevant.
    fn commit_rect(&mut self, layer: Layer, rect: Rect) {
        let li = layer_idx(layer);
        let s2 = 2 * spacing_lambda(layer);
        for ((l, w), mask) in &mut self.masks {
            if *l == li {
                mark(mask, &self.xs, &self.ys, rect, *w, s2);
            }
        }
    }

    /// Whether painting `rect` (half-lambda frame) on `layer` would
    /// violate spacing against another net's terminal keep-out.
    fn stub_blocked(&self, owner: usize, layer: usize, rect: Rect) -> bool {
        let lo = self
            .stubs
            .partition_point(|st| 2 * st.x < rect.x0 - self.stub_reach);
        let s2 = 2 * spacing_lambda(layer_of(layer));
        for st in &self.stubs[lo..] {
            if 2 * st.x > rect.x1 + self.stub_reach {
                break;
            }
            if st.owner == owner || st.layer != layer {
                continue;
            }
            let sr = Rect::new(
                2 * st.x - st.w,
                2 * st.y0 - st.w,
                2 * st.x + st.w,
                2 * st.y1 + st.w,
            );
            let dx = (sr.x0 - rect.x1).max(rect.x0 - sr.x1).max(0);
            let dy = (sr.y0 - rect.y1).max(rect.y0 - sr.y1).max(0);
            if dx < s2 && dy < s2 {
                return true;
            }
        }
        false
    }
}

fn layer_of(idx: usize) -> Layer {
    Layer::ROUTABLE[idx]
}

fn layer_idx(layer: Layer) -> usize {
    Layer::ROUTABLE
        .iter()
        .position(|&l| l == layer)
        .unwrap_or(0)
}

/// Builds the sorted, deduped coordinate axis: every multiple of
/// `pitch` across `[lo, hi]` plus each required coordinate.
fn axis(lo: i64, hi: i64, pitch: i64, required: impl IntoIterator<Item = i64>) -> Vec<i64> {
    let mut xs: Vec<i64> = Vec::new();
    let mut x = lo;
    while x < hi {
        xs.push(x);
        x += pitch;
    }
    xs.push(hi);
    xs.extend(required);
    xs.sort_unstable();
    xs.dedup();
    xs
}

/// Marks one obstacle rect (half-lambda frame) into a mask for wires
/// of full width `w`. The blocked band on each axis is the open
/// interval `(r.lo - s2 - w, r.hi + s2 + w)` in half-lambda: a wire
/// center (lambda coordinate `x`, physical edges at `2x ± w`) inside
/// it has an axis gap `< s2` to the obstacle, the DRC spacing
/// predicate.
fn mark(mask: &mut Mask, xs: &[i64], ys: &[i64], r: Rect, w: i64, s2: i64) {
    let nx = xs.len();
    let (xlo, xhi) = (r.x0 - s2 - w, r.x1 + s2 + w);
    let (ylo, yhi) = (r.y0 - s2 - w, r.y1 + s2 + w);
    let ia = xs.partition_point(|&x| 2 * x <= xlo);
    let ib = xs.partition_point(|&x| 2 * x < xhi);
    let ja = ys.partition_point(|&y| 2 * y <= ylo);
    let jb = ys.partition_point(|&y| 2 * y < yhi);
    for j in ja..jb {
        for i in ia..ib {
            mask.node[j * nx + i] = true;
        }
        // Horizontal edges whose covered span [2*xs[i]-w, 2*xs[i+1]+w]
        // overlaps the obstacle's inflated x-range.
        let ea = ia.saturating_sub(1);
        let eb = ib.min(nx - 1);
        for i in ea..eb {
            mask.hedge[j * (nx - 1) + i] = true;
        }
    }
    // Vertical edges: the y-span test loosens by one row on each side.
    let ja_e = ja.saturating_sub(1);
    let jb_e = jb.min(ys.len() - 1);
    for j in ja_e..jb_e {
        for i in ia..ib {
            mask.vedge[j * nx + i] = true;
        }
    }
}

/// Rasterizes obstacles into a fresh mask for wires of full width `w`
/// by querying the layer's spatial index (lambda frame) over the
/// channel window.
fn rasterize(index: &SpatialIndex, xs: &[i64], ys: &[i64], w: i64, s2: i64) -> Mask {
    let (nx, ny) = (xs.len(), ys.len());
    let mut mask = Mask {
        node: vec![false; nx * ny],
        hedge: vec![false; (nx - 1) * ny],
        vedge: vec![false; nx * (ny - 1)],
    };
    if index.is_empty() {
        return mask;
    }
    let window = Rect::new(xs[0], ys[0], xs[nx - 1], ys[ny - 1]).inflated((w + s2 + 1) / 2);
    for id in index.query(window) {
        mark(&mut mask, xs, ys, phys(index.rect(id)), w, s2);
    }
    mask
}

fn build_grid(
    problem: &RouteProblem,
    obstacles: &[(Layer, Rect)],
    height: i64,
) -> Result<Grid, RouteError> {
    let pitch = problem.options.grid_pitch;
    let mut xlo = i64::MAX;
    let mut xhi = i64::MIN;
    let mut wmax: i64 = 2;
    let mut required = Vec::new();
    for t in problem.bottom.iter().chain(&problem.top) {
        xlo = xlo.min(t.offset);
        xhi = xhi.max(t.offset);
        wmax = wmax.max(t.width);
        required.push(t.offset);
    }
    let slack = X_SLACK + wmax;
    let xs = axis(xlo - slack, xhi + slack, pitch, required);
    let ys = axis(0, height.max(1), pitch, [0, height.max(1)]);
    let (nx, ny) = (xs.len(), ys.len());

    // Per-layer obstacle indexes (the rasterizer queries these).
    let mut per_layer: Vec<Vec<Rect>> = vec![Vec::new(); Layer::ROUTABLE.len()];
    for &(layer, rect) in obstacles {
        if let Some(i) = Layer::ROUTABLE.iter().position(|&l| l == layer) {
            per_layer[i].push(rect);
        }
    }
    let indexes: Vec<SpatialIndex> = per_layer.iter().map(|r| SpatialIndex::build(r)).collect();

    // Every (layer, width) combination any net can occupy, plus the
    // `(layer, 4)` keys the via-pad checks read (a 4λ pad's half-extent
    // is 2λ = 4 half-lambdas, the same clearance profile as a width-4
    // wire).
    let mut keys: Vec<(usize, i64)> = Vec::new();
    for li in 0..Layer::ROUTABLE.len() {
        keys.push((li, 4));
    }
    for (b, t) in problem.bottom.iter().zip(&problem.top) {
        let w = b.width.max(t.width);
        for li in 0..Layer::ROUTABLE.len() {
            let key = (li, eff_width(w, layer_of(li)));
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    let masks = keys
        .into_iter()
        .map(|(li, w)| {
            let s2 = 2 * spacing_lambda(layer_of(li));
            ((li, w), rasterize(&indexes[li], &xs, &ys, w, s2))
        })
        .collect();

    // Terminal keep-outs: reserve a vertical escape column per terminal
    // so no net can seal another's terminal against a channel edge. The
    // stub is long enough that a via escaping over a run hugging its
    // tip still fits (pad + spacing + the widest crossing wire).
    let h = height.max(1);
    let wmax_eff = wmax.max(3);
    let stub_len = (wmax_eff + 7).min(h);
    let mut stubs: Vec<Stub> = Vec::new();
    for (i, (b, t)) in problem.bottom.iter().zip(&problem.top).enumerate() {
        let w = b.width.max(t.width);
        stubs.push(Stub {
            x: b.offset,
            w: eff_width(w, b.layer),
            layer: layer_idx(b.layer),
            owner: i,
            y0: 0,
            y1: stub_len,
        });
        stubs.push(Stub {
            x: t.offset,
            w: eff_width(w, t.layer),
            layer: layer_idx(t.layer),
            owner: i,
            y0: (h - stub_len).max(0),
            y1: h,
        });
    }
    stubs.sort_unstable_by_key(|st| st.x);

    Ok(Grid {
        xs,
        ys,
        nx,
        ny,
        height: h,
        masks,
        stubs,
        // A stub's clearance field reaches `w + s2` half-lambdas from
        // its center; bound with the widest wire and widest rule.
        stub_reach: wmax_eff + 6,
    })
}

/// Directions a state can be entered with (for the bend penalty).
const DIR_NONE: u8 = 0;
const DIR_X: u8 = 1;
const DIR_Y: u8 = 2;
const DIR_VIA: u8 = 3;

/// Routes one net: a windowed A* around the net's own terminal span
/// first (small state, cache-resident under parallel planning), then a
/// deterministic full-channel retry if the window has no path.
fn route_net(grid: &Grid, spec: &Spec) -> Result<(Vec<(usize, Point)>, u64), RouteError> {
    let (lo_x, hi_x) = {
        let (a, b) = (grid.xs[spec.bxi], grid.xs[spec.txi]);
        (a.min(b) - X_WINDOW, a.max(b) + X_WINDOW)
    };
    let clo = grid.xs.partition_point(|&x| x < lo_x);
    let chi = grid.xs.partition_point(|&x| x <= hi_x).saturating_sub(1);
    match astar(grid, spec, clo, chi) {
        Ok(r) => Ok(r),
        Err(_) if clo > 0 || chi < grid.nx - 1 => astar(grid, spec, 0, grid.nx - 1),
        Err(e) => Err(e),
    }
}

/// A* maze search for one net over the rasterized grid, restricted to
/// columns `clo..=chi`. Returns the `(layer, point)` node sequence from
/// the bottom terminal to the top terminal plus the number of
/// expansions, or [`RouteError::Unroutable`] when no path exists
/// inside the window.
fn astar(
    grid: &Grid,
    spec: &Spec,
    clo: usize,
    chi: usize,
) -> Result<(Vec<(usize, Point)>, u64), RouteError> {
    let (nx, ny) = (grid.nx, grid.ny);
    let wnx = chi - clo + 1;
    let nodes = wnx * ny;
    let states = Layer::ROUTABLE.len() * nodes;
    let unroutable = RouteError::Unroutable { net: spec.net };

    let wof = |li: usize| eff_width(spec.width, layer_of(li));
    let wmasks: Vec<&Mask> = (0..Layer::ROUTABLE.len())
        .map(|li| grid.mask(li, wof(li)))
        .collect();
    let vmasks: Vec<&Mask> = (0..Layer::ROUTABLE.len())
        .map(|li| grid.mask(li, 4))
        .collect();

    let start = spec.blayer * nodes + (spec.bxi - clo);
    let goal = spec.tlayer * nodes + (ny - 1) * wnx + (spec.txi - clo);
    let goal_x = grid.xs[spec.txi];

    if wmasks[spec.blayer].node[spec.bxi] || wmasks[spec.tlayer].node[(ny - 1) * nx + spec.txi] {
        return Err(unroutable);
    }

    let h = |state: usize| -> u64 {
        let li = state / nodes;
        let n = state % nodes;
        let (xi, yj) = (clo + n % wnx, n / wnx);
        let dist = (grid.xs[xi] - goal_x).unsigned_abs() + (grid.height - grid.ys[yj]) as u64;
        dist * COST_STEP + if li != spec.tlayer { COST_VIA } else { 0 }
    };

    let mut g: Vec<u64> = vec![u64::MAX; states];
    let mut came: Vec<u32> = vec![u32::MAX; states];
    let mut dir: Vec<u8> = vec![DIR_NONE; states];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    g[start] = 0;
    came[start] = start as u32;
    heap.push(Reverse((h(start), start as u32)));

    let mut expansions: u64 = 0;
    while let Some(Reverse((f, state))) = heap.pop() {
        let state = state as usize;
        if f != g[state].saturating_add(h(state)) {
            continue; // stale entry
        }
        if state == goal {
            break;
        }
        expansions += 1;
        if expansions > MAX_EXPANSIONS {
            return Err(unroutable);
        }

        let li = state / nodes;
        let n = state % nodes;
        let (ci, yj) = (n % wnx, n / wnx);
        let xi = clo + ci;
        let gn = yj * nx + xi;
        let mask = wmasks[li];
        let din = dir[state];
        let bend = move |d: u8| -> u64 {
            if din != DIR_NONE && din != DIR_VIA && d != din {
                COST_BEND
            } else {
                0
            }
        };

        let mut relax =
            |next: usize, cost: u64, d: u8, heap: &mut BinaryHeap<Reverse<(u64, u32)>>| {
                let t = g[state] + cost;
                if t < g[next] {
                    g[next] = t;
                    came[next] = state as u32;
                    dir[next] = d;
                    heap.push(Reverse((t + h(next), next as u32)));
                }
            };

        // Axis moves: blocked edges carry the full span between
        // columns, and the swept wire rect (half-lambda frame) must
        // clear other nets' terminal keep-outs.
        let (x, y) = (grid.xs[xi], grid.ys[yj]);
        let w = wof(li);
        if ci + 1 < wnx && !mask.hedge[yj * (nx - 1) + xi] {
            let swept = Rect::new(2 * x - w, 2 * y - w, 2 * grid.xs[xi + 1] + w, 2 * y + w);
            if !grid.stub_blocked(spec.net, li, swept) {
                let cost = (grid.xs[xi + 1] - x) as u64 * COST_STEP + bend(DIR_X);
                relax(state + 1, cost, DIR_X, &mut heap);
            }
        }
        if ci > 0 && !mask.hedge[yj * (nx - 1) + xi - 1] {
            let swept = Rect::new(2 * grid.xs[xi - 1] - w, 2 * y - w, 2 * x + w, 2 * y + w);
            if !grid.stub_blocked(spec.net, li, swept) {
                let cost = (x - grid.xs[xi - 1]) as u64 * COST_STEP + bend(DIR_X);
                relax(state - 1, cost, DIR_X, &mut heap);
            }
        }
        if yj + 1 < ny && !mask.vedge[yj * nx + xi] {
            let swept = Rect::new(2 * x - w, 2 * y - w, 2 * x + w, 2 * grid.ys[yj + 1] + w);
            if !grid.stub_blocked(spec.net, li, swept) {
                let cost = (grid.ys[yj + 1] - y) as u64 * COST_STEP + bend(DIR_Y);
                relax(state + wnx, cost, DIR_Y, &mut heap);
            }
        }
        if yj > 0 && !mask.vedge[(yj - 1) * nx + xi] {
            let swept = Rect::new(2 * x - w, 2 * grid.ys[yj - 1] - w, 2 * x + w, 2 * y + w);
            if !grid.stub_blocked(spec.net, li, swept) {
                let cost = (y - grid.ys[yj - 1]) as u64 * COST_STEP + bend(DIR_Y);
                relax(state - wnx, cost, DIR_Y, &mut heap);
            }
        }

        // Layer change: the 4λ landing pads must clear obstacles and
        // keep-outs on both layers and fit inside the channel.
        let pad = Rect::new(2 * x - 4, 2 * y - 4, 2 * x + 4, 2 * y + 4);
        if y >= 2
            && y <= grid.height - 2
            && !vmasks[li].node[gn]
            && !grid.stub_blocked(spec.net, li, pad)
        {
            for l2 in 0..Layer::ROUTABLE.len() {
                if l2 != li
                    && !vmasks[l2].node[gn]
                    && !wmasks[l2].node[gn]
                    && !grid.stub_blocked(spec.net, l2, pad)
                {
                    relax(l2 * nodes + n, COST_VIA, DIR_VIA, &mut heap);
                }
            }
        }
    }

    if g[goal] == u64::MAX {
        return Err(unroutable);
    }
    let mut path = Vec::new();
    let mut state = goal;
    loop {
        let li = state / nodes;
        let n = state % nodes;
        path.push((li, Point::new(grid.xs[clo + n % wnx], grid.ys[n / wnx])));
        if state == start {
            break;
        }
        state = came[state] as usize;
    }
    path.reverse();
    Ok((path, expansions))
}

/// Converts a node sequence to segments + vias, compressing collinear
/// runs.
fn wire_from_path(spec: &Spec, path: &[(usize, Point)]) -> Result<GridWire, RouteError> {
    let internal = |context| RouteError::Internal { context };
    let mut segments: Vec<(Layer, i64, Path)> = Vec::new();
    let mut vias: Vec<GridVia> = Vec::new();
    let mut run: Vec<Point> = Vec::new();
    let mut run_layer = path.first().ok_or(internal("empty grid path"))?.0;

    let flush = |run: &mut Vec<Point>,
                 layer: usize,
                 segments: &mut Vec<(Layer, i64, Path)>|
     -> Result<(), RouteError> {
        let mut pts: Vec<Point> = Vec::new();
        for &p in run.iter() {
            // Drop interior collinear points.
            while pts.len() >= 2 {
                let a = pts[pts.len() - 2];
                let b = pts[pts.len() - 1];
                if (a.x == b.x && b.x == p.x) || (a.y == b.y && b.y == p.y) {
                    pts.pop();
                } else {
                    break;
                }
            }
            pts.push(p);
        }
        let layer = layer_of(layer);
        let path = Path::from_points(pts).map_err(|_| internal("degenerate grid segment"))?;
        segments.push((layer, eff_width(spec.width, layer), path));
        run.clear();
        Ok(())
    };

    for &(li, p) in path {
        if li != run_layer {
            let junction = *run.last().ok_or(internal("via before any wire"))?;
            if junction != p {
                return Err(internal("via moved while changing layers"));
            }
            flush(&mut run, run_layer, &mut segments)?;
            vias.push(GridVia {
                position: p,
                kind: via_kind(layer_of(run_layer), layer_of(li)),
            });
            run.push(p);
            run_layer = li;
        } else {
            run.push(p);
        }
    }
    flush(&mut run, run_layer, &mut segments)?;

    Ok(GridWire {
        name: spec.name.clone(),
        net: spec.net,
        width: spec.width,
        segments,
        vias,
    })
}

/// Routes the problem against the obstacle set, producing Manhattan
/// wires with vias. Obstacles are `(layer, rect)` pairs in channel
/// coordinates; non-routable layers are ignored.
///
/// # Errors
///
/// Shares the river router's input validation
/// ([`RouteError::CountMismatch`], [`RouteError::Empty`],
/// [`RouteError::BadWidth`], [`RouteError::TerminalsTooClose`]) but
/// accepts layer-changing nets; adds [`RouteError::Unroutable`] when
/// the maze has no path and [`RouteError::BadPitch`] for a bad grid
/// pitch. With [`crate::RouterOptions::exact_height`] set, a route that
/// needs more room fails rather than growing the channel.
pub fn grid_route(
    problem: &RouteProblem,
    obstacles: &[(Layer, Rect)],
) -> Result<GridRoute, RouteError> {
    let mut sp = riot_trace::span!("route.grid", nets = problem.bottom.len() as u64);
    let RouteProblem {
        bottom,
        top,
        options,
    } = problem;
    if bottom.len() != top.len() {
        return Err(RouteError::CountMismatch {
            bottom: bottom.len(),
            top: top.len(),
        });
    }
    if bottom.is_empty() {
        return Err(RouteError::Empty);
    }
    if options.grid_pitch <= 0 {
        return Err(RouteError::BadPitch {
            pitch: options.grid_pitch,
        });
    }
    let mut wmax: i64 = 2;
    for (i, (b, t)) in bottom.iter().zip(top).enumerate() {
        if b.width <= 0 || t.width <= 0 {
            return Err(RouteError::BadWidth {
                net: i,
                width: b.width.min(t.width),
            });
        }
        wmax = wmax.max(b.width.max(t.width));
    }
    let mut layers: Vec<Layer> = bottom.iter().chain(top.iter()).map(|t| t.layer).collect();
    layers.sort_unstable();
    layers.dedup();
    for &layer in &layers {
        let spacing = spacing_lambda(layer);
        let edge = |ts: &[crate::Terminal]| {
            ts.iter()
                .filter(|t| t.layer == layer)
                .map(|t| (t.offset, t.width))
                .collect::<Vec<_>>()
        };
        check_edge_spacing(layer, spacing, edge(bottom))?;
        check_edge_spacing(layer, spacing, edge(top))?;
    }

    let heights: Vec<i64> = match options.exact_height {
        Some(h) => vec![h.max(1)],
        None => {
            let h0 = (2 * options.margin + 4 * (wmax + 3)).max(16);
            vec![h0, h0 * 2, h0 * 4]
        }
    };
    let mut last_err = RouteError::Empty;
    for &height in &heights {
        match solve_at(problem, obstacles, height) {
            Ok(route) => {
                let stats = route.stats;
                sp.field("expansions", stats.expansions);
                sp.field("vias", stats.vias);
                sp.field("conflicts", stats.conflicts);
                sp.field("retries", stats.retries);
                sp.field("restarts", stats.restarts);
                if riot_trace::enabled() {
                    let reg = riot_trace::registry();
                    reg.counter("route.grid.nets").add(route.wires.len() as u64);
                    reg.counter("route.grid.expansions").add(stats.expansions);
                    reg.counter("route.grid.vias").add(stats.vias);
                    reg.counter("route.grid.conflicts").add(stats.conflicts);
                    reg.counter("route.grid.retries").add(stats.retries);
                    reg.counter("route.grid.restarts").add(stats.restarts);
                    reg.histogram("route.grid.net_expansions")
                        .record(stats.expansions / route.wires.len().max(1) as u64);
                }
                return Ok(route);
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// One plan/commit pass at a fixed channel height.
fn solve_at(
    problem: &RouteProblem,
    obstacles: &[(Layer, Rect)],
    height: i64,
) -> Result<GridRoute, RouteError> {
    let grid = build_grid(problem, obstacles, height)?;
    let specs: Vec<Spec> = problem
        .bottom
        .iter()
        .zip(&problem.top)
        .enumerate()
        .map(|(i, (b, t))| Spec {
            net: i,
            name: b.name.clone(),
            width: b.width.max(t.width),
            blayer: layer_idx(b.layer),
            tlayer: layer_idx(t.layer),
            bxi: grid
                .xs
                .binary_search(&b.offset)
                .expect("terminal columns are grid lines"),
            txi: grid
                .xs
                .binary_search(&t.offset)
                .expect("terminal columns are grid lines"),
        })
        .collect();

    // Plan: every net solves alone against the frozen obstacle-only
    // grid.
    let mut stats = GridStats::default();
    let mut paths: Vec<Vec<(usize, Point)>> = Vec::with_capacity(specs.len());
    for spec in &specs {
        let (path, expansions) = route_net(&grid, spec)?;
        stats.expansions += expansions;
        paths.push(path);
    }

    // Commit: apply plans in order; a plan that violates spacing
    // against an earlier commit re-routes alone against the live grid.
    // When even that re-route fails — independent plans can pile up
    // and seal a late net's terminal region — the whole commit phase
    // restarts with the failed net promoted to the front of the order,
    // so it routes unconstrained and the earlier nets' retries route
    // around it instead. Promotion is deterministic and bounded by
    // [`MAX_RESTARTS`].
    let mut promoted: Vec<usize> = Vec::new();
    let mut first_grid = Some(grid);
    loop {
        let grid = match first_grid.take() {
            Some(g) => g,
            None => build_grid(problem, obstacles, height)?,
        };
        let mut order: Vec<usize> = promoted.clone();
        order.extend((0..specs.len()).filter(|i| !promoted.contains(i)));
        match commit_pass(grid, &specs, &paths, &order, &mut stats) {
            Ok(mut wires) => {
                wires.sort_by_key(|w| w.net);
                stats.vias = wires.iter().map(|w| w.vias.len() as u64).sum();
                return Ok(GridRoute {
                    wires,
                    height: height.max(1),
                    stats,
                });
            }
            Err(RouteError::Unroutable { net }) if stats.restarts < MAX_RESTARTS => {
                stats.restarts += 1;
                promoted.retain(|&i| i != net);
                promoted.insert(0, net);
            }
            Err(e) => return Err(e),
        }
    }
}

/// One serial commit pass over `order`: applies each net's plan,
/// re-routing a net alone when its plan conflicts with earlier
/// commits. Every committed rect is marked into the (exclusively
/// owned) grid as it lands, so a re-route sees obstacles plus all
/// earlier geometry without rebuilding anything. Returns the wires in
/// commit order, or the error of the first net that cannot be placed.
fn commit_pass(
    mut grid: Grid,
    specs: &[Spec],
    paths: &[Vec<(usize, Point)>],
    order: &[usize],
    stats: &mut GridStats,
) -> Result<Vec<GridWire>, RouteError> {
    let mut committed: Vec<(Layer, Rect)> = Vec::new();
    let mut wires: Vec<GridWire> = Vec::with_capacity(order.len());
    for &i in order {
        let spec = &specs[i];
        let mut wire = wire_from_path(spec, &paths[i])?;
        if rect_sets_conflict(&wire.rects(), &committed).is_some() {
            stats.conflicts += 1;
            stats.retries += 1;
            let (path, expansions) = route_net(&grid, spec)?;
            stats.expansions += expansions;
            wire = wire_from_path(spec, &path)?;
        }
        let rects = wire.rects();
        for &(layer, rect) in &rects {
            grid.commit_rect(layer, rect);
        }
        committed.extend(rects);
        wires.push(wire);
    }
    Ok(wires)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terminal::{RouteProblem, RouterOptions, Terminal};

    fn t(name: &str, offset: i64, layer: Layer) -> Terminal {
        Terminal::new(
            name,
            offset,
            layer,
            if layer == Layer::Metal { 3 } else { 2 },
        )
    }

    #[test]
    fn straight_net_routes_clean() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Metal)], vec![t("a", 0, Layer::Metal)]);
        let r = grid_route(&p, &[]).unwrap();
        assert_eq!(r.wires().len(), 1);
        assert_eq!(r.wires()[0].vias.len(), 0);
        assert_eq!(r.wires()[0].bottom_end(), Point::new(0, 0));
        assert_eq!(r.wires()[0].top_end(), Point::new(0, r.height()));
        verify_clearance(&r, &[]).unwrap();
    }

    #[test]
    fn layer_mismatch_gets_a_via() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Poly)], vec![t("a", 0, Layer::Metal)]);
        let r = grid_route(&p, &[]).unwrap();
        let w = &r.wires()[0];
        assert_eq!(w.vias.len(), 1);
        assert_eq!(w.vias[0].kind, ContactKind::MetalPoly);
        assert_eq!(w.segments.first().unwrap().0, Layer::Poly);
        assert_eq!(w.segments.last().unwrap().0, Layer::Metal);
        // The metal segment widened to the 3λ metal floor.
        assert_eq!(w.segments.last().unwrap().1, 3);
        verify_clearance(&r, &[]).unwrap();
    }

    #[test]
    fn obstacle_forces_a_detour() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Metal)], vec![t("a", 0, Layer::Metal)]);
        let clear = grid_route(&p, &[]).unwrap();
        // A metal block sitting square on the straight path.
        let obstacles = vec![(Layer::Metal, Rect::new(-4, 6, 4, 10))];
        let r = grid_route(&p, &obstacles).unwrap();
        verify_clearance(&r, &obstacles).unwrap();
        let len: i64 = r.wires()[0]
            .segments
            .iter()
            .map(|(_, _, p)| p.length())
            .sum();
        let clear_len: i64 = clear.wires()[0]
            .segments
            .iter()
            .map(|(_, _, p)| p.length())
            .sum();
        assert!(
            len > clear_len,
            "detour must be longer: {len} vs {clear_len}"
        );
    }

    #[test]
    fn walled_channel_is_unroutable() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Metal)], vec![t("a", 0, Layer::Metal)]);
        // Full-width walls on every routable layer, low enough to block
        // the channel at every escalated height.
        let obstacles: Vec<(Layer, Rect)> = Layer::ROUTABLE
            .iter()
            .map(|&l| (l, Rect::new(-100, 6, 100, 10)))
            .collect();
        let err = grid_route(&p, &obstacles).unwrap_err();
        assert_eq!(err, RouteError::Unroutable { net: 0 });
    }

    #[test]
    fn crossing_nets_resolve_by_layer_hop() {
        // The exact case the river router rejects as NotRiverRoutable.
        let p = RouteProblem::new(
            vec![t("a", 0, Layer::Metal), t("b", 12, Layer::Metal)],
            vec![t("a", 12, Layer::Metal), t("b", 0, Layer::Metal)],
        );
        assert!(matches!(
            crate::river_route(&p),
            Err(RouteError::NotRiverRoutable { .. })
        ));
        let r = grid_route(&p, &[]).unwrap();
        assert!(r.stats().conflicts >= 1, "crossing must conflict");
        let total_vias: usize = r.wires().iter().map(|w| w.vias.len()).sum();
        assert!(
            total_vias >= 2,
            "one net must hop layers: {total_vias} vias"
        );
        verify_clearance(&r, &[]).unwrap();
    }

    #[test]
    fn exact_height_is_respected() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Poly)], vec![t("a", 6, Layer::Poly)])
            .with_options(RouterOptions {
                exact_height: Some(21),
                ..RouterOptions::new()
            });
        let r = grid_route(&p, &[]).unwrap();
        assert_eq!(r.height(), 21);
        assert_eq!(r.wires()[0].top_end(), Point::new(6, 21));
    }

    #[test]
    fn coarse_pitch_still_reaches_odd_terminals() {
        let p = RouteProblem::new(vec![t("a", 3, Layer::Poly)], vec![t("a", 11, Layer::Poly)])
            .with_options(RouterOptions {
                grid_pitch: 4,
                ..RouterOptions::new()
            });
        let r = grid_route(&p, &[]).unwrap();
        assert_eq!(r.wires()[0].bottom_end().x, 3);
        assert_eq!(r.wires()[0].top_end().x, 11);
        verify_clearance(&r, &[]).unwrap();
    }

    #[test]
    fn bad_pitch_rejected() {
        let p = RouteProblem::new(vec![t("a", 0, Layer::Poly)], vec![t("a", 0, Layer::Poly)])
            .with_options(RouterOptions {
                grid_pitch: 0,
                ..RouterOptions::new()
            });
        assert_eq!(
            grid_route(&p, &[]).unwrap_err(),
            RouteError::BadPitch { pitch: 0 }
        );
    }

    #[test]
    fn validation_matches_river_for_bad_inputs() {
        let empty = RouteProblem::new(vec![], vec![]);
        assert_eq!(grid_route(&empty, &[]).unwrap_err(), RouteError::Empty);
        let mismatch = RouteProblem::new(vec![t("a", 0, Layer::Metal)], vec![]);
        assert!(matches!(
            grid_route(&mismatch, &[]),
            Err(RouteError::CountMismatch { bottom: 1, top: 0 })
        ));
        let close = RouteProblem::new(
            vec![t("a", 0, Layer::Metal), t("b", 3, Layer::Metal)],
            vec![t("a", 0, Layer::Metal), t("b", 20, Layer::Metal)],
        );
        assert!(matches!(
            grid_route(&close, &[]),
            Err(RouteError::TerminalsTooClose { .. })
        ));
    }

    #[test]
    fn route_cell_is_valid_sticks_with_contacts() {
        let p = RouteProblem::new(
            vec![t("a", 0, Layer::Poly), t("b", 10, Layer::Diffusion)],
            vec![t("a", 0, Layer::Metal), t("b", 10, Layer::Metal)],
        );
        let r = grid_route(&p, &[]).unwrap();
        let cell = r.to_sticks_cell("g0");
        cell.validate().unwrap();
        assert!(cell.contacts().len() >= 2);
        let cif = riot_sticks::mask::to_cif_cell(&cell, 1);
        assert!(cif.shapes.len() >= 4);
        // Pins keep net names, primes on collision.
        assert!(cell.pin("a").is_some());
        assert!(cell.pin("a'").is_some());
    }
}
