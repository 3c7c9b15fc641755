//! Resolution-independent draw operations in layout coordinates.

use crate::color::Color;
use crate::font;
use crate::framebuffer::Framebuffer;
use crate::raster::{self, PixelSink};
use crate::viewport::Viewport;
use riot_geom::{Point, Rect, SpatialIndex};

/// One drawing operation in world (centimicron) coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrawOp {
    /// A straight line between world points.
    Line {
        /// Start point.
        from: Point,
        /// End point.
        to: Point,
        /// Stroke color.
        color: Color,
    },
    /// A rectangle outline.
    Rect {
        /// The rectangle.
        rect: Rect,
        /// Stroke color.
        color: Color,
    },
    /// A filled rectangle.
    FillRect {
        /// The rectangle.
        rect: Rect,
        /// Fill color.
        color: Color,
    },
    /// A connector cross; `arm` is the world half-arm length (scaled
    /// with the connector's wire width).
    Cross {
        /// Cross center.
        center: Point,
        /// Half-arm length in world units.
        arm: i64,
        /// Stroke color.
        color: Color,
    },
    /// A text label anchored at its lower-left corner. Text renders at
    /// fixed pixel size (labels stay readable at any zoom).
    Text {
        /// Lower-left anchor in world coordinates.
        at: Point,
        /// The label.
        text: String,
        /// Text color.
        color: Color,
    },
}

impl DrawOp {
    /// The operation's color.
    pub fn color(&self) -> Color {
        match self {
            DrawOp::Line { color, .. }
            | DrawOp::Rect { color, .. }
            | DrawOp::FillRect { color, .. }
            | DrawOp::Cross { color, .. }
            | DrawOp::Text { color, .. } => *color,
        }
    }

    /// The same operation painted in a different color (the device
    /// palette-quantization path).
    pub fn with_color(&self, color: Color) -> DrawOp {
        let mut op = self.clone();
        match &mut op {
            DrawOp::Line { color: c, .. }
            | DrawOp::Rect { color: c, .. }
            | DrawOp::FillRect { color: c, .. }
            | DrawOp::Cross { color: c, .. }
            | DrawOp::Text { color: c, .. } => *c = color,
        }
        op
    }
}

/// An ordered list of draw operations — Riot's per-screen display list,
/// rebuilt on every edit and rendered to whichever device is attached.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DisplayList {
    ops: Vec<DrawOp>,
}

impl DisplayList {
    /// Creates an empty display list.
    pub fn new() -> Self {
        DisplayList::default()
    }

    /// Appends an operation.
    pub fn push(&mut self, op: DrawOp) {
        self.ops.push(op);
    }

    /// The operations, in draw order.
    pub fn ops(&self) -> &[DrawOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// World bounding box of everything drawn (text extends are
    /// approximated by their anchor points).
    pub fn bounding_box(&self) -> Option<Rect> {
        let mut bb: Option<Rect> = None;
        let mut grow = |r: Rect| {
            bb = Some(match bb {
                Some(acc) => acc.union(r),
                None => r,
            });
        };
        for op in &self.ops {
            match op {
                DrawOp::Line { from, to, .. } => grow(Rect::from_points(*from, *to)),
                DrawOp::Rect { rect, .. } | DrawOp::FillRect { rect, .. } => grow(*rect),
                DrawOp::Cross { center, arm, .. } => {
                    grow(Rect::from_center(*center, 2 * arm, 2 * arm))
                }
                DrawOp::Text { at, .. } => grow(Rect::at_point(*at)),
            }
        }
        bb
    }

    /// Renders into a framebuffer through a viewport, one op after
    /// another in list order.
    pub fn render(&self, viewport: &Viewport, fb: &mut Framebuffer) {
        for op in &self.ops {
            render_op(op, viewport, fb);
        }
    }
}

/// Rasterizes one draw operation into a sink.
fn render_op(op: &DrawOp, viewport: &Viewport, sink: &mut impl PixelSink) {
    match op {
        DrawOp::Line { from, to, color } => {
            let (x0, y0) = viewport.to_screen(*from);
            let (x1, y1) = viewport.to_screen(*to);
            raster::draw_line(sink, x0, y0, x1, y1, *color);
        }
        DrawOp::Rect { rect, color } => {
            let (x0, y0) = viewport.to_screen(rect.lower_left());
            let (x1, y1) = viewport.to_screen(rect.upper_right());
            raster::draw_rect(sink, x0, y0, x1, y1, *color);
        }
        DrawOp::FillRect { rect, color } => {
            let (x0, y0) = viewport.to_screen(rect.lower_left());
            let (x1, y1) = viewport.to_screen(rect.upper_right());
            raster::fill_rect(sink, x0, y0, x1, y1, *color);
        }
        DrawOp::Cross { center, arm, color } => {
            let (x, y) = viewport.to_screen(*center);
            let a = viewport.scale_length(*arm).max(2);
            raster::draw_cross(sink, x, y, a, *color);
        }
        DrawOp::Text { at, text, color } => {
            let (x, y) = viewport.to_screen(*at);
            raster::draw_text(sink, x, y, text, *color);
        }
    }
}

/// A conservative **screen-space** bounding box of everything an op can
/// paint (a one-pixel safety margin covers rounding at the edges).
/// Used to find the ops a dirty rect can touch.
fn op_screen_bbox(op: &DrawOp, viewport: &Viewport) -> Rect {
    let bbox = match op {
        DrawOp::Line { from, to, .. } => {
            let (x0, y0) = viewport.to_screen(*from);
            let (x1, y1) = viewport.to_screen(*to);
            Rect::new(x0, y0, x1, y1)
        }
        DrawOp::Rect { rect, .. } | DrawOp::FillRect { rect, .. } => {
            let (x0, y0) = viewport.to_screen(rect.lower_left());
            let (x1, y1) = viewport.to_screen(rect.upper_right());
            Rect::new(x0, y0, x1, y1)
        }
        DrawOp::Cross { center, arm, .. } => {
            let (x, y) = viewport.to_screen(*center);
            let a = viewport.scale_length(*arm).max(2);
            Rect::new(x - a, y - a, x + a, y + a)
        }
        DrawOp::Text { at, text, .. } => {
            let (x, y) = viewport.to_screen(*at);
            Rect::new(
                x,
                y,
                x + font::text_width(text) as i64,
                y + font::GLYPH_HEIGHT as i64 - 1,
            )
        }
    };
    bbox.inflated(1)
}

/// A framebuffer restricted to one screen-space clip rectangle: writes
/// outside the rect are dropped, everything else passes through to the
/// framebuffer (which clips to the screen). This is what lets a damage
/// repaint re-render an op that *overhangs* the dirty region without
/// disturbing the retained pixels around it.
struct ClipSink<'s> {
    fb: &'s mut Framebuffer,
    clip: Rect,
}

impl PixelSink for ClipSink<'_> {
    fn width(&self) -> usize {
        self.fb.width()
    }

    fn height(&self) -> usize {
        self.fb.height()
    }

    fn y_min(&self) -> i64 {
        self.clip.y0
    }

    fn y_max(&self) -> i64 {
        self.clip.y1
    }

    fn set(&mut self, x: i64, y: i64, color: Color) {
        if x < self.clip.x0 || x > self.clip.x1 || y < self.clip.y0 || y > self.clip.y1 {
            return;
        }
        self.fb.set(x, y, color);
    }
}

/// Worst-case *pixel* overhang of one op beyond its world anchor: text
/// renders at fixed pixel size, crosses have a two-pixel minimum arm.
fn op_pad(op: &DrawOp, viewport: &Viewport) -> i64 {
    match op {
        DrawOp::Text { text, .. } => (font::text_width(text) as i64).max(font::GLYPH_HEIGHT as i64),
        DrawOp::Cross { arm, .. } => viewport.scale_length(*arm).max(2),
        _ => 0,
    }
}

/// The world-space rectangle whose screen image covers everything `op`
/// can paint under `viewport`: the op's screen bounding box (which
/// already includes fixed-pixel overhang — text renders at a
/// zoom-independent size, crosses have a two-pixel minimum arm) mapped
/// back to world coordinates with a one-world-pixel safety margin.
///
/// Damage reporters need this when an op is **removed** before a
/// one-shot [`render_ops_damaged`]: the stateless repaint can no
/// longer see the removed op, so its pixel overhang must be baked into
/// the damage rect itself. (A long-lived [`RenderCache`] does not need
/// it — its pad never shrinks, so it remembers the overhang of every
/// op it has ever indexed.)
pub fn op_damage_bbox(op: &DrawOp, viewport: &Viewport) -> Rect {
    let screen = op_screen_bbox(op, viewport);
    let a = viewport.to_world(screen.x0, screen.y0);
    let b = viewport.to_world(screen.x1 + 1, screen.y1 + 1);
    let (sw, sh) = viewport.screen_size();
    // One screen pixel in world units, rounded up — covers the
    // truncation in `to_world` at any zoom.
    let wppx = viewport.window().width() / sw as i64 + 1;
    let wppy = viewport.window().height() / sh as i64 + 1;
    let r = Rect::from_points(a, b);
    Rect::new(r.x0 - wppx, r.y0 - wppy, r.x1 + wppx, r.y1 + wppy)
}

/// When the overlay of changed-but-unindexed ops grows past this, the
/// spatial index is rebuilt (same policy as the incremental DRC state).
const OVERLAY_REBUILD: usize = 2048;

/// Retained acceleration state for damage repaints: each op's
/// screen-space bounding box, a [`SpatialIndex`] over them, and an
/// overlay of op indices edited since the index was last built. With a
/// long-lived cache a single-op edit repaints in O(damage), not O(ops):
/// [`RenderCache::sync`] refreshes only the changed boxes, and
/// [`RenderCache::render`] finds candidates through the index plus a
/// linear scan of the (small) overlay.
#[derive(Debug)]
pub struct RenderCache {
    viewport: Viewport,
    boxes: Vec<Rect>,
    index: SpatialIndex,
    overlay: Vec<usize>,
    pad: i64,
}

impl RenderCache {
    /// Builds the retained state from scratch — O(ops log ops).
    pub fn build(ops: &[DrawOp], viewport: &Viewport) -> RenderCache {
        let boxes: Vec<Rect> = ops.iter().map(|op| op_screen_bbox(op, viewport)).collect();
        let index = SpatialIndex::build(&boxes);
        let pad = ops.iter().fold(0i64, |p, op| p.max(op_pad(op, viewport)));
        RenderCache {
            viewport: viewport.clone(),
            boxes,
            index,
            overlay: Vec::new(),
            pad,
        }
    }

    /// Re-syncs after `ops` was edited **in place** at the given
    /// indices. A length change or a viewport change falls back to a
    /// full [`RenderCache::build`]; otherwise only the changed boxes
    /// are recomputed and queued on the overlay (the pad only ever
    /// grows, which is conservative and therefore safe).
    pub fn sync(&mut self, ops: &[DrawOp], viewport: &Viewport, changed: &[usize]) {
        if ops.len() != self.boxes.len() || *viewport != self.viewport {
            // Keep the larger pad across same-viewport rebuilds: a
            // removed text op's pixels may still sit in the retained
            // framebuffer, and later damage near them must repaint a
            // region wide enough to clear that overhang.
            let pad = if *viewport == self.viewport {
                self.pad
            } else {
                0
            };
            *self = RenderCache::build(ops, viewport);
            self.pad = self.pad.max(pad);
            return;
        }
        for &i in changed {
            self.boxes[i] = op_screen_bbox(&ops[i], viewport);
            self.pad = self.pad.max(op_pad(&ops[i], viewport));
            self.overlay.push(i);
        }
        if self.overlay.len() >= OVERLAY_REBUILD {
            self.index = SpatialIndex::build(&self.boxes);
            self.overlay.clear();
        }
    }

    /// Ops whose **current** box touches `window`, ascending. Index
    /// hits are re-filtered against the live boxes (entries for edited
    /// ops are stale); edited ops are found through the overlay.
    fn candidates(&self, window: Rect) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .index
            .query(window)
            .filter(|&i| self.boxes[i].touches(window))
            .collect();
        out.extend(
            self.overlay
                .iter()
                .copied()
                .filter(|&i| self.boxes[i].touches(window)),
        );
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Repaints only the pixels the world-space dirty rects can touch,
    /// leaving every other retained pixel of `fb` untouched.
    ///
    /// Each padded dirty rect is cleared to black and re-composed from
    /// every op whose screen box touches it, in ascending op order,
    /// clipped to the rect — so under the damage contract (every
    /// changed op's old and new world bounding box is covered by
    /// `dirty_world`) the result is pixel-identical to a full render of
    /// `ops`.
    ///
    /// Returns the number of dirty rects repainted (0 when
    /// `dirty_world` is empty or entirely off-screen).
    pub fn render(&self, ops: &[DrawOp], fb: &mut Framebuffer, dirty_world: &[Rect]) -> usize {
        assert_eq!(
            ops.len(),
            self.boxes.len(),
            "sync the cache before rendering"
        );
        if dirty_world.is_empty() {
            return 0;
        }
        let width = fb.width();
        let height = fb.height();
        let viewport = &self.viewport;
        let mut sp = riot_trace::span!("gfx.render.damaged", dirty = dirty_world.len() as u64);
        let pad = self.pad + 1; // +1 for edge rounding

        let dirty_screen: Vec<Rect> = dirty_world
            .iter()
            .map(|r| {
                let (x0, y0) = viewport.to_screen(r.lower_left());
                let (x1, y1) = viewport.to_screen(r.upper_right());
                Rect::new(x0 - pad, y0 - pad, x1 + pad, y1 + pad)
            })
            .filter(|d| d.x1 >= 0 && d.x0 < width as i64 && d.y1 >= 0 && d.y0 < height as i64)
            .collect();
        if dirty_screen.is_empty() {
            return 0; // all damage is off-screen
        }

        // Overlapping dirty rects recompose the shared pixels more than
        // once — idempotent, since every pass alone produces the final
        // composite inside its own rect.
        for d in &dirty_screen {
            let mut clip = ClipSink { fb, clip: *d };
            raster::fill_rect(&mut clip, d.x0, d.y0, d.x1, d.y1, Color::BLACK);
            for i in self.candidates(*d) {
                render_op(&ops[i], viewport, &mut clip);
            }
        }
        sp.field("rects", dirty_screen.len() as u64);
        dirty_screen.len()
    }
}

/// One-shot damage repaint: builds a throwaway [`RenderCache`] and
/// renders through it. Callers repainting after every edit should hold
/// a [`RenderCache`] instead and pay the index build once.
///
/// Being stateless, this path only knows the pixel overhang of the ops
/// **currently** in `ops`. When reporting damage for a *removed* op
/// with fixed-pixel extent (text, minimum-arm crosses), cover its
/// former pixels with [`op_damage_bbox`] instead of its world bounding
/// box — or hold a [`RenderCache`], whose pad remembers removed ops.
///
/// Returns the number of dirty rects repainted (0 when `dirty_world` is
/// empty or entirely off-screen).
pub fn render_ops_damaged(
    ops: &[DrawOp],
    viewport: &Viewport,
    fb: &mut Framebuffer,
    dirty_world: &[Rect],
) -> usize {
    if dirty_world.is_empty() {
        return 0;
    }
    RenderCache::build(ops, viewport).render(ops, fb, dirty_world)
}

impl Extend<DrawOp> for DisplayList {
    fn extend<T: IntoIterator<Item = DrawOp>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

impl FromIterator<DrawOp> for DisplayList {
    fn from_iter<T: IntoIterator<Item = DrawOp>>(iter: T) -> Self {
        DisplayList {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full render of `ops`, the reference every repaint must match.
    fn render_list(ops: &[DrawOp], vp: &Viewport, fb: &mut Framebuffer) {
        ops.iter().cloned().collect::<DisplayList>().render(vp, fb);
    }

    fn sample() -> DisplayList {
        let mut dl = DisplayList::new();
        dl.push(DrawOp::Rect {
            rect: Rect::new(0, 0, 1000, 500),
            color: Color::WHITE,
        });
        dl.push(DrawOp::Cross {
            center: Point::new(500, 250),
            arm: 100,
            color: Color::new(255, 0, 0),
        });
        dl.push(DrawOp::Text {
            at: Point::new(10, 10),
            text: "CELL".into(),
            color: Color::WHITE,
        });
        dl
    }

    #[test]
    fn bounding_box_covers_ops() {
        let dl = sample();
        let bb = dl.bounding_box().unwrap();
        assert!(bb.contains_rect(Rect::new(0, 0, 1000, 500)));
        assert!(bb.contains(Point::new(600, 350)));
    }

    #[test]
    fn render_lights_pixels() {
        let dl = sample();
        let vp = Viewport::fit(dl.bounding_box().unwrap(), 128, 128);
        let mut fb = Framebuffer::new(128, 128);
        dl.render(&vp, &mut fb);
        assert!(fb.lit_pixels() > 100);
    }

    #[test]
    fn empty_list() {
        let dl = DisplayList::new();
        assert!(dl.is_empty());
        assert_eq!(dl.bounding_box(), None);
    }

    #[test]
    fn collect_from_iterator() {
        let dl: DisplayList = sample().ops().to_vec().into_iter().collect();
        assert_eq!(dl.len(), 3);
    }

    #[test]
    fn color_accessors_round_trip() {
        for op in sample().ops() {
            let tinted = op.with_color(Color::new(1, 2, 3));
            assert_eq!(tinted.color(), Color::new(1, 2, 3));
            assert_eq!(op.with_color(op.color()), *op);
        }
    }

    #[test]
    fn damaged_render_repaints_only_dirty_bands() {
        let mut dl = sample();
        let vp = Viewport::fit(dl.bounding_box().unwrap(), 96, 96);
        let mut retained = Framebuffer::new(96, 96);
        dl.render(&vp, &mut retained);

        // Nothing dirty: nothing repainted.
        assert_eq!(render_ops_damaged(dl.ops(), &vp, &mut retained, &[]), 0);

        // Move the cross; damage covers its old and new extents.
        let old = Rect::from_center(Point::new(500, 250), 200, 200);
        dl = sample();
        let moved = DrawOp::Cross {
            center: Point::new(200, 400),
            arm: 100,
            color: Color::new(255, 0, 0),
        };
        let ops: Vec<DrawOp> = dl
            .ops()
            .iter()
            .map(|op| {
                if matches!(op, DrawOp::Cross { .. }) {
                    moved.clone()
                } else {
                    op.clone()
                }
            })
            .collect();
        let new = Rect::from_center(Point::new(200, 400), 200, 200);
        let repainted = render_ops_damaged(&ops, &vp, &mut retained, &[old, new]);
        assert_eq!(repainted, 2, "both dirty rects are on screen");

        let mut full = Framebuffer::new(96, 96);
        let fresh: DisplayList = ops.iter().cloned().collect();
        fresh.render(&vp, &mut full);
        assert_eq!(retained, full, "partial repaint is pixel-identical");

        // Fully off-screen damage touches nothing.
        let far = Rect::new(1_000_000, 1_000_000, 1_000_100, 1_000_100);
        assert_eq!(render_ops_damaged(&ops, &vp, &mut retained, &[far]), 0);
    }

    #[test]
    fn retained_render_cache_tracks_in_place_edits() {
        let dl = sample();
        let vp = Viewport::fit(dl.bounding_box().unwrap(), 96, 96);
        let mut ops: Vec<DrawOp> = dl.ops().to_vec();
        let mut cache = RenderCache::build(&ops, &vp);
        let mut retained = Framebuffer::new(96, 96);
        render_list(&ops, &vp, &mut retained);

        // Edit op 0 in place many times; sync only that index.
        for step in 0..3 {
            let rect = Rect::new(step * 120, 40, step * 120 + 350, 320);
            ops[0] = DrawOp::FillRect {
                rect,
                color: Color::new(40, 200, (40 * step) as u8),
            };
            cache.sync(&ops, &vp, &[0]);
            // Damage as the editor would report it: a rect covering the
            // op's old and new world extents (both fit in the frame).
            let dirty = [Rect::new(0, 0, 1000, 500)];
            assert!(cache.render(&ops, &mut retained, &dirty) > 0);
            let mut full = Framebuffer::new(96, 96);
            render_list(&ops, &vp, &mut full);
            assert_eq!(retained, full, "step {step}");
        }

        // A length change falls back to a rebuild and stays exact.
        ops.push(DrawOp::Cross {
            center: Point::new(700, 100),
            arm: 60,
            color: Color::WHITE,
        });
        cache.sync(&ops, &vp, &[]);
        let dirty = [Rect::from_center(Point::new(700, 100), 200, 200)];
        assert!(cache.render(&ops, &mut retained, &dirty) > 0);
        let mut full = Framebuffer::new(96, 96);
        render_list(&ops, &vp, &mut full);
        assert_eq!(retained, full, "after append + rebuild");
    }
}
