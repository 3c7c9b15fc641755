//! Device-independent raster primitives over any pixel sink.
//!
//! The drawing algorithms (Bresenham lines, rect fills, connector
//! crosses, bitmap text) are free functions over the [`PixelSink`]
//! trait, so the same code paints either a whole
//! [`Framebuffer`](crate::Framebuffer) or a clipped window of one — the
//! dirty rect a [`RenderCache`](crate::RenderCache) repaint recomposes.

use crate::color::Color;
use crate::font;

/// Anything pixels can be written into.
///
/// Coordinates are always **full-screen** coordinates `(x right, y up)`;
/// a sink may own only a sub-range of rows (a repaint's clip window)
/// and silently clips writes outside it. This keeps the primitives
/// oblivious to how much of the target they may touch.
pub trait PixelSink {
    /// Full screen width in pixels.
    fn width(&self) -> usize;
    /// Full screen height in pixels.
    fn height(&self) -> usize;
    /// Lowest y (inclusive) this sink owns.
    fn y_min(&self) -> i64 {
        0
    }
    /// Highest y (inclusive) this sink owns.
    fn y_max(&self) -> i64 {
        self.height() as i64 - 1
    }
    /// Writes one pixel; writes outside the sink's extent are clipped.
    fn set(&mut self, x: i64, y: i64, color: Color);
}

/// Draws a line with Bresenham's algorithm (any slope).
pub fn draw_line(sink: &mut impl PixelSink, x0: i64, y0: i64, x1: i64, y1: i64, color: Color) {
    let (mut x, mut y) = (x0, y0);
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    loop {
        sink.set(x, y, color);
        if x == x1 && y == y1 {
            break;
        }
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x += sx;
        }
        if e2 <= dx {
            err += dx;
            y += sy;
        }
    }
}

/// Draws an axis-aligned rectangle outline.
pub fn draw_rect(sink: &mut impl PixelSink, x0: i64, y0: i64, x1: i64, y1: i64, color: Color) {
    draw_line(sink, x0, y0, x1, y0, color);
    draw_line(sink, x1, y0, x1, y1, color);
    draw_line(sink, x1, y1, x0, y1, color);
    draw_line(sink, x0, y1, x0, y0, color);
}

/// Fills an axis-aligned rectangle (inclusive bounds), clipped to the
/// sink's extent. The row loop intersects with the sink's owned y-range
/// up front, so filling through a narrow clip window costs only the
/// rows the window owns.
pub fn fill_rect(sink: &mut impl PixelSink, x0: i64, y0: i64, x1: i64, y1: i64, color: Color) {
    let (x0, x1) = (x0.min(x1), x0.max(x1));
    let (y0, y1) = (y0.min(y1), y0.max(y1));
    let y_lo = y0.max(sink.y_min()).max(0);
    let y_hi = y1.min(sink.y_max()).min(sink.height() as i64 - 1);
    let x_lo = x0.max(0);
    let x_hi = x1.min(sink.width() as i64 - 1);
    for y in y_lo..=y_hi {
        for x in x_lo..=x_hi {
            sink.set(x, y, color);
        }
    }
}

/// Draws a connector cross of the given half-arm length — "the size and
/// color of the connector crosses indicates width and layer".
pub fn draw_cross(sink: &mut impl PixelSink, x: i64, y: i64, arm: i64, color: Color) {
    draw_line(sink, x - arm, y, x + arm, y, color);
    draw_line(sink, x, y - arm, x, y + arm, color);
}

/// Draws text with the 5×7 font, lower-left corner at `(x, y)`.
pub fn draw_text(sink: &mut impl PixelSink, x: i64, y: i64, text: &str, color: Color) {
    let mut cx = x;
    for c in text.chars() {
        let rows = font::glyph(c);
        for (ry, row) in rows.iter().enumerate() {
            for bit in 0..font::GLYPH_WIDTH {
                if row & (1 << (font::GLYPH_WIDTH - 1 - bit)) != 0 {
                    // Row 0 of the glyph is the top.
                    sink.set(
                        cx + bit as i64,
                        y + (font::GLYPH_HEIGHT - 1 - ry) as i64,
                        color,
                    );
                }
            }
        }
        cx += font::ADVANCE as i64;
    }
}
