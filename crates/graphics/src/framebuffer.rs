//! The in-memory raster standing in for the color terminals.

use crate::color::Color;
use crate::raster::{self, PixelSink};

/// A simple RGB framebuffer with the primitive drawing operations the
/// Riot display needed: lines, outlined and filled rectangles, the
/// connector crosses, and bitmap text.
///
/// Screen coordinates are `(x right, y up)` like the layout plane;
/// row 0 of the PPM output is the **top** scanline, as image viewers
/// expect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    pixels: Vec<Color>,
}

impl Framebuffer {
    /// Creates a black framebuffer of the given size.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "zero-sized framebuffer");
        Framebuffer {
            width,
            height,
            pixels: vec![Color::BLACK; width * height],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Fills the whole buffer with one color.
    pub fn clear(&mut self, color: Color) {
        self.pixels.fill(color);
    }

    /// Reads a pixel; out-of-bounds reads return `None`.
    pub fn get(&self, x: i64, y: i64) -> Option<Color> {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            return None;
        }
        Some(self.pixels[y as usize * self.width + x as usize])
    }

    /// Writes a pixel; out-of-bounds writes are clipped silently.
    pub fn set(&mut self, x: i64, y: i64, color: Color) {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            return;
        }
        self.pixels[y as usize * self.width + x as usize] = color;
    }

    /// Draws a line with Bresenham's algorithm (any slope).
    pub fn draw_line(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, color: Color) {
        raster::draw_line(self, x0, y0, x1, y1, color);
    }

    /// Draws an axis-aligned rectangle outline.
    pub fn draw_rect(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, color: Color) {
        raster::draw_rect(self, x0, y0, x1, y1, color);
    }

    /// Fills an axis-aligned rectangle (inclusive bounds), clipped.
    pub fn fill_rect(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, color: Color) {
        raster::fill_rect(self, x0, y0, x1, y1, color);
    }

    /// Draws a connector cross of the given half-arm length — "the size
    /// and color of the connector crosses indicates width and layer".
    pub fn draw_cross(&mut self, x: i64, y: i64, arm: i64, color: Color) {
        raster::draw_cross(self, x, y, arm, color);
    }

    /// Draws text with the 5×7 font, lower-left corner at `(x, y)`.
    pub fn draw_text(&mut self, x: i64, y: i64, text: &str, color: Color) {
        raster::draw_text(self, x, y, text, color);
    }

    /// Serializes as a binary PPM (P6) image, flipping vertically so
    /// y-up screen coordinates display upright.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for y in (0..self.height).rev() {
            for x in 0..self.width {
                let c = self.pixels[y * self.width + x];
                out.extend_from_slice(&[c.r, c.g, c.b]);
            }
        }
        out
    }

    /// Number of pixels currently not black (for tests and the session
    /// driver's "did anything draw" checks).
    pub fn lit_pixels(&self) -> usize {
        self.pixels.iter().filter(|&&c| c != Color::BLACK).count()
    }
}

impl PixelSink for Framebuffer {
    fn width(&self) -> usize {
        self.width
    }

    fn height(&self) -> usize {
        self.height
    }

    fn set(&mut self, x: i64, y: i64, color: Color) {
        Framebuffer::set(self, x, y, color);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut fb = Framebuffer::new(10, 10);
        fb.set(3, 4, Color::WHITE);
        assert_eq!(fb.get(3, 4), Some(Color::WHITE));
        assert_eq!(fb.get(0, 0), Some(Color::BLACK));
        assert_eq!(fb.get(-1, 0), None);
        assert_eq!(fb.get(10, 0), None);
    }

    #[test]
    fn out_of_bounds_writes_clip() {
        let mut fb = Framebuffer::new(4, 4);
        fb.set(100, 100, Color::WHITE);
        fb.set(-5, 2, Color::WHITE);
        assert_eq!(fb.lit_pixels(), 0);
    }

    #[test]
    fn horizontal_line_exact() {
        let mut fb = Framebuffer::new(10, 10);
        fb.draw_line(2, 5, 7, 5, Color::WHITE);
        for x in 2..=7 {
            assert_eq!(fb.get(x, 5), Some(Color::WHITE));
        }
        assert_eq!(fb.lit_pixels(), 6);
    }

    #[test]
    fn diagonal_line_hits_endpoints() {
        let mut fb = Framebuffer::new(10, 10);
        fb.draw_line(0, 0, 9, 9, Color::WHITE);
        assert_eq!(fb.get(0, 0), Some(Color::WHITE));
        assert_eq!(fb.get(9, 9), Some(Color::WHITE));
        assert_eq!(fb.lit_pixels(), 10);
    }

    #[test]
    fn rect_outline_and_fill() {
        let mut fb = Framebuffer::new(10, 10);
        fb.fill_rect(1, 1, 3, 3, Color::WHITE);
        assert_eq!(fb.lit_pixels(), 9);
        let mut fb2 = Framebuffer::new(10, 10);
        fb2.draw_rect(0, 0, 4, 4, Color::WHITE);
        assert_eq!(fb2.lit_pixels(), 16); // perimeter of a 5x5 square
    }

    #[test]
    fn cross_shape() {
        let mut fb = Framebuffer::new(11, 11);
        fb.draw_cross(5, 5, 2, Color::WHITE);
        assert_eq!(fb.lit_pixels(), 9); // 5 + 5 - shared center
        assert_eq!(fb.get(3, 5), Some(Color::WHITE));
        assert_eq!(fb.get(5, 7), Some(Color::WHITE));
    }

    #[test]
    fn text_draws_pixels() {
        let mut fb = Framebuffer::new(40, 10);
        fb.draw_text(1, 1, "RIOT", Color::WHITE);
        assert!(fb.lit_pixels() > 20);
    }

    #[test]
    fn ppm_header_and_size() {
        let fb = Framebuffer::new(3, 2);
        let ppm = fb.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 3 * 2 * 3);
    }

    #[test]
    fn clear_fills() {
        let mut fb = Framebuffer::new(4, 4);
        fb.clear(Color::WHITE);
        assert_eq!(fb.lit_pixels(), 16);
    }
}
