//! Models of the two workstation display devices.
//!
//! Figure 1 of the paper shows the two configurations: the "Charles"
//! color terminal ("a high resolution color raster display device")
//! driven with an HP 7221A plotter and Xerox mouse, and the low-cost
//! DEC GIGI terminal with a Summagraphics BitPad. The real hardware is
//! modeled as a resolution + palette; rendering to a device quantizes
//! colors to its palette exactly like the terminals did.

use crate::color::Color;
use crate::display_list::{DisplayList, DrawOp};
use crate::framebuffer::Framebuffer;
use crate::viewport::Viewport;
use std::collections::HashMap;

/// A precomputed palette-quantization table.
///
/// Display lists reuse a handful of layer colors across thousands of
/// ops; quantizing each *distinct* color once and looking the result up
/// replaces the per-op nearest-palette-entry scan the render loop used
/// to do (`O(ops × palette)` → `O(colors × palette + ops)`).
#[derive(Debug, Clone)]
pub struct PaletteLut {
    map: HashMap<Color, Color>,
}

impl PaletteLut {
    /// Builds the table for every distinct color appearing in `ops`.
    pub fn for_ops(ops: &[DrawOp], palette: &[Color]) -> Self {
        let mut map = HashMap::new();
        for op in ops {
            let c = op.color();
            map.entry(c).or_insert_with(|| c.quantize(palette));
        }
        PaletteLut { map }
    }

    /// The palette color for `c`; colors absent from the table fall
    /// back to themselves.
    pub fn quantize(&self, c: Color) -> Color {
        self.map.get(&c).copied().unwrap_or(c)
    }

    /// Number of distinct colors in the table.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A display device: a resolution and a fixed palette.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    name: &'static str,
    width: usize,
    height: usize,
    palette: Vec<Color>,
}

impl Device {
    /// Device name as the paper gives it.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Horizontal resolution.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Vertical resolution.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The fixed hardware palette.
    pub fn palette(&self) -> &[Color] {
        &self.palette
    }

    /// A fresh framebuffer at the device's resolution.
    pub fn framebuffer(&self) -> Framebuffer {
        Framebuffer::new(self.width, self.height)
    }

    /// Renders a display list at the device's resolution with its
    /// palette, fitting the whole list on screen.
    ///
    /// Colors are quantized through a precomputed [`PaletteLut`], then
    /// the quantized list draws through [`DisplayList::render`].
    pub fn render(&self, list: &DisplayList) -> Framebuffer {
        let _sp = riot_trace::span!("gfx.render", ops = list.ops().len() as u64);
        let mut fb = self.framebuffer();
        if let Some(bb) = list.bounding_box() {
            let vp = Viewport::fit(bb, self.width, self.height);
            let lut = PaletteLut::for_ops(list.ops(), &self.palette);
            riot_trace::registry()
                .counter("gfx.palette.lut.colors")
                .add(lut.len() as u64);
            let quantized: DisplayList = list
                .ops()
                .iter()
                .map(|op| op.with_color(lut.quantize(op.color())))
                .collect();
            quantized.render(&vp, &mut fb);
        }
        fb
    }
}

/// The full-color palette shared by both devices' basic colors.
fn base_palette() -> Vec<Color> {
    vec![
        Color::BLACK,
        Color::new(220, 0, 0),   // red (poly)
        Color::new(0, 160, 0),   // green (diffusion)
        Color::new(64, 64, 255), // blue (metal)
        Color::new(200, 180, 0), // yellow (implant)
        Color::new(0, 200, 200), // cyan
        Color::new(200, 0, 200), // magenta
        Color::WHITE,
    ]
}

/// The "Charles" color terminal: high-resolution raster, 16 colors.
pub fn charles() -> Device {
    let mut palette = base_palette();
    // Half-intensity second bank, as raster terminals of the era had.
    let dims: Vec<Color> = palette
        .iter()
        .map(|c| Color::new(c.r / 2, c.g / 2, c.b / 2))
        .collect();
    palette.extend(dims);
    Device {
        name: "Charles",
        width: 512,
        height: 480,
        palette,
    }
}

/// The DEC GIGI terminal: lower resolution, 8 simultaneous colors.
pub fn gigi() -> Device {
    Device {
        name: "GIGI",
        width: 768,
        height: 240,
        palette: base_palette(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display_list::DrawOp;
    use riot_geom::Rect;

    #[test]
    fn device_specs() {
        let c = charles();
        assert_eq!(c.name(), "Charles");
        assert_eq!((c.width(), c.height()), (512, 480));
        assert_eq!(c.palette().len(), 16);
        let g = gigi();
        assert_eq!(g.name(), "GIGI");
        assert_eq!(g.palette().len(), 8);
        assert!(g.width() > g.height());
    }

    #[test]
    fn render_quantizes_to_palette() {
        let mut list = DisplayList::new();
        list.push(DrawOp::FillRect {
            rect: Rect::new(0, 0, 1000, 1000),
            color: Color::new(70, 60, 250), // near metal blue
        });
        let fb = gigi().render(&list);
        assert!(fb.lit_pixels() > 0);
        // Every lit pixel is a palette color.
        for y in 0..fb.height() as i64 {
            for x in 0..fb.width() as i64 {
                let c = fb.get(x, y).unwrap();
                assert!(gigi().palette().contains(&c));
            }
        }
    }

    #[test]
    fn empty_list_renders_black() {
        let fb = charles().render(&DisplayList::new());
        assert_eq!(fb.lit_pixels(), 0);
    }
}
