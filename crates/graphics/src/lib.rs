//! The RIOT graphics package.
//!
//! The paper's Riot carried a 4000-line graphics package driving two
//! workstations: the "Charles" color raster terminal (with a Xerox mouse
//! and an HP 7221A four-color pen plotter) and the low-cost DEC GIGI
//! terminal (with a Summagraphics BitPad). None of that hardware exists
//! here, so this crate models it (see DESIGN.md §2):
//!
//! * [`Framebuffer`] — an in-memory RGB raster with Bresenham lines,
//!   rectangles, connector crosses and a 5×7 bitmap font;
//! * [`Viewport`] — the zoom/pan mapping from layout centimicrons to
//!   screen pixels (Riot's zooming and panning commands);
//! * [`DisplayList`] — resolution-independent draw ops in world
//!   coordinates, renderable to any backend;
//! * [`device`] — the Charles and GIGI terminal models (resolution and
//!   palette), which quantize colors like the real hardware;
//! * [`svg`] and [`plotter`] — vector backends: SVG for inspection and
//!   an HPGL-like pen-command stream standing in for the HP 7221A;
//! * PPM export for raster inspection.
//!
//! # Example
//!
//! ```
//! use riot_graphics::{Color, DisplayList, DrawOp, Viewport};
//! use riot_geom::{Point, Rect};
//!
//! let mut list = DisplayList::new();
//! list.push(DrawOp::Rect {
//!     rect: Rect::new(0, 0, 5000, 2500),
//!     color: Color::new(64, 64, 255),
//! });
//! let device = riot_graphics::device::charles();
//! let viewport = Viewport::fit(Rect::new(0, 0, 5000, 2500), device.width(), device.height());
//! let mut fb = device.framebuffer();
//! list.render(&viewport, &mut fb);
//! assert!(fb.to_ppm().starts_with(b"P6"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod color;
pub mod device;
pub mod display_list;
pub mod font;
pub mod framebuffer;
pub mod plotter;
pub mod raster;
pub mod svg;
pub mod viewport;

pub use color::Color;
pub use device::PaletteLut;
pub use display_list::{op_damage_bbox, render_ops_damaged, DisplayList, DrawOp, RenderCache};
pub use framebuffer::Framebuffer;
pub use raster::PixelSink;
pub use viewport::Viewport;
