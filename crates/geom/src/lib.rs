//! Shared low-level geometry objects for the RIOT reproduction.
//!
//! The 1982 Riot paper describes a "shared low-level objects package
//! (500 lines)" under the tool. This crate is that package: integer
//! coordinates in CIF centimicrons, axis-aligned rectangles, the eight
//! Manhattan orientations (the dihedral group D4, i.e. 90° rotations and
//! mirrorings), rigid transforms, mask layers for the NMOS process Riot's
//! cells were drawn in, and the four box sides used to express *opposed*
//! connectors.
//!
//! Beyond the paper's 500 lines, this crate also hosts the shared
//! performance primitive of the reproduction: an immutable bucketed
//! spatial index over rectangles ([`index`]). It lives here because
//! every geometry hot path (DRC, render, grid routing) builds on it.
//!
//! # Units
//!
//! All coordinates are integers in **centimicrons** (1/100 µm), the CIF
//! unit. Symbolic (Sticks) layout is drawn on a **lambda** grid; the
//! conversion lives in [`units`].
//!
//! # Example
//!
//! ```
//! use riot_geom::{Point, Rect, Orientation, Transform};
//!
//! let r = Rect::new(0, 0, 400, 200);
//! let t = Transform::new(Orientation::R90, Point::new(1000, 0));
//! let moved = t.apply_rect(r);
//! assert_eq!(moved, Rect::new(800, 0, 1000, 400));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod layer;
pub mod orientation;
pub mod par;
pub mod path;
pub mod point;
pub mod rect;
pub mod side;
pub mod transform;
pub mod units;

pub use index::SpatialIndex;
pub use layer::Layer;
pub use orientation::Orientation;
pub use path::Path;
pub use point::{Coord, Point};
pub use rect::Rect;
pub use side::Side;
pub use transform::Transform;
pub use units::{CentiMicron, Lambda, LAMBDA};
