//! Leaf-cell generators for the RIOT reproduction.
//!
//! The paper's leaf cells came from elsewhere: "The input and output
//! pads were taken from a library of CIF cells. The shift register
//! cell, NAND and OR gates were laid out in REST, and are defined as
//! symbolic layout in Sticks." Those tools (the Caltech pad library,
//! Bristle Blocks, LAP) are gone, so this crate generates equivalent
//! cells (DESIGN.md §2):
//!
//! * [`pads_cif`] — an input and an output pad as CIF text with `94`
//!   connector extensions (fixed geometry — **not** stretchable, which
//!   is exactly why the paper routes to pads);
//! * [`shift_register`], [`nand2`], [`or2`] — the logical-filter leaf
//!   cells as Sticks symbolic layout (stretchable);
//! * [`pipe_corner`] — the "pre-defined pipe fittings" that aid complex
//!   power/ground/clock routes;
//! * [`parametric`] — comb cells of any width, for size sweeps.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sr = riot_cells::shift_register();
//! sr.validate()?;
//! assert!(sr.pin("TAP").is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gates;
pub mod pads;
pub mod parametric;
pub mod pipes;

pub use gates::{nand2, or2, shift_register};
pub use pads::pads_cif;
pub use pipes::pipe_corner;
