//! Caltech Intermediate Form (CIF 2.0) for the RIOT reproduction.
//!
//! CIF is the geometrical interchange format of Riot's era (Sproull &
//! Lyon 1980, in Mead & Conway). Riot reads leaf cells in CIF, writes CIF
//! for mask generation, and extends CIF with a user extension that marks
//! **connector locations** so its logical connection operations can be
//! performed on CIF cells.
//!
//! This crate provides:
//!
//! * a faithful lexer/parser for CIF 2.0 ([`parse`](fn@parse)):
//!   `DS`/`DF`/`DD` definitions, `C` calls with `T`/`M`/`R` transforms,
//!   `B` boxes, `P` polygons, `W` wires, `R` round flashes, `L` layers,
//!   comments, and numbered user extensions;
//! * the Riot connector extension: `94 name x y layer [width];`
//!   (the historical Caltech label extension, carrying layer and width);
//! * extension `9 name;` naming a cell definition;
//! * a semantic model ([`model::CifFile`], [`model::CifCell`]) with
//!   resolved layers, transforms and connectors;
//! * a writer ([`write`](mod@write)) producing canonical CIF text;
//! * a flattener ([`flatten`](fn@flatten)) instantiating the hierarchy
//!   into painted geometry for rendering and area accounting.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = "DS 1 1 1;\n9 inv;\nL NM; B 400 250 200 125;\n94 in 0 125 NM 250;\nDF;\nC 1 T 1000 0;\nE";
//! let file = riot_cif::parse(text)?;
//! let cell = file.cell_by_name("inv").expect("named cell");
//! assert_eq!(cell.connectors.len(), 1);
//! let out = riot_cif::to_text(&file);
//! let again = riot_cif::parse(&out)?;
//! assert_eq!(again.cells().len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod flatten;
pub mod lex;
pub mod model;
pub mod parse;
pub mod write;

pub use ast::{CifCommand, TransformPrimitive};
pub use error::ParseCifError;
pub use flatten::{
    flatten, flatten_counted, flatten_recursive, FlatShape, FlattenCache, FlattenDelta,
    FlattenStats,
};
pub use model::{CifCell, CifConnector, CifFile, Geometry, Shape};
pub use parse::{parse, parse_commands};
pub use write::{to_text, write_commands};
