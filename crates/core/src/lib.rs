//! RIOT proper: the interactive graphical chip assembly tool.
//!
//! This crate is the primary contribution of the paper (Trimberger &
//! Rowson, DAC 1982): a composition tool over a **separated hierarchy**
//! — leaf cells carry geometry; composition cells carry only instances —
//! with three connection primitives that guarantee connections are made
//! correctly while the designer keeps control of the floorplan:
//!
//! * **abut** — move the *from* instance so connectors touch
//!   ([`Editor::abut`]), with an overlap option for shared power rails;
//! * **route** — emit a river-route cell between the instances and move
//!   the *from* instance against its far side ([`Editor::route`]);
//! * **stretch** — re-solve the *from* instance's Sticks cell with the
//!   *to* connectors' separations and abut the result
//!   ([`Editor::stretch`]).
//!
//! The [`Library`] is the cell menu; the [`Editor`] is a graphical
//! editing session on one composition cell, holding the pending
//! connection list the screen displays continuously. Every editing
//! command is journaled for [`replay`] — Riot's recovery mechanism when
//! leaf cells change shape.
//!
//! # Example
//!
//! ```
//! use riot_core::{Editor, Library};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut lib = Library::new();
//! let inv = lib.load_sticks(
//!     "sticks inv\nbbox 0 0 10 12\npin IN left NP 0 6\npin OUT right NP 10 6\nwire NP 2 0 6 10 6\nend\n",
//! )?;
//! let mut ed = Editor::open(&mut lib, "TOP")?;
//! let a = ed.create_instance(inv)?;
//! let b = ed.create_instance(inv)?;
//! ed.translate_instance(b, riot_geom::Point::new(5000, 0))?;
//! ed.connect(b, "IN", a, "OUT")?;
//! ed.abut(Default::default())?;
//! ed.finish()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod command;
pub mod compose;
pub mod connection;
pub mod editor;
pub mod error;
pub mod events;
pub mod export;
pub mod fault;
mod history;
pub mod instance;
pub mod library;
pub mod measure;
pub mod netlist;
pub mod persist;
pub mod record;
pub mod replay;
pub mod routeplan;

pub use cell::{Cell, CellId, CellKind, Connector, LeafSource};
pub use command::{Command, Outcome};
pub use connection::{PendingConnection, WorldConnector};
pub use editor::{AbutOptions, Editor, RouteOptions, StretchOptions};
pub use error::RiotError;
pub use events::{Damage, Stats};
pub use fault::{
    FaultPlan, FAULT_ROUTE_GRID_SOLVE, FAULT_ROUTE_SOLVE, FAULT_SERVE_ACCEPT,
    FAULT_SERVE_CONN_BACKLOG, FAULT_SERVE_FRAME_DECODE, FAULT_SERVE_GROUP_FLUSH,
    FAULT_SERVE_JOURNAL_APPEND, FAULT_SERVE_POLL_WAKEUP, FAULT_SERVE_SNAPSHOT_WRITE,
    FAULT_STRETCH_SOLVE, FAULT_TXN_COMMIT,
};
pub use instance::{Instance, InstanceId};
pub use library::Library;
pub use netlist::{ConnectionLedger, ConnectionViolation, MaintainedConnection};
pub use persist::{decode_session, encode_session, PersistError};
pub use record::{crc32, RecordCorruption};
pub use replay::{
    command_to_line, encode_wal_record, parse_command_line, replay, Journal, ReplayCommand,
    WalCorruption, WalRecovery, WAL_MAGIC,
};
