//! Binary serialization of an editing session (an [`Editor`] and its
//! library) for snapshot-based recovery.
//!
//! `riot-serve` recovers a session by replaying its WAL through the
//! engine — correct, but O(history): a 100k-command session replays
//! 100k commands on every reopen. This module serializes the session
//! state itself, so recovery becomes *decode + WAL-tail replay*:
//! decoding is a linear scan over bytes, orders of magnitude cheaper
//! than re-executing commands through the transactional engine, and the
//! tail is bounded by the snapshot interval.
//!
//! # Format
//!
//! A hand-rolled little-endian binary codec (this crate takes no
//! serialization dependency): one leading version byte, then the
//! library (cells verbatim, including leaf geometry) and the session
//! (edited cell, pending list, warnings, journal, undo/redo stacks,
//! stats). Derived state — the geometry caches and the damage not yet
//! taken — is never stored: a decoded editor starts with cold caches
//! and clean damage, like a freshly opened one.
//! Commands — in the journal, the undo stack and the redo stack — are
//! stored as their `command_to_line` text, the same canonical form the
//! WAL uses, so the snapshot's command encoding is proven by the same
//! round-trip tests. An undo record holds the state its command
//! replaced, so its size follows the command's change, not the session.
//!
//! The encoding is **canonical**: encoding the decode of an encoding
//! reproduces the bytes exactly. Tests lean on this — byte equality is
//! state equality.
//!
//! # What is not serialized
//!
//! An armed [`FaultPlan`](crate::FaultPlan) holds `&'static str` site
//! tallies that cannot round-trip through bytes;
//! [`encode_session`] refuses such sessions ([`PersistError::
//! FaultPlanArmed`]) rather than silently disarming the harness.
//! `riot-serve` never arms editor-level plans, so served sessions
//! always snapshot.

use crate::cell::{Cell, CellId, CellKind, Composition, Connector, LeafSource};
use crate::connection::PendingConnection;
use crate::editor::{Editor, Menu};
use crate::history::{Applied, History, UndoRecord};
use crate::instance::{Instance, InstanceId};
use crate::library::{Library, LibraryCheckpoint};
use crate::replay::{command_to_line, parse_command_line};
use riot_geom::{Layer, Orientation, Path, Point, Rect, Side, Transform};
use std::fmt;

/// Format version written as the first payload byte. Version 2 held
/// one undo record per command; version 3 drops the coalesced-event
/// counter from the stats. Older payloads are refused.
const VERSION: u8 = 3;

/// Why encoding or decoding a session failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The payload ended before the structure did.
    Truncated,
    /// The leading version byte is not one this build understands.
    BadVersion(
        /// The version byte found.
        u8,
    ),
    /// An enum tag byte was out of range.
    BadTag {
        /// Which structure the tag discriminates.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// A stored command line failed to parse back.
    BadCommand(
        /// The parser's error, rendered.
        String,
    ),
    /// A stored wire path violated the Manhattan invariant.
    BadPath(
        /// The path validation error, rendered.
        String,
    ),
    /// The stored edit cell is not a composition of the stored library.
    BadEditCell(
        /// The editor's refusal, rendered.
        String,
    ),
    /// The session carries an armed fault plan, which cannot be
    /// serialized (its per-site tallies key on `&'static str`).
    FaultPlanArmed,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "payload truncated"),
            PersistError::BadVersion(v) => write!(f, "unsupported session format version {v}"),
            PersistError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            PersistError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            PersistError::BadCommand(e) => write!(f, "stored command does not parse: {e}"),
            PersistError::BadPath(e) => write!(f, "stored path is invalid: {e}"),
            PersistError::BadEditCell(e) => write!(f, "stored edit cell is unusable: {e}"),
            PersistError::FaultPlanArmed => {
                write!(f, "cannot serialize a session with an armed fault plan")
            }
        }
    }
}

impl std::error::Error for PersistError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Serializes an editing session, library included, to bytes.
///
/// # Errors
///
/// [`PersistError::FaultPlanArmed`] when the session carries a fault
/// plan (see the module docs); encoding is otherwise infallible.
pub fn encode_session(ed: &Editor<'_>) -> Result<Vec<u8>, PersistError> {
    if ed.fault.is_some() {
        return Err(PersistError::FaultPlanArmed);
    }
    let lib = ed.library();
    let mut out = Vec::with_capacity(4096);
    out.push(VERSION);
    put_u64(&mut out, lib.route_counter as u64);
    put_u32(&mut out, lib.cells.len() as u32);
    for cell in &lib.cells {
        put_cell(&mut out, cell);
    }
    put_u64(&mut out, ed.cell.index() as u64);
    put_conns(&mut out, &ed.pending);
    put_u32(&mut out, ed.warnings.len() as u32);
    for w in &ed.warnings {
        put_str(&mut out, w);
    }
    let cmds = ed.journal.commands();
    put_u32(&mut out, cmds.len() as u32);
    for cmd in cmds {
        put_str(&mut out, &command_to_line(cmd));
    }
    put_u64(&mut out, ed.instance_counter as u64);
    put_u32(&mut out, ed.history.undo.len() as u32);
    for applied in &ed.history.undo {
        put_str(&mut out, &command_to_line(&applied.command));
        put_undo(&mut out, &applied.undo);
    }
    put_u32(&mut out, ed.history.redo.len() as u32);
    for cmd in &ed.history.redo {
        put_str(&mut out, &command_to_line(cmd));
    }
    // With the live cache's tallies, which a decoded session's fresh
    // cache then adds to.
    for v in stats_fields(&ed.stats()) {
        put_u64(&mut out, v);
    }
    Ok(out)
}

/// The nine stats counters in a fixed serialization order.
fn stats_fields(s: &crate::Stats) -> [u64; 9] {
    [
        s.applied,
        s.undos,
        s.redos,
        s.rollbacks,
        s.events,
        s.cache_hits,
        s.cache_misses,
        s.apply_nanos,
        s.damage_rects,
    ]
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_point(out: &mut Vec<u8>, p: Point) {
    put_i64(out, p.x);
    put_i64(out, p.y);
}

fn put_rect(out: &mut Vec<u8>, r: Rect) {
    put_i64(out, r.x0);
    put_i64(out, r.y0);
    put_i64(out, r.x1);
    put_i64(out, r.y1);
}

fn put_path(out: &mut Vec<u8>, path: &Path) {
    let pts = path.points();
    put_u32(out, pts.len() as u32);
    for &p in pts {
        put_point(out, p);
    }
}

/// Index of a value in its type's `ALL` constant — the stable tag.
fn index_in<T: PartialEq + Copy>(all: &[T], v: T) -> u8 {
    all.iter().position(|&a| a == v).expect("value in ALL") as u8
}

fn put_transform(out: &mut Vec<u8>, t: Transform) {
    out.push(index_in(&Orientation::ALL, t.orient));
    put_point(out, t.offset);
}

fn put_conns(out: &mut Vec<u8>, conns: &[PendingConnection]) {
    put_u32(out, conns.len() as u32);
    for c in conns {
        put_u64(out, c.from.index() as u64);
        put_str(out, &c.from_connector);
        put_u64(out, c.to.index() as u64);
        put_str(out, &c.to_connector);
    }
}

/// A `0` tag for `None`, or a `1` tag and the value.
fn put_opt<T: ?Sized>(out: &mut Vec<u8>, v: Option<&T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put(out, v);
        }
    }
}

fn put_connectors(out: &mut Vec<u8>, connectors: &[Connector]) {
    put_u32(out, connectors.len() as u32);
    for c in connectors {
        put_str(out, &c.name);
        put_point(out, c.location);
        out.push(index_in(&Layer::ALL, c.layer));
        put_i64(out, c.width);
    }
}

fn put_instance(out: &mut Vec<u8>, inst: &Instance) {
    put_str(out, &inst.name);
    put_u64(out, inst.cell.index() as u64);
    put_transform(out, inst.transform);
    put_u32(out, inst.cols);
    put_u32(out, inst.rows);
    put_i64(out, inst.col_spacing);
    put_i64(out, inst.row_spacing);
}

fn put_cell(out: &mut Vec<u8>, cell: &Cell) {
    put_str(out, &cell.name);
    put_rect(out, cell.bbox);
    put_connectors(out, &cell.connectors);
    match &cell.kind {
        CellKind::Leaf(LeafSource::Cif { shapes }) => {
            out.push(0);
            put_u32(out, shapes.len() as u32);
            for s in shapes {
                put_shape(out, s);
            }
        }
        CellKind::Leaf(LeafSource::Sticks(s)) => {
            out.push(1);
            put_sticks(out, s);
        }
        CellKind::Composition(comp) => {
            out.push(2);
            put_u32(out, comp.instances.len() as u32);
            for slot in &comp.instances {
                put_opt(out, slot.as_ref(), put_instance);
            }
        }
    }
}

fn put_shape(out: &mut Vec<u8>, s: &riot_cif::Shape) {
    out.push(index_in(&Layer::ALL, s.layer));
    match &s.geometry {
        riot_cif::Geometry::Box(r) => {
            out.push(0);
            put_rect(out, *r);
        }
        riot_cif::Geometry::Polygon(pts) => {
            out.push(1);
            put_u32(out, pts.len() as u32);
            for &p in pts {
                put_point(out, p);
            }
        }
        riot_cif::Geometry::Wire { width, path } => {
            out.push(2);
            put_i64(out, *width);
            put_path(out, path);
        }
        riot_cif::Geometry::Flash { diameter, center } => {
            out.push(3);
            put_i64(out, *diameter);
            put_point(out, *center);
        }
    }
}

fn put_sticks(out: &mut Vec<u8>, s: &riot_sticks::SticksCell) {
    put_str(out, s.name());
    put_rect(out, s.bbox());
    put_u32(out, s.pins().len() as u32);
    for p in s.pins() {
        put_str(out, &p.name);
        out.push(index_in(&Side::ALL, p.side));
        out.push(index_in(&Layer::ALL, p.layer));
        put_point(out, p.position);
        put_i64(out, p.width);
    }
    put_u32(out, s.wires().len() as u32);
    for w in s.wires() {
        out.push(index_in(&Layer::ALL, w.layer));
        put_i64(out, w.width);
        put_path(out, &w.path);
    }
    put_u32(out, s.devices().len() as u32);
    for d in s.devices() {
        out.push(match d.kind {
            riot_sticks::DeviceKind::Enhancement => 0,
            riot_sticks::DeviceKind::Depletion => 1,
        });
        put_point(out, d.position);
        out.push(index_in(&Orientation::ALL, d.orient));
    }
    put_u32(out, s.contacts().len() as u32);
    for c in s.contacts() {
        out.push(match c.kind {
            riot_sticks::ContactKind::MetalDiffusion => 0,
            riot_sticks::ContactKind::MetalPoly => 1,
            riot_sticks::ContactKind::Buried => 2,
        });
        put_point(out, c.position);
    }
}

fn put_undo(out: &mut Vec<u8>, undo: &UndoRecord) {
    put_u64(out, undo.menu.cells_len as u64);
    put_u64(out, undo.menu.route_counter as u64);
    put_u64(out, undo.slots as u64);
    put_u32(out, undo.prior.len() as u32);
    for (id, inst) in &undo.prior {
        put_u64(out, id.index() as u64);
        put_instance(out, inst);
    }
    put_u64(out, undo.pending_len as u64);
    put_opt(out, undo.pending.as_deref(), put_conns);
    put_opt(out, undo.header.as_ref(), |out, (bbox, connectors)| {
        put_rect(out, *bbox);
        put_connectors(out, connectors);
    });
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Rebuilds a session from [`encode_session`] bytes: an editor that
/// owns the decoded library, ready to execute the next command.
///
/// # Errors
///
/// Any [`PersistError`] variant except `FaultPlanArmed`. The decoder
/// never panics on malformed input — every read is bounds-checked and
/// every tag validated — though callers are expected to have verified
/// an integrity checksum first.
pub fn decode_session(bytes: &[u8]) -> Result<Editor<'static>, PersistError> {
    let mut cur = Cur { b: bytes, pos: 0 };
    let version = cur.u8()?;
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let route_counter = cur.u64()? as usize;
    let n_cells = cur.u32()? as usize;
    let mut cells = Vec::with_capacity(n_cells.min(cur.remaining()));
    for _ in 0..n_cells {
        cells.push(get_cell(&mut cur)?);
    }
    let lib = Library {
        cells,
        route_counter,
    };
    let cell = CellId(cur.u64()? as usize);
    let mut ed =
        Editor::at(Menu::Owned(lib), cell).map_err(|e| PersistError::BadEditCell(e.to_string()))?;
    ed.pending = get_conns(&mut cur)?;
    let n_warn = cur.u32()? as usize;
    ed.warnings = Vec::with_capacity(n_warn.min(cur.remaining()));
    for _ in 0..n_warn {
        ed.warnings.push(cur.string()?);
    }
    let n_journal = cur.u32()? as usize;
    for _ in 0..n_journal {
        ed.journal.record(get_command(&mut cur)?);
    }
    ed.instance_counter = cur.u64()? as usize;
    let n_undo = cur.u32()? as usize;
    let mut undo = Vec::with_capacity(n_undo.min(cur.remaining()));
    for _ in 0..n_undo {
        let command = get_command(&mut cur)?;
        let record = get_undo(&mut cur)?;
        undo.push(Applied {
            command,
            undo: record,
        });
    }
    let n_redo = cur.u32()? as usize;
    let mut redo = Vec::with_capacity(n_redo.min(cur.remaining()));
    for _ in 0..n_redo {
        redo.push(get_command(&mut cur)?);
    }
    ed.history = History { undo, redo };
    let s = &mut ed.stats;
    let fields: [&mut u64; 9] = [
        &mut s.applied,
        &mut s.undos,
        &mut s.redos,
        &mut s.rollbacks,
        &mut s.events,
        &mut s.cache_hits,
        &mut s.cache_misses,
        &mut s.apply_nanos,
        &mut s.damage_rects,
    ];
    for slot in fields {
        *slot = cur.u64()?;
    }
    Ok(ed)
}

/// Bounds-checked little-endian reader over the payload.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated);
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, PersistError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::BadUtf8)
    }

    fn point(&mut self) -> Result<Point, PersistError> {
        Ok(Point::new(self.i64()?, self.i64()?))
    }

    fn rect(&mut self) -> Result<Rect, PersistError> {
        Ok(Rect::new(
            self.i64()?,
            self.i64()?,
            self.i64()?,
            self.i64()?,
        ))
    }

    /// Decodes a [`put_opt`] value.
    fn opt<T>(
        &mut self,
        what: &'static str,
        get: impl FnOnce(&mut Self) -> Result<T, PersistError>,
    ) -> Result<Option<T>, PersistError> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            tag => Err(PersistError::BadTag { what, tag }),
        }
    }

    /// Decodes an `ALL`-indexed enum tag.
    fn tagged<T: Copy>(&mut self, all: &[T], what: &'static str) -> Result<T, PersistError> {
        let tag = self.u8()?;
        all.get(tag as usize)
            .copied()
            .ok_or(PersistError::BadTag { what, tag })
    }

    fn path(&mut self) -> Result<Path, PersistError> {
        let n = self.u32()? as usize;
        let mut pts = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            pts.push(self.point()?);
        }
        Path::from_points(pts).map_err(|e| PersistError::BadPath(e.to_string()))
    }

    fn transform(&mut self) -> Result<Transform, PersistError> {
        let orient = self.tagged(&Orientation::ALL, "orientation")?;
        let offset = self.point()?;
        Ok(Transform { orient, offset })
    }
}

fn get_command(cur: &mut Cur<'_>) -> Result<crate::Command, PersistError> {
    let line = cur.string()?;
    parse_command_line(&line, 0).map_err(|e| PersistError::BadCommand(e.to_string()))
}

fn get_conns(cur: &mut Cur<'_>) -> Result<Vec<PendingConnection>, PersistError> {
    let n = cur.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(cur.remaining()));
    for _ in 0..n {
        out.push(PendingConnection {
            from: InstanceId(cur.u64()? as usize),
            from_connector: cur.string()?,
            to: InstanceId(cur.u64()? as usize),
            to_connector: cur.string()?,
        });
    }
    Ok(out)
}

fn get_connectors(cur: &mut Cur<'_>) -> Result<Vec<Connector>, PersistError> {
    let n = cur.u32()? as usize;
    let mut connectors = Vec::with_capacity(n.min(cur.remaining()));
    for _ in 0..n {
        connectors.push(Connector {
            name: cur.string()?,
            location: cur.point()?,
            layer: cur.tagged(&Layer::ALL, "layer")?,
            width: cur.i64()?,
        });
    }
    Ok(connectors)
}

fn get_instance(cur: &mut Cur<'_>) -> Result<Instance, PersistError> {
    Ok(Instance {
        name: cur.string()?,
        cell: CellId(cur.u64()? as usize),
        transform: cur.transform()?,
        cols: cur.u32()?,
        rows: cur.u32()?,
        col_spacing: cur.i64()?,
        row_spacing: cur.i64()?,
    })
}

fn get_cell(cur: &mut Cur<'_>) -> Result<Cell, PersistError> {
    let name = cur.string()?;
    let bbox = cur.rect()?;
    let connectors = get_connectors(cur)?;
    let kind = match cur.u8()? {
        0 => {
            let n = cur.u32()? as usize;
            let mut shapes = Vec::with_capacity(n.min(cur.remaining()));
            for _ in 0..n {
                shapes.push(get_shape(cur)?);
            }
            CellKind::Leaf(LeafSource::Cif { shapes })
        }
        1 => CellKind::Leaf(LeafSource::Sticks(get_sticks(cur)?)),
        2 => {
            let n = cur.u32()? as usize;
            let mut instances = Vec::with_capacity(n.min(cur.remaining()));
            for _ in 0..n {
                instances.push(cur.opt("instance slot", get_instance)?);
            }
            CellKind::Composition(Composition { instances })
        }
        tag => {
            return Err(PersistError::BadTag {
                what: "cell kind",
                tag,
            })
        }
    };
    Ok(Cell {
        name,
        bbox,
        connectors,
        kind,
    })
}

fn get_shape(cur: &mut Cur<'_>) -> Result<riot_cif::Shape, PersistError> {
    let layer = cur.tagged(&Layer::ALL, "layer")?;
    let geometry = match cur.u8()? {
        0 => riot_cif::Geometry::Box(cur.rect()?),
        1 => {
            let n = cur.u32()? as usize;
            let mut pts = Vec::with_capacity(n.min(cur.remaining()));
            for _ in 0..n {
                pts.push(cur.point()?);
            }
            riot_cif::Geometry::Polygon(pts)
        }
        2 => riot_cif::Geometry::Wire {
            width: cur.i64()?,
            path: cur.path()?,
        },
        3 => riot_cif::Geometry::Flash {
            diameter: cur.i64()?,
            center: cur.point()?,
        },
        tag => {
            return Err(PersistError::BadTag {
                what: "geometry",
                tag,
            })
        }
    };
    Ok(riot_cif::Shape { layer, geometry })
}

fn get_sticks(cur: &mut Cur<'_>) -> Result<riot_sticks::SticksCell, PersistError> {
    let name = cur.string()?;
    let bbox = cur.rect()?;
    let mut cell = riot_sticks::SticksCell::new(name, bbox);
    for _ in 0..cur.u32()? as usize {
        cell.push_pin(riot_sticks::Pin {
            name: cur.string()?,
            side: cur.tagged(&Side::ALL, "side")?,
            layer: cur.tagged(&Layer::ALL, "layer")?,
            position: cur.point()?,
            width: cur.i64()?,
        });
    }
    for _ in 0..cur.u32()? as usize {
        cell.push_wire(riot_sticks::SymWire {
            layer: cur.tagged(&Layer::ALL, "layer")?,
            width: cur.i64()?,
            path: cur.path()?,
        });
    }
    for _ in 0..cur.u32()? as usize {
        cell.push_device(riot_sticks::Device {
            kind: match cur.u8()? {
                0 => riot_sticks::DeviceKind::Enhancement,
                1 => riot_sticks::DeviceKind::Depletion,
                tag => {
                    return Err(PersistError::BadTag {
                        what: "device kind",
                        tag,
                    })
                }
            },
            position: cur.point()?,
            orient: cur.tagged(&Orientation::ALL, "orientation")?,
        });
    }
    for _ in 0..cur.u32()? as usize {
        cell.push_contact(riot_sticks::Contact {
            kind: match cur.u8()? {
                0 => riot_sticks::ContactKind::MetalDiffusion,
                1 => riot_sticks::ContactKind::MetalPoly,
                2 => riot_sticks::ContactKind::Buried,
                tag => {
                    return Err(PersistError::BadTag {
                        what: "contact kind",
                        tag,
                    })
                }
            },
            position: cur.point()?,
        });
    }
    Ok(cell)
}

fn get_undo(cur: &mut Cur<'_>) -> Result<UndoRecord, PersistError> {
    let menu = LibraryCheckpoint {
        cells_len: cur.u64()? as usize,
        route_counter: cur.u64()? as usize,
    };
    let slots = cur.u64()? as usize;
    let n = cur.u32()? as usize;
    let mut prior = Vec::with_capacity(n.min(cur.remaining()));
    for _ in 0..n {
        prior.push((InstanceId(cur.u64()? as usize), get_instance(cur)?));
    }
    Ok(UndoRecord {
        menu,
        slots,
        prior,
        pending_len: cur.u64()? as usize,
        pending: cur.opt("pending list", get_conns)?,
        header: cur.opt("cell header", |cur| Ok((cur.rect()?, get_connectors(cur)?)))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const INV: &str = "sticks inv\nbbox 0 0 10 12\npin IN left NP 0 6\npin OUT right NP 10 6\nwire NP 2 0 6 10 6\nend\n";

    const CIF: &str = "\
DS 1;
9 padIn;
L NM; B 1000 1000 500 500;
94 OUT 1000 500 NM 250;
DF;
E";

    fn scripted_session(lines: &[&str]) -> Editor<'static> {
        let mut lib = Library::new();
        lib.load_sticks(INV).unwrap();
        lib.load_cif(CIF).unwrap();
        let mut ed = Editor::open_owned(lib, "TOP").unwrap();
        for line in lines {
            let cmd = parse_command_line(line, 0).unwrap();
            ed.execute(cmd).unwrap();
        }
        ed
    }

    /// Canonical bytes: encode(decode(encode(x))) == encode(x), and the
    /// decoded session has identical observables.
    fn assert_round_trip(ed: &Editor<'_>) {
        let bytes = encode_session(ed).unwrap();
        let ed2 = decode_session(&bytes).unwrap();
        assert_eq!(
            ed.library(),
            ed2.library(),
            "library survives the byte round-trip"
        );
        let bytes2 = encode_session(&ed2).unwrap();
        assert_eq!(bytes, bytes2, "encoding is canonical");
        assert_eq!(ed2.cell_id(), ed.cell_id());
        assert_eq!(ed2.pending(), ed.pending());
        assert_eq!(ed2.undo_depth(), ed.undo_depth());
        assert_eq!(ed2.redo_depth(), ed.redo_depth());
        assert_eq!(ed2.journal(), ed.journal());
        assert_eq!(ed2.stats(), ed.stats());
    }

    #[test]
    fn empty_session_round_trips() {
        assert_round_trip(&scripted_session(&[]));
    }

    #[test]
    fn simple_edits_round_trip() {
        let ed = scripted_session(&[
            "create inv A",
            "create inv B",
            "translate B 5000 0",
            "connect B IN A OUT",
            "orient B R90",
            "replicate B 2 3",
        ]);
        assert_round_trip(&ed);
    }

    #[test]
    fn compound_commands_and_undo_round_trip() {
        // The kept records hold every part: prior slots (abut, delete,
        // stretch), a prior pending list (route, stretch), a menu
        // checkpoint that later cells pass (route, stretch) and a cell
        // header (finish, undone and redone). The last undo leaves both
        // history stacks populated.
        let ed = scripted_session(&[
            "create inv A",
            "create inv B",
            "translate B 5000 0",
            "connect B IN A OUT",
            "abut touch",
            "undo",
            "create inv C",
            "delete C",
            "undo",
            "route move",
            "create inv D",
            "translate D 0 5000",
            "connect D IN C OUT",
            "stretch",
            "finish",
            "undo",
            "redo",
            "create inv E",
            "undo",
        ]);
        let kept = &ed.history.undo;
        assert!(kept.iter().any(|a| !a.undo.prior.is_empty()));
        assert!(kept.iter().any(|a| a.undo.pending.is_some()));
        assert!(kept
            .iter()
            .any(|a| a.undo.menu.cells_len < ed.library().len()));
        assert!(kept.iter().any(|a| a.undo.header.is_some()));
        assert_eq!(ed.history.redo.len(), 1);
        assert_round_trip(&ed);
    }

    #[test]
    fn armed_fault_plan_is_refused() {
        let mut ed = scripted_session(&[]);
        ed.set_fault_plan(crate::FaultPlan::disabled());
        assert_eq!(
            encode_session(&ed).unwrap_err(),
            PersistError::FaultPlanArmed
        );
    }

    #[test]
    fn truncation_errors_cleanly_at_every_length() {
        let ed = scripted_session(&["create inv A", "create inv B", "connect B IN A OUT"]);
        let bytes = encode_session(&ed).unwrap();
        for len in 0..bytes.len() {
            match decode_session(&bytes[..len]) {
                Err(_) => {}
                Ok(_) => panic!("prefix of {len} bytes decoded successfully"),
            }
        }
    }

    #[test]
    fn version_1_payloads_are_refused() {
        let mut bytes = encode_session(&scripted_session(&["create inv A"])).unwrap();
        bytes[0] = 1;
        assert_eq!(
            decode_session(&bytes).unwrap_err(),
            PersistError::BadVersion(1)
        );
    }

    #[test]
    fn an_edit_cell_that_is_not_a_composition_is_refused() {
        let ed = scripted_session(&[]);
        let mut bytes = encode_session(&ed).unwrap();
        // The edit cell id follows the route counter and the library.
        let mut lib_only = Vec::new();
        put_u64(&mut lib_only, ed.library().route_counter as u64);
        put_u32(&mut lib_only, ed.library().cells.len() as u32);
        for cell in &ed.library().cells {
            put_cell(&mut lib_only, cell);
        }
        let at = 1 + lib_only.len();
        let leaf = ed.library().find("inv").unwrap().index() as u64;
        bytes[at..at + 8].copy_from_slice(&leaf.to_le_bytes());
        assert!(matches!(
            decode_session(&bytes).unwrap_err(),
            PersistError::BadEditCell(_)
        ));
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_session(&bytes).unwrap_err(),
            PersistError::BadEditCell(_)
        ));
    }

    #[test]
    fn bad_version_is_reported() {
        // Version 2 payloads, the last format before this one, are
        // refused like any unknown version.
        let mut bytes = encode_session(&scripted_session(&[])).unwrap();
        for version in [2, 99] {
            bytes[0] = version;
            assert_eq!(
                decode_session(&bytes).unwrap_err(),
                PersistError::BadVersion(version)
            );
        }
    }
}
