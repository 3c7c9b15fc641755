//! The cell menu: every cell the session can instantiate.
//!
//! "Internally, Riot has a list of cells that the user may edit. …
//! The upper menu area contains the names of the cells which are
//! currently defined and which may be instantiated."

use crate::cell::{Cell, CellId, CellKind, Connector};
use crate::error::RiotError;
use riot_geom::Transform;

/// The session's cell list. Cells are appended and looked up by name or
/// id; ids are stable (renames keep the id).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Library {
    /// The menu, in definition order. Crate-visible so
    /// `crate::persist` can serialize and rebuild a library verbatim.
    pub(crate) cells: Vec<Cell>,
    /// Monotone counter behind [`Library::next_route_name`].
    pub(crate) route_counter: usize,
}

/// A cheap rollback point for the command engine's transactions.
///
/// During an editing session the cell list only grows (route cells and
/// stretched cells are appended), so truncating back to the recorded
/// length and restoring the route-name counter undoes everything a
/// failed or undone command added to the menu.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LibraryCheckpoint {
    /// Menu length at capture. Crate-visible for `crate::persist`.
    pub(crate) cells_len: usize,
    /// Route-name counter at capture.
    pub(crate) route_counter: usize,
}

impl Library {
    /// Creates an empty library.
    pub fn new() -> Self {
        Library::default()
    }

    /// Number of cells in the menu.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the menu is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over `(id, cell)` in menu order.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells.iter().enumerate().map(|(i, c)| (CellId(i), c))
    }

    /// Looks a cell up by id.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadCellId`] when the id is out of range.
    pub fn cell(&self, id: CellId) -> Result<&Cell, RiotError> {
        self.cells.get(id.0).ok_or(RiotError::BadCellId(id.0))
    }

    /// Mutable access to a cell.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadCellId`] when the id is out of range.
    pub(crate) fn cell_mut(&mut self, id: CellId) -> Result<&mut Cell, RiotError> {
        self.cells.get_mut(id.0).ok_or(RiotError::BadCellId(id.0))
    }

    /// Finds a cell id by name.
    pub fn find(&self, name: &str) -> Option<CellId> {
        self.cells.iter().position(|c| c.name == name).map(CellId)
    }

    /// Adds a cell to the menu.
    ///
    /// # Errors
    ///
    /// [`RiotError::DuplicateCell`] when the name is taken.
    pub fn add_cell(&mut self, cell: Cell) -> Result<CellId, RiotError> {
        if self.find(&cell.name).is_some() {
            return Err(RiotError::DuplicateCell(cell.name));
        }
        self.cells.push(cell);
        Ok(CellId(self.cells.len() - 1))
    }

    /// Renames a cell (a Riot textual command).
    ///
    /// # Errors
    ///
    /// [`RiotError::BadCellId`] or [`RiotError::DuplicateCell`].
    pub fn rename(&mut self, id: CellId, new_name: impl Into<String>) -> Result<(), RiotError> {
        let new_name = new_name.into();
        if let Some(existing) = self.find(&new_name) {
            if existing != id {
                return Err(RiotError::DuplicateCell(new_name));
            }
        }
        self.cell_mut(id)?.name = new_name;
        Ok(())
    }

    /// Captures the rollback point for a transaction.
    pub(crate) fn checkpoint(&self) -> LibraryCheckpoint {
        LibraryCheckpoint {
            cells_len: self.cells.len(),
            route_counter: self.route_counter,
        }
    }

    /// Rolls back to a checkpoint: drops cells added since the capture
    /// and restores the route-name counter, so a re-run regenerates
    /// identical names.
    pub(crate) fn rollback(&mut self, cp: LibraryCheckpoint) {
        debug_assert!(cp.cells_len <= self.cells.len(), "cells only grow");
        self.cells.truncate(cp.cells_len);
        self.route_counter = cp.route_counter;
    }

    /// A fresh unique name for a route cell ("route0", "route1", …).
    pub(crate) fn next_route_name(&mut self) -> String {
        loop {
            let name = format!("route{}", self.route_counter);
            self.route_counter += 1;
            if self.find(&name).is_none() {
                return name;
            }
        }
    }

    /// Imports every **named** definition of a CIF file as a leaf cell
    /// (each flattened into its own coordinates; connectors from the
    /// `94` extension). Returns the new cell ids in symbol-number order.
    ///
    /// # Errors
    ///
    /// CIF parse errors, flattening errors, or duplicate cell names.
    pub fn load_cif(&mut self, text: &str) -> Result<Vec<CellId>, RiotError> {
        let file = riot_cif::parse(text)?;
        let mut ids = Vec::new();
        for def in file.cells() {
            let Some(name) = def.name.clone() else {
                continue; // unnamed helper symbols only exist to be called
            };
            let mut flat = Vec::new();
            riot_cif::flatten::flatten_cell(&file, def.id, Transform::IDENTITY, 1, &mut flat)?;
            let shapes = flat
                .into_iter()
                .map(|f| riot_cif::Shape {
                    layer: f.layer,
                    geometry: f.geometry,
                })
                .collect();
            let connectors = def
                .connectors
                .iter()
                .map(|c| Connector {
                    name: c.name.clone(),
                    location: c.location,
                    layer: c.layer,
                    width: c.width,
                })
                .collect();
            ids.push(self.add_cell(Cell::from_cif_shapes(name, shapes, connectors))?);
        }
        Ok(ids)
    }

    /// Imports a Sticks cell as a (stretchable) leaf cell.
    ///
    /// # Errors
    ///
    /// Sticks parse/validation errors or a duplicate cell name.
    pub fn load_sticks(&mut self, text: &str) -> Result<CellId, RiotError> {
        let cell = riot_sticks::parse(text)?;
        self.add_cell(Cell::from_sticks(cell))
    }

    /// Adds an already-built Sticks cell (route cells, stretched cells).
    ///
    /// # Errors
    ///
    /// [`RiotError::DuplicateCell`] when the name is taken.
    pub fn add_sticks_cell(&mut self, cell: riot_sticks::SticksCell) -> Result<CellId, RiotError> {
        self.add_cell(Cell::from_sticks(cell))
    }

    /// Deletes a cell from the menu by replacing it with an empty
    /// tombstone composition (ids must stay stable). Instances of it
    /// elsewhere become empty.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadCellId`].
    pub fn delete_cell(&mut self, id: CellId) -> Result<(), RiotError> {
        let cell = self.cell_mut(id)?;
        cell.name = format!("(deleted {})", cell.name);
        cell.connectors.clear();
        cell.kind = CellKind::Composition(crate::cell::Composition::default());
        cell.bbox = riot_geom::Rect::new(0, 0, 0, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CIF: &str = "\
DS 1;
9 padIn;
L NM; B 1000 1000 500 500;
94 OUT 1000 500 NM 250;
DF;
DS 2;
L NP; B 100 100 50 50;
DF;
E";

    #[test]
    fn load_cif_imports_named_cells_only() {
        let mut lib = Library::new();
        let ids = lib.load_cif(CIF).unwrap();
        assert_eq!(ids.len(), 1);
        let cell = lib.cell(ids[0]).unwrap();
        assert_eq!(cell.name, "padIn");
        assert_eq!(cell.connectors.len(), 1);
        assert!(cell.is_leaf());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut lib = Library::new();
        lib.load_cif(CIF).unwrap();
        let err = lib.load_cif(CIF).unwrap_err();
        assert_eq!(err, RiotError::DuplicateCell("padIn".into()));
    }

    #[test]
    fn find_and_rename() {
        let mut lib = Library::new();
        let ids = lib.load_cif(CIF).unwrap();
        assert_eq!(lib.find("padIn"), Some(ids[0]));
        lib.rename(ids[0], "padInput").unwrap();
        assert_eq!(lib.find("padIn"), None);
        assert_eq!(lib.find("padInput"), Some(ids[0]));
        // Renaming to itself is allowed.
        lib.rename(ids[0], "padInput").unwrap();
    }

    #[test]
    fn load_sticks_leaf() {
        let mut lib = Library::new();
        let id = lib
            .load_sticks("sticks inv\nbbox 0 0 8 8\npin A left NP 0 4\nend\n")
            .unwrap();
        assert!(lib.cell(id).unwrap().sticks().is_some());
    }

    #[test]
    fn route_names_unique() {
        let mut lib = Library::new();
        assert_eq!(lib.next_route_name(), "route0");
        assert_eq!(lib.next_route_name(), "route1");
    }

    #[test]
    fn delete_cell_tombstones() {
        let mut lib = Library::new();
        let ids = lib.load_cif(CIF).unwrap();
        lib.delete_cell(ids[0]).unwrap();
        assert_eq!(lib.find("padIn"), None);
        assert_eq!(lib.len(), 1); // slot remains, ids stable
    }

    #[test]
    fn bad_id() {
        let lib = Library::new();
        assert!(matches!(lib.cell(CellId(7)), Err(RiotError::BadCellId(7))));
    }
}
