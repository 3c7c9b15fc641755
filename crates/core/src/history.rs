//! Undo/redo stacks for the command engine.
//!
//! Every successfully applied command pushes an [`Applied`] record: the
//! command itself (for redo) and the [`UndoRecord`] its application
//! filled in, which reverts it.
//!
//! Undo pops the stack, reverts, and moves the command to the redo
//! stack; redo re-executes the command through the normal engine path.
//! Any *new* command clears the redo stack, as editors conventionally
//! do.

use crate::cell::{Cell, Connector};
use crate::command::Command;
use crate::connection::PendingConnection;
use crate::instance::{Instance, InstanceId};
use crate::library::LibraryCheckpoint;
use riot_geom::Rect;

/// How to revert one applied command: the state it replaced.
///
/// The engine opens a record before every command, and the command's
/// edits fill it in as they happen. The first change to a pre-existing
/// instance slot keeps the slot's prior instance; the first removal
/// from the pending list keeps the prior list; FINISH keeps the cell
/// header it rewrites. What a command only appends (menu cells,
/// instance slots, pending connections) reverts by truncating to the
/// lengths the record opened with. So a record is as large as what its
/// command changed, and the same record serves failure rollback and
/// undo.
///
/// Reverting is infallible by construction: the LIFO discipline of the
/// undo stack guarantees that when a record runs, the session looks
/// exactly as it did right after its command applied.
#[derive(Debug, Clone)]
pub(crate) struct UndoRecord {
    /// The menu before the command. Fields are crate-visible so
    /// `crate::persist` can serialize undo records.
    pub(crate) menu: LibraryCheckpoint,
    /// Instance slots before the command; later slots are its own.
    pub(crate) slots: usize,
    /// Each pre-existing slot the command changed, with its instance
    /// before the first change, in first-change order.
    pub(crate) prior: Vec<(InstanceId, Instance)>,
    /// Pending connections before the command.
    pub(crate) pending_len: usize,
    /// The pending list before the command, kept once it removed an
    /// entry.
    pub(crate) pending: Option<Vec<PendingConnection>>,
    /// The edit cell's bbox and connectors before FINISH rewrote them.
    pub(crate) header: Option<(Rect, Vec<Connector>)>,
}

impl UndoRecord {
    /// Opens an empty record on the session a command is about to
    /// change.
    pub(crate) fn open(menu: LibraryCheckpoint, slots: usize, pending_len: usize) -> UndoRecord {
        UndoRecord {
            menu,
            slots,
            prior: Vec::new(),
            pending_len,
            pending: None,
            header: None,
        }
    }

    /// Keeps slot `id`'s instance before the command's first change to
    /// it. Slots the command created need nothing.
    pub(crate) fn keep_slot(&mut self, id: InstanceId, inst: &Instance) {
        if id.0 < self.slots && !self.prior.iter().any(|(kept, _)| *kept == id) {
            self.prior.push((id, inst.clone()));
        }
    }

    /// Keeps the pending list before the command's first removal from
    /// it. Until then the command has only appended past `pending_len`.
    pub(crate) fn keep_pending(&mut self, pending: &[PendingConnection]) {
        if self.pending.is_none() {
            self.pending = Some(pending[..self.pending_len].to_vec());
        }
    }

    /// Keeps the edit cell's header before the command rewrites it.
    pub(crate) fn keep_header(&mut self, cell: &Cell) {
        if self.header.is_none() {
            self.header = Some((cell.bbox, cell.connectors.clone()));
        }
    }
}

/// One applied command with its inverse.
#[derive(Debug, Clone)]
pub(crate) struct Applied {
    /// The command, in its journaled (name-keyed, fully resolved) form;
    /// re-executing it is the redo.
    pub(crate) command: Command,
    /// How to revert it.
    pub(crate) undo: UndoRecord,
}

/// The session's undo and redo stacks.
#[derive(Debug, Default)]
pub(crate) struct History {
    /// Applied commands with their inverses, oldest first. Crate-visible
    /// so `crate::persist` can serialize a session wholesale.
    pub(crate) undo: Vec<Applied>,
    /// Undone commands awaiting redo, oldest first.
    pub(crate) redo: Vec<Command>,
}

impl History {
    /// Records a newly applied command (does not touch the redo stack;
    /// the engine clears it for user-initiated commands only).
    pub(crate) fn push_applied(&mut self, applied: Applied) {
        self.undo.push(applied);
    }

    /// Pops the most recent applied command for reverting.
    pub(crate) fn pop_undo(&mut self) -> Option<Applied> {
        self.undo.pop()
    }

    /// Pushes a reverted command onto the redo stack.
    pub(crate) fn push_redo(&mut self, command: Command) {
        self.redo.push(command);
    }

    /// Pops the next command to redo.
    pub(crate) fn pop_redo(&mut self) -> Option<Command> {
        self.redo.pop()
    }

    /// Drops the redo stack (a new command invalidates it).
    pub(crate) fn clear_redo(&mut self) {
        self.redo.clear();
    }

    /// Number of commands that can be undone.
    pub(crate) fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// Number of commands that can be redone.
    pub(crate) fn redo_len(&self) -> usize {
        self.redo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;

    #[test]
    fn stack_discipline() {
        let mut h = History::default();
        assert_eq!(h.undo_len(), 0);
        let empty = UndoRecord::open(Library::new().checkpoint(), 0, 0);
        h.push_applied(Applied {
            command: Command::Finish,
            undo: empty.clone(),
        });
        h.push_applied(Applied {
            command: Command::ClearPending,
            undo: empty,
        });
        assert_eq!(h.undo_len(), 2);
        let a = h.pop_undo().unwrap();
        assert_eq!(a.command, Command::ClearPending);
        h.push_redo(a.command);
        assert_eq!(h.redo_len(), 1);
        assert_eq!(h.pop_redo(), Some(Command::ClearPending));
        h.push_redo(Command::Finish);
        h.clear_redo();
        assert_eq!(h.redo_len(), 0);
    }

    #[test]
    fn a_record_keeps_only_the_first_prior_value() {
        let mut lib = Library::new();
        let cell = lib.add_cell(Cell::new_composition("TOP")).unwrap();
        let first = Instance::new("A", cell, Rect::new(0, 0, 10, 10));
        let mut later = first.clone();
        later.cols = 3;
        let mut r = UndoRecord::open(lib.checkpoint(), 1, 0);
        r.keep_slot(InstanceId(0), &first);
        r.keep_slot(InstanceId(0), &later);
        r.keep_slot(InstanceId(1), &later);
        assert_eq!(
            r.prior,
            vec![(InstanceId(0), first)],
            "created slots need nothing"
        );
    }
}
