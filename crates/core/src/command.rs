//! The command engine: every mutating editor operation as a value.
//!
//! A [`Command`] is the single description of one editing step, keyed
//! by cell/instance/connector **names** so the same value serves three
//! masters:
//!
//! * the interactive editor — public [`crate::Editor`] methods build a
//!   command and hand it to [`crate::Editor::execute`];
//! * the REPLAY journal — [`crate::Journal`] is a `Vec<Command>` and
//!   the text format (de)serializes commands directly, so replay is a
//!   loop of `execute` with no second dispatch;
//! * history — undo reverts the record the command's application
//!   filled in, and redo re-executes the command itself.
//!
//! Applying a command yields a `CommandEffect`: the caller-visible
//! [`Outcome`] and the exact (possibly name-deduplicated) command to
//! journal.

use crate::editor::Editor;
use crate::error::RiotError;
use crate::{CellId, InstanceId};
use riot_geom::{Orientation, Point, Side};
use riot_rest::SolveMode;
use riot_route::RouterOptions;

/// One editing command, keyed by names rather than ids so it survives
/// serialization and re-runs against reshaped libraries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Begin editing a composition cell. Only valid as the head of a
    /// journal; [`crate::Editor::execute`] rejects it mid-session.
    Edit {
        /// Composition cell name.
        cell: String,
    },
    /// CREATE an instance of a cell.
    Create {
        /// Defining cell's name.
        cell: String,
        /// New instance's name.
        instance: String,
    },
    /// MOVE an instance.
    Translate {
        /// Instance name.
        instance: String,
        /// Displacement.
        d: Point,
    },
    /// ROTATE/MIRROR an instance.
    Orient {
        /// Instance name.
        instance: String,
        /// Orientation composed onto the instance.
        orient: Orientation,
    },
    /// Array replication.
    Replicate {
        /// Instance name.
        instance: String,
        /// Columns.
        cols: u32,
        /// Rows.
        rows: u32,
    },
    /// Array spacing override.
    Spacing {
        /// Instance name.
        instance: String,
        /// Column pitch.
        col: i64,
        /// Row pitch.
        row: i64,
    },
    /// DELETE an instance.
    Delete {
        /// Instance name.
        instance: String,
    },
    /// Add a pending connection.
    Connect {
        /// From instance.
        from: String,
        /// Connector on the from instance.
        from_connector: String,
        /// To instance.
        to: String,
        /// Connector on the to instance.
        to_connector: String,
    },
    /// Remove one pending connection by list position.
    RemovePending {
        /// Position in the pending list.
        index: usize,
    },
    /// Clear the pending connection list.
    ClearPending,
    /// The ABUT connection command.
    Abut {
        /// Overlap option.
        overlap: bool,
    },
    /// Edge abutment of two instances without connectors.
    AbutInstances {
        /// From instance.
        from: String,
        /// To instance.
        to: String,
    },
    /// The ROUTE connection command.
    Route {
        /// Whether the from instance moves against the route.
        move_from: bool,
        /// Router tuning. The journal text keeps `move|stay` plus the
        /// engine choice when it is the grid router (`route move
        /// grid`); the remaining tuning fields are not serialized and
        /// parsing restores their defaults.
        router: RouterOptions,
    },
    /// The STRETCH connection command.
    Stretch {
        /// How the REST solve treats existing separations.
        mode: SolveMode,
    },
    /// Bring connectors out to the composition boundary.
    BringOut {
        /// Instance name.
        instance: String,
        /// Connector names.
        connectors: Vec<String>,
        /// Side being brought out.
        side: Side,
    },
    /// Finish the cell.
    Finish,
    /// Revert the most recent applied command.
    Undo,
    /// Re-apply the most recently undone command.
    Redo,
}

/// What a successfully executed command hands back to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Nothing beyond success (moves, connects, aborts…).
    None,
    /// An instance was created.
    Instance(InstanceId),
    /// A cell was created (stretch).
    Cell(CellId),
    /// A cell and an instance of it were created (route, bring-out).
    CellInstance(CellId, InstanceId),
    /// A count (finish's promoted connectors, undo/redo's 0-or-1).
    Count(usize),
}

/// The full result of applying one command.
pub(crate) struct CommandEffect {
    /// Caller-visible outcome.
    pub(crate) outcome: Outcome,
    /// The command to journal — usually the command itself, but CREATE
    /// journals the deduplicated instance name it actually used.
    pub(crate) journal: Command,
}

impl Command {
    /// A short static name for this command's kind (`"abut"`,
    /// `"route"`, `"stretch"`, …) — the key the replay profiler and the
    /// metrics registry aggregate by.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Command::Edit { .. } => "edit",
            Command::Create { .. } => "create",
            Command::Translate { .. } => "translate",
            Command::Orient { .. } => "orient",
            Command::Replicate { .. } => "replicate",
            Command::Spacing { .. } => "spacing",
            Command::Delete { .. } => "delete",
            Command::Connect { .. } => "connect",
            Command::RemovePending { .. } => "remove_pending",
            Command::ClearPending => "clear_pending",
            Command::Abut { .. } => "abut",
            Command::AbutInstances { .. } => "abut_instances",
            Command::Route { .. } => "route",
            Command::Stretch { .. } => "stretch",
            Command::BringOut { .. } => "bring_out",
            Command::Finish => "finish",
            Command::Undo => "undo",
            Command::Redo => "redo",
        }
    }

    /// The span name the engine opens while applying this command:
    /// `"cmd."` + [`Command::kind_name`]. Static so span fields stay
    /// allocation-free.
    pub fn span_name(&self) -> &'static str {
        match self {
            Command::Edit { .. } => "cmd.edit",
            Command::Create { .. } => "cmd.create",
            Command::Translate { .. } => "cmd.translate",
            Command::Orient { .. } => "cmd.orient",
            Command::Replicate { .. } => "cmd.replicate",
            Command::Spacing { .. } => "cmd.spacing",
            Command::Delete { .. } => "cmd.delete",
            Command::Connect { .. } => "cmd.connect",
            Command::RemovePending { .. } => "cmd.remove_pending",
            Command::ClearPending => "cmd.clear_pending",
            Command::Abut { .. } => "cmd.abut",
            Command::AbutInstances { .. } => "cmd.abut_instances",
            Command::Route { .. } => "cmd.route",
            Command::Stretch { .. } => "cmd.stretch",
            Command::BringOut { .. } => "cmd.bring_out",
            Command::Finish => "cmd.finish",
            Command::Undo => "cmd.undo",
            Command::Redo => "cmd.redo",
        }
    }

    /// Applies the command to an editing session. Dispatches to the
    /// per-operation bodies in the `editor::ops_*` modules.
    pub(crate) fn apply(&self, ed: &mut Editor<'_>) -> Result<CommandEffect, RiotError> {
        match self {
            Command::Edit { .. } | Command::Undo | Command::Redo => {
                unreachable!("execute() intercepts edit/undo/redo before apply")
            }
            Command::Create { cell, instance } => ed.apply_create(cell, instance.clone()),
            Command::Translate { instance, d } => ed.apply_translate(instance, *d),
            Command::Orient { instance, orient } => ed.apply_orient(instance, *orient),
            Command::Replicate {
                instance,
                cols,
                rows,
            } => ed.apply_replicate(instance, *cols, *rows),
            Command::Spacing { instance, col, row } => ed.apply_spacing(instance, *col, *row),
            Command::Delete { instance } => ed.apply_delete(instance),
            Command::Connect {
                from,
                from_connector,
                to,
                to_connector,
            } => ed.apply_connect(from, from_connector, to, to_connector),
            Command::RemovePending { index } => ed.apply_remove_pending(*index),
            Command::ClearPending => ed.apply_clear_pending(),
            Command::Abut { overlap } => ed.apply_abut(*overlap),
            Command::AbutInstances { from, to } => ed.apply_abut_instances(from, to),
            Command::Route { move_from, router } => ed.apply_route(*move_from, *router),
            Command::Stretch { mode } => ed.apply_stretch(*mode),
            Command::BringOut {
                instance,
                connectors,
                side,
            } => ed.apply_bring_out(instance, connectors, *side),
            Command::Finish => ed.apply_finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_names_are_prefixed_kind_names() {
        let cmds = [
            Command::Finish,
            Command::Abut { overlap: true },
            Command::Route {
                move_from: true,
                router: RouterOptions::new(),
            },
            Command::Stretch {
                mode: SolveMode::PreserveGaps,
            },
            Command::Undo,
            Command::Translate {
                instance: "I0".into(),
                d: Point::new(0, 0),
            },
        ];
        for c in &cmds {
            assert_eq!(c.span_name(), format!("cmd.{}", c.kind_name()));
        }
        assert_eq!(Command::Abut { overlap: false }.kind_name(), "abut");
    }
}
