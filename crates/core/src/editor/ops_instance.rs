//! Instance commands: CREATE, MOVE, ROTATE/MIRROR, REPLICATE, spacing,
//! DELETE. Public wrappers build [`Command`]s; the `apply_*` bodies are
//! what the engine dispatches to.

use super::Editor;
use crate::command::{Command, CommandEffect, Outcome};
use crate::error::RiotError;
use crate::events::ChangeEvent;
use crate::instance::{Instance, InstanceId};
use crate::CellId;
use riot_geom::{Orientation, Point, Transform};

impl Editor<'_> {
    /// The CREATE command: instantiates `cell` at the origin with an
    /// auto-generated name.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadCellId`].
    pub fn create_instance(&mut self, cell: CellId) -> Result<InstanceId, RiotError> {
        let name = loop {
            let candidate = format!("I{}", self.instance_counter);
            self.instance_counter += 1;
            if self.find_instance(&candidate).is_none() {
                break candidate;
            }
        };
        self.create_named_instance(cell, name)
    }

    /// Instantiates `cell` under an explicit instance name (replay uses
    /// this; interactive use lets Riot pick the name).
    ///
    /// # Errors
    ///
    /// [`RiotError::BadCellId`] or a duplicate instance name (reported
    /// as [`RiotError::UnknownInstance`] would be misleading, so a
    /// duplicate gets a fresh suffix and a warning instead).
    pub fn create_named_instance(
        &mut self,
        cell: CellId,
        name: impl Into<String>,
    ) -> Result<InstanceId, RiotError> {
        let cell_name = self.lib.cell(cell)?.name.clone();
        match self.execute(Command::Create {
            cell: cell_name,
            instance: name.into(),
        })? {
            Outcome::Instance(id) => Ok(id),
            _ => unreachable!("create reports an instance"),
        }
    }

    pub(crate) fn apply_create(
        &mut self,
        cell_name: &str,
        name: String,
    ) -> Result<CommandEffect, RiotError> {
        let cell = self
            .lib
            .find(cell_name)
            .ok_or_else(|| RiotError::UnknownCell(cell_name.to_owned()))?;
        let bbox = self.lib.cell(cell)?.bbox;
        let mut name = name;
        if self.find_instance(&name).is_some() {
            let fresh = format!("{name}'");
            self.warnings
                .push(format!("instance name `{name}` taken; using `{fresh}`"));
            name = fresh;
        }
        let inst = Instance::new(name.clone(), cell, bbox);
        let comp = self.comp_mut();
        comp.instances.push(Some(inst));
        let id = InstanceId(comp.instances.len() - 1);
        let at = self.world_bbox_now(id);
        self.emit(ChangeEvent::InstanceCreated { id, at });
        Ok(CommandEffect {
            outcome: Outcome::Instance(id),
            journal: Command::Create {
                cell: cell_name.to_owned(),
                instance: name,
            },
        })
    }

    /// Instantiates without journaling — for the instances ROUTE and
    /// BRING-OUT create themselves, which their own commands regenerate
    /// (and whose undo records revert).
    pub(crate) fn create_internal_instance(
        &mut self,
        cell: CellId,
        name: String,
    ) -> Result<InstanceId, RiotError> {
        let bbox = self.lib.cell(cell)?.bbox;
        let inst = Instance::new(name, cell, bbox);
        let comp = self.comp_mut();
        comp.instances.push(Some(inst));
        let id = InstanceId(comp.instances.len() - 1);
        let at = self.world_bbox_now(id);
        self.emit(ChangeEvent::InstanceCreated { id, at });
        Ok(id)
    }

    /// The MOVE command: translates an instance.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`].
    pub fn translate_instance(&mut self, id: InstanceId, d: Point) -> Result<(), RiotError> {
        let instance = self.instance(id)?.name.clone();
        self.execute(Command::Translate { instance, d })?;
        Ok(())
    }

    pub(crate) fn apply_translate(
        &mut self,
        instance: &str,
        d: Point,
    ) -> Result<CommandEffect, RiotError> {
        let id = self.require_instance(instance)?;
        let old = self.world_bbox_now(id);
        {
            let inst = self.instance_mut(id)?;
            inst.transform = inst.transform.translated(d);
        }
        let new = self.world_bbox_now(id);
        self.emit(ChangeEvent::InstanceChanged { id, old, new });
        Ok(CommandEffect {
            outcome: Outcome::None,
            journal: Command::Translate {
                instance: instance.to_owned(),
                d,
            },
        })
    }

    /// The ROTATE/MIRROR command: composes an orientation onto the
    /// instance, rotating about its placement anchor.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`].
    pub fn orient_instance(
        &mut self,
        id: InstanceId,
        orient: Orientation,
    ) -> Result<(), RiotError> {
        let instance = self.instance(id)?.name.clone();
        self.execute(Command::Orient { instance, orient })?;
        Ok(())
    }

    pub(crate) fn apply_orient(
        &mut self,
        instance: &str,
        orient: Orientation,
    ) -> Result<CommandEffect, RiotError> {
        let id = self.require_instance(instance)?;
        let old = self.world_bbox_now(id);
        {
            let inst = self.instance_mut(id)?;
            inst.transform =
                Transform::new(inst.transform.orient.then(orient), inst.transform.offset);
        }
        let new = self.world_bbox_now(id);
        self.emit(ChangeEvent::InstanceChanged { id, old, new });
        Ok(CommandEffect {
            outcome: Outcome::None,
            journal: Command::Orient {
                instance: instance.to_owned(),
                orient,
            },
        })
    }

    /// The REPLICATE command: makes the instance an array. Spacing
    /// defaults (cell bbox pitch) are kept; use
    /// [`Editor::set_spacing`] to change them.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`] / [`RiotError::BadReplication`].
    pub fn replicate_instance(
        &mut self,
        id: InstanceId,
        cols: u32,
        rows: u32,
    ) -> Result<(), RiotError> {
        let instance = self.instance(id)?.name.clone();
        self.execute(Command::Replicate {
            instance,
            cols,
            rows,
        })?;
        Ok(())
    }

    pub(crate) fn apply_replicate(
        &mut self,
        instance: &str,
        cols: u32,
        rows: u32,
    ) -> Result<CommandEffect, RiotError> {
        if cols == 0 || rows == 0 || cols as u64 * rows as u64 > 1_000_000 {
            return Err(RiotError::BadReplication { cols, rows });
        }
        let id = self.require_instance(instance)?;
        let old = self.world_bbox_now(id);
        {
            let inst = self.instance_mut(id)?;
            inst.cols = cols;
            inst.rows = rows;
        }
        let new = self.world_bbox_now(id);
        self.emit(ChangeEvent::InstanceChanged { id, old, new });
        Ok(CommandEffect {
            outcome: Outcome::None,
            journal: Command::Replicate {
                instance: instance.to_owned(),
                cols,
                rows,
            },
        })
    }

    /// Overrides the array replication spacing.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`] / [`RiotError::BadReplication`] for
    /// non-positive pitches.
    pub fn set_spacing(&mut self, id: InstanceId, col: i64, row: i64) -> Result<(), RiotError> {
        let instance = self.instance(id)?.name.clone();
        self.execute(Command::Spacing { instance, col, row })?;
        Ok(())
    }

    pub(crate) fn apply_spacing(
        &mut self,
        instance: &str,
        col: i64,
        row: i64,
    ) -> Result<CommandEffect, RiotError> {
        if col <= 0 || row <= 0 {
            return Err(RiotError::BadReplication { cols: 0, rows: 0 });
        }
        let id = self.require_instance(instance)?;
        let old = self.world_bbox_now(id);
        {
            let inst = self.instance_mut(id)?;
            inst.col_spacing = col;
            inst.row_spacing = row;
        }
        let new = self.world_bbox_now(id);
        self.emit(ChangeEvent::InstanceChanged { id, old, new });
        Ok(CommandEffect {
            outcome: Outcome::None,
            journal: Command::Spacing {
                instance: instance.to_owned(),
                col,
                row,
            },
        })
    }

    /// The DELETE command: removes an instance and any pending
    /// connections touching it.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`].
    pub fn delete_instance(&mut self, id: InstanceId) -> Result<(), RiotError> {
        let instance = self.instance(id)?.name.clone();
        self.execute(Command::Delete { instance })?;
        Ok(())
    }

    pub(crate) fn apply_delete(&mut self, instance: &str) -> Result<CommandEffect, RiotError> {
        let id = self.require_instance(instance)?;
        let old = self.world_bbox_now(id);
        let removed = self.comp_mut().instances[id.0]
            .take()
            .expect("require_instance found a live slot");
        if let Some(record) = &mut self.txn {
            record.keep_slot(id, &removed);
        }
        let pending_changed = self.pending.iter().any(|p| p.from == id || p.to == id);
        if pending_changed {
            self.pending_mut().retain(|p| p.from != id && p.to != id);
        }
        self.emit(ChangeEvent::InstanceDeleted { id, old });
        if pending_changed {
            self.emit(ChangeEvent::PendingChanged);
        }
        Ok(CommandEffect {
            outcome: Outcome::None,
            journal: Command::Delete {
                instance: instance.to_owned(),
            },
        })
    }
}
