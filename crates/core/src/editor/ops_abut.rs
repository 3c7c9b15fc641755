//! The ABUT connection command and connector-less edge abutment.

use super::{AbutOptions, Editor};
use crate::command::{Command, CommandEffect, Outcome};
use crate::connection::WorldConnector;
use crate::error::RiotError;
use crate::events::ChangeEvent;
use crate::instance::InstanceId;
use riot_geom::{Point, Side};

impl Editor<'_> {
    /// The ABUT command over the pending connection list: translates
    /// the *from* instance so the first connection's connectors
    /// coincide, then verifies the rest ("if the connections cannot be
    /// made by the abutment, a warning message is produced"). Clears
    /// the pending list.
    ///
    /// # Errors
    ///
    /// [`RiotError::NothingPending`] and lookup errors.
    pub fn abut(&mut self, options: AbutOptions) -> Result<(), RiotError> {
        self.execute(Command::Abut {
            overlap: options.overlap,
        })?;
        Ok(())
    }

    pub(crate) fn apply_abut(&mut self, overlap: bool) -> Result<CommandEffect, RiotError> {
        let (from, pairs) = self.resolve_pending()?;
        let d = pairs[0].1.location - pairs[0].0.location;
        let to_ids: Vec<InstanceId> = self.pending.iter().map(|p| p.to).collect();
        self.apply_translation_and_verify(from, d, &pairs)?;
        if !overlap {
            let fb = self.instance_bbox(from)?;
            for to in to_ids {
                let tb = self.instance_bbox(to)?;
                if fb.overlaps(tb) {
                    self.warnings.push(format!(
                        "abutment overlaps instance `{}` (use the overlap option to share connectors)",
                        self.instance(to)?.name
                    ));
                }
            }
        }
        self.pending_mut().clear();
        self.emit(ChangeEvent::PendingChanged);
        Ok(CommandEffect {
            outcome: Outcome::None,
            journal: Command::Abut { overlap },
        })
    }

    /// Abutment without connectors ("used primarily if there are no
    /// connectors to guide the connection"): matches the bottom or left
    /// edge depending on the instances' relative positions.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`].
    pub fn abut_instances(&mut self, from: InstanceId, to: InstanceId) -> Result<(), RiotError> {
        let from_name = self.instance(from)?.name.clone();
        let to_name = self.instance(to)?.name.clone();
        self.execute(Command::AbutInstances {
            from: from_name,
            to: to_name,
        })?;
        Ok(())
    }

    pub(crate) fn apply_abut_instances(
        &mut self,
        from: &str,
        to: &str,
    ) -> Result<CommandEffect, RiotError> {
        let from_id = self.require_instance(from)?;
        let to_id = self.require_instance(to)?;
        let fb = self.instance_bbox(from_id)?;
        let tb = self.instance_bbox(to_id)?;
        let facing = self
            .facing_sides(from_id, to_id)?
            .unwrap_or((Side::Left, Side::Right));
        let d = match facing.0 {
            // from sits to the right: its left edge meets to's right
            // edge, bottoms align.
            Side::Left => Point::new(tb.x1 - fb.x0, tb.y0 - fb.y0),
            Side::Right => Point::new(tb.x0 - fb.x1, tb.y0 - fb.y0),
            Side::Bottom => Point::new(tb.x0 - fb.x0, tb.y1 - fb.y0),
            Side::Top => Point::new(tb.x0 - fb.x0, tb.y0 - fb.y1),
        };
        let old = self.world_bbox_now(from_id);
        {
            let inst = self.instance_mut(from_id)?;
            inst.transform = inst.transform.translated(d);
        }
        let new = self.world_bbox_now(from_id);
        self.emit(ChangeEvent::InstanceChanged {
            id: from_id,
            old,
            new,
        });
        Ok(CommandEffect {
            outcome: Outcome::None,
            journal: Command::AbutInstances {
                from: from.to_owned(),
                to: to.to_owned(),
            },
        })
    }

    /// Translates `from` by `d` and warns about any pending pair the
    /// translation fails to satisfy.
    pub(crate) fn apply_translation_and_verify(
        &mut self,
        from: InstanceId,
        d: Point,
        pairs: &[(WorldConnector, WorldConnector)],
    ) -> Result<(), RiotError> {
        let old = self.world_bbox_now(from);
        {
            let inst = self.instance_mut(from)?;
            inst.transform = inst.transform.translated(d);
        }
        let new = self.world_bbox_now(from);
        self.emit(ChangeEvent::InstanceChanged { id: from, old, new });
        for (fc, tc) in pairs {
            if fc.location + d != tc.location {
                self.warnings.push(format!(
                    "connection {}.{} -> {}.{} cannot be made by this abutment (off by {})",
                    fc.instance_name,
                    fc.name,
                    tc.instance_name,
                    tc.name,
                    tc.location - (fc.location + d)
                ));
            }
        }
        Ok(())
    }
}
