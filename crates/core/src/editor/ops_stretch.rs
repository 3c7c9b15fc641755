//! The STRETCH connection command: re-solves the *from* instance's
//! Sticks cell through REST so its pins land on the *to* connectors'
//! separations, swaps the instance onto the new cell, and abuts.

use super::Editor;
use crate::command::{Command, CommandEffect, Outcome};
use crate::connection::WorldConnector;
use crate::error::RiotError;
use crate::CellId;
use riot_geom::{Point, LAMBDA};
use riot_rest::{Axis, SolveMode, StretchSpec};

impl Editor<'_> {
    /// The STRETCH command: derives pin targets for the *from*
    /// instance's Sticks cell from the *to* connector separations,
    /// re-solves the cell through REST, swaps the instance onto the new
    /// cell, and abuts. Returns the new cell's id. Clears the pending
    /// list.
    ///
    /// # Errors
    ///
    /// [`RiotError::NotStretchable`] for CIF-only cells (pads), stretch
    /// solver failures, and the pending-list errors.
    pub fn stretch(&mut self, options: super::StretchOptions) -> Result<CellId, RiotError> {
        match self.execute(Command::Stretch { mode: options.mode })? {
            Outcome::Cell(cell) => Ok(cell),
            _ => unreachable!("stretch reports a cell"),
        }
    }

    pub(crate) fn apply_stretch(&mut self, mode: SolveMode) -> Result<CommandEffect, RiotError> {
        let (from, pairs) = self.resolve_pending()?;
        let from_inst = self.instance(from)?.clone();
        let from_cell = self.lib.cell(from_inst.cell)?;
        let sticks = from_cell
            .sticks()
            .ok_or_else(|| RiotError::NotStretchable(from_cell.name.clone()))?
            .clone();
        let from_cell_name = from_cell.name.clone();

        // Stretch axis: along the connecting edge, in cell-local terms.
        let world_side = pairs[0].0.side.expect("connect() checked sides");
        let world_axis_is_y = world_side.is_vertical();
        let local_axis = {
            // Does the instance orientation swap axes?
            let swapped = from_inst.transform.orient.swaps_axes();
            match (world_axis_is_y, swapped) {
                (true, false) | (false, true) => Axis::Y,
                _ => Axis::X,
            }
        };
        // Sign: how a local step along local_axis moves the world
        // along-coordinate.
        let unit = match local_axis {
            Axis::X => Point::new(1, 0),
            Axis::Y => Point::new(0, 1),
        };
        let w = from_inst.transform.orient.apply(unit);
        let sign = if world_axis_is_y { w.y } else { w.x };
        debug_assert!(sign == 1 || sign == -1);

        // Targets: anchor the connection whose to-coordinate is
        // smallest in world terms; other pins keep the to-connectors'
        // separations.
        let along = |p: Point| if world_axis_is_y { p.y } else { p.x };
        let mut ordered: Vec<&(WorldConnector, WorldConnector)> = pairs.iter().collect();
        ordered.sort_by_key(|(_, tc)| along(tc.location));
        let anchor = ordered[0];
        let anchor_pin = sticks
            .pin(super::base_name(&anchor.0.name))
            .ok_or_else(|| RiotError::UnknownConnector {
                instance: from_inst.name.clone(),
                connector: anchor.0.name.clone(),
            })?;
        let anchor_local = match local_axis {
            Axis::X => anchor_pin.position.x,
            Axis::Y => anchor_pin.position.y,
        };
        let anchor_world = along(anchor.1.location);

        let mut spec = StretchSpec::new(local_axis);
        for (fc, tc) in &pairs {
            let delta_world = along(tc.location) - anchor_world;
            if delta_world % LAMBDA != 0 {
                self.warnings.push(format!(
                    "stretch target for {} off the lambda grid by {}; rounding",
                    fc.name,
                    delta_world % LAMBDA
                ));
            }
            let target = anchor_local + sign * (delta_world / LAMBDA);
            spec.push_target(super::base_name(&fc.name), target);
        }

        self.fault_trip(crate::fault::FAULT_STRETCH_SOLVE)?;
        let mut stretched = riot_rest::stretch_with_mode(&sticks, &spec, mode)?;
        let mut new_name = format!("{}'", from_cell_name);
        while self.lib.find(&new_name).is_some() {
            new_name.push('\'');
        }
        stretched.set_name(new_name);
        let new_cell = self.lib.add_sticks_cell(stretched)?;
        self.emit(crate::events::ChangeEvent::CellAdded(new_cell));

        // Swap the instance onto the new cell ("Riot then removes the
        // old instance and inserts an instance of the new cell").
        // The old box must be computed before the swap — it depends on
        // the old defining cell.
        let old = self.world_bbox_now(from);
        let new_bbox = self.lib.cell(new_cell)?.bbox;
        {
            let inst = self.instance_mut(from)?;
            inst.cell = new_cell;
            if !inst.is_array() {
                inst.col_spacing = new_bbox.width();
                inst.row_spacing = new_bbox.height();
            }
        }
        let new = self.world_bbox_now(from);
        self.emit(crate::events::ChangeEvent::InstanceChanged { id: from, old, new });

        // Finish with an abutment on the (recomputed) connectors.
        let new_pairs: Vec<(WorldConnector, WorldConnector)> = self
            .pending
            .clone()
            .iter()
            .map(|p| {
                let fc = self.world_connector(p.from, &p.from_connector)?;
                let tc = self.world_connector(p.to, &p.to_connector)?;
                Ok((fc, tc))
            })
            .collect::<Result<_, RiotError>>()?;
        let d = new_pairs[0].1.location - new_pairs[0].0.location;
        self.apply_translation_and_verify(from, d, &new_pairs)?;

        self.pending_mut().clear();
        self.emit(crate::events::ChangeEvent::PendingChanged);
        Ok(CommandEffect {
            outcome: Outcome::Cell(new_cell),
            journal: Command::Stretch { mode },
        })
    }
}
