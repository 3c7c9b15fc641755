//! The ROUTE connection command and BRING-OUT, the two operations that
//! synthesize new route cells into the menu. A router failure rolls
//! the menu back to its pre-command state.

use super::Editor;
use crate::command::{Command, CommandEffect, Outcome};
use crate::connection::WorldConnector;
use crate::error::RiotError;
use crate::events::ChangeEvent;
use crate::instance::InstanceId;
use crate::routeplan;
use crate::CellId;
use riot_geom::{Orientation, Point, Rect, Side, Transform, LAMBDA};
use riot_route::Terminal;

impl Editor<'_> {
    /// The ROUTE command: river-routes the pending connections, adds
    /// the route cell to the menu, places an instance of it against the
    /// *to* instance(s), and (unless `move_from` is off) moves the
    /// *from* instance to abut the far side. Returns the new route
    /// cell's id and its instance id. Clears the pending list.
    ///
    /// # Errors
    ///
    /// Routing errors ([`RiotError::Route`]), ragged channel edges, and
    /// the pending-list errors.
    pub fn route(
        &mut self,
        options: super::RouteOptions,
    ) -> Result<(CellId, InstanceId), RiotError> {
        match self.execute(Command::Route {
            move_from: options.move_from,
            router: options.router,
        })? {
            Outcome::CellInstance(cell, inst) => Ok((cell, inst)),
            _ => unreachable!("route reports a cell and an instance"),
        }
    }

    pub(crate) fn apply_route(
        &mut self,
        move_from: bool,
        router_options: riot_route::RouterOptions,
    ) -> Result<CommandEffect, RiotError> {
        let (from, pairs) = self.resolve_pending()?;

        let plan = routeplan::plan_route(&pairs, move_from, router_options)?;
        self.warnings.extend(plan.warnings.iter().cloned());
        let route_transform = plan.transform;

        // Bystander bboxes become grid-router obstacles: everything
        // live except the from instance (it moves with the route) and
        // the to instances (they host the channel's bottom edge).
        let mut exclude: Vec<InstanceId> = vec![from];
        for p in &self.pending {
            if !exclude.contains(&p.to) {
                exclude.push(p.to);
            }
        }
        let bystanders: Vec<Rect> = self
            .comp()
            .instances()
            .filter(|(id, _)| !exclude.contains(id))
            .filter_map(|(id, _)| self.world_bbox_now(id))
            .collect();
        let obstacles = routeplan::channel_obstacles(plan.to_side, plan.edge, &bystanders);

        self.fault_trip(crate::fault::FAULT_ROUTE_SOLVE)?;
        let route = routeplan::solve_route(&plan.problem, &obstacles, || {
            self.fault_trip(crate::fault::FAULT_ROUTE_GRID_SOLVE)
        })?;

        let name = self.lib.next_route_name();
        let sticks = route.to_sticks_cell(name.clone());
        let route_cell = self.lib.add_sticks_cell(sticks)?;
        self.emit(ChangeEvent::CellAdded(route_cell));
        let route_inst = self.create_internal_instance(route_cell, format!("{name}i"))?;
        let old = self.world_bbox_now(route_inst);
        {
            let inst = self.instance_mut(route_inst)?;
            inst.transform = route_transform;
        }
        let new = self.world_bbox_now(route_inst);
        self.emit(ChangeEvent::InstanceChanged {
            id: route_inst,
            old,
            new,
        });

        if move_from {
            // Land the from connectors on the route's top pins.
            let (fc0, _) = &pairs[0];
            let tops = route.top_ends();
            let world_top =
                route_transform.apply(Point::new(tops[0].x * LAMBDA, tops[0].y * LAMBDA));
            let d = world_top - fc0.location;
            let pairs_for_verify: Vec<(WorldConnector, WorldConnector)> = pairs
                .iter()
                .enumerate()
                .map(|(i, (fc, _))| {
                    let t = tops[i];
                    let mut target = fc.clone();
                    target.location = route_transform.apply(Point::new(t.x * LAMBDA, t.y * LAMBDA));
                    (fc.clone(), target)
                })
                .collect();
            self.apply_translation_and_verify(from, d, &pairs_for_verify)?;
        }

        self.pending_mut().clear();
        self.emit(ChangeEvent::PendingChanged);
        Ok(CommandEffect {
            outcome: Outcome::CellInstance(route_cell, route_inst),
            journal: Command::Route {
                move_from,
                router: router_options,
            },
        })
    }

    /// Brings connectors out to the composition's bounding box: builds
    /// a straight-line route cell from the named connectors on
    /// `instance` (all on world side `side`) to the current bbox edge.
    /// Returns the new cell and instance ids.
    ///
    /// # Errors
    ///
    /// Lookup errors; [`RiotError::NotOpposed`] when a named connector
    /// is not on `side`; routing errors.
    pub fn bring_out(
        &mut self,
        instance: InstanceId,
        connectors: &[&str],
        side: Side,
    ) -> Result<(CellId, InstanceId), RiotError> {
        let name = self.instance(instance)?.name.clone();
        match self.execute(Command::BringOut {
            instance: name,
            connectors: connectors.iter().map(|s| (*s).to_owned()).collect(),
            side,
        })? {
            Outcome::CellInstance(cell, inst) => Ok((cell, inst)),
            _ => unreachable!("bring-out reports a cell and an instance"),
        }
    }

    pub(crate) fn apply_bring_out(
        &mut self,
        instance: &str,
        connectors: &[String],
        side: Side,
    ) -> Result<CommandEffect, RiotError> {
        let inst_id = self.require_instance(instance)?;
        let mut terms = Vec::new();
        let mut edge = None;
        for name in connectors {
            let wc = self.world_connector(inst_id, name)?;
            if wc.side != Some(side) {
                return Err(RiotError::NotOpposed {
                    from: wc.side,
                    to: Some(side),
                });
            }
            edge = Some(side.across(wc.location));
            let project = match side {
                Side::Top => wc.location.x,
                Side::Bottom => -wc.location.x,
                Side::Right => -wc.location.y,
                Side::Left => wc.location.y,
            };
            terms.push(Terminal::new(
                wc.name.clone(),
                self.snap_lambda(project)?,
                wc.layer,
                self.snap_lambda(wc.width)?.max(1),
            ));
        }
        let edge = edge.ok_or(RiotError::NothingPending)?;
        // Length: from the instance edge out to the composition bbox.
        let bbox = self.current_extent()?;
        let outer = bbox.edge(side);
        let gap = match side {
            Side::Top | Side::Right => outer - edge,
            Side::Bottom | Side::Left => edge - outer,
        };
        let length = self.snap_lambda(gap.max(LAMBDA))?.max(1);
        self.fault_trip(crate::fault::FAULT_ROUTE_SOLVE)?;
        let name = self.lib.next_route_name();
        let cell =
            riot_route::straight_route(&terms, length, name.clone()).map_err(RiotError::Route)?;
        let cell_id = self.lib.add_sticks_cell(cell)?;
        self.emit(ChangeEvent::CellAdded(cell_id));
        let new_inst = self.create_internal_instance(cell_id, format!("{name}i"))?;
        let old = self.world_bbox_now(new_inst);
        let orient = match side {
            Side::Top => Orientation::R0,
            Side::Bottom => Orientation::R180,
            Side::Right => Orientation::R270,
            Side::Left => Orientation::R90,
        };
        let place = match side {
            Side::Top | Side::Bottom => Point::new(0, edge),
            Side::Left | Side::Right => Point::new(edge, 0),
        };
        {
            let inst = self.instance_mut(new_inst)?;
            inst.transform = Transform::new(orient, place);
        }
        let new = self.world_bbox_now(new_inst);
        self.emit(ChangeEvent::InstanceChanged {
            id: new_inst,
            old,
            new,
        });
        Ok(CommandEffect {
            outcome: Outcome::CellInstance(cell_id, new_inst),
            journal: Command::BringOut {
                instance: instance.to_owned(),
                connectors: connectors.to_vec(),
                side,
            },
        })
    }
}
