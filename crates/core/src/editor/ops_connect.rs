//! Pending-connection commands: CONNECT, the bus connection, and the
//! pending-list edits (remove one, clear). Also the shared
//! `resolve_pending` / `facing_sides` helpers the connection primitives
//! build on.

use super::Editor;
use crate::command::{Command, CommandEffect, Outcome};
use crate::connection::{PendingConnection, WorldConnector};
use crate::error::RiotError;
use crate::events::ChangeEvent;
use crate::instance::InstanceId;
use riot_geom::{Point, Side};

impl Editor<'_> {
    /// Adds a pending connection from one instance's connector to
    /// another's. "Connections are remembered and shown on the screen
    /// constantly" — this only extends the list; ABUT/ROUTE/STRETCH
    /// consume it.
    ///
    /// # Errors
    ///
    /// [`RiotError::SelfConnection`],
    /// [`RiotError::MultipleFromInstances`],
    /// [`RiotError::FromInToList`], [`RiotError::LayerMismatch`],
    /// [`RiotError::NotOpposed`], and lookup errors.
    pub fn connect(
        &mut self,
        from: InstanceId,
        from_connector: &str,
        to: InstanceId,
        to_connector: &str,
    ) -> Result<(), RiotError> {
        let from_name = self.instance(from)?.name.clone();
        let to_name = self.instance(to)?.name.clone();
        self.execute(Command::Connect {
            from: from_name,
            from_connector: from_connector.to_owned(),
            to: to_name,
            to_connector: to_connector.to_owned(),
        })?;
        Ok(())
    }

    pub(crate) fn apply_connect(
        &mut self,
        from: &str,
        from_connector: &str,
        to: &str,
        to_connector: &str,
    ) -> Result<CommandEffect, RiotError> {
        let from_id = self.require_instance(from)?;
        let to_id = self.require_instance(to)?;
        if from_id == to_id {
            return Err(RiotError::SelfConnection(from.to_owned()));
        }
        if let Some(first) = self.pending.first() {
            if first.from != from_id {
                return Err(RiotError::MultipleFromInstances(
                    self.instance(first.from)?.name.clone(),
                    from.to_owned(),
                ));
            }
            if self.pending.iter().any(|p| p.to == from_id) {
                return Err(RiotError::FromInToList(from.to_owned()));
            }
        }
        let fc = self.world_connector(from_id, from_connector)?;
        let tc = self.world_connector(to_id, to_connector)?;
        if fc.layer != tc.layer {
            return Err(RiotError::LayerMismatch {
                from: fc.layer,
                to: tc.layer,
            });
        }
        match (fc.side, tc.side) {
            (Some(a), Some(b)) if a.opposes(b) => {}
            (a, b) => return Err(RiotError::NotOpposed { from: a, to: b }),
        }
        self.pending.push(PendingConnection {
            from: from_id,
            from_connector: from_connector.to_owned(),
            to: to_id,
            to_connector: to_connector.to_owned(),
        });
        self.emit(ChangeEvent::PendingChanged);
        Ok(CommandEffect {
            outcome: Outcome::None,
            journal: Command::Connect {
                from: from.to_owned(),
                from_connector: from_connector.to_owned(),
                to: to.to_owned(),
                to_connector: to_connector.to_owned(),
            },
        })
    }

    /// Removes one pending connection by its list position. Out-of-range
    /// positions are ignored (the screen list may have raced an edit).
    pub fn remove_pending(&mut self, index: usize) {
        if index < self.pending.len() {
            let _ = self.execute(Command::RemovePending { index });
        }
    }

    pub(crate) fn apply_remove_pending(
        &mut self,
        index: usize,
    ) -> Result<CommandEffect, RiotError> {
        if index >= self.pending.len() {
            return Err(RiotError::NothingPending);
        }
        self.pending_mut().remove(index);
        self.emit(ChangeEvent::PendingChanged);
        Ok(CommandEffect {
            outcome: Outcome::None,
            journal: Command::RemovePending { index },
        })
    }

    /// Clears the pending connection list.
    pub fn clear_pending(&mut self) {
        if !self.pending.is_empty() {
            let _ = self.execute(Command::ClearPending);
        }
    }

    pub(crate) fn apply_clear_pending(&mut self) -> Result<CommandEffect, RiotError> {
        self.pending_mut().clear();
        self.emit(ChangeEvent::PendingChanged);
        Ok(CommandEffect {
            outcome: Outcome::None,
            journal: Command::ClearPending,
        })
    }

    /// The bus connection: connects every matching connector pair from
    /// one instance to another. Pairs are matched by name on same-layer
    /// opposed sides; connectors on the facing sides that match by
    /// position order (per layer) are paired when names do not match.
    /// Returns how many connections were added; unmatched facing
    /// connectors produce warnings.
    ///
    /// # Errors
    ///
    /// Lookup errors and the same invariant violations as
    /// [`Editor::connect`].
    pub fn connect_bus(&mut self, from: InstanceId, to: InstanceId) -> Result<usize, RiotError> {
        let fcs = self.world_connectors_arc(from)?;
        let tcs = self.world_connectors_arc(to)?;
        let mut added = 0usize;
        let mut used_to: Vec<bool> = vec![false; tcs.len()];
        let mut unmatched_from: Vec<&WorldConnector> = Vec::new();

        for fc in fcs.iter() {
            let hit = tcs.iter().enumerate().find(|(j, tc)| {
                !used_to[*j]
                    && tc.name == fc.name
                    && tc.layer == fc.layer
                    && matches!((fc.side, tc.side), (Some(a), Some(b)) if a.opposes(b))
            });
            match hit {
                Some((j, tc)) => {
                    used_to[j] = true;
                    let (f, t) = (fc.name.clone(), tc.name.clone());
                    self.connect(from, &f, to, &t)?;
                    added += 1;
                }
                None => unmatched_from.push(fc),
            }
        }

        // Positional fallback: pair remaining facing connectors per
        // layer in order along the shared edge.
        let facing = self.facing_sides(from, to)?;
        if let Some((from_side, to_side)) = facing {
            for layer in riot_geom::Layer::ROUTABLE {
                let mut fs: Vec<&WorldConnector> = unmatched_from
                    .iter()
                    .copied()
                    .filter(|c| c.layer == layer && c.side == Some(from_side))
                    .collect();
                let ts: Vec<(usize, &WorldConnector)> = {
                    let mut ts: Vec<(usize, &WorldConnector)> = tcs
                        .iter()
                        .enumerate()
                        .filter(|(j, c)| {
                            !used_to[*j] && c.layer == layer && c.side == Some(to_side)
                        })
                        .collect();
                    ts.sort_by_key(|(_, c)| to_side.along(c.location));
                    ts
                };
                fs.sort_by_key(|c| from_side.along(c.location));
                for (fc, (j, tc)) in fs.iter().zip(&ts) {
                    used_to[*j] = true;
                    let (f, t) = (fc.name.clone(), tc.name.clone());
                    self.connect(from, &f, to, &t)?;
                    added += 1;
                }
                if fs.len() != ts.len() {
                    self.warnings.push(format!(
                        "bus connection: {} unpaired {layer} connectors",
                        fs.len().abs_diff(ts.len())
                    ));
                }
            }
        }
        if added == 0 {
            self.warnings
                .push("bus connection matched no connector pairs".to_owned());
        }
        Ok(added)
    }

    /// The facing side pair between two instances, judged from their
    /// bounding-box centers: `(side of from, side of to)`.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`].
    pub fn facing_sides(
        &self,
        from: InstanceId,
        to: InstanceId,
    ) -> Result<Option<(Side, Side)>, RiotError> {
        let fb = self.instance_bbox(from)?;
        let tb = self.instance_bbox(to)?;
        let d = fb.center() - tb.center();
        if d == Point::ORIGIN {
            return Ok(None);
        }
        Ok(Some(if d.x.abs() >= d.y.abs() {
            if d.x > 0 {
                (Side::Left, Side::Right) // from is to the right of to
            } else {
                (Side::Right, Side::Left)
            }
        } else if d.y > 0 {
            (Side::Bottom, Side::Top)
        } else {
            (Side::Top, Side::Bottom)
        }))
    }

    /// Resolves the pending list into (from instance, pairs of world
    /// connectors), without consuming it.
    pub(crate) fn resolve_pending(
        &self,
    ) -> Result<(InstanceId, Vec<(WorldConnector, WorldConnector)>), RiotError> {
        let first = self.pending.first().ok_or(RiotError::NothingPending)?;
        let from = first.from;
        let mut pairs = Vec::new();
        for p in &self.pending {
            let fc = self.world_connector(p.from, &p.from_connector)?;
            let tc = self.world_connector(p.to, &p.to_connector)?;
            pairs.push((fc, tc));
        }
        Ok((from, pairs))
    }
}
