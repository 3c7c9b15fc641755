//! Event-invalidated caches of derived geometry.
//!
//! World bounding boxes, world connector lists, and the composition
//! extent are pure functions of an instance and its defining cell, but
//! recomputing them per call is expensive — connector lists in
//! particular walk every array element and format suffixed names. The
//! cache stores them per instance slot behind interior mutability so
//! the `&self` accessors on [`super::Editor`] stay `&self`, and the
//! change-event bus invalidates exactly the slots an event touches.

use crate::connection::WorldConnector;
use crate::events::{ChangeEvent, Damage};
use crate::instance::InstanceId;
use riot_geom::Rect;
use std::cell::{Cell as Counter, RefCell};
use std::sync::Arc;

/// Cap on distinct rects a [`DamageJournal`] retains before it starts
/// union-merging new damage into the last slot. Keeps the journal (and
/// every consumer walking it) O(1) per transaction regardless of how
/// many mutations a compound command performs.
const MAX_DAMAGE_RECTS: usize = 64;

/// Accumulates the world-space dirty regions implied by the change
/// events of one or more transactions, until a consumer acknowledges
/// them with [`DamageJournal::take`].
///
/// This replaces boolean staleness: instead of "something changed,
/// recompute the chip", downstream consumers (incremental DRC, the
/// flatten cache, dirty-band render) receive the actual changed
/// regions and recompute O(damage). Events whose geometry is unknown
/// degrade to `full` — correctness never depends on a rect being
/// available.
#[derive(Debug, Default)]
pub(crate) struct DamageJournal {
    rects: Vec<Rect>,
    full: bool,
    /// Rects recorded since the journal was created (not reset by
    /// `take`) — mirrored into `Stats::damage_rects`.
    recorded: u64,
}

impl DamageJournal {
    /// Folds one event's damage into the journal.
    pub(crate) fn record(&mut self, event: &ChangeEvent) {
        if event.invalidates_everything() {
            self.full = true;
            return;
        }
        let Some(rect) = event.dirty_rect() else {
            return;
        };
        self.recorded += 1;
        if self.full {
            return; // already maximal; individual rects add nothing
        }
        if self.rects.len() < MAX_DAMAGE_RECTS {
            self.rects.push(rect);
        } else {
            let last = self.rects.last_mut().expect("cap > 0");
            *last = last.union(rect);
        }
    }

    /// Hands the accumulated damage to a consumer and resets.
    pub(crate) fn take(&mut self) -> Damage {
        let full = std::mem::take(&mut self.full);
        let mut rects = std::mem::take(&mut self.rects);
        if full {
            rects.clear();
        }
        Damage { full, rects }
    }

    /// Total dirty rects recorded over the journal's lifetime.
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Whether nothing has been recorded since the last `take`.
    pub(crate) fn is_clean(&self) -> bool {
        !self.full && self.rects.is_empty()
    }
}

/// Per-slot caches of derived geometry, plus hit/miss counters.
#[derive(Debug, Default)]
pub(crate) struct DerivedCache {
    /// World bounding box per instance slot.
    bbox: RefCell<Vec<Option<Rect>>>,
    /// World connector list per instance slot, shared so repeated
    /// lookups cost one `Arc` clone.
    connectors: RefCell<Vec<Option<Arc<Vec<WorldConnector>>>>>,
    /// Union of the live instances' world boxes.
    extent: RefCell<Option<Rect>>,
    hits: Counter<u64>,
    misses: Counter<u64>,
}

impl DerivedCache {
    fn tally(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.set(counter.get() + 1);
    }

    /// Cached world bbox for a slot, if still valid.
    pub(crate) fn bbox(&self, id: InstanceId) -> Option<Rect> {
        let got = self.bbox.borrow().get(id.index()).copied().flatten();
        self.tally(got.is_some());
        got
    }

    /// Stores a freshly computed world bbox.
    pub(crate) fn store_bbox(&self, id: InstanceId, rect: Rect) {
        let mut v = self.bbox.borrow_mut();
        if v.len() <= id.index() {
            v.resize(id.index() + 1, None);
        }
        v[id.index()] = Some(rect);
    }

    /// Cached world connector list for a slot, if still valid.
    pub(crate) fn connectors(&self, id: InstanceId) -> Option<Arc<Vec<WorldConnector>>> {
        let got = self
            .connectors
            .borrow()
            .get(id.index())
            .and_then(|s| s.as_ref().map(Arc::clone));
        self.tally(got.is_some());
        got
    }

    /// Stores a freshly computed world connector list.
    pub(crate) fn store_connectors(&self, id: InstanceId, list: Arc<Vec<WorldConnector>>) {
        let mut v = self.connectors.borrow_mut();
        if v.len() <= id.index() {
            v.resize(id.index() + 1, None);
        }
        v[id.index()] = Some(list);
    }

    /// Cached composition extent, if still valid.
    pub(crate) fn extent(&self) -> Option<Rect> {
        let got = *self.extent.borrow();
        self.tally(got.is_some());
        got
    }

    /// Stores a freshly computed composition extent.
    pub(crate) fn store_extent(&self, rect: Rect) {
        *self.extent.borrow_mut() = Some(rect);
    }

    /// Applies the invalidation an event demands.
    pub(crate) fn invalidate(&self, event: &ChangeEvent) {
        match event {
            ChangeEvent::InstanceCreated { id, .. }
            | ChangeEvent::InstanceChanged { id, .. }
            | ChangeEvent::InstanceDeleted { id, .. } => {
                self.clear_slot(*id);
                *self.extent.borrow_mut() = None;
            }
            ChangeEvent::PendingChanged | ChangeEvent::CellAdded(_) => {}
            // Finishing rewrites the edit cell's bbox and connectors;
            // an instance of the edit cell inside itself (legal, if
            // odd) would otherwise go stale — clear everything.
            ChangeEvent::CellFinished | ChangeEvent::BulkRestore => self.clear(),
        }
    }

    fn clear_slot(&self, id: InstanceId) {
        if let Some(slot) = self.bbox.borrow_mut().get_mut(id.index()) {
            *slot = None;
        }
        if let Some(slot) = self.connectors.borrow_mut().get_mut(id.index()) {
            *slot = None;
        }
    }

    /// Drops every cached value.
    pub(crate) fn clear(&self) {
        self.bbox.borrow_mut().clear();
        self.connectors.borrow_mut().clear();
        *self.extent.borrow_mut() = None;
    }

    /// Cumulative cache hits.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Cumulative cache misses.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_invalidation_is_targeted() {
        let c = DerivedCache::default();
        c.store_bbox(InstanceId(0), Rect::new(0, 0, 1, 1));
        c.store_bbox(InstanceId(1), Rect::new(0, 0, 2, 2));
        c.store_extent(Rect::new(0, 0, 2, 2));
        c.invalidate(&ChangeEvent::InstanceChanged {
            id: InstanceId(0),
            old: Some(Rect::new(0, 0, 1, 1)),
            new: Some(Rect::new(0, 0, 1, 1)),
        });
        assert_eq!(c.bbox(InstanceId(0)), None);
        assert_eq!(c.bbox(InstanceId(1)), Some(Rect::new(0, 0, 2, 2)));
        assert_eq!(c.extent(), None);
    }

    #[test]
    fn bulk_restore_clears_all() {
        let c = DerivedCache::default();
        c.store_bbox(InstanceId(3), Rect::new(0, 0, 1, 1));
        c.invalidate(&ChangeEvent::BulkRestore);
        assert_eq!(c.bbox(InstanceId(3)), None);
    }

    #[test]
    fn counters_track_lookups() {
        let c = DerivedCache::default();
        assert_eq!(c.bbox(InstanceId(0)), None); // miss
        c.store_bbox(InstanceId(0), Rect::new(0, 0, 1, 1));
        assert!(c.bbox(InstanceId(0)).is_some()); // hit
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn journal_accumulates_and_takes() {
        let mut j = DamageJournal::default();
        assert!(j.is_clean());
        j.record(&ChangeEvent::InstanceCreated {
            id: InstanceId(0),
            at: Some(Rect::new(0, 0, 5, 5)),
        });
        j.record(&ChangeEvent::InstanceChanged {
            id: InstanceId(0),
            old: Some(Rect::new(0, 0, 5, 5)),
            new: Some(Rect::new(10, 0, 15, 5)),
        });
        assert_eq!(j.recorded(), 2);
        let d = j.take();
        assert!(!d.full);
        assert_eq!(d.rects, vec![Rect::new(0, 0, 5, 5), Rect::new(0, 0, 15, 5)]);
        assert!(j.take().is_clean());
    }

    #[test]
    fn journal_degrades_to_full() {
        let mut j = DamageJournal::default();
        j.record(&ChangeEvent::InstanceDeleted {
            id: InstanceId(0),
            old: None, // unknown geometry: must not silently drop damage
        });
        let d = j.take();
        assert!(d.full);
        assert!(d.rects.is_empty());
    }

    #[test]
    fn journal_overflow_merges_into_last_slot() {
        let mut j = DamageJournal::default();
        for i in 0..(MAX_DAMAGE_RECTS as i64 + 10) {
            j.record(&ChangeEvent::InstanceCreated {
                id: InstanceId(0),
                at: Some(Rect::new(i, 0, i + 1, 1)),
            });
        }
        let d = j.take();
        assert_eq!(d.rects.len(), MAX_DAMAGE_RECTS);
        // The overflow rects were unioned into the final slot.
        let bound = d.bounding_rect().unwrap();
        assert_eq!(bound, Rect::new(0, 0, MAX_DAMAGE_RECTS as i64 + 10, 1));
    }
}
