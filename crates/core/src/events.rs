//! The change-event bus: every mutation the command engine performs is
//! announced as a `ChangeEvent`.
//!
//! Events stay inside the editor. They drive incremental invalidation
//! of the derived-geometry caches (world bounding boxes, world
//! connector lists, the composition extent) so those expensive values
//! are recomputed only when something they depend on changed, and they
//! feed the damage that [`crate::Editor::take_damage`] hands to
//! consumers outside, which then recompute only what moved.
//!
//! Instance events carry the **world-space damage** they imply: the
//! old and/or new world bounding box of the instance they touch. The
//! union of those rects over a transaction is the region a consumer
//! must recompute — the contract the [`super::editor`] `DamageJournal`
//! and the incremental DRC/flatten/render paths build on. A rect of
//! `None` means the box could not be determined (degenerate cells);
//! consumers must then fall back to a full recompute, which
//! `ChangeEvent::BulkRestore` also demands.
//!
//! [`Stats`] aggregates engine counters (commands applied, undos,
//! rollbacks, cache hit rates, damage-rect tallies) for
//! instrumentation and benchmarks.

use crate::cell::CellId;
use crate::instance::InstanceId;
use riot_geom::Rect;

/// One observable change to the editing session's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChangeEvent {
    /// A new instance slot was appended to the composition.
    InstanceCreated {
        /// The new slot.
        id: InstanceId,
        /// World bbox of the created instance.
        at: Option<Rect>,
    },
    /// An instance's placement, replication, or defining cell changed.
    InstanceChanged {
        /// The mutated slot.
        id: InstanceId,
        /// World bbox before the mutation.
        old: Option<Rect>,
        /// World bbox after the mutation.
        new: Option<Rect>,
    },
    /// An instance was deleted (its slot tombstoned).
    InstanceDeleted {
        /// The tombstoned slot.
        id: InstanceId,
        /// World bbox the instance occupied.
        old: Option<Rect>,
    },
    /// The pending connection list changed.
    PendingChanged,
    /// A new cell entered the menu (route cells, stretched cells).
    CellAdded(CellId),
    /// The cell under edit was finished: bbox set, connectors promoted.
    CellFinished,
    /// A transaction rollback or undo restored earlier state wholesale;
    /// all derived values must be considered stale.
    BulkRestore,
}

impl ChangeEvent {
    /// The world-space region this event dirties: the union of the
    /// old and new boxes it carries. `None` for events that carry no
    /// geometry (pending-list or menu changes) — but note that
    /// [`ChangeEvent::invalidates_everything`] events also return
    /// `None` here and must be checked first.
    pub(crate) fn dirty_rect(&self) -> Option<Rect> {
        match self {
            ChangeEvent::InstanceCreated { at: r, .. }
            | ChangeEvent::InstanceDeleted { old: r, .. } => *r,
            ChangeEvent::InstanceChanged { old, new, .. } => match (old, new) {
                (Some(a), Some(b)) => Some(a.union(*b)),
                (Some(r), None) | (None, Some(r)) => Some(*r),
                (None, None) => None,
            },
            _ => None,
        }
    }

    /// Whether this event invalidates all derived state at once —
    /// either by design ([`ChangeEvent::CellFinished`],
    /// [`ChangeEvent::BulkRestore`]) or because an instance event
    /// could not determine the world box it dirtied.
    pub(crate) fn invalidates_everything(&self) -> bool {
        match self {
            ChangeEvent::CellFinished | ChangeEvent::BulkRestore => true,
            ChangeEvent::InstanceCreated { at, .. } => at.is_none(),
            ChangeEvent::InstanceDeleted { old, .. } => old.is_none(),
            ChangeEvent::InstanceChanged { old, new, .. } => old.is_none() || new.is_none(),
            ChangeEvent::PendingChanged | ChangeEvent::CellAdded(_) => false,
        }
    }
}

/// Accumulated world-space damage over a span of editing, obtained
/// from [`crate::Editor::take_damage`].
///
/// Invariant: the acknowledged damage covers every world coordinate
/// that changed since the previous acknowledgement — either `full` is
/// set (recompute everything) or every changed coordinate lies inside
/// one of `rects`. Consumers may recompute more than the damage, never
/// less.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Damage {
    /// All derived state is stale; `rects` is irrelevant.
    pub full: bool,
    /// Dirty world-space regions, possibly overlapping, in emission
    /// order (overflow beyond the journal cap is union-merged).
    pub rects: Vec<Rect>,
}

impl Damage {
    /// No damage at all: nothing changed since the last acknowledge.
    pub fn is_clean(&self) -> bool {
        !self.full && self.rects.is_empty()
    }

    /// The union of all dirty rects, or `None` when clean or full.
    pub fn bounding_rect(&self) -> Option<Rect> {
        if self.full {
            return None;
        }
        self.rects.iter().copied().reduce(|a, b| a.union(b))
    }
}

/// Engine counters: how many commands ran, how the caches behaved.
///
/// Obtained from [`crate::Editor::stats`]. All counters are cumulative
/// over the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Commands applied successfully (excluding undo/redo).
    pub applied: u64,
    /// Undo operations performed.
    pub undos: u64,
    /// Redo operations performed.
    pub redos: u64,
    /// Commands reverted after a failure.
    pub rollbacks: u64,
    /// Change events emitted.
    pub events: u64,
    /// Derived-cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Derived-cache lookups that had to recompute.
    pub cache_misses: u64,
    /// Nanoseconds spent inside command application.
    pub apply_nanos: u64,
    /// Dirty rects acknowledged through [`crate::Editor::take_damage`].
    pub damage_rects: u64,
}

impl Stats {
    /// Cache hit rate in `[0, 1]`, or `None` before any lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty() {
        assert_eq!(Stats::default().cache_hit_rate(), None);
        let s = Stats {
            cache_hits: 3,
            cache_misses: 1,
            ..Stats::default()
        };
        assert_eq!(s.cache_hit_rate(), Some(0.75));
    }

    #[test]
    fn dirty_rect_unions_old_and_new() {
        let ev = ChangeEvent::InstanceChanged {
            id: InstanceId(0),
            old: Some(Rect::new(0, 0, 10, 10)),
            new: Some(Rect::new(20, 20, 30, 30)),
        };
        assert_eq!(ev.dirty_rect(), Some(Rect::new(0, 0, 30, 30)));
        assert!(!ev.invalidates_everything());
    }

    #[test]
    fn unknown_boxes_force_full_invalidation() {
        let ev = ChangeEvent::InstanceChanged {
            id: InstanceId(0),
            old: None,
            new: Some(Rect::new(0, 0, 1, 1)),
        };
        assert!(ev.invalidates_everything());
        assert!(ChangeEvent::BulkRestore.invalidates_everything());
        assert!(!ChangeEvent::PendingChanged.invalidates_everything());
    }
}
