//! The graphical editing session, rebuilt on the transactional command
//! engine.
//!
//! The public methods ([`Editor::create_instance`],
//! [`Editor::translate_instance`], [`Editor::abut`], …) keep the
//! signatures the session always had, but their bodies now construct a
//! [`Command`] and hand it to [`Editor::execute`], which:
//!
//! 1. opens an undo record ([`crate::history`]) that the command's
//!    edits fill in with the state they replace;
//! 2. applies the command (the bodies live in the `ops_*` submodules),
//!    reverting the record if it fails, so a failed abut/route/stretch
//!    leaves the library untouched;
//! 3. journals the applied command for REPLAY;
//! 4. pushes the record onto the undo stack;
//! 5. announces what changed on the event bus ([`crate::events`]),
//!    which incrementally invalidates the derived-geometry caches and
//!    records the world-space damage [`Editor::take_damage`] hands out.
//!
//! The same `execute` entry point serves interactive editing, journal
//! replay, and redo — there is exactly one dispatch over commands in
//! the whole crate.

mod cache;
mod ops_abut;
mod ops_connect;
mod ops_instance;
mod ops_route;
mod ops_stretch;

use crate::cell::{Cell, CellId, Composition};
use crate::command::{Command, CommandEffect, Outcome};
use crate::connection::{PendingConnection, WorldConnector};
use crate::error::RiotError;
use crate::events::{ChangeEvent, Damage, Stats};
use crate::fault::{FaultPlan, FAULT_TXN_COMMIT};
use crate::history::{Applied, History, UndoRecord};
use crate::instance::{Instance, InstanceId};
use crate::library::Library;
use crate::replay::Journal;
use cache::{DamageJournal, DerivedCache};
use riot_geom::{Rect, LAMBDA};
use riot_rest::SolveMode;
use riot_route::RouterOptions;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Options for [`Editor::abut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbutOptions {
    /// Allow the instances' bounding boxes to overlap — "frequently
    /// used to share power or ground lines in adjacent instances".
    /// Without it an overlap produces a warning.
    pub overlap: bool,
}

/// Options for [`Editor::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteOptions {
    /// Move the *from* instance to abut the far side of the route cell
    /// (the default, "using the least amount of space possible").
    /// `false` routes between two instances "which are already
    /// positioned and should not move".
    pub move_from: bool,
    /// River-router tuning.
    pub router: RouterOptions,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            move_from: true,
            router: RouterOptions::new(),
        }
    }
}

/// Options for [`Editor::stretch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StretchOptions {
    /// How the REST solve treats existing separations. The default
    /// preserves them (the cell only grows); [`SolveMode::DesignRules`]
    /// lets the optimizer also pull elements closer.
    pub mode: SolveMode,
}

impl Default for StretchOptions {
    fn default() -> Self {
        StretchOptions {
            mode: SolveMode::PreserveGaps,
        }
    }
}

/// An editing session on one composition cell.
///
/// Owns the pending connection list ("shown on the screen constantly"),
/// the warning stream, the REPLAY journal, the undo/redo history, and
/// the derived-geometry caches. The library it edits is either borrowed
/// from the caller ([`Editor::open`]) or owned by the session itself
/// ([`Editor::open_owned`], [`crate::decode_session`]): a long-lived
/// host such as `riot-serve` keeps one owning editor per session, so
/// its caches and damage stay warm from one command to the next.
#[derive(Debug)]
pub struct Editor<'a> {
    /// Crate-visible, like the session state that follows, so that
    /// `crate::persist` can encode a session and decode it again.
    pub(crate) lib: Menu<'a>,
    pub(crate) cell: CellId,
    pub(crate) pending: Vec<PendingConnection>,
    pub(crate) warnings: Vec<String>,
    pub(crate) journal: Journal,
    pub(crate) instance_counter: usize,
    pub(crate) history: History,
    cache: DerivedCache,
    damage: DamageJournal,
    /// Engine counters, without the live cache's tallies (see
    /// [`Editor::stats`]).
    pub(crate) stats: Stats,
    pub(crate) fault: Option<FaultPlan>,
    /// The undo record of the command being applied; `None` between
    /// commands.
    txn: Option<UndoRecord>,
}

/// The library an [`Editor`] edits: the caller's, or its own.
#[derive(Debug)]
pub(crate) enum Menu<'a> {
    Borrowed(&'a mut Library),
    Owned(Library),
}

impl Deref for Menu<'_> {
    type Target = Library;

    fn deref(&self) -> &Library {
        match self {
            Menu::Borrowed(lib) => lib,
            Menu::Owned(lib) => lib,
        }
    }
}

impl DerefMut for Menu<'_> {
    fn deref_mut(&mut self) -> &mut Library {
        match self {
            Menu::Borrowed(lib) => lib,
            Menu::Owned(lib) => lib,
        }
    }
}

impl Editor<'static> {
    /// [`Editor::open`] on a library the session owns, for a host that
    /// keeps the session between commands. Dropping the editor drops
    /// the library.
    ///
    /// # Errors
    ///
    /// [`RiotError::NotComposition`] when `name` exists but is a leaf.
    pub fn open_owned(lib: Library, name: &str) -> Result<Self, RiotError> {
        Editor::edit(Menu::Owned(lib), name)
    }
}

impl<'a> Editor<'a> {
    /// Opens (or creates) the composition cell called `name` for
    /// editing.
    ///
    /// # Errors
    ///
    /// [`RiotError::NotComposition`] when `name` exists but is a leaf.
    pub fn open(lib: &'a mut Library, name: &str) -> Result<Self, RiotError> {
        Editor::edit(Menu::Borrowed(lib), name)
    }

    /// Opens (or creates) the composition `name` in `lib` and journals
    /// the `edit` head: the body of [`Editor::open`] and
    /// [`Editor::open_owned`].
    fn edit(mut lib: Menu<'a>, name: &str) -> Result<Self, RiotError> {
        // Honor `RIOT_TRACE=...` for any session, interactive or
        // replayed; cheap after the first call.
        riot_trace::init_from_env();
        let cell = match lib.find(name) {
            Some(id) => id,
            None => lib.add_cell(Cell::new_composition(name))?,
        };
        let mut ed = Editor::at(lib, cell)?;
        ed.instance_counter = ed.comp().instances.len();
        ed.journal.record(Command::Edit {
            cell: name.to_owned(),
        });
        Ok(ed)
    }

    /// A session on `cell` with no history: nothing journaled, nothing
    /// pending, cold caches.
    ///
    /// # Errors
    ///
    /// [`RiotError::NotComposition`] (or an unknown-cell error) when
    /// `cell` is not a composition of `lib`.
    pub(crate) fn at(lib: Menu<'a>, cell: CellId) -> Result<Self, RiotError> {
        let found = lib.cell(cell)?;
        if !found.is_composition() {
            return Err(RiotError::NotComposition(found.name.clone()));
        }
        Ok(Editor {
            lib,
            cell,
            pending: Vec::new(),
            warnings: Vec::new(),
            journal: Journal::new(),
            instance_counter: 0,
            history: History::default(),
            cache: DerivedCache::default(),
            damage: DamageJournal::default(),
            stats: Stats::default(),
            fault: None,
            txn: None,
        })
    }

    // ------------------------------------------------------------------
    // Fault injection (the correctness harness)
    // ------------------------------------------------------------------

    /// Arms a [`FaultPlan`] on this session: the named fault sites
    /// (`txn.commit`, `route.solve`, `route.grid.solve`,
    /// `stretch.solve`) consult the plan
    /// and raise [`RiotError::FaultInjected`] when it trips, taking the
    /// exact rollback path a real failure would. Used by `riot-check`.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The armed fault plan, if any (its counters tell how many faults
    /// were injected so far).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Disarms and returns the fault plan.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// Consults the fault plan at `site`; raises the injected fault
    /// when it trips. A no-op without an armed plan.
    pub(crate) fn fault_trip(&mut self, site: &'static str) -> Result<(), RiotError> {
        if self
            .fault
            .as_mut()
            .map(|p| p.should_inject(site))
            .unwrap_or(false)
        {
            mark("check.fault.injected");
            return Err(RiotError::FaultInjected(site.to_owned()));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The command engine
    // ------------------------------------------------------------------

    /// Executes one command through the transactional engine: apply,
    /// journal, push history, emit change events. This is the single
    /// entry point behind every public editing method, journal replay,
    /// and redo.
    ///
    /// # Errors
    ///
    /// Whatever the command's application produces; an error
    /// guarantees the session is rolled back to its pre-command state.
    /// [`Command::Edit`] is rejected outside a journal head.
    pub fn execute(&mut self, cmd: Command) -> Result<Outcome, RiotError> {
        match cmd {
            Command::Undo => Ok(Outcome::Count(usize::from(self.undo()?))),
            Command::Redo => Ok(Outcome::Count(usize::from(self.redo()?))),
            Command::Edit { .. } => Err(RiotError::Parse {
                line: 0,
                message: "`edit` is only valid at the head of a journal".into(),
            }),
            cmd => {
                let outcome = self.apply_and_record(&cmd, None)?;
                self.history.clear_redo();
                Ok(outcome)
            }
        }
    }

    /// Applies `cmd` transactionally, journals `journal_as` (or the
    /// effect's own journal form), and pushes the undo record. Does not
    /// touch the redo stack.
    fn apply_and_record(
        &mut self,
        cmd: &Command,
        journal_as: Option<Command>,
    ) -> Result<Outcome, RiotError> {
        let mut sp = riot_trace::span(cmd.span_name());
        let t0 = std::time::Instant::now();
        self.txn = Some(UndoRecord::open(
            self.lib.checkpoint(),
            self.comp().instances.len(),
            self.pending.len(),
        ));
        let applied = cmd.apply(self);
        let undo = self
            .txn
            .take()
            .expect("the record stays open while a command applies");
        // The txn-commit fault site: the command applied, but the
        // commit "fails" before it is journaled, and reverts like any
        // other failure.
        match applied.and_then(|effect| self.fault_trip(FAULT_TXN_COMMIT).map(|()| effect)) {
            Ok(CommandEffect { outcome, journal }) => {
                self.history.push_applied(Applied {
                    command: journal.clone(),
                    undo,
                });
                self.journal.record(journal_as.unwrap_or(journal));
                self.stats.applied += 1;
                self.stats.apply_nanos += t0.elapsed().as_nanos() as u64;
                mark("core.cmd.applied");
                Ok(outcome)
            }
            Err(e) => {
                sp.field("rollback", 1);
                {
                    let _sp = riot_trace::span("txn.restore");
                    self.revert(undo);
                }
                self.stats.rollbacks += 1;
                mark("core.cmd.rollbacks");
                // Failed applications cost real time too; accrue it so
                // `Stats::apply_nanos` reflects every trip through the
                // engine, not just the happy path.
                self.stats.apply_nanos += t0.elapsed().as_nanos() as u64;
                Err(e)
            }
        }
    }

    /// UNDO: reverts the most recent applied command. Returns `false`
    /// when there is nothing to undo. The undo itself is journaled, so
    /// a replayed journal reproduces the exact same final state.
    ///
    /// # Errors
    ///
    /// None today; the `Result` keeps the signature uniform with the
    /// other commands.
    pub fn undo(&mut self) -> Result<bool, RiotError> {
        let Some(applied) = self.history.pop_undo() else {
            return Ok(false);
        };
        let _sp = riot_trace::span("cmd.undo");
        self.revert(applied.undo);
        self.history.push_redo(applied.command);
        self.journal.record(Command::Undo);
        self.stats.undos += 1;
        mark("core.cmd.undos");
        Ok(true)
    }

    /// REDO: re-executes the most recently undone command. Returns
    /// `false` when there is nothing to redo.
    ///
    /// # Errors
    ///
    /// The re-applied command's errors (none in practice, since the
    /// session is in the exact state the command first succeeded in).
    pub fn redo(&mut self) -> Result<bool, RiotError> {
        let Some(cmd) = self.history.pop_redo() else {
            return Ok(false);
        };
        let _sp = riot_trace::span("cmd.redo");
        match self.apply_and_record(&cmd, Some(Command::Redo)) {
            Ok(_) => {
                self.stats.redos += 1;
                mark("core.cmd.redos");
                Ok(true)
            }
            Err(e) => {
                self.history.push_redo(cmd);
                Err(e)
            }
        }
    }

    /// Reverts one undo record: drops the menu cells and instance
    /// slots its command appended, puts back the slots, pending list
    /// and cell header it kept, and emits one event per touched or
    /// created slot plus [`ChangeEvent::PendingChanged`] when the list
    /// differs. When the menu shrinks or the cell header changes, the
    /// per-slot events cannot describe the change (the menu's own
    /// `CellAdded` events were already emitted) and one
    /// [`ChangeEvent::BulkRestore`] replaces them. Infallible by
    /// construction: the LIFO undo stack guarantees the session looks
    /// exactly as it did right after the record's command applied.
    fn revert(&mut self, record: UndoRecord) {
        let UndoRecord {
            menu,
            slots,
            prior,
            pending_len,
            pending,
            header,
        } = record;
        let bulk = self.lib.len() > menu.cells_len
            || header.as_ref().is_some_and(|(bbox, connectors)| {
                let c = self.cell();
                c.bbox != *bbox || c.connectors != *connectors
            });
        let ids: Vec<InstanceId> = prior
            .iter()
            .map(|(id, _)| *id)
            .chain((slots..self.comp().instances.len()).map(InstanceId))
            .collect();
        let before: Vec<_> = ids.iter().map(|&id| self.slot_bbox(id)).collect();

        self.lib.rollback(menu);
        if let Some((bbox, connectors)) = header {
            let cell = self.lib.cell_mut(self.cell).expect("edit cell exists");
            cell.bbox = bbox;
            cell.connectors = connectors;
        }
        let instances = &mut self.comp_mut().instances;
        instances.truncate(slots);
        for (id, inst) in prior {
            instances[id.0] = Some(inst);
        }
        let pending_changed = match pending {
            Some(list) => {
                let changed = list != self.pending;
                self.pending = list;
                changed
            }
            None => {
                let changed = self.pending.len() != pending_len;
                self.pending.truncate(pending_len);
                changed
            }
        };

        if bulk {
            self.emit(ChangeEvent::BulkRestore);
            return;
        }
        for (id, before) in ids.into_iter().zip(before) {
            self.emit(match (before, self.slot_bbox(id)) {
                (Some(old), Some(new)) => ChangeEvent::InstanceChanged { id, old, new },
                (Some(old), None) => ChangeEvent::InstanceDeleted { id, old },
                (None, Some(at)) => ChangeEvent::InstanceCreated { id, at },
                (None, None) => continue,
            });
        }
        if pending_changed {
            self.emit(ChangeEvent::PendingChanged);
        }
    }

    /// World bbox of a slot computed directly from the library,
    /// bypassing the derived cache (which is stale between a mutation
    /// and its event). `None` for tombstones and unknown cells.
    fn world_bbox_now(&self, id: InstanceId) -> Option<Rect> {
        self.slot_bbox(id).flatten()
    }

    /// [`Editor::world_bbox_now`] that tells a tombstone (`None`) from
    /// a live instance of an unknown cell (`Some(None)`).
    fn slot_bbox(&self, id: InstanceId) -> Option<Option<Rect>> {
        let inst = self.comp().instances.get(id.0)?.as_ref()?;
        Some(self.lib.cell(inst.cell).ok().map(|c| inst.world_bbox(c)))
    }

    /// Announces a change: bumps counters, invalidates the affected
    /// caches, and records the damage for [`Editor::take_damage`].
    pub(crate) fn emit(&mut self, event: ChangeEvent) {
        self.stats.events += 1;
        mark("core.events");
        self.cache.invalidate(&event);
        let recorded = self.damage.recorded();
        self.damage.record(&event);
        if self.damage.recorded() > recorded {
            self.stats.damage_rects += 1;
            mark("damage.rects");
        }
    }

    /// Acknowledges the world-space damage accumulated since the last
    /// call (or since the session was opened or decoded). The returned
    /// [`Damage`] covers every world coordinate that changed in that
    /// span — the contract incremental DRC, flatten and render rely
    /// on.
    pub fn take_damage(&mut self) -> Damage {
        self.damage.take()
    }

    /// Whether no damage has accumulated since the last
    /// [`Editor::take_damage`].
    pub fn damage_is_clean(&self) -> bool {
        self.damage.is_clean()
    }

    /// Engine counters: commands applied, undos, rollbacks, cache
    /// behavior. Cache tallies are those a decoded session was saved
    /// with plus the live cache's counts.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.cache_hits += self.cache.hits();
        s.cache_misses += self.cache.misses();
        s
    }

    /// Number of commands the undo stack can revert.
    pub fn undo_depth(&self) -> usize {
        self.history.undo_len()
    }

    /// Number of undone commands the redo stack can re-apply.
    pub fn redo_depth(&self) -> usize {
        self.history.redo_len()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The id of the cell under edit.
    pub fn cell_id(&self) -> CellId {
        self.cell
    }

    /// The cell under edit.
    pub fn cell(&self) -> &Cell {
        self.lib.cell(self.cell).expect("edit cell exists")
    }

    /// The library (cell menu) behind this session.
    pub fn library(&self) -> &Library {
        &self.lib
    }

    /// The journal of commands issued so far.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Warnings produced so far (abutment mismatches, off-grid rounding…).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Drains the warning list.
    pub fn take_warnings(&mut self) -> Vec<String> {
        std::mem::take(&mut self.warnings)
    }

    /// The pending connection list.
    pub fn pending(&self) -> &[PendingConnection] {
        &self.pending
    }

    pub(crate) fn comp(&self) -> &Composition {
        self.cell().composition().expect("edit cell is composition")
    }

    pub(crate) fn comp_mut(&mut self) -> &mut Composition {
        self.lib
            .cell_mut(self.cell)
            .expect("edit cell exists")
            .composition_mut()
            .expect("edit cell is composition")
    }

    /// Iterates over the live instances.
    pub fn instances(&self) -> Vec<(InstanceId, Instance)> {
        self.comp()
            .instances()
            .map(|(id, i)| (id, i.clone()))
            .collect()
    }

    /// Looks an instance up by id.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`] for stale ids.
    pub fn instance(&self, id: InstanceId) -> Result<&Instance, RiotError> {
        self.comp()
            .instances
            .get(id.0)
            .and_then(|s| s.as_ref())
            .ok_or(RiotError::BadInstance(id.0))
    }

    /// Mutable access to a live instance. The open undo record keeps
    /// the instance as it was before the command's first change to it.
    fn instance_mut(&mut self, id: InstanceId) -> Result<&mut Instance, RiotError> {
        let inst = self
            .lib
            .cell_mut(self.cell)?
            .composition_mut()
            .expect("edit cell is composition")
            .instances
            .get_mut(id.0)
            .and_then(|s| s.as_mut())
            .ok_or(RiotError::BadInstance(id.0))?;
        if let Some(record) = &mut self.txn {
            record.keep_slot(id, inst);
        }
        Ok(inst)
    }

    /// The pending list, for an edit that removes entries. The open
    /// undo record keeps the list as it was before the first removal.
    fn pending_mut(&mut self) -> &mut Vec<PendingConnection> {
        if let Some(record) = &mut self.txn {
            record.keep_pending(&self.pending);
        }
        &mut self.pending
    }

    /// Finds an instance by name.
    pub fn find_instance(&self, name: &str) -> Option<InstanceId> {
        self.comp()
            .instances()
            .find(|(_, i)| i.name == name)
            .map(|(id, _)| id)
    }

    /// Resolves an instance name or reports it unknown (replay's error).
    pub(crate) fn require_instance(&self, name: &str) -> Result<InstanceId, RiotError> {
        self.find_instance(name)
            .ok_or_else(|| RiotError::UnknownInstance(name.to_owned()))
    }

    /// The defining cell of an instance.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`].
    pub fn instance_cell(&self, id: InstanceId) -> Result<&Cell, RiotError> {
        let cell = self.instance(id)?.cell;
        self.lib.cell(cell)
    }

    // ------------------------------------------------------------------
    // Derived geometry (cached)
    // ------------------------------------------------------------------

    /// World bounding box of an instance, cached until an event
    /// invalidates it.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`].
    pub fn instance_bbox(&self, id: InstanceId) -> Result<Rect, RiotError> {
        if let Some(bb) = self.cache.bbox(id) {
            return Ok(bb);
        }
        let bb = self.instance(id)?.world_bbox(self.instance_cell(id)?);
        self.cache.store_bbox(id, bb);
        Ok(bb)
    }

    /// All world connectors of an instance, cached and shared: repeated
    /// calls between changes cost one `Arc` clone instead of a rebuild
    /// over every array element.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`].
    pub fn world_connectors_arc(
        &self,
        id: InstanceId,
    ) -> Result<Arc<Vec<WorldConnector>>, RiotError> {
        if let Some(list) = self.cache.connectors(id) {
            return Ok(list);
        }
        let list = Arc::new(self.instance(id)?.world_connectors(self.instance_cell(id)?));
        self.cache.store_connectors(id, Arc::clone(&list));
        Ok(list)
    }

    /// All world connectors of an instance, as an owned list.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`].
    pub fn world_connectors(&self, id: InstanceId) -> Result<Vec<WorldConnector>, RiotError> {
        Ok(self.world_connectors_arc(id)?.as_ref().clone())
    }

    /// One world connector by name.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`] / [`RiotError::UnknownConnector`].
    pub fn world_connector(&self, id: InstanceId, name: &str) -> Result<WorldConnector, RiotError> {
        let list = self.world_connectors_arc(id)?;
        list.iter()
            .find(|c| c.name == name)
            .cloned()
            .ok_or_else(|| RiotError::UnknownConnector {
                instance: self
                    .instance(id)
                    .map(|i| i.name.clone())
                    .unwrap_or_default(),
                connector: name.to_owned(),
            })
    }

    /// Union of the live instances' world bounding boxes, cached until
    /// an instance event invalidates it.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`] (never for a consistent cell).
    pub fn current_extent(&self) -> Result<Rect, RiotError> {
        if let Some(r) = self.cache.extent() {
            return Ok(r);
        }
        let mut bb: Option<Rect> = None;
        for (id, _) in self.comp().instances() {
            let b = self.instance_bbox(id)?;
            bb = Some(match bb {
                Some(acc) => acc.union(b),
                None => b,
            });
        }
        let r = bb.unwrap_or(Rect::new(0, 0, 0, 0));
        self.cache.store_extent(r);
        Ok(r)
    }

    // ------------------------------------------------------------------
    // FINISH
    // ------------------------------------------------------------------

    /// Finishes the cell: sets its bounding box to the union of its
    /// instances and promotes every instance connector lying exactly on
    /// that box to a connector of the composition cell.
    ///
    /// # Errors
    ///
    /// [`RiotError::BadInstance`] (never for a consistent cell).
    pub fn finish(&mut self) -> Result<usize, RiotError> {
        match self.execute(Command::Finish)? {
            Outcome::Count(n) => Ok(n),
            _ => unreachable!("finish reports a connector count"),
        }
    }

    pub(crate) fn apply_finish(&mut self) -> Result<CommandEffect, RiotError> {
        let bbox = self.current_extent()?;
        let mut connectors: Vec<crate::cell::Connector> = Vec::new();
        let mut used = std::collections::HashSet::new();
        for (id, _) in self.comp().instances().collect::<Vec<_>>() {
            for wc in self.world_connectors_arc(id)?.iter() {
                if bbox.side_of(wc.location).is_some() {
                    let mut name = wc.name.clone();
                    while !used.insert(name.clone()) {
                        name.push('\'');
                    }
                    connectors.push(crate::cell::Connector {
                        name,
                        location: wc.location,
                        layer: wc.layer,
                        width: wc.width,
                    });
                }
            }
        }
        let count = connectors.len();
        let cell = self.lib.cell_mut(self.cell)?;
        if let Some(record) = &mut self.txn {
            record.keep_header(cell);
        }
        cell.bbox = bbox;
        cell.connectors = connectors;
        self.emit(ChangeEvent::CellFinished);
        Ok(CommandEffect {
            outcome: Outcome::Count(count),
            journal: Command::Finish,
        })
    }

    pub(crate) fn snap_lambda(&mut self, cm: i64) -> Result<i64, RiotError> {
        if cm % LAMBDA != 0 {
            self.warnings.push(format!(
                "coordinate {cm} is off the lambda grid; rounding to {}",
                (cm + LAMBDA / 2).div_euclid(LAMBDA) * LAMBDA
            ));
        }
        Ok((cm + LAMBDA / 2).div_euclid(LAMBDA))
    }
}

impl Drop for Editor<'_> {
    /// Mirrors the session's exact per-editor counters into the global
    /// metrics registry (when tracing is enabled) and honors the
    /// `RIOT_TRACE` environment sink, so
    /// `RIOT_TRACE=chrome:/tmp/t.json cargo run --example quickstart`
    /// produces a trace with no code changes. An editor that owns its
    /// library is a hosted session: dropping it closes, evicts or
    /// crashes one session of many, so it does neither, and the host
    /// dumps once when it exits.
    fn drop(&mut self) {
        if let Menu::Owned(_) = self.lib {
            return;
        }
        if riot_trace::enabled() {
            let s = self.stats();
            let reg = riot_trace::registry();
            reg.gauge("core.cache.hits").set(s.cache_hits as i64);
            reg.gauge("core.cache.misses").set(s.cache_misses as i64);
            reg.gauge("core.apply_nanos").set(s.apply_nanos as i64);
            // Flush the fault-plan tallies so a traced harness run's
            // summary shows how many faults actually fired.
            if let Some(plan) = &self.fault {
                reg.counter("check.fault.injected").add(plan.injected());
                reg.counter("check.fault.consulted").add(plan.consulted());
            }
        }
        riot_trace::dump_from_env();
    }
}

/// Mirrors one engine counter into the global metrics registry. Gated
/// on [`riot_trace::enabled`] so untraced sessions pay one relaxed
/// atomic load; the per-session [`Stats`] stay exact either way.
fn mark(name: &'static str) {
    if riot_trace::enabled() {
        riot_trace::registry().counter(name).inc();
    }
}

/// Strips an array suffix (`name[c,r]` → `name`).
pub(crate) fn base_name(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

#[cfg(test)]
mod tests;
