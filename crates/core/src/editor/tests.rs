//! Editor unit tests: the seed behavioral suite plus engine-level tests
//! for undo/redo, transactional rollback, events, and the caches.

use super::*;
use riot_geom::{Orientation, Point, Side};

/// A sticks gate with three left pins and a right output — the
/// shape of the paper's NAND/OR leaf cells.
const GATE: &str = "\
sticks gate
bbox 0 0 12 20
pin A left NP 0 4 2
pin B left NP 0 10 2
pin OUT right NM 12 10 3
wire NP 2 0 4 6 4
wire NP 2 0 10 6 10
wire NM 3 6 10 12 10
end
";

/// A driver with two right-side poly outputs.
const DRIVER: &str = "\
sticks driver
bbox 0 0 10 20
pin X right NP 10 6 2
pin Y right NP 10 14 2
wire NP 2 0 6 10 6
wire NP 2 0 14 10 14
end
";

fn setup() -> (Library, CellId, CellId) {
    let mut lib = Library::new();
    let gate = lib.load_sticks(GATE).unwrap();
    let driver = lib.load_sticks(DRIVER).unwrap();
    (lib, gate, driver)
}

#[test]
fn open_creates_composition() {
    let mut lib = Library::new();
    let ed = Editor::open(&mut lib, "TOP").unwrap();
    assert!(ed.cell().is_composition());
    assert_eq!(ed.cell().name, "TOP");
}

#[test]
fn open_rejects_leaf() {
    let (mut lib, _, _) = setup();
    assert!(matches!(
        Editor::open(&mut lib, "gate"),
        Err(RiotError::NotComposition(_))
    ));
}

#[test]
fn create_and_move_instance() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let i = ed.create_instance(gate).unwrap();
    assert_eq!(ed.instance(i).unwrap().name, "I0");
    ed.translate_instance(i, Point::new(1000, 500)).unwrap();
    let bb = ed.instance_bbox(i).unwrap();
    assert_eq!(bb.lower_left(), Point::new(1000, 500));
}

#[test]
fn connect_validates_layers_and_sides() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(20 * LAMBDA, 0))
        .unwrap();
    // driver.X (right, NP) to gate.A (left, NP): opposed, same layer.
    ed.connect(g, "A", d, "X").unwrap();
    assert_eq!(ed.pending().len(), 1);
    // gate.OUT is metal: layer mismatch with driver.X.
    assert!(matches!(
        ed.connect(g, "OUT", d, "X"),
        Err(RiotError::LayerMismatch { .. })
    ));
    // Two left-side connectors (gate.A to gate.B) are not opposed.
    drop(ed);
    let mut ed2 = Editor::open(&mut lib, "TOP2").unwrap();
    let g2 = ed2.create_instance(gate).unwrap();
    let g3 = ed2.create_instance(gate).unwrap();
    assert!(matches!(
        ed2.connect(g2, "A", g3, "B"),
        Err(RiotError::NotOpposed { .. })
    ));
}

#[test]
fn one_to_many_enforced() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    let d2 = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(20 * LAMBDA, 0))
        .unwrap();
    ed.translate_instance(d2, Point::new(0, -30 * LAMBDA))
        .unwrap();
    ed.connect(g, "A", d, "X").unwrap();
    // A second from instance is rejected.
    assert!(matches!(
        ed.connect(d2, "X", g, "A"),
        Err(RiotError::MultipleFromInstances(_, _)) | Err(RiotError::NotOpposed { .. })
    ));
    // Same from to another to instance is fine (one-to-many).
    ed.connect(g, "B", d2, "Y").unwrap_or_else(|e| {
        // Geometry may make sides non-opposed; accept that error.
        assert!(matches!(e, RiotError::NotOpposed { .. }));
    });
}

#[test]
fn abut_moves_from_exactly() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(30 * LAMBDA, 7 * LAMBDA))
        .unwrap();
    ed.connect(g, "A", d, "X").unwrap();
    ed.abut(AbutOptions::default()).unwrap();
    let a = ed.world_connector(g, "A").unwrap();
    let x = ed.world_connector(d, "X").unwrap();
    assert_eq!(a.location, x.location);
    assert!(ed.pending().is_empty());
    assert!(ed.warnings().is_empty());
}

#[test]
fn abut_warns_on_unsatisfiable_second_connection() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(30 * LAMBDA, 0))
        .unwrap();
    // A-X spacing is 6λ on the gate, 8λ on the driver: both cannot
    // hold at once.
    ed.connect(g, "A", d, "X").unwrap();
    ed.connect(g, "B", d, "Y").unwrap();
    ed.abut(AbutOptions::default()).unwrap();
    assert_eq!(ed.warnings().len(), 1);
    assert!(ed.warnings()[0].contains("cannot be made"));
}

#[test]
fn abut_instances_matches_edges() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(50 * LAMBDA, 9 * LAMBDA))
        .unwrap();
    ed.abut_instances(g, d).unwrap();
    let gb = ed.instance_bbox(g).unwrap();
    let db = ed.instance_bbox(d).unwrap();
    assert_eq!(gb.x0, db.x1); // left edge of from on right edge of to
    assert_eq!(gb.y0, db.y0); // bottoms match
}

#[test]
fn route_connects_and_moves_from() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(40 * LAMBDA, 3 * LAMBDA))
        .unwrap();
    ed.connect(g, "A", d, "X").unwrap();
    ed.connect(g, "B", d, "Y").unwrap();
    let (route_cell, route_inst) = ed.route(RouteOptions::default()).unwrap();
    // The route cell is in the menu like any other cell.
    assert!(ed.library().cell(route_cell).unwrap().is_leaf());
    assert!(ed
        .library()
        .cell(route_cell)
        .unwrap()
        .name
        .starts_with("route"));
    // After the route the from connectors coincide with the route's
    // top pins — verified by the absence of warnings.
    assert!(ed.warnings().is_empty(), "warnings: {:?}", ed.warnings());
    assert!(ed.pending().is_empty());
    // Route instance sits against the driver's right edge.
    let rb = ed.instance_bbox(route_inst).unwrap();
    let db = ed.instance_bbox(d).unwrap();
    assert_eq!(rb.x0, db.x1);
    // From instance abuts the route's far side.
    let gb = ed.instance_bbox(g).unwrap();
    assert_eq!(gb.x0, rb.x1);
}

#[test]
fn route_without_moving_from() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(40 * LAMBDA, 0))
        .unwrap();
    let before = ed.instance_bbox(g).unwrap();
    ed.connect(g, "A", d, "X").unwrap();
    ed.route(RouteOptions {
        move_from: false,
        ..RouteOptions::default()
    })
    .unwrap();
    assert_eq!(ed.instance_bbox(g).unwrap(), before);
    // The gap is 40-10=30λ wide; the route fills it exactly.
    let route_inst = ed
        .instances()
        .into_iter()
        .find(|(_, i)| i.name.starts_with("route"))
        .map(|(id, _)| id)
        .unwrap();
    let rb = ed.instance_bbox(route_inst).unwrap();
    assert_eq!(rb.width(), 30 * LAMBDA);
}

#[test]
fn route_too_tight_without_move() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    // Offset connection (A at 4λ vs X at 6λ) needs a jog channel,
    // but the gap is only 1λ.
    ed.translate_instance(g, Point::new(11 * LAMBDA, 0))
        .unwrap();
    ed.connect(g, "A", d, "X").unwrap();
    let err = ed
        .route(RouteOptions {
            move_from: false,
            ..RouteOptions::default()
        })
        .unwrap_err();
    assert!(matches!(err, RiotError::ChannelTooTight { .. }));
}

#[test]
fn stretch_replaces_cell_and_abuts() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(30 * LAMBDA, 0))
        .unwrap();
    // Driver pins are 8λ apart; gate pins 6λ apart: stretch grows
    // the gate.
    ed.connect(g, "A", d, "X").unwrap();
    ed.connect(g, "B", d, "Y").unwrap();
    let new_cell = ed.stretch(StretchOptions::default()).unwrap();
    assert_eq!(ed.library().cell(new_cell).unwrap().name, "gate'");
    assert_eq!(ed.instance(g).unwrap().cell, new_cell);
    // Both connections now coincide — no warnings.
    assert!(ed.warnings().is_empty(), "warnings: {:?}", ed.warnings());
    let a = ed.world_connector(g, "A").unwrap();
    let x = ed.world_connector(d, "X").unwrap();
    assert_eq!(a.location, x.location);
    let b = ed.world_connector(g, "B").unwrap();
    let y = ed.world_connector(d, "Y").unwrap();
    assert_eq!(b.location, y.location);
}

#[test]
fn stretch_rejects_cif_cells() {
    let mut lib = Library::new();
    let pad = lib
        .load_cif("DS 1;9 pad;L NP;B 1000 1000 500 500;94 P 0 500 NP 250;DF;E")
        .unwrap()[0];
    let driver = lib.load_sticks(DRIVER).unwrap();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let p = ed.create_instance(pad).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(p, Point::new(30 * LAMBDA, 0))
        .unwrap();
    ed.connect(p, "P", d, "X").unwrap();
    assert!(matches!(
        ed.stretch(StretchOptions::default()),
        Err(RiotError::NotStretchable(_))
    ));
}

#[test]
fn finish_promotes_boundary_connectors() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    ed.finish().unwrap();
    let cell = ed.cell();
    assert_eq!(cell.bbox, Rect::new(0, 0, 12 * LAMBDA, 20 * LAMBDA));
    // All three connectors are on the bbox.
    assert_eq!(cell.connectors.len(), 3);
    let _ = g;
}

#[test]
fn replicated_array_spacing_and_connectors() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    ed.replicate_instance(g, 1, 4).unwrap();
    let bb = ed.instance_bbox(g).unwrap();
    assert_eq!(bb.height(), 4 * 20 * LAMBDA);
    let conns = ed.world_connectors(g).unwrap();
    // 2 left pins x 4 rows + 1 right pin x 4 rows.
    assert_eq!(conns.len(), 12);
    assert!(conns.iter().any(|c| c.name == "A[0,3]"));
}

#[test]
fn delete_instance_clears_pending() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(30 * LAMBDA, 0))
        .unwrap();
    ed.connect(g, "A", d, "X").unwrap();
    ed.delete_instance(d).unwrap();
    assert!(ed.pending().is_empty());
    assert!(ed.instance(d).is_err());
}

#[test]
fn connect_bus_matches_by_position() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(30 * LAMBDA, 0))
        .unwrap();
    let added = ed.connect_bus(g, d).unwrap();
    // Names differ (A,B vs X,Y) so positional pairing applies: two
    // NP pairs; OUT (NM, right side) finds no partner.
    assert_eq!(added, 2);
    assert_eq!(ed.pending().len(), 2);
}

#[test]
fn orient_instance_rotates_in_place() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    ed.translate_instance(g, Point::new(1000, 1000)).unwrap();
    ed.orient_instance(g, Orientation::R90).unwrap();
    let inst = ed.instance(g).unwrap();
    assert_eq!(inst.transform.orient, Orientation::R90);
    assert_eq!(inst.transform.offset, Point::new(1000, 1000));
}

#[test]
fn bring_out_reaches_bbox_edge() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    // Put the driver far to the right so the composition bbox
    // extends past the gate.
    ed.translate_instance(d, Point::new(40 * LAMBDA, 0))
        .unwrap();
    let (_cell, inst) = ed.bring_out(g, &["A", "B"], Side::Left).unwrap();
    let rb = ed.instance_bbox(inst).unwrap();
    let extent = ed.current_extent().unwrap();
    assert_eq!(rb.x0, extent.x0);
    let _ = g;
}

// ---------------------------------------------------------------------
// Engine: undo/redo, rollback, events, caches
// ---------------------------------------------------------------------

#[test]
fn undo_redo_create() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let i = ed.create_instance(gate).unwrap();
    assert_eq!(ed.undo_depth(), 1);
    assert!(ed.undo().unwrap());
    assert!(ed.instance(i).is_err());
    assert_eq!(ed.redo_depth(), 1);
    assert!(ed.redo().unwrap());
    assert_eq!(ed.instance(i).unwrap().name, "I0");
    assert_eq!(ed.redo_depth(), 0);
}

#[test]
fn undo_translate_restores_transform() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let i = ed.create_instance(gate).unwrap();
    ed.translate_instance(i, Point::new(700, 300)).unwrap();
    ed.undo().unwrap();
    assert_eq!(ed.instance(i).unwrap().transform.offset, Point::ORIGIN);
    ed.redo().unwrap();
    assert_eq!(
        ed.instance(i).unwrap().transform.offset,
        Point::new(700, 300)
    );
}

#[test]
fn undo_empty_returns_false() {
    let mut lib = Library::new();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    assert!(!ed.undo().unwrap());
    assert!(!ed.redo().unwrap());
}

#[test]
fn new_command_clears_redo() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let i = ed.create_instance(gate).unwrap();
    ed.translate_instance(i, Point::new(100, 0)).unwrap();
    ed.undo().unwrap();
    assert_eq!(ed.redo_depth(), 1);
    ed.translate_instance(i, Point::new(0, 100)).unwrap();
    assert_eq!(ed.redo_depth(), 0);
}

#[test]
fn undo_compound_restores_snapshot() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(30 * LAMBDA, 7 * LAMBDA))
        .unwrap();
    ed.connect(g, "A", d, "X").unwrap();
    let before = ed.instance(g).unwrap().transform;
    ed.abut(AbutOptions::default()).unwrap();
    assert!(ed.pending().is_empty());
    ed.undo().unwrap();
    // The abutment's move is reverted and the pending list is back.
    assert_eq!(ed.instance(g).unwrap().transform, before);
    assert_eq!(ed.pending().len(), 1);
}

#[test]
fn undo_route_removes_route_cell() {
    let (mut lib, gate, driver) = setup();
    let cells_before;
    {
        let mut ed = Editor::open(&mut lib, "TOP").unwrap();
        let g = ed.create_instance(gate).unwrap();
        let d = ed.create_instance(driver).unwrap();
        ed.translate_instance(g, Point::new(40 * LAMBDA, 3 * LAMBDA))
            .unwrap();
        ed.connect(g, "A", d, "X").unwrap();
        cells_before = ed.library().len();
        ed.route(RouteOptions::default()).unwrap();
        assert_eq!(ed.library().len(), cells_before + 1);
        ed.undo().unwrap();
        assert_eq!(ed.library().len(), cells_before);
        assert_eq!(ed.pending().len(), 1);
        // Redo re-routes with the same generated name.
        ed.redo().unwrap();
        assert_eq!(ed.library().len(), cells_before + 1);
    }
    assert!(lib.find("route0").is_some());
}

#[test]
fn failed_compound_rolls_back() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(11 * LAMBDA, 0))
        .unwrap();
    ed.connect(g, "A", d, "X").unwrap();
    let cells = ed.library().len();
    let transform = ed.instance(g).unwrap().transform;
    let err = ed
        .route(RouteOptions {
            move_from: false,
            ..RouteOptions::default()
        })
        .unwrap_err();
    assert!(matches!(err, RiotError::ChannelTooTight { .. }));
    // The menu, the instance, and the pending list are untouched.
    assert_eq!(ed.library().len(), cells);
    assert_eq!(ed.instance(g).unwrap().transform, transform);
    assert_eq!(ed.pending().len(), 1);
    assert_eq!(ed.stats().rollbacks, 1);
}

#[test]
fn execute_rejects_edit_mid_session() {
    let mut lib = Library::new();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    assert!(ed
        .execute(Command::Edit {
            cell: "OTHER".into()
        })
        .is_err());
}

#[test]
fn events_report_changes() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let i = ed.create_instance(gate).unwrap();
    let created = ed.instance_bbox(i).unwrap();
    assert_eq!(ed.stats().events, 1);
    assert_eq!(ed.take_damage().rects, vec![created]);
    ed.translate_instance(i, Point::new(100, 0)).unwrap();
    let moved = ed.instance_bbox(i).unwrap();
    assert_eq!(ed.stats().events, 2);
    assert_eq!(ed.take_damage().rects, vec![created.union(moved)]);
    assert!(ed.damage_is_clean());
}

#[test]
fn bbox_cache_hits_and_invalidates() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let i = ed.create_instance(gate).unwrap();
    let b1 = ed.instance_bbox(i).unwrap();
    let b2 = ed.instance_bbox(i).unwrap();
    assert_eq!(b1, b2);
    assert!(ed.stats().cache_hits >= 1);
    ed.translate_instance(i, Point::new(500, 0)).unwrap();
    let b3 = ed.instance_bbox(i).unwrap();
    assert_eq!(b3.lower_left(), Point::new(500, 0));
}

#[test]
fn connector_cache_shares_one_list() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let i = ed.create_instance(gate).unwrap();
    let a = ed.world_connectors_arc(i).unwrap();
    let b = ed.world_connectors_arc(i).unwrap();
    assert!(Arc::ptr_eq(&a, &b));
    ed.orient_instance(i, Orientation::R90).unwrap();
    let c = ed.world_connectors_arc(i).unwrap();
    assert!(!Arc::ptr_eq(&a, &c));
}

#[test]
fn journal_records_undo_and_redo() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    ed.create_instance(gate).unwrap();
    ed.undo().unwrap();
    ed.redo().unwrap();
    let cmds = ed.journal().commands();
    assert!(cmds.contains(&Command::Undo));
    assert!(cmds.contains(&Command::Redo));
}

#[test]
fn stats_count_commands() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let i = ed.create_instance(gate).unwrap();
    ed.translate_instance(i, Point::new(100, 0)).unwrap();
    ed.undo().unwrap();
    ed.redo().unwrap();
    let s = ed.stats();
    assert_eq!(s.applied, 3); // create + translate + redo's re-apply
    assert_eq!(s.undos, 1);
    assert_eq!(s.redos, 1);
    assert!(s.events >= 3);
}

#[test]
fn remove_and_clear_pending_are_undoable() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d = ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(30 * LAMBDA, 0))
        .unwrap();
    ed.connect(g, "A", d, "X").unwrap();
    ed.connect(g, "B", d, "Y").unwrap();
    ed.remove_pending(0);
    assert_eq!(ed.pending().len(), 1);
    ed.undo().unwrap();
    assert_eq!(ed.pending().len(), 2);
    assert_eq!(ed.pending()[0].from_connector, "A");
    ed.clear_pending();
    assert!(ed.pending().is_empty());
    ed.undo().unwrap();
    assert_eq!(ed.pending().len(), 2);
    // Out-of-range removals stay silent no-ops.
    ed.remove_pending(99);
    assert_eq!(ed.pending().len(), 2);
}

// ----------------------------------------------------------------------
// Damage regions
// ----------------------------------------------------------------------

#[test]
fn translate_damage_covers_old_and_new_boxes() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let i = ed.create_instance(gate).unwrap();
    let before = ed.instance_bbox(i).unwrap();
    ed.take_damage(); // acknowledge the creation
    ed.translate_instance(i, Point::new(500, 0)).unwrap();
    let after = ed.instance_bbox(i).unwrap();
    let d = ed.take_damage();
    assert!(!d.full, "a single move must not dirty the world: {d:?}");
    let bound = d.bounding_rect().unwrap();
    assert_eq!(bound, before.union(after));
    assert!(ed.take_damage().is_clean());
    assert!(ed.stats().damage_rects >= 2); // create + move
}

#[test]
fn simple_undo_damage_is_targeted() {
    let (mut lib, gate, _) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let i = ed.create_instance(gate).unwrap();
    ed.translate_instance(i, Point::new(300, 0)).unwrap();
    let moved = ed.instance_bbox(i).unwrap();
    ed.take_damage();
    ed.undo().unwrap();
    let back = ed.instance_bbox(i).unwrap();
    let d = ed.take_damage();
    assert!(!d.full);
    assert_eq!(d.bounding_rect().unwrap(), moved.union(back));
}

#[test]
fn compound_undo_damage_diffs_the_snapshot() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    let d1 = ed.create_instance(driver).unwrap();
    ed.translate_instance(d1, Point::new(-2000, 0)).unwrap();
    ed.connect(g, "A", d1, "X").unwrap();
    let g_before = ed.instance_bbox(g).unwrap();
    let d_before = ed.instance_bbox(d1).unwrap();
    // Abut moves `g` onto `d1`; undoing it restores via the snapshot.
    ed.abut(AbutOptions::default()).unwrap();
    ed.take_damage();
    ed.undo().unwrap();
    let dmg = ed.take_damage();
    assert!(
        !dmg.full,
        "abut undo adds no cells; its snapshot restore must diff: {dmg:?}"
    );
    let bound = dmg.bounding_rect().unwrap();
    // The union of everything that moved is covered.
    assert!(bound.union(g_before.union(d_before)) == bound.union(g_before).union(d_before));
    let _ = d_before;
}

#[test]
fn rollback_with_added_cells_falls_back_to_full() {
    let (mut lib, gate, driver) = setup();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let d1 = ed.create_instance(driver).unwrap();
    let g = ed.create_instance(gate).unwrap();
    ed.translate_instance(g, Point::new(4000, 0)).unwrap();
    ed.connect(g, "A", d1, "X").unwrap();
    ed.route(RouteOptions::default()).unwrap();
    ed.take_damage();
    // Undoing the route removes the route cell from the menu — the
    // targeted diff cannot describe that, so damage degrades to full.
    ed.undo().unwrap();
    assert!(ed.take_damage().full);
}

#[test]
fn checkpoint_preserves_cache_counters() {
    // A snapshot is the one checkpoint of a session: the cache tallies
    // it saves are where the decoded session's fresh cache counts on.
    let (lib, gate, _) = setup();
    let mut ed = Editor::open_owned(lib, "TOP").unwrap();
    let i = ed.create_instance(gate).unwrap();
    let _ = ed.instance_bbox(i).unwrap(); // miss
    let _ = ed.instance_bbox(i).unwrap(); // hit
    let saved = ed.stats();
    assert!(saved.cache_hits >= 1 && saved.cache_misses >= 1);
    let decoded = crate::decode_session(&crate::encode_session(&ed).unwrap()).unwrap();
    assert_eq!(decoded.stats(), saved);
    let i = decoded.find_instance("I0").unwrap();
    let _ = decoded.instance_bbox(i).unwrap(); // miss in the fresh cache
    let s = decoded.stats();
    assert_eq!(s.cache_hits, saved.cache_hits);
    assert_eq!(s.cache_misses, saved.cache_misses + 1, "adds, not resets");
}

#[test]
fn suspend_resume_round_trip_matches_uninterrupted_session() {
    // Run the same command list straight through one editor, and
    // through a session that is suspended to its snapshot payload and
    // resumed by decoding it between every command; the final
    // observable state must be identical.
    let list = vec![
        Command::Create {
            cell: "gate".into(),
            instance: "G0".into(),
        },
        Command::Create {
            cell: "driver".into(),
            instance: "D0".into(),
        },
        Command::Translate {
            instance: "D0".into(),
            d: Point::new(-20 * LAMBDA, 0),
        },
        Command::Connect {
            from: "G0".into(),
            from_connector: "A".into(),
            to: "D0".into(),
            to_connector: "X".into(),
        },
        Command::Undo,
        Command::Redo,
    ];

    let (mut lib_a, _gate_a, _driver_a) = setup();
    let mut ed_a = Editor::open(&mut lib_a, "TOP").unwrap();
    for c in &list {
        ed_a.execute(c.clone()).unwrap();
    }
    let text_a = ed_a.journal().to_text();
    let pending_a = ed_a.pending().len();
    let undo_a = ed_a.undo_depth();

    let round_trip =
        |ed: &Editor<'_>| crate::decode_session(&crate::encode_session(ed).unwrap()).unwrap();
    let (lib_b, _gate_b, _driver_b) = setup();
    let mut ed_b = round_trip(&Editor::open_owned(lib_b, "TOP").unwrap());
    for c in &list {
        ed_b.execute(c.clone()).unwrap();
        ed_b = round_trip(&ed_b);
    }
    assert_eq!(ed_b.journal().to_text(), text_a);
    assert_eq!(ed_b.pending().len(), pending_a);
    assert_eq!(ed_b.undo_depth(), undo_a);
}
