//! Property tests for the undo/redo engine: any random command applied
//! to a session can be undone back to the prior library state, and
//! `undo; redo` is idempotent on the library. The actions reach every
//! command kind that grows the menu (route, stretch, bring-out) or
//! rewrites the cell header (finish).

use proptest::prelude::*;
use riot_core::{
    AbutOptions, Editor, InstanceId, Library, RiotError, RouteOptions, StretchOptions,
};
use riot_geom::{Orientation, Point, LAMBDA};

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

const DRIVER: &str = "\
sticks driver
bbox 0 0 10 20
pin X right NP 10 6 2
pin Y right NP 10 14 2
wire NP 2 0 6 10 6
wire NP 2 0 14 10 14
end
";

/// The two cells, and a `TOP` that already holds a gate to the right
/// of a driver, so the connection commands have something to connect.
fn fresh_library() -> Library {
    let mut lib = Library::new();
    let gate = lib.load_sticks(GATE).unwrap();
    let driver = lib.load_sticks(DRIVER).unwrap();
    let mut ed = Editor::open(&mut lib, "TOP").unwrap();
    let g = ed.create_instance(gate).unwrap();
    ed.create_instance(driver).unwrap();
    ed.translate_instance(g, Point::new(40 * LAMBDA, 0))
        .unwrap();
    drop(ed);
    lib
}

/// One random editing action, chosen by proptest.
#[derive(Debug, Clone)]
enum Action {
    Create(bool),
    Translate(usize, i64, i64),
    Orient(usize, u8),
    Replicate(usize, u32, u32),
    Spacing(usize, i64, i64),
    Delete(usize),
    Connect(usize, usize, bool),
    RemovePending(usize),
    ClearPending,
    Abut,
    Route(bool),
    Stretch,
    BringOut(usize),
    Finish,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    // Half the draws are the connection commands, so the ones that
    // consume the pending list often find it filled.
    prop_oneof![
        prop_oneof![
            (0usize..6, 0usize..6, prop::bool::ANY).prop_map(|(a, b, y)| Action::Connect(a, b, y)),
            Just(Action::Abut),
            prop::bool::ANY.prop_map(Action::Route),
            Just(Action::Stretch),
        ],
        prop_oneof![
            prop::bool::ANY.prop_map(Action::Create),
            (0usize..6, -40i64..40, -40i64..40).prop_map(|(i, x, y)| Action::Translate(
                i,
                x * LAMBDA,
                y * LAMBDA
            )),
            (0usize..6, 0u8..8).prop_map(|(i, o)| Action::Orient(i, o)),
            (0usize..6, 1u32..4, 1u32..4).prop_map(|(i, c, r)| Action::Replicate(i, c, r)),
            (0usize..6, 1i64..40, 1i64..40).prop_map(|(i, c, r)| Action::Spacing(
                i,
                c * LAMBDA,
                r * LAMBDA
            )),
            (0usize..6).prop_map(Action::Delete),
            (0usize..4).prop_map(Action::RemovePending),
            Just(Action::ClearPending),
            (0usize..6).prop_map(Action::BringOut),
            Just(Action::Finish),
        ],
    ]
}

fn pick(ed: &Editor<'_>, i: usize) -> Option<InstanceId> {
    pick_of(ed, "", i)
}

/// The `i`-th live instance (modulo) of a cell whose name starts with
/// `kind`; stretched gates (`gate'`) count as gates.
fn pick_of(ed: &Editor<'_>, kind: &str, i: usize) -> Option<InstanceId> {
    let live: Vec<InstanceId> = ed
        .instances()
        .into_iter()
        .filter(|(id, _)| ed.instance_cell(*id).unwrap().name.starts_with(kind))
        .map(|(id, _)| id)
        .collect();
    (!live.is_empty()).then(|| live[i % live.len()])
}

const ORIENTS: [Orientation; 8] = [
    Orientation::R0,
    Orientation::R90,
    Orientation::R180,
    Orientation::R270,
    Orientation::MX,
    Orientation::MX90,
    Orientation::MY,
    Orientation::MY90,
];

/// Applies one action; errors are fine (invalid geometry), panics are
/// not. Returns whether a command was actually issued.
fn apply(ed: &mut Editor<'_>, action: &Action) -> bool {
    let before = ed.undo_depth();
    let gate = ed.library().find("gate").unwrap();
    let driver = ed.library().find("driver").unwrap();
    let r: Result<(), RiotError> = (|| {
        match action {
            Action::Create(g) => {
                ed.create_instance(if *g { gate } else { driver })?;
            }
            Action::Translate(i, x, y) => {
                if let Some(id) = pick(ed, *i) {
                    ed.translate_instance(id, Point::new(*x, *y))?;
                }
            }
            Action::Orient(i, o) => {
                if let Some(id) = pick(ed, *i) {
                    ed.orient_instance(id, ORIENTS[*o as usize % 8])?;
                }
            }
            Action::Replicate(i, c, r) => {
                if let Some(id) = pick(ed, *i) {
                    ed.replicate_instance(id, *c, *r)?;
                }
            }
            Action::Spacing(i, c, r) => {
                if let Some(id) = pick(ed, *i) {
                    ed.set_spacing(id, *c, *r)?;
                }
            }
            Action::Delete(i) => {
                if let Some(id) = pick(ed, *i) {
                    ed.delete_instance(id)?;
                }
            }
            Action::Connect(a, b, y) => {
                if let (Some(f), Some(t)) = (pick_of(ed, "gate", *a), pick_of(ed, "driver", *b)) {
                    // A canonical gate->driver pairing; geometry may
                    // reject it, which is fine.
                    let (fc, tc) = if *y { ("B", "Y") } else { ("A", "X") };
                    let _ = ed.connect(f, fc, t, tc);
                }
            }
            Action::RemovePending(i) => ed.remove_pending(*i),
            Action::ClearPending => ed.clear_pending(),
            Action::Abut => {
                let _ = ed.abut(AbutOptions::default());
            }
            Action::Route(move_from) => {
                ed.route(RouteOptions {
                    move_from: *move_from,
                    ..RouteOptions::default()
                })?;
            }
            Action::Stretch => {
                ed.stretch(StretchOptions::default())?;
            }
            Action::BringOut(i) => {
                if let Some(id) = pick(ed, *i) {
                    // Gates (and their stretched copies) bring out OUT,
                    // drivers X, on whichever side it faces now.
                    let name = if ed.instance_cell(id)?.name.starts_with("gate") {
                        "OUT"
                    } else {
                        "X"
                    };
                    if let Some(side) = ed.world_connector(id, name)?.side {
                        ed.bring_out(id, &[name], side)?;
                    }
                }
            }
            Action::Finish => {
                ed.finish()?;
            }
        }
        Ok(())
    })();
    let _ = r;
    ed.undo_depth() > before
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `apply; undo` restores the exact prior library state.
    #[test]
    fn undo_restores_prior_state(
        setup in prop::collection::vec(action_strategy(), 0..8),
        action in action_strategy(),
    ) {
        let mut lib = fresh_library();
        let mut ed = Editor::open(&mut lib, "TOP").unwrap();
        for a in &setup {
            let _ = apply(&mut ed, a);
        }
        let before_lib = ed.library().clone();
        let before_pending = ed.pending().to_vec();
        let issued = apply(&mut ed, &action);
        if issued {
            prop_assert!(ed.undo().unwrap());
            prop_assert_eq!(ed.library(), &before_lib);
            prop_assert_eq!(ed.pending(), before_pending.as_slice());
        }
    }

    /// `undo; redo` lands back on the same library state.
    #[test]
    fn undo_redo_is_idempotent(
        setup in prop::collection::vec(action_strategy(), 1..10),
    ) {
        let mut lib = fresh_library();
        let mut ed = Editor::open(&mut lib, "TOP").unwrap();
        for a in &setup {
            let _ = apply(&mut ed, a);
        }
        let after_lib = ed.library().clone();
        let after_pending = ed.pending().to_vec();
        if ed.undo().unwrap() {
            prop_assert!(ed.redo().unwrap());
            prop_assert_eq!(ed.library(), &after_lib);
            prop_assert_eq!(ed.pending(), after_pending.as_slice());
        }
    }

    /// Undoing everything returns to the opening state.
    #[test]
    fn full_unwind_restores_opening_state(
        actions in prop::collection::vec(action_strategy(), 0..12),
    ) {
        let mut lib = fresh_library();
        let mut ed = Editor::open(&mut lib, "TOP").unwrap();
        let opening = ed.library().clone();
        for a in &actions {
            let _ = apply(&mut ed, a);
        }
        while ed.undo().unwrap() {}
        prop_assert_eq!(ed.library(), &opening);
        prop_assert!(ed.pending().is_empty());
    }
}
