//! Design-rule checking the assembled filter — the "extensive
//! checking" the paper's users performed by hand, automated.

use riot::cif::FlatShape;
use riot::drc::{check, RuleSet, Violation};
use riot::filter::{build_logic, LogicStyle};

/// The flattened mask of the `bits`-bit filter logic.
fn flat_block(bits: usize, style: LogicStyle) -> Vec<FlatShape> {
    let logic = build_logic(bits, style).expect("assembles");
    let cif = riot::core::export::to_cif(&logic.lib, &logic.cell).expect("exports");
    riot::cif::flatten(&cif).expect("flattens")
}

fn violations(style: LogicStyle) -> Vec<Violation> {
    check(&flat_block(4, style), &RuleSet::nmos())
}

#[test]
fn check_equals_naive_on_both_blocks_at_64_bits() {
    // The routed block's river-route jogs overlap on shared poly
    // tracks, so its poly holds many close pairs; the all-pairs
    // reference must agree on both blocks, violation for violation.
    let sorted = |v: Vec<Violation>| {
        let mut keys: Vec<String> = v.iter().map(|v| format!("{v:?}")).collect();
        keys.sort();
        keys
    };
    let rules = RuleSet::nmos();
    for style in [LogicStyle::Routed, LogicStyle::Stretched] {
        let flat = flat_block(64, style);
        assert_eq!(
            sorted(check(&flat, &rules)),
            sorted(riot_drc::naive::check(&flat, &rules)),
            "{style:?}"
        );
    }
}

#[test]
fn stretched_assembly_is_drc_clean() {
    let v = violations(LogicStyle::Stretched);
    assert!(v.is_empty(), "stretched logic has violations: {v:?}");
}

#[test]
fn routed_assembly_has_only_the_known_corner_case() {
    // One residual diagonal-corner proximity remains in the routed
    // assembly: two unconnected diffusion features 2λ apart in both
    // axes (2.8λ Euclidean). Many production NMOS decks relax the
    // corner-to-corner rule to exactly this case; we pin it so any
    // regression that adds real violations fails loudly.
    let v = violations(LogicStyle::Routed);
    assert!(v.len() <= 1, "routed logic regressed: {v:?}");
    for violation in &v {
        match violation {
            Violation::Spacing {
                measured, required, ..
            } => {
                assert_eq!(*measured, 500, "only the documented 2λ corner case");
                assert_eq!(*required, 750);
            }
            Violation::Width { .. } => panic!("no width violations expected: {violation}"),
        }
    }
}

#[test]
fn every_leaf_cell_is_drc_clean_alone() {
    let mut lib = riot::core::Library::new();
    lib.load_cif(&riot::cells::pads_cif()).unwrap();
    lib.add_sticks_cell(riot::cells::shift_register()).unwrap();
    lib.add_sticks_cell(riot::cells::nand2()).unwrap();
    lib.add_sticks_cell(riot::cells::or2()).unwrap();
    lib.add_sticks_cell(riot::cells::pipe_corner(riot::geom::Layer::Metal, 3))
        .unwrap();
    for (_, cell) in lib.iter() {
        let name = cell.name.clone();
        let shapes: Vec<riot::cif::FlatShape> = match &cell.kind {
            riot::core::CellKind::Leaf(riot::core::LeafSource::Cif { shapes }) => shapes
                .iter()
                .map(|s| riot::cif::FlatShape {
                    layer: s.layer,
                    geometry: s.geometry.clone(),
                    depth: 0,
                })
                .collect(),
            riot::core::CellKind::Leaf(riot::core::LeafSource::Sticks(sticks)) => {
                riot_sticks_shapes(sticks)
            }
            _ => continue,
        };
        let v = check(&shapes, &RuleSet::nmos());
        assert!(v.is_empty(), "cell `{name}` has violations: {v:?}");
    }
}

fn riot_sticks_shapes(sticks: &riot::sticks::SticksCell) -> Vec<riot::cif::FlatShape> {
    riot::sticks::mask::to_cif_cell(sticks, 1)
        .shapes
        .into_iter()
        .map(|s| riot::cif::FlatShape {
            layer: s.layer,
            geometry: s.geometry,
            depth: 0,
        })
        .collect()
}

#[test]
fn abutted_rows_stay_clean() {
    // The rail-inset discipline: stacking rows keeps the metal rules.
    let mut lib = riot::core::Library::new();
    let sr = lib.add_sticks_cell(riot::cells::shift_register()).unwrap();
    let mut ed = riot::core::Editor::open(&mut lib, "STACK").unwrap();
    let a = ed.create_instance(sr).unwrap();
    ed.replicate_instance(a, 4, 2).unwrap(); // a 4x2 abutting array
    ed.finish().unwrap();
    drop(ed);
    let cif = riot::core::export::to_cif(&lib, "STACK").unwrap();
    let flat = riot::cif::flatten(&cif).unwrap();
    let v = check(&flat, &RuleSet::nmos());
    assert!(v.is_empty(), "stacked array violations: {v:?}");
}
