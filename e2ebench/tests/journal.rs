//! The Fig 9 journal generator copies the construction in
//! `riot::filter`. Replaying its journal through the benchmark's own
//! reference path (text lines, `Editor::execute`) must build the same
//! block as `riot::filter::build_logic`, so any drift between the two
//! fails here.

use riot::core::measure::measure;
use riot::core::{command_to_line, Library};
use riot::filter::{build_logic, LogicStyle};
use riot_e2e_bench::{fig9, wire};

fn lines(bits: usize, style: LogicStyle) -> Vec<String> {
    fig9::journal(bits, style)
        .expect("the stock cells assemble")
        .commands()
        .iter()
        .map(command_to_line)
        .collect()
}

/// The cell's flattened mask, in a library-independent order.
fn flat_shapes(lib: &Library, cell: &str) -> Vec<String> {
    let cif = riot::core::export::to_cif(lib, cell).expect("exports");
    let mut shapes: Vec<String> = riot::cif::flatten(&cif)
        .expect("flattens")
        .iter()
        .map(|s| format!("{s:?}"))
        .collect();
    shapes.sort();
    shapes
}

#[test]
fn replayed_journals_measure_like_build_logic() {
    for style in [LogicStyle::Routed, LogicStyle::Stretched] {
        for bits in [4, 16, 64] {
            let cell = fig9::cell_name(style);
            let reference = wire::replay(&lines(bits, style), &cell).expect("journal replays");
            let replayed = measure(&reference.lib, &cell).expect("cell exists");
            let built = build_logic(bits, style).expect("filter builds");
            assert_eq!(replayed, built.report, "{bits} bits, {style:?}");
            // The report only sums areas; the masks must match shape for
            // shape too.
            assert_eq!(
                flat_shapes(&reference.lib, &cell),
                flat_shapes(&built.lib, &built.cell),
                "{bits} bits, {style:?}"
            );
        }
    }
}

#[test]
fn journals_are_fixed_by_bits_and_style() {
    assert_eq!(lines(16, LogicStyle::Routed), lines(16, LogicStyle::Routed));
    assert_ne!(
        lines(16, LogicStyle::Routed),
        lines(16, LogicStyle::Stretched)
    );
    let routed = lines(16, LogicStyle::Routed);
    assert!(routed.iter().any(|l| l.starts_with("route")));
    assert!(!routed.iter().any(|l| l.starts_with("stretch")));
    let stretched = lines(16, LogicStyle::Stretched);
    assert!(stretched.iter().any(|l| l.starts_with("stretch")));
    assert!(!stretched.iter().any(|l| l.starts_with("route")));
}
