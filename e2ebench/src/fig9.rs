//! The Fig 9 logic journal: the paper's filter logic block, assembled
//! command by command, as the journal a designer's session would send.
//!
//! [`journal`] repeats the construction of `riot::filter::assemble_logic`
//! step for step on the server's standard library, so the journal it
//! returns is exactly what a `riot-serve` session editing the same cell
//! receives. The translate offsets depend on the engine's own geometry
//! (each gate parks above the current extent), so the generator runs the
//! engine once and keeps the journal it recorded. The journal depends
//! only on the bit count and the style; the generator test pins it to
//! `riot::filter::build_logic`.

use riot::core::{AbutOptions, Editor, InstanceId, Journal, RiotError, RouteOptions};
use riot::core::{Library, StretchOptions};
use riot::filter::LogicStyle;
use riot::geom::{Point, Side, LAMBDA};

/// The composition cell the journal edits, named as
/// `riot::filter::build_logic` names it.
pub fn cell_name(style: LogicStyle) -> String {
    format!("logic_{}", style.name())
}

/// The full journal (`edit` head through `finish`) that assembles the
/// `bits`-bit logic block in `style`, against
/// [`riot::serve::standard_library`].
///
/// # Errors
///
/// Any engine error; with the stock cells none occur for valid `bits`.
///
/// # Panics
///
/// Panics when `bits` is not a power of two of at least 4.
pub fn journal(bits: usize, style: LogicStyle) -> Result<Journal, RiotError> {
    assert!(
        bits >= 4 && bits.is_power_of_two(),
        "bits must be a power of two >= 4"
    );
    let mut lib = riot::serve::standard_library();
    let mut ed = Editor::open(&mut lib, &cell_name(style))?;
    let (sr_cell, nand_cell, or_cell) = {
        let lib: &Library = ed.library();
        let find = |n: &str| lib.find(n).ok_or(RiotError::UnknownCell(n.into()));
        (find("shiftcell")?, find("nand2")?, find("or2")?)
    };

    let sr = ed.create_instance(sr_cell)?;
    ed.replicate_instance(sr, bits as u32, 1)?;

    let mut below: Vec<(InstanceId, String)> =
        (0..bits).map(|i| (sr, format!("TAP[{i},0]"))).collect();
    while below.len() >= 2 {
        let gate_cell = if below.len() == 2 { or_cell } else { nand_cell };
        let mut outputs = Vec::new();
        let mut prev_gate: Option<InstanceId> = None;
        for g in 0..below.len() / 2 {
            let inst = ed.create_instance(gate_cell)?;
            let parking = ed.current_extent()?;
            ed.translate_instance(
                inst,
                Point::new((g as i64) * 40 * LAMBDA, parking.y1 + 20 * LAMBDA),
            )?;
            ed.connect(inst, "A", below[2 * g].0, &below[2 * g].1)?;
            ed.connect(inst, "B", below[2 * g + 1].0, &below[2 * g + 1].1)?;
            match (style, prev_gate) {
                (LogicStyle::Routed, Some(prev)) => {
                    let keep = ed.pending().to_vec();
                    ed.clear_pending();
                    ed.connect(inst, "PWRL", prev, "PWRR")?;
                    ed.abut(AbutOptions::default())?;
                    for p in keep {
                        ed.connect(p.from, &p.from_connector, p.to, &p.to_connector)?;
                    }
                    ed.route(RouteOptions {
                        move_from: false,
                        ..RouteOptions::default()
                    })?;
                }
                (LogicStyle::Routed, None) => {
                    ed.route(RouteOptions::default())?;
                }
                (LogicStyle::Stretched, _) => {
                    ed.stretch(StretchOptions::default())?;
                }
            }
            prev_gate = Some(inst);
            outputs.push((inst, "OUT".to_owned()));
        }
        below = outputs;
    }

    let (top_gate, out) = below.pop().expect("one output remains");
    ed.bring_out(top_gate, &[&out], Side::Top)?;
    ed.finish()?;
    Ok(ed.journal().clone())
}
