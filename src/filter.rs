//! The paper's worked example: the four-bit sequential logical filter.
//!
//! "The chip being assembled in this example is a four-bit sequential
//! logical filter … A rough initial floorplan is shown in figure 7 …
//! The first step is to generate the shift register array. The array
//! elements abut, making the shift register chain connections as well
//! as power and ground connections. Next, two stages of NAND gates
//! provide the ANDing of the constant terms and the first level of ORs,
//! then routing is done to the OR gate. Connections to these gates are
//! routed in figure 9a. Alternatively, the designer may save area by
//! stretching the gates, eliminating the routing area (figure 9b)."
//!
//! [`build_logic`] assembles the filter's logic block either way;
//! [`build_chip`] adds the I/O pads (figure 10). Both return the
//! [`Library`] holding the finished composition so callers can measure,
//! render or export it, and `build_logic` also returns the journal that
//! built it, so callers can replay it on a fresh [`logic_menu`].

use riot_core::measure::{measure, AreaReport};
use riot_core::{AbutOptions, Editor, Journal, Library, RiotError, RouteOptions, StretchOptions};
use riot_geom::{Point, Side, LAMBDA};

/// How gate rows connect to the row below (paper figure 9a vs 9b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicStyle {
    /// River-route every inter-row connection (figure 9a).
    Routed,
    /// Stretch each gate to its inputs and abut (figure 9b).
    Stretched,
}

impl LogicStyle {
    /// Short name used in reports and file names.
    pub fn name(self) -> &'static str {
        match self {
            LogicStyle::Routed => "routed",
            LogicStyle::Stretched => "stretched",
        }
    }
}

/// A finished logic block plus its measurements.
#[derive(Debug)]
pub struct FilterLogic {
    /// The library holding `logic` and every cell it references.
    pub lib: Library,
    /// Name of the finished composition cell.
    pub cell: String,
    /// The figure-9 measurements.
    pub report: AreaReport,
    /// Every command the assembly ran, `edit` head first: replayed on
    /// a fresh [`logic_menu`], it rebuilds `cell`.
    pub journal: Journal,
}

/// The three-cell menu [`build_logic`] starts from: `shiftcell`,
/// `nand2` and `or2`.
///
/// # Errors
///
/// A stock cell that fails to load; none do.
pub fn logic_menu() -> Result<Library, RiotError> {
    let mut lib = Library::new();
    lib.add_sticks_cell(riot_cells::shift_register())?;
    lib.add_sticks_cell(riot_cells::nand2())?;
    lib.add_sticks_cell(riot_cells::or2())?;
    Ok(lib)
}

/// Assembles the filter's logic block: a `bits`-stage shift-register
/// array, a row of NAND gates pairing adjacent taps, reduction rows,
/// and the final OR, connected per `style`.
///
/// `bits` must be a power of two, at least 4.
///
/// # Errors
///
/// Any [`RiotError`] the assembly hits; with the stock cells none
/// occur for valid `bits`.
///
/// # Panics
///
/// Panics when `bits` is not a power of two or below 4.
pub fn build_logic(bits: usize, style: LogicStyle) -> Result<FilterLogic, RiotError> {
    assert!(
        bits >= 4 && bits.is_power_of_two(),
        "bits must be a power of two >= 4"
    );
    let mut lib = logic_menu()?;
    let cell = format!("logic_{}", style.name());
    let journal = assemble_logic(&mut lib, &cell, bits, style)?;
    let report = measure(&lib, &cell)?;
    Ok(FilterLogic {
        lib,
        cell,
        report,
        journal,
    })
}

/// Assembles the logic block into an existing library (cells
/// `shiftcell`, `nand2`, `or2` must be present) and returns the
/// journal its editor recorded.
///
/// # Errors
///
/// As [`build_logic`].
pub fn assemble_logic(
    lib: &mut Library,
    cell_name: &str,
    bits: usize,
    style: LogicStyle,
) -> Result<Journal, RiotError> {
    let sr_cell = lib
        .find("shiftcell")
        .ok_or(RiotError::UnknownCell("shiftcell".into()))?;
    let nand_cell = lib
        .find("nand2")
        .ok_or(RiotError::UnknownCell("nand2".into()))?;
    let or_cell = lib
        .find("or2")
        .ok_or(RiotError::UnknownCell("or2".into()))?;

    let mut ed = Editor::open(lib, cell_name)?;

    // 1. The shift-register array: elements connect by abutment.
    let sr = ed.create_instance(sr_cell)?;
    ed.replicate_instance(sr, bits as u32, 1)?;

    // 2. Gate rows, halving until one pair remains; the final row is
    //    the OR gate.
    //    Row r takes its inputs from `below`: (instance, connector) of
    //    each signal, left to right, all on one top edge.
    let mut below: Vec<(riot_core::InstanceId, String)> =
        (0..bits).map(|i| (sr, format!("TAP[{i},0]"))).collect();
    while below.len() >= 2 {
        let gate_cell = if below.len() == 2 { or_cell } else { nand_cell };
        let mut outputs = Vec::new();
        let gates = below.len() / 2;
        let mut prev_gate: Option<riot_core::InstanceId> = None;
        for g in 0..gates {
            let inst = ed.create_instance(gate_cell)?;
            // Park the new gate above everything so its connectors face
            // down at the row below.
            let parking = ed.current_extent()?;
            ed.translate_instance(
                inst,
                Point::new((g as i64) * 40 * LAMBDA, parking.y1 + 20 * LAMBDA),
            )?;
            ed.connect(inst, "A", below[2 * g].0, &below[2 * g].1)?;
            ed.connect(inst, "B", below[2 * g + 1].0, &below[2 * g + 1].1)?;
            match style {
                LogicStyle::Routed => {
                    if let Some(prev) = prev_gate {
                        // Later gates in a row share the channel the
                        // first gate opened: abut to the previous gate
                        // first, then route in place.
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
                    } else {
                        ed.route(RouteOptions::default())?;
                    }
                }
                LogicStyle::Stretched => {
                    ed.stretch(StretchOptions::default())?;
                }
            }
            prev_gate = Some(inst);
            outputs.push((inst, "OUT".to_owned()));
        }
        below = outputs;
    }

    // 3. Bring the final output up to the cell boundary and finish.
    let (top_gate, out) = below.pop().expect("one output remains");
    ed.bring_out(top_gate, &[&out], Side::Top)?;
    ed.finish()?;
    Ok(ed.journal().clone())
}

/// The finished chip of figure 10: the logic block with serial-in and
/// serial-out pads routed to it.
#[derive(Debug)]
pub struct FilterChip {
    /// Library holding the chip and everything below it.
    pub lib: Library,
    /// Name of the chip composition cell.
    pub cell: String,
    /// The chip measurements.
    pub report: AreaReport,
}

/// Builds the full chip: logic block plus an input pad routed to the
/// shift register's serial input and an output pad routed from its
/// serial output ("pad routing is done in pieces with Riot's routing
/// command").
///
/// # Errors
///
/// As [`build_logic`].
///
/// # Panics
///
/// As [`build_logic`].
pub fn build_chip(bits: usize, style: LogicStyle) -> Result<FilterChip, RiotError> {
    let FilterLogic { mut lib, cell, .. } = build_logic(bits, style)?;
    lib.load_cif(&riot_cells::pads_cif())?;
    let chip_name = format!("chip_{}", style.name());
    {
        let logic_cell = lib.find(&cell).expect("logic cell exists");
        let padin = lib.find("padin").expect("pad library loaded");
        let padout = lib.find("padout").expect("pad library loaded");
        let mut ed = Editor::open(&mut lib, &chip_name)?;
        let logic = ed.create_instance(logic_cell)?;
        // Pads sit left and right of the logic block.
        let lb = ed.instance_bbox(logic)?;
        let pin = ed.create_instance(padin)?;
        ed.translate_instance(pin, Point::new(lb.x0 - 160 * LAMBDA, 0))?;
        let pout = ed.create_instance(padout)?;
        ed.translate_instance(pout, Point::new(lb.x1 + 60 * LAMBDA, 0))?;
        // Serial input: route the input pad's OUT to the SR chain SI.
        let si = find_connector(&ed, logic, "SI[")?;
        ed.connect(pin, "OUT", logic, &si)?;
        ed.route(RouteOptions::default())?;
        // Serial output: route the pad (it moves) from the SR SO.
        let so = find_connector(&ed, logic, "SO[")?;
        ed.connect(pout, "IN", logic, &so)?;
        ed.route(RouteOptions::default())?;
        ed.finish()?;
    }
    let report = measure(&lib, &chip_name)?;
    Ok(FilterChip {
        lib,
        cell: chip_name,
        report,
    })
}

fn find_connector(
    ed: &Editor<'_>,
    inst: riot_core::InstanceId,
    prefix: &str,
) -> Result<String, RiotError> {
    ed.world_connectors(inst)?
        .into_iter()
        .map(|c| c.name)
        .find(|n| n.starts_with(prefix))
        .ok_or_else(|| RiotError::UnknownConnector {
            instance: format!("{inst}"),
            connector: prefix.to_owned(),
        })
}
