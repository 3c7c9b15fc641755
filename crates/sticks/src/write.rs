//! Writer for the textual Sticks format.

use crate::cell::SticksCell;
use riot_geom::Orientation;
use std::fmt::Write as _;

/// Renders a [`SticksCell`] as its textual form.
///
/// The output is accepted by [`crate::parse`](fn@crate::parse) and
/// round-trips to an equal cell (property tested).
pub fn to_text(cell: &SticksCell) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "sticks {}", cell.name());
    let bb = cell.bbox();
    let _ = writeln!(out, "bbox {} {} {} {}", bb.x0, bb.y0, bb.x1, bb.y1);
    for p in cell.pins() {
        let _ = writeln!(
            out,
            "pin {} {} {} {} {} {}",
            p.name, p.side, p.layer, p.position.x, p.position.y, p.width
        );
    }
    for w in cell.wires() {
        let _ = write!(out, "wire {} {}", w.layer, w.width);
        for pt in w.path.points() {
            let _ = write!(out, " {} {}", pt.x, pt.y);
        }
        out.push('\n');
    }
    for d in cell.devices() {
        let _ = write!(
            out,
            "dev {} {} {}",
            d.kind.keyword(),
            d.position.x,
            d.position.y
        );
        if d.orient != Orientation::R0 {
            let _ = write!(out, " {}", d.orient);
        }
        out.push('\n');
    }
    for c in cell.contacts() {
        let _ = writeln!(
            out,
            "contact {} {} {}",
            c.kind.keyword(),
            c.position.x,
            c.position.y
        );
    }
    out.push_str("end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Contact, ContactKind, Device, DeviceKind, Pin, SymWire};
    use crate::parse::parse;
    use riot_geom::{Layer, Path, Point, Rect, Side};

    fn sample() -> SticksCell {
        let mut c = SticksCell::new("demo", Rect::new(0, 0, 12, 16));
        c.push_pin(Pin {
            name: "IN".into(),
            side: Side::Left,
            layer: Layer::Poly,
            position: Point::new(0, 8),
            width: 2,
        });
        c.push_wire(SymWire {
            layer: Layer::Poly,
            width: 2,
            path: Path::from_points([Point::new(0, 8), Point::new(6, 8), Point::new(6, 12)])
                .unwrap(),
        });
        c.push_device(Device {
            kind: DeviceKind::Depletion,
            position: Point::new(6, 12),
            orient: riot_geom::Orientation::R90,
        });
        c.push_contact(Contact {
            kind: ContactKind::MetalPoly,
            position: Point::new(6, 14),
        });
        c
    }

    #[test]
    fn round_trip() {
        let c = sample();
        let text = to_text(&c);
        let again = parse(&text).unwrap();
        assert_eq!(c, again);
    }

    #[test]
    fn output_is_line_per_element() {
        let text = to_text(&sample());
        // header + bbox + 1 pin + 1 wire + 1 dev + 1 contact + end
        assert_eq!(text.lines().count(), 7);
    }
}
