//! Parameterized cell generators for size sweeps.
//!
//! [`comb`] builds a cell with any number of pins at any pitch, so
//! tests can pose routing and stretching problems of any width.

use riot_geom::{Layer, Path, Point, Rect, Side};
use riot_sticks::{Pin, SticksCell, SymWire};

/// A comb cell: `n` poly fingers entering on one `side` at `pitch`
/// lambda apart, each wired `depth` lambda into the cell. Used to build
/// arbitrarily wide routing and stretching problems.
///
/// Pins are named `P0…P(n-1)` in increasing coordinate order.
///
/// # Panics
///
/// Panics for `n == 0` or a pitch below the poly design rule (4λ).
pub fn comb(name: &str, side: Side, n: usize, pitch: i64) -> SticksCell {
    assert!(n > 0, "comb needs at least one finger");
    assert!(pitch >= 4, "pitch {pitch} below poly pitch");
    let extent = pitch * (n as i64 + 1);
    let depth = 8;
    let bbox = if side.is_vertical() {
        Rect::new(0, 0, depth * 2, extent)
    } else {
        Rect::new(0, 0, extent, depth * 2)
    };
    let mut cell = SticksCell::new(name, bbox);
    for i in 0..n {
        let along = pitch * (i as i64 + 1);
        let (pos, inner) = match side {
            Side::Left => (Point::new(0, along), Point::new(depth, along)),
            Side::Right => (
                Point::new(bbox.x1, along),
                Point::new(bbox.x1 - depth, along),
            ),
            Side::Bottom => (Point::new(along, 0), Point::new(along, depth)),
            Side::Top => (
                Point::new(along, bbox.y1),
                Point::new(along, bbox.y1 - depth),
            ),
        };
        cell.push_pin(Pin {
            name: format!("P{i}"),
            side,
            layer: Layer::Poly,
            position: pos,
            width: 2,
        });
        cell.push_wire(SymWire {
            layer: Layer::Poly,
            width: 2,
            path: Path::from_points([pos, inner]).expect("straight finger"),
        });
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combs_validate_on_all_sides() {
        for side in Side::ALL {
            let c = comb("c", side, 5, 6);
            c.validate().unwrap();
            assert_eq!(c.pins().len(), 5);
        }
    }

    #[test]
    fn comb_pins_ordered() {
        let c = comb("c", Side::Left, 4, 5);
        let pins = c.pins_on_side(Side::Left);
        let names: Vec<&str> = pins.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["P0", "P1", "P2", "P3"]);
        assert_eq!(pins[1].position.y - pins[0].position.y, 5);
    }

    #[test]
    #[should_panic]
    fn tight_pitch_panics() {
        let _ = comb("c", Side::Left, 3, 2);
    }
}
