//! The symbolic cell model.

use crate::error::ValidateSticksError;
use riot_geom::{Layer, Orientation, Path, Point, Rect, Side};

/// A boundary pin of a symbolic cell — what Riot sees as a connector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    /// Pin name, unique within the cell.
    pub name: String,
    /// Which bounding-box side the pin sits on.
    pub side: Side,
    /// Wire layer of the connection.
    pub layer: Layer,
    /// Position on the lambda grid (must lie on `side` of the bbox).
    pub position: Point,
    /// Wire width in lambda.
    pub width: i64,
}

/// A symbolic wire: a Manhattan centerline on one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymWire {
    /// Wire layer.
    pub layer: Layer,
    /// Width in lambda.
    pub width: i64,
    /// Centerline on the lambda grid.
    pub path: Path,
}

/// Transistor flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// Enhancement-mode transistor.
    Enhancement,
    /// Depletion-mode (implanted) load.
    Depletion,
}

impl DeviceKind {
    /// Keyword used in the textual format.
    pub fn keyword(self) -> &'static str {
        match self {
            DeviceKind::Enhancement => "enh",
            DeviceKind::Depletion => "dep",
        }
    }
}

/// A transistor: poly crossing diffusion at a grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Device {
    /// Flavor (enhancement/depletion).
    pub kind: DeviceKind,
    /// Channel center on the lambda grid.
    pub position: Point,
    /// Orientation: R0 = poly runs vertically (gate crosses a horizontal
    /// diffusion run); other orientations rotate the structure.
    pub orient: Orientation,
}

/// Contact flavor (which layers the cut joins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactKind {
    /// Metal to diffusion.
    MetalDiffusion,
    /// Metal to poly.
    MetalPoly,
    /// Buried contact, poly to diffusion.
    Buried,
}

impl ContactKind {
    /// Keyword used in the textual format.
    pub fn keyword(self) -> &'static str {
        match self {
            ContactKind::MetalDiffusion => "md",
            ContactKind::MetalPoly => "mp",
            ContactKind::Buried => "bur",
        }
    }

    /// The two layers the contact joins.
    pub fn layers(self) -> (Layer, Layer) {
        match self {
            ContactKind::MetalDiffusion => (Layer::Metal, Layer::Diffusion),
            ContactKind::MetalPoly => (Layer::Metal, Layer::Poly),
            ContactKind::Buried => (Layer::Poly, Layer::Diffusion),
        }
    }
}

/// An inter-layer contact at a grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contact {
    /// Which layers are joined.
    pub kind: ContactKind,
    /// Cut center on the lambda grid.
    pub position: Point,
}

/// A symbolic (Sticks) cell on the lambda grid.
///
/// Use [`SticksCell::new`] then the `push_*` methods, or parse the
/// textual format with [`crate::parse`](fn@crate::parse).
/// [`SticksCell::validate`] checks the invariants Riot relies on (pins
/// on the boundary, routable pin layers, geometry inside the bbox).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SticksCell {
    name: String,
    bbox: Rect,
    pins: Vec<Pin>,
    wires: Vec<SymWire>,
    devices: Vec<Device>,
    contacts: Vec<Contact>,
}

impl SticksCell {
    /// Creates an empty cell with an explicit lambda-grid bounding box.
    pub fn new(name: impl Into<String>, bbox: Rect) -> Self {
        SticksCell {
            name: name.into(),
            bbox,
            pins: Vec::new(),
            wires: Vec::new(),
            devices: Vec::new(),
            contacts: Vec::new(),
        }
    }

    /// Cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the cell (stretching derives `name'` cells).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Bounding box on the lambda grid.
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Replaces the bounding box (stretching grows it).
    pub fn set_bbox(&mut self, bbox: Rect) {
        self.bbox = bbox;
    }

    /// The boundary pins.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }

    /// Mutable access to the pins (REST moves them when stretching).
    pub fn pins_mut(&mut self) -> &mut [Pin] {
        &mut self.pins
    }

    /// The symbolic wires.
    pub fn wires(&self) -> &[SymWire] {
        &self.wires
    }

    /// Mutable access to the wires.
    pub fn wires_mut(&mut self) -> &mut Vec<SymWire> {
        &mut self.wires
    }

    /// The transistors.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Mutable access to the transistors.
    pub fn devices_mut(&mut self) -> &mut [Device] {
        &mut self.devices
    }

    /// The contacts.
    pub fn contacts(&self) -> &[Contact] {
        &self.contacts
    }

    /// Mutable access to the contacts.
    pub fn contacts_mut(&mut self) -> &mut [Contact] {
        &mut self.contacts
    }

    /// Adds a pin.
    pub fn push_pin(&mut self, pin: Pin) {
        self.pins.push(pin);
    }

    /// Adds a wire.
    pub fn push_wire(&mut self, wire: SymWire) {
        self.wires.push(wire);
    }

    /// Adds a device.
    pub fn push_device(&mut self, device: Device) {
        self.devices.push(device);
    }

    /// Adds a contact.
    pub fn push_contact(&mut self, contact: Contact) {
        self.contacts.push(contact);
    }

    /// Looks up a pin by name.
    pub fn pin(&self, name: &str) -> Option<&Pin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// Pins on one side, sorted by their coordinate along that side.
    pub fn pins_on_side(&self, side: Side) -> Vec<&Pin> {
        let mut pins: Vec<&Pin> = self.pins.iter().filter(|p| p.side == side).collect();
        pins.sort_by_key(|p| side.along(p.position));
        pins
    }

    /// Checks the invariants Riot relies on.
    ///
    /// # Errors
    ///
    /// * a pin not on its declared bounding-box side;
    /// * a pin on a non-routable layer, or with non-positive width;
    /// * duplicate pin names;
    /// * wires/devices/contacts outside the bounding box;
    /// * a wire with non-positive width.
    pub fn validate(&self) -> Result<(), ValidateSticksError> {
        let mut seen = std::collections::HashSet::new();
        for pin in &self.pins {
            if !seen.insert(pin.name.as_str()) {
                return Err(ValidateSticksError::DuplicatePin(pin.name.clone()));
            }
            if !pin.layer.is_routable() {
                return Err(ValidateSticksError::BadPinLayer {
                    pin: pin.name.clone(),
                    layer: pin.layer,
                });
            }
            if pin.width <= 0 {
                return Err(ValidateSticksError::BadPinWidth {
                    pin: pin.name.clone(),
                    width: pin.width,
                });
            }
            let on_side = match pin.side {
                Side::Left => pin.position.x == self.bbox.x0,
                Side::Right => pin.position.x == self.bbox.x1,
                Side::Bottom => pin.position.y == self.bbox.y0,
                Side::Top => pin.position.y == self.bbox.y1,
            };
            if !on_side || !self.bbox.contains(pin.position) {
                return Err(ValidateSticksError::PinOffSide {
                    pin: pin.name.clone(),
                    side: pin.side,
                });
            }
        }
        for (i, wire) in self.wires.iter().enumerate() {
            if wire.width <= 0 {
                return Err(ValidateSticksError::BadWireWidth {
                    index: i,
                    width: wire.width,
                });
            }
            for &p in wire.path.points() {
                if !self.bbox.contains(p) {
                    return Err(ValidateSticksError::OutsideBbox {
                        what: "wire vertex",
                        at: p,
                    });
                }
            }
        }
        for d in &self.devices {
            if !self.bbox.contains(d.position) {
                return Err(ValidateSticksError::OutsideBbox {
                    what: "device",
                    at: d.position,
                });
            }
        }
        for c in &self.contacts {
            if !self.bbox.contains(c.position) {
                return Err(ValidateSticksError::OutsideBbox {
                    what: "contact",
                    at: c.position,
                });
            }
        }
        Ok(())
    }

    /// Width and height of the cell in lambda.
    pub fn size(&self) -> (i64, i64) {
        (self.bbox.width(), self.bbox.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> SticksCell {
        let mut c = SticksCell::new("t", Rect::new(0, 0, 10, 10));
        c.push_pin(Pin {
            name: "A".into(),
            side: Side::Left,
            layer: Layer::Poly,
            position: Point::new(0, 5),
            width: 2,
        });
        c.push_wire(SymWire {
            layer: Layer::Poly,
            width: 2,
            path: Path::from_points([Point::new(0, 5), Point::new(10, 5)]).unwrap(),
        });
        c
    }

    #[test]
    fn valid_cell_passes() {
        assert!(cell().validate().is_ok());
    }

    #[test]
    fn pin_off_side_rejected() {
        let mut c = cell();
        c.pins_mut()[0].position = Point::new(1, 5);
        assert!(matches!(
            c.validate(),
            Err(ValidateSticksError::PinOffSide { .. })
        ));
    }

    #[test]
    fn duplicate_pin_rejected() {
        let mut c = cell();
        let dup = c.pins()[0].clone();
        c.push_pin(dup);
        assert!(matches!(
            c.validate(),
            Err(ValidateSticksError::DuplicatePin(_))
        ));
    }

    #[test]
    fn contact_layer_pin_rejected() {
        let mut c = cell();
        c.pins_mut()[0].layer = Layer::Contact;
        assert!(matches!(
            c.validate(),
            Err(ValidateSticksError::BadPinLayer { .. })
        ));
    }

    #[test]
    fn wire_outside_bbox_rejected() {
        let mut c = cell();
        c.push_wire(SymWire {
            layer: Layer::Metal,
            width: 3,
            path: Path::from_points([Point::new(0, 0), Point::new(0, 50)]).unwrap(),
        });
        assert!(matches!(
            c.validate(),
            Err(ValidateSticksError::OutsideBbox { .. })
        ));
    }

    #[test]
    fn pins_on_side_sorted() {
        let mut c = SticksCell::new("t", Rect::new(0, 0, 10, 10));
        for (name, y) in [("B", 8), ("A", 2), ("C", 5)] {
            c.push_pin(Pin {
                name: name.into(),
                side: Side::Left,
                layer: Layer::Metal,
                position: Point::new(0, y),
                width: 3,
            });
        }
        let names: Vec<_> = c
            .pins_on_side(Side::Left)
            .iter()
            .map(|p| p.name.clone())
            .collect();
        assert_eq!(names, ["A", "C", "B"]);
        assert!(c.pins_on_side(Side::Right).is_empty());
    }

    #[test]
    fn contact_kind_layers() {
        assert_eq!(
            ContactKind::Buried.layers(),
            (Layer::Poly, Layer::Diffusion)
        );
    }
}
