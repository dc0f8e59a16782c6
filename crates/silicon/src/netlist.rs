//! Flat gate-level netlists.

use crate::gate::GateKind;
use std::collections::HashMap;

/// Identifier of a net (wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(u32);

impl NetId {
    /// Dense index of the net.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a `NetId` from an index previously obtained via
    /// [`NetId::index`].
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        NetId(u32::try_from(i).expect("net index exceeds u32"))
    }
}

/// Identifier of a cell (gate instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(u32);

impl CellId {
    /// Dense index of the cell.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A gate instance.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Instance name (unique).
    pub name: String,
    /// The primitive type.
    pub kind: GateKind,
    /// Input nets in pin order.
    pub inputs: Vec<NetId>,
    /// The single output net.
    pub output: NetId,
}

/// A named wire.
#[derive(Debug, Clone)]
pub struct Net {
    /// Net name (unique).
    pub name: String,
    /// Initial logic value at power-up (NCL circuits reset to all-NULL,
    /// i.e. `false`, except explicitly initialised token registers).
    pub initial: bool,
}

/// A flat netlist with named primary inputs and outputs.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    pub(crate) nets: Vec<Net>,
    pub(crate) cells: Vec<Cell>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
    net_names: HashMap<String, NetId>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Adds a net with power-up value `initial`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate net names (a generator bug).
    pub fn add_net(&mut self, name: impl Into<String>, initial: bool) -> NetId {
        let name = name.into();
        let id = NetId::from_index(self.nets.len());
        assert!(
            self.net_names.insert(name.clone(), id).is_none(),
            "duplicate net `{name}`"
        );
        self.nets.push(Net { name, initial });
        id
    }

    /// Adds a gate instance driving `output`.
    ///
    /// # Panics
    ///
    /// Panics if `output` is already driven by another cell.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        inputs: Vec<NetId>,
        output: NetId,
    ) -> CellId {
        assert!(
            !self.cells.iter().any(|c| c.output == output),
            "net `{}` already driven",
            self.nets[output.index()].name
        );
        let id = CellId(u32::try_from(self.cells.len()).expect("too many cells"));
        self.cells.push(Cell {
            name: name.into(),
            kind,
            inputs,
            output,
        });
        id
    }

    /// Declares `net` a primary input.
    pub fn mark_input(&mut self, net: NetId) {
        if !self.inputs.contains(&net) {
            self.inputs.push(net);
        }
    }

    /// Declares `net` a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of cells.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The net record.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The cell record.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// All cells.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Primary inputs.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Looks a net up by name.
    #[must_use]
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Total gate-equivalent area (sum of cell complexities) — the metric
    /// behind the "5% control-logic overhead" comparison of §IV.
    #[must_use]
    pub fn area(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.kind.complexity(c.inputs.len()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut nl = Netlist::new();
        let a = nl.add_net("a", false);
        let b = nl.add_net("b", false);
        let y = nl.add_net("y", false);
        nl.mark_input(a);
        nl.mark_input(b);
        nl.mark_output(y);
        nl.add_cell("u1", GateKind::C, vec![a, b], y);
        assert_eq!(nl.net_count(), 3);
        assert_eq!(nl.cell_count(), 1);
        assert_eq!(nl.net_by_name("y"), Some(y));
        assert!(nl.area() > 0.0);
        assert_eq!(nl.inputs(), &[a, b]);
        assert_eq!(nl.outputs(), &[y]);
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_driver_panics() {
        let mut nl = Netlist::new();
        let a = nl.add_net("a", false);
        let y = nl.add_net("y", false);
        nl.add_cell("u1", GateKind::Buf, vec![a], y);
        nl.add_cell("u2", GateKind::Buf, vec![a], y);
    }

    #[test]
    #[should_panic(expected = "duplicate net")]
    fn duplicate_net_panics() {
        let mut nl = Netlist::new();
        nl.add_net("x", false);
        nl.add_net("x", false);
    }
}
