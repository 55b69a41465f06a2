//! The netlist arena: nodes, edges, inputs and outputs of an FFCL block.

use std::fmt;

use crate::cell::Op;
use crate::error::NetlistError;

/// Identifier of a node inside one [`Netlist`] arena.
///
/// Ids are dense indices; nodes are stored in topological order (every
/// node's fanins have smaller ids), which the arena enforces at
/// construction time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Sentinel for "no node" (used for unused fanin slots).
    pub(crate) const NONE: NodeId = NodeId(u32::MAX);

    /// Creates a node id from a raw index.
    #[inline]
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index of this id.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node of the Boolean network: an operation plus up to two fanins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    op: Op,
    fanin: [NodeId; 2],
}

impl Node {
    /// The operation computed by this node.
    #[inline]
    pub fn op(&self) -> Op {
        self.op
    }

    /// The fanins of this node (0, 1 or 2 of them).
    #[inline]
    pub fn fanins(&self) -> &[NodeId] {
        &self.fanin[..self.op.arity()]
    }
}

/// A named primary output: a pointer to the driving node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Node driving this output.
    pub node: NodeId,
    /// Output port name.
    pub name: String,
}

/// A gate-level combinational netlist (an FFCL block).
///
/// Nodes live in an arena in topological order. Primary inputs are nodes
/// with [`Op::Input`]; primary outputs are named references to arbitrary
/// nodes. The same node may drive several outputs.
///
/// # Example
///
/// ```
/// use lbnn_netlist::{Netlist, Op};
/// let mut nl = Netlist::new("xor3");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let c = nl.add_input("c");
/// let ab = nl.add_gate2(Op::Xor, a, b);
/// let abc = nl.add_gate2(Op::Xor, ab, c);
/// nl.add_output(abc, "y");
/// assert_eq!(nl.gate_count(), 2);
/// assert_eq!(nl.eval_bools(&[true, false, true]), vec![false]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    names: Vec<Option<String>>,
    inputs: Vec<NodeId>,
    outputs: Vec<Output>,
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
            names: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input with the given port name and returns its id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.push(Op::Input, [NodeId::NONE; 2], Some(name.into()));
        self.inputs.push(id);
        id
    }

    /// Adds a constant node.
    pub fn add_const(&mut self, value: bool) -> NodeId {
        let op = if value { Op::Const1 } else { Op::Const0 };
        self.push(op, [NodeId::NONE; 2], None)
    }

    /// Adds a two-input gate.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a two-input operation or if a fanin id does not
    /// precede the new node (the arena is topologically ordered).
    pub fn add_gate2(&mut self, op: Op, a: NodeId, b: NodeId) -> NodeId {
        assert_eq!(op.arity(), 2, "{op} is not a two-input operation");
        self.check_fanin(a);
        self.check_fanin(b);
        self.push(op, [a, b], None)
    }

    /// Adds a single-input gate (`not` or `buf`).
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a single-input operation or the fanin id is
    /// out of range.
    pub fn add_gate1(&mut self, op: Op, a: NodeId) -> NodeId {
        assert_eq!(op.arity(), 1, "{op} is not a single-input operation");
        self.check_fanin(a);
        self.push(op, [a, NodeId::NONE], None)
    }

    /// Adds a gate with the fanin list matching the operation arity.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputArity`] when the fanin count does not
    /// match `op.arity()`, and [`NetlistError::InvalidNode`] when a fanin id
    /// is out of range.
    pub fn add_node(&mut self, op: Op, fanins: &[NodeId]) -> Result<NodeId, NetlistError> {
        if fanins.len() != op.arity() {
            return Err(NetlistError::InputArity {
                expected: op.arity(),
                got: fanins.len(),
            });
        }
        let mut f = [NodeId::NONE; 2];
        for (slot, &id) in f.iter_mut().zip(fanins) {
            if id.index() >= self.nodes.len() {
                return Err(NetlistError::InvalidNode { id });
            }
            *slot = id;
        }
        Ok(self.push(op, f, None))
    }

    /// Replaces the logic function of an existing gate, keeping its
    /// wiring intact.
    ///
    /// The target must be an executable non-constant cell and `op` must
    /// be executable with the same arity, so every fanin slot stays
    /// meaningful. This is the single-node primitive behind
    /// [`Netlist::apply_patches`](crate::PatchSet).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNode`] for out-of-range ids and
    /// [`NetlistError::BadPatch`] for illegal replacements.
    pub fn replace_op(&mut self, id: NodeId, op: Op) -> Result<(), NetlistError> {
        let Some(node) = self.nodes.get(id.index()) else {
            return Err(NetlistError::InvalidNode { id });
        };
        let old = node.op;
        if !old.is_executable() || old.arity() == 0 {
            return Err(NetlistError::BadPatch {
                id,
                reason: format!("{old} cells have no replaceable gate function"),
            });
        }
        if !op.is_executable() || op.arity() != old.arity() {
            return Err(NetlistError::BadPatch {
                id,
                reason: format!("cannot replace {old} ({} inputs) with {op}", old.arity()),
            });
        }
        self.nodes[id.index()].op = op;
        Ok(())
    }

    /// Declares `node` as a primary output with the given port name.
    pub fn add_output(&mut self, node: NodeId, name: impl Into<String>) {
        self.check_fanin(node);
        self.outputs.push(Output {
            node,
            name: name.into(),
        });
    }

    /// Assigns a debug/port name to a node (used by the Verilog writer).
    pub fn set_node_name(&mut self, node: NodeId, name: impl Into<String>) {
        self.names[node.index()] = Some(name.into());
    }

    /// The name assigned to a node, if any.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.names[node.index()].as_deref()
    }

    /// Total number of nodes (inputs + constants + gates).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the netlist has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of executable gate nodes (everything except primary inputs).
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op != Op::Input).count()
    }

    /// Number of two-input gate nodes.
    pub fn gate2_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.op.is_gate2()).count()
    }

    /// The primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The primary outputs, in declaration order.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Ids of all nodes, in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + use<> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Computes, for every node, the list of nodes it feeds.
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut fo = vec![Vec::new(); self.nodes.len()];
        for (id, node) in self.iter() {
            for &f in node.fanins() {
                fo[f.index()].push(id);
            }
        }
        fo
    }

    /// Computes, for every node, how many gate fanins reference it, plus one
    /// per primary output it drives.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut fc = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            for &f in node.fanins() {
                fc[f.index()] += 1;
            }
        }
        for out in &self.outputs {
            fc[out.node.index()] += 1;
        }
        fc
    }

    /// Validates structural invariants: fanin ids in range and topologically
    /// ordered, arity matching, and at least one output.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        for (id, node) in self.iter() {
            for &f in node.fanins() {
                if f.index() >= self.nodes.len() {
                    return Err(NetlistError::InvalidNode { id: f });
                }
                if f >= id {
                    return Err(NetlistError::Cyclic { on: id });
                }
            }
        }
        for out in &self.outputs {
            if out.node.index() >= self.nodes.len() {
                return Err(NetlistError::InvalidNode { id: out.node });
            }
        }
        Ok(())
    }

    /// Convenience scalar evaluation; see [`crate::eval`] for the
    /// bit-parallel form.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn eval_bools(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(
            inputs.len(),
            self.inputs.len(),
            "expected {} input values",
            self.inputs.len()
        );
        let mut value = vec![false; self.nodes.len()];
        for (i, &id) in self.inputs.iter().enumerate() {
            value[id.index()] = inputs[i];
        }
        for (id, node) in self.iter() {
            if node.op == Op::Input {
                continue;
            }
            let a = node.fanins().first().is_some_and(|f| value[f.index()]);
            let b = node.fanins().get(1).is_some_and(|f| value[f.index()]);
            value[id.index()] = node.op.eval_bit(a, b);
        }
        self.outputs.iter().map(|o| value[o.node.index()]).collect()
    }

    /// Extracts the transitive fanin cone of the given outputs as a fresh
    /// netlist (unused nodes dropped, ids re-densified).
    ///
    /// Output indices refer to `self.outputs()`. Inputs that do not feed the
    /// cone are dropped.
    ///
    /// # Panics
    ///
    /// Panics if an output index is out of range.
    pub fn extract_cone(&self, output_indices: &[usize]) -> Netlist {
        let mut keep = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = output_indices
            .iter()
            .map(|&i| self.outputs[i].node)
            .collect();
        while let Some(id) = stack.pop() {
            if keep[id.index()] {
                continue;
            }
            keep[id.index()] = true;
            for &f in self.node(id).fanins() {
                stack.push(f);
            }
        }
        let mut out = Netlist::new(self.name.clone());
        let mut remap = vec![NodeId::NONE; self.nodes.len()];
        for (id, node) in self.iter() {
            if !keep[id.index()] {
                continue;
            }
            let new_id = if node.op == Op::Input {
                out.add_input(self.node_name(id).unwrap_or("in").to_string())
            } else {
                let f: Vec<NodeId> = node.fanins().iter().map(|f| remap[f.index()]).collect();
                out.add_node(node.op, &f)
                    .expect("cone preserves topo order")
            };
            if node.op != Op::Input {
                if let Some(n) = self.node_name(id) {
                    out.set_node_name(new_id, n.to_string());
                }
            }
            remap[id.index()] = new_id;
        }
        for &i in output_indices {
            let o = &self.outputs[i];
            out.add_output(remap[o.node.index()], o.name.clone());
        }
        out
    }

    fn check_fanin(&self, id: NodeId) {
        assert!(
            id.index() < self.nodes.len(),
            "fanin {id:?} does not exist yet (arena is topologically ordered)"
        );
    }

    /// Room for `nodes` more nodes, so a reader that knows the count
    /// grows the arena once.
    pub(crate) fn reserve_nodes(&mut self, nodes: usize) {
        self.nodes.reserve_exact(nodes);
        self.names.reserve_exact(nodes);
    }

    fn push(&mut self, op: Op, fanin: [NodeId; 2], name: Option<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { op, fanin });
        self.names.push(name);
        id
    }
}

impl std::ops::Index<NodeId> for Netlist {
    type Output = Node;

    fn index(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mux() -> Netlist {
        // y = s ? b : a  ==  (s & b) | (~s & a)
        let mut nl = Netlist::new("mux");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let ns = nl.add_gate1(Op::Not, s);
        let t0 = nl.add_gate2(Op::And, s, b);
        let t1 = nl.add_gate2(Op::And, ns, a);
        let y = nl.add_gate2(Op::Or, t0, t1);
        nl.add_output(y, "y");
        nl
    }

    #[test]
    fn mux_truth_table() {
        let nl = mux();
        for bits in 0u8..8 {
            let s = bits & 1 != 0;
            let a = bits & 2 != 0;
            let b = bits & 4 != 0;
            let y = nl.eval_bools(&[s, a, b])[0];
            assert_eq!(y, if s { b } else { a }, "s={s} a={a} b={b}");
        }
    }

    #[test]
    fn counts() {
        let nl = mux();
        assert_eq!(nl.len(), 7);
        assert_eq!(nl.gate_count(), 4);
        assert_eq!(nl.gate2_count(), 3);
        assert_eq!(nl.inputs().len(), 3);
        assert_eq!(nl.outputs().len(), 1);
        assert!(!nl.is_empty());
    }

    #[test]
    fn validate_ok_and_no_outputs() {
        let nl = mux();
        assert!(nl.validate().is_ok());
        let mut empty = Netlist::new("e");
        empty.add_input("a");
        assert_eq!(empty.validate(), Err(NetlistError::NoOutputs));
    }

    #[test]
    fn fanouts_and_counts() {
        let nl = mux();
        let fo = nl.fanouts();
        // s feeds the NOT gate and the AND gate.
        assert_eq!(fo[0].len(), 2);
        let fc = nl.fanout_counts();
        // Output node drives only the PO.
        assert_eq!(fc[6], 1);
    }

    #[test]
    fn add_node_checks_arity() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        assert!(matches!(
            nl.add_node(Op::And, &[a]),
            Err(NetlistError::InputArity {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            nl.add_node(Op::Not, &[NodeId::new(99)]),
            Err(NetlistError::InvalidNode { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        nl.add_gate2(Op::And, a, NodeId::new(5));
    }

    #[test]
    fn cone_extraction_preserves_function() {
        let mut nl = mux();
        // Add a second, unrelated output.
        let a = nl.inputs()[1];
        let b = nl.inputs()[2];
        let extra = nl.add_gate2(Op::Xor, a, b);
        nl.add_output(extra, "z");

        let cone = nl.extract_cone(&[0]);
        assert_eq!(cone.outputs().len(), 1);
        assert!(cone.len() < nl.len());
        for bits in 0u8..8 {
            let s = bits & 1 != 0;
            let a = bits & 2 != 0;
            let b = bits & 4 != 0;
            assert_eq!(cone.eval_bools(&[s, a, b])[0], nl.eval_bools(&[s, a, b])[0]);
        }

        // The z-cone drops the unused select input.
        let zcone = nl.extract_cone(&[1]);
        assert_eq!(zcone.inputs().len(), 2);
    }

    #[test]
    fn output_can_be_input() {
        let mut nl = Netlist::new("wire");
        let a = nl.add_input("a");
        nl.add_output(a, "y");
        assert_eq!(nl.eval_bools(&[true]), vec![true]);
        assert_eq!(nl.eval_bools(&[false]), vec![false]);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn constants_evaluate() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let one = nl.add_const(true);
        let y = nl.add_gate2(Op::And, a, one);
        nl.add_output(y, "y");
        assert_eq!(nl.eval_bools(&[true]), vec![true]);
        assert_eq!(nl.eval_bools(&[false]), vec![false]);
    }
}
