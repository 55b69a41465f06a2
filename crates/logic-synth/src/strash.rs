//! Structural hashing, constant propagation and dead-code elimination.
//!
//! This is the workhorse cleanup pass of the synthesis pipeline ("run logic
//! minimization" in Fig 1 of the paper): identical gates are merged,
//! constants folded through the network, buffers and double inverters
//! collapsed, and unreachable gates dropped.

use std::collections::hash_map::Entry;

use lbnn_netlist::{IdHashMap, Netlist, NodeId, Op};

/// Statistics reported by [`strash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrashStats {
    /// Node count before the pass (including inputs).
    pub nodes_before: usize,
    /// Node count after the pass (including inputs).
    pub nodes_after: usize,
    /// Gates simplified by constant folding or algebraic rules.
    pub folded: usize,
    /// Gates merged with an identical existing gate.
    pub merged: usize,
}

/// One simplified node of the scratch network: the netlist's `Node`
/// without the arena's names and fanin checks.
#[derive(Clone, Copy)]
struct Cell {
    op: Op,
    fanin: [NodeId; 2],
}

impl Cell {
    fn fanins(&self) -> &[NodeId] {
        &self.fanin[..self.op.arity()]
    }
}

/// The scratch network simplified nodes go into (it may hold dead ones):
/// flat cells, hash-consed gates, one node per constant.
struct Scratch {
    cells: Vec<Cell>,
    /// `(scratch id, source id)` of every primary input, in order.
    inputs: Vec<(NodeId, NodeId)>,
    consts: [Option<NodeId>; 2],
    hash: IdHashMap<(Op, NodeId, NodeId), NodeId>,
}

impl Scratch {
    fn push(&mut self, op: Op, fanin: [NodeId; 2]) -> NodeId {
        let id = NodeId::new(self.cells.len() as u32);
        self.cells.push(Cell { op, fanin });
        id
    }

    fn cell(&self, id: NodeId) -> Cell {
        self.cells[id.index()]
    }

    fn get_const(&mut self, v: bool) -> NodeId {
        let idx = usize::from(v);
        if let Some(n) = self.consts[idx] {
            n
        } else {
            let op = if v { Op::Const1 } else { Op::Const0 };
            let n = self.push(op, [NodeId::new(0); 2]);
            self.consts[idx] = Some(n);
            n
        }
    }

    fn const_value(&self, id: NodeId) -> Option<bool> {
        match self.cell(id).op {
            Op::Const0 => Some(false),
            Op::Const1 => Some(true),
            _ => None,
        }
    }

    /// `true` if `a` is the inverter of `b`.
    fn is_not_of(&self, a: NodeId, b: NodeId) -> bool {
        let n = self.cell(a);
        n.op == Op::Not && n.fanin[0] == b
    }

    /// The hash-consed gate `op(a, b)`, and whether it existed already.
    fn gate(&mut self, op: Op, a: NodeId, b: NodeId) -> (NodeId, bool) {
        match self.hash.entry((op, a, b)) {
            Entry::Occupied(known) => (*known.get(), true),
            Entry::Vacant(slot) => {
                let n = NodeId::new(self.cells.len() as u32);
                slot.insert(n);
                self.cells.push(Cell { op, fanin: [a, b] });
                (n, false)
            }
        }
    }

    /// `NOT(x)` for a non-constant `x`: the inverter's input when `x` is
    /// one, else the hash-consed inverter.
    fn invert(&mut self, x: NodeId) -> NodeId {
        let n = self.cell(x);
        if n.op == Op::Not {
            n.fanin[0]
        } else {
            self.gate(Op::Not, x, x).0
        }
    }
}

/// Runs structural hashing over the netlist.
///
/// Applied rules, in order:
///
/// 1. buffer elision (`BUF(x) → x`) and double-inverter collapse,
/// 2. constant folding (`AND(x,0) → 0`, `XOR(x,1) → NOT x`, …),
/// 3. same-operand and complement rules (`AND(x,x) → x`, `OR(x,~x) → 1`, …),
/// 4. hash-consing of structurally identical gates (commutative inputs are
///    canonicalized),
/// 5. dead-node elimination (gates not reachable from any output are
///    dropped; primary inputs are always kept to preserve the interface).
pub fn strash(netlist: &Netlist) -> (Netlist, StrashStats) {
    let mut stats = StrashStats {
        nodes_before: netlist.len(),
        ..Default::default()
    };

    let mut scratch = Scratch {
        cells: Vec::with_capacity(netlist.len()),
        inputs: Vec::with_capacity(netlist.inputs().len()),
        consts: [None, None],
        hash: IdHashMap::with_capacity_and_hasher(netlist.len(), Default::default()),
    };
    let mut remap: Vec<NodeId> = Vec::with_capacity(netlist.len());

    for (id, node) in netlist.iter() {
        let new_id = match node.op() {
            Op::Input => {
                let n = scratch.push(Op::Input, [NodeId::new(0); 2]);
                scratch.inputs.push((n, id));
                n
            }
            Op::Const0 => scratch.get_const(false),
            Op::Const1 => scratch.get_const(true),
            Op::Buf => {
                stats.folded += 1;
                remap[node.fanins()[0].index()]
            }
            Op::Not => {
                let a = remap[node.fanins()[0].index()];
                if let Some(v) = scratch.const_value(a) {
                    stats.folded += 1;
                    scratch.get_const(!v)
                } else if scratch.cell(a).op == Op::Not {
                    // NOT(NOT(x)) = x
                    stats.folded += 1;
                    scratch.cell(a).fanin[0]
                } else {
                    let (n, existed) = scratch.gate(Op::Not, a, a);
                    stats.merged += usize::from(existed);
                    n
                }
            }
            op => {
                let mut a = remap[node.fanins()[0].index()];
                let mut b = remap[node.fanins()[1].index()];
                if op.is_commutative() && b < a {
                    std::mem::swap(&mut a, &mut b);
                }
                let ca = scratch.const_value(a);
                let cb = scratch.const_value(b);

                // Constant folding and algebraic rules. `simplified` is
                // Some(node) when the gate disappears.
                let simplified: Option<NodeId> = match (ca, cb) {
                    (Some(va), Some(vb)) => Some(scratch.get_const(op.eval_bit(va, vb))),
                    (Some(v), None) | (None, Some(v)) => {
                        let x = if ca.is_some() { b } else { a };
                        match (op, v) {
                            (Op::And, false) | (Op::Nor, true) => Some(scratch.get_const(false)),
                            (Op::Or, true) | (Op::Nand, false) => Some(scratch.get_const(true)),
                            (Op::And, true)
                            | (Op::Or, false)
                            | (Op::Xor, false)
                            | (Op::Xnor, true) => Some(x),
                            // These reduce to NOT(x).
                            (Op::Nand, true)
                            | (Op::Nor, false)
                            | (Op::Xor, true)
                            | (Op::Xnor, false) => Some(scratch.invert(x)),
                            _ => None,
                        }
                    }
                    (None, None) if a == b => Some(match op {
                        Op::And | Op::Or => a,
                        Op::Xor => scratch.get_const(false),
                        Op::Xnor => scratch.get_const(true),
                        Op::Nand | Op::Nor => scratch.invert(a),
                        _ => unreachable!("all gate2 ops covered"),
                    }),
                    (None, None) if scratch.is_not_of(a, b) || scratch.is_not_of(b, a) => {
                        Some(match op {
                            Op::And | Op::Nor | Op::Xnor => scratch.get_const(false),
                            Op::Or | Op::Nand | Op::Xor => scratch.get_const(true),
                            _ => unreachable!("all gate2 ops covered"),
                        })
                    }
                    _ => None,
                };

                match simplified {
                    Some(n) => {
                        stats.folded += 1;
                        n
                    }
                    None => {
                        let (n, existed) = scratch.gate(op, a, b);
                        stats.merged += usize::from(existed);
                        n
                    }
                }
            }
        };
        remap.push(new_id);
    }

    // Dead-node sweep: keep all PIs (interface stability) and every node
    // reachable from an output.
    let cells = &scratch.cells;
    let mut keep = vec![false; cells.len()];
    let mut stack: Vec<NodeId> = netlist
        .outputs()
        .iter()
        .map(|o| remap[o.node.index()])
        .collect();
    while let Some(id) = stack.pop() {
        if keep[id.index()] {
            continue;
        }
        keep[id.index()] = true;
        stack.extend_from_slice(cells[id.index()].fanins());
    }

    // Scratch id → output id; inputs in original order, always.
    let mut out = Netlist::new(netlist.name().to_string());
    let mut final_map: Vec<NodeId> = vec![NodeId::new(u32::MAX); cells.len()];
    for &(pi, source) in &scratch.inputs {
        final_map[pi.index()] =
            out.add_input(netlist.node_name(source).unwrap_or("in").to_string());
    }
    for (i, cell) in cells.iter().enumerate() {
        if cell.op == Op::Input || !keep[i] {
            continue;
        }
        let mut fanins = [NodeId::new(0); 2];
        for (slot, f) in fanins.iter_mut().zip(cell.fanins()) {
            *slot = final_map[f.index()];
        }
        final_map[i] = out
            .add_node(cell.op, &fanins[..cell.op.arity()])
            .expect("valid rebuild: kept fanins precede their readers");
    }
    for o in netlist.outputs() {
        out.add_output(final_map[remap[o.node.index()].index()], o.name.clone());
    }

    stats.nodes_after = out.len();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_netlist::random::RandomDag;

    fn assert_equiv(a: &Netlist, b: &Netlist) {
        assert_eq!(a.inputs().len(), b.inputs().len());
        let n = a.inputs().len();
        if n <= 12 {
            for m in 0..(1u64 << n) {
                let ins: Vec<bool> = (0..n).map(|v| m >> v & 1 != 0).collect();
                assert_eq!(a.eval_bools(&ins), b.eval_bools(&ins), "minterm {m:#b}");
            }
        } else {
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..256 {
                let ins: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
                assert_eq!(a.eval_bools(&ins), b.eval_bools(&ins));
            }
        }
    }

    #[test]
    fn merges_identical_gates() {
        let mut nl = Netlist::new("dup");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate2(Op::And, a, b);
        let g2 = nl.add_gate2(Op::And, b, a); // commutative duplicate
        let y = nl.add_gate2(Op::Xor, g1, g2); // x ^ x = 0
        nl.add_output(y, "y");
        let (opt, stats) = strash(&nl);
        assert!(stats.merged >= 1);
        // XOR(x, x) folds to constant 0.
        assert_eq!(opt.gate2_count(), 0);
        assert_equiv(&nl, &opt);
    }

    #[test]
    fn constant_folding_cascades() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let zero = nl.add_const(false);
        let g1 = nl.add_gate2(Op::And, a, zero); // = 0
        let g2 = nl.add_gate2(Op::Or, g1, a); // = a
        let g3 = nl.add_gate2(Op::Xnor, g2, g2); // = 1
        let y = nl.add_gate2(Op::And, g3, a); // = a
        nl.add_output(y, "y");
        let (opt, _) = strash(&nl);
        assert_eq!(opt.gate_count(), 0, "everything folds to the input");
        assert_equiv(&nl, &opt);
    }

    #[test]
    fn double_negation_and_buffers_collapse() {
        let mut nl = Netlist::new("nn");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n1 = nl.add_gate1(Op::Not, a);
        let buf = nl.add_gate1(Op::Buf, n1);
        let n2 = nl.add_gate1(Op::Not, buf);
        let y = nl.add_gate2(Op::And, n2, b);
        nl.add_output(y, "y");
        let (opt, _) = strash(&nl);
        assert_eq!(opt.gate_count(), 1, "just the AND survives");
        assert_equiv(&nl, &opt);
    }

    #[test]
    fn complement_rules() {
        let mut nl = Netlist::new("comp");
        let a = nl.add_input("a");
        let na = nl.add_gate1(Op::Not, a);
        let t = nl.add_gate2(Op::Or, a, na); // = 1
        let u = nl.add_gate2(Op::And, a, na); // = 0
        let y = nl.add_gate2(Op::Xor, t, u); // = 1
        nl.add_output(y, "y");
        let (opt, _) = strash(&nl);
        assert_eq!(opt.gate2_count(), 0);
        assert_equiv(&nl, &opt);
    }

    #[test]
    fn dead_nodes_are_swept_but_inputs_kept() {
        let mut nl = Netlist::new("dead");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let _dead = nl.add_gate2(Op::And, b, c);
        let y = nl.add_gate1(Op::Not, a);
        nl.add_output(y, "y");
        let (opt, _) = strash(&nl);
        assert_eq!(opt.inputs().len(), 3, "interface preserved");
        assert_eq!(opt.gate_count(), 1);
        assert_equiv(&nl, &opt);
    }

    #[test]
    fn random_netlists_stay_equivalent() {
        for seed in 0..8 {
            let nl = RandomDag::loose(8, 6, 10).outputs(4).generate(seed);
            let (opt, stats) = strash(&nl);
            assert!(stats.nodes_after <= stats.nodes_before);
            assert_equiv(&nl, &opt);
            // Idempotence: a second pass finds nothing new.
            let (opt2, stats2) = strash(&opt);
            assert_eq!(opt.len(), opt2.len());
            assert_eq!(stats2.folded, 0, "second pass folds nothing");
        }
    }

    #[test]
    fn nand_of_same_input_becomes_not() {
        let mut nl = Netlist::new("n");
        let a = nl.add_input("a");
        let y = nl.add_gate2(Op::Nand, a, a);
        nl.add_output(y, "y");
        let (opt, _) = strash(&nl);
        assert_eq!(opt.gate_count(), 1);
        assert_eq!(
            opt.node(opt.outputs()[0].node).op(),
            Op::Not,
            "NAND(x,x) = NOT x"
        );
        assert_equiv(&nl, &opt);
    }
}
