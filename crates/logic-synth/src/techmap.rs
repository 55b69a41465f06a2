//! Technology mapping onto the LPE cell library.
//!
//! The logic processing elements execute two-input `AND/OR/XOR/XNOR/NAND/
//! NOR` plus `NOT/BUF` (§IV of the paper). Netlists built by this workspace
//! are two-input by construction, so mapping reduces to:
//!
//! * [`absorb_inverters`] — fuse `NOT(g)` into the negated gate (`NOT(AND)
//!   → NAND`, …) when the inner gate has no other consumer, shortening the
//!   critical path by one level per fusion;
//! * [`check_mapped`] — verify every node is an LPE-executable cell.

use lbnn_netlist::{Netlist, NetlistError, NodeId, Op};

/// Statistics reported by [`absorb_inverters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbsorbStats {
    /// Number of inverters fused into their driving gate.
    pub fused: usize,
}

/// Fuses single-fanout `gate → NOT` pairs into the negated gate.
///
/// A `NOT` whose fanin is a two-input gate that (a) drives only this `NOT`
/// and (b) does not itself drive a primary output is replaced by the
/// negated gate (`AND→NAND`, `OR→NOR`, `XOR→XNOR` and vice versa). Dead
/// inner gates are swept by the subsequent [`crate::strash`] pass.
pub fn absorb_inverters(netlist: &Netlist) -> (Netlist, AbsorbStats) {
    let fusable = fusable_inverters(netlist);
    let mut out = Netlist::new(netlist.name().to_string());
    let mut remap: Vec<NodeId> = Vec::with_capacity(netlist.len());
    let mut stats = AbsorbStats::default();

    for (id, node) in netlist.iter() {
        let new_id = match node.op() {
            Op::Input => out.add_input(netlist.node_name(id).unwrap_or("in").to_string()),
            Op::Not => {
                let src = node.fanins()[0];
                let src_node = netlist.node(src);
                if fusable(src) {
                    let neg = src_node.op().negated().expect("gate2 ops have negations");
                    let a = remap[src_node.fanins()[0].index()];
                    let b = remap[src_node.fanins()[1].index()];
                    stats.fused += 1;
                    out.add_gate2(neg, a, b)
                } else {
                    out.add_gate1(Op::Not, remap[src.index()])
                }
            }
            op => {
                let fanins: Vec<NodeId> = node.fanins().iter().map(|f| remap[f.index()]).collect();
                out.add_node(op, &fanins).expect("topo order preserved")
            }
        };
        remap.push(new_id);
    }
    for o in netlist.outputs() {
        out.add_output(remap[o.node.index()], o.name.clone());
    }
    (out, stats)
}

/// The predicate [`absorb_inverters`] fuses by: `true` for an inverter
/// input that is a two-input gate driving nothing but that inverter.
fn fusable_inverters(netlist: &Netlist) -> impl Fn(NodeId) -> bool + '_ {
    let fanout = netlist.fanout_counts();
    let mut po_driver = vec![false; netlist.len()];
    for o in netlist.outputs() {
        po_driver[o.node.index()] = true;
    }
    move |src| {
        netlist.node(src).op().is_gate2() && fanout[src.index()] == 1 && !po_driver[src.index()]
    }
}

/// `true` when [`absorb_inverters`] would fuse at least one inverter.
pub(crate) fn fuses_any(netlist: &Netlist) -> bool {
    let fusable = fusable_inverters(netlist);
    netlist
        .iter()
        .any(|(_, node)| node.op() == Op::Not && fusable(node.fanins()[0]))
}

/// Verifies the netlist uses only LPE-executable cells and is structurally
/// valid.
///
/// # Errors
///
/// Returns the first structural violation found (see
/// [`Netlist::validate`]); the cell-library check cannot fail for netlists
/// built through this workspace but guards externally parsed input.
pub fn check_mapped(netlist: &Netlist) -> Result<(), NetlistError> {
    netlist.validate()?;
    for (_, node) in netlist.iter() {
        // All `Op` variants are LPE-executable except `Input`, which is a
        // port, and arity is enforced by the arena; nothing more to check.
        debug_assert!(node.op() == Op::Input || node.op().is_executable());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_equiv(a: &Netlist, b: &Netlist) {
        let n = a.inputs().len();
        for m in 0..(1u64 << n) {
            let ins: Vec<bool> = (0..n).map(|v| m >> v & 1 != 0).collect();
            assert_eq!(a.eval_bools(&ins), b.eval_bools(&ins), "minterm {m:#b}");
        }
    }

    #[test]
    fn fuses_not_and_into_nand() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate2(Op::And, a, b);
        let y = nl.add_gate1(Op::Not, g);
        nl.add_output(y, "y");
        let (mapped, stats) = absorb_inverters(&nl);
        assert_eq!(stats.fused, 1);
        assert_eq!(mapped.node(mapped.outputs()[0].node).op(), Op::Nand);
        assert_equiv(&nl, &mapped);
    }

    #[test]
    fn keeps_inverter_when_gate_has_other_consumers() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate2(Op::Or, a, b);
        let n = nl.add_gate1(Op::Not, g);
        let z = nl.add_gate2(Op::Xor, g, n); // g consumed twice
        nl.add_output(z, "z");
        let (mapped, stats) = absorb_inverters(&nl);
        assert_eq!(stats.fused, 0);
        assert_equiv(&nl, &mapped);
    }

    #[test]
    fn keeps_inverter_when_gate_drives_po() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate2(Op::Xor, a, b);
        let y = nl.add_gate1(Op::Not, g);
        nl.add_output(g, "g");
        nl.add_output(y, "y");
        let (mapped, stats) = absorb_inverters(&nl);
        assert_eq!(stats.fused, 0, "fusing would orphan the PO");
        assert_equiv(&nl, &mapped);
    }

    #[test]
    fn check_mapped_accepts_all_built_netlists() {
        let nl = lbnn_netlist::random::RandomDag::strict(6, 4, 5).generate(3);
        assert!(check_mapped(&nl).is_ok());
    }
}
