//! Full path balancing (FPB, §II/§IV of the paper).
//!
//! FPB equalizes the logic depth of all propagation paths from primary
//! inputs to primary outputs by inserting `BUFFER` nodes, so that every
//! PI→PO path crosses the same number of gates. After balancing, no data
//! dependency exists between two non-adjacent logic levels, which is what
//! lets the compiler map one logic level per logic processing vector.

use crate::cell::Op;
use crate::levelize::Levels;
use crate::netlist::{Netlist, NodeId};

/// Statistics reported by [`balance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BalanceStats {
    /// Number of buffer nodes inserted on internal edges.
    pub edge_buffers: usize,
    /// Number of buffer nodes inserted to lift primary outputs to `Lmax`.
    pub output_buffers: usize,
}

impl BalanceStats {
    /// Total buffers inserted.
    pub fn total(&self) -> usize {
        self.edge_buffers + self.output_buffers
    }
}

/// Fully path-balances a netlist, returning the balanced netlist and
/// insertion statistics.
///
/// Buffer chains are shared: if node `u` at level 2 feeds consumers at
/// levels 5 and 7, the chain `u→b3→b4` is built once and the level-7
/// consumer continues `b4→b5→b6`.
///
/// The result satisfies [`Levels::is_fully_balanced`].
pub fn balance(netlist: &Netlist) -> (Netlist, BalanceStats) {
    let levels = Levels::compute(netlist);
    let lmax = levels.max_level();
    let mut out = Netlist::new(netlist.name().to_string());
    let mut stats = BalanceStats::default();

    // For each original node: the chain of buffered copies, indexed by level
    // offset. `copies[id][k]` is the new node carrying the value of `id` at
    // level `level(id) + k`.
    let mut copies: Vec<Vec<NodeId>> = vec![Vec::new(); netlist.len()];

    for (id, node) in netlist.iter() {
        let new_id = if node.op() == Op::Input {
            out.add_input(netlist.node_name(id).unwrap_or("in").to_string())
        } else {
            let target = levels.level(id);
            let f: Vec<NodeId> = node
                .fanins()
                .iter()
                .map(|&f| lift(&mut out, &mut copies, &levels, f, target - 1, &mut stats))
                .collect();
            let nid = out.add_node(node.op(), &f).expect("topo order preserved");
            if let Some(n) = netlist.node_name(id) {
                out.set_node_name(nid, n.to_string());
            }
            nid
        };
        copies[id.index()].push(new_id);
    }

    for o in netlist.outputs() {
        let before = stats.edge_buffers;
        let lifted = lift(&mut out, &mut copies, &levels, o.node, lmax, &mut stats);
        stats.output_buffers += stats.edge_buffers - before;
        stats.edge_buffers = before;
        out.add_output(lifted, o.name.clone());
    }

    (out, stats)
}

/// Returns the copy of `id` at level `target`, building buffers as needed.
fn lift(
    out: &mut Netlist,
    copies: &mut [Vec<NodeId>],
    levels: &Levels,
    id: NodeId,
    target: u32,
    stats: &mut BalanceStats,
) -> NodeId {
    let base = levels.level(id);
    debug_assert!(target >= base, "cannot lower a node below its ASAP level");
    let offset = (target - base) as usize;
    while copies[id.index()].len() <= offset {
        let prev = *copies[id.index()].last().expect("base copy exists");
        let buf = out.add_gate1(Op::Buf, prev);
        copies[id.index()].push(buf);
        stats.edge_buffers += 1;
    }
    copies[id.index()][offset]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `compiler::pipeline` skips `balance` on a netlist that is fully
    /// balanced already; this is why that is exact.
    #[test]
    fn a_balanced_netlist_balances_to_itself() {
        for seed in 0..4 {
            let (once, _) = balance(
                &crate::random::RandomDag::loose(12, 5, 9)
                    .outputs(4)
                    .generate(seed),
            );
            assert!(Levels::compute(&once).is_fully_balanced(&once));
            let (twice, stats) = balance(&once);
            assert_eq!(stats.total(), 0);
            assert_eq!(twice, once);
            assert_eq!(twice.to_bytes(), once.to_bytes());
        }
    }

    #[test]
    fn balance_skewed_and_tree() {
        // y = ((a & b) & c) & d — a maximally skewed tree.
        let mut nl = Netlist::new("skew");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let t0 = nl.add_gate2(Op::And, a, b);
        let t1 = nl.add_gate2(Op::And, t0, c);
        let t2 = nl.add_gate2(Op::And, t1, d);
        nl.add_output(t2, "y");

        let (bal, stats) = balance(&nl);
        let lv = Levels::compute(&bal);
        assert!(lv.is_fully_balanced(&bal));
        assert_eq!(lv.depth(), 3);
        // c needs 1 buffer (level 0 -> 1), d needs 2 (level 0 -> 2).
        assert_eq!(stats.edge_buffers, 3);
        assert_eq!(stats.output_buffers, 0);

        // Function is preserved.
        for bits in 0u8..16 {
            let ins: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(nl.eval_bools(&ins), bal.eval_bools(&ins));
        }
    }

    #[test]
    fn balance_lifts_shallow_outputs() {
        // Two outputs at different depths.
        let mut nl = Netlist::new("two");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let shallow = nl.add_gate2(Op::And, a, b);
        let deep0 = nl.add_gate2(Op::Or, a, c);
        let deep = nl.add_gate2(Op::Xor, deep0, shallow);
        nl.add_output(shallow, "s");
        nl.add_output(deep, "d");

        let (bal, stats) = balance(&nl);
        let lv = Levels::compute(&bal);
        assert!(lv.is_fully_balanced(&bal));
        assert_eq!(stats.output_buffers, 1); // `s` lifted 1 -> 2
        for bits in 0u8..8 {
            let ins: Vec<bool> = (0..3).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(nl.eval_bools(&ins), bal.eval_bools(&ins));
        }
    }

    #[test]
    fn buffer_chains_are_shared() {
        // One node feeds consumers at levels 2 and 3; the level-1 buffer
        // must be shared, giving 2 buffers instead of 3.
        let mut nl = Netlist::new("share");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let l1 = nl.add_gate2(Op::And, a, b);
        let l2 = nl.add_gate2(Op::Or, l1, c); // c used at level 2
        let l3 = nl.add_gate2(Op::Xor, l2, c); // c used at level 3
        nl.add_output(l3, "y");

        let (bal, stats) = balance(&nl);
        // c needs copies at levels 1 and 2; the level-1 copy is shared, so
        // only 2 buffers are inserted rather than 3.
        assert_eq!(stats.edge_buffers, 2);
        let lv = Levels::compute(&bal);
        assert!(lv.is_fully_balanced(&bal));
    }

    #[test]
    fn already_balanced_is_untouched() {
        let mut nl = Netlist::new("ok");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate2(Op::And, a, b);
        nl.add_output(y, "y");
        let (bal, stats) = balance(&nl);
        assert_eq!(stats.total(), 0);
        assert_eq!(bal.len(), nl.len());
    }

    #[test]
    fn pass_through_output_gets_buffered() {
        // PO directly wired to a PI alongside a deep cone: PI must be lifted.
        let mut nl = Netlist::new("wirepo");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate2(Op::And, a, b);
        nl.add_output(g, "y");
        nl.add_output(a, "a_copy");
        let (bal, _) = balance(&nl);
        let lv = Levels::compute(&bal);
        assert!(lv.is_fully_balanced(&bal));
        for bits in 0u8..4 {
            let ins: Vec<bool> = (0..2).map(|i| bits & (1 << i) != 0).collect();
            assert_eq!(nl.eval_bools(&ins), bal.eval_bools(&ins));
        }
    }
}
