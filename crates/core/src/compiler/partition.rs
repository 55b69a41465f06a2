//! Boolean network partitioning — Algorithms 1 and 2 of the paper.
//!
//! [`find_mfg`] (Algorithm 2) grows an MFG from a root node by reverse BFS
//! until it reaches a logic level in the transitive fanin cone that exceeds
//! the LPV capacity `m` (the *stop level*; the MFG's bottom is one level
//! above it). [`partition`] (Algorithm 1) BFS-traverses from the primary
//! outputs, extracting an MFG per root and recursing into the extracted
//! MFG's input nodes, until the primary inputs are reached.

use std::collections::VecDeque;

use lbnn_netlist::{IdHashMap, Levels, Netlist, NodeId, Op};

use crate::compiler::mfg::{Mfg, MfgId};
use crate::error::CoreError;

/// When the reverse BFS of [`find_mfg`] stops at a level.
///
/// The paper's pseudocode (Algorithm 2, line 10) breaks once a level has
/// accumulated `>= m` nodes, which leaves every included level with at most
/// `m − 1` nodes; its formal conditions (2) and (4) instead describe levels
/// of up to exactly `m` nodes with input cuts strictly wider than `m`.
/// [`StopRule::GtM`] implements the conditions (and uses the full LPV);
/// [`StopRule::GeqM`] is the pseudocode-literal variant. The ablation bench
/// compares both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopRule {
    /// Stop when a level exceeds `m` nodes (matches conditions (2)/(4);
    /// default).
    #[default]
    GtM,
    /// Stop when a level reaches `m` nodes (pseudocode-literal).
    GeqM,
}

impl StopRule {
    /// `true` if a level holding `count` nodes must become the stop level.
    #[inline]
    pub fn stops(self, count: usize, m: usize) -> bool {
        match self {
            StopRule::GtM => count > m,
            StopRule::GeqM => count >= m,
        }
    }
}

/// Options for [`partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartitionOptions {
    /// Stop rule for [`find_mfg`].
    pub stop_rule: StopRule,
    /// Extract a fresh child MFG per `(parent, input node)` pair instead of
    /// sharing one MFG per root — the literal behaviour of the paper's
    /// Algorithm 1, whose condition (3) explicitly allows overlapping node
    /// sets. Duplication trades recomputation for schedulability: each
    /// parent owns its children, so snapshot-residency windows can always
    /// be serialized. The default shares children; the flow falls back to
    /// duplication when residency packing fails.
    pub duplicate_children: bool,
}

/// Safety cap on the MFG count in duplication mode (tree-expanding a
/// reconvergent DAG can blow up exponentially).
pub const MAX_MFGS: usize = 250_000;

/// The result of partitioning: the MFG set plus the parent/child DAG over
/// MFGs (a child produces some of its parent's input values).
#[derive(Debug, Clone)]
pub struct Partition {
    /// All extracted MFGs.
    pub mfgs: Vec<Mfg>,
    /// `children[p]` — MFGs whose roots feed MFG `p`'s bottom level.
    pub children: Vec<Vec<MfgId>>,
    /// `parents[c]` — MFGs consuming MFG `c`'s outputs.
    pub parents: Vec<Vec<MfgId>>,
    /// MFGs rooted at primary-output nodes.
    pub po_mfgs: Vec<MfgId>,
    /// `(parent, input node) → child MFG` producing that input value.
    pub producer_of: IdHashMap<(MfgId, NodeId), MfgId>,
    /// `PO node → MFG` computing it.
    pub po_producer: IdHashMap<NodeId, MfgId>,
}

impl Partition {
    /// Number of MFGs — the metric Fig 7b/8b track.
    pub fn mfg_count(&self) -> usize {
        self.mfgs.len()
    }

    /// Total node executions (sum of MFG node counts; overlapping nodes
    /// are recomputed per MFG, condition (3) of the paper).
    pub fn executed_nodes(&self) -> usize {
        self.mfgs.iter().map(Mfg::node_count).sum()
    }

    /// MFG ids in a child-before-parent topological order.
    pub fn topo_order(&self) -> Vec<MfgId> {
        let n = self.mfgs.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.children[i].len()).collect();
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(MfgId(i as u32));
            for &p in &self.parents[i] {
                indeg[p.index()] -= 1;
                if indeg[p.index()] == 0 {
                    queue.push_back(p.index());
                }
            }
        }
        assert_eq!(order.len(), n, "MFG graph must be acyclic");
        order
    }
}

/// Algorithm 2: grows the MFG rooted at `root` without exceeding `m` nodes
/// per level.
///
/// The reverse BFS visits the transitive fanin cone level by level (the
/// netlist must be fully path balanced, so fanins sit exactly one level
/// down). The first level whose visited-node count trips the
/// [`StopRule`] becomes the *stop level*: it is excluded, and
/// `bottom = stop + 1`. Level 0 (primary inputs/constants) always stops
/// the descent.
///
/// [`partition`] extracts every MFG of a netlist through one reusable
/// scratch; this entry allocates its own.
///
/// # Panics
///
/// Panics if `root` is a primary input / constant (level 0) or `m == 0`.
pub fn find_mfg(netlist: &Netlist, levels: &Levels, root: NodeId, m: usize, rule: StopRule) -> Mfg {
    ConeScratch::new(netlist, levels).find_mfg(netlist, levels, root, m, rule)
}

/// The reverse BFS state of [`find_mfg`], reused across roots: a visited
/// mark per node stamped with the current root's epoch, the FIFO queue,
/// and one bucket per absolute level. Extracting an MFG then costs only
/// the cone it visits.
struct ConeScratch {
    visited: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
    per_level: Vec<Vec<NodeId>>,
}

impl ConeScratch {
    fn new(netlist: &Netlist, levels: &Levels) -> Self {
        ConeScratch {
            visited: vec![0; netlist.len()],
            epoch: 0,
            queue: Vec::new(),
            per_level: vec![Vec::new(); levels.max_level() as usize + 1],
        }
    }

    fn find_mfg(
        &mut self,
        netlist: &Netlist,
        levels: &Levels,
        root: NodeId,
        m: usize,
        rule: StopRule,
    ) -> Mfg {
        assert!(m > 0, "need at least one LPE per LPV");
        let root_level = levels.level(root);
        assert!(root_level >= 1, "cannot root an MFG at a primary input");

        // Visited nodes per level; a fanin's level is below its reader's,
        // so buckets above the root's level stay untouched.
        self.epoch += 1;
        let epoch = self.epoch;
        let top = root_level as usize;
        if self.per_level.len() <= top {
            self.per_level.resize(top + 1, Vec::new());
        }
        self.per_level[..=top].iter_mut().for_each(Vec::clear);
        self.queue.clear();
        self.queue.push(root);
        self.visited[root.index()] = epoch;
        let mut head = 0;
        let mut stop_level: Option<u32> = None;

        while let Some(&cur) = self.queue.get(head) {
            head += 1;
            let lv = levels.level(cur);
            let bucket = &mut self.per_level[lv as usize];
            bucket.push(cur);
            // Level 0 holds PIs/constants, which an LPV cannot compute: the
            // descent always stops there even below capacity. The root's own
            // level never stops (an MFG always contains at least its root;
            // the paper's pseudocode leaves this m = 1 corner undefined).
            if (lv < root_level && rule.stops(bucket.len(), m)) || lv == 0 {
                if lv == 0 && !rule.stops(bucket.len(), m) {
                    // Drain remaining queued level-0 nodes into the bucket so
                    // the input set is complete, then stop.
                    for &next in &self.queue[head..] {
                        debug_assert_eq!(levels.level(next), 0, "BFS is level-ordered");
                        self.per_level[0].push(next);
                    }
                    stop_level = Some(0);
                    break;
                }
                stop_level = Some(lv);
                break;
            }
            for &child in netlist.node(cur).fanins() {
                if self.visited[child.index()] != epoch {
                    self.visited[child.index()] = epoch;
                    self.queue.push(child);
                }
            }
        }

        let bottom = match stop_level {
            Some(s) => s + 1,
            None => 1, // cone drained above level 0 (can happen for constants-only fanin)
        };
        let level_vec: Vec<Vec<NodeId>> = self.per_level[bottom as usize..=top]
            .iter()
            .map(|bucket| {
                let mut nodes = bucket.clone();
                nodes.sort_unstable();
                assert!(
                    !nodes.is_empty(),
                    "balanced cone has nodes at every level in [{bottom}, {root_level}]"
                );
                nodes
            })
            .collect();
        // Inputs: distinct fanins of the (new) bottom level.
        let mut inputs: Vec<NodeId> = level_vec[0]
            .iter()
            .flat_map(|&n| netlist.node(n).fanins().iter().copied())
            .collect();
        inputs.sort_unstable();
        inputs.dedup();
        Mfg::new(bottom, level_vec, inputs)
    }
}

/// Algorithm 1 (extended to multi-output netlists): BFS over MFG roots
/// starting from every primary output, deduplicating by root node.
///
/// # Errors
///
/// Returns [`CoreError::NotBalanced`] if the netlist is not fully path
/// balanced, and [`CoreError::Netlist`] for structurally invalid input.
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn partition(
    netlist: &Netlist,
    levels: &Levels,
    m: usize,
    options: PartitionOptions,
) -> Result<Partition, CoreError> {
    assert!(m > 0, "need at least one LPE per LPV");
    netlist.validate()?;
    if !levels.is_fully_balanced(netlist) {
        return Err(CoreError::NotBalanced);
    }

    /// "No MFG" in the node- and MFG-indexed tables below.
    const NONE: u32 = u32::MAX;
    let mut scratch = ConeScratch::new(netlist, levels);
    let mut mfgs: Vec<Mfg> = Vec::new();
    let mut mfg_of_root: Vec<u32> = vec![NONE; netlist.len()];
    let mut po_mfgs: Vec<MfgId> = Vec::new();
    let mut is_po_mfg: Vec<bool> = Vec::new();
    let mut producer_of: IdHashMap<(MfgId, NodeId), MfgId> = IdHashMap::default();
    let mut po_producer: IdHashMap<NodeId, MfgId> =
        IdHashMap::with_capacity_and_hasher(netlist.outputs().len(), Default::default());

    // The MFG rooted at `root`: the one extracted before when `share`,
    // else a fresh cone.
    let mut extract = |root: NodeId, share: bool, mfgs: &mut Vec<Mfg>| {
        if share && mfg_of_root[root.index()] != NONE {
            return Ok(MfgId(mfg_of_root[root.index()]));
        }
        if mfgs.len() >= MAX_MFGS {
            return Err(CoreError::BadConfig {
                reason: format!("partition exceeded {MAX_MFGS} MFGs (duplication blow-up)"),
            });
        }
        let id = MfgId(mfgs.len() as u32);
        mfgs.push(scratch.find_mfg(netlist, levels, root, m, options.stop_rule));
        if share {
            mfg_of_root[root.index()] = id.0;
        }
        Ok(id)
    };

    for out in netlist.outputs() {
        if netlist.node(out.node).op() == Op::Input {
            // A PO wired straight to a PI has no gates to schedule; the
            // flow pre-buffers such outputs, so this is a usage error.
            return Err(CoreError::BadConfig {
                reason: format!(
                    "primary output `{}` is wired directly to an input; \
                     insert a buffer (the Flow does this automatically)",
                    out.name
                ),
            });
        }
        // PO MFGs are always deduplicated by root node.
        let id = extract(out.node, true, &mut mfgs)?;
        po_producer.insert(out.node, id);
        if is_po_mfg.len() <= id.index() {
            is_po_mfg.resize(id.index() + 1, false);
        }
        if !is_po_mfg[id.index()] {
            is_po_mfg[id.index()] = true;
            po_mfgs.push(id);
        }
    }

    // `listed_by[c]` is the last MFG whose child list took `c`.
    let mut listed_by: Vec<u32> = Vec::new();
    let mut children: Vec<Vec<MfgId>> = Vec::new();
    while children.len() < mfgs.len() {
        let cur = MfgId(children.len() as u32);
        let mut kids: Vec<MfgId> = Vec::new();
        for k in 0..mfgs[cur.index()].inputs().len() {
            let input = mfgs[cur.index()].inputs()[k];
            if levels.level(input) == 0 {
                continue; // primary input or constant: fed by the input buffer
            }
            // Duplication is Algorithm 1 literal: a fresh cone per
            // (parent, input).
            let child = extract(input, !options.duplicate_children, &mut mfgs)?;
            producer_of.insert((cur, input), child);
            if listed_by.len() < mfgs.len() {
                listed_by.resize(mfgs.len(), NONE);
            }
            if listed_by[child.index()] != cur.0 {
                listed_by[child.index()] = cur.0;
                kids.push(child);
            }
        }
        children.push(kids);
    }

    let mut parents: Vec<Vec<MfgId>> = vec![Vec::new(); mfgs.len()];
    for (p, kids) in children.iter().enumerate() {
        for &c in kids {
            parents[c.index()].push(MfgId(p as u32));
        }
    }

    Ok(Partition {
        mfgs,
        children,
        parents,
        po_mfgs,
        producer_of,
        po_producer,
    })
}

/// Checks every paper condition over a whole partition (used by tests and
/// the verification harness):
/// conditions (1)–(2) per MFG, condition (4) per the stop rule, and full
/// coverage (every PO cone gate appears in at least one MFG).
///
/// # Errors
///
/// Returns a descriptive [`CoreError`] for the first violation found.
pub fn check_partition(
    netlist: &Netlist,
    levels: &Levels,
    partition: &Partition,
    m: usize,
    rule: StopRule,
) -> Result<(), CoreError> {
    for mfg in &partition.mfgs {
        mfg.validate(netlist, m)?;
        // Condition (4): non-PI-rooted MFGs must have been stopped by a
        // wide level.
        if !mfg.reads_primary_inputs() {
            let min_inputs = match rule {
                StopRule::GtM => m + 1,
                StopRule::GeqM => m,
            };
            if mfg.inputs().len() < min_inputs {
                return Err(CoreError::BadConfig {
                    reason: format!(
                        "condition (4) violated: MFG with bottom {} has only {} inputs",
                        mfg.bottom(),
                        mfg.inputs().len()
                    ),
                });
            }
        }
    }
    // Coverage: every gate in a PO cone is computed by some MFG.
    let mut covered = vec![false; netlist.len()];
    for mfg in &partition.mfgs {
        for level in mfg.levels() {
            for &n in level {
                covered[n.index()] = true;
            }
        }
    }
    let mut stack: Vec<NodeId> = netlist.outputs().iter().map(|o| o.node).collect();
    let mut seen = vec![false; netlist.len()];
    while let Some(n) = stack.pop() {
        if seen[n.index()] {
            continue;
        }
        seen[n.index()] = true;
        if levels.level(n) >= 1 && !covered[n.index()] {
            return Err(CoreError::BadConfig {
                reason: format!("gate {n:?} in a PO cone is not covered by any MFG"),
            });
        }
        for &f in netlist.node(n).fanins() {
            stack.push(f);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_netlist::balance::balance;
    use lbnn_netlist::random::RandomDag;
    use lbnn_netlist::Op;

    fn balanced(netlist: &Netlist) -> (Netlist, Levels) {
        let (b, _) = balance(netlist);
        let lv = Levels::compute(&b);
        (b, lv)
    }

    #[test]
    fn single_mfg_when_everything_fits() {
        let nl = RandomDag::strict(4, 3, 3).generate(1);
        let lv = Levels::compute(&nl);
        let part = partition(&nl, &lv, 8, PartitionOptions::default()).unwrap();
        // Every PO cone fits in one PI-rooted MFG; MFG count == PO count
        // at most (deduped by root).
        assert!(part.mfgs.iter().all(|m| m.reads_primary_inputs()));
        check_partition(&nl, &lv, &part, 8, StopRule::GtM).unwrap();
    }

    #[test]
    fn wide_graph_splits() {
        // 32 inputs, width 16 graph, m = 4: must split into many MFGs.
        let nl = RandomDag::strict(32, 6, 16).outputs(4).generate(2);
        let lv = Levels::compute(&nl);
        let part = partition(&nl, &lv, 4, PartitionOptions::default()).unwrap();
        assert!(part.mfg_count() > 4, "got {}", part.mfg_count());
        check_partition(&nl, &lv, &part, 4, StopRule::GtM).unwrap();
        // Parent/child levels line up: child top + 1 == parent bottom.
        for (p, kids) in part.children.iter().enumerate() {
            for &c in kids {
                assert_eq!(
                    part.mfgs[c.index()].top() + 1,
                    part.mfgs[p].bottom(),
                    "snapshot adjacency"
                );
            }
        }
    }

    #[test]
    fn geq_rule_produces_narrower_levels() {
        let nl = RandomDag::strict(32, 6, 16).outputs(4).generate(2);
        let lv = Levels::compute(&nl);
        let m = 4;
        let gt = partition(
            &nl,
            &lv,
            m,
            PartitionOptions {
                stop_rule: StopRule::GtM,
                ..Default::default()
            },
        )
        .unwrap();
        let geq = partition(
            &nl,
            &lv,
            m,
            PartitionOptions {
                stop_rule: StopRule::GeqM,
                ..Default::default()
            },
        )
        .unwrap();
        check_partition(&nl, &lv, &geq, m, StopRule::GeqM).unwrap();
        let max_w_geq = geq.mfgs.iter().map(Mfg::width).max().unwrap();
        assert!(max_w_geq < m, "pseudocode rule caps levels at m-1");
        // The literal rule can only fragment more (or equal).
        assert!(geq.mfg_count() >= gt.mfg_count());
    }

    #[test]
    fn unbalanced_input_rejected() {
        let mut nl = Netlist::new("u");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g = nl.add_gate2(Op::And, a, b);
        let h = nl.add_gate2(Op::Or, g, c); // c skips a level
        nl.add_output(h, "y");
        let lv = Levels::compute(&nl);
        assert_eq!(
            partition(&nl, &lv, 4, PartitionOptions::default()).unwrap_err(),
            CoreError::NotBalanced
        );
    }

    #[test]
    fn po_wired_to_pi_rejected() {
        let mut nl = Netlist::new("w");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate2(Op::And, a, b);
        nl.add_output(g, "y");
        nl.add_output(a, "a_copy");
        let (bal, lv) = balanced(&nl);
        // After balancing the PI-wired PO gets a buffer, so this passes.
        assert!(partition(&bal, &lv, 4, PartitionOptions::default()).is_ok());
        // Without balancing it is rejected.
        let lv_raw = Levels::compute(&nl);
        let err = partition(&nl, &lv_raw, 4, PartitionOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            CoreError::NotBalanced | CoreError::BadConfig { .. }
        ));
    }

    #[test]
    fn find_mfg_stop_level_semantics() {
        // Build a graph with known widths: level1 = 6, level2 = 3, level3 = 1.
        let nl = {
            let mut nl = Netlist::new("w");
            let pis: Vec<_> = (0..8).map(|i| nl.add_input(format!("x{i}"))).collect();
            let l1: Vec<_> = (0..6)
                .map(|i| nl.add_gate2(Op::And, pis[i % 8], pis[(i + 1) % 8]))
                .collect();
            let l2: Vec<_> = (0..3)
                .map(|i| nl.add_gate2(Op::Or, l1[2 * i], l1[2 * i + 1]))
                .collect();
            let t0 = nl.add_gate2(Op::Xor, l2[0], l2[1]);
            // Keep it balanced: t1 pairs l2[2] with a buffered copy.
            let b = nl.add_gate1(Op::Buf, l2[2]);
            let y = nl.add_gate2(Op::Xor, t0, b);
            nl.add_output(y, "y");
            nl
        };
        let lv = Levels::compute(&nl);
        assert!(lv.is_fully_balanced(&nl));
        let root = nl.outputs()[0].node;
        // m = 4: level 1 (6 nodes) trips GtM at the 5th visit -> bottom = 2.
        let mfg = find_mfg(&nl, &lv, root, 4, StopRule::GtM);
        assert_eq!(mfg.bottom(), 2);
        assert!(mfg.inputs().len() > 4, "condition (4)");
        // m = 8: whole cone fits -> bottom = 1, inputs are the PIs.
        let mfg = find_mfg(&nl, &lv, root, 8, StopRule::GtM);
        assert_eq!(mfg.bottom(), 1);
        assert!(mfg.reads_primary_inputs());
    }

    #[test]
    fn topo_order_children_first() {
        let nl = RandomDag::strict(32, 8, 16).outputs(2).generate(7);
        let lv = Levels::compute(&nl);
        let part = partition(&nl, &lv, 4, PartitionOptions::default()).unwrap();
        let order = part.topo_order();
        let mut pos = vec![0usize; part.mfgs.len()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for (p, kids) in part.children.iter().enumerate() {
            for c in kids {
                assert!(pos[c.index()] < pos[p], "children precede parents");
            }
        }
    }
}
