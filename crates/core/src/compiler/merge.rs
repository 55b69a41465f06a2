//! MFG merging — Algorithm 3 of the paper.
//!
//! The runtime of an inference task is primarily driven by the total MFG
//! count, so sibling MFGs (children of the same parent) that share a bottom
//! level and whose level-wise union stays within the LPE count `m` are
//! greedily merged into multi-output MFGs. Fig 7/8 of the paper quantify
//! the effect; the benches regenerate those figures.

use std::borrow::Cow;
use std::collections::VecDeque;

use lbnn_netlist::{IdHashMap, NodeId};

use crate::compiler::mfg::{Mfg, MfgId};
use crate::compiler::partition::Partition;

/// Statistics reported by [`merge_mfgs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// MFG count before merging.
    pub before: usize,
    /// MFG count after merging.
    pub after: usize,
    /// Number of pairwise merges performed.
    pub merges: usize,
}

/// The paper's `checkLevel`: `true` when the two MFGs can merge, i.e. they
/// share the same level range and every level's node-set union has at most
/// `m` nodes. Levels are sorted, as [`find_mfg`](crate::compiler::find_mfg)
/// and merging build them.
pub fn check_level(a: &Mfg, b: &Mfg, m: usize) -> bool {
    if a.bottom() != b.bottom() || a.top() != b.top() {
        return false;
    }
    a.levels()
        .iter()
        .zip(b.levels())
        .all(|(la, lb)| union_fits(la, lb, m))
}

/// `true` when the union of two sorted, duplicate-free node lists has at
/// most `m` nodes. Lists that fit side by side, or whose id ranges are
/// disjoint, are decided from their lengths and ends; only overlapping
/// ranges are merge-walked, and the walk stops at the first node past `m`.
fn union_fits(la: &[NodeId], lb: &[NodeId], m: usize) -> bool {
    if la.len() + lb.len() <= m {
        return true;
    }
    let (Some((a_first, a_last)), Some((b_first, b_last))) =
        (la.first().zip(la.last()), lb.first().zip(lb.last()))
    else {
        return false; // one side alone holds more than `m` nodes
    };
    if a_last < b_first || b_last < a_first {
        return false; // disjoint: the union is the sum
    }
    let mut union = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < la.len() || j < lb.len() {
        union += 1;
        if union > m {
            return false;
        }
        if i < la.len() && (j >= lb.len() || la[i] < lb[j]) {
            i += 1;
        } else if j < lb.len() && (i >= la.len() || lb[j] < la[i]) {
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
    true
}

/// The sorted union of two sorted, duplicate-free node lists.
fn sorted_union(la: &[NodeId], lb: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(la.len() + lb.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < la.len() && j < lb.len() {
        let next = la[i].min(lb[j]);
        i += usize::from(la[i] == next);
        j += usize::from(lb[j] == next);
        out.push(next);
    }
    out.extend_from_slice(&la[i..]);
    out.extend_from_slice(&lb[j..]);
    out
}

/// Merges two compatible MFGs into one multi-output MFG (level-wise union).
fn union_mfgs(a: &Mfg, b: &Mfg) -> Mfg {
    debug_assert_eq!(a.bottom(), b.bottom());
    debug_assert_eq!(a.top(), b.top());
    let levels: Vec<Vec<NodeId>> = a
        .levels()
        .iter()
        .zip(b.levels())
        .map(|(la, lb)| sorted_union(la, lb))
        .collect();
    Mfg::new(a.bottom(), levels, sorted_union(a.inputs(), b.inputs()))
}

/// The alive members of an edge list, sorted and deduplicated. Edge lists
/// keep the ids of merged-away MFGs; this is the one place that drops them.
fn alive_sorted<'a>(ids: impl IntoIterator<Item = &'a MfgId>, alive: &[bool]) -> Vec<MfgId> {
    let mut out: Vec<MfgId> = ids
        .into_iter()
        .copied()
        .filter(|k| alive[k.index()])
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Algorithm 3: greedy merging of same-bottom sibling MFGs, walking the MFG
/// DAG breadth-first from the primary-output MFGs.
///
/// Within a sibling group the lexicographically first mergeable pair (in
/// group order) merges, the merged MFG is appended to the group and the
/// scan restarts; the order of these merges decides the MFG ids.
///
/// Returns the rewritten partition (dead MFGs compacted away, edges and
/// producer maps rebuilt) and merge statistics.
pub fn merge_mfgs(partition: &Partition, m: usize) -> (Partition, MergeStats) {
    // The input's MFGs are borrowed: only merged MFGs are built, and only
    // survivors are copied out.
    let mut mfgs: Vec<Cow<'_, Mfg>> = partition.mfgs.iter().map(Cow::Borrowed).collect();
    // Edge lists only grow: a merge appends the merged id and leaves the
    // dead ids in place for `alive_sorted` to drop.
    let mut children: Vec<Vec<MfgId>> = partition.children.clone();
    let mut parents: Vec<Vec<MfgId>> = partition.parents.clone();
    let mut alive: Vec<bool> = vec![true; mfgs.len()];
    let mut processed: Vec<bool> = vec![false; mfgs.len()];
    let mut merged_into: Vec<Option<MfgId>> = vec![None; mfgs.len()];
    let mut merges = 0usize;

    // Virtual super-root: treat the PO MFGs as one sibling group so they
    // can merge with each other too ("rootMFG = the MFG contained PO(s)").
    let mut queue: VecDeque<Option<MfgId>> = VecDeque::from([None]); // None = the virtual root
    let mut po_group: Vec<MfgId> = Vec::new();

    while let Some(slot) = queue.pop_front() {
        // The sibling group to merge within, in scan order; merged-away
        // members stay in place and are skipped.
        let mut group: Vec<MfgId> = match slot {
            None => alive_sorted(&partition.po_mfgs, &alive),
            Some(p) if processed[p.index()] || !alive[p.index()] => continue,
            Some(p) => {
                processed[p.index()] = true;
                alive_sorted(&children[p.index()], &alive)
            }
        };
        let mut first = 0usize;

        // Greedy pairwise merging within the group.
        'scan: loop {
            while first < group.len() && !alive[group[first].index()] {
                first += 1;
            }
            for i in first..group.len() {
                let a = group[i];
                if !alive[a.index()] {
                    continue;
                }
                for &b in &group[i + 1..] {
                    if !alive[b.index()] || mfgs[a.index()].bottom() != mfgs[b.index()].bottom() {
                        continue;
                    }
                    if !check_level(&mfgs[a.index()], &mfgs[b.index()], m) {
                        continue;
                    }
                    // Merge b into a new MFG.
                    let merged = union_mfgs(&mfgs[a.index()], &mfgs[b.index()]);
                    let new_id = MfgId(mfgs.len() as u32);
                    mfgs.push(Cow::Owned(merged));
                    alive.push(true);
                    processed.push(false);
                    merged_into.push(None);
                    merged_into[a.index()] = Some(new_id);
                    merged_into[b.index()] = Some(new_id);

                    let kid_union = alive_sorted(
                        children[a.index()].iter().chain(&children[b.index()]),
                        &alive,
                    );
                    let parent_union =
                        alive_sorted(parents[a.index()].iter().chain(&parents[b.index()]), &alive);

                    // Rewire: parents' child lists and children's parent lists.
                    for &p in &parent_union {
                        children[p.index()].push(new_id);
                    }
                    for &k in &kid_union {
                        parents[k.index()].push(new_id);
                    }
                    children.push(kid_union);
                    parents.push(parent_union);
                    alive[a.index()] = false;
                    alive[b.index()] = false;
                    merges += 1;

                    group.push(new_id);
                    continue 'scan;
                }
            }
            break;
        }
        group.retain(|g| alive[g.index()]);
        if slot.is_none() {
            po_group.clone_from(&group);
        }
        queue.extend(group.into_iter().map(Some));
    }

    // Compact: drop dead MFGs and re-densify ids.
    let mut remap: Vec<Option<MfgId>> = vec![None; mfgs.len()];
    let mut out_mfgs: Vec<Mfg> = Vec::with_capacity(mfgs.len() - 2 * merges);
    for (i, mfg) in mfgs.into_iter().enumerate() {
        if alive[i] {
            remap[i] = Some(MfgId(out_mfgs.len() as u32));
            out_mfgs.push(mfg.into_owned());
        }
    }
    let map = |id: MfgId| remap[id.index()].expect("alive edges reference alive MFGs");
    let alive_mapped = |list: &[MfgId]| -> Vec<MfgId> {
        // Ids of alive MFGs keep their relative order under `map`.
        alive_sorted(list, &alive).into_iter().map(map).collect()
    };
    let out_children: Vec<Vec<MfgId>> = (0..alive.len())
        .filter(|&i| alive[i])
        .map(|i| alive_mapped(&children[i]))
        .collect();
    let out_parents: Vec<Vec<MfgId>> = (0..alive.len())
        .filter(|&i| alive[i])
        .map(|i| alive_mapped(&parents[i]))
        .collect();

    // Resolve an original id through the chain of merges to its final
    // (compacted) id.
    let resolve = |mut id: MfgId| -> MfgId {
        while let Some(next) = merged_into[id.index()] {
            id = next;
        }
        map(id)
    };

    // Rebuild the parent-scoped producer map and the PO producer map. When
    // merged parents read one node from different duplicated children, the
    // lowest resolved child id wins, whatever the hash map's order.
    let mut producer_of: IdHashMap<(MfgId, NodeId), MfgId> =
        IdHashMap::with_capacity_and_hasher(partition.producer_of.len(), Default::default());
    for (&(parent, node), &child) in &partition.producer_of {
        let child = resolve(child);
        producer_of
            .entry((resolve(parent), node))
            .and_modify(|c| *c = (*c).min(child))
            .or_insert(child);
    }
    let po_producer: IdHashMap<NodeId, MfgId> = partition
        .po_producer
        .iter()
        .map(|(&node, &id)| (node, resolve(id)))
        .collect();
    let po_mfgs = alive_mapped(&po_group);

    let stats = MergeStats {
        before: partition.mfgs.len(),
        after: out_mfgs.len(),
        merges,
    };
    (
        Partition {
            mfgs: out_mfgs,
            children: out_children,
            parents: out_parents,
            po_mfgs,
            producer_of,
            po_producer,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::partition::{check_partition, partition, PartitionOptions, StopRule};
    use lbnn_netlist::random::RandomDag;
    use lbnn_netlist::Levels;

    /// The length/range shortcuts and the merge walks agree with
    /// concatenate + sort + dedup on sorted lists of every overlap shape.
    #[test]
    fn union_helpers_match_sort_and_dedup() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        fn list(next: &mut impl FnMut(u64) -> u64, base: u64) -> Vec<NodeId> {
            let mut v: Vec<NodeId> = (0..next(12))
                .map(|_| NodeId::new((base + next(40)) as u32))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        }
        for _ in 0..2000 {
            let la = list(&mut next, 0);
            let base = next(50);
            let lb = list(&mut next, base);
            let mut want = [la.clone(), lb.clone()].concat();
            want.sort_unstable();
            want.dedup();
            assert_eq!(sorted_union(&la, &lb), want);
            for m in 0..26 {
                assert_eq!(
                    union_fits(&la, &lb, m),
                    want.len() <= m,
                    "{la:?} {lb:?} m={m}"
                );
            }
        }
    }

    #[test]
    fn check_level_respects_capacity_and_alignment() {
        use lbnn_netlist::{Netlist, Op};
        let mut nl = Netlist::new("t");
        let pis: Vec<_> = (0..8).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g: Vec<_> = (0..4)
            .map(|i| nl.add_gate2(Op::And, pis[2 * i], pis[2 * i + 1]))
            .collect();
        let a = Mfg::new(
            1,
            vec![vec![g[0], g[1]]],
            vec![pis[0], pis[1], pis[2], pis[3]],
        );
        let b = Mfg::new(
            1,
            vec![vec![g[2], g[3]]],
            vec![pis[4], pis[5], pis[6], pis[7]],
        );
        assert!(check_level(&a, &b, 4));
        assert!(!check_level(&a, &b, 3), "union of 4 exceeds m = 3");
        // Shared nodes count once.
        let c = Mfg::new(
            1,
            vec![vec![g[0], g[2]]],
            vec![pis[0], pis[1], pis[4], pis[5]],
        );
        assert!(check_level(&a, &c, 3), "union {{g0,g1,g2}} has 3 nodes");
        let deep = Mfg::new(2, vec![vec![g[0]]], vec![pis[0]]);
        assert!(!check_level(&a, &deep, 8), "different level ranges");
    }

    #[test]
    fn merging_reduces_mfg_count_and_stays_valid() {
        let nl = RandomDag::strict(64, 8, 32).outputs(8).generate(3);
        let lv = Levels::compute(&nl);
        let m = 8;
        let part = partition(&nl, &lv, m, PartitionOptions::default()).unwrap();
        let (merged, stats) = merge_mfgs(&part, m);
        assert_eq!(stats.before, part.mfg_count());
        assert_eq!(stats.after, merged.mfg_count());
        assert!(
            stats.after < stats.before,
            "merging should fire on a wide graph"
        );
        assert_eq!(stats.before - stats.after, stats.merges);
        // Merged MFGs still satisfy conditions (1)-(2); condition (4) is a
        // property of extraction, preserved because merging unions inputs.
        for mfg in &merged.mfgs {
            mfg.validate(&nl, m).unwrap();
        }
        // Edges stay level-aligned.
        for (p, kids) in merged.children.iter().enumerate() {
            for &c in kids {
                assert_eq!(merged.mfgs[c.index()].top() + 1, merged.mfgs[p].bottom());
            }
        }
        // Coverage still holds.
        check_partition(&nl, &lv, &merged, m, StopRule::GtM).unwrap();
    }

    #[test]
    fn merge_is_idempotent() {
        let nl = RandomDag::strict(32, 6, 16).outputs(4).generate(9);
        let lv = Levels::compute(&nl);
        let part = partition(&nl, &lv, 6, PartitionOptions::default()).unwrap();
        let (m1, _) = merge_mfgs(&part, 6);
        let (m2, s2) = merge_mfgs(&m1, 6);
        assert_eq!(m1.mfg_count(), m2.mfg_count());
        assert_eq!(s2.merges, 0);
    }

    #[test]
    fn producers_cover_all_non_pi_inputs() {
        let nl = RandomDag::strict(48, 7, 24).outputs(6).generate(5);
        let lv = Levels::compute(&nl);
        let part = partition(&nl, &lv, 6, PartitionOptions::default()).unwrap();
        let (merged, _) = merge_mfgs(&part, 6);
        for (i, mfg) in merged.mfgs.iter().enumerate() {
            for &input in mfg.inputs() {
                if lv.level(input) >= 1 {
                    let producer = merged
                        .producer_of
                        .get(&(MfgId(i as u32), input))
                        .copied()
                        .expect("produced");
                    assert!(merged.mfgs[producer.index()].roots().contains(&input));
                    assert!(merged.children[i].contains(&producer));
                }
            }
        }
    }

    #[test]
    fn duplicated_children_collapse_under_merged_parents() {
        use crate::compiler::partition::PartitionOptions;
        let nl = RandomDag::strict(32, 6, 16).outputs(4).generate(13);
        let lv = Levels::compute(&nl);
        let dup = partition(
            &nl,
            &lv,
            6,
            PartitionOptions {
                duplicate_children: true,
                ..Default::default()
            },
        )
        .unwrap();
        let shared = partition(&nl, &lv, 6, PartitionOptions::default()).unwrap();
        assert!(dup.mfg_count() >= shared.mfg_count());
        let (merged, _) = merge_mfgs(&dup, 6);
        for mfg in &merged.mfgs {
            mfg.validate(&nl, 6).unwrap();
        }
        check_partition(&nl, &lv, &merged, 6, StopRule::GtM).unwrap();
    }
}
