//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! The synthesis pipeline needs a *scalable* equivalence oracle: truth
//! tables stop at 24 variables and exhaustive simulation stops sooner.
//! This is a classic hash-consed BDD package (unique table + computed
//! table, complement-free, natural variable order) sufficient to check
//! netlist-vs-netlist equivalence for every circuit this workspace
//! produces. Only this crate's property tests use it today; the
//! compiler pipeline does not.

use std::collections::HashMap;

use lbnn_netlist::{Netlist, Op};

/// A node reference within one [`Bdd`] manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-0 leaf.
    pub const ZERO: BddRef = BddRef(0);
    /// The constant-1 leaf.
    pub const ONE: BddRef = BddRef(1);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32, // u32::MAX for leaves
    lo: BddRef,
    hi: BddRef,
}

/// A BDD manager: owns the node arena, unique table and computed table.
#[derive(Debug, Default)]
pub struct Bdd {
    nodes: Vec<Node>,
    unique: HashMap<Node, BddRef>,
    ite_cache: HashMap<(BddRef, BddRef, BddRef), BddRef>,
}

impl Bdd {
    /// Creates an empty manager (leaves pre-allocated).
    pub fn new() -> Self {
        let mut bdd = Bdd {
            nodes: Vec::new(),
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
        };
        // Index 0 = ZERO, 1 = ONE (self-referential leaves).
        bdd.nodes.push(Node {
            var: u32::MAX,
            lo: BddRef::ZERO,
            hi: BddRef::ZERO,
        });
        bdd.nodes.push(Node {
            var: u32::MAX,
            lo: BddRef::ONE,
            hi: BddRef::ONE,
        });
        bdd
    }

    /// Number of live nodes (including the two leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The projection function of variable `var`.
    pub fn var(&mut self, var: u32) -> BddRef {
        self.mk(var, BddRef::ZERO, BddRef::ONE)
    }

    fn mk(&mut self, var: u32, lo: BddRef, hi: BddRef) -> BddRef {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = BddRef(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, r);
        r
    }

    #[inline]
    fn node(&self, r: BddRef) -> Node {
        self.nodes[r.0 as usize]
    }

    #[inline]
    fn is_leaf(&self, r: BddRef) -> bool {
        r == BddRef::ZERO || r == BddRef::ONE
    }

    /// Top variable of up to three nodes (minimum in the order).
    fn top_var(&self, f: BddRef, g: BddRef, h: BddRef) -> u32 {
        [f, g, h]
            .into_iter()
            .filter(|&r| !self.is_leaf(r))
            .map(|r| self.node(r).var)
            .min()
            .expect("at least one non-leaf")
    }

    fn cofactor(&self, f: BddRef, var: u32, phase: bool) -> BddRef {
        if self.is_leaf(f) {
            return f;
        }
        let n = self.node(f);
        if n.var != var {
            return f;
        }
        if phase {
            n.hi
        } else {
            n.lo
        }
    }

    /// If-then-else: the universal connective all operators reduce to.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        // Terminal cases.
        if f == BddRef::ONE {
            return g;
        }
        if f == BddRef::ZERO {
            return h;
        }
        if g == h {
            return g;
        }
        if g == BddRef::ONE && h == BddRef::ZERO {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let v = self.top_var(f, g, h);
        let (f0, f1) = (self.cofactor(f, v, false), self.cofactor(f, v, true));
        let (g0, g1) = (self.cofactor(g, v, false), self.cofactor(g, v, true));
        let (h0, h1) = (self.cofactor(h, v, false), self.cofactor(h, v, true));
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    /// Complement.
    pub fn not(&mut self, f: BddRef) -> BddRef {
        self.ite(f, BddRef::ZERO, BddRef::ONE)
    }

    /// Conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, g, BddRef::ZERO)
    }

    /// Disjunction.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, BddRef::ONE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Applies a cell-library operation.
    pub fn apply(&mut self, op: Op, a: BddRef, b: Option<BddRef>) -> BddRef {
        match op {
            Op::Input => a,
            Op::Const0 => BddRef::ZERO,
            Op::Const1 => BddRef::ONE,
            Op::Buf => a,
            Op::Not => self.not(a),
            Op::And => self.and(a, b.expect("two-input op")),
            Op::Or => self.or(a, b.expect("two-input op")),
            Op::Xor => self.xor(a, b.expect("two-input op")),
            Op::Nand => {
                let t = self.and(a, b.expect("two-input op"));
                self.not(t)
            }
            Op::Nor => {
                let t = self.or(a, b.expect("two-input op"));
                self.not(t)
            }
            Op::Xnor => {
                let t = self.xor(a, b.expect("two-input op"));
                self.not(t)
            }
        }
    }

    /// Builds the BDDs of every primary output of a netlist, with input
    /// `i` mapped to BDD variable `i`.
    pub fn from_netlist(&mut self, netlist: &Netlist) -> Vec<BddRef> {
        let mut of_node: Vec<BddRef> = Vec::with_capacity(netlist.len());
        let var_of: HashMap<_, _> = netlist
            .inputs()
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        for (id, node) in netlist.iter() {
            let r = match node.op() {
                Op::Input => {
                    let v = var_of[&id];
                    self.var(v)
                }
                op => {
                    let a = node.fanins().first().map(|f| of_node[f.index()]);
                    let b = node.fanins().get(1).map(|f| of_node[f.index()]);
                    self.apply(op, a.unwrap_or(BddRef::ZERO), b)
                }
            };
            of_node.push(r);
        }
        netlist
            .outputs()
            .iter()
            .map(|o| of_node[o.node.index()])
            .collect()
    }

    /// Evaluates a BDD on an assignment (`bits[v]` = variable `v`).
    pub fn eval(&self, f: BddRef, bits: &[bool]) -> bool {
        let mut cur = f;
        while !self.is_leaf(cur) {
            let n = self.node(cur);
            cur = if bits[n.var as usize] { n.hi } else { n.lo };
        }
        cur == BddRef::ONE
    }

    /// Number of satisfying assignments over `nvars` variables.
    pub fn sat_count(&self, f: BddRef, nvars: u32) -> u64 {
        fn rec(
            bdd: &Bdd,
            f: BddRef,
            from_var: u32,
            nvars: u32,
            memo: &mut HashMap<BddRef, u64>,
        ) -> u64 {
            if f == BddRef::ZERO {
                return 0;
            }
            if f == BddRef::ONE {
                return 1u64 << (nvars - from_var);
            }
            let n = bdd.node(f);
            let below = if let Some(&c) = memo.get(&f) {
                c
            } else {
                let lo = rec(bdd, n.lo, n.var + 1, nvars, memo);
                let hi = rec(bdd, n.hi, n.var + 1, nvars, memo);
                let c = lo + hi;
                memo.insert(f, c);
                c
            };
            below << (n.var - from_var)
        }
        let mut memo = HashMap::new();
        rec(self, f, 0, nvars, &mut memo)
    }
}

/// Checks functional equivalence of two netlists via BDDs.
///
/// Netlists must have the same input count (inputs correspond by
/// position) and the same output count. Scales far past the exhaustive
/// and truth-table oracles.
///
/// # Panics
///
/// Panics if the interfaces differ in arity.
pub fn netlists_equivalent(a: &Netlist, b: &Netlist) -> bool {
    assert_eq!(a.inputs().len(), b.inputs().len(), "input arity differs");
    assert_eq!(a.outputs().len(), b.outputs().len(), "output arity differs");
    let mut bdd = Bdd::new();
    let fa = bdd.from_netlist(a);
    let fb = bdd.from_netlist(b);
    fa == fb // hash-consing makes equivalence a pointer comparison
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_netlist::random::RandomDag;
    use lbnn_netlist::Netlist;

    #[test]
    fn ite_terminal_identities() {
        let mut bdd = Bdd::new();
        let x = bdd.var(0);
        assert_eq!(bdd.ite(BddRef::ONE, x, BddRef::ZERO), x);
        assert_eq!(bdd.ite(BddRef::ZERO, x, BddRef::ONE), BddRef::ONE);
        assert_eq!(bdd.ite(x, BddRef::ONE, BddRef::ZERO), x);
        let nx = bdd.not(x);
        let nnx = bdd.not(nx);
        assert_eq!(nnx, x, "double negation is identity (hash-consed)");
    }

    #[test]
    fn boolean_algebra_laws() {
        let mut bdd = Bdd::new();
        let x = bdd.var(0);
        let y = bdd.var(1);
        let xy = bdd.and(x, y);
        let yx = bdd.and(y, x);
        assert_eq!(xy, yx, "commutativity");
        let x_or_xy = bdd.or(x, xy);
        assert_eq!(x_or_xy, x, "absorption");
        let x_xor_x = bdd.xor(x, x);
        assert_eq!(x_xor_x, BddRef::ZERO);
        // De Morgan.
        let nx = bdd.not(x);
        let ny = bdd.not(y);
        let lhs = bdd.not(xy);
        let rhs = bdd.or(nx, ny);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn eval_matches_netlist() {
        let nl = RandomDag::loose(8, 5, 6).outputs(3).generate(3);
        let mut bdd = Bdd::new();
        let outs = bdd.from_netlist(&nl);
        for m in 0..256u64 {
            let bits: Vec<bool> = (0..8).map(|i| m >> i & 1 != 0).collect();
            let want = nl.eval_bools(&bits);
            for (o, &f) in outs.iter().enumerate() {
                assert_eq!(bdd.eval(f, &bits), want[o], "m={m:#b} out={o}");
            }
        }
    }

    #[test]
    fn sat_count_parity() {
        // Parity of n vars has exactly 2^(n-1) satisfying assignments.
        let mut bdd = Bdd::new();
        for n in 1..=10u32 {
            let mut f = BddRef::ZERO;
            for v in 0..n {
                let x = bdd.var(v);
                f = bdd.xor(f, x);
            }
            assert_eq!(bdd.sat_count(f, n), 1u64 << (n - 1), "n={n}");
        }
    }

    #[test]
    fn equivalence_checking_positive_and_negative() {
        let a = RandomDag::strict(10, 5, 8).outputs(4).generate(9);
        // Optimized version must stay equivalent.
        let (opt, _) = crate::synth::optimize(&a, crate::synth::OptimizeOptions::default());
        assert!(netlists_equivalent(&a, &opt));

        // A netlist with one inverted output must differ.
        let mut b = Netlist::new("tweaked");
        let mut remap = Vec::new();
        for (id, node) in a.iter() {
            let new = match node.op() {
                Op::Input => b.add_input(a.node_name(id).unwrap_or("in").to_string()),
                op => {
                    let f: Vec<_> = node.fanins().iter().map(|f| remap[f.index()]).collect();
                    b.add_node(op, &f).unwrap()
                }
            };
            remap.push(new);
        }
        for (i, o) in a.outputs().iter().enumerate() {
            let node = if i == 0 {
                b.add_gate1(Op::Not, remap[o.node.index()])
            } else {
                remap[o.node.index()]
            };
            b.add_output(node, o.name.clone());
        }
        assert!(!netlists_equivalent(&a, &b));
    }

    #[test]
    fn scales_past_exhaustive_oracles() {
        // 40 inputs: exhaustive evaluation would need 2^40 vectors.
        let nl = RandomDag::strict(40, 6, 20).outputs(5).generate(4);
        let (opt, _) = crate::synth::optimize(&nl, crate::synth::OptimizeOptions::default());
        assert!(netlists_equivalent(&nl, &opt));
    }
}
