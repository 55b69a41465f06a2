//! Dense truth tables for functions of up to 24 variables.
//!
//! Truth tables are the exact-representation workhorse for small-fan-in
//! neurons (NullaNet enumerates them outright) and for equivalence checking
//! in tests. Bit `m` of the table is the function value on minterm `m`,
//! where bit `v` of `m` is the value of variable `v`.

use crate::cube::{Cover, Literal};

/// A dense truth table over `nvars <= 24` variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    nvars: usize,
    words: Vec<u64>,
}

/// Maximum supported variable count (2^24 bits = 2 MiB per table).
pub const MAX_VARS: usize = 24;

impl TruthTable {
    /// The constant-0 function.
    ///
    /// # Panics
    ///
    /// Panics if `nvars > 24`.
    pub fn zeros(nvars: usize) -> Self {
        assert!(nvars <= MAX_VARS, "truth tables limited to {MAX_VARS} vars");
        let bits = 1usize << nvars;
        TruthTable {
            nvars,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// The constant-1 function.
    pub fn ones(nvars: usize) -> Self {
        let mut t = TruthTable::zeros(nvars);
        for w in &mut t.words {
            *w = !0;
        }
        t.mask_tail();
        t
    }

    /// Builds a table by evaluating `f` on every minterm.
    pub fn from_fn(nvars: usize, mut f: impl FnMut(u64) -> bool) -> Self {
        let mut t = TruthTable::zeros(nvars);
        for m in 0..(1u64 << nvars) {
            if f(m) {
                t.set(m, true);
            }
        }
        t
    }

    /// The projection function of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= nvars`.
    pub fn variable(nvars: usize, v: usize) -> Self {
        assert!(v < nvars);
        TruthTable::from_fn(nvars, |m| m >> v & 1 != 0)
    }

    /// Number of variables.
    #[inline]
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// The value on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^nvars`.
    #[inline]
    pub fn get(&self, m: u64) -> bool {
        assert!(m < 1u64 << self.nvars);
        self.words[(m / 64) as usize] >> (m % 64) & 1 != 0
    }

    /// Sets the value on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^nvars`.
    #[inline]
    pub fn set(&mut self, m: u64, value: bool) {
        assert!(m < 1u64 << self.nvars);
        let mask = 1u64 << (m % 64);
        if value {
            self.words[(m / 64) as usize] |= mask;
        } else {
            self.words[(m / 64) as usize] &= !mask;
        }
    }

    /// Number of ON-set minterms.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// `true` if the function is constant 0.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` if the function is constant 1.
    pub fn is_one(&self) -> bool {
        self.count_ones() == 1u64 << self.nvars
    }

    /// Complement.
    pub fn not(&self) -> Self {
        let mut t = TruthTable {
            nvars: self.nvars,
            words: self.words.iter().map(|w| !w).collect(),
        };
        t.mask_tail();
        t
    }

    /// Conjunction.
    ///
    /// # Panics
    ///
    /// Panics on variable-count mismatch.
    pub fn and(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b)
    }

    /// Disjunction.
    ///
    /// # Panics
    ///
    /// Panics on variable-count mismatch.
    pub fn or(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b)
    }

    /// Exclusive or.
    ///
    /// # Panics
    ///
    /// Panics on variable-count mismatch.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a ^ b)
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.nvars, other.nvars, "variable count mismatch");
        let mut t = TruthTable {
            nvars: self.nvars,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        };
        t.mask_tail();
        t
    }

    /// The ON-set as a minterm cover.
    pub fn to_cover(&self) -> Cover {
        let minterms: Vec<u64> = (0..1u64 << self.nvars).filter(|&m| self.get(m)).collect();
        Cover::from_minterms(self.nvars, &minterms)
    }

    /// Evaluates a cover into a truth table over the same universe.
    ///
    /// # Panics
    ///
    /// Panics if the cover has more than 24 variables.
    pub fn from_cover(cover: &Cover) -> Self {
        let nvars = cover.nvars();
        assert!(nvars <= MAX_VARS, "truth tables limited to {MAX_VARS} vars");
        let mut t = TruthTable::zeros(nvars);
        for cube in cover.cubes() {
            // Enumerate the cube's minterms by iterating its free variables.
            let mut fixed = 0u64;
            let mut free_vars = Vec::new();
            for v in 0..nvars {
                match cube.literal(v) {
                    Literal::Pos => fixed |= 1 << v,
                    Literal::Neg => {}
                    Literal::DontCare => free_vars.push(v),
                }
            }
            for combo in 0..(1u64 << free_vars.len()) {
                let mut m = fixed;
                for (i, &v) in free_vars.iter().enumerate() {
                    if combo >> i & 1 != 0 {
                        m |= 1 << v;
                    }
                }
                t.set(m, true);
            }
        }
        t
    }

    /// Checks functional equivalence with a cover (used heavily in tests).
    pub fn equals_cover(&self, cover: &Cover) -> bool {
        *self == TruthTable::from_cover(cover)
    }

    fn mask_tail(&mut self) {
        let bits = 1usize << self.nvars;
        let rem = bits % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;

    #[test]
    fn constants_and_counting() {
        let z = TruthTable::zeros(4);
        let o = TruthTable::ones(4);
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(o.count_ones(), 16);
        assert_eq!(z.not(), o);
    }

    #[test]
    fn variable_projection() {
        let x1 = TruthTable::variable(3, 1);
        for m in 0..8u64 {
            assert_eq!(x1.get(m), m >> 1 & 1 != 0);
        }
    }

    #[test]
    fn boolean_ops() {
        let a = TruthTable::variable(2, 0);
        let b = TruthTable::variable(2, 1);
        let and = a.and(&b);
        let or = a.or(&b);
        let xor = a.xor(&b);
        for m in 0..4u64 {
            let (va, vb) = (m & 1 != 0, m & 2 != 0);
            assert_eq!(and.get(m), va && vb);
            assert_eq!(or.get(m), va || vb);
            assert_eq!(xor.get(m), va ^ vb);
        }
    }

    #[test]
    fn cover_round_trip() {
        // xor of 3 vars: odd parity minterms.
        let t = TruthTable::from_fn(3, |m| m.count_ones() % 2 == 1);
        let cover = t.to_cover();
        assert_eq!(cover.cube_count(), 4);
        assert!(t.equals_cover(&cover));
    }

    #[test]
    fn from_cover_expands_dont_cares() {
        // Single cube "a" over 3 vars covers 4 minterms.
        let c = Cover::from_cubes(3, vec![Cube::from_literals(3, &[(0, true)])]);
        let t = TruthTable::from_cover(&c);
        assert_eq!(t.count_ones(), 4);
        for m in 0..8u64 {
            assert_eq!(t.get(m), m & 1 != 0);
        }
    }

    #[test]
    fn seven_var_tables_span_words() {
        let t = TruthTable::from_fn(7, |m| m % 3 == 0);
        assert_eq!(t.words.len(), 2);
        let ones = (0..128u64).filter(|m| m % 3 == 0).count() as u64;
        assert_eq!(t.count_ones(), ones);
    }
}
