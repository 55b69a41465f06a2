//! Bit-parallel functional evaluation of a netlist.
//!
//! The LPU processes `2m`-bit operands: each bit is an independent Boolean
//! sample (a patch of a feature volume, or one image of a batch). [`Lanes`]
//! models exactly that — a vector of Boolean lanes packed into `u64` words —
//! and [`evaluate`] runs the whole netlist across all lanes at once. This is
//! the golden reference the cycle-accurate LPU simulator is tested against.
//!
//! Two evaluation strategies share the [`Lanes`] I/O format:
//!
//! * [`evaluate`] — walks the netlist arena directly, one [`Lanes`] per
//!   net (a heap block each only past 1024 lanes). Simple, and the oracle
//!   everything else is tested against.
//! * [`BitSliceEvaluator`] — compiles the netlist once into a flat tape of
//!   branch-free ANF word kernels ([`crate::Op::anf_masks`]) over a
//!   [`SliceFrame`] (a fixed number of `u64` words per net), then replays
//!   the tape per block of `64 × words` lanes. No per-net allocation, no
//!   per-gate dispatch: this is the software analogue of the LPU's
//!   word-level parallelism and the kernel behind the serving layer's
//!   bit-sliced backend. Compilation runs a **tape-locality pass**:
//!   buffers and inverters that drive no output are folded into their
//!   readers' masks, single-fanout chains are fused
//!   so their intermediates live in an accumulator and dead nets' frame
//!   slots are recycled by a liveness allocator ([`TapeStats`] reports
//!   what the pass did). A frame is one of the widths in
//!   [`SUPPORTED_SLICE_WORDS`] (1/2/4/8/16 words = 64/128/256/512/1024
//!   lanes). Tiles of two or more words run one safe generic kernel the
//!   compiler vectorizes, built for the target's baseline and for AVX2,
//!   or at 8 and 16 words on an AVX-512F host the one hand-written
//!   `std::arch` kernel; the level is picked by runtime CPU-feature
//!   detection, and every level is bit-identical.

use crate::cell::Op;
use crate::error::NetlistError;
use crate::netlist::{Netlist, Node, NodeId};
use crate::patch::PatchSet;

/// A packed vector of Boolean lanes (the value of one signal across a batch).
///
/// Up to 1024 lanes (16 words, the widest block a [`SliceFrame`]
/// replays) live inline, so a batch of ≤ 1024 lanes builds its outputs
/// with no heap block per column; wider lanes live on the heap. The
/// price is size: a `Lanes` is 144 bytes whatever its length. Equality,
/// hashing and `Debug` see only [`Lanes::words`] and [`Lanes::len`],
/// never the form.
///
/// # Example
///
/// ```
/// use lbnn_netlist::Lanes;
/// let mut l = Lanes::zeros(100);
/// l.set(3, true);
/// assert!(l.get(3));
/// assert_eq!(l.count_ones(), 1);
/// ```
#[derive(Clone)]
pub struct Lanes {
    words: LaneWords,
    len: usize,
}

/// Words a [`Lanes`] holds inline: one block of the widest slice width.
const INLINE_WORDS: usize = SUPPORTED_SLICE_WORDS[SUPPORTED_SLICE_WORDS.len() - 1];

/// The words behind a [`Lanes`] of `len` lanes: inline when
/// `len.div_ceil(64) <= INLINE_WORDS` (the first that many words are the
/// lanes, the rest zero), on the heap otherwise. The form depends on the
/// word count alone.
#[derive(Clone)]
enum LaneWords {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

impl LaneWords {
    /// Room for `count` words, `first` at the front: all of them inline,
    /// or a heap block of capacity `count` that later words append to.
    #[inline]
    fn with_first(count: usize, first: &[u64]) -> Self {
        if count <= INLINE_WORDS {
            LaneWords::Inline(std::array::from_fn(|i| first.get(i).copied().unwrap_or(0)))
        } else {
            let mut words = Vec::with_capacity(count);
            words.extend_from_slice(first);
            LaneWords::Heap(words)
        }
    }

    /// `count` zero words.
    fn zeros(count: usize) -> Self {
        match count <= INLINE_WORDS {
            true => LaneWords::Inline([0; INLINE_WORDS]),
            false => LaneWords::Heap(vec![0; count]),
        }
    }

    /// Stores `words` at word `base`, right after the words already
    /// written (a heap column grows by exactly these).
    #[inline]
    fn put(&mut self, base: usize, words: &[u64]) {
        match self {
            LaneWords::Inline(inline) => inline[base..][..words.len()].copy_from_slice(words),
            LaneWords::Heap(heap) => {
                debug_assert_eq!(heap.len(), base, "blocks arrive in order");
                heap.extend_from_slice(words);
            }
        }
    }
}

impl Lanes {
    /// Creates `len` lanes, all 0.
    pub fn zeros(len: usize) -> Self {
        Lanes {
            words: LaneWords::zeros(len.div_ceil(64)),
            len,
        }
    }

    /// Creates `len` lanes, all 1.
    pub fn ones(len: usize) -> Self {
        let mut l = Lanes::zeros(len);
        l.words_mut().fill(!0);
        l.mask_tail();
        l
    }

    /// Packs a slice of booleans into lanes.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut l = Lanes::zeros(bits.len());
        for (word, chunk) in l.words_mut().iter_mut().zip(bits.chunks(64)) {
            *word = gather_bits(chunk);
        }
        l
    }

    /// Creates lanes from raw words; bits past `len` are masked off.
    /// Up to 16 words are copied inline (and `words` freed); more are
    /// kept as they are.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count mismatch");
        match words.len() <= INLINE_WORDS {
            true => Lanes::from_slice(&words, len),
            false => {
                let mut l = Lanes {
                    words: LaneWords::Heap(words),
                    len,
                };
                l.mask_tail();
                l
            }
        }
    }

    /// [`Lanes::from_words`] from a borrowed column, copied once (no
    /// heap block up to 16 words): how a column is cut out of a flat
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)`.
    #[inline]
    pub fn from_slice(words: &[u64], len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count mismatch");
        let mut l = Lanes {
            words: LaneWords::with_first(words.len(), words),
            len,
        };
        l.mask_tail();
        l
    }

    /// Number of lanes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no lanes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lane at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "lane {index} out of range {}", self.len);
        self.words()[index / 64] >> (index % 64) & 1 != 0
    }

    /// Sets the lane at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(index < self.len, "lane {index} out of range {}", self.len);
        let mask = 1u64 << (index % 64);
        let word = &mut self.words_mut()[index / 64];
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// The packed words backing the lanes.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.words {
            LaneWords::Inline(words) => &words[..self.len.div_ceil(64)],
            LaneWords::Heap(words) => words,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            LaneWords::Inline(words) => &mut words[..self.len.div_ceil(64)],
            LaneWords::Heap(words) => words,
        }
    }

    /// Transposes per-sample bit rows into per-signal lane columns:
    /// `rows[j]` holds sample `j`'s value for each of `width` signals,
    /// and the result holds one `Lanes` per signal with sample `j` at
    /// lane `j` — the packing shared by every serving path that turns
    /// individual requests into a bit-sliced batch.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `width`.
    ///
    /// # Example
    ///
    /// ```
    /// use lbnn_netlist::Lanes;
    /// let rows = [[true, false], [true, true], [false, false]];
    /// let cols = Lanes::pack_rows(&rows, 2);
    /// assert_eq!(cols.len(), 2);
    /// assert_eq!(cols[0].to_bools(), vec![true, true, false]); // signal 0
    /// assert_eq!(cols[1].to_bools(), vec![false, true, false]); // signal 1
    /// ```
    pub fn pack_rows<R: AsRef<[bool]>>(rows: &[R], width: usize) -> Vec<Lanes> {
        let stride = rows.len().div_ceil(64);
        let mut flat = Vec::new();
        Lanes::pack_rows_into(rows, width, &mut flat);
        (0..width)
            .map(|i| Lanes::from_slice(&flat[i * stride..(i + 1) * stride], rows.len()))
            .collect()
    }

    /// [`Lanes::pack_rows`] into a caller-owned flat buffer — the
    /// zero-allocation packing behind steady-state serving. `out` is
    /// resized to `width × stride` words (`stride = rows.len().div_ceil(64)`,
    /// also the return value): signal `i`'s lane column occupies
    /// `out[i * stride .. (i + 1) * stride]` with sample `j` at bit `j`
    /// (the exact word layout of `width` concatenated [`Lanes`]).
    ///
    /// Each row is gathered a word at a time ([`gather_bits`]) into the
    /// one tiled transposer (`transpose_tiled`) — one word store per
    /// signal and 64 rows, not one scattered read-modify-write per *bit*
    /// as the naive loop does.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `width`.
    pub fn pack_rows_into<R: AsRef<[bool]>>(rows: &[R], width: usize, out: &mut Vec<u64>) -> usize {
        let stride = rows.len().div_ceil(64);
        out.clear();
        out.resize(width * stride, 0);
        let word = |r: usize, b: usize| {
            let row: &[bool] = rows[r].as_ref();
            assert_eq!(row.len(), width, "row {r} has the wrong width");
            gather_bits(&row[b * 64..width.min(b * 64 + 64)])
        };
        transpose_tiled(rows.len(), width, word, out);
        stride
    }

    /// Inverse of [`Lanes::pack_rows`]: per-signal lane columns back to
    /// per-sample bit rows (`result[j][i]` = lane `j` of `columns[i]`).
    /// This is [`PackedRows::from_columns`] — the one column→row
    /// transposer — with every row expanded; a caller that needs only
    /// some rows, or needs them later, keeps the [`PackedRows`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the columns have inconsistent lane counts.
    pub fn unpack_rows(columns: &[Lanes]) -> Vec<Vec<bool>> {
        let packed = PackedRows::from_columns(columns);
        (0..packed.rows()).map(|j| packed.row(j)).collect()
    }

    /// Number of lanes set to 1.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Unpacks the lanes into booleans.
    pub fn to_bools(&self) -> Vec<bool> {
        spread_words(self.words(), self.len)
    }

    /// Applies a gate operation lane-wise: `self = op(a, b)`. Single-input
    /// operations ignore `b`.
    ///
    /// # Panics
    ///
    /// Panics if the operand lane counts differ from `self`.
    pub fn assign_op(&mut self, op: Op, a: &Lanes, b: Option<&Lanes>) {
        assert_eq!(a.len(), self.len, "operand lane count mismatch");
        if let Some(b) = b {
            assert_eq!(b.len(), self.len, "operand lane count mismatch");
        }
        self.assign_op_inner(op, a, b);
    }

    #[inline]
    fn assign_op_inner(&mut self, op: Op, a: &Lanes, b: Option<&Lanes>) {
        let zero: &[u64] = &[];
        let (aw, bw) = (a.words(), b.map_or(zero, Lanes::words));
        for (i, w) in self.words_mut().iter_mut().enumerate() {
            let wa = aw[i];
            let wb = if bw.is_empty() { 0 } else { bw[i] };
            *w = op.eval_word(wa, wb);
        }
        self.mask_tail();
    }

    #[inline]
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl PartialEq for Lanes {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for Lanes {}

impl std::hash::Hash for Lanes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.words().hash(state);
        self.len.hash(state);
    }
}

impl std::fmt::Debug for Lanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lanes")
            .field("words", &self.words())
            .field("len", &self.len)
            .finish()
    }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight §7-3): `m[k]`
/// is row `k` with column `i` at bit `i`; afterwards bit `i` of row `k`
/// is the old bit `k` of row `i`. Six rounds of masked delta swaps —
/// 64 words of work per round instead of one operation per bit, the
/// kernel of `transpose_tiled`.
pub fn transpose_64x64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            // LSB-first variant of the classic delta swap (bit i of row k
            // is column i, so the off-diagonal halves trade the other way
            // round than in the MSB-first original).
            let t = ((m[k] >> j) ^ m[k | j]) & mask;
            m[k] ^= t << j;
            m[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// The one bit-matrix transposer. Per-sample packed rows and per-signal
/// lane columns are the two layouts of one matrix, so every packing
/// path — rows → columns ([`Lanes::pack_rows_into`],
/// [`PackedRows::columns_into`]) and columns → rows
/// ([`PackedRows::from_columns`], [`PackedRows::from_packed_columns`]) —
/// is this routine over a different source.
///
/// The source has `rows` rows of `width` bits and is read a word at a
/// time: `src(r, b)` is bits `64 b ..` of row `r` (bits past `width` in a
/// row's last word are ignored). `dst` receives the `width` rows of the
/// transpose, row `i` at `dst[i * stride ..][.. stride]` with
/// `stride = rows.div_ceil(64)`; every word of it is written, bits past
/// `rows` as zero. Each block of ≤ 64 × ≤ 64 bits is gathered into a
/// local 512-byte tile, transposed word-level ([`transpose_64x64`]) and
/// stored with one word write per destination row.
fn transpose_tiled(rows: usize, width: usize, src: impl Fn(usize, usize) -> u64, dst: &mut [u64]) {
    let stride = rows.div_ceil(64);
    assert_eq!(dst.len(), width * stride, "transpose destination size");
    let mut tile = [0u64; 64];
    for rb in 0..stride {
        let nrows = (rows - rb * 64).min(64);
        for cb in 0..width.div_ceil(64) {
            for (r, word) in tile.iter_mut().take(nrows).enumerate() {
                *word = src(rb * 64 + r, cb);
            }
            tile[nrows..].fill(0);
            transpose_64x64(&mut tile);
            let ncols = (width - cb * 64).min(64);
            for (k, &word) in tile.iter().take(ncols).enumerate() {
                dst[(cb * 64 + k) * stride + rb] = word;
            }
        }
    }
}

/// Per-sample bit rows, bit-packed: the row-major counterpart of a set
/// of [`Lanes`] columns. Row `j` is `width.div_ceil(64)` consecutive
/// words with signal `i` at bit `i % 64` of word `i / 64` — 8× smaller
/// than the `Vec<bool>` [`PackedRows::row`] expands it into, so a serving
/// layer can transpose a whole batch of outputs once, share the block,
/// and let each consumer expand only its own row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRows {
    words: Vec<u64>,
    rows: usize,
    width: usize,
}

impl PackedRows {
    /// No rows yet, `width` bits each, with room for `rows` of them in
    /// one allocation (none for `rows == 0`): the start of a block
    /// grown row by row ([`PackedRows::push_row`]).
    pub fn with_capacity(width: usize, rows: usize) -> PackedRows {
        PackedRows {
            words: Vec::with_capacity(rows * width.div_ceil(64)),
            rows: 0,
            width,
        }
    }

    /// Drops every row and keeps the allocation, to be grown again.
    pub fn clear(&mut self) {
        self.words.clear();
        self.rows = 0;
    }

    /// Appends one row, gathered from one `bool` per signal
    /// ([`gather_bits`]); inverse of [`PackedRows::row`].
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != width()`.
    pub fn push_row(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.width, "row has the wrong width");
        self.words.extend(bits.chunks(64).map(gather_bits));
        self.rows += 1;
    }

    /// Transposes per-signal lane columns into per-sample packed rows
    /// (row `j`, bit `i` = lane `j` of `columns[i]`), word-level
    /// (`transpose_tiled`).
    ///
    /// # Panics
    ///
    /// Panics if the columns have inconsistent lane counts.
    pub fn from_columns(columns: &[Lanes]) -> PackedRows {
        let rows = columns.first().map_or(0, Lanes::len);
        for c in columns {
            assert_eq!(c.len(), rows, "inconsistent lane counts across columns");
        }
        PackedRows::transposed(columns.len(), rows, |i, b| columns[i].words()[b])
    }

    /// [`PackedRows::from_columns`] over a flat packed buffer in
    /// [`Lanes::pack_rows_into`] layout: signal `i`'s `rows` lanes at
    /// `packed[i * stride ..][.. stride]`, `stride = rows.div_ceil(64)`
    /// (bits past `rows` in a column's last word are ignored). Inverse
    /// of [`PackedRows::columns_into`].
    ///
    /// # Panics
    ///
    /// Panics if `packed.len() != width * rows.div_ceil(64)`.
    pub fn from_packed_columns(packed: &[u64], width: usize, rows: usize) -> PackedRows {
        let stride = rows.div_ceil(64);
        assert_eq!(
            packed.len(),
            width * stride,
            "packed buffer does not hold {width} columns of {stride} words"
        );
        PackedRows::transposed(width, rows, |i, b| packed[i * stride + b])
    }

    /// `rows` packed rows from `width` lane columns read a word at a
    /// time (`column(i, b)` = lanes `64 b ..` of signal `i`).
    ///
    /// The block is allocated in whole 64-row tiles. A serving layer
    /// publishes these blocks from one thread and drops them on another,
    /// and a tiny block freed that way sits in the dropping thread's
    /// allocator cache until that thread's next small vector takes it —
    /// and then grows inside the publisher's arena (on
    /// `runtime_saturated`, 2 MB of resident memory that way).
    fn transposed(width: usize, rows: usize, column: impl Fn(usize, usize) -> u64) -> PackedRows {
        let per_row = width.div_ceil(64);
        let mut words = Vec::with_capacity(rows.next_multiple_of(64) * per_row);
        words.resize(rows * per_row, 0u64);
        transpose_tiled(width, rows, column, &mut words);
        PackedRows { words, rows, width }
    }

    /// Transposes the rows into per-signal lane columns in a
    /// caller-owned flat buffer — [`Lanes::pack_rows_into`] for rows
    /// that are already packed, with the same layout and return value
    /// (`stride = rows().div_ceil(64)`; `out` is resized to
    /// `width() × stride` words).
    pub fn columns_into(&self, out: &mut Vec<u64>) -> usize {
        let (stride, per_row) = (self.rows.div_ceil(64), self.width.div_ceil(64));
        out.clear();
        out.resize(self.width * stride, 0);
        let word = |r: usize, b: usize| self.words[r * per_row + b];
        transpose_tiled(self.rows, self.width, word, out);
        stride
    }

    /// Number of rows (samples).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bits per row (signals).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `j` expanded to one `bool` per signal.
    ///
    /// # Panics
    ///
    /// Panics if `j >= rows()`.
    pub fn row(&self, j: usize) -> Vec<bool> {
        assert!(j < self.rows, "row {j} out of range {}", self.rows);
        let stride = self.width.div_ceil(64);
        spread_words(&self.words[j * stride..(j + 1) * stride], self.width)
    }
}

/// The first `len` bits of `words` (bit `k` of word `w` is bit
/// `64 * w + k`), one `bool` each.
fn spread_words(words: &[u64], len: usize) -> Vec<bool> {
    let mut bits = vec![false; len];
    for (chunk, &word) in bits.chunks_mut(64).zip(words) {
        spread_bits(word, chunk);
    }
    bits
}

/// Packs up to 64 booleans into one word, LSB first — with
/// [`spread_bits`], the one bool↔bit conversion every packing path
/// shares (lane columns, packed rows, the wire codec's bytes). Each
/// whole 8-bool group collapses with a single multiply (each `bool` is a
/// 0/1 byte; the magic constant shifts byte `k` onto bit `56 + k`) — no
/// per-bit branches or shifts.
///
/// # Panics
///
/// Panics if `bits` is longer than 64.
#[inline]
pub fn gather_bits(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64, "a word holds 64 bits");
    let mut w = 0u64;
    let mut groups = bits.chunks_exact(8);
    let mut shift = 0;
    for group in groups.by_ref() {
        let bytes: [u8; 8] = std::array::from_fn(|k| group[k] as u8);
        let packed = u64::from_le_bytes(bytes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        w |= packed << shift;
        shift += 8;
    }
    // A ragged last group is a few shifts, not a variable-length copy.
    for (k, &bit) in groups.remainder().iter().enumerate() {
        w |= (bit as u64) << (shift + k);
    }
    w
}

/// `SPREAD[b][k]` is bit `k` of byte `b`: eight bits become eight bools
/// with one 8-byte copy instead of eight shift-and-tests.
const SPREAD: [[bool; 8]; 256] = {
    let mut table = [[false; 8]; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < 8 {
            table[b][k] = b >> k & 1 != 0;
            k += 1;
        }
        b += 1;
    }
    table
};

/// Inverse of [`gather_bits`]: `out[k]` = bit `k` of `word`, for the
/// `out.len()` low bits.
///
/// # Panics
///
/// Panics if `out` is longer than 64.
#[inline]
pub fn spread_bits(word: u64, out: &mut [bool]) {
    assert!(out.len() <= 64, "a word holds 64 bits");
    let mut bytes = word.to_le_bytes().into_iter();
    // Whole bytes are fixed-size 8-byte copies; only a ragged last group
    // pays for a variable-length one.
    let mut groups = out.chunks_exact_mut(8);
    for (group, byte) in groups.by_ref().zip(bytes.by_ref()) {
        group.copy_from_slice(&SPREAD[byte as usize]);
    }
    let tail = groups.into_remainder();
    if let Some(byte) = bytes.next() {
        tail.copy_from_slice(&SPREAD[byte as usize][..tail.len()]);
    }
}

/// Evaluates the netlist across all lanes simultaneously.
///
/// `inputs[i]` carries the batch values of primary input `i` (in
/// [`Netlist::inputs`] order); the result holds one [`Lanes`] per primary
/// output, in [`Netlist::outputs`] order.
///
/// # Errors
///
/// Returns [`NetlistError::InputArity`] if the number of input lane vectors
/// does not match the netlist's primary input count.
///
/// # Panics
///
/// Panics if the input lane vectors have inconsistent lane counts.
///
/// # Example
///
/// ```
/// use lbnn_netlist::{eval::evaluate, Lanes, Netlist, Op};
/// # fn main() -> Result<(), lbnn_netlist::NetlistError> {
/// let mut nl = Netlist::new("and");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_gate2(Op::And, a, b);
/// nl.add_output(y, "y");
/// let out = evaluate(&nl, &[
///     Lanes::from_bools(&[true, true, false]),
///     Lanes::from_bools(&[true, false, true]),
/// ])?;
/// assert_eq!(out[0].to_bools(), vec![true, false, false]);
/// # Ok(())
/// # }
/// ```
pub fn evaluate(netlist: &Netlist, inputs: &[Lanes]) -> Result<Vec<Lanes>, NetlistError> {
    if inputs.len() != netlist.inputs().len() {
        return Err(NetlistError::InputArity {
            expected: netlist.inputs().len(),
            got: inputs.len(),
        });
    }
    let lanes = inputs.first().map_or(0, Lanes::len);
    for l in inputs {
        assert_eq!(l.len(), lanes, "inconsistent lane counts across inputs");
    }

    let mut values: Vec<Lanes> = vec![Lanes::zeros(lanes); netlist.len()];
    for (i, &pi) in netlist.inputs().iter().enumerate() {
        values[pi.index()] = inputs[i].clone();
    }
    for (id, node) in netlist.iter() {
        if node.op() == Op::Input {
            continue;
        }
        let mut v = Lanes::zeros(lanes);
        let fan = node.fanins();
        match fan.len() {
            0 => v.assign_op(node.op(), &Lanes::zeros(lanes), None),
            1 => v.assign_op(node.op(), &values[fan[0].index()], None),
            _ => v.assign_op(
                node.op(),
                &values[fan[0].index()],
                Some(&values[fan[1].index()]),
            ),
        }
        values[id.index()] = v;
    }
    Ok(netlist
        .outputs()
        .iter()
        .map(|o| values[o.node.index()].clone())
        .collect())
}

/// The slice frame widths: 1/2/4/8/16 words per net =
/// 64/128/256/512/1024 lanes per block. A [`SliceFrame`] takes these
/// and no other, so every tile the replay splits a block into sits on a
/// whole number of its own width in every slot span.
pub const SUPPORTED_SLICE_WORDS: [usize; 5] = [1, 2, 4, 8, 16];

/// Requested SIMD policy for the kernel tape
/// ([`BitSliceEvaluator::compile_with`]).
/// A request is a *ceiling*, not a demand: compilation resolves it
/// against runtime CPU-feature detection ([`SimdMode::resolve`]) and
/// clamps to the best level the host actually has, so forcing `Avx2`
/// on a pre-AVX2 machine degrades gracefully instead of faulting.
/// Every level is bit-identical — the ceiling exists for differential
/// testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdMode {
    /// The widest level this host has (the default): AVX-512 when the
    /// host has AVX-512F.
    #[default]
    Auto,
    /// Cap at AVX2. On an AVX-512 host this pins the AVX2 build of the
    /// compiled tile, which is how differential tests reach it.
    Avx2,
    /// The baseline build of the compiled tile only: no target-feature
    /// code at all.
    Off,
}

impl SimdMode {
    /// Clamps the requested mode to what this CPU supports, via runtime
    /// feature detection. On non-x86_64 hosts every mode resolves to
    /// [`SimdLevel::Baseline`].
    pub fn resolve(self) -> SimdLevel {
        // The AVX-512 level runs the AVX2 build below 8 words.
        #[cfg(target_arch = "x86_64")]
        if self != SimdMode::Off && is_x86_feature_detected!("avx2") {
            return match self == SimdMode::Auto && is_x86_feature_detected!("avx512f") {
                true => SimdLevel::Avx512,
                false => SimdLevel::Avx2,
            };
        }
        SimdLevel::Baseline
    }
}

impl std::fmt::Display for SimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdMode::Auto => "auto",
            SimdMode::Avx2 => "avx2",
            SimdMode::Off => "off",
        })
    }
}

/// The SIMD dispatch level a tape actually executes with — the result
/// of resolving a [`SimdMode`] request against runtime CPU-feature
/// detection at compile time ([`BitSliceEvaluator::simd_level`]), so
/// the hot loop never re-detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// AVX-512F ternary logic, 512 bits per op, for tiles of 8 and 16
    /// words; tiles of 4 and 2 words run the AVX2 build.
    Avx512,
    /// The compiled tile built with AVX2 enabled: 256 bits per op.
    Avx2,
    /// The compiled tile built for the target's baseline (SSE2 on x86_64).
    Baseline,
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Baseline => "baseline",
        })
    }
}

/// Compile-time sentinel: the value is fed through the chain
/// accumulator, not a net slot of its own. Only used while building the
/// tape — emission resolves it to the dedicated accumulator slot (the
/// last slot of the frame), so the hot kernel never branches on it. An
/// emitted instruction whose `out` is the accumulator slot is a fused
/// chain interior — its result is consumed by the next instruction on
/// the tape and its slot line stays cache-hot.
const REG: u32 = u32::MAX;

/// One bit-sliced execution frame: a fixed number of `u64` words per
/// net, so one frame holds `64 × words_per_net` independent samples for
/// every signal of the netlist at once. A one-word frame is the classic
/// 64-lane slice; 2/4/8-word frames widen a block to 128/256/512 lanes.
///
/// Frames are plain scratch storage — [`BitSliceEvaluator::run_block`]
/// fills one from packed inputs, replays the kernel tape over it, and
/// reads the primary outputs back out. Reusing a frame across blocks and
/// batches keeps steady-state evaluation allocation-free. Net `slot`
/// occupies the contiguous words `slot × words_per_net ..` (net-major
/// layout, so each kernel step touches one small fixed-size span per
/// operand). Slots are *live* frame slots assigned by the compile-time
/// locality pass, not netlist node ids — dead nets share recycled slots.
///
/// The words are a window into a buffer up to one cache line longer,
/// starting on its first 64-byte boundary (safe code), so a 16-word
/// slot span is two whole lines. The buffer only ever grows; cloning
/// and comparing see the window, not the buffer.
#[derive(Debug)]
pub struct SliceFrame {
    buf: Vec<u64>,
    /// Where the window starts in `buf`: a property of the allocation,
    /// derived where `buf` is allocated and never copied.
    start: usize,
    /// Words in the window (`slots × words_per_net`).
    len: usize,
    words_per_net: usize,
}

impl Default for SliceFrame {
    /// An empty one-word-per-net (64-lane) frame; allocates nothing.
    fn default() -> Self {
        SliceFrame {
            buf: Vec::new(),
            start: 0,
            len: 0,
            words_per_net: 1,
        }
    }
}

impl Clone for SliceFrame {
    /// The same words on a line boundary of the clone's own buffer.
    fn clone(&self) -> Self {
        let mut frame = SliceFrame::with_width(self.slots(), self.words_per_net);
        frame.words_mut().copy_from_slice(self.words());
        frame
    }
}

impl PartialEq for SliceFrame {
    /// Windows, not buffers: where a window sits is the allocator's.
    fn eq(&self, other: &Self) -> bool {
        self.words_per_net == other.words_per_net && self.words() == other.words()
    }
}

impl Eq for SliceFrame {}

impl SliceFrame {
    /// A 64-lane frame with `slots` nets (one word per net), all zero.
    pub fn with_slots(slots: usize) -> Self {
        SliceFrame::with_width(slots, 1)
    }

    /// A frame with `slots` nets of `words_per_net` words each
    /// (`64 × words_per_net` lanes), all zero.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_net` is not in [`SUPPORTED_SLICE_WORDS`].
    pub fn with_width(slots: usize, words_per_net: usize) -> Self {
        let mut frame = SliceFrame::default();
        frame.set_width(words_per_net);
        frame.reshape(slots);
        frame
    }

    /// The frame's words, net-major, on a 64-byte boundary so no vector
    /// access of the replay kernels straddles a line. They load and
    /// store unaligned all the same: this is speed, not safety.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.buf[self.start..self.start + self.len]
    }

    /// [`SliceFrame::words`], mutably.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.start..self.start + self.len]
    }

    /// Sets the window to `len` words, keeping the words it had and
    /// zeroing the ones it gains. The buffer only grows — a reused frame
    /// stops allocating once it has held its largest shape — and
    /// growing is the one place a window changes allocation, hence the
    /// one place `start` is derived.
    fn resize_window(&mut self, len: usize) {
        if self.start + len > self.buf.len() {
            // A `Vec<u64>` is 8-byte aligned: the next 64-byte boundary
            // is a whole number of words, at most 7, ahead.
            let mut buf = vec![0u64; len + 7];
            let start = (buf.as_ptr() as usize).wrapping_neg() % 64 / 8;
            buf[start..start + self.len].copy_from_slice(self.words());
            (self.buf, self.start) = (buf, start);
        } else if len > self.len {
            self.buf[self.start + self.len..self.start + len].fill(0);
        }
        self.len = len;
    }

    /// Number of net slots in the frame.
    #[inline]
    pub fn slots(&self) -> usize {
        self.len / self.words_per_net
    }

    /// Words per net slot.
    #[inline]
    pub fn words_per_net(&self) -> usize {
        self.words_per_net
    }

    /// Lanes one block of this frame evaluates (`64 × words_per_net`).
    #[inline]
    pub fn lanes(&self) -> usize {
        64 * self.words_per_net
    }

    /// Changes the frame's width, preserving the slot count. All contents
    /// are zeroed: with slot reuse, a gate's slot may be read (behind a
    /// zero ANF mask, or as a partial-block tail) before the tape first
    /// writes it, so a width change must never leave stale words from an
    /// earlier layout where a reused slot now lands.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_net` is not in [`SUPPORTED_SLICE_WORDS`].
    pub fn set_width(&mut self, words_per_net: usize) {
        assert!(
            SUPPORTED_SLICE_WORDS.contains(&words_per_net),
            "slice frame width {words_per_net}: a frame is at least one word wide, \
             and one of {SUPPORTED_SLICE_WORDS:?}"
        );
        if words_per_net != self.words_per_net {
            let slots = self.slots();
            self.words_per_net = words_per_net;
            self.len = 0;
            self.resize_window(slots * words_per_net);
        }
    }

    /// One packed 64-sample word of net `slot`: word `index` of its
    /// `words_per_net` span (word `w` covers lanes `64w .. 64w+64`).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= slots()` or `index >= words_per_net()`.
    #[inline]
    pub fn word(&self, slot: usize, index: usize) -> u64 {
        assert!(index < self.words_per_net, "word index out of range");
        self.words()[slot * self.words_per_net + index]
    }

    /// Sets one packed 64-sample word of net `slot`; see
    /// [`SliceFrame::word`].
    ///
    /// # Panics
    ///
    /// Panics if `slot >= slots()` or `index >= words_per_net()`.
    #[inline]
    pub fn set_word(&mut self, slot: usize, index: usize, value: u64) {
        assert!(index < self.words_per_net, "word index out of range");
        let at = slot * self.words_per_net + index;
        self.words_mut()[at] = value;
    }

    /// Resizes the frame to `slots` nets at its current width (new slots
    /// are zero).
    pub(crate) fn reshape(&mut self, slots: usize) {
        self.resize_window(slots * self.words_per_net);
    }
}

/// One straight-line kernel step: `out = k0 ^ (k1 & b) ^ (k2 & a) ^
/// (k3 & a & b)`, where each of `a`, `b`, `out` is a frame slot —
/// fused-chain values use the dedicated accumulator slot (the last slot
/// of the frame), resolved at compile time so the wide kernels never
/// branch (the one-word tile keeps it in a register, [`replay_word`]).
///
/// The coefficients come from [`crate::Op::anf_masks`]; single-input and
/// constant cells simply have the unused coefficients zeroed, so every
/// gate kind executes the same branch-free sequence of bitwise ops. The
/// masks are the cell's own, stored per cell even inside fused chains,
/// composed with the folded arity-1 cells an operand reads through
/// ([`Folds`]) — which is what keeps in-place hot patching a pure mask
/// rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SliceInstr {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) out: u32,
    pub(crate) k: [u64; 4],
}

/// "Not folded" in the fold tables (no cell, no path).
const NO_FOLD: u32 = u32::MAX;

/// An arity-1 cell that drives no primary output, folded into the
/// instructions that read it: it has no instruction and no slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FoldedCell {
    /// Its netlist node id.
    cell: u32,
    /// Its fanin's index in [`Folds::cells`] when the fanin is folded
    /// too (a buffer run), else [`NO_FOLD`]: the fanin is the root whose
    /// slot the readers read.
    up: u32,
    /// Its current function.
    op: Op,
}

/// An instruction with folded cells on an operand path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FoldedRead {
    /// Its tape position.
    instr: u32,
    /// Its own cell's function — its masks before composition.
    own: Op,
    /// For operands `a` and `b`: the folded cell it reads through (an
    /// index into [`Folds::cells`]), or [`NO_FOLD`].
    via: [u32; 2],
}

/// What the fold step removed from a tape and which instructions read
/// through it — all [`BitSliceEvaluator::patched`] needs to recompose
/// masks. Both tables are empty (no allocation) when nothing folded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Folds {
    /// Every folded cell, in arena order (sorted by `cell`; a cell's
    /// `up` precedes it).
    cells: Vec<FoldedCell>,
    /// Every instruction reading through one, in tape order.
    reads: Vec<FoldedRead>,
}

impl Folds {
    /// Writes each folded read's composed masks into `tape`: its own
    /// cell's masks with each folded operand path substituted in.
    fn compose(&self, tape: &mut [SliceInstr]) {
        // `path[e]`: the function from cell `e`'s root to cell `e`'s
        // output, as `x ↦ c ^ (d & x)`.
        let mut path: Vec<[u64; 2]> = Vec::with_capacity(self.cells.len());
        for f in &self.cells {
            let [c, d] = unary(f.op);
            let [pc, pd] = match f.up {
                NO_FOLD => [0, !0],
                up => path[up as usize],
            };
            path.push([c ^ (d & pc), d & pd]);
        }
        for read in &self.reads {
            let mut k = read.own.anf_masks();
            for (operand, &via) in read.via.iter().enumerate() {
                if via != NO_FOLD {
                    k = substitute(k, operand, path[via as usize]);
                }
            }
            tape[read.instr as usize].k = k;
        }
    }
}

/// The function an arity-1 op computes on the tape, as `(c, d)` with
/// `out = c ^ (d & x)`: the tape feeds the operand to both `a` and `b`,
/// so `d = k1 ^ k2 ^ k3`.
fn unary(op: Op) -> [u64; 2] {
    let [k0, k1, k2, k3] = op.anf_masks();
    [k0, k1 ^ k2 ^ k3]
}

/// ANF masks `k` with operand `a` (`operand == 0`) or `b` replaced by
/// `c ^ (d & x)`. An inverter (`c = d = !0`) on `a` is `k0 ^= k2;
/// k1 ^= k3`, on `b` `k0 ^= k1; k2 ^= k3`; a buffer changes nothing.
fn substitute(k: [u64; 4], operand: usize, [c, d]: [u64; 2]) -> [u64; 4] {
    let [k0, k1, k2, k3] = k;
    match operand {
        0 => [k0 ^ (k2 & c), k1 ^ (k3 & c), k2 & d, k3 & d],
        _ => [k0 ^ (k1 & c), k1 & d, k2 ^ (k3 & c), k3 & d],
    }
}

/// What the tape-locality pass did to a compiled tape, and how the tape
/// will execute ([`BitSliceEvaluator::tape_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeStats {
    /// Kernel instructions on the tape (one per executable cell that is
    /// not folded).
    pub tape_len: usize,
    /// The tape's leading instructions that compute the read cone — the
    /// emitting cells outputs `..reads` depend on
    /// ([`BitSliceEvaluator::compile_reading`]). A pass that hands on
    /// only those outputs replays just this prefix; `tape_len` when
    /// every output is read.
    pub prefix_len: usize,
    /// Arity-1 cells (buffers, inverters) that drive no primary output
    /// and so emitted no instruction: their readers read the nearest
    /// ancestor that is not arity-1, with any inversion folded into
    /// their masks.
    pub folded_cells: usize,
    /// Fused chains of length ≥ 2 (runs of single-fanout cells whose
    /// interiors share the accumulator slot instead of slots of their
    /// own).
    pub fused_chains: usize,
    /// Instructions whose result goes to the accumulator slot (chain
    /// interiors; `tape_len - fused_instrs` results land in net slots).
    pub fused_instrs: usize,
    /// Frame slots a slot-per-node layout would need (the netlist size —
    /// what the frame cost before the locality pass).
    pub frame_slots_unoptimized: usize,
    /// Live data slots after renumbering and reuse. The allocated
    /// [`SliceFrame`] adds one dedicated accumulator scratch slot on
    /// top (slot index `frame_slots`).
    pub frame_slots: usize,
    /// The SIMD dispatch level tiles execute with — the requested
    /// [`SimdMode`] resolved against runtime CPU-feature detection.
    pub simd: SimdLevel,
}

/// Replays `tape` over the first `active` words of every slot span of
/// a frame buffer, tile by tile: words `0 .. active` are split
/// largest-first into tiles from `{16, 8, 4, 2, 1}` — by how many words
/// the block carries and by nothing else (a narrower tile touches the
/// same 64-byte lines and only multiplies tape walks; table in
/// `docs/ARCHITECTURE.md`, "Kernel locality") — and each tile of two or
/// more words is routed to the widest kernel `simd` allows; a one-word
/// tile runs [`replay_word`], which keeps the accumulator (slot `acc`)
/// in a register; `per` is a supported width, so every tile starts on a
/// multiple of its own width. Words `active .. per` are neither read
/// nor written — a batch that fills 1 of a 16-word frame's words pays
/// for one word.
/// This is the shared engine behind [`BitSliceEvaluator::run_block`]
/// (`active = per`), the block loop's occupied-word replay and the
/// per-partition segment replay of
/// [`crate::partitioned::PartitionedEngine`].
///
/// Callers must guarantee every slot index on `tape` satisfies
/// `slot * per + per <= words.len()`. An out-of-range index panics on
/// every level but one: on the AVX-512 kernel it is undefined
/// behaviour.
///
/// # Panics
///
/// Panics if `active > per`.
#[inline]
pub(crate) fn replay_tape(
    tape: &[SliceInstr],
    simd: SimdLevel,
    words: &mut [u64],
    per: usize,
    active: usize,
    acc: u32,
) {
    // The SIMD kernels' bounds rest on this: a real assert, once per
    // replay, not per tile.
    assert!(active <= per, "active words exceed the frame width");
    // Speed, not safety (the kernels load and store unaligned): a frame
    // constructor that forgets its line offset replays 10–25 % slower
    // and nothing else would say so.
    debug_assert!(
        (words.as_ptr() as usize).is_multiple_of(64),
        "replay buffer is not a cache-line-aligned SliceFrame window"
    );
    let mut base = 0;
    while base < active {
        // The widest power of two the remaining words fill, up to 16.
        let tile = 1 << (active - base).ilog2().min(4);
        match tile {
            1 => replay_word(tape, words, per, base, acc),
            _ => replay_tile_dispatch(tape, simd, tile, words, per, base),
        }
        base += tile;
    }
}

/// The one-word tile — what every ≤ 64-lane block replays, on every
/// SIMD level. It carries the fused-chain accumulator (slot `acc`) in a
/// register: a chain interior hands its result to the next instruction
/// without the store→load round trip through the slot, which at one
/// word is most of an instruction's latency (one lane of folded JSC-M,
/// a 16-word frame: 26–27 → 18–20 µs a pass). The wider tiles keep the
/// branch-free slot form, which measured ~15 % faster on large
/// netlists at full width ("Kernel locality" in `docs/ARCHITECTURE.md`).
/// Indexing is checked, like [`replay_tile`]. The frame's accumulator
/// slot is not written: only the instruction after a write reads it
/// (or an arity-0 one, behind zero masks), and here that read is the
/// register.
fn replay_word(tape: &[SliceInstr], words: &mut [u64], per: usize, base: usize, acc: u32) {
    let mut reg = 0u64;
    for i in tape {
        let load = |slot: u32| match slot == acc {
            true => reg,
            false => words[slot as usize * per + base],
        };
        let (a, b) = (load(i.a), load(i.b));
        let r = i.k[0] ^ (i.k[1] & b) ^ (a & (i.k[2] ^ (i.k[3] & b)));
        match i.out == acc {
            true => reg = r,
            false => words[i.out as usize * per + base] = r,
        }
    }
}

/// Routes one tile of 2, 4, 8 or 16 words to its kernel: on the
/// AVX-512 level 8- and 16-word tiles run the ternary-logic kernel
/// ([`simd::run_tile_avx512`]), every other tile runs the compiled tile
/// ([`replay_tile`]), built with AVX2 on the AVX-512 and AVX2 levels.
///
/// Each `unsafe` call relies on `simd` having been resolved by runtime
/// feature detection at tape compile ([`SimdMode::resolve`]). The
/// AVX-512 kernel also indexes unchecked: [`replay_tape`] keeps
/// `base + tile <= active <= per` over a buffer with
/// `slot * per + per <= words.len()` for every slot on the tape.
#[allow(unsafe_code)]
fn replay_tile_dispatch(
    tape: &[SliceInstr],
    simd: SimdLevel,
    tile: usize,
    words: &mut [u64],
    per: usize,
    base: usize,
) {
    #[cfg(target_arch = "x86_64")]
    match (simd, tile) {
        (SimdLevel::Avx512, 8 | 16) => {
            debug_assert!(
                tape.iter()
                    .flat_map(|i| [i.a, i.b, i.out])
                    .all(|slot| slot as usize * per + base + tile <= words.len()),
                "a tape slot's tile runs past the frame"
            );
            return match tile {
                // SAFETY: AVX-512F detected at tape compile; every span in bounds.
                16 => unsafe { simd::run_tile_avx512::<16>(tape, words, per, base) },
                // SAFETY: AVX-512F detected at tape compile; every span in bounds.
                _ => unsafe { simd::run_tile_avx512::<8>(tape, words, per, base) },
            };
        }
        (SimdLevel::Avx512 | SimdLevel::Avx2, _) => {
            // SAFETY: both levels resolve only where AVX2 was detected.
            return unsafe { replay_tile_avx2(tape, tile, words, per, base) };
        }
        (SimdLevel::Baseline, _) => {}
    }
    replay_tile_any(tape, tile, words, per, base)
}

/// [`replay_tile_any`] built with AVX2 enabled: safe code, `unsafe` to
/// call only because the CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn replay_tile_avx2(tape: &[SliceInstr], tile: usize, words: &mut [u64], per: usize, base: usize) {
    replay_tile_any(tape, tile, words, per, base)
}

/// [`replay_tile`] at a width of 2, 4, 8 or 16 words, inlined into each
/// build so that each vectorizes it for its own target features.
#[inline(always)]
fn replay_tile_any(tape: &[SliceInstr], tile: usize, words: &mut [u64], per: usize, base: usize) {
    match tile {
        16 => replay_tile::<16>(tape, words, per, base),
        8 => replay_tile::<8>(tape, words, per, base),
        4 => replay_tile::<4>(tape, words, per, base),
        _ => replay_tile::<2>(tape, words, per, base),
    }
}

/// The compiled tile: replays the whole tape over words
/// `base .. base + TW` of every slot span. `TW` divides `per` and
/// `base`, so the buffer is viewed as `TW`-word spans and each operand
/// is one checked index: a slot past the buffer panics.
#[inline(always)]
fn replay_tile<const TW: usize>(tape: &[SliceInstr], words: &mut [u64], per: usize, base: usize) {
    debug_assert!(per.is_multiple_of(TW) && base.is_multiple_of(TW));
    let spans = &mut words.as_chunks_mut::<TW>().0[base / TW..];
    // A full-width tile (every full block) gets a constant stride, so
    // its index is the slot itself: without this arm the compiled tile
    // ran 4–15 % behind the hand-written kernels it replaced.
    match per / TW {
        1 => replay_spans(tape, spans, 1),
        stride => replay_spans(tape, spans, stride),
    }
}

/// [`replay_tile`]'s tape walk, slot `s` at span `s * stride`: a word
/// loop the compiler vectorizes, branch-free by construction — the
/// fused-chain accumulator was resolved to the dedicated scratch slot
/// at compile time, so every instruction is an unconditional
/// load/load/store (an interior's write is re-read by the very next
/// instruction, keeping the accumulator line in L1). Operand spans are
/// copied out in full before the result is stored, so an instruction
/// may safely write the recycled slot of one of its own operands.
#[inline(always)]
fn replay_spans<const TW: usize>(tape: &[SliceInstr], spans: &mut [[u64; TW]], stride: usize) {
    for i in tape {
        let (a, b) = (spans[i.a as usize * stride], spans[i.b as usize * stride]);
        let mut r = [0u64; TW];
        for w in 0..TW {
            r[w] = i.k[0] ^ (i.k[1] & b[w]) ^ (a[w] & (i.k[2] ^ (i.k[3] & b[w])));
        }
        spans[i.out as usize * stride] = r;
    }
}

impl TapeStats {
    /// Bytes of the live frame at `words_per_net` words per slot.
    pub fn frame_bytes(&self, words_per_net: usize) -> usize {
        self.frame_slots * words_per_net * 8
    }

    /// The widest tile (words) a block replays as: a block's occupied
    /// words are split largest-first from `{16, 8, 4, 2, 1}`, so the
    /// widest supported block is one walk of the tape.
    pub fn tile_words(&self) -> usize {
        16
    }
}

/// A bump allocator over frame slots with a free list: dead slots are
/// recycled LIFO (the hottest lines first).
#[derive(Default)]
pub(crate) struct SlotPool {
    pub(crate) free: Vec<u32>,
    pub(crate) high: u32,
}

impl SlotPool {
    pub(crate) fn alloc(&mut self) -> u32 {
        if let Some(s) = self.free.pop() {
            return s;
        }
        let s = self.high;
        self.high += 1;
        s
    }

    pub(crate) fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }
}

/// The arity check shared by every batch entry of both evaluators.
pub(crate) fn check_arity(expected: usize, got: usize) -> Result<(), NetlistError> {
    if got != expected {
        return Err(NetlistError::InputArity { expected, got });
    }
    Ok(())
}

/// The output sink that builds [`Lanes`] — the one
/// [`BitSliceEvaluator::evaluate_with`] hands
/// [`BitSliceEvaluator::eval_blocks`]: `columns` (emptied, with room
/// for `outputs`) receives one column of `lanes` lanes per output.
/// Blocks arrive in order (outputs within a block in any order): a
/// column is made from its first block's words, later blocks are stored
/// behind them, and the last block masks the tail.
///
/// A column of ≤ 16 words (the widest block) is written straight into
/// its inline `Lanes`, so a batch of ≤ 1024 lanes allocates `columns`
/// and nothing per output. A wider column is a heap block allocated on
/// first touch — after the block's replay, so it is written while its
/// lines are hot and the replay's working set is not diluted
/// (allocating all heap columns up front measured 3–5 % slower end to
/// end) — and for the whole batch at once, so later blocks never
/// reallocate. A zero-lane batch has no blocks: its `outputs` empty
/// columns are there from the start.
#[inline]
pub fn lane_sink(
    columns: &mut Vec<Lanes>,
    outputs: usize,
    lanes: usize,
) -> impl FnMut(usize, usize, &[u64]) + '_ {
    let stride = lanes.div_ceil(64);
    columns.clear();
    columns.reserve_exact(outputs);
    if stride == 0 {
        columns.resize(outputs, Lanes::zeros(0));
    }
    move |o, base, words| {
        let last = base + words.len() == stride;
        if base == 0 {
            let mut column = Lanes {
                words: LaneWords::with_first(stride, words),
                len: lanes,
            };
            if last {
                column.mask_tail();
            }
            match o == columns.len() {
                true => columns.push(column),
                false => place(columns, o, column),
            }
        } else {
            let column = &mut columns[o];
            column.words.put(base, words);
            if last {
                column.mask_tail();
            }
        }
    }
}

/// Stores a column that did not arrive next in order: a partitioned
/// engine hands its outputs on by partition, so the places of those
/// still to come are held by empty columns.
#[cold]
fn place(columns: &mut Vec<Lanes>, o: usize, column: Lanes) {
    if o >= columns.len() {
        columns.resize(o + 1, Lanes::zeros(0));
    }
    columns[o] = column;
}

/// A netlist compiled into a width-generic bit-sliced kernel tape.
///
/// Compilation walks the arena once, turning every executable cell into a
/// kernel instruction in topological order — except arity-1 cells that
/// drive no primary output, which fold into their readers' masks — then
/// runs a locality pass: runs of single-fanout cells are fused into
/// chains whose intermediate words all share one dedicated accumulator slot
/// (kept cache-hot by back-to-back reuse, with no hot-loop branches),
/// and frame slots are renumbered and recycled by a liveness allocator.
/// Evaluation then processes the batch one [`SliceFrame`] block
/// at a time — `64 × words_per_net` lanes per block: load each primary
/// input's packed words into the frame, replay the tape, read the primary
/// outputs back. The tape itself is width-independent (instructions carry
/// slot indices and ANF masks), so one compiled evaluator serves every
/// frame width. Results are bit-identical to [`evaluate`] on the same
/// inputs at every width, on every SIMD level.
///
/// # Example
///
/// ```
/// use lbnn_netlist::eval::{evaluate, BitSliceEvaluator};
/// use lbnn_netlist::{Lanes, Netlist, Op};
/// let mut nl = Netlist::new("f");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.add_gate2(Op::Nand, a, b);
/// nl.add_output(y, "y");
/// let inputs = [
///     Lanes::from_bools(&[true, true, false]),
///     Lanes::from_bools(&[true, false, true]),
/// ];
/// let sliced = BitSliceEvaluator::compile(&nl);
/// assert_eq!(
///     sliced.evaluate(&inputs).unwrap(),
///     evaluate(&nl, &inputs).unwrap(),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSliceEvaluator {
    /// Straight-line program, one instruction per executable node that
    /// is not folded.
    tape: Vec<SliceInstr>,
    /// Netlist node id behind each tape instruction (`tape[i]` computes
    /// cell `cells[i]`) — the instruction → cell-id table hot patching
    /// rewrites through.
    cells: Vec<u32>,
    /// Frame slot of each primary input, in [`Netlist::inputs`] order.
    inputs: Vec<u32>,
    /// Frame slot of each primary output, in [`Netlist::outputs`] order.
    outputs: Vec<u32>,
    /// How many leading outputs the read cone covers (at most
    /// `outputs.len()`): a pass emitting no more than these replays
    /// only `tape[..stats.prefix_len]`.
    reads: usize,
    /// Allocated frame size in slots: the live data slots after
    /// renumbering and reuse, plus the accumulator scratch slot.
    slots: usize,
    /// The folded arity-1 cells and the instructions reading through
    /// them.
    folds: Folds,
    /// What the locality pass did.
    stats: TapeStats,
}

impl BitSliceEvaluator {
    /// Compiles `netlist` into a kernel tape that runs on the widest
    /// SIMD level this host has ([`SimdMode::Auto`]).
    pub fn compile(netlist: &Netlist) -> Self {
        BitSliceEvaluator::compile_with(netlist, SimdMode::Auto)
    }

    /// Compiles `netlist` into a kernel tape whose replay kernels go no
    /// wider than `simd` — the ceiling differential tests pin the AVX2
    /// and baseline builds of the compiled tile with on an AVX-512 host.
    /// The tape itself is the same at every level.
    ///
    /// The pass is deterministic and purely structural: folding,
    /// fusion, tape order, and slot assignment depend only on the
    /// netlist's wiring and on which cells are arity-1 or drive outputs
    /// (never on gate kinds — a valid patch changes neither), so
    /// compiling a patched netlist afresh yields the same structure as
    /// patching a compiled tape in place — the invariant
    /// [`BitSliceEvaluator::patched`] relies on.
    pub fn compile_with(netlist: &Netlist, simd: SimdMode) -> Self {
        BitSliceEvaluator::compile_for(netlist, simd, usize::MAX)
    }

    /// Compiles `netlist` for a reader of only its first `reads`
    /// outputs — a hidden layer of a model chain, whose next layer reads
    /// those and no others. The tape puts the read cone first: every
    /// emitting cell outputs `..reads` depend on, in arena order, then
    /// everything else. [`BitSliceEvaluator::eval_blocks`] replays just
    /// that prefix ([`TapeStats::prefix_len`]) when it hands on no more
    /// than `reads` outputs, and the whole tape otherwise, with results
    /// bit-identical to [`evaluate`] either way.
    ///
    /// With `reads` at or above the output count this is
    /// [`BitSliceEvaluator::compile`], instruction for instruction.
    /// Like the rest of the pass, the order is structural, so
    /// [`BitSliceEvaluator::patched`] keeps the prefix.
    pub fn compile_reading(netlist: &Netlist, reads: usize) -> Self {
        BitSliceEvaluator::compile_for(netlist, SimdMode::Auto, reads)
    }

    /// The locality pass behind every compile entry: the read cone of
    /// outputs `..reads` goes first, and the replay kernels go no wider
    /// than `simd`.
    fn compile_for(netlist: &Netlist, simd: SimdMode, reads: usize) -> Self {
        let n = netlist.len();
        const NEVER: usize = usize::MAX;
        let mut pinned = vec![false; n];
        for o in netlist.outputs() {
            pinned[o.node.index()] = true;
        }
        let reads = reads.min(netlist.outputs().len());

        // 0. Folding: an arity-1 cell that drives no primary output
        // (a balance buffer, an inverter) emits no instruction. Its
        // readers read `root` — the nearest ancestor that is not
        // folded — and compose the folded path into their masks
        // ([`Folds::compose`]). Everything below runs on this folded
        // graph: a reader's operand `f` is `root[f]`.
        let mut root: Vec<u32> = (0..n as u32).collect();
        let mut fold_of = vec![NO_FOLD; n]; // index in `folds.cells`
        let mut folds = Folds::default();
        for (id, node) in netlist.iter() {
            let i = id.index();
            if node.op().arity() == 1 && !pinned[i] {
                let f = node.fanins()[0].index();
                root[i] = root[f];
                fold_of[i] = folds.cells.len() as u32;
                folds.cells.push(FoldedCell {
                    cell: i as u32,
                    up: fold_of[f],
                    op: node.op(),
                });
            }
        }
        // The cells that emit an instruction.
        let emits = |node: &Node, i: usize| node.op() != Op::Input && fold_of[i] == NO_FOLD;

        // 1. Chain fusion: for each gate, at most one single-fanout,
        // non-input fanin is fed through the accumulator instead of the
        // frame. `counts == 1` guarantees the producer has exactly this
        // one reader (a duplicate operand or a primary output bumps the
        // count past 1), so chains are disjoint by construction.
        let mut counts = vec![0u32; n];
        for (id, node) in netlist.iter() {
            if fold_of[id.index()] == NO_FOLD {
                for &f in node.fanins() {
                    counts[root[f.index()] as usize] += 1;
                }
            }
        }
        for o in netlist.outputs() {
            counts[o.node.index()] += 1;
        }
        let mut reg_source = vec![REG; n]; // consumer -> fanin fed via acc
        let mut fused_out = vec![false; n]; // value lives in acc, no slot
        for (id, node) in netlist.iter() {
            if !emits(node, id.index()) {
                continue;
            }
            for &f in node.fanins() {
                let r = root[f.index()] as usize;
                let input = netlist.node(NodeId::new(r as u32)).op() == Op::Input;
                if counts[r] == 1 && !input && !fused_out[r] {
                    reg_source[id.index()] = r as u32;
                    fused_out[r] = true;
                    break;
                }
            }
        }

        // 2. The read cone of outputs `..reads` on the folded graph, by
        // one reverse arena walk (fanins precede their readers). `None`
        // when every output is read: the whole tape is the cone.
        let cone = (reads < netlist.outputs().len()).then(|| {
            let mut cone = vec![false; n];
            for o in &netlist.outputs()[..reads] {
                cone[o.node.index()] = true;
            }
            for i in (0..n).rev() {
                if cone[i] && fold_of[i] == NO_FOLD {
                    for &f in netlist.node(NodeId::new(i as u32)).fanins() {
                        cone[root[f.index()] as usize] = true;
                    }
                }
            }
            cone
        });

        // 3. Tape order: arena order — the cone's cells first, then the
        // rest — except chain interiors are pulled forward to sit
        // contiguously before their terminator, so each interior's
        // accumulator value is consumed by the very next instruction.
        // Every frame operand of a chain member is an input or another
        // chain's terminator at an earlier arena position, and a cone
        // cell reads only cone cells, so the order stays topological. A
        // chain never straddles the split: an interior's one reader is
        // the next link, so it is in the cone exactly when that link is.
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut fused_chains = 0usize;
        let mut prefix_len = 0;
        let segments: &[bool] = if cone.is_some() {
            &[true, false]
        } else {
            &[true]
        };
        for &first in segments {
            for (id, node) in netlist.iter() {
                let i = id.index();
                if !emits(node, i) || fused_out[i] || cone.as_ref().is_some_and(|c| c[i] != first) {
                    continue;
                }
                let start = order.len();
                let mut cur = i as u32;
                loop {
                    order.push(cur);
                    let src = reg_source[cur as usize];
                    if src == REG {
                        break;
                    }
                    cur = src;
                }
                order[start..].reverse();
                if order.len() - start >= 2 {
                    fused_chains += 1;
                }
            }
            if first {
                prefix_len = order.len();
            }
        }

        // 4. Liveness, on the final order: the last tape position reading
        // each node from the frame (accumulator reads don't count —
        // interiors never get slots), so a cone value the tail reads
        // stays live across the split.
        let mut last_read = vec![NEVER; n];
        for (p, &yid) in order.iter().enumerate() {
            let y = yid as usize;
            for &f in netlist.node(NodeId::new(yid)).fanins() {
                let r = root[f.index()];
                if r != reg_source[y] {
                    last_read[r as usize] = p;
                }
            }
        }

        // 5. Slot assignment. Releases happen *before* the defining
        // instruction's slot is allocated, so a value may land in the
        // slot of the operand that died feeding it — safe because the
        // kernel loads both operand spans in full before storing.
        let mut slot_of = vec![REG; n];
        let mut pool = SlotPool::default();
        for &i in netlist.inputs() {
            slot_of[i.index()] = pool.alloc();
        }
        // Unread, unpinned inputs free their slot right away: every
        // block writes all input slots before the tape runs, so a gate
        // reusing the slot simply overwrites the dead words.
        for &i in netlist.inputs() {
            let ii = i.index();
            if last_read[ii] == NEVER && !pinned[ii] {
                pool.release(slot_of[ii]);
            }
        }
        for (p, &yid) in order.iter().enumerate() {
            let y = yid as usize;
            let fan = netlist.node(NodeId::new(yid)).fanins();
            let mut released = [REG; 2];
            let mut nr = 0;
            for &f in fan {
                let r = root[f.index()];
                if r == reg_source[y] {
                    continue;
                }
                let ri = r as usize;
                if last_read[ri] == p && !pinned[ri] && released[..nr].iter().all(|&x| x != r) {
                    pool.release(slot_of[ri]);
                    released[nr] = r;
                    nr += 1;
                }
            }
            if !fused_out[y] {
                slot_of[y] = pool.alloc();
                // A stored value nothing reads (and no output pins) frees
                // its slot immediately for the next definition.
                if last_read[y] == NEVER && !pinned[y] {
                    pool.release(slot_of[y]);
                }
            }
        }
        let frame_slots = pool.high as usize;
        // The chain accumulator lives in a dedicated scratch slot just
        // past the live data slots. Resolving `REG` to a real slot here
        // keeps the wide kernels branch-free (every operand/result is an
        // unconditional indexed load/store); the slot is written and
        // re-read back-to-back, so it stays cache-hot regardless of
        // frame size. It is always reserved — arity-0/1 instructions
        // read it behind all-zero operand masks even where nothing fuses.
        let acc_slot = frame_slots as u32;

        // 6. Emit the tape and the instruction → cell-id table; an
        // instruction with a folded operand path is recorded for
        // composition.
        let mut tape = Vec::with_capacity(order.len());
        let mut cells = Vec::with_capacity(order.len());
        for (p, &yid) in order.iter().enumerate() {
            let y = yid as usize;
            let node = netlist.node(NodeId::new(yid));
            let fan = node.fanins();
            let rs = reg_source[y];
            let operand = |f: NodeId| {
                let r = root[f.index()];
                if r == rs {
                    acc_slot
                } else {
                    slot_of[r as usize]
                }
            };
            // Arity 0 reads the accumulator behind all-zero operand
            // masks; arity 1 duplicates its operand into `b`.
            let (a, b, via) = match fan.len() {
                0 => (acc_slot, acc_slot, [NO_FOLD; 2]),
                1 => {
                    let via = fold_of[fan[0].index()];
                    (operand(fan[0]), operand(fan[0]), [via; 2])
                }
                _ => {
                    let via = [fold_of[fan[0].index()], fold_of[fan[1].index()]];
                    (operand(fan[0]), operand(fan[1]), via)
                }
            };
            if via != [NO_FOLD; 2] {
                folds.reads.push(FoldedRead {
                    instr: p as u32,
                    own: node.op(),
                    via,
                });
            }
            let out = if fused_out[y] { acc_slot } else { slot_of[y] };
            tape.push(SliceInstr {
                a,
                b,
                out,
                k: node.op().anf_masks(),
            });
            cells.push(yid);
        }
        folds.compose(&mut tape);

        let stats = TapeStats {
            tape_len: tape.len(),
            prefix_len,
            folded_cells: folds.cells.len(),
            fused_chains,
            fused_instrs: tape.iter().filter(|i| i.out == acc_slot).count(),
            frame_slots_unoptimized: n,
            frame_slots,
            // Feature detection happens once here, never in the hot loop.
            simd: simd.resolve(),
        };
        BitSliceEvaluator {
            tape,
            cells,
            inputs: netlist
                .inputs()
                .iter()
                .map(|i| slot_of[i.index()])
                .collect(),
            outputs: netlist
                .outputs()
                .iter()
                .map(|o| slot_of[o.node.index()])
                .collect(),
            reads,
            // The allocated frame = live data slots + the accumulator
            // scratch slot.
            slots: frame_slots + 1,
            folds,
            stats,
        }
    }

    /// A copy of this tape with the ANF masks of every patched cell
    /// replaced, leaving all structure (operand slots, instruction
    /// order, folding, fusion, frame layout) untouched.
    ///
    /// Folding, fusion and slot assignment are purely structural (see
    /// [`BitSliceEvaluator::compile_with`]), and every instruction —
    /// chain interiors included — carries its own cell's masks composed
    /// with the folded cells its operands read through, so rewriting a
    /// cell's masks, or a folded cell's function and recomposing its
    /// readers', *is* the re-derived tape: the result is bit-identical
    /// to a fresh compile of the patched netlist.
    ///
    /// Callers are expected to have validated `patches` against the
    /// source netlist ([`PatchSet::validate`]); this method only
    /// requires each target to have a tape instruction (looked up
    /// through the instruction → cell-id table) or to be folded.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNode`] if a patched id has no
    /// instruction and is not folded — out of range, or a primary input.
    pub fn patched(&self, patches: &PatchSet) -> Result<BitSliceEvaluator, NetlistError> {
        let mut index = vec![u32::MAX; self.stats.frame_slots_unoptimized];
        for (p, &cell) in self.cells.iter().enumerate() {
            index[cell as usize] = p as u32;
        }
        let mut out = self.clone();
        for (id, op) in patches.iter() {
            let cell = id.index() as u32;
            match index.get(id.index()) {
                Some(&p) if p != u32::MAX => out.tape[p as usize].k = op.anf_masks(),
                _ => match out.folds.cells.binary_search_by_key(&cell, |f| f.cell) {
                    Ok(f) => out.folds.cells[f].op = op,
                    Err(_) => return Err(NetlistError::InvalidNode { id }),
                },
            }
        }
        // Recompose every instruction reading through a folded cell:
        // its own cell or a cell on its operand paths may have changed.
        for read in &mut out.folds.reads {
            let cell = NodeId::new(self.cells[read.instr as usize]);
            read.own = patches.get(cell).unwrap_or(read.own);
        }
        out.folds.compose(&mut out.tape);
        Ok(out)
    }

    /// Number of kernel instructions (executable nets).
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }

    /// What the locality pass did to this tape ([`TapeStats`]).
    pub fn tape_stats(&self) -> TapeStats {
        self.stats
    }

    /// The SIMD dispatch level this tape executes with: the requested
    /// [`SimdMode`] clamped to what runtime CPU-feature detection found
    /// at compile time.
    pub fn simd_level(&self) -> SimdLevel {
        self.stats.simd
    }

    /// The cells whose instructions are fused chain interiors (results
    /// go to the accumulator slot, not a net slot of their own). Useful
    /// for aiming a patch at the inside of a chain in tests.
    pub fn fused_cells(&self) -> Vec<NodeId> {
        let acc = self.acc();
        self.tape
            .iter()
            .zip(&self.cells)
            .filter(|(i, _)| i.out == acc)
            .map(|(_, &c)| NodeId::new(c))
            .collect()
    }

    /// Number of primary inputs the evaluator expects.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs the evaluator produces.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// A 64-lane frame sized for this evaluator's live slots; see
    /// [`BitSliceEvaluator::frame_with_words`] for wider slices.
    pub fn frame(&self) -> SliceFrame {
        self.frame_with_words(1)
    }

    /// A frame sized for this evaluator's live slots at `words_per_net`
    /// words (`64 × words_per_net` lanes) per block.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_net` is not in [`SUPPORTED_SLICE_WORDS`].
    pub fn frame_with_words(&self, words_per_net: usize) -> SliceFrame {
        SliceFrame::with_width(self.slots, words_per_net)
    }

    /// Replays the kernel tape over one frame in place, at the frame's
    /// width (`frame.lanes()` samples per net).
    ///
    /// The caller loads the primary-input words first (slots from the
    /// compiled input map); afterwards every *live* net's slot holds its
    /// value for all lanes of the block (fused chain interiors never
    /// materialize). [`BitSliceEvaluator::evaluate`] wraps the
    /// packing/unpacking; this is the raw kernel. A frame's width, one
    /// of [`SUPPORTED_SLICE_WORDS`], is one tile — one walk of the tape
    /// by a monomorphized kernel whose per-net word loop the compiler
    /// vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if `frame` has fewer slots than the compiled live frame.
    #[inline]
    pub fn run_block(&self, frame: &mut SliceFrame) {
        // Every slot on the tape is below `self.slots`, so this is the
        // `slot * per + per <= words.len()` the replay kernels rely on.
        assert!(frame.slots() >= self.slots, "frame too small for tape");
        let per = frame.words_per_net;
        replay_tape(
            &self.tape,
            self.stats.simd,
            frame.words_mut(),
            per,
            per,
            self.acc(),
        );
    }

    /// The accumulator slot, for [`replay_tape`]'s register tile: the
    /// one past the live data slots.
    fn acc(&self) -> u32 {
        self.stats.frame_slots as u32
    }

    /// Evaluates the whole batch, reusing `frame` as scratch and
    /// processing `frame.lanes()` lanes per block. Semantics match
    /// [`evaluate`] at every width; `lanes` overrides the batch width
    /// (used by no-input netlists, where width cannot be inferred from
    /// `inputs`).
    ///
    /// A batch whose lane count is not a multiple of the block width ends
    /// in a partial block: only its occupied words are replayed, and the
    /// tail lanes of every output word are masked off by the returned
    /// [`Lanes`], so unused lanes are never published.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputArity`] on an input-count mismatch.
    ///
    /// # Panics
    ///
    /// Panics if the input lane vectors have inconsistent lane counts or
    /// fewer lanes than `lanes`.
    pub fn evaluate_with(
        &self,
        inputs: &[Lanes],
        lanes: usize,
        frame: &mut SliceFrame,
    ) -> Result<Vec<Lanes>, NetlistError> {
        check_arity(self.inputs.len(), inputs.len())?;
        for l in inputs {
            assert_eq!(l.len(), lanes, "inconsistent lane counts across inputs");
        }
        Ok(self.eval_lanes(lanes, frame, |i| inputs[i].words()))
    }

    /// [`BitSliceEvaluator::evaluate_with`] over a flat pre-packed input
    /// buffer instead of per-input [`Lanes`]: input `i`'s lane column
    /// occupies `packed[i * stride .. (i + 1) * stride]` words
    /// (`stride = lanes.div_ceil(64)` — the layout
    /// [`Lanes::pack_rows_into`] produces, and the layout of
    /// `num_inputs` concatenated `Lanes`). This is the zero-copy serving
    /// entry: batches stream straight from one reusable buffer into the
    /// frame with no per-batch `Vec<Lanes>` materialization.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputArity`] on an input-count mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `packed.len() != num_inputs * lanes.div_ceil(64)`.
    pub fn evaluate_packed_with(
        &self,
        packed: &[u64],
        num_inputs: usize,
        lanes: usize,
        frame: &mut SliceFrame,
    ) -> Result<Vec<Lanes>, NetlistError> {
        check_arity(self.inputs.len(), num_inputs)?;
        let stride = lanes.div_ceil(64);
        assert_eq!(
            packed.len(),
            num_inputs * stride,
            "packed buffer does not hold {num_inputs} columns of {stride} words"
        );
        Ok(self.eval_lanes(lanes, frame, |i| &packed[i * stride..(i + 1) * stride]))
    }

    /// [`BitSliceEvaluator::eval_blocks`] with every output collected
    /// into a [`Lanes`].
    fn eval_lanes<'a>(
        &self,
        lanes: usize,
        frame: &mut SliceFrame,
        input_words: impl Fn(usize) -> &'a [u64],
    ) -> Vec<Lanes> {
        let mut columns = Vec::new();
        let sink = lane_sink(&mut columns, self.outputs.len(), lanes);
        self.eval_blocks(lanes, frame, input_words, self.outputs.len(), sink);
        columns
    }

    /// The block loop behind every batch entry, packed columns in and
    /// out: `input_words(i)` yields input `i`'s packed lane column (at
    /// least `lanes.div_ceil(64)` words; called for every
    /// `i < num_inputs()`), and after each block `sink(o, base, words)`
    /// receives words `base .. base + words.len()` of output column `o`
    /// for each of the first `outputs` outputs (bits past `lanes` in a
    /// column's last word are unspecified). Blocks arrive in order, so
    /// a sink may append ([`BitSliceEvaluator::evaluate_with`] builds
    /// its [`Lanes`] that way) or store at `base` in a column-major
    /// buffer (how a model chain keeps a layer boundary packed).
    ///
    /// A block replays only the read cone ([`TapeStats::prefix_len`])
    /// when `outputs` is within the count the tape was compiled to read
    /// ([`BitSliceEvaluator::compile_reading`]), and the whole tape
    /// otherwise. It replays only the words that carry samples: a batch
    /// of ≤ 64 lanes costs one word of a 16-word frame, and frame words
    /// past a partial block's end keep whatever an earlier batch left —
    /// they are neither read nor handed to the sink.
    ///
    /// # Panics
    ///
    /// Panics if `input_words` yields a column shorter than
    /// `lanes.div_ceil(64)` words.
    pub fn eval_blocks<'a>(
        &self,
        lanes: usize,
        frame: &mut SliceFrame,
        input_words: impl Fn(usize) -> &'a [u64],
        outputs: usize,
        mut sink: impl FnMut(usize, usize, &[u64]),
    ) {
        // Every slot on the tape is below `self.slots`: after this,
        // `slot * per + per <= words.len()` as the replay kernels need.
        frame.reshape(self.slots);
        let per = frame.words_per_net;
        let words = frame.words_mut();
        let total_words = lanes.div_ceil(64);
        // Outputs `..reads` are final once the read cone has run.
        let tape = match outputs <= self.reads {
            true => &self.tape[..self.stats.prefix_len],
            false => &self.tape[..],
        };
        for base in (0..total_words).step_by(per) {
            // A partial final block occupies fewer than `per` words.
            let avail = (total_words - base).min(per);
            for (i, &slot) in self.inputs.iter().enumerate() {
                let span = slot as usize * per;
                let in_words = &input_words(i)[base..base + avail];
                words[span..span + avail].copy_from_slice(in_words);
            }
            replay_tape(tape, self.stats.simd, words, per, avail, self.acc());
            for (o, &slot) in self.outputs.iter().enumerate().take(outputs) {
                let span = slot as usize * per;
                sink(o, base, &words[span..span + avail]);
            }
        }
    }

    /// Evaluates the netlist across all lanes — the bit-sliced counterpart
    /// of [`evaluate`], with identical semantics and results.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputArity`] on an input-count mismatch.
    ///
    /// # Panics
    ///
    /// Panics if the input lane vectors have inconsistent lane counts.
    pub fn evaluate(&self, inputs: &[Lanes]) -> Result<Vec<Lanes>, NetlistError> {
        let lanes = inputs.first().map_or(0, Lanes::len);
        self.evaluate_with(inputs, lanes, &mut self.frame())
    }
}

/// The one hand-written `std::arch` replay of the ANF word kernel: the
/// AVX-512 ternary-logic tile. It mirrors [`replay_tile`] — same tape
/// walk, same `out = k0 ^ (k1 & b) ^ (k2 & a) ^ (k3 & a & b)` per word,
/// operands loaded before the result is stored (per 8-word vector;
/// vectors within a span are disjoint, so an instruction writing the
/// recycled slot of one of its own operands stays safe) — with the ANF
/// masks broadcast across the vector. The compiled tile's own AVX-512
/// build spends four logic ops per vector on the formula where this
/// kernel spends three.
///
/// # Safety
///
/// Callers must have verified AVX-512F via runtime detection, and must
/// guarantee `slot * per + base + TW <= words.len()` for every slot
/// index on the tape — see [`replay_tile_dispatch`], the only caller.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd {
    use super::SliceInstr;
    use std::arch::x86_64::*;

    /// `vpternlogq` immediate for `A ^ (B & C)`: bit `4A + 2B + C` of the
    /// byte is the result for that input triple.
    const XOR_AND: i32 = 0x78;
    /// `vpternlogq` immediate for `(A & B) ^ C`.
    const AND_XOR: i32 = 0x6A;

    /// The factored ANF as three ternary-logic ops per vector:
    /// `t = k2 ^ (k3 & b)`, `u = k0 ^ (k1 & b)`, `r = (a & t) ^ u`. The
    /// immediates encode that evaluation, the same for every cell, so
    /// the four masks stay data and a patch stays a mask rewrite.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, `TW` must be a multiple of 8, and
    /// `slot * per + base + TW <= words.len()` must hold for every slot
    /// index (`a`, `b`, `out`) on `tape`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn run_tile_avx512<const TW: usize>(
        tape: &[SliceInstr],
        words: &mut [u64],
        per: usize,
        base: usize,
    ) {
        let p = words.as_mut_ptr();
        for i in tape {
            let a0 = i.a as usize * per + base;
            let b0 = i.b as usize * per + base;
            let o0 = i.out as usize * per + base;
            let k0 = _mm512_set1_epi64(i.k[0] as i64);
            let k1 = _mm512_set1_epi64(i.k[1] as i64);
            let k2 = _mm512_set1_epi64(i.k[2] as i64);
            let k3 = _mm512_set1_epi64(i.k[3] as i64);
            let mut w = 0;
            while w < TW {
                // SAFETY: `w + 8 <= TW`, so each 8-word access ends at or
                // before `slot * per + base + TW <= words.len()` (the
                // caller's contract); the unaligned load/store forms
                // need no alignment, and `p` is the live `&mut` buffer.
                let va = _mm512_loadu_si512(p.add(a0 + w) as *const __m512i);
                let vb = _mm512_loadu_si512(p.add(b0 + w) as *const __m512i);
                let t = _mm512_ternarylogic_epi64::<XOR_AND>(k2, k3, vb);
                let u = _mm512_ternarylogic_epi64::<XOR_AND>(k0, k1, vb);
                let r = _mm512_ternarylogic_epi64::<AND_XOR>(va, t, u);
                _mm512_storeu_si512(p.add(o0 + w) as *mut __m512i, r);
                w += 8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Op;

    /// One deterministic lane column per input of `nl`, varied by `salt`.
    fn patterned_inputs(nl: &Netlist, lanes: usize, salt: usize) -> Vec<Lanes> {
        (0..nl.inputs().len())
            .map(|i| {
                let bits: Vec<bool> = (0..lanes)
                    .map(|l| (salt + i * 31 + l * 7).is_multiple_of(3))
                    .collect();
                Lanes::from_bools(&bits)
            })
            .collect()
    }

    #[test]
    fn lanes_pack_unpack() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let lanes = Lanes::from_bools(&bits);
        assert_eq!(lanes.len(), 130);
        assert_eq!(lanes.to_bools(), bits);
        assert_eq!(lanes.count_ones(), bits.iter().filter(|&&b| b).count());
    }

    #[test]
    fn pack_rows_transposes_and_checks_width() {
        // Round trip: pack 70 rows (multi-word lanes), read each sample
        // back from its lane.
        let rows: Vec<Vec<bool>> = (0..70)
            .map(|j| (0..5).map(|i| (j + i) % 3 == 0).collect())
            .collect();
        let cols = Lanes::pack_rows(&rows, 5);
        assert_eq!(cols.len(), 5);
        for (j, row) in rows.iter().enumerate() {
            for (i, &bit) in row.iter().enumerate() {
                assert_eq!(cols[i].get(j), bit, "signal {i} sample {j}");
            }
        }
        assert!(Lanes::pack_rows::<Vec<bool>>(&[], 3)
            .iter()
            .all(Lanes::is_empty));
    }

    /// The word-level transpose against a naive per-bit reference, plus
    /// the involution property (transposing twice is the identity).
    #[test]
    fn transpose_64x64_matches_naive() {
        for seed in 0..4u64 {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut rng = || {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let orig: [u64; 64] = std::array::from_fn(|_| rng());
            let mut m = orig;
            transpose_64x64(&mut m);
            for (r, row) in m.iter().enumerate() {
                for (c, col) in orig.iter().enumerate() {
                    assert_eq!(row >> c & 1, col >> r & 1, "seed {seed} row {r} col {c}");
                }
            }
            transpose_64x64(&mut m);
            assert_eq!(m, orig, "transpose must be an involution");
        }
    }

    /// `pack_rows_into` produces exactly the concatenated words of
    /// `pack_rows`, and a naive per-bit pack agrees with both — across
    /// row counts and widths that straddle the 64×64 block edges.
    #[test]
    fn pack_rows_into_matches_naive_packing() {
        for (nrows, width) in [
            (0, 5),
            (1, 1),
            (63, 64),
            (64, 65),
            (65, 63),
            (130, 70),
            (70, 129),
        ] {
            let rows: Vec<Vec<bool>> = (0..nrows)
                .map(|j| (0..width).map(|i| (j * 31 + i * 7) % 3 == 0).collect())
                .collect();
            let mut flat = Vec::new();
            let stride = Lanes::pack_rows_into(&rows, width, &mut flat);
            assert_eq!(stride, nrows.div_ceil(64));
            assert_eq!(flat.len(), width * stride);
            let cols = Lanes::pack_rows(&rows, width);
            for (i, col) in cols.iter().enumerate() {
                assert_eq!(
                    &flat[i * stride..(i + 1) * stride],
                    col.words(),
                    "{nrows}x{width} signal {i}"
                );
                // The naive reference: one get() per bit.
                for (j, row) in rows.iter().enumerate() {
                    assert_eq!(col.get(j), row[i], "{nrows}x{width} signal {i} sample {j}");
                }
            }
        }
    }

    #[test]
    fn unpack_rows_inverts_pack_rows() {
        for (nrows, width) in [(0, 3), (1, 1), (63, 65), (65, 64), (130, 70)] {
            let rows: Vec<Vec<bool>> = (0..nrows)
                .map(|j| (0..width).map(|i| (j * 13 + i * 11) % 5 < 2).collect())
                .collect();
            let cols = Lanes::pack_rows(&rows, width);
            assert_eq!(Lanes::unpack_rows(&cols), rows, "{nrows}x{width}");
        }
        assert!(Lanes::unpack_rows(&[]).is_empty());
    }

    /// The packed-rows entries of the one transposer: rows → columns
    /// (`columns_into`) and columns → rows (`from_packed_columns`) agree
    /// with `pack_rows_into`, `from_columns` and a naive per-bit
    /// transpose on shapes straddling the 64×64 block edges, and each
    /// inverts the other.
    #[test]
    fn packed_rows_transposes_are_inverse_and_match_the_bool_and_lanes_entries() {
        for nrows in [0usize, 1, 63, 64, 65, 130, 1024, 1100] {
            for width in [0usize, 1, 63, 64, 65, 200, 256] {
                let rows: Vec<Vec<bool>> = (0..nrows)
                    .map(|j| (0..width).map(|i| (j * 31 + i * 7) % 5 < 2).collect())
                    .collect();
                let shape = format!("{nrows}x{width}");
                // Row-by-row growth is packing all rows at once.
                let mut packed = PackedRows::with_capacity(width, nrows / 2);
                packed.push_row(&vec![true; width]);
                packed.clear();
                rows.iter().for_each(|row| packed.push_row(row));
                assert_eq!((packed.rows(), packed.width()), (nrows, width), "{shape}");
                for (j, row) in rows.iter().enumerate() {
                    assert_eq!(packed.row(j), *row, "{shape} row {j}");
                }

                let (mut flat, mut want) = (vec![!0u64; 3], Vec::new());
                let stride = packed.columns_into(&mut flat);
                assert_eq!(stride, Lanes::pack_rows_into(&rows, width, &mut want));
                assert_eq!(flat, want, "{shape} rows -> columns");
                for (i, column) in flat.chunks(stride.max(1)).take(width).enumerate() {
                    for (j, row) in rows.iter().enumerate() {
                        assert_eq!(column[j / 64] >> (j % 64) & 1 != 0, row[i], "{shape}");
                    }
                }

                let back = PackedRows::from_packed_columns(&flat, width, nrows);
                assert_eq!(back, packed, "{shape} transpose(transpose(m)) == m");
                let lanes = Lanes::pack_rows(&rows, width);
                if width > 0 {
                    assert_eq!(PackedRows::from_columns(&lanes), packed, "{shape}");
                }
                // Bits past the last lane of a column are not read.
                if nrows % 64 != 0 {
                    for column in flat.chunks_mut(stride) {
                        column[stride - 1] |= !0u64 << (nrows % 64);
                    }
                    let dirty = PackedRows::from_packed_columns(&flat, width, nrows);
                    assert_eq!(dirty, packed, "{shape} dirty column tails");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row has the wrong width")]
    fn push_row_rejects_a_row_of_the_wrong_width() {
        PackedRows::with_capacity(3, 1).push_row(&[true; 4]);
    }

    #[test]
    #[should_panic(expected = "does not hold 3 columns")]
    fn from_packed_columns_rejects_a_short_buffer() {
        let _ = PackedRows::from_packed_columns(&[0; 5], 3, 65);
    }

    #[test]
    #[should_panic(expected = "inconsistent lane counts")]
    fn unpack_rows_rejects_mismatched_columns() {
        let _ = Lanes::unpack_rows(&[Lanes::zeros(3), Lanes::zeros(4)]);
    }

    #[test]
    fn simd_mode_resolves_within_its_ceiling() {
        assert_eq!(SimdMode::Off.resolve(), SimdLevel::Baseline);
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                assert_eq!(SimdMode::Auto.resolve(), SimdLevel::Avx512);
            } else if is_x86_feature_detected!("avx2") {
                assert_eq!(SimdMode::Auto.resolve(), SimdLevel::Avx2);
            }
            // The AVX2 ceiling pins the AVX2 build on an AVX-512 host.
            if is_x86_feature_detected!("avx2") {
                assert_eq!(SimdMode::Avx2.resolve(), SimdLevel::Avx2);
            }
        }
        // Whatever the host, a request never resolves *above* itself.
        assert!(matches!(
            SimdMode::Avx2.resolve(),
            SimdLevel::Avx2 | SimdLevel::Baseline
        ));
        assert_eq!(format!("{}", SimdMode::Avx2), "avx2");
        assert_eq!(format!("{}", SimdLevel::Avx512), "avx512");
        assert_eq!(format!("{}", SimdLevel::Baseline), "baseline");
    }

    /// Every tile kernel on every level this host resolves, against the
    /// portable ANF formula: all 16 mask sets (each `k` all-zero or
    /// all-one), operands holding all four `(a, b)` bit pairs in every
    /// word, at every tile width, with an instruction that overwrites
    /// each of its own operands. A wrong immediate or a swapped operand
    /// fails here by name, not only through random netlists.
    #[test]
    fn every_tile_kernel_evaluates_every_anf_mask_set() {
        let anf = |k: [u64; 4], a: u64, b: u64| k[0] ^ (k[1] & b) ^ (k[2] & a) ^ (k[3] & a & b);
        // Low nibbles a = 1100, b = 1010 hold all four pairs; the rest
        // of each word differs per slot and per word.
        let word = |slot: usize, w: usize| {
            let noise = ((slot * 16 + w) as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (noise & !0xf) | [0xc, 0xa][slot]
        };
        for mode in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off] {
            let level = mode.resolve();
            println!("tile kernels: ceiling {mode} exercised level {level}");
            for tile in [2usize, 4, 8, 16] {
                // Slots 0 and 1 hold a and b, the tile sits at word `tile`
                // of a `2 * tile`-word span, and words outside it must
                // survive untouched.
                let per = 2 * tile;
                for code in 0..16u32 {
                    let k: [u64; 4] =
                        std::array::from_fn(|j| 0u64.wrapping_sub(u64::from(code >> j & 1)));
                    for out in [2u32, 0, 1] {
                        let mut words: Vec<u64> = (0..3 * per)
                            .map(|i| word((i / per).min(1), i % per))
                            .collect();
                        words[2 * per..].fill(u64::MAX);
                        let before = words.clone();
                        let tape = [SliceInstr { a: 0, b: 1, out, k }];
                        replay_tile_dispatch(&tape, level, tile, &mut words, per, tile);
                        for (i, (&got, &old)) in words.iter().zip(&before).enumerate() {
                            let (slot, w) = (i / per, i % per);
                            let want = match slot as u32 == out && w >= tile {
                                true => anf(k, before[w], before[per + w]),
                                false => old,
                            };
                            assert_eq!(
                                got, want,
                                "level {level} tile {tile} masks {code:04b} out {out} slot {slot} word {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// An `out` span one word past the buffer must panic, not write, at
    /// every tile width on the levels the `Avx2` and `Off` ceilings
    /// resolve to (below AVX-512). Each replay is caught and checked;
    /// the last one is repeated uncaught for its panic message.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_slot_past_the_frame_panics_below_avx512() {
        let (out, k) = (2, [!0; 4]);
        let replay = |level: SimdLevel, tile: usize| {
            let tape = [SliceInstr { a: 0, b: 1, out, k }];
            replay_tile_dispatch(&tape, level, tile, &mut vec![0; 3 * tile - 1], tile, 0);
        };
        let levels = [SimdMode::Avx2.resolve(), SimdMode::Off.resolve()];
        assert!(!levels.contains(&SimdLevel::Avx512));
        for level in levels {
            for tile in [2usize, 4, 8, 16] {
                let caught = std::panic::catch_unwind(|| replay(level, tile));
                assert!(caught.is_err(), "{level} tile {tile} wrote past it");
            }
        }
        replay(SimdLevel::Baseline, 16);
    }

    /// Every SIMD dispatch level the host can execute is bit-identical
    /// to the oracle at every supported width, ragged tails included —
    /// the netlist-level half of the conformance satellite.
    #[test]
    fn simd_variants_match_oracle_at_every_width() {
        use crate::random::RandomDag;
        let modes = [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off];
        for seed in 0..3 {
            let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(seed);
            for mode in modes {
                let sliced = BitSliceEvaluator::compile_with(&nl, mode);
                for words in SUPPORTED_SLICE_WORDS {
                    let mut frame = sliced.frame_with_words(words);
                    for lanes in [1usize, 63, 64 * words, 64 * words + 1] {
                        let inputs = patterned_inputs(&nl, lanes, seed as usize);
                        let want = evaluate(&nl, &inputs).unwrap();
                        let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                        assert_eq!(got, want, "seed {seed} simd {mode} words {words}");
                    }
                }
            }
        }
    }

    /// The packed flat-buffer entry is bit-identical to the `Lanes`
    /// entry and validates its inputs.
    #[test]
    fn evaluate_packed_matches_lanes_path() {
        use crate::random::RandomDag;
        let nl = RandomDag::loose(6, 4, 7).outputs(2).generate(5);
        let sliced = BitSliceEvaluator::compile(&nl);
        let n_in = nl.inputs().len();
        for words in [1usize, 4, 16] {
            let mut frame = sliced.frame_with_words(words);
            for lanes in [1usize, 64 * words, 64 * words + 7, 517] {
                let rows: Vec<Vec<bool>> = (0..lanes)
                    .map(|j| (0..n_in).map(|i| (i * 17 + j * 3) % 4 == 0).collect())
                    .collect();
                let inputs = Lanes::pack_rows(&rows, n_in);
                let mut packed = Vec::new();
                Lanes::pack_rows_into(&rows, n_in, &mut packed);
                let want = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                let got = sliced
                    .evaluate_packed_with(&packed, n_in, lanes, &mut frame)
                    .unwrap();
                assert_eq!(got, want, "words {words} lanes {lanes}");
            }
        }
        assert!(matches!(
            sliced.evaluate_packed_with(&[], 0, 0, &mut sliced.frame()),
            Err(NetlistError::InputArity { .. })
        ));
    }

    #[test]
    fn simd_level_is_resolved_at_compile_time() {
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a");
        nl.add_output(a, "y");
        let off = BitSliceEvaluator::compile_with(&nl, SimdMode::Off);
        assert_eq!(off.simd_level(), SimdLevel::Baseline);
        assert_eq!(off.tape_stats().simd, SimdLevel::Baseline);
        let auto = BitSliceEvaluator::compile_with(&nl, SimdMode::Auto);
        assert_eq!(auto.tape_stats().simd, SimdMode::Auto.resolve());
    }

    #[test]
    #[should_panic(expected = "wrong width")]
    fn pack_rows_rejects_ragged_rows() {
        let _ = Lanes::pack_rows(&[vec![true, false], vec![true]], 2);
    }

    #[test]
    fn ones_masks_tail() {
        let l = Lanes::ones(70);
        assert_eq!(l.count_ones(), 70);
        assert_eq!(l.words().len(), 2);
        assert_eq!(l.words()[1] >> 6, 0, "tail bits must stay clear");
    }

    /// The lane counts the inline/heap boundary is pinned at.
    const LANE_FORM_COUNTS: [usize; 9] = [0, 1, 63, 64, 65, 1023, 1024, 1025, 4096];

    fn hash_of(l: &Lanes) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut hasher = DefaultHasher::new();
        l.hash(&mut hasher);
        hasher.finish()
    }

    /// `l` in the other form: the same words on the heap when they are
    /// inline, and inline (which only a test can build) when they are
    /// not and fit.
    fn other_form(l: &Lanes) -> Option<Lanes> {
        let words = match &l.words {
            LaneWords::Inline(_) => LaneWords::Heap(l.words().to_vec()),
            LaneWords::Heap(w) if w.len() <= INLINE_WORDS => LaneWords::with_first(w.len(), w),
            LaneWords::Heap(_) => return None,
        };
        Some(Lanes { words, len: l.len })
    }

    fn is_inline(l: &Lanes) -> bool {
        matches!(l.words, LaneWords::Inline(_))
    }

    /// Every word of `l`, padding included, is zero past lane `len`.
    fn tail_is_clear(l: &Lanes) -> bool {
        let all: &[u64] = match &l.words {
            LaneWords::Inline(words) => words,
            LaneWords::Heap(words) => words,
        };
        (l.len..64 * all.len()).all(|k| all[k / 64] >> (k % 64) & 1 == 0)
    }

    /// One column built by [`lane_sink`] from blocks of `per` words.
    fn sink_built(words: &[u64], lanes: usize, per: usize) -> Lanes {
        let mut columns = Vec::new();
        {
            let mut sink = lane_sink(&mut columns, 1, lanes);
            for base in (0..words.len()).step_by(per) {
                sink(0, base, &words[base..words.len().min(base + per)]);
            }
        }
        columns.pop().unwrap()
    }

    /// Every constructor, and a sink-built column from blocks of every
    /// frame width, agree on the value of one column at every lane
    /// count around the inline boundary; inline and heap forms of one
    /// value are `==` and hash alike, and no form keeps a tail bit.
    #[test]
    fn lane_forms_agree_across_constructors_and_forms() {
        assert_eq!(std::mem::size_of::<Lanes>(), 144);
        for lanes in LANE_FORM_COUNTS {
            let stride = lanes.div_ceil(64);
            let inline = stride <= INLINE_WORDS;
            let bits: Vec<bool> = (0..lanes).map(|l| (l * 7 + l / 5) % 3 == 0).collect();
            let rows: Vec<[bool; 1]> = bits.iter().map(|&b| [b]).collect();
            let want = Lanes::from_bools(&bits);
            // Stray bits past `lanes` in the raw words: every entry masks them.
            let mut raw = want.words().to_vec();
            if lanes % 64 != 0 {
                *raw.last_mut().unwrap() |= !0 << (lanes % 64);
            }
            let mut forms = vec![
                ("from_bools", want.clone()),
                ("from_words", Lanes::from_words(raw.clone(), lanes)),
                ("from_slice", Lanes::from_slice(&raw, lanes)),
                ("pack_rows", Lanes::pack_rows(&rows, 1).pop().unwrap()),
            ];
            for per in SUPPORTED_SLICE_WORDS {
                forms.push(("lane_sink", sink_built(&raw, lanes, per)));
            }
            for (what, l) in &forms {
                assert_eq!(is_inline(l), inline, "{what} {lanes}");
            }
            let other: Vec<_> = forms
                .iter()
                .filter_map(|(what, l)| Some((*what, other_form(l)?)))
                .collect();
            forms.extend(other);
            for (what, l) in &forms {
                assert_eq!(l, &want, "{what} {lanes}");
                assert_eq!(hash_of(l), hash_of(&want), "{what} {lanes}");
                assert_eq!(format!("{l:?}"), format!("{want:?}"), "{what} {lanes}");
                assert_eq!(
                    (l.len(), l.words()),
                    (lanes, want.words()),
                    "{what} {lanes}"
                );
                assert_eq!(l.to_bools(), bits, "{what} {lanes}");
                assert_eq!(l.count_ones(), want.count_ones(), "{what} {lanes}");
                assert!((0..lanes).all(|k| l.get(k) == bits[k]), "{what} {lanes}");
                assert!(tail_is_clear(l), "{what} {lanes}");
            }
            for (what, l) in [("zeros", Lanes::zeros(lanes)), ("ones", Lanes::ones(lanes))] {
                let one = what == "ones";
                assert_eq!(is_inline(&l), inline, "{what} {lanes}");
                assert_eq!(
                    (l.len(), l.words().len()),
                    (lanes, stride),
                    "{what} {lanes}"
                );
                assert_eq!(
                    l.count_ones(),
                    if one { lanes } else { 0 },
                    "{what} {lanes}"
                );
                assert_eq!(l.to_bools(), vec![one; lanes], "{what} {lanes}");
                assert_eq!(l, Lanes::from_bools(&vec![one; lanes]), "{what} {lanes}");
                assert!(tail_is_clear(&l), "{what} {lanes}");
                if let Some(o) = other_form(&l) {
                    assert_eq!((&o, hash_of(&o)), (&l, hash_of(&l)), "{what} {lanes}");
                }
            }
        }
    }

    /// A clone is a value: setting lanes of the copy, in either form,
    /// leaves the original as it was.
    #[test]
    fn lane_forms_set_on_a_clone_leaves_the_original() {
        for lanes in LANE_FORM_COUNTS.into_iter().filter(|&l| l > 0) {
            let original = Lanes::from_bools(&(0..lanes).map(|l| l % 5 == 1).collect::<Vec<_>>());
            let before = original.words().to_vec();
            for mut copy in [Some(original.clone()), other_form(&original)]
                .into_iter()
                .flatten()
            {
                for k in [0, lanes / 2, lanes - 1] {
                    copy.set(k, !copy.get(k));
                }
                assert_ne!(copy, original, "{lanes}");
                assert_eq!(original.words(), before, "{lanes}");
                assert!(tail_is_clear(&copy), "{lanes}");
            }
        }
    }

    /// The sink path against the oracle at every occupied-word count of
    /// a 16-word block (inline columns written in one block, or in 16
    /// one-word blocks) and past it (heap columns grown block by
    /// block), with outputs handed on in order and in reverse.
    #[test]
    fn lane_forms_sink_matches_evaluate_at_every_word_count() {
        let nl = crate::random::RandomDag::loose(6, 4, 7)
            .outputs(5)
            .generate(12);
        let tape = BitSliceEvaluator::compile(&nl);
        let outputs = tape.num_outputs();
        let counts = (1..=16).map(|w| 64 * w - 13).chain([1025, 2048]);
        for lanes in counts {
            let inputs = patterned_inputs(&nl, lanes, lanes);
            let want = evaluate(&nl, &inputs).unwrap();
            for per in [1, 4, 16] {
                let mut frame = tape.frame_with_words(per);
                let got = tape.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                assert_eq!(got, want, "lanes {lanes} per {per}");
                let mut blocks: Vec<(usize, usize, Vec<u64>)> = Vec::new();
                let record = |o, base, words: &[u64]| blocks.push((o, base, words.to_vec()));
                tape.eval_blocks(lanes, &mut frame, |i| inputs[i].words(), outputs, record);
                let mut reversed = Vec::new();
                {
                    let mut sink = lane_sink(&mut reversed, outputs, lanes);
                    for block in blocks.chunks(outputs) {
                        block
                            .iter()
                            .rev()
                            .for_each(|(o, base, w)| sink(*o, *base, w));
                    }
                }
                assert_eq!(reversed, want, "lanes {lanes} per {per}, reversed");
            }
        }
    }

    #[test]
    fn evaluate_matches_scalar_eval() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let nb = nl.add_gate1(Op::Not, b);
        let t = nl.add_gate2(Op::Xnor, a, nb);
        let y = nl.add_gate2(Op::Nor, t, c);
        nl.add_output(y, "y");
        nl.add_output(t, "t");

        // All 8 combinations as 8 lanes.
        let mut ins = vec![Lanes::zeros(8), Lanes::zeros(8), Lanes::zeros(8)];
        for lane in 0..8 {
            for (bit, lanes) in ins.iter_mut().enumerate() {
                lanes.set(lane, lane & (1 << bit) != 0);
            }
        }
        let outs = evaluate(&nl, &ins).unwrap();
        for lane in 0..8 {
            let scalar = nl.eval_bools(&[lane & 1 != 0, lane & 2 != 0, lane & 4 != 0]);
            assert_eq!(outs[0].get(lane), scalar[0], "lane {lane}");
            assert_eq!(outs[1].get(lane), scalar[1], "lane {lane}");
        }
    }

    #[test]
    fn evaluate_checks_input_count() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        nl.add_output(a, "y");
        assert!(matches!(
            evaluate(&nl, &[]),
            Err(NetlistError::InputArity {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn constants_across_lanes() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let one = nl.add_const(true);
        let y = nl.add_gate2(Op::Xor, a, one);
        nl.add_output(y, "y");
        let out = evaluate(&nl, &[Lanes::from_bools(&[true, false, true])]).unwrap();
        assert_eq!(out[0].to_bools(), vec![false, true, false]);
    }

    #[test]
    fn bitsliced_matches_evaluate() {
        use crate::random::RandomDag;
        for seed in 0..6 {
            let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(seed);
            let sliced = BitSliceEvaluator::compile(&nl);
            assert_eq!(sliced.num_inputs(), nl.inputs().len());
            assert_eq!(sliced.num_outputs(), nl.outputs().len());
            // Deliberately awkward widths: sub-word, exact word, multi-word
            // with tail.
            for lanes in [1usize, 63, 64, 65, 130, 256] {
                let inputs = patterned_inputs(&nl, lanes, seed as usize);
                let want = evaluate(&nl, &inputs).unwrap();
                let got = sliced.evaluate(&inputs).unwrap();
                assert_eq!(got, want, "seed {seed} lanes {lanes}");
            }
        }
    }

    #[test]
    fn bitsliced_constants_and_arity_errors() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let one = nl.add_const(true);
        let y = nl.add_gate2(Op::Xor, a, one);
        nl.add_output(y, "y");
        let sliced = BitSliceEvaluator::compile(&nl);
        let out = sliced
            .evaluate(&[Lanes::from_bools(&[true, false, true])])
            .unwrap();
        assert_eq!(out[0].to_bools(), vec![false, true, false]);
        assert!(matches!(
            sliced.evaluate(&[]),
            Err(NetlistError::InputArity {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn every_slice_width_matches_evaluate() {
        use crate::random::RandomDag;
        for seed in 0..4 {
            let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(seed);
            let sliced = BitSliceEvaluator::compile(&nl);
            // Awkward batch widths per frame width: sub-block, exact
            // block, multi-block with tail.
            for words in [1usize, 2, 4, 8] {
                let mut frame = sliced.frame_with_words(words);
                assert_eq!(frame.lanes(), 64 * words);
                for lanes in [1usize, 63, 64 * words, 64 * words + 1, 130 * words] {
                    let inputs = patterned_inputs(&nl, lanes, seed as usize);
                    let want = evaluate(&nl, &inputs).unwrap();
                    let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                    assert_eq!(got, want, "seed {seed} words {words} lanes {lanes}");
                }
            }
        }
    }

    /// Occupied-word replay: every lane count up to one block plus a
    /// ragged second one, at every width, on ONE frame whose batches
    /// alternately grow and shrink — so words past a small batch's end
    /// hold a bigger batch's leftovers, and must never surface.
    #[test]
    fn partial_blocks_replay_only_occupied_words() {
        use crate::random::RandomDag;
        let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(2);
        let sliced = BitSliceEvaluator::compile(&nl);
        for words in SUPPORTED_SLICE_WORDS {
            let mut frame = sliced.frame_with_words(words);
            let max = words * 64 + 65;
            for step in 0..max {
                for lanes in [1 + step, max - step] {
                    let inputs = patterned_inputs(&nl, lanes, lanes);
                    let want = evaluate(&nl, &inputs).unwrap();
                    let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                    assert_eq!(got, want, "words {words} lanes {lanes}");
                }
            }
        }
    }

    /// The packed sink: the first `outputs` columns land in a flat
    /// column-major buffer at each block's word offset, and no other
    /// column reaches the sink.
    #[test]
    fn eval_blocks_hands_the_leading_columns_to_the_sink() {
        use crate::random::RandomDag;
        let nl = RandomDag::loose(7, 5, 8).outputs(5).generate(4);
        let sliced = BitSliceEvaluator::compile(&nl);
        let mut frame = sliced.frame_with_words(2);
        for lanes in [1usize, 128, 300] {
            let inputs: Vec<Lanes> = (0..nl.inputs().len())
                .map(|i| {
                    let bits: Vec<bool> = (0..lanes).map(|l| (i * 5 + l) % 3 == 0).collect();
                    Lanes::from_bools(&bits)
                })
                .collect();
            let want = evaluate(&nl, &inputs).unwrap();
            let stride = lanes.div_ceil(64);
            for keep in [0usize, 2, 5, 9] {
                let mut packed = vec![0u64; keep.min(5) * stride];
                sliced.eval_blocks(
                    lanes,
                    &mut frame,
                    |i| inputs[i].words(),
                    keep,
                    |o, base, words| {
                        packed[o * stride + base..][..words.len()].copy_from_slice(words)
                    },
                );
                for (o, col) in want.iter().enumerate().take(keep) {
                    let got = Lanes::from_words(packed[o * stride..][..stride].to_vec(), lanes);
                    assert_eq!(&got, col, "lanes {lanes} keep {keep} column {o}");
                }
            }
        }
    }

    /// The SIMD kernels index the frame unchecked, so the slot bound is
    /// a real assert at the one public way in.
    #[test]
    #[should_panic(expected = "frame too small for tape")]
    fn run_block_rejects_a_frame_one_slot_short() {
        use crate::random::RandomDag;
        let nl = RandomDag::loose(6, 4, 7).outputs(2).generate(3);
        let sliced = BitSliceEvaluator::compile(&nl);
        let slots = sliced.frame_with_words(4).slots();
        sliced.run_block(&mut SliceFrame::with_width(slots - 1, 4));
    }

    /// ... and so is the word bound of an occupied-word replay.
    #[test]
    #[should_panic(expected = "active words exceed the frame width")]
    fn replay_rejects_more_active_words_than_the_frame_has() {
        let mut words = vec![0u64; 8];
        replay_tape(&[], SimdLevel::Baseline, &mut words, 4, 5, 0);
    }

    /// Every SIMD ceiling — the one option a tape takes — is
    /// bit-identical to the oracle.
    #[test]
    fn tape_options_variants_match_oracle() {
        use crate::random::RandomDag;
        for seed in 0..3 {
            let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(seed);
            for simd in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off] {
                let sliced = BitSliceEvaluator::compile_with(&nl, simd);
                for words in [1usize, 8] {
                    let mut frame = sliced.frame_with_words(words);
                    for lanes in [1usize, 63, 64 * words + 1] {
                        let inputs = patterned_inputs(&nl, lanes, seed as usize);
                        let want = evaluate(&nl, &inputs).unwrap();
                        let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                        assert_eq!(got, want, "seed {seed} simd {simd} words {words}");
                    }
                }
            }
        }
    }

    /// A hand-built single-fanout run fuses into one chain: interiors
    /// vanish from the frame, the live footprint shrinks to the two
    /// inputs, and the fused tape still matches the oracle. The inverter inside the run folds
    /// into its reader; the one driving the output stays.
    #[test]
    fn fusion_fuses_chains_and_shrinks_frame() {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate2(Op::And, a, b);
        let g2 = nl.add_gate1(Op::Not, g1);
        let g3 = nl.add_gate2(Op::Xor, g2, a);
        let g4 = nl.add_gate1(Op::Not, g3);
        nl.add_output(g4, "y");

        let sliced = BitSliceEvaluator::compile(&nl);
        let stats = sliced.tape_stats();
        assert_eq!(stats.tape_len, 3, "g2 folds into g3's masks");
        assert_eq!(stats.folded_cells, 1);
        assert_eq!(stats.fused_chains, 1, "g1→g3→g4 is one chain");
        assert_eq!(stats.fused_instrs, 2, "g1, g3 stay in the accumulator");
        assert_eq!(stats.frame_slots_unoptimized, 6);
        // Peak live is the two inputs; g4's result recycles a's slot
        // (dead after g3, the last frame read of `a`).
        assert_eq!(stats.frame_slots, 2);
        assert_eq!(sliced.fused_cells(), vec![g1, g3]);

        for lanes in [1usize, 64, 130] {
            let bits_a: Vec<bool> = (0..lanes).map(|l| l % 3 == 0).collect();
            let bits_b: Vec<bool> = (0..lanes).map(|l| l % 5 != 0).collect();
            let inputs = [Lanes::from_bools(&bits_a), Lanes::from_bools(&bits_b)];
            let want = evaluate(&nl, &inputs).unwrap();
            assert_eq!(sliced.evaluate(&inputs).unwrap(), want, "{lanes} lanes");
        }
    }

    /// Dead stores and unread inputs release their slots: three stored
    /// values share two slots.
    #[test]
    fn dead_and_unread_slots_are_recycled() {
        let mut nl = Netlist::new("dead");
        let a = nl.add_input("a");
        let _b = nl.add_input("b"); // never read
        let y = nl.add_gate1(Op::Not, a);
        nl.add_output(y, "y");
        let tape = BitSliceEvaluator::compile(&nl);
        // b's slot is released, then a dies feeding y: y reuses a slot.
        assert_eq!(tape.tape_stats().frame_slots, 2);
        let out = tape
            .evaluate(&[Lanes::zeros(100), Lanes::ones(100)])
            .unwrap();
        assert_eq!(out[0].count_ones(), 100, "NOT of all-zero = all-one");
    }

    /// Arity-1 shapes the fold step must compose exactly: `Not(Not(x))`
    /// read by a gate, `g(x, Not(x))` (both operands rooted at one
    /// slot), and one buffer feeding both operands of a gate.
    fn folding_shapes() -> Netlist {
        let mut nl = Netlist::new("folds");
        let [x, y, z] = ["x", "y", "z"].map(|name| nl.add_input(name));
        let n1 = nl.add_gate1(Op::Not, x);
        let n2 = nl.add_gate1(Op::Not, n1);
        let g1 = nl.add_gate2(Op::And, n2, y);
        let ny = nl.add_gate1(Op::Not, y);
        let g2 = nl.add_gate2(Op::Xor, g1, ny);
        let g3 = nl.add_gate2(Op::Nor, y, ny);
        let bz = nl.add_gate1(Op::Buf, z);
        let g4 = nl.add_gate2(Op::Nand, bz, bz);
        let g5 = nl.add_gate2(Op::Xnor, g2, g4);
        for (i, out) in [g5, g3, g1, g4].into_iter().enumerate() {
            nl.add_output(out, format!("y{i}"));
        }
        nl
    }

    /// Narrow tiles are reached only through partial blocks: every
    /// occupied-word count 1..=16 of a 16-word frame — hence every
    /// largest-first split from `{16, 8, 4, 2, 1}`, e.g. 13 = 8 + 4 + 1,
    /// the 1 being the register tile — matches the oracle on every SIMD
    /// level, as the only block of a batch and as the ragged block after
    /// a full one, with and without folded cells.
    #[test]
    fn every_occupied_word_count_matches_oracle_on_every_simd_level() {
        use crate::random::RandomDag;
        let folds = folding_shapes();
        let random = RandomDag::loose(6, 4, 7).outputs(2).generate(11);
        for nl in [&random, &folds] {
            for simd in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off] {
                let sliced = BitSliceEvaluator::compile_with(nl, simd);
                assert_eq!(sliced.tape_stats().tile_words(), 16);
                let mut frame = sliced.frame_with_words(16);
                for occupied in 1..=16usize {
                    for lanes in [64 * occupied - 37, 1024 + 64 * occupied - 37] {
                        let inputs = patterned_inputs(nl, lanes, occupied);
                        let want = evaluate(nl, &inputs).unwrap();
                        let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
                        assert_eq!(got, want, "{} simd {simd} lanes {lanes}", nl.name());
                    }
                }
            }
        }
        let stats = BitSliceEvaluator::compile(&folds).tape_stats();
        assert_eq!((stats.folded_cells, stats.tape_len), (4, 5), "{stats:?}");
    }

    /// FNV-1a over every structural and mask word of a tape.
    fn fingerprint(t: &BitSliceEvaluator) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        for i in &t.tape {
            [i.a, i.b, i.out].iter().for_each(|&s| eat(s as u64));
            i.k.iter().for_each(|&k| eat(k));
        }
        (t.cells.iter().chain(&t.inputs).chain(&t.outputs)).for_each(|&c| eat(c as u64));
        eat(t.slots as u64);
        h
    }

    /// With no arity-1 cell there is nothing to fold: the tape is the
    /// one the parent commit compiled, word for word (fingerprints
    /// recorded there), and carries no fold table.
    #[test]
    fn a_netlist_without_arity_1_cells_compiles_to_the_unfolded_tape() {
        use crate::random::RandomDag;
        let recorded: [(u64, u64); 3] = [
            (0xbe75_779a_e8af_b222, 0xeef6_de28_ef13_0f7b),
            (0xbd5b_079c_0b14_7c59, 0xb773_66e6_f43c_87e4),
            (0xc4c9_85ca_886e_3936, 0x999b_b292_5fa7_da10),
        ];
        for (seed, (loose, strict)) in recorded.into_iter().enumerate() {
            let seed = seed as u64;
            for (shape, nl, want) in [
                (
                    "loose",
                    RandomDag::loose(7, 5, 8).outputs(3).generate(seed),
                    loose,
                ),
                (
                    "strict",
                    RandomDag::strict(9, 5, 8).outputs(4).generate(seed),
                    strict,
                ),
            ] {
                let tape = BitSliceEvaluator::compile(&nl);
                assert_eq!(fingerprint(&tape), want, "{shape} seed {seed}");
                assert_eq!(tape.folds, Folds::default());
                assert_eq!(tape.tape_stats().folded_cells, 0);
            }
        }
    }

    /// A netlist whose arity-1 cells cover every fold the patch path
    /// must recompose: an inverter inside a fused chain (`g2`), a
    /// three-buffer run (`d1 → d2 → d3`) whose last buffer feeds two
    /// gates, and an inverter driving a primary output (`g4`, not
    /// folded).
    struct FoldFixture {
        nl: Netlist,
        g1: NodeId,
        g2: NodeId,
        g4: NodeId,
        d2: NodeId,
        d3: NodeId,
        e3: NodeId,
    }

    fn fold_fixture() -> FoldFixture {
        let mut nl = Netlist::new("folded");
        let [a, b, d] = ["a", "b", "d"].map(|name| nl.add_input(name));
        let g1 = nl.add_gate2(Op::And, a, b);
        let g2 = nl.add_gate1(Op::Not, g1);
        let a1 = nl.add_gate1(Op::Buf, a);
        let a2 = nl.add_gate1(Op::Buf, a1);
        let g3 = nl.add_gate2(Op::Xor, g2, a2);
        let g4 = nl.add_gate1(Op::Not, g3);
        let d1 = nl.add_gate1(Op::Buf, d);
        let d2 = nl.add_gate1(Op::Buf, d1);
        let d3 = nl.add_gate1(Op::Buf, d2);
        let e3 = nl.add_gate2(Op::And, g3, d3);
        let e4 = nl.add_gate2(Op::Or, d3, g3);
        for (i, out) in [g4, e3, e4].into_iter().enumerate() {
            nl.add_output(out, format!("y{i}"));
        }
        FoldFixture {
            nl,
            g1,
            g2,
            g4,
            d2,
            d3,
            e3,
        }
    }

    /// Patching rewrites masks in place — of a cell inside a fused
    /// chain, of a folded cell's readers, of an output-driving arity-1
    /// cell — and the patched tape is `==` a fresh compile of the
    /// patched netlist and matches the oracle, on the one-word register
    /// tile and on a 16-word frame.
    #[test]
    fn patched_fused_tape_matches_fresh_compile() {
        let FoldFixture {
            nl,
            g1,
            g2,
            g4,
            d2,
            d3,
            e3,
        } = fold_fixture();
        let sliced = BitSliceEvaluator::compile(&nl);
        let stats = sliced.tape_stats();
        assert_eq!((stats.folded_cells, stats.tape_len), (6, 5), "{stats:?}");
        assert_eq!(sliced.fused_cells(), vec![g1], "g1 feeds g3 through g2");

        let cases: [(&str, &[(NodeId, Op)]); 5] = [
            (
                "a fused interior and its folded reader",
                &[(g1, Op::Nor), (g2, Op::Buf)],
            ),
            ("Buf→Not on a folded cell read twice", &[(d3, Op::Not)]),
            ("the middle of a buffer run", &[(d2, Op::Not)]),
            ("an output-driving arity-1 cell", &[(g4, Op::Buf)]),
            (
                "a reader with its folded fanin",
                &[(e3, Op::Nand), (d3, Op::Not)],
            ),
        ];
        for (case, set) in cases {
            let patches: PatchSet = set.iter().copied().collect();
            let patched = sliced.patched(&patches).unwrap();
            let mut patched_nl = nl.clone();
            patched_nl.apply_patches(&patches).unwrap();
            let fresh = BitSliceEvaluator::compile(&patched_nl);
            assert!(
                patched == fresh,
                "{case}: patched tape differs from a fresh compile"
            );
            let mut wide = patched.frame_with_words(16);
            for lanes in [1usize, 64, 131] {
                let inputs = patterned_inputs(&nl, lanes, lanes);
                let want = evaluate(&patched_nl, &inputs).unwrap();
                assert_eq!(patched.evaluate(&inputs).unwrap(), want, "{case}, {lanes}");
                let got = patched.evaluate_with(&inputs, lanes, &mut wide).unwrap();
                assert_eq!(got, want, "{case}, {lanes} lanes on 16 words");
            }
        }

        // Patches chain: a patched tape patched back is the original.
        let there: PatchSet = [(e3, Op::Nand), (d3, Op::Not)].into_iter().collect();
        let back: PatchSet = [(e3, Op::And), (d3, Op::Buf)].into_iter().collect();
        assert!(sliced.patched(&there).unwrap().patched(&back).unwrap() == sliced);

        // The unpatched tape still serves the original function.
        let inputs = patterned_inputs(&nl, 70, 3);
        assert_eq!(
            sliced.evaluate(&inputs).unwrap(),
            evaluate(&nl, &inputs).unwrap()
        );
    }

    /// Every node outputs `..reads` depend on, by a walk of the netlist
    /// as written (folded cells included) — independent of the tape.
    fn cone_of(nl: &Netlist, reads: usize) -> Vec<bool> {
        let mut cone = vec![false; nl.len()];
        for o in &nl.outputs()[..reads] {
            cone[o.node.index()] = true;
        }
        for (id, node) in nl.iter().collect::<Vec<_>>().into_iter().rev() {
            if cone[id.index()] {
                node.fanins().iter().for_each(|f| cone[f.index()] = true);
            }
        }
        cone
    }

    /// A tape compiled for a reader of outputs `..reads`: with every
    /// output read it is `compile`'s tape, else its prefix holds exactly
    /// the cone's emitting cells; replaying only the prefix yields outputs
    /// `..reads` bit-identical to the oracle at every occupied-word
    /// count on every SIMD level (on a frame poisoned before each
    /// block, so a cone cell left out of the prefix cannot hide); and
    /// patching a cell behind the prefix is `==` a fresh compile of the
    /// patched netlist and leaves the read outputs alone. Over the fold
    /// and fusion shapes, strict and loose random DAGs, and a balanced
    /// loose DAG (buffer runs to fold), at `reads` ∈ {0, 1, n/2, n}.
    #[test]
    fn a_read_cone_prefix_replays_exactly_the_outputs_it_covers() {
        use crate::balance::balance;
        use crate::random::RandomDag;
        let mut chain = Netlist::new("chain");
        let [a, b] = ["a", "b"].map(|name| chain.add_input(name));
        let g1 = chain.add_gate2(Op::And, a, b);
        let g2 = chain.add_gate1(Op::Not, g1);
        let g3 = chain.add_gate2(Op::Xor, g2, a);
        let g4 = chain.add_gate2(Op::Or, g3, b);
        chain.add_output(g4, "y0");
        chain.add_output(g2, "y1");
        let loose = RandomDag::loose(7, 5, 8).outputs(6).generate(3);
        let shapes = [
            folding_shapes(),
            fold_fixture().nl,
            chain,
            RandomDag::strict(9, 5, 8).outputs(6).generate(1),
            RandomDag::strict(6, 4, 10).outputs(10).generate(2),
            balance(&loose).0,
            loose,
        ];
        let mut patched_outside = 0;
        for nl in &shapes {
            let n = nl.outputs().len();
            assert!(BitSliceEvaluator::compile_reading(nl, n) == BitSliceEvaluator::compile(nl));
            for reads in [0, 1, n / 2, n] {
                let what = format!("{} reads {reads}/{n}", nl.name());
                let tape = BitSliceEvaluator::compile_reading(nl, reads);
                let split = tape.tape_stats().prefix_len;
                let cone = cone_of(nl, reads);
                let (prefix, tail) = tape.cells.split_at(split);
                if reads == n {
                    // Dead cells included: this is `compile`'s tape.
                    assert_eq!(split, tape.tape_len(), "{what}");
                } else {
                    assert!(prefix.iter().all(|&c| cone[c as usize]), "{what}: prefix");
                    assert!(!tail.iter().any(|&c| cone[c as usize]), "{what}: tail");
                }

                for simd in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off] {
                    let tape = BitSliceEvaluator::compile_for(nl, simd, reads);
                    let mut frame = tape.frame_with_words(16);
                    for occupied in 1..=16usize {
                        let lanes = 64 * occupied - 37;
                        let inputs = patterned_inputs(nl, lanes, occupied);
                        let want = evaluate(nl, &inputs).unwrap();
                        for slot in 0..frame.slots() {
                            (0..16).for_each(|w| frame.set_word(slot, w, !(slot * w) as u64));
                        }
                        let mut got = Vec::new();
                        let sink = lane_sink(&mut got, reads, lanes);
                        tape.eval_blocks(lanes, &mut frame, |i| inputs[i].words(), reads, sink);
                        assert_eq!(got, want[..reads], "{what} simd {simd} lanes {lanes}");
                    }
                }

                let Some(&cell) = tail
                    .iter()
                    .find(|&&c| nl.node(NodeId::new(c)).op().arity() > 0)
                else {
                    continue;
                };
                let cell = NodeId::new(cell);
                let op = match nl.node(cell).op() {
                    Op::Xor => Op::Nand,
                    op if op.arity() == 2 => Op::Xor,
                    Op::Not => Op::Buf,
                    _ => Op::Not,
                };
                let patches: PatchSet = [(cell, op)].into_iter().collect();
                let mut patched_nl = nl.clone();
                patched_nl.apply_patches(&patches).unwrap();
                let patched = tape.patched(&patches).unwrap();
                let fresh = BitSliceEvaluator::compile_reading(&patched_nl, reads);
                assert!(patched == fresh, "{what}: patching {cell:?}");
                let inputs = patterned_inputs(nl, 200, 5);
                let mut columns = Vec::new();
                let sink = lane_sink(&mut columns, reads, 200);
                let mut frame = patched.frame_with_words(2);
                patched.eval_blocks(200, &mut frame, |i| inputs[i].words(), reads, sink);
                let want = evaluate(&patched_nl, &inputs).unwrap();
                assert_eq!(want[..reads], evaluate(nl, &inputs).unwrap()[..reads]);
                assert_eq!(columns, want[..reads], "{what}");
                let whole = patched.evaluate_with(&inputs, 200, &mut frame).unwrap();
                assert_eq!(whole, want, "{what}: the whole patched tape");
                patched_outside += 1;
            }
        }
        assert!(patched_outside >= 10, "{patched_outside} cells patched");
        // What a hidden VGG16 layer looks like: six of many outputs read.
        let wide = RandomDag::strict(6, 4, 64).outputs(64).generate(9);
        let stats = BitSliceEvaluator::compile_reading(&wide, 6).tape_stats();
        assert!(stats.prefix_len * 2 < stats.tape_len, "{stats:?}");
    }

    #[test]
    fn patched_rejects_cells_without_instructions() {
        let mut nl = Netlist::new("p");
        let a = nl.add_input("a");
        let y = nl.add_gate1(Op::Not, a);
        nl.add_output(y, "y");
        let sliced = BitSliceEvaluator::compile(&nl);
        let mut on_input = PatchSet::new();
        on_input.set(a, Op::Buf);
        assert!(matches!(
            sliced.patched(&on_input),
            Err(NetlistError::InvalidNode { .. })
        ));
        let mut out_of_range = PatchSet::new();
        out_of_range.set(NodeId::new(1000), Op::Buf);
        assert!(matches!(
            sliced.patched(&out_of_range),
            Err(NetlistError::InvalidNode { .. })
        ));
    }

    #[test]
    fn slice_frame_set_width_preserves_slots() {
        let mut frame = SliceFrame::with_slots(10);
        assert_eq!(
            (frame.slots(), frame.words_per_net(), frame.lanes()),
            (10, 1, 64)
        );
        frame.set_width(4);
        assert_eq!(
            (frame.slots(), frame.words_per_net(), frame.lanes()),
            (10, 4, 256)
        );
        frame.set_word(9, 3, 0xdead_beef);
        assert_eq!(frame.word(9, 3), 0xdead_beef);
        frame.set_width(2);
        assert_eq!((frame.slots(), frame.lanes()), (10, 128));
    }

    /// A width change must zero the whole frame: with slot reuse, stale
    /// words from the old layout would otherwise sit exactly where a
    /// recycled slot's partial-block tail is read back.
    #[test]
    fn slice_frame_set_width_zeroes_reused_tails() {
        let mut frame = SliceFrame::with_width(4, 4);
        for slot in 0..4 {
            for w in 0..4 {
                frame.set_word(slot, w, !0);
            }
        }
        frame.set_width(2);
        for slot in 0..4 {
            for w in 0..2 {
                assert_eq!(frame.word(slot, w), 0, "stale word at {slot}/{w}");
            }
        }
        frame.set_width(8);
        for slot in 0..4 {
            for w in 0..8 {
                assert_eq!(frame.word(slot, w), 0, "stale word at {slot}/{w}");
            }
        }
    }

    /// Regression: a ragged final block evaluated right after a width
    /// change on a reused frame must not see words from the old layout.
    #[test]
    fn ragged_final_block_after_width_change_is_clean() {
        use crate::random::RandomDag;
        let nl = RandomDag::loose(6, 4, 7).outputs(2).generate(3);
        let sliced = BitSliceEvaluator::compile(&nl);
        let mut frame = sliced.frame_with_words(8);
        let fill: Vec<Lanes> = (0..nl.inputs().len()).map(|_| Lanes::ones(512)).collect();
        sliced.evaluate_with(&fill, 512, &mut frame).unwrap();
        // Shrink the width and run a batch whose final block is ragged.
        frame.set_width(2);
        for lanes in [65usize, 129, 130] {
            let inputs: Vec<Lanes> = (0..nl.inputs().len())
                .map(|i| {
                    let bits: Vec<bool> = (0..lanes).map(|l| (i * 11 + l) % 3 == 0).collect();
                    Lanes::from_bools(&bits)
                })
                .collect();
            let want = evaluate(&nl, &inputs).unwrap();
            let got = sliced.evaluate_with(&inputs, lanes, &mut frame).unwrap();
            assert_eq!(got, want, "lanes {lanes}");
        }
    }

    /// The frame contract the replay speed rests on: however a frame
    /// comes to hold its words — built, widened, grown from empty,
    /// cloned, shrunk and regrown — they start on a 64-byte boundary,
    /// the slots a reshape adds and every word after a width change are
    /// zero, and equality sees the words, not the buffer behind them.
    #[test]
    fn slice_frame_window_stays_line_aligned_and_zeroes_what_it_gains() {
        fn aligned(frame: &SliceFrame) -> bool {
            (frame.words().as_ptr() as usize).is_multiple_of(64)
        }
        fn fill(frame: &mut SliceFrame) {
            frame.words_mut().fill(!0);
        }
        assert!(aligned(&SliceFrame::with_slots(5)));
        let built = SliceFrame::with_width(5, 16);
        assert!(aligned(&built) && built.words().iter().all(|&w| w == 0));

        // Grown from the empty default, as an engine scratch's frame is.
        let mut frame = SliceFrame::default();
        assert_eq!((frame.slots(), frame.words_per_net()), (0, 1));
        frame.reshape(33);
        assert!(aligned(&frame) && frame.words().iter().all(|&w| w == 0));
        fill(&mut frame);

        // A width change zeroes every word, in place or in a new buffer.
        for width in [16usize, 2, 4, 16] {
            frame.set_width(width);
            assert_eq!((frame.slots(), frame.words_per_net()), (33, width));
            assert!(aligned(&frame), "width {width}");
            assert!(frame.words().iter().all(|&w| w == 0), "width {width}");
            fill(&mut frame);
        }

        // Shrink, then regrow — within the buffer, then past it: the
        // kept slots keep their words, the regrown ones are zero.
        for slots in [7usize, 33, 7, 90] {
            let kept = frame.slots().min(slots) * 16;
            frame.reshape(slots);
            assert_eq!(frame.slots(), slots);
            assert!(aligned(&frame), "{slots} slots");
            assert!(frame.words()[..kept].iter().all(|&w| w == !0));
            assert!(frame.words()[kept..].iter().all(|&w| w == 0));
            fill(&mut frame);
        }

        // A clone has its own buffer and its own offset; a shrunken
        // frame equals a fresh one of its shape whatever lies beyond.
        frame.set_word(3, 5, 0xdead_beef);
        let copy = frame.clone();
        assert!(aligned(&copy));
        assert_eq!(copy, frame);
        assert_eq!(copy.word(3, 5), 0xdead_beef);
        frame.set_width(4);
        frame.reshape(2);
        assert_eq!(frame, SliceFrame::with_width(2, 4));
        assert_ne!(frame, SliceFrame::with_width(4, 2));
        assert_ne!(frame, copy);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn slice_frame_rejects_zero_width() {
        let _ = SliceFrame::with_width(4, 0);
    }

    /// Only a supported width puts every tile on its own span grid.
    #[test]
    #[should_panic(expected = "slice frame width 3")]
    fn slice_frame_rejects_an_unsupported_width() {
        SliceFrame::with_slots(4).set_width(3);
    }

    #[test]
    fn partial_final_block_masks_unused_lanes_on_every_width() {
        // NOT of all-zero inputs turns every *computed* lane to 1 — so any
        // garbage published from the unused tail lanes of a partial block
        // would show up as count_ones() > lanes.
        let mut nl = Netlist::new("n");
        let a = nl.add_input("a");
        let y = nl.add_gate1(Op::Not, a);
        nl.add_output(y, "y");
        let sliced = BitSliceEvaluator::compile(&nl);
        for words in SUPPORTED_SLICE_WORDS {
            let mut frame = sliced.frame_with_words(words);
            let block = 64 * words;
            for lanes in [1usize, block - 1, block + 1, 2 * block + 7] {
                let out = sliced
                    .evaluate_with(&[Lanes::zeros(lanes)], lanes, &mut frame)
                    .unwrap();
                assert_eq!(out[0].len(), lanes, "words {words} lanes {lanes}");
                assert_eq!(out[0].count_ones(), lanes, "words {words} lanes {lanes}");
                if let Some(last) = out[0].words().last() {
                    let rem = lanes % 64;
                    if rem != 0 {
                        assert_eq!(last >> rem, 0, "tail bits must stay clear");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_lane_batches_are_empty_on_every_width() {
        let mut nl = Netlist::new("n");
        let a = nl.add_input("a");
        let y = nl.add_gate1(Op::Not, a);
        nl.add_output(y, "y");
        let sliced = BitSliceEvaluator::compile(&nl);
        for words in SUPPORTED_SLICE_WORDS {
            let mut frame = sliced.frame_with_words(words);
            let out = sliced
                .evaluate_with(&[Lanes::zeros(0)], 0, &mut frame)
                .unwrap();
            assert_eq!(out.len(), 1);
            assert!(out[0].is_empty(), "words {words}");
        }
    }

    #[test]
    fn bitsliced_frame_reuse_across_widths() {
        let mut nl = Netlist::new("n");
        let a = nl.add_input("a");
        let y = nl.add_gate1(Op::Not, a);
        nl.add_output(y, "y");
        let sliced = BitSliceEvaluator::compile(&nl);
        assert_eq!(sliced.tape_len(), 1);
        let mut frame = sliced.frame();
        for lanes in [100usize, 3, 64] {
            let out = sliced
                .evaluate_with(&[Lanes::zeros(lanes)], lanes, &mut frame)
                .unwrap();
            assert_eq!(out[0].count_ones(), lanes, "NOT of all-zero = all-one");
        }
    }

    #[test]
    fn wide_batch_tail_masking() {
        let mut nl = Netlist::new("n");
        let a = nl.add_input("a");
        let y = nl.add_gate1(Op::Not, a);
        nl.add_output(y, "y");
        let out = evaluate(&nl, &[Lanes::zeros(100)]).unwrap();
        assert_eq!(out[0].count_ones(), 100, "NOT of all-zero = all-one");
    }
}
