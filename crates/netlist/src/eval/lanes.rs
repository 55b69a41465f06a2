//! The sample format: [`Lanes`] columns, [`PackedRows`] rows, the
//! 64×64 transpose between them, and the output sink that builds
//! columns from replayed blocks.

use super::SUPPORTED_SLICE_WORDS;
#[cfg(doc)]
use super::{BitSliceEvaluator, SliceFrame};
use crate::cell::Op;

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
    pub(super) words: LaneWords,
    pub(super) len: usize,
}

/// Words a [`Lanes`] holds inline: one block of the widest slice width.
pub(super) const INLINE_WORDS: usize = SUPPORTED_SLICE_WORDS[SUPPORTED_SLICE_WORDS.len() - 1];

/// The words behind a [`Lanes`] of `len` lanes: inline when
/// `len.div_ceil(64) <= INLINE_WORDS` (the first that many words are the
/// lanes, the rest zero), on the heap otherwise. The form depends on the
/// word count alone.
#[derive(Clone)]
pub(super) enum LaneWords {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

impl LaneWords {
    /// Room for `count` words and none written yet: all of them inline
    /// (zero), or an empty heap block of capacity `count` that words
    /// are appended to ([`LaneWords::put`]).
    #[inline]
    fn room(count: usize) -> Self {
        match count <= INLINE_WORDS {
            true => LaneWords::Inline([0; INLINE_WORDS]),
            false => LaneWords::Heap(Vec::with_capacity(count)),
        }
    }

    /// [`LaneWords::room`] for `count` words, `first` at the front.
    #[inline]
    pub(super) fn with_first(count: usize, first: &[u64]) -> Self {
        let mut words = LaneWords::room(count);
        words.put(0, first);
        words
    }

    /// `count` zero words.
    fn zeros(count: usize) -> Self {
        match count <= INLINE_WORDS {
            true => LaneWords::Inline([0; INLINE_WORDS]),
            false => LaneWords::Heap(vec![0; count]),
        }
    }

    /// Stores `words` at word `base`, right after the words already
    /// written (a heap column grows by exactly these). One inline word
    /// is a plain store; more are one copy (a `memcpy` call, which
    /// measured faster at 2–16 words than fixed-size moves).
    #[inline]
    fn put(&mut self, base: usize, words: &[u64]) {
        match self {
            LaneWords::Inline(inline) if words.len() == 1 => inline[base] = words[0],
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

    /// Stores `word` as the last word, its bits past `len` cleared — how
    /// the output sink ends a column: from the block it was handed, not
    /// by reading back the word it has just copied.
    #[inline]
    fn end_with(&mut self, word: u64) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last = word & ((1u64 << rem) - 1);
            }
        }
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

/// The output sink that builds [`Lanes`] — the one
/// [`BitSliceEvaluator::evaluate_with`] hands
/// [`BitSliceEvaluator::eval_blocks`]: `columns` (emptied, with room
/// for `outputs`) receives one column of `lanes` lanes per output.
/// Blocks arrive in order (outputs within a block in any order).
///
/// An inline column handed over in order is built in its place in
/// `columns`: its first block pushes an empty column, whose 16 zero
/// words are stored straight into `columns`; every block, the first
/// included, is copied into it there; and the block that ends the
/// column writes the last word masked from its own words, not by
/// reading back the word just copied. A heap column, or one handed over
/// out of order, starts as an empty column built beside `columns` and
/// moved in. Building every column beside `columns` and moving its 144
/// bytes in cost 18–33 ns a column at every width; in place it costs
/// 10–18 (`docs/ARCHITECTURE.md`, "Building a result column in its
/// place").
///
/// A column of ≤ 16 words (the widest block) is inline, so a batch of
/// ≤ 1024 lanes allocates `columns` and nothing per output. A wider
/// column's heap block is allocated on first touch — after the block's
/// replay, so it is written while its lines are hot and the replay's
/// working set is not diluted (allocating all heap columns up front
/// measured 3–5 % slower end to end) — and for the whole batch at
/// once, so later blocks never reallocate. A zero-lane batch has no
/// blocks: its `outputs` empty columns are there from the start.
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
        if base == 0 {
            let in_order = o == columns.len();
            if in_order && stride <= INLINE_WORDS {
                // Its own push, so the zeros are stored straight into
                // `columns` rather than assembled beside it and moved.
                columns.push(Lanes {
                    words: LaneWords::Inline([0; INLINE_WORDS]),
                    len: lanes,
                });
            } else {
                let column = Lanes {
                    words: LaneWords::room(stride),
                    len: lanes,
                };
                match in_order {
                    true => columns.push(column),
                    false => place(columns, o, column),
                }
            }
        }
        let column = &mut columns[o];
        column.words.put(base, words);
        if base + words.len() == stride {
            column.end_with(words[words.len() - 1]);
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
