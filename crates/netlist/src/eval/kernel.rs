//! Execution: the [`SliceFrame`] a tape replays over, the checked
//! [`Tape`], and the replay kernels behind it. This is the crate's one
//! file with `unsafe` code — the AVX-512 kernel, and the dispatch into
//! it and into the AVX2 build of the compiled tile — and [`Tape`] is
//! the one way in: its constructor and [`Tape::replay`] check every
//! bound the unchecked kernel relies on, so no caller outside this file
//! has a contract to keep.

use std::ops::Range;

#[cfg(doc)]
use super::BitSliceEvaluator;
use super::SUPPORTED_SLICE_WORDS;

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
/// ([`Folds`](super::tape::Folds)) — which is what keeps in-place hot patching a pure mask
/// rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SliceInstr {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) out: u32,
    pub(crate) k: [u64; 4],
}

/// A kernel tape and the frame it replays over: every slot an
/// instruction names (`a`, `b`, `out`) is below `bound`, checked once
/// at construction, and afterwards only the masks change (a patch,
/// [`super::tape`]'s fold recomposition). [`Tape::replay`] checks the
/// frame against `bound`, so no tile, the unchecked AVX-512 one
/// included, reaches past a frame: this type is the only way into the
/// replay kernels. The fused-chain accumulator is the last slot,
/// `bound - 1`, on every tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tape {
    instrs: Vec<SliceInstr>,
    bound: usize,
}

impl Tape {
    /// `instrs` over a frame of `bound` slots. One pass over the tape.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero (there is no accumulator slot) or an
    /// instruction names a slot at or past `bound`.
    pub(crate) fn new(instrs: Vec<SliceInstr>, bound: usize) -> Tape {
        let past = instrs
            .iter()
            .flat_map(|i| [i.a, i.b, i.out])
            .any(|slot| slot as usize >= bound);
        assert!(
            bound > 0 && !past,
            "a tape slot is at or past its bound of {bound}"
        );
        Tape { instrs, bound }
    }

    /// The instructions, in replay order.
    pub(crate) fn instrs(&self) -> &[SliceInstr] {
        &self.instrs
    }

    /// Frame slots a replay needs: one past the highest slot the tape
    /// may name.
    pub(crate) fn bound(&self) -> usize {
        self.bound
    }

    /// The accumulator slot, for [`replay_word`]'s register tile: the
    /// last one below the bound.
    pub(crate) fn acc(&self) -> u32 {
        (self.bound - 1) as u32
    }

    /// Replaces instruction `pos`'s ANF masks — the one rewrite a tape
    /// takes after construction.
    pub(crate) fn set_masks(&mut self, pos: usize, k: [u64; 4]) {
        self.instrs[pos].k = k;
    }

    /// Replays instructions `span` over the first `active` words of
    /// every slot span of `frame`, tile by tile: words `0 .. active` are
    /// split largest-first into tiles from `{16, 8, 4, 2, 1}` — by how
    /// many words the block carries and by nothing else (a narrower
    /// tile touches the same 64-byte lines and only multiplies tape
    /// walks; table in `docs/ARCHITECTURE.md`, "Kernel locality") — and
    /// each tile of two or more words is routed to the widest kernel
    /// `simd` allows; a one-word tile runs [`replay_word`], which keeps
    /// the accumulator in a register; the frame's width is a supported
    /// one, so every tile starts on a multiple of its own width. Words
    /// `active ..` of a span are neither read nor written — a batch that
    /// fills 1 of a 16-word frame's words pays for one word.
    /// This is the shared engine behind
    /// [`BitSliceEvaluator::run_block`](super::BitSliceEvaluator::run_block)
    /// (`active` = the frame's width), the block loop's occupied-word
    /// replay and the per-partition segment replay of
    /// [`crate::partitioned::PartitionedEngine`].
    ///
    /// # Panics
    ///
    /// Panics if `frame` has fewer than [`Tape::bound`] slots, if
    /// `active` exceeds its width, or if `span` is not within the tape.
    #[inline]
    pub(crate) fn replay(
        &self,
        span: Range<usize>,
        simd: SimdLevel,
        frame: &mut SliceFrame,
        active: usize,
    ) {
        // The SIMD kernels' bounds rest on these two: real asserts, once
        // per replay, not per tile. With every slot below `bound`, they
        // give `slot * per + base + tile <= words.len()` for every tile.
        let per = frame.words_per_net;
        assert!(frame.slots() >= self.bound, "frame too small for tape");
        assert!(active <= per, "active words exceed the frame width");
        let (tape, acc, words) = (&self.instrs[span], self.acc(), frame.words_mut());
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
/// AVX-512 kernel also indexes unchecked: [`Tape::replay`] keeps
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

    /// A tape names only slots below its bound: an operand or a result
    /// at the bound, or a bound with no room for the accumulator, is
    /// refused when the tape is built, before any replay could reach it.
    /// Each is caught and checked; the last, a result far past the
    /// bound, is repeated uncaught for its panic message.
    #[test]
    #[should_panic(expected = "a tape slot is at or past its bound of 3")]
    fn a_tape_slot_at_its_bound_is_refused_at_construction() {
        let k = [!0; 4];
        let tape = |a, b, out, bound| Tape::new(vec![SliceInstr { a, b, out, k }], bound);
        assert_eq!(tape(0, 1, 2, 3).acc(), 2);
        for (a, b, out, bound) in [(3, 0, 1, 3), (0, 3, 1, 3), (0, 1, 3, 3), (0, 0, 0, 0)] {
            let caught = std::panic::catch_unwind(|| tape(a, b, out, bound));
            assert!(
                caught.is_err(),
                "slots {a} {b} {out} under bound {bound} accepted"
            );
        }
        assert!(std::panic::catch_unwind(|| Tape::new(Vec::new(), 0)).is_err());
        tape(0, 1, u32::MAX, 3);
    }

    /// A frame one slot short of a tape's bound panics at replay on
    /// every level this host resolves, at every width: on the AVX-512
    /// level too, whose kernel indexes unchecked, so [`Tape::replay`]'s
    /// frame check is all that stands between the tape's last slot and
    /// the words past the frame.
    #[test]
    fn a_tape_slot_past_its_frame_panics_on_every_level() {
        let k = [!0; 4];
        let tape = Tape::new(
            vec![SliceInstr {
                a: 0,
                b: 1,
                out: 2,
                k,
            }],
            3,
        );
        let levels = [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off].map(SimdMode::resolve);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            assert!(levels.contains(&SimdLevel::Avx512));
        }
        for level in levels {
            println!("frame check: level {level}");
            for per in SUPPORTED_SLICE_WORDS {
                let caught = std::panic::catch_unwind(|| {
                    tape.replay(0..1, level, &mut SliceFrame::with_width(2, per), per)
                });
                let payload = caught.expect_err("a replay one slot past its frame returned");
                let message = payload.downcast_ref::<&str>().copied();
                assert_eq!(
                    message,
                    Some("frame too small for tape"),
                    "{level} width {per}"
                );
            }
        }
    }
}
