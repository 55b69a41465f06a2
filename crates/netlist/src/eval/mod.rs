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
//!
//! The module is split along the processor's seams: `lanes` holds the
//! sample format ([`Lanes`], [`PackedRows`], the 64×64 transpose, the
//! output sink), `tape` the compile side (the locality pass, the fold
//! tables patching recomposes through, [`TapeStats`]), and `kernel`
//! execution ([`SliceFrame`], the SIMD levels and the replay kernels —
//! the crate's only `unsafe`, reachable only through a tape whose slot
//! bound was checked when it was built).

mod kernel;
mod lanes;
mod tape;
#[cfg(test)]
mod tests;

use crate::cell::Op;
use crate::error::NetlistError;
use crate::netlist::{Netlist, NodeId};

pub use self::kernel::{SimdLevel, SimdMode, SliceFrame};
pub(crate) use self::kernel::{SliceInstr, Tape};
pub use self::lanes::{gather_bits, lane_sink, spread_bits, transpose_64x64, Lanes, PackedRows};
use self::tape::Folds;
pub(crate) use self::tape::SlotPool;
pub use self::tape::TapeStats;

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

/// The arity check shared by every batch entry of both evaluators.
pub(crate) fn check_arity(expected: usize, got: usize) -> Result<(), NetlistError> {
    if got != expected {
        return Err(NetlistError::InputArity { expected, got });
    }
    Ok(())
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
    tape: Tape,
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
    /// The folded arity-1 cells and the instructions reading through
    /// them.
    folds: Folds,
    /// What the locality pass did.
    stats: TapeStats,
}

impl BitSliceEvaluator {
    /// Number of kernel instructions (executable nets).
    pub fn tape_len(&self) -> usize {
        self.tape.instrs().len()
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
        let acc = self.tape.acc();
        self.tape
            .instrs()
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
        SliceFrame::with_width(self.tape.bound(), words_per_net)
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
        let per = frame.words_per_net();
        let len = self.tape.instrs().len();
        self.tape.replay(0..len, self.stats.simd, frame, per);
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
        // Sized for the tape, so no replay below fails its frame check.
        frame.reshape(self.tape.bound());
        let per = frame.words_per_net();
        let total_words = lanes.div_ceil(64);
        // Outputs `..reads` are final once the read cone has run.
        let replayed = match outputs <= self.reads {
            true => 0..self.stats.prefix_len,
            false => 0..self.tape.instrs().len(),
        };
        for base in (0..total_words).step_by(per) {
            // A partial final block occupies fewer than `per` words.
            let avail = (total_words - base).min(per);
            let words = frame.words_mut();
            for (i, &slot) in self.inputs.iter().enumerate() {
                let span = slot as usize * per;
                let in_words = &input_words(i)[base..base + avail];
                words[span..span + avail].copy_from_slice(in_words);
            }
            self.tape
                .replay(replayed.clone(), self.stats.simd, frame, avail);
            let words = frame.words();
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
