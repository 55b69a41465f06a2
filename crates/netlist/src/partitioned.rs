//! Partitioned execution of a bit-sliced kernel tape.
//!
//! The paper's LPU assemblies partition one netlist so that each piece
//! fits the fixed resources of a processing unit, with explicit
//! inter-partition routing. This module is the software analogue, and
//! the fixed resource is the cache: a [`PartitionedEngine`] compiles a
//! netlist into N per-partition kernel tapes — each with its **own**
//! locality-optimized slot space, allocated by the same liveness
//! allocator the single-tape
//! [`BitSliceEvaluator`](crate::BitSliceEvaluator) uses — plus a
//! compile-time [`ExchangeSchedule`]: the `(src_partition, src_slot) →
//! (dst_partition, dst_slot)` word copies that move every
//! cross-partition net, grouped by netlist level.
//!
//! Execution is level-synchronous and runs on the calling thread: every
//! partition replays its level-`l` tape segment over its own
//! [`SliceFrame`], then the level's exchange copies run, then level
//! `l + 1` starts. Partitioning is a locality transform, not a
//! threading model — cores are used by the batch-level workers of a
//! `Runtime` in `lbnn-core`, never inside a batch.
//!
//! What it buys, measured: nothing on one thread. The per-partition
//! frames are a fraction of the single-engine frame, and while tiles
//! were capped to a byte budget that fraction bought wider tiles —
//! which was the whole recorded win. Every tape now replays a block's
//! words in one walk, and on the 4096×6 DAG two or three partitions
//! read within 3 % of the single tape (`docs/ARCHITECTURE.md`,
//! "Partitioned execution"); what remains is the transform itself, for
//! a frame larger than the last-level cache or an executor that is not
//! one thread.
//!
//! Slot-safety invariant the allocator maintains: at each level
//! boundary, **import slots are allocated before export slots are
//! released**, so a copy's destination can never alias a slot another
//! copy still reads — a level's copies are an unordered set of moves.
//!
//! The construction is deterministic and purely structural (level and
//! arena order, never gate kinds), so [`PartitionedEngine::patched`] is
//! a pure ANF-mask rewrite, exactly like the single-tape evaluator.

use crate::cell::Op;
use crate::error::NetlistError;
use crate::eval::{
    check_arity, lane_sink, Lanes, SimdLevel, SimdMode, SliceFrame, SliceInstr, SlotPool, Tape,
};
use crate::netlist::{Netlist, NodeId};
use crate::patch::PatchSet;

/// Hard ceiling on the partition count: consumer bitmasks are one
/// `u64`.
pub const MAX_PARTITIONS: usize = 64;

/// Sentinel for "no position / no slot" in the compile-time tables.
const NONE: u32 = u32::MAX;

fn malformed(reason: impl Into<String>) -> NetlistError {
    NetlistError::Malformed {
        reason: reason.into(),
    }
}

/// A node → partition map driving [`PartitionedEngine::compile_with`].
///
/// The default ([`PartitionAssignment::contiguous`]) splits every
/// netlist level into `parts` contiguous arena-order chunks — the
/// level-synchronous analogue of partitioning a layer's neurons into
/// blocks, and the assignment that keeps banded netlists' cuts small.
/// Arbitrary maps ([`PartitionAssignment::from_map`]) exist for tests
/// that probe the exchange scheduler with adversarial assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionAssignment {
    parts: usize,
    of: Vec<u32>,
}

impl PartitionAssignment {
    /// Splits each level of `netlist` into `parts` contiguous
    /// arena-order chunks (primary inputs are chunked the same way;
    /// their partition only matters as the *home* of an input that is
    /// also a primary output).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] when `parts` is 0 or exceeds
    /// [`MAX_PARTITIONS`].
    pub fn contiguous(netlist: &Netlist, parts: usize) -> Result<Self, NetlistError> {
        check_parts(parts)?;
        let n = netlist.len();
        let level = node_levels(netlist);
        let num_levels = level.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); num_levels + 1];
        for (id, node) in netlist.iter() {
            if node.op() == Op::Input {
                buckets[0].push(id.index() as u32);
            } else {
                buckets[level[id.index()] as usize + 1].push(id.index() as u32);
            }
        }
        let mut of = vec![0u32; n];
        for bucket in &buckets {
            for (j, &id) in bucket.iter().enumerate() {
                of[id as usize] = (j * parts / bucket.len()) as u32;
            }
        }
        Ok(PartitionAssignment { parts, of })
    }

    /// An arbitrary node → partition map: `of[i]` is the partition of
    /// arena node `i` (inputs included).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] when `parts` is out of range or any
    /// entry names a partition `>= parts`.
    pub fn from_map(parts: usize, of: Vec<u32>) -> Result<Self, NetlistError> {
        check_parts(parts)?;
        if let Some(&bad) = of.iter().find(|&&p| p as usize >= parts) {
            return Err(malformed(format!(
                "assignment names partition {bad} but there are only {parts}"
            )));
        }
        Ok(PartitionAssignment { parts, of })
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The partition of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range of the map.
    pub fn of(&self, id: NodeId) -> usize {
        self.of[id.index()] as usize
    }
}

fn check_parts(parts: usize) -> Result<(), NetlistError> {
    if parts == 0 || parts > MAX_PARTITIONS {
        return Err(malformed(format!(
            "partition count {parts} is outside the supported 1..={MAX_PARTITIONS}"
        )));
    }
    Ok(())
}

/// Gate levels as the tape compilers define them: inputs and constants
/// at 0, every gate one past its deepest fanin.
fn node_levels(netlist: &Netlist) -> Vec<u32> {
    let mut level = vec![0u32; netlist.len()];
    for (id, node) in netlist.iter() {
        if node.op() == Op::Input {
            continue;
        }
        level[id.index()] = node
            .fanins()
            .iter()
            .map(|f| level[f.index()])
            .max()
            .map_or(0, |m| m + 1);
    }
    level
}

/// One compile-time word copy of the exchange schedule: after the
/// source partition's level segment completes, the `words_per_net` span
/// of `src_slot` in `src_part`'s frame is copied to `dst_slot` in
/// `dst_part`'s frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeCopy {
    /// Partition that computed the value.
    pub src_part: u32,
    /// Its slot in the source partition's frame.
    pub src_slot: u32,
    /// Partition that will read the value at a later level.
    pub dst_part: u32,
    /// The import slot in the destination partition's frame.
    pub dst_slot: u32,
}

/// The compile-time cross-partition routing plan: `levels[l]` holds the
/// copies to run after every partition finishes its level-`l` segment
/// (and before any level-`l + 1` instruction runs). Copies within a
/// level write pairwise-distinct destination slots, none of which alias
/// a source slot still to be read at that level — they are an unordered
/// set of moves.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExchangeSchedule {
    /// Per-level copy groups, aligned with the tape level segments.
    pub levels: Vec<Vec<ExchangeCopy>>,
}

impl ExchangeSchedule {
    /// Total copies across all levels.
    pub fn num_copies(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

/// What partitioning did to the tape
/// ([`PartitionedEngine::partition_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionStats {
    /// Number of partitions.
    pub partitions: usize,
    /// Level segments every partition's tape is divided into.
    pub levels: usize,
    /// Distinct nets computed in one partition and read in another —
    /// the cut size.
    pub cut_nets: usize,
    /// Exchange copies (≥ `cut_nets`: one per consuming partition).
    pub cut_copies: usize,
    /// Live slots of the largest per-partition frame (each frame adds
    /// one accumulator scratch slot on top).
    pub max_frame_slots: usize,
    /// Live slots summed over all partitions.
    pub total_frame_slots: usize,
    /// Kernel instructions summed over all partitions: one per
    /// executable cell, so partitioning never duplicates work (the
    /// single tape, which also folds arity-1 cells, may be shorter).
    pub tape_len: usize,
}

impl PartitionStats {
    /// Words the exchange moves per block at `words_per_net` words per
    /// net — the per-block exchange overhead.
    pub fn exchange_words(&self, words_per_net: usize) -> usize {
        self.cut_copies * words_per_net
    }
}

/// One partition's share of the compiled netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PartTape {
    /// This partition's kernel instructions, level-major, over a frame
    /// of its live data slots plus the accumulator slot.
    tape: Tape,
    /// Netlist node behind each instruction (patch addressing).
    cells: Vec<u32>,
    /// `tape[seg_ends[l - 1] .. seg_ends[l]]` is the level-`l` segment.
    seg_ends: Vec<u32>,
    /// `(primary input index, slot)` for every input this partition
    /// loads directly — inputs are never exchanged.
    inputs: Vec<(u32, u32)>,
    /// `(primary output index, slot)` for every output this partition
    /// owns.
    outputs: Vec<(u32, u32)>,
}

/// A netlist compiled into N per-partition kernel tapes plus the
/// exchange schedule that routes every cross-partition net — the
/// partitioned counterpart of
/// [`BitSliceEvaluator`](crate::BitSliceEvaluator), with identical
/// [`Lanes`] I/O semantics and bit-identical results at every frame
/// width and partition count.
///
/// # Example
///
/// ```
/// use lbnn_netlist::eval::evaluate;
/// use lbnn_netlist::partitioned::PartitionedEngine;
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
/// let engine = PartitionedEngine::compile(&nl, 2).unwrap();
/// assert_eq!(
///     engine.evaluate(&inputs).unwrap(),
///     evaluate(&nl, &inputs).unwrap(),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedEngine {
    parts: Vec<PartTape>,
    schedule: ExchangeSchedule,
    num_inputs: usize,
    num_outputs: usize,
    /// Netlist arena size the tapes were compiled from (patch-index
    /// bound).
    num_cells: usize,
    simd: SimdLevel,
    stats: PartitionStats,
}

impl PartitionedEngine {
    /// Compiles `netlist` into `parts` partition tapes with the default
    /// contiguous per-level assignment, on the widest SIMD level this
    /// host has ([`SimdMode::Auto`]).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] for a partition count outside
    /// `1..=`[`MAX_PARTITIONS`].
    pub fn compile(netlist: &Netlist, parts: usize) -> Result<Self, NetlistError> {
        let assignment = PartitionAssignment::contiguous(netlist, parts)?;
        PartitionedEngine::compile_with(netlist, &assignment, SimdMode::Auto)
    }

    /// Compiles `netlist` against an explicit [`PartitionAssignment`],
    /// with replay kernels no wider than `simd`. Partition tapes recycle
    /// dead slots but fuse no chains: single-fanout chains span levels,
    /// and partition tapes must break at every level boundary for the
    /// exchange.
    ///
    /// Deterministic and purely structural: two compiles of the same
    /// netlist with the same assignment and ceiling are equal, and
    /// patching never changes the schedule
    /// ([`PartitionedEngine::patched`]).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Malformed`] when the assignment does not cover
    /// exactly this netlist's nodes.
    pub fn compile_with(
        netlist: &Netlist,
        assignment: &PartitionAssignment,
        simd: SimdMode,
    ) -> Result<Self, NetlistError> {
        let n = netlist.len();
        let parts = assignment.parts;
        if assignment.of.len() != n {
            return Err(malformed(format!(
                "assignment covers {} nodes but the netlist has {n}",
                assignment.of.len()
            )));
        }
        let pof = &assignment.of;
        let level = node_levels(netlist);
        let num_levels = netlist
            .iter()
            .filter(|(_, node)| node.op() != Op::Input)
            .map(|(id, _)| level[id.index()] as usize + 1)
            .max()
            .unwrap_or(0);

        // Executable nodes grouped by level, arena order within each —
        // the global tape order every per-partition order is a
        // subsequence of.
        let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); num_levels];
        for (id, node) in netlist.iter() {
            if node.op() != Op::Input {
                by_level[level[id.index()] as usize].push(id.index() as u32);
            }
        }

        // Which partitions read each node from a frame (bitmask), and
        // which partition pins it as a primary output.
        let mut read_mask = vec![0u64; n];
        for (id, node) in netlist.iter() {
            if node.op() == Op::Input {
                continue;
            }
            for &f in node.fanins() {
                read_mask[f.index()] |= 1u64 << pof[id.index()];
            }
        }
        let mut pin_mask = vec![0u64; n];
        for o in netlist.outputs() {
            pin_mask[o.node.index()] |= 1u64 << pof[o.node.index()];
        }

        // Cross-partition consumer mask of each executable node: the
        // partitions that import it. Inputs never appear — every
        // partition loads the primary inputs it reads directly.
        let mut cross_mask = vec![0u64; n];
        let mut cut_nets = 0usize;
        for (id, node) in netlist.iter() {
            if node.op() == Op::Input {
                continue;
            }
            let i = id.index();
            let m = read_mask[i] & !(1u64 << pof[i]);
            cross_mask[i] = m;
            if m != 0 {
                cut_nets += 1;
            }
        }

        // Per-partition slot assignment. Event order within a
        // partition: level-l instructions (arena order), then the
        // level-l exchange — import allocations FIRST, export releases
        // SECOND, so an import destination can never alias a source
        // slot still being read at this exchange.
        let mut slot_of: Vec<Vec<u32>> = Vec::with_capacity(parts);
        let mut frame_slots: Vec<usize> = Vec::with_capacity(parts);
        for p in 0..parts {
            let pbit = 1u64 << p;
            // Instruction and exchange positions in this partition's
            // event order.
            let mut ipos = vec![NONE; n];
            let mut xpos = vec![NONE; num_levels];
            let mut pos = 0u32;
            for (l, ids) in by_level.iter().enumerate() {
                for &y in ids {
                    if pof[y as usize] == p as u32 {
                        ipos[y as usize] = pos;
                        pos += 1;
                    }
                }
                xpos[l] = pos;
                pos += 1;
            }
            // Last frame read of each value present in this partition.
            let mut last_read = vec![NONE; n];
            for ids in &by_level {
                for &y in ids {
                    let yi = y as usize;
                    if pof[yi] != p as u32 {
                        continue;
                    }
                    for &f in netlist.node(NodeId::new(y)).fanins() {
                        last_read[f.index()] = ipos[yi];
                    }
                }
            }
            for ids in &by_level {
                for &y in ids {
                    let yi = y as usize;
                    if pof[yi] == p as u32 && cross_mask[yi] != 0 {
                        let x = xpos[level[yi] as usize];
                        if last_read[yi] == NONE || last_read[yi] < x {
                            last_read[yi] = x;
                        }
                    }
                }
            }
            let mut pool = SlotPool::default();
            let mut slots = vec![NONE; n];
            for &i in netlist.inputs() {
                let ii = i.index();
                if read_mask[ii] & pbit != 0 || pin_mask[ii] & pbit != 0 {
                    slots[ii] = pool.alloc();
                }
            }
            for (l, ids) in by_level.iter().enumerate() {
                for &y in ids {
                    let yi = y as usize;
                    if pof[yi] != p as u32 {
                        continue;
                    }
                    let fan = netlist.node(NodeId::new(y)).fanins();
                    let mut released = [NONE; 2];
                    let mut nr = 0;
                    for &f in fan {
                        let fi = f.index();
                        if last_read[fi] == ipos[yi]
                            && pin_mask[fi] & pbit == 0
                            && released[..nr].iter().all(|&r| r != fi as u32)
                        {
                            pool.release(slots[fi]);
                            released[nr] = fi as u32;
                            nr += 1;
                        }
                    }
                    slots[yi] = pool.alloc();
                    if last_read[yi] == NONE && pin_mask[yi] & pbit == 0 {
                        pool.release(slots[yi]);
                    }
                }
                // Exchange boundary: imports in, then dead exports out.
                for &y in ids {
                    let yi = y as usize;
                    if cross_mask[yi] & pbit != 0 {
                        slots[yi] = pool.alloc();
                    }
                }
                for &y in ids {
                    let yi = y as usize;
                    if pof[yi] == p as u32
                        && cross_mask[yi] != 0
                        && last_read[yi] == xpos[l]
                        && pin_mask[yi] & pbit == 0
                    {
                        pool.release(slots[yi]);
                    }
                }
            }
            frame_slots.push(pool.high as usize);
            slot_of.push(slots);
        }

        // The exchange schedule: every cross net, routed at its
        // production level, one copy per consuming partition — arena
        // order within a level, partitions ascending. Deterministic.
        let mut schedule = ExchangeSchedule {
            levels: vec![Vec::new(); num_levels],
        };
        for (l, ids) in by_level.iter().enumerate() {
            for &y in ids {
                let yi = y as usize;
                let src = pof[yi];
                let mut m = cross_mask[yi];
                while m != 0 {
                    let q = m.trailing_zeros() as usize;
                    m &= m - 1;
                    schedule.levels[l].push(ExchangeCopy {
                        src_part: src,
                        src_slot: slot_of[src as usize][yi],
                        dst_part: q as u32,
                        dst_slot: slot_of[q][yi],
                    });
                }
            }
        }

        // Emit the per-partition tapes.
        let mut parts_out: Vec<PartTape> = Vec::with_capacity(parts);
        for p in 0..parts {
            let acc = frame_slots[p] as u32;
            let slots = &slot_of[p];
            let mut tape = Vec::new();
            let mut cells = Vec::new();
            let mut seg_ends = Vec::with_capacity(num_levels);
            for ids in &by_level {
                for &y in ids {
                    let yi = y as usize;
                    if pof[yi] != p as u32 {
                        continue;
                    }
                    let node = netlist.node(NodeId::new(y));
                    let fan = node.fanins();
                    let (a, b) = match fan.len() {
                        0 => (acc, acc),
                        1 => (slots[fan[0].index()], slots[fan[0].index()]),
                        _ => (slots[fan[0].index()], slots[fan[1].index()]),
                    };
                    tape.push(SliceInstr {
                        a,
                        b,
                        out: slots[yi],
                        k: node.op().anf_masks(),
                    });
                    cells.push(y);
                }
                seg_ends.push(tape.len() as u32);
            }
            let inputs = netlist
                .inputs()
                .iter()
                .enumerate()
                .filter(|(_, i)| slots[i.index()] != NONE)
                .map(|(pi, i)| (pi as u32, slots[i.index()]))
                .collect();
            let outputs = netlist
                .outputs()
                .iter()
                .enumerate()
                .filter(|(_, o)| pof[o.node.index()] == p as u32)
                .map(|(po, o)| (po as u32, slots[o.node.index()]))
                .collect();
            parts_out.push(PartTape {
                tape: Tape::new(tape, frame_slots[p] + 1),
                cells,
                seg_ends,
                inputs,
                outputs,
            });
        }

        let stats = PartitionStats {
            partitions: parts,
            levels: num_levels,
            cut_nets,
            cut_copies: schedule.num_copies(),
            max_frame_slots: frame_slots.iter().copied().max().unwrap_or(0),
            total_frame_slots: frame_slots.iter().sum(),
            tape_len: parts_out.iter().map(|p| p.tape.instrs().len()).sum(),
        };
        Ok(PartitionedEngine {
            parts: parts_out,
            schedule,
            num_inputs: netlist.inputs().len(),
            num_outputs: netlist.outputs().len(),
            num_cells: n,
            simd: simd.resolve(),
            stats,
        })
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Number of primary inputs the engine expects.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs the engine produces.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Cut sizes, per-partition frame footprints, copy counts
    /// ([`PartitionStats`]).
    pub fn partition_stats(&self) -> PartitionStats {
        self.stats
    }

    /// The compile-time exchange schedule.
    pub fn schedule(&self) -> &ExchangeSchedule {
        &self.schedule
    }

    /// The SIMD dispatch level the partition tapes execute with.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// One frame per partition at `words_per_net` words
    /// (`64 × words_per_net` lanes) per block, each sized for its
    /// partition's live slots plus the accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_net` is not a supported slice width.
    pub fn frames_with_words(&self, words_per_net: usize) -> Vec<SliceFrame> {
        self.parts
            .iter()
            .map(|p| SliceFrame::with_width(p.tape.bound(), words_per_net))
            .collect()
    }

    /// Resizes `frames` to one correctly-shaped frame per partition at
    /// the width they already have (or `per` when empty), preserving
    /// allocations across batches.
    fn prepare_frames(&self, frames: &mut Vec<SliceFrame>, per: usize) {
        frames.resize_with(self.parts.len(), SliceFrame::default);
        for (frame, part) in frames.iter_mut().zip(&self.parts) {
            frame.set_width(per);
            frame.reshape(part.tape.bound());
        }
    }

    /// Evaluates the whole batch — the partitioned counterpart of
    /// [`BitSliceEvaluator::evaluate_with`](crate::BitSliceEvaluator::evaluate_with),
    /// with identical semantics (partial final blocks replay their
    /// occupied words only and are tail-masked; `lanes` overrides the
    /// width for no-input netlists). `frames` is per-partition scratch,
    /// resized as needed; the block width is the frames' current width
    /// (64 lanes after a fresh `Vec::new()`).
    ///
    /// # Errors
    ///
    /// [`NetlistError::InputArity`] on an input-count mismatch.
    ///
    /// # Panics
    ///
    /// Panics if the input lane vectors have inconsistent lane counts.
    pub fn evaluate_with(
        &self,
        inputs: &[Lanes],
        lanes: usize,
        frames: &mut Vec<SliceFrame>,
    ) -> Result<Vec<Lanes>, NetlistError> {
        check_arity(self.num_inputs, inputs.len())?;
        for l in inputs {
            assert_eq!(l.len(), lanes, "inconsistent lane counts across inputs");
        }
        let mut columns = Vec::new();
        let sink = lane_sink(&mut columns, self.num_outputs, lanes);
        self.eval_blocks(lanes, frames, |i| inputs[i].words(), self.num_outputs, sink);
        Ok(columns)
    }

    /// Evaluates at 64 lanes per block with fresh frames — the
    /// convenience entry mirroring
    /// [`BitSliceEvaluator::evaluate`](crate::BitSliceEvaluator::evaluate).
    ///
    /// # Errors
    ///
    /// [`NetlistError::InputArity`] on an input-count mismatch.
    pub fn evaluate(&self, inputs: &[Lanes]) -> Result<Vec<Lanes>, NetlistError> {
        let lanes = inputs.first().map_or(0, Lanes::len);
        self.evaluate_with(inputs, lanes, &mut self.frames_with_words(1))
    }

    /// The block loop behind every batch entry, and the one place
    /// partition tapes are replayed — the partitioned counterpart of
    /// [`BitSliceEvaluator::eval_blocks`](crate::BitSliceEvaluator::eval_blocks),
    /// with the same accessor/sink contract: per block, every partition
    /// loads its inputs from `input_words(i)`; per level, every
    /// partition replays its tape segment, then the level's exchange
    /// copies run; then `sink(o, base, words)` receives the block's
    /// words of each output column `o < outputs` from the partition
    /// that owns it (every output has exactly one owner; blocks arrive
    /// in order, outputs within a block in partition order). Replay and
    /// exchange touch only the words a block occupies.
    ///
    /// # Panics
    ///
    /// Panics if `input_words` yields a column shorter than
    /// `lanes.div_ceil(64)` words.
    pub fn eval_blocks<'a>(
        &self,
        lanes: usize,
        frames: &mut Vec<SliceFrame>,
        input_words: impl Fn(usize) -> &'a [u64],
        outputs: usize,
        mut sink: impl FnMut(usize, usize, &[u64]),
    ) {
        let per = frames.first().map_or(1, SliceFrame::words_per_net).max(1);
        self.prepare_frames(frames, per);
        let total_words = lanes.div_ceil(64);
        for base in (0..total_words).step_by(per) {
            // A partial final block occupies fewer than `per` words.
            let avail = (total_words - base).min(per);
            for (part, frame) in self.parts.iter().zip(frames.iter_mut()) {
                for &(pi, slot) in &part.inputs {
                    let span = slot as usize * per;
                    let in_words = &input_words(pi as usize)[base..base + avail];
                    frame.words_mut()[span..span + avail].copy_from_slice(in_words);
                }
            }
            for (l, copies) in self.schedule.levels.iter().enumerate() {
                for (part, frame) in self.parts.iter().zip(frames.iter_mut()) {
                    let start = l.checked_sub(1).map_or(0, |k| part.seg_ends[k]);
                    let segment = start as usize..part.seg_ends[l] as usize;
                    part.tape.replay(segment, self.simd, frame, avail);
                }
                for c in copies {
                    // A copy always crosses partitions: a net's own
                    // partition is never among its importers.
                    let [src, dst] = frames
                        .get_disjoint_mut([c.src_part as usize, c.dst_part as usize])
                        .expect("an exchange copy crosses partitions");
                    let (s, d) = (c.src_slot as usize * per, c.dst_slot as usize * per);
                    dst.words_mut()[d..d + avail].copy_from_slice(&src.words()[s..s + avail]);
                }
            }
            for (part, frame) in self.parts.iter().zip(frames.iter()) {
                for &(po, slot) in &part.outputs {
                    if (po as usize) < outputs {
                        let span = slot as usize * per;
                        sink(po as usize, base, &frame.words()[span..span + avail]);
                    }
                }
            }
        }
    }

    /// A copy of this engine with the ANF masks of every patched cell
    /// replaced in whichever partition tape holds it — structure
    /// (assignment, slots, schedule) untouched, bit-identical to a
    /// fresh compile of the patched netlist (the same invariant as
    /// [`BitSliceEvaluator::patched`](crate::BitSliceEvaluator::patched)).
    ///
    /// # Errors
    ///
    /// [`NetlistError::InvalidNode`] if a patched id has no instruction
    /// in any partition — out of range, or a primary input.
    pub fn patched(&self, patches: &PatchSet) -> Result<PartitionedEngine, NetlistError> {
        let mut index = vec![(NONE, NONE); self.num_cells];
        for (p, part) in self.parts.iter().enumerate() {
            for (pos, &cell) in part.cells.iter().enumerate() {
                index[cell as usize] = (p as u32, pos as u32);
            }
        }
        let mut out = self.clone();
        for (id, op) in patches.iter() {
            let (p, pos) = match index.get(id.index()) {
                Some(&(p, pos)) if p != NONE => (p as usize, pos as usize),
                _ => return Err(NetlistError::InvalidNode { id }),
            };
            out.parts[p].tape.set_masks(pos, op.anf_masks());
        }
        Ok(out)
    }

    /// A level's copies are an unordered set of moves: their
    /// destinations are pairwise distinct and disjoint from every source
    /// of that level, so no execution order can change what a copy reads.
    fn check_exchange_disjoint(&self) -> Result<(), String> {
        for (l, copies) in self.schedule.levels.iter().enumerate() {
            let sources: std::collections::HashSet<(u32, u32)> =
                copies.iter().map(|c| (c.src_part, c.src_slot)).collect();
            let mut dests = std::collections::HashSet::with_capacity(copies.len());
            for c in copies {
                let dst = (c.dst_part, c.dst_slot);
                if sources.contains(&dst) {
                    return Err(format!(
                        "level-{l} exchange writes partition {} slot {}, which another copy \
                         of the level still reads",
                        c.dst_part, c.dst_slot
                    ));
                }
                if !dests.insert(dst) {
                    return Err(format!(
                        "level-{l} exchange has two copies that share the destination \
                         partition {} slot {}",
                        c.dst_part, c.dst_slot
                    ));
                }
            }
        }
        Ok(())
    }

    /// Model-based checker for the exchange schedule, independent of
    /// the scheduler's own bookkeeping: replays every partition tape
    /// and exchange copy **symbolically** (slots hold netlist node ids,
    /// not words) and verifies that
    ///
    /// * every instruction reads exactly its fanins' values — which
    ///   fails if a cross-partition net was not transferred before its
    ///   first use, or if a live slot was overwritten (the stale reader
    ///   sees the wrong symbol),
    /// * every copy reads a defined value,
    /// * a level's copies are an unordered set of moves: no
    ///   `(partition, slot)` is both a copy source and a copy destination
    ///   and no two copies share a destination — the symbolic replay
    ///   below runs copies in schedule order and cannot see a schedule
    ///   that only works in that order,
    /// * every primary output's slot still holds its node's value after
    ///   the last level,
    /// * the tapes cover every executable node exactly once, in level
    ///   order.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self, netlist: &Netlist) -> Result<(), String> {
        let n = netlist.len();
        if n != self.num_cells {
            return Err(format!(
                "engine compiled from {} cells, netlist has {n}",
                self.num_cells
            ));
        }
        self.check_exchange_disjoint()?;
        let level = node_levels(netlist);
        let mut seen = vec![false; n];
        let mut frames: Vec<Vec<Option<u32>>> = self
            .parts
            .iter()
            .map(|p| vec![None; p.tape.bound()])
            .collect();
        for (p, part) in self.parts.iter().enumerate() {
            if part.seg_ends.len() != self.schedule.levels.len() {
                return Err(format!(
                    "partition {p} has {} level segments but the schedule has {}",
                    part.seg_ends.len(),
                    self.schedule.levels.len()
                ));
            }
            for &(pi, slot) in &part.inputs {
                let node = *netlist
                    .inputs()
                    .get(pi as usize)
                    .ok_or(format!("partition {p} loads unknown input {pi}"))?;
                *frames[p]
                    .get_mut(slot as usize)
                    .ok_or(format!("partition {p} input slot {slot} out of range"))? =
                    Some(node.index() as u32);
            }
        }
        let mut seg_starts = vec![0usize; self.parts.len()];
        for (l, copies) in self.schedule.levels.iter().enumerate() {
            for (p, part) in self.parts.iter().enumerate() {
                let end = part.seg_ends[l] as usize;
                if end < seg_starts[p] || end > part.tape.instrs().len() {
                    return Err(format!("partition {p} segment ends not monotone"));
                }
                for pos in seg_starts[p]..end {
                    let instr = &part.tape.instrs()[pos];
                    let y = part.cells[pos] as usize;
                    if y >= n || netlist.node(NodeId::new(y as u32)).op() == Op::Input {
                        return Err(format!("partition {p} instruction {pos} has no cell"));
                    }
                    if std::mem::replace(&mut seen[y], true) {
                        return Err(format!("cell {y} computed twice"));
                    }
                    if level[y] as usize != l {
                        return Err(format!("cell {y} scheduled at level {l}"));
                    }
                    let fan = netlist.node(NodeId::new(y as u32)).fanins();
                    let ops = match fan.len() {
                        0 => vec![],
                        1 => vec![(instr.a, fan[0])],
                        _ => vec![(instr.a, fan[0]), (instr.b, fan[1])],
                    };
                    for (slot, f) in ops {
                        let got = *frames[p]
                            .get(slot as usize)
                            .ok_or(format!("partition {p} slot {slot} out of range"))?;
                        if got != Some(f.index() as u32) {
                            return Err(format!(
                                "cell {y} in partition {p} reads slot {slot} expecting cell {}, \
                                 found {got:?} — transferred too late or overwritten while live",
                                f.index()
                            ));
                        }
                    }
                    let out = *part
                        .tape
                        .instrs()
                        .get(pos)
                        .map(|i| &i.out)
                        .ok_or("tape bounds".to_string())?;
                    *frames[p]
                        .get_mut(out as usize)
                        .ok_or(format!("partition {p} out slot {out} out of range"))? =
                        Some(y as u32);
                }
                seg_starts[p] = end;
            }
            for c in copies {
                let v = *frames
                    .get(c.src_part as usize)
                    .and_then(|f| f.get(c.src_slot as usize))
                    .ok_or("copy source out of range".to_string())?;
                let Some(v) = v else {
                    return Err(format!(
                        "level-{l} copy from partition {} slot {} reads an undefined value",
                        c.src_part, c.src_slot
                    ));
                };
                *frames
                    .get_mut(c.dst_part as usize)
                    .and_then(|f| f.get_mut(c.dst_slot as usize))
                    .ok_or("copy destination out of range".to_string())? = Some(v);
            }
        }
        for (id, node) in netlist.iter() {
            if node.op() != Op::Input && !seen[id.index()] {
                return Err(format!("cell {} never computed", id.index()));
            }
        }
        for (po, o) in netlist.outputs().iter().enumerate() {
            let owner = self
                .parts
                .iter()
                .enumerate()
                .find_map(|(p, part)| {
                    part.outputs
                        .iter()
                        .find(|&&(idx, _)| idx as usize == po)
                        .map(|&(_, slot)| (p, slot))
                })
                .ok_or(format!("output {po} owned by no partition"))?;
            let got = frames[owner.0][owner.1 as usize];
            if got != Some(o.node.index() as u32) {
                return Err(format!(
                    "output {po} slot holds {got:?}, expected cell {} — overwritten while live",
                    o.node.index()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::random::RandomDag;

    fn test_inputs(nl: &Netlist, lanes: usize, seed: u64) -> Vec<Lanes> {
        (0..nl.inputs().len())
            .map(|i| {
                let bits: Vec<bool> = (0..lanes)
                    .map(|l| (seed as usize + i * 31 + l * 7).is_multiple_of(3))
                    .collect();
                Lanes::from_bools(&bits)
            })
            .collect()
    }

    /// Adversarial assignment: a deterministic pseudo-random node →
    /// partition map, so nearly every net is cut.
    fn scattered_assignment(nl: &Netlist, parts: usize, seed: u64) -> PartitionAssignment {
        let mut x = 0x9e3779b97f4a7c15u64 ^ seed;
        let of = (0..nl.len())
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % parts as u64) as u32
            })
            .collect();
        PartitionAssignment::from_map(parts, of).unwrap()
    }

    /// The partitioned engine is bit-identical to the word-parallel
    /// oracle at every partition count × frame width, ragged tails and
    /// empty batches included.
    #[test]
    fn partitioned_matches_oracle_across_counts_and_widths() {
        for seed in 0..3 {
            let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(seed);
            for parts in [1usize, 2, 3, 8, MAX_PARTITIONS] {
                let engine = PartitionedEngine::compile(&nl, parts).unwrap();
                for words in [1usize, 4, 16] {
                    let mut frames = engine.frames_with_words(words);
                    for lanes in [0usize, 1, 63, 64 * words, 64 * words + 1, 517] {
                        let inputs = test_inputs(&nl, lanes, seed);
                        let want = evaluate(&nl, &inputs).unwrap();
                        let got = engine.evaluate_with(&inputs, lanes, &mut frames).unwrap();
                        assert_eq!(
                            got, want,
                            "seed {seed} parts {parts} words {words} lanes {lanes}"
                        );
                    }
                }
            }
        }
    }

    /// Occupied-word replay and exchange: one set of frames serves
    /// batches that alternately grow and shrink through every lane count
    /// up to a block plus a ragged second one, so a small batch runs
    /// over a bigger one's leftovers — which must never surface, in an
    /// output or across the exchange. The packed sink sees exactly the
    /// leading columns, whichever partition owns them.
    #[test]
    fn partial_blocks_replay_and_exchange_only_occupied_words() {
        let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(1);
        let engine = PartitionedEngine::compile(&nl, 3).unwrap();
        for words in [1usize, 4, 16] {
            let mut frames = engine.frames_with_words(words);
            let max = words * 64 + 65;
            for step in 0..max {
                for lanes in [1 + step, max - step] {
                    let inputs = test_inputs(&nl, lanes, lanes as u64);
                    let want = evaluate(&nl, &inputs).unwrap();
                    let got = engine.evaluate_with(&inputs, lanes, &mut frames).unwrap();
                    assert_eq!(got, want, "words {words} lanes {lanes}");
                }
            }
            let (lanes, keep) = (max, 2);
            let stride = lanes.div_ceil(64);
            let inputs = test_inputs(&nl, lanes, 9);
            let want = evaluate(&nl, &inputs).unwrap();
            let mut packed = vec![0u64; keep * stride];
            engine.eval_blocks(
                lanes,
                &mut frames,
                |i| inputs[i].words(),
                keep,
                |o, base, w| packed[o * stride + base..][..w.len()].copy_from_slice(w),
            );
            for (o, col) in want.iter().enumerate().take(keep) {
                let got = Lanes::from_words(packed[o * stride..][..stride].to_vec(), lanes);
                assert_eq!(&got, col, "words {words} kept column {o}");
            }
        }
    }

    /// The symbolic model checker accepts every schedule this compiler
    /// emits — contiguous and adversarial assignments — and compilation
    /// is deterministic.
    #[test]
    fn schedules_validate_and_compile_deterministically() {
        for seed in 0..4 {
            let nl = RandomDag::loose(6, 5, 9).outputs(3).generate(seed + 20);
            for parts in [1usize, 2, 3, 8, MAX_PARTITIONS] {
                let a = PartitionedEngine::compile(&nl, parts).unwrap();
                a.validate(&nl).unwrap();
                let b = PartitionedEngine::compile(&nl, parts).unwrap();
                assert_eq!(a, b, "seed {seed} parts {parts} not deterministic");
            }
            let assignment = scattered_assignment(&nl, 4, seed);
            let engine = PartitionedEngine::compile_with(&nl, &assignment, SimdMode::Auto).unwrap();
            engine.validate(&nl).unwrap();
            let inputs = test_inputs(&nl, 130, seed);
            let want = evaluate(&nl, &inputs).unwrap();
            let got = engine.evaluate(&inputs).unwrap();
            assert_eq!(got, want, "adversarial seed {seed}");
        }
    }

    /// A level's copies stay an unordered set of moves — destinations
    /// pairwise distinct and disjoint from sources — under assignments
    /// that cut nearly every net and recycle slots as hard as possible,
    /// and `validate` trips on either violation (which replaying the
    /// copies in schedule order cannot see).
    #[test]
    fn exchange_copies_stay_disjoint_under_adversarial_assignments() {
        let nl = RandomDag::loose(8, 6, 12).outputs(4).generate(5);
        let mut engines = Vec::new();
        for parts in [2usize, 3, 5, 8] {
            // Round-robin by arena index: most fanin edges cross.
            let striped = (0..nl.len()).map(|i| (i % parts) as u32).collect();
            let mut maps = vec![PartitionAssignment::from_map(parts, striped).unwrap()];
            maps.extend((0..4).map(|seed| scattered_assignment(&nl, parts, seed)));
            for assignment in &maps {
                let engine =
                    PartitionedEngine::compile_with(&nl, assignment, SimdMode::Auto).unwrap();
                engine.validate(&nl).unwrap();
                engines.push(engine);
            }
        }
        let engine = engines
            .into_iter()
            .find(|e| e.schedule.levels.iter().any(|c| c.len() >= 2))
            .expect("an adversarial assignment cuts two nets at one level");
        let l = engine
            .schedule
            .levels
            .iter()
            .position(|c| c.len() >= 2)
            .unwrap();

        let mut shared_dst = engine.clone();
        let first = shared_dst.schedule.levels[l][0];
        shared_dst.schedule.levels[l][1].dst_part = first.dst_part;
        shared_dst.schedule.levels[l][1].dst_slot = first.dst_slot;
        let err = shared_dst.validate(&nl).unwrap_err();
        assert!(err.contains("share the destination"), "{err}");

        let mut dst_is_src = engine.clone();
        let second = dst_is_src.schedule.levels[l][1];
        dst_is_src.schedule.levels[l][0].dst_part = second.src_part;
        dst_is_src.schedule.levels[l][0].dst_slot = second.src_slot;
        let err = dst_is_src.validate(&nl).unwrap_err();
        assert!(err.contains("still reads"), "{err}");
    }

    /// Patching a partitioned engine equals a fresh compile of the
    /// patched netlist — exactly, not just observationally, because
    /// partitioning is purely structural.
    #[test]
    fn patched_equals_fresh_compile_of_patched_netlist() {
        let nl = RandomDag::loose(6, 4, 8).outputs(3).generate(7);
        let mut patches = PatchSet::new();
        for (id, node) in nl.iter() {
            if let Some(neg) = node.op().negated() {
                patches.set(id, neg);
                if patches.len() == 3 {
                    break;
                }
            }
        }
        assert!(!patches.is_empty());
        let mut patched_nl = nl.clone();
        patched_nl.apply_patches(&patches).unwrap();
        for parts in [2usize, 5] {
            let engine = PartitionedEngine::compile(&nl, parts).unwrap();
            let fresh = PartitionedEngine::compile(&patched_nl, parts).unwrap();
            assert_eq!(engine.patched(&patches).unwrap(), fresh);
        }
        // Unknown cells are typed errors.
        let mut bad = PatchSet::new();
        bad.set(NodeId::new(nl.len() as u32), Op::And);
        assert!(matches!(
            PartitionedEngine::compile(&nl, 2).unwrap().patched(&bad),
            Err(NetlistError::InvalidNode { .. })
        ));
    }

    /// Invalid partition counts and malformed assignments are typed
    /// errors at the compile boundary.
    #[test]
    fn invalid_partitioning_is_rejected() {
        let nl = RandomDag::strict(4, 3, 5).outputs(2).generate(1);
        assert!(matches!(
            PartitionedEngine::compile(&nl, 0),
            Err(NetlistError::Malformed { .. })
        ));
        assert!(matches!(
            PartitionedEngine::compile(&nl, MAX_PARTITIONS + 1),
            Err(NetlistError::Malformed { .. })
        ));
        assert!(matches!(
            PartitionAssignment::from_map(2, vec![0, 1, 2]),
            Err(NetlistError::Malformed { .. })
        ));
        // Assignment sized for a different netlist.
        let short = PartitionAssignment::from_map(2, vec![0; 1]).unwrap();
        assert!(matches!(
            PartitionedEngine::compile_with(&nl, &short, SimdMode::Auto),
            Err(NetlistError::Malformed { .. })
        ));
        assert!(matches!(
            engine_arity_err(&nl),
            Err(NetlistError::InputArity { .. })
        ));
    }

    fn engine_arity_err(nl: &Netlist) -> Result<Vec<Lanes>, NetlistError> {
        PartitionedEngine::compile(nl, 2)?.evaluate(&[])
    }

    /// Inputs that double as primary outputs and multi-consumer cross
    /// nets route correctly, and the cut stats add up.
    #[test]
    fn stats_and_passthrough_outputs() {
        let mut nl = Netlist::new("pass");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate2(Op::Xor, a, b);
        nl.add_output(a, "a_thru");
        nl.add_output(y, "y");
        let engine = PartitionedEngine::compile(&nl, 2).unwrap();
        engine.validate(&nl).unwrap();
        let inputs = [
            Lanes::from_bools(&[true, false, true]),
            Lanes::from_bools(&[true, true, false]),
        ];
        assert_eq!(
            engine.evaluate(&inputs).unwrap(),
            evaluate(&nl, &inputs).unwrap()
        );
        let stats = engine.partition_stats();
        assert_eq!(stats.partitions, 2);
        assert_eq!(stats.tape_len, 1);
        assert_eq!(stats.cut_copies, engine.schedule().num_copies());
        assert_eq!(stats.exchange_words(4), stats.cut_copies * 4);
    }

    /// Narrow tiles are reached only through partial blocks: every
    /// occupied-word count 1..=16 of 16-word frames — every
    /// largest-first split from `{16, 8, 4, 2, 1}` — replays and
    /// exchanges bit-identically on every SIMD level.
    #[test]
    fn every_occupied_word_count_matches_oracle_on_every_simd_level() {
        let nl = RandomDag::loose(7, 5, 8).outputs(3).generate(2);
        let assignment = PartitionAssignment::contiguous(&nl, 3).unwrap();
        for simd in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Off] {
            let engine = PartitionedEngine::compile_with(&nl, &assignment, simd).unwrap();
            let mut frames = engine.frames_with_words(16);
            for occupied in 1..=16usize {
                for lanes in [64 * occupied - 37, 1024 + 64 * occupied - 37] {
                    let inputs = test_inputs(&nl, lanes, occupied as u64);
                    let want = evaluate(&nl, &inputs).unwrap();
                    let got = engine.evaluate_with(&inputs, lanes, &mut frames).unwrap();
                    assert_eq!(got, want, "simd {simd} lanes {lanes}");
                }
            }
        }
    }
}
