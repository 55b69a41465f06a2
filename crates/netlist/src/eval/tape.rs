//! The compile side: the tape-locality pass that turns a netlist into a
//! kernel [`Tape`], the fold tables patching recomposes masks through,
//! and what the pass reports ([`TapeStats`]).

#[cfg(doc)]
use super::evaluate;
use super::{BitSliceEvaluator, SimdLevel, SimdMode, SliceInstr, Tape};
use crate::cell::Op;
use crate::error::NetlistError;
use crate::netlist::{Netlist, Node, NodeId};
use crate::patch::PatchSet;

/// Compile-time sentinel: the value is fed through the chain
/// accumulator, not a net slot of its own. Only used while building the
/// tape — emission resolves it to the dedicated accumulator slot (the
/// last slot of the frame), so the hot kernel never branches on it. An
/// emitted instruction whose `out` is the accumulator slot is a fused
/// chain interior — its result is consumed by the next instruction on
/// the tape and its slot line stays cache-hot.
const REG: u32 = u32::MAX;

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
pub(super) struct Folds {
    /// Every folded cell, in arena order (sorted by `cell`; a cell's
    /// `up` precedes it).
    cells: Vec<FoldedCell>,
    /// Every instruction reading through one, in tape order.
    reads: Vec<FoldedRead>,
}

impl Folds {
    /// Writes each folded read's composed masks into `tape`: its own
    /// cell's masks with each folded operand path substituted in.
    fn compose(&self, tape: &mut Tape) {
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
            tape.set_masks(read.instr as usize, k);
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
    /// [`SliceFrame`](super::SliceFrame) adds one dedicated accumulator scratch slot on
    /// top (slot index `frame_slots`).
    pub frame_slots: usize,
    /// The SIMD dispatch level tiles execute with — the requested
    /// [`SimdMode`] resolved against runtime CPU-feature detection.
    pub simd: SimdLevel,
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
    pub(super) fn compile_for(netlist: &Netlist, simd: SimdMode, reads: usize) -> Self {
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
        let fused_instrs = tape.iter().filter(|i| i.out == acc_slot).count();
        // The allocated frame = live data slots + the accumulator
        // scratch slot.
        let mut tape = Tape::new(tape, frame_slots + 1);
        folds.compose(&mut tape);

        let stats = TapeStats {
            tape_len: tape.instrs().len(),
            prefix_len,
            folded_cells: folds.cells.len(),
            fused_chains,
            fused_instrs,
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
                Some(&p) if p != u32::MAX => out.tape.set_masks(p as usize, op.anf_masks()),
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
}
