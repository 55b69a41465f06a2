//! The LPU program: instruction queues, buffer layouts and output taps.
//!
//! One [`VliwInstr`] configures an entire LPV for one compute cycle: the
//! operation of each of its `m` LPEs, the multicast switch assignment
//! feeding the LPV's `2m` operand ports, and which arriving ports are
//! latched into snapshot registers for later consumption. Instructions
//! live at `(LPV, address)` in the instruction queues (Fig 6); the
//! read-address shift register makes LPV `k` execute address `c − k` at
//! compute cycle `c`.

use lbnn_netlist::{NodeId, Op};

use crate::compiler::mfg::MfgId;

/// Where an LPE operand comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandSrc {
    /// Delivered by the switch network to this operand port in this cycle
    /// (flow-through from the previous LPV — the most-recent-child path).
    Route(u16),
    /// Read (and release) the snapshot register of this operand port.
    Snapshot(u16),
    /// Read the input data buffer at this address (sequential counter
    /// layout; only bottom-level-1 MFGs use this).
    Input(u32),
    /// A constant operand (tie cell).
    Const(bool),
}

/// One LPE's work for one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LpeInstr {
    /// Boolean operation to perform.
    pub op: Op,
    /// First operand.
    pub a: OperandSrc,
    /// Second operand (two-input operations only).
    pub b: Option<OperandSrc>,
    /// The netlist node computed here (diagnostics / verification).
    pub node: NodeId,
}

/// One LPV's configuration for one compute cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VliwInstr {
    /// Per-LPE operations (`None` = LPE idle this cycle).
    pub lpes: Vec<Option<LpeInstr>>,
    /// Multicast switch assignment feeding this LPV: `route_in[port] =
    /// Some(src)` delivers the previous LPV's LPE `src` output to operand
    /// port `port` (ports `2j`/`2j+1` belong to LPE `j`).
    pub route_in: Vec<Option<u16>>,
    /// Ports whose arriving value is latched into the snapshot register of
    /// the same index (deliveries for a parent MFG executing later).
    pub snapshot_writes: Vec<u16>,
    /// MFG whose level executes here (diagnostics; `None` for pure
    /// delivery/idle slots).
    pub mfg: Option<MfgId>,
}

impl VliwInstr {
    /// An empty (idle) instruction for an LPV with `m` LPEs.
    pub fn empty(m: usize) -> Self {
        VliwInstr {
            lpes: vec![None; m],
            route_in: vec![None; 2 * m],
            snapshot_writes: Vec::new(),
            mfg: None,
        }
    }

    /// `true` if the instruction neither computes nor routes nor latches.
    pub fn is_idle(&self) -> bool {
        self.lpes.iter().all(Option::is_none)
            && self.route_in.iter().all(Option::is_none)
            && self.snapshot_writes.is_empty()
    }

    /// Number of active LPEs.
    pub fn active_lpes(&self) -> usize {
        self.lpes.iter().filter(|l| l.is_some()).count()
    }
}

/// Content of one input-data-buffer address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSlot {
    /// The lanes of primary input `pi` (index into the netlist's input list).
    Pi(u32),
}

/// Where a primary output's lanes appear during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputTap {
    /// Primary-output index.
    pub po: usize,
    /// LPV producing the value.
    pub lpv: usize,
    /// Compute cycle at which the value is produced.
    pub cycle: usize,
    /// LPE holding the value.
    pub lpe: usize,
}

/// A complete compiled program for one LPU configuration.
#[derive(Debug, Clone)]
pub struct LpuProgram {
    /// LPEs per LPV.
    pub m: usize,
    /// LPVs per LPU.
    pub n: usize,
    /// Instruction queue depth (addresses per LPV).
    pub queue_depth: usize,
    /// Total compute cycles of one pass (including output drain).
    pub total_cycles: usize,
    /// `queues[lpv][address]` — the instruction store (Fig 6).
    pub queues: Vec<Vec<Option<VliwInstr>>>,
    /// Input data buffer layout, read sequentially during execution.
    pub input_buffer: Vec<InputSlot>,
    /// Output taps, one per primary output.
    pub outputs: Vec<OutputTap>,
    /// Number of primary inputs the program expects.
    pub num_inputs: usize,
}

impl LpuProgram {
    /// The instruction executing on `lpv` at compute `cycle`, if any.
    pub fn instr_at(&self, lpv: usize, cycle: usize) -> Option<&VliwInstr> {
        if cycle < lpv {
            return None;
        }
        let addr = cycle - lpv;
        self.queues.get(lpv)?.get(addr)?.as_ref()
    }

    /// Total stored (non-empty) instructions.
    pub fn instruction_count(&self) -> usize {
        self.queues
            .iter()
            .flat_map(|q| q.iter())
            .filter(|i| i.is_some())
            .count()
    }

    /// Total LPE operations executed in one pass.
    pub fn lpe_op_count(&self) -> usize {
        self.queues
            .iter()
            .flat_map(|q| q.iter())
            .flatten()
            .map(VliwInstr::active_lpes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_instruction_is_idle() {
        let i = VliwInstr::empty(4);
        assert!(i.is_idle());
        assert_eq!(i.active_lpes(), 0);
        assert_eq!(i.lpes.len(), 4);
        assert_eq!(i.route_in.len(), 8);
    }

    #[test]
    fn program_indexing_respects_shift_register() {
        let m = 2;
        let mut queues = vec![vec![None, None], vec![None, None]];
        queues[1][0] = Some(VliwInstr::empty(m));
        let prog = LpuProgram {
            m,
            n: 2,
            queue_depth: 2,
            total_cycles: 3,
            queues,
            input_buffer: vec![],
            outputs: vec![],
            num_inputs: 0,
        };
        // LPV 1 executes address 0 at cycle 1 (cycle - lpv = 0).
        assert!(prog.instr_at(1, 0).is_none(), "unreachable before fill");
        assert!(prog.instr_at(1, 1).is_some());
        assert!(prog.instr_at(0, 0).is_none(), "nothing stored");
        assert_eq!(prog.instruction_count(), 1);
    }
}
