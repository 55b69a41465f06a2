//! Instruction generation: schedule → per-LPV instruction queues.
//!
//! Walks every scheduled MFG level and emits [`VliwInstr`]s into the
//! instruction queues, wiring three operand paths:
//!
//! * **flow-through** — a non-bottom level reads the previous level's
//!   results straight off the switch (`OperandSrc::Route`), as does a
//!   parent whose *most recent child* finished one cycle earlier;
//! * **snapshot** — other children's results are latched into the bottom
//!   LPV's snapshot registers on arrival (`snapshot_writes` on the
//!   delivery-cycle instruction) and read later (`OperandSrc::Snapshot`);
//! * **input buffer** — bottom-level-1 MFGs read primary inputs from the
//!   input data buffer, laid out in consumption order so a counter
//!   suffices for address generation (§V-B).

use lbnn_netlist::{Levels, Netlist, NodeId, Op};

use crate::compiler::mfg::MfgId;
use crate::compiler::partition::Partition;
use crate::compiler::program::{InputSlot, LpeInstr, LpuProgram, OperandSrc, OutputTap, VliwInstr};
use crate::compiler::schedule::{lpv_of_level, Schedule};
use crate::error::CoreError;
use crate::lpu::LpuConfig;

/// Generates the LPU program for a scheduled partition.
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] if the schedule references ports or
/// addresses outside the machine (indicates an internal inconsistency),
/// and [`CoreError::ResourceConflict`] if two writers claim one switch
/// port (cannot happen for schedules produced by
/// [`crate::compiler::schedule_spacetime`]).
pub fn generate(
    netlist: &Netlist,
    levels: &Levels,
    partition: &Partition,
    schedule: &Schedule,
    config: &LpuConfig,
) -> Result<LpuProgram, CoreError> {
    let m = config.m;
    let n = config.n;
    assert_eq!(n, schedule.num_lpvs, "schedule/config LPV mismatch");

    let mut queues: Vec<Vec<Option<VliwInstr>>> = vec![vec![None; schedule.queue_depth]; n];
    // Pending input-buffer reads: (cycle, lpv, lpe, operand_pos, pi_node).
    let mut pending_inputs: Vec<(usize, usize, usize, usize, NodeId)> = Vec::new();
    // Which ports of each instruction already latch: one bit per port,
    // `latch_words` words per `(lpv, address)`.
    let latch_words = (2 * m).div_ceil(64);
    let mut latched = vec![0u64; n * schedule.queue_depth * latch_words];
    // Position of each node of the level being read in its MFG level.
    let mut pos_in_level = vec![0u32; netlist.len()];

    // Position of a node inside an MFG level (levels are sorted).
    let lpe_of = |id: MfgId, level: u32, node: NodeId| -> usize {
        let mfg = &partition.mfgs[id.index()];
        let nodes = mfg.nodes_at(level);
        let pos = nodes
            .binary_search(&node)
            .expect("node belongs to the MFG level");
        schedule.lpe_index(partition, id, level, pos)
    };

    for idx in 0..partition.mfgs.len() {
        let id = MfgId(idx as u32);
        let mfg = &partition.mfgs[idx];
        for &s in &schedule.executions[idx] {
            for (i, level_nodes) in mfg.levels().iter().enumerate() {
                let level = mfg.bottom() + i as u32;
                let cycle = s + i;
                let lpv = lpv_of_level(level, n);
                let addr = Schedule::address_of(cycle, lpv);
                if addr >= schedule.queue_depth {
                    return Err(CoreError::BadConfig {
                        reason: format!("address {addr} exceeds queue depth"),
                    });
                }
                if i > 0 {
                    for (pos, &node) in mfg.levels()[i - 1].iter().enumerate() {
                        pos_in_level[node.index()] = pos as u32;
                    }
                }

                // Fill the executing instruction.
                for (pos, &node) in level_nodes.iter().enumerate() {
                    let lpe = schedule.lpe_index(partition, id, level, pos);
                    if lpe >= m {
                        return Err(CoreError::LevelTooWide {
                            level,
                            width: level_nodes.len(),
                            m,
                        });
                    }
                    let op = netlist.node(node).op();
                    debug_assert!(op.is_executable(), "PIs never appear inside an MFG");
                    let mut srcs = [OperandSrc::Const(false); 2];
                    let fanins = netlist.node(node).fanins();
                    for (k, &fanin) in fanins.iter().enumerate() {
                        let port = (2 * lpe + k) as u16;
                        srcs[k] = if level > mfg.bottom() {
                            // Internal edge: previous level of the same MFG,
                            // flow-through via the switch.
                            let prev = pos_in_level[fanin.index()] as usize;
                            debug_assert_eq!(mfg.levels()[i - 1].get(prev), Some(&fanin));
                            let src_lpe = schedule.lpe_index(partition, id, level - 1, prev) as u16;
                            set_route(&mut queues, m, lpv, addr, port, src_lpe, Some(id))?;
                            OperandSrc::Route(port)
                        } else {
                            match levels.level(fanin) {
                                0 => match netlist.node(fanin).op() {
                                    Op::Const0 => OperandSrc::Const(false),
                                    Op::Const1 => OperandSrc::Const(true),
                                    _ => {
                                        // Primary input via the data buffer;
                                        // the address is assigned afterwards
                                        // in consumption order.
                                        pending_inputs.push((cycle, lpv, lpe, k, fanin));
                                        OperandSrc::Input(u32::MAX) // patched below
                                    }
                                },
                                _ => {
                                    let child = *partition
                                        .producer_of
                                        .get(&(id, fanin))
                                        .expect("non-PI inputs have a producing MFG");
                                    let child_mfg = &partition.mfgs[child.index()];
                                    let delivery = *schedule
                                        .delivery
                                        .get(&(id, child))
                                        .expect("scheduled edge has a delivery");
                                    let src_lpe = lpe_of(child, child_mfg.top(), fanin) as u16;
                                    if delivery == s {
                                        // Most recent child: flow-through.
                                        set_route(
                                            &mut queues,
                                            m,
                                            lpv,
                                            addr,
                                            port,
                                            src_lpe,
                                            Some(id),
                                        )?;
                                        OperandSrc::Route(port)
                                    } else {
                                        // Earlier child: latched on arrival.
                                        debug_assert!(
                                            delivery < s,
                                            "children deliver before parents start"
                                        );
                                        let d_addr = Schedule::address_of(delivery, lpv);
                                        set_route(
                                            &mut queues,
                                            m,
                                            lpv,
                                            d_addr,
                                            port,
                                            src_lpe,
                                            None,
                                        )?;
                                        let bit = (lpv * schedule.queue_depth + d_addr)
                                            * latch_words
                                            * 64
                                            + usize::from(port);
                                        let word = &mut latched[bit / 64];
                                        if *word & (1 << (bit % 64)) == 0 {
                                            *word |= 1 << (bit % 64);
                                            queues[lpv][d_addr]
                                                .as_mut()
                                                .expect("created by set_route")
                                                .snapshot_writes
                                                .push(port);
                                        }
                                        OperandSrc::Snapshot(port)
                                    }
                                }
                            }
                        };
                    }
                    let instr = instr_mut(&mut queues, m, lpv, addr);
                    instr.mfg = Some(id);
                    debug_assert!(instr.lpes[lpe].is_none(), "one node per LPE per cycle");
                    instr.lpes[lpe] = Some(LpeInstr {
                        op,
                        a: srcs[0],
                        b: (fanins.len() > 1).then_some(srcs[1]),
                        node,
                    });
                }
            }
        }
    }

    // Input buffer layout: strictly in consumption order so the hardware's
    // read counter visits addresses 0, 1, 2, …
    pending_inputs.sort_unstable_by_key(|&(cycle, lpv, lpe, k, _)| (cycle, lpv, lpe, k));
    let mut pi_index = vec![u32::MAX; netlist.len()];
    for (i, &pi) in netlist.inputs().iter().enumerate() {
        pi_index[pi.index()] = i as u32;
    }
    let mut input_buffer: Vec<InputSlot> = Vec::with_capacity(pending_inputs.len());
    for (read_addr, &(cycle, lpv, lpe, k, node)) in pending_inputs.iter().enumerate() {
        let addr = Schedule::address_of(cycle, lpv);
        let instr = queues[lpv][addr].as_mut().expect("instruction exists");
        let lpe_instr = instr.lpes[lpe].as_mut().expect("LPE instruction exists");
        let slot = if k == 0 {
            &mut lpe_instr.a
        } else {
            lpe_instr.b.as_mut().expect("second operand exists")
        };
        debug_assert_eq!(*slot, OperandSrc::Input(u32::MAX));
        *slot = OperandSrc::Input(read_addr as u32);
        let pi = pi_index[node.index()];
        assert_ne!(pi, u32::MAX, "fanin is a primary input");
        input_buffer.push(InputSlot::Pi(pi));
    }

    // Output taps.
    let mut outputs = Vec::with_capacity(netlist.outputs().len());
    for (po, out) in netlist.outputs().iter().enumerate() {
        let producer = *partition
            .po_producer
            .get(&out.node)
            .expect("every PO root has a producing MFG");
        let mfg = &partition.mfgs[producer.index()];
        let top = mfg.top();
        let start = schedule.primary_start(producer);
        outputs.push(OutputTap {
            po,
            lpv: lpv_of_level(top, n),
            cycle: schedule.cycle_of_exec(partition, producer, start, top),
            lpe: lpe_of(producer, top, out.node),
        });
    }

    // The last cycle is one past the last execution (`address + lpv`),
    // plus one drain cycle: `decode_program` rejects any image declaring
    // more than this.
    assert!(
        schedule.total_cycles <= n + schedule.queue_depth,
        "a pass of {} cycles outlasts n + queue depth = {}",
        schedule.total_cycles,
        n + schedule.queue_depth
    );
    Ok(LpuProgram {
        m,
        n,
        queue_depth: schedule.queue_depth,
        total_cycles: schedule.total_cycles,
        queues,
        input_buffer,
        outputs,
        num_inputs: netlist.inputs().len(),
    })
}

fn instr_mut(
    queues: &mut [Vec<Option<VliwInstr>>],
    m: usize,
    lpv: usize,
    addr: usize,
) -> &mut VliwInstr {
    queues[lpv][addr].get_or_insert_with(|| VliwInstr::empty(m))
}

/// Sets a switch-port route, rejecting contradictory double-writes.
fn set_route(
    queues: &mut [Vec<Option<VliwInstr>>],
    m: usize,
    lpv: usize,
    addr: usize,
    port: u16,
    src: u16,
    mfg: Option<MfgId>,
) -> Result<(), CoreError> {
    let instr = instr_mut(queues, m, lpv, addr);
    match instr.route_in[port as usize] {
        Some(existing) if existing != src => Err(CoreError::ResourceConflict {
            lpv,
            cycle: addr + lpv,
        }),
        _ => {
            instr.route_in[port as usize] = Some(src);
            if instr.mfg.is_none() {
                instr.mfg = mfg;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_netlist::random::RandomDag;

    fn compile(seed: u64, m: usize, n: usize) -> (Netlist, LpuProgram) {
        let nl = RandomDag::strict(2 * m, 8, 2 * m).outputs(4).generate(seed);
        let lv = Levels::compute(&nl);
        let (part, sched) = crate::compiler::testutil::compile_parts(&nl, &lv, m, n, true);
        let config = LpuConfig::new(m, n);
        let prog = generate(&nl, &lv, &part, &sched, &config).unwrap();
        (nl, prog)
    }

    #[test]
    fn program_structure_is_consistent() {
        let (nl, prog) = compile(1, 8, 4);
        assert_eq!(prog.outputs.len(), nl.outputs().len());
        assert_eq!(prog.num_inputs, nl.inputs().len());
        assert!(prog.queue_depth >= 1);
        assert!(prog.instruction_count() >= 1);
        // Every LPE op count matches total executed nodes across MFGs.
        assert!(prog.lpe_op_count() > 0);
        // Output taps are inside the schedule.
        for tap in &prog.outputs {
            assert!(tap.cycle < prog.total_cycles);
            assert!(tap.lpv < prog.n);
            assert!(tap.lpe < prog.m);
        }
    }

    #[test]
    fn input_buffer_reads_are_sequential() {
        let (_, prog) = compile(2, 8, 4);
        // Walk execution order and collect Input addresses: they must be
        // 0, 1, 2, … (the paper's counter-based addressing).
        let mut expected = 0u32;
        for cycle in 0..prog.total_cycles {
            for lpv in 0..prog.n {
                if let Some(instr) = prog.instr_at(lpv, cycle) {
                    for lpe in instr.lpes.iter().flatten() {
                        for src in [Some(lpe.a), lpe.b].into_iter().flatten() {
                            if let OperandSrc::Input(addr) = src {
                                assert_eq!(addr, expected, "sequential counter reads");
                                expected += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(expected as usize, prog.input_buffer.len());
    }

    #[test]
    fn snapshot_writes_have_routes() {
        let (_, prog) = compile(3, 6, 3);
        for q in &prog.queues {
            for instr in q.iter().flatten() {
                for &port in &instr.snapshot_writes {
                    assert!(
                        instr.route_in[port as usize].is_some(),
                        "a latched port must be fed by the switch"
                    );
                }
            }
        }
    }
}
