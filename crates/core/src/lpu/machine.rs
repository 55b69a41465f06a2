//! Cycle-accurate, bit-accurate LPU execution.
//!
//! The machine executes an [`LpuProgram`] exactly as the hardware of Fig 2
//! would: per compute cycle, every LPV reads its instruction (selected by
//! the read-address shift register), the multicast switch delivers the
//! previous LPV's results to the requested operand ports (LPV 0 receives
//! LPV `n−1`'s results through the circulation path), arriving values are
//! optionally latched into snapshot registers, and each active LPE
//! computes its two-input operation over all batch lanes.
//!
//! Snapshot discipline is checked, not assumed: writing a port whose
//! snapshot still holds unconsumed data raises
//! [`CoreError::SnapshotClobber`], and reads of empty registers or
//! unrouted ports are detected — so a successful run is also a proof that
//! the schedule's residency reasoning was sound.

use lbnn_netlist::Lanes;

use crate::compiler::program::{InputSlot, LpuProgram, OperandSrc};
use crate::error::CoreError;
use crate::lpu::config::LpuConfig;

/// The LPU machine: executes programs on a given configuration.
#[derive(Debug, Clone)]
pub struct LpuMachine {
    config: LpuConfig,
}

/// Reusable execution state: snapshot registers, the two inter-LPV
/// pipeline buffers, the primary-output buffer, and a free list of lane
/// vectors. [`LpuMachine::run`] allocates one per call;
/// [`crate::engine::EngineScratch`] owns one per worker so steady-state
/// serving stops paying per-pass allocation.
///
/// The scratch is shape-agnostic: [`LpuMachine::run_with_scratch`]
/// reshapes it for whatever program it executes, so one scratch can be
/// reused across machines and programs.
#[derive(Debug, Clone, Default)]
pub struct PassScratch {
    snapshots: Vec<Vec<Option<Lanes>>>,
    prev_out: Vec<Vec<Option<Lanes>>>,
    new_out: Vec<Vec<Option<Lanes>>>,
    outputs: Vec<Option<Lanes>>,
    /// Retired lane vectors, reused for LPE results instead of fresh
    /// allocations.
    spare: Vec<Lanes>,
}

impl PassScratch {
    /// Shapes the buffers for `program` on a machine with `m`/`n`, clearing
    /// stale values into the spare list.
    fn prepare(&mut self, m: usize, n: usize, num_outputs: usize) {
        let clear = |grid: &mut Vec<Vec<Option<Lanes>>>, width: usize, spare: &mut Vec<Lanes>| {
            grid.resize_with(n, Vec::new);
            for row in grid.iter_mut() {
                row.resize_with(width, || None);
                for slot in row.iter_mut() {
                    if let Some(l) = slot.take() {
                        spare.push(l);
                    }
                }
            }
        };
        clear(&mut self.snapshots, 2 * m, &mut self.spare);
        clear(&mut self.prev_out, m, &mut self.spare);
        clear(&mut self.new_out, m, &mut self.spare);
        self.outputs.clear();
        self.outputs.resize_with(num_outputs, || None);
    }
}

/// The result of one program pass.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Primary-output lanes, in netlist output order.
    pub outputs: Vec<Lanes>,
    /// Compute cycles executed.
    pub compute_cycles: usize,
    /// Clock cycles (`compute_cycles × tc`).
    pub clock_cycles: u64,
    /// Total LPE operations performed.
    pub lpe_ops: usize,
    /// Peak number of simultaneously live snapshot registers.
    pub peak_live_snapshots: usize,
}

impl LpuMachine {
    /// Creates a machine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for unusable configurations.
    pub fn new(config: LpuConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(LpuMachine { config })
    }

    /// The machine configuration.
    pub fn config(&self) -> &LpuConfig {
        &self.config
    }

    /// Runs one pass of `program` over the given input lanes
    /// (`inputs[i]` = lanes of primary input `i`).
    ///
    /// Lane count is arbitrary (the hardware processes `2m` lanes per
    /// operand; the simulator generalizes so tests can use any batch).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InputArity`] — wrong number of input lane vectors;
    /// * [`CoreError::SnapshotClobber`] — a snapshot register was
    ///   overwritten while live (indicates a scheduler bug);
    /// * [`CoreError::BadConfig`] — program/machine shape mismatch.
    pub fn run(&self, program: &LpuProgram, inputs: &[Lanes]) -> Result<RunResult, CoreError> {
        let lanes = inputs.first().map_or(1, Lanes::len);
        self.run_with_scratch(program, inputs, lanes, &mut PassScratch::default())
    }

    /// Runs one pass of `lanes` lanes reusing `scratch` buffers (the
    /// [`crate::engine::Engine`] fast path; [`LpuMachine::run`] is this
    /// with throwaway scratch). `lanes` is explicit so a program without
    /// inputs still computes its constants for the whole batch.
    ///
    /// The machine itself is immutable (`&self`): all mutable state lives
    /// in `scratch`, so one machine can execute on many threads, each
    /// owning its own scratch.
    ///
    /// # Errors
    ///
    /// See [`LpuMachine::run`].
    pub fn run_with_scratch(
        &self,
        program: &LpuProgram,
        inputs: &[Lanes],
        lanes: usize,
        scratch: &mut PassScratch,
    ) -> Result<RunResult, CoreError> {
        let m = self.config.m;
        let n = self.config.n;
        if program.m != m || program.n != n {
            return Err(CoreError::BadConfig {
                reason: format!(
                    "program compiled for m={}, n={} but machine has m={m}, n={n}",
                    program.m, program.n
                ),
            });
        }
        if inputs.len() != program.num_inputs {
            return Err(CoreError::InputArity {
                expected: program.num_inputs,
                got: inputs.len(),
            });
        }
        for l in inputs {
            assert_eq!(l.len(), lanes, "inconsistent lane counts");
        }

        // Input data buffer, resolved to lane values.
        let input_data: Vec<&Lanes> = program
            .input_buffer
            .iter()
            .map(|slot| match slot {
                InputSlot::Pi(pi) => &inputs[*pi as usize],
            })
            .collect();

        // Machine state, shaped for this program (no-op when reused on the
        // same shape).
        scratch.prepare(m, n, program.outputs.len());
        let PassScratch {
            snapshots,
            prev_out,
            new_out,
            outputs,
            spare,
        } = scratch;
        let mut lpe_ops = 0usize;
        let mut peak_live = 0usize;

        for cycle in 0..program.total_cycles {
            // Retire the values produced two cycles ago (the buffer about
            // to be overwritten) into the spare list.
            for row in new_out.iter_mut() {
                for slot in row.iter_mut() {
                    if let Some(l) = slot.take() {
                        spare.push(l);
                    }
                }
            }
            let mut routed: Vec<Option<&Lanes>> = vec![None; 2 * m];
            for lpv in 0..n {
                let Some(instr) = program.instr_at(lpv, cycle) else {
                    continue;
                };
                // Circulation: LPV 0's switch is fed by LPV n−1 through
                // the output data buffer (§V-C).
                let src_lpv = if lpv == 0 { n - 1 } else { lpv - 1 };

                // 1. Switch delivery.
                routed.fill(None);
                for (port, src) in instr.route_in.iter().enumerate() {
                    if let Some(src) = src {
                        let v = prev_out[src_lpv][*src as usize].as_ref().ok_or_else(|| {
                            CoreError::BadConfig {
                                reason: format!(
                                    "route at LPV {lpv} cycle {cycle} port {port} reads an \
                                     idle LPE {src} of LPV {src_lpv}"
                                ),
                            }
                        })?;
                        routed[port] = Some(v);
                    }
                }

                // 2. Snapshot latching (with clobber detection).
                for &port in &instr.snapshot_writes {
                    let port = port as usize;
                    if snapshots[lpv][port].is_some() {
                        return Err(CoreError::SnapshotClobber { lpv, port, cycle });
                    }
                    let v = routed[port].ok_or_else(|| CoreError::BadConfig {
                        reason: format!("snapshot write without routed data at port {port}"),
                    })?;
                    snapshots[lpv][port] = Some(v.clone());
                }

                // 3. LPE execution.
                for (lpe, li) in instr.lpes.iter().enumerate() {
                    let Some(li) = li else { continue };
                    let a = fetch(
                        li.a,
                        &routed,
                        &mut snapshots[lpv],
                        &input_data,
                        lanes,
                        lpv,
                        cycle,
                    )?;
                    let b = match li.b {
                        Some(src) => Some(fetch(
                            src,
                            &routed,
                            &mut snapshots[lpv],
                            &input_data,
                            lanes,
                            lpv,
                            cycle,
                        )?),
                        None => None,
                    };
                    // Reuse a retired lane vector; assign_op overwrites
                    // every word, so stale contents are harmless.
                    let mut out = match spare.pop() {
                        Some(l) if l.len() == lanes => l,
                        _ => Lanes::zeros(lanes),
                    };
                    out.assign_op(li.op, &a, b.as_ref());
                    new_out[lpv][lpe] = Some(out);
                    lpe_ops += 1;
                }
            }

            // Output taps read this cycle's freshly produced values.
            for tap in &program.outputs {
                if tap.cycle == cycle {
                    let v =
                        new_out[tap.lpv][tap.lpe]
                            .clone()
                            .ok_or_else(|| CoreError::BadConfig {
                                reason: format!(
                                "output tap for PO {} reads idle LPE {} of LPV {} at cycle {cycle}",
                                tap.po, tap.lpe, tap.lpv
                            ),
                            })?;
                    outputs[tap.po] = Some(v);
                }
            }

            let live: usize = snapshots
                .iter()
                .map(|s| s.iter().filter(|x| x.is_some()).count())
                .sum();
            peak_live = peak_live.max(live);
            std::mem::swap(prev_out, new_out);
        }

        let outputs: Vec<Lanes> = outputs
            .iter_mut()
            .enumerate()
            .map(|(po, v)| {
                v.take().ok_or_else(|| CoreError::BadConfig {
                    reason: format!("primary output {po} was never produced"),
                })
            })
            .collect::<Result<_, _>>()?;

        Ok(RunResult {
            outputs,
            compute_cycles: program.total_cycles,
            clock_cycles: program.total_cycles as u64 * self.config.tc() as u64,
            lpe_ops,
            peak_live_snapshots: peak_live,
        })
    }
}

/// Resolves one operand source. Snapshot reads consume the register.
fn fetch(
    src: OperandSrc,
    routed: &[Option<&Lanes>],
    snapshots: &mut [Option<Lanes>],
    input_data: &[&Lanes],
    lanes: usize,
    lpv: usize,
    cycle: usize,
) -> Result<Lanes, CoreError> {
    match src {
        OperandSrc::Route(port) => {
            routed[port as usize]
                .cloned()
                .ok_or_else(|| CoreError::BadConfig {
                    reason: format!("LPV {lpv} cycle {cycle}: port {port} has no routed value"),
                })
        }
        OperandSrc::Snapshot(port) => {
            snapshots[port as usize]
                .take()
                .ok_or_else(|| CoreError::BadConfig {
                    reason: format!("LPV {lpv} cycle {cycle}: snapshot register {port} is empty"),
                })
        }
        OperandSrc::Input(addr) => Ok(input_data[addr as usize].clone()),
        OperandSrc::Const(v) => Ok(if v {
            Lanes::ones(lanes)
        } else {
            Lanes::zeros(lanes)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::codegen::generate;
    use crate::compiler::partition::{partition, PartitionOptions};
    use crate::compiler::schedule::schedule_spacetime;
    use lbnn_netlist::eval::evaluate;
    use lbnn_netlist::random::RandomDag;
    use lbnn_netlist::{Levels, Netlist};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn run_and_compare(nl: &Netlist, m: usize, n: usize, seed: u64, merge: bool) {
        let lv = Levels::compute(nl);
        let (part, sched) = crate::compiler::testutil::compile_parts(nl, &lv, m, n, merge);
        let config = LpuConfig::new(m, n);
        let prog = generate(nl, &lv, &part, &sched, &config).unwrap();
        let machine = LpuMachine::new(config).unwrap();

        let mut rng = StdRng::seed_from_u64(seed);
        let lanes = 96;
        let inputs: Vec<Lanes> = (0..nl.inputs().len())
            .map(|_| {
                let bits: Vec<bool> = (0..lanes).map(|_| rng.random_bool(0.5)).collect();
                Lanes::from_bools(&bits)
            })
            .collect();

        let result = machine.run(&prog, &inputs).expect("machine runs");
        let expect = evaluate(nl, &inputs).expect("oracle evaluates");
        assert_eq!(result.outputs.len(), expect.len());
        for (got, want) in result.outputs.iter().zip(&expect) {
            assert_eq!(got, want, "LPU output must match direct evaluation");
        }
        assert!(result.lpe_ops > 0);
    }

    #[test]
    fn lpu_matches_oracle_small_graphs() {
        for seed in 0..6 {
            let nl = RandomDag::strict(8, 4, 6).outputs(3).generate(seed);
            run_and_compare(&nl, 4, 4, seed, true);
        }
    }

    #[test]
    fn lpu_matches_oracle_wide_graphs() {
        for seed in 0..4 {
            let nl = RandomDag::strict(32, 6, 24).outputs(6).generate(seed);
            run_and_compare(&nl, 8, 4, seed, true);
        }
    }

    #[test]
    fn lpu_matches_oracle_with_circulation() {
        // Depth 11 on 3 LPVs: wraps three times through the output buffer.
        for seed in 0..3 {
            let nl = RandomDag::strict(8, 11, 4).outputs(2).generate(seed);
            run_and_compare(&nl, 6, 3, seed, true);
        }
    }

    #[test]
    fn lpu_matches_oracle_without_merging() {
        for seed in 0..3 {
            let nl = RandomDag::strict(16, 5, 12).outputs(4).generate(seed);
            run_and_compare(&nl, 6, 4, seed, false);
        }
    }

    #[test]
    fn wrong_input_count_rejected() {
        let nl = RandomDag::strict(8, 3, 4).generate(1);
        let lv = Levels::compute(&nl);
        let part = partition(&nl, &lv, 4, PartitionOptions::default()).unwrap();
        let sched = schedule_spacetime(&part, 4, 4).unwrap();
        let config = LpuConfig::new(4, 4);
        let prog = generate(&nl, &lv, &part, &sched, &config).unwrap();
        let machine = LpuMachine::new(config).unwrap();
        assert!(matches!(
            machine.run(&prog, &[]),
            Err(CoreError::InputArity { .. })
        ));
    }

    #[test]
    fn single_lane_runs() {
        let nl = RandomDag::strict(6, 3, 4).outputs(2).generate(9);
        let lv = Levels::compute(&nl);
        let part = partition(&nl, &lv, 4, PartitionOptions::default()).unwrap();
        let sched = schedule_spacetime(&part, 2, 4).unwrap();
        let config = LpuConfig::new(4, 2);
        let prog = generate(&nl, &lv, &part, &sched, &config).unwrap();
        let machine = LpuMachine::new(config).unwrap();
        let inputs: Vec<Lanes> = (0..6).map(|i| Lanes::from_bools(&[i % 2 == 0])).collect();
        let res = machine.run(&prog, &inputs).unwrap();
        let expect = evaluate(&nl, &inputs).unwrap();
        assert_eq!(res.outputs, expect);
    }
}
