//! The compile path as an explicit pass pipeline.
//!
//! `run` drives the paper's Fig 1 flow as a sequence of named passes —
//! `optimize → balance → levelize → partition → merge → schedule →
//! codegen`, plus one kernel pass for bit-sliced backends: `locality`
//! compiles the fused, slot-renumbered kernel tape
//! ([`lbnn_netlist::BitSliceEvaluator`]) and records how far the live
//! frame shrank, or — with `partitions > 1` — `exchange` compiles the
//! per-partition tapes and their exchange schedule
//! ([`lbnn_netlist::PartitionedEngine`]) instead. A `CompileContext` is
//! threaded through them. Every pass
//! reports its wall time and a before/after statistic into the
//! [`CompileReport`] attached to the resulting
//! [`crate::flow::Flow`], so per-stage compile cost is visible at
//! every surface (`lbnnc`, `CompiledModel` layers, the repo
//! benchmark's `core.compiler.*_us`) instead of being buried in one
//! monolithic compile call.
//!
//! The schedule pass keeps the shared-children-then-duplicate fallback:
//! if snapshot-residency packing fails, the partition/merge/schedule
//! passes re-run with duplicated fan-in cones (the paper's condition (3)
//! overlap) and the report keeps the timings of the successful attempt,
//! with [`CompileReport::schedule_attempts`] recording the retry.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use lbnn_logic_synth::{optimize, OptimizeOptions};
use lbnn_netlist::balance::balance;
use lbnn_netlist::{BitSliceEvaluator, Levels, Netlist, Op, PartitionedEngine, MAX_PARTITIONS};

use crate::compiler::codegen::generate;
use crate::compiler::merge::{merge_mfgs, MergeStats};
use crate::compiler::partition::partition;
use crate::compiler::schedule::schedule_spacetime;
use crate::engine::Backend;
use crate::error::CoreError;
use crate::flow::{CompileArtifacts, Flow, FlowOptions, FlowStats};
use crate::lpu::LpuConfig;

/// One pass's entry in a [`CompileReport`]: what ran, how long it took,
/// and what it did to its headline statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Pass name (`optimize`, `balance`, `levelize`, `partition`,
    /// `merge`, `schedule`, `codegen`).
    pub name: String,
    /// What [`before`](PassReport::before)/[`after`](PassReport::after)
    /// count (`gates`, `depth`, `mfgs`, `cycles`, `instrs`).
    pub stat: String,
    /// Wall time of the pass in microseconds.
    pub wall_us: f64,
    /// Statistic value entering the pass (equals
    /// [`after`](PassReport::after) for passes that only produce).
    pub before: usize,
    /// Statistic value leaving the pass.
    pub after: usize,
}

impl PassReport {
    /// Signed change of the statistic across the pass.
    pub fn delta(&self) -> isize {
        self.after as isize - self.before as isize
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} {:>10.1} us   {}",
            self.name, self.wall_us, self.stat
        )?;
        if self.before == self.after {
            write!(f, " {}", self.after)
        } else {
            write!(f, " {} -> {}", self.before, self.after)
        }
    }
}

/// Per-pass wall times and stat deltas of one compilation, in pass
/// order. Attached to every [`Flow`] and serialized into artifacts, so
/// a loaded flow still knows what its compile cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompileReport {
    /// One entry per executed pass, in execution order.
    pub passes: Vec<PassReport>,
    /// Partition/merge/schedule attempts: 1 normally, 2 when the
    /// duplicate-children fallback re-partitioned.
    pub schedule_attempts: usize,
}

impl CompileReport {
    /// Total wall time across all recorded passes, in microseconds.
    pub fn total_us(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_us).sum()
    }

    /// The entry for a pass, by name.
    pub fn pass(&self, name: &str) -> Option<&PassReport> {
        self.passes.iter().find(|p| p.name == name)
    }

    /// `true` when no passes were recorded (e.g. a report deserialized
    /// from a pre-report artifact).
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }
}

impl fmt::Display for CompileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for pass in &self.passes {
            writeln!(f, "{pass}")?;
        }
        write!(f, "total     {:>10.1} us", self.total_us())?;
        if self.schedule_attempts > 1 {
            write!(
                f,
                "   ({} schedule attempts; duplicated children)",
                self.schedule_attempts
            )?;
        }
        Ok(())
    }
}

/// The state threaded through the passes: the working netlist and every
/// intermediate artifact produced so far, plus the growing report.
///
/// Passes consume and populate fields in order; [`run`] owns the
/// sequencing (and the schedule-fallback control flow), each pass only
/// its own transformation.
struct CompileContext {
    config: LpuConfig,
    options: FlowOptions,
    source: Netlist,
    report: CompileReport,
}

impl CompileContext {
    /// Times `f`, recording a [`PassReport`] with the given name and
    /// statistic. `before` of `None` means the pass produces its
    /// statistic rather than transforming it.
    fn pass<T>(
        &mut self,
        name: &'static str,
        stat: &'static str,
        before: Option<usize>,
        f: impl FnOnce() -> Result<(T, usize), CoreError>,
    ) -> Result<T, CoreError> {
        let start = Instant::now();
        let (value, after) = f()?;
        self.report.passes.push(PassReport {
            name: name.to_string(),
            stat: stat.to_string(),
            wall_us: start.elapsed().as_secs_f64() * 1e6,
            before: before.unwrap_or(after),
            after,
        });
        Ok(value)
    }
}

/// Runs the full pass pipeline — the engine behind
/// [`FlowBuilder::compile`](crate::flow::FlowBuilder::compile), which
/// reads every output, and behind a model's layers, whose `locality`
/// tape puts the read cone of outputs `..reads` first
/// ([`BitSliceEvaluator::compile_reading`]).
///
/// Clone accounting: `source` keeps the caller's netlist as the
/// verification oracle (one clone). With optimization on, the optimizer
/// produces the working copy; with it off, one further clone is the
/// working copy. [`buffer_level0_outputs`] and the balancer then own
/// their input and never copy an already-correct netlist.
///
/// # Errors
///
/// Propagates configuration, netlist, partitioning and scheduling
/// errors; see [`CoreError`].
pub(crate) fn run(
    netlist: &Netlist,
    config: LpuConfig,
    options: FlowOptions,
    reads: usize,
) -> Result<Flow, CoreError> {
    config.validate()?;
    options.backend.validate()?;
    if options.partitions == 0 || options.partitions > MAX_PARTITIONS {
        return Err(CoreError::BadConfig {
            reason: format!(
                "partitions must be 1..={MAX_PARTITIONS}, got {}",
                options.partitions
            ),
        });
    }
    netlist.validate()?;
    let mut cx = CompileContext {
        config,
        options,
        source: netlist.clone(),
        report: CompileReport::default(),
    };
    // Copies of the Copy-able knobs, so pass closures can read them while
    // `cx` is mutably borrowed for report recording.
    let config = cx.config;
    let options = cx.options;

    // 1. Logic optimization (Fig 1 pre-processing).
    let gates_in = cx.source.gate_count();
    let optimized = cx.pass("optimize", "gates", Some(gates_in), || {
        let out = if options.optimize {
            optimize(netlist, OptimizeOptions::default()).0
        } else {
            netlist.clone()
        };
        let gates = out.gate_count();
        Ok((out, gates))
    })?;

    // 2. Full path balancing (plus the guard buffering POs driven by
    //    level-0 nodes, so every output is computed by a gate).
    let gates_opt = optimized.gate_count();
    let (balanced, balance_buffers) = cx.pass("balance", "gates", Some(gates_opt), || {
        let guarded = buffer_level0_outputs(optimized);
        // A netlist that is balanced already (a banded DAG, a mapped
        // netlist compiled again) is its own balanced form: `balance`
        // would rebuild it node for node and insert nothing.
        let (balanced, buffers) = if Levels::compute(&guarded).is_fully_balanced(&guarded) {
            (guarded, 0)
        } else {
            let (balanced, bal_stats) = balance(&guarded);
            (balanced, bal_stats.total())
        };
        let gates = balanced.gate_count();
        Ok(((balanced, buffers), gates))
    })?;

    // 3. Levelize the balanced netlist.
    let levels = cx.pass("levelize", "depth", None, || {
        let levels = Levels::compute(&balanced);
        let depth = levels.depth() as usize;
        Ok((levels, depth))
    })?;
    debug_assert!(levels.is_fully_balanced(&balanced));

    // 4-6. Partition (Algorithms 1-2), merge (Algorithm 3), schedule.
    // Child MFGs are shared between parents first; if snapshot
    // residency cannot be packed that way, fall back to the paper's
    // literal Algorithm 1, which duplicates each parent's fan-in cones
    // (condition (3) overlap) and is always schedulable. On fallback the
    // failed attempt's pass entries are dropped so the report describes
    // the compile that actually produced the program.
    let mut attempt_options = options.partition;
    let mut attempts = 0usize;
    let (part, merge_stats, schedule, mfgs_before) = loop {
        attempts += 1;
        let attempt_mark = cx.report.passes.len();
        let raw = cx.pass("partition", "mfgs", None, || {
            let raw = partition(&balanced, &levels, config.m, attempt_options)?;
            let count = raw.mfg_count();
            Ok((raw, count))
        })?;
        let mfgs_before = raw.mfg_count();
        let (part, merge_stats) = cx.pass("merge", "mfgs", Some(mfgs_before), || {
            let (part, stats) = if options.merge {
                merge_mfgs(&raw, config.m)
            } else {
                (
                    raw,
                    MergeStats {
                        before: mfgs_before,
                        after: mfgs_before,
                        merges: 0,
                    },
                )
            };
            let count = part.mfg_count();
            Ok(((part, stats), count))
        })?;
        let schedule_start = Instant::now();
        match schedule_spacetime(&part, config.n, config.m) {
            Ok(schedule) => {
                cx.report.passes.push(PassReport {
                    name: "schedule".to_string(),
                    stat: "cycles".to_string(),
                    wall_us: schedule_start.elapsed().as_secs_f64() * 1e6,
                    before: schedule.total_cycles,
                    after: schedule.total_cycles,
                });
                break (part, merge_stats, schedule, mfgs_before);
            }
            Err(_) if !attempt_options.duplicate_children => {
                cx.report.passes.truncate(attempt_mark);
                attempt_options.duplicate_children = true;
            }
            Err(e) => return Err(e),
        }
    };
    cx.report.schedule_attempts = attempts;

    // 7. Code generation.
    let program = cx.pass("codegen", "instrs", None, || {
        let program = generate(&balanced, &levels, &part, &schedule, &config)?;
        let count = program.instruction_count();
        Ok((program, count))
    })?;

    // 8. The kernel the engine will replay (bit-sliced backends only),
    //    compiled now so the report records what the pass did and the
    //    engine takes it over instead of recompiling. Exactly one of:
    //    `exchange` (`partitions > 1`) — per-partition slot spaces plus
    //    the compile-time cross-partition exchange schedule, reporting
    //    the cut; or `locality` — the single fused, slot-renumbered
    //    tape, reporting frame slots before → after.
    let (tape, partitioned) = match options.backend {
        Backend::Scalar => (None, None),
        Backend::BitSliced { .. } if options.partitions > 1 => {
            let engine = cx.pass("exchange", "cut-nets", None, || {
                let engine = PartitionedEngine::compile(&balanced, options.partitions)
                    .map_err(CoreError::Netlist)?;
                let cut = engine.partition_stats().cut_nets;
                Ok((engine, cut))
            })?;
            (None, Some(engine))
        }
        Backend::BitSliced { .. } => {
            let slots_before = balanced.len();
            let tape = cx.pass("locality", "slots", Some(slots_before), || {
                let tape = BitSliceEvaluator::compile_reading(&balanced, reads);
                let live = tape.tape_stats().frame_slots;
                Ok((tape, live))
            })?;
            (Some(tape), None)
        }
    };

    let stats = FlowStats {
        gates: balanced.gate_count(),
        depth: levels.depth(),
        balance_buffers,
        mfgs_before_merge: mfgs_before,
        mfgs: part.mfg_count(),
        executed_nodes: part.executed_nodes(),
        compute_cycles: schedule.total_cycles,
        clock_cycles: schedule.clock_cycles(config.tc()),
        queue_depth: schedule.queue_depth,
        steady_clock_cycles: schedule.queue_depth as u64 * config.tc() as u64,
    };
    let CompileContext {
        config,
        options: _,
        source,
        report,
    } = cx;
    Ok(Flow {
        netlist: balanced,
        source,
        program: Arc::new(program),
        config,
        backend: options.backend,
        stats,
        report,
        partitions: options.partitions,
        partitioned,
        artifacts: Some(CompileArtifacts {
            levels,
            partition: part,
            merge_stats,
            schedule,
            tape,
        }),
    })
}

/// Inserts a buffer after any primary output driven by a level-0 node
/// (primary input or constant), so the compiler always has a gate to
/// schedule per output. Takes ownership: the common no-fix case returns
/// the input unchanged, without a copy.
fn buffer_level0_outputs(netlist: Netlist) -> Netlist {
    // Per output: does a level-0 node drive it?
    let fixes: Vec<bool> = netlist
        .outputs()
        .iter()
        .map(|o| netlist.node(o.node).op().arity() == 0)
        .collect();
    if !fixes.contains(&true) {
        return netlist;
    }
    // Rebuild with buffered outputs.
    let mut rebuilt = Netlist::new(netlist.name().to_string());
    let mut remap = Vec::with_capacity(netlist.len());
    for (id, node) in netlist.iter() {
        let new_id = match node.op() {
            Op::Input => rebuilt.add_input(netlist.node_name(id).unwrap_or("in").to_string()),
            op => {
                let fanins: Vec<_> = node.fanins().iter().map(|f| remap[f.index()]).collect();
                rebuilt.add_node(op, &fanins).expect("topo preserved")
            }
        };
        remap.push(new_id);
    }
    for (o, &fix) in netlist.outputs().iter().zip(&fixes) {
        let mut node = remap[o.node.index()];
        if fix {
            node = rebuilt.add_gate1(Op::Buf, node);
        }
        rebuilt.add_output(node, o.name.clone());
    }
    rebuilt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use lbnn_netlist::random::RandomDag;

    /// The canonical pass order every compile records.
    const PASS_ORDER: [&str; 7] = [
        "optimize",
        "balance",
        "levelize",
        "partition",
        "merge",
        "schedule",
        "codegen",
    ];

    #[test]
    fn report_records_every_pass_in_order() {
        let nl = RandomDag::strict(16, 6, 12).outputs(4).generate(3);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(8, 4))
            .compile()
            .unwrap();
        let names: Vec<&str> = flow.report.passes.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, PASS_ORDER);
        assert!(flow.report.schedule_attempts >= 1);
        assert!(flow.report.total_us() > 0.0);
        for pass in &flow.report.passes {
            assert!(pass.wall_us >= 0.0, "{}", pass.name);
        }
    }

    #[test]
    fn report_stats_are_consistent_with_flow_stats() {
        let nl = RandomDag::strict(24, 7, 16).outputs(6).generate(9);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(8, 4))
            .compile()
            .unwrap();
        let r = &flow.report;
        assert_eq!(r.pass("balance").unwrap().after, flow.stats.gates);
        assert_eq!(r.pass("levelize").unwrap().after, flow.stats.depth as usize);
        assert_eq!(
            r.pass("partition").unwrap().after,
            flow.stats.mfgs_before_merge
        );
        assert_eq!(
            r.pass("merge").unwrap().before,
            flow.stats.mfgs_before_merge
        );
        assert_eq!(r.pass("merge").unwrap().after, flow.stats.mfgs);
        assert_eq!(r.pass("schedule").unwrap().after, flow.stats.compute_cycles);
        assert_eq!(
            r.pass("codegen").unwrap().after,
            flow.program.instruction_count()
        );
        let merge = r.pass("merge").unwrap();
        assert!(merge.delta() <= 0, "merging never adds MFGs");
    }

    #[test]
    fn merge_disabled_is_a_recorded_noop() {
        let nl = RandomDag::strict(20, 6, 14).outputs(4).generate(5);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(8, 4))
            .merge(false)
            .compile()
            .unwrap();
        let merge = flow.report.pass("merge").unwrap();
        assert_eq!(merge.before, merge.after);
        assert_eq!(flow.stats.mfgs, flow.stats.mfgs_before_merge);
    }

    /// Bit-sliced compiles append the locality pass: the report shows
    /// the frame shrinking from one-slot-per-node to the live footprint,
    /// and the compiled tape rides along in the artifacts.
    #[test]
    fn bitsliced_compiles_record_the_locality_pass() {
        use crate::engine::Backend;
        let nl = RandomDag::strict(16, 6, 12).outputs(4).generate(3);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(8, 4))
            .backend(Backend::BitSliced { words: 4 })
            .compile()
            .unwrap();
        let names: Vec<&str> = flow.report.passes.iter().map(|p| p.name.as_str()).collect();
        let mut expected: Vec<&str> = PASS_ORDER.to_vec();
        expected.push("locality");
        assert_eq!(names, expected);
        let locality = flow.report.pass("locality").unwrap();
        assert_eq!(locality.stat, "slots");
        assert_eq!(locality.before, flow.netlist.len());
        assert!(locality.after <= locality.before);
        let tape = flow
            .artifacts
            .as_ref()
            .and_then(|a| a.tape.as_ref())
            .expect("bit-sliced artifacts carry the compiled tape");
        assert_eq!(tape.tape_stats().frame_slots, locality.after);

        // With `partitions > 1` the `exchange` pass runs *instead of*
        // `locality`: the flow carries the partitioned engine and no
        // single tape.
        let split = Flow::builder(&nl)
            .config(LpuConfig::new(8, 4))
            .backend(Backend::BitSliced { words: 4 })
            .partitions(3)
            .compile()
            .unwrap();
        assert!(split.report.pass("locality").is_none());
        let exchange = split.report.pass("exchange").unwrap();
        let engine = split.partitioned.as_ref().expect("exchange pass output");
        assert_eq!(exchange.after, engine.partition_stats().cut_nets);
        assert!(split.artifacts.as_ref().unwrap().tape.is_none());

        // Scalar compiles stay exactly the canonical 7 passes, tape-free.
        let scalar = Flow::builder(&nl)
            .config(LpuConfig::new(8, 4))
            .compile()
            .unwrap();
        assert_eq!(scalar.report.passes.len(), PASS_ORDER.len());
        assert!(scalar.artifacts.as_ref().unwrap().tape.is_none());
    }

    /// Every output wired straight to an input gets its own buffer, found
    /// in one pass over the outputs.
    #[test]
    fn thousands_of_input_wired_outputs_compile_and_verify() {
        let mut nl = Netlist::new("wires");
        let pis: Vec<_> = (0..64).map(|i| nl.add_input(format!("x{i}"))).collect();
        let g = nl.add_gate2(Op::And, pis[0], pis[1]);
        nl.add_output(g, "g");
        for o in 0..2000 {
            nl.add_output(pis[o % pis.len()], format!("w{o}"));
        }
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(8, 4))
            .compile()
            .unwrap();
        let bufs = flow.netlist.iter().filter(|(_, n)| n.op() == Op::Buf);
        assert_eq!(bufs.count(), 2000);
        flow.verify_against_netlist(3).unwrap();
    }

    #[test]
    fn display_formats_a_line_per_pass() {
        let nl = RandomDag::strict(12, 5, 8).outputs(3).generate(1);
        let flow = Flow::builder(&nl)
            .config(LpuConfig::new(6, 4))
            .compile()
            .unwrap();
        let text = flow.report.to_string();
        for name in PASS_ORDER {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("total"));
    }
}
