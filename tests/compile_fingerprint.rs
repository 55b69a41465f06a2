//! Compile fingerprints: the LPU program, `FlowStats`, the mapped netlist
//! and the pass report of a fixed corpus, hashed and pinned.
//!
//! The MFG passes (partition, merge, schedule, codegen) and the optimizer
//! decide node ids, MFG ids and instruction placement, and with them the
//! bytes of every artifact and the meaning of every `.lbnnp` node id. A
//! change to their bookkeeping must leave all of that alone; these
//! constants are what "alone" means. Pass wall times are left out, so two
//! compiles of one netlist fingerprint equal even though their artifact
//! bytes never do.
//!
//! The corpus: strict and loose random DAGs at `m` ∈ {2, 3, 4, 8, 16, 64}
//! under both stop rules and with merging off, JSC-M's layers, a
//! PO-heavy banded DAG, the two netlists that take the duplicate-children
//! fallback, and, for the optimizer alone, netlists of every cell kind.
//!
//! Under duplication two merged parents can read one node from two
//! different children; merging keeps the lowest child id, so fallback
//! compiles (some of the random corpus among them) are as deterministic
//! as the rest.

use lbnn::bench::table3_workload_options;
use lbnn::core::compiler::program::InputSlot;
use lbnn::core::compiler::{encode_program, PartitionOptions, StopRule};
use lbnn::logic_synth::strash::strash;
use lbnn::logic_synth::{optimize, OptimizeOptions};
use lbnn::models::{workload::model_specs, zoo};
use lbnn::netlist::eval::evaluate;
use lbnn::netlist::random::RandomDag;
use lbnn::netlist::{Lanes, Netlist, NodeId, Op};
use lbnn::{Backend, Flow, LpuConfig};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn num(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }
}

/// Everything a compile decides except its wall times.
fn fingerprint(h: &mut Fnv, flow: &Flow) {
    let image = encode_program(&flow.program).expect("encodes");
    let f = image.format;
    for v in [f.m, f.payload_bits, f.source_bits, image.n] {
        h.num(v);
    }
    for v in [image.queue_depth, image.total_cycles, image.num_inputs] {
        h.num(v);
    }
    h.num(image.input_buffer.len());
    for slot in &image.input_buffer {
        let InputSlot::Pi(pi) = *slot;
        h.num(pi as usize);
    }
    for tap in &image.outputs {
        for v in [tap.po, tap.lpv, tap.cycle, tap.lpe] {
            h.num(v);
        }
    }
    for queue in &image.words {
        for slot in queue {
            match slot {
                None => h.num(0),
                Some(words) => {
                    h.num(words.len() + 1);
                    words.iter().for_each(|&w| h.bytes(&w.to_le_bytes()));
                }
            }
        }
    }
    // What the image does not store: which MFG and which netlist node
    // every slot executes, and the order latches were recorded in.
    for instr in flow.program.queues.iter().flatten().flatten() {
        h.num(instr.mfg.map_or(usize::MAX, |id| id.index()));
        instr
            .snapshot_writes
            .iter()
            .for_each(|&port| h.num(port.into()));
        for lpe in &instr.lpes {
            h.num(lpe.as_ref().map_or(usize::MAX, |l| l.node.index()));
        }
    }
    let s = &flow.stats;
    for v in [
        s.gates,
        s.depth as usize,
        s.balance_buffers,
        s.mfgs_before_merge,
        s.mfgs,
        s.executed_nodes,
        s.compute_cycles,
        s.clock_cycles as usize,
        s.queue_depth,
        s.steady_clock_cycles as usize,
    ] {
        h.num(v);
    }
    h.bytes(&flow.netlist.to_bytes());
    for pass in &flow.report.passes {
        h.bytes(pass.name.as_bytes());
        h.bytes(pass.stat.as_bytes());
        h.num(pass.before);
        h.num(pass.after);
    }
    h.num(flow.report.schedule_attempts);
}

fn assert_pinned(h: &Fnv, want: u64, corpus: &str) {
    assert_eq!(h.0, want, "{corpus} fingerprint {:#018x}", h.0);
}

/// Folds one compile (or its error) into `h`.
fn fold(h: &mut Fnv, netlist: &Netlist, config: LpuConfig, stop_rule: StopRule, merge: bool) {
    let compiled = Flow::builder(netlist)
        .config(config)
        .partition(PartitionOptions {
            stop_rule,
            ..PartitionOptions::default()
        })
        .merge(merge)
        .compile();
    match compiled {
        Ok(flow) => fingerprint(h, &flow),
        Err(e) => h.bytes(e.to_string().as_bytes()),
    }
}

/// `width` inputs, `depth` levels of `width` two-input gates, gate
/// `(l, j)` reading `(l-1, j)` and `(l-1, j + 16)`; every last-level net
/// is an output.
fn banded_dag(width: usize, depth: usize) -> Netlist {
    let mut nl = Netlist::new(format!("banded_{width}x{depth}"));
    let mut prev: Vec<NodeId> = (0..width).map(|j| nl.add_input(format!("i{j}"))).collect();
    for level in 0..depth {
        prev = (0..width)
            .map(|j| {
                let op = Op::MISO[(level * 31 + j) % Op::MISO.len()];
                nl.add_gate2(op, prev[j], prev[(j + 16) % width])
            })
            .collect();
    }
    for (j, &net) in prev.iter().enumerate() {
        nl.add_output(net, format!("y{j}"));
    }
    nl
}

/// A netlist of every cell kind, inputs declared between gates, and
/// outputs on inputs and constants: the optimizer's rules all fire.
fn every_cell_netlist(seed: u64) -> Netlist {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |n: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    };
    let mut nl = Netlist::new(format!("cells_{seed}"));
    let mut nodes: Vec<NodeId> = (0..6).map(|i| nl.add_input(format!("x{i}"))).collect();
    for i in 0..240 {
        let (a, b) = (nodes[next(nodes.len())], nodes[next(nodes.len())]);
        let node = match next(12) {
            0 => nl.add_gate1(Op::Not, a),
            1 => nl.add_gate1(Op::Buf, a),
            2 => nl.add_const(next(2) == 1),
            3 if i % 40 == 0 => nl.add_input(format!("late{i}")),
            _ => nl.add_gate2(Op::MISO[next(Op::MISO.len())], a, b),
        };
        nodes.push(node);
    }
    for o in 0..12 {
        nl.add_output(nodes[nodes.len() - 1 - next(60)], format!("y{o}"));
    }
    nl.add_output(nodes[0], "wire");
    let one = nl.add_const(true);
    nl.add_output(one, "tie");
    nl
}

/// The two netlists whose shared-children schedule fails, so the flow
/// re-partitions with duplicated fan-in cones.
fn fallback_cases() -> [(Netlist, LpuConfig); 2] {
    [
        (
            RandomDag::loose(12, 6, 10).outputs(4).generate(96),
            LpuConfig::new(2, 2),
        ),
        (
            RandomDag::strict(16, 6, 12).outputs(4).generate(8),
            LpuConfig::new(3, 2),
        ),
    ]
}

#[test]
fn random_dags_compile_to_pinned_programs() {
    let mut h = Fnv::new();
    for m in [2usize, 3, 4, 8, 16, 64] {
        let config = LpuConfig::new(m, 4);
        for (seed, loose) in [(1u64, false), (2, true)] {
            let shape = match loose {
                true => RandomDag::loose(20, 6, 12),
                false => RandomDag::strict(20, 6, 12),
            };
            let netlist = shape.outputs(5).generate(seed + m as u64);
            fold(&mut h, &netlist, config, StopRule::GtM, true);
            fold(&mut h, &netlist, config, StopRule::GeqM, true);
            fold(&mut h, &netlist, config, StopRule::GtM, false);
        }
    }
    assert_pinned(&h, 0xde65_6d57_20d1_89b3, "random DAG");
}

#[test]
fn jsc_m_layers_compile_to_pinned_programs() {
    let mut h = Fnv::new();
    let config = LpuConfig::new(16, 4);
    for spec in model_specs(&zoo::jsc_m(), &table3_workload_options()) {
        fold(&mut h, &spec.netlist, config, StopRule::GtM, true);
    }
    assert_pinned(&h, 0xb204_a4c7_2e93_720f, "JSC-M");
}

#[test]
fn po_heavy_banded_dag_compiles_to_a_pinned_program() {
    let mut h = Fnv::new();
    let (netlist, config) = (banded_dag(512, 6), LpuConfig::paper_default());
    fold(&mut h, &netlist, config, StopRule::GtM, true);
    assert_pinned(&h, 0x3c32_6b3e_0bb8_1d06, "banded DAG");
}

#[test]
fn fallback_compiles_to_pinned_programs() {
    let mut h = Fnv::new();
    for (netlist, config) in fallback_cases() {
        fold(&mut h, &netlist, config, StopRule::GtM, true);
    }
    assert_pinned(&h, 0x25e2_94ed_f403_edfa, "fallback");
}

#[test]
fn optimizer_output_is_pinned() {
    let mut h = Fnv::new();
    for seed in 1..=12 {
        let netlist = every_cell_netlist(seed);
        let (hashed, s) = strash(&netlist);
        h.bytes(&hashed.to_bytes());
        [s.nodes_before, s.nodes_after, s.folded, s.merged]
            .into_iter()
            .for_each(|v| h.num(v));
        let (optimized, s) = optimize(&netlist, OptimizeOptions::default());
        h.bytes(&optimized.to_bytes());
        [s.strash_folded, s.inverters_fused, s.iterations]
            .into_iter()
            .for_each(|v| h.num(v));
    }
    assert_pinned(&h, 0x0d00_6e8c_a7b7_50ac, "optimizer");
}

/// The duplicate-children fallback end to end: the retry is recorded
/// once, the failed attempt's passes are dropped, and both the LPU
/// program and the bit-sliced engine compute what the netlist computes.
#[test]
fn duplicate_children_fallback_compiles_and_serves() {
    const PASS_ORDER: [&str; 7] = [
        "optimize",
        "balance",
        "levelize",
        "partition",
        "merge",
        "schedule",
        "codegen",
    ];
    for (netlist, config) in fallback_cases() {
        let flow = Flow::builder(&netlist)
            .config(config)
            .backend(Backend::BitSliced { words: 1 })
            .compile()
            .unwrap();
        assert_eq!(flow.report.schedule_attempts, 2, "{}", netlist.name());
        for name in PASS_ORDER {
            let runs = flow.report.passes.iter().filter(|p| p.name == name).count();
            assert_eq!(runs, 1, "pass {name} of {}", netlist.name());
        }
        flow.verify_against_netlist(7).unwrap();
        let batch: Vec<Lanes> = (0..netlist.inputs().len())
            .map(|i| {
                let bits: Vec<bool> = (0..100).map(|l| (i * 7 + l * 13) % 5 < 2).collect();
                Lanes::from_bools(&bits)
            })
            .collect();
        let served = flow.into_engine().unwrap().run_batch(&batch).unwrap();
        assert_eq!(served.outputs, evaluate(&netlist, &batch).unwrap());
    }
}
