//! Failure injection: every malformed input and corrupted artifact must
//! surface as a structured error (or checked panic), never as silent
//! wrong answers.

use lbnn_core::error::{ArtifactError, CoreError};
use lbnn_core::lpu::{LpuConfig, LpuMachine};
use lbnn_core::{Backend, Flow};
use lbnn_netlist::random::RandomDag;
use lbnn_netlist::verilog::parse_verilog;
use lbnn_netlist::{Lanes, NetlistError};

#[test]
fn malformed_verilog_corpus() {
    let cases: &[(&str, &str)] = &[
        ("", "no module"),
        ("module m;", "truncated before endmodule"),
        (
            "module m (a); input a; output y; endmodule",
            "undriven output",
        ),
        (
            "module m (a, y); input a; output y; and (y, a); endmodule",
            "and with one input",
        ),
        (
            "module m (a, y); input a; output y; frob (y, a); endmodule",
            "unknown statement",
        ),
        (
            "module m (a, y); input a; output y; assign y = a |; endmodule",
            "dangling operator",
        ),
        (
            "module m (a, y); input a; output y; assign y = 2'b10; endmodule",
            "multi-bit constant",
        ),
        (
            "module m (a, y); input a; input a; output y; buf (y, a); endmodule",
            "doubly declared input",
        ),
        (
            "module m (a, y); input a; output y; wire w; buf (w, y); buf (y, w); endmodule",
            "combinational cycle",
        ),
    ];
    for (src, what) in cases {
        assert!(parse_verilog(src).is_err(), "must reject: {what}");
    }
}

#[test]
fn machine_rejects_mismatched_programs() {
    let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(1);
    let config = LpuConfig::new(8, 4);
    let flow = Flow::builder(&nl).config(config).compile().unwrap();

    // Wrong machine shape.
    let other = LpuMachine::new(LpuConfig::new(4, 4)).unwrap();
    assert!(matches!(
        other.run(&flow.program, &[]),
        Err(CoreError::BadConfig { .. })
    ));

    // Wrong input arity.
    let machine = LpuMachine::new(config).unwrap();
    assert!(matches!(
        machine.run(&flow.program, &[Lanes::zeros(8)]),
        Err(CoreError::InputArity {
            expected: 8,
            got: 1
        })
    ));
}

#[test]
fn snapshot_clobber_is_detected() {
    // Corrupt a healthy program: force an extra snapshot write into a port
    // that is still live, and check the machine catches it.
    let nl = RandomDag::strict(12, 6, 10).outputs(3).generate(4);
    let config = LpuConfig::new(6, 3);
    let flow = Flow::builder(&nl).config(config).compile().unwrap();
    let mut program = (*flow.program).clone();

    // Find an instruction with a snapshot write, then duplicate that write
    // one cycle later on the same LPV with a self-route so the value is
    // re-latched while the original is still resident.
    let mut injected = false;
    'outer: for lpv in 0..program.n {
        for addr in 0..program.queue_depth.saturating_sub(1) {
            let has_write = program.queues[lpv][addr]
                .as_ref()
                .is_some_and(|i| !i.snapshot_writes.is_empty());
            if !has_write {
                continue;
            }
            let port = program.queues[lpv][addr].as_ref().unwrap().snapshot_writes[0];
            // The consuming instruction reads it later; injecting another
            // latch in between must clobber.
            let next = program.queues[lpv][addr + 1]
                .get_or_insert_with(|| lbnn_core::compiler::program::VliwInstr::empty(config.m));
            if next.route_in[port as usize].is_none() {
                next.route_in[port as usize] = Some(0);
            }
            if !next.snapshot_writes.contains(&port) {
                next.snapshot_writes.push(port);
            }
            injected = true;
            break 'outer;
        }
    }
    assert!(injected, "test premise: some snapshot write exists");

    let machine = LpuMachine::new(config).unwrap();
    let inputs: Vec<Lanes> = (0..12).map(|_| Lanes::ones(8)).collect();
    let err = machine.run(&program, &inputs);
    assert!(
        matches!(
            err,
            Err(CoreError::SnapshotClobber { .. }) | Err(CoreError::BadConfig { .. })
        ),
        "corruption must be detected, got {err:?}"
    );
}

#[test]
fn unbalanced_netlists_rejected_by_partitioner() {
    use lbnn_core::compiler::partition::{partition, PartitionOptions};
    use lbnn_netlist::{Levels, Netlist, Op};
    let mut nl = Netlist::new("u");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let g = nl.add_gate2(Op::And, a, b);
    let h = nl.add_gate2(Op::Or, g, c);
    nl.add_output(h, "y");
    let lv = Levels::compute(&nl);
    assert_eq!(
        partition(&nl, &lv, 4, PartitionOptions::default()).unwrap_err(),
        CoreError::NotBalanced
    );
}

#[test]
fn degenerate_machines_rejected() {
    let nl = RandomDag::strict(4, 2, 3).outputs(1).generate(2);
    for bad in [LpuConfig::new(0, 4), LpuConfig::new(4, 0)] {
        assert!(Flow::builder(&nl).config(bad).compile().is_err());
    }
}

/// Unsupported bit-slice widths are structured failures at every
/// boundary they can enter through: backend parsing, compilation,
/// engine construction, and artifact loading.
#[test]
fn unsupported_slice_widths_are_structured_failures() {
    let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(7);

    // CLI-style parsing: lane counts that are not 64/128/256/512.
    for bad in [
        "bitsliced:0",
        "bitsliced:32",
        "bitsliced:96",
        "bitsliced:4096",
    ] {
        assert!(matches!(
            bad.parse::<Backend>(),
            Err(CoreError::BadConfig { .. })
        ));
    }

    // Compile-time: the pipeline rejects the width before any pass runs.
    let err = Flow::builder(&nl)
        .config(LpuConfig::new(4, 4))
        .backend(Backend::BitSliced { words: 3 })
        .compile()
        .unwrap_err();
    assert!(matches!(err, CoreError::BadConfig { .. }));

    // Engine construction: a flow whose backend field was corrupted
    // after compilation still cannot build an engine.
    let mut flow = Flow::builder(&nl)
        .config(LpuConfig::new(4, 4))
        .compile()
        .unwrap();
    flow.backend = Backend::BitSliced { words: 6 };
    assert!(matches!(flow.engine(), Err(CoreError::BadConfig { .. })));

    // Artifact boundary: the recorded width comes back as the dedicated
    // typed error, not a panic and not a generic Malformed.
    let bytes = flow.to_artifact_bytes().unwrap();
    assert!(matches!(
        Flow::from_artifact_bytes(&bytes),
        Err(CoreError::Artifact(ArtifactError::UnsupportedWidth {
            words: 6
        }))
    ));
}

/// ISSUE 10: invalid partition counts are structured failures at every
/// boundary — the compile pipeline, direct `PartitionedEngine`
/// compilation, assignment construction, and the serialized-engine
/// parser. Never a panic.
#[test]
fn invalid_partition_counts_are_structured_failures() {
    use lbnn_netlist::{PartitionAssignment, PartitionedEngine, MAX_PARTITIONS};
    let nl = RandomDag::strict(8, 4, 6).outputs(2).generate(7);

    // Compile pipeline: rejected before any pass runs, on both backends.
    for bad in [0usize, MAX_PARTITIONS + 1, 1000] {
        for backend in [Backend::Scalar, Backend::BitSliced { words: 2 }] {
            let err = Flow::builder(&nl)
                .config(LpuConfig::new(4, 4))
                .backend(backend)
                .partitions(bad)
                .compile()
                .unwrap_err();
            assert!(
                matches!(err, CoreError::BadConfig { .. }),
                "partitions={bad} {backend}: {err:?}"
            );
        }
    }

    // Direct engine compilation and assignment construction.
    for bad in [0usize, MAX_PARTITIONS + 1] {
        assert!(matches!(
            PartitionedEngine::compile(&nl, bad),
            Err(NetlistError::Malformed { .. })
        ));
        assert!(matches!(
            PartitionAssignment::contiguous(&nl, bad),
            Err(NetlistError::Malformed { .. })
        ));
    }
    // An assignment shorter than the netlist passes construction (the
    // map alone cannot know the target) but fails engine compilation.
    let short = PartitionAssignment::from_map(2, vec![0; nl.len() - 1]).unwrap();
    let err = PartitionedEngine::compile_with(&nl, &short, Default::default()).unwrap_err();
    assert!(matches!(err, NetlistError::Malformed { .. }), "{err:?}");
    // And a map entry outside its own partition range fails immediately.
    let mut map = vec![0u32; nl.len()];
    map[3] = 2; // parts=2 means only 0 and 1 are valid
    assert!(matches!(
        PartitionAssignment::from_map(2, map),
        Err(NetlistError::Malformed { .. })
    ));
}

#[test]
fn evaluation_arity_errors() {
    let nl = RandomDag::strict(4, 2, 3).outputs(1).generate(3);
    assert!(matches!(
        lbnn_netlist::eval::evaluate(&nl, &[]),
        Err(NetlistError::InputArity {
            expected: 4,
            got: 0
        })
    ));
}
