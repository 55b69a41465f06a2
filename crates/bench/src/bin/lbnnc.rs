//! `lbnnc` — the command-line compiler driver: structural Verilog in,
//! compiled/verified LPU program out. The CLI face of the paper's Fig 1
//! flow, including the artifact boundary: `--emit-artifact` writes a
//! self-contained binary a later `--from-artifact` run (any process, any
//! machine) loads straight into a serving engine without recompiling.
//!
//! ```text
//! lbnnc <input.v> [options]            compile a netlist
//! lbnnc --from-artifact <F> [input.v]  load a compiled artifact (the
//!                                      optional netlist re-attaches the
//!                                      original verification oracle)
//!   --m <N>             LPEs per LPV            (default 64)
//!   --n <N>             LPVs per LPU            (default 16)
//!   --backend <B>       execution backend: scalar |
//!                       bitsliced:<64|128|256|512|1024> (bit-sliced
//!                       lane width); with --from-artifact, overrides the
//!                       recorded backend (all serve bit-identically)
//!   --partitions <N>    also compile an N-way exchange plan (per-partition
//!                       tapes plus the cross-partition exchange
//!                       schedule, 1..=64, default 1) and print its
//!                       stats for inspection; engines, --serve and
//!                       --verify run the single tape; ignored by the
//!                       scalar backend
//!   --no-merge          skip the MFG merging procedure (Algorithm 3)
//!   --no-opt            skip logic optimization
//!   --geq               use the pseudocode stop rule (>= m) instead of > m
//!   --verify <SEED>     run the cycle-accurate machine against the netlist
//!   --serve <N>         replay N synthetic single-sample requests through
//!                       the Runtime worker pool (dynamic micro-batching
//!                       to the engine's lane width) and print the
//!                       runtime's counters (`Runtime::stats`, what
//!                       `/metrics` exports); with --verify, every
//!                       response is also checked against the netlist
//!                       oracle
//!   --workers <N>       runtime worker threads for --serve (0 = one per CPU)
//!   --diagram           print the time-space schedule
//!   --emit-verilog <F>  write the mapped, balanced netlist as Verilog
//!   --emit-artifact [F] write the compiled flow as a serving artifact;
//!                       without a value, the filename is derived from
//!                       the input netlist stem (`foo.v` → `foo.lbnn`)
//!   --emit-negate-patch <F>
//!                       write a `.lbnnp` delta that negates every
//!                       primary-output cell — the smallest patch whose
//!                       effect is visible on every inference (each
//!                       output bit flips), for hot-reconfiguration
//!                       smoke tests against a running server
//!   --encode            report the binary program image size
//! ```
//!
//! Every compile prints the pass pipeline's `CompileReport` (per-pass
//! wall time and stat deltas); `--from-artifact` prints the report
//! persisted inside the artifact.

use std::process::ExitCode;

use lbnn_bench::fmt_fps;
use lbnn_core::compiler::isa::encode_program;
use lbnn_core::compiler::partition::PartitionOptions;
use lbnn_core::compiler::partition::StopRule;
use lbnn_core::compiler::schedule::lpv_of_level;
use lbnn_core::lpu::resource::estimate_with_depth;
use lbnn_core::lpu::LpuConfig;
use lbnn_core::runtime::{RequestHandle, Runtime, RuntimeOptions};
use lbnn_core::{Backend, Flow};
use lbnn_netlist::verilog::{parse_verilog, write_verilog};

struct Args {
    input: String,
    m: usize,
    n: usize,
    /// `Some` only when `--backend` appeared on the command line; in
    /// `--from-artifact` mode an explicit backend overrides the one
    /// recorded in the artifact (both serve bit-identically).
    backend: Option<Backend>,
    partitions: usize,
    merge: bool,
    optimize: bool,
    geq: bool,
    verify: Option<u64>,
    serve: Option<usize>,
    serve_workers: usize,
    diagram: bool,
    emit_verilog: Option<String>,
    emit_artifact: Option<String>,
    emit_patch: Option<String>,
    from_artifact: Option<String>,
    encode: bool,
    /// Compile-only flags seen on the command line, for a loud warning
    /// when `--from-artifact` makes them meaningless.
    compile_flags_seen: Vec<&'static str>,
}

fn usage() -> ! {
    eprintln!(
        "usage: lbnnc <input.v> [--m N] [--n N] [--backend scalar|bitsliced:<lanes>]\n\
         \u{20}             [--partitions N]\n\
         \u{20}             [--no-merge] [--no-opt] [--geq] [--verify SEED] [--diagram]\n\
         \u{20}             [--serve N] [--workers N]\n\
         \u{20}             [--emit-verilog FILE] [--emit-artifact [FILE]]\n\
         \u{20}             [--emit-negate-patch FILE] [--encode]\n\
         \u{20}      lbnnc --from-artifact FILE [input.v] [--backend B] [--verify SEED]\n\
         \u{20}             [--serve N] [--workers N] [--encode]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        input: String::new(),
        m: 64,
        n: 16,
        backend: None,
        partitions: 1,
        merge: true,
        optimize: true,
        geq: false,
        verify: None,
        serve: None,
        serve_workers: 0,
        diagram: false,
        emit_verilog: None,
        emit_artifact: None,
        emit_patch: None,
        from_artifact: None,
        encode: false,
        compile_flags_seen: Vec::new(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--m" => {
                args.compile_flags_seen.push("--m");
                args.m = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--n" => {
                args.compile_flags_seen.push("--n");
                args.n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--backend" => {
                args.backend = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--partitions" => {
                args.compile_flags_seen.push("--partitions");
                args.partitions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--no-merge" => {
                args.compile_flags_seen.push("--no-merge");
                args.merge = false
            }
            "--no-opt" => {
                args.compile_flags_seen.push("--no-opt");
                args.optimize = false
            }
            "--geq" => {
                args.compile_flags_seen.push("--geq");
                args.geq = true
            }
            "--verify" => {
                args.verify = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--serve" => {
                args.serve = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--workers" => {
                args.serve_workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--diagram" => args.diagram = true,
            "--emit-verilog" => args.emit_verilog = Some(it.next().unwrap_or_else(|| usage())),
            // The value is optional: `--emit-artifact` alone derives the
            // filename from the input netlist stem at emit time.
            "--emit-artifact" => match it.peek() {
                Some(v) if !v.starts_with('-') => args.emit_artifact = it.next(),
                _ => args.emit_artifact = Some(String::new()),
            },
            "--emit-negate-patch" => args.emit_patch = Some(it.next().unwrap_or_else(|| usage())),
            "--from-artifact" => args.from_artifact = Some(it.next().unwrap_or_else(|| usage())),
            "--encode" => args.encode = true,
            "--help" | "-h" => usage(),
            other if args.input.is_empty() && !other.starts_with('-') => {
                args.input = other.to_string()
            }
            _ => usage(),
        }
    }
    if args.input.is_empty() && args.from_artifact.is_none() {
        usage();
    }
    args
}

fn read_netlist_arg(path: &str) -> Result<lbnn_netlist::Netlist, ExitCode> {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lbnnc: cannot read {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    match parse_verilog(&src) {
        Ok(nl) => Ok(nl),
        Err(e) => {
            eprintln!("lbnnc: parse error: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn print_flow_summary(flow: &Flow) {
    let config = &flow.config;
    println!(
        "compiled for m={}, n={} @ {:.0} MHz (tc = {}), backend {}:",
        config.m,
        config.n,
        config.freq_mhz,
        config.tc(),
        flow.backend
    );
    println!(
        "  {} gates, depth {}, {} balance buffers",
        flow.stats.gates, flow.stats.depth, flow.stats.balance_buffers
    );
    println!(
        "  {} MFGs ({} before merging), {} node executions",
        flow.stats.mfgs, flow.stats.mfgs_before_merge, flow.stats.executed_nodes
    );
    println!(
        "  latency {} clk, steady-state II {} clk, queue depth {}",
        flow.stats.clock_cycles, flow.stats.steady_clock_cycles, flow.stats.queue_depth
    );
    let t = flow.throughput();
    println!(
        "  throughput {:.3} M results/s at {} lanes/pass, occupancy {:.1}%",
        t.fps / 1e6,
        t.batch,
        100.0 * flow.occupancy()
    );
    let r = estimate_with_depth(config, flow.stats.queue_depth);
    println!(
        "  estimated FPGA cost: {} FF, {} LUT, {} Kb BRAM",
        r.ff, r.lut, r.bram_kb
    );
}

fn print_compile_report(flow: &Flow) {
    if flow.report.is_empty() {
        println!("compile passes: (none recorded in this artifact)");
        return;
    }
    println!("compile passes:");
    for line in flow.report.to_string().lines() {
        println!("  {line}");
    }
}

fn print_tape_stats(flow: &Flow) {
    let Some(stats) = flow.tape_stats() else {
        return; // scalar flow, or a loaded artifact without a cached tape
    };
    let words = match flow.backend {
        Backend::BitSliced { words } => words,
        Backend::Scalar => return,
    };
    println!("kernel tape (locality pass):");
    println!(
        "  {} instructions, {} arity-1 cells folded, {} fused chains ({} accumulator-resident \
         results)",
        stats.tape_len, stats.folded_cells, stats.fused_chains, stats.fused_instrs
    );
    println!(
        "  frame slots {} -> {} live ({:.1} KiB at {} lanes)",
        stats.frame_slots_unoptimized,
        stats.frame_slots,
        stats.frame_bytes(words) as f64 / 1024.0,
        64 * words
    );
    println!("  simd kernels: {}", stats.simd);
}

fn print_partition_stats(flow: &Flow) {
    let Some(engine) = &flow.partitioned else {
        return; // unpartitioned flow (or scalar backend: knob ignored)
    };
    let words = match flow.backend {
        Backend::BitSliced { words } => words,
        Backend::Scalar => return,
    };
    let stats = engine.partition_stats();
    println!("partitioned execution (exchange pass):");
    println!(
        "  {} partitions over {} levels, {} tape instructions total",
        stats.partitions, stats.levels, stats.tape_len
    );
    println!(
        "  cut {} nets -> {} scheduled copies ({:.1} KiB exchanged per block at {} lanes)",
        stats.cut_nets,
        stats.cut_copies,
        stats.exchange_words(words) as f64 * 8.0 / 1024.0,
        64 * words
    );
    println!(
        "  frame slots: {} total, {} in the widest partition ({:.1} KiB at {} lanes)",
        stats.total_frame_slots,
        stats.max_frame_slots,
        (stats.max_frame_slots * words * 8) as f64 / 1024.0,
        64 * words
    );
    println!("  simd kernels: {}", engine.simd_level());
}

/// Deterministic synthetic single-sample requests: `count` bit vectors
/// of `width` primary-input bits (xorshift64; no RNG dependency).
fn synthetic_requests(width: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut state = seed | 1;
    (0..count)
        .map(|_| {
            let mut bits = Vec::with_capacity(width);
            let mut word = 0u64;
            for i in 0..width {
                if i % 64 == 0 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    word = state;
                }
                bits.push(word >> (i % 64) & 1 != 0);
            }
            bits
        })
        .collect()
}

/// Prints the runtime's counters ([`Runtime::stats`], what `/metrics`
/// exports): packing, flush causes, throughput, queue depth and latency
/// percentiles.
fn print_runtime_stats(runtime: &Runtime) {
    let stats = runtime.stats();
    println!(
        "Runtime micro-batched serving, compiled block, backend = {}, workers = {}:",
        runtime.backend(),
        runtime.workers()
    );
    println!(
        "  {} requests -> {} micro-batches ({:.1} lanes/batch; {} full, {} deadline) \
         in {:.1} ms",
        stats.requests,
        stats.micro_batches,
        stats.mean_lanes_per_batch,
        stats.full_flushes,
        stats.deadline_flushes,
        stats.elapsed_us / 1e3,
    );
    println!(
        "  {} requests/s on this host; peak queue depth {}",
        fmt_fps(stats.requests_per_sec),
        stats.queue.peak_depth
    );
    println!(
        "  latency p50 {:.1} us, p95 {:.1} us, p99 {:.1} us",
        stats.queue.p50_us, stats.queue.p95_us, stats.queue.p99_us
    );
}

fn main() -> ExitCode {
    let args = parse_args();

    let flow = match &args.from_artifact {
        // Serve-anywhere path: load a compiled artifact, no recompilation.
        Some(path) => {
            if !args.compile_flags_seen.is_empty() {
                eprintln!(
                    "lbnnc: warning: {} only affect compilation and are ignored with \
                     --from-artifact (the artifact is already compiled)",
                    args.compile_flags_seen.join(", ")
                );
            }
            let mut flow = match Flow::load(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("lbnnc: cannot load artifact {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // The backend is a serving-time choice (both are
            // bit-identical): an explicit --backend overrides the one
            // recorded in the artifact.
            if let Some(backend) = args.backend {
                if backend != flow.backend {
                    println!(
                        "backend override: artifact recorded {}, serving on {backend}",
                        flow.backend
                    );
                }
                flow.backend = backend;
            }
            println!(
                "loaded artifact `{path}`: {} inputs, {} outputs, {} gates",
                flow.source.inputs().len(),
                flow.source.outputs().len(),
                flow.stats.gates
            );
            // An accompanying netlist re-attaches the original oracle, so
            // --verify checks the served program against the *source*, not
            // just the mapped netlist stored in the artifact.
            if !args.input.is_empty() {
                let netlist = match read_netlist_arg(&args.input) {
                    Ok(nl) => nl,
                    Err(code) => return code,
                };
                if netlist.inputs().len() != flow.source.inputs().len()
                    || netlist.outputs().len() != flow.source.outputs().len()
                {
                    eprintln!(
                        "lbnnc: {} has {} inputs / {} outputs but the artifact serves {} / {}",
                        args.input,
                        netlist.inputs().len(),
                        netlist.outputs().len(),
                        flow.source.inputs().len(),
                        flow.source.outputs().len()
                    );
                    return ExitCode::FAILURE;
                }
                println!(
                    "verification oracle: `{}` from {}",
                    netlist.name(),
                    args.input
                );
                flow.source = netlist;
            }
            flow
        }
        // Compile path: Verilog in, compiled flow out.
        None => {
            let netlist = match read_netlist_arg(&args.input) {
                Ok(nl) => nl,
                Err(code) => return code,
            };
            println!(
                "parsed `{}`: {} inputs, {} outputs, {} gates",
                netlist.name(),
                netlist.inputs().len(),
                netlist.outputs().len(),
                netlist.gate_count()
            );
            let config = LpuConfig::new(args.m, args.n);
            let mut partition = PartitionOptions::default();
            if args.geq {
                partition.stop_rule = StopRule::GeqM;
            }
            match Flow::builder(&netlist)
                .config(config)
                .merge(args.merge)
                .optimize(args.optimize)
                .backend(args.backend.unwrap_or_default())
                .partitions(args.partitions)
                .partition(partition)
                .compile()
            {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("lbnnc: compilation failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    print_flow_summary(&flow);
    print_compile_report(&flow);
    print_tape_stats(&flow);
    print_partition_stats(&flow);

    // Loaded artifacts go straight to a resident engine (that is their
    // point); surface the serving parameters.
    if args.from_artifact.is_some() {
        match flow.engine() {
            Ok(engine) => println!(
                "engine ready: backend {}, {} clk between batches, {} lanes/kernel pass",
                engine.backend(),
                engine.steady_clock_cycles_per_batch(),
                engine.lane_width()
            ),
            Err(e) => {
                eprintln!("lbnnc: engine construction failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(seed) = args.verify {
        match flow.verify_against_netlist(seed) {
            Ok(rep) => println!(
                "verify: OK — bit-exact on {} lanes x {} outputs (seed {seed})",
                rep.lanes_checked, rep.outputs_checked
            ),
            Err(e) => {
                eprintln!("lbnnc: VERIFICATION FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Serving mode: replay N synthetic single-sample requests through the
    // persistent Runtime worker pool; the micro-batcher packs them into
    // full bit-sliced frames (the engine's lane width) dynamically.
    if let Some(requests) = args.serve {
        let engine = match flow.engine() {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("lbnnc: engine construction failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let options = RuntimeOptions::default().workers(args.serve_workers);
        let runtime = match Runtime::from_engine(engine, options) {
            Ok(runtime) => runtime,
            Err(e) => {
                eprintln!("lbnnc: runtime construction failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let width = flow.program.num_inputs;
        let inputs = synthetic_requests(width, requests, 0x5e12_2023);
        println!(
            "serving {requests} single-sample requests through the runtime \
             (dynamic micro-batching, flush target {} lanes)...",
            runtime.flush_target()
        );
        let handles: Vec<RequestHandle> = match inputs
            .iter()
            .map(|bits| runtime.submit(bits))
            .collect::<Result<_, _>>()
        {
            Ok(handles) => handles,
            Err(e) => {
                eprintln!("lbnnc: request submission failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        runtime.flush();
        let mut responses = Vec::with_capacity(handles.len());
        for handle in handles {
            match handle.wait() {
                Ok(bits) => responses.push(bits),
                Err(e) => {
                    eprintln!("lbnnc: request failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        print_runtime_stats(&runtime);
        // With --verify, every served response is also checked against
        // direct evaluation of the (source) netlist oracle.
        if args.verify.is_some() {
            let packed = lbnn_netlist::Lanes::pack_rows(&inputs, width);
            let oracle = match lbnn_netlist::eval::evaluate(&flow.source, &packed) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("lbnnc: oracle evaluation failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for (j, response) in responses.iter().enumerate() {
                let want: Vec<bool> = oracle.iter().map(|o| o.get(j)).collect();
                if response != &want {
                    eprintln!(
                        "lbnnc: SERVE VERIFICATION FAILED: request {j} disagrees with the \
                         netlist oracle"
                    );
                    return ExitCode::FAILURE;
                }
            }
            println!("  serve verify: OK — all {requests} responses bit-exact against the oracle");
        }
    }

    if args.encode {
        match encode_program(&flow.program) {
            Ok(img) => println!(
                "encoded image: {} bits ({} Kb) across {} x {} queue slots of {} bits",
                img.total_bits(),
                img.total_bits() / 1024,
                flow.config.n,
                img.queue_depth,
                img.format.word_bits()
            ),
            Err(e) => {
                eprintln!("lbnnc: encoding failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if args.diagram {
        match &flow.artifacts {
            None => println!(
                "(no schedule diagram: artifacts store the program, not the compiler's \
                 intermediate schedule)"
            ),
            Some(artifacts) => {
                println!("\ntime-space schedule (rows = LPVs, cols = compute cycles):");
                let cycles = artifacts.schedule.total_cycles;
                let mut grid = vec![vec![' '; cycles]; flow.config.n];
                for (i, mfg) in artifacts.partition.mfgs.iter().enumerate() {
                    let letter = (b'A' + (i % 26) as u8) as char;
                    for &start in &artifacts.schedule.executions[i] {
                        for d in 0..mfg.depth() {
                            let lpv = lpv_of_level(mfg.bottom() + d as u32, flow.config.n);
                            grid[lpv][start + d] = letter;
                        }
                    }
                }
                for (lpv, row) in grid.iter().enumerate() {
                    let line: String = row.iter().collect();
                    println!("  LPV{lpv:<3} |{line}|");
                }
            }
        }
    }

    if let Some(path) = args.emit_verilog {
        let text = write_verilog(&flow.netlist);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("lbnnc: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("mapped netlist written to {path}");
    }

    if let Some(path) = args.emit_artifact {
        // Bare `--emit-artifact`: derive the filename from the input stem.
        let path = if path.is_empty() {
            if args.input.is_empty() {
                eprintln!(
                    "lbnnc: --emit-artifact without a filename needs an input netlist \
                     to derive one from"
                );
                return ExitCode::FAILURE;
            }
            std::path::Path::new(&args.input)
                .with_extension("lbnn")
                .display()
                .to_string()
        } else {
            path
        };
        match flow.save(&path) {
            Ok(()) => {
                let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                println!("artifact written to {path} ({size} bytes) — reload with --from-artifact");
            }
            Err(e) => {
                eprintln!("lbnnc: cannot write artifact {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = args.emit_patch {
        let outputs: std::collections::BTreeSet<_> =
            flow.netlist.outputs().iter().map(|o| o.node).collect();
        let patches: lbnn_netlist::PatchSet = outputs
            .into_iter()
            .filter_map(|id| Some((id, flow.netlist.node(id).op().negated()?)))
            .collect();
        if patches.is_empty() {
            eprintln!("lbnnc: no negatable output cell — cannot emit a patch");
            return ExitCode::FAILURE;
        }
        let delta = match flow.make_delta(&patches) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("lbnnc: cannot build patch delta: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(&path, &delta) {
            eprintln!("lbnnc: cannot write patch {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "negate-outputs patch written to {path} ({} bytes, {} cells) — apply with \
             POST /admin/patch/<model> or a `.lbnnp` sidecar",
            delta.len(),
            patches.len()
        );
    }

    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_requests_are_deterministic_and_shaped() {
        let a = synthetic_requests(10, 20, 7);
        let b = synthetic_requests(10, 20, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        assert_eq!(a[0].len(), 10);
        assert_ne!(a, synthetic_requests(10, 20, 8));
        // Not degenerate: some bits of each polarity.
        let ones: usize = a.iter().flatten().filter(|&&b| b).count();
        assert!(ones > 0 && ones < 200);
    }
}
