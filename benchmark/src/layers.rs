//! The layer probes of a traced run: every per-layer metric, measured
//! from outside by timing calls into each module's public functions.
//!
//! Each probe makes a fixed number of calls, every call (or small group
//! of calls, for nanosecond-scale functions) inside a span named after
//! the module it enters; the time metrics are then read back from the
//! spans, the counts from public accessors. The probes run the same way
//! in every workload's traced run, so a layer's number means the same
//! thing wherever it is printed; which end-to-end metric it should move
//! on which workload is written down in `README.md`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::path::PathBuf;

use lbnn_core::model::{chain_inputs, CompiledModel, ModelScratch};
use lbnn_core::{
    Backend, CompileReport, EngineScratch, Flow, LpuConfig, Runtime, RuntimeOptions, ServingMode,
};
use lbnn_netlist::{Lanes, Netlist};
use lbnn_serve::wire::{self, InferRequest, InferResponse, Status};
use lbnn_serve::{http, InferOutcome, ModelRegistry, WireLimits};

use crate::clients::{bin_frame, http_request, parse_bit_body};
use crate::fixtures::{self, JSC_NAME, LANES, WORDS};
use crate::gen::{self, Rng};
use crate::harness::{drive, Op, Plan};
use crate::metrics::Values;
use crate::stats;
use crate::trace::{by_name, NameTotals, Span, Tracer};
use crate::workloads::{Protocol, SaturateOp, Served, WireOp, PATCH_CELLS};

/// Where traces and the registry probe's scratch files go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Compiler pass names, in pipeline order.
const PASSES: [(&str, &str); 9] = [
    ("optimize", "core.compiler.optimize_us"),
    ("balance", "core.compiler.balance_us"),
    ("levelize", "core.compiler.levelize_us"),
    ("partition", "core.compiler.partition_us"),
    ("merge", "core.compiler.merge_us"),
    ("schedule", "core.compiler.schedule_us"),
    ("codegen", "core.compiler.codegen_us"),
    ("locality", "core.compiler.locality_us"),
    ("exchange", "core.compiler.exchange_us"),
];

struct Probes<'a> {
    tr: &'a mut Tracer,
    scale: f64,
    seed: u64,
    values: Values,
}

impl Probes<'_> {
    /// `n` repetitions, scaled down by `--quick`.
    fn reps(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(2)
    }

    /// `spans` spans of `calls` calls each; every call does `units` units
    /// of work.
    fn repeat(
        &mut self,
        name: &'static str,
        spans: usize,
        calls: usize,
        units: u64,
        mut call: impl FnMut(),
    ) {
        for _ in 0..self.reps(spans) {
            let open = self.tr.begin(name, 0);
            for _ in 0..calls {
                call();
            }
            self.tr.end(open, calls as u64 * units);
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

fn totals<'a>(by: &'a BTreeMap<&'static str, NameTotals>, name: &str) -> &'a NameTotals {
    by.get(name)
        .unwrap_or_else(|| panic!("no span named `{name}` was recorded"))
}

/// Median duration of the spans of one name, in the given unit.
fn p50(by: &BTreeMap<&'static str, NameTotals>, name: &str, ns_per_unit: f64) -> f64 {
    stats::median(&totals(by, name).durations_ns) / ns_per_unit
}

/// Sums `wall_us` of one pass over a set of compile reports.
fn pass_us(reports: &[&CompileReport], pass: &str) -> f64 {
    reports
        .iter()
        .filter_map(|r| r.pass(pass))
        .map(|p| p.wall_us)
        .sum()
}

fn pass_after(reports: &[&CompileReport], pass: &str) -> f64 {
    reports
        .iter()
        .filter_map(|r| r.pass(pass))
        .map(|p| p.after)
        .sum::<usize>() as f64
}

/// Runs every probe, recording spans into `tr`, and returns the
/// per-layer values (all but the `bench.*` ones, which describe the
/// traced workload itself).
pub fn probe_all(tr: &mut Tracer, plan: &Plan, seed: u64) -> Values {
    assert!(tr.enabled(), "layer probes derive their times from spans");
    let mut p = Probes {
        tr,
        scale: plan.probe_scale,
        seed,
        values: Values::new(),
    };
    let root = p.tr.begin("probes", 0);
    let (model, dag, dag_p2) = compile_side(&mut p);
    kernel_side(&mut p, &model, &dag, &dag_p2);
    runtime_side(&mut p, &model);
    artifact_side(&mut p, &model);
    codec_side(&mut p);
    serve_side(&mut p);
    p.tr.end(root, 1);
    derive_times(&mut p);
    p.values
}

/// models::workload, core::compiler, core::lpu: build what the other
/// probes run on, timing the build.
fn compile_side(p: &mut Probes<'_>) -> (CompiledModel, Flow, Flow) {
    let specs =
        p.tr.timed("models.workload.model_specs", 0, 1, fixtures::vgg_specs);
    let dag_netlist = gen::banded_dag();
    let mut per_pass: Vec<Vec<f64>> = vec![Vec::new(); PASSES.len()];
    let mut last = None;
    for _ in 0..p.reps(5) {
        let layer_specs = specs.clone();
        let model = p.tr.timed("core.model.compile", 0, 1, || {
            fixtures::compile_vgg(layer_specs)
        });
        let dag_p2 = p.tr.timed("core.flow.compile", 0, 1, || {
            fixtures::compile_flow(&dag_netlist, 2)
        });
        let mut reports: Vec<&CompileReport> = model.layers().iter().map(|l| l.report()).collect();
        reports.push(&dag_p2.report);
        for (times, (pass, _)) in per_pass.iter_mut().zip(PASSES) {
            times.push(pass_us(&reports, pass));
        }
        p.values.insert(
            "core.compiler.nodes_after_optimize",
            pass_after(&reports, "optimize"),
        );
        p.values.insert(
            "core.compiler.mfgs_after_merge",
            pass_after(&reports, "merge"),
        );
        let attempts: usize = reports.iter().map(|r| r.schedule_attempts).sum();
        p.values
            .insert("core.compiler.schedule_attempts", attempts as f64);
        last = Some((model, dag_p2));
    }
    for (times, (_, metric)) in per_pass.iter().zip(PASSES) {
        p.set(metric, stats::median(times));
    }
    let (model, dag_p2) = last.expect("at least one compile");
    p.set(
        "core.lpu.sim_cycles_per_image",
        model.cycles_per_image(ServingMode::Throughput),
    );
    p.set("core.lpu.sim_fps", model.fps(ServingMode::Throughput));
    let dag = fixtures::compile_flow(&dag_netlist, 1);
    (model, dag, dag_p2)
}

/// netlist::eval, netlist::partitioned, netlist::patch, core::lpu (host
/// time), core::engine, core::model.
fn kernel_side(p: &mut Probes<'_>, model: &CompiledModel, dag: &Flow, dag_p2: &Flow) {
    let mut rng = Rng::new(p.seed, 10);
    let samples = LANES as u64;

    // The L8 tape, packed inputs straight into the kernel.
    let l8 = model.layers()[7].flow();
    let l8_tape = l8
        .artifacts
        .as_ref()
        .and_then(|a| a.tape.as_ref())
        .expect("fresh flow has its tape");
    let width = l8_tape.num_inputs();
    let rows = gen::random_rows(&mut rng, width, LANES);
    let mut packed = Vec::new();
    Lanes::pack_rows_into(&rows, width, &mut packed);
    let mut frame = l8_tape.frame_with_words(WORDS);
    p.repeat("netlist.eval.kernel", 40, 64, samples, || {
        black_box(
            l8_tape
                .evaluate_packed_with(&packed, width, LANES, &mut frame)
                .expect("arity"),
        );
    });
    p.repeat("netlist.eval.pack", 40, 16, samples, || {
        black_box(Lanes::pack_rows_into(&rows, width, &mut packed));
    });
    let l8_outputs = l8_tape
        .evaluate_packed_with(&packed, width, LANES, &mut frame)
        .expect("arity");
    p.repeat("netlist.eval.unpack", 40, 8, samples, || {
        black_box(Lanes::unpack_rows(&l8_outputs));
    });

    // The DAG tape: the frame that overflows the tile budget.
    let dag_tape = dag
        .artifacts
        .as_ref()
        .and_then(|a| a.tape.as_ref())
        .expect("fresh flow has its tape");
    let dag_batches: Vec<Vec<Lanes>> = (0..crate::workloads::DAG_BATCHES)
        .map(|_| gen::random_columns(&mut rng, gen::DAG_WIDTH, LANES))
        .collect();
    let mut dag_frame = dag_tape.frame_with_words(WORDS);
    p.repeat("netlist.eval.dag_kernel", 120, 1, samples, || {
        black_box(
            dag_tape
                .evaluate_with(&dag_batches[0], LANES, &mut dag_frame)
                .expect("arity"),
        );
    });
    let tape_stats = dag_tape.tape_stats();
    p.set("netlist.eval.tape_len", tape_stats.tape_len as f64);
    p.set("netlist.eval.frame_slots", tape_stats.frame_slots as f64);
    p.set("netlist.eval.tile_words", tape_stats.tile_words() as f64);
    p.set(
        "netlist.eval.frame_bytes",
        tape_stats.frame_bytes(WORDS) as f64,
    );
    p.set("netlist.eval.fused_chains", tape_stats.fused_chains as f64);

    // Partitioned execution of the same DAG, default executor choice.
    let p2 = dag_p2
        .partitioned
        .as_ref()
        .expect("partitions=2 flow carries its engine");
    let mut frames = p2.frames_with_words(WORDS);
    p.repeat("netlist.partitioned.p2", 120, 1, samples, || {
        black_box(
            p2.evaluate_with(&dag_batches[0], LANES, &mut frames)
                .expect("arity"),
        );
    });
    let part_stats = p2.partition_stats();
    p.set("netlist.partitioned.cut_nets", part_stats.cut_nets as f64);
    p.set(
        "netlist.partitioned.cut_copies",
        part_stats.cut_copies as f64,
    );
    p.set(
        "netlist.partitioned.exchange_kib_per_block",
        (part_stats.exchange_words(WORDS) * 8) as f64 / 1024.0,
    );
    p.set(
        "netlist.partitioned.max_frame_slots",
        part_stats.max_frame_slots as f64,
    );
    let dag_p3 = fixtures::compile_flow(&dag.source, 3);
    let p3 = dag_p3
        .partitioned
        .as_ref()
        .expect("partitions=3 flow carries its engine");
    let mut frames = p3.frames_with_words(WORDS);
    p.repeat("netlist.partitioned.p3", 120, 1, samples, || {
        black_box(
            p3.evaluate_with(&dag_batches[0], LANES, &mut frames)
                .expect("arity"),
        );
    });

    // Rewriting 8 cells of the DAG tape in place.
    let patch = gen::random_patch(&mut rng, &[&dag.netlist], PATCH_CELLS)
        .remove(0)
        .1;
    p.repeat("netlist.patch.patched", 20, 1, 1, || {
        black_box(dag_tape.patched(&patch).expect("valid patch"));
    });

    // The cycle-accurate machine on L8: simulator speed, as host time.
    let scalar = Flow::builder(&l8.source)
        .config(LpuConfig::paper_default())
        .backend(Backend::Scalar)
        .compile()
        .and_then(Flow::into_engine)
        .expect("L8 compiles for the scalar machine");
    let l8_cols = Lanes::pack_rows(&rows, width);
    let mut scratch = EngineScratch::new();
    p.repeat("core.lpu.scalar", 10, 1, samples, || {
        black_box(
            scalar
                .run_batch_with(&mut scratch, &l8_cols)
                .expect("scalar run"),
        );
    });

    // Engine entry points over the same tapes.
    let l8_engine = model.layers()[7].engine().expect("engine builds");
    p.repeat("core.engine.run_batch", 40, 64, samples, || {
        black_box(
            l8_engine
                .run_batch_with(&mut scratch, &l8_cols)
                .expect("run"),
        );
    });
    let mut dag_engine = dag.engine().expect("engine builds").with_workers(1);
    p.repeat(
        "core.engine.run_batches",
        15,
        1,
        samples * dag_batches.len() as u64,
        || {
            black_box(dag_engine.run_batches(&dag_batches).expect("run"));
        },
    );
    p.set(
        "core.engine.batches_served",
        dag_engine.batches_served() as f64,
    );

    // The whole model, then each of its layers alone on the inputs the
    // chain hands it; the difference is what joining layers costs.
    let batch = gen::random_columns(&mut rng, model.layers()[0].flow().program.num_inputs, LANES);
    let mut model_scratch = ModelScratch::new();
    p.repeat("core.model.infer", 200, 1, samples, || {
        black_box(model.infer_with(&mut model_scratch, &batch).expect("infer"));
    });
    let reference = model.infer_with(&mut model_scratch, &batch).expect("infer");
    for (i, layer) in model.layers().iter().enumerate() {
        let want = layer.flow().program.num_inputs;
        let inputs = match i {
            0 => batch.clone(),
            _ if reference.layer_outputs[i - 1].len() == want => {
                reference.layer_outputs[i - 1].clone()
            }
            _ => chain_inputs(&reference.layer_outputs[i - 1], want),
        };
        let engine = layer.engine().expect("engine builds");
        for _ in 0..p.reps(200) {
            let open = p.tr.begin("core.model.layer", i as u64 + 1);
            black_box(engine.run_batch_with(&mut scratch, &inputs).expect("run"));
            p.tr.end(open, samples);
        }
    }
}

/// core::runtime under saturation: the `runtime_saturated` loop, short.
fn runtime_side(p: &mut Probes<'_>, model: &CompiledModel) {
    let l8 = model.layers()[7].flow();
    let netlist: &Netlist = &l8.source;
    let runtime = Runtime::from_engine(
        l8.engine().expect("engine builds"),
        RuntimeOptions::default().workers(1),
    )
    .expect("runtime starts");
    let rows = gen::random_rows(&mut Rng::new(p.seed, 11), netlist.inputs().len(), 4096);
    let oracle = fixtures::oracle_rows(&[netlist], &rows);
    let mut op = SaturateOp::new(&runtime, &rows, &oracle, crate::workloads::SAT_DEPTH);
    let stretch = std::time::Duration::from_secs_f64(0.1 * p.scale.max(0.2));
    drive(&mut op, &mut Tracer::off(), stretch);
    let phase = drive(&mut op, p.tr, 8 * stretch);
    op.finish();
    drop(op);
    assert_eq!(phase.failed, 0, "saturated runtime probe answered wrongly");
    p.set("core.runtime.req_per_s", phase.throughput());

    p.repeat("core.runtime.stats", 20, 1, 1, || {
        black_box(runtime.stats());
    });
    let s = runtime.stats();
    p.set("core.runtime.micro_batches", s.micro_batches as f64);
    p.set("core.runtime.full_flushes", s.full_flushes as f64);
    p.set("core.runtime.deadline_flushes", s.deadline_flushes as f64);
    p.set("core.runtime.mean_lanes_per_batch", s.mean_lanes_per_batch);
    p.set(
        "core.runtime.fill_ratio",
        s.mean_lanes_per_batch / runtime.flush_target() as f64,
    );
    p.set("core.runtime.peak_depth", s.queue.peak_depth as f64);
    p.set("core.runtime.shed", s.shed as f64);
    p.set("core.runtime.queue_p50_us", s.queue.p50_us);
    p.set("core.runtime.queue_p99_us", s.queue.p99_us);

    for _ in 0..p.reps(10) {
        let engine = l8.engine().expect("engine builds");
        p.tr.timed("core.runtime.swap", 0, 1, || {
            runtime.swap_engine(engine).expect("swap")
        });
    }
}

/// core::artifact: save, load, and the patch delta both ways.
fn artifact_side(p: &mut Probes<'_>, model: &CompiledModel) {
    let bytes = model.to_artifact_bytes().expect("model serialises");
    p.set("core.artifact.bytes", bytes.len() as f64);
    p.repeat("core.artifact.save", 10, 1, 1, || {
        black_box(model.to_artifact_bytes().expect("model serialises"));
    });
    p.repeat("core.artifact.load", 10, 1, 1, || {
        black_box(CompiledModel::from_artifact_bytes(&bytes).expect("model loads"));
    });
    let mapped: Vec<&Netlist> = model.layers().iter().map(|l| &l.flow().netlist).collect();
    let patch = gen::random_patch(&mut Rng::new(p.seed, 12), &mapped, PATCH_CELLS);
    let delta = model.make_delta(&patch).expect("delta for a valid patch");
    p.set("core.artifact.delta_bytes", delta.len() as f64);
    p.repeat("core.artifact.delta_make", 10, 1, 1, || {
        black_box(model.make_delta(&patch).expect("delta"));
    });
    p.repeat("core.artifact.delta_apply", 10, 1, 1, || {
        black_box(model.apply_delta(&delta).expect("delta applies"));
    });
}

/// serve::wire and serve::http: the codecs alone, no socket.
fn codec_side(p: &mut Probes<'_>) {
    let specs = fixtures::jsc_specs();
    let inputs = specs[0].netlist.inputs().len();
    let outputs = specs.last().expect("layers").netlist.outputs().len();
    let mut rng = Rng::new(p.seed, 13);
    let request = InferRequest {
        model: JSC_NAME.to_string(),
        bits: gen::random_rows(&mut rng, inputs, 1).remove(0),
    };
    let response = InferResponse {
        status: Status::Ok,
        bits: gen::random_rows(&mut rng, outputs, 1).remove(0),
        message: String::new(),
    };
    let request_payload = wire::encode_request(&request);
    let response_payload = wire::encode_response(&response);
    p.set(
        "serve.wire.request_bytes",
        bin_frame(&request_payload).len() as f64,
    );
    p.set(
        "serve.wire.response_bytes",
        bin_frame(&response_payload).len() as f64,
    );
    p.repeat("serve.wire.encode_request", 40, 256, 1, || {
        black_box(wire::encode_request(black_box(&request)));
    });
    p.repeat("serve.wire.decode_request", 40, 256, 1, || {
        black_box(wire::decode_request(black_box(&request_payload)).expect("decodes"));
    });
    p.repeat("serve.wire.encode_response", 40, 256, 1, || {
        black_box(wire::encode_response(black_box(&response)));
    });
    p.repeat("serve.wire.decode_response", 40, 256, 1, || {
        black_box(wire::decode_response(black_box(&response_payload)).expect("decodes"));
    });

    let raw = http_request(&format!("/v1/models/{JSC_NAME}/infer"), &request.bits);
    let body: String = response
        .bits
        .iter()
        .map(|&b| if b { "1" } else { "0" })
        .collect::<String>()
        + "\n";
    let mut written = Vec::new();
    http::write_response(&mut written, 200, &body, true).expect("writes to a Vec");
    p.set("serve.http.request_bytes", raw.len() as f64);
    p.set("serve.http.response_bytes", written.len() as f64);
    let limits = WireLimits::default();
    let mut buf = Vec::new();
    p.repeat("serve.http.read_request", 40, 256, 1, || {
        buf.clear();
        let outcome = http::read_request(&mut Cursor::new(black_box(&raw)), &mut buf, &limits);
        assert!(matches!(outcome, http::ReadOutcome::Ready(_)));
    });
    p.repeat("serve.http.write_response", 40, 256, 1, || {
        written.clear();
        http::write_response(&mut written, 200, black_box(&body), true).expect("writes to a Vec");
    });
}

/// serve::registry and serve::server: an in-process registry for the
/// calls a connection thread makes, and a live server with one binary
/// and one HTTP connection for what the client sees.
fn serve_side(p: &mut Probes<'_>) {
    let specs = fixtures::jsc_specs();
    let netlists: Vec<Netlist> = specs.iter().map(|s| s.netlist.clone()).collect();
    let layers: Vec<&Netlist> = netlists.iter().collect();
    let model = fixtures::compile_jsc(specs);

    // load_dir: one artifact in a scratch directory of this process.
    let dir = out_dir().join(format!("registry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    model
        .save(dir.join(format!("{JSC_NAME}@1.lbnn")))
        .expect("artifact saves");
    let mut loaded = None;
    for _ in 0..p.reps(5) {
        drop(loaded.take());
        loaded = Some(p.tr.timed("serve.registry.load_dir", 0, 1, || {
            ModelRegistry::load_dir(&dir, &RuntimeOptions::default()).expect("registry loads")
        }));
    }
    let registry = loaded.expect("at least one load");
    let _ = std::fs::remove_dir_all(&dir);

    p.repeat("serve.registry.resolve", 40, 256, 1, || {
        black_box(
            registry
                .resolve(black_box(JSC_NAME))
                .expect("model resolves"),
        );
    });

    let count = p.reps(40);
    let rows = gen::random_rows(
        &mut Rng::new(p.seed, 14),
        layers[0].inputs().len(),
        2 * count,
    );
    let oracle = fixtures::oracle_rows(&layers, &rows);

    // What the client sees: connection A binary, connection B HTTP,
    // taking turns, so the server is otherwise idle.
    let served = Served::start(model);
    let mut failed = 0;
    for (turn, protocol) in [Protocol::Binary, Protocol::Http].into_iter().enumerate() {
        let client = protocol.connect(served.addr).expect("client connects");
        let requests: Vec<Vec<u8>> = rows.iter().map(|row| client.encode(row)).collect();
        let mut op = WireOp {
            client,
            requests: &requests,
            oracle: &oracle,
            next: turn * count,
            span: protocol.span(),
            last: None,
        };
        for _ in 0..count {
            op.run(p.tr);
            failed += op.check().1;
        }
    }
    assert_eq!(failed, 0, "wire probe got a wrong or refused response");
    let (report, drain_s) = served.stop();
    p.set(
        "serve.server.connections",
        (report.http_connections + report.binary_connections) as f64,
    );
    p.set(
        "serve.server.requests",
        (report.http_requests + report.binary_requests) as f64,
    );
    p.set(
        "serve.server.protocol_errors",
        report.protocol_errors as f64,
    );
    p.set("serve.server.drain_ms", drain_s * 1e3);
    let wire_stats = report.models[0].stats;
    p.set(
        "core.runtime.wire_fill_ratio",
        wire_stats.mean_lanes_per_batch / LANES as f64,
    );
    p.set(
        "core.runtime.wire_deadline_flushes",
        wire_stats.deadline_flushes as f64,
    );
    p.set("core.runtime.wire_queue_p50_us", wire_stats.queue.p50_us);

    // The same requests replayed in-process through the calls a
    // connection thread makes, so each has a span.
    let limits = WireLimits::default();
    for (i, row) in rows.iter().take(count).enumerate() {
        let req = i as u64 + 1;
        let payload = wire::encode_request(&InferRequest {
            model: JSC_NAME.to_string(),
            bits: row.clone(),
        });
        let open = p.tr.begin("replay.bin", req);
        let decoded =
            p.tr.timed("serve.wire.decode_request.replay", req, 1, || {
                wire::decode_request(&payload)
            })
            .expect("decodes");
        let entry =
            p.tr.timed("serve.registry.resolve.replay", req, 1, || {
                registry.resolve(&decoded.model)
            })
            .expect("resolves");
        let outcome = p.tr.timed("serve.registry.infer", req, 1, || {
            entry.infer(&decoded.bits)
        });
        let InferOutcome::Ok(bits) = outcome else {
            panic!("replayed request was refused: {outcome:?}")
        };
        assert_eq!(bits, oracle[i], "replayed binary request answered wrongly");
        let response = InferResponse {
            status: Status::Ok,
            bits,
            message: String::new(),
        };
        black_box(p.tr.timed("serve.wire.encode_response.replay", req, 1, || {
            wire::encode_response(&response)
        }));
        p.tr.end(open, 1);
    }
    let path = format!("/v1/models/{JSC_NAME}/infer");
    let mut buf = Vec::new();
    let mut written = Vec::new();
    for (i, row) in rows.iter().skip(count).enumerate() {
        let req = (count + i) as u64 + 1;
        let raw = http_request(&path, row);
        let open = p.tr.begin("replay.http", req);
        buf.clear();
        let parsed = p.tr.timed("serve.http.read_request.replay", req, 1, || {
            http::read_request(&mut Cursor::new(&raw), &mut buf, &limits)
        });
        let http::ReadOutcome::Ready(request) = parsed else {
            panic!("replayed request did not parse")
        };
        let bits = parse_bit_body(&request.body).expect("bit-string body");
        let entry =
            p.tr.timed("serve.registry.resolve.replay", req, 1, || {
                registry.resolve(JSC_NAME)
            })
            .expect("resolves");
        let outcome =
            p.tr.timed("serve.registry.infer", req, 1, || entry.infer(&bits));
        let InferOutcome::Ok(bits) = outcome else {
            panic!("replayed request was refused: {outcome:?}")
        };
        assert_eq!(
            bits,
            oracle[count + i],
            "replayed HTTP request answered wrongly"
        );
        let body: String = bits
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .chain(['\n'])
            .collect();
        written.clear();
        p.tr.timed("serve.http.write_response.replay", req, 1, || {
            http::write_response(&mut written, 200, &body, true).expect("writes to a Vec")
        });
        p.tr.end(open, 1);
    }
}

/// Per-sample time of each model layer: spans named `core.model.layer`
/// carry the layer number as their request id.
fn layer_ns_per_sample(spans: &[Span]) -> Vec<f64> {
    let mut sums: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "core.model.layer") {
        let e = sums.entry(s.req).or_default();
        e.0 += s.duration_ns();
        e.1 += s.units;
    }
    sums.values()
        .map(|&(ns, units)| ns as f64 / units.max(1) as f64)
        .collect()
}

/// Time metrics that are total span time over total units of work:
/// `(metric, span name, nanoseconds per metric unit)`.
const PER_UNIT: [(&str, &str, f64); 21] = [
    (
        "netlist.eval.kernel_ns_per_sample",
        "netlist.eval.kernel",
        1.0,
    ),
    ("netlist.eval.pack_ns_per_sample", "netlist.eval.pack", 1.0),
    (
        "netlist.eval.unpack_ns_per_sample",
        "netlist.eval.unpack",
        1.0,
    ),
    (
        "netlist.eval.dag_kernel_ns_per_sample",
        "netlist.eval.dag_kernel",
        1.0,
    ),
    (
        "netlist.partitioned.p2_ns_per_sample",
        "netlist.partitioned.p2",
        1.0,
    ),
    (
        "netlist.partitioned.p3_ns_per_sample",
        "netlist.partitioned.p3",
        1.0,
    ),
    ("netlist.patch.patched_ms", "netlist.patch.patched", 1e6),
    ("core.lpu.scalar_ns_per_sample", "core.lpu.scalar", 1.0),
    (
        "core.engine.run_batch_ns_per_sample",
        "core.engine.run_batch",
        1.0,
    ),
    (
        "core.engine.run_batches_ns_per_sample",
        "core.engine.run_batches",
        1.0,
    ),
    ("core.model.infer_ns_per_sample", "core.model.infer", 1.0),
    ("core.runtime.stats_call_us", "core.runtime.stats", 1e3),
    ("core.runtime.swap_ms", "core.runtime.swap", 1e6),
    ("core.artifact.save_ms", "core.artifact.save", 1e6),
    ("core.artifact.load_ms", "core.artifact.load", 1e6),
    (
        "core.artifact.delta_make_ms",
        "core.artifact.delta_make",
        1e6,
    ),
    (
        "core.artifact.delta_apply_ms",
        "core.artifact.delta_apply",
        1e6,
    ),
    ("serve.registry.resolve_ns", "serve.registry.resolve", 1.0),
    ("serve.registry.load_dir_ms", "serve.registry.load_dir", 1e6),
    ("models.workload.gen_s", "models.workload.model_specs", 1e9),
    (
        "serve.http.write_response_ns",
        "serve.http.write_response",
        1.0,
    ),
];

/// The codec probes: metric and span share a stem.
const CODEC_NS: [(&str, &str); 5] = [
    ("serve.wire.encode_request_ns", "serve.wire.encode_request"),
    ("serve.wire.decode_request_ns", "serve.wire.decode_request"),
    (
        "serve.wire.encode_response_ns",
        "serve.wire.encode_response",
    ),
    (
        "serve.wire.decode_response_ns",
        "serve.wire.decode_response",
    ),
    ("serve.http.read_request_ns", "serve.http.read_request"),
];

/// Reads every time metric back from the spans.
fn derive_times(p: &mut Probes<'_>) {
    let by = by_name(p.tr.spans());
    for (metric, span, ns_per_unit) in PER_UNIT {
        p.set(metric, totals(&by, span).ns_per_unit() / ns_per_unit);
    }
    for (metric, span) in CODEC_NS {
        p.set(metric, totals(&by, span).ns_per_unit());
    }

    // What joining layers costs: the whole model minus its layers alone.
    let layers = layer_ns_per_sample(p.tr.spans());
    let layers_sum: f64 = layers.iter().sum();
    let infer = p.values["core.model.infer_ns_per_sample"];
    p.set("core.model.layers_sum_ns_per_sample", layers_sum);
    p.set("core.model.chain_ns_per_sample", infer - layers_sum);
    p.set(
        "core.model.slowest_layer_ns_per_sample",
        layers.iter().copied().fold(0.0, f64::max),
    );

    // The median: one call in ten blocks on dispatch or backpressure, and
    // the mean follows those.
    p.set(
        "core.runtime.submit_call_ns",
        p50(&by, "core.runtime.submit", 1.0),
    );
    let marshalling = p.values["netlist.eval.pack_ns_per_sample"]
        + p.values["netlist.eval.kernel_ns_per_sample"]
        + p.values["netlist.eval.unpack_ns_per_sample"];
    p.set(
        "core.runtime.overhead_ns_per_req",
        1e9 / p.values["core.runtime.req_per_s"] - marshalling,
    );

    // Client-observed latency minus everything the replay accounts for:
    // sockets, thread hand-off and the kernel's TCP.
    let bin = p50(&by, "client.bin.request", 1e3);
    let http = p50(&by, "client.http.request", 1e3);
    let infer_p50 = p50(&by, "serve.registry.infer", 1e3);
    let shared = p50(&by, "serve.registry.resolve.replay", 1e3) + infer_p50;
    let bin_known = shared
        + p50(&by, "serve.wire.decode_request.replay", 1e3)
        + p50(&by, "serve.wire.encode_response.replay", 1e3);
    let http_known = shared
        + p50(&by, "serve.http.read_request.replay", 1e3)
        + p50(&by, "serve.http.write_response.replay", 1e3);
    p.set("serve.registry.infer_p50_us", infer_p50);
    p.set("serve.server.bin_p50_us", bin);
    p.set("serve.server.http_p50_us", http);
    p.set(
        "serve.server.unattributed_bin_p50_us",
        (bin - bin_known).max(0.0),
    );
    p.set(
        "serve.server.unattributed_http_p50_us",
        (http - http_known).max(0.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{EXACT, PER_LAYER};
    use std::time::Instant;

    /// The whole probe suite on two seeds: every declared metric but the
    /// `bench.*` ones is measured, the inputs differ, and every exact
    /// count is identical.
    #[test]
    fn probes_measure_every_layer_metric_and_exact_counts_ignore_the_seed() {
        let plan = Plan::quick();
        let run = |seed| {
            let mut tr = Tracer::on(Instant::now(), 0);
            let values = probe_all(&mut tr, &plan, seed);
            (values, tr)
        };
        let (a, trace_a) = run(1);
        let (b, _) = run(2);
        for (name, _, _) in PER_LAYER.iter().filter(|m| !m.0.starts_with("bench.")) {
            assert!(a.contains_key(name), "{name} is declared but not measured");
            assert!(a[name].is_finite(), "{name} = {}", a[name]);
        }
        for name in EXACT {
            assert_eq!(a[name], b[name], "{name} moved with the seed");
        }
        assert!(a["serve.server.unattributed_bin_p50_us"] >= 0.0);
        assert!(a["serve.server.unattributed_http_p50_us"] >= 0.0);
        // Replayed requests carry their spans under one request id.
        let spans = trace_a.spans();
        let replay = spans
            .iter()
            .find(|s| s.name == "replay.bin")
            .expect("replay span");
        let children: Vec<_> = spans.iter().filter(|s| s.parent == replay.id).collect();
        assert_eq!(children.len(), 4);
        assert!(children.iter().all(|c| c.req == replay.req));
    }
}
