//! The workloads: what each sets up, what one operation is, and how its
//! outputs are checked. See `README.md` for why each was chosen.
//!
//! Every workload is one closed loop, driven by one load thread, over a
//! fixed, seeded input set. The timed part of an operation is exactly the calls
//! into the system under test; building the next input and comparing the
//! last output with the oracle happen between timed parts.

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Instant;

use lbnn_core::model::{CompiledModel, LayerSpec, ModelInference};
use lbnn_core::{CoreError, Engine, Flow, RequestHandle, Runtime, RuntimeOptions};
use lbnn_netlist::{Lanes, Netlist};
use lbnn_serve::{ModelRegistry, ServeError, ServeReport, Server, ServerHandle, ServerOptions};

use crate::clients::{BinClient, Client, HttpClient};
use crate::fixtures::{self, JSC_NAME, LANES};
use crate::gen::{self, Rng};
use crate::harness::{measure, timed_setups, Measured, Op, Plan};
use crate::trace::Tracer;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 6] = [
    "offline_model",
    "offline_dag",
    "runtime_saturated",
    "serve_wire_bin",
    "serve_wire_http",
    "compile_deploy",
];

/// What one run needs to know.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub plan: Plan,
}

/// What one run of a workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Seconds each set-up took (`Plan::setup_reps` of them).
    pub setup_s: Vec<f64>,
    pub measured: Measured,
    /// What `ops_per_s` counts on this workload.
    pub op_unit: &'static str,
    /// What one latency sample covers on this workload.
    pub latency_of: &'static str,
}

// Independent input streams drawn from the one seed.
const STREAM_BATCHES: u64 = 1;
const STREAM_ROWS: u64 = 2;
const STREAM_PATCH: u64 = 3;
const STREAM_CHECK: u64 = 4;

/// Runs the named workload, or `None` for an unknown name.
pub fn run(name: &str, ctx: &Ctx, tr: &mut Tracer) -> Option<Outcome> {
    Some(match name {
        "offline_model" => offline_model(ctx, tr),
        "offline_dag" => offline_dag(ctx, tr),
        "runtime_saturated" => runtime_saturated(ctx, tr),
        "serve_wire_bin" => serve_wire(ctx, tr, Protocol::Binary),
        "serve_wire_http" => serve_wire(ctx, tr, Protocol::Http),
        "compile_deploy" => compile_deploy(ctx, tr),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// offline_model
// ---------------------------------------------------------------------------

/// Pre-packed batches per `infer_batches` call.
pub const MODEL_BATCHES: usize = 16;

/// One thread calling `CompiledModel::infer_batches` on pre-packed
/// 1024-lane batches.
pub struct ModelOp<'a> {
    pub model: &'a CompiledModel,
    pub batches: &'a [Vec<Lanes>],
    /// Oracle outputs of the last layer, one set per batch.
    pub expected: &'a [Vec<Lanes>],
    pub last: Option<Result<Vec<ModelInference>, CoreError>>,
}

impl Op for ModelOp<'_> {
    fn run(&mut self, tr: &mut Tracer) -> u64 {
        let samples: usize = self.batches.iter().map(|b| b[0].len()).sum();
        // Releasing the previous call's results is part of the operation:
        // a caller pays for the ~49k lane vectors one call hands back.
        self.last = None;
        let out = tr.timed("core.model.infer_batches", 0, samples as u64, || {
            self.model.infer_batches(self.batches)
        });
        self.last = Some(out);
        samples as u64
    }

    fn check(&mut self) -> (u64, u64) {
        let failed = match &self.last {
            Some(Ok(results)) if results.len() == self.expected.len() => u64::from(
                results
                    .iter()
                    .zip(self.expected)
                    .any(|(got, want)| got.outputs() != want),
            ),
            _ => 1,
        };
        (1, failed)
    }
}

fn offline_model(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let (model, setup_s) = timed_setups(ctx.plan.setup_reps, || {
        let model = fixtures::compile_vgg(fixtures::vgg_specs());
        for layer in model.layers() {
            layer.engine().expect("layer engine builds");
        }
        model
    });
    let width = model.layers()[0].flow().program.num_inputs;
    let mut rng = Rng::new(ctx.seed, STREAM_BATCHES);
    let batches: Vec<Vec<Lanes>> = (0..MODEL_BATCHES)
        .map(|_| gen::random_columns(&mut rng, width, LANES))
        .collect();
    let sources = fixtures::source_netlists(&model);
    let expected: Vec<Vec<Lanes>> = batches
        .iter()
        .map(|b| fixtures::oracle_chain(&sources, b))
        .collect();
    let mut op = ModelOp {
        model: &model,
        batches: &batches,
        expected: &expected,
        last: None,
    };
    Outcome {
        setup_s,
        measured: measure(&mut op, tr, &ctx.plan),
        op_unit: "samples",
        latency_of: "one infer_batches call on 16 batches of 1024",
    }
}

// ---------------------------------------------------------------------------
// offline_dag
// ---------------------------------------------------------------------------

/// Pre-packed batches per `run_batches` call.
pub const DAG_BATCHES: usize = 8;

struct DagOp<'a> {
    engine: Engine,
    batches: &'a [Vec<Lanes>],
    expected: &'a [Vec<Lanes>],
    last: Option<Result<Vec<Vec<Lanes>>, CoreError>>,
}

impl Op for DagOp<'_> {
    fn run(&mut self, tr: &mut Tracer) -> u64 {
        let samples = (self.batches.len() * LANES) as u64;
        // As in `ModelOp`: dropping the last results is timed.
        self.last = None;
        let out = tr.timed("core.engine.run_batches", 0, samples, || {
            self.engine.run_batches(self.batches)
        });
        self.last = Some(out.map(|results| results.into_iter().map(|r| r.outputs).collect()));
        samples
    }

    fn check(&mut self) -> (u64, u64) {
        let failed = match &self.last {
            Some(Ok(outputs)) => u64::from(outputs != self.expected),
            _ => 1,
        };
        (1, failed)
    }
}

fn offline_dag(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let ((netlist, engine), setup_s) = timed_setups(ctx.plan.setup_reps, || {
        let netlist = gen::banded_dag();
        let engine = fixtures::compile_flow(&netlist, 1)
            .into_engine()
            .expect("DAG engine builds")
            .with_workers(1);
        (netlist, engine)
    });
    let mut rng = Rng::new(ctx.seed, STREAM_BATCHES);
    let batches: Vec<Vec<Lanes>> = (0..DAG_BATCHES)
        .map(|_| gen::random_columns(&mut rng, gen::DAG_WIDTH, LANES))
        .collect();
    let expected: Vec<Vec<Lanes>> = batches
        .iter()
        .map(|b| fixtures::oracle_chain(&[&netlist], b))
        .collect();
    let mut op = DagOp {
        engine,
        batches: &batches,
        expected: &expected,
        last: None,
    };
    Outcome {
        setup_s,
        measured: measure(&mut op, tr, &ctx.plan),
        op_unit: "samples",
        latency_of: "one run_batches call on 8 batches of 1024",
    }
}

// ---------------------------------------------------------------------------
// runtime_saturated
// ---------------------------------------------------------------------------

/// Requests kept outstanding by the one submitting thread.
pub const SAT_DEPTH: usize = 4096;
/// Requests per timed chunk: the clock is read once per chunk, not once
/// per ~1 µs request.
const SAT_CHUNK: usize = 256;
/// One request in this many is stamped for latency (and, on a traced
/// run, gets spans). Prime, so the stamped requests do not line up with
/// the 1024-request batch boundaries where `submit` also dispatches.
const SAT_SAMPLE: u64 = 251;
/// Distinct seeded requests cycled through.
const SAT_ROWS: usize = 8192;

/// One thread keeping [`SAT_DEPTH`] `submit` handles outstanding.
pub struct SaturateOp<'a> {
    pub runtime: &'a Runtime,
    pub rows: &'a [Vec<bool>],
    pub oracle: &'a [Vec<bool>],
    pub depth: usize,
    pub submitted: u64,
    pub in_flight: VecDeque<(RequestHandle, usize, Option<Instant>)>,
    pub done: Vec<(usize, Result<Vec<bool>, CoreError>)>,
    pub latencies_us: Vec<f64>,
}

impl<'a> SaturateOp<'a> {
    pub fn new(
        runtime: &'a Runtime,
        rows: &'a [Vec<bool>],
        oracle: &'a [Vec<bool>],
        depth: usize,
    ) -> Self {
        SaturateOp {
            runtime,
            rows,
            oracle,
            depth,
            submitted: 0,
            in_flight: VecDeque::with_capacity(depth + 1),
            done: Vec::with_capacity(SAT_CHUNK),
            latencies_us: Vec::new(),
        }
    }
}

impl Op for SaturateOp<'_> {
    fn run(&mut self, tr: &mut Tracer) -> u64 {
        // Dropping the last chunk's responses is timed, like their
        // arrival.
        self.done.clear();
        for _ in 0..SAT_CHUNK {
            let row = (self.submitted % self.rows.len() as u64) as usize;
            let sampled = self.submitted.is_multiple_of(SAT_SAMPLE);
            let req = self.submitted + 1;
            self.submitted += 1;
            let stamp = sampled.then(Instant::now);
            let submitted = if sampled {
                tr.timed("core.runtime.submit", req, 1, || {
                    self.runtime.submit(&self.rows[row])
                })
            } else {
                self.runtime.submit(&self.rows[row])
            };
            match submitted {
                Ok(handle) => self.in_flight.push_back((handle, row, stamp)),
                Err(e) => self.done.push((row, Err(e))),
            }
            if self.in_flight.len() > self.depth {
                let (handle, row, stamp) = self.in_flight.pop_front().expect("non-empty");
                let req = handle.id() + 1;
                let out = if stamp.is_some() {
                    tr.timed("core.runtime.wait", req, 1, || handle.wait())
                } else {
                    handle.wait()
                };
                if let Some(stamp) = stamp {
                    self.latencies_us.push(stamp.elapsed().as_secs_f64() * 1e6);
                }
                self.done.push((row, out));
            }
        }
        self.done.len() as u64
    }

    fn check(&mut self) -> (u64, u64) {
        let failed = self
            .done
            .iter()
            .filter(|(row, out)| !matches!(out, Ok(bits) if *bits == self.oracle[*row]))
            .count() as u64;
        (self.done.len() as u64, failed)
    }

    fn take_latencies_us(&mut self) -> Option<Vec<f64>> {
        Some(std::mem::take(&mut self.latencies_us))
    }

    fn finish(&mut self) {
        for (handle, _, _) in self.in_flight.drain(..) {
            let _ = handle.wait();
        }
    }
}

fn runtime_saturated(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let ((netlist, runtime), setup_s) = timed_setups(ctx.plan.setup_reps, || {
        let netlist = fixtures::l8_netlist();
        let engine = fixtures::compile_flow(&netlist, 1)
            .into_engine()
            .expect("L8 engine builds");
        let runtime = Runtime::from_engine(engine, RuntimeOptions::default().workers(1))
            .expect("runtime starts");
        (netlist, runtime)
    });
    let rows = gen::random_rows(
        &mut Rng::new(ctx.seed, STREAM_ROWS),
        netlist.inputs().len(),
        SAT_ROWS,
    );
    let oracle = fixtures::oracle_rows(&[&netlist], &rows);
    let mut op = SaturateOp::new(&runtime, &rows, &oracle, SAT_DEPTH);
    Outcome {
        setup_s,
        measured: measure(&mut op, tr, &ctx.plan),
        op_unit: "requests",
        latency_of: "submit to response of one request in 251, 4096 outstanding",
    }
}

// ---------------------------------------------------------------------------
// serve_wire_bin / serve_wire_http
// ---------------------------------------------------------------------------
//
// One workload per codec, each with a connection to itself. Taking turns
// on two connections from one thread would not do: the idle turn changes
// when the client's TCP acknowledges, and the 44 ms stall a plain HTTP
// client sees (README, findings) all but vanishes from the HTTP half.

/// Which of the server's two protocols a wire workload speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    Binary,
    Http,
}

impl Protocol {
    pub fn connect(self, addr: SocketAddr) -> io::Result<Box<dyn Client>> {
        Ok(match self {
            Protocol::Binary => Box::new(BinClient::connect(addr, JSC_NAME)?),
            Protocol::Http => Box::new(HttpClient::connect(addr, JSC_NAME)?),
        })
    }

    pub fn span(self) -> &'static str {
        match self {
            Protocol::Binary => "client.bin.request",
            Protocol::Http => "client.http.request",
        }
    }
}

/// An in-process `lbnn-serve`: one model in a registry behind
/// `Server::bind("127.0.0.1:0")` with default runtime and server
/// options, exactly as the `lbnn-serve` binary ships.
pub struct Served {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<Result<ServeReport, ServeError>>>,
}

impl Served {
    pub fn start(model: CompiledModel) -> Served {
        let mut registry = ModelRegistry::new();
        registry
            .insert_model(JSC_NAME, "1", model, RuntimeOptions::default())
            .expect("model registers");
        let server =
            Server::bind("127.0.0.1:0", registry, ServerOptions::default()).expect("server binds");
        Served {
            addr: server.local_addr(),
            handle: server.handle(),
            thread: Some(std::thread::spawn(move || server.serve())),
        }
    }

    /// Shuts the server down and waits for `serve()` to return: its
    /// report, and how long the drain took.
    pub fn stop(mut self) -> (ServeReport, f64) {
        let start = Instant::now();
        self.handle.shutdown();
        let report = self
            .thread
            .take()
            .expect("server thread")
            .join()
            .expect("server thread panicked")
            .expect("server drains");
        (report, start.elapsed().as_secs_f64())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Distinct seeded requests the connection cycles through.
const WIRE_ROWS: usize = 2048;

/// One connection, one request in flight.
pub struct WireOp<'a> {
    pub client: Box<dyn Client>,
    /// Requests encoded ahead of time: client-side encoding is not the
    /// server's latency.
    pub requests: &'a [Vec<u8>],
    pub oracle: &'a [Vec<bool>],
    pub next: usize,
    pub span: &'static str,
    pub last: Option<(usize, io::Result<Option<Vec<bool>>>)>,
}

impl Op for WireOp<'_> {
    fn run(&mut self, tr: &mut Tracer) -> u64 {
        let i = self.next % self.requests.len();
        self.next += 1;
        let out = tr.timed(self.span, self.next as u64, 1, || {
            self.client.roundtrip(&self.requests[i])
        });
        self.last = Some((i, out));
        1
    }

    fn check(&mut self) -> (u64, u64) {
        let ok = matches!(self.last.take(), Some((i, Ok(Some(bits)))) if bits == self.oracle[i]);
        (1, u64::from(!ok))
    }
}

fn serve_wire(ctx: &Ctx, tr: &mut Tracer, protocol: Protocol) -> Outcome {
    let ((served, client, netlists), setup_s) = timed_setups(ctx.plan.setup_reps, || {
        let specs = fixtures::jsc_specs();
        let netlists: Vec<Netlist> = specs.iter().map(|s| s.netlist.clone()).collect();
        let served = Served::start(fixtures::compile_jsc(specs));
        let client = protocol.connect(served.addr).expect("client connects");
        (served, client, netlists)
    });
    let layers: Vec<&Netlist> = netlists.iter().collect();
    let rows = gen::random_rows(
        &mut Rng::new(ctx.seed, STREAM_ROWS),
        layers[0].inputs().len(),
        WIRE_ROWS,
    );
    let oracle = fixtures::oracle_rows(&layers, &rows);
    let requests: Vec<Vec<u8>> = rows.iter().map(|row| client.encode(row)).collect();
    let mut op = WireOp {
        client,
        requests: &requests,
        oracle: &oracle,
        next: 0,
        span: protocol.span(),
        last: None,
    };
    let measured = measure(&mut op, tr, &ctx.plan);
    drop(op);
    drop(served);
    Outcome {
        setup_s,
        measured,
        op_unit: "requests",
        latency_of: "one request, write to full response, 1 in flight on 1 connection",
    }
}

// ---------------------------------------------------------------------------
// compile_deploy
// ---------------------------------------------------------------------------
//
// The write side beside the read side, in one cycle: (a) compile the model
// and the partitioned DAG, (b) serialise both and load them back, (c) patch
// the model an idle runtime serves.

/// Lanes of the batch the freshly loaded artifacts are checked on.
const CHECK_LANES: usize = 64;

/// Compile the model and the partitioned DAG, serialise both, load both
/// back.
struct CompileOp<'a> {
    specs: &'a [LayerSpec],
    dag: &'a Netlist,
    /// Cloned ahead of the timed part: `compile` takes the specs by
    /// value.
    next_specs: Option<Vec<LayerSpec>>,
    model_inputs: Vec<Lanes>,
    model_expected: Vec<Lanes>,
    dag_inputs: Vec<Lanes>,
    dag_expected: Vec<Lanes>,
    last: Option<Result<(CompiledModel, Flow), CoreError>>,
}

impl CompileOp<'_> {
    fn cycle(&mut self, tr: &mut Tracer) -> Result<(CompiledModel, Flow), CoreError> {
        let specs = self
            .next_specs
            .take()
            .unwrap_or_else(|| self.specs.to_vec());
        let model = tr.timed("core.model.compile", 0, 1, || fixtures::compile_vgg(specs));
        let flow = tr.timed("core.flow.compile", 0, 1, || {
            fixtures::compile_flow(self.dag, 2)
        });
        let open = tr.begin("core.artifact.save", 0);
        let model_bytes = model.to_artifact_bytes()?;
        let flow_bytes = flow.to_artifact_bytes()?;
        tr.end(open, 2);
        let open = tr.begin("core.artifact.load", 0);
        let model = CompiledModel::from_artifact_bytes(&model_bytes)?;
        let flow = Flow::from_artifact_bytes(&flow_bytes)?;
        tr.end(open, 2);
        Ok((model, flow))
    }
}

impl Op for CompileOp<'_> {
    fn run(&mut self, tr: &mut Tracer) -> u64 {
        let out = self.cycle(tr);
        self.last = Some(out);
        1
    }

    fn check(&mut self) -> (u64, u64) {
        self.next_specs = Some(self.specs.to_vec());
        let ok = match self.last.take() {
            Some(Ok((model, flow))) => {
                let model_ok = model
                    .infer(&self.model_inputs)
                    .is_ok_and(|r| r.outputs() == self.model_expected);
                let dag_ok = flow
                    .into_engine()
                    .and_then(|mut e| e.run_batch(&self.dag_inputs))
                    .is_ok_and(|r| r.outputs == self.dag_expected);
                model_ok && dag_ok
            }
            _ => false,
        };
        (1, u64::from(!ok))
    }
}

/// Cells one patch rewrites.
pub const PATCH_CELLS: usize = 8;

/// Delta bytes in → new version serving, on an idle runtime.
pub struct PatchOp<'a> {
    pub runtime: &'a Runtime,
    /// The model the runtime serves now; deltas chain from it.
    pub current: CompiledModel,
    /// Its layers' mapped netlists with every patch so far applied: the
    /// oracle of the patched model.
    pub mapped: Vec<Netlist>,
    pub rng: Rng,
    pub rows: &'a [Vec<bool>],
    pub turn: usize,
    /// Made ahead of the timed part: the delta arrives as bytes.
    pub delta: Vec<u8>,
    pub expected: Vec<bool>,
    pub last: Option<Result<Vec<bool>, CoreError>>,
}

impl<'a> PatchOp<'a> {
    pub fn new(
        runtime: &'a Runtime,
        model: CompiledModel,
        rng: Rng,
        rows: &'a [Vec<bool>],
    ) -> Self {
        let mapped = model
            .layers()
            .iter()
            .map(|l| l.flow().netlist.clone())
            .collect();
        let mut op = PatchOp {
            runtime,
            current: model,
            mapped,
            rng,
            rows,
            turn: 0,
            delta: Vec::new(),
            expected: Vec::new(),
            last: None,
        };
        op.prepare();
        op
    }

    /// Draws the next patch, makes its delta against the current model
    /// and computes what the patched model must answer.
    fn prepare(&mut self) {
        let layers: Vec<&Netlist> = self.mapped.iter().collect();
        let patch = gen::random_patch(&mut self.rng, &layers, PATCH_CELLS);
        self.delta = self
            .current
            .make_delta(&patch)
            .expect("delta for a valid patch");
        for (layer, set) in &patch {
            self.mapped[*layer].apply_patches(set).expect("valid patch");
        }
        let layers: Vec<&Netlist> = self.mapped.iter().collect();
        let row = &self.rows[self.turn % self.rows.len()];
        self.expected = fixtures::oracle_rows(&layers, std::slice::from_ref(row)).remove(0);
    }

    fn deploy(&mut self, tr: &mut Tracer) -> Result<Vec<bool>, CoreError> {
        let req = self.turn as u64 + 1;
        let patched = tr.timed("core.artifact.delta_apply", req, 1, || {
            self.current.apply_delta(&self.delta)
        })?;
        // What `ModelEntry::apply_patch` does: the runtime gets a clone,
        // the registry keeps the patched artifact for the next delta.
        tr.timed("core.runtime.swap_model", req, 1, || {
            self.runtime.swap_model(patched.clone())
        })?;
        self.current = patched;
        let row = &self.rows[self.turn % self.rows.len()];
        tr.timed("core.runtime.first_response", req, 1, || {
            self.runtime.submit(row)?.wait()
        })
    }
}

impl Op for PatchOp<'_> {
    fn run(&mut self, tr: &mut Tracer) -> u64 {
        let out = self.deploy(tr);
        self.last = Some(out);
        1
    }

    fn check(&mut self) -> (u64, u64) {
        let ok = matches!(self.last.take(), Some(Ok(bits)) if bits == self.expected);
        self.turn += 1;
        self.prepare();
        (1, u64::from(!ok))
    }
}

/// One deploy: the compile cycle, then a patch of the serving model.
struct DeployOp<'a> {
    compile: CompileOp<'a>,
    patch: PatchOp<'a>,
}

impl Op for DeployOp<'_> {
    fn run(&mut self, tr: &mut Tracer) -> u64 {
        self.compile.run(tr);
        self.patch.run(tr);
        1
    }

    fn check(&mut self) -> (u64, u64) {
        let failed = self.compile.check().1 + self.patch.check().1;
        (1, u64::from(failed > 0))
    }
}

fn compile_deploy(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    // The write side's set-up is producing what a compile consumes and
    // the idle runtime a patch lands on.
    let ((specs, dag, model, runtime), setup_s) = timed_setups(ctx.plan.setup_reps, || {
        let (specs, dag) = (fixtures::vgg_specs(), gen::banded_dag());
        let model = fixtures::compile_vgg(specs.clone());
        let runtime =
            Runtime::from_model(model.clone(), RuntimeOptions::default()).expect("runtime starts");
        (specs, dag, model, runtime)
    });
    let mut rng = Rng::new(ctx.seed, STREAM_CHECK);
    let sources: Vec<&Netlist> = specs.iter().map(|s| &s.netlist).collect();
    let model_inputs = gen::random_columns(&mut rng, sources[0].inputs().len(), CHECK_LANES);
    let model_expected = fixtures::oracle_chain(&sources, &model_inputs);
    let dag_inputs = gen::random_columns(&mut rng, gen::DAG_WIDTH, CHECK_LANES);
    let dag_expected = fixtures::oracle_chain(&[&dag], &dag_inputs);
    let rows = gen::random_rows(
        &mut Rng::new(ctx.seed, STREAM_ROWS),
        sources[0].inputs().len(),
        256,
    );
    let mut op = DeployOp {
        compile: CompileOp {
            specs: &specs,
            dag: &dag,
            next_specs: None,
            model_inputs,
            model_expected,
            dag_inputs,
            dag_expected,
            last: None,
        },
        patch: PatchOp::new(&runtime, model, Rng::new(ctx.seed, STREAM_PATCH), &rows),
    };
    Outcome {
        setup_s,
        measured: measure(&mut op, tr, &ctx.plan),
        op_unit: "deploys",
        latency_of: "compile model + DAG(partitions=2), to bytes, from bytes; \
                     then an 8-cell delta: apply_delta, swap_model, first response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbnn_core::{FlowOptions, LpuConfig};
    use lbnn_netlist::random::RandomDag;

    fn tiny_model() -> CompiledModel {
        let specs = vec![
            LayerSpec::block("L1", RandomDag::strict(8, 4, 6).outputs(4).generate(1)),
            LayerSpec::block("L2", RandomDag::strict(4, 3, 4).outputs(2).generate(2)),
        ];
        let options = FlowOptions {
            backend: fixtures::BACKEND,
            ..FlowOptions::default()
        };
        CompiledModel::compile("tiny", specs, &LpuConfig::new(4, 4), &options).unwrap()
    }

    fn quick_plan() -> Plan {
        Plan {
            measure: std::time::Duration::from_millis(10),
            warmup: std::time::Duration::ZERO,
            setup_reps: 1,
            probe_scale: 0.1,
        }
    }

    #[test]
    fn offline_check_passes_on_oracle_rows_and_trips_on_a_corrupted_one() {
        let model = tiny_model();
        let mut rng = Rng::new(3, STREAM_BATCHES);
        let batches: Vec<Vec<Lanes>> = (0..2)
            .map(|_| gen::random_columns(&mut rng, 8, 100))
            .collect();
        let sources = fixtures::source_netlists(&model);
        let mut expected: Vec<Vec<Lanes>> = batches
            .iter()
            .map(|b| fixtures::oracle_chain(&sources, b))
            .collect();
        let run = |expected: &[Vec<Lanes>]| {
            let mut op = ModelOp {
                model: &model,
                batches: &batches,
                expected,
                last: None,
            };
            measure(&mut op, &mut Tracer::off(), &quick_plan()).untraced
        };
        let clean = run(&expected);
        assert!(clean.attempted > 0);
        assert_eq!(clean.failed, 0);
        // One wrong bit in one expected row of one batch.
        let flipped = !expected[1][0].get(7);
        expected[1][0].set(7, flipped);
        let tripped = run(&expected);
        assert_eq!(tripped.failed, tripped.attempted);
    }

    #[test]
    fn runtime_check_trips_on_a_corrupted_oracle_row() {
        let netlist = RandomDag::strict(8, 4, 6).outputs(4).generate(5);
        let engine = Flow::builder(&netlist)
            .config(LpuConfig::new(4, 4))
            .backend(fixtures::BACKEND)
            .compile()
            .unwrap()
            .into_engine()
            .unwrap();
        let runtime = Runtime::from_engine(engine, RuntimeOptions::default().workers(1)).unwrap();
        let rows = gen::random_rows(&mut Rng::new(1, STREAM_ROWS), 8, 64);
        let mut oracle = fixtures::oracle_rows(&[&netlist], &rows);
        let run = |oracle: &[Vec<bool>]| {
            let mut op = SaturateOp::new(&runtime, &rows, oracle, 32);
            measure(&mut op, &mut Tracer::off(), &quick_plan()).untraced
        };
        let clean = run(&oracle);
        assert!(clean.attempted > 0 && !clean.latencies_us.is_empty());
        assert_eq!(clean.failed, 0);
        oracle[3][0] = !oracle[3][0];
        let tripped = run(&oracle);
        // Row 3 comes round once per 64 requests (the test has 64 rows).
        assert!(tripped.failed > 0 && tripped.failed <= tripped.attempted / 64 + 1);
    }

    #[test]
    fn patched_runtime_answers_what_the_patched_netlists_compute() {
        let model = tiny_model();
        let runtime = Runtime::from_model(model.clone(), RuntimeOptions::default()).unwrap();
        let rows = gen::random_rows(&mut Rng::new(2, STREAM_ROWS), 8, 16);
        let mut op = PatchOp::new(&runtime, model, Rng::new(2, STREAM_PATCH), &rows);
        let mut failed = 0;
        for _ in 0..6 {
            op.run(&mut Tracer::off());
            // Corrupt the expectation of the fourth deploy only.
            if op.turn == 3 {
                op.expected[0] = !op.expected[0];
            }
            failed += op.check().1;
        }
        assert_eq!(failed, 1);
        assert_eq!(runtime.version(), 6);
    }
}
