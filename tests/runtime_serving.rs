//! The serving runtime's contract, end to end: concurrent single-sample
//! requests through the `Runtime` worker pool must be bit-identical to
//! the sequential scalar reference engine, on both backends, for any
//! request count and arrival pattern — plus the accounting and
//! backpressure guarantees the runtime makes.

use std::sync::Arc;
use std::time::Duration;

use lbnn::netlist::random::RandomDag;
use lbnn::netlist::Lanes;
use lbnn::{
    Backend, CompiledModel, EngineScratch, Flow, FlowOptions, LayerSpec, LpuConfig, RequestHandle,
    Runtime, RuntimeOptions, RuntimeStats,
};
use proptest::prelude::*;

/// Deterministic request bits: request `r` of width `width`.
fn request_bits(width: usize, r: u64, salt: u64) -> Vec<bool> {
    (0..width)
        .map(|i| {
            let x = r
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(salt)
                .wrapping_add((i as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
            (x ^ (x >> 29)) & 1 != 0
        })
        .collect()
}

/// Packs per-request bit vectors into one wide batch (`lane j` =
/// request `j`).
fn pack(requests: &[Vec<bool>], width: usize) -> Vec<Lanes> {
    Lanes::pack_rows(requests, width)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// The headline invariant (ISSUE 4 acceptance, widened by ISSUE 5):
    /// for any request count, worker count, micro-batch size and arrival
    /// pattern, on every backend width, every `Runtime` response is
    /// bit-identical to the sequential scalar reference engine serving
    /// the same sample alone. `max_batch` 0 exercises the auto flush
    /// target (the engine's lane width).
    #[test]
    fn runtime_is_bit_identical_to_sequential_reference(
        seed in 0u64..500,
        requests in 1usize..130,
        workers in 1usize..4,
        max_batch in 0usize..80,
        backend_idx in 0usize..5,
        burst in 1usize..20,
    ) {
        let netlist = RandomDag::strict(9, 4, 7).outputs(3).generate(seed);
        // 0 = scalar; 1..5 = every supported bit-slice width.
        let backend = match backend_idx {
            0 => Backend::Scalar,
            i => Backend::BitSliced { words: 1 << (i - 1) },
        };
        let flow = Flow::builder(&netlist)
            .config(LpuConfig::new(4, 4))
            .backend(backend)
            .compile()
            .unwrap();
        // The reference: the *scalar* cycle-accurate engine, each request
        // served alone on a single lane.
        let reference = Flow::builder(&netlist)
            .config(LpuConfig::new(4, 4))
            .compile()
            .unwrap()
            .into_engine()
            .unwrap();
        let mut scratch = EngineScratch::new();

        let width = netlist.inputs().len();
        let runtime = Runtime::from_engine(
            flow.into_engine().unwrap(),
            RuntimeOptions::default()
                .workers(workers)
                .max_batch(max_batch),
        )
        .unwrap();

        // Arrival pattern: submit in bursts of `burst`, flushing between
        // bursts, so micro-batches form at irregular sizes (which ones
        // depends on when workers free up — any composition must serve
        // the same bits).
        let mut handles: Vec<RequestHandle> = Vec::with_capacity(requests);
        for r in 0..requests {
            handles.push(runtime.submit(&request_bits(width, r as u64, seed)).unwrap());
            if (r + 1) % burst == 0 {
                runtime.flush();
            }
        }
        runtime.flush();

        for (r, handle) in handles.into_iter().enumerate() {
            prop_assert_eq!(handle.id(), r as u64);
            let got = handle.wait().unwrap();
            let single: Vec<Lanes> = request_bits(width, r as u64, seed)
                .iter()
                .map(|&b| Lanes::from_bools(&[b]))
                .collect();
            let want: Vec<bool> = reference
                .run_batch_with(&mut scratch, &single)
                .unwrap()
                .outputs
                .iter()
                .map(|o| o.get(0))
                .collect();
            prop_assert_eq!(got, want, "backend {} request {}", backend, r);
        }
        let stats = runtime.stats();
        prop_assert_eq!(stats.requests, requests as u64);
        let flush_target = runtime.flush_target() as u64;
        prop_assert!(stats.micro_batches >= (requests as u64).div_ceil(flush_target));
        assert_batches_partition_requests(&stats);
    }
}

/// Invariants of the micro-batcher's accounting that hold however the
/// requests were cut into batches: every batch left by exactly one
/// trigger, and the batches' lanes sum to the requests served.
fn assert_batches_partition_requests(stats: &RuntimeStats) {
    assert_eq!(
        stats.micro_batches,
        stats.full_flushes + stats.deadline_flushes,
        "{stats:?}"
    );
    let lanes = stats.mean_lanes_per_batch * stats.micro_batches as f64;
    assert!((lanes - stats.requests as f64).abs() < 1e-6, "{stats:?}");
}

/// Concurrent submitters on one shared runtime: responses stay paired
/// with their own requests (no cross-request lane mixups), bit-exact
/// against the packed sequential engine.
#[test]
fn concurrent_submitters_get_their_own_answers() {
    let netlist = RandomDag::strict(10, 5, 8).outputs(4).generate(77);
    let width = netlist.inputs().len();
    for backend in [Backend::Scalar, Backend::BitSliced { words: 1 }] {
        let flow = Flow::builder(&netlist)
            .config(LpuConfig::new(5, 4))
            .backend(backend)
            .compile()
            .unwrap();
        let reference = flow.engine().unwrap();
        let runtime = Arc::new(
            Runtime::from_engine(
                flow.engine().unwrap(),
                RuntimeOptions::default().workers(2).max_batch(16),
            )
            .unwrap(),
        );
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let runtime = Arc::clone(&runtime);
                let reference = &reference;
                scope.spawn(move || {
                    let mut scratch = EngineScratch::new();
                    let requests: Vec<Vec<bool>> =
                        (0..25).map(|r| request_bits(width, r, t)).collect();
                    let handles: Vec<RequestHandle> = requests
                        .iter()
                        .map(|bits| runtime.submit(bits).unwrap())
                        .collect();
                    runtime.flush();
                    let packed = pack(&requests, width);
                    let expect = reference.run_batch_with(&mut scratch, &packed).unwrap();
                    for (j, handle) in handles.into_iter().enumerate() {
                        let got = handle.wait().unwrap();
                        let want: Vec<bool> = expect.outputs.iter().map(|o| o.get(j)).collect();
                        assert_eq!(got, want, "thread {t} request {j} on {backend}");
                    }
                });
            }
        });
        assert_eq!(runtime.stats().requests, 100);
    }
}

/// A runtime over a whole `CompiledModel` chains every layer per
/// request, bit-identically to `CompiledModel::infer` on the packed
/// batch.
#[test]
fn model_runtime_matches_whole_model_inference() {
    let specs = vec![
        LayerSpec::block("L1", RandomDag::strict(8, 4, 6).outputs(5).generate(21)),
        LayerSpec::block("L2", RandomDag::strict(5, 3, 4).outputs(3).generate(22)),
    ];
    let config = LpuConfig::new(4, 4);
    for backend in [Backend::Scalar, Backend::BitSliced { words: 1 }] {
        let options = FlowOptions {
            backend,
            ..Default::default()
        };
        let model = CompiledModel::compile("serve", specs.clone(), &config, &options).unwrap();
        let width = model.layers()[0].flow().program.num_inputs;
        let requests: Vec<Vec<bool>> = (0..70).map(|r| request_bits(width, r, 5)).collect();
        let expect = model.infer(&pack(&requests, width)).unwrap();

        let runtime = Runtime::from_model(model, RuntimeOptions::default().workers(2)).unwrap();
        let handles: Vec<RequestHandle> = requests
            .iter()
            .map(|bits| runtime.submit(bits).unwrap())
            .collect();
        runtime.flush();
        for (j, handle) in handles.into_iter().enumerate() {
            let got = handle.wait().unwrap();
            let want: Vec<bool> = expect.outputs().iter().map(|o| o.get(j)).collect();
            assert_eq!(got, want, "request {j} on {backend}");
        }
        // How the 70 requests were cut into micro-batches depends on
        // when workers freed up; every cut carries each request once.
        let stats = runtime.stats();
        assert_eq!(stats.requests, 70);
        assert!(stats.micro_batches >= 2, "70 requests > one 64-lane batch");
        assert_batches_partition_requests(&stats);
    }
}

/// Regression: `batches_served` counts every batch exactly once whether
/// batches flow through repeated `run_batches` calls or the runtime's
/// micro-batcher.
#[test]
fn batches_served_is_exact_across_all_serving_paths() {
    let netlist = RandomDag::strict(8, 4, 6).outputs(2).generate(41);
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(4, 4))
        .compile()
        .unwrap();
    let width = netlist.inputs().len();
    let batches: Vec<Vec<Lanes>> = (0..10)
        .map(|b| {
            pack(
                &(0..8)
                    .map(|r| request_bits(width, r, b))
                    .collect::<Vec<_>>(),
                width,
            )
        })
        .collect();

    // Three sequential calls.
    let mut engine = flow.engine().unwrap();
    engine.run_batches(&batches).unwrap();
    assert_eq!(engine.batches_served(), 10);
    engine.run_batches(&batches).unwrap();
    engine.run_batches(&batches).unwrap();
    assert_eq!(engine.batches_served(), 30);

    // Runtime path: every micro-batch is accounted exactly once, however
    // the 96 requests were cut (at least the three 32-lane batches the
    // size trigger alone would make).
    let runtime =
        Runtime::from_engine(engine, RuntimeOptions::default().workers(2).max_batch(32)).unwrap();
    let handles: Vec<RequestHandle> = (0..96)
        .map(|r| runtime.submit(&request_bits(width, r, 9)).unwrap())
        .collect();
    runtime.flush();
    for handle in handles {
        handle.wait().unwrap();
    }
    let stats = runtime.stats();
    assert_eq!(stats.requests, 96);
    assert!(stats.micro_batches >= 3, "96 requests / 32-lane batches");
    assert_batches_partition_requests(&stats);
}

/// Backpressure end to end: a tiny bounded queue and micro-batches still
/// deliver every response — including a trailing request that never
/// fills a batch, with no `flush()` to help it.
#[test]
fn backpressure_and_deadline_flush_deliver_every_response() {
    let netlist = RandomDag::strict(8, 4, 6).outputs(3).generate(13);
    let width = netlist.inputs().len();
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(4, 4))
        .backend(Backend::BitSliced { words: 1 })
        .compile()
        .unwrap();
    let reference = flow.engine().unwrap();
    let runtime = Runtime::from_engine(
        flow.engine().unwrap(),
        RuntimeOptions::default()
            .workers(1)
            .max_batch(2)
            .queue_capacity(1),
    )
    .unwrap();
    // 101 requests through 2-lane batches under a capacity-1 queue
    // (constant backpressure): an odd count, so at least one batch
    // leaves unfilled, and nothing but the runtime itself dispatches it.
    let requests: Vec<Vec<bool>> = (0..101).map(|r| request_bits(width, r, 3)).collect();
    let handles: Vec<RequestHandle> = requests
        .iter()
        .map(|bits| runtime.submit(bits).unwrap())
        .collect();
    let expect = reference
        .run_batch_with(&mut EngineScratch::new(), &pack(&requests, width))
        .unwrap();
    for (j, handle) in handles.into_iter().enumerate() {
        let want: Vec<bool> = expect.outputs.iter().map(|o| o.get(j)).collect();
        assert_eq!(handle.wait().unwrap(), want, "request {j}");
    }
    let stats = runtime.stats();
    assert_eq!(stats.requests, 101);
    assert!(stats.micro_batches >= 51, "{stats:?}");
    assert!(stats.deadline_flushes >= 1, "{stats:?}");
    assert_batches_partition_requests(&stats);
}

/// Negates every primary-output cell of `flow`'s mapped netlist: the
/// strongest observable patch. Every output bit flips for every input,
/// so a torn response — one mixing vN and vN+1 cells — matches
/// *neither* version's oracle and cannot hide.
fn negate_outputs(flow: &Flow) -> lbnn::PatchSet {
    let outputs: std::collections::BTreeSet<_> =
        flow.netlist.outputs().iter().map(|o| o.node).collect();
    let patches: lbnn::PatchSet = outputs
        .into_iter()
        .map(|id| {
            let negated = flow
                .netlist
                .node(id)
                .op()
                .negated()
                .expect("output cells of a random DAG are gates");
            (id, negated)
        })
        .collect();
    assert!(!patches.is_empty());
    patches
}

/// ISSUE 7 acceptance: `swap_engine` under concurrent traffic. Four
/// submitters push 2000 requests through the runtime while the main
/// thread hot-swaps v0 → v1 mid-stream. Every response must be
/// bit-identical to exactly one version's oracle — never torn, never
/// dropped — and the per-version counters must account for every
/// request.
#[test]
fn hot_swap_under_traffic_never_tears_or_drops() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 500; // 2000 in flight across the swap
    let netlist = RandomDag::strict(10, 5, 8).outputs(4).generate(99);
    let width = netlist.inputs().len();
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(5, 4))
        .backend(Backend::BitSliced { words: 2 })
        .compile()
        .unwrap();
    let patches = negate_outputs(&flow);
    let patched_flow = flow.apply_patches(&patches).unwrap();

    // Both versions' oracles for every request, computed up front from
    // the packed sequential engines.
    let base_ref = flow.engine().unwrap();
    let patched_ref = patched_flow.engine().unwrap();
    let mut scratch = EngineScratch::new();
    let mut base_want: Vec<Vec<Vec<bool>>> = Vec::with_capacity(THREADS);
    let mut patched_want: Vec<Vec<Vec<bool>>> = Vec::with_capacity(THREADS);
    for t in 0..THREADS {
        let requests: Vec<Vec<bool>> = (0..PER_THREAD)
            .map(|r| request_bits(width, r as u64, t as u64))
            .collect();
        let packed = pack(&requests, width);
        let b = base_ref
            .run_batch_with(&mut scratch, &packed)
            .unwrap()
            .outputs;
        let p = patched_ref
            .run_batch_with(&mut scratch, &packed)
            .unwrap()
            .outputs;
        let rows = |outs: &[Lanes]| -> Vec<Vec<bool>> {
            (0..PER_THREAD)
                .map(|j| outs.iter().map(|o| o.get(j)).collect())
                .collect()
        };
        base_want.push(rows(&b));
        patched_want.push(rows(&p));
    }
    for t in 0..THREADS {
        for j in 0..PER_THREAD {
            assert_ne!(
                base_want[t][j], patched_want[t][j],
                "negated outputs must make the versions distinguishable on every request"
            );
        }
    }

    let runtime = Arc::new(
        Runtime::from_engine(
            flow.engine().unwrap(),
            RuntimeOptions::default().workers(2).max_batch(8),
        )
        .unwrap(),
    );
    assert_eq!(runtime.version(), 0);

    let matched_old = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let matched_new = Arc::new(std::sync::atomic::AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let runtime = Arc::clone(&runtime);
            let matched_old = Arc::clone(&matched_old);
            let matched_new = Arc::clone(&matched_new);
            let base_want = &base_want[t];
            let patched_want = &patched_want[t];
            scope.spawn(move || {
                let handles: Vec<RequestHandle> = (0..PER_THREAD)
                    .map(|r| {
                        runtime
                            .submit(&request_bits(width, r as u64, t as u64))
                            .unwrap()
                    })
                    .collect();
                runtime.flush();
                for (j, handle) in handles.into_iter().enumerate() {
                    // Zero drops: every accepted request resolves.
                    let got = handle.wait().unwrap();
                    if got == base_want[j] {
                        matched_old.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    } else if got == patched_want[j] {
                        matched_new.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    } else {
                        panic!("torn response: thread {t} request {j} matches neither v0 nor v1");
                    }
                }
            });
        }
        // Swap mid-traffic.
        std::thread::sleep(Duration::from_millis(2));
        let version = runtime.swap_engine(patched_flow.engine().unwrap()).unwrap();
        assert_eq!(version, 1);
    });
    runtime.drain();

    let total = (THREADS * PER_THREAD) as u64;
    let old = matched_old.load(std::sync::atomic::Ordering::Relaxed);
    let new = matched_new.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        old + new,
        total,
        "every response matched exactly one version"
    );
    let stats = runtime.stats();
    assert_eq!(stats.requests, total);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.version, 1);
    assert_eq!(
        stats.completed_current + stats.completed_prior,
        total,
        "{stats:?}"
    );

    // After the dust settles the runtime serves v1 exclusively.
    let post: Vec<bool> = request_bits(width, 7, 1);
    let handle = runtime.submit(&post).unwrap();
    runtime.flush();
    let got = handle.wait().unwrap();
    assert_eq!(got, patched_want[1][7], "post-swap requests serve v1");
}

/// `swap_engine` across a *partition-count change* under concurrent
/// traffic. v0 serves the engine of a single-partition flow, v1 that of
/// a 3-way partitioned flow of the negated netlist, v2 that of an 8-way
/// partitioned flow of the original netlist — every response must be
/// bit-identical to exactly one version's fresh-compile oracle (never
/// torn), and the post-swap runtime must serve the new bits.
#[test]
fn hot_swap_across_partition_count_change_under_traffic() {
    const THREADS: usize = 3;
    const PER_THREAD: usize = 300;
    let netlist = RandomDag::loose(10, 5, 8).outputs(4).generate(41);
    let width = netlist.inputs().len();
    let config = LpuConfig::new(5, 4);
    let backend = Backend::BitSliced { words: 2 };
    let flow = Flow::builder(&netlist)
        .config(config)
        .backend(backend)
        .compile()
        .unwrap();
    let patches = negate_outputs(&flow);
    let patched_flow = flow.apply_patches(&patches).unwrap();
    // The v1 engine: a *fresh compile* of the patched netlist at 3
    // partitions (not a patch of the running engine) — the swap
    // interface only checks arity, so partition counts may change.
    let v1_flow = Flow::builder(&patched_flow.netlist)
        .config(config)
        .backend(backend)
        .partitions(3)
        .optimize(false)
        .merge(false)
        .compile()
        .unwrap();
    assert_eq!(v1_flow.partitioned.as_ref().unwrap().num_partitions(), 3);

    let base_ref = flow.engine().unwrap();
    let v1_ref = v1_flow.engine().unwrap();
    let mut scratch = EngineScratch::new();
    let mut base_want: Vec<Vec<Vec<bool>>> = Vec::with_capacity(THREADS);
    let mut v1_want: Vec<Vec<Vec<bool>>> = Vec::with_capacity(THREADS);
    for t in 0..THREADS {
        let requests: Vec<Vec<bool>> = (0..PER_THREAD)
            .map(|r| request_bits(width, r as u64, 0x700 + t as u64))
            .collect();
        let packed = pack(&requests, width);
        let b = base_ref
            .run_batch_with(&mut scratch, &packed)
            .unwrap()
            .outputs;
        let p = v1_ref
            .run_batch_with(&mut scratch, &packed)
            .unwrap()
            .outputs;
        let rows = |outs: &[Lanes]| -> Vec<Vec<bool>> {
            (0..PER_THREAD)
                .map(|j| outs.iter().map(|o| o.get(j)).collect())
                .collect()
        };
        base_want.push(rows(&b));
        v1_want.push(rows(&p));
    }
    for t in 0..THREADS {
        for j in 0..PER_THREAD {
            assert_ne!(
                base_want[t][j], v1_want[t][j],
                "negated outputs must distinguish the versions"
            );
        }
    }

    let runtime = Arc::new(
        Runtime::from_engine(
            flow.engine().unwrap(),
            RuntimeOptions::default().workers(2).max_batch(8),
        )
        .unwrap(),
    );
    let matched = Arc::new(std::sync::atomic::AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let runtime = Arc::clone(&runtime);
            let matched = Arc::clone(&matched);
            let base_want = &base_want[t];
            let v1_want = &v1_want[t];
            scope.spawn(move || {
                let handles: Vec<RequestHandle> = (0..PER_THREAD)
                    .map(|r| {
                        runtime
                            .submit(&request_bits(width, r as u64, 0x700 + t as u64))
                            .unwrap()
                    })
                    .collect();
                runtime.flush();
                for (j, handle) in handles.into_iter().enumerate() {
                    let got = handle.wait().unwrap();
                    assert!(
                        got == base_want[j] || got == v1_want[j],
                        "torn response across partition-count swap: thread {t} request {j}"
                    );
                    matched.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(runtime.swap_engine(v1_flow.engine().unwrap()).unwrap(), 1);
    });
    runtime.drain();
    assert_eq!(
        matched.load(std::sync::atomic::Ordering::Relaxed),
        (THREADS * PER_THREAD) as u64
    );

    // Settled: v1 (3 partitions, negated bits) serves exclusively.
    let probe: Vec<bool> = request_bits(width, 11, 0x701);
    let handle = runtime.submit(&probe).unwrap();
    runtime.flush();
    assert_eq!(handle.wait().unwrap(), v1_want[1][11]);

    // Second swap: back to the original function at 8 partitions. The
    // served bits must return to the v0 oracle (partitioning is purely
    // an execution-schedule choice).
    let v2_flow = Flow::builder(&netlist)
        .config(config)
        .backend(backend)
        .partitions(8)
        .compile()
        .unwrap();
    let v2_engine = v2_flow.engine().unwrap();
    assert_eq!(runtime.swap_engine(v2_engine).unwrap(), 2);
    let handles: Vec<RequestHandle> = (0..PER_THREAD)
        .map(|r| {
            runtime
                .submit(&request_bits(width, r as u64, 0x700))
                .unwrap()
        })
        .collect();
    runtime.flush();
    for (j, handle) in handles.into_iter().enumerate() {
        assert_eq!(
            handle.wait().unwrap(),
            base_want[0][j],
            "8-way partitioned v2 must serve the original function's bits"
        );
    }
    // The in-flight gauge is retired just after the last handle
    // resolves; `drain` is what waits for it.
    runtime.drain();
    let stats = runtime.stats();
    assert_eq!(stats.swaps, 2);
    assert_eq!(stats.version, 2);
    assert_eq!(stats.in_flight, 0);
}

/// The swap/shed/drain interaction: requests admitted before a swap
/// are answered by the version that admitted them (whether they were
/// still pending, queued or running when it began), shed accounting
/// survives the swap untouched, and admission capacity recovers
/// afterwards on the new version.
#[test]
fn swap_flushes_pending_to_old_core_and_keeps_shed_accounting() {
    let netlist = RandomDag::strict(9, 4, 7).outputs(3).generate(31);
    let width = netlist.inputs().len();
    let flow = Flow::builder(&netlist)
        .config(LpuConfig::new(4, 4))
        .backend(Backend::BitSliced { words: 1 })
        .compile()
        .unwrap();
    let patches = negate_outputs(&flow);
    let patched_flow = flow.apply_patches(&patches).unwrap();
    let base_ref = flow.engine().unwrap();
    let patched_ref = patched_flow.engine().unwrap();
    let mut scratch = EngineScratch::new();

    // Admission capped at one request in flight: a second `try_submit`
    // sheds unless the first has already resolved, so a tight loop sheds
    // within a few iterations (bounded here regardless).
    let runtime = Runtime::from_engine(
        flow.engine().unwrap(),
        RuntimeOptions::default().workers(1).admission_limit(1),
    )
    .unwrap();

    let mut pre: Vec<Vec<bool>> = Vec::new();
    let mut handles: Vec<RequestHandle> = Vec::new();
    let mut shed = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while shed == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "never shed at admission_limit(1)"
        );
        let bits = request_bits(width, pre.len() as u64, 8);
        match runtime.try_submit(&bits) {
            Ok(handle) => {
                pre.push(bits);
                handles.push(handle);
            }
            Err(lbnn::CoreError::Overloaded { limit: 1, .. }) => shed += 1,
            Err(other) => panic!("unexpected admission error: {other}"),
        }
    }
    assert_eq!(runtime.stats().shed, 1);

    // The swap lands with the last admitted request possibly still in
    // flight; v0 must answer everything admitted before it.
    assert_eq!(
        runtime.swap_engine(patched_flow.engine().unwrap()).unwrap(),
        1
    );
    let want_v0 = base_ref
        .run_batch_with(&mut scratch, &pack(&pre, width))
        .unwrap()
        .outputs;
    for (j, handle) in handles.into_iter().enumerate() {
        let got = handle.wait().unwrap();
        let want: Vec<bool> = want_v0.iter().map(|o| o.get(j)).collect();
        assert_eq!(got, want, "pre-swap request {j} must be served by v0");
    }
    runtime.drain();

    // Admission capacity recovered; new traffic serves v1 bits.
    let post: Vec<Vec<bool>> = (0..6).map(|r| request_bits(width, r, 21)).collect();
    let want_v1 = patched_ref
        .run_batch_with(&mut scratch, &pack(&post, width))
        .unwrap()
        .outputs;
    for (j, bits) in post.iter().enumerate() {
        let got = runtime.try_submit(bits).unwrap().wait().unwrap();
        // The in-flight gauge is retired just after the handle resolves;
        // wait for it so the next request is admitted, not shed.
        runtime.drain();
        let want: Vec<bool> = want_v1.iter().map(|o| o.get(j)).collect();
        assert_eq!(got, want, "post-swap request {j} must be served by v1");
    }
    let stats = runtime.stats();
    assert_eq!(stats.requests, (pre.len() + post.len()) as u64);
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.version, 1);
    assert_eq!(
        stats.completed_current + stats.completed_prior,
        stats.requests
    );
}
