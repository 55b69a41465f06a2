//! Criterion bench behind partitioned multi-engine execution (ISSUE 10):
//! serving throughput of one wide, shallow banded DAG (~24.6k nets) swept
//! across partition counts {1, 2, 3, 8} at 1024 lanes per block.
//!
//! The netlist is built so the *single-engine* live frame (~8.2k slots ×
//! 16 words × 8 B ≈ 1 MiB) exceeds the 256 KiB cache budget: the tape
//! must execute in narrow cache tiles, re-streaming all ~16k kernel
//! instructions once per tile. Contiguous partitioning splits each level
//! into per-partition frames small enough for full-width tiles, so every
//! partition replays its tape segment exactly once per block — same
//! word-ops, a fraction of the tape traffic. The banded wiring (each gate
//! reads its own column and a column `STRIDE` away in the previous level)
//! keeps the cut small, so the exchange overhead the schedule pays for
//! that locality is measured and reported per block.
//!
//! Every partition count serves the *same* 8192 samples, so samples/s is
//! directly comparable. The summary writes `BENCH_partition_sweep.json`
//! with ns/sample per partition count, the exchange-overhead breakdown
//! (cut nets, copies, KiB moved per block), and the speedup ratios the
//! CI smoke asserts on (acceptance: ≥ 1.5x at some partitions ≥ 2).

use criterion::{criterion_group, criterion_main, Criterion};
use lbnn_netlist::eval::{BitSliceEvaluator, SliceFrame, TapeOptions};
use lbnn_netlist::{Lanes, Netlist, Op, PartitionAssignment, PartitionedEngine};
use std::hint::black_box;
use std::time::Instant;

/// Netlist shape: `WIDTH` inputs, `DEPTH` gate levels of `WIDTH` gates.
const WIDTH: usize = 8192;
const DEPTH: usize = 2;
/// Band offset: gate `(l, j)` reads `(l-1, j)` and `(l-1, (j+STRIDE) % WIDTH)`.
const STRIDE: usize = 16;
/// Words per net per block (1024 lanes — the widest slice).
const WORDS: usize = 16;
/// Total samples served per measurement (8 full 1024-lane blocks).
const SAMPLES: usize = 8192;
/// Partition counts swept (1 = the plain single-tape engine).
const PARTS: [usize; 4] = [1, 2, 3, 8];

/// The banded DAG. Contiguous level chunks keep the cut at
/// `STRIDE` nets per partition boundary per level, so partitioning
/// trades ~1 MiB of frame thrash for a few KiB of exchange per block.
fn banded_dag() -> Netlist {
    let mut nl = Netlist::new("partition_sweep_band");
    let ops = [Op::And, Op::Or, Op::Xor, Op::Nand, Op::Nor, Op::Xnor];
    let mut prev: Vec<_> = (0..WIDTH).map(|j| nl.add_input(format!("i{j}"))).collect();
    for l in 0..DEPTH {
        prev = (0..WIDTH)
            .map(|j| {
                let op = ops[(l * 31 + j) % ops.len()];
                nl.add_gate2(op, prev[j], prev[(j + STRIDE) % WIDTH])
            })
            .collect();
    }
    for (k, j) in (0..WIDTH).step_by(32).enumerate() {
        nl.add_output(prev[j], format!("y{k}"));
    }
    nl
}

/// 8192 samples of 8192 input bits, as one column of lanes per input.
fn sample_columns(seed: u64) -> Vec<Lanes> {
    let stride = SAMPLES / 64;
    let mut x = seed | 1;
    (0..WIDTH)
        .map(|_| {
            let words = (0..stride)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect();
            Lanes::from_words(words, SAMPLES)
        })
        .collect()
}

/// The tile width cap a frame of `slots` live slots executes with under
/// `budget` — the same `{16, 8, 4, 2, 1}` ladder the tape compilers use.
fn tile_for(slots: usize, budget: usize) -> usize {
    if budget == 0 {
        return 16;
    }
    [16usize, 8, 4, 2]
        .into_iter()
        .find(|t| slots * t * 8 <= budget)
        .unwrap_or(1)
}

/// One swept configuration: the single tape at `parts == 1`, the
/// partitioned engine otherwise. Both replay through the same kernels.
enum Exec {
    Single(BitSliceEvaluator, SliceFrame),
    Parts(PartitionedEngine, Vec<SliceFrame>),
}

impl Exec {
    fn compile(netlist: &Netlist, parts: usize, options: TapeOptions) -> Exec {
        if parts == 1 {
            let single = BitSliceEvaluator::compile_with(netlist, options);
            let frame = single.frame_with_words(WORDS);
            Exec::Single(single, frame)
        } else {
            let assignment = PartitionAssignment::contiguous(netlist, parts).unwrap();
            let engine = PartitionedEngine::compile_with(netlist, &assignment, options).unwrap();
            let frames = engine.frames_with_words(WORDS);
            Exec::Parts(engine, frames)
        }
    }

    fn run(&mut self, inputs: &[Lanes]) -> Vec<Lanes> {
        match self {
            Exec::Single(e, frame) => e.evaluate_with(inputs, SAMPLES, frame).unwrap(),
            Exec::Parts(e, frames) => e.evaluate_with(inputs, SAMPLES, frames).unwrap(),
        }
    }
}

/// `LBNN_PARTITION_SWEEP_FAST=1` skips the criterion group and shrinks
/// the summary to six timing runs per partition count — CI smoke mode.
/// The JSON artifact is still written, so the speedup stays
/// machine-checkable.
fn fast_mode() -> bool {
    std::env::var("LBNN_PARTITION_SWEEP_FAST").is_ok_and(|v| !matches!(v.as_str(), "" | "0"))
}

fn bench(c: &mut Criterion) {
    let netlist = banded_dag();

    if fast_mode() {
        summary(&netlist, 6);
        return;
    }

    let inputs = sample_columns(0xDAC23);
    let mut g = c.benchmark_group("partition_sweep_banded_dag");
    g.sample_size(10);
    for parts in PARTS {
        let mut exec = Exec::compile(&netlist, parts, TapeOptions::default());
        g.bench_function(format!("serve_partitions_{parts}"), |b| {
            b.iter(|| black_box(exec.run(&inputs)))
        });
    }
    g.finish();

    summary(&netlist, 15);
}

/// The machine-readable acceptance measurement: serving time for the
/// same `SAMPLES` samples at every partition count, printed as a table
/// and written to `BENCH_partition_sweep.json` with the exchange
/// breakdown and the partitioned-over-single speedups. Timings are
/// *interleaved* best-of-`runs` — every pass times each partition count
/// once, round-robin — so a noisy stretch on a shared host degrades all
/// counts alike instead of skewing one ratio.
fn summary(netlist: &Netlist, runs: usize) {
    let options = TapeOptions::default();
    let budget = options.cache_budget;
    let inputs = sample_columns(0xDAC23);
    let mut setups: Vec<(usize, Exec)> = PARTS
        .iter()
        .map(|&parts| (parts, Exec::compile(netlist, parts, options)))
        .collect();

    // Correctness guard: every partition count serves identical bits.
    let want = setups[0].1.run(&inputs);
    for (parts, exec) in setups.iter_mut().skip(1) {
        assert_eq!(exec.run(&inputs), want, "partitions={parts} diverged");
    }

    let single_stats = match &setups[0].1 {
        Exec::Single(e, _) => e.tape_stats(),
        Exec::Parts(..) => unreachable!("PARTS[0] is the single engine"),
    };
    println!(
        "\npartition sweep summary ({SAMPLES} samples, {} nets, best of {runs}):",
        netlist.len()
    );
    println!(
        "  single-engine frame: {} slots = {} KiB at {WORDS} words \
         (budget {} KiB -> {}-word tiles, {} tape passes/block)",
        single_stats.frame_slots,
        single_stats.frame_bytes(WORDS) / 1024,
        budget / 1024,
        single_stats.tile_words(),
        single_stats.tiles_at(WORDS),
    );

    let mut best = vec![f64::MAX; setups.len()];
    for _ in 0..runs {
        for (i, (_, exec)) in setups.iter_mut().enumerate() {
            let start = Instant::now();
            black_box(exec.run(&inputs));
            best[i] = best[i].min(start.elapsed().as_secs_f64());
        }
    }

    let mut rows = Vec::new();
    for (i, (parts, exec)) in setups.iter().enumerate() {
        let secs = best[i];
        let (cut_nets, cut_copies, max_slots) = match exec {
            Exec::Single(..) => (0, 0, single_stats.frame_slots),
            Exec::Parts(e, _) => {
                let s = e.partition_stats();
                (s.cut_nets, s.cut_copies, s.max_frame_slots)
            }
        };
        let exchange_kib = (cut_copies * WORDS * 8) as f64 / 1024.0;
        let tile = tile_for(max_slots, budget);
        println!(
            "  partitions={parts}: {:>8.1} us -> {:>9.0} samples/s  \
             (max frame {max_slots} slots, {tile}-word tiles; \
             cut {cut_nets} nets -> {cut_copies} copies = {exchange_kib:.1} KiB/block)",
            secs * 1e6,
            SAMPLES as f64 / secs,
        );
        rows.push((
            *parts,
            secs,
            cut_nets,
            cut_copies,
            exchange_kib,
            max_slots,
            tile,
        ));
    }

    let t1 = rows[0].1;
    let ratio = |i: usize| t1 / rows[i].1;
    let (r2, r3, r8) = (ratio(1), ratio(2), ratio(3));
    let best_ratio = r2.max(r3).max(r8);
    println!(
        "  speedup over partitions=1: p2 {r2:.2}x, p3 {r3:.2}x, p8 {r8:.2}x \
         (acceptance: best >= 1.50x, got {best_ratio:.2}x)"
    );

    // Hand-built JSON (no serde in-tree): one object per partition count
    // plus the speedups the CI smoke asserts on.
    let rows_json: Vec<String> = rows
        .iter()
        .map(
            |&(parts, secs, cut_nets, cut_copies, exchange_kib, max_slots, tile)| {
                format!(
                    "    {{\"partitions\": {parts}, \"ns_per_sample\": {:.2}, \
                 \"samples_per_sec\": {:.0}, \"cut_nets\": {cut_nets}, \
                 \"cut_copies\": {cut_copies}, \"exchange_kib_per_block\": {exchange_kib:.2}, \
                 \"max_frame_slots\": {max_slots}, \"tile_words\": {tile}}}",
                    secs * 1e9 / SAMPLES as f64,
                    SAMPLES as f64 / secs,
                )
            },
        )
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"partition_sweep\",\n  \"workload\": \"banded_dag_{WIDTH}x{DEPTH}\",\n  \
         \"nets\": {},\n  \"samples\": {SAMPLES},\n  \"lanes_per_block\": {},\n  \
         \"runs_per_count\": {runs},\n  \"cache_budget_bytes\": {budget},\n  \
         \"single_frame_bytes\": {},\n  \"partitions\": [\n{}\n  ],\n  \
         \"speedup\": {{\"p2_over_p1\": {r2:.3}, \"p3_over_p1\": {r3:.3}, \
         \"p8_over_p1\": {r8:.3}, \"best_over_p1\": {best_ratio:.3}}}\n}}\n",
        netlist.len(),
        WORDS * 64,
        single_stats.frame_bytes(WORDS),
        rows_json.join(",\n")
    );
    // Benches run with the crate as CWD; anchor the artifact at the
    // workspace root so CI and humans find it in one place.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_partition_sweep.json");
    std::fs::write(&path, &json).expect("write partition-sweep JSON artifact");
    println!("  wrote {}", path.canonicalize().unwrap_or(path).display());
}

criterion_group!(benches, bench);
criterion_main!(benches);
