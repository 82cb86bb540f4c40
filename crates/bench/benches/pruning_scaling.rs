//! The perf-trajectory bench: every pruning scheme at 1/2/4/8 worker
//! threads, plus the raw chunked edge-weighting sweep, on the fixed
//! synthetic workload — written as machine-readable JSON so the scaling
//! behavior is tracked commit over commit.
//!
//! Output: `BENCH_pruning.json` at the repository root (override with the
//! `BENCH_OUT` environment variable). One record per (bench, scheme,
//! threads) triple with mean/median/min wall milliseconds; the file also
//! records the machine's detected core count, since speedups are physically
//! bounded by it.
//!
//! Environment knobs: `BENCH_SAMPLE_SIZE` (timed samples per cell,
//! default 5), `BENCH_OUT` (output path).

use er_bench::{clean_workload, sample_count, write_bench_json};
use mb_core::filter::block_filtering;
use mb_core::weighting::mean_edge_weight;
use mb_core::weights::EdgeWeigher;
use mb_core::{GraphContext, MetaBlocking, PruningScheme, WeightingImpl, WeightingScheme};
use mb_observe::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Times `routine` after one untimed warm-up call.
fn time_samples(samples: usize, mut routine: impl FnMut()) -> Vec<Duration> {
    routine();
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed()
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One result record: mean/median/min over the samples, in milliseconds.
fn record(bench: &str, scheme: &str, threads: usize, times: &[Duration]) -> Json {
    let mut sorted = times.to_vec();
    sorted.sort_unstable();
    let total: Duration = sorted.iter().sum();
    let mut obj = Json::obj();
    obj.push("bench", Json::Str(bench.into()));
    obj.push("scheme", Json::Str(scheme.into()));
    obj.push("threads", Json::Uint(threads as u64));
    obj.push("mean_ms", Json::Num(ms(total / sorted.len() as u32)));
    obj.push("median_ms", Json::Num(ms(sorted[sorted.len() / 2])));
    obj.push("min_ms", Json::Num(ms(sorted[0])));
    obj.push("samples", Json::Uint(sorted.len() as u64));
    obj
}

fn main() {
    let samples = sample_count();
    let workload = clean_workload();
    let split = workload.collection.split();
    let filtered = block_filtering(&workload.blocks, 0.8)
        .unwrap_or_else(|e| panic!("block filtering failed: {e}"));
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("pruning-scaling: {cores} detected cores, {samples} samples per cell");

    let mut rows: Vec<Json> = Vec::new();

    // The raw edge-weighting sweep, summing the weights as WEP's mean does
    // (graph construction excluded: one context per thread count, built
    // before the timed samples).
    for threads in THREADS {
        let ctx = GraphContext::new_parallel(&filtered, split, threads);
        let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
        let times = time_samples(samples, || {
            black_box(mean_edge_weight(WeightingImpl::Optimized, &ctx, &weigher));
        });
        println!("edge-weighting x{threads}: min {:?}", times.iter().min().unwrap());
        rows.push(record("edge_weighting", "JS", threads, &times));
    }

    // Every pruning scheme, end to end through the pipeline.
    for pruning in PruningScheme::ALL {
        for threads in THREADS {
            let pipeline = MetaBlocking::new(WeightingScheme::Js, pruning).with_threads(threads);
            let times = time_samples(samples, || {
                let mut count = 0u64;
                pipeline
                    .run(&filtered, split, &mut mb_core::Noop, |_, _| count += 1)
                    .unwrap_or_else(|e| panic!("pipeline failed: {e}"));
                black_box(count);
            });
            println!("{} x{threads}: min {:?}", pruning.name(), times.iter().min().unwrap());
            rows.push(record("pruning", pruning.name(), threads, &times));
        }
    }

    let path = write_bench_json(
        "pruning_scaling",
        "d1c-0.1 clean-clean, block-filtered 0.8",
        workload.collection.len(),
        vec![("samples_per_cell", Json::Uint(samples as u64)), ("results", Json::Arr(rows))],
    )
    .unwrap_or_else(|e| panic!("writing BENCH_pruning.json: {e}"));
    println!("\nwrote {path}");
}
