//! `batch-d2c`: the paper's batch pipeline on the full D2C-like dataset.
//!
//! One pass is Token Blocking → Block Purging (0.5) → Block Filtering
//! (r = 0.8) → graph context and JS weigher → Reciprocal CNP, on one thread
//! (the `er run` default), each step called through its public function.
//! Passes repeat for the measuring window. Every pass must retain the same
//! comparisons as the library's composed entry point,
//! [`mb_core::MetaBlocking::run`], and — for the seeds in
//! [`crate::reference`] — the recorded counts.

use crate::common::{self, Preset, Report, SETUP_REPEATS};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::{reference, Args};
use er_blocking::{purging, BlockingMethod, TokenBlocking};
use er_model::measures::EffectivenessAccumulator;
use er_model::{EntityCollection, GroundTruth};
use mb_core::filter::block_filtering;
use mb_core::weights::EdgeWeigher;
use mb_core::{prune, GraphContext, MetaBlocking, Noop, PipelineConfig, PruningScheme};
use mb_core::{WeightingImpl, WeightingScheme};
use mb_observe::alloc_track::alloc_count;
use mb_observe::json::Json;
use std::hint::black_box;
use std::time::Instant;

/// Block Purging's size ratio (the paper's 0.5).
const PURGE_RATIO: f64 = 0.5;
/// Block Filtering's ratio.
const FILTER_RATIO: f64 = 0.8;
/// Fewest passes a run makes, however short the window.
const MIN_PASSES: usize = 3;
/// Largest gap allowed between the traced layers' sum and the pass time.
pub const LAYER_SUM_SLACK: f64 = 0.05;

/// What one pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PassOutput {
    purged_comparisons: u64,
    filtered_comparisons: u64,
    retained: u64,
    detected: u64,
}

/// Allocation counts of one pass, per layer.
#[derive(Debug, Clone, Copy)]
struct PassAllocs {
    blocking: u64,
    core: u64,
}

fn pass(
    collection: &EntityCollection,
    gt: &GroundTruth,
    tracer: &mut Tracer,
    request: u64,
) -> (PassOutput, PassAllocs) {
    let root = tracer.begin("batch.pass", request);
    let a0 = alloc_count();
    let mut blocks = tracer.span("blocking.token", request, || TokenBlocking.build(collection));
    tracer.span("blocking.purge", request, || purging::purge_by_size(&mut blocks, PURGE_RATIO));
    let a1 = alloc_count();
    let filtered = tracer.span("core.filter", request, || {
        block_filtering(&blocks, FILTER_RATIO).expect("0.8 is a valid filter ratio")
    });
    let split = collection.split();
    let context = tracer.begin("core.context", request);
    let ctx = GraphContext::new(&filtered, split);
    let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
    tracer.end(context);
    let mut acc = EffectivenessAccumulator::new(gt);
    tracer.span("core.prune", request, || {
        prune::reciprocal_cnp(&ctx, &weigher, WeightingImpl::Optimized, &mut Noop, |a, b| {
            acc.add(a, b)
        });
    });
    let out = PassOutput {
        purged_comparisons: blocks.total_comparisons(),
        filtered_comparisons: filtered.total_comparisons(),
        retained: acc.total_comparisons(),
        detected: acc.detected() as u64,
    };
    drop(weigher);
    drop(ctx);
    black_box((blocks, filtered));
    let a2 = alloc_count();
    tracer.end(root);
    (out, PassAllocs { blocking: a1 - a0, core: a2 - a1 })
}

/// The library's composed pipeline over the same input: the reference
/// every layer-by-layer pass must reproduce.
fn library_reference(
    collection: &EntityCollection,
    gt: &GroundTruth,
) -> Result<(u64, u64), String> {
    let mut blocks = TokenBlocking.build(collection);
    purging::purge_by_size(&mut blocks, PURGE_RATIO);
    let config = PipelineConfig {
        weighting: WeightingScheme::Js,
        pruning: PruningScheme::ReciprocalCnp,
        filter_ratio: Some(FILTER_RATIO),
        threads: 1,
        ..PipelineConfig::default()
    };
    let mut acc = EffectivenessAccumulator::new(gt);
    MetaBlocking::from_config(config)
        .run(&blocks, collection.split(), &mut Noop, |a, b| acc.add(a, b))
        .map_err(|e| format!("reference pipeline: {e}"))?;
    Ok((acc.total_comparisons(), acc.detected() as u64))
}

/// Records the blocking and core per-layer figures of traced passes, and
/// checks that the layers account for the pass time within
/// [`LAYER_SUM_SLACK`].
fn report_layers(
    report: &mut Report,
    spans: &[Span],
    out: PassOutput,
    duplicates: usize,
    allocs: &[PassAllocs],
) {
    let ms = |name| stats::median(&trace::durations_us(spans, name)) / 1e3;
    report.set("blocking.token_ms", ms("blocking.token"));
    report.set("blocking.purge_ms", ms("blocking.purge"));
    report.set("core.filter_ms", ms("core.filter"));
    report.set("core.context_ms", ms("core.context"));
    report.set("core.prune_ms", ms("core.prune"));
    report.set("blocking.comparisons_out", out.purged_comparisons as f64);
    report.set("core.filter_comparisons_out", out.filtered_comparisons as f64);
    report.set("core.retained", out.retained as f64);
    report.set("core.pq", out.detected as f64 / out.retained.max(1) as f64);
    report.set("core.pc", out.detected as f64 / duplicates.max(1) as f64);
    let median_of = |f: fn(&PassAllocs) -> u64| {
        stats::median(&allocs.iter().map(|a| f(a) as f64).collect::<Vec<_>>())
    };
    report.set("blocking.allocs", median_of(|a| a.blocking));
    report.set("core.allocs", median_of(|a| a.core));
    let layers = trace::self_times(spans);
    let wall = layers.get("batch.pass").map(|t| t.total_ns).unwrap_or(0);
    let children: u64 =
        layers.iter().filter(|(name, _)| **name != "batch.pass").map(|(_, t)| t.total_ns).sum();
    let share = children as f64 / wall.max(1) as f64;
    report.set("trace.layer_sum_share", share);
    report.check((1.0 - share).abs() <= LAYER_SUM_SLACK, || {
        format!("traced layers cover {share:.4} of the pass time, slack {LAYER_SUM_SLACK}")
    });
}

/// Times the batch layers on a served workload's input: one traced pass.
pub fn layer_probe(report: &mut Report, collection: &EntityCollection, gt: &GroundTruth) {
    let mut tracer = Tracer::new(true, Instant::now());
    let (out, allocs) = pass(collection, gt, &mut tracer, 0);
    report_layers(report, tracer.spans(), out, gt.len(), &[allocs]);
}

/// Runs the workload.
pub fn run(args: &Args, work: &common::WorkDir) -> Result<Report, String> {
    let mut report = Report::new(args);
    let bundle_dir = work.path("d2c");
    {
        let data = common::generate(Preset::D2c, args.seed)?;
        er_io::bundle::save(&bundle_dir, &data.collection, &data.ground_truth)
            .map_err(|e| format!("saving input bundle: {e}"))?;
    }
    common::rebase_heap();

    // Set-up: what the batch job pays before its first pass — loading the
    // bundle.
    let mut setup_s = Vec::new();
    let mut bundle = None;
    for _ in 0..SETUP_REPEATS {
        let (loaded, ms) = common::timed(|| er_io::bundle::load(&bundle_dir));
        bundle = Some(loaded.map_err(|e| format!("loading bundle: {e}"))?);
        setup_s.push(ms / 1e3);
    }
    let bundle = bundle.expect("set-up ran at least once");
    let (collection, gt) = (&bundle.collection, &bundle.ground_truth);
    let n = collection.len();
    report.note("entities", Json::Uint(n as u64));
    report.note("duplicates", Json::Uint(gt.len() as u64));
    report.note("threads", Json::Uint(1));

    let (ref_retained, ref_detected) = library_reference(collection, gt)?;
    if let Some(rec) = reference::batch_d2c(args.seed) {
        report.check(rec == (ref_retained, ref_detected), || {
            format!(
                "seed {}: library pipeline retained/detected {ref_retained}/{ref_detected}, \
                 recorded {}/{}",
                args.seed, rec.0, rec.1
            )
        });
    }

    // Traced runs alternate traced and untraced passes, so the tracing
    // overhead is measured on the same input in the same run.
    let origin = Instant::now();
    let mut tracer = Tracer::new(false, origin);
    let mut pass_s: Vec<f64> = Vec::new();
    let mut untraced_s: Vec<f64> = Vec::new();
    let mut traced_s: Vec<f64> = Vec::new();
    let mut allocs: Vec<PassAllocs> = Vec::new();
    let mut last = None;
    let start = Instant::now();
    let mut i = 0u64;
    while (i as usize) < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && i.is_multiple_of(2);
        tracer.set_enabled(traced);
        let t = Instant::now();
        let (out, a) = pass(collection, gt, &mut tracer, i);
        let secs = t.elapsed().as_secs_f64();
        pass_s.push(secs);
        if traced {
            traced_s.push(secs)
        } else {
            untraced_s.push(secs)
        }
        allocs.push(a);
        report.check(out.retained == ref_retained && out.detected == ref_detected, || {
            format!(
                "pass {i}: retained/detected {}/{}, library pipeline {ref_retained}/{ref_detected}",
                out.retained, out.detected
            )
        });
        last = Some(out);
        i += 1;
    }
    let out = last.expect("at least one pass ran");
    report.set_peak_heap();
    report.note("passes", Json::Uint(i));
    report.note("retained", Json::Uint(out.retained));
    report.note("detected", Json::Uint(out.detected));

    let lat = stats::summarize(&pass_s.iter().map(|s| s * 1e6).collect::<Vec<_>>());
    report.set("setup_s", stats::median(&setup_s));
    report.set("throughput_per_s", n as f64 / stats::median(&pass_s));
    report.set("latency_p50_us", lat.p50);
    report.set("latency_tail_us", lat.tail);
    report.note("latency_tail_at", Json::Num(lat.tail_at));
    report.note("latency_samples", Json::Uint(lat.n as u64));

    if args.trace {
        report_layers(&mut report, tracer.spans(), out, gt.len(), &allocs);
        report.set("io.bundle_load_ms", stats::median(&setup_s) * 1e3);
        report.set(
            "trace.overhead_share",
            stats::median(&traced_s) / stats::median(&untraced_s) - 1.0,
        );
        report.note("spans", Json::Uint(tracer.spans().len() as u64));
        crate::serve::serve_layers_probe(&mut report, &bundle_dir, work, args.seed)?;
    }
    Ok(report)
}
