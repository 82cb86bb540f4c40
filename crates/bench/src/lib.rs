//! Shared fixtures and the bench harness for the workspace benches.
//!
//! Every bench works on the same deterministic benchmark: a scaled-down
//! D1C-like Clean-Clean dataset and its Dirty derivative, blocked with Token
//! Blocking + Block Purging. Sizes are chosen so that `cargo bench`
//! completes in minutes while the measured ratios (optimized vs original
//! weighting, filtered vs unfiltered graphs, per-scheme overhead) remain
//! meaningful — they are cost-model properties, not scale properties.

#![warn(missing_docs)]

pub mod harness;
pub mod validate;

use er_blocking::{purging, BlockingMethod, TokenBlocking};
use er_datagen::presets;
use er_model::{BlockCollection, EntityCollection, GroundTruth};
use mb_observe::json::Json;

/// A ready-to-bench workload.
pub struct Workload {
    /// The entity collection.
    pub collection: EntityCollection,
    /// Its duplicate pairs.
    pub ground_truth: GroundTruth,
    /// Token Blocking + size-based Block Purging output.
    pub blocks: BlockCollection,
}

fn scaled_d1c(scale: f64) -> er_datagen::DatasetConfig {
    let mut config = presets::d1c(13);
    config.matched_pairs = (config.matched_pairs as f64 * scale) as usize;
    config.side1.size = (config.side1.size as f64 * scale) as usize;
    config.side2.size = (config.side2.size as f64 * scale) as usize;
    config.object.vocab_size = (config.object.vocab_size as f64 * scale) as usize;
    config
}

fn blocked(collection: EntityCollection, ground_truth: GroundTruth) -> Workload {
    let mut blocks = TokenBlocking.build(&collection);
    purging::purge_by_size(&mut blocks, 0.5);
    Workload { collection, ground_truth, blocks }
}

/// The fixed bench dataset. Scaling d1c uniformly preserves the config
/// invariants (`matched_pairs` never exceeds a side size), so generation
/// cannot fail — the tests below exercise exactly this config.
fn bench_dataset() -> er_datagen::GeneratedDataset {
    match presets::build(&scaled_d1c(0.1)) {
        Ok(d) => d,
        Err(e) => unreachable!("bench preset rejected: {e}"),
    }
}

/// Builds the Clean-Clean bench workload (≈6.4k profiles at the default
/// 0.1 scale).
pub fn clean_workload() -> Workload {
    let d = bench_dataset();
    blocked(d.collection, d.ground_truth)
}

/// Builds the Dirty bench workload (same profiles, merged into one
/// collection).
pub fn dirty_workload() -> Workload {
    let d = bench_dataset().into_dirty();
    blocked(d.collection, d.ground_truth)
}

/// Timed samples per bench cell: `BENCH_SAMPLE_SIZE`, at least 1, default 5.
pub fn sample_count() -> usize {
    std::env::var("BENCH_SAMPLE_SIZE")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or(5)
}

/// Writes a bench document and returns the path written: to `BENCH_OUT`,
/// or — when that is unset or empty — to `BENCH_<stem>.json` at the
/// repository root, `<stem>` being `bench` up to its first `_`
/// (`query_latency` → `BENCH_query.json`).
///
/// The document opens with the header every [`validate`] table checks —
/// `bench`, `workload`, `entities` and the host's `detected_cores` — and
/// continues with `fields` in order.
pub fn write_bench_json(
    bench: &str,
    workload: &str,
    entities: usize,
    fields: Vec<(&str, Json)>,
) -> std::io::Result<String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut doc = Json::obj();
    doc.push("bench", Json::Str(bench.into()));
    doc.push("workload", Json::Str(workload.into()));
    doc.push("entities", Json::Uint(entities as u64));
    doc.push("detected_cores", Json::Uint(cores as u64));
    for (key, value) in fields {
        doc.push(key, value);
    }
    let path = std::env::var("BENCH_OUT").ok().filter(|p| !p.is_empty()).unwrap_or_else(|| {
        let stem = bench.split('_').next().unwrap_or(bench);
        format!("{}/../../BENCH_{stem}.json", env!("CARGO_MANIFEST_DIR"))
    });
    std::fs::write(&path, doc.render_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_nonempty_and_deterministic() {
        let a = clean_workload();
        let b = clean_workload();
        assert!(a.blocks.total_comparisons() > 0);
        assert_eq!(a.blocks.total_comparisons(), b.blocks.total_comparisons());
        assert_eq!(a.collection.len(), b.collection.len());
        let d = dirty_workload();
        assert_eq!(d.collection.len(), a.collection.len());
        assert!(!d.ground_truth.is_empty());
    }
}
