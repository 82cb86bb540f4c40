//! Incremental ER — the extension the paper's conclusion plans — as a thin
//! client of the serving layer's delta overlay: profiles arrive one at a
//! time as appends to an initially empty Dirty snapshot, and each arrival
//! is answered with its top-k weighted neighbors among the earlier ones.

use er_datagen::presets;
use er_model::{EntityCollection, EntityId, EntityProfile};
use mb_core::{Noop, PipelineConfig, Retention, WeightingScheme};
use mb_serve::{
    CandidateRequest, DeltaOp, GenerationCell, QueryEngine, Snapshot, SnapshotView, APPEND,
};

/// Streams `profiles` through a [`GenerationCell`] over an empty Dirty
/// snapshot. Every candidate of an arrival is an earlier arrival, so the
/// returned `(existing, new)` pairs never repeat.
fn stream<'a>(
    profiles: impl IntoIterator<Item = &'a EntityProfile>,
    scheme: WeightingScheme,
    k: usize,
) -> Vec<(EntityId, EntityId)> {
    let config = PipelineConfig { weighting: scheme, ..PipelineConfig::default() };
    let empty = Snapshot::build(&EntityCollection::dirty(Vec::new()), config).unwrap();
    let cell = GenerationCell::new(SnapshotView::from_bytes(empty.to_bytes()).unwrap()).unwrap();
    let mut pairs = Vec::new();
    for profile in profiles {
        let upsert = DeltaOp::Upsert { id: APPEND, profile: profile.clone() };
        let new = EntityId(cell.apply(upsert, &mut Noop).unwrap().id);
        let generation = cell.load();
        let request = CandidateRequest::entity(new).with_retention(Retention::TopK(k));
        let response = QueryEngine::from_generation(&generation).execute(&request, &mut Noop);
        let scored = response.unwrap();
        pairs.extend(scored.first().unwrap().candidates.iter().map(|c| (c.id, new)));
    }
    pairs
}

fn profiles(texts: &[&str]) -> Vec<EntityProfile> {
    texts
        .iter()
        .enumerate()
        .map(|(i, t)| EntityProfile::new(format!("p{i}")).with("v", *t))
        .collect()
}

#[test]
fn streaming_a_dirty_dataset_finds_most_duplicates() {
    // Stream a small dirty dataset profile-by-profile. Duplicates are
    // ground-truth pairs (i, n1+i): when the second member arrives, its
    // partner is already indexed and must surface among the top-k.
    let dataset = presets::build(&presets::tiny(21)).unwrap().into_dirty();
    let pairs = stream(dataset.collection.iter().map(|(_, p)| p), WeightingScheme::Js, 5);
    let emitted = pairs.len();
    let found = pairs.iter().filter(|&&(a, b)| dataset.ground_truth.are_duplicates(a, b)).count();
    let recall = found as f64 / dataset.ground_truth.len() as f64;
    let precision = found as f64 / emitted as f64;
    // The streaming pipeline keeps the efficiency-intensive profile: high
    // recall at precision far above the raw blocks'.
    assert!(recall > 0.85, "recall={recall}");
    assert!(precision > 0.05, "precision={precision}");
    // And it emits far fewer comparisons than blocked batch processing
    // would (the tiny dataset's token blocks entail tens of thousands).
    assert!(emitted < 5_000, "emitted={emitted}");
}

#[test]
fn arrival_order_does_not_break_determinism() {
    let dataset = presets::build(&presets::tiny(22)).unwrap().into_dirty();
    let run = || stream(dataset.collection.iter().map(|(_, p)| p), WeightingScheme::Js, 5);
    assert_eq!(run(), run());
}

#[test]
fn cbs_vs_js_schemes_both_work_incrementally() {
    let dataset = presets::build(&presets::tiny(23)).unwrap().into_dirty();
    for scheme in [
        WeightingScheme::Arcs,
        WeightingScheme::Cbs,
        WeightingScheme::Ecbs,
        WeightingScheme::Js,
        WeightingScheme::Ejs,
    ] {
        let pairs = stream(dataset.collection.iter().map(|(_, p)| p), scheme, 3);
        let found =
            pairs.iter().filter(|&&(a, b)| dataset.ground_truth.are_duplicates(a, b)).count();
        let recall = found as f64 / dataset.ground_truth.len() as f64;
        assert!(recall > 0.7, "{}: recall={recall}", scheme.name());
    }
}

#[test]
fn empty_stream_then_pairing() {
    let got = stream(&profiles(&["jack miller", "jack lloyd miller"]), WeightingScheme::Js, 5);
    assert_eq!(got, vec![(EntityId(0), EntityId(1))]);
}

#[test]
fn pairs_are_never_repeated() {
    let texts = ["alpha beta", "alpha beta gamma", "beta gamma", "alpha gamma"];
    let pairs = stream(&profiles(&texts), WeightingScheme::Js, 5);
    let mut seen = std::collections::HashSet::new();
    for &(a, b) in &pairs {
        assert!(a < b);
        assert!(seen.insert((a, b)), "pair {a}-{b} repeated");
    }
    assert!(!seen.is_empty());
}

#[test]
fn k_bounds_the_emissions() {
    let texts = vec!["common token here"; 11];
    let pairs = stream(&profiles(&texts), WeightingScheme::Js, 2);
    assert_eq!(pairs.iter().filter(|(_, b)| *b == EntityId(10)).count(), 2);
}

#[test]
fn strongest_co_occurrence_wins() {
    // The probe shares one token with p0 and three with p1.
    let texts = ["one shared", "two shared tokens", "two shared tokens plus"];
    let pairs = stream(&profiles(&texts), WeightingScheme::Cbs, 1);
    assert_eq!(pairs.last(), Some(&(EntityId(1), EntityId(2))));
}

#[test]
fn js_discounts_prolific_profiles() {
    // p1 sits in ten blocks (p0 makes its x-tokens blocks), p2 in two; the
    // probe shares {shared, other} with both and JS prefers the compact one.
    let texts = [
        "x1 x2 x3 x4 x5 x6 x7 x8",
        "x1 x2 x3 x4 x5 x6 x7 x8 shared other",
        "shared other",
        "shared other",
    ];
    let pairs = stream(&profiles(&texts), WeightingScheme::Js, 1);
    assert_eq!(pairs.last(), Some(&(EntityId(2), EntityId(3))));
}

#[test]
fn profiles_without_tokens_are_inert() {
    let mut arrivals = vec![EntityProfile::new("empty")];
    arrivals.extend(profiles(&["jack", "jack"]));
    assert_eq!(stream(&arrivals, WeightingScheme::Js, 5), vec![(EntityId(1), EntityId(2))]);
}
