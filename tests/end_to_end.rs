//! Cross-crate integration: generated datasets through every pipeline.

use er_baselines::IterativeBlocking;
use er_blocking::{purging, BlockingMethod, TokenBlocking};
use er_datagen::presets;
use er_model::matching::{JaccardMatcher, OracleMatcher};
use er_model::measures::EffectivenessAccumulator;
use er_model::ErKind;
use mb_core::{graphfree, MetaBlocking, PruningScheme, WeightingScheme};

fn tiny() -> er_datagen::GeneratedDataset {
    presets::build(&presets::tiny(11)).unwrap()
}

fn blocks_of(d: &er_datagen::GeneratedDataset) -> er_model::BlockCollection {
    let mut blocks = TokenBlocking.build(&d.collection);
    purging::purge_by_size(&mut blocks, 0.5);
    blocks
}

#[test]
fn every_scheme_combination_preserves_most_recall() {
    let d = tiny();
    let blocks = blocks_of(&d);
    let split = d.collection.split();
    for scheme in WeightingScheme::ALL {
        for pruning in PruningScheme::ORIGINAL.into_iter().chain(PruningScheme::ENHANCED) {
            let mut acc = EffectivenessAccumulator::new(&d.ground_truth);
            MetaBlocking::new(scheme, pruning)
                .with_block_filtering(0.8)
                .run(&blocks, split, &mut mb_core::Noop, |a, b| acc.add(a, b))
                .unwrap();
            assert!(acc.pc() > 0.5, "{} + {}: pc={}", scheme.name(), pruning.name(), acc.pc());
            assert!(acc.total_comparisons() < blocks.total_comparisons());
        }
    }
}

#[test]
fn weight_based_schemes_favor_recall_cardinality_precision() {
    let d = tiny();
    let blocks = blocks_of(&d);
    let split = d.collection.split();
    let run = |pruning| {
        let mut acc = EffectivenessAccumulator::new(&d.ground_truth);
        MetaBlocking::new(WeightingScheme::Js, pruning)
            .run(&blocks, split, &mut mb_core::Noop, |a, b| acc.add(a, b))
            .unwrap();
        (acc.pc(), acc.pq())
    };
    let (wnp_pc, wnp_pq) = run(PruningScheme::Wnp);
    let (cnp_pc, cnp_pq) = run(PruningScheme::Cnp);
    // The paper's application split: weight-based = effectiveness-intensive
    // (higher recall), cardinality-based = efficiency-intensive (higher
    // precision). CNP prunes deeper than WNP here.
    assert!(wnp_pc >= cnp_pc, "wnp_pc={wnp_pc} cnp_pc={cnp_pc}");
    assert!(cnp_pq >= wnp_pq, "cnp_pq={cnp_pq} wnp_pq={wnp_pq}");
}

#[test]
fn reciprocal_beats_original_precision_at_bounded_recall_cost() {
    let d = tiny();
    let blocks = blocks_of(&d);
    let split = d.collection.split();
    for (original, reciprocal) in [
        (PruningScheme::Cnp, PruningScheme::ReciprocalCnp),
        (PruningScheme::Wnp, PruningScheme::ReciprocalWnp),
    ] {
        let run = |p| {
            let mut acc = EffectivenessAccumulator::new(&d.ground_truth);
            MetaBlocking::new(WeightingScheme::Js, p)
                .run(&blocks, split, &mut mb_core::Noop, |a, b| acc.add(a, b))
                .unwrap();
            (acc.pc(), acc.pq(), acc.total_comparisons())
        };
        let (opc, opq, ocmp) = run(original);
        let (rpc, rpq, rcmp) = run(reciprocal);
        assert!(rpq > opq, "{}: pq {rpq} !> {opq}", reciprocal.name());
        assert!(rcmp < ocmp);
        // Recall cost is bounded (the paper reports ≤11% for CNP, ≤2% WNP).
        assert!(rpc > opc * 0.75, "{}: pc {rpc} vs {opc}", reciprocal.name());
    }
}

#[test]
fn redefined_matches_original_recall_exactly() {
    let d = tiny();
    let blocks = blocks_of(&d);
    let split = d.collection.split();
    for (original, redefined) in [
        (PruningScheme::Cnp, PruningScheme::RedefinedCnp),
        (PruningScheme::Wnp, PruningScheme::RedefinedWnp),
    ] {
        let detect = |p| {
            let mut acc = EffectivenessAccumulator::new(&d.ground_truth);
            MetaBlocking::new(WeightingScheme::Ecbs, p)
                .run(&blocks, split, &mut mb_core::Noop, |a, b| acc.add(a, b))
                .unwrap();
            (acc.detected(), acc.total_comparisons())
        };
        let (odet, ocmp) = detect(original);
        let (rdet, rcmp) = detect(redefined);
        // Same pairs, fewer comparisons ("no impact on recall").
        assert_eq!(odet, rdet);
        assert!(rcmp <= ocmp);
    }
}

#[test]
fn graph_free_workflow_on_generated_data() {
    let d = tiny();
    let blocks = blocks_of(&d);
    let split = d.collection.split();
    let mut acc = EffectivenessAccumulator::new(&d.ground_truth);
    graphfree::graph_free_meta_blocking(&blocks, split, 0.55, 1, &mut mb_core::Noop, |a, b| {
        acc.add(a, b)
    })
    .unwrap();
    assert!(acc.pc() > 0.8);
    assert!(acc.total_comparisons() < blocks.total_comparisons());
}

#[test]
fn iterative_blocking_with_oracle_and_jaccard() {
    let d = tiny();
    let blocks = blocks_of(&d);
    let oracle = OracleMatcher::new(&d.ground_truth);
    let config = IterativeBlocking { order_by_cardinality: true, stop_after_match: true };
    let mut outcome = config.run(&blocks, &oracle);
    // With an oracle, PC equals the co-occurrence recall of the blocks.
    let co = er_model::measures::detected_duplicates_in(&blocks, &d.ground_truth);
    assert_eq!(outcome.detected_duplicates(&d.ground_truth), co);
    assert!(outcome.executed_comparisons < blocks.total_comparisons());

    // With a real matcher the outcome depends on the threshold but must
    // stay sane.
    let jaccard = JaccardMatcher::new(&d.collection, 0.4);
    let mut real = IterativeBlocking::default().run(&blocks, &jaccard);
    let pc = real.pc(&d.ground_truth);
    assert!(pc > 0.5, "jaccard pc={pc}");
}

#[test]
fn dirty_and_clean_variants_run_the_same_pipeline() {
    let clean = tiny();
    let dirty = presets::build(&presets::tiny(11)).unwrap().into_dirty();
    assert_eq!(dirty.collection.kind(), ErKind::Dirty);
    for d in [&clean, &dirty] {
        let blocks = blocks_of(d);
        let mut acc = EffectivenessAccumulator::new(&d.ground_truth);
        MetaBlocking::new(WeightingScheme::Arcs, PruningScheme::ReciprocalWnp)
            .with_block_filtering(0.8)
            .run(&blocks, d.collection.split(), &mut mb_core::Noop, |a, b| acc.add(a, b))
            .unwrap();
        assert!(acc.pc() > 0.6, "{:?}: pc={}", d.collection.kind(), acc.pc());
    }
}

#[test]
fn purging_then_filtering_then_pruning_composes() {
    let d = tiny();
    let mut blocks = TokenBlocking.build(&d.collection);
    let before = blocks.total_comparisons();
    purging::purge_by_comparisons(&mut blocks);
    let after_purge = blocks.total_comparisons();
    assert!(after_purge <= before);
    let filtered = mb_core::filter::block_filtering(&blocks, 0.8).unwrap();
    assert!(filtered.total_comparisons() <= after_purge);
    let mut acc = EffectivenessAccumulator::new(&d.ground_truth);
    MetaBlocking::new(WeightingScheme::Js, PruningScheme::Wep)
        .run(&filtered, d.collection.split(), &mut mb_core::Noop, |a, b| acc.add(a, b))
        .unwrap();
    assert!(acc.pc() > 0.7);
}
