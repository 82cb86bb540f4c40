//! Hot-swap correctness under concurrency: reader threads issue queries
//! while the main thread swaps generations underneath them, and every
//! response must be internally consistent with *exactly one* generation —
//! a torn read (engine built over one snapshot answering with another's
//! candidates) would show up as an answer matching no generation. After the
//! dust settles, retired generations must actually be gone: the cell holds
//! the only strong reference to the final snapshot.

use er_model::{EntityCollection, EntityId, EntityProfile};
use mb_core::{Noop, PipelineConfig, Retention};
use mb_serve::{CandidateRequest, GenerationCell, QueryEngine, Snapshot, SnapshotView};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A fixture whose answer to "who matches entity 0?" is controlled by
/// `variant`: entity 0 ("jack miller") pairs with exactly one of the other
/// profiles, and which one depends on which variant's profile shares its
/// tokens.
fn variant_snapshot(variant: usize) -> SnapshotView {
    // Entity `1 + variant` is the only profile sharing both of entity 0's
    // tokens; the others share nothing.
    let decoys = ["aaa bbb", "ccc ddd", "eee fff", "ggg hhh"];
    let mut profiles = vec![EntityProfile::new("pivot").with("name", "jack miller")];
    for (i, decoy) in decoys.iter().enumerate() {
        let text = if i == variant { "jack miller" } else { decoy };
        profiles.push(EntityProfile::new(format!("p{i}")).with("name", text));
    }
    let collection = EntityCollection::dirty(profiles);
    let bytes = Snapshot::build(&collection, PipelineConfig::default()).unwrap().to_bytes();
    SnapshotView::from_bytes(bytes).unwrap()
}

/// The expected sole candidate of entity 0 under `variant`.
fn expected_candidate(variant: usize) -> u32 {
    1 + variant as u32
}

#[test]
fn concurrent_readers_never_observe_a_torn_generation() {
    const READERS: usize = 4;
    const SWAPS: usize = 50;

    let cell = Arc::new(GenerationCell::new(variant_snapshot(0)).unwrap());
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut answered = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    // Pin a generation and serve a few requests off it —
                    // the same pin-then-serve pattern a connection handler
                    // uses, so a swap mid-loop exercises the same races.
                    let generation = cell.load();
                    let mut engine = QueryEngine::from_generation(&generation);
                    for _ in 0..8 {
                        let request = CandidateRequest::entity(EntityId(0))
                            .with_retention(Retention::TopK(1));
                        let response = engine.execute(&request, &mut Noop).unwrap();
                        let scored = response.first().unwrap();
                        // The answer must be the one this *pinned*
                        // generation's variant produces — the ordinal tells
                        // us which variant was swapped in, so a mismatch is
                        // a torn read.
                        let variant = ((generation.ordinal() - 1) as usize) % 4;
                        assert_eq!(
                            scored.candidates.len(),
                            1,
                            "generation {} must retain exactly one candidate",
                            generation.ordinal()
                        );
                        assert_eq!(
                            scored.candidates[0].id.0,
                            expected_candidate(variant),
                            "torn read: generation {} answered with another variant's candidate",
                            generation.ordinal()
                        );
                        answered += 1;
                    }
                }
                answered
            })
        })
        .collect();

    for swap in 0..SWAPS {
        let variant = (swap + 1) % 4;
        let ordinal = cell.swap(variant_snapshot(variant)).unwrap();
        assert_eq!(ordinal as usize, swap + 2);
        // Let readers actually run between swaps.
        std::thread::yield_now();
    }

    stop.store(true, Ordering::SeqCst);
    let mut total = 0;
    for reader in readers {
        total += reader.join().unwrap();
    }
    assert!(total > 0, "readers never got to answer anything");
    assert_eq!(cell.ordinal(), (SWAPS + 1) as u64);
}

#[test]
fn retired_generations_are_released_not_leaked() {
    let cell = GenerationCell::new(variant_snapshot(0)).unwrap();
    let mut pins = Vec::new();
    for swap in 0..10 {
        pins.push(cell.load());
        cell.swap(variant_snapshot((swap + 1) % 4)).unwrap();
    }
    // Each pin is now the sole owner of its retired generation.
    for pin in &pins {
        assert_eq!(Arc::strong_count(pin), 1);
    }
    drop(pins);
    // And the cell is the sole owner of the final one: strong count drops
    // back to 1 once our probe load goes away, so nothing accumulates
    // across N swaps.
    let probe = cell.load();
    assert_eq!(Arc::strong_count(&probe), 2);
}
