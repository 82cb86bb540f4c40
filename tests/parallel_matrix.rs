//! The parallel-determinism matrix: every pruning scheme × every weighting
//! scheme × every tested thread count must reproduce the sequential
//! pipeline bit for bit — identical retained comparisons in identical
//! order, identical observer counter totals — for Dirty and Clean-Clean ER.
//!
//! This is the workspace-level acceptance test for the chunked-sweep
//! parallel execution model (see DESIGN.md §8): the thread count is a pure
//! performance knob, never a semantics knob. It covers both weighting
//! implementations (Original sweeps sequentially at any thread count) and
//! the empty graph; under the `sanitize` feature every swept edge and
//! neighborhood is checked at every thread count.

use er_model::{Block, BlockCollection, EntityId, ErKind};
use mb_core::{MetaBlocking, PruningScheme, WeightingImpl, WeightingScheme};
use mb_observe::{Counter, RunReport};

const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

fn ids(v: &[u32]) -> Vec<EntityId> {
    v.iter().copied().map(EntityId).collect()
}

/// A Dirty collection large enough to split into several chunks (the
/// sweeps floor chunks at 256 pivots), with long-range blocks so chunks see
/// non-local neighbors.
fn large_dirty() -> BlockCollection {
    let n: u32 = 256 * 4 + 37;
    let mut blocks = Vec::new();
    for i in (0..n - 4).step_by(3) {
        blocks.push(Block::dirty(ids(&[i, i + 1, i + 2, i + 4])));
    }
    blocks.push(Block::dirty(ids(&[0, n / 2, n - 1])));
    blocks.push(Block::dirty(ids(&[3, n / 3, 2 * n / 3])));
    BlockCollection::new(ErKind::Dirty, n as usize, blocks)
}

/// A Clean-Clean collection of the same scale: left ids `0..600`, right ids
/// `600..1200`, overlapping block windows plus a few long-range blocks.
fn large_clean_clean() -> (BlockCollection, usize) {
    let split: u32 = 600;
    let n = split * 2;
    let mut blocks = Vec::new();
    for i in (0..split - 3).step_by(2) {
        blocks.push(Block::clean_clean(ids(&[i, i + 1, i + 3]), ids(&[split + i, split + i + 2])));
    }
    blocks.push(Block::clean_clean(ids(&[0, split / 2]), ids(&[n - 1, split + 7])));
    blocks.push(Block::clean_clean(ids(&[5, split - 1]), ids(&[split, n - 3])));
    (BlockCollection::new(ErKind::CleanClean, n as usize, blocks), split as usize)
}

fn run_observed(
    blocks: &BlockCollection,
    split: usize,
    scheme: WeightingScheme,
    pruning: PruningScheme,
    imp: WeightingImpl,
    threads: usize,
) -> (RunReport, Vec<(EntityId, EntityId)>) {
    let mut report = RunReport::new("matrix");
    let mut out = Vec::new();
    MetaBlocking::new(scheme, pruning)
        .with_weighting_impl(imp)
        .with_threads(threads)
        .run(blocks, split, &mut report, |a, b| out.push((a, b)))
        .unwrap();
    (report, out)
}

fn assert_matrix(blocks: &BlockCollection, split: usize, kind: &str, imp: WeightingImpl) {
    for pruning in PruningScheme::ALL {
        for scheme in WeightingScheme::ALL {
            let (seq_report, seq_out) = run_observed(blocks, split, scheme, pruning, imp, 1);
            assert!(
                !seq_out.is_empty(),
                "{kind}: {} + {} kept nothing",
                scheme.name(),
                pruning.name()
            );
            for threads in THREAD_COUNTS {
                let (report, out) = run_observed(blocks, split, scheme, pruning, imp, threads);
                assert_eq!(
                    out,
                    seq_out,
                    "{kind}: {} + {} output differs at {threads} threads",
                    scheme.name(),
                    pruning.name()
                );
                for c in Counter::ALL {
                    assert_eq!(
                        report.counter_total(c),
                        seq_report.counter_total(c),
                        "{kind}: {} + {}: counter {} differs at {threads} threads",
                        scheme.name(),
                        pruning.name(),
                        c.name()
                    );
                }
            }
        }
    }
}

#[test]
fn dirty_matrix_is_thread_count_invariant() {
    let blocks = large_dirty();
    let n = blocks.num_entities();
    assert_matrix(&blocks, n, "dirty", WeightingImpl::Optimized);
}

#[test]
fn clean_clean_matrix_is_thread_count_invariant() {
    let (blocks, split) = large_clean_clean();
    assert_matrix(&blocks, split, "clean-clean", WeightingImpl::Optimized);
}

/// Original Edge Weighting (Algorithm 2) sweeps sequentially whatever the
/// thread count; the rest of the run (index build) still fans out, and the
/// result must not move.
#[test]
fn original_weighting_matrix_is_thread_count_invariant() {
    let blocks = large_dirty();
    let n = blocks.num_entities();
    assert_matrix(&blocks, n, "dirty/original", WeightingImpl::Original);
    let (blocks, split) = large_clean_clean();
    assert_matrix(&blocks, split, "clean-clean/original", WeightingImpl::Original);
}

/// A graph without edges keeps nothing at any thread count, under either
/// weighting implementation, with identical counters — including when its
/// entities span several chunks.
#[test]
fn empty_graph_is_thread_count_invariant() {
    let n = 256 * 4 + 37;
    let blocks = BlockCollection::new(ErKind::Dirty, n, vec![]);
    for imp in [WeightingImpl::Optimized, WeightingImpl::Original] {
        for pruning in PruningScheme::ALL {
            let (seq_report, seq_out) =
                run_observed(&blocks, n, WeightingScheme::Cbs, pruning, imp, 1);
            assert!(seq_out.is_empty(), "{} kept comparisons of an empty graph", pruning.name());
            for threads in THREAD_COUNTS {
                let (report, out) =
                    run_observed(&blocks, n, WeightingScheme::Cbs, pruning, imp, threads);
                assert!(out.is_empty(), "{} x{threads}", pruning.name());
                for c in Counter::ALL {
                    assert_eq!(
                        report.counter_total(c),
                        seq_report.counter_total(c),
                        "{}: counter {} differs at {threads} threads",
                        pruning.name(),
                        c.name()
                    );
                }
            }
        }
    }
}

/// `threads: 0` (auto-detect) runs and still matches the sequential output.
#[test]
fn auto_detected_threads_match_sequential() {
    let blocks = large_dirty();
    let n = blocks.num_entities();
    for pruning in PruningScheme::ALL {
        let imp = WeightingImpl::Optimized;
        let (_, seq_out) = run_observed(&blocks, n, WeightingScheme::Js, pruning, imp, 1);
        let (_, auto_out) = run_observed(&blocks, n, WeightingScheme::Js, pruning, imp, 0);
        assert_eq!(auto_out, seq_out, "{} differs under auto threads", pruning.name());
    }
}

/// The graph-free workflow participates in the same parallel model: its
/// index build and propagation sweep are thread-count-invariant too,
/// including the `RetainedComparisons` counter.
#[test]
fn graph_free_is_thread_count_invariant() {
    let blocks = large_dirty();
    let n = blocks.num_entities();
    let run = |threads: usize| {
        let mut report = RunReport::new("graph-free");
        let mut out = Vec::new();
        mb_core::graphfree::graph_free_meta_blocking(
            &blocks,
            n,
            0.55,
            threads,
            &mut report,
            |a, b| out.push((a, b)),
        )
        .unwrap();
        (report, out)
    };
    let (seq_report, seq_out) = run(1);
    assert!(!seq_out.is_empty());
    for threads in THREAD_COUNTS {
        let (report, out) = run(threads);
        assert_eq!(out, seq_out, "graph-free output differs at {threads} threads");
        for c in Counter::ALL {
            assert_eq!(
                report.counter_total(c),
                seq_report.counter_total(c),
                "graph-free counter {} differs at {threads} threads",
                c.name()
            );
        }
    }
}

/// Block Filtering composes with the parallel path: the filtered pipeline
/// is thread-count-invariant too (the filter runs before the sweeps, so the
/// parallel pruners see the same filtered graph).
#[test]
fn filtered_pipeline_is_thread_count_invariant() {
    let blocks = large_dirty();
    let n = blocks.num_entities();
    for pruning in [PruningScheme::Cep, PruningScheme::ReciprocalWnp] {
        let seq = MetaBlocking::new(WeightingScheme::Ecbs, pruning)
            .with_block_filtering(0.8)
            .run_collect(&blocks, n)
            .unwrap();
        for threads in [2, 8] {
            let par = MetaBlocking::new(WeightingScheme::Ecbs, pruning)
                .with_block_filtering(0.8)
                .with_threads(threads)
                .run_collect(&blocks, n)
                .unwrap();
            assert_eq!(par, seq, "{} x{threads}", pruning.name());
        }
    }
}
