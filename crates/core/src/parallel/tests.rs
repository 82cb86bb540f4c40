//! Unit-level thread-count invariance of the chunked sweeps: every scheme
//! over a [`GraphContext::new_parallel`] context must match the one-worker
//! context bit for bit, counters included.

use crate::pipeline::PruningScheme;
use crate::weighting::{fold_edges, optimized, WeightingImpl, CHUNK, SPAN};
use crate::weights::{EdgeWeigher, WeightingScheme};
use crate::GraphContext;
use er_model::{chunk_ranges, Block, BlockCollection, EntityId, ErKind};
use mb_observe::{Counter, Noop, Observer, RunReport};

type Pairs = Vec<(EntityId, EntityId)>;

fn ids(v: &[u32]) -> Vec<EntityId> {
    v.iter().copied().map(EntityId).collect()
}

fn fixture() -> BlockCollection {
    BlockCollection::new(
        ErKind::Dirty,
        12,
        vec![
            Block::dirty(ids(&[0, 1, 2, 3])),
            Block::dirty(ids(&[2, 3, 4, 5])),
            Block::dirty(ids(&[5, 6, 7])),
            Block::dirty(ids(&[0, 7, 8, 9])),
            Block::dirty(ids(&[9, 10, 11])),
            Block::dirty(ids(&[1, 4, 10])),
        ],
    )
}

/// Enough entities to exceed the [`CHUNK`] floor several times over,
/// so multi-chunk execution is actually exercised.
fn large_fixture() -> BlockCollection {
    crate::fixtures::multi_chunk_dirty(CHUNK as u32 * 4 + 37)
}

fn run_scheme(
    scheme: PruningScheme,
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    obs: &mut dyn Observer,
) -> Pairs {
    let imp = WeightingImpl::Optimized;
    let mut out = Vec::new();
    let sink = |a: EntityId, b: EntityId| out.push((a, b));
    match scheme {
        PruningScheme::Cep => crate::prune::cep(ctx, weigher, imp, obs, sink),
        PruningScheme::Cnp => crate::prune::cnp(ctx, weigher, imp, obs, sink),
        PruningScheme::Wep => crate::prune::wep(ctx, weigher, imp, obs, sink),
        PruningScheme::Wnp => crate::prune::wnp(ctx, weigher, imp, obs, sink),
        PruningScheme::RedefinedCnp => crate::prune::redefined_cnp(ctx, weigher, imp, obs, sink),
        PruningScheme::ReciprocalCnp => crate::prune::reciprocal_cnp(ctx, weigher, imp, obs, sink),
        PruningScheme::RedefinedWnp => crate::prune::redefined_wnp(ctx, weigher, imp, obs, sink),
        PruningScheme::ReciprocalWnp => crate::prune::reciprocal_wnp(ctx, weigher, imp, obs, sink),
    }
    out
}

/// Runs `scheme` with a fresh report over a context with `threads` workers.
fn observed(
    scheme: PruningScheme,
    blocks: &BlockCollection,
    weighting: WeightingScheme,
    threads: usize,
) -> (RunReport, Pairs) {
    let ctx = GraphContext::new_parallel(blocks, blocks.num_entities(), threads);
    let weigher = EdgeWeigher::new(weighting, &ctx);
    let mut report = RunReport::new("par");
    let out = run_scheme(scheme, &ctx, &weigher, &mut report);
    (report, out)
}

fn mean_edge_weight(ctx: &GraphContext<'_>, weigher: &EdgeWeigher<'_, '_>) -> Option<f64> {
    crate::weighting::mean_edge_weight(WeightingImpl::Optimized, ctx, weigher).0
}

#[test]
fn chunking_covers_the_range() {
    for n in [0usize, 1, 7, 16, 255, 256, 257, 1000, 10_000] {
        for t in [1usize, 2, 3, 8, 100] {
            let cs = chunk_ranges(n, t, CHUNK);
            let total: usize = cs.iter().map(|r| r.end - r.start).sum();
            assert_eq!(total, n, "n={n} t={t}");
            for w in cs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }
    // The node sweep hands each chunk its pivot range; together they tile
    // `0..|E|` in order.
    let blocks = large_fixture();
    let n = blocks.num_entities();
    for threads in [1, 2, 3, 8] {
        let ctx = GraphContext::new_parallel(&blocks, n, threads);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let mut ranges = Vec::new();
        crate::weighting::fold_neighborhoods(
            WeightingImpl::Optimized,
            &ctx,
            &weigher,
            |pivots| pivots,
            |_, _, _, _| {},
            |pivots| ranges.push(pivots),
        );
        // One worker drains every CHUNK pivots; at several, this input is
        // one window, split near-equally.
        let expected = match threads {
            1 => (0..n).step_by(CHUNK).map(|s| s..n.min(s + CHUNK)).collect(),
            _ => chunk_ranges(n, threads, CHUNK),
        };
        assert_eq!(ranges, expected, "x{threads}");
    }
}

/// Regression: a 2-entity input must not fan out across a 16-thread
/// pool — tiny ranges collapse to a single chunk.
#[test]
fn chunking_floors_tiny_inputs_to_one_chunk() {
    assert_eq!(chunk_ranges(2, 16, CHUNK).len(), 1);
    assert_eq!(chunk_ranges(2, 16, CHUNK), vec![0..2]);
    assert_eq!(chunk_ranges(CHUNK, 100, CHUNK).len(), 1);
    // Just past the floor, a second chunk becomes useful — but no more.
    assert_eq!(chunk_ranges(CHUNK + 1, 100, CHUNK).len(), 2);
    // Large inputs still use every requested thread.
    assert_eq!(chunk_ranges(CHUNK * 8, 8, CHUNK).len(), 8);
    // A sweep over a 2-entity context with 16 workers is one accumulator.
    let blocks = BlockCollection::new(ErKind::Dirty, 2, vec![Block::dirty(ids(&[0, 1]))]);
    let ctx = GraphContext::new_parallel(&blocks, 2, 16);
    let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
    let mut accs = Vec::new();
    let imp = WeightingImpl::Optimized;
    fold_edges(
        imp,
        &ctx,
        &weigher,
        Vec::new,
        |acc, a, b, _| acc.push((a, b)),
        |acc| accs.push(acc),
    );
    assert_eq!(accs, vec![vec![(EntityId(0), EntityId(1))]]);
}

#[test]
fn parallel_wep_equals_sequential_wep() {
    for blocks in [fixture(), large_fixture()] {
        for scheme in WeightingScheme::ALL {
            let (_, sequential) = observed(PruningScheme::Wep, &blocks, scheme, 1);
            for threads in [3, 8] {
                let (_, parallel) = observed(PruningScheme::Wep, &blocks, scheme, threads);
                assert_eq!(parallel, sequential, "{} x{threads}", scheme.name());
            }
        }
    }
}

/// Every counter total is identical between a 1-thread and an N-thread
/// observed WEP run, and the output matches an unobserved run.
#[test]
fn wep_observed_counters_are_thread_count_invariant() {
    let blocks = large_fixture();
    let ctx = GraphContext::new_dirty(&blocks);
    let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
    let unobserved = run_scheme(PruningScheme::Wep, &ctx, &weigher, &mut Noop);
    let (one_report, one_out) = observed(PruningScheme::Wep, &blocks, WeightingScheme::Js, 1);
    assert_eq!(one_out, unobserved);
    for threads in [2, 4, 8, 16] {
        let (n_report, n_out) = observed(PruningScheme::Wep, &blocks, WeightingScheme::Js, threads);
        assert_eq!(n_out, one_out, "output differs at {threads} threads");
        for c in Counter::ALL {
            assert_eq!(
                n_report.counter_total(c),
                one_report.counter_total(c),
                "counter {} differs at {threads} threads",
                c.name()
            );
        }
    }
}

/// Every pruning scheme's output over an N-worker context is bit-identical
/// to the one-worker context's for every tested thread count, with
/// identical counter totals.
#[test]
fn every_scheme_parallel_matches_sequential_with_invariant_counters() {
    let blocks = large_fixture();
    let ctx = GraphContext::new_dirty(&blocks);
    let weigher = EdgeWeigher::new(WeightingScheme::Ecbs, &ctx);
    for scheme in PruningScheme::ALL {
        let mut seq_report = RunReport::new("seq");
        let seq_out = run_scheme(scheme, &ctx, &weigher, &mut seq_report);
        for threads in [1, 2, 4, 8, 16] {
            let (report, out) = observed(scheme, &blocks, WeightingScheme::Ecbs, threads);
            assert_eq!(out, seq_out, "{} output differs at {threads} threads", scheme.name());
            for c in Counter::ALL {
                assert_eq!(
                    report.counter_total(c),
                    seq_report.counter_total(c),
                    "{}: counter {} differs at {threads} threads",
                    scheme.name(),
                    c.name()
                );
            }
        }
    }
}

#[test]
fn every_scheme_parallel_handles_empty_graph() {
    let blocks = BlockCollection::new(ErKind::Dirty, 4, vec![]);
    for scheme in PruningScheme::ALL {
        let (_, out) = observed(scheme, &blocks, WeightingScheme::Cbs, 4);
        assert!(out.is_empty(), "{}", scheme.name());
    }
}

#[test]
fn mean_weight_agrees() {
    for blocks in [fixture(), large_fixture()] {
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
        let (mut sum, mut count) = (0.0, 0u64);
        optimized::for_each_edge(&ctx, &weigher, |_, _, w| {
            sum += w;
            count += 1;
        });
        let seq_mean = sum / count as f64;
        for threads in [1, 2, 5] {
            let ctx = GraphContext::new_parallel(&blocks, blocks.num_entities(), threads);
            let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
            let par = mean_edge_weight(&ctx, &weigher).unwrap();
            assert!((par - seq_mean).abs() < 1e-12, "x{threads}: {par} vs {seq_mean}");
        }
    }
}

#[test]
fn empty_graph() {
    let blocks = BlockCollection::new(ErKind::Dirty, 4, vec![]);
    let ctx = GraphContext::new_parallel(&blocks, 4, 4);
    let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
    assert_eq!(mean_edge_weight(&ctx, &weigher), None);
    assert!(run_scheme(PruningScheme::Wep, &ctx, &weigher, &mut Noop).is_empty());
}

/// Every scheme gives the same output and counters however the sweep is
/// windowed and chunked: on an input of several windows at every worker
/// count tested, one, two and three workers agree, and Original weighting
/// (block-order edge sweeps) retains the same comparisons.
#[test]
fn every_scheme_is_window_invariant() {
    let blocks = crate::fixtures::multi_chunk_dirty(SPAN as u32 * 4 + 100);
    let sorted = |mut pairs: Pairs| {
        pairs.sort_unstable();
        pairs
    };
    for scheme in PruningScheme::ALL {
        let (one_report, one_out) = observed(scheme, &blocks, WeightingScheme::Js, 1);
        assert!(!one_out.is_empty(), "{}", scheme.name());
        for threads in [2, 3] {
            let (report, out) = observed(scheme, &blocks, WeightingScheme::Js, threads);
            assert_eq!(out, one_out, "{} x{threads}", scheme.name());
            for c in Counter::ALL {
                assert_eq!(
                    report.counter_total(c),
                    one_report.counter_total(c),
                    "{} x{threads}: counter {}",
                    scheme.name(),
                    c.name()
                );
            }
        }
        let mut original = Vec::new();
        crate::MetaBlocking::new(WeightingScheme::Js, scheme)
            .with_weighting_impl(WeightingImpl::Original)
            .run(&blocks, blocks.num_entities(), &mut Noop, |a, b| original.push((a, b)))
            .unwrap();
        assert_eq!(sorted(original), sorted(one_out), "{} original", scheme.name());
    }
}
