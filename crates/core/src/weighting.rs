//! Edge enumeration and weighting: Original (Algorithm 2) vs Optimized
//! (Algorithm 3).
//!
//! Both enumerate every *distinct* edge of the implicit blocking graph with
//! its weight; they differ in how much work each comparison costs:
//!
//! * [`original::for_each_edge`] iterates over the comparisons of every
//!   block and intersects the two block lists to (a) verify the LeCoBI
//!   condition and (b) count the common blocks — `O(2·BPE)` per comparison;
//! * [`optimized::for_each_edge`] scans each node's blocks once, accumulating
//!   co-occurrence counts in arrays — `O(1)` amortized per comparison (the
//!   ScanCount idea, §4.2).
//!
//! [`fold_edges`] / [`fold_neighborhoods`] run either implementation as the
//! one sweep every pruning scheme folds over, chunked across the worker
//! count of the [`GraphContext`].
//!
//! Prefix Filtering is *not* used: as §4.2 explains, the pruning thresholds
//! are only known a-posteriori and in practice fall below 0.1, which forces
//! Prefix Filtering to keep entire block lists as representations and
//! nullifies its advantage. The ScanCount approach is threshold-independent.

use crate::context::GraphContext;
use crate::scanner::{NeighborhoodScanner, ScanScope};
use crate::weights::EdgeWeigher;
use er_model::EntityId;
use std::cell::Cell;
use std::ops::Range;

/// Which edge-weighting implementation a pruning scheme runs on — the
/// independent variable of the paper's Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightingImpl {
    /// Algorithm 2: per-comparison block-list intersection.
    Original,
    /// Algorithm 3: ScanCount neighborhood sweep (the contribution).
    #[default]
    Optimized,
}

impl WeightingImpl {
    /// Display name used in experiment reports.
    pub fn name(self) -> &'static str {
        match self {
            WeightingImpl::Original => "Original Edge Weighting",
            WeightingImpl::Optimized => "Optimized Edge Weighting",
        }
    }

    /// The stable lowercase token used on command lines and in JSON configs
    /// (the [`std::fmt::Display`]/[`std::str::FromStr`] form).
    pub fn token(self) -> &'static str {
        match self {
            WeightingImpl::Original => "original",
            WeightingImpl::Optimized => "optimized",
        }
    }
}

impl std::fmt::Display for WeightingImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

impl std::str::FromStr for WeightingImpl {
    type Err = String;

    /// Parses `original` or `optimized`, case-insensitively.
    fn from_str(s: &str) -> Result<WeightingImpl, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "original" => Ok(WeightingImpl::Original),
            "optimized" => Ok(WeightingImpl::Optimized),
            _ => Err(format!(
                "unknown weighting implementation '{s}' (expected original or optimized)"
            )),
        }
    }
}

/// Pivots in one sweep chunk at one worker, and the fewest a chunk holds
/// at several — below this a worker's setup outweighs its sweep, so tiny
/// inputs never fan out across the thread pool (a 2-entity collection on a
/// 16-thread context is one chunk).
pub(crate) const CHUNK: usize = 256;

/// Pivots each worker sweeps per window when there are several: enough to
/// amortize the window's thread spawns, few enough to bound what the
/// window buffers.
pub(crate) const SPAN: usize = 8 * CHUNK;

/// The one chunked sweep under every graph traversal. `0..n` is swept in
/// windows — [`CHUNK`] items at one worker, `threads × SPAN` at several,
/// split into near-equal [`er_model::chunk_ranges`] chunks. Each chunk is
/// swept by `body` into a fresh `init` accumulator — on scoped threads when
/// the window holds several chunks, each with its worker's scanner (reused
/// across windows) — and the window's accumulators go to `drain` in chunk
/// order before the next window starts. The drained chunks therefore tile
/// `0..n` in order at every thread count, and what a fold holds at once (a
/// pruning scheme's retained comparisons) is bounded by one window, not by
/// the graph.
pub(crate) fn sweep<T: Send>(
    ctx: &GraphContext<'_>,
    n: usize,
    threads: usize,
    mut init: impl FnMut(Range<usize>) -> T,
    body: impl Fn(&mut NeighborhoodScanner, &mut T, Range<usize>) + Sync,
    mut drain: impl FnMut(T),
) {
    let window = if threads > 1 { threads * SPAN } else { CHUNK };
    let mut scanners: Vec<NeighborhoodScanner> = Vec::new();
    for first in (0..n).step_by(window) {
        let chunks = er_model::chunk_ranges(n.min(first + window) - first, threads, CHUNK);
        scanners.resize_with(scanners.len().max(chunks.len()), || {
            NeighborhoodScanner::new(ctx.num_entities())
        });
        let jobs: Vec<_> = scanners
            .iter_mut()
            .zip(chunks)
            .map(|(scanner, r)| {
                let range = first + r.start..first + r.end;
                (scanner, init(range.clone()), range)
            })
            .collect();
        let done = er_model::map_jobs(jobs, |(scanner, mut acc, range)| {
            body(scanner, &mut acc, range);
            acc
        });
        done.into_iter().for_each(&mut drain);
    }
}

/// Folds every distinct weighted edge into per-chunk accumulators and
/// hands each to `drain`, in sweep order. Both implementations visit each
/// distinct edge exactly once with identical weights; only the per-edge
/// cost differs.
///
/// Under Optimized weighting the left-side pivots `0..split` (every pivot
/// for Dirty ER — each edge is charged to its smaller, left-side endpoint)
/// are chunked across the context's workers ([`GraphContext::new_parallel`]),
/// each chunk sweeping into its own `init()` ([`sweep`]); the drained
/// chunks' visits are the sequential sweep's visit order. Original weighting is the
/// paper's sequential block-order sweep, drained every [`CHUNK`] blocks.
pub fn fold_edges<T, I, F, D>(
    imp: WeightingImpl,
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    mut init: I,
    fold: F,
    drain: D,
) where
    T: Send,
    I: FnMut() -> T,
    F: Fn(&mut T, EntityId, EntityId, f64) + Sync,
    D: FnMut(T),
{
    // Under the sanitize feature every swept edge is checked (finite
    // non-negative weight, comparable endpoints, genuine co-occurrence)
    // before it reaches the fold, at every thread count.
    #[cfg(feature = "sanitize")]
    let fold = |acc: &mut T, a: EntityId, b: EntityId, w: f64| {
        crate::sanitize::check_edge(ctx, a, b, w);
        fold(acc, a, b, w)
    };
    let init = |_| init();
    match imp {
        WeightingImpl::Original => {
            // Algorithm 2 intersects block lists; its worker's scanner is
            // allocated but never touched.
            let body = |_: &mut NeighborhoodScanner, acc: &mut T, blocks: Range<usize>| {
                original::edges_of(ctx, weigher, blocks, |a, b, w| fold(acc, a, b, w))
            };
            sweep(ctx, ctx.blocks().size(), 1, init, body, drain)
        }
        WeightingImpl::Optimized => {
            let body = |scanner: &mut NeighborhoodScanner, acc: &mut T, pivots| {
                optimized::edges_of(ctx, weigher, scanner, pivots, |a, b, w| fold(acc, a, b, w))
            };
            sweep(ctx, ctx.split(), ctx.threads(), init, body, drain)
        }
    }
}

/// The node-centric analogue of [`fold_edges`]: folds every non-empty
/// neighborhood (`neighbors[k]` has weight `weights[k]`) into per-chunk
/// accumulators and hands each to `drain`, in sweep order.
///
/// `init` receives the pivot range its chunk sweeps, so an accumulator can
/// hold one slot per pivot; the chunks' ranges tile `0..|E|` in order.
/// Optimized weighting chunks the pivots across the context's workers;
/// Original weighting sweeps them on one.
pub fn fold_neighborhoods<T, I, F, D>(
    imp: WeightingImpl,
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    init: I,
    fold: F,
    drain: D,
) where
    T: Send,
    I: FnMut(Range<usize>) -> T,
    F: Fn(&mut T, EntityId, &[u32], &[f64]) + Sync,
    D: FnMut(T),
{
    #[cfg(feature = "sanitize")]
    let fold = |acc: &mut T, pivot: EntityId, ids: &[u32], weights: &[f64]| {
        crate::sanitize::check_neighborhood(ctx, pivot, ids, weights);
        fold(acc, pivot, ids, weights)
    };
    let threads = match imp {
        WeightingImpl::Original => 1,
        WeightingImpl::Optimized => ctx.threads(),
    };
    let body = |scanner: &mut NeighborhoodScanner, acc: &mut T, pivots| {
        let sink = |p, ids: &[u32], ws: &[f64]| fold(acc, p, ids, ws);
        match imp {
            WeightingImpl::Original => {
                original::neighborhoods_of(ctx, weigher, scanner, pivots, sink)
            }
            WeightingImpl::Optimized => {
                optimized::neighborhoods_of(ctx, weigher, scanner, pivots, sink)
            }
        }
    };
    sweep(ctx, ctx.num_entities(), threads, init, body, drain)
}

/// The mean weight WEP prunes by, `None` for an edgeless graph, and the
/// number of edges swept to get it. The running sum rides in the first
/// chunk of every window and the other chunks' sums add to it in chunk
/// order, so a one-worker sweep sums every weight in sweep order.
pub fn mean_edge_weight(
    imp: WeightingImpl,
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
) -> (Option<f64>, u64) {
    let sum = Cell::new(0.0f64);
    let mut count = 0u64;
    fold_edges(
        imp,
        ctx,
        weigher,
        || (sum.take(), 0u64),
        |(s, c), _, _, w| {
            *s += w;
            *c += 1;
        },
        |(s, c)| {
            sum.set(sum.get() + s);
            count += c;
        },
    );
    ((count > 0).then(|| sum.get() / count as f64), count)
}

/// Optimized Edge Weighting (Algorithm 3).
pub mod optimized {
    use super::*;

    /// Invokes `sink(i, j, weight)` for every distinct edge of the blocking
    /// graph, in deterministic order. `i < j` always holds.
    pub fn for_each_edge(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        sink: impl FnMut(EntityId, EntityId, f64),
    ) {
        let mut scanner = NeighborhoodScanner::new(ctx.num_entities());
        edges_of(ctx, weigher, &mut scanner, 0..ctx.split(), sink);
    }

    /// [`for_each_edge`] restricted to the edges charged to `pivots`, a
    /// sub-range of the left-side ids `0..split`. For Clean-Clean ER every
    /// edge is charged to its left-side endpoint (right-side ids are all
    /// larger), so right-side pivots would scan empty and are never swept.
    pub(crate) fn edges_of(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        scanner: &mut NeighborhoodScanner,
        pivots: Range<usize>,
        mut sink: impl FnMut(EntityId, EntityId, f64),
    ) {
        let accumulate = weigher.scheme().accumulate();
        // Entity ids are dense u32s, so the range bounds always fit.
        for raw in pivots.start as u32..pivots.end as u32 {
            let pivot = EntityId(raw);
            let hood = scanner.scan(ctx, pivot, accumulate, ScanScope::GreaterOnly);
            for &j in hood.ids {
                let other = EntityId(j);
                let w = weigher.weight(pivot, other, hood.score_of(j));
                sink(pivot, other, w);
            }
        }
    }

    /// Invokes `sink(i, neighbors, weights)` for every node with a
    /// non-empty neighborhood; `neighbors[k]` has weight `weights[k]`.
    ///
    /// This is the node-centric view used by CNP/WNP and their redefined and
    /// reciprocal variants. The buffers are reused across nodes.
    pub fn for_each_neighborhood(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        sink: impl FnMut(EntityId, &[u32], &[f64]),
    ) {
        let mut scanner = NeighborhoodScanner::new(ctx.num_entities());
        neighborhoods_of(ctx, weigher, &mut scanner, 0..ctx.num_entities(), sink);
    }

    /// [`for_each_neighborhood`] restricted to the pivots in `pivots`.
    pub(crate) fn neighborhoods_of(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        scanner: &mut NeighborhoodScanner,
        pivots: Range<usize>,
        mut sink: impl FnMut(EntityId, &[u32], &[f64]),
    ) {
        let accumulate = weigher.scheme().accumulate();
        let mut ids: Vec<u32> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for raw in pivots.start as u32..pivots.end as u32 {
            let pivot = EntityId(raw);
            let hood = scanner.scan(ctx, pivot, accumulate, ScanScope::All);
            if hood.ids.is_empty() {
                continue;
            }
            ids.clear();
            weights.clear();
            ids.extend_from_slice(hood.ids);
            for &j in &ids {
                weights.push(weigher.weight(pivot, EntityId(j), hood.score_of(j)));
            }
            sink(pivot, &ids, &weights);
        }
    }
}

/// Original Edge Weighting (Algorithm 2) — the baseline the paper improves.
pub mod original {
    use super::*;
    use er_model::ErKind;

    /// Invokes `sink(i, j, weight)` for every distinct edge, discovering
    /// edges by iterating all comparisons of all blocks and filtering with
    /// the LeCoBI condition, exactly as Algorithm 2 does.
    pub fn for_each_edge(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        sink: impl FnMut(EntityId, EntityId, f64),
    ) {
        edges_of(ctx, weigher, 0..ctx.blocks().size(), sink);
    }

    /// [`for_each_edge`] restricted to the comparisons of the blocks in
    /// `blocks`.
    pub(crate) fn edges_of(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        blocks: Range<usize>,
        mut sink: impl FnMut(EntityId, EntityId, f64),
    ) {
        let arcs =
            weigher.scheme().accumulate() == crate::scanner::Accumulate::ReciprocalCardinalities;
        let dirty = ctx.kind() == ErKind::Dirty;
        for k in blocks {
            let block = ctx.blocks().block(k);
            let k = k as u32;
            let mut handle = |a: EntityId, b: EntityId| {
                if let Some(score) = lecobi_score(ctx, a, b, k, arcs) {
                    sink(a, b, weigher.weight(a, b, score));
                }
            };
            if dirty {
                let members = block.left();
                for (x, &a) in members.iter().enumerate() {
                    for &b in &members[x + 1..] {
                        if a < b {
                            handle(a, b);
                        } else {
                            handle(b, a);
                        }
                    }
                }
            } else {
                for &a in block.left() {
                    for &b in block.right() {
                        handle(a, b);
                    }
                }
            }
        }
    }

    /// Node-centric edge weighting with the original per-edge cost model:
    /// for every node, its distinct neighbors are gathered from its blocks
    /// and each incident edge is weighted by a full block-list intersection
    /// (`O(2·BPE)` per edge, twice per edge over the whole pass) — how the
    /// original CNP/WNP implementations operated before Algorithm 3.
    pub fn for_each_neighborhood(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        sink: impl FnMut(EntityId, &[u32], &[f64]),
    ) {
        let mut scanner = NeighborhoodScanner::new(ctx.num_entities());
        neighborhoods_of(ctx, weigher, &mut scanner, 0..ctx.num_entities(), sink);
    }

    /// [`for_each_neighborhood`] restricted to the pivots in `pivots`.
    pub(crate) fn neighborhoods_of(
        ctx: &GraphContext<'_>,
        weigher: &EdgeWeigher<'_, '_>,
        scanner: &mut NeighborhoodScanner,
        pivots: Range<usize>,
        mut sink: impl FnMut(EntityId, &[u32], &[f64]),
    ) {
        let arcs =
            weigher.scheme().accumulate() == crate::scanner::Accumulate::ReciprocalCardinalities;
        let mut ids: Vec<u32> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for raw in pivots.start as u32..pivots.end as u32 {
            let pivot = EntityId(raw);
            // Gather distinct neighbors (the scan is used purely as a
            // deduplicating set here; the scores are discarded).
            let hood =
                scanner.scan(ctx, pivot, crate::scanner::Accumulate::CommonBlocks, ScanScope::All);
            if hood.ids.is_empty() {
                continue;
            }
            ids.clear();
            weights.clear();
            ids.extend_from_slice(hood.ids);
            for &j in &ids {
                let score = intersect_score(ctx, pivot, EntityId(j), arcs);
                weights.push(weigher.weight(pivot, EntityId(j), score));
            }
            sink(pivot, &ids, &weights);
        }
    }

    /// Full block-list intersection of a co-occurring pair: `|B_ij|`, or
    /// `Σ 1/‖b‖` when `arcs` is set.
    fn intersect_score(ctx: &GraphContext<'_>, a: EntityId, b: EntityId, arcs: bool) -> f64 {
        let (mut x, mut y) = (ctx.index().block_list(a), ctx.index().block_list(b));
        let mut score = 0.0;
        while let (Some(&m), Some(&n)) = (x.first(), y.first()) {
            match m.cmp(&n) {
                std::cmp::Ordering::Less => x = &x[1..],
                std::cmp::Ordering::Greater => y = &y[1..],
                std::cmp::Ordering::Equal => {
                    score += if arcs { 1.0 / ctx.cardinality_of(m as usize) } else { 1.0 };
                    x = &x[1..];
                    y = &y[1..];
                }
            }
        }
        score
    }

    /// The core of Algorithm 2 (lines 7–15): intersect the block lists of
    /// `a` and `b`; abort as soon as the first common id differs from `k`
    /// (redundant comparison); otherwise return the accumulated score —
    /// `|B_ij|`, or `Σ 1/‖b‖` when `arcs` is set.
    fn lecobi_score(
        ctx: &GraphContext<'_>,
        a: EntityId,
        b: EntityId,
        k: u32,
        arcs: bool,
    ) -> Option<f64> {
        let (mut x, mut y) = (ctx.index().block_list(a), ctx.index().block_list(b));
        let mut score = 0.0;
        let mut first = true;
        while let (Some(&m), Some(&n)) = (x.first(), y.first()) {
            match m.cmp(&n) {
                std::cmp::Ordering::Less => x = &x[1..],
                std::cmp::Ordering::Greater => y = &y[1..],
                std::cmp::Ordering::Equal => {
                    if first {
                        if m != k {
                            return None; // violates LeCoBI: redundant here
                        }
                        first = false;
                    }
                    score += if arcs { 1.0 / ctx.cardinality_of(m as usize) } else { 1.0 };
                    x = &x[1..];
                    y = &y[1..];
                }
            }
        }
        if first {
            None // no common block at all (cannot happen inside a block)
        } else {
            Some(score)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightingScheme;
    use er_model::{Block, BlockCollection, ErKind};
    use std::collections::BTreeMap;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    fn fixture() -> BlockCollection {
        BlockCollection::new(
            ErKind::Dirty,
            5,
            vec![
                Block::dirty(ids(&[0, 1])),
                Block::dirty(ids(&[0, 1, 2])),
                Block::dirty(ids(&[1, 2, 3])),
                Block::dirty(ids(&[2, 4])),
            ],
        )
    }

    fn collect_edges(
        f: impl FnOnce(&mut dyn FnMut(EntityId, EntityId, f64)),
    ) -> BTreeMap<(u32, u32), f64> {
        let mut out = BTreeMap::new();
        let mut sink = |a: EntityId, b: EntityId, w: f64| {
            let key = (a.0.min(b.0), a.0.max(b.0));
            assert!(out.insert(key, w).is_none(), "edge {key:?} visited twice");
        };
        f(&mut sink);
        out
    }

    #[test]
    fn optimized_and_original_agree_on_every_scheme() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        for scheme in WeightingScheme::ALL {
            let weigher = EdgeWeigher::new(scheme, &ctx);
            let fast = collect_edges(|sink| optimized::for_each_edge(&ctx, &weigher, sink));
            let slow = collect_edges(|sink| original::for_each_edge(&ctx, &weigher, sink));
            assert_eq!(fast.len(), slow.len(), "{}", scheme.name());
            for (edge, w) in &fast {
                let w2 = slow[edge];
                assert!(
                    (w - w2).abs() < 1e-9,
                    "{}: edge {edge:?}: optimized={w}, original={w2}",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn edge_set_matches_distinct_comparisons() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let edges = collect_edges(|sink| optimized::for_each_edge(&ctx, &weigher, sink));
        // Distinct pairs: (0,1),(0,2),(1,2),(1,3),(2,3),(2,4) = 6.
        assert_eq!(edges.len(), 6);
        assert_eq!(edges[&(0, 1)], 2.0);
        assert_eq!(edges[&(1, 2)], 2.0);
        assert_eq!(edges[&(2, 4)], 1.0);
    }

    #[test]
    fn neighborhoods_cover_each_edge_twice() {
        let blocks = fixture();
        let ctx = GraphContext::new_dirty(&blocks);
        let weigher = EdgeWeigher::new(WeightingScheme::Js, &ctx);
        let mut seen: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        let mut weights_match = true;
        optimized::for_each_neighborhood(&ctx, &weigher, |i, ids, ws| {
            for (&j, &w) in ids.iter().zip(ws) {
                let key = (i.0.min(j), i.0.max(j));
                *seen.entry(key).or_default() += 1;
                // JS is symmetric: both directions must agree.
                let sym = weigher.weight(
                    EntityId(key.0),
                    EntityId(key.1),
                    ctx.index().common_blocks(EntityId(key.0), EntityId(key.1)) as f64,
                );
                if (w - sym).abs() > 1e-9 {
                    weights_match = false;
                }
            }
        });
        assert!(weights_match);
        assert_eq!(seen.len(), 6);
        assert!(seen.values().all(|&c| c == 2));
    }

    #[test]
    fn clean_clean_edges_enumerated_once() {
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            4,
            vec![
                Block::clean_clean(ids(&[0, 1]), ids(&[2, 3])),
                Block::clean_clean(ids(&[0]), ids(&[2])),
            ],
        );
        let ctx = GraphContext::new(&blocks, 2);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let fast = collect_edges(|sink| optimized::for_each_edge(&ctx, &weigher, sink));
        let slow = collect_edges(|sink| original::for_each_edge(&ctx, &weigher, sink));
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), 4);
        assert_eq!(fast[&(0, 2)], 2.0);
    }

    /// Edges `(a, b, w)` and neighborhoods `(pivot range, hoods)` of one
    /// drained chunk each, in drain order.
    type EdgeChunks = Vec<Vec<(EntityId, EntityId, f64)>>;
    type HoodChunks = Vec<(Range<usize>, Vec<(EntityId, Vec<u32>, Vec<f64>)>)>;

    fn drained(ctx: &GraphContext<'_>, weigher: &EdgeWeigher<'_, '_>) -> (EdgeChunks, HoodChunks) {
        let (mut edges, mut hoods) = (Vec::new(), Vec::new());
        let imp = WeightingImpl::Optimized;
        fold_edges(
            imp,
            ctx,
            weigher,
            Vec::new,
            |acc, a, b, w| acc.push((a, b, w)),
            |c| edges.push(c),
        );
        fold_neighborhoods(
            imp,
            ctx,
            weigher,
            |pivots| (pivots, Vec::new()),
            |(_, acc), p, ids, ws| acc.push((p, ids.to_vec(), ws.to_vec())),
            |c| hoods.push(c),
        );
        (edges, hoods)
    }

    /// The drained chunks of both folds concatenate to the streaming
    /// sweeps' output, and the neighborhood chunks' pivot ranges tile
    /// `0..|E|` in order, none wider than [`CHUNK`] at one worker (what a
    /// one-worker fold buffers) and than [`SPAN`] at several.
    #[test]
    fn folds_match_the_streaming_sweeps_at_every_thread_count() {
        let blocks = crate::fixtures::multi_chunk_dirty(CHUNK as u32 * 4 + 37);
        let n = blocks.num_entities();
        let ctx = GraphContext::new_dirty(&blocks);
        for scheme in WeightingScheme::ALL {
            let weigher = EdgeWeigher::new(scheme, &ctx);
            let mut edges = Vec::new();
            optimized::for_each_edge(&ctx, &weigher, |a, b, w| edges.push((a, b, w)));
            let mut hoods = Vec::new();
            optimized::for_each_neighborhood(&ctx, &weigher, |p, ids, ws| {
                hoods.push((p, ids.to_vec(), ws.to_vec()))
            });
            for threads in [1, 2, 3, 4, 7] {
                let ctx = GraphContext::new_parallel(&blocks, n, threads);
                let weigher = EdgeWeigher::new(scheme, &ctx);
                let (edge_chunks, hood_chunks) = drained(&ctx, &weigher);
                let at = format!("{} x{threads}", scheme.name());
                let widest = if threads > 1 { SPAN } else { CHUNK };
                assert!(edge_chunks.len() > 1, "{at}");
                assert_eq!(edge_chunks.concat(), edges, "{at}");
                let mut end = 0;
                for (r, _) in &hood_chunks {
                    assert_eq!(r.start, end, "{at}");
                    assert!(!r.is_empty() && r.len() <= widest, "{at}: {r:?}");
                    end = r.end;
                }
                assert_eq!(end, n, "{at}");
                let got: Vec<_> = hood_chunks.into_iter().flat_map(|(_, acc)| acc).collect();
                assert_eq!(got, hoods, "{at}");
            }
        }
    }

    /// Clean-Clean edge sweeps chunk the left-side pivots only: at two
    /// workers both chunks hold edges (chunking all of `0..|E|` would leave
    /// the right-side chunk empty).
    #[test]
    fn clean_clean_edge_sweeps_chunk_the_left_side() {
        let split = CHUNK as u32 * 2;
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            split as usize * 2,
            (0..split).map(|i| Block::clean_clean(ids(&[i]), ids(&[split + i]))).collect(),
        );
        let ctx = GraphContext::new_parallel(&blocks, split as usize, 2);
        let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
        let counts: Vec<usize> = drained(&ctx, &weigher).0.iter().map(Vec::len).collect();
        assert_eq!(counts, vec![split as usize / 2; 2]);
    }
}
