//! The implicit blocking graph.
//!
//! "The blocking graph cannot be materialized in memory in the scale of
//! million nodes and billion edges. Instead, it is implemented implicitly"
//! (§4.2): every non-redundant comparison in the block collection *is* an
//! edge. [`GraphContext`] bundles the state every graph traversal needs —
//! the entity index, the per-block cardinalities and the task kind — without
//! ever storing an edge list.

use er_model::{BlockCollection, EntityId, EntityIndex, ErKind};

/// Shared state for implicit blocking-graph traversals.
#[derive(Debug)]
pub struct GraphContext<'b> {
    blocks: &'b BlockCollection,
    index: EntityIndex,
    /// `‖b‖` per block, pre-computed because ARCS divides by it for every
    /// common block of every edge.
    cardinalities: Vec<f64>,
    /// `1 / ‖b‖` per block: the ARCS hot loop multiplies by this instead of
    /// dividing, which is several times cheaper per common block. Stored as
    /// the exact IEEE result of `1.0 / cardinalities[k]`, so summing the
    /// reciprocals is bit-identical to dividing inline.
    recip_cardinalities: Vec<f64>,
    split: usize,
    /// Workers the graph sweeps over this context fan out to (resolved,
    /// never 0).
    threads: usize,
}

impl<'b> GraphContext<'b> {
    /// Builds the context (entity index + block cardinalities) for a block
    /// collection; its graph sweeps run on the calling thread.
    ///
    /// `split` is the id boundary between the two collections for
    /// Clean-Clean ER (see [`er_model::EntityCollection::split`]); pass the
    /// collection size (or use [`GraphContext::new_dirty`]) for Dirty ER.
    pub fn new(blocks: &'b BlockCollection, split: usize) -> Self {
        let index = EntityIndex::build(blocks);
        Self::with_index(blocks, index, split)
    }

    /// Like [`GraphContext::new`], but with up to `threads` workers (`0` =
    /// auto-detect): the entity index builds with
    /// [`EntityIndex::build_parallel`], and every graph sweep over the
    /// context — each pruning scheme, Comparison Propagation — chunks its
    /// pivots across the same count. Output and counters are identical to
    /// the one-worker context for any thread count.
    pub fn new_parallel(blocks: &'b BlockCollection, split: usize, threads: usize) -> Self {
        let threads = crate::pipeline::resolve_threads(threads);
        let index = EntityIndex::build_parallel(blocks, threads);
        GraphContext { threads, ..Self::with_index(blocks, index, split) }
    }

    /// Every constructor ends here. A `split` past `|E|` is clamped to it:
    /// the edge sweeps range over the pivots `0..split`, and an oversized
    /// split puts every entity on the left side either way.
    fn with_index(blocks: &'b BlockCollection, index: EntityIndex, split: usize) -> Self {
        let cardinalities: Vec<f64> = blocks.iter().map(|b| b.cardinality() as f64).collect();
        let recip_cardinalities = cardinalities.iter().map(|&c| 1.0 / c).collect();
        let split = split.min(blocks.num_entities());
        GraphContext { blocks, index, cardinalities, recip_cardinalities, split, threads: 1 }
    }

    /// Builds the context around an index that already exists — the snapshot
    /// load path, where the persisted [`EntityIndex`] must be reused instead
    /// of being re-derived from the blocks.
    ///
    /// The caller is responsible for `index` actually indexing `blocks`
    /// ([`EntityIndex::validate`] checks that); under the `sanitize` feature
    /// the correspondence is verified here.
    pub fn from_index(blocks: &'b BlockCollection, index: EntityIndex, split: usize) -> Self {
        #[cfg(feature = "sanitize")]
        er_model::sanitize::assert_valid(&index.validate(blocks), "GraphContext::from_index");
        Self::with_index(blocks, index, split)
    }

    /// Decomposes the context, handing back ownership of its entity index
    /// (the inverse of [`GraphContext::from_index`]).
    pub fn into_index(self) -> EntityIndex {
        self.index
    }

    /// Context for a Dirty-ER block collection.
    pub fn new_dirty(blocks: &'b BlockCollection) -> Self {
        debug_assert_eq!(blocks.kind(), ErKind::Dirty);
        let n = blocks.num_entities();
        Self::new(blocks, n)
    }

    /// The underlying block collection.
    pub fn blocks(&self) -> &'b BlockCollection {
        self.blocks
    }

    /// The entity index over the block collection.
    pub fn index(&self) -> &EntityIndex {
        &self.index
    }

    /// The task kind of the block collection.
    pub fn kind(&self) -> ErKind {
        self.blocks.kind()
    }

    /// `|E|`: number of entities in the input collection.
    pub fn num_entities(&self) -> usize {
        self.blocks.num_entities()
    }

    /// `‖b_k‖` as `f64`, for the ARCS denominator.
    #[inline]
    pub fn cardinality_of(&self, block: usize) -> f64 {
        self.cardinalities[block]
    }

    /// `1 / ‖b_k‖`, the pre-inverted ARCS denominator.
    #[inline]
    pub fn recip_cardinality_of(&self, block: usize) -> f64 {
        self.recip_cardinalities[block]
    }

    /// Whether two profiles may be compared under the task kind: always (if
    /// distinct) for Dirty ER, only across the two collections for
    /// Clean-Clean ER.
    #[inline]
    pub fn comparable(&self, a: EntityId, b: EntityId) -> bool {
        a != b && (self.kind() == ErKind::Dirty || (a.idx() < self.split) != (b.idx() < self.split))
    }

    /// Whether `id` belongs to the first collection (always true for Dirty
    /// ER).
    #[inline]
    pub fn is_first(&self, id: EntityId) -> bool {
        id.idx() < self.split
    }

    /// The Clean-Clean id boundary (collection size for Dirty ER).
    pub fn split(&self) -> usize {
        self.split
    }

    /// How many workers the graph sweeps over this context use.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// `|B_i|`: number of blocks containing `id`.
    #[inline]
    pub fn num_blocks_of(&self, id: EntityId) -> usize {
        self.index.num_blocks_of(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_model::Block;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().copied().map(EntityId).collect()
    }

    #[test]
    fn dirty_context_basics() {
        let blocks = BlockCollection::new(
            ErKind::Dirty,
            4,
            vec![Block::dirty(ids(&[0, 1, 2])), Block::dirty(ids(&[2, 3]))],
        );
        let ctx = GraphContext::new_dirty(&blocks);
        assert_eq!(ctx.num_entities(), 4);
        assert_eq!(ctx.cardinality_of(0), 3.0);
        assert_eq!(ctx.cardinality_of(1), 1.0);
        assert_eq!(ctx.recip_cardinality_of(0), 1.0 / 3.0);
        assert_eq!(ctx.recip_cardinality_of(1), 1.0);
        assert!(ctx.comparable(EntityId(0), EntityId(3)));
        assert!(!ctx.comparable(EntityId(1), EntityId(1)));
        assert_eq!(ctx.num_blocks_of(EntityId(2)), 2);
    }

    #[test]
    fn clean_clean_comparability() {
        let blocks = BlockCollection::new(
            ErKind::CleanClean,
            4,
            vec![Block::clean_clean(ids(&[0, 1]), ids(&[2, 3]))],
        );
        let ctx = GraphContext::new(&blocks, 2);
        assert!(ctx.comparable(EntityId(0), EntityId(2)));
        assert!(!ctx.comparable(EntityId(0), EntityId(1)));
        assert!(!ctx.comparable(EntityId(2), EntityId(3)));
        assert!(ctx.is_first(EntityId(1)));
        assert!(!ctx.is_first(EntityId(2)));
    }

    /// A split past `|E|` is clamped: the sweeps over `0..split` stay inside
    /// the entity range and see what a split of `|E|` sees, at every worker
    /// count.
    #[test]
    fn oversized_split_is_clamped() {
        use crate::weighting::{self, WeightingImpl};
        use crate::weights::{EdgeWeigher, WeightingScheme};
        let blocks = BlockCollection::new(
            ErKind::Dirty,
            4,
            vec![Block::dirty(ids(&[0, 1, 2])), Block::dirty(ids(&[2, 3]))],
        );
        let sweep = |split: usize, threads: usize| {
            let ctx = GraphContext::new_parallel(&blocks, split, threads);
            let weigher = EdgeWeigher::new(WeightingScheme::Cbs, &ctx);
            let mut pairs = Vec::new();
            crate::propagation::comparison_propagation(&ctx, |a, b| pairs.push((a, b)));
            (
                ctx.split(),
                weighting::mean_edge_weight(WeightingImpl::Optimized, &ctx, &weigher),
                pairs,
            )
        };
        for threads in [1, 4] {
            assert_eq!(sweep(100, threads), sweep(4, threads), "x{threads}");
        }
    }
}
