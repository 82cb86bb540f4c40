//! Pruning algorithms: which edges of the weighted blocking graph survive.
//!
//! Terminology (§3): a *pruning scheme* couples an algorithm (edge- or
//! node-centric) with a criterion (weight or cardinality threshold). The
//! four original schemes come from the TKDE'14 meta-blocking framework:
//!
//! | scheme | algorithm | criterion |
//! |--------|-----------|-----------|
//! | [`cep`] | edge-centric | global top-`K`, `K = ⌊Σ|b|/2⌋` |
//! | [`cnp`] | node-centric | per-node top-`k`, `k = ⌊Σ|b|/|E|⌋ − 1` |
//! | [`wep`] | edge-centric | global mean weight |
//! | [`wnp`] | node-centric | per-neighborhood mean weight |
//!
//! The original node-centric schemes emit *directed* retained edges — an
//! edge kept by both endpoints yields two comparisons. The paper's §5
//! contributions fix exactly that:
//!
//! * [`redefined_cnp`] / [`redefined_wnp`] (Algorithms 4/5): retain each
//!   edge at most once, if it satisfies *either* endpoint's criterion;
//! * [`reciprocal_cnp`] / [`reciprocal_wnp`]: retain only edges satisfying
//!   *both* endpoints' criteria (reciprocal links).
//!
//! Every scheme is written once, as folds over the chunked sweeps of
//! [`crate::weighting::fold_edges`] / [`crate::weighting::fold_neighborhoods`]:
//! each chunk of pivots collects its retained comparisons and counter
//! tallies, and the chunks are drained to the sink in chunk order — the
//! sequential sweep order — so output and counters are the same at every
//! worker count of the [`GraphContext`]. Beyond the per-node criteria, only
//! one sweep window's retained comparisons are held at a time.

mod cardinality;
mod weight_based;

use crate::context::GraphContext;
use crate::weighting::{self, WeightingImpl};
use crate::weights::EdgeWeigher;
use er_model::EntityId;
use mb_observe::{Counter, Observer, Stage, StageScope};
use std::cell::Cell;

pub use cardinality::{cep, cep_threshold, cnp, cnp_threshold, reciprocal_cnp, redefined_cnp};
pub(crate) use cardinality::{top_k_neighbors, WeightedEdge};
pub(crate) use weight_based::{neighborhood_mean, reaches};
pub use weight_based::{reciprocal_wnp, redefined_wnp, wep, wnp};

/// How a two-phase node-centric scheme combines its endpoints' criteria
/// (Algorithms 4/5 use `Either`; the reciprocal variants use `Both`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Combine {
    /// Retain if the criterion holds for at least one endpoint (OR).
    Either,
    /// Retain only if the criterion holds for both endpoints (AND).
    Both,
}

impl Combine {
    /// Combines the two endpoints' verdicts.
    fn holds(self, a: bool, b: bool) -> bool {
        match self {
            Combine::Either => a || b,
            Combine::Both => a && b,
        }
    }
}

/// One chunk's share of a pruning sweep: the comparisons it retained, in
/// sweep order, and its counter tallies.
struct Kept {
    pairs: Vec<(EntityId, EntityId)>,
    hoods: u64,
    edges: u64,
}

impl Kept {
    /// An empty chunk share collecting into the buffer `pairs` holds (a
    /// drained chunk's, emptied), so a sweep reuses one allocation across
    /// its windows.
    fn reusing(pairs: &Cell<Vec<(EntityId, EntityId)>>) -> Kept {
        Kept { pairs: pairs.take(), hoods: 0, edges: 0 }
    }

    /// Tallies one swept neighborhood of `degree` directed edges.
    fn scanned(&mut self, degree: usize) {
        self.hoods += 1;
        self.edges += degree as u64;
    }
}

/// The running (neighborhoods, edges, retained) totals of a pruning sweep.
#[derive(Default)]
struct Totals {
    hoods: u64,
    edges: u64,
    retained: u64,
}

impl Totals {
    /// Streams one drained chunk's retained comparisons to `sink`, adds its
    /// tallies and returns its emptied buffer for [`Kept::reusing`].
    fn emit(
        &mut self,
        mut chunk: Kept,
        sink: &mut impl FnMut(EntityId, EntityId),
    ) -> Vec<(EntityId, EntityId)> {
        self.hoods += chunk.hoods;
        self.edges += chunk.edges;
        self.retained += chunk.pairs.len() as u64;
        for (a, b) in chunk.pairs.drain(..) {
            sink(a, b);
        }
        chunk.pairs
    }
}

/// The edge-centric pruning sweep, reported as [`Stage::Pruning`]: streams
/// the distinct edges `keep` accepts to `sink`, in sweep order.
fn retain_edges(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    imp: WeightingImpl,
    obs: &mut dyn Observer,
    mut sink: impl FnMut(EntityId, EntityId),
    keep: impl Fn(EntityId, EntityId, f64) -> bool + Sync,
) {
    let mut scope = StageScope::enter(obs, Stage::Pruning);
    let (mut totals, spare) = (Totals::default(), Cell::default());
    weighting::fold_edges(
        imp,
        ctx,
        weigher,
        || Kept::reusing(&spare),
        |acc, a, b, w| {
            acc.edges += 1;
            if keep(a, b, w) {
                acc.pairs.push((a, b));
            }
        },
        |chunk| spare.set(totals.emit(chunk, &mut sink)),
    );
    scope.add(Counter::EdgesWeighed, totals.edges);
    scope.add(Counter::RetainedComparisons, totals.retained);
    scope.finish();
}

/// One chunk of [`per_node`]: the slots of the pivots in its range.
struct Slots<'a, C> {
    first: usize,
    slots: &'a mut [C],
    hoods: u64,
    edges: u64,
}

/// Phase 1 of the two-phase schemes: every node's criterion, `select`ed from
/// its neighborhood (`none` for a node without one), indexed by entity id,
/// plus the sweep's (neighborhoods, directed edges) tally. Each chunk fills
/// the slots of its own pivot range in place.
fn per_node<C: Clone + Send>(
    ctx: &GraphContext<'_>,
    weigher: &EdgeWeigher<'_, '_>,
    imp: WeightingImpl,
    none: C,
    select: impl Fn(EntityId, &[u32], &[f64]) -> C + Sync,
) -> (Vec<C>, u64, u64) {
    let mut all = vec![none; ctx.num_entities()];
    let (mut hoods, mut edges) = (0, 0);
    // The chunks' pivot ranges tile `0..|E|` in order, so each takes the
    // next `len` slots.
    let mut rest: &mut [C] = &mut all;
    weighting::fold_neighborhoods(
        imp,
        ctx,
        weigher,
        |pivots| {
            let (slots, tail) = std::mem::take(&mut rest).split_at_mut(pivots.len());
            rest = tail;
            Slots { first: pivots.start, slots, hoods: 0, edges: 0 }
        },
        |acc, pivot, ids, weights| {
            acc.hoods += 1;
            acc.edges += ids.len() as u64;
            acc.slots[pivot.idx() - acc.first] = select(pivot, ids, weights);
        },
        |acc| {
            hoods += acc.hoods;
            edges += acc.edges;
        },
    );
    (all, hoods, edges)
}
