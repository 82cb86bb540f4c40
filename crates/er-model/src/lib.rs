//! # er-model — the entity-resolution substrate
//!
//! This crate provides every data structure that the Enhanced Meta-blocking
//! reproduction (EDBT 2016, Papadakis et al.) builds on:
//!
//! * [`EntityProfile`] — a uniquely identified collection of name–value pairs
//!   describing a real-world object (§3 of the paper);
//! * [`EntityCollection`] — the input of an ER task, either *Dirty ER*
//!   (one collection with duplicates) or *Clean-Clean ER* (two duplicate-free
//!   but overlapping collections);
//! * [`Block`] / [`BlockCollection`] — the output of a blocking method, with
//!   the size/cardinality/BPE statistics used throughout the paper;
//! * [`EntityIndex`] — the inverted index from entity ids to block ids that
//!   underlies the implicit blocking graph and the LeCoBI condition;
//! * [`GroundTruth`] — the set of duplicate pairs `D(E)`;
//! * [`measures`] — Pairs Completeness, Pairs Quality and Reduction Ratio;
//! * [`matching`] — the Jaccard token matcher used for resolution-time
//!   accounting, plus a ground-truth oracle;
//! * [`fxhash`] — a fast, non-cryptographic hasher for the id-keyed maps in
//!   the hot paths (the workloads are hashing-heavy, so the default SipHash
//!   is measurably slower).
//!
//! The crate is deliberately free of any blocking or meta-blocking logic;
//! those live in `er-blocking` and `mb-core`.
//!
//! ## Invariant sanitizing
//!
//! The [`sanitize`] module provides validators for every structure above
//! (`BlockCollection::validate`, `EntityIndex::validate`, …). They are
//! always available; building the crate with the `sanitize` cargo feature
//! additionally runs them as self-checks inside the hot constructors, which
//! downstream crates use to validate whole pipelines under test.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod chunk;
pub mod collection;
pub mod comparisons;
pub mod error;
pub mod fxhash;
pub mod groundtruth;
pub mod ids;
pub mod index;
pub mod matching;
pub mod measures;
pub mod profile;
pub mod sanitize;
pub mod tokenize;
pub mod view;

pub use block::{Block, BlockCollection, BlockCollectionBuilder, BlockRef};
pub use chunk::{chunk_ranges, map_chunks, map_jobs};
pub use collection::{EntityCollection, ErKind};
pub use comparisons::{Comparison, ComparisonSet};
pub use error::{Error, Result};
pub use groundtruth::GroundTruth;
pub use ids::{BlockId, EntityId};
pub use index::EntityIndex;
pub use profile::EntityProfile;
pub use sanitize::Violation;
pub use view::U32s;
