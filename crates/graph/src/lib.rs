//! # sparqlog-graph
//!
//! Canonical graph / hypergraph construction, shape classification, treewidth
//! and generalized hypertree width for SPARQL queries — the structural
//! machinery behind Sections 5 and 6 of *"An Analytical Study of Large SPARQL
//! Query Logs"* (Bonifati–Martens–Timm, VLDB 2017).
//!
//! * [`graph`] — the canonical undirected graph of a pattern, with
//!   `?x = ?y` collapsing and a constants-excluded mode, stored as a bit
//!   matrix (one `u64` word per adjacency row for every graph up to 64
//!   nodes) that every structural algorithm of this crate reads directly:
//!   degrees are popcounts, components and subgraphs are node masks.
//! * [`shape`] — the shape taxonomy (single edge, chain, star, tree, forest,
//!   cycle, flower, flower set) and the cumulative Table-4 tally.
//! * [`treewidth`](mod@crate::treewidth) — exact treewidth for query-sized
//!   graphs.
//! * [`hypergraph`] — the canonical hypergraph (for variable predicates).
//! * [`hypertree`] — generalized hypertree width (det-k-decomp style).
//! * [`analyze`] — the per-query [`StructuralReport`] combining everything.
//!
//! The adjacency-set implementation the bit matrix replaced lives on as the
//! crate's test oracle (`src/reference.rs`, compiled under `cfg(test)`
//! only): property tests hold the two equal on random multigraphs on both
//! sides of the one-word-per-row boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod graph;
pub mod hypergraph;
pub mod hypertree;
#[cfg(test)]
mod reference;
pub mod shape;
pub mod treewidth;

pub use analyze::StructuralReport;
pub use graph::{CanonicalGraph, GraphMode};
pub use hypergraph::Hypergraph;
pub use hypertree::{generalized_hypertree_width, HypertreeWidth};
pub use shape::{ShapeClass, ShapeReport, ShapeTally};
pub use treewidth::{treewidth, Treewidth};
