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

/// A triple pattern for this crate's unit tests: `?name` is a variable,
/// anything else an IRI.
#[cfg(test)]
pub(crate) fn triple<'a>(
    s: &'a str,
    p: &'a str,
    o: &'a str,
) -> sparqlog_parser::ast_ref::TriplePattern<'a> {
    use sparqlog_parser::ast_ref::{Term, TriplePattern};
    let term = |x: &'a str| match x.strip_prefix('?') {
        Some(v) => Term::Var(v),
        None => Term::Iri(x),
    };
    TriplePattern {
        subject: term(s),
        predicate: term(p),
        object: term(o),
    }
}

/// The with-constants graph of one edge per pair of variable names, for this
/// crate's unit tests.
#[cfg(test)]
pub(crate) fn graph_of(edges: &[(&str, &str)]) -> CanonicalGraph {
    use sparqlog_parser::ast_ref::{Term, TriplePattern};
    let triples: Vec<TriplePattern<'_>> = edges
        .iter()
        .map(|(s, o)| TriplePattern {
            subject: Term::Var(s),
            predicate: Term::Iri("p"),
            object: Term::Var(o),
        })
        .collect();
    CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).unwrap()
}
