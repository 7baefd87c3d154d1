//! The shared per-query intermediate of the single-pass analysis engine.
//!
//! [`QueryAnalysis::of_ref`] is the only place in the pipeline that looks at
//! a query's AST: it runs one [`QueryWalkRef`] over the body and derives
//! every per-query measure — features, projection use, property-path tallies
//! and the structural report — from that single traversal, with one
//! canonical-graph construction shared by the shape, treewidth, girth and
//! constants-excluded analyses. [`crate::analysis::DatasetAnalysis::add`]
//! then folds the intermediate into the corpus tallies without touching the
//! AST again.
//!
//! The original per-measure path (four-plus traversals per query) survives in
//! [`crate::baseline`] as the reference the differential tests compare
//! against.

use crate::analysis::PathTally;
use sparqlog_algebra::{
    classify_fragments_from_walk_ref, projection_use_from_walk_ref, ProjectionUse, QueryFeatures,
    QueryWalkRef,
};
use sparqlog_graph::StructuralReport;
use sparqlog_parser::ast_ref::{self, QueryForm};
use sparqlog_parser::intern::Interner;
use sparqlog_parser::{parse_query_in, Arena, ParseError};

/// Everything the corpus tallies need to know about one query, computed in a
/// single pass.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryAnalysis {
    /// The query form.
    pub form: QueryForm,
    /// The shallow features (keywords, triples, operator sets).
    pub features: QueryFeatures,
    /// Whether the query uses projection (SPARQL 1.1 §18.2.1).
    pub projection: ProjectionUse,
    /// Whether the body contains subqueries.
    pub has_subqueries: bool,
    /// The per-query property-path tally (merged into the dataset tally).
    pub paths: PathTally,
    /// Fragment membership, shape, treewidth and hypertree width.
    pub structural: StructuralReport,
}

impl QueryAnalysis {
    /// Parses `text` into a fresh [`Arena`] and analyses it with
    /// [`QueryAnalysis::of_ref`] and a throwaway [`Interner`] — what a cache
    /// miss runs in the engine, for callers that hold one query's text
    /// rather than a worker's arena (tests, doctests, examples).
    pub fn of_text(text: &str) -> Result<QueryAnalysis, ParseError> {
        let arena = Arena::new();
        let query = parse_query_in(text, &arena)?;
        Ok(QueryAnalysis::of_ref(&query, &mut Interner::new()))
    }

    /// Analyses one query with exactly one traversal of its borrowed,
    /// arena-allocated AST ([`ast_ref::Query`]) and (for CQ-like queries) one
    /// canonical-graph construction. The walk's visible-variable set, the
    /// projection test and the canonical-graph construction all tell
    /// variables apart as `u32` symbols of the calling worker's `interner`
    /// (constants are never interned); the result is byte-identical for any
    /// interner state, since symbols never leak into the returned record.
    ///
    /// Everything reads the tree in place — no node or string is copied out
    /// of it. The record owns no arena data, so the caller may reset the arena
    /// as soon as this returns.
    pub fn of_ref(query: &ast_ref::Query<'_>, interner: &mut Interner) -> QueryAnalysis {
        let walk = QueryWalkRef::of(query, interner);
        let features = QueryFeatures::from_walk_ref(query, &walk);
        let projection = projection_use_from_walk_ref(query, &walk, interner);
        let fragments = classify_fragments_from_walk_ref(query, &walk);
        let structural =
            StructuralReport::from_walk_interned(fragments, walk.tree.as_ref(), interner);
        let mut paths = PathTally::default();
        for p in &walk.paths {
            paths.add(p);
        }
        QueryAnalysis {
            form: query.form,
            features,
            projection,
            has_subqueries: walk.ops.subqueries > 0,
            paths,
            structural,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qa(text: &str) -> QueryAnalysis {
        QueryAnalysis::of_text(text).unwrap()
    }

    #[test]
    fn single_pass_matches_multiwalk_entry_points() {
        for text in [
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) } LIMIT 5",
            "ASK { <http://s> <http://p> <http://o> }",
            "SELECT ?x WHERE { ?x <http://a>/<http://b>* ?y }",
            "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
            "DESCRIBE <http://r>",
            "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } }",
            "SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }",
            "SELECT ?x WHERE { ?x a <http://C> FILTER NOT EXISTS { ?x <http://p> ?y } }",
            "ASK { ?x1 ?p ?x2 . ?x2 <http://a> ?x3 . ?x3 ?p ?x4 }",
            "SELECT (COUNT(?x) AS ?n) WHERE { ?x ?p ?o } GROUP BY ?p HAVING(COUNT(?x) > 1)",
            "SELECT * WHERE { SERVICE <http://ep> { ?s ?p ?o } VALUES ?s { <http://a> } }",
            "SELECT * WHERE { ?x <a>/<b> ?y . ?y <c>* ?z GRAPH ?g { ?z ^<d> ?w } }",
        ] {
            let single = qa(text);
            let arena = Arena::new();
            let q = parse_query_in(text, &arena).unwrap();
            assert_eq!(single.features, QueryFeatures::of(&q), "{text}");
            assert_eq!(
                single.projection,
                sparqlog_algebra::projection_use(&q),
                "{text}"
            );
            assert_eq!(single.structural, StructuralReport::of(&q), "{text}");
            let mut paths = PathTally::default();
            for p in sparqlog_algebra::collect_property_paths(&q) {
                paths.add(&p);
            }
            assert_eq!(single.paths, paths, "{text}");
        }
    }

    #[test]
    fn reused_interner_does_not_change_results() {
        // A worker's interner accumulates symbols across queries; the
        // analysis of each query must not depend on that state.
        let mut interner = Interner::new();
        let mut arena = Arena::new();
        for text in [
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) } LIMIT 5",
            "SELECT ?y WHERE { ?y a <http://C> . ?y <http://p> ?x }",
            "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
            "SELECT ?x WHERE { ?x <http://p> <http://const> }",
            "SELECT * WHERE { ?a <http://p> ?b . ?b <http://p> ?c FILTER(?c = ?a) }",
        ] {
            arena.reset();
            let q = parse_query_in(text, &arena).unwrap();
            let fresh = QueryAnalysis::of_ref(&q, &mut Interner::new());
            let reused = QueryAnalysis::of_ref(&q, &mut interner);
            assert_eq!(format!("{fresh:?}"), format!("{reused:?}"), "{text}");
        }
        assert!(interner.stats().hits > 0);
    }

    #[test]
    fn constants_never_grow_a_workers_interner() {
        // A worker's interner lives as long as its stream. Queries that
        // differ only in a constant must leave it at the size of their
        // variable vocabulary, whatever the number of distinct IRIs and
        // literals that went past.
        let mut interner = Interner::new();
        let mut arena = sparqlog_parser::Arena::new();
        for i in 0..10_000 {
            arena.reset();
            let text = format!(
                "SELECT ?s WHERE {{ ?s <http://p> <http://e/{i}> . ?s <http://q> ?o . \
                 <http://e/{i}> <http://r> \"label {i}\"@en FILTER(?o = ?same) }}"
            );
            let query = sparqlog_parser::parse_query_in(&text, &arena).unwrap();
            let analysis = QueryAnalysis::of_ref(&query, &mut interner);
            assert!(analysis.structural.shape.unwrap().tree, "{text}");
        }
        assert_eq!(interner.stats().distinct, 3); // s, o, same
    }

    #[test]
    fn path_tally_collects_every_path() {
        let a = qa("SELECT * WHERE { ?x <a>/<b> ?y . ?y <c>* ?z GRAPH ?g { ?z ^<d> ?w } }");
        assert_eq!(a.paths.total, 3);
    }
}
