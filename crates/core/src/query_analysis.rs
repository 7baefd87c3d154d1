//! The shared per-query intermediate of the single-pass analysis engine.
//!
//! [`QueryAnalysis::of`] is the only place in the pipeline that looks at a
//! query's AST: it runs one [`QueryWalk`] over the body and derives every
//! per-query measure — features, projection use, property-path tallies and
//! the structural report — from that single traversal, with one canonical-
//! graph construction shared by the shape, treewidth, girth and
//! constants-excluded analyses. [`crate::analysis::DatasetAnalysis::add`]
//! then folds the intermediate into the corpus tallies without touching the
//! AST again.
//!
//! The original per-measure path (four-plus traversals per query) survives in
//! [`crate::baseline`] as the reference the differential tests compare
//! against.

use sparqlog_algebra::{
    classify_fragments_from_walk, classify_fragments_from_walk_ref, projection_use_from_walk,
    projection_use_from_walk_ref, ProjectionUse, QueryFeatures, QueryWalk, QueryWalkRef,
};
use sparqlog_graph::StructuralReport;
use sparqlog_parser::ast::QueryForm;
use sparqlog_parser::ast_ref;
use sparqlog_parser::intern::Interner;
use sparqlog_parser::Query;
use sparqlog_paths::PathTally;

/// Everything the corpus tallies need to know about one query, computed in a
/// single pass.
#[derive(Debug, Clone)]
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
    /// Analyses one query with exactly one AST traversal and (for CQ-like
    /// queries) one canonical-graph construction, using a throwaway term
    /// interner. Workers analysing many queries should prefer
    /// [`QueryAnalysis::of_with`] with a long-lived interner so variable
    /// names repeated across queries are stored once.
    pub fn of(query: &Query) -> QueryAnalysis {
        QueryAnalysis::of_with(query, &mut Interner::new())
    }

    /// [`QueryAnalysis::of`] with an explicit per-worker [`Interner`]: the
    /// walk's visible-variable set, the projection test and the
    /// canonical-graph construction all tell variables apart as `u32`
    /// symbols instead of strings (constants are never interned). The
    /// result is byte-identical for any interner state (symbols never leak
    /// into the returned record).
    pub fn of_with(query: &Query, interner: &mut Interner) -> QueryAnalysis {
        let walk = QueryWalk::of(query, interner);
        let features = QueryFeatures::from_walk(query, &walk);
        let projection = projection_use_from_walk(query, &walk, interner);
        let fragments = classify_fragments_from_walk(query, &walk);
        let structural =
            StructuralReport::from_walk_interned(fragments, walk.tree.as_ref(), interner);
        let mut paths = PathTally::new();
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

    /// [`QueryAnalysis::of_with`] over a borrowed, arena-allocated AST
    /// ([`ast_ref::Query`]): the analysis runs directly on the zero-copy
    /// parse result without first materializing an owned AST. Property
    /// paths are the only nodes converted to owned form (per path, at
    /// tally time); everything else walks the borrowed tree. The returned
    /// record is byte-identical to `of_with(&query.to_owned(), interner)`
    /// and owns no arena data, so the caller may reset the arena as soon
    /// as this returns.
    pub fn of_ref(query: &ast_ref::Query<'_>, interner: &mut Interner) -> QueryAnalysis {
        let walk = QueryWalkRef::of(query, interner);
        let features = QueryFeatures::from_walk_ref(query, &walk);
        let projection = projection_use_from_walk_ref(query, &walk, interner);
        let fragments = classify_fragments_from_walk_ref(query, &walk);
        let structural =
            StructuralReport::from_walk_interned(fragments, walk.tree.as_ref(), interner);
        let mut paths = PathTally::new();
        for p in &walk.paths {
            paths.add(&p.to_owned());
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
    use sparqlog_parser::parse_query;

    fn qa(text: &str) -> QueryAnalysis {
        QueryAnalysis::of(&parse_query(text).unwrap())
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
        ] {
            let q = parse_query(text).unwrap();
            let single = QueryAnalysis::of(&q);
            assert_eq!(single.features, QueryFeatures::of(&q), "{text}");
            assert_eq!(
                single.projection,
                sparqlog_algebra::projection_use(&q),
                "{text}"
            );
            assert_eq!(single.structural, StructuralReport::of(&q), "{text}");
            let mut paths = PathTally::new();
            for p in sparqlog_algebra::collect_property_paths(&q) {
                paths.add(p);
            }
            assert_eq!(single.paths, paths, "{text}");
        }
    }

    #[test]
    fn reused_interner_does_not_change_results() {
        // A worker's interner accumulates symbols across queries; the
        // analysis of each query must not depend on that state.
        let mut interner = Interner::new();
        for text in [
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) } LIMIT 5",
            "SELECT ?y WHERE { ?y a <http://C> . ?y <http://p> ?x }",
            "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
            "SELECT ?x WHERE { ?x <http://p> <http://const> }",
            "SELECT * WHERE { ?a <http://p> ?b . ?b <http://p> ?c FILTER(?c = ?a) }",
        ] {
            let q = parse_query(text).unwrap();
            let fresh = QueryAnalysis::of(&q);
            let reused = QueryAnalysis::of_with(&q, &mut interner);
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

    #[test]
    fn borrowed_ast_analysis_matches_owned_ast_analysis() {
        use sparqlog_parser::{parse_query_in, Arena};
        let arena = Arena::new();
        for text in [
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) } LIMIT 5",
            "ASK { <http://s> <http://p> <http://o> }",
            "SELECT ?x WHERE { ?x <http://a>/<http://b>* ?y }",
            "DESCRIBE <http://r>",
            "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } }",
            "SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }",
            "SELECT ?x WHERE { ?x a <http://C> FILTER NOT EXISTS { ?x <http://p> ?y } }",
            "SELECT (COUNT(?x) AS ?n) WHERE { ?x ?p ?o } GROUP BY ?p HAVING(COUNT(?x) > 1)",
            "SELECT * WHERE { SERVICE <http://ep> { ?s ?p ?o } VALUES ?s { <http://a> } }",
            "SELECT * WHERE { ?x <a>/<b> ?y . ?y <c>* ?z GRAPH ?g { ?z ^<d> ?w } }",
        ] {
            let borrowed = parse_query_in(text, &arena).unwrap();
            let owned = borrowed.to_owned();
            let mut interner = Interner::new();
            let via_ref = QueryAnalysis::of_ref(&borrowed, &mut interner);
            let mut interner2 = Interner::new();
            let via_owned = QueryAnalysis::of_with(&owned, &mut interner2);
            assert_eq!(format!("{via_ref:?}"), format!("{via_owned:?}"), "{text}");
        }
    }
}
