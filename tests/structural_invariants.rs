//! Property-based tests of the structural machinery: shape-class
//! implications, treewidth bounds and hypergraph/graph agreement on random
//! query graphs.

use proptest::prelude::*;
use sparqlog::graph::{
    generalized_hypertree_width, treewidth, CanonicalGraph, GraphMode, Hypergraph, ShapeReport,
};
use sparqlog::parser::ast_ref::{Term, TriplePattern};

/// The variable pool the random edge lists index into.
const POOL: [&str; 10] = ["v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9"];

/// Builds triple patterns from a random edge list over a small variable pool.
fn triples_from_edges(edges: &[(u8, u8)]) -> Vec<TriplePattern<'static>> {
    edges
        .iter()
        .map(|&(a, b)| TriplePattern {
            subject: Term::Var(POOL[usize::from(a)]),
            predicate: Term::Iri("http://p"),
            object: Term::Var(POOL[usize::from(b)]),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// The shape classes form the containment hierarchy the cumulative
    /// Table-4 roll-up relies on.
    #[test]
    fn shape_class_implications(edges in prop::collection::vec((0u8..10, 0u8..10), 1..25)) {
        let triples = triples_from_edges(&edges);
        let g = CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).unwrap();
        let s = ShapeReport::classify(&g);
        // single edge ⇒ chain ⇒ tree (when non-empty) and chain ⇒ chain set.
        if s.single_edge {
            prop_assert!(s.chain);
        }
        if s.chain {
            prop_assert!(s.chain_set && s.tree);
        }
        if s.star {
            prop_assert!(s.tree);
        }
        if s.tree {
            prop_assert!(s.forest && s.flower);
        }
        if s.forest {
            prop_assert!(s.flower_set);
        }
        if s.cycle {
            prop_assert!(s.flower && !s.forest);
        }
        if s.flower {
            prop_assert!(s.flower_set);
        }
        // Mutual exclusions.
        if s.forest {
            prop_assert!(!s.cycle);
        }
    }

    /// Treewidth matches the shape-level expectations: forests have width ≤ 1,
    /// flowers ≤ 2, and the min-fill upper bound never undercuts the exact
    /// value.
    #[test]
    fn treewidth_is_consistent_with_shapes(edges in prop::collection::vec((0u8..9, 0u8..9), 1..20)) {
        let triples = triples_from_edges(&edges);
        let g = CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).unwrap();
        let s = ShapeReport::classify(&g);
        let tw = treewidth(&g).value();
        if s.forest {
            prop_assert!(tw <= 1, "forest with treewidth {tw}");
        }
        if s.flower_set && !s.forest {
            prop_assert_eq!(tw, 2, "cyclic flower sets have treewidth exactly 2");
        }
        if g.has_cycle() {
            prop_assert!(tw >= 2);
            // A cyclic graph has a girth between 3 and its node count.
            let girth = g.girth().expect("cyclic graphs have a girth");
            prop_assert!(girth >= 3 && girth <= g.node_count());
        } else {
            prop_assert!(g.girth().is_none());
        }
        prop_assert!(tw <= g.node_count().saturating_sub(1).max(1));
    }

    /// For constant-predicate queries, the hypergraph view agrees with the
    /// graph view on acyclicity: the canonical hypergraph is α-acyclic iff
    /// the canonical graph (restricted to variables) has no cycle.
    #[test]
    fn hypergraph_acyclicity_matches_graph_cyclicity(edges in prop::collection::vec((0u8..8, 0u8..8), 1..16)) {
        // Avoid self-loop edges, which the graph drops but the hypergraph keeps.
        let edges: Vec<(u8, u8)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let triples = triples_from_edges(&edges);
        let g = CanonicalGraph::from_triples(&triples, &[], GraphMode::VariablesOnly).unwrap();
        let h = Hypergraph::from_triples(&triples, &[]);
        prop_assert_eq!(h.is_acyclic(), !g.has_cycle());
    }

    /// Generalized hypertree width is 1 exactly for acyclic hypergraphs, at
    /// most 2 for graphs whose primal treewidth is 2, and decompositions have
    /// at least one node whenever there is at least one edge.
    #[test]
    fn hypertree_width_bounds(edges in prop::collection::vec((0u8..7, 0u8..7), 1..14)) {
        let edges: Vec<(u8, u8)> = edges.into_iter().filter(|(a, b)| a != b).collect();
        prop_assume!(!edges.is_empty());
        let triples = triples_from_edges(&edges);
        let h = Hypergraph::from_triples(&triples, &[]);
        let result = generalized_hypertree_width(&h, 5).expect("small hypergraphs stay within width 5");
        prop_assert!(result.exact);
        prop_assert!(result.nodes >= 1);
        prop_assert_eq!(result.width == 1, h.is_acyclic());
        // ghw never exceeds the treewidth+1 of the primal graph; for binary
        // edges it in fact never exceeds the treewidth.
        let g = CanonicalGraph::from_triples(&triples, &[], GraphMode::VariablesOnly).unwrap();
        let tw = treewidth(&g).value().max(1);
        prop_assert!(result.width <= tw + 1, "ghw {} vs treewidth {}", result.width, tw);
    }
}
