//! End-to-end structural analysis of a single query: fragment membership,
//! canonical graph shape, treewidth and hypertree width.
//!
//! This is the per-query building block behind Table 4 / Table 9 and
//! Section 6.2 of the paper, combining the [`sparqlog_algebra`] fragment
//! machinery with this crate's graph and hypergraph analyses.

use crate::graph::CanonicalGraph;
use crate::hypergraph::Hypergraph;
use crate::hypertree::{generalized_hypertree_width, HypertreeWidth};
use crate::shape::ShapeReport;
use crate::treewidth::treewidth_of_cyclic;
use serde::{Deserialize, Serialize};
use sparqlog_algebra::fragments::{classify_fragments, variable_equalities, FragmentReport};
use sparqlog_algebra::pattern_tree::PatternTree;
use sparqlog_parser::ast_ref::Query;
use sparqlog_parser::intern::Interner;

/// The structural analysis of one query.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StructuralReport {
    /// Fragment membership (CQ / CQF / CQOF / …).
    pub fragments: FragmentReport,
    /// Shape of the canonical graph (only for CQ-like queries without
    /// variable predicates).
    pub shape: Option<ShapeReport>,
    /// Shape of the canonical graph with constants excluded.
    pub shape_vars_only: Option<ShapeReport>,
    /// Exact treewidth of the canonical graph, when available.
    pub treewidth: Option<usize>,
    /// Girth (shortest cycle length) of the canonical graph, if cyclic.
    pub shortest_cycle: Option<usize>,
    /// Generalized hypertree width of the canonical hypergraph (computed for
    /// CQOF queries that use variable predicates, per Section 6.2).
    pub hypertree: Option<HypertreeReportEntry>,
    /// Number of triples feeding the structural analysis.
    pub triples: u32,
}

/// Serializable summary of a hypertree-width computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HypertreeReportEntry {
    /// The generalized hypertree width.
    pub width: usize,
    /// Number of decomposition nodes.
    pub nodes: usize,
    /// Whether the width is exact.
    pub exact: bool,
}

impl From<HypertreeWidth> for HypertreeReportEntry {
    fn from(h: HypertreeWidth) -> Self {
        HypertreeReportEntry {
            width: h.width,
            nodes: h.nodes,
            exact: h.exact,
        }
    }
}

impl StructuralReport {
    /// Analyses one query through the original multi-walk path: the fragment
    /// classification re-traverses the query and the pattern tree is rebuilt
    /// from scratch. Kept as the reference the differential tests compare the
    /// single-pass pipeline ([`StructuralReport::from_walk_interned`]) against.
    pub fn of(query: &Query<'_>) -> StructuralReport {
        let fragments = classify_fragments(query);
        // Build the tree only when the structural analysis will use it,
        // matching the laziness of the original implementation.
        let tree = (fragments.in_cqof() && fragments.select_or_ask)
            .then(|| PatternTree::build(query))
            .flatten();
        StructuralReport::from_walk_interned(fragments, tree.as_ref(), &mut Interner::new())
    }

    /// Analyses one query from a completed
    /// [`QueryWalkRef`](sparqlog_algebra::walk::QueryWalkRef): the fragment
    /// report and the pattern tree both come out of the walk's single
    /// traversal, so no part of the query is visited again. `interner` is the
    /// calling worker's, through which the canonical-graph construction
    /// ([`CanonicalGraph::from_triples_both_interned`]) tells variables and
    /// blank nodes apart as `u32` symbols. The report does not depend on the
    /// interner's state.
    ///
    /// Non-CQ-like queries get only their fragment classification; CQ-like
    /// queries additionally get a shape, treewidth and (when they use
    /// variable predicates) a hypertree width. The canonical graph is
    /// constructed **once**, in both modes simultaneously, from triples and
    /// `?x = ?y` equalities read straight out of the pattern tree; the
    /// built pair (with constants, variables only) feeds the shape,
    /// treewidth, girth and constants-excluded analyses.
    pub fn from_walk_interned(
        fragments: FragmentReport,
        tree: Option<&PatternTree<'_>>,
        interner: &mut Interner,
    ) -> StructuralReport {
        let mut report = StructuralReport {
            fragments,
            shape: None,
            shape_vars_only: None,
            treewidth: None,
            shortest_cycle: None,
            hypertree: None,
            triples: fragments.triples,
        };
        if !fragments.in_cqof() || !fragments.select_or_ask {
            return report;
        }
        // CQ-like query: its triples and equality filters come from the
        // pattern tree (CQ and CQF queries are single-node trees; CQOF adds
        // the OPTIONAL levels, whose triples also enter the canonical graph).
        let Some(tree) = tree else {
            return report;
        };
        if fragments.has_var_predicate {
            // Graph analysis is not meaningful; use the hypergraph.
            let equalities: Vec<_> = variable_equalities(tree.filters()).collect();
            let hg = Hypergraph::from_triple_refs(&tree.all_triples(), &equalities);
            report.hypertree = generalized_hypertree_width(&hg, 5).map(Into::into);
            return report;
        }
        if let Some((with_constants, vars_only)) = CanonicalGraph::from_triples_both_interned(
            tree.triples(),
            variable_equalities(tree.filters()),
            interner,
        ) {
            let shape = ShapeReport::classify(&with_constants);
            // The classification already knows whether the graph is a
            // forest; only cyclic graphs pay for the treewidth reduction and
            // the girth search.
            if shape.forest {
                report.treewidth = Some(usize::from(!shape.empty));
            } else {
                report.treewidth = Some(treewidth_of_cyclic(&with_constants).value());
                report.shortest_cycle = with_constants.girth();
            }
            report.shape = Some(shape);
            report.shape_vars_only = Some(ShapeReport::classify(&vars_only));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_parser::{parse_query_in, Arena};

    fn analyze(q: &str) -> StructuralReport {
        let arena = Arena::new();
        StructuralReport::of(&parse_query_in(q, &arena).unwrap())
    }

    #[test]
    fn chain_query_is_tree_shaped_with_treewidth_one() {
        let r = analyze("ASK WHERE {?x1 <a> ?x2 . ?x2 <b> ?x3 . ?x3 <c> ?x4}");
        let shape = r.shape.unwrap();
        assert!(shape.chain && shape.tree);
        assert_eq!(r.treewidth, Some(1));
        assert_eq!(r.shortest_cycle, None);
    }

    #[test]
    fn cycle_query_has_treewidth_two_and_girth() {
        let r = analyze("ASK WHERE {?a <p> ?b . ?b <p> ?c . ?c <p> ?a}");
        let shape = r.shape.unwrap();
        assert!(shape.cycle);
        assert_eq!(r.treewidth, Some(2));
        assert_eq!(r.shortest_cycle, Some(3));
    }

    #[test]
    fn variable_predicate_query_gets_hypertree_analysis() {
        let r = analyze("ASK WHERE {?x1 ?x2 ?x3 . ?x3 <a> ?x4 . ?x4 ?x2 ?x5}");
        assert!(r.shape.is_none());
        let ht = r.hypertree.unwrap();
        assert_eq!(ht.width, 2);
    }

    #[test]
    fn optional_triples_enter_the_canonical_graph() {
        let r = analyze("SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } }");
        let shape = r.shape.unwrap();
        assert!(shape.tree);
        assert_eq!(r.triples, 2);
    }

    #[test]
    fn union_query_gets_no_structural_analysis() {
        let r = analyze("SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }");
        assert!(r.shape.is_none() && r.hypertree.is_none());
        assert!(!r.fragments.aof);
    }

    #[test]
    fn constants_excluded_mode_changes_single_edge_status() {
        // With constants, this query is a single edge (?x — constant); with
        // variables only, the graph has one node and no edge.
        let r = analyze("SELECT ?x WHERE { ?x <p> <http://const> }");
        assert!(r.shape.unwrap().single_edge);
        assert!(r.shape_vars_only.unwrap().empty);
    }

    #[test]
    fn equality_filter_can_create_cycles() {
        // Without the filter this is a chain; collapsing ?d = ?a closes it
        // into a cycle of length 3.
        let r = analyze("SELECT * WHERE { ?a <p> ?b . ?b <p> ?c . ?c <p> ?d FILTER(?d = ?a) }");
        let shape = r.shape.unwrap();
        assert!(shape.cycle);
        assert_eq!(r.treewidth, Some(2));
    }

    #[test]
    fn describe_queries_are_skipped() {
        let r = analyze("DESCRIBE <http://r>");
        assert!(!r.fragments.select_or_ask);
        assert!(r.shape.is_none());
    }
}
