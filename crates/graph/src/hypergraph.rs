//! The canonical hypergraph of a graph pattern (Section 5).
//!
//! Every triple pattern contributes the hyperedge consisting of the variables
//! and blank nodes that occur in it (constants are not hypergraph vertices).
//! The hypergraph correctly captures the join structure of queries with
//! variables in predicate position, for which the canonical *graph* is
//! meaningless (Example 5.1 of the paper).

use serde::{Deserialize, Serialize};
use sparqlog_parser::ast_ref::{Term, TriplePattern};
use std::collections::{BTreeMap, BTreeSet};

/// A hypergraph over named vertices.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Hypergraph {
    /// Vertex labels.
    pub vertices: Vec<String>,
    /// Hyperedges as sets of vertex indices. Empty edges (fully-constant
    /// triples) are not stored. Duplicate edges are kept (they correspond to
    /// distinct triple patterns) — deduplication happens where appropriate.
    pub edges: Vec<BTreeSet<usize>>,
}

impl Hypergraph {
    /// Builds the canonical hypergraph of a set of triple patterns.
    /// `equalities` lists `?x = ?y` filter pairs that are collapsed.
    pub fn from_triples(triples: &[TriplePattern<'_>], equalities: &[(&str, &str)]) -> Hypergraph {
        let refs: Vec<&TriplePattern<'_>> = triples.iter().collect();
        Hypergraph::from_triple_refs(&refs, equalities)
    }

    /// [`Hypergraph::from_triples`] over references — the form the
    /// single-pass pipeline uses, where the triples stay in the pattern tree.
    pub fn from_triple_refs(
        triples: &[&TriplePattern<'_>],
        equalities: &[(&str, &str)],
    ) -> Hypergraph {
        let mut rename: BTreeMap<String, String> = BTreeMap::new();
        for (a, b) in equalities {
            // Collapse b into a (transitively resolved below).
            rename.insert(format!("?{b}"), format!("?{a}"));
        }
        let resolve = |label: &str, rename: &BTreeMap<String, String>| -> String {
            let mut cur = label.to_string();
            let mut steps = 0;
            while let Some(next) = rename.get(&cur) {
                if *next == cur || steps > rename.len() {
                    break;
                }
                cur = next.clone();
                steps += 1;
            }
            cur
        };

        let mut hg = Hypergraph::default();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        for t in triples {
            let mut edge = BTreeSet::new();
            for term in [&t.subject, &t.predicate, &t.object] {
                let label = match term {
                    Term::Var(v) => resolve(&format!("?{v}"), &rename),
                    Term::BlankNode(b) => format!("_:{b}"),
                    _ => continue,
                };
                let id = *index.entry(label.clone()).or_insert_with(|| {
                    hg.vertices.push(label);
                    hg.vertices.len() - 1
                });
                edge.insert(id);
            }
            if !edge.is_empty() {
                hg.edges.push(edge);
            }
        }
        hg
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of hyperedges (including duplicates).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The distinct, non-subsumed hyperedges (edges contained in another edge
    /// are dropped). This is the edge set relevant for decompositions.
    pub fn reduced_edges(&self) -> Vec<BTreeSet<usize>> {
        let mut distinct: Vec<BTreeSet<usize>> = Vec::new();
        for e in &self.edges {
            if !distinct.contains(e) {
                distinct.push(e.clone());
            }
        }
        let mut keep = Vec::new();
        for (i, e) in distinct.iter().enumerate() {
            let subsumed = distinct
                .iter()
                .enumerate()
                .any(|(j, f)| i != j && e.is_subset(f) && (e.len() < f.len() || j < i));
            if !subsumed {
                keep.push(e.clone());
            }
        }
        keep
    }

    /// Tests α-acyclicity with the GYO reduction. An acyclic hypergraph has
    /// generalized hypertree width 1 (provided it has at least one edge).
    pub fn is_acyclic(&self) -> bool {
        let mut edges = self.reduced_edges();
        if edges.len() <= 1 {
            return true;
        }
        loop {
            let mut changed = false;

            // Rule 1: remove vertices that occur in exactly one edge.
            let mut occurrence: BTreeMap<usize, usize> = BTreeMap::new();
            for e in &edges {
                for &v in e {
                    *occurrence.entry(v).or_insert(0) += 1;
                }
            }
            let lonely: BTreeSet<usize> = occurrence
                .iter()
                .filter(|(_, &c)| c == 1)
                .map(|(&v, _)| v)
                .collect();
            if !lonely.is_empty() {
                for e in &mut edges {
                    let before = e.len();
                    e.retain(|v| !lonely.contains(v));
                    if e.len() != before {
                        changed = true;
                    }
                }
            }

            // Rule 2: remove edges that are empty or contained in another edge.
            let before = edges.len();
            let mut kept: Vec<BTreeSet<usize>> = Vec::new();
            for (i, e) in edges.iter().enumerate() {
                if e.is_empty() {
                    continue;
                }
                let subsumed = edges
                    .iter()
                    .enumerate()
                    .any(|(j, f)| i != j && e.is_subset(f) && (e.len() < f.len() || j < i));
                if !subsumed {
                    kept.push(e.clone());
                }
            }
            edges = kept;
            if edges.len() != before {
                changed = true;
            }

            if edges.len() <= 1 {
                return true;
            }
            if !changed {
                return false;
            }
        }
    }

    /// The connected components of the hypergraph, as sets of vertex indices.
    pub fn connected_components(&self) -> Vec<BTreeSet<usize>> {
        let n = self.vertex_count();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for e in &self.edges {
            let mut it = e.iter();
            if let Some(&first) = it.next() {
                for &v in it {
                    let a = find(&mut parent, first);
                    let b = find(&mut parent, v);
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
        }
        let mut groups: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for v in 0..n {
            let r = find(&mut parent, v);
            groups.entry(r).or_default().insert(v);
        }
        groups.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple;

    #[test]
    fn example_5_1_variable_predicate_query_is_cyclic() {
        // ?x1 ?x2 ?x3 . ?x3 :a ?x4 . ?x4 ?x2 ?x5 — the hypergraph captures
        // the join on ?x2 and is cyclic (Figure 2, right).
        let triples = [
            triple("?x1", "?x2", "?x3"),
            triple("?x3", "a", "?x4"),
            triple("?x4", "?x2", "?x5"),
        ];
        let h = Hypergraph::from_triples(&triples, &[]);
        assert_eq!(h.vertex_count(), 5);
        assert_eq!(h.edge_count(), 3);
        assert!(!h.is_acyclic());
    }

    #[test]
    fn chain_query_hypergraph_is_acyclic() {
        let triples = [
            triple("?x1", "a", "?x2"),
            triple("?x2", "b", "?x3"),
            triple("?x3", "c", "?x4"),
        ];
        let h = Hypergraph::from_triples(&triples, &[]);
        assert!(h.is_acyclic());
    }

    #[test]
    fn cycle_query_hypergraph_is_cyclic() {
        let triples = [
            triple("?a", "p", "?b"),
            triple("?b", "p", "?c"),
            triple("?c", "p", "?a"),
        ];
        let h = Hypergraph::from_triples(&triples, &[]);
        assert!(!h.is_acyclic());
    }

    #[test]
    fn constants_are_not_vertices() {
        let triples = [triple("?x", "p", "c1"), triple("c2", "q", "c3")];
        let h = Hypergraph::from_triples(&triples, &[]);
        assert_eq!(h.vertex_count(), 1);
        // The fully-constant triple contributes no edge.
        assert_eq!(h.edge_count(), 1);
        assert!(h.is_acyclic());
    }

    #[test]
    fn star_query_is_acyclic() {
        let triples = [
            triple("?c", "p", "?l1"),
            triple("?c", "q", "?l2"),
            triple("?c", "r", "?l3"),
        ];
        let h = Hypergraph::from_triples(&triples, &[]);
        assert!(h.is_acyclic());
    }

    #[test]
    fn equalities_collapse_vertices() {
        let triples = [triple("?x", "p", "?y"), triple("?z", "q", "?w")];
        let h = Hypergraph::from_triples(&triples, &[("y", "z")]);
        assert_eq!(h.vertex_count(), 3);
        assert!(h.is_acyclic());
        assert_eq!(h.connected_components().len(), 1);
    }

    #[test]
    fn reduced_edges_drop_duplicates_and_subsumed() {
        let triples = [
            triple("?x", "p", "?y"),
            triple("?x", "q", "?y"),
            triple("?x", "r", "c"),
        ];
        let h = Hypergraph::from_triples(&triples, &[]);
        assert_eq!(h.edge_count(), 3);
        assert_eq!(h.reduced_edges().len(), 1);
    }

    #[test]
    fn components_split_disconnected_queries() {
        let triples = [triple("?a", "p", "?b"), triple("?c", "p", "?d")];
        let h = Hypergraph::from_triples(&triples, &[]);
        assert_eq!(h.connected_components().len(), 2);
    }
}
