//! Well-designed pattern trees for And/Opt/Filter (AOF) patterns
//! (Section 5.2, Definitions 5.3–5.5 and Example 5.4 of the paper).
//!
//! An AOF pattern is turned into a *pattern tree* by the standard
//! Currying-based encoding: every node holds the conjunctive part (triples
//! and filters) of one Opt-nesting level, and each `OPTIONAL` block becomes a
//! child. The pattern tree is *well-designed* if, for every variable, the set
//! of nodes mentioning it forms a connected subtree (Barceló et al.), and its
//! *interface width* is the maximum number of variables shared between a node
//! and one of its children. `CQOF` is the class of AOF patterns with a
//! well-designed pattern tree of interface width at most one.

use serde::{Deserialize, Serialize};
use sparqlog_parser::ast::*;
use std::collections::BTreeSet;

/// One node of a pattern tree: the CQ (triples + filters) of an Opt level.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PatternNode {
    /// The triple patterns of this node.
    pub triples: Vec<TriplePattern>,
    /// The filter constraints attached at this level.
    pub filters: Vec<Expression>,
    /// Children arising from `OPTIONAL` blocks.
    pub children: Vec<PatternNode>,
}

impl PatternNode {
    /// The set of variables mentioned in this node (triples and filters, not
    /// children).
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for t in &self.triples {
            for term in [&t.subject, &t.predicate, &t.object] {
                if let Term::Var(v) = term {
                    out.insert(v.clone());
                }
            }
        }
        for f in &self.filters {
            out.extend(f.variables());
        }
        out
    }

    /// The variables of this node as borrowed slices — the allocation-free
    /// counterpart of [`PatternNode::variables`], used by the single-pass
    /// well-designedness check.
    pub fn variable_refs(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for t in &self.triples {
            for term in [&t.subject, &t.predicate, &t.object] {
                if let Term::Var(v) = term {
                    out.insert(v.as_str());
                }
            }
        }
        for f in &self.filters {
            f.for_each_variable(&mut |v| {
                out.insert(v);
            });
        }
        out
    }

    /// Total number of nodes in the subtree rooted at this node.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(PatternNode::node_count)
            .sum::<usize>()
    }

    /// Total number of triples in the subtree.
    pub fn triple_count(&self) -> usize {
        self.triples.len()
            + self
                .children
                .iter()
                .map(PatternNode::triple_count)
                .sum::<usize>()
    }
}

/// A pattern tree for an AOF pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternTree {
    /// The root node.
    pub root: PatternNode,
}

impl PatternTree {
    /// Builds the pattern tree of a query body, provided the body is an AOF
    /// pattern (only triples, `And`, `Filter`, `Opt`, possibly nested
    /// groups). Returns `None` otherwise, or when the query has no body.
    ///
    /// Property-path patterns, UNION, GRAPH, MINUS, BIND, VALUES, SERVICE and
    /// subqueries all disqualify the pattern.
    pub fn build(q: &Query) -> Option<PatternTree> {
        let body = q.where_clause.as_ref()?;
        let mut root = PatternNode::default();
        if build_node(body, &mut root) {
            Some(PatternTree { root })
        } else {
            None
        }
    }

    /// Checks well-designedness: for every variable, the nodes mentioning it
    /// form a connected subtree.
    pub fn is_well_designed(&self) -> bool {
        // Collect nodes in preorder together with their parent indices.
        let mut nodes: Vec<(&PatternNode, Option<usize>)> = Vec::new();
        collect_nodes(&self.root, None, &mut nodes);
        // All variables.
        let mut all_vars: BTreeSet<String> = BTreeSet::new();
        for (n, _) in &nodes {
            all_vars.extend(n.variables());
        }
        for var in &all_vars {
            let in_set: Vec<bool> = nodes
                .iter()
                .map(|(n, _)| n.variables().contains(var))
                .collect();
            let mut roots_in_set = 0;
            for (i, (_, parent)) in nodes.iter().enumerate() {
                if !in_set[i] {
                    continue;
                }
                match parent {
                    Some(p) if in_set[*p] => {}
                    _ => roots_in_set += 1,
                }
            }
            if roots_in_set > 1 {
                return false;
            }
        }
        true
    }

    /// The interface width: the maximum number of variables shared between a
    /// node and one of its children (0 for single-node trees).
    pub fn interface_width(&self) -> usize {
        fn walk(node: &PatternNode) -> usize {
            let node_vars = node.variables();
            let mut best = 0;
            for child in &node.children {
                let shared = child.variables().intersection(&node_vars).count();
                best = best.max(shared).max(walk(child));
            }
            best
        }
        walk(&self.root)
    }

    /// True if this is a well-designed pattern tree with interface width at
    /// most one — i.e. the pattern is in `CQOF` (Definition 5.5).
    pub fn is_cqof(&self) -> bool {
        self.is_well_designed() && self.interface_width() <= 1
    }

    /// Computes well-designedness and interface width together in a single
    /// pass, materialising each node's variable set once (borrowed) instead
    /// of once per query variable as [`PatternTree::is_well_designed`] does.
    /// Equivalent to `(self.is_well_designed(), self.interface_width())`;
    /// this is the entry point the single-pass pipeline uses.
    pub fn well_designedness(&self) -> (bool, usize) {
        let mut nodes: Vec<(&PatternNode, Option<usize>)> = Vec::new();
        collect_nodes(&self.root, None, &mut nodes);
        let var_sets: Vec<BTreeSet<&str>> = nodes.iter().map(|(n, _)| n.variable_refs()).collect();

        // A variable's nodes form a connected subtree iff at most one of them
        // has a parent outside the set.
        let mut subtree_roots: std::collections::BTreeMap<&str, usize> =
            std::collections::BTreeMap::new();
        let mut well_designed = true;
        let mut width = 0;
        for (i, (_, parent)) in nodes.iter().enumerate() {
            for &v in &var_sets[i] {
                let parent_has = parent.is_some_and(|p| var_sets[p].contains(v));
                if !parent_has {
                    let roots = subtree_roots.entry(v).or_insert(0);
                    *roots += 1;
                    if *roots > 1 {
                        well_designed = false;
                    }
                }
            }
            if let Some(p) = parent {
                width = width.max(var_sets[i].intersection(&var_sets[*p]).count());
            }
        }
        (well_designed, width)
    }

    /// Every triple in the tree, in preorder, borrowed straight from the
    /// nodes. A single-node tree (every CQ and CQF query) is walked without
    /// allocating.
    pub fn triples(&self) -> impl Iterator<Item = &TriplePattern> {
        Preorder::new(&self.root, |node| &node.triples)
    }

    /// Every filter in the tree, in preorder; see [`PatternTree::triples`].
    pub fn filters(&self) -> impl Iterator<Item = &Expression> {
        Preorder::new(&self.root, |node| &node.filters)
    }

    /// Flattens every triple in the tree (preorder).
    pub fn all_triples(&self) -> Vec<&TriplePattern> {
        self.triples().collect()
    }

    /// Flattens every filter in the tree (preorder).
    pub fn all_filters(&self) -> Vec<&Expression> {
        self.filters().collect()
    }
}

/// Preorder iteration over one item list (triples or filters) of every node
/// of a pattern tree.
struct Preorder<'a, T> {
    /// The rest of the current node's items.
    items: std::slice::Iter<'a, T>,
    /// The unvisited children of the current node and of its ancestors,
    /// innermost last. Empty — and never allocated — for a single-node tree.
    pending: Vec<std::slice::Iter<'a, PatternNode>>,
    select: fn(&'a PatternNode) -> &'a [T],
}

impl<'a, T> Preorder<'a, T> {
    fn new(root: &'a PatternNode, select: fn(&'a PatternNode) -> &'a [T]) -> Preorder<'a, T> {
        let mut walk = Preorder {
            items: [].iter(),
            pending: Vec::new(),
            select,
        };
        walk.enter(root);
        walk
    }

    fn enter(&mut self, node: &'a PatternNode) {
        self.items = (self.select)(node).iter();
        if !node.children.is_empty() {
            self.pending.push(node.children.iter());
        }
    }
}

impl<'a, T> Iterator for Preorder<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.items.next() {
                return Some(item);
            }
            let child = loop {
                match self.pending.last_mut()?.next() {
                    Some(child) => break child,
                    None => self.pending.pop(),
                };
            };
            self.enter(child);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let here = self.items.len();
        (here, self.pending.is_empty().then_some(here))
    }
}

fn collect_nodes<'a>(
    node: &'a PatternNode,
    parent: Option<usize>,
    out: &mut Vec<(&'a PatternNode, Option<usize>)>,
) {
    let idx = out.len();
    out.push((node, parent));
    for c in &node.children {
        collect_nodes(c, Some(idx), out);
    }
}

/// Merges the content of `g` into `node`. Returns `false` if the group uses
/// anything outside the AOF fragment.
fn build_node(g: &GroupGraphPattern, node: &mut PatternNode) -> bool {
    for el in &g.elements {
        match el {
            GroupElement::Triples(ts) => {
                for t in ts {
                    match t {
                        TripleOrPath::Triple(t) => node.triples.push(t.clone()),
                        TripleOrPath::Path(_) => return false,
                    }
                }
            }
            GroupElement::Filter(e) => {
                if e.contains_exists() {
                    return false;
                }
                node.filters.push(e.clone());
            }
            GroupElement::Optional(inner) => {
                let mut child = PatternNode::default();
                if !build_node(inner, &mut child) {
                    return false;
                }
                node.children.push(child);
            }
            // A nested plain group is an `And` of patterns: merge it into the
            // current node (Currying / Opt-normal-form flattening).
            GroupElement::Group(inner) => {
                if !build_node(inner, node) {
                    return false;
                }
            }
            GroupElement::Union(_)
            | GroupElement::Graph { .. }
            | GroupElement::Minus(_)
            | GroupElement::Bind { .. }
            | GroupElement::Values(_)
            | GroupElement::Service { .. }
            | GroupElement::SubSelect(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_parser::parse_query;

    fn tree(q: &str) -> Option<PatternTree> {
        PatternTree::build(&parse_query(q).unwrap())
    }

    /// The queries P1 and P2 from Example 5.4 of the paper.
    const P1: &str = "SELECT * WHERE { { ?A <name> ?N OPTIONAL { ?A <email> ?E } } OPTIONAL { ?A <webPage> ?W } }";
    const P2: &str =
        "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E OPTIONAL { ?A <webPage> ?W } } }";

    #[test]
    fn example_5_4_trees_have_expected_shape() {
        let t1 = tree(P1).unwrap();
        // Currying: root (name) with two children (email, webPage).
        assert_eq!(t1.root.triples.len(), 1);
        assert_eq!(t1.root.children.len(), 2);
        assert_eq!(t1.root.node_count(), 3);

        let t2 = tree(P2).unwrap();
        // Root (name) with one child (email) which has one child (webPage).
        assert_eq!(t2.root.children.len(), 1);
        assert_eq!(t2.root.children[0].children.len(), 1);
    }

    #[test]
    fn example_5_4_is_well_designed_with_interface_width_one() {
        for q in [P1, P2] {
            let t = tree(q).unwrap();
            assert!(t.is_well_designed(), "{q}");
            assert_eq!(t.interface_width(), 1, "{q}");
            assert!(t.is_cqof());
        }
    }

    #[test]
    fn missing_root_variable_breaks_well_designedness() {
        // The child mentions ?A and ?W, but ?W also occurs in a sibling that
        // does not share an ancestor mentioning it: variable ?W occurs in two
        // disconnected nodes.
        let q = "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?W } OPTIONAL { ?A <webPage> ?W } }";
        let t = tree(q).unwrap();
        assert!(!t.is_well_designed());
        assert!(!t.is_cqof());
    }

    #[test]
    fn interface_width_two_example() {
        // The child shares both ?A and ?N with the root.
        let q = "SELECT * WHERE { ?A <knows> ?N OPTIONAL { ?A <worksWith> ?N } }";
        let t = tree(q).unwrap();
        assert!(t.is_well_designed());
        assert_eq!(t.interface_width(), 2);
        assert!(!t.is_cqof());
    }

    #[test]
    fn cq_is_single_node_tree_and_cqof() {
        let t = tree("SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }").unwrap();
        assert_eq!(t.root.node_count(), 1);
        assert_eq!(t.interface_width(), 0);
        assert!(t.is_cqof());
        assert_eq!(t.root.triple_count(), 2);
    }

    #[test]
    fn filters_contribute_variables() {
        // The filter in the child mentions ?N which connects it to the root.
        let q = "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E FILTER(?E != ?N) } }";
        let t = tree(q).unwrap();
        assert!(t.is_well_designed());
        assert_eq!(t.interface_width(), 2); // shares ?A and ?N
    }

    #[test]
    fn non_aof_patterns_are_rejected() {
        assert!(tree("SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }").is_none());
        assert!(tree("SELECT * WHERE { GRAPH ?g { ?x <p> ?y } }").is_none());
        assert!(tree("SELECT * WHERE { ?x <p>* ?y }").is_none());
        assert!(tree("SELECT * WHERE { ?x <p> ?y MINUS { ?x <q> ?y } }").is_none());
        assert!(tree("SELECT * WHERE { ?x <p> ?y FILTER EXISTS { ?x <q> ?z } }").is_none());
        assert!(tree("DESCRIBE <http://r>").is_none());
    }

    #[test]
    fn all_triples_and_filters_flatten() {
        let t = tree(P1).unwrap();
        assert_eq!(t.all_triples().len(), 3);
        assert_eq!(t.all_filters().len(), 0);
    }

    #[test]
    fn triples_and_filters_iterate_in_preorder() {
        let t = tree(
            "SELECT * WHERE { ?a <p1> ?b FILTER(?b > 1) \
             OPTIONAL { ?b <p2> ?c OPTIONAL { ?c <p3> ?d FILTER(?d > 3) } ?b <p4> ?e } \
             OPTIONAL { ?a <p5> ?f FILTER(?f > 5) } ?a <p6> ?g }",
        )
        .unwrap();
        let predicates: Vec<String> = t.triples().map(|t| t.predicate.to_string()).collect();
        assert_eq!(predicates, ["p1", "p6", "p2", "p4", "p3", "p5"]);
        let filtered: Vec<Vec<String>> = t
            .filters()
            .map(|f| f.variables().into_iter().collect())
            .collect();
        assert_eq!(filtered, [["b"], ["d"], ["f"]]);
        // A single-node tree reports its exact length up front.
        let cq = tree("SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }").unwrap();
        assert_eq!(cq.triples().size_hint(), (2, Some(2)));
    }
}
