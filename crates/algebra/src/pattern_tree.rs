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

use sparqlog_parser::ast_ref::*;
use std::collections::BTreeSet;

/// One node of a pattern tree: the CQ (triples + filters) of an Opt level.
/// The triples and filters are the parser's `Copy` nodes, still borrowing the
/// query text and arena they were parsed from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PatternNode<'q> {
    /// The triple patterns of this node.
    pub triples: Vec<TriplePattern<'q>>,
    /// The filter constraints attached at this level.
    pub filters: Vec<Expression<'q>>,
    /// Children arising from `OPTIONAL` blocks.
    pub children: Vec<PatternNode<'q>>,
}

impl<'q> PatternNode<'q> {
    /// The set of variables mentioned in this node (triples and filters, not
    /// children).
    pub fn variables(&self) -> BTreeSet<&'q str> {
        let mut out = BTreeSet::new();
        for t in &self.triples {
            for term in [&t.subject, &t.predicate, &t.object] {
                if let Term::Var(v) = term {
                    out.insert(*v);
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
#[derive(Debug, Clone, PartialEq)]
pub struct PatternTree<'q> {
    /// The root node.
    pub root: PatternNode<'q>,
}

impl<'q> PatternTree<'q> {
    /// Builds the pattern tree of a query body, provided the body is an AOF
    /// pattern (only triples, `And`, `Filter`, `Opt`, possibly nested
    /// groups). Returns `None` otherwise, or when the query has no body.
    ///
    /// Property-path patterns, UNION, GRAPH, MINUS, BIND, VALUES, SERVICE and
    /// subqueries all disqualify the pattern.
    pub fn build(q: &Query<'q>) -> Option<PatternTree<'q>> {
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
        let mut nodes: Vec<(&PatternNode<'q>, Option<usize>)> = Vec::new();
        collect_nodes(&self.root, None, &mut nodes);
        // All variables.
        let mut all_vars: BTreeSet<&str> = BTreeSet::new();
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
        fn walk(node: &PatternNode<'_>) -> usize {
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
    /// pass, materialising each node's variable set once instead of once per
    /// query variable as [`PatternTree::is_well_designed`] does.
    /// Equivalent to `(self.is_well_designed(), self.interface_width())`;
    /// this is the entry point the single-pass pipeline uses.
    pub fn well_designedness(&self) -> (bool, usize) {
        let mut nodes: Vec<(&PatternNode<'q>, Option<usize>)> = Vec::new();
        collect_nodes(&self.root, None, &mut nodes);
        let var_sets: Vec<BTreeSet<&str>> = nodes.iter().map(|(n, _)| n.variables()).collect();

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
    pub fn triples(&self) -> impl Iterator<Item = &TriplePattern<'q>> {
        Preorder::new(&self.root, |node| &node.triples)
    }

    /// Every filter in the tree, in preorder; see [`PatternTree::triples`].
    pub fn filters(&self) -> impl Iterator<Item = &Expression<'q>> {
        Preorder::new(&self.root, |node| &node.filters)
    }

    /// Flattens every triple in the tree (preorder).
    pub fn all_triples(&self) -> Vec<&TriplePattern<'q>> {
        self.triples().collect()
    }

    /// Flattens every filter in the tree (preorder).
    pub fn all_filters(&self) -> Vec<&Expression<'q>> {
        self.filters().collect()
    }
}

/// Preorder iteration over one item list (triples or filters) of every node
/// of a pattern tree.
struct Preorder<'a, 'q, T> {
    /// The rest of the current node's items.
    items: std::slice::Iter<'a, T>,
    /// The unvisited children of the current node and of its ancestors,
    /// innermost last. Empty — and never allocated — for a single-node tree.
    pending: Vec<std::slice::Iter<'a, PatternNode<'q>>>,
    select: fn(&'a PatternNode<'q>) -> &'a [T],
}

impl<'a, 'q, T> Preorder<'a, 'q, T> {
    fn new(root: &'a PatternNode<'q>, select: fn(&'a PatternNode<'q>) -> &'a [T]) -> Self {
        let mut walk = Preorder {
            items: [].iter(),
            pending: Vec::new(),
            select,
        };
        walk.enter(root);
        walk
    }

    fn enter(&mut self, node: &'a PatternNode<'q>) {
        self.items = (self.select)(node).iter();
        if !node.children.is_empty() {
            self.pending.push(node.children.iter());
        }
    }
}

impl<'a, T> Iterator for Preorder<'a, '_, T> {
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

fn collect_nodes<'a, 'q>(
    node: &'a PatternNode<'q>,
    parent: Option<usize>,
    out: &mut Vec<(&'a PatternNode<'q>, Option<usize>)>,
) {
    let idx = out.len();
    out.push((node, parent));
    for c in &node.children {
        collect_nodes(c, Some(idx), out);
    }
}

/// Merges the content of `g` into `node`. Returns `false` if the group uses
/// anything outside the AOF fragment.
fn build_node<'q>(g: &GroupGraphPattern<'q>, node: &mut PatternNode<'q>) -> bool {
    for el in g.elements {
        match el {
            GroupElement::Triples(ts) => {
                for t in *ts {
                    match t {
                        TripleOrPath::Triple(t) => node.triples.push(*t),
                        TripleOrPath::Path(_) => return false,
                    }
                }
            }
            GroupElement::Filter(e) => {
                if e.contains_exists() {
                    return false;
                }
                node.filters.push(*e);
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
    use sparqlog_parser::{parse_query_in, Arena};

    fn tree<'a>(q: &'a str, arena: &'a Arena) -> Option<PatternTree<'a>> {
        PatternTree::build(&parse_query_in(q, arena).unwrap())
    }

    /// The queries P1 and P2 from Example 5.4 of the paper.
    const P1: &str = "SELECT * WHERE { { ?A <name> ?N OPTIONAL { ?A <email> ?E } } OPTIONAL { ?A <webPage> ?W } }";
    const P2: &str =
        "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E OPTIONAL { ?A <webPage> ?W } } }";

    #[test]
    fn example_5_4_trees_have_expected_shape() {
        let arena = Arena::new();
        let t1 = tree(P1, &arena).unwrap();
        // Currying: root (name) with two children (email, webPage).
        assert_eq!(t1.root.triples.len(), 1);
        assert_eq!(t1.root.children.len(), 2);
        assert_eq!(t1.root.node_count(), 3);

        let t2 = tree(P2, &arena).unwrap();
        // Root (name) with one child (email) which has one child (webPage).
        assert_eq!(t2.root.children.len(), 1);
        assert_eq!(t2.root.children[0].children.len(), 1);
    }

    #[test]
    fn example_5_4_is_well_designed_with_interface_width_one() {
        let arena = Arena::new();
        for q in [P1, P2] {
            let t = tree(q, &arena).unwrap();
            assert!(t.is_well_designed(), "{q}");
            assert_eq!(t.interface_width(), 1, "{q}");
            assert!(t.is_cqof());
        }
    }

    #[test]
    fn missing_root_variable_breaks_well_designedness() {
        let arena = Arena::new();
        // The child mentions ?A and ?W, but ?W also occurs in a sibling that
        // does not share an ancestor mentioning it: variable ?W occurs in two
        // disconnected nodes.
        let q = "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?W } OPTIONAL { ?A <webPage> ?W } }";
        let t = tree(q, &arena).unwrap();
        assert!(!t.is_well_designed());
        assert!(!t.is_cqof());
    }

    #[test]
    fn interface_width_two_example() {
        let arena = Arena::new();
        // The child shares both ?A and ?N with the root.
        let q = "SELECT * WHERE { ?A <knows> ?N OPTIONAL { ?A <worksWith> ?N } }";
        let t = tree(q, &arena).unwrap();
        assert!(t.is_well_designed());
        assert_eq!(t.interface_width(), 2);
        assert!(!t.is_cqof());
    }

    #[test]
    fn cq_is_single_node_tree_and_cqof() {
        let arena = Arena::new();
        let t = tree("SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }", &arena).unwrap();
        assert_eq!(t.root.node_count(), 1);
        assert_eq!(t.interface_width(), 0);
        assert!(t.is_cqof());
        assert_eq!(t.root.triple_count(), 2);
    }

    #[test]
    fn filters_contribute_variables() {
        let arena = Arena::new();
        // The filter in the child mentions ?N which connects it to the root.
        let q = "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E FILTER(?E != ?N) } }";
        let t = tree(q, &arena).unwrap();
        assert!(t.is_well_designed());
        assert_eq!(t.interface_width(), 2); // shares ?A and ?N
    }

    #[test]
    fn non_aof_patterns_are_rejected() {
        let arena = Arena::new();
        assert!(tree(
            "SELECT * WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }",
            &arena
        )
        .is_none());
        assert!(tree("SELECT * WHERE { GRAPH ?g { ?x <p> ?y } }", &arena).is_none());
        assert!(tree("SELECT * WHERE { ?x <p>* ?y }", &arena).is_none());
        assert!(tree("SELECT * WHERE { ?x <p> ?y MINUS { ?x <q> ?y } }", &arena).is_none());
        assert!(tree(
            "SELECT * WHERE { ?x <p> ?y FILTER EXISTS { ?x <q> ?z } }",
            &arena
        )
        .is_none());
        assert!(tree("DESCRIBE <http://r>", &arena).is_none());
    }

    #[test]
    fn all_triples_and_filters_flatten() {
        let arena = Arena::new();
        let t = tree(P1, &arena).unwrap();
        assert_eq!(t.all_triples().len(), 3);
        assert_eq!(t.all_filters().len(), 0);
    }

    #[test]
    fn triples_and_filters_iterate_in_preorder() {
        let arena = Arena::new();
        let t = tree(
            "SELECT * WHERE { ?a <p1> ?b FILTER(?b > 1) \
             OPTIONAL { ?b <p2> ?c OPTIONAL { ?c <p3> ?d FILTER(?d > 3) } ?b <p4> ?e } \
             OPTIONAL { ?a <p5> ?f FILTER(?f > 5) } ?a <p6> ?g }",
            &arena,
        )
        .unwrap();
        let predicates: Vec<Term<'_>> = t.triples().map(|t| t.predicate).collect();
        assert_eq!(
            predicates,
            ["p1", "p6", "p2", "p4", "p3", "p5"].map(Term::Iri)
        );
        let filtered: Vec<Vec<&str>> = t
            .filters()
            .map(|f| {
                let mut variables = Vec::new();
                f.for_each_variable(&mut |v| variables.push(v));
                variables
            })
            .collect();
        assert_eq!(filtered, [["b"], ["d"], ["f"]]);
        // A single-node tree reports its exact length up front.
        let cq = tree("SELECT * WHERE { ?x <p> ?y . ?y <q> ?z }", &arena).unwrap();
        assert_eq!(cq.triples().size_hint(), (2, Some(2)));
    }
}
