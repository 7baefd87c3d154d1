//! Shape classification of canonical graphs (Section 6.1, Table 4 / Table 9).
//!
//! The classifier recognises the shape taxonomy of the paper: single edge,
//! chain, chain set, star, tree, forest, cycle, flower and flower set
//! (Definition 6.1). The classes are not mutually exclusive (every chain is a
//! tree, every tree is a flower, …); [`ShapeReport`] records membership in
//! each class so the cumulative Table 4 roll-up can be reproduced, and
//! [`ShapeReport::primary`] names the most specific class for convenience.

use crate::graph::{bits, CanonicalGraph, Components};
use serde::{Deserialize, Serialize};

/// Membership of one query graph in each shape class of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ShapeReport {
    /// Exactly one edge between two nodes.
    pub single_edge: bool,
    /// The graph is a chain (path graph), including single edges.
    pub chain: bool,
    /// Every connected component is a chain (or an isolated node).
    pub chain_set: bool,
    /// The graph is a star: a tree with exactly one node of degree ≥ 3.
    pub star: bool,
    /// The graph is a tree (connected and acyclic).
    pub tree: bool,
    /// Every connected component is a tree.
    pub forest: bool,
    /// The graph is a single cycle.
    pub cycle: bool,
    /// The graph is a flower (Definition 6.1).
    pub flower: bool,
    /// Every connected component is a flower.
    pub flower_set: bool,
    /// The graph is empty (no edges) — bodies with zero graph-relevant
    /// triples; counted separately so shares can exclude them if desired.
    pub empty: bool,
}

/// The most specific shape name, used for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ShapeClass {
    /// No edges at all.
    Empty,
    /// A single edge.
    SingleEdge,
    /// A chain with at least two edges.
    Chain,
    /// A disjoint union of chains (not itself a chain).
    ChainSet,
    /// A star.
    Star,
    /// A tree that is neither a chain nor a star.
    Tree,
    /// A forest that is not a tree.
    Forest,
    /// A single cycle.
    Cycle,
    /// A flower that is not a forest or cycle.
    Flower,
    /// A flower set that is not a single flower.
    FlowerSet,
    /// None of the above (cyclic, not flower-like).
    Other,
}

impl ShapeReport {
    /// Classifies a canonical graph.
    ///
    /// One walk over the connected components yields every class predicate:
    /// node counts and degrees are popcounts of adjacency rows, and a
    /// component is acyclic iff it has fewer edges than nodes. Only cyclic
    /// components go through the flower-centre search, which works on node
    /// masks of the same matrix. Query graphs are overwhelmingly acyclic, so
    /// the common case allocates nothing beyond the walk's one buffer.
    pub fn classify(g: &CanonicalGraph) -> ShapeReport {
        let mut r = ShapeReport::default();
        let edge_total = g.edge_count();
        if edge_total == 0 {
            r.empty = true;
            // By convention the empty graph is a chain set / forest / flower
            // set (all components — there are none — satisfy the predicates).
            r.chain_set = true;
            r.forest = true;
            r.flower_set = true;
            return r;
        }

        let mut components = Components::of(g);
        let mut residual = None;
        let mut count = 0;
        let mut first = ComponentStats::default();
        let mut branching = 0;
        let (mut all_acyclic, mut all_chains, mut all_flowers) = (true, true, true);
        while let Some(component) = components.next() {
            let stats = ComponentStats::of(g, component);
            let acyclic = stats.edges < stats.nodes;
            all_acyclic &= acyclic;
            all_chains &= stats.nodes == 1 || (acyclic && stats.max_degree <= 2);
            // Acyclic components are flowers by definition; only cyclic ones
            // need the centre search.
            if all_flowers && !acyclic {
                let residual = residual.get_or_insert_with(|| Components::new(g));
                all_flowers = is_flower(g, component, residual);
            }
            branching += stats.branching;
            if count == 0 {
                first = stats;
            }
            count += 1;
        }
        let connected = count == 1;

        r.single_edge = edge_total == 1 && g.node_count() == 2;
        r.chain = connected && all_acyclic && first.max_degree <= 2;
        r.chain_set = all_chains;
        r.tree = connected && all_acyclic;
        r.star = r.tree && branching == 1;
        r.forest = all_acyclic;
        r.cycle = connected
            && first.nodes >= 3
            && first.min_degree == 2
            && first.max_degree == 2
            && first.edges == first.nodes;
        r.flower = connected && all_flowers;
        r.flower_set = all_flowers;
        r
    }

    /// The most specific class this graph belongs to.
    pub fn primary(&self) -> ShapeClass {
        if self.empty {
            ShapeClass::Empty
        } else if self.single_edge {
            ShapeClass::SingleEdge
        } else if self.chain {
            ShapeClass::Chain
        } else if self.star {
            ShapeClass::Star
        } else if self.tree {
            ShapeClass::Tree
        } else if self.chain_set {
            ShapeClass::ChainSet
        } else if self.forest {
            ShapeClass::Forest
        } else if self.cycle {
            ShapeClass::Cycle
        } else if self.flower {
            ShapeClass::Flower
        } else if self.flower_set {
            ShapeClass::FlowerSet
        } else {
            ShapeClass::Other
        }
    }
}

/// The structure of one connected component: node count, edge count (every
/// edge stays inside its component, so degrees sum to twice the edge count),
/// degree extremes and the number of nodes of degree ≥ 3.
#[derive(Default)]
struct ComponentStats {
    nodes: usize,
    edges: usize,
    max_degree: usize,
    min_degree: usize,
    branching: usize,
}

impl ComponentStats {
    fn of(g: &CanonicalGraph, component: &[u64]) -> ComponentStats {
        let mut stats = ComponentStats {
            min_degree: usize::MAX,
            ..ComponentStats::default()
        };
        let mut degree_sum = 0;
        for v in bits::iter(component) {
            let d = g.degree(v);
            stats.nodes += 1;
            degree_sum += d;
            stats.max_degree = stats.max_degree.max(d);
            stats.min_degree = stats.min_degree.min(d);
            stats.branching += usize::from(d >= 3);
        }
        stats.edges = degree_sum / 2;
        stats
    }
}

/// True if the cyclic connected component `component` is a flower: there is
/// a node `x` such that every connected component of `G − x`, together with
/// `x`, is either a tree or a petal with source `x` (Definition 6.1). A plain
/// cycle is a petal on its own; any of its nodes can be the centre.
/// `residual` is the scratch walker for the components of `G − x`.
fn is_flower(g: &CanonicalGraph, component: &[u64], residual: &mut Components<'_>) -> bool {
    bits::iter(component).any(|x| is_flower_with_center(g, component, x, residual))
}

fn is_flower_with_center(
    g: &CanonicalGraph,
    component: &[u64],
    x: usize,
    residual: &mut Components<'_>,
) -> bool {
    let centre = g.row(x);
    residual.reset(component);
    residual.exclude(x);
    while let Some(part) = residual.next() {
        // The attachment is the subgraph induced by `part ∪ {x}`. It is
        // connected (`part` is, and hangs off `x`), so it is acyclic — a
        // stamen (chain) or a stem (tree), always fine — iff it has one edge
        // less than its |part| + 1 nodes.
        let to_centre = bits::count_and(centre, part);
        let mut inner_degrees = 0;
        // Degrees inside the attachment, censused for the petal test.
        let mut below_two = to_centre < 2;
        let mut branching = 0;
        for v in bits::iter(part) {
            let inner = bits::count_and(g.row(v), part);
            let degree = inner + usize::from(bits::contains(centre, v));
            inner_degrees += inner;
            below_two |= degree < 2;
            branching += usize::from(degree >= 3);
        }
        let edges = inner_degrees / 2 + to_centre;
        if edges == bits::count(part) {
            continue;
        }
        // A petal with source `x` is a set of at least two internally
        // node-disjoint paths from `x` to a common target: every node has
        // degree ≥ 2 and, `x` and the target aside, exactly 2. So either no
        // node of `part` branches (two paths: a plain cycle through `x`) or
        // exactly one does, the target, and then `x` branches as well.
        let petal = !below_two && (branching == 0 || (branching == 1 && to_centre >= 3));
        if !petal {
            return false;
        }
    }
    true
}

sparqlog_algebra::tally! {
    /// Cumulative shape statistics over a set of query graphs (one column of
    /// Table 4).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ShapeTally {
        /// Queries whose graph is a single edge.
        sum pub single_edge: u64,
        /// Chains.
        sum pub chain: u64,
        /// Chain sets.
        sum pub chain_set: u64,
        /// Stars.
        sum pub star: u64,
        /// Trees.
        sum pub tree: u64,
        /// Forests.
        sum pub forest: u64,
        /// Cycles.
        sum pub cycle: u64,
        /// Flowers.
        sum pub flower: u64,
        /// Flower sets.
        sum pub flower_set: u64,
        /// Queries with treewidth ≤ 2.
        sum pub treewidth_le2: u64,
        /// Queries with treewidth exactly 3.
        sum pub treewidth_3: u64,
        /// Queries with treewidth 4 or more (not observed in the paper's corpus).
        sum pub treewidth_ge4: u64,
        /// Total queries classified.
        sum pub total: u64,
    }
}

impl ShapeTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one classified query (shape report plus its treewidth).
    pub fn add(&mut self, shape: &ShapeReport, treewidth: usize) {
        self.total += 1;
        if shape.single_edge {
            self.single_edge += 1;
        }
        if shape.chain {
            self.chain += 1;
        }
        if shape.chain_set {
            self.chain_set += 1;
        }
        if shape.star {
            self.star += 1;
        }
        if shape.tree {
            self.tree += 1;
        }
        if shape.forest {
            self.forest += 1;
        }
        if shape.cycle {
            self.cycle += 1;
        }
        if shape.flower {
            self.flower += 1;
        }
        if shape.flower_set {
            self.flower_set += 1;
        }
        match treewidth {
            0..=2 => self.treewidth_le2 += 1,
            3 => self.treewidth_3 += 1,
            _ => self.treewidth_ge4 += 1,
        }
    }

    /// The Table-4 rows as `(label, count, share)` in the paper's order.
    pub fn rows(&self) -> Vec<(&'static str, u64, f64)> {
        let total = self.total.max(1) as f64;
        [
            ("single edge", self.single_edge),
            ("chain", self.chain),
            ("chain set", self.chain_set),
            ("star", self.star),
            ("tree", self.tree),
            ("forest", self.forest),
            ("cycle", self.cycle),
            ("flower", self.flower),
            ("flower set", self.flower_set),
            ("treewidth <= 2", self.treewidth_le2),
            ("treewidth = 3", self.treewidth_3),
            ("total", self.total),
        ]
        .into_iter()
        .map(|(l, v)| (l, v, v as f64 / total))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_of as graph;

    #[test]
    fn single_edge_is_also_chain_tree_forest_flower() {
        let r = ShapeReport::classify(&graph(&[("x", "y")]));
        assert!(r.single_edge && r.chain && r.chain_set && r.tree && r.forest);
        assert!(r.flower && r.flower_set);
        assert!(!r.star && !r.cycle);
        assert_eq!(r.primary(), ShapeClass::SingleEdge);
    }

    #[test]
    fn chain_of_three_edges() {
        let r = ShapeReport::classify(&graph(&[("a", "b"), ("b", "c"), ("c", "d")]));
        assert!(!r.single_edge && r.chain && r.tree);
        assert_eq!(r.primary(), ShapeClass::Chain);
    }

    #[test]
    fn chain_set_of_two_chains() {
        let r = ShapeReport::classify(&graph(&[("a", "b"), ("c", "d")]));
        assert!(!r.chain && r.chain_set && !r.tree && r.forest);
        assert_eq!(r.primary(), ShapeClass::ChainSet);
    }

    #[test]
    fn star_with_three_leaves() {
        let r = ShapeReport::classify(&graph(&[("c", "l1"), ("c", "l2"), ("c", "l3")]));
        assert!(r.star && r.tree && !r.chain);
        assert_eq!(r.primary(), ShapeClass::Star);
    }

    #[test]
    fn proper_tree_is_not_star_or_chain() {
        // Two branch nodes of degree 3.
        let r = ShapeReport::classify(&graph(&[
            ("a", "b"),
            ("a", "c"),
            ("a", "d"),
            ("d", "e"),
            ("d", "f"),
        ]));
        assert!(r.tree && !r.star && !r.chain);
        assert_eq!(r.primary(), ShapeClass::Tree);
    }

    #[test]
    fn cycle_is_flower_but_not_tree() {
        let r = ShapeReport::classify(&graph(&[("a", "b"), ("b", "c"), ("c", "a")]));
        assert!(r.cycle && !r.tree && !r.forest);
        assert!(r.flower && r.flower_set);
        assert_eq!(r.primary(), ShapeClass::Cycle);
    }

    #[test]
    fn flower_with_petal_and_stamens() {
        // Centre x with: a petal (two paths x-a-t and x-b-t), one stamen
        // (chain x-s1-s2) and a stem (tree branching at x via m).
        let r = ShapeReport::classify(&graph(&[
            ("x", "a"),
            ("a", "t"),
            ("x", "b"),
            ("b", "t"),
            ("x", "s1"),
            ("s1", "s2"),
            ("x", "m"),
            ("m", "u"),
            ("m", "v"),
        ]));
        assert!(r.flower && r.flower_set);
        assert!(!r.forest && !r.cycle);
        assert_eq!(r.primary(), ShapeClass::Flower);
    }

    #[test]
    fn petal_with_three_paths() {
        // Three internally disjoint paths from x to t (like the Figure 6 petal
        // that uses three paths).
        let r = ShapeReport::classify(&graph(&[
            ("x", "a"),
            ("a", "t"),
            ("x", "b"),
            ("b", "t"),
            ("x", "c"),
            ("c", "t"),
        ]));
        assert!(r.flower);
        assert!(!r.cycle);
    }

    #[test]
    fn flower_set_of_cycle_and_chain() {
        let r = ShapeReport::classify(&graph(&[
            ("a", "b"),
            ("b", "c"),
            ("c", "a"),
            ("p", "q"),
            ("q", "r"),
        ]));
        assert!(!r.flower && r.flower_set);
        assert!(!r.forest);
        assert_eq!(r.primary(), ShapeClass::FlowerSet);
    }

    #[test]
    fn two_disjoint_cycles_sharing_nothing_not_flower_but_flower_set() {
        let r = ShapeReport::classify(&graph(&[
            ("a", "b"),
            ("b", "c"),
            ("c", "a"),
            ("d", "e"),
            ("e", "f"),
            ("f", "d"),
        ]));
        assert!(!r.flower);
        assert!(r.flower_set);
    }

    #[test]
    fn two_cycles_sharing_one_node_is_flower() {
        let r = ShapeReport::classify(&graph(&[
            ("x", "a"),
            ("a", "b"),
            ("b", "x"),
            ("x", "c"),
            ("c", "d"),
            ("d", "x"),
        ]));
        assert!(r.flower);
    }

    #[test]
    fn k4_is_not_a_flower() {
        let r = ShapeReport::classify(&graph(&[
            ("a", "b"),
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "d"),
            ("c", "d"),
        ]));
        assert!(!r.flower && !r.flower_set && !r.forest);
        assert_eq!(r.primary(), ShapeClass::Other);
    }

    #[test]
    fn empty_graph_classification() {
        let g = CanonicalGraph::default();
        let r = ShapeReport::classify(&g);
        assert!(r.empty && r.forest && r.flower_set);
        assert_eq!(r.primary(), ShapeClass::Empty);
    }

    #[test]
    fn tally_is_cumulative_like_table4() {
        let mut t = ShapeTally::new();
        t.add(&ShapeReport::classify(&graph(&[("x", "y")])), 1);
        t.add(
            &ShapeReport::classify(&graph(&[("a", "b"), ("b", "c"), ("c", "a")])),
            2,
        );
        assert_eq!(t.total, 2);
        assert_eq!(t.single_edge, 1);
        assert_eq!(t.flower_set, 2);
        assert_eq!(t.treewidth_le2, 2);
        let rows = t.rows();
        assert_eq!(rows.last().unwrap().1, 2);
    }
}
