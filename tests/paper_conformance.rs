//! The analyses pinned to the paper, not to each other (ROADMAP item 3).
//!
//! Every fixture below is a query whose classification was derived by hand
//! from the paper's definition (Bonifati, Martens, Timm: *An Analytical
//! Study of Large SPARQL Query Logs*, VLDB 2017). The definition used is
//! restated beside each fixture with its section number — restated, not
//! copied: PAPER.md carries only the abstract — so the oracle can be audited
//! against the paper. The engines' differential tests cannot catch a shared
//! misreading of a definition; these can.
//!
//! This file starts with the graph slice: the canonical graph (Section 5),
//! the shape classes of Table 4 (Section 6.1, Definition 6.1), treewidth
//! (Section 6.2) and the shortest-cycle length.

use proptest::prelude::*;
use sparqlog::core::QueryAnalysis;
use sparqlog::graph::{ShapeClass, ShapeReport, StructuralReport};
use sparqlog::parser::{parse_query_in, Arena};

/// The per-query record of a query, through the fused engine's per-query
/// entry point; the multi-walk reference must agree on its structural part.
fn analysis(text: &str) -> QueryAnalysis {
    let fused = QueryAnalysis::of_text(text).expect("fixture parses");
    let arena = Arena::new();
    let query = parse_query_in(text, &arena).expect("fixture parses");
    assert_eq!(fused.structural, StructuralReport::of(&query), "{text}");
    fused
}

fn report(text: &str) -> StructuralReport {
    analysis(text).structural
}

fn shape(text: &str) -> ShapeReport {
    report(text)
        .shape
        .expect("CQ-like query with constant predicates")
}

/// The shape classes a graph belongs to, in Table 4's order.
fn classes(s: &ShapeReport) -> Vec<&'static str> {
    [
        ("single edge", s.single_edge),
        ("chain", s.chain),
        ("chain set", s.chain_set),
        ("star", s.star),
        ("tree", s.tree),
        ("forest", s.forest),
        ("cycle", s.cycle),
        ("flower", s.flower),
        ("flower set", s.flower_set),
    ]
    .into_iter()
    .filter_map(|(name, member)| member.then_some(name))
    .collect()
}

/// Section 5, Example 5.1: the canonical graph does not capture the
/// structure of a query with variables in predicate position — in
/// `?x1 ?x2 ?x3 . ?x3 :a ?x4 . ?x4 ?x2 ?x5` the join on `?x2` is invisible to
/// the graph (which would be a chain) but closes a cycle in the canonical
/// hypergraph. Such queries get no shape; they are analysed through their
/// hypergraph, whose generalized hypertree width here is 2.
#[test]
fn example_5_1_variable_predicates_go_to_the_hypergraph() {
    let r = report("ASK WHERE { ?x1 ?x2 ?x3 . ?x3 <a> ?x4 . ?x4 ?x2 ?x5 }");
    assert!(r.fragments.has_var_predicate);
    assert_eq!(r.shape, None);
    assert_eq!(r.shape_vars_only, None);
    assert_eq!(r.treewidth, None);
    assert_eq!(r.shortest_cycle, None);
    assert_eq!(r.hypertree.map(|h| h.width), Some(2));
}

/// Section 6.1, Table 4: the classes are cumulative — every single edge is
/// a chain, every chain a tree, every tree a forest and, by Definition 6.1,
/// a flower — so a one-triple query is in all of them but star and cycle.
#[test]
fn a_single_edge_is_in_every_acyclic_class() {
    let r = report("ASK { ?x <p> ?y }");
    let s = r.shape.unwrap();
    assert_eq!(
        classes(&s),
        [
            "single edge",
            "chain",
            "chain set",
            "tree",
            "forest",
            "flower",
            "flower set"
        ]
    );
    assert_eq!(s.primary(), ShapeClass::SingleEdge);
    assert_eq!((r.treewidth, r.shortest_cycle), (Some(1), None));
}

/// Section 6.1: a *chain* is a query whose canonical graph is a path; the
/// direction of the triples does not matter (the graph is undirected).
#[test]
fn a_chain_is_a_path_whatever_the_edge_directions() {
    let s = shape("ASK { ?a <p> ?b . ?c <q> ?b . ?c <r> ?d }");
    assert_eq!(
        classes(&s),
        [
            "chain",
            "chain set",
            "tree",
            "forest",
            "flower",
            "flower set"
        ]
    );
    assert_eq!(s.primary(), ShapeClass::Chain);
}

/// Section 6.1: a *chain set* is a graph in which every connected component
/// is a chain.
#[test]
fn a_chain_set_is_a_disjoint_union_of_chains() {
    let s = shape("ASK { ?a <p> ?b . ?c <p> ?d . ?d <p> ?e }");
    assert_eq!(classes(&s), ["chain set", "forest", "flower set"]);
    assert_eq!(s.primary(), ShapeClass::ChainSet);
}

/// Section 6.1: a *star* is a tree with exactly one node with more than two
/// neighbours — the rays may be longer than one edge.
#[test]
fn a_star_is_a_tree_with_exactly_one_branching_node() {
    let s = shape("ASK { ?c <p> ?l1 . ?c <p> ?l2 . ?c <p> ?l3 . ?l3 <p> ?m }");
    assert_eq!(
        classes(&s),
        ["star", "tree", "forest", "flower", "flower set"]
    );
    assert_eq!(s.primary(), ShapeClass::Star);
}

/// Section 6.1: a *tree* is a connected acyclic graph; with two branching
/// nodes it is neither a chain nor a star.
#[test]
fn a_tree_with_two_branching_nodes_is_only_a_tree() {
    let s = shape("ASK { ?a <p> ?b . ?a <p> ?c . ?a <p> ?d . ?d <p> ?e . ?d <p> ?f }");
    assert_eq!(classes(&s), ["tree", "forest", "flower", "flower set"]);
    assert_eq!(s.primary(), ShapeClass::Tree);
}

/// Section 6.1: a *forest* is a graph in which every connected component is
/// a tree. A star next to an edge is a forest and — a star not being a
/// chain — not a chain set.
#[test]
fn a_forest_is_a_disjoint_union_of_trees() {
    let r = report("ASK { ?c <p> ?l1 . ?c <p> ?l2 . ?c <p> ?l3 . ?x <p> ?y }");
    let s = r.shape.unwrap();
    assert_eq!(classes(&s), ["forest", "flower set"]);
    assert_eq!(s.primary(), ShapeClass::Forest);
    assert_eq!(r.treewidth, Some(1));
}

/// Section 6.1 / 6.2: a *cycle* is a connected graph in which every node has
/// exactly two neighbours; it has treewidth 2 and, being a petal (two
/// node-disjoint paths between any two of its nodes), is a flower.
#[test]
fn a_cycle_is_a_flower_of_treewidth_two() {
    let r = report("ASK { ?a <p> ?b . ?b <p> ?c . ?c <p> ?d . ?d <p> ?a }");
    let s = r.shape.unwrap();
    assert_eq!(classes(&s), ["cycle", "flower", "flower set"]);
    assert_eq!(s.primary(), ShapeClass::Cycle);
    assert_eq!((r.treewidth, r.shortest_cycle), (Some(2), Some(4)));
}

/// Definition 6.1: a *petal* is a graph consisting of a source node s, a
/// target node t and a set of at least two node-disjoint paths from s to t.
/// A *flower* is a graph consisting of a node x with three types of
/// attachments: chains (the stamens), trees that are not chains (the stems),
/// and petals. Here x carries a petal of two paths to `?t` (two and three
/// edges long), the stem `?m` and the stamen `?s1 – ?s2`.
const FLOWER: &str = "?x <p> ?a . ?a <p> ?t . ?x <p> ?b1 . ?b1 <p> ?b2 . ?b2 <p> ?t . \
                      ?x <p> ?m . ?m <p> ?u . ?m <p> ?v . \
                      ?x <p> ?s1 . ?s1 <p> ?s2";

#[test]
fn definition_6_1_flower() {
    let r = report(&format!("SELECT * WHERE {{ {FLOWER} }}"));
    let s = r.shape.unwrap();
    assert_eq!(classes(&s), ["flower", "flower set"]);
    assert_eq!(s.primary(), ShapeClass::Flower);
    // The petal is the only cycle: 2 + 3 edges.
    assert_eq!((r.treewidth, r.shortest_cycle), (Some(2), Some(5)));
}

/// Definition 6.1: a *flower set* is a graph in which every connected
/// component is a flower. A flower next to a triangle is not connected, so
/// not a flower.
#[test]
fn definition_6_1_flower_set() {
    let r = report(&format!(
        "SELECT * WHERE {{ {FLOWER} . ?k1 <p> ?k2 . ?k2 <p> ?k3 . ?k3 <p> ?k1 }}"
    ));
    let s = r.shape.unwrap();
    assert_eq!(classes(&s), ["flower set"]);
    assert_eq!(s.primary(), ShapeClass::FlowerSet);
    assert_eq!((r.treewidth, r.shortest_cycle), (Some(2), Some(3)));
}

/// Definition 6.1, the other way round: a petal's paths are *node-disjoint*
/// and meet only in s and t, so three paths from `?s` to `?t` with an edge
/// linking two of them are no flower for any choice of x.
#[test]
fn linked_petal_paths_are_no_flower() {
    let s = shape(
        "ASK { ?s <p> ?a . ?a <p> ?t . ?s <p> ?b . ?b <p> ?t . ?s <p> ?c . ?c <p> ?t . ?a <p> ?b }",
    );
    assert_eq!(classes(&s), Vec::<&str>::new());
    assert_eq!(s.primary(), ShapeClass::Other);
}

/// Section 6.1, footnote 20: a filter of the form `?x = ?y` identifies the
/// two variables, so their nodes are collapsed into one — here the collapse
/// closes a three-edge chain into a triangle.
#[test]
fn footnote_20_an_equality_filter_collapses_its_variables() {
    let chain = "?a <p> ?b . ?b <p> ?c . ?c <p> ?d";
    let open = report(&format!("SELECT * WHERE {{ {chain} }}"));
    assert_eq!(open.shape.unwrap().primary(), ShapeClass::Chain);
    let closed = report(&format!("SELECT * WHERE {{ {chain} FILTER(?d = ?a) }}"));
    assert!(closed.fragments.cqf);
    assert_eq!(closed.shape.unwrap().primary(), ShapeClass::Cycle);
    assert_eq!(
        (closed.treewidth, closed.shortest_cycle),
        (Some(2), Some(3))
    );
    // Equalities chain: ?d = ?e and ?e = ?a collapse all three.
    let chained = report(&format!(
        "SELECT * WHERE {{ {chain} . ?e <q> ?f FILTER(?d = ?e) FILTER(?e = ?a) }}"
    ));
    let s = chained.shape.unwrap();
    assert!(!s.cycle && s.flower, "a triangle with a stamen");
    assert_eq!(chained.shortest_cycle, Some(3));
}

/// Section 6.2: treewidth — the complete graph on four nodes is the smallest
/// graph of treewidth 3; it is not a flower set (removing any node leaves a
/// triangle attached by three edges).
#[test]
fn k4_has_treewidth_three_and_no_shape() {
    let r = report("ASK { ?a <p> ?b . ?a <p> ?c . ?a <p> ?d . ?b <p> ?c . ?b <p> ?d . ?c <p> ?d }");
    let s = r.shape.unwrap();
    assert_eq!(classes(&s), Vec::<&str>::new());
    assert_eq!(s.primary(), ShapeClass::Other);
    assert_eq!((r.treewidth, r.shortest_cycle), (Some(3), Some(3)));
}

/// Section 5: the nodes of the canonical graph can be variables, blank nodes
/// or constants; Section 6.1 reruns the analysis with constants excluded. A
/// triple from a variable to an IRI is a single edge in the first reading
/// and an edgeless graph in the second; two variables joined only through a
/// shared constant fall apart.
#[test]
fn the_constants_excluded_rerun_drops_edges_to_constants() {
    let r = report("SELECT ?x WHERE { ?x <p> <c> }");
    assert!(r.shape.unwrap().single_edge);
    let vars_only = r.shape_vars_only.unwrap();
    assert!(vars_only.empty && !vars_only.single_edge);
    assert_eq!(vars_only.primary(), ShapeClass::Empty);

    let r = report("SELECT * WHERE { ?x <p> <c> . ?y <q> <c> . ?y <r> 'lit' }");
    assert_eq!(r.shape.unwrap().primary(), ShapeClass::Chain);
    assert_eq!(r.shape_vars_only.unwrap().primary(), ShapeClass::Empty);
}

/// A query over variables `v0…v7` and the constant `<c>` from an edge list,
/// with the triples in the order of `order`'s keys and every variable `vN`
/// spelled `{prefix}{rename[N]}`.
fn render(
    edges: &[(u8, u8)],
    equality: Option<(u8, u8)>,
    order: &[u64],
    prefix: &str,
    rename: &[u8],
) -> String {
    let node = |i: u8| match i {
        8 => "<c>".to_string(),
        _ => format!("?{prefix}{}", rename[i as usize]),
    };
    let mut triples: Vec<(u64, String)> = edges
        .iter()
        .zip(order)
        .map(|(&(a, b), &key)| (key, format!("{} <p> {} . ", node(a), node(b))))
        .collect();
    triples.sort();
    let body: String = triples.into_iter().map(|(_, t)| t).collect();
    let filter = equality.map_or(String::new(), |(a, b)| {
        format!("FILTER({} = {})", node(a), node(b))
    });
    format!("SELECT * WHERE {{ {body}{filter} }}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The classification is a property of the graph, not of its spelling:
    /// renaming the variables and reordering the triples never changes the
    /// per-query record — features, projection, paths or structural report.
    #[test]
    fn renaming_and_reordering_preserve_the_structural_report(
        edges in prop::collection::vec((0u8..9, 0u8..9), 1..14),
        equality in (0u8..16, 0u8..8),
        order in prop::collection::vec(0u64..u64::MAX, 14..15),
        renaming in prop::collection::vec(0u64..u64::MAX, 8..9),
    ) {
        // One case in two carries a `?x = ?y` filter.
        let equality = (equality.0 < 8).then_some(equality);
        let identity: Vec<u8> = (0..8).collect();
        let mut renamed = identity.clone();
        renamed.sort_by_key(|&i| renaming[i as usize]);
        let in_order: Vec<u64> = (0..14).collect();
        let original = render(&edges, equality, &in_order, "v", &identity);
        let respelled = render(&edges, equality, &order, "w", &renamed);
        prop_assert_eq!(
            format!("{:?}", analysis(&original)),
            format!("{:?}", analysis(&respelled)),
            "{} vs {}",
            original,
            respelled
        );
    }
}
