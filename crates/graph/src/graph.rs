//! The canonical (undirected) graph of a graph pattern (Section 5 of the
//! paper).
//!
//! For a pattern `P` without variables in predicate position, the canonical
//! graph has an edge `{x, y}` for every triple pattern `(x, ℓ, y)` with
//! constant predicate `ℓ`, and its nodes are the subjects and objects of
//! those triples. Nodes can be variables, blank nodes *or constants*; the
//! paper additionally re-runs its analysis with constants excluded, which is
//! supported through [`GraphMode`].
//!
//! Filters of the form `?x = ?y` collapse the two nodes (footnote 20).
//!
//! # Representation
//!
//! A graph is a symmetric, zero-diagonal **bit matrix**: node `v`'s
//! neighbourhood is a row of `ceil(n / 64)` `u64` words, rows stored back to
//! back in one allocation. Query graphs are tiny — a single word per row
//! covers every graph with up to 64 nodes, and the 209-triple outliers of
//! the paper's corpus take seven — so degrees are popcounts, "neighbours of
//! `v` inside this component" is an `AND`, and the shape, treewidth and
//! girth algorithms of this crate run on machine words without ever copying
//! a subgraph. Nodes are anonymous: they are numbered in first-occurrence
//! order during one scan over the triples, and nothing downstream needs to
//! know which term a number stands for.
//!
//! The matrix is quadratic in the node count, which comes from the analysed
//! query, so it is bounded before it is allocated: a pattern with more than
//! [`CanonicalGraph::MAX_NODES`] distinct nodes gets no canonical graph.

use serde::{Deserialize, Serialize};
use sparqlog_parser::ast_ref::{Term, TriplePattern};
use sparqlog_parser::intern::{Interner, Symbol};

/// Whether constants (IRIs and literals in subject/object position) become
/// graph nodes, or only variables and blank nodes do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphMode {
    /// Constants are nodes too (the default canonical graph of the paper).
    WithConstants,
    /// Only variables and blank nodes are nodes; triples whose subject or
    /// object is a constant contribute no edge for that endpoint (a triple
    /// `(?x, p, c)` yields the singleton edge `{?x}`; a fully constant triple
    /// is ignored). Used for the Section 6.1 "excluding constants" rerun.
    VariablesOnly,
}

/// An undirected simple graph with parallel-edge and self-loop accounting,
/// as produced from a SPARQL graph pattern (see the [module docs](self) for
/// the bit-matrix representation).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CanonicalGraph {
    /// Number of nodes.
    nodes: usize,
    /// `u64` words per adjacency row: `ceil(nodes / 64)`.
    words: usize,
    /// The adjacency matrix, row-major: bit `w` of row `v` is set iff
    /// `{v, w}` is an edge. Symmetric, no diagonal bits, no bits at or above
    /// `nodes`.
    rows: Vec<u64>,
    /// Number of self-loop edges encountered (triples with identical
    /// endpoints after collapsing, e.g. `?x p ?x`).
    pub self_loops: usize,
    /// Number of triples that mapped onto an already-present edge
    /// (parallel edges in the multigraph view).
    pub parallel_edges: usize,
    /// Number of triples that contributed no edge at all (e.g. fully-constant
    /// triples in [`GraphMode::VariablesOnly`]).
    pub skipped_triples: usize,
}

impl CanonicalGraph {
    /// The largest node count a canonical graph is built for. The adjacency
    /// matrix takes `nodes² / 8` bytes (2 MiB at this bound) and the node
    /// count is set by the analysed query, so it is checked before anything
    /// is allocated; the largest query of the paper's corpus has 209 triples,
    /// i.e. at most 418 nodes.
    pub const MAX_NODES: usize = 4096;

    /// Builds the canonical graph of a set of triple patterns.
    ///
    /// `equalities` lists variable pairs equated by simple `?x = ?y` filters;
    /// each pair is collapsed into one node. Triple patterns with a variable
    /// predicate are rejected by returning `None` (such queries must be
    /// analysed through their hypergraph instead, see Section 5 / Example
    /// 5.1 of the paper), and so are patterns with more than
    /// [`CanonicalGraph::MAX_NODES`] distinct nodes.
    pub fn from_triples(
        triples: &[TriplePattern<'_>],
        equalities: &[(&str, &str)],
        mode: GraphMode,
    ) -> Option<CanonicalGraph> {
        let scan = Scan::of(triples, equalities.iter().copied(), &mut Interner::new())?;
        Some(scan.graph(mode))
    }

    /// Builds the canonical graph in **both** modes from a single scan over
    /// the triples: the with-constants graph (shape, treewidth, girth) and
    /// the variables-only graph (the Section 6.1 "excluding constants"
    /// rerun). This is the one canonical-graph construction of the
    /// single-pass pipeline. Returns `None` exactly when
    /// [`CanonicalGraph::from_triples`] does.
    ///
    /// Node identity only has to hold within the query: variables and blank
    /// nodes are compared as `u32` [`Symbol`]s of the caller's [`Interner`]
    /// (variables through the `?x = ?y` union-find), constants are compared
    /// by value against the query's own node list and never interned — a
    /// worker's interner therefore grows with the corpus' variable names,
    /// not with its IRIs and literals.
    pub fn from_triples_both_interned<'a, 'q: 'a, 'e>(
        triples: impl IntoIterator<Item = &'a TriplePattern<'q>>,
        equalities: impl IntoIterator<Item = (&'e str, &'e str)>,
        interner: &mut Interner,
    ) -> Option<(CanonicalGraph, CanonicalGraph)> {
        let scan = Scan::of(triples, equalities, interner)?;
        Some((
            scan.graph(GraphMode::WithConstants),
            scan.graph(GraphMode::VariablesOnly),
        ))
    }

    /// An edgeless graph on `nodes` nodes.
    fn with_nodes(nodes: usize) -> CanonicalGraph {
        let words = nodes.div_ceil(64);
        CanonicalGraph {
            nodes,
            words,
            rows: vec![0; nodes * words],
            ..CanonicalGraph::default()
        }
    }

    /// Records one triple between the given endpoints (`None` = an endpoint
    /// that is not a node in this graph's mode).
    fn add_edge(&mut self, subject: Option<usize>, object: Option<usize>) {
        match (subject, object) {
            (Some(a), Some(b)) if a == b => self.self_loops += 1,
            (Some(a), Some(b)) => {
                if bits::contains(self.row(a), b) {
                    self.parallel_edges += 1;
                } else {
                    bits::insert(self.row_mut(a), b);
                    bits::insert(self.row_mut(b), a);
                }
            }
            (Some(_), None) | (None, Some(_)) => self.self_loops += 1,
            (None, None) => self.skipped_triples += 1,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of (simple, undirected) edges.
    pub fn edge_count(&self) -> usize {
        bits::count(&self.rows) / 2
    }

    /// The degree of a node.
    pub fn degree(&self, v: usize) -> usize {
        bits::count(self.row(v))
    }

    /// The neighbourhood of a node as a node set ([`bits`]).
    pub(crate) fn row(&self, v: usize) -> &[u64] {
        &self.rows[v * self.words..(v + 1) * self.words]
    }

    fn row_mut(&mut self, v: usize) -> &mut [u64] {
        &mut self.rows[v * self.words..(v + 1) * self.words]
    }

    /// `u64` words per row and per node set of this graph.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The whole matrix, row-major.
    pub(crate) fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// The connected components, each given as a sorted list of node indices.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let mut components = Components::of(self);
        let mut out = Vec::new();
        while let Some(component) = components.next() {
            out.push(bits::iter(component).collect());
        }
        out
    }

    /// True if the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        let mut components = Components::of(self);
        components.next();
        components.next().is_none()
    }

    /// True if the graph contains at least one cycle.
    pub fn has_cycle(&self) -> bool {
        // A forest with `c` components has exactly |V| − c edges.
        let mut components = Components::of(self);
        let mut count = 0;
        while components.next().is_some() {
            count += 1;
        }
        self.edge_count() + count > self.nodes
    }

    /// The length of the shortest cycle (girth), or `None` if acyclic.
    /// Self-loops and parallel edges are *not* considered (they arise from
    /// multi-edges in the multigraph view and are reported separately).
    pub fn girth(&self) -> Option<usize> {
        if !self.has_cycle() {
            return None;
        }
        // Level-synchronous BFS from every node. With `level` the nodes at
        // distance `depth` from the start, an edge inside the level closes
        // an odd cycle of 2·depth + 1 edges and a node reached from two
        // level nodes closes an even one of 2·depth + 2. Every detection is
        // a closed walk, so no start reports less than the girth, and a
        // start on a shortest cycle reports it exactly.
        let words = self.words;
        let mut buf = vec![0u64; 3 * words];
        let (seen, rest) = buf.split_at_mut(words);
        let (level, next) = rest.split_at_mut(words);
        let mut best = usize::MAX;
        for start in 0..self.nodes {
            seen.fill(0);
            level.fill(0);
            bits::insert(seen, start);
            bits::insert(level, start);
            let mut depth = 0;
            // Nothing found at this depth or deeper can beat `best`.
            while 2 * depth + 1 < best && !bits::is_empty(level) {
                next.fill(0);
                let (mut odd, mut even) = (false, false);
                for v in bits::iter(level) {
                    let row = self.row(v);
                    if bits::intersects(row, level) {
                        odd = true;
                        break;
                    }
                    for i in 0..words {
                        let reached = row[i] & !seen[i];
                        even |= reached & next[i] != 0;
                        next[i] |= reached;
                    }
                }
                if odd || even {
                    best = best.min(2 * depth + if odd { 1 } else { 2 });
                    break;
                }
                for i in 0..words {
                    seen[i] |= next[i];
                }
                level.copy_from_slice(next);
                depth += 1;
            }
        }
        Some(best)
    }
}

/// Node sets as bit masks: a set over a graph's nodes is a slice of
/// [`CanonicalGraph::words`] `u64`s, bit `v % 64` of word `v / 64` standing
/// for node `v` — the same layout as an adjacency row, so the two combine
/// word by word.
pub(crate) mod bits {
    /// Number of members.
    pub fn count(set: &[u64]) -> usize {
        set.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of members of `a ∩ b`.
    pub fn count_and(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// True if `a ∩ b` is non-empty.
    pub fn intersects(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).any(|(x, y)| x & y != 0)
    }

    /// True if the set has no members.
    pub fn is_empty(set: &[u64]) -> bool {
        set.iter().all(|&w| w == 0)
    }

    /// The smallest member.
    pub fn first(set: &[u64]) -> Option<usize> {
        set.iter()
            .position(|&w| w != 0)
            .map(|i| i * 64 + set[i].trailing_zeros() as usize)
    }

    /// Membership test.
    pub fn contains(set: &[u64], v: usize) -> bool {
        set[v / 64] >> (v % 64) & 1 != 0
    }

    /// Adds a member.
    pub fn insert(set: &mut [u64], v: usize) {
        set[v / 64] |= 1 << (v % 64);
    }

    /// Removes a member.
    pub fn remove(set: &mut [u64], v: usize) {
        set[v / 64] &= !(1 << (v % 64));
    }

    /// The members in increasing order.
    pub fn iter(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
        set.iter().enumerate().flat_map(|(i, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    i * 64 + bit
                })
            })
        })
    }
}

/// Walks the connected components of the subgraph induced by a node set,
/// handing out one component mask at a time from a buffer allocated once —
/// the replacement for materialising induced subgraphs. Components come in
/// increasing order of their smallest node.
pub(crate) struct Components<'g> {
    graph: &'g CanonicalGraph,
    /// Three node sets back to back: the nodes not yet handed out, the
    /// current component, and the search frontier (empty between calls).
    buf: Vec<u64>,
}

impl<'g> Components<'g> {
    /// A walker over no nodes at all; [`Components::reset`] gives it work.
    pub fn new(graph: &'g CanonicalGraph) -> Components<'g> {
        Components {
            graph,
            buf: vec![0; 3 * graph.words],
        }
    }

    /// A walker over the whole graph.
    pub fn of(graph: &'g CanonicalGraph) -> Components<'g> {
        let mut components = Components::new(graph);
        let remaining = &mut components.buf[..graph.words];
        remaining.fill(u64::MAX);
        if let Some(last) = remaining.last_mut() {
            // Only the low `nodes % 64` bits of a partial last word are nodes.
            *last >>= (64 - graph.nodes % 64) % 64;
        }
        components
    }

    /// Restarts the walk over the subgraph induced by `within`.
    pub fn reset(&mut self, within: &[u64]) {
        self.buf[..self.graph.words].copy_from_slice(within);
    }

    /// Drops a node from the part of the graph still to be walked.
    pub fn exclude(&mut self, v: usize) {
        bits::remove(&mut self.buf[..self.graph.words], v);
    }

    /// The next component, as a node set valid until the next call.
    pub fn next(&mut self) -> Option<&[u64]> {
        let words = self.graph.words;
        let (remaining, rest) = self.buf.split_at_mut(words);
        let (component, frontier) = rest.split_at_mut(words);
        let start = bits::first(remaining)?;
        component.fill(0);
        bits::insert(component, start);
        bits::insert(frontier, start);
        while let Some(v) = bits::first(frontier) {
            bits::remove(frontier, v);
            let row = self.graph.row(v);
            for i in 0..words {
                let reached = row[i] & remaining[i] & !component[i];
                component[i] |= reached;
                frontier[i] |= reached;
            }
        }
        for i in 0..words {
            remaining[i] &= !component[i];
        }
        Some(component)
    }
}

/// What makes two subject/object terms of one query the same node.
/// Variables carry their `?x = ?y` union-find root so equated variables
/// collapse; constants are compared by value (kind and every field), which
/// needs no table that outlives the query.
#[derive(Clone, Copy, PartialEq)]
enum NodeKey<'a, 'q> {
    Var(Symbol),
    Blank(Symbol),
    Constant(&'a Term<'q>),
}

/// The `?x = ?y` union-find over variable symbols. Equality filters are rare
/// and short, so the links are a flat list searched linearly; a symbol
/// without a link is its own root.
#[derive(Default)]
struct Equalities {
    parent: Vec<(Symbol, Symbol)>,
}

impl Equalities {
    fn find(&self, mut key: Symbol) -> Symbol {
        while let Some(&(_, parent)) = self.parent.iter().find(|(child, _)| *child == key) {
            key = parent;
        }
        key
    }

    fn union(&mut self, a: Symbol, b: Symbol) {
        let (a, b) = (self.find(a), self.find(b));
        if a != b {
            // `b` was a root, so it had no link yet.
            self.parent.push((b, a));
        }
    }
}

/// The outcome of the one scan over a pattern's triples: node numbers in
/// first-occurrence order and one endpoint pair per triple, from which the
/// graph of either [`GraphMode`] is filled in.
struct Scan<'a, 'q> {
    /// The with-constants nodes, each with its number in the variables-only
    /// graph (or [`Scan::CONSTANT`]).
    nodes: Vec<(NodeKey<'a, 'q>, u32)>,
    /// Number of variable and blank nodes.
    variables: u32,
    /// Subject and object node of every triple, in with-constants numbering.
    edges: Vec<(u32, u32)>,
}

impl<'a, 'q> Scan<'a, 'q> {
    const CONSTANT: u32 = u32::MAX;

    fn of<'e>(
        triples: impl IntoIterator<Item = &'a TriplePattern<'q>>,
        equalities: impl IntoIterator<Item = (&'e str, &'e str)>,
        interner: &mut Interner,
    ) -> Option<Scan<'a, 'q>> {
        let mut equal = Equalities::default();
        for (a, b) in equalities {
            equal.union(interner.intern(a), interner.intern(b));
        }
        let triples = triples.into_iter();
        let expected = triples.size_hint().0;
        let mut scan = Scan {
            nodes: Vec::with_capacity(expected + 1),
            variables: 0,
            edges: Vec::with_capacity(expected),
        };
        for t in triples {
            if t.predicate.is_var() {
                return None;
            }
            let subject = scan.node_of(&t.subject, &equal, interner)?;
            let object = scan.node_of(&t.object, &equal, interner)?;
            scan.edges.push((subject, object));
        }
        Some(scan)
    }

    /// The node a term stands for, numbering it on first occurrence; `None`
    /// once the pattern has more than [`CanonicalGraph::MAX_NODES`] nodes.
    fn node_of(
        &mut self,
        term: &'a Term<'q>,
        equal: &Equalities,
        interner: &mut Interner,
    ) -> Option<u32> {
        let key = match term {
            Term::Var(v) => NodeKey::Var(equal.find(interner.intern(v))),
            Term::BlankNode(b) => NodeKey::Blank(interner.intern(b)),
            Term::Iri(_) | Term::Literal { .. } => NodeKey::Constant(term),
        };
        // A handful of nodes per query: a scan beats any hashed index.
        if let Some(node) = self.nodes.iter().position(|(k, _)| *k == key) {
            return Some(node as u32);
        }
        if self.nodes.len() == CanonicalGraph::MAX_NODES {
            return None;
        }
        let variable_id = match key {
            NodeKey::Constant(_) => Scan::CONSTANT,
            NodeKey::Var(_) | NodeKey::Blank(_) => {
                self.variables += 1;
                self.variables - 1
            }
        };
        self.nodes.push((key, variable_id));
        Some(self.nodes.len() as u32 - 1)
    }

    fn graph(&self, mode: GraphMode) -> CanonicalGraph {
        let node = |v: u32| match mode {
            GraphMode::WithConstants => Some(v as usize),
            GraphMode::VariablesOnly => {
                let id = self.nodes[v as usize].1;
                (id != Scan::CONSTANT).then_some(id as usize)
            }
        };
        let mut graph = CanonicalGraph::with_nodes(match mode {
            GraphMode::WithConstants => self.nodes.len(),
            GraphMode::VariablesOnly => self.variables as usize,
        });
        for &(subject, object) in &self.edges {
            graph.add_edge(node(subject), node(object));
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::triple as t;

    fn object<'a>(subject: Term<'a>, p: &'a str, object: Term<'a>) -> TriplePattern<'a> {
        TriplePattern {
            subject,
            predicate: Term::Iri(p),
            object,
        }
    }

    fn literal<'a>(lexical: &'a str, datatype: Option<&'a str>, lang: Option<&'a str>) -> Term<'a> {
        Term::Literal {
            lexical,
            datatype,
            lang,
        }
    }

    #[test]
    fn builds_chain_graph() {
        let triples = [
            t("?x1", "a", "?x2"),
            t("?x2", "b", "?x3"),
            t("?x3", "c", "?x4"),
        ];
        let g = CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.has_cycle());
        assert!(g.is_connected());
        assert_eq!(g.girth(), None);
    }

    #[test]
    fn variable_predicate_is_rejected() {
        let triples = [t("?x", "?p", "?y")];
        assert!(CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).is_none());
        let mut interner = Interner::new();
        assert!(CanonicalGraph::from_triples_both_interned(&triples, [], &mut interner).is_none());
    }

    #[test]
    fn constants_become_nodes_only_with_constants_mode() {
        let triples = [t("?x", "p", "c1"), t("?x", "q", "c2")];
        let with = CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).unwrap();
        assert_eq!(with.node_count(), 3);
        assert_eq!(with.edge_count(), 2);
        let without =
            CanonicalGraph::from_triples(&triples, &[], GraphMode::VariablesOnly).unwrap();
        assert_eq!(without.node_count(), 1);
        assert_eq!(without.edge_count(), 0);
        assert_eq!(without.self_loops, 2);
    }

    #[test]
    fn cycle_detection_and_girth() {
        let triples = [
            t("?a", "p", "?b"),
            t("?b", "p", "?c"),
            t("?c", "p", "?d"),
            t("?d", "p", "?a"),
        ];
        let g = CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).unwrap();
        assert!(g.has_cycle());
        assert_eq!(g.girth(), Some(4));
    }

    #[test]
    fn equality_filter_collapses_nodes() {
        // ?x p ?y . ?z q ?w with FILTER(?y = ?z) becomes a chain of length 2.
        let triples = [t("?x", "p", "?y"), t("?z", "q", "?w")];
        let g = CanonicalGraph::from_triples(&triples, &[("y", "z")], GraphMode::WithConstants)
            .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn parallel_edges_and_self_loops_are_counted() {
        let triples = [t("?x", "p", "?y"), t("?x", "q", "?y"), t("?x", "r", "?x")];
        let g = CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.parallel_edges, 1);
        assert_eq!(g.self_loops, 1);
    }

    #[test]
    fn components_are_sorted_node_lists() {
        let triples = [t("?a", "p", "?b"), t("?c", "p", "?d"), t("?b", "p", "?e")];
        let g = CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).unwrap();
        assert_eq!(g.connected_components(), vec![vec![0, 1, 4], vec![2, 3]]);
        assert!(!g.is_connected());
    }

    #[test]
    fn one_scan_builds_the_graphs_of_both_modes() {
        let triples = [
            object(Term::BlankNode("b"), "http://p", Term::Var("x")),
            object(
                Term::Var("x"),
                "http://p",
                literal("v", Some("http://dt"), None),
            ),
            t("?x", "q", "c1"),
            t("c1", "q", "c2"),
        ];
        // The interner is reused across calls, as an analysis worker reuses
        // it across queries.
        let mut interner = Interner::new();
        for _ in 0..2 {
            let (with, without) =
                CanonicalGraph::from_triples_both_interned(&triples, [], &mut interner).unwrap();
            assert_eq!(
                with,
                CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).unwrap()
            );
            assert_eq!(
                without,
                CanonicalGraph::from_triples(&triples, &[], GraphMode::VariablesOnly).unwrap()
            );
            assert_eq!((with.node_count(), with.edge_count()), (5, 4));
            assert_eq!((without.node_count(), without.edge_count()), (2, 1));
            assert_eq!((without.self_loops, without.skipped_triples), (2, 1));
        }
        assert!(interner.stats().hits > 0);
    }

    #[test]
    fn a_term_kind_is_part_of_node_identity() {
        // ?n, _:n, <n> and "n" are four nodes; "n"@en and "n"^^<dt> two more.
        let triples = [
            Term::Var("n"),
            Term::BlankNode("n"),
            Term::Iri("n"),
            literal("n", None, None),
            literal("n", None, Some("en")),
            literal("n", Some("dt"), None),
        ]
        .map(|o| object(Term::Var("s"), "p", o));
        let g = CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).unwrap();
        assert_eq!(
            (g.node_count(), g.edge_count(), g.parallel_edges),
            (7, 6, 0)
        );
    }

    #[test]
    fn constants_are_never_interned() {
        let triples = [t("?x", "p", "http://c1"), t("http://c2", "q", "?y")];
        let mut interner = Interner::new();
        CanonicalGraph::from_triples_both_interned(&triples, [("x", "z")], &mut interner).unwrap();
        assert_eq!(interner.stats().distinct, 3); // x, y, z
    }

    #[test]
    fn the_node_count_is_bounded_before_the_matrix_is_allocated() {
        let leaves: Vec<String> = (0..CanonicalGraph::MAX_NODES)
            .map(|i| format!("?leaf{i}"))
            .collect();
        let beyond: Vec<TriplePattern<'_>> =
            leaves.iter().map(|leaf| t("?centre", "p", leaf)).collect();
        let at_bound = &beyond[..CanonicalGraph::MAX_NODES - 1];
        let g = CanonicalGraph::from_triples(at_bound, &[], GraphMode::WithConstants).unwrap();
        assert_eq!(g.node_count(), CanonicalGraph::MAX_NODES);
        assert!(!g.has_cycle());
        assert!(CanonicalGraph::from_triples(&beyond, &[], GraphMode::WithConstants).is_none());
    }

    #[test]
    fn girth_of_triangle_with_tail() {
        let triples = [
            t("?a", "p", "?b"),
            t("?b", "p", "?c"),
            t("?c", "p", "?a"),
            t("?c", "p", "?d"),
            t("?d", "p", "?e"),
        ];
        let g = CanonicalGraph::from_triples(&triples, &[], GraphMode::WithConstants).unwrap();
        assert_eq!(g.girth(), Some(3));
    }
}
