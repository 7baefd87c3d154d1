//! The adjacency-set implementation the bit-matrix code replaced, kept as
//! the test oracle: string-keyed node index, `Vec<BTreeSet<usize>>`
//! adjacency, induced-subgraph copies for the flower-centre search. It
//! shares nothing with [`crate::graph`], [`crate::shape`] and
//! [`crate::treewidth`] except the exact elimination search
//! ([`tw_at_most`]), which those modules kept as it was.
//!
//! The property tests below hold the production code equal to this one on
//! node numbering, adjacency, every counter, the shape report, treewidth and
//! girth, over random multigraphs on both sides of the one-word-per-row
//! boundary.

use crate::graph::GraphMode;
use crate::shape::ShapeReport;
use crate::treewidth::{tw_at_most, Treewidth};
use sparqlog_parser::ast_ref::{Term, TriplePattern};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// The reference graph: rendered labels and adjacency sets.
#[derive(Debug, Clone, Default)]
pub struct RefGraph {
    pub labels: Vec<String>,
    pub adj: Vec<BTreeSet<usize>>,
    pub self_loops: usize,
    pub parallel_edges: usize,
    pub skipped_triples: usize,
}

impl RefGraph {
    pub fn from_triples(
        triples: &[TriplePattern<'_>],
        equalities: &[(&str, &str)],
        mode: GraphMode,
    ) -> Option<RefGraph> {
        if triples.iter().any(|t| t.predicate.is_var()) {
            return None;
        }
        let mut uf = UnionFind::default();
        for (a, b) in equalities {
            uf.union(&format!("?{a}"), &format!("?{b}"));
        }
        let mut graph = RefGraph::default();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        for t in triples {
            let mut node_of = |term: &Term<'_>| -> Option<usize> {
                let label = match term {
                    Term::Var(v) => uf.find(&format!("?{v}")),
                    Term::BlankNode(b) => format!("_:{b}"),
                    Term::Iri(_) | Term::Literal { .. } => {
                        if mode == GraphMode::VariablesOnly {
                            return None;
                        }
                        term.to_string()
                    }
                };
                Some(*index.entry(label.clone()).or_insert_with(|| {
                    graph.labels.push(label);
                    graph.adj.push(BTreeSet::new());
                    graph.labels.len() - 1
                }))
            };
            let s = node_of(&t.subject);
            let o = node_of(&t.object);
            match (s, o) {
                (Some(a), Some(b)) if a == b => graph.self_loops += 1,
                (Some(a), Some(b)) => {
                    if graph.adj[a].contains(&b) {
                        graph.parallel_edges += 1;
                    } else {
                        graph.adj[a].insert(b);
                        graph.adj[b].insert(a);
                    }
                }
                (Some(_), None) | (None, Some(_)) => graph.self_loops += 1,
                (None, None) => graph.skipped_triples += 1,
            }
        }
        Some(graph)
    }

    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut stack = vec![start];
            let mut comp = Vec::new();
            seen[start] = true;
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &w in &self.adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            comp.sort_unstable();
            components.push(comp);
        }
        components
    }

    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }

    fn induced(&self, nodes: &[usize]) -> RefGraph {
        let set: BTreeSet<usize> = nodes.iter().copied().collect();
        let mut map = BTreeMap::new();
        let mut out = RefGraph::default();
        for &v in nodes {
            map.insert(v, out.labels.len());
            out.labels.push(self.labels[v].clone());
            out.adj.push(BTreeSet::new());
        }
        for &v in nodes {
            for &w in &self.adj[v] {
                if set.contains(&w) {
                    let a = map[&v];
                    let b = map[&w];
                    out.adj[a].insert(b);
                    out.adj[b].insert(a);
                }
            }
        }
        out
    }

    fn without_node(&self, v: usize) -> RefGraph {
        let keep: Vec<usize> = (0..self.node_count()).filter(|&u| u != v).collect();
        self.induced(&keep)
    }

    pub fn has_cycle(&self) -> bool {
        // A graph is acyclic iff every component has |E| = |V| - 1.
        for comp in self.connected_components() {
            let edges: usize = comp
                .iter()
                .map(|&v| self.adj[v].iter().filter(|w| comp.contains(w)).count())
                .sum::<usize>()
                / 2;
            if edges >= comp.len() {
                return true;
            }
        }
        false
    }

    pub fn girth(&self) -> Option<usize> {
        let n = self.node_count();
        let mut best: Option<usize> = None;
        for start in 0..n {
            // BFS from start; a non-tree edge closing back gives a cycle.
            let mut dist = vec![usize::MAX; n];
            let mut parent = vec![usize::MAX; n];
            dist[start] = 0;
            let mut queue = VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                for &w in &self.adj[v] {
                    if dist[w] == usize::MAX {
                        dist[w] = dist[v] + 1;
                        parent[w] = v;
                        queue.push_back(w);
                    } else if parent[v] != w {
                        let cycle_len = dist[v] + dist[w] + 1;
                        best = Some(best.map_or(cycle_len, |b| b.min(cycle_len)));
                    }
                }
            }
        }
        best
    }
}

/// A tiny union-find over string keys used for `?x = ?y` collapsing.
#[derive(Debug, Default)]
struct UnionFind {
    parent: BTreeMap<String, String>,
}

impl UnionFind {
    fn find(&mut self, key: &str) -> String {
        let parent = match self.parent.get(key) {
            None => return key.to_string(),
            Some(p) => p.clone(),
        };
        if parent == key {
            return parent;
        }
        let root = self.find(&parent);
        self.parent.insert(key.to_string(), root.clone());
        root
    }

    fn union(&mut self, a: &str, b: &str) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(rb, ra);
        }
    }
}

pub fn classify(g: &RefGraph) -> ShapeReport {
    let mut r = ShapeReport::default();
    let edge_total = g.edge_count();
    if edge_total == 0 {
        r.empty = true;
        r.chain_set = true;
        r.forest = true;
        r.flower_set = true;
        return r;
    }
    let components = g.connected_components();
    let connected = components.len() == 1;

    struct CompStats {
        nodes: usize,
        edges: usize,
        max_degree: usize,
        min_degree: usize,
    }
    let stats: Vec<CompStats> = components
        .iter()
        .map(|c| {
            let mut degree_sum = 0;
            let mut max_degree = 0;
            let mut min_degree = usize::MAX;
            for &v in c {
                let d = g.degree(v);
                degree_sum += d;
                max_degree = max_degree.max(d);
                min_degree = min_degree.min(d);
            }
            CompStats {
                nodes: c.len(),
                edges: degree_sum / 2,
                max_degree,
                min_degree,
            }
        })
        .collect();
    let acyclic = |s: &CompStats| s.edges < s.nodes;
    let all_acyclic = stats.iter().all(acyclic);

    r.single_edge = edge_total == 1 && g.node_count() == 2;
    r.chain = connected && all_acyclic && stats[0].max_degree <= 2;
    r.chain_set = stats
        .iter()
        .all(|s| s.nodes == 1 || (acyclic(s) && s.max_degree <= 2));
    r.tree = connected && all_acyclic;
    r.star = r.tree && g.adj.iter().filter(|a| a.len() >= 3).count() == 1;
    r.forest = all_acyclic;
    r.cycle = connected
        && stats[0].nodes >= 3
        && stats[0].min_degree == 2
        && stats[0].max_degree == 2
        && stats[0].edges == stats[0].nodes;
    r.flower =
        connected && (all_acyclic || (0..g.node_count()).any(|x| is_flower_with_center(g, x)));
    r.flower_set = components
        .iter()
        .zip(&stats)
        .all(|(c, s)| acyclic(s) || is_flower(&g.induced(c)));
    r
}

fn is_flower(g: &RefGraph) -> bool {
    if !g.is_connected() {
        return false;
    }
    if !g.has_cycle() {
        return true;
    }
    (0..g.node_count()).any(|x| is_flower_with_center(g, x))
}

fn is_flower_with_center(g: &RefGraph, x: usize) -> bool {
    let residual = g.without_node(x);
    // Indices in `residual` map back to original indices (all nodes except x,
    // in order).
    let original: Vec<usize> = (0..g.node_count()).filter(|&u| u != x).collect();
    for comp in residual.connected_components() {
        // The attachment = component ∪ {x}, induced in the original graph.
        let mut nodes: Vec<usize> = comp.iter().map(|&i| original[i]).collect();
        nodes.push(x);
        let attachment = g.induced(&nodes);
        let centre_in_attachment = nodes.len() - 1; // x was pushed last
        if attachment.has_cycle() && !is_petal(&attachment, centre_in_attachment) {
            return false;
        }
    }
    true
}

fn is_petal(g: &RefGraph, source: usize) -> bool {
    if !g.is_connected() || g.node_count() < 3 {
        return false;
    }
    if g.adj.iter().any(|a| a.len() < 2) {
        return false;
    }
    let high: Vec<usize> = (0..g.node_count())
        .filter(|&v| g.adj[v].len() >= 3)
        .collect();
    match high.len() {
        0 => true, // a plain cycle
        1 => high[0] == source,
        2 => high.contains(&source),
        _ => false,
    }
}

pub fn treewidth(g: &RefGraph) -> Treewidth {
    if g.edge_count() == 0 {
        return Treewidth::Exact(0);
    }
    if !g.has_cycle() {
        return Treewidth::Exact(1);
    }
    if has_treewidth_at_most_2(g) {
        return Treewidth::Exact(2);
    }
    if g.node_count() > 63 {
        return Treewidth::UpperBound(min_fill_upper_bound(g));
    }
    let mut adj = vec![0u64; g.node_count()];
    for (v, mask) in adj.iter_mut().enumerate() {
        for &w in &g.adj[v] {
            *mask |= 1 << w;
        }
    }
    let upper = min_fill_upper_bound(g);
    for k in 3..=upper {
        let mut memo = HashMap::new();
        let all = (0..g.node_count()).fold(0u64, |m, v| m | (1 << v));
        if tw_at_most(&adj, all, k, &mut memo) {
            return Treewidth::Exact(k);
        }
    }
    Treewidth::Exact(upper)
}

pub fn has_treewidth_at_most_2(g: &RefGraph) -> bool {
    let n = g.node_count();
    let mut adj: Vec<BTreeSet<usize>> = g.adj.clone();
    let mut alive: Vec<bool> = vec![true; n];
    let mut remaining = n;
    loop {
        let mut changed = false;
        for v in 0..n {
            if !alive[v] {
                continue;
            }
            let deg = adj[v].len();
            if deg <= 1 {
                let neighbours: Vec<usize> = adj[v].iter().copied().collect();
                for u in neighbours {
                    adj[u].remove(&v);
                }
                adj[v].clear();
                alive[v] = false;
                remaining -= 1;
                changed = true;
            } else if deg == 2 {
                let mut it = adj[v].iter().copied();
                let a = it.next().expect("degree 2");
                let b = it.next().expect("degree 2");
                adj[a].remove(&v);
                adj[b].remove(&v);
                if a != b {
                    adj[a].insert(b);
                    adj[b].insert(a);
                }
                adj[v].clear();
                alive[v] = false;
                remaining -= 1;
                changed = true;
            }
        }
        if remaining == 0 {
            return true;
        }
        if !changed {
            return false;
        }
    }
}

pub fn min_fill_upper_bound(g: &RefGraph) -> usize {
    let n = g.node_count();
    let mut adj: Vec<BTreeSet<usize>> = g.adj.clone();
    let mut alive: BTreeSet<usize> = (0..n).collect();
    let mut width = 0;
    while !alive.is_empty() {
        let mut best_v = usize::MAX;
        let mut best_fill = usize::MAX;
        for &v in &alive {
            let nbrs: Vec<usize> = adj[v].iter().copied().collect();
            let mut fill = 0usize;
            for i in 0..nbrs.len() {
                for j in i + 1..nbrs.len() {
                    if !adj[nbrs[i]].contains(&nbrs[j]) {
                        fill += 1;
                    }
                }
            }
            if fill < best_fill {
                best_fill = fill;
                best_v = v;
            }
        }
        let v = best_v;
        let nbrs: Vec<usize> = adj[v].iter().copied().collect();
        width = width.max(nbrs.len());
        for i in 0..nbrs.len() {
            for j in i + 1..nbrs.len() {
                adj[nbrs[i]].insert(nbrs[j]);
                adj[nbrs[j]].insert(nbrs[i]);
            }
        }
        for &u in &nbrs {
            adj[u].remove(&v);
        }
        adj[v].clear();
        alive.remove(&v);
    }
    width.max(if g.edge_count() > 0 { 1 } else { 0 })
}

mod properties {
    use super::*;
    use crate::graph::{bits, CanonicalGraph};
    use proptest::prelude::*;
    use sparqlog_parser::intern::Interner;

    /// Node `i` of a generated graph as a term. The kind is a function of
    /// the node, so every occurrence of `i` is the same term: half the
    /// kinds are variables, the rest a blank node, an IRI and two literals
    /// sharing a lexical form.
    fn term(kind: u8, name: &str) -> Term<'_> {
        match kind % 8 {
            0..=3 => Term::Var(name),
            4 => Term::BlankNode(name),
            5 => Term::Iri(name),
            6 => Term::Literal {
                lexical: name,
                datatype: None,
                lang: None,
            },
            _ => Term::Literal {
                lexical: name,
                datatype: None,
                lang: Some("en"),
            },
        }
    }

    /// One generated multigraph as the builder's input: a triple per edge
    /// (self-loops and repeats included) and `?x = ?y` pairs between the
    /// variables of the given nodes. The case owns the node names (`v{i}`)
    /// its triples borrow.
    struct Case {
        names: Vec<String>,
        kinds: Vec<u8>,
        edges: Vec<(usize, usize)>,
        equalities: Vec<(usize, usize)>,
    }

    impl Case {
        fn new(kinds: &[u8], edges: &[(usize, usize)], equalities: &[(usize, usize)]) -> Case {
            let nodes = edges.iter().chain(equalities).map(|&(a, b)| a.max(b) + 1);
            Case {
                names: (0..nodes.max().unwrap_or(0))
                    .map(|i| format!("v{i}"))
                    .collect(),
                kinds: kinds.to_vec(),
                edges: edges.to_vec(),
                equalities: equalities.to_vec(),
            }
        }

        fn triples(&self) -> Vec<TriplePattern<'_>> {
            let node = |i: usize| term(self.kinds[i % self.kinds.len()], &self.names[i]);
            self.edges
                .iter()
                .map(|&(a, b)| TriplePattern {
                    subject: node(a),
                    predicate: Term::Iri("p"),
                    object: node(b),
                })
                .collect()
        }

        /// Holds the bit-matrix code to the reference in both modes and
        /// returns the with-constants graph's treewidth.
        fn check(&self) -> usize {
            let triples = self.triples();
            let equalities: Vec<(&str, &str)> = self
                .equalities
                .iter()
                .map(|&(a, b)| (self.names[a].as_str(), self.names[b].as_str()))
                .collect();
            let (with, without) = CanonicalGraph::from_triples_both_interned(
                &triples,
                equalities.iter().copied(),
                &mut Interner::new(),
            )
            .expect("constant predicates");
            let mut width = 0;
            for (mode, both) in [
                (GraphMode::WithConstants, with),
                (GraphMode::VariablesOnly, without),
            ] {
                let new = CanonicalGraph::from_triples(&triples, &equalities, mode)
                    .expect("constant predicates");
                let old = RefGraph::from_triples(&triples, &equalities, mode)
                    .expect("constant predicates");
                assert_eq!(new, both, "{mode:?}: one scan vs. one mode");
                assert_eq!(new.node_count(), old.node_count(), "{mode:?}");
                for v in 0..old.node_count() {
                    let row: BTreeSet<usize> = bits::iter(new.row(v)).collect();
                    assert_eq!(row, old.adj[v], "{mode:?}: neighbours of {v}");
                    assert_eq!(new.degree(v), old.degree(v));
                }
                assert_eq!(new.edge_count(), old.edge_count(), "{mode:?}");
                assert_eq!(
                    (new.self_loops, new.parallel_edges, new.skipped_triples),
                    (old.self_loops, old.parallel_edges, old.skipped_triples),
                    "{mode:?}"
                );
                assert_eq!(new.connected_components(), old.connected_components());
                assert_eq!(new.is_connected(), old.is_connected(), "{mode:?}");
                assert_eq!(new.has_cycle(), old.has_cycle(), "{mode:?}");
                assert_eq!(new.girth(), old.girth(), "{mode:?}");
                assert_eq!(ShapeReport::classify(&new), classify(&old), "{mode:?}");
                assert_eq!(
                    crate::treewidth::has_treewidth_at_most_2(&new),
                    has_treewidth_at_most_2(&old),
                    "{mode:?}"
                );
                assert_eq!(
                    crate::treewidth::min_fill_upper_bound(&new),
                    min_fill_upper_bound(&old),
                    "{mode:?}"
                );
                let tw = crate::treewidth::treewidth(&new);
                assert_eq!(tw, treewidth(&old), "{mode:?}");
                if mode == GraphMode::WithConstants {
                    width = tw.value();
                }
            }
            width
        }
    }

    /// A random forest on exactly `n` nodes from one draw per node: node `i`
    /// hangs off an earlier node or, one time in eight, starts a new
    /// component with a self-loop.
    fn forest(n: usize, draws: &[u64]) -> Vec<(usize, usize)> {
        (0..n)
            .map(|i| match draws[i] >> 61 {
                0 => (i, i),
                _ => (i, (draws[i] % i.max(1) as u64) as usize),
            })
            .collect()
    }

    type Pairs = Vec<(usize, usize)>;

    proptest! {
        // 64 cases per property; CI raises it through `PROPTEST_CASES`.
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Small and dense: up to seven nodes, self-loops, parallel edges,
        /// constants and equality chains; every batch must reach treewidth
        /// three through the exact search.
        #[test]
        fn dense_multigraphs_match_the_reference(
            batch in prop::collection::vec(
                (
                    prop::collection::vec(0u8..8, 7..8),
                    prop::collection::vec((0usize..7, 0usize..7), 0..28),
                    prop::collection::vec((0usize..7, 0usize..7), 0..3),
                ),
                32..33,
            )
        ) {
            let widest = batch
                .iter()
                .map(|(kinds, edges, equalities)| Case::new(kinds, edges, equalities).check())
                .max();
            prop_assert!(widest >= Some(3), "no graph of treewidth ≥ 3 in the batch");
        }

        /// Sparse with several components: the shapes of Table 4 and their
        /// sets, cyclic or not.
        #[test]
        fn sparse_multigraphs_match_the_reference(
            kinds in prop::collection::vec(0u8..8, 14..15),
            edges in prop::collection::vec((0usize..14, 0usize..14), 0..16),
            equalities in prop::collection::vec((0usize..14, 0usize..14), 0..3),
        ) {
            Case::new(&kinds, &edges, &equalities).check();
        }

        /// Around the one-word-per-row boundary: a random forest on 63, 64,
        /// 65, 128 or 129 nodes plus chords, all variables (the same size in
        /// both modes) or mixed with constants (the variables-only graph
        /// shrinks to a different word count).
        ///
        /// The exact treewidth search is exponential, so a graph that can
        /// come out with at most 63 nodes in either mode gets two chords at
        /// most, which keeps its treewidth at two. All-variable graphs
        /// beyond 63 nodes, where the min-fill bound answers, get dozens,
        /// and from 128 nodes on equality pairs as well (each merges at most
        /// one node away).
        #[test]
        fn graphs_around_the_word_boundary_match_the_reference(
            size in 0usize..5,
            kinds in prop::collection::vec(0u8..8, 16..17),
            draws in prop::collection::vec(0u64..u64::MAX, 129..130),
            chords in prop::collection::vec((0usize..129, 0usize..129), 0..40),
            equalities in prop::collection::vec((0usize..129, 0usize..129), 0..3),
        ) {
            let n = [63, 64, 65, 128, 129][size];
            let all_variables = draws[0] % 2 == 0;
            let kinds = if all_variables { vec![0] } else { kinds };
            let wide = all_variables && n > 63;
            let mut edges = forest(n, &draws);
            edges.extend(
                chords
                    .iter()
                    .take(if wide { chords.len() } else { 2 })
                    .map(|&(a, b)| (a % n, b % n)),
            );
            let equalities = if wide && n >= 128 { equalities } else { Vec::new() };
            Case::new(&kinds, &edges, &equalities).check();
        }
    }

    fn variables(edges: &[(usize, usize)]) -> Case {
        Case::new(&[0], edges, &[])
    }

    #[test]
    fn a_209_triple_star_matches_the_reference() {
        let edges: Pairs = (1..=209).map(|leaf| (0, leaf)).collect();
        let case = variables(&edges);
        assert_eq!(case.check(), 1);
        let g =
            CanonicalGraph::from_triples(&case.triples(), &[], GraphMode::WithConstants).unwrap();
        assert_eq!((g.node_count(), g.degree(0)), (210, 209));
        let shape = ShapeReport::classify(&g);
        assert!(shape.star && shape.tree && !shape.chain);
    }

    #[test]
    fn a_100_node_cycle_matches_the_reference() {
        let edges: Pairs = (0..100).map(|i| (i, (i + 1) % 100)).collect();
        let case = variables(&edges);
        assert_eq!(case.check(), 2);
        let g =
            CanonicalGraph::from_triples(&case.triples(), &[], GraphMode::WithConstants).unwrap();
        assert!(ShapeReport::classify(&g).cycle);
        assert_eq!(crate::treewidth::treewidth(&g), Treewidth::Exact(2));
        assert_eq!(g.girth(), Some(100));
    }

    #[test]
    fn a_70_node_ladder_matches_the_reference() {
        // Two rails of 35 nodes and 35 rungs: treewidth 2, girth 4, and
        // 34 squares sharing edges — no flower.
        let mut edges = Pairs::new();
        for i in 0..35 {
            edges.push((i, 35 + i));
            if i + 1 < 35 {
                edges.push((i, i + 1));
                edges.push((35 + i, 35 + i + 1));
            }
        }
        let case = variables(&edges);
        assert_eq!(case.check(), 2);
        let g =
            CanonicalGraph::from_triples(&case.triples(), &[], GraphMode::WithConstants).unwrap();
        assert_eq!((g.node_count(), g.edge_count()), (70, 103));
        assert_eq!(g.girth(), Some(4));
        let shape = ShapeReport::classify(&g);
        assert!(!shape.flower && !shape.flower_set && !shape.forest);
    }
}
