//! Exact treewidth computation for query graphs (Section 6.2).
//!
//! Query graphs in SPARQL logs are tiny (almost all have fewer than a dozen
//! nodes), so exact computation is feasible:
//!
//! * treewidth 0 — no edges;
//! * treewidth 1 — forests;
//! * treewidth ≤ 2 — recognised by the classic reduction: repeatedly remove
//!   degree-≤1 vertices and *bypass* degree-2 vertices (connecting their two
//!   neighbours); the graph has treewidth ≤ 2 iff this empties it;
//! * otherwise, an exact elimination-ordering search with memoisation decides
//!   `tw ≤ k` for increasing `k` (graphs up to 63 nodes). For larger graphs a
//!   greedy min-fill upper bound is returned — such graphs do not occur in
//!   the corpora studied here.

use crate::graph::{bits, CanonicalGraph};
use std::collections::HashMap;

/// The result of a treewidth computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Treewidth {
    /// The exact treewidth.
    Exact(usize),
    /// An upper bound (returned only for graphs larger than the exact-search
    /// threshold).
    UpperBound(usize),
}

impl Treewidth {
    /// The numeric value (exact or upper bound).
    pub fn value(&self) -> usize {
        match self {
            Treewidth::Exact(k) | Treewidth::UpperBound(k) => *k,
        }
    }

    /// True if the value is exact.
    pub fn is_exact(&self) -> bool {
        matches!(self, Treewidth::Exact(_))
    }
}

/// Maximum node count for which the exact elimination search is attempted:
/// its vertex sets are single `u64` masks.
const EXACT_LIMIT: usize = 63;

/// Computes the treewidth of a canonical graph.
pub fn treewidth(g: &CanonicalGraph) -> Treewidth {
    if g.edge_count() == 0 {
        Treewidth::Exact(0)
    } else if !g.has_cycle() {
        Treewidth::Exact(1)
    } else {
        treewidth_of_cyclic(g)
    }
}

/// [`treewidth`] of a graph already known to contain a cycle (treewidth ≥ 2).
pub(crate) fn treewidth_of_cyclic(g: &CanonicalGraph) -> Treewidth {
    if has_treewidth_at_most_2(g) {
        return Treewidth::Exact(2);
    }
    if g.node_count() > EXACT_LIMIT {
        return Treewidth::UpperBound(min_fill_upper_bound(g));
    }
    // Up to 63 nodes a row is one word, so the matrix is the search's
    // per-vertex neighbourhood masks as it stands.
    let adj = g.rows();
    let upper = min_fill_upper_bound(g);
    for k in 3..=upper {
        let mut memo = HashMap::new();
        let all = (0..g.node_count()).fold(0u64, |m, v| m | (1 << v));
        if tw_at_most(adj, all, k, &mut memo) {
            return Treewidth::Exact(k);
        }
    }
    Treewidth::Exact(upper)
}

/// Decides whether the graph has treewidth at most two, using the
/// series-parallel style reduction on a working copy of the matrix.
pub fn has_treewidth_at_most_2(g: &CanonicalGraph) -> bool {
    /// Degree of a vertex that has been removed.
    const GONE: usize = usize::MAX;
    let n = g.node_count();
    let words = g.words();
    let row = |v: usize| v * words..(v + 1) * words;
    let mut adj = g.rows().to_vec();
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut remaining = n;
    loop {
        let mut changed = false;
        for v in 0..n {
            if degree[v] > 2 {
                // More than two neighbours, or already removed.
                continue;
            }
            let (a, b) = {
                let mut neighbours = bits::iter(&adj[row(v)]);
                (neighbours.next(), neighbours.next())
            };
            for u in [a, b].into_iter().flatten() {
                bits::remove(&mut adj[row(u)], v);
            }
            if let (Some(a), Some(b)) = (a, b) {
                // Bypass: connect the two neighbours, each of which loses
                // `v` and, unless they were adjacent already, gains the
                // other.
                if bits::contains(&adj[row(a)], b) {
                    degree[a] -= 1;
                    degree[b] -= 1;
                } else {
                    bits::insert(&mut adj[row(a)], b);
                    bits::insert(&mut adj[row(b)], a);
                }
            } else if let Some(a) = a {
                // Leaf.
                degree[a] -= 1;
            }
            adj[row(v)].fill(0);
            degree[v] = GONE;
            remaining -= 1;
            changed = true;
        }
        if remaining == 0 {
            return true;
        }
        if !changed {
            return false;
        }
    }
}

/// Memoised check: can the subgraph induced by `remaining` (with the original
/// adjacency, vertices outside `remaining` already eliminated and their
/// neighbourhoods made cliques, folded into `adj`) be eliminated with bags of
/// size ≤ k+1? We pass the *current* adjacency implicitly by recomputing the
/// fill-in: when a vertex is eliminated, its neighbours within `remaining`
/// become a clique. To keep the recursion simple we recompute neighbourhoods
/// on the fly from a mutable adjacency copy.
pub(crate) fn tw_at_most(
    adj: &[u64],
    remaining: u64,
    k: usize,
    memo: &mut HashMap<u64, bool>,
) -> bool {
    if remaining.count_ones() as usize <= k + 1 {
        return true;
    }
    if let Some(&r) = memo.get(&remaining) {
        return r;
    }
    let n = adj.len();
    let mut result = false;
    for v in 0..n {
        if remaining & (1 << v) == 0 {
            continue;
        }
        // Neighbourhood of v in the *eliminated* graph: vertices reachable
        // from v through already-eliminated vertices form a clique with v.
        let neigh = eliminated_neighbourhood(adj, remaining, v);
        if (neigh.count_ones() as usize) <= k && tw_at_most(adj, remaining & !(1 << v), k, memo) {
            result = true;
            break;
        }
    }
    memo.insert(remaining, result);
    result
}

/// The neighbourhood of `v` in the graph where all vertices outside
/// `remaining` have been eliminated: u is a neighbour iff there is a path
/// from v to u whose internal vertices are all eliminated.
fn eliminated_neighbourhood(adj: &[u64], remaining: u64, v: usize) -> u64 {
    let eliminated = !remaining;
    let mut seen = 1u64 << v;
    let mut frontier = 1u64 << v;
    let mut neighbours = 0u64;
    while frontier != 0 {
        let mut next = 0u64;
        let mut f = frontier;
        while f != 0 {
            let u = f.trailing_zeros() as usize;
            f &= f - 1;
            let mut nbrs = adj[u] & !seen;
            while nbrs != 0 {
                let w = nbrs.trailing_zeros() as usize;
                nbrs &= nbrs - 1;
                seen |= 1 << w;
                if remaining & (1 << w) != 0 {
                    neighbours |= 1 << w;
                } else if eliminated & (1 << w) != 0 {
                    next |= 1 << w;
                }
            }
        }
        frontier = next;
    }
    neighbours & !(1 << v)
}

/// A greedy min-fill elimination producing an upper bound on the treewidth.
pub fn min_fill_upper_bound(g: &CanonicalGraph) -> usize {
    let n = g.node_count();
    let words = g.words();
    let row = |v: usize| v * words..(v + 1) * words;
    let mut adj = g.rows().to_vec();
    let mut alive: Vec<bool> = vec![true; n];
    let mut neighbours = vec![0u64; words];
    let mut width = 0;
    for _ in 0..n {
        // Pick the (first) vertex whose elimination adds the fewest fill
        // edges: the pairs of its neighbours that are not adjacent yet.
        let mut best_v = usize::MAX;
        let mut best_fill = usize::MAX;
        for v in (0..n).filter(|&v| alive[v]) {
            let of_v = &adj[row(v)];
            let missing: usize = bits::iter(of_v)
                // Neighbours of `v` other than `u` that `u` misses.
                .map(|u| bits::count(of_v) - 1 - bits::count_and(of_v, &adj[row(u)]))
                .sum();
            if missing / 2 < best_fill {
                best_fill = missing / 2;
                best_v = v;
            }
        }
        let v = best_v;
        neighbours.copy_from_slice(&adj[row(v)]);
        width = width.max(bits::count(&neighbours));
        // The neighbours become a clique and lose `v`.
        for u in bits::iter(&neighbours) {
            let of_u = &mut adj[row(u)];
            for (word, &add) in of_u.iter_mut().zip(&neighbours) {
                *word |= add;
            }
            bits::remove(of_u, u);
            bits::remove(of_u, v);
        }
        adj[row(v)].fill(0);
        alive[v] = false;
    }
    width.max(if g.edge_count() > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_of as graph;

    #[test]
    fn forest_has_treewidth_one() {
        let g = graph(&[("a", "b"), ("b", "c"), ("d", "e")]);
        assert_eq!(treewidth(&g), Treewidth::Exact(1));
    }

    #[test]
    fn empty_graph_has_treewidth_zero() {
        assert_eq!(treewidth(&CanonicalGraph::default()), Treewidth::Exact(0));
    }

    #[test]
    fn cycle_has_treewidth_two() {
        let g = graph(&[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]);
        assert_eq!(treewidth(&g), Treewidth::Exact(2));
    }

    #[test]
    fn flower_has_treewidth_two() {
        let g = graph(&[
            ("x", "a"),
            ("a", "t"),
            ("x", "b"),
            ("b", "t"),
            ("x", "s1"),
            ("s1", "s2"),
        ]);
        assert_eq!(treewidth(&g), Treewidth::Exact(2));
    }

    #[test]
    fn k4_has_treewidth_three() {
        let g = graph(&[
            ("a", "b"),
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "d"),
            ("c", "d"),
        ]);
        assert_eq!(treewidth(&g), Treewidth::Exact(3));
    }

    #[test]
    fn k23_plus_subject_edge_has_treewidth_two() {
        // A K_{2,3}-like query graph (two subjects sharing three value
        // variables) plus a direct edge between the subjects still reduces to
        // treewidth 2 via the degree-2 bypass rule.
        let g = graph(&[
            ("s", "nat"),
            ("s", "bp"),
            ("s", "gen"),
            ("o", "nat"),
            ("o", "bp"),
            ("o", "gen"),
            ("s", "o"),
        ]);
        let tw = treewidth(&g);
        assert!(tw.is_exact());
        assert_eq!(tw.value(), 2);
    }

    #[test]
    fn k23_has_treewidth_two() {
        let g = graph(&[
            ("s", "nat"),
            ("s", "bp"),
            ("s", "gen"),
            ("o", "nat"),
            ("o", "bp"),
            ("o", "gen"),
        ]);
        assert_eq!(treewidth(&g), Treewidth::Exact(2));
    }

    #[test]
    fn k5_has_treewidth_four() {
        let names = ["a", "b", "c", "d", "e"];
        let mut edges = Vec::new();
        for i in 0..5 {
            for j in i + 1..5 {
                edges.push((names[i], names[j]));
            }
        }
        let g = graph(&edges);
        assert_eq!(treewidth(&g), Treewidth::Exact(4));
    }

    #[test]
    fn grid_3x3_has_treewidth_three() {
        // 3×3 grid graph, a classic treewidth-3 example.
        let mut edges = Vec::new();
        let name = |r: usize, c: usize| format!("n{r}{c}");
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    edges.push((name(r, c), name(r, c + 1)));
                }
                if r + 1 < 3 {
                    edges.push((name(r, c), name(r + 1, c)));
                }
            }
        }
        let edge_refs: Vec<(&str, &str)> = edges
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        let g = graph(&edge_refs);
        assert_eq!(treewidth(&g), Treewidth::Exact(3));
    }

    #[test]
    fn min_fill_bound_is_at_least_exact() {
        let g = graph(&[
            ("a", "b"),
            ("b", "c"),
            ("c", "a"),
            ("c", "d"),
            ("d", "e"),
            ("e", "c"),
        ]);
        let exact = treewidth(&g).value();
        assert!(min_fill_upper_bound(&g) >= exact);
        assert_eq!(exact, 2);
    }
}
