//! Generalized hypertree width of query hypergraphs (Section 6.2).
//!
//! The paper used the `detkdecomp` tool to determine the (generalized)
//! hypertree width of the CQOF queries that use variables in predicate
//! position, finding widths 1, 2 and — for eight queries — 3. We implement a
//! det-k-decomp style search: acyclicity (width 1) is decided by the GYO
//! reduction, and for k ≥ 2 a memoised recursive separator search tries to
//! cover each sub-component with at most `k` hyperedges.
//!
//! Query hypergraphs are small (tens of edges at most), so the exhaustive
//! separator enumeration is well within budget; a configurable edge-count
//! limit guards against pathological inputs.

use crate::hypergraph::Hypergraph;
use std::collections::{BTreeSet, HashMap};

/// The outcome of a hypertree-width computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HypertreeWidth {
    /// The (generalized) hypertree width.
    pub width: usize,
    /// The number of nodes in the decomposition found. For width-1
    /// (acyclic) hypergraphs this is the number of join-tree nodes, i.e. the
    /// number of distinct non-subsumed hyperedges, matching the convention
    /// used in the paper.
    pub nodes: usize,
    /// True if the width is exact; false if the search was cut off by the
    /// edge-count limit and `width` is only an upper bound from a greedy
    /// cover.
    pub exact: bool,
}

/// Maximum number of (reduced) hyperedges for which the exhaustive
/// det-k-decomp search runs. Larger hypergraphs receive a greedy upper bound.
pub const DEFAULT_EDGE_LIMIT: usize = 40;

/// Computes the generalized hypertree width of a hypergraph, searching widths
/// up to `max_k`.
///
/// Returns `None` if the hypergraph needs width larger than `max_k` (within
/// the exact search) — callers typically pass `max_k = 4` or so, since query
/// logs do not contain wider queries.
pub fn generalized_hypertree_width(h: &Hypergraph, max_k: usize) -> Option<HypertreeWidth> {
    generalized_hypertree_width_with_limit(h, max_k, DEFAULT_EDGE_LIMIT)
}

/// Like [`generalized_hypertree_width`] with an explicit edge-count limit for
/// the exact search.
pub fn generalized_hypertree_width_with_limit(
    h: &Hypergraph,
    max_k: usize,
    edge_limit: usize,
) -> Option<HypertreeWidth> {
    let edges = h.reduced_edges();
    if edges.is_empty() {
        return Some(HypertreeWidth {
            width: 0,
            nodes: 0,
            exact: true,
        });
    }
    if h.is_acyclic() {
        return Some(HypertreeWidth {
            width: 1,
            nodes: edges.len(),
            exact: true,
        });
    }
    if edges.len() > edge_limit {
        // Greedy upper bound: cover all vertices component by component with
        // a set-cover heuristic; the width is the number of edges needed for
        // the largest bag produced.
        let width = greedy_cover_bound(&edges);
        return Some(HypertreeWidth {
            width,
            nodes: 1,
            exact: false,
        });
    }
    let all_vertices: BTreeSet<usize> = edges.iter().flatten().copied().collect();
    for k in 2..=max_k {
        let mut solver = Solver {
            edges: &edges,
            k,
            memo: HashMap::new(),
        };
        if let Some(nodes) = solver.decompose(&all_vertices, &BTreeSet::new()) {
            return Some(HypertreeWidth {
                width: k,
                nodes,
                exact: true,
            });
        }
    }
    None
}

fn greedy_cover_bound(edges: &[BTreeSet<usize>]) -> usize {
    let mut uncovered: BTreeSet<usize> = edges.iter().flatten().copied().collect();
    let mut used = 0usize;
    while !uncovered.is_empty() {
        let best = edges
            .iter()
            .max_by_key(|e| e.intersection(&uncovered).count())
            .expect("non-empty edge list");
        let before = uncovered.len();
        for v in best {
            uncovered.remove(v);
        }
        used += 1;
        if uncovered.len() == before {
            break;
        }
    }
    used.max(2)
}

struct Solver<'a> {
    edges: &'a [BTreeSet<usize>],
    k: usize,
    memo: HashMap<(Vec<usize>, Vec<usize>), Option<usize>>,
}

impl Solver<'_> {
    /// Tries to decompose the sub-hypergraph induced by `component`, whose
    /// interface to the rest of the decomposition is `connector`. Returns the
    /// number of decomposition nodes used, or `None` if impossible with the
    /// solver's width `k`.
    fn decompose(
        &mut self,
        component: &BTreeSet<usize>,
        connector: &BTreeSet<usize>,
    ) -> Option<usize> {
        let key = (
            component.iter().copied().collect::<Vec<_>>(),
            connector.iter().copied().collect::<Vec<_>>(),
        );
        if let Some(cached) = self.memo.get(&key) {
            return *cached;
        }
        let result = self.decompose_inner(component, connector);
        self.memo.insert(key, result);
        result
    }

    fn decompose_inner(
        &mut self,
        component: &BTreeSet<usize>,
        connector: &BTreeSet<usize>,
    ) -> Option<usize> {
        let target: BTreeSet<usize> = component.union(connector).copied().collect();
        // Base case: a single bag of ≤ k edges covers everything.
        if let Some(()) = self.coverable(&target) {
            return Some(1);
        }
        // Otherwise try separators λ of at most k edges.
        let relevant: Vec<usize> = (0..self.edges.len())
            .filter(|&i| !self.edges[i].is_disjoint(&target))
            .collect();
        let mut best: Option<usize> = None;
        for lambda in subsets_up_to(&relevant, self.k) {
            if lambda.is_empty() {
                continue;
            }
            let bag: BTreeSet<usize> = lambda
                .iter()
                .flat_map(|&i| self.edges[i].iter().copied())
                .collect();
            // The bag must cover the connector and make progress on the
            // component.
            if !connector.iter().all(|v| bag.contains(v)) {
                continue;
            }
            if component.iter().all(|v| !bag.contains(v)) {
                continue;
            }
            // Split the remaining component vertices into connected parts.
            let rest: BTreeSet<usize> = component.difference(&bag).copied().collect();
            let parts = self.split_components(&rest);
            if parts.iter().any(|p| p.len() >= component.len()) {
                continue; // no progress
            }
            let mut nodes = 1usize;
            let mut ok = true;
            for part in &parts {
                // The child's connector: bag vertices adjacent to the part.
                let child_connector: BTreeSet<usize> = bag
                    .iter()
                    .copied()
                    .filter(|&v| {
                        self.edges
                            .iter()
                            .any(|e| e.contains(&v) && !e.is_disjoint(part))
                    })
                    .collect();
                match self.decompose(part, &child_connector) {
                    Some(n) => nodes += n,
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                best = Some(best.map_or(nodes, |b: usize| b.min(nodes)));
                // A single feasible decomposition is enough for the width
                // decision; keep searching only to minimise node count a bit,
                // but cap the effort by stopping at the first solution.
                break;
            }
        }
        best
    }

    /// Returns `Some(())` if `target` can be covered by at most `k` edges.
    fn coverable(&self, target: &BTreeSet<usize>) -> Option<()> {
        let relevant: Vec<usize> = (0..self.edges.len())
            .filter(|&i| !self.edges[i].is_disjoint(target))
            .collect();
        for lambda in subsets_up_to(&relevant, self.k) {
            if lambda.is_empty() {
                continue;
            }
            let bag: BTreeSet<usize> = lambda
                .iter()
                .flat_map(|&i| self.edges[i].iter().copied())
                .collect();
            if target.iter().all(|v| bag.contains(v)) {
                return Some(());
            }
        }
        None
    }

    /// Splits a vertex set into connected components (w.r.t. the hyperedges).
    fn split_components(&self, vertices: &BTreeSet<usize>) -> Vec<BTreeSet<usize>> {
        let mut remaining: BTreeSet<usize> = vertices.clone();
        let mut out = Vec::new();
        while let Some(&start) = remaining.iter().next() {
            let mut comp = BTreeSet::new();
            let mut stack = vec![start];
            remaining.remove(&start);
            comp.insert(start);
            while let Some(v) = stack.pop() {
                for e in self.edges {
                    if e.contains(&v) {
                        for &w in e {
                            if remaining.contains(&w) {
                                remaining.remove(&w);
                                comp.insert(w);
                                stack.push(w);
                            }
                        }
                    }
                }
            }
            out.push(comp);
        }
        out
    }
}

/// Enumerates all subsets of `items` of size 1..=k (as vectors of items).
fn subsets_up_to(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let n = items.len();
    fn rec(
        items: &[usize],
        start: usize,
        k: usize,
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if !cur.is_empty() {
            out.push(cur.clone());
        }
        if cur.len() == k {
            return;
        }
        for i in start..items.len() {
            cur.push(items[i]);
            rec(items, i + 1, k, cur, out);
            cur.pop();
        }
    }
    let mut cur = Vec::with_capacity(k.min(n));
    rec(items, 0, k, &mut cur, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple;
    use sparqlog_parser::ast_ref::TriplePattern;

    fn hg(triples: &[TriplePattern<'_>]) -> Hypergraph {
        Hypergraph::from_triples(triples, &[])
    }

    #[test]
    fn acyclic_chain_has_width_one_with_edge_count_nodes() {
        let h = hg(&[
            triple("?a", "p", "?b"),
            triple("?b", "p", "?c"),
            triple("?c", "p", "?d"),
        ]);
        let w = generalized_hypertree_width(&h, 4).unwrap();
        assert_eq!(w.width, 1);
        assert_eq!(w.nodes, 3);
        assert!(w.exact);
    }

    #[test]
    fn triangle_of_binary_edges_has_width_two() {
        let h = hg(&[
            triple("?a", "p", "?b"),
            triple("?b", "p", "?c"),
            triple("?c", "p", "?a"),
        ]);
        let w = generalized_hypertree_width(&h, 4).unwrap();
        assert_eq!(w.width, 2);
        assert!(w.exact);
    }

    #[test]
    fn example_5_1_query_has_width_two() {
        let h = hg(&[
            triple("?x1", "?x2", "?x3"),
            triple("?x3", "a", "?x4"),
            triple("?x4", "?x2", "?x5"),
        ]);
        assert!(!h.is_acyclic());
        let w = generalized_hypertree_width(&h, 4).unwrap();
        assert_eq!(w.width, 2);
    }

    #[test]
    fn long_cycle_has_width_two() {
        let names: Vec<String> = (0..6).map(|i| format!("?v{i}")).collect();
        let triples: Vec<_> = (0..6)
            .map(|i| triple(&names[i], "p", &names[(i + 1) % 6]))
            .collect();
        let h = hg(&triples);
        let w = generalized_hypertree_width(&h, 4).unwrap();
        assert_eq!(w.width, 2);
        assert!(w.nodes >= 2);
    }

    #[test]
    fn grid_3x3_of_binary_edges_needs_width_at_least_two() {
        let mut triples = Vec::new();
        let names: Vec<String> = (0..9).map(|i| format!("?n{}{}", i / 3, i % 3)).collect();
        let name = |r: usize, c: usize| names[3 * r + c].as_str();
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    triples.push(triple(name(r, c), "p", name(r, c + 1)));
                }
                if r + 1 < 3 {
                    triples.push(triple(name(r, c), "p", name(r + 1, c)));
                }
            }
        }
        let h = hg(&triples);
        let w = generalized_hypertree_width(&h, 4).unwrap();
        assert!(w.width >= 2, "3x3 grid must not be acyclic");
        assert!(w.width <= 3);
    }

    #[test]
    fn empty_hypergraph_has_width_zero() {
        let h = hg(&[triple("a", "p", "b")]); // all constants, no edge
        let w = generalized_hypertree_width(&h, 4).unwrap();
        assert_eq!(w.width, 0);
        assert_eq!(w.nodes, 0);
    }

    #[test]
    fn single_triple_has_width_one_single_node() {
        let h = hg(&[triple("?s", "?p", "?o")]);
        let w = generalized_hypertree_width(&h, 4).unwrap();
        assert_eq!(w.width, 1);
        assert_eq!(w.nodes, 1);
    }

    #[test]
    fn edge_limit_falls_back_to_greedy_bound() {
        let h = hg(&[
            triple("?a", "p", "?b"),
            triple("?b", "p", "?c"),
            triple("?c", "p", "?a"),
        ]);
        let w = generalized_hypertree_width_with_limit(&h, 4, 2).unwrap();
        assert!(!w.exact);
        assert!(w.width >= 2);
    }

    #[test]
    fn ternary_hyperedges_make_cycles_cheap() {
        // Two ternary edges sharing two vertices plus a closing binary edge:
        // coverable by the two ternary edges → width 2.
        let h = hg(&[
            triple("?a", "?p", "?b"),
            triple("?b", "?q", "?c"),
            triple("?c", "r", "?a"),
        ]);
        let w = generalized_hypertree_width(&h, 4).unwrap();
        assert_eq!(w.width, 2);
    }
}
