//! # sparqlog-paths
//!
//! Property-path analysis for SPARQL query logs (Section 7 of *"An
//! Analytical Study of Large SPARQL Query Logs"*):
//!
//! * [`classify`] — maps each property-path expression to the expression-type
//!   taxonomy of Table 5 / Figure 10 (treating `^a` and `!a` as literals
//!   inside larger expressions, with symmetric forms folded together).
//! * [`ctract`] — a syntactic tractability test for simple-path semantics in
//!   the spirit of the Bagan–Bonifati–Groz trichotomy, which flags `(a/b)*`
//!   as the lone potentially hard expression, as the paper observed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod ctract;

pub use classify::{classify_path, Normalized, PathClassification, PathExpressionType};
pub use ctract::{classify_and_check, tractability, Tractability};

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregated property-path statistics over a corpus (the inputs to Table 5).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathTally {
    /// Total property paths seen (including trivial / pre-table forms).
    pub total: u64,
    /// `!a` expressions.
    pub negated_literal: u64,
    /// `^a` expressions.
    pub inverse_literal: u64,
    /// Navigational expressions (everything else), keyed by expression type,
    /// with the count and the observed range of `k`.
    pub by_type: BTreeMap<PathExpressionType, TypeEntry>,
    /// Navigational expressions using reverse navigation (`^`).
    pub with_inverse: u64,
    /// Expressions outside the syntactic C_tract fragment.
    pub potentially_hard: u64,
}

/// One Table-5 row: `(label, count, share of navigational expressions,
/// observed k range)`.
pub type PathRow = (String, u64, f64, Option<(usize, usize)>);

/// Count and `k` range for one expression type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TypeEntry {
    /// Number of expressions of this type.
    pub count: u64,
    /// Minimum observed `k`, when the type is parameterised.
    pub min_k: Option<usize>,
    /// Maximum observed `k`.
    pub max_k: Option<usize>,
}

impl PathTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one property path.
    pub fn add(&mut self, p: &sparqlog_parser::ast_ref::PropertyPath<'_>) {
        self.total += 1;
        let c = classify_path(p);
        match c.ty {
            PathExpressionType::NegatedLiteral => {
                self.negated_literal += 1;
                return;
            }
            PathExpressionType::InverseLiteral => {
                self.inverse_literal += 1;
                return;
            }
            PathExpressionType::Trivial => return,
            _ => {}
        }
        if c.uses_inverse {
            self.with_inverse += 1;
        }
        if tractability(p) == Tractability::PotentiallyHard {
            self.potentially_hard += 1;
        }
        let entry = self.by_type.entry(c.ty).or_default();
        entry.count += 1;
        if let Some(k) = c.k {
            entry.min_k = Some(entry.min_k.map_or(k, |m| m.min(k)));
            entry.max_k = Some(entry.max_k.map_or(k, |m| m.max(k)));
        }
    }

    /// Merges another tally.
    pub fn merge(&mut self, other: &PathTally) {
        self.total += other.total;
        self.negated_literal += other.negated_literal;
        self.inverse_literal += other.inverse_literal;
        self.with_inverse += other.with_inverse;
        self.potentially_hard += other.potentially_hard;
        for (ty, e) in &other.by_type {
            let entry = self.by_type.entry(*ty).or_default();
            entry.count += e.count;
            entry.min_k = match (entry.min_k, e.min_k) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            entry.max_k = match (entry.max_k, e.max_k) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
    }

    /// Multiplies every additive counter by `times` while leaving the
    /// observed `k` ranges untouched: a tally built from one query's paths
    /// and then scaled equals `times` repeated merges of the same per-query
    /// tally (minima and maxima are idempotent under repetition). Used by
    /// the fused engine's occurrence-weighted fold.
    pub fn scale(&mut self, times: u64) {
        self.total *= times;
        self.negated_literal *= times;
        self.inverse_literal *= times;
        self.with_inverse *= times;
        self.potentially_hard *= times;
        for entry in self.by_type.values_mut() {
            entry.count *= times;
        }
    }

    /// Number of navigational expressions (those entering Table 5).
    pub fn navigational(&self) -> u64 {
        self.by_type.values().map(|e| e.count).sum()
    }

    /// Rows for Table 5: `(label, count, share of navigational, k range)`,
    /// sorted by descending count.
    pub fn rows(&self) -> Vec<PathRow> {
        let nav = self.navigational().max(1) as f64;
        let mut rows: Vec<_> = self
            .by_type
            .iter()
            .map(|(ty, e)| {
                let range = match (e.min_k, e.max_k) {
                    (Some(a), Some(b)) => Some((a, b)),
                    _ => None,
                };
                (ty.label().to_string(), e.count, e.count as f64 / nav, range)
            })
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }
}

/// Runs `f` on the path expression parsed out of `ASK { ?s <expr> ?o }` (a
/// single forward step comes back from the parser as a plain triple).
#[cfg(test)]
pub(crate) fn with_path<R>(
    expr: &str,
    f: impl FnOnce(&sparqlog_parser::ast_ref::PropertyPath<'_>) -> R,
) -> R {
    use sparqlog_parser::ast_ref::{GroupElement, PropertyPath, Term, TripleOrPath};
    let arena = sparqlog_parser::Arena::new();
    let text = format!("ASK {{ ?s {expr} ?o }}");
    let q = sparqlog_parser::parse_query_in(&text, &arena).unwrap();
    let GroupElement::Triples(ts) = &q.where_clause.unwrap().elements[0] else {
        panic!("triples")
    };
    match &ts[0] {
        TripleOrPath::Path(p) => f(&p.path),
        TripleOrPath::Triple(t) => {
            let Term::Iri(i) = t.predicate else { panic!() };
            f(&PropertyPath::Iri(i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(t: &mut PathTally, expr: &str) {
        with_path(expr, |p| t.add(p));
    }

    #[test]
    fn tally_separates_pre_table_and_navigational() {
        let mut t = PathTally::new();
        add(&mut t, "!<a>");
        add(&mut t, "^<a>");
        add(&mut t, "<a>*");
        add(&mut t, "(<a>|<b>)*");
        add(&mut t, "(<a>/<b>)*");
        assert_eq!(t.total, 5);
        assert_eq!(t.negated_literal, 1);
        assert_eq!(t.inverse_literal, 1);
        assert_eq!(t.navigational(), 3);
        assert_eq!(t.potentially_hard, 1);
    }

    #[test]
    fn k_ranges_are_tracked() {
        let mut t = PathTally::new();
        add(&mut t, "<a>/<b>");
        add(&mut t, "<a>/<b>/<c>/<d>/<e>/<f>");
        let entry = t.by_type[&PathExpressionType::SequenceOfLiterals];
        assert_eq!(entry.count, 2);
        assert_eq!(entry.min_k, Some(2));
        assert_eq!(entry.max_k, Some(6));
    }

    #[test]
    fn rows_sorted_by_count() {
        let mut t = PathTally::new();
        for _ in 0..3 {
            add(&mut t, "<a>*");
        }
        add(&mut t, "<a>/<b>");
        let rows = t.rows();
        assert_eq!(rows[0].0, "a*");
        assert_eq!(rows[0].1, 3);
        assert!((rows[0].2 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_ranges() {
        let mut a = PathTally::new();
        add(&mut a, "<a>/<b>");
        let mut b = PathTally::new();
        add(&mut b, "<a>/<b>/<c>");
        add(&mut b, "^<x>/<y>");
        a.merge(&b);
        let entry = a.by_type[&PathExpressionType::SequenceOfLiterals];
        assert_eq!(entry.count, 3);
        assert_eq!(entry.max_k, Some(3));
        assert_eq!(a.with_inverse, 1);
    }
}
