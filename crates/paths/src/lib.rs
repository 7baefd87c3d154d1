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
