//! Tractability of property paths under simple-path semantics (Section 7).
//!
//! Bagan, Bonifati and Groz (PODS 2013) proved a trichotomy for evaluating
//! regular path queries under *simple path* semantics: evaluation is
//! NP-complete in general but polynomial for the class C_tract. The paper
//! reports that every property path in the corpus except a single `(a/b)*`
//! expression falls into C_tract.
//!
//! We implement a *sufficient* syntactic criterion that covers every
//! expression type occurring in the corpus (Table 5): a path is accepted as
//! tractable when every transitive closure (`*` or `+`) is applied to a
//! single step or to an alternation of single steps. Closures over sequences
//! (such as `(a/b)*`) — the canonical hard case of the trichotomy — are
//! rejected. Expressions rejected by this criterion are *potentially*
//! intractable; for the expression shapes found in query logs the criterion
//! coincides with C_tract membership.

use crate::classify::{classify_path, PathExpressionType};
use sparqlog_parser::ast_ref::PropertyPath;

/// Whether a property path is (syntactically recognised as) in C_tract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tractability {
    /// Recognised as tractable under simple-path semantics.
    Tractable,
    /// Not recognised as tractable (e.g. `(a/b)*`); evaluation under
    /// simple-path semantics may be NP-hard.
    PotentiallyHard,
}

/// Tests membership in (the syntactic fragment of) C_tract.
pub fn tractability(p: &PropertyPath<'_>) -> Tractability {
    if closures_only_over_letter_sets(p) {
        Tractability::Tractable
    } else {
        Tractability::PotentiallyHard
    }
}

/// Convenience: classify and test in one call, returning `(type, tractable)`.
pub fn classify_and_check(p: &PropertyPath<'_>) -> (PathExpressionType, Tractability) {
    (classify_path(p).ty, tractability(p))
}

/// True when every `*` / `+` in the expression is applied to a single step or
/// an alternation of single steps.
fn closures_only_over_letter_sets(p: &PropertyPath<'_>) -> bool {
    match p {
        PropertyPath::Iri(_) | PropertyPath::NegatedPropertySet(_) => true,
        PropertyPath::Inverse(inner) => closures_only_over_letter_sets(inner),
        PropertyPath::Sequence(a, b) | PropertyPath::Alternative(a, b) => {
            closures_only_over_letter_sets(a) && closures_only_over_letter_sets(b)
        }
        PropertyPath::ZeroOrOne(inner) => closures_only_over_letter_sets(inner),
        PropertyPath::ZeroOrMore(inner) | PropertyPath::OneOrMore(inner) => is_letter_set(inner),
    }
}

/// A "letter set": a single step, an inverse step, a negated set, or an
/// alternation of letter sets.
fn is_letter_set(p: &PropertyPath<'_>) -> bool {
    match p {
        PropertyPath::Iri(_) | PropertyPath::NegatedPropertySet(_) => true,
        PropertyPath::Inverse(inner) => is_letter_set(inner),
        PropertyPath::Alternative(a, b) => is_letter_set(a) && is_letter_set(b),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_path;

    #[test]
    fn table5_expressions_are_tractable() {
        for expr in [
            "(<a>|<b>)*",
            "<a>*",
            "<a>/<b>/<c>",
            "<a>*/<b>",
            "<a>|<b>",
            "<a>+",
            "<a>?/<b>?",
            "<a>/(<b>|<c>)",
            "(<a>/<b>*)|<c>",
            "<a>*/<b>?",
            "<a>/<b>/<c>*",
            "!(<a>|<b>)",
            "(<a>|<b>)+",
            "(<a>|<b>)/(<a>|<b>)",
            "<a>?|<b>",
            "<a>*|<b>",
            "(<a>|<b>)?",
            "<a>|<b>+",
            "<a>+|<b>+",
        ] {
            assert_eq!(
                with_path(expr, tractability),
                Tractability::Tractable,
                "{expr}"
            );
        }
    }

    #[test]
    fn star_over_sequence_is_hard() {
        assert_eq!(
            with_path("(<a>/<b>)*", tractability),
            Tractability::PotentiallyHard
        );
        assert_eq!(
            with_path("(<a>/<b>)+", tractability),
            Tractability::PotentiallyHard
        );
    }

    #[test]
    fn nested_hard_closure_is_detected() {
        assert_eq!(
            with_path("<c>/((<a>/<b>)*)", tractability),
            Tractability::PotentiallyHard
        );
    }

    #[test]
    fn inverse_inside_closure_is_fine() {
        assert_eq!(
            with_path("(^<a>|<b>)*", tractability),
            Tractability::Tractable
        );
    }

    #[test]
    fn classify_and_check_combines_both() {
        let (ty, tr) = with_path("(<a>/<b>)*", classify_and_check);
        assert_eq!(ty, PathExpressionType::StarOverSequence);
        assert_eq!(tr, Tractability::PotentiallyHard);
    }
}
