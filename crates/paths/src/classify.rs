//! Classification of property-path expressions into the taxonomy of
//! Table 5 / Figure 10 of the paper.
//!
//! Following Section 7, `^a` (a single inverse step) and `!a` (a single
//! negated step) are treated like plain literals when they appear inside a
//! larger expression, and are reported separately when they *are* the whole
//! expression. Every expression type also stands for its symmetric form
//! (e.g. `a*/b` covers `b/a*`).

use serde::{Deserialize, Serialize};
use sparqlog_parser::ast_ref::PropertyPath;

/// A normalized view of a property path where single steps (IRIs, inverse
/// steps, single-negation steps) become opaque "literals" and nested
/// sequences / alternations are flattened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Normalized {
    /// A single step (IRI, `^iri` or `!iri`).
    Lit,
    /// A flattened sequence with at least two parts.
    Seq(Vec<Normalized>),
    /// A flattened alternation with at least two parts.
    Alt(Vec<Normalized>),
    /// Zero-or-more closure.
    Star(Box<Normalized>),
    /// One-or-more closure.
    Plus(Box<Normalized>),
    /// Zero-or-one.
    Opt(Box<Normalized>),
    /// A negated property set with at least two entries, `!(a|^b|…)`.
    NegSet(usize),
}

impl Normalized {
    /// Normalizes a parsed property path.
    pub fn of(p: &PropertyPath<'_>) -> Normalized {
        match p {
            PropertyPath::Iri(_) => Normalized::Lit,
            PropertyPath::Inverse(inner) => {
                // `^a` over a single step is a literal; a more complex inverse
                // is normalized structurally (rare).
                match Normalized::of(inner) {
                    Normalized::Lit => Normalized::Lit,
                    other => other,
                }
            }
            PropertyPath::NegatedPropertySet(items) => {
                if items.len() <= 1 {
                    Normalized::Lit
                } else {
                    Normalized::NegSet(items.len())
                }
            }
            PropertyPath::Sequence(a, b) => {
                let mut parts = Vec::new();
                flatten_seq(a, &mut parts);
                flatten_seq(b, &mut parts);
                Normalized::Seq(parts)
            }
            PropertyPath::Alternative(a, b) => {
                let mut parts = Vec::new();
                flatten_alt(a, &mut parts);
                flatten_alt(b, &mut parts);
                Normalized::Alt(parts)
            }
            PropertyPath::ZeroOrMore(inner) => Normalized::Star(Box::new(Normalized::of(inner))),
            PropertyPath::OneOrMore(inner) => Normalized::Plus(Box::new(Normalized::of(inner))),
            PropertyPath::ZeroOrOne(inner) => Normalized::Opt(Box::new(Normalized::of(inner))),
        }
    }
}

fn flatten_seq(p: &PropertyPath<'_>, out: &mut Vec<Normalized>) {
    if let PropertyPath::Sequence(a, b) = p {
        flatten_seq(a, out);
        flatten_seq(b, out);
    } else {
        out.push(Normalized::of(p));
    }
}

fn flatten_alt(p: &PropertyPath<'_>, out: &mut Vec<Normalized>) {
    if let PropertyPath::Alternative(a, b) = p {
        flatten_alt(a, out);
        flatten_alt(b, out);
    } else {
        out.push(Normalized::of(p));
    }
}

/// The expression types of Table 5 (plus the pre-table `!a` / `^a` classes
/// and a trivial / other bucket). The `k` of parameterised types is carried
/// in [`PathClassification`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PathExpressionType {
    /// A plain forward step (would not normally be parsed as a path).
    Trivial,
    /// `!a` — a single negated step.
    NegatedLiteral,
    /// `^a` — a single inverse step.
    InverseLiteral,
    /// `(a1|…|ak)*`.
    StarOverAlternation,
    /// `a*`.
    StarLiteral,
    /// `a1/…/ak`.
    SequenceOfLiterals,
    /// `a*/b` (or `b/a*`).
    StarThenLiteral,
    /// `a1|…|ak`.
    AlternationOfLiterals,
    /// `a+`.
    PlusLiteral,
    /// `a1?/…/ak?`.
    SequenceOfOptionals,
    /// `a(b1|…|bk)` — a literal followed by an alternation.
    LiteralThenAlternation,
    /// `a1/a2?/…/ak?` — a literal followed by optionals.
    LiteralThenOptionals,
    /// `(a/b*)|c`.
    SeqStarOrLiteral,
    /// `a*/b?`.
    StarThenOptional,
    /// `a/b/c*`.
    TwoLiteralsThenStar,
    /// `!(a|b)`.
    NegatedAlternation,
    /// `(a1|…|ak)+`.
    PlusOverAlternation,
    /// `(a1|…|ak)(a1|…|ak)` — a sequence of two alternations.
    SequenceOfAlternations,
    /// `a?|b`.
    OptionalOrLiteral,
    /// `a*|b`.
    StarOrLiteral,
    /// `(a|b)?`.
    OptionalOverAlternation,
    /// `a|b+`.
    LiteralOrPlus,
    /// `a+|b+`.
    PlusOrPlus,
    /// `(a/b)*` — the only expression in the paper's corpus outside C_tract.
    StarOverSequence,
    /// Anything else.
    Other,
}

impl PathExpressionType {
    /// Every expression type, in wire-code order: `ALL[i].code() == i`.
    /// Snapshot codecs (e.g. `sparqlog-shard`) iterate this to prove the
    /// code mapping total; tally consumers can use it to enumerate rows.
    pub const ALL: [PathExpressionType; 25] = [
        PathExpressionType::Trivial,
        PathExpressionType::NegatedLiteral,
        PathExpressionType::InverseLiteral,
        PathExpressionType::StarOverAlternation,
        PathExpressionType::StarLiteral,
        PathExpressionType::SequenceOfLiterals,
        PathExpressionType::StarThenLiteral,
        PathExpressionType::AlternationOfLiterals,
        PathExpressionType::PlusLiteral,
        PathExpressionType::SequenceOfOptionals,
        PathExpressionType::LiteralThenAlternation,
        PathExpressionType::LiteralThenOptionals,
        PathExpressionType::SeqStarOrLiteral,
        PathExpressionType::StarThenOptional,
        PathExpressionType::TwoLiteralsThenStar,
        PathExpressionType::NegatedAlternation,
        PathExpressionType::PlusOverAlternation,
        PathExpressionType::SequenceOfAlternations,
        PathExpressionType::OptionalOrLiteral,
        PathExpressionType::StarOrLiteral,
        PathExpressionType::OptionalOverAlternation,
        PathExpressionType::LiteralOrPlus,
        PathExpressionType::PlusOrPlus,
        PathExpressionType::StarOverSequence,
        PathExpressionType::Other,
    ];

    /// The stable wire code of this type (its index in
    /// [`PathExpressionType::ALL`]) — the representation snapshot codecs
    /// serialize. New variants must be appended to `ALL`, never reordered,
    /// so codes stay stable across versions.
    pub fn code(self) -> u8 {
        Self::ALL
            .iter()
            .position(|&ty| ty == self)
            .expect("every variant is listed in ALL") as u8
    }

    /// The type with the given wire code, or `None` for an unknown code (a
    /// decoder's invalid-value case).
    pub fn from_code(code: u8) -> Option<PathExpressionType> {
        Self::ALL.get(usize::from(code)).copied()
    }

    /// The human-readable label used in Table 5.
    pub fn label(&self) -> &'static str {
        match self {
            PathExpressionType::Trivial => "a",
            PathExpressionType::NegatedLiteral => "!a",
            PathExpressionType::InverseLiteral => "^a",
            PathExpressionType::StarOverAlternation => "(a1|...|ak)*",
            PathExpressionType::StarLiteral => "a*",
            PathExpressionType::SequenceOfLiterals => "a1/.../ak",
            PathExpressionType::StarThenLiteral => "a*/b",
            PathExpressionType::AlternationOfLiterals => "a1|...|ak",
            PathExpressionType::PlusLiteral => "a+",
            PathExpressionType::SequenceOfOptionals => "a1?/.../ak?",
            PathExpressionType::LiteralThenAlternation => "a(b1|...|bk)",
            PathExpressionType::LiteralThenOptionals => "a1/a2?/.../ak?",
            PathExpressionType::SeqStarOrLiteral => "(a/b*)|c",
            PathExpressionType::StarThenOptional => "a*/b?",
            PathExpressionType::TwoLiteralsThenStar => "a/b/c*",
            PathExpressionType::NegatedAlternation => "!(a|b)",
            PathExpressionType::PlusOverAlternation => "(a1|...|ak)+",
            PathExpressionType::SequenceOfAlternations => "(a1|...|ak)(a1|...|ak)",
            PathExpressionType::OptionalOrLiteral => "a?|b",
            PathExpressionType::StarOrLiteral => "a*|b",
            PathExpressionType::OptionalOverAlternation => "(a|b)?",
            PathExpressionType::LiteralOrPlus => "a|b+",
            PathExpressionType::PlusOrPlus => "a+|b+",
            PathExpressionType::StarOverSequence => "(a/b)*",
            PathExpressionType::Other => "other",
        }
    }

    /// True for the two pre-table classes (`!a`, `^a`) that Section 7 counts
    /// separately and excludes from the navigational analysis.
    pub fn is_pre_table(&self) -> bool {
        matches!(
            self,
            PathExpressionType::NegatedLiteral | PathExpressionType::InverseLiteral
        )
    }
}

/// The classification of a single property-path expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathClassification {
    /// The expression type.
    pub ty: PathExpressionType,
    /// The arity parameter `k` of the type (length of the sequence /
    /// alternation), when meaningful.
    pub k: Option<usize>,
    /// Whether the expression uses reverse navigation (`^`) anywhere.
    pub uses_inverse: bool,
}

/// Classifies a parsed property path.
pub fn classify_path(p: &PropertyPath<'_>) -> PathClassification {
    let uses_inverse = uses_inverse(p);
    // The two special single-step classes are decided on the raw AST.
    match p {
        PropertyPath::Iri(_) => {
            return PathClassification {
                ty: PathExpressionType::Trivial,
                k: None,
                uses_inverse,
            }
        }
        PropertyPath::Inverse(inner) if matches!(**inner, PropertyPath::Iri(_)) => {
            return PathClassification {
                ty: PathExpressionType::InverseLiteral,
                k: None,
                uses_inverse,
            }
        }
        PropertyPath::NegatedPropertySet(items) if items.len() == 1 => {
            return PathClassification {
                ty: PathExpressionType::NegatedLiteral,
                k: None,
                uses_inverse,
            }
        }
        _ => {}
    }
    let n = Normalized::of(p);
    let (ty, k) = classify_normalized(&n);
    PathClassification {
        ty,
        k,
        uses_inverse,
    }
}

fn uses_inverse(p: &PropertyPath<'_>) -> bool {
    match p {
        PropertyPath::Iri(_) => false,
        PropertyPath::Inverse(_) => true,
        PropertyPath::NegatedPropertySet(items) => items.iter().any(|(_, inv)| *inv),
        PropertyPath::Sequence(a, b) | PropertyPath::Alternative(a, b) => {
            uses_inverse(a) || uses_inverse(b)
        }
        PropertyPath::ZeroOrMore(a) | PropertyPath::OneOrMore(a) | PropertyPath::ZeroOrOne(a) => {
            uses_inverse(a)
        }
    }
}

fn all_lits(parts: &[Normalized]) -> bool {
    parts.iter().all(|p| matches!(p, Normalized::Lit))
}

fn classify_normalized(n: &Normalized) -> (PathExpressionType, Option<usize>) {
    use Normalized as N;
    use PathExpressionType as T;
    match n {
        N::Lit => (T::Trivial, None),
        N::NegSet(k) => (T::NegatedAlternation, Some(*k)),
        N::Star(inner) => match inner.as_ref() {
            N::Lit => (T::StarLiteral, None),
            N::Alt(parts) if all_lits(parts) => (T::StarOverAlternation, Some(parts.len())),
            N::Seq(parts) if all_lits(parts) => (T::StarOverSequence, Some(parts.len())),
            _ => (T::Other, None),
        },
        N::Plus(inner) => match inner.as_ref() {
            N::Lit => (T::PlusLiteral, None),
            N::Alt(parts) if all_lits(parts) => (T::PlusOverAlternation, Some(parts.len())),
            _ => (T::Other, None),
        },
        N::Opt(inner) => match inner.as_ref() {
            N::Lit => (T::Other, None), // a bare `a?` — grouped under other
            N::Alt(parts) if all_lits(parts) => (T::OptionalOverAlternation, Some(parts.len())),
            _ => (T::Other, None),
        },
        N::Alt(parts) => classify_alternation(parts),
        N::Seq(parts) => classify_sequence(parts),
    }
}

fn classify_alternation(parts: &[Normalized]) -> (PathExpressionType, Option<usize>) {
    use Normalized as N;
    use PathExpressionType as T;
    if all_lits(parts) {
        return (T::AlternationOfLiterals, Some(parts.len()));
    }
    if parts.len() == 2 {
        let mut sorted: Vec<&Normalized> = parts.iter().collect();
        // Canonical order: complex part first.
        sorted.sort_by_key(|p| matches!(p, N::Lit));
        match (sorted[0], sorted[1]) {
            (N::Opt(a), N::Lit) if matches!(**a, N::Lit) => return (T::OptionalOrLiteral, None),
            (N::Star(a), N::Lit) if matches!(**a, N::Lit) => return (T::StarOrLiteral, None),
            (N::Plus(a), N::Lit) if matches!(**a, N::Lit) => return (T::LiteralOrPlus, None),
            (N::Seq(seq), N::Lit) if seq.len() == 2 => {
                let star_and_lit = seq
                    .iter()
                    .any(|p| matches!(p, N::Star(inner) if matches!(**inner, N::Lit)))
                    && seq.iter().any(|p| matches!(p, N::Lit));
                if star_and_lit {
                    return (T::SeqStarOrLiteral, None);
                }
            }
            (N::Plus(a), N::Plus(b)) if matches!(**a, N::Lit) && matches!(**b, N::Lit) => {
                return (T::PlusOrPlus, None)
            }
            _ => {}
        }
        // Both parts Plus(Lit)?
        if parts
            .iter()
            .all(|p| matches!(p, N::Plus(inner) if matches!(**inner, N::Lit)))
        {
            return (T::PlusOrPlus, None);
        }
    }
    (T::Other, None)
}

fn classify_sequence(parts: &[Normalized]) -> (PathExpressionType, Option<usize>) {
    use Normalized as N;
    use PathExpressionType as T;
    let k = parts.len();
    if all_lits(parts) {
        return (T::SequenceOfLiterals, Some(k));
    }
    let lit_count = parts.iter().filter(|p| matches!(p, N::Lit)).count();
    let star_lit_count = parts
        .iter()
        .filter(|p| matches!(p, N::Star(inner) if matches!(**inner, N::Lit)))
        .count();
    let opt_lit_count = parts
        .iter()
        .filter(|p| matches!(p, N::Opt(inner) if matches!(**inner, N::Lit)))
        .count();
    let alt_lit_count = parts
        .iter()
        .filter(|p| matches!(p, N::Alt(inner) if all_lits(inner)))
        .count();

    // a*/b and b/a*.
    if k == 2 && star_lit_count == 1 && lit_count == 1 {
        return (T::StarThenLiteral, None);
    }
    // a*/b? and b?/a*.
    if k == 2 && star_lit_count == 1 && opt_lit_count == 1 {
        return (T::StarThenOptional, None);
    }
    // a1?/…/ak?.
    if opt_lit_count == k {
        return (T::SequenceOfOptionals, Some(k));
    }
    // a1/a2?/…/ak? — literals first, then optionals (at least one of each).
    if lit_count + opt_lit_count == k && lit_count >= 1 && opt_lit_count >= 1 && k > 2 {
        return (T::LiteralThenOptionals, Some(k));
    }
    if k == 2 && lit_count == 1 && opt_lit_count == 1 {
        return (T::LiteralThenOptionals, Some(k));
    }
    // a(b1|…|bk).
    if k == 2 && lit_count == 1 && alt_lit_count == 1 {
        if let Some(N::Alt(alt)) = parts.iter().find(|p| matches!(p, N::Alt(_))) {
            return (T::LiteralThenAlternation, Some(alt.len()));
        }
    }
    // (a1|…|ak)(a1|…|ak).
    if k == 2 && alt_lit_count == 2 {
        if let Some(N::Alt(alt)) = parts.iter().find(|p| matches!(p, N::Alt(_))) {
            return (T::SequenceOfAlternations, Some(alt.len()));
        }
    }
    // a/b/c* (two literals and one starred literal, in any position).
    if k == 3 && lit_count == 2 && star_lit_count == 1 {
        return (T::TwoLiteralsThenStar, None);
    }
    (T::Other, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_codes_round_trip_every_type() {
        for (index, ty) in PathExpressionType::ALL.iter().enumerate() {
            assert_eq!(usize::from(ty.code()), index, "{ty:?}");
            assert_eq!(PathExpressionType::from_code(ty.code()), Some(*ty));
        }
        assert_eq!(
            PathExpressionType::from_code(PathExpressionType::ALL.len() as u8),
            None
        );
        assert_eq!(PathExpressionType::from_code(u8::MAX), None);
    }

    fn classify(expr: &str) -> PathClassification {
        crate::with_path(expr, classify_path)
    }

    #[test]
    fn classifies_pre_table_forms() {
        assert_eq!(classify("!<a>").ty, PathExpressionType::NegatedLiteral);
        assert_eq!(classify("^<a>").ty, PathExpressionType::InverseLiteral);
        assert_eq!(classify("<a>").ty, PathExpressionType::Trivial);
    }

    #[test]
    fn classifies_table5_rows() {
        use PathExpressionType as T;
        let cases: Vec<(&str, T, Option<usize>)> = vec![
            ("(<a>|<b>|<c>)*", T::StarOverAlternation, Some(3)),
            ("<a>*", T::StarLiteral, None),
            ("<a>/<b>/<c>", T::SequenceOfLiterals, Some(3)),
            ("<a>*/<b>", T::StarThenLiteral, None),
            ("<b>/<a>*", T::StarThenLiteral, None),
            ("<a>|<b>|<c>|<d>", T::AlternationOfLiterals, Some(4)),
            ("<a>+", T::PlusLiteral, None),
            ("<a>?/<b>?/<c>?", T::SequenceOfOptionals, Some(3)),
            ("<a>/(<b>|<c>)", T::LiteralThenAlternation, Some(2)),
            ("<a>/<b>?/<c>?", T::LiteralThenOptionals, Some(3)),
            ("(<a>/<b>*)|<c>", T::SeqStarOrLiteral, None),
            ("<a>*/<b>?", T::StarThenOptional, None),
            ("<a>/<b>/<c>*", T::TwoLiteralsThenStar, None),
            ("!(<a>|<b>)", T::NegatedAlternation, Some(2)),
            ("(<a>|<b>)+", T::PlusOverAlternation, Some(2)),
            ("(<a>|<b>)/(<a>|<b>)", T::SequenceOfAlternations, Some(2)),
            ("<a>?|<b>", T::OptionalOrLiteral, None),
            ("<a>*|<b>", T::StarOrLiteral, None),
            ("(<a>|<b>)?", T::OptionalOverAlternation, Some(2)),
            ("<a>|<b>+", T::LiteralOrPlus, None),
            ("<a>+|<b>+", T::PlusOrPlus, None),
            ("(<a>/<b>)*", T::StarOverSequence, Some(2)),
        ];
        for (expr, ty, k) in cases {
            let c = classify(expr);
            assert_eq!(c.ty, ty, "expression {expr}");
            assert_eq!(c.k, k, "k of {expr}");
        }
    }

    #[test]
    fn wikidata_instance_of_subclass_path() {
        // wdt:P31/wdt:P279* — the pattern from the paper's example query.
        let c = classify(
            "<http://www.wikidata.org/prop/direct/P31>/<http://www.wikidata.org/prop/direct/P279>*",
        );
        assert_eq!(c.ty, PathExpressionType::StarThenLiteral);
        assert!(!c.uses_inverse);
    }

    #[test]
    fn inverse_steps_count_as_literals_in_larger_expressions() {
        let c = classify("^<a>/<b>");
        assert_eq!(c.ty, PathExpressionType::SequenceOfLiterals);
        assert_eq!(c.k, Some(2));
        assert!(c.uses_inverse);
    }

    #[test]
    fn negated_single_step_in_sequence_counts_as_literal() {
        let c = classify("!<a>/<b>");
        assert_eq!(c.ty, PathExpressionType::SequenceOfLiterals);
    }

    #[test]
    fn unusual_expressions_fall_into_other() {
        assert_eq!(classify("(<a>*/<b>*)").ty, PathExpressionType::Other);
        assert_eq!(classify("((<a>/<b>)|<c>)*").ty, PathExpressionType::Other);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            PathExpressionType::StarOverAlternation.label(),
            "(a1|...|ak)*"
        );
        assert_eq!(PathExpressionType::StarOverSequence.label(), "(a/b)*");
        assert!(PathExpressionType::InverseLiteral.is_pre_table());
        assert!(!PathExpressionType::StarLiteral.is_pre_table());
    }
}
