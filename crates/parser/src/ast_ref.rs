//! The abstract syntax tree the parser produces: arena-resident, borrowed,
//! `Copy`.
//!
//! The tree stays close to the *surface syntax* of SPARQL 1.1 rather than to
//! the evaluation algebra: the analyses in the paper (keyword census,
//! operator-set classification, fragment membership, canonical graphs) are
//! all defined on the syntactic structure of queries, so group boundaries,
//! UNION branches and OPTIONAL nesting are preserved exactly as written.
//!
//! Every node type is `Copy` and borrows either the query source text or the
//! parse [`Arena`](crate::arena::Arena): strings are `&'a str`, child nodes
//! are arena references, and lists are arena slices. The parser builds these
//! (via [`parse_query_in`](crate::parse_query_in)) with zero per-node global
//! allocations; tearing a query down is a single arena
//! [`reset`](crate::arena::Arena::reset). Nodes built by hand from string
//! literals (`Term::Var("x")`, `TriplePattern { .. }`) need no arena at all.
//!
//! # Lifetime rules
//!
//! A parsed query is valid only while *both* its input buffer and its arena
//! are alive and the arena has not been reset — the borrow checker enforces
//! it, since [`reset`](crate::arena::Arena::reset) takes `&mut self`. What
//! must outlive the query (fingerprints, analysis records, interner symbols)
//! is computed from it first; nothing in the workspace keeps a tree.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The four SPARQL query forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryForm {
    /// `SELECT` — returns projected variable bindings.
    Select,
    /// `ASK` — returns a boolean.
    Ask,
    /// `CONSTRUCT` — returns a new RDF graph built from a template.
    Construct,
    /// `DESCRIBE` — returns RDF describing the given resources.
    Describe,
}

impl fmt::Display for QueryForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QueryForm::Select => "SELECT",
            QueryForm::Ask => "ASK",
            QueryForm::Construct => "CONSTRUCT",
            QueryForm::Describe => "DESCRIBE",
        })
    }
}

/// Aggregate function kinds supported by SPARQL 1.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggregateKind {
    /// `COUNT`.
    Count,
    /// `SUM`.
    Sum,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
    /// `AVG`.
    Avg,
    /// `SAMPLE`.
    Sample,
    /// `GROUP_CONCAT`.
    GroupConcat,
}

/// `ASC` / `DESC` order directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrderDirection {
    /// Ascending (the default).
    Asc,
    /// Descending.
    Desc,
}

/// An RDF term or variable appearing in a triple pattern, expression, or
/// DESCRIBE / GRAPH argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term<'a> {
    /// An IRI. Prefixed names are expanded by the parser when the prefix is
    /// declared; otherwise they are stored as `prefix:local` verbatim.
    Iri(&'a str),
    /// A literal with optional datatype IRI or language tag.
    Literal {
        /// The lexical form (without quotes).
        lexical: &'a str,
        /// Datatype IRI, if `^^` was used.
        datatype: Option<&'a str>,
        /// Language tag, if `@tag` was used.
        lang: Option<&'a str>,
    },
    /// A blank node (explicit label or generated for `[]` / property lists).
    BlankNode(&'a str),
    /// A query variable (without the `?` / `$` sigil).
    Var(&'a str),
}

impl<'a> Term<'a> {
    /// Returns `true` if this term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Returns `true` if this term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }

    /// Returns `true` if this term is a variable or blank node — the "join
    /// positions" used when building canonical graphs and hypergraphs.
    pub fn is_var_or_blank(&self) -> bool {
        self.is_var() || self.is_blank()
    }

    /// Returns the variable name if this term is a variable.
    pub fn as_var(&self) -> Option<&'a str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Term<'_> {
    /// The term's canonical spelling, as the canonical form writes it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        crate::display::write_term(&mut text, self);
        f.write_str(&text)
    }
}

/// A triple pattern `subject predicate object`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriplePattern<'a> {
    /// The subject position.
    pub subject: Term<'a>,
    /// The predicate position (an IRI or a variable; never a literal).
    pub predicate: Term<'a>,
    /// The object position.
    pub object: Term<'a>,
}

/// A SPARQL 1.1 property path expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PropertyPath<'a> {
    /// A single IRI step.
    Iri(&'a str),
    /// `^p` — inverse step.
    Inverse(&'a PropertyPath<'a>),
    /// `p1 / p2` — sequence.
    Sequence(&'a PropertyPath<'a>, &'a PropertyPath<'a>),
    /// `p1 | p2` — alternative.
    Alternative(&'a PropertyPath<'a>, &'a PropertyPath<'a>),
    /// `p*` — zero or more.
    ZeroOrMore(&'a PropertyPath<'a>),
    /// `p+` — one or more.
    OneOrMore(&'a PropertyPath<'a>),
    /// `p?` — zero or one.
    ZeroOrOne(&'a PropertyPath<'a>),
    /// `!(a | ^b | …)` — negated property set of `(iri, inverse?)` entries.
    NegatedPropertySet(&'a [(&'a str, bool)]),
}

impl PropertyPath<'_> {
    /// Returns `true` if the path is a single forward IRI step (i.e. it could
    /// have been written as a plain triple pattern).
    pub fn is_trivial(&self) -> bool {
        matches!(self, PropertyPath::Iri(_))
    }
}

impl fmt::Display for PropertyPath<'_> {
    /// The path's canonical spelling, fully parenthesized, as the canonical
    /// form writes it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        crate::display::write_path(&mut text, self);
        f.write_str(&text)
    }
}

/// A property path pattern `subject path object`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathPattern<'a> {
    /// The subject position.
    pub subject: Term<'a>,
    /// The property path connecting subject and object.
    pub path: PropertyPath<'a>,
    /// The object position.
    pub object: Term<'a>,
}

/// A triple-like element inside a basic graph pattern: either a plain triple
/// pattern or a property path pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TripleOrPath<'a> {
    /// A plain triple pattern.
    Triple(TriplePattern<'a>),
    /// A property path pattern.
    Path(PathPattern<'a>),
}

impl<'a> TripleOrPath<'a> {
    /// The subject term.
    pub fn subject(&self) -> &Term<'a> {
        match self {
            TripleOrPath::Triple(t) => &t.subject,
            TripleOrPath::Path(p) => &p.subject,
        }
    }

    /// The object term.
    pub fn object(&self) -> &Term<'a> {
        match self {
            TripleOrPath::Triple(t) => &t.object,
            TripleOrPath::Path(p) => &p.object,
        }
    }
}

/// An aggregate expression such as `COUNT(DISTINCT ?x)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate<'a> {
    /// Which aggregate function.
    pub kind: AggregateKind,
    /// Whether `DISTINCT` was used inside the aggregate.
    pub distinct: bool,
    /// The aggregated expression; `None` for `COUNT(*)`.
    pub expr: Option<&'a Expression<'a>>,
    /// The `SEPARATOR` argument of `GROUP_CONCAT`, if present.
    pub separator: Option<&'a str>,
}

/// A SPARQL expression (filter constraint, BIND / select expression, HAVING
/// condition, ORDER BY condition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expression<'a> {
    /// A variable reference.
    Var(&'a str),
    /// A constant RDF term.
    Term(Term<'a>),
    /// `a || b`.
    Or(&'a Expression<'a>, &'a Expression<'a>),
    /// `a && b`.
    And(&'a Expression<'a>, &'a Expression<'a>),
    /// `a = b`.
    Equal(&'a Expression<'a>, &'a Expression<'a>),
    /// `a != b`.
    NotEqual(&'a Expression<'a>, &'a Expression<'a>),
    /// `a < b`.
    Less(&'a Expression<'a>, &'a Expression<'a>),
    /// `a > b`.
    Greater(&'a Expression<'a>, &'a Expression<'a>),
    /// `a <= b`.
    LessEq(&'a Expression<'a>, &'a Expression<'a>),
    /// `a >= b`.
    GreaterEq(&'a Expression<'a>, &'a Expression<'a>),
    /// `a IN (…)`.
    In(&'a Expression<'a>, &'a [Expression<'a>]),
    /// `a NOT IN (…)`.
    NotIn(&'a Expression<'a>, &'a [Expression<'a>]),
    /// `a + b`.
    Add(&'a Expression<'a>, &'a Expression<'a>),
    /// `a - b`.
    Subtract(&'a Expression<'a>, &'a Expression<'a>),
    /// `a * b`.
    Multiply(&'a Expression<'a>, &'a Expression<'a>),
    /// `a / b`.
    Divide(&'a Expression<'a>, &'a Expression<'a>),
    /// `!a`.
    Not(&'a Expression<'a>),
    /// `-a`.
    UnaryMinus(&'a Expression<'a>),
    /// `+a`.
    UnaryPlus(&'a Expression<'a>),
    /// A built-in call or custom function call `name(args…)`. Built-in names
    /// are stored upper-cased (`LANG`, `REGEX`, …); IRI-named functions keep
    /// the IRI.
    FunctionCall(&'a str, &'a [Expression<'a>]),
    /// `EXISTS { … }`.
    Exists(&'a GroupGraphPattern<'a>),
    /// `NOT EXISTS { … }`.
    NotExists(&'a GroupGraphPattern<'a>),
    /// An aggregate expression.
    Aggregate(Aggregate<'a>),
}

impl<'a> Expression<'a> {
    /// Visits every variable mentioned in the expression (with duplicates, in
    /// traversal order), including variables inside EXISTS patterns.
    pub fn for_each_variable(&self, f: &mut impl FnMut(&'a str)) {
        match *self {
            Expression::Var(v) => f(v),
            Expression::Term(_) => {}
            Expression::Or(a, b)
            | Expression::And(a, b)
            | Expression::Equal(a, b)
            | Expression::NotEqual(a, b)
            | Expression::Less(a, b)
            | Expression::Greater(a, b)
            | Expression::LessEq(a, b)
            | Expression::GreaterEq(a, b)
            | Expression::Add(a, b)
            | Expression::Subtract(a, b)
            | Expression::Multiply(a, b)
            | Expression::Divide(a, b) => {
                a.for_each_variable(f);
                b.for_each_variable(f);
            }
            Expression::In(a, list) | Expression::NotIn(a, list) => {
                a.for_each_variable(f);
                for e in list {
                    e.for_each_variable(f);
                }
            }
            Expression::Not(a) | Expression::UnaryMinus(a) | Expression::UnaryPlus(a) => {
                a.for_each_variable(f)
            }
            Expression::FunctionCall(_, args) => {
                for a in args {
                    a.for_each_variable(f);
                }
            }
            Expression::Exists(g) | Expression::NotExists(g) => g.for_each_variable(f),
            Expression::Aggregate(agg) => {
                if let Some(e) = agg.expr {
                    e.for_each_variable(f);
                }
            }
        }
    }

    /// Returns `true` if the expression contains an EXISTS or NOT EXISTS.
    pub fn contains_exists(&self) -> bool {
        match *self {
            Expression::Exists(_) | Expression::NotExists(_) => true,
            Expression::Var(_) | Expression::Term(_) => false,
            Expression::Or(a, b)
            | Expression::And(a, b)
            | Expression::Equal(a, b)
            | Expression::NotEqual(a, b)
            | Expression::Less(a, b)
            | Expression::Greater(a, b)
            | Expression::LessEq(a, b)
            | Expression::GreaterEq(a, b)
            | Expression::Add(a, b)
            | Expression::Subtract(a, b)
            | Expression::Multiply(a, b)
            | Expression::Divide(a, b) => a.contains_exists() || b.contains_exists(),
            Expression::In(a, list) | Expression::NotIn(a, list) => {
                a.contains_exists() || list.iter().any(|e| e.contains_exists())
            }
            Expression::Not(a) | Expression::UnaryMinus(a) | Expression::UnaryPlus(a) => {
                a.contains_exists()
            }
            Expression::FunctionCall(_, args) => args.iter().any(|a| a.contains_exists()),
            Expression::Aggregate(agg) => agg.expr.is_some_and(|e| e.contains_exists()),
        }
    }
}

/// One row of an inline `VALUES` data block; `None` represents `UNDEF`.
pub type ValuesRow<'a> = &'a [Option<Term<'a>>];

/// An inline data block `VALUES (?x ?y) { (…) (…) }`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InlineData<'a> {
    /// The declared variables.
    pub variables: &'a [&'a str],
    /// The data rows (each the same length as `variables`).
    pub rows: &'a [ValuesRow<'a>],
}

/// A single syntactic element of a group graph pattern (the content between
/// one pair of braces).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GroupElement<'a> {
    /// A block of triple / path patterns joined by `.` / `;` / `,`.
    Triples(&'a [TripleOrPath<'a>]),
    /// `FILTER constraint`.
    Filter(Expression<'a>),
    /// `BIND (expr AS ?var)`.
    Bind {
        /// The bound expression.
        expr: Expression<'a>,
        /// The target variable (without sigil).
        var: &'a str,
    },
    /// `OPTIONAL { … }`.
    Optional(GroupGraphPattern<'a>),
    /// A union chain `{A} UNION {B} UNION …` (two or more branches).
    Union(&'a [GroupGraphPattern<'a>]),
    /// `GRAPH term { … }`.
    Graph {
        /// The graph name (IRI or variable).
        name: Term<'a>,
        /// The nested pattern.
        pattern: GroupGraphPattern<'a>,
    },
    /// `MINUS { … }`.
    Minus(GroupGraphPattern<'a>),
    /// `SERVICE [SILENT] term { … }`.
    Service {
        /// Whether `SILENT` was given.
        silent: bool,
        /// The service endpoint (IRI or variable).
        name: Term<'a>,
        /// The nested pattern.
        pattern: GroupGraphPattern<'a>,
    },
    /// An inline `VALUES` block inside the group.
    Values(InlineData<'a>),
    /// A nested subquery `{ SELECT … }`.
    SubSelect(&'a Query<'a>),
    /// A plain nested group `{ … }` that is not part of a UNION / OPTIONAL.
    Group(GroupGraphPattern<'a>),
}

/// A group graph pattern: the ordered list of elements between `{` and `}`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GroupGraphPattern<'a> {
    /// The elements in source order.
    pub elements: &'a [GroupElement<'a>],
}

impl<'a> GroupGraphPattern<'a> {
    /// Returns `true` if the group contains no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Visits every variable syntactically occurring anywhere in the group
    /// (duplicates included), nested groups, filters and subquery bodies too.
    pub fn for_each_variable(&self, f: &mut impl FnMut(&'a str)) {
        for el in self.elements {
            match el {
                GroupElement::Triples(ts) => {
                    for t in *ts {
                        match t {
                            TripleOrPath::Triple(t) => {
                                for term in [&t.subject, &t.predicate, &t.object] {
                                    if let Term::Var(v) = term {
                                        f(v);
                                    }
                                }
                            }
                            TripleOrPath::Path(p) => {
                                for term in [&p.subject, &p.object] {
                                    if let Term::Var(v) = term {
                                        f(v);
                                    }
                                }
                            }
                        }
                    }
                }
                GroupElement::Filter(e) => e.for_each_variable(f),
                GroupElement::Bind { expr, var } => {
                    expr.for_each_variable(f);
                    f(var);
                }
                GroupElement::Optional(g) | GroupElement::Minus(g) | GroupElement::Group(g) => {
                    g.for_each_variable(f)
                }
                GroupElement::Union(branches) => {
                    for b in *branches {
                        b.for_each_variable(f);
                    }
                }
                GroupElement::Graph { name, pattern }
                | GroupElement::Service { name, pattern, .. } => {
                    if let Term::Var(v) = name {
                        f(v);
                    }
                    pattern.for_each_variable(f);
                }
                GroupElement::Values(d) => {
                    for v in d.variables {
                        f(v);
                    }
                }
                GroupElement::SubSelect(q) => {
                    if let Some(w) = &q.where_clause {
                        w.for_each_variable(f);
                    }
                }
            }
        }
    }
}

/// One item of a SELECT clause: a plain variable or `(expr AS ?var)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectItem<'a> {
    /// The expression, if the item is `(expr AS ?var)`.
    pub expr: Option<Expression<'a>>,
    /// The (result) variable name.
    pub var: &'a str,
}

/// What a query projects / describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Projection<'a> {
    /// `SELECT *` (or DESCRIBE *).
    All,
    /// An explicit list of SELECT items.
    Items(&'a [SelectItem<'a>]),
    /// The resource list of a DESCRIBE query (IRIs and/or variables).
    Terms(&'a [Term<'a>]),
    /// ASK and CONSTRUCT queries have no projection.
    None,
}

/// A single ORDER BY condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderCondition<'a> {
    /// Direction of this condition.
    pub direction: OrderDirection,
    /// The ordering expression.
    pub expr: Expression<'a>,
}

/// One GROUP BY condition: an expression with an optional `AS ?var` alias.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupCondition<'a> {
    /// The grouping expression.
    pub expr: Expression<'a>,
    /// Optional alias variable.
    pub alias: Option<&'a str>,
}

/// Solution modifiers attached to a query (Section 4.1 of the paper, second
/// block of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolutionModifiers<'a> {
    /// `DISTINCT` on the projection.
    pub distinct: bool,
    /// `REDUCED` on the projection.
    pub reduced: bool,
    /// `GROUP BY` conditions (empty when absent).
    pub group_by: &'a [GroupCondition<'a>],
    /// `HAVING` constraints (empty when absent).
    pub having: &'a [Expression<'a>],
    /// `ORDER BY` conditions (empty when absent).
    pub order_by: &'a [OrderCondition<'a>],
    /// `LIMIT`, if present.
    pub limit: Option<u64>,
    /// `OFFSET`, if present.
    pub offset: Option<u64>,
}

/// A `FROM` / `FROM NAMED` dataset clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetClause<'a> {
    /// Whether the clause was `FROM NAMED`.
    pub named: bool,
    /// The graph IRI.
    pub iri: &'a str,
}

/// The prologue of a query: BASE and PREFIX declarations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Prologue<'a> {
    /// The BASE IRI, if declared.
    pub base: Option<&'a str>,
    /// The declared prefixes in source order as `(prefix, iri)` pairs.
    pub prefixes: &'a [(&'a str, &'a str)],
}

/// A complete SPARQL query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query<'a> {
    /// BASE / PREFIX declarations.
    pub prologue: Prologue<'a>,
    /// The query form (Select / Ask / Construct / Describe).
    pub form: QueryForm,
    /// What is projected or described.
    pub projection: Projection<'a>,
    /// The CONSTRUCT template, for CONSTRUCT queries.
    pub construct_template: Option<&'a [TriplePattern<'a>]>,
    /// FROM / FROM NAMED clauses.
    pub dataset: &'a [DatasetClause<'a>],
    /// The WHERE clause. `None` for body-less DESCRIBE (and rare ASK) queries.
    pub where_clause: Option<GroupGraphPattern<'a>>,
    /// Solution modifiers.
    pub modifiers: SolutionModifiers<'a>,
    /// A trailing `VALUES` block after the solution modifiers, if present.
    pub values: Option<InlineData<'a>>,
}

impl Query<'_> {
    /// Returns `true` if the query has a (non-empty) WHERE clause body.
    pub fn has_body(&self) -> bool {
        self.where_clause.as_ref().is_some_and(|g| !g.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_predicates() {
        assert!(Term::Var("x").is_var());
        assert!(Term::BlankNode("b").is_blank());
        assert!(Term::Var("x").is_var_or_blank());
        assert!(!Term::Iri("http://x").is_var_or_blank());
        assert_eq!(Term::Var("x").as_var(), Some("x"));
        assert_eq!(Term::Iri("http://x").as_var(), None);
    }

    #[test]
    fn distinct_terms_display_distinctly() {
        let plain = |lexical| Term::Literal {
            lexical,
            datatype: None,
            lang: None,
        };
        let terms = [
            Term::Var("x"),
            Term::Iri("?x"),
            Term::Iri("$x"),
            plain("?x"),
            Term::BlankNode("b"),
            Term::Iri("_:b"),
            Term::Iri("b"),
            plain("b"),
            Term::Iri("a"),
            Term::Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
            Term::Iri("UNDEF"),
            Term::Iri("true"),
            plain("true"),
            Term::Iri("http://example.org/p"),
            Term::Iri("urn:x"),
            Term::Iri("mailto:x@example.org"),
            Term::Iri("wdt:P31"),
            plain("wdt:P31"),
            Term::Literal {
                lexical: "b",
                datatype: None,
                lang: Some("en"),
            },
            Term::Literal {
                lexical: "b",
                datatype: Some("en"),
                lang: None,
            },
            plain("b\"@en"),
        ];
        let shown: Vec<String> = terms.iter().map(Term::to_string).collect();
        for (i, a) in shown.iter().enumerate() {
            for (j, b) in shown.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "{:?} and {:?}", terms[i], terms[j]);
            }
        }
        // Absolute IRIs and undeclared prefixed names print as they always did.
        assert_eq!(
            Term::Iri("http://example.org/p").to_string(),
            "<http://example.org/p>"
        );
        assert_eq!(Term::Iri("wdt:P31").to_string(), "wdt:P31");
    }

    #[test]
    fn property_path_display_and_trivial() {
        let a = PropertyPath::Iri("a");
        let b = PropertyPath::Iri("b");
        let star = PropertyPath::ZeroOrMore(&b);
        let seq = PropertyPath::Sequence(&a, &star);
        assert_eq!(seq.to_string(), "(<a>/(<b>)*)");
        assert!(!seq.is_trivial());
        assert!(a.is_trivial());
        let neg = PropertyPath::NegatedPropertySet(&[("p", false), ("q", true)]);
        assert_eq!(neg.to_string(), "!(<p>|^<q>)");
    }

    #[test]
    fn for_each_variable_traverses_nested_structures() {
        let x = Expression::Var("x");
        let y = Expression::Var("y");
        let eq = Expression::Equal(&x, &y);
        let args = [Expression::Var("x")];
        let call = Expression::FunctionCall("LANG", &args);
        let mut seen = Vec::new();
        Expression::And(&eq, &call).for_each_variable(&mut |v| seen.push(v));
        assert_eq!(seen, ["x", "y", "x"]);

        let triples = [TripleOrPath::Triple(TriplePattern {
            subject: Term::Var("a"),
            predicate: Term::Iri("p"),
            object: Term::Var("b"),
        })];
        let inner_elements = [GroupElement::Triples(&triples)];
        let inner = GroupGraphPattern {
            elements: &inner_elements,
        };
        let elements = [
            GroupElement::Optional(inner),
            GroupElement::Filter(Expression::Var("c")),
        ];
        let mut seen = Vec::new();
        GroupGraphPattern {
            elements: &elements,
        }
        .for_each_variable(&mut |v| seen.push(v));
        assert_eq!(seen, ["a", "b", "c"]);
    }

    #[test]
    fn body_less_describe_has_no_body() {
        let q = Query {
            prologue: Prologue::default(),
            form: QueryForm::Describe,
            projection: Projection::Terms(&[Term::Iri("http://x")]),
            construct_template: None,
            dataset: &[],
            where_clause: None,
            modifiers: SolutionModifiers::default(),
            values: None,
        };
        assert!(!q.has_body());
    }
}
