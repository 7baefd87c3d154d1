//! Projection analysis (Section 4.4 of the paper).
//!
//! Projection is the feature that pushes the complexity of answer checking
//! for conjunctive queries from Ptime to NP-complete, so the paper measures
//! how many queries actually use it. We follow the test of Section 18.2.1 of
//! the SPARQL 1.1 recommendation, as the paper does:
//!
//! * A `SELECT *` query never uses projection.
//! * A `SELECT ?x …` query uses projection iff the set of selected variables
//!   is a *strict* subset of the in-scope (visible) variables of the body.
//! * An `ASK` query projects away every variable, so it uses projection iff
//!   its body mentions at least one variable. Most ASK queries in the logs
//!   ask for a concrete triple and therefore do not use projection.
//! * When the body uses `BIND` (or select expressions), the set of in-scope
//!   variables cannot be determined purely syntactically by this simplified
//!   test; such queries are reported as [`ProjectionUse::Unknown`], exactly
//!   the 1.3 % bucket the paper describes.

use serde::{Deserialize, Serialize};
use sparqlog_parser::ast_ref::*;
use std::collections::BTreeSet;

/// Whether a query uses projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProjectionUse {
    /// The query definitely uses projection.
    Yes,
    /// The query definitely does not use projection.
    No,
    /// The use of `BIND` / select expressions makes the syntactic test
    /// inconclusive.
    Unknown,
    /// The query form does not project (CONSTRUCT / DESCRIBE).
    NotApplicable,
}

/// Determines whether a query uses projection, with its own walks over the
/// body (the reference the oracle uses).
pub fn projection_use(q: &Query<'_>) -> ProjectionUse {
    match q.form {
        QueryForm::Construct | QueryForm::Describe => ProjectionUse::NotApplicable,
        QueryForm::Ask => {
            let mut mentions_variable = false;
            if let Some(body) = &q.where_clause {
                body.for_each_variable(&mut |_| mentions_variable = true);
            }
            if uses_bind(q) {
                ProjectionUse::Unknown
            } else if mentions_variable {
                ProjectionUse::Yes
            } else {
                ProjectionUse::No
            }
        }
        QueryForm::Select => {
            match &q.projection {
                Projection::All => ProjectionUse::No,
                Projection::Items(items) => {
                    if uses_bind(q) || items.iter().any(|i| i.expr.is_some()) {
                        return ProjectionUse::Unknown;
                    }
                    let selected: BTreeSet<&str> = items.iter().map(|i| i.var).collect();
                    let visible = visible_variables(q);
                    if visible.iter().any(|v| !selected.contains(v)) {
                        ProjectionUse::Yes
                    } else {
                        ProjectionUse::No
                    }
                }
                // SELECT with DESCRIBE-style or absent projection cannot occur.
                Projection::Terms(_) | Projection::None => ProjectionUse::No,
            }
        }
    }
}

/// Determines whether a query uses projection from a completed
/// [`QueryWalkRef`](crate::walk::QueryWalkRef), without re-traversing the
/// body. Result-identical to [`projection_use`].
///
/// `interner` must be the same interner the walk ran with: the selected
/// variables are interned into it, turning the strict-subset test into a
/// symbol (integer) membership check against the walk's visibility set.
pub fn projection_use_from_walk_ref(
    q: &Query<'_>,
    walk: &crate::walk::QueryWalkRef<'_>,
    interner: &mut sparqlog_parser::intern::Interner,
) -> ProjectionUse {
    match q.form {
        QueryForm::Construct | QueryForm::Describe => ProjectionUse::NotApplicable,
        QueryForm::Ask => {
            if walk.has_bind {
                ProjectionUse::Unknown
            } else if walk.body_has_var {
                ProjectionUse::Yes
            } else {
                ProjectionUse::No
            }
        }
        QueryForm::Select => match &q.projection {
            Projection::All => ProjectionUse::No,
            Projection::Items(items) => {
                if walk.has_bind || items.iter().any(|i| i.expr.is_some()) {
                    return ProjectionUse::Unknown;
                }
                let selected: BTreeSet<sparqlog_parser::intern::Symbol> =
                    items.iter().map(|i| interner.intern(i.var)).collect();
                let query_values = q
                    .values
                    .iter()
                    .flat_map(|v| v.variables.iter())
                    .map(|v| interner.intern(v));
                if walk
                    .visible_vars
                    .iter()
                    .copied()
                    .chain(query_values)
                    .any(|v| !selected.contains(&v))
                {
                    ProjectionUse::Yes
                } else {
                    ProjectionUse::No
                }
            }
            Projection::Terms(_) | Projection::None => ProjectionUse::No,
        },
    }
}

/// The set of variables *visible* (in scope) at the top level of the query
/// body: every variable occurring in the body, except those that occur only
/// inside subqueries and are not selected by the subquery.
fn visible_variables<'q>(q: &Query<'q>) -> BTreeSet<&'q str> {
    let mut out = BTreeSet::new();
    if let Some(body) = &q.where_clause {
        visible_in_group(body, &mut out);
    }
    if let Some(values) = &q.values {
        out.extend(values.variables);
    }
    out
}

fn visible_in_group<'q>(g: &GroupGraphPattern<'q>, out: &mut BTreeSet<&'q str>) {
    for el in g.elements {
        match el {
            GroupElement::Triples(ts) => {
                for t in *ts {
                    match t {
                        TripleOrPath::Triple(t) => {
                            for term in [&t.subject, &t.predicate, &t.object] {
                                if let Term::Var(v) = term {
                                    out.insert(v);
                                }
                            }
                        }
                        TripleOrPath::Path(p) => {
                            for term in [&p.subject, &p.object] {
                                if let Term::Var(v) = term {
                                    out.insert(v);
                                }
                            }
                        }
                    }
                }
            }
            // Filter variables are not *bound* by the filter, so they do not
            // add to the in-scope set.
            GroupElement::Filter(_) => {}
            GroupElement::Bind { var, .. } => {
                out.insert(var);
            }
            GroupElement::Optional(inner)
            | GroupElement::Minus(inner)
            | GroupElement::Group(inner) => visible_in_group(inner, out),
            GroupElement::Union(branches) => {
                for b in *branches {
                    visible_in_group(b, out);
                }
            }
            GroupElement::Graph { name, pattern } | GroupElement::Service { name, pattern, .. } => {
                if let Term::Var(v) = name {
                    out.insert(v);
                }
                visible_in_group(pattern, out);
            }
            GroupElement::Values(d) => out.extend(d.variables),
            GroupElement::SubSelect(q) => {
                // Only the variables the subquery projects are visible.
                match &q.projection {
                    Projection::All => {
                        if let Some(inner) = &q.where_clause {
                            visible_in_group(inner, out);
                        }
                    }
                    Projection::Items(items) => {
                        out.extend(items.iter().map(|i| i.var));
                    }
                    _ => {}
                }
            }
        }
    }
}

fn uses_bind(q: &Query<'_>) -> bool {
    fn group_uses_bind(g: &GroupGraphPattern<'_>) -> bool {
        g.elements.iter().any(|el| match el {
            GroupElement::Bind { .. } => true,
            GroupElement::Optional(inner)
            | GroupElement::Minus(inner)
            | GroupElement::Group(inner)
            | GroupElement::Graph { pattern: inner, .. }
            | GroupElement::Service { pattern: inner, .. } => group_uses_bind(inner),
            GroupElement::Union(branches) => branches.iter().any(group_uses_bind),
            GroupElement::SubSelect(q) => q.where_clause.as_ref().is_some_and(group_uses_bind),
            _ => false,
        })
    }
    q.where_clause.as_ref().is_some_and(group_uses_bind)
}

/// Aggregated projection statistics over a corpus (the Section 4.4 numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProjectionTally {
    /// SELECT queries that use projection.
    pub select_yes: u64,
    /// ASK queries that use projection.
    pub ask_yes: u64,
    /// Queries that definitely do not use projection.
    pub no: u64,
    /// Queries where the test is inconclusive because of BIND.
    pub unknown: u64,
    /// CONSTRUCT / DESCRIBE queries (not applicable).
    pub not_applicable: u64,
    /// Queries using subqueries.
    pub with_subqueries: u64,
    /// Total queries recorded.
    pub total: u64,
}

impl ProjectionTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query.
    pub fn add(&mut self, q: &Query<'_>) {
        let use_ = projection_use(q);
        let has_subqueries = crate::walk::BodyOps::of_query(q).subqueries > 0;
        self.record(q.form, use_, has_subqueries);
    }

    /// Records one already-classified query (the single-pass pipeline path:
    /// the form, projection use and subquery flag all come from one
    /// [`QueryWalkRef`](crate::walk::QueryWalkRef)).
    pub fn record(&mut self, form: QueryForm, use_: ProjectionUse, has_subqueries: bool) {
        self.total += 1;
        if has_subqueries {
            self.with_subqueries += 1;
        }
        match (form, use_) {
            (QueryForm::Select, ProjectionUse::Yes) => self.select_yes += 1,
            (QueryForm::Ask, ProjectionUse::Yes) => self.ask_yes += 1,
            (_, ProjectionUse::No) => self.no += 1,
            (_, ProjectionUse::Unknown) => self.unknown += 1,
            (_, ProjectionUse::NotApplicable) => self.not_applicable += 1,
            // Yes for other forms cannot occur.
            (_, ProjectionUse::Yes) => {}
        }
    }

    /// Merges another tally.
    pub fn merge(&mut self, other: &ProjectionTally) {
        self.select_yes += other.select_yes;
        self.ask_yes += other.ask_yes;
        self.no += other.no;
        self.unknown += other.unknown;
        self.not_applicable += other.not_applicable;
        self.with_subqueries += other.with_subqueries;
        self.total += other.total;
    }

    /// Multiplies every counter by `times`: a tally built from one
    /// [`ProjectionTally::record`] and then scaled equals `times` repeated
    /// records of the same classification. Used by the fused engine's
    /// occurrence-weighted fold.
    pub fn scale(&mut self, times: u64) {
        self.select_yes *= times;
        self.ask_yes *= times;
        self.no *= times;
        self.unknown *= times;
        self.not_applicable *= times;
        self.with_subqueries *= times;
        self.total *= times;
    }

    /// Lower bound on the share of queries using projection.
    pub fn projection_share_lower(&self) -> f64 {
        (self.select_yes + self.ask_yes) as f64 / self.total.max(1) as f64
    }

    /// Upper bound on the share of queries using projection (counting the
    /// unknown bucket as projecting).
    pub fn projection_share_upper(&self) -> f64 {
        (self.select_yes + self.ask_yes + self.unknown) as f64 / self.total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_parser::{parse_query_in, Arena};

    fn proj(q: &str) -> ProjectionUse {
        let arena = Arena::new();
        projection_use(&parse_query_in(q, &arena).unwrap())
    }

    #[test]
    fn select_star_has_no_projection() {
        assert_eq!(
            proj("SELECT * WHERE { ?x <http://p> ?y }"),
            ProjectionUse::No
        );
    }

    #[test]
    fn select_all_vars_has_no_projection() {
        assert_eq!(
            proj("SELECT ?x ?y WHERE { ?x <http://p> ?y }"),
            ProjectionUse::No
        );
    }

    #[test]
    fn select_subset_of_vars_uses_projection() {
        assert_eq!(
            proj("SELECT ?x WHERE { ?x <http://p> ?y }"),
            ProjectionUse::Yes
        );
    }

    #[test]
    fn ask_with_concrete_triple_does_not_project() {
        assert_eq!(
            proj("ASK { <http://s> <http://p> <http://o> }"),
            ProjectionUse::No
        );
    }

    #[test]
    fn ask_with_variables_projects() {
        assert_eq!(proj("ASK { ?x <http://p> ?y }"), ProjectionUse::Yes);
    }

    #[test]
    fn bind_makes_it_unknown() {
        assert_eq!(
            proj("SELECT ?x ?y WHERE { ?x <http://p> ?y BIND(?y + 1 AS ?z) }"),
            ProjectionUse::Unknown
        );
        assert_eq!(
            proj("SELECT (?x + 1 AS ?y) WHERE { ?x <http://p> ?v }"),
            ProjectionUse::Unknown
        );
    }

    #[test]
    fn describe_and_construct_not_applicable() {
        assert_eq!(proj("DESCRIBE <http://r>"), ProjectionUse::NotApplicable);
        assert_eq!(
            proj("CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }"),
            ProjectionUse::NotApplicable
        );
    }

    #[test]
    fn subquery_hides_its_local_variables() {
        // ?y is only visible through the subquery projection, which selects it,
        // so the outer SELECT ?x ?y projects nothing away... but ?z stays local.
        assert_eq!(
            proj("SELECT ?x ?y WHERE { { SELECT ?x ?y WHERE { ?x <http://p> ?y . ?y <http://q> ?z } } }"),
            ProjectionUse::No
        );
        // The outer query projects away ?y which the subquery exposes.
        assert_eq!(
            proj("SELECT ?x WHERE { { SELECT ?x ?y WHERE { ?x <http://p> ?y . ?y <http://q> ?z } } }"),
            ProjectionUse::Yes
        );
    }

    #[test]
    fn filter_only_variables_do_not_count_as_visible() {
        // ?y occurs only in a filter; the in-scope variables are {?x}.
        assert_eq!(
            proj("SELECT ?x WHERE { ?x a <http://C> FILTER(?x != ?y) }"),
            ProjectionUse::No
        );
    }

    #[test]
    fn tally_bounds() {
        let arena = Arena::new();
        let mut t = ProjectionTally::new();
        for q in [
            "SELECT ?x WHERE { ?x <http://p> ?y }",
            "SELECT * WHERE { ?x <http://p> ?y }",
            "ASK { <http://s> <http://p> <http://o> }",
            "SELECT ?x WHERE { ?x <http://p> ?y BIND(1 AS ?z) }",
            "DESCRIBE <http://r>",
        ] {
            t.add(&parse_query_in(q, &arena).unwrap());
        }
        assert_eq!(t.total, 5);
        assert_eq!(t.select_yes, 1);
        assert_eq!(t.unknown, 1);
        assert_eq!(t.not_applicable, 1);
        assert!(t.projection_share_lower() <= t.projection_share_upper());
    }
}
