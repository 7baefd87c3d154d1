//! Query-fragment classification (Sections 4.3, 5 and 5.2 of the paper).
//!
//! The fragments form a hierarchy over the *AOF patterns* (bodies built from
//! triple patterns with `And`, `Opt` and `Filter` only):
//!
//! * **CQ** — conjunctive queries: only triple patterns and `And`
//!   (Definition 3.1).
//! * **CPF** — conjunctive patterns with filters: `And` + `Filter`
//!   (Definition 4.1).
//! * **CQF** — CPF patterns whose filters are all *simple*: at most one
//!   variable, or of the form `?x = ?y` (Definition 5.2).
//! * **well-designed** — AOF patterns whose pattern tree is well-designed.
//! * **CQOF** — well-designed pattern trees with interface width ≤ 1
//!   (Definition 5.5).

use crate::pattern_tree::PatternTree;
use crate::walk::BodyOps;
use serde::{Deserialize, Serialize};
use sparqlog_parser::ast_ref::*;

/// The fragment membership of one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FragmentReport {
    /// The query is a SELECT or ASK query (the population the fragment
    /// analysis is carried out on).
    pub select_or_ask: bool,
    /// The body is an AOF pattern (And/Opt/Filter only).
    pub aof: bool,
    /// Conjunctive query: triples + And only.
    pub cq: bool,
    /// Conjunctive pattern with filters: triples + And + Filter.
    pub cpf: bool,
    /// CPF with only simple filters.
    pub cqf: bool,
    /// AOF pattern with a well-designed pattern tree.
    pub well_designed: bool,
    /// Well-designed with interface width ≤ 1.
    pub cqof: bool,
    /// Well-designed with simple filters but interface width > 1 (the rare
    /// class the paper found only 310 of).
    pub wide_interface: bool,
    /// The body contains a triple pattern with a variable predicate
    /// (such queries are analysed via hypergraphs rather than graphs,
    /// Section 6.2).
    pub has_var_predicate: bool,
    /// Number of triple patterns in the body.
    pub triples: u32,
}

/// Tests whether a filter constraint is *simple*: it mentions at most one
/// variable, or it is exactly an equality between two variables.
pub fn is_simple_filter(e: &Expression<'_>) -> bool {
    if let Expression::Equal(Expression::Var(_), Expression::Var(_)) = e {
        return true;
    }
    let mut first = None;
    let mut single = true;
    e.for_each_variable(&mut |v| match first {
        None => first = Some(v),
        Some(seen) => single &= seen == v,
    });
    single
}

/// Extracts the pairs of variables equated by top-level `?x = ?y` filters.
/// The shape analysis collapses such pairs into a single node (footnote 20
/// of the paper).
pub fn variable_equalities<'a, 'q: 'a, I>(
    filters: I,
) -> impl Iterator<Item = (&'q str, &'q str)> + use<'a, 'q, I>
where
    I: IntoIterator<Item = &'a Expression<'q>>,
{
    filters.into_iter().filter_map(|f| match f {
        Expression::Equal(Expression::Var(x), Expression::Var(y)) => Some((*x, *y)),
        _ => None,
    })
}

/// Classifies a query into the fragment hierarchy, with its own body walk
/// and its own pattern tree (the reference the oracle uses).
pub fn classify_fragments(q: &Query<'_>) -> FragmentReport {
    let mut report = FragmentReport {
        select_or_ask: matches!(q.form, QueryForm::Select | QueryForm::Ask),
        ..FragmentReport::default()
    };
    let ops = BodyOps::of_query(q);
    report.triples = ops.triples;
    report.has_var_predicate = ops.var_predicates > 0;
    if !ops.is_aof() || !q.has_body() {
        return report;
    }
    report.aof = true;
    report.cq = ops.filters == 0 && ops.optionals == 0;
    report.cpf = ops.optionals == 0;

    // The pattern tree exists for every AOF pattern.
    let Some(tree) = PatternTree::build(q) else {
        // Defensive: BodyOps and PatternTree must agree on AOF membership.
        report.aof = false;
        return report;
    };
    let filters_simple = tree.all_filters().iter().all(|f| is_simple_filter(f));
    report.cqf = report.cpf && filters_simple;
    report.well_designed = tree.is_well_designed();
    let width = tree.interface_width();
    report.cqof = report.well_designed && filters_simple && width <= 1;
    report.wide_interface = report.well_designed && filters_simple && width > 1;
    report
}

/// Classifies a query into the fragment hierarchy from a completed
/// [`QueryWalkRef`](crate::walk::QueryWalkRef): the operator counters and the
/// pattern tree both come from the walk, so no part of the query is
/// traversed again (the well-designedness and interface-width checks run on
/// the already-built tree). Result-identical to [`classify_fragments`].
pub fn classify_fragments_from_walk_ref(
    q: &Query<'_>,
    walk: &crate::walk::QueryWalkRef<'_>,
) -> FragmentReport {
    let ops = &walk.ops;
    let mut report = FragmentReport {
        select_or_ask: matches!(q.form, QueryForm::Select | QueryForm::Ask),
        ..FragmentReport::default()
    };
    report.triples = ops.triples;
    report.has_var_predicate = ops.var_predicates > 0;
    if !ops.is_aof() || !q.has_body() {
        return report;
    }
    report.aof = true;
    report.cq = ops.filters == 0 && ops.optionals == 0;
    report.cpf = ops.optionals == 0;

    let Some(tree) = &walk.tree else {
        // Defensive: the walk's tree and AOF membership must agree.
        report.aof = false;
        return report;
    };
    let filters_simple = tree.all_filters().iter().all(|f| is_simple_filter(f));
    report.cqf = report.cpf && filters_simple;
    let (well_designed, width) = tree.well_designedness();
    report.well_designed = well_designed;
    report.cqof = report.well_designed && filters_simple && width <= 1;
    report.wide_interface = report.well_designed && filters_simple && width > 1;
    report
}

/// The CQ-like fragment a query is assigned to for the shape analysis of
/// Section 6 (CQ ⊂ CQF ⊂ CQOF).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CqLikeClass {
    /// Plain conjunctive query.
    Cq,
    /// Conjunctive query with simple filters (and not a plain CQ).
    Cqf,
    /// Well-designed Opt-extension with interface width 1 (and not in CQF).
    Cqof,
    /// Not in any of the CQ-like fragments.
    None,
}

impl FragmentReport {
    /// The most specific CQ-like fragment of the query (CQ ⊆ CQF ⊆ CQOF): a
    /// CQ reports `Cq`, a CQF-but-not-CQ query reports `Cqf`, etc.
    pub fn cq_like_class(&self) -> CqLikeClass {
        if self.cq {
            CqLikeClass::Cq
        } else if self.cqf {
            CqLikeClass::Cqf
        } else if self.cqof {
            CqLikeClass::Cqof
        } else {
            CqLikeClass::None
        }
    }

    /// Whether the query belongs to the (cumulative) CQ fragment.
    pub fn in_cq(&self) -> bool {
        self.cq
    }

    /// Whether the query belongs to the (cumulative) CQF fragment
    /// (every CQ is also a CQF).
    pub fn in_cqf(&self) -> bool {
        self.cq || self.cqf
    }

    /// Whether the query belongs to the (cumulative) CQOF fragment
    /// (CQ and CQF queries are also CQOF).
    pub fn in_cqof(&self) -> bool {
        self.cq || self.cqf || self.cqof
    }
}

/// Aggregated fragment statistics over SELECT/ASK queries (Section 5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FragmentTally {
    /// Total SELECT/ASK queries seen.
    pub select_ask: u64,
    /// AOF patterns.
    pub aof: u64,
    /// Conjunctive queries.
    pub cq: u64,
    /// CQF queries (cumulative, includes CQ).
    pub cqf: u64,
    /// Well-designed AOF patterns.
    pub well_designed: u64,
    /// CQOF queries (cumulative).
    pub cqof: u64,
    /// AOF patterns containing a variable predicate.
    pub aof_var_predicate: u64,
    /// Well-designed patterns with simple filters and interface width > 1.
    pub wide_interface: u64,
}

impl FragmentTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one classified query.
    pub fn add(&mut self, r: &FragmentReport) {
        if !r.select_or_ask {
            return;
        }
        self.select_ask += 1;
        if r.aof {
            self.aof += 1;
            if r.has_var_predicate {
                self.aof_var_predicate += 1;
            }
        }
        if r.in_cq() {
            self.cq += 1;
        }
        if r.in_cqf() {
            self.cqf += 1;
        }
        if r.well_designed {
            self.well_designed += 1;
        }
        if r.in_cqof() {
            self.cqof += 1;
        }
        if r.wide_interface {
            self.wide_interface += 1;
        }
    }

    /// Merges another tally.
    pub fn merge(&mut self, other: &FragmentTally) {
        self.select_ask += other.select_ask;
        self.aof += other.aof;
        self.cq += other.cq;
        self.cqf += other.cqf;
        self.well_designed += other.well_designed;
        self.cqof += other.cqof;
        self.aof_var_predicate += other.aof_var_predicate;
        self.wide_interface += other.wide_interface;
    }

    /// Multiplies every counter by `times`: a tally built from one
    /// [`FragmentTally::add`] and then scaled equals `times` repeated adds of
    /// the same report. Used by the fused engine's occurrence-weighted fold.
    pub fn scale(&mut self, times: u64) {
        self.select_ask *= times;
        self.aof *= times;
        self.cq *= times;
        self.cqf *= times;
        self.well_designed *= times;
        self.cqof *= times;
        self.aof_var_predicate *= times;
        self.wide_interface *= times;
    }

    /// Share of AOF patterns among SELECT/ASK queries.
    pub fn aof_share(&self) -> f64 {
        self.aof as f64 / self.select_ask.max(1) as f64
    }

    /// Share of CQs among AOF patterns (the paper reports 54.58 %).
    pub fn cq_share_of_aof(&self) -> f64 {
        self.cq as f64 / self.aof.max(1) as f64
    }

    /// Share of CQF among AOF patterns (84.08 % in the paper).
    pub fn cqf_share_of_aof(&self) -> f64 {
        self.cqf as f64 / self.aof.max(1) as f64
    }

    /// Share of well-designed patterns among AOF patterns (98.53 %).
    pub fn well_designed_share_of_aof(&self) -> f64 {
        self.well_designed as f64 / self.aof.max(1) as f64
    }

    /// Share of CQOF among AOF patterns (93.87 %).
    pub fn cqof_share_of_aof(&self) -> f64 {
        self.cqof as f64 / self.aof.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_parser::{parse_query_in, Arena};

    fn report(q: &str) -> FragmentReport {
        let arena = Arena::new();
        classify_fragments(&parse_query_in(q, &arena).unwrap())
    }

    #[test]
    fn plain_cq() {
        let r = report("SELECT ?x WHERE { ?x <p> ?y . ?y <q> ?z }");
        assert!(r.select_or_ask && r.aof && r.cq && r.cpf && r.cqf && r.well_designed && r.cqof);
        assert_eq!(r.cq_like_class(), CqLikeClass::Cq);
        assert_eq!(r.triples, 2);
    }

    #[test]
    fn cpf_with_simple_filter_is_cqf() {
        let r = report("SELECT ?x WHERE { ?x <p> ?y FILTER(?y > 10) }");
        assert!(!r.cq && r.cpf && r.cqf && r.cqof);
        assert_eq!(r.cq_like_class(), CqLikeClass::Cqf);
    }

    #[test]
    fn variable_equality_filter_is_simple() {
        let arena = Arena::new();
        let r = report("SELECT ?x WHERE { ?x <p> ?y . ?x <q> ?z FILTER(?y = ?z) }");
        assert!(r.cqf);
        let q = parse_query_in(
            "SELECT ?x WHERE { ?x <p> ?y . ?x <q> ?z FILTER(?y = ?z) }",
            &arena,
        )
        .unwrap();
        let tree = PatternTree::build(&q).unwrap();
        assert_eq!(
            variable_equalities(tree.filters()).collect::<Vec<_>>(),
            [("y", "z")]
        );
    }

    #[test]
    fn two_variable_comparison_is_not_simple() {
        let r = report("SELECT ?x WHERE { ?x <p> ?y . ?x <q> ?z FILTER(?y < ?z) }");
        assert!(r.cpf && !r.cqf);
        // Still well-designed and width ≤ 1? Single node tree → cqof requires
        // simple filters, so it is excluded from CQOF as well.
        assert!(!r.cqof);
        assert_eq!(r.cq_like_class(), CqLikeClass::None);
    }

    #[test]
    fn optional_pattern_is_cqof_but_not_cpf() {
        let r = report("SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } }");
        assert!(r.aof && !r.cq && !r.cpf && !r.cqf);
        assert!(r.well_designed && r.cqof);
        assert_eq!(r.cq_like_class(), CqLikeClass::Cqof);
    }

    #[test]
    fn wide_interface_optional_is_flagged() {
        // The OPTIONAL shares two variables with the outer pattern: interface
        // width 2, well-designed, but outside CQOF.
        let r = report("SELECT * WHERE { ?A <knows> ?N OPTIONAL { ?A <worksWith> ?N } }");
        assert!(r.aof && r.well_designed);
        assert!(!r.cqof && r.wide_interface);
        let mut t = FragmentTally::new();
        t.add(&r);
        assert_eq!(t.wide_interface, 1);
    }

    #[test]
    fn union_query_is_not_aof() {
        let r = report("SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }");
        assert!(!r.aof);
        assert_eq!(r.cq_like_class(), CqLikeClass::None);
    }

    #[test]
    fn describe_is_not_select_or_ask() {
        let r = report("DESCRIBE <http://r>");
        assert!(!r.select_or_ask);
    }

    #[test]
    fn var_predicate_flag() {
        let r = report("ASK { ?x ?p ?y . ?y <q> ?z }");
        assert!(r.has_var_predicate && r.cq);
    }

    #[test]
    fn tally_accumulates_cumulative_fragments() {
        let mut t = FragmentTally::new();
        for q in [
            "SELECT ?x WHERE { ?x <p> ?y }",                              // CQ
            "SELECT ?x WHERE { ?x <p> ?y FILTER(?y > 1) }",               // CQF
            "SELECT * WHERE { ?A <name> ?N OPTIONAL { ?A <email> ?E } }", // CQOF
            "SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }",      // not AOF
            "DESCRIBE <http://r>",                                        // not S/A
        ] {
            t.add(&report(q));
        }
        assert_eq!(t.select_ask, 4);
        assert_eq!(t.aof, 3);
        assert_eq!(t.cq, 1);
        assert_eq!(t.cqf, 2);
        assert_eq!(t.cqof, 3);
        assert!(t.cq_share_of_aof() < t.cqf_share_of_aof());
        assert!(t.cqf_share_of_aof() < t.cqof_share_of_aof());
    }
}
