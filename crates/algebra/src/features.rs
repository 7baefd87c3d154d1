//! Per-query feature extraction: the record on which all shallow analyses
//! (Tables 2, 3, 7, 8 and Figure 1/8 of the paper) are computed.

use crate::walk::BodyOps;
use serde::{Deserialize, Serialize};
use sparqlog_parser::ast_ref::*;

/// The features of a single query relevant to the paper's shallow analysis.
///
/// A `QueryFeatures` value is cheap to aggregate, serialize and ship across
/// threads, which is how the corpus pipeline parallelizes log analysis.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QueryFeatures {
    /// The query form.
    pub form: QueryForm,
    /// Whether the query has a non-empty WHERE clause.
    pub has_body: bool,
    /// Number of plain triple patterns in the body.
    pub triple_patterns: u32,
    /// Number of non-trivial property-path patterns in the body.
    pub path_patterns: u32,
    /// Number of triple patterns with a variable in predicate position.
    pub var_predicates: u32,
    /// Whether `DISTINCT` is used on the projection.
    pub uses_distinct: bool,
    /// Whether `REDUCED` is used on the projection.
    pub uses_reduced: bool,
    /// Whether `LIMIT` is present.
    pub uses_limit: bool,
    /// Whether `OFFSET` is present.
    pub uses_offset: bool,
    /// Whether `ORDER BY` is present.
    pub uses_order_by: bool,
    /// Whether `GROUP BY` is present.
    pub uses_group_by: bool,
    /// Whether `HAVING` is present.
    pub uses_having: bool,
    /// Whether the body uses `FILTER`.
    pub uses_filter: bool,
    /// Whether the body uses conjunction (`And`, i.e. `.` joins).
    pub uses_and: bool,
    /// Whether the body uses `UNION`.
    pub uses_union: bool,
    /// Whether the body uses `OPTIONAL`.
    pub uses_optional: bool,
    /// Whether the body uses `GRAPH`.
    pub uses_graph: bool,
    /// Whether the body uses `MINUS`.
    pub uses_minus: bool,
    /// Whether the body uses `NOT EXISTS`.
    pub uses_not_exists: bool,
    /// Whether the body uses `EXISTS` (positive form).
    pub uses_exists: bool,
    /// Whether the body uses `BIND`.
    pub uses_bind: bool,
    /// Whether the body (or the query tail) uses `VALUES`.
    pub uses_values: bool,
    /// Whether the body uses `SERVICE`.
    pub uses_service: bool,
    /// Whether the query uses subqueries.
    pub uses_subquery: bool,
    /// Whether the query uses property paths.
    pub uses_property_path: bool,
    /// Aggregates used anywhere in the query (projection, HAVING, ORDER BY,
    /// GROUP BY, or inside the body).
    pub aggregates: AggregateUse,
    /// Whether any aggregate at all is used.
    pub uses_aggregate: bool,
    /// The underlying structural counters.
    pub ops: BodyOpsSummary,
}

/// Which aggregate functions a query uses (Table 2, fourth block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AggregateUse {
    /// `COUNT` is used.
    pub count: bool,
    /// `SUM` is used.
    pub sum: bool,
    /// `MIN` is used.
    pub min: bool,
    /// `MAX` is used.
    pub max: bool,
    /// `AVG` is used.
    pub avg: bool,
    /// `SAMPLE` is used.
    pub sample: bool,
    /// `GROUP_CONCAT` is used.
    pub group_concat: bool,
}

impl AggregateUse {
    /// True if any aggregate function is used.
    pub fn any(&self) -> bool {
        self.count
            || self.sum
            || self.min
            || self.max
            || self.avg
            || self.sample
            || self.group_concat
    }

    pub(crate) fn record(&mut self, kind: AggregateKind) {
        match kind {
            AggregateKind::Count => self.count = true,
            AggregateKind::Sum => self.sum = true,
            AggregateKind::Min => self.min = true,
            AggregateKind::Max => self.max = true,
            AggregateKind::Avg => self.avg = true,
            AggregateKind::Sample => self.sample = true,
            AggregateKind::GroupConcat => self.group_concat = true,
        }
    }

    /// Records every aggregate in `e`; does not descend into `EXISTS`
    /// groups.
    fn scan_ref(&mut self, e: &Expression<'_>) {
        use Expression as E;
        match e {
            E::Aggregate(a) => {
                self.record(a.kind);
                if let Some(inner) = a.expr {
                    self.scan_ref(inner);
                }
            }
            E::Var(_) | E::Term(_) => {}
            E::Or(a, b)
            | E::And(a, b)
            | E::Equal(a, b)
            | E::NotEqual(a, b)
            | E::Less(a, b)
            | E::Greater(a, b)
            | E::LessEq(a, b)
            | E::GreaterEq(a, b)
            | E::Add(a, b)
            | E::Subtract(a, b)
            | E::Multiply(a, b)
            | E::Divide(a, b) => {
                self.scan_ref(a);
                self.scan_ref(b);
            }
            E::In(a, list) | E::NotIn(a, list) => {
                self.scan_ref(a);
                for x in *list {
                    self.scan_ref(x);
                }
            }
            E::Not(a) | E::UnaryMinus(a) | E::UnaryPlus(a) => self.scan_ref(a),
            E::FunctionCall(_, args) => {
                for a in *args {
                    self.scan_ref(a);
                }
            }
            E::Exists(_) | E::NotExists(_) => {}
        }
    }
}

/// A serializable copy of the [`BodyOps`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BodyOpsSummary {
    /// Number of joins (`And` combinations).
    pub joins: u32,
    /// Number of FILTER constraints.
    pub filters: u32,
    /// Number of OPTIONAL blocks.
    pub optionals: u32,
    /// Number of UNION operators.
    pub unions: u32,
    /// Number of GRAPH blocks.
    pub graphs: u32,
    /// Number of MINUS blocks.
    pub minuses: u32,
    /// Number of subqueries.
    pub subqueries: u32,
}

impl From<&BodyOps> for BodyOpsSummary {
    fn from(ops: &BodyOps) -> Self {
        BodyOpsSummary {
            joins: ops.joins,
            filters: ops.filters,
            optionals: ops.optionals,
            unions: ops.unions,
            graphs: ops.graphs,
            minuses: ops.minuses,
            subqueries: ops.subqueries,
        }
    }
}

impl QueryFeatures {
    /// Extracts the features of a query through the per-measure walkers: one
    /// [`BodyOps`] traversal of the body and a second one for the aggregates
    /// in it. The reference the oracle uses.
    pub fn of(q: &Query<'_>) -> QueryFeatures {
        let ops = BodyOps::of_query(q);
        let mut aggregates = AggregateUse::default();
        // Scan projection expressions.
        if let Projection::Items(items) = &q.projection {
            for item in *items {
                if let Some(e) = &item.expr {
                    aggregates.scan_ref(e);
                }
            }
        }
        // Scan solution modifier expressions.
        for h in q.modifiers.having {
            aggregates.scan_ref(h);
        }
        for o in q.modifiers.order_by {
            aggregates.scan_ref(&o.expr);
        }
        for g in q.modifiers.group_by {
            aggregates.scan_ref(&g.expr);
        }
        // Scan the body (subquery projections, filters).
        if let Some(body) = &q.where_clause {
            scan_group_aggregates(body, &mut aggregates);
        }

        QueryFeatures {
            form: q.form,
            has_body: q.has_body(),
            triple_patterns: ops.triples,
            path_patterns: ops.paths,
            var_predicates: ops.var_predicates,
            uses_distinct: q.modifiers.distinct,
            uses_reduced: q.modifiers.reduced,
            uses_limit: q.modifiers.limit.is_some(),
            uses_offset: q.modifiers.offset.is_some(),
            uses_order_by: !q.modifiers.order_by.is_empty(),
            uses_group_by: !q.modifiers.group_by.is_empty(),
            uses_having: !q.modifiers.having.is_empty(),
            uses_filter: ops.filters > 0,
            uses_and: ops.uses_and(),
            uses_union: ops.unions > 0,
            uses_optional: ops.optionals > 0,
            uses_graph: ops.graphs > 0,
            uses_minus: ops.minuses > 0,
            uses_not_exists: ops.not_exists > 0,
            uses_exists: ops.exists > 0,
            uses_bind: ops.binds > 0,
            uses_values: ops.values_blocks > 0 || q.values.is_some(),
            uses_service: ops.services > 0,
            uses_subquery: ops.subqueries > 0,
            uses_property_path: ops.paths > 0,
            uses_aggregate: aggregates.any(),
            aggregates,
            ops: BodyOpsSummary::from(&ops),
        }
    }

    /// Builds the features from a completed
    /// [`QueryWalkRef`](crate::walk::QueryWalkRef), touching only the
    /// query-level clauses (projection, HAVING, ORDER BY, GROUP BY) — the body
    /// itself is not traversed again. Field-identical to [`of`](Self::of).
    pub fn from_walk_ref(q: &Query<'_>, walk: &crate::walk::QueryWalkRef<'_>) -> QueryFeatures {
        let ops = &walk.ops;
        let mut aggregates = walk.aggregates;
        if let Projection::Items(items) = &q.projection {
            for item in *items {
                if let Some(e) = &item.expr {
                    aggregates.scan_ref(e);
                }
            }
        }
        for h in q.modifiers.having {
            aggregates.scan_ref(h);
        }
        for o in q.modifiers.order_by {
            aggregates.scan_ref(&o.expr);
        }
        for g in q.modifiers.group_by {
            aggregates.scan_ref(&g.expr);
        }

        QueryFeatures {
            form: q.form,
            has_body: q.has_body(),
            triple_patterns: ops.triples,
            path_patterns: ops.paths,
            var_predicates: ops.var_predicates,
            uses_distinct: q.modifiers.distinct,
            uses_reduced: q.modifiers.reduced,
            uses_limit: q.modifiers.limit.is_some(),
            uses_offset: q.modifiers.offset.is_some(),
            uses_order_by: !q.modifiers.order_by.is_empty(),
            uses_group_by: !q.modifiers.group_by.is_empty(),
            uses_having: !q.modifiers.having.is_empty(),
            uses_filter: ops.filters > 0,
            uses_and: ops.uses_and(),
            uses_union: ops.unions > 0,
            uses_optional: ops.optionals > 0,
            uses_graph: ops.graphs > 0,
            uses_minus: ops.minuses > 0,
            uses_not_exists: ops.not_exists > 0,
            uses_exists: ops.exists > 0,
            uses_bind: ops.binds > 0,
            uses_values: ops.values_blocks > 0 || q.values.is_some(),
            uses_service: ops.services > 0,
            uses_subquery: ops.subqueries > 0,
            uses_property_path: ops.paths > 0,
            uses_aggregate: aggregates.any(),
            aggregates,
            ops: BodyOpsSummary::from(ops),
        }
    }

    /// Total number of triple-like patterns (plain triples plus paths) — the
    /// quantity plotted in Figure 1 of the paper.
    pub fn total_triples(&self) -> u32 {
        self.triple_patterns + self.path_patterns
    }

    /// True for SELECT and ASK queries — the forms that "truly query the
    /// data" and on which Sections 4.2–6 of the paper focus.
    pub fn is_select_or_ask(&self) -> bool {
        matches!(self.form, QueryForm::Select | QueryForm::Ask)
    }
}

fn scan_group_aggregates(g: &GroupGraphPattern<'_>, agg: &mut AggregateUse) {
    for el in g.elements {
        match el {
            GroupElement::Filter(e) | GroupElement::Bind { expr: e, .. } => agg.scan_ref(e),
            GroupElement::Optional(inner)
            | GroupElement::Minus(inner)
            | GroupElement::Group(inner)
            | GroupElement::Graph { pattern: inner, .. }
            | GroupElement::Service { pattern: inner, .. } => scan_group_aggregates(inner, agg),
            GroupElement::Union(branches) => {
                for b in *branches {
                    scan_group_aggregates(b, agg);
                }
            }
            GroupElement::SubSelect(q) => {
                if let Projection::Items(items) = &q.projection {
                    for item in *items {
                        if let Some(e) = &item.expr {
                            agg.scan_ref(e);
                        }
                    }
                }
                for h in q.modifiers.having {
                    agg.scan_ref(h);
                }
                if let Some(inner) = &q.where_clause {
                    scan_group_aggregates(inner, agg);
                }
            }
            GroupElement::Triples(_) | GroupElement::Values(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_parser::{parse_query_in, Arena};

    fn feats(q: &str) -> QueryFeatures {
        let arena = Arena::new();
        QueryFeatures::of(&parse_query_in(q, &arena).unwrap())
    }

    #[test]
    fn detects_query_form_and_modifiers() {
        let f = feats("SELECT DISTINCT ?x WHERE { ?x a <http://C> } ORDER BY ?x LIMIT 10 OFFSET 5");
        assert_eq!(f.form, QueryForm::Select);
        assert!(f.uses_distinct && f.uses_limit && f.uses_offset && f.uses_order_by);
        assert!(!f.uses_group_by);
    }

    #[test]
    fn detects_operators() {
        let f = feats(
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y OPTIONAL { ?y <http://q> ?z } FILTER(?y != 3) { ?x <http://r> ?w } UNION { ?x <http://s> ?w } }",
        );
        assert!(f.uses_and && f.uses_optional && f.uses_filter && f.uses_union);
        assert!(!f.uses_graph && !f.uses_minus);
        assert_eq!(f.total_triples(), 5);
    }

    #[test]
    fn detects_aggregates_everywhere() {
        let f = feats(
            "SELECT (COUNT(?x) AS ?c) (MAX(?y) AS ?m) WHERE { ?x <http://p> ?y } GROUP BY ?x HAVING (AVG(?y) > 2)",
        );
        assert!(f.aggregates.count && f.aggregates.max && f.aggregates.avg);
        assert!(!f.aggregates.sum);
        assert!(f.uses_aggregate && f.uses_group_by && f.uses_having);
    }

    #[test]
    fn detects_aggregates_in_subqueries() {
        let f = feats(
            "SELECT ?x WHERE { { SELECT ?x (SUM(?v) AS ?s) WHERE { ?x <http://p> ?v } GROUP BY ?x } }",
        );
        assert!(f.aggregates.sum);
        assert!(f.uses_subquery);
    }

    #[test]
    fn describe_without_body() {
        let f = feats("DESCRIBE <http://example.org/thing>");
        assert_eq!(f.form, QueryForm::Describe);
        assert!(!f.has_body);
        assert_eq!(f.total_triples(), 0);
        assert!(!f.is_select_or_ask());
    }

    #[test]
    fn property_paths_and_values() {
        let f = feats("SELECT ?x WHERE { ?x <http://a>/<http://b> ?y VALUES ?x { <http://v> } }");
        assert!(f.uses_property_path);
        assert!(f.uses_values);
        assert_eq!(f.path_patterns, 1);
    }

    #[test]
    fn not_exists_and_minus() {
        let f = feats(
            "SELECT ?x WHERE { ?x a <http://C> FILTER NOT EXISTS { ?x <http://p> ?y } MINUS { ?x a <http://D> } }",
        );
        assert!(f.uses_not_exists);
        assert!(f.uses_minus);
        assert!(!f.uses_exists);
    }
}
