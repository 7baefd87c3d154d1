//! Keyword census across a corpus (Table 2 / Table 7 of the paper).

use crate::features::QueryFeatures;
use serde::{Deserialize, Serialize};
use sparqlog_parser::ast_ref::QueryForm;

/// The keyword rows reported in Table 2 of the paper, in the paper's order.
pub const KEYWORD_ROWS: &[&str] = &[
    "Select",
    "Ask",
    "Describe",
    "Construct",
    "Distinct",
    "Limit",
    "Offset",
    "Order By",
    "Filter",
    "And",
    "Union",
    "Opt",
    "Graph",
    "Not Exists",
    "Minus",
    "Exists",
    "Count",
    "Max",
    "Min",
    "Avg",
    "Sum",
    "Group By",
    "Having",
];

crate::tally! {
    /// Aggregated keyword usage counts over a set of queries.
    ///
    /// Each counter holds the number of *queries* that use the keyword at least
    /// once (not the number of keyword occurrences), matching the semantics of
    /// Table 2 in the paper.
    #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct KeywordTally {
        /// Total number of queries aggregated.
        sum pub total_queries: u64,
        /// Query-form counts.
        sum pub select: u64,
        /// Number of ASK queries.
        sum pub ask: u64,
        /// Number of DESCRIBE queries.
        sum pub describe: u64,
        /// Number of CONSTRUCT queries.
        sum pub construct: u64,
        /// Solution-modifier counts.
        sum pub distinct: u64,
        /// Queries with LIMIT.
        sum pub limit: u64,
        /// Queries with OFFSET.
        sum pub offset: u64,
        /// Queries with ORDER BY.
        sum pub order_by: u64,
        /// Body-operator counts.
        sum pub filter: u64,
        /// Queries using conjunction.
        sum pub and: u64,
        /// Queries using UNION.
        sum pub union: u64,
        /// Queries using OPTIONAL.
        sum pub opt: u64,
        /// Queries using GRAPH.
        sum pub graph: u64,
        /// Queries using NOT EXISTS.
        sum pub not_exists: u64,
        /// Queries using MINUS.
        sum pub minus: u64,
        /// Queries using EXISTS.
        sum pub exists: u64,
        /// Aggregation-operator counts.
        sum pub count: u64,
        /// Queries using MAX.
        sum pub max: u64,
        /// Queries using MIN.
        sum pub min: u64,
        /// Queries using AVG.
        sum pub avg: u64,
        /// Queries using SUM.
        sum pub sum: u64,
        /// Queries using GROUP BY.
        sum pub group_by: u64,
        /// Queries using HAVING.
        sum pub having: u64,
        /// Additional (sub-1%) features tracked for completeness.
        sum pub service: u64,
        /// Queries using BIND.
        sum pub bind: u64,
        /// Queries using VALUES.
        sum pub values: u64,
        /// Queries using REDUCED.
        sum pub reduced: u64,
        /// Queries using subqueries.
        sum pub subquery: u64,
        /// Queries using property paths.
        sum pub property_path: u64,
    }
}

impl KeywordTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query's features.
    pub fn add(&mut self, f: &QueryFeatures) {
        self.total_queries += 1;
        match f.form {
            QueryForm::Select => self.select += 1,
            QueryForm::Ask => self.ask += 1,
            QueryForm::Describe => self.describe += 1,
            QueryForm::Construct => self.construct += 1,
        }
        let bump = |cond: bool, slot: &mut u64| {
            if cond {
                *slot += 1;
            }
        };
        bump(f.uses_distinct, &mut self.distinct);
        bump(f.uses_limit, &mut self.limit);
        bump(f.uses_offset, &mut self.offset);
        bump(f.uses_order_by, &mut self.order_by);
        bump(f.uses_filter, &mut self.filter);
        bump(f.uses_and, &mut self.and);
        bump(f.uses_union, &mut self.union);
        bump(f.uses_optional, &mut self.opt);
        bump(f.uses_graph, &mut self.graph);
        bump(f.uses_not_exists, &mut self.not_exists);
        bump(f.uses_minus, &mut self.minus);
        bump(f.uses_exists, &mut self.exists);
        bump(f.aggregates.count, &mut self.count);
        bump(f.aggregates.max, &mut self.max);
        bump(f.aggregates.min, &mut self.min);
        bump(f.aggregates.avg, &mut self.avg);
        bump(f.aggregates.sum, &mut self.sum);
        bump(f.uses_group_by, &mut self.group_by);
        bump(f.uses_having, &mut self.having);
        bump(f.uses_service, &mut self.service);
        bump(f.uses_bind, &mut self.bind);
        bump(f.uses_values, &mut self.values);
        bump(f.uses_reduced, &mut self.reduced);
        bump(f.uses_subquery, &mut self.subquery);
        bump(f.uses_property_path, &mut self.property_path);
    }

    /// Returns the Table-2 rows as `(label, absolute count, relative share)`
    /// in the paper's order. The relative share is with respect to
    /// `total_queries` and expressed as a fraction in `[0, 1]`.
    pub fn rows(&self) -> Vec<(&'static str, u64, f64)> {
        let values = [
            ("Select", self.select),
            ("Ask", self.ask),
            ("Describe", self.describe),
            ("Construct", self.construct),
            ("Distinct", self.distinct),
            ("Limit", self.limit),
            ("Offset", self.offset),
            ("Order By", self.order_by),
            ("Filter", self.filter),
            ("And", self.and),
            ("Union", self.union),
            ("Opt", self.opt),
            ("Graph", self.graph),
            ("Not Exists", self.not_exists),
            ("Minus", self.minus),
            ("Exists", self.exists),
            ("Count", self.count),
            ("Max", self.max),
            ("Min", self.min),
            ("Avg", self.avg),
            ("Sum", self.sum),
            ("Group By", self.group_by),
            ("Having", self.having),
        ];
        let total = self.total_queries.max(1) as f64;
        values
            .into_iter()
            .map(|(name, v)| (name, v, v as f64 / total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_parser::{parse_query_in, Arena};

    fn tally(queries: &[&str]) -> KeywordTally {
        let arena = Arena::new();
        let mut t = KeywordTally::new();
        for q in queries {
            t.add(&QueryFeatures::of(&parse_query_in(q, &arena).unwrap()));
        }
        t
    }

    #[test]
    fn counts_query_forms() {
        let t = tally(&[
            "SELECT ?x WHERE { ?x a <http://C> }",
            "SELECT ?x WHERE { ?x a <http://C> }",
            "ASK { ?x a <http://C> }",
            "DESCRIBE <http://r>",
            "CONSTRUCT { ?x a <http://D> } WHERE { ?x a <http://C> }",
        ]);
        assert_eq!(t.total_queries, 5);
        assert_eq!(t.select, 2);
        assert_eq!(t.ask, 1);
        assert_eq!(t.describe, 1);
        assert_eq!(t.construct, 1);
    }

    #[test]
    fn counts_queries_not_occurrences() {
        // Two filters in one query count once.
        let t = tally(&["SELECT ?x WHERE { ?x a <http://C> FILTER(?x != 1) FILTER(?x != 2) }"]);
        assert_eq!(t.filter, 1);
    }

    #[test]
    fn rows_cover_all_table2_labels_in_order() {
        let t = tally(&["SELECT ?x WHERE { ?x a <http://C> }"]);
        let rows = t.rows();
        let labels: Vec<_> = rows.iter().map(|(l, _, _)| *l).collect();
        assert_eq!(labels, KEYWORD_ROWS);
        // Relative shares are fractions of the total.
        assert!((rows[0].2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counters() {
        let a = tally(&["SELECT ?x WHERE { ?x a <http://C> } LIMIT 5"]);
        let b = tally(&["ASK { ?x a <http://C> . ?x <http://p> ?y }"]);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.total_queries, 2);
        assert_eq!(m.limit, 1);
        assert_eq!(m.and, 1);
    }
}
