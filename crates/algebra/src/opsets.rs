//! Operator-set classification of query bodies (Table 3 / Table 8).
//!
//! For each SELECT/ASK query the paper asks: which subset of the operators
//! O = {Filter, And, Opt, Graph, Union} does the body use — provided the body
//! uses *only* constructs built from these operators. Queries whose body uses
//! anything else (MINUS, BIND, subqueries, property paths, …) fall into the
//! `OtherFeatures` class; queries that use a combination of O-operators not
//! listed in the table fall into `OtherCombination` (the paper lists the
//! combinations explicitly; we keep all 32 subsets and let the report decide
//! what to print).

use crate::features::QueryFeatures;
use crate::tally::{CounterSink, CounterSource, MapKey};
use crate::walk::BodyOps;
use serde::{Deserialize, Serialize};
use sparqlog_parser::ast_ref::Query;
use std::collections::BTreeMap;

/// The five operators of Table 3, used as bit flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OperatorSet(u8);

impl OperatorSet {
    /// The empty operator set ("none" row of Table 3).
    pub const NONE: OperatorSet = OperatorSet(0);
    /// Filter (F).
    pub const FILTER: u8 = 1 << 0;
    /// And (A).
    pub const AND: u8 = 1 << 1;
    /// Opt (O).
    pub const OPT: u8 = 1 << 2;
    /// Graph (G).
    pub const GRAPH: u8 = 1 << 3;
    /// Union (U).
    pub const UNION: u8 = 1 << 4;

    /// Builds a set from individual flags.
    pub fn new(filter: bool, and: bool, opt: bool, graph: bool, union: bool) -> Self {
        let mut bits = 0;
        if filter {
            bits |= Self::FILTER;
        }
        if and {
            bits |= Self::AND;
        }
        if opt {
            bits |= Self::OPT;
        }
        if graph {
            bits |= Self::GRAPH;
        }
        if union {
            bits |= Self::UNION;
        }
        OperatorSet(bits)
    }

    /// Whether Filter is in the set.
    pub fn has_filter(&self) -> bool {
        self.0 & Self::FILTER != 0
    }
    /// Whether And is in the set.
    pub fn has_and(&self) -> bool {
        self.0 & Self::AND != 0
    }
    /// Whether Opt is in the set.
    pub fn has_opt(&self) -> bool {
        self.0 & Self::OPT != 0
    }
    /// Whether Graph is in the set.
    pub fn has_graph(&self) -> bool {
        self.0 & Self::GRAPH != 0
    }
    /// Whether Union is in the set.
    pub fn has_union(&self) -> bool {
        self.0 & Self::UNION != 0
    }

    /// True if the set is a subset of {And, Filter} — i.e. the query is a
    /// *conjunctive pattern with filters* (CPF, Definition 4.1).
    pub fn is_cpf(&self) -> bool {
        self.0 & !(Self::AND | Self::FILTER) == 0
    }

    /// The raw flag bits of the set — the stable wire representation used by
    /// snapshot codecs (e.g. `sparqlog-shard`). Always round-trips through
    /// [`OperatorSet::from_bits`].
    pub fn bits(&self) -> u8 {
        self.0
    }

    /// Rebuilds a set from its raw flag bits, or `None` if `bits` carries
    /// flags outside the five operators of Table 3 (a decoder's
    /// invalid-value case).
    pub fn from_bits(bits: u8) -> Option<OperatorSet> {
        const ALL: u8 = OperatorSet::FILTER
            | OperatorSet::AND
            | OperatorSet::OPT
            | OperatorSet::GRAPH
            | OperatorSet::UNION;
        (bits & !ALL == 0).then_some(OperatorSet(bits))
    }

    /// The paper's label for this set, e.g. `"A, O, F"`, `"none"`.
    pub fn label(&self) -> String {
        if self.0 == 0 {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if self.has_and() {
            parts.push("A");
        }
        if self.has_opt() {
            parts.push("O");
        }
        if self.has_graph() {
            parts.push("G");
        }
        if self.has_union() {
            parts.push("U");
        }
        if self.has_filter() {
            parts.push("F");
        }
        parts.join(", ")
    }
}

/// One raw byte, its flag bits.
impl<V> MapKey<V> for OperatorSet {
    const DUPLICATE: &'static str = "duplicate operator-set key";

    fn code(self) -> u64 {
        u64::from(self.bits())
    }

    fn put(self, sink: &mut impl CounterSink) {
        sink.put_byte(self.bits());
    }

    fn take<S: CounterSource>(source: &mut S) -> Result<OperatorSet, S::Error> {
        let bits = source.take_byte()?;
        OperatorSet::from_bits(bits)
            .ok_or_else(|| source.invalid("operator-set bits", u64::from(bits)))
    }
}

/// The classification of one query for Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpSetClass {
    /// The body uses only O-operators; the payload is the exact set used.
    Pure(OperatorSet),
    /// The body uses features outside O (Bind, Minus, subqueries, property
    /// paths, VALUES, SERVICE, EXISTS …).
    OtherFeatures,
}

/// Classifies a query body for Table 3.
pub fn classify_opset(q: &Query<'_>) -> OpSetClass {
    let ops = BodyOps::of_query(q);
    classify_from_ops(&ops)
}

/// Classifies from precomputed [`BodyOps`] counters.
pub fn classify_from_ops(ops: &BodyOps) -> OpSetClass {
    if ops.uses_non_table3_features() {
        return OpSetClass::OtherFeatures;
    }
    OpSetClass::Pure(OperatorSet::new(
        ops.filters > 0,
        ops.uses_and(),
        ops.optionals > 0,
        ops.graphs > 0,
        ops.unions > 0,
    ))
}

/// Classifies from a [`QueryFeatures`] record (used by the corpus pipeline so
/// the AST does not need to be kept around).
pub fn classify_from_features(f: &QueryFeatures) -> OpSetClass {
    if f.uses_property_path
        || f.uses_minus
        || f.uses_bind
        || f.uses_service
        || f.uses_subquery
        || f.uses_not_exists
        || f.uses_exists
        || f.uses_values
    {
        return OpSetClass::OtherFeatures;
    }
    OpSetClass::Pure(OperatorSet::new(
        f.uses_filter,
        f.uses_and,
        f.uses_optional,
        f.uses_graph,
        f.uses_union,
    ))
}

crate::tally! {
    /// Aggregated operator-set distribution over SELECT/ASK queries.
    #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct OpSetTally {
        /// Count per exact operator set.
        sum pub pure: BTreeMap<OperatorSet, u64>,
        /// Queries using features outside O.
        sum pub other_features: u64,
        /// Total SELECT/ASK queries recorded.
        sum pub total: u64,
    }
}

impl OpSetTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one classified query.
    pub fn add(&mut self, class: OpSetClass) {
        self.total += 1;
        match class {
            OpSetClass::Pure(set) => *self.pure.entry(set).or_insert(0) += 1,
            OpSetClass::OtherFeatures => self.other_features += 1,
        }
    }

    /// The number of queries whose body is a conjunctive pattern with filters
    /// (the "CPF subtotal" row of Table 3).
    pub fn cpf_subtotal(&self) -> u64 {
        self.pure
            .iter()
            .filter(|(set, _)| set.is_cpf())
            .map(|(_, n)| *n)
            .sum()
    }

    /// The number of extra queries covered when Opt is added to the CPF
    /// fragment (the "CPF+O" row): sets that are subsets of {A, F, O} but use
    /// Opt.
    pub fn cpf_plus_opt_increment(&self) -> u64 {
        self.subset_increment(OperatorSet::AND | OperatorSet::FILTER | OperatorSet::OPT)
    }

    /// Extra queries covered when Graph is added to CPF ("CPF+G").
    pub fn cpf_plus_graph_increment(&self) -> u64 {
        self.subset_increment(OperatorSet::AND | OperatorSet::FILTER | OperatorSet::GRAPH)
    }

    /// Extra queries covered when Union is added to CPF ("CPF+U").
    pub fn cpf_plus_union_increment(&self) -> u64 {
        self.subset_increment(OperatorSet::AND | OperatorSet::FILTER | OperatorSet::UNION)
    }

    fn subset_increment(&self, allowed: u8) -> u64 {
        self.pure
            .iter()
            .filter(|(set, _)| set.0 & !allowed == 0 && !set.is_cpf())
            .map(|(_, n)| *n)
            .sum()
    }

    /// Count of the AOF patterns (subsets of {A, O, F}) — Section 5.
    pub fn aof_count(&self) -> u64 {
        self.pure
            .iter()
            .filter(|(set, _)| {
                set.0 & !(OperatorSet::AND | OperatorSet::FILTER | OperatorSet::OPT) == 0
            })
            .map(|(_, n)| *n)
            .sum()
    }

    /// Returns `(label, count, share)` rows ordered by descending count.
    pub fn rows(&self) -> Vec<(String, u64, f64)> {
        let total = self.total.max(1) as f64;
        let mut rows: Vec<(String, u64, f64)> = self
            .pure
            .iter()
            .map(|(set, n)| (set.label(), *n, *n as f64 / total))
            .collect();
        rows.push((
            "other features".to_string(),
            self.other_features,
            self.other_features as f64 / total,
        ));
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparqlog_parser::{parse_query_in, Arena};

    fn classify(q: &str) -> OpSetClass {
        let arena = Arena::new();
        classify_opset(&parse_query_in(q, &arena).unwrap())
    }

    #[test]
    fn classifies_none_and_single_operators() {
        assert_eq!(
            classify("SELECT ?x WHERE { ?x a <http://C> }"),
            OpSetClass::Pure(OperatorSet::NONE)
        );
        assert_eq!(
            classify("SELECT ?x WHERE { ?x a <http://C> FILTER(?x != 1) }"),
            OpSetClass::Pure(OperatorSet::new(true, false, false, false, false))
        );
        assert_eq!(
            classify("SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y }"),
            OpSetClass::Pure(OperatorSet::new(false, true, false, false, false))
        );
    }

    #[test]
    fn classifies_combinations() {
        let c = classify(
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y OPTIONAL { ?y <http://q> ?z } FILTER(?z > 1) }",
        );
        let OpSetClass::Pure(set) = c else { panic!() };
        assert!(set.has_and() && set.has_opt() && set.has_filter());
        assert!(!set.has_union() && !set.has_graph());
        assert_eq!(set.label(), "A, O, F");
    }

    #[test]
    fn other_features_bucket() {
        assert_eq!(
            classify("SELECT ?x WHERE { ?x <http://a>/<http://b> ?y }"),
            OpSetClass::OtherFeatures
        );
        assert_eq!(
            classify("SELECT ?x WHERE { ?x a <http://C> MINUS { ?x a <http://D> } }"),
            OpSetClass::OtherFeatures
        );
        assert_eq!(
            classify("SELECT ?x WHERE { ?x a <http://C> BIND(1 AS ?y) }"),
            OpSetClass::OtherFeatures
        );
    }

    #[test]
    fn cpf_and_rollups() {
        let mut t = OpSetTally::new();
        for q in [
            "SELECT ?x WHERE { ?x a <http://C> }",                 // none
            "SELECT ?x WHERE { ?x a <http://C> FILTER(?x != 1) }", // F
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y }", // A
            "SELECT ?x WHERE { ?x a <http://C> OPTIONAL { ?x <http://p> ?y } }", // O
            "SELECT ?x WHERE { GRAPH ?g { ?x a <http://C> } }",    // G
            "SELECT ?x WHERE { { ?x a <http://C> } UNION { ?x a <http://D> } }", // U
            "SELECT ?x WHERE { ?x <http://a>* ?y }",               // other
        ] {
            t.add(classify(q));
        }
        assert_eq!(t.total, 7);
        assert_eq!(t.cpf_subtotal(), 3); // none, F, A
        assert_eq!(t.cpf_plus_opt_increment(), 1);
        assert_eq!(t.cpf_plus_graph_increment(), 1);
        assert_eq!(t.cpf_plus_union_increment(), 1);
        assert_eq!(t.other_features, 1);
        assert_eq!(t.aof_count(), 4);
    }

    #[test]
    fn bits_round_trip_every_subset() {
        for bits in 0u8..32 {
            let set = OperatorSet::from_bits(bits).expect("all 5-bit values are valid sets");
            assert_eq!(set.bits(), bits);
            assert_eq!(
                set,
                OperatorSet::new(
                    set.has_filter(),
                    set.has_and(),
                    set.has_opt(),
                    set.has_graph(),
                    set.has_union()
                )
            );
        }
        assert_eq!(OperatorSet::from_bits(0b10_0000), None);
        assert_eq!(OperatorSet::from_bits(0xFF), None);
    }

    #[test]
    fn labels_follow_paper_convention() {
        assert_eq!(OperatorSet::NONE.label(), "none");
        assert_eq!(
            OperatorSet::new(true, true, true, false, true).label(),
            "A, O, U, F"
        );
        assert_eq!(
            OperatorSet::new(false, false, false, true, false).label(),
            "G"
        );
    }

    #[test]
    fn rows_are_sorted_by_count() {
        let mut t = OpSetTally::new();
        for _ in 0..3 {
            t.add(classify("SELECT ?x WHERE { ?x a <http://C> }"));
        }
        t.add(classify(
            "SELECT ?x WHERE { ?x a <http://C> FILTER(?x != 1) }",
        ));
        let rows = t.rows();
        assert_eq!(rows[0].0, "none");
        assert_eq!(rows[0].1, 3);
    }
}
