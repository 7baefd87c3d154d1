//! The per-dataset and corpus-level analysis record combining every measure
//! of the paper: shallow statistics, fragments, shapes, widths, property
//! paths.
//!
//! A [`DatasetAnalysis`] is a bundle of tallies, each a commutative sum or
//! an idempotent extremum over exact integers. One per-query record
//! ([`QueryAnalysis`]) folds into it with [`DatasetAnalysis::add`] — or
//! `times` at once with [`DatasetAnalysis::add_times`] — and two bundles
//! [`merge`](DatasetAnalysis::merge). The fused engine
//! ([`crate::fused::analyze_streams`]) folds on a chunked self-scheduling
//! pool with per-worker accumulators; because every operation commutes, the
//! result is independent of worker count and chunk schedule.

use crate::cache::CacheStats;
use crate::corpus::CorpusCounts;
use crate::query_analysis::QueryAnalysis;
use crate::recover::ErrorTally;
use serde::{Deserialize, Serialize};
use sparqlog_algebra::opsets::classify_from_features;
use sparqlog_algebra::tally::{CounterSink, CounterSource, MapKey};
use sparqlog_algebra::{FragmentTally, KeywordTally, OpSetTally, ProjectionTally, TripleHistogram};
use sparqlog_graph::{ShapeTally, StructuralReport};
use sparqlog_parser::ast_ref::PropertyPath;
use sparqlog_parser::intern::InternStats;
use sparqlog_paths::{classify_path, tractability, PathExpressionType, Tractability};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

sparqlog_algebra::tally! {
    /// Size histogram of CQ-like queries with at least two triples (Figure 5 /
    /// Figure 9): buckets for 2..=10 triples and 11+.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct FragmentSizeHistogram {
        /// Counts for exactly 2..=10 triples (index 0 = 2 triples).
        sum pub buckets: [u64; 9],
        /// Count for 11 or more triples.
        sum pub eleven_plus: u64,
        /// Queries with exactly one triple (reported in the Figure-5 caption).
        sum pub one_triple: u64,
        /// Total queries in the fragment.
        sum pub total: u64,
        /// The largest query observed (number of triples).
        max pub max_triples: u32,
    }
}

impl FragmentSizeHistogram {
    /// Records one query of the fragment with the given triple count.
    pub fn add(&mut self, triples: u32) {
        self.total += 1;
        self.max_triples = self.max_triples.max(triples);
        match triples {
            0 | 1 => self.one_triple += u64::from(triples == 1),
            2..=10 => self.buckets[(triples - 2) as usize] += 1,
            _ => self.eleven_plus += 1,
        }
    }

    /// The share of one-triple queries in the fragment.
    pub fn one_triple_share(&self) -> f64 {
        self.one_triple as f64 / self.total.max(1) as f64
    }
}

sparqlog_algebra::tally! {
    /// Aggregated hypertree-width results for variable-predicate CQOF queries
    /// (Section 6.2).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct HypertreeTally {
        /// Queries analysed through their hypergraph.
        sum pub total: u64,
        /// Hypertree width 1 (acyclic).
        sum pub width1: u64,
        /// Hypertree width 2.
        sum pub width2: u64,
        /// Hypertree width 3.
        sum pub width3: u64,
        /// Width 4 or more, or inexact results.
        sum pub wider_or_unknown: u64,
        /// Decompositions with more than 100 nodes.
        sum pub over_100_nodes: u64,
        /// The largest decomposition node count observed.
        max pub max_nodes: u64,
    }
}

impl HypertreeTally {
    /// Records a hypertree result.
    pub fn add(&mut self, width: usize, nodes: usize, exact: bool) {
        self.total += 1;
        if !exact {
            self.wider_or_unknown += 1;
        } else {
            match width {
                0 | 1 => self.width1 += 1,
                2 => self.width2 += 1,
                3 => self.width3 += 1,
                _ => self.wider_or_unknown += 1,
            }
        }
        self.max_nodes = self.max_nodes.max(nodes as u64);
        if nodes > 100 {
            self.over_100_nodes += 1;
        }
    }
}

sparqlog_algebra::tally! {
    /// Aggregated property-path statistics over a corpus (the inputs to
    /// Table 5).
    #[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
    pub struct PathTally {
        /// Total property paths seen (including trivial / pre-table forms).
        sum pub total: u64,
        /// `!a` expressions.
        sum pub negated_literal: u64,
        /// `^a` expressions.
        sum pub inverse_literal: u64,
        /// Navigational expressions (everything else), keyed by expression
        /// type, with the count and the observed range of `k`.
        sum pub by_type: BTreeMap<PathExpressionType, TypeEntry>,
        /// Navigational expressions using reverse navigation (`^`).
        sum pub with_inverse: u64,
        /// Expressions outside the syntactic C_tract fragment.
        sum pub potentially_hard: u64,
    }
}

/// One Table-5 row: `(label, count, share of navigational expressions,
/// observed k range)`.
pub type PathRow = (String, u64, f64, Option<(usize, usize)>);

sparqlog_algebra::tally! {
    /// Count and `k` range for one expression type.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
    pub struct TypeEntry {
        /// Number of expressions of this type.
        sum pub count: u64,
        /// Minimum observed `k`, when the type is parameterised.
        min pub min_k: Option<usize>,
        /// Maximum observed `k`.
        max pub max_k: Option<usize>,
    }
}

/// One raw byte, the type's wire code.
impl MapKey<TypeEntry> for PathExpressionType {
    const DUPLICATE: &'static str = "duplicate path-expression-type key";

    fn code(self) -> u64 {
        u64::from(PathExpressionType::code(self))
    }

    fn put(self, sink: &mut impl CounterSink) {
        sink.put_byte(PathExpressionType::code(self));
    }

    fn take<S: CounterSource>(source: &mut S) -> Result<PathExpressionType, S::Error> {
        let code = source.take_byte()?;
        PathExpressionType::from_code(code)
            .ok_or_else(|| source.invalid("path-expression-type code", u64::from(code)))
    }
}

impl PathTally {
    /// Records one property path.
    pub fn add(&mut self, p: &PropertyPath<'_>) {
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

sparqlog_algebra::tally! {
    /// The complete analysis of one dataset (or of the whole corpus, when
    /// merged).
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct DatasetAnalysis {
        /// The dataset label.
        keep pub label: String,
        /// Table-1 counts.
        sum pub counts: CorpusCounts,
        /// The malformed-entry tally of this dataset (per-kind counts and the
        /// earliest offending positions). Set from the log header like
        /// `counts`, never from the per-query fold — worker accumulators carry
        /// empty tallies, and the corpus-level merge aggregates them into the
        /// "Total" row.
        sum pub errors: ErrorTally,
        /// Keyword census (Table 2 / 7).
        sum pub keywords: KeywordTally,
        /// Triples-per-query histogram (Figure 1 / 8).
        sum pub triples: TripleHistogram,
        /// Operator-set distribution over SELECT/ASK queries (Table 3 / 8).
        sum pub opsets: OpSetTally,
        /// Projection statistics (Section 4.4).
        sum pub projection: ProjectionTally,
        /// Fragment shares (Section 5.2).
        sum pub fragments: FragmentTally,
        /// Shape analysis of the (cumulative) CQ fragment (Table 4, left).
        sum pub shapes_cq: ShapeTally,
        /// Shape analysis of the CQF fragment (Table 4, middle).
        sum pub shapes_cqf: ShapeTally,
        /// Shape analysis of the CQOF fragment (Table 4, right).
        sum pub shapes_cqof: ShapeTally,
        /// Size histograms of the CQ / CQF / CQOF fragments (Figure 5 / 9).
        sum pub sizes_cq: FragmentSizeHistogram,
        /// Size histogram of the CQF fragment.
        sum pub sizes_cqf: FragmentSizeHistogram,
        /// Size histogram of the CQOF fragment.
        sum pub sizes_cqof: FragmentSizeHistogram,
        /// Shortest-cycle-length distribution of cyclic queries (Section 6.1).
        sum pub cycle_lengths: BTreeMap<usize, u64>,
        /// Hypertree-width results for variable-predicate queries (Section 6.2).
        sum pub hypertree: HypertreeTally,
        /// Property-path statistics (Table 5 / Figure 10, Section 7).
        sum pub paths: PathTally,
        /// Single-edge CQs whose edge involves a constant (Section 6.1 rerun).
        sum pub single_edge_with_constants: u64,
    }
}

impl DatasetAnalysis {
    /// Folds an already-computed per-query analysis into the tallies `times`
    /// times at once — the occurrence-weighted fold of the fused streaming
    /// engine ([`crate::fused::analyze_streams`]), which records each
    /// distinct canonical form together with its occurrence count instead of
    /// re-folding the memoized record per occurrence.
    ///
    /// Exactly equivalent to calling [`DatasetAnalysis::add`] `times` times:
    /// every tally is a combination of additive counters (which scale by
    /// `times`) and extrema (which are idempotent under repeated adds of the
    /// same record). `times == 0` is a no-op.
    pub fn add_times(&mut self, qa: &QueryAnalysis, times: u64) {
        match times {
            0 => {}
            1 => self.add(qa),
            _ => {
                let mut unit = DatasetAnalysis::default();
                unit.add(qa);
                // `scale` repeats error exemplars, but `unit` has none: error
                // tallies are set per log, never by the per-query fold.
                unit.scale(times);
                self.merge(&unit);
            }
        }
    }

    /// Folds an already-computed per-query analysis into the tallies without
    /// touching the query again.
    pub fn add(&mut self, qa: &QueryAnalysis) {
        self.keywords.add(&qa.features);
        self.triples.add(&qa.features);
        self.projection
            .record(qa.form, qa.projection, qa.has_subqueries);
        self.paths.merge(&qa.paths);
        if qa.features.is_select_or_ask() {
            self.opsets.add(classify_from_features(&qa.features));
        }
        self.fold_structural(&qa.structural);
    }

    /// Folds a structural report into the fragment, shape, size, cycle and
    /// width tallies (shared by the single-pass and the
    /// [`crate::baseline`] multi-walk paths).
    pub(crate) fn fold_structural(&mut self, structural: &StructuralReport) {
        self.fragments.add(&structural.fragments);
        if structural.fragments.select_or_ask {
            let tw = structural.treewidth.unwrap_or(1);
            if let Some(shape) = &structural.shape {
                if structural.fragments.in_cq() {
                    self.shapes_cq.add(shape, tw);
                }
                if structural.fragments.in_cqf() {
                    self.shapes_cqf.add(shape, tw);
                }
                if structural.fragments.in_cqof() {
                    self.shapes_cqof.add(shape, tw);
                }
                if shape.single_edge {
                    if let Some(vars_only) = &structural.shape_vars_only {
                        if !vars_only.single_edge {
                            self.single_edge_with_constants += 1;
                        }
                    }
                }
            }
            if structural.fragments.in_cq() {
                self.sizes_cq.add(structural.triples);
            }
            if structural.fragments.in_cqf() {
                self.sizes_cqf.add(structural.triples);
            }
            if structural.fragments.in_cqof() {
                self.sizes_cqof.add(structural.triples);
            }
            if let Some(girth) = structural.shortest_cycle {
                *self.cycle_lengths.entry(girth).or_insert(0) += 1;
            }
            if let Some(ht) = structural.hypertree {
                self.hypertree.add(ht.width, ht.nodes, ht.exact);
            }
        }
    }
}

/// Which population of queries an analysis runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Population {
    /// The deduplicated queries (the paper's main corpus, Tables 1–6).
    Unique,
    /// All valid queries including duplicates (the appendix: Tables 7–9,
    /// Figures 8–10).
    Valid,
}

impl Population {
    /// The population's byte in the serve protocol, in the snapshot
    /// store's job manifests and in log identities: 0 unique, 1 valid.
    pub fn code(self) -> u8 {
        match self {
            Population::Unique => 0,
            Population::Valid => 1,
        }
    }

    /// The population a [`code`](Population::code) names, if any.
    pub fn from_code(code: u8) -> Option<Population> {
        match code {
            0 => Some(Population::Unique),
            1 => Some(Population::Valid),
            _ => None,
        }
    }

    /// The population's spelling on a worker's command line (`--population
    /// unique|valid`).
    pub fn spelling(self) -> &'static str {
        match self {
            Population::Unique => "unique",
            Population::Valid => "valid",
        }
    }

    /// The population a [`spelling`](Population::spelling) names, if any.
    pub fn parse(text: &str) -> Option<Population> {
        match text {
            "unique" => Some(Population::Unique),
            "valid" => Some(Population::Valid),
            _ => None,
        }
    }
}

/// The analysis of a whole corpus: one record per dataset plus the combined
/// totals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CorpusAnalysis {
    /// Per-dataset analyses, in input order.
    pub datasets: Vec<DatasetAnalysis>,
    /// The merged, corpus-level analysis.
    pub combined: DatasetAnalysis,
}

/// Observability counters of one analysis run: what the fingerprint cache
/// absorbed and what the per-worker term interners saved. Reported in
/// [`FusedAnalysis::stats`](crate::fused::FusedAnalysis) and surfaced in the
/// harness banners; never part of the corpus report itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisStats {
    /// Cumulative cache counters, when the run used a cache.
    pub cache: Option<CacheStats>,
    /// Combined counters of every worker's term interner.
    pub interner: InternStats,
}

/// Runs `fold` over `items` on a chunked, self-scheduling worker pool with
/// per-worker dataset accumulators, returning every worker's accumulators.
/// Every fold in this crate is commutative, so the schedule never changes
/// the merged result.
pub(crate) fn chunked_fold_pool<T: Sync>(
    items: &[T],
    dataset_count: usize,
    workers: usize,
    chunk_size: usize,
    fold: impl Fn(&mut [DatasetAnalysis], &T) + Sync,
) -> Vec<Vec<DatasetAnalysis>> {
    let fresh_accumulators = || -> Vec<DatasetAnalysis> {
        (0..dataset_count)
            .map(|_| DatasetAnalysis::default())
            .collect()
    };
    let chunks: Vec<&[T]> = items.chunks(chunk_size.max(1)).collect();
    let workers = workers.min(chunks.len()).max(1);
    if workers == 1 {
        let mut acc = fresh_accumulators();
        for item in items {
            fold(&mut acc, item);
        }
        return vec![acc];
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut acc = fresh_accumulators();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(chunk) = chunks.get(i) else { break };
                        for item in *chunk {
                            fold(&mut acc, item);
                        }
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fold workers must not panic"))
            .collect()
    })
}

impl CorpusAnalysis {
    /// The corpus of `datasets`, in the given order, with the "Total" row
    /// merged from them (all tallies are commutative sums / maxima).
    pub fn from_datasets(datasets: Vec<DatasetAnalysis>) -> CorpusAnalysis {
        let mut combined = DatasetAnalysis {
            label: "Total".to_string(),
            ..DatasetAnalysis::default()
        };
        for dataset in &datasets {
            combined.merge(dataset);
        }
        CorpusAnalysis { datasets, combined }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{analyze_streams, test_readers};

    fn analyze(logs: &[(&str, &[&str])], population: Population) -> CorpusAnalysis {
        analyze_streams(test_readers(logs), population)
            .expect("in-memory streams")
            .corpus
    }

    fn analysis_of(entries: &[&str]) -> DatasetAnalysis {
        let corpus = analyze(&[("t", entries)], Population::Unique);
        corpus.datasets.into_iter().next().unwrap()
    }

    #[test]
    fn populations_round_trip_through_code_and_spelling() {
        for population in [Population::Unique, Population::Valid] {
            assert_eq!(Population::from_code(population.code()), Some(population));
            assert_eq!(Population::parse(population.spelling()), Some(population));
        }
        assert_eq!(Population::from_code(2), None);
        assert_eq!(Population::parse("Unique"), None);
    }

    #[test]
    fn per_query_measures_flow_into_tallies() {
        let a = analysis_of(&[
            "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) } LIMIT 5",
            "ASK { <http://s> <http://p> <http://o> }",
            "SELECT ?x WHERE { ?x <http://a>/<http://b>* ?y }",
            "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
            "DESCRIBE <http://r>",
        ]);
        assert_eq!(a.counts.valid, 5);
        assert_eq!(a.keywords.select, 2);
        assert_eq!(a.keywords.ask, 2);
        assert_eq!(a.keywords.filter, 1);
        assert_eq!(a.paths.total, 1);
        assert_eq!(a.opsets.total, 4); // select/ask only
                                       // The triangle ASK query is a cycle with girth 3.
        assert_eq!(a.cycle_lengths.get(&3), Some(&1));
        assert!(a.shapes_cq.cycle >= 1);
        assert!(a.fragments.cq >= 2);
    }

    #[test]
    fn population_valid_keeps_duplicates() {
        let entries = [
            "SELECT ?x WHERE { ?x a <http://C> }",
            "SELECT ?x WHERE { ?x a <http://C> }",
            "SELECT ?y WHERE { ?y a <http://D> }",
        ];
        let unique = analyze(&[("t", &entries)], Population::Unique);
        let valid = analyze(&[("t", &entries)], Population::Valid);
        assert_eq!(unique.combined.keywords.total_queries, 2);
        assert_eq!(valid.combined.keywords.total_queries, 3);
    }

    #[test]
    fn combined_analysis_merges_datasets() {
        let corpus = analyze(
            &[
                ("a", &["SELECT ?x WHERE { ?x a <http://C> }"]),
                ("b", &["ASK { ?x <http://p> ?y }"]),
            ],
            Population::Unique,
        );
        assert_eq!(corpus.datasets.len(), 2);
        assert_eq!(corpus.combined.keywords.total_queries, 2);
        assert_eq!(corpus.combined.counts.total, 2);
    }

    #[test]
    fn variable_predicate_queries_feed_the_hypertree_tally() {
        let a = analysis_of(&["ASK { ?x1 ?p ?x2 . ?x2 <http://a> ?x3 . ?x3 ?p ?x4 }"]);
        assert_eq!(a.hypertree.total, 1);
        assert!(a.hypertree.width1 + a.hypertree.width2 + a.hypertree.width3 == 1);
    }

    #[test]
    fn fragment_size_histogram_buckets() {
        let mut h = FragmentSizeHistogram::default();
        h.add(1);
        h.add(2);
        h.add(10);
        h.add(25);
        assert_eq!(h.one_triple, 1);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[8], 1);
        assert_eq!(h.eleven_plus, 1);
        assert_eq!(h.max_triples, 25);
        assert!((h.one_triple_share() - 0.25).abs() < 1e-9);
    }

    /// The path tally of one query with a pattern `?s <expr> ?oN` per `expr`,
    /// so every expression goes through `PathTally::add` on the same tally.
    fn path_tally(exprs: &[&str]) -> PathTally {
        let patterns: Vec<String> = exprs
            .iter()
            .enumerate()
            .map(|(i, expr)| format!("?s {expr} ?o{i}"))
            .collect();
        QueryAnalysis::of_text(&format!("ASK {{ {} }}", patterns.join(" . ")))
            .unwrap()
            .paths
    }

    #[test]
    fn path_tally_separates_pre_table_and_navigational() {
        let t = path_tally(&["!<a>", "^<a>", "<a>*", "(<a>|<b>)*", "(<a>/<b>)*"]);
        assert_eq!(t.total, 5);
        assert_eq!(t.negated_literal, 1);
        assert_eq!(t.inverse_literal, 1);
        assert_eq!(t.navigational(), 3);
        assert_eq!(t.potentially_hard, 1);
    }

    #[test]
    fn path_k_ranges_are_tracked() {
        let t = path_tally(&["<a>/<b>", "<a>/<b>/<c>/<d>/<e>/<f>"]);
        let entry = t.by_type[&PathExpressionType::SequenceOfLiterals];
        assert_eq!(entry.count, 2);
        assert_eq!(entry.min_k, Some(2));
        assert_eq!(entry.max_k, Some(6));
    }

    #[test]
    fn path_rows_sorted_by_count() {
        let rows = path_tally(&["<a>*", "<a>*", "<a>*", "<a>/<b>"]).rows();
        assert_eq!(rows[0].0, "a*");
        assert_eq!(rows[0].1, 3);
        assert!((rows[0].2 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn path_merge_combines_ranges() {
        let mut a = path_tally(&["<a>/<b>"]);
        a.merge(&path_tally(&["<a>/<b>/<c>", "^<x>/<y>"]));
        let entry = a.by_type[&PathExpressionType::SequenceOfLiterals];
        assert_eq!(entry.count, 3);
        assert_eq!(entry.max_k, Some(3));
        assert_eq!(a.with_inverse, 1);
    }

    #[test]
    fn single_edge_constant_rerun_counter() {
        // A single-edge CQ with a constant object: with constants it is a
        // single edge, with variables only it is not.
        let a = analysis_of(&["SELECT ?x WHERE { ?x <http://p> <http://const> }"]);
        assert_eq!(a.single_edge_with_constants, 1);
    }
}
