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
use crate::recover::{ErrorTally, RecoveryPolicy};
use serde::{Deserialize, Serialize};
use sparqlog_algebra::opsets::classify_from_features;
use sparqlog_algebra::{FragmentTally, KeywordTally, OpSetTally, ProjectionTally, TripleHistogram};
use sparqlog_graph::{ShapeTally, StructuralReport};
use sparqlog_parser::intern::InternStats;
use sparqlog_paths::PathTally;
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

/// The complete analysis of one dataset (or of the whole corpus, when
/// merged).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DatasetAnalysis {
    /// The dataset label.
    pub label: String,
    /// Table-1 counts.
    pub counts: CorpusCounts,
    /// The malformed-entry tally of this dataset (per-kind counts and the
    /// earliest offending positions). Set from the log header like
    /// `counts`, never from the per-query fold — worker accumulators carry
    /// empty tallies, and the corpus-level merge aggregates them into the
    /// "Total" row.
    pub errors: ErrorTally,
    /// Keyword census (Table 2 / 7).
    pub keywords: KeywordTally,
    /// Triples-per-query histogram (Figure 1 / 8).
    pub triples: TripleHistogram,
    /// Operator-set distribution over SELECT/ASK queries (Table 3 / 8).
    pub opsets: OpSetTally,
    /// Projection statistics (Section 4.4).
    pub projection: ProjectionTally,
    /// Fragment shares (Section 5.2).
    pub fragments: FragmentTally,
    /// Shape analysis of the (cumulative) CQ fragment (Table 4, left).
    pub shapes_cq: ShapeTally,
    /// Shape analysis of the CQF fragment (Table 4, middle).
    pub shapes_cqf: ShapeTally,
    /// Shape analysis of the CQOF fragment (Table 4, right).
    pub shapes_cqof: ShapeTally,
    /// Size histograms of the CQ / CQF / CQOF fragments (Figure 5 / 9).
    pub sizes_cq: FragmentSizeHistogram,
    /// Size histogram of the CQF fragment.
    pub sizes_cqf: FragmentSizeHistogram,
    /// Size histogram of the CQOF fragment.
    pub sizes_cqof: FragmentSizeHistogram,
    /// Shortest-cycle-length distribution of cyclic queries (Section 6.1).
    pub cycle_lengths: BTreeMap<usize, u64>,
    /// Hypertree-width results for variable-predicate queries (Section 6.2).
    pub hypertree: HypertreeTally,
    /// Property-path statistics (Table 5 / Figure 10, Section 7).
    pub paths: PathTally,
    /// Single-edge CQs whose edge involves a constant (Section 6.1 rerun).
    pub single_edge_with_constants: u64,
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
                unit.scale(times);
                self.merge(&unit);
            }
        }
    }

    /// Multiplies every additive counter of every tally by `times`, leaving
    /// extrema (`max_triples`, `max_nodes`, observed path-`k` ranges)
    /// untouched. A `DatasetAnalysis` built from one [`DatasetAnalysis::add`]
    /// and then scaled equals `times` repeated adds of the same record —
    /// the building block of [`DatasetAnalysis::add_times`].
    pub fn scale(&mut self, times: u64) {
        // `errors` is deliberately untouched: error tallies are header
        // state (set per log, like `label`), never part of the per-query
        // fold, so scaled accumulators always carry an empty tally.
        self.counts.scale(times);
        self.keywords.scale(times);
        self.triples.scale(times);
        self.opsets.scale(times);
        self.projection.scale(times);
        self.fragments.scale(times);
        self.shapes_cq.scale(times);
        self.shapes_cqf.scale(times);
        self.shapes_cqof.scale(times);
        self.sizes_cq.scale(times);
        self.sizes_cqf.scale(times);
        self.sizes_cqof.scale(times);
        for count in self.cycle_lengths.values_mut() {
            *count *= times;
        }
        self.hypertree.scale(times);
        self.paths.scale(times);
        self.single_edge_with_constants *= times;
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

    /// Merges another dataset analysis into this one (used to build the
    /// corpus-level "all datasets" row).
    pub fn merge(&mut self, other: &DatasetAnalysis) {
        self.counts.merge(&other.counts);
        self.errors.merge(&other.errors);
        self.keywords.merge(&other.keywords);
        self.triples.merge(&other.triples);
        self.opsets.merge(&other.opsets);
        self.projection.merge(&other.projection);
        self.fragments.merge(&other.fragments);
        self.shapes_cq.merge(&other.shapes_cq);
        self.shapes_cqf.merge(&other.shapes_cqf);
        self.shapes_cqof.merge(&other.shapes_cqof);
        self.sizes_cq.merge(&other.sizes_cq);
        self.sizes_cqf.merge(&other.sizes_cqf);
        self.sizes_cqof.merge(&other.sizes_cqof);
        for (len, count) in &other.cycle_lengths {
            *self.cycle_lengths.entry(*len).or_insert(0) += count;
        }
        self.hypertree.merge(&other.hypertree);
        self.paths.merge(&other.paths);
        self.single_edge_with_constants += other.single_edge_with_constants;
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

/// Merges per-worker accumulators into per-dataset headers (label and
/// counts already set) and builds the corpus-level "Total" row (all tallies
/// are commutative sums / maxima).
pub(crate) fn merge_into_corpus(
    mut datasets: Vec<DatasetAnalysis>,
    accumulators: &[Vec<DatasetAnalysis>],
) -> CorpusAnalysis {
    for acc in accumulators {
        for (dataset, partial) in datasets.iter_mut().zip(acc) {
            dataset.merge(partial);
        }
    }
    let mut combined = DatasetAnalysis {
        label: "Total".to_string(),
        ..DatasetAnalysis::default()
    };
    for dataset in &datasets {
        combined.merge(dataset);
    }
    CorpusAnalysis { datasets, combined }
}

impl CorpusAnalysis {
    /// Checks the corpus's merged error tally (the "Total" row) against the
    /// policy's error budget: `Ok(())` unless the resolved policy is an
    /// [`RecoveryPolicy::ErrorBudget`] whose defect rate is exceeded, in
    /// which case the error carries a
    /// [`BudgetExceeded`](crate::recover::BudgetExceeded) payload with the
    /// preserved tally. [`analyze_streams`](crate::fused::analyze_streams)
    /// runs this check itself; the shard coordinator, which assembles a
    /// [`CorpusAnalysis`] from worker partitions streamed as Lenient, calls
    /// it after the merge.
    pub fn enforce_budget(&self, policy: RecoveryPolicy) -> std::io::Result<()> {
        crate::recover::enforce_budget(policy, &self.combined.errors, self.combined.counts.total)
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

    #[test]
    fn single_edge_constant_rerun_counter() {
        // A single-edge CQ with a constant object: with constants it is a
        // single edge, with variables only it is not.
        let a = analysis_of(&["SELECT ?x WHERE { ?x <http://p> <http://const> }"]);
        assert_eq!(a.single_edge_with_constants, 1);
    }
}
