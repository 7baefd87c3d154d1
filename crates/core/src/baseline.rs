//! The oracle: a sequential reference implementation of the whole
//! pipeline, from raw entries to a [`CorpusAnalysis`], that the engine
//! ([`crate::fused`]) is tested against byte for byte.
//!
//! [`analyze_reference`] is deliberately the naive way to compute the
//! paper's analyses, and it differs from the engine in every layer it can:
//!
//! * **Fingerprint** — the canonical string is materialized
//!   ([`to_canonical_string_ref`]) and then hashed; the engine streams the
//!   canonical walk into the hash state.
//! * **Duplicates** — one `HashSet<u128>` per log, filled in entry order;
//!   the engine merges per-worker occurrence maps.
//! * **Analysis** — four independent entry points ([`QueryFeatures::of`],
//!   [`collect_property_paths`], [`sparqlog_algebra::ProjectionTally::add`]
//!   and the multi-walk structural report below), each re-traversing the
//!   query; the engine walks it once ([`crate::QueryAnalysis`]).
//! * **Memoization** — none: every analysed occurrence is analysed from
//!   scratch, so agreement with the engine *is* the cached-vs-uncached
//!   differential.
//! * **Schedule** — no threads.
//!
//! What the two share is the guarded per-entry parse (so an entry is
//! invalid, oversize, too deep or a caught panic for both alike, at the
//! same position), the tree it produces, and the [`DatasetAnalysis`] tallies
//! the results fold into. Sharing the tree costs the comparison nothing:
//! there is one parser, so a tree of the oracle's own could only be a
//! node-for-node copy of this one. What makes it an oracle is how it reads
//! the tree, and that is all above.

use crate::analysis::{CorpusAnalysis, DatasetAnalysis, Population};
use crate::corpus::RawLog;
use crate::recover::{RecoveryContext, RecoveryPolicy};
use sparqlog_algebra::fragments::{classify_fragments, variable_equalities};
use sparqlog_algebra::opsets::classify_from_features;
use sparqlog_algebra::pattern_tree::PatternTree;
use sparqlog_algebra::{collect_property_paths, QueryFeatures};
use sparqlog_graph::analyze::HypertreeReportEntry;
use sparqlog_graph::{
    generalized_hypertree_width, treewidth, CanonicalGraph, GraphMode, Hypergraph, ShapeReport,
    StructuralReport, Treewidth,
};
use sparqlog_parser::{canonical_fingerprint, to_canonical_string_ref, Arena, ErrorKind, Query};
use std::collections::HashSet;

/// Folds one query into the tallies through the multi-walk path: every
/// measure re-traverses the query independently.
pub fn add_query_multiwalk(analysis: &mut DatasetAnalysis, query: &Query<'_>) {
    let features = QueryFeatures::of(query);
    analysis.keywords.add(&features);
    analysis.triples.add(&features);
    analysis.projection.add(query);
    for p in collect_property_paths(query) {
        analysis.paths.add(&p);
    }
    if features.is_select_or_ask() {
        analysis.opsets.add(classify_from_features(&features));
    }
    let structural = structural_report_multiwalk(query);
    analysis.fold_structural(&structural);
}

/// The multi-walk structural report: the fragment
/// classification runs its own body walk, the pattern tree is built twice
/// (once inside `classify_fragments`, once here), the tree's triples are
/// copied out, and the two graph modes are constructed in two separate passes.
pub fn structural_report_multiwalk(query: &Query<'_>) -> StructuralReport {
    let fragments = classify_fragments(query);
    let mut report = StructuralReport {
        fragments,
        shape: None,
        shape_vars_only: None,
        treewidth: None,
        shortest_cycle: None,
        hypertree: None,
        triples: fragments.triples,
    };
    if !fragments.in_cqof() || !fragments.select_or_ask {
        return report;
    }
    let Some(tree) = PatternTree::build(query) else {
        return report;
    };
    let triples: Vec<_> = tree.all_triples().into_iter().copied().collect();
    let equalities: Vec<_> = variable_equalities(tree.all_filters()).collect();

    if fragments.has_var_predicate {
        let hg = Hypergraph::from_triples(&triples, &equalities);
        report.hypertree = generalized_hypertree_width(&hg, 5).map(HypertreeReportEntry::from);
        return report;
    }
    if let Some(graph) =
        CanonicalGraph::from_triples(&triples, &equalities, GraphMode::WithConstants)
    {
        report.shape = Some(ShapeReport::classify(&graph));
        report.treewidth = Some(match treewidth(&graph) {
            Treewidth::Exact(k) | Treewidth::UpperBound(k) => k,
        });
        report.shortest_cycle = graph.girth();
    }
    if let Some(graph) =
        CanonicalGraph::from_triples(&triples, &equalities, GraphMode::VariablesOnly)
    {
        report.shape_vars_only = Some(ShapeReport::classify(&graph));
    }
    report
}

/// Analyses raw logs sequentially, entry by entry, with per-entry recovery
/// ([`RecoveryPolicy::Lenient`] semantics — the oracle never fails): every
/// malformed entry is tallied at its position and counted as invalid, every
/// valid one is counted, deduplicated per log by the fingerprint of its
/// materialized canonical string, and — on its first occurrence for
/// [`Population::Unique`], on every occurrence for [`Population::Valid`] —
/// folded through [`add_query_multiwalk`].
pub fn analyze_reference(logs: &[RawLog], population: Population) -> CorpusAnalysis {
    let ctx = RecoveryContext::new(RecoveryPolicy::Lenient);
    let mut arena = Arena::new();
    let mut combined = DatasetAnalysis {
        label: "Total".to_string(),
        ..DatasetAnalysis::default()
    };
    let mut datasets = Vec::with_capacity(logs.len());
    for log in logs {
        let mut analysis = DatasetAnalysis {
            label: log.label.clone(),
            ..DatasetAnalysis::default()
        };
        analysis.counts.total = log.entries.len() as u64;
        let mut seen: HashSet<u128> = HashSet::new();
        for (position, entry) in log.entries.iter().enumerate() {
            arena.reset();
            let query = match ctx.parse_entry(entry, &arena, |lexed| lexed.parse()) {
                Ok(query) => query,
                Err(error) => {
                    if error.kind == ErrorKind::WorkerPanic {
                        // The unwind may have left a partially filled chunk.
                        arena.trim();
                    }
                    analysis.errors.record(error.kind, position as u64);
                    continue;
                }
            };
            analysis.counts.valid += 1;
            if !query.has_body() {
                analysis.counts.bodyless += 1;
            }
            let first = seen.insert(canonical_fingerprint(&to_canonical_string_ref(&query)));
            if first {
                analysis.counts.unique += 1;
            }
            if first || population == Population::Valid {
                add_query_multiwalk(&mut analysis, &query);
            }
        }
        combined.merge(&analysis);
        datasets.push(analysis);
    }
    CorpusAnalysis { datasets, combined }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_counts_dedups_and_tallies_a_small_log() {
        let log = RawLog::new(
            "t",
            [
                "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) }",
                "not sparql",
                "SELECT   ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) }",
                "DESCRIBE <http://r>",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        let unique = analyze_reference(std::slice::from_ref(&log), Population::Unique);
        let counts = unique.datasets[0].counts;
        assert_eq!(
            (counts.total, counts.valid, counts.unique, counts.bodyless),
            (4, 3, 2, 1)
        );
        assert_eq!(unique.datasets[0].errors.total(), 1);
        assert_eq!(unique.datasets[0].errors.exemplars[0].1, 1);
        assert_eq!(unique.combined.keywords.total_queries, 2);
        assert_eq!(unique.combined.counts, counts);
        let valid = analyze_reference(&[log], Population::Valid);
        assert_eq!(valid.combined.keywords.total_queries, 3);
        assert_eq!(valid.datasets[0].counts, counts);
    }
}
