//! The original multi-walk analysis path, preserved verbatim as a reference
//! implementation.
//!
//! The seed pipeline analysed each query by calling four independent entry
//! points — [`QueryFeatures::of`], [`collect_property_paths`],
//! [`sparqlog_algebra::ProjectionTally::add`] and [`StructuralReport::of`] —
//! each of which
//! traverses the AST on its own. The single-pass engine
//! ([`crate::query_analysis::QueryAnalysis`]) replaces that with one shared
//! traversal; this module keeps the old composition alive so that
//!
//! * the differential tests can assert byte-identical results between the
//!   two paths on arbitrary corpora, and
//! * the `single_pass` benchmark can measure the speedup.

use crate::analysis::{CorpusAnalysis, DatasetAnalysis, Population};
use crate::corpus::IngestedLog;
use sparqlog_algebra::fragments::{classify_fragments, variable_equalities};
use sparqlog_algebra::opsets::classify_from_features;
use sparqlog_algebra::pattern_tree::PatternTree;
use sparqlog_algebra::{collect_property_paths, QueryFeatures};
use sparqlog_graph::analyze::HypertreeReportEntry;
use sparqlog_graph::{
    generalized_hypertree_width, treewidth, CanonicalGraph, GraphMode, Hypergraph, ShapeReport,
    StructuralReport, Treewidth,
};
use sparqlog_parser::Query;

/// Folds one query into the tallies through the seed multi-walk path: every
/// measure re-traverses the query independently.
pub fn add_query_multiwalk(analysis: &mut DatasetAnalysis, query: &Query) {
    let features = QueryFeatures::of(query);
    analysis.keywords.add(&features);
    analysis.triples.add(&features);
    analysis.projection.add(query);
    for p in collect_property_paths(query) {
        analysis.paths.add(p);
    }
    if features.is_select_or_ask() {
        analysis.opsets.add(classify_from_features(&features));
    }
    let structural = structural_report_multiwalk(query);
    analysis.fold_structural(&structural);
}

/// The seed implementation of `StructuralReport::of`, verbatim: the fragment
/// classification runs its own body walk, the pattern tree is built twice
/// (once inside `classify_fragments`, once here), the tree's triples are
/// cloned, and the two graph modes are constructed in two separate passes.
pub fn structural_report_multiwalk(query: &Query) -> StructuralReport {
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
    let triples: Vec<_> = tree.all_triples().into_iter().cloned().collect();
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

/// Analyses a corpus sequentially through the multi-walk path — the seed
/// behaviour of `CorpusAnalysis::analyze`.
pub fn analyze_multiwalk(logs: &[IngestedLog], population: Population) -> CorpusAnalysis {
    let mut datasets = Vec::with_capacity(logs.len());
    for log in logs {
        let mut analysis = DatasetAnalysis {
            label: log.label.clone(),
            counts: log.counts,
            errors: log.errors.clone(),
            ..DatasetAnalysis::default()
        };
        match population {
            Population::Unique => {
                for q in log.unique_queries() {
                    add_query_multiwalk(&mut analysis, q);
                }
            }
            Population::Valid => {
                for q in &log.valid_queries {
                    add_query_multiwalk(&mut analysis, q);
                }
            }
        }
        datasets.push(analysis);
    }
    let mut combined = DatasetAnalysis {
        label: "Total".to_string(),
        ..DatasetAnalysis::default()
    };
    for d in &datasets {
        combined.merge(d);
    }
    CorpusAnalysis { datasets, combined }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{ingest, RawLog};

    #[test]
    fn multiwalk_agrees_with_single_pass_on_a_small_log() {
        let log = ingest(&RawLog::new(
            "t",
            [
                "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) }",
                "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
                "SELECT ?x WHERE { ?x <http://a>/<http://b>* ?y }",
                "DESCRIBE <http://r>",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ));
        let logs = [log];
        let multi = analyze_multiwalk(&logs, Population::Unique);
        let single = CorpusAnalysis::analyze(&logs, Population::Unique);
        assert_eq!(format!("{multi:?}"), format!("{single:?}"));
    }
}
