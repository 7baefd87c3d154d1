//! Differential test: the fused single-pass engine must produce
//! byte-identical `DatasetAnalysis` / `CorpusAnalysis` results to the
//! sequential multi-walk oracle on a mixed corpus.

mod common;

use common::memory_readers;
use proptest::prelude::ProptestConfig;
use sparqlog::core::analysis::Population;
use sparqlog::core::baseline::{add_query_multiwalk, analyze_reference};
use sparqlog::core::corpus::{analyze_streams_with, FusedOptions};
use sparqlog::core::report::full_report;
use sparqlog::core::{DatasetAnalysis, QueryAnalysis, RawLog, RecoveryPolicy};
use sparqlog::parser::{parse_query_in, Arena};
use sparqlog::synth::{generate_single_day_log, Dataset};

/// Handcrafted queries exercising every corner the pipeline measures:
/// all four query forms, property paths, cycles, variable predicates,
/// OPTIONAL nesting, filters (simple and not), EXISTS, subqueries,
/// aggregates, UNION/GRAPH/MINUS, VALUES, and bodyless queries.
fn handcrafted() -> Vec<String> {
    [
        // Plain CQs: chain, star, single edge with a constant.
        "SELECT ?x WHERE { ?x <http://p> ?y . ?y <http://q> ?z }",
        "SELECT ?x WHERE { ?x <http://a> ?b . ?x <http://c> ?d . ?x <http://e> ?f }",
        "SELECT ?x WHERE { ?x <http://p> <http://const> }",
        // Cycles: triangle, square, equality-closed chain.
        "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
        "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?d . ?d <http://p> ?a }",
        "SELECT * WHERE { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?d FILTER(?d = ?a) }",
        // Property paths of every flavour.
        "SELECT ?x WHERE { ?x <http://a>/<http://b> ?y }",
        "SELECT ?x WHERE { ?x <http://a>* ?y }",
        "SELECT ?x WHERE { ?x (<http://a>|<http://b>)+ ?y }",
        "SELECT ?x WHERE { ?x ^<http://a> ?y . ?y !<http://b> ?z }",
        "SELECT ?x WHERE { ?x (<http://a>/<http://b>)* ?y }",
        // Variable predicates (hypergraph analysis).
        "ASK { ?x1 ?p ?x2 . ?x2 <http://a> ?x3 . ?x3 ?p ?x4 }",
        "SELECT ?s WHERE { ?s ?p ?o }",
        // OPTIONAL: CQOF, wide interface, non-well-designed.
        "SELECT * WHERE { ?A <http://name> ?N OPTIONAL { ?A <http://email> ?E } }",
        "SELECT * WHERE { { ?A <http://name> ?N OPTIONAL { ?A <http://email> ?E } } OPTIONAL { ?A <http://web> ?W } }",
        "SELECT * WHERE { ?A <http://knows> ?N OPTIONAL { ?A <http://worksWith> ?N } }",
        "SELECT * WHERE { ?A <http://name> ?N OPTIONAL { ?A <http://email> ?W } OPTIONAL { ?A <http://web> ?W } }",
        // Filters: simple, two-variable, EXISTS, aggregate-bearing.
        "SELECT ?x WHERE { ?x <http://p> ?y FILTER(?y > 10) }",
        "SELECT ?x WHERE { ?x <http://p> ?y . ?x <http://q> ?z FILTER(?y < ?z) }",
        "SELECT ?x WHERE { ?x a <http://C> FILTER NOT EXISTS { ?x <http://p> ?y } }",
        "SELECT ?x WHERE { ?x <http://p> ?y FILTER EXISTS { ?y <http://q>/<http://r> ?z } }",
        // Projection corners: SELECT *, full list, ASK with/without vars, BIND.
        "SELECT * WHERE { ?x <http://p> ?y }",
        "SELECT ?x ?y WHERE { ?x <http://p> ?y }",
        "ASK { <http://s> <http://p> <http://o> }",
        "ASK { ?x <http://p> ?y }",
        "SELECT ?x WHERE { ?x <http://p> ?y BIND(?y + 1 AS ?z) }",
        "SELECT (COUNT(?x) AS ?c) WHERE { ?x <http://p> ?y } GROUP BY ?y HAVING (AVG(?y) > 2)",
        // Subqueries (aggregates inside, projection hiding).
        "SELECT ?x WHERE { { SELECT ?x (SUM(?v) AS ?s) WHERE { ?x <http://p> ?v } GROUP BY ?x } }",
        "SELECT ?x WHERE { { SELECT ?x ?y WHERE { ?x <http://p> ?y . ?y <http://q> ?z } } }",
        // UNION / GRAPH / MINUS / VALUES / SERVICE-free operator mix.
        "SELECT ?x WHERE { { ?x <http://p> ?y } UNION { ?x <http://q> ?y } UNION { ?x <http://r> ?y } }",
        "SELECT * WHERE { GRAPH ?g { ?x <http://a>/<http://b> ?y } }",
        "SELECT ?x WHERE { ?x a <http://C> MINUS { ?x a <http://D> } }",
        "SELECT ?x WHERE { ?x <http://a> ?y VALUES ?x { <http://v> <http://w> } }",
        // CONSTRUCT / DESCRIBE incl. bodyless.
        "CONSTRUCT { ?s <http://p> ?o } WHERE { ?s <http://q> ?o }",
        "DESCRIBE <http://r>",
        "DESCRIBE ?x WHERE { ?x a <http://C> }",
        // Duplicates (modulo whitespace / prefixes) and garbage.
        "SELECT   ?x   WHERE { ?x <http://p> ?y . ?y <http://q> ?z }",
        "PREFIX ex: <http://> SELECT ?x WHERE { ?x ex:p ?y . ?y ex:q ?z }",
        "this is not sparql at all",
        "",
        // Modifier-heavy query.
        "SELECT DISTINCT ?x WHERE { ?x <http://p> ?y } ORDER BY ?x LIMIT 10 OFFSET 5",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn mixed_corpus() -> Vec<RawLog> {
    let mut logs = vec![RawLog::new("handcrafted", handcrafted())];
    for (i, dataset) in [Dataset::DBpedia15, Dataset::Lgd14, Dataset::BioP13]
        .iter()
        .enumerate()
    {
        let day = generate_single_day_log(*dataset, 150, 1000 + i as u64);
        logs.push(RawLog::new(day.dataset.label(), day.entries));
    }
    logs
}

#[test]
fn corpus_analysis_is_byte_identical_to_the_multiwalk_path() {
    let raw = mixed_corpus();
    for population in [Population::Unique, Population::Valid] {
        let reference = analyze_reference(&raw, population);
        for workers in [1, 2, 8] {
            let fused = analyze_streams_with(
                memory_readers(&raw),
                population,
                FusedOptions {
                    workers,
                    ..FusedOptions::default()
                },
            )
            .expect("in-memory streams cannot fail");
            // Every tally field, not only what the report renders.
            assert_eq!(
                format!("{reference:?}"),
                format!("{:?}", fused.corpus),
                "single-pass vs multi-walk mismatch on {population:?}, {workers} workers"
            );
        }
    }
}

#[test]
fn streaming_ingestion_is_byte_identical_to_the_materializing_path() {
    // The engine (incremental LogReader feed, canonical walk hashed without
    // materializing the string, per-worker occurrence maps) must agree with
    // the sequential oracle (whole log resident, canonical string built and
    // then hashed, one set per log) on counts, tallies AND the reports, for
    // batch sizes that split duplicates across batches and workers.
    let raw = mixed_corpus();
    for population in [Population::Unique, Population::Valid] {
        let reference = analyze_reference(&raw, population);
        for (batch, workers) in [(1, 1), (3, 4), (512, 2)] {
            let fused = analyze_streams_with(
                memory_readers(&raw),
                population,
                FusedOptions {
                    workers,
                    batch,
                    recovery: RecoveryPolicy::Lenient,
                },
            )
            .expect("in-memory streams cannot fail");
            for (summary, dataset) in fused.summaries.iter().zip(&reference.datasets) {
                assert_eq!(
                    summary.counts, dataset.counts,
                    "batch {batch}, workers {workers}"
                );
                assert_eq!(summary.errors, dataset.errors, "{}", summary.label);
            }
            assert_eq!(
                full_report(&fused.corpus),
                full_report(&reference),
                "corpus report differs on {population:?} (batch {batch}, workers {workers})"
            );
        }
    }
}

#[test]
fn per_query_fold_is_byte_identical_on_every_handcrafted_query() {
    // Pinpointing variant: fold each parseable query individually so a
    // regression names the exact query instead of a whole-corpus diff.
    let mut arena = Arena::new();
    for text in handcrafted() {
        arena.reset();
        let Ok(query) = parse_query_in(&text, &arena) else {
            continue;
        };
        let mut reference = DatasetAnalysis::default();
        add_query_multiwalk(&mut reference, &query);
        let mut single_pass = DatasetAnalysis::default();
        single_pass.add(&QueryAnalysis::of_text(&text).expect("parsed above"));
        assert_eq!(
            format!("{reference:?}"),
            format!("{single_pass:?}"),
            "single-pass vs multi-walk mismatch on {text:?}"
        );
    }
}

#[test]
fn synthesized_queries_fold_identically_across_datasets() {
    use sparqlog::synth::{DatasetProfile, Synthesizer};
    // Queries per dataset profile; `PROPTEST_CASES` overrides it.
    let queries_per_profile = ProptestConfig::with_cases(40).resolved_cases();
    let mut arena = Arena::new();
    for dataset in Dataset::ALL {
        let mut synth = Synthesizer::new(DatasetProfile::of(dataset), 77);
        for _ in 0..queries_per_profile {
            let text = synth.fresh_query();
            arena.reset();
            let query = parse_query_in(&text, &arena).expect("synthesized queries parse");
            let mut reference = DatasetAnalysis::default();
            add_query_multiwalk(&mut reference, &query);
            let mut single_pass = DatasetAnalysis::default();
            single_pass.add(&QueryAnalysis::of_text(&text).expect("parsed above"));
            assert_eq!(
                format!("{reference:?}"),
                format!("{single_pass:?}"),
                "mismatch on {dataset:?} query {text:?}"
            );
        }
    }
}
