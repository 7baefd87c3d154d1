//! Quickstart: parse a SPARQL query and inspect everything the toolkit can
//! tell you about it — syntactic features, fragment membership, canonical
//! graph shape, treewidth and projection usage.
//!
//! Run with `cargo run --example quickstart`.

use sparqlog::core::analysis::Population;
use sparqlog::core::corpus::{analyze_streams, LogReader, MemoryLogReader};
use sparqlog::core::QueryAnalysis;
use sparqlog::parser::{
    canonical_fingerprint_of_ref, parse_query_in, to_canonical_string_ref, Arena,
};

fn main() {
    // The "Locations of archaeological sites" query from WikiData, quoted in
    // Section 3 of the paper.
    let text = r#"
        PREFIX wdt: <http://www.wikidata.org/prop/direct/>
        PREFIX wd:  <http://www.wikidata.org/entity/>
        PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
        SELECT ?label ?coord ?subj
        WHERE {
          ?subj wdt:P31/wdt:P279* wd:Q839954 .
          ?subj wdt:P625 ?coord .
          ?subj rdfs:label ?label FILTER(lang(?label) = "en")
        }"#;

    // The parsed query borrows its text and the arena it was parsed into.
    let arena = Arena::new();
    let query = parse_query_in(text, &arena).expect("the example query is valid SPARQL");
    println!("canonical form:\n  {}\n", to_canonical_string_ref(&query));

    // One query's text → its analysis record, exactly what the corpus engine
    // computes for a query it has not seen before.
    let analysis = QueryAnalysis::of_text(text).expect("parsed above");
    let features = &analysis.features;
    println!("query form:          {:?}", features.form);
    println!("triple patterns:     {}", features.triple_patterns);
    println!("property paths:      {}", features.path_patterns);
    println!("uses FILTER:         {}", features.uses_filter);
    println!("uses And (joins):    {}", features.uses_and);
    println!("projection:          {:?}", analysis.projection);

    let fragments = analysis.structural.fragments;
    println!(
        "\nfragments: AOF={} CQ={} CPF={} CQF={} well-designed={} CQOF={}",
        fragments.aof,
        fragments.cq,
        fragments.cpf,
        fragments.cqf,
        fragments.well_designed,
        fragments.cqof
    );

    // A plain conjunctive query gets the full structural treatment.
    let report = QueryAnalysis::of_text(
        "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a . ?a <http://q> ?d }",
    )
    .expect("valid SPARQL")
    .structural;
    let shape = report.shape.expect("CQ has a canonical graph");
    println!("\nsecond query (a triangle with a tail):");
    println!(
        "  shape: cycle={} flower={} forest={}",
        shape.cycle, shape.flower, shape.forest
    );
    println!("  treewidth: {:?}", report.treewidth);
    println!("  shortest cycle: {:?}", report.shortest_cycle);

    // Corpus analysis runs on the fused ingest→analyze engine: a `LogReader`
    // feeds entries batch by batch, each query is fingerprinted by hashing
    // its canonical form without materializing the string, a first
    // occurrence is analysed on the spot and a duplicate's AST is dropped
    // inside its batch — no AST outlives its batch, and the fold weights
    // each distinct form by its occurrence count.
    let log = MemoryLogReader::new(
        "quickstart",
        vec![
            text.to_string(),
            "SELECT ?x WHERE { ?x a <http://example.org/C> }".to_string(),
            "SELECT   ?x   WHERE { ?x a <http://example.org/C> }".to_string(), // duplicate
            "not sparql".to_string(),
        ],
    );
    let readers: Vec<Box<dyn LogReader>> = vec![Box::new(log)];
    let fused = analyze_streams(readers, Population::Unique).expect("in-memory streams");
    let counts = fused.summaries[0].counts;
    println!(
        "\nstreamed a {}-entry log: {} valid, {} unique (fingerprint {:032x})",
        counts.total,
        counts.valid,
        counts.unique,
        canonical_fingerprint_of_ref(&query)
    );
    println!(
        "corpus-level keyword census: {} SELECT of {} queries ({} distinct analyses kept)",
        fused.corpus.combined.keywords.select,
        fused.corpus.combined.keywords.total_queries,
        fused.fused.distinct_forms
    );
}
