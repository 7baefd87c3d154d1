//! Criterion micro-benchmark: SPARQL parsing throughput on representative
//! queries (the kernel behind the "Valid" column of Table 1).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sparqlog_parser::{parse_query_in, Arena};
use sparqlog_synth::{Dataset, Synthesizer};

fn bench_parser(c: &mut Criterion) {
    let simple = "SELECT ?x WHERE { ?x a <http://dbpedia.org/ontology/Film> } LIMIT 10";
    let medium = r#"PREFIX dbo: <http://dbpedia.org/ontology/>
        SELECT DISTINCT ?film ?director WHERE {
          ?film a dbo:Film ; dbo:director ?director .
          OPTIONAL { ?director dbo:birthPlace ?place }
          FILTER(?director != dbo:Unknown)
          { ?film dbo:releaseDate ?d } UNION { ?film dbo:premiereDate ?d }
        } ORDER BY ?film LIMIT 100"#;
    let path = "SELECT ?label WHERE { ?s <http://www.wikidata.org/prop/direct/P31>/<http://www.wikidata.org/prop/direct/P279>* <http://www.wikidata.org/entity/Q839954> . ?s <http://www.w3.org/2000/01/rdf-schema#label> ?label FILTER(lang(?label) = \"en\") }";

    // One arena, reset per query, as an engine worker holds it.
    let mut arena = Arena::new();
    let mut group = c.benchmark_group("parser");
    group.sample_size(30);
    for (name, text) in [
        ("simple_select", simple),
        ("medium_dbpedia", medium),
        ("property_path", path),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                arena.reset();
                parse_query_in(black_box(text), &arena).unwrap().form
            })
        });
    }

    // A realistic mixed batch from the synthesizer.
    let mut synth = Synthesizer::for_dataset(Dataset::DBpedia15, 5);
    let batch: Vec<String> = (0..200).map(|_| synth.fresh_query()).collect();
    group.bench_function("synthetic_batch_200", |b| {
        b.iter(|| {
            let mut ok = 0usize;
            for q in &batch {
                arena.reset();
                ok += usize::from(parse_query_in(black_box(q), &arena).is_ok());
            }
            ok
        })
    });
    group.finish();
}

criterion_group!(benches, bench_parser);
criterion_main!(benches);
