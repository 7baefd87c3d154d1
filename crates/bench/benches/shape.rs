//! Criterion micro-benchmark: shape classification and treewidth of query
//! graphs (the kernel behind Table 4).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sparqlog_graph::{treewidth, CanonicalGraph, GraphMode, ShapeReport};
use sparqlog_parser::ast_ref::{Term, TriplePattern};

fn edge<'a>(a: &'a str, b: &'a str) -> TriplePattern<'a> {
    TriplePattern {
        subject: Term::Var(a),
        predicate: Term::Iri("http://p"),
        object: Term::Var(b),
    }
}

/// A chain over the first `n + 1` of `names`.
fn chain(names: &[String], n: usize) -> Vec<TriplePattern<'_>> {
    (0..n).map(|i| edge(&names[i], &names[i + 1])).collect()
}

fn flower() -> Vec<TriplePattern<'static>> {
    [
        ("x", "a"),
        ("a", "t"),
        ("x", "b"),
        ("b", "t"),
        ("x", "c"),
        ("c", "t"),
        ("x", "s1"),
        ("s1", "s2"),
        ("x", "m"),
        ("m", "u"),
        ("m", "v"),
    ]
    .map(|(a, b)| edge(a, b))
    .to_vec()
}

fn bench_shape(c: &mut Criterion) {
    let names: Vec<String> = (0..=50).map(|i| format!("x{i}")).collect();
    let mut group = c.benchmark_group("shape");
    group.sample_size(50);
    for (name, triples) in [
        ("chain_10", chain(&names, 10)),
        ("flower_11", flower()),
        ("chain_50", chain(&names, 50)),
    ] {
        group.bench_function(format!("classify_{name}"), |b| {
            b.iter(|| {
                let g = CanonicalGraph::from_triples(
                    black_box(&triples),
                    &[],
                    GraphMode::WithConstants,
                )
                .unwrap();
                let shape = ShapeReport::classify(&g);
                let tw = treewidth(&g);
                (shape, tw)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_shape);
criterion_main!(benches);
