//! Criterion micro-benchmark: hypergraph acyclicity and generalized hypertree
//! width (the kernel behind the Section 6.2 analysis).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sparqlog_graph::{generalized_hypertree_width, Hypergraph};
use sparqlog_parser::ast_ref::{Term, TriplePattern};

/// `[x, p, l]` name tables the patterns below borrow from.
fn names(n: usize) -> [Vec<String>; 3] {
    ["x", "p", "l"].map(|prefix| (0..n).map(|i| format!("{prefix}{i}")).collect())
}

fn var_pred_cycle([x, p, _]: &[Vec<String>; 3], n: usize) -> Vec<TriplePattern<'_>> {
    (0..n)
        .map(|i| TriplePattern {
            subject: Term::Var(&x[i]),
            predicate: Term::Var(&p[i % 2]),
            object: Term::Var(&x[(i + 1) % n]),
        })
        .collect()
}

fn acyclic_star([_, p, l]: &[Vec<String>; 3], n: usize) -> Vec<TriplePattern<'_>> {
    (0..n)
        .map(|i| TriplePattern {
            subject: Term::Var("c"),
            predicate: Term::Var(&p[i]),
            object: Term::Var(&l[i]),
        })
        .collect()
}

fn bench_hypertree(c: &mut Criterion) {
    let names = names(8);
    let mut group = c.benchmark_group("hypertree");
    group.sample_size(20);
    for (name, triples) in [
        ("acyclic_star_8", acyclic_star(&names, 8)),
        ("var_pred_cycle_5", var_pred_cycle(&names, 5)),
        ("var_pred_cycle_8", var_pred_cycle(&names, 8)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let h = Hypergraph::from_triples(black_box(&triples), &[]);
                generalized_hypertree_width(&h, 4)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hypertree);
criterion_main!(benches);
