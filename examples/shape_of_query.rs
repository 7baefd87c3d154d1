//! Classify the structure of a SPARQL query given on the command line (or a
//! built-in flower-shaped example): fragment, canonical-graph shape,
//! treewidth and — for variable-predicate queries — hypertree width.
//!
//! Run with
//! `cargo run --example shape_of_query -- 'SELECT * WHERE { ?a <p> ?b . ?b <p> ?a }'`

use sparqlog::core::QueryAnalysis;

fn main() {
    let arg = std::env::args().nth(1);
    let text = arg.unwrap_or_else(|| {
        // A flower: a central node with a petal and two stamens.
        "SELECT * WHERE { ?x <http://p> ?a . ?a <http://p> ?t . ?x <http://p> ?b . ?b <http://p> ?t . \
         ?x <http://q> ?s1 . ?x <http://q> ?s2 }"
            .to_string()
    });
    let report = match QueryAnalysis::of_text(&text) {
        Ok(analysis) => analysis.structural,
        Err(e) => {
            eprintln!("not a valid SPARQL query: {e}");
            std::process::exit(1);
        }
    };
    println!("triples:        {}", report.triples);
    println!(
        "fragment:       AOF={} CQ={} CQF={} CQOF={}",
        report.fragments.aof, report.fragments.cq, report.fragments.cqf, report.fragments.cqof
    );
    match &report.shape {
        Some(shape) => {
            println!("shape:          {:?}", shape.primary());
            println!(
                "  chain={} star={} tree={} forest={} cycle={} flower={} flower_set={}",
                shape.chain,
                shape.star,
                shape.tree,
                shape.forest,
                shape.cycle,
                shape.flower,
                shape.flower_set
            );
            println!("treewidth:      {:?}", report.treewidth);
            println!("shortest cycle: {:?}", report.shortest_cycle);
        }
        None => println!("shape:          (not a CQ-like query without variable predicates)"),
    }
    if let Some(ht) = report.hypertree {
        println!(
            "hypertree:      width {} with {} decomposition nodes",
            ht.width, ht.nodes
        );
    }
}
