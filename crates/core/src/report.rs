//! Plain-text report rendering: one function per table / figure of the
//! paper. Each function returns a formatted string whose rows mirror the
//! paper's presentation, so the `sparqlog-paper` binary can print them
//! directly.

use crate::analysis::{CorpusAnalysis, DatasetAnalysis};
use crate::recover::ErrorTally;
use sparqlog_parser::ErrorKind;
use sparqlog_streaks::StreakHistogram;
use std::fmt::Write as _;

fn pct(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

/// Table 1: sizes of the query logs (Total / Valid / Unique per dataset).
pub fn table1(corpus: &CorpusAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12}",
        "Source", "Total #Q", "Valid #Q", "Unique #Q"
    );
    for dataset in &corpus.datasets {
        let counts = dataset.counts;
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>12} {:>12}",
            dataset.label, counts.total, counts.valid, counts.unique
        );
    }
    let combined = corpus.combined.counts;
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>12} {:>12}",
        "Total", combined.total, combined.valid, combined.unique
    );
    out
}

/// Table 2 (or Table 7 on the duplicate-keeping population): keyword counts.
pub fn table2_keywords(combined: &DatasetAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>9}",
        "Element", "Absolute", "Relative"
    );
    for (label, count, share) in combined.keywords.rows() {
        let _ = writeln!(out, "{:<12} {:>12} {:>9}", label, count, pct(share));
    }
    out
}

/// Figure 1 (or Figure 8): triples-per-query distribution per dataset, with
/// the S/A share and average triple count rows.
pub fn figure1_triples(corpus: &CorpusAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>7} {}",
        "Dataset",
        "S/A",
        "Avg#T",
        (0..=10).map(|i| format!("{i:>6}")).collect::<String>() + &format!("{:>6}", "11+")
    );
    for d in &corpus.datasets {
        let shares = d.triples.shares();
        let mut row = format!(
            "{:<14} {:>7} {:>7.2}",
            d.label,
            pct(d.triples.select_ask_share()),
            d.triples.average_triples()
        );
        for s in shares {
            let _ = write!(row, "{:>6}", format!("{:.1}%", s * 100.0));
        }
        let _ = writeln!(out, "{row}");
    }
    let t = &corpus.combined.triples;
    let _ = writeln!(
        out,
        "corpus: <=1 triple {}, <=6 triples {}, <=12 triples {}, max {}",
        pct(t.cumulative_share_at_most(1)),
        pct(t.cumulative_share_at_most(6)),
        pct(t
            .cumulative_share_at_most(11)
            .max(t.cumulative_share_at_most(10))),
        t.max_triples
    );
    out
}

/// Table 3 (or Table 8): operator-set distribution with CPF roll-ups.
pub fn table3_opsets(combined: &DatasetAnalysis) -> String {
    let ops = &combined.opsets;
    let total = ops.total.max(1) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>9}",
        "Operator Set", "Absolute", "Relative"
    );
    for (label, count, share) in ops.rows() {
        let _ = writeln!(out, "{:<18} {:>12} {:>9}", label, count, pct(share));
    }
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>9}",
        "CPF subtotal",
        ops.cpf_subtotal(),
        pct(ops.cpf_subtotal() as f64 / total)
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>9}",
        "CPF+O",
        ops.cpf_plus_opt_increment(),
        format!("+{}", pct(ops.cpf_plus_opt_increment() as f64 / total))
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>9}",
        "CPF+G",
        ops.cpf_plus_graph_increment(),
        format!("+{}", pct(ops.cpf_plus_graph_increment() as f64 / total))
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>9}",
        "CPF+U",
        ops.cpf_plus_union_increment(),
        format!("+{}", pct(ops.cpf_plus_union_increment() as f64 / total))
    );
    out
}

/// Section 4.4: subqueries and projection.
pub fn section44_projection(combined: &DatasetAnalysis) -> String {
    let p = &combined.projection;
    let mut out = String::new();
    let total = p.total.max(1) as f64;
    let _ = writeln!(
        out,
        "queries with subqueries: {} ({})",
        p.with_subqueries,
        pct(p.with_subqueries as f64 / total)
    );
    let _ = writeln!(
        out,
        "projection used: between {} and {} ({} SELECT + {} ASK; {} unknown due to BIND)",
        pct(p.projection_share_lower()),
        pct(p.projection_share_upper()),
        pct(p.select_yes as f64 / total),
        pct(p.ask_yes as f64 / total),
        pct(p.unknown as f64 / total),
    );
    out
}

/// Section 5.2: fragment shares of the AOF patterns.
pub fn section52_fragments(combined: &DatasetAnalysis) -> String {
    let f = &combined.fragments;
    let mut out = String::new();
    let _ = writeln!(out, "Select/Ask queries:          {}", f.select_ask);
    let _ = writeln!(
        out,
        "AOF patterns:                {} ({} of Select/Ask)",
        f.aof,
        pct(f.aof_share())
    );
    let _ = writeln!(
        out,
        "CQ   (of AOF):               {} ({})",
        f.cq,
        pct(f.cq_share_of_aof())
    );
    let _ = writeln!(
        out,
        "CQF  (of AOF):               {} ({})",
        f.cqf,
        pct(f.cqf_share_of_aof())
    );
    let _ = writeln!(
        out,
        "well-designed (of AOF):      {} ({})",
        f.well_designed,
        pct(f.well_designed_share_of_aof())
    );
    let _ = writeln!(
        out,
        "CQOF (of AOF):               {} ({})",
        f.cqof,
        pct(f.cqof_share_of_aof())
    );
    let _ = writeln!(out, "AOF with variable predicate: {}", f.aof_var_predicate);
    let _ = writeln!(out, "interface width > 1:         {}", f.wide_interface);
    out
}

/// Figure 5 (or Figure 9): sizes of CQ-like queries with at least two triples.
pub fn figure5_sizes(combined: &DatasetAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:>12} {}",
        "Class",
        "1-triple%",
        (2..=10).map(|i| format!("{i:>8}")).collect::<String>() + &format!("{:>8}", "11+")
    );
    for (name, h) in [
        ("CQ", &combined.sizes_cq),
        ("CQF", &combined.sizes_cqf),
        ("CQOF", &combined.sizes_cqof),
    ] {
        let multi = (h.total
            - h.one_triple
            - (h.total - h.one_triple - h.buckets.iter().sum::<u64>() - h.eleven_plus))
            .max(1);
        let multi_total = (h.buckets.iter().sum::<u64>() + h.eleven_plus).max(1) as f64;
        let _ = multi;
        let mut row = format!("{:<6} {:>12}", name, pct(h.one_triple_share()));
        for b in h.buckets {
            let _ = write!(
                row,
                "{:>8}",
                format!("{:.1}%", b as f64 / multi_total * 100.0)
            );
        }
        let _ = write!(
            row,
            "{:>8}",
            format!("{:.1}%", h.eleven_plus as f64 / multi_total * 100.0)
        );
        let _ = writeln!(out, "{row}   (max {} triples)", h.max_triples);
    }
    out
}

/// Table 4 (or Table 9): cumulative shape analysis of CQ / CQF / CQOF.
pub fn table4_shapes(combined: &DatasetAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>9}   {:>12} {:>9}   {:>12} {:>9}",
        "Shape", "CQ", "%", "CQF", "%", "CQOF", "%"
    );
    let cq = combined.shapes_cq.rows();
    let cqf = combined.shapes_cqf.rows();
    let cqof = combined.shapes_cqof.rows();
    for i in 0..cq.len() {
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>9}   {:>12} {:>9}   {:>12} {:>9}",
            cq[i].0,
            cq[i].1,
            pct(cq[i].2),
            cqf[i].1,
            pct(cqf[i].2),
            cqof[i].1,
            pct(cqof[i].2)
        );
    }
    out
}

/// Section 6.1: constants rerun and shortest-cycle lengths.
pub fn section61_cycles(combined: &DatasetAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "single-edge CQ-like queries whose edge involves a constant: {}",
        combined.single_edge_with_constants
    );
    let _ = writeln!(
        out,
        "shortest cycle length distribution (cyclic CQ-like queries):"
    );
    for (len, count) in &combined.cycle_lengths {
        let _ = writeln!(out, "  girth {len:>2}: {count}");
    }
    if combined.cycle_lengths.is_empty() {
        let _ = writeln!(out, "  (no cyclic queries)");
    }
    out
}

/// Section 6.2: hypertree width of variable-predicate CQOF queries.
pub fn section62_hypertree(combined: &DatasetAnalysis) -> String {
    let h = &combined.hypertree;
    let mut out = String::new();
    let _ = writeln!(out, "variable-predicate CQOF queries analysed: {}", h.total);
    let _ = writeln!(out, "  hypertree width 1: {}", h.width1);
    let _ = writeln!(out, "  hypertree width 2: {}", h.width2);
    let _ = writeln!(out, "  hypertree width 3: {}", h.width3);
    let _ = writeln!(out, "  wider / inexact:   {}", h.wider_or_unknown);
    let _ = writeln!(
        out,
        "  decompositions with > 100 nodes: {}",
        h.over_100_nodes
    );
    let _ = writeln!(out, "  largest decomposition: {} nodes", h.max_nodes);
    out
}

/// Table 5 (or Figure 10): structure of navigational property paths.
pub fn table5_paths(combined: &DatasetAnalysis) -> String {
    let p = &combined.paths;
    let mut out = String::new();
    let _ = writeln!(out, "property paths total: {}", p.total);
    let _ = writeln!(
        out,
        "  !a: {}   ^a: {}",
        p.negated_literal, p.inverse_literal
    );
    let _ = writeln!(
        out,
        "  navigational: {} ({} use inverse, {} outside C_tract)",
        p.navigational(),
        p.with_inverse,
        p.potentially_hard
    );
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>9} {:>8}",
        "Expression Type", "Absolute", "Relative", "k"
    );
    for (label, count, share, range) in p.rows() {
        let k = match range {
            Some((a, b)) if a == b => format!("{a}"),
            Some((a, b)) => format!("{a}-{b}"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>9} {:>8}",
            label,
            count,
            pct(share),
            k
        );
    }
    out
}

/// The malformed-entry tally table: one row per dataset plus the merged
/// Total row, one column per [`ErrorKind`] in wire-code order, and a final
/// line naming the earliest offending entry positions. Appended to
/// [`full_report`] only when the corpus recorded at least one failure, so
/// clean-corpus reports are byte-identical to earlier releases.
pub fn error_table(corpus: &CorpusAnalysis) -> String {
    let mut out = String::new();
    let mut header = format!("{:<14}", "Source");
    for kind in ErrorKind::ALL {
        let _ = write!(header, " {:>14}", kind.label());
    }
    let _ = writeln!(out, "{header} {:>10}", "Errors");
    let mut line = |label: &str, tally: &ErrorTally| {
        let mut row = format!("{label:<14}");
        for kind in ErrorKind::ALL {
            let _ = write!(row, " {:>14}", tally.count(kind));
        }
        let _ = writeln!(out, "{row} {:>10}", tally.total());
    };
    for dataset in &corpus.datasets {
        line(&dataset.label, &dataset.errors);
    }
    let combined = &corpus.combined.errors;
    line("Total", combined);
    if !combined.exemplars.is_empty() {
        let list = combined
            .exemplars
            .iter()
            .map(|&(code, position)| {
                let label = ErrorKind::from_wire_code(code)
                    .map(ErrorKind::label)
                    .unwrap_or("unknown");
                format!("{label}@{position}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "first errors: {list}");
    }
    out
}

/// The full corpus report: every table, figure and section renderer above
/// (except the streak table, which runs on raw single-day logs rather than a
/// [`CorpusAnalysis`]) concatenated in paper order. This is the
/// byte-comparison unit of the differential gates: two analysis paths agree
/// iff their full reports are identical strings.
pub fn full_report(corpus: &CorpusAnalysis) -> String {
    let combined = &corpus.combined;
    let mut sections = vec![
        table1(corpus),
        table2_keywords(combined),
        figure1_triples(corpus),
        table3_opsets(combined),
        section44_projection(combined),
        section52_fragments(combined),
        figure5_sizes(combined),
        table4_shapes(combined),
        section61_cycles(combined),
        section62_hypertree(combined),
        table5_paths(combined),
    ];
    // Appended only when something was tallied: a clean corpus renders the
    // exact report of releases that predate the error model.
    if !combined.errors.is_empty() {
        sections.push(error_table(corpus));
    }
    sections.join("\n")
}

/// Table 6: streak-length histograms for a set of single-day logs.
pub fn table6_streaks(histograms: &[(String, StreakHistogram)]) -> String {
    let mut out = String::new();
    let mut header = format!("{:<14}", "Streak length");
    for (label, _) in histograms {
        let _ = write!(header, " {label:>12}");
    }
    let _ = writeln!(out, "{header}");
    for bucket in 0..11 {
        let label = if bucket < 10 {
            format!("{}–{}", bucket * 10 + 1, (bucket + 1) * 10)
        } else {
            ">100".to_string()
        };
        let mut row = format!("{label:<14}");
        for (_, h) in histograms {
            let value = if bucket < 10 {
                h.decades[bucket]
            } else {
                h.over_100
            };
            let _ = write!(row, " {value:>12}");
        }
        let _ = writeln!(out, "{row}");
    }
    let mut row = format!("{:<14}", "longest");
    for (_, h) in histograms {
        let _ = write!(row, " {:>12}", h.longest);
    }
    let _ = writeln!(out, "{row}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{CorpusAnalysis, Population};
    use crate::fused::{analyze_streams, test_readers};

    fn analyze(logs: &[(&str, &[&str])]) -> CorpusAnalysis {
        analyze_streams(test_readers(logs), Population::Unique)
            .expect("in-memory streams")
            .corpus
    }

    fn small_corpus() -> CorpusAnalysis {
        analyze(&[
            (
                "A",
                &[
                    "SELECT ?x WHERE { ?x a <http://C> . ?x <http://p> ?y FILTER(?y > 3) } LIMIT 5",
                    "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }",
                    "SELECT ?x WHERE { ?x <http://a>/<http://b>* ?y }",
                    "garbage entry",
                ],
            ),
            (
                "B",
                &[
                    "DESCRIBE <http://r>",
                    "ASK { <http://s> <http://p> <http://o> }",
                ],
            ),
        ])
    }

    #[test]
    fn all_reports_render_nonempty_text() {
        let corpus = small_corpus();
        let combined = &corpus.combined;
        for report in [
            table1(&corpus),
            table2_keywords(combined),
            figure1_triples(&corpus),
            table3_opsets(combined),
            section44_projection(combined),
            section52_fragments(combined),
            figure5_sizes(combined),
            table4_shapes(combined),
            section61_cycles(combined),
            section62_hypertree(combined),
            table5_paths(combined),
        ] {
            assert!(!report.trim().is_empty());
        }
    }

    #[test]
    fn table1_contains_dataset_rows_and_total() {
        let corpus = small_corpus();
        let t = table1(&corpus);
        assert!(t.contains("A"));
        assert!(t.contains("B"));
        assert!(t.contains("Total"));
        // Dataset A has 4 entries, 3 valid.
        assert!(t.contains('4'));
    }

    #[test]
    fn table4_has_all_shape_rows() {
        let corpus = small_corpus();
        let t = table4_shapes(&corpus.combined);
        for row in [
            "single edge",
            "chain",
            "star",
            "tree",
            "forest",
            "cycle",
            "flower",
            "treewidth",
        ] {
            assert!(t.contains(row), "missing row {row} in:\n{t}");
        }
    }

    #[test]
    fn error_table_lists_malformed_entries_and_total() {
        let corpus = small_corpus();
        let t = error_table(&corpus);
        assert!(t.contains("syntax"), "missing syntax column in:\n{t}");
        assert!(t.contains("Total"));
        // "garbage entry" sits at 0-based position 3 of log A.
        assert!(
            t.contains("first errors: syntax@3"),
            "bad exemplars in:\n{t}"
        );
        assert!(full_report(&corpus).contains("first errors: syntax@3"));
    }

    #[test]
    fn clean_corpora_render_no_error_table() {
        let corpus = analyze(&[("clean", &["ASK { <http://s> <http://p> <http://o> }"])]);
        assert!(corpus.combined.errors.is_empty());
        assert!(!full_report(&corpus).contains("first errors"));
        assert!(!full_report(&corpus).contains("worker-panic"));
    }

    #[test]
    fn table6_renders_histograms_side_by_side() {
        let h1 = StreakHistogram {
            decades: [5, 1, 0, 0, 0, 0, 0, 0, 0, 0],
            over_100: 0,
            total: 6,
            longest: 17,
        };
        let h2 = StreakHistogram {
            decades: [2, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            over_100: 1,
            total: 3,
            longest: 169,
        };
        let t = table6_streaks(&[("DBP'15".to_string(), h1), ("DBP'16".to_string(), h2)]);
        assert!(t.contains("DBP'15"));
        assert!(t.contains("169"));
        assert!(t.contains(">100"));
    }
}
