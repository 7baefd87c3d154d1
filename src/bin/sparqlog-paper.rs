//! The paper-reproduction CLI: regenerates the paper's tables, figures and
//! sections from a synthetic corpus calibrated to its 13 logs, and runs the
//! Figure 3 engine experiment.
//!
//! ```text
//! sparqlog-paper <section>...|all [--scale F] [--seed N] [--cap N] [--valid]
//!                [--entries N] [--window N]
//!                [--nodes N] [--queries N] [--timeout-ms N] [--max-len N] [--count]
//! ```
//!
//! * `all` is every section but `fig3`, in paper order; the corpus is
//!   synthesized and analysed once however many sections are named.
//! * `--scale F`   corpus size relative to the paper's Table-1 sizes, in
//!   `(0, 1]` (default 2e-5); `--seed N` RNG seed (default 42); `--cap N`
//!   entries per log, 0 = none (default 0)
//! * `--valid`     fold the Valid population (with duplicates) instead of
//!   Unique — the appendix variants (Tables 7–9, Figures 8–10)
//! * `table6`: `--entries N` entries per single-day log (default 4000),
//!   `--window N` streak window (default 30)
//! * `fig3`: `--nodes N` graph size (default 20000), `--queries N` queries
//!   per workload (default 10), `--timeout-ms N` per-query timeout (default
//!   500), `--max-len N` largest workload length (default 8), `--count` to
//!   enumerate all answers (SELECT semantics) instead of ASK
//!
//! A missing or bad value, an unknown flag or an unknown section exits 2
//! with the section list.

use sparqlog::core::analysis::{AnalysisStats, CorpusAnalysis, Population};
use sparqlog::core::corpus::{analyze_streams, LogReader, MemoryLogReader};
use sparqlog::core::report;
use sparqlog::gmark::{
    generate_graph, generate_workload, GraphConfig, QueryShape, Schema, Workload, WorkloadConfig,
};
use sparqlog::store::{BinaryJoinEngine, QueryEngine, QueryMode, TrieJoinEngine};
use sparqlog::streaks::{detect_streaks, StreakConfig, StreakHistogram};
use sparqlog::synth::{generate_corpus, generate_single_day_log, CorpusConfig, Dataset};
use std::time::Duration;

/// Every section as `(id, heading)`, `all`'s order first; `fig3` reports
/// wall-clock times and runs only when named.
const SECTIONS: [(&str, &str); 13] = [
    ("table1", "Table 1 — corpus sizes"),
    ("table2", "Table 2 / Table 7 — keyword counts"),
    ("fig1", "Figure 1 / Figure 8 — triples per query"),
    ("table3", "Table 3 / Table 8 — operator sets"),
    ("sec44", "Section 4.4 — subqueries and projection"),
    ("sec52", "Section 5.2 — query fragments"),
    ("fig5", "Figure 5 / Figure 9 — sizes of CQ-like queries"),
    ("table4", "Table 4 / Table 9 — cumulative shape analysis"),
    ("sec61", "Section 6.1 — constants and shortest cycles"),
    ("sec62", "Section 6.2 — hypertree width"),
    ("table5", "Table 5 / Figure 10 — property paths"),
    ("table6", "Table 6 — streaks in single-day DBpedia logs"),
    ("fig3", "Figure 3 — chain vs cycle workloads on two engines"),
];

/// The parsed command line: the sections to run, in order, and every flag.
#[derive(Debug, PartialEq)]
struct Options {
    sections: Vec<(&'static str, &'static str)>,
    scale: f64,
    seed: u64,
    population: Population,
    cap: u64,
    entries: u64,
    window: usize,
    nodes: usize,
    queries: usize,
    timeout_ms: u64,
    max_len: usize,
    count: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            sections: Vec::new(),
            scale: 2e-5,
            seed: 42,
            population: Population::Unique,
            cap: 0,
            entries: 4_000,
            window: 30,
            nodes: 20_000,
            queries: 10,
            timeout_ms: 500,
            max_len: 8,
            count: false,
        }
    }
}

impl Options {
    /// Parses an argument list (program name excluded). Every flag's value
    /// is checked here; anything that is neither a flag nor a section id is
    /// an error.
    fn parse(args: &[String]) -> Result<Options, String> {
        fn value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
            let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
            value
                .parse()
                .map_err(|_| format!("{flag}: invalid value {value:?}"))
        }
        let mut opts = Options::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => opts.scale = value(arg, args.next())?,
                "--seed" => opts.seed = value(arg, args.next())?,
                "--cap" => opts.cap = value(arg, args.next())?,
                "--valid" => opts.population = Population::Valid,
                "--entries" => opts.entries = value(arg, args.next())?,
                "--window" => opts.window = value(arg, args.next())?,
                "--nodes" => opts.nodes = value(arg, args.next())?,
                "--queries" => opts.queries = value(arg, args.next())?,
                "--timeout-ms" => opts.timeout_ms = value(arg, args.next())?,
                "--max-len" => opts.max_len = value(arg, args.next())?,
                "--count" => opts.count = true,
                "all" => opts.sections.extend(&SECTIONS[..SECTIONS.len() - 1]),
                other => match SECTIONS.iter().find(|(id, _)| *id == other) {
                    Some(&section) => opts.sections.push(section),
                    None => return Err(format!("unknown section or flag {other:?}")),
                },
            }
        }
        // Beyond 1 the per-log sizes exceed the paper's and soon saturate
        // to u64::MAX entries.
        if !(opts.scale > 0.0 && opts.scale <= 1.0) {
            return Err(format!("--scale: {} is not in (0, 1]", opts.scale));
        }
        if opts.sections.is_empty() {
            return Err("no section named".to_string());
        }
        Ok(opts)
    }
}

fn usage() -> String {
    let mut out = "usage: sparqlog-paper <section>...|all [--scale F] [--seed N] [--cap N] \
                   [--valid] [--entries N] [--window N] [--nodes N] [--queries N] \
                   [--timeout-ms N] [--max-len N] [--count]\nsections (all = every one but fig3):"
        .to_string();
    for (id, title) in SECTIONS {
        out.push_str(&format!("\n  {id:<7} {title}"));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Options::parse(&args).unwrap_or_else(|message| {
        eprintln!("sparqlog-paper: {message}\n{}", usage());
        std::process::exit(2);
    });
    let mut analysed = None;
    for &(id, title) in &opts.sections {
        println!("== sparqlog :: {title} ==");
        match id {
            "fig3" => chain_cycle(&opts),
            "table6" => streaks(&opts),
            _ => {
                corpus_banner(&opts);
                let (corpus, stats) = analysed.get_or_insert_with(|| analyze(&opts));
                let combined = &corpus.combined;
                let report = match id {
                    "table1" => format!("{}\n\n{}", stats_banner(stats), report::table1(corpus)),
                    "table2" => report::table2_keywords(combined),
                    "fig1" => report::figure1_triples(corpus),
                    "table3" => report::table3_opsets(combined),
                    "sec44" => report::section44_projection(combined),
                    "sec52" => report::section52_fragments(combined),
                    "fig5" => report::figure5_sizes(combined),
                    "table4" => report::table4_shapes(combined),
                    "sec61" => report::section61_cycles(combined),
                    "sec62" => report::section62_hypertree(combined),
                    "table5" => report::table5_paths(combined),
                    _ => unreachable!("every section id has a report"),
                };
                println!("{report}");
            }
        }
    }
}

/// Prints the line under a corpus section's heading that describes the run.
fn corpus_banner(opts: &Options) {
    println!(
        "synthetic corpus, scale {:.0e} of Table-1 sizes, seed {}, population: {}, workers: {}",
        opts.scale,
        opts.seed,
        match opts.population {
            Population::Valid => "Valid (with duplicates)",
            Population::Unique => "Unique",
        },
        sparqlog::core::default_workers()
    );
    println!();
}

/// Generates and analyses the synthetic corpus, returning the run's cache /
/// interner counters too. The generated entries are moved into
/// [`MemoryLogReader`]s and drained batch by batch, so the raw corpus is
/// never duplicated.
fn analyze(opts: &Options) -> (CorpusAnalysis, AnalysisStats) {
    let corpus = generate_corpus(CorpusConfig {
        scale: opts.scale,
        seed: opts.seed,
        max_entries_per_dataset: opts.cap,
    });
    let readers: Vec<Box<dyn LogReader>> = corpus
        .logs
        .into_iter()
        .map(|log| {
            Box::new(MemoryLogReader::new(log.dataset.label(), log.entries)) as Box<dyn LogReader>
        })
        .collect();
    let fused = analyze_streams(readers, opts.population).expect("in-memory streams cannot fail");
    (fused.corpus, fused.stats)
}

/// Renders the analysis-run counters: what the fingerprint-keyed analysis
/// cache absorbed and what the per-worker term interners saved.
fn stats_banner(stats: &AnalysisStats) -> String {
    let mut out = match &stats.cache {
        Some(cache) => format!(
            "analysis cache: {} hits / {} misses ({:.1}% hit rate), {} distinct forms",
            cache.hits,
            cache.misses,
            cache.hit_rate() * 100.0,
            cache.distinct,
        ),
        None => "analysis cache: disabled".to_string(),
    };
    let interner = &stats.interner;
    out.push_str(&format!(
        "\nterm interner: {} lookups, {:.1}% hits, {} string bytes saved ({} stored)",
        interner.lookups,
        interner.hit_rate() * 100.0,
        interner.bytes_saved,
        interner.bytes_interned,
    ));
    out
}

/// Table 6: streak-length histograms for three single-day DBpedia logs
/// (2014, 2015, 2016) at the 25 % similarity threshold of Section 8.
fn streaks(opts: &Options) {
    corpus_banner(opts);
    let config = StreakConfig {
        window: opts.window,
        threshold: 0.25,
    };
    let mut histograms = Vec::new();
    for (label, dataset, seed) in [
        ("#DBP'14", Dataset::DBpedia14, opts.seed),
        ("#DBP'15", Dataset::DBpedia15, opts.seed + 1),
        ("#DBP'16", Dataset::DBpedia16, opts.seed + 2),
    ] {
        let log = generate_single_day_log(dataset, opts.entries, seed);
        let streaks = detect_streaks(&log.entries, config);
        histograms.push((label.to_string(), StreakHistogram::from_streaks(&streaks)));
    }
    println!("{}", report::table6_streaks(&histograms));
    println!(
        "(window size {}, similarity threshold 25%, {} entries per single-day log)",
        opts.window, opts.entries
    );
}

/// Figure 3: average runtime of chain and cycle workloads of lengths 3 to
/// `--max-len` on the two engines (binary-join ≈ PostgreSQL, trie-join ≈
/// Blazegraph), plus the share of cycle queries the binary-join engine
/// timed out on.
fn chain_cycle(opts: &Options) {
    let queries = opts.queries;
    let timeout = Duration::from_millis(opts.timeout_ms);
    let (mode, semantics) = if opts.count {
        (QueryMode::Count, "SELECT/count")
    } else {
        (QueryMode::Ask, "ASK")
    };
    println!(
        "Bib graph with {} nodes, {queries} queries per workload, per-query timeout {timeout:?}, {semantics} semantics",
        opts.nodes,
    );
    println!();

    let schema = Schema::bib();
    let graph = generate_graph(
        &schema,
        GraphConfig {
            nodes: opts.nodes,
            seed: opts.seed,
        },
    );
    let store = graph.to_store();
    println!("generated {} triples", store.len());
    println!();

    let binary = BinaryJoinEngine::new();
    let trie = TrieJoinEngine::new();

    println!(
        "{:<6} {:>16} {:>16} {:>16} {:>16} {:>10}",
        "W-k", "chainBG(ns)", "chainPG(ns)", "cycleBG(ns)", "cyclePG(ns)", "cyclePG t/o"
    );
    for len in 3..=opts.max_len {
        let workload = |shape, seed| {
            generate_workload(
                &schema,
                WorkloadConfig {
                    shape,
                    length: len,
                    count: queries,
                    seed,
                },
            )
        };
        let chain_wl = workload(QueryShape::Chain, opts.seed + len as u64);
        let cycle_wl = workload(QueryShape::Cycle, opts.seed + 100 + len as u64);
        let run = |engine: &dyn QueryEngine, wl: &Workload| -> (u64, usize) {
            let mut total_ns = 0u64;
            let mut timeouts = 0usize;
            for q in &wl.queries {
                let out = engine.evaluate(&store, q, mode, timeout);
                // Like the paper, timed-out queries are accounted with the
                // full timeout duration.
                total_ns += if out.timed_out {
                    timeout.as_nanos() as u64
                } else {
                    out.elapsed_ns
                };
                timeouts += usize::from(out.timed_out);
            }
            (total_ns / wl.queries.len().max(1) as u64, timeouts)
        };
        let (chain_bg, _) = run(&trie, &chain_wl);
        let (chain_pg, _) = run(&binary, &chain_wl);
        let (cycle_bg, _) = run(&trie, &cycle_wl);
        let (cycle_pg, cycle_pg_to) = run(&binary, &cycle_wl);
        println!(
            "{:<6} {:>16} {:>16} {:>16} {:>16} {:>9}%",
            format!("W-{len}"),
            chain_bg,
            chain_pg,
            cycle_bg,
            cycle_pg,
            cycle_pg_to * 100 / queries.max(1)
        );
    }
    println!();
    println!("chainBG/cycleBG: trie-join (worst-case-optimal) engine; chainPG/cyclePG: binary-join engine.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Options::parse(&args)
    }

    #[test]
    fn flags_parse_into_options() {
        assert_eq!(
            parse("table1 --scale 1e-6 --valid --seed 7 --cap 9"),
            Ok(Options {
                sections: vec![SECTIONS[0]],
                scale: 1e-6,
                seed: 7,
                population: Population::Valid,
                cap: 9,
                ..Options::default()
            })
        );
        assert_eq!(
            parse("fig3"),
            Ok(Options {
                sections: vec![SECTIONS[12]],
                ..Options::default()
            })
        );
    }

    #[test]
    fn a_bad_or_missing_value_is_an_error_not_a_default() {
        for (line, needle) in [
            ("all --scale abc", "--scale"),
            ("all --seed -1", "--seed"),
            ("all --valid --cap many", "--cap"),
            ("all --cap", "--cap"),
            ("table6 --entries x", "--entries"),
            ("fig3 --timeout-ms 1s", "--timeout-ms"),
            ("all --scale inf", "--scale"),
            ("all --scale 0", "--scale"),
            ("all --bogus", "--bogus"),
            ("table9", "table9"),
            ("--seed 3", "no section"),
        ] {
            let message = parse(line).expect_err("must be rejected");
            assert!(message.contains(needle), "{line}: {message}");
        }
    }

    #[test]
    fn section_flags_parse_into_their_fields() {
        assert_eq!(
            parse("table6 --entries 500 --seed 3 --window 12"),
            Ok(Options {
                sections: vec![SECTIONS[11]],
                seed: 3,
                entries: 500,
                window: 12,
                ..Options::default()
            })
        );
    }

    #[test]
    fn analysis_runs_end_to_end() {
        let opts = Options {
            scale: 1e-6,
            cap: 40,
            ..Options::default()
        };
        let (corpus, _) = analyze(&opts);
        assert_eq!(corpus.datasets.len(), 13);
        assert!(corpus.datasets.iter().all(|d| d.counts.total > 0));
        assert!(corpus.combined.keywords.total_queries > 0);
    }
}
