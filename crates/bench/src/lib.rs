//! # sparqlog-bench
//!
//! The paper-reproduction harness of the `sparqlog` workspace. It contains
//!
//! * one **binary per table / figure** of the paper (in `src/bin/`), each of
//!   which regenerates the corresponding rows from a synthetic corpus or from
//!   the engine experiment, and
//! * **criterion micro-benchmarks** (in `benches/`) for the hot kernels:
//!   parsing, shape classification, hypertree decomposition, the two join
//!   engines, Levenshtein distance and corpus synthesis.
//!
//! This library crate hosts the shared plumbing: command-line options and the
//! corpus construction used by all harness binaries. Performance is measured
//! elsewhere — by the `benchmark/` package at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sparqlog_core::analysis::{AnalysisStats, CorpusAnalysis, Population};
use sparqlog_core::corpus::{analyze_streams, LogReader, MemoryLogReader};
use sparqlog_synth::{generate_corpus, CorpusConfig};

/// Common options for the harness binaries, parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessOptions {
    /// Corpus scale factor relative to the real Table-1 sizes.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Analyse the valid population (with duplicates) instead of the unique
    /// one — reproduces the appendix variants (Tables 7–9, Figures 8–10).
    pub valid_population: bool,
    /// Cap on entries per dataset (0 = none).
    pub cap: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 2e-5,
            seed: 42,
            valid_population: false,
            cap: 0,
        }
    }
}

impl HarnessOptions {
    /// Parses options from `std::env::args`; on a bad value prints the
    /// message and exits with status 2. See [`HarnessOptions::parse`].
    pub fn from_args() -> HarnessOptions {
        let args: Vec<String> = std::env::args().skip(1).collect();
        HarnessOptions::parse(&args).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    }

    /// Parses options from an argument list (program name excluded).
    /// Recognised flags: `--scale <f64>`, `--seed <u64>`, `--cap <u64>`,
    /// `--valid`. A recognised flag with a missing or unparseable value is
    /// an error; anything else passes through untouched, so a binary can
    /// layer flags of its own on top (`table6_streaks --entries`).
    pub fn parse(args: &[String]) -> Result<HarnessOptions, String> {
        fn value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
            let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
            value
                .parse()
                .map_err(|_| format!("{flag}: invalid value {value:?}"))
        }
        let mut opts = HarnessOptions::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => opts.scale = value(arg, args.next())?,
                "--seed" => opts.seed = value(arg, args.next())?,
                "--cap" => opts.cap = value(arg, args.next())?,
                "--valid" => opts.valid_population = true,
                _ => {}
            }
        }
        Ok(opts)
    }

    /// The population selected by the options.
    pub fn population(&self) -> Population {
        if self.valid_population {
            Population::Valid
        } else {
            Population::Unique
        }
    }
}

/// Generates and analyses the synthetic corpus in one call — the entry
/// point shared by most harness binaries.
pub fn analyzed_corpus(opts: &HarnessOptions) -> CorpusAnalysis {
    analyzed_corpus_stats(opts).0
}

/// [`analyzed_corpus`] returning the run's cache / interner counters too, so
/// harness binaries can print the [`stats_banner`] under their headline.
/// The generated entries are moved into [`MemoryLogReader`]s and drained
/// batch by batch, so the raw corpus is never duplicated.
pub fn analyzed_corpus_stats(opts: &HarnessOptions) -> (CorpusAnalysis, AnalysisStats) {
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
    let fused = analyze_streams(readers, opts.population()).expect("in-memory streams cannot fail");
    (fused.corpus, fused.stats)
}

/// Prints the standard harness banner describing the run.
pub fn banner(what: &str, opts: &HarnessOptions) {
    println!("== sparqlog :: {what} ==");
    println!(
        "synthetic corpus, scale {:.0e} of Table-1 sizes, seed {}, population: {}, workers: {}",
        opts.scale,
        opts.seed,
        if opts.valid_population {
            "Valid (with duplicates)"
        } else {
            "Unique"
        },
        sparqlog_core::default_workers()
    );
    println!();
}

/// Renders the analysis-run counters as a banner line: what the
/// fingerprint-keyed analysis cache absorbed and what the per-worker term
/// interners saved.
pub fn stats_banner(stats: &AnalysisStats) -> String {
    let mut out = String::new();
    match &stats.cache {
        Some(cache) => {
            out.push_str(&format!(
                "analysis cache: {} hits / {} misses ({:.1}% hit rate), {} distinct forms",
                cache.hits,
                cache.misses,
                cache.hit_rate() * 100.0,
                cache.distinct,
            ));
        }
        None => out.push_str("analysis cache: disabled"),
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_into_options() {
        let opts = HarnessOptions::parse(&args(&[
            "--scale", "1e-6", "--valid", "--seed", "7", "--cap", "9",
        ]));
        assert_eq!(
            opts,
            Ok(HarnessOptions {
                scale: 1e-6,
                seed: 7,
                valid_population: true,
                cap: 9,
            })
        );
        assert_eq!(HarnessOptions::parse(&[]), Ok(HarnessOptions::default()));
    }

    #[test]
    fn a_bad_or_missing_value_is_an_error_not_a_default() {
        for (list, flag) in [
            (&["--scale", "abc"][..], "--scale"),
            (&["--seed", "-1"][..], "--seed"),
            (&["--valid", "--cap", "many"][..], "--cap"),
            (&["--cap"][..], "--cap"),
        ] {
            let message = HarnessOptions::parse(&args(list)).expect_err("must be rejected");
            assert!(message.contains(flag), "{message}");
        }
    }

    #[test]
    fn unknown_flags_pass_through() {
        let opts = HarnessOptions::parse(&args(&[
            "--entries",
            "500",
            "--seed",
            "3",
            "--window",
            "12",
        ]));
        assert_eq!(
            opts,
            Ok(HarnessOptions {
                seed: 3,
                ..HarnessOptions::default()
            })
        );
    }

    #[test]
    fn analysis_runs_end_to_end() {
        let opts = HarnessOptions {
            scale: 1e-6,
            cap: 40,
            ..HarnessOptions::default()
        };
        let corpus = analyzed_corpus(&opts);
        assert_eq!(corpus.datasets.len(), 13);
        assert!(corpus.datasets.iter().all(|d| d.counts.total > 0));
        assert!(corpus.combined.keywords.total_queries > 0);
    }

    #[test]
    fn population_flag_switches_population() {
        let unique = HarnessOptions::default();
        let valid = HarnessOptions {
            valid_population: true,
            ..HarnessOptions::default()
        };
        assert_eq!(unique.population(), Population::Unique);
        assert_eq!(valid.population(), Population::Valid);
    }
}
