//! # sparqlog-core
//!
//! The corpus pipeline and report drivers of the `sparqlog` toolkit — the
//! primary contribution of *"An Analytical Study of Large SPARQL Query
//! Logs"* (Bonifati–Martens–Timm, VLDB 2017) turned into a reusable library:
//!
//! * [`fused`] — the engine ([`fused::analyze_streams`]): each batch is
//!   analysed as it parses, duplicates fold occurrence-weighted, and no
//!   query AST outlives its batch. The only path production code takes from
//!   raw entries to a [`CorpusAnalysis`].
//! * [`corpus`] — its input side: [`corpus::RawLog`], the Table-1
//!   [`CorpusCounts`], the streaming [`corpus::LogReader`]s (in-memory,
//!   line-oriented, file-backed), the reusable [`corpus::EntryBlock`] a
//!   worker reads each batch into, and the batch source: one lane per log,
//!   each under its own lock, assigning entry positions.
//! * [`query_analysis`] — the single-pass per-query intermediate
//!   ([`QueryAnalysis`]): one AST traversal and one canonical-graph
//!   construction feed every measure.
//! * [`cache`] — the sharded, fingerprint-keyed [`cache::AnalysisCache`]:
//!   each distinct canonical form is analysed once per corpus run, and
//!   each distinct record is kept once, as a class.
//! * [`analysis`] — the per-dataset / corpus-level record of commutative
//!   tallies the per-query analyses fold into, and the fold pool.
//! * [`baseline`] — the oracle ([`baseline::analyze_reference`]): a
//!   sequential, uncached, multi-walk implementation of the same pipeline
//!   over materialized canonical strings, which the engine is tested
//!   against byte for byte.
//! * [`incremental`] — per-log results and their one assembly: the
//!   canonical identity a log is stored under (population + label + raw
//!   bytes), the store-hit rule, and [`LogSlots`], which the shard
//!   coordinator and the serve job table fill once per log, meter the error
//!   budget through, and render the corpus from.
//! * [`recover`] — the malformed-input error model: the stable
//!   [`ErrorKind`] taxonomy, the per-log [`ErrorTally`], and the
//!   [`RecoveryPolicy`] (strict / lenient / error-budget).
//! * [`report`] — plain-text renderers, one per table and figure.
//!
//! ```
//! use sparqlog_core::corpus::{analyze_streams, LogReader, MemoryLogReader};
//! use sparqlog_core::{report, Population};
//!
//! let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
//!     "example",
//!     vec!["SELECT ?x WHERE { ?x a <http://example.org/C> }".to_string()],
//! ))];
//! let fused = analyze_streams(readers, Population::Unique)?;
//! println!("{}", report::table1(&fused.corpus));
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! Dirty logs are first-class: in Lenient mode every malformed entry —
//! unparseable, invalid UTF-8, oversize, too deeply nested, even one that
//! panics the analyzer — is recovered and tallied per log, and a non-empty
//! tally appends an error table to the full report:
//!
//! ```
//! use sparqlog_core::corpus::{MemoryLogReader, LogReader};
//! use sparqlog_core::{analyze_streams_with, report, ErrorKind, FusedOptions, Population,
//!     RecoveryPolicy};
//!
//! let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
//!     "dirty",
//!     vec![
//!         "SELECT ?x WHERE { ?x a <http://example.org/C> }".to_string(),
//!         "SELECT ?x WHERE { ?x <http://p> \"unterminated".to_string(),
//!     ],
//! ))];
//! let fused = analyze_streams_with(
//!     readers,
//!     Population::Unique,
//!     FusedOptions { recovery: RecoveryPolicy::Lenient, ..FusedOptions::default() },
//! )?;
//! let tally = &fused.summaries[0].errors;
//! assert_eq!(tally.count(ErrorKind::Lex), 1);
//! assert!(report::full_report(&fused.corpus).contains("first errors: lex@1"));
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod cache;
pub mod corpus;
pub mod fused;
pub mod incremental;
pub mod query_analysis;
pub mod recover;
pub mod report;

pub use analysis::{AnalysisStats, CorpusAnalysis, DatasetAnalysis, Population};
pub use cache::{AnalysisCache, CacheStats};
pub use corpus::{
    default_workers, CorpusCounts, EntryBlock, FileLogReader, LineLogReader, LogReader,
    MemoryLogReader, RawLog,
};
pub use fused::{
    analyze_streams, analyze_streams_with, FusedAnalysis, FusedOptions, FusedStats, LogSummary,
};
pub use incremental::{file_identity, log_identity, LogSlots, PersistedLog, Refused};
pub use query_analysis::QueryAnalysis;
pub use recover::{BudgetExceeded, ErrorTally, ReaderDefect, RecoveryPolicy};
pub use sparqlog_parser::ErrorKind;
