//! # sparqlog
//!
//! An analytical toolkit for large SPARQL query logs, reproducing the system
//! behind *"An Analytical Study of Large SPARQL Query Logs"* (Bonifati,
//! Martens, Timm; VLDB 2017).
//!
//! # Workspace layout
//!
//! This umbrella crate re-exports the individual workspace crates (each a
//! member under `crates/`) so that a downstream user can depend on a single
//! crate:
//!
//! * [`parser`] — SPARQL 1.1 lexer, AST, recursive-descent parser and the
//!   canonical serializer used for duplicate elimination.
//! * [`algebra`] — shallow analysis (keywords, triples, operator sets,
//!   projection), query fragments (CQ, CPF, CQF, AOF, well-designed, CQOF)
//!   and the single-pass [`algebra::QueryWalkRef`] every measure is derived
//!   from.
//! * [`graph`] — canonical graph / hypergraph construction (the graph as
//!   a word-parallel bit matrix), shape classification, treewidth and
//!   generalized hypertree width.
//! * [`paths`] — property-path taxonomy and C_tract tractability test.
//! * [`store`] — an in-memory RDF store with a binary-join and a
//!   worst-case-optimal trie-join engine.
//! * [`gmark`] — a schema-driven graph and query-workload generator.
//! * [`synth`] — a per-dataset calibrated SPARQL query-log synthesizer.
//! * [`streaks`] — Levenshtein-based streak detection over query logs.
//! * [`core`] — the corpus pipeline: the fused ingest→analyze engine, the
//!   sequential oracle it is tested against, and the report drivers.
//! * [`shard`] — multi-process sharded analysis: the binary snapshot codec,
//!   the `sparqlog-shard-worker` mode, the reusable worker supervision
//!   layer (heartbeats, stall detection) and the coordinator that merges
//!   per-process snapshots into reports byte-identical to the
//!   single-process engine's.
//! * [`serve`] — the long-running analysis daemon: TCP/Unix-socket
//!   sessions submit jobs, a supervised worker pool restarts and
//!   reassigns dead workers, and incremental reports stream back to any
//!   number of concurrent clients.
//! * [`obs`] — dependency-free metrics and tracing: lock-free counters,
//!   gauges and mergeable log-linear latency histograms behind a global
//!   registry, plus the structured event-journal schema
//!   ([`obs::EventRecord`]). Disabled (`SPARQLOG_METRICS=0`) it costs one
//!   relaxed atomic load per instrumentation point and never touches the
//!   clock; reports stay byte-identical either way.
//! * [`persist`] — the crash-safe snapshot store behind `--store`:
//!   checksummed append-only records, explicit commit points, fsync
//!   discipline, and a recovery scan that truncates torn tails and names
//!   exactly what was dropped. The serve daemon uses it to re-serve
//!   settled work without re-analysis (warm starts, resubmission dedup).
//!
//! Offline shims for the third-party dependencies live under `vendor/` (see
//! `vendor/README.md`), and the `sparqlog-paper` binary reproduces every
//! table, figure and section of the paper (`sparqlog-paper all`).
//!
//! # The fused streaming pipeline
//!
//! The corpus pipeline touches each query's AST exactly once, never
//! materializes what it can stream, and analyses each batch as it parses
//! ([`core::fused`]):
//!
//! 1. [`core::corpus::analyze_streams`] pulls batches of raw entries from
//!    [`core::corpus::LogReader`]s (in-memory or buffered line-oriented
//!    files whose line boundaries are found a machine word at a time) and,
//!    per entry, parses, hashes the canonical form into a 128-bit
//!    fingerprint *without building the canonical string*
//!    ([`parser::CanonicalHasher`]) and resolves the occurrence against a
//!    lock-free per-worker map: a first occurrence is analysed on the spot
//!    and memoized in the [`core::cache::AnalysisCache`] — which keeps each
//!    distinct record once, as a class, and maps the fingerprint to its
//!    `u32` class id — and a duplicate's AST is dropped inside its batch.
//!    Peak memory is O(in-flight batches + distinct fingerprints +
//!    classes), not O(corpus).
//! 2. [`core::QueryAnalysis`] runs one [`algebra::QueryWalkRef`] per distinct
//!    canonical form — one traversal feeding features, projection, property
//!    paths and the AOF pattern tree — and one canonical-graph construction
//!    shared by the shape, treewidth, girth and constants-excluded analyses.
//!    The graph is a bit matrix ([`graph::CanonicalGraph`]: one `u64` per
//!    adjacency row for the 5–9-node graphs real queries have, more words
//!    for the outliers), numbered in one scan over the pattern tree's
//!    triples; shape classes, the treewidth reduction and the
//!    girth search run on popcounts and node masks of that matrix, and a
//!    query's IRIs and literals are compared in place, never interned.
//! 3. The **occurrence-weighted fold**
//!    ([`core::DatasetAnalysis::add_times`]) turns per-log
//!    occurrence maps into the corpus analysis, once per (log, class),
//!    beside one [`core::LogSummary`] per log (label, counts, error
//!    tally; the fingerprints are counted, not kept): the Unique
//!    population weighs a class by its distinct fingerprints in the log,
//!    the Valid population by their occurrence counts. Results are
//!    bit-identical for any worker count or batch
//!    schedule (see `tests/determinism.rs`, `tests/fused.rs`).
//!
//! That engine is the only path production code takes. Its reference is
//! [`core::baseline::analyze_reference`], a sequential oracle that computes
//! the same analysis the naive way over the same parsed tree — the canonical
//! string materialized and then hashed, one `HashSet` per log, four
//! independent walks per query, no cache, no threads — and that the
//! differential tests (`tests/differential.rs`, `tests/fused.rs`,
//! `tests/cache.rs`, `tests/robustness.rs`) hold the engine to, byte for
//! byte, on both populations.
//!
//! # Quickstart
//!
//! Run `cargo run --example quickstart` for the full tour, or start with:
//!
//! ```
//! use sparqlog::core::analysis::Population;
//! use sparqlog::core::corpus::{analyze_streams, LogReader, MemoryLogReader};
//! use sparqlog::core::{report, QueryAnalysis};
//!
//! // Per-query analysis: one query's text to its record.
//! let analysis = QueryAnalysis::of_text(
//!     "SELECT ?s WHERE { ?s <http://xmlns.com/foaf/0.1/name> ?n . FILTER(lang(?n) = 'en') }",
//! ).expect("valid SPARQL");
//! assert_eq!(analysis.features.triple_patterns, 1);
//! assert!(analysis.features.uses_filter);
//!
//! // Corpus analysis on the fused engine: each batch is parsed,
//! // fingerprinted, deduplicated and folded in one pass — no AST outlives
//! // its batch. FileLogReader streams `\n`-terminated logs straight from
//! // disk the same way.
//! let readers: Vec<Box<dyn LogReader>> = vec![Box::new(MemoryLogReader::new(
//!     "example",
//!     vec![
//!         "SELECT ?x WHERE { ?x a <http://example.org/C> }".to_string(),
//!         "ASK { ?a <http://p> ?b . ?b <http://p> ?c . ?c <http://p> ?a }".to_string(),
//!         "not a query".to_string(),
//!     ],
//! ))];
//! let fused = analyze_streams(readers, Population::Unique).expect("in-memory streams");
//! assert_eq!(fused.summaries[0].counts.valid, 2);
//! assert_eq!(fused.corpus.combined.counts.valid, 2);
//! assert_eq!(fused.corpus.combined.cycle_lengths.get(&3), Some(&1));
//! // Malformed entries are structured data, not exceptions: the third
//! // entry lands in the per-log error tally and the report's error table.
//! assert_eq!(fused.summaries[0].errors.count(sparqlog::parser::ErrorKind::Syntax), 1);
//! println!("{}", report::table1(&fused.corpus));
//! ```
//!
//! Logs are rarely clean, so the error model is first-class
//! ([`core::recover`]): every per-entry failure is classified
//! ([`parser::ErrorKind`]: lex / syntax / invalid-utf8 / oversize-entry /
//! depth-exceeded / worker-panic), tallied per log
//! ([`core::ErrorTally`]), and governed by a
//! [`core::RecoveryPolicy`] — `strict` aborts on defects with the log
//! and line named, `lenient` recovers and tallies everything,
//! `budget:<n>` tolerates `n` defects per 10k entries — honoured
//! identically by the in-process, sharded and served engine
//! (`--recovery` / `SPARQLOG_RECOVERY`; `tests/robustness.rs` and the
//! `tests/fuzz_recovery.rs` fuzz harness hold the byte-identity line).
//!
//! # Sharding across processes
//!
//! The fused engine's commutative merge layer ([`core::DatasetAnalysis`]
//! merges, [`core::cache::AnalysisCache`]) is a
//! real distribution boundary: the [`shard`] coordinator partitions a
//! corpus of on-disk logs across N `sparqlog-shard-worker` processes,
//! decodes their framed binary snapshots (a dependency-free varint codec
//! with an explicit version byte), and merges them into a report **byte-
//! identical** to the single-process fused engine's at any shard count ×
//! worker-thread matrix (`tests/shard.rs`):
//!
//! ```no_run
//! use sparqlog::core::{report, Population};
//! use sparqlog::shard::{analyze_sharded, LogSpec, ShardOptions, WorkerCommand};
//!
//! let logs = vec![
//!     LogSpec::new("DBpedia15", "logs/dbpedia15.log"),
//!     LogSpec::new("WikiData17", "logs/wikidata17.log"),
//! ];
//! let mut options = ShardOptions::new(WorkerCommand::resolve_default()?);
//! options.shards = 4;
//! let sharded = analyze_sharded(&logs, Population::Unique, &options)?;
//! println!("{}", report::table1(&sharded.corpus));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # The analysis service
//!
//! The same supervision layer powers a long-running daemon
//! ([`serve`], the `sparqlog-serve` / `sparqlog-client` binaries): jobs
//! arrive over a socket, partitions fan out to supervised worker
//! processes (heartbeat liveness, bounded-backoff restarts,
//! reassignment without double-counting), and a complete job's report is
//! byte-identical to the in-process engine's:
//!
//! ```no_run
//! use sparqlog::core::{Population, RecoveryPolicy};
//! use sparqlog::serve::{Client, ServeAddr};
//! use std::time::Duration;
//!
//! let addr = ServeAddr::Tcp("127.0.0.1:7878".to_string());
//! let mut client = Client::connect(&addr)?;
//! let (job, _partitions) = client.submit(
//!     Population::Unique,
//!     RecoveryPolicy::Lenient, // tally malformed entries instead of failing
//!     vec![("DBpedia15".to_string(), "logs/dbpedia15.log".to_string())],
//! )?;
//! client.wait_settled(job, Duration::from_secs(600))?;
//! println!("{}", client.report(job, true)?.text);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use sparqlog_algebra as algebra;
pub use sparqlog_core as core;
pub use sparqlog_gmark as gmark;
pub use sparqlog_graph as graph;
pub use sparqlog_obs as obs;
pub use sparqlog_parser as parser;
pub use sparqlog_paths as paths;
pub use sparqlog_persist as persist;
pub use sparqlog_serve as serve;
pub use sparqlog_shard as shard;
pub use sparqlog_store as store;
pub use sparqlog_streaks as streaks;
pub use sparqlog_synth as synth;
