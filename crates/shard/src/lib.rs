//! # sparqlog-shard
//!
//! Multi-process sharded corpus analysis: a dependency-free binary
//! **snapshot codec**, a **worker mode** that runs the fused single-pass
//! engine over a partition of logs and streams framed snapshots to stdout,
//! and a **coordinator** that spawns N worker processes, decodes their
//! snapshots and merges them commutatively into a [`CorpusAnalysis`] whose
//! rendered report is **byte-identical** to the single-process fused
//! engine's — at any shard count and any per-worker thread count.
//!
//! The merge layer was shard-ready by design —
//! [`DatasetAnalysis::merge`](sparqlog_core::analysis::DatasetAnalysis::merge)
//! is commutative — and this crate freezes the per-log results into a wire
//! format and merges them across a real process boundary (each worker's
//! analysis cache stays in its process; only its
//! [`CacheStats`](sparqlog_core::cache::CacheStats) travel):
//!
//! * [`codec`] — varint/length-prefixed framing with an explicit version
//!   byte and structured [`DecodeError`]s carrying the fault's byte offset.
//! * [`snapshot`] — [`Snapshot`] encode/decode for
//!   [`LogSummary`], [`CorpusCounts`](sparqlog_core::corpus::CorpusCounts),
//!   every tally behind
//!   [`DatasetAnalysis`](sparqlog_core::analysis::DatasetAnalysis),
//!   [`CacheStats`](sparqlog_core::cache::CacheStats), and the framed
//!   worker stream.
//! * [`worker`] — the worker mode behind the `sparqlog-shard-worker`
//!   binary, including optional liveness heartbeats (`--heartbeat-ms`).
//! * [`coordinator`] — partitioning, process spawning (plain
//!   `std::process`, piped stdio), structured per-shard errors, and the
//!   commutative merge.
//! * [`supervise`] — the reusable spawn/decode/diagnose layer shared by the
//!   batch coordinator and the long-running `sparqlog-serve` daemon:
//!   [`WorkerLaunch`] → [`WorkerHandle`] with per-frame liveness tracking
//!   and stall detection.
//! * [`faults`] — the consolidated (test-only) fault-injection knobs.
//!
//! # Coordinator quickstart
//!
//! Analyse on-disk logs across 4 worker processes (the worker binary ships
//! with the umbrella crate — `cargo build -p sparqlog` — and is found next
//! to the current executable, or via `SPARQLOG_SHARD_WORKER`):
//!
//! ```no_run
//! use sparqlog_shard::{analyze_sharded, LogSpec, ShardOptions, WorkerCommand};
//! use sparqlog_core::{report, Population};
//!
//! let logs = vec![
//!     LogSpec::new("DBpedia15", "logs/dbpedia15.log"),
//!     LogSpec::new("WikiData17", "logs/wikidata17.log"),
//! ];
//! let mut options = ShardOptions::new(WorkerCommand::resolve_default()?);
//! options.shards = 4; // 0 = SPARQLOG_SHARDS env, else available parallelism
//! let sharded = analyze_sharded(&logs, Population::Unique, &options)?;
//! // Byte-identical to the single-process fused engine over the same files.
//! println!("{}", report::table1(&sharded.corpus));
//! println!(
//!     "{} shards, {} snapshot bytes",
//!     sharded.shards(),
//!     sharded.snapshot_bytes()
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The codec itself needs no processes:
//!
//! ```
//! use sparqlog_core::corpus::{CorpusCounts, LogSummary};
//! use sparqlog_shard::snapshot::Snapshot;
//!
//! let summary = LogSummary {
//!     label: "example".to_string(),
//!     counts: CorpusCounts { total: 4, valid: 3, unique: 2, bodyless: 0 },
//!     errors: Default::default(),
//! };
//! let decoded = LogSummary::from_bytes(&summary.to_bytes()).unwrap();
//! assert_eq!(decoded, summary);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod coordinator;
pub mod faults;
pub mod snapshot;
pub mod supervise;
pub mod worker;

pub use codec::{DecodeError, DecodeErrorKind, StreamError};
pub use coordinator::{
    analyze_sharded, analyze_sharded_all, default_shards, partition, LogSpec, ShardError,
    ShardFailure, ShardOptions, ShardRunStats, ShardedAnalysis, WorkerCommand,
};
pub use faults::FaultMode;
pub use snapshot::{
    read_snapshot, read_snapshot_observed, EpilogueFrame, Frame, HeartbeatFrame, LogFrame,
    Snapshot, WorkerSnapshot,
};
pub use supervise::{ActivityClock, WorkerHandle, WorkerLaunch, WorkerOutput};
pub use worker::{AssignedLog, WorkerConfig};

// Re-exported so downstream code and docs can name the merged result types
// without an extra import of the core crate.
pub use sparqlog_core::analysis::CorpusAnalysis;
pub use sparqlog_core::corpus::LogSummary;
