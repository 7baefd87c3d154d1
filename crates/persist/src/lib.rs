//! # sparqlog-persist
//!
//! The crash-safe persistent snapshot store of the `sparqlog` toolkit: a
//! durable, append-only file of CRC-checked records with explicit commit
//! points, torn-write recovery and warm-start serving.
//!
//! * [`store`] — the [`SnapshotStore`]: per-log analyses keyed by their
//!   canonical identity and completed-job manifests, made durable by
//!   [`SnapshotStore::commit`] (commit record, then `fsync` — data first,
//!   directory entry at creation). [`SnapshotStore::open`] scans the file,
//!   truncates anything after the last valid commit, and reports exactly
//!   which byte range was dropped and why. It never panics on any input.
//!   In memory it keeps only where each snapshot sits in the file;
//!   [`SnapshotStore::load`] reads one back and checks it.
//!
//! [`SnapshotStore::commit`] also hosts the test-only crash injection
//! (`SPARQLOG_PERSIST_FAULT`) at the four interesting instants of the commit
//! protocol that drives the CI crash drill; its modes live with the worker
//! faults in [`sparqlog_shard::faults`] as
//! [`StoreFault`](sparqlog_shard::faults::StoreFault).
//!
//! Each log's analysis is keyed by its canonical identity
//! ([`file_identity`](sparqlog_core::file_identity)): the serve daemon
//! (`sparqlog-serve --store`) analyses a log once and answers every later
//! submission of it — across restarts — from the store:
//!
//! ```
//! use sparqlog_core::corpus::{analyze_streams, FileLogReader, LogReader};
//! use sparqlog_core::{file_identity, PersistedLog, Population};
//! use sparqlog_persist::SnapshotStore;
//!
//! let dir = std::env::temp_dir().join(format!("sparqlog-persist-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("wikidata.log");
//! std::fs::write(&path, "SELECT ?x WHERE { ?x a <http://example.org/C> }\n")?;
//! let key = file_identity(Population::Unique, "wikidata", &path)?;
//! let reader = FileLogReader::open("wikidata", &path)?;
//! let readers: Vec<Box<dyn LogReader>> = vec![Box::new(reader)];
//! let mut fused = analyze_streams(readers, Population::Unique)?;
//! let log = PersistedLog {
//!     summary: fused.summaries.remove(0),
//!     analysis: fused.corpus.datasets.remove(0),
//! };
//!
//! // Stage the snapshot, then make it durable: commit record, then fsync.
//! let (mut store, _) = SnapshotStore::open(dir.join("snapshots.sqps"))?;
//! assert!(store.record_snapshot(key, &log)?);
//! store.commit()?;
//! drop(store);
//!
//! // A fresh process reopens the store; the recovery scan finds it clean.
//! let (store, report) = SnapshotStore::open(dir.join("snapshots.sqps"))?;
//! assert!(report.is_clean());
//! assert_eq!(store.load(key)?, Some(log));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod store;

pub use store::{JobLog, JobRecord, RecoveryReason, RecoveryReport, SnapshotRef, SnapshotStore};
